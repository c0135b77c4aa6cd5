//! The `bench-diff` perf gate: [`diff`] compares two committed-baseline
//! JSON files (`results/BENCH_*.json`) key by key.

pub mod diff;
