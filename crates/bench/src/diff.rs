//! Comparison engine for the `bench-diff` perf gate.
//!
//! Two committed-baseline JSON files (`results/BENCH_*.json`) are
//! flattened to dotted-path numeric leaves, the paths are matched
//! against a whitelist of performance keys with a known direction
//! (time-like: lower is better; throughput-like: higher is better),
//! and each shared key is compared under a noise band (see [`diff`]).
//! Everything else — configuration (`threads`, `n`, `grain`), counters,
//! indices — is ignored: a counter moving is not a regression.
//!
//! `ratios_only` restricts the comparison to machine-independent keys
//! (utilizations, fractions, normalized times, speedups), which is what
//! CI uses when diffing a fresh run against a baseline committed from a
//! different machine.

use serde_json::Value;

/// Which way a performance key improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    LowerIsBetter,
    HigherIsBetter,
}

/// Fields naming an element of a JSON array of objects; the first one
/// present labels the element in the flattened path (instead of its
/// index, which would misalign when entries are added or reordered).
const LABEL_FIELDS: [&str; 6] = [
    "name",
    "mode",
    "label",
    "position",
    "discipline",
    "experiment",
];

/// Substrings marking a path as throughput-like (higher is better).
/// Checked before the time-like list, so `items_per_sec` and
/// `speedup_vs_static` land here despite also containing `vs_`.
const HIGHER_BETTER: [&str; 4] = ["per_sec", "utilization", "speedup", "throughput"];

/// Substrings marking a path as time-like (lower is better).
const LOWER_BETTER: [&str; 10] = [
    "time_ms",
    "time_vs_absent",
    "mean",
    "median",
    "p50",
    "p99",
    "p999",
    "best_ns",
    "makespan",
    "fraction",
];

/// The floor under a `fraction` key's band: fractions live in [0, 1],
/// so `noise × old` around a small one is only a few hundredths wide.
const FRACTION_FLOOR: f64 = 0.1;

/// Substrings marking a path as machine-independent (survives
/// `ratios_only`).
const RATIO_KEYS: [&str; 5] = [
    "fraction",
    "utilization",
    "speedup",
    "time_vs_absent",
    "ratio",
];

/// The comparison direction of a flattened path, `None` if it is not a
/// whitelisted performance key.
pub fn perf_direction(path: &str) -> Option<Direction> {
    if HIGHER_BETTER.iter().any(|k| path.contains(k)) {
        return Some(Direction::HigherIsBetter);
    }
    if LOWER_BETTER.iter().any(|k| path.contains(k)) {
        return Some(Direction::LowerIsBetter);
    }
    None
}

/// `key` occurs in `path` on `_`/`.` word boundaries — so "fraction"
/// matches "local_fraction" but "ratio" does not match "duration".
fn contains_word(path: &str, key: &str) -> bool {
    let bytes = path.as_bytes();
    let mut from = 0;
    while let Some(i) = path[from..].find(key) {
        let start = from + i;
        let end = start + key.len();
        let ok_before = start == 0 || !bytes[start - 1].is_ascii_alphanumeric();
        let ok_after = end == bytes.len() || !bytes[end].is_ascii_alphanumeric();
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Whether a path is machine-independent (a ratio of two measurements
/// from the same run, not an absolute time).
pub fn is_ratio_key(path: &str) -> bool {
    RATIO_KEYS.iter().any(|k| contains_word(path, k))
}

fn label_of(v: &Value) -> Option<String> {
    if let Value::Object(fields) = v {
        for want in LABEL_FIELDS {
            if let Some((_, Value::String(s))) = fields.iter().find(|(k, _)| k == want) {
                return Some(s.replace('.', "_"));
            }
        }
    }
    None
}

fn join(prefix: &str, seg: &str) -> String {
    if prefix.is_empty() {
        seg.to_string()
    } else {
        format!("{prefix}.{seg}")
    }
}

/// Flatten every numeric leaf to a `(dotted.path, value)` pair.
pub fn flatten(v: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Number(x) => out.extend(x.as_f64().map(|x| (prefix.to_string(), x))),
        Value::Object(fields) => {
            for (k, child) in fields {
                flatten(child, &join(prefix, k), out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                let seg = label_of(child).unwrap_or_else(|| i.to_string());
                flatten(child, &join(prefix, &seg), out);
            }
        }
        Value::Null | Value::Bool(_) | Value::String(_) => {}
    }
}

/// One compared key.
#[derive(Debug, Clone)]
pub struct DiffLine {
    pub path: String,
    pub direction: Direction,
    pub old: f64,
    pub new: f64,
    /// `new / old` — above 1 means slower for time-like keys.
    pub ratio: f64,
    pub regressed: bool,
}

/// Compare every whitelisted performance key of the baseline. `noise`
/// is the allowed multiplicative band (0.25 = 25%); a `fraction` key
/// may move by `noise × max(old, FRACTION_FLOOR)` instead. Keys whose
/// baseline value is zero or non-finite are skipped (no ratio exists); a
/// whitelisted baseline key *absent from the candidate* is reported as
/// regressed with a NaN candidate value. Keys only the candidate has
/// are new measurements and are not compared.
pub fn diff(old: &Value, new: &Value, noise: f64, ratios_only: bool) -> Vec<DiffLine> {
    let mut old_leaves = Vec::new();
    let mut new_leaves = Vec::new();
    flatten(old, "", &mut old_leaves);
    flatten(new, "", &mut new_leaves);
    let mut lines = Vec::new();
    for (path, old_v) in &old_leaves {
        let Some(direction) = perf_direction(path) else {
            continue;
        };
        if ratios_only && !is_ratio_key(path) {
            continue;
        }
        if !old_v.is_finite() || *old_v <= 0.0 {
            continue;
        }
        let Some((_, new_v)) = new_leaves.iter().find(|(p, _)| p == path) else {
            // A whitelisted key the baseline has but the candidate lost
            // is a hard failure, not a silent skip: a renamed benchmark
            // or a dropped measurement would otherwise un-gate itself.
            lines.push(DiffLine {
                path: path.clone(),
                direction,
                old: *old_v,
                new: f64::NAN,
                ratio: f64::NAN,
                regressed: true,
            });
            continue;
        };
        if !new_v.is_finite() {
            continue;
        }
        let band = if contains_word(path, "fraction") {
            noise * old_v.max(FRACTION_FLOOR)
        } else {
            noise * old_v
        };
        let regressed = match direction {
            Direction::LowerIsBetter => new_v - old_v > band,
            Direction::HigherIsBetter => old_v - new_v > band,
        };
        lines.push(DiffLine {
            path: path.clone(),
            direction,
            old: *old_v,
            new: *new_v,
            ratio: new_v / old_v,
            regressed,
        });
    }
    lines
}

/// Whether any compared key regressed.
pub fn has_regression(lines: &[DiffLine]) -> bool {
    lines.iter().any(|l| l.regressed)
}

/// Human-readable report of the comparison.
pub fn render(lines: &[DiffLine], noise: f64) -> String {
    let mut out = String::new();
    let width = lines.iter().map(|l| l.path.len()).max().unwrap_or(4).max(4);
    out.push_str(&format!(
        "{:<width$} {:>14} {:>14} {:>8}  verdict (noise band {:.0}%)\n",
        "key",
        "baseline",
        "candidate",
        "ratio",
        noise * 100.0
    ));
    for l in lines {
        let verdict = if l.new.is_nan() {
            "MISSING"
        } else if l.regressed {
            "REGRESSED"
        } else {
            match l.direction {
                Direction::LowerIsBetter if l.ratio < 1.0 - noise => "improved",
                Direction::HigherIsBetter if l.ratio > 1.0 + noise => "improved",
                _ => "ok",
            }
        };
        out.push_str(&format!(
            "{:<width$} {:>14.6} {:>14.6} {:>8.3}  {}\n",
            l.path, l.old, l.new, l.ratio, verdict
        ));
    }
    let regressed = lines.iter().filter(|l| l.regressed).count();
    out.push_str(&format!(
        "{} keys compared, {} regressed\n",
        lines.len(),
        regressed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    #[test]
    fn flatten_labels_arrays_by_name_fields() {
        let val = v(r#"{"benchmarks": [{"name": "a", "stats": {"mean": 1.5}},
                                       {"name": "b", "stats": {"mean": 2.5}}],
                        "plain": [10, 20]}"#);
        let mut leaves = Vec::new();
        flatten(&val, "", &mut leaves);
        let get = |p: &str| leaves.iter().find(|(k, _)| k == p).map(|(_, x)| *x);
        assert_eq!(get("benchmarks.a.stats.mean"), Some(1.5));
        assert_eq!(get("benchmarks.b.stats.mean"), Some(2.5));
        assert_eq!(get("plain.1"), Some(20.0));
    }

    #[test]
    fn direction_whitelist() {
        assert_eq!(
            perf_direction("benchmarks.x.stats.mean"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            perf_direction("benchmarks.x.latency.task_duration_ns.p99"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            perf_direction("benchmarks.x.profile.utilization"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            perf_direction("speedup_vs_static.guided.0"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(perf_direction("threads"), None);
        assert_eq!(perf_direction("sched.steals"), None);
        assert_eq!(perf_direction("iterations"), None);
    }

    #[test]
    fn regression_beyond_noise_band_is_flagged() {
        let old = v(r#"{"benchmarks": [{"name": "k", "stats": {"mean": 1.0}}]}"#);
        let slower = v(r#"{"benchmarks": [{"name": "k", "stats": {"mean": 1.3}}]}"#);
        let lines = diff(&old, &slower, 0.25, false);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].regressed, "30% slower beats the 25% band");
        assert!(has_regression(&lines));

        let ok = v(r#"{"benchmarks": [{"name": "k", "stats": {"mean": 1.2}}]}"#);
        let lines = diff(&old, &ok, 0.25, false);
        assert!(!has_regression(&lines), "20% is inside the band");
    }

    #[test]
    fn higher_is_better_keys_regress_downward() {
        let old = v(r#"{"profile": {"utilization": 0.8}}"#);
        let worse = v(r#"{"profile": {"utilization": 0.5}}"#);
        let better = v(r#"{"profile": {"utilization": 0.9}}"#);
        assert!(has_regression(&diff(&old, &worse, 0.25, false)));
        assert!(!has_regression(&diff(&old, &better, 0.25, false)));
    }

    #[test]
    fn ratios_only_drops_absolute_times() {
        let old = v(r#"{"time_ms": 10.0, "serial_fraction": 0.2}"#);
        let new = v(r#"{"time_ms": 50.0, "serial_fraction": 0.2}"#);
        let lines = diff(&old, &new, 0.25, true);
        assert_eq!(lines.len(), 1, "only the fraction survives");
        assert_eq!(lines[0].path, "serial_fraction");
        assert!(!has_regression(&lines), "the 5x time_ms blowup is ignored");
    }

    #[test]
    fn small_fractions_get_a_floored_band() {
        let old = v(r#"{"profile": {"serial_fraction": 0.042}}"#);
        let noisy = v(r#"{"profile": {"serial_fraction": 0.083}}"#);
        let worse = v(r#"{"profile": {"serial_fraction": 0.25}}"#);
        assert!(!has_regression(&diff(&old, &noisy, 0.75, true)));
        assert!(has_regression(&diff(&old, &worse, 0.75, true)));
    }

    #[test]
    fn ratio_keys_match_on_word_boundaries() {
        assert!(is_ratio_key("profile.critical_path_fraction"));
        assert!(is_ratio_key("steal_mix.local_fraction"));
        assert!(is_ratio_key("points.front.time_vs_absent"));
        assert!(is_ratio_key("overhead.ratio"));
        // "duration" contains the letters of "ratio" but is an absolute
        // time — it must not survive a ratios-only diff.
        assert!(!is_ratio_key("latency.task_duration_ns.p99"));
        let old = v(r#"{"latency": {"task_duration_ns": {"p99": 100.0}}}"#);
        let new = v(r#"{"latency": {"task_duration_ns": {"p99": 400.0}}}"#);
        assert!(diff(&old, &new, 0.25, true).is_empty());
    }

    #[test]
    fn zero_baseline_keys_are_skipped_but_missing_keys_fail() {
        let old = v(r#"{"a": {"mean": 0.0}, "b": {"mean": 1.0}}"#);
        let new = v(r#"{"a": {"mean": 5.0}, "c": {"mean": 9.0}}"#);
        let lines = diff(&old, &new, 0.25, false);
        assert_eq!(lines.len(), 1, "zero baseline skipped, missing kept");
        assert_eq!(lines[0].path, "b.mean");
        assert!(lines[0].new.is_nan(), "no candidate value exists");
        assert!(lines[0].regressed, "a lost baseline key is a regression");
        assert!(has_regression(&lines));
        let text = render(&lines, 0.25);
        assert!(text.contains("MISSING"));
    }

    #[test]
    fn missing_keys_respect_the_ratios_only_filter() {
        let old = v(r#"{"time_ms": 10.0, "serial_fraction": 0.2}"#);
        let new = v(r#"{"other": 1.0}"#);
        let lines = diff(&old, &new, 0.25, true);
        assert_eq!(lines.len(), 1, "absolute time_ms is filtered out");
        assert_eq!(lines[0].path, "serial_fraction");
        assert!(lines[0].regressed);
    }

    /// The gate's self-test: a 30% slowdown injected into every `mean`
    /// and task-duration `p99` of the committed profile baseline must
    /// fail the default 25% band, and the untouched copy must pass.
    #[test]
    fn injected_slowdown_of_the_committed_profile_is_flagged() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_profile.json"
        );
        let committed = v(&std::fs::read_to_string(path).expect("committed profile baseline"));
        assert!(!has_regression(&diff(&committed, &committed, 0.25, false)));
        let mut slower = committed.clone();
        let benchmarks = committed["benchmarks"].as_array().map_or(0, Vec::len);
        assert!(benchmarks > 0, "the baseline has measurements");
        for i in 0..benchmarks {
            let mean = slower
                .pointer_mut(&format!("/benchmarks/{i}/stats/mean"))
                .unwrap();
            *mean = v(&format!("{}", mean.as_f64().unwrap() * 1.30));
            let p99 = format!("/benchmarks/{i}/latency/task_duration_ns/p99");
            if let Some(p99) = slower.pointer_mut(&p99) {
                *p99 = v(&format!("{}", (p99.as_f64().unwrap() * 1.30) as u64));
            }
        }
        let lines = diff(&committed, &slower, 0.25, false);
        assert!(has_regression(&lines), "{}", render(&lines, 0.25));
    }

    #[test]
    fn render_mentions_every_verdict() {
        let old = v(r#"{"x": {"mean": 1.0}, "y": {"mean": 1.0}}"#);
        let new = v(r#"{"x": {"mean": 2.0}, "y": {"mean": 1.0}}"#);
        let lines = diff(&old, &new, 0.25, false);
        let text = render(&lines, 0.25);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("ok"));
        assert!(text.contains("2 keys compared, 1 regressed"));
    }
}
