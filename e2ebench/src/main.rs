//! End-to-end, layer-attributed benchmark of the pstl stack.
//!
//! ```text
//! e2ebench --workload bulk|fine|jobs --seed N --seconds S --trace 0|1
//!          [--setups K] [--spans FILE]
//! ```
//!
//! Sets up `K` times (the median is `setup_s`), then runs ops for `S`
//! seconds (and at least `MIN_OPS`), checking every op against an oracle
//! computed during set-up. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The exit code is non-zero when any op or conservation
//! check failed. See README.md in this directory.

mod batch;
mod common;
mod jobs;
mod span;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{MetricList, Outcome};

/// Enough ops for ten samples beyond p90.
pub const MIN_OPS: usize = 100;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setups: usize,
    pub spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setups: 7,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--setups" => args.setups = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--spans" => args.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err(format!("bad value for --seconds: {}", args.seconds));
    }
    Ok(args)
}

/// The stream and service metrics of a workload that bypasses both
/// layers: zero by construction.
pub fn bypassed_stream_and_service(m: &mut MetricList) {
    for (name, unit) in [
        ("stream.run_us", "us"),
        ("stream.stage_fn_us", "us"),
        ("stream.hop_ns_per_item", "ns/item"),
        ("stream.push_waits_per_item", "1/item"),
        ("service.submit_us", "us"),
        ("service.queue_us", "us"),
        ("service.body_us", "us"),
        ("service.complete_us", "us"),
        ("service.queue_wait_p50_us", "us"),
        ("service.rejected", "count"),
        ("service.shed", "count"),
        ("service.retried", "count"),
    ] {
        m.push(name, 0.0, unit);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "bulk" => batch::run(&args, &batch::BULK),
        "fine" => batch::run(&args, &batch::FINE),
        "jobs" => jobs::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other:?} (bulk, fine, jobs)");
            return ExitCode::from(2);
        }
    };
    let correct = out.failed == 0 && !out.metrics.is_empty();
    println!(
        "{} seed={} ops={} failed={} error_rate={} threads=2 available_parallelism={}",
        args.workload,
        args.seed,
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in &out.metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
