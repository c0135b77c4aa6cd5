//! Run the suite's experiments by name: `suite <name>...` prints each and
//! writes its JSON, `--list` names them (with the baseline each gated
//! one writes), `--all` runs them all in DESIGN.md §4 order, and
//! `--check <name>...` also holds each fresh `BENCH_*.json` to its
//! experiment's gates, against the committed copy in the workspace's
//! `results/` (read before the run can overwrite it). Documents go to
//! `$PSTL_RESULTS` or that `results/`. Exit status: 0 = every gate held,
//! 1 = a gate failed, 2 = a usage error or a document that could not be
//! read or written.

use std::process::ExitCode;

use pstl_suite::experiments::{lookup, Experiment, REGISTRY};
use pstl_suite::gate::Gates;
use pstl_suite::output::{baseline_dir, read_json, results_dir};

const USAGE: &str = "usage: suite <name>... | --list | --all | --check <name>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, names) = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("--list") if args.len() == 1 => {
            for e in REGISTRY {
                let file = e.check.as_ref().map_or("", |c| c.file);
                println!("{:<24} {file}", e.name);
            }
            return ExitCode::SUCCESS;
        }
        Some("--all") if args.len() == 1 => (false, &[][..]),
        Some("--check") if args.len() > 1 => (true, &args[1..]),
        Some(name) if !name.starts_with('-') => (false, &args[..]),
        _ => return usage("bad command line"),
    };
    let mut experiments: Vec<&Experiment> = Vec::new();
    for name in names {
        match lookup(name) {
            Some(e) if check && e.check.is_none() => return usage(&format!("{name} has no gates")),
            Some(e) => experiments.push(e),
            None => return usage(&format!("unknown experiment `{name}` (see --list)")),
        }
    }
    if experiments.is_empty() {
        experiments = REGISTRY.iter().collect(); // --all
    }

    let mut gates = Gates::default();
    for e in experiments {
        let outcome = if check {
            run_checked(e, &mut gates)
        } else {
            (e.run)()
        };
        if let Err(err) = outcome {
            eprintln!("suite: {}: {err}", e.name);
            return ExitCode::from(2);
        }
    }
    if gates.0.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("suite: gates failed: {}", gates.0.join(", "));
    ExitCode::from(1)
}

/// Run `e`, then hold the baseline it wrote to its gates.
fn run_checked(e: &Experiment, gates: &mut Gates) -> std::io::Result<()> {
    let check = e.check.as_ref().expect("only gated entries are checked");
    let committed = read_json(&baseline_dir().join(check.file))?;
    (e.run)()?;
    let doc = read_json(&results_dir().join(check.file))?;
    println!("gates on {}:", check.file);
    (check.gates)(&doc, &committed, gates);
    Ok(())
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("suite: {problem}\n{USAGE}");
    ExitCode::from(2)
}
