//! The `suite` command line: names resolve through the registry, and a
//! run whose documents cannot be written fails instead of exiting 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pstl_suite::experiments::REGISTRY;

fn run(bin: &str, args: &[&str], results: &Path) -> Output {
    let cmd = Command::new(bin)
        .args(args)
        .env("PSTL_RESULTS", results)
        .output();
    cmd.expect("the binary starts")
}

/// A scratch path unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pstl_suite_cli_{}_{tag}", std::process::id()))
}

#[test]
fn runs_fail_when_a_document_cannot_be_written() {
    // The results directory cannot be created: its parent is a file.
    let file = scratch("file");
    std::fs::write(&file, "not a directory").unwrap();
    let results = file.join("results");
    let suite = run(env!("CARGO_BIN_EXE_suite"), &["table2_machines"], &results);
    let args = ["--threads", "1", "--size-exp", "4", "--calls", "1"];
    let sched = run(env!("CARGO_BIN_EXE_sched_counters"), &args, &results);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(suite.status.code(), Some(2), "{suite:?}");
    assert!(String::from_utf8_lossy(&suite.stderr).contains("table2_machines"));
    assert!(!sched.status.success(), "{sched:?}");
}

#[test]
fn suite_runs_registry_names_and_rejects_bad_ones() {
    let dir = scratch("docs");
    let suite = |args: &[&str]| run(env!("CARGO_BIN_EXE_suite"), args, &dir);
    let listed = String::from_utf8_lossy(&suite(&["--list"]).stdout).into_owned();
    for e in REGISTRY {
        assert!(listed.lines().any(|l| l.starts_with(e.name)), "{}", e.name);
    }
    let bad: [&[&str]; 5] = [
        &["no_such"],
        &["--check", "fig4_find"],
        &["--check"],
        &["-x"],
        &[],
    ];
    for args in bad {
        assert_eq!(suite(args).status.code(), Some(2), "suite {args:?}");
    }
    assert!(!dir.exists(), "a rejected command line wrote documents");
    assert!(suite(&["table2_machines", "fig4_find"]).status.success());
    assert!(dir.join("table2_machines.json").exists() && dir.join("fig4_find.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
