//! Guard lint for the CI workflows: a plain (unquoted, non-block) YAML
//! scalar cannot end in `:` or contain `": "` — the parser reads either
//! as a mapping key, and the whole workflow file fails to load. Commands
//! such as `cargo miri test -p pstl kernel::` end in `::`, so every
//! `run:` value that does must be quoted (or written as a `|` block).
//!
//! The check is line-based, like the other guard lints: it looks at each
//! `run:` line of `.github/workflows/*.yml` and leaves block scalars and
//! quoted values alone.

use std::path::{Path, PathBuf};

/// The workflow files, sorted.
fn workflows(root: &Path) -> Vec<PathBuf> {
    let dir = root.join(".github/workflows");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("guard lint cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "yml"))
        .collect();
    files.sort();
    files
}

/// The plain scalar a `run:` line carries, if it carries one: `None`
/// for other lines, block scalars (`|`, `>`) and quoted values. A ` #`
/// starts a comment, which is not part of the value.
fn plain_run_value(line: &str) -> Option<&str> {
    let key = line.trim_start().trim_start_matches("- ");
    let value = key.strip_prefix("run:")?.trim();
    if value.is_empty() || value.starts_with(['|', '>', '"', '\'']) {
        return None;
    }
    Some(value.split(" #").next().unwrap_or(value).trim_end())
}

/// Whether a plain scalar would parse as a mapping instead.
fn breaks_yaml(value: &str) -> bool {
    value.ends_with(':') || value.contains(": ")
}

#[test]
fn the_rule_catches_what_the_parser_rejects() {
    for bad in [
        "      - run: cargo miri test -p pstl kernel::",
        "      - run: echo step: one",
        "        run: cargo test -q stream:: # the channel tests",
    ] {
        assert!(
            plain_run_value(bad).is_some_and(breaks_yaml),
            "guard lint misses {bad:?}"
        );
    }
    for good in [
        r#"      - run: "cargo miri test -p pstl kernel::""#,
        "      - run: 'echo step: one'",
        "      - run: |",
        "      - run: cargo test -q --test stream_chaos",
        "      - name: build: release",
    ] {
        assert!(
            !plain_run_value(good).is_some_and(breaks_yaml),
            "guard lint flags {good:?}"
        );
    }
}

#[test]
fn workflow_run_values_parse_as_plain_scalars() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workflows(root);
    assert!(
        !files.is_empty(),
        "guard lint found no workflow files; it would guard nothing"
    );
    let mut offenders = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("guard lint cannot read {}: {e}", path.display()));
        let rel = path.strip_prefix(root).unwrap_or(path).display();
        for (lineno, line) in src.lines().enumerate() {
            if plain_run_value(line).is_some_and(breaks_yaml) {
                offenders.push(format!("{rel}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a plain `run:` value that ends in `:` or holds `\": \"` is a YAML mapping, \
         and the workflow fails to load; quote it:\n{}",
        offenders.join("\n")
    );
}
