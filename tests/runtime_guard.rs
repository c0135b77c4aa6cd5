//! Guard lint for the worker-runtime refactor: panic containment lives
//! in exactly one place (`pstl-executor/src/runtime.rs`, via `contain`
//! and `PanicSlot`). If a pool file grows its own `catch_unwind` the
//! single-envelope invariant — one containment site, one first-panic
//! slot, one rethrow point — silently forks, so this test fails the
//! build instead. Test modules are exempt: tests may *provoke* panics
//! across the API boundary all they like.
//!
//! The same file guards the comparison path: the sequential kernels and
//! the algorithms take their comparator as a generic `&C`, so a
//! `dyn Fn(&T, &T)` comparator (a virtual call per comparison) must not
//! come back.
//!
//! And it guards the kernel layer's ISA dispatch: CPU feature detection
//! and every `#[target_feature]` clone live in `kernel/isa.rs`, which
//! holds the one `unsafe` call site per clone and its safety argument.

use std::path::Path;

/// Pool strategy files: anything here reaching for `catch_unwind`
/// means a discipline is re-growing its own panic envelope.
const POOL_FILES: &[&str] = &[
    "crates/pstl-executor/src/fork_join.rs",
    "crates/pstl-executor/src/work_stealing.rs",
    "crates/pstl-executor/src/task_pool.rs",
    "crates/pstl-executor/src/futures.rs",
    "crates/pstl-executor/src/service.rs",
    "crates/pstl-executor/src/job.rs",
    "crates/pstl-executor/src/lib.rs",
    // The streaming layer drives user closures on pool workers; its
    // panic containment must also route through `runtime::contain`.
    "crates/pstl/src/stream/mod.rs",
    "crates/pstl/src/stream/engine.rs",
    "crates/pstl/src/stream/channel.rs",
];

/// Strip `#[cfg(test)] mod … { … }` blocks so in-test `catch_unwind`
/// (legitimately used to assert panics propagate) doesn't trip the
/// guard. Brace-counting is crude but the files are rustfmt-formatted,
/// so the attribute and the module header are always adjacent lines.
fn strip_test_modules(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut depth = 0usize;
    let mut pending_cfg_test = false;
    for line in src.lines() {
        if depth > 0 {
            depth += line.matches('{').count();
            depth -= line.matches('}').count().min(depth);
            continue;
        }
        let trimmed = line.trim();
        if trimmed == "#[cfg(test)]" {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            pending_cfg_test = false;
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                depth = line.matches('{').count();
                continue;
            }
            out.push_str("#[cfg(test)]\n");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn pool_files_do_not_reimplement_panic_containment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for rel in POOL_FILES {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("guard lint cannot read {rel}: {e}"));
        let code = strip_test_modules(&src);
        for (lineno, line) in code.lines().enumerate() {
            if line.contains("catch_unwind") {
                offenders.push(format!("{rel}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "panic containment belongs to runtime::contain / runtime::PanicSlot only;\n\
         found catch_unwind outside runtime.rs (and outside test modules):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn runtime_owns_the_containment_primitives() {
    // The inverse direction: the primitives must actually exist where
    // the guard claims they do, or the lint above guards nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("crates/pstl-executor/src/runtime.rs"))
        .expect("runtime.rs exists");
    assert!(
        src.contains("pub fn contain") && src.contains("catch_unwind"),
        "runtime.rs must define the shared `contain` envelope over catch_unwind"
    );
    assert!(
        src.contains("pub struct PanicSlot"),
        "runtime.rs must own the first-panic-wins slot"
    );
}

/// Sources of the comparison path: `seq.rs` and every algorithm file.
fn comparison_path_files(root: &Path) -> Vec<std::path::PathBuf> {
    let dir = root.join("crates/pstl/src/algorithms");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("guard lint cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    files.sort();
    files.push(root.join("crates/pstl/src/seq.rs"));
    files
}

#[test]
fn comparison_path_has_no_dyn_comparator() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = comparison_path_files(root);
    assert!(
        files.iter().any(|p| p.ends_with("sort.rs")),
        "guard lint found no algorithm sources; it would guard nothing"
    );
    let mut offenders = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("guard lint cannot read {}: {e}", path.display()));
        let rel = path.strip_prefix(root).unwrap_or(path).display();
        let code = strip_test_modules(&src);
        for (lineno, line) in code.lines().enumerate() {
            if line.contains("dyn Fn(&T, &T)") || line.contains("Cmp<") {
                offenders.push(format!("{rel}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "comparison kernels take `cmp: &C` with `C: Fn(&T, &T) -> Ordering`;\n\
         found a dynamically dispatched comparator (outside test modules):\n{}",
        offenders.join("\n")
    );
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("guard lint cannot list {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

#[test]
fn isa_dispatch_lives_only_in_kernel_isa() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let isa = root.join("crates/pstl/src/kernel/isa.rs");
    let files = rust_files(&root.join("crates/pstl/src"));
    assert!(
        files.contains(&isa),
        "guard lint cannot find kernel/isa.rs; it would guard nothing"
    );
    let mut offenders = Vec::new();
    for path in files.iter().filter(|p| **p != isa) {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("guard lint cannot read {}: {e}", path.display()));
        let rel = path.strip_prefix(root).unwrap_or(path).display();
        for (lineno, line) in src.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            if code.contains("#[target_feature") || code.contains("is_x86_feature_detected!") {
                offenders.push(format!("{rel}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "ISA clones and CPU feature detection belong to kernel/isa.rs (`dispatch!`);\n\
         found them elsewhere:\n{}",
        offenders.join("\n")
    );
}
