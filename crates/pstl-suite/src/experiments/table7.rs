//! Table 7: binary sizes per compiler/backend — the paper's values, the
//! size-model decomposition, and (when built) the measured sizes of this
//! reproduction's own release binaries.

use pstl_sim::binsize::{measured_workspace_binaries, table7, SizeModel, SUITE_KERNELS};

use crate::output::{TableDoc, TableRow};

/// Build the binary-size table: per backend, the paper value and the
/// model's decomposition (base / runtime / per-algorithm).
pub fn build() -> TableDoc {
    let mut rows = Vec::new();
    for (backend, paper_mib) in table7() {
        let model = SizeModel::of(backend);
        rows.push(TableRow {
            label: backend.name().to_string(),
            values: vec![
                Some(paper_mib),
                Some(model.binary_mib(SUITE_KERNELS)),
                Some(model.base_mib),
                Some(model.runtime_mib),
                Some(model.per_algorithm_mib),
            ],
        });
    }
    TableDoc {
        id: "table7_binsize".into(),
        title: "Binary sizes (MiB): paper Table 7 vs size model".into(),
        columns: vec![
            "paper_mib".into(),
            "model_mib".into(),
            "base_mib".into(),
            "runtime_mib".into(),
            "per_algo_mib".into(),
        ],
        rows,
    }
}

/// Measured sizes of this workspace's own release binaries (our
/// analog of the paper's measurement), or an empty table before a
/// release build exists.
pub fn build_measured(target_dir: &std::path::Path) -> TableDoc {
    let rows = measured_workspace_binaries(target_dir)
        .into_iter()
        .map(|(name, mib)| TableRow {
            label: name,
            values: vec![Some(mib)],
        })
        .collect();
    TableDoc {
        id: "table7_measured_own".into(),
        title: "Measured sizes of this reproduction's release binaries (MiB)".into(),
        columns: vec!["size_mib".into()],
        rows,
    }
}

/// `suite table7_binsize`: print and write the size table, then
/// measure the release binaries next to the running executable (when
/// there are any).
pub fn run() -> std::io::Result<()> {
    build().emit()?;
    // The executable sits in `<target>/release/`; measure that directory.
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()));
    if let Some(target) = target {
        let measured = build_measured(&target);
        if measured.rows.is_empty() {
            println!("(no release binaries found to measure — run with --release)");
        } else {
            measured.emit()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_column_matches_paper_column() {
        let t = build();
        for row in &t.rows {
            let paper = row.values[0].unwrap();
            let model = row.values[1].unwrap();
            assert!(
                (model - paper).abs() / paper < 0.02,
                "{}: {model} vs {paper}",
                row.label
            );
        }
    }

    #[test]
    fn seven_backends() {
        let t = build();
        assert_eq!(t.rows.len(), 7);
        assert!(t.rows.iter().any(|r| r.label == "NVC-CUDA"));
    }

    #[test]
    fn measured_table_tolerates_missing_build() {
        let t = build_measured(std::path::Path::new("/definitely/not/here"));
        assert!(t.rows.is_empty());
    }
}
