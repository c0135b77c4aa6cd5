//! Structured figure/table documents and their text/JSON rendering.
//!
//! Each `suite` experiment produces [`Figure`]s (line-series panels,
//! like the paper's plots) or [`TableDoc`]s, prints a readable text
//! rendering, and writes the JSON next to `EXPERIMENTS.md` under
//! `results/` so the numbers in the docs are regenerable. The measured
//! extensions also write a `BENCH_*.json` baseline with [`write_json`].

use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// One line series of a plot.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend label (e.g. `GCC-TBB`).
    pub label: String,
    /// X coordinates (problem size or thread count).
    pub x: Vec<f64>,
    /// Y coordinates (seconds or speedup).
    pub y: Vec<f64>,
}

impl Series {
    /// A series from parallel x/y vectors.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        let label = label.into();
        assert_eq!(x.len(), y.len(), "series {label}: x/y length mismatch");
        Series { label, x, y }
    }
}

/// One panel (sub-plot) of a figure.
#[derive(Debug, Clone, Serialize)]
pub struct Panel {
    /// Panel title (e.g. `Mach A (Skylake)`).
    pub title: String,
    /// The series.
    pub series: Vec<Series>,
}

/// A figure document.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Identifier, e.g. `fig3_foreach_strong`.
    pub id: String,
    /// Human title (paper caption).
    pub title: String,
    /// X-axis meaning.
    pub x_label: String,
    /// Y-axis meaning.
    pub y_label: String,
    /// The panels.
    pub panels: Vec<Panel>,
}

/// A table document: row labels × column labels with optional cells
/// (`None` renders as `N/A`, matching the paper's tables).
#[derive(Debug, Clone, Serialize)]
pub struct TableDoc {
    /// Identifier, e.g. `table5_speedups`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows: label plus one optional value per column.
    pub rows: Vec<TableRow>,
}

/// One table row.
#[derive(Debug, Clone, Serialize)]
pub struct TableRow {
    /// Row label.
    pub label: String,
    /// Cells, one per column.
    pub values: Vec<Option<f64>>,
}

impl Figure {
    /// Text rendering: per panel, per series, the (x, y) pairs.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        out.push_str(&format!("x: {}, y: {}\n", self.x_label, self.y_label));
        for panel in &self.panels {
            out.push_str(&format!("\n-- {} --\n", panel.title));
            // Header row of x values from the first series.
            if let Some(first) = panel.series.first() {
                out.push_str(&format!("{:<14}", "series"));
                for x in &first.x {
                    out.push_str(&format!(" {:>10}", format_x(*x)));
                }
                out.push('\n');
            }
            for s in &panel.series {
                out.push_str(&format!("{:<14}", s.label));
                for y in &s.y {
                    out.push_str(&format!(" {:>10}", format_sig(*y)));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Print the rendering, then write the JSON under the results
    /// directory.
    pub fn emit(&self) -> io::Result<()> {
        emit(&self.id, &self.render(), self)
    }
}

impl TableDoc {
    /// Text rendering as an aligned table with `N/A` holes.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!("{:<label_w$}", ""));
        for c in &self.columns {
            out.push_str(&format!(" {c:>16}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<label_w$}", row.label));
            for v in &row.values {
                match v {
                    Some(v) => out.push_str(&format!(" {:>16}", format_sig(*v))),
                    None => out.push_str(&format!(" {:>16}", "N/A")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Print the rendering, then write the JSON under the results
    /// directory.
    pub fn emit(&self) -> io::Result<()> {
        emit(&self.id, &self.render(), self)
    }
}

fn emit<T: Serialize>(id: &str, text: &str, doc: &T) -> io::Result<()> {
    println!("{text}");
    println!("wrote {}\n", write_json(id, doc)?.display());
    Ok(())
}

/// The directory experiment JSON goes to: `$PSTL_RESULTS` or
/// [`baseline_dir`].
pub fn results_dir() -> PathBuf {
    match std::env::var("PSTL_RESULTS") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => baseline_dir(),
    }
}

/// Where the committed `BENCH_*.json` baselines live: `results/` at the
/// workspace root (the directory holding `Cargo.toml` and `crates/`), falling
/// back to `results/` under the current directory. `$PSTL_RESULTS`
/// does not move it, so a run redirected elsewhere is still checked
/// against the committed files.
pub fn baseline_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

/// Write `value` as pretty JSON to `<results_dir>/<name>.json`, creating
/// the directory; returns the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> io::Result<PathBuf> {
    let path = results_dir().join(format!("{name}.json"));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialization cannot fail") + "\n",
    )?;
    Ok(path)
}

/// Parse the JSON document at `path`.
pub fn read_json(path: &Path) -> io::Result<serde_json::Value> {
    let located = |e: &dyn std::fmt::Display| io::Error::other(format!("{}: {e}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| located(&e))?;
    serde_json::from_str(&text).map_err(|e| located(&e))
}

/// Format an x coordinate: powers of two as `2^k`, other values plainly.
fn format_x(x: f64) -> String {
    if x >= 8.0 && x.fract() == 0.0 && (x as u64).is_power_of_two() {
        format!("2^{}", (x as u64).trailing_zeros())
    } else {
        format_sig(x)
    }
}

/// Three-significant-digit formatting with scientific notation for
/// extremes.
fn format_sig(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.2e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_length_checked() {
        let s = Series::new("a", vec![1.0, 2.0], vec![3.0, 4.0]);
        assert_eq!(s.x.len(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_mismatch_panics() {
        Series::new("bad", vec![1.0], vec![1.0, 2.0]);
    }

    #[test]
    fn figure_renders_all_series() {
        let fig = Figure {
            id: "fig_test".into(),
            title: "test".into(),
            x_label: "n".into(),
            y_label: "s".into(),
            panels: vec![Panel {
                title: "Mach A".into(),
                series: vec![
                    Series::new("GCC-TBB", vec![8.0, 16.0], vec![0.5, 0.25]),
                    Series::new("GCC-SEQ", vec![8.0, 16.0], vec![1.0, 2.0]),
                ],
            }],
        };
        let text = fig.render();
        assert!(text.contains("GCC-TBB"));
        assert!(text.contains("GCC-SEQ"));
        assert!(text.contains("2^3"));
        assert!(text.contains("2^4"));
    }

    #[test]
    fn table_renders_na_cells() {
        let t = TableDoc {
            id: "t".into(),
            title: "t".into(),
            columns: vec!["c1".into(), "c2".into()],
            rows: vec![TableRow {
                label: "GCC-GNU".into(),
                values: vec![Some(4.5), None],
            }],
        };
        let text = t.render();
        assert!(text.contains("GCC-GNU"));
        assert!(text.contains("4.50"));
        assert!(text.contains("N/A"));
    }

    #[test]
    fn save_respects_env_override() {
        let dir = std::env::temp_dir().join("pstl_suite_results_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("PSTL_RESULTS", &dir);
        let t = TableDoc {
            id: "save_test".into(),
            title: "t".into(),
            columns: vec![],
            rows: vec![],
        };
        let path = write_json(&t.id, &t).unwrap();
        assert!(path.starts_with(&dir));
        assert!(path.exists());
        std::env::remove_var("PSTL_RESULTS");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sig_formatting() {
        assert_eq!(format_sig(0.0), "0");
        assert_eq!(format_sig(1234.0), "1234");
        assert_eq!(format_sig(12.34), "12.3");
        assert_eq!(format_sig(1.234), "1.23");
        assert_eq!(format_sig(1.0e-6), "1.00e-6");
    }
}
