//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, a layer, start and end stamps (`common::now_ns`)
//! and a parent; all spans of one op share the op's id. Spans stay in
//! memory: each op's spans are reduced to a per-layer breakdown as soon
//! as the op is verified, and the full trees of the first `KEEP` ops are
//! written out as JSON lines when the run ends (`--spans <file>`).

use std::fmt::Write as _;
use std::io::Write as _;

/// The repository's layers, in call order, plus the op itself. The
/// discriminant indexes per-layer tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The op as the client sees it; its self time is unattributed.
    Op = 0,
    Service = 1,
    Stream = 2,
    Algo = 3,
    Kernel = 4,
}

pub const LAYERS: [Layer; 4] = [Layer::Service, Layer::Stream, Layer::Algo, Layer::Kernel];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "e2e",
            Layer::Service => "service",
            Layer::Stream => "stream",
            Layer::Algo => "algo",
            Layer::Kernel => "kernel",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Index of the parent span within the op; `None` for the op.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// The span tree of one op. Index 0 is the op; a span's id is its index,
/// and a parent is always pushed before its children.
pub struct OpSpans {
    pub op: u64,
    pub spans: Vec<Span>,
}

/// How one op's wall time splits over the layers.
pub struct Breakdown {
    pub total_ns: u64,
    /// Self time per layer, indexed by `Layer as usize`; the `Layer::Op`
    /// entry is the time no layer span covers.
    pub self_ns: [u64; 5],
}

impl OpSpans {
    pub fn new(op: u64, start: u64, end: u64) -> Self {
        OpSpans {
            op,
            spans: vec![Span {
                name: "op",
                layer: Layer::Op,
                parent: None,
                start,
                end,
            }],
        }
    }

    /// Add a span under `parent` and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: usize,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            parent: Some(parent),
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Self time by layer: every instant of the op is charged to the
    /// layer of the innermost span open at that instant, so concurrent
    /// spans of one layer (the two farm replicas) count once and the
    /// parts add up to the op exactly. A span's self time is thus its
    /// duration minus the part its children cover.
    pub fn breakdown(&self) -> Breakdown {
        let root = &self.spans[0];
        let mut depth = vec![0usize; self.spans.len()];
        let mut events = Vec::with_capacity(2 * self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                depth[i] = depth[p] + 1;
            }
            let (a, b) = (s.start.max(root.start), s.end.min(root.end));
            if a < b {
                events.push((a, 1i32, i));
                events.push((b, -1i32, i));
            }
        }
        events.sort_unstable_by_key(|&(t, d, _)| (t, d));
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        // open[d][layer] = spans of that layer open at depth d.
        let mut open = vec![[0u32; 5]; max_depth + 1];
        let mut charged = [0u64; 5];
        let mut last = root.start;
        for (t, delta, i) in events {
            if let Some(row) = open.iter().rev().find(|row| row.iter().any(|&c| c > 0)) {
                let l = row
                    .iter()
                    .position(|&c| c > 0)
                    .expect("row has an open span");
                charged[l] += t - last;
            }
            last = t;
            let c = &mut open[depth[i]][self.spans[i].layer as usize];
            *c = c.wrapping_add_signed(delta);
        }
        Breakdown {
            total_ns: root.end - root.start,
            self_ns: charged,
        }
    }

    /// Append this op's spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.op,
                id,
                parent,
                s.name,
                s.layer.name(),
                s.start,
                s.end
            );
        }
    }
}

/// The stated bound on the share of an op that no layer span covers.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// Ops whose full span trees are kept for `--spans`.
pub const KEEP: usize = 16;

/// Per-op breakdowns of a traced run, plus the first `KEEP` span trees.
#[derive(Default)]
pub struct Tracer {
    pub kept: Vec<OpSpans>,
    pub ops: Vec<Breakdown>,
}

impl Tracer {
    pub fn finish_op(&mut self, spans: OpSpans) -> &Breakdown {
        self.ops.push(spans.breakdown());
        if self.kept.len() < KEEP {
            self.kept.push(spans);
        }
        self.ops.last().expect("just pushed")
    }

    /// `<layer>.self_us` (mean per op, so the layers and
    /// `e2e.unattributed_us` add up to the mean op) and the unattributed
    /// share of the op. Returns false, a failed check, when that share
    /// exceeds `MAX_UNATTRIBUTED_SHARE`.
    pub fn report(&self, m: &mut crate::common::MetricList) -> bool {
        let n = self.ops.len().max(1) as f64;
        let mean = |f: &dyn Fn(&Breakdown) -> u64| {
            self.ops.iter().map(|b| f(b) as f64).sum::<f64>() / n / 1e3
        };
        let self_us = |l: Layer| mean(&|b| b.self_ns[l as usize]);
        for l in LAYERS {
            m.push(&format!("{}.self_us", l.name()), self_us(l), "us");
        }
        let total = mean(&|b| b.total_ns);
        let unattributed = self_us(Layer::Op);
        let share = if total > 0.0 {
            unattributed / total
        } else {
            0.0
        };
        m.push("e2e.unattributed_us", unattributed, "us");
        m.push("e2e.unattributed_share", share, "ratio");
        println!(
            "breakdown (mean per op over {} ops): op {:.2} us = {} + unattributed {:.2} us",
            self.ops.len(),
            total,
            LAYERS
                .iter()
                .map(|&l| format!("{} {:.2}", l.name(), self_us(l)))
                .collect::<Vec<_>>()
                .join(" + "),
            unattributed
        );
        let ok = share <= MAX_UNATTRIBUTED_SHARE;
        println!(
            "breakdown check: unattributed share {share:.4} <= {MAX_UNATTRIBUTED_SHARE}: {}",
            if ok { "ok" } else { "FAILED" }
        );
        ok
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for op in &self.kept {
            op.write_jsonl(&mut out);
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}
