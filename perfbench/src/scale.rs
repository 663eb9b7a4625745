//! `scale`: the 10⁵-node tier.  Graphs come from the streaming generators
//! (set-up); each cell then builds a `SampledNqOracle`, computes exact
//! `DistanceRows` from sampled sources on the weighted twin, and quantizes
//! them — the `reproduce sweep --scale` pipeline on graphs far beyond L2.

use std::time::Instant;

use hybrid_bench::scenarios::GraphFamily;
use hybrid_core::nq::SampledNqOracle;
use hybrid_core::prob::sample_distinct;
use hybrid_core::rows::DistanceRows;
use hybrid_graph::{Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;
use crate::{percentile, sub_seed, Digest, PhaseStats, Sample, Size, Workload, MIB};

/// Accuracy of the quantized rows.
const EPSILON: f64 = 0.25;
/// Top-quantile fraction of the sampled `NQ_k` confidence statement.
const NQ_QUANTILE: f64 = 0.02;
/// Five families, so the median cell is the middle family's rather than a
/// boundary between two.
const FAMILIES: [GraphFamily; 5] = [
    GraphFamily::Path,
    GraphFamily::Grid2D,
    GraphFamily::BinaryTree,
    GraphFamily::ErdosRenyi,
    GraphFamily::ChungLu,
];

struct Cell {
    family: GraphFamily,
    graph: Graph,
    weighted: Graph,
    sources: Vec<NodeId>,
    nq_seed: u64,
}

/// First-cycle outputs of one cell.
struct CellOut {
    digest: u64,
    rows_bytes: u64,
    sampled_bytes: u64,
    latency_us: f64,
}

pub(crate) struct Scale {
    cells: Vec<Cell>,
    nq_samples: usize,
    first: Vec<CellOut>,
}

impl Scale {
    pub(crate) fn set_up(seed: u64, size: Size, tr: &Tracer) -> Result<Self, String> {
        let (n, sources, nq_samples) = match size {
            Size::Full => (100_000, 16, 64),
            Size::Tiny => (256, 4, 8),
        };
        let mut cells = Vec::new();
        for (fi, &family) in FAMILIES.iter().enumerate() {
            let graph_seed = sub_seed(seed, fi as u64, n as u64);
            let (graph, weighted) = tr.span("graph.streaming", || {
                let g = family.build_streamed(n, graph_seed);
                let w = family.reweight_streamed(&g, graph_seed);
                (g, w)
            });
            let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(graph_seed, 2, 0));
            let sources = sample_distinct(graph.n(), sources.min(graph.n()), &mut rng);
            cells.push(Cell {
                family,
                graph,
                weighted,
                sources,
                nq_seed: sub_seed(graph_seed, 3, 0),
            });
        }
        Ok(Scale {
            cells,
            nq_samples,
            first: Vec::new(),
        })
    }
}

impl Workload for Scale {
    fn cycle_len(&self) -> usize {
        self.cells.len()
    }

    fn request(&mut self, j: usize, first: bool, tr: &Tracer) -> Sample {
        let cell = &self.cells[j];
        let n = cell.graph.n();
        let k = n as u64;
        let t0 = Instant::now();
        let (sampled, estimate) = tr.span("core.nq.sampled_new", || {
            let s =
                SampledNqOracle::new(&cell.graph, self.nq_samples, k, NQ_QUANTILE, cell.nq_seed);
            let e = s.nq_estimate(k);
            (s, e)
        });
        let rows = tr.span("core.rows.compute", || {
            DistanceRows::compute(&cell.weighted, &cell.sources)
        });
        let quantized = tr.span("core.rows.quantized", || rows.quantized(EPSILON));
        let dur = t0.elapsed();

        let mut d = Digest::default();
        d.extend([estimate.estimate, estimate.sample_size as u64]);
        for i in 0..quantized.sources().len() {
            d.extend(quantized.row(i).iter().copied());
        }
        let mut s = Sample {
            primary: true,
            dur,
            served_at: Some(t0 + dur),
            ops: 1.0,
            work: (cell.sources.len() * n) as f64,
            ..Sample::default()
        };
        let name = cell.family.name();
        if first {
            let verdict = quantized.verify_stretch_against(&rows, 1.0 + EPSILON);
            s.check(verdict.is_ok(), || {
                format!("{name}: quantized rows {verdict:?}")
            });
            s.check(estimate.estimate >= 1, || {
                format!("{name}: NQ estimate is 0")
            });
            self.first.push(CellOut {
                digest: d.0,
                rows_bytes: rows.memory_bytes() + quantized.memory_bytes(),
                sampled_bytes: sampled.memory_bytes(),
                latency_us: dur.as_secs_f64() * 1e6,
            });
        } else {
            s.check(self.first[j].digest == d.0, || {
                format!("{name}: outputs differ from the first cycle")
            });
        }
        s
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for c in &self.cells {
            d.add(Digest::graph(&c.weighted));
            d.extend(c.sources.iter().map(|&v| v as u64));
            d.add(c.nq_seed);
        }
        d.0
    }

    fn output_digest(&self) -> u64 {
        Digest::of(self.first.iter().map(|c| c.digest))
    }

    /// Graphs stay resident; rows and the sampled oracle live for one cell
    /// at a time, so the largest cell's count.
    fn formula_bytes(&self) -> u64 {
        let graphs: u64 = self
            .cells
            .iter()
            .map(|c| c.graph.memory_bytes() + c.weighted.memory_bytes())
            .sum();
        let cell = self
            .first
            .iter()
            .map(|c| c.rows_bytes + c.sampled_bytes)
            .max()
            .unwrap_or(0);
        graphs + cell
    }

    fn counts(&self) -> Vec<(String, f64)> {
        let max = |f: fn(&CellOut) -> u64| self.first.iter().map(f).max().unwrap_or(0) as f64 / MIB;
        vec![
            ("core.rows.memory_mib".into(), max(|c| c.rows_bytes)),
            (
                "core.nq.sampled_memory_mib".into(),
                max(|c| c.sampled_bytes),
            ),
        ]
    }

    fn details(&self, st: &PhaseStats) -> Vec<String> {
        let mut d = vec![
            format!("scale.cells_per_s = {:.4} cells/s", st.ops_per_s()),
            format!(
                "scale.cell_p50_us = {:.1} us (n = {})",
                percentile(&st.primary_us, 50.0),
                st.primary_us.len()
            ),
        ];
        for (c, o) in self.cells.iter().zip(&self.first) {
            d.push(format!(
                "{} n={}: first cell {:.0} us",
                c.family.name(),
                c.graph.n(),
                o.latency_us
            ));
        }
        d
    }
}
