//! `oracle-serve`: one `DistanceOracle` on a weighted grid whose landmark
//! rows are several times a 4 MiB L2, serving back-to-back distance batches
//! with a path batch after every fourth.  Half of the pairs are local (a
//! short random walk apart, so they hit balls) and half are uniform (random
//! landmark rows).  The build lands in `setup_s`; nothing in `hybrid-sim`
//! runs here.

use std::time::Instant;

use hybrid_core::oracle::{DistanceOracle, OracleConfig, ORACLE_STRETCH};
use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::{generators, Graph, NodeId, Weight};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;
use crate::{percentile, sub_seed, Digest, PhaseStats, Sample, Size, Workload, MIB};

/// Distance batches per path batch.
const DIST_PER_PATH: usize = 4;
/// Leading pairs of every batch whose source is a check source; their
/// answers are compared with exact Dijkstra on the first cycle.
const CHECKED_PER_BATCH: usize = 4;
/// Number of check sources (exact rows kept for them).
const CHECK_SOURCES: usize = 32;
/// Heaviest edge weight of the grid, as in the sweep's weighted families.
const MAX_WEIGHT: u64 = 32;
/// Longest random walk between the endpoints of a local pair.
const LOCAL_WALK: usize = 8;

struct Config {
    side: usize,
    dist_batches: usize,
    dist_batch: usize,
    path_batch: usize,
}

pub(crate) struct OracleServe {
    graph: Graph,
    oracle: DistanceOracle,
    dist_batches: Vec<Vec<(NodeId, NodeId)>>,
    path_batches: Vec<Vec<(NodeId, NodeId)>>,
    check_sources: Vec<NodeId>,
    /// Exact rows of the check sources, computed before the first request.
    exact: Vec<Vec<Weight>>,
    digests: Vec<u64>,
    checked: u64,
    exact_answers: u64,
    path_nodes: u64,
    path_queries: u64,
}

fn pairs(
    graph: &Graph,
    rng: &mut ChaCha8Rng,
    batch: usize,
    check_sources: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    let n = graph.n() as NodeId;
    (0..batch)
        .map(|i| {
            let u = if i < CHECKED_PER_BATCH {
                check_sources[rng.gen_range(0..check_sources.len())]
            } else {
                rng.gen_range(0..n)
            };
            let v = if i % 2 == 0 {
                let mut v = u;
                for _ in 0..rng.gen_range(1..=LOCAL_WALK) {
                    let arcs = graph.arcs(v);
                    v = arcs[rng.gen_range(0..arcs.len())].to;
                }
                v
            } else {
                rng.gen_range(0..n)
            };
            (u, v)
        })
        .collect()
}

/// Weight of the lightest edge `{a, b}`, if there is one.
fn edge_weight(graph: &Graph, a: NodeId, b: NodeId) -> Option<Weight> {
    graph
        .arcs(a)
        .iter()
        .filter(|arc| arc.to == b)
        .map(|arc| arc.weight)
        .min()
}

impl OracleServe {
    pub(crate) fn set_up(seed: u64, size: Size, tr: &Tracer) -> Result<Self, String> {
        let cfg = match size {
            Size::Full => Config {
                side: 120,
                dist_batches: 512,
                dist_batch: 256,
                path_batch: 64,
            },
            Size::Tiny => Config {
                side: 12,
                dist_batches: 8,
                dist_batch: 16,
                path_batch: 8,
            },
        };
        let graph = tr.span("graph.generators", || {
            let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0, 0));
            generators::weighted_grid(&[cfg.side, cfg.side], MAX_WEIGHT, &mut rng)
                .map_err(|e| e.to_string())
        })?;
        let oracle = tr.span("core.oracle.build", || {
            DistanceOracle::build(
                &graph,
                OracleConfig {
                    seed: sub_seed(seed, 1, 0),
                    ..OracleConfig::default()
                },
            )
        })?;
        let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 2, 0));
        let n = graph.n() as NodeId;
        let check_sources: Vec<NodeId> = (0..CHECK_SOURCES).map(|_| rng.gen_range(0..n)).collect();
        let dist_batches = (0..cfg.dist_batches)
            .map(|_| pairs(&graph, &mut rng, cfg.dist_batch, &check_sources))
            .collect();
        let path_batches = (0..cfg.dist_batches / DIST_PER_PATH)
            .map(|_| pairs(&graph, &mut rng, cfg.path_batch, &check_sources))
            .collect();
        Ok(OracleServe {
            graph,
            oracle,
            dist_batches,
            path_batches,
            check_sources,
            exact: Vec::new(),
            digests: Vec::new(),
            checked: 0,
            exact_answers: 0,
            path_nodes: 0,
            path_queries: 0,
        })
    }

    fn exact_dist(&self, u: NodeId, v: NodeId) -> Weight {
        let i = self
            .check_sources
            .iter()
            .position(|&s| s == u)
            .expect("check source");
        self.exact[i][v as usize]
    }

    /// Checks the leading pairs of a batch against exact distances.
    fn check_answers(&mut self, s: &mut Sample, batch: &[(NodeId, NodeId)], answers: &[Weight]) {
        for (&(u, v), &a) in batch.iter().zip(answers).take(CHECKED_PER_BATCH) {
            let e = self.exact_dist(u, v);
            s.check(e <= a && a as f64 <= ORACLE_STRETCH * e as f64, || {
                format!("oracle ({u},{v}) answered {a}, exact {e}")
            });
            self.checked += 1;
            self.exact_answers += u64::from(a == e);
        }
    }
}

impl Workload for OracleServe {
    fn cycle_len(&self) -> usize {
        self.dist_batches.len() + self.path_batches.len()
    }

    fn request(&mut self, j: usize, first: bool, tr: &Tracer) -> Sample {
        if self.exact.is_empty() {
            let mut ws = DijkstraWorkspace::new();
            self.exact = self
                .check_sources
                .iter()
                .map(|&s| {
                    ws.run(&self.graph, s);
                    ws.dist().to_vec()
                })
                .collect();
        }
        let is_path = j % (DIST_PER_PATH + 1) == DIST_PER_PATH;
        let idx = if is_path {
            j / (DIST_PER_PATH + 1)
        } else {
            j / (DIST_PER_PATH + 1) * DIST_PER_PATH + j % (DIST_PER_PATH + 1)
        };
        let mut s = Sample {
            primary: !is_path,
            ..Sample::default()
        };
        let digest;
        if !is_path {
            let batch = &self.dist_batches[idx];
            let oracle = &self.oracle;
            let t0 = Instant::now();
            let answers = tr.span("oracle-serve.batch", || {
                tr.span("core.oracle.query_batch", || oracle.query_batch(batch))
            });
            s.dur = t0.elapsed();
            s.served_at = Some(t0 + s.dur);
            s.ops = batch.len() as f64;
            digest = Digest::of(answers.iter().copied());
            if first {
                let batch = batch.clone();
                self.check_answers(&mut s, &batch, &answers);
            }
        } else {
            let batch = &self.path_batches[idx];
            let oracle = &self.oracle;
            let t0 = Instant::now();
            let paths = tr.span("oracle-serve.batch", || {
                tr.span("core.oracle.query_paths_batch", || {
                    oracle.query_paths_batch(batch)
                })
            });
            s.dur = t0.elapsed();
            s.served_at = Some(t0 + s.dur);
            s.work = batch.len() as f64;
            let mut d = Digest::default();
            d.extend(paths.dists().iter().copied());
            for i in 0..paths.len() {
                d.extend(paths.path(i).iter().map(|&v| v as u64));
            }
            digest = d.0;
            if first {
                let batch = batch.clone();
                for (i, &(u, v)) in batch.iter().enumerate() {
                    let path = paths.path(i);
                    let mut sum: Option<Weight> = Some(0);
                    for w in path.windows(2) {
                        sum = sum.and_then(|acc| Some(acc + edge_weight(&self.graph, w[0], w[1])?));
                    }
                    let ends = path.first() == Some(&u) && path.last() == Some(&v);
                    s.check(ends && sum == Some(paths.dist(i)), || {
                        format!("path ({u},{v}) is not a walk of weight {}", paths.dist(i))
                    });
                    self.path_nodes += path.len() as u64;
                    self.path_queries += 1;
                }
                self.check_answers(&mut s, &batch, paths.dists());
            }
        }
        if first {
            self.digests.push(digest);
        } else {
            s.check(self.digests[j] == digest, || {
                format!("batch {j}: answers differ from the first cycle")
            });
        }
        s
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        d.add(Digest::graph(&self.graph));
        for b in self.dist_batches.iter().chain(&self.path_batches) {
            d.extend(b.iter().map(|&(u, v)| (u as u64) << 32 | v as u64));
        }
        d.0
    }

    fn output_digest(&self) -> u64 {
        Digest::of(self.digests.iter().copied())
    }

    fn formula_bytes(&self) -> u64 {
        self.graph.memory_bytes() + self.oracle.memory_bytes()
    }

    fn counts(&self) -> Vec<(String, f64)> {
        vec![
            (
                "core.oracle.memory_mib".into(),
                self.oracle.memory_bytes() as f64 / MIB,
            ),
            (
                "core.oracle.exact_frac".into(),
                self.exact_answers as f64 / self.checked.max(1) as f64,
            ),
            (
                "core.oracle.path_nodes_per_query".into(),
                self.path_nodes as f64 / self.path_queries.max(1) as f64,
            ),
        ]
    }

    fn details(&self, st: &PhaseStats) -> Vec<String> {
        let lat = |name: &str, v: &[f64]| {
            format!(
                "oracle.{name}_batch_p50_us = {:.2} us, oracle.{name}_batch_p99_us = {:.2} us \
                 (n = {}, {} beyond p99)",
                percentile(v, 50.0),
                percentile(v, 99.0),
                v.len(),
                v.len() / 100
            )
        };
        vec![
            format!("oracle.dist_qps = {:.1} queries/s", st.ops_per_s()),
            format!("oracle.path_qps = {:.1} queries/s", st.work_per_s()),
            lat("dist", &st.primary_us),
            lat("path", &st.secondary_us),
            format!(
                "oracle: n = {}, landmarks = {}, memory = {:.1} MiB",
                self.graph.n(),
                self.oracle.landmarks().len(),
                self.oracle.memory_bytes() as f64 / MIB
            ),
        ]
    }
}
