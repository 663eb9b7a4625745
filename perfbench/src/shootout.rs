//! `shootout`: the sweep question itself.  Every graph family at several
//! sizes; each `(family, n, point)` cell runs every registered dissemination
//! and k-SSP contender plus the Theorem 13 SSSP on the same instance, with
//! the instance's lower-bound witnesses.  `NqOracle::new` runs once per
//! `(family, n)`, inside the first point's cell, as in `reproduce sweep`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hybrid_bench::scenarios::GraphFamily;
use hybrid_core::algorithm::{
    dissemination_registry, sssp_registry, DisseminationAlgorithm, SsspAlgorithm,
};
use hybrid_core::dissemination::{place_tokens, TokenPlacement};
use hybrid_core::kssp::kssp_lower_bound_rounds;
use hybrid_core::lower_bounds::{dissemination_lower_bound, shortest_paths_lower_bound};
use hybrid_core::nq::NqOracle;
use hybrid_core::prob::sample_distinct;
use hybrid_core::sssp::sssp_approx;
use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::{Graph, NodeId};
use hybrid_sim::{HybridNetwork, IdSpace, LocalBandwidth, ModelParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;
use crate::{sub_seed, Digest, PhaseStats, Sample, Size, Workload};

/// Accuracy of the Theorem 13 SSSP reference row.
const SSSP_EPSILON: f64 = 0.25;
/// Accuracy handed to the k-SSP contenders.
const KSSP_EPSILON: f64 = 1.0;

/// A `(λ = ∞, γ)` grid point: `γ = max(1, num·⌈log₂ n⌉ / den)`.
#[derive(Debug, Clone, Copy)]
struct Point {
    num: usize,
    den: usize,
}

/// `hybrid`, `scarce-global` and `rich-global`, as in `reproduce sweep`.
const POINTS: [Point; 3] = [
    Point { num: 1, den: 1 },
    Point { num: 1, den: 4 },
    Point { num: 4, den: 1 },
];

impl Point {
    fn params(self, n: usize) -> ModelParams {
        ModelParams {
            n,
            local: LocalBandwidth::Unlimited,
            global_capacity_msgs: (self.num * ModelParams::log_n(n) / self.den).max(1),
            id_space: IdSpace::Contiguous,
        }
    }
}

struct Instance {
    family: GraphFamily,
    graph: Arc<Graph>,
    weighted: Arc<Graph>,
    tokens: Vec<TokenPlacement>,
    sources: Vec<NodeId>,
    algo_seed: u64,
}

pub(crate) struct Shootout {
    instances: Vec<Instance>,
    points: Vec<Point>,
    diss: Vec<Box<dyn DisseminationAlgorithm>>,
    sssp: Vec<Box<dyn SsspAlgorithm>>,
    /// The `NQ` oracle of the `(family, n)` group being served.
    oracle: Option<NqOracle>,
    /// Output digest of every cell of the first cycle.
    cell_digests: Vec<u64>,
    counts: BTreeMap<String, f64>,
}

/// Adds `v` to the first-cycle count `<span>.<field>`.
fn add(counts: &mut BTreeMap<String, f64>, span: &str, field: &str, v: u64) {
    *counts.entry(format!("{span}.{field}")).or_default() += v as f64;
}

fn diss_span(name: &str) -> &'static str {
    match name {
        "theorem1" => "core.dissemination.theorem1",
        "det-broadcast" => "core.det_broadcast",
        "sqrt-k-baseline" => "core.dissemination.sqrt-k-baseline",
        _ => "",
    }
}

fn kssp_span(name: &str) -> &'static str {
    match name {
        "theorem14" => "core.kssp.theorem14",
        "theorem14-proxy" => "core.kssp.theorem14-proxy",
        "schneider" => "core.schneider",
        _ => "",
    }
}

impl Shootout {
    pub(crate) fn set_up(seed: u64, size: Size, tr: &Tracer) -> Result<Self, String> {
        let (sizes, points): (&[usize], &[Point]) = match size {
            Size::Full => (&[128, 256, 512], &POINTS),
            Size::Tiny => (&[24], &POINTS[..1]),
        };
        let mut instances = Vec::new();
        for (fi, &family) in GraphFamily::all().iter().enumerate() {
            for &n_target in sizes {
                let graph_seed = sub_seed(seed, fi as u64, n_target as u64);
                let (graph, weighted) = tr.span("graph.generators", || {
                    let g = family.build(n_target, graph_seed);
                    let w = family.reweight(&g, graph_seed);
                    (g, w)
                });
                let n = graph.n();
                let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(graph_seed, 1, 0));
                let holders = sample_distinct(n, n, &mut rng);
                let tokens = place_tokens(&holders, n as u64);
                let kssp_k = ((n as f64).sqrt().ceil() as usize).max(4).min(n);
                let sources = sample_distinct(n, kssp_k, &mut rng);
                instances.push(Instance {
                    family,
                    graph: Arc::new(graph),
                    weighted: Arc::new(weighted),
                    tokens,
                    sources,
                    algo_seed: sub_seed(graph_seed, 3, 0),
                });
            }
        }
        let diss = dissemination_registry();
        let sssp = sssp_registry();
        let names = diss.iter().map(|a| (a.name(), diss_span(a.name())));
        let names = names.chain(sssp.iter().map(|a| (a.name(), kssp_span(a.name()))));
        for (name, span) in names {
            if span.is_empty() {
                return Err(format!("contender `{name}` has no span in this benchmark"));
            }
        }
        Ok(Shootout {
            instances,
            points: points.to_vec(),
            diss,
            sssp,
            oracle: None,
            cell_digests: Vec::new(),
            counts: BTreeMap::new(),
        })
    }

    fn sim_rounds(&self) -> f64 {
        self.counts
            .iter()
            .filter(|(k, _)| k.ends_with(".rounds"))
            .map(|(_, v)| v)
            .sum()
    }
}

impl Workload for Shootout {
    fn cycle_len(&self) -> usize {
        self.instances.len() * self.points.len()
    }

    fn request(&mut self, j: usize, first: bool, tr: &Tracer) -> Sample {
        let inst = &self.instances[j / self.points.len()];
        let point_idx = j % self.points.len();
        let n = inst.graph.n();
        let k = inst.tokens.len() as u64;
        let params = self.points[point_idx].params(n);
        let oracle_slot = &mut self.oracle;
        let (diss, sssp) = (&self.diss, &self.sssp);

        let t0 = Instant::now();
        let (diss_out, sssp_out, kssp_out, lb_rounds) = tr.span("shootout.cell", || {
            if point_idx == 0 {
                *oracle_slot = Some(tr.span("core.nq.oracle_new", || NqOracle::new(&inst.graph)));
            }
            let oracle = oracle_slot.as_ref().expect("first point builds the oracle");
            let lb_rounds = tr.span("core.lower_bounds", || {
                let d = dissemination_lower_bound(oracle, &params, k, 0.99);
                let s = shortest_paths_lower_bound(oracle, &params, 1, 0.99);
                let ks = kssp_lower_bound_rounds(inst.sources.len(), params.global_capacity_msgs);
                (d.rounds, s.rounds, ks)
            });
            let diss_out: Vec<_> = diss
                .iter()
                .map(|algo| {
                    tr.span(diss_span(algo.name()), || {
                        let mut net = HybridNetwork::new(Arc::clone(&inst.graph), params);
                        let out = algo.run(&mut net, oracle, &inst.tokens);
                        let msgs = net.meter().global_messages();
                        (out, msgs)
                    })
                })
                .collect();
            let sssp_out = tr.span("core.sssp.theorem13", || {
                let mut net = HybridNetwork::new(Arc::clone(&inst.weighted), params);
                let out = sssp_approx(&mut net, 0, SSSP_EPSILON);
                let msgs = net.meter().global_messages();
                (out, msgs)
            });
            let kssp_out: Vec<_> = sssp
                .iter()
                .map(|algo| {
                    tr.span(kssp_span(algo.name()), || {
                        let mut net = HybridNetwork::new(Arc::clone(&inst.weighted), params);
                        let out = algo.run(&mut net, &inst.sources, KSSP_EPSILON, inst.algo_seed);
                        let msgs = net.meter().global_messages();
                        (out, msgs)
                    })
                })
                .collect();
            (diss_out, sssp_out, kssp_out, lb_rounds)
        });
        let dur = t0.elapsed();

        let mut digest = Digest::default();
        digest.extend([lb_rounds.0.to_bits(), lb_rounds.1.to_bits(), lb_rounds.2]);
        let mut global_msgs = 0u64;
        for (out, msgs) in &diss_out {
            digest.extend([out.rounds, *msgs, out.tokens.len() as u64]);
            global_msgs += msgs;
        }
        digest.extend([
            sssp_out.0.rounds,
            sssp_out.1,
            Digest::of(sssp_out.0.dist.iter().copied()),
        ]);
        global_msgs += sssp_out.1;
        for (out, msgs) in &kssp_out {
            digest.extend([out.rounds, *msgs, out.skeleton_size as u64]);
            digest.extend(out.dist.iter().map(|row| Digest::of(row.iter().copied())));
            global_msgs += msgs;
        }

        let mut s = Sample {
            primary: true,
            dur,
            served_at: Some(t0 + dur),
            ops: 1.0,
            work: global_msgs as f64,
            ..Sample::default()
        };
        let cell = || format!("{} n={n} point={point_idx}", inst.family.name());
        if !first {
            s.check(self.cell_digests[j] == digest.0, || {
                format!("{}: outputs differ from the first cycle", cell())
            });
            return s;
        }
        for (algo, (out, msgs)) in self.diss.iter().zip(&diss_out) {
            let all = out.tokens.len() as u64 == k && out.tokens.iter().copied().eq(0..k);
            s.check(all, || {
                format!(
                    "{}: {} delivered {} of {k} tokens",
                    cell(),
                    algo.name(),
                    out.tokens.len()
                )
            });
            let span = diss_span(algo.name());
            add(&mut self.counts, span, "rounds", out.rounds);
            add(&mut self.counts, span, "global_msgs", *msgs);
        }
        let mut ws = DijkstraWorkspace::new();
        ws.run(&inst.weighted, 0);
        let verdict = sssp_out.0.verify_stretch(ws.dist());
        s.check(verdict.is_ok(), || {
            format!("{}: theorem13 {verdict:?}", cell())
        });
        add(
            &mut self.counts,
            "core.sssp.theorem13",
            "rounds",
            sssp_out.0.rounds,
        );
        add(
            &mut self.counts,
            "core.sssp.theorem13",
            "global_msgs",
            sssp_out.1,
        );
        for (algo, (out, msgs)) in self.sssp.iter().zip(&kssp_out) {
            let stated = algo.stated_stretch(KSSP_EPSILON);
            s.check(out.stretch <= stated + 1e-9, || {
                format!(
                    "{}: {} claims stretch {} above {stated}",
                    cell(),
                    algo.name(),
                    out.stretch
                )
            });
            let verdict = out.verify_stretch(&inst.weighted);
            s.check(verdict.is_ok(), || {
                format!("{}: {} {verdict:?}", cell(), algo.name())
            });
            let span = kssp_span(algo.name());
            add(&mut self.counts, span, "rounds", out.rounds);
            add(&mut self.counts, span, "global_msgs", *msgs);
            add(
                &mut self.counts,
                span,
                "skeleton_size",
                out.skeleton_size as u64,
            );
        }
        self.cell_digests.push(digest.0);
        s
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for inst in &self.instances {
            d.add(Digest::graph(&inst.weighted));
            d.extend(inst.tokens.iter().map(|&(v, t)| (v as u64) << 32 | t));
            d.extend(inst.sources.iter().map(|&v| v as u64));
        }
        d.0
    }

    fn output_digest(&self) -> u64 {
        Digest::of(self.cell_digests.iter().copied())
    }

    fn formula_bytes(&self) -> u64 {
        self.instances
            .iter()
            .map(|i| i.graph.memory_bytes() + i.weighted.memory_bytes())
            .sum()
    }

    fn counts(&self) -> Vec<(String, f64)> {
        self.counts.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    fn details(&self, st: &PhaseStats) -> Vec<String> {
        vec![
            format!("shootout.cells_per_s = {:.4} cells/s", st.ops_per_s()),
            format!(
                "shootout.sim_rounds = {} rounds (sum over every contender, one cycle of {} cells)",
                self.sim_rounds(),
                self.cycle_len()
            ),
            format!(
                "shootout.cell_p50_us = {:.1} us, cell_p90_us = {:.1} us (n = {})",
                crate::percentile(&st.primary_us, 50.0),
                crate::percentile(&st.primary_us, 90.0),
                st.primary_us.len()
            ),
        ]
    }
}
