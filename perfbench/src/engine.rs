//! `engine`: the per-node `Executor`, which the shootout never calls (it uses
//! the phase engine).  Three scenarios run in turn on each of several
//! instances drawn from the seed:
//!
//! * `ack-flood` — `AckFloodProgram` on a 2-D grid, failure-free;
//! * `ack-flood-chaos` — the same program and grid under the `chaos` fault
//!   plan (drops, duplicates, delays, crash-restart and a partition window);
//! * `gossip` — `TokenGossipProgram` on Erdős–Rényi, which uses the global
//!   plane and the `γ` cap.
//!
//! Per-node completion rounds are recorded from outside, through the
//! `run_capped` stop closure, which sees every round.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::time::Instant;

use hybrid_core::prob::sample_distinct;
use hybrid_graph::{generators, Graph, NodeId};
use hybrid_sim::engine::{Executor, NodeProgram, RunReport};
use hybrid_sim::programs::{AckFloodProgram, TokenGossipProgram};
use hybrid_sim::{EngineConfig, FaultPlan, FaultSpec, ModelParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;
use crate::{percentile, sub_seed, Digest, PhaseStats, Sample, Size, Workload, ENGINE_SCENARIOS};

/// Round cap of every run; each scenario completes far below it.
const MAX_ROUNDS: u64 = 20_000;
/// Retransmission interval of the ack/retry flood.
const RETRY_INTERVAL: u64 = 2;

/// Every fault class at once (the `chaos` profile of `reproduce faults`).
const CHAOS: FaultSpec = FaultSpec {
    drop_prob: 0.2,
    duplicate_prob: 0.1,
    delay_prob: 0.1,
    max_delay_rounds: 3,
    crash_prob: 0.3,
    crash_down_rounds: 6,
    crash_horizon_rounds: 12,
    partition_start: 3,
    partition_rounds: 6,
};

/// One scenario's deterministic outcome.
#[derive(Debug, Clone)]
struct Outcome {
    report: RunReport,
    /// Round at which each node first knew all `k` tokens (`u64::MAX` if
    /// never).
    done_at: Vec<u64>,
}

/// One seeded instance: token placements on the shared grid, an
/// Erdős–Rényi graph with its placements, and the fault-plan and gossip
/// seeds.
struct Instance {
    er: Graph,
    grid_holders: Vec<NodeId>,
    er_holders: Vec<NodeId>,
    grid_initial: Vec<Vec<u64>>,
    er_initial: Vec<Vec<u64>>,
    plan_seed: u64,
    gossip_seed: u64,
}

pub(crate) struct Engine {
    grid: Graph,
    k: usize,
    /// A cycle runs the three scenarios on each instance in turn, so a
    /// run's figures average over several placements, plans and graphs
    /// rather than hang on one draw of the seed.
    instances: Vec<Instance>,
    /// First-cycle outcome of each request.
    first: Vec<Option<Outcome>>,
}

/// The initial tokens of every node: token `t` starts at `holders[t]`.
fn initial_tokens(n: usize, holders: &[NodeId]) -> Vec<Vec<u64>> {
    let mut tokens = vec![Vec::new(); n];
    for (t, &h) in holders.iter().enumerate() {
        tokens[h as usize].push(t as u64);
    }
    tokens
}

/// Runs one scenario to completion, recording per-node completion rounds
/// through the stop closure; returns the outcome and the executor, whose
/// final program states the caller checks.
fn execute<P: NodeProgram>(
    graph: &Graph,
    config: EngineConfig,
    k: usize,
    known: fn(&P) -> &BTreeSet<u64>,
    factory: impl FnMut(NodeId) -> P,
) -> (Outcome, Executor<'_, P>) {
    let mut exec = Executor::with_config(graph, config, factory);
    // The stop closure is called once after the init pass (round 0) and once
    // after every round.
    let round = Cell::new(0u64);
    let done_at = RefCell::new(vec![u64::MAX; graph.n()]);
    let report = exec.run_capped(MAX_ROUNDS, |programs| {
        let r = round.get();
        round.set(r + 1);
        let mut done_at = done_at.borrow_mut();
        let mut all = true;
        for (v, p) in programs.iter().enumerate() {
            if known(p).len() >= k {
                if done_at[v] == u64::MAX {
                    done_at[v] = r;
                }
            } else {
                all = false;
            }
        }
        all
    });
    let outcome = Outcome {
        report,
        done_at: done_at.into_inner(),
    };
    (outcome, exec)
}

fn ack_known(p: &AckFloodProgram) -> &BTreeSet<u64> {
    &p.known
}

fn gossip_known(p: &TokenGossipProgram) -> &BTreeSet<u64> {
    &p.known
}

fn knows_all<P>(programs: &[P], k: usize, known: fn(&P) -> &BTreeSet<u64>) -> bool {
    programs
        .iter()
        .all(|p| known(p).len() == k && known(p).iter().copied().eq(0..k as u64))
}

impl Engine {
    pub(crate) fn set_up(seed: u64, size: Size, tr: &Tracer) -> Result<Self, String> {
        let (side, k, instances) = match size {
            Size::Full => (24, 96, 8),
            Size::Tiny => (6, 8, 2),
        };
        let n = side * side;
        let (grid, ers) = tr.span("graph.generators", || {
            let grid = generators::grid(&[side, side]).map_err(|e| e.to_string())?;
            let ers = (0..instances as u64)
                .map(|i| {
                    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0, i));
                    generators::erdos_renyi(n, 6.0 / n as f64, &mut rng).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>((grid, ers))
        })?;
        let instances: Vec<Instance> = ers
            .into_iter()
            .zip(0u64..)
            .map(|(er, i)| {
                let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 1, i));
                let grid_holders = sample_distinct(grid.n(), k, &mut rng);
                let er_holders = sample_distinct(er.n(), k, &mut rng);
                Instance {
                    grid_initial: initial_tokens(grid.n(), &grid_holders),
                    er_initial: initial_tokens(er.n(), &er_holders),
                    er,
                    grid_holders,
                    er_holders,
                    plan_seed: sub_seed(seed, 2, i),
                    gossip_seed: sub_seed(seed, 3, i),
                }
            })
            .collect();
        Ok(Engine {
            first: vec![None; instances.len() * ENGINE_SCENARIOS.len()],
            grid,
            k,
            instances,
        })
    }

    /// First-cycle outcomes of one scenario, one per instance.
    fn outcomes(&self, scenario: usize) -> impl Iterator<Item = &Outcome> {
        self.first
            .iter()
            .skip(scenario)
            .step_by(ENGINE_SCENARIOS.len())
            .flatten()
    }

    fn outcome_digest(o: &Outcome) -> u64 {
        let r = &o.report;
        let mut d = Digest::default();
        d.extend([
            r.rounds,
            r.local_messages,
            r.global_messages,
            r.dropped_global,
            r.refused_sends,
            r.injected_drops,
            r.injected_duplicates,
            r.injected_delays,
            r.completed as u64,
        ]);
        d.extend(o.done_at.iter().copied());
        d.0
    }
}

impl Workload for Engine {
    fn cycle_len(&self) -> usize {
        self.instances.len() * ENGINE_SCENARIOS.len()
    }

    fn request(&mut self, j: usize, first: bool, tr: &Tracer) -> Sample {
        let k = self.k;
        let scenario = j % ENGINE_SCENARIOS.len();
        let inst = &self.instances[j / ENGINE_SCENARIOS.len()];
        let name = ENGINE_SCENARIOS[scenario];
        let t0 = Instant::now();
        let (outcome, dur, knows, n) = match scenario {
            0 | 1 => {
                let graph = &self.grid;
                let n = graph.n();
                let mut config = EngineConfig::new(ModelParams::hybrid(n));
                if scenario == 1 {
                    let plan = tr.span("sim.faults.plan_new", || {
                        FaultPlan::new(CHAOS, inst.plan_seed, n)
                    });
                    config = config.with_fault_plan(plan);
                }
                let initial = &inst.grid_initial;
                let known: fn(&AckFloodProgram) -> &BTreeSet<u64> = ack_known;
                let (outcome, exec) = tr.span(name, || {
                    execute(graph, config, k, known, |v| {
                        AckFloodProgram::new(initial[v as usize].clone(), k, RETRY_INTERVAL)
                    })
                });
                let dur = t0.elapsed();
                (outcome, dur, knows_all(exec.programs(), k, known), n)
            }
            _ => {
                let graph = &inst.er;
                let n = graph.n();
                let config = EngineConfig::new(ModelParams::hybrid(n));
                let initial = &inst.er_initial;
                let seed = inst.gossip_seed;
                let known: fn(&TokenGossipProgram) -> &BTreeSet<u64> = gossip_known;
                let (outcome, exec) = tr.span(name, || {
                    execute(graph, config, k, known, |v| {
                        TokenGossipProgram::new(v, n, initial[v as usize].clone(), k, seed)
                    })
                });
                let dur = t0.elapsed();
                (outcome, dur, knows_all(exec.programs(), k, known), n)
            }
        };
        let r = &outcome.report;
        let mut s = Sample {
            primary: true,
            dur,
            served_at: Some(t0 + dur),
            ops: (n as u64 * r.rounds) as f64,
            work: (r.local_messages + r.global_messages) as f64,
            ..Sample::default()
        };
        s.check(r.completed && r.rounds <= MAX_ROUNDS, || {
            format!("{name}: not complete after {} rounds", r.rounds)
        });
        s.check(knows, || {
            format!("{name}: some node does not know all {k} tokens")
        });
        match &self.first[j] {
            Some(f) if !first => {
                let same = Self::outcome_digest(f) == Self::outcome_digest(&outcome);
                s.check(same, || format!("{name}: run differs from the first cycle"));
            }
            _ => self.first[j] = Some(outcome),
        }
        s
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        d.add(Digest::graph(&self.grid));
        for inst in &self.instances {
            d.add(Digest::graph(&inst.er));
            d.extend(
                inst.grid_holders
                    .iter()
                    .chain(&inst.er_holders)
                    .map(|&v| v as u64),
            );
            d.extend([inst.plan_seed, inst.gossip_seed]);
        }
        d.0
    }

    fn output_digest(&self) -> u64 {
        Digest::of(self.first.iter().flatten().map(Self::outcome_digest))
    }

    fn formula_bytes(&self) -> u64 {
        self.grid.memory_bytes()
            + self
                .instances
                .iter()
                .map(|i| i.er.memory_bytes())
                .sum::<u64>()
    }

    /// Per scenario: `RunReport` counts averaged over the instances, and
    /// completion rounds over the nodes of every instance.
    fn counts(&self) -> Vec<(String, f64)> {
        let mut c = Vec::new();
        for (i, name) in ENGINE_SCENARIOS.iter().enumerate() {
            let runs: Vec<&Outcome> = self.outcomes(i).collect();
            if runs.is_empty() {
                continue;
            }
            let mean = |f: fn(&RunReport) -> u64| {
                runs.iter().map(|o| f(&o.report) as f64).sum::<f64>() / runs.len() as f64
            };
            let mut done: Vec<f64> = runs
                .iter()
                .flat_map(|o| o.done_at.iter().map(|&d| d as f64))
                .collect();
            done.sort_by(f64::total_cmp);
            let delivered = |r: &RunReport| r.local_messages + r.global_messages;
            c.push((format!("{name}.rounds"), mean(|r| r.rounds)));
            c.push((format!("{name}.local_msgs"), mean(|r| r.local_messages)));
            c.push((format!("{name}.global_msgs"), mean(|r| r.global_messages)));
            c.push((format!("{name}.dropped_global"), mean(|r| r.dropped_global)));
            c.push((
                format!("{name}.msgs_per_token"),
                mean(delivered) / self.k as f64,
            ));
            c.push((
                format!("{name}.completion_round_p50"),
                percentile(&done, 50.0),
            ));
            c.push((
                format!("{name}.completion_round_max"),
                percentile(&done, 100.0),
            ));
            if *name == "sim.engine.ack-flood-chaos" {
                c.push((format!("{name}.injected_drops"), mean(|r| r.injected_drops)));
                c.push((
                    format!("{name}.injected_duplicates"),
                    mean(|r| r.injected_duplicates),
                ));
                c.push((
                    format!("{name}.injected_delays"),
                    mean(|r| r.injected_delays),
                ));
                let unique = mean(|r| {
                    (r.local_messages + r.global_messages).saturating_sub(r.injected_duplicates)
                });
                c.push((
                    format!("{name}.delivery_ratio"),
                    unique / (unique + mean(|r| r.injected_drops)).max(1.0),
                ));
            }
        }
        c
    }

    fn details(&self, st: &PhaseStats) -> Vec<String> {
        let mut d = vec![
            format!(
                "engine.node_rounds_per_s = {:.1} node-rounds/s",
                st.ops_per_s()
            ),
            format!("engine.msgs_per_s = {:.1} messages/s", st.work_per_s()),
        ];
        for (i, name) in ENGINE_SCENARIOS.iter().enumerate() {
            let runs: Vec<String> = self
                .outcomes(i)
                .map(|o| {
                    format!(
                        "{} rounds / {} local + {} global messages",
                        o.report.rounds, o.report.local_messages, o.report.global_messages
                    )
                })
                .collect();
            d.push(format!("{name}: {}", runs.join("; ")));
        }
        d
    }
}
