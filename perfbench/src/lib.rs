//! The repository benchmark.
//!
//! One command runs one workload from a seed, in one process, on a rayon
//! pool of one thread, as a closed loop with a single caller (each
//! request starts when the previous one and its checks are done):
//!
//! * `shootout` — every graph family at several sizes, every registered
//!   contender plus the Theorem 13 SSSP per `(family, n, point)` cell;
//! * `oracle-serve` — a `DistanceOracle` on a weighted grid far beyond L2,
//!   serving distance batches with path batches interleaved;
//! * `engine` — the per-node `Executor`: ack-flood clean and under chaos
//!   faults on a grid, token gossip on Erdős–Rényi;
//! * `scale` — streamed 10⁵-node graphs, sampled `NQ_k`, distance rows and
//!   their quantization.
//!
//! Set-up is repeated (see [`SETUP_MIN_REPS`]) and reports its median.  The timed phase
//! then repeats whole cycles of requests until `--seconds` of request time
//! have been measured.  Every output is checked outside the timed part of
//! its request: fully on the first cycle, and against the first cycle's
//! digest on every later one.  With `--trace 1` the first cycle is a warm-up
//! and the cycles after it alternate between untraced and traced; the traced
//! cycles yield the per-layer metrics and the difference between the two
//! sets is the tracing overhead.
//! The workload, metric and layer map is in `perfbench/README.md`.

mod trace;

mod engine;
mod oracle_serve;
mod scale;
mod shootout;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["shootout", "oracle-serve", "engine", "scale"];

/// Set-up runs at least [`SETUP_MIN_REPS`] times and keeps repeating until
/// [`SETUP_MIN_SECONDS`] have passed, up to [`SETUP_MAX_REPS`] times;
/// `setup_s` is the median, so a short set-up gets more samples.
pub(crate) const SETUP_MIN_REPS: usize = 5;
pub(crate) const SETUP_MAX_REPS: usize = 100;
pub(crate) const SETUP_MIN_SECONDS: f64 = 2.0;

/// End-to-end metrics (`--trace 0`): name and unit.
pub(crate) const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("work_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
];

/// Span names the benchmark records, one per layer boundary it calls.
pub(crate) const SPANS: [&str; 23] = [
    "graph.generators",
    "graph.streaming",
    "core.nq.oracle_new",
    "core.lower_bounds",
    "core.dissemination.theorem1",
    "core.det_broadcast",
    "core.dissemination.sqrt-k-baseline",
    "core.sssp.theorem13",
    "core.kssp.theorem14",
    "core.kssp.theorem14-proxy",
    "core.schneider",
    "core.oracle.build",
    "core.oracle.query_batch",
    "core.oracle.query_paths_batch",
    "sim.faults.plan_new",
    "sim.engine.ack-flood",
    "sim.engine.ack-flood-chaos",
    "sim.engine.gossip",
    "core.nq.sampled_new",
    "core.rows.compute",
    "core.rows.quantized",
    "shootout.cell",
    "oracle-serve.batch",
];

/// Parent spans whose self time (harness overhead) is reported.
pub(crate) const PARENT_SPANS: [&str; 2] = ["shootout.cell", "oracle-serve.batch"];

/// The seven algorithm spans of the shootout.
pub(crate) const ALGORITHM_SPANS: [&str; 7] = [
    "core.dissemination.theorem1",
    "core.det_broadcast",
    "core.dissemination.sqrt-k-baseline",
    "core.sssp.theorem13",
    "core.kssp.theorem14",
    "core.kssp.theorem14-proxy",
    "core.schneider",
];

/// The k-SSP contenders, which also report their skeleton size.
pub(crate) const KSSP_SPANS: [&str; 3] = [
    "core.kssp.theorem14",
    "core.kssp.theorem14-proxy",
    "core.schneider",
];

/// The engine scenarios.
pub(crate) const ENGINE_SCENARIOS: [&str; 3] = [
    "sim.engine.ack-flood",
    "sim.engine.ack-flood-chaos",
    "sim.engine.gossip",
];

/// Every per-layer metric (`--trace 1`): name and unit, in output order.
pub(crate) fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for s in SPANS {
        m.push((format!("{s}.calls"), "count"));
        m.push((format!("{s}.busy_ms"), "ms"));
        if PARENT_SPANS.contains(&s) {
            m.push((format!("{s}.self_ms"), "ms"));
        }
    }
    for s in ALGORITHM_SPANS {
        m.push((format!("{s}.rounds"), "rounds"));
        m.push((format!("{s}.global_msgs"), "count"));
    }
    for s in KSSP_SPANS {
        m.push((format!("{s}.skeleton_size"), "count"));
    }
    m.push(("core.oracle.memory_mib".into(), "MiB"));
    m.push(("core.oracle.exact_frac".into(), "ratio"));
    m.push(("core.oracle.path_nodes_per_query".into(), "count"));
    for s in ENGINE_SCENARIOS {
        m.push((format!("{s}.rounds"), "rounds"));
        m.push((format!("{s}.local_msgs"), "count"));
        m.push((format!("{s}.global_msgs"), "count"));
        m.push((format!("{s}.dropped_global"), "count"));
        m.push((format!("{s}.msgs_per_token"), "count"));
        m.push((format!("{s}.completion_round_p50"), "rounds"));
        m.push((format!("{s}.completion_round_max"), "rounds"));
    }
    for c in ["injected_drops", "injected_duplicates", "injected_delays"] {
        m.push((format!("sim.engine.ack-flood-chaos.{c}"), "count"));
    }
    m.push(("sim.engine.ack-flood-chaos.delivery_ratio".into(), "ratio"));
    m.push(("core.rows.memory_mib".into(), "MiB"));
    m.push(("core.nq.sampled_memory_mib".into(), "MiB"));
    m.push(("mem.formula_mib".into(), "MiB"));
    m.push(("mem.rss_over_formula".into(), "ratio"));
    m.push(("trace.overhead_pct".into(), "%"));
    m.push(("trace.coverage_pct".into(), "%"));
    m
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` is the smoke
/// size the package's tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// What one request of a workload measured and checked.
#[derive(Debug, Default)]
pub(crate) struct Sample {
    /// Whether the request is of the workload's primary kind (its latency
    /// feeds `op_p50_us` / `op_p90_us`).
    pub primary: bool,
    /// Duration of the timed part (checks excluded).
    pub dur: Duration,
    /// When the timed part ended; the rest of the request is checks.
    pub served_at: Option<Instant>,
    /// Primary operations completed (`ops_per_s`).
    pub ops: f64,
    /// Secondary work items completed (`work_per_s`).
    pub work: f64,
    /// Output checks made.
    pub checks: u64,
    /// Checks that failed, described.
    pub failures: Vec<String>,
}

impl Sample {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A workload after set-up, ready to serve requests.
pub(crate) trait Workload {
    /// Requests per cycle; the timed phase always runs whole cycles.
    fn cycle_len(&self) -> usize;
    /// Runs request `j` of the cycle (timing only the library calls), then
    /// checks its output: fully when `first` (the first cycle of the run),
    /// against the first cycle's digest otherwise.
    fn request(&mut self, j: usize, first: bool, tr: &Tracer) -> Sample;
    /// Digest of the generated inputs.
    fn input_digest(&self) -> u64;
    /// Digest of the deterministic outputs of the first cycle (rounds,
    /// messages, answers).
    fn output_digest(&self) -> u64;
    /// Sum of the library's own `memory_bytes()` over what the workload holds.
    fn formula_bytes(&self) -> u64;
    /// Per-layer counts of the first cycle (names from [`per_layer_metrics`]).
    fn counts(&self) -> Vec<(String, f64)>;
    /// Workload-specific end-to-end figures for the human-readable report.
    fn details(&self, stats: &PhaseStats) -> Vec<String>;
}

/// Timing of one measured phase (a whole run, or the untraced or traced
/// cycles of a traced run).
///
/// The host's speed changes in phases of seconds (on a shared host it
/// flips between a fast and a slow state), so a run's figures are averages
/// over its cycles, which follow the share of time spent in each state
/// continuously.  A median over cycles or requests would instead jump from
/// one state to the other as that share crosses one half.
#[derive(Debug, Default, Clone)]
pub(crate) struct PhaseStats {
    /// Latencies of primary requests, µs, sorted.
    pub(crate) primary_us: Vec<f64>,
    /// Latencies of the other requests, µs, sorted.
    pub(crate) secondary_us: Vec<f64>,
    /// Total request time, seconds.
    pub(crate) busy_s: f64,
    /// Per cycle: `[ops, seconds of the requests with ops, work, seconds of
    /// the requests with work]`.
    pub(crate) per_cycle: Vec<[f64; 4]>,
    /// Per cycle: p50 and p90 of its primary-request latencies, µs.
    pub(crate) cycle_latency_us: Vec<[f64; 2]>,
}

impl PhaseStats {
    /// Primary operations per second of the requests that made them.
    pub(crate) fn ops_per_s(&self) -> f64 {
        self.sum(0) / self.sum(1)
    }

    /// Secondary work items per second of the requests that made them.
    pub(crate) fn work_per_s(&self) -> f64 {
        self.sum(2) / self.sum(3)
    }

    /// Mean over cycles of the cycle's latency percentile (`i` = 0 for p50,
    /// 1 for p90).  Every cycle makes the same requests, so each cycle's
    /// percentile is one sample of the same figure.
    pub(crate) fn latency_us(&self, i: usize) -> f64 {
        let n = self.cycle_latency_us.len() as f64;
        self.cycle_latency_us.iter().map(|c| c[i]).sum::<f64>() / n
    }

    fn sum(&self, i: usize) -> f64 {
        self.per_cycle.iter().map(|c| c[i]).sum()
    }

    fn sort(&mut self) {
        self.primary_us.sort_by(f64::total_cmp);
        self.secondary_us.sort_by(f64::total_cmp);
    }

    /// Mean seconds per primary operation over the whole phase.
    fn secs_per_op(&self) -> f64 {
        self.sum(1) / self.sum(0)
    }
}

/// Outcome of a run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, the exact metric set of the mode.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    pub input_digest: u64,
    pub output_digest: u64,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans_jsonl: Option<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Pool width.  Every library call is bit-identical at any width, and on a
/// host of a few shared cores a second worker mostly measures how soon the
/// scheduler wakes it.
pub const THREADS: usize = 1;

/// Runs one workload end to end on a dedicated pool.
pub fn run(opts: &Options) -> Result<Report, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {})",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .map_err(|_| "cannot build the thread pool".to_string())?;
    pool.install(|| run_in_pool(opts))
}

fn set_up(name: &str, seed: u64, size: Size, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "shootout" => Box::new(shootout::Shootout::set_up(seed, size, tr)?),
        "oracle-serve" => Box::new(oracle_serve::OracleServe::set_up(seed, size, tr)?),
        "engine" => Box::new(engine::Engine::set_up(seed, size, tr)?),
        "scale" => Box::new(scale::Scale::set_up(seed, size, tr)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The harness's progress through the timed phase.
struct Progress {
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    next_request: u64,
}

/// Runs one whole cycle of requests into `st` and returns the seconds its
/// requests spent after their timed part (in checks).
fn run_cycle(
    w: &mut dyn Workload,
    tr: &Tracer,
    first: bool,
    st: &mut PhaseStats,
    p: &mut Progress,
) -> f64 {
    let mut cycle = [0.0; 4];
    let mut latencies = Vec::new();
    let mut check_s = 0.0;
    for j in 0..w.cycle_len() {
        tr.set_request(p.next_request);
        p.next_request += 1;
        let s = w.request(j, first, tr);
        if let Some(t) = s.served_at {
            check_s += t.elapsed().as_secs_f64();
        }
        let secs = s.dur.as_secs_f64();
        if s.primary {
            st.primary_us.push(secs * 1e6);
            latencies.push(secs * 1e6);
        } else {
            st.secondary_us.push(secs * 1e6);
        }
        if s.ops > 0.0 {
            cycle[0] += s.ops;
            cycle[1] += secs;
        }
        if s.work > 0.0 {
            cycle[2] += s.work;
            cycle[3] += secs;
        }
        st.busy_s += secs;
        p.attempted += s.checks;
        p.failed += s.failures.len() as u64;
        let room = 8usize.saturating_sub(p.failures.len());
        p.failures.extend(s.failures.into_iter().take(room));
    }
    st.per_cycle.push(cycle);
    latencies.sort_by(f64::total_cmp);
    st.cycle_latency_us
        .push([percentile(&latencies, 50.0), percentile(&latencies, 90.0)]);
    check_s
}

fn run_in_pool(opts: &Options) -> Result<Report, String> {
    let tr = Tracer::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w = loop {
        let t0 = Instant::now();
        let w = set_up(&opts.workload, opts.seed, opts.size, &tr)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let total: f64 = setup_s.iter().sum();
        let enough = setup_s.len() >= SETUP_MIN_REPS && total >= SETUP_MIN_SECONDS;
        if enough || setup_s.len() >= SETUP_MAX_REPS {
            break w;
        }
        // Each set-up is dropped before the next starts, so repeating does
        // not raise the memory high-water mark.
    };
    if opts.trace {
        // Trace one more set-up, untimed, for the set-up layers' spans.
        drop(w);
        tr.set_enabled(true);
        w = set_up(&opts.workload, opts.seed, opts.size, &tr)?;
    }
    let setup_end_ns = tr.now_ns();

    let mut p = Progress {
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        next_request: 0,
    };
    let mut notes = Vec::new();
    let metrics: Vec<(String, f64, String)>;
    let mut spans_jsonl = None;

    // The first cycle of the timed phase (full checks, cold caches) is a
    // warm-up and is left out of every figure.
    tr.set_enabled(false);
    run_cycle(w.as_mut(), &tr, true, &mut PhaseStats::default(), &mut p);

    if !opts.trace {
        let mut st = PhaseStats::default();
        while st.busy_s < opts.seconds {
            run_cycle(w.as_mut(), &tr, false, &mut st, &mut p);
        }
        st.sort();
        let per_cycle = st.primary_us.len() / st.per_cycle.len();
        let values = [
            median(&setup_s),
            peak_rss_mib(),
            st.ops_per_s(),
            st.work_per_s(),
            st.latency_us(0),
            st.latency_us(1),
        ];
        metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u.to_string()))
            .collect();
        notes.push(format!(
            "timed (after a warm-up cycle): {:.3} s of requests in {} cycles; {} primary \
             and {} other requests; op_p50/op_p90 are means over the cycles of each cycle's \
             percentile ({} samples per cycle, {} beyond its p90)",
            st.busy_s,
            st.per_cycle.len(),
            st.primary_us.len(),
            st.secondary_us.len(),
            per_cycle,
            per_cycle / 10
        ));
        notes.extend(w.details(&st));
    } else {
        // After the warm-up, even cycles run untraced and odd ones traced,
        // so that drift in the host's speed falls on both sets alike.
        let (mut plain, mut traced) = (PhaseStats::default(), PhaseStats::default());
        let (mut traced_wall_s, mut traced_check_s) = (0.0, 0.0);
        for i in 0.. {
            let on = i % 2 == 1;
            tr.set_enabled(on);
            if !on {
                run_cycle(w.as_mut(), &tr, false, &mut plain, &mut p);
                continue;
            }
            let t0 = Instant::now();
            traced_check_s += run_cycle(w.as_mut(), &tr, false, &mut traced, &mut p);
            traced_wall_s += t0.elapsed().as_secs_f64();
            if plain.busy_s + traced.busy_s >= opts.seconds {
                break;
            }
        }
        tr.set_enabled(false);
        let spans = tr.spans();
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        for s in SPANS {
            // Set-up spans come from the one traced set-up; the rest from the
            // traced cycles, per cycle, so that they compare across commits
            // whatever the number of cycles that fit.
            let (a, b, per) = if s.starts_with("graph.") || s == "core.oracle.build" {
                (0, setup_end_ns, 1.0)
            } else {
                (setup_end_ns, u64::MAX, traced.per_cycle.len() as f64)
            };
            let t = trace::totals(&spans, a, b, s);
            values.insert(format!("{s}.calls"), t.calls as f64 / per);
            values.insert(format!("{s}.busy_ms"), t.busy_ms / per);
            if PARENT_SPANS.contains(&s) {
                values.insert(format!("{s}.self_ms"), t.self_ms / per);
            }
        }
        for (k, v) in w.counts() {
            values.insert(k, v);
        }
        let formula = w.formula_bytes() as f64 / MIB;
        values.insert("mem.formula_mib".into(), formula);
        values.insert("mem.rss_over_formula".into(), peak_rss_mib() / formula);
        values.insert(
            "trace.overhead_pct".into(),
            (traced.secs_per_op() / plain.secs_per_op() - 1.0) * 100.0,
        );
        // Wall time of the traced cycles, harness included, minus the time
        // the requests spent in checks after their timed part.
        let timed_wall_ms = (traced_wall_s - traced_check_s) * 1e3;
        let covered_ms = trace::top_level_ms(&spans, setup_end_ns, u64::MAX);
        values.insert(
            "trace.coverage_pct".into(),
            covered_ms / timed_wall_ms * 100.0,
        );
        let names = per_layer_metrics();
        for k in values.keys() {
            if !names.iter().any(|(n, _)| n == k) {
                return Err(format!("workload reported an undeclared metric `{k}`"));
            }
        }
        metrics = names
            .into_iter()
            .map(|(n, u)| {
                let v = values.get(&n).copied().unwrap_or(0.0);
                (n, v, u.to_string())
            })
            .collect();
        notes.push(format!(
            "traced: {} spans; after one warm-up cycle, untraced {:.3} s / {} cycles \
             interleaved with traced {:.3} s / {} cycles ({:.3} s wall, {:.3} s of it checks)",
            spans.len(),
            plain.busy_s,
            plain.per_cycle.len(),
            traced.busy_s,
            traced.per_cycle.len(),
            traced_wall_s,
            traced_check_s
        ));
        spans_jsonl = Some(tr.to_jsonl());
    }

    let formula = w.formula_bytes() as f64 / MIB;
    let rss = peak_rss_mib();
    let ratio = rss / formula;
    notes.push(format!(
        "memory: peak_rss {rss:.1} MiB, formula {formula:.1} MiB (Σ memory_bytes), ratio {ratio:.2}{}",
        if !(0.5..=2.0).contains(&ratio) {
            "  ** diverges by more than 2x **"
        } else {
            ""
        }
    ));
    notes.push(format!(
        "setup: {} reps, {:?} s",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    notes.push(format!(
        "checks: {} attempted, {} failed, fail_frac {}",
        p.attempted,
        p.failed,
        p.failed as f64 / p.attempted.max(1) as f64
    ));
    for f in &p.failures {
        notes.push(format!("FAILED: {f}"));
    }
    let input_digest = w.input_digest();
    let output_digest = w.output_digest();
    notes.push(format!(
        "digest: inputs {input_digest:016x}, outputs {output_digest:016x}"
    ));
    Ok(Report {
        correct: p.failed == 0 && p.attempted > 0,
        attempted: p.attempted.max(1),
        failed: p.failed,
        metrics,
        notes,
        input_digest,
        output_digest,
        spans_jsonl,
    })
}

pub(crate) const MIB: f64 = 1024.0 * 1024.0;

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of unsorted values.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Nearest-rank percentile of sorted values.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a over 64-bit words: the determinism digest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub(crate) fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn extend(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.add(v);
        }
    }

    /// Digest of a sequence.
    pub(crate) fn of(vs: impl IntoIterator<Item = u64>) -> u64 {
        let mut d = Digest::default();
        d.extend(vs);
        d.0
    }

    /// Digest of a graph's edge list.
    pub(crate) fn graph(g: &hybrid_graph::Graph) -> u64 {
        Digest::of(
            g.edges()
                .iter()
                .flat_map(|&(u, v, w)| [u as u64, v as u64, w]),
        )
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub(crate) fn sub_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
