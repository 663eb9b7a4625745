//! `reproduce` — regenerates the paper's tables and figures as round-count
//! tables, printing them in a paper-like layout and writing machine-readable
//! JSON into `results/`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hybrid-bench --bin reproduce -- [table1|table2|table3|table4|figure1|appendix-b|sweep|faults|oracle|all] [--quick] [--check-regression] [--strict]
//! ```
//!
//! `--quick` shrinks the instance sizes so the full run finishes in well under
//! a minute (used by CI and by the recorded EXPERIMENTS.md runs on small
//! machines); without it the default sizes are used.
//!
//! `--check-regression` compares the wall-clock times of this run against the
//! committed `BENCH_baseline.json` with a generous tolerance and prints a
//! warning per regressed target.  By default it is **warn-only** (the exit
//! code stays 0) so local runs on noisy laptops never fail; with `--strict`
//! (what CI passes; implies `--check-regression`) any breach of the
//! `2× + 100 ms` tolerance — or a target missing its baseline entry — exits
//! non-zero and blocks the merge.
//!
//! Unknown targets *and unknown flags* exit with code 2 and the usage string:
//! a typo like `--qiuck` must not silently run the slow full suite.

use std::fs;
use std::path::Path;
use std::time::Instant;

use hybrid_bench::faults_sweep::{fault_sweep_rows, FaultSweepConfig};
use hybrid_bench::oracle_bench::{oracle_bench_rows, OracleBenchConfig};
use hybrid_bench::scale::{scale_rows, ScaleConfig};
use hybrid_bench::scenarios::{
    appendix_b_rows, figure1_rows, table1_rows, table2_rows, table3_rows, table4_rows, GraphFamily,
};
use hybrid_bench::sweep::{sweep_rows_with, validate_sweep_artifact, SweepConfig};
use serde::{Deserialize, Serialize};

const USAGE: &str =
    "usage: reproduce [table1|table2|table3|table4|figure1|appendix-b|sweep|faults|oracle|all] [--scale] [--algo <name,...>] [--quick] [--check-regression] [--strict]";

/// Parsed command line of the `reproduce` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    /// The reproduction target (`all` when omitted).
    target: String,
    /// Shrunk instance sizes.
    quick: bool,
    /// Run the sweep target as the million-node scale tier
    /// (`sweep --scale` → `results/sweep_scale.json`).
    scale: bool,
    /// Restrict the sweep shootout to these registry names
    /// (`--algo theorem1,schneider`); `None` runs every registered algorithm.
    algo: Option<Vec<String>>,
    /// Compare against `BENCH_baseline.json`.
    check_regression: bool,
    /// Escalate regression warnings to a non-zero exit (CI mode; implies
    /// `check_regression`).
    strict: bool,
}

/// Parses the argument list (without the program name).  Unknown flags and
/// surplus positional arguments are errors so that a typo (`--qiuck`) cannot
/// silently select the slow full-size defaults.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        target: String::new(),
        quick: false,
        scale: false,
        algo: None,
        check_regression: false,
        strict: false,
    };
    let parse_algo_list = |value: &str| -> Vec<String> {
        value
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--scale" => cli.scale = true,
            "--algo" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    return Err(format!(
                        "--algo requires a value (comma-separated algorithm names)\n{USAGE}"
                    ));
                };
                cli.algo = Some(parse_algo_list(value));
            }
            inline if inline.starts_with("--algo=") => {
                cli.algo = Some(parse_algo_list(&inline["--algo=".len()..]));
            }
            "--check-regression" => cli.check_regression = true,
            "--strict" => cli.strict = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'\n{USAGE}"));
            }
            target if cli.target.is_empty() => cli.target = target.to_string(),
            surplus => {
                return Err(format!(
                    "unexpected argument '{surplus}' (target already set to '{}')\n{USAGE}",
                    cli.target
                ));
            }
        }
        i += 1;
    }
    if cli.target.is_empty() {
        cli.target = "all".to_string();
    }
    // `--strict` without the gate would be a silent no-op (the same class of
    // bug as an ignored `--qiuck` typo), so it implies the gate instead.
    if cli.strict {
        cli.check_regression = true;
    }
    // `--scale` selects the scale tier of the sweep; on any other target it
    // would be a silent no-op, which is the `--qiuck` bug class again.
    if cli.scale && cli.target != "sweep" {
        return Err(format!(
            "--scale applies to the sweep target only (target is '{}')\n{USAGE}",
            cli.target
        ));
    }
    // `--algo` filters the shootout, which only the plain sweep target runs;
    // anywhere else it would silently select nothing (the `--qiuck` bug class).
    if cli.algo.is_some() && (cli.target != "sweep" || cli.scale) {
        return Err(format!(
            "--algo applies to the sweep shootout only (target is '{}'{})\n{USAGE}",
            cli.target,
            if cli.scale { " --scale" } else { "" }
        ));
    }
    Ok(cli)
}

fn write_json<T: Serialize>(name: &str, rows: &T) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(rows) {
        let _ = fs::write(&path, json);
        println!("  (wrote {})", path.display());
    }
}

/// Wall-clock measurement of one reproduce target.
#[derive(Debug, Clone, Serialize)]
struct TargetTiming {
    /// Target name (`table1` … `appendix-b`, `scale`).
    target: &'static str,
    /// Wall-clock milliseconds.
    wall_ms: f64,
    /// Estimated peak bytes of the target's dominant allocations — exact
    /// arithmetic for the scale tier (graph + rows + profiles per cell),
    /// dominant-allocation formulas for the small-`n` targets (each `run_*`
    /// documents its own).  The regression gate only compares `wall_ms`.
    peak_mem_bytes: u64,
}

/// The machine-readable perf record `reproduce` emits so future PRs have a
/// trajectory to beat.
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    /// Record schema identifier.
    schema: &'static str,
    /// Whether `--quick` sizes were used.
    quick: bool,
    /// Worker threads the parallel fan-outs could use.
    threads: usize,
    /// Per-target wall-clock times.
    targets: Vec<TargetTiming>,
    /// Sum over targets.
    total_wall_ms: f64,
}

impl BenchRecord {
    fn write(&self, full_sweep: bool) {
        write_json("bench_last_run", self);
        // The first *full* sweep (`reproduce all`) on a machine records the
        // baseline later runs are compared against; partial runs never
        // baseline (their target set would not match a full run), and an
        // existing baseline is never clobbered (delete the file to
        // re-baseline).
        if !full_sweep {
            return;
        }
        let baseline = Path::new("BENCH_baseline.json");
        if !baseline.exists() {
            if let Ok(json) = serde_json::to_string_pretty(self) {
                let _ = fs::write(baseline, json);
                println!("  (wrote {} — new perf baseline)", baseline.display());
            }
        }
    }
}

/// A regressed target is one slower than `factor × baseline + slack`.  The
/// tolerance is deliberately generous: CI containers and developer laptops
/// time the same work very differently, and the gate is a tripwire for
/// order-of-magnitude drift, not a microbenchmark.
const REGRESSION_FACTOR: f64 = 2.0;
const REGRESSION_SLACK_MS: f64 = 100.0;

/// The part of a recorded bench JSON (`BENCH_baseline.json`) the gate reads.
/// The derive ignores every other key — the baseline's `note`, `machine`
/// and `pre_optimization_wall_ms`, a target's `peak_mem_bytes`.
#[derive(Deserialize)]
struct RecordedBench {
    /// Whether the record was a `--quick` run.
    quick: bool,
    /// Per-target wall-clock times.
    targets: Vec<RecordedTarget>,
}

/// One target's recorded wall-clock time.
#[derive(Deserialize)]
struct RecordedTarget {
    target: String,
    wall_ms: f64,
}

/// The bench regression gate: compares this run's per-target times against
/// `BENCH_baseline.json` and returns the number of regressed targets.  The
/// caller decides whether that fails the process (`--strict`, CI) or is
/// warn-only (local runs); annotations are GitHub-flavoured either way.
fn check_regression(record: &BenchRecord, strict: bool) -> usize {
    gate_regressions(
        record,
        fs::read_to_string(Path::new("BENCH_baseline.json"))
            .ok()
            .as_deref(),
        strict,
    )
}

/// The gate logic behind [`check_regression`], with the baseline text passed
/// in (`None` = no baseline file) so the strict/warn counting is unit-testable
/// without touching the filesystem.
fn gate_regressions(record: &BenchRecord, baseline_text: Option<&str>, strict: bool) -> usize {
    let annotation = if strict { "error" } else { "warning" };
    // Under --strict a comparison that cannot run is itself a failure: CI
    // promises the gate fails on any breach, and a deleted / unparsable /
    // quick-mismatched baseline would otherwise disable the gate silently.
    let skip = |message: String| -> usize {
        if strict {
            println!("::error title=bench regression::{message} (--strict: failing the run, the gate could not compare anything)");
            1
        } else {
            println!("\n[regression gate] {message}; skipping comparison");
            0
        }
    };
    let Some(text) = baseline_text else {
        return skip(
            "no BENCH_baseline.json — nothing to compare against (run `reproduce all` once to record it)"
                .to_string(),
        );
    };
    let baseline: RecordedBench = match serde_json::from_str(text) {
        Ok(baseline) => baseline,
        Err(e) => return skip(format!("BENCH_baseline.json is not a bench record ({e})")),
    };
    if baseline.quick != record.quick {
        return skip(format!(
            "baseline quick={} does not match this run (quick={})",
            baseline.quick, record.quick
        ));
    }
    if baseline.targets.is_empty() {
        return skip("BENCH_baseline.json has no targets".to_string());
    }
    println!("\n[regression gate] comparing against BENCH_baseline.json ({} at > {REGRESSION_FACTOR}x + {REGRESSION_SLACK_MS} ms):", if strict { "fail" } else { "warn" });
    let mut regressed = 0usize;
    for t in &record.targets {
        let Some(base_ms) = baseline
            .targets
            .iter()
            .find(|b| b.target == t.target)
            .map(|b| b.wall_ms)
        else {
            if strict {
                // CI gates every target: a new target without a baseline
                // entry must fail loudly, not stay silently ungated forever.
                regressed += 1;
                println!(
                    "::error title=bench regression::{} has no entry in BENCH_baseline.json (add one so the target is gated)",
                    t.target
                );
            } else {
                println!(
                    "  {:<12} {:>9.1} ms (no baseline entry)",
                    t.target, t.wall_ms
                );
            }
            continue;
        };
        let limit = REGRESSION_FACTOR * base_ms + REGRESSION_SLACK_MS;
        if t.wall_ms > limit {
            regressed += 1;
            println!(
                "::{annotation} title=bench regression::{} took {:.1} ms vs baseline {:.1} ms (limit {:.1} ms)",
                t.target, t.wall_ms, base_ms, limit
            );
        } else {
            println!(
                "  {:<12} {:>9.1} ms vs baseline {:>9.1} ms  ok",
                t.target, t.wall_ms, base_ms
            );
        }
    }
    if regressed == 0 {
        println!(
            "[regression gate] all {} targets within tolerance",
            record.targets.len()
        );
    } else if strict {
        println!("[regression gate] {regressed} target(s) regressed (--strict: failing the run)");
    } else {
        println!(
            "[regression gate] {regressed} target(s) regressed (warn-only; not failing the run)"
        );
    }
    regressed
}

/// Runs `f`, printing and returning its wall-clock time and the peak-memory
/// estimate `f` reports (bytes of the target's dominant allocations).
fn timed(target: &'static str, f: impl FnOnce() -> u64) -> TargetTiming {
    let start = Instant::now();
    let peak_mem_bytes = f();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "  [{target}: {wall_ms:.1} ms, ~{:.1} MiB peak]",
        peak_mem_bytes as f64 / (1024.0 * 1024.0)
    );
    TargetTiming {
        target,
        wall_ms,
        peak_mem_bytes,
    }
}

/// Returns the dominant allocation: the path family's `NqOracle` ball profile
/// (`n` nodes × eccentricity ≈ `n` entries of 8 bytes).
fn run_table1(quick: bool) -> u64 {
    let n = if quick { 256 } else { 1024 };
    let ks: Vec<u64> = if quick {
        vec![16, 64, 256]
    } else {
        vec![16, 64, 256, 1024]
    };
    println!("\n=== Table 1: information dissemination (n = {n}) ===");
    println!(
        "{:<18}{:>6}{:>6}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "family",
        "k",
        "NQ_k",
        "sqrt(k)",
        "bcast-UNIV",
        "bcast-BASE",
        "aggr-UNIV",
        "route-UNIV",
        "route-BASE",
        "lower-bnd"
    );
    let rows = table1_rows(GraphFamily::all(), n, &ks, 0xC0FFEE);
    for r in &rows {
        println!(
            "{:<18}{:>6}{:>6}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10.2}",
            r.family,
            r.k,
            r.nq,
            r.sqrt_k,
            r.dissemination_universal,
            r.dissemination_baseline,
            r.aggregation_universal,
            r.routing_universal,
            r.routing_baseline,
            r.lower_bound
        );
    }
    write_json("table1_dissemination", &rows);
    (n as u64).pow(2) * 8
}

/// Returns the dominant allocation: the dense `n × n` label matrix plus the
/// exact distance matrix it is verified against.
fn run_table2(quick: bool) -> u64 {
    let n = if quick { 144 } else { 400 };
    println!("\n=== Table 2: APSP (n = {n}) ===");
    println!(
        "{:<14}{:>6}{:>7}{:>8}{:>11}{:>9}{:>11}{:>11}{:>9}{:>11}{:>9}{:>10}{:>10}",
        "family",
        "n",
        "NQ_n",
        "sqrt(n)",
        "T6-UNIV",
        "T6-str",
        "T6-BASE",
        "T7-UNIV",
        "T7-str",
        "T8-UNIV",
        "T8-str",
        "lit-sqrt",
        "lower-bnd"
    );
    let rows = table2_rows(GraphFamily::core_families(), n, 0xBEEF);
    for r in &rows {
        println!(
            "{:<14}{:>6}{:>7}{:>8}{:>11}{:>9.3}{:>11}{:>11}{:>9.3}{:>11}{:>9.3}{:>10}{:>10.2}",
            r.family,
            r.n,
            r.nq_n,
            r.sqrt_n,
            r.unweighted_universal,
            r.unweighted_stretch,
            r.unweighted_baseline,
            r.weighted_spanner_universal,
            r.weighted_spanner_stretch,
            r.weighted_skeleton_universal,
            r.weighted_skeleton_stretch,
            r.literature_sqrt_n,
            r.lower_bound
        );
    }
    write_json("table2_apsp", &rows);
    2 * (n as u64).pow(2) * 8
}

/// Returns the dominant allocation: the largest `k × n` source-row block plus
/// the exact rows it is verified against.
fn run_table3(quick: bool) -> u64 {
    let n = if quick { 196 } else { 400 };
    let ks: Vec<u64> = if quick {
        vec![16, 64]
    } else {
        vec![16, 64, 144]
    };
    let k_max = *ks.iter().max().expect("ks is non-empty");
    println!("\n=== Table 3: (k, l)-shortest paths (n = {n}) ===");
    println!(
        "{:<14}{:>6}{:>5}{:>6}{:>8}{:>10}{:>9}{:>10}{:>10}",
        "family", "k", "l", "NQ_k", "sqrt(k)", "T5-UNIV", "stretch", "baseline", "lower-bnd"
    );
    let rows = table3_rows(GraphFamily::core_families(), n, &ks, 0xFACE);
    for r in &rows {
        println!(
            "{:<14}{:>6}{:>5}{:>6}{:>8}{:>10}{:>9.3}{:>10}{:>10.2}",
            r.family, r.k, r.l, r.nq, r.sqrt_k, r.universal, r.stretch, r.baseline, r.lower_bound
        );
    }
    write_json("table3_klsp", &rows);
    2 * k_max * n as u64 * 8
}

/// Returns the dominant allocation: SSSP keeps a handful of length-`n`
/// working arrays (distances, heap, visited, parents) at the largest size.
fn run_table4(quick: bool) -> u64 {
    let sizes: Vec<usize> = if quick {
        vec![64, 256, 1024]
    } else {
        vec![64, 256, 1024, 4096]
    };
    let n_max = *sizes.iter().max().expect("sizes is non-empty") as u64;
    println!("\n=== Table 4: SSSP ===");
    println!(
        "{:<18}{:>7}{:>10}{:>10}{:>12}{:>10}{:>10}{:>10}",
        "family", "n", "T13-ours", "stretch", "KS20-sqrt", "CHLP21", "AHK20", "AG21"
    );
    let rows = table4_rows(
        &[
            GraphFamily::Grid2D,
            GraphFamily::ErdosRenyi,
            GraphFamily::Path,
        ],
        &sizes,
        0xDEAD,
    );
    for r in &rows {
        println!(
            "{:<18}{:>7}{:>10}{:>10.3}{:>12}{:>10}{:>10}{:>10}",
            r.family,
            r.n,
            r.theorem13,
            r.theorem13_stretch,
            r.ks20_sqrt_n,
            r.chlp21,
            r.ahk20,
            r.ag21
        );
    }
    write_json("table4_sssp", &rows);
    n_max * 8 * 4
}

/// Returns the dominant allocation: the `β = 1` point runs `k = n` sources,
/// i.e. a full `n × n` label matrix plus the exact verification rows.
fn run_figure1(quick: bool) -> u64 {
    let n = if quick { 512 } else { 1024 };
    let betas = [0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0, 1.0];
    println!("\n=== Figure 1: k-SSP landscape (k = n^beta, n = {n}) ===");
    println!(
        "{:<8}{:>8}{:>12}{:>10}{:>12}{:>12}{:>12}",
        "beta", "k", "new(T14)", "delta", "prior", "prior-delta", "lower-bnd"
    );
    let rows = figure1_rows(n, &betas, 0xF16);
    for r in &rows {
        println!(
            "{:<8.3}{:>8}{:>12}{:>10.3}{:>12}{:>12.3}{:>12}",
            r.beta,
            r.k,
            r.new_algorithm,
            r.new_delta,
            r.prior_algorithm,
            r.prior_delta,
            r.lower_bound
        );
    }
    write_json("figure1_kssp", &rows);
    2 * (n as u64).pow(2) * 8
}

/// Returns the dominant allocation: the exact `NqOracle` ball profile on the
/// highest-diameter family (`n` nodes × up to `n` profile entries).
fn run_appendix_b(quick: bool) -> u64 {
    let n = if quick { 512 } else { 2048 };
    let ks: Vec<u64> = vec![16, 64, 256, 1024, 4096];
    println!("\n=== Appendix B / Theorems 15-17: NQ_k on special families (n ~ {n}) ===");
    println!(
        "{:<12}{:>7}{:>6}{:>7}{:>10}{:>11}  formula",
        "family", "n", "D", "k", "measured", "predicted"
    );
    let rows = appendix_b_rows(n, &ks, 0xAB);
    for r in &rows {
        println!(
            "{:<12}{:>7}{:>6}{:>7}{:>10}{:>11.2}  {}",
            r.family, r.n, r.diameter, r.k, r.measured, r.predicted, r.formula
        );
    }
    write_json("appendix_b_nq", &rows);
    (n as u64).pow(2) * 8
}

/// Returns the dominant allocation: the largest cell's exact `n × n` distance
/// matrix (the memory wall the scale tier exists to avoid).
///
/// Every cell is a *shootout*: each registry algorithm (optionally filtered
/// by `--algo`) runs on the same instance and is printed next to the same
/// lower-bound witness.  A typed registry error (unknown name, empty
/// selection) exits with code 2 and the usage string.
fn run_sweep(quick: bool, algo: Option<&[String]>) -> u64 {
    let config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::full()
    };
    let n_max = *config.sizes.iter().max().expect("sizes is non-empty") as u64;
    println!(
        "\n=== Scaling sweep: algorithm shootout vs. per-instance lower bound ({} families x {} sizes x {} (lambda, gamma) points) ===",
        GraphFamily::all().len(),
        config.sizes.len(),
        config.points.len()
    );
    let rows = match sweep_rows_with(GraphFamily::all(), &config, algo) {
        Ok(rows) => rows,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "{:<18}{:>6} {:<14}{:>6}{:>7}{:>7}{:>10}{:>12}{:>7}{:>8}",
        "family", "n", "point", "gamma", "k", "NQ_k", "diss-LB", "sssp(T13)", "kssp-k", "kssp-LB"
    );
    for r in &rows {
        println!(
            "{:<18}{:>6} {:<14}{:>6}{:>7}{:>7}{:>10.2}{:>7}/{:<4.2}{:>7}{:>8}",
            r.family,
            r.n,
            r.point,
            r.gamma_msgs,
            r.k,
            r.nq_k,
            r.dissemination_lower_bound,
            r.sssp_rounds,
            r.sssp_ratio,
            r.kssp_k,
            r.kssp_lower_bound
        );
        let diss: Vec<String> = r
            .dissemination
            .iter()
            .map(|c| format!("{}={} ({:.2}x)", c.algorithm, c.rounds, c.ratio))
            .collect();
        let ks: Vec<String> = r
            .kssp
            .iter()
            .map(|c| {
                format!(
                    "{}={} ({:.2}x, stretch {:.2})",
                    c.algorithm, c.rounds, c.ratio, c.stretch
                )
            })
            .collect();
        if !diss.is_empty() {
            println!("    diss: {}", diss.join("  "));
        }
        if !ks.is_empty() {
            println!("    kssp: {}", ks.join("  "));
        }
    }
    write_json("sweep_scaling", &rows);
    n_max * n_max * 8
}

/// Re-reads the shootout artifact this run just wrote (or a baseline copy CI
/// diffs against) and fails loudly when its schema is corrupt.  Returns the
/// number of gate failures (0 or 1), counted like a regressed target under
/// `--strict`.
fn gate_sweep_artifact(artifact_text: Option<&str>, strict: bool) -> usize {
    let annotation = if strict { "error" } else { "warning" };
    let fail = |message: String| -> usize {
        println!("::{annotation} title=sweep artifact::{message}");
        if strict {
            println!("[regression gate] sweep_scaling.json failed validation (--strict: failing the run)");
            1
        } else {
            println!("[regression gate] sweep_scaling.json failed validation (warn-only)");
            0
        }
    };
    match artifact_text {
        None => fail("results/sweep_scaling.json is missing or unreadable".to_string()),
        Some(text) => match validate_sweep_artifact(text) {
            Ok(()) => {
                println!("[regression gate] sweep_scaling.json shootout schema ok");
                0
            }
            Err(err) => fail(format!("malformed shootout artifact: {err}")),
        },
    }
}

/// The million-node scale tier (`sweep --scale`): streaming generators,
/// row-streamed distances and sampled `NQ` witnesses.  Returns the exact
/// per-cell allocation maximum the rows record (no formula needed here — the
/// scale tier tracks its own arithmetic).
fn run_sweep_scale(quick: bool) -> u64 {
    let config = if quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::full()
    };
    println!(
        "\n=== Scale tier: streamed sweep at n up to {} ({} families x {} sizes, |S| = {} sources, {} NQ samples) ===",
        config.sizes.iter().max().copied().unwrap_or(0),
        config.families.len(),
        config.sizes.len(),
        config.sources,
        config.nq_samples
    );
    println!(
        "{:<14}{:>9}{:>11}{:>6}{:>8}{:>7}{:>7}{:>9}{:>11}{:>10}{:>8}{:>9}{:>8}{:>8}{:>9}{:>10}",
        "family",
        "n",
        "m",
        "gamma",
        "NQ-est",
        "conf",
        "exact",
        "diss-rnd",
        "diss-LB",
        "ratio",
        "k-rnds",
        "k-LB",
        "ratio",
        "stretch",
        "peakMiB",
        "rows/n2"
    );
    let rows = scale_rows(&config);
    for r in &rows {
        let full_matrix = (r.n as f64) * (r.n as f64) * 8.0;
        println!(
            "{:<14}{:>9}{:>11}{:>6}{:>8}{:>7.3}{:>7}{:>9}{:>11.2}{:>10.2}{:>8}{:>9}{:>8.2}{:>8.3}{:>9.1}{:>10.6}",
            r.family,
            r.n,
            r.m,
            r.gamma_msgs,
            r.nq_estimate,
            r.nq_confidence,
            r.nq_exact.map_or_else(|| "-".to_string(), |v| v.to_string()),
            r.dissemination_modeled_rounds,
            r.dissemination_lower_bound,
            r.dissemination_ratio,
            r.kssp_rounds,
            r.kssp_lower_bound,
            r.kssp_ratio,
            r.kssp_stretch_worst,
            r.peak_mem_bytes as f64 / (1024.0 * 1024.0),
            r.distance_rows_mem_bytes as f64 / full_matrix
        );
    }
    write_json("sweep_scale", &rows);
    rows.iter().map(|r| r.peak_mem_bytes).max().unwrap_or(0)
}

/// The serving tier: build a `DistanceOracle` once, answer batched
/// point-to-point queries, record latency percentiles (telemetry, not
/// diffed) and deterministic answer digests (diffed across pool widths).
/// Returns the oracle's resident bytes as the dominant allocation.
fn run_oracle(quick: bool) -> u64 {
    let config = if quick {
        OracleBenchConfig::quick()
    } else {
        OracleBenchConfig::full()
    };
    println!(
        "\n=== Oracle serving: {}x{} weighted grid, {} batches x {} queries ===",
        config.dims.0, config.dims.1, config.batches, config.batch_size
    );
    let (latency, answers) = oracle_bench_rows(&config);
    println!(
        "{:<10}{:>8}{:>10}{:>10}{:>12}{:>12}{:>12}{:>14}",
        "n", "m", "landmarks", "build-ms", "p50-us", "p90-us", "p99-us", "queries/s"
    );
    println!(
        "{:<10}{:>8}{:>10}{:>10.1}{:>12.1}{:>12.1}{:>12.1}{:>14.0}",
        latency.n,
        latency.m,
        latency.landmarks,
        latency.build_ms,
        latency.p50_us,
        latency.p90_us,
        latency.p99_us,
        latency.queries_per_sec
    );
    write_json("oracle_queries", &latency);
    write_json("oracle_answers", &answers);
    latency.memory_bytes
}

/// Returns the dominant allocation: per-node mailboxes holding `O(log n)`
/// in-flight tokens (payload + retry bookkeeping) at the largest size.
fn run_faults(quick: bool) -> u64 {
    let config = if quick {
        FaultSweepConfig::quick()
    } else {
        FaultSweepConfig::full()
    };
    let n_max = *config.sizes.iter().max().expect("sizes is non-empty") as u64;
    let log_n = (n_max.max(2) as f64).log2().ceil() as u64;
    let families = GraphFamily::core_families();
    println!(
        "\n=== Fault sweep: degradation factors under a seeded adversary ({} families x {} sizes x {} profiles) ===",
        families.len(),
        config.sizes.len(),
        config.profiles.len()
    );
    println!(
        "{:<14}{:>6} {:<9}{:>6}{:>6}{:>6}{:>6} {:>5}{:>9}{:>8}{:>9}{:>6}{:>9}{:>8}{:>9}",
        "family",
        "n",
        "profile",
        "drop",
        "dup",
        "delay",
        "crash",
        "ok",
        "ack-rnds",
        "ack-deg",
        "ack-msgx",
        "k",
        "T1-rnds",
        "T1-deg",
        "T1-msgx"
    );
    let rows = fault_sweep_rows(families, &config);
    for r in &rows {
        println!(
            "{:<14}{:>6} {:<9}{:>6.2}{:>6.2}{:>6.2}{:>6.2} {:>5}{:>9}{:>8.2}{:>9.2}{:>6}{:>9}{:>8.2}{:>9.2}",
            r.family,
            r.n,
            r.profile,
            r.drop_prob,
            r.duplicate_prob,
            r.delay_prob,
            r.crash_prob,
            if r.ack_completed { "yes" } else { "NO" },
            r.ack_rounds,
            r.ack_degradation,
            r.ack_message_overhead,
            r.k,
            r.diss_rounds,
            r.diss_degradation,
            r.diss_message_overhead
        );
    }
    write_json("sweep_faults", &rows);
    n_max * log_n * 16
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let quick = cli.quick;
    let algo = cli.algo.clone();

    let timings = match cli.target.as_str() {
        "table1" => vec![timed("table1", || run_table1(quick))],
        "table2" => vec![timed("table2", || run_table2(quick))],
        "table3" => vec![timed("table3", || run_table3(quick))],
        "table4" => vec![timed("table4", || run_table4(quick))],
        "figure1" => vec![timed("figure1", || run_figure1(quick))],
        "appendix-b" => vec![timed("appendix-b", || run_appendix_b(quick))],
        "sweep" if cli.scale => vec![timed("scale", || run_sweep_scale(quick))],
        "sweep" => vec![timed("sweep", || run_sweep(quick, algo.as_deref()))],
        "faults" => vec![timed("faults", || run_faults(quick))],
        "oracle" => vec![timed("oracle", || run_oracle(quick))],
        "all" => vec![
            timed("table1", || run_table1(quick)),
            timed("table2", || run_table2(quick)),
            timed("table3", || run_table3(quick)),
            timed("table4", || run_table4(quick)),
            timed("figure1", || run_figure1(quick)),
            timed("appendix-b", || run_appendix_b(quick)),
            timed("sweep", || run_sweep(quick, None)),
            timed("faults", || run_faults(quick)),
            timed("oracle", || run_oracle(quick)),
        ],
        other => {
            eprintln!("unknown target '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    };
    let total_wall_ms = timings.iter().map(|t| t.wall_ms).sum();
    let record = BenchRecord {
        schema: "hybrid-bench-baseline/v1",
        quick,
        threads: rayon::current_num_threads(),
        targets: timings,
        total_wall_ms,
    };
    record.write(cli.target == "all");
    if cli.check_regression {
        let mut regressed = check_regression(&record, cli.strict);
        // The shootout artifact is part of the gated contract: a malformed
        // sweep_scaling.json (however it got that way) must fail loudly.
        if cli.target == "all" || (cli.target == "sweep" && !cli.scale) {
            regressed += gate_sweep_artifact(
                fs::read_to_string(Path::new("results/sweep_scaling.json"))
                    .ok()
                    .as_deref(),
                cli.strict,
            );
        }
        if cli.strict && regressed > 0 {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_to_all() {
        let cli = parse_args(&[]).unwrap();
        assert_eq!(cli.target, "all");
        assert!(!cli.quick && !cli.check_regression && !cli.strict);
    }

    #[test]
    fn parses_target_and_flags_in_any_order() {
        let cli = parse_args(&args(&[
            "--quick",
            "sweep",
            "--check-regression",
            "--strict",
        ]))
        .unwrap();
        assert_eq!(cli.target, "sweep");
        assert!(cli.quick && cli.check_regression && cli.strict);
    }

    #[test]
    fn strict_implies_the_regression_gate() {
        // `--strict` alone must not be a silent no-op.
        let cli = parse_args(&args(&["all", "--strict"])).unwrap();
        assert!(cli.strict && cli.check_regression);
    }

    #[test]
    fn rejects_unknown_flags_with_usage() {
        // The motivating bug: `--qiuck` used to be silently ignored and the
        // slow full-size suite ran instead.
        let err = parse_args(&args(&["table1", "--qiuck"])).unwrap_err();
        assert!(err.contains("unknown flag '--qiuck'"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        assert!(parse_args(&args(&["--check-regresion"])).is_err());
    }

    #[test]
    fn scale_is_accepted_on_the_sweep_target_only() {
        let cli = parse_args(&args(&["sweep", "--scale", "--quick"])).unwrap();
        assert!(cli.scale && cli.quick);
        assert_eq!(cli.target, "sweep");
        // On any other target (including the implicit `all`) the flag would
        // be a silent no-op, so it is rejected like an unknown flag.
        let err = parse_args(&args(&["table1", "--scale"])).unwrap_err();
        assert!(err.contains("--scale applies to the sweep target"), "{err}");
        let err = parse_args(&args(&["--scale"])).unwrap_err();
        assert!(err.contains("target is 'all'"), "{err}");
    }

    #[test]
    fn algo_filter_parses_both_spellings_on_sweep_only() {
        let cli = parse_args(&args(&["sweep", "--algo", "theorem1,schneider"])).unwrap();
        assert_eq!(
            cli.algo,
            Some(vec!["theorem1".to_string(), "schneider".to_string()])
        );
        let cli = parse_args(&args(&["sweep", "--algo=det-broadcast"])).unwrap();
        assert_eq!(cli.algo, Some(vec!["det-broadcast".to_string()]));
        // Empty value parses to an empty selection — the registry turns that
        // into the typed EmptyRegistry error downstream.
        let cli = parse_args(&args(&["sweep", "--algo="])).unwrap();
        assert_eq!(cli.algo, Some(Vec::new()));
        // Missing value and wrong targets are CLI errors (exit 2 + usage).
        let err = parse_args(&args(&["sweep", "--algo"])).unwrap_err();
        assert!(err.contains("--algo requires a value"), "{err}");
        let err = parse_args(&args(&["table1", "--algo=theorem1"])).unwrap_err();
        assert!(
            err.contains("--algo applies to the sweep shootout"),
            "{err}"
        );
        let err = parse_args(&args(&["sweep", "--scale", "--algo=theorem1"])).unwrap_err();
        assert!(
            err.contains("--algo applies to the sweep shootout"),
            "{err}"
        );
    }

    #[test]
    fn sweep_artifact_gate_counts_malformed_artifacts_under_strict() {
        // Missing artifact.
        assert_eq!(gate_sweep_artifact(None, false), 0);
        assert_eq!(gate_sweep_artifact(None, true), 1);
        // Structurally broken artifact (no shootout columns).
        let junk = r#"[{"family": "path", "n": 64}]"#;
        assert_eq!(gate_sweep_artifact(Some(junk), false), 0);
        assert_eq!(gate_sweep_artifact(Some(junk), true), 1);
        // A well-formed row passes: three contenders per shootout column.
        let good = r#"[{"family":"path","dissemination_lower_bound":1.0,
            "dissemination":[
              {"algorithm":"theorem1","ratio":1.0},
              {"algorithm":"det-broadcast","ratio":2.0},
              {"algorithm":"sqrt-k-baseline","ratio":3.0}],
            "kssp_lower_bound":1,
            "kssp":[
              {"algorithm":"theorem14","ratio":1.5},
              {"algorithm":"theorem14-proxy","ratio":1.8},
              {"algorithm":"schneider","ratio":9.0}]}]"#;
        assert_eq!(gate_sweep_artifact(Some(good), true), 0);
    }

    #[test]
    fn rejects_surplus_positional_arguments() {
        let err = parse_args(&args(&["table1", "table2"])).unwrap_err();
        assert!(err.contains("unexpected argument 'table2'"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn baseline_reader_extracts_quick_flag_and_targets() {
        let json = r#"{"quick": true, "targets": [
            {"target": "table1", "wall_ms": 10.0},
            {"target": "sweep", "wall_ms": 20.0}
        ]}"#;
        let parsed: RecordedBench = serde_json::from_str(json).unwrap();
        assert!(parsed.quick);
        let targets: Vec<(&str, f64)> = parsed
            .targets
            .iter()
            .map(|t| (t.target.as_str(), t.wall_ms))
            .collect();
        assert_eq!(targets, vec![("table1", 10.0), ("sweep", 20.0)]);
        // The committed baseline, with its extra keys, reads as it is.
        let committed: RecordedBench =
            serde_json::from_str(include_str!("../../../../BENCH_baseline.json")).unwrap();
        assert!(committed.quick);
        assert!(committed.targets.iter().any(|t| t.target == "sweep"));
        // Text that is not a bench record takes the "cannot compare" path.
        let rec = record(vec![("table1", 1.0)]);
        assert_eq!(gate_regressions(&rec, Some("not json"), false), 0);
        assert_eq!(gate_regressions(&rec, Some("not json"), true), 1);
    }

    fn record(targets: Vec<(&'static str, f64)>) -> BenchRecord {
        let targets: Vec<TargetTiming> = targets
            .into_iter()
            .map(|(target, wall_ms)| TargetTiming {
                target,
                wall_ms,
                peak_mem_bytes: 0,
            })
            .collect();
        BenchRecord {
            schema: "hybrid-bench-baseline/v1",
            quick: true,
            threads: 1,
            total_wall_ms: targets.iter().map(|t| t.wall_ms).sum(),
            targets,
        }
    }

    const BASELINE: &str = r#"{"quick": true, "targets": [
        {"target": "table1", "wall_ms": 10.0},
        {"target": "sweep", "wall_ms": 20.0}
    ]}"#;

    #[test]
    fn gate_counts_breaches_of_the_tolerance() {
        // table1 limit = 2*10 + 100 = 120 ms; sweep limit = 140 ms.
        let rec = record(vec![("table1", 500.0), ("sweep", 30.0)]);
        assert_eq!(gate_regressions(&rec, Some(BASELINE), false), 1);
        assert_eq!(gate_regressions(&rec, Some(BASELINE), true), 1);
        let within = record(vec![("table1", 119.0), ("sweep", 139.0)]);
        assert_eq!(gate_regressions(&within, Some(BASELINE), true), 0);
    }

    #[test]
    fn strict_gate_fails_targets_missing_a_baseline_entry() {
        let rec = record(vec![("brand-new-target", 1.0)]);
        // Warn-only: an ungated target is reported but not counted.
        assert_eq!(gate_regressions(&rec, Some(BASELINE), false), 0);
        // Strict (CI): new targets must be gated from day one.
        assert_eq!(gate_regressions(&rec, Some(BASELINE), true), 1);
    }

    #[test]
    fn strict_gate_fails_when_the_comparison_cannot_run() {
        let rec = record(vec![("table1", 1.0)]);
        // Missing baseline file.
        assert_eq!(gate_regressions(&rec, None, false), 0);
        assert_eq!(gate_regressions(&rec, None, true), 1);
        // quick-flag mismatch (baseline quick=false vs run quick=true).
        let full = r#"{"quick": false, "targets": [{"target": "table1", "wall_ms": 10.0}]}"#;
        assert_eq!(gate_regressions(&rec, Some(full), false), 0);
        assert_eq!(gate_regressions(&rec, Some(full), true), 1);
        // Unparsable baseline.
        let junk = r#"{"quick": true, "targets": []}"#;
        assert_eq!(gate_regressions(&rec, Some(junk), false), 0);
        assert_eq!(gate_regressions(&rec, Some(junk), true), 1);
    }
}
