//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <shootout|oracle-serve|engine|scale> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of stdout,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.  A
//! traced run also writes its spans to `.bench_out/spans-<workload>.jsonl`
//! under the working directory (the next traced run of the workload
//! overwrites it).  Exits 1 if any output check failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::{run, Options, Size};

const USAGE: &str = "usage: perfbench --workload <shootout|oracle-serve|engine|scale> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be a positive number".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        perfbench::THREADS
    );
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name} = {value} {unit}");
    }
    for line in &report.notes {
        eprintln!("  {line}");
    }
    if let Some(spans) = &report.spans_jsonl {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}.jsonl", opts.workload));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
