//! Tiny-size smoke runs of every workload: each prints exactly the metrics
//! `BENCHMARK.json` names for its mode, passes its own output checks, and is
//! deterministic in its seed.

use perfbench::{run, Options, Report, Size, WORKLOADS};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::value_from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    let Some(Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("bad name in `{key}`: {other:?}"),
        })
        .collect()
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.02,
        trace,
        size: Size::Tiny,
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn metric_names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

#[test]
fn workloads_match_benchmark_json() {
    assert_eq!(names(&benchmark_json(), "workloads"), WORKLOADS);
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    for w in WORKLOADS {
        let plain = tiny(w, 1, false);
        assert!(plain.correct, "{w}: checks failed: {:?}", plain.notes);
        assert_eq!(metric_names(&plain), end_to_end, "{w}: end-to-end metrics");
        for (n, v, _) in &plain.metrics {
            assert!(v.is_finite() && *v > 0.0, "{w}: {n} = {v}");
        }
        let line: Value = serde_json::value_from_str(&plain.json()).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));

        let traced = tiny(w, 1, true);
        assert!(
            traced.correct,
            "{w}: traced checks failed: {:?}",
            traced.notes
        );
        assert_eq!(metric_names(&traced), per_layer, "{w}: per-layer metrics");
        assert!(traced.spans_jsonl.as_deref().is_some_and(|s| !s.is_empty()));
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_inputs() {
    for w in WORKLOADS {
        let a = tiny(w, 7, false);
        let b = tiny(w, 7, false);
        let c = tiny(w, 8, false);
        assert_eq!(a.input_digest, b.input_digest, "{w}: inputs");
        assert_eq!(a.output_digest, b.output_digest, "{w}: outputs");
        assert_ne!(
            a.input_digest, c.input_digest,
            "{w}: another seed, same inputs"
        );
    }
}
