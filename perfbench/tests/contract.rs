//! The benchmark's own checks: its output matches `BENCHMARK.json`, a
//! corrupted reference fails the run, and the traced run's shares add
//! up. Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml` (training the model is slow in debug builds).

use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct ResultFile {
    why: String,
    items_per_request: usize,
}

#[derive(Deserialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
}

#[derive(Deserialize)]
struct LayerMap {
    layers: BTreeMap<String, LayerEffect>,
}

#[derive(Deserialize)]
struct LayerEffect {
    moves: BTreeMap<String, Vec<String>>,
    moves_less: BTreeMap<String, Vec<String>>,
    predicted_no_change: BTreeMap<String, Vec<String>>,
}

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("reading {full}: {e}"))
}

fn benchmark() -> Benchmark {
    serde_json::from_str(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(list: &[Named]) -> BTreeSet<String> {
    list.iter().map(|n| n.name.clone()).collect()
}

/// Runs the benchmark binary; returns whether it exited 0 and the parsed
/// last line of its standard output.
fn run(args: &[&str]) -> (bool, Summary) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let summary = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "last line is not the summary ({e}):\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), summary)
}

#[test]
fn layer_map_covers_every_per_layer_metric() {
    let bench = benchmark();
    let map: LayerMap =
        serde_json::from_str(&read("layer_map.json")).expect("layer_map.json parses");
    let workloads: BTreeSet<String> = bench.workloads.iter().map(|w| w.name.clone()).collect();
    let end_to_end = names(&bench.end_to_end);
    assert_eq!(
        map.layers.keys().cloned().collect::<BTreeSet<String>>(),
        names(&bench.per_layer)
    );
    for (layer, effect) in &map.layers {
        for group in [
            &effect.moves,
            &effect.moves_less,
            &effect.predicted_no_change,
        ] {
            for (workload, metrics) in group {
                assert!(
                    workloads.contains(workload),
                    "{layer}: unknown workload {workload}"
                );
                for m in metrics {
                    assert!(end_to_end.contains(m), "{layer}: unknown metric {m}");
                }
            }
        }
    }
}

#[test]
fn end_to_end_run_reports_every_end_to_end_metric() {
    let (ok, summary) = run(&[
        "--workload",
        "batch_short",
        "--seed",
        "101",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(ok && summary.correct);
    assert!(summary.attempted > 0);
    assert_eq!(summary.failed, 0);
    assert_eq!(
        summary
            .metrics
            .keys()
            .cloned()
            .collect::<BTreeSet<String>>(),
        names(&benchmark().end_to_end)
    );
    assert!(summary.metrics.values().all(|m| m.value > 0.0));
    let result: ResultFile = serde_json::from_str(
        &std::fs::read_to_string(".perfbench_work/results/batch_short-seed101-trace0.json")
            .expect("result file written"),
    )
    .expect("result file parses");
    let bench = benchmark();
    let listed = bench
        .workloads
        .iter()
        .find(|w| w.name == "batch_short")
        .expect("listed");
    assert_eq!(result.why, listed.why);
    assert_eq!(result.items_per_request, 64);
}

#[test]
fn corrupted_reference_fails_the_run() {
    let (ok, summary) = run(&[
        "--workload",
        "predict_large",
        "--seed",
        "102",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--corrupt-reference",
    ]);
    assert!(!ok, "a run with wrong references must exit non-zero");
    assert!(!summary.correct);
    assert_eq!(summary.failed, summary.attempted);
}

#[test]
fn traced_run_reports_every_layer_metric_with_shares_summing_to_one() {
    let (ok, summary) = run(&[
        "--workload",
        "ingest_wal",
        "--seed",
        "103",
        "--seconds",
        "2",
        "--trace",
        "1",
    ]);
    assert!(ok && summary.correct);
    assert_eq!(
        summary
            .metrics
            .keys()
            .cloned()
            .collect::<BTreeSet<String>>(),
        names(&benchmark().per_layer)
    );
    let shares: f64 = summary
        .metrics
        .iter()
        .filter(|(name, _)| {
            name.ends_with(".self_share") || name.as_str() == "trace.unattributed_share"
        })
        .map(|(_, m)| m.value)
        .sum();
    assert!((shares - 1.0).abs() < 1e-6, "shares sum to {shares}");
    for layer in ["stream.ingest", "wal.append", "wal.tick", "json.decode"] {
        assert!(
            summary.metrics[&format!("{layer}.calls")].value > 0.0,
            "{layer}"
        );
    }
    let trace = std::fs::read_to_string(".perfbench_work/results/trace-ingest_wal-seed103.json")
        .expect("chrome trace written");
    let events: Vec<TraceEvent> = serde_json::from_str(&trace).expect("chrome trace parses");
    assert!(events.iter().any(|e| e.name == "request"));
    assert!(events.iter().any(|e| e.name == "wal.append"));
    assert!(events.iter().all(|e| e.ph == "X" && e.dur >= 0.0));
}

#[derive(Deserialize)]
struct TraceEvent {
    name: String,
    ph: String,
    dur: f64,
}
