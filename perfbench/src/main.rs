//! perfbench — the end-to-end serving benchmark of `traj-serve`.
//!
//! ```text
//! perfbench --workload <predict_large|batch_short|ingest_wal|all> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` starts a fresh server process (the default
//! `ServerConfig`) and drives it over loopback HTTP from a closed loop of
//! two keep-alive connections, checking every response against a
//! reference computed through the public API beforehand. `--trace 1`
//! replays the same requests in-process with a span around each layer
//! call and prints the per-layer table. The last line of standard output
//! is a JSON summary; the exit code is non-zero when any output check
//! failed. `perfbench serve …` is the server child the benchmark starts
//! itself.

mod client;
mod load;
mod replay;
mod server;
mod stats;
mod trace;
mod workload;

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use traj_serve::batch::BatchConfig;
use workload::{Fixture, Plan, Workload};

/// Scratch and result files, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";
/// Fresh server processes per end-to-end run; each metric is the median
/// over them, `setup_s` included.
const SERVERS: usize = 5;
/// Untimed load on each server before its measured share.
const WARMUP: Duration = Duration::from_millis(500);
/// Spans written to the chrome-trace file (whole requests, from the
/// first); statistics use every span.
const TRACE_FILE_SPANS: usize = 100_000;
/// Consecutive replayed requests sharing one tracing mode; blocks
/// alternate traced / untraced.
const TRACE_BLOCK: u64 = 8;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut corrupt_reference = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            // Test hook: the run must then fail its output checks.
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        corrupt_reference,
    })
}

/// Run context recorded with every result.
#[derive(Serialize, Clone)]
struct Meta {
    nproc: usize,
    git_revision: String,
    rustc: String,
    seed: u64,
    run_seconds: f64,
    trace: bool,
}

impl Meta {
    fn collect(args: &Args) -> Meta {
        Meta {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_revision: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            seed: args.seed,
            run_seconds: args.seconds,
            trace: args.trace,
        }
    }
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[derive(Serialize, Clone)]
struct Metric {
    value: f64,
    unit: String,
}

/// What one workload run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Phase name → outcome counts.
    phases: Vec<(&'static str, load::Counts)>,
    /// Reported metrics, in print order.
    metrics: Vec<(String, Metric)>,
    /// Printed alongside the metrics, not part of the JSON summary.
    extra: Vec<(String, Metric)>,
}

impl Outcome {
    fn new(phases: Vec<(&'static str, load::Counts)>) -> Outcome {
        let attempted = phases.iter().map(|(_, c)| c.attempted).sum();
        let failed = phases.iter().map(|(_, c)| c.failed()).sum();
        Outcome {
            attempted,
            failed,
            phases,
            metrics: Vec::new(),
            extra: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), metric(value, unit)));
    }
}

fn metric(value: f64, unit: &str) -> Metric {
    Metric {
        value: if value.is_finite() { value } else { 0.0 },
        unit: unit.to_owned(),
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match serve_child(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <predict_large|batch_short|ingest_wal|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_child(argv: &[String]) -> Result<(), String> {
    let mut artifact = None;
    let mut addr = None;
    let mut wal_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--artifact" => artifact = Some(PathBuf::from(value)),
            "--addr" => addr = Some(value.clone()),
            "--wal-dir" => wal_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    server::run_child(
        &artifact.ok_or("--artifact is required")?,
        &addr.ok_or("--addr is required")?,
        wal_dir.as_deref(),
    )
}

/// Runs every requested workload; `Ok(false)` when an output check
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let work = Path::new(WORK_DIR);
    let results_dir = work.join("results");
    std::fs::create_dir_all(&results_dir)
        .map_err(|e| format!("creating {}: {e}", results_dir.display()))?;
    let scratch = ScratchDir(work.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("creating scratch: {e}"))?;
    let meta = Meta::collect(args);
    println!(
        "# perfbench seed={} seconds={} trace={} nproc={} git={} rustc={:?}",
        meta.seed,
        meta.run_seconds,
        u8::from(meta.trace),
        meta.nproc,
        meta.git_revision,
        meta.rustc
    );

    let started = Instant::now();
    let fixture = Fixture::build(&scratch.0)?;
    eprintln!(
        "perfbench: cohort and model ready in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let single = args.workloads.len() == 1;
    let mut summary = Summary {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    for &workload in &args.workloads {
        let dir = scratch.0.join(workload.name());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut plan = Plan::build(workload, &fixture, args.seed, &dir)?;
        if args.corrupt_reference {
            plan.corrupt_reference();
        }
        let outcome = if args.trace {
            run_traced(workload, &fixture, &plan, &dir, args, &results_dir)?
        } else {
            run_http(workload, &fixture, &plan, &dir, args)?
        };
        print_outcome(workload, &outcome);
        write_result(&results_dir, workload, &meta, &outcome)?;
        summary.correct &= outcome.failed == 0;
        summary.attempted += outcome.attempted;
        summary.failed += outcome.failed;
        for (name, m) in outcome.metrics {
            let key = if single {
                name
            } else {
                format!("{}.{name}", workload.name())
            };
            summary.metrics.insert(key, m);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let line = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(summary.correct)
}

#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// One server process's share of the end-to-end run.
struct ServerRun {
    setup_s: f64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    cpu_us_per_req: f64,
    peak_rss_mb: f64,
    result: load::LoadResult,
}

/// Launches a fresh server (on a fresh copy of the durable state, if
/// any) and drives it for `measure` after the warm-up.
fn measure_server(
    workload: Workload,
    fixture: &Fixture,
    plan: &Plan,
    state: Option<&Path>,
    measure: Duration,
) -> Result<ServerRun, String> {
    let server = server::ServerProcess::launch(&fixture.artifact_path, state)?;
    let mut probe_error = None;
    let result = load::run(
        server.addr(),
        plan,
        workload.path(),
        WARMUP,
        measure,
        BatchConfig::default().slo,
        || {
            server.cpu_s().unwrap_or_else(|e| {
                probe_error = Some(e);
                0.0
            })
        },
    );
    let peak_rss_mb = server.peak_rss_mb()?;
    let setup_s = server.setup_s;
    server.stop();
    if let Some(e) = probe_error {
        return Err(e);
    }
    Ok(ServerRun {
        setup_s,
        rps: result.measured.ok as f64 / result.elapsed_s,
        p50_ms: stats::quantile(&result.latencies_ms, 0.50),
        p99_ms: stats::quantile(&result.latencies_ms, 0.99),
        cpu_us_per_req: result.probe_delta * 1e6 / result.measured.ok.max(1) as f64,
        peak_rss_mb,
        result,
    })
}

/// The end-to-end run: [`SERVERS`] fresh server processes in turn, each
/// driven by the closed loop for an equal share of the run; every metric
/// is the median over the servers.
fn run_http(
    workload: Workload,
    fixture: &Fixture,
    plan: &Plan,
    dir: &Path,
    args: &Args,
) -> Result<Outcome, String> {
    let share = Duration::from_secs_f64(args.seconds / SERVERS as f64);
    let mut runs = Vec::with_capacity(SERVERS);
    for k in 0..SERVERS {
        let state = fresh_state(plan, dir, &format!("wal-{k}"))?;
        let run = measure_server(workload, fixture, plan, state.as_deref(), share)?;
        eprintln!(
            "perfbench: server {k}: setup {:.3} s, {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms, {:.0} us cpu/req",
            run.setup_s, run.rps, run.p50_ms, run.p99_ms, run.cpu_us_per_req
        );
        runs.push(run);
        if let Some(state) = state {
            let _ = std::fs::remove_dir_all(state);
        }
    }
    let median =
        |f: fn(&ServerRun) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<f64>>());
    let mut warmup = load::Counts::default();
    let mut measured = load::Counts::default();
    let mut slo_ok = 0;
    let mut samples = 0;
    for r in &runs {
        warmup.add(&r.result.warmup);
        measured.add(&r.result.measured);
        slo_ok += r.result.slo_ok;
        samples += r.result.latencies_ms.len();
    }
    let attempted = measured.attempted.max(1) as f64;
    let mut out = Outcome::new(vec![("warmup", warmup), ("measure", measured)]);
    out.metric("setup_s", median(|r| r.setup_s), "s");
    out.metric("rps", median(|r| r.rps), "1/s");
    out.metric("p50_ms", median(|r| r.p50_ms), "ms");
    out.metric("p99_ms", median(|r| r.p99_ms), "ms");
    out.metric("slo_ok_frac", slo_ok as f64 / attempted, "frac");
    out.metric("cpu_us_per_req", median(|r| r.cpu_us_per_req), "us");
    out.metric("peak_rss_mb", median(|r| r.peak_rss_mb), "MiB");
    let (items, item) = workload.items_per_request();
    out.extra.push((
        "fail_frac".to_owned(),
        metric(measured.failed() as f64 / attempted, "frac"),
    ));
    out.extra.push((
        format!("{item}s_per_s"),
        metric(median(|r| r.rps) * items as f64, "1/s"),
    ));
    out.extra.push((
        "latency_samples".to_owned(),
        metric(samples as f64, "count"),
    ));
    Ok(out)
}

/// A fresh copy of the plan's pre-filled durable state under `dir`, or
/// `None` for stateless workloads.
fn fresh_state(plan: &Plan, dir: &Path, name: &str) -> Result<Option<PathBuf>, String> {
    match plan {
        Plan::Ingest { wal_template, .. } => {
            let copy = dir.join(name);
            server::copy_dir(wal_template, &copy)?;
            Ok(Some(copy))
        }
        Plan::Stateless { .. } => Ok(None),
    }
}

/// The traced run: a short HTTP phase for the end-to-end p50, a timing
/// pass over `ServerHandle::dispatch`, then the span-instrumented replay.
fn run_traced(
    workload: Workload,
    fixture: &Fixture,
    plan: &Plan,
    dir: &Path,
    args: &Args,
    results_dir: &Path,
) -> Result<Outcome, String> {
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);

    // End-to-end p50 over HTTP.
    let http_state = fresh_state(plan, dir, "wal-http")?;
    let http = measure_server(workload, fixture, plan, http_state.as_deref(), quarter)?;
    let e2e_p50_us = http.p50_ms * 1e3;

    // The real dispatch, in-process.
    let dispatch_state = fresh_state(plan, dir, "wal-dispatch")?;
    let (dispatch_us, dispatch_counts) =
        replay::dispatch_pass(workload, plan, fixture, dispatch_state.as_deref(), quarter)?;
    let dispatch_p50_us = stats::median(&dispatch_us);

    // The layer-by-layer replay.
    let replay_state = fresh_state(plan, dir, "wal-replay")?;
    let mut replayer = replay::Replayer::new(workload, plan, fixture, replay_state.as_deref())?;
    let wal_before = replayer.wal_totals();
    let end = Instant::now() + quarter * 2;
    while Instant::now() < end {
        let traced = (replayer.replayed / TRACE_BLOCK).is_multiple_of(2);
        replayer.step(traced)?;
    }
    let wal_after = replayer.wal_totals();
    let trace_path = results_dir.join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
    trace::write_chrome_trace(replayer.tracer.spans(), TRACE_FILE_SPANS, &trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!(
        "perfbench: chrome trace written to {}",
        trace_path.display()
    );

    let replay_counts = load::Counts {
        attempted: replayer.replayed,
        ok: replayer.replayed - replayer.wrong,
        wrong: replayer.wrong,
        ..load::Counts::default()
    };
    let mut out = Outcome::new(vec![
        ("http_warmup", http.result.warmup),
        ("http_measure", http.result.measured),
        ("dispatch", dispatch_counts),
        ("replay", replay_counts),
    ]);

    let spans = replayer.tracer.spans();
    let layers = trace::layer_stats(spans);
    let traced_requests = replayer.tracer.traced_roots_ns.len().max(1) as f64;
    let root_total_ns: f64 = replayer.tracer.traced_roots_ns.iter().sum();
    for name in replay::SPANS {
        let s = layers.get(name).cloned().unwrap_or_default();
        out.metric(
            &format!("{name}.calls"),
            s.calls as f64 / traced_requests,
            "count/req",
        );
        out.metric(
            &format!("{name}.p50_us"),
            stats::median(&s.durations_us),
            "us",
        );
        out.metric(
            &format!("{name}.self_share"),
            s.self_ns / root_total_ns,
            "frac",
        );
    }
    let root = layers.get(trace::ROOT).cloned().unwrap_or_default();
    out.metric(
        "trace.unattributed_share",
        root.self_ns / root_total_ns,
        "frac",
    );
    out.metric("trace.root.p50_us", stats::median(&root.durations_us), "us");

    let work = replayer.work;
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    out.metric(
        "serve.registry.predict.rows",
        ratio(work.predict_rows as f64, work.predict_calls),
        "rows/call",
    );
    out.metric(
        "stream.ingest.closes",
        ratio(work.closes as f64, work.ingest_calls),
        "closes/call",
    );
    let (bytes, syncs) = match (wal_before, wal_after) {
        (Some(b), Some(a)) => ((a.0 - b.0) as f64, (a.1 - b.1) as f64),
        _ => (0.0, 0.0),
    };
    out.metric("wal.append.bytes", ratio(bytes, work.appends), "bytes/call");
    out.metric("wal.tick.syncs", ratio(syncs, work.ticks), "syncs/call");
    let per_session = replayer.session_state().map_or(0.0, |(sessions, bytes)| {
        ratio(bytes as f64, sessions as u64)
    });
    out.metric("stream.state_bytes_per_session", per_session, "bytes");

    // Dispatch against the spans that lie inside it.
    let mut inside: BTreeMap<u32, f64> = BTreeMap::new();
    for span in spans {
        if span.parent.is_some() && !replay::OUTSIDE_DISPATCH.contains(&span.name) {
            *inside.entry(span.request).or_default() += span.dur_ns as f64 / 1e3;
        }
    }
    let inside_us: Vec<f64> = inside.into_values().collect();
    out.metric("server.dispatch.p50_us", dispatch_p50_us, "us");
    out.metric(
        "server.unattributed_us",
        dispatch_p50_us - stats::median(&inside_us),
        "us",
    );
    out.metric("transport.p50_us", e2e_p50_us - dispatch_p50_us, "us");
    let untraced = stats::median(&replayer.tracer.untraced_roots_ns);
    let traced = stats::median(&replayer.tracer.traced_roots_ns);
    out.metric("trace.overhead_frac", traced / untraced - 1.0, "frac");
    out.extra
        .push(("e2e.p50_us".to_owned(), metric(e2e_p50_us, "us")));
    out.extra.push((
        "replayed_requests".to_owned(),
        metric(replayer.replayed as f64, "count"),
    ));
    Ok(out)
}

fn print_outcome(workload: Workload, outcome: &Outcome) {
    let (items, item) = workload.items_per_request();
    println!(
        "# {}: {items} {item}(s) per request; {}",
        workload.name(),
        workload.why()
    );
    for (phase, counts) in &outcome.phases {
        println!("# {} phase {phase}: {}", workload.name(), counts.render());
    }
    for (name, m) in outcome.metrics.iter().chain(&outcome.extra) {
        println!(
            "{:<14} {:<42} {:>16.6} {}",
            workload.name(),
            name,
            m.value,
            m.unit
        );
    }
}

#[derive(Serialize)]
struct ResultFile {
    workload: String,
    why: String,
    items_per_request: usize,
    item: String,
    meta: Meta,
    phases: BTreeMap<String, BTreeMap<String, u64>>,
    metrics: BTreeMap<String, Metric>,
}

/// Writes the run's full record under `results/`.
fn write_result(
    dir: &Path,
    workload: Workload,
    meta: &Meta,
    outcome: &Outcome,
) -> Result<(), String> {
    let (items, item) = workload.items_per_request();
    let phases = outcome
        .phases
        .iter()
        .map(|(name, c)| {
            let fields = [
                ("attempted", c.attempted),
                ("ok_2xx", c.ok),
                ("wrong_output", c.wrong),
                ("status_429", c.shed),
                ("other_non_2xx", c.non_2xx),
                ("transport_errors", c.transport),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
            ((*name).to_owned(), fields)
        })
        .collect();
    let file = ResultFile {
        workload: workload.name().to_owned(),
        why: workload.why().to_owned(),
        items_per_request: items,
        item: item.to_owned(),
        meta: meta.clone(),
        phases,
        metrics: outcome
            .metrics
            .iter()
            .chain(&outcome.extra)
            .cloned()
            .collect(),
    };
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        meta.seed,
        u8::from(meta.trace)
    ));
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}
