//! The traced run's in-process passes: a timing pass over the real
//! `ServerHandle::dispatch`, and a replay of the same requests through
//! each layer's public functions with a span around every call.

use crate::load::Counts;
use crate::trace::Tracer;
use crate::workload::{Fixture, Plan, Workload};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj_features::point_features::PointFeatures;
use traj_features::trajectory_features::features_from_point_features;
use traj_geo::{Timestamp, TrajectoryPoint};
use traj_ml::RowMatrix;
use traj_net::http1::{Poll, RequestParser};
use traj_serve::artifact::MIN_SEGMENT_POINTS;
use traj_serve::batch::{BatchConfig, MicroBatcher, Priority};
use traj_serve::featurize::segment_of_points;
use traj_serve::metrics::ServeMetrics;
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, DurabilityConfig, ServerConfig};
use traj_serve::{LoadedModel, Prediction};
use traj_stream::{StreamConfig, StreamEngine, WalRecord};
use traj_wal::{SnapshotStore, Wal, WalConfig};

/// `traj_net::http1::RequestParser::push` + `poll` on the wire bytes.
pub const PARSE: &str = "net.http1.parse";
/// `serde_json::from_str` into a DTO with the wire shape.
pub const DECODE: &str = "json.decode";
/// `traj_geo::monotonic_len`.
pub const SANITIZE: &str = "geo.sanitize";
/// `PointFeatures::compute`.
pub const POINT_FEATURES: &str = "features.point_features";
/// `features_from_point_features`.
pub const SUMMARY: &str = "features.summary";
/// `LoadedModel::project_scale`.
pub const PROJECT: &str = "serve.registry.project_scale";
/// `LoadedModel::predict_scaled_batch`, called directly on the request's
/// rows. The batcher makes the same call again inside
/// [`ROUND_TRIP`], so this span double-counts model time within the
/// root and is left out of the dispatch comparison.
pub const PREDICT: &str = "serve.registry.predict";
/// `MicroBatcher::submit` of every row until every reply is received.
pub const ROUND_TRIP: &str = "serve.batch.round_trip";
/// `StreamEngine::ingest` with no WAL attached.
pub const INGEST: &str = "stream.ingest";
/// `Wal::append_batch` of the request's `WalRecord` payloads.
pub const WAL_APPEND: &str = "wal.append";
/// `Wal::tick`, which runs the interval fsync policy.
pub const WAL_TICK: &str = "wal.tick";
/// `serde_json::to_string` of a response DTO with the wire shape.
pub const ENCODE: &str = "json.encode";
/// `traj_net::render_response`.
pub const RENDER: &str = "net.http1.render";

/// Every child span, in request order.
pub const SPANS: [&str; 13] = [
    PARSE,
    DECODE,
    SANITIZE,
    POINT_FEATURES,
    SUMMARY,
    PROJECT,
    PREDICT,
    ROUND_TRIP,
    INGEST,
    WAL_APPEND,
    WAL_TICK,
    ENCODE,
    RENDER,
];

/// Child spans whose work `ServerHandle::dispatch` does not contain:
/// HTTP framing happens in the reactor, the WAL tick on the maintenance
/// thread, and the direct model call duplicates the batcher's.
pub const OUTSIDE_DISPATCH: [&str; 4] = [PARSE, RENDER, PREDICT, WAL_TICK];

// ------------------------------------------------------------ wire DTOs

#[derive(Deserialize)]
struct PointDto {
    lat: f64,
    lon: f64,
    t: i64,
}

// The request DTOs mirror the full wire shape; fields the replay does
// not read are still decoded.
#[allow(dead_code)]
#[derive(Deserialize)]
struct PredictRequestDto {
    model: Option<String>,
    points: Vec<PointDto>,
}

#[allow(dead_code)]
#[derive(Deserialize)]
struct BatchRequestDto {
    model: Option<String>,
    segments: Vec<Vec<PointDto>>,
}

#[allow(dead_code)]
#[derive(Deserialize)]
struct IngestRequestDto {
    user: u32,
    model: Option<String>,
    points: Vec<PointDto>,
    flush: Option<bool>,
    idem: Option<u64>,
}

#[derive(Serialize)]
struct PredictResponseDto {
    model: String,
    version: u32,
    class: usize,
    label: String,
    scores: Vec<f64>,
    class_names: Vec<String>,
}

#[derive(Serialize)]
struct BatchItemDto {
    class: Option<usize>,
    label: Option<String>,
    scores: Option<Vec<f64>>,
    error: Option<String>,
}

#[derive(Serialize)]
struct BatchResponseDto {
    model: String,
    version: u32,
    class_names: Vec<String>,
    results: Vec<BatchItemDto>,
}

#[derive(Serialize)]
struct IngestPredictionDto {
    user: u32,
    start_t: i64,
    end_t: i64,
    n_points: usize,
    reason: String,
    exact: bool,
    class: usize,
    label: String,
    scores: Vec<f64>,
}

#[derive(Serialize)]
struct IngestResponseDto {
    model: String,
    version: u32,
    accepted: usize,
    dropped: usize,
    open_points: usize,
    class_names: Vec<String>,
    predictions: Vec<IngestPredictionDto>,
}

fn points_of(dtos: &[PointDto]) -> Vec<TrajectoryPoint> {
    dtos.iter()
        .map(|p| TrajectoryPoint::new(p.lat, p.lon, Timestamp(p.t)))
        .collect()
}

// ------------------------------------------------------------- dispatch pass

/// Times the real `ServerHandle::dispatch` of an in-process server (the
/// default `ServerConfig`, durable on `wal_dir` when given) over the
/// plan's requests for `duration`. Returns per-call µs and outcomes.
pub fn dispatch_pass(
    workload: Workload,
    plan: &Plan,
    fixture: &Fixture,
    wal_dir: Option<&Path>,
    duration: Duration,
) -> Result<(Vec<f64>, Counts), String> {
    let mut registry = ModelRegistry::new();
    registry.load_file(&fixture.artifact_path)?;
    let config = ServerConfig {
        durability: wal_dir.map(DurabilityConfig::new),
        ..ServerConfig::default()
    };
    let mut handle = serve("127.0.0.1:0", registry, config)?;
    let lanes = plan.lanes();
    let mut next = vec![0usize; lanes];
    let mut times_us = Vec::new();
    let mut counts = Counts::default();
    let end = Instant::now() + duration;
    for k in 0.. {
        if Instant::now() >= end {
            break;
        }
        let lane = k % lanes;
        let i = next[lane];
        next[lane] += 1;
        let body = plan.body(lane, i);
        let started = Instant::now();
        let (status, reply) = handle.dispatch("POST", workload.path(), body.as_bytes());
        times_us.push(started.elapsed().as_secs_f64() * 1e6);
        counts.attempted += 1;
        match status {
            200..=299 if plan.check(lane, i, reply.as_bytes()) => counts.ok += 1,
            200..=299 => counts.wrong += 1,
            429 => counts.shed += 1,
            _ => counts.non_2xx += 1,
        }
    }
    handle.stop()?;
    Ok((times_us, counts))
}

// ------------------------------------------------------------------ replay

/// Work counters of the replay (all replayed requests).
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// `predict_scaled_batch` calls and the rows they carried.
    pub predict_calls: u64,
    /// Rows predicted.
    pub predict_rows: u64,
    /// `StreamEngine::ingest` calls.
    pub ingest_calls: u64,
    /// Segments those calls closed.
    pub closes: u64,
    /// `Wal::append_batch` calls.
    pub appends: u64,
    /// `Wal::tick` calls.
    pub ticks: u64,
}

/// The durable side of the ingest replay: an engine recovered from the
/// pre-filled state with the WAL kept detached, and that WAL.
struct Durable {
    engine: StreamEngine,
    wal: Arc<Wal>,
}

/// Replays a plan's requests in-process, one layer call at a time.
pub struct Replayer<'a> {
    workload: Workload,
    plan: &'a Plan,
    model: Arc<LoadedModel>,
    class_names: Vec<String>,
    batcher: MicroBatcher,
    parser: RequestParser,
    durable: Option<Durable>,
    next: Vec<usize>,
    /// The spans.
    pub tracer: Tracer,
    /// Work counters.
    pub work: Work,
    /// Requests whose response disagreed with the reference.
    pub wrong: u64,
    /// Requests replayed.
    pub replayed: u64,
}

impl<'a> Replayer<'a> {
    /// A replayer over `plan`; `wal_dir` (a fresh copy of the pre-filled
    /// state) is required for `ingest_wal`.
    pub fn new(
        workload: Workload,
        plan: &'a Plan,
        fixture: &Fixture,
        wal_dir: Option<&Path>,
    ) -> Result<Replayer<'a>, String> {
        let model = Arc::clone(&fixture.model);
        let metrics = Arc::new(ServeMetrics::new(std::slice::from_ref(
            &model.artifact.name,
        )));
        let durable = match wal_dir {
            Some(dir) => {
                let defaults = DurabilityConfig::new(dir);
                let store = SnapshotStore::open(dir.join("snapshots"))
                    .map_err(|e| format!("opening snapshots: {e}"))?;
                let (wal, _) = Wal::open(WalConfig {
                    dir: dir.join("wal"),
                    segment_bytes: defaults.segment_bytes,
                    fsync: defaults.fsync,
                })
                .map_err(|e| format!("opening wal: {e}"))?;
                let engine = StreamEngine::new(StreamConfig::default());
                traj_stream::recover(&engine, &store, &wal)
                    .map_err(|e| format!("recovering: {e}"))?;
                Some(Durable {
                    engine,
                    wal: Arc::new(wal),
                })
            }
            None => None,
        };
        let reactor = traj_net::ReactorConfig::default();
        Ok(Replayer {
            workload,
            plan,
            class_names: model
                .artifact
                .scheme
                .class_names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            model,
            batcher: MicroBatcher::new(BatchConfig::default(), metrics),
            parser: RequestParser::new(reactor.max_head_bytes, reactor.max_body_bytes),
            durable,
            next: vec![0; plan.lanes()],
            tracer: Tracer::new(),
            work: Work::default(),
            wrong: 0,
            replayed: 0,
        })
    }

    /// Replays the next request (lanes in turn), with child spans when
    /// `traced`. Its encoded response is checked against the reference
    /// after the root span ends.
    pub fn step(&mut self, traced: bool) -> Result<(), String> {
        let k = self.replayed as usize;
        let lane = k % self.next.len();
        let i = self.next[lane];
        self.next[lane] += 1;
        let wire = self.plan.wire(self.workload.path(), lane, i);
        self.tracer.begin_request(self.replayed as u32, traced);
        let (body, agree) = match self.workload {
            Workload::PredictLarge => self.predict(&wire)?,
            Workload::BatchShort => self.predict_batch(&wire)?,
            Workload::IngestWal => self.ingest(&wire)?,
        };
        let out = self
            .tracer
            .span(RENDER, || traj_net::render_response(200, &body, true, None));
        std::hint::black_box(out);
        self.tracer.end_request();
        self.replayed += 1;
        if !agree || !self.plan.check(lane, i, body.as_bytes()) {
            self.wrong += 1;
        }
        Ok(())
    }

    fn parse(&mut self, wire: &[u8]) -> Result<Vec<u8>, String> {
        let parser = &mut self.parser;
        let polled = self.tracer.span(PARSE, || {
            parser.push(wire);
            parser.poll()
        });
        match polled {
            Poll::Ready(request) => Ok(request.body),
            other => Err(format!("replayed request did not parse: {other:?}")),
        }
    }

    fn decode<T: serde::de::DeserializeOwned>(&mut self, body: &[u8]) -> Result<T, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        self.tracer
            .span(DECODE, || serde_json::from_str::<T>(text))
            .map_err(|e| format!("replayed body did not decode: {e}"))
    }

    /// Sanitize check, features and projection of one segment.
    fn featurize(&mut self, points: Vec<TrajectoryPoint>) -> Result<Vec<f64>, String> {
        let t = &mut self.tracer;
        let kept = t.span(SANITIZE, || traj_geo::monotonic_len(&points));
        if kept < MIN_SEGMENT_POINTS {
            return Err(format!("replayed segment has only {kept} usable points"));
        }
        let segment = segment_of_points(points);
        let pf = t.span(POINT_FEATURES, || PointFeatures::compute(&segment));
        let full = t.span(SUMMARY, || features_from_point_features(&pf));
        let model = &self.model;
        t.span(PROJECT, || model.project_scale(&full))
    }

    /// The direct model call, then the batcher round trip of the same
    /// rows. Returns the batcher's predictions and whether both agree.
    fn predict_rows(
        &mut self,
        rows: Vec<Vec<f64>>,
        priority: Priority,
    ) -> Result<(Vec<Prediction>, bool), String> {
        let matrix = RowMatrix::from_rows(&rows);
        let model = &self.model;
        let direct = self
            .tracer
            .span(PREDICT, || model.predict_scaled_batch(&matrix))
            .map_err(|e| e.to_string())?;
        self.work.predict_calls += 1;
        self.work.predict_rows += rows.len() as u64;
        let batcher = &self.batcher;
        let via = self.tracer.span(ROUND_TRIP, || {
            let receivers = rows
                .into_iter()
                .map(|row| batcher.submit(Arc::clone(model), row, priority))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| "batcher shed a replayed row".to_owned())?;
            receivers
                .into_iter()
                .map(|rx| match rx.recv() {
                    Ok(Ok(p)) => Ok(p),
                    Ok(Err(e)) => Err(e.to_string()),
                    Err(_) => Err("batcher hung up".to_owned()),
                })
                .collect::<Result<Vec<Prediction>, String>>()
        })?;
        let agree = direct == via;
        Ok((via, agree))
    }

    fn encode<T: Serialize>(&mut self, response: &T) -> Result<String, String> {
        self.tracer
            .span(ENCODE, || serde_json::to_string(response))
            .map_err(|e| e.to_string())
    }

    fn predict(&mut self, wire: &[u8]) -> Result<(String, bool), String> {
        let body = self.parse(wire)?;
        let dto: PredictRequestDto = self.decode(&body)?;
        let row = self.featurize(points_of(&dto.points))?;
        let (mut predictions, agree) = self.predict_rows(vec![row], Priority::Interactive)?;
        let p = predictions.pop().ok_or("no prediction")?;
        let response = PredictResponseDto {
            model: self.model.artifact.name.clone(),
            version: self.model.artifact.version,
            class: p.class,
            label: p.label,
            scores: p.scores,
            class_names: self.class_names.clone(),
        };
        Ok((self.encode(&response)?, agree))
    }

    fn predict_batch(&mut self, wire: &[u8]) -> Result<(String, bool), String> {
        let body = self.parse(wire)?;
        let dto: BatchRequestDto = self.decode(&body)?;
        let rows = dto
            .segments
            .iter()
            .map(|s| self.featurize(points_of(s)))
            .collect::<Result<Vec<Vec<f64>>, String>>()?;
        let (predictions, agree) = self.predict_rows(rows, Priority::Bulk)?;
        let response = BatchResponseDto {
            model: self.model.artifact.name.clone(),
            version: self.model.artifact.version,
            class_names: self.class_names.clone(),
            results: predictions
                .into_iter()
                .map(|p| BatchItemDto {
                    class: Some(p.class),
                    label: Some(p.label),
                    scores: Some(p.scores),
                    error: None,
                })
                .collect(),
        };
        Ok((self.encode(&response)?, agree))
    }

    fn ingest(&mut self, wire: &[u8]) -> Result<(String, bool), String> {
        let body = self.parse(wire)?;
        let dto: IngestRequestDto = self.decode(&body)?;
        let points = points_of(&dto.points);
        let durable = self
            .durable
            .as_ref()
            .ok_or("ingest replay needs a wal dir")?;
        let (engine, wal) = (&durable.engine, Arc::clone(&durable.wal));
        let flush = dto.flush.unwrap_or(false);
        let report = self
            .tracer
            .span(INGEST, || engine.ingest(dto.user, &points, flush));
        self.work.ingest_calls += 1;
        self.work.closes += report.closed.len() as u64;
        // The records an attached WAL would have received: one per
        // accepted point (the workload's points always advance).
        let payloads: Vec<Vec<u8>> = points[..report.accepted.min(points.len())]
            .iter()
            .map(|&point| {
                WalRecord::Point {
                    user: dto.user,
                    point,
                }
                .encoded()
            })
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        self.tracer
            .span(WAL_APPEND, || wal.append_batch(&refs))
            .map_err(|e| format!("wal append: {e}"))?;
        self.tracer
            .span(WAL_TICK, || wal.tick())
            .map_err(|e| format!("wal tick: {e}"))?;
        self.work.appends += 1;
        self.work.ticks += 1;

        let mut rows = Vec::with_capacity(report.closed.len());
        for closed in &report.closed {
            let model = &self.model;
            rows.push(
                self.tracer
                    .span(PROJECT, || model.project_scale(&closed.features))?,
            );
        }
        let (predictions, agree) = if rows.is_empty() {
            (Vec::new(), true)
        } else {
            self.predict_rows(rows, Priority::Close)?
        };
        let response = IngestResponseDto {
            model: self.model.artifact.name.clone(),
            version: self.model.artifact.version,
            accepted: report.accepted,
            dropped: report.dropped,
            open_points: report.open_points,
            class_names: self.class_names.clone(),
            predictions: report
                .closed
                .iter()
                .zip(predictions)
                .map(|(c, p)| IngestPredictionDto {
                    user: c.user,
                    start_t: c.start.0,
                    end_t: c.end.0,
                    n_points: c.n_points,
                    reason: c.reason.as_str().to_owned(),
                    exact: c.exact,
                    class: p.class,
                    label: p.label,
                    scores: p.scores,
                })
                .collect(),
        };
        Ok((self.encode(&response)?, agree))
    }

    /// The WAL's appended bytes and fsyncs so far (ingest only).
    pub fn wal_totals(&self) -> Option<(u64, u64)> {
        self.durable.as_ref().map(|d| {
            let s = d.wal.stats();
            (s.appended_bytes, s.syncs)
        })
    }

    /// Open sessions and their state bytes (ingest only).
    pub fn session_state(&self) -> Option<(usize, usize)> {
        self.durable
            .as_ref()
            .map(|d| (d.engine.open_sessions(), d.engine.state_bytes()))
    }
}
