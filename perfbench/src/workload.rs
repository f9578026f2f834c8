//! Seeded inputs for the three workloads and the reference answers every
//! response is checked against. References come from the library's
//! public API ([`LoadedModel::predict_points`], a [`StreamEngine`] fed
//! the same chunks), computed before any timing starts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use traj_geo::{Segment, TrajectoryPoint};
use traj_geolife::{SynthConfig, SynthDataset};
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::{LoadedModel, Prediction};
use traj_stream::{StreamConfig, StreamEngine};
use traj_wal::{Wal, WalConfig};

use crate::client::render_request;

/// Keep-alive connections of the load generator, one thread each.
pub const CONNECTIONS: usize = 2;
/// Distinct `/predict_batch` bodies cycled through.
const BATCH_POOL: usize = 256;
/// Segments per `/predict_batch` request.
pub const BATCH_SEGMENTS: usize = 64;
/// Points per short `/predict_batch` segment (inclusive range).
const BATCH_POINTS: (usize, usize) = (10, 20);
/// Points per `/ingest` request.
pub const INGEST_CHUNK: usize = 16;
/// Open sessions in the pre-filled WAL the `ingest_wal` server recovers.
pub const PREFILL_SESSIONS: u32 = 20_000;
/// Points per pre-filled session (below the admission floor, so every
/// pre-filled session stays open).
const PREFILL_POINTS: usize = 8;
const PREFILL_BASE: u32 = 1_000_000;
/// Traffic user ids: `TRAFFIC_BASE + copy * COPY_STRIDE + cohort user`.
/// Every pass over the cohort uses a fresh copy, so no user id is ever
/// replayed into a session that already holds its points.
const TRAFFIC_BASE: u32 = 2_000_000;
const COPY_STRIDE: u32 = 1_000;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `POST /predict`, one full-size segment per request.
    PredictLarge,
    /// `POST /predict_batch`, 64 short segments per request.
    BatchShort,
    /// `POST /ingest`, 16-point chunks into a durable server.
    IngestWal,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PredictLarge,
        Workload::BatchShort,
        Workload::IngestWal,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictLarge => "predict_large",
            Workload::BatchShort => "batch_short",
            Workload::IngestWal => "ingest_wal",
        }
    }

    /// Why the workload exists, in one sentence (as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PredictLarge => {
                "POST /predict, 1 full-size segment (<=400 points, ~20 KB) per request: JSON decode and featurization dominate, the model is ~1%"
            }
            Workload::BatchShort => {
                "POST /predict_batch, 64 segments of 10-20 points per request: model traversal over 64-row flushes, the batcher and encoding 64 score vectors dominate"
            }
            Workload::IngestWal => {
                "POST /ingest, 16 points per request into a server recovered from a WAL of 20k open sessions: small bodies, session state, WAL append/fsync, model only at close"
            }
        }
    }

    /// The endpoint the workload drives.
    pub fn path(self) -> &'static str {
        match self {
            Workload::PredictLarge => "/predict",
            Workload::BatchShort => "/predict_batch",
            Workload::IngestWal => "/ingest",
        }
    }

    /// Items carried by every request, and what an item is.
    pub fn items_per_request(self) -> (usize, &'static str) {
        match self {
            Workload::PredictLarge => (1, "segment"),
            Workload::BatchShort => (BATCH_SEGMENTS, "segment"),
            Workload::IngestWal => (INGEST_CHUNK, "point"),
        }
    }
}

/// The cohort and the model trained on it. Both are the same for every
/// seed, so seeds vary the request stream and not the work per request.
pub struct Fixture {
    /// The synthetic cohort (the default `SynthConfig`).
    pub segments: Vec<Segment>,
    /// The artifact file the server loads.
    pub artifact_path: PathBuf,
    /// The same artifact, loaded in-process for references and replay.
    pub model: Arc<LoadedModel>,
}

impl Fixture {
    /// Generates the cohort, trains a paper-default random forest on it
    /// and writes the artifact under `dir`.
    pub fn build(dir: &Path) -> Result<Fixture, String> {
        let segments = SynthDataset::generate(&SynthConfig::default()).segments;
        let artifact_path = dir.join("rf.json");
        ModelArtifact::train(&TrainSpec::paper_default("rf"), &segments)?.save(&artifact_path)?;
        let model = Arc::new(LoadedModel::new(ModelArtifact::load(&artifact_path)?)?);
        Ok(Fixture {
            segments,
            artifact_path,
            model,
        })
    }
}

/// The expected class and scores of one prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Predicted class index.
    pub class: usize,
    /// Per-class scores.
    pub scores: Vec<f64>,
}

impl Expected {
    fn of(prediction: &Prediction) -> Expected {
        Expected {
            class: prediction.class,
            scores: prediction.scores.clone(),
        }
    }

    /// Exact match: same class, bit-identical scores.
    pub fn matches(&self, class: usize, scores: &[f64]) -> bool {
        self.class == class
            && self.scores.len() == scores.len()
            && self
                .scores
                .iter()
                .zip(scores)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One stateless request (`/predict` or `/predict_batch`).
pub struct StatelessRequest {
    /// The complete request as sent on the wire.
    wire: Vec<u8>,
    /// Offset of the JSON body in `wire`.
    body_at: usize,
    /// One expected prediction per segment.
    expect: Vec<Expected>,
}

/// The expected answer to one `/ingest` chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestExpected {
    /// Points accepted into the session.
    pub accepted: usize,
    /// Points dropped by the timestamp policy.
    pub dropped: usize,
    /// Points left open after the call.
    pub open_points: usize,
    /// Segments the chunk closed.
    pub closes: Vec<CloseExpected>,
}

/// One expected segment close.
#[derive(Debug, Clone, PartialEq)]
pub struct CloseExpected {
    /// Points in the closed segment.
    pub n_points: usize,
    /// First fix time.
    pub start_t: i64,
    /// Last fix time.
    pub end_t: i64,
    /// Why it closed.
    pub reason: String,
    /// The prediction for it.
    pub expect: Expected,
}

/// One `/ingest` chunk of a cohort user; the user id is assigned per
/// copy at send time.
pub struct IngestChunk {
    /// Cohort user the points belong to.
    base_user: u32,
    /// The points rendered as a JSON array.
    points_json: String,
    /// The reference answer (identical for every copy).
    expect: IngestExpected,
}

impl IngestChunk {
    /// The JSON body for `user`.
    fn body(&self, user: u32) -> String {
        format!("{{\"user\":{user},\"points\":{}}}", self.points_json)
    }
}

/// A workload's requests, split into one lane per connection.
pub enum Plan {
    /// Stateless requests, cycled in order.
    Stateless {
        /// Requests per lane.
        lanes: Vec<Vec<StatelessRequest>>,
        /// `/predict_batch` (many segments per request) or `/predict`.
        batch: bool,
    },
    /// Ingest chunks; a lane's `i`-th request is chunk `i % len` of copy
    /// `i / len`. Users are partitioned across lanes so each user's
    /// chunks arrive in order.
    Ingest {
        /// Chunks per lane, in global timestamp order.
        lanes: Vec<Vec<IngestChunk>>,
        /// The pre-filled durable state every server starts from.
        wal_template: PathBuf,
    },
}

/// The traffic user id of cohort user `base` in copy `copy`.
fn traffic_user(copy: usize, base: u32) -> u32 {
    TRAFFIC_BASE + copy as u32 * COPY_STRIDE + base
}

impl Plan {
    /// Generates `workload`'s requests from the fixture and `seed`, with
    /// reference answers. `dir` receives the pre-filled WAL template.
    pub fn build(
        workload: Workload,
        fixture: &Fixture,
        seed: u64,
        dir: &Path,
    ) -> Result<Plan, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        match workload {
            Workload::PredictLarge => predict_plan(fixture, &mut rng),
            Workload::BatchShort => batch_plan(fixture, &mut rng),
            Workload::IngestWal => ingest_plan(fixture, &mut rng, dir),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        match self {
            Plan::Stateless { lanes, .. } => lanes.len(),
            Plan::Ingest { lanes, .. } => lanes.len(),
        }
    }

    /// The JSON body of lane `lane`'s `i`-th request.
    pub fn body(&self, lane: usize, i: usize) -> Cow<'_, str> {
        match self {
            Plan::Stateless { lanes, .. } => {
                let req = &lanes[lane][i % lanes[lane].len()];
                String::from_utf8_lossy(&req.wire[req.body_at..])
            }
            Plan::Ingest { lanes, .. } => {
                let chunks = &lanes[lane];
                let chunk = &chunks[i % chunks.len()];
                Cow::Owned(chunk.body(traffic_user(i / chunks.len(), chunk.base_user)))
            }
        }
    }

    /// The wire bytes of lane `lane`'s `i`-th request.
    pub fn wire(&self, path: &str, lane: usize, i: usize) -> Cow<'_, [u8]> {
        match self {
            Plan::Stateless { lanes, .. } => {
                let reqs = &lanes[lane];
                Cow::Borrowed(&reqs[i % reqs.len()].wire)
            }
            Plan::Ingest { .. } => Cow::Owned(render_request("POST", path, &self.body(lane, i))),
        }
    }

    /// Whether `body` is the correct 2xx answer to lane `lane`'s `i`-th
    /// request.
    pub fn check(&self, lane: usize, i: usize, body: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(body) else {
            return false;
        };
        match self {
            Plan::Stateless { lanes, batch } => {
                let reqs = &lanes[lane];
                let expect = &reqs[i % reqs.len()].expect;
                if *batch {
                    check_batch(text, expect)
                } else {
                    check_predict(text, &expect[0])
                }
            }
            Plan::Ingest { lanes, .. } => {
                let chunks = &lanes[lane];
                let chunk = &chunks[i % chunks.len()];
                let user = traffic_user(i / chunks.len(), chunk.base_user);
                check_ingest(text, user, &chunk.expect)
            }
        }
    }

    /// Corrupts one reference answer (for the benchmark's own tests: a
    /// run against a corrupted reference must fail).
    pub fn corrupt_reference(&mut self) {
        match self {
            Plan::Stateless { lanes, .. } => {
                for req in lanes.iter_mut().flatten() {
                    for e in &mut req.expect {
                        e.class += 1;
                    }
                }
            }
            Plan::Ingest { lanes, .. } => {
                for chunk in lanes.iter_mut().flatten() {
                    chunk.expect.accepted += 1;
                }
            }
        }
    }
}

fn points_json(points: &[TrajectoryPoint]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    format!("[{}]", items.join(","))
}

impl StatelessRequest {
    fn new(path: &str, body: &str, expect: Vec<Expected>) -> StatelessRequest {
        let wire = render_request("POST", path, body);
        StatelessRequest {
            body_at: wire.len() - body.len(),
            wire,
            expect,
        }
    }
}

/// Every cohort segment the server accepts, in seeded order.
fn predict_plan(fixture: &Fixture, rng: &mut StdRng) -> Result<Plan, String> {
    let mut eligible: Vec<&Segment> = fixture
        .segments
        .iter()
        .filter(|s| traj_geo::monotonic_len(&s.points) >= MIN_SEGMENT_POINTS)
        .collect();
    eligible.shuffle(rng);
    let mut lanes: Vec<Vec<StatelessRequest>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, seg) in eligible.into_iter().enumerate() {
        let expect = Expected::of(&fixture.model.predict_points(&seg.points)?);
        let body = format!("{{\"points\":{}}}", points_json(&seg.points));
        lanes[i % CONNECTIONS].push(StatelessRequest::new("/predict", &body, vec![expect]));
    }
    Ok(Plan::Stateless {
        lanes,
        batch: false,
    })
}

fn batch_plan(fixture: &Fixture, rng: &mut StdRng) -> Result<Plan, String> {
    let long: Vec<&Segment> = fixture
        .segments
        .iter()
        .filter(|s| s.points.len() >= BATCH_POINTS.1)
        .collect();
    if long.is_empty() {
        return Err("cohort has no segment long enough to cut".to_owned());
    }
    let mut lanes: Vec<Vec<StatelessRequest>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for i in 0..BATCH_POOL {
        let mut segments = Vec::with_capacity(BATCH_SEGMENTS);
        while segments.len() < BATCH_SEGMENTS {
            let seg = long[rng.gen_range(0..long.len())];
            let len = rng.gen_range(BATCH_POINTS.0..=BATCH_POINTS.1);
            let start = rng.gen_range(0..=seg.points.len() - len);
            let cut = &seg.points[start..start + len];
            if traj_geo::monotonic_len(cut) >= MIN_SEGMENT_POINTS {
                segments.push(cut.to_vec());
            }
        }
        let expect = segments
            .iter()
            .map(|s| fixture.model.predict_points(s).map(|p| Expected::of(&p)))
            .collect::<Result<Vec<Expected>, String>>()?;
        let arrays: Vec<String> = segments.iter().map(|s| points_json(s)).collect();
        let body = format!("{{\"segments\":[{}]}}", arrays.join(","));
        lanes[i % CONNECTIONS].push(StatelessRequest::new("/predict_batch", &body, expect));
    }
    Ok(Plan::Stateless { lanes, batch: true })
}

/// Each cohort user's points in time order, cut into chunks at a seeded
/// phase; chunks of all users sorted by their first timestamp.
fn ingest_plan(fixture: &Fixture, rng: &mut StdRng, dir: &Path) -> Result<Plan, String> {
    let mut by_user: BTreeMap<u32, Vec<TrajectoryPoint>> = BTreeMap::new();
    for seg in &fixture.segments {
        by_user
            .entry(seg.user)
            .or_default()
            .extend_from_slice(&seg.points);
    }
    let mut chunks: Vec<(i64, u32, Vec<TrajectoryPoint>)> = Vec::new();
    for (&user, points) in &mut by_user {
        if user >= COPY_STRIDE {
            return Err(format!("cohort user id {user} does not fit the id layout"));
        }
        points.sort_by_key(|p| p.t.0);
        let phase = rng.gen_range(0..INGEST_CHUNK).min(points.len());
        let (head, rest) = points.split_at(phase);
        for chunk in std::iter::once(head)
            .filter(|h| !h.is_empty())
            .chain(rest.chunks(INGEST_CHUNK))
        {
            chunks.push((chunk[0].t.0, user, chunk.to_vec()));
        }
    }
    chunks.sort_by_key(|&(t, user, _)| (t, user));

    let reference = StreamEngine::new(StreamConfig::default());
    let mut lanes: Vec<Vec<IngestChunk>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (_, base_user, points) in chunks {
        let report = reference.ingest(traffic_user(0, base_user), &points, false);
        let closes = report
            .closed
            .iter()
            .map(|c| {
                Ok(CloseExpected {
                    n_points: c.n_points,
                    start_t: c.start.0,
                    end_t: c.end.0,
                    reason: c.reason.as_str().to_owned(),
                    expect: Expected::of(&fixture.model.predict_full_row(&c.features)?),
                })
            })
            .collect::<Result<Vec<CloseExpected>, String>>()?;
        lanes[base_user as usize % CONNECTIONS].push(IngestChunk {
            base_user,
            points_json: points_json(&points),
            expect: IngestExpected {
                accepted: report.accepted,
                dropped: report.dropped,
                open_points: report.open_points,
                closes,
            },
        });
    }
    if lanes.iter().any(Vec::is_empty) {
        return Err("cohort too small to fill every connection".to_owned());
    }
    let wal_template = dir.join("wal-template");
    write_prefill(&fixture.segments, &wal_template)?;
    Ok(Plan::Ingest {
        lanes,
        wal_template,
    })
}

/// Writes the durable state of [`PREFILL_SESSIONS`] open sessions, laid
/// out as a server's durability directory (`wal/` under `dir`).
fn write_prefill(segments: &[Segment], dir: &Path) -> Result<(), String> {
    let (wal, _) = Wal::open(WalConfig::new(dir.join("wal")))
        .map_err(|e| format!("opening prefill wal: {e}"))?;
    let wal = Arc::new(wal);
    let engine = StreamEngine::new(StreamConfig::default());
    engine.attach_wal(Arc::clone(&wal));
    for i in 0..PREFILL_SESSIONS {
        let seg = &segments[i as usize % segments.len()];
        let points = &seg.points[..PREFILL_POINTS.min(seg.points.len())];
        let report = engine.ingest(PREFILL_BASE + i, points, false);
        if let Some(e) = report.wal_error {
            return Err(format!("prefill wal append: {e}"));
        }
    }
    wal.sync().map_err(|e| format!("prefill wal sync: {e}"))
}

// ------------------------------------------------------------ response checks

#[derive(Deserialize)]
struct PredictReply {
    class: usize,
    scores: Vec<f64>,
}

#[derive(Deserialize)]
struct BatchReply {
    results: Vec<BatchItemReply>,
}

#[derive(Deserialize)]
struct BatchItemReply {
    class: Option<usize>,
    scores: Option<Vec<f64>>,
    error: Option<String>,
}

#[derive(Deserialize)]
struct IngestReply {
    accepted: usize,
    dropped: usize,
    open_points: usize,
    predictions: Vec<IngestPredictionReply>,
}

#[derive(Deserialize)]
struct IngestPredictionReply {
    user: u32,
    start_t: i64,
    end_t: i64,
    n_points: usize,
    reason: String,
    class: usize,
    scores: Vec<f64>,
}

/// Checks a `/predict` response body.
fn check_predict(text: &str, expect: &Expected) -> bool {
    serde_json::from_str::<PredictReply>(text).is_ok_and(|r| expect.matches(r.class, &r.scores))
}

/// Checks a `/predict_batch` response body.
fn check_batch(text: &str, expect: &[Expected]) -> bool {
    let Ok(reply) = serde_json::from_str::<BatchReply>(text) else {
        return false;
    };
    reply.results.len() == expect.len()
        && reply.results.iter().zip(expect).all(|(r, e)| {
            r.error.is_none()
                && matches!((r.class, &r.scores), (Some(c), Some(s)) if e.matches(c, s))
        })
}

/// Checks an `/ingest` response body for traffic user `user`.
fn check_ingest(text: &str, user: u32, expect: &IngestExpected) -> bool {
    let Ok(reply) = serde_json::from_str::<IngestReply>(text) else {
        return false;
    };
    reply.accepted == expect.accepted
        && reply.dropped == expect.dropped
        && reply.open_points == expect.open_points
        && reply.predictions.len() == expect.closes.len()
        && reply.predictions.iter().zip(&expect.closes).all(|(p, c)| {
            p.user == user
                && p.start_t == c.start_t
                && p.end_t == c.end_t
                && p.n_points == c.n_points
                && p.reason == c.reason
                && c.expect.matches(p.class, &p.scores)
        })
}
