//! The closed-loop load generator: one thread per keep-alive connection,
//! each sending its next request only after the previous reply arrived
//! and was checked.

use crate::client::Conn;
use crate::workload::Plan;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Outcome counts of one phase. Every attempted request lands in exactly
/// one of the other fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Requests attempted.
    pub attempted: u64,
    /// 2xx with a correct body.
    pub ok: u64,
    /// 2xx with a body that disagrees with the reference.
    pub wrong: u64,
    /// 429 (shed by admission control).
    pub shed: u64,
    /// Any other non-2xx status.
    pub non_2xx: u64,
    /// Connect, write or read failures.
    pub transport: u64,
}

impl Counts {
    /// Attempted requests that were not correct 2xx answers.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.shed += other.shed;
        self.non_2xx += other.non_2xx;
        self.transport += other.transport;
    }

    /// One-line rendering for the run log.
    pub fn render(&self) -> String {
        format!(
            "attempted={} ok_2xx={} wrong_output={} status_429={} other_non_2xx={} transport_errors={}",
            self.attempted, self.ok, self.wrong, self.shed, self.non_2xx, self.transport
        )
    }
}

/// What one closed-loop run measured.
pub struct LoadResult {
    /// Warm-up phase outcomes (not timed).
    pub warmup: Counts,
    /// Measured phase outcomes.
    pub measured: Counts,
    /// Measured phase length: from its start to the last reply.
    pub elapsed_s: f64,
    /// Client-side latency of every measured attempt, ms.
    pub latencies_ms: Vec<f64>,
    /// Measured attempts that were correct, 2xx and within the SLO.
    pub slo_ok: u64,
    /// Change of the probe reading over the measured phase.
    pub probe_delta: f64,
}

#[derive(Default)]
struct LaneResult {
    warmup: Counts,
    measured: Counts,
    measured_s: f64,
    latencies_ms: Vec<f64>,
    slo_ok: u64,
}

/// Drives `plan` against `addr` over [`Plan::lanes`] connections: a
/// `warmup` phase, then a `measure` phase. `probe` (e.g. the server's
/// CPU seconds) is read on the calling thread when the measured phase
/// begins and after the last reply.
pub fn run(
    addr: SocketAddr,
    plan: &Plan,
    path: &str,
    warmup: Duration,
    measure: Duration,
    slo: Duration,
    mut probe: impl FnMut() -> f64,
) -> LoadResult {
    let lanes = plan.lanes();
    let barrier = Barrier::new(lanes + 1);
    let mut probe_start = 0.0;
    let results: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let phases = Phases {
                        measure_start: start + warmup,
                        end: start + warmup + measure,
                        slo,
                    };
                    drive_lane(addr, plan, path, lane, phases)
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(warmup);
        probe_start = probe();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = LoadResult {
        warmup: Counts::default(),
        measured: Counts::default(),
        elapsed_s: 0.0,
        latencies_ms: Vec::new(),
        slo_ok: 0,
        probe_delta: probe() - probe_start,
    };
    for r in results {
        out.warmup.add(&r.warmup);
        out.measured.add(&r.measured);
        out.latencies_ms.extend(r.latencies_ms);
        out.slo_ok += r.slo_ok;
        out.elapsed_s = out.elapsed_s.max(r.measured_s);
    }
    out
}

#[derive(Clone, Copy)]
struct Phases {
    measure_start: Instant,
    end: Instant,
    slo: Duration,
}

fn drive_lane(
    addr: SocketAddr,
    plan: &Plan,
    path: &str,
    lane: usize,
    phases: Phases,
) -> LaneResult {
    let mut result = LaneResult::default();
    let mut conn: Option<Conn> = None;
    for i in 0.. {
        let sent = Instant::now();
        if sent >= phases.end {
            break;
        }
        let measuring = sent >= phases.measure_start;
        let wire = plan.wire(path, lane, i);
        let reply = match conn.take() {
            Some(c) if c.is_open() => Ok(c),
            _ => Conn::connect(addr),
        }
        .and_then(|mut c| c.request(&wire).map(|reply| (c, reply)));
        let latency = sent.elapsed();
        let counts = if measuring {
            &mut result.measured
        } else {
            &mut result.warmup
        };
        counts.attempted += 1;
        match reply {
            Ok((c, (status, body))) => {
                conn = Some(c);
                match status {
                    200..=299 if plan.check(lane, i, &body) => {
                        counts.ok += 1;
                        if measuring && latency <= phases.slo {
                            result.slo_ok += 1;
                        }
                    }
                    200..=299 => counts.wrong += 1,
                    429 => counts.shed += 1,
                    _ => counts.non_2xx += 1,
                }
            }
            Err(_) => {
                counts.transport += 1;
                // Back off briefly so a dead server cannot spin the loop.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        if measuring {
            result.latencies_ms.push(latency.as_secs_f64() * 1e3);
            result.measured_s = phases.measure_start.elapsed().as_secs_f64();
        }
    }
    result
}
