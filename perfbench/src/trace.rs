//! In-memory spans recorded around calls into each layer, their
//! per-layer statistics, and the chrome-trace writer. Nothing here runs
//! inside the program under test: spans wrap public-API calls made by
//! the benchmark's replay.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of one replayed request.
pub const ROOT: &str = "request";

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Replayed request the span belongs to.
    pub request: u32,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Records spans when enabled; when disabled, only root durations are
/// kept so the cost of tracing itself can be measured.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    request: u32,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    /// Root durations of traced requests, ns.
    pub traced_roots_ns: Vec<f64>,
    /// Root durations of untraced requests, ns.
    pub untraced_roots_ns: Vec<f64>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
            traced_roots_ns: Vec::new(),
            untraced_roots_ns: Vec::new(),
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts a request's root span; child spans are recorded only when
    /// `traced`.
    pub fn begin_request(&mut self, request: u32, traced: bool) {
        self.enabled = traced;
        self.request = request;
        let index = self.spans.len();
        if traced {
            self.spans.push(Span {
                name: ROOT,
                request,
                parent: None,
                start_ns: 0,
                dur_ns: 0,
            });
        }
        self.open.push((index, Instant::now()));
    }

    /// Ends the request's root span.
    pub fn end_request(&mut self) {
        let end = Instant::now();
        let (index, start) = self.open.pop().expect("begin_request before end_request");
        let dur = end.duration_since(start).as_nanos() as f64;
        if self.enabled {
            self.spans[index].start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans[index].dur_ns = dur as u64;
            self.traced_roots_ns.push(dur);
        } else {
            self.untraced_roots_ns.push(dur);
        }
    }

    /// Runs `f` inside a child span named `name` of the open root.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().map(|&(i, _)| i),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        out
    }
}

/// Per-layer statistics over all recorded spans.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// Calls of the layer.
    pub calls: u64,
    /// Every call's duration, µs.
    pub durations_us: Vec<f64>,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: f64,
}

/// Groups spans by name: calls, durations and self time.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.dur_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let stats = out.entry(span.name).or_default();
        stats.calls += 1;
        stats.durations_us.push(span.dur_ns as f64 / 1e3);
        stats.self_ns += span.dur_ns.saturating_sub(children) as f64;
    }
    out
}

/// Writes the spans of the first requests, up to about `max_spans`
/// spans and never part of a request, as a chrome-trace JSON array (open
/// in Perfetto or `chrome://tracing`).
pub fn write_chrome_trace(spans: &[Span], max_spans: usize, path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(b"[\n")?;
    for (i, span) in spans.iter().enumerate() {
        if i >= max_spans && span.parent.is_none() {
            break;
        }
        if i > 0 {
            out.write_all(b",\n")?;
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"request\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.dur_ns as f64 / 1e3,
            span.request
        )?;
    }
    out.write_all(b"\n]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_shares_sum_to_one() {
        let mut tracer = Tracer::new();
        for r in 0..3 {
            tracer.begin_request(r, true);
            tracer.span("a", || std::hint::black_box((0..1000).sum::<u64>()));
            tracer.span("b", || std::hint::black_box((0..2000).sum::<u64>()));
            tracer.end_request();
        }
        tracer.begin_request(3, false);
        tracer.span("a", || ());
        tracer.end_request();
        let stats = layer_stats(tracer.spans());
        assert_eq!(stats["a"].calls, 3);
        assert_eq!(stats[ROOT].calls, 3);
        assert_eq!(tracer.untraced_roots_ns.len(), 1);
        let root_total: f64 = tracer.traced_roots_ns.iter().sum();
        let shares: f64 = stats.values().map(|s| s.self_ns / root_total).sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
    }
}
