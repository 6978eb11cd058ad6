//! The benchmark's own span recorder.
//!
//! Spans are taken around the calls the benchmark makes into each
//! layer's public functions and kept in memory; the program's own
//! `snn-obs` tracing stays disarmed. Each thread records into its own
//! [`Tracer`]; the run merges them and writes one Chrome trace-event
//! document (`chrome_trace_json`) that Perfetto can open.

use snn_obs::SpanEvent;
use std::time::{Duration, Instant};

/// Handle of an open span (an index into its tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Per-thread span recorder. When unarmed, spans still time their
/// interval (the benchmark needs the durations) but nothing is kept.
#[derive(Debug)]
pub struct Tracer {
    armed: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<SpanEvent>,
    open_starts: Vec<Instant>,
}

impl Tracer {
    pub fn new(armed: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            armed,
            epoch,
            thread,
            spans: Vec::new(),
            open_starts: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, thread: u32) -> Self {
        Self::new(self.armed, self.epoch, thread)
    }

    /// Opens a span of trace `trace` under `parent` (`None` for a root).
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        let id = self.open_starts.len();
        self.open_starts.push(now);
        if self.armed {
            let start_ns = self.ns(now);
            self.spans.push(SpanEvent {
                trace,
                span: id as u64 + 1,
                parent: parent.map_or(0, |p| p.0 as u64 + 1),
                name,
                thread: self.thread,
                start_ns,
                end_ns: start_ns,
                payload: 0,
            });
        }
        SpanId(id)
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = Instant::now();
        let elapsed = now - self.open_starts[id.0];
        if self.armed {
            let end_ns = self.ns(now);
            self.spans[id.0].end_ns = end_ns;
        } else if id.0 + 1 == self.open_starts.len() {
            // Unarmed spans keep no history; reuse the slot.
            self.open_starts.pop();
        }
        elapsed
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, trace, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Moves `other`'s spans into this recorder, renumbering span ids
    /// so they stay unique. The absorbed spans' slots are kept, so spans
    /// opened here later get fresh ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.open_starts.len() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.span += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
        self.open_starts.extend(other.open_starts);
    }

    /// The recorded spans as a Chrome trace-event JSON document.
    pub fn chrome_json(&self) -> String {
        snn_obs::chrome_trace_json(&self.spans)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_spans_nest_and_export() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        let root = t.open("root", 7, None);
        let (_, d) = t.time("child", 7, Some(root), || std::hint::black_box(3) + 1);
        let total = t.close(root);
        assert!(total >= d);
        assert_eq!(t.span_count(), 2);
        let mut other = t.fork(2);
        other.time("other", 8, None, || ());
        t.absorb(other);
        t.time("after", 9, None, || ());
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"parent\":1"));
        let ids: Vec<u64> = t.spans.iter().map(|s| s.span).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
    }

    #[test]
    fn unarmed_spans_time_but_keep_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        for _ in 0..1000 {
            t.time("x", 1, None, || ());
        }
        assert_eq!(t.span_count(), 0);
        assert!(t.open_starts.is_empty());
    }
}
