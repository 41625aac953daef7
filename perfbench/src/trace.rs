//! The benchmark's own spans, recorded around calls into each layer's
//! public functions (the program itself is built without `tracing`).
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! stay in memory and are written out once, when the run ends. A span's
//! *self time* is its duration minus the part of it that its children
//! cover; overlapping children are counted once.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are offsets from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graphchi-rs.execute`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset (`None` while open).
    pub end: Option<Duration>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Duration of a closed span (zero while open).
    pub fn duration(&self) -> Duration {
        self.end
            .map_or(Duration::ZERO, |end| end.saturating_sub(self.start))
    }
}

/// An in-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking client")
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        self.open_at(name, parent, request, Instant::now())
    }

    /// Opens a span that started at `at`.
    fn open_at(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        at: Instant,
    ) -> SpanId {
        let start = at.saturating_duration_since(self.origin);
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end: None,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Records a span whose start and end are already known — a
    /// client request is recorded after it completes, from the instants
    /// it saw.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.open_at(name, parent, request, start);
        self.spans()[id].end = Some(end.saturating_duration_since(self.origin));
        id
    }

    /// Closes span `id` now and returns its duration.
    pub fn close(&self, id: SpanId) -> Duration {
        let end = self.origin.elapsed();
        let mut spans = self.spans();
        let span = &mut spans[id];
        span.end = Some(end);
        span.duration()
    }

    /// Runs `f` inside a span; returns its result and the span's duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }
}

/// Self time of every span in `spans`: duration minus the union of the
/// intervals its direct children cover, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end) {
            children[p].push((s.start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            let Some(end) = span.end else {
                return Duration::ZERO;
            };
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = span.start;
            for (s, e) in kids {
                let (s, e) = (s.max(cursor), e.min(end));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut out = BTreeMap::new();
    for (span, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.name).or_insert(Duration::ZERO) += t;
    }
    out
}

/// The spans as a JSON array, for the trace file written at exit.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.map_or("null".to_string(), |e| e.as_nanos().to_string()),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start: ms(start),
            end: Some(ms(end)),
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..40 ⊃ b 20..30; c 50..60.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![ms(60), ms(20), ms(10), ms(10)]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two client threads under one root: 10..50 and 30..70 cover 10..70.
        // A child running past its parent is clipped to the parent.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], ms(100 - 60 - 10));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["x"], ms(40));
        assert_eq!(by_name["y"], ms(40));
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let t = Tracer::new();
        let root = t.open("root", None, 7);
        let ((), _) = t.time("child", Some(root), 7, || {});
        t.close(root);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end.is_some() && s.request == 7));
        assert!(self_times(&spans)[0] <= spans[0].duration());
        assert!(to_json(&spans).starts_with("[{\"name\": \"root\""));
    }
}
