//! Harness spans for the traced run.
//!
//! The harness opens a span around every public call it makes into the
//! program. A span has a name, a start, an end, the span that caused it and
//! the request it belongs to; spans of one request share the request id.
//! Spans stay in memory and are written out once, when the run ends. The
//! program's own `octs-obs` spans (`phase.*`) can be grafted under the
//! harness span that contains them, so a layer's self time — its span
//! minus the part its children cover — can be read off one tree.

use std::sync::Mutex;
use std::time::Instant;

/// One completed span; times are microseconds from the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for run-level work).
    pub request: u64,
    /// What was called.
    pub name: String,
    /// Start, microseconds from the epoch.
    pub start_us: f64,
    /// End, microseconds from the epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store shared by the harness threads of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Mutex::new(Vec::new()) }
    }

    /// Microseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span starting now; returns its id for [`Tracer::close`] and
    /// for the spans it causes to name as their parent.
    pub fn open(&self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = self.at(Instant::now());
        self.push(name, parent, request, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&self, id: usize) {
        let now = self.at(Instant::now());
        self.spans.lock().expect("a harness thread panicked while tracing")[id].end_us = now;
    }

    /// Records a span given in epoch microseconds; returns its id.
    pub fn push(
        &self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("a harness thread panicked while tracing");
        let id = spans.len();
        spans.push(Span { id, parent, request, name: name.to_string(), start_us, end_us });
        id
    }

    /// Runs `f` inside a span; `f` receives the span's id so the calls it
    /// makes can name it as their parent.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(usize) -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        (out, id)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a harness thread panicked while tracing").clone()
    }

    /// The trace as NDJSON, one span per line.
    pub fn ndjson(&self) -> String {
        self.spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_us\":{:?},\
                     \"end_us\":{:?}}}\n",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request,
                    serde_json::to_string(&s.name).expect("a string serializes"),
                    s.start_us,
                    s.end_us,
                )
            })
            .collect()
    }
}

/// Self time of `spans[id]` in microseconds: its duration minus the union
/// of its children's intervals, clipped to it (overlapping children count
/// once).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (a, b) in kids {
        open = match open {
            Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
            Some((oa, ob)) => {
                covered += ob - oa;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((oa, ob)) = open {
        covered += ob - oa;
    }
    me.dur_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { id, parent, request: 0, name: format!("s{id}"), start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 30.0),
            // Overlaps span 1: the overlap is covered once, not twice.
            span(2, Some(0), 20.0, 40.0),
            span(3, Some(0), 60.0, 70.0),
            // A grandchild does not reduce the root's self time twice.
            span(4, Some(3), 61.0, 69.0),
            // A child spilling past its parent is clipped.
            span(5, Some(0), 95.0, 120.0),
        ];
        assert_eq!(self_time(&spans, 0), 100.0 - 30.0 - 10.0 - 5.0);
        assert_eq!(self_time(&spans, 3), 2.0);
        assert_eq!(self_time(&spans, 4), 8.0);
    }

    #[test]
    fn tracer_records_parents_and_requests() {
        let t = Tracer::new(Instant::now());
        let (v, root) = t.time("root", None, 7, |root| {
            let (x, _) = t.time("child", Some(root), 7, |_| 41);
            x + 1
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[root].name, "root");
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans.iter().all(|s| s.request == 7 && s.end_us >= s.start_us));
        assert!(spans[root].dur_us() >= spans[1].dur_us());
        let lines = t.ndjson();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.starts_with("{\"id\":0,\"parent\":null,\"request\":7,\"name\":\"root\""));
    }
}
