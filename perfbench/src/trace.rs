//! In-memory spans recorded around calls into the workspace's layers.
//!
//! Every span has a name (the layer, `crate::module` style), a start and
//! an end on one monotonic clock, an optional parent span, and the id of
//! the job it belongs to (the spec content hash; empty for spans that
//! serve no single job). Spans stay in memory and are written out once,
//! when the traced run ends.

use od_runtime::json::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or operation name.
    pub name: String,
    /// Span id, unique within a trace.
    pub id: u64,
    /// The span this one ran inside.
    pub parent: Option<u64>,
    /// The job's spec hash (empty when the span serves no single job).
    pub job: String,
    /// Start, microseconds since the trace epoch.
    pub start_us: f64,
    /// End, microseconds since the trace epoch.
    pub end_us: f64,
}

/// A span recorder shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        job: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            job: job.to_string(),
            start_us: self.offset_us(start),
            end_us: self.offset_us(end),
        });
        id
    }

    /// Opens a span starting now; [`Tracer::close`] ends it. The id can
    /// be named as the parent of spans recorded in between.
    pub fn open(&self, name: &str, parent: Option<u64>, job: &str) -> u64 {
        let now = Instant::now();
        self.record(name, parent, job, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&self, id: u64) {
        let end = self.offset_us(Instant::now());
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans[id as usize - 1].end_us = end;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration. The span's id is passed to `f` so nested calls can name
    /// it as their parent.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        job: &str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let id = self.open(name, parent, job);
        let out = f(id);
        self.close(id);
        (out, start.elapsed())
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("span list lock poisoned");
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    let mut obj = Json::object();
                    obj.insert("name", Json::Str(s.name.clone()));
                    obj.insert("id", Json::Int(s.id as i64));
                    obj.insert(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    );
                    obj.insert("job", Json::Str(s.job.clone()));
                    obj.insert("start_us", Json::Float(s.start_us));
                    obj.insert("end_us", Json::Float(s.end_us));
                    obj
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_point_at_their_parent() {
        let tracer = Tracer::new();
        let ((), outer) = tracer.span("outer", None, "abc", |id| {
            let ((), _) = tracer.span("inner", Some(id), "abc", |_| {
                std::thread::sleep(Duration::from_millis(2));
            });
        });
        assert!(outer >= Duration::from_millis(2));
        let json = tracer.to_json();
        let spans = json.as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(1));
        let start = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
        assert!(start(&spans[0], "start_us") <= start(&spans[1], "start_us"));
        assert!(start(&spans[1], "end_us") <= start(&spans[0], "end_us"));
    }
}
