//! Telemetry sinks: where events go.

use crate::event::Event;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An event outlet. Implementations must be cheap to share across the
/// executor's worker threads (`Send + Sync`), assign strictly monotonic
/// sequence numbers in emission order, and never block simulation
/// correctness on I/O (an emission failure is recorded, not propagated —
/// telemetry is observation, not output).
pub trait TelemetrySink: Send + Sync {
    /// False when emission is a no-op, letting callers skip event
    /// construction entirely. The hot-loop contract: a disabled sink
    /// costs one boolean load per guard.
    fn enabled(&self) -> bool {
        true
    }

    /// Emits one event, returning its assigned sequence number (0 for
    /// disabled sinks). Span ids are the `seq` of their `span_enter`.
    fn emit(&self, event: &Event<'_>) -> u64;

    /// Flushes buffered lines to their destination.
    fn flush(&self) {}
}

/// The zero-overhead default: drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &Event<'_>) -> u64 {
        0
    }
}

struct Sequenced<W> {
    writer: W,
    next_seq: u64,
    failed: bool,
}

/// A buffered JSONL file sink: one event per line, written atomically
/// (a single buffered write per line under one lock, so concurrent
/// shards never interleave partial lines), with monotonic sequence
/// numbers assigned in write order. I/O errors after creation disable
/// the sink instead of failing the job.
pub struct JsonlSink {
    inner: Mutex<Sequenced<std::io::BufWriter<std::fs::File>>>,
    epoch: Instant,
}

impl JsonlSink {
    /// Creates (truncates) `path` and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            inner: Mutex::new(Sequenced {
                writer: std::io::BufWriter::new(file),
                next_seq: 0,
                failed: false,
            }),
            epoch: Instant::now(),
        })
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&self, event: &Event<'_>) -> u64 {
        let mut inner = self.inner.lock().expect("jsonl sink lock poisoned");
        // Read the clock under the lock, so a later `seq` never carries
        // an earlier `t_ms` when threads race to emit.
        let t_ms = self.epoch.elapsed().as_millis() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if !inner.failed {
            let mut line = event.encode(seq, t_ms);
            line.push('\n');
            if inner.writer.write_all(line.as_bytes()).is_err() {
                inner.failed = true;
            }
        }
        seq
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().expect("jsonl sink lock poisoned");
        if !inner.failed && inner.writer.flush().is_err() {
            inner.failed = true;
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A test sink collecting encoded lines in memory.
pub struct MemorySink {
    inner: Mutex<Sequenced<Vec<String>>>,
    epoch: Instant,
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Sequenced {
                writer: Vec::new(),
                next_seq: 0,
                failed: false,
            }),
            epoch: Instant::now(),
        }
    }

    /// The encoded lines emitted so far, in sequence order.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("memory sink lock poisoned")
            .writer
            .clone()
    }
}

impl TelemetrySink for MemorySink {
    fn emit(&self, event: &Event<'_>) -> u64 {
        let mut inner = self.inner.lock().expect("memory sink lock poisoned");
        let t_ms = self.epoch.elapsed().as_millis() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let line = event.encode(seq, t_ms);
        inner.writer.push(line);
        seq
    }
}

/// Tees every event to several sinks. Sequence numbers are per-sink;
/// `emit` returns the first sink's (span ids therefore stay consistent
/// within each sink's stream: every sink sees the same event order
/// because emission happens under the caller's single call).
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// Builds a fanout over `sinks`.
    #[must_use]
    pub fn new(sinks: Vec<Arc<dyn TelemetrySink>>) -> Self {
        Self { sinks }
    }
}

impl TelemetrySink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn emit(&self, event: &Event<'_>) -> u64 {
        let mut first = 0;
        for (i, sink) in self.sinks.iter().enumerate() {
            let seq = sink.emit(event);
            if i == 0 {
                first = seq;
            }
        }
        first
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// A human one-line progress ticker on stderr: `progress` events
/// overwrite the current line (`\r`), `job_start`/`job_end` print full
/// lines. Event data is rendered, never stored — the ticker adds no
/// state to the run.
#[derive(Default)]
pub struct ProgressSink {
    /// Serialises writes and tracks whether a `\r` ticker line is
    /// pending (so full lines start on a fresh line).
    line_pending: Mutex<bool>,
}

impl ProgressSink {
    /// Creates a ticker writing to stderr.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl TelemetrySink for ProgressSink {
    fn emit(&self, event: &Event<'_>) -> u64 {
        let mut pending = self.line_pending.lock().expect("ticker lock poisoned");
        match event {
            Event::JobStart {
                job,
                trials,
                shards,
                ..
            } => {
                if *pending {
                    eprintln!();
                }
                eprintln!("[{job}] {trials} trials in {shards} shards");
                *pending = false;
            }
            Event::Progress {
                shard,
                trials_done,
                trials_total,
                rounds,
                rounds_per_sec,
                eta_s,
                ..
            } => {
                eprint!(
                    "\r[shard {shard}] {trials_done}/{trials_total} trials · {rounds} rounds \
                     · {rounds_per_sec:.0} rounds/s · eta {eta_s:.1}s          "
                );
                *pending = true;
            }
            Event::JobEnd {
                trials,
                consensus,
                stopped,
                capped,
                interrupted,
            } => {
                if *pending {
                    eprintln!();
                }
                eprintln!(
                    "done: {trials} trials ({consensus} consensus, {stopped} stopped, \
                     {capped} capped){}",
                    if *interrupted { ", interrupted" } else { "" }
                );
                *pending = false;
            }
            _ => {}
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>() -> Event<'a> {
        Event::JobEnd {
            trials: 2,
            consensus: 2,
            stopped: 0,
            capped: 0,
            interrupted: false,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert_eq!(NullSink.emit(&sample()), 0);
    }

    #[test]
    fn memory_sink_sequences_monotonically() {
        let sink = MemorySink::new();
        assert_eq!(sink.emit(&sample()), 0);
        assert_eq!(sink.emit(&sample()), 1);
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,"));
        assert!(lines[1].starts_with("{\"seq\":1,"));
    }

    #[test]
    fn t_ms_never_decreases_along_seq_under_concurrent_emitters() {
        let sink = MemorySink::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5_000 {
                        sink.emit(&sample());
                    }
                });
            }
        });
        let t_ms: Vec<u64> = sink
            .lines()
            .iter()
            .map(|line| {
                let rest = &line[line.find("\"t_ms\":").unwrap() + 7..];
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert_eq!(t_ms.len(), 20_000);
        assert!(t_ms.windows(2).all(|pair| pair[0] <= pair[1]));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path = std::env::temp_dir().join(format!(
            "od_telemetry_sink_test_{}.jsonl",
            std::process::id()
        ));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(&sample());
            sink.emit(&sample());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"job_end\""));
        assert!(lines[1].starts_with("{\"seq\":1,"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        assert!(fan.enabled());
        fan.emit(&sample());
        assert_eq!(a.lines().len(), 1);
        assert_eq!(b.lines().len(), 1);
        let null_fan = FanoutSink::new(vec![Arc::new(NullSink)]);
        assert!(!null_fan.enabled());
    }
}
