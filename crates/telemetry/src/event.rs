//! The event schema and its JSONL encoding.
//!
//! Every emitted line is one JSON object with the envelope fields
//! `seq` (sink-assigned, monotonic from 0) and `t_ms` (milliseconds
//! since the sink was created), then `kind` and the kind's own fields.
//! The encoding is hand-rolled (this crate is vendor-free) and stable:
//! field names are part of the schema and never change meaning.
//!
//! Each kind is declared once, in the `events!` invocation below: its
//! variant, its `kind` string, and its fields in line order. The
//! [`Event`] enum, [`Event::kind`], [`Event::encode`] and the public
//! [`Event::SCHEMA`] that `od-telemetry-validate` checks streams
//! against are all generated from that declaration, so adding a kind
//! or a field is one edit there. Such an edit changes the encoded
//! bytes on purpose: regenerate the byte golden with
//! `OD_UPDATE_GOLDEN=1 cargo test -p od-telemetry --test event_bytes`.

use std::fmt::Write as _;

/// The JSON shape of a field's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A JSON string.
    Str,
    /// A non-negative JSON integer.
    U64,
    /// Any finite JSON number.
    Num,
    /// `true` or `false`.
    Bool,
    /// An array of finite JSON numbers.
    NumArr,
}

/// One field of an event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSchema {
    /// The field's key in the line.
    pub name: &'static str,
    /// The JSON shape of its value.
    pub shape: Shape,
    /// True when the field may be absent (it is left out when unset).
    pub optional: bool,
}

/// One event kind: its `kind` string and its fields in line order,
/// beyond the envelope (`seq`, `t_ms`, `kind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSchema {
    /// The `kind` field's value.
    pub kind: &'static str,
    /// The kind's own fields, in the order they are encoded.
    pub fields: &'static [FieldSchema],
}

/// Declares every event kind once and generates the enum, `kind()`,
/// the encoder and the schema from that one list.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
        }
    ),* $(,)?) => {
        /// One telemetry event. Borrowed fields keep emission allocation-free
        /// on the caller's side; the sink encodes the line it stores or writes.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event<'a> {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl<'a> Event<'a> {
            /// Every event kind and its fields, in declaration order.
            pub const SCHEMA: &'static [KindSchema] = &[$(
                KindSchema {
                    kind: $kind,
                    fields: &[$(FieldSchema {
                        name: stringify!($field),
                        shape: <$ty as Field>::SHAPE,
                        optional: <$ty as Field>::OPTIONAL,
                    }),*],
                }
            ),*];

            /// The event's `kind` field.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind, )*
                }
            }

            /// Encodes the full line (without the trailing newline) for the
            /// given envelope values: fields in declaration order, unset
            /// optional fields left out.
            #[must_use]
            pub fn encode(&self, seq: u64, t_ms: u64) -> String {
                let mut out = String::with_capacity(96);
                let _ = write!(out, "{{\"seq\":{seq},\"t_ms\":{t_ms},\"kind\":\"");
                out.push_str(self.kind());
                out.push('"');
                match self {
                    $( Event::$variant { $($field),* } => {
                        $( Field::write($field, stringify!($field), &mut out); )*
                    } )*
                }
                out.push('}');
                out
            }
        }
    };
}

impl Event<'_> {
    /// The schema of one kind, or `None` for an unknown kind.
    #[must_use]
    pub fn schema(kind: &str) -> Option<&'static KindSchema> {
        Self::SCHEMA.iter().find(|schema| schema.kind == kind)
    }
}

/// A field type: its JSON shape and its `,"key":value` encoding.
trait Field {
    const SHAPE: Shape;
    const OPTIONAL: bool = false;
    fn write(&self, key: &str, out: &mut String);
}

impl Field for &str {
    const SHAPE: Shape = Shape::Str;
    fn write(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"");
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Field for u64 {
    const SHAPE: Shape = Shape::U64;
    fn write(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
}

impl Field for bool {
    const SHAPE: Shape = Shape::Bool;
    fn write(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
}

impl Field for f64 {
    const SHAPE: Shape = Shape::Num;
    fn write(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":");
        write_f64(out, *self);
    }
}

impl Field for &[f64] {
    const SHAPE: Shape = Shape::NumArr;
    fn write(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":[");
        for (i, value) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_f64(out, *value);
        }
        out.push(']');
    }
}

impl<T: Field> Field for Option<T> {
    const SHAPE: Shape = T::SHAPE;
    const OPTIONAL: bool = true;
    fn write(&self, key: &str, out: &mut String) {
        if let Some(value) = self {
            value.write(key, out);
        }
    }
}

/// Writes an f64 as a JSON number. Rust's `Display` for `f64` is the
/// shortest round-trippable decimal and never uses an exponent, which is
/// valid JSON; non-finite values (no JSON encoding) clamp to 0.
fn write_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push('0');
    }
}

events! {
    /// A job was accepted: emitted once, before any shard runs.
    JobStart = "job_start" {
        /// The job's human-readable name.
        job: &'a str,
        /// The spec content hash (checkpoint key).
        spec: &'a str,
        /// Total trials in the job.
        trials: u64,
        /// Total shards the trials split into.
        shards: u64,
    },
    /// A timing span opened. The span's id is this event's `seq`.
    SpanEnter = "span_enter" {
        /// Span name (e.g. `validate`, `build`, `shard`).
        name: &'a str,
        /// Enclosing span id, when nested.
        parent: Option<u64>,
        /// Shard index, for per-shard spans.
        shard: Option<u64>,
    },
    /// A timing span closed.
    SpanExit = "span_exit" {
        /// The `seq` of the matching `span_enter`.
        span: u64,
        /// Span name (repeated so lines are self-describing).
        name: &'a str,
        /// Shard index, for per-shard spans.
        shard: Option<u64>,
        /// Wall-clock span duration in microseconds.
        elapsed_us: u64,
    },
    /// Periodic per-shard progress (cadence configured by the caller).
    Progress = "progress" {
        /// Shard index.
        shard: u64,
        /// Trials finished in this shard so far.
        trials_done: u64,
        /// Trials in this shard.
        trials_total: u64,
        /// Rounds simulated in this shard so far.
        rounds: u64,
        /// Wall-clock time since the shard started, microseconds.
        elapsed_us: u64,
        /// Simulated rounds per wall-clock second.
        rounds_per_sec: f64,
        /// Estimated seconds until the shard completes.
        eta_s: f64,
    },
    /// One trial finished.
    Trial = "trial" {
        /// Shard index.
        shard: u64,
        /// Global trial index.
        trial: u64,
        /// Rounds executed (the round cap for capped trials).
        rounds: u64,
        /// `consensus`, `stopped`, or `capped`.
        outcome: &'a str,
        /// The winning opinion, when consensus tracked identity.
        winner: Option<u64>,
    },
    /// The per-round γ trace of a sampled trial (bounded memory: at
    /// most the configured number of points, then truncated).
    Trace = "trace" {
        /// Global trial index.
        trial: u64,
        /// γ_t at each observed round boundary, in round order.
        gamma: &'a [f64],
        /// True when the round count exceeded the point budget.
        truncated: bool,
    },
    /// The job finished (merged totals over completed shards).
    JobEnd = "job_end" {
        /// Trials aggregated.
        trials: u64,
        /// Trials that reached full consensus.
        consensus: u64,
        /// Trials stopped by a predicate rule.
        stopped: u64,
        /// Trials that hit the round cap.
        capped: u64,
        /// True when cancellation left shards unfinished.
        interrupted: bool,
    },
    /// A queue worker claimed a job (created its lease file).
    QueueClaim = "queue_claim" {
        /// The job file.
        job: &'a str,
        /// The claiming worker's id.
        worker: &'a str,
        /// Which attempt at the job this is (1-based).
        attempt: u64,
        /// Lease expiry, queue-clock milliseconds.
        expires_ms: u64,
    },
    /// A heartbeat renewed a held lease.
    QueueRenew = "queue_renew" {
        /// The job file.
        job: &'a str,
        /// The renewing worker's id.
        worker: &'a str,
        /// The new expiry, queue-clock milliseconds.
        expires_ms: u64,
    },
    /// A worker displaced an expired (or corrupt) lease before claiming.
    QueueTakeover = "queue_takeover" {
        /// The job file.
        job: &'a str,
        /// The worker taking over.
        worker: &'a str,
        /// The worker whose stale lease was displaced (`unknown` when
        /// the lease was unreadable).
        stale_worker: &'a str,
    },
    /// A worker released a lease without completing the job
    /// (cancellation or a lost lease).
    QueueRelease = "queue_release" {
        /// The job file.
        job: &'a str,
        /// The releasing worker's id.
        worker: &'a str,
    },
    /// A job failed and will be retried after a backoff.
    QueueRetry = "queue_retry" {
        /// The job file.
        job: &'a str,
        /// The attempt that just failed (1-based).
        attempt: u64,
        /// Backoff until the next attempt, milliseconds.
        backoff_ms: u64,
        /// The failure message.
        error: &'a str,
    },
    /// A job exhausted its retry budget and was quarantined.
    QueueQuarantine = "queue_quarantine" {
        /// The job file.
        job: &'a str,
        /// Attempts consumed.
        attempts: u64,
        /// The final failure message.
        error: &'a str,
    },
    /// A job completed and its done marker was written.
    QueueDone = "queue_done" {
        /// The job file.
        job: &'a str,
        /// The completing worker's id.
        worker: &'a str,
    },
    /// A leased worker started: the first event of its bus. A worker
    /// that drains its pool many times (od-serve's embedded workers)
    /// emits it once, not per drain.
    WorkerStart = "worker_start" {
        /// The worker's id.
        worker: &'a str,
        /// The pool kind: `queue` (a directory queue's job files) or
        /// `ranges` (an orchestrated job's shard ranges).
        pool: &'a str,
        /// The lease duration the worker claims with, in seconds.
        lease_s: f64,
    },
    /// A leased worker stopped: the last event of its bus, interrupted
    /// or failed workers included. It restates the worker's whole
    /// lifetime, every drain since `worker_start`.
    WorkerStop = "worker_stop" {
        /// The worker's id.
        worker: &'a str,
        /// Unit attempts this worker executed.
        executed: u64,
        /// Units with a current done marker as of the worker's last
        /// drain over its whole pool.
        done: u64,
        /// Units quarantined as of that drain.
        quarantined: u64,
        /// Units in the pool as of that drain.
        total: u64,
        /// Claim passes the worker made.
        passes: u64,
        /// True when cancellation stopped the worker early.
        interrupted: bool,
        /// The infrastructure error that ended the worker, if one did;
        /// `done`, `quarantined` and `total` are then 0.
        error: Option<&'a str>,
    },
    /// A checkpoint failed to parse on load and was quarantined to
    /// `<path>.corrupt`; the job restarts from scratch.
    CheckpointCorrupt = "checkpoint_corrupt" {
        /// The checkpoint file.
        path: &'a str,
        /// Why it failed to parse.
        error: &'a str,
    },
    /// An orchestrated run started: the supervisor split the job into
    /// shard ranges and is about to spawn its workers.
    OrchStart = "orch_start" {
        /// The job file.
        job: &'a str,
        /// The spec content hash (checkpoint key).
        spec: &'a str,
        /// Number of shard ranges the job was split into.
        ranges: u64,
        /// Number of child worker processes the supervisor runs.
        workers: u64,
    },
    /// The supervisor spawned (or respawned) a child worker process.
    OrchSpawn = "orch_spawn" {
        /// The child worker's id.
        worker: &'a str,
        /// The child's OS process id.
        child: u64,
    },
    /// A child worker process exited and was reaped by the supervisor.
    OrchExit = "orch_exit" {
        /// The child worker's id.
        worker: &'a str,
        /// True when the child exited with status 0.
        ok: bool,
        /// The exit code, when the child exited normally (absent for
        /// signal deaths).
        code: Option<u64>,
    },
    /// The supervisor found a shard range quarantined (its attempt
    /// budget spent) as it merged; the orchestrated run degrades to
    /// partial progress. Emitted once per such range, before
    /// `orch_merge`.
    OrchQuarantine = "orch_quarantine" {
        /// The range control file.
        range: &'a str,
        /// Attempts consumed.
        attempts: u64,
        /// The final failure message.
        error: &'a str,
    },
    /// The supervisor merged the per-range checkpoints into the job
    /// checkpoint and summary.
    OrchMerge = "orch_merge" {
        /// Ranges whose checkpoints contributed shards.
        ranges: u64,
        /// Total shards in the merged checkpoint.
        shards: u64,
    },
    /// A worker withdrew a done marker whose recorded spec hash no
    /// longer matches the job file (the job was edited or replaced
    /// after completion); the job re-runs as its current content.
    QueueStaleDone = "queue_stale_done" {
        /// The job file.
        job: &'a str,
        /// The hash the withdrawn marker recorded (empty when the
        /// marker was unreadable).
        recorded: &'a str,
        /// The job file's current content hash (empty when the file no
        /// longer loads).
        current: &'a str,
    },
    /// The job service bound its listener and is accepting requests.
    ServeStart = "serve_start" {
        /// The bound address, e.g. `127.0.0.1:8080`.
        addr: &'a str,
        /// The queue directory the service submits into.
        queue: &'a str,
        /// Embedded in-process queue workers.
        workers: u64,
    },
    /// The service answered one HTTP request.
    ServeRequest = "serve_request" {
        /// The request method.
        method: &'a str,
        /// The request path.
        path: &'a str,
        /// The response status code.
        status: u64,
    },
    /// A submitted spec was accepted into the queue (or recognised as
    /// already present/complete).
    ServeJob = "serve_job" {
        /// The queue job id (`job-<spec hash>`).
        job: &'a str,
        /// The spec's content hash.
        spec: &'a str,
        /// True when an identical spec was already queued or complete,
        /// so no new job file was written.
        deduped: bool,
    },
    /// A result lookup was answered.
    ServeResult = "serve_result" {
        /// The spec content hash looked up.
        spec: &'a str,
        /// True when the store had the result.
        hit: bool,
    },
    /// A `POST /batches` submission was validated and enqueued.
    ServeBatch = "serve_batch" {
        /// Specs in the batch.
        jobs: u64,
        /// Specs enqueued as new job files.
        accepted: u64,
        /// Specs answered by dedup (already queued or complete).
        deduped: u64,
    },
    /// A connection was turned away at the concurrent-connection cap
    /// with a `503`.
    ServeOverload = "serve_overload" {
        /// Connections in flight when the connection arrived.
        connections: u64,
        /// The configured cap.
        limit: u64,
    },
    /// A results-store GC pass evicted at least one stored result.
    ServeGc = "serve_gc" {
        /// Results evicted this pass.
        evicted: u64,
        /// Results still stored after the pass.
        kept: u64,
        /// Bytes freed this pass.
        bytes_freed: u64,
    },
    /// The service stopped accepting requests and shut down.
    ServeStop = "serve_stop" {
        /// Requests answered over the service's lifetime.
        requests: u64,
    },
    /// One measured benchmark case (the bench harness emits the same
    /// envelope and schema as runtime jobs).
    Bench = "bench" {
        /// Stable case id, e.g. `erdos_renyi/n=10000/seq_batched`.
        series: &'a str,
        /// Mean wall-clock nanoseconds per iteration.
        mean_ns: f64,
        /// Minimum wall-clock nanoseconds per iteration.
        min_ns: f64,
        /// Number of timed samples.
        samples: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_envelope_and_kind() {
        let line = Event::JobStart {
            job: "smoke",
            spec: "abc123",
            trials: 8,
            shards: 2,
        }
        .encode(0, 17);
        assert_eq!(
            line,
            "{\"seq\":0,\"t_ms\":17,\"kind\":\"job_start\",\"job\":\"smoke\",\
             \"spec\":\"abc123\",\"trials\":8,\"shards\":2}"
        );
    }

    #[test]
    fn escapes_strings() {
        let line = Event::JobStart {
            job: "a \"b\"\n\\c\u{1}",
            spec: "h",
            trials: 1,
            shards: 1,
        }
        .encode(3, 0);
        assert!(line.contains("\\\"b\\\"\\n\\\\c\\u0001"));
    }

    #[test]
    fn optional_fields_are_omitted() {
        let with = Event::SpanEnter {
            name: "shard",
            parent: Some(1),
            shard: Some(4),
        }
        .encode(2, 0);
        assert!(with.contains("\"parent\":1") && with.contains("\"shard\":4"));
        let without = Event::SpanEnter {
            name: "validate",
            parent: None,
            shard: None,
        }
        .encode(2, 0);
        assert!(!without.contains("parent") && !without.contains("shard"));
    }

    #[test]
    fn floats_are_finite_json_numbers() {
        let line = Event::Progress {
            shard: 0,
            trials_done: 1,
            trials_total: 2,
            rounds: 3,
            elapsed_us: 4,
            rounds_per_sec: f64::INFINITY,
            eta_s: 1.5,
        }
        .encode(0, 0);
        assert!(line.contains("\"rounds_per_sec\":0"));
        assert!(line.contains("\"eta_s\":1.5"));
    }

    #[test]
    fn queue_events_encode_their_fields() {
        let claim = Event::QueueClaim {
            job: "q/a.json",
            worker: "w1",
            attempt: 2,
            expires_ms: 1500,
        }
        .encode(0, 5);
        assert_eq!(
            claim,
            "{\"seq\":0,\"t_ms\":5,\"kind\":\"queue_claim\",\"job\":\"q/a.json\",\
             \"worker\":\"w1\",\"attempt\":2,\"expires_ms\":1500}"
        );
        let takeover = Event::QueueTakeover {
            job: "q/a.json",
            worker: "w2",
            stale_worker: "w1",
        }
        .encode(1, 6);
        assert!(takeover.contains("\"kind\":\"queue_takeover\""));
        assert!(takeover.contains("\"stale_worker\":\"w1\""));
        let quarantine = Event::QueueQuarantine {
            job: "q/a.json",
            attempts: 3,
            error: "boom",
        }
        .encode(2, 7);
        assert!(quarantine.contains("\"attempts\":3") && quarantine.contains("\"error\":\"boom\""));
        let start = Event::WorkerStart {
            worker: "w1",
            pool: "queue",
            lease_s: 0.5,
        }
        .encode(3, 8);
        assert_eq!(
            start,
            "{\"seq\":3,\"t_ms\":8,\"kind\":\"worker_start\",\"worker\":\"w1\",\
             \"pool\":\"queue\",\"lease_s\":0.5}"
        );
        let stop = Event::WorkerStop {
            worker: "w1",
            executed: 2,
            done: 3,
            quarantined: 1,
            total: 4,
            passes: 2,
            interrupted: false,
            error: None,
        }
        .encode(4, 9);
        assert_eq!(
            stop,
            "{\"seq\":4,\"t_ms\":9,\"kind\":\"worker_stop\",\"worker\":\"w1\",\
             \"executed\":2,\"done\":3,\"quarantined\":1,\"total\":4,\"passes\":2,\
             \"interrupted\":false}"
        );
        let failed = Event::WorkerStop {
            worker: "w1",
            executed: 0,
            done: 0,
            quarantined: 0,
            total: 0,
            passes: 1,
            interrupted: false,
            error: Some("scan failed"),
        }
        .encode(5, 10);
        assert!(failed.ends_with(",\"error\":\"scan failed\"}"), "{failed}");
        let corrupt = Event::CheckpointCorrupt {
            path: "q/a.json.checkpoint.json",
            error: "truncated",
        }
        .encode(6, 11);
        assert!(corrupt.contains("\"kind\":\"checkpoint_corrupt\""));
    }

    #[test]
    fn orch_events_encode_their_fields() {
        let start = Event::OrchStart {
            job: "q/job.json",
            spec: "abc123",
            ranges: 4,
            workers: 2,
        }
        .encode(0, 5);
        assert_eq!(
            start,
            "{\"seq\":0,\"t_ms\":5,\"kind\":\"orch_start\",\"job\":\"q/job.json\",\
             \"spec\":\"abc123\",\"ranges\":4,\"workers\":2}"
        );
        let spawn = Event::OrchSpawn {
            worker: "orch-1",
            child: 4242,
        }
        .encode(1, 6);
        assert!(spawn.contains("\"kind\":\"orch_spawn\"") && spawn.contains("\"child\":4242"));
        let signal_death = Event::OrchExit {
            worker: "orch-1",
            ok: false,
            code: None,
        }
        .encode(2, 7);
        assert!(signal_death.contains("\"ok\":false") && !signal_death.contains("\"code\""));
        let clean = Event::OrchExit {
            worker: "orch-1",
            ok: true,
            code: Some(0),
        }
        .encode(3, 8);
        assert!(clean.contains("\"ok\":true") && clean.contains("\"code\":0"));
        let quarantine = Event::OrchQuarantine {
            range: "q/job.json.orch/range-0001.range.json",
            attempts: 3,
            error: "boom",
        }
        .encode(5, 10);
        assert!(
            quarantine.contains("\"kind\":\"orch_quarantine\"")
                && quarantine.contains("\"attempts\":3")
        );
        let merge = Event::OrchMerge {
            ranges: 4,
            shards: 16,
        }
        .encode(6, 11);
        assert!(merge.contains("\"kind\":\"orch_merge\"") && merge.contains("\"shards\":16"));
    }

    #[test]
    fn serve_events_encode_their_fields() {
        let stale = Event::QueueStaleDone {
            job: "q/a.json",
            recorded: "oldhash",
            current: "newhash",
        }
        .encode(0, 5);
        assert_eq!(
            stale,
            "{\"seq\":0,\"t_ms\":5,\"kind\":\"queue_stale_done\",\"job\":\"q/a.json\",\
             \"recorded\":\"oldhash\",\"current\":\"newhash\"}"
        );
        let start = Event::ServeStart {
            addr: "127.0.0.1:8080",
            queue: "q",
            workers: 2,
        }
        .encode(1, 6);
        assert!(start.contains("\"kind\":\"serve_start\"") && start.contains("\"workers\":2"));
        let request = Event::ServeRequest {
            method: "POST",
            path: "/jobs",
            status: 201,
        }
        .encode(2, 7);
        assert!(
            request.contains("\"kind\":\"serve_request\"") && request.contains("\"status\":201")
        );
        let job = Event::ServeJob {
            job: "job-abc123",
            spec: "abc123",
            deduped: true,
        }
        .encode(3, 8);
        assert!(job.contains("\"kind\":\"serve_job\"") && job.contains("\"deduped\":true"));
        let result = Event::ServeResult {
            spec: "abc123",
            hit: false,
        }
        .encode(4, 9);
        assert!(result.contains("\"kind\":\"serve_result\"") && result.contains("\"hit\":false"));
        let stop = Event::ServeStop { requests: 11 }.encode(5, 10);
        assert!(stop.contains("\"kind\":\"serve_stop\"") && stop.contains("\"requests\":11"));
        let batch = Event::ServeBatch {
            jobs: 5,
            accepted: 3,
            deduped: 2,
        }
        .encode(6, 11);
        assert_eq!(
            batch,
            "{\"seq\":6,\"t_ms\":11,\"kind\":\"serve_batch\",\"jobs\":5,\
             \"accepted\":3,\"deduped\":2}"
        );
        let overload = Event::ServeOverload {
            connections: 8,
            limit: 8,
        }
        .encode(7, 12);
        assert_eq!(
            overload,
            "{\"seq\":7,\"t_ms\":12,\"kind\":\"serve_overload\",\
             \"connections\":8,\"limit\":8}"
        );
        let gc = Event::ServeGc {
            evicted: 2,
            kept: 4,
            bytes_freed: 512,
        }
        .encode(8, 13);
        assert_eq!(
            gc,
            "{\"seq\":8,\"t_ms\":13,\"kind\":\"serve_gc\",\"evicted\":2,\
             \"kept\":4,\"bytes_freed\":512}"
        );
    }

    #[test]
    fn trace_encodes_gamma_array() {
        let line = Event::Trace {
            trial: 7,
            gamma: &[0.25, 0.5],
            truncated: false,
        }
        .encode(9, 1);
        assert!(line.contains("\"gamma\":[0.25,0.5]"));
        assert!(line.contains("\"truncated\":false"));
    }

    #[test]
    fn schema_lists_each_kind_once_with_its_fields_in_line_order() {
        let kinds: std::collections::BTreeSet<_> =
            Event::SCHEMA.iter().map(|schema| schema.kind).collect();
        assert_eq!(kinds.len(), Event::SCHEMA.len());
        let trial = Event::schema("trial").expect("trial is declared");
        let fields: Vec<_> = trial
            .fields
            .iter()
            .map(|field| (field.name, field.shape, field.optional))
            .collect();
        assert_eq!(
            fields,
            [
                ("shard", Shape::U64, false),
                ("trial", Shape::U64, false),
                ("rounds", Shape::U64, false),
                ("outcome", Shape::Str, false),
                ("winner", Shape::U64, true),
            ]
        );
        assert_eq!(
            Event::schema("trace").unwrap().fields[1].shape,
            Shape::NumArr
        );
        assert!(Event::schema("span_open").is_none());
    }
}
