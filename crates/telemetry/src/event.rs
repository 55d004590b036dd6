//! The event schema and its JSONL encoding.
//!
//! Every emitted line is one JSON object with the envelope fields
//! `seq` (sink-assigned, monotonic from 0) and `t_ms` (milliseconds
//! since the sink was created), then `kind` and the kind's own fields.
//! The encoding is hand-rolled (this crate is vendor-free) and stable:
//! field names are part of the schema and never change meaning.

use std::fmt::Write as _;

/// One telemetry event. Borrowed fields keep emission allocation-free
/// on the caller's side; the sink encodes the line it stores or writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A job was accepted: emitted once, before any shard runs.
    JobStart {
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
    SpanEnter {
        /// Span name (e.g. `validate`, `build`, `shard`).
        name: &'a str,
        /// Enclosing span id, when nested.
        parent: Option<u64>,
        /// Shard index, for per-shard spans.
        shard: Option<u64>,
    },
    /// A timing span closed.
    SpanExit {
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
    Progress {
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
    Trial {
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
    Trace {
        /// Global trial index.
        trial: u64,
        /// γ_t at each observed round boundary, in round order.
        gamma: &'a [f64],
        /// True when the round count exceeded the point budget.
        truncated: bool,
    },
    /// The job finished (merged totals over completed shards).
    JobEnd {
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
    QueueClaim {
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
    QueueRenew {
        /// The job file.
        job: &'a str,
        /// The renewing worker's id.
        worker: &'a str,
        /// The new expiry, queue-clock milliseconds.
        expires_ms: u64,
    },
    /// A worker displaced an expired (or corrupt) lease before claiming.
    QueueTakeover {
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
    QueueRelease {
        /// The job file.
        job: &'a str,
        /// The releasing worker's id.
        worker: &'a str,
    },
    /// A job failed and will be retried after a backoff.
    QueueRetry {
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
    QueueQuarantine {
        /// The job file.
        job: &'a str,
        /// Attempts consumed.
        attempts: u64,
        /// The final failure message.
        error: &'a str,
    },
    /// A job completed and its done marker was written.
    QueueDone {
        /// The job file.
        job: &'a str,
        /// The completing worker's id.
        worker: &'a str,
    },
    /// A leased worker started: the first event of its bus. A worker
    /// that drains its pool many times (od-serve's embedded workers)
    /// emits it once, not per drain.
    WorkerStart {
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
    WorkerStop {
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
    CheckpointCorrupt {
        /// The checkpoint file.
        path: &'a str,
        /// Why it failed to parse.
        error: &'a str,
    },
    /// An orchestrated run started: the supervisor split the job into
    /// shard ranges and is about to spawn its workers.
    OrchStart {
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
    OrchSpawn {
        /// The child worker's id.
        worker: &'a str,
        /// The child's OS process id.
        child: u64,
    },
    /// A child worker process exited and was reaped by the supervisor.
    OrchExit {
        /// The child worker's id.
        worker: &'a str,
        /// True when the child exited with status 0.
        ok: bool,
        /// The exit code, when the child exited normally (absent for
        /// signal deaths).
        code: Option<u64>,
    },
    /// The supervisor revoked a stalled range's lease: the holder made
    /// no checkpoint progress within the deadline, so the range goes
    /// back to the pool and the late original cancels at its next renew.
    OrchRevoke {
        /// The range control file.
        range: &'a str,
        /// The worker whose lease was revoked.
        worker: &'a str,
    },
    /// A shard range exhausted its respawn/retry budget and was
    /// quarantined; the orchestrated run degrades to partial progress.
    OrchQuarantine {
        /// The range control file.
        range: &'a str,
        /// Attempts consumed.
        attempts: u64,
        /// The final failure message.
        error: &'a str,
    },
    /// The supervisor merged the per-range checkpoints into the job
    /// checkpoint and summary.
    OrchMerge {
        /// Ranges whose checkpoints contributed shards.
        ranges: u64,
        /// Total shards in the merged checkpoint.
        shards: u64,
    },
    /// A worker withdrew a done marker whose recorded spec hash no
    /// longer matches the job file (the job was edited or replaced
    /// after completion); the job re-runs as its current content.
    QueueStaleDone {
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
    ServeStart {
        /// The bound address, e.g. `127.0.0.1:8080`.
        addr: &'a str,
        /// The queue directory the service submits into.
        queue: &'a str,
        /// Embedded in-process queue workers.
        workers: u64,
    },
    /// The service answered one HTTP request.
    ServeRequest {
        /// The request method.
        method: &'a str,
        /// The request path.
        path: &'a str,
        /// The response status code.
        status: u64,
    },
    /// A submitted spec was accepted into the queue (or recognised as
    /// already present/complete).
    ServeJob {
        /// The queue job id (`job-<spec hash>`).
        job: &'a str,
        /// The spec's content hash.
        spec: &'a str,
        /// True when an identical spec was already queued or complete,
        /// so no new job file was written.
        deduped: bool,
    },
    /// A result lookup was answered.
    ServeResult {
        /// The spec content hash looked up.
        spec: &'a str,
        /// True when the store had the result.
        hit: bool,
    },
    /// A `POST /batches` submission was validated and enqueued.
    ServeBatch {
        /// Specs in the batch.
        jobs: u64,
        /// Specs enqueued as new job files.
        accepted: u64,
        /// Specs answered by dedup (already queued or complete).
        deduped: u64,
    },
    /// A connection was turned away at the concurrent-connection cap
    /// with a `503`.
    ServeOverload {
        /// Connections in flight when the connection arrived.
        connections: u64,
        /// The configured cap.
        limit: u64,
    },
    /// A results-store GC pass evicted at least one stored result.
    ServeGc {
        /// Results evicted this pass.
        evicted: u64,
        /// Results still stored after the pass.
        kept: u64,
        /// Bytes freed this pass.
        bytes_freed: u64,
    },
    /// The service stopped accepting requests and shut down.
    ServeStop {
        /// Requests answered over the service's lifetime.
        requests: u64,
    },
    /// One measured benchmark case (the bench harness emits the same
    /// envelope and schema as runtime jobs).
    Bench {
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

impl Event<'_> {
    /// The event's `kind` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::JobStart { .. } => "job_start",
            Event::SpanEnter { .. } => "span_enter",
            Event::SpanExit { .. } => "span_exit",
            Event::Progress { .. } => "progress",
            Event::Trial { .. } => "trial",
            Event::Trace { .. } => "trace",
            Event::JobEnd { .. } => "job_end",
            Event::QueueClaim { .. } => "queue_claim",
            Event::QueueRenew { .. } => "queue_renew",
            Event::QueueTakeover { .. } => "queue_takeover",
            Event::QueueRelease { .. } => "queue_release",
            Event::QueueRetry { .. } => "queue_retry",
            Event::QueueQuarantine { .. } => "queue_quarantine",
            Event::QueueDone { .. } => "queue_done",
            Event::WorkerStart { .. } => "worker_start",
            Event::WorkerStop { .. } => "worker_stop",
            Event::CheckpointCorrupt { .. } => "checkpoint_corrupt",
            Event::OrchStart { .. } => "orch_start",
            Event::OrchSpawn { .. } => "orch_spawn",
            Event::OrchExit { .. } => "orch_exit",
            Event::OrchRevoke { .. } => "orch_revoke",
            Event::OrchQuarantine { .. } => "orch_quarantine",
            Event::OrchMerge { .. } => "orch_merge",
            Event::QueueStaleDone { .. } => "queue_stale_done",
            Event::ServeStart { .. } => "serve_start",
            Event::ServeRequest { .. } => "serve_request",
            Event::ServeJob { .. } => "serve_job",
            Event::ServeResult { .. } => "serve_result",
            Event::ServeBatch { .. } => "serve_batch",
            Event::ServeOverload { .. } => "serve_overload",
            Event::ServeGc { .. } => "serve_gc",
            Event::ServeStop { .. } => "serve_stop",
            Event::Bench { .. } => "bench",
        }
    }

    /// Encodes the full line (without the trailing newline) for the
    /// given envelope values.
    #[must_use]
    pub fn encode(&self, seq: u64, t_ms: u64) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"seq\":{seq},\"t_ms\":{t_ms},\"kind\":\"");
        out.push_str(self.kind());
        out.push('"');
        self.write_fields(&mut out);
        out.push('}');
        out
    }

    fn write_fields(&self, out: &mut String) {
        match self {
            Event::JobStart {
                job,
                spec,
                trials,
                shards,
            } => {
                field_str(out, "job", job);
                field_str(out, "spec", spec);
                field_u64(out, "trials", *trials);
                field_u64(out, "shards", *shards);
            }
            Event::SpanEnter {
                name,
                parent,
                shard,
            } => {
                field_str(out, "name", name);
                if let Some(parent) = parent {
                    field_u64(out, "parent", *parent);
                }
                if let Some(shard) = shard {
                    field_u64(out, "shard", *shard);
                }
            }
            Event::SpanExit {
                span,
                name,
                shard,
                elapsed_us,
            } => {
                field_u64(out, "span", *span);
                field_str(out, "name", name);
                if let Some(shard) = shard {
                    field_u64(out, "shard", *shard);
                }
                field_u64(out, "elapsed_us", *elapsed_us);
            }
            Event::Progress {
                shard,
                trials_done,
                trials_total,
                rounds,
                elapsed_us,
                rounds_per_sec,
                eta_s,
            } => {
                field_u64(out, "shard", *shard);
                field_u64(out, "trials_done", *trials_done);
                field_u64(out, "trials_total", *trials_total);
                field_u64(out, "rounds", *rounds);
                field_u64(out, "elapsed_us", *elapsed_us);
                field_f64(out, "rounds_per_sec", *rounds_per_sec);
                field_f64(out, "eta_s", *eta_s);
            }
            Event::Trial {
                shard,
                trial,
                rounds,
                outcome,
                winner,
            } => {
                field_u64(out, "shard", *shard);
                field_u64(out, "trial", *trial);
                field_u64(out, "rounds", *rounds);
                field_str(out, "outcome", outcome);
                if let Some(winner) = winner {
                    field_u64(out, "winner", *winner);
                }
            }
            Event::Trace {
                trial,
                gamma,
                truncated,
            } => {
                field_u64(out, "trial", *trial);
                out.push_str(",\"gamma\":[");
                for (i, g) in gamma.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_f64(out, *g);
                }
                out.push(']');
                field_bool(out, "truncated", *truncated);
            }
            Event::JobEnd {
                trials,
                consensus,
                stopped,
                capped,
                interrupted,
            } => {
                field_u64(out, "trials", *trials);
                field_u64(out, "consensus", *consensus);
                field_u64(out, "stopped", *stopped);
                field_u64(out, "capped", *capped);
                field_bool(out, "interrupted", *interrupted);
            }
            Event::QueueClaim {
                job,
                worker,
                attempt,
                expires_ms,
            } => {
                field_str(out, "job", job);
                field_str(out, "worker", worker);
                field_u64(out, "attempt", *attempt);
                field_u64(out, "expires_ms", *expires_ms);
            }
            Event::QueueRenew {
                job,
                worker,
                expires_ms,
            } => {
                field_str(out, "job", job);
                field_str(out, "worker", worker);
                field_u64(out, "expires_ms", *expires_ms);
            }
            Event::QueueTakeover {
                job,
                worker,
                stale_worker,
            } => {
                field_str(out, "job", job);
                field_str(out, "worker", worker);
                field_str(out, "stale_worker", stale_worker);
            }
            Event::QueueRelease { job, worker } => {
                field_str(out, "job", job);
                field_str(out, "worker", worker);
            }
            Event::QueueRetry {
                job,
                attempt,
                backoff_ms,
                error,
            } => {
                field_str(out, "job", job);
                field_u64(out, "attempt", *attempt);
                field_u64(out, "backoff_ms", *backoff_ms);
                field_str(out, "error", error);
            }
            Event::QueueQuarantine {
                job,
                attempts,
                error,
            } => {
                field_str(out, "job", job);
                field_u64(out, "attempts", *attempts);
                field_str(out, "error", error);
            }
            Event::QueueDone { job, worker } => {
                field_str(out, "job", job);
                field_str(out, "worker", worker);
            }
            Event::WorkerStart {
                worker,
                pool,
                lease_s,
            } => {
                field_str(out, "worker", worker);
                field_str(out, "pool", pool);
                field_f64(out, "lease_s", *lease_s);
            }
            Event::WorkerStop {
                worker,
                executed,
                done,
                quarantined,
                total,
                passes,
                interrupted,
                error,
            } => {
                field_str(out, "worker", worker);
                field_u64(out, "executed", *executed);
                field_u64(out, "done", *done);
                field_u64(out, "quarantined", *quarantined);
                field_u64(out, "total", *total);
                field_u64(out, "passes", *passes);
                field_bool(out, "interrupted", *interrupted);
                if let Some(error) = error {
                    field_str(out, "error", error);
                }
            }
            Event::CheckpointCorrupt { path, error } => {
                field_str(out, "path", path);
                field_str(out, "error", error);
            }
            Event::OrchStart {
                job,
                spec,
                ranges,
                workers,
            } => {
                field_str(out, "job", job);
                field_str(out, "spec", spec);
                field_u64(out, "ranges", *ranges);
                field_u64(out, "workers", *workers);
            }
            Event::OrchSpawn { worker, child } => {
                field_str(out, "worker", worker);
                field_u64(out, "child", *child);
            }
            Event::OrchExit { worker, ok, code } => {
                field_str(out, "worker", worker);
                field_bool(out, "ok", *ok);
                if let Some(code) = code {
                    field_u64(out, "code", *code);
                }
            }
            Event::OrchRevoke { range, worker } => {
                field_str(out, "range", range);
                field_str(out, "worker", worker);
            }
            Event::OrchQuarantine {
                range,
                attempts,
                error,
            } => {
                field_str(out, "range", range);
                field_u64(out, "attempts", *attempts);
                field_str(out, "error", error);
            }
            Event::OrchMerge { ranges, shards } => {
                field_u64(out, "ranges", *ranges);
                field_u64(out, "shards", *shards);
            }
            Event::QueueStaleDone {
                job,
                recorded,
                current,
            } => {
                field_str(out, "job", job);
                field_str(out, "recorded", recorded);
                field_str(out, "current", current);
            }
            Event::ServeStart {
                addr,
                queue,
                workers,
            } => {
                field_str(out, "addr", addr);
                field_str(out, "queue", queue);
                field_u64(out, "workers", *workers);
            }
            Event::ServeRequest {
                method,
                path,
                status,
            } => {
                field_str(out, "method", method);
                field_str(out, "path", path);
                field_u64(out, "status", *status);
            }
            Event::ServeJob { job, spec, deduped } => {
                field_str(out, "job", job);
                field_str(out, "spec", spec);
                field_bool(out, "deduped", *deduped);
            }
            Event::ServeResult { spec, hit } => {
                field_str(out, "spec", spec);
                field_bool(out, "hit", *hit);
            }
            Event::ServeBatch {
                jobs,
                accepted,
                deduped,
            } => {
                field_u64(out, "jobs", *jobs);
                field_u64(out, "accepted", *accepted);
                field_u64(out, "deduped", *deduped);
            }
            Event::ServeOverload { connections, limit } => {
                field_u64(out, "connections", *connections);
                field_u64(out, "limit", *limit);
            }
            Event::ServeGc {
                evicted,
                kept,
                bytes_freed,
            } => {
                field_u64(out, "evicted", *evicted);
                field_u64(out, "kept", *kept);
                field_u64(out, "bytes_freed", *bytes_freed);
            }
            Event::ServeStop { requests } => {
                field_u64(out, "requests", *requests);
            }
            Event::Bench {
                series,
                mean_ns,
                min_ns,
                samples,
            } => {
                field_str(out, "series", series);
                field_f64(out, "mean_ns", *mean_ns);
                field_f64(out, "min_ns", *min_ns);
                field_u64(out, "samples", *samples);
            }
        }
    }
}

fn field_str(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"");
    for c in value.chars() {
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

fn field_u64(out: &mut String, key: &str, value: u64) {
    let _ = write!(out, ",\"{key}\":{value}");
}

fn field_bool(out: &mut String, key: &str, value: bool) {
    let _ = write!(out, ",\"{key}\":{value}");
}

fn field_f64(out: &mut String, key: &str, value: f64) {
    let _ = write!(out, ",\"{key}\":");
    write_f64(out, value);
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
        let revoke = Event::OrchRevoke {
            range: "q/job.json.orch/range-0001.range.json",
            worker: "orch-2",
        }
        .encode(4, 9);
        assert!(revoke.contains("\"kind\":\"orch_revoke\""));
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
}
