//! `od-serve` — a persistent HTTP job service over the durable queue.
//!
//! The queue machinery in `od-runtime` (crash-safe leases, retries,
//! quarantine, hash-validated done markers) already makes a directory
//! of job files a durable work queue; this crate puts a service shell
//! around it. The HTTP layer is hand-rolled on [`std::net::TcpListener`]
//! — the build environment is offline, so no HTTP crate, the same
//! constraint that put `rayon` under `crates/vendor/`.
//!
//! * [`http`] — the minimal HTTP/1.1 slice (request parsing with
//!   keep-alive semantics, fixed-length responses with the
//!   `Connection: keep-alive`/`close` verdict).
//! * [`state`] — job lifecycle (`queued` / `running` / `retrying` /
//!   `done` / `quarantined`), read straight from the queue's sidecar
//!   files; the service keeps no job state in memory.
//! * [`store`] — the content-hash-keyed results store: validated done
//!   markers are copied to `<queue>/.results/<spec_hash>.json`, so a
//!   byte-identical spec is answered without re-running; retention
//!   caps trim it oldest-first without ever evicting a result a queue
//!   job still references.
//! * [`service`] — the [`Server`]: a concurrent accept loop (capped
//!   per-connection threads, typed `503` overload past the cap,
//!   keep-alive request loops with idle timeouts on the injectable
//!   clock) plus embedded worker threads that claim each submitted
//!   job file by name and sweep the whole queue for recovery
//!   ([`od_runtime::QueueWorker`]), so one process is a complete
//!   submit-execute-serve system.
//!
//! # Endpoints
//!
//! | Method & path        | Meaning                                      |
//! |----------------------|----------------------------------------------|
//! | `POST /jobs`         | submit a `JobSpec` JSON; 201 queued, 200 deduped |
//! | `POST /batches`      | submit a JSON array of specs; per-item dedup verdicts |
//! | `GET /jobs`          | list every queued job with its lifecycle     |
//! | `GET /jobs/<id>`     | one job's lifecycle (+ summary when done)    |
//! | `GET /jobs/<id>/events` | the job's telemetry lines (JSONL)         |
//! | `GET /results/<spec-hash>` | the stored result for a spec hash      |
//! | `GET /metrics`       | the `od-serve-metrics-v1` counters document  |
//!
//! Job ids are `job-<spec_hash>`: submission is idempotent by
//! construction, and the dedup contract (one execution, identical
//! results for identical specs) rests on the stale-marker validation
//! the queue applies before honoring a `<job>.done.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod service;
pub mod state;
pub mod store;

pub use service::{FlushSink, ServeOptions, Server};
pub use state::JobStatus;
pub use store::{GcCaps, GcReport};
