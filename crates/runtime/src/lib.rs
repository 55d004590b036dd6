//! `od-runtime` — the data-driven simulation job runtime.
//!
//! The compile-time sweeps in `od-experiments` answer *one* question each;
//! this crate turns simulations into **described-and-served jobs**:
//!
//! * [`spec`] — a serialisable [`JobSpec`]: protocol by registry name and
//!   parameters (via [`od_core::registry`]), initial configuration,
//!   stopping rule, optional adversary, trial count, master seed, round
//!   cap, shard size. JSON natively, a TOML subset via [`toml_compat`].
//! * [`executor`] — the sharded executor: trials split into fixed-size
//!   shards run on rayon, each trial deriving its RNG as
//!   `rng_for(master_seed, trial)`, so results are **bit-identical** to a
//!   direct `Simulation` loop over the same seeds (the reference loop of
//!   `od-experiments`' `runtime_equivalence` test) regardless of shard
//!   size or thread schedule. Cooperative cancellation via
//!   [`CancelToken`].
//! * [`summary`] — streaming aggregation: shards fold into
//!   [`ShardSummary`]s built on exactly-mergeable integer accumulators
//!   ([`od_stats::exact`]), so merged results are byte-identical for any
//!   shard partition and memory stays `O(shards)`.
//! * [`checkpoint`] — completed shards persist to a JSON checkpoint keyed
//!   by the spec's content hash (atomic tmp + fsync + rename); an
//!   interrupted job resumes from the last finished shard, and a torn
//!   checkpoint is quarantined rather than fatal.
//! * [`queue`] — load job files, and the one leased-work loop: a worker
//!   claims *work units* (queue job files, or shard ranges of an
//!   orchestrated job) one at a time, runs each under a renewed lease,
//!   and records done/retry/quarantine sidecars
//!   ([`queue::run_queue_worker`], [`queue::QueueWorker`],
//!   [`orchestrator::run_orch_child`]).
//! * [`lease`] — the claim/lease protocol behind that loop: atomic
//!   `O_EXCL`-style claims, renewal heartbeats, stale-lease takeover
//!   that charges the lapsed attempt, retry counters with deterministic
//!   backoff, poison-job quarantine.
//! * [`orchestrator`] — fault-tolerant multi-process fan-out of one
//!   job: a supervisor splits the shard range into leased sub-ranges,
//!   keeps `N` child workers spawned (each runs the leased-work loop
//!   over the ranges), expires a dead child's leases so its ranges are
//!   taken over at once, and merges range checkpoints byte-identically
//!   to a single-process run.
//! * [`faults`] — deterministic failpoints (`OD_FAILPOINTS`), compiled
//!   to no-ops unless the `failpoints` cargo feature is on.
//!
//! The `od-run` binary wraps all of this as a CLI.
//!
//! # Quick start
//!
//! ```
//! use od_runtime::{run_job_simple, InitialSpec, JobSpec};
//!
//! let spec = JobSpec::new(
//!     "smoke",
//!     "three-majority",
//!     InitialSpec::Balanced { n: 500, k: 4 },
//!     8,      // trials
//!     2025,   // master seed
//! );
//! let report = run_job_simple(&spec).unwrap();
//! assert_eq!(report.summary.trials, 8);
//! assert!(report.summary.consensus_rate() > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod error;
pub mod executor;
pub mod faults;
pub mod json;
pub mod lease;
pub mod orchestrator;
pub mod queue;
pub mod spec;
mod spec_keys;
pub mod summary;
pub mod toml_compat;

pub use checkpoint::Checkpoint;
pub use error::RuntimeError;
pub use executor::{
    run_job, run_job_simple, run_job_with_metrics, CancelToken, JobMetrics, JobReport, RunOptions,
    ShardMetrics,
};
pub use lease::{ManualClock, QueueClock, SystemClock};
pub use orchestrator::{
    orch_dir, orchestrate, run_orch_child, Manifest, OrchOptions, OrchReport, RangePlan,
};
pub use queue::{
    default_checkpoint_path, load_job_file, run_queue_worker, QueueWorker, WorkerOptions,
    WorkerReport,
};
pub use spec::{
    AdversarySpec, ExecutionMode, GraphFamily, GraphSpec, InitialSpec, JobSpec, OpinionAssignment,
    StopRule, TelemetrySpec, TemporalSchedule, TemporalSpec, TraceSpec, WeightResolver,
    WeightScheme, WeightsSpec,
};
pub use summary::{ShardSummary, TrialResult};
