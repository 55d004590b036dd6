//! Loading job files and draining directory queues.
//!
//! Two drain modes share one on-disk layout:
//!
//! * [`run_queue`] — the simple single-process drain: every job file in
//!   sorted order, each with its sibling checkpoint.
//! * [`run_queue_worker`] — the crash-safe multi-process drain: each
//!   job is claimed through the [`crate::lease`] protocol before it
//!   runs, completion is recorded in a `<job>.done.json` marker, and
//!   failures retry with deterministic backoff until quarantine. Any
//!   number of workers (concurrent processes or sequential restarts)
//!   drain one directory exactly once.

use crate::checkpoint::Checkpoint;
use crate::error::RuntimeError;
use crate::executor::{run_job, CancelToken, JobReport, RunOptions};
use crate::faults::{self, Injected};
use crate::lease::{self, ClaimOutcome, Lease, Quarantine, QueueClock, RetryState, SystemClock};
use crate::spec::JobSpec;
use crate::toml_compat::toml_to_json;
use od_telemetry::Event;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Loads a job spec from a `.json` or `.toml` file (by extension; files
/// without a recognised extension are tried as JSON).
///
/// # Errors
///
/// Returns I/O, parse, or spec errors.
pub fn load_job_file(path: &Path) -> Result<JobSpec, RuntimeError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RuntimeError::io(&format!("reading {}", path.display()), e))?;
    let is_toml = path
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("toml"));
    if is_toml {
        JobSpec::from_json(&toml_to_json(&text)?)
    } else {
        JobSpec::from_json_text(&text)
    }
}

/// The default checkpoint path for a job file: sibling
/// `<file name>.checkpoint.json` (the full name, extension included, so
/// `a.json` and `a.toml` never share a checkpoint).
#[must_use]
pub fn default_checkpoint_path(job_path: &Path) -> PathBuf {
    let name = job_path
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("job");
    job_path.with_file_name(format!("{name}.checkpoint.json"))
}

/// One entry of a queue run.
#[derive(Debug)]
pub struct QueueEntry {
    /// The job file.
    pub path: PathBuf,
    /// The loaded spec's name (when it loaded).
    pub job_name: Option<String>,
    /// The loaded spec's content hash (when it loaded).
    pub spec_hash: Option<String>,
    /// The run result; errors are wrapped as [`RuntimeError::Job`] so
    /// they carry the job file and spec hash wherever they surface.
    pub result: Result<JobReport, RuntimeError>,
}

/// Sidecar suffixes the queue scan must never mistake for job files.
const SIDECAR_SUFFIXES: [&str; 5] = [
    ".checkpoint.json",
    ".lease.json",
    ".failed.json",
    ".done.json",
    ".attempts.json",
];

/// Lists the job files (`*.json` / `*.toml`, excluding sidecar files
/// like `*.checkpoint.json` and the queue-v2 lease/done/failed/attempts
/// markers) in a directory, sorted by file name for a deterministic
/// queue order.
///
/// # Errors
///
/// Returns I/O errors from reading the directory — including an
/// unreadable individual entry, which names the directory rather than
/// silently dropping the job — and [`RuntimeError::NonUtf8QueueEntry`]
/// for an entry whose file name is not UTF-8 (job/sidecar classification
/// is defined over UTF-8 names, so such an entry can be neither run nor
/// safely skipped).
pub fn queue_files(dir: &Path) -> Result<Vec<PathBuf>, RuntimeError> {
    if let Injected::Error(e) = faults::fire("queue.scan") {
        return Err(RuntimeError::io(&format!("reading {}", dir.display()), e));
    }
    let entries = std::fs::read_dir(dir)
        .map_err(|e| RuntimeError::io(&format!("reading {}", dir.display()), e))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry
            .map_err(|e| RuntimeError::io(&format!("reading an entry of {}", dir.display()), e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return Err(RuntimeError::NonUtf8QueueEntry { entry: path });
        };
        if SIDECAR_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        let is_job = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.eq_ignore_ascii_case("json") || e.eq_ignore_ascii_case("toml"));
        if is_job {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Runs every job file in a directory queue, in sorted order, each with
/// its default sibling checkpoint. A failing job is recorded and the
/// queue continues; cancellation stops the queue after the current job.
///
/// # Errors
///
/// Returns I/O errors from listing the directory, and a spec error when
/// `options.checkpoint_path` is set — one checkpoint file cannot serve
/// several jobs, so per-job sibling checkpoints are not overridable
/// (per-job errors are captured in the returned entries). A directory
/// carrying queue-v2 sidecars (lease/done/failed/attempts markers) is
/// refused with [`RuntimeError::MixedQueueModes`]: the plain drain has
/// no claim protocol and would re-run jobs the worker protocol already
/// completed or quarantined.
pub fn run_queue(dir: &Path, options: &RunOptions) -> Result<Vec<QueueEntry>, RuntimeError> {
    if options.checkpoint_path.is_some() {
        return Err(RuntimeError::Spec(
            "run_queue: checkpoint_path does not apply to a queue; \
             each job uses its sibling <job file>.checkpoint.json"
                .to_string(),
        ));
    }
    let files = queue_files(dir)?;
    for path in &files {
        for sidecar in [
            lease::lease_path(path),
            lease::done_path(path),
            lease::quarantine_path(path),
            lease::attempts_path(path),
        ] {
            if sidecar.exists() {
                return Err(RuntimeError::MixedQueueModes {
                    job: path.clone(),
                    sidecar,
                });
            }
        }
    }
    let mut entries = Vec::new();
    for path in files {
        if options.cancel.is_cancelled() {
            break;
        }
        let (job_name, spec_hash, result) = match load_job_file(&path) {
            Ok(spec) => {
                let job_options = RunOptions {
                    checkpoint_path: Some(default_checkpoint_path(&path)),
                    ..options.clone()
                };
                (
                    Some(spec.name.clone()),
                    Some(spec.content_hash()),
                    run_job(&spec, &job_options),
                )
            }
            Err(e) => (None, None, Err(e)),
        };
        let result = result.map_err(|e| RuntimeError::Job {
            path: path.clone(),
            spec_hash: spec_hash.clone(),
            source: Box::new(e),
        });
        entries.push(QueueEntry {
            path,
            job_name,
            spec_hash,
            result,
        });
    }
    Ok(entries)
}

/// Configuration of one crash-safe queue worker.
#[derive(Clone)]
pub struct WorkerOptions {
    /// This worker's id, recorded in leases and telemetry.
    pub worker_id: String,
    /// Lease duration in milliseconds; a worker that goes silent for
    /// this long loses its claims to takeover.
    pub lease_ms: u64,
    /// Total attempts a job gets before quarantine (minimum 1).
    pub max_retries: u64,
    /// First-retry backoff in milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// How long to sleep between scans while peers hold leases or
    /// backoff deadlines are pending.
    pub poll_ms: u64,
    /// Renew held leases from a background heartbeat (at a third of the
    /// lease duration) while a job runs. Disable only in tests that
    /// want leases to expire mid-run.
    pub heartbeat: bool,
    /// The clock for every claim/expiry/backoff decision. Injectable so
    /// tests drive takeover and retry schedules deterministically; the
    /// default is [`SystemClock`].
    pub clock: Arc<dyn QueueClock>,
    /// Per-job execution options (sink, cancellation, progress). The
    /// checkpoint path must stay unset: each job uses its sibling
    /// checkpoint.
    pub run: RunOptions,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            worker_id: format!("worker-{}", std::process::id()),
            lease_ms: 30_000,
            max_retries: 3,
            backoff_base_ms: 500,
            backoff_cap_ms: 30_000,
            poll_ms: 50,
            heartbeat: true,
            clock: Arc::new(SystemClock),
            run: RunOptions::default(),
        }
    }
}

impl std::fmt::Debug for WorkerOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerOptions")
            .field("worker_id", &self.worker_id)
            .field("lease_ms", &self.lease_ms)
            .field("max_retries", &self.max_retries)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("backoff_cap_ms", &self.backoff_cap_ms)
            .field("poll_ms", &self.poll_ms)
            .field("heartbeat", &self.heartbeat)
            .finish_non_exhaustive()
    }
}

/// What one worker saw while draining a queue.
#[derive(Debug)]
pub struct WorkerReport {
    /// Jobs *this* worker executed (a retried job appears once per
    /// attempt), in execution order.
    pub entries: Vec<QueueEntry>,
    /// Jobs with a current completion marker as of the worker's last
    /// scan pass — across all workers, not just this one.
    pub done: u64,
    /// Jobs quarantined as of the worker's last scan pass, across all
    /// workers.
    pub quarantined: u64,
    /// Job files in the queue as of the worker's last scan pass.
    pub total: u64,
    /// True when cancellation stopped the worker before the queue
    /// drained.
    pub interrupted: bool,
}

/// The outcome of running one claimed job.
struct LeasedRun {
    job_name: Option<String>,
    spec_hash: Option<String>,
    result: Result<JobReport, RuntimeError>,
    /// The heartbeat observed the lease lost to another worker.
    lease_lost: bool,
}

/// The outcome of [`run_under_lease`].
pub(crate) struct LeasedOutcome {
    /// The job run's result.
    pub result: Result<JobReport, RuntimeError>,
    /// The heartbeat observed the lease lost to another worker (taken
    /// over after a stall, or revoked by a supervisor).
    pub lease_lost: bool,
}

/// Runs `run_job(spec, run)` while renewing `job_lease` from a
/// background heartbeat. A lost lease (takeover after a stall, or a
/// supervisor revocation) cancels the job: the new owner runs it,
/// resuming from the shared checkpoint. `run` must already carry the
/// checkpoint path (and, for orchestrated ranges, the shard range);
/// this function only swaps in the lease-scoped cancel token. Without a
/// heartbeat the job watches the caller's token directly. The heartbeat
/// stops as soon as the job returns, so a short job is not held for the
/// rest of a heartbeat slice.
pub(crate) fn run_under_lease(
    spec: &JobSpec,
    job_lease: &Lease,
    lease_ms: u64,
    heartbeat: bool,
    run: &RunOptions,
) -> LeasedOutcome {
    let job_cancel = CancelToken::new();
    let lost_flag = Arc::new(AtomicBool::new(false));
    // The heartbeat waits on `stopped` between ticks; dropping `stop`
    // when the job returns wakes it at once.
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat_thread = heartbeat.then(|| {
        let renewer = job_lease.clone();
        let lost = Arc::clone(&lost_flag);
        let job_cancel = job_cancel.clone();
        let outer_cancel = run.cancel.clone();
        let sink = Arc::clone(&run.sink);
        let job_str = job_lease.job().display().to_string();
        let worker = job_lease.worker_id().to_string();
        // Renew at a third of the lease: two renewals can fail or be
        // delayed before the lease actually expires.
        let interval = Duration::from_millis((lease_ms / 3).max(10));
        std::thread::spawn(move || {
            let slice = Duration::from_millis(25);
            let mut waited = Duration::ZERO;
            loop {
                if stopped.recv_timeout(slice.min(interval)) != Err(RecvTimeoutError::Timeout) {
                    return;
                }
                if outer_cancel.is_cancelled() {
                    job_cancel.cancel();
                }
                waited += slice;
                if waited < interval {
                    continue;
                }
                waited = Duration::ZERO;
                match renewer.renew() {
                    Ok(info) => {
                        if sink.enabled() {
                            sink.emit(&Event::QueueRenew {
                                job: &job_str,
                                worker: &worker,
                                expires_ms: info.expires_ms,
                            });
                        }
                    }
                    Err(RuntimeError::Lease { .. }) => {
                        // Taken over: stop working for the new owner.
                        lost.store(true, Ordering::SeqCst);
                        job_cancel.cancel();
                        return;
                    }
                    Err(_) => {} // transient I/O; the next tick retries
                }
            }
        })
    });
    // With a heartbeat, the job watches its own token (the heartbeat
    // forwards worker-level cancellation); without one, it watches the
    // caller's token directly.
    let cancel = if heartbeat {
        job_cancel.clone()
    } else {
        run.cancel.clone()
    };
    let job_options = RunOptions {
        cancel,
        ..run.clone()
    };
    let result = run_job(spec, &job_options);
    drop(stop);
    if let Some(handle) = heartbeat_thread {
        let _ = handle.join();
    }
    LeasedOutcome {
        result,
        lease_lost: lost_flag.load(Ordering::SeqCst),
    }
}

/// Runs one claimed job with its sibling checkpoint under the worker's
/// heartbeat (see [`run_under_lease`]).
fn run_leased_job(path: &Path, job_lease: &Lease, options: &WorkerOptions) -> LeasedRun {
    let spec = match load_job_file(path) {
        Ok(spec) => spec,
        Err(e) => {
            return LeasedRun {
                job_name: None,
                spec_hash: None,
                result: Err(e),
                lease_lost: false,
            }
        }
    };
    let run = RunOptions {
        checkpoint_path: Some(default_checkpoint_path(path)),
        ..options.run.clone()
    };
    let outcome = run_under_lease(&spec, job_lease, options.lease_ms, options.heartbeat, &run);
    LeasedRun {
        job_name: Some(spec.name.clone()),
        spec_hash: Some(spec.content_hash()),
        result: outcome.result,
        lease_lost: outcome.lease_lost,
    }
}

/// How a job's `<job>.done.json` marker relates to the job file's
/// current content.
enum DoneState {
    /// No marker: the job has not completed.
    Absent,
    /// The marker's recorded `spec_hash` matches the job file's current
    /// content hash: the job is complete.
    Current,
    /// The marker records a different (or unreadable) hash: the job
    /// file was edited or replaced after completion, so the recorded
    /// result describes a spec that no longer exists.
    Stale {
        /// The hash the marker recorded (empty when unreadable).
        recorded: String,
    },
}

/// Classifies a job's done marker against the job file's current
/// content hash. An unloadable job file can match no recorded hash, so
/// its marker is stale: the job re-runs, and the re-run surfaces the
/// real load error through the normal retry/quarantine path.
fn done_state(path: &Path) -> Result<DoneState, RuntimeError> {
    let Some(marker) = lease::DoneMarker::load(path)? else {
        return Ok(DoneState::Absent);
    };
    let current = load_job_file(path)
        .map(|spec| spec.content_hash())
        .unwrap_or_default();
    if !marker.spec_hash.is_empty() && marker.spec_hash == current {
        Ok(DoneState::Current)
    } else {
        Ok(DoneState::Stale {
            recorded: marker.spec_hash,
        })
    }
}

/// Withdraws a stale done marker (recorded hash `recorded`) so the job
/// re-runs against its current content. Called with the job's lease
/// held, which serializes it against every other marker writer.
///
/// The stale sibling checkpoint (keyed to the old spec) is removed
/// *before* the marker: a crash between the two steps then leaves a
/// stale marker that is withdrawn again on the next pass, whereas the
/// opposite order would leave a markerless job whose stale checkpoint
/// fails every re-run with [`RuntimeError::CheckpointMismatch`] until
/// quarantine. Retry state from the job's previous life is cleared so
/// the re-run starts at attempt 1.
fn withdraw_stale_done(
    path: &Path,
    recorded: &str,
    options: &WorkerOptions,
) -> Result<(), RuntimeError> {
    let ckpt = default_checkpoint_path(path);
    if let Ok(Some(cp)) = Checkpoint::load(&ckpt) {
        if cp.spec_hash == recorded {
            if let Err(e) = std::fs::remove_file(&ckpt) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    return Err(RuntimeError::io(
                        &format!("removing stale checkpoint {}", ckpt.display()),
                        e,
                    ));
                }
            }
        }
    }
    if !lease::withdraw_done(path, recorded)? {
        return Ok(()); // a peer already withdrew or replaced it
    }
    RetryState::clear(path)?;
    let sink = &options.run.sink;
    if sink.enabled() {
        let job_str = path.display().to_string();
        let current = load_job_file(path)
            .map(|spec| spec.content_hash())
            .unwrap_or_default();
        sink.emit(&Event::QueueStaleDone {
            job: &job_str,
            recorded,
            current: &current,
        });
    }
    Ok(())
}

/// Drains a directory queue as a crash-safe worker: claims each job
/// through the lease protocol, runs it with its sibling checkpoint,
/// records completion in `<job>.done.json`, retries failures with
/// capped exponential backoff, and quarantines poison jobs to
/// `<job>.failed.json` after `max_retries` attempts. Returns when every
/// job is done or quarantined (also by *other* workers), or when
/// cancelled.
///
/// Safe to run concurrently with any number of workers on one
/// directory: the lease protocol guarantees a job is executed by at
/// most one worker at a time, and the done markers guarantee each job
/// completes exactly once. A marker is only honored while its recorded
/// `spec_hash` matches the job file's current content hash — editing or
/// replacing a completed job file withdraws the stale marker (and the
/// stale sibling checkpoint) and the job re-runs as its new content.
///
/// # Errors
///
/// Returns scan/lease/sidecar I/O errors (the queue infrastructure —
/// as opposed to job failures, which are retried and recorded in the
/// report), and a spec error when `options.run.checkpoint_path` is set.
pub fn run_queue_worker(dir: &Path, options: &WorkerOptions) -> Result<WorkerReport, RuntimeError> {
    if options.run.checkpoint_path.is_some() {
        return Err(RuntimeError::Spec(
            "run_queue_worker: checkpoint_path does not apply to a queue; \
             each job uses its sibling <job file>.checkpoint.json"
                .to_string(),
        ));
    }
    let sink = &options.run.sink;
    let mut entries = Vec::new();
    // Consecutive scan passes stalled on a claim error with no other
    // path to progress; a transient error clears on the retry pass, a
    // persistent one propagates instead of spinning forever.
    let mut stalled_passes = 0u32;
    'drain: loop {
        let files = queue_files(dir)?;
        let mut claimed_any = false;
        let mut pending = false;
        let mut claim_error: Option<RuntimeError> = None;
        // This pass's tally; an idle pass reports it as the final count.
        let mut done = 0u64;
        let mut quarantined = 0u64;
        for path in &files {
            if options.run.cancel.is_cancelled() {
                break 'drain;
            }
            // A job whose marker is stale (file edited after it
            // completed) is *not* skipped: it falls through to the
            // claim, and the marker is withdrawn under the lease. Both
            // checks run on every file, so a job that is done and
            // quarantined counts in both tallies.
            let is_done = matches!(done_state(path)?, DoneState::Current);
            let is_quarantined = lease::quarantine_path(path).exists();
            done += u64::from(is_done);
            quarantined += u64::from(is_quarantined);
            if is_done || is_quarantined {
                continue;
            }
            let retry = RetryState::load(path)?;
            if let Some(state) = &retry {
                if state.next_ms > options.clock.now_ms() {
                    pending = true; // backoff deadline not reached
                    continue;
                }
            }
            let attempt = retry.as_ref().map_or(1, |s| s.attempts + 1);
            let (job_lease, takeover_of) = match lease::claim(
                path,
                &options.worker_id,
                options.lease_ms,
                attempt,
                &options.clock,
            ) {
                Ok(ClaimOutcome::Claimed { lease, takeover_of }) => (lease, takeover_of),
                Ok(ClaimOutcome::Held { .. }) => {
                    pending = true; // a live peer owns it
                    continue;
                }
                Err(e) => {
                    // Transient claim failures (e.g. an injected I/O
                    // error) leave the job for the next pass; the error
                    // only propagates when the whole queue stalls on it.
                    claim_error = Some(e);
                    pending = true;
                    continue;
                }
            };
            claimed_any = true;
            // A peer may have finished the job between scan and claim;
            // re-check under the claim. A current marker is honored, a
            // stale one (the job file changed after that completion) is
            // withdrawn here — the lease is held, so the withdrawal is
            // serialized against every other writer — and the job runs.
            match done_state(path) {
                Ok(DoneState::Absent) => {}
                Ok(DoneState::Current) => {
                    job_lease.release()?;
                    continue;
                }
                Ok(DoneState::Stale { recorded }) => {
                    if let Err(e) = withdraw_stale_done(path, &recorded, options) {
                        job_lease.release()?;
                        return Err(e);
                    }
                }
                Err(e) => {
                    job_lease.release()?;
                    return Err(e);
                }
            }
            let job_str = path.display().to_string();
            if sink.enabled() {
                if let Some(stale) = &takeover_of {
                    sink.emit(&Event::QueueTakeover {
                        job: &job_str,
                        worker: &options.worker_id,
                        stale_worker: stale,
                    });
                }
                sink.emit(&Event::QueueClaim {
                    job: &job_str,
                    worker: &options.worker_id,
                    attempt,
                    expires_ms: job_lease.expires_ms(),
                });
            }
            let run = run_leased_job(path, &job_lease, options);
            match run.result {
                Ok(report) if report.interrupted => {
                    entries.push(QueueEntry {
                        path: path.clone(),
                        job_name: run.job_name,
                        spec_hash: run.spec_hash,
                        result: Ok(report),
                    });
                    if sink.enabled() {
                        sink.emit(&Event::QueueRelease {
                            job: &job_str,
                            worker: &options.worker_id,
                        });
                    }
                    // Graceful release: completed shards are already
                    // checkpointed, no retry is charged.
                    job_lease.release()?;
                    if run.lease_lost && !options.run.cancel.is_cancelled() {
                        continue; // the new owner finishes it
                    }
                    break 'drain;
                }
                Ok(report) => {
                    let hash = run.spec_hash.clone().unwrap_or_default();
                    lease::write_done(path, &hash, &report.summary.to_json())?;
                    RetryState::clear(path)?;
                    if sink.enabled() {
                        sink.emit(&Event::QueueDone {
                            job: &job_str,
                            worker: &options.worker_id,
                        });
                    }
                    job_lease.release()?;
                    entries.push(QueueEntry {
                        path: path.clone(),
                        job_name: run.job_name,
                        spec_hash: run.spec_hash,
                        result: Ok(report),
                    });
                }
                Err(e) => {
                    let wrapped = RuntimeError::Job {
                        path: path.clone(),
                        spec_hash: run.spec_hash.clone(),
                        source: Box::new(e),
                    };
                    let error_str = wrapped.to_string();
                    if attempt >= options.max_retries.max(1) {
                        Quarantine {
                            error: error_str.clone(),
                            attempts: attempt,
                            spec_hash: run.spec_hash.clone(),
                        }
                        .save(path)?;
                        RetryState::clear(path)?;
                        if sink.enabled() {
                            sink.emit(&Event::QueueQuarantine {
                                job: &job_str,
                                attempts: attempt,
                                error: &error_str,
                            });
                        }
                    } else {
                        let backoff = lease::backoff_ms(
                            attempt,
                            options.backoff_base_ms,
                            options.backoff_cap_ms,
                        );
                        RetryState {
                            attempts: attempt,
                            next_ms: options.clock.now_ms().saturating_add(backoff),
                            last_error: error_str.clone(),
                        }
                        .save(path)?;
                        if sink.enabled() {
                            sink.emit(&Event::QueueRetry {
                                job: &job_str,
                                attempt,
                                backoff_ms: backoff,
                                error: &error_str,
                            });
                        }
                    }
                    job_lease.release()?;
                    entries.push(QueueEntry {
                        path: path.clone(),
                        job_name: run.job_name,
                        spec_hash: run.spec_hash,
                        result: Err(wrapped),
                    });
                }
            }
        }
        if claimed_any {
            stalled_passes = 0;
        } else {
            if !pending {
                // Every job is done or quarantined (or the queue is
                // empty): this pass's tally is the report.
                return Ok(WorkerReport {
                    entries,
                    done,
                    quarantined,
                    total: files.len() as u64,
                    interrupted: false,
                });
            }
            match claim_error {
                Some(e) if !lease_progress_possible(&files, options) => {
                    // Nothing claimed, nothing else runnable, and a
                    // claim failed: the queue is stalled on that error.
                    stalled_passes += 1;
                    if stalled_passes >= 3 {
                        return Err(e);
                    }
                }
                _ => stalled_passes = 0,
            }
            if options.run.cancel.is_cancelled() {
                break;
            }
            std::thread::sleep(Duration::from_millis(options.poll_ms.max(1)));
        }
    }
    // Only an interruption leaves the loop; the drain was cut short, so
    // rescan for the report.
    let files = queue_files(dir)?;
    let mut done = 0u64;
    let mut quarantined = 0u64;
    for path in &files {
        // A stale marker is not a completion: the recorded result does
        // not describe the job file as it stands at exit.
        if matches!(done_state(path)?, DoneState::Current) {
            done += 1;
        }
        if lease::quarantine_path(path).exists() {
            quarantined += 1;
        }
    }
    Ok(WorkerReport {
        entries,
        done,
        quarantined,
        total: files.len() as u64,
        interrupted: true,
    })
}

/// True when some job could still become runnable without this worker's
/// claims succeeding: a peer holds a live lease (it will finish or
/// expire) or a backoff deadline is still in the future.
fn lease_progress_possible(files: &[PathBuf], options: &WorkerOptions) -> bool {
    files.iter().any(|path| {
        if matches!(done_state(path), Ok(DoneState::Current))
            || lease::quarantine_path(path).exists()
        {
            return false;
        }
        if let Ok(lease::LeaseState::Held(info)) = lease::read_lease(path) {
            if info.expires_ms > options.clock.now_ms() {
                return true;
            }
        }
        matches!(
            RetryState::load(path),
            Ok(Some(state)) if state.next_ms > options.clock.now_ms()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("od_runtime_queue_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_job(name: &str, seed: u64) -> String {
        format!(
            r#"{{
  "name": "{name}",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": 200, "k": 4}},
  "trials": 6,
  "master_seed": {seed},
  "max_rounds": 100000,
  "shard_size": 2
}}"#
        )
    }

    #[test]
    fn queue_runs_jobs_in_name_order_with_checkpoints() {
        let dir = temp_dir("order");
        std::fs::write(dir.join("b_second.json"), small_job("second", 2)).unwrap();
        std::fs::write(dir.join("a_first.json"), small_job("first", 1)).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a job").unwrap();
        let entries = run_queue(&dir, &RunOptions::default()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].job_name.as_deref(), Some("first"));
        assert_eq!(entries[1].job_name.as_deref(), Some("second"));
        for entry in &entries {
            let report = entry.result.as_ref().unwrap();
            assert_eq!(report.summary.trials, 6);
            assert!(default_checkpoint_path(&entry.path).exists());
        }
        // Checkpoints are not picked up as jobs on a second pass.
        assert_eq!(queue_files(&dir).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn toml_jobs_load_like_json() {
        let dir = temp_dir("toml");
        let toml = r#"
name = "toml job"
trials = 4
master_seed = 3
max_rounds = 100000
shard_size = 2

[protocol]
name = "voter"

[initial]
kind = "counts"
counts = [150, 50]
"#;
        std::fs::write(dir.join("job.toml"), toml).unwrap();
        let spec = load_job_file(&dir.join("job.toml")).unwrap();
        assert_eq!(spec.name, "toml job");
        assert_eq!(spec.protocol, "voter");
        assert!(spec.validate().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_job_files_are_recorded_not_fatal() {
        let dir = temp_dir("bad");
        std::fs::write(dir.join("broken.json"), "{ nope").unwrap();
        std::fs::write(dir.join("good.json"), small_job("good", 5)).unwrap();
        let entries = run_queue(&dir, &RunOptions::default()).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].result.is_err());
        assert!(entries[1].result.is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_errors_carry_job_path_and_spec_hash() {
        let dir = temp_dir("context");
        // Parses but fails validation inside run_job: the error must
        // still name the job file and the spec's content hash.
        let bad_protocol = small_job("ghost", 9).replace("three-majority", "no-such-protocol");
        std::fs::write(dir.join("ghost.json"), &bad_protocol).unwrap();
        // Fails at load: no hash is available, but the path still is.
        std::fs::write(dir.join("broken.json"), "{ nope").unwrap();
        let entries = run_queue(&dir, &RunOptions::default()).unwrap();
        assert_eq!(entries.len(), 2);

        let broken = entries[0].result.as_ref().unwrap_err();
        assert!(
            matches!(
                broken,
                RuntimeError::Job {
                    spec_hash: None,
                    ..
                }
            ),
            "got {broken:?}"
        );
        assert!(broken.to_string().contains("broken.json"), "{broken}");

        let ghost = entries[1].result.as_ref().unwrap_err();
        let expected_hash = entries[1].spec_hash.clone().unwrap();
        match ghost {
            RuntimeError::Job {
                path,
                spec_hash: Some(hash),
                ..
            } => {
                assert!(path.ends_with("ghost.json"));
                assert_eq!(hash, &expected_hash);
            }
            other => panic!("expected Job error with hash, got {other:?}"),
        }
        let rendered = ghost.to_string();
        assert!(
            rendered.contains("ghost.json") && rendered.contains(&expected_hash),
            "{rendered}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_files_skips_every_sidecar_kind() {
        let dir = temp_dir("sidecars");
        std::fs::write(dir.join("job.json"), small_job("only", 1)).unwrap();
        for sidecar in [
            "job.json.checkpoint.json",
            "job.json.lease.json",
            "job.json.failed.json",
            "job.json.done.json",
            "job.json.attempts.json",
            "job.json.checkpoint.json.corrupt",
            "job.json.lease.w1.1.0.tmp",
            "job.json.lease.w1.1.0.tomb",
        ] {
            std::fs::write(dir.join(sidecar), "{}").unwrap();
        }
        let files = queue_files(&dir).unwrap();
        assert_eq!(files.len(), 1, "got {files:?}");
        assert!(files[0].ends_with("job.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn worker_options(id: &str) -> WorkerOptions {
        WorkerOptions {
            worker_id: id.to_string(),
            poll_ms: 2,
            backoff_base_ms: 0, // retries are immediately eligible
            ..WorkerOptions::default()
        }
    }

    #[test]
    fn worker_drains_queue_and_marks_every_job_done() {
        let dir = temp_dir("worker_drain");
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        std::fs::write(dir.join("b.json"), small_job("b", 2)).unwrap();
        let report = run_queue_worker(&dir, &worker_options("w1")).unwrap();
        assert_eq!((report.done, report.quarantined, report.total), (2, 0, 2));
        assert!(!report.interrupted);
        assert_eq!(report.entries.len(), 2);
        for path in queue_files(&dir).unwrap() {
            assert!(lease::done_path(&path).exists());
            assert!(!lease::lease_path(&path).exists(), "lease left behind");
            assert!(!lease::attempts_path(&path).exists());
        }
        // A second worker finds nothing to do but reports the totals.
        let second = run_queue_worker(&dir, &worker_options("w2")).unwrap();
        assert_eq!((second.done, second.total), (2, 2));
        assert!(second.entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_done_summary_matches_plain_queue_run() {
        let dir_a = temp_dir("worker_equiv_a");
        let dir_b = temp_dir("worker_equiv_b");
        for dir in [&dir_a, &dir_b] {
            std::fs::write(dir.join("job.json"), small_job("same", 7)).unwrap();
        }
        let plain = run_queue(&dir_a, &RunOptions::default()).unwrap();
        let summary = &plain[0].result.as_ref().unwrap().summary;
        run_queue_worker(&dir_b, &worker_options("w1")).unwrap();
        let done = std::fs::read_to_string(lease::done_path(&dir_b.join("job.json"))).unwrap();
        let done = crate::json::parse(&done).unwrap();
        assert_eq!(
            done.get("summary").unwrap().to_string_compact(),
            summary.to_json().to_string_compact()
        );
        assert_eq!(
            done.get("spec_hash").and_then(crate::json::Json::as_str),
            plain[0].spec_hash.as_deref()
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn failing_job_is_retried_then_quarantined() {
        let dir = temp_dir("worker_poison");
        let poison = small_job("poison", 9).replace("three-majority", "no-such-protocol");
        std::fs::write(dir.join("poison.json"), &poison).unwrap();
        std::fs::write(dir.join("good.json"), small_job("good", 5)).unwrap();
        let sink = Arc::new(od_telemetry::MemorySink::new());
        let mut options = worker_options("w1");
        options.max_retries = 2;
        options.run.sink = sink.clone();
        let report = run_queue_worker(&dir, &options).unwrap();
        assert_eq!((report.done, report.quarantined, report.total), (1, 1, 2));
        let poison_path = dir.join("poison.json");
        let record = Quarantine::load(&poison_path).expect("quarantine record");
        assert_eq!(record.attempts, 2);
        assert!(record.error.contains("poison.json"), "{}", record.error);
        assert!(record.spec_hash.is_some());
        assert!(!lease::attempts_path(&poison_path).exists());
        assert!(!lease::lease_path(&poison_path).exists());
        // Attempt 1 retried, attempt 2 quarantined; both released.
        let failures: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.result.is_err())
            .collect();
        assert_eq!(failures.len(), 2);
        let lines = sink.lines().join("\n");
        assert!(lines.contains("\"kind\":\"queue_retry\""), "{lines}");
        assert!(lines.contains("\"kind\":\"queue_quarantine\""), "{lines}");
        assert!(lines.contains("\"kind\":\"queue_done\""), "{lines}");
        // A fresh worker does not resurrect the quarantined job.
        let again = run_queue_worker(&dir, &worker_options("w2")).unwrap();
        assert!(again.entries.is_empty());
        assert_eq!(again.quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_skips_jobs_done_by_peers_and_respects_live_leases() {
        let dir = temp_dir("worker_peers");
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        std::fs::write(dir.join("b.json"), small_job("b", 2)).unwrap();
        // a: already completed by a peer. The marker must record a's
        // real content hash — a fabricated hash is (correctly) treated
        // as stale and the job would re-run.
        let a_hash = load_job_file(&dir.join("a.json")).unwrap().content_hash();
        lease::write_done(&dir.join("a.json"), &a_hash, &crate::json::Json::object()).unwrap();
        let done_bytes = std::fs::read(lease::done_path(&dir.join("a.json"))).unwrap();
        let report = run_queue_worker(&dir, &worker_options("w2")).unwrap();
        assert_eq!(report.done, 2);
        assert_eq!(report.entries.len(), 1, "only b should run");
        assert!(report.entries[0].path.ends_with("b.json"));
        // The peer's done marker is untouched.
        assert_eq!(
            std::fs::read(lease::done_path(&dir.join("a.json"))).unwrap(),
            done_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_worker_releases_lease_and_reports_interrupted() {
        let dir = temp_dir("worker_cancel");
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        let options = worker_options("w1");
        options.run.cancel.cancel(); // cancelled before the first scan
        let report = run_queue_worker(&dir, &options).unwrap();
        assert!(report.interrupted);
        assert_eq!(report.done, 0);
        assert!(!lease::lease_path(&dir.join("a.json")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `(done, quarantined, total)` recounted from the sidecars on disk.
    fn recount(dir: &Path) -> (u64, u64, u64) {
        let files = queue_files(dir).unwrap();
        let mut done = 0;
        let mut quarantined = 0;
        for path in &files {
            let hash = load_job_file(path).unwrap().content_hash();
            if lease::DoneMarker::load(path)
                .unwrap()
                .is_some_and(|m| m.spec_hash == hash)
            {
                done += 1;
            }
            if lease::quarantine_path(path).exists() {
                quarantined += 1;
            }
        }
        (done, quarantined, files.len() as u64)
    }

    #[test]
    fn worker_report_tally_matches_a_recount_of_the_sidecars() {
        let dir = temp_dir("worker_tally");
        let write = |name: &str, seed: u64| {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, small_job(name, seed)).unwrap();
            let hash = load_job_file(&path).unwrap().content_hash();
            (path, hash)
        };
        let quarantine = |path: &Path| {
            Quarantine {
                error: "poison".to_string(),
                attempts: 3,
                spec_hash: None,
            }
            .save(path)
            .unwrap();
        };
        let summary = crate::json::Json::object();
        for (name, seed) in [("done_a", 1), ("done_b", 2)] {
            let (path, hash) = write(name, seed);
            lease::write_done(&path, &hash, &summary).unwrap();
        }
        let (quarantined, _) = write("quarantined", 3);
        quarantine(&quarantined);
        // Done and quarantined at once: counted in both tallies.
        let (both, hash) = write("both", 4);
        lease::write_done(&both, &hash, &summary).unwrap();
        quarantine(&both);
        let (stale, _) = write("stale", 5);
        lease::write_done(&stale, "0123456789abcdef", &summary).unwrap();
        write("fresh", 6);

        // A worker cancelled before its first pass still reports the
        // queue as it stands.
        let options = worker_options("w0");
        options.run.cancel.cancel();
        let cancelled = run_queue_worker(&dir, &options).unwrap();
        assert!(cancelled.interrupted);
        assert_eq!(
            (cancelled.done, cancelled.quarantined, cancelled.total),
            recount(&dir)
        );
        assert_eq!(recount(&dir), (3, 2, 6));

        let report = run_queue_worker(&dir, &worker_options("w1")).unwrap();
        assert!(!report.interrupted);
        let mut ran: Vec<_> = report.entries.iter().map(|e| e.path.clone()).collect();
        ran.sort();
        assert_eq!(ran, [dir.join("fresh.json"), stale.clone()]);
        assert_eq!(
            (report.done, report.quarantined, report.total),
            recount(&dir)
        );
        assert_eq!(recount(&dir), (5, 2, 6));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edited_done_job_is_rerun_and_its_marker_rewritten() {
        let dir = temp_dir("stale_done");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("mut", 3)).unwrap();
        run_queue_worker(&dir, &worker_options("w1")).unwrap();
        let old_marker = std::fs::read_to_string(lease::done_path(&job)).unwrap();
        let old_hash = load_job_file(&job).unwrap().content_hash();

        // Edit the completed job: its recorded result no longer
        // describes the file's content.
        let edited = small_job("mut", 3).replace("\"trials\": 6", "\"trials\": 10");
        assert_ne!(edited, small_job("mut", 3), "edit must change the spec");
        std::fs::write(&job, &edited).unwrap();
        let new_hash = load_job_file(&job).unwrap().content_hash();
        assert_ne!(old_hash, new_hash);

        let sink = Arc::new(od_telemetry::MemorySink::new());
        let mut options = worker_options("w2");
        options.run.sink = sink.clone();
        let report = run_queue_worker(&dir, &options).unwrap();
        assert_eq!(report.entries.len(), 1, "the edited job must re-run");
        assert_eq!(
            report.entries[0].result.as_ref().unwrap().summary.trials,
            10
        );
        assert_eq!((report.done, report.total), (1, 1));

        let marker = std::fs::read_to_string(lease::done_path(&job)).unwrap();
        assert_ne!(marker, old_marker, "marker must be rewritten");
        let marker = crate::json::parse(&marker).unwrap();
        assert_eq!(
            marker.get("spec_hash").and_then(crate::json::Json::as_str),
            Some(new_hash.as_str())
        );
        assert_eq!(
            marker
                .get("summary")
                .and_then(|s| s.get("trials"))
                .and_then(crate::json::Json::as_u64),
            Some(10)
        );
        // The checkpoint now belongs to the edited spec, and the
        // withdrawal was reported on the telemetry bus.
        let cp = Checkpoint::load(&default_checkpoint_path(&job))
            .unwrap()
            .expect("checkpoint for the re-run");
        assert_eq!(cp.spec_hash, new_hash);
        let lines = sink.lines().join("\n");
        assert!(lines.contains("\"kind\":\"queue_stale_done\""), "{lines}");
        assert!(lines.contains(&old_hash), "{lines}");

        // A third drain has nothing left to do.
        let idle = run_queue_worker(&dir, &worker_options("w3")).unwrap();
        assert!(idle.entries.is_empty());
        assert_eq!(idle.done, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_queue_refuses_worker_managed_directories() {
        let dir = temp_dir("mixed_modes");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("mixed", 4)).unwrap();
        lease::write_done(&job, "somehash", &crate::json::Json::object()).unwrap();
        let err = run_queue(&dir, &RunOptions::default()).unwrap_err();
        match &err {
            RuntimeError::MixedQueueModes { job: j, sidecar } => {
                assert!(j.ends_with("job.json"));
                assert!(sidecar.ends_with("job.json.done.json"));
            }
            other => panic!("expected MixedQueueModes, got {other:?}"),
        }
        assert!(err.to_string().contains("--queue-worker"), "{err}");
        // The worker drain still accepts the directory (and honors the
        // marker only after validating its hash — "somehash" is stale,
        // so the job re-runs once).
        let report = run_queue_worker(&dir, &worker_options("w1")).unwrap();
        assert_eq!(report.done, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn queue_files_names_non_utf8_entries_in_a_typed_error() {
        use std::os::unix::ffi::OsStrExt;
        let dir = temp_dir("non_utf8");
        std::fs::write(dir.join("good.json"), small_job("good", 1)).unwrap();
        let bad = std::ffi::OsStr::from_bytes(b"bad\xff.json");
        std::fs::write(dir.join(bad), "{}").unwrap();
        let err = queue_files(&dir).unwrap_err();
        assert!(
            matches!(err, RuntimeError::NonUtf8QueueEntry { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("non-UTF-8"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_rejects_checkpoint_override_like_run_queue() {
        let dir = temp_dir("worker_ckpt_override");
        let mut options = worker_options("w1");
        options.run.checkpoint_path = Some(dir.join("one.checkpoint.json"));
        assert!(matches!(
            run_queue_worker(&dir, &options),
            Err(RuntimeError::Spec(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
