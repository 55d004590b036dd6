//! Loading job files and the leased-work loop.
//!
//! One loop, `drain`, runs every leased piece of work in the runtime.
//! A *work unit* is either a queue job file or one shard range of an
//! orchestrated job; a *pool* lists the units each pass:
//!
//! * a directory queue ([`run_queue_worker`], which `od-run <dir>` and
//!   `od-run --queue-worker` drain until idle, and
//!   [`QueueWorker::sweep`], od-serve's one-pass recovery sweep): every
//!   job file, each with its sibling checkpoint;
//! * one named job file of a directory queue ([`QueueWorker::claim`],
//!   which od-serve's workers run on each file its submissions publish):
//!   the same unit, claimed without listing the directory;
//! * an orchestration manifest ([`crate::orchestrator::run_orch_child`]):
//!   the job's shard ranges, each with its own checkpoint.
//!
//! Each unit is claimed through the [`crate::lease`] protocol before it
//! runs, completion is recorded in a `<unit>.done.json` marker, and
//! failures retry with deterministic backoff until quarantine. Any
//! number of workers (concurrent processes or sequential restarts) drain
//! one pool exactly once.

use crate::checkpoint::Checkpoint;
use crate::error::RuntimeError;
use crate::executor::{run_job, CancelToken, JobReport, RunOptions};
use crate::faults::{self, Injected};
use crate::lease::{self, ClaimOutcome, Lease, Quarantine, QueueClock, RetryState, SystemClock};
use crate::spec::JobSpec;
use crate::toml_compat::toml_to_json;
use od_telemetry::Event;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// One unit attempt a worker executed.
#[derive(Debug)]
pub struct QueueEntry {
    /// The unit's sidecar base: the job file, or the range control file.
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
    Ok(list_queue(dir)?.into_iter().map(|unit| unit.base).collect())
}

/// [`queue_files`] as work units, each flagged with whether the same
/// listing saw its lease sidecar — so a pass learns of a lease left on
/// a finished unit without a syscall per unit.
fn list_queue(dir: &Path) -> Result<Vec<WorkUnit>, RuntimeError> {
    if let Injected::Error(e) = faults::fire("queue.scan") {
        return Err(RuntimeError::io(&format!("reading {}", dir.display()), e));
    }
    let entries = std::fs::read_dir(dir)
        .map_err(|e| RuntimeError::io(&format!("reading {}", dir.display()), e))?;
    let mut files = Vec::new();
    // The job-file names of the lease sidecars in the listing.
    let mut leased = Vec::new();
    for entry in entries {
        let entry = entry
            .map_err(|e| RuntimeError::io(&format!("reading an entry of {}", dir.display()), e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return Err(RuntimeError::NonUtf8QueueEntry { entry: path });
        };
        if let Some(job) = name.strip_suffix(".lease.json") {
            leased.push(job.to_string());
            continue;
        }
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
    leased.sort();
    Ok(files
        .into_iter()
        .map(|base| {
            let name = base.file_name().and_then(|n| n.to_str()).unwrap_or("");
            WorkUnit {
                leased: leased.binary_search_by(|l| l.as_str().cmp(name)).is_ok(),
                base,
                shards: None,
            }
        })
        .collect())
}

/// Configuration of one leased worker (a queue worker or an
/// orchestration child).
#[derive(Clone)]
pub struct WorkerOptions {
    /// This worker's id, recorded in leases and telemetry.
    pub worker_id: String,
    /// Lease duration in milliseconds; a worker that goes silent for
    /// this long loses its claims to takeover.
    pub lease_ms: u64,
    /// Total attempts a unit gets before quarantine (minimum 1).
    pub max_retries: u64,
    /// First-retry backoff in milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// How long to sleep between scans while peers hold leases or
    /// backoff deadlines are pending.
    pub poll_ms: u64,
    /// Renew held leases from a background heartbeat (at a third of the
    /// lease duration) while a unit runs. Disable only in tests that
    /// want leases to expire mid-run.
    pub heartbeat: bool,
    /// The clock for every claim/expiry/backoff decision. Injectable so
    /// tests drive takeover and retry schedules deterministically; the
    /// default is [`SystemClock`].
    pub clock: Arc<dyn QueueClock>,
    /// Per-unit execution options (sink, cancellation, progress). The
    /// checkpoint path must stay unset: each unit uses its sibling
    /// checkpoint. The shard range is always the unit's own.
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

/// What one worker saw while draining a pool.
#[derive(Debug, Default)]
pub struct WorkerReport {
    /// Unit attempts *this* worker executed (a retried unit appears once
    /// per attempt), in execution order.
    pub entries: Vec<QueueEntry>,
    /// Units with a current completion marker as of the worker's last
    /// scan pass — across all workers, not just this one.
    pub done: u64,
    /// Units quarantined as of the worker's last scan pass, across all
    /// workers.
    pub quarantined: u64,
    /// Units in the pool as of the worker's last scan pass.
    pub total: u64,
    /// True when cancellation stopped the worker before the pool
    /// drained.
    pub interrupted: bool,
    /// Claim passes the worker made over the pool.
    pub passes: u64,
}

/// One leased piece of work: a queue job file, or one shard range of an
/// orchestrated job. Its lease, attempts, done and failed sidecars hang
/// off `base`, and its checkpoint is `default_checkpoint_path(base)`.
#[derive(Debug, Clone)]
pub(crate) struct WorkUnit {
    /// The job file, or the range's `range-NNNN.range.json`.
    pub base: PathBuf,
    /// The global shard range `[start, end)` the unit runs; `None` runs
    /// the whole job.
    pub shards: Option<(u64, u64)>,
    /// The pool's listing saw a lease sidecar on the unit (always false
    /// for shard ranges, which are not listed).
    pub leased: bool,
}

/// The units one worker drains.
pub(crate) enum Pool {
    /// A directory queue: its job files, listed afresh every pass, each
    /// spec loaded from its file.
    Queue(PathBuf),
    /// One job file of a directory queue (its parent), looked up by
    /// name every pass instead of listing the directory; no unit while
    /// the file does not exist.
    Job(PathBuf),
    /// An orchestration manifest's shard ranges over one job spec.
    Ranges {
        /// The control plane's `manifest.json`. The pool is gone once it
        /// disappears: the supervisor merged and cleaned up.
        manifest: PathBuf,
        /// One unit per range, in manifest order.
        units: Vec<WorkUnit>,
        /// The job spec, loaded once.
        spec: Box<JobSpec>,
        /// The job spec's content hash.
        hash: String,
    },
}

impl Pool {
    /// This pass's units, or `None` once the pool is gone.
    fn units(&self) -> Result<Option<Vec<WorkUnit>>, RuntimeError> {
        match self {
            Self::Queue(dir) => Ok(Some(list_queue(dir)?)),
            Self::Job(base) => Ok(Some(
                base.is_file()
                    .then(|| WorkUnit {
                        leased: lease::lease_path(base).exists(),
                        base: base.clone(),
                        shards: None,
                    })
                    .into_iter()
                    .collect(),
            )),
            Self::Ranges { units, .. } => Ok((!self.gone()).then(|| units.clone())),
        }
    }

    /// The pool kind `worker_start` reports.
    fn kind(&self) -> &'static str {
        match self {
            Self::Queue(_) | Self::Job(_) => "queue",
            Self::Ranges { .. } => "ranges",
        }
    }

    /// The queue directory whose done verdicts are memoised, for pools
    /// of queue job files.
    fn queue_dir(&self) -> Option<&Path> {
        match self {
            Self::Queue(dir) => Some(dir),
            Self::Job(job) => job.parent(),
            Self::Ranges { .. } => None,
        }
    }

    /// True once the pool's control plane has been removed.
    fn gone(&self) -> bool {
        matches!(self, Self::Ranges { manifest, .. } if !manifest.exists())
    }

    /// The final tally of a gone pool: the supervisor only removes the
    /// control plane once every range completed.
    fn complete(&self) -> (u64, u64, u64) {
        match self {
            Self::Queue(_) | Self::Job(_) => (0, 0, 0),
            Self::Ranges { units, .. } => (units.len() as u64, 0, units.len() as u64),
        }
    }

    /// The spec a unit runs.
    fn spec(&self, unit: &WorkUnit) -> Result<JobSpec, RuntimeError> {
        match self {
            Self::Queue(_) | Self::Job(_) => load_job_file(&unit.base),
            Self::Ranges { spec, .. } => Ok(JobSpec::clone(spec)),
        }
    }

    /// The unit's current spec hash; empty when its spec does not load,
    /// which matches no recorded hash.
    fn current_hash(&self, unit: &WorkUnit) -> String {
        match self {
            Self::Queue(_) | Self::Job(_) => load_job_file(&unit.base)
                .map(|spec| spec.content_hash())
                .unwrap_or_default(),
            Self::Ranges { hash, .. } => hash.clone(),
        }
    }
}

/// The outcome of [`run_under_lease`].
struct LeasedOutcome {
    /// The unit run's result.
    result: Result<JobReport, RuntimeError>,
    /// The heartbeat observed the lease lost to another worker (taken
    /// over after a stall).
    lease_lost: bool,
}

/// Runs `run_job(spec, run)` while renewing `unit_lease` from a
/// background heartbeat. A lost lease (takeover after a stall) cancels
/// the run: the new owner runs it, resuming from the shared checkpoint.
/// `run` must already carry the checkpoint path and shard range; this
/// function only swaps in the lease-scoped cancel token. Without a heartbeat the run watches the
/// caller's token directly. The heartbeat stops as soon as the run
/// returns, so a short unit is not held for the rest of a heartbeat
/// slice. A panicking run becomes [`RuntimeError::Panicked`], so the
/// worker thread survives it and the caller charges the attempt and
/// releases the lease.
fn run_under_lease(
    spec: &JobSpec,
    unit_lease: &Lease,
    lease_ms: u64,
    heartbeat: bool,
    run: &RunOptions,
) -> LeasedOutcome {
    let job_cancel = CancelToken::new();
    let lost_flag = Arc::new(AtomicBool::new(false));
    // The heartbeat waits on `stopped` between ticks; dropping `stop`
    // when the run returns wakes it at once.
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat_thread = heartbeat.then(|| {
        let renewer = unit_lease.clone();
        let lost = Arc::clone(&lost_flag);
        let job_cancel = job_cancel.clone();
        let outer_cancel = run.cancel.clone();
        let sink = Arc::clone(&run.sink);
        let job_str = unit_lease.job().display().to_string();
        let worker = unit_lease.worker_id().to_string();
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
    // With a heartbeat, the run watches its own token (the heartbeat
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
    let result =
        catch_unwind(AssertUnwindSafe(|| run_job(spec, &job_options))).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(RuntimeError::Panicked { message })
        });
    drop(stop);
    if let Some(handle) = heartbeat_thread {
        let _ = handle.join();
    }
    LeasedOutcome {
        result,
        lease_lost: lost_flag.load(Ordering::SeqCst),
    }
}

/// How a unit's `<unit>.done.json` marker relates to the unit's current
/// spec hash.
enum DoneState {
    /// No marker: the unit has not completed.
    Absent,
    /// The marker's recorded `spec_hash` matches the unit's current
    /// spec hash: the unit is complete.
    Current,
    /// The marker records a different (or unreadable) hash: the job
    /// file was edited or replaced after completion, so the recorded
    /// result describes a spec that no longer exists.
    Stale {
        /// The hash the marker recorded (empty when unreadable).
        recorded: String,
    },
}

/// Classifies a unit's done marker against its current spec hash. An
/// unloadable job file can match no recorded hash, so its marker is
/// stale: the job re-runs, and the re-run surfaces the real load error
/// through the normal retry/quarantine path.
fn done_state(pool: &Pool, unit: &WorkUnit) -> Result<DoneState, RuntimeError> {
    let Some(marker) = lease::DoneMarker::load(&unit.base)? else {
        return Ok(DoneState::Absent);
    };
    if !marker.spec_hash.is_empty() && marker.spec_hash == pool.current_hash(unit) {
        Ok(DoneState::Current)
    } else {
        Ok(DoneState::Stale {
            recorded: marker.spec_hash,
        })
    }
}

/// How long after a file's newest timestamp an observation of it must
/// be made before it may be memoised. Timestamps are coarse on some
/// filesystems (1 s on ext3 and many NFS servers, 2 s on FAT): an edit
/// in the same tick as an observation can leave length, mtime and ctime
/// unchanged. Past 2 s, any later write lands in a later tick.
const MEMO_SETTLE_MS: u64 = 2_000;

/// The identity of one file as the done memo keys it: a write, a
/// rename over it, or a `touch` changes at least one field — and ctime
/// cannot be set back by a user, unlike mtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime_ns: i64,
    ctime_ns: i64,
}

impl FileId {
    #[cfg(unix)]
    fn of(path: &Path) -> Option<Self> {
        use std::os::unix::fs::MetadataExt;
        let meta = std::fs::metadata(path).ok()?;
        let ns = |secs: i64, nanos: i64| secs.saturating_mul(1_000_000_000).saturating_add(nanos);
        Some(Self {
            dev: meta.dev(),
            ino: meta.ino(),
            len: meta.len(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
        })
    }

    /// Without inode numbers and ctime there is no trustworthy identity,
    /// so nothing is memoised.
    #[cfg(not(unix))]
    fn of(_path: &Path) -> Option<Self> {
        None
    }
}

/// A queue job file and its done marker, observed together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Observed {
    job: FileId,
    marker: FileId,
}

impl Observed {
    fn stat(job: &Path) -> Option<Self> {
        Some(Self {
            job: FileId::of(job)?,
            marker: FileId::of(&lease::done_path(job))?,
        })
    }

    /// True when `now_ms` lies past the settle window of every
    /// timestamp of both files.
    fn settled(&self, now_ms: u64) -> bool {
        let newest_ns = [self.job, self.marker]
            .iter()
            .map(|f| f.mtime_ns.max(f.ctime_ns))
            .max()
            .unwrap_or(i64::MAX);
        i128::from(now_ms) > i128::from(newest_ns / 1_000_000) + i128::from(MEMO_SETTLE_MS)
    }
}

/// The `Current` verdicts of queue units, per queue directory, keyed on
/// the job file's inode: a digest of the [`Observed`] identities both
/// files had when the marker was last read and found current. It lives
/// as long as the process, so a worker that drains again (od-serve's
/// embedded workers do after every submission) starts warm.
///
/// The digest is 64 bits of SipHash under the map's own random keys, in
/// place of the 80-byte identities: the memo holds one entry per done
/// job, and full identities cost measurable peak memory at a backlog of
/// thousands. A changed identity passes for the recorded one with
/// probability 2⁻⁶⁴ — the odds the stale-marker rule already takes, as
/// it compares 64-bit content hashes.
type DoneMemo = BTreeMap<PathBuf, HashMap<u64, u64>>;

static DONE_MEMO: Mutex<DoneMemo> = Mutex::new(BTreeMap::new());

fn done_memo() -> MutexGuard<'static, DoneMemo> {
    DONE_MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when the unit's done marker is current (`DoneState::Current`).
/// For a queue unit whose job file and marker still have the identities
/// memoised with an earlier `Current` verdict, this costs two stats and
/// reads neither file. Anything else — a miss, a changed identity, a
/// failed stat — reads the bytes, and the verdict is memoised only when
/// it is `Current`, both files are past [`MEMO_SETTLE_MS`] on `clock`,
/// and a second stat finds them unchanged. Every unit whose job file
/// and marker were both stated is appended to `seen` (by job inode).
fn marker_current(
    pool: &Pool,
    unit: &WorkUnit,
    clock: &dyn QueueClock,
    seen: &mut Vec<u64>,
) -> Result<bool, RuntimeError> {
    let Some(dir) = pool.queue_dir() else {
        return Ok(matches!(done_state(pool, unit)?, DoneState::Current));
    };
    let before = Observed::stat(&unit.base);
    if let Some(observed) = before {
        seen.push(observed.job.ino);
        if let Some(units) = done_memo().get(dir) {
            if units.get(&observed.job.ino) == Some(&units.hasher().hash_one(observed)) {
                return Ok(true);
            }
        }
    }
    let current = matches!(done_state(pool, unit)?, DoneState::Current);
    if let Some(observed) = before {
        let record = current
            && observed.settled(clock.now_ms())
            && Observed::stat(&unit.base) == Some(observed);
        let mut memo = done_memo();
        if record && !memo.contains_key(dir) {
            memo.insert(dir.to_path_buf(), HashMap::new());
        }
        if let Some(units) = memo.get_mut(dir) {
            if record {
                let digest = units.hasher().hash_one(observed);
                units.insert(observed.job.ino, digest);
            } else {
                units.remove(&observed.job.ino);
            }
        }
    }
    Ok(current)
}

/// Drops the memo entries of a queue's job files that a full pass did
/// not see (deleted, or renamed over). Only a listing sees every file,
/// so a named job file's pool prunes nothing.
fn prune_done_memo(pool: &Pool, mut seen: Vec<u64>) {
    let Pool::Queue(dir) = pool else {
        return;
    };
    seen.sort_unstable();
    let mut memo = done_memo();
    if let Some(units) = memo.get_mut(dir) {
        units.retain(|ino, _| seen.binary_search(ino).is_ok());
        if units.is_empty() {
            memo.remove(dir);
        }
    }
}

/// Withdraws a stale done marker (recorded hash `recorded`) so the unit
/// re-runs against its current spec. Called with the unit's lease held,
/// which serializes it against every other marker writer.
///
/// The stale sibling checkpoint (keyed to the old spec) is removed
/// *before* the marker: a crash between the two steps then leaves a
/// stale marker that is withdrawn again on the next pass, whereas the
/// opposite order would leave a markerless unit whose stale checkpoint
/// fails every re-run with [`RuntimeError::CheckpointMismatch`] until
/// quarantine. Retry state from the unit's previous life is cleared so
/// the re-run starts at attempt 1.
fn withdraw_stale_done(
    pool: &Pool,
    unit: &WorkUnit,
    recorded: &str,
    options: &WorkerOptions,
) -> Result<(), RuntimeError> {
    let ckpt = default_checkpoint_path(&unit.base);
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
    if !lease::withdraw_done(&unit.base, recorded)? {
        return Ok(()); // a peer already withdrew or replaced it
    }
    RetryState::clear(&unit.base)?;
    let sink = &options.run.sink;
    if sink.enabled() {
        sink.emit(&Event::QueueStaleDone {
            job: &unit.base.display().to_string(),
            recorded,
            current: &pool.current_hash(unit),
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
    drain(&Pool::Queue(dir.to_path_buf()), options)
}

/// A worker over one directory queue that drains it any number of
/// times between one `worker_start` and one `worker_stop` on its bus:
/// od-serve's embedded workers, which claim each job file their service
/// publishes by name ([`QueueWorker::claim`]) and sweep the whole queue
/// in one pass for recovery ([`QueueWorker::sweep`]).
/// [`run_queue_worker`] is such a worker draining until the queue is
/// idle.
pub struct QueueWorker<'a> {
    dir: PathBuf,
    life: Lifetime<'a>,
}

impl<'a> QueueWorker<'a> {
    /// Starts a worker on the queue `dir`: emits `worker_start`.
    pub fn start(dir: &Path, options: &'a WorkerOptions) -> Self {
        Self {
            dir: dir.to_path_buf(),
            life: Lifetime::start(options, "queue"),
        }
    }

    /// One claim pass over the listed queue: every unit it can claim
    /// runs, and every other unit is left as it is — held by a live
    /// peer, in backoff, or listed after this pass began — for a later
    /// sweep, without sleeping or listing again. The report's tally
    /// counts the units the pass found done or quarantined plus those
    /// it ran to either end.
    ///
    /// # Errors
    ///
    /// As [`run_queue_worker`]; a claim error fails the sweep only when
    /// nothing else in the pass could progress.
    pub fn sweep(&mut self) -> Result<WorkerReport, RuntimeError> {
        drain_into(&Pool::Queue(self.dir.clone()), &mut self.life, true)
    }

    /// The same claim loop over only the job file `job` of the queue —
    /// done and quarantine checks, backoff, the lease claim, the done
    /// re-check under it, the run, the done marker, the release — with
    /// each pass looking the file up by name instead of listing the
    /// directory, so a pass costs O(1), not O(queue). A file that does
    /// not exist is no unit, and the report's tally covers `job` only.
    /// This is how a caller that just published a job file (od-serve's
    /// submissions) gets it claimed without a directory pass;
    /// takeovers, stale markers and files placed by other means still
    /// need a [`QueueWorker::sweep`].
    ///
    /// # Errors
    ///
    /// As [`run_queue_worker`].
    pub fn claim(&mut self, job: &Path) -> Result<WorkerReport, RuntimeError> {
        drain_into(&Pool::Job(job.to_path_buf()), &mut self.life, false)
    }

    /// Stops the worker: emits `worker_stop`, restating every drain
    /// since [`QueueWorker::start`] and the `error` that ended the
    /// worker, if one did.
    pub fn stop(self, error: Option<&RuntimeError>) {
        self.life.stop(error);
    }
}

/// A worker's lifetime on its bus: `worker_start` when it begins, and a
/// `worker_stop` restating its tally over every drain when it ends.
struct Lifetime<'a> {
    options: &'a WorkerOptions,
    executed: u64,
    passes: u64,
    /// `(done, quarantined, total)` as of the last drain over the whole
    /// pool.
    tally: (u64, u64, u64),
    interrupted: bool,
}

impl<'a> Lifetime<'a> {
    /// Emits `worker_start` for a worker on a pool of kind `pool`.
    fn start(options: &'a WorkerOptions, pool: &str) -> Self {
        let sink = &options.run.sink;
        if sink.enabled() {
            sink.emit(&Event::WorkerStart {
                worker: &options.worker_id,
                pool,
                lease_s: options.lease_ms as f64 / 1e3,
            });
        }
        Self {
            options,
            executed: 0,
            passes: 0,
            tally: (0, 0, 0),
            interrupted: false,
        }
    }

    /// Emits `worker_stop`.
    fn stop(self, error: Option<&RuntimeError>) {
        let sink = &self.options.run.sink;
        if sink.enabled() {
            let error = error.map(ToString::to_string);
            let (done, quarantined, total) = self.tally;
            sink.emit(&Event::WorkerStop {
                worker: &self.options.worker_id,
                executed: self.executed,
                done,
                quarantined,
                total,
                passes: self.passes,
                interrupted: self.interrupted,
                error: error.as_deref(),
            });
        }
    }
}

/// The leased-work loop behind every worker: claims each pending unit of
/// `pool`, runs it under a renewed lease with its own checkpoint, and
/// records the outcome in the unit's sidecars — a done marker, or a
/// retry with backoff, or quarantine after `max_retries` attempts.
/// Returns when every unit is done or quarantined (also by *other*
/// workers), when the pool is gone, or when cancelled.
///
/// The drain is a worker's whole lifetime: `worker_start` and
/// `worker_stop` (the report's tally, or the error that ended it)
/// bracket its events, so even a worker that claims nothing leaves a
/// valid bus.
///
/// # Errors
///
/// Returns scan/lease/sidecar I/O errors while the pool exists, and a
/// spec error when `options.run.checkpoint_path` is set.
pub(crate) fn drain(pool: &Pool, options: &WorkerOptions) -> Result<WorkerReport, RuntimeError> {
    let mut life = Lifetime::start(options, pool.kind());
    let outcome = drain_into(pool, &mut life, false);
    life.stop(outcome.as_ref().err());
    outcome
}

/// One drain of `pool` within the worker lifetime `life`, which adds up
/// its attempts and passes — and, for a drain over the whole pool, takes
/// its tally. With `one_pass` the drain stops after its first pass.
fn drain_into(
    pool: &Pool,
    life: &mut Lifetime<'_>,
    one_pass: bool,
) -> Result<WorkerReport, RuntimeError> {
    let mut report = WorkerReport::default();
    let outcome = drain_report(pool, life.options, &mut report, one_pass);
    life.executed += report.entries.len() as u64;
    life.passes += report.passes;
    life.interrupted |= report.interrupted;
    if !matches!(pool, Pool::Job(_)) {
        life.tally = (report.done, report.quarantined, report.total);
    }
    outcome.map(|()| report)
}

/// The body of [`drain`]: fills `report` in.
fn drain_report(
    pool: &Pool,
    options: &WorkerOptions,
    report: &mut WorkerReport,
    one_pass: bool,
) -> Result<(), RuntimeError> {
    if options.run.checkpoint_path.is_some() {
        return Err(RuntimeError::Spec(
            "checkpoint_path does not apply to a leased worker; \
             each unit uses its sibling <file>.checkpoint.json"
                .to_string(),
        ));
    }
    let (done, quarantined, total) = match drain_passes(pool, options, report, one_pass) {
        Ok(Some(tally)) => tally,
        // The drain was cut short, so recount for the report.
        Ok(None) => {
            report.interrupted = true;
            tally(pool, options)?
        }
        // An error once the control plane is gone means the supervisor's
        // merge won the race: the pool is complete.
        Err(_) if pool.gone() => pool.complete(),
        Err(e) => return Err(e),
    };
    report.done = done;
    report.quarantined = quarantined;
    report.total = total;
    Ok(())
}

/// Runs claim passes until a pass finds nothing left to claim — then
/// returns its `(done, quarantined, total)` tally — or until
/// cancellation (`None`). With `one_pass` it returns after the first
/// pass whatever it found, and that pass's tally also counts the units
/// it ran to done or quarantine. Executed attempts and passes go into
/// `report`.
fn drain_passes(
    pool: &Pool,
    options: &WorkerOptions,
    report: &mut WorkerReport,
    one_pass: bool,
) -> Result<Option<(u64, u64, u64)>, RuntimeError> {
    let sink = &options.run.sink;
    // Consecutive scan passes stalled on a claim error with no other
    // path to progress; a transient error clears on the retry pass, a
    // persistent one propagates instead of spinning forever.
    let mut stalled_passes = 0u32;
    loop {
        let Some(units) = pool.units()? else {
            return Ok(Some(pool.complete()));
        };
        report.passes += 1;
        let mut claimed_any = false;
        let mut pending = false;
        let mut claim_error: Option<RuntimeError> = None;
        // This pass's tally; an idle pass reports it as the final count.
        let mut done = 0u64;
        let mut quarantined = 0u64;
        let mut seen = Vec::with_capacity(units.len());
        for unit in &units {
            if options.run.cancel.is_cancelled() {
                return Ok(None);
            }
            // A unit whose marker is stale (job file edited after it
            // completed) is *not* skipped: it falls through to the
            // claim, and the marker is withdrawn under the lease. Both
            // checks run on every unit, so a unit that is done and
            // quarantined counts in both tallies.
            let is_done = marker_current(pool, unit, &*options.clock, &mut seen)?;
            let is_quarantined = lease::quarantine_path(&unit.base).exists();
            done += u64::from(is_done);
            quarantined += u64::from(is_quarantined);
            if is_done || is_quarantined {
                if unit.leased {
                    match reap_lease(unit, options) {
                        Ok(true) => {}
                        // The holder is live: it is about to release.
                        Ok(false) => pending = true,
                        Err(e) => {
                            claim_error = Some(e);
                            pending = true;
                        }
                    }
                }
                continue;
            }
            let retry = RetryState::load(&unit.base)?;
            if let Some(state) = &retry {
                if state.next_ms > options.clock.now_ms() {
                    pending = true; // backoff deadline not reached
                    continue;
                }
            }
            let attempt = retry.as_ref().map_or(1, |s| s.attempts + 1);
            let (unit_lease, takeover_of, displaced_attempt) = match lease::claim(
                &unit.base,
                &options.worker_id,
                options.lease_ms,
                attempt,
                &options.clock,
            ) {
                Ok(ClaimOutcome::Claimed {
                    lease,
                    takeover_of,
                    displaced_attempt,
                }) => (lease, takeover_of, displaced_attempt),
                Ok(ClaimOutcome::Held { .. }) => {
                    pending = true; // a live peer owns it
                    continue;
                }
                Err(e) => {
                    // Transient claim failures (e.g. an injected I/O
                    // error) leave the unit for the next pass; the error
                    // only propagates when the whole pool stalls on it.
                    claim_error = Some(e);
                    pending = true;
                    continue;
                }
            };
            claimed_any = true;
            // A peer may have finished the unit between scan and claim;
            // re-check under the claim. A current marker is honored, a
            // stale one (the job file changed after that completion) is
            // withdrawn here — the lease is held, so the withdrawal is
            // serialized against every other writer — and the unit runs.
            let withdrawn = match done_state(pool, unit) {
                Ok(DoneState::Absent) => Ok(()),
                Ok(DoneState::Current) => {
                    unit_lease.release()?;
                    done += 1;
                    continue;
                }
                Ok(DoneState::Stale { recorded }) => {
                    withdraw_stale_done(pool, unit, &recorded, options)
                }
                Err(e) => Err(e),
            };
            if let Err(e) = withdrawn {
                unit_lease.release()?;
                return Err(e);
            }
            let unit_str = unit.base.display().to_string();
            if sink.enabled() {
                if let Some(stale) = &takeover_of {
                    sink.emit(&Event::QueueTakeover {
                        job: &unit_str,
                        worker: &options.worker_id,
                        stale_worker: stale,
                    });
                }
            }
            // The displaced holder let its lease lapse mid-attempt (it
            // died, or stalled past the expiry): charge that attempt
            // like any failure, and leave the unit to its backoff.
            if let (Some(dead), Some(stale)) = (displaced_attempt, &takeover_of) {
                let running = match unit.shards {
                    Some((start, end)) => format!("shards [{start}, {end})"),
                    None => unit_str.clone(),
                };
                let error =
                    format!("worker '{stale}' died while running {running} on attempt {dead}");
                let hash = Some(pool.current_hash(unit)).filter(|h| !h.is_empty());
                let quarantine = charge_failure(unit, dead, &error, hash, options)?;
                quarantined += u64::from(quarantine);
                pending |= !quarantine;
                unit_lease.release()?;
                continue;
            }
            if sink.enabled() {
                sink.emit(&Event::QueueClaim {
                    job: &unit_str,
                    worker: &options.worker_id,
                    attempt,
                    expires_ms: unit_lease.expires_ms(),
                });
            }
            let (job_name, spec_hash, result, lease_lost) = match pool.spec(unit) {
                Ok(spec) => {
                    let run = RunOptions {
                        checkpoint_path: Some(default_checkpoint_path(&unit.base)),
                        shard_range: unit.shards,
                        ..options.run.clone()
                    };
                    let outcome = run_under_lease(
                        &spec,
                        &unit_lease,
                        options.lease_ms,
                        options.heartbeat,
                        &run,
                    );
                    (
                        Some(spec.name.clone()),
                        Some(spec.content_hash()),
                        outcome.result,
                        outcome.lease_lost,
                    )
                }
                Err(e) => (None, None, Err(e), false),
            };
            let result = match result {
                Ok(job) if job.interrupted => {
                    if sink.enabled() {
                        sink.emit(&Event::QueueRelease {
                            job: &unit_str,
                            worker: &options.worker_id,
                        });
                    }
                    // Graceful release: completed shards are already
                    // checkpointed, no retry is charged.
                    unit_lease.release()?;
                    report.entries.push(QueueEntry {
                        path: unit.base.clone(),
                        job_name,
                        spec_hash,
                        result: Ok(job),
                    });
                    if lease_lost && !options.run.cancel.is_cancelled() {
                        continue; // the new owner finishes it
                    }
                    return Ok(None);
                }
                Ok(job) => {
                    let hash = spec_hash.as_deref().unwrap_or_default();
                    lease::write_done(&unit.base, hash, &job.summary.to_json())?;
                    RetryState::clear(&unit.base)?;
                    if sink.enabled() {
                        sink.emit(&Event::QueueDone {
                            job: &unit_str,
                            worker: &options.worker_id,
                        });
                    }
                    unit_lease.release()?;
                    done += 1;
                    Ok(job)
                }
                Err(_) if pool.gone() => {
                    // The control plane vanished mid-run (merge and
                    // cleanup won the race): nothing is left to charge.
                    let _ = unit_lease.release();
                    return Ok(Some(pool.complete()));
                }
                Err(e) => {
                    let wrapped = RuntimeError::Job {
                        path: unit.base.clone(),
                        spec_hash: spec_hash.clone(),
                        source: Box::new(e),
                    };
                    let quarantine =
                        charge_failure(unit, attempt, &wrapped, spec_hash.clone(), options)?;
                    quarantined += u64::from(quarantine);
                    unit_lease.release()?;
                    Err(wrapped)
                }
            };
            report.entries.push(QueueEntry {
                path: unit.base.clone(),
                job_name,
                spec_hash,
                result,
            });
        }
        prune_done_memo(pool, seen);
        if one_pass {
            return match claim_error {
                Some(e) if !claimed_any && !progress_possible(pool, &units, options) => Err(e),
                _ => Ok(Some((done, quarantined, units.len() as u64))),
            };
        }
        if claimed_any {
            stalled_passes = 0;
            continue;
        }
        if !pending {
            // Every unit is done or quarantined (or the pool is empty):
            // this pass's tally is the report.
            return Ok(Some((done, quarantined, units.len() as u64)));
        }
        match claim_error {
            Some(e) if !progress_possible(pool, &units, options) => {
                // Nothing claimed, nothing else runnable, and a claim
                // failed: the pool is stalled on that error.
                stalled_passes += 1;
                if stalled_passes >= 3 {
                    return Err(e);
                }
            }
            _ => stalled_passes = 0,
        }
        if options.run.cancel.is_cancelled() {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(options.poll_ms.max(1)));
    }
}

/// Removes a lease left on a finished (done or quarantined) unit: a
/// worker killed between recording the outcome and releasing leaves one
/// behind, and no claim would ever touch the unit again. The unit is
/// claimed — an expired lease is taken over, and charges nothing, since
/// the unit is finished — and released at once. Returns false while a
/// live holder keeps the lease.
fn reap_lease(unit: &WorkUnit, options: &WorkerOptions) -> Result<bool, RuntimeError> {
    let claimed = lease::claim(
        &unit.base,
        &options.worker_id,
        options.lease_ms,
        1,
        &options.clock,
    )?;
    let ClaimOutcome::Claimed {
        lease, takeover_of, ..
    } = claimed
    else {
        return Ok(false);
    };
    let sink = &options.run.sink;
    if let Some(stale) = &takeover_of {
        if sink.enabled() {
            sink.emit(&Event::QueueTakeover {
                job: &unit.base.display().to_string(),
                worker: &options.worker_id,
                stale_worker: stale,
            });
        }
    }
    lease.release()?;
    Ok(true)
}

/// Charges a failed attempt: quarantine once the attempt budget is
/// spent, a retry with deterministic backoff otherwise. Returns true
/// when the unit was quarantined.
fn charge_failure(
    unit: &WorkUnit,
    attempt: u64,
    error: &dyn std::fmt::Display,
    spec_hash: Option<String>,
    options: &WorkerOptions,
) -> Result<bool, RuntimeError> {
    let sink = &options.run.sink;
    let unit_str = unit.base.display().to_string();
    let error_str = error.to_string();
    let quarantine = attempt >= options.max_retries.max(1);
    if quarantine {
        Quarantine {
            error: error_str.clone(),
            attempts: attempt,
            spec_hash,
        }
        .save(&unit.base)?;
        RetryState::clear(&unit.base)?;
        if sink.enabled() {
            sink.emit(&Event::QueueQuarantine {
                job: &unit_str,
                attempts: attempt,
                error: &error_str,
            });
        }
    } else {
        let backoff = lease::backoff_ms(attempt, options.backoff_base_ms, options.backoff_cap_ms);
        RetryState {
            attempts: attempt,
            next_ms: options.clock.now_ms().saturating_add(backoff),
            last_error: error_str.clone(),
        }
        .save(&unit.base)?;
        if sink.enabled() {
            sink.emit(&Event::QueueRetry {
                job: &unit_str,
                attempt,
                backoff_ms: backoff,
                error: &error_str,
            });
        }
    }
    Ok(quarantine)
}

/// Recounts `(done, quarantined, total)` over the pool as it stands. A
/// stale marker is not a completion: the recorded result does not
/// describe the unit's current spec.
fn tally(pool: &Pool, options: &WorkerOptions) -> Result<(u64, u64, u64), RuntimeError> {
    let Some(units) = pool.units()? else {
        return Ok(pool.complete());
    };
    let mut done = 0u64;
    let mut quarantined = 0u64;
    let mut seen = Vec::with_capacity(units.len());
    for unit in &units {
        done += u64::from(marker_current(pool, unit, &*options.clock, &mut seen)?);
        quarantined += u64::from(lease::quarantine_path(&unit.base).exists());
    }
    prune_done_memo(pool, seen);
    Ok((done, quarantined, units.len() as u64))
}

/// True when some unit could still become runnable without this
/// worker's claims succeeding: a peer holds a live lease (it will finish
/// or expire) or a backoff deadline is still in the future.
fn progress_possible(pool: &Pool, units: &[WorkUnit], options: &WorkerOptions) -> bool {
    units.iter().any(|unit| {
        if matches!(
            marker_current(pool, unit, &*options.clock, &mut Vec::new()),
            Ok(true)
        ) || lease::quarantine_path(&unit.base).exists()
        {
            return false;
        }
        if let Ok(lease::LeaseState::Held(info)) = lease::read_lease(&unit.base) {
            if info.expires_ms > options.clock.now_ms() {
                return true;
            }
        }
        matches!(
            RetryState::load(&unit.base),
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

    fn worker_options(id: &str) -> WorkerOptions {
        WorkerOptions {
            worker_id: id.to_string(),
            poll_ms: 2,
            backoff_base_ms: 0, // retries are immediately eligible
            ..WorkerOptions::default()
        }
    }

    #[test]
    fn queue_runs_jobs_in_name_order_with_checkpoints() {
        let dir = temp_dir("order");
        std::fs::write(dir.join("b_second.json"), small_job("second", 2)).unwrap();
        std::fs::write(dir.join("a_first.json"), small_job("first", 1)).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a job").unwrap();
        let entries = run_queue_worker(&dir, &worker_options("w1"))
            .unwrap()
            .entries;
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
        let report = run_queue_worker(&dir, &worker_options("w1")).unwrap();
        // The broken file is quarantined after its attempts while the
        // good job completes.
        assert_eq!((report.done, report.quarantined, report.total), (1, 1, 2));
        let (broken, good): (Vec<_>, Vec<_>) = report
            .entries
            .iter()
            .partition(|e| e.path.ends_with("broken.json"));
        assert_eq!(broken.len(), 3, "one entry per attempt");
        assert!(broken.iter().all(|e| e.result.is_err()));
        assert_eq!(good.len(), 1);
        assert!(good[0].result.is_ok());
        assert!(lease::quarantine_path(&dir.join("broken.json")).exists());
        assert!(lease::done_path(&dir.join("good.json")).exists());
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
        let mut options = worker_options("w1");
        options.max_retries = 1;
        let entries = run_queue_worker(&dir, &options).unwrap().entries;
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
    fn worker_done_summary_matches_run_job() {
        let dir = temp_dir("worker_equiv");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("same", 7)).unwrap();
        let spec = load_job_file(&job).unwrap();
        let direct = run_job(&spec, &RunOptions::default()).unwrap();
        run_queue_worker(&dir, &worker_options("w1")).unwrap();
        let done = std::fs::read_to_string(lease::done_path(&job)).unwrap();
        let done = crate::json::parse(&done).unwrap();
        assert_eq!(
            done.get("summary").unwrap().to_string_compact(),
            direct.summary.to_json().to_string_compact()
        );
        assert_eq!(
            done.get("spec_hash").and_then(crate::json::Json::as_str),
            Some(spec.content_hash().as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
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
    fn worker_honors_a_done_marker_only_after_validating_its_hash() {
        let dir = temp_dir("foreign_marker");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("mixed", 4)).unwrap();
        lease::write_done(&job, "somehash", &crate::json::Json::object()).unwrap();
        // "somehash" is stale, so the job re-runs once.
        let report = run_queue_worker(&dir, &worker_options("w1")).unwrap();
        assert_eq!(report.done, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_lease_on_a_done_job_is_reaped_without_a_rerun() {
        let dir = temp_dir("reap_lease");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("reap", 2)).unwrap();
        let hash = load_job_file(&job).unwrap().content_hash();
        lease::write_done(&job, &hash, &crate::json::Json::object()).unwrap();
        // A worker killed between writing the marker and releasing.
        let clock = Arc::new(lease::ManualClock::new(1_000));
        let clock_dyn: Arc<dyn QueueClock> = clock.clone();
        let dead = lease::claim(&job, "dead", 500, 1, &clock_dyn).unwrap();
        assert!(matches!(dead, ClaimOutcome::Claimed { .. }));
        clock.advance(1_000);

        let sink = Arc::new(od_telemetry::MemorySink::new());
        let mut options = worker_options("w1");
        options.clock = clock;
        options.run.sink = sink.clone();
        let report = run_queue_worker(&dir, &options).unwrap();
        assert!(report.entries.is_empty(), "the done job must not re-run");
        assert_eq!((report.done, report.total), (1, 1));
        assert!(!lease::lease_path(&job).exists(), "lease left behind");
        let lines = sink.lines().join("\n");
        assert!(lines.contains("\"kind\":\"queue_takeover\""), "{lines}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The queue clock reading `offset_ms` past the wall clock, which
    /// file timestamps follow.
    fn clock_past_now(offset_ms: u64) -> Arc<lease::ManualClock> {
        Arc::new(lease::ManualClock::new(SystemClock.now_ms() + offset_ms))
    }

    /// True when the memo holds a `Current` verdict for `job`'s inode.
    #[cfg(unix)]
    fn memoised(dir: &Path, job: &Path) -> bool {
        use std::os::unix::fs::MetadataExt;
        let ino = std::fs::metadata(job).unwrap().ino();
        done_memo()
            .get(dir)
            .is_some_and(|units| units.contains_key(&ino))
    }

    fn memo_entries(dir: &Path) -> usize {
        done_memo().get(dir).map_or(0, HashMap::len)
    }

    /// Drains `dir` with a queue clock past the settle window, so the
    /// done verdicts of the pass that finds nothing to do are memoised.
    fn drain_warm(dir: &Path) {
        let mut options = worker_options("warm");
        options.clock = clock_past_now(10 * MEMO_SETTLE_MS);
        run_queue_worker(dir, &options).unwrap();
    }

    /// Re-runs a memoised done job after `edit` rewrites it to a
    /// same-length spec with the old mtime, and checks the stale-marker
    /// rule still fires.
    #[cfg(unix)]
    fn memoised_job_edited_to_same_length(name: &str, edit: impl Fn(&Path, &str)) {
        let dir = temp_dir(name);
        let job = dir.join("job.json");
        let original = small_job("mut", 3);
        std::fs::write(&job, &original).unwrap();
        drain_warm(&dir);
        assert!(memoised(&dir, &job), "the done verdict was not memoised");
        let old_marker = std::fs::read_to_string(lease::done_path(&job)).unwrap();
        let old_mtime = std::fs::metadata(&job).unwrap().modified().unwrap();

        let edited = original.replace("\"trials\": 6", "\"trials\": 9");
        assert_eq!(edited.len(), original.len());
        assert_ne!(edited, original);
        edit(&job, &edited);
        std::fs::File::options()
            .write(true)
            .open(&job)
            .unwrap()
            .set_modified(old_mtime)
            .unwrap();
        assert_eq!(
            std::fs::metadata(&job).unwrap().modified().unwrap(),
            old_mtime
        );

        let sink = Arc::new(od_telemetry::MemorySink::new());
        let mut options = worker_options("w2");
        options.clock = clock_past_now(10 * MEMO_SETTLE_MS);
        options.run.sink = sink.clone();
        let report = run_queue_worker(&dir, &options).unwrap();
        assert_eq!(report.entries.len(), 1, "the edited job must re-run");
        assert_eq!(report.entries[0].result.as_ref().unwrap().summary.trials, 9);
        let lines = sink.lines().join("\n");
        assert!(lines.contains("\"kind\":\"queue_stale_done\""), "{lines}");
        let marker = std::fs::read_to_string(lease::done_path(&job)).unwrap();
        assert_ne!(marker, old_marker, "marker must be rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn memoised_done_job_edited_in_place_is_rerun() {
        use std::os::unix::fs::MetadataExt;
        memoised_job_edited_to_same_length("memo_in_place", |job, edited| {
            let ino = std::fs::metadata(job).unwrap().ino();
            std::fs::write(job, edited).unwrap();
            assert_eq!(std::fs::metadata(job).unwrap().ino(), ino);
        });
    }

    #[cfg(unix)]
    #[test]
    fn memoised_done_job_replaced_by_rename_is_rerun() {
        memoised_job_edited_to_same_length("memo_rename", |job, edited| {
            let tmp = job.with_extension("tmp");
            std::fs::write(&tmp, edited).unwrap();
            std::fs::rename(&tmp, job).unwrap();
        });
    }

    #[cfg(unix)]
    #[test]
    fn observations_inside_the_settle_window_are_not_memoised() {
        let dir = temp_dir("memo_settle");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("settle", 4)).unwrap();
        // The files are fresh at the clock's reading: nothing is kept.
        let clock = clock_past_now(0);
        let mut options = worker_options("w1");
        options.clock = clock.clone();
        assert_eq!(run_queue_worker(&dir, &options).unwrap().done, 1);
        assert!(!memoised(&dir, &job));
        // Once the window has passed, the same verdict is kept.
        clock.advance(MEMO_SETTLE_MS + 1_000);
        assert_eq!(run_queue_worker(&dir, &options).unwrap().done, 1);
        assert!(memoised(&dir, &job));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn memo_entries_of_deleted_job_files_are_dropped() {
        let dir = temp_dir("memo_prune");
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        std::fs::write(dir.join("b.json"), small_job("b", 2)).unwrap();
        drain_warm(&dir);
        assert_eq!(memo_entries(&dir), 2);
        std::fs::remove_file(dir.join("b.json")).unwrap();
        drain_warm(&dir);
        assert_eq!(memo_entries(&dir), 1);
        assert!(memoised(&dir, &dir.join("a.json")));
        std::fs::remove_file(dir.join("a.json")).unwrap();
        drain_warm(&dir);
        assert_eq!(memo_entries(&dir), 0);
        assert!(
            !done_memo().contains_key(&dir),
            "empty queues leave no entry"
        );
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

    /// A directory no listing can read: a job file with a non-UTF-8 name.
    #[cfg(unix)]
    fn make_unlistable(dir: &Path) {
        use std::os::unix::ffi::OsStrExt;
        std::fs::write(dir.join(std::ffi::OsStr::from_bytes(b"bad\xff.json")), "{}").unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn named_jobs_are_claimed_without_listing_the_directory() {
        let dir = temp_dir("named");
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        std::fs::write(dir.join("b.json"), small_job("b", 2)).unwrap();
        make_unlistable(&dir);
        assert!(run_queue_worker(&dir, &worker_options("w0")).is_err());

        let options = worker_options("w1");
        let mut worker = QueueWorker::start(&dir, &options);
        let report = worker.claim(&dir.join("a.json")).unwrap();
        assert_eq!((report.done, report.quarantined, report.total), (1, 0, 1));
        assert_eq!(report.entries.len(), 1);
        assert!(lease::done_path(&dir.join("a.json")).exists());
        assert!(!lease::lease_path(&dir.join("a.json")).exists());
        assert!(
            !lease::done_path(&dir.join("b.json")).exists(),
            "b was not named"
        );

        // A missing named file is no unit.
        let gone = worker.claim(&dir.join("gone.json")).unwrap();
        assert!(gone.entries.is_empty());
        assert_eq!((gone.done, gone.total), (0, 0));
        assert!(!dir.join("gone.json.lease.json").exists());
        assert!(!dir.join("gone.json.attempts.json").exists());

        // The done marker is honoured: a second drain runs nothing.
        let again = worker.claim(&dir.join("a.json")).unwrap();
        assert!(again.entries.is_empty());
        assert_eq!((again.done, again.total, again.passes), (1, 1, 1));
        worker.stop(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn named_job_bytes_match_a_directory_drain() {
        let listed = temp_dir("named_bytes_listed");
        let named = temp_dir("named_bytes_named");
        for dir in [&listed, &named] {
            std::fs::write(dir.join("job.json"), small_job("same", 7)).unwrap();
        }
        run_queue_worker(&listed, &worker_options("w1")).unwrap();
        let options = worker_options("w1");
        let mut worker = QueueWorker::start(&named, &options);
        worker.claim(&named.join("job.json")).unwrap();
        worker.stop(None);
        for file in ["job.json.done.json", "job.json.checkpoint.json"] {
            assert_eq!(
                std::fs::read(listed.join(file)).unwrap(),
                std::fs::read(named.join(file)).unwrap(),
                "{file}"
            );
        }
        let _ = std::fs::remove_dir_all(&listed);
        let _ = std::fs::remove_dir_all(&named);
    }

    #[test]
    fn named_jobs_retry_then_quarantine_like_listed_ones() {
        let dir = temp_dir("named_poison");
        let poison = dir.join("poison.json");
        std::fs::write(&poison, small_job("p", 9).replace("three-majority", "nope")).unwrap();
        let mut options = worker_options("w1");
        options.max_retries = 2;
        let report = QueueWorker::start(&dir, &options).claim(&poison).unwrap();
        assert_eq!((report.done, report.quarantined, report.total), (0, 1, 1));
        assert_eq!(report.entries.len(), 2, "one entry per attempt");
        assert_eq!(Quarantine::load(&poison).unwrap().attempts, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn a_named_drain_keeps_the_memo_of_files_it_did_not_name() {
        let dir = temp_dir("named_memo");
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        std::fs::write(dir.join("b.json"), small_job("b", 2)).unwrap();
        drain_warm(&dir);
        assert_eq!(memo_entries(&dir), 2);
        let mut options = worker_options("w1");
        options.clock = clock_past_now(10 * MEMO_SETTLE_MS);
        let report = QueueWorker::start(&dir, &options)
            .claim(&dir.join("a.json"))
            .unwrap();
        assert_eq!((report.done, report.total), (1, 1));
        assert_eq!(memo_entries(&dir), 2, "a named drain pruned the memo");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `kind` of each line on a memory sink.
    fn kinds(sink: &od_telemetry::MemorySink) -> Vec<String> {
        sink.lines()
            .iter()
            .map(|line| {
                let event = crate::json::parse(line).unwrap();
                event
                    .get("kind")
                    .and_then(crate::json::Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// The last line of a memory sink, parsed.
    fn last_event(sink: &od_telemetry::MemorySink) -> crate::json::Json {
        crate::json::parse(sink.lines().last().unwrap()).unwrap()
    }

    fn field(event: &crate::json::Json, key: &str) -> String {
        event.get(key).unwrap().to_string_compact()
    }

    #[test]
    fn a_single_drain_brackets_its_bus_with_worker_start_and_stop() {
        let dir = temp_dir("lifecycle");
        let run = |options: &WorkerOptions| {
            let sink = Arc::new(od_telemetry::MemorySink::new());
            let mut options = options.clone();
            options.run.sink = sink.clone();
            (run_queue_worker(&dir, &options), sink)
        };

        // A worker that finds nothing still leaves a two-line bus.
        let (report, sink) = run(&worker_options("idle"));
        assert_eq!(report.unwrap().passes, 1);
        assert_eq!(kinds(&sink), ["worker_start", "worker_stop"]);
        let start = crate::json::parse(&sink.lines()[0]).unwrap();
        assert_eq!(field(&start, "pool"), "\"queue\"");
        assert_eq!(field(&start, "lease_s"), "30");

        // One job: claim to done inside the brackets, the tally on stop.
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        let (report, sink) = run(&worker_options("w1"));
        let report = report.unwrap();
        let kinds = kinds(&sink);
        assert_eq!(kinds.first().map(String::as_str), Some("worker_start"));
        assert_eq!(kinds.last().map(String::as_str), Some("worker_stop"));
        assert!(kinds.iter().any(|k| k == "queue_done"), "{kinds:?}");
        let stop = last_event(&sink);
        for (key, value) in [
            ("executed", 1),
            ("done", 1),
            ("quarantined", 0),
            ("total", 1),
            ("passes", report.passes),
        ] {
            assert_eq!(field(&stop, key), value.to_string(), "{key}");
        }
        assert_eq!(field(&stop, "interrupted"), "false");
        assert!(stop.get("error").is_none());

        // Interrupted and failed drains close their bus too.
        let cancelled = worker_options("w2");
        cancelled.run.cancel.cancel();
        let (report, sink) = run(&cancelled);
        assert!(report.unwrap().interrupted);
        assert_eq!(field(&last_event(&sink), "interrupted"), "true");
        let mut misconfigured = worker_options("w3");
        misconfigured.run.checkpoint_path = Some(dir.join("x.checkpoint.json"));
        let (report, sink) = run(&misconfigured);
        assert!(report.is_err());
        let stop = last_event(&sink);
        assert_eq!(field(&stop, "kind"), "\"worker_stop\"");
        assert!(field(&stop, "error").contains("checkpoint_path"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_queue_worker_brackets_its_lifetime_not_each_drain() {
        let dir = temp_dir("lifetime");
        std::fs::write(dir.join("a.json"), small_job("a", 1)).unwrap();
        std::fs::write(dir.join("b.json"), small_job("b", 2)).unwrap();
        let sink = Arc::new(od_telemetry::MemorySink::new());
        let mut options = worker_options("w1");
        options.run.sink = sink.clone();
        let mut worker = QueueWorker::start(&dir, &options);
        let claimed = worker.claim(&dir.join("a.json")).unwrap();
        let swept = worker.sweep().unwrap();
        let idle: Vec<_> = (0..3).map(|_| worker.sweep().unwrap()).collect();
        let again = worker.claim(&dir.join("b.json")).unwrap();
        worker.stop(None);

        let kinds = kinds(&sink);
        let brackets: Vec<_> = kinds.iter().filter(|k| k.starts_with("worker_")).collect();
        assert_eq!(brackets, ["worker_start", "worker_stop"], "{kinds:?}");
        assert_eq!(kinds.first().map(String::as_str), Some("worker_start"));
        let stop = last_event(&sink);
        let passes = claimed.passes
            + swept.passes
            + idle.iter().map(|r| r.passes).sum::<u64>()
            + again.passes;
        // Attempts and passes add up; the tally is the last sweep's, not
        // that of the named claim after it.
        for (key, value) in [
            ("executed", 2),
            ("done", 2),
            ("quarantined", 0),
            ("total", 2),
            ("passes", passes),
        ] {
            assert_eq!(field(&stop, key), value.to_string(), "{key}");
        }
        assert_eq!(again.total, 1);
        assert!(stop.get("error").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sweep_is_one_pass_that_leaves_peer_held_units_for_the_next() {
        let dir = temp_dir("one_pass");
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&a, small_job("a", 1)).unwrap();
        std::fs::write(&b, small_job("b", 2)).unwrap();
        let clock: Arc<dyn QueueClock> = Arc::new(SystemClock);
        let peer = lease::claim(&a, "peer", 600_000, 1, &clock).unwrap();
        let ClaimOutcome::Claimed { lease: peer, .. } = peer else {
            panic!("the peer could not claim a");
        };

        let options = worker_options("w1");
        let mut worker = QueueWorker::start(&dir, &options);
        let report = worker.sweep().unwrap();
        assert_eq!(report.passes, 1, "a sweep must not wait out a peer");
        assert_eq!(report.entries.len(), 1);
        assert!(report.entries[0].path.ends_with("b.json"));
        assert!(lease::done_path(&b).exists());
        assert!(!lease::done_path(&a).exists(), "a belongs to the peer");
        // The tally counts b, which this pass ran to done.
        assert_eq!((report.done, report.quarantined, report.total), (1, 0, 2));

        // Once the peer lets go, the next sweep takes a.
        peer.release().unwrap();
        let next = worker.sweep().unwrap();
        assert_eq!(next.passes, 1);
        assert_eq!((next.done, next.total, next.entries.len()), (2, 2, 1));
        worker.stop(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_rejects_checkpoint_override() {
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
