//! Crash-safe claim/lease semantics for the directory queue.
//!
//! Queue v2 gives every job file a small set of *sidecar* files that
//! turn a plain directory into a durable, multi-process work queue:
//!
//! * `<job>.lease.json` — the active claim: worker id, claim time,
//!   expiry, attempt number. Created **atomically** (the lease content
//!   is written to a private temp file first, then published with
//!   [`std::fs::hard_link`], which fails if the lease already exists —
//!   the POSIX `O_EXCL` idiom with the bonus that the published file is
//!   always complete, so readers never observe a torn lease).
//! * `<job>.attempts.json` — the retry counter and the deterministic
//!   backoff deadline after a failure.
//! * `<job>.failed.json` — the poison-job quarantine record (error,
//!   attempts, spec hash) written after the retry budget is exhausted.
//! * `<job>.done.json` — the completion marker carrying the spec hash
//!   and the final merged summary. It contains **no** worker id or
//!   timestamp, so its bytes are a pure function of the spec — the
//!   chaos harness compares them against a fault-free run.
//!
//! Lease *mutations* — claim, stale-lease takeover, renewal, release —
//! are serialized per job by an OS advisory lock on `<job>.lock`
//! ([`std::fs::File::lock`]). The kernel drops an advisory lock the
//! instant its holder dies, SIGKILL included, so a crashed worker can
//! never wedge the queue the way an on-disk lock marker could. Inside
//! the critical section a claimant re-reads the lease, and either
//! reports the live holder, or displaces the expired/corrupt lease and
//! publishes its own — so two claimants can never both displace the
//! same stale lease, and a freshly published lease can never be
//! mistaken for the stale one it replaced. Displacing an expired lease
//! reports the attempt it recorded: a holder that stopped renewing
//! failed that attempt, and the claimant charges it. Readers take no
//! lock: the lease file is only ever published atomically.
//!
//! **No wall-clock in decisions**: every expiry and backoff decision
//! reads the injectable [`QueueClock`], so tests drive takeover and
//! retry schedules deterministically with [`ManualClock`].

use crate::error::RuntimeError;
use crate::faults::{self, Injected};
use crate::json::{self, Json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A millisecond clock for lease and backoff decisions. Implementations
/// must be monotone non-decreasing; nothing else is assumed.
pub trait QueueClock: Send + Sync {
    /// Current time in milliseconds.
    fn now_ms(&self) -> u64;
}

/// The production clock: milliseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl QueueClock for SystemClock {
    fn now_ms(&self) -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64)
    }
}

/// A hand-cranked clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    ms: AtomicU64,
}

impl ManualClock {
    /// Creates a clock reading `start_ms`.
    #[must_use]
    pub fn new(start_ms: u64) -> Self {
        Self {
            ms: AtomicU64::new(start_ms),
        }
    }

    /// Advances the clock by `delta_ms`.
    pub fn advance(&self, delta_ms: u64) {
        self.ms.fetch_add(delta_ms, Ordering::SeqCst);
    }
}

impl QueueClock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::SeqCst)
    }
}

/// Appends a suffix to a job file's full name: `a.json` → `a.json<suffix>`.
fn sibling(job: &Path, suffix: &str) -> PathBuf {
    let name = job.file_name().and_then(|s| s.to_str()).unwrap_or("job");
    job.with_file_name(format!("{name}{suffix}"))
}

/// The lease file guarding `job`: `<job>.lease.json`.
#[must_use]
pub fn lease_path(job: &Path) -> PathBuf {
    sibling(job, ".lease.json")
}

/// The retry-state file of `job`: `<job>.attempts.json`.
#[must_use]
pub fn attempts_path(job: &Path) -> PathBuf {
    sibling(job, ".attempts.json")
}

/// The quarantine record of `job`: `<job>.failed.json`.
#[must_use]
pub fn quarantine_path(job: &Path) -> PathBuf {
    sibling(job, ".failed.json")
}

/// The completion marker of `job`: `<job>.done.json`.
#[must_use]
pub fn done_path(job: &Path) -> PathBuf {
    sibling(job, ".done.json")
}

/// Worker ids appear in sidecar file names; anything outside
/// `[A-Za-z0-9._-]` becomes `-` so ids can never escape the directory.
fn sanitize(worker_id: &str) -> String {
    worker_id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Process-wide nonce so concurrent claims from one process never share
/// a temp file.
static CLAIM_NONCE: AtomicU64 = AtomicU64::new(0);

/// Acquires the per-job mutex serializing every lease *mutation*
/// (claim, takeover, renew, release) on `<job>.lock` — an OS advisory
/// lock, so a worker killed with SIGKILL releases it instantly, unlike
/// any on-disk marker. The lock file carries no state and is never
/// deleted (unlinking a lock file would reintroduce the classic
/// unlink/relock race); `queue_files` ignores it by extension. Readers
/// do not take the lock — the lease file is always published
/// atomically, so reads are consistent without it.
fn lock_job(job: &Path) -> Result<std::fs::File, RuntimeError> {
    let path = sibling(job, ".lock");
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| io_at(&path, "opening", e))?;
    file.lock().map_err(|e| io_at(&path, "locking", e))?;
    Ok(file)
}

fn unique_sibling(job: &Path, worker_id: &str, ext: &str) -> PathBuf {
    let nonce = CLAIM_NONCE.fetch_add(1, Ordering::Relaxed);
    sibling(
        job,
        &format!(
            ".lease.{}.{}.{nonce}.{ext}",
            sanitize(worker_id),
            std::process::id()
        ),
    )
}

/// The contents of a lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// The claiming worker's id.
    pub worker_id: String,
    /// Claim time, milliseconds on the queue clock.
    pub claim_ms: u64,
    /// Expiry time, milliseconds on the queue clock; past this instant
    /// any other worker may take the lease over.
    pub expires_ms: u64,
    /// Which attempt at the job this claim is (1-based).
    pub attempt: u64,
}

impl LeaseInfo {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("worker_id", Json::Str(self.worker_id.clone()));
        obj.insert("claim_ms", Json::Int(self.claim_ms as i64));
        obj.insert("expires_ms", Json::Int(self.expires_ms as i64));
        obj.insert("attempt", Json::Int(self.attempt as i64));
        obj
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(Self {
            worker_id: value.get("worker_id")?.as_str()?.to_string(),
            claim_ms: value.get("claim_ms")?.as_u64()?,
            expires_ms: value.get("expires_ms")?.as_u64()?,
            attempt: value.get("attempt")?.as_u64()?,
        })
    }
}

/// What a lease file currently holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseState {
    /// No lease file exists.
    Free,
    /// A lease exists with this content (possibly expired — the reader
    /// decides against its own clock).
    Held(LeaseInfo),
    /// A lease file exists but does not parse. The atomic-publish
    /// protocol never produces this; it means external interference,
    /// and it is treated like an expired lease (eligible for takeover).
    Corrupt,
}

/// Reads the current lease state of `job`.
///
/// # Errors
///
/// Returns I/O errors other than the file being absent.
pub fn read_lease(job: &Path) -> Result<LeaseState, RuntimeError> {
    let path = lease_path(job);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LeaseState::Free),
        Err(e) => return Err(RuntimeError::io(&format!("reading {}", path.display()), e)),
    };
    Ok(json::parse(&text)
        .ok()
        .as_ref()
        .and_then(LeaseInfo::from_json)
        .map_or(LeaseState::Corrupt, LeaseState::Held))
}

/// A held claim on one job. Dropping a `Lease` does **not** release it
/// (a crashed worker cannot run destructors either way); call
/// [`Lease::release`] for a graceful hand-back, or let the expiry
/// reclaim it.
#[derive(Clone)]
pub struct Lease {
    job: PathBuf,
    worker_id: String,
    lease_ms: u64,
    expires_ms: u64,
    clock: Arc<dyn QueueClock>,
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease")
            .field("job", &self.job)
            .field("worker_id", &self.worker_id)
            .field("lease_ms", &self.lease_ms)
            .finish()
    }
}

/// The outcome of a claim attempt.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// The claim succeeded. `takeover_of` names the stale worker whose
    /// expired lease was displaced, when there was one (`"unknown"` for
    /// a corrupt lease).
    Claimed {
        /// The held lease.
        lease: Lease,
        /// The displaced stale worker, if the claim went through a
        /// takeover.
        takeover_of: Option<String>,
        /// The attempt the displaced expired lease recorded: its holder
        /// stopped renewing, so that attempt failed. `None` for a fresh
        /// claim and for a corrupt lease, which records no attempt.
        displaced_attempt: Option<u64>,
    },
    /// Another worker holds an unexpired lease.
    Held {
        /// The holder's worker id.
        worker_id: String,
        /// When the holder's lease expires (queue-clock milliseconds).
        expires_ms: u64,
    },
}

fn lease_err(job: &Path, message: String) -> RuntimeError {
    RuntimeError::Lease {
        job: job.to_path_buf(),
        message,
    }
}

fn io_at(path: &Path, verb: &str, e: std::io::Error) -> RuntimeError {
    RuntimeError::io(&format!("{verb} {}", path.display()), e)
}

/// Atomically writes `content` to `path` (temp file + fsync + rename).
fn publish(path: &Path, content: &str, tmp: &Path) -> Result<(), RuntimeError> {
    write_synced(tmp, content.as_bytes())?;
    std::fs::rename(tmp, path).map_err(|e| io_at(path, "renaming to", e))
}

fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), RuntimeError> {
    use std::io::Write as _;
    let mut file = std::fs::File::create(path).map_err(|e| io_at(path, "creating", e))?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| io_at(path, "writing", e))
}

/// Attempts to claim `job` for `worker_id` with a `lease_ms` lease.
///
/// At most one claimant can succeed at any instant: the read-decide-
/// publish sequence runs under the per-job advisory lock, so a stale
/// lease is displaced and replaced in one critical section — no window
/// in which a second claimant can observe the stale lease, and no
/// window in which a freshly published lease can be mistaken for the
/// stale one it replaced. The lease file itself is still published via
/// `hard_link` of a fully synced temp file, so a reader (who takes no
/// lock) never observes a torn lease, and a claimant killed mid-claim
/// leaves either no lease or a complete one.
///
/// # Errors
///
/// Returns I/O errors from the filesystem (including injected ones at
/// the `lease.claim` failpoint); contention is **not** an error — it
/// returns [`ClaimOutcome::Held`].
pub fn claim(
    job: &Path,
    worker_id: &str,
    lease_ms: u64,
    attempt: u64,
    clock: &Arc<dyn QueueClock>,
) -> Result<ClaimOutcome, RuntimeError> {
    if let Injected::Error(e) = faults::fire("lease.claim") {
        return Err(io_at(&lease_path(job), "claiming", e));
    }
    let lease_file = lease_path(job);
    let now = clock.now_ms();
    let info = LeaseInfo {
        worker_id: worker_id.to_string(),
        claim_ms: now,
        expires_ms: now.saturating_add(lease_ms),
        attempt,
    };
    let tmp = unique_sibling(job, worker_id, "tmp");
    write_synced(&tmp, info.to_json().to_string_compact().as_bytes())?;
    let result = lock_job(job).and_then(|_guard| {
        let (takeover_of, displaced_attempt) = match read_lease(job)? {
            LeaseState::Free => (None, None),
            LeaseState::Held(holder) if holder.expires_ms > clock.now_ms() => {
                return Ok(ClaimOutcome::Held {
                    worker_id: holder.worker_id,
                    expires_ms: holder.expires_ms,
                });
            }
            LeaseState::Held(stale) => {
                displace(&lease_file)?;
                (Some(stale.worker_id), Some(stale.attempt))
            }
            LeaseState::Corrupt => {
                displace(&lease_file)?;
                (Some("unknown".to_string()), None)
            }
        };
        // O_EXCL-style publish: the link target is fully written and
        // synced, and under the mutex nothing can exist at the lease
        // path any more, so this either installs a complete lease or
        // surfaces genuine filesystem trouble.
        std::fs::hard_link(&tmp, &lease_file).map_err(|e| io_at(&lease_file, "claiming", e))?;
        Ok(ClaimOutcome::Claimed {
            lease: Lease {
                job: job.to_path_buf(),
                worker_id: worker_id.to_string(),
                lease_ms,
                expires_ms: info.expires_ms,
                clock: Arc::clone(clock),
            },
            takeover_of,
            displaced_attempt,
        })
    });
    let _ = std::fs::remove_file(&tmp);
    result
}

/// Removes a stale or corrupt lease file under the job mutex. The
/// holder may have released it between the read and this call, so an
/// already-absent file is fine.
fn displace(lease_file: &Path) -> Result<(), RuntimeError> {
    match std::fs::remove_file(lease_file) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_at(lease_file, "displacing the stale lease", e)),
    }
}

impl Lease {
    /// The job this lease guards.
    #[must_use]
    pub fn job(&self) -> &Path {
        &self.job
    }

    /// The owning worker's id.
    #[must_use]
    pub fn worker_id(&self) -> &str {
        &self.worker_id
    }

    /// The expiry instant recorded at claim time (queue-clock
    /// milliseconds). Renewals push the on-disk expiry further out;
    /// this accessor reports the initial claim's expiry.
    #[must_use]
    pub fn expires_ms(&self) -> u64 {
        self.expires_ms
    }

    /// Renews the lease: extends the expiry to `now + lease_ms` with an
    /// atomic rewrite. Refuses when the lease has been lost — taken
    /// over, released, or already expired (an expired lease may be
    /// mid-takeover by someone else; renewing it would race the new
    /// owner).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Lease`] when the lease is no longer this
    /// worker's to renew; I/O errors (including the `lease.renew`
    /// failpoint) otherwise.
    pub fn renew(&self) -> Result<LeaseInfo, RuntimeError> {
        if let Injected::Error(e) = faults::fire("lease.renew") {
            return Err(io_at(&lease_path(&self.job), "renewing", e));
        }
        let _guard = lock_job(&self.job)?;
        let now = self.clock.now_ms();
        match read_lease(&self.job)? {
            LeaseState::Held(info) if info.worker_id == self.worker_id => {
                if info.expires_ms <= now {
                    return Err(lease_err(
                        &self.job,
                        format!(
                            "lease expired at {}ms (now {now}ms); not renewing a \
                             takeover-eligible lease",
                            info.expires_ms
                        ),
                    ));
                }
                let renewed = LeaseInfo {
                    expires_ms: now.saturating_add(self.lease_ms),
                    claim_ms: info.claim_ms,
                    attempt: info.attempt,
                    worker_id: info.worker_id,
                };
                let tmp = unique_sibling(&self.job, &self.worker_id, "tmp");
                publish(
                    &lease_path(&self.job),
                    &renewed.to_json().to_string_compact(),
                    &tmp,
                )?;
                Ok(renewed)
            }
            LeaseState::Held(info) => Err(lease_err(
                &self.job,
                format!("lease now held by '{}'", info.worker_id),
            )),
            LeaseState::Free => Err(lease_err(&self.job, "lease no longer exists".to_string())),
            LeaseState::Corrupt => Err(lease_err(&self.job, "lease file is corrupt".to_string())),
        }
    }

    /// Gracefully releases the lease (removes the lease file when it is
    /// still ours). Releasing a lease that was already lost is a no-op.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or removing the lease file.
    pub fn release(self) -> Result<(), RuntimeError> {
        let _guard = lock_job(&self.job)?;
        match read_lease(&self.job)? {
            LeaseState::Held(info) if info.worker_id == self.worker_id => {
                let path = lease_path(&self.job);
                match std::fs::remove_file(&path) {
                    Ok(()) => Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(io_at(&path, "removing", e)),
                }
            }
            _ => Ok(()),
        }
    }
}

/// Expires the lease `worker_id` holds on `job`, under the per-job
/// mutex: the expiry is set back to the claim time, which lies in the
/// past on every clock, and the recorded attempt is kept. The next claim
/// takes the lease over and charges that attempt, so a holder known to
/// be dead is recovered at once instead of after its lease runs out.
/// Returns whether `worker_id` held the lease; a lease held by anyone
/// else, or none, is left as it is.
///
/// # Errors
///
/// Returns I/O errors from reading or rewriting the lease file.
pub fn expire(job: &Path, worker_id: &str) -> Result<bool, RuntimeError> {
    let _guard = lock_job(job)?;
    let LeaseState::Held(info) = read_lease(job)? else {
        return Ok(false);
    };
    if info.worker_id != worker_id {
        return Ok(false);
    }
    let expired = LeaseInfo {
        expires_ms: info.claim_ms,
        ..info
    };
    let tmp = unique_sibling(job, worker_id, "tmp");
    publish(
        &lease_path(job),
        &expired.to_json().to_string_compact(),
        &tmp,
    )?;
    Ok(true)
}

/// The retry counter of one job, persisted between attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryState {
    /// Failed attempts so far.
    pub attempts: u64,
    /// Queue-clock instant before which the job must not be retried.
    pub next_ms: u64,
    /// The last failure, for operators.
    pub last_error: String,
}

impl RetryState {
    /// Loads the retry state, `None` when the job has never failed.
    /// A corrupt state file (external interference; writes are atomic)
    /// conservatively restarts the count at zero rather than failing
    /// the scan.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file being absent.
    pub fn load(job: &Path) -> Result<Option<Self>, RuntimeError> {
        let path = attempts_path(job);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_at(&path, "reading", e)),
        };
        Ok(json::parse(&text).ok().and_then(|v| {
            Some(Self {
                attempts: v.get("attempts")?.as_u64()?,
                next_ms: v.get("next_ms")?.as_u64()?,
                last_error: v.get("last_error")?.as_str()?.to_string(),
            })
        }))
    }

    /// Atomically persists the retry state.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the write or rename.
    pub fn save(&self, job: &Path) -> Result<(), RuntimeError> {
        let mut obj = Json::object();
        obj.insert("attempts", Json::Int(self.attempts as i64));
        obj.insert("next_ms", Json::Int(self.next_ms as i64));
        obj.insert("last_error", Json::Str(self.last_error.clone()));
        let tmp = unique_sibling(job, "retry", "tmp");
        publish(&attempts_path(job), &obj.to_string_compact(), &tmp)
    }

    /// Removes the retry state (job succeeded or was quarantined).
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file being absent.
    pub fn clear(job: &Path) -> Result<(), RuntimeError> {
        let path = attempts_path(job);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_at(&path, "removing", e)),
        }
    }
}

/// Deterministic capped exponential backoff: `base · 2^(attempt−1)`,
/// saturating, capped at `cap_ms`. Attempt 0 is treated as 1.
#[must_use]
pub fn backoff_ms(attempt: u64, base_ms: u64, cap_ms: u64) -> u64 {
    let exp = attempt.saturating_sub(1).min(32) as u32;
    base_ms.saturating_mul(1u64 << exp).min(cap_ms)
}

/// The quarantine record of a poison job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// The final failure message.
    pub error: String,
    /// Attempts consumed before giving up.
    pub attempts: u64,
    /// The spec's content hash, when the spec loaded far enough to
    /// hash.
    pub spec_hash: Option<String>,
}

impl Quarantine {
    /// Atomically writes the quarantine record to `<job>.failed.json`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the write or rename.
    pub fn save(&self, job: &Path) -> Result<(), RuntimeError> {
        let mut obj = Json::object();
        obj.insert("error", Json::Str(self.error.clone()));
        obj.insert("attempts", Json::Int(self.attempts as i64));
        if let Some(hash) = &self.spec_hash {
            obj.insert("spec_hash", Json::Str(hash.clone()));
        }
        let tmp = unique_sibling(job, "quarantine", "tmp");
        publish(&quarantine_path(job), &obj.to_string_pretty(), &tmp)
    }

    /// Loads a quarantine record, `None` when the job is not
    /// quarantined (or the record is unreadable).
    #[must_use]
    pub fn load(job: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(quarantine_path(job)).ok()?;
        let v = json::parse(&text).ok()?;
        Some(Self {
            error: v.get("error")?.as_str()?.to_string(),
            attempts: v.get("attempts")?.as_u64()?,
            spec_hash: v.get("spec_hash").and_then(Json::as_str).map(String::from),
        })
    }
}

/// Atomically writes the completion marker: spec hash plus the final
/// merged summary, and nothing else — the bytes are a pure function of
/// the spec, so fault-free and chaos runs produce identical markers.
///
/// # Errors
///
/// Returns I/O errors from the write or rename.
pub fn write_done(job: &Path, spec_hash: &str, summary: &Json) -> Result<(), RuntimeError> {
    let mut obj = Json::object();
    obj.insert("spec_hash", Json::Str(spec_hash.to_string()));
    obj.insert("summary", summary.clone());
    let tmp = unique_sibling(job, "done", "tmp");
    publish(&done_path(job), &obj.to_string_pretty(), &tmp)
}

/// The parsed contents of a `<job>.done.json` completion marker.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneMarker {
    /// The content hash of the spec the summary was computed from. A
    /// marker only certifies completion of *that* spec: if the job file
    /// has since been edited or replaced, the marker is stale and the
    /// job must re-run (see `queue::run_queue_worker`).
    pub spec_hash: String,
    /// The final merged summary.
    pub summary: Json,
}

impl DoneMarker {
    /// Loads the completion marker, `None` when the job has no marker.
    /// An unparseable marker (external interference; writes are atomic)
    /// is reported as a marker with an empty `spec_hash`, which can
    /// never match a real content hash — callers treat it as stale.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file being absent.
    pub fn load(job: &Path) -> Result<Option<Self>, RuntimeError> {
        let path = done_path(job);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_at(&path, "reading", e)),
        };
        let parsed = json::parse(&text).ok().and_then(|v| {
            Some(Self {
                spec_hash: v.get("spec_hash")?.as_str()?.to_string(),
                summary: v.get("summary")?.clone(),
            })
        });
        Ok(Some(parsed.unwrap_or(Self {
            spec_hash: String::new(),
            summary: Json::Null,
        })))
    }
}

/// Withdraws a stale completion marker under the per-job mutex: the
/// marker is removed only while it still records `recorded_hash`, so a
/// fresh marker written concurrently (a peer finished re-running the
/// edited job) is never deleted. Returns whether a marker was removed.
///
/// # Errors
///
/// Returns I/O errors from reading or removing the marker.
pub fn withdraw_done(job: &Path, recorded_hash: &str) -> Result<bool, RuntimeError> {
    let _guard = lock_job(job)?;
    match DoneMarker::load(job)? {
        Some(marker) if marker.spec_hash == recorded_hash => {
            let path = done_path(job);
            match std::fs::remove_file(&path) {
                Ok(()) => Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
                Err(e) => Err(io_at(&path, "withdrawing", e)),
            }
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_job(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("od_runtime_lease_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let job = dir.join("job.json");
        std::fs::write(&job, "{}").unwrap();
        job
    }

    fn manual(start: u64) -> (Arc<ManualClock>, Arc<dyn QueueClock>) {
        let clock = Arc::new(ManualClock::new(start));
        let dyn_clock: Arc<dyn QueueClock> = clock.clone();
        (clock, dyn_clock)
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let job = temp_job("exclusive");
        let (_, clock) = manual(1_000);
        let first = claim(&job, "w1", 5_000, 1, &clock).unwrap();
        let lease = match first {
            ClaimOutcome::Claimed {
                lease,
                takeover_of,
                displaced_attempt,
            } => {
                assert!(takeover_of.is_none());
                assert!(displaced_attempt.is_none());
                lease
            }
            other => panic!("expected claim, got {other:?}"),
        };
        match claim(&job, "w2", 5_000, 1, &clock).unwrap() {
            ClaimOutcome::Held {
                worker_id,
                expires_ms,
            } => {
                assert_eq!(worker_id, "w1");
                assert_eq!(expires_ms, 6_000);
            }
            other => panic!("expected held, got {other:?}"),
        }
        lease.release().unwrap();
        assert!(matches!(
            claim(&job, "w2", 5_000, 1, &clock).unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn expired_lease_is_taken_over() {
        let job = temp_job("takeover");
        let (manual, clock) = manual(0);
        let _lost = match claim(&job, "w1", 1_000, 1, &clock).unwrap() {
            ClaimOutcome::Claimed { lease, .. } => lease,
            other => panic!("{other:?}"),
        };
        manual.advance(999);
        assert!(matches!(
            claim(&job, "w2", 1_000, 1, &clock).unwrap(),
            ClaimOutcome::Held { .. }
        ));
        manual.advance(1); // now == expires_ms: expired
        match claim(&job, "w2", 1_000, 2, &clock).unwrap() {
            ClaimOutcome::Claimed {
                lease,
                takeover_of,
                displaced_attempt,
            } => {
                assert_eq!(takeover_of.as_deref(), Some("w1"));
                assert_eq!(displaced_attempt, Some(1));
                assert_eq!(lease.worker_id(), "w2");
            }
            other => panic!("expected takeover, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn renew_extends_and_refuses_after_loss() {
        let job = temp_job("renew");
        let (manual, clock) = manual(0);
        let lease = match claim(&job, "w1", 1_000, 1, &clock).unwrap() {
            ClaimOutcome::Claimed { lease, .. } => lease,
            other => panic!("{other:?}"),
        };
        manual.advance(500);
        let renewed = lease.renew().unwrap();
        assert_eq!(renewed.expires_ms, 1_500);
        // Past the renewed expiry the renewal must refuse…
        manual.advance(1_000);
        assert!(matches!(lease.renew(), Err(RuntimeError::Lease { .. })));
        // …and after a takeover by another worker it must refuse too.
        let _stolen = claim(&job, "w2", 1_000, 2, &clock).unwrap();
        assert!(matches!(lease.renew(), Err(RuntimeError::Lease { .. })));
        // Releasing a lost lease is a harmless no-op that keeps w2's claim.
        lease.release().unwrap();
        assert!(matches!(
            read_lease(&job).unwrap(),
            LeaseState::Held(info) if info.worker_id == "w2"
        ));
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn corrupt_lease_is_takeover_eligible() {
        let job = temp_job("corrupt");
        std::fs::write(lease_path(&job), "{ torn").unwrap();
        assert_eq!(read_lease(&job).unwrap(), LeaseState::Corrupt);
        let (_, clock) = manual(0);
        match claim(&job, "w1", 1_000, 1, &clock).unwrap() {
            ClaimOutcome::Claimed {
                takeover_of,
                displaced_attempt,
                ..
            } => {
                assert_eq!(takeover_of.as_deref(), Some("unknown"));
                assert!(displaced_attempt.is_none());
            }
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn expired_holder_is_taken_over_at_once_and_charged() {
        let job = temp_job("expire");
        let (_, clock) = manual(0);
        let _dead = match claim(&job, "w1", 60_000, 2, &clock).unwrap() {
            ClaimOutcome::Claimed { lease, .. } => lease,
            other => panic!("{other:?}"),
        };
        // Only the named holder's lease is expired.
        assert!(!expire(&job, "w2").unwrap());
        assert!(matches!(
            claim(&job, "w2", 60_000, 1, &clock).unwrap(),
            ClaimOutcome::Held { .. }
        ));
        // The lease is nowhere near its own expiry; once expired, the
        // next claim takes it over and reports the attempt it recorded.
        assert!(expire(&job, "w1").unwrap());
        match claim(&job, "w2", 60_000, 3, &clock).unwrap() {
            ClaimOutcome::Claimed {
                takeover_of,
                displaced_attempt,
                ..
            } => {
                assert_eq!(takeover_of.as_deref(), Some("w1"));
                assert_eq!(displaced_attempt, Some(2));
            }
            other => panic!("expected takeover, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn expire_leaves_free_and_corrupt_leases_alone() {
        let job = temp_job("expire_edge");
        assert!(!expire(&job, "w1").unwrap());
        assert_eq!(read_lease(&job).unwrap(), LeaseState::Free);
        std::fs::write(lease_path(&job), "{ torn").unwrap();
        assert!(!expire(&job, "w1").unwrap());
        assert_eq!(read_lease(&job).unwrap(), LeaseState::Corrupt);
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_exponential() {
        assert_eq!(backoff_ms(1, 500, 30_000), 500);
        assert_eq!(backoff_ms(2, 500, 30_000), 1_000);
        assert_eq!(backoff_ms(3, 500, 30_000), 2_000);
        assert_eq!(backoff_ms(7, 500, 30_000), 30_000); // capped
        assert_eq!(backoff_ms(0, 500, 30_000), 500); // attempt 0 ≡ 1
        assert_eq!(backoff_ms(64, u64::MAX, u64::MAX), u64::MAX); // saturates
    }

    #[test]
    fn retry_state_roundtrips_and_clears() {
        let job = temp_job("retry");
        assert_eq!(RetryState::load(&job).unwrap(), None);
        let state = RetryState {
            attempts: 2,
            next_ms: 7_777,
            last_error: "injected".to_string(),
        };
        state.save(&job).unwrap();
        assert_eq!(RetryState::load(&job).unwrap(), Some(state));
        RetryState::clear(&job).unwrap();
        assert_eq!(RetryState::load(&job).unwrap(), None);
        RetryState::clear(&job).unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn quarantine_roundtrips() {
        let job = temp_job("quarantine");
        assert!(Quarantine::load(&job).is_none());
        let record = Quarantine {
            error: "poison".to_string(),
            attempts: 3,
            spec_hash: Some("abc123".to_string()),
        };
        record.save(&job).unwrap();
        assert_eq!(Quarantine::load(&job), Some(record));
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn done_marker_bytes_are_worker_independent() {
        let job = temp_job("done");
        let mut summary = Json::object();
        summary.insert("trials", Json::Int(4));
        write_done(&job, "hash1", &summary).unwrap();
        let first = std::fs::read(done_path(&job)).unwrap();
        write_done(&job, "hash1", &summary).unwrap();
        assert_eq!(std::fs::read(done_path(&job)).unwrap(), first);
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn done_marker_roundtrips_and_flags_corruption() {
        let job = temp_job("done_load");
        assert_eq!(DoneMarker::load(&job).unwrap(), None);
        let mut summary = Json::object();
        summary.insert("trials", Json::Int(4));
        write_done(&job, "hash1", &summary).unwrap();
        let marker = DoneMarker::load(&job).unwrap().expect("marker");
        assert_eq!(marker.spec_hash, "hash1");
        assert_eq!(marker.summary, summary);
        // A torn marker (external interference) parses to the
        // never-matching empty hash instead of vanishing.
        std::fs::write(done_path(&job), "{ torn").unwrap();
        let torn = DoneMarker::load(&job).unwrap().expect("marker");
        assert_eq!(torn.spec_hash, "");
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }

    #[test]
    fn withdraw_done_removes_only_the_recorded_hash() {
        let job = temp_job("withdraw");
        assert!(!withdraw_done(&job, "stale").unwrap()); // no marker: no-op
        write_done(&job, "stale", &Json::object()).unwrap();
        // A mismatched expectation keeps the marker (a peer re-ran the
        // edited job and wrote a fresh one in between).
        assert!(!withdraw_done(&job, "other").unwrap());
        assert!(done_path(&job).exists());
        assert!(withdraw_done(&job, "stale").unwrap());
        assert!(!done_path(&job).exists());
        let _ = std::fs::remove_dir_all(job.parent().unwrap());
    }
}
