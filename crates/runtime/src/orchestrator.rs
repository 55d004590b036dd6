//! Fault-tolerant multi-process orchestration of one job.
//!
//! [`orchestrate`] is the supervisor: it splits a job's shard range into
//! contiguous shard-range sub-jobs recorded in a *manifest*, spawns `N`
//! `od-run --orch-child` worker processes, and merges the per-range
//! checkpoints byte-stably into the same checkpoint and summary a
//! single-process run of the job produces. The control plane lives in a
//! sibling directory `<job file>.orch/`:
//!
//! ```text
//! job.json.orch/
//!   manifest.json                      range plan (atomic persist)
//!   range-0000.range.json              per-range control file …
//!   range-0000.range.json.lease.json     … with the full queue lease
//!   range-0000.range.json.checkpoint.json  sidecar + checkpoint set
//!   …
//! ```
//!
//! Each range is a work unit of the leased-work loop in [`crate::queue`],
//! with its control file as the sidecar base: children run that same
//! loop queue workers run, claiming ranges through the [`crate::lease`]
//! protocol, running the spec restricted to the range's shards
//! ([`crate::executor::RunOptions::shard_range`]) with a per-range
//! checkpoint, and recording completion in the range's done marker. Range
//! checkpoints use **global** shard indices and the full job's spec
//! hash, so merging them is a pure union of shard entries — associative,
//! partition-invariant, and byte-identical to a single-process
//! checkpoint of the same job.
//!
//! Recovery is the lease protocol's. Children run under od-run's default
//! worker id, `worker-<pid>`, so every range lease names the process
//! holding it:
//!
//! * a child that dies holding a range lease has that lease expired
//!   ([`crate::lease::expire`]) as soon as the supervisor reaps it; the
//!   next claim takes the range over, charges the attempt the child died
//!   on (quarantine after `max_retries`, like poison queue jobs), and a
//!   replacement child resumes the range from its checkpoint;
//! * a child that stops renewing (SIGSTOPped, wedged) loses its ranges
//!   to takeover once their leases expire, which charges the attempt the
//!   same way; the late original detects the lost lease at its next
//!   heartbeat renewal and cancels, exactly like an expired queue worker;
//! * quarantined ranges degrade gracefully: completed shards from every
//!   range checkpoint (quarantined ones included) still merge into the
//!   job checkpoint, so a partial orchestrated run reports partial
//!   progress instead of discarding finished work.
//!
//! On full success the merged checkpoint is saved to the job's
//! checkpoint path and the entire `.orch/` directory is removed — a
//! completed orchestrated run leaves exactly the files a single-process
//! run leaves, with identical bytes. When quarantined ranges remain the
//! control plane is kept for inspection and the caller reports exit-4
//! semantics.
//!
//! Failpoint sites (feature `failpoints`): `orch.manifest.persist`,
//! `orch.spawn`, `orch.merge.load`.

use crate::checkpoint::Checkpoint;
use crate::error::RuntimeError;
use crate::executor::RunOptions;
use crate::faults::{self, Injected};
use crate::json::{self, Json};
use crate::lease::{self, Quarantine, QueueClock, SystemClock};
use crate::queue::{
    default_checkpoint_path, drain, load_job_file, Pool, WorkUnit, WorkerOptions, WorkerReport,
};
use crate::summary::ShardSummary;
use od_telemetry::Event;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// The orchestration control-plane directory for a job file: sibling
/// `<file name>.orch/`. The `orch` extension keeps the directory (and
/// everything in it) invisible to [`crate::queue::queue_files`].
#[must_use]
pub fn orch_dir(job: &Path) -> PathBuf {
    let name = job.file_name().and_then(|s| s.to_str()).unwrap_or("job");
    job.with_file_name(format!("{name}.orch"))
}

/// The control file of shard range `index` inside an orchestration
/// directory. The file is the "job path" of the range's lease sidecars
/// and checkpoint.
#[must_use]
pub fn range_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("range-{index:04}.range.json"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// One contiguous shard range `[start, end)` of the job, in global
/// shard indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePlan {
    /// The range's position in the manifest (names its control file).
    pub index: u64,
    /// First shard (inclusive).
    pub start: u64,
    /// Past-the-end shard (exclusive).
    pub end: u64,
}

/// The persisted range plan of one orchestrated job. The manifest is
/// written once, atomically, before any child spawns; a rerun of
/// `--orchestrate` reuses it so range boundaries (and therefore range
/// checkpoints and sidecars) stay stable across supervisor crashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The job spec's content hash; ranges of a different spec revision
    /// refuse to mix.
    pub spec_hash: String,
    /// The job's total shard count.
    pub total_shards: u64,
    /// The ranges, tiling `[0, total_shards)` in index order.
    pub ranges: Vec<RangePlan>,
}

impl Manifest {
    /// Plans `ranges` near-even contiguous ranges over `total_shards`
    /// shards (clamped to `[1, total_shards]`; the first
    /// `total_shards % ranges` ranges get the extra shard).
    #[must_use]
    pub fn plan(spec_hash: String, total_shards: u64, ranges: u64) -> Self {
        let count = ranges.clamp(1, total_shards.max(1));
        let base = total_shards / count;
        let rem = total_shards % count;
        let mut out = Vec::with_capacity(count as usize);
        let mut start = 0u64;
        for index in 0..count {
            let len = base + u64::from(index < rem);
            out.push(RangePlan {
                index,
                start,
                end: start + len,
            });
            start += len;
        }
        Self {
            spec_hash,
            total_shards,
            ranges: out,
        }
    }

    /// True when the ranges tile `[0, total_shards)` contiguously in
    /// index order — the invariant every consumer of the manifest
    /// relies on.
    #[must_use]
    pub fn tiles(&self) -> bool {
        let mut expect = 0u64;
        for (i, range) in self.ranges.iter().enumerate() {
            if range.index != i as u64
                || range.start != expect
                || range.end < range.start
                || range.end > self.total_shards
            {
                return false;
            }
            expect = range.end;
        }
        !self.ranges.is_empty() && expect == self.total_shards
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("spec_hash", Json::Str(self.spec_hash.clone()));
        obj.insert("total_shards", Json::Int(self.total_shards as i64));
        let ranges = self
            .ranges
            .iter()
            .map(|r| {
                let mut obj = Json::object();
                obj.insert("index", Json::Int(r.index as i64));
                obj.insert("start", Json::Int(r.start as i64));
                obj.insert("end", Json::Int(r.end as i64));
                obj
            })
            .collect();
        obj.insert("ranges", Json::Arr(ranges));
        obj
    }

    fn from_json(value: &Json) -> Result<Self, RuntimeError> {
        let bad = |what: &str| RuntimeError::Parse(format!("orchestration manifest: {what}"));
        let spec_hash = value
            .get("spec_hash")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing 'spec_hash'"))?
            .to_string();
        let total_shards = value
            .get("total_shards")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing 'total_shards'"))?;
        let items = value
            .get("ranges")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing 'ranges'"))?;
        let mut ranges = Vec::with_capacity(items.len());
        for item in items {
            let field = |key: &str| {
                item.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(&format!("range entry missing '{key}'")))
            };
            ranges.push(RangePlan {
                index: field("index")?,
                start: field("start")?,
                end: field("end")?,
            });
        }
        let manifest = Self {
            spec_hash,
            total_shards,
            ranges,
        };
        if !manifest.tiles() {
            return Err(bad("ranges do not tile [0, total_shards)"));
        }
        Ok(manifest)
    }

    /// Saves the manifest atomically (write `manifest.tmp`, fsync,
    /// rename), exactly like checkpoints: a crash mid-persist leaves
    /// either no manifest or a complete one at the real path.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the write, fsync, or rename (including
    /// injected ones at the `orch.manifest.persist` failpoint).
    pub fn save(&self, dir: &Path) -> Result<(), RuntimeError> {
        use std::io::Write as _;
        let path = manifest_path(dir);
        let tmp = path.with_extension("tmp");
        let bytes = self.to_json().to_string_pretty().into_bytes();
        let written: &[u8] = match faults::fire("orch.manifest.persist") {
            Injected::None => &bytes,
            Injected::Error(e) => {
                return Err(RuntimeError::io(&format!("writing {}", tmp.display()), e))
            }
            // A torn manifest still renames into place so the next
            // supervisor exercises the load-side quarantine.
            Injected::Truncate(n) => &bytes[..n.min(bytes.len())],
        };
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| RuntimeError::io(&format!("creating {}", tmp.display()), e))?;
        file.write_all(written)
            .and_then(|()| file.sync_all())
            .map_err(|e| RuntimeError::io(&format!("writing {}", tmp.display()), e))?;
        drop(file);
        std::fs::rename(&tmp, &path)
            .map_err(|e| RuntimeError::io(&format!("renaming to {}", path.display()), e))
    }

    /// Loads the manifest of an orchestration directory. `Ok(None)`
    /// when the directory or the manifest is absent — which, for a
    /// child, means the orchestration already merged and cleaned up.
    ///
    /// # Errors
    ///
    /// Returns parse errors for malformed or non-tiling manifests and
    /// I/O errors other than absence.
    pub fn load(dir: &Path) -> Result<Option<Self>, RuntimeError> {
        let path = manifest_path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(RuntimeError::io(&format!("reading {}", path.display()), e)),
        };
        let value = json::parse(&text)
            .map_err(|e| RuntimeError::Parse(format!("manifest {}: {e}", path.display())))?;
        Self::from_json(&value).map(Some)
    }
}

/// Drains an orchestrated job's range pool as one worker process: the
/// shared leased-work loop ([`crate::queue`]) over the manifest's
/// ranges, each running the job spec restricted to its shards with its
/// own checkpoint. Any number of children (concurrent or across
/// respawns) drain one manifest exactly once — the same guarantee queue
/// workers give a directory. The report's entries are the range
/// attempts this child executed.
///
/// A missing orchestration directory or manifest means the supervisor
/// already merged and cleaned up; the child reports the pool complete
/// instead of failing, so a straggler that wakes up after the merge
/// exits cleanly.
///
/// # Errors
///
/// Returns spec/lease/sidecar infrastructure errors, a
/// [`RuntimeError::CheckpointMismatch`] when the manifest belongs to a
/// different spec revision, and a spec error when
/// `options.run.checkpoint_path` is set (ranges use their own
/// checkpoints).
pub fn run_orch_child(job: &Path, options: &WorkerOptions) -> Result<WorkerReport, RuntimeError> {
    let spec = load_job_file(job)?;
    spec.validate()?;
    let hash = spec.content_hash();
    let dir = orch_dir(job);
    let Some(manifest) = Manifest::load(&dir)? else {
        // Merged and cleaned before this child got going.
        return Ok(WorkerReport::default());
    };
    if manifest.spec_hash != hash {
        return Err(RuntimeError::CheckpointMismatch {
            found: manifest.spec_hash,
            expected: hash,
        });
    }
    let units = manifest
        .ranges
        .iter()
        .map(|plan| WorkUnit {
            base: range_path(&dir, plan.index),
            shards: Some((plan.start, plan.end)),
            leased: false,
        })
        .collect();
    let pool = Pool::Ranges {
        manifest: manifest_path(&dir),
        units,
        spec: Box::new(spec),
        hash,
    };
    drain(&pool, options)
}

/// Configuration of one orchestration supervisor.
#[derive(Clone)]
pub struct OrchOptions {
    /// Child worker processes to keep alive while ranges are pending.
    pub workers: u64,
    /// Shard ranges to split the job into; `None` plans
    /// `4 × workers` ranges (clamped to the shard count) so a fast
    /// child can steal work from a slow one at range granularity.
    pub ranges: Option<u64>,
    /// The worker executable (an `od-run` binary). `None` resolves the
    /// current executable — correct when the supervisor *is* `od-run`.
    pub program: Option<PathBuf>,
    /// Per-range lease duration in milliseconds, forwarded to children.
    pub lease_ms: u64,
    /// Total attempts a range gets (a child's death and child-side run
    /// failures both charge attempts) before quarantine.
    pub max_retries: u64,
    /// Supervisor poll interval (reap, census).
    pub poll_ms: u64,
    /// How long to wait (wall clock) for children to exit on their own
    /// at shutdown before killing them.
    pub shutdown_grace_ms: u64,
    /// Supervisor-side execution options: the telemetry sink, the
    /// cancellation token, and (optionally) an override for the merged
    /// checkpoint's path.
    pub run: RunOptions,
}

impl Default for OrchOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            ranges: None,
            program: None,
            lease_ms: 30_000,
            max_retries: 3,
            poll_ms: 50,
            shutdown_grace_ms: 5_000,
            run: RunOptions::default(),
        }
    }
}

impl std::fmt::Debug for OrchOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrchOptions")
            .field("workers", &self.workers)
            .field("ranges", &self.ranges)
            .field("program", &self.program)
            .field("lease_ms", &self.lease_ms)
            .field("max_retries", &self.max_retries)
            .field("poll_ms", &self.poll_ms)
            .finish_non_exhaustive()
    }
}

/// What an orchestrated run amounted to.
#[derive(Debug)]
pub struct OrchReport {
    /// The merged summary over every completed shard.
    pub summary: ShardSummary,
    /// Shards in the merged checkpoint.
    pub completed_shards: u64,
    /// The job's total shard count.
    pub total_shards: u64,
    /// Ranges the job was split into.
    pub ranges: u64,
    /// Ranges quarantined after exhausting their attempt budget.
    pub quarantined_ranges: u64,
    /// Child processes spawned beyond the initial `workers`.
    pub respawns: u64,
    /// True when cancellation stopped the supervisor before the pool
    /// drained (no merge was performed).
    pub interrupted: bool,
}

/// One live child worker process.
struct ChildSlot {
    worker_id: String,
    child: Child,
}

/// Orchestrates one job across `options.workers` child processes: plans
/// (or reloads) the range manifest, keeps children spawned, expires the
/// leases of children that die so their ranges are taken over at once,
/// and — once every range is done or quarantined — merges the range
/// checkpoints into the job checkpoint and summary.
///
/// The merged checkpoint and summary are byte-identical to a fault-free
/// single-process run of the same job; on full success the orchestration
/// directory is removed entirely. Quarantined ranges keep the directory
/// and still contribute their completed shards (partial progress).
///
/// # Errors
///
/// Returns spec errors (zero workers, invalid job), a
/// [`RuntimeError::CheckpointMismatch`] when an existing manifest
/// belongs to a different spec revision, and infrastructure I/O errors
/// (manifest persist, spawn failures that persist across retries, merge
/// input loads). Job-level failures inside ranges are retried and
/// quarantined, not returned.
pub fn orchestrate(job: &Path, options: &OrchOptions) -> Result<OrchReport, RuntimeError> {
    if options.workers == 0 {
        return Err(RuntimeError::Spec(
            "orchestrate: at least one worker is required".to_string(),
        ));
    }
    let spec = load_job_file(job)?;
    spec.validate()?;
    let hash = spec.content_hash();
    let total_shards = spec.shard_count();
    let checkpoint_path = options
        .run
        .checkpoint_path
        .clone()
        .unwrap_or_else(|| default_checkpoint_path(job));
    let dir = orch_dir(job);
    std::fs::create_dir_all(&dir)
        .map_err(|e| RuntimeError::io(&format!("creating {}", dir.display()), e))?;
    let manifest = prepare_manifest(&dir, &hash, total_shards, options)?;
    let ranges = manifest.ranges.len() as u64;
    let sink = &options.run.sink;
    let job_str = job.display().to_string();
    if sink.enabled() {
        sink.emit(&Event::OrchStart {
            job: &job_str,
            spec: &hash,
            ranges,
            workers: options.workers,
        });
    }
    let program = match &options.program {
        Some(program) => program.clone(),
        None => std::env::current_exe()
            .map_err(|e| RuntimeError::io("resolving the od-run executable", e))?,
    };
    let poll = Duration::from_millis(options.poll_ms.max(1));
    let mut children: Vec<ChildSlot> = Vec::new();
    let mut spawned = 0u64;
    let mut respawns = 0u64;
    let mut spawn_failures = 0u32;
    let mut fruitless_exits = 0u32;
    loop {
        if options.run.cancel.is_cancelled() {
            shutdown_children(&mut children, options, sink, true);
            let (_, quarantined) = census(&dir, &manifest);
            return Ok(OrchReport {
                summary: ShardSummary::new(),
                completed_shards: 0,
                total_shards,
                ranges,
                quarantined_ranges: quarantined,
                respawns,
                interrupted: true,
            });
        }
        // Reap exited children; a death while holding a range lease
        // expires it, so the next claim charges the attempt and resumes
        // the range.
        let mut index = 0;
        while index < children.len() {
            match children[index].child.try_wait() {
                Ok(Some(status)) => {
                    let slot = children.swap_remove(index);
                    let ok = status.success();
                    if sink.enabled() {
                        sink.emit(&Event::OrchExit {
                            worker: &slot.worker_id,
                            ok,
                            code: status.code().map(|c| c.unsigned_abs().into()),
                        });
                    }
                    if ok || expire_dead_worker(&dir, &manifest, &slot.worker_id)? > 0 {
                        fruitless_exits = 0;
                    } else {
                        // A child that keeps dying without ever claiming
                        // a range (bad binary, unreadable control plane)
                        // would respawn forever.
                        fruitless_exits += 1;
                        if fruitless_exits >= 16 {
                            return Err(RuntimeError::Spec(format!(
                                "orchestrate: {fruitless_exits} consecutive workers failed \
                                 without claiming a range; giving up"
                            )));
                        }
                    }
                }
                Ok(None) => index += 1,
                Err(e) => return Err(RuntimeError::io("waiting for a worker process", e)),
            }
        }
        let (done, quarantined) = census(&dir, &manifest);
        if done + quarantined == ranges {
            // Quiesce the data plane before touching merge inputs: once
            // every child is reaped and no range holds a live lease —
            // orphans of an earlier supervisor are not children, and may
            // still be releasing theirs — nothing can write under the
            // control plane any more.
            shutdown_children(&mut children, options, sink, false);
            if leases_live(&dir, &manifest)? {
                std::thread::sleep(poll);
                continue;
            }
            if !revalidate_done_ranges(&dir, &manifest, &hash)? {
                // A done marker without a complete checkpoint behind it
                // (a stale takeover victim's last write won a race) is
                // withdrawn; the loop respawns workers to recompute it.
                continue;
            }
            let merged = merge_ranges(&dir, &manifest, &hash, total_shards, options)?;
            merged.save(&checkpoint_path)?;
            let mut summary = ShardSummary::new();
            for shard in merged.shards.values() {
                summary.merge(shard);
            }
            if sink.enabled() {
                for plan in &manifest.ranges {
                    let path = range_path(&dir, plan.index);
                    if let Some(record) = Quarantine::load(&path) {
                        sink.emit(&Event::OrchQuarantine {
                            range: &path.display().to_string(),
                            attempts: record.attempts,
                            error: &record.error,
                        });
                    }
                }
                sink.emit(&Event::OrchMerge {
                    ranges,
                    shards: merged.shards.len() as u64,
                });
            }
            if quarantined == 0 {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| RuntimeError::io(&format!("removing {}", dir.display()), e))?;
            }
            return Ok(OrchReport {
                summary,
                completed_shards: merged.shards.len() as u64,
                total_shards,
                ranges,
                quarantined_ranges: quarantined,
                respawns,
                interrupted: false,
            });
        }
        // Keep the worker pool full.
        while (children.len() as u64) < options.workers {
            match spawn_child(&program, job, options) {
                Ok(child) => {
                    let worker_id = format!("worker-{}", child.id());
                    if sink.enabled() {
                        sink.emit(&Event::OrchSpawn {
                            worker: &worker_id,
                            child: u64::from(child.id()),
                        });
                    }
                    children.push(ChildSlot { worker_id, child });
                    spawn_failures = 0;
                    spawned += 1;
                    if spawned > options.workers {
                        respawns += 1;
                    }
                }
                Err(e) => {
                    // A spawn failure (including the `orch.spawn`
                    // failpoint) is absorbed by the next tick's retry;
                    // only a persistent one propagates.
                    spawn_failures += 1;
                    if spawn_failures >= 16 {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        std::thread::sleep(poll);
    }
}

/// Loads, validates, or (re)builds the manifest, and materialises any
/// missing or drifted range control files from it.
fn prepare_manifest(
    dir: &Path,
    spec_hash: &str,
    total_shards: u64,
    options: &OrchOptions,
) -> Result<Manifest, RuntimeError> {
    match Manifest::load(dir) {
        Ok(Some(found)) => {
            if found.spec_hash != spec_hash {
                return Err(RuntimeError::CheckpointMismatch {
                    found: found.spec_hash,
                    expected: spec_hash.to_string(),
                });
            }
            if found.total_shards == total_shards {
                sync_range_files(dir, &found)?;
                return Ok(found);
            }
            // Same spec hashing to a different shard count cannot
            // happen (shard_size is hashed); treat as corruption.
            quarantine_manifest(dir)?;
        }
        Ok(None) => {}
        Err(RuntimeError::Parse(_)) => quarantine_manifest(dir)?,
        Err(e) => return Err(e),
    }
    let want = options
        .ranges
        .unwrap_or_else(|| options.workers.saturating_mul(4));
    let manifest = Manifest::plan(spec_hash.to_string(), total_shards, want);
    manifest.save(dir)?;
    sync_range_files(dir, &manifest)?;
    Ok(manifest)
}

/// Moves a corrupt manifest aside (preserving the evidence) and clears
/// every range control file and sidecar derived from it: a manifest
/// that cannot be trusted poisons all per-range state.
fn quarantine_manifest(dir: &Path) -> Result<(), RuntimeError> {
    let path = manifest_path(dir);
    let mut corrupt = path.as_os_str().to_os_string();
    corrupt.push(".corrupt");
    match std::fs::rename(&path, PathBuf::from(&corrupt)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(RuntimeError::io("quarantining the manifest", e)),
    }
    let entries = std::fs::read_dir(dir)
        .map_err(|e| RuntimeError::io(&format!("reading {}", dir.display()), e))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| RuntimeError::io(&format!("reading {}", dir.display()), e))?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with("range-")) {
            std::fs::remove_file(entry.path()).map_err(|e| {
                RuntimeError::io(&format!("removing {}", entry.path().display()), e)
            })?;
        }
    }
    Ok(())
}

/// Writes each range's control file when missing or drifted from the
/// manifest (the manifest is the source of truth; range files are
/// derived data).
fn sync_range_files(dir: &Path, manifest: &Manifest) -> Result<(), RuntimeError> {
    for plan in &manifest.ranges {
        let mut obj = Json::object();
        obj.insert("index", Json::Int(plan.index as i64));
        obj.insert("start", Json::Int(plan.start as i64));
        obj.insert("end", Json::Int(plan.end as i64));
        obj.insert("spec_hash", Json::Str(manifest.spec_hash.clone()));
        let desired = obj.to_string_pretty();
        let path = range_path(dir, plan.index);
        if std::fs::read_to_string(&path).is_ok_and(|current| current == desired) {
            continue;
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &desired)
            .map_err(|e| RuntimeError::io(&format!("writing {}", tmp.display()), e))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| RuntimeError::io(&format!("renaming to {}", path.display()), e))?;
    }
    Ok(())
}

/// Spawns one `--orch-child` worker process (stdout discarded, stderr
/// inherited so failures stay visible). The child runs under od-run's
/// default worker id, `worker-<pid>`.
fn spawn_child(program: &Path, job: &Path, options: &OrchOptions) -> Result<Child, RuntimeError> {
    if let Injected::Error(e) = faults::fire("orch.spawn") {
        return Err(RuntimeError::io("spawning a worker", e));
    }
    Command::new(program)
        .arg(job)
        .arg("--orch-child")
        .args([
            "--lease-secs",
            &(options.lease_ms / 1_000).max(1).to_string(),
        ])
        .args(["--max-retries", &options.max_retries.max(1).to_string()])
        .arg("--quiet")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| RuntimeError::io("spawning a worker", e))
}

/// Counts `(done, quarantined)` ranges.
fn census(dir: &Path, manifest: &Manifest) -> (u64, u64) {
    let mut done = 0u64;
    let mut quarantined = 0u64;
    for plan in &manifest.ranges {
        let path = range_path(dir, plan.index);
        if lease::done_path(&path).exists() {
            done += 1;
        } else if lease::quarantine_path(&path).exists() {
            quarantined += 1;
        }
    }
    (done, quarantined)
}

/// Expires every range lease the dead worker `worker_id` still holds,
/// so the next claim takes its range over at once and charges the
/// attempt it died on. Returns how many leases it held.
fn expire_dead_worker(
    dir: &Path,
    manifest: &Manifest,
    worker_id: &str,
) -> Result<u64, RuntimeError> {
    let mut held = 0u64;
    for plan in &manifest.ranges {
        held += u64::from(lease::expire(&range_path(dir, plan.index), worker_id)?);
    }
    Ok(held)
}

/// True while some range holds an unexpired lease. Every reaped child's
/// leases are expired, so a live one belongs to a process this
/// supervisor did not spawn — an orphan of an earlier supervisor — and
/// lasts at most until it releases or its lease runs out.
fn leases_live(dir: &Path, manifest: &Manifest) -> Result<bool, RuntimeError> {
    let now = SystemClock.now_ms();
    for plan in &manifest.ranges {
        if let lease::LeaseState::Held(info) = lease::read_lease(&range_path(dir, plan.index))? {
            if info.expires_ms > now {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Verifies each done range's checkpoint actually covers its shards
/// with the right spec hash. An invalid one (e.g. a stale takeover
/// victim's partial write that landed after the done marker) has its
/// done marker withdrawn and checkpoint removed so the range
/// recomputes. Returns true when every done range checked out.
fn revalidate_done_ranges(
    dir: &Path,
    manifest: &Manifest,
    spec_hash: &str,
) -> Result<bool, RuntimeError> {
    let mut all_valid = true;
    for plan in &manifest.ranges {
        let path = range_path(dir, plan.index);
        if !lease::done_path(&path).exists() {
            continue;
        }
        let checkpoint = default_checkpoint_path(&path);
        let valid = match Checkpoint::load(&checkpoint) {
            Ok(Some(found)) => {
                found.spec_hash == spec_hash
                    && (plan.start..plan.end).all(|s| found.shards.contains_key(&s))
            }
            Ok(None) => false,
            Err(RuntimeError::Parse(_)) => false,
            Err(e) => return Err(e),
        };
        if !valid {
            for stale in [lease::done_path(&path), checkpoint.clone()] {
                match std::fs::remove_file(&stale) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => {
                        return Err(RuntimeError::io(
                            &format!("withdrawing {}", stale.display()),
                            e,
                        ))
                    }
                }
            }
            all_valid = false;
        }
    }
    Ok(all_valid)
}

/// Merges every range checkpoint's shards into one job checkpoint.
/// Quarantined ranges contribute whatever shards they completed
/// (partial progress); a torn range checkpoint is quarantined aside by
/// the shared load path and contributes nothing.
fn merge_ranges(
    dir: &Path,
    manifest: &Manifest,
    spec_hash: &str,
    total_shards: u64,
    options: &OrchOptions,
) -> Result<Checkpoint, RuntimeError> {
    let mut merged = Checkpoint::new(spec_hash.to_string(), total_shards);
    for plan in &manifest.ranges {
        let path = default_checkpoint_path(&range_path(dir, plan.index));
        if let Injected::Error(e) = faults::fire("orch.merge.load") {
            return Err(RuntimeError::io(&format!("reading {}", path.display()), e));
        }
        let Some(found) = Checkpoint::load_or_quarantine(&path, &*options.run.sink)? else {
            continue;
        };
        if found.spec_hash != spec_hash {
            continue; // foreign bytes never merge
        }
        for (shard, summary) in &found.shards {
            if *shard < total_shards {
                merged.record(*shard, summary.clone());
            }
        }
    }
    Ok(merged)
}

/// Winds the worker pool down: optionally asks children to stop
/// (SIGTERM — they release leases and flush checkpoints on the way
/// out), waits up to the grace period for clean exits, then kills and
/// reaps whatever remains (a SIGSTOPped straggler never exits on its
/// own). Every reaped child emits its `orch_exit` event.
fn shutdown_children(
    children: &mut Vec<ChildSlot>,
    options: &OrchOptions,
    sink: &Arc<dyn od_telemetry::TelemetrySink>,
    request_stop: bool,
) {
    if request_stop {
        for slot in children.iter() {
            #[cfg(unix)]
            {
                let _ = Command::new("kill")
                    .args(["-TERM", &slot.child.id().to_string()])
                    .status();
            }
            #[cfg(not(unix))]
            {
                let _ = slot;
            }
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_millis(options.shutdown_grace_ms);
    loop {
        let mut index = 0;
        while index < children.len() {
            match children[index].child.try_wait() {
                Ok(Some(status)) => {
                    let slot = children.swap_remove(index);
                    if sink.enabled() {
                        sink.emit(&Event::OrchExit {
                            worker: &slot.worker_id,
                            ok: status.success(),
                            code: status.code().map(|c| c.unsigned_abs().into()),
                        });
                    }
                }
                _ => index += 1,
            }
        }
        if children.is_empty() || std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for mut slot in children.drain(..) {
        let _ = slot.child.kill();
        if let Ok(status) = slot.child.wait() {
            if sink.enabled() {
                sink.emit(&Event::OrchExit {
                    worker: &slot.worker_id,
                    ok: status.success(),
                    code: status.code().map(|c| c.unsigned_abs().into()),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_job;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("od_runtime_orch_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_job(name: &str, seed: u64, trials: u64) -> String {
        format!(
            r#"{{
  "name": "{name}",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": 200, "k": 4}},
  "trials": {trials},
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
            backoff_base_ms: 0,
            ..WorkerOptions::default()
        }
    }

    #[test]
    fn plan_tiles_the_shard_range_evenly() {
        let manifest = Manifest::plan("h".into(), 10, 4);
        assert!(manifest.tiles());
        let sizes: Vec<u64> = manifest.ranges.iter().map(|r| r.end - r.start).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // More requested ranges than shards clamp to one shard each.
        let manifest = Manifest::plan("h".into(), 3, 16);
        assert!(manifest.tiles());
        assert_eq!(manifest.ranges.len(), 3);
        // A single range covers everything.
        let manifest = Manifest::plan("h".into(), 5, 1);
        assert!(manifest.tiles());
        assert_eq!((manifest.ranges[0].start, manifest.ranges[0].end), (0, 5));
    }

    #[test]
    fn manifest_roundtrips_and_rejects_non_tiling_ranges() {
        let dir = temp_dir("manifest_roundtrip");
        let manifest = Manifest::plan("abc".into(), 8, 3);
        manifest.save(&dir).unwrap();
        let loaded = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, manifest);
        // A gap in the tiling is a parse error, not silent acceptance.
        let mut broken = manifest.clone();
        broken.ranges[1].start += 1;
        std::fs::write(manifest_path(&dir), broken.to_json().to_string_pretty()).unwrap();
        assert!(matches!(Manifest::load(&dir), Err(RuntimeError::Parse(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = temp_dir("manifest_missing");
        assert!(Manifest::load(&dir).unwrap().is_none());
        assert!(Manifest::load(&dir.join("no_such_dir")).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One child process draining every range reproduces the exact
    /// checkpoint bytes of a single-process run after the merge.
    #[test]
    fn child_drain_plus_merge_matches_single_process_bytes() {
        let dir = temp_dir("child_drain");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("orch", 11, 12)).unwrap();
        let spec = load_job_file(&job).unwrap();
        let hash = spec.content_hash();
        let total = spec.shard_count();

        // Reference: plain single-process run with its checkpoint.
        let reference = dir.join("reference.checkpoint.json");
        let report = run_job(
            &spec,
            &RunOptions {
                checkpoint_path: Some(reference.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap();

        // Orchestrated control plane, drained in-process by one child.
        let orch = orch_dir(&job);
        std::fs::create_dir_all(&orch).unwrap();
        let manifest = Manifest::plan(hash.clone(), total, 4);
        manifest.save(&orch).unwrap();
        sync_range_files(&orch, &manifest).unwrap();
        let child = run_orch_child(&job, &worker_options("c1")).unwrap();
        assert_eq!((child.done, child.quarantined), (4, 0));
        assert!(!child.interrupted);
        assert_eq!(child.entries.len(), 4);

        let options = OrchOptions::default();
        let merged = merge_ranges(&orch, &manifest, &hash, total, &options).unwrap();
        assert!(merged.is_complete());
        merged.save(&dir.join("merged.checkpoint.json")).unwrap();
        assert_eq!(
            std::fs::read(dir.join("merged.checkpoint.json")).unwrap(),
            std::fs::read(&reference).unwrap(),
            "merged checkpoint bytes differ from the single-process run"
        );
        let mut summary = ShardSummary::new();
        for shard in merged.shards.values() {
            summary.merge(shard);
        }
        assert_eq!(
            summary.to_json().to_string_compact(),
            report.summary.to_json().to_string_compact()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A live range lease the supervisor did not grant (an orphan of an
    /// earlier supervisor, still releasing it) holds the merge and the
    /// control plane's removal back until it is gone.
    #[test]
    fn merge_waits_out_a_live_lease_of_an_orphan() {
        let dir = temp_dir("orphan_lease");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("orphan", 13, 8)).unwrap();
        let spec = load_job_file(&job).unwrap();
        let orch = orch_dir(&job);
        std::fs::create_dir_all(&orch).unwrap();
        let manifest = Manifest::plan(spec.content_hash(), spec.shard_count(), 2);
        manifest.save(&orch).unwrap();
        sync_range_files(&orch, &manifest).unwrap();
        run_orch_child(&job, &worker_options("c1")).unwrap();
        let clock: Arc<dyn QueueClock> = Arc::new(SystemClock);
        let lease_ms = 600;
        let claimed = std::time::Instant::now();
        assert!(matches!(
            lease::claim(&range_path(&orch, 0), "orphan", lease_ms, 1, &clock).unwrap(),
            lease::ClaimOutcome::Claimed { .. }
        ));
        // Every range is done, so no child is ever spawned.
        let report = orchestrate(&job, &OrchOptions::default()).unwrap();
        assert!(claimed.elapsed() >= Duration::from_millis(lease_ms));
        assert_eq!(report.completed_shards, spec.shard_count());
        assert!(!orch.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn child_treats_missing_control_plane_as_complete() {
        let dir = temp_dir("child_gone");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("gone", 3, 4)).unwrap();
        let report = run_orch_child(&job, &worker_options("c1")).unwrap();
        assert_eq!((report.done, report.total), (0, 0));
        assert!(!report.interrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn child_rejects_a_manifest_from_another_spec() {
        let dir = temp_dir("child_mismatch");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("mismatch", 5, 4)).unwrap();
        let orch = orch_dir(&job);
        std::fs::create_dir_all(&orch).unwrap();
        Manifest::plan("someone-elses-hash".into(), 2, 2)
            .save(&orch)
            .unwrap();
        assert!(matches!(
            run_orch_child(&job, &worker_options("c1")),
            Err(RuntimeError::CheckpointMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_range_checkpoints_still_merge_partial_progress() {
        let dir = temp_dir("partial_merge");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("partial", 7, 8)).unwrap();
        let spec = load_job_file(&job).unwrap();
        let hash = spec.content_hash();
        let total = spec.shard_count(); // 4 shards
        let orch = orch_dir(&job);
        std::fs::create_dir_all(&orch).unwrap();
        let manifest = Manifest::plan(hash.clone(), total, 2);
        manifest.save(&orch).unwrap();
        sync_range_files(&orch, &manifest).unwrap();
        // Range 0 completes; range 1 is quarantined after computing
        // only its first shard (via a direct shard_range run).
        let spec0 = &manifest.ranges[0];
        run_job(
            &spec,
            &RunOptions {
                checkpoint_path: Some(default_checkpoint_path(&range_path(&orch, 0))),
                shard_range: Some((spec0.start, spec0.end)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        lease::write_done(&range_path(&orch, 0), &hash, &Json::object()).unwrap();
        let spec1 = &manifest.ranges[1];
        run_job(
            &spec,
            &RunOptions {
                checkpoint_path: Some(default_checkpoint_path(&range_path(&orch, 1))),
                shard_range: Some((spec1.start, spec1.start + 1)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        Quarantine {
            error: "poisoned".into(),
            attempts: 3,
            spec_hash: Some(hash.clone()),
        }
        .save(&range_path(&orch, 1))
        .unwrap();

        let options = OrchOptions::default();
        let merged = merge_ranges(&orch, &manifest, &hash, total, &options).unwrap();
        assert!(!merged.is_complete());
        // Both of range 0's shards plus range 1's salvaged first shard.
        assert_eq!(merged.shards.len() as u64, (spec0.end - spec0.start) + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn revalidation_withdraws_done_markers_without_complete_checkpoints() {
        let dir = temp_dir("revalidate");
        let job = dir.join("job.json");
        std::fs::write(&job, small_job("reval", 9, 8)).unwrap();
        let spec = load_job_file(&job).unwrap();
        let hash = spec.content_hash();
        let orch = orch_dir(&job);
        std::fs::create_dir_all(&orch).unwrap();
        let manifest = Manifest::plan(hash.clone(), spec.shard_count(), 2);
        manifest.save(&orch).unwrap();
        sync_range_files(&orch, &manifest).unwrap();
        // A done marker with no checkpoint behind it: a stale writer's
        // partial save clobbered the complete one.
        lease::write_done(&range_path(&orch, 0), &hash, &Json::object()).unwrap();
        assert!(!revalidate_done_ranges(&orch, &manifest, &hash).unwrap());
        assert!(!lease::done_path(&range_path(&orch, 0)).exists());
        // With nothing done, revalidation has nothing to object to.
        assert!(revalidate_done_ranges(&orch, &manifest, &hash).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantining_the_manifest_clears_range_state() {
        let dir = temp_dir("manifest_quarantine");
        std::fs::write(manifest_path(&dir), "{ torn").unwrap();
        std::fs::write(range_path(&dir, 0), "{}").unwrap();
        std::fs::write(dir.join("range-0000.range.json.lease.json"), "{}").unwrap();
        quarantine_manifest(&dir).unwrap();
        assert!(dir.join("manifest.json.corrupt").exists());
        assert!(!manifest_path(&dir).exists());
        assert!(!range_path(&dir, 0).exists());
        assert!(!dir.join("range-0000.range.json.lease.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
