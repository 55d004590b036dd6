//! The content-hash-keyed results store.
//!
//! `<queue>/.results/<spec_hash>.json` holds a byte-for-byte copy of a
//! job's **validated** done marker (`{"spec_hash": ..., "summary":
//! ...}`). The store is populated lazily on lookup: a result is copied
//! out of the queue only when the marker's recorded hash matches both
//! the requested hash and the job file's current content hash — the
//! same validation the queue workers apply before honoring a marker —
//! so the store can never capture a stale result. Once published, a
//! result outlives its job file: identical specs are answered from the
//! store without touching the queue.

//! # Retention
//!
//! The store is a cache, so it is allowed to forget — but never to lie.
//! [`gc`] trims it to configured count/byte caps by evicting the
//! **oldest** entries first (modification time, tie-broken by name),
//! with one carve-out: a result whose spec hash is still the current
//! content hash of a queue job file is *referenced* — its job's
//! sidecars (done marker, lease, retry state) still point at it — and
//! is never evicted, even when that leaves the store over its caps.
//! Eviction passes through the `store.gc.evict` failpoint, so chaos
//! tests can kill the process mid-sweep and assert a rerun converges.
//!
//! # Accounting
//!
//! A service keeps its store's footprint in a [`Ledger`]: read from
//! disk once, adjusted by each publish, re-read by each GC sweep. A
//! metrics read or an under-cap GC check then costs a lock, not a
//! listing of `.results/`. Every listing of `.results/` passes through
//! the `store.scan` failpoint, so a test can prove which paths list.

use od_runtime::faults::{self, Injected};
use od_runtime::lease::DoneMarker;
use od_runtime::queue::queue_files;
use od_runtime::{load_job_file, RuntimeError};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

/// The store directory inside a queue (dot-prefixed, so the queue scan
/// never mistakes stored results for job files).
#[must_use]
pub fn results_dir(queue: &Path) -> PathBuf {
    queue.join(".results")
}

/// The stored result path for one spec hash.
#[must_use]
pub fn result_path(queue: &Path, spec_hash: &str) -> PathBuf {
    results_dir(queue).join(format!("{spec_hash}.json"))
}

/// True for the hash alphabet [`od_runtime::spec::JobSpec::content_hash`]
/// produces (lowercase hex); anything else can't name a stored result.
#[must_use]
pub fn valid_hash(spec_hash: &str) -> bool {
    !spec_hash.is_empty()
        && spec_hash.len() <= 32
        && spec_hash
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Reads a stored result verbatim, `None` when the store has no entry.
#[must_use]
pub fn lookup(queue: &Path, spec_hash: &str) -> Option<Vec<u8>> {
    if !valid_hash(spec_hash) {
        return None;
    }
    std::fs::read(result_path(queue, spec_hash)).ok()
}

/// Publishes `job`'s done marker into the store if — and only if — the
/// marker is current: its recorded hash equals both `spec_hash` and the
/// job file's content hash. Returns the published bytes, or `None` when
/// the job has no honorable result for that hash.
///
/// # Errors
///
/// Returns I/O errors from reading the marker or writing the store.
pub fn publish(queue: &Path, job: &Path, spec_hash: &str) -> Result<Option<Vec<u8>>, RuntimeError> {
    publish_to(queue, job, spec_hash, None)
}

/// [`publish`], adjusting `ledger` (when given) under its lock.
fn publish_to(
    queue: &Path,
    job: &Path,
    spec_hash: &str,
    ledger: Option<&Ledger>,
) -> Result<Option<Vec<u8>>, RuntimeError> {
    let Some(marker) = DoneMarker::load(job)? else {
        return Ok(None);
    };
    if marker.spec_hash.is_empty() || marker.spec_hash != spec_hash {
        return Ok(None);
    }
    let current = load_job_file(job)
        .map(|spec| spec.content_hash())
        .unwrap_or_default();
    if current != spec_hash {
        return Ok(None); // stale marker: the job file moved on
    }
    let marker_path = od_runtime::lease::done_path(job);
    let bytes = std::fs::read(&marker_path)
        .map_err(|e| RuntimeError::io(&format!("reading {}", marker_path.display()), e))?;
    let dir = results_dir(queue);
    std::fs::create_dir_all(&dir)
        .map_err(|e| RuntimeError::io(&format!("creating {}", dir.display()), e))?;
    let dest = result_path(queue, spec_hash);
    // One temporary file per call: two threads publishing the same hash
    // must not write, and then rename, one shared file.
    static PUBLISHES: AtomicU64 = AtomicU64::new(0);
    let tmp = dest.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        PUBLISHES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, &bytes)
        .map_err(|e| RuntimeError::io(&format!("writing {}", tmp.display()), e))?;
    // Under the ledger's lock no sweep runs, so the entry the rename
    // replaces (a re-publish of the hash) is the one stated here.
    let mut account = ledger.map(Ledger::lock);
    let replaced = account
        .as_ref()
        .and_then(|_| std::fs::metadata(&dest).ok())
        .map(|meta| meta.len());
    std::fs::rename(&tmp, &dest)
        .map_err(|e| RuntimeError::io(&format!("publishing {}", dest.display()), e))?;
    if let Some(footprint) = account.as_deref_mut() {
        match replaced {
            Some(old) => footprint.bytes = footprint.bytes.saturating_sub(old),
            None => footprint.entries += 1,
        }
        footprint.bytes += bytes.len() as u64;
    }
    Ok(Some(bytes))
}

/// Retention caps for [`gc`]. `None` fields are unbounded.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcCaps {
    /// Keep at most this many stored results.
    pub max_count: Option<u64>,
    /// Keep at most this many total stored bytes.
    pub max_bytes: Option<u64>,
}

impl GcCaps {
    /// True when no cap is set — [`gc`] has nothing to enforce.
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.max_count.is_none() && self.max_bytes.is_none()
    }

    /// True when `footprint` is over a cap.
    fn exceeded_by(&self, footprint: Footprint) -> bool {
        self.max_count.is_some_and(|cap| footprint.entries > cap)
            || self.max_bytes.is_some_and(|cap| footprint.bytes > cap)
    }
}

/// What one [`gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Results evicted this pass.
    pub evicted: u64,
    /// Results still stored after the pass.
    pub kept: u64,
    /// Bytes freed this pass.
    pub bytes_freed: u64,
}

/// The store's size: entries and bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Stored results.
    pub entries: u64,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// One stored result, as seen by the GC scan.
struct Entry {
    path: PathBuf,
    hash: String,
    bytes: u64,
    mtime: SystemTime,
}

/// Lists the store directory, calling `visit` with the hash and the
/// directory entry of each stored result, as the listing yields them —
/// nothing is collected and nothing is stated here.
fn for_each_result(
    queue: &Path,
    mut visit: impl FnMut(&str, &std::fs::DirEntry),
) -> Result<(), RuntimeError> {
    let dir = results_dir(queue);
    if let Injected::Error(e) = faults::fire("store.scan") {
        return Err(RuntimeError::io(&format!("scanning {}", dir.display()), e));
    }
    let iter = match std::fs::read_dir(&dir) {
        Ok(iter) => iter,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(RuntimeError::io(&format!("scanning {}", dir.display()), e)),
    };
    for entry in iter {
        let entry =
            entry.map_err(|e| RuntimeError::io(&format!("scanning {}", dir.display()), e))?;
        let name = entry.file_name();
        let Some(hash) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
            continue; // tmp files mid-publish, stray droppings
        };
        if valid_hash(hash) {
            visit(hash, &entry);
        }
    }
    Ok(())
}

/// Scans the store directory into entries, for a GC sweep. Entries that
/// vanish mid-scan (a concurrent GC, an operator's `rm`) are skipped,
/// not errors.
fn scan(queue: &Path) -> Result<Vec<Entry>, RuntimeError> {
    let mut entries = Vec::new();
    for_each_result(queue, |hash, entry| {
        if let Ok(meta) = entry.metadata() {
            entries.push(Entry {
                path: entry.path(),
                hash: hash.to_string(),
                bytes: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
    })?;
    Ok(entries)
}

/// Counts the store's entries and, when `sized`, sums their bytes (one
/// stat each), without collecting them. Entries that vanish mid-scan
/// are skipped where a stat reveals it.
fn tally(queue: &Path, sized: bool) -> Result<Footprint, RuntimeError> {
    let mut footprint = Footprint::default();
    for_each_result(queue, |_, entry| {
        if !sized {
            footprint.entries += 1;
        } else if let Ok(meta) = entry.metadata() {
            footprint.entries += 1;
            footprint.bytes += meta.len();
        }
    })?;
    Ok(footprint)
}

/// The store's current entry count and byte total.
#[must_use]
pub fn footprint(queue: &Path) -> Footprint {
    tally(queue, true).unwrap_or_default()
}

/// The spec hashes the store must keep: the *current* content hash of
/// every job file in the queue. A stored result for such a hash is
/// exactly what the job's done marker points at (markers are only
/// honored — and results only published — when the recorded hash
/// matches the job file), so evicting it would orphan live sidecars.
/// Unreadable job files protect nothing: their markers are already
/// unhonorable.
fn referenced_hashes(queue: &Path) -> Result<BTreeSet<String>, RuntimeError> {
    let mut hashes = BTreeSet::new();
    for job in queue_files(queue)? {
        if let Ok(spec) = load_job_file(&job) {
            hashes.insert(spec.content_hash());
        }
    }
    Ok(hashes)
}

/// Trims the store to `caps`, evicting oldest-first (mtime, then name)
/// and never evicting a result still referenced by a queue job file.
/// A pass that finds the store within its caps only lists `.results/`,
/// counting as it goes (and stating entries only for a byte cap); a
/// pass over a cap lists it again to sweep (see [`Ledger::gc`], which
/// keeps the count in memory instead). Returns what the pass did; when
/// every remaining entry is protected the store may legitimately stay
/// over its caps — the report's `kept` says so truthfully.
///
/// Each eviction consults the `store.gc.evict` failpoint: an injected
/// error aborts the pass mid-sweep (already-evicted entries stay gone —
/// the store is a cache, so a partial sweep is consistent; the next
/// pass finishes the job), and `abort` kills the process there, which
/// is the crash the chaos tests exercise.
///
/// # Errors
///
/// Returns I/O errors from scanning the store or queue, or from an
/// eviction (injected or real).
pub fn gc(queue: &Path, caps: &GcCaps) -> Result<GcReport, RuntimeError> {
    // Without a byte cap the count alone decides, so nothing is stated.
    let counted = tally(queue, caps.max_bytes.is_some())?;
    Ledger::new(counted).gc(queue, caps)
}

/// One GC sweep from a single listing of `.results/`. `footprint` is
/// set from that listing and follows each eviction, so it matches the
/// disk also when an eviction fails part-way. The queue is listed and
/// its job files hashed only when the listing is over a cap.
fn sweep(queue: &Path, caps: &GcCaps, footprint: &mut Footprint) -> Result<GcReport, RuntimeError> {
    let mut entries = scan(queue)?;
    *footprint = Footprint {
        entries: entries.len() as u64,
        bytes: entries.iter().map(|e| e.bytes).sum(),
    };
    let mut report = GcReport {
        kept: footprint.entries,
        ..GcReport::default()
    };
    if !caps.exceeded_by(*footprint) {
        return Ok(report);
    }
    let referenced = referenced_hashes(queue)?;
    entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.hash.cmp(&b.hash)));
    for entry in &entries {
        if !caps.exceeded_by(*footprint) {
            break;
        }
        if referenced.contains(&entry.hash) {
            continue;
        }
        match faults::fire("store.gc.evict") {
            Injected::None | Injected::Truncate(_) => {}
            Injected::Error(e) => {
                return Err(RuntimeError::io(
                    &format!("evicting {}", entry.path.display()),
                    e,
                ))
            }
        }
        match std::fs::remove_file(&entry.path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(RuntimeError::io(
                    &format!("evicting {}", entry.path.display()),
                    e,
                ))
            }
        }
        footprint.entries -= 1;
        footprint.bytes -= entry.bytes;
        report.evicted += 1;
        report.bytes_freed += entry.bytes;
    }
    report.kept = footprint.entries;
    Ok(report)
}

/// A service's account of its store's [`Footprint`], behind one lock:
/// read from disk by [`Ledger::open`], adjusted by every publish through
/// the ledger, and re-read from disk by every [`Ledger::gc`] sweep. It
/// is exact while its owner is the only writer of `.results/`; anything
/// else (an operator's `rm`) shows after the next sweep or a fresh
/// [`Ledger::open`].
#[derive(Debug)]
pub struct Ledger {
    footprint: Mutex<Footprint>,
}

impl Ledger {
    fn new(footprint: Footprint) -> Self {
        Self {
            footprint: Mutex::new(footprint),
        }
    }

    /// Reads the footprint of `queue`'s store from one sized listing.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from listing the store.
    pub fn open(queue: &Path) -> Result<Self, RuntimeError> {
        Ok(Self::new(tally(queue, true)?))
    }

    /// Every update leaves a whole footprint, so a poisoned lock still
    /// guards a valid one.
    fn lock(&self) -> MutexGuard<'_, Footprint> {
        self.footprint
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The accounted footprint; no disk access.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        *self.lock()
    }

    /// Answers a result lookup: the store first, then the queue
    /// (publishing a found result on the way out). While the canonical
    /// job file `job-<spec_hash>.json` exists, the answer comes from it
    /// alone, so a pending poll costs no scan of the queue; otherwise
    /// every queue job with an honorable done marker for `spec_hash` is
    /// a candidate, which covers hand-placed jobs. `None` when no
    /// validated result exists.
    ///
    /// # Errors
    ///
    /// Returns queue-scan and store I/O errors.
    pub fn get_or_publish(
        &self,
        queue: &Path,
        spec_hash: &str,
    ) -> Result<Option<Vec<u8>>, RuntimeError> {
        if !valid_hash(spec_hash) {
            return Ok(None);
        }
        if let Some(bytes) = lookup(queue, spec_hash) {
            return Ok(Some(bytes));
        }
        // The canonical submission path names jobs job-<hash>. A
        // marker's bytes are a pure function of the spec, so a
        // hand-placed duplicate holds the bytes the canonical job will:
        // skipping the scan changes only when they are served, never
        // what.
        let canonical = queue.join(format!("job-{spec_hash}.json"));
        if canonical.exists() {
            return publish_to(queue, &canonical, spec_hash, Some(self));
        }
        for job in queue_files(queue)? {
            if let Some(bytes) = publish_to(queue, &job, spec_hash, Some(self))? {
                return Ok(Some(bytes));
            }
        }
        Ok(None)
    }

    /// [`gc`] against the accounted footprint: within the caps it
    /// answers from memory; over them it sweeps from one listing of
    /// `.results/` and takes the footprint that listing and its
    /// evictions leave, also when an eviction fails part-way. Publishes
    /// wait while a sweep runs.
    ///
    /// # Errors
    ///
    /// As [`gc`].
    pub fn gc(&self, queue: &Path, caps: &GcCaps) -> Result<GcReport, RuntimeError> {
        let mut footprint = self.lock();
        if !caps.exceeded_by(*footprint) {
            return Ok(GcReport {
                kept: footprint.entries,
                ..GcReport::default()
            });
        }
        sweep(queue, caps, &mut footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_runtime::json::{parse, Json};
    use od_runtime::lease;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("od_serve_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Answers through a ledger opened on `dir`, and checks that the
    /// ledger still equals the disk afterwards.
    fn get_or_publish(dir: &Path, hash: &str) -> Result<Option<Vec<u8>>, RuntimeError> {
        let ledger = Ledger::open(dir).unwrap();
        let answer = ledger.get_or_publish(dir, hash);
        assert_eq!(ledger.footprint(), footprint(dir));
        answer
    }

    const SPEC: &str = r#"{
  "name": "s",
  "protocol": {"name": "three-majority"},
  "initial": {"kind": "balanced", "n": 200, "k": 4},
  "trials": 2,
  "master_seed": 1,
  "max_rounds": 100000,
  "shard_size": 2
}"#;

    #[test]
    fn publishes_only_validated_markers_and_survives_job_removal() {
        let dir = temp_dir("publish");
        let job = dir.join("job-x.json");
        std::fs::write(&job, SPEC).unwrap();
        let hash = load_job_file(&job).unwrap().content_hash();
        assert!(valid_hash(&hash), "{hash}");

        // No marker yet: no result.
        assert!(get_or_publish(&dir, &hash).unwrap().is_none());

        let mut summary = Json::object();
        summary.insert("trials", Json::Int(2));
        lease::write_done(&job, &hash, &summary).unwrap();
        let first = get_or_publish(&dir, &hash).unwrap().expect("result");
        let doc = parse(std::str::from_utf8(&first).unwrap()).unwrap();
        assert_eq!(
            doc.get("spec_hash").and_then(Json::as_str),
            Some(hash.as_str())
        );

        // Served from the store even after the queue forgets the job.
        std::fs::remove_file(&job).unwrap();
        std::fs::remove_file(lease::done_path(&job)).unwrap();
        let second = get_or_publish(&dir, &hash).unwrap().expect("stored");
        assert_eq!(first, second, "stored bytes must be verbatim");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_publishes_of_one_hash_all_succeed() {
        let dir = temp_dir("publish_race");
        let job = dir.join("job-z.json");
        std::fs::write(&job, SPEC).unwrap();
        let hash = load_job_file(&job).unwrap().content_hash();
        lease::write_done(&job, &hash, &Json::object()).unwrap();
        let ledger = Ledger::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let published = publish_to(&dir, &job, &hash, Some(&ledger));
                        assert!(matches!(published, Ok(Some(_))), "{published:?}");
                    }
                });
            }
        });
        assert_eq!(ledger.footprint().entries, 1);
        assert_eq!(ledger.footprint(), footprint(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_markers_never_reach_the_store() {
        let dir = temp_dir("stale");
        let job = dir.join("job-y.json");
        std::fs::write(&job, SPEC).unwrap();
        let old_hash = load_job_file(&job).unwrap().content_hash();
        lease::write_done(&job, &old_hash, &Json::object()).unwrap();
        // The job file changes after completion: its marker is stale.
        std::fs::write(&job, SPEC.replace("\"trials\": 2", "\"trials\": 4")).unwrap();
        assert!(get_or_publish(&dir, &old_hash).unwrap().is_none());
        assert!(!result_path(&dir, &old_hash).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes a fake stored result with a pinned modification time so
    /// eviction order is deterministic under test.
    fn plant(dir: &Path, hash: &str, bytes: &[u8], mtime_secs: u64) {
        let path = result_path(dir, hash);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(mtime_secs))
            .unwrap();
    }

    #[test]
    fn gc_evicts_oldest_first_but_never_a_referenced_result() {
        let dir = temp_dir("gc_order");
        // A live queue job: its current content hash is referenced, so
        // its stored result must survive GC even as the oldest entry.
        let job = dir.join("job-live.json");
        std::fs::write(&job, SPEC).unwrap();
        let live = load_job_file(&job).unwrap().content_hash();
        plant(&dir, &live, b"{\"live\":true}", 100);
        plant(&dir, "aa", b"{}", 200);
        plant(&dir, "cc", b"{}", 300);
        plant(&dir, "dd", b"{}", 400);

        let caps = GcCaps {
            max_count: Some(2),
            max_bytes: None,
        };
        let report = gc(&dir, &caps).unwrap();
        assert_eq!(report.evicted, 2, "{report:?}");
        assert_eq!(report.kept, 2);
        assert!(
            result_path(&dir, &live).exists(),
            "referenced result evicted"
        );
        assert!(!result_path(&dir, "aa").exists(), "oldest evictable kept");
        assert!(!result_path(&dir, "cc").exists());
        assert!(result_path(&dir, "dd").exists(), "newest entry evicted");

        // Once the job file is gone nothing references the result; the
        // next pass may evict it (oldest first again).
        std::fs::remove_file(&job).unwrap();
        let caps = GcCaps {
            max_count: Some(1),
            max_bytes: None,
        };
        let report = gc(&dir, &caps).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(!result_path(&dir, &live).exists());
        assert!(result_path(&dir, "dd").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_enforces_byte_caps_and_reports_footprint() {
        let dir = temp_dir("gc_bytes");
        plant(&dir, "aa", &[b'x'; 10], 100);
        plant(&dir, "bb", &[b'y'; 10], 200);
        plant(&dir, "cc", &[b'z'; 10], 300);
        let before = footprint(&dir);
        assert_eq!(before.entries, 3);
        assert_eq!(before.bytes, 30);

        let caps = GcCaps {
            max_count: None,
            max_bytes: Some(15),
        };
        let report = gc(&dir, &caps).unwrap();
        assert_eq!(report.evicted, 2);
        assert_eq!(report.bytes_freed, 20);
        assert_eq!(report.kept, 1);
        assert!(result_path(&dir, "cc").exists(), "newest must survive");

        let after = footprint(&dir);
        assert_eq!(after.entries, 1);
        assert_eq!(after.bytes, 10);

        // Unbounded caps never evict.
        let report = gc(&dir, &GcCaps::default()).unwrap();
        assert_eq!(report.evicted, 0);
        assert_eq!(report.kept, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job file with a non-UTF-8 name makes the queue unlistable, so
    /// it reveals exactly when `gc` consults the queue: never while the
    /// store is within its caps, always before an eviction.
    #[cfg(unix)]
    #[test]
    fn gc_lists_the_queue_only_when_a_cap_is_exceeded() {
        use std::os::unix::ffi::OsStrExt;
        let dir = temp_dir("gc_lazy");
        let bad = std::ffi::OsStr::from_bytes(b"bad\xff.json");
        std::fs::write(dir.join(bad), SPEC).unwrap();
        plant(&dir, "aa", b"{}", 100);
        plant(&dir, "bb", b"{}", 200);

        let within = GcCaps {
            max_count: Some(2),
            max_bytes: Some(4),
        };
        let report = gc(&dir, &within).unwrap();
        assert_eq!((report.evicted, report.kept), (0, 2));

        for over in [
            GcCaps {
                max_count: Some(1),
                max_bytes: None,
            },
            GcCaps {
                max_count: None,
                max_bytes: Some(3),
            },
        ] {
            let err = gc(&dir, &over).unwrap_err();
            assert!(
                matches!(err, RuntimeError::NonUtf8QueueEntry { .. }),
                "got {err:?}"
            );
        }
        // Nothing was evicted blind.
        assert!(result_path(&dir, "aa").exists());
        assert!(result_path(&dir, "bb").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serves_a_hand_placed_duplicate_when_no_canonical_file_exists() {
        let dir = temp_dir("hand_placed");
        let job = dir.join("mine.json");
        std::fs::write(&job, SPEC).unwrap();
        let hash = load_job_file(&job).unwrap().content_hash();
        lease::write_done(&job, &hash, &Json::object()).unwrap();
        assert!(!dir.join(format!("job-{hash}.json")).exists());
        let bytes = get_or_publish(&dir, &hash).unwrap().expect("result");
        assert_eq!(bytes, std::fs::read(lease::done_path(&job)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job file with a non-UTF-8 name makes the queue unlistable, so
    /// it reveals that a pending canonical job is answered without a
    /// scan.
    #[cfg(unix)]
    #[test]
    fn a_pending_canonical_job_is_answered_without_listing_the_queue() {
        use std::os::unix::ffi::OsStrExt;
        let dir = temp_dir("canonical_pending");
        let probe = dir.join("probe.json");
        std::fs::write(&probe, SPEC).unwrap();
        let hash = load_job_file(&probe).unwrap().content_hash();
        std::fs::remove_file(&probe).unwrap();
        let bad = std::ffi::OsStr::from_bytes(b"bad\xff.json");
        std::fs::write(dir.join(bad), SPEC).unwrap();

        let canonical = dir.join(format!("job-{hash}.json"));
        std::fs::write(&canonical, SPEC).unwrap();
        assert!(get_or_publish(&dir, &hash).unwrap().is_none());

        // Without the canonical file the lookup scans, and the scan
        // fails on the bad entry.
        std::fs::remove_file(&canonical).unwrap();
        let err = get_or_publish(&dir, &hash).unwrap_err();
        assert!(
            matches!(err, RuntimeError::NonUtf8QueueEntry { .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A done job in `dir` named `job-<hash>.json` for seed `seed`;
    /// returns its path and hash.
    fn done_job(dir: &Path, seed: u64) -> (PathBuf, String) {
        let text = SPEC.replace("\"master_seed\": 1", &format!("\"master_seed\": {seed}"));
        let probe = dir.join("probe.json");
        std::fs::write(&probe, &text).unwrap();
        let hash = load_job_file(&probe).unwrap().content_hash();
        std::fs::remove_file(&probe).unwrap();
        let job = dir.join(format!("job-{hash}.json"));
        std::fs::write(&job, &text).unwrap();
        let mut summary = Json::object();
        summary.insert("seed", Json::Int(seed as i64));
        lease::write_done(&job, &hash, &summary).unwrap();
        (job, hash)
    }

    #[test]
    fn the_ledger_counts_publishes_once_per_hash() {
        let dir = temp_dir("ledger_publish");
        plant(&dir, "aa", b"{}", 100);
        let ledger = Ledger::open(&dir).unwrap();
        assert_eq!(ledger.footprint(), footprint(&dir));
        let (job, hash) = done_job(&dir, 5);
        for _ in 0..2 {
            // The second publish replaces the first: same entry count.
            assert!(publish_to(&dir, &job, &hash, Some(&ledger))
                .unwrap()
                .is_some());
            assert_eq!(ledger.footprint(), footprint(&dir));
        }
        assert_eq!(ledger.footprint().entries, 2);
        // A publish that finds no honorable marker changes nothing.
        let (other, other_hash) = done_job(&dir, 6);
        std::fs::remove_file(lease::done_path(&other)).unwrap();
        assert!(publish_to(&dir, &other, &other_hash, Some(&ledger))
            .unwrap()
            .is_none());
        assert_eq!(ledger.footprint(), footprint(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_ledger_follows_evictions_and_referenced_stores_over_cap() {
        let dir = temp_dir("ledger_gc");
        let (job_a, hash_a) = done_job(&dir, 1);
        let (job_b, hash_b) = done_job(&dir, 2);
        plant(&dir, "aa", &[b'x'; 10], 100);
        plant(&dir, "bb", &[b'y'; 20], 200);
        let ledger = Ledger::open(&dir).unwrap();
        let caps = GcCaps {
            max_count: Some(1),
            max_bytes: None,
        };
        // The first publish puts the store over its cap: both planted
        // entries go, and the ledger is what the sweep left.
        publish_to(&dir, &job_a, &hash_a, Some(&ledger))
            .unwrap()
            .unwrap();
        let report = ledger.gc(&dir, &caps).unwrap();
        assert_eq!((report.evicted, report.kept), (2, 1), "{report:?}");
        assert_eq!(report.bytes_freed, 30);
        assert_eq!(ledger.footprint(), footprint(&dir));

        // Both results referenced: the store stays over its cap, and
        // the ledger says so.
        publish_to(&dir, &job_b, &hash_b, Some(&ledger))
            .unwrap()
            .unwrap();
        let report = ledger.gc(&dir, &caps).unwrap();
        assert_eq!((report.evicted, report.kept), (0, 2), "{report:?}");
        assert_eq!(ledger.footprint(), footprint(&dir));
        assert_eq!(ledger.footprint().entries, 2);

        // A removal behind the ledger's back shows at the next sweep.
        std::fs::remove_file(result_path(&dir, &hash_b)).unwrap();
        assert_eq!(ledger.footprint().entries, 2);
        let report = ledger.gc(&dir, &caps).unwrap();
        assert_eq!((report.evicted, report.kept), (0, 1));
        assert_eq!(ledger.footprint(), footprint(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_under_cap_ledger_gc_reads_no_disk() {
        let dir = temp_dir("ledger_lazy");
        let ledger = Ledger::open(&dir).unwrap();
        // Entries planted behind the ledger's back stay unseen while
        // the ledger is within its caps: the check never lists.
        plant(&dir, "aa", b"{}", 100);
        plant(&dir, "bb", b"{}", 200);
        let caps = GcCaps {
            max_count: Some(1),
            max_bytes: Some(1),
        };
        let report = ledger.gc(&dir, &caps).unwrap();
        assert_eq!(report, GcReport::default());
        assert!(result_path(&dir, "aa").exists());
        assert_eq!(ledger.footprint(), Footprint::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_hashes_that_cannot_name_files() {
        let dir = temp_dir("badhash");
        for bad in ["", "../../etc/passwd", "ABCDEF", "zz", &"a".repeat(64)] {
            assert!(get_or_publish(&dir, bad).unwrap().is_none(), "{bad}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
