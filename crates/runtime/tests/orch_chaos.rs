//! The orchestration chaos harness: a real `od-run --orchestrate`
//! supervisor fans a job out across child worker processes while the
//! harness SIGKILLs first a child (picked from the range lease holders,
//! `worker-<pid>`) and then the supervisor itself, mid-run. Restarting
//! the orchestration must resume from the persisted control plane —
//! range manifest, leases, per-range checkpoints — and converge to a
//! job checkpoint **byte-identical** to a fault-free single-process
//! run, with the entire `.orch/` control plane removed. A SIGSTOPped
//! child must lose its range to lease expiry without stalling the run.

#![cfg(unix)]

use od_runtime::orchestrator::range_path;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const OD_RUN: &str = env!("CARGO_BIN_EXE_od-run");
const VALIDATOR: &str = env!("CARGO_BIN_EXE_od-telemetry-validate");

/// A graph job (per-node simulation, so every shard takes real
/// wall-clock time): kills land mid-range, not after the work is done.
fn job(seed: u64) -> String {
    format!(
        r#"{{
  "name": "orch_chaos",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": 16000, "k": 6}},
  "trials": 8,
  "master_seed": {seed},
  "max_rounds": 100000,
  "shard_size": 1,
  "mode": "full",
  "stop": {{"kind": "consensus"}},
  "graph": {{"family": "random-regular", "d": 8, "assignment": "striped"}}
}}"#
    )
}

fn make_job_dir(tag: &str, seed: u64) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("od_orch_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job(seed)).unwrap();
    (dir, job_path)
}

fn single_process_reference(job_path: &Path) -> Vec<u8> {
    let status = Command::new(OD_RUN)
        .arg(job_path)
        .arg("--quiet")
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reference run failed: {status}");
    let checkpoint = job_path.with_file_name("job.json.checkpoint.json");
    let bytes = std::fs::read(&checkpoint).unwrap();
    std::fs::remove_file(&checkpoint).unwrap();
    bytes
}

fn orchestrate_cmd(job_path: &Path, workers: u64, telemetry: Option<&Path>) -> Command {
    let mut cmd = Command::new(OD_RUN);
    cmd.arg(job_path)
        .args(["--orchestrate", &workers.to_string()])
        .args(["--lease-secs", "2", "--max-retries", "3", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = telemetry {
        cmd.arg("--telemetry-out").arg(path);
    }
    cmd
}

fn orch_dir(job_path: &Path) -> PathBuf {
    job_path.with_file_name("job.json.orch")
}

/// The worker ids named by the range leases currently on disk.
fn range_lease_holders(dir: &Path) -> Vec<String> {
    files_with_suffix(dir, ".range.json.lease.json")
        .iter()
        .filter_map(|path| {
            let text = std::fs::read_to_string(path).ok()?;
            let value = od_runtime::json::parse(&text).ok()?;
            Some(value.get("worker_id")?.as_str()?.to_string())
        })
        .collect()
}

/// The pid of a child worker id, `worker-<pid>`.
fn pid_of(worker_id: &str) -> Option<u64> {
    worker_id.strip_prefix("worker-")?.parse().ok()
}

fn files_with_suffix(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<PathBuf> = entries
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(suffix))
        })
        .collect();
    found.sort();
    found
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn signal(pid: u64, sig: &str) {
    let _ = Command::new("kill")
        .args([sig, &pid.to_string()])
        .stderr(Stdio::null())
        .status();
}

/// Children die, the supervisor dies, and a restarted orchestration
/// still produces the fault-free bytes with a clean control plane.
#[test]
fn orchestration_survives_child_and_supervisor_kills() {
    let (dir, job_path) = make_job_dir("kills", 1234);
    let reference = single_process_reference(&job_path);
    let orch = orch_dir(&job_path);

    // Round 1: kill a child as soon as it has checkpointed work in
    // flight, then kill the supervisor itself shortly after a range
    // completes — the worst crash point, with a half-merged control
    // plane on disk and orphaned children still running.
    let mut supervisor = orchestrate_cmd(&job_path, 2, None).spawn().unwrap();
    // Each wait tolerates the supervisor finishing first: the kill
    // points are derived from disk state, and a fast round 1 simply
    // turns round 2 into a rerun-over-done-work check.
    wait_for("a range checkpoint and a range lease holder", || {
        supervisor.try_wait().unwrap().is_some()
            || (!range_lease_holders(&orch).is_empty()
                && !files_with_suffix(&orch, ".checkpoint.json").is_empty())
    });
    if supervisor.try_wait().unwrap().is_none() {
        if let Some(pid) = range_lease_holders(&orch).iter().find_map(|id| pid_of(id)) {
            signal(pid, "-KILL");
        }
        wait_for("the first completed range", || {
            supervisor.try_wait().unwrap().is_some()
                || !files_with_suffix(&orch, ".done.json").is_empty()
        });
        let _ = supervisor.kill(); // SIGKILL: no cleanup, no reaping
    }
    let _ = supervisor.wait();

    // Round 2: a fresh supervisor adopts the persisted control plane
    // (and coexists with any orphans from round 1) and finishes the
    // job. A kill can land so late that round 1 already merged; the
    // restart then simply re-runs to the same bytes.
    let telemetry = dir.join("supervisor.telemetry.jsonl");
    let status = orchestrate_cmd(&job_path, 2, Some(&telemetry))
        .status()
        .unwrap();
    assert!(status.success(), "restarted orchestration failed: {status}");

    // Byte-identical result, fully cleaned control plane.
    let merged = std::fs::read(job_path.with_file_name("job.json.checkpoint.json")).unwrap();
    assert_eq!(
        merged, reference,
        "orchestrated checkpoint diverged from the single-process run"
    );
    assert!(
        !orch.exists(),
        "control plane left behind: {}",
        orch.display()
    );
    assert!(files_with_suffix(&dir, ".lease.json").is_empty());
    assert!(files_with_suffix(&dir, ".failed.json").is_empty());

    // The clean supervisor's telemetry must satisfy the published
    // schema, orch_* kinds included.
    let validate = Command::new(VALIDATOR)
        .arg("--events")
        .arg(&telemetry)
        .output()
        .unwrap();
    assert!(
        validate.status.success(),
        "telemetry validation failed:\n{}{}",
        String::from_utf8_lossy(&validate.stdout),
        String::from_utf8_lossy(&validate.stderr),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SIGSTOPped child holds its range lease but stops renewing it; once
/// the lease expires a healthy child takes the range over and the run
/// still converges to the fault-free bytes. The supervisor needs no
/// sweep for this: the lease protocol recovers it within `--lease-secs`.
#[test]
fn sigstopped_child_loses_its_range_to_lease_expiry() {
    let (dir, job_path) = make_job_dir("straggler", 5678);
    let reference = single_process_reference(&job_path);
    let orch = orch_dir(&job_path);

    let mut supervisor = orchestrate_cmd(&job_path, 2, None).spawn().unwrap();
    // Stop a worker that holds a range lease, so its range cannot
    // complete until the lease expires. The holder may release between
    // the pick and the stop; then it is resumed and another pick is
    // made.
    let victim = loop {
        let mut picked = None;
        wait_for("a live worker with a claimed range", || {
            assert!(
                supervisor.try_wait().unwrap().is_none(),
                "supervisor exited before any range was claimed"
            );
            picked = range_lease_holders(&orch)
                .into_iter()
                .find_map(|holder| Some((pid_of(&holder)?, holder)));
            picked.is_some()
        });
        let (pid, holder) = picked.expect("wait_for returned on a pick");
        signal(pid, "-STOP");
        if range_lease_holders(&orch).contains(&holder) {
            break pid;
        }
        signal(pid, "-CONT");
    };

    let status = supervisor.wait().unwrap();
    // Make sure the stopped pid cannot linger past the test whatever
    // the assertions below decide (the supervisor SIGKILLs leftover
    // children at shutdown, so this is normally a no-op).
    signal(victim, "-CONT");
    signal(victim, "-KILL");
    assert!(status.success(), "straggler run failed: {status}");

    let merged = std::fs::read(job_path.with_file_name("job.json.checkpoint.json")).unwrap();
    assert_eq!(merged, reference, "straggler run diverged");
    assert!(!orch.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pre-quarantined range degrades the run instead of failing it:
/// exit 4, partial merged checkpoint, control plane kept for
/// inspection.
#[test]
fn quarantined_range_reports_partial_progress_with_exit_4() {
    let (dir, job_path) = make_job_dir("partial", 9999);
    let spec = od_runtime::load_job_file(&job_path).unwrap();
    let orch = orch_dir(&job_path);
    std::fs::create_dir_all(&orch).unwrap();
    let manifest = od_runtime::Manifest::plan(spec.content_hash(), spec.shard_count(), 2);
    manifest.save(&orch).unwrap();
    od_runtime::lease::Quarantine {
        error: "injected by the chaos harness".to_string(),
        attempts: 3,
        spec_hash: Some(spec.content_hash()),
    }
    .save(&range_path(&orch, 1))
    .unwrap();

    let status = orchestrate_cmd(&job_path, 2, None).status().unwrap();
    assert_eq!(status.code(), Some(4), "expected exit 4, got {status}");

    // The healthy range's shards merged; the quarantined range's did
    // not, and its record survives for the operator.
    let merged = od_runtime::Checkpoint::load(&job_path.with_file_name("job.json.checkpoint.json"))
        .unwrap()
        .unwrap();
    let healthy = &manifest.ranges[0];
    assert_eq!(merged.shards.len() as u64, healthy.end - healthy.start);
    assert!(orch.exists(), "quarantined control plane must be kept");
    assert!(od_runtime::lease::quarantine_path(&range_path(&orch, 1)).exists());
    let _ = std::fs::remove_dir_all(&dir);
}
