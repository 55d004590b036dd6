//! The kill -9 chaos harness: real `od-run --queue-worker` child
//! processes drain a shared queue directory while the harness SIGKILLs
//! them at derived points (first checkpoint on disk, first done marker,
//! second done marker). Restarted workers must take over stale leases
//! (charging each killed attempt), resume from checkpoints, and
//! converge to done markers and checkpoint
//! files **byte-identical** to a fault-free single-worker run — the
//! repo's bit-identity obligation, extended to the control plane.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const OD_RUN: &str = env!("CARGO_BIN_EXE_od-run");
const VALIDATOR: &str = env!("CARGO_BIN_EXE_od-telemetry-validate");

/// Graph jobs (per-node simulation, so a shard takes real wall-clock
/// time) with 4 shards each: a kill lands mid-job between checkpoint
/// saves rather than after everything already finished.
fn job(name: &str, seed: u64) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": 16000, "k": 6}},
  "trials": 8,
  "master_seed": {seed},
  "max_rounds": 100000,
  "shard_size": 2,
  "mode": "full",
  "stop": {{"kind": "consensus"}},
  "graph": {{"family": "random-regular", "d": 8, "assignment": "striped"}}
}}"#
    )
}

const JOBS: [(&str, u64); 4] = [
    ("a_alpha", 11),
    ("b_beta", 22),
    ("c_gamma", 33),
    ("d_delta", 44),
];

fn make_queue(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("od_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, seed) in JOBS {
        std::fs::write(dir.join(format!("{name}.json")), job(name, seed)).unwrap();
    }
    dir
}

/// The kill harness's attempt budget: one more than its three kills.
/// A takeover charges the attempt a killed worker was running, so one
/// job may absorb every kill and must still get a run of its own.
const KILL_RETRIES: &str = "4";

fn worker_cmd(dir: &Path, id: &str, max_retries: &str, telemetry: Option<&Path>) -> Command {
    let mut cmd = Command::new(OD_RUN);
    cmd.arg(dir)
        .args(["--queue-worker", "--worker-id", id])
        .args(["--lease-secs", "1", "--max-retries", max_retries, "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(path) = telemetry {
        cmd.arg("--telemetry-out").arg(path);
    }
    cmd
}

fn spawn_worker(dir: &Path, id: &str, telemetry: Option<&Path>) -> Child {
    worker_cmd(dir, id, KILL_RETRIES, telemetry)
        .spawn()
        .unwrap_or_else(|e| panic!("spawning worker {id}: {e}"))
}

fn files_with_suffix(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
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

fn done_count(dir: &Path) -> usize {
    files_with_suffix(dir, ".done.json").len()
}

/// SIGKILLs the child the moment `cond` holds (or lets it be if it
/// exited first — the kill point is derived, not timed).
fn kill_at(child: &mut Child, what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    loop {
        if cond() {
            let _ = child.kill(); // SIGKILL on unix
            let _ = child.wait();
            return;
        }
        if let Some(status) = child.try_wait().unwrap() {
            // The worker finished before the kill point was reached;
            // the queue state still advances and the harness goes on.
            assert!(
                status.success(),
                "worker exited with {status} before {what}"
            );
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "timed out waiting for kill point: {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn kill9_chaos_converges_to_fault_free_bytes() {
    // Fault-free reference: one worker, no kills.
    let reference = make_queue("reference");
    let status = worker_cmd(&reference, "ref", KILL_RETRIES, None)
        .status()
        .unwrap();
    assert!(status.success(), "fault-free drain failed: {status}");
    assert_eq!(done_count(&reference), JOBS.len());

    // Chaos run over identical job files.
    let chaos = make_queue("chaos");

    // Kill point 1: the first checkpoint file hits the disk (w1 dies
    // mid-job, leaving a live lease and a partial checkpoint behind).
    let mut w1 = spawn_worker(&chaos, "w1", None);
    kill_at(&mut w1, "first checkpoint file", || {
        !files_with_suffix(&chaos, ".checkpoint.json").is_empty()
    });

    // Kill point 2: the first done marker appears (w2 dies right after
    // completing one job, possibly holding a lease on the next).
    let mut w2 = spawn_worker(&chaos, "w2", None);
    kill_at(&mut w2, "first done marker", || done_count(&chaos) >= 1);

    // Kill point 3: the second done marker appears.
    let mut w3 = spawn_worker(&chaos, "w3", None);
    kill_at(&mut w3, "second done marker", || done_count(&chaos) >= 2);

    // Recovery: two concurrent workers drain whatever is left,
    // taking over any stale leases the kills left behind.
    let telemetry = chaos.join("w4.telemetry.jsonl");
    let mut w4 = spawn_worker(&chaos, "w4", Some(&telemetry));
    let mut w5 = spawn_worker(&chaos, "w5", None);
    let w4_status = w4.wait().unwrap();
    let w5_status = w5.wait().unwrap();
    assert!(w4_status.success(), "w4 exited with {w4_status}");
    assert!(w5_status.success(), "w5 exited with {w5_status}");

    // Every job is done exactly once and the control plane is clean.
    assert_eq!(done_count(&chaos), JOBS.len());
    assert!(files_with_suffix(&chaos, ".lease.json").is_empty());
    assert!(files_with_suffix(&chaos, ".failed.json").is_empty());
    assert!(files_with_suffix(&chaos, ".attempts.json").is_empty());

    // Done markers and checkpoints are byte-identical to the
    // fault-free run: same merged summaries, same checkpoint contents,
    // regardless of kills, takeovers, and resumes.
    for (name, _) in JOBS {
        for suffix in [".json.done.json", ".json.checkpoint.json"] {
            let file = format!("{name}{suffix}");
            let expected = std::fs::read(reference.join(&file))
                .unwrap_or_else(|e| panic!("reference {file}: {e}"));
            let actual =
                std::fs::read(chaos.join(&file)).unwrap_or_else(|e| panic!("chaos {file}: {e}"));
            assert_eq!(expected, actual, "{file} diverged from the fault-free run");
        }
    }

    // One more pass over the drained queue: nothing to do, exit 0.
    let status = worker_cmd(&chaos, "w6", KILL_RETRIES, None)
        .status()
        .unwrap();
    assert!(status.success(), "drained-queue pass exited with {status}");

    // The cleanly-exited recovery worker's telemetry must satisfy the
    // published schema, queue_* kinds included. (Killed workers' files
    // can end in a torn line — buffered JSONL plus SIGKILL — so only
    // clean exits are validated.)
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

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&chaos);
}

#[test]
fn quarantined_queue_exits_4_and_preserves_the_record() {
    let dir = std::env::temp_dir().join(format!("od_chaos_poison_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.json"), job("good", 7)).unwrap();
    std::fs::write(
        dir.join("poison.json"),
        job("poison", 8).replace("three-majority", "no-such-protocol"),
    )
    .unwrap();
    let status = worker_cmd(&dir, "w1", "2", None).status().unwrap();
    assert_eq!(
        status.code(),
        Some(4),
        "drained-with-quarantine must exit 4, got {status}"
    );
    assert_eq!(done_count(&dir), 1);
    let record = std::fs::read_to_string(dir.join("poison.json.failed.json")).unwrap();
    assert!(record.contains("\"attempts\": 2"), "{record}");
    assert!(record.contains("no-such-protocol"), "{record}");
    // A rerun does not retry the quarantined job and still exits 4.
    let status = worker_cmd(&dir, "w2", "2", None).status().unwrap();
    assert_eq!(status.code(), Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_queue_exits_3() {
    let dir = std::env::temp_dir().join(format!("od_chaos_empty_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let status = worker_cmd(&dir, "w1", "2", None).status().unwrap();
    assert_eq!(status.code(), Some(3));
    let _ = std::fs::remove_dir_all(&dir);
}
