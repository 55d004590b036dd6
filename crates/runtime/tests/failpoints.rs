//! Fault-injection integration tests, driven through real `od-run`
//! child processes with `OD_FAILPOINTS` armed in the child's
//! environment only. Compiled (and meaningful) only with the
//! `failpoints` feature: `cargo test -p od-runtime --features
//! failpoints --test failpoints`.

#![cfg(all(unix, feature = "failpoints"))]

use std::path::PathBuf;
use std::process::{Command, Output};

const OD_RUN: &str = env!("CARGO_BIN_EXE_od-run");
const VALIDATOR: &str = env!("CARGO_BIN_EXE_od-telemetry-validate");

/// A fast multi-shard job: 8 trials in 4 shards, so one run performs
/// four checkpoint saves (failpoint hits) and finishes in milliseconds.
fn job(name: &str, seed: u64) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": 200, "k": 4}},
  "trials": 8,
  "master_seed": {seed},
  "max_rounds": 100000,
  "shard_size": 2
}}"#
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("od_failpoints_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `od-run` with the given failpoint spec armed (empty = unarmed).
fn od_run(failpoints: &str, args: &[&dyn AsRef<std::ffi::OsStr>]) -> Output {
    let mut cmd = Command::new(OD_RUN);
    for arg in args {
        cmd.arg(arg.as_ref());
    }
    if failpoints.is_empty() {
        cmd.env_remove("OD_FAILPOINTS");
    } else {
        cmd.env("OD_FAILPOINTS", failpoints);
    }
    cmd.output().unwrap()
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn injected_persist_error_fails_the_job() {
    let dir = temp_dir("persist_err");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("persist-err", 1)).unwrap();
    let output = od_run("checkpoint.persist=err:other@1", &[&job_path, &"--quiet"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr_of(&output));
    assert!(
        stderr_of(&output).contains("injected failpoint 'checkpoint.persist'"),
        "{}",
        stderr_of(&output)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_write_is_quarantined_on_the_next_run() {
    let dir = temp_dir("torn");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("torn", 2)).unwrap();
    // The 4th (final) save is torn to its first 20 bytes; the truncated
    // file still renames into place, exactly like a crash between write
    // and fsync. The run itself succeeds.
    let first = od_run("checkpoint.persist=torn:20@4", &[&job_path, &"--quiet"]);
    assert!(first.status.success(), "{}", stderr_of(&first));
    let checkpoint = dir.join("job.json.checkpoint.json");
    assert_eq!(std::fs::read(&checkpoint).unwrap().len(), 20, "not torn");
    // The next run quarantines the torn checkpoint, restarts from
    // scratch, emits checkpoint_corrupt, and succeeds.
    let telemetry = dir.join("telemetry.jsonl");
    let second = od_run("", &[&job_path, &"--telemetry-out", &telemetry]);
    assert!(second.status.success(), "{}", stderr_of(&second));
    assert!(
        stdout_of(&second).contains("(0 resumed from checkpoint)"),
        "{}",
        stdout_of(&second)
    );
    let corrupt = dir.join("job.json.checkpoint.json.corrupt");
    assert_eq!(std::fs::read(&corrupt).unwrap().len(), 20, "evidence lost");
    let events = std::fs::read_to_string(&telemetry).unwrap();
    assert!(
        events.contains("\"kind\":\"checkpoint_corrupt\""),
        "{events}"
    );
    // The rewritten checkpoint is complete again.
    let text = std::fs::read_to_string(&checkpoint).unwrap();
    assert!(text.contains("\"total_shards\": 4"), "{text}");
    // The telemetry stream (including the new kind) passes the schema.
    let validate = Command::new(VALIDATOR)
        .arg("--events")
        .arg(&telemetry)
        .output()
        .unwrap();
    assert!(validate.status.success(), "{}", stderr_of(&validate));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_mid_job_resumes_from_the_checkpoint() {
    let dir = temp_dir("abort");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("abort", 3)).unwrap();
    // process::abort() during the 3rd checkpoint save: no destructors,
    // no flushes — the hard-crash case. At least two shards were
    // persisted before the crash.
    let crashed = od_run("checkpoint.persist=abort@3", &[&job_path, &"--quiet"]);
    assert!(!crashed.status.success(), "abort did not kill the run");
    // The rerun resumes instead of recomputing everything.
    let rerun = od_run("", &[&job_path]);
    assert!(rerun.status.success(), "{}", stderr_of(&rerun));
    let stdout = stdout_of(&rerun);
    let resumed: u64 = stdout
        .split(" resumed from checkpoint")
        .next()
        .and_then(|s| s.rsplit('(').next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no resume count in: {stdout}"));
    assert!(
        (1..4).contains(&resumed),
        "expected a partial resume, got {resumed} in: {stdout}"
    );
    assert!(stdout.contains("shards: 4/4 completed"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_claim_error_does_not_stall_a_worker() {
    let dir = temp_dir("claim_err");
    std::fs::write(dir.join("a.json"), job("a", 4)).unwrap();
    std::fs::write(dir.join("b.json"), job("b", 5)).unwrap();
    let output = od_run(
        "lease.claim=err:other@1",
        &[&dir, &"--queue-worker", &"--worker-id", &"w1", &"--quiet"],
    );
    assert!(output.status.success(), "{}", stderr_of(&output));
    assert!(dir.join("a.json.done.json").exists());
    assert!(dir.join("b.json.done.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_is_retried_and_releases_its_lease() {
    let dir = temp_dir("trial_panic");
    let queue = dir.join("queue");
    std::fs::create_dir_all(&queue).unwrap();
    std::fs::write(queue.join("a.json"), job("a", 7)).unwrap();
    std::fs::write(queue.join("b.json"), job("b", 8)).unwrap();
    let telemetry = dir.join("telemetry.jsonl");
    // The first trial of the first claimed job panics: the worker must
    // charge that attempt, release the lease, and drain both jobs.
    let output = od_run(
        "executor.trial=panic@1",
        &[&queue, &"--telemetry-out", &telemetry, &"--quiet"],
    );
    assert!(output.status.success(), "{}", stderr_of(&output));
    assert!(queue.join("a.json.done.json").exists());
    assert!(queue.join("b.json.done.json").exists());
    let leases: Vec<_> = std::fs::read_dir(&queue)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".lease.json"))
        .collect();
    assert!(leases.is_empty(), "leases left behind: {leases:?}");
    let events = std::fs::read_to_string(&telemetry).unwrap();
    assert_eq!(
        events.matches("\"kind\":\"queue_retry\"").count(),
        1,
        "{events}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job that kills its worker on every attempt is charged at each
/// takeover of the dead worker's expired lease, so the retry budget
/// bounds it: two aborted attempts under `--max-retries 2`, then the
/// next worker quarantines the job (exit 4), and so does every pass
/// after that.
#[test]
fn job_that_kills_its_worker_is_charged_at_takeover_until_quarantined() {
    let dir = temp_dir("abort_charge");
    let queue = dir.join("queue");
    std::fs::create_dir_all(&queue).unwrap();
    let job_path = queue.join("poison.json");
    std::fs::write(&job_path, job("poison", 26)).unwrap();
    let worker = || {
        od_run(
            "executor.trial=abort",
            &[
                &queue,
                &"--queue-worker",
                &"--lease-secs",
                &"1",
                &"--max-retries",
                &"2",
                &"--quiet",
            ],
        )
    };
    let mut aborted = 0;
    let finished = loop {
        let output = worker();
        if output.status.code().is_some() {
            break output;
        }
        aborted += 1;
        assert!(aborted <= 4, "the killed attempts were never charged");
        // Let the dead worker's lease expire before the next takes over.
        std::thread::sleep(std::time::Duration::from_millis(1_200));
    };
    assert_eq!(aborted, 2, "one aborted run per attempt of the budget");
    assert_eq!(finished.status.code(), Some(4), "{}", stderr_of(&finished));
    let record = std::fs::read_to_string(queue.join("poison.json.failed.json")).unwrap();
    assert!(record.contains("\"attempts\": 2"), "{record}");
    assert!(
        record.contains(&format!(
            "died while running {} on attempt 2",
            job_path.display()
        )),
        "{record}"
    );
    assert!(!queue.join("poison.json.attempts.json").exists());
    assert!(!queue.join("poison.json.lease.json").exists());
    assert_eq!(worker().status.code(), Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_scan_error_propagates_with_directory_context() {
    let dir = temp_dir("scan_err");
    std::fs::write(dir.join("a.json"), job("a", 6)).unwrap();
    let output = od_run(
        "queue.scan=err:permission-denied@1",
        &[&dir, &"--queue-worker", &"--quiet"],
    );
    assert_eq!(output.status.code(), Some(1), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains(&dir.display().to_string()),
        "error does not name the directory: {stderr}"
    );
    assert!(
        stderr.contains("injected failpoint 'queue.scan'"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-process reference bytes for `job_path`, computed with an
/// explicit checkpoint path so the job's default sibling stays free
/// for the orchestrated run under test.
fn reference_checkpoint(job_path: &std::path::Path, dir: &std::path::Path) -> Vec<u8> {
    let reference = dir.join("reference.checkpoint.json");
    let output = od_run("", &[&job_path, &"--checkpoint", &reference, &"--quiet"]);
    assert!(output.status.success(), "{}", stderr_of(&output));
    std::fs::read(&reference).unwrap()
}

#[test]
fn orch_spawn_failure_is_absorbed_by_the_next_tick() {
    let dir = temp_dir("orch_spawn");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("orch-spawn", 21)).unwrap();
    let reference = reference_checkpoint(&job_path, &dir);
    let output = od_run(
        "orch.spawn=err:other@1",
        &[&job_path, &"--orchestrate", &"1", &"--quiet"],
    );
    assert!(output.status.success(), "{}", stderr_of(&output));
    assert_eq!(
        std::fs::read(dir.join("job.json.checkpoint.json")).unwrap(),
        reference
    );
    assert!(!dir.join("job.json.orch").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orch_manifest_persist_error_fails_then_a_rerun_recovers() {
    let dir = temp_dir("orch_manifest");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("orch-manifest", 22)).unwrap();
    let failed = od_run(
        "orch.manifest.persist=err:other@1",
        &[&job_path, &"--orchestrate", &"1", &"--quiet"],
    );
    assert_eq!(failed.status.code(), Some(1), "{}", stderr_of(&failed));
    assert!(
        stderr_of(&failed).contains("injected failpoint 'orch.manifest.persist'"),
        "{}",
        stderr_of(&failed)
    );
    let rerun = od_run("", &[&job_path, &"--orchestrate", &"1", &"--quiet"]);
    assert!(rerun.status.success(), "{}", stderr_of(&rerun));
    assert!(dir.join("job.json.checkpoint.json").exists());
    assert!(!dir.join("job.json.orch").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orch_merge_load_error_keeps_the_control_plane_for_a_rerun() {
    let dir = temp_dir("orch_merge");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("orch-merge", 23)).unwrap();
    let reference = reference_checkpoint(&job_path, &dir);
    let failed = od_run(
        "orch.merge.load=err:other@1",
        &[&job_path, &"--orchestrate", &"1", &"--quiet"],
    );
    assert_eq!(failed.status.code(), Some(1), "{}", stderr_of(&failed));
    // The ranges were computed; only the merge failed. The control
    // plane survives, so the rerun merges without recomputing.
    let orch = dir.join("job.json.orch");
    assert!(orch.exists(), "control plane discarded on merge failure");
    let rerun = od_run("", &[&job_path, &"--orchestrate", &"1", &"--quiet"]);
    assert!(rerun.status.success(), "{}", stderr_of(&rerun));
    assert_eq!(
        std::fs::read(dir.join("job.json.checkpoint.json")).unwrap(),
        reference
    );
    assert!(!orch.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A child that hard-crashes (process::abort during its 3rd shard
/// save) is respawned and resumes from the range checkpoint; the
/// merged result is still byte-identical. The supervisor inherits the
/// armed failpoint too, but only ever saves one checkpoint (the
/// merge), so `@3` can never fire in it.
#[test]
fn crashed_child_is_respawned_and_resumes_the_range() {
    let dir = temp_dir("orch_respawn");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("orch-respawn", 24)).unwrap();
    let reference = reference_checkpoint(&job_path, &dir);
    let output = od_run(
        "checkpoint.persist=abort@3",
        &[
            &job_path,
            &"--orchestrate",
            &"1",
            &"--orch-ranges",
            &"1",
            &"--max-retries",
            &"2",
        ],
    );
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(stdout.contains("1 respawns"), "{stdout}");
    assert!(stdout.contains("0 quarantined"), "{stdout}");
    assert_eq!(
        std::fs::read(dir.join("job.json.checkpoint.json")).unwrap(),
        reference
    );
    assert!(!dir.join("job.json.orch").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same crash with a budget of one attempt quarantines the range:
/// exit 4, the shards persisted before the crash still merge (partial
/// progress), and the quarantine record names the dead worker.
#[test]
fn crashed_child_past_the_budget_quarantines_with_partial_progress() {
    let dir = temp_dir("orch_quarantine");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("orch-poison", 25)).unwrap();
    let output = od_run(
        "checkpoint.persist=abort@3",
        &[
            &job_path,
            &"--orchestrate",
            &"1",
            &"--orch-ranges",
            &"1",
            &"--max-retries",
            &"1",
            &"--quiet",
        ],
    );
    assert_eq!(output.status.code(), Some(4), "{}", stderr_of(&output));
    // Two of four shards were saved before the abort; the merged job
    // checkpoint salvages exactly those.
    let text = std::fs::read_to_string(dir.join("job.json.checkpoint.json")).unwrap();
    assert!(text.contains("\"total_shards\": 4"), "{text}");
    assert_eq!(text.matches("\"trials\"").count(), 2, "{text}");
    let orch = dir.join("job.json.orch");
    let record = std::fs::read_to_string(orch.join("range-0000.range.json.failed.json")).unwrap();
    assert!(
        record.contains("died while running shards [0, 4)"),
        "{record}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
