//! The `od-run` exit-code table, pinned end-to-end: 0 success,
//! 1 failed/interrupted, 2 usage error, 3 empty queue, 4 drained but
//! quarantined work present. Every row is exercised through the real
//! binary so a regression in `main`'s dispatch — not just in the
//! library — fails here.

use std::path::PathBuf;
use std::process::{Command, Output};

const OD_RUN: &str = env!("CARGO_BIN_EXE_od-run");

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
    let dir = std::env::temp_dir().join(format!("od_exit_codes_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn od_run(args: &[&dyn AsRef<std::ffi::OsStr>]) -> Output {
    let mut cmd = Command::new(OD_RUN);
    for arg in args {
        cmd.arg(arg.as_ref());
    }
    cmd.output().unwrap()
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("terminated by signal")
}

#[test]
fn exit_0_on_success_in_every_mode() {
    let dir = temp_dir("success");
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, job("ok", 1)).unwrap();
    assert_eq!(code(&od_run(&[&job_path, &"--quiet"])), 0, "single job");
    assert_eq!(
        code(&od_run(&[
            &job_path,
            &"--orchestrate",
            &"2",
            &"--fresh",
            &"--quiet"
        ])),
        0,
        "orchestrated job"
    );
    assert_eq!(
        code(&od_run(&[&dir, &"--queue-worker", &"--fresh", &"--quiet"])),
        0,
        "queue worker"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_1_on_job_failure() {
    let dir = temp_dir("failure");
    let job_path = dir.join("job.json");
    std::fs::write(
        &job_path,
        job("bad", 2).replace("three-majority", "no-such-protocol"),
    )
    .unwrap();
    let output = od_run(&[&job_path, &"--quiet"]);
    assert_eq!(code(&output), 1, "single failed job");
    let output = od_run(&[&job_path, &"--orchestrate", &"1", &"--quiet"]);
    assert_eq!(code(&output), 1, "orchestrating an invalid spec");
    std::fs::write(
        &job_path,
        job("overflow", 3).replace(
            r#"{"kind": "balanced", "n": 200, "k": 4}"#,
            r#"{"kind": "counts", "counts": ["18446744073709551615", "18446744073709551615"]}"#,
        ),
    )
    .unwrap();
    let output = od_run(&[&job_path, &"--quiet"]);
    assert_eq!(code(&output), 1, "initial counts overflowing u64");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("u64::MAX"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_2_on_usage_errors() {
    let no_target = od_run(&[&"--quiet"]);
    assert_eq!(code(&no_target), 2, "missing target");
    let unknown = od_run(&[&"job.json", &"--no-such-flag"]);
    assert_eq!(code(&unknown), 2, "unknown flag");
    let orphan_worker_flag = od_run(&[&"job.json", &"--worker-id", &"w1"]);
    assert_eq!(code(&orphan_worker_flag), 2, "--worker-id without a mode");
    let zero_workers = od_run(&[&"job.json", &"--orchestrate", &"0"]);
    assert_eq!(code(&zero_workers), 2, "--orchestrate 0");
    let conflicting = od_run(&[&"job.json", &"--orchestrate", &"2", &"--orch-child"]);
    assert_eq!(code(&conflicting), 2, "--orchestrate with --orch-child");
    let ranges_without_mode = od_run(&[&"job.json", &"--orch-ranges", &"4"]);
    assert_eq!(code(&ranges_without_mode), 2, "--orch-ranges alone");

    let dir = temp_dir("usage");
    let orchestrate_dir = od_run(&[&dir, &"--orchestrate", &"2"]);
    assert_eq!(code(&orchestrate_dir), 2, "--orchestrate on a directory");
    let worker_on_file = od_run(&[&dir.join("nope.json"), &"--queue-worker"]);
    assert_eq!(
        code(&worker_on_file),
        2,
        "--queue-worker on a non-directory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_3_on_an_empty_queue() {
    let dir = temp_dir("empty");
    assert_eq!(code(&od_run(&[&dir])), 3, "directory mode");
    assert_eq!(
        code(&od_run(&[&dir, &"--queue-worker", &"--quiet"])),
        3,
        "queue worker mode"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_4_when_quarantined_work_remains() {
    // Queue worker: a poison job exhausts its attempts.
    let dir = temp_dir("quarantine_queue");
    std::fs::write(dir.join("good.json"), job("good", 3)).unwrap();
    std::fs::write(
        dir.join("poison.json"),
        job("poison", 4).replace("three-majority", "no-such-protocol"),
    )
    .unwrap();
    let output = od_run(&[&dir, &"--queue-worker", &"--max-retries", &"1", &"--quiet"]);
    assert_eq!(code(&output), 4, "queue worker with a quarantined job");

    // Orchestration: a pre-quarantined shard range degrades the run to
    // partial progress instead of failing it outright.
    let orch_dir = temp_dir("quarantine_orch");
    let job_path = orch_dir.join("job.json");
    std::fs::write(&job_path, job("orch", 5)).unwrap();
    let spec = od_runtime::load_job_file(&job_path).unwrap();
    let plane = od_runtime::orch_dir(&job_path);
    std::fs::create_dir_all(&plane).unwrap();
    od_runtime::Manifest::plan(spec.content_hash(), spec.shard_count(), 2)
        .save(&plane)
        .unwrap();
    od_runtime::lease::Quarantine {
        error: "pinned by the exit-code test".to_string(),
        attempts: 3,
        spec_hash: Some(spec.content_hash()),
    }
    .save(&od_runtime::orchestrator::range_path(&plane, 0))
    .unwrap();
    let output = od_run(&[&job_path, &"--orchestrate", &"1", &"--quiet"]);
    assert_eq!(code(&output), 4, "orchestration with a quarantined range");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&orch_dir);
}

#[test]
fn exit_0_when_directory_mode_finds_a_drained_queue() {
    // Directory mode is the leased worker: a queue another worker
    // already drained is accepted and nothing re-runs.
    let dir = temp_dir("drained_dir");
    std::fs::write(dir.join("job.json"), job("drained", 6)).unwrap();
    let worker = od_run(&[&dir, &"--queue-worker", &"--quiet"]);
    assert_eq!(code(&worker), 0, "queue worker drain");
    let marker = dir.join("job.json.done.json");
    let marker_bytes = std::fs::read(&marker).unwrap();
    let output = od_run(&[&dir, &"--quiet"]);
    assert_eq!(code(&output), 0, "directory mode over a drained queue");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("== drained =="), "a job re-ran:\n{stdout}");
    assert!(
        stdout.contains("queue: 1 done, 0 quarantined, 1 total"),
        "{stdout}"
    );
    assert_eq!(std::fs::read(&marker).unwrap(), marker_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_4_when_directory_mode_quarantines_a_poison_job() {
    let dir = temp_dir("poison_dir");
    std::fs::write(dir.join("good.json"), job("good", 7)).unwrap();
    std::fs::write(
        dir.join("poison.json"),
        job("poison", 8).replace("three-majority", "no-such-protocol"),
    )
    .unwrap();
    let output = od_run(&[&dir, &"--quiet"]);
    assert_eq!(code(&output), 4, "directory mode with a poison job");
    assert!(dir.join("poison.json.failed.json").exists());
    assert!(dir.join("good.json.done.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
