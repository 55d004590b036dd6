//! Store-GC fault injection, driven through real `od-serve` child
//! processes with `OD_FAILPOINTS` armed in the child's environment
//! only. Compiled (and meaningful) only with the `failpoints` feature:
//! `cargo test -p od-serve --features failpoints --test gc_failpoints`.

#![cfg(all(unix, feature = "failpoints"))]

mod common;

use common::{
    pin_mtime, poll_until_done, request, spawn_serve, spec, store_entries, temp_dir, OD_SERVE,
};
use od_runtime::json::{parse, Json};

/// The crash-during-evict chaos case: a GC sweep is SIGABRTed between
/// evictions; the partial sweep must be consistent (evicted entries
/// stay gone, nothing else disturbed) and a fault-free restart must
/// finish the job — never touching a result a live queue job still
/// references.
#[test]
fn aborted_gc_sweep_recovers_on_restart_and_spares_referenced_results() {
    let queue = temp_dir("abort");
    let queue_arg = queue.to_str().unwrap();

    // Life 1 (fault-free, unbounded): run four specs to completion and
    // publish all four results into the store via a batch submission.
    let (mut child, addr) = spawn_serve(&["--queue-dir", queue_arg, "--workers", "2"], "");
    let batch = format!("[{},{},{},{}]", spec(1), spec(2), spec(3), spec(4));
    let (status, body) = request(addr, "POST", "/batches", &batch);
    assert_eq!(status, 201, "{body}");
    let doc = parse(&body).unwrap();
    let hashes: Vec<String> = doc
        .get("items")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|item| {
            item.get("spec_hash")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(hashes.len(), 4, "{body}");
    for hash in &hashes {
        poll_until_done(addr, &format!("job-{hash}"));
        let (status, _) = request(addr, "GET", &format!("/results/{hash}"), "");
        assert_eq!(status, 200);
    }
    child.kill().unwrap();
    let _ = child.wait();
    assert_eq!(store_entries(&queue).len(), 4);

    // Pin eviction order (oldest-first = submission order) and release
    // every job file except the first: hashes[0] stays referenced.
    for (i, hash) in hashes.iter().enumerate() {
        pin_mtime(
            &queue.join(".results").join(format!("{hash}.json")),
            100 + i as u64,
        );
        if i > 0 {
            std::fs::remove_file(queue.join(format!("job-{hash}.json"))).unwrap();
        }
    }

    // Life 2: a count cap of 1 makes the startup GC sweep; the second
    // eviction aborts the process mid-sweep (no banner, abnormal exit).
    let mut cmd = std::process::Command::new(OD_SERVE);
    let output = cmd
        .args(["--queue-dir", queue_arg, "--workers", "0"])
        .args(["--addr", "127.0.0.1:0"])
        .args(["--results-max-count", "1"])
        .env("OD_FAILPOINTS", "store.gc.evict=abort@2")
        .output()
        .unwrap();
    assert!(!output.status.success(), "abort must kill the service");
    assert!(
        String::from_utf8_lossy(&output.stdout).is_empty(),
        "aborted before serving"
    );
    // Partial sweep: exactly the oldest unreferenced result (hashes[1])
    // is gone; the crash lost nothing else.
    let after_crash = store_entries(&queue);
    assert_eq!(after_crash.len(), 3, "{after_crash:?}");
    assert!(!after_crash.contains(&format!("{}.json", hashes[1])));

    // Life 3 (fault-free): the startup sweep completes. The referenced
    // result survives as the oldest entry; everything else is evicted.
    let telemetry = queue.join("life3.jsonl");
    let (mut child, addr) = spawn_serve(
        &[
            "--queue-dir",
            queue_arg,
            "--workers",
            "0",
            "--results-max-count",
            "1",
            "--telemetry-out",
            telemetry.to_str().unwrap(),
        ],
        "",
    );
    let survivors = store_entries(&queue);
    assert_eq!(
        survivors,
        vec![format!("{}.json", hashes[0])],
        "only the still-referenced result may survive"
    );
    let (status, _) = request(addr, "GET", &format!("/results/{}", hashes[0]), "");
    assert_eq!(status, 200, "referenced result must still be served");
    for hash in &hashes[1..] {
        let (status, _) = request(addr, "GET", &format!("/results/{hash}"), "");
        assert_eq!(status, 404, "evicted result resurfaced");
    }
    child.kill().unwrap();
    let _ = child.wait();
    let text = std::fs::read_to_string(&telemetry).unwrap();
    assert!(text.contains("\"kind\":\"serve_gc\""), "{text}");
    assert!(text.contains("\"evicted\":2,\"kept\":1"), "{text}");
    let _ = std::fs::remove_dir_all(&queue);
}

/// An injected I/O error during eviction fails startup loudly (typed,
/// naming the failpoint) instead of silently skipping retention.
#[test]
fn injected_evict_error_fails_startup_with_a_typed_error() {
    let queue = temp_dir("err");
    let results = queue.join(".results");
    std::fs::create_dir_all(&results).unwrap();
    std::fs::write(results.join("aa.json"), b"{}").unwrap();
    std::fs::write(results.join("bb.json"), b"{}").unwrap();
    let output = std::process::Command::new(OD_SERVE)
        .args(["--queue-dir", queue.to_str().unwrap(), "--workers", "0"])
        .args(["--addr", "127.0.0.1:0"])
        .args(["--results-max-count", "1"])
        .env("OD_FAILPOINTS", "store.gc.evict=err:other")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("injected failpoint 'store.gc.evict'"),
        "{stderr}"
    );
    // The failed sweep evicted nothing: the error fired before the
    // first removal.
    assert_eq!(store_entries(&queue).len(), 2);
    let _ = std::fs::remove_dir_all(&queue);
}
