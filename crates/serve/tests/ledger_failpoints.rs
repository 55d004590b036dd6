//! The results-store ledger under fault injection, driven through real
//! `od-serve` child processes. Compiled (and meaningful) only with the
//! `failpoints` feature:
//! `cargo test -p od-serve --features failpoints --test ledger_failpoints`.

#![cfg(all(unix, feature = "failpoints"))]

mod common;

use common::{
    pin_mtime, poll_until_done, request, spawn_serve, spec, store_entries, temp_dir, Reaped,
};
use od_runtime::json::{parse, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

/// Plants `count` unreferenced stored results of `size` bytes each,
/// oldest first.
fn plant(queue: &Path, count: usize, size: usize) {
    let results = queue.join(".results");
    std::fs::create_dir_all(&results).unwrap();
    for i in 0..count {
        let path = results.join(format!("{i:02x}.json"));
        std::fs::write(&path, vec![b'x'; size]).unwrap();
        pin_mtime(&path, 100 + i as u64);
    }
}

/// Submits `spec(seed)`, waits for it to finish, and returns its hash.
fn run_job(addr: SocketAddr, seed: u64) -> String {
    let (status, body) = request(addr, "POST", "/jobs", &spec(seed));
    assert_eq!(status, 201, "{body}");
    let doc = parse(&body).unwrap();
    let hash = doc.get("spec_hash").and_then(Json::as_str).unwrap();
    poll_until_done(addr, &format!("job-{hash}"));
    hash.to_string()
}

/// `/metrics`' `(store.entries, store.bytes)`.
fn store_metrics(addr: SocketAddr) -> (u64, u64) {
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    let store = doc.get("store").unwrap();
    let field = |key: &str| store.get(key).and_then(Json::as_u64).unwrap();
    (field("entries"), field("bytes"))
}

/// The store footprint on disk.
fn disk(queue: &Path) -> (u64, u64) {
    let footprint = od_serve::store::footprint(queue);
    (footprint.entries, footprint.bytes)
}

/// `store.scan` aborts the service on any listing of `.results/` after
/// the one at start-up, so `/metrics` reads and an under-cap publish
/// that keep the service alive provably read no listing. The publish
/// that crosses the cap then lists, which proves the site is armed.
#[test]
fn metrics_and_under_cap_publishes_never_list_the_store() {
    let queue = temp_dir("scan");
    plant(&queue, 2, 40);
    let (child, addr) = spawn_serve(
        &[
            "--queue-dir",
            queue.to_str().unwrap(),
            "--workers",
            "1",
            "--results-max-count",
            "3",
        ],
        "store.scan=abort@2",
    );
    let mut child = Reaped(child);
    assert_eq!(store_metrics(addr), disk(&queue));
    assert_eq!(store_metrics(addr), (2, 80));

    // The third entry fits the cap: published, counted, not listed.
    let hash = run_job(addr, 31);
    let (status, _) = request(addr, "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200);
    assert_eq!(store_metrics(addr), disk(&queue));
    assert_eq!(store_metrics(addr).0, 3);
    assert!(child.0.try_wait().unwrap().is_none(), "the service died");

    // The fourth crosses the cap: the sweep lists, and the armed site
    // kills the service there.
    let hash = run_job(addr, 32);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "GET /results/{hash} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut answer = Vec::new();
    let _ = stream.read_to_end(&mut answer);
    assert!(answer.is_empty(), "{}", String::from_utf8_lossy(&answer));
    let status = child.0.wait().unwrap();
    assert!(!status.success(), "the sweep's listing must hit the site");
    let _ = std::fs::remove_dir_all(&queue);
}

/// An eviction error part-way through a sweep leaves the ledger at
/// what the disk holds, and the next sweep finishes the trim.
#[test]
fn a_sweep_failing_part_way_leaves_the_ledger_equal_to_the_disk() {
    let queue = temp_dir("evict");
    plant(&queue, 10, 50);
    let (child, addr) = spawn_serve(
        &[
            "--queue-dir",
            queue.to_str().unwrap(),
            "--workers",
            "1",
            "--results-max-bytes",
            "500",
        ],
        "store.gc.evict=err:other@2",
    );
    let child = Reaped(child);
    assert_eq!(store_metrics(addr), (10, 500));

    // The result pushes the store past 500 bytes by more than one
    // planted entry: the first eviction lands, the second fails, and
    // the result is still served.
    let hash = run_job(addr, 41);
    let (status, result) = request(addr, "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200);
    assert!(result.len() > 100, "{result}");
    assert_eq!(store_entries(&queue).len(), 10, "one eviction landed");
    assert_eq!(store_metrics(addr), disk(&queue));

    // The next publish sweeps again, fault-free.
    let hash = run_job(addr, 42);
    let (status, _) = request(addr, "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200);
    assert!(
        store_entries(&queue).len() < 11,
        "the sweep evicted nothing"
    );
    assert_eq!(store_metrics(addr), disk(&queue));
    drop(child);
    let _ = std::fs::remove_dir_all(&queue);
}
