//! End-to-end service tests: a real listener, real sockets, embedded
//! workers executing real jobs — and the dedup contract proven by
//! counting executions on the telemetry bus.

use od_runtime::json::{parse, Json};
use od_runtime::WorkerOptions;
use od_serve::{ServeOptions, Server};
use od_telemetry::MemorySink;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("od_serve_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SPEC: &str = r#"{
  "name": "served",
  "protocol": {"name": "three-majority"},
  "initial": {"kind": "balanced", "n": 200, "k": 4},
  "trials": 4,
  "master_seed": 11,
  "max_rounds": 100000,
  "shard_size": 2
}"#;

/// A one-shot HTTP client: sends one request, returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

fn poll_until_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let state = doc.get("status").and_then(Json::as_str).unwrap_or("");
        match state {
            "done" => return doc,
            "quarantined" => panic!("job quarantined: {body}"),
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "job stuck in '{state}' after 120s"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Executions provoked so far: `queue_claim` lines across the embedded
/// workers' buses.
fn claims_on_bus(queue: &std::path::Path) -> usize {
    let bus_dir = queue.join(".serve");
    let mut claims = 0;
    for entry in std::fs::read_dir(bus_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        claims += text
            .lines()
            .filter(|l| l.contains("\"kind\":\"queue_claim\""))
            .count();
    }
    claims
}

#[test]
fn post_poll_result_and_dedup_without_second_execution() {
    let queue = temp_dir("lifecycle");
    let sink = Arc::new(MemorySink::new());
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 2,
        sink: sink.clone(),
        ..ServeOptions::default()
    })
    .expect("server start");
    let addr = server.addr();

    // Submit: 201, status queued/running, id = job-<hash>.
    let (status, body) = request(addr, "POST", "/jobs", SPEC);
    assert_eq!(status, 201, "{body}");
    let doc = parse(&body).unwrap();
    let id = doc.get("job").and_then(Json::as_str).unwrap().to_string();
    let hash = doc
        .get("spec_hash")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(id, format!("job-{hash}"));
    assert_eq!(doc.get("deduped"), Some(&Json::Bool(false)));

    // The job appears in the listing while it works through the queue.
    let (status, body) = request(addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(body.contains(&id), "{body}");

    // Poll the lifecycle until the embedded workers finish it.
    let done = poll_until_done(addr, &id);
    assert!(done.get("summary").is_some(), "done status carries summary");

    // The result is served from the hash-keyed store.
    let (status, first) = request(addr, "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200, "{first}");
    let result = parse(&first).unwrap();
    assert_eq!(
        result.get("spec_hash").and_then(Json::as_str),
        Some(hash.as_str())
    );
    assert_eq!(
        result
            .get("summary")
            .and_then(|s| s.get("trials"))
            .and_then(Json::as_u64),
        Some(4)
    );
    let claims_after_first = claims_on_bus(&queue);
    assert_eq!(claims_after_first, 1, "exactly one execution");

    // Dedup: a byte-identical spec is answered without re-running.
    let (status, body) = request(addr, "POST", "/jobs", SPEC);
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    assert_eq!(doc.get("deduped"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    let (status, second) = request(addr, "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200);
    assert_eq!(first, second, "identical specs get byte-identical results");
    // Give the queue time to disprove "no second execution" if the
    // dedup were broken, then count claims again.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(claims_on_bus(&queue), 1, "dedup provoked a re-run");

    // The job's telemetry window is served as JSONL.
    let (status, events) = request(addr, "GET", &format!("/jobs/{id}/events"), "");
    assert_eq!(status, 200);
    assert!(events.contains("\"kind\":\"queue_claim\""), "{events}");
    assert!(events.contains("\"kind\":\"queue_done\""), "{events}");
    for line in events.lines() {
        parse(line).expect("every events line is JSON");
    }

    // Error paths: unknown job, unknown result, invalid spec.
    let (status, _) = request(addr, "GET", "/jobs/job-nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/results/0000000000000000", "");
    assert_eq!(status, 404);
    let (status, body) = request(addr, "POST", "/jobs", "{ nope");
    assert_eq!(status, 400, "{body}");
    let (status, _) = request(addr, "DELETE", "/jobs", "");
    assert_eq!(status, 405);

    server.shutdown();
    // serve_* lifecycle is on the service sink, in order.
    let lines = sink.lines().join("\n");
    assert!(lines.contains("\"kind\":\"serve_start\""), "{lines}");
    assert!(lines.contains("\"kind\":\"serve_job\""), "{lines}");
    assert!(lines.contains("\"kind\":\"serve_result\""), "{lines}");
    assert!(lines.contains("\"kind\":\"serve_stop\""), "{lines}");
    assert!(
        lines.contains("\"deduped\":true") && lines.contains("\"deduped\":false"),
        "{lines}"
    );
    let _ = std::fs::remove_dir_all(&queue);
}

/// Asserts that `/metrics` reports the store footprint on disk.
fn assert_store_metrics_match_disk(addr: SocketAddr, queue: &std::path::Path) {
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    let store_doc = doc.get("store").unwrap();
    let disk = od_serve::store::footprint(queue);
    assert_eq!(
        (
            store_doc.get("entries").and_then(Json::as_u64),
            store_doc.get("bytes").and_then(Json::as_u64),
        ),
        (Some(disk.entries), Some(disk.bytes)),
        "{body}"
    );
}

#[test]
fn restarted_service_answers_from_the_persistent_store() {
    let queue = temp_dir("restart");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("server start");
    let (status, body) = request(server.addr(), "POST", "/jobs", SPEC);
    assert_eq!(status, 201, "{body}");
    let doc = parse(&body).unwrap();
    let id = doc.get("job").and_then(Json::as_str).unwrap().to_string();
    let hash = doc
        .get("spec_hash")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    poll_until_done(server.addr(), &id);
    assert_store_metrics_match_disk(server.addr(), &queue);
    // Racing first fetches may each publish: the store counts one
    // entry however many of them replace it.
    let addr = server.addr();
    let path = format!("/results/{hash}");
    let fetches: Vec<_> = (0..6)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || request(addr, "GET", &path, ""))
        })
        .collect();
    let answers: Vec<_> = fetches.into_iter().map(|f| f.join().unwrap()).collect();
    let (status, first) = answers[0].clone();
    assert_eq!(status, 200);
    assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
    assert_store_metrics_match_disk(addr, &queue);
    assert_eq!(od_serve::store::footprint(&queue).entries, 1);
    server.shutdown();
    assert_eq!(claims_on_bus(&queue), 1, "one execution in the first life");

    // A fresh service over the same queue — the sidecars and store ARE
    // the database — answers immediately, without re-running.
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("restart");
    assert_store_metrics_match_disk(server.addr(), &queue);
    let (status, body) = request(server.addr(), "POST", "/jobs", SPEC);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        parse(&body).unwrap().get("deduped"),
        Some(&Json::Bool(true))
    );
    let (status, again) = request(server.addr(), "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200);
    assert_eq!(first, again);
    server.shutdown();
    // The restart truncated the worker bus, so any claim on it now
    // would be a re-run: there must be none.
    assert_eq!(claims_on_bus(&queue), 0, "restart must not re-run");
    let _ = std::fs::remove_dir_all(&queue);
}

#[test]
fn a_submission_wakes_an_idle_worker_without_waiting_for_its_poll() {
    let queue = temp_dir("wake");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        worker: WorkerOptions {
            poll_ms: 60_000,
            ..ServeOptions::default().worker
        },
        ..ServeOptions::default()
    })
    .expect("server start");
    // Let the worker finish its first (empty) drain and go idle.
    std::thread::sleep(Duration::from_millis(200));
    let started = Instant::now();
    let (status, body) = request(server.addr(), "POST", "/jobs", SPEC);
    assert_eq!(status, 201, "{body}");
    let id = parse(&body)
        .unwrap()
        .get("job")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    poll_until_done(server.addr(), &id);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the job waited {:?}: the worker sat out its poll",
        started.elapsed()
    );
    // Shutdown wakes the idle worker too.
    let stopping = Instant::now();
    server.shutdown();
    assert!(
        stopping.elapsed() < Duration::from_secs(10),
        "shutdown waited {:?} for an idle worker",
        stopping.elapsed()
    );
    let _ = std::fs::remove_dir_all(&queue);
}

/// Starts the real `od-serve` binary on an ephemeral port and returns it
/// with the address its banner announced.
fn spawn_od_serve(args: &[&str]) -> (std::process::Child, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_od-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn od-serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout);
    let mut banner = String::new();
    lines.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("od-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .unwrap();
    (child, addr)
}

#[test]
fn od_serve_binary_serves_a_job_end_to_end() {
    let queue = temp_dir("binary");
    let telemetry = queue.join("serve-events.jsonl");
    let (mut child, addr) = spawn_od_serve(&[
        "--queue-dir",
        queue.to_str().unwrap(),
        "--workers",
        "1",
        "--telemetry-out",
        telemetry.to_str().unwrap(),
    ]);

    let (status, body) = request(addr, "POST", "/jobs", SPEC);
    assert_eq!(status, 201, "{body}");
    let doc = parse(&body).unwrap();
    let id = doc.get("job").and_then(Json::as_str).unwrap().to_string();
    let hash = doc
        .get("spec_hash")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    poll_until_done(addr, &id);
    let (status, result) = request(addr, "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200, "{result}");

    child.kill().expect("stop od-serve");
    let _ = child.wait();
    // The service telemetry file exists and carries serve_* events
    // (flushed per event, so a killed service still leaves whole lines).
    let text = std::fs::read_to_string(&telemetry).unwrap();
    assert!(text.contains("\"kind\":\"serve_start\""), "{text}");
    assert!(text.contains("\"kind\":\"serve_job\""), "{text}");
    let _ = std::fs::remove_dir_all(&queue);
}

/// A body nested far deeper than any job spec is a typed 400, not a
/// stack overflow that takes the whole process down: the service still
/// answers afterwards. Runs the real binary, whose connection threads
/// have the default 2 MiB stack.
#[test]
fn deeply_nested_body_gets_a_400_and_the_service_stays_up() {
    let queue = temp_dir("deep_body");
    let (mut child, addr) =
        spawn_od_serve(&["--queue-dir", queue.to_str().unwrap(), "--workers", "0"]);
    let (status, body) = request(addr, "POST", "/jobs", &"[".repeat(20_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    assert!(child.try_wait().unwrap().is_none(), "od-serve exited");
    child.kill().expect("stop od-serve");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&queue);
}

/// Initial counts whose sum overflows `u64` are a typed 400 at
/// submission, so no worker ever claims the job: with one embedded
/// worker, the next job still runs to `done`.
#[test]
fn overflowing_initial_counts_get_a_400_and_the_worker_stays_free() {
    let queue = temp_dir("overflow_counts");
    let (mut child, addr) =
        spawn_od_serve(&["--queue-dir", queue.to_str().unwrap(), "--workers", "1"]);
    let overflowing = SPEC.replace(
        r#"{"kind": "balanced", "n": 200, "k": 4}"#,
        r#"{"kind": "counts", "counts": ["18446744073709551615", "18446744073709551615"]}"#,
    );
    assert_ne!(overflowing, SPEC, "the replacement must hit");
    let (status, body) = request(addr, "POST", "/jobs", &overflowing);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("u64::MAX"), "{body}");
    let (status, body) = request(addr, "POST", "/jobs", SPEC);
    assert_eq!(status, 201, "{body}");
    let id = parse(&body)
        .unwrap()
        .get("job")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    poll_until_done(addr, &id);
    child.kill().expect("stop od-serve");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&queue);
}

/// A compacted `noisy-three-majority` job whose start has an empty slot
/// passes validation, so the service queues it; the embedded worker must
/// then run it to `done` with a result, not panic on every attempt until
/// the job is quarantined.
#[test]
fn a_compacted_noisy_job_with_an_empty_slot_runs_to_done() {
    let queue = temp_dir("compacted_noisy");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        worker: WorkerOptions {
            max_retries: 2,
            backoff_base_ms: 10,
            ..ServeOptions::default().worker
        },
        ..ServeOptions::default()
    })
    .expect("server start");
    let addr = server.addr();
    let spec = r#"{
  "name": "compacted noisy",
  "protocol": {"name": "noisy-three-majority", "params": {"epsilon": 0.1, "k": 4}},
  "initial": {"kind": "counts", "counts": [300, 0, 300, 100]},
  "trials": 2,
  "master_seed": 5,
  "max_rounds": 200,
  "mode": "compacted"
}"#;
    let (status, body) = request(addr, "POST", "/jobs", spec);
    assert_eq!(status, 201, "{body}");
    let hash = parse(&body)
        .unwrap()
        .get("spec_hash")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    poll_until_done(addr, &job_id(&body));
    let (status, result) = request(addr, "GET", &format!("/results/{hash}"), "");
    assert_eq!(status, 200, "{result}");
    let trials = parse(&result)
        .unwrap()
        .get("summary")
        .and_then(|s| s.get("trials"))
        .and_then(Json::as_u64);
    assert_eq!(trials, Some(2), "{result}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// `SPEC` with its seed replaced, so each call names a fresh job.
fn seeded_spec(seed: u64) -> String {
    let spec = SPEC.replace("\"master_seed\": 11", &format!("\"master_seed\": {seed}"));
    assert_ne!(spec, SPEC, "the replacement must hit");
    spec
}

/// The `job-<hash>` id a submission answered with.
fn job_id(body: &str) -> String {
    parse(body)
        .unwrap()
        .get("job")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

/// The embedded worker's bus lines of one kind (worker 0).
fn bus_lines(queue: &std::path::Path, kind: &str) -> Vec<String> {
    let text = std::fs::read_to_string(queue.join(".serve/worker-0.jsonl")).unwrap();
    let needle = format!("\"kind\":\"{kind}\"");
    text.lines()
        .filter(|l| l.contains(&needle))
        .map(str::to_string)
        .collect()
}

/// Under sustained submissions the worker never idles into its poll,
/// and each submission is claimed by name — yet a job placed in the
/// queue by hand is still found, by the sweep that runs at least every
/// `lease_ms / 3`.
#[test]
fn a_hand_placed_job_is_swept_within_a_third_of_the_lease_under_load() {
    let queue = temp_dir("hand_placed");
    let lease_ms = 3_000;
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        worker: WorkerOptions {
            poll_ms: 60_000,
            lease_ms,
            ..ServeOptions::default().worker
        },
        ..ServeOptions::default()
    })
    .expect("server start");
    // Let the startup sweep finish on the empty queue.
    std::thread::sleep(Duration::from_millis(300));
    let hand = queue.join("hand.json");
    std::fs::write(queue.join("hand.tmp"), seeded_spec(1)).unwrap();
    std::fs::rename(queue.join("hand.tmp"), &hand).unwrap();
    let placed = Instant::now();
    let bound = Duration::from_millis(lease_ms / 3) + Duration::from_secs(2);
    let mut posted = Vec::new();
    let mut seed = 100;
    while !od_runtime::lease::done_path(&hand).exists() {
        assert!(
            placed.elapsed() < bound,
            "the hand-placed job waited past {bound:?}"
        );
        let (status, body) = request(server.addr(), "POST", "/jobs", &seeded_spec(seed));
        assert_eq!(status, 201, "{body}");
        posted.push(job_id(&body));
        seed += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    for id in &posted {
        poll_until_done(server.addr(), id);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// A hinted job whose lease a live peer holds is not run under it: the
/// claim by name waits the lease out, then takes it over.
#[test]
fn a_hinted_job_held_by_a_live_peer_completes_after_the_lease_expires() {
    let queue = temp_dir("hinted_held");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        worker: WorkerOptions {
            poll_ms: 50,
            ..ServeOptions::default().worker
        },
        ..ServeOptions::default()
    })
    .expect("server start");
    let hash = od_runtime::JobSpec::from_json_text(SPEC)
        .unwrap()
        .content_hash();
    let job = queue.join(format!("job-{hash}.json"));
    let clock: Arc<dyn od_runtime::QueueClock> = Arc::new(od_runtime::SystemClock);
    let peer_lease_ms = 1_500;
    let claimed = Instant::now();
    let peer = od_runtime::lease::claim(&job, "peer", peer_lease_ms, 1, &clock).unwrap();
    assert!(matches!(
        peer,
        od_runtime::lease::ClaimOutcome::Claimed { .. }
    ));
    let (status, body) = request(server.addr(), "POST", "/jobs", SPEC);
    assert_eq!(status, 201, "{body}");
    poll_until_done(server.addr(), &job_id(&body));
    assert!(
        claimed.elapsed() >= Duration::from_millis(peer_lease_ms),
        "the job ran under the peer's live lease"
    );
    let takeovers = bus_lines(&queue, "queue_takeover");
    assert_eq!(takeovers.len(), 1, "{takeovers:?}");
    assert!(takeovers[0].contains("\"stale_worker\":\"peer\""));
    assert_eq!(bus_lines(&queue, "queue_claim").len(), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// A batch larger than the worker's hint cap overflows it: the worker
/// falls back to one directory sweep, and every job still completes —
/// with an idle poll and a lease far too long for any other sweep.
#[test]
fn a_batch_past_the_hint_cap_completes_through_a_sweep() {
    let queue = temp_dir("hint_overflow");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        worker: WorkerOptions {
            poll_ms: 600_000,
            lease_ms: 600_000,
            ..ServeOptions::default().worker
        },
        ..ServeOptions::default()
    })
    .expect("server start");
    std::thread::sleep(Duration::from_millis(300));
    let jobs = 600; // more than twice the hint cap
    let batch: Vec<String> = (0..jobs)
        .map(|i| seeded_spec(1_000 + i).replace("\"trials\": 4", "\"trials\": 1"))
        .collect();
    let (status, body) = request(
        server.addr(),
        "POST",
        "/batches",
        &format!("[{}]", batch.join(",")),
    );
    assert_eq!(status, 201, "{body}");
    let doc = parse(&body).unwrap();
    assert_eq!(doc.get("accepted").and_then(Json::as_u64), Some(jobs));
    for item in doc.get("items").and_then(Json::as_array).unwrap() {
        poll_until_done(
            server.addr(),
            item.get("job").and_then(Json::as_str).unwrap(),
        );
    }
    // Each job ran once, hinted or swept.
    assert_eq!(claims_on_bus(&queue), jobs as usize);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// An idle server polls its queue every `poll_ms` but writes nothing
/// per poll: the worker's bus holds one `worker_start` while it runs and
/// gains one `worker_stop` when it exits.
#[test]
fn an_idle_server_does_not_grow_its_worker_bus() {
    let queue = temp_dir("idle_bus");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 1,
        worker: WorkerOptions {
            poll_ms: 5,
            ..ServeOptions::default().worker
        },
        ..ServeOptions::default()
    })
    .expect("server start");
    let bus = queue.join(".serve/worker-0.jsonl");
    let lines = || {
        std::fs::read_to_string(&bus)
            .unwrap_or_default()
            .lines()
            .count()
    };
    // About 100 polls.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(lines(), 1, "{}", std::fs::read_to_string(&bus).unwrap());
    assert_eq!(bus_lines(&queue, "worker_start").len(), 1);
    server.shutdown();
    assert_eq!(lines(), 2);
    assert_eq!(bus_lines(&queue, "worker_stop").len(), 1);
    let _ = std::fs::remove_dir_all(&queue);
}
