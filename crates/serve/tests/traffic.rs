//! Traffic-shape tests: keep-alive connection reuse without
//! delayed-ACK stalls, idle-timeout closes on the injectable clock,
//! pipelining rejection, the concurrent-connection cap with typed 503
//! overload, batch submission with per-item dedup verdicts, and the
//! metrics document — all over real sockets.

use od_runtime::json::{parse, Json};
use od_runtime::{ManualClock, QueueClock};
use od_serve::{ServeOptions, Server};
use od_telemetry::MemorySink;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("od_serve_traffic_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny spec the embedded workers finish in milliseconds; the seed
/// parameter varies the content hash, so tests mint distinct specs.
fn spec(seed: u64) -> String {
    format!(
        r#"{{
  "name": "traffic",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": 200, "k": 4}},
  "trials": 2,
  "master_seed": {seed},
  "max_rounds": 100000,
  "shard_size": 2
}}"#
    )
}

/// One parsed HTTP response off a keep-alive connection.
struct Response {
    status: u16,
    body: String,
    /// The server's `Connection:` verdict — false means keep-alive.
    close: bool,
}

/// A client that keeps its socket open across requests, so tests can
/// assert on connection reuse and on how the server ends connections.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self { stream, reader }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
        self.stream.flush().unwrap();
    }

    /// Reads one response; `None` on a clean server-side close.
    fn read_response(&mut self) -> Option<Response> {
        let mut status_line = String::new();
        if self
            .reader
            .read_line(&mut status_line)
            .expect("status line")
            == 0
        {
            return None;
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        Some(Response {
            status,
            body: String::from_utf8(body).unwrap(),
            close,
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Response {
        self.send_raw(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        self.read_response().expect("server closed mid-exchange")
    }

    /// True when the next read sees a clean end-of-stream.
    fn at_eof(&mut self) -> bool {
        let mut probe = [0u8; 1];
        matches!(self.reader.read(&mut probe), Ok(0))
    }
}

#[test]
fn one_socket_carries_many_requests() {
    let queue = temp_dir("keepalive");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        ..ServeOptions::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr());
    for i in 0..12 {
        let response = client.request("GET", "/jobs", "");
        assert_eq!(response.status, 200, "request {i}: {}", response.body);
        assert!(!response.close, "request {i} downgraded to close");
    }
    // The whole exchange rode one socket: the server saw one connection.
    let metrics = client.request("GET", "/metrics", "");
    let doc = parse(&metrics.body).unwrap();
    assert_eq!(doc.get("connections"), Some(&Json::Int(1)), "{doc:?}");
    assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(12));

    // An explicit Connection: close is honored and ends the stream.
    client.send_raw(b"GET /jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let last = client.read_response().expect("final response");
    assert_eq!(last.status, 200);
    assert!(last.close, "explicit close must be echoed");
    assert!(client.at_eof(), "server must close after Connection: close");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// Sequential keep-alive exchanges must not wait on delayed ACKs. A
/// response written in pieces stalls each exchange ~40 ms behind
/// Nagle's algorithm (at least 2 s for 50 of them); written whole, the
/// 50 take a few milliseconds.
#[test]
fn keepalive_exchanges_do_not_stall_on_delayed_acks() {
    let queue = temp_dir("nodelay");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        ..ServeOptions::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr());
    let started = Instant::now();
    for i in 0..50 {
        let response = client.request("GET", "/no-such-route", "");
        assert_eq!(response.status, 404, "request {i}: {}", response.body);
        assert!(!response.close, "request {i} downgraded to close");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 keep-alive requests took {elapsed:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

#[test]
fn idle_connections_expire_on_the_injected_clock() {
    let queue = temp_dir("idle");
    let clock = Arc::new(ManualClock::new(50_000));
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        idle_timeout_ms: 10_000,
        clock: clock.clone() as Arc<dyn QueueClock>,
        ..ServeOptions::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr());
    let response = client.request("GET", "/jobs", "");
    assert_eq!(response.status, 200);
    assert!(!response.close);

    // Sit idle: while the clock holds still the connection stays open.
    std::thread::sleep(Duration::from_millis(150));
    let response = client.request("GET", "/jobs", "");
    assert_eq!(response.status, 200, "idle under the timeout must serve");

    // Cross the idle budget on the manual clock: the server hangs up.
    clock.advance(10_001);
    assert!(client.at_eof(), "idle connection must be closed");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

#[test]
fn pipelined_requests_are_rejected_with_a_close() {
    let queue = temp_dir("pipeline");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        ..ServeOptions::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr());
    // Two requests in one write, before reading anything: pipelining.
    client
        .send_raw(b"GET /jobs HTTP/1.1\r\nHost: t\r\n\r\nGET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let first = client.read_response().expect("first response");
    assert_eq!(first.status, 200);
    assert!(first.close, "pipelining must downgrade to close");
    assert!(
        client.at_eof(),
        "the pipelined request must be dropped, not answered"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

#[test]
fn connections_past_the_cap_get_typed_503s() {
    let queue = temp_dir("cap");
    let sink = Arc::new(MemorySink::new());
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        max_connections: 1,
        sink: sink.clone(),
        ..ServeOptions::default()
    })
    .expect("server start");
    let addr = server.addr();

    // The first connection claims the only slot...
    let mut holder = Client::connect(addr);
    let response = holder.request("GET", "/jobs", "");
    assert_eq!(response.status, 200);

    // ...so the next one is turned away with a typed 503 and closed.
    let mut overflow = Client::connect(addr);
    let refused = overflow.read_response().expect("503 body");
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(refused.close);
    let doc = parse(&refused.body).unwrap();
    assert_eq!(doc.get("limit"), Some(&Json::Int(1)), "{}", refused.body);
    assert!(doc.get("error").is_some() && doc.get("connections").is_some());
    assert!(overflow.at_eof(), "refused connection must be closed");

    // Releasing the slot restores service for new connections.
    drop(overflow);
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        let mut retry = Client::connect(addr);
        // Send the request eagerly: an admitted connection answers it,
        // a refused one gets its 503 without the server reading it.
        retry.send_raw(b"GET /jobs HTTP/1.1\r\nHost: t\r\n\r\n");
        let response = retry.read_response().map(|r| r.status);
        match response {
            Some(200) => break true,
            Some(503) if Instant::now() < deadline => {
                // The server has not yet noticed the holder's EOF.
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected recovery response: {other:?}"),
        }
    };
    assert!(recovered);
    server.shutdown();
    let lines = sink.lines().join("\n");
    assert!(lines.contains("\"kind\":\"serve_overload\""), "{lines}");
    assert!(lines.contains("\"limit\":1"), "{lines}");
    let _ = std::fs::remove_dir_all(&queue);
}

/// A request that trickles in slower than the server's 25ms socket
/// read-timeout tick must still be served: partial bytes survive the
/// ticks in the per-connection buffer (a retried parse used to drop
/// them, turning slow-but-valid requests into 400s).
#[test]
fn slow_requests_survive_socket_timeout_ticks() {
    let queue = temp_dir("slow");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        ..ServeOptions::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr());

    // A GET whose request line and headers arrive a few bytes at a
    // time, with gaps well past the socket tick.
    let raw = b"GET /jobs HTTP/1.1\r\nHost: t\r\n\r\n";
    for chunk in raw.chunks(7) {
        client.send_raw(chunk);
        std::thread::sleep(Duration::from_millis(60));
    }
    let response = client.read_response().expect("slow GET answered");
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(!response.close, "a slow request must not cost keep-alive");

    // A POST whose body stalls mid-transfer across several ticks.
    let body = spec(77);
    client.send_raw(
        format!(
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    std::thread::sleep(Duration::from_millis(80));
    let (head, tail) = body.as_bytes().split_at(body.len() / 2);
    client.send_raw(head);
    std::thread::sleep(Duration::from_millis(80));
    client.send_raw(tail);
    let response = client.read_response().expect("stalled POST answered");
    assert_eq!(response.status, 201, "{}", response.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// Header floods are cut off with a 400 instead of buffered without
/// bound: an over-long header block and an over-counted header list
/// both close the connection loudly.
#[test]
fn header_floods_get_a_400_not_unbounded_buffering() {
    let queue = temp_dir("flood");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        ..ServeOptions::default()
    })
    .expect("server start");
    let addr = server.addr();

    let mut client = Client::connect(addr);
    client.send_raw(
        format!(
            "GET /jobs HTTP/1.1\r\nX-Flood: {}\r\n\r\n",
            "a".repeat(9 << 10)
        )
        .as_bytes(),
    );
    let response = client.read_response().expect("oversized headers answered");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.close);
    assert!(client.at_eof(), "flooding connection must be closed");

    let mut client = Client::connect(addr);
    let mut many = String::from("GET /jobs HTTP/1.1\r\n");
    for i in 0..150 {
        many.push_str(&format!("X-H{i}: v\r\n"));
    }
    many.push_str("\r\n");
    client.send_raw(many.as_bytes());
    let response = client.read_response().expect("many headers answered");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.close);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// Simultaneous submissions of one identical spec race through
/// `enqueue_spec` on concurrent handler threads: every submission must
/// succeed (200 or 201, never a 500 from colliding tmp files) and the
/// queue must end up with exactly one job file.
#[test]
fn simultaneous_submissions_of_one_spec_never_conflict() {
    let queue = temp_dir("race");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        ..ServeOptions::default()
    })
    .expect("server start");
    let addr = server.addr();
    let body = spec(55);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let response = client.request("POST", "/jobs", &body);
                assert!(
                    matches!(response.status, 200 | 201),
                    "racing submission failed: {} {}",
                    response.status,
                    response.body
                );
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("submitter thread");
    }
    let job_files = std::fs::read_dir(&queue)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .and_then(|x| x.to_str())
                == Some("json")
        })
        .count();
    assert_eq!(job_files, 1, "identical specs must collapse onto one job");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

/// The headline concurrency claim: 8 clients, each holding one socket
/// for 10 requests, all served in parallel under the default cap.
#[test]
fn eight_concurrent_keepalive_clients_ten_requests_each() {
    let queue = temp_dir("concurrent");
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 0,
        max_connections: 16,
        ..ServeOptions::default()
    })
    .expect("server start");
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..10 {
                    let response = client.request("GET", "/jobs", "");
                    assert_eq!(response.status, 200, "client {c} request {i}");
                    assert!(!response.close, "client {c} request {i} lost keep-alive");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let mut probe = Client::connect(addr);
    let metrics = probe.request("GET", "/metrics", "");
    let doc = parse(&metrics.body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("od-serve-metrics-v1")
    );
    assert_eq!(doc.get("connections"), Some(&Json::Int(9)), "{doc:?}");
    // The probe's own request renders the document before being
    // counted, so it sees the 80 client requests already answered.
    assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(80));
    assert_eq!(doc.get("overloads"), Some(&Json::Int(0)), "{doc:?}");
    assert_eq!(doc.get("max_connections"), Some(&Json::Int(16)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
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

/// Asserts that `/metrics` reports the store footprint on disk.
fn assert_store_metrics_match_disk(client: &mut Client, queue: &std::path::Path) {
    let doc = parse(&client.request("GET", "/metrics", "").body).unwrap();
    let store_doc = doc.get("store").unwrap();
    let disk = od_serve::store::footprint(queue);
    assert_eq!(
        (
            store_doc.get("entries").and_then(Json::as_u64),
            store_doc.get("bytes").and_then(Json::as_u64),
        ),
        (Some(disk.entries), Some(disk.bytes)),
        "{doc:?}"
    );
}

fn poll_until_done(client: &mut Client, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response = client.request("GET", &format!("/jobs/{id}"), "");
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = parse(&response.body).unwrap();
        match doc.get("status").and_then(Json::as_str).unwrap_or("") {
            "done" => return,
            "quarantined" => panic!("job quarantined: {}", response.body),
            state => {
                assert!(Instant::now() < deadline, "job stuck in '{state}'");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

#[test]
fn capped_store_keeps_referenced_results_and_evicts_oldest_when_released() {
    let queue = temp_dir("gc");
    let sink = Arc::new(MemorySink::new());
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 2,
        results_max_count: Some(1),
        sink: sink.clone(),
        ..ServeOptions::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr());

    let submit = |body: &str, client: &mut Client| -> (String, String) {
        let response = client.request("POST", "/jobs", body);
        assert_eq!(response.status, 201, "{}", response.body);
        let doc = parse(&response.body).unwrap();
        (
            doc.get("job").and_then(Json::as_str).unwrap().to_string(),
            doc.get("spec_hash")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        )
    };
    let (id_a, hash_a) = submit(&spec(21), &mut client);
    let (id_b, hash_b) = submit(&spec(22), &mut client);
    poll_until_done(&mut client, &id_a);
    poll_until_done(&mut client, &id_b);
    // Fetching publishes into the store: A first, so A is the oldest.
    assert_eq!(
        client
            .request("GET", &format!("/results/{hash_a}"), "")
            .status,
        200
    );
    assert_eq!(
        client
            .request("GET", &format!("/results/{hash_b}"), "")
            .status,
        200
    );

    // Both results are referenced by live queue jobs: the store sits
    // over its cap of 1, and GC must truthfully refuse to evict.
    let results = queue.join(".results");
    assert_eq!(std::fs::read_dir(&results).unwrap().count(), 2);
    let metrics = parse(&client.request("GET", "/metrics", "").body).unwrap();
    let store_doc = metrics.get("store").unwrap();
    assert_eq!(store_doc.get("entries"), Some(&Json::Int(2)));
    assert_eq!(
        store_doc.get("gc_evicted"),
        Some(&Json::Int(0)),
        "a referenced result was evicted: {metrics:?}"
    );
    assert_store_metrics_match_disk(&mut client, &queue);

    // Remove A's job file: nothing references A any more (B stays
    // referenced). Cache hits never trigger GC — only growth does — so
    // the store is untouched until the next publish.
    std::fs::remove_file(queue.join(format!("{id_a}.json"))).unwrap();
    assert_eq!(
        client
            .request("GET", &format!("/results/{hash_a}"), "")
            .status,
        200,
        "a cache hit must serve without trimming"
    );
    assert_eq!(std::fs::read_dir(&results).unwrap().count(), 2);

    // A third job's first result fetch publishes into the store, and
    // that growth triggers the GC pass: A (oldest, unreferenced) is
    // evicted; B and C are referenced and must survive even though the
    // store stays over its cap of 1.
    let (id_c, hash_c) = submit(&spec(23), &mut client);
    poll_until_done(&mut client, &id_c);
    assert_eq!(
        client
            .request("GET", &format!("/results/{hash_c}"), "")
            .status,
        200
    );
    assert_eq!(std::fs::read_dir(&results).unwrap().count(), 2);
    for (hash, expected) in [(&hash_a, false), (&hash_b, true), (&hash_c, true)] {
        assert_eq!(
            results.join(format!("{hash}.json")).exists(),
            expected,
            "store entry for {hash}"
        );
    }
    let after = client.request("GET", &format!("/results/{hash_a}"), "");
    assert_eq!(after.status, 404, "evicted result must be gone");
    assert_store_metrics_match_disk(&mut client, &queue);

    server.shutdown();
    let lines = sink.lines().join("\n");
    assert!(lines.contains("\"kind\":\"serve_gc\""), "{lines}");
    assert!(lines.contains("\"evicted\":1,\"kept\":2"), "{lines}");
    let _ = std::fs::remove_dir_all(&queue);
}

#[test]
fn batches_enqueue_with_per_item_dedup_verdicts() {
    let queue = temp_dir("batch");
    let sink = Arc::new(MemorySink::new());
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        workers: 2,
        sink: sink.clone(),
        ..ServeOptions::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr());

    // Seed one spec through the single-submit path first.
    let first = client.request("POST", "/jobs", &spec(1));
    assert_eq!(first.status, 201, "{}", first.body);

    // A batch mixing that duplicate, two new specs, and an in-batch
    // duplicate: per-item verdicts, one job file per unique spec.
    let batch = format!("[{}, {}, {}, {}]", spec(1), spec(2), spec(3), spec(2));
    let response = client.request("POST", "/batches", &batch);
    assert_eq!(response.status, 201, "{}", response.body);
    let doc = parse(&response.body).unwrap();
    assert_eq!(doc.get("jobs"), Some(&Json::Int(4)));
    assert_eq!(doc.get("accepted"), Some(&Json::Int(2)), "{doc:?}");
    assert_eq!(doc.get("deduped"), Some(&Json::Int(2)), "{doc:?}");
    let items = doc.get("items").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), 4);
    let verdicts: Vec<bool> = items
        .iter()
        .map(|i| i.get("deduped") == Some(&Json::Bool(true)))
        .collect();
    assert_eq!(
        verdicts,
        [true, false, false, true],
        "{}: first item was pre-submitted, last duplicates the second",
        response.body
    );
    let ids: Vec<String> = items
        .iter()
        .map(|i| i.get("job").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(ids[1], ids[3], "identical specs share a job id");

    // Re-POSTing the whole batch is idempotent: everything deduped.
    let again = client.request("POST", "/batches", &batch);
    assert_eq!(again.status, 200, "{}", again.body);
    let doc = parse(&again.body).unwrap();
    assert_eq!(doc.get("accepted"), Some(&Json::Int(0)));
    assert_eq!(doc.get("deduped"), Some(&Json::Int(4)));

    // All three unique jobs run to completion — exactly once each.
    for id in [&ids[0], &ids[1], &ids[2]] {
        poll_until_done(&mut client, id);
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(claims_on_bus(&queue), 3, "one execution per unique spec");

    // A batch with any invalid item enqueues nothing.
    let queued_before = std::fs::read_dir(&queue)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .and_then(|x| x.to_str())
                == Some("json")
        })
        .count();
    let bad = format!("[{}, {{\"name\": \"broken\"}}]", spec(9));
    let response = client.request("POST", "/batches", &bad);
    assert_eq!(response.status, 400, "{}", response.body);
    let doc = parse(&response.body).unwrap();
    let invalid = doc.get("invalid").and_then(Json::as_array).unwrap();
    assert_eq!(invalid.len(), 1);
    assert_eq!(invalid[0].get("index"), Some(&Json::Int(1)));
    let queued_after = std::fs::read_dir(&queue)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .and_then(|x| x.to_str())
                == Some("json")
        })
        .count();
    assert_eq!(
        queued_before, queued_after,
        "an invalid batch must enqueue nothing"
    );

    // Non-array and empty bodies are typed 400s.
    assert_eq!(client.request("POST", "/batches", "{}").status, 400);
    assert_eq!(client.request("POST", "/batches", "[]").status, 400);

    server.shutdown();
    let lines = sink.lines().join("\n");
    assert!(lines.contains("\"kind\":\"serve_batch\""), "{lines}");
    assert!(
        lines.contains("\"jobs\":4,\"accepted\":2,\"deduped\":2"),
        "{lines}"
    );
    let _ = std::fs::remove_dir_all(&queue);
}
