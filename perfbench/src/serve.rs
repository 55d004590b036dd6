//! The serve-backlog workload: an in-process `od_serve::Server` over a
//! queue seeded with completed jobs, driven over loopback by a closed
//! loop of keep-alive clients.
//!
//! Set-up seeds the backlog through public calls — `run_job` with the
//! sibling checkpoint, then `lease::write_done` with the report's
//! summary, plus the empty lock file a worker's claim leaves — which is
//! what a leased worker leaves on disk, without paying the leased loop
//! per job. Each client then repeats: `POST /jobs` with a fresh tiny
//! spec, poll `GET /results/<hash>` at a fixed interval until it answers
//! 200, then a fixed read mix (`GET /jobs/<id>`, a `GET /results/<hash>`
//! hit, `GET /metrics`).

use crate::jobs;
use crate::measure::{self, time_each, Outcome};
use crate::specs::{self, SERVE_JOBS_PER_CLIENT};
use crate::stats;
use crate::trace::Tracer;
use od_runtime::json::{parse, Json};
use od_runtime::{
    default_checkpoint_path, lease, queue::queue_files, run_job, run_queue_worker, JobSpec,
    QueueClock, RunOptions, ShardSummary, SystemClock, WorkerOptions,
};
use od_serve::{state, store, FlushSink, GcCaps, ServeOptions, Server};
use od_telemetry::{Event, JsonlSink, TelemetrySink};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Give up on a job whose result has not appeared after this long.
const RESULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A keep-alive HTTP/1.1 client on one connection (reconnects when the
/// server closes it).
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(stream)
    }

    /// Sends one request and reads the whole response: (status, body).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let bytes = if method == "POST" {
            crate::micro::post_request(path, body)
        } else {
            format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
        };
        if self.stream.is_none() {
            self.stream = Some(Self::connect(self.addr)?);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream
            .write_all(&bytes)
            .and_then(|()| read_response(stream));
        match result {
            Ok((status, body, close)) => {
                if close {
                    self.stream = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Reads one fixed-length response: (status, body, connection closes).
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, Vec<u8>, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before the response headers"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("non-UTF-8 headers"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = 0usize;
    let mut close = false;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = buf[header_end..].to_vec();
    while body.len() < length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    Ok((status, body, close))
}

/// Seeds `queue` with the completed tiny jobs `0..count`.
pub fn seed_backlog(queue: &Path, seed: u64, count: u64) -> Result<Vec<(PathBuf, String)>, String> {
    std::fs::create_dir_all(queue).map_err(|e| format!("creating the queue: {e}"))?;
    (0..count)
        .map(|i| {
            let spec = specs::tiny_spec(seed, i);
            let hash = spec.content_hash();
            let path = queue.join(format!("job-{hash}.json"));
            std::fs::write(&path, specs::job_file_text(&spec)).map_err(|e| e.to_string())?;
            let options = RunOptions {
                checkpoint_path: Some(default_checkpoint_path(&path)),
                ..RunOptions::default()
            };
            let report = run_job(&spec, &options).map_err(|e| e.to_string())?;
            lease::write_done(&path, &hash, &report.summary.to_json())
                .map_err(|e| e.to_string())?;
            let mut lock = path.clone().into_os_string();
            lock.push(".lock");
            std::fs::write(lock, b"").map_err(|e| e.to_string())?;
            Ok((path, hash))
        })
        .collect()
}

/// The service under test: a fresh backlog plus a started server.
pub struct Service {
    pub queue: PathBuf,
    pub server: Server,
    pub backlog: Vec<(PathBuf, String)>,
    /// When the server (and its worker bus clock) started.
    pub started: Instant,
}

/// Set-up: seed a fresh queue and start the server on it.
pub fn start_service(dir: &Path, seed: u64) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    let queue = dir.join("queue");
    let backlog = seed_backlog(&queue, seed, specs::BACKLOG_JOBS)?;
    let started = Instant::now();
    let server = Server::start(ServeOptions {
        queue_dir: queue.clone(),
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        results_max_count: Some(specs::RESULTS_MAX_COUNT),
        ..ServeOptions::default()
    })
    .map_err(|e| e.to_string())?;
    Ok(Service {
        queue,
        server,
        backlog,
        started,
    })
}

/// What one job's trip through the service recorded.
pub struct JobRecord {
    pub spec: JobSpec,
    pub hash: String,
    pub submitted: Instant,
    pub submit_s: f64,
    pub turnaround_s: f64,
    pub polls: u64,
    pub result: Vec<u8>,
}

/// Samples of one closed-loop stretch.
#[derive(Default)]
pub struct LoopStats {
    pub records: Vec<JobRecord>,
    pub batch_walls: Vec<f64>,
    pub reads: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
}

/// One client's share of a repetition: `SERVE_JOBS_PER_CLIENT` jobs, each
/// inside a `serve.job` span (id: the spec hash) when tracing.
fn client_jobs(
    client: &mut Client,
    seed: u64,
    rep: u64,
    index: usize,
    tracer: Option<&Tracer>,
) -> LoopStats {
    let mut out = LoopStats::default();
    for j in 0..SERVE_JOBS_PER_CLIENT {
        let spec = specs::tiny_spec(seed, specs::submission_index(rep, index, j));
        let hash = spec.content_hash();
        let job_span = tracer.map(|t| t.open("serve.job", None, &hash));
        let record = one_job(client, spec, hash, tracer.zip(job_span), &mut out);
        if let (Some(t), Some(id)) = (tracer, job_span) {
            t.close(id);
        }
        out.records.extend(record);
    }
    out
}

/// Submits `spec`, polls for its result, then runs the read mix; counts
/// requests, failures and read latencies into `out`. `None` when the job
/// failed before its result arrived.
fn one_job(
    client: &mut Client,
    spec: JobSpec,
    hash: String,
    span: Option<(&Tracer, u64)>,
    out: &mut LoopStats,
) -> Option<JobRecord> {
    let body = spec.to_json().to_string_compact();
    let mut request = |name: &str, method: &str, path: &str, body: &[u8]| {
        out.requests += 1;
        let start = Instant::now();
        let answer = client.request(method, path, body);
        if let Some((tracer, id)) = span {
            tracer.record(name, Some(id), &hash, start, Instant::now());
        }
        answer
    };
    let job_start = Instant::now();
    let submitted = request("http.POST /jobs", "POST", "/jobs", body.as_bytes());
    let submit_s = job_start.elapsed().as_secs_f64();
    if !matches!(submitted, Ok((201, _))) {
        eprintln!("POST /jobs answered {:?}", submitted.map(|r| r.0));
        out.failed += 1;
        return None;
    }
    let path = format!("/results/{hash}");
    let mut polls = 0u64;
    let result = loop {
        std::thread::sleep(Duration::from_millis(specs::RESULT_POLL_MS));
        polls += 1;
        match request("http.GET /results", "GET", &path, b"") {
            Ok((200, bytes)) => break bytes,
            Ok((404, _)) if job_start.elapsed() < RESULT_TIMEOUT => {}
            other => {
                eprintln!("GET {path} answered {:?}", other.map(|r| r.0));
                out.failed += 1;
                return None;
            }
        }
    };
    let turnaround_s = job_start.elapsed().as_secs_f64();
    let detail = format!("/jobs/job-{hash}");
    for (route, want) in [
        (detail.as_str(), None),
        (path.as_str(), Some(&result)),
        ("/metrics", None),
    ] {
        let t = Instant::now();
        let answer = request("http.GET read", "GET", route, b"");
        out.reads.push(t.elapsed().as_secs_f64());
        let ok = match (&answer, want) {
            (Ok((200, bytes)), Some(expected)) => bytes == expected,
            (Ok((200, bytes)), None) if route == detail => parse(&String::from_utf8_lossy(bytes))
                .ok()
                .and_then(|doc| {
                    doc.get("status")
                        .and_then(Json::as_str)
                        .map(|s| s == "done")
                })
                .unwrap_or(false),
            (Ok((200, _)), None) => true,
            _ => false,
        };
        if !ok {
            eprintln!("read GET {route} failed: {:?}", answer.map(|r| r.0));
            out.failed += 1;
        }
    }
    Some(JobRecord {
        spec,
        hash,
        submitted: job_start,
        submit_s,
        turnaround_s,
        polls,
        result,
    })
}

/// Runs repetitions (every client pushes `SERVE_JOBS_PER_CLIENT` jobs
/// through the loop) until `seconds` have passed and at least
/// `min_jobs` jobs completed; `first_rep` keeps submissions fresh across
/// calls.
pub fn closed_loop(
    clients: &mut [Client],
    seed: u64,
    first_rep: u64,
    seconds: f64,
    min_jobs: usize,
    max_seconds: f64,
    tracer: Option<&Tracer>,
) -> (LoopStats, u64) {
    let started = Instant::now();
    let mut total = LoopStats::default();
    let mut rep = first_rep;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && total.records.len() >= min_jobs;
        if (rep > first_rep && enough) || elapsed >= max_seconds {
            break;
        }
        let batch_start = Instant::now();
        let parts: Vec<LoopStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| scope.spawn(move || client_jobs(client, seed, rep, i, tracer)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        total.batch_walls.push(batch_start.elapsed().as_secs_f64());
        for part in parts {
            total.records.extend(part.records);
            total.reads.extend(part.reads);
            total.requests += part.requests;
            total.failed += part.failed;
        }
        rep += 1;
    }
    (total, rep)
}

/// The rounds a served result's summary records.
fn summary_rounds(result: &[u8], max_rounds: u64) -> Option<u64> {
    let doc = parse(std::str::from_utf8(result).ok()?).ok()?;
    let summary = ShardSummary::from_json(doc.get("summary")?).ok()?;
    Some(summary.rounds.sum() as u64 + summary.capped * max_rounds)
}

/// Checks every served result against `{spec_hash, summary}` computed by
/// `run_job` on the same spec (rendered by `lease::write_done`, so the
/// bytes must match exactly). Returns the number of mismatches.
pub fn verify_results(records: &[JobRecord], dir: &Path) -> u64 {
    let _ = std::fs::create_dir_all(dir);
    let mut failed = 0;
    for record in records {
        let job = dir.join(format!("job-{}.json", record.hash));
        let expected = run_job(&record.spec, &RunOptions::default())
            .map_err(|e| e.to_string())
            .and_then(|report| {
                lease::write_done(&job, &record.hash, &report.summary.to_json())
                    .map_err(|e| e.to_string())
            })
            .and_then(|()| std::fs::read(lease::done_path(&job)).map_err(|e| e.to_string()));
        if expected.as_deref().ok() != Some(record.result.as_slice()) {
            eprintln!("served result for {} differs from run_job", record.hash);
            failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    failed
}

/// The closed loop's end-to-end metrics.
pub fn loop_metrics(stats: &LoopStats, outcome: &mut Outcome) {
    let busy: f64 = stats.batch_walls.iter().sum();
    let rounds: u64 = stats
        .records
        .iter()
        .map(|r| summary_rounds(&r.result, r.spec.max_rounds).unwrap_or(0))
        .sum();
    let turnaround: Vec<f64> = stats.records.iter().map(|r| r.turnaround_s * 1e3).collect();
    let submit: Vec<f64> = stats.records.iter().map(|r| r.submit_s * 1e3).collect();
    let reads: Vec<f64> = stats.reads.iter().map(|s| s * 1e3).collect();
    outcome.set("wall_s", measure::median(&stats.batch_walls));
    outcome.set("jobs_per_s", stats.records.len() as f64 / busy);
    outcome.set("rounds_per_s", rounds as f64 / busy);
    outcome.set("turnaround_p50_ms", measure::median(&turnaround));
    outcome.set(
        "turnaround_p90_ms",
        stats::supported_percentile(&turnaround, 90.0).unwrap_or(f64::NAN),
    );
    outcome.set("submit_p50_ms", measure::median(&submit));
    outcome.set("read_p50_ms", measure::median(&reads));
    outcome.set(
        "read_p90_ms",
        stats::supported_percentile(&reads, 90.0).unwrap_or(f64::NAN),
    );
    outcome.note(format!(
        "samples: {} jobs in {} repetitions, {} reads, {} requests",
        stats.records.len(),
        stats.batch_walls.len(),
        reads.len(),
        stats.requests
    ));
}

/// Queue-wait and claim-to-done times (ms) and lines per job, from the
/// embedded worker's telemetry bus, for the jobs in `records`.
fn bus_times(service: &Service, records: &[JobRecord]) -> (Vec<f64>, Vec<f64>, f64) {
    let bus = service.queue.join(".serve").join("worker-0.jsonl");
    let text = std::fs::read_to_string(bus).unwrap_or_default();
    let mut claims = std::collections::HashMap::new();
    let mut dones = std::collections::HashMap::new();
    let mut lines_in_windows = 0u64;
    let mut windows = 0u64;
    let mut open = false;
    for line in text.lines() {
        let Ok(event) = parse(line) else { continue };
        let kind = event.get("kind").and_then(Json::as_str).unwrap_or("");
        let t_ms = event.get("t_ms").and_then(Json::as_u64).unwrap_or(0) as f64;
        let hash = event
            .get("job")
            .and_then(Json::as_str)
            .and_then(|j| j.rsplit('/').next())
            .and_then(|f| f.strip_prefix("job-"))
            .and_then(|f| f.strip_suffix(".json"))
            .map(str::to_string);
        if kind == "queue_claim" {
            open = true;
            windows += 1;
        }
        if open {
            lines_in_windows += 1;
        }
        if matches!(kind, "queue_done" | "queue_release" | "queue_quarantine") {
            open = false;
        }
        match (kind, hash) {
            ("queue_claim", Some(h)) => {
                claims.insert(h, t_ms);
            }
            ("queue_done", Some(h)) => {
                dones.insert(h, t_ms);
            }
            _ => {}
        }
    }
    let mut wait = Vec::new();
    let mut run = Vec::new();
    for r in records {
        let submit_ms = r
            .submitted
            .saturating_duration_since(service.started)
            .as_secs_f64()
            * 1e3;
        if let (Some(&c), Some(&d)) = (claims.get(&r.hash), dones.get(&r.hash)) {
            wait.push((c - submit_ms).max(0.0));
            run.push(d - c);
        }
    }
    (wait, run, lines_in_windows as f64 / windows.max(1) as f64)
}

/// Median round trip of a request no handler works on (a 404 path), on
/// one keep-alive connection and on a fresh connection each time.
fn noop_rtts(addr: SocketAddr) -> (f64, f64) {
    let mut keep = Client::new(addr);
    let _ = keep.request("GET", "/perfbench-noop", b"");
    let keep_alive = time_each(30, || {
        let _ = black_box(keep.request("GET", "/perfbench-noop", b""));
    });
    let fresh = time_each(30, || {
        let _ = black_box(Client::new(addr).request("GET", "/perfbench-noop", b""));
    });
    (measure::median(&keep_alive), measure::median(&fresh))
}

/// The traced run of serve-backlog (after the untraced loop, on the same
/// service): a traced stretch of the loop, the bus analysis, transport
/// probes, then — with the server stopped — replays of the queue, lease,
/// state and store layers on the backlog, and of the executor,
/// checkpoint, spec and HTTP-framing layers on tiny jobs.
#[allow(clippy::too_many_arguments)] // the run's whole state, passed once
pub fn trace(
    service: Service,
    clients: &mut [Client],
    seed: u64,
    next_rep: u64,
    untraced: &LoopStats,
    work: &Path,
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    let (traced, _) = closed_loop(clients, seed, next_rep, 0.0, 0, f64::INFINITY, Some(tracer));
    outcome.attempted += traced.requests;
    outcome.failed += traced.failed;
    let untraced_wall = measure::median(&untraced.batch_walls);
    outcome.set(
        "trace_overhead_frac",
        measure::median(&traced.batch_walls) / untraced_wall - 1.0,
    );

    let all: Vec<&JobRecord> = untraced.records.iter().chain(&traced.records).collect();
    let (wait, run, events_per_job) = bus_times(&service, &untraced.records);
    outcome.set("serve.queue_wait_ms", measure::median(&wait));
    outcome.set("serve.claim_to_done_ms", measure::median(&run));
    let polls: u64 = all.iter().map(|r| r.polls).sum();
    outcome.set(
        "serve.result_polls_per_job",
        polls as f64 / all.len().max(1) as f64,
    );
    outcome.set(
        "serve.result_poll_useful_frac",
        all.len() as f64 / polls.max(1) as f64,
    );
    outcome.set("telemetry.events_per_job", events_per_job);

    let (noop, fresh) = tracer
        .span("serve.http.noop_rtt", None, "", |_| {
            noop_rtts(service.server.addr())
        })
        .0;
    outcome.set("http.noop_rtt_ms", noop * 1e3);
    outcome.set("http.fresh_conn_rtt_ms", fresh * 1e3);
    let ((), _) = tracer.span("serve.Server::shutdown", None, "", |_| {
        service.server.shutdown()
    });

    let queue = &service.queue;
    let ((list, idle), _) = tracer.span("runtime.queue", None, "", |_| {
        let list = time_each(5, || {
            black_box(queue_files(queue).expect("queue lists"));
        });
        let idle = time_each(3, || {
            let report = run_queue_worker(
                queue,
                &WorkerOptions {
                    worker_id: "perfbench-idle".to_string(),
                    ..WorkerOptions::default()
                },
            )
            .expect("idle pass");
            black_box(report);
        });
        (list, idle)
    });
    outcome.set("queue.list_ms", measure::median(&list) * 1e3);
    outcome.set("queue.idle_pass_ms", measure::median(&idle) * 1e3);

    // Leased-worker overhead: one fresh tiny job through
    // run_queue_worker, minus run_job of an identical fresh job file.
    let overhead_dir = work.join("overhead");
    let mut overhead = Vec::new();
    let mut direct = Vec::new();
    let ((), _) = tracer.span("runtime.queue.run_queue_worker", None, "", |_| {
        for i in 0..5u64 {
            let spec = specs::tiny_spec(seed, u64::MAX - i);
            let text = specs::job_file_text(&spec);
            let mut leased = 0.0;
            let mut plain = 0.0;
            for (mode, total) in [("leased", &mut leased), ("plain", &mut plain)] {
                let dir = overhead_dir.join(format!("{mode}-{i}"));
                let _ = std::fs::remove_dir_all(&dir);
                let _ = std::fs::create_dir_all(&dir);
                let job = dir.join("job.json");
                let _ = std::fs::write(&job, &text);
                let t = Instant::now();
                let ok = if mode == "leased" {
                    run_queue_worker(&dir, &WorkerOptions::default()).is_ok_and(|r| r.done == 1)
                } else {
                    run_job(
                        &spec,
                        &RunOptions {
                            checkpoint_path: Some(default_checkpoint_path(&job)),
                            ..RunOptions::default()
                        },
                    )
                    .is_ok()
                };
                *total = t.elapsed().as_secs_f64();
                outcome.check(ok, "overhead probe job ran");
            }
            overhead.push(leased - plain);
            direct.push(plain);
        }
    });
    let _ = std::fs::remove_dir_all(&overhead_dir);
    outcome.set("queue.job_overhead_ms", measure::median(&overhead) * 1e3);

    let (job, hash) = service.backlog[0].clone();
    let clock: Arc<dyn QueueClock> = Arc::new(SystemClock);
    let ((), _) = tracer.span("runtime.lease.claim", None, &hash, |_| {
        let cycle = time_each(20, || {
            let cycled = match lease::claim(&job, "perfbench", 30_000, 1, &clock) {
                Ok(lease::ClaimOutcome::Claimed { lease, .. }) => lease.release().is_ok(),
                _ => false,
            };
            outcome.check(cycled, "lease claim and release on a done job");
        });
        outcome.set("lease.cycle_us", measure::median(&cycle) * 1e6);
    });
    let ((), _) = tracer.span("serve.state.status_json", None, &hash, |_| {
        let status = time_each(50, || {
            black_box(state::status_json(&job));
        });
        outcome.set("state.status_us", measure::median(&status) * 1e6);
    });

    // Grow the store to the backlog size, then time its scans.
    let ((), _) = tracer.span("serve.store", None, "", |_| {
        let mut misses = 0;
        for (path, hash) in &service.backlog {
            if !matches!(store::publish(queue, path, hash), Ok(Some(_))) {
                misses += 1;
            }
        }
        outcome.check(misses == 0, "every backlog job publishes");
        let lookup = time_each(100, || {
            black_box(store::lookup(queue, &hash));
        });
        let footprint = time_each(5, || {
            black_box(store::footprint(queue));
        });
        let caps = GcCaps {
            max_count: Some(specs::RESULTS_MAX_COUNT),
            max_bytes: None,
        };
        let gc = time_each(3, || {
            let report = store::gc(queue, &caps).expect("gc pass");
            black_box(report);
        });
        outcome.set("store.lookup_us", measure::median(&lookup) * 1e6);
        outcome.set("store.footprint_ms", measure::median(&footprint) * 1e3);
        outcome.set("store.gc_ms", measure::median(&gc) * 1e3);
    });

    let ((), _) = tracer.span("telemetry.emit", None, "", |_| {
        let bus = work.join("emit.jsonl");
        let sink = FlushSink::new(Arc::new(JsonlSink::create(&bus).expect("bus file")));
        let emit = time_each(200, || {
            sink.emit(&Event::QueueClaim {
                job: "perfbench/job.json",
                worker: "perfbench",
                attempt: 1,
                expires_ms: 0,
            });
        });
        outcome.set("telemetry.emit_us", measure::median(&emit) * 1e6);
        let _ = std::fs::remove_file(bus);
    });

    // Executor, checkpoint, spec, kernel and framing layers on tiny jobs.
    let tiny: Vec<JobSpec> = (0..4)
        .map(|i| specs::tiny_spec(seed, u64::MAX - 100 - i))
        .collect();
    jobs::trace_layers(&tiny, work, tracer, outcome);

    // Attribution of the median turnaround. Model (all from the replays
    // above): the POST round trip and spec handling; the worker's scan
    // wait, on average half an idle cycle (scan passes + the 20 ms worker
    // poll) plus half a pass to reach the job; the leased-worker overhead
    // and the job itself; then half a client poll interval, one more
    // round trip, and the publish + GC pass of the first 200.
    let ms = |name: &str| outcome.values.get(name).copied().unwrap_or(f64::NAN);
    let turnaround = ms("turnaround_p50_ms");
    let worker_poll_ms = ServeOptions::default().worker.poll_ms as f64;
    let http = 2.0 * ms("http.noop_rtt_ms");
    let spec = ms("spec.submit_us") / 1e3;
    let queue_wait =
        0.5 * (ms("queue.idle_pass_ms") + worker_poll_ms) + 0.25 * ms("queue.idle_pass_ms");
    let queue_share = queue_wait + ms("queue.job_overhead_ms");
    let kernel = measure::median(&direct) * 1e3;
    let store_ms = ms("store.publish_us") / 1e3 + ms("store.gc_ms");
    let poll = 0.5 * specs::RESULT_POLL_MS as f64;
    for (name, value) in [
        ("share.http", http),
        ("share.spec", spec),
        ("share.queue", queue_share),
        ("share.kernel", kernel),
        ("share.store", store_ms),
        ("share.client_poll", poll),
        ("share.graphs", 0.0),
        ("share.checkpoint", 0.0),
    ] {
        outcome.set(name, value / turnaround);
    }
    outcome.set(
        "attributed_frac",
        (http + spec + queue_share + kernel + store_ms + poll) / turnaround,
    );
}
