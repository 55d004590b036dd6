//! The service itself: a concurrent accept loop routing requests over
//! keep-alive connections, plus embedded queue-worker threads draining
//! the same directory — each submitted job claimed by name, the full
//! listing kept as a recovery sweep (see `worker_loop`) — sharing one
//! [`CancelToken`] for coordinated shutdown.
//!
//! # Connection model
//!
//! Each accepted connection gets its own handler thread, bounded by
//! [`ServeOptions::max_connections`]: a connection past the cap is
//! answered immediately with a typed `503 Service Unavailable` document
//! and closed, so overload degrades loudly instead of queueing
//! unboundedly. Within a connection, requests are served in a loop —
//! HTTP/1.1 `Connection: keep-alive`, the default — until the client
//! asks to close, the idle timeout expires (measured on the injectable
//! [`QueueClock`], so tests drive it deterministically), the service
//! shuts down, or the client *pipelines* (sends a second request before
//! reading the first response): pipelining is rejected by answering the
//! current request with `Connection: close` and dropping the rest.

use crate::http::{self, Request};
use crate::{state, store};
use od_runtime::json::{parse, Json};
use od_runtime::queue::queue_files;
use od_runtime::{
    CancelToken, JobSpec, QueueClock, QueueWorker, RuntimeError, SystemClock, WorkerOptions,
};
use od_telemetry::{Event, JsonlSink, NullSink, TelemetrySink};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A sink decorator that flushes after every event, so readers tailing
/// the file (the `/jobs/<id>/events` endpoint, CI validators watching a
/// live service) always see complete lines — [`JsonlSink`] alone
/// buffers until drop.
pub struct FlushSink {
    inner: Arc<dyn TelemetrySink>,
}

impl FlushSink {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn TelemetrySink>) -> Self {
        Self { inner }
    }
}

impl TelemetrySink for FlushSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn emit(&self, event: &Event<'_>) -> u64 {
        let seq = self.inner.emit(event);
        self.inner.flush();
        seq
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Configuration of one service instance.
pub struct ServeOptions {
    /// The queue directory jobs are submitted into (created if absent).
    pub queue_dir: PathBuf,
    /// The listen address; port 0 binds an ephemeral port (read the
    /// bound address back from [`Server::addr`]).
    pub addr: String,
    /// Embedded in-process queue workers. Zero is valid: submissions
    /// then wait for external `od-run --queue-worker` processes.
    pub workers: usize,
    /// Concurrent connections served at once. A connection past the cap
    /// is answered with a typed `503` and closed (minimum 1).
    pub max_connections: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the service closes it, in [`ServeOptions::clock`]
    /// milliseconds.
    pub idle_timeout_ms: u64,
    /// The clock idle-timeout decisions read. Injectable so tests
    /// expire connections deterministically; the default is
    /// [`SystemClock`] — the same clock contract the queue leases use.
    pub clock: Arc<dyn QueueClock>,
    /// Results-store retention: evict oldest-first past this many
    /// stored results (`None` = unbounded).
    pub results_max_count: Option<u64>,
    /// Results-store retention: evict oldest-first past this many
    /// total stored bytes (`None` = unbounded).
    pub results_max_bytes: Option<u64>,
    /// Where `serve_*` lifecycle events go.
    pub sink: Arc<dyn TelemetrySink>,
    /// Template for the embedded workers (retry budget, lease length,
    /// clock). Each worker gets its own id, telemetry bus, and the
    /// service's shared cancel token; those fields are overwritten.
    pub worker: WorkerOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            queue_dir: PathBuf::from("queue"),
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_connections: 64,
            idle_timeout_ms: 5_000,
            clock: Arc::new(SystemClock),
            results_max_count: None,
            results_max_bytes: None,
            sink: Arc::new(NullSink),
            worker: WorkerOptions {
                poll_ms: 20,
                ..WorkerOptions::default()
            },
        }
    }
}

/// Monotonic service counters, read by `GET /metrics` and folded into
/// `serve_*` telemetry. All plain atomics: counters never touch the
/// queue protocol or any checkpoint byte.
#[derive(Default)]
pub(crate) struct Counters {
    /// Requests answered (all endpoints, all statuses).
    pub requests: AtomicU64,
    /// Connections accepted and handed to a handler thread.
    pub connections: AtomicU64,
    /// Connections being served right now.
    pub in_flight: AtomicU64,
    /// Connections turned away with a `503` at the cap.
    pub overloads: AtomicU64,
    /// `POST /batches` submissions.
    pub batches: AtomicU64,
    /// New job files enqueued (single and batch submissions).
    pub jobs_accepted: AtomicU64,
    /// Submissions answered by dedup (no new execution provoked).
    pub jobs_deduped: AtomicU64,
    /// `GET /results/<hash>` lookups that found a result.
    pub results_hits: AtomicU64,
    /// `GET /results/<hash>` lookups that found nothing.
    pub results_misses: AtomicU64,
    /// Store GC passes run.
    pub gc_passes: AtomicU64,
    /// Results evicted by GC over the service lifetime.
    pub gc_evicted: AtomicU64,
    /// Bytes freed by GC over the service lifetime.
    pub gc_bytes_freed: AtomicU64,
}

/// The most published job files [`Wake`] holds hints for. A submission
/// past it drops its hint and sets the sweep flag instead: one directory
/// pass then finds every job at once.
const HINT_CAP: usize = 256;

/// Hands the embedded workers each job file a submission publishes, so
/// a new job is claimed by name — no directory pass, no wait for a
/// worker's poll. Jobs other processes place in the queue are found by
/// the workers' recovery sweeps (see [`worker_loop`]).
#[derive(Default)]
struct Wake {
    state: Mutex<WakeState>,
    changed: Condvar,
}

#[derive(Default)]
struct WakeState {
    /// Bumped once per published job file (and at shutdown).
    generation: u64,
    /// Published job files no worker has taken yet, oldest first; at
    /// most [`HINT_CAP`].
    hints: VecDeque<PathBuf>,
    /// A job file was published while `hints` was full: only a sweep
    /// finds it.
    overflowed: bool,
}

/// What [`Wake::next`] handed a worker.
#[derive(Debug, PartialEq, Eq)]
enum Woken {
    /// A published job file to claim by name.
    Job(PathBuf),
    /// The hints overflowed, or the wait timed out: list the queue.
    Sweep,
    /// The generation moved with no hint left for this worker (a peer
    /// took it, or the service is stopping).
    Moved,
}

impl Wake {
    /// Every update leaves the state whole (an increment, a push, a
    /// pop, a flag), so a poisoned lock still guards a valid state.
    fn lock(&self) -> MutexGuard<'_, WakeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Wakes every worker without a hint (shutdown).
    fn notify(&self) {
        self.lock().generation += 1;
        self.changed.notify_all();
    }

    /// Hands `job`, just published, to one worker.
    fn publish(&self, job: PathBuf) {
        let mut state = self.lock();
        if state.hints.len() < HINT_CAP {
            state.hints.push_back(job);
        } else {
            state.overflowed = true;
        }
        state.generation += 1;
        drop(state);
        self.changed.notify_one();
    }

    /// Takes the oldest hint without waiting.
    fn take(&self) -> Option<PathBuf> {
        self.lock().hints.pop_front()
    }

    /// Blocks until there is a hint, the hints overflowed, the
    /// generation moves past `seen`, or `timeout` elapses; `seen`
    /// advances to the generation observed. An overflow clears the
    /// hints with the flag: the sweep it asks for covers every job
    /// they named.
    fn next(&self, seen: &mut u64, timeout: Duration) -> Woken {
        let (mut state, waited) = self
            .changed
            .wait_timeout_while(self.lock(), timeout, |s| {
                s.hints.is_empty() && !s.overflowed && s.generation == *seen
            })
            .unwrap_or_else(PoisonError::into_inner);
        *seen = state.generation;
        if state.overflowed {
            state.overflowed = false;
            state.hints.clear();
            return Woken::Sweep;
        }
        match state.hints.pop_front() {
            Some(job) => Woken::Job(job),
            None if waited.timed_out() => Woken::Sweep,
            None => Woken::Moved,
        }
    }
}

/// Shared request-handling context.
struct Ctx {
    queue: PathBuf,
    sink: Arc<dyn TelemetrySink>,
    clock: Arc<dyn QueueClock>,
    counters: Counters,
    max_connections: usize,
    idle_timeout_ms: u64,
    gc_caps: store::GcCaps,
    /// The results store's footprint, as this service accounts for it.
    store: store::Ledger,
    /// Milliseconds on [`Ctx::clock`] when the service started, for the
    /// metrics document's uptime and request rate.
    started_ms: u64,
    /// Shared with the embedded workers.
    wake: Arc<Wake>,
}

impl Ctx {
    /// Runs a store GC pass when retention caps are configured,
    /// folding the outcome into the counters and emitting `serve_gc`
    /// when anything was evicted. Errors go to the caller: startup
    /// fails loudly on them, while the serving path logs the failure
    /// and still answers (a broken trim must not break reads).
    fn gc(&self) -> Result<(), RuntimeError> {
        if self.gc_caps.is_unbounded() {
            return Ok(());
        }
        self.counters.gc_passes.fetch_add(1, Ordering::SeqCst);
        let report = self.store.gc(&self.queue, &self.gc_caps)?;
        if report.evicted > 0 {
            self.counters
                .gc_evicted
                .fetch_add(report.evicted, Ordering::SeqCst);
            self.counters
                .gc_bytes_freed
                .fetch_add(report.bytes_freed, Ordering::SeqCst);
            if self.sink.enabled() {
                self.sink.emit(&Event::ServeGc {
                    evicted: report.evicted,
                    kept: report.kept,
                    bytes_freed: report.bytes_freed,
                });
            }
        }
        Ok(())
    }
}

/// A running service: listener thread, per-connection handler threads,
/// plus embedded worker threads. [`Server::shutdown`] stops all of them
/// and reports the request count; dropping without shutdown aborts the
/// threads with the process, leaving queue state consistent (leases
/// expire, checkpoints persist) — the same crash contract the queue
/// workers already honor.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cancel: CancelToken,
    ctx: Arc<Ctx>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Reads the results store's footprint, binds the listener, starts
    /// the embedded workers, runs an initial store-GC pass (when
    /// retention caps are set), and begins serving.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from creating the queue directory, listing
    /// the results store, binding the address, creating the per-worker
    /// telemetry buses, or the initial GC pass.
    pub fn start(options: ServeOptions) -> Result<Self, RuntimeError> {
        let queue = options.queue_dir;
        std::fs::create_dir_all(&queue)
            .map_err(|e| RuntimeError::io(&format!("creating {}", queue.display()), e))?;
        let store = store::Ledger::open(&queue)?;
        let listener = TcpListener::bind(options.addr.as_str())
            .map_err(|e| RuntimeError::io(&format!("binding {}", options.addr), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RuntimeError::io("configuring the listener", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RuntimeError::io("reading the bound address", e))?;
        let sink: Arc<dyn TelemetrySink> = Arc::new(FlushSink::new(options.sink));
        if sink.enabled() {
            sink.emit(&Event::ServeStart {
                addr: &addr.to_string(),
                queue: &queue.display().to_string(),
                workers: options.workers as u64,
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let cancel = CancelToken::new();
        let wake = Arc::new(Wake::default());
        let mut workers = Vec::new();
        if options.workers > 0 {
            let bus_dir = queue.join(".serve");
            std::fs::create_dir_all(&bus_dir)
                .map_err(|e| RuntimeError::io(&format!("creating {}", bus_dir.display()), e))?;
            for i in 0..options.workers {
                let bus = bus_dir.join(format!("worker-{i}.jsonl"));
                let jsonl = JsonlSink::create(&bus)
                    .map_err(|e| RuntimeError::io(&format!("creating {}", bus.display()), e))?;
                let mut worker = options.worker.clone();
                worker.worker_id = format!("serve-w{i}");
                worker.run.sink = Arc::new(FlushSink::new(Arc::new(jsonl)));
                worker.run.cancel = cancel.clone();
                let dir = queue.clone();
                let wake = Arc::clone(&wake);
                workers.push(std::thread::spawn(move || {
                    worker_loop(&dir, &worker, &wake);
                }));
            }
        }
        let started_ms = options.clock.now_ms();
        let ctx = Arc::new(Ctx {
            queue,
            sink,
            clock: options.clock,
            counters: Counters::default(),
            max_connections: options.max_connections.max(1),
            idle_timeout_ms: options.idle_timeout_ms.max(1),
            gc_caps: store::GcCaps {
                max_count: options.results_max_count,
                max_bytes: options.results_max_bytes,
            },
            store,
            started_ms,
            wake,
        });
        // Retention holds across restarts: trim anything a previous
        // life (or looser caps) left over before serving.
        ctx.gc()?;
        let accept = {
            let stop = Arc::clone(&stop);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || accept_loop(&listener, &stop, &ctx))
        };
        Ok(Self {
            addr,
            stop,
            cancel,
            ctx,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.ctx.counters.requests.load(Ordering::SeqCst)
    }

    /// Stops accepting, cancels the embedded workers (leases released,
    /// completed shards checkpointed), joins the listener and worker
    /// threads, waits briefly for in-flight connections to drain, and
    /// emits `serve_stop`.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.cancel.cancel();
        self.ctx.wake.notify();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Handler threads poll the stop flag between reads; give them a
        // few ticks to notice and finish their current response.
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while self.ctx.counters.in_flight.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        if self.ctx.sink.enabled() {
            self.ctx.sink.emit(&Event::ServeStop {
                requests: self.ctx.counters.requests.load(Ordering::SeqCst),
            });
        }
        self.ctx.sink.flush();
    }

    /// True once the token shared with the embedded workers tripped (an
    /// embedded worker saw cancellation).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

/// One embedded worker, until cancelled: take each submitted job file
/// off the [`Wake`] and claim it by name ([`QueueWorker::claim`]: the
/// same leased claim loop, without a directory pass). One pass over the
/// full listing ([`QueueWorker::sweep`]) runs as a recovery sweep — for
/// takeovers of expired leases, stale markers, retries past their
/// backoff and jobs placed in the queue by other means — after every
/// pending hint is served, and only:
///
/// * at startup;
/// * when the wait times out with no hint (the idle poll, `poll_ms`);
/// * when the hints overflowed;
/// * when a hinted drain ends with a job not done (quarantined, say);
/// * and at least once per `lease_ms / 3` under sustained load, the
///   schedule on which an expired lease can first be taken over.
///
/// A sweep never waits on a unit a live peer holds or one in backoff: it
/// leaves it to a later sweep and returns to the hints. Infrastructure
/// errors (a scan raced a submission's rename, transient FS trouble)
/// back off and retry — the service stays up.
///
/// The worker's bus gets one `worker_start` when the thread starts and
/// one `worker_stop` when it exits, not a pair per drain: an idle
/// server's poll writes nothing.
fn worker_loop(dir: &Path, options: &WorkerOptions, wake: &Wake) {
    let mut worker = QueueWorker::start(dir, options);
    serve_queue(&mut worker, options, wake);
    worker.stop(None);
}

/// The body of [`worker_loop`]: returns once cancelled.
fn serve_queue(worker: &mut QueueWorker<'_>, options: &WorkerOptions, wake: &Wake) {
    let sweep_every = Duration::from_millis((options.lease_ms / 3).max(1));
    let poll = Duration::from_millis(options.poll_ms.max(1));
    // Read before the first sweep: a job submitted during it moves the
    // generation, so the first wait returns at once.
    let mut seen = wake.generation();
    let mut sweep_due = true;
    let mut last_sweep = Instant::now();
    loop {
        if sweep_due || last_sweep.elapsed() >= sweep_every {
            // Submitted jobs first: none waits behind a pass over the
            // whole queue. A claim that ends not done needs no flag, as
            // the sweep follows at once.
            while let Some(job) = wake.take() {
                if worker.claim(&job).is_ok_and(|report| report.interrupted) {
                    return;
                }
            }
            sweep_due = false;
            last_sweep = Instant::now();
            match worker.sweep() {
                Ok(report) if report.interrupted => return,
                Ok(_) => {}
                Err(_) => std::thread::sleep(Duration::from_millis(200)),
            }
        }
        if options.run.cancel.is_cancelled() {
            return;
        }
        let until_sweep = sweep_every.saturating_sub(last_sweep.elapsed());
        match wake.next(&mut seen, poll.min(until_sweep)) {
            Woken::Job(job) => match worker.claim(&job) {
                Ok(report) if report.interrupted => return,
                Ok(report) => sweep_due = report.done < report.total,
                Err(_) => sweep_due = true,
            },
            Woken::Sweep => sweep_due = true,
            Woken::Moved => {}
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &Arc<AtomicBool>, ctx: &Arc<Ctx>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Every response leaves in one write, but a body longer
                // than one segment still spans several: send them
                // without waiting on the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                // Admission control: claim a connection slot or answer
                // a typed 503 and close. The claim happens here, in the
                // accept thread, so the cap can never be overshot by a
                // race between handler threads starting up.
                let counters = &ctx.counters;
                let limit = ctx.max_connections as u64;
                let claimed = counters
                    .in_flight
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        (n < limit).then_some(n + 1)
                    })
                    .is_ok();
                if !claimed {
                    counters.overloads.fetch_add(1, Ordering::SeqCst);
                    let connections = counters.in_flight.load(Ordering::SeqCst);
                    if ctx.sink.enabled() {
                        ctx.sink.emit(&Event::ServeOverload { connections, limit });
                    }
                    let mut doc = Json::object();
                    doc.insert(
                        "error",
                        Json::Str("service at its connection capacity".to_string()),
                    );
                    doc.insert("connections", Json::Int(connections as i64));
                    doc.insert("limit", Json::Int(limit as i64));
                    let body = doc_bytes(&doc);
                    // Written off the accept thread, with a write
                    // timeout: a refused client that never reads must
                    // not stall admission for everyone else.
                    std::thread::spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                        let _ =
                            http::write_response(&mut stream, 503, "application/json", &body, true);
                    });
                    continue;
                }
                counters.connections.fetch_add(1, Ordering::SeqCst);
                let ctx = Arc::clone(ctx);
                let stop = Arc::clone(stop);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &ctx, &stop);
                    ctx.counters.in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// What [`await_request`] observed on an idle keep-alive connection.
enum Waited {
    /// Request bytes are available to parse.
    Ready,
    /// The peer closed the connection cleanly.
    Closed,
    /// The idle timeout expired with no new request.
    IdleTimeout,
    /// The service is shutting down.
    Stopping,
}

/// Polls a keep-alive connection until the next request begins, the
/// peer hangs up, the idle timeout expires, or the service stops.
/// The socket's short read timeout only paces the poll; the idle
/// *decision* reads the injectable clock, measured from `idle_from` —
/// the caller timestamps that *before* sending the previous response,
/// so the idle window provably covers everything the client did after
/// seeing it (a timestamp taken here instead could land after a test's
/// manual clock advance and postpone the deadline forever).
fn await_request(
    stream: &TcpStream,
    ctx: &Ctx,
    stop: &AtomicBool,
    idle_from: u64,
) -> std::io::Result<Waited> {
    let mut probe = [0u8; 1];
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(Waited::Stopping);
        }
        match stream.peek(&mut probe) {
            Ok(0) => return Ok(Waited::Closed),
            Ok(_) => return Ok(Waited::Ready),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.clock.now_ms().saturating_sub(idle_from) >= ctx.idle_timeout_ms {
                    return Ok(Waited::IdleTimeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx, stop: &AtomicBool) -> std::io::Result<()> {
    let mut stream = stream;
    stream.set_nonblocking(false)?;
    // A short timeout paces the idle poll between requests; once a
    // request begins it also bounds how long a stalled sender can hold
    // the parser (the idle clock keeps running, so a half-sent request
    // is closed at the same deadline as silence).
    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
    // The connection's persistent byte buffer: raw socket reads append
    // to it and the parser drains complete requests off its front, so
    // bytes that arrived before a socket-timeout tick are never lost.
    let mut pending: Vec<u8> = Vec::new();
    let mut last_activity = ctx.clock.now_ms();
    loop {
        // Wait for the next request unless one is already buffered
        // (over-read alongside the previous one).
        if pending.is_empty() {
            match await_request(&stream, ctx, stop, last_activity)? {
                Waited::Ready => {}
                Waited::Closed | Waited::IdleTimeout | Waited::Stopping => return Ok(()),
            }
        }
        let deadline = ctx.clock.now_ms().saturating_add(ctx.idle_timeout_ms);
        let (status, content_type, body, request) =
            match read_request_paced(&mut stream, &mut pending, ctx, deadline) {
                Ok(Some(req)) => {
                    let (status, content_type, body) = route(&req, ctx);
                    (status, content_type, body, Some(req))
                }
                Ok(None) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    (400, "application/json", error_body(&e.to_string()), None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    // A request that stalled mid-transfer past the idle
                    // budget: drop the connection, nothing to answer.
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
        // Pipelining (a second request on the wire before this response
        // went out) is rejected: answer the current request, then
        // downgrade to close and drop whatever was queued behind it.
        let pipelined = !pending.is_empty();
        let close =
            pipelined || stop.load(Ordering::SeqCst) || request.as_ref().is_none_or(|r| r.close);
        if let Some(req) = &request {
            if ctx.sink.enabled() {
                ctx.sink.emit(&Event::ServeRequest {
                    method: &req.method,
                    path: &req.path,
                    status: u64::from(status),
                });
            }
        }
        ctx.counters.requests.fetch_add(1, Ordering::SeqCst);
        // Timestamp activity before the response leaves: the next idle
        // window must start no later than the client could have seen it.
        last_activity = ctx.clock.now_ms();
        http::write_response(&mut stream, status, content_type, &body, close)?;
        if close {
            return Ok(());
        }
    }
}

/// Reads one request through `pending`, the connection's persistent
/// byte buffer: raw reads append to it and [`http::parse_request`]
/// drains exactly one request off its front (bytes past the request —
/// pipelined — stay buffered). A short socket-timeout tick loses
/// nothing — whatever arrived stays in `pending` for the next attempt —
/// so a request may trickle in over many ticks until the idle deadline
/// (on the injectable clock) expires.
fn read_request_paced(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    ctx: &Ctx,
    deadline_ms: u64,
) -> std::io::Result<Option<Request>> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((request, consumed)) = http::parse_request(pending)? {
            pending.drain(..consumed);
            return Ok(Some(request));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if pending.is_empty() {
                    Ok(None)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "connection closed mid-request",
                    ))
                };
            }
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.clock.now_ms() >= deadline_ms {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "request stalled mid-transfer",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn error_body(message: &str) -> Vec<u8> {
    let mut obj = Json::object();
    obj.insert("error", Json::Str(message.to_string()));
    doc_bytes(&obj)
}

/// Renders a response document (pretty JSON + trailing newline, so curl
/// output is readable as-is).
fn doc_bytes(doc: &Json) -> Vec<u8> {
    let mut text = doc.to_string_pretty();
    text.push('\n');
    text.into_bytes()
}

type Reply = (u16, &'static str, Vec<u8>);

fn route(req: &Request, ctx: &Ctx) -> Reply {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/jobs") => post_job(req, ctx),
        ("POST", "/batches") => post_batch(req, ctx),
        ("GET", "/jobs") => list_jobs(ctx),
        ("GET", "/metrics") => metrics(ctx),
        ("GET", p) => {
            if let Some(id) = p
                .strip_prefix("/jobs/")
                .and_then(|rest| rest.strip_suffix("/events"))
            {
                job_events(id, ctx)
            } else if let Some(id) = p.strip_prefix("/jobs/") {
                job_detail(id, ctx)
            } else if let Some(hash) = p.strip_prefix("/results/") {
                job_result(hash, ctx)
            } else {
                (404, "application/json", error_body("no such endpoint"))
            }
        }
        _ => (
            405,
            "application/json",
            error_body("method not supported here"),
        ),
    }
}

/// The outcome of enqueueing one validated spec.
struct Enqueued {
    id: String,
    hash: String,
    deduped: bool,
}

/// Content-hashes `spec` and atomically publishes it into the queue
/// unless an identical spec is already queued or answered — the shared
/// submission path for `POST /jobs` and `POST /batches`.
fn enqueue_spec(ctx: &Ctx, spec: &JobSpec) -> Result<Enqueued, RuntimeError> {
    let hash = spec.content_hash();
    let id = format!("job-{hash}");
    let job = ctx.queue.join(format!("{id}.json"));
    // Identical specs collapse onto one job file (the id *is* the
    // content hash) or are already answered by the store; either way no
    // second execution is provoked.
    let deduped = job.exists() || store::lookup(&ctx.queue, &hash).is_some();
    if !deduped {
        // Publish atomically: the tmp name has no job extension, so a
        // concurrent worker scan never claims a half-written file, and
        // the sequence number keeps simultaneous submissions of the
        // same spec (handler threads are concurrent) from sharing a
        // tmp path — each writes its own file and the renames land on
        // one identical destination.
        static SUBMIT_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = ctx.queue.join(format!(
            "{id}.submit-{}-{}",
            std::process::id(),
            SUBMIT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut body = spec.to_json().to_string_pretty();
        body.push('\n');
        std::fs::write(&tmp, body)
            .and_then(|()| std::fs::rename(&tmp, &job))
            .map_err(|e| RuntimeError::io("queueing the job", e))?;
        ctx.wake.publish(job);
    }
    if deduped {
        ctx.counters.jobs_deduped.fetch_add(1, Ordering::SeqCst);
    } else {
        ctx.counters.jobs_accepted.fetch_add(1, Ordering::SeqCst);
    }
    if ctx.sink.enabled() {
        ctx.sink.emit(&Event::ServeJob {
            job: &id,
            spec: &hash,
            deduped,
        });
    }
    Ok(Enqueued { id, hash, deduped })
}

/// Renders one enqueued spec's status document (shared by the single
/// and batch submission paths).
fn enqueued_json(ctx: &Ctx, outcome: &Enqueued) -> Json {
    let job = ctx.queue.join(format!("{}.json", outcome.id));
    let mut doc = if job.exists() {
        state::status_json(&job)
    } else {
        // Deduped against the store after the job file was pruned.
        let mut doc = Json::object();
        doc.insert("job", Json::Str(outcome.id.clone()));
        doc.insert("spec_hash", Json::Str(outcome.hash.clone()));
        doc.insert("status", Json::Str("done".to_string()));
        doc
    };
    doc.insert("deduped", Json::Bool(outcome.deduped));
    doc
}

fn post_job(req: &Request, ctx: &Ctx) -> Reply {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (400, "application/json", error_body("body is not UTF-8"));
    };
    let spec = match JobSpec::from_json_text(text) {
        Ok(spec) => spec,
        Err(e) => return (400, "application/json", error_body(&e.to_string())),
    };
    if let Err(e) = spec.validate() {
        return (400, "application/json", error_body(&e.to_string()));
    }
    let outcome = match enqueue_spec(ctx, &spec) {
        Ok(outcome) => outcome,
        Err(e) => return (500, "application/json", error_body(&e.to_string())),
    };
    let doc = enqueued_json(ctx, &outcome);
    let status = if outcome.deduped { 200 } else { 201 };
    (status, "application/json", doc_bytes(&doc))
}

/// `POST /batches`: a JSON array of job specs, validated as a unit —
/// either every element is a valid spec and all of them are enqueued
/// (with per-item dedup verdicts), or nothing is enqueued and the `400`
/// response names each failing index. One batch drives a whole sweep
/// idempotently: re-POSTing it reports every item `deduped`.
fn post_batch(req: &Request, ctx: &Ctx) -> Reply {
    ctx.counters.batches.fetch_add(1, Ordering::SeqCst);
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (400, "application/json", error_body("body is not UTF-8"));
    };
    let value = match parse(text) {
        Ok(value) => value,
        Err(e) => return (400, "application/json", error_body(&e.to_string())),
    };
    let Some(items) = value.as_array() else {
        return (
            400,
            "application/json",
            error_body("a batch is a JSON array of job specs"),
        );
    };
    if items.is_empty() {
        return (400, "application/json", error_body("empty batch"));
    }
    // Validate everything before enqueueing anything: a batch with one
    // bad spec enqueues zero jobs, so a retried (fixed) batch never
    // half-duplicates its predecessor.
    let mut specs = Vec::with_capacity(items.len());
    let mut errors = Vec::new();
    for (index, item) in items.iter().enumerate() {
        match JobSpec::from_json(item).and_then(|spec| spec.validate().map(|_| spec)) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                let mut err = Json::object();
                err.insert("index", Json::Int(index as i64));
                err.insert("error", Json::Str(e.to_string()));
                errors.push(err);
            }
        }
    }
    if !errors.is_empty() {
        let mut doc = Json::object();
        doc.insert(
            "error",
            Json::Str(format!(
                "{} of {} specs failed validation; nothing was enqueued",
                errors.len(),
                items.len()
            )),
        );
        doc.insert("invalid", Json::Arr(errors));
        return (400, "application/json", doc_bytes(&doc));
    }
    let mut rendered = Vec::with_capacity(specs.len());
    let mut accepted = 0u64;
    let mut deduped = 0u64;
    for spec in &specs {
        let outcome = match enqueue_spec(ctx, spec) {
            Ok(outcome) => outcome,
            Err(e) => return (500, "application/json", error_body(&e.to_string())),
        };
        if outcome.deduped {
            deduped += 1;
        } else {
            accepted += 1;
        }
        rendered.push(enqueued_json(ctx, &outcome));
    }
    if ctx.sink.enabled() {
        ctx.sink.emit(&Event::ServeBatch {
            jobs: specs.len() as u64,
            accepted,
            deduped,
        });
    }
    let mut doc = Json::object();
    doc.insert("jobs", Json::Int(specs.len() as i64));
    doc.insert("accepted", Json::Int(accepted as i64));
    doc.insert("deduped", Json::Int(deduped as i64));
    doc.insert("items", Json::Arr(rendered));
    let status = if accepted > 0 { 201 } else { 200 };
    (status, "application/json", doc_bytes(&doc))
}

fn list_jobs(ctx: &Ctx) -> Reply {
    let files = match queue_files(&ctx.queue) {
        Ok(files) => files,
        Err(e) => return (500, "application/json", error_body(&e.to_string())),
    };
    let jobs = files.iter().map(|f| state::status_json(f)).collect();
    let mut doc = Json::object();
    doc.insert("jobs", Json::Arr(jobs));
    (200, "application/json", doc_bytes(&doc))
}

/// `GET /metrics`: the service's `od-serve-metrics-v1` document —
/// request/connection/overload counters, submission and dedup totals,
/// and the results-store footprint from the service's [`store::Ledger`]
/// with GC totals.
fn metrics(ctx: &Ctx) -> Reply {
    let c = &ctx.counters;
    let load = |counter: &AtomicU64| Json::Int(counter.load(Ordering::SeqCst) as i64);
    let mut doc = Json::object();
    doc.insert("schema", Json::Str("od-serve-metrics-v1".to_string()));
    doc.insert("requests", load(&c.requests));
    doc.insert("connections", load(&c.connections));
    doc.insert("in_flight", load(&c.in_flight));
    doc.insert("max_connections", Json::Int(ctx.max_connections as i64));
    doc.insert("overloads", load(&c.overloads));

    let mut jobs = Json::object();
    jobs.insert("accepted", load(&c.jobs_accepted));
    jobs.insert("deduped", load(&c.jobs_deduped));
    jobs.insert("batches", load(&c.batches));
    doc.insert("jobs", jobs);

    let mut results = Json::object();
    results.insert("hits", load(&c.results_hits));
    results.insert("misses", load(&c.results_misses));
    doc.insert("results", results);

    let mut store_doc = Json::object();
    let footprint = ctx.store.footprint();
    store_doc.insert("entries", Json::Int(footprint.entries as i64));
    store_doc.insert("bytes", Json::Int(footprint.bytes as i64));
    store_doc.insert(
        "max_count",
        ctx.gc_caps
            .max_count
            .map_or(Json::Null, |n| Json::Int(n as i64)),
    );
    store_doc.insert(
        "max_bytes",
        ctx.gc_caps
            .max_bytes
            .map_or(Json::Null, |n| Json::Int(n as i64)),
    );
    store_doc.insert("gc_passes", load(&c.gc_passes));
    store_doc.insert("gc_evicted", load(&c.gc_evicted));
    store_doc.insert("gc_bytes_freed", load(&c.gc_bytes_freed));
    doc.insert("store", store_doc);

    let uptime_ms = ctx.clock.now_ms().saturating_sub(ctx.started_ms);
    doc.insert("uptime_ms", Json::Int(uptime_ms as i64));
    let requests = c.requests.load(Ordering::SeqCst);
    let rate = if uptime_ms > 0 {
        requests as f64 * 1000.0 / uptime_ms as f64
    } else {
        0.0
    };
    doc.insert("requests_per_sec", Json::Float(rate));
    (200, "application/json", doc_bytes(&doc))
}

fn job_detail(id: &str, ctx: &Ctx) -> Reply {
    match state::job_path(&ctx.queue, id) {
        Some(job) => (
            200,
            "application/json",
            doc_bytes(&state::status_json(&job)),
        ),
        None => (
            404,
            "application/json",
            error_body(&format!("no job '{id}' in the queue")),
        ),
    }
}

fn job_result(hash: &str, ctx: &Ctx) -> Reply {
    // A cache hit serves straight from the store — it cannot grow it,
    // so only a fresh publish triggers the retention pass. Retention is
    // best-effort on the serving path: the bytes are answered even when
    // the trim fails (startup GC stays loud — see [`Server::start`]).
    let reply = if let Some(bytes) = store::lookup(&ctx.queue, hash) {
        (200, "application/json", bytes)
    } else {
        match ctx.store.get_or_publish(&ctx.queue, hash) {
            Ok(Some(bytes)) => {
                if let Err(e) = ctx.gc() {
                    eprintln!("od-serve: results-store GC failed: {e}");
                }
                (200, "application/json", bytes)
            }
            Ok(None) => (
                404,
                "application/json",
                error_body(&format!("no result for spec {hash}")),
            ),
            Err(e) => (500, "application/json", error_body(&e.to_string())),
        }
    };
    if reply.0 == 200 {
        ctx.counters.results_hits.fetch_add(1, Ordering::SeqCst);
    } else {
        ctx.counters.results_misses.fetch_add(1, Ordering::SeqCst);
    }
    if ctx.sink.enabled() {
        ctx.sink.emit(&Event::ServeResult {
            spec: hash,
            hit: reply.0 == 200,
        });
    }
    reply
}

fn job_events(id: &str, ctx: &Ctx) -> Reply {
    let Some(job) = state::job_path(&ctx.queue, id) else {
        return (
            404,
            "application/json",
            error_body(&format!("no job '{id}' in the queue")),
        );
    };
    match events_for_job(&ctx.queue, &job) {
        Ok(lines) => {
            let mut body = lines.join("\n");
            if !body.is_empty() {
                body.push('\n');
            }
            (200, "application/x-ndjson", body.into_bytes())
        }
        Err(e) => (500, "application/json", error_body(&e.to_string())),
    }
}

/// Collects the telemetry lines belonging to one job from the embedded
/// workers' buses (`<queue>/.serve/worker-*.jsonl`). A worker thread
/// emits events for exactly one job between claiming it and finishing
/// it, so each bus decomposes into per-job windows delimited by
/// `queue_claim` ... `queue_done`/`queue_release`/`queue_quarantine`
/// lines naming the job; everything inside a window (per-shard
/// progress, trials, retries) is the job's. A `worker_stop` or
/// `worker_start` also ends a window (a worker that exited or
/// restarted holds no claim) and belongs to no job.
fn events_for_job(queue: &Path, job: &Path) -> std::io::Result<Vec<String>> {
    let bus_dir = queue.join(".serve");
    let mut buses = Vec::new();
    match std::fs::read_dir(&bus_dir) {
        Ok(entries) => {
            for entry in entries {
                let path = entry?.path();
                if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                    buses.push(path);
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    buses.sort();
    let job_str = job.display().to_string();
    let mut out = Vec::new();
    for bus in buses {
        let text = std::fs::read_to_string(&bus)?;
        let mut in_window = false;
        for line in text.lines() {
            let Ok(value) = parse(line) else { continue };
            let kind = value.get("kind").and_then(Json::as_str).unwrap_or("");
            if kind == "queue_claim" {
                in_window = value.get("job").and_then(Json::as_str) == Some(job_str.as_str());
                if in_window {
                    out.push(line.to_string());
                }
                continue;
            }
            if matches!(kind, "worker_start" | "worker_stop") {
                // A worker that exited or restarted holds no claim.
                in_window = false;
                continue;
            }
            if in_window {
                out.push(line.to_string());
                if matches!(kind, "queue_done" | "queue_release" | "queue_quarantine") {
                    in_window = false;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: Duration = Duration::ZERO;

    #[test]
    fn hints_are_handed_out_oldest_first_one_per_wake() {
        let wake = Wake::default();
        let mut seen = wake.generation();
        wake.publish(PathBuf::from("q/a.json"));
        wake.publish(PathBuf::from("q/b.json"));
        assert_eq!(
            wake.next(&mut seen, NOW),
            Woken::Job(PathBuf::from("q/a.json"))
        );
        assert_eq!(
            wake.next(&mut seen, NOW),
            Woken::Job(PathBuf::from("q/b.json"))
        );
        // Nothing left: the wait times out, which asks for the idle
        // sweep.
        assert_eq!(wake.next(&mut seen, NOW), Woken::Sweep);
        // A bare notify (shutdown) wakes without a hint.
        wake.notify();
        assert_eq!(wake.next(&mut seen, Duration::from_secs(60)), Woken::Moved);
    }

    #[test]
    fn overflowing_the_hint_cap_sets_the_sweep_flag() {
        let wake = Wake::default();
        let mut seen = wake.generation();
        for i in 0..HINT_CAP {
            wake.publish(PathBuf::from(format!("q/job-{i}.json")));
        }
        assert!(!wake.lock().overflowed, "the cap itself still fits");
        wake.publish(PathBuf::from("q/one-too-many.json"));
        {
            let state = wake.lock();
            assert!(state.overflowed);
            assert_eq!(state.hints.len(), HINT_CAP);
            assert_eq!(state.generation, HINT_CAP as u64 + 1);
        }
        // One sweep covers every published job, so the hints go with
        // the flag.
        assert_eq!(wake.next(&mut seen, Duration::from_secs(60)), Woken::Sweep);
        let state = wake.lock();
        assert!(!state.overflowed && state.hints.is_empty());
    }

    #[test]
    fn a_claim_window_ends_at_the_worker_brackets() {
        let queue = std::env::temp_dir().join(format!("od_serve_window_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&queue);
        std::fs::create_dir_all(queue.join(".serve")).unwrap();
        let (a, b) = (queue.join("a.json"), queue.join("b.json"));
        let line = |kind: &str, job: &Path| {
            format!("{{\"kind\":\"{kind}\",\"job\":\"{}\"}}", job.display())
        };
        let bus = [
            "{\"kind\":\"worker_start\",\"worker\":\"w\"}".to_string(),
            line("queue_claim", &a),
            line("shard_done", &a),
            // The worker exits mid-job, with no release.
            "{\"kind\":\"worker_stop\",\"worker\":\"w\"}".to_string(),
            "{\"kind\":\"worker_start\",\"worker\":\"w\"}".to_string(),
            line("shard_done", &b),
            line("queue_claim", &b),
            line("queue_done", &b),
            "{\"kind\":\"worker_stop\",\"worker\":\"w\"}".to_string(),
        ];
        std::fs::write(queue.join(".serve/worker-0.jsonl"), bus.join("\n")).unwrap();
        assert_eq!(events_for_job(&queue, &a).unwrap(), bus[1..3]);
        assert_eq!(events_for_job(&queue, &b).unwrap(), bus[6..8]);
        let _ = std::fs::remove_dir_all(&queue);
    }

    #[test]
    fn a_hint_published_while_the_worker_is_busy_is_not_lost() {
        let wake = Arc::new(Wake::default());
        let mut seen = wake.generation();
        let publisher = {
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || wake.publish(PathBuf::from("q/late.json")))
        };
        publisher.join().unwrap();
        // The worker comes back to wait only now; the hint is waiting.
        assert_eq!(
            wake.next(&mut seen, Duration::from_secs(60)),
            Woken::Job(PathBuf::from("q/late.json"))
        );
    }
}
