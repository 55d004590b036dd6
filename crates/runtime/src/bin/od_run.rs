//! `od-run` — execute simulation job files through the `od-runtime`
//! sharded executor.
//!
//! ```text
//! od-run <job.json|job.toml|directory> [options]
//!
//! Options:
//!   --checkpoint <path>    checkpoint file (default: <job file>.checkpoint.json)
//!   --no-checkpoint        run without persistence (no resume)
//!   --fresh                delete an existing checkpoint before running
//!   --max-trials <n>       override the spec's trial count (smoke runs;
//!                          implies --no-checkpoint unless --checkpoint is given)
//!   --progress             live per-shard progress on stderr
//!   --progress-every <n>   progress cadence in trials (default: the spec's
//!                          telemetry.progress_every, else shard_size / 4)
//!   --telemetry-out <p>    write telemetry events to a JSONL file (truncated
//!                          first, so the stream starts at seq 0)
//!   --metrics-out <p>      write the run's od-run-metrics-v1 JSON here
//!                          (single job only)
//!   --queue-worker         drain the directory as a leased worker (what a
//!                          directory target does anyway); allows the
//!                          three worker options below
//!   --worker-id <id>       this worker's id (default: worker-<pid>)
//!   --lease-secs <n>       lease duration; a worker silent this long
//!                          loses its claims to takeover (default: 30)
//!   --max-retries <n>      attempts before a failing job is
//!                          quarantined to <job>.failed.json (default: 3)
//!   --orchestrate <n>      run the job file across <n> supervised child
//!                          worker processes (shard-range fan-out)
//!   --orch-ranges <n>      shard ranges to split the job into
//!                          (default: 4 x workers, clamped to shards)
//!   --orch-child           internal: drain an orchestrated job's range
//!                          pool as one worker process
//!   --quiet                print only the final summary
//!   --help                 this text
//! ```
//!
//! A directory argument drains every `*.json`/`*.toml` job in it (sorted
//! by name) as a crash-safe leased worker, each job with its own sibling
//! checkpoint. Checkpoints are written after every completed shard, so
//! a killed run — `kill -9` included — resumes from the last finished
//! shard when re-invoked. Any number of processes can drain one
//! directory concurrently (or across restarts): each job is claimed
//! through an atomic `<job>.lease.json`, completed exactly once into
//! `<job>.done.json` (a re-run skips it), retried with deterministic
//! backoff on failure, and quarantined to `<job>.failed.json` after the
//! retry budget. `--fresh` on a directory resets all of those sidecars.
//!
//! `--orchestrate <n>` fans one job *file* out across `n` supervised
//! `od-run --orch-child` processes: the supervisor plans contiguous
//! shard ranges into `<job file>.orch/`, children drain the ranges with
//! the same leased-work loop a directory drain runs, a crashed child's
//! range is taken over at once and resumed from its checkpoint by a
//! respawned child (quarantining a range after `--max-retries` charged
//! attempts), a stalled child loses its ranges when their leases expire,
//! and the per-range checkpoints merge into a job checkpoint and summary
//! **byte-identical** to a single-process run. Re-running
//! `--orchestrate` after any crash — children or the supervisor itself —
//! resumes from the persisted control plane.
//!
//! On SIGINT/SIGTERM every mode shuts down gracefully: leases are
//! released, completed shards stay checkpointed, and the process exits
//! 1 without leaving stale control-plane sidecars behind.
//!
//! Telemetry is observation only: any combination of these flags leaves
//! checkpoint and summary bytes identical to a run without them.
//!
//! Exit codes: 0 success, 1 job failed or interrupted, 2 usage error,
//! 3 directory queue had no job files, 4 drained but quarantined
//! jobs (or shard ranges, under orchestration) are present. A failing
//! job in a directory is retried and then quarantined, so it gives 4.

use od_runtime::{
    default_checkpoint_path, load_job_file, orchestrate, run_job_with_metrics, run_orch_child,
    run_queue_worker, CancelToken, JobReport, JobSpec, OrchOptions, RunOptions, RuntimeError,
    WorkerOptions,
};
use od_telemetry::{FanoutSink, JsonlSink, NullSink, ProgressSink, TelemetrySink};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// SIGINT/SIGTERM turn into cooperative cancellation: the handler only
/// flips an atomic flag; a watcher thread forwards it to the run's
/// [`CancelToken`], so workers release leases and flush checkpoints on
/// the way out instead of dying mid-write.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the flag-setting handler for SIGINT and SIGTERM.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// True once either signal arrived.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Wires signal delivery (where supported) to `cancel`.
fn install_shutdown_watcher(cancel: &CancelToken) {
    #[cfg(unix)]
    {
        signals::install();
        let cancel = cancel.clone();
        std::thread::spawn(move || loop {
            if signals::requested() {
                cancel.cancel();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
    #[cfg(not(unix))]
    {
        let _ = cancel;
    }
}

struct Args {
    target: PathBuf,
    checkpoint: Option<PathBuf>,
    no_checkpoint: bool,
    fresh: bool,
    max_trials: Option<u64>,
    progress: bool,
    progress_every: Option<u64>,
    telemetry_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    queue_worker: bool,
    worker_id: Option<String>,
    lease_secs: Option<u64>,
    max_retries: Option<u64>,
    orchestrate: Option<u64>,
    orch_ranges: Option<u64>,
    orch_child: bool,
    quiet: bool,
}

const USAGE: &str = "usage: od-run <job.json|job.toml|directory> \
[--checkpoint <path>] [--no-checkpoint] [--fresh] [--max-trials <n>] \
[--progress] [--progress-every <n>] [--telemetry-out <path>] \
[--metrics-out <path>] [--queue-worker] [--worker-id <id>] \
[--lease-secs <n>] [--max-retries <n>] [--orchestrate <n>] \
[--orch-ranges <n>] [--orch-child] [--quiet]";

fn parse_args() -> Result<Args, String> {
    let mut target = None;
    let mut checkpoint = None;
    let mut no_checkpoint = false;
    let mut fresh = false;
    let mut max_trials = None;
    let mut progress = false;
    let mut progress_every = None;
    let mut telemetry_out = None;
    let mut metrics_out = None;
    let mut queue_worker = false;
    let mut worker_id = None;
    let mut lease_secs = None;
    let mut max_retries = None;
    let mut orchestrate = None;
    let mut orch_ranges = None;
    let mut orch_child = false;
    let mut quiet = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--checkpoint" => {
                let value = argv.next().ok_or("--checkpoint needs a path")?;
                checkpoint = Some(PathBuf::from(value));
            }
            "--no-checkpoint" => no_checkpoint = true,
            "--fresh" => fresh = true,
            "--max-trials" => {
                let value = argv.next().ok_or("--max-trials needs a number")?;
                max_trials = Some(value.parse().map_err(|_| "--max-trials needs a number")?);
            }
            "--progress" => progress = true,
            "--progress-every" => {
                let value = argv.next().ok_or("--progress-every needs a number")?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| "--progress-every needs a number")?;
                if n == 0 {
                    return Err("--progress-every must be at least 1".to_string());
                }
                progress_every = Some(n);
            }
            "--telemetry-out" => {
                let value = argv.next().ok_or("--telemetry-out needs a path")?;
                telemetry_out = Some(PathBuf::from(value));
            }
            "--metrics-out" => {
                let value = argv.next().ok_or("--metrics-out needs a path")?;
                metrics_out = Some(PathBuf::from(value));
            }
            "--queue-worker" => queue_worker = true,
            "--worker-id" => {
                let value = argv.next().ok_or("--worker-id needs an id")?;
                if value.is_empty() {
                    return Err("--worker-id must not be empty".to_string());
                }
                worker_id = Some(value);
            }
            "--lease-secs" => {
                let value = argv.next().ok_or("--lease-secs needs a number")?;
                let n: u64 = value.parse().map_err(|_| "--lease-secs needs a number")?;
                if n == 0 {
                    return Err("--lease-secs must be at least 1".to_string());
                }
                lease_secs = Some(n);
            }
            "--max-retries" => {
                let value = argv.next().ok_or("--max-retries needs a number")?;
                let n: u64 = value.parse().map_err(|_| "--max-retries needs a number")?;
                if n == 0 {
                    return Err("--max-retries must be at least 1".to_string());
                }
                max_retries = Some(n);
            }
            "--orchestrate" => {
                let value = argv.next().ok_or("--orchestrate needs a worker count")?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| "--orchestrate needs a worker count")?;
                if n == 0 {
                    return Err("--orchestrate needs at least 1 worker".to_string());
                }
                orchestrate = Some(n);
            }
            "--orch-ranges" => {
                let value = argv.next().ok_or("--orch-ranges needs a number")?;
                let n: u64 = value.parse().map_err(|_| "--orch-ranges needs a number")?;
                if n == 0 {
                    return Err("--orch-ranges must be at least 1".to_string());
                }
                orch_ranges = Some(n);
            }
            "--orch-child" => orch_child = true,
            "--quiet" | "-q" => quiet = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'\n{USAGE}"));
            }
            other => {
                if target.replace(PathBuf::from(other)).is_some() {
                    return Err(format!("more than one target given\n{USAGE}"));
                }
            }
        }
    }
    let modes =
        usize::from(queue_worker) + usize::from(orchestrate.is_some()) + usize::from(orch_child);
    if modes > 1 {
        return Err(format!(
            "--queue-worker, --orchestrate, and --orch-child are mutually exclusive\n{USAGE}"
        ));
    }
    if worker_id.is_some() && !(queue_worker || orch_child) {
        return Err(format!(
            "--worker-id requires --queue-worker or --orch-child\n{USAGE}"
        ));
    }
    if (lease_secs.is_some() || max_retries.is_some()) && modes == 0 {
        return Err(format!(
            "--lease-secs/--max-retries require --queue-worker, --orchestrate, \
             or --orch-child\n{USAGE}"
        ));
    }
    if orch_ranges.is_some() && orchestrate.is_none() {
        return Err(format!("--orch-ranges requires --orchestrate\n{USAGE}"));
    }
    Ok(Args {
        target: target.ok_or(USAGE)?,
        checkpoint,
        no_checkpoint,
        fresh,
        max_trials,
        progress,
        progress_every,
        telemetry_out,
        metrics_out,
        queue_worker,
        worker_id,
        lease_secs,
        max_retries,
        orchestrate,
        orch_ranges,
        orch_child,
        quiet,
    })
}

/// Assembles the telemetry sink stack the flags ask for: nothing →
/// [`NullSink`], one sink → that sink, both → a [`FanoutSink`].
fn build_sink(args: &Args) -> Result<Arc<dyn TelemetrySink>, RuntimeError> {
    let mut sinks: Vec<Arc<dyn TelemetrySink>> = Vec::new();
    if let Some(path) = &args.telemetry_out {
        let sink = JsonlSink::create(path).map_err(|e| {
            RuntimeError::io(&format!("creating telemetry file {}", path.display()), e)
        })?;
        sinks.push(Arc::new(sink));
    }
    if args.progress {
        sinks.push(Arc::new(ProgressSink::new()));
    }
    Ok(match sinks.len() {
        0 => Arc::new(NullSink),
        1 => sinks.pop().expect("len checked"),
        _ => Arc::new(FanoutSink::new(sinks)),
    })
}

fn write_metrics(path: &PathBuf, metrics: &od_runtime::JobMetrics) -> Result<(), RuntimeError> {
    let text = format!("{}\n", metrics.to_json().to_string_compact());
    std::fs::write(path, text)
        .map_err(|e| RuntimeError::io(&format!("writing metrics file {}", path.display()), e))
}

fn print_report(name: &str, report: &JobReport, quiet: bool) {
    if !quiet {
        println!(
            "shards: {}/{} completed ({} resumed from checkpoint){}",
            report.completed_shards,
            report.total_shards,
            report.resumed_shards,
            if report.interrupted {
                ", interrupted"
            } else {
                ""
            }
        );
    }
    println!("== {name} ==");
    print!("{}", report.summary.render());
}

fn run_single(args: &Args, cancel: &CancelToken) -> Result<bool, RuntimeError> {
    let mut spec: JobSpec = load_job_file(&args.target)?;
    let mut smoke_override = false;
    if let Some(trials) = args.max_trials {
        smoke_override = trials < spec.trials;
        spec.trials = trials.min(spec.trials);
    }
    // A --max-trials smoke run hashes differently from the real job; if it
    // wrote the default sibling checkpoint it would make the later full
    // run fail with a mismatch. Smoke runs therefore skip persistence
    // unless an explicit --checkpoint says otherwise.
    let checkpoint_path = if args.no_checkpoint || (smoke_override && args.checkpoint.is_none()) {
        None
    } else {
        Some(
            args.checkpoint
                .clone()
                .unwrap_or_else(|| default_checkpoint_path(&args.target)),
        )
    };
    if args.fresh {
        if let Some(path) = &checkpoint_path {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(RuntimeError::io("removing checkpoint", e)),
            }
        }
    }
    if !args.quiet {
        println!(
            "job '{}': protocol {}, {} trials in {} shards (spec {})",
            spec.name,
            spec.protocol,
            spec.trials,
            spec.shard_count(),
            spec.content_hash()
        );
        if let Some(path) = &checkpoint_path {
            println!("checkpoint: {}", path.display());
        }
    }
    let options = RunOptions {
        checkpoint_path,
        cancel: cancel.clone(),
        sink: build_sink(args)?,
        progress_every: args.progress_every,
        ..RunOptions::default()
    };
    let (report, metrics) = run_job_with_metrics(&spec, &options)?;
    if let Some(path) = &args.metrics_out {
        write_metrics(path, &metrics)?;
    }
    print_report(&spec.name, &report, args.quiet);
    Ok(!report.interrupted)
}

/// What a directory drain amounted to.
enum WorkerOutcome {
    /// Every job is done.
    Drained,
    /// The queue drained, but quarantined jobs are present (exit 4).
    Quarantined,
    /// Cancelled or stalled before the queue drained.
    Incomplete,
    /// No job files in the directory.
    Empty,
}

fn run_worker(args: &Args, cancel: &CancelToken) -> Result<WorkerOutcome, RuntimeError> {
    // Queue jobs always use per-job sibling checkpoints: a single
    // --checkpoint path would be ambiguous across jobs, and skipping
    // persistence entirely would silently drop resumability — reject
    // both instead of ignoring them. Metrics are per-job documents, so
    // one --metrics-out path is ambiguous the same way.
    if args.checkpoint.is_some() || args.no_checkpoint {
        return Err(RuntimeError::Spec(
            "--checkpoint/--no-checkpoint do not apply to directory queues \
             (each job uses its sibling <job file>.checkpoint.json)"
                .to_string(),
        ));
    }
    if args.metrics_out.is_some() {
        return Err(RuntimeError::Spec(
            "--metrics-out does not apply to directory queues \
             (metrics are a per-job document; run jobs individually)"
                .to_string(),
        ));
    }
    if args.fresh {
        // A fresh drain resets the queue's whole control plane:
        // checkpoints, leases, retry state, done markers, quarantine.
        for job in od_runtime::queue::queue_files(&args.target)? {
            for path in [
                default_checkpoint_path(&job),
                od_runtime::lease::lease_path(&job),
                od_runtime::lease::attempts_path(&job),
                od_runtime::lease::done_path(&job),
                od_runtime::lease::quarantine_path(&job),
            ] {
                match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => {
                        return Err(RuntimeError::io(&format!("removing {}", path.display()), e))
                    }
                }
            }
        }
    }
    let options = WorkerOptions {
        worker_id: args
            .worker_id
            .clone()
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        lease_ms: args.lease_secs.unwrap_or(30).saturating_mul(1_000),
        max_retries: args.max_retries.unwrap_or(3),
        run: RunOptions {
            cancel: cancel.clone(),
            sink: build_sink(args)?,
            progress_every: args.progress_every,
            ..RunOptions::default()
        },
        ..WorkerOptions::default()
    };
    if !args.quiet {
        println!(
            "queue worker '{}' on {} (lease {}s, max {} attempts)",
            options.worker_id,
            args.target.display(),
            options.lease_ms / 1_000,
            options.max_retries
        );
    }
    let report = run_queue_worker(&args.target, &options)?;
    if report.total == 0 {
        eprintln!("no job files in {}", args.target.display());
        return Ok(WorkerOutcome::Empty);
    }
    for entry in &report.entries {
        match &entry.result {
            Ok(job_report) => {
                let name = entry.job_name.as_deref().unwrap_or("unnamed");
                print_report(name, job_report, args.quiet);
            }
            Err(e) => eprintln!("error: {e}"),
        }
        if !args.quiet {
            println!();
        }
    }
    println!(
        "queue: {} done, {} quarantined, {} total{}",
        report.done,
        report.quarantined,
        report.total,
        if report.interrupted {
            " (interrupted)"
        } else {
            ""
        }
    );
    Ok(if report.quarantined > 0 {
        WorkerOutcome::Quarantined
    } else if report.interrupted || report.done < report.total {
        WorkerOutcome::Incomplete
    } else {
        WorkerOutcome::Drained
    })
}

/// What an orchestrated run amounted to, mapped like worker outcomes:
/// quarantined ranges give exit 4, an interrupted supervisor exit 1.
enum OrchOutcome {
    Complete,
    Quarantined,
    Interrupted,
}

fn run_orchestrate(
    args: &Args,
    workers: u64,
    cancel: &CancelToken,
) -> Result<OrchOutcome, RuntimeError> {
    if args.no_checkpoint || args.max_trials.is_some() {
        return Err(RuntimeError::Spec(
            "--no-checkpoint/--max-trials do not apply to --orchestrate \
             (orchestration is built on per-range checkpoints)"
                .to_string(),
        ));
    }
    if args.metrics_out.is_some() {
        return Err(RuntimeError::Spec(
            "--metrics-out does not apply to --orchestrate \
             (metrics are a single-process document)"
                .to_string(),
        ));
    }
    let checkpoint_path = args
        .checkpoint
        .clone()
        .unwrap_or_else(|| default_checkpoint_path(&args.target));
    if args.fresh {
        match std::fs::remove_file(&checkpoint_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(RuntimeError::io("removing checkpoint", e)),
        }
        let dir = od_runtime::orch_dir(&args.target);
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(RuntimeError::io(&format!("removing {}", dir.display()), e)),
        }
    }
    let options = OrchOptions {
        workers,
        ranges: args.orch_ranges,
        lease_ms: args.lease_secs.unwrap_or(30).saturating_mul(1_000),
        max_retries: args.max_retries.unwrap_or(3),
        run: RunOptions {
            checkpoint_path: Some(checkpoint_path),
            cancel: cancel.clone(),
            sink: build_sink(args)?,
            progress_every: args.progress_every,
            ..RunOptions::default()
        },
        ..OrchOptions::default()
    };
    if !args.quiet {
        println!(
            "orchestrating {} across {} workers (lease {}s, max {} attempts per range)",
            args.target.display(),
            workers,
            options.lease_ms / 1_000,
            options.max_retries
        );
    }
    let report = orchestrate(&args.target, &options)?;
    if report.interrupted {
        println!("orchestration interrupted before the range pool drained");
        return Ok(OrchOutcome::Interrupted);
    }
    if !args.quiet {
        println!(
            "orchestration: {}/{} shards across {} ranges, {} quarantined, {} respawns",
            report.completed_shards,
            report.total_shards,
            report.ranges,
            report.quarantined_ranges,
            report.respawns
        );
    }
    println!("== orchestrated ==");
    print!("{}", report.summary.render());
    Ok(if report.quarantined_ranges > 0 {
        OrchOutcome::Quarantined
    } else {
        OrchOutcome::Complete
    })
}

fn run_orch_child_mode(args: &Args, cancel: &CancelToken) -> Result<ExitCode, RuntimeError> {
    let options = WorkerOptions {
        worker_id: args
            .worker_id
            .clone()
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        lease_ms: args.lease_secs.unwrap_or(30).saturating_mul(1_000),
        max_retries: args.max_retries.unwrap_or(3),
        run: RunOptions {
            cancel: cancel.clone(),
            sink: build_sink(args)?,
            progress_every: args.progress_every,
            ..RunOptions::default()
        },
        ..WorkerOptions::default()
    };
    let report = run_orch_child(&args.target, &options)?;
    if !args.quiet {
        println!(
            "orch child: executed {} range attempts, {}/{} done, {} quarantined{}",
            report.entries.len(),
            report.done,
            report.total,
            report.quarantined,
            if report.interrupted {
                " (interrupted)"
            } else {
                ""
            }
        );
    }
    Ok(if report.quarantined > 0 {
        ExitCode::from(4)
    } else if report.interrupted || report.done < report.total {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let cancel = CancelToken::new();
    install_shutdown_watcher(&cancel);
    if let Some(workers) = args.orchestrate {
        if args.target.is_dir() {
            eprintln!(
                "od-run: --orchestrate needs a job file target, got directory {}",
                args.target.display()
            );
            return ExitCode::from(2);
        }
        match run_orchestrate(&args, workers, &cancel) {
            Ok(OrchOutcome::Complete) => ExitCode::SUCCESS,
            Ok(OrchOutcome::Interrupted) => ExitCode::FAILURE,
            Ok(OrchOutcome::Quarantined) => ExitCode::from(4),
            Err(e) => {
                eprintln!("od-run: {e}");
                ExitCode::FAILURE
            }
        }
    } else if args.orch_child {
        if args.target.is_dir() {
            eprintln!(
                "od-run: --orch-child needs a job file target, got directory {}",
                args.target.display()
            );
            return ExitCode::from(2);
        }
        match run_orch_child_mode(&args, &cancel) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("od-run: {e}");
                ExitCode::FAILURE
            }
        }
    } else if args.queue_worker || args.target.is_dir() {
        if !args.target.is_dir() {
            eprintln!(
                "od-run: --queue-worker needs a directory target, got {}",
                args.target.display()
            );
            return ExitCode::from(2);
        }
        match run_worker(&args, &cancel) {
            Ok(WorkerOutcome::Drained) => ExitCode::SUCCESS,
            Ok(WorkerOutcome::Incomplete) => ExitCode::FAILURE,
            Ok(WorkerOutcome::Empty) => ExitCode::from(3),
            Ok(WorkerOutcome::Quarantined) => ExitCode::from(4),
            Err(e) => {
                eprintln!("od-run: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match run_single(&args, &cancel) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("od-run: {e}");
                ExitCode::FAILURE
            }
        }
    }
}
