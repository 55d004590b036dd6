//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <pop-paper|graph-sparse|serve-backlog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the entry points users call, checks its
//! outputs, prints every metric by name with its unit, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run replays the workload's inputs against each layer
//! and reports the per-layer ones, writing its spans to a trace file.
//! Exits non-zero when any output was wrong or a metric is missing.

mod catalogue;
mod host;
mod jobs;
mod measure;
mod micro;
mod serve;
mod specs;
mod stats;
mod trace;

use measure::Outcome;
use od_runtime::json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Set-ups timed per serve-backlog run (each seeds a whole backlog).
const SERVE_SETUP_REPS: usize = 3;
/// Serve jobs a run completes at least, so p90 has ten samples beyond it.
const MIN_SERVE_JOBS: usize = 100;
/// Hard stop for the serve loop, whatever `--seconds` asks.
const MAX_SERVE_LOOP_S: f64 = 60.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalogue::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where runs keep their scratch files and trace files: inside the build
/// directory, which the checkout already ignores.
fn work_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-work")
}

/// Times `reps` set-ups, keeping the last one's product.
fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut(bool) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut product = None;
    for i in 0..reps {
        let t = Instant::now();
        let made = setup(i + 1 == reps)?;
        times.push(t.elapsed().as_secs_f64());
        product = Some(made);
    }
    Ok((
        product.expect("at least one set-up"),
        measure::median(&times),
    ))
}

/// pop-paper / graph-sparse set-up: generate the job list from the seed,
/// check that each spec survives the job-file round trip `od-run` puts
/// it through (render, parse, validate, hash), and run a tenth-scale copy
/// of each job once, so code, allocator and worker threads are warm
/// before the first timed repetition.
fn setup_jobs(args: &Args) -> Result<Vec<od_runtime::JobSpec>, String> {
    let specs = if args.workload == "pop-paper" {
        specs::pop_specs(args.seed)
    } else {
        specs::graph_specs(args.seed)
    };
    for spec in &specs {
        let parsed = od_runtime::JobSpec::from_json_text(&specs::job_file_text(spec))
            .map_err(|e| e.to_string())?;
        parsed.validate().map_err(|e| e.to_string())?;
        if parsed.content_hash() != spec.content_hash() {
            return Err(format!("{}: the job file does not round-trip", spec.name));
        }
        let warm =
            od_runtime::run_job_simple(&specs::warmup_spec(spec)).map_err(|e| e.to_string())?;
        if warm.interrupted || warm.completed_shards != warm.total_shards {
            return Err(format!("{}: the warm-up job did not complete", spec.name));
        }
    }
    Ok(specs)
}

fn run_jobs_workload(
    args: &Args,
    work: &Path,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (specs, setup_s) = timed_setup(SETUP_REPS, |_| setup_jobs(args))?;
    outcome.set("setup_s", setup_s);
    jobs::run_e2e(&specs, work, args.seconds, outcome);
    if args.trace {
        let untraced = outcome.values.get("wall_s").copied().unwrap_or(f64::NAN);
        jobs::trace(&specs, work, untraced, tracer, outcome);
    }
    Ok(())
}

fn run_serve_workload(
    args: &Args,
    work: &Path,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (service, setup_s) = timed_setup(SERVE_SETUP_REPS, |last| {
        let dir = work.join("service");
        let service = serve::start_service(&dir, args.seed)?;
        if last {
            Ok(Some(service))
        } else {
            service.server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            Ok(None)
        }
    })?;
    let service = service.expect("the last set-up keeps its service");
    outcome.set("setup_s", setup_s);
    let mut clients: Vec<serve::Client> = (0..specs::SERVE_CLIENTS)
        .map(|_| serve::Client::new(service.server.addr()))
        .collect();
    let (stats, next_rep) = serve::closed_loop(
        &mut clients,
        args.seed,
        0,
        args.seconds,
        MIN_SERVE_JOBS,
        MAX_SERVE_LOOP_S,
        None,
    );
    outcome.attempted += stats.requests;
    outcome.failed += stats.failed;
    serve::loop_metrics(&stats, outcome);
    if args.trace {
        serve::trace(
            service,
            &mut clients,
            args.seed,
            next_rep,
            &stats,
            work,
            tracer,
            outcome,
        );
    } else {
        drop(clients);
        service.server.shutdown();
    }
    outcome.attempted += stats.records.len() as u64;
    outcome.failed += serve::verify_results(&stats.records, &work.join("verify"));
    Ok(())
}

/// Formats a measured value with all its digits.
fn number(value: f64) -> String {
    format!("{value}")
}

/// Prints the metrics and the result line; returns whether every metric
/// the result line needs was measured.
fn report(args: &Args, outcome: &Outcome, host: &Json) -> bool {
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for metric in catalogue::reported(&args.workload, args.trace) {
        let value = if metric.name == "error_rate" {
            Some(error_rate)
        } else {
            outcome.values.get(metric.name).copied()
        };
        let shown = value.map_or_else(|| "unmeasured".to_string(), number);
        println!(
            "  {:<40} {:>24} {:<9} ({} is better) moves: {}",
            metric.name, shown, metric.unit, metric.better, metric.moves
        );
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    println!("host: {}", host.to_string_compact());
    let mut complete = true;
    let mut metrics = Vec::new();
    for metric in catalogue::result_line(args.trace) {
        match outcome.values.get(metric.name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                number(*v),
                metric.unit
            )),
            _ => {
                eprintln!("metric {} was not measured", metric.name);
                complete = false;
            }
        }
    }
    let correct = complete && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    correct
}

fn write_trace_file(
    args: &Args,
    outcome: &Outcome,
    host: &Json,
    tracer: &Tracer,
) -> std::io::Result<PathBuf> {
    let mut values = Json::object();
    for metric in catalogue::reported(&args.workload, true) {
        if let Some(v) = outcome.values.get(metric.name).filter(|v| v.is_finite()) {
            let mut entry = Json::object();
            entry.insert("value", Json::Float(*v));
            entry.insert("unit", Json::Str(metric.unit.to_string()));
            entry.insert("moves", Json::Str(metric.moves.to_string()));
            values.insert(metric.name, entry);
        }
    }
    let mut doc = Json::object();
    doc.insert("workload", Json::Str(args.workload.clone()));
    doc.insert("seed", Json::Str(args.seed.to_string()));
    doc.insert("host", host.clone());
    doc.insert("metrics", values);
    doc.insert("spans", tracer.to_json());
    let path = work_root().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, doc.to_string_compact())?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                catalogue::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = work_root().join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        std::process::exit(1);
    }
    let tracer = Tracer::new();
    let mut outcome = Outcome::default();
    let ran = if args.workload == "serve-backlog" {
        run_serve_workload(&args, &work, &tracer, &mut outcome)
    } else {
        run_jobs_workload(&args, &work, &tracer, &mut outcome)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    outcome.set("peak_rss_mb", measure::peak_rss_mb());
    let host = host::metadata(&args.workload, args.seed, args.seconds);
    if args.trace {
        match write_trace_file(&args, &outcome, &host, &tracer) {
            Ok(path) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing the trace file: {e}");
                outcome.failed += 1;
            }
        }
    }
    if !report(&args, &outcome, &host) {
        std::process::exit(1);
    }
}
