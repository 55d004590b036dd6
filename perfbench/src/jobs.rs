//! The pop-paper and graph-sparse workloads: job lists run the way
//! `od-run <job>` runs them, plus the traced replays that split their
//! time into layers.
//!
//! End to end, each repetition writes the job files into a fresh
//! directory and calls `od_runtime::run_job_with_metrics` with the
//! sibling checkpoint set, exactly like `od-run <job>`; no repetition
//! sees a leftover checkpoint. The traced replay re-runs every trial
//! through the direct engine loop on the executor's seeds (checking
//! bit-identity), times single rounds, rebuilds the graph round's three
//! passes from public primitives, and replays checkpoint persistence.

use crate::measure::{self, Outcome};
use crate::specs;
use crate::trace::Tracer;
use od_core::protocol::{GraphProtocol, StepScratch, SyncProtocol, ThreeMajority, TwoChoices};
use od_core::{
    GraphRunOutcome, GraphSimulation, OpinionCounts, RoundScratch, Simulation, StopReason,
};
use od_graphs::{random_regular, CsrGraph, Graph};
use od_runtime::{
    default_checkpoint_path, load_job_file, run_job_with_metrics, Checkpoint, JobMetrics,
    JobReport, JobSpec, RunOptions, ShardSummary, TrialResult,
};
use od_sampling::batched::{fill_packed, ThresholdMemo};
use od_sampling::rng_for;
use od_sampling::seeds::{combine_key, derive_seed, round_key, CellRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The executor's reserved graph-generator stream id (`"od-graph"`), so
/// the replay regenerates the exact graph a job builds.
const GRAPH_STREAM: u64 = 0x6f64_2d67_7261_7068;

/// One job of one repetition.
pub struct JobRun {
    pub spec: JobSpec,
    pub report: JobReport,
    pub metrics: JobMetrics,
    pub wall: Duration,
    /// The checkpoint the run left behind.
    pub checkpoint: Checkpoint,
}

/// Writes the job files of one repetition into `dir` (created fresh).
pub fn write_job_files(specs: &[JobSpec], dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let path = dir.join(format!("job-{i}.json"));
            std::fs::write(&path, specs::job_file_text(spec)).map(|()| path)
        })
        .collect()
}

/// Runs the job list once from scratch in `dir`: each job file is loaded,
/// then run with its sibling checkpoint. Returns each job's run. With a
/// tracer, each job is recorded as a span (id: the spec hash) with its
/// `JobMetrics` phases as child spans.
pub fn run_job_list(
    specs: &[JobSpec],
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<Vec<JobRun>, String> {
    let paths = write_job_files(specs, dir).map_err(|e| format!("writing job files: {e}"))?;
    let mut runs = Vec::with_capacity(paths.len());
    for path in &paths {
        let spec = load_job_file(path).map_err(|e| e.to_string())?;
        let checkpoint_path = default_checkpoint_path(path);
        let options = RunOptions {
            checkpoint_path: Some(checkpoint_path.clone()),
            ..RunOptions::default()
        };
        let started = Instant::now();
        let (report, metrics) = run_job_with_metrics(&spec, &options).map_err(|e| e.to_string())?;
        let wall = started.elapsed();
        if let Some(tracer) = tracer {
            let job = &metrics.spec_hash;
            let id = tracer.record(
                "runtime.run_job_with_metrics",
                None,
                job,
                started,
                started + wall,
            );
            let mut at = started;
            for &(phase, us) in &metrics.phases {
                let end = at + Duration::from_micros(us);
                tracer.record(&format!("runtime.executor.{phase}"), Some(id), job, at, end);
                at = end;
            }
        }
        let checkpoint = Checkpoint::load(&checkpoint_path)
            .map_err(|e| e.to_string())?
            .ok_or("the job left no checkpoint")?;
        runs.push(JobRun {
            spec,
            report,
            metrics,
            wall,
            checkpoint,
        });
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(runs)
}

/// Rounds the runs simulated (capped trials count the round cap).
pub fn rounds_of(runs: &[JobRun]) -> u64 {
    runs.iter()
        .flat_map(|r| r.metrics.shards.iter())
        .map(|s| s.rounds)
        .sum()
}

/// Checks one repetition: every job complete and uninterrupted, and (from
/// the second repetition on) every summary identical to the first
/// repetition's. Returns the number of failed checks.
pub fn check_runs(runs: &[JobRun], reference: Option<&[JobRun]>) -> u64 {
    let mut failed = 0;
    for (i, run) in runs.iter().enumerate() {
        let complete = !run.report.interrupted
            && run.report.completed_shards == run.report.total_shards
            && run.report.summary.trials == run.spec.trials
            && run.checkpoint.is_complete();
        if !complete {
            eprintln!("job {} did not complete", run.spec.name);
            failed += 1;
        }
        if let Some(first) = reference {
            if first[i].report.summary != run.report.summary {
                eprintln!("job {}: summary differs between repetitions", run.spec.name);
                failed += 1;
            }
        }
    }
    failed
}

/// The end-to-end loop shared by pop-paper and graph-sparse: repeat the
/// job list until `seconds` have passed (at least twice).
pub fn run_e2e(specs: &[JobSpec], work: &Path, seconds: f64, outcome: &mut Outcome) -> Vec<JobRun> {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut rounds = 0u64;
    let mut jobs = 0u64;
    let mut first: Option<Vec<JobRun>> = None;
    let mut rep = 0usize;
    while rep < 2 || started.elapsed().as_secs_f64() < seconds {
        outcome.attempted += specs.len() as u64;
        let runs = match run_job_list(specs, &work.join(format!("rep-{rep}")), None) {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("repetition {rep} failed: {e}");
                outcome.failed += specs.len() as u64;
                break;
            }
        };
        outcome.failed += check_runs(&runs, first.as_deref());
        walls.push(runs.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>());
        rounds += rounds_of(&runs);
        jobs += runs.len() as u64;
        if first.is_none() {
            first = Some(runs);
        }
        rep += 1;
    }
    let busy: f64 = walls.iter().sum();
    outcome.set("wall_s", measure::median(&walls));
    outcome.set("jobs_per_s", jobs as f64 / busy);
    outcome.set("rounds_per_s", rounds as f64 / busy);
    outcome.note(format!("repetitions: {}", walls.len()));
    first.unwrap_or_default()
}

/// The trial result the executor records for a graph run.
fn fold_graph(out: &GraphRunOutcome) -> TrialResult {
    match out.reason {
        StopReason::Consensus => TrialResult::Consensus {
            rounds: out.rounds,
            winner: out.winner.map(|w| w as u64),
        },
        StopReason::Predicate => TrialResult::Stopped { rounds: out.rounds },
        StopReason::RoundLimit => TrialResult::Capped,
    }
}

/// The executor's critical path for one job: the vendored rayon gives
/// each thread one contiguous chunk of the pending shards, so the execute
/// phase lasts as long as the slowest chunk. Returns (trial time, saves)
/// of the slowest chunk, with shard `i` costing `trial_s[i]` plus one
/// checkpoint save of `save_s`.
fn critical_chunk(trial_s: &[f64], save_s: f64, threads: usize) -> (f64, f64) {
    let chunk = trial_s.len().div_ceil(threads.max(1)).max(1);
    trial_s
        .chunks(chunk)
        .map(|c| (c.iter().sum::<f64>(), c.len() as f64 * save_s))
        .fold((0.0, 0.0), |best, cur| {
            if cur.0 + cur.1 > best.0 + best.1 {
                cur
            } else {
                best
            }
        })
}

/// Replays checkpoint persistence over the shard sequence of a finished
/// job: one `Checkpoint::save` per shard, in shard order, into a fresh
/// file. Returns (save durations, bytes written).
fn replay_checkpoint(
    run: &JobRun,
    path: &Path,
    tracer: &Tracer,
    parent: u64,
    job: &str,
) -> (Vec<f64>, u64) {
    let _ = std::fs::remove_file(path);
    let mut cp = Checkpoint::new(
        run.checkpoint.spec_hash.clone(),
        run.checkpoint.total_shards,
    );
    let mut saves = Vec::new();
    let mut bytes = 0u64;
    for (&index, summary) in &run.checkpoint.shards {
        cp.record(index, summary.clone());
        let (saved, took) = tracer.span("runtime.checkpoint.save", Some(parent), job, |_| {
            cp.save(path)
        });
        if let Err(e) = saved {
            eprintln!("checkpoint replay: {e}");
            continue;
        }
        saves.push(took.as_secs_f64());
        bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    }
    let _ = std::fs::remove_file(path);
    (saves, bytes)
}

/// What replaying one job produced: per-trial times and the summary of
/// the direct trial loop, the round kernel's cost over the round-by-round
/// replay, and (graph jobs) the graph build.
struct Replay {
    trial_s: Vec<f64>,
    summary: ShardSummary,
    /// Seconds spent in the round kernel over the replayed trial.
    kernel_s: f64,
    /// Rounds the replayed trial simulated.
    kernel_rounds: u64,
    /// Graph jobs: the one-off graph build.
    build_s: f64,
    csr_bytes: u64,
}

/// Population job: the direct trial loop (`Simulation::run` on
/// `rng_for(master_seed, trial)`, as the executor seeds it), then trial 0
/// again round by round through `step_population_into`.
fn replay_population(
    spec: &JobSpec,
    tracer: &Tracer,
    parent: u64,
    job: &str,
    outcome: &mut Outcome,
) -> Replay {
    let protocol = spec.validate().expect("spec validated by the run");
    let initial = spec.initial.build().expect("spec validated by the run");
    let sim = Simulation::new(&protocol).with_max_rounds(spec.max_rounds);
    let mut summary = ShardSummary::new();
    let mut trial_s = Vec::new();
    let mut first = None;
    for trial in 0..spec.trials {
        let (out, took) = tracer.span("core.engine.Simulation::run", Some(parent), job, |_| {
            let mut rng = rng_for(spec.master_seed, trial);
            sim.run(&initial, &mut rng)
        });
        trial_s.push(took.as_secs_f64());
        summary.push(TrialResult::from_outcome(&out));
        if trial == 0 {
            first = Some(out);
        }
    }
    let first = first.expect("at least one trial");

    // Trial 0 again, one timed round at a time (the engine's own loop:
    // consensus check, round cap, step into the spare buffer, swap).
    let ((final_counts, rounds, step), _) = tracer.span(
        "core.protocol.step_population_into",
        Some(parent),
        job,
        |_| {
            let mut rng = rng_for(spec.master_seed, 0);
            let mut counts: OpinionCounts = initial.clone();
            let mut next = initial.clone();
            let mut scratch = StepScratch::new();
            let mut rounds = 0u64;
            let mut step = Duration::ZERO;
            while counts.consensus_opinion().is_none() && rounds < spec.max_rounds {
                let t = Instant::now();
                protocol.step_population_into(&counts, &mut rng, &mut scratch, &mut next);
                step += t.elapsed();
                std::mem::swap(&mut counts, &mut next);
                rounds += 1;
            }
            (counts, rounds, step)
        },
    );
    if rounds != first.rounds || final_counts != first.final_counts {
        eprintln!(
            "{}: the round-by-round replay diverged from Simulation::run",
            spec.name
        );
        outcome.failed += 1;
    }
    outcome.attempted += 1;
    Replay {
        trial_s,
        summary,
        kernel_s: step.as_secs_f64(),
        kernel_rounds: rounds,
        build_s: 0.0,
        csr_bytes: 0,
    }
}

/// Deals balanced counts round-robin over the vertices (the executor's
/// `striped` assignment).
fn striped(counts: &[u64], n: usize) -> Vec<u32> {
    let mut remaining = counts.to_vec();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for (j, slot) in remaining.iter_mut().enumerate() {
            if *slot > 0 {
                *slot -= 1;
                out.push(j as u32);
            }
        }
    }
    out
}

/// Per-pass times of the graph round, summed over the replayed rounds.
#[derive(Default)]
struct PassSplit {
    round_s: f64,
    pass_s: [f64; 3],
    rounds: u64,
}

/// One graph round rebuilt from the public primitives, pass by pass over
/// the whole vertex range: (1) every cell's neighbour indices from
/// `CellRng::for_cell(round_key)` + `fill_packed`, (2) the gathered
/// neighbour opinions via `Graph::gather_opinions`, (3) each vertex's new
/// opinion from `combine_gathered` on the combine-key stream.
fn split_round<P: GraphProtocol>(
    protocol: &P,
    graph: &CsrGraph,
    trial_seed: u64,
    round: u64,
    src: &[u32],
    dst: &mut [u32],
    buffers: &mut (Vec<u32>, Vec<u32>, ThresholdMemo),
) -> [f64; 3] {
    let samples = protocol.samples_per_vertex();
    let d = graph
        .uniform_degree()
        .expect("random-regular graphs are uniform") as u32;
    let (indices, gathered, memo) = buffers;
    indices.resize(src.len() * samples, 0);
    gathered.resize(src.len() * samples, 0);
    let rk = round_key(trial_seed, round);
    let ck = combine_key(rk);
    let threshold = memo.threshold(d);
    let t0 = Instant::now();
    for (v, row) in indices.chunks_exact_mut(samples).enumerate() {
        let mut cell = CellRng::for_cell(rk, v as u64);
        fill_packed(&mut cell, d, threshold, row);
    }
    let t1 = Instant::now();
    for (v, (row, out)) in indices
        .chunks_exact(samples)
        .zip(gathered.chunks_exact_mut(samples))
        .enumerate()
    {
        graph.gather_opinions(v, row, src, out);
    }
    let t2 = Instant::now();
    for (v, (slot, row)) in dst
        .iter_mut()
        .zip(gathered.chunks_exact_mut(samples))
        .enumerate()
    {
        let mut crng = CellRng::for_cell(ck, v as u64);
        *slot = protocol.combine_gathered(src[v], row, &mut crng);
    }
    let t3 = Instant::now();
    [
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t2).as_secs_f64(),
    ]
}

/// Graph job replay for protocol `P`: build the graph as the executor
/// does, run every trial through `run_batched` on the executor's trial
/// seeds, then replay trial 0 round by round through `step_seq_batched`
/// and the rebuilt pass split, checking the two bit-identical every round
/// and the final opinions identical to the direct run.
fn replay_graph_with<P: GraphProtocol + Copy>(
    protocol: P,
    spec: &JobSpec,
    tracer: &Tracer,
    parent: u64,
    job: &str,
    outcome: &mut Outcome,
    split: &mut PassSplit,
) -> Replay {
    let graph_spec = spec.graph.as_ref().expect("graph job");
    let n = spec.initial.build().expect("validated").n() as usize;
    let counts = spec.initial.build().expect("validated").counts().to_vec();
    let seed_base = graph_spec.seed.unwrap_or(spec.master_seed);
    let (graph, build) = tracer.span("graphs.random_regular", Some(parent), job, |_| {
        let mut rng = rng_for(seed_base, GRAPH_STREAM);
        random_regular(n, specs::GRAPH_D as usize, &mut rng).expect("feasible (n, d)")
    });
    let (offsets, neighbors) = graph.raw_parts();
    let csr_bytes = ((offsets.len() + neighbors.len()) * 4) as u64;
    let opinions = striped(&counts, n);
    let sim = GraphSimulation::new(protocol, &graph).with_max_rounds(spec.max_rounds);

    let mut summary = ShardSummary::new();
    let mut trial_s = Vec::new();
    let mut first_final = Vec::new();
    for trial in 0..spec.trials {
        let (out, took) = tracer.span("core.graph_dynamics.run_batched", Some(parent), job, |_| {
            sim.run_batched(&opinions, derive_seed(spec.master_seed, trial))
        });
        trial_s.push(took.as_secs_f64());
        summary.push(fold_graph(&out));
        if trial == 0 {
            first_final = out.final_opinions;
        }
    }

    let trial_seed = derive_seed(spec.master_seed, 0);
    let mut src = opinions.clone();
    let mut dst = vec![0u32; n];
    let mut rebuilt = vec![0u32; n];
    let mut scratch = RoundScratch::new();
    let mut buffers = (Vec::new(), Vec::new(), ThresholdMemo::default());
    let mut mismatched_rounds = 0u64;
    let ((), _) = tracer.span(
        "core.graph_dynamics.step_seq_batched",
        Some(parent),
        job,
        |id| {
            for round in 0..spec.max_rounds {
                let t = Instant::now();
                sim.step_seq_batched(trial_seed, round, &src, &mut dst, &mut scratch);
                split.round_s += t.elapsed().as_secs_f64();
                let start = Instant::now();
                let passes = split_round(
                    &protocol,
                    &graph,
                    trial_seed,
                    round,
                    &src,
                    &mut rebuilt,
                    &mut buffers,
                );
                tracer.record("graph.pass_split", Some(id), job, start, Instant::now());
                for (total, pass) in split.pass_s.iter_mut().zip(passes) {
                    *total += pass;
                }
                split.rounds += 1;
                if rebuilt != dst {
                    mismatched_rounds += 1;
                }
                std::mem::swap(&mut src, &mut dst);
            }
        },
    );
    outcome.attempted += 2;
    if mismatched_rounds > 0 {
        eprintln!("{}: the rebuilt pass split differs from step_seq_batched in {mismatched_rounds} rounds", spec.name);
        outcome.failed += 1;
    }
    if src != first_final {
        eprintln!(
            "{}: the round-by-round replay diverged from run_batched",
            spec.name
        );
        outcome.failed += 1;
    }
    Replay {
        trial_s,
        summary,
        kernel_s: split.round_s,
        kernel_rounds: split.rounds,
        build_s: build.as_secs_f64(),
        csr_bytes,
    }
}

fn replay_graph(
    spec: &JobSpec,
    tracer: &Tracer,
    parent: u64,
    job: &str,
    outcome: &mut Outcome,
    split: &mut PassSplit,
) -> Replay {
    match spec.protocol.as_str() {
        "three-majority" => {
            replay_graph_with(ThreeMajority, spec, tracer, parent, job, outcome, split)
        }
        "two-choices" => replay_graph_with(TwoChoices, spec, tracer, parent, job, outcome, split),
        other => panic!("graph-sparse has no {other} job"),
    }
}

/// Time the traced replays attribute to each layer of a job list, against
/// the traced repetition's wall time.
pub struct Attribution {
    /// Summed wall time of the traced repetition's jobs.
    pub wall_s: f64,
    /// Critical-path seconds per layer: spec, graphs, kernel, checkpoint.
    pub layers: [f64; 4],
}

/// One traced repetition of the job list, then the layer replays on the
/// same specs. Records the per-layer metrics every workload reports and
/// returns the critical-path attribution.
pub fn trace_layers(
    specs: &[JobSpec],
    work: &Path,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Attribution {
    outcome.attempted += specs.len() as u64;
    let runs = run_job_list(specs, &work.join("traced"), Some(tracer)).unwrap_or_else(|e| {
        eprintln!("traced repetition failed: {e}");
        outcome.failed += specs.len() as u64;
        Vec::new()
    });
    outcome.failed += check_runs(&runs, None);

    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let replay_dir = work.join("replay");
    let _ = std::fs::create_dir_all(&replay_dir);
    let mut kernel_s = 0.0;
    let mut kernel_rounds = 0u64;
    let mut shares = [0.0f64; 4]; // spec, graphs, kernel, checkpoint
    let mut shard_s = 0.0;
    let mut direct_s = 0.0;
    let mut busy_eff = Vec::new();
    let (mut saves_n, mut saves_bytes, mut save_times) = (0u64, 0u64, Vec::new());
    let (mut submit, mut load_hash) = (Vec::new(), Vec::new());
    let mut micro = crate::micro::Micro::default();
    for run in &runs {
        let hash = run.metrics.spec_hash.clone();
        let label = run.spec.protocol.clone();
        let ((), _) = tracer.span("bench.replay", None, &hash, |root| {
            let text = specs::job_file_text(&run.spec);
            let job_path = replay_dir.join("job.json");
            let _ = std::fs::write(&job_path, &text);
            let s = crate::micro::spec_costs(&text, &job_path, tracer, root, &hash);
            submit.push(s.0);
            load_hash.push(s.1);
            let replay = if run.spec.graph.is_some() {
                let mut split = PassSplit::default();
                let replay = replay_graph(&run.spec, tracer, root, &hash, outcome, &mut split);
                let r = split.rounds.max(1) as f64;
                let round_ms = split.round_s / r * 1e3;
                let pass_ms: Vec<f64> = split.pass_s.iter().map(|s| s / r * 1e3).collect();
                outcome.set(&format!("graph.round_ms.{label}"), round_ms);
                for (i, ms) in pass_ms.iter().enumerate() {
                    outcome.set(&format!("graph.pass{}_ms.{label}", i + 1), *ms);
                }
                outcome.set(
                    &format!("graph.unattributed_frac.{label}"),
                    1.0 - pass_ms.iter().sum::<f64>() / round_ms,
                );
                // Computed bytes per round (not measured): pass 1 writes
                // n·s indices; pass 2 reads them, the CSR row slots and
                // opinions they name, and writes n·s gathered opinions;
                // pass 3 reads those plus own opinions and writes n.
                let n = run.spec.initial.build().expect("validated").n() as f64;
                let s = if label == "two-choices" { 2.0 } else { 3.0 };
                let pass2_bytes = 4.0 * n * s * 4.0;
                let bytes = 4.0 * n * s + pass2_bytes + 4.0 * (n * s + 2.0 * n);
                outcome.set(&format!("graph.bytes_per_round.{label}"), bytes);
                outcome.set(
                    &format!("graph.gather_gbps.{label}"),
                    pass2_bytes / (pass_ms[1] / 1e3) / 1e9,
                );
                outcome.set("graphs.build_ms", replay.build_s * 1e3);
                outcome.set("graphs.csr_bytes", replay.csr_bytes as f64);
                replay
            } else {
                let replay = replay_population(&run.spec, tracer, root, &hash, outcome);
                outcome.set(
                    &format!("engine.round_us.{label}"),
                    replay.kernel_s / replay.kernel_rounds.max(1) as f64 * 1e6,
                );
                replay
            };
            outcome.attempted += 1;
            if replay.summary != run.report.summary {
                eprintln!(
                    "{}: the direct trial loop disagrees with the executor",
                    run.spec.name
                );
                outcome.failed += 1;
            }
            kernel_s += replay.kernel_s;
            kernel_rounds += replay.kernel_rounds;

            let (saves, bytes) = replay_checkpoint(
                run,
                &replay_dir.join("replay.checkpoint.json"),
                tracer,
                root,
                &hash,
            );
            saves_n += saves.len() as u64;
            saves_bytes += bytes;
            let save_s = measure::median(&saves);
            save_times.extend(saves);

            let shard_total: f64 = run
                .metrics
                .shards
                .iter()
                .map(|s| s.elapsed_us as f64 / 1e6)
                .sum();
            let direct_total: f64 = replay.trial_s.iter().sum();
            shard_s += shard_total;
            direct_s += direct_total;
            let execute_s = run
                .metrics
                .phases
                .iter()
                .find(|(p, _)| *p == "execute")
                .map_or(0.0, |(_, us)| *us as f64 / 1e6);
            let used = threads.min(run.metrics.shards.len()).max(1);
            busy_eff.push((shard_total, execute_s * used as f64));

            let (chunk_trials, chunk_saves) = critical_chunk(&replay.trial_s, save_s, threads);
            shares[0] += s.0;
            shares[1] += replay.build_s;
            shares[2] += chunk_trials;
            shares[3] += chunk_saves;

            micro.add_job(&run.spec, &run.report, &hash, &replay_dir, tracer, root);
        });
    }
    let _ = std::fs::remove_dir_all(&replay_dir);

    outcome.set(
        "kernel.round_us",
        kernel_s / kernel_rounds.max(1) as f64 * 1e6,
    );
    let (busy, capacity) = busy_eff
        .iter()
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    outcome.set("executor.parallel_efficiency", busy / capacity);
    outcome.set("executor.overhead_frac", shard_s / direct_s - 1.0);
    outcome.set("checkpoint.saves", saves_n as f64);
    outcome.set("checkpoint.bytes_written", saves_bytes as f64);
    outcome.set("checkpoint.save_ms", measure::median(&save_times) * 1e3);
    outcome.set("spec.submit_us", measure::median(&submit) * 1e6);
    outcome.set("spec.load_hash_us", measure::median(&load_hash) * 1e6);
    micro.finish(outcome);
    Attribution {
        wall_s: runs.iter().map(|r| r.wall.as_secs_f64()).sum(),
        layers: shares,
    }
}

/// The traced run of pop-paper or graph-sparse: [`trace_layers`], then
/// the reconciliation of the attributed layers against the traced
/// repetition, and the tracing overhead against the untraced median.
pub fn trace(
    specs: &[JobSpec],
    work: &Path,
    untraced_wall: f64,
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    let attribution = trace_layers(specs, work, tracer, outcome);
    let wall = attribution.wall_s;
    outcome.set("trace_overhead_frac", wall / untraced_wall - 1.0);
    outcome.set(
        "attributed_frac",
        attribution.layers.iter().sum::<f64>() / wall,
    );
    for (name, value) in [
        "share.spec",
        "share.graphs",
        "share.kernel",
        "share.checkpoint",
    ]
    .iter()
    .zip(attribution.layers)
    {
        outcome.set(name, value / wall);
    }
    for name in [
        "share.http",
        "share.queue",
        "share.store",
        "share.client_poll",
    ] {
        outcome.set(name, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-jobs-{name}-{}", std::process::id()))
    }

    #[test]
    fn same_seed_same_summaries() {
        let dir = scratch("seed");
        let specs = specs::pop_specs_sized(5, 2)
            .into_iter()
            .map(|s| JobSpec {
                initial: od_runtime::InitialSpec::Balanced { n: 2_000, k: 20 },
                ..s
            })
            .collect::<Vec<_>>();
        let a = run_job_list(&specs, &dir.join("a"), None).unwrap();
        let b = run_job_list(&specs, &dir.join("b"), None).unwrap();
        assert_eq!(check_runs(&a, None), 0);
        assert_eq!(check_runs(&b, Some(&a)), 0);
        let graph = specs::graph_specs_sized(5, 2_000, 2);
        let c = run_job_list(&graph, &dir.join("c"), None).unwrap();
        let d = run_job_list(&graph, &dir.join("d"), None).unwrap();
        assert_eq!(check_runs(&d, Some(&c)), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_replay_matches_the_executor_and_the_pass_split() {
        let tracer = Tracer::new();
        let mut outcome = Outcome::default();
        for spec in specs::graph_specs_sized(9, 2_000, 2) {
            let dir = scratch(&format!("graph-{}", spec.protocol));
            let runs = run_job_list(std::slice::from_ref(&spec), &dir, None).unwrap();
            let mut split = PassSplit::default();
            let replay = replay_graph(&spec, &tracer, 0, "", &mut outcome, &mut split);
            assert_eq!(replay.summary, runs[0].report.summary);
            assert_eq!(split.rounds, spec.max_rounds);
        }
        assert_eq!(outcome.failed, 0);
    }

    #[test]
    fn population_replay_matches_the_executor() {
        let tracer = Tracer::new();
        let mut outcome = Outcome::default();
        let spec = JobSpec {
            initial: od_runtime::InitialSpec::Balanced { n: 5_000, k: 50 },
            ..specs::pop_specs_sized(4, 3).remove(1)
        };
        let dir = scratch("pop");
        let runs = run_job_list(std::slice::from_ref(&spec), &dir, None).unwrap();
        let replay = replay_population(&spec, &tracer, 0, "", &mut outcome);
        assert_eq!(replay.summary, runs[0].report.summary);
        assert!(replay.kernel_rounds > 0);
        assert_eq!(outcome.failed, 0);
    }

    #[test]
    fn critical_chunk_follows_static_chunking() {
        // Four shards on two threads: chunks {0, 1} and {2, 3}.
        let (trials, saves) = critical_chunk(&[1.0, 1.0, 3.0, 0.5], 0.25, 2);
        assert_eq!((trials, saves), (3.5, 0.5));
        let (trials, _) = critical_chunk(&[1.0, 2.0], 0.0, 4);
        assert_eq!(trials, 2.0);
    }
}
