//! The sharded job executor.
//!
//! A job's `trials` split into fixed-size shards ([`JobSpec::shard_size`]).
//! Shards run in parallel on rayon; **every trial derives its RNG as
//! `rng_for(master_seed, trial_index)`**, so results are bit-identical to
//! a direct `Simulation` loop over the same seeds (the reference loop of
//! `od-experiments`' `runtime_equivalence` test) and independent of
//! shard size and thread schedule. Each shard folds its trials into a
//! [`ShardSummary`]; completed shards stream into the checkpoint (when
//! configured) and merge associatively into the job summary, keeping
//! memory `O(shards)`.
//!
//! Cancellation is cooperative: a [`CancelToken`] is checked between
//! trials, a cancelled shard is discarded (never partially recorded), and
//! the job returns with `interrupted = true` and whatever shards
//! completed — exactly the state a resume picks up from.

use crate::checkpoint::Checkpoint;
use crate::error::RuntimeError;
use crate::faults;
use crate::json::Json;
use crate::spec::{
    ExecutionMode, GraphFamily, GraphSpec, JobSpec, OpinionAssignment, StopRule, TemporalSchedule,
    TraceSpec, WeightScheme,
};
use crate::summary::{ShardSummary, TrialResult};
use od_core::protocol::GraphProtocol;
use od_core::registry::{build_graph_protocol, DynProtocol, GraphProtocolKind};
use od_core::{
    BoundedGammaTrace, GraphSchedule, GraphSimulation, OpinionCounts, Simulation, StopReason,
};
use od_graphs::{
    barbell, core_periphery, cycle, erdos_renyi, random_regular, repair_isolated, star,
    stochastic_block_model, torus_2d, CompleteWithSelfLoops, CsrGraph, Graph, TemporalGraph,
    WeightedCsrGraph, WeightedTemporalGraph,
};
use od_sampling::rng_for;
use od_sampling::seeds::derive_seed;
use od_telemetry::{span_full, Event, MetricSet, NullSink, TelemetrySink};
use rand::rngs::StdRng;
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cooperative cancellation handle, shareable across threads.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; running shards stop at the next trial
    /// boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Execution options for [`run_job`].
#[derive(Clone)]
pub struct RunOptions {
    /// Persist completed shards here and resume from it when present.
    pub checkpoint_path: Option<PathBuf>,
    /// Cooperative cancellation handle.
    pub cancel: CancelToken,
    /// Where telemetry events go (default: the zero-overhead
    /// [`od_telemetry::NullSink`]). Telemetry is observation only: any
    /// sink produces checkpoint and summary bytes identical to the
    /// `NullSink` run.
    pub sink: Arc<dyn TelemetrySink>,
    /// Per-shard progress cadence in trials. Overrides the spec's
    /// `telemetry.progress_every`; when neither is set the executor
    /// derives `max(1, shard_size / 4)`.
    pub progress_every: Option<u64>,
    /// Restrict execution to the half-open shard range `[start, end)`
    /// (global shard indices). Shards outside the range are neither run
    /// nor required: the report covers the range only, and a checkpoint
    /// holding just these shards is a *partial* checkpoint of the full
    /// job — its shard entries merge byte-stably with sibling ranges
    /// (the orchestrator's contract). `None` runs every shard.
    pub shard_range: Option<(u64, u64)>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            checkpoint_path: None,
            cancel: CancelToken::new(),
            sink: Arc::new(NullSink),
            progress_every: None,
            shard_range: None,
        }
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("checkpoint_path", &self.checkpoint_path)
            .field("cancel", &self.cancel)
            .field("sink_enabled", &self.sink.enabled())
            .field("progress_every", &self.progress_every)
            .field("shard_range", &self.shard_range)
            .finish()
    }
}

/// What a job run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Merged summary over every *completed* shard.
    pub summary: ShardSummary,
    /// Shards completed over the job's lifetime (including resumed ones).
    pub completed_shards: u64,
    /// Total shards in the job.
    pub total_shards: u64,
    /// Shards restored from the checkpoint rather than executed now.
    pub resumed_shards: u64,
    /// True when cancellation stopped the job before all shards finished.
    pub interrupted: bool,
}

/// Per-shard wall-clock throughput for shards executed *this run*
/// (resumed shards were computed in an earlier process and have no
/// timing here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: u64,
    /// Trials the shard ran.
    pub trials: u64,
    /// Rounds the shard simulated (capped trials count `max_rounds`).
    pub rounds: u64,
    /// Wall-clock shard duration in microseconds.
    pub elapsed_us: u64,
}

/// The phases of a job run, in execution order: the keys of the `phases`
/// section of an `od-run-metrics-v1` document, which the writer
/// ([`JobMetrics::to_json`]) emits and `od-telemetry-validate --metrics`
/// requires.
pub const METRICS_PHASES: [&str; 5] = ["validate", "checkpoint_load", "build", "execute", "merge"];

/// Records the phase that began at `start` under the next name of
/// [`METRICS_PHASES`].
fn end_phase(phases: &mut Vec<(&'static str, u64)>, start: Instant) {
    phases.push((
        METRICS_PHASES[phases.len()],
        start.elapsed().as_micros() as u64,
    ));
}

/// Run metrics: phase timings, per-shard throughput, and an exactly-
/// mergeable aggregate over every completed shard. The `exact` section
/// is built by merging per-shard snapshots in checkpoint order, so its
/// content is partition-invariant — identical for any shard size or
/// thread count; the wall-clock sections are this run's measurement.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// The job's name.
    pub job: String,
    /// The spec content hash.
    pub spec_hash: String,
    /// `(phase, elapsed_us)` for each of [`METRICS_PHASES`], in order.
    pub phases: Vec<(&'static str, u64)>,
    /// Shards executed this run, in shard order.
    pub shards: Vec<ShardMetrics>,
    /// Exact aggregates over every completed shard (counters
    /// `trials`/`consensus`/`stopped`/`capped`, moments + histogram
    /// `rounds`, histogram `winners`).
    pub exact: MetricSet,
}

impl JobMetrics {
    /// Renders the `od-run-metrics-v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let big = |v: u128| Json::Str(v.to_string());
        let int = |v: u64| match i64::try_from(v) {
            Ok(v) => Json::Int(v),
            Err(_) => Json::Str(v.to_string()),
        };
        let mut phases = Json::object();
        for &(name, us) in &self.phases {
            phases.insert(name, int(us));
        }
        let shards = Json::Arr(
            self.shards
                .iter()
                .map(|s| {
                    let mut obj = Json::object();
                    obj.insert("shard", int(s.shard));
                    obj.insert("trials", int(s.trials));
                    obj.insert("rounds", int(s.rounds));
                    obj.insert("elapsed_us", int(s.elapsed_us));
                    obj.insert(
                        "rounds_per_sec",
                        Json::Float(s.rounds as f64 / (s.elapsed_us as f64 / 1e6).max(1e-9)),
                    );
                    obj
                })
                .collect(),
        );
        let mut counters = Json::object();
        for (name, value) in self.exact.counters() {
            counters.insert(name, int(value));
        }
        let mut moments = Json::object();
        for (name, m) in self.exact.all_moments() {
            let mut obj = Json::object();
            obj.insert("count", int(m.count()));
            // u128 power sums do not fit JSON numbers; decimal strings do.
            obj.insert("sum", big(m.sum()));
            obj.insert("sum_sq", big(m.sum_sq()));
            obj.insert("min", int(m.min()));
            obj.insert("max", int(m.max()));
            obj.insert("mean", Json::Float(m.mean()));
            moments.insert(name, obj);
        }
        let mut histograms = Json::object();
        for (name, h) in self.exact.all_histograms() {
            let mut obj = Json::object();
            for (key, count) in h.iter() {
                obj.insert(&key.to_string(), int(count));
            }
            histograms.insert(name, obj);
        }
        let mut exact = Json::object();
        exact.insert("counters", counters);
        exact.insert("moments", moments);
        exact.insert("histograms", histograms);

        let mut out = Json::object();
        out.insert("schema", Json::Str("od-run-metrics-v1".into()));
        out.insert("job", Json::Str(self.job.clone()));
        out.insert("spec", Json::Str(self.spec_hash.clone()));
        out.insert("phases", phases);
        out.insert("shards", shards);
        out.insert("exact", exact);
        out
    }
}

/// The exactly-mergeable metric snapshot of one shard summary.
fn metric_set_of(summary: &ShardSummary) -> MetricSet {
    let mut set = MetricSet::new();
    set.add("trials", summary.trials);
    set.add("consensus", summary.consensus);
    set.add("stopped", summary.stopped);
    set.add("capped", summary.capped);
    set.insert_moments("rounds", &summary.rounds);
    set.insert_histogram("rounds", &summary.round_histogram);
    set.insert_histogram("winners", &summary.winners);
    set
}

/// Runs a job with default options (no checkpoint, no cancellation).
///
/// # Errors
///
/// Returns spec/validation errors before executing anything.
pub fn run_job_simple(spec: &JobSpec) -> Result<JobReport, RuntimeError> {
    run_job(spec, &RunOptions::default())
}

/// Runs a job: validates, plans shards, resumes from the checkpoint if one
/// matches, executes pending shards on rayon, and merges the summaries.
///
/// # Errors
///
/// Returns spec/validation errors, checkpoint mismatches, and I/O errors
/// from checkpoint persistence.
pub fn run_job(spec: &JobSpec, options: &RunOptions) -> Result<JobReport, RuntimeError> {
    run_job_with_metrics(spec, options).map(|(report, _)| report)
}

/// [`run_job`], additionally returning this run's [`JobMetrics`].
///
/// Wall-clock time is measured *around* the deterministic work, never
/// inside it: the report (and any checkpoint bytes) are identical to a
/// [`run_job`] call with the same options.
///
/// # Errors
///
/// Returns spec/validation errors, checkpoint mismatches, and I/O errors
/// from checkpoint persistence.
pub fn run_job_with_metrics(
    spec: &JobSpec,
    options: &RunOptions,
) -> Result<(JobReport, JobMetrics), RuntimeError> {
    let sink: &dyn TelemetrySink = options.sink.as_ref();
    let mut phases: Vec<(&'static str, u64)> = Vec::with_capacity(METRICS_PHASES.len());
    let job_span = span_full(sink, "job", None, None);

    let phase_start = Instant::now();
    let protocol: DynProtocol = {
        let _span = span_full(sink, "validate", job_span.id(), None);
        spec.validate()?
    };
    let initial = spec.initial.build()?;
    let spec_hash = spec.content_hash();
    let total_shards = spec.shard_count();
    end_phase(&mut phases, phase_start);

    if sink.enabled() {
        sink.emit(&Event::JobStart {
            job: &spec.name,
            spec: &spec_hash,
            trials: spec.trials,
            shards: total_shards,
        });
    }

    // Load or create the checkpoint.
    let phase_start = Instant::now();
    let checkpoint = {
        let _span = span_full(sink, "checkpoint_load", job_span.id(), None);
        match &options.checkpoint_path {
            // A torn/corrupt checkpoint is quarantined and the job
            // restarts; a checkpoint for a *different* spec is still a
            // hard error below (it is valid, just not ours).
            Some(path) => match Checkpoint::load_or_quarantine(path, sink)? {
                Some(existing) => {
                    if existing.spec_hash != spec_hash {
                        return Err(RuntimeError::CheckpointMismatch {
                            found: existing.spec_hash,
                            expected: spec_hash,
                        });
                    }
                    existing
                }
                None => Checkpoint::new(spec_hash.clone(), total_shards),
            },
            None => Checkpoint::new(spec_hash.clone(), total_shards),
        }
    };
    let resumed_shards = checkpoint.shards.len() as u64;
    end_phase(&mut phases, phase_start);

    let (range_start, range_end) = match options.shard_range {
        None => (0, total_shards),
        Some((start, end)) => {
            if start > end || end > total_shards {
                return Err(RuntimeError::Spec(format!(
                    "shard range [{start}, {end}) is not within the job's {total_shards} shards"
                )));
            }
            (start, end)
        }
    };
    let pending: Vec<u64> = (range_start..range_end)
        .filter(|index| !checkpoint.shards.contains_key(index))
        .collect();

    // The trial engine is prepared only when shards actually run: a
    // fully-resumed job must not pay graph generation again. Graph
    // scenarios build the kernel, the graph, and the per-vertex start
    // once per job; population jobs keep the boxed protocol.
    let phase_start = Instant::now();
    let engine = {
        let _span = span_full(sink, "build", job_span.id(), None);
        if pending.is_empty() {
            None
        } else {
            Some(match &spec.graph {
                None => TrialEngine::Population(protocol),
                Some(graph_spec) => {
                    let kernel = build_graph_protocol(&spec.protocol, &spec.params)
                        .map_err(RuntimeError::Core)?;
                    let graph = build_graph(graph_spec, &initial, spec.master_seed)?;
                    let opinions = assign_opinions(&initial, graph_spec)?;
                    TrialEngine::Graph(Box::new(GraphEngine {
                        kernel,
                        graph,
                        opinions,
                        k: initial.k(),
                    }))
                }
            })
        }
    };
    end_phase(&mut phases, phase_start);

    let telemetry_spec = spec.telemetry.as_ref();
    let scope = ShardScope {
        sink,
        job_span: job_span.id(),
        progress_every: options
            .progress_every
            .or(telemetry_spec.and_then(|t| t.progress_every))
            .unwrap_or_else(|| (spec.shard_size / 4).max(1)),
        trace: telemetry_spec.and_then(|t| t.trace.as_ref()),
    };

    // Completed shards stream into the checkpoint under a mutex; the
    // simulation work itself runs lock-free.
    let phase_start = Instant::now();
    let execute_span = span_full(sink, "execute", job_span.id(), None);
    let shared = Mutex::new((checkpoint, None::<RuntimeError>, Vec::<ShardMetrics>::new()));
    let cancel = &options.cancel;
    let executed: Vec<Option<u64>> = pending
        .into_par_iter()
        .map(|shard_index| {
            let engine = engine
                .as_ref()
                .expect("engine is built when shards are pending");
            let (summary, shard_metrics) =
                run_shard(spec, engine, &initial, shard_index, cancel, &scope)?;
            let mut guard = shared.lock().expect("checkpoint lock poisoned");
            let (checkpoint, first_error, metrics) = &mut *guard;
            checkpoint.record(shard_index, summary);
            metrics.push(shard_metrics);
            if let Some(path) = &options.checkpoint_path {
                if first_error.is_none() {
                    let _span =
                        span_full(sink, "checkpoint_save", job_span.id(), Some(shard_index));
                    if let Err(e) = checkpoint.save(path) {
                        // Persistence is broken: stop scheduling more work
                        // instead of burning hours of compute that could
                        // not be checkpointed anyway.
                        *first_error = Some(e);
                        cancel.cancel();
                    }
                }
            }
            Some(shard_index)
        })
        .collect();
    drop(execute_span);
    end_phase(&mut phases, phase_start);

    let (checkpoint, save_error, mut shard_metrics) =
        shared.into_inner().expect("checkpoint lock poisoned");
    if let Some(e) = save_error {
        return Err(e);
    }
    let interrupted = executed.iter().any(Option::is_none);

    // Merge in shard order. The merge is associative and commutative, so
    // the order is cosmetic; the *content* is partition-invariant.
    let phase_start = Instant::now();
    let merge_span = span_full(sink, "merge", job_span.id(), None);
    let mut summary = ShardSummary::new();
    let mut exact = MetricSet::new();
    for shard_summary in checkpoint.shards.values() {
        summary.merge(shard_summary);
        exact.merge(&metric_set_of(shard_summary));
    }
    drop(merge_span);
    end_phase(&mut phases, phase_start);

    shard_metrics.sort_by_key(|m| m.shard);

    if sink.enabled() {
        sink.emit(&Event::JobEnd {
            trials: summary.trials,
            consensus: summary.consensus,
            stopped: summary.stopped,
            capped: summary.capped,
            interrupted,
        });
    }
    drop(job_span);
    sink.flush();

    let report = JobReport {
        summary,
        completed_shards: checkpoint.shards.len() as u64,
        total_shards,
        resumed_shards,
        interrupted,
    };
    let metrics = JobMetrics {
        job: spec.name.clone(),
        spec_hash,
        phases,
        shards: shard_metrics,
        exact,
    };
    Ok((report, metrics))
}

/// The per-trial execution strategy, prepared once per job.
enum TrialEngine {
    /// Population-level dynamics on the complete graph (the default).
    Population(DynProtocol),
    /// Agent-level dynamics on a generated graph (boxed: the engine
    /// carries the graph arenas, far larger than the boxed protocol).
    Graph(Box<GraphEngine>),
}

/// Everything a graph trial shares across trials: the concrete kernel,
/// the generated graph, and the per-vertex initial opinions.
struct GraphEngine {
    kernel: GraphProtocolKind,
    graph: BuiltGraph,
    opinions: Vec<u32>,
    k: usize,
}

/// A generated graph: the complete graph stays implicit (`O(1)` memory);
/// everything else lowers to CSR, optionally weighted, optionally a
/// temporal schedule of CSR snapshots.
enum BuiltGraph {
    Complete(CompleteWithSelfLoops),
    Csr(CsrGraph),
    Weighted(WeightedCsrGraph),
    Temporal(TemporalGraph),
    WeightedTemporal(WeightedTemporalGraph),
}

/// Reserved generator stream id, so graph construction never collides
/// with the per-trial streams `0..trials`.
const GRAPH_STREAM: u64 = 0x6f64_2d67_7261_7068; // "od-graph"

/// Generates one CSR snapshot of `family` from `rng`, splicing the
/// Hamiltonian backbone for `erdos-renyi` when requested.
///
/// The `Complete` family never reaches this path: the static builder
/// keeps it implicit, and validation rejects it for weighted/temporal
/// scenarios.
fn build_csr_family(
    family: &GraphFamily,
    n: usize,
    rng: &mut StdRng,
    context: &str,
) -> Result<CsrGraph, RuntimeError> {
    let graph_err = |e: od_graphs::GraphBuildError| RuntimeError::Spec(format!("{context}: {e}"));
    Ok(match family {
        GraphFamily::Complete => {
            return Err(RuntimeError::Spec(format!(
                "{context}: the implicit complete graph cannot be materialised as CSR"
            )))
        }
        GraphFamily::ErdosRenyi { p, backbone } => {
            let er = erdos_renyi(n, *p, rng).map_err(graph_err)?;
            if *backbone && n >= 3 {
                // Splice the Hamiltonian cycle 0–1–…–(n−1)–0 under the
                // random edges: no isolated vertices at any p.
                let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
                for v in 0..n {
                    for w in er.neighbors(v) {
                        if v < w {
                            edges.push((v, w));
                        }
                    }
                }
                CsrGraph::from_edges(n, &edges)
            } else {
                er
            }
        }
        GraphFamily::RandomRegular { d } => {
            random_regular(n, *d as usize, rng).map_err(graph_err)?
        }
        GraphFamily::StochasticBlockModel { p_in, p_out } => {
            stochastic_block_model(n, *p_in, *p_out, rng).map_err(graph_err)?
        }
        GraphFamily::Cycle => cycle(n),
        GraphFamily::Torus2d { width, height } => torus_2d(*width as usize, *height as usize),
        GraphFamily::Barbell => barbell(n / 2),
        GraphFamily::CorePeriphery { core } => core_periphery(*core as usize, n - *core as usize),
        GraphFamily::Star => star(n),
    })
}

/// Typed isolated-vertex rejection: a degree-0 vertex has no neighbor to
/// pull from; fail the job instead of panicking mid-trial.
fn reject_isolated(graph: &CsrGraph, context: &str) -> Result<(), RuntimeError> {
    if graph.has_no_isolated_vertices() {
        Ok(())
    } else {
        Err(RuntimeError::Spec(format!(
            "{context}: the generated graph has isolated vertices — increase the edge \
             density, change the seed, or (for erdos-renyi) set \"backbone\": true"
        )))
    }
}

/// The per-edge weight of `{u, v}` under a `random` scheme: a pure
/// function of `(seed, unordered pair)`, so both CSR directions agree and
/// the result is independent of edge iteration order.
fn edge_weight(seed: u64, u: usize, v: usize, min: u32, max: u32) -> u32 {
    let (lo, hi) = (u.min(v) as u64, u.max(v) as u64);
    let span = u64::from(max - min) + 1;
    min + (derive_seed(derive_seed(seed, lo), hi) % span) as u32
}

/// Applies a weight scheme to a generated CSR graph, turning scheme and
/// construction failures (zero-weight rows, row totals or degree
/// products past `u32::MAX`, listed edges the graph does not contain)
/// into typed spec errors. Shared by the static weighted path and every
/// snapshot/epoch of a weighted temporal schedule.
fn apply_weights(
    csr: CsrGraph,
    scheme: &WeightScheme,
    wseed: u64,
    context: &str,
) -> Result<WeightedCsrGraph, RuntimeError> {
    let weighted = match scheme {
        WeightScheme::Uniform { value } => WeightedCsrGraph::from_csr_uniform(csr, *value),
        WeightScheme::Random { min, max } => {
            let (min, max) = (*min, *max);
            WeightedCsrGraph::from_csr_with(csr, |u, v| edge_weight(wseed, u, v, min, max))
        }
        WeightScheme::DegreeProduct => {
            // The per-edge product must fit the closure's u32 before
            // construction can check row totals.
            let n = csr.n();
            let degs: Vec<u64> = (0..n).map(|v| csr.degree(v) as u64).collect();
            let (offsets, neighbors) = csr.raw_parts();
            for v in 0..n {
                for &w in &neighbors[offsets[v] as usize..offsets[v + 1] as usize] {
                    if degs[v] * degs[w as usize] > u64::from(u32::MAX) {
                        return Err(RuntimeError::Spec(format!(
                            "{context}: degree-product weight of edge ({v}, {w}) exceeds \
                             u32::MAX — the scheme needs sparser rows"
                        )));
                    }
                }
            }
            WeightedCsrGraph::from_csr_with(csr, |u, v| (degs[u] * degs[v]) as u32)
        }
        WeightScheme::Explicit { edges, default } => {
            let mut listed = std::collections::HashMap::with_capacity(edges.len());
            for &(u, v, w) in edges {
                let (u, v) = (u as usize, v as usize);
                if !csr.has_edge(u, v) {
                    return Err(RuntimeError::Spec(format!(
                        "{context}: explicit weight listed for ({u}, {v}), but the \
                         generated graph has no such edge — check the family parameters \
                         and generator seed"
                    )));
                }
                listed.insert((u.min(v), u.max(v)), w);
            }
            let default = *default;
            WeightedCsrGraph::from_csr_with(csr, |u, v| {
                listed
                    .get(&(u.min(v), u.max(v)))
                    .copied()
                    .unwrap_or(default)
            })
        }
    };
    weighted.map_err(|e| {
        RuntimeError::Spec(format!(
            "{context}: {e} — raise the minimum weight or change the weight seed"
        ))
    })
}

/// Generates the job's graph from its reserved RNG stream.
fn build_graph(
    graph_spec: &GraphSpec,
    initial: &OpinionCounts,
    master_seed: u64,
) -> Result<BuiltGraph, RuntimeError> {
    let n = usize::try_from(initial.n())
        .map_err(|_| RuntimeError::Spec("graph jobs require n to fit usize".to_string()))?;
    let seed_base = graph_spec.seed.unwrap_or(master_seed);

    // Temporal schedules: the base family is snapshot 0 (seed derived per
    // snapshot index) or the rewiring template (seed derived per epoch).
    // With a `weights` block each snapshot/epoch carries its own weight
    // rows (the same scheme applied to its own edge set, so persistent
    // edges keep their weight across snapshots under seeded schemes).
    if let Some(temporal) = &graph_spec.temporal {
        let period = temporal.period;
        let weights_spec = graph_spec.weights.as_ref();
        return match &temporal.schedule {
            TemporalSchedule::Snapshots(extra) => {
                let mut families = Vec::with_capacity(extra.len() + 1);
                families.push(&graph_spec.family);
                families.extend(extra.iter());
                let mut snapshots = Vec::with_capacity(families.len());
                for (i, family) in families.into_iter().enumerate() {
                    let context = format!("graph.temporal snapshot {i}");
                    let mut rng = rng_for(derive_seed(seed_base, i as u64), GRAPH_STREAM);
                    let snap = build_csr_family(family, n, &mut rng, &context)?;
                    reject_isolated(&snap, &context)?;
                    snapshots.push(snap);
                }
                Ok(match weights_spec {
                    Some(wspec) => {
                        let wseed = wspec.seed.unwrap_or(master_seed);
                        let weighted = snapshots
                            .into_iter()
                            .enumerate()
                            .map(|(i, snap)| {
                                apply_weights(
                                    snap,
                                    &wspec.scheme,
                                    wseed,
                                    &format!("graph.weights (temporal snapshot {i})"),
                                )
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        BuiltGraph::WeightedTemporal(
                            WeightedTemporalGraph::periodic(weighted, period)
                                .map_err(|e| RuntimeError::Spec(format!("graph.temporal: {e}")))?,
                        )
                    }
                    None => BuiltGraph::Temporal(
                        TemporalGraph::periodic(snapshots, period)
                            .map_err(|e| RuntimeError::Spec(format!("graph.temporal: {e}")))?,
                    ),
                })
            }
            TemporalSchedule::Rewire => {
                let family = graph_spec.family.clone();
                // Validation restricts rewiring to random families; epochs
                // that isolate vertices (bare ER, sparse SBM) are repaired
                // deterministically, so every epoch is sampleable.
                // Residual mid-trial failure modes that can only panic
                // (the typed-error boundary is behind us once trials
                // run): the random-regular repair budget, vanishingly
                // unlikely at valid (n, d), and a degree-product row
                // overflowing u32 on a later, denser epoch —
                // uniform/random schemes are statically bounded by
                // validation (max_weight · (n − 1) <= u32::MAX), and
                // epoch 0 is probed below so deterministic problems
                // surface as typed errors before any trial runs.
                let make_csr = move |epoch: u64,
                                     family: &GraphFamily,
                                     context: &str|
                      -> Result<CsrGraph, RuntimeError> {
                    let mut rng = rng_for(derive_seed(seed_base, epoch), GRAPH_STREAM);
                    Ok(repair_isolated(build_csr_family(
                        family, n, &mut rng, context,
                    )?))
                };
                match weights_spec {
                    Some(wspec) => {
                        let wseed = wspec.seed.unwrap_or(master_seed);
                        let scheme = wspec.scheme.clone();
                        let probe_family = family.clone();
                        let probe = apply_weights(
                            make_csr(0, &probe_family, "graph.temporal rewire epoch 0")?,
                            &scheme,
                            wseed,
                            "graph.weights (rewire epoch 0)",
                        )?;
                        drop(probe);
                        let generator = move |epoch: u64| {
                            let csr = make_csr(epoch, &family, "graph.temporal rewire")
                                .unwrap_or_else(|e| panic!("rewiring epoch {epoch}: {e}"));
                            apply_weights(csr, &scheme, wseed, "graph.weights (rewire)")
                                .unwrap_or_else(|e| panic!("rewiring epoch {epoch}: {e}"))
                        };
                        Ok(BuiltGraph::WeightedTemporal(
                            WeightedTemporalGraph::rewiring(n, generator, period)
                                .map_err(|e| RuntimeError::Spec(format!("graph.temporal: {e}")))?,
                        ))
                    }
                    None => {
                        let probe = make_csr(0, &family, "graph.temporal rewire epoch 0")?;
                        reject_isolated(&probe, "graph.temporal rewire epoch 0")?;
                        let generator = move |epoch: u64| {
                            make_csr(epoch, &family, "graph.temporal rewire")
                                .unwrap_or_else(|e| panic!("rewiring epoch {epoch}: {e}"))
                        };
                        Ok(BuiltGraph::Temporal(
                            TemporalGraph::rewiring(n, generator, period)
                                .map_err(|e| RuntimeError::Spec(format!("graph.temporal: {e}")))?,
                        ))
                    }
                }
            }
        };
    }

    let mut rng = rng_for(seed_base, GRAPH_STREAM);
    if let Some(weights_spec) = &graph_spec.weights {
        // Validation rejects Complete + weights, so the family lowers to
        // CSR here.
        let csr = build_csr_family(&graph_spec.family, n, &mut rng, "graph")?;
        reject_isolated(&csr, "graph")?;
        let wseed = weights_spec.seed.unwrap_or(master_seed);
        let weighted = apply_weights(csr, &weights_spec.scheme, wseed, "graph.weights")?;
        return Ok(BuiltGraph::Weighted(weighted));
    }

    if matches!(graph_spec.family, GraphFamily::Complete) {
        return Ok(BuiltGraph::Complete(CompleteWithSelfLoops::new(n)));
    }
    let csr = build_csr_family(&graph_spec.family, n, &mut rng, "graph")?;
    reject_isolated(&csr, "graph")?;
    Ok(BuiltGraph::Csr(csr))
}

/// Lays the configuration out over vertex ids.
fn assign_opinions(
    initial: &OpinionCounts,
    graph_spec: &GraphSpec,
) -> Result<Vec<u32>, RuntimeError> {
    let n = initial.n() as usize;
    Ok(match &graph_spec.assignment {
        OpinionAssignment::Blocks => od_core::protocol::expand(initial),
        OpinionAssignment::Striped => deal_striped(initial.counts(), n),
        OpinionAssignment::Proportions(mix) => {
            let blocks = graph_spec.family.community_blocks(n);
            let mut out = Vec::with_capacity(n);
            for (row, block) in mix.iter().zip(&blocks) {
                let counts = largest_remainder_counts(row, block.len());
                out.extend(deal_striped(&counts, block.len()));
            }
            debug_assert_eq!(out.len(), n, "community blocks must tile 0..n");
            out
        }
        OpinionAssignment::PerBlock(opinions) => {
            let blocks = graph_spec.family.community_blocks(n);
            let mut out = Vec::with_capacity(n);
            for (&opinion, block) in opinions.iter().zip(&blocks) {
                out.extend(std::iter::repeat_n(opinion, block.len()));
            }
            debug_assert_eq!(out.len(), n, "community blocks must tile 0..n");
            out
        }
    })
}

/// Deals `counts[j]` copies of opinion `j` round-robin over `n` slots:
/// for balanced counts this is the classic `v % k` striping; skewed
/// counts stay maximally interleaved until a class runs out.
fn deal_striped(counts: &[u64], n: usize) -> Vec<u32> {
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

/// Realises fraction row `fracs` over `total` slots by largest-remainder
/// rounding (deterministic: remainders tie-break toward the lower
/// opinion index). The result always sums to exactly `total`: validation
/// only bounds the row sum to 1 ± 1e-6, so on a large community the
/// absolute rounding slack can exceed one unit per opinion — the top-up
/// walks the remainder order cyclically, and an over-full row (sum
/// slightly above 1) is trimmed from the smallest remainders upward.
/// Anything else would hang `deal_striped` (shortfall) or trip the
/// engine's length asserts (overage).
fn largest_remainder_counts(fracs: &[f64], total: usize) -> Vec<u64> {
    let mut counts: Vec<u64> = fracs
        .iter()
        .map(|&f| (f * total as f64).floor() as u64)
        .collect();
    if fracs.is_empty() {
        return counts;
    }
    let mut order: Vec<usize> = (0..fracs.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = fracs[a] * total as f64 - (fracs[a] * total as f64).floor();
        let rb = fracs[b] * total as f64 - (fracs[b] * total as f64).floor();
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut assigned: u64 = counts.iter().sum();
    let total = total as u64;
    let mut i = 0usize;
    while assigned < total {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    let mut j = 0usize;
    while assigned > total {
        // Smallest remainders give back first; skip exhausted slots.
        // Terminates: assigned == Σ counts > total ≥ 0 implies some
        // positive count on every cycle.
        let slot = order[order.len() - 1 - (j % order.len())];
        if counts[slot] > 0 {
            counts[slot] -= 1;
            assigned -= 1;
        }
        j += 1;
    }
    counts
}

/// Executes one graph trial: monomorphize over (graph representation ×
/// protocol kernel), then run the batched engine.
fn run_graph_trial(
    spec: &JobSpec,
    engine: &GraphEngine,
    trial: u64,
    trace: Option<&mut BoundedGammaTrace>,
) -> TrialResult {
    let trial_seed = derive_seed(spec.master_seed, trial);
    match &engine.graph {
        BuiltGraph::Complete(g) => dispatch_kernel(spec, engine, g, trial_seed, trace),
        BuiltGraph::Csr(g) => dispatch_kernel(spec, engine, g, trial_seed, trace),
        BuiltGraph::Weighted(g) => dispatch_kernel(spec, engine, g, trial_seed, trace),
        BuiltGraph::Temporal(t) => dispatch_kernel(spec, engine, t, trial_seed, trace),
        BuiltGraph::WeightedTemporal(t) => dispatch_kernel(spec, engine, t, trial_seed, trace),
    }
}

fn dispatch_kernel<S: GraphSchedule>(
    spec: &JobSpec,
    engine: &GraphEngine,
    graph: S,
    trial_seed: u64,
    trace: Option<&mut BoundedGammaTrace>,
) -> TrialResult {
    // The kernel runs on the protocol value, not a reference to it: a
    // `&P` protocol would route every per-vertex combine through the
    // reference forwarder. The variants are a few words each.
    match engine.kernel.clone() {
        GraphProtocolKind::ThreeMajority(p) => {
            run_graph_case(spec, p, graph, engine, trial_seed, trace)
        }
        GraphProtocolKind::TwoChoices(p) => {
            run_graph_case(spec, p, graph, engine, trial_seed, trace)
        }
        GraphProtocolKind::Voter(p) => run_graph_case(spec, p, graph, engine, trial_seed, trace),
        GraphProtocolKind::Median(p) => run_graph_case(spec, p, graph, engine, trial_seed, trace),
        GraphProtocolKind::HMajority(p) => {
            run_graph_case(spec, p, graph, engine, trial_seed, trace)
        }
        GraphProtocolKind::Undecided(p) => {
            run_graph_case(spec, p, graph, engine, trial_seed, trace)
        }
        GraphProtocolKind::NoisyThreeMajority(p) => {
            run_graph_case(spec, p, graph, engine, trial_seed, trace)
        }
    }
}

fn run_graph_case<P: GraphProtocol, S: GraphSchedule>(
    spec: &JobSpec,
    protocol: P,
    graph: S,
    engine: &GraphEngine,
    trial_seed: u64,
    mut trace: Option<&mut BoundedGammaTrace>,
) -> TrialResult {
    let sim = GraphSimulation::new(protocol, graph).with_max_rounds(spec.max_rounds);
    let k = engine.k;
    let stop = spec.stop;
    // The plain consensus run skips the tally entirely; threshold stops
    // and traces tally each round. `run_batched` and `run_batched_until`
    // share one round loop, the first without a predicate, so every path
    // visits the same RNG streams: trial results are a pure function of
    // `(spec, trial)`, and shard invariance and checkpoint/resume
    // byte-identity carry over.
    let out = if trace.is_none() && stop == StopRule::Consensus {
        sim.run_batched(&engine.opinions, trial_seed)
    } else {
        sim.run_batched_until(&engine.opinions, trial_seed, |_, opinions| {
            let counts = od_core::protocol::tally(opinions, k);
            if let Some(t) = trace.as_mut() {
                t.push(counts.gamma());
            }
            stop_hit(stop, &counts)
        })
    };
    match out.reason {
        StopReason::Consensus => TrialResult::Consensus {
            rounds: out.rounds,
            winner: out.winner.map(|w| w as u64),
        },
        StopReason::Predicate => TrialResult::Stopped { rounds: out.rounds },
        StopReason::RoundLimit => TrialResult::Capped,
    }
}

/// Per-job telemetry context shared by every shard: the sink, the root
/// span to parent shard spans under, the effective progress cadence,
/// and the trace sampling configuration.
struct ShardScope<'a> {
    sink: &'a dyn TelemetrySink,
    job_span: Option<u64>,
    progress_every: u64,
    trace: Option<&'a TraceSpec>,
}

/// Rounds a trial simulated: capped trials ran the full round budget.
fn trial_rounds(result: &TrialResult, max_rounds: u64) -> u64 {
    match result {
        TrialResult::Consensus { rounds, .. } | TrialResult::Stopped { rounds } => *rounds,
        TrialResult::Capped => max_rounds,
    }
}

/// Executes one shard, or returns `None` when cancelled (partial shards
/// are discarded, never recorded).
fn run_shard(
    spec: &JobSpec,
    engine: &TrialEngine,
    initial: &OpinionCounts,
    shard_index: u64,
    cancel: &CancelToken,
    scope: &ShardScope<'_>,
) -> Option<(ShardSummary, ShardMetrics)> {
    let (start, end) = spec.shard_range(shard_index);
    let telemetry_on = scope.sink.enabled();
    let shard_span = span_full(scope.sink, "shard", scope.job_span, Some(shard_index));
    let started = Instant::now();
    let mut summary = ShardSummary::new();
    let mut rounds_total: u64 = 0;
    for trial in start..end {
        if cancel.is_cancelled() {
            return None;
        }
        let _ = faults::fire("executor.trial");
        // Trace buffers exist only on sampled trials of an enabled sink;
        // the buffer observes through the stop-rule closure, which is
        // result-identical to the untraced path (the engines' plain runs
        // are literal delegations to their `_until` variants).
        let mut trace = if telemetry_on {
            scope
                .trace
                .filter(|t| trial.is_multiple_of(t.sample_trials))
                .map(|t| BoundedGammaTrace::with_capacity(t.max_points as usize))
        } else {
            None
        };
        let result = run_trial(spec, engine, initial, trial, trace.as_mut());
        rounds_total = rounds_total.saturating_add(trial_rounds(&result, spec.max_rounds));
        if telemetry_on {
            let (outcome, winner) = match &result {
                TrialResult::Consensus { winner, .. } => ("consensus", *winner),
                TrialResult::Stopped { .. } => ("stopped", None),
                TrialResult::Capped => ("capped", None),
            };
            scope.sink.emit(&Event::Trial {
                shard: shard_index,
                trial,
                rounds: trial_rounds(&result, spec.max_rounds),
                outcome,
                winner,
            });
            if let Some(t) = &trace {
                scope.sink.emit(&Event::Trace {
                    trial,
                    gamma: t.values(),
                    truncated: t.truncated(),
                });
            }
            let done = trial - start + 1;
            let total = end - start;
            if done.is_multiple_of(scope.progress_every) || done == total {
                let elapsed_us = started.elapsed().as_micros() as u64;
                let elapsed_s = (elapsed_us as f64 / 1e6).max(1e-9);
                scope.sink.emit(&Event::Progress {
                    shard: shard_index,
                    trials_done: done,
                    trials_total: total,
                    rounds: rounds_total,
                    elapsed_us,
                    rounds_per_sec: rounds_total as f64 / elapsed_s,
                    eta_s: elapsed_s / done as f64 * (total - done) as f64,
                });
            }
        }
        summary.push(result);
    }
    drop(shard_span);
    let metrics = ShardMetrics {
        shard: shard_index,
        trials: end - start,
        rounds: rounds_total,
        elapsed_us: started.elapsed().as_micros() as u64,
    };
    Some((summary, metrics))
}

/// Whether `counts` satisfies `stop` (the stop-rule predicate shared by
/// the graph and population trial paths).
fn stop_hit(stop: StopRule, counts: &OpinionCounts) -> bool {
    match stop {
        StopRule::Consensus => false,
        StopRule::MaxFraction(threshold) => counts.max_fraction() >= threshold,
        StopRule::Gamma(threshold) => counts.gamma() >= threshold,
    }
}

/// Executes one trial with the canonical per-trial RNG derivation.
///
/// Every population trial runs one engine loop: [`Simulation::run_until`]
/// with one stop closure, which pushes `γ_t` into `trace` when present and
/// then evaluates [`stop_hit`]. Adversary jobs carry neither a trace nor a
/// stop rule (validation rejects both), so they take `run_with_adversary`
/// directly. Compacted mode runs the same sample path and records no
/// winner. It also keeps that mode's order of checks at the last round,
/// stop rule before consensus: a consensus round pushes one more `γ`
/// point and reports `Stopped` when the rule holds.
fn run_trial(
    spec: &JobSpec,
    engine: &TrialEngine,
    initial: &OpinionCounts,
    trial: u64,
    mut trace: Option<&mut BoundedGammaTrace>,
) -> TrialResult {
    let protocol = match engine {
        TrialEngine::Graph(graph_engine) => {
            return run_graph_trial(spec, graph_engine, trial, trace)
        }
        TrialEngine::Population(protocol) => protocol,
    };
    let mut rng = rng_for(spec.master_seed, trial);
    let stop = spec.stop;
    let mut stop_at = |c: &OpinionCounts| {
        if let Some(t) = trace.as_deref_mut() {
            t.push(c.gamma());
        }
        stop_hit(stop, c)
    };
    let simulation = Simulation::new(protocol).with_max_rounds(spec.max_rounds);
    let outcome = match &spec.adversary {
        Some(adversary_spec) => {
            let mut adversary = adversary_spec
                .build()
                .expect("adversary kind validated before execution");
            simulation.run_with_adversary(initial, &mut rng, &mut *adversary)
        }
        None => simulation.run_until(initial, &mut rng, &mut |_, c| stop_at(c)),
    };
    if spec.mode == ExecutionMode::Full || outcome.reason != StopReason::Consensus {
        return TrialResult::from_outcome(&outcome);
    }
    let rounds = outcome.rounds;
    if stop_at(&outcome.final_counts) {
        TrialResult::Stopped { rounds }
    } else {
        TrialResult::Consensus {
            rounds,
            winner: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::InitialSpec;

    fn base_spec() -> JobSpec {
        JobSpec {
            max_rounds: 200_000,
            shard_size: 4,
            ..JobSpec::new(
                "executor smoke",
                "three-majority",
                InitialSpec::Balanced { n: 500, k: 8 },
                12,
                4242,
            )
        }
    }

    #[test]
    fn runs_all_trials_and_reaches_consensus() {
        let report = run_job_simple(&base_spec()).unwrap();
        assert_eq!(report.total_shards, 3);
        assert_eq!(report.completed_shards, 3);
        assert!(!report.interrupted);
        assert_eq!(report.summary.trials, 12);
        assert_eq!(report.summary.consensus, 12);
        assert_eq!(report.summary.winners.total(), 12);
        assert!(report.summary.rounds.mean() > 0.0);
    }

    #[test]
    fn shard_size_does_not_change_the_summary() {
        // Shard sizes 1, 7, and `trials` must produce byte-identical
        // merged summaries: trial RNGs derive from the global trial index
        // and the aggregation layer merges exact integer accumulators.
        let mut summaries = vec![];
        for shard_size in [1u64, 7, 12] {
            let spec = JobSpec {
                shard_size,
                ..base_spec()
            };
            summaries.push(run_job_simple(&spec).unwrap().summary);
        }
        let reference_bytes = summaries[0].to_json().to_string_compact();
        for summary in &summaries[1..] {
            assert_eq!(*summary, summaries[0]);
            assert_eq!(summary.to_json().to_string_compact(), reference_bytes);
        }
    }

    #[test]
    fn matches_the_direct_simulation_loop_bit_for_bit() {
        let spec = base_spec();
        let report = run_job_simple(&spec).unwrap();
        let protocol = spec.validate().unwrap();
        let initial = spec.initial.build().unwrap();
        // The direct path: one simulation per trial, rng_for(seed, trial).
        let outcomes: Vec<od_core::RunOutcome> = (0..spec.trials)
            .map(|trial| {
                let mut rng = rng_for(spec.master_seed, trial);
                Simulation::new(&protocol)
                    .with_max_rounds(spec.max_rounds)
                    .run(&initial, &mut rng)
            })
            .collect();
        let direct = ShardSummary::from_outcomes(outcomes.iter());
        assert_eq!(report.summary, direct);
    }

    #[test]
    fn cancellation_interrupts_cleanly() {
        let spec = JobSpec {
            trials: 64,
            shard_size: 4,
            ..base_spec()
        };
        let options = RunOptions::default();
        options.cancel.cancel();
        let report = run_job(&spec, &options).unwrap();
        assert!(report.interrupted);
        assert_eq!(report.completed_shards, 0);
        assert_eq!(report.summary.trials, 0);
    }

    #[test]
    fn compacted_mode_counts_consensus_without_winners() {
        let spec = JobSpec {
            mode: ExecutionMode::Compacted,
            ..base_spec()
        };
        let report = run_job_simple(&spec).unwrap();
        assert_eq!(report.summary.consensus, 12);
        assert!(report.summary.winners.is_empty());
        assert!(report.summary.rounds.count() == 12);
    }

    #[test]
    fn gamma_stop_rule_stops_early() {
        let consensus = run_job_simple(&base_spec()).unwrap();
        let spec = JobSpec {
            stop: StopRule::Gamma(0.5),
            ..base_spec()
        };
        let report = run_job_simple(&spec).unwrap();
        assert_eq!(report.summary.stopped, 12);
        assert!(
            report.summary.rounds.mean() < consensus.summary.rounds.mean(),
            "gamma-stopped runs must be shorter"
        );
    }

    #[test]
    fn adversary_jobs_run_to_near_consensus() {
        let spec = JobSpec {
            adversary: Some(crate::spec::AdversarySpec {
                kind: "boost-runner-up".to_string(),
                budget: 3,
            }),
            initial: InitialSpec::Counts(vec![350, 150]),
            trials: 4,
            ..base_spec()
        };
        let report = run_job_simple(&spec).unwrap();
        // The adversary resurrects the runner-up every round: trials end by
        // near-consensus (Stopped), not strict consensus.
        assert_eq!(report.summary.stopped, 4);
        assert_eq!(report.summary.capped, 0);
    }

    #[test]
    fn shard_range_restricts_execution_and_merges_byte_stably() {
        let spec = base_spec(); // 12 trials in 3 shards of 4
        let full = run_job_simple(&spec).unwrap();
        let mut merged = ShardSummary::new();
        for range in [(0u64, 1u64), (1, 3)] {
            let options = RunOptions {
                shard_range: Some(range),
                ..RunOptions::default()
            };
            let report = run_job(&spec, &options).unwrap();
            assert_eq!(report.completed_shards, range.1 - range.0);
            assert!(!report.interrupted);
            merged.merge(&report.summary);
        }
        assert_eq!(merged, full.summary);
        assert_eq!(
            merged.to_json().to_string_compact(),
            full.summary.to_json().to_string_compact()
        );
        // An empty range runs nothing.
        let options = RunOptions {
            shard_range: Some((2, 2)),
            ..RunOptions::default()
        };
        let report = run_job(&spec, &options).unwrap();
        assert_eq!(report.summary.trials, 0);
        // Out-of-bounds and inverted ranges are typed spec errors.
        for bad in [(0u64, 4u64), (2, 1)] {
            let options = RunOptions {
                shard_range: Some(bad),
                ..RunOptions::default()
            };
            assert!(matches!(
                run_job(&spec, &options),
                Err(RuntimeError::Spec(_))
            ));
        }
    }

    #[test]
    fn largest_remainder_counts_always_sum_to_the_block_size() {
        // Validation only bounds a block_mix row's sum to 1 ± 1e-6: on a
        // large community the absolute rounding slack exceeds one unit
        // per opinion, and a shortfall used to hang deal_striped while
        // an overage tripped the engine's length asserts.
        let shortfall = largest_remainder_counts(&[0.499_999_5, 0.499_999_5], 10_000_000);
        assert_eq!(shortfall.iter().sum::<u64>(), 10_000_000);
        let overage = largest_remainder_counts(&[0.500_000_5, 0.500_000_5], 10_000_000);
        assert_eq!(overage.iter().sum::<u64>(), 10_000_000);
        // Exact and tiny cases stay exact and deterministic.
        assert_eq!(largest_remainder_counts(&[0.25, 0.75], 4), vec![1, 3]);
        assert_eq!(largest_remainder_counts(&[0.5, 0.5], 5), vec![3, 2]);
        assert_eq!(largest_remainder_counts(&[1.0], 0), vec![0]);
        assert_eq!(largest_remainder_counts(&[0.0, 1.0], 7), vec![0, 7]);
        // A realized layout from a skewed row still covers every slot.
        let counts = largest_remainder_counts(&[0.9, 0.1], 101);
        assert_eq!(counts.iter().sum::<u64>(), 101);
        assert_eq!(deal_striped(&counts, 101).len(), 101);
    }
}
