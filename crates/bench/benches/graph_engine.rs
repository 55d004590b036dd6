//! The graph-engine trajectory bench, across graph families and sizes:
//!
//! * `old`    — a faithful reproduction of the seed's
//!   `GraphSimulation::step`: `usize` adjacency arrays, per-draw
//!   rejection sampling through `&mut dyn RngCore`, a `dyn
//!   OpinionSource` per vertex, and a full `to_vec()` per round;
//! * `seq_batched` — the batched three-pass pipeline (bit-packed
//!   multi-sample draws → gather → combine), sequential — the engine
//!   every printed ratio is based on;
//! * `par_batched` — the same pipeline on rayon (bit-identical to
//!   `seq_batched`, asserted here every run);
//! * `seq_weighted` / `par_weighted` — the weighted pipeline (weight
//!   points + prefix binary-search resolution) over seeded per-edge
//!   weights in `[1, 8]` on the same topology, measuring the resolution
//!   overhead. It runs on the bench-local `prefix_baseline` graph: the
//!   engine itself resolves through one resolver only, so the search
//!   lives here as the fixed baseline of the alias gate;
//! * `seq_weighted_alias` — the same weighted pipeline on
//!   `WeightedCsrGraph`, the engine's three-tier resolver
//!   (bit-identical to `seq_weighted`, asserted here every run). The
//!   bench **fails** if it is slower than the prefix search on
//!   erdos-renyi at n ≥ 10⁴ — a within-binary ratio over back-to-back
//!   pairs (`gate_*` series), so neither the codegen lottery between
//!   builds nor host drift can fake a regression;
//! * `seq_temporal` — the batched pipeline through a two-snapshot
//!   periodic `TemporalGraph` switching every round (maximal
//!   schedule-switching overhead);
//! * `build`  — generating the family's graph itself at that size
//!   (`random_regular`, `erdos_renyi` plus its cycle backbone, the
//!   lattices), with the seed the rounds run on;
//! * `seq_batched_telem` — `seq_batched` plus the executor's per-trial
//!   telemetry bookkeeping against a disabled [`od_telemetry::NullSink`]
//!   (the `enabled()` check and the guarded emit). The bench **fails**
//!   if the disabled-telemetry path costs more than 2% over bare
//!   `seq_batched` on erdos-renyi at n = 10⁴ — the zero-overhead
//!   contract of the default sink, gated the same paired within-binary
//!   way as the alias series;
//! * `seq_batched_u32` / `seq_batched_u8` — one round on
//!   `random_regular` at n = 250 000 with k = 64 (the graph-sparse
//!   workload's shape), stepping the same kernel over `u32` and over `u8`
//!   opinion arrays, the width the run loop picks for k ≤ 256. Both modes
//!   run it at full size, since the gather's cache misses only show past
//!   L2; the interleaved in-binary ratio `u32/u8` goes into the metadata,
//!   and the bench **fails** if the `u8` round is slower (min-ratio
//!   below 1.0). The graph is the one a graph-sparse job generates (its
//!   seed on the executor's generator stream);
//! * `gate_seq_batched_u8` / `gate_dispatched_u8` — the same `u8` round,
//!   bare (a double-buffered loop of `seq_batched_u8` rounds) against the
//!   round a job dispatches: the `execute` phase of a one-trial
//!   `run_job_with_metrics` job on that graph (registry kernel, executor
//!   dispatch and run loop), both per round, over back-to-back pairs.
//!   The median paired ratio goes into the metadata as
//!   `dispatched_over_bare_rr_n250000`, and the bench **fails** above
//!   `DISPATCHED_OVER_BARE_MAX`: production must run the kernel at its
//!   bare speed.
//!
//! Besides printing timings it writes machine-readable results to
//! `BENCH_graph.json` at the workspace root (override with
//! `OD_BENCH_OUT=<path>`), so the perf trajectory is tracked in-repo.
//! `OD_BENCH_QUICK=1` shrinks sizes for smoke runs.

use od_bench::record::{
    measure, measure_interleaved, measure_paired, measure_paired_timed, write_json, BenchRecord,
};
use od_bench::rng_for;
use od_core::protocol::ThreeMajority;
use od_core::{GraphSimulation, RoundScratch, ScratchPool};
use od_graphs::{
    cycle, erdos_renyi, random_regular, torus_2d, CsrGraph, Graph, OpinionCell, TemporalGraph,
    WeightedCsrGraph,
};
use od_runtime::{run_job_with_metrics, JobSpec, RunOptions};
use od_sampling::seeds::derive_seed;
use od_telemetry::{Event, NullSink, TelemetrySink};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Faithful reproduction of the seed's graph step, kept as the fixed
/// baseline of the recorded trajectory (the live code no longer contains
/// it: the refactor removed the `usize` layout and the `dyn` inner loop).
mod seed_baseline {
    use od_graphs::{CsrGraph, Graph};
    use rand::{Rng, RngCore};

    pub struct OldAdjacencyGraph {
        offsets: Vec<usize>,
        targets: Vec<usize>,
    }

    impl OldAdjacencyGraph {
        pub fn from_csr(g: &CsrGraph) -> Self {
            let mut offsets = Vec::with_capacity(g.n() + 1);
            let mut targets = Vec::new();
            offsets.push(0);
            for v in 0..g.n() {
                targets.extend(g.neighbors(v));
                offsets.push(targets.len());
            }
            Self { offsets, targets }
        }

        fn neighbor_slice(&self, v: usize) -> &[usize] {
            assert!(v + 1 < self.offsets.len(), "vertex {v} out of range");
            &self.targets[self.offsets[v]..self.offsets[v + 1]]
        }

        fn sample_neighbor(&self, v: usize, rng: &mut dyn RngCore) -> usize {
            let nbrs = self.neighbor_slice(v);
            assert!(!nbrs.is_empty(), "vertex {v} has no neighbors");
            nbrs[rng.random_range(0..nbrs.len())]
        }
    }

    trait OpinionSource {
        fn draw(&self, rng: &mut dyn RngCore) -> u32;
    }

    struct NeighborSource<'a> {
        graph: &'a OldAdjacencyGraph,
        vertex: usize,
        opinions: &'a [u32],
    }

    impl OpinionSource for NeighborSource<'_> {
        fn draw(&self, rng: &mut dyn RngCore) -> u32 {
            self.opinions[self.graph.sample_neighbor(self.vertex, rng)]
        }
    }

    fn update_one_3maj(source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        let w1 = source.draw(rng);
        let w2 = source.draw(rng);
        if w1 == w2 {
            w1
        } else {
            source.draw(rng)
        }
    }

    pub fn step(graph: &OldAdjacencyGraph, opinions: &mut [u32], rng: &mut dyn RngCore) {
        let old = opinions.to_vec();
        for (v, slot) in opinions.iter_mut().enumerate() {
            let source = NeighborSource {
                graph,
                vertex: v,
                opinions: &old,
            };
            *slot = update_one_3maj(&source, rng);
        }
    }
}

/// Weighted rows resolved by binary search over their prefix sums: the
/// fixed baseline of the alias gate, kept here because the engine has
/// one resolver. It shares the CSR rows, the gather and the point draws
/// of [`WeightedCsrGraph`]; only the point resolution differs.
mod prefix_baseline {
    use od_core::BatchedGraph;
    use od_graphs::{CsrGraph, Graph, OpinionCell};
    use od_sampling::weighted::{resolve_weight_point, sample_weighted_index};
    use rand::Rng;

    pub struct PrefixSearchGraph {
        csr: CsrGraph,
        cum: Vec<u32>,
    }

    impl PrefixSearchGraph {
        pub fn new(csr: CsrGraph, weight: impl Fn(usize, usize) -> u32) -> Self {
            let mut cum = Vec::new();
            for v in 0..csr.n() {
                let mut acc = 0u32;
                for w in csr.neighbors(v) {
                    acc += weight(v, w);
                    cum.push(acc);
                }
            }
            Self { csr, cum }
        }

        #[inline]
        fn row(&self, v: usize) -> &[u32] {
            let (offsets, _) = self.csr.raw_parts();
            &self.cum[offsets[v] as usize..offsets[v + 1] as usize]
        }
    }

    impl Graph for PrefixSearchGraph {
        fn n(&self) -> usize {
            self.csr.n()
        }

        fn degree(&self, v: usize) -> usize {
            self.csr.degree(v)
        }

        fn sample_neighbor<R: Rng + ?Sized>(&self, v: usize, rng: &mut R) -> usize {
            self.csr
                .neighbor_at(v, sample_weighted_index(self.row(v), rng))
        }

        fn neighbors(&self, v: usize) -> Vec<usize> {
            self.csr.neighbors(v)
        }

        fn neighbor_at(&self, v: usize, index: usize) -> usize {
            self.csr.neighbor_at(v, index)
        }

        fn uniform_degree(&self) -> Option<usize> {
            self.csr.uniform_degree()
        }

        fn gather_opinions<O: OpinionCell>(
            &self,
            v: usize,
            indices: &[u32],
            opinions: &[O],
            out: &mut [u32],
        ) {
            self.csr.gather_opinions(v, indices, opinions, out);
        }
    }

    impl BatchedGraph for PrefixSearchGraph {
        const POINTS_ARE_INDICES: bool = false;

        fn point_range(&self, v: usize) -> u64 {
            let row = self.row(v);
            u64::from(row[row.len() - 1])
        }

        /// The bench's seeded weights never give every row one total, so
        /// `WeightedCsrGraph` finds no common range on these graphs either.
        fn uniform_point_range(&self) -> Option<u64> {
            None
        }

        fn resolve(&self, v: usize, points: &mut [u32]) {
            let row = self.row(v);
            for p in points {
                *p = resolve_weight_point(row, *p) as u32;
            }
        }
    }
}

/// One batched sequential round over opinion cells of width `O`, behind
/// an uninlinable boundary: the plain `seq_batched` series and the
/// telemetry variant both time THIS function, so they share one copy of
/// the pipeline's machine code and their ratio isolates the telemetry
/// bookkeeping itself (otherwise each closure monomorphizes its own copy
/// and the codegen lottery between the two copies drowns the ~ns being
/// measured). The narrow-cell series time its `u32` and `u8` copies.
#[inline(never)]
fn batched_round<O: OpinionCell>(
    sim: &GraphSimulation<ThreeMajority, &CsrGraph>,
    round: u64,
    src: &[O],
    dst: &mut [O],
    scratch: &mut RoundScratch,
) {
    sim.step_seq_batched(7, round, src, dst, scratch);
}

/// The `model name` line of `/proc/cpuinfo`, where there is one.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn build_family(name: &str, n: usize) -> CsrGraph {
    build_family_seeded(name, n, 0xBE7C4)
}

fn build_family_seeded(name: &str, n: usize, seed: u64) -> CsrGraph {
    let mut rng = rng_for(seed, 0);
    match name {
        // Mean degree 10, plus a cycle backbone so no vertex is isolated.
        "erdos_renyi" => {
            let er = erdos_renyi(n, 10.0 / n as f64, &mut rng).unwrap();
            let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
            for v in 0..n {
                for w in er.neighbors(v) {
                    if v < w {
                        edges.push((v, w));
                    }
                }
            }
            CsrGraph::from_edges(n, &edges)
        }
        "random_regular" => random_regular(n, 8, &mut rng).unwrap(),
        "torus" => {
            let side = (n as f64).sqrt() as usize;
            torus_2d(side, side)
        }
        "cycle" => cycle(n),
        other => panic!("unknown family {other}"),
    }
}

/// The graph-sparse workload's graph seed, and the generator stream the
/// executor reserves for graphs: the narrow-cell series and the
/// dispatched-round gate step the very graph a graph-sparse job builds.
const CELL_GRAPH_SEED: u64 = 20_250_304;
const GRAPH_STREAM: u64 = 0x6f64_2d67_7261_7068; // "od-graph"

/// Rounds of each dispatched-gate sample: one job trial capped at this
/// many rounds against as many bare rounds.
const GATE_ROUNDS: u32 = 10;

/// Upper bound of the median paired ratio dispatched/bare per `u8`
/// round on the graph-sparse shape. On a 2-vCPU Xeon it read 0.92–1.07
/// over 11 quick runs and 1.02–1.03 in full runs once the per-vertex
/// path was inlined, and 1.30–1.55 before.
const DISPATCHED_OVER_BARE_MAX: f64 = 1.15;

/// Back-to-back pairs behind each gated ratio (alias/prefix and
/// telemetry/bare), in quick and full runs alike. One round is
/// 0.1–0.5 ms at n = 10^4, so the pairs cost about a second.
const GATE_PAIRS: u32 = 1_000;

fn main() {
    let quick = std::env::var("OD_BENCH_QUICK").is_ok();
    // Quick mode keeps n = 10^4 so the alias-vs-prefix gate below runs
    // under CI's bench smoke, not only in full recorded runs.
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let samples = if quick { 3 } else { 10 };
    // Both the effective rayon worker count and the raw detected core
    // count go into the metadata: on pinned/cgroup-limited CI hosts the
    // two can differ, and multi-core trajectory runs are uninterpretable
    // without them.
    let threads = rayon::current_num_threads();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!("== bench group: graph_engine (one 3-Majority round) ==");
    let mut results: Vec<BenchRecord> = Vec::new();
    // (n, alias/prefix mean ratio, median paired ratio) on erdos-renyi
    // — the gated series.
    let mut er_alias_ratios: Vec<(usize, f64, f64)> = Vec::new();
    // (n, telem/batched mean ratio, median paired ratio) on erdos-renyi —
    // the disabled-sink zero-overhead gate.
    let mut er_telem_ratios: Vec<(usize, f64, f64)> = Vec::new();

    for &n in sizes {
        for family in ["erdos_renyi", "random_regular", "torus", "cycle"] {
            let graph = build_family(family, n);
            let n = graph.n(); // torus rounds down to side²
            let initial: Vec<u32> = (0..n).map(|v| (v % 8) as u32).collect();
            let sim = GraphSimulation::new(ThreeMajority, &graph);
            let src = initial.clone();

            // Weighted companion graphs: same topology, same seeded
            // per-edge weights in [1, 8], resolved by the prefix-search
            // baseline and by the engine's resolver — isolating the cost
            // of the point resolution itself against both the unweighted
            // pipeline and the other resolution.
            let weight = |u: usize, v: usize| {
                let pair = ((u.min(v) as u64) << 32) | u.max(v) as u64;
                (derive_seed(0x5EED_BE7C4, pair) % 8) as u32 + 1
            };
            let weighted = prefix_baseline::PrefixSearchGraph::new(graph.clone(), weight);
            let weighted_alias = WeightedCsrGraph::from_csr_with(graph.clone(), weight)
                .expect("bench families have no isolated vertices");
            let wsim = GraphSimulation::new(ThreeMajority, &weighted);
            let wsim_alias = GraphSimulation::new(ThreeMajority, &weighted_alias);
            // Temporal companion: two snapshots of the same family
            // switching every round — the maximal-churn schedule.
            let alt = build_family_seeded(family, n, 0xA17E7);
            let schedule = TemporalGraph::periodic(vec![graph.clone(), alt], 1)
                .expect("snapshots share the vertex count");

            // Bit-identity checks before timing anything.
            {
                let mut dst = vec![0u32; n];
                let mut other = vec![0u32; n];
                sim.step_seq_batched(7, 0, &src, &mut dst, &mut RoundScratch::new());
                sim.step_par_batched(7, 0, &src, &mut other, &ScratchPool::new());
                assert_eq!(dst, other, "parallel batched round diverged");
                wsim.step_seq_batched(7, 0, &src, &mut dst, &mut RoundScratch::new());
                wsim.step_par_batched(7, 0, &src, &mut other, &ScratchPool::new());
                assert_eq!(dst, other, "parallel weighted round diverged");
                wsim_alias.step_seq_batched(7, 0, &src, &mut other, &mut RoundScratch::new());
                assert_eq!(dst, other, "alias resolution diverged from prefix search");
                assert_eq!(
                    weighted_alias.uniform_row_weight(),
                    None,
                    "baseline hoists none"
                );
            }

            // Every series is timed with its samples interleaved,
            // so host-load and frequency drift hit every series equally
            // and the recorded ratios stay honest.
            let old_graph = seed_baseline::OldAdjacencyGraph::from_csr(&graph);
            let mut rng_old = rng_for(0xBE7C4, 2);
            let mut ops_old = initial.clone();
            let (mut dst_sb, mut round_sb) = (vec![0u32; n], 0u64);
            let (mut dst_pb, mut round_pb) = (vec![0u32; n], 0u64);
            let (mut dst_sw, mut round_sw) = (vec![0u32; n], 0u64);
            let (mut dst_sa, mut round_sa) = (vec![0u32; n], 0u64);
            let (mut dst_pw, mut round_pw) = (vec![0u32; n], 0u64);
            let (mut dst_st, mut round_st) = (vec![0u32; n], 0u64);
            let (mut dst_bt, mut round_bt) = (vec![0u32; n], 0u64);
            let mut scratch = RoundScratch::new();
            let pool = ScratchPool::new();
            let mut scratch_w = RoundScratch::new();
            let mut scratch_a = RoundScratch::new();
            let pool_w = ScratchPool::new();
            let mut scratch_t = RoundScratch::new();
            let mut scratch_bt = RoundScratch::new();
            let telem_sink: &dyn TelemetrySink = &NullSink;
            let mut tview = schedule.view();
            let id = |engine: &str| format!("{family}/n={n}/{engine}");
            results.push(measure(id("build"), 0, samples, || {
                black_box(build_family(family, n));
            }));
            let family_results = measure_interleaved(
                1,
                samples,
                vec![
                    (
                        // The seed's engine, reproduced byte-for-byte in
                        // shape.
                        id("old"),
                        Box::new(|| {
                            ops_old.copy_from_slice(&initial);
                            seed_baseline::step(&old_graph, &mut ops_old, &mut rng_old);
                            black_box(&ops_old);
                        }),
                    ),
                    (
                        // Batched three-pass pipeline (through the
                        // shared uninlined round, see `batched_round`;
                        // src is read-only: each sample steps a fresh
                        // round from the same state).
                        id("seq_batched"),
                        Box::new(|| {
                            batched_round(&sim, round_sb, &src, &mut dst_sb, &mut scratch);
                            round_sb += 1;
                            black_box(&dst_sb);
                        }),
                    ),
                    (
                        id("par_batched"),
                        Box::new(|| {
                            sim.step_par_batched(7, round_pb, &src, &mut dst_pb, &pool);
                            round_pb += 1;
                            black_box(&dst_pb);
                        }),
                    ),
                    (
                        // Weighted pipeline: weight points + prefix
                        // resolution over seeded [1, 8] edge weights.
                        id("seq_weighted"),
                        Box::new(|| {
                            wsim.step_seq_batched(7, round_sw, &src, &mut dst_sw, &mut scratch_w);
                            round_sw += 1;
                            black_box(&dst_sw);
                        }),
                    ),
                    (
                        // The same weighted pipeline resolving through
                        // the per-row alias bucket indexes.
                        id("seq_weighted_alias"),
                        Box::new(|| {
                            wsim_alias.step_seq_batched(
                                7,
                                round_sa,
                                &src,
                                &mut dst_sa,
                                &mut scratch_a,
                            );
                            round_sa += 1;
                            black_box(&dst_sa);
                        }),
                    ),
                    (
                        id("par_weighted"),
                        Box::new(|| {
                            wsim.step_par_batched(7, round_pw, &src, &mut dst_pw, &pool_w);
                            round_pw += 1;
                            black_box(&dst_pw);
                        }),
                    ),
                    (
                        // seq_batched plus the executor's per-trial
                        // telemetry bookkeeping on the disabled sink:
                        // this is exactly what every trial pays when no
                        // sink is configured, and it must cost nothing.
                        id("seq_batched_telem"),
                        Box::new(|| {
                            batched_round(&sim, round_bt, &src, &mut dst_bt, &mut scratch_bt);
                            if telem_sink.enabled() {
                                telem_sink.emit(&Event::Trial {
                                    shard: 0,
                                    trial: round_bt,
                                    rounds: round_bt,
                                    outcome: "consensus",
                                    winner: None,
                                });
                            }
                            round_bt += 1;
                            black_box(&dst_bt);
                        }),
                    ),
                    (
                        // Temporal schedule, switching snapshots every
                        // round (the worst case for snapshot locality).
                        id("seq_temporal"),
                        Box::new(|| {
                            GraphSimulation::new(ThreeMajority, tview.at_round(round_st))
                                .step_seq_batched(7, round_st, &src, &mut dst_st, &mut scratch_t);
                            round_st += 1;
                            black_box(&dst_st);
                        }),
                    ),
                ],
            );
            let mean_of = |engine: &str| {
                family_results
                    .iter()
                    .find(|r| r.id == id(engine))
                    .expect("measured engine")
                    .mean_ns
            };
            let batched_over_old = mean_of("old") / mean_of("seq_batched");
            let par_over_batched = mean_of("par_batched") / mean_of("seq_batched");
            let weighted_overhead = mean_of("seq_weighted") / mean_of("seq_batched");
            let alias_overhead = mean_of("seq_weighted_alias") / mean_of("seq_batched");
            let alias_over_prefix = mean_of("seq_weighted_alias") / mean_of("seq_weighted");
            let telem_over_batched = mean_of("seq_batched_telem") / mean_of("seq_batched");
            let temporal_overhead = mean_of("seq_temporal") / mean_of("seq_batched");
            println!(
                "  {family}/n={n}: old/seq_batched = {batched_over_old:.2}x, \
                 par/batched = {par_over_batched:.2}x, \
                 weighted/batched = {weighted_overhead:.2}x, \
                 alias/batched = {alias_overhead:.2}x, \
                 alias/prefix = {alias_over_prefix:.2}x, \
                 telem/batched = {telem_over_batched:.2}x, \
                 temporal/batched = {temporal_overhead:.2}x ({threads} threads)"
            );
            results.extend(family_results);
            // The gated alias and telemetry ratios: the median per-pair
            // ratio over GATE_PAIRS back-to-back pairs each (see
            // `measure_paired` for why not a ratio of minima).
            if family == "erdos_renyi" {
                // The telemetry pair steps into one shared destination
                // and scratch, so the two series differ only in the
                // disabled-sink check, not in where the allocator put
                // their buffers.
                let shared = RefCell::new((vec![0u32; n], RoundScratch::new()));
                let (telem, telem_ratio) = measure_paired(
                    3,
                    GATE_PAIRS,
                    (id("gate_seq_batched"), &mut || {
                        let (dst, scratch) = &mut *shared.borrow_mut();
                        batched_round(&sim, round_sb, &src, dst, scratch);
                        round_sb += 1;
                        black_box(dst);
                    }),
                    (id("gate_seq_batched_telem"), &mut || {
                        let (dst, scratch) = &mut *shared.borrow_mut();
                        batched_round(&sim, round_bt, &src, dst, scratch);
                        if telem_sink.enabled() {
                            telem_sink.emit(&Event::Trial {
                                shard: 0,
                                trial: round_bt,
                                rounds: round_bt,
                                outcome: "consensus",
                                winner: None,
                            });
                        }
                        round_bt += 1;
                        black_box(dst);
                    }),
                );
                let (alias, alias_ratio) = measure_paired(
                    3,
                    GATE_PAIRS,
                    (id("gate_seq_weighted"), &mut || {
                        wsim.step_seq_batched(7, round_sw, &src, &mut dst_sw, &mut scratch_w);
                        round_sw += 1;
                        black_box(&dst_sw);
                    }),
                    (id("gate_seq_weighted_alias"), &mut || {
                        wsim_alias.step_seq_batched(7, round_sa, &src, &mut dst_sa, &mut scratch_a);
                        round_sa += 1;
                        black_box(&dst_sa);
                    }),
                );
                er_telem_ratios.push((n, telem[1].mean_ns / telem[0].mean_ns, telem_ratio));
                er_alias_ratios.push((n, alias_over_prefix, alias_ratio));
                results.extend(telem);
                results.extend(alias);
            }
        }
    }

    // Narrow opinion cells on the graph-sparse shape: the same round
    // stepped over u32 and u8 arrays, samples interleaved. Checked
    // bit-identical first: the width is storage only.
    let cell_n = 250_000usize;
    let cell_graph = random_regular(cell_n, 8, &mut rng_for(CELL_GRAPH_SEED, GRAPH_STREAM))
        .expect("the graph-sparse graph generates");
    let cell_sim = GraphSimulation::new(ThreeMajority, &cell_graph);
    let wide_src: Vec<u32> = (0..cell_n).map(|v| (v % 64) as u32).collect();
    let narrow_src: Vec<u8> = wide_src.iter().map(|&o| o as u8).collect();
    {
        let mut wide = vec![0u32; cell_n];
        let mut narrow = vec![0u8; cell_n];
        cell_sim.step_seq_batched(7, 0, &wide_src, &mut wide, &mut RoundScratch::new());
        cell_sim.step_seq_batched(7, 0, &narrow_src, &mut narrow, &mut RoundScratch::new());
        assert!(
            wide.iter().zip(&narrow).all(|(&w, &c)| w == u32::from(c)),
            "u8 round diverged from u32"
        );
    }
    let (mut wide_dst, mut wide_round) = (vec![0u32; cell_n], 0u64);
    let (mut narrow_dst, mut narrow_round) = (vec![0u8; cell_n], 0u64);
    let mut wide_scratch = RoundScratch::new();
    let mut narrow_scratch = RoundScratch::new();
    let cell_id = |engine: &str| format!("random_regular/n={cell_n}/{engine}");
    let cell_results = measure_interleaved(
        3,
        samples * 6,
        vec![
            (
                cell_id("seq_batched_u32"),
                Box::new(|| {
                    batched_round(
                        &cell_sim,
                        wide_round,
                        &wide_src,
                        &mut wide_dst,
                        &mut wide_scratch,
                    );
                    wide_round += 1;
                    black_box(&wide_dst);
                }),
            ),
            (
                cell_id("seq_batched_u8"),
                Box::new(|| {
                    batched_round(
                        &cell_sim,
                        narrow_round,
                        &narrow_src,
                        &mut narrow_dst,
                        &mut narrow_scratch,
                    );
                    narrow_round += 1;
                    black_box(&narrow_dst);
                }),
            ),
        ],
    );
    let u32_over_u8 = cell_results[0].mean_ns / cell_results[1].mean_ns;
    let u32_over_u8_min = cell_results[0].min_ns / cell_results[1].min_ns;
    println!(
        "  random_regular/n={cell_n} k=64: seq_batched u32/u8 = {u32_over_u8:.2}x \
         (min-ratio {u32_over_u8_min:.2}x)"
    );
    results.extend(cell_results);

    // The dispatched-round gate on the same graph and opinions: one
    // trial of a graph job through `run_job_with_metrics` (its `execute`
    // phase, so the graph build the job repeats is left out) against as
    // many bare rounds double-buffered the way the run loop steps them.
    let job = JobSpec::from_json_text(&format!(
        r#"{{
  "name": "bench dispatched round",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": {cell_n}, "k": 64}},
  "trials": 1,
  "master_seed": 7,
  "max_rounds": {GATE_ROUNDS},
  "graph": {{"family": "random-regular", "d": 8, "assignment": "striped", "seed": {CELL_GRAPH_SEED}}}
}}"#
    ))
    .expect("gate job spec");
    let (mut current, mut next) = (narrow_src.clone(), vec![0u8; cell_n]);
    let (gate, dispatched_over_bare) = measure_paired_timed(
        1,
        if quick { 15 } else { 40 },
        (cell_id("gate_seq_batched_u8"), &mut || {
            current.copy_from_slice(&narrow_src);
            let t0 = Instant::now();
            for round in 0..u64::from(GATE_ROUNDS) {
                batched_round(&cell_sim, round, &current, &mut next, &mut narrow_scratch);
                std::mem::swap(&mut current, &mut next);
            }
            let elapsed = t0.elapsed();
            black_box(&current);
            elapsed / GATE_ROUNDS
        }),
        (cell_id("gate_dispatched_u8"), &mut || {
            let (report, metrics) =
                run_job_with_metrics(&job, &RunOptions::default()).expect("gate job runs");
            assert_eq!(
                report.summary.capped, 1,
                "the gate trial must run every round"
            );
            let (_, us) = metrics
                .phases
                .iter()
                .find(|(phase, _)| *phase == "execute")
                .expect("execute phase timed");
            Duration::from_micros(*us) / GATE_ROUNDS
        }),
    );
    println!(
        "  random_regular/n={cell_n} k=64: dispatched/bare u8 round = \
         {dispatched_over_bare:.2}x (median paired ratio)"
    );
    results.extend(gate);

    // Multi-process orchestration overhead series: one small job,
    // measured end-to-end through the real `od-run` binary both
    // single-process and as `--orchestrate 1` (supervisor + one child
    // over the file protocol). The difference is the price of process
    // fan-out itself — spawn, lease traffic, supervisor polling, and
    // the checkpoint merge — which must stay bounded even on a 1-vCPU
    // CI host where parallelism cannot pay for any of it.
    let mut proc_par_overhead_min_ns: Option<f64> = None;
    let od_run_bin = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.parent()?.join("od-run")))
        .filter(|p| p.exists());
    match od_run_bin {
        None => println!(
            "  proc_par series skipped: od-run not found next to the bench binary \
             (build it with `cargo build --release -p od-runtime --bins`)"
        ),
        Some(od_run) => {
            let dir = std::env::temp_dir().join(format!("od_bench_proc_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("bench temp dir");
            let job_path = dir.join("job.json");
            std::fs::write(
                &job_path,
                r#"{
  "name": "bench_proc",
  "protocol": {"name": "three-majority"},
  "initial": {"kind": "balanced", "n": 2000, "k": 4},
  "trials": 8,
  "master_seed": 77,
  "max_rounds": 100000,
  "shard_size": 2
}"#,
            )
            .expect("bench job file");
            let checkpoint = dir.join("job.json.checkpoint.json");
            let proc_samples = if quick { 2 } else { 4 };
            let run = |extra: &[&str]| {
                // A fresh checkpoint every sample: resume would turn
                // the single-process run into a no-op.
                let _ = std::fs::remove_file(&checkpoint);
                let status = std::process::Command::new(&od_run)
                    .arg(&job_path)
                    .args(extra)
                    .arg("--quiet")
                    .stdout(std::process::Stdio::null())
                    .status()
                    .expect("running od-run");
                assert!(status.success(), "bench od-run run failed: {status}");
            };
            let proc_results = measure_interleaved(
                1,
                proc_samples,
                vec![
                    (
                        "proc/n=2000/seq_single_process".to_string(),
                        Box::new(|| run(&[])),
                    ),
                    (
                        "proc/n=2000/proc_par".to_string(),
                        Box::new(|| run(&["--orchestrate", "1"])),
                    ),
                ],
            );
            let overhead = proc_results[1].min_ns - proc_results[0].min_ns;
            println!(
                "  proc/n=2000: proc_par/seq_single_process = {:.2}x \
                 (min spawn+merge overhead {:.0} ms)",
                proc_results[1].mean_ns / proc_results[0].mean_ns,
                overhead / 1e6
            );
            proc_par_overhead_min_ns = Some(overhead);
            results.extend(proc_results);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let out_path = std::env::var("OD_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_graph.json")
        },
        PathBuf::from,
    );
    let mut meta = vec![
        ("threads", threads.to_string()),
        ("host_cores", host_cores.to_string()),
        ("protocol", "three-majority".to_string()),
        ("quick", quick.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
        ("os", std::env::consts::OS.to_string()),
        (
            "cpu_model",
            cpu_model().unwrap_or_else(|| "unknown".to_string()),
        ),
        ("u32_over_u8_rr_n250000", format!("{u32_over_u8:.4}")),
        (
            "u32_over_u8_min_rr_n250000",
            format!("{u32_over_u8_min:.4}"),
        ),
        (
            "dispatched_over_bare_rr_n250000",
            format!("{dispatched_over_bare:.4}"),
        ),
    ];
    let ratio_10k = er_alias_ratios
        .iter()
        .find(|&&(n, _, _)| n == 10_000)
        .map(|&(_, r, _)| r);
    let ratio_100k = er_alias_ratios
        .iter()
        .find(|&&(n, _, _)| n == 100_000)
        .map(|&(_, r, _)| r);
    let paired_ratio_10k = er_alias_ratios
        .iter()
        .find(|&&(n, _, _)| n == 10_000)
        .map(|&(_, _, r)| r);
    if let Some(r) = ratio_10k {
        meta.push(("alias_over_prefix_er_n10000", format!("{r:.4}")));
    }
    if let Some(r) = ratio_100k {
        meta.push(("alias_over_prefix_er_n100000", format!("{r:.4}")));
    }
    let telem_ratio_10k = er_telem_ratios
        .iter()
        .find(|&&(n, _, _)| n == 10_000)
        .map(|&(_, r, _)| r);
    let telem_paired_ratio_10k = er_telem_ratios
        .iter()
        .find(|&&(n, _, _)| n == 10_000)
        .map(|&(_, _, r)| r);
    if let Some(r) = telem_ratio_10k {
        meta.push(("telem_over_batched_er_n10000", format!("{r:.4}")));
    }
    if let Some(ns) = proc_par_overhead_min_ns {
        meta.push(("proc_par_overhead_min_ms", format!("{:.1}", ns / 1e6)));
    }
    write_json(&out_path, "graph_engine", &meta, &results).expect("writing bench output");
    println!("wrote {}", out_path.display());
    // Mirror the artifact as `bench` telemetry events when asked
    // (`OD_BENCH_TELEMETRY_OUT=<path.jsonl>`), so bench runs share the
    // runtime's event schema and its validator.
    if let Ok(path) = std::env::var("OD_BENCH_TELEMETRY_OUT") {
        let sink = od_telemetry::JsonlSink::create(std::path::Path::new(&path))
            .expect("creating bench telemetry file");
        for r in &results {
            sink.emit(&Event::Bench {
                series: &r.id,
                mean_ns: r.mean_ns,
                min_ns: r.min_ns,
                samples: u64::from(r.samples),
            });
        }
        sink.flush();
        println!("wrote {path}");
    }
    // The in-binary alias gate: within this binary, samples interleaved,
    // alias resolution must not be slower than the prefix binary search
    // on erdos-renyi at n = 10^4 (and is reported at 10^5 in full runs).
    // The gate reads the median per-pair ratio over GATE_PAIRS
    // back-to-back pairs (see `measure_paired`) with a 2% epsilon for
    // timer granularity, and runs after the JSON is written so a
    // failing run still leaves the artifact.
    if let Some(r) = paired_ratio_10k {
        assert!(
            r <= 1.02,
            "alias resolution regressed: median paired seq_weighted_alias/seq_weighted = \
             {r:.3} > 1.02 on erdos_renyi at n = 10000 (within-binary paired ratio)"
        );
        println!("alias gate passed: paired ratio alias/prefix = {r:.3} at erdos_renyi n=10000");
    }
    // The disabled-telemetry gate: the NullSink per-trial bookkeeping
    // must be free — same paired statistic, same epsilon.
    if let Some(r) = telem_paired_ratio_10k {
        assert!(
            r <= 1.02,
            "disabled telemetry is no longer free: median paired \
             seq_batched_telem/seq_batched = {r:.3} > 1.02 on erdos_renyi at n = 10000 \
             (within-binary paired ratio)"
        );
        println!(
            "telemetry gate passed: paired ratio telem/batched = {r:.3} at erdos_renyi n=10000"
        );
    }
    // The narrow-cell gate: at k = 64 on the graph-sparse shape the u8
    // round must not be slower than the u32 one — an interleaved
    // min-ratio statistic. 33 quick-mode runs on a 2-vCPU Xeon (2 MiB L2
    // per core) read min-ratios of 1.48–2.21, so the bound leaves a wide
    // margin for hosts whose L2 holds more of the u32 array.
    assert!(
        u32_over_u8_min >= 1.0,
        "narrow opinion cells regressed: min(seq_batched_u32)/min(seq_batched_u8) = \
         {u32_over_u8_min:.3} < 1.0 on random_regular at n = {cell_n}, k = 64 \
         (within-binary interleaved ratio)"
    );
    println!("narrow-cell gate passed: min-ratio u32/u8 = {u32_over_u8_min:.3} at random_regular n={cell_n}");
    // The dispatched-round gate: the round production runs must cost
    // what the bare kernel does, up to the bound.
    assert!(
        dispatched_over_bare <= DISPATCHED_OVER_BARE_MAX,
        "the dispatched graph round is slower than the bare kernel: median paired \
         gate_dispatched_u8/gate_seq_batched_u8 = {dispatched_over_bare:.3} > \
         {DISPATCHED_OVER_BARE_MAX} on random_regular at n = {cell_n}, k = 64 \
         (within-binary paired ratio)"
    );
    println!(
        "dispatched-round gate passed: paired ratio dispatched/bare = \
         {dispatched_over_bare:.3} at random_regular n={cell_n}"
    );
    // The orchestration-overhead gate: process fan-out may only cost a
    // bounded constant over the single-process run of the same job
    // (supervisor polling, one spawn, lease traffic, checkpoint merge).
    // An absolute bound, not a ratio: the job is deliberately tiny, so
    // a ratio would measure the job instead of the machinery. Uses the
    // interleaved minima — noise on a shared host only adds time.
    if let Some(ns) = proc_par_overhead_min_ns {
        assert!(
            ns <= 2.5e9,
            "orchestration overhead regressed: min(proc_par) - min(seq_single_process) = \
             {:.0} ms > 2500 ms for an 8-trial job with one worker",
            ns / 1e6
        );
        println!(
            "orchestration gate passed: spawn+merge overhead {:.0} ms at n=2000",
            ns / 1e6
        );
    }
}
