//! Determinism guarantees of the batched graph engine:
//!
//! * the batched three-pass round is bit-identical across sequential,
//!   rayon-parallel, and every explicit contiguous shard partition at
//!   1, 2, 4, and 8 threads — the partition shapes any thread schedule
//!   can produce (cell randomness is a pure function of the cell, so
//!   shard composition covers arbitrary scheduling) — for every protocol
//!   × graph family, weighted or not, static or temporal (proptest over
//!   `n`, `k`, seeds);
//! * the allocation-free `step_population_into` draws bit-identically to
//!   the allocating `step_population` for every protocol.

use od_core::protocol::{
    GraphProtocol, HMajority, MedianRule, Noisy, StepScratch, SyncProtocol, ThreeMajority,
    TwoChoices, UndecidedDynamics, Voter,
};
use od_core::{BatchedGraph, GraphSimulation, OpinionCounts, RoundScratch};
use od_graphs::{
    barbell, core_periphery, cycle, erdos_renyi, random_regular, repair_isolated, star,
    stochastic_block_model, torus_2d, CompleteWithSelfLoops, CsrGraph, Graph, TemporalGraph,
    TemporalGraphOf, WeightedCsrGraph, WeightedTemporalGraph,
};
use od_sampling::rng_for;
use od_sampling::seeds::derive_seed;
use od_sampling::weighted::{resolve_weight_point, sample_weighted_index};
use proptest::prelude::*;

/// The weighted engine's oracle: the same topology and weights as a
/// [`WeightedCsrGraph`], resolving every point by binary search over the
/// row's inclusive prefix sums.
struct PrefixSearchGraph {
    csr: CsrGraph,
    cum: Vec<u32>,
}

impl PrefixSearchGraph {
    fn new(csr: CsrGraph, weight: impl Fn(usize, usize) -> u32) -> Self {
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

    fn sample_neighbor<R: rand::Rng + ?Sized>(&self, v: usize, rng: &mut R) -> usize {
        self.csr
            .neighbor_at(v, sample_weighted_index(self.row(v), rng))
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        self.csr.neighbors(v)
    }

    fn neighbor_at(&self, v: usize, index: usize) -> usize {
        self.csr.neighbor_at(v, index)
    }
}

impl BatchedGraph for PrefixSearchGraph {
    const POINTS_ARE_INDICES: bool = false;

    fn point_range(&self, v: usize) -> u64 {
        u64::from(self.row(v)[self.row(v).len() - 1])
    }

    /// Never hoisted: every row computes its own threshold, so a hoisting
    /// fault in the kernel cannot cancel out against the oracle.
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

/// Asserts the batched pipeline is bit-identical across sequential,
/// rayon-parallel, and explicit contiguous shard partitions at 1, 2, 4,
/// and 8 threads.
fn check_batched_schedules<P, G>(protocol: P, graph: &G, k: u32, trial_seed: u64)
where
    P: GraphProtocol + Sync,
    G: BatchedGraph + Sync,
{
    let n = graph.n();
    let initial: Vec<u32> = (0..n).map(|v| (v as u32) % k).collect();
    let sim = GraphSimulation::new(protocol, graph).with_max_rounds(40);
    let seq = sim.run_batched(&initial, trial_seed);
    let par = sim.run_batched_par(&initial, trial_seed);
    assert_eq!(seq, par, "batched par != seq on a {n}-vertex graph");

    // Replay the first rounds under every partition a 1/2/4/8-thread
    // schedule could assign, each shard with its own scratch buffers.
    let mut reference = vec![0u32; n];
    let mut scratch = RoundScratch::new();
    let mut src = initial;
    for round in 0..3 {
        sim.step_seq_batched(trial_seed, round, &src, &mut reference, &mut scratch);
        for threads in [1usize, 2, 4, 8] {
            let mut sharded = vec![0u32; n];
            let shard_len = n.div_ceil(threads);
            let mut start = 0usize;
            while start < n {
                let end = (start + shard_len).min(n);
                let mut shard_scratch = RoundScratch::new();
                sim.step_batched_shard(
                    trial_seed,
                    round,
                    start,
                    &src,
                    &mut sharded[start..end],
                    &mut shard_scratch,
                );
                start = end;
            }
            assert_eq!(
                reference, sharded,
                "round {round}: {threads}-thread partition diverged on a {n}-vertex graph"
            );
        }
        src.copy_from_slice(&reference);
    }
}

/// Runs the batched-schedule check for every registered protocol.
fn check_all_protocols_batched<G: BatchedGraph + Sync>(graph: &G, k: u32, trial_seed: u64) {
    check_batched_schedules(ThreeMajority, graph, k, trial_seed);
    check_batched_schedules(TwoChoices, graph, k, trial_seed);
    check_batched_schedules(Voter, graph, k, trial_seed);
    check_batched_schedules(MedianRule, graph, k, trial_seed);
    check_batched_schedules(HMajority::new(5).unwrap(), graph, k, trial_seed);
    check_batched_schedules(UndecidedDynamics::new(k as usize), graph, k + 1, trial_seed);
    check_batched_schedules(
        Noisy::new(ThreeMajority, 0.1, k as usize).unwrap(),
        graph,
        k,
        trial_seed,
    );
}

/// Asserts a temporal schedule — plain or weighted snapshots — runs
/// bit-identically under sequential, rayon-parallel, and manual per-round
/// shard-partition execution, across epoch boundaries.
fn check_temporal_schedules<P, G>(
    protocol: P,
    schedule: &TemporalGraphOf<G>,
    k: u32,
    trial_seed: u64,
) where
    P: GraphProtocol + Sync,
    G: BatchedGraph + Sync,
{
    let n = schedule.n();
    let initial: Vec<u32> = (0..n).map(|v| (v as u32) % k).collect();
    let sim = GraphSimulation::new(&protocol, schedule).with_max_rounds(40);
    let seq = sim.run_batched(&initial, trial_seed);
    let par = sim.run_batched_par(&initial, trial_seed);
    assert_eq!(seq, par, "temporal par != seq on a {n}-vertex schedule");

    // Replay the first rounds manually: per-round snapshot resolution +
    // explicit shard partitions must reproduce the sequential rounds.
    let mut view = schedule.view();
    let mut reference = vec![0u32; n];
    let mut scratch = RoundScratch::new();
    let mut src = initial;
    for round in 0..6 {
        // Spans two epochs for any period <= 3.
        let graph = view.at_round(round);
        let round_sim = GraphSimulation::new(&protocol, graph);
        round_sim.step_seq_batched(trial_seed, round, &src, &mut reference, &mut scratch);
        for threads in [1usize, 2, 4, 8] {
            let mut sharded = vec![0u32; n];
            let shard_len = n.div_ceil(threads);
            let mut start = 0usize;
            while start < n {
                let end = (start + shard_len).min(n);
                let mut shard_scratch = RoundScratch::new();
                round_sim.step_batched_shard(
                    trial_seed,
                    round,
                    start,
                    &src,
                    &mut sharded[start..end],
                    &mut shard_scratch,
                );
                start = end;
            }
            assert_eq!(
                reference, sharded,
                "temporal round {round}: {threads}-thread partition diverged"
            );
        }
        src.copy_from_slice(&reference);
    }
}

/// Runs the temporal-schedule check for every registered protocol.
fn check_all_protocols_temporal<G: BatchedGraph + Sync>(
    schedule: &TemporalGraphOf<G>,
    k: u32,
    trial_seed: u64,
) {
    check_temporal_schedules(ThreeMajority, schedule, k, trial_seed);
    check_temporal_schedules(TwoChoices, schedule, k, trial_seed);
    check_temporal_schedules(Voter, schedule, k, trial_seed);
    check_temporal_schedules(MedianRule, schedule, k, trial_seed);
    check_temporal_schedules(HMajority::new(5).unwrap(), schedule, k, trial_seed);
    check_temporal_schedules(
        UndecidedDynamics::new(k as usize),
        schedule,
        k + 1,
        trial_seed,
    );
    check_temporal_schedules(
        Noisy::new(ThreeMajority, 0.1, k as usize).unwrap(),
        schedule,
        k,
        trial_seed,
    );
}

/// Every generated family at a feasible size, plus the complete graph.
fn generated_families(n: usize, seed: u64) -> Vec<(&'static str, CsrGraph)> {
    let mut rng = rng_for(seed, 0);
    let even = n + n % 2; // feasibility for regular/barbell
    vec![
        ("erdos-renyi", {
            // A cycle backbone keeps every vertex non-isolated (a
            // degree-0 vertex has nothing to pull from).
            let er = erdos_renyi(n, 4.0 / n as f64, &mut rng).unwrap();
            let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
            for v in 0..er.n() {
                for w in er.neighbors(v) {
                    if v < w {
                        edges.push((v, w));
                    }
                }
            }
            CsrGraph::from_edges(n, &edges)
        }),
        (
            "random-regular",
            random_regular(even.max(8), 6, &mut rng).unwrap(),
        ),
        (
            "sbm",
            stochastic_block_model(n.max(4), 0.5, 0.05, &mut rng).unwrap(),
        ),
        ("cycle", cycle(n.max(3))),
        ("torus", torus_2d(4, 5)),
        ("barbell", barbell(even.max(8) / 2)),
        ("core-periphery", core_periphery(4, n)),
        ("star", star(n.max(2))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_pipeline_is_schedule_invariant_everywhere(
        n in 16usize..96,
        k in 2u32..6,
        trial_seed in 0u64..10_000,
        graph_seed in 0u64..1_000,
    ) {
        for (_name, graph) in generated_families(n, graph_seed) {
            check_all_protocols_batched(&graph, k, trial_seed);
        }
        check_all_protocols_batched(&CompleteWithSelfLoops::new(n), k, trial_seed);
    }

    #[test]
    fn weighted_pipeline_is_schedule_invariant_everywhere(
        n in 16usize..96,
        k in 2u32..6,
        trial_seed in 0u64..10_000,
        graph_seed in 0u64..1_000,
    ) {
        for (name, graph) in generated_families(n, graph_seed) {
            if !graph.has_no_isolated_vertices() {
                // A sparse SBM draw can isolate a vertex; weighted
                // construction rejects those rows by design.
                continue;
            }
            // Seeded, symmetric, per-pair pseudo-random weights in
            // [1, 16] — irregular rows exercise the per-vertex
            // threshold path; the +1 floor keeps every row positive.
            let weight = |u: usize, v: usize| {
                let pair = ((u.min(v) as u64) << 32) | u.max(v) as u64;
                (derive_seed(graph_seed, pair) % 16) as u32 + 1
            };
            let weighted = WeightedCsrGraph::from_csr_with(graph.clone(), weight)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            check_all_protocols_batched(&weighted, k, trial_seed);
            // Whole trials must agree bit-for-bit with the same rounds
            // resolved by the binary-search oracle.
            let prefix = PrefixSearchGraph::new(graph, weight);
            let initial: Vec<u32> = (0..prefix.n()).map(|v| (v as u32) % k).collect();
            let via_alias = GraphSimulation::new(ThreeMajority, &weighted)
                .with_max_rounds(40)
                .run_batched(&initial, trial_seed);
            let via_prefix = GraphSimulation::new(ThreeMajority, &prefix)
                .with_max_rounds(40)
                .run_batched(&initial, trial_seed);
            prop_assert!(via_alias == via_prefix, "{name}: engine vs prefix oracle diverged");
        }
    }

    #[test]
    fn weighted_temporal_schedules_are_invariant_everywhere(
        n in 16usize..64,
        k in 2u32..6,
        trial_seed in 0u64..10_000,
        graph_seed in 0u64..1_000,
        period in 1u64..4,
    ) {
        // Periodic weighted snapshots (each with its own weight rows)
        // and a seeded weighted rewiring schedule over *repaired* sparse
        // ER epochs — the families the runtime's rewire repair pass
        // unlocked — checked for every protocol.
        let weight = move |u: usize, v: usize| {
            let pair = ((u.min(v) as u64) << 32) | u.max(v) as u64;
            (derive_seed(graph_seed, pair) % 16) as u32 + 1
        };
        let families = generated_families(n, graph_seed);
        let base_n = families[0].1.n();
        let snapshots: Vec<WeightedCsrGraph> = families
            .into_iter()
            .filter(|(_, g)| g.n() == base_n && g.has_no_isolated_vertices())
            .map(|(_, g)| WeightedCsrGraph::from_csr_with(g, weight).unwrap())
            .take(3)
            .collect();
        let periodic = WeightedTemporalGraph::periodic(snapshots, period).unwrap();
        check_all_protocols_temporal(&periodic, k, trial_seed);

        let m = base_n.max(8);
        let rewiring = WeightedTemporalGraph::rewiring(
            m,
            move |epoch| {
                let mut rng = rng_for(derive_seed(graph_seed, epoch), 0);
                // Sparse enough to isolate vertices regularly: the
                // deterministic repair pass must keep every epoch both
                // sampleable and schedule-invariant.
                let sparse = erdos_renyi(m, 1.5 / m as f64, &mut rng).unwrap();
                WeightedCsrGraph::from_csr_with(repair_isolated(sparse), weight).unwrap()
            },
            period,
        )
        .unwrap();
        check_all_protocols_temporal(&rewiring, k, trial_seed);
    }

    #[test]
    fn temporal_schedules_are_invariant_everywhere(
        n in 16usize..64,
        k in 2u32..6,
        trial_seed in 0u64..10_000,
        graph_seed in 0u64..1_000,
        period in 1u64..4,
    ) {
        // A heterogeneous periodic schedule mixing three families, and a
        // seeded rewiring schedule — both checked for every protocol.
        let families = generated_families(n, graph_seed);
        let base_n = families[0].1.n();
        let snapshots: Vec<CsrGraph> = families
            .into_iter()
            .filter(|(_, g)| g.n() == base_n && g.has_no_isolated_vertices())
            .map(|(_, g)| g)
            .take(3)
            .collect();
        let periodic = TemporalGraph::periodic(snapshots, period).unwrap();
        check_all_protocols_temporal(&periodic, k, trial_seed);

        let rewiring = TemporalGraph::rewiring(
            base_n.max(8),
            move |epoch| {
                let mut rng = rng_for(derive_seed(graph_seed, epoch), 0);
                random_regular(base_n.max(8), 4, &mut rng).unwrap()
            },
            period,
        )
        .unwrap();
        check_all_protocols_temporal(&rewiring, k, trial_seed);
    }

    #[test]
    fn step_population_into_matches_step_population(
        counts in proptest::collection::vec(0u64..80, 2..=6)
            .prop_filter("positive population", |v| v.iter().sum::<u64>() > 0),
        seed in 0u64..10_000,
    ) {
        let start = OpinionCounts::from_counts(counts).unwrap();
        let k = start.k();
        let protocols: Vec<Box<dyn SyncProtocol>> = vec![
            Box::new(ThreeMajority),
            Box::new(TwoChoices),
            Box::new(Voter),
            Box::new(MedianRule),
            Box::new(HMajority::new(5).unwrap()),
            Box::new(UndecidedDynamics::new(k - 1)),
            Box::new(Noisy::new(ThreeMajority, 0.05, k).unwrap()),
        ];
        for protocol in &protocols {
            let mut rng_a = rng_for(seed, 7);
            let mut rng_b = rng_for(seed, 7);
            let allocating = protocol.step_population(&start, &mut rng_a);
            let mut scratch = StepScratch::new();
            let mut into = start.clone();
            protocol.step_population_into(&start, &mut rng_b, &mut scratch, &mut into);
            prop_assert!(
                allocating.counts() == into.counts(),
                "protocol {} diverged: {:?} vs {:?}",
                protocol.name(),
                allocating.counts(),
                into.counts()
            );
            // And the RNGs must have advanced identically.
            prop_assert_eq!(
                rand::Rng::random::<u64>(&mut rng_a),
                rand::Rng::random::<u64>(&mut rng_b)
            );
        }
    }
}

#[test]
fn batched_equals_parallel_batched_at_scale() {
    // Large enough that the parallel step spans multiple PAR_CHUNK work
    // units and the sequential step spans many BATCH_CHUNK sub-chunks.
    let mut rng = rng_for(910, 0);
    let g = random_regular(20_000, 8, &mut rng).unwrap();
    let sim = GraphSimulation::new(ThreeMajority, &g).with_max_rounds(10);
    let initial: Vec<u32> = (0..20_000).map(|v| (v % 5) as u32).collect();
    let seq = sim.run_batched(&initial, 123);
    let par = sim.run_batched_par(&initial, 123);
    assert_eq!(seq, par);
}
