//! Integration: the three engines (population, agent-level, and the
//! batched graph engine on the complete graph) realise the same process,
//! and the asynchronous scheduler matches up to the tick/round
//! correspondence.

use opinion_dynamics::core::protocol::{expand, tally, GraphProtocol, SyncProtocol};
use opinion_dynamics::core::RoundScratch;
use opinion_dynamics::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;

/// Tolerances of the one-round moment checks. Each check runs 3000
/// independent rounds from a 2000-vertex configuration, where the
/// standard error of the mean of `α'(0)` is about 2e-4 and the sample
/// variance has relative error about √(2/3000) ≈ 2.6%. Both tolerances
/// sit near ten standard errors: sampling noise at the pinned seeds
/// passes, a different one-round law does not.
const MEAN_TOL: f64 = 2e-3;
const VAR_REL_TOL: f64 = 0.25;

/// Mean and variance of `α'(0)` under repeated one-round transitions.
fn one_round_moments(
    mut step: impl FnMut(&mut StdRng) -> f64,
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = rng_for(seed, 0);
    let (mut s, mut s2) = (0f64, 0f64);
    for _ in 0..trials {
        let a = step(&mut rng);
        s += a;
        s2 += a * a;
    }
    let mean = s / trials as f64;
    (mean, s2 / trials as f64 - mean * mean)
}

/// One-round moments of `α'(0)` from `start` through the batched graph
/// engine on the complete graph with self-loops; each round draws a
/// fresh trial seed from the moment loop's RNG.
fn batched_graph_moments<P: GraphProtocol>(
    protocol: P,
    start: &OpinionCounts,
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    let n = start.n() as usize;
    let k = start.k();
    let sim = GraphSimulation::new(protocol, CompleteWithSelfLoops::new(n));
    let src = expand(start);
    let mut dst = vec![0u32; n];
    let mut scratch = RoundScratch::new();
    one_round_moments(
        |rng| {
            sim.step_seq_batched(rng.next_u64(), 0, &src, &mut dst, &mut scratch);
            tally(&dst, k).fraction(0)
        },
        trials,
        seed,
    )
}

fn assert_close(label: &str, a: (f64, f64), b: (f64, f64), mean_tol: f64, var_rel_tol: f64) {
    assert!(
        (a.0 - b.0).abs() < mean_tol,
        "{label}: means {} vs {}",
        a.0,
        b.0
    );
    assert!(
        (a.1 / b.1 - 1.0).abs() < var_rel_tol,
        "{label}: variances {} vs {}",
        a.1,
        b.1
    );
}

#[test]
fn three_engines_share_one_round_distribution_three_majority() {
    let start = OpinionCounts::from_counts(vec![1200, 500, 300]).unwrap();
    let k = start.k();
    let trials = 3000;

    let pop = one_round_moments(
        |rng| ThreeMajority.step_population(&start, rng).fraction(0),
        trials,
        1,
    );
    let agents = one_round_moments(
        |rng| {
            let mut ops = expand(&start);
            ThreeMajority.step_agents(&mut ops, rng);
            tally(&ops, k).fraction(0)
        },
        trials,
        2,
    );
    let graph = batched_graph_moments(ThreeMajority, &start, trials, 3);

    assert_close("population vs agents", pop, agents, MEAN_TOL, VAR_REL_TOL);
    assert_close("population vs graph", pop, graph, MEAN_TOL, VAR_REL_TOL);
}

#[test]
fn three_engines_share_one_round_distribution_two_choices() {
    let start = OpinionCounts::from_counts(vec![1200, 500, 300]).unwrap();
    let k = start.k();
    let trials = 3000;

    let pop = one_round_moments(
        |rng| TwoChoices.step_population(&start, rng).fraction(0),
        trials,
        4,
    );
    let agents = one_round_moments(
        |rng| {
            let mut ops = expand(&start);
            TwoChoices.step_agents(&mut ops, rng);
            tally(&ops, k).fraction(0)
        },
        trials,
        5,
    );
    let graph = batched_graph_moments(TwoChoices, &start, trials, 6);
    assert_close("population vs agents", pop, agents, MEAN_TOL, VAR_REL_TOL);
    assert_close("population vs graph", pop, graph, MEAN_TOL, VAR_REL_TOL);
}

/// Population vs batched graph engine for one protocol from
/// `[1200, 500, 300]`, pinned seeds. For the undecided dynamics opinions
/// 0 and 1 are decided and slot 2 is the undecided state.
fn check_population_vs_batched_graph<P: GraphProtocol>(label: &str, protocol: P, seed: u64) {
    let start = OpinionCounts::from_counts(vec![1200, 500, 300]).unwrap();
    let trials = 3000;
    let pop = one_round_moments(
        |rng| protocol.step_population(&start, rng).fraction(0),
        trials,
        seed,
    );
    let graph = batched_graph_moments(&protocol, &start, trials, seed + 1);
    assert_close(label, pop, graph, MEAN_TOL, VAR_REL_TOL);
}

#[test]
fn batched_graph_matches_population_voter() {
    check_population_vs_batched_graph("voter", Voter, 14);
}

#[test]
fn batched_graph_matches_population_median() {
    check_population_vs_batched_graph("median", MedianRule, 16);
}

#[test]
fn batched_graph_matches_population_h_majority() {
    check_population_vs_batched_graph("h-majority", HMajority::new(5).unwrap(), 18);
}

#[test]
fn batched_graph_matches_population_undecided() {
    check_population_vs_batched_graph("undecided", UndecidedDynamics::new(2), 20);
}

#[test]
fn batched_graph_matches_population_noisy_three_majority() {
    let protocol = Noisy::new(ThreeMajority, 0.1, 3).unwrap();
    check_population_vs_batched_graph("noisy-three-majority", protocol, 22);
}

#[test]
fn async_parallel_rounds_match_sync_rounds_scale() {
    let start = OpinionCounts::balanced(1000, 8).unwrap();
    let trials = 8u64;
    let mut sync_mean = 0f64;
    let mut async_mean = 0f64;
    for trial in 0..trials {
        let mut rng = rng_for(6, trial);
        sync_mean += Simulation::new(ThreeMajority).run(&start, &mut rng).rounds as f64;
        let mut rng = rng_for(7, trial);
        async_mean += AsyncSimulation::new(ThreeMajority)
            .run(&start, &mut rng)
            .parallel_rounds;
    }
    sync_mean /= trials as f64;
    async_mean /= trials as f64;
    let ratio = async_mean / sync_mean;
    assert!(
        (0.2..5.0).contains(&ratio),
        "async/sync parallel-round ratio {ratio} outside the constant band \
         (sync {sync_mean}, async {async_mean})"
    );
}

#[test]
fn graph_engine_on_expander_behaves_like_complete_graph() {
    let mut rng = rng_for(8, 0);
    let n = 600usize;
    let expander = opinion_dynamics::graphs::random_regular(n, 8, &mut rng).unwrap();
    let initial: Vec<u32> = (0..n).map(|v| (v % 4) as u32).collect();

    let t_complete = {
        let sim = GraphSimulation::new(ThreeMajority, CompleteWithSelfLoops::new(n))
            .with_max_rounds(50_000);
        sim.run_batched(&initial, rng.next_u64()).rounds
    };
    let t_expander = {
        let sim = GraphSimulation::new(ThreeMajority, expander).with_max_rounds(50_000);
        sim.run_batched(&initial, rng.next_u64()).rounds
    };
    assert!(
        t_expander < 100 * t_complete.max(5),
        "expander time {t_expander} inconsistent with complete-graph time {t_complete}"
    );
}
