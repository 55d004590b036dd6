//! Integration: the three engines (population, agent-level, and the
//! batched graph engine on the complete graph) realise the same process,
//! 3-Majority and 2-Choices each realise the paper's one-round law, and
//! the asynchronous scheduler matches up to the tick/round
//! correspondence.

use opinion_dynamics::analysis::quantities::{
    bias_growth_rate_lower, expected_next_fractions, var_alpha_exact_three_majority,
    var_alpha_exact_two_choices, var_delta_lower,
};
use opinion_dynamics::core::protocol::{expand, tally, GraphProtocol, SyncProtocol};
use opinion_dynamics::core::registry::{
    build_graph_protocol, build_protocol, GraphProtocolKind, ProtocolParams,
};
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

/// The start of the 3-Majority and 2-Choices law checks:
/// α = (0.6, 0.25, 0.15), γ = 0.445.
const LAW_START: [u64; 3] = [1200, 500, 300];

/// The paper's mean and variance of `α'(0)` after one round from
/// `start`: the mean of eq. (5) (the same for both dynamics, eq. (1)),
/// and the exact variance of eq. (22) for 3-Majority or eq. (25) for
/// 2-Choices. At [`LAW_START`] the two variances are 1.06e-4 and
/// 6.94e-5, 53% apart.
fn law_moments(dynamics: Dynamics, start: &OpinionCounts) -> (f64, f64) {
    let (alpha, gamma, n) = (start.fraction(0), start.gamma(), start.n());
    let var = match dynamics {
        Dynamics::ThreeMajority => var_alpha_exact_three_majority(alpha, gamma, n),
        Dynamics::TwoChoices => var_alpha_exact_two_choices(alpha, gamma, n),
    };
    (expected_next_fractions(start)[0], var)
}

/// `α'(0)`, the statistic of the moment checks.
fn alpha_0(counts: &OpinionCounts) -> f64 {
    counts.fraction(0)
}

/// Mean and variance of a statistic under repeated one-round
/// transitions.
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

/// One-round moments of `stat` from `start` through the batched graph
/// engine on the complete graph with self-loops; each round draws a
/// fresh trial seed from the moment loop's RNG.
fn batched_graph_moments<P: GraphProtocol>(
    protocol: P,
    start: &OpinionCounts,
    stat: fn(&OpinionCounts) -> f64,
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
            stat(&tally(&dst, k))
        },
        trials,
        seed,
    )
}

/// [`batched_graph_moments`] of the graph kernel the registry builds
/// for `name` (the object the executor dispatches), for 3-Majority or
/// 2-Choices.
fn dispatched_graph_moments(
    name: &str,
    start: &OpinionCounts,
    stat: fn(&OpinionCounts) -> f64,
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    match build_graph_protocol(name, &ProtocolParams::new()).unwrap() {
        GraphProtocolKind::ThreeMajority(p) => batched_graph_moments(p, start, stat, trials, seed),
        GraphProtocolKind::TwoChoices(p) => batched_graph_moments(p, start, stat, trials, seed),
        other => panic!("no closed-form law for {}", other.name()),
    }
}

/// One-round moments of `stat` from `start` through the population
/// round of the protocol the registry builds for `name`.
fn population_moments(
    name: &str,
    start: &OpinionCounts,
    stat: fn(&OpinionCounts) -> f64,
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    let protocol = build_protocol(name, &ProtocolParams::new()).unwrap();
    one_round_moments(
        |rng| stat(&protocol.step_population(start, rng)),
        trials,
        seed,
    )
}

/// Why the `(mean, variance)` pairs `a` and `b` differ beyond
/// [`MEAN_TOL`] and [`VAR_REL_TOL`], if they do.
fn mismatch(a: (f64, f64), b: (f64, f64)) -> Option<String> {
    if (a.0 - b.0).abs() >= MEAN_TOL {
        Some(format!("means {} vs {}", a.0, b.0))
    } else if (a.1 / b.1 - 1.0).abs() >= VAR_REL_TOL {
        Some(format!("variances {} vs {}", a.1, b.1))
    } else {
        None
    }
}

fn assert_close(label: &str, a: (f64, f64), b: (f64, f64)) {
    if let Some(why) = mismatch(a, b) {
        panic!("{label}: {why}");
    }
}

/// The one-round moments of `α'(0)` from [`LAW_START`] through the
/// population round of the registry-built protocol, the agent-level
/// round, and the batched graph round on the complete graph of the
/// registry-built graph kernel (the objects the executor dispatches).
/// Each must match the other engines and the protocol's law, and miss
/// the other protocol's law.
fn check_engines_and_law<P: SyncProtocol>(
    name: &str,
    agents_protocol: P,
    dynamics: Dynamics,
    other: Dynamics,
    seeds: [u64; 3],
) {
    let start = OpinionCounts::from_counts(LAW_START.to_vec()).unwrap();
    let k = start.k();
    let trials = 3000;

    let pop = population_moments(name, &start, alpha_0, trials, seeds[0]);
    let agents = one_round_moments(
        |rng| {
            let mut ops = expand(&start);
            agents_protocol.step_agents(&mut ops, rng);
            tally(&ops, k).fraction(0)
        },
        trials,
        seeds[1],
    );
    let graph = dispatched_graph_moments(name, &start, alpha_0, trials, seeds[2]);

    assert_close("population vs agents", pop, agents);
    assert_close("population vs graph", pop, graph);
    let law = law_moments(dynamics, &start);
    let wrong = law_moments(other, &start);
    for (engine, moments) in [("population", pop), ("agents", agents), ("graph", graph)] {
        assert_close(&format!("{name} {engine} vs {dynamics} law"), moments, law);
        assert!(
            mismatch(moments, wrong).is_some(),
            "{name} {engine} {moments:?} also fits the {other} law {wrong:?}"
        );
    }
}

#[test]
fn three_engines_share_one_round_distribution_three_majority() {
    check_engines_and_law(
        "three-majority",
        ThreeMajority,
        Dynamics::ThreeMajority,
        Dynamics::TwoChoices,
        [1, 2, 3],
    );
}

#[test]
fn three_engines_share_one_round_distribution_two_choices() {
    check_engines_and_law(
        "two-choices",
        TwoChoices,
        Dynamics::TwoChoices,
        Dynamics::ThreeMajority,
        [4, 5, 6],
    );
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
    let graph = batched_graph_moments(&protocol, &start, alpha_0, trials, seed + 1);
    assert_close(label, pop, graph);
}

/// The start of the Lemma 4.6 checks: α = (0.45, 0.4, 0.15) and
/// γ = 0.385, so opinions 0 and 1 are both non-weak
/// (α > (1 − c_weak)·γ = 0.3465), with bias δ(0, 1) = 0.05.
const NON_WEAK_START: [u64; 3] = [900, 800, 300];

/// Rounds per Lemma 4.6 check.
const NON_WEAK_ROUNDS: usize = 3000;

/// Standard errors of the measured bias growth allowed below Lemma
/// 4.6(i)'s floor. In `lemma_4_6_seed_sweep` the growth of both dynamics
/// and both engines clears the floor by at least 5.7 standard errors on
/// every seed, and the voter model's falls at least 50 below it.
const GROWTH_Z: f64 = 3.0;

/// `δ'(0, 1) = α'(0) − α'(1)`, the statistic of the Lemma 4.6 checks.
fn delta_01(counts: &OpinionCounts) -> f64 {
    counts.bias(0, 1)
}

/// How far the one-round moments `(mean, var)` of `δ'(0, 1)` from
/// `start` clear Lemma 4.6's floors: the measured growth
/// `E[δ']/δ − 1` above `bias_growth_rate_lower`, in standard errors of
/// the growth, and the measured `Var(δ')` over `var_delta_lower`.
fn lemma_4_6_margins(dynamics: Dynamics, start: &OpinionCounts, moments: (f64, f64)) -> (f64, f64) {
    let c_weak = StoppingConstants::default().c_weak;
    let (a0, a1, delta) = (start.fraction(0), start.fraction(1), start.bias(0, 1));
    let (mean, var) = moments;
    let growth = mean / delta - 1.0;
    let growth_se = (var / NON_WEAK_ROUNDS as f64).sqrt() / delta;
    let growth_floor = bias_growth_rate_lower(a0, a1, c_weak);
    let var_floor = var_delta_lower(dynamics, a0, a1, start.n(), c_weak);
    ((growth - growth_floor) / growth_se, var / var_floor)
}

/// The Lemma 4.6 moments of `name` from [`NON_WEAK_START`] through the
/// population round and the dispatched graph round.
fn non_weak_moments(name: &str, seed: u64) -> [(&'static str, (f64, f64)); 2] {
    let start = OpinionCounts::from_counts(NON_WEAK_START.to_vec()).unwrap();
    [
        (
            "population",
            population_moments(name, &start, delta_01, NON_WEAK_ROUNDS, seed),
        ),
        (
            "graph",
            dispatched_graph_moments(name, &start, delta_01, NON_WEAK_ROUNDS, seed + 1),
        ),
    ]
}

/// Lemma 4.6: from two non-weak opinions, one round of either dynamics
/// grows their bias by at least `bias_growth_rate_lower` (item (i), with
/// Lemma 4.1(ii)) and spreads it with variance at least
/// `var_delta_lower` (item (ii)). The voter model, which has no drift,
/// must fail item (i).
#[test]
fn non_weak_bias_grows_and_spreads_as_lemma_4_6_says() {
    let start = OpinionCounts::from_counts(NON_WEAK_START.to_vec()).unwrap();
    let constants = StoppingConstants::default();
    assert!(!constants.is_weak(&start, 0) && !constants.is_weak(&start, 1));
    for (name, dynamics, seed) in [
        ("three-majority", Dynamics::ThreeMajority, 41),
        ("two-choices", Dynamics::TwoChoices, 43),
    ] {
        for (engine, moments) in non_weak_moments(name, seed) {
            let (growth_z, var_ratio) = lemma_4_6_margins(dynamics, &start, moments);
            assert!(
                growth_z >= -GROWTH_Z,
                "{name} {engine}: bias growth {growth_z:.2} standard errors below Lemma 4.6(i)"
            );
            assert!(
                var_ratio >= 1.0,
                "{name} {engine}: Var(δ') is {var_ratio:.3} of Lemma 4.6(ii)'s floor"
            );
        }
    }
    let voter = population_moments("voter", &start, delta_01, NON_WEAK_ROUNDS, 45);
    let (growth_z, _) = lemma_4_6_margins(Dynamics::ThreeMajority, &start, voter);
    assert!(
        growth_z < -GROWTH_Z,
        "the voter model's bias growth passed Lemma 4.6(i): {growth_z:.2} standard errors"
    );
}

/// The seed sweep behind [`GROWTH_Z`]: the smallest Lemma 4.6 margins
/// of both dynamics and both engines over 200 seeds (the odd seeds
/// 1–399; the graph round takes the next seed), and the voter model's
/// largest growth margin over seeds 1–200. Run with
/// `cargo test --release --test cross_engine -- --ignored --nocapture`.
#[test]
#[ignore]
fn lemma_4_6_seed_sweep() {
    let start = OpinionCounts::from_counts(NON_WEAK_START.to_vec()).unwrap();
    for (name, dynamics) in [
        ("three-majority", Dynamics::ThreeMajority),
        ("two-choices", Dynamics::TwoChoices),
    ] {
        let mut margins = [(f64::INFINITY, f64::INFINITY); 2];
        for seed in (1..=400).step_by(2) {
            for (slot, (_, moments)) in non_weak_moments(name, seed).into_iter().enumerate() {
                let (growth_z, var_ratio) = lemma_4_6_margins(dynamics, &start, moments);
                margins[slot].0 = margins[slot].0.min(growth_z);
                margins[slot].1 = margins[slot].1.min(var_ratio);
            }
        }
        println!(
            "{name}: min (growth z, Var/floor) population {:.2?}, graph {:.2?}",
            margins[0], margins[1]
        );
    }
    let voter_max = (1..=200)
        .map(|seed| {
            let moments = population_moments("voter", &start, delta_01, NON_WEAK_ROUNDS, seed);
            lemma_4_6_margins(Dynamics::ThreeMajority, &start, moments).0
        })
        .fold(f64::NEG_INFINITY, f64::max);
    println!("voter: max growth z {voter_max:.2}");
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
