//! Integration: small-scale empirical smoke tests of the paper's theorem
//! statements (full-scale regeneration lives in `od-experiments`).

use opinion_dynamics::analysis::bounds;
use opinion_dynamics::analysis::Dynamics;
use opinion_dynamics::prelude::*;
use opinion_dynamics::runtime::{run_job_simple, InitialSpec, JobSpec, ShardSummary};

/// Theorem 1.1, 3-Majority: consensus within `C·min{k, √n}·polylog`.
#[test]
fn theorem_1_1_three_majority_upper_bound_shape() {
    let n = 4096u64;
    for k in [4usize, 64, 1024] {
        let start = OpinionCounts::balanced(n, k).unwrap();
        let bound = bounds::consensus_time_upper(Dynamics::ThreeMajority, n, k);
        for trial in 0..3u64 {
            let mut rng = rng_for(100 + k as u64, trial);
            let out = Simulation::new(ThreeMajority)
                .with_max_rounds((20.0 * bound) as u64 + 100)
                .run(&start, &mut rng);
            assert!(
                out.reached_consensus(),
                "k = {k}: no consensus within 20x the bound {bound}"
            );
        }
    }
}

/// Theorem 1.1, 2-Choices: consensus within `C·k·polylog`.
#[test]
fn theorem_1_1_two_choices_upper_bound_shape() {
    let n = 4096u64;
    for k in [4usize, 64, 512] {
        let start = OpinionCounts::balanced(n, k).unwrap();
        let bound = bounds::consensus_time_upper(Dynamics::TwoChoices, n, k);
        for trial in 0..3u64 {
            let mut rng = rng_for(200 + k as u64, trial);
            let out = Simulation::new(TwoChoices)
                .with_max_rounds((20.0 * bound) as u64 + 100)
                .run(&start, &mut rng);
            assert!(
                out.reached_consensus(),
                "k = {k}: no consensus within 20x the bound {bound}"
            );
        }
    }
}

/// Theorem 2.7: consensus never happens faster than `C_{4.5(1)}·k` from
/// the balanced start.
#[test]
fn theorem_2_7_lower_bound_holds() {
    let n = 8192u64;
    let c = opinion_dynamics::analysis::constants::c_4_5_1();
    for k in [32usize, 64] {
        let start = OpinionCounts::balanced(n, k).unwrap();
        for trial in 0..5u64 {
            let mut rng = rng_for(300 + k as u64, trial);
            let out = Simulation::new(ThreeMajority).run(&start, &mut rng);
            assert!(
                out.rounds as f64 >= c * k as f64,
                "k = {k}: consensus in {} rounds, below the {:.1}-round lower bound",
                out.rounds,
                c * k as f64
            );
        }
    }
}

/// The Theorem 2.7 check past `√(n/ln n)`: n = 4096 and k = 1024, far
/// above `√(n/ln n)` ≈ 22.2, where 3-Majority's lower-bound shape has
/// stopped growing with k and 2-Choices' is still `min{k, n/ln n}` ≈ 492.
const PAST_SQRT_N: u64 = 4096;
const PAST_SQRT_K: usize = 1024;
const PAST_SQRT_TRIALS: u64 = 8;

/// The fraction of `bounds::consensus_time_lower` every trial must
/// take. In `theorem_2_7_seed_sweep` (master seeds 1–32, 8 trials
/// each) the fastest trial took 2.48× the shape for 3-Majority and
/// 0.82× for 2-Choices, and the slowest 3-Majority trial 0.22× the
/// 2-Choices shape; 0.4 sits between, about a factor two from each.
const LOWER_SHAPE_FRACTION: f64 = 0.4;

/// The consensus-time summary of `PAST_SQRT_TRIALS` balanced-start
/// trials of `protocol`, run as a job through the runtime.
fn past_sqrt_summary(protocol: &str, master_seed: u64) -> ShardSummary {
    let initial = InitialSpec::Balanced {
        n: PAST_SQRT_N,
        k: PAST_SQRT_K,
    };
    let spec = JobSpec::new(
        "theorem 2.7",
        protocol,
        initial,
        PAST_SQRT_TRIALS,
        master_seed,
    );
    let summary = run_job_simple(&spec).unwrap().summary;
    assert_eq!(
        summary.consensus, PAST_SQRT_TRIALS,
        "{protocol}: {summary:?}"
    );
    summary
}

/// Theorem 2.7 (with Theorem 1.1) for both dynamics past `√(n/ln n)`:
/// no trial reaches consensus in fewer than `LOWER_SHAPE_FRACTION` of
/// `consensus_time_lower` rounds. The 2-Choices floor is one 3-Majority
/// cannot meet, so the check would fail a 2-Choices round that ran at
/// 3-Majority's speed.
#[test]
fn theorem_2_7_lower_bound_past_the_sqrt_regime() {
    let floor = |dynamics| {
        LOWER_SHAPE_FRACTION * bounds::consensus_time_lower(dynamics, PAST_SQRT_N, PAST_SQRT_K)
    };
    let three = past_sqrt_summary("three-majority", 7);
    let two = past_sqrt_summary("two-choices", 7);
    for (dynamics, summary) in [
        (Dynamics::ThreeMajority, &three),
        (Dynamics::TwoChoices, &two),
    ] {
        assert!(
            summary.rounds.min() as f64 >= floor(dynamics),
            "{dynamics}: consensus in {} rounds, below the {:.1}-round floor",
            summary.rounds.min(),
            floor(dynamics)
        );
    }
    assert!(
        (three.rounds.max() as f64) < floor(Dynamics::TwoChoices),
        "3-Majority's slowest trial ({} rounds) meets the 2-Choices floor",
        three.rounds.max()
    );
}

/// The seed sweep behind `LOWER_SHAPE_FRACTION`. Run with
/// `cargo test --release --test theorems -- --ignored --nocapture`.
#[test]
#[ignore]
fn theorem_2_7_seed_sweep() {
    let shape = |dynamics| bounds::consensus_time_lower(dynamics, PAST_SQRT_N, PAST_SQRT_K);
    let (mut three_min, mut three_max, mut two_min) = (u64::MAX, 0, u64::MAX);
    for seed in 1..=32 {
        let three = past_sqrt_summary("three-majority", seed);
        three_min = three_min.min(three.rounds.min());
        three_max = three_max.max(three.rounds.max());
        two_min = two_min.min(past_sqrt_summary("two-choices", seed).rounds.min());
    }
    println!(
        "fastest / own shape: 3-Majority {:.2}, 2-Choices {:.2}; \
         slowest 3-Majority / 2-Choices shape {:.2}",
        three_min as f64 / shape(Dynamics::ThreeMajority),
        two_min as f64 / shape(Dynamics::TwoChoices),
        three_max as f64 / shape(Dynamics::TwoChoices)
    );
}

/// Theorem 2.6: a clear margin makes the plurality win; validity holds
/// (the winner is always initially supported).
#[test]
fn theorem_2_6_plurality_and_validity() {
    let n = 20_000u64;
    let k = 10usize;
    let margin = (4.0 * ((n as f64) * (n as f64).ln()).sqrt()) as u64;
    let start = OpinionCounts::with_leader_margin(n, k, margin).unwrap();
    let mut wins = 0;
    let trials = 10u64;
    for trial in 0..trials {
        let mut rng = rng_for(400, trial);
        let out = Simulation::new(ThreeMajority).run(&start, &mut rng);
        let w = out.winner.expect("consensus reached");
        assert!(start.count(w) > 0, "winner {w} had no initial support");
        if w == 0 {
            wins += 1;
        }
    }
    assert!(
        wins >= trials - 1,
        "plurality won only {wins}/{trials} with a 4x-threshold margin"
    );
}

/// Theorem 2.2: γ grows to the Theorem 2.1 threshold within a modest
/// multiple of `√n (log n)²` from the worst start (`k = n`).
#[test]
fn theorem_2_2_gamma_growth() {
    let n = 4096u64;
    let target = bounds::gamma_threshold(Dynamics::ThreeMajority, n);
    let budget = (5.0 * bounds::gamma_growth_time(Dynamics::ThreeMajority, n)) as u64;
    let start = OpinionCounts::balanced(n, n as usize).unwrap();
    let mut rng = rng_for(500, 0);
    let out = Simulation::new(ThreeMajority)
        .with_max_rounds(budget)
        .run_until(&start, &mut rng, &mut |_, c| c.gamma() >= target);
    assert!(
        out.reason == StopReason::Predicate || out.reached_consensus(),
        "gamma never reached {target} within {budget} rounds"
    );
}

/// The `γ` submartingale (Lemma 4.1(iii)) — checked along full runs.
#[test]
fn gamma_rarely_decreases_much_along_runs() {
    let start = OpinionCounts::balanced(10_000, 100).unwrap();
    let mut rng = rng_for(600, 0);
    let mut counts = start;
    let mut prev = counts.gamma();
    let mut big_drops = 0;
    for _ in 0..200 {
        counts = ThreeMajority.step_population(&counts, &mut rng);
        let g = counts.gamma();
        // One-step decreases of γ beyond ~6 standard deviations
        // (s ≈ 4γ^1.5/n per Lemma 4.2(iii)) should essentially never occur.
        let six_sigma = 6.0 * (4.0 * prev.powf(1.5) / 10_000.0).sqrt();
        if g < prev - six_sigma {
            big_drops += 1;
        }
        prev = g;
        if counts.is_consensus() {
            break;
        }
    }
    assert_eq!(big_drops, 0, "γ took {big_drops} six-sigma drops");
}

use opinion_dynamics::core::protocol::SyncProtocol;
