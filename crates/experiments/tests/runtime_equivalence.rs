//! The `od-runtime` sharded executor must be **bit-identical** to a direct
//! `Simulation` loop for a fixed spec and seed: same per-trial RNG
//! derivation (`rng_for(master_seed, trial)`), same engine, same
//! statistics — regardless of shard size. The loop below is the
//! reference every experiment that submits jobs relies on; the cases
//! cover the starts and the adversary those experiments use.

use od_core::adversary::BoostRunnerUp;
use od_core::protocol::{HMajority, SyncProtocol, ThreeMajority, TwoChoices};
use od_core::{OpinionCounts, ProtocolParams, RunOutcome, Simulation, StopReason};
use od_runtime::{run_job_simple, AdversarySpec, InitialSpec, JobSpec, ShardSummary};
use od_sampling::rng_for;
use rand::rngs::StdRng;

const TRIALS: u64 = 24;
const SEED: u64 = 90_210;
const MAX_ROUNDS: u64 = 300_000;

/// The reference path: one engine run per trial, trial `t` on
/// `rng_for(spec.master_seed, t)`, in trial order.
fn direct_outcomes(
    spec: &JobSpec,
    run: impl Fn(&OpinionCounts, &mut StdRng) -> RunOutcome,
) -> Vec<RunOutcome> {
    let initial = spec.initial.build().unwrap();
    (0..spec.trials)
        .map(|trial| run(&initial, &mut rng_for(spec.master_seed, trial)))
        .collect()
}

/// The plain consensus run of `protocol` under the jobs' round cap.
fn consensus_run<P: SyncProtocol>(
    protocol: P,
) -> impl Fn(&OpinionCounts, &mut StdRng) -> RunOutcome {
    move |initial, rng| {
        Simulation::new(&protocol)
            .with_max_rounds(MAX_ROUNDS)
            .run(initial, rng)
    }
}

/// Runs `spec` at several shard sizes and checks each summary against the
/// reference outcomes, value for value and byte for byte.
fn assert_job_matches(spec: &JobSpec, outcomes: &[RunOutcome]) {
    let direct = ShardSummary::from_outcomes(outcomes);
    for shard_size in [1u64, 7, spec.trials] {
        let spec = JobSpec {
            shard_size,
            ..spec.clone()
        };
        let report = run_job_simple(&spec).unwrap();
        assert_eq!(
            report.summary, direct,
            "{}: shard size {shard_size}",
            spec.name
        );
        assert_eq!(
            report.summary.to_json().to_string_compact(),
            direct.to_json().to_string_compact(),
            "{}: shard size {shard_size}: byte-identical summaries",
            spec.name
        );

        // Derived statistics match to the bit as well.
        let capped = |o: &&RunOutcome| o.reason == StopReason::RoundLimit;
        assert_eq!(
            report.summary.capped,
            outcomes.iter().filter(capped).count() as u64
        );
        let completed: Vec<u64> = outcomes
            .iter()
            .filter(|o| !capped(o))
            .map(|o| o.rounds)
            .collect();
        assert_eq!(report.summary.rounds.count(), completed.len() as u64);
        assert_eq!(
            report.summary.rounds.sum(),
            u128::from(completed.iter().sum::<u64>())
        );
        assert_eq!(
            report.summary.consensus_rate().to_bits(),
            (outcomes.iter().filter(|o| o.reached_consensus()).count() as f64
                / outcomes.len() as f64)
                .to_bits()
        );
        // Winner identities agree in aggregate.
        for (winner, count) in report.summary.winners.iter() {
            let direct_count = outcomes
                .iter()
                .filter(|o| o.winner == Some(winner as usize))
                .count() as u64;
            assert_eq!(count, direct_count, "{}: winner {winner}", spec.name);
        }
    }
}

fn job(name: &str, protocol: &str, initial: InitialSpec, seed: u64) -> JobSpec {
    JobSpec {
        max_rounds: MAX_ROUNDS,
        ..JobSpec::new(name, protocol, initial, TRIALS, seed)
    }
}

#[test]
fn three_majority_runtime_matches_the_direct_loop_bitwise() {
    let initial = OpinionCounts::balanced(600, 12).unwrap();
    let spec = job(
        "equivalence 3maj",
        "three-majority",
        InitialSpec::Counts(initial.counts().to_vec()),
        SEED,
    );
    assert_job_matches(&spec, &direct_outcomes(&spec, consensus_run(ThreeMajority)));
}

#[test]
fn h_majority_runtime_matches_the_direct_loop_bitwise() {
    let spec = JobSpec {
        params: ProtocolParams::new().with_int("h", 5),
        ..job(
            "equivalence hmaj",
            "h-majority",
            InitialSpec::Balanced { n: 500, k: 10 },
            SEED + 1,
        )
    };
    let proto = HMajority::new(5).unwrap();
    assert_job_matches(&spec, &direct_outcomes(&spec, consensus_run(proto)));
}

#[test]
fn two_choices_from_a_leader_margin_matches_the_direct_loop_bitwise() {
    // Theorem 2.6's start: the winner histogram carries the result.
    let spec = job(
        "equivalence 2ch margin",
        "two-choices",
        InitialSpec::LeaderMargin {
            n: 2_000,
            k: 10,
            margin: 60,
        },
        SEED + 2,
    );
    assert_job_matches(&spec, &direct_outcomes(&spec, consensus_run(TwoChoices)));
}

#[test]
fn one_strong_counts_start_matches_the_direct_loop_bitwise() {
    // Theorem 2.1's start: opinion 0 holds 40%, the rest spread evenly.
    let mut counts = vec![800u64];
    counts.extend([134, 133, 133, 133, 133, 134, 133, 133, 134]);
    assert_eq!(counts.iter().sum::<u64>(), 2_000);
    let one_strong = |protocol: &str, seed: u64| {
        job(
            &format!("equivalence {protocol} one-strong"),
            protocol,
            InitialSpec::Counts(counts.clone()),
            seed,
        )
    };
    let spec = one_strong("three-majority", SEED + 3);
    assert_job_matches(&spec, &direct_outcomes(&spec, consensus_run(ThreeMajority)));
    let spec = one_strong("two-choices", SEED + 4);
    assert_job_matches(&spec, &direct_outcomes(&spec, consensus_run(TwoChoices)));
}

#[test]
fn boost_runner_up_job_matches_the_direct_adversary_run_bitwise() {
    // §2.5's adversary at budgets that end in consensus, in the [GL18]
    // near-consensus stop, and in stalls at the round cap.
    const CAP: u64 = 3_000;
    let mut reasons = Vec::new();
    for (i, budget) in [0u64, 22, 358].into_iter().enumerate() {
        let spec = JobSpec {
            max_rounds: CAP,
            adversary: Some(AdversarySpec {
                kind: "boost-runner-up".to_string(),
                budget,
            }),
            ..job(
                &format!("equivalence adversary F={budget}"),
                "three-majority",
                InitialSpec::Balanced { n: 2_000, k: 4 },
                SEED + 10 + i as u64,
            )
        };
        let outcomes = direct_outcomes(&spec, |initial, rng| {
            Simulation::new(ThreeMajority)
                .with_max_rounds(CAP)
                .run_with_adversary(initial, rng, &mut BoostRunnerUp::new(budget))
        });
        assert_job_matches(&spec, &outcomes);
        reasons.extend(outcomes.iter().map(|o| o.reason));
    }
    for reason in [
        StopReason::Consensus,
        StopReason::Predicate,
        StopReason::RoundLimit,
    ] {
        assert!(reasons.contains(&reason), "no trial ended by {reason:?}");
    }
}
