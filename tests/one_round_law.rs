//! The population round against the paper's one-round law, exactly.
//!
//! From a configuration α with γ = Σ_j α_j², 3-Majority sends each
//! vertex to opinion i with probability α_i(1 + α_i − γ), the paper's
//! eq. (5) (`od_analysis::quantities::expected_alpha_next`). Under 2-Choices a vertex holding j moves to i ≠ j with
//! probability α_i² and otherwise stays. At n = 4 and k = 3 the next
//! configuration takes one of 15 values, and its exact law follows by
//! enumerating all 3⁴ per-vertex destinations. Many rounds of the
//! protocols the registry builds (`build_protocol`, the objects the
//! executor dispatches) must fit that law by Pearson's χ² test. For
//! 3-Majority the round draws the multinomial directly, so this checks
//! the sampler; for 2-Choices it also checks how the per-opinion draws
//! are combined.

use opinion_dynamics::analysis::quantities::expected_alpha_next;
use opinion_dynamics::core::protocol::StepScratch;
use opinion_dynamics::core::registry::{build_protocol, ProtocolParams};
use opinion_dynamics::prelude::*;
use opinion_dynamics::stats::{chi_square_gof, ChiSquareTest};
use std::collections::BTreeMap;

/// The start: n = 4 vertices over k = 3 opinions, α = (1/2, 1/4, 1/4)
/// and γ = 3/8.
const START: [u64; 3] = [2, 1, 1];

/// Rounds per check. The rarest 3-Majority outcome has probability
/// 0.0023 (expected count 46); rarer 2-Choices outcomes are pooled.
const ROUNDS: u64 = 20_000;

/// The fixed seeds, and the level every one of them must pass. A sweep
/// over seeds 1–200 is recorded with the change that added this file.
const SEEDS: [u64; 3] = [1, 2, 3];
const ALPHA: f64 = 1e-3;

/// A protocol's one-round law at `START` as per-vertex destination
/// distributions, one row per vertex, vertices listed by opinion.
fn vertex_laws(protocol: &str) -> Vec<Vec<f64>> {
    let n: u64 = START.iter().sum();
    let alpha: Vec<f64> = START.iter().map(|&c| c as f64 / n as f64).collect();
    let gamma: f64 = alpha.iter().map(|a| a * a).sum();
    let holders = START
        .iter()
        .enumerate()
        .flat_map(|(j, &c)| std::iter::repeat_n(j, c as usize));
    holders
        .map(|j| match protocol {
            "three-majority" => alpha
                .iter()
                .map(|&a| expected_alpha_next(a, gamma))
                .collect(),
            "two-choices" => {
                let mut row: Vec<f64> = alpha.iter().map(|a| a * a).collect();
                row[j] = 1.0
                    - (0..row.len())
                        .filter(|&i| i != j)
                        .map(|i| row[i])
                        .sum::<f64>();
                row
            }
            other => panic!("no closed form for {other}"),
        })
        .collect()
}

/// The law of the next configuration: every assignment of destinations
/// to vertices, weighted by its probability and keyed by the counts it
/// produces.
fn exact_law(laws: &[Vec<f64>]) -> BTreeMap<Vec<u64>, f64> {
    let k = START.len();
    let mut law = BTreeMap::new();
    for code in 0..k.pow(laws.len() as u32) {
        let (mut rest, mut counts, mut p) = (code, vec![0u64; k], 1.0);
        for row in laws {
            counts[rest % k] += 1;
            p *= row[rest % k];
            rest /= k;
        }
        *law.entry(counts).or_insert(0.0) += p;
    }
    law
}

/// Outcome frequencies of `ROUNDS` independent rounds from `START`.
fn simulate(protocol: &str, seed: u64) -> BTreeMap<Vec<u64>, u64> {
    let protocol = build_protocol(protocol, &ProtocolParams::new()).unwrap();
    let start = OpinionCounts::from_counts(START.to_vec()).unwrap();
    let mut rng = rng_for(seed, 0);
    let (mut scratch, mut next) = (StepScratch::new(), start.clone());
    let mut seen = BTreeMap::new();
    for _ in 0..ROUNDS {
        protocol.step_population_into(&start, &mut rng, &mut scratch, &mut next);
        *seen.entry(next.counts().to_vec()).or_insert(0) += 1;
    }
    seen
}

/// χ² of `seen` against `law`, with outcomes expected fewer than 5
/// times pooled into one category.
fn fit(seen: &BTreeMap<Vec<u64>, u64>, law: &BTreeMap<Vec<u64>, f64>) -> ChiSquareTest {
    let outside: u64 = seen
        .iter()
        .filter(|(c, _)| !law.contains_key(*c))
        .map(|(_, o)| o)
        .sum();
    assert_eq!(outside, 0, "outcomes the law does not allow");
    let (mut observed, mut probabilities) = (vec![0], vec![0.0]);
    for (counts, &p) in law {
        let o = seen.get(counts).copied().unwrap_or(0);
        if p * ROUNDS as f64 >= 5.0 {
            observed.push(o);
            probabilities.push(p);
        } else {
            observed[0] += o;
            probabilities[0] += p;
        }
    }
    chi_square_gof(&observed, &probabilities)
}

fn assert_round_fits(protocol: &str) {
    let law = exact_law(&vertex_laws(protocol));
    assert_eq!(law.len(), 15);
    assert!((law.values().sum::<f64>() - 1.0).abs() < 1e-12);
    for seed in SEEDS {
        let test = fit(&simulate(protocol, seed), &law);
        assert!(
            test.accepts_at(ALPHA),
            "{protocol}, seed {seed}: χ² = {:.2} on {} df, p = {:.2e}",
            test.statistic,
            test.df,
            test.p_value
        );
    }
}

#[test]
fn three_majority_round_follows_eq_5() {
    assert_round_fits("three-majority");
}

#[test]
fn two_choices_round_follows_its_law() {
    assert_round_fits("two-choices");
}

#[test]
fn the_check_tells_the_two_laws_apart() {
    // Each protocol's rounds against the other's law: a check that
    // passed these would not be checking the law.
    for (protocol, other) in [
        ("three-majority", "two-choices"),
        ("two-choices", "three-majority"),
    ] {
        let test = fit(
            &simulate(protocol, SEEDS[0]),
            &exact_law(&vertex_laws(other)),
        );
        assert!(
            test.p_value < 1e-12,
            "{protocol} fit {other}'s law: {test:?}"
        );
    }
}

/// The seed sweep behind `ALPHA`: p-values over seeds 1–200 for both
/// protocols, and those of the pinned seeds. Run with `cargo test --release --test one_round_law --
/// --ignored --nocapture`.
#[test]
#[ignore]
fn seed_sweep() {
    for protocol in ["three-majority", "two-choices"] {
        let law = exact_law(&vertex_laws(protocol));
        let mut p: Vec<f64> = (1..=200)
            .map(|seed| fit(&simulate(protocol, seed), &law).p_value)
            .collect();
        println!("{protocol}: pinned seeds p = {:.3?}", &p[..SEEDS.len()]);
        p.sort_by(f64::total_cmp);
        let below = |level: f64| p.iter().filter(|&&x| x < level).count();
        println!(
            "{protocol}: min p {:.2e}, below 0.001: {}, below 0.01: {}, below 0.05: {}, \
             below 0.5: {}, median {:.3}",
            p[0],
            below(0.001),
            below(0.01),
            below(0.05),
            below(0.5),
            p[100]
        );
    }
}
