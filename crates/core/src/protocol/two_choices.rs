//! The 2-Choices dynamics (Definition 3.1).
//!
//! Each vertex selects two uniformly random vertices `w₁, w₂` (with
//! replacement, self-loops included). If `opn(w₁) = opn(w₂)` the vertex
//! adopts that opinion; otherwise it keeps its own opinion for the round.

use super::{GraphProtocol, OpinionSource, StepScratch, SyncProtocol};
use crate::config::OpinionCounts;
use od_sampling::binomial::sample_binomial;
use od_sampling::multinomial::sample_multinomial_into;
use rand::{Rng, RngCore};

/// The 2-Choices protocol.
///
/// Conditioned on the previous round, a vertex with opinion `j` moves to
/// opinion `i ≠ j` with probability `α(i)²` and stays otherwise (eq. (6)).
///
/// The `O(k)` population step uses the identity that *adopting one's own
/// opinion equals keeping it*: a vertex "adopts" whenever its two samples
/// agree (probability `γ`), and the adopted opinion is then distributed as
/// `α(i)²/γ` independently of the adopter's previous opinion. So one round
/// is: per opinion group `j`, draw `A_j ~ Bin(n_j, γ)` adopters; pool all
/// adopters and distribute them with one multinomial over `α²/γ`.
///
/// # Examples
///
/// ```
/// use od_core::{OpinionCounts, protocol::{SyncProtocol, TwoChoices}};
/// let start = OpinionCounts::balanced(1000, 5).unwrap();
/// let mut rng = od_sampling::rng_for(1, 0);
/// let next = TwoChoices.step_population(&start, &mut rng);
/// assert_eq!(next.n(), 1000);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TwoChoices;

impl TwoChoices {
    /// The exact conditional one-round opinion distribution for a vertex
    /// currently holding `own` (eq. (6)).
    #[must_use]
    pub fn update_distribution(counts: &OpinionCounts, own: usize) -> Vec<f64> {
        let gamma = counts.gamma();
        let fractions = counts.fractions();
        fractions
            .iter()
            .enumerate()
            .map(|(i, &a)| if i == own { 1.0 - gamma + a * a } else { a * a })
            .collect()
    }
}

impl SyncProtocol for TwoChoices {
    fn name(&self) -> &str {
        "2-Choices"
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        let w1 = source.draw(rng);
        let w2 = source.draw(rng);
        if w1 == w2 {
            w1
        } else {
            own
        }
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        let gamma = counts.gamma();
        let n = counts.n() as f64;
        out.with_counts_mut(|next| {
            next.clear();
            let mut adopters_total: u64 = 0;
            for &c in counts.counts() {
                let adopters = sample_binomial(rng, c, gamma);
                adopters_total += adopters;
                next.push(c - adopters); // stayers
            }
            if adopters_total > 0 {
                scratch.probs.clear();
                scratch.probs.extend(counts.counts().iter().map(|&c| {
                    let a = c as f64 / n;
                    a * a / gamma
                }));
                scratch.counts.clear();
                scratch.counts.resize(counts.k(), 0);
                sample_multinomial_into(rng, adopters_total, &scratch.probs, &mut scratch.counts);
                for (slot, &d) in next.iter_mut().zip(scratch.counts.iter()) {
                    *slot += d;
                }
            }
        });
    }

    /// The round is one binomial per group and one multinomial over
    /// `α(i)²/γ`: an empty group and an empty slot draw nothing.
    fn empty_slots_are_inert(&self) -> bool {
        true
    }
}

impl GraphProtocol for TwoChoices {
    #[inline]
    fn samples_per_vertex(&self) -> usize {
        2
    }

    #[inline]
    fn combine_gathered<R>(&self, own: u32, gathered: &mut [u32], _rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        if gathered[0] == gathered[1] {
            gathered[0]
        } else {
            own
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::test_support::{mean_next_fractions, mean_next_fractions_agents};
    use od_sampling::rng_for;

    #[test]
    fn update_distribution_sums_to_one() {
        let c = OpinionCounts::from_counts(vec![10, 20, 70]).unwrap();
        for own in 0..3 {
            let p = TwoChoices::update_distribution(&c, own);
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "own {own}: sum {total}");
        }
    }

    #[test]
    fn expectation_matches_lemma_4_1() {
        // E[α'(i)] = α(i)(1 + α(i) − γ) for 2-Choices as well.
        let start = OpinionCounts::from_counts(vec![500, 300, 200]).unwrap();
        let gamma = start.gamma();
        let want: Vec<f64> = start
            .fractions()
            .iter()
            .map(|&a| a * (1.0 + a - gamma))
            .collect();
        let got = mean_next_fractions(&TwoChoices, &start, 4000, 100);
        for i in 0..3 {
            assert!(
                (got[i] - want[i]).abs() < 4e-3,
                "opinion {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn population_and_agent_engines_agree_in_expectation() {
        let start = OpinionCounts::from_counts(vec![60, 30, 10]).unwrap();
        let pop = mean_next_fractions(&TwoChoices, &start, 3000, 101);
        let agents = mean_next_fractions_agents(&TwoChoices, &start, 3000, 102);
        for i in 0..3 {
            assert!(
                (pop[i] - agents[i]).abs() < 0.02,
                "opinion {i}: population {} vs agents {}",
                pop[i],
                agents[i]
            );
        }
    }

    #[test]
    fn consensus_is_absorbing() {
        let c = OpinionCounts::consensus(500, 4, 1).unwrap();
        let mut rng = rng_for(103, 0);
        let next = TwoChoices.step_population(&c, &mut rng);
        assert_eq!(next.consensus_opinion(), Some(1));
    }

    #[test]
    fn vanished_opinions_stay_vanished() {
        let c = OpinionCounts::from_counts(vec![400, 0, 600]).unwrap();
        let mut rng = rng_for(104, 0);
        for _ in 0..50 {
            let next = TwoChoices.step_population(&c, &mut rng);
            assert_eq!(next.count(1), 0);
        }
    }

    #[test]
    fn variance_is_smaller_than_three_majority() {
        // 2-Choices is lazier: Var[α'(i)] ≤ α(α+γ)/n vs α/n for 3-Majority.
        // Empirically the one-round variance of the leading fraction should
        // be visibly smaller.
        let start = OpinionCounts::balanced(10_000, 10).unwrap();
        let trials = 2000;
        let mut rng = rng_for(105, 0);
        let mut var = |proto: &dyn SyncProtocol| {
            let mut s = 0.0;
            let mut s2 = 0.0;
            for _ in 0..trials {
                let next = proto.step_population(&start, &mut rng);
                let a = next.fraction(0);
                s += a;
                s2 += a * a;
            }
            let m = s / trials as f64;
            s2 / trials as f64 - m * m
        };
        let v2 = var(&TwoChoices);
        let v3 = var(&ThreeMajorityForCompare);
        assert!(
            v2 < v3,
            "2-Choices variance {v2} should be below 3-Majority {v3}"
        );
    }

    // A local shim so the test above can use both protocols through one
    // closure without generic gymnastics.
    struct ThreeMajorityForCompare;
    impl SyncProtocol for ThreeMajorityForCompare {
        fn name(&self) -> &str {
            "3maj"
        }
        fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
            crate::protocol::ThreeMajority.update_one(own, source, rng)
        }
        fn step_population_into(
            &self,
            counts: &OpinionCounts,
            rng: &mut dyn RngCore,
            scratch: &mut StepScratch,
            out: &mut OpinionCounts,
        ) {
            crate::protocol::ThreeMajority.step_population_into(counts, rng, scratch, out);
        }
    }

    #[test]
    fn two_opinions_with_bias_reaches_consensus() {
        let mut c = OpinionCounts::from_counts(vec![700, 300]).unwrap();
        let mut rng = rng_for(106, 0);
        let mut rounds = 0u64;
        while !c.is_consensus() && rounds < 500 {
            c = TwoChoices.step_population(&c, &mut rng);
            rounds += 1;
        }
        assert!(c.is_consensus());
        assert_eq!(c.consensus_opinion(), Some(0));
    }
}
