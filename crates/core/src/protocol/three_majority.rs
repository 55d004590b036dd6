//! The 3-Majority dynamics (Definition 3.1).
//!
//! Each vertex selects three uniformly random vertices `w₁, w₂, w₃` (with
//! replacement, self-loops included). If `opn(w₁) = opn(w₂)` the vertex
//! adopts that opinion; otherwise it adopts `opn(w₃)`. This is equivalent to
//! taking the majority among the three samples with ties broken by the
//! third sample (a uniformly random choice among the three distinct
//! values), the formulation used in the paper.

use super::{GraphProtocol, OpinionSource, StepScratch, SyncProtocol};
use crate::config::OpinionCounts;
use od_sampling::multinomial::sample_multinomial_into;
use rand::{Rng, RngCore};

/// The 3-Majority protocol.
///
/// The new opinion of every vertex is independent of its own opinion and
/// distributed as `Pr[i] = α(i)·(1 + α(i) − γ)` (eq. (5)), so one
/// synchronous round is exactly one multinomial draw — which is how
/// [`SyncProtocol::step_population_into`] is implemented (`O(k)` per round).
///
/// # Examples
///
/// ```
/// use od_core::{OpinionCounts, protocol::{SyncProtocol, ThreeMajority}};
/// let start = OpinionCounts::balanced(1000, 5).unwrap();
/// let mut rng = od_sampling::rng_for(1, 0);
/// let next = ThreeMajority.step_population(&start, &mut rng);
/// assert_eq!(next.n(), 1000);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ThreeMajority;

impl ThreeMajority {
    /// The exact conditional one-round opinion distribution of eq. (5):
    /// `Pr[opn_t(v) = i] = α(i)·(1 + α(i) − γ)`.
    #[must_use]
    pub fn update_distribution(counts: &OpinionCounts) -> Vec<f64> {
        let gamma = counts.gamma();
        counts
            .fractions()
            .iter()
            .map(|&a| a * (1.0 + a - gamma))
            .collect()
    }
}

impl SyncProtocol for ThreeMajority {
    fn name(&self) -> &str {
        "3-Majority"
    }

    fn update_one(&self, _own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        let w1 = source.draw(rng);
        let w2 = source.draw(rng);
        if w1 == w2 {
            w1
        } else {
            source.draw(rng)
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
        let n = counts.n();
        scratch.probs.clear();
        scratch.probs.extend(counts.counts().iter().map(|&c| {
            let a = c as f64 / n as f64;
            a * (1.0 + a - gamma)
        }));
        out.with_counts_mut(|next| {
            next.clear();
            next.resize(counts.k(), 0);
            sample_multinomial_into(rng, n, &scratch.probs, next);
        });
    }

    /// The round is one multinomial over `α(i)(1 + α(i) − γ)`: an empty
    /// slot has probability 0 and draws nothing.
    fn empty_slots_are_inert(&self) -> bool {
        true
    }
}

impl GraphProtocol for ThreeMajority {
    #[inline]
    fn samples_per_vertex(&self) -> usize {
        3
    }

    #[inline]
    fn combine_gathered<R>(&self, _own: u32, gathered: &mut [u32], _rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        if gathered[0] == gathered[1] {
            gathered[0]
        } else {
            gathered[2]
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
        for counts in [vec![10u64, 20, 70], vec![1, 1, 1, 97], vec![50, 50]] {
            let c = OpinionCounts::from_counts(counts).unwrap();
            let p = ThreeMajority::update_distribution(&c);
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "sum {total}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn expectation_matches_lemma_4_1() {
        // E[α'(i)] = α(i)(1 + α(i) − γ): check the Monte-Carlo mean of the
        // population engine against the closed form.
        let start = OpinionCounts::from_counts(vec![500, 300, 200]).unwrap();
        let want = ThreeMajority::update_distribution(&start);
        let got = mean_next_fractions(&ThreeMajority, &start, 4000, 90);
        for i in 0..3 {
            // SE of the mean fraction is about sqrt(p(1-p)/n/trials) < 1e-3.
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
        let pop = mean_next_fractions(&ThreeMajority, &start, 3000, 91);
        let agents = mean_next_fractions_agents(&ThreeMajority, &start, 3000, 92);
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
        let c = OpinionCounts::consensus(500, 4, 2).unwrap();
        let mut rng = rng_for(93, 0);
        let next = ThreeMajority.step_population(&c, &mut rng);
        assert_eq!(next.consensus_opinion(), Some(2));
    }

    #[test]
    fn vanished_opinions_stay_vanished() {
        // Validity: an opinion with zero support can never reappear.
        let c = OpinionCounts::from_counts(vec![400, 0, 600]).unwrap();
        let mut rng = rng_for(94, 0);
        for _ in 0..50 {
            let next = ThreeMajority.step_population(&c, &mut rng);
            assert_eq!(next.count(1), 0);
        }
    }

    #[test]
    fn two_opinions_consensus_is_fast() {
        // With k = 2 and a large bias, consensus arrives in O(log n) rounds.
        let mut c = OpinionCounts::from_counts(vec![700, 300]).unwrap();
        let mut rng = rng_for(95, 0);
        let mut rounds = 0u64;
        while !c.is_consensus() && rounds < 200 {
            c = ThreeMajority.step_population(&c, &mut rng);
            rounds += 1;
        }
        assert!(c.is_consensus(), "no consensus after {rounds} rounds");
        assert_eq!(c.consensus_opinion(), Some(0), "plurality should win here");
    }
}
