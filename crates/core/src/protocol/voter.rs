//! The voter model (1-choice): the natural baseline below 2-Choices and
//! 3-Majority, and the `h = 1` member of the `h`-Majority family.

use super::{GraphProtocol, OpinionSource, StepScratch, SyncProtocol};
use crate::config::OpinionCounts;
use od_sampling::multinomial::sample_multinomial_into;
use rand::{Rng, RngCore};

/// The voter model: each vertex adopts the opinion of one uniformly random
/// vertex. One synchronous round is a `Multinomial(n, α)` draw.
///
/// The voter model has *no* drift toward the plurality (`E[α'(i)] = α(i)`);
/// its consensus time on the complete graph is `Θ(n)` regardless of `k`,
/// which the protocol-comparison experiments use as a contrast to the
/// `Θ̃(k)` / `Θ̃(min{k, √n})` behaviour of the paper's dynamics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Voter;

impl SyncProtocol for Voter {
    fn name(&self) -> &str {
        "Voter"
    }

    fn update_one(&self, _own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        source.draw(rng)
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        let n = counts.n();
        scratch.probs.clear();
        scratch
            .probs
            .extend(counts.counts().iter().map(|&c| c as f64 / n as f64));
        out.with_counts_mut(|next| {
            next.clear();
            next.resize(counts.k(), 0);
            sample_multinomial_into(rng, n, &scratch.probs, next);
        });
    }

    /// The round is one multinomial over `α`: an empty slot has
    /// probability 0 and draws nothing.
    fn empty_slots_are_inert(&self) -> bool {
        true
    }
}

impl GraphProtocol for Voter {
    #[inline]
    fn samples_per_vertex(&self) -> usize {
        1
    }

    #[inline]
    fn combine_gathered<R>(&self, _own: u32, gathered: &mut [u32], _rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        gathered[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::test_support::mean_next_fractions;
    use od_sampling::rng_for;

    #[test]
    fn expectation_is_martingale() {
        let start = OpinionCounts::from_counts(vec![500, 300, 200]).unwrap();
        let got = mean_next_fractions(&Voter, &start, 4000, 110);
        for (i, &g) in got.iter().enumerate() {
            assert!(
                (g - start.fraction(i)).abs() < 4e-3,
                "opinion {i}: {g} vs {}",
                start.fraction(i)
            );
        }
    }

    #[test]
    fn consensus_is_absorbing() {
        let c = OpinionCounts::consensus(100, 3, 0).unwrap();
        let mut rng = rng_for(111, 0);
        assert_eq!(
            Voter.step_population(&c, &mut rng).consensus_opinion(),
            Some(0)
        );
    }

    #[test]
    fn eventually_reaches_consensus() {
        let mut c = OpinionCounts::balanced(100, 2).unwrap();
        let mut rng = rng_for(112, 0);
        let mut rounds = 0u64;
        while !c.is_consensus() && rounds < 20_000 {
            c = Voter.step_population(&c, &mut rng);
            rounds += 1;
        }
        assert!(c.is_consensus(), "voter should coalesce on n = 100");
    }
}
