//! The median rule of \[DGMSS11\] ("Stabilizing consensus with the power of
//! two choices"): each vertex updates to the **median** of its own opinion
//! and two uniformly random samples. For `k = 2` this coincides with
//! 2-Choices; for ordered opinion spaces it converges in `O(log k · log n)`
//! and serves as a baseline with qualitatively different behaviour
//! (it exploits the opinion ordering, which 3-Majority/2-Choices do not).

use super::{GraphProtocol, OpinionSource, SyncProtocol};
use rand::{Rng, RngCore};

/// The median rule (opinions must be meaningfully ordered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MedianRule;

/// Median of three values.
fn median3(a: u32, b: u32, c: u32) -> u32 {
    a.max(b).min(a.max(c)).min(b.max(c))
}

impl SyncProtocol for MedianRule {
    fn name(&self) -> &str {
        "Median"
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        let a = source.draw(rng);
        let b = source.draw(rng);
        median3(own, a, b)
    }
}

impl GraphProtocol for MedianRule {
    #[inline]
    fn samples_per_vertex(&self) -> usize {
        2
    }

    #[inline]
    fn combine_gathered<R>(&self, own: u32, gathered: &mut [u32], _rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        median3(own, gathered[0], gathered[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OpinionCounts;
    use crate::protocol::test_support::mean_next_fractions;
    use od_sampling::rng_for;

    #[test]
    fn median3_cases() {
        assert_eq!(median3(1, 2, 3), 2);
        assert_eq!(median3(3, 1, 2), 2);
        assert_eq!(median3(2, 2, 9), 2);
        assert_eq!(median3(5, 5, 5), 5);
        assert_eq!(median3(0, 9, 0), 0);
    }

    #[test]
    fn equals_two_choices_for_k_two() {
        // With opinions {0, 1}: median(own, a, b) = a if a == b else own —
        // exactly the 2-Choices rule. Compare the one-round means.
        let start = OpinionCounts::from_counts(vec![650, 350]).unwrap();
        let med = mean_next_fractions(&MedianRule, &start, 4000, 130);
        let gamma = start.gamma();
        let want: Vec<f64> = start
            .fractions()
            .iter()
            .map(|&a| a * (1.0 + a - gamma))
            .collect();
        for i in 0..2 {
            assert!(
                (med[i] - want[i]).abs() < 5e-3,
                "opinion {i}: {} vs {}",
                med[i],
                want[i]
            );
        }
    }

    #[test]
    fn median_converges_fast_on_ordered_opinions() {
        let mut c = OpinionCounts::balanced(1000, 50).unwrap();
        let mut rng = rng_for(131, 0);
        let mut rounds = 0u64;
        while !c.is_consensus() && rounds < 2000 {
            c = MedianRule.step_population(&c, &mut rng);
            rounds += 1;
        }
        assert!(c.is_consensus(), "median rule should converge quickly");
        // The winner should be near the middle of the ordered opinion range
        // (the median is stable around the population median).
        let w = c.consensus_opinion().unwrap();
        assert!((10..40).contains(&w), "winner {w} far from the median");
    }

    #[test]
    fn consensus_is_absorbing() {
        let c = OpinionCounts::consensus(100, 5, 3).unwrap();
        let mut rng = rng_for(132, 0);
        let next = MedianRule.step_population(&c, &mut rng);
        assert_eq!(next.consensus_opinion(), Some(3));
    }
}
