//! Communication noise: each sampled opinion is independently replaced by
//! a uniformly random opinion with probability `ε`.
//!
//! This is the standard uniform-noise model for opinion dynamics (studied
//! for 2-Choices/3-Majority–type rules in the literature the paper builds
//! on, e.g. \[CNS19\]-adjacent noisy-consensus works, and a natural
//! companion to the Section 2.5 adversary: noise is an *oblivious*
//! adversary of rate `ε·n` per round in expectation). Under noise, strict
//! consensus is no longer absorbing; the dynamics instead stabilise in a
//! metastable phase where the plurality holds a `1 − O(ε)` fraction, so
//! runs should use a near-consensus stop criterion.

use super::{step_per_vertex, GraphProtocol, OpinionSource, StepScratch, SyncProtocol};
use crate::config::OpinionCounts;
use rand::{Rng, RngCore};

/// Decorates a protocol so every sample passes through a uniform-noise
/// channel of rate `ε` over `k` opinions.
///
/// # Examples
///
/// ```
/// use od_core::protocol::{Noisy, ThreeMajority, SyncProtocol};
/// use od_core::OpinionCounts;
/// let noisy = Noisy::new(ThreeMajority, 0.05, 4).unwrap();
/// let start = OpinionCounts::balanced(1000, 4).unwrap();
/// let mut rng = od_sampling::rng_for(1, 0);
/// let next = noisy.step_population(&start, &mut rng);
/// assert_eq!(next.n(), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Noisy<P> {
    inner: P,
    epsilon: f64,
    k: usize,
}

impl<P: SyncProtocol> Noisy<P> {
    /// Wraps `inner` with sample-noise rate `epsilon` over `k` opinions.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `epsilon ∉ [0, 1]` or `k == 0`.
    pub fn new(inner: P, epsilon: f64, k: usize) -> Result<Self, &'static str> {
        if !(0.0..=1.0).contains(&epsilon) || epsilon.is_nan() {
            return Err("noise rate must be in [0, 1]");
        }
        if k == 0 {
            return Err("noise needs at least one opinion");
        }
        Ok(Self { inner, epsilon, k })
    }

    /// The noise rate `ε`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The opinion-space size `k` the noise channel draws from; every
    /// configuration this wrapper steps must have exactly `k` slots.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

struct NoisySource<'a> {
    inner: &'a dyn OpinionSource,
    epsilon: f64,
    k: usize,
}

impl OpinionSource for NoisySource<'_> {
    fn draw(&self, rng: &mut dyn RngCore) -> u32 {
        if self.epsilon > 0.0 && rng.random::<f64>() < self.epsilon {
            rng.random_range(0..self.k) as u32
        } else {
            self.inner.draw(rng)
        }
    }
}

impl<P: SyncProtocol> SyncProtocol for Noisy<P> {
    fn name(&self) -> &str {
        "Noisy"
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        let noisy = NoisySource {
            inner: source,
            epsilon: self.epsilon,
            k: self.k,
        };
        self.inner.update_one(own, &noisy, rng)
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        _scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        assert_eq!(
            counts.k(),
            self.k,
            "Noisy: configuration has {} opinion slots, wrapper was built for {}",
            counts.k(),
            self.k
        );
        // The noise channel maps the fraction vector α to
        // α̃ = (1−ε)α + ε/k before the inner rule sees it. For the paper's
        // rules, whose one-round distribution depends only on the sampled
        // opinions' law, this equals running the inner population step on
        // the smoothed configuration — but the smoothed fractions are not
        // integer counts, so the round is the generic per-vertex one over
        // `update_one` above, which is exact for every inner rule.
        step_per_vertex(self, counts, rng, out);
    }
}

impl<P: GraphProtocol> GraphProtocol for Noisy<P> {
    #[inline]
    fn samples_per_vertex(&self) -> usize {
        self.inner.samples_per_vertex()
    }

    #[inline]
    fn combine_gathered<R>(&self, own: u32, gathered: &mut [u32], rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        // The noise channel rewrites the gathered samples in place, in
        // draw order, before the inner combine runs: per sample one
        // `f64` noise flip and — when it fires — one bounded draw, all
        // from the cell's combine stream (ε = 0 consumes nothing, so the
        // noiseless decorator is bit-identical to the bare protocol).
        if self.epsilon > 0.0 {
            for slot in gathered.iter_mut() {
                if rng.random::<f64>() < self.epsilon {
                    *slot = rng.random_range(0..self.k) as u32;
                }
            }
        }
        self.inner.combine_gathered(own, gathered, rng)
    }

    /// A noise flip can hand the inner combine any opinion below `k`.
    fn max_symbol(&self, max_initial: u32) -> u32 {
        let top_noise = u32::try_from(self.k - 1).unwrap_or(u32::MAX);
        self.inner.max_symbol(max_initial.max(top_noise))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ThreeMajority, TwoChoices};
    use od_sampling::rng_for;

    #[test]
    fn zero_noise_is_the_plain_protocol_in_expectation() {
        let start = OpinionCounts::from_counts(vec![600, 400]).unwrap();
        let noisy = Noisy::new(ThreeMajority, 0.0, 2).unwrap();
        let mut rng = rng_for(800, 0);
        let trials = 3000;
        let mut mean = 0.0;
        for _ in 0..trials {
            mean += noisy.step_population(&start, &mut rng).fraction(0);
        }
        mean /= trials as f64;
        let gamma = start.gamma();
        let want = 0.6 * (1.0 + 0.6 - gamma);
        assert!((mean - want).abs() < 5e-3, "{mean} vs {want}");
    }

    #[test]
    fn full_noise_is_uniform() {
        // ε = 1: every sample is uniform, so 3-Majority produces a
        // uniform-ish multinomial regardless of the configuration.
        let start = OpinionCounts::from_counts(vec![1000, 0]).unwrap();
        let noisy = Noisy::new(ThreeMajority, 1.0, 2).unwrap();
        let mut rng = rng_for(801, 0);
        let mut mean = 0.0;
        let trials = 500;
        for _ in 0..trials {
            mean += noisy.step_population(&start, &mut rng).fraction(1);
        }
        mean /= trials as f64;
        assert!(
            (mean - 0.5).abs() < 0.02,
            "vanished opinion revived to {mean}"
        );
    }

    #[test]
    fn consensus_is_not_absorbing_under_noise() {
        let start = OpinionCounts::consensus(1000, 3, 0).unwrap();
        let noisy = Noisy::new(ThreeMajority, 0.2, 3).unwrap();
        let mut rng = rng_for(802, 0);
        let next = noisy.step_population(&start, &mut rng);
        assert!(
            !next.is_consensus(),
            "noise at rate 0.2 should break strict consensus: {next}"
        );
    }

    #[test]
    fn small_noise_keeps_plurality_metastable() {
        // With ε = 0.1, the plurality should stabilise around 1 − O(ε)
        // and stay there (strictly below 1: the noise keeps a few vertices
        // deviant each round).
        let noisy = Noisy::new(ThreeMajority, 0.1, 4).unwrap();
        let mut counts = OpinionCounts::from_counts(vec![700, 100, 100, 100]).unwrap();
        let mut rng = rng_for(803, 0);
        for _ in 0..200 {
            counts = noisy.step_population(&counts, &mut rng);
        }
        let lead = counts.max_fraction();
        assert!(
            lead > 0.8 && lead < 1.0,
            "metastable plurality expected, got {lead}"
        );
    }

    #[test]
    fn two_choices_under_noise_preserves_population() {
        let noisy = Noisy::new(TwoChoices, 0.1, 5).unwrap();
        let start = OpinionCounts::balanced(500, 5).unwrap();
        let mut rng = rng_for(804, 0);
        let next = noisy.step_population(&start, &mut rng);
        assert_eq!(next.n(), 500);
        assert_eq!(next.k(), 5);
    }

    #[test]
    fn constructor_validates() {
        assert!(Noisy::new(ThreeMajority, -0.1, 2).is_err());
        assert!(Noisy::new(ThreeMajority, 1.1, 2).is_err());
        assert!(Noisy::new(ThreeMajority, 0.5, 0).is_err());
        let ok = Noisy::new(ThreeMajority, 0.5, 2).unwrap();
        assert_eq!(ok.epsilon(), 0.5);
        assert_eq!(ok.inner().name(), "3-Majority");
    }

    #[test]
    #[should_panic(expected = "opinion slots")]
    fn step_rejects_mismatched_k() {
        let noisy = Noisy::new(ThreeMajority, 0.1, 3).unwrap();
        let start = OpinionCounts::balanced(100, 2).unwrap();
        let mut rng = rng_for(805, 0);
        let _ = noisy.step_population(&start, &mut rng);
    }
}
