//! The undecided-state dynamics (Section 2.5's open-question dynamics;
//! [AAE07; CGGNPS18; AABBHKL23]).
//!
//! The state space is `k` real opinions plus one *undecided* (blank) state,
//! stored as the **last** index of the configuration. In the synchronous
//! pull variant, each vertex samples one uniformly random vertex `u`:
//!
//! * a decided vertex with opinion `i` becomes undecided if `u` is decided
//!   with an opinion `j ∉ {i}`, and keeps `i` otherwise (same opinion or
//!   undecided neighbor);
//! * an undecided vertex adopts `u`'s state (an opinion if `u` is decided,
//!   otherwise it stays undecided).

use super::{GraphProtocol, OpinionSource, StepScratch, SyncProtocol};
use crate::config::OpinionCounts;
use od_sampling::binomial::sample_binomial;
use od_sampling::multinomial::sample_multinomial_into;
use rand::{Rng, RngCore};

/// The undecided-state dynamics over `num_opinions` real opinions.
///
/// Configurations have `k = num_opinions + 1` slots; slot `num_opinions` is
/// the undecided state. [`OpinionCounts::consensus_opinion`] returning the
/// blank index means "everyone undecided", which is an absorbing but
/// non-valid outcome; it can only occur from configurations that were
/// already all-undecided, because an undecided vertex never destroys the
/// last decided opinion.
///
/// # Examples
///
/// ```
/// use od_core::protocol::UndecidedDynamics;
/// let proto = UndecidedDynamics::new(4);
/// let start = proto.configuration(&[3, 3, 2, 2], 5).unwrap();
/// assert_eq!(start.k(), 5);
/// assert_eq!(start.count(4), 5); // the blank slot comes last
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UndecidedDynamics {
    num_opinions: usize,
}

impl UndecidedDynamics {
    /// Creates the dynamics over `num_opinions` real opinions.
    ///
    /// # Panics
    ///
    /// Panics if `num_opinions == 0`.
    #[must_use]
    pub fn new(num_opinions: usize) -> Self {
        assert!(
            num_opinions > 0,
            "UndecidedDynamics: need at least one opinion"
        );
        Self { num_opinions }
    }

    /// Builds a configuration with the given decided counts and
    /// `undecided` blank vertices.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::ConfigError`] for empty/zero configurations or a
    /// mismatch with `num_opinions`.
    pub fn configuration(
        &self,
        decided: &[u64],
        undecided: u64,
    ) -> Result<OpinionCounts, crate::error::ConfigError> {
        if decided.len() != self.num_opinions {
            return Err(crate::error::ConfigError::OpinionOutOfRange {
                index: decided.len(),
                k: self.num_opinions,
            });
        }
        let mut counts = decided.to_vec();
        counts.push(undecided);
        OpinionCounts::from_counts(counts)
    }
}

impl SyncProtocol for UndecidedDynamics {
    fn name(&self) -> &str {
        "Undecided"
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        let blank = self.num_opinions as u32;
        let u = source.draw(rng);
        if own == blank {
            u
        } else if u == blank || u == own {
            own
        } else {
            blank
        }
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        assert_eq!(
            counts.k(),
            self.num_opinions + 1,
            "UndecidedDynamics: configuration must have num_opinions + 1 slots"
        );
        let blank = self.num_opinions;
        let n = counts.n();
        scratch.probs.clear();
        scratch
            .probs
            .extend(counts.counts().iter().map(|&c| c as f64 / n as f64));
        let alpha_blank = scratch.probs[blank];
        out.with_counts_mut(|next| {
            next.clear();
            next.resize(counts.k(), 0);
            // Decided groups: keep w.p. α_j + α_blank, become blank else.
            for j in 0..self.num_opinions {
                let c = counts.count(j);
                if c == 0 {
                    continue;
                }
                let p_blank = (1.0 - scratch.probs[j] - alpha_blank).clamp(0.0, 1.0);
                let to_blank = sample_binomial(rng, c, p_blank);
                next[j] += c - to_blank;
                next[blank] += to_blank;
            }
            // Undecided group: adopt the sampled vertex's state.
            let undecided = counts.count(blank);
            if undecided > 0 {
                scratch.counts.clear();
                scratch.counts.resize(counts.k(), 0);
                sample_multinomial_into(rng, undecided, &scratch.probs, &mut scratch.counts);
                for (slot, &a) in next.iter_mut().zip(scratch.counts.iter()) {
                    *slot += a;
                }
            }
        });
    }
}

impl GraphProtocol for UndecidedDynamics {
    #[inline]
    fn samples_per_vertex(&self) -> usize {
        1
    }

    #[inline]
    fn combine_gathered<R>(&self, own: u32, gathered: &mut [u32], _rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        let blank = self.num_opinions as u32;
        let u = gathered[0];
        if own == blank {
            u
        } else if u == blank || u == own {
            own
        } else {
            blank
        }
    }

    /// The blank symbol `num_opinions` can appear from round 1 on.
    fn max_symbol(&self, max_initial: u32) -> u32 {
        max_initial.max(u32::try_from(self.num_opinions).unwrap_or(u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::test_support::{mean_next_fractions, mean_next_fractions_agents};
    use od_sampling::rng_for;

    #[test]
    fn population_and_agent_engines_agree_in_expectation() {
        let proto = UndecidedDynamics::new(3);
        let start = proto.configuration(&[40, 30, 20], 10).unwrap();
        let pop = mean_next_fractions(&proto, &start, 3000, 140);
        let agents = mean_next_fractions_agents(&proto, &start, 3000, 141);
        for i in 0..4 {
            assert!(
                (pop[i] - agents[i]).abs() < 0.02,
                "state {i}: population {} vs agents {}",
                pop[i],
                agents[i]
            );
        }
    }

    #[test]
    fn decided_consensus_is_absorbing() {
        let proto = UndecidedDynamics::new(3);
        let c = proto.configuration(&[100, 0, 0], 0).unwrap();
        let mut rng = rng_for(142, 0);
        let next = proto.step_population(&c, &mut rng);
        assert_eq!(next.consensus_opinion(), Some(0));
    }

    #[test]
    fn all_undecided_is_absorbing() {
        let proto = UndecidedDynamics::new(2);
        let c = proto.configuration(&[0, 0], 50).unwrap();
        let mut rng = rng_for(143, 0);
        let next = proto.step_population(&c, &mut rng);
        assert_eq!(next.count(2), 50);
    }

    #[test]
    fn reaches_opinion_consensus_from_biased_start() {
        let proto = UndecidedDynamics::new(2);
        let mut c = proto.configuration(&[700, 300], 0).unwrap();
        let mut rng = rng_for(144, 0);
        let mut rounds = 0u64;
        while c.consensus_opinion().is_none() && rounds < 2000 {
            c = proto.step_population(&c, &mut rng);
            rounds += 1;
        }
        let w = c.consensus_opinion().expect("should converge");
        assert_eq!(w, 0, "plurality should win");
    }

    #[test]
    fn blank_never_kills_the_last_opinion() {
        // Validity-style invariant: total decided mass can reach 0 only if
        // it started at 0 — one surviving decided vertex keeps its opinion
        // with positive probability but can never be forced blank by blank
        // neighbors.
        let proto = UndecidedDynamics::new(1);
        // One decided vertex, many undecided: the single opinion never
        // conflicts with another opinion, so it can never vanish.
        let mut c = proto.configuration(&[1], 99).unwrap();
        let mut rng = rng_for(145, 0);
        for _ in 0..200 {
            c = proto.step_population(&c, &mut rng);
            assert!(c.count(0) >= 1, "opinion died: {c}");
        }
    }

    #[test]
    fn configuration_validates_length() {
        let proto = UndecidedDynamics::new(2);
        assert!(proto.configuration(&[1, 2, 3], 0).is_err());
    }

    #[test]
    fn expectation_sanity_for_two_opinions() {
        // From (a, b, u) with a+b+u = 1, a decided-a vertex stays w.p.
        // a + u, so E[a'] = a(a+u) + u·a = a(a + 2u)... check empirically
        // against the analytic one-step mean.
        let proto = UndecidedDynamics::new(2);
        let start = proto.configuration(&[50, 30], 20).unwrap();
        let (a, b, u) = (0.5, 0.3, 0.2);
        let want_a = a * (a + u) + u * a;
        let want_b = b * (b + u) + u * b;
        let got = mean_next_fractions(&proto, &start, 4000, 146);
        assert!((got[0] - want_a).abs() < 5e-3, "{} vs {want_a}", got[0]);
        assert!((got[1] - want_b).abs() < 5e-3, "{} vs {want_b}", got[1]);
    }
}
