//! The `h`-Majority family (Section 2.5): each vertex adopts the majority
//! opinion among `h` uniformly random samples, ties broken uniformly among
//! the tied opinions.
//!
//! `h = 1` coincides with the voter model. `h = 3` does **not** literally
//! coincide with the paper's 3-Majority tie-breaking (which resolves a
//! three-way tie by the third sample, equivalent to a uniform choice among
//! the three samples), but agrees with it in distribution — see
//! `three_way_tie_matches_three_majority` below.

use super::{GraphProtocol, OpinionSource, SyncProtocol};
use rand::{Rng, RngCore};

/// Sorts `samples` and returns the majority value, breaking ties
/// uniformly among the tied values (reservoir selection over the runs, so
/// no allocation).
fn majority_with_uniform_ties<R: Rng + ?Sized>(samples: &mut [u32], rng: &mut R) -> u32 {
    samples.sort_unstable();
    let mut best_count = 0usize;
    let mut tied = 0u32;
    let mut chosen = samples[0];
    let mut idx = 0;
    while idx < samples.len() {
        let mut end = idx + 1;
        while end < samples.len() && samples[end] == samples[idx] {
            end += 1;
        }
        let run = end - idx;
        if run > best_count {
            best_count = run;
            tied = 1;
            chosen = samples[idx];
        } else if run == best_count {
            // The i-th tied run replaces the held value w.p. 1/i: each
            // tied value ends up chosen w.p. 1/(number of tied values).
            tied += 1;
            if rng.random_range(0..tied) == 0 {
                chosen = samples[idx];
            }
        }
        idx = end;
    }
    chosen
}

/// The `h`-Majority protocol with uniform tie-breaking.
///
/// # Examples
///
/// ```
/// use od_core::{OpinionCounts, protocol::{HMajority, SyncProtocol}};
/// let proto = HMajority::new(5).unwrap();
/// assert_eq!(proto.h(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HMajority {
    h: usize,
}

impl HMajority {
    /// Creates the `h`-Majority rule.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `h == 0`.
    pub fn new(h: usize) -> Result<Self, &'static str> {
        if h == 0 {
            Err("h-Majority requires h >= 1")
        } else {
            Ok(Self { h })
        }
    }

    /// The sample size `h`.
    #[must_use]
    pub fn h(&self) -> usize {
        self.h
    }
}

impl SyncProtocol for HMajority {
    fn name(&self) -> &str {
        "h-Majority"
    }

    fn update_one(&self, _own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        // Draw h samples and find the mode; break ties uniformly among the
        // tied opinions. h is small (3, 5, 7, …) so a sort is cheap.
        //
        // Deliberately NOT routed through `majority_with_uniform_ties`:
        // this historical path draws at most one tie-break value from the
        // shared stream, and changing its consumption pattern would break
        // bit-reproducibility of existing h-majority results and make old
        // checkpoints resume into a different RNG regime. The batched
        // graph kernel below has no such legacy and uses the
        // allocation-free reservoir form.
        let mut samples: Vec<u32> = (0..self.h).map(|_| source.draw(rng)).collect();
        samples.sort_unstable();
        let mut best_count = 0usize;
        let mut tied: Vec<u32> = Vec::new();
        let mut idx = 0;
        while idx < samples.len() {
            let mut end = idx + 1;
            while end < samples.len() && samples[end] == samples[idx] {
                end += 1;
            }
            let run = end - idx;
            match run.cmp(&best_count) {
                std::cmp::Ordering::Greater => {
                    best_count = run;
                    tied.clear();
                    tied.push(samples[idx]);
                }
                std::cmp::Ordering::Equal => tied.push(samples[idx]),
                std::cmp::Ordering::Less => {}
            }
            idx = end;
        }
        if tied.len() == 1 {
            tied[0]
        } else {
            tied[rng.random_range(0..tied.len())]
        }
    }
}

impl GraphProtocol for HMajority {
    #[inline]
    fn samples_per_vertex(&self) -> usize {
        self.h
    }

    #[inline]
    fn combine_gathered<R>(&self, _own: u32, gathered: &mut [u32], rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        majority_with_uniform_ties(gathered, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OpinionCounts;
    use crate::protocol::test_support::mean_next_fractions;
    use crate::protocol::{CountsSource, ThreeMajority};
    use od_sampling::rng_for;

    #[test]
    fn h_one_is_the_voter_model() {
        let start = OpinionCounts::from_counts(vec![700, 300]).unwrap();
        let proto = HMajority::new(1).unwrap();
        let got = mean_next_fractions(&proto, &start, 2000, 120);
        assert!((got[0] - 0.7).abs() < 0.01, "{}", got[0]);
    }

    #[test]
    fn rejects_h_zero() {
        assert!(HMajority::new(0).is_err());
    }

    #[test]
    fn three_way_tie_matches_three_majority() {
        // With three distinct samples, uniform tie-breaking picks each of
        // the three samples w.p. 1/3 — exactly what "adopt the third
        // sample" does. So h=3 majority ≡ the paper's 3-Majority in
        // distribution. Verify on a 3-opinion configuration.
        let start = OpinionCounts::from_counts(vec![400, 350, 250]).unwrap();
        let h3 = mean_next_fractions(&HMajority::new(3).unwrap(), &start, 4000, 121);
        let want = ThreeMajority::update_distribution(&start);
        for i in 0..3 {
            assert!(
                (h3[i] - want[i]).abs() < 5e-3,
                "opinion {i}: {} vs {}",
                h3[i],
                want[i]
            );
        }
    }

    #[test]
    fn larger_h_amplifies_the_leader() {
        // E[α'(lead)] grows with h when the leader has a margin.
        let start = OpinionCounts::from_counts(vec![600, 400]).unwrap();
        let m3 = mean_next_fractions(&HMajority::new(3).unwrap(), &start, 3000, 122)[0];
        let m7 = mean_next_fractions(&HMajority::new(7).unwrap(), &start, 3000, 123)[0];
        assert!(
            m7 > m3 && m3 > 0.6,
            "drift should grow with h: h3 {m3}, h7 {m7}"
        );
    }

    #[test]
    fn update_one_majority_logic() {
        // Deterministic source: always returns opinion 2.
        struct Fixed(u32);
        impl crate::protocol::OpinionSource for Fixed {
            fn draw(&self, _rng: &mut dyn RngCore) -> u32 {
                self.0
            }
        }
        let proto = HMajority::new(5).unwrap();
        let mut rng = rng_for(124, 0);
        assert_eq!(proto.update_one(0, &Fixed(2), &mut rng), 2);
    }

    #[test]
    fn consensus_is_absorbing() {
        let c = OpinionCounts::consensus(200, 3, 1).unwrap();
        let proto = HMajority::new(5).unwrap();
        let mut rng = rng_for(125, 0);
        let src = CountsSource::new(&c);
        for _ in 0..50 {
            assert_eq!(proto.update_one(1, &src, &mut rng), 1);
        }
    }
}
