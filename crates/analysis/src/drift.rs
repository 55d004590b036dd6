//! Monte-Carlo one-step drift estimation — the tool that regenerates
//! **Table 1** by measuring the conditional drifts of `α`, `δ`, and `γ`
//! from a fixed configuration and comparing them to Lemma 4.1.

use crate::quantities;
use crate::Dynamics;
use od_core::protocol::SyncProtocol;
use od_core::OpinionCounts;
use od_stats::RunningStats;
use rand::RngCore;

/// Empirical vs. theoretical one-step behaviour of a scalar quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftComparison {
    /// Monte-Carlo mean of the quantity after one round.
    pub empirical_mean: f64,
    /// Standard error of the empirical mean.
    pub mean_std_error: f64,
    /// Monte-Carlo variance of the quantity after one round.
    pub empirical_var: f64,
    /// The theory value the mean is compared against (exact expectation for
    /// `α`/`δ`; lower bound for `γ`).
    pub theory_mean: f64,
    /// The variance upper bound of Lemma 4.1 (`NaN` where no bound is
    /// stated).
    pub theory_var_upper: f64,
}

impl DriftComparison {
    /// `|empirical − theory| / std_error`: the z-score of the mean against
    /// the exact expectation (only meaningful for `α` and `δ`).
    #[must_use]
    pub fn mean_z_score(&self) -> f64 {
        if self.mean_std_error == 0.0 {
            0.0
        } else {
            (self.empirical_mean - self.theory_mean) / self.mean_std_error
        }
    }
}

/// One-step drift estimates for `α(i)`, `δ(i,j)` and `γ` from a fixed
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEstimator {
    /// Drift of the tracked fraction `α(i)`.
    pub alpha: DriftComparison,
    /// Drift of the bias `δ(i, j)`.
    pub delta: DriftComparison,
    /// Drift of the norm `γ`.
    pub gamma: DriftComparison,
    /// Number of Monte-Carlo rounds sampled.
    pub trials: usize,
}

impl DriftEstimator {
    /// Samples `trials` independent one-round transitions of `protocol`
    /// from `start` and compares the drifts of `α(i)`, `δ(i,j)` and `γ`
    /// against the Lemma 4.1 formulas for `dynamics`.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `i == j` or either index is out of range.
    pub fn estimate<P: SyncProtocol>(
        protocol: &P,
        dynamics: Dynamics,
        start: &OpinionCounts,
        i: usize,
        j: usize,
        trials: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        assert!(trials > 0, "DriftEstimator: trials must be positive");
        assert!(i != j, "DriftEstimator: opinions must be distinct");
        let n = start.n();
        let gamma0 = start.gamma();
        let (a_i, a_j) = (start.fraction(i), start.fraction(j));
        let delta0 = start.bias(i, j);

        let mut s_alpha = RunningStats::new();
        let mut s_delta = RunningStats::new();
        let mut s_gamma = RunningStats::new();
        for _ in 0..trials {
            let next = protocol.step_population(start, rng);
            s_alpha.push(next.fraction(i));
            s_delta.push(next.bias(i, j));
            s_gamma.push(next.gamma());
        }

        Self {
            alpha: DriftComparison {
                empirical_mean: s_alpha.mean(),
                mean_std_error: s_alpha.std_error(),
                empirical_var: s_alpha.sample_variance(),
                theory_mean: quantities::expected_alpha_next(a_i, gamma0),
                theory_var_upper: quantities::var_alpha_upper(dynamics, a_i, gamma0, n),
            },
            delta: DriftComparison {
                empirical_mean: s_delta.mean(),
                mean_std_error: s_delta.std_error(),
                empirical_var: s_delta.sample_variance(),
                theory_mean: quantities::expected_delta_next(delta0, a_i, a_j, gamma0),
                theory_var_upper: quantities::var_delta_upper(dynamics, a_i, a_j, gamma0, n),
            },
            gamma: DriftComparison {
                empirical_mean: s_gamma.mean(),
                mean_std_error: s_gamma.std_error(),
                empirical_var: s_gamma.sample_variance(),
                theory_mean: quantities::expected_gamma_lower(dynamics, gamma0, n),
                theory_var_upper: f64::NAN,
            },
            trials,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::protocol::{ThreeMajority, TwoChoices};
    use od_sampling::rng_for;

    fn estimate(dynamics: Dynamics, counts: Vec<u64>, seed: u64) -> DriftEstimator {
        let start = OpinionCounts::from_counts(counts).unwrap();
        let mut rng = rng_for(seed, 0);
        match dynamics {
            Dynamics::ThreeMajority => {
                DriftEstimator::estimate(&ThreeMajority, dynamics, &start, 0, 1, 5000, &mut rng)
            }
            Dynamics::TwoChoices => {
                DriftEstimator::estimate(&TwoChoices, dynamics, &start, 0, 1, 5000, &mut rng)
            }
        }
    }

    /// Asserts the estimates agree with Lemma 4.1: the means of `α'` and
    /// `δ'` within five standard errors of their exact expectations, the
    /// variances at most 10% over their bounds, and the mean of `γ'`
    /// above its submartingale lower bound (within five standard errors).
    fn assert_consistent_with_lemma_4_1(est: &DriftEstimator) {
        let (z_max, var_slack) = (5.0, 0.1);
        assert!(
            est.alpha.mean_z_score().abs() <= z_max,
            "alpha z {}",
            est.alpha.mean_z_score()
        );
        assert!(
            est.delta.mean_z_score().abs() <= z_max,
            "delta z {}",
            est.delta.mean_z_score()
        );
        assert!(
            est.alpha.empirical_var <= est.alpha.theory_var_upper * (1.0 + var_slack),
            "var α {}/{}",
            est.alpha.empirical_var,
            est.alpha.theory_var_upper
        );
        assert!(
            est.delta.empirical_var <= est.delta.theory_var_upper * (1.0 + var_slack),
            "var δ {}/{}",
            est.delta.empirical_var,
            est.delta.theory_var_upper
        );
        assert!(
            est.gamma.empirical_mean + z_max * est.gamma.mean_std_error >= est.gamma.theory_mean,
            "gamma mean {} below {}",
            est.gamma.empirical_mean,
            est.gamma.theory_mean
        );
    }

    #[test]
    fn three_majority_drift_matches_lemma_4_1() {
        let est = estimate(Dynamics::ThreeMajority, vec![500, 300, 200], 210);
        assert_consistent_with_lemma_4_1(&est);
    }

    #[test]
    fn two_choices_drift_matches_lemma_4_1() {
        let est = estimate(Dynamics::TwoChoices, vec![500, 300, 200], 211);
        assert_consistent_with_lemma_4_1(&est);
    }

    #[test]
    fn drift_detects_wrong_theory() {
        // Cross-check the checker: feeding a biased configuration where
        // the leading fraction grows, the z-score against a *wrong* mean is
        // enormous.
        let est = estimate(Dynamics::ThreeMajority, vec![700, 200, 100], 212);
        let wrong_z = (est.alpha.empirical_mean - 0.5) / est.alpha.mean_std_error;
        assert!(wrong_z.abs() > 20.0, "checker lacks power: z = {wrong_z}");
    }

    #[test]
    fn balanced_configuration_has_zero_alpha_drift() {
        // From the perfectly balanced configuration, E[α'] = α exactly.
        let est = estimate(Dynamics::ThreeMajority, vec![250, 250, 250, 250], 213);
        assert!((est.alpha.theory_mean - 0.25).abs() < 1e-12);
        assert!(est.alpha.mean_z_score().abs() < 5.0);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn rejects_equal_opinions() {
        let start = OpinionCounts::balanced(100, 2).unwrap();
        let mut rng = rng_for(214, 0);
        let _ = DriftEstimator::estimate(
            &ThreeMajority,
            Dynamics::ThreeMajority,
            &start,
            1,
            1,
            10,
            &mut rng,
        );
    }
}
