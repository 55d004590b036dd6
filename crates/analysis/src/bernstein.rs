//! The `(D, s)`-Bernstein condition (Definition 3.3): parameters from
//! Lemma 4.2 and an empirical moment-generating-function checker.

use crate::Dynamics;

/// Parameters `(D, s)` of a Bernstein condition: the condition asserts
/// `E[e^{λX}] ≤ exp(λ²s/2 / (1 − |λ|D/3))` for `|λ|D < 3`
/// (for one-sided conditions, only `λ ≥ 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernsteinParams {
    /// The jump scale `D`.
    pub d: f64,
    /// The variance proxy `s`.
    pub s: f64,
    /// Whether the condition is one-sided (`λ ≥ 0` only).
    pub one_sided: bool,
}

impl BernsteinParams {
    /// Lemma 4.2(i): `α_t(i) − E_{t−1}[α_t(i)]` satisfies the
    /// `(1/n, s)`-Bernstein condition with `s = α/n` (3-Majority) or
    /// `s = α(α+γ)/n` (2-Choices).
    #[must_use]
    pub fn alpha(dynamics: Dynamics, alpha_i: f64, gamma: f64, n: u64) -> Self {
        let s = match dynamics {
            Dynamics::ThreeMajority => alpha_i / n as f64,
            Dynamics::TwoChoices => alpha_i * (alpha_i + gamma) / n as f64,
        };
        Self {
            d: 1.0 / n as f64,
            s,
            one_sided: false,
        }
    }

    /// Lemma 4.2(ii): `δ_t − E_{t−1}[δ_t]` satisfies the `(2/n, s)`-
    /// Bernstein condition with `s = 2(α_i+α_j)/n` (3-Majority) or
    /// `s = (α_i+α_j)(α_i+α_j+γ)/n` (2-Choices).
    #[must_use]
    pub fn delta(dynamics: Dynamics, alpha_i: f64, alpha_j: f64, gamma: f64, n: u64) -> Self {
        let sum = alpha_i + alpha_j;
        let s = match dynamics {
            Dynamics::ThreeMajority => 2.0 * sum / n as f64,
            Dynamics::TwoChoices => sum * (sum + gamma) / n as f64,
        };
        Self {
            d: 2.0 / n as f64,
            s,
            one_sided: false,
        }
    }

    /// Lemma 4.2(iii): `γ_{t−1} − γ_t` satisfies the **one-sided**
    /// `(2√γ/n, s)`-Bernstein condition with `s = 4γ^{1.5}/n` (3-Majority)
    /// or `s = 8γ²/n` (2-Choices).
    #[must_use]
    pub fn gamma_decrease(dynamics: Dynamics, gamma: f64, n: u64) -> Self {
        let s = match dynamics {
            Dynamics::ThreeMajority => 4.0 * gamma.powf(1.5) / n as f64,
            Dynamics::TwoChoices => 8.0 * gamma * gamma / n as f64,
        };
        Self {
            d: 2.0 * gamma.sqrt() / n as f64,
            s,
            one_sided: true,
        }
    }

    /// The MGF bound `exp(λ²s/2 / (1 − |λ|D/3))` (Definition 3.3), defined
    /// for `|λ|D < 3`; `None` outside the domain (or for negative `λ` of a
    /// one-sided condition).
    #[must_use]
    pub fn mgf_bound(&self, lambda: f64) -> Option<f64> {
        if self.one_sided && lambda < 0.0 {
            return None;
        }
        od_stats::concentration::bernstein_mgf_bound(self.d, self.s, lambda)
    }
}

/// Result of empirically checking a Bernstein condition on one-step
/// samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MgfCheck {
    /// `(λ, empirical E[e^{λX}], theoretical bound)` triples.
    pub points: Vec<(f64, f64, f64)>,
    /// Largest ratio `empirical / bound` observed (≤ 1 within sampling
    /// error when the condition holds).
    pub worst_ratio: f64,
}

impl MgfCheck {
    /// True if no grid point exceeded the bound by more than `slack`
    /// (multiplicative, to absorb Monte-Carlo error).
    #[must_use]
    pub fn holds_with_slack(&self, slack: f64) -> bool {
        self.worst_ratio <= 1.0 + slack
    }
}

/// Empirically verifies the Bernstein condition: computes
/// `Ê[e^{λX}]` over `samples` at each `λ` in a grid spanning the condition
/// domain and compares it to [`BernsteinParams::mgf_bound`].
///
/// # Panics
///
/// Panics if `samples` is empty or `grid_points == 0`.
#[must_use]
pub fn check_mgf(samples: &[f64], params: &BernsteinParams, grid_points: usize) -> MgfCheck {
    assert!(!samples.is_empty(), "check_mgf: samples must be non-empty");
    assert!(grid_points > 0, "check_mgf: need at least one grid point");
    // Stay well inside the domain |λ|D < 3 (the bound diverges at the
    // boundary, so checking close to it is vacuous).
    let lam_max = 1.5 / params.d.max(f64::MIN_POSITIVE);
    let mut points = Vec::with_capacity(grid_points * 2);
    let mut worst: f64 = 0.0;
    let lambdas: Vec<f64> = (1..=grid_points)
        .flat_map(|i| {
            let l = lam_max * i as f64 / grid_points as f64;
            if params.one_sided {
                vec![l]
            } else {
                vec![l, -l]
            }
        })
        .collect();
    for lambda in lambdas {
        let Some(bound) = params.mgf_bound(lambda) else {
            continue;
        };
        let emp: f64 =
            samples.iter().map(|&x| (lambda * x).exp()).sum::<f64>() / samples.len() as f64;
        worst = worst.max(emp / bound);
        points.push((lambda, emp, bound));
    }
    MgfCheck {
        points,
        worst_ratio: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::protocol::SyncProtocol;
    use od_core::OpinionCounts;
    use od_sampling::rng_for;

    #[test]
    fn parameter_formulas() {
        let p = BernsteinParams::alpha(Dynamics::ThreeMajority, 0.2, 0.3, 100);
        assert_eq!(p.d, 0.01);
        assert!((p.s - 0.002).abs() < 1e-15);
        assert!(!p.one_sided);

        let p2 = BernsteinParams::delta(Dynamics::TwoChoices, 0.2, 0.1, 0.3, 100);
        assert_eq!(p2.d, 0.02);
        assert!((p2.s - 0.3 * 0.6 / 100.0).abs() < 1e-15);

        let pg = BernsteinParams::gamma_decrease(Dynamics::ThreeMajority, 0.25, 100);
        assert!((pg.d - 2.0 * 0.5 / 100.0).abs() < 1e-15);
        assert!((pg.s - 4.0 * 0.125 / 100.0).abs() < 1e-15);
        assert!(pg.one_sided);
    }

    #[test]
    fn mgf_bound_domain_and_shape() {
        let p = BernsteinParams {
            d: 1.0,
            s: 1.0,
            one_sided: false,
        };
        assert!(p.mgf_bound(0.0) == Some(1.0));
        assert!(p.mgf_bound(3.0).is_none());
        let one = BernsteinParams {
            one_sided: true,
            ..p
        };
        assert!(one.mgf_bound(-0.5).is_none());
        assert!(one.mgf_bound(0.5).is_some());
    }

    /// The headline empirical validation: one-step fluctuations of
    /// `α_t(i) − E[α_t(i)]` under 3-Majority satisfy the Lemma 4.2(i)
    /// MGF bound.
    #[test]
    fn three_majority_alpha_fluctuations_satisfy_bernstein() {
        let counts = OpinionCounts::from_counts(vec![300, 300, 400]).unwrap();
        let n = counts.n();
        let gamma = counts.gamma();
        let a0 = counts.fraction(0);
        let expect = crate::quantities::expected_alpha_next(a0, gamma);
        let mut rng = rng_for(200, 0);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let next = od_core::protocol::ThreeMajority.step_population(&counts, &mut rng);
                next.fraction(0) - expect
            })
            .collect();
        let params = BernsteinParams::alpha(Dynamics::ThreeMajority, a0, gamma, n);
        let check = check_mgf(&samples, &params, 8);
        assert!(
            check.holds_with_slack(0.05),
            "worst ratio {}",
            check.worst_ratio
        );
    }

    /// Same for 2-Choices, including the tighter `s`.
    #[test]
    fn two_choices_alpha_fluctuations_satisfy_bernstein() {
        let counts = OpinionCounts::from_counts(vec![300, 300, 400]).unwrap();
        let n = counts.n();
        let gamma = counts.gamma();
        let a0 = counts.fraction(0);
        let expect = crate::quantities::expected_alpha_next(a0, gamma);
        let mut rng = rng_for(201, 0);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let next = od_core::protocol::TwoChoices.step_population(&counts, &mut rng);
                next.fraction(0) - expect
            })
            .collect();
        let params = BernsteinParams::alpha(Dynamics::TwoChoices, a0, gamma, n);
        let check = check_mgf(&samples, &params, 8);
        assert!(
            check.holds_with_slack(0.05),
            "worst ratio {}",
            check.worst_ratio
        );
    }

    /// The one-sided condition for γ decrease (Lemma 4.2(iii)).
    #[test]
    fn gamma_decrease_satisfies_one_sided_bernstein() {
        let counts = OpinionCounts::from_counts(vec![500, 300, 200]).unwrap();
        let n = counts.n();
        let gamma = counts.gamma();
        let mut rng = rng_for(202, 0);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let next = od_core::protocol::ThreeMajority.step_population(&counts, &mut rng);
                gamma - next.gamma() // γ_{t-1} − γ_t
            })
            .collect();
        let params = BernsteinParams::gamma_decrease(Dynamics::ThreeMajority, gamma, n);
        let check = check_mgf(&samples, &params, 8);
        assert!(
            check.holds_with_slack(0.05),
            "worst ratio {}",
            check.worst_ratio
        );
    }

    #[test]
    fn check_mgf_detects_violations() {
        // Samples with jumps far beyond D and huge variance must violate a
        // tiny Bernstein bound.
        let samples: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let params = BernsteinParams {
            d: 0.001,
            s: 1e-9,
            one_sided: false,
        };
        let check = check_mgf(&samples, &params, 4);
        assert!(
            !check.holds_with_slack(0.5),
            "should violate: {}",
            check.worst_ratio
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn check_mgf_rejects_empty() {
        let params = BernsteinParams {
            d: 1.0,
            s: 1.0,
            one_sided: false,
        };
        let _ = check_mgf(&[], &params, 4);
    }
}
