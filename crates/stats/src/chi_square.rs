//! Pearson's χ² goodness-of-fit test.
//!
//! Checks observed category counts against a fully specified law — for
//! example the exact one-round law of a protocol at a tiny configuration
//! against the outcome frequencies of many simulated rounds.

use od_sampling::math::ln_gamma;

/// Result of a χ² goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquareTest {
    /// Pearson's statistic `Σ (O_i − E_i)² / E_i`.
    pub statistic: f64,
    /// Degrees of freedom: the number of categories with positive
    /// probability, minus one.
    pub df: usize,
    /// Upper-tail p-value `P(χ²_df ≥ statistic)`.
    pub p_value: f64,
}

impl ChiSquareTest {
    /// True when the test does **not** reject the law at level `alpha`.
    #[must_use]
    pub fn accepts_at(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// Tests the category counts `observed` against the category
/// probabilities `probabilities`. A category of probability zero takes
/// no part in the statistic, but a count observed in one makes the law
/// impossible: the statistic is infinite and the p-value zero. The χ²
/// approximation wants every expected count `n·p_i` at about 5 or more;
/// pool smaller categories before calling.
///
/// # Panics
///
/// Panics if the slices differ in length, a probability is negative or
/// not finite, the probabilities do not sum to 1 (within `1e-9`), fewer
/// than two categories have positive probability, or nothing was
/// observed.
#[must_use]
pub fn chi_square_gof(observed: &[u64], probabilities: &[f64]) -> ChiSquareTest {
    assert_eq!(
        observed.len(),
        probabilities.len(),
        "chi_square_gof: one probability per category"
    );
    assert!(
        probabilities.iter().all(|p| p.is_finite() && *p >= 0.0),
        "chi_square_gof: probabilities must be finite and non-negative"
    );
    let total: f64 = probabilities.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "chi_square_gof: probabilities sum to {total}, not 1"
    );
    let n: u64 = observed.iter().sum();
    assert!(n > 0, "chi_square_gof: nothing observed");
    let categories = probabilities.iter().filter(|&&p| p > 0.0).count();
    assert!(
        categories >= 2,
        "chi_square_gof: at least two categories need positive probability"
    );
    let df = categories - 1;
    let mut statistic = 0.0;
    for (&o, &p) in observed.iter().zip(probabilities) {
        if p > 0.0 {
            let expected = n as f64 * p;
            statistic += (o as f64 - expected).powi(2) / expected;
        } else if o > 0 {
            return ChiSquareTest {
                statistic: f64::INFINITY,
                df,
                p_value: 0.0,
            };
        }
    }
    ChiSquareTest {
        statistic,
        df,
        p_value: chi_square_sf(statistic, df),
    }
}

/// The χ² survival function `P(χ²_df ≥ x)`, the regularized upper
/// incomplete gamma function `Q(df/2, x/2)`.
///
/// # Panics
///
/// Panics if `df` is zero or `x` is NaN.
#[must_use]
pub fn chi_square_sf(x: f64, df: usize) -> f64 {
    assert!(df > 0, "chi_square_sf: df must be positive");
    assert!(!x.is_nan(), "chi_square_sf: x must not be NaN");
    if x <= 0.0 {
        return 1.0;
    }
    let (a, x) = (df as f64 / 2.0, x / 2.0);
    // ln(x^a e^{-x} / Γ(a)), the prefactor of both expansions.
    let ln_prefactor = a * x.ln() - x - ln_gamma(a);
    if x < a + 1.0 {
        // Series for the lower function P(a, x) = 1 − Q(a, x).
        let (mut term, mut sum, mut ap) = (1.0 / a, 1.0 / a, a);
        for _ in 0..1000 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (1.0 - sum * ln_prefactor.exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a, x) (modified Lentz).
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..1000 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        (h * ln_prefactor.exp()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulated_quantiles_have_their_tail_mass() {
        // (df, upper 5% point, upper 1% point) from standard χ² tables.
        for (df, q95, q99) in [
            (1, 3.841_459, 6.634_897),
            (2, 5.991_465, 9.210_340),
            (5, 11.070_498, 15.086_272),
            (10, 18.307_038, 23.209_251),
            (30, 43.772_972, 50.892_181),
        ] {
            let (p95, p99) = (chi_square_sf(q95, df), chi_square_sf(q99, df));
            assert!((p95 - 0.05).abs() < 1e-6, "df = {df}: {p95}");
            assert!((p99 - 0.01).abs() < 1e-6, "df = {df}: {p99}");
        }
        // The median of χ²_1 and the mean region of χ²_10.
        assert!((chi_square_sf(0.454_936, 1) - 0.5).abs() < 1e-6);
        assert!((chi_square_sf(9.341_818, 10) - 0.5).abs() < 1e-6);
        assert_eq!(chi_square_sf(0.0, 3), 1.0);
        assert!(chi_square_sf(1e4, 3) < 1e-300);
    }

    #[test]
    fn exact_fit_accepts_and_a_shifted_law_rejects() {
        let fit = chi_square_gof(&[250, 500, 250], &[0.25, 0.5, 0.25]);
        assert_eq!((fit.statistic, fit.df), (0.0, 2));
        assert_eq!(fit.p_value, 1.0);
        // 100 too many in the first category out of 1000: χ² = 40 + 20 + 0.
        let off = chi_square_gof(&[350, 400, 250], &[0.25, 0.5, 0.25]);
        assert!((off.statistic - 60.0).abs() < 1e-9, "{off:?}");
        assert!(!off.accepts_at(1e-9), "{off:?}");
    }

    #[test]
    fn zero_probability_categories() {
        // Unused and unobserved: not counted as a degree of freedom.
        let fit = chi_square_gof(&[10, 0, 10], &[0.5, 0.0, 0.5]);
        assert_eq!((fit.statistic, fit.df, fit.p_value), (0.0, 1, 1.0));
        // Observed where the law forbids it: rejected outright.
        let impossible = chi_square_gof(&[10, 1, 10], &[0.5, 0.0, 0.5]);
        assert_eq!(impossible.p_value, 0.0);
        assert!(impossible.statistic.is_infinite());
    }
}
