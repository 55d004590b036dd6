//! Least-squares fitting, including log–log power-law fits.
//!
//! The paper's headline claims are growth rates — consensus time `Θ̃(k)`,
//! `Θ̃(√n)` — which we verify by fitting `ln y = a + b·ln x` over measured
//! sweeps and checking the exponent `b`.

/// Result of an ordinary least-squares fit `y ≈ intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²` (1 for a perfect fit).
    pub r_squared: f64,
    /// Standard error of the slope estimate.
    pub slope_std_error: f64,
}

/// Fits `y ≈ intercept + slope·x` by ordinary least squares.
///
/// # Panics
///
/// Panics if the slices have different lengths, fewer than two points, or
/// all `x` values are identical.
///
/// # Examples
///
/// ```
/// use od_stats::regression::linear_fit;
/// let fit = linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]);
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "linear_fit: length mismatch");
    assert!(xs.len() >= 2, "linear_fit: need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "linear_fit: x values must not all be equal");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_res: f64 = xs
        .iter()
        .zip(ys.iter())
        .map(|(&x, &y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r_squared = if syy > 0.0 { 1.0 - ss_res / syy } else { 1.0 };
    let dof = (xs.len().max(3) - 2) as f64;
    let slope_std_error = (ss_res / dof / sxx).sqrt();
    LinearFit {
        slope,
        intercept,
        r_squared,
        slope_std_error,
    }
}

/// Fits the power law `y ≈ C·x^b` by least squares in log–log space and
/// returns the fit of `ln y` against `ln x` (so `slope` is the exponent `b`
/// and `intercept` is `ln C`).
///
/// # Panics
///
/// Panics if any `x` or `y` is non-positive, or under the conditions of
/// [`linear_fit`].
///
/// # Examples
///
/// ```
/// use od_stats::power_law_fit;
/// let xs: [f64; 3] = [10.0, 100.0, 1000.0];
/// let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x.powf(0.5)).collect();
/// let fit = power_law_fit(&xs, &ys);
/// assert!((fit.slope - 0.5).abs() < 1e-10);
/// ```
#[must_use]
pub fn power_law_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    let lx: Vec<f64> = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "power_law_fit: x must be positive, got {x}");
            x.ln()
        })
        .collect();
    let ly: Vec<f64> = ys
        .iter()
        .map(|&y| {
            assert!(y > 0.0, "power_law_fit: y must be positive, got {y}");
            y.ln()
        })
        .collect();
    linear_fit(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| -3.0 * x + 7.0).collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope + 3.0).abs() < 1e-12);
        assert!((fit.intercept - 7.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!(fit.slope_std_error < 1e-9);
    }

    #[test]
    fn noisy_line_slope_within_error() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        // Deterministic "noise" with zero mean.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x + 1.0 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope - 2.0).abs() < 5.0 * fit.slope_std_error + 1e-3);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn power_law_exponent_recovered() {
        let xs = [2.0, 4.0, 8.0, 16.0, 32.0];
        let ys: Vec<f64> = xs.iter().map(|&x: &f64| 5.0 * x.powf(1.5)).collect();
        let fit = power_law_fit(&xs, &ys);
        assert!((fit.slope - 1.5).abs() < 1e-10);
        assert!((fit.intercept - 5.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let _ = linear_fit(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_point() {
        let _ = linear_fit(&[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn power_law_rejects_nonpositive() {
        let _ = power_law_fit(&[1.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn constant_y_has_unit_r_squared() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }
}
