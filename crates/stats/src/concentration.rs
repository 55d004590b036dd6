//! Numeric evaluators for the concentration inequalities used in the paper.
//!
//! These functions compute the *bound values* (right-hand sides) of the
//! tail inequalities so that experiments can compare empirical deviation
//! frequencies against the theoretical guarantees:
//!
//! * [`chernoff_tail`] — Theorem A.1 ([BF20, Cor. 1.10.4]):
//!   `Pr[X ≥ z] ≤ 2^{−z}` for `z ≥ 2e·E[X]`;
//! * [`bernstein_tail`] — Theorem A.2 (Bernstein's inequality);
//! * [`freedman_tail`] — Corollary 3.8 (Freedman-type inequality under the
//!   one-sided Bernstein condition), the engine behind every multi-step
//!   concentration argument in Sections 4–5;
//! * [`bernstein_mgf_bound`] — the moment-generating-function bound defining
//!   the `(D, s)`-Bernstein condition (Definition 3.3).

/// Chernoff-type bound of Theorem A.1: for a sum `X` of independent `[0,1]`
/// variables and `z ≥ 2e·mean`, `Pr[X ≥ z] ≤ 2^{−z}`.
///
/// Returns `None` when `z < 2e·mean` (the theorem does not apply there).
#[must_use]
pub fn chernoff_tail(mean: f64, z: f64) -> Option<f64> {
    if z >= 2.0 * std::f64::consts::E * mean {
        Some(2f64.powf(-z))
    } else {
        None
    }
}

/// Bernstein's inequality (Theorem A.2): for independent mean-zero `X_i`
/// with `|X_i| ≤ D` and `Var[ΣX_i] = v`,
/// `Pr[|ΣX_i| ≥ z] ≤ 2·exp(−z²/2 / (v + Dz/3))`.
///
/// # Panics
///
/// Panics if `v < 0`, `d < 0` or `z < 0`.
#[must_use]
pub fn bernstein_tail(v: f64, d: f64, z: f64) -> f64 {
    assert!(
        v >= 0.0 && d >= 0.0 && z >= 0.0,
        "bernstein_tail: arguments must be non-negative"
    );
    if z == 0.0 {
        return 1.0;
    }
    (2.0 * (-z * z / 2.0 / (v + d * z / 3.0)).exp()).min(1.0)
}

/// Freedman-type inequality under the one-sided `(D, s)`-Bernstein condition
/// (Corollary 3.8): for a supermartingale with per-step condition parameters
/// `(d, s)` over a horizon of `t` steps,
/// `Pr[∃ t ≤ T : X_t − X_0 ≥ h] ≤ exp(−h²/2 / (T·s + h·D/3))`.
///
/// # Panics
///
/// Panics if any argument is negative or `h == 0`.
#[must_use]
pub fn freedman_tail(t: f64, s: f64, d: f64, h: f64) -> f64 {
    assert!(
        t >= 0.0 && s >= 0.0 && d >= 0.0 && h > 0.0,
        "freedman_tail: need t,s,d >= 0 and h > 0"
    );
    (-h * h / 2.0 / (t * s + h * d / 3.0)).exp().min(1.0)
}

/// The `(D, s)`-Bernstein MGF bound of Definition 3.3:
/// `exp(λ²s/2 / (1 − |λ|D/3))`, defined for `|λ|·D < 3`.
///
/// Returns `None` when `|λ|·D ≥ 3` (outside the condition's domain).
#[must_use]
pub fn bernstein_mgf_bound(d: f64, s: f64, lambda: f64) -> Option<f64> {
    let ld = lambda.abs() * d;
    if ld >= 3.0 {
        return None;
    }
    Some((lambda * lambda * s / 2.0 / (1.0 - ld / 3.0)).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chernoff_applies_only_above_threshold() {
        assert!(chernoff_tail(1.0, 1.0).is_none());
        let b = chernoff_tail(1.0, 10.0).unwrap();
        assert!((b - 2f64.powf(-10.0)).abs() < 1e-12);
    }

    #[test]
    fn bernstein_tail_monotone_in_z() {
        let mut prev = 1.1;
        for z in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let b = bernstein_tail(1.0, 0.1, z);
            assert!(b <= prev + 1e-12, "not monotone at z={z}");
            assert!(b <= 1.0);
            prev = b;
        }
    }

    #[test]
    fn bernstein_tail_matches_hand_value() {
        // v=1, d=0, z=2: 2 exp(-4/2 / 1) = 2 e^{-2}.
        let b = bernstein_tail(1.0, 0.0, 2.0);
        assert!((b - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn freedman_tail_matches_hand_value() {
        // T s = 1, hD/3 = 1, h = 3: exp(-9/2 / 2) = e^{-2.25}.
        let b = freedman_tail(1.0, 1.0, 1.0, 3.0);
        assert!((b - (-2.25f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn mgf_bound_domain() {
        assert!(bernstein_mgf_bound(1.0, 1.0, 3.0).is_none());
        assert!(bernstein_mgf_bound(1.0, 1.0, 2.9).is_some());
        // λ = 0 gives bound 1.
        assert_eq!(bernstein_mgf_bound(1.0, 1.0, 0.0), Some(1.0));
    }

    #[test]
    fn freedman_is_weaker_with_longer_horizon() {
        let short = freedman_tail(10.0, 0.01, 0.01, 1.0);
        let long = freedman_tail(1000.0, 0.01, 0.01, 1.0);
        assert!(short < long);
    }
}
