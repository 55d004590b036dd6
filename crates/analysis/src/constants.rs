//! Universal and derived constants of the paper.
//!
//! Definition 4.4 fixes the stopping-time constants; Lemmas 4.5 and 4.6
//! derive the composite constants `C_{4.5(1)}` and `C_{4.6}` from them. The
//! proofs of Lemmas 5.4 and 5.6 verify concrete numeric relations between
//! these, which the tests below reproduce digit for digit.

/// `c↑_α = c↓_α = c_weak = 1/10` (Definition 4.4 / Lemma 5.4).
pub const C_ALPHA: f64 = 0.1;
/// `c_weak = 1/10`.
pub const C_WEAK: f64 = 0.1;
/// `c↑_δ = c↓_δ = c_active = 1/20`.
pub const C_DELTA: f64 = 0.05;
/// `c_active = 1/20`.
pub const C_ACTIVE: f64 = 0.05;
/// `c↑_γ = c↓_γ = 1/30`.
pub const C_GAMMA: f64 = 1.0 / 30.0;
/// `c↑_η = 1/1000` (Definition 5.3).
pub const C_ETA: f64 = 0.001;
/// The `ε` used when instantiating Lemma 4.5 in Lemmas 5.4/5.6 (`ε = 1/10`).
pub const EPSILON: f64 = 0.1;

/// `C_{4.5(1)} = (1−ε)·c↑_α / (1+c↑_α)²` with the paper's values `= 9/121`.
#[must_use]
pub fn c_4_5_1() -> f64 {
    (1.0 - EPSILON) * C_ALPHA / ((1.0 + C_ALPHA) * (1.0 + C_ALPHA))
}

/// `C_{4.6} = 1 − 1/√(2(1−c_weak))` (Lemma 4.6), the variance-floor
/// constant for the bias of two non-weak opinions.
#[must_use]
pub fn c_4_6(c_weak: f64) -> f64 {
    assert!(
        (0.0..0.5).contains(&c_weak),
        "c_4_6: c_weak must be in [0, 1/2)"
    );
    1.0 - 1.0 / (2.0 * (1.0 - c_weak)).sqrt()
}

/// The bias threshold constant `c⁺_δ = 1/1000` used in Lemma 5.6
/// (`x_δ = c⁺_δ/√n` for 3-Majority).
pub const C_PLUS_DELTA: f64 = 0.001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_match_the_paper_fractions() {
        // The proof of Lemma 5.4 computes C_{4.5(1)} as an exact fraction,
        // and needs it above 0.073.
        assert!((c_4_5_1() - 9.0 / 121.0).abs() < 1e-15);
        assert!(c_4_5_1() > 0.073);
    }

    #[test]
    fn c_4_6_is_positive_for_valid_c_weak() {
        // 2(1−c) > 1 for c < 1/2, so the square root exceeds... equals 1 at
        // c = 1/2; the constant is positive strictly below that.
        assert!(c_4_6(0.1) > 0.0);
        assert!(c_4_6(0.0) > 0.0);
        assert!(c_4_6(0.49) > 0.0);
        // Monotone decreasing in c_weak.
        assert!(c_4_6(0.1) > c_4_6(0.3));
    }

    #[test]
    fn lemma_5_6_numeric_checks() {
        // Proof of Lemma 5.6 (3-Majority): 64 (c⁺_δ)² / (C₄.₆³ (1−c↓_α))
        // = (27 + 12√5)/12500 < 1/20.
        let lhs = 64.0 * C_PLUS_DELTA * C_PLUS_DELTA / (c_4_6(C_WEAK).powi(3) * (1.0 - C_ALPHA));
        let paper = (27.0 + 12.0 * 5.0f64.sqrt()) / 12_500.0;
        assert!(
            (lhs - paper).abs() < 1e-12,
            "lhs {lhs} vs paper value {paper}"
        );
        assert!(lhs < 1.0 / 20.0);
        // 2-Choices: 64 (c⁺_δ)² / (C₄.₆² (1−c↓_α)²) = (7 + 3√5)/11250 < 1/20.
        let lhs2 =
            64.0 * C_PLUS_DELTA * C_PLUS_DELTA / (c_4_6(C_WEAK).powi(2) * (1.0 - C_ALPHA).powi(2));
        let paper2 = (7.0 + 3.0 * 5.0f64.sqrt()) / 11_250.0;
        assert!(
            (lhs2 - paper2).abs() < 1e-12,
            "lhs2 {lhs2} vs paper value {paper2}"
        );
        assert!(lhs2 < 1.0 / 20.0);
    }

    #[test]
    fn lemma_5_4_eta_compatibility() {
        // Proof of Lemma 5.4 (2-Choices): (1+c↑_δ)/√(1+c↑_α) = 21√110/220
        // > 1 + c↑_η.
        let lhs = (1.0 + C_DELTA) / (1.0 + C_ALPHA).sqrt();
        let paper = 21.0 * 110.0f64.sqrt() / 220.0;
        assert!((lhs - paper).abs() < 1e-12);
        assert!(lhs > 1.0 + C_ETA);
    }

    #[test]
    #[should_panic(expected = "c_weak must be in")]
    fn c_4_6_rejects_half() {
        let _ = c_4_6(0.5);
    }
}
