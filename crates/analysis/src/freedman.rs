//! The bounded decrease of `γ_t` (Lemma 4.7) as an executable bound.
//!
//! Lemma 4.7 applies the additive drift lemma (Lemma 3.5) with drift 0:
//! the Freedman-type tail of Corollary 3.8
//! ([`od_stats::concentration::freedman_tail`]) over the one-sided
//! `(D, s)`-Bernstein parameters of Lemma 4.2(iii).

use crate::bernstein::BernsteinParams;
use crate::Dynamics;
use od_stats::concentration::freedman_tail;

/// Lemma 4.7: `Pr[τ↓_γ ≤ T]` — the probability that `γ` ever drops by a
/// `c↓_γ` factor below its running maximum within `T` rounds — is at most
/// `T·exp(−Ω(n√γ₀/T))` for 3-Majority and `T·exp(−Ω(n/(T + γ₀^{−1/2})))`
/// for 2-Choices. Returns the bound with the explicit constants that fall
/// out of Item 6 of Lemma 4.5 (drift 0, `h = c↓_γ·γ₀`, Bernstein
/// parameters of Lemma 4.2(iii)).
///
/// # Panics
///
/// Panics if `gamma0 ∉ (0, 1]`, `n == 0` or `t <= 0`.
#[must_use]
pub fn gamma_decrease_probability(dynamics: Dynamics, n: u64, gamma0: f64, t: f64) -> f64 {
    assert!(n > 0, "gamma_decrease_probability: n must be positive");
    assert!(
        gamma0 > 0.0 && gamma0 <= 1.0,
        "gamma_decrease_probability: gamma0 must be in (0, 1], got {gamma0}"
    );
    assert!(t > 0.0, "gamma_decrease_probability: t must be positive");
    let c_down = crate::constants::C_GAMMA;
    let c_up = 1.0; // Lemma 4.7 uses c↑_γ = 1 (doubling) for the partial process
    let gamma_max = (1.0 + c_up) * gamma0;
    let params = BernsteinParams::gamma_decrease(dynamics, gamma_max.min(1.0), n);
    let h = c_down * gamma0;
    let one_window = freedman_tail(t, params.s, params.d, h);
    (t * one_window).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::protocol::SyncProtocol;
    use od_core::OpinionCounts;
    use od_sampling::rng_for;

    #[test]
    fn gamma_decrease_bound_shrinks_with_n() {
        // The explicit constants of Lemma 4.7 are tiny (≈ c↓_γ²/8), so the
        // bound only bites at large n·γ₀^{1.5}/T — exactly as the paper's
        // "sufficiently large constant C" hypotheses anticipate.
        let t = 10.0;
        let g = 0.5;
        let p_small = gamma_decrease_probability(Dynamics::ThreeMajority, 100_000, g, t);
        let p_large = gamma_decrease_probability(Dynamics::ThreeMajority, 1_000_000_000, g, t);
        assert!(p_large < p_small, "{p_large} !< {p_small}");
        assert!(
            p_large < 1e-9,
            "bound at n = 1e9 should be negligible, got {p_large}"
        );
    }

    #[test]
    fn gamma_decrease_bound_is_a_probability() {
        for d in [Dynamics::ThreeMajority, Dynamics::TwoChoices] {
            for (n, g, t) in [(100u64, 0.5, 10.0), (10_000, 0.01, 1000.0)] {
                let p = gamma_decrease_probability(d, n, g, t);
                assert!((0.0..=1.0).contains(&p), "{d}: p = {p}");
            }
        }
    }

    /// Empirical confirmation of Lemma 4.7 at laptop scale: over many runs,
    /// γ essentially never drops below `(1 − c↓_γ)·γ₀` when γ₀ is large.
    #[test]
    fn gamma_rarely_drops_in_simulation() {
        let n = 10_000u64;
        let start = OpinionCounts::from_counts(vec![4000, 3000, 3000]).unwrap();
        let gamma0 = start.gamma();
        let threshold = (1.0 - crate::constants::C_GAMMA) * gamma0;
        let t = 50u64;
        let mut drops = 0u64;
        let trials = 200u64;
        for trial in 0..trials {
            let mut rng = rng_for(900, trial);
            let mut counts = start.clone();
            for _ in 0..t {
                counts = od_core::protocol::ThreeMajority.step_population(&counts, &mut rng);
                if counts.gamma() < threshold {
                    drops += 1;
                    break;
                }
            }
        }
        // Empirically γ grows strongly from this configuration (drift
        // ≈ +0.013/round vs per-round σ ≈ 2e-3), so a c↓_γ-factor drop
        // never materialises.
        assert_eq!(
            drops, 0,
            "gamma dropped below (1-c)γ0 in {drops}/{trials} runs"
        );
        // The Lemma 4.7 *bound* is valid (a probability) but loose at this
        // small scale — record that honestly rather than over-claim.
        let bound = gamma_decrease_probability(Dynamics::ThreeMajority, n, gamma0, t as f64);
        assert!((0.0..=1.0).contains(&bound));
    }
}
