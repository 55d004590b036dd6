//! The opinion configuration and the basic quantities of Definition 3.2.

use crate::error::ConfigError;
use od_sampling::zipf::apportion;

/// The state of a synchronous consensus dynamic: the number of vertices
/// supporting each opinion, `(n_1, …, n_k)` with `Σ n_i = n`.
///
/// Derived quantities follow Definition 3.2 of the paper:
/// * `α(i)` — [`OpinionCounts::fraction`], the fraction supporting opinion `i`;
/// * `γ = ‖α‖₂²` — [`OpinionCounts::gamma`], the squared ℓ²-norm;
/// * `δ(i, j) = α(i) − α(j)` — [`OpinionCounts::bias`];
/// * `η(i, j) = δ(i,j)/√(max{α(i), α(j)})` — [`OpinionCounts::scaled_bias`]
///   (Definition 5.3, used by the 2-Choices analysis).
///
/// # Examples
///
/// ```
/// use od_core::OpinionCounts;
/// let c = OpinionCounts::balanced(100, 4).unwrap();
/// assert_eq!(c.n(), 100);
/// assert_eq!(c.k(), 4);
/// assert!((c.gamma() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OpinionCounts {
    counts: Vec<u64>,
    n: u64,
}

impl OpinionCounts {
    /// Creates a configuration from explicit per-opinion counts.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoOpinions`] if `counts` is empty,
    /// [`ConfigError::PopulationOverflow`] if the counts sum past
    /// `u64::MAX`, and [`ConfigError::ZeroPopulation`] if all counts are
    /// zero.
    pub fn from_counts(counts: Vec<u64>) -> Result<Self, ConfigError> {
        if counts.is_empty() {
            return Err(ConfigError::NoOpinions);
        }
        let n = counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .ok_or(ConfigError::PopulationOverflow)?;
        if n == 0 {
            return Err(ConfigError::ZeroPopulation);
        }
        Ok(Self { counts, n })
    }

    /// Creates the (near-)balanced configuration: `n` vertices spread as
    /// evenly as possible over `k` opinions — the initial configuration of
    /// the lower bound, Theorem 2.7.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::MoreOpinionsThanVertices`] when `k > n` (the
    /// validity condition requires every opinion to be supported) and
    /// [`ConfigError::NoOpinions`]/[`ConfigError::ZeroPopulation`] for zero
    /// arguments.
    pub fn balanced(n: u64, k: usize) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError::NoOpinions);
        }
        if n == 0 {
            return Err(ConfigError::ZeroPopulation);
        }
        if (k as u64) > n {
            return Err(ConfigError::MoreOpinionsThanVertices { k, n });
        }
        let base = n / k as u64;
        let extra = (n % k as u64) as usize;
        let counts = (0..k).map(|i| base + u64::from(i < extra)).collect();
        Ok(Self { counts, n })
    }

    /// Creates a configuration where opinion `0` leads every other opinion
    /// by (at least) `margin` vertices and the rest are balanced — the
    /// plurality-consensus setting of Theorem 2.6.
    ///
    /// # Errors
    ///
    /// Returns an error when the arguments cannot produce a valid
    /// configuration (`k == 0`, `n == 0`, `k > n`, or the margin exceeds
    /// what `n` vertices allow).
    pub fn with_leader_margin(n: u64, k: usize, margin: u64) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError::NoOpinions);
        }
        if n == 0 {
            return Err(ConfigError::ZeroPopulation);
        }
        if (k as u64) > n {
            return Err(ConfigError::MoreOpinionsThanVertices { k, n });
        }
        if k == 1 {
            return Ok(Self { counts: vec![n], n });
        }
        let rest = n
            .checked_sub(margin)
            .filter(|&r| r >= k as u64 - 1)
            .ok_or(ConfigError::MoreOpinionsThanVertices { k, n })?;
        // Spread the non-margin mass evenly over all k opinions, then move
        // the margin onto opinion 0.
        let mut counts: Vec<u64> = Self::balanced(rest, k)?.counts;
        counts[0] += margin;
        Ok(Self { counts, n })
    }

    /// Creates a configuration with fractional weights apportioned onto `n`
    /// vertices by the largest-remainder method (e.g. Zipf-shaped
    /// workloads).
    ///
    /// # Errors
    ///
    /// Returns an error when `weights` is empty or the apportionment
    /// produces an empty population.
    ///
    /// # Panics
    ///
    /// Panics if `weights` contains negative or non-finite values (see
    /// [`od_sampling::zipf::apportion`]).
    pub fn from_weights(n: u64, weights: &[f64]) -> Result<Self, ConfigError> {
        if weights.is_empty() {
            return Err(ConfigError::NoOpinions);
        }
        Self::from_counts(apportion(n, weights))
    }

    /// The consensus configuration: all `n` vertices on opinion `winner`
    /// out of `k` slots.
    ///
    /// # Errors
    ///
    /// Returns an error for empty arguments or `winner >= k`.
    pub fn consensus(n: u64, k: usize, winner: usize) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError::NoOpinions);
        }
        if n == 0 {
            return Err(ConfigError::ZeroPopulation);
        }
        if winner >= k {
            return Err(ConfigError::OpinionOutOfRange { index: winner, k });
        }
        let mut counts = vec![0u64; k];
        counts[winner] = n;
        Ok(Self { counts, n })
    }

    /// Number of vertices `n`.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of opinion slots `k` (including currently empty ones).
    #[must_use]
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// Number of vertices supporting opinion `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[must_use]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The raw counts slice.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Grants temporary mutable access to the raw counts vector — the
    /// buffer-reuse hook of the in-place round step
    /// ([`crate::protocol::SyncProtocol::step_population_into`]) and of
    /// the run loop's dropping of empty slots
    /// ([`crate::Simulation::run`]) — and re-establishes the invariants
    /// afterwards (`n` is recomputed).
    ///
    /// # Panics
    ///
    /// Panics if the closure leaves the configuration empty or with zero
    /// population.
    pub fn with_counts_mut<T>(&mut self, f: impl FnOnce(&mut Vec<u64>) -> T) -> T {
        let result = f(&mut self.counts);
        assert!(
            !self.counts.is_empty(),
            "with_counts_mut: configuration must keep at least one opinion slot"
        );
        self.n = self.counts.iter().sum();
        assert!(
            self.n > 0,
            "with_counts_mut: configuration must keep a positive population"
        );
        result
    }

    /// The fraction `α(i)` of vertices supporting opinion `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[must_use]
    pub fn fraction(&self, i: usize) -> f64 {
        self.counts[i] as f64 / self.n as f64
    }

    /// All fractions `α` as a vector.
    #[must_use]
    pub fn fractions(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.n as f64)
            .collect()
    }

    /// The squared ℓ²-norm `γ = Σ_i α(i)²` (Definition 3.2(iii)).
    ///
    /// Always satisfies `1/k ≤ γ ≤ 1` by Cauchy–Schwarz.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        let n2 = (self.n as f64) * (self.n as f64);
        self.counts
            .iter()
            .map(|&c| (c as f64) * (c as f64))
            .sum::<f64>()
            / n2
    }

    /// The maximum fraction `‖α‖_∞ = max_i α(i)`.
    #[must_use]
    pub fn max_fraction(&self) -> f64 {
        self.plurality_count() as f64 / self.n as f64
    }

    /// The bias `δ(i, j) = α(i) − α(j)` (Definition 3.2(ii)).
    ///
    /// # Panics
    ///
    /// Panics if `i >= k` or `j >= k`.
    #[must_use]
    pub fn bias(&self, i: usize, j: usize) -> f64 {
        self.fraction(i) - self.fraction(j)
    }

    /// The scaled bias `η(i, j) = δ(i,j) / √(max{α(i), α(j)})` of
    /// Definition 5.3 (the 2-Choices potential). Returns `0` when both
    /// opinions are unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k` or `j >= k`.
    #[must_use]
    pub fn scaled_bias(&self, i: usize, j: usize) -> f64 {
        let m = self.fraction(i).max(self.fraction(j));
        if m == 0.0 {
            0.0
        } else {
            self.bias(i, j) / m.sqrt()
        }
    }

    /// Number of opinions currently supported by at least one vertex.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Iterator over the supported opinion indices.
    pub fn support(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
    }

    /// The plurality opinion: the smallest index attaining the maximum
    /// count.
    #[must_use]
    pub fn plurality(&self) -> usize {
        let mut best = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > self.counts[best] {
                best = i;
            }
        }
        best
    }

    /// The count of the plurality opinion.
    #[must_use]
    pub fn plurality_count(&self) -> u64 {
        *self.counts.iter().max().expect("counts is non-empty")
    }

    /// The second-largest count's opinion index (distinct from
    /// [`OpinionCounts::plurality`]); `None` when `k == 1`.
    #[must_use]
    pub fn runner_up(&self) -> Option<usize> {
        let lead = self.plurality();
        self.counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != lead)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// Returns `Some(i)` when all vertices support opinion `i` (the
    /// consensus condition defining `τ_cons`).
    #[must_use]
    pub fn consensus_opinion(&self) -> Option<usize> {
        if self.support_size() == 1 {
            self.support().next()
        } else {
            None
        }
    }

    /// True if the configuration is a consensus.
    #[must_use]
    pub fn is_consensus(&self) -> bool {
        self.consensus_opinion().is_some()
    }

    /// Moves `amount` vertices from opinion `from` to opinion `to`
    /// (the adversary's corruption primitive). Moves at most `count(from)`.
    /// Returns the number actually moved.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn transfer(&mut self, from: usize, to: usize, amount: u64) -> u64 {
        assert!(
            from < self.counts.len() && to < self.counts.len(),
            "transfer: opinion index out of range"
        );
        let moved = amount.min(self.counts[from]);
        if from != to {
            self.counts[from] -= moved;
            self.counts[to] += moved;
        }
        moved
    }
}

impl std::fmt::Display for OpinionCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OpinionCounts(n={}, k={}, support={}, γ={:.4})",
            self.n,
            self.k(),
            self.support_size(),
            self.gamma()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_distributes_remainder() {
        let c = OpinionCounts::balanced(10, 3).unwrap();
        assert_eq!(c.counts(), &[4, 3, 3]);
        assert_eq!(c.n(), 10);
    }

    #[test]
    fn balanced_gamma_is_one_over_k_when_exact() {
        let c = OpinionCounts::balanced(1000, 8).unwrap();
        assert!((c.gamma() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_bounds_cauchy_schwarz() {
        for counts in [vec![5u64, 3, 2], vec![10, 0, 0], vec![1, 1, 1, 1]] {
            let k = counts.len() as f64;
            let c = OpinionCounts::from_counts(counts).unwrap();
            assert!(c.gamma() >= 1.0 / k - 1e-12);
            assert!(c.gamma() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn leader_margin_configuration() {
        let c = OpinionCounts::with_leader_margin(100, 4, 20).unwrap();
        assert_eq!(c.n(), 100);
        for j in 1..4 {
            assert!(c.count(0) >= c.count(j) + 20, "margin violated against {j}");
        }
    }

    #[test]
    fn leader_margin_rejects_excess() {
        assert!(OpinionCounts::with_leader_margin(10, 4, 9).is_err());
    }

    #[test]
    fn consensus_detection() {
        let c = OpinionCounts::consensus(50, 3, 1).unwrap();
        assert_eq!(c.consensus_opinion(), Some(1));
        assert!(c.is_consensus());
        let d = OpinionCounts::from_counts(vec![1, 49]).unwrap();
        assert_eq!(d.consensus_opinion(), None);
    }

    #[test]
    fn bias_and_scaled_bias() {
        let c = OpinionCounts::from_counts(vec![60, 40]).unwrap();
        assert!((c.bias(0, 1) - 0.2).abs() < 1e-12);
        assert!((c.bias(1, 0) + 0.2).abs() < 1e-12);
        let eta = c.scaled_bias(0, 1);
        assert!((eta - 0.2 / 0.6f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn scaled_bias_of_empty_pair_is_zero() {
        let c = OpinionCounts::from_counts(vec![10, 0, 0]).unwrap();
        assert_eq!(c.scaled_bias(1, 2), 0.0);
    }

    #[test]
    fn plurality_and_runner_up() {
        let c = OpinionCounts::from_counts(vec![3, 7, 7, 2]).unwrap();
        assert_eq!(c.plurality(), 1); // smallest index on ties
        assert_eq!(c.runner_up(), Some(2));
        let single = OpinionCounts::from_counts(vec![5]).unwrap();
        assert_eq!(single.runner_up(), None);
    }

    #[test]
    fn support_iteration() {
        let c = OpinionCounts::from_counts(vec![0, 4, 0, 6]).unwrap();
        assert_eq!(c.support_size(), 2);
        let s: Vec<usize> = c.support().collect();
        assert_eq!(s, vec![1, 3]);
    }

    #[test]
    fn transfer_caps_at_available() {
        let mut c = OpinionCounts::from_counts(vec![5, 5]).unwrap();
        assert_eq!(c.transfer(0, 1, 10), 5);
        assert_eq!(c.counts(), &[0, 10]);
        assert_eq!(c.n(), 10);
        assert_eq!(c.transfer(1, 1, 3), 3);
        assert_eq!(c.counts(), &[0, 10]);
    }

    #[test]
    fn from_counts_rejects_an_overflowing_population() {
        // Wrapping addition would turn these into u64::MAX - 1 and 0.
        for counts in [vec![u64::MAX, u64::MAX], vec![u64::MAX, 1]] {
            assert_eq!(
                OpinionCounts::from_counts(counts).unwrap_err(),
                ConfigError::PopulationOverflow
            );
        }
        let full = OpinionCounts::from_counts(vec![u64::MAX - 1, 1]).unwrap();
        assert_eq!(full.n(), u64::MAX);
    }

    #[test]
    fn from_weights_apportions() {
        let c = OpinionCounts::from_weights(100, &[1.0, 3.0]).unwrap();
        assert_eq!(c.counts(), &[25, 75]);
    }

    #[test]
    fn constructors_reject_invalid() {
        assert_eq!(
            OpinionCounts::from_counts(vec![]).unwrap_err(),
            ConfigError::NoOpinions
        );
        assert_eq!(
            OpinionCounts::from_counts(vec![0, 0]).unwrap_err(),
            ConfigError::ZeroPopulation
        );
        assert!(matches!(
            OpinionCounts::balanced(3, 5).unwrap_err(),
            ConfigError::MoreOpinionsThanVertices { .. }
        ));
        assert!(matches!(
            OpinionCounts::consensus(3, 2, 2).unwrap_err(),
            ConfigError::OpinionOutOfRange { .. }
        ));
    }

    #[test]
    fn max_fraction_of_a_tie() {
        let c = OpinionCounts::from_counts(vec![50, 50]).unwrap();
        assert!((c.max_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let c = OpinionCounts::balanced(10, 2).unwrap();
        let s = c.to_string();
        assert!(s.contains("n=10"));
        assert!(s.contains("k=2"));
    }
}
