//! Observers: per-round instrumentation hooks for the simulation engines.

use crate::config::OpinionCounts;

/// A hook invoked once per round with the current configuration
/// (round 0 is the initial configuration).
pub trait Observer {
    /// Called after the configuration for `round` is available.
    fn observe(&mut self, round: u64, counts: &OpinionCounts);
}

/// An observer that records nothing (zero overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn observe(&mut self, _round: u64, _counts: &OpinionCounts) {}
}

/// Records the trajectory of `γ_t = ‖α_t‖₂²` (the paper's central
/// potential function).
#[derive(Debug, Clone, Default)]
pub struct GammaTrace {
    values: Vec<f64>,
}

impl GammaTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded values, indexed by round.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Observer for GammaTrace {
    fn observe(&mut self, _round: u64, counts: &OpinionCounts) {
        self.values.push(counts.gamma());
    }
}

/// A [`GammaTrace`] with a hard point budget: records `γ_t` for the
/// first `cap` observed rounds, then only flips a `truncated` flag.
/// Memory stays bounded no matter how long the trial runs, which makes
/// it safe to attach to sampled trials inside long production jobs.
#[derive(Debug, Clone)]
pub struct BoundedGammaTrace {
    values: Vec<f64>,
    cap: usize,
    truncated: bool,
}

impl BoundedGammaTrace {
    /// Creates a trace that keeps at most `cap` points.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (a zero-point trace observes nothing and
    /// is always "truncated" — reject it loudly instead).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "BoundedGammaTrace: cap must be positive");
        Self {
            values: Vec::new(),
            cap,
            truncated: false,
        }
    }

    /// Records one `γ` value, or marks the trace truncated when the
    /// budget is spent.
    pub fn push(&mut self, gamma: f64) {
        if self.values.len() < self.cap {
            self.values.push(gamma);
        } else {
            self.truncated = true;
        }
    }

    /// The recorded values, indexed by observed round.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// True when at least one observation was dropped for the budget.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl Observer for BoundedGammaTrace {
    fn observe(&mut self, _round: u64, counts: &OpinionCounts) {
        self.push(counts.gamma());
    }
}

/// Records the number of surviving opinions per round.
#[derive(Debug, Clone, Default)]
pub struct SupportTrace {
    values: Vec<usize>,
}

impl SupportTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded support sizes, indexed by round.
    #[must_use]
    pub fn values(&self) -> &[usize] {
        &self.values
    }
}

impl Observer for SupportTrace {
    fn observe(&mut self, _round: u64, counts: &OpinionCounts) {
        self.values.push(counts.support_size());
    }
}

/// Fans one observation stream out to several boxed observers.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<Box<dyn Observer>>,
}

impl std::fmt::Debug for MultiObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiObserver")
            .field("len", &self.observers.len())
            .finish()
    }
}

impl MultiObserver {
    /// Creates an empty fan-out.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observer, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, observer: Box<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }
}

impl Observer for MultiObserver {
    fn observe(&mut self, round: u64, counts: &OpinionCounts) {
        for o in &mut self.observers {
            o.observe(round, counts);
        }
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn observe(&mut self, round: u64, counts: &OpinionCounts) {
        (**self).observe(round, counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(counts: Vec<u64>) -> OpinionCounts {
        OpinionCounts::from_counts(counts).unwrap()
    }

    #[test]
    fn gamma_trace_records_each_round() {
        let mut t = GammaTrace::new();
        t.observe(0, &cfg(vec![5, 5]));
        t.observe(1, &cfg(vec![10, 0]));
        assert_eq!(t.values().len(), 2);
        assert!((t.values()[0] - 0.5).abs() < 1e-12);
        assert!((t.values()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_gamma_trace_caps_and_flags() {
        let mut t = BoundedGammaTrace::with_capacity(2);
        t.observe(0, &cfg(vec![5, 5]));
        t.observe(1, &cfg(vec![10, 0]));
        assert!(!t.truncated());
        t.observe(2, &cfg(vec![10, 0]));
        assert_eq!(t.values().len(), 2);
        assert!(t.truncated());
    }

    #[test]
    fn support_trace_counts_survivors() {
        let mut t = SupportTrace::new();
        t.observe(0, &cfg(vec![3, 3, 4]));
        t.observe(1, &cfg(vec![0, 5, 5]));
        assert_eq!(t.values(), &[3, 2]);
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut m = MultiObserver::new()
            .with(Box::new(GammaTrace::new()))
            .with(Box::new(SupportTrace::new()));
        m.observe(0, &cfg(vec![1, 1]));
        // Indirect check through Debug (observers are boxed).
        assert!(format!("{m:?}").contains("len: 2"));
    }
}
