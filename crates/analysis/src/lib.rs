//! The paper's analytical machinery, implemented as an executable library.
//!
//! The formulas of *"3-Majority and 2-Choices with Many Opinions"*
//! (Shimizu & Shiraga, PODC 2025) that the experiment harness and the test
//! suites compare simulated behaviour against, as code:
//!
//! * [`quantities`] — the exact conditional drifts, the exact one-round
//!   variances and the variance bounds of **Lemma 4.1**, and the
//!   non-weak-opinion inequalities of **Lemma 4.6**;
//! * [`bernstein`] — the `(D, s)`-Bernstein parameters of **Lemma 4.2**,
//!   plus an empirical moment-generating-function checker for
//!   **Definition 3.3**;
//! * [`constants`] — the universal constants of **Definition 4.4** and the
//!   derived constants `C_{4.5(1)}` and `C_{4.6}`;
//! * [`bounds`] — theorem-level predictions (**Theorems 1.1, 2.1, 2.2, 2.6,
//!   2.7**) and the prior-work bound curves of **Figure 1(a)**;
//! * [`freedman`] — the bounded decrease of `γ` (**Lemma 4.7**), an
//!   application of the additive drift lemma (**Lemma 3.5**);
//! * [`drift`] — Monte-Carlo one-step drift estimation used to regenerate
//!   **Table 1**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernstein;
pub mod bounds;
pub mod constants;
pub mod drift;
pub mod freedman;
pub mod quantities;

/// Which of the two dynamics a formula refers to (the paper proves each
/// statement with different parameters for the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dynamics {
    /// The 3-Majority dynamics.
    ThreeMajority,
    /// The 2-Choices dynamics.
    TwoChoices,
}

impl std::fmt::Display for Dynamics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ThreeMajority => write!(f, "3-Majority"),
            Self::TwoChoices => write!(f, "2-Choices"),
        }
    }
}

pub use bernstein::{BernsteinParams, MgfCheck};
pub use drift::{DriftComparison, DriftEstimator};
