//! Statistics substrate for the `opinion-dynamics` workspace.
//!
//! Pure numerical tooling used by the experiment harness and the test
//! suites:
//!
//! * [`summary`] — Welford running statistics with standard errors,
//!   quantiles;
//! * [`exact`] — exactly-mergeable integer accumulators
//!   ([`ExactMoments`], [`CountHistogram`]) whose merges are associative
//!   and partition-invariant (the substrate of `od-runtime` sharded
//!   aggregation);
//! * [`histogram`] — linear and logarithmic histograms;
//! * [`regression`] — least squares and log–log power-law fits (scaling
//!   exponent estimation, the key tool for checking `Θ̃(k)` vs `Θ̃(√n)`);
//! * [`concentration`] — numeric evaluators for the Chernoff, Bernstein and
//!   Freedman tail bounds and the Bernstein MGF bound of the paper;
//! * [`ks`] — two-sample Kolmogorov–Smirnov test (distributional
//!   engine-equivalence checks);
//! * [`chi_square`] — Pearson's χ² goodness-of-fit test (observed counts
//!   against an exact law, such as a protocol's one-round law);
//! * [`timeseries`] — pointwise means of trajectories across trials.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chi_square;
pub mod concentration;
pub mod exact;
pub mod histogram;
pub mod ks;
pub mod regression;
pub mod summary;
pub mod timeseries;

pub use chi_square::{chi_square_gof, chi_square_sf, ChiSquareTest};
pub use exact::{CountHistogram, ExactMoments};
pub use histogram::Histogram;
pub use ks::{ks_two_sample, KsTest};
pub use regression::{power_law_fit, LinearFit};
pub use summary::{quantile, RunningStats, Summary};
pub use timeseries::TrajectoryBundle;
