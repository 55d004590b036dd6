//! # opinion-dynamics
//!
//! A production-quality Rust reproduction of *“3-Majority and 2-Choices
//! with Many Opinions”* (Nobutaka Shimizu and Takeharu Shiraga, PODC 2025,
//! arXiv:2503.02426): exact simulators for the paper's consensus dynamics,
//! the proof machinery as an executable library, and a harness that
//! regenerates every figure and table.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`core`] (`od-core`) — the dynamics: [`core::protocol::ThreeMajority`],
//!   [`core::protocol::TwoChoices`], baselines, engines, stopping times;
//! * [`analysis`] (`od-analysis`) — Lemma 4.1 drifts, Bernstein conditions,
//!   theorem-level bound curves;
//! * [`experiments`] (`od-experiments`) — the figure/table regeneration
//!   harness;
//! * [`runtime`] (`od-runtime`) — the data-driven job runtime: sharded
//!   execution, streaming aggregation, checkpoint/resume, the `od-run`
//!   CLI;
//! * [`graphs`], [`stats`], [`sampling`] — the substrates.
//!
//! # Quick start
//!
//! ```
//! use opinion_dynamics::prelude::*;
//!
//! let start = OpinionCounts::balanced(10_000, 50)?;
//! let sim = Simulation::new(ThreeMajority);
//! let mut rng = rng_for(7, 0);
//! let outcome = sim.run(&start, &mut rng);
//! assert!(outcome.reached_consensus());
//! # Ok::<(), opinion_dynamics::core::ConfigError>(())
//! ```
//!
//! See `README.md` for the overview and `docs/ARCHITECTURE.md` for the
//! system design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use od_analysis as analysis;
pub use od_core as core;
pub use od_experiments as experiments;
pub use od_graphs as graphs;
pub use od_runtime as runtime;
pub use od_sampling as sampling;
pub use od_stats as stats;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use od_analysis::Dynamics;
    pub use od_core::protocol::{
        HMajority, MedianRule, Noisy, SyncProtocol, ThreeMajority, TwoChoices, UndecidedDynamics,
        Voter,
    };
    pub use od_core::{
        AsyncSimulation, GraphSimulation, Observer, OpinionCounts, RunOutcome, Simulation,
        StopReason, StoppingConstants, StoppingTracker,
    };
    pub use od_graphs::{CompleteWithSelfLoops, Graph};
    pub use od_sampling::rng_for;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_exposes_core_types() {
        use crate::prelude::*;
        let c = OpinionCounts::balanced(10, 2).unwrap();
        assert_eq!(c.n(), 10);
        let _ = ThreeMajority;
        let _ = TwoChoices;
    }
}
