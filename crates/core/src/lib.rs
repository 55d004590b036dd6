//! Consensus dynamics with many opinions — the core library of the
//! `opinion-dynamics` workspace.
//!
//! This crate implements the processes analysed in *“3-Majority and
//! 2-Choices with Many Opinions”* (Shimizu & Shiraga, PODC 2025):
//! synchronous [`protocol::ThreeMajority`] and [`protocol::TwoChoices`] on
//! the complete graph with self-loops, together with every companion the
//! paper discusses — the [`protocol::Voter`] and [`protocol::MedianRule`]
//! baselines, the [`protocol::HMajority`] generalisation, the
//! [`protocol::UndecidedDynamics`] of the open questions, the
//! [`protocol::Noisy`] uniform-communication-noise channel, the
//! [`AsyncSimulation`] asynchronous scheduler of \[CMRSS25\], adversarial
//! corruption ([`adversary`]), and agent-level dynamics on arbitrary graphs
//! ([`GraphSimulation`]).
//!
//! Two engines realise each protocol. A protocol implements two methods:
//! the per-vertex rule [`protocol::SyncProtocol::update_one`] and, where a
//! closed form exists, the population round
//! [`protocol::SyncProtocol::step_population_into`].
//!
//! * the **population engine** ([`protocol::SyncProtocol::step_population_into`])
//!   samples one exact synchronous round directly on the counts vector
//!   (`O(k)` per round for the paper's dynamics, via eqs. (5)/(6)), making
//!   `n = 10^7` laptop-friendly; protocols without a closed form inherit
//!   the `O(n)` per-vertex round. [`protocol::SyncProtocol::step_population`]
//!   is a wrapper around it that allocates the result;
//! * the **agent engines** run the per-vertex rule of Definition 3.1
//!   (`O(n)` per round): [`protocol::SyncProtocol::step_agents`] on the
//!   complete graph, and [`GraphSimulation`] on any graph — static or
//!   temporal, weighted or not — through one batched three-pass round
//!   (draw every neighbor sample, gather, combine).
//!
//! The two are distributionally identical on the complete graph — a fact
//! cross-validated by the test suites.
//!
//! # Quick start
//!
//! ```
//! use od_core::{OpinionCounts, Simulation, protocol::ThreeMajority};
//!
//! // 10 000 vertices, 50 opinions, balanced start.
//! let start = OpinionCounts::balanced(10_000, 50).unwrap();
//! let sim = Simulation::new(ThreeMajority);
//! let mut rng = od_sampling::rng_for(2025, 0);
//! let outcome = sim.run(&start, &mut rng);
//! assert!(outcome.reached_consensus());
//! println!("consensus on {:?} after {} rounds", outcome.winner, outcome.rounds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod asynchronous;
mod config;
mod engine;
mod error;
mod graph_dynamics;
pub mod observer;
pub mod protocol;
pub mod registry;
pub mod stopping;

pub use asynchronous::{AsyncOutcome, AsyncSimulation, AsyncStopReason};
pub use config::OpinionCounts;
pub use engine::{RunOutcome, Simulation, StopReason};
pub use error::{ConfigError, Error};
pub use graph_dynamics::{
    BatchedGraph, GraphRunOutcome, GraphSchedule, GraphSimulation, RoundScratch, ScratchPool,
};
pub use observer::{BoundedGammaTrace, Observer};
pub use registry::{
    build_graph_protocol, build_protocol, required_opinion_slots, DynProtocol, GraphProtocolKind,
    ParamValue, ProtocolParams,
};
pub use stopping::{HittingTimes, StoppingConstants, StoppingTracker};
