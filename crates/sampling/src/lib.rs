//! Random-variate substrate for the `opinion-dynamics` workspace.
//!
//! The offline dependency set provides [`rand`] (uniform variates and RNG
//! plumbing) but no distribution crate, so everything non-uniform that the
//! consensus-dynamics engines need is implemented here from scratch:
//!
//! * [`binomial`] — exact binomial sampling (inversion + Hörmann's BTRD
//!   transformed rejection), the workhorse of the population-level engines;
//! * [`multinomial`] — multinomial via conditional binomials;
//! * [`alias`] — Walker alias tables for static categorical distributions;
//! * [`fenwick`] — Fenwick-tree dynamic categorical sampler used by the
//!   asynchronous scheduler;
//! * [`normal`] — standard normal variates for statistics;
//! * [`zipf`] — largest-remainder apportionment of `n` units to weights;
//! * [`math`] — `ln Γ`, `ln n!` and friends (Lanczos + Stirling);
//! * [`seeds`] — reproducible seed-stream derivation (SplitMix64);
//! * [`batched`] — bit-packed multi-sample bounded draws (three 21-bit
//!   Lemire samples per RNG word) for the batched graph rounds;
//! * [`weighted`] — integer weighted neighbor selection on top of the
//!   batched counter streams: an alias-style `O(1)` bucket index as the
//!   one production point resolution, with a binary-search prefix map
//!   (the test oracle and the bench gate's baseline) and a linear-scan
//!   scalar reference kept for differential tests — all three
//!   bit-identical on every point.
//!
//! # Examples
//!
//! ```
//! use od_sampling::{binomial::sample_binomial, seeds::rng_for};
//!
//! let mut rng = rng_for(42, 0);
//! let x = sample_binomial(&mut rng, 1000, 0.25);
//! assert!(x <= 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod batched;
pub mod binomial;
pub mod fenwick;
pub mod math;
pub mod multinomial;
pub mod normal;
pub mod seeds;
pub mod weighted;
pub mod zipf;

pub use alias::AliasTable;
pub use batched::{fill_indices_batched, BatchedCellRng, ThresholdMemo};
pub use binomial::sample_binomial;
pub use fenwick::FenwickSampler;
pub use multinomial::{sample_multinomial, sample_multinomial_into};
pub use normal::standard_normal;
pub use seeds::{rng_for, CellRng};
pub use weighted::{
    fill_weighted_alias, fill_weighted_batched, inclusive_prefix_sums, resolve_weight_point,
    resolve_weight_point_alias, sample_weighted_index, WeightAliasRow,
};
