//! Shared helpers for the Criterion benchmark harness.
//!
//! Each bench target under `benches/` times the engine kernel behind one
//! paper artefact (the `od-experiments` module of the same name) at a
//! bench-friendly scale. The kernels call the engines directly, not
//! through the experiment harness or the job runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use od_core::protocol::SyncProtocol;
use od_core::{OpinionCounts, Simulation};
use rand::rngs::StdRng;

pub mod record;

pub use od_sampling::rng_for;

/// The bench-scale population size.
pub const BENCH_N: u64 = 4_096;

/// Runs a protocol to consensus from the balanced configuration and
/// returns the round count (the Figure 1 kernel).
pub fn consensus_rounds<P: SyncProtocol>(protocol: &P, n: u64, k: usize, rng: &mut StdRng) -> u64 {
    let start = OpinionCounts::balanced(n, k).expect("k <= n");
    Simulation::new(protocol)
        .with_max_rounds(50_000_000)
        .run(&start, rng)
        .rounds
}

/// Runs one synchronous population round (the drift/validation kernel).
pub fn one_round<P: SyncProtocol>(
    protocol: &P,
    counts: &OpinionCounts,
    rng: &mut StdRng,
) -> OpinionCounts {
    protocol.step_population(counts, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::protocol::ThreeMajority;

    #[test]
    fn consensus_rounds_terminates() {
        let mut rng = rng_for(1, 0);
        let rounds = consensus_rounds(&ThreeMajority, 512, 4, &mut rng);
        assert!(rounds > 0);
    }
}
