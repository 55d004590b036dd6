//! Support-compacted simulation runners.
//!
//! From symmetric (balanced) starts, opinion *identity* is irrelevant:
//! once an opinion vanishes it never returns, so the counts vector can be
//! periodically compacted to the surviving support, making the per-round
//! cost track the live support instead of the initial `k`. The
//! `od-runtime` job executor and the experiment harness's per-round
//! analyses share this one implementation (and therefore one RNG
//! consumption pattern — the results are bit-identical across both
//! callers for a fixed per-trial seed).

use crate::config::OpinionCounts;
use crate::protocol::{StepScratch, SyncProtocol};
use rand::RngCore;

/// Drops empty opinion slots from a configuration (opinion identity is
/// irrelevant once an opinion has vanished — it can never return).
#[must_use]
pub fn compact(counts: &OpinionCounts) -> OpinionCounts {
    let mut compacted = counts.clone();
    compact_in_place(&mut compacted);
    compacted
}

/// In-place [`compact`]: drops empty slots while keeping the existing
/// allocation, so the periodic compaction of the round loop is free of
/// reallocations.
pub fn compact_in_place(counts: &mut OpinionCounts) {
    counts.with_counts_mut(|v| v.retain(|&c| c > 0));
}

/// How often the compacted runners drop empty slots. Support only shrinks,
/// so the slot count lags the true support by at most this many rounds.
const COMPACT_EVERY: u64 = 32;

/// Runs `protocol` from `initial` until consensus or `max_rounds`,
/// periodically compacting vanished opinion slots so the per-round cost
/// tracks the surviving support instead of the initial `k`. Returns the
/// consensus round, or `None` if the cap was hit.
///
/// Only usable when opinion *identity* does not matter (e.g. consensus
/// times from symmetric starts).
pub fn run_to_consensus_compacted<P: SyncProtocol>(
    protocol: &P,
    initial: &OpinionCounts,
    rng: &mut dyn RngCore,
    max_rounds: u64,
) -> Option<u64> {
    run_compacted_until(protocol, initial, rng, max_rounds, |_| false).0
}

/// Like [`run_to_consensus_compacted`], but also stops (returning the
/// round and `true`) as soon as `stop(&counts)` holds.
pub fn run_compacted_until<P: SyncProtocol>(
    protocol: &P,
    initial: &OpinionCounts,
    rng: &mut dyn RngCore,
    max_rounds: u64,
    mut stop: impl FnMut(&OpinionCounts) -> bool,
) -> (Option<u64>, bool) {
    let mut counts = compact(initial);
    let mut next = counts.clone();
    let mut scratch = StepScratch::new();
    let mut round = 0u64;
    loop {
        if stop(&counts) {
            return (Some(round), true);
        }
        if counts.is_consensus() {
            return (Some(round), false);
        }
        if round >= max_rounds {
            return (None, false);
        }
        protocol.step_population_into(&counts, rng, &mut scratch, &mut next);
        std::mem::swap(&mut counts, &mut next);
        round += 1;
        if round.is_multiple_of(COMPACT_EVERY) {
            compact_in_place(&mut counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ThreeMajority;
    use od_sampling::rng_for;

    #[test]
    fn compact_drops_zero_slots() {
        let c = OpinionCounts::from_counts(vec![0, 5, 0, 3]).unwrap();
        let d = compact(&c);
        assert_eq!(d.counts(), &[5, 3]);
        assert_eq!(d.n(), 8);
    }

    #[test]
    fn compacted_run_reaches_consensus() {
        let start = OpinionCounts::balanced(2000, 200).unwrap();
        let mut rng = rng_for(99, 0);
        let rounds = run_to_consensus_compacted(&ThreeMajority, &start, &mut rng, 1_000_000)
            .expect("should reach consensus");
        assert!(rounds > 0);
    }

    #[test]
    fn compacted_run_honours_stop_predicate() {
        let start = OpinionCounts::balanced(2000, 200).unwrap();
        let mut rng = rng_for(100, 0);
        let (round, stopped) =
            run_compacted_until(&ThreeMajority, &start, &mut rng, 1_000_000, |c| {
                c.gamma() >= 0.5
            });
        assert!(stopped);
        assert!(round.is_some());
    }

    #[test]
    fn boxed_and_generic_runs_are_bit_identical() {
        // The registry's boxed protocols must consume randomness exactly
        // like the compile-time generic path.
        let start = OpinionCounts::balanced(2000, 50).unwrap();
        let boxed = crate::registry::build_protocol(
            "three-majority",
            &crate::registry::ProtocolParams::new(),
        )
        .unwrap();
        let mut rng_a = rng_for(55, 0);
        let mut rng_b = rng_for(55, 0);
        let a = run_to_consensus_compacted(&ThreeMajority, &start, &mut rng_a, 100_000);
        let b = run_to_consensus_compacted(&boxed, &start, &mut rng_b, 100_000);
        assert_eq!(a, b);
    }
}
