//! The synchronous simulation engine.

use crate::adversary::Adversary;
use crate::config::OpinionCounts;
use crate::observer::Observer;
use crate::protocol::{StepScratch, SyncProtocol};
use rand::RngCore;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum StopReason {
    /// All vertices agree on one opinion (`τ_cons` reached).
    Consensus,
    /// The round cap was hit first.
    RoundLimit,
    /// A caller-supplied predicate requested the stop.
    Predicate,
}

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Number of rounds executed.
    pub rounds: u64,
    /// The consensus opinion, when consensus was reached.
    pub winner: Option<usize>,
    /// Why the run stopped.
    pub reason: StopReason,
    /// The final configuration.
    pub final_counts: OpinionCounts,
}

impl RunOutcome {
    /// True if the run ended in consensus.
    #[must_use]
    pub fn reached_consensus(&self) -> bool {
        self.reason == StopReason::Consensus
    }
}

/// A configured synchronous simulation of one protocol.
///
/// # Examples
///
/// ```
/// use od_core::{OpinionCounts, Simulation, protocol::ThreeMajority};
/// let sim = Simulation::new(ThreeMajority).with_max_rounds(10_000);
/// let start = OpinionCounts::balanced(1000, 4).unwrap();
/// let mut rng = od_sampling::rng_for(1, 0);
/// let outcome = sim.run(&start, &mut rng);
/// assert!(outcome.reached_consensus());
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<P> {
    protocol: P,
    max_rounds: u64,
}

/// Default round cap — generous enough for every regime the paper covers
/// (`Θ̃(n)` for 2-Choices at `k = n`), small enough to catch runaway loops.
const DEFAULT_MAX_ROUNDS: u64 = 100_000_000;

impl<P: SyncProtocol> Simulation<P> {
    /// Creates a simulation of `protocol` with the default round cap.
    #[must_use]
    pub fn new(protocol: P) -> Self {
        Self {
            protocol,
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }

    /// Sets the maximum number of rounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds == 0`.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        assert!(max_rounds > 0, "with_max_rounds: cap must be positive");
        self.max_rounds = max_rounds;
        self
    }

    /// The protocol under simulation.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Runs until consensus or the round cap.
    ///
    /// When the protocol's empty slots are inert
    /// ([`SyncProtocol::empty_slots_are_inert`]), the run drops empty
    /// slots every 32 rounds, so a round costs `O(live support)` instead
    /// of `O(k)`, with the same sample path. The outcome is always in the
    /// original opinion ids.
    pub fn run(&self, initial: &OpinionCounts, rng: &mut dyn RngCore) -> RunOutcome {
        self.run_until(initial, rng, &mut |_, _| false)
    }

    /// Runs until consensus or the round cap, reporting every round
    /// (including round 0) to `observer`. Never drops empty slots, so the
    /// observer reads every slot by its opinion id.
    pub fn run_observed(
        &self,
        initial: &OpinionCounts,
        rng: &mut dyn RngCore,
        observer: &mut dyn Observer,
    ) -> RunOutcome {
        self.run_internal(initial, rng, observer, &mut |_, _| false, None, false)
    }

    /// Runs until consensus, the round cap, or `stop(round, counts)`
    /// returning `true` (checked after each round, including round 0).
    ///
    /// Drops empty slots like [`Simulation::run`], so `stop` may see the
    /// configuration on its live support with its slots relabelled: it
    /// must not depend on opinion ids (γ, the maximum fraction and the
    /// support size do not). The outcome is always in the original
    /// opinion ids.
    pub fn run_until(
        &self,
        initial: &OpinionCounts,
        rng: &mut dyn RngCore,
        stop: &mut dyn FnMut(u64, &OpinionCounts) -> bool,
    ) -> RunOutcome {
        let observer = &mut crate::observer::NullObserver;
        self.run_internal(initial, rng, observer, stop, None, true)
    }

    /// Runs with an adversary corrupting the configuration after every
    /// protocol round (the model of \[GL18\], discussed in Section 2.5).
    ///
    /// Because the adversary re-corrupts `F` vertices every round, *strict*
    /// consensus is unreachable against most strategies; the run therefore
    /// also stops (with [`StopReason::Predicate`]) at **near-consensus**:
    /// when the plurality holds at least `n − 2F` vertices, the \[GL18\]
    /// success notion. Use [`Simulation::run_until`] composed manually for
    /// other criteria.
    ///
    /// # Panics
    ///
    /// Panics if `2 * F >= n`: the near-consensus threshold `n − 2F` would
    /// then saturate at (or below) a single vertex, a condition every
    /// non-empty configuration satisfies, so the run would stop at round 0
    /// and report vacuous success. The \[GL18\] model assumes `F = o(n)`;
    /// callers probing larger budgets must choose their own stopping rule
    /// via [`Simulation::run_until`].
    pub fn run_with_adversary(
        &self,
        initial: &OpinionCounts,
        rng: &mut dyn RngCore,
        adversary: &mut dyn Adversary,
    ) -> RunOutcome {
        let budget = adversary.budget();
        let doubled = budget.checked_mul(2).filter(|&d| d < initial.n());
        assert!(
            doubled.is_some(),
            "run_with_adversary: budget F = {budget} requires 2F < n = {} — \
             the near-consensus threshold n - 2F would be vacuous",
            initial.n()
        );
        let threshold = initial.n() - doubled.expect("asserted above");
        self.run_internal(
            initial,
            rng,
            &mut crate::observer::NullObserver,
            &mut |_, c| c.plurality_count() >= threshold,
            Some(adversary),
            false,
        )
    }

    /// The one population loop. With `live_support`, and when the
    /// protocol's empty slots are inert, it drops empty slots every
    /// [`COMPACT_EVERY`] rounds and keeps an id map back to the opinions.
    /// Observers and adversaries address slots by opinion id (and
    /// adversaries revive opinions), so their entry points pass `false`.
    fn run_internal(
        &self,
        initial: &OpinionCounts,
        rng: &mut dyn RngCore,
        observer: &mut dyn Observer,
        stop: &mut dyn FnMut(u64, &OpinionCounts) -> bool,
        mut adversary: Option<&mut dyn Adversary>,
        live_support: bool,
    ) -> RunOutcome {
        let compact = live_support
            && self.protocol.empty_slots_are_inert()
            && u32::try_from(initial.k()).is_ok();
        let mut counts = initial.clone();
        // Double-buffered configurations + shared scratch: steady-state
        // rounds of the closed-form protocols allocate nothing.
        let mut next = initial.clone();
        let mut scratch = StepScratch::new();
        // `ids[slot]` is the opinion id of a compacted slot; empty while
        // no slot has been dropped (the identity map).
        let mut ids: Vec<u32> = Vec::new();
        let mut round: u64 = 0;
        observer.observe(0, &counts);
        let reason = loop {
            if compact && round.is_multiple_of(COMPACT_EVERY) {
                drop_empty_slots(&mut counts, &mut ids);
            }
            if counts.is_consensus() {
                break StopReason::Consensus;
            }
            if stop(round, &counts) {
                break StopReason::Predicate;
            }
            if round >= self.max_rounds {
                break StopReason::RoundLimit;
            }
            self.protocol
                .step_population_into(&counts, rng, &mut scratch, &mut next);
            std::mem::swap(&mut counts, &mut next);
            if let Some(adv) = adversary.as_deref_mut() {
                adv.corrupt(round + 1, &mut counts, rng);
            }
            round += 1;
            observer.observe(round, &counts);
        };
        let final_counts = if ids.is_empty() {
            counts
        } else {
            // The spare buffer still has capacity `k`.
            restore_ids(&counts, &ids, initial.k(), next)
        };
        RunOutcome {
            rounds: round,
            // Consensus is checked first, so only a consensus stop ends
            // on one.
            winner: final_counts.consensus_opinion(),
            reason,
            final_counts,
        }
    }
}

/// How often a live-support run drops empty slots. Support only shrinks,
/// so the slot count lags the live support by at most this many rounds.
const COMPACT_EVERY: u64 = 32;

/// Drops the empty slots of `counts` in place, keeping `ids[slot]` the
/// opinion id of each remaining slot. `ids` becomes the identity map at
/// the first call that drops a slot.
fn drop_empty_slots(counts: &mut OpinionCounts, ids: &mut Vec<u32>) {
    if !counts.counts().contains(&0) {
        return;
    }
    if ids.is_empty() {
        ids.extend(0..counts.k() as u32);
    }
    let mut live = counts.counts().iter().map(|&c| c > 0);
    ids.retain(|_| live.next() == Some(true));
    counts.with_counts_mut(|slots| slots.retain(|&c| c > 0));
}

/// Writes the live-support configuration `live` back at its opinion ids
/// into `out`, as a configuration with `k` slots.
fn restore_ids(
    live: &OpinionCounts,
    ids: &[u32],
    k: usize,
    mut out: OpinionCounts,
) -> OpinionCounts {
    out.with_counts_mut(|slots| {
        slots.clear();
        slots.resize(k, 0);
        for (&c, &id) in live.counts().iter().zip(ids) {
            slots[id as usize] = c;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{GammaTrace, SupportTrace};
    use crate::protocol::{ThreeMajority, TwoChoices};
    use od_sampling::rng_for;

    #[test]
    fn consensus_from_biased_start() {
        let sim = Simulation::new(ThreeMajority);
        let start = OpinionCounts::from_counts(vec![800, 200]).unwrap();
        let mut rng = rng_for(150, 0);
        let out = sim.run(&start, &mut rng);
        assert!(out.reached_consensus());
        assert_eq!(out.winner, Some(0));
        assert_eq!(out.final_counts.consensus_opinion(), Some(0));
    }

    #[test]
    fn already_consensus_takes_zero_rounds() {
        let sim = Simulation::new(TwoChoices);
        let start = OpinionCounts::consensus(100, 3, 2).unwrap();
        let mut rng = rng_for(151, 0);
        let out = sim.run(&start, &mut rng);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.winner, Some(2));
    }

    #[test]
    fn round_limit_stops_the_run() {
        let sim = Simulation::new(ThreeMajority).with_max_rounds(3);
        let start = OpinionCounts::balanced(100_000, 1000).unwrap();
        let mut rng = rng_for(152, 0);
        let out = sim.run(&start, &mut rng);
        assert_eq!(out.reason, StopReason::RoundLimit);
        assert_eq!(out.rounds, 3);
        assert_eq!(out.winner, None);
    }

    #[test]
    fn predicate_stop_fires() {
        // Stop once the plurality holds 90% — this is always crossed before
        // consensus (the remaining 10% of vertices cannot all vanish in one
        // round at this scale).
        let sim = Simulation::new(ThreeMajority);
        let start = OpinionCounts::balanced(10_000, 10).unwrap();
        let mut rng = rng_for(153, 0);
        let out = sim.run_until(&start, &mut rng, &mut |_, c| c.max_fraction() >= 0.9);
        assert_eq!(out.reason, StopReason::Predicate);
        assert!(out.final_counts.max_fraction() >= 0.9);
        assert!(!out.final_counts.is_consensus());
    }

    #[test]
    fn observer_sees_every_round() {
        let sim = Simulation::new(ThreeMajority).with_max_rounds(10);
        let start = OpinionCounts::balanced(1000, 100).unwrap();
        let mut rng = rng_for(154, 0);
        let mut trace = GammaTrace::new();
        let out = sim.run_observed(&start, &mut rng, &mut trace);
        assert_eq!(trace.values().len() as u64, out.rounds + 1);
        // Round 0 is the initial configuration.
        assert!((trace.values()[0] - start.gamma()).abs() < 1e-12);
    }

    #[test]
    fn support_never_increases_for_three_majority() {
        // Validity: vanished opinions never return, so support is
        // non-increasing along any run.
        let sim = Simulation::new(ThreeMajority).with_max_rounds(2000);
        let start = OpinionCounts::balanced(2000, 50).unwrap();
        let mut rng = rng_for(155, 0);
        let mut trace = SupportTrace::new();
        let _ = sim.run_observed(&start, &mut rng, &mut trace);
        for pair in trace.values().windows(2) {
            assert!(pair[1] <= pair[0], "support increased: {pair:?}");
        }
    }

    #[test]
    fn adversary_run_stops_at_near_consensus() {
        use crate::adversary::BoostRunnerUp;
        let sim = Simulation::new(ThreeMajority).with_max_rounds(100_000);
        let start = OpinionCounts::from_counts(vec![700, 300]).unwrap();
        let mut rng = rng_for(157, 0);
        let mut adv = BoostRunnerUp::new(3);
        let out = sim.run_with_adversary(&start, &mut rng, &mut adv);
        // Strict consensus is impossible (the adversary resurrects the
        // runner-up every round), but near-consensus must be reached.
        assert_eq!(out.reason, StopReason::Predicate);
        assert!(out.final_counts.plurality_count() >= 1000 - 6);
    }

    #[test]
    #[should_panic(expected = "near-consensus threshold")]
    fn adversary_budget_half_of_n_is_rejected() {
        // With 2F >= n the threshold n - 2F saturates to 1, which any
        // non-empty configuration satisfies at round 0 — a vacuous "win"
        // that must be rejected instead of silently reported.
        use crate::adversary::BoostRunnerUp;
        let sim = Simulation::new(ThreeMajority);
        let start = OpinionCounts::from_counts(vec![50, 50]).unwrap();
        let mut rng = rng_for(158, 0);
        let mut adv = BoostRunnerUp::new(50);
        let _ = sim.run_with_adversary(&start, &mut rng, &mut adv);
    }

    #[test]
    fn winner_is_initially_supported() {
        // The validity condition of consensus dynamics.
        let sim = Simulation::new(TwoChoices).with_max_rounds(100_000);
        let start = OpinionCounts::from_counts(vec![0, 500, 0, 500, 0]).unwrap();
        let mut rng = rng_for(156, 0);
        let out = sim.run(&start, &mut rng);
        if let Some(w) = out.winner {
            assert!(w == 1 || w == 3, "winner {w} was not initially supported");
        }
    }
}
