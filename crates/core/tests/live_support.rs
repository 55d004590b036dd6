//! Live-support compaction is invisible in a run's outcome.
//!
//! `Simulation::run` and `run_until` drop empty opinion slots every 32
//! rounds when the protocol reports `empty_slots_are_inert`. Each case
//! runs the protocol as is and again behind [`AllSlots`], a wrapper that
//! reports the property as `false` (so the loop steps every slot), and
//! requires equal `RunOutcome`s: rounds, winner, reason and
//! `final_counts` at the original `k`. The starts drop slots: a balanced
//! start with `k = 200`, and 40 slots with every third one empty.

use od_core::protocol::{
    OpinionSource, StepScratch, SyncProtocol, ThreeMajority, TwoChoices, Voter,
};
use od_core::registry::{build_graph_protocol, registered_protocols, GraphProtocolKind};
use od_core::{OpinionCounts, ProtocolParams, Simulation};
use od_sampling::rng_for;
use rand::RngCore;
use std::cell::Cell;

/// Forwards a protocol but keeps the default `empty_slots_are_inert`
/// (`false`), so the run loop never drops a slot.
struct AllSlots<P>(P);

impl<P: SyncProtocol> SyncProtocol for AllSlots<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        self.0.update_one(own, source, rng)
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        self.0.step_population_into(counts, rng, scratch, out);
    }
}

/// Forwards a protocol, property included, and records the fewest slots
/// a round was stepped on — proof that the run did compact.
struct FewestSlots<P> {
    inner: P,
    fewest: Cell<usize>,
}

impl<P: SyncProtocol> SyncProtocol for FewestSlots<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        self.inner.update_one(own, source, rng)
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        self.fewest.set(self.fewest.get().min(counts.k()));
        self.inner.step_population_into(counts, rng, scratch, out);
    }

    fn empty_slots_are_inert(&self) -> bool {
        self.inner.empty_slots_are_inert()
    }
}

const SEEDS: u64 = 20;

fn starts() -> Vec<(&'static str, OpinionCounts)> {
    let sparse = (0..40).map(|i| if i % 3 == 2 { 0 } else { 50 }).collect();
    vec![
        (
            "balanced n=2000 k=200",
            OpinionCounts::balanced(2000, 200).unwrap(),
        ),
        (
            "40 slots, every third empty",
            OpinionCounts::from_counts(sparse).unwrap(),
        ),
    ]
}

/// Runs `protocol` compacted and uncompacted on every start and seed,
/// under a consensus run, a round cap that leaves several opinions alive,
/// and a γ stop rule, and requires equal outcomes.
fn compaction_keeps_the_outcome<P: SyncProtocol + Copy>(protocol: P, stream: u64) {
    let probe = FewestSlots {
        inner: protocol,
        fewest: Cell::new(usize::MAX),
    };
    for (label, start) in starts() {
        for seed in 0..SEEDS {
            let pair = |max_rounds: u64, gamma_stop: Option<f64>| {
                let run = |p: &dyn SyncProtocol| {
                    let mut rng = rng_for(seed, stream);
                    let sim = Simulation::new(p).with_max_rounds(max_rounds);
                    match gamma_stop {
                        Some(g) => sim.run_until(&start, &mut rng, &mut |_, c| c.gamma() >= g),
                        None => sim.run(&start, &mut rng),
                    }
                };
                (run(&probe), run(&AllSlots(protocol)))
            };
            for (case, max_rounds, gamma_stop) in [
                ("consensus", 1_000_000, None),
                ("capped", 100, None),
                ("gamma", 1_000_000, Some(0.5)),
            ] {
                let (compacted, full) = pair(max_rounds, gamma_stop);
                assert_eq!(
                    compacted,
                    full,
                    "{} from {label}, seed {seed}, {case}",
                    protocol.name()
                );
                assert_eq!(compacted.final_counts.k(), start.k());
            }
        }
    }
    assert!(
        probe.fewest.get() < 40,
        "{}: no run dropped a slot",
        protocol.name()
    );
}

#[test]
fn three_majority_outcome_is_unchanged_by_compaction() {
    compaction_keeps_the_outcome(ThreeMajority, 1);
}

#[test]
fn two_choices_outcome_is_unchanged_by_compaction() {
    compaction_keeps_the_outcome(TwoChoices, 2);
}

#[test]
fn voter_outcome_is_unchanged_by_compaction() {
    compaction_keeps_the_outcome(Voter, 3);
}

/// The property as a generic caller sees it, through the `&P` and
/// `Box<P>` forwarders.
fn property<P: SyncProtocol>(protocol: P) -> bool {
    protocol.empty_slots_are_inert()
}

/// Every registry-built (boxed) protocol reports the property of its
/// concrete type, and exactly 3-Majority, 2-Choices and voter report it.
#[test]
fn registry_protocols_report_their_concrete_property() {
    for name in registered_protocols() {
        let params = match name {
            "h-majority" => ProtocolParams::new().with_int("h", 5),
            "undecided" => ProtocolParams::new().with_int("k", 3),
            "noisy-three-majority" => ProtocolParams::new()
                .with_float("epsilon", 0.05)
                .with_int("k", 4),
            _ => ProtocolParams::new(),
        };
        let kind = build_graph_protocol(name, &params).unwrap();
        let concrete = match &kind {
            GraphProtocolKind::ThreeMajority(p) => p.empty_slots_are_inert(),
            GraphProtocolKind::TwoChoices(p) => p.empty_slots_are_inert(),
            GraphProtocolKind::Voter(p) => p.empty_slots_are_inert(),
            GraphProtocolKind::Median(p) => p.empty_slots_are_inert(),
            GraphProtocolKind::HMajority(p) => p.empty_slots_are_inert(),
            GraphProtocolKind::Undecided(p) => p.empty_slots_are_inert(),
            GraphProtocolKind::NoisyThreeMajority(p) => p.empty_slots_are_inert(),
        };
        let boxed = kind.into_dyn();
        assert_eq!(property(&boxed), concrete, "{name} by reference");
        assert_eq!(property(boxed), concrete, "{name} boxed");
        assert_eq!(
            concrete,
            matches!(name, "three-majority" | "two-choices" | "voter"),
            "{name}"
        );
    }
}
