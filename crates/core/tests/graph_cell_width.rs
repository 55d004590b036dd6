//! Cell-width boundaries of the batched graph engine: a run stores its
//! opinions as `u8`, `u16` or `u32`, picked from
//! `GraphProtocol::max_symbol` of the largest initial opinion. For every
//! registry protocol, initial opinions whose top symbol sits on either
//! side of the `u8` and `u16` limits must give the same runs —
//! `run_batched`, `run_batched_until` (including every opinion array its
//! predicate sees) and `run_batched_par` — as a round loop over `u32`
//! buffers through `step_seq_batched`. Undecided and noisy 3-Majority
//! also cross a limit through their extra symbols alone (the blank at
//! k = 256, a noise flip to 256 at k = 257).
//!
//! A property test pins the bound itself: over arbitrary gathered rows,
//! `combine_gathered` never returns more than `max_symbol` of its
//! inputs, and `max_symbol` is idempotent.

use od_core::protocol::GraphProtocol;
use od_core::registry::{build_graph_protocol, GraphProtocolKind, ProtocolParams};
use od_core::{GraphRunOutcome, GraphSimulation, RoundScratch, StopReason};
use od_graphs::{random_regular, CsrGraph, Graph};
use od_sampling::rng_for;
use proptest::prelude::*;

/// Round cap of every run: long enough for the blank and noise symbols
/// to appear, short enough that most runs end on the cap.
const MAX_ROUNDS: u64 = 24;

/// Runs `$body` with `$p` bound to the concrete protocol inside `$kind`.
macro_rules! with_protocol {
    ($kind:expr, $p:ident => $body:expr) => {
        match $kind {
            GraphProtocolKind::ThreeMajority($p) => $body,
            GraphProtocolKind::TwoChoices($p) => $body,
            GraphProtocolKind::Voter($p) => $body,
            GraphProtocolKind::Median($p) => $body,
            GraphProtocolKind::HMajority($p) => $body,
            GraphProtocolKind::Undecided($p) => $body,
            GraphProtocolKind::NoisyThreeMajority($p) => $body,
        }
    };
}

/// The registry protocol `name`; `k` sizes undecided and noisy, and
/// `epsilon` is the noise rate.
fn protocol(name: &str, k: u64, epsilon: f64) -> GraphProtocolKind {
    let params = match name {
        "h-majority" => ProtocolParams::new().with_int("h", 5),
        "undecided" => ProtocolParams::new().with_int("k", k),
        "noisy-three-majority" => ProtocolParams::new()
            .with_float("epsilon", epsilon)
            .with_int("k", k),
        _ => ProtocolParams::new(),
    };
    build_graph_protocol(name, &params).unwrap()
}

/// The reference run: `u32` buffers stepped by `step_seq_batched`, with
/// the engine's documented check order (consensus, predicate, cap).
fn reference_run<P: GraphProtocol>(
    sim: &GraphSimulation<&P, &CsrGraph>,
    initial: &[u32],
    trial_seed: u64,
    mut stop: impl FnMut(u64, &[u32]) -> bool,
) -> GraphRunOutcome {
    let mut src = initial.to_vec();
    let mut dst = vec![0u32; src.len()];
    let mut scratch = RoundScratch::new();
    let mut rounds = 0u64;
    let (winner, reason) = loop {
        if src.iter().all(|&o| o == src[0]) {
            break (Some(src[0] as usize), StopReason::Consensus);
        }
        if stop(rounds, &src) {
            break (None, StopReason::Predicate);
        }
        if rounds >= MAX_ROUNDS {
            break (None, StopReason::RoundLimit);
        }
        sim.step_seq_batched(trial_seed, rounds, &src, &mut dst, &mut scratch);
        std::mem::swap(&mut src, &mut dst);
        rounds += 1;
    };
    GraphRunOutcome {
        rounds,
        winner,
        reason,
        final_opinions: src,
    }
}

/// Checks all three run entry points of `protocol` against the `u32`
/// reference from `initial`.
fn check_entry_points<P: GraphProtocol + Sync>(
    protocol: &P,
    graph: &CsrGraph,
    initial: &[u32],
    trial_seed: u64,
) {
    let sim = GraphSimulation::new(protocol, graph).with_max_rounds(MAX_ROUNDS);
    let top = initial.iter().max().unwrap();
    let label = format!("top symbol {top}, seed {trial_seed}");

    let reference = reference_run(&sim, initial, trial_seed, |_, _| false);
    assert_eq!(
        sim.run_batched(initial, trial_seed),
        reference,
        "run_batched, {label}"
    );
    assert_eq!(
        sim.run_batched_par(initial, trial_seed),
        reference,
        "run_batched_par, {label}"
    );

    // The predicate stops on the first round that holds a symbol above
    // the initial top (the blank or a noise flip), or at round 12; every
    // array it is shown must be the reference's, widened exactly.
    let predicate = |round: u64, opinions: &[u32]| round >= 12 || opinions.iter().any(|o| o > top);
    let mut seen_reference = Vec::new();
    let reference = reference_run(&sim, initial, trial_seed, |round, opinions| {
        seen_reference.push((round, opinions.to_vec()));
        predicate(round, opinions)
    });
    let mut seen = Vec::new();
    let until = sim.run_batched_until(initial, trial_seed, |round, opinions| {
        seen.push((round, opinions.to_vec()));
        predicate(round, opinions)
    });
    assert_eq!(until, reference, "run_batched_until, {label}");
    assert!(
        seen == seen_reference,
        "run_batched_until showed its predicate other opinions, {label}"
    );
}

/// Initial opinions over a few sparse symbols up to `top`, striped.
fn striped(n: usize, top: u32) -> Vec<u32> {
    let symbols = [0, 1, top / 2, top - 1, top];
    (0..n).map(|v| symbols[v % symbols.len()]).collect()
}

#[test]
fn every_protocol_matches_the_u32_round_loop_across_width_limits() {
    let graph = random_regular(60, 6, &mut rng_for(2020, 0)).unwrap();
    let tops = [254u32, 255, 256, 65_534, 65_535, 65_536];
    for name in od_core::registry::registered_protocols() {
        for top in tops {
            // Undecided and noisy need k above every initial symbol; at
            // k = top + 1 their extra symbol sits one past the top.
            let kind = protocol(name, u64::from(top) + 1, 0.3);
            let initial = striped(graph.n(), top);
            for trial_seed in [3u64, 4] {
                with_protocol!(&kind, p => check_entry_points(p, &graph, &initial, trial_seed));
            }
        }
    }
}

#[test]
fn extra_symbols_alone_cross_the_u8_limit() {
    // Every initial symbol fits u8 here; only the blank (undecided,
    // k = 255 → blank 255 fits, k = 256 → blank 256 does not) or a noise
    // flip (k = 256 → at most 255, k = 257 → up to 256) can leave it.
    let graph = random_regular(60, 6, &mut rng_for(2021, 0)).unwrap();
    let initial = striped(graph.n(), 4);
    for (name, k) in [
        ("undecided", 255),
        ("undecided", 256),
        ("noisy-three-majority", 256),
        ("noisy-three-majority", 257),
    ] {
        let kind = protocol(name, k, 0.3);
        for trial_seed in [5u64, 6, 7] {
            with_protocol!(&kind, p => check_entry_points(p, &graph, &initial, trial_seed));
        }
    }
    // Undecided at k = 255 and 256 with the top real opinion present.
    for k in [255u32, 256] {
        let kind = protocol("undecided", u64::from(k), 0.3);
        let initial = striped(graph.n(), k - 1);
        with_protocol!(&kind, p => check_entry_points(p, &graph, &initial, 8));
    }
}

/// Asserts one `combine_gathered` call stays within `max_symbol` of its
/// inputs, and that the bound covers the inputs and is idempotent.
fn check_combine_bound<P: GraphProtocol>(
    protocol: &P,
    own: u32,
    row: &[u32],
    seed: u64,
) -> Result<(), TestCaseError> {
    let samples = protocol.samples_per_vertex();
    let mut gathered: Vec<u32> = row.iter().copied().cycle().take(samples).collect();
    let top = gathered.iter().copied().fold(own, u32::max);
    let bound = protocol.max_symbol(top);
    prop_assert!(
        bound >= top,
        "max_symbol({}) = {} is below its input",
        top,
        bound
    );
    prop_assert!(
        protocol.max_symbol(bound) == bound,
        "bound is not idempotent"
    );
    let next = protocol.combine_gathered(own, &mut gathered, &mut rng_for(seed, 0));
    prop_assert!(
        next <= bound,
        "combine returned {} above max_symbol({}) = {}",
        next,
        top,
        bound
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn combine_never_exceeds_max_symbol(
        name_index in 0usize..7,
        k in 1u64..600,
        top in 1u32..600,
        own in 0u32..600,
        row in proptest::collection::vec(0u32..600, 1..8),
        epsilon in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        // Inputs up to an independent `top`, so the blank (k) and noise
        // flips (below k) land above them about half the time.
        let name = od_core::registry::registered_protocols()[name_index];
        let kind = protocol(name, k, epsilon);
        let row: Vec<u32> = row.iter().map(|x| x % top).collect();
        with_protocol!(&kind, p => check_combine_bound(p, own % top, &row, seed))?;
    }
}
