//! Head-to-head comparison of all implemented dynamics from the same
//! balanced start: the paper's two protocols, the voter and median
//! baselines, h-Majority, and the undecided-state dynamics.
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```

use opinion_dynamics::core::protocol::{expand, tally};
use opinion_dynamics::prelude::*;

fn time_to_consensus<P: SyncProtocol>(
    proto: &P,
    start: &OpinionCounts,
    trials: u64,
    cap: u64,
) -> (f64, u64) {
    let mut total = 0f64;
    let mut done = 0u64;
    for trial in 0..trials {
        let mut rng = rng_for(7, trial);
        let out = Simulation::new(proto)
            .with_max_rounds(cap)
            .run(start, &mut rng);
        if out.reached_consensus() {
            total += out.rounds as f64;
            done += 1;
        }
    }
    (
        if done > 0 {
            total / done as f64
        } else {
            f64::NAN
        },
        done,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 20_000u64;
    let k = 32usize;
    let trials = 10u64;
    let cap = 500_000u64;
    let start = OpinionCounts::balanced(n, k)?;
    println!("n = {n}, k = {k}, balanced start, {trials} trials\n");
    println!(
        "{:<22} {:>12} {:>10}",
        "protocol", "mean rounds", "finished"
    );

    let report = |name: &str, mean: f64, done: u64| {
        println!("{name:<22} {mean:>12.1} {done:>9}/{trials}");
    };

    let (m, d) = time_to_consensus(&ThreeMajority, &start, trials, cap);
    report("3-Majority", m, d);
    let (m, d) = time_to_consensus(&TwoChoices, &start, trials, cap);
    report("2-Choices", m, d);
    let (m, d) = time_to_consensus(&Voter, &start, trials, cap);
    report("Voter (1-choice)", m, d);
    let (m, d) = time_to_consensus(&MedianRule, &start, trials, cap);
    report("Median [DGMSS11]", m, d);
    for h in [5usize, 9] {
        let proto = HMajority::new(h).expect("h >= 1");
        let (m, d) = time_to_consensus(&proto, &start, trials, cap);
        report(&format!("{h}-Majority"), m, d);
    }
    let noisy = Noisy::new(ThreeMajority, 0.001, k).expect("valid noise rate");
    let (m, d) = time_to_consensus(&noisy, &start, trials, cap);
    report("3-Majority + 0.1% noise", m, d);
    // Undecided dynamics uses k + 1 states (last = blank).
    let undecided = UndecidedDynamics::new(k);
    let u_start = undecided.configuration(start.counts(), 0)?;
    let (m, d) = time_to_consensus(&undecided, &u_start, trials, cap);
    report("Undecided dynamics", m, d);

    // Also demonstrate the agent-level engine on one round.
    let mut opinions = expand(&start);
    let mut rng = rng_for(7, 999);
    ThreeMajority.step_agents(&mut opinions, &mut rng);
    let after = tally(&opinions, k);
    println!(
        "\nagent-level engine, one round: support {} -> {}, gamma {:.5} -> {:.5}",
        start.support_size(),
        after.support_size(),
        start.gamma(),
        after.gamma()
    );
    Ok(())
}
