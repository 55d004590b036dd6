//! **E3 — Theorem 2.2**: from *any* configuration (we use the worst case,
//! `k = n`, every vertex its own opinion, `γ₀ = 1/n`), the norm `γ_t`
//! grows to the Theorem 2.1 threshold within `O(√n (log n)²)` rounds for
//! 3-Majority and `O(n (log n)³)` for 2-Choices.
//!
//! The experiment measures the hitting time `τ⁺_γ` of the threshold and
//! normalises it by the bound shape; it also exports the mean `γ_t`
//! trajectory (the "figure series") for the largest `n`.

use crate::report::{fmt_f, Table};
use crate::sweep::{par_trials, ExpConfig};
use od_analysis::{bounds, Dynamics};
use od_core::protocol::{SyncProtocol, ThreeMajority, TwoChoices};
use od_core::{OpinionCounts, Simulation, StopReason};
use od_sampling::rng_for;
use od_stats::{RunningStats, TrajectoryBundle};

fn hitting_times<P: SyncProtocol + Sync>(
    protocol: &P,
    n: u64,
    target: f64,
    trials: u64,
    max_rounds: u64,
    master_seed: u64,
) -> (RunningStats, u64) {
    let initial = OpinionCounts::balanced(n, n as usize).expect("k = n is feasible");
    let simulation = Simulation::new(protocol).with_max_rounds(max_rounds);
    let results = par_trials(trials, |trial| {
        let mut rng = rng_for(master_seed, trial);
        simulation.run_until(&initial, &mut rng, &mut |_, c| c.gamma() >= target)
    });
    let mut stats = RunningStats::new();
    let mut capped = 0;
    for outcome in results {
        // Consensus implies γ = 1 ≥ target, so it counts as a hit.
        match outcome.reason {
            StopReason::RoundLimit => capped += 1,
            _ => stats.push(outcome.rounds as f64),
        }
    }
    (stats, capped)
}

fn table_for<P: SyncProtocol + Sync>(
    protocol: &P,
    dynamics: Dynamics,
    ns: &[u64],
    cfg: &ExpConfig,
    seed_shift: u64,
) -> Table {
    let trials: u64 = cfg.pick(5, 2);
    let mut table = Table::new(
        format!(
            "Theorem 2.2 ({dynamics}): rounds until gamma reaches its threshold (start: k = n)"
        ),
        &[
            "n",
            "target gamma",
            "mean rounds",
            "stderr",
            "bound shape",
            "rounds/bound",
            "capped",
        ],
    );
    for (i, &n) in ns.iter().enumerate() {
        let target = bounds::gamma_threshold(dynamics, n);
        let bound = bounds::gamma_growth_time(dynamics, n);
        let max_rounds = (bound * 20.0) as u64 + 1000;
        let (stats, capped) = hitting_times(
            protocol,
            n,
            target,
            trials,
            max_rounds,
            cfg.seed + seed_shift + i as u64,
        );
        table.push_row(vec![
            n.to_string(),
            fmt_f(target),
            fmt_f(stats.mean()),
            fmt_f(stats.std_error()),
            fmt_f(bound),
            fmt_f(stats.mean() / bound),
            capped.to_string(),
        ]);
    }
    table.push_note(
        "rounds/bound should not grow with n (the bound shape is sqrt(n) log^2 n resp. n log^3 n)"
            .to_string(),
    );
    table
}

/// Mean `γ_t` trajectory from the `k = n` start (the figure-style series).
fn trajectory_table(cfg: &ExpConfig) -> Table {
    let n: u64 = cfg.pick(16_384, 1_024);
    let trials: u64 = cfg.pick(5, 2);
    let rounds: u64 = cfg.pick(2_000, 300);
    let stride: usize = cfg.pick(50, 10);

    let mut bundle = TrajectoryBundle::new();
    let trajectories = par_trials(trials, |trial| {
        let mut rng = rng_for(cfg.seed + 900, trial);
        let mut counts = OpinionCounts::balanced(n, n as usize).expect("k = n feasible");
        let mut traj = Vec::with_capacity(rounds as usize + 1);
        traj.push(counts.gamma());
        for _ in 0..rounds {
            if counts.is_consensus() {
                break;
            }
            counts = ThreeMajority.step_population(&counts, &mut rng);
            traj.push(counts.gamma());
        }
        traj
    });
    for t in &trajectories {
        bundle.add_trajectory(t);
    }

    let mut table = Table::new(
        format!("Theorem 2.2 trajectory (3-Majority), n = {n}: mean gamma_t"),
        &["round", "mean gamma", "trials"],
    );
    for (t, g) in bundle.downsampled_mean(stride) {
        table.push_row(vec![
            t.to_string(),
            fmt_f(g),
            bundle.count_at(t).to_string(),
        ]);
    }
    table.push_note(
        "gamma is a submartingale (Lemma 4.1(iii)): the series should be increasing".to_string(),
    );
    table
}

/// Runs E3.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let ns3: Vec<u64> = if cfg.quick {
        vec![1_024, 4_096]
    } else {
        vec![4_096, 16_384, 65_536, 262_144]
    };
    let ns2: Vec<u64> = if cfg.quick {
        vec![256, 1_024]
    } else {
        vec![1_024, 4_096, 16_384]
    };
    vec![
        table_for(&ThreeMajority, Dynamics::ThreeMajority, &ns3, cfg, 300),
        table_for(&TwoChoices, Dynamics::TwoChoices, &ns2, cfg, 400),
        trajectory_table(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_three_tables() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 3);
        // No capped runs expected at these generous caps.
        for t in &tables[..2] {
            for row in &t.rows {
                assert_eq!(row[6], "0", "{}: capped run in {row:?}", t.title);
            }
        }
    }

    #[test]
    fn gamma_trajectory_is_increasing_on_average() {
        let cfg = ExpConfig::quick_for_tests();
        let table = trajectory_table(&cfg);
        let gammas: Vec<f64> = table
            .rows
            .iter()
            .map(|r| r[1].parse::<f64>().unwrap())
            .collect();
        assert!(gammas.len() >= 3);
        // Submartingale: the mean trajectory should rise overall; allow
        // small local noise.
        assert!(
            gammas.last().unwrap() > gammas.first().unwrap(),
            "gamma did not grow: {gammas:?}"
        );
    }

    #[test]
    fn hitting_time_scales_with_sqrt_n_not_n() {
        // Doubling n four-fold should roughly double the 3-Majority hitting
        // time (√n scaling), certainly not quadruple-plus.
        let t_small = hitting_times(
            &ThreeMajority,
            1_024,
            bounds::gamma_threshold(Dynamics::ThreeMajority, 1_024),
            3,
            2_000_000,
            55,
        )
        .0
        .mean();
        let t_big = hitting_times(
            &ThreeMajority,
            4_096,
            bounds::gamma_threshold(Dynamics::ThreeMajority, 4_096),
            3,
            2_000_000,
            56,
        )
        .0
        .mean();
        let growth = t_big / t_small;
        assert!(
            growth < 4.0,
            "hitting time grew {growth}x for 4x n — faster than sqrt scaling allows"
        );
    }
}
