//! **E9 — \[CMRSS25\] / Section 1.1**: asynchronous 3-Majority.
//!
//! One synchronous round ≈ `n` asynchronous ticks, and \[CMRSS25\] proves
//! the asynchronous consensus time is `Θ̃(min{kn, n^{3/2}})` ticks. We
//! measure (a) the ratio of asynchronous *parallel rounds* (ticks/n) to
//! synchronous rounds — it should be `Θ(1)` — and (b) the tick count
//! against the `min{kn, n^{3/2}}` shape.

use crate::report::{fmt_f, Table};
use crate::sweep::{par_trials, ExpConfig};
use od_analysis::bounds;
use od_core::protocol::ThreeMajority;
use od_core::{AsyncSimulation, OpinionCounts};
use od_runtime::{run_job_simple, InitialSpec, JobSpec};
use od_sampling::rng_for;
use od_stats::RunningStats;

/// Runs E9.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let n: u64 = cfg.pick(4_096, 512);
    let trials: u64 = cfg.pick(10, 3);
    let ks = [2usize, 16, 64];
    let max_sync_rounds: u64 = cfg.pick(1_000_000, 200_000);

    let mut table = Table::new(
        format!("Asynchronous 3-Majority ([CMRSS25]), n = {n}"),
        &[
            "k",
            "sync rounds",
            "async parallel rounds",
            "async/sync",
            "async ticks",
            "min(kn, n^1.5)",
            "ticks/shape",
        ],
    );
    for (i, &k) in ks.iter().enumerate() {
        let initial = OpinionCounts::balanced(n, k).expect("valid");

        let sync_spec = JobSpec {
            max_rounds: max_sync_rounds,
            // One trial per shard: full rayon parallelism across trials.
            shard_size: 1,
            ..JobSpec::new(
                &format!("asynchronous sync-baseline n={n} k={k}"),
                "three-majority",
                InitialSpec::Balanced { n, k },
                trials,
                cfg.seed + 4000 + i as u64,
            )
        };
        let sync_stats = run_job_simple(&sync_spec)
            .expect("asynchronous specs are valid by construction")
            .summary
            .round_stats();

        let async_results = par_trials(trials, |trial| {
            let mut rng = rng_for(cfg.seed + 4100 + i as u64, trial);
            let sim = AsyncSimulation::new(ThreeMajority).with_max_ticks(max_sync_rounds * n);
            sim.run(&initial, &mut rng)
        });
        let mut ticks = RunningStats::new();
        let mut parallel = RunningStats::new();
        for o in &async_results {
            if o.winner.is_some() {
                ticks.push(o.ticks as f64);
                parallel.push(o.parallel_rounds);
            }
        }
        let shape = bounds::async_three_majority_ticks(n, k);
        table.push_row(vec![
            k.to_string(),
            fmt_f(sync_stats.mean()),
            fmt_f(parallel.mean()),
            fmt_f(parallel.mean() / sync_stats.mean()),
            fmt_f(ticks.mean()),
            fmt_f(shape),
            fmt_f(ticks.mean() / shape),
        ]);
    }
    table
        .push_note("async/sync should be Theta(1); ticks/shape should not grow with k".to_string());
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_and_sync_agree_to_a_constant() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        for row in &tables[0].rows {
            let ratio: f64 = row[3].parse().unwrap();
            assert!(
                (0.1..10.0).contains(&ratio),
                "async/sync ratio {ratio} outside the constant band in {row:?}"
            );
        }
    }
}
