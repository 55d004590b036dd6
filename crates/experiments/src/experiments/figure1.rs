//! **E1 — Figure 1 / Theorem 1.1**: consensus time as a function of the
//! number of opinions `k`, for both dynamics, from the balanced
//! configuration.
//!
//! The paper's claim: 3-Majority takes `Θ̃(min{k, √n})` rounds — the curve
//! grows linearly in `k` and then *saturates* at `k ≈ √n` — while
//! 2-Choices keeps growing as `Θ̃(k)` all the way to `k = n`. The measured
//! series is overlaid with the paper's bound shapes and the prior-work
//! bounds of Figure 1(a).

use crate::report::{fmt_f, Table};
use crate::sweep::ExpConfig;
use od_analysis::bounds;
use od_analysis::Dynamics;
use od_runtime::{run_job_simple, ExecutionMode, InitialSpec, JobSpec};
use od_stats::RunningStats;

/// Measured mean consensus time from the balanced configuration, per `k`,
/// submitted as compacted-mode jobs (no winners recorded) through the
/// `od-runtime` sharded executor. The per-trial RNG derivation (`rng_for(master ^ k·0x9E37,
/// trial)`) matches the historical hand-rolled sweep, so the measured
/// values are bit-identical to it.
pub(crate) fn consensus_vs_k(
    protocol: &str,
    n: u64,
    ks: &[usize],
    trials: u64,
    max_rounds: u64,
    master_seed: u64,
) -> Vec<(usize, RunningStats, u64)> {
    ks.iter()
        .map(|&k| {
            let spec = JobSpec {
                max_rounds,
                mode: ExecutionMode::Compacted,
                // One trial per shard: full rayon parallelism across trials.
                shard_size: 1,
                ..JobSpec::new(
                    &format!("figure1 {protocol} n={n} k={k}"),
                    protocol,
                    InitialSpec::Balanced { n, k },
                    trials,
                    master_seed ^ (k as u64).wrapping_mul(0x9E37),
                )
            };
            let report = run_job_simple(&spec).expect("figure1 specs are valid by construction");
            (k, report.summary.round_stats(), report.summary.capped)
        })
        .collect()
}

/// Powers of two from 2 up to (and including) `max`.
pub(crate) fn pow2_sweep(max: usize) -> Vec<usize> {
    let mut ks = Vec::new();
    let mut k = 2usize;
    while k <= max {
        ks.push(k);
        k *= 2;
    }
    ks
}

/// Runs E1 and renders one table per dynamics.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let n: u64 = cfg.pick(16_384, 1_024);
    let trials: u64 = cfg.pick(5, 2);
    let max_rounds: u64 = cfg.pick(5_000_000, 500_000);
    let ks = pow2_sweep(n as usize);

    let mut tables = Vec::new();
    for (dynamics, name) in [
        (Dynamics::ThreeMajority, "3-Majority"),
        (Dynamics::TwoChoices, "2-Choices"),
    ] {
        let data = match dynamics {
            Dynamics::ThreeMajority => {
                consensus_vs_k("three-majority", n, &ks, trials, max_rounds, cfg.seed)
            }
            Dynamics::TwoChoices => {
                consensus_vs_k("two-choices", n, &ks, trials, max_rounds, cfg.seed + 1)
            }
        };
        let mut table = Table::new(
            format!("Figure 1 ({name}), n = {n}: consensus time vs k"),
            &[
                "k",
                "mean rounds",
                "stderr",
                "bound (Thm 1.1)",
                "rounds/bound",
                "prior bound",
                "capped",
            ],
        );
        for (k, stats, capped) in &data {
            let bound = bounds::consensus_time_upper(dynamics, n, *k);
            let prior = bounds::consensus_time_upper_prior(dynamics, n, *k);
            table.push_row(vec![
                k.to_string(),
                fmt_f(stats.mean()),
                fmt_f(stats.std_error()),
                fmt_f(bound),
                fmt_f(stats.mean() / bound),
                fmt_f(prior),
                capped.to_string(),
            ]);
        }
        // Crossover diagnostic for 3-Majority: the round count should stop
        // growing once k passes √n.
        if dynamics == Dynamics::ThreeMajority {
            let sqrt_n = (n as f64).sqrt();
            let below: Vec<f64> = data
                .iter()
                .filter(|(k, s, _)| (*k as f64) < sqrt_n && s.count() > 0)
                .map(|(_, s, _)| s.mean())
                .collect();
            let above: Vec<f64> = data
                .iter()
                .filter(|(k, s, _)| (*k as f64) >= 4.0 * sqrt_n && s.count() > 0)
                .map(|(_, s, _)| s.mean())
                .collect();
            if let (Some(&last_below), Some(first_above), Some(last_above)) =
                (below.last(), above.first().copied(), above.last().copied())
            {
                table.push_note(format!(
                    "crossover check: t(k just below sqrt(n)) = {last_below:.0}; \
                     t at 4*sqrt(n) = {first_above:.0}; t at k = n → {last_above:.0} \
                     (saturation expected above sqrt(n) = {sqrt_n:.0})"
                ));
            }
        } else {
            table.push_note(
                "2-Choices keeps growing ~ linearly in k: no saturation expected".to_string(),
            );
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_sweep_covers_range() {
        assert_eq!(pow2_sweep(16), vec![2, 4, 8, 16]);
        assert_eq!(pow2_sweep(20), vec![2, 4, 8, 16]);
        assert_eq!(pow2_sweep(2), vec![2]);
    }

    #[test]
    fn quick_run_produces_two_tables() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert!(!t.rows.is_empty());
            assert_eq!(t.headers.len(), 7);
        }
    }

    #[test]
    fn three_majority_times_grow_then_saturate() {
        // At n = 4096 (√n = 64), the time at k = 4096 should be within a
        // small factor of the time at k = 256 — not 16× larger.
        let n = 4096u64;
        let ks = [16usize, 256, 4096];
        let data = consensus_vs_k("three-majority", n, &ks, 3, 1_000_000, 77);
        let t16 = data[0].1.mean();
        let t256 = data[1].1.mean();
        let t4096 = data[2].1.mean();
        assert!(t16 < t256, "growth below sqrt(n): {t16} vs {t256}");
        assert!(
            t4096 < 4.0 * t256,
            "saturation above sqrt(n) violated: t(256) = {t256}, t(4096) = {t4096}"
        );
    }

    #[test]
    fn two_choices_keeps_growing_linearly() {
        let n = 2048u64;
        let ks = [32usize, 128, 512];
        let data = consensus_vs_k("two-choices", n, &ks, 3, 1_000_000, 78);
        let t32 = data[0].1.mean();
        let t512 = data[2].1.mean();
        // 16× more opinions should take at least ~4× longer (generous).
        assert!(
            t512 > 4.0 * t32,
            "2-Choices should scale with k: t(32) = {t32}, t(512) = {t512}"
        );
    }
}
