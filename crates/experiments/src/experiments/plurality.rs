//! **E4 — Theorem 2.6**: plurality consensus. If opinion 1 leads every
//! other opinion by a margin of `ω(√n log n)` *vertices* (3-Majority,
//! i.e. a fraction margin `ω(√(log n/n))`) and `γ₀` is above its
//! threshold, the dynamics converge **on the plurality opinion** w.h.p.
//!
//! The experiment sweeps the margin in units of the theorem's threshold
//! and measures the plurality's winning probability: a sharp rise from
//! `≈ 1/k` (symmetry) to `≈ 1` should occur around margin ratio ~1.

use crate::report::{fmt_f, Table};
use crate::sweep::ExpConfig;
use od_analysis::{bounds, Dynamics};
use od_runtime::{run_job_simple, InitialSpec, JobSpec};

fn margin_sweep(protocol: &str, dynamics: Dynamics, cfg: &ExpConfig, seed_shift: u64) -> Table {
    let n: u64 = cfg.pick(1_000_000, 10_000);
    let k: usize = cfg.pick(50, 10);
    let trials: u64 = cfg.pick(60, 20);
    let max_rounds: u64 = cfg.pick(1_000_000, 100_000);
    let multipliers = [0.0f64, 0.25, 0.5, 1.0, 2.0, 4.0];

    // Margin unit: the theorem's fraction threshold times n, in vertices.
    let unit_fraction = bounds::plurality_margin(dynamics, n, 1.0 / k as f64);
    let unit_vertices = (unit_fraction * n as f64).ceil() as u64;

    let mut table = Table::new(
        format!("Theorem 2.6 ({dynamics}), n = {n}, k = {k}: plurality success vs initial margin"),
        &[
            "margin multiplier",
            "margin (vertices)",
            "Pr[plurality wins]",
            "mean rounds",
            "capped",
        ],
    );
    for (i, &m) in multipliers.iter().enumerate() {
        let margin = (m * unit_vertices as f64).round() as u64;
        let spec = JobSpec {
            max_rounds,
            // One trial per shard: full rayon parallelism across trials.
            shard_size: 1,
            ..JobSpec::new(
                &format!("plurality {protocol} n={n} k={k} margin={margin}"),
                protocol,
                InitialSpec::LeaderMargin { n, k, margin },
                trials,
                cfg.seed + seed_shift + i as u64,
            )
        };
        let summary = run_job_simple(&spec)
            .expect("plurality specs are valid by construction")
            .summary;
        let plurality_rate = summary.winners.count(0) as f64 / summary.trials as f64;
        table.push_row(vec![
            fmt_f(m),
            margin.to_string(),
            fmt_f(plurality_rate),
            fmt_f(summary.round_stats().mean()),
            summary.capped.to_string(),
        ]);
    }
    table.push_note(format!(
        "margin unit = {unit_vertices} vertices ({} as a fraction); \
         gamma0 = 1/k = {:.4}, theorem threshold = {:.4}",
        fmt_f(unit_fraction),
        1.0 / k as f64,
        bounds::gamma_threshold(dynamics, n),
    ));
    table.push_note(
        "expected: success ~= 1/k at multiplier 0, rising to ~1 by multiplier 2-4".to_string(),
    );
    table
}

/// Runs E4 for both dynamics.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    vec![
        margin_sweep("three-majority", Dynamics::ThreeMajority, cfg, 500),
        margin_sweep("two-choices", Dynamics::TwoChoices, cfg, 600),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_monotone_success() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            let rates: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
            let first = rates[0];
            let last = *rates.last().unwrap();
            // Zero margin: near-symmetric (rate well below 1); large
            // margin: the plurality should essentially always win.
            assert!(first < 0.8, "{}: zero-margin rate {first}", t.title);
            assert!(last > 0.8, "{}: large-margin rate {last}", t.title);
        }
    }
}
