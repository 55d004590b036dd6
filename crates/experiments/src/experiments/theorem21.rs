//! **E2 — Theorem 2.1**: starting from a configuration with large
//! `γ₀ = ‖α₀‖₂²`, the consensus time is `O(log n / γ₀)`.
//!
//! We sweep the leader fraction `a` (so `γ₀ ≈ a²`) and check that the
//! measured consensus time divided by `log n / γ₀` stays roughly constant
//! across more than an order of magnitude of `γ₀`.

use crate::report::{fmt_f, Table};
use crate::sweep::ExpConfig;
use od_analysis::bounds;
use od_analysis::Dynamics;
use od_runtime::{run_job_simple, InitialSpec, JobSpec};

/// The one-strong start: opinion 0 holds `round(n·a)` vertices (at least
/// one) and the rest spread evenly over the other `k − 1` opinions, so
/// `γ₀ ≈ a²`. Requires `k ≥ 2`.
fn one_strong_counts(n: u64, k: usize, leader_fraction: f64) -> Vec<u64> {
    let lead = ((n as f64 * leader_fraction).round() as u64).clamp(1, n);
    let rest = n - lead;
    let others = k as u64 - 1;
    let mut counts = vec![lead];
    counts.extend((0..others).map(|i| rest * (i + 1) / others - rest * i / others));
    counts
}

fn sweep_dynamics(protocol: &str, dynamics: Dynamics, cfg: &ExpConfig, seed_shift: u64) -> Table {
    let n: u64 = cfg.pick(1_000_000, 10_000);
    let k: usize = cfg.pick(1_000, 100);
    let trials: u64 = cfg.pick(10, 3);
    let max_rounds: u64 = cfg.pick(2_000_000, 200_000);
    let leader_fractions = [0.05f64, 0.1, 0.2, 0.4];

    let mut table = Table::new(
        format!("Theorem 2.1 ({dynamics}), n = {n}, k = {k}: T vs log n / gamma0"),
        &[
            "leader a",
            "gamma0",
            "log n/gamma0",
            "mean rounds",
            "stderr",
            "T*gamma0/log n",
            "capped",
        ],
    );
    let mut ratios = Vec::new();
    for (i, &a) in leader_fractions.iter().enumerate() {
        let initial = InitialSpec::Counts(one_strong_counts(n, k, a));
        let gamma0 = initial.build().expect("valid one-strong start").gamma();
        let spec = JobSpec {
            max_rounds,
            // One trial per shard: full rayon parallelism across trials.
            shard_size: 1,
            ..JobSpec::new(
                &format!("theorem21 {protocol} n={n} k={k} a={a}"),
                protocol,
                initial,
                trials,
                cfg.seed + seed_shift + i as u64,
            )
        };
        let summary = run_job_simple(&spec)
            .expect("theorem21 specs are valid by construction")
            .summary;
        let stats = summary.round_stats();
        let predicted = bounds::consensus_time_from_gamma(n, gamma0);
        let ratio = stats.mean() / predicted;
        if stats.count() > 0 {
            ratios.push(ratio);
        }
        table.push_row(vec![
            fmt_f(a),
            fmt_f(gamma0),
            fmt_f(predicted),
            fmt_f(stats.mean()),
            fmt_f(stats.std_error()),
            fmt_f(ratio),
            summary.capped.to_string(),
        ]);
    }
    if ratios.len() >= 2 {
        let max = ratios.iter().copied().fold(f64::MIN, f64::max);
        let min = ratios.iter().copied().fold(f64::MAX, f64::min);
        table.push_note(format!(
            "all ratios <= {max:.3}: the O(log n/gamma0) upper bound holds uniformly \
             (spread max/min = {:.2}; the bound is loose when the leader is already large, \
             since amplification then finishes in O(log n))",
            max / min
        ));
        table.push_note(format!(
            "gamma0 threshold for this theorem: {:.4}",
            bounds::gamma_threshold(dynamics, n)
        ));
    }
    table
}

/// Runs E2 for both dynamics.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    vec![
        sweep_dynamics("three-majority", Dynamics::ThreeMajority, cfg, 100),
        sweep_dynamics("two-choices", Dynamics::TwoChoices, cfg, 200),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::OpinionCounts;

    #[test]
    fn one_strong_counts_give_the_leader_its_fraction() {
        let c = OpinionCounts::from_counts(one_strong_counts(1000, 10, 0.4)).unwrap();
        assert_eq!(c.count(0), 400);
        assert_eq!(c.n(), 1000);
        // Rest spread over 9 opinions.
        assert_eq!(c.support_size(), 10);
        // γ₀ = 0.4² + 9·(600/9/1000)² = 0.16 + 0.04 = 0.2.
        assert!((c.gamma() - 0.2).abs() < 0.01);
    }

    #[test]
    fn quick_run_produces_tables_with_bounded_ratio_spread() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows.len(), 4);
            // The T·γ₀/log n column should be O(1): generously, below 30
            // and above 0.01 whenever consensus was reached.
            for row in &t.rows {
                let ratio: f64 = row[5].parse().unwrap_or(f64::NAN);
                if row[6] == "0" && ratio.is_finite() {
                    assert!(
                        (0.01..30.0).contains(&ratio),
                        "{}: ratio {ratio} out of the O(1) band",
                        t.title
                    );
                }
            }
        }
    }
}
