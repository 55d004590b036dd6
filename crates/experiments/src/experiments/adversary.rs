//! **E10 — Section 2.5**: adversarial corruption.
//!
//! \[GL18\] showed 3-Majority still reaches consensus when an adversary
//! corrupts `F = O(√n/k^{1.5})` vertices per round. We sweep the budget
//! `F` in multiples of `√n/k^{1.5}` with the strongest simple strategy
//! (keep the top two tied) and watch the consensus time blow up past a
//! threshold.

use crate::report::{fmt_f, Table};
use crate::sweep::ExpConfig;
use od_runtime::{run_job_simple, AdversarySpec, InitialSpec, JobSpec};

/// Runs E10.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let n: u64 = cfg.pick(10_000, 2_000);
    let trials: u64 = cfg.pick(10, 4);
    let max_rounds: u64 = cfg.pick(30_000, 8_000);
    let ks = [4usize, 16];
    let multipliers = [0.0f64, 1.0, 4.0, 16.0, 64.0];

    let mut tables = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let f_ref = (n as f64).sqrt() / (k as f64).powf(1.5);
        let mut table = Table::new(
            format!(
                "Adversarial 3-Majority, n = {n}, k = {k} (F_ref = sqrt(n)/k^1.5 = {f_ref:.1})"
            ),
            &[
                "F multiplier",
                "F (vertices)",
                "mean rounds",
                "stderr",
                "stalled",
            ],
        );
        for (mi, &m) in multipliers.iter().enumerate() {
            let f = (m * f_ref).round() as u64;
            // Success = consensus, or [GL18] near-consensus (all but 2F
            // vertices agree), the adversary job's built-in stop.
            let spec = JobSpec {
                max_rounds,
                // One trial per shard: full rayon parallelism across trials.
                shard_size: 1,
                adversary: Some(AdversarySpec {
                    kind: "boost-runner-up".to_string(),
                    budget: f,
                }),
                ..JobSpec::new(
                    &format!("adversary n={n} k={k} F={f}"),
                    "three-majority",
                    InitialSpec::Balanced { n, k },
                    trials,
                    cfg.seed + 5000 + (ki * 100 + mi) as u64,
                )
            };
            let summary = run_job_simple(&spec)
                .expect("adversary specs are valid by construction")
                .summary;
            let stats = summary.round_stats();
            table.push_row(vec![
                fmt_f(m),
                f.to_string(),
                fmt_f(stats.mean()),
                fmt_f(stats.std_error()),
                summary.capped.to_string(),
            ]);
        }
        table.push_note(format!(
            "success = plurality holds >= n - 2F vertices ([GL18] near-consensus); \
             stalled = not achieved within {max_rounds} rounds"
        ));
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_budgets_do_not_stall_consensus() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        for t in &tables {
            // The F = 0 row must never stall.
            let zero_row = &t.rows[0];
            assert_eq!(zero_row[4], "0", "{}: F = 0 stalled", t.title);
        }
    }

    #[test]
    fn huge_budgets_stall_consensus() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        // At 64× the threshold with k = 4, the tie-keeping adversary should
        // stall at least one trial.
        let t = &tables[0];
        let last = t.rows.last().unwrap();
        let stalled: u64 = last[4].parse().unwrap();
        assert!(
            stalled > 0,
            "{}: no stall even at 64x the threshold: {last:?}",
            t.title
        );
    }
}
