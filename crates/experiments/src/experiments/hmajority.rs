//! **E11 — Section 2.5**: the `h`-Majority family.
//!
//! The paper suggests extending the analysis to `h`-Majority. We measure
//! the consensus time across `h ∈ {1, 3, 5, 7, 9}` from the balanced
//! configuration: `h = 1` is the driftless voter model (`Θ(n)` time);
//! `h ≥ 3` has plurality drift, and larger `h` amplifies it.

use crate::report::{fmt_f, Table};
use crate::sweep::ExpConfig;
use od_core::ProtocolParams;
use od_runtime::{run_job_simple, InitialSpec, JobSpec};

/// Runs E11. Each `h` is one job submitted through the `od-runtime`
/// sharded executor; trial `t` draws from `rng_for(master_seed, t)`, as
/// a direct `Simulation` loop would (the `runtime_equivalence` test pins
/// this), so the measured outcomes are those of the engine itself.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let n: u64 = cfg.pick(10_000, 2_000);
    let k: usize = cfg.pick(64, 16);
    let trials: u64 = cfg.pick(10, 3);
    let max_rounds: u64 = cfg.pick(500_000, 100_000);
    let hs = [1usize, 3, 5, 7, 9];

    let mut table = Table::new(
        format!("h-Majority, n = {n}, k = {k}: consensus time vs h"),
        &["h", "mean rounds", "stderr", "capped"],
    );
    for (i, &h) in hs.iter().enumerate() {
        // h = 1 is the voter model; its registry entry has the O(k)
        // population sampler.
        let (protocol, params) = if h == 1 {
            ("voter", ProtocolParams::new())
        } else {
            ("h-majority", ProtocolParams::new().with_int("h", h as u64))
        };
        let spec = JobSpec {
            params,
            max_rounds,
            // One trial per shard: full rayon parallelism across trials.
            shard_size: 1,
            ..JobSpec::new(
                &format!("hmajority h={h} n={n} k={k}"),
                protocol,
                InitialSpec::Balanced { n, k },
                trials,
                cfg.seed + 6000 + i as u64,
            )
        };
        let report = run_job_simple(&spec).expect("hmajority specs are valid by construction");
        let stats = report.summary.round_stats();
        table.push_row(vec![
            h.to_string(),
            fmt_f(stats.mean()),
            fmt_f(stats.std_error()),
            report.summary.capped.to_string(),
        ]);
    }
    table.push_note(
        "h = 1 (voter) is Theta(n) regardless of k; time should drop as h grows".to_string(),
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_h_is_faster() {
        let cfg = ExpConfig::quick_for_tests();
        let tables = run(&cfg);
        let rows = &tables[0].rows;
        let t1: f64 = rows[0][1].parse().unwrap();
        let t3: f64 = rows[1][1].parse().unwrap();
        let t9: f64 = rows[4][1].parse().unwrap();
        assert!(
            t1 > t3,
            "voter ({t1}) should be slower than 3-majority ({t3})"
        );
        assert!(
            t3 >= t9,
            "h = 9 ({t9}) should not be slower than h = 3 ({t3})"
        );
    }
}
