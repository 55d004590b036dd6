//! What a run accumulates: operation counts, metric values, notes.

use std::collections::BTreeMap;
use std::time::Instant;

/// The accumulating result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, requests, correctness checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// Metric values by name (units live in the catalogue).
    pub values: BTreeMap<String, f64>,
    /// Free-form lines printed with the result (sample counts, caveats).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check (attempted and failed).
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Median of `samples`; NaN when empty (a missing measurement must not
/// read as a fast one).
pub fn median(samples: &[f64]) -> f64 {
    crate::stats::median(samples).unwrap_or(f64::NAN)
}

/// Times `iters` calls of `f`, returning each call's seconds.
pub fn time_each(iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
