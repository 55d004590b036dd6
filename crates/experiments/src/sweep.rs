//! The shared experiment configuration and the parallel trial map.
//!
//! All experiments derive per-trial RNGs from `(master seed, trial index)`
//! via [`od_sampling::seeds`], so results are bit-reproducible regardless
//! of the rayon thread schedule. Sweeps that need only trial outcomes
//! submit `od-runtime` jobs; [`par_trials`] serves the engines and
//! per-round observers a job cannot express.

use rayon::prelude::*;
use std::path::PathBuf;

/// Shared configuration for every experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpConfig {
    /// Reduced problem sizes / trial counts for smoke runs.
    pub quick: bool,
    /// Master seed; every trial derives from it deterministically.
    pub seed: u64,
    /// Directory for CSV exports.
    pub out_dir: PathBuf,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 20_250_304, // the paper's arXiv date
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExpConfig {
    /// A quick-mode configuration (used by tests).
    #[must_use]
    pub fn quick_for_tests() -> Self {
        Self {
            quick: true,
            out_dir: std::env::temp_dir().join("od_experiments_test"),
            ..Self::default()
        }
    }

    /// Picks `full` or `quick` depending on the mode.
    #[must_use]
    pub fn pick<T: Copy>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Parallel map over trial indices: calls `f(trial)` for each trial, in
/// trial order; the caller derives the trial's RNG from the index.
pub fn par_trials<T: Send, F: Fn(u64) -> T + Sync + Send>(trials: u64, f: F) -> Vec<T> {
    (0..trials).into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_pick_switches_on_quick() {
        let mut cfg = ExpConfig::default();
        assert_eq!(cfg.pick(10, 2), 10);
        cfg.quick = true;
        assert_eq!(cfg.pick(10, 2), 2);
    }
}
