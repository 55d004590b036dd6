//! Streaming, exactly-mergeable shard summaries.
//!
//! Each shard folds its trials into a [`ShardSummary`] as they complete;
//! summaries merge associatively (integer accumulators from
//! [`od_stats::exact`]), so the job-level summary is **byte-identical**
//! for any shard partition of the same trial set, and memory stays
//! `O(shards)` rather than `O(trials)`.

use crate::error::RuntimeError;
use crate::json::Json;
use od_core::{RunOutcome, StopReason};
use od_stats::{CountHistogram, ExactMoments, RunningStats};

/// The outcome of one trial, as the aggregation layer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialResult {
    /// The trial reached full consensus after `rounds` rounds. `winner`
    /// is `None` for compacted-mode runs, which record no winner.
    Consensus {
        /// Consensus round.
        rounds: u64,
        /// The winning opinion, when identity is tracked.
        winner: Option<u64>,
    },
    /// The trial's stop rule fired after `rounds` rounds (near-consensus,
    /// fraction/γ threshold, or a compacted-mode consensus round where
    /// the rule holds).
    Stopped {
        /// Stopping round.
        rounds: u64,
    },
    /// The round cap was hit without stopping.
    Capped,
}

impl TrialResult {
    /// Converts an engine [`RunOutcome`].
    #[must_use]
    pub fn from_outcome(outcome: &RunOutcome) -> Self {
        match outcome.reason {
            StopReason::Consensus => Self::Consensus {
                rounds: outcome.rounds,
                winner: outcome.winner.map(|w| w as u64),
            },
            StopReason::Predicate => Self::Stopped {
                rounds: outcome.rounds,
            },
            StopReason::RoundLimit => Self::Capped,
        }
    }
}

/// Mergeable aggregate of trial outcomes.
///
/// `rounds` aggregates the stopping round of every *completed* (consensus
/// or predicate-stopped) trial; capped trials are counted separately.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardSummary {
    /// Trials aggregated.
    pub trials: u64,
    /// Trials that reached full consensus.
    pub consensus: u64,
    /// Trials stopped by a predicate rule (near-consensus, thresholds).
    pub stopped: u64,
    /// Trials that hit the round cap.
    pub capped: u64,
    /// Exact moments of completed trials' stopping rounds.
    pub rounds: ExactMoments,
    /// Winner histogram (consensus trials only; key = opinion index).
    pub winners: CountHistogram,
    /// Histogram of completed trials' stopping rounds.
    pub round_histogram: CountHistogram,
}

impl ShardSummary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one trial outcome in.
    pub fn push(&mut self, result: TrialResult) {
        self.trials += 1;
        match result {
            TrialResult::Consensus { rounds, winner } => {
                self.consensus += 1;
                self.rounds.push(rounds);
                if let Some(winner) = winner {
                    self.winners.record(winner);
                }
                self.round_histogram.record(rounds);
            }
            TrialResult::Stopped { rounds } => {
                self.stopped += 1;
                self.rounds.push(rounds);
                self.round_histogram.record(rounds);
            }
            TrialResult::Capped => {
                self.capped += 1;
            }
        }
    }

    /// Builds a summary from engine outcomes (the equivalence bridge to a
    /// direct `Simulation` loop: identical outcomes ⇒ identical summary).
    #[must_use]
    pub fn from_outcomes<'a, I: IntoIterator<Item = &'a RunOutcome>>(outcomes: I) -> Self {
        let mut summary = Self::new();
        for outcome in outcomes {
            summary.push(TrialResult::from_outcome(outcome));
        }
        summary
    }

    /// Merges another summary in (exact, associative).
    pub fn merge(&mut self, other: &Self) {
        self.trials += other.trials;
        self.consensus += other.consensus;
        self.stopped += other.stopped;
        self.capped += other.capped;
        self.rounds.merge(&other.rounds);
        self.winners.merge(&other.winners);
        self.round_histogram.merge(&other.round_histogram);
    }

    /// Fraction of trials reaching full consensus.
    #[must_use]
    pub fn consensus_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.consensus as f64 / self.trials as f64
        }
    }

    /// Completed trials' round statistics as Welford-style stats.
    #[must_use]
    pub fn round_stats(&self) -> RunningStats {
        self.rounds.to_running_stats()
    }

    /// Serialises for checkpoints.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut rounds = Json::object();
        rounds.insert("count", Json::Int(self.rounds.count() as i64));
        // u128 power sums do not fit JSON numbers; decimal strings do.
        rounds.insert("sum", Json::Str(self.rounds.sum().to_string()));
        rounds.insert("sum_sq", Json::Str(self.rounds.sum_sq().to_string()));
        rounds.insert("min", Json::Str(self.rounds.min().to_string()));
        rounds.insert("max", Json::Str(self.rounds.max().to_string()));

        let histogram_json = |h: &CountHistogram| {
            Json::Arr(
                h.iter()
                    .map(|(k, c)| Json::Arr(vec![Json::Int(k as i64), Json::Int(c as i64)]))
                    .collect(),
            )
        };

        let mut obj = Json::object();
        obj.insert("trials", Json::Int(self.trials as i64));
        obj.insert("consensus", Json::Int(self.consensus as i64));
        obj.insert("stopped", Json::Int(self.stopped as i64));
        obj.insert("capped", Json::Int(self.capped as i64));
        obj.insert("rounds", rounds);
        obj.insert("winners", histogram_json(&self.winners));
        obj.insert("round_histogram", histogram_json(&self.round_histogram));
        obj
    }

    /// Deserialises from a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed summaries.
    pub fn from_json(value: &Json) -> Result<Self, RuntimeError> {
        let field = |key: &str| -> Result<u64, RuntimeError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| RuntimeError::Parse(format!("summary.{key} must be an integer")))
        };
        let rounds_obj = value
            .get("rounds")
            .ok_or_else(|| RuntimeError::Parse("summary.rounds missing".to_string()))?;
        let rounds_u64 = |key: &str| -> Result<u64, RuntimeError> {
            rounds_obj
                .get(key)
                .and_then(|v| match v {
                    Json::Str(s) => s.parse::<u64>().ok(),
                    other => other.as_u64(),
                })
                .ok_or_else(|| RuntimeError::Parse(format!("summary.rounds.{key} invalid")))
        };
        let rounds_u128 = |key: &str| -> Result<u128, RuntimeError> {
            rounds_obj
                .get(key)
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<u128>().ok())
                .ok_or_else(|| RuntimeError::Parse(format!("summary.rounds.{key} invalid")))
        };
        let count = rounds_obj
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| RuntimeError::Parse("summary.rounds.count invalid".to_string()))?;
        let rounds = ExactMoments::from_raw_parts(
            count,
            rounds_u128("sum")?,
            rounds_u128("sum_sq")?,
            rounds_u64("min")?,
            rounds_u64("max")?,
        );

        let histogram = |key: &str| -> Result<CountHistogram, RuntimeError> {
            let items = value
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| RuntimeError::Parse(format!("summary.{key} must be an array")))?;
            let mut h = CountHistogram::new();
            for item in items {
                let pair = item.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                    RuntimeError::Parse(format!("summary.{key} entries must be [key, count]"))
                })?;
                let (k, c) = (
                    pair[0]
                        .as_u64()
                        .ok_or_else(|| RuntimeError::Parse(format!("summary.{key} key invalid")))?,
                    pair[1].as_u64().ok_or_else(|| {
                        RuntimeError::Parse(format!("summary.{key} count invalid"))
                    })?,
                );
                h.record_n(k, c);
            }
            Ok(h)
        };

        Ok(Self {
            trials: field("trials")?,
            consensus: field("consensus")?,
            stopped: field("stopped")?,
            capped: field("capped")?,
            rounds,
            winners: histogram("winners")?,
            round_histogram: histogram("round_histogram")?,
        })
    }

    /// Renders a human-readable report block.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trials: {} (consensus {}, stopped {}, capped {})",
            self.trials, self.consensus, self.stopped, self.capped
        );
        let _ = writeln!(out, "consensus rate: {:.4}", self.consensus_rate());
        if self.rounds.count() > 0 {
            let _ = writeln!(
                out,
                "rounds: mean {:.2} ± {:.2} (sd {:.2}, range [{}, {}])",
                self.rounds.mean(),
                self.rounds.std_error(),
                self.rounds.std_dev(),
                self.rounds.min(),
                self.rounds.max()
            );
        }
        if !self.winners.is_empty() {
            let top: Vec<String> = self
                .winners
                .iter()
                .take(8)
                .map(|(k, c)| format!("{k}:{c}"))
                .collect();
            let _ = writeln!(
                out,
                "winners ({} distinct): {}{}",
                self.winners.distinct(),
                top.join(" "),
                if self.winners.distinct() > 8 {
                    " …"
                } else {
                    ""
                }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardSummary {
        let mut s = ShardSummary::new();
        s.push(TrialResult::Consensus {
            rounds: 10,
            winner: Some(2),
        });
        s.push(TrialResult::Consensus {
            rounds: 14,
            winner: Some(2),
        });
        s.push(TrialResult::Stopped { rounds: 3 });
        s.push(TrialResult::Capped);
        s
    }

    #[test]
    fn counters_and_stats() {
        let s = sample();
        assert_eq!(s.trials, 4);
        assert_eq!(s.consensus, 2);
        assert_eq!(s.stopped, 1);
        assert_eq!(s.capped, 1);
        assert_eq!(s.consensus_rate(), 0.5);
        assert_eq!(s.rounds.count(), 3);
        assert_eq!(s.rounds.mean(), 9.0);
        assert_eq!(s.winners.count(2), 2);
        assert_eq!(s.round_histogram.total(), 3);
    }

    #[test]
    fn merge_matches_sequential_fold() {
        let results = [
            TrialResult::Consensus {
                rounds: 5,
                winner: Some(0),
            },
            TrialResult::Capped,
            TrialResult::Consensus {
                rounds: 9,
                winner: Some(1),
            },
            TrialResult::Stopped { rounds: 2 },
            TrialResult::Consensus {
                rounds: 5,
                winner: None,
            },
        ];
        let mut whole = ShardSummary::new();
        results.iter().for_each(|&r| whole.push(r));
        for split in 1..results.len() {
            let (a, b) = results.split_at(split);
            let mut left = ShardSummary::new();
            a.iter().for_each(|&r| left.push(r));
            let mut right = ShardSummary::new();
            b.iter().for_each(|&r| right.push(r));
            left.merge(&right);
            assert_eq!(left, whole, "split at {split}");
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let s = sample();
        let back = ShardSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // And the canonical serialisation is byte-stable.
        assert_eq!(
            back.to_json().to_string_compact(),
            s.to_json().to_string_compact()
        );
    }

    #[test]
    fn render_mentions_key_figures() {
        let text = sample().render();
        assert!(text.contains("consensus rate: 0.5000"));
        assert!(text.contains("trials: 4"));
    }
}
