//! Temporal (dynamic) graphs: round-indexed edge schedules.
//!
//! A schedule maps every round `r` to a graph: rounds group into
//! **epochs** of `period` rounds (`epoch = r / period`), and each epoch
//! resolves one snapshot:
//!
//! * **Periodic** — a prebuilt snapshot list, cycled
//!   (`snapshots[epoch % len]`). Switching costs nothing: the borrowed
//!   snapshot is returned directly.
//! * **Rewiring** — a generator closure invoked per epoch
//!   (`generator(epoch)`), for seeded per-round (or per-`period`-rounds)
//!   edge rewiring. The generated snapshot is cached for the duration of
//!   its epoch by the view stepping through it.
//!
//! The machinery is generic over the snapshot type
//! ([`TemporalGraphOf`]): [`TemporalGraph`] schedules plain
//! [`CsrGraph`] snapshots, [`WeightedTemporalGraph`] schedules
//! [`WeightedCsrGraph`] snapshots — each entry carrying its own edge
//! set *and* its own weight rows, which is what the combined
//! weighted × temporal scenario runs on.
//!
//! The schedule is a **pure function of the round** (the generator must
//! be deterministic in its epoch argument), so any partition of a round
//! across threads or shards sees the same graph, and the simulation
//! engines' bit-identity guarantees carry over unchanged. Each trial
//! steps its own view, so concurrent trials at different rounds never
//! contend.

use crate::csr::CsrGraph;
use crate::weighted::WeightedCsrGraph;
use crate::Graph;
use std::fmt;

/// Error constructing a temporal schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemporalBuildError {
    /// The snapshot list is empty — the schedule has no graph to serve.
    EmptySchedule,
    /// `period` must be at least 1 round.
    ZeroPeriod,
    /// Snapshots disagree on the vertex count.
    VertexCountMismatch {
        /// Vertex count of snapshot 0.
        expected: usize,
        /// The disagreeing snapshot's index.
        snapshot: usize,
        /// Its vertex count.
        found: usize,
    },
}

impl fmt::Display for TemporalBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySchedule => write!(f, "temporal schedule has no snapshots"),
            Self::ZeroPeriod => write!(f, "temporal period must be at least 1 round"),
            Self::VertexCountMismatch {
                expected,
                snapshot,
                found,
            } => write!(
                f,
                "temporal snapshot {snapshot} has {found} vertices, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for TemporalBuildError {}

/// The epoch → snapshot resolution strategy.
enum Schedule<G> {
    /// Prebuilt snapshots, cycled by epoch.
    Periodic(Vec<G>),
    /// A deterministic per-epoch generator (seeded rewiring).
    Rewiring(Box<dyn Fn(u64) -> G + Send + Sync>),
}

impl<G> fmt::Debug for Schedule<G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Periodic(snaps) => f
                .debug_tuple("Periodic")
                .field(&format!("{} snapshots", snaps.len()))
                .finish(),
            Self::Rewiring(_) => f.debug_tuple("Rewiring").field(&"<generator>").finish(),
        }
    }
}

/// A round-indexed edge schedule over a fixed vertex set, generic over
/// the snapshot type (see the module docs; use the [`TemporalGraph`] /
/// [`WeightedTemporalGraph`] aliases).
///
/// # Examples
///
/// ```
/// use od_graphs::{cycle, star, Graph, TemporalGraph};
/// let t = TemporalGraph::periodic(vec![cycle(6), star(6)], 2).unwrap();
/// assert_eq!(t.n(), 6);
/// let mut view = t.view();
/// assert_eq!(view.at_round(0).degree(0), 2); // cycle epochs: rounds 0–1
/// assert_eq!(view.at_round(2).degree(0), 5); // star epochs: rounds 2–3
/// assert_eq!(view.at_round(4).degree(0), 2); // wrapped around
/// ```
#[derive(Debug)]
pub struct TemporalGraphOf<G> {
    schedule: Schedule<G>,
    period: u64,
    n: usize,
}

/// A round-indexed schedule of plain [`CsrGraph`] snapshots.
pub type TemporalGraph = TemporalGraphOf<CsrGraph>;

/// A round-indexed schedule of [`WeightedCsrGraph`] snapshots: each
/// entry carries its own edge set and weight rows, so the weighted
/// engine's point draws and resolutions follow the snapshot in force.
pub type WeightedTemporalGraph = TemporalGraphOf<WeightedCsrGraph>;

impl<G: Graph> TemporalGraphOf<G> {
    /// A periodic schedule cycling through prebuilt `snapshots`, one
    /// every `period` rounds.
    ///
    /// # Errors
    ///
    /// Rejects empty snapshot lists, `period == 0`, and snapshots with
    /// differing vertex counts.
    pub fn periodic(snapshots: Vec<G>, period: u64) -> Result<Self, TemporalBuildError> {
        if period == 0 {
            return Err(TemporalBuildError::ZeroPeriod);
        }
        let n = snapshots
            .first()
            .ok_or(TemporalBuildError::EmptySchedule)?
            .n();
        for (i, snap) in snapshots.iter().enumerate() {
            if snap.n() != n {
                return Err(TemporalBuildError::VertexCountMismatch {
                    expected: n,
                    snapshot: i,
                    found: snap.n(),
                });
            }
        }
        Ok(Self {
            schedule: Schedule::Periodic(snapshots),
            period,
            n,
        })
    }

    /// A rewiring schedule: epoch `e` (rounds `e·period ..
    /// (e+1)·period`) uses `generator(e)`. The generator **must** be a
    /// deterministic function of its epoch (derive any randomness from a
    /// seed mixed with the epoch) and must always return a graph on `n`
    /// vertices; [`TemporalViewOf::at_round`] asserts the vertex count.
    ///
    /// # Errors
    ///
    /// Rejects `period == 0` and `n == 0`.
    pub fn rewiring<F>(n: usize, generator: F, period: u64) -> Result<Self, TemporalBuildError>
    where
        F: Fn(u64) -> G + Send + Sync + 'static,
    {
        if period == 0 {
            return Err(TemporalBuildError::ZeroPeriod);
        }
        if n == 0 {
            return Err(TemporalBuildError::EmptySchedule);
        }
        Ok(Self {
            schedule: Schedule::Rewiring(Box::new(generator)),
            period,
            n,
        })
    }

    /// The (fixed) vertex count every snapshot serves.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds per epoch.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The epoch of round `round`.
    #[must_use]
    pub fn epoch_of(&self, round: u64) -> u64 {
        round / self.period
    }

    /// A fresh stepping view (epoch-cached snapshot resolution). Each
    /// concurrent trial should hold its own.
    #[must_use]
    pub fn view(&self) -> TemporalViewOf<'_, G> {
        TemporalViewOf {
            owner: self,
            epoch: None,
            generated: None,
        }
    }
}

/// A cursor over a temporal schedule that caches the current epoch's
/// snapshot (generation for rewiring schedules happens once per epoch,
/// not once per round).
#[derive(Debug)]
pub struct TemporalViewOf<'a, G> {
    owner: &'a TemporalGraphOf<G>,
    /// The epoch `generated` (or the borrowed snapshot) belongs to.
    epoch: Option<u64>,
    /// The cached epoch graph of a rewiring schedule.
    generated: Option<G>,
}

/// A stepping view over a [`TemporalGraph`].
pub type TemporalView<'a> = TemporalViewOf<'a, CsrGraph>;

/// A stepping view over a [`WeightedTemporalGraph`].
pub type WeightedTemporalView<'a> = TemporalViewOf<'a, WeightedCsrGraph>;

impl<G: Graph> TemporalViewOf<'_, G> {
    /// The graph in force at `round`.
    ///
    /// # Panics
    ///
    /// Panics if a rewiring generator returns a graph whose vertex count
    /// differs from the schedule's declared `n`.
    pub fn at_round(&mut self, round: u64) -> &G {
        let epoch = self.owner.epoch_of(round);
        match &self.owner.schedule {
            Schedule::Periodic(snapshots) => {
                self.epoch = Some(epoch);
                &snapshots[(epoch % snapshots.len() as u64) as usize]
            }
            Schedule::Rewiring(generator) => {
                if self.epoch != Some(epoch) || self.generated.is_none() {
                    let graph = generator(epoch);
                    assert_eq!(
                        graph.n(),
                        self.owner.n,
                        "temporal rewiring generator changed the vertex count at epoch {epoch}"
                    );
                    self.generated = Some(graph);
                    self.epoch = Some(epoch);
                }
                self.generated.as_ref().expect("cached epoch graph")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cycle, star, Graph};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn periodic_schedule_cycles_with_the_period() {
        let t = TemporalGraph::periodic(vec![cycle(5), star(5)], 3).unwrap();
        let mut view = t.view();
        for round in 0..3 {
            assert_eq!(view.at_round(round).degree(0), 2, "round {round}");
        }
        for round in 3..6 {
            assert_eq!(view.at_round(round).degree(0), 4, "round {round}");
        }
        assert_eq!(view.at_round(6).degree(0), 2, "wraparound");
        assert_eq!(t.epoch_of(0), 0);
        assert_eq!(t.epoch_of(2), 0);
        assert_eq!(t.epoch_of(3), 1);
        assert_eq!(t.period(), 3);
        assert_eq!(t.n(), 5);
    }

    #[test]
    fn rewiring_generates_once_per_epoch() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = Arc::clone(&calls);
        let t = TemporalGraph::rewiring(
            6,
            move |epoch| {
                calls_in.fetch_add(1, Ordering::SeqCst);
                if epoch % 2 == 0 {
                    cycle(6)
                } else {
                    star(6)
                }
            },
            2,
        )
        .unwrap();
        let mut view = t.view();
        assert_eq!(view.at_round(0).degree(0), 2);
        assert_eq!(view.at_round(1).degree(0), 2); // same epoch: cached
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(view.at_round(2).degree(0), 5); // epoch 1: regenerated
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // Independent views regenerate independently.
        let mut other = t.view();
        assert_eq!(other.at_round(0).degree(0), 2);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn build_errors_are_typed() {
        assert!(matches!(
            TemporalGraph::periodic(vec![], 1),
            Err(TemporalBuildError::EmptySchedule)
        ));
        assert!(matches!(
            TemporalGraph::periodic(vec![cycle(4)], 0),
            Err(TemporalBuildError::ZeroPeriod)
        ));
        assert!(matches!(
            TemporalGraph::periodic(vec![cycle(4), cycle(5)], 1),
            Err(TemporalBuildError::VertexCountMismatch {
                expected: 4,
                snapshot: 1,
                found: 5
            })
        ));
        assert!(matches!(
            TemporalGraph::rewiring(5, |_| cycle(5), 0),
            Err(TemporalBuildError::ZeroPeriod)
        ));
        assert!(TemporalBuildError::EmptySchedule
            .to_string()
            .contains("no snapshots"));
    }

    #[test]
    fn weighted_schedules_cycle_with_their_own_weight_rows() {
        // Two snapshots of the same edge set but different weight
        // schemes: the schedule must serve each epoch's own rows.
        let heavy = WeightedCsrGraph::from_csr_uniform(cycle(6), 5).unwrap();
        let light = WeightedCsrGraph::from_csr_uniform(cycle(6), 1).unwrap();
        let t = WeightedTemporalGraph::periodic(vec![heavy, light], 2).unwrap();
        assert_eq!(t.n(), 6);
        let mut view = t.view();
        assert_eq!(view.at_round(0).row_weight(0), 10); // heavy epochs
        assert_eq!(view.at_round(1).row_weight(0), 10);
        assert_eq!(view.at_round(2).row_weight(0), 2); // light epochs
        assert_eq!(view.at_round(4).row_weight(0), 10); // wrapped
    }

    #[test]
    fn weighted_schedule_errors_are_typed() {
        let a = WeightedCsrGraph::from_csr_uniform(cycle(6), 1).unwrap();
        let b = WeightedCsrGraph::from_csr_uniform(cycle(7), 1).unwrap();
        assert!(matches!(
            WeightedTemporalGraph::periodic(vec![a, b], 1),
            Err(TemporalBuildError::VertexCountMismatch { .. })
        ));
        assert!(matches!(
            WeightedTemporalGraph::periodic(vec![], 1),
            Err(TemporalBuildError::EmptySchedule)
        ));
    }

    #[test]
    #[should_panic(expected = "changed the vertex count")]
    fn rewiring_vertex_count_drift_is_caught() {
        let t = TemporalGraph::rewiring(5, |epoch| cycle(5 + epoch as usize), 1).unwrap();
        let mut view = t.view();
        let _ = view.at_round(0); // epoch 0: n = 5, fine
        let _ = view.at_round(1); // epoch 1: n = 6, must panic
    }
}
