//! Trajectory recording and cross-trial aggregation.
//!
//! Figure-style experiments (e.g. the growth of `γ_t`, Theorem 2.2) record a
//! scalar per round per trial and then aggregate pointwise across trials.

use crate::summary::RunningStats;

/// Pointwise aggregation of many equally-indexed scalar trajectories.
///
/// Trials may have different lengths; each index aggregates over the trials
/// that reached it.
///
/// # Examples
///
/// ```
/// use od_stats::TrajectoryBundle;
/// let mut b = TrajectoryBundle::new();
/// b.add_trajectory(&[1.0, 2.0]);
/// b.add_trajectory(&[3.0]);
/// assert_eq!(b.len(), 2);
/// assert_eq!(b.mean_at(0), Some(2.0));
/// assert_eq!(b.mean_at(1), Some(2.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrajectoryBundle {
    points: Vec<RunningStats>,
}

impl TrajectoryBundle {
    /// Creates an empty bundle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one trial's trajectory, aggregating pointwise.
    pub fn add_trajectory(&mut self, values: &[f64]) {
        if values.len() > self.points.len() {
            self.points.resize_with(values.len(), RunningStats::new);
        }
        for (slot, &v) in self.points.iter_mut().zip(values.iter()) {
            slot.push(v);
        }
    }

    /// Merges another bundle into this one (parallel reduction).
    pub fn merge(&mut self, other: &TrajectoryBundle) {
        if other.points.len() > self.points.len() {
            self.points
                .resize_with(other.points.len(), RunningStats::new);
        }
        for (slot, o) in self.points.iter_mut().zip(other.points.iter()) {
            slot.merge(o);
        }
    }

    /// Longest trajectory length observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no trajectory has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean across trials at index `t`, if any trial reached it.
    #[must_use]
    pub fn mean_at(&self, t: usize) -> Option<f64> {
        self.points
            .get(t)
            .filter(|s| s.count() > 0)
            .map(RunningStats::mean)
    }

    /// Number of trials contributing at index `t`.
    #[must_use]
    pub fn count_at(&self, t: usize) -> u64 {
        self.points.get(t).map_or(0, RunningStats::count)
    }

    /// Downsamples the mean trajectory, keeping every `stride`-th point
    /// (always including the final point).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    #[must_use]
    pub fn downsampled_mean(&self, stride: usize) -> Vec<(usize, f64)> {
        assert!(stride > 0, "downsampled_mean: stride must be positive");
        let mut out: Vec<(usize, f64)> = self
            .points
            .iter()
            .enumerate()
            .step_by(stride)
            .map(|(i, s)| (i, s.mean()))
            .collect();
        if let Some(last) = self.points.len().checked_sub(1) {
            if out.last().map(|&(i, _)| i) != Some(last) {
                out.push((last, self.points[last].mean()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointwise_means() {
        let mut b = TrajectoryBundle::new();
        b.add_trajectory(&[0.0, 10.0, 20.0]);
        b.add_trajectory(&[2.0, 12.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.mean_at(0), Some(1.0));
        assert_eq!(b.mean_at(1), Some(11.0));
        assert_eq!(b.mean_at(2), Some(20.0));
        assert_eq!(b.count_at(2), 1);
        assert_eq!(b.mean_at(3), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a = TrajectoryBundle::new();
        a.add_trajectory(&[1.0, 2.0]);
        let mut b = TrajectoryBundle::new();
        b.add_trajectory(&[3.0, 4.0, 5.0]);
        a.merge(&b);
        let mut c = TrajectoryBundle::new();
        c.add_trajectory(&[1.0, 2.0]);
        c.add_trajectory(&[3.0, 4.0, 5.0]);
        assert_eq!(a.len(), c.len());
        for t in 0..a.len() {
            assert_eq!(a.mean_at(t), c.mean_at(t));
            assert_eq!(a.count_at(t), c.count_at(t));
        }
    }

    #[test]
    fn downsample_keeps_last() {
        let mut b = TrajectoryBundle::new();
        b.add_trajectory(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let d = b.downsampled_mean(2);
        assert_eq!(d, vec![(0, 0.0), (2, 2.0), (4, 4.0)]);
        let d3 = b.downsampled_mean(3);
        assert_eq!(d3, vec![(0, 0.0), (3, 3.0), (4, 4.0)]);
    }

    #[test]
    fn empty_bundle_is_safe() {
        let b = TrajectoryBundle::new();
        assert!(b.is_empty());
        assert_eq!(b.mean_at(0), None);
        assert!(b.downsampled_mean(1).is_empty());
    }
}
