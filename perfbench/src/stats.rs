//! Percentile math for the benchmark's timings.
//!
//! A timing is reported as its median and as a tail percentile only
//! when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it: a p90 from
//! 50 samples rests on five observations and is not reported.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks (the "inclusive" definition). `None` when
/// `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the
/// `p`-th percentile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES as f64 - 1e-9
}

/// The `p`-th percentile of `samples` when the sample count supports it
/// (see [`tail_supported`]), else `None`.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if tail_supported(samples.len(), p) {
        percentile(samples, p)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 25.0), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(!tail_supported(99, 90.0));
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(199, 95.0));
        assert!(tail_supported(200, 95.0));
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
    }

    #[test]
    fn unsupported_tails_are_withheld() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(supported_percentile(&few, 90.0), None);
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = supported_percentile(&enough, 90.0).unwrap();
        assert!((p90 - 89.1).abs() < 1e-9);
        // Exactly ten samples lie strictly above the reported value.
        assert_eq!(enough.iter().filter(|&&x| x > p90).count(), 10);
    }
}
