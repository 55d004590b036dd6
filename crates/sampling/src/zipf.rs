//! Largest-remainder apportionment of integer units to real weights.
//!
//! `OpinionCounts::from_weights` turns any weight vector (Zipf-shaped or
//! otherwise) into an exact integer configuration through [`apportion`].

/// Apportions `n` integer units proportionally to `weights` using the
/// largest-remainder method, guaranteeing the result sums to exactly `n`.
///
/// # Panics
///
/// Panics if `weights` is empty, contains negative/non-finite entries, or
/// sums to zero.
///
/// # Examples
///
/// ```
/// use od_sampling::zipf::apportion;
/// let counts = apportion(10, &[1.0, 1.0, 2.0]);
/// assert_eq!(counts.iter().sum::<u64>(), 10);
/// assert_eq!(counts[2], 5);
/// ```
#[must_use]
pub fn apportion(n: u64, weights: &[f64]) -> Vec<u64> {
    assert!(!weights.is_empty(), "apportion: weights must be non-empty");
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(
                w.is_finite() && w >= 0.0,
                "apportion: weights must be finite and non-negative, got {w}"
            );
            w
        })
        .sum();
    assert!(total > 0.0, "apportion: weights must not all be zero");

    let mut counts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact = n as f64 * w / total;
        let floor = exact.floor() as u64;
        counts.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    let mut leftover = n - assigned;
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("remainders are finite"));
    for (i, _) in remainders {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_sums_exactly() {
        for n in [0u64, 1, 7, 100, 12345] {
            let counts = apportion(n, &[1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 0.125, 0.1]);
            assert_eq!(counts.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn apportion_proportionality() {
        let counts = apportion(100, &[3.0, 1.0]);
        assert_eq!(counts, vec![75, 25]);
    }

    #[test]
    fn apportion_handles_ties_deterministically() {
        let counts = apportion(3, &[1.0, 1.0]);
        assert_eq!(counts.iter().sum::<u64>(), 3);
        // Largest-remainder with a stable sort gives the extra unit to the
        // earliest index on ties.
        assert_eq!(counts[0], 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn apportion_rejects_empty() {
        let _ = apportion(5, &[]);
    }
}
