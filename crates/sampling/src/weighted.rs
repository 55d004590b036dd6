//! Weighted bounded draws for the weighted graph engine: integer
//! prefix-sum neighbor selection on top of the batched counter streams.
//!
//! A weighted neighbor row assigns each of the `d` neighbors of a vertex
//! an integer weight `w₀, …, w_{d−1}` (`u32`, zero allowed per edge but
//! not for a whole row). Sampling neighbor `j` with probability
//! `w_j / W` (`W = Σ w_j`) decomposes into two deterministic halves:
//!
//! 1. **Point draw** — a uniform *weight point* `p ∈ [0, W)` drawn from
//!    the cell's word stream in the **documented order of
//!    [`crate::batched`]** with `range = W`. Nothing about the order
//!    changes: packed 21-bit lanes with Lemire rejection when
//!    `W ≤ 2²¹`, one full word per sample otherwise. Uniform
//!    (unweighted) sampling is the special case `W = d` — with all-one
//!    weights the weighted stream is bit-identical to the unweighted
//!    one.
//! 2. **Point resolution** — the *normative map* from points to
//!    row-local neighbor indices: with inclusive prefix sums
//!    `C_j = w₀ + ⋯ + w_j`, point `p` selects the unique `j` with
//!    `C_{j−1} ≤ p < C_j` (`C_{−1} = 0`). Zero-weight edges own empty
//!    intervals and are never selected. The map is a pure function of
//!    the weight row, so any partition of a round — sequential,
//!    sharded, or rayon at any thread count — resolves identically.
//!
//! Three interchangeable resolutions realise the normative map:
//!
//! * [`resolve_weight_point_alias`] — the **production** resolution: an
//!   alias-style two-array bucket index ([`WeightAliasRow`]) built once
//!   per row, resolving in `O(1)` expected time (one shift, one bucket
//!   load, ~1 comparison). Note this deliberately is *not* a classical
//!   Vose/Walker table: Walker's construction realises a different,
//!   fragmented partition of `[0, W)` — distributionally identical but
//!   not point-identical — so it could never agree draw-for-draw with
//!   the prefix map. The bucket index keeps the contiguous partition and
//!   therefore is bit-identical to the searches below on every point.
//! * [`resolve_weight_point`] — binary search over the prefix sums
//!   (`O(log d)`, no auxiliary memory): the test oracle of the graph
//!   engine's resolver and the baseline of its bench gate.
//! * [`resolve_weight_point_scalar`] — the intentionally naive
//!   linear-scan reference over the raw weights, kept for differential
//!   testing (`crates/graphs/tests/weighted_reference.rs` proves all
//!   three bit-identical over random, all-equal, single-heavy, and
//!   power-law weight rows, including totals near `u32::MAX` and
//!   degree-1 rows).

use crate::batched::BatchedCellRng;
use rand::RngCore;
use std::fmt;

/// Error building the prefix sums of a weight row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightRowError {
    /// Every weight in the row is zero — there is nothing to sample.
    ZeroTotal,
    /// The row total exceeds `u32::MAX` (points must fit the engine's
    /// `u32` index scratch).
    TotalOverflow,
}

impl fmt::Display for WeightRowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroTotal => write!(f, "weight row sums to zero"),
            Self::TotalOverflow => write!(f, "weight row total exceeds u32::MAX"),
        }
    }
}

impl std::error::Error for WeightRowError {}

/// Inclusive prefix sums of a weight row: `out[j] = w₀ + ⋯ + w_j`.
/// The last entry is the row total `W`.
///
/// # Errors
///
/// [`WeightRowError::ZeroTotal`] when the row is empty or all-zero,
/// [`WeightRowError::TotalOverflow`] when `W > u32::MAX`.
pub fn inclusive_prefix_sums(weights: &[u32]) -> Result<Vec<u32>, WeightRowError> {
    let mut out = Vec::with_capacity(weights.len());
    let mut acc: u64 = 0;
    for &w in weights {
        acc += u64::from(w);
        if u32::try_from(acc).is_err() {
            return Err(WeightRowError::TotalOverflow);
        }
        out.push(acc as u32);
    }
    if acc == 0 {
        return Err(WeightRowError::ZeroTotal);
    }
    Ok(out)
}

/// Resolves a weight point against a row's inclusive prefix sums: the
/// unique index `j` with `C_{j−1} ≤ point < C_j` — the normative map of
/// the module docs, via binary search (`partition_point`).
///
/// # Panics
///
/// Panics if `cum` is empty or `point >= cum.last()` (the row total).
#[must_use]
#[inline]
pub fn resolve_weight_point(cum: &[u32], point: u32) -> usize {
    let total = *cum.last().expect("resolve_weight_point: empty row");
    assert!(
        point < total,
        "resolve_weight_point: point {point} outside [0, {total})"
    );
    cum.partition_point(|&c| c <= point)
}

/// Naive linear-scan reference of [`resolve_weight_point`], over the raw
/// (non-cumulative) weights. Kept deliberately simple for differential
/// testing.
///
/// # Panics
///
/// Panics if `point` is not below the row total.
#[must_use]
pub fn resolve_weight_point_scalar(weights: &[u32], point: u32) -> usize {
    let mut acc: u64 = 0;
    for (j, &w) in weights.iter().enumerate() {
        acc += u64::from(w);
        if u64::from(point) < acc {
            return j;
        }
    }
    panic!("resolve_weight_point_scalar: point {point} outside the row total {acc}");
}

/// The number of linear-scan steps [`resolve_weight_point_alias`] takes
/// before falling back to a bounded binary search. Purely a latency
/// guard for adversarially clustered rows — the result is identical
/// either way.
const ALIAS_SCAN_CAP: u32 = 8;

/// Picks the bucket shift of a row's alias index: the smallest shift
/// whose bucket count `⌈total / 2^shift⌉` fits `2 · degree` buckets, so
/// the index costs at most 8 bytes per edge while a uniformly drawn
/// point lands in a bucket holding less than one interval boundary in
/// expectation.
///
/// # Panics
///
/// Panics if `total == 0` or `degree == 0`.
#[must_use]
pub fn alias_bucket_shift(total: u32, degree: usize) -> u32 {
    assert!(total > 0, "alias_bucket_shift: zero row total");
    assert!(degree > 0, "alias_bucket_shift: empty row");
    let cap = 2 * degree as u64;
    let mut shift = 0u32;
    while (u64::from(total - 1) >> shift) + 1 > cap {
        shift += 1;
    }
    shift
}

/// Builds the bucket array of a row's alias index against its inclusive
/// prefix sums: `first[b]` is the row-local index of the interval
/// containing the bucket's first point `b << shift` (the resolution map
/// is monotone in the point, so the answer for any point in bucket `b`
/// lies in `first[b]..=first[b + 1]`).
///
/// # Panics
///
/// Panics if `cum` is empty or its total is zero.
#[must_use]
pub fn build_alias_buckets(cum: &[u32], shift: u32) -> Vec<u32> {
    let total = *cum.last().expect("build_alias_buckets: empty row");
    assert!(total > 0, "build_alias_buckets: zero row total");
    let buckets = ((u64::from(total - 1) >> shift) + 1) as usize;
    let mut first = Vec::with_capacity(buckets);
    let mut j = 0usize;
    for b in 0..buckets as u64 {
        let p = (b << shift) as u32;
        while cum[j] <= p {
            j += 1;
        }
        first.push(j as u32);
    }
    first
}

/// Resolves a weight point through a row's alias index — **bit-identical
/// to [`resolve_weight_point`]** on every point (both evaluate the
/// normative map; only the lookup strategy differs): one shift selects
/// the bucket, `first[bucket]` gives the first candidate index, and an
/// expected-`O(1)` forward scan (bounded, with a binary-search fallback
/// for adversarially clustered rows) lands on the interval.
///
/// # Panics
///
/// Panics if `cum` is empty, `point >= cum.last()`, or `first`/`shift`
/// were built for a different row.
#[must_use]
#[inline]
pub fn resolve_weight_point_alias(first: &[u32], shift: u32, cum: &[u32], point: u32) -> usize {
    let total = *cum.last().expect("resolve_weight_point_alias: empty row");
    assert!(
        point < total,
        "resolve_weight_point_alias: point {point} outside [0, {total})"
    );
    let mut j = first[(point >> shift) as usize] as usize;
    let mut scanned = 0u32;
    while cum[j] <= point {
        j += 1;
        scanned += 1;
        if scanned == ALIAS_SCAN_CAP {
            return j + cum[j..].partition_point(|&c| c <= point);
        }
    }
    j
}

/// One row's alias index: the bucket array plus its shift, built once
/// and reused for every draw against that row.
///
/// # Examples
///
/// ```
/// use od_sampling::weighted::{inclusive_prefix_sums, resolve_weight_point, WeightAliasRow};
/// let cum = inclusive_prefix_sums(&[3, 0, 7]).unwrap();
/// let alias = WeightAliasRow::build(&cum);
/// for p in 0..10 {
///     assert_eq!(alias.resolve(&cum, p), resolve_weight_point(&cum, p));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightAliasRow {
    shift: u32,
    first: Vec<u32>,
}

impl WeightAliasRow {
    /// Builds the index of the row with inclusive prefix sums `cum`.
    ///
    /// # Panics
    ///
    /// Panics if `cum` is empty or its total is zero.
    #[must_use]
    pub fn build(cum: &[u32]) -> Self {
        let total = *cum.last().expect("WeightAliasRow: empty row");
        let shift = alias_bucket_shift(total, cum.len());
        Self {
            shift,
            first: build_alias_buckets(cum, shift),
        }
    }

    /// The bucket shift (bucket width is `2^shift` points).
    #[must_use]
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// The bucket array (`first[b]` = first candidate index of bucket
    /// `b`).
    #[must_use]
    pub fn buckets(&self) -> &[u32] {
        &self.first
    }

    /// Resolves `point` against the row this index was built for.
    ///
    /// # Panics
    ///
    /// As [`resolve_weight_point_alias`].
    #[must_use]
    #[inline]
    pub fn resolve(&self, cum: &[u32], point: u32) -> usize {
        resolve_weight_point_alias(&self.first, self.shift, cum, point)
    }
}

/// Fills `out` with weighted row-local neighbor indices for one cell
/// through the alias index: the same point stream as
/// [`fill_weighted_batched`], resolved via
/// [`resolve_weight_point_alias`] — bit-identical output by
/// construction.
///
/// # Panics
///
/// Panics if `cum` is empty or `alias` was built for a different row.
#[inline]
pub fn fill_weighted_alias(
    round_key: u64,
    vertex: u64,
    cum: &[u32],
    alias: &WeightAliasRow,
    out: &mut [u32],
) {
    let total = u64::from(*cum.last().expect("fill_weighted_alias: empty row"));
    BatchedCellRng::for_cell(round_key, vertex).fill_indices(total, out);
    for slot in out {
        *slot = alias.resolve(cum, *slot) as u32;
    }
}

/// Fills `out` with weighted row-local neighbor indices for one cell:
/// points drawn in the documented order with `range = cum.last()`, each
/// resolved through the binary-search oracle [`resolve_weight_point`].
/// A reference for tests: the weighted graph engine resolves through the
/// alias index ([`resolve_weight_point_alias`]) instead, point for point
/// the same.
///
/// # Panics
///
/// Panics if `cum` is empty or its total is zero.
#[inline]
pub fn fill_weighted_batched(round_key: u64, vertex: u64, cum: &[u32], out: &mut [u32]) {
    let total = u64::from(*cum.last().expect("fill_weighted_batched: empty row"));
    BatchedCellRng::for_cell(round_key, vertex).fill_indices(total, out);
    for slot in out {
        *slot = resolve_weight_point(cum, *slot) as u32;
    }
}

/// Naive lane-at-a-time reference of [`fill_weighted_batched`]: scalar
/// point draws ([`crate::batched::fill_indices_scalar`]) resolved by
/// linear scan. For differential testing only.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn fill_weighted_scalar(round_key: u64, vertex: u64, weights: &[u32], out: &mut [u32]) {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total > 0, "fill_weighted_scalar: weight row sums to zero");
    crate::batched::fill_indices_scalar(round_key, vertex, total, out);
    for slot in out {
        *slot = resolve_weight_point_scalar(weights, *slot) as u32;
    }
}

/// Draws one weighted row-local neighbor index from an arbitrary RNG
/// stream: one full word mapped onto `[0, W)` by the 64-bit
/// multiply-shift (the same word shape as `CsrGraph::sample_neighbor`),
/// then resolved through the normative map. This is the *stream-seeded*
/// weighted draw used by `Graph::sample_neighbor` on weighted graphs —
/// deliberately not the batched order, exactly as in the unweighted
/// engines.
///
/// # Panics
///
/// Panics if `cum` is empty (a zero total is unrepresentable: prefix
/// construction rejects it).
#[must_use]
#[inline]
pub fn sample_weighted_index<R: RngCore + ?Sized>(cum: &[u32], rng: &mut R) -> usize {
    let total = u64::from(*cum.last().expect("sample_weighted_index: empty row"));
    let point = ((u128::from(rng.next_u64()) * u128::from(total)) >> 64) as u32;
    resolve_weight_point(cum, point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_for;

    #[test]
    fn prefix_sums_are_inclusive_and_checked() {
        assert_eq!(inclusive_prefix_sums(&[3, 0, 7]).unwrap(), vec![3, 3, 10]);
        assert_eq!(inclusive_prefix_sums(&[1]).unwrap(), vec![1]);
        assert_eq!(inclusive_prefix_sums(&[]), Err(WeightRowError::ZeroTotal));
        assert_eq!(
            inclusive_prefix_sums(&[0, 0]),
            Err(WeightRowError::ZeroTotal)
        );
        assert_eq!(
            inclusive_prefix_sums(&[u32::MAX, 1]),
            Err(WeightRowError::TotalOverflow)
        );
        // Exactly u32::MAX is fine.
        assert_eq!(
            inclusive_prefix_sums(&[u32::MAX - 1, 1]).unwrap(),
            vec![u32::MAX - 1, u32::MAX]
        );
    }

    #[test]
    fn resolution_matches_interval_semantics() {
        let weights = [3u32, 0, 7];
        let cum = inclusive_prefix_sums(&weights).unwrap();
        for p in 0..3 {
            assert_eq!(resolve_weight_point(&cum, p), 0, "point {p}");
        }
        for p in 3..10 {
            assert_eq!(resolve_weight_point(&cum, p), 2, "point {p}");
        }
        // The scalar reference agrees point-by-point.
        for p in 0..10 {
            assert_eq!(
                resolve_weight_point(&cum, p),
                resolve_weight_point_scalar(&weights, p),
                "point {p}"
            );
        }
    }

    #[test]
    fn resolution_handles_leading_and_trailing_zeros() {
        let weights = [0u32, 5, 0, 0, 2, 0];
        let cum = inclusive_prefix_sums(&weights).unwrap();
        assert_eq!(resolve_weight_point(&cum, 0), 1);
        assert_eq!(resolve_weight_point(&cum, 4), 1);
        assert_eq!(resolve_weight_point(&cum, 5), 4);
        assert_eq!(resolve_weight_point(&cum, 6), 4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn resolution_rejects_out_of_range_points() {
        let cum = inclusive_prefix_sums(&[2, 3]).unwrap();
        let _ = resolve_weight_point(&cum, 5);
    }

    #[test]
    fn batched_fill_matches_scalar_fill() {
        let rows: Vec<Vec<u32>> = vec![
            vec![1],
            vec![1, 1, 1, 1],            // all-equal: the uniform anchor
            vec![0, 0, 1_000_000, 0, 1], // single heavy edge
            vec![3, 0, 7, 2, 2, 9],
            vec![u32::MAX / 2, u32::MAX / 2], // wide-path total
        ];
        for weights in &rows {
            let cum = inclusive_prefix_sums(weights).unwrap();
            for count in [1usize, 2, 3, 5, 9] {
                for vertex in [0u64, 7, 12345] {
                    let mut fast = vec![0u32; count];
                    let mut slow = vec![0u32; count];
                    fill_weighted_batched(0xFEED_5EED, vertex, &cum, &mut fast);
                    fill_weighted_scalar(0xFEED_5EED, vertex, weights, &mut slow);
                    assert_eq!(fast, slow, "weights {weights:?}, count {count}");
                    assert!(fast
                        .iter()
                        .all(|&j| (j as usize) < weights.len() && weights[j as usize] > 0));
                }
            }
        }
    }

    #[test]
    fn all_one_weights_reproduce_the_uniform_stream() {
        // W = d with unit weights: the weighted draw must be bit-identical
        // to the plain batched draw of range d — weighted sampling is a
        // strict generalisation, not a new stream.
        let d = 13usize;
        let cum = inclusive_prefix_sums(&vec![1u32; d]).unwrap();
        let mut weighted = [0u32; 7];
        let mut uniform = [0u32; 7];
        fill_weighted_batched(0xABC, 42, &cum, &mut weighted);
        crate::fill_indices_batched(0xABC, 42, d as u64, &mut uniform);
        assert_eq!(weighted, uniform);
    }

    #[test]
    fn stream_seeded_draw_is_weight_proportional() {
        let weights = [1u32, 3, 0, 4];
        let cum = inclusive_prefix_sums(&weights).unwrap();
        let mut rng = rng_for(600, 0);
        let mut counts = [0u64; 4];
        let draws = 80_000u64;
        for _ in 0..draws {
            counts[sample_weighted_index(&cum, &mut rng)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight edge drawn");
        for (j, &w) in weights.iter().enumerate() {
            let expect = draws as f64 * f64::from(w) / 8.0;
            if w > 0 {
                assert!(
                    (counts[j] as f64 - expect).abs() < 6.0 * expect.sqrt(),
                    "index {j}: {} vs {expect}",
                    counts[j]
                );
            }
        }
    }

    #[test]
    fn batched_fill_is_weight_proportional_across_cells() {
        let weights = [2u32, 6];
        let cum = inclusive_prefix_sums(&weights).unwrap();
        let mut ones = 0u64;
        let cells = 40_000u64;
        for v in 0..cells {
            let mut out = [0u32; 1];
            fill_weighted_batched(0x7357, v, &cum, &mut out);
            ones += u64::from(out[0] == 1);
        }
        let frac = ones as f64 / cells as f64;
        assert!((frac - 0.75).abs() < 0.02, "heavy fraction {frac}");
    }

    #[test]
    fn alias_resolution_matches_binary_search_pointwise() {
        let rows: Vec<Vec<u32>> = vec![
            vec![1],
            vec![7],                     // degree-1, multi-point row
            vec![1, 1, 1, 1],            // uniform: direct-lookup shift 0
            vec![0, 5, 0, 0, 2, 0],      // interior zeros
            vec![0, 0, 1_000_000, 0, 1], // single heavy edge
            vec![3, 0, 7, 2, 2, 9],
            vec![1; 33], // many unit intervals
        ];
        for weights in &rows {
            let cum = inclusive_prefix_sums(weights).unwrap();
            let alias = WeightAliasRow::build(&cum);
            let total = *cum.last().unwrap();
            for p in 0..total.min(5_000) {
                assert_eq!(
                    alias.resolve(&cum, p),
                    resolve_weight_point(&cum, p),
                    "weights {weights:?}, point {p}"
                );
            }
            // And the last representable point.
            assert_eq!(
                alias.resolve(&cum, total - 1),
                resolve_weight_point(&cum, total - 1)
            );
        }
    }

    #[test]
    fn alias_handles_totals_near_u32_max() {
        // A huge-total, tiny-degree row forces a large bucket shift; the
        // index must stay exact at both ends of every interval.
        let weights = [u32::MAX - 5, 2, 3];
        let cum = inclusive_prefix_sums(&weights).unwrap();
        assert_eq!(*cum.last().unwrap(), u32::MAX);
        let alias = WeightAliasRow::build(&cum);
        for p in [
            0,
            1,
            u32::MAX - 6,
            u32::MAX - 5,
            u32::MAX - 4,
            u32::MAX - 3,
            u32::MAX - 2,
            u32::MAX - 1,
        ] {
            assert_eq!(
                alias.resolve(&cum, p),
                resolve_weight_point(&cum, p),
                "point {p}"
            );
        }
        // Degree-1 row at the ceiling.
        let cum = inclusive_prefix_sums(&[u32::MAX]).unwrap();
        let alias = WeightAliasRow::build(&cum);
        assert_eq!(alias.resolve(&cum, 0), 0);
        assert_eq!(alias.resolve(&cum, u32::MAX - 1), 0);
    }

    #[test]
    fn alias_scan_cap_falls_back_to_binary_search() {
        // 63 unit intervals then one huge one: every boundary clusters in
        // bucket 0 of a large-shift index, overrunning the scan cap — the
        // fallback search must stay exact.
        let mut weights = vec![1u32; 63];
        weights.push(1 << 30);
        let cum = inclusive_prefix_sums(&weights).unwrap();
        let alias = WeightAliasRow::build(&cum);
        for p in 0..200u32 {
            assert_eq!(
                alias.resolve(&cum, p),
                resolve_weight_point(&cum, p),
                "point {p}"
            );
        }
    }

    #[test]
    fn alias_bucket_arrays_cost_at_most_two_slots_per_edge() {
        for weights in [vec![9u32; 17], vec![1, 2, 3], vec![u32::MAX / 2; 2]] {
            let cum = inclusive_prefix_sums(&weights).unwrap();
            let alias = WeightAliasRow::build(&cum);
            assert!(
                alias.buckets().len() <= 2 * weights.len(),
                "{} buckets for degree {}",
                alias.buckets().len(),
                weights.len()
            );
        }
    }

    #[test]
    fn alias_fill_matches_batched_fill() {
        let rows: Vec<Vec<u32>> = vec![
            vec![1, 1, 1, 1],
            vec![0, 0, 1_000_000, 0, 1],
            vec![3, 0, 7, 2, 2, 9],
            vec![u32::MAX / 2, u32::MAX / 2],
        ];
        for weights in &rows {
            let cum = inclusive_prefix_sums(weights).unwrap();
            let alias = WeightAliasRow::build(&cum);
            for vertex in [0u64, 7, 12345] {
                let mut via_alias = [0u32; 9];
                let mut via_search = [0u32; 9];
                fill_weighted_alias(0xFEED_5EED, vertex, &cum, &alias, &mut via_alias);
                fill_weighted_batched(0xFEED_5EED, vertex, &cum, &mut via_search);
                assert_eq!(via_alias, via_search, "weights {weights:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn alias_resolution_rejects_out_of_range_points() {
        let cum = inclusive_prefix_sums(&[2, 3]).unwrap();
        let alias = WeightAliasRow::build(&cum);
        let _ = alias.resolve(&cum, 5);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WeightRowError::ZeroTotal.to_string().contains("zero"));
        assert!(WeightRowError::TotalOverflow.to_string().contains("u32"));
    }
}
