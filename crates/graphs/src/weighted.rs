//! Edge-weighted graphs: a [`CsrGraph`] plus per-edge `u32` sampling
//! weights, with integer weighted neighbor selection.
//!
//! "Choose a random neighbor" becomes "choose neighbor `j` of `v` with
//! probability `w_j / W_v`" (`W_v` the row total). The draw decomposes
//! exactly as [`od_sampling::weighted`] documents: a uniform weight
//! point in `[0, W_v)` from the cell's counter stream (the documented
//! batched order with `range = W_v`), resolved through the **normative
//! map** (inclusive prefix sums `C_j`; point `p` selects the unique `j`
//! with `C_{j−1} ≤ p < C_j`). With all-one weights both halves
//! degenerate to the unweighted engine bit-for-bit.
//!
//! Points resolve through one three-tier hybrid keyed on the row, every
//! tier `O(1)` per draw and branch-free: rows of ≤ 8 edges use a fused
//! branchless in-row count (the row is one cache line the resolution
//! must touch anyway); rows of ≤ 32 edges whose guess error fits a
//! fixed window use **guess-and-correct** (a per-row reciprocal lands
//! within ±3 of the true index, a constant 8-slot branchless count
//! finishes — 8 auxiliary bytes per *vertex*); longer or heavily skewed
//! rows get per-row alias-style bucket indexes built once at
//! construction ([`od_sampling::weighted::WeightAliasRow`] flattened
//! CSR-style; `O(1)` expected resolution, at most 8 extra bytes per
//! edge). Every tier evaluates the normative map exactly, so the binary
//! search [`od_sampling::weighted::resolve_weight_point`] and the scalar
//! scan remain valid oracles for it.
//!
//! Row totals are validated at construction: a vertex whose edges are
//! all weight-zero has nothing to sample (typed
//! [`WeightedGraphError::ZeroWeightVertex`], never an engine panic), and
//! totals above `u32::MAX` would not fit the engine's `u32` point
//! scratch (typed [`WeightedGraphError::RowWeightOverflow`]).

use crate::{CsrGraph, Graph, OpinionCell, Vertex};
use od_sampling::weighted::{alias_bucket_shift, build_alias_buckets, resolve_weight_point_alias};
use rand::Rng;
use std::fmt;

/// Error constructing a [`WeightedCsrGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightedGraphError {
    /// A vertex's incident weights sum to zero — weighted sampling has
    /// no support there.
    ZeroWeightVertex {
        /// The offending vertex.
        vertex: Vertex,
    },
    /// A vertex's incident weights sum past `u32::MAX`.
    RowWeightOverflow {
        /// The offending vertex.
        vertex: Vertex,
    },
}

impl fmt::Display for WeightedGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroWeightVertex { vertex } => write!(
                f,
                "vertex {vertex} has only zero-weight edges — nothing to sample"
            ),
            Self::RowWeightOverflow { vertex } => {
                write!(f, "vertex {vertex}: incident weights sum past u32::MAX")
            }
        }
    }
}

impl std::error::Error for WeightedGraphError {}

/// Rows of at most this many edges resolve with the branchless in-row
/// count: at these lengths the whole row is one cache line the
/// resolution must touch anyway, and the count's data-independent
/// compares beat every alternative (measured: the pure bucket index ran
/// 1.16–1.33× *slower* than the binary search on mean-degree ≈ 2–12
/// bench families, entirely from the second per-edge memory stream).
/// The count is exact — `#{k : C_k ≤ p}` *is* the normative partition
/// index — so the hybrid stays bit-identical to the binary search.
const ALIAS_COUNT_ROW: usize = 8;

/// Rows up to this many edges are candidates for **guess-and-correct**
/// resolution: the per-row reciprocal `inv = ⌊d·2³² / W⌋` turns a point
/// into the index it would have under perfectly uniform weights (the
/// implicit alias bucket whose `first[b] = b` — no table needed), and a
/// branchless count over a fixed 8-slot window around the guess lands
/// on the true partition index. Construction verifies the row's maximal
/// guess error fits the window (`≤ ALIAS_GUIDED_ERROR`); skewed rows
/// fall back to the explicit bucket index, whose `O(1)` bound does not
/// degrade with skew. Resolution costs one multiply plus 8
/// data-independent compares — no mispredictable branch, and the
/// auxiliary memory is 8 bytes per *vertex* (one sequential stream),
/// not per edge.
const ALIAS_GUIDED_ROW: usize = 32;

/// Fixed correction window of the guided path.
const ALIAS_GUIDED_WINDOW: usize = 8;

/// Maximal tolerated |true index − guess| for a row to take the guided
/// path (the window covers `guess − 3 ..= guess + 4`).
const ALIAS_GUIDED_ERROR: u64 = 3;

/// The branchless in-row resolution of the normative map for short
/// rows: the partition index of `point` is exactly the number of prefix
/// sums `≤ point`, and counting them with data-independent compares
/// vectorises and never mispredicts, unlike the binary search's
/// data-dependent probe chain.
#[inline]
fn resolve_point_by_count(row: &[u32], point: u32) -> u32 {
    debug_assert!(point < row[row.len() - 1]);
    let mut j = 0u32;
    for &c in row {
        j += u32::from(c <= point);
    }
    j
}

/// Guess-and-correct resolution for mid-size rows whose maximal guess
/// error fits the fixed window (verified at construction): the true
/// partition index equals `lo` plus the count of window entries
/// `≤ point`, because every prefix sum below the window is `≤ point`
/// and every one above it is `> point`. Entirely branch-free — the
/// window has constant length, so the count unrolls with no
/// data-dependent control flow.
#[inline]
fn resolve_point_guided(row: &[u32], inv: u64, point: u32) -> u32 {
    debug_assert!(point < row[row.len() - 1]);
    let guess = ((u64::from(point) * inv) >> 32) as usize;
    let lo = guess
        .saturating_sub(ALIAS_GUIDED_ERROR as usize)
        .min(row.len() - ALIAS_GUIDED_WINDOW);
    let mut j = 0u32;
    for &c in &row[lo..lo + ALIAS_GUIDED_WINDOW] {
        j += u32::from(c <= point);
    }
    lo as u32 + j
}

/// The maximal |true index − uniform guess| over every point of the
/// row — the construction-time check gating the guided path. The guess
/// is monotone in the point, so the extremes occur at interval
/// endpoints.
fn max_guess_error(row: &[u32], inv: u64) -> u64 {
    let mut emax = 0u64;
    let mut lower = 0u32; // C_{k-1}
    for (k, &c) in row.iter().enumerate() {
        if c > lower {
            // Interval k is non-empty: probe its first and last point.
            for p in [lower, c - 1] {
                let guess = (u64::from(p) * inv) >> 32;
                emax = emax.max(guess.abs_diff(k as u64));
            }
            lower = c;
        }
    }
    emax
}

/// A [`CsrGraph`] with per-edge `u32` sampling weights, stored as
/// row-local inclusive prefix sums aligned with the CSR `neighbors`
/// array (`cum[offsets[v] + j] = w₀ + ⋯ + w_j` within row `v`), plus the
/// per-row resolution data of the three-tier hybrid (see the module
/// docs).
///
/// # Examples
///
/// ```
/// use od_graphs::{CsrGraph, Graph, WeightedCsrGraph};
/// let csr = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
/// // Edge (u, v) gets weight u + v + 1 (symmetric by construction).
/// let g = WeightedCsrGraph::from_csr_with(csr, |u, v| (u + v + 1) as u32).unwrap();
/// assert_eq!(g.row_weight(0), (0 + 1 + 1) + (2 + 0 + 1));
/// assert_eq!(g.weight_at(0, 0), 2); // neighbor 1 comes first in row 0
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedCsrGraph {
    csr: CsrGraph,
    cum: Vec<u32>,
    /// Per-row reciprocals `⌊d·2³² / W⌋` of the guess-and-correct
    /// mid-size path (zero for rows resolved another way).
    inv: Vec<u64>,
    /// Flattened per-row bucket arrays (`first` indices, row-local;
    /// empty range for rows short enough to count or guess in-row).
    buckets: Vec<u32>,
    /// Bucket-array offsets per vertex (`n + 1` entries).
    bucket_offsets: Vec<u64>,
    /// Per-row bucket shifts.
    shifts: Vec<u8>,
    /// Cached common row total (weighted analogue of the uniform-degree
    /// cache).
    uniform_row_weight: Option<u32>,
}

impl WeightedCsrGraph {
    /// Wraps a CSR graph with weights from `weight(u, v)`. The weight
    /// function is called once per directed CSR slot; **the caller must
    /// supply a symmetric function** (`weight(u, v) == weight(v, u)`) for
    /// the graph to remain undirected; a pure function of the unordered
    /// pair (as the runtime's seeded schemes are) satisfies this by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`WeightedGraphError::ZeroWeightVertex`] when some vertex's
    /// incident weights are all zero (isolated vertices included), and
    /// [`WeightedGraphError::RowWeightOverflow`] when a row total
    /// exceeds `u32::MAX`.
    pub fn from_csr_with<F>(csr: CsrGraph, mut weight: F) -> Result<Self, WeightedGraphError>
    where
        F: FnMut(Vertex, Vertex) -> u32,
    {
        let n = csr.n();
        let (offsets, neighbors) = csr.raw_parts();
        let mut cum = Vec::with_capacity(neighbors.len());
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            let mut acc: u64 = 0;
            for &w in &neighbors[start..end] {
                acc += u64::from(weight(v, w as Vertex));
                if u32::try_from(acc).is_err() {
                    return Err(WeightedGraphError::RowWeightOverflow { vertex: v });
                }
                cum.push(acc as u32);
            }
            if acc == 0 {
                return Err(WeightedGraphError::ZeroWeightVertex { vertex: v });
            }
        }
        // `CsrGraph` guarantees n >= 1, and the loop above has returned
        // a typed error unless every row (row 0 included) is non-empty
        // with positive total — so `offsets[1] >= 1` here.
        let first = cum[offsets[1] as usize - 1];
        let uniform_row_weight = (0..n)
            .all(|v| cum[offsets[v + 1] as usize - 1] == first)
            .then_some(first);
        let mut inv = vec![0u64; n];
        let mut buckets = Vec::new();
        let mut bucket_offsets = Vec::with_capacity(n + 1);
        let mut shifts = Vec::with_capacity(n);
        bucket_offsets.push(0u64);
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            let row = &cum[start..end];
            if row.len() <= ALIAS_COUNT_ROW {
                // Short rows resolve by in-row count: no index to build
                // (or stream through later).
                shifts.push(0);
                bucket_offsets.push(buckets.len() as u64);
                continue;
            }
            if row.len() <= ALIAS_GUIDED_ROW {
                let total = row[row.len() - 1];
                let row_inv = ((row.len() as u64) << 32) / u64::from(total);
                if max_guess_error(row, row_inv) <= ALIAS_GUIDED_ERROR {
                    inv[v] = row_inv;
                    shifts.push(0);
                    bucket_offsets.push(buckets.len() as u64);
                    continue;
                }
                // Too skewed for the window: fall through to the bucket
                // index (inv[v] stays 0).
            }
            let total = row[row.len() - 1];
            let shift = alias_bucket_shift(total, row.len());
            shifts.push(shift as u8);
            buckets.extend(build_alias_buckets(row, shift));
            bucket_offsets.push(buckets.len() as u64);
        }
        Ok(Self {
            csr,
            cum,
            inv,
            buckets,
            bucket_offsets,
            shifts,
            uniform_row_weight,
        })
    }

    /// Wraps a CSR graph with one constant weight on every edge.
    /// `value = 1` reproduces the unweighted sampling streams exactly.
    ///
    /// # Errors
    ///
    /// As [`WeightedCsrGraph::from_csr_with`] (`value = 0` always fails,
    /// huge degrees can overflow a row).
    pub fn from_csr_uniform(csr: CsrGraph, value: u32) -> Result<Self, WeightedGraphError> {
        Self::from_csr_with(csr, |_, _| value)
    }

    /// The underlying unweighted CSR graph.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The prefix-sum row of `v` in the flat storage.
    #[inline]
    fn row(&self, v: Vertex) -> &[u32] {
        let (offsets, _) = self.csr.raw_parts();
        &self.cum[offsets[v] as usize..offsets[v + 1] as usize]
    }

    /// The weight of the `index`-th edge of `v`'s row (canonical CSR
    /// neighbor order).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `index` is out of the row's range.
    #[must_use]
    pub fn weight_at(&self, v: Vertex, index: usize) -> u32 {
        let row = self.row(v);
        if index == 0 {
            row[0]
        } else {
            row[index] - row[index - 1]
        }
    }

    /// Total sampling weight `W_v` of vertex `v`'s row: the `range` of
    /// the point draw. Always `>= 1` and `<= u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    #[inline]
    pub fn row_weight(&self, v: Vertex) -> u64 {
        let row = self.row(v);
        debug_assert!(!row.is_empty(), "validated non-empty row");
        u64::from(row[row.len() - 1])
    }

    /// The common row weight when every vertex has the same one, else
    /// `None` — the weighted analogue of [`Graph::uniform_degree`],
    /// letting the batched kernel hoist its Lemire threshold.
    #[must_use]
    #[inline]
    pub fn uniform_row_weight(&self) -> Option<u64> {
        self.uniform_row_weight.map(u64::from)
    }

    /// Resolves weight points in `[0, row_weight(v))` to row-local
    /// neighbor indices in place — the normative map of
    /// [`od_sampling::weighted`].
    ///
    /// # Panics
    ///
    /// Panics if `v >= n()` or a point is out of the row's range.
    pub fn resolve_points(&self, v: Vertex, points: &mut [u32]) {
        let row = self.row(v);
        if row.len() <= ALIAS_COUNT_ROW {
            // One fused pass over the row for the whole cell: the
            // three-sample case (3-Majority et al.) loads each prefix sum
            // once and keeps three independent compare-add chains in
            // flight.
            if let [p0, p1, p2] = points {
                let (a, b, c) = (*p0, *p1, *p2);
                let (mut j0, mut j1, mut j2) = (0u32, 0u32, 0u32);
                for &cv in row {
                    j0 += u32::from(cv <= a);
                    j1 += u32::from(cv <= b);
                    j2 += u32::from(cv <= c);
                }
                (*p0, *p1, *p2) = (j0, j1, j2);
            } else {
                for p in points {
                    *p = resolve_point_by_count(row, *p);
                }
            }
        } else if self.inv[v] != 0 {
            let row_inv = self.inv[v];
            for p in points {
                *p = resolve_point_guided(row, row_inv, *p);
            }
        } else {
            let first =
                &self.buckets[self.bucket_offsets[v] as usize..self.bucket_offsets[v + 1] as usize];
            let shift = u32::from(self.shifts[v]);
            for p in points {
                *p = resolve_weight_point_alias(first, shift, row, *p) as u32;
            }
        }
    }
}

impl Graph for WeightedCsrGraph {
    #[inline]
    fn n(&self) -> usize {
        self.csr.n()
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        self.csr.degree(v)
    }

    /// Samples a **weight-proportional** neighbor: one RNG word mapped
    /// onto `[0, W_v)` by the 64-bit multiply-shift, resolved through
    /// the normative map.
    fn sample_neighbor<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        let total = self.row_weight(v);
        let mut point = [((u128::from(rng.next_u64()) * u128::from(total)) >> 64) as u32];
        self.resolve_points(v, &mut point);
        self.csr.neighbor_at(v, point[0] as usize)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.csr.neighbors(v)
    }

    #[inline]
    fn neighbor_at(&self, v: Vertex, index: usize) -> Vertex {
        self.csr.neighbor_at(v, index)
    }

    #[inline]
    fn uniform_degree(&self) -> Option<usize> {
        self.csr.uniform_degree()
    }

    #[inline]
    fn gather_opinions<O: OpinionCell>(
        &self,
        v: Vertex,
        indices: &[u32],
        opinions: &[O],
        out: &mut [u32],
    ) {
        self.csr.gather_opinions(v, indices, opinions, out);
    }

    fn has_self_loop(&self, v: Vertex) -> bool {
        self.csr.has_self_loop(v)
    }

    fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_sampling::rng_for;
    use od_sampling::weighted::resolve_weight_point;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn construction_builds_prefix_rows() {
        let g = WeightedCsrGraph::from_csr_with(triangle(), |u, v| (u + v) as u32).unwrap();
        // Row 0: neighbors [1, 2] → weights [1, 2] → cum [1, 3].
        assert_eq!(g.row_weight(0), 3);
        assert_eq!(g.weight_at(0, 0), 1);
        assert_eq!(g.weight_at(0, 1), 2);
        assert_eq!(g.uniform_row_weight(), None);
    }

    #[test]
    fn uniform_weights_are_detected() {
        let g = WeightedCsrGraph::from_csr_uniform(triangle(), 4).unwrap();
        assert_eq!(g.uniform_row_weight(), Some(8)); // degree 2 × weight 4
        assert_eq!(g.row_weight(1), 8);
    }

    #[test]
    fn zero_weight_vertex_is_a_typed_error() {
        assert_eq!(
            WeightedCsrGraph::from_csr_uniform(triangle(), 0),
            Err(WeightedGraphError::ZeroWeightVertex { vertex: 0 })
        );
        // A single all-zero row among weighted ones is caught too.
        let path = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let err =
            WeightedCsrGraph::from_csr_with(path, |u, v| u32::from(u.min(v) == 0 && u.max(v) == 1));
        assert_eq!(err, Err(WeightedGraphError::ZeroWeightVertex { vertex: 2 }));
    }

    #[test]
    fn row_overflow_is_a_typed_error() {
        let err = WeightedCsrGraph::from_csr_uniform(triangle(), u32::MAX);
        assert_eq!(
            err,
            Err(WeightedGraphError::RowWeightOverflow { vertex: 0 })
        );
    }

    #[test]
    fn resolutions_match_the_prefix_search() {
        let csr = CsrGraph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (3, 4),
                (4, 5),
            ],
        );
        let weight = |u: usize, v: usize| ((u * 7 + v * 3) % 11 + 1) as u32;
        let g = WeightedCsrGraph::from_csr_with(csr, weight).unwrap();
        for v in 0..6 {
            let mut points: Vec<u32> = (0..g.row_weight(v) as u32).collect();
            let expected: Vec<u32> = points
                .iter()
                .map(|&p| resolve_weight_point(g.row(v), p) as u32)
                .collect();
            g.resolve_points(v, &mut points);
            assert_eq!(points, expected, "row {v} diverged from the binary search");
        }
    }

    #[test]
    fn sampling_is_weight_proportional() {
        // Hub 0 with spoke weights 1, 3, 0, 4; the extra edge (3, 4)
        // keeps vertex 3 sampleable despite its zero-weight spoke.
        let csr = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]);
        let weights = [0u32, 1, 3, 0, 4]; // weight of edge (0, v) = weights[v]
        let g =
            WeightedCsrGraph::from_csr_with(
                csr,
                |u, v| {
                    if u.min(v) == 0 {
                        weights[u.max(v)]
                    } else {
                        1
                    }
                },
            )
            .unwrap_or_else(|e| panic!("{e}"));
        let mut rng = rng_for(601, 0);
        let mut counts = [0u64; 5];
        let draws = 80_000u64;
        for _ in 0..draws {
            counts[g.sample_neighbor(0, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[3], 0, "zero-weight edge sampled");
        let total = 8.0;
        for v in [1usize, 2, 4] {
            let expect = draws as f64 * f64::from(weights[v]) / total;
            assert!(
                (counts[v] as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "vertex {v}: {} vs {expect}",
                counts[v]
            );
        }
    }

    #[test]
    fn resolve_points_matches_the_normative_map() {
        let g = WeightedCsrGraph::from_csr_with(triangle(), |u, v| (u + v) as u32).unwrap();
        // Row 0: cum [1, 3] → point 0 → index 0; points 1, 2 → index 1.
        let mut points = [0u32, 1, 2];
        g.resolve_points(0, &mut points);
        assert_eq!(points, [0, 1, 1]);
    }

    #[test]
    fn graph_facade_delegates_to_the_csr() {
        let g = WeightedCsrGraph::from_csr_uniform(triangle(), 2).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.uniform_degree(), Some(2));
        assert_eq!(g.edge_count(), 3);
        assert!(!g.has_self_loop(0));
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert_eq!(g.neighbor_at(0, 1), 2);
        let mut out = [0u32; 2];
        g.gather_opinions(0, &[0, 1], &[9u32, 8, 7], &mut out);
        assert_eq!(out, [8, 7]);
    }

    #[test]
    fn unit_weights_sample_like_the_plain_csr() {
        // With all-one weights the stream-seeded draw consumes one word
        // per sample with range = degree — the exact consumption of
        // CsrGraph::sample_neighbor — so the two must agree draw-by-draw.
        let csr = triangle();
        let g = WeightedCsrGraph::from_csr_uniform(csr.clone(), 1).unwrap();
        let mut rng_a = rng_for(602, 0);
        let mut rng_b = rng_for(602, 0);
        for _ in 0..200 {
            for v in 0..3 {
                assert_eq!(
                    g.sample_neighbor(v, &mut rng_a),
                    csr.sample_neighbor(v, &mut rng_b)
                );
            }
        }
    }
}
