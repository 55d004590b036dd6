//! The canonical compressed-sparse-row (CSR) graph representation.
//!
//! Every explicit graph in this crate — all the random and structured
//! generators — lowers into one [`CsrGraph`]: a single `offsets` array of
//! `n + 1` `u32`s and a flat `neighbors` array of `u32`s. The [`Graph`]
//! trait is a thin facade over it. Compared to the former `usize`
//! adjacency layout this halves the memory traffic of the hot
//! neighbor-sampling loop, and the construction-time self-loop count makes
//! [`CsrGraph::edge_count`] `O(1)` and allocation-free.

use crate::{Graph, OpinionCell, Vertex};
use rand::Rng;

/// An undirected graph (possibly with self-loops) in CSR form:
/// `neighbors[offsets[v]..offsets[v + 1]]` is the sorted, deduplicated
/// neighborhood of vertex `v`.
///
/// Vertex ids and edge counts are stored as `u32`: the population engines
/// top out well below 4 billion vertices, and the narrower ids double the
/// number of neighbors per cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<u32>,
    /// Flattened, per-vertex-sorted neighbor lists.
    neighbors: Vec<u32>,
    /// Number of vertices with a self-loop (each counts one edge).
    num_loops: u32,
    /// The common degree when the graph is regular (cached at
    /// construction so the batched kernels branch on it in `O(1)`).
    uniform_degree: Option<u32>,
}

impl CsrGraph {
    /// Builds a graph on `n` vertices from an undirected edge list.
    /// Each `(u, v)` pair is inserted in both directions (once for a
    /// self-loop). Duplicate edges are deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, any endpoint is out of range, or `n`/the
    /// directed edge count exceeds `u32::MAX`.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        assert!(n > 0, "CsrGraph: n must be positive");
        assert!(
            u32::try_from(n).is_ok(),
            "CsrGraph: n = {n} does not fit u32"
        );
        // Pass 1: degree counting (both directions; a self-loop once).
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "CsrGraph: edge ({u},{v}) out of range");
            degree[u] += 1;
            if u != v {
                degree[v] += 1;
            }
        }
        let directed: usize = degree.iter().map(|&d| d as usize).sum();
        assert!(
            u32::try_from(directed).is_ok(),
            "CsrGraph: {directed} directed edges do not fit u32"
        );
        // Prefix sums, then scatter with per-vertex cursors.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; directed];
        for &(u, v) in edges {
            neighbors[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
            if u != v {
                neighbors[cursor[v] as usize] = u as u32;
                cursor[v] += 1;
            }
        }
        // Pass 2: sort each row, then dedup by compacting the whole array
        // in place (no per-vertex allocation).
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            neighbors[start..end].sort_unstable();
        }
        let mut write = 0usize;
        let mut num_loops = 0u32;
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            offsets[v] = write as u32;
            let mut prev = None;
            for read in start..end {
                let w = neighbors[read];
                if prev != Some(w) {
                    neighbors[write] = w;
                    write += 1;
                    prev = Some(w);
                    if w as usize == v {
                        num_loops += 1;
                    }
                }
            }
        }
        offsets[n] = write as u32;
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        let first_degree = offsets[1] - offsets[0];
        let uniform_degree = offsets
            .windows(2)
            .all(|w| w[1] - w[0] == first_degree)
            .then_some(first_degree);
        Self {
            offsets,
            neighbors,
            num_loops,
            uniform_degree,
        }
    }

    /// Builds a simple `d`-regular graph from its neighbor table: row `v`
    /// is `neighbors[v·d..(v + 1)·d]` and lists `v`'s `d` distinct
    /// neighbors, none of them `v`, in any order. Each row is sorted in
    /// place and the table is kept as the neighbor array, so the offsets
    /// are `v·d`, there are no self-loops and the uniform degree is `d`.
    /// The result equals [`CsrGraph::from_edges`] on the graph's edges.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, the table is empty or not a whole number of
    /// rows, or its length exceeds `u32::MAX`.
    pub(crate) fn from_regular_rows(d: usize, mut neighbors: Vec<u32>) -> Self {
        let directed = neighbors.len();
        assert!(
            d > 0 && directed > 0 && directed.is_multiple_of(d) && u32::try_from(directed).is_ok(),
            "CsrGraph: {directed} entries are not whole rows of {d} within u32"
        );
        for (v, row) in neighbors.chunks_exact_mut(d).enumerate() {
            row.sort_unstable();
            debug_assert!(
                row.windows(2).all(|w| w[0] < w[1]) && row.binary_search(&(v as u32)).is_err(),
                "CsrGraph: row {v} is not simple"
            );
        }
        Self {
            offsets: (0..=directed as u32).step_by(d).collect(),
            neighbors,
            num_loops: 0,
            uniform_degree: Some(d as u32),
        }
    }

    /// The sorted neighborhood of `v` as a slice of `u32` vertex ids —
    /// the zero-cost view the simulation kernels iterate and sample from.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    #[inline]
    pub fn neighbor_slice(&self, v: Vertex) -> &[u32] {
        assert!(v + 1 < self.offsets.len(), "vertex {v} out of range");
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The raw CSR arrays `(offsets, neighbors)`, for code that wants to
    /// hoist the indexing out of a hot loop.
    #[must_use]
    pub fn raw_parts(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Number of self-loops (recorded at construction; `O(1)`).
    #[must_use]
    pub fn num_self_loops(&self) -> usize {
        self.num_loops as usize
    }

    /// True if the edge `(u, v)` is present.
    #[must_use]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        u32::try_from(v).is_ok_and(|v| self.neighbor_slice(u).binary_search(&v).is_ok())
    }

    /// True if the graph is connected (ignoring self-loops).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 1;
        while let Some(v) = stack.pop() {
            for &w in self.neighbor_slice(v) {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    visited += 1;
                    stack.push(w);
                }
            }
        }
        visited == n
    }
}

impl Graph for CsrGraph {
    #[inline]
    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        self.neighbor_slice(v).len()
    }

    fn sample_neighbor<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        let nbrs = self.neighbor_slice(v);
        assert!(!nbrs.is_empty(), "vertex {v} has no neighbors");
        // Branch-free index map (Lemire's multiply-shift). The residual
        // bias is deg/2^64 — immaterial next to Monte-Carlo noise — and
        // every draw consumes exactly one RNG word, which keeps the
        // consumption pattern identical across engines.
        let idx = ((u128::from(rng.next_u64()) * nbrs.len() as u128) >> 64) as usize;
        nbrs[idx] as Vertex
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.neighbor_slice(v)
            .iter()
            .map(|&w| w as Vertex)
            .collect()
    }

    #[inline]
    fn neighbor_at(&self, v: Vertex, index: usize) -> Vertex {
        self.neighbor_slice(v)[index] as Vertex
    }

    #[inline]
    fn uniform_degree(&self) -> Option<usize> {
        self.uniform_degree.map(|d| d as usize)
    }

    #[inline]
    fn gather_opinions<O: OpinionCell>(
        &self,
        v: Vertex,
        indices: &[u32],
        opinions: &[O],
        out: &mut [u32],
    ) {
        // Resolve the CSR row once; each sample is then two dependent
        // loads (row entry, opinion) with no per-sample offset lookups.
        let row = self.neighbor_slice(v);
        for (slot, &index) in out.iter_mut().zip(indices) {
            *slot = opinions[row[index as usize] as usize].widen();
        }
    }

    fn edge_count(&self) -> usize {
        let loops = self.num_loops as usize;
        (self.neighbors.len() - loops) / 2 + loops
    }

    fn has_self_loop(&self, v: Vertex) -> bool {
        u32::try_from(v).is_ok_and(|v32| self.neighbor_slice(v).binary_search(&v32).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_sampling::rng_for;

    #[test]
    fn builds_triangle() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.num_self_loops(), 0);
    }

    #[test]
    fn dedupes_parallel_edges() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_counted_once() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.degree(0), 2); // {0, 1}
        assert!(g.has_edge(0, 0));
        assert!(g.has_self_loop(0));
        assert!(!g.has_self_loop(1));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.num_self_loops(), 1);
    }

    #[test]
    fn detects_disconnection() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn rows_are_sorted_and_offsets_consistent() {
        let g = CsrGraph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (3, 3), (1, 0)]);
        let (offsets, neighbors) = g.raw_parts();
        assert_eq!(offsets.len(), 6);
        assert_eq!(offsets[5] as usize, neighbors.len());
        for v in 0..5 {
            let row = g.neighbor_slice(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted");
        }
        assert_eq!(g.neighbor_slice(3), &[0, 1, 3, 4]);
    }

    #[test]
    fn uniform_degree_of_regular_and_irregular_graphs() {
        // Triangle: 2-regular.
        let tri = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(tri.uniform_degree(), Some(2));

        // Path 0–1–2–3: degrees 1, 2, 2, 1.
        let path = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(path.uniform_degree(), None);
    }

    #[test]
    fn neighbor_at_matches_canonical_order() {
        let g = CsrGraph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (3, 3), (1, 0)]);
        for v in 0..5 {
            for (i, &w) in g.neighbor_slice(v).iter().enumerate() {
                assert_eq!(g.neighbor_at(v, i), w as usize);
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn neighbor_at_checks_bounds() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let _ = g.neighbor_at(0, 1);
    }

    #[test]
    fn sampling_stays_in_neighborhood() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2)]);
        let mut rng = rng_for(61, 0);
        for _ in 0..1000 {
            let w = g.sample_neighbor(0, &mut rng);
            assert!(w == 1 || w == 2);
        }
    }

    #[test]
    fn sampling_hits_every_neighbor_roughly_uniformly() {
        let star_edges: Vec<(usize, usize)> = (1..9).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(9, &star_edges);
        let mut rng = rng_for(63, 0);
        let mut counts = [0u64; 9];
        let draws = 80_000;
        for _ in 0..draws {
            counts[g.sample_neighbor(0, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "0 is not its own neighbor");
        let expect = draws as f64 / 8.0;
        for (v, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "vertex {v}: {c} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no neighbors")]
    fn sampling_isolated_vertex_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 0)]);
        let mut rng = rng_for(62, 0);
        let _ = g.sample_neighbor(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)]);
    }
}
