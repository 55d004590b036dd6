//! The paper's substrate: the complete graph with self-loops.

use crate::{Graph, OpinionCell, Vertex};
use rand::Rng;

/// The `n`-vertex complete graph **with self-loops**: every vertex is
/// adjacent to every vertex including itself, so sampling a random neighbor
/// is sampling a uniformly random vertex. This is the setting of every
/// theorem in the paper (Definition 3.1).
///
/// Stored implicitly in `O(1)` memory.
///
/// # Examples
///
/// ```
/// use od_graphs::{CompleteWithSelfLoops, Graph};
/// let g = CompleteWithSelfLoops::new(10);
/// assert_eq!(g.degree(3), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompleteWithSelfLoops {
    n: usize,
}

impl CompleteWithSelfLoops {
    /// Creates the complete graph with self-loops on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "CompleteWithSelfLoops: n must be positive");
        Self { n }
    }
}

impl Graph for CompleteWithSelfLoops {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        assert!(v < self.n, "vertex {v} out of range");
        self.n
    }

    fn sample_neighbor<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        debug_assert!(v < self.n, "vertex {v} out of range");
        rng.random_range(0..self.n)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        assert!(v < self.n, "vertex {v} out of range");
        (0..self.n).collect()
    }

    #[inline]
    fn neighbor_at(&self, v: Vertex, index: usize) -> Vertex {
        assert!(v < self.n, "vertex {v} out of range");
        assert!(index < self.n, "neighbor index {index} out of range");
        index
    }

    #[inline]
    fn uniform_degree(&self) -> Option<usize> {
        Some(self.n)
    }

    #[inline]
    fn gather_opinions<O: OpinionCell>(
        &self,
        v: Vertex,
        indices: &[u32],
        opinions: &[O],
        out: &mut [u32],
    ) {
        // Neighbor index == vertex id on the complete graph: one load.
        assert!(v < self.n, "vertex {v} out of range");
        for (slot, &index) in out.iter_mut().zip(indices) {
            *slot = opinions[index as usize].widen();
        }
    }

    fn has_self_loop(&self, v: Vertex) -> bool {
        assert!(v < self.n, "vertex {v} out of range");
        true
    }

    fn edge_count(&self) -> usize {
        // C(n, 2) pair edges plus n self-loops, in O(1).
        self.n * (self.n - 1) / 2 + self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_sampling::rng_for;

    #[test]
    fn neighbor_sampling_is_uniform_over_all_vertices() {
        let g = CompleteWithSelfLoops::new(8);
        let mut rng = rng_for(60, 0);
        let mut counts = [0u64; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[g.sample_neighbor(0, &mut rng)] += 1;
        }
        let expect = draws as f64 / 8.0;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "vertex {v}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn self_loop_is_included() {
        let g = CompleteWithSelfLoops::new(3);
        assert!(g.neighbors(1).contains(&1));
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn rejects_empty_graph() {
        let _ = CompleteWithSelfLoops::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degree_checks_bounds() {
        let g = CompleteWithSelfLoops::new(3);
        let _ = g.degree(3);
    }
}
