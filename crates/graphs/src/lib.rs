//! Graph substrate for the `opinion-dynamics` workspace.
//!
//! The paper analyses dynamics on the **complete graph with self-loops**
//! (choosing a random neighbor = choosing a uniformly random vertex); its
//! Section 2.5 lists dynamics on other graph classes as open directions, and
//! the related-work baselines ([CER14; CERRS15; SS19; CNNS18]) run on
//! expanders, stochastic block models and core–periphery graphs. This crate
//! provides all of those as implementations of a single [`Graph`] trait whose
//! essential operation is *sampling a uniformly random neighbor*.
//!
//! # Examples
//!
//! ```
//! use od_graphs::{CompleteWithSelfLoops, Graph};
//! let g = CompleteWithSelfLoops::new(100);
//! let mut rng = od_sampling::rng_for(1, 0);
//! let w = g.sample_neighbor(7, &mut rng);
//! assert!(w < 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complete;
mod csr;
mod random_graphs;
mod structured;
mod temporal;
mod weighted;

pub use complete::CompleteWithSelfLoops;
pub use csr::CsrGraph;
pub use temporal::{
    TemporalBuildError, TemporalGraph, TemporalGraphOf, TemporalView, TemporalViewOf,
    WeightedTemporalGraph, WeightedTemporalView,
};
pub use weighted::{WeightedCsrGraph, WeightedGraphError};

/// The former adjacency-list graph, now an alias of the canonical CSR
/// representation every generator lowers into.
pub type AdjacencyGraph = CsrGraph;
pub use random_graphs::{
    erdos_renyi, random_regular, repair_isolated, stochastic_block_model, GraphBuildError,
};
pub use structured::{barbell, core_periphery, cycle, star, torus_2d};

use rand::Rng;

/// A vertex identifier in `0..n`.
pub type Vertex = usize;

/// The unsigned integer width per-vertex opinions are stored at. The
/// batched round keeps its opinion arrays at the narrowest width that
/// holds every symbol a run can produce, so the gather's random loads
/// touch as few cache lines as possible; gathered and combined values
/// are always `u32`.
pub trait OpinionCell: Copy + Eq + Send + Sync + 'static {
    /// The widest symbol the cell holds.
    const MAX: u32;

    /// The stored symbol as a `u32`.
    fn widen(self) -> u32;

    /// Stores `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` exceeds [`OpinionCell::MAX`]: callers pick the
    /// width from a bound on every symbol, and a bound that understates
    /// one must fail loudly rather than store a truncated opinion.
    fn narrow(symbol: u32) -> Self;

    /// `cells` as a `u32` slice: `u32` cells are returned as they are,
    /// narrower ones are widened into `buffer` (reused across calls).
    fn widen_slice<'a>(cells: &'a [Self], buffer: &'a mut Vec<u32>) -> &'a [u32] {
        buffer.clear();
        buffer.extend(cells.iter().map(|c| c.widen()));
        buffer
    }
}

macro_rules! narrow_cell {
    ($($t:ty),*) => {$(
        impl OpinionCell for $t {
            const MAX: u32 = <$t>::MAX as u32;

            #[inline(always)]
            fn widen(self) -> u32 {
                u32::from(self)
            }

            #[inline(always)]
            fn narrow(symbol: u32) -> Self {
                <$t>::try_from(symbol).unwrap_or_else(|_| {
                    panic!("symbol {symbol} does not fit a {} cell", stringify!($t))
                })
            }
        }
    )*};
}

narrow_cell!(u8, u16);

impl OpinionCell for u32 {
    const MAX: u32 = u32::MAX;

    #[inline(always)]
    fn widen(self) -> u32 {
        self
    }

    #[inline(always)]
    fn narrow(symbol: u32) -> Self {
        symbol
    }

    fn widen_slice<'a>(cells: &'a [u32], _buffer: &'a mut Vec<u32>) -> &'a [u32] {
        cells
    }
}

/// An undirected graph (possibly with self-loops) that supports uniform
/// neighbor sampling — the only primitive the consensus dynamics need.
pub trait Graph {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Degree of vertex `v` (self-loops count once).
    fn degree(&self, v: Vertex) -> usize;

    /// Samples a uniformly random neighbor of `v`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `v >= n()` or if `v` has no neighbors.
    fn sample_neighbor<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex;

    /// Returns the neighbors of `v` as a vector (diagnostic use; the
    /// dynamics only use [`Graph::sample_neighbor`]).
    fn neighbors(&self, v: Vertex) -> Vec<Vertex>;

    /// The `index`-th neighbor of `v` in the graph's canonical neighbor
    /// order — the order [`Graph::sample_neighbor`] indexes into. The
    /// batched round pipeline generates row-local indices in
    /// `[0, degree(v))` first and resolves them through this method in a
    /// separate gather pass.
    ///
    /// The default allocates via [`Graph::neighbors`]; implementations on
    /// the hot path must override it with a direct lookup.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n()` or `index >= degree(v)`.
    fn neighbor_at(&self, v: Vertex, index: usize) -> Vertex {
        self.neighbors(v)[index]
    }

    /// The common degree when every vertex has the same one, else `None`.
    ///
    /// Regular families (complete, cycle, torus, random-regular) report
    /// `Some`, letting the batched pipeline hoist its per-degree Lemire
    /// threshold out of the vertex loop entirely. The default scans all
    /// degrees; [`CsrGraph`] caches the answer at construction.
    fn uniform_degree(&self) -> Option<usize> {
        if self.n() == 0 {
            return None;
        }
        let d = self.degree(0);
        (1..self.n()).all(|v| self.degree(v) == d).then_some(d)
    }

    /// The batched pipeline's gather kernel: for each row-local neighbor
    /// index `indices[i]` of vertex `v`, writes
    /// `opinions[neighbor_at(v, indices[i])]`, widened to `u32`, to
    /// `out[i]`. The opinions may be stored at any [`OpinionCell`] width.
    ///
    /// The default goes through [`Graph::neighbor_at`] per sample;
    /// implementations should override it to resolve the neighbor row
    /// once per vertex (this runs three times per vertex per round on
    /// the hottest path of the engine).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n()`, an index is out of the row's range, or a
    /// resolved neighbor is out of `opinions`' range.
    #[inline]
    fn gather_opinions<O: OpinionCell>(
        &self,
        v: Vertex,
        indices: &[u32],
        opinions: &[O],
        out: &mut [u32],
    ) {
        for (slot, &index) in out.iter_mut().zip(indices) {
            *slot = opinions[self.neighbor_at(v, index as usize)].widen();
        }
    }

    /// True if `v` has an edge to itself.
    ///
    /// The default allocates via [`Graph::neighbors`]; implementations
    /// should override it with a direct membership test.
    fn has_self_loop(&self, v: Vertex) -> bool {
        self.neighbors(v).contains(&v)
    }

    /// Total number of edges (self-loops count once).
    ///
    /// The default is one pass over the vertices through
    /// [`Graph::degree`]/[`Graph::has_self_loop`] — allocation-free
    /// whenever `has_self_loop` is overridden. [`CsrGraph`] answers in
    /// `O(1)` from its construction-time loop count.
    fn edge_count(&self) -> usize {
        let mut sum_deg = 0usize;
        let mut loops = 0usize;
        for v in 0..self.n() {
            sum_deg += self.degree(v);
            loops += usize::from(self.has_self_loop(v));
        }
        (sum_deg - loops) / 2 + loops
    }

    /// True if every vertex has at least one neighbor.
    fn has_no_isolated_vertices(&self) -> bool {
        (0..self.n()).all(|v| self.degree(v) > 0)
    }
}

impl<G: Graph + ?Sized> Graph for &G {
    #[inline]
    fn n(&self) -> usize {
        (**self).n()
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        (**self).degree(v)
    }

    fn sample_neighbor<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        (**self).sample_neighbor(v, rng)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        (**self).neighbors(v)
    }

    #[inline]
    fn neighbor_at(&self, v: Vertex, index: usize) -> Vertex {
        (**self).neighbor_at(v, index)
    }

    #[inline]
    fn uniform_degree(&self) -> Option<usize> {
        (**self).uniform_degree()
    }

    #[inline]
    fn gather_opinions<O: OpinionCell>(
        &self,
        v: Vertex,
        indices: &[u32],
        opinions: &[O],
        out: &mut [u32],
    ) {
        (**self).gather_opinions(v, indices, opinions, out);
    }

    fn has_self_loop(&self, v: Vertex) -> bool {
        (**self).has_self_loop(v)
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn has_no_isolated_vertices(&self) -> bool {
        (**self).has_no_isolated_vertices()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn edge_count_complete_graph() {
        let g = CompleteWithSelfLoops::new(4);
        // C(4,2) + 4 self loops = 6 + 4 = 10.
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn no_isolated_vertices_in_cycle() {
        let g = cycle(5);
        assert!(g.has_no_isolated_vertices());
    }
}
