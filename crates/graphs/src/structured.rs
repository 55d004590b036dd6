//! Deterministic structured graph families: cycle, torus, star, barbell,
//! and the core–periphery construction of \[CNNS18\].

use crate::{CsrGraph, Vertex};

/// The cycle `C_n`.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "cycle: n must be at least 3");
    let edges: Vec<(Vertex, Vertex)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// The 2-dimensional `w × h` torus grid (4-regular).
///
/// # Panics
///
/// Panics if `w < 3` or `h < 3` (smaller sizes create parallel edges).
#[must_use]
pub fn torus_2d(w: usize, h: usize) -> CsrGraph {
    assert!(
        w >= 3 && h >= 3,
        "torus_2d: both dimensions must be at least 3"
    );
    let idx = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::with_capacity(2 * w * h);
    for y in 0..h {
        for x in 0..w {
            edges.push((idx(x, y), idx((x + 1) % w, y)));
            edges.push((idx(x, y), idx(x, (y + 1) % h)));
        }
    }
    CsrGraph::from_edges(w * h, &edges)
}

/// The star `K_{1,n-1}` with center 0.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn star(n: usize) -> CsrGraph {
    assert!(n >= 2, "star: n must be at least 2");
    let edges: Vec<(Vertex, Vertex)> = (1..n).map(|v| (0, v)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// A barbell: two cliques of size `m` joined by a single bridge edge —
/// the classic slow-mixing counterexample for consensus dynamics.
///
/// # Panics
///
/// Panics if `m < 2`.
#[must_use]
pub fn barbell(m: usize) -> CsrGraph {
    assert!(m >= 2, "barbell: clique size must be at least 2");
    let mut edges = Vec::new();
    for u in 0..m {
        for v in (u + 1)..m {
            edges.push((u, v));
            edges.push((m + u, m + v));
        }
    }
    edges.push((m - 1, m)); // bridge
    CsrGraph::from_edges(2 * m, &edges)
}

/// A core–periphery graph in the spirit of \[CNNS18\]: a clique core of size
/// `core` plus `periphery` degree-1 vertices, each attached to a
/// round-robin core vertex.
///
/// # Panics
///
/// Panics if `core < 2`.
#[must_use]
pub fn core_periphery(core: usize, periphery: usize) -> CsrGraph {
    assert!(core >= 2, "core_periphery: core must be at least 2");
    let mut edges = Vec::new();
    for u in 0..core {
        for v in (u + 1)..core {
            edges.push((u, v));
        }
    }
    for i in 0..periphery {
        edges.push((core + i, i % core));
    }
    CsrGraph::from_edges(core + periphery, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn cycle_is_2_regular_and_connected() {
        let g = cycle(7);
        for v in 0..7 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus_2d(4, 5);
        assert_eq!(g.n(), 20);
        for v in 0..20 {
            assert_eq!(g.degree(v), 4, "vertex {v}");
        }
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 40);
    }

    #[test]
    fn star_degrees() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        for v in 1..6 {
            assert_eq!(g.degree(v), 1);
        }
        assert!(g.is_connected());
    }

    #[test]
    fn barbell_structure() {
        let m = 4;
        let g = barbell(m);
        assert_eq!(g.n(), 8);
        assert!(g.is_connected());
        // Bridge endpoints have degree m, others m-1.
        assert_eq!(g.degree(m - 1), m);
        assert_eq!(g.degree(m), m);
        assert_eq!(g.degree(0), m - 1);
        assert_eq!(g.edge_count(), 2 * (m * (m - 1) / 2) + 1);
    }

    #[test]
    fn core_periphery_structure() {
        let g = core_periphery(3, 5);
        assert_eq!(g.n(), 8);
        assert!(g.is_connected());
        for p in 3..8 {
            assert_eq!(g.degree(p), 1, "periphery vertex {p}");
        }
        // Core vertex 0 serves periphery 3 and 6 → degree 2 (core) + 2.
        assert_eq!(g.degree(0), 4);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_rejects_tiny() {
        let _ = cycle(2);
    }
}
