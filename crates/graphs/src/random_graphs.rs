//! Random graph generators: Erdős–Rényi, random regular (expanders with
//! high probability), and the stochastic block model.

use crate::{AdjacencyGraph, Graph, Vertex};
use rand::Rng;
use std::fmt;

/// Error returned when a random-graph generator cannot produce a graph with
/// the requested parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphBuildError {
    /// The `(n, d)` pair is infeasible for a simple `d`-regular graph
    /// (`d >= n` or `n·d` odd).
    InfeasibleRegular {
        /// Requested number of vertices.
        n: usize,
        /// Requested degree.
        d: usize,
    },
    /// The pairing procedure failed to produce a simple graph within the
    /// retry budget.
    RetriesExhausted,
    /// A parameter was out of its valid domain.
    InvalidParameter(String),
}

impl fmt::Display for GraphBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InfeasibleRegular { n, d } => {
                write!(f, "no simple {d}-regular graph on {n} vertices exists")
            }
            Self::RetriesExhausted => write!(f, "graph generation retries exhausted"),
            Self::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for GraphBuildError {}

/// Samples `G(n, p)`: each of the `C(n,2)` possible edges appears
/// independently with probability `p`. No self-loops.
///
/// Uses geometric edge skipping over the lexicographic pair order and
/// decodes the increasing pair indices with a forward row cursor, so the
/// cost is `O(n + m)` rather than `O(n²)` for sparse graphs (`p = 1`
/// enumerates all `C(n,2)` pairs). The graph is a pure function of `n`,
/// `p` and the RNG stream: one uniform `f64` is drawn per sampled edge
/// plus one for the final skip past the last pair.
///
/// # Errors
///
/// Returns [`GraphBuildError::InvalidParameter`] if `n == 0` or `p` is not
/// in `[0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
) -> Result<AdjacencyGraph, GraphBuildError> {
    if n == 0 {
        return Err(GraphBuildError::InvalidParameter(
            "n must be positive".into(),
        ));
    }
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphBuildError::InvalidParameter(format!(
            "p must be in [0,1], got {p}"
        )));
    }
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    if p > 0.0 {
        if p >= 1.0 {
            for u in 0..n {
                for v in (u + 1)..n {
                    edges.push((u, v));
                }
            }
        } else {
            // Enumerate pairs lexicographically, skipping geometrically.
            let total_pairs = n as u64 * (n as u64 - 1) / 2;
            let mut pairs = PairCursor::new(n as u64);
            let mut idx: u64 = 0;
            let log_q = (1.0 - p).ln();
            loop {
                let u: f64 = rng.random();
                let skip = ((1.0 - u).ln() / log_q).floor() as u64;
                idx = idx.saturating_add(skip);
                if idx >= total_pairs {
                    break;
                }
                edges.push(pairs.decode(idx));
                idx += 1;
            }
        }
    }
    Ok(AdjacencyGraph::from_edges(n, &edges))
}

/// Decodes lexicographic pair indices into `(u, v)` pairs with `u < v`.
///
/// Row `u` holds the `n - 1 - u` pairs `(u, u+1), …, (u, n-1)`. The
/// indices handed to [`PairCursor::decode`] must not decrease, so the
/// cursor only ever walks forward over the rows: decoding a whole
/// increasing sequence costs `O(n)` row steps in total.
struct PairCursor {
    n: u64,
    /// The row the last decoded index fell in.
    u: u64,
    /// Index of the first pair of row `u`.
    row_start: u64,
}

impl PairCursor {
    fn new(n: u64) -> Self {
        Self {
            n,
            u: 0,
            row_start: 0,
        }
    }

    fn decode(&mut self, idx: u64) -> (Vertex, Vertex) {
        debug_assert!(idx >= self.row_start, "pair indices must not decrease");
        loop {
            let row = self.n - 1 - self.u;
            if idx < self.row_start + row {
                let v = self.u + 1 + (idx - self.row_start);
                return (self.u as Vertex, v as Vertex);
            }
            self.row_start += row;
            self.u += 1;
        }
    }
}

/// Samples a simple `d`-regular graph via the configuration model followed
/// by degree-preserving edge-swap repair of self-loops and multi-edges
/// (for `d ≥ 3` the result is an expander with high probability).
///
/// The swap repair makes the distribution *approximately* uniform over
/// simple `d`-regular graphs — the standard practical compromise, since
/// whole-pairing rejection has acceptance probability
/// `≈ exp(−(d−1)/2 − (d−1)²/4)`, which is already `≈ 10⁻⁴` at `d = 6`.
///
/// Expected cost is `O(n·d)` for fixed `d`: one stub shuffle, one forward
/// scan for defects, `O(d)` per multiplicity lookup, `O(1)` expected
/// repair attempts per defect while `d` is small against `n`, and one
/// sort of each `d`-entry row. The repaired `n × d` neighbor table becomes
/// the CSR neighbor array as it stands, so the peak memory is about
/// `8·n·d` bytes, the `u32` stub pairs plus that table: half the
/// `16·n·d` bytes of a `usize` stub array and edge list built for
/// [`CsrGraph::from_edges`](crate::CsrGraph::from_edges). At n = 250 000,
/// d = 8 that is 16 MB. The graph is a pure function of `(n, d)` and the
/// RNG stream — the same stream always yields the same graph, byte for
/// byte.
///
/// # Errors
///
/// Returns [`GraphBuildError::InfeasibleRegular`] if `d >= n` or `n·d` is
/// odd, [`GraphBuildError::InvalidParameter`] if `n·d` exceeds
/// `u32::MAX` (checked before anything is allocated), and
/// [`GraphBuildError::RetriesExhausted`] if the repair fails to converge
/// (vanishingly unlikely for `d < n/2`).
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<AdjacencyGraph, GraphBuildError> {
    if n == 0 || d == 0 || d >= n || !(n.is_multiple_of(2) || d.is_multiple_of(2)) {
        return Err(GraphBuildError::InfeasibleRegular { n, d });
    }
    if u32::try_from(n.saturating_mul(d)).is_err() {
        return Err(GraphBuildError::InvalidParameter(format!(
            "a {d}-regular graph on {n} vertices has more than u32::MAX stubs"
        )));
    }
    let mut pairs = stub_pairing(n, d, rng);
    let rows = repair_pairing(n, d, &mut pairs, rng)?;
    Ok(AdjacencyGraph::from_regular_rows(d, rows))
}

/// A uniformly random pairing of `n·d` stubs, `d` per vertex: the stub
/// sequence `0, …, 0, 1, …, n−1` (each vertex `d` times) shuffled by
/// Fisher–Yates, then cut into consecutive pairs, each stored as
/// `[min, max]`. The caller has checked that `n·d` fits `u32`.
fn stub_pairing<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Vec<[u32; 2]> {
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    for i in (1..stubs.len()).rev() {
        let j = rng.random_range(0..=i);
        stubs.swap(i, j);
    }
    stubs
        .chunks_exact(2)
        .map(|p| [p[0].min(p[1]), p[0].max(p[1])])
        .collect()
}

/// Repairs a stub pairing in which every vertex has exactly `d` stubs into
/// a simple graph: repeatedly pick the first defective pair (self-loop or
/// duplicate) and a uniformly random partner pair, and swap endpoints;
/// accept the swap only if both replacement edges are new simple edges.
/// Returns the repaired neighbor table: `n` rows of `d` entries, row `v`
/// listing `v`'s neighbors in no particular order.
///
/// An accepted swap removes two edges and inserts two simple edges that
/// were absent, so no good edge ever turns bad: the set of defective
/// indices only shrinks. The scan for the next defect therefore resumes
/// just past the one it fixed — a partner before that point is good
/// before the swap and good after it.
fn repair_pairing<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    pairs: &mut [[u32; 2]],
    rng: &mut R,
) -> Result<Vec<u32>, GraphBuildError> {
    let mut rows = StubRows::new(n, d, pairs);
    let mut attempts: u64 = 0;
    let max_attempts: u64 = 10_000 * pairs.len() as u64 + 1_000_000;
    let mut cursor = 0;
    while let Some(offset) = pairs[cursor..]
        .iter()
        .position(|&[u, v]| u == v || rows.multiplicity(u, v) > 1)
    {
        let bad_idx = cursor + offset;
        loop {
            attempts += 1;
            if attempts > max_attempts {
                return Err(GraphBuildError::RetriesExhausted);
            }
            let other_idx = rng.random_range(0..pairs.len());
            if other_idx == bad_idx {
                continue;
            }
            let [a, b] = pairs[bad_idx];
            let [c, e] = pairs[other_idx];
            // Two possible rewirings; pick one at random.
            let (p, q) = if rng.random::<bool>() { (c, e) } else { (e, c) };
            let new1 = [a.min(p), a.max(p)];
            let new2 = [b.min(q), b.max(q)];
            if a == p || b == q || new1 == new2 {
                continue;
            }
            if rows.multiplicity(a, p) > 0 || rows.multiplicity(b, q) > 0 {
                continue;
            }
            // Apply the swap: stub a→b becomes a→p, b→a becomes b→q, and
            // the partner's stubs p→q and q→p become p→a and q→b.
            rows.rewire(a, b, p);
            rows.rewire(b, a, q);
            rows.rewire(p, q, a);
            rows.rewire(q, p, b);
            pairs[bad_idx] = new1;
            pairs[other_idx] = new2;
            break;
        }
        cursor = bad_idx + 1;
    }
    Ok(rows.slots)
}

/// The neighbor multiset of a pairing in which every vertex has exactly
/// `d` stubs, as a flat `n × d` array: row `v` lists the far endpoint of
/// each of `v`'s stubs (a self-loop lists `v` twice in its own row).
/// Edge multiplicity is then a scan of one row, `O(d)`. Ids are stored
/// as `u32`, the width [`AdjacencyGraph`] stores them in.
struct StubRows {
    d: usize,
    slots: Vec<u32>,
}

impl StubRows {
    fn new(n: usize, d: usize, pairs: &[[u32; 2]]) -> Self {
        let mut slots = vec![0u32; n * d];
        let mut filled = vec![0u32; n];
        for &[u, v] in pairs {
            for (x, y) in [(u, v), (v, u)] {
                let x = x as usize;
                slots[x * d + filled[x] as usize] = y;
                filled[x] += 1;
            }
        }
        Self { d, slots }
    }

    fn row(&self, v: u32) -> &[u32] {
        let start = v as usize * self.d;
        &self.slots[start..start + self.d]
    }

    /// Number of `(u, v)` edges, for `u != v`.
    fn multiplicity(&self, u: u32, v: u32) -> usize {
        self.row(u).iter().filter(|&&w| w == v).count()
    }

    /// Re-points one of `v`'s stubs from `old` to `new`.
    fn rewire(&mut self, v: u32, old: u32, new: u32) {
        let start = v as usize * self.d;
        let slot = self.slots[start..start + self.d]
            .iter_mut()
            .find(|w| **w == old)
            .expect("rewired stub must exist");
        *slot = new;
    }
}

/// Samples a two-community stochastic block model: vertices `0..n/2` form
/// community A and the rest community B; intra-community edges appear with
/// probability `p_in`, inter-community edges with probability `p_out`.
///
/// # Errors
///
/// Returns [`GraphBuildError::InvalidParameter`] if `n < 2` or either
/// probability is outside `[0, 1]`.
pub fn stochastic_block_model<R: Rng + ?Sized>(
    n: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut R,
) -> Result<AdjacencyGraph, GraphBuildError> {
    if n < 2 {
        return Err(GraphBuildError::InvalidParameter(
            "n must be at least 2".into(),
        ));
    }
    for p in [p_in, p_out] {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(GraphBuildError::InvalidParameter(format!(
                "probability must be in [0,1], got {p}"
            )));
        }
    }
    let half = n / 2;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let same = (u < half) == (v < half);
            let p = if same { p_in } else { p_out };
            if rng.random::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    Ok(AdjacencyGraph::from_edges(n, &edges))
}

/// Repairs isolated vertices of a generated graph deterministically: for
/// every degree-0 vertex `v`, the ring edge `{v, (v + 1) mod n}` is
/// added (so both endpoints end with positive degree even when runs of
/// consecutive vertices are isolated). A graph with no isolated vertices
/// is returned unchanged — byte-identical, no rebuild — so applying the
/// pass to families that never isolate (ER + backbone, random-regular)
/// does not perturb their sample paths.
///
/// The repair is a pure function of the input graph, which keeps
/// rewired temporal epochs a pure function of their epoch seed: the
/// schedule-invariance guarantees of the engines carry over to repaired
/// families.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 vertices (there is no distinct
/// ring neighbor to attach).
#[must_use]
pub fn repair_isolated(graph: AdjacencyGraph) -> AdjacencyGraph {
    if graph.has_no_isolated_vertices() {
        return graph;
    }
    let n = graph.n();
    assert!(n >= 2, "repair_isolated: need at least 2 vertices");
    let mut edges: Vec<(Vertex, Vertex)> = Vec::with_capacity(graph.edge_count() + 4);
    for v in 0..n {
        for w in graph.neighbors(v) {
            if v <= w {
                edges.push((v, w));
            }
        }
    }
    for v in 0..n {
        if graph.degree(v) == 0 {
            let w = (v + 1) % n;
            edges.push((v.min(w), v.max(w)));
        }
    }
    AdjacencyGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use od_sampling::rng_for;

    #[test]
    fn erdos_renyi_edge_density() {
        let mut rng = rng_for(70, 0);
        let n = 200;
        let p = 0.1;
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            (got - expected).abs() < 6.0 * sd,
            "edges {got} vs {expected}"
        );
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = rng_for(71, 0);
        let empty = erdos_renyi(10, 0.0, &mut rng).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng).unwrap();
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn erdos_renyi_rejects_bad_p() {
        let mut rng = rng_for(72, 0);
        assert!(erdos_renyi(10, 1.5, &mut rng).is_err());
        assert!(erdos_renyi(0, 0.5, &mut rng).is_err());
    }

    #[test]
    fn pair_index_enumeration_is_lexicographic() {
        let n = 5u64;
        let mut cursor = PairCursor::new(n);
        let mut idx = 0;
        for u in 0..5usize {
            for v in (u + 1)..5 {
                assert_eq!(cursor.decode(idx), (u, v));
                idx += 1;
            }
        }
    }

    #[test]
    fn pair_cursor_skipping_rows_matches_a_fresh_decode() {
        // Increasing indices that jump over whole rows (and land on row
        // ends) decode exactly as a cursor walking from row 0 each time.
        let n = 40u64;
        let mut cursor = PairCursor::new(n);
        for idx in [0, 1, 38, 39, 40, 76, 77, 300, 301, 650, 779] {
            assert_eq!(
                cursor.decode(idx),
                PairCursor::new(n).decode(idx),
                "idx {idx}"
            );
        }
        assert_eq!(PairCursor::new(n).decode(779), (38, 39), "last pair");
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = rng_for(73, 0);
        let g = random_regular(50, 4, &mut rng).unwrap();
        for v in 0..50 {
            assert_eq!(g.degree(v), 4, "vertex {v}");
        }
        assert!(
            g.is_connected(),
            "4-regular on 50 vertices should be connected"
        );
    }

    /// Asserts `g` is simple and `d`-regular. Rows of a CSR graph are
    /// deduplicated, so a surviving multi-edge would show as a short row.
    fn assert_simple_regular(g: &AdjacencyGraph, d: usize, context: &str) {
        for v in 0..g.n() {
            let row = g.neighbor_slice(v);
            assert_eq!(row.len(), d, "{context}: degree of {v}");
            assert!(row.windows(2).all(|w| w[0] < w[1]), "{context}: row {v}");
            assert!(!g.has_self_loop(v), "{context}: self-loop at {v}");
        }
    }

    #[test]
    fn random_regular_near_complete_is_simple() {
        // Dense pairings carry many defects, so the repair (and partners
        // on both sides of the scan cursor) runs many times per graph.
        for (n, d) in [(10, 8), (12, 9), (11, 8), (10, 7), (9, 6)] {
            for seed in 0..16 {
                let g = random_regular(n, d, &mut rng_for(seed, 0)).unwrap();
                assert_simple_regular(&g, d, &format!("n={n} d={d} seed={seed}"));
            }
        }
    }

    #[test]
    fn repair_fixes_defects_behind_and_ahead_of_the_cursor() {
        // Defects only at the tail force every accepted partner to precede
        // the scan cursor: a lone trailing self-loop, and a trailing double
        // edge (whose twin is never an acceptable partner). The third list
        // mixes a leading self-loop with a trailing double edge.
        let pairings = [
            (5, vec![[0, 1], [1, 2], [2, 3], [0, 3], [4, 4]]),
            (6, vec![[0, 1], [1, 2], [2, 3], [0, 3], [4, 5], [4, 5]]),
            (6, vec![[0, 0], [1, 2], [2, 3], [1, 3], [4, 5], [4, 5]]),
        ];
        for (n, pairing) in pairings {
            for seed in 0..32 {
                let mut pairs = pairing.clone();
                let rows = repair_pairing(n, 2, &mut pairs, &mut rng_for(seed, 0)).unwrap();
                let g = AdjacencyGraph::from_regular_rows(2, rows);
                assert_simple_regular(&g, 2, &format!("pairing {pairing:?} seed={seed}"));
            }
        }
    }

    #[test]
    fn regular_rows_build_the_csr_of_the_repaired_pairs() {
        // The repair-dense grid of `random_regular_near_complete_is_simple`:
        // the rows the repair hands back, sorted in place, are the CSR that
        // `from_edges` builds from the repaired pairs, field for field.
        for (n, d) in [(10, 8), (12, 9), (11, 8), (10, 7), (9, 6)] {
            for seed in 0..16 {
                let mut rng = rng_for(seed, 0);
                let mut pairs = stub_pairing(n, d, &mut rng);
                let rows = repair_pairing(n, d, &mut pairs, &mut rng).unwrap();
                let edges: Vec<(Vertex, Vertex)> = pairs
                    .iter()
                    .map(|&[u, v]| (u as Vertex, v as Vertex))
                    .collect();
                assert_eq!(
                    AdjacencyGraph::from_regular_rows(d, rows),
                    AdjacencyGraph::from_edges(n, &edges),
                    "n={n} d={d} seed={seed}"
                );
            }
        }
    }

    /// Counts the 64-bit words drawn from the wrapped generator.
    struct CountingRng {
        inner: rand::rngs::StdRng,
        words: u64,
    }

    impl rand::RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            self.words += 1;
            self.inner.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.inner.fill_bytes(dest);
        }
    }

    #[test]
    fn repair_budget_is_ten_thousand_per_edge_plus_a_million() {
        // A lone self-loop has no partner edge, so every attempt draws one
        // partner index (a single word for a one-element range) and fails:
        // the repair gives up after exactly 10_000·m + 10⁶ attempts.
        let mut rng = CountingRng {
            inner: rng_for(78, 0),
            words: 0,
        };
        let mut pairs = vec![[0, 0]];
        assert_eq!(
            repair_pairing(1, 2, &mut pairs, &mut rng),
            Err(GraphBuildError::RetriesExhausted)
        );
        assert_eq!(rng.words, 10_000 + 1_000_000);
    }

    #[test]
    fn random_regular_infeasible_cases() {
        let mut rng = rng_for(74, 0);
        assert!(matches!(
            random_regular(5, 3, &mut rng),
            Err(GraphBuildError::InfeasibleRegular { .. })
        ));
        assert!(random_regular(10, 10, &mut rng).is_err());
        assert!(random_regular(10, 0, &mut rng).is_err());
    }

    #[test]
    fn random_regular_rejects_more_stubs_than_u32_before_allocating() {
        // 10⁵ · 5·10⁴ = 5·10⁹ stubs: feasible, but past u32 ids, and the
        // stub array alone would take 20 GB. The check draws nothing.
        let mut rng = CountingRng {
            inner: rng_for(79, 0),
            words: 0,
        };
        assert!(matches!(
            random_regular(100_000, 50_000, &mut rng),
            Err(GraphBuildError::InvalidParameter(_))
        ));
        assert!(matches!(
            random_regular(usize::MAX / 2, 4, &mut rng),
            Err(GraphBuildError::InvalidParameter(_))
        ));
        assert_eq!(rng.words, 0);
    }

    #[test]
    fn sbm_respects_community_densities() {
        let mut rng = rng_for(75, 0);
        let n = 100;
        let g = stochastic_block_model(n, 0.5, 0.01, &mut rng).unwrap();
        let half = n / 2;
        let mut intra = 0usize;
        let mut inter = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                if g.has_edge(u, v) {
                    if (u < half) == (v < half) {
                        intra += 1;
                    } else {
                        inter += 1;
                    }
                }
            }
        }
        // 2·C(50,2) = 2450 intra pairs, 2500 inter pairs.
        assert!(intra > 1000, "intra {intra}");
        assert!(inter < 100, "inter {inter}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphBuildError::InfeasibleRegular { n: 5, d: 3 };
        assert!(e.to_string().contains("3-regular"));
    }

    #[test]
    fn repair_isolated_attaches_every_degree_zero_vertex() {
        // Vertices 2, 3, 4 isolated (a consecutive run) plus isolated 0.
        let g = AdjacencyGraph::from_edges(6, &[(1, 5)]);
        let repaired = repair_isolated(g);
        assert!(repaired.has_no_isolated_vertices());
        // Ring edges {0,1}, {2,3}, {3,4}, {4,5} were added.
        assert!(repaired.has_edge(0, 1));
        assert!(repaired.has_edge(2, 3));
        assert!(repaired.has_edge(3, 4));
        assert!(repaired.has_edge(4, 5));
        assert!(repaired.has_edge(1, 5), "original edges are kept");
    }

    #[test]
    fn repair_isolated_is_a_noop_on_clean_graphs() {
        let mut rng = rng_for(76, 0);
        let g = random_regular(30, 4, &mut rng).unwrap();
        let repaired = repair_isolated(g.clone());
        assert_eq!(repaired, g, "clean graphs must pass through untouched");
    }

    #[test]
    fn repair_isolated_handles_the_last_vertex_wrapping() {
        let g = AdjacencyGraph::from_edges(4, &[(1, 2)]);
        let repaired = repair_isolated(g);
        assert!(repaired.has_no_isolated_vertices());
        assert!(repaired.has_edge(0, 1)); // vertex 0 → ring forward
        assert!(repaired.has_edge(0, 3)); // vertex 3 wraps to 0
    }

    #[test]
    fn repair_isolated_is_deterministic() {
        let mut rng = rng_for(77, 0);
        let sparse = erdos_renyi(40, 0.02, &mut rng).unwrap();
        let a = repair_isolated(sparse.clone());
        let b = repair_isolated(sparse);
        assert_eq!(a, b);
        assert!(a.has_no_isolated_vertices());
    }
}
