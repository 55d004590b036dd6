//! Differential proptests of weighted neighbor sampling, mirroring
//! `crates/sampling/tests/batched_reference.rs`: the production path
//! (batched point draws + the three-tier resolution, as the weighted
//! engine composes it through [`WeightedCsrGraph`]) and the
//! binary-search prefix oracle must both be bit-identical to the naive
//! scalar reference (lane-at-a-time point draws + linear weight scan
//! over `resolve_weight_point_scalar`) over random weight vectors —
//! including the degenerate all-equal, single-heavy-edge, and power-law
//! rows, row totals near `u32::MAX`, and degree-1 rows.

use od_graphs::{CsrGraph, WeightedCsrGraph};
use od_sampling::seeds::round_key;
use od_sampling::weighted::{
    fill_weighted_alias, fill_weighted_batched, fill_weighted_scalar, resolve_weight_point_scalar,
    WeightAliasRow,
};
use od_sampling::{fill_indices_batched, inclusive_prefix_sums};
use proptest::prelude::*;

/// A hub-and-spokes graph whose hub row carries the given weights in
/// canonical CSR order: hub = vertex 0, spokes 1..=d (sorted, so spoke
/// `j` is row position `j − 1`). Spoke-to-spoke cycle edges (weight 1)
/// keep zero-weight spokes validly sampleable.
fn hub_graph(weights: &[u32]) -> WeightedCsrGraph {
    let d = weights.len();
    assert!(d >= 1);
    let mut edges: Vec<(usize, usize)> = (1..=d).map(|v| (0, v)).collect();
    for v in 1..=d {
        edges.push((v, v % d + 1));
    }
    let csr = CsrGraph::from_edges(d + 1, &edges);
    WeightedCsrGraph::from_csr_with(csr, |u, v| {
        if u.min(v) == 0 {
            weights[u.max(v) - 1]
        } else {
            1
        }
    })
    .expect("hub rows are positive by construction")
}

fn assert_production_matches_scalar(rk: u64, vertex: u64, weights: &[u32], count: usize) {
    let cum = inclusive_prefix_sums(weights).expect("positive row");
    let alias_row = WeightAliasRow::build(&cum);
    let mut alias = vec![0u32; count];
    let mut search = vec![0u32; count];
    let mut scalar = vec![0u32; count];
    fill_weighted_alias(rk, vertex, &cum, &alias_row, &mut alias);
    fill_weighted_batched(rk, vertex, &cum, &mut search);
    fill_weighted_scalar(rk, vertex, weights, &mut scalar);
    assert_eq!(
        alias, scalar,
        "alias: rk {rk:#x}, vertex {vertex}, weights {weights:?}, count {count}"
    );
    assert_eq!(
        search, scalar,
        "search: rk {rk:#x}, vertex {vertex}, weights {weights:?}, count {count}"
    );
    for &j in &alias {
        assert!(
            (j as usize) < weights.len() && weights[j as usize] > 0,
            "sample {j} outside the weighted support of {weights:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn production_matches_scalar_over_random_weight_rows(
        trial_seed in 0u64..1_000_000,
        round in 0u64..1_000,
        vertex in 0u64..1_000_000,
        weights in proptest::collection::vec(0u32..10_000, 1..48)
            .prop_filter("positive row total", |w| w.iter().any(|&x| x > 0)),
        count in 1usize..16,
    ) {
        assert_production_matches_scalar(
            round_key(trial_seed, round), vertex, &weights, count,
        );
    }

    #[test]
    fn production_matches_scalar_on_all_equal_rows(
        rk in 0u64..u64::MAX,
        vertex in 0u64..100_000,
        degree in 1usize..64,
        weight in 1u32..1_000,
        count in 1usize..10,
    ) {
        // Degenerate all-equal weights: resolution becomes a fixed-stride
        // division, the classic off-by-one trap for prefix searches.
        let weights = vec![weight; degree];
        assert_production_matches_scalar(rk, vertex, &weights, count);
    }

    #[test]
    fn production_matches_scalar_on_single_heavy_rows(
        rk in 0u64..u64::MAX,
        vertex in 0u64..100_000,
        degree in 1usize..64,
        heavy_at in 0usize..64,
        heavy in 1u32..=u32::MAX / 2,
        count in 1usize..10,
    ) {
        // One huge weight among zeros: every point must land on it.
        let mut weights = vec![0u32; degree];
        let hot = heavy_at % degree;
        weights[hot] = heavy;
        assert_production_matches_scalar(rk, vertex, &weights, count);
        let cum = inclusive_prefix_sums(&weights).unwrap();
        let mut out = vec![0u32; count];
        fill_weighted_batched(rk, vertex, &cum, &mut out);
        prop_assert!(out.iter().all(|&j| j as usize == hot));
    }

    #[test]
    fn unit_weights_reproduce_the_unweighted_stream(
        rk in 0u64..u64::MAX,
        vertex in 0u64..100_000,
        degree in 1usize..2_000,
        count in 1usize..10,
    ) {
        // W = d with all-one weights: the weighted production path must
        // be bit-identical to the plain unweighted batched draw — the
        // anchor tying the weighted order to the documented one.
        let cum = inclusive_prefix_sums(&vec![1u32; degree]).unwrap();
        let mut weighted = vec![0u32; count];
        let mut uniform = vec![0u32; count];
        fill_weighted_batched(rk, vertex, &cum, &mut weighted);
        fill_indices_batched(rk, vertex, degree as u64, &mut uniform);
        prop_assert_eq!(weighted, uniform);
    }

    #[test]
    fn production_matches_scalar_on_power_law_rows(
        rk in 0u64..u64::MAX,
        vertex in 0u64..100_000,
        degree in 1usize..64,
        scale in 1u32..100_000,
        exponent in 1u32..4,
        count in 1usize..10,
    ) {
        // Heavy-tailed rows: w_j = ⌈scale / (j + 1)^exponent⌉ — the
        // realistic shape of degree-correlated schemes, mixing one huge
        // head with a long near-flat tail of tiny intervals.
        let weights: Vec<u32> = (0..degree)
            .map(|j| {
                let denom = (j as u64 + 1).pow(exponent);
                u64::from(scale).div_ceil(denom) as u32
            })
            .collect();
        assert_production_matches_scalar(rk, vertex, &weights, count);
    }

    #[test]
    fn production_matches_scalar_near_u32_max_totals(
        rk in 0u64..u64::MAX,
        vertex in 0u64..100_000,
        tail in proptest::collection::vec(0u32..1_000, 0..8),
        slack in 0u32..1_000,
        count in 1usize..10,
    ) {
        // Rows whose total lands within `slack + tail` of u32::MAX: the
        // alias index runs at its maximal bucket shift and the packed
        // 21-bit fast path is far behind — every draw takes the wide
        // 64-bit lane.
        let tail_sum: u64 = tail.iter().map(|&w| u64::from(w)).sum();
        let head = (u64::from(u32::MAX) - u64::from(slack) - tail_sum) as u32;
        let mut weights = vec![head];
        weights.extend(&tail);
        assert_production_matches_scalar(rk, vertex, &weights, count);
    }

    #[test]
    fn production_matches_scalar_on_degree_one_rows(
        rk in 0u64..u64::MAX,
        vertex in 0u64..100_000,
        weight in 1u32..=u32::MAX,
        count in 1usize..10,
    ) {
        // Degree-1 rows (periphery leaves): every point resolves to the
        // only edge, whatever the row total.
        assert_production_matches_scalar(rk, vertex, &[weight], count);
        let cum = inclusive_prefix_sums(&[weight]).unwrap();
        let alias_row = WeightAliasRow::build(&cum);
        let mut out = vec![0u32; count];
        fill_weighted_alias(rk, vertex, &cum, &alias_row, &mut out);
        prop_assert!(out.iter().all(|&j| j == 0));
    }

    #[test]
    fn every_graph_resolver_matches_the_scalar_map(
        weights in proptest::collection::vec(0u32..800, 1..=80)
            .prop_filter("positive row total", |w| w.iter().any(|&x| x > 0)),
        shape in 0u32..3,
        heavy_at in 0usize..80,
        heavy in 10_000u32..1_000_000,
        points in proptest::collection::vec(0u32..u32::MAX, 1..12),
        batch in 1usize..5,
    ) {
        // The WeightedCsrGraph resolution must realise the same normative
        // map as the scalar reference on the hub row, point by point:
        // random points reduced into the row's range plus the first and
        // last point of every interval, resolved `batch` at a time (3 is
        // the fused count). Rows of 1 to 80 edges reach every tier: the
        // in-row count (<= 8 edges), the guided window (<= 32 edges;
        // flat rows always take it), the bucket index (longer rows), and
        // the guided -> bucket fallback (a single heavy edge skews a
        // mid-size row past the window).
        let mut weights = weights;
        match shape {
            1 => {
                let d = weights.len();
                weights[heavy_at % d] = heavy;
            }
            2 => {
                let flat = weights[0].max(1);
                weights.fill(flat);
            }
            _ => {}
        }
        let g = hub_graph(&weights);
        let total = g.row_weight(0);
        let mut resolved: Vec<u32> =
            points.iter().map(|&p| (u64::from(p) % total) as u32).collect();
        let mut lower = 0u32;
        for &w in weights.iter().filter(|&&w| w > 0) {
            resolved.extend([lower, lower + w - 1]);
            lower += w;
        }
        let expected: Vec<u32> = resolved
            .iter()
            .map(|&p| resolve_weight_point_scalar(&weights, p) as u32)
            .collect();
        for chunk in resolved.chunks_mut(batch) {
            g.resolve_points(0, chunk);
        }
        prop_assert_eq!(resolved, expected);
    }

    #[test]
    fn graph_level_resolution_matches_the_row_functions(
        rk in 0u64..u64::MAX,
        weights in proptest::collection::vec(0u32..1_000, 1..32)
            .prop_filter("positive row total", |w| w.iter().any(|&x| x > 0)),
        count in 1usize..10,
    ) {
        // The WeightedCsrGraph composition (points drawn against
        // row_weight, resolved via resolve_points) must match the free
        // function path on the hub row.
        let g = hub_graph(&weights);
        prop_assert_eq!(g.row_weight(0), weights.iter().map(|&w| u64::from(w)).sum::<u64>());
        let mut via_graph = vec![0u32; count];
        fill_indices_batched(rk, 0, g.row_weight(0), &mut via_graph);
        g.resolve_points(0, &mut via_graph);
        let cum = inclusive_prefix_sums(&weights).unwrap();
        let mut via_row = vec![0u32; count];
        fill_weighted_batched(rk, 0, &cum, &mut via_row);
        prop_assert_eq!(via_graph, via_row);
    }
}
