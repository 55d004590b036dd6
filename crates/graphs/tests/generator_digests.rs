//! Pins the exact output of the random generators.
//!
//! Every graph a job runs on is a pure function of its RNG stream, and
//! spec content hashes, checkpoints and recorded results all assume that
//! function never changes. Each case below hashes the CSR arrays
//! (`raw_parts()`) of one generated graph with 64-bit FNV-1a and compares
//! against a digest recorded from the reference implementation, so any
//! change to the sampled graphs — including a change in how much
//! randomness a generator consumes — fails here.
//!
//! The `random_regular` grid includes repair-dense cases (`d` close to
//! `n`), where the swap repair runs many times per graph.

use od_graphs::{erdos_renyi, random_regular, CsrGraph};
use od_sampling::rng_for;

/// The stream id `od-runtime` draws job graphs from (`"od-graph"`).
const GRAPH_STREAM: u64 = 0x6f64_2d67_7261_7068;

/// `(n, d, seed, digest)`, generated from `rng_for(seed, 0)`.
const RANDOM_REGULAR: &[(usize, usize, u64, u64)] = &[
    (10, 8, 0, 0x7fbb_8ba3_8f83_c886),
    (10, 8, 1, 0x20ca_2c20_8ce4_4e46),
    (10, 8, 2, 0xb99f_f448_9c80_4d46),
    (10, 8, 3, 0x664f_ef4b_b05a_bfa6),
    (12, 9, 0, 0x22d3_8c0e_448e_d358),
    (12, 9, 1, 0xad2b_3a05_834e_feb8),
    (12, 9, 2, 0x021e_a9c2_b168_abe8),
    (12, 9, 3, 0x947e_3dc3_b3a6_4488),
    (50, 4, 0, 0xc166_9fb9_88fb_9232),
    (50, 4, 1, 0x0c21_86dd_f627_9732),
    (50, 4, 2, 0xd1d4_331e_79b4_5c52),
    (50, 4, 3, 0x6f2a_3974_0b29_95f2),
    (16, 3, 0, 0x2566_7250_074e_c034),
    (16, 3, 1, 0xb653_d2bb_900d_9844),
    (16, 3, 2, 0x7fa5_ed0b_d285_3954),
    (16, 3, 3, 0x919c_1485_d9b6_6cd4),
    (100, 3, 0, 0x834b_d989_5d34_5d9c),
    (100, 3, 1, 0xfda1_6460_7efe_ad9c),
    (100, 3, 2, 0x6995_9b22_6ca6_db8c),
    (100, 3, 3, 0x1385_6184_9f98_237c),
    (200, 8, 0, 0xceec_3f1f_5139_7d7c),
    (200, 8, 1, 0x67fb_6a6d_45ff_9edc),
    (200, 8, 2, 0xd6d9_3215_03a1_a40c),
    (200, 8, 3, 0x42f9_0868_bca5_178c),
    (1_000, 6, 0, 0xe58c_0a6b_c58f_e409),
    (1_000, 6, 1, 0xaf08_3338_5224_7f51),
    (1_000, 6, 2, 0x8e0e_99af_b14c_7865),
    (1_000, 6, 3, 0x949d_3232_6506_5889),
    (4_000, 16, 0, 0xda9b_e5e1_0423_f691),
    (4_000, 16, 1, 0xbc33_8c79_b050_c275),
    (4_000, 16, 2, 0xd682_337c_714e_1f49),
    (4_000, 16, 3, 0xef82_b5e2_c65e_821d),
];

/// `(n, p, seed, digest)`, generated from `rng_for(seed, 0)`.
const ERDOS_RENYI: &[(usize, f64, u64, u64)] = &[
    (7, 0.5, 0, 0x435b_8c47_578f_c42f),
    (7, 0.5, 1, 0xb239_4fc9_b8e3_c8cb),
    (7, 0.5, 2, 0xee01_63e8_dfdf_29a3),
    (30, 0.3, 0, 0xe47b_5bed_fc5a_731e),
    (30, 0.3, 1, 0x69c4_fb2a_3eef_8db8),
    (30, 0.3, 2, 0x432e_0f06_2e9f_b837),
    (200, 0.05, 0, 0x4d7f_4601_b5c9_60b7),
    (200, 0.05, 1, 0xcdca_54b0_0c45_5627),
    (200, 0.05, 2, 0x1484_8439_2895_eb72),
    (1_000, 0.01, 0, 0x24e7_01d0_cea6_14a3),
    (1_000, 0.01, 1, 0xf2b5_39e9_ec7b_28a2),
    (1_000, 0.01, 2, 0x69a7_3615_e269_08ab),
    (5_000, 0.0016, 0, 0x9952_1ce6_d05b_ba3f),
    (5_000, 0.0016, 1, 0x37a0_3089_708c_858a),
    (5_000, 0.0016, 2, 0x04e2_14a3_31cd_0d21),
];

/// 64-bit FNV-1a over the array lengths and every CSR word, little-endian.
fn digest(g: &CsrGraph) -> u64 {
    let (offsets, neighbors) = g.raw_parts();
    let lengths = [offsets.len() as u32, neighbors.len() as u32];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in lengths.iter().chain(offsets).chain(neighbors) {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn random_regular_outputs_are_pinned() {
    for &(n, d, seed, expected) in RANDOM_REGULAR {
        let g = random_regular(n, d, &mut rng_for(seed, 0)).unwrap();
        assert_eq!(
            digest(&g),
            expected,
            "random_regular(n = {n}, d = {d}, seed = {seed}) changed"
        );
    }
}

#[test]
fn random_regular_on_the_job_graph_stream_is_pinned() {
    let g = random_regular(20_000, 8, &mut rng_for(20_250_304, GRAPH_STREAM)).unwrap();
    assert_eq!(digest(&g), 0xe48e_fea3_c195_5592);
}

/// The graph the `graph-sparse` benchmark workload runs on.
#[test]
fn random_regular_at_benchmark_scale_is_pinned() {
    let g = random_regular(250_000, 8, &mut rng_for(20_250_304, GRAPH_STREAM)).unwrap();
    assert_eq!(digest(&g), 0x7ba5_8890_ed12_9c5f);
}

#[test]
fn erdos_renyi_outputs_are_pinned() {
    for &(n, p, seed, expected) in ERDOS_RENYI {
        let g = erdos_renyi(n, p, &mut rng_for(seed, 0)).unwrap();
        assert_eq!(
            digest(&g),
            expected,
            "erdos_renyi(n = {n}, p = {p}, seed = {seed}) changed"
        );
    }
}
