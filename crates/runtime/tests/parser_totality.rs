//! Totality of the spec front door: neither `json::parse` nor
//! `JobSpec::from_json_text(..)` followed by `validate` panics, whatever
//! the input. Inputs are arbitrary bytes, JSON-shaped token soup, every
//! example job (plus one explicit-counts spec, a shape no example uses)
//! with one byte mutated, and the same corpus with its integer literals
//! replaced by boundary values. The TOML subset (`toml_compat::toml_to_json`)
//! gets the same treatment over TOML-shaped inputs, and rendering any
//! `Json` value — compact or pretty — parses back to the same value.
//! Numeric extremes get a typed error: `±1e999` in every probability-like
//! field, and registry parameters at `u64::MAX` or non-finite floats;
//! `n`, `trials` and `max_rounds` at `u64::MAX` either validate into a
//! spec whose shard arithmetic is total or fail typed; a random-regular
//! degree whose `n·d` stub count passes `u32::MAX` fails typed, and so
//! does a stochastic block model with more vertex pairs than its
//! generator may flip a coin for. A spec that validates also runs: over
//! every registered protocol, start shape, mode, stop rule and adversary
//! choice, `run_job_simple` returns a report or a typed error. Run in a
//! debug build, where arithmetic overflow panics too.

use od_core::registry::{
    build_graph_protocol, build_protocol, registered_protocols, required_opinion_slots,
    ProtocolParams,
};
mod common;

use common::{
    er_job, examples, graph_job, regular_job, sbm_job, spec_with, COUNTS_SPEC, PROBABILITY_FIELDS,
};
use od_runtime::json::Json;
use od_runtime::{json, run_job_simple, toml_compat, JobSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What every integer literal of the corpus may become: the smallest
/// values, the first value past `u32`, and `u64::MAX` as a decimal
/// string (the spec's encoding of integers past `i64`).
const BOUNDARIES: [&str; 4] = ["0", "1", "4294967296", "\"18446744073709551615\""];

/// Fragments for JSON-shaped inputs: random bytes rarely get past the
/// first token, these reach the parser's and the spec's inner paths.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\u",
    "0",
    "-1",
    "1e309",
    "18446744073709551616",
    "true",
    "null",
    "\"name\"",
    "\"protocol\"",
    "\"initial\"",
    "\"kind\"",
    "\"counts\"",
    "\"graph\"",
    "\"weights\"",
    "\"trials\"",
    "\"balanced\"",
    " ",
];

/// Fragments for TOML-shaped inputs.
const TOML_TOKENS: [&str; 22] = [
    "[",
    "]",
    "[[",
    ".",
    "=",
    ",",
    "\"",
    "\\",
    "#",
    "\n",
    " ",
    "name",
    "protocol",
    "params",
    "k",
    "1_000",
    "-0",
    "2.5e-3",
    "1e309",
    "9223372036854775808",
    "true",
    "\"x\"",
];

/// [`COUNTS_SPEC`] followed by every `examples/*.json` job, sorted by
/// name.
fn corpus() -> Vec<String> {
    let mut texts = vec![COUNTS_SPEC.to_string()];
    texts.extend(examples("json").into_iter().map(|(_, text)| text));
    texts
}

/// Replaces the `i`-th integer literal outside string literals with
/// `BOUNDARIES[pick(i)]`. Digits that belong to a fraction, an exponent
/// or a negative number are left alone.
fn replace_integers(text: &str, pick: impl Fn(usize) -> usize) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let (mut i, mut literal) = (0, 0);
    let mut in_string = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if b == b'\\' && i + 1 < bytes.len() {
                out.push_str(&text[i..i + 2]);
                i += 2;
                continue;
            }
            in_string = b != b'"';
        } else if b == b'"' {
            in_string = true;
        } else if b.is_ascii_digit() {
            let end = i + bytes[i..].iter().take_while(|c| c.is_ascii_digit()).count();
            let after = bytes.get(end).copied().unwrap_or(b' ');
            let before = if i == 0 { b' ' } else { bytes[i - 1] };
            if before != b'-' && !matches!(after, b'.' | b'e' | b'E') {
                out.push_str(BOUNDARIES[pick(literal) % BOUNDARIES.len()]);
                literal += 1;
            } else {
                out.push_str(&text[i..end]);
            }
            i = end;
            continue;
        }
        let width = text[i..].chars().next().map_or(1, char::len_utf8);
        out.push_str(&text[i..i + width]);
        i += width;
    }
    out
}

/// Fails the case if parsing or validating `text` panics.
fn assert_total(text: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = json::parse(text);
        let _ = JobSpec::from_json_text(text).and_then(|spec| spec.validate());
    }));
    prop_assert!(outcome.is_ok(), "panicked on input {text:?}");
    Ok(())
}

/// Fails the case if converting `text` from the TOML subset panics.
fn assert_toml_total(text: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = toml_compat::toml_to_json(text);
    }));
    prop_assert!(outcome.is_ok(), "panicked on TOML input {text:?}");
    Ok(())
}

/// Characters a rendered string must escape or carry through: quotes,
/// backslashes, control characters, and multi-byte UTF-8.
const CHARS: [char; 12] = [
    'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '\u{2028}', '🦀',
];

/// Decodes a `Json` value from `words` (consumed front to back; an
/// exhausted supply yields `null`), nesting at most `depth` levels.
fn decode_json(words: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let Some(word) = words.next() else {
        return Json::Null;
    };
    let len = (word >> 8) % 4;
    match word % 7 {
        0 => Json::Null,
        1 => Json::Bool(word & 8 != 0),
        2 => Json::Int(words.next().unwrap_or(word) as i64),
        3 => {
            let value = f64::from_bits(words.next().unwrap_or(word));
            // JSON has no Inf/NaN: they render as null by design.
            Json::Float(if value.is_finite() { value } else { 0.5 })
        }
        4 => Json::Str(decode_string(words, len)),
        5 if depth > 0 => Json::Arr((0..len).map(|_| decode_json(words, depth - 1)).collect()),
        6 if depth > 0 => {
            let mut map = BTreeMap::new();
            for _ in 0..len {
                let key = decode_string(words, 3);
                map.insert(key, decode_json(words, depth - 1));
            }
            Json::Obj(map)
        }
        _ => Json::Null,
    }
}

fn decode_string(words: &mut impl Iterator<Item = u64>, len: u64) -> String {
    (0..len)
        .filter_map(|_| words.next())
        .map(|w| CHARS[(w % CHARS.len() as u64) as usize])
        .collect()
}

#[test]
fn every_example_survives_uniform_boundary_integers() {
    for text in corpus() {
        for value in 0..BOUNDARIES.len() {
            assert_total(&replace_integers(&text, |_| value)).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

/// Parses and validates `text`, failing the test on a panic.
fn parse_and_validate(text: &str) -> Result<JobSpec, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let spec = JobSpec::from_json_text(text).map_err(|e| e.to_string())?;
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }))
    .unwrap_or_else(|_| panic!("panicked on input {text}"))
}

#[test]
fn infinite_probabilities_are_typed_errors() {
    for (fragment, sane) in PROBABILITY_FIELDS {
        if let Err(e) = parse_and_validate(&spec_with(fragment, sane)) {
            panic!("control spec {fragment} with {sane} must validate: {e}");
        }
        for extreme in ["1e999", "-1e999"] {
            let text = spec_with(fragment, extreme);
            assert!(
                parse_and_validate(&text).is_err(),
                "{extreme} validated in {fragment}"
            );
        }
    }
}

#[test]
fn counts_at_u64_max_never_panic() {
    let max = "\"18446744073709551615\"";
    for graph in ["", r#", "graph": {"family": "random-regular", "d": 4}"#] {
        for (n, trials, max_rounds, shard_size) in [
            (max, "4", "100", "2"),
            ("100", max, "100", "2"),
            ("100", max, "100", "3"),
            ("100", max, "100", max),
            ("100", "4", max, "2"),
        ] {
            let text = format!(
                r#"{{"name": "extreme", "protocol": {{"name": "three-majority"}},
                    "initial": {{"kind": "balanced", "n": {n}, "k": 4}}, "trials": {trials},
                    "master_seed": 1, "max_rounds": {max_rounds},
                    "shard_size": {shard_size}{graph}}}"#
            );
            match parse_and_validate(&text) {
                // Graph jobs index vertices with u32.
                Ok(_) if n == max && !graph.is_empty() => panic!("accepted {text}"),
                // An accepted spec's shards tile its trials without
                // overflow, up to the last one.
                Ok(spec) => {
                    let last = spec.shard_count() - 1;
                    let (start, end) = spec.shard_range(last);
                    assert!(start < end && end == spec.trials, "last shard of {text}");
                }
                Err(_) => {}
            }
        }
    }
}

#[test]
fn random_regular_stub_counts_past_u32_are_typed_errors() {
    // n fits u32, d < n and n·d is even, so only the stub count is out of
    // range; validating never generates the graph, so nothing allocates.
    // 100 000 · 42 948 = 4 294 800 000 <= u32::MAX < 100 000 · 42 950.
    if let Err(e) = parse_and_validate(&regular_job(42_948)) {
        panic!("control spec with d = 42948 must validate: {e}");
    }
    for d in [42_950, 50_000] {
        let err = parse_and_validate(&regular_job(d)).expect_err("stub count past u32 validated");
        assert!(err.contains("u32"), "d = {d}: {err}");
    }
}

#[test]
fn random_graph_edge_counts_past_u32_offsets_are_typed_errors() {
    // At n = 100 000 there are 4 999 950 000 vertex pairs (2 499 950 000
    // inside the two SBM halves, 2 500 000 000 across), and the cap is
    // 2 147 483 647 expected edges. Validating never generates a graph,
    // so none of these allocate.
    // Controls just under the cap: 2 146 978 530 expected edges, plus
    // 100 000 backbone edges; SBM 2 124 960 000.
    for control in [
        er_job(0.4294, false),
        er_job(0.4294, true),
        sbm_job(100_000, 0.8, 0.05),
    ] {
        if let Err(e) = parse_and_validate(&control) {
            panic!("control spec must validate: {e}\n{control}");
        }
    }
    for (case, edges) in [
        (er_job(0.4296, false), "2147978520"),
        (er_job(1.0, true), "5000050000"),
        (sbm_job(100_000, 0.8, 0.1), "2249960000"),
        (sbm_job(100_000, 1.0, 0.0), "2499950000"),
        (sbm_job(100_000, 0.0, 1.0), "2500000000"),
        (
            graph_job(
                1_000_000,
                r#"{"family": "erdos-renyi", "p": 1.0, "backbone": false}"#,
            ),
            "499999500000",
        ),
    ] {
        let err = parse_and_validate(&case).expect_err("edge count past the cap validated");
        assert!(err.contains(edges) && err.contains("u32"), "{err}\n{case}");
    }
}

#[test]
fn stochastic_block_model_pair_counts_past_the_cap_are_typed_errors() {
    // The generator flips one coin per vertex pair: 131 072 vertices have
    // 8 589 869 056 pairs, under the cap of 2^33 = 8 589 934 592, and
    // 131 073 have 8 590 000 128. These probabilities keep the expected
    // edge count far below its own cap. Validating never generates a
    // graph, so none of these allocate or flip a coin.
    let snapshot = |n: u64| {
        graph_job(
            n,
            r#"{"family": "cycle", "temporal": {"kind": "snapshots", "period": 2,
                "snapshots": [{"family": "stochastic-block-model", "p_in": 1e-5,
                               "p_out": 1e-5}]}}"#,
        )
    };
    for control in [sbm_job(131_072, 1e-5, 1e-5), snapshot(131_072)] {
        if let Err(e) = parse_and_validate(&control) {
            panic!("control spec must validate: {e}\n{control}");
        }
    }
    for (case, pairs) in [
        (sbm_job(131_073, 1e-5, 1e-5), "8590000128"),
        (sbm_job(1_000_000, 1e-6, 1e-6), "499999500000"),
        (snapshot(1_000_000), "499999500000"),
    ] {
        let err = parse_and_validate(&case).expect_err("pair count past the cap validated");
        assert!(
            err.contains(pairs) && err.contains("8589934592"),
            "{err}\n{case}"
        );
    }
}

#[test]
fn registry_parameters_at_the_extremes_are_typed_errors() {
    let ints = [0, u64::MAX, i64::MAX as u64];
    let floats = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -0.0];
    for name in registered_protocols() {
        for key in ["h", "k", "epsilon"] {
            let mut cases: Vec<ProtocolParams> = ints
                .iter()
                .map(|&v| ProtocolParams::new().with_int(key, v))
                .collect();
            cases.extend(
                floats
                    .iter()
                    .map(|&v| ProtocolParams::new().with_float(key, v)),
            );
            for params in cases {
                // Noisy needs both of its parameters to get past the first.
                let params = if name == "noisy-three-majority" && key != "k" {
                    params.with_int("k", 4)
                } else if name == "noisy-three-majority" {
                    params.with_float("epsilon", 0.1)
                } else {
                    params
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    (
                        build_graph_protocol(name, &params).is_ok(),
                        build_protocol(name, &params).is_ok(),
                        required_opinion_slots(name, &params).is_ok(),
                    )
                }));
                let (graph, boxed, _) = outcome
                    .unwrap_or_else(|_| panic!("registry panicked on {name} with {params:?}"));
                assert_eq!(graph, boxed, "{name} {params:?}");
                let extreme = params.get(key).is_some_and(|v| match v {
                    od_core::ParamValue::Int(v) => v == u64::MAX || v == i64::MAX as u64,
                    od_core::ParamValue::Float(v) => !v.is_finite() || v.abs() > 1.0,
                });
                // Huge sample counts and non-finite or out-of-range noise
                // rates never build; huge k is legal until it meets a
                // configuration, which the spec validator checks.
                if extreme && (key == "h" || key == "epsilon") {
                    assert!(!graph, "{name} built with {params:?}");
                }
            }
        }
    }
    let huge_k = ProtocolParams::new().with_int("k", u64::MAX);
    assert!(required_opinion_slots("undecided", &huge_k).is_err());
}

/// Every registered protocol with parameters for a 4-slot configuration
/// (`undecided`: three real opinions plus the blank state).
fn protocol_block(name: &str) -> &'static str {
    match name {
        "h-majority" => r#"{"h": 5}"#,
        "undecided" => r#"{"k": 3}"#,
        "noisy-three-majority" => r#"{"epsilon": 0.1, "k": 4}"#,
        _ => "{}",
    }
}

#[test]
fn every_spec_that_validates_also_runs() {
    let starts = [
        r#"{"kind": "balanced", "n": 60, "k": 4}"#,
        r#"{"kind": "counts", "counts": [20, 20, 10, 10]}"#,
        r#"{"kind": "counts", "counts": [30, 0, 20, 10]}"#,
        // (300, 300, 300, 100) scaled to n = 60.
        r#"{"kind": "counts", "counts": [18, 18, 18, 6]}"#,
    ];
    let stops = [
        r#"{"kind": "consensus"}"#,
        r#"{"kind": "max-fraction", "threshold": 0.8}"#,
        r#"{"kind": "gamma", "threshold": 0.5}"#,
    ];
    let adversaries: Vec<String> = std::iter::once(String::new())
        .chain(
            ["boost-runner-up", "support-weakest", "random-noise"]
                .map(|kind| format!(r#", "adversary": {{"kind": "{kind}", "budget": 3}}"#)),
        )
        .collect();
    let (mut ran, mut rejected) = (0, 0);
    for name in registered_protocols() {
        for start in starts {
            for mode in ["full", "compacted"] {
                for stop in stops {
                    for adversary in &adversaries {
                        let text = format!(
                            r#"{{"name": "validates-runs", "protocol": {{"name": "{name}",
                                "params": {}}}, "initial": {start}, "trials": 2,
                                "master_seed": 7, "max_rounds": 300, "mode": "{mode}",
                                "stop": {stop}{adversary}}}"#,
                            protocol_block(name)
                        );
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let spec = JobSpec::from_json_text(&text).map_err(|_| ())?;
                            run_job_simple(&spec).map(|_| ()).map_err(|_| ())
                        }));
                        match outcome {
                            Ok(Ok(())) => ran += 1,
                            Ok(Err(())) => rejected += 1,
                            Err(_) => panic!("a spec passed validation and then panicked: {text}"),
                        }
                    }
                }
            }
        }
    }
    // Compacted jobs of all seven protocols run from all four starts.
    // Each protocol runs from each start under the 3 stop rules in both
    // modes and the 3 adversaries in full mode. Validation rejects the
    // rest: an adversary with compacted mode or with a stop rule.
    let runs = registered_protocols().len() * starts.len() * 9;
    assert_eq!(ran, runs, "{rejected} rejected");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..512)) {
        assert_total(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(picks in collection::vec(0usize..TOKENS.len(), 0..64)) {
        let text: String = picks.iter().map(|&t| TOKENS[t]).collect();
        assert_total(&text)?;
    }

    #[test]
    fn one_byte_mutations_of_the_corpus_never_panic(
        file in 0usize..1_000,
        position in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        let corpus = corpus();
        let mut bytes = corpus[file % corpus.len()].clone().into_bytes();
        let at = position % bytes.len();
        bytes[at] = byte;
        assert_total(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mixed_boundary_integers_never_panic(
        file in 0usize..1_000,
        picks in collection::vec(0usize..BOUNDARIES.len(), 64),
    ) {
        let corpus = corpus();
        let text = replace_integers(&corpus[file % corpus.len()], |i| picks[i % picks.len()]);
        assert_total(&text)?;
    }

    #[test]
    fn toml_arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..512)) {
        assert_toml_total(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn toml_token_soup_never_panics(picks in collection::vec(0usize..TOML_TOKENS.len(), 0..64)) {
        let text: String = picks.iter().map(|&t| TOML_TOKENS[t]).collect();
        assert_toml_total(&text)?;
    }

    #[test]
    fn toml_one_byte_mutations_never_panic(
        file in 0usize..1_000,
        position in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        let corpus = examples("toml");
        let mut bytes = corpus[file % corpus.len()].1.clone().into_bytes();
        let at = position % bytes.len();
        bytes[at] = byte;
        assert_toml_total(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_render_then_parse_round_trips(words in collection::vec(0u64..u64::MAX, 1..96)) {
        let value = decode_json(&mut words.into_iter(), 4);
        prop_assert_eq!(json::parse(&value.to_string_compact()).ok(), Some(value.clone()));
        prop_assert_eq!(json::parse(&value.to_string_pretty()).ok(), Some(value));
    }
}
