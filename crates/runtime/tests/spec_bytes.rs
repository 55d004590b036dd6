//! Byte-level pins of the spec's written form. For every example job
//! (`examples/*.json` and the TOML one), every valid control spec of
//! `parser_totality`, and a handful of specs reaching the keys neither
//! covers, the golden holds `JobSpec::to_json().to_string_compact()` and
//! `JobSpec::content_hash()`. Content hashes key checkpoints, queue
//! entries and stored results, so a change to the spec's reader or
//! writer must leave every line unchanged.
//!
//! The expected lines live in `tests/golden/spec_bytes.golden`.
//! Regenerate it (only for an intended change of the written form) with
//! `OD_UPDATE_GOLDEN=1 cargo test -p od-runtime --test spec_bytes`.

mod common;

use common::{control_specs, examples};
use od_runtime::{toml_compat, JobSpec};
use std::path::Path;

/// Specs for the keys and variants that neither the examples nor the
/// controls write: every other graph family, the per-block and blocks
/// assignments, explicit and degree-product weights with a non-default
/// resolver, a rewire schedule, a leader-margin start, the compacted
/// mode, a trace block, and seeds past `i64::MAX`.
const COVERAGE_SPECS: [(&str, &str); 8] = [
    (
        "leader-margin-compacted",
        r#"{"name": "margin", "protocol": {"name": "h-majority", "params": {"h": 7}},
            "initial": {"kind": "leader-margin", "n": 1000, "k": 5, "margin": 40},
            "trials": 9, "master_seed": "18446744073709551615", "mode": "compacted",
            "stop": {"kind": "max-fraction", "threshold": 0.75}}"#,
    ),
    (
        "barbell-per-block",
        r#"{"name": "barbell", "protocol": {"name": "voter"},
            "initial": {"kind": "balanced", "n": 40, "k": 2}, "trials": 2, "master_seed": 3,
            "graph": {"family": "barbell", "assignment": "per-block", "block_opinions": [1, 0],
                      "seed": "9223372036854775808"}}"#,
    ),
    (
        "torus-blocks-explicit",
        r#"{"name": "torus", "protocol": {"name": "three-majority"},
            "initial": {"kind": "balanced", "n": 12, "k": 3}, "trials": 2, "master_seed": 5,
            "graph": {"family": "torus", "width": 3, "height": 4, "assignment": "blocks",
                      "weights": {"scheme": "explicit", "edges": [[0, 1, 7], [2, 5, 0]],
                                  "default": 2, "resolver": "prefix-u16"}}}"#,
    ),
    (
        "core-periphery-degree-product",
        r#"{"name": "core", "protocol": {"name": "two-choices"},
            "initial": {"kind": "balanced", "n": 30, "k": 3}, "trials": 2, "master_seed": 6,
            "graph": {"family": "core-periphery", "core": 10,
                      "weights": {"scheme": "degree-product", "seed": 4, "resolver": "prefix"}}}"#,
    ),
    (
        "cycle-star-snapshots",
        r#"{"name": "snapshots", "protocol": {"name": "median"},
            "initial": {"kind": "balanced", "n": 20, "k": 3}, "trials": 2, "master_seed": 8,
            "graph": {"family": "cycle", "temporal": {"kind": "snapshots", "period": 3,
                      "snapshots": [{"family": "star"}, {"family": "torus", "width": 4, "height": 5},
                                    {"family": "core-periphery", "core": 4},
                                    {"family": "erdos-renyi", "p": 0.5, "backbone": true},
                                    {"family": "stochastic-block-model", "p_in": 0.5, "p_out": 0.1},
                                    {"family": "random-regular", "d": 4}, {"family": "barbell"}]}}}"#,
    ),
    (
        "sbm-rewire-random",
        r#"{"name": "rewire", "protocol": {"name": "undecided", "params": {"k": 2}},
            "initial": {"kind": "counts", "counts": [10, 10, 0]}, "trials": 2, "master_seed": 9,
            "graph": {"family": "stochastic-block-model", "p_in": 0.6, "p_out": 0.2,
                      "weights": {"scheme": "random", "min": 1, "max": 3},
                      "temporal": {"kind": "rewire", "period": 2}}}"#,
    ),
    (
        "complete-trace",
        r#"{"name": "trace", "protocol": {"name": "three-majority"},
            "initial": {"kind": "balanced", "n": 64, "k": 4}, "trials": 3, "master_seed": 10,
            "graph": {"family": "complete"},
            "telemetry": {"progress_every": 2, "trace": {"sample_trials": 2, "max_points": 9}}}"#,
    ),
    (
        "defaults-only",
        r#"{"protocol": {"name": "three-majority"},
            "initial": {"kind": "balanced", "n": 64, "k": 4}, "trials": 3, "master_seed": 11,
            "telemetry": {"trace": {}}}"#,
    ),
];

#[test]
fn written_specs_and_content_hashes_match_the_golden() {
    let mut specs: Vec<(String, JobSpec)> = Vec::new();
    let parse = |label: &str, text: &str| {
        JobSpec::from_json_text(text).unwrap_or_else(|e| panic!("{label}: {e}"))
    };
    for (name, text) in examples("json") {
        specs.push((name.clone(), parse(&name, &text)));
    }
    for (name, text) in examples("toml") {
        let value = toml_compat::toml_to_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = JobSpec::from_json(&value).unwrap_or_else(|e| panic!("{name}: {e}"));
        specs.push((name, spec));
    }
    for (label, text) in control_specs() {
        specs.push((format!("control/{label}"), parse(&label, &text)));
    }
    for (label, text) in COVERAGE_SPECS {
        specs.push((format!("coverage/{label}"), parse(label, text)));
    }
    let actual: Vec<String> = specs
        .iter()
        .map(|(label, spec)| {
            // Every pinned spec reads back to itself from its written form.
            let written = spec.to_json().to_string_compact();
            let back = JobSpec::from_json_text(&written).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(&back, spec, "{label}: written form reads back differently");
            format!("{label} {} {written}", spec.content_hash())
        })
        .collect();

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/spec_bytes.golden");
    if std::env::var_os("OD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", actual.join("\n"))).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), actual.len(), "case count changed");
    let mismatches: Vec<String> = golden
        .iter()
        .zip(&actual)
        .filter(|(want, got)| *want != got)
        .map(|(want, got)| format!("want {want}\n got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} specs changed:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches.join("\n")
    );
}

/// A three-majority job on 100 vertices and 4 opinions with `rest`
/// spliced in after its required keys (each with its leading comma).
fn job(rest: &str) -> String {
    format!(
        r#"{{"protocol": {{"name": "three-majority"}},
            "initial": {{"kind": "balanced", "n": 100, "k": 4}},
            "trials": 4, "master_seed": 1{rest}}}"#
    )
}

/// A graph job whose graph block is `graph`.
fn graph(graph: &str) -> String {
    job(&format!(r#", "graph": {graph}"#))
}

/// Specs the reader rejects, one fault each, labelled by the fault.
fn bad_specs() -> Vec<(&'static str, String)> {
    let bare = r#"{"protocol": {"name": "three-majority"}, "trials": 4, "master_seed": 1"#;
    vec![
        ("job/unknown-key", job(r#", "adverserys": 1"#)),
        (
            "job/typo-of-required",
            bare.replace("master_seed", "master_sed")
                + r#", "initial": {"kind": "counts", "counts": [1]}}"#,
        ),
        (
            "job/trials-string",
            job("").replace(r#""trials": 4"#, r#""trials": "four""#),
        ),
        ("job/trials-missing", job("").replace(r#""trials": 4,"#, "")),
        ("job/max_rounds-negative", job(r#", "max_rounds": -1"#)),
        ("job/shard_size-float", job(r#", "shard_size": 2.5"#)),
        ("job/name-number", job(r#", "name": 5"#)),
        ("job/mode-unknown", job(r#", "mode": "turbo""#)),
        ("job/mode-number", job(r#", "mode": 1"#)),
        ("job/not-an-object", "[1, 2]".to_string()),
        (
            "protocol/missing",
            r#"{"initial": {"kind": "balanced", "n": 100, "k": 4}, "trials": 4, "master_seed": 1}"#
                .to_string(),
        ),
        (
            "protocol/not-an-object",
            job("").replace(r#"{"name": "three-majority"}"#, r#""three-majority""#),
        ),
        (
            "protocol/unknown-key",
            job("").replace(
                r#"{"name": "three-majority"}"#,
                r#"{"name": "three-majority", "h": 3}"#,
            ),
        ),
        (
            "protocol/name-number",
            job("").replace(r#"{"name": "three-majority"}"#, r#"{"name": 3}"#),
        ),
        (
            "protocol/params-array",
            job("").replace(
                r#"{"name": "three-majority"}"#,
                r#"{"name": "h-majority", "params": [5]}"#,
            ),
        ),
        (
            "protocol/param-negative",
            job("").replace(
                r#"{"name": "three-majority"}"#,
                r#"{"name": "h-majority", "params": {"h": -5}}"#,
            ),
        ),
        ("initial/missing", format!("{bare}}}")),
        (
            "initial/unknown-kind",
            job("").replace(r#""kind": "balanced""#, r#""kind": "mystery""#),
        ),
        (
            "initial/kind-missing",
            job("").replace(r#""kind": "balanced", "#, ""),
        ),
        (
            "initial/extra-key",
            job("").replace(r#""k": 4}"#, r#""k": 4, "margin": 5}"#),
        ),
        (
            "initial/k-string",
            job("").replace(r#""k": 4}"#, r#""k": "4"}"#),
        ),
        (
            "initial/counts-not-array",
            job("").replace(
                r#""kind": "balanced", "n": 100, "k": 4"#,
                r#""kind": "counts", "counts": 5"#,
            ),
        ),
        (
            "initial/counts-negative",
            job("").replace(
                r#""kind": "balanced", "n": 100, "k": 4"#,
                r#""kind": "counts", "counts": [5, -1]"#,
            ),
        ),
        ("stop/unknown-kind", job(r#", "stop": {"kind": "never"}"#)),
        (
            "stop/threshold-missing",
            job(r#", "stop": {"kind": "gamma"}"#),
        ),
        (
            "stop/threshold-string",
            job(r#", "stop": {"kind": "gamma", "threshold": "0.5"}"#),
        ),
        (
            "stop/consensus-threshold",
            job(r#", "stop": {"kind": "consensus", "threshold": 0.5}"#),
        ),
        (
            "stop/unknown-key",
            job(r#", "stop": {"kind": "gamma", "threshold": 0.5, "x": 1}"#),
        ),
        ("stop/null", job(r#", "stop": null"#)),
        (
            "adversary/budget-missing",
            job(r#", "adversary": {"kind": "boost-runner-up"}"#),
        ),
        (
            "adversary/unknown-key",
            job(r#", "adversary": {"kind": "boost-runner-up", "budget": 1, "x": 1}"#),
        ),
        ("graph/not-an-object", graph("5")),
        ("graph/family-missing", graph(r#"{"d": 4}"#)),
        ("graph/family-unknown", graph(r#"{"family": "hypercube"}"#)),
        (
            "graph/unknown-key",
            graph(r#"{"family": "random-regular", "d": 4, "x": 1}"#),
        ),
        (
            "graph/other-family-key",
            graph(r#"{"family": "cycle", "p": 0.5}"#),
        ),
        (
            "graph/p-string",
            graph(r#"{"family": "erdos-renyi", "p": "0.5"}"#),
        ),
        (
            "graph/backbone-number",
            graph(r#"{"family": "erdos-renyi", "p": 0.5, "backbone": 1}"#),
        ),
        ("graph/d-missing", graph(r#"{"family": "random-regular"}"#)),
        (
            "graph/seed-negative",
            graph(r#"{"family": "cycle", "seed": -1}"#),
        ),
        (
            "graph/seed-null",
            graph(r#"{"family": "cycle", "seed": null}"#),
        ),
        (
            "graph/assignment-unknown",
            graph(r#"{"family": "cycle", "assignment": "random"}"#),
        ),
        (
            "graph/assignment-number",
            graph(r#"{"family": "cycle", "assignment": 1}"#),
        ),
        (
            "graph/block_mix-without-proportions",
            graph(r#"{"family": "barbell", "block_mix": [[1, 0], [0, 1]]}"#),
        ),
        (
            "graph/block_opinions-without-per-block",
            graph(r#"{"family": "barbell", "assignment": "blocks", "block_opinions": [0, 1]}"#),
        ),
        (
            "graph/proportions-without-block_mix",
            graph(r#"{"family": "barbell", "assignment": "proportions"}"#),
        ),
        (
            "graph/block_mix-row-number",
            graph(r#"{"family": "barbell", "assignment": "proportions", "block_mix": [1, 0]}"#),
        ),
        (
            "graph/block_mix-entry-string",
            graph(
                r#"{"family": "barbell", "assignment": "proportions", "block_mix": [["1"], [0]]}"#,
            ),
        ),
        (
            "graph/per-block-without-opinions",
            graph(r#"{"family": "barbell", "assignment": "per-block"}"#),
        ),
        (
            "graph/block_opinions-past-u32",
            graph(
                r#"{"family": "barbell", "assignment": "per-block", "block_opinions": [4294967296, 0]}"#,
            ),
        ),
        (
            "weights/scheme-missing",
            graph(r#"{"family": "cycle", "weights": {"value": 2}}"#),
        ),
        (
            "weights/scheme-unknown",
            graph(r#"{"family": "cycle", "weights": {"scheme": "zipf"}}"#),
        ),
        (
            "weights/unknown-key",
            graph(r#"{"family": "cycle", "weights": {"scheme": "uniform", "value": 2, "min": 1}}"#),
        ),
        (
            "weights/value-past-u32",
            graph(r#"{"family": "cycle", "weights": {"scheme": "uniform", "value": 4294967296}}"#),
        ),
        (
            "weights/max-missing",
            graph(r#"{"family": "cycle", "weights": {"scheme": "random", "min": 1}}"#),
        ),
        (
            "weights/seed-string",
            graph(r#"{"family": "cycle", "weights": {"scheme": "degree-product", "seed": "x"}}"#),
        ),
        (
            "weights/resolver-unknown",
            graph(
                r#"{"family": "cycle", "weights": {"scheme": "degree-product", "resolver": "fenwick"}}"#,
            ),
        ),
        (
            "weights/edges-not-array",
            graph(r#"{"family": "cycle", "weights": {"scheme": "explicit", "edges": 5}}"#),
        ),
        (
            "weights/edge-pair",
            graph(r#"{"family": "cycle", "weights": {"scheme": "explicit", "edges": [[0, 1]]}}"#),
        ),
        (
            "weights/edge-negative",
            graph(
                r#"{"family": "cycle", "weights": {"scheme": "explicit", "edges": [[0, -1, 2]]}}"#,
            ),
        ),
        (
            "weights/edge-weight-past-u32",
            graph(
                r#"{"family": "cycle", "weights": {"scheme": "explicit", "edges": [[0, 1, 4294967296]]}}"#,
            ),
        ),
        (
            "weights/default-string",
            graph(
                r#"{"family": "cycle", "weights": {"scheme": "explicit", "edges": [[0, 1, 2]], "default": "1"}}"#,
            ),
        ),
        (
            "temporal/kind-unknown",
            graph(r#"{"family": "cycle", "temporal": {"kind": "shuffle", "period": 2}}"#),
        ),
        (
            "temporal/period-missing",
            graph(r#"{"family": "random-regular", "d": 4, "temporal": {"kind": "rewire"}}"#),
        ),
        (
            "temporal/rewire-snapshots",
            graph(
                r#"{"family": "random-regular", "d": 4, "temporal": {"kind": "rewire", "period": 2, "snapshots": []}}"#,
            ),
        ),
        (
            "temporal/snapshots-not-array",
            graph(
                r#"{"family": "cycle", "temporal": {"kind": "snapshots", "period": 2, "snapshots": {}}}"#,
            ),
        ),
        (
            "temporal/snapshot-family-unknown",
            graph(
                r#"{"family": "cycle", "temporal": {"kind": "snapshots", "period": 2, "snapshots": [{"family": "moebius"}]}}"#,
            ),
        ),
        (
            "temporal/snapshot-unknown-key",
            graph(
                r#"{"family": "cycle", "temporal": {"kind": "snapshots", "period": 2, "snapshots": [{"family": "star", "seed": 1}]}}"#,
            ),
        ),
        (
            "telemetry/unknown-key",
            job(r#", "telemetry": {"progress": 2}"#),
        ),
        (
            "telemetry/progress_every-string",
            job(r#", "telemetry": {"progress_every": "2"}"#),
        ),
        (
            "telemetry/progress_every-null",
            job(r#", "telemetry": {"progress_every": null}"#),
        ),
        (
            "trace/unknown-key",
            job(r#", "telemetry": {"trace": {"every": 2}}"#),
        ),
        (
            "trace/max_points-float",
            job(r#", "telemetry": {"trace": {"max_points": 1.5}}"#),
        ),
    ]
}

#[test]
fn reader_errors_match_the_golden() {
    let actual: Vec<String> = bad_specs()
        .into_iter()
        .map(|(label, text)| match JobSpec::from_json_text(&text) {
            Ok(spec) => format!("{label} => accepted {}", spec.to_json().to_string_compact()),
            Err(e) => format!("{label} => {e}"),
        })
        .collect();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/spec_errors.golden");
    if std::env::var_os("OD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", actual.join("\n"))).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(golden.lines().collect::<Vec<_>>(), actual);
}
