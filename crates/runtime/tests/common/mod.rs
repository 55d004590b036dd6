//! Job specs shared by the spec suites: the example jobs, the
//! explicit-counts job, and the valid control specs of `parser_totality`,
//! whose written bytes and content hashes `spec_bytes` pins.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::path::Path;

/// An explicit-counts job: no example lists counts, and their sum is
/// the arithmetic the boundary values must not break.
pub const COUNTS_SPEC: &str = r#"{
  "name": "explicit counts",
  "protocol": {"name": "two-choices"},
  "initial": {"kind": "counts", "counts": [130, 70, 5]},
  "trials": 6,
  "master_seed": 2024,
  "max_rounds": 20000,
  "shard_size": 3
}"#;

/// Every `examples/*.<extension>` job as `(file name, text)`, sorted by
/// name.
pub fn examples(extension: &str) -> Vec<(String, String)> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples directory")
        .map(|entry| entry.expect("examples entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == extension))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (
                name,
                std::fs::read_to_string(path).expect("example is UTF-8"),
            )
        })
        .collect()
}

/// Every probability-like field of a spec, each as the spec fragment
/// after `"name"` with `@` where the number goes, and a value the spec
/// validates with (so an error at the extremes is about the field).
pub const PROBABILITY_FIELDS: [(&str, &str); 12] = [
    (
        r#""protocol": {"name": "three-majority"}, "graph": {"family": "erdos-renyi", "p": @}"#,
        "0.5",
    ),
    (
        r#""protocol": {"name": "three-majority"},
           "graph": {"family": "stochastic-block-model", "p_in": @, "p_out": 0.1}"#,
        "0.5",
    ),
    (
        r#""protocol": {"name": "three-majority"},
           "graph": {"family": "stochastic-block-model", "p_in": 0.5, "p_out": @}"#,
        "0.1",
    ),
    (
        r#""protocol": {"name": "three-majority"},
           "graph": {"family": "random-regular", "d": 4, "temporal": {"kind": "snapshots",
             "period": 2, "snapshots": [{"family": "erdos-renyi", "p": @}]}}"#,
        "0.5",
    ),
    (
        r#""protocol": {"name": "three-majority"},
           "graph": {"family": "stochastic-block-model", "p_in": 0.5, "p_out": 0.1,
             "assignment": "proportions",
             "block_mix": [[@, 0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]]}"#,
        "0",
    ),
    (
        r#""protocol": {"name": "noisy-three-majority", "params": {"epsilon": @, "k": 4}}"#,
        "0.1",
    ),
    (
        r#""protocol": {"name": "three-majority"}, "graph": {"family": "random-regular",
           "d": 4, "weights": {"scheme": "uniform", "value": @}}"#,
        "2",
    ),
    (
        r#""protocol": {"name": "three-majority"}, "graph": {"family": "random-regular",
           "d": 4, "weights": {"scheme": "random", "min": @, "max": 8, "seed": 1}}"#,
        "2",
    ),
    (
        r#""protocol": {"name": "three-majority"}, "graph": {"family": "random-regular",
           "d": 4, "weights": {"scheme": "random", "min": 1, "max": @, "seed": 1}}"#,
        "2",
    ),
    (
        r#""protocol": {"name": "three-majority"}, "graph": {"family": "cycle",
           "weights": {"scheme": "explicit", "edges": [[0, 1, @]], "default": 1}}"#,
        "2",
    ),
    (
        r#""protocol": {"name": "three-majority"}, "stop": {"kind": "gamma", "threshold": @}"#,
        "0.5",
    ),
    (
        r#""protocol": {"name": "three-majority"},
           "stop": {"kind": "max-fraction", "threshold": @}"#,
        "0.5",
    ),
];

/// A 100-vertex, 4-opinion job around `fragment` (see
/// [`PROBABILITY_FIELDS`]) with `@` replaced by `value`.
pub fn spec_with(fragment: &str, value: &str) -> String {
    format!(
        r#"{{"name": "extreme", {}, "initial": {{"kind": "balanced", "n": 100, "k": 4}},
            "trials": 4, "master_seed": 1, "max_rounds": 100, "shard_size": 2}}"#,
        fragment.replace('@', value)
    )
}

/// A 100 000-vertex random-regular job of degree `d`.
pub fn regular_job(d: u64) -> String {
    format!(
        r#"{{"name": "stubs", "protocol": {{"name": "three-majority"}},
            "initial": {{"kind": "balanced", "n": 100000, "k": 4}}, "trials": 4,
            "master_seed": 1, "max_rounds": 100, "shard_size": 2,
            "graph": {{"family": "random-regular", "d": {d}}}}}"#
    )
}

/// A graph job on `n` vertices whose graph block is `graph` (JSON).
pub fn graph_job(n: u64, graph: &str) -> String {
    format!(
        r#"{{"name": "edges", "protocol": {{"name": "three-majority"}},
            "initial": {{"kind": "balanced", "n": {n}, "k": 4}}, "trials": 4,
            "master_seed": 1, "max_rounds": 100, "shard_size": 2,
            "graph": {graph}}}"#
    )
}

/// An Erdős–Rényi job on 100 000 vertices.
pub fn er_job(p: f64, backbone: bool) -> String {
    graph_job(
        100_000,
        &format!(r#"{{"family": "erdos-renyi", "p": {p:?}, "backbone": {backbone}}}"#),
    )
}

/// A stochastic-block-model job on `n` vertices.
pub fn sbm_job(n: u64, p_in: f64, p_out: f64) -> String {
    graph_job(
        n,
        &format!(r#"{{"family": "stochastic-block-model", "p_in": {p_in:?}, "p_out": {p_out:?}}}"#),
    )
}

/// The control specs `parser_totality` requires to validate, labelled:
/// the explicit-counts job, each probability-like field at its sane
/// value, the largest random-regular degree under the stub cap, and the
/// random families just under the edge cap.
pub fn control_specs() -> Vec<(String, String)> {
    let mut specs = vec![("counts".to_string(), COUNTS_SPEC.to_string())];
    for (i, (fragment, sane)) in PROBABILITY_FIELDS.iter().enumerate() {
        specs.push((format!("probability[{i}]"), spec_with(fragment, sane)));
    }
    specs.push(("regular-d42948".to_string(), regular_job(42_948)));
    specs.push(("er-0.4294".to_string(), er_job(0.4294, false)));
    specs.push(("er-0.4294-backbone".to_string(), er_job(0.4294, true)));
    specs.push(("sbm-0.8-0.05".to_string(), sbm_job(100_000, 0.8, 0.05)));
    specs
}
