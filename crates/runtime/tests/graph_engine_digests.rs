//! Byte-level pins of graph-job results. Every case runs a small job
//! through `run_job` and records FNV-1a digests of the summary bytes and
//! the checkpoint bytes; the grid covers each graph kind the executor
//! dispatches (complete, CSR, weighted under every resolver, periodic and
//! rewiring temporal schedules, weighted × temporal) with every registered
//! graph protocol and every stop rule, plus traced runs whose γ traces are
//! digested too. Any change to the graph engine must leave every digest
//! unchanged.
//!
//! The expected digests live in `tests/golden/graph_engine_digests.golden`.
//! Regenerate it (only for an intended change of sample paths, which also
//! needs a new engine tag) with
//! `OD_UPDATE_GOLDEN=1 cargo test -p od-runtime --test graph_engine_digests`.

use od_runtime::json::{parse, Json};
use od_runtime::{run_job, JobSpec, RunOptions};
use od_telemetry::MemorySink;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The seven graph protocols of the registry with their parameters.
const PROTOCOLS: [(&str, &str); 7] = [
    ("three-majority", "{}"),
    ("two-choices", "{}"),
    ("voter", "{}"),
    ("median", "{}"),
    ("h-majority", r#"{"h": 5}"#),
    ("undecided", r#"{"k": 2}"#),
    ("noisy-three-majority", r#"{"epsilon": 0.1, "k": 3}"#),
];

/// Graph kinds, as the `graph` block of a job spec.
const GRAPHS: [(&str, &str); 12] = [
    ("complete", r#"{"family": "complete"}"#),
    ("random-regular", r#"{"family": "random-regular", "d": 6}"#),
    (
        "er-backbone",
        r#"{"family": "erdos-renyi", "p": 0.03, "backbone": true}"#,
    ),
    (
        "core-periphery",
        r#"{"family": "core-periphery", "core": 10}"#,
    ),
    (
        "weighted-uniform",
        r#"{"family": "random-regular", "d": 6,
            "weights": {"scheme": "uniform", "value": 3}}"#,
    ),
    (
        "weighted-alias",
        r#"{"family": "erdos-renyi", "p": 0.03, "backbone": true,
            "weights": {"scheme": "random", "min": 1, "max": 9, "seed": 5, "resolver": "alias"}}"#,
    ),
    (
        "weighted-prefix",
        r#"{"family": "erdos-renyi", "p": 0.03, "backbone": true,
            "weights": {"scheme": "random", "min": 1, "max": 9, "seed": 5, "resolver": "prefix"}}"#,
    ),
    (
        "weighted-prefix-u16",
        r#"{"family": "core-periphery", "core": 10,
            "weights": {"scheme": "degree-product", "resolver": "prefix-u16"}}"#,
    ),
    (
        "temporal-periodic",
        r#"{"family": "random-regular", "d": 6,
            "temporal": {"kind": "snapshots", "period": 3,
                "snapshots": [{"family": "erdos-renyi", "p": 0.03, "backbone": true}]}}"#,
    ),
    (
        "temporal-rewire",
        r#"{"family": "random-regular", "d": 4,
            "temporal": {"kind": "rewire", "period": 2}}"#,
    ),
    (
        "weighted-temporal-periodic",
        r#"{"family": "random-regular", "d": 6,
            "weights": {"scheme": "random", "min": 1, "max": 9, "seed": 5},
            "temporal": {"kind": "snapshots", "period": 3,
                "snapshots": [{"family": "core-periphery", "core": 10}]}}"#,
    ),
    (
        "weighted-temporal-rewire",
        r#"{"family": "erdos-renyi", "p": 0.03, "backbone": true,
            "weights": {"scheme": "random", "min": 1, "max": 9},
            "temporal": {"kind": "rewire", "period": 2}}"#,
    ),
];

/// Stop rules, as the `stop` block of a job spec.
const STOPS: [(&str, &str); 3] = [
    ("consensus", r#"{"kind": "consensus"}"#),
    (
        "max-fraction",
        r#"{"kind": "max-fraction", "threshold": 0.8}"#,
    ),
    ("gamma", r#"{"kind": "gamma", "threshold": 0.5}"#),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn spec_text(protocol: (&str, &str), graph: &str, stop: &str, telemetry: &str) -> String {
    format!(
        r#"{{
  "name": "graph engine digest",
  "protocol": {{"name": "{}", "params": {}}},
  "initial": {{"kind": "counts", "counts": [50, 30, 20]}},
  "trials": 4,
  "master_seed": 8128,
  "max_rounds": 150,
  "shard_size": 2,
  "stop": {stop},
  "graph": {graph}{telemetry}
}}"#,
        protocol.0, protocol.1
    )
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "od_runtime_graph_engine_digests_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one job and renders its digest line. Traced runs also digest the
/// γ trace of every sampled trial, ordered by trial.
fn digest_line(label: &str, text: &str, checkpoint: &Path, traced: bool) -> String {
    let spec = JobSpec::from_json_text(text).unwrap_or_else(|e| panic!("{label}: {e}"));
    let _ = std::fs::remove_file(checkpoint);
    let sink = Arc::new(MemorySink::new());
    let mut options = RunOptions {
        checkpoint_path: Some(checkpoint.to_path_buf()),
        ..RunOptions::default()
    };
    if traced {
        options.sink = sink.clone();
    }
    let report = run_job(&spec, &options).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(!report.interrupted, "{label}: interrupted");
    let summary = fnv1a(report.summary.to_json().to_string_compact().as_bytes());
    let checkpoint = fnv1a(&std::fs::read(checkpoint).unwrap());
    let mut line = format!("{label} summary={summary:016x} checkpoint={checkpoint:016x}");
    if traced {
        let mut traces: Vec<(i64, String)> = sink
            .lines()
            .iter()
            .map(|l| parse(l).unwrap())
            .filter(|event| event.get("kind").and_then(Json::as_str) == Some("trace"))
            .map(|event| {
                let trial = match event.get("trial") {
                    Some(Json::Int(t)) => *t,
                    other => panic!("{label}: trace without a trial: {other:?}"),
                };
                let gamma = event.get("gamma").unwrap().to_string_compact();
                let truncated = event.get("truncated").unwrap().to_string_compact();
                (trial, format!("{trial}:{gamma}:{truncated}"))
            })
            .collect();
        assert!(!traces.is_empty(), "{label}: no trace events");
        traces.sort();
        let joined: Vec<String> = traces.into_iter().map(|(_, t)| t).collect();
        line.push_str(&format!(
            " trace={:016x}",
            fnv1a(joined.join("\n").as_bytes())
        ));
    }
    line
}

#[test]
fn graph_job_outputs_match_the_pinned_digests() {
    let dir = temp_dir();
    let checkpoint = dir.join("job.checkpoint.json");
    let mut actual = Vec::new();
    for (graph_label, graph) in GRAPHS {
        for protocol in PROTOCOLS {
            for (stop_label, stop) in STOPS {
                let label = format!("{graph_label}/{}/{stop_label}", protocol.0);
                let text = spec_text(protocol, graph, stop, "");
                actual.push(digest_line(&label, &text, &checkpoint, false));
            }
        }
        // One traced run per graph kind: the trace observes through the
        // stop closure, so it must see the same rounds as the plain run.
        let label = format!("{graph_label}/three-majority/max-fraction/traced");
        let telemetry = r#",
  "telemetry": {"trace": {"sample_trials": 1, "max_points": 64}}"#;
        let text = spec_text(PROTOCOLS[0], graph, STOPS[1].1, telemetry);
        actual.push(digest_line(&label, &text, &checkpoint, true));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/graph_engine_digests.golden");
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
        "{} of {} digests changed:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches.join("\n")
    );
}
