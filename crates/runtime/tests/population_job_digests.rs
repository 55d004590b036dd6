//! Byte-level pins of population-job results. Every case runs a small
//! job through `run_job` and records FNV-1a digests of the summary bytes
//! and the checkpoint bytes; the grid covers every registered protocol in
//! both execution modes (`full`, `compacted`) under every stop rule, each
//! untraced and traced (γ traces digested too), one capped case per mode,
//! and the three adversary kinds in full mode. Any change to the
//! population round, the run loop or the executor's trial path must
//! leave every digest unchanged.
//!
//! The expected digests live in `tests/golden/population_job_digests.golden`.
//! Regenerate it (only for an intended change of sample paths) with
//! `OD_UPDATE_GOLDEN=1 cargo test -p od-runtime --test population_job_digests`.

use od_runtime::json::{parse, Json};
use od_runtime::{run_job, JobSpec, RunOptions};
use od_telemetry::MemorySink;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The seven protocols of the registry with their parameters. The
/// initial configuration has three slots: `undecided` with two real
/// opinions plus the blank state, `noisy-three-majority` with three.
const PROTOCOLS: [(&str, &str); 7] = [
    ("three-majority", "{}"),
    ("two-choices", "{}"),
    ("voter", "{}"),
    ("median", "{}"),
    ("h-majority", r#"{"h": 5}"#),
    ("undecided", r#"{"k": 2}"#),
    ("noisy-three-majority", r#"{"epsilon": 0.1, "k": 3}"#),
];

const MODES: [&str; 2] = ["full", "compacted"];

/// Stop rules, as the `stop` block of a job spec.
const STOPS: [(&str, &str); 3] = [
    ("consensus", r#"{"kind": "consensus"}"#),
    (
        "max-fraction",
        r#"{"kind": "max-fraction", "threshold": 0.8}"#,
    ),
    ("gamma", r#"{"kind": "gamma", "threshold": 0.5}"#),
];

const ADVERSARIES: [&str; 3] = ["boost-runner-up", "support-weakest", "random-noise"];

const TRACE: &str = r#",
  "telemetry": {"trace": {"sample_trials": 1, "max_points": 64}}"#;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A job spec; `extra` is spliced in after the mode (stop, adversary or
/// telemetry blocks, each with its leading comma).
fn spec_text(protocol: (&str, &str), mode: &str, max_rounds: u64, extra: &str) -> String {
    format!(
        r#"{{
  "name": "population job digest",
  "protocol": {{"name": "{}", "params": {}}},
  "initial": {{"kind": "counts", "counts": [50, 30, 20]}},
  "trials": 4,
  "master_seed": 8128,
  "max_rounds": {max_rounds},
  "shard_size": 2,
  "mode": "{mode}"{extra}
}}"#,
        protocol.0, protocol.1
    )
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "od_runtime_population_job_digests_{}",
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
fn population_job_outputs_match_the_pinned_digests() {
    let dir = temp_dir();
    let checkpoint = dir.join("job.checkpoint.json");
    let mut actual = Vec::new();
    for mode in MODES {
        for protocol in PROTOCOLS {
            for (stop_label, stop) in STOPS {
                let stop = format!(",\n  \"stop\": {stop}");
                for traced in [false, true] {
                    let suffix = if traced { "/traced" } else { "" };
                    let label = format!("{mode}/{}/{stop_label}{suffix}", protocol.0);
                    let telemetry = if traced { TRACE } else { "" };
                    let text = spec_text(protocol, mode, 150, &format!("{stop}{telemetry}"));
                    actual.push(digest_line(&label, &text, &checkpoint, traced));
                }
            }
        }
        // A cap of three rounds ends every trial before consensus.
        let label = format!("{mode}/three-majority/capped");
        let text = spec_text(PROTOCOLS[0], mode, 3, "");
        actual.push(digest_line(&label, &text, &checkpoint, false));
    }
    for adversary in ADVERSARIES {
        let label = format!("full/three-majority/adversary-{adversary}");
        let block = format!(",\n  \"adversary\": {{\"kind\": \"{adversary}\", \"budget\": 4}}");
        let text = spec_text(PROTOCOLS[0], "full", 150, &block);
        actual.push(digest_line(&label, &text, &checkpoint, false));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/population_job_digests.golden");
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
