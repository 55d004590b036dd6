//! Telemetry is pure observation: any sink, any progress cadence, and
//! any trace sampling must leave checkpoint bytes and summary bytes
//! identical to the `NullSink` run. The proptest sweeps cadence ×
//! shard size × trace sampling (the CI thread matrix re-runs it under
//! `RAYON_NUM_THREADS` ∈ {1, 2, 4}); the golden test pins the JSONL
//! event schema so a field rename or reorder fails here, not in a
//! downstream consumer. A second proptest drains queues of every shape
//! (empty, done, poisoned, cancelled; one listed drain, or a worker
//! claiming each file by name and then sweeping) and checks that each
//! bus is bracketed by one `worker_start`/`worker_stop` pair, restates
//! the worker's tally, passes the schema validator, and changes no
//! marker or checkpoint byte.

use od_runtime::{
    run_job_with_metrics, run_queue_worker, Checkpoint, GraphFamily, GraphSpec, InitialSpec,
    JobSpec, QueueWorker, RunOptions, TelemetrySpec, TraceSpec, WorkerOptions, WorkerReport,
};
use od_telemetry::{JsonlSink, MemorySink, TelemetrySink};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "od_runtime_telemetry_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_spec(trials: u64, shard_size: u64) -> JobSpec {
    JobSpec {
        max_rounds: 20_000,
        shard_size,
        graph: Some(GraphSpec::new(GraphFamily::RandomRegular { d: 8 })),
        ..JobSpec::new(
            "telemetry invariance",
            "three-majority",
            InitialSpec::Counts(vec![140, 60]),
            trials,
            4242,
        )
    }
}

/// Runs `spec` with the given sink and a checkpoint, returning the
/// compact summary JSON and the raw checkpoint file bytes.
fn run_with(
    spec: &JobSpec,
    sink: Arc<dyn TelemetrySink>,
    progress_every: Option<u64>,
    dir: &std::path::Path,
    tag: &str,
) -> (String, Vec<u8>) {
    let path = dir.join(format!("{tag}.checkpoint.json"));
    let options = RunOptions {
        checkpoint_path: Some(path.clone()),
        sink,
        progress_every,
        ..RunOptions::default()
    };
    let (report, metrics) = run_job_with_metrics(spec, &options).unwrap();
    assert!(!report.interrupted);
    // The exact metrics restate the summary's aggregates: same merge,
    // same inputs, so the counters must agree with the report.
    assert_eq!(metrics.exact.counter("trials"), report.summary.trials);
    assert_eq!(metrics.exact.counter("consensus"), report.summary.consensus);
    let bytes = std::fs::read(&path).unwrap();
    (report.summary.to_json().to_string_compact(), bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // For every cadence/shard/trace combination, the telemetry run's
    // summary and checkpoint are byte-identical to the NullSink
    // baseline of the same spec (the telemetry block never enters the
    // content hash, so the checkpoints share one spec hash).
    #[test]
    fn any_sink_and_cadence_changes_no_result_byte(
        shard_size in 1u64..=4,
        cadence in 1u64..=5,
        sample_trials in 1u64..=3,
        small_cap in 0u64..=1,
    ) {
        // A tiny cap exercises trace truncation; the big one never hits it.
        let max_points = if small_cap == 1 { 2u64 } else { 4096 };
        let dir = temp_dir("prop");
        let baseline_spec = base_spec(8, shard_size);
        let (baseline_summary, baseline_bytes) = run_with(
            &baseline_spec,
            Arc::new(od_telemetry::NullSink),
            None,
            &dir,
            "baseline",
        );

        let mut telemetry_spec = baseline_spec.clone();
        telemetry_spec.telemetry = Some(TelemetrySpec {
            progress_every: Some(cadence),
            trace: Some(TraceSpec {
                sample_trials,
                max_points,
            }),
        });
        prop_assert_eq!(telemetry_spec.content_hash(), baseline_spec.content_hash());
        let sink = Arc::new(MemorySink::new());
        let (summary, bytes) =
            run_with(&telemetry_spec, sink.clone(), Some(cadence), &dir, "telemetry");
        // The sink really observed the run — this is not a vacuous pass.
        prop_assert!(sink.lines().iter().any(|l| l.contains("\"kind\":\"trial\"")));
        prop_assert!(sink.lines().iter().any(|l| l.contains("\"kind\":\"trace\"")));

        prop_assert_eq!(summary, baseline_summary);
        prop_assert_eq!(bytes, baseline_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Writes `jobs` small job files (plus one that fails validation when
/// `poison`) into a fresh `dir`, returning their paths.
fn write_queue(dir: &std::path::Path, jobs: usize, poison: bool) -> Vec<PathBuf> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let mut files = Vec::new();
    for i in 0..jobs {
        let spec = JobSpec {
            shard_size: 2,
            ..JobSpec::new(
                "lifecycle",
                "three-majority",
                InitialSpec::Balanced { n: 200, k: 4 },
                4,
                i as u64,
            )
        };
        let path = dir.join(format!("job-{i}.json"));
        std::fs::write(&path, spec.to_json().to_string_pretty()).unwrap();
        files.push(path);
    }
    if poison {
        let path = dir.join("poison.json");
        let spec = JobSpec::new(
            "poison",
            "no-such-protocol",
            InitialSpec::Counts(vec![2]),
            1,
            0,
        );
        std::fs::write(&path, spec.to_json().to_string_pretty()).unwrap();
        files.push(path);
    }
    files
}

/// Drains `files` of `dir` with `sink`: one listed drain, or a worker
/// that claims each file by name, then sweeps — its reports added up,
/// with the sweep's tally.
fn drain_with(
    dir: &std::path::Path,
    files: &[PathBuf],
    named: bool,
    cancelled: bool,
    sink: Arc<dyn TelemetrySink>,
) -> WorkerReport {
    let options = WorkerOptions {
        worker_id: "w".to_string(),
        poll_ms: 2,
        backoff_base_ms: 0,
        max_retries: 2,
        run: RunOptions {
            sink,
            ..RunOptions::default()
        },
        ..WorkerOptions::default()
    };
    if cancelled {
        options.run.cancel.cancel();
    }
    if !named {
        return run_queue_worker(dir, &options).unwrap();
    }
    let mut worker = QueueWorker::start(dir, &options);
    let mut life = WorkerReport::default();
    let add = |mut report: WorkerReport, life: &mut WorkerReport| {
        life.entries.append(&mut report.entries);
        life.passes += report.passes;
        life.interrupted |= report.interrupted;
        report
    };
    for file in files {
        add(worker.claim(file).unwrap(), &mut life);
        if life.interrupted {
            break;
        }
    }
    if !life.interrupted {
        let sweep = add(worker.sweep().unwrap(), &mut life);
        (life.done, life.quarantined, life.total) = (sweep.done, sweep.quarantined, sweep.total);
    }
    worker.stop(None);
    life
}

/// The sidecar files of a queue directory, by name, with their bytes
/// for the ones a run's outcome fixes (done markers, checkpoints).
fn sidecars(dir: &std::path::Path) -> Vec<(String, Option<Vec<u8>>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            let pinned = name.ends_with(".done.json") || name.ends_with(".checkpoint.json");
            let bytes = pinned.then(|| std::fs::read(&path).unwrap());
            Some((name, bytes))
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Whatever a worker finds — nothing, work, a poison job, a done
    // queue, a cancellation — its bus opens with `worker_start`, closes
    // with a `worker_stop` that restates its tally, and validates; and
    // the sidecars are byte-identical to the NullSink worker's.
    #[test]
    fn every_drain_leaves_a_bracketed_valid_bus_and_the_same_bytes(
        jobs in 0usize..=3,
        poison in 0u8..=1,
        named in 0u8..=1,
        cancelled in 0u8..=1,
        predrained in 0u8..=1,
    ) {
        let (poison, named, cancelled) = (poison == 1, named == 1, cancelled == 1);
        let root = temp_dir("lifecycle");
        let (quiet, observed) = (root.join("quiet"), root.join("observed"));
        let quiet_files = write_queue(&quiet, jobs, poison);
        let files = write_queue(&observed, jobs, poison);
        if predrained == 1 {
            // A second drain over a finished queue: the case whose bus
            // used to be empty.
            drain_with(&quiet, &quiet_files, named, false, Arc::new(od_telemetry::NullSink));
            drain_with(&observed, &files, named, false, Arc::new(od_telemetry::NullSink));
        }
        drain_with(&quiet, &quiet_files, named, cancelled, Arc::new(od_telemetry::NullSink));
        let bus = root.join("bus.jsonl");
        let sink = Arc::new(JsonlSink::create(&bus).unwrap());
        let report = drain_with(&observed, &files, named, cancelled, sink.clone());
        sink.flush();
        prop_assert_eq!(sidecars(&quiet), sidecars(&observed));

        let lines: Vec<od_runtime::json::Json> = std::fs::read_to_string(&bus)
            .unwrap()
            .lines()
            .map(|l| od_runtime::json::parse(l).unwrap())
            .collect();
        let kind = |e: &od_runtime::json::Json| {
            e.get("kind").and_then(od_runtime::json::Json::as_str).unwrap().to_string()
        };
        let u64_of = |e: &od_runtime::json::Json, key: &str| {
            e.get(key).and_then(od_runtime::json::Json::as_u64).unwrap()
        };
        prop_assert!(lines.len() >= 2);
        prop_assert_eq!(kind(&lines[0]), "worker_start");
        prop_assert_eq!(
            lines[0].get("pool").and_then(od_runtime::json::Json::as_str),
            Some("queue")
        );
        let stop = lines.last().unwrap();
        prop_assert_eq!(kind(stop), "worker_stop");
        prop_assert_eq!(
            lines.iter().filter(|e| kind(e).starts_with("worker_")).count(),
            2
        );
        prop_assert_eq!(u64_of(stop, "executed"), report.entries.len() as u64);
        prop_assert_eq!(u64_of(stop, "done"), report.done);
        prop_assert_eq!(u64_of(stop, "quarantined"), report.quarantined);
        prop_assert_eq!(u64_of(stop, "total"), report.total);
        prop_assert_eq!(u64_of(stop, "passes"), report.passes);
        prop_assert_eq!(
            stop.get("interrupted").and_then(od_runtime::json::Json::as_bool),
            Some(report.interrupted)
        );
        prop_assert_eq!(report.interrupted, cancelled);
        let validate = std::process::Command::new(env!("CARGO_BIN_EXE_od-telemetry-validate"))
            .arg("--events")
            .arg(&bus)
            .output()
            .unwrap();
        prop_assert!(
            validate.status.success(),
            "{}",
            String::from_utf8_lossy(&validate.stderr)
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A JSONL file sink is no different from the in-memory sink: same
/// summary, same checkpoint bytes, and the checkpoint resumes cleanly
/// under the baseline's hash.
#[test]
fn jsonl_sink_matches_null_sink_results() {
    let dir = temp_dir("jsonl");
    let spec = base_spec(6, 2);
    let (baseline_summary, baseline_bytes) = run_with(
        &spec,
        Arc::new(od_telemetry::NullSink),
        None,
        &dir,
        "baseline",
    );
    let events_path = dir.join("events.jsonl");
    let sink = Arc::new(JsonlSink::create(&events_path).unwrap());
    let (summary, bytes) = run_with(&spec, sink.clone(), Some(1), &dir, "jsonl");
    sink.flush();
    assert_eq!(summary, baseline_summary);
    assert_eq!(bytes, baseline_bytes);
    let checkpoint = Checkpoint::load(&dir.join("jsonl.checkpoint.json"))
        .unwrap()
        .unwrap();
    assert_eq!(checkpoint.spec_hash, spec.content_hash());
    assert!(std::fs::read_to_string(&events_path)
        .unwrap()
        .lines()
        .any(|l| l.contains("\"kind\":\"job_end\"")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The telemetry block round-trips through JSON, never enters the
/// content hash, and rejects the configurations the executor cannot
/// honour (zero cadence; tracing an adversary job, whose round
/// mechanics bypass the traced stop closures).
#[test]
fn telemetry_spec_roundtrips_and_validates() {
    let mut spec = base_spec(8, 2);
    spec.telemetry = Some(TelemetrySpec {
        progress_every: Some(3),
        trace: Some(TraceSpec {
            sample_trials: 2,
            max_points: 64,
        }),
    });
    let text = spec.to_json().to_string_pretty();
    let back = JobSpec::from_json_text(&text).unwrap();
    assert_eq!(back, spec, "roundtrip failed for {text}");
    assert!(spec.validate().is_ok());

    let mut plain = spec.clone();
    plain.telemetry = None;
    assert_eq!(plain.content_hash(), spec.content_hash());
    assert!(!plain
        .to_json()
        .to_string_compact()
        .contains("\"telemetry\":"));

    let mut zero_cadence = spec.clone();
    zero_cadence.telemetry = Some(TelemetrySpec {
        progress_every: Some(0),
        trace: None,
    });
    assert!(zero_cadence.validate().is_err());

    let mut zero_sample = spec.clone();
    zero_sample.telemetry = Some(TelemetrySpec {
        progress_every: None,
        trace: Some(TraceSpec {
            sample_trials: 0,
            max_points: 64,
        }),
    });
    assert!(zero_sample.validate().is_err());
}

/// Volatile envelope/timing fields, normalized so the golden file only
/// pins schema and deterministic content (event order is deterministic
/// because the job is a single shard).
fn normalize(line: &str) -> String {
    let mut value = od_runtime::json::parse(line).unwrap();
    if let od_runtime::json::Json::Obj(map) = &mut value {
        for volatile in ["t_ms", "elapsed_us", "rounds_per_sec", "eta_s"] {
            if map.contains_key(volatile) {
                map.insert(volatile.to_string(), od_runtime::json::Json::Int(0));
            }
        }
    }
    value.to_string_compact()
}

/// The golden JSONL schema test. Regenerate the golden file with
/// `OD_UPDATE_GOLDEN=1 cargo test -p od-runtime --test telemetry_invariance`.
#[test]
fn event_stream_matches_golden_schema() {
    let dir = temp_dir("golden");
    let mut spec = base_spec(4, 4); // one shard → deterministic event order
    spec.telemetry = Some(TelemetrySpec {
        progress_every: Some(2),
        trace: Some(TraceSpec {
            sample_trials: 2,
            max_points: 8,
        }),
    });
    let events_path = dir.join("events.jsonl");
    let sink = Arc::new(JsonlSink::create(&events_path).unwrap());
    let options = RunOptions {
        sink: sink.clone(),
        ..RunOptions::default()
    };
    let (report, _) = run_job_with_metrics(&spec, &options).unwrap();
    assert!(!report.interrupted);
    sink.flush();
    let actual: Vec<String> = std::fs::read_to_string(&events_path)
        .unwrap()
        .lines()
        .map(normalize)
        .collect();
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/telemetry_events.golden");
    if std::env::var_os("OD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", actual.join("\n"))).unwrap();
    }
    let golden: Vec<String> = std::fs::read_to_string(&golden_path)
        .expect("golden file present (set OD_UPDATE_GOLDEN=1 to create it)")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(
        actual, golden,
        "event schema drifted; if intended, regenerate with OD_UPDATE_GOLDEN=1"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Normalizes supervisor telemetry: volatile envelope fields, the
/// child pid, the pid inside worker ids, and the temp-dir prefix of the
/// job path — leaving schema and deterministic content.
fn normalize_orch(line: &str) -> String {
    let mut value = od_runtime::json::parse(line).unwrap();
    if let od_runtime::json::Json::Obj(map) = &mut value {
        for volatile in ["t_ms", "elapsed_us"] {
            if map.contains_key(volatile) {
                map.insert(volatile.to_string(), od_runtime::json::Json::Int(0));
            }
        }
        if map.contains_key("child") {
            map.insert("child".to_string(), od_runtime::json::Json::Int(0));
        }
        if let Some(od_runtime::json::Json::Str(worker)) = map.get("worker") {
            // worker-<pid> → worker-0
            if worker.starts_with("worker-") {
                let fixed = "worker-0".to_string();
                map.insert("worker".to_string(), od_runtime::json::Json::Str(fixed));
            }
        }
        if let Some(od_runtime::json::Json::Str(job)) = map.get("job") {
            let name = std::path::Path::new(job)
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(job)
                .to_string();
            map.insert("job".to_string(), od_runtime::json::Json::Str(name));
        }
    }
    value.to_string_compact()
}

/// The golden supervisor event stream of an orchestrated run: exactly
/// `orch_start`, `orch_spawn`, `orch_exit` (clean, code 0), and
/// `orch_merge`, with pinned fields. One worker and a fixed range
/// count make the sequence deterministic. Regenerate with
/// `OD_UPDATE_GOLDEN=1 cargo test -p od-runtime --test telemetry_invariance`.
#[test]
fn orchestrated_event_stream_matches_golden_schema() {
    let dir = temp_dir("orch_golden");
    let spec = JobSpec {
        shard_size: 2,
        ..JobSpec::new(
            "orch golden",
            "three-majority",
            InitialSpec::Balanced { n: 300, k: 4 },
            8,
            2025,
        )
    };
    let job_path = dir.join("job.json");
    std::fs::write(&job_path, spec.to_json().to_string_pretty()).unwrap();
    let events_path = dir.join("events.jsonl");
    let sink = Arc::new(JsonlSink::create(&events_path).unwrap());
    let report = od_runtime::orchestrate(
        &job_path,
        &od_runtime::OrchOptions {
            workers: 1,
            ranges: Some(2),
            // The test binary is not od-run; children must exec the
            // real CLI.
            program: Some(PathBuf::from(env!("CARGO_BIN_EXE_od-run"))),
            run: RunOptions {
                sink: sink.clone(),
                ..RunOptions::default()
            },
            ..od_runtime::OrchOptions::default()
        },
    )
    .unwrap();
    assert_eq!(report.completed_shards, 4);
    assert_eq!(report.quarantined_ranges, 0);
    sink.flush();
    let actual: Vec<String> = std::fs::read_to_string(&events_path)
        .unwrap()
        .lines()
        .map(normalize_orch)
        .collect();
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/telemetry_orch_events.golden");
    if std::env::var_os("OD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", actual.join("\n"))).unwrap();
    }
    let golden: Vec<String> = std::fs::read_to_string(&golden_path)
        .expect("golden file present (set OD_UPDATE_GOLDEN=1 to create it)")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(
        actual, golden,
        "orchestration event schema drifted; if intended, regenerate with OD_UPDATE_GOLDEN=1"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
