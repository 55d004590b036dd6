//! Byte goldens for the event encoding: one fully populated line per
//! event kind, plus the unset-optional form of every kind that has an
//! optional field. Whole lines are compared, so a renamed, reordered,
//! retyped or dropped field, a changed escape or a changed float
//! rendering fails here.
//!
//! The lines carry `seq` 0, 1, 2, ... and a non-decreasing `t_ms`, so
//! the golden file is also a valid stream for `od-telemetry-validate`.
//! Regenerate it on purpose with
//! `OD_UPDATE_GOLDEN=1 cargo test -p od-telemetry --test event_bytes`.

use od_telemetry::Event;
use std::path::Path;

/// Every kind once with all fields set, then the unset-optional forms.
fn cases() -> Vec<Event<'static>> {
    vec![
        Event::JobStart {
            job: "smoke \"a\"\n\\b\u{1}",
            spec: "0123456789abcdef",
            trials: 8,
            shards: 2,
        },
        Event::SpanEnter {
            name: "shard",
            parent: Some(1),
            shard: Some(4),
        },
        Event::SpanExit {
            span: 1,
            name: "shard",
            shard: Some(4),
            elapsed_us: 1234,
        },
        Event::Progress {
            shard: 0,
            trials_done: 1,
            trials_total: 2,
            rounds: 3,
            elapsed_us: 4,
            rounds_per_sec: f64::INFINITY,
            eta_s: 1.5,
        },
        Event::Trial {
            shard: 1,
            trial: 9,
            rounds: 57,
            outcome: "consensus",
            winner: Some(3),
        },
        Event::Trace {
            trial: 9,
            gamma: &[1.0, 0.5, 0.125, 1e-7],
            truncated: true,
        },
        Event::JobEnd {
            trials: 8,
            consensus: 5,
            stopped: 2,
            capped: 1,
            interrupted: false,
        },
        Event::QueueClaim {
            job: "q/a.json",
            worker: "w1",
            attempt: 2,
            expires_ms: 1500,
        },
        Event::QueueRenew {
            job: "q/a.json",
            worker: "w1",
            expires_ms: 2500,
        },
        Event::QueueTakeover {
            job: "q/a.json",
            worker: "w2",
            stale_worker: "w1",
        },
        Event::QueueRelease {
            job: "q/a.json",
            worker: "w2",
        },
        Event::QueueRetry {
            job: "q/a.json",
            attempt: 1,
            backoff_ms: 250,
            error: "spec: \"n\" must be > 0",
        },
        Event::QueueQuarantine {
            job: "q/a.json",
            attempts: 3,
            error: "boom",
        },
        Event::QueueDone {
            job: "q/a.json",
            worker: "w2",
        },
        Event::WorkerStart {
            worker: "w1",
            pool: "queue",
            lease_s: 0.5,
        },
        Event::WorkerStop {
            worker: "w1",
            executed: 0,
            done: 0,
            quarantined: 0,
            total: 0,
            passes: 1,
            interrupted: true,
            error: Some("scan failed"),
        },
        Event::CheckpointCorrupt {
            path: "q/a.json.checkpoint.json",
            error: "truncated",
        },
        Event::OrchStart {
            job: "q/job.json",
            spec: "abc123",
            ranges: 4,
            workers: 2,
        },
        Event::OrchSpawn {
            worker: "orch-1",
            child: 4242,
        },
        Event::OrchExit {
            worker: "orch-1",
            ok: true,
            code: Some(0),
        },
        Event::OrchQuarantine {
            range: "q/job.json.orch/range-0001.range.json",
            attempts: 3,
            error: "boom",
        },
        Event::OrchMerge {
            ranges: 4,
            shards: 16,
        },
        Event::QueueStaleDone {
            job: "q/a.json",
            recorded: "oldhash",
            current: "newhash",
        },
        Event::ServeStart {
            addr: "127.0.0.1:8080",
            queue: "q",
            workers: 2,
        },
        Event::ServeRequest {
            method: "POST",
            path: "/jobs",
            status: 201,
        },
        Event::ServeJob {
            job: "job-abc123",
            spec: "abc123",
            deduped: true,
        },
        Event::ServeResult {
            spec: "abc123",
            hit: false,
        },
        Event::ServeBatch {
            jobs: 5,
            accepted: 3,
            deduped: 2,
        },
        Event::ServeOverload {
            connections: 8,
            limit: 8,
        },
        Event::ServeGc {
            evicted: 2,
            kept: 4,
            bytes_freed: 512,
        },
        Event::ServeStop { requests: 11 },
        Event::Bench {
            series: "erdos_renyi/n=10000/seq_batched",
            mean_ns: 1234.5678,
            min_ns: 1000.25,
            samples: 3,
        },
        // Unset optional fields are left out of the line.
        Event::SpanEnter {
            name: "validate",
            parent: None,
            shard: None,
        },
        Event::SpanExit {
            span: 32,
            name: "validate",
            shard: None,
            elapsed_us: 7,
        },
        Event::Trial {
            shard: 0,
            trial: 2,
            rounds: 1000,
            outcome: "capped",
            winner: None,
        },
        Event::WorkerStop {
            worker: "w1",
            executed: 2,
            done: 3,
            quarantined: 1,
            total: 4,
            passes: 2,
            interrupted: false,
            error: None,
        },
        Event::OrchExit {
            worker: "orch-1",
            ok: false,
            code: None,
        },
    ]
}

#[test]
fn every_kind_encodes_to_its_pinned_bytes() {
    let actual: Vec<String> = cases()
        .iter()
        .enumerate()
        .map(|(seq, event)| event.encode(seq as u64, 100 + 10 * seq as u64))
        .collect();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events.jsonl");
    if std::env::var_os("OD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", actual.join("\n"))).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file present (set OD_UPDATE_GOLDEN=1 to create it)");
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
        "{} of {} lines changed (regenerate with OD_UPDATE_GOLDEN=1 only on purpose):\n{}",
        mismatches.len(),
        actual.len(),
        mismatches.join("\n")
    );
}

/// A kind added to `Event::SCHEMA` needs its golden lines too: one
/// fully populated, and one with its optional fields unset if it has any.
#[test]
fn the_golden_covers_every_declared_kind() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events.jsonl");
    let golden = std::fs::read_to_string(golden_path).unwrap();
    for schema in Event::SCHEMA {
        let needle = format!("\"kind\":\"{}\"", schema.kind);
        let lines = golden.lines().filter(|line| line.contains(&needle)).count();
        let wanted = if schema.fields.iter().any(|field| field.optional) {
            2
        } else {
            1
        };
        assert!(
            lines >= wanted,
            "kind '{}' has {lines} golden lines, wants {wanted}",
            schema.kind
        );
    }
}
