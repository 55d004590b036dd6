//! `od-telemetry-validate` — check telemetry artifacts against the
//! published schemas.
//!
//! ```text
//! od-telemetry-validate [--events <events.jsonl>] [--metrics <metrics.json>]
//! ```
//!
//! `--events` validates a JSONL event stream: every line parses as a
//! JSON object, `seq` counts up from 0 with no gaps, `t_ms` is present,
//! `kind` is a known event kind, the kind's required fields are present
//! with the right JSON types, and no unknown fields appear. `--metrics`
//! validates an `od-run-metrics-v1` document: schema tag, required
//! sections, and the exact-moments encoding (power sums as decimal
//! strings). CI runs this against the artifacts of a smoke run, so a
//! schema drift fails the build instead of downstream consumers.
//!
//! Exit codes: 0 valid, 1 invalid, 2 usage error.

use od_runtime::json::{parse, Json};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: od-telemetry-validate [--events <events.jsonl>] [--metrics <metrics.json>]";

/// Field type expectations, by the subset of JSON shapes the schema uses.
#[derive(Clone, Copy)]
enum Ty {
    Str,
    U64,
    /// Any finite JSON number.
    Num,
    Bool,
    /// Array of numbers.
    NumArr,
}

fn check_type(value: &Json, ty: Ty) -> bool {
    match ty {
        Ty::Str => value.as_str().is_some(),
        Ty::U64 => value.as_u64().is_some(),
        Ty::Num => value.as_f64().is_some(),
        Ty::Bool => value.as_bool().is_some(),
        Ty::NumArr => value
            .as_array()
            .is_some_and(|items| items.iter().all(|v| v.as_f64().is_some())),
    }
}

/// A field list: names paired with their expected JSON shapes.
type Fields = &'static [(&'static str, Ty)];

/// `(required, optional)` fields for one event kind, beyond the
/// envelope (`seq`, `t_ms`, `kind`).
fn kind_schema(kind: &str) -> Option<(Fields, Fields)> {
    // Field lists mirror `od_telemetry::Event::write_fields` — extend
    // both together.
    match kind {
        "job_start" => Some((
            &[
                ("job", Ty::Str),
                ("spec", Ty::Str),
                ("trials", Ty::U64),
                ("shards", Ty::U64),
            ],
            &[],
        )),
        "span_enter" => Some((
            &[("name", Ty::Str)],
            &[("parent", Ty::U64), ("shard", Ty::U64)],
        )),
        "span_exit" => Some((
            &[
                ("span", Ty::U64),
                ("name", Ty::Str),
                ("elapsed_us", Ty::U64),
            ],
            &[("shard", Ty::U64)],
        )),
        "progress" => Some((
            &[
                ("shard", Ty::U64),
                ("trials_done", Ty::U64),
                ("trials_total", Ty::U64),
                ("rounds", Ty::U64),
                ("elapsed_us", Ty::U64),
                ("rounds_per_sec", Ty::Num),
                ("eta_s", Ty::Num),
            ],
            &[],
        )),
        "trial" => Some((
            &[
                ("shard", Ty::U64),
                ("trial", Ty::U64),
                ("rounds", Ty::U64),
                ("outcome", Ty::Str),
            ],
            &[("winner", Ty::U64)],
        )),
        "trace" => Some((
            &[
                ("trial", Ty::U64),
                ("gamma", Ty::NumArr),
                ("truncated", Ty::Bool),
            ],
            &[],
        )),
        "job_end" => Some((
            &[
                ("trials", Ty::U64),
                ("consensus", Ty::U64),
                ("stopped", Ty::U64),
                ("capped", Ty::U64),
                ("interrupted", Ty::Bool),
            ],
            &[],
        )),
        "queue_claim" => Some((
            &[
                ("job", Ty::Str),
                ("worker", Ty::Str),
                ("attempt", Ty::U64),
                ("expires_ms", Ty::U64),
            ],
            &[],
        )),
        "queue_renew" => Some((
            &[
                ("job", Ty::Str),
                ("worker", Ty::Str),
                ("expires_ms", Ty::U64),
            ],
            &[],
        )),
        "queue_takeover" => Some((
            &[
                ("job", Ty::Str),
                ("worker", Ty::Str),
                ("stale_worker", Ty::Str),
            ],
            &[],
        )),
        "queue_release" => Some((&[("job", Ty::Str), ("worker", Ty::Str)], &[])),
        "queue_retry" => Some((
            &[
                ("job", Ty::Str),
                ("attempt", Ty::U64),
                ("backoff_ms", Ty::U64),
                ("error", Ty::Str),
            ],
            &[],
        )),
        "queue_quarantine" => Some((
            &[("job", Ty::Str), ("attempts", Ty::U64), ("error", Ty::Str)],
            &[],
        )),
        "queue_done" => Some((&[("job", Ty::Str), ("worker", Ty::Str)], &[])),
        "worker_start" => Some((
            &[("worker", Ty::Str), ("pool", Ty::Str), ("lease_s", Ty::Num)],
            &[],
        )),
        "worker_stop" => Some((
            &[
                ("worker", Ty::Str),
                ("executed", Ty::U64),
                ("done", Ty::U64),
                ("quarantined", Ty::U64),
                ("total", Ty::U64),
                ("passes", Ty::U64),
                ("interrupted", Ty::Bool),
            ],
            // Present only when an infrastructure error ended the drain.
            &[("error", Ty::Str)],
        )),
        "checkpoint_corrupt" => Some((&[("path", Ty::Str), ("error", Ty::Str)], &[])),
        "orch_start" => Some((
            &[
                ("job", Ty::Str),
                ("spec", Ty::Str),
                ("ranges", Ty::U64),
                ("workers", Ty::U64),
            ],
            &[],
        )),
        "orch_spawn" => Some((&[("worker", Ty::Str), ("child", Ty::U64)], &[])),
        "orch_exit" => Some((
            &[("worker", Ty::Str), ("ok", Ty::Bool)],
            // Signal deaths have no exit code.
            &[("code", Ty::U64)],
        )),
        "orch_revoke" => Some((&[("range", Ty::Str), ("worker", Ty::Str)], &[])),
        "orch_quarantine" => Some((
            &[
                ("range", Ty::Str),
                ("attempts", Ty::U64),
                ("error", Ty::Str),
            ],
            &[],
        )),
        "orch_merge" => Some((&[("ranges", Ty::U64), ("shards", Ty::U64)], &[])),
        "queue_stale_done" => Some((
            &[
                ("job", Ty::Str),
                ("recorded", Ty::Str),
                ("current", Ty::Str),
            ],
            &[],
        )),
        "serve_start" => Some((
            &[("addr", Ty::Str), ("queue", Ty::Str), ("workers", Ty::U64)],
            &[],
        )),
        "serve_request" => Some((
            &[("method", Ty::Str), ("path", Ty::Str), ("status", Ty::U64)],
            &[],
        )),
        "serve_job" => Some((
            &[("job", Ty::Str), ("spec", Ty::Str), ("deduped", Ty::Bool)],
            &[],
        )),
        "serve_result" => Some((&[("spec", Ty::Str), ("hit", Ty::Bool)], &[])),
        "serve_batch" => Some((
            &[
                ("jobs", Ty::U64),
                ("accepted", Ty::U64),
                ("deduped", Ty::U64),
            ],
            &[],
        )),
        "serve_overload" => Some((&[("connections", Ty::U64), ("limit", Ty::U64)], &[])),
        "serve_gc" => Some((
            &[
                ("evicted", Ty::U64),
                ("kept", Ty::U64),
                ("bytes_freed", Ty::U64),
            ],
            &[],
        )),
        "serve_stop" => Some((&[("requests", Ty::U64)], &[])),
        "bench" => Some((
            &[
                ("series", Ty::Str),
                ("mean_ns", Ty::Num),
                ("min_ns", Ty::Num),
                ("samples", Ty::U64),
            ],
            &[],
        )),
        _ => None,
    }
}

fn validate_event_line(line: &str, expected_seq: u64) -> Result<(), String> {
    let value = parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let obj = value.as_object().ok_or("line is not a JSON object")?;
    let seq = obj
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer 'seq'")?;
    if seq != expected_seq {
        return Err(format!(
            "seq {seq}, expected {expected_seq} (gap or reorder)"
        ));
    }
    obj.get("t_ms")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer 't_ms'")?;
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing or non-string 'kind'")?;
    let (required, optional) = kind_schema(kind).ok_or_else(|| format!("unknown kind '{kind}'"))?;
    for &(name, ty) in required {
        let field = obj
            .get(name)
            .ok_or_else(|| format!("kind '{kind}' missing required field '{name}'"))?;
        if !check_type(field, ty) {
            return Err(format!("kind '{kind}' field '{name}' has the wrong type"));
        }
    }
    for &(name, ty) in optional {
        if let Some(field) = obj.get(name) {
            if !check_type(field, ty) {
                return Err(format!("kind '{kind}' field '{name}' has the wrong type"));
            }
        }
    }
    for key in obj.keys() {
        let known = key == "seq"
            || key == "t_ms"
            || key == "kind"
            || required.iter().any(|&(name, _)| name == key)
            || optional.iter().any(|&(name, _)| name == key);
        if !known {
            return Err(format!("kind '{kind}' has unknown field '{key}'"));
        }
    }
    if kind == "trial" {
        let outcome = obj.get("outcome").and_then(Json::as_str).unwrap_or("");
        if !matches!(outcome, "consensus" | "stopped" | "capped") {
            return Err(format!("trial outcome '{outcome}' is not a known outcome"));
        }
    }
    Ok(())
}

fn validate_events(path: &PathBuf) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading file: {e}"))?;
    let mut count = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        validate_event_line(line, count).map_err(|e| format!("line {}: {e}", i + 1))?;
        count += 1;
    }
    if count == 0 {
        return Err("no events in file".to_string());
    }
    Ok(count)
}

fn require<'a>(obj: &'a Json, key: &str, context: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{context}: missing '{key}'"))
}

fn validate_metrics(path: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading file: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.as_object().is_none() {
        return Err("document is not a JSON object".to_string());
    }
    let schema = require(&doc, "schema", "document")?
        .as_str()
        .ok_or("'schema' is not a string")?;
    if schema != "od-run-metrics-v1" {
        return Err(format!("schema '{schema}', expected 'od-run-metrics-v1'"));
    }
    require(&doc, "job", "document")?
        .as_str()
        .ok_or("'job' is not a string")?;
    require(&doc, "spec", "document")?
        .as_str()
        .ok_or("'spec' is not a string")?;
    let phases = require(&doc, "phases", "document")?
        .as_object()
        .ok_or("'phases' is not an object")?;
    for name in ["validate", "build", "execute", "merge"] {
        if !phases.contains_key(name) {
            return Err(format!("phases: missing '{name}'"));
        }
    }
    let shards = require(&doc, "shards", "document")?
        .as_array()
        .ok_or("'shards' is not an array")?;
    for (i, shard) in shards.iter().enumerate() {
        let context = format!("shards[{i}]");
        for key in ["shard", "trials", "rounds", "elapsed_us"] {
            require(shard, key, &context)?
                .as_u64()
                .ok_or_else(|| format!("{context}: '{key}' is not an integer"))?;
        }
        require(shard, "rounds_per_sec", &context)?
            .as_f64()
            .ok_or_else(|| format!("{context}: 'rounds_per_sec' is not a number"))?;
    }
    let exact = require(&doc, "exact", "document")?;
    let counters = require(exact, "counters", "exact")?
        .as_object()
        .ok_or("exact.counters is not an object")?;
    for name in ["trials", "consensus", "stopped", "capped"] {
        if !counters.contains_key(name) {
            return Err(format!("exact.counters: missing '{name}'"));
        }
    }
    let moments = require(exact, "moments", "exact")?
        .as_object()
        .ok_or("exact.moments is not an object")?;
    for (name, m) in moments {
        let context = format!("exact.moments.{name}");
        require(m, "count", &context)?
            .as_u64()
            .ok_or_else(|| format!("{context}: 'count' is not an integer"))?;
        // Power sums are u128 and therefore decimal strings, not JSON
        // numbers.
        for key in ["sum", "sum_sq"] {
            let value = require(m, key, &context)?
                .as_str()
                .ok_or_else(|| format!("{context}: '{key}' is not a decimal string"))?;
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(format!("{context}: '{key}' is not a decimal string"));
            }
        }
    }
    require(exact, "histograms", "exact")?
        .as_object()
        .ok_or("exact.histograms is not an object")?;
    Ok(())
}

fn main() -> ExitCode {
    let mut events = None;
    let mut metrics = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            "--events" => match argv.next() {
                Some(value) => events = Some(PathBuf::from(value)),
                None => {
                    eprintln!("--events needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--metrics" => match argv.next() {
                Some(value) => metrics = Some(PathBuf::from(value)),
                None => {
                    eprintln!("--metrics needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if events.is_none() && metrics.is_none() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut ok = true;
    if let Some(path) = &events {
        match validate_events(path) {
            Ok(count) => println!("{}: {count} events, schema ok", path.display()),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(path) = &metrics {
        match validate_metrics(path) {
            Ok(()) => println!("{}: od-run-metrics-v1 ok", path.display()),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
