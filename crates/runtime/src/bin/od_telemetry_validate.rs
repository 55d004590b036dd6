//! `od-telemetry-validate` — check telemetry artifacts against the
//! published schemas.
//!
//! ```text
//! od-telemetry-validate [--events <events.jsonl>] [--metrics <metrics.json>]
//! ```
//!
//! `--events` validates a JSONL event stream: every line parses as a
//! JSON object, `seq` counts up from 0 with no gaps, `t_ms` is present
//! and never below the previous line's, `kind` is a known event kind,
//! the kind's required fields are present with the right JSON shapes,
//! optional fields have them when present, no unknown fields appear,
//! and a `trial`'s outcome is a known one. Kinds and fields come from
//! `od_telemetry::Event::SCHEMA`, the one declaration the encoder is
//! generated from too; a kind or field is added there, never here, and
//! doing so regenerates od-telemetry's event byte golden on purpose.
//! `--metrics` validates an `od-run-metrics-v1` document: schema tag,
//! required sections, and the exact-moments encoding (power sums as
//! decimal strings). CI runs this against the artifacts of a smoke run,
//! so a drift in the envelope or in the metrics document fails the
//! build instead of downstream consumers.
//!
//! Exit codes: 0 valid, 1 invalid, 2 usage error.

use od_runtime::json::{parse, Json};
use od_telemetry::event::{FieldSchema, Shape};
use od_telemetry::Event;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: od-telemetry-validate [--events <events.jsonl>] [--metrics <metrics.json>]";

/// True when `value` has the JSON shape the schema declares.
fn has_shape(value: &Json, shape: Shape) -> bool {
    match shape {
        Shape::Str => value.as_str().is_some(),
        Shape::U64 => value.as_u64().is_some(),
        Shape::Num => value.as_f64().is_some(),
        Shape::Bool => value.as_bool().is_some(),
        Shape::NumArr => value
            .as_array()
            .is_some_and(|items| items.iter().all(|v| v.as_f64().is_some())),
    }
}

/// Validates one line and returns its `t_ms`, which must not be below
/// `prev_t_ms`, the previous line's.
fn validate_event_line(line: &str, expected_seq: u64, prev_t_ms: u64) -> Result<u64, String> {
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
    let t_ms = obj
        .get("t_ms")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer 't_ms'")?;
    if t_ms < prev_t_ms {
        return Err(format!(
            "t_ms {t_ms} is below the previous line's {prev_t_ms}"
        ));
    }
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing or non-string 'kind'")?;
    let schema = Event::schema(kind).ok_or_else(|| format!("unknown kind '{kind}'"))?;
    for &FieldSchema {
        name,
        shape,
        optional,
    } in schema.fields
    {
        match obj.get(name) {
            None if optional => {}
            None => return Err(format!("kind '{kind}' missing required field '{name}'")),
            Some(value) if !has_shape(value, shape) => {
                return Err(format!("kind '{kind}' field '{name}' has the wrong type"));
            }
            Some(_) => {}
        }
    }
    for key in obj.keys() {
        let known = matches!(key.as_str(), "seq" | "t_ms" | "kind")
            || schema.fields.iter().any(|field| field.name == key);
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
    Ok(t_ms)
}

fn validate_events(path: &PathBuf) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading file: {e}"))?;
    validate_event_stream(&text)
}

/// Validates a whole JSONL stream, returning its event count.
fn validate_event_stream(text: &str) -> Result<u64, String> {
    let mut count = 0u64;
    let mut t_ms = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        t_ms =
            validate_event_line(line, count, t_ms).map_err(|e| format!("line {}: {e}", i + 1))?;
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

#[cfg(test)]
mod tests {
    use super::validate_event_stream;

    const GOLDEN: &str = include_str!("../../../telemetry/tests/golden/events.jsonl");

    /// A valid two-line stream to mutate: a `span_enter` and a `trial`.
    fn stream(second: &str) -> String {
        format!("{{\"seq\":0,\"t_ms\":3,\"kind\":\"span_enter\",\"name\":\"shard\"}}\n{second}\n")
    }

    fn rejects(text: &str) -> String {
        validate_event_stream(text).expect_err("stream should be rejected")
    }

    #[test]
    fn the_event_golden_validates() {
        assert_eq!(validate_event_stream(GOLDEN), Ok(37));
    }

    #[test]
    fn a_well_formed_stream_validates() {
        let text = stream(
            r#"{"seq":1,"t_ms":4,"kind":"trial","shard":0,"trial":1,"rounds":9,"outcome":"stopped"}"#,
        );
        assert_eq!(validate_event_stream(&text), Ok(2));
    }

    #[test]
    fn rejects_an_unknown_kind() {
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":4,"kind":"span_open","name":"x"}"#,
        ));
        assert_eq!(err, "line 2: unknown kind 'span_open'");
    }

    #[test]
    fn rejects_a_missing_required_field() {
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":4,"kind":"trial","shard":0,"trial":1,"outcome":"capped"}"#,
        ));
        assert_eq!(err, "line 2: kind 'trial' missing required field 'rounds'");
    }

    #[test]
    fn rejects_a_wrongly_typed_required_field() {
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":4,"kind":"trial","shard":0,"trial":"1","rounds":9,"outcome":"capped"}"#,
        ));
        assert_eq!(err, "line 2: kind 'trial' field 'trial' has the wrong type");
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":4,"kind":"trace","trial":1,"gamma":[0.5,"x"],"truncated":false}"#,
        ));
        assert_eq!(err, "line 2: kind 'trace' field 'gamma' has the wrong type");
    }

    #[test]
    fn rejects_a_wrongly_typed_optional_field() {
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":4,"kind":"trial","shard":0,"trial":1,"rounds":9,"outcome":"consensus","winner":-2}"#,
        ));
        assert_eq!(
            err,
            "line 2: kind 'trial' field 'winner' has the wrong type"
        );
    }

    #[test]
    fn rejects_an_unknown_field() {
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":4,"kind":"serve_stop","requests":3,"spec_hash":"ab"}"#,
        ));
        assert_eq!(
            err,
            "line 2: kind 'serve_stop' has unknown field 'spec_hash'"
        );
    }

    #[test]
    fn rejects_a_seq_gap() {
        let err = rejects(&stream(
            r#"{"seq":2,"t_ms":4,"kind":"serve_stop","requests":3}"#,
        ));
        assert_eq!(err, "line 2: seq 2, expected 1 (gap or reorder)");
    }

    #[test]
    fn rejects_a_line_that_is_not_an_object() {
        let err = rejects(&stream("[1,2]"));
        assert_eq!(err, "line 2: line is not a JSON object");
    }

    #[test]
    fn rejects_an_unknown_trial_outcome() {
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":4,"kind":"trial","shard":0,"trial":1,"rounds":9,"outcome":"won"}"#,
        ));
        assert_eq!(err, "line 2: trial outcome 'won' is not a known outcome");
    }

    #[test]
    fn rejects_t_ms_going_backwards() {
        let err = rejects(&stream(
            r#"{"seq":1,"t_ms":2,"kind":"serve_stop","requests":3}"#,
        ));
        assert_eq!(err, "line 2: t_ms 2 is below the previous line's 3");
        let equal = stream(r#"{"seq":1,"t_ms":3,"kind":"serve_stop","requests":3}"#);
        assert_eq!(validate_event_stream(&equal), Ok(2));
    }

    #[test]
    fn rejects_an_empty_stream() {
        assert_eq!(rejects(""), "no events in file");
        assert_eq!(rejects("\n\n"), "no events in file");
    }
}
