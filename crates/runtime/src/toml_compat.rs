//! A minimal TOML-subset reader for job files.
//!
//! The offline environment has no `toml` crate, so `od-run` accepts a
//! pragmatic subset sufficient for job specs, converted into the same
//! [`Json`] tree the JSON path produces:
//!
//! * `key = value` pairs with string, integer, float, and boolean values,
//!   plus flat arrays of those;
//! * `[section]` and `[section.subsection]` table headers (arbitrary
//!   nesting by dotted path);
//! * `#` comments and blank lines.
//!
//! Not supported (rejected with errors, never silently misread): dotted
//! keys, inline tables, arrays of tables, multi-line strings, datetimes.

use crate::error::RuntimeError;
use crate::json::{Json, MAX_DEPTH};

/// Converts TOML-subset text into a JSON object tree.
///
/// # Errors
///
/// Returns a parse error naming the offending line.
pub fn toml_to_json(text: &str) -> Result<Json, RuntimeError> {
    let mut root = Json::object();
    let mut current_path: Vec<String> = Vec::new();
    for (line_index, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let error =
            |message: &str| RuntimeError::Parse(format!("TOML line {}: {message}", line_index + 1));
        if let Some(header) = line.strip_prefix('[') {
            if line.starts_with("[[") {
                return Err(error("arrays of tables are not supported"));
            }
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| error("unterminated table header"))?;
            let path: Vec<String> = header.split('.').map(|s| s.trim().to_string()).collect();
            if path.iter().any(|p| p.is_empty() || !is_bare_key(p)) {
                return Err(error("invalid table header"));
            }
            ensure_object(&mut root, &path)
                .ok_or_else(|| error("table path conflicts with an existing value"))?;
            current_path = path;
            continue;
        }
        let (key, value_text) = line
            .split_once('=')
            .ok_or_else(|| error("expected 'key = value'"))?;
        let key = key.trim();
        if !is_bare_key(key) {
            return Err(error(&format!(
                "unsupported key '{key}' (dotted/quoted keys are not supported)"
            )));
        }
        let value = parse_value(value_text.trim(), 0).map_err(|message| error(&message))?;
        let table = ensure_object(&mut root, &current_path)
            .ok_or_else(|| error("table path conflicts with an existing value"))?;
        table.insert(key, value);
    }
    Ok(root)
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Strips a `#` comment, respecting `"…"` string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Navigates (creating as needed) to the object at `path`.
fn ensure_object<'a>(root: &'a mut Json, path: &[String]) -> Option<&'a mut Json> {
    let mut node = root;
    for segment in path {
        let map = match node {
            Json::Obj(map) => map,
            _ => return None,
        };
        node = map.entry(segment.clone()).or_insert_with(Json::object);
        if !matches!(node, Json::Obj(_)) {
            return None;
        }
    }
    Some(node)
}

/// Parses one value; `depth` counts the arrays enclosing it, capped at
/// [`crate::json::MAX_DEPTH`] like JSON nesting.
fn parse_value(text: &str, depth: usize) -> Result<Json, String> {
    if text.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '"' {
                return Err("unescaped quote inside string".to_string());
            }
            if c == '\\' {
                match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => {
                        return Err(format!("unsupported escape '\\{}'", other.unwrap_or(' ')))
                    }
                }
            } else {
                out.push(c);
            }
        }
        return Ok(Json::Str(out));
    }
    if let Some(rest) = text.strip_prefix('[') {
        if depth == MAX_DEPTH {
            return Err(format!("arrays nest deeper than {MAX_DEPTH} levels"));
        }
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array (arrays must be single-line)".to_string())?
            .trim();
        if inner.is_empty() {
            return Ok(Json::Arr(Vec::new()));
        }
        let items = split_array_items(inner)?;
        return items
            .into_iter()
            .map(|item| parse_value(item.trim(), depth + 1))
            .collect::<Result<Vec<Json>, String>>()
            .map(Json::Arr);
    }
    match text {
        "true" => return Ok(Json::Bool(true)),
        "false" => return Ok(Json::Bool(false)),
        _ => {}
    }
    let numeric = text.replace('_', "");
    if !numeric.contains(['.', 'e', 'E']) {
        if let Ok(v) = numeric.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    numeric
        .parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("unrecognised value '{text}'"))
}

/// Splits array items on top-level commas (strings may contain commas).
fn split_array_items(inner: &str) -> Result<Vec<&str>, String> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut depth = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced brackets in array".to_string())?;
            }
            ',' if !in_string && depth == 0 => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    if in_string || depth != 0 {
        return Err("unbalanced quotes or brackets in array".to_string());
    }
    items.push(&inner[start..]);
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Converts `key = <value>` on a fresh thread with the default
    /// 2 MiB stack.
    fn convert_on_default_stack(value: String) -> Result<Json, RuntimeError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || toml_to_json(&format!("key = {value}\n")))
            .unwrap()
            .join()
            .unwrap()
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn array_nesting_is_capped_with_a_typed_error() {
        assert!(convert_on_default_stack(nested_arrays(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            let err = convert_on_default_stack(nested_arrays(depth)).unwrap_err();
            assert!(matches!(err, RuntimeError::Parse(_)), "{err:?}");
            assert!(err.to_string().contains("nest deeper"), "{err}");
        }
    }

    #[test]
    fn job_file_shape_converts() {
        let text = r#"
# a job
name = "hmaj sweep"
trials = 100
master_seed = 7
mode = "full"

[protocol]
name = "h-majority"

[protocol.params]
h = 5

[initial]
kind = "balanced"
n = 10_000
k = 64
"#;
        let value = toml_to_json(text).unwrap();
        assert_eq!(value.get("name").unwrap().as_str(), Some("hmaj sweep"));
        assert_eq!(value.get("trials").unwrap().as_u64(), Some(100));
        let protocol = value.get("protocol").unwrap();
        assert_eq!(protocol.get("name").unwrap().as_str(), Some("h-majority"));
        assert_eq!(
            protocol.get("params").unwrap().get("h").unwrap().as_u64(),
            Some(5)
        );
        assert_eq!(
            value.get("initial").unwrap().get("n").unwrap().as_u64(),
            Some(10_000)
        );
    }

    #[test]
    fn arrays_strings_and_comments() {
        let text = r#"
counts = [700, 300, 0]  # trailing comment
label = "has # hash and, comma"
flag = true
rate = 2.5
"#;
        let value = toml_to_json(text).unwrap();
        assert_eq!(value.get("counts").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            value.get("label").unwrap().as_str(),
            Some("has # hash and, comma")
        );
        assert_eq!(value.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("rate").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn unsupported_constructs_error() {
        assert!(toml_to_json("[[jobs]]").is_err());
        assert!(toml_to_json("a.b = 1").is_err());
        assert!(toml_to_json("x = ").is_err());
        assert!(toml_to_json("x = 2020-01-01").is_err());
        assert!(toml_to_json("[bad").is_err());
    }
}
