//! A minimal HTTP/1.1 slice: exactly the surface the job service needs,
//! hand-rolled on `std` (the build environment is offline, so no HTTP
//! crate — the same constraint that put `rayon` under `crates/vendor/`).
//!
//! Supported: request line + headers + `Content-Length` bodies on the
//! request side; fixed-length responses with `Connection: keep-alive`
//! (the HTTP/1.1 default, so one socket carries many requests) or
//! `Connection: close` on the response side. Not supported (and not
//! needed): chunked encoding, pipelining (the service rejects it —
//! see [`crate::service`]), TLS, trailers.
//!
//! Parsing is *incremental*: [`parse_request`] reads a complete request
//! off the front of a caller-owned byte buffer without consuming
//! anything on a partial prefix, so callers feeding it from sockets
//! with short read timeouts never lose mid-request bytes between
//! attempts. Every dimension of a request is bounded — body bytes
//! ([`MAX_BODY_BYTES`]), header-block bytes ([`MAX_HEADER_BYTES`],
//! enforced even before the block completes), and header count
//! ([`MAX_HEADERS`]) — so no single connection can grow a buffer
//! without bound.

use std::io::Write;

/// The largest request body the service accepts (a batch of job specs
/// is tens of kilobytes; a megabyte is generous).
pub const MAX_BODY_BYTES: u64 = 1 << 20;

/// The largest header block (request line through the blank line) the
/// service accepts. A peer streaming an endless header line is cut off
/// here instead of growing a buffer without bound.
pub const MAX_HEADER_BYTES: usize = 8 << 10;

/// The most headers one request may carry.
pub const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request target path, query string included.
    pub path: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// True when the client asked for the connection to close after
    /// this exchange: an explicit `Connection: close` header, or an
    /// HTTP/1.0 request without `Connection: keep-alive`.
    pub close: bool,
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// The next `\n`-terminated line starting at `*pos` (terminator and a
/// trailing `\r` stripped), advancing `*pos` past it; `None` when the
/// buffer ends before the terminator.
fn take_line<'b>(buf: &'b [u8], pos: &mut usize) -> std::io::Result<Option<&'b str>> {
    let rest = &buf[*pos..];
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let mut line = &rest[..nl];
    if line.last() == Some(&b'\r') {
        line = &line[..line.len() - 1];
    }
    *pos += nl + 1;
    std::str::from_utf8(line)
        .map(Some)
        .map_err(|_| invalid("header bytes are not UTF-8"))
}

/// The verdict on a header block whose terminating blank line has not
/// arrived yet: tolerable (wait for more bytes) only within the header
/// cap — everything buffered so far is header bytes.
fn incomplete_headers(buf: &[u8]) -> std::io::Result<Option<(Request, usize)>> {
    if buf.len() > MAX_HEADER_BYTES {
        Err(invalid("request headers too large"))
    } else {
        Ok(None)
    }
}

/// Parses one request from the *front* of `buf`. Returns the request
/// plus the number of bytes it occupied (the caller drains exactly
/// those, keeping any over-read — pipelined — bytes), or `Ok(None)`
/// when `buf` holds only an incomplete prefix and more bytes are
/// needed. The parser never consumes anything itself, so a caller that
/// accumulates bytes across partial reads (short socket timeouts, slow
/// peers) loses nothing between attempts.
///
/// # Errors
///
/// Returns `InvalidData` for a malformed request line or header, an
/// oversized body (`MAX_BODY_BYTES`), an oversized header block
/// (`MAX_HEADER_BYTES` — enforced even while the block is incomplete,
/// so an endless header line cannot grow the buffer without bound), or
/// more than `MAX_HEADERS` headers.
pub fn parse_request(buf: &[u8]) -> std::io::Result<Option<(Request, usize)>> {
    let mut pos = 0usize;
    let Some(line) = take_line(buf, &mut pos)? else {
        return incomplete_headers(buf);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version)) => (method, path, version),
        _ => return Err(invalid("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    // HTTP/1.0 closes by default; HTTP/1.1 keeps alive by default.
    let mut close = version == "HTTP/1.0";
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length: u64 = 0;
    let mut headers = 0usize;
    loop {
        let Some(header) = take_line(buf, &mut pos)? else {
            return incomplete_headers(buf);
        };
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(invalid("malformed header"));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| invalid("malformed Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
    }
    if pos > MAX_HEADER_BYTES {
        return Err(invalid("request headers too large"));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("request body too large"));
    }
    let end = pos + content_length as usize;
    if buf.len() < end {
        return Ok(None); // body still in flight
    }
    let body = buf[pos..end].to_vec();
    Ok(Some((
        Request {
            method,
            path,
            body,
            close,
        },
        end,
    )))
}

/// The standard reason phrase for the status codes the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one fixed-length response. `close` selects the
/// `Connection: close` downgrade (the final response on a connection);
/// otherwise the response advertises `Connection: keep-alive`.
///
/// The status line, headers and body are rendered into one buffer and
/// handed to the writer in a single `write_all`. Written piecemeal to a
/// socket, the headers leave as several small segments, and Nagle's
/// algorithm holds each later one back until the peer's delayed ACK
/// (about 40 ms) — on every keep-alive response.
///
/// # Errors
///
/// Propagates transport I/O errors.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let mut response = Vec::with_capacity(128 + content_type.len() + body.len());
    write!(
        response,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" }
    )?;
    response.extend_from_slice(body);
    writer.write_all(&response)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one complete request that fills `raw` exactly.
    fn parse_whole(raw: &[u8]) -> Request {
        let (request, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        request
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = parse_whole(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"body");
        assert!(!req.close, "HTTP/1.1 keeps alive by default");
    }

    #[test]
    fn get_without_body_parses() {
        let req = parse_whole(b"GET /jobs/job-abc HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/job-abc");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        assert!(parse_whole(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").close);
        assert!(
            parse_whole(b"GET / HTTP/1.0\r\n\r\n").close,
            "HTTP/1.0 closes by default"
        );
        assert!(!parse_whole(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").close);
    }

    #[test]
    fn empty_input_is_incomplete() {
        assert!(parse_request(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert!(parse_request(b"not http\r\n\r\n").is_err());
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20);
        assert!(parse_request(huge.as_bytes()).is_err());
        assert!(parse_request(b"GET / SPDY/3\r\n\r\n").is_err());
        // Headers cut off mid-block are incomplete, not a request: the
        // socket reader answers an end-of-stream here with a 400.
        assert!(parse_request(b"GET / HTTP/1.1\r\nHost: x\r\n")
            .unwrap()
            .is_none());
    }

    #[test]
    fn incremental_parse_waits_for_complete_requests() {
        let first = b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let second = b"GET /next HTTP/1.1\r\n\r\n";
        let mut full = first.to_vec();
        full.extend_from_slice(second);
        // Every strict prefix of the first request is incomplete — not
        // an error, and nothing is consumed.
        for cut in 0..first.len() {
            assert!(
                parse_request(&full[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (request, consumed) = parse_request(&full).unwrap().unwrap();
        assert_eq!(consumed, first.len(), "must consume exactly one request");
        assert_eq!(request.path, "/jobs");
        assert_eq!(request.body, b"body");
        // The leftover bytes parse as the next request.
        let (request, consumed) = parse_request(&full[first.len()..]).unwrap().unwrap();
        assert_eq!(request.path, "/next");
        assert_eq!(consumed, second.len());
    }

    #[test]
    fn header_caps_bound_buffering() {
        // An endless header line errors once past the cap, even with no
        // terminator in sight; under the cap it is merely incomplete.
        let mut flood = b"GET / HTTP/1.1\r\nX-Flood: ".to_vec();
        flood.resize(MAX_HEADER_BYTES + 1, b'a');
        assert!(parse_request(&flood).is_err());
        assert!(parse_request(&flood[..MAX_HEADER_BYTES / 2])
            .unwrap()
            .is_none());
        // A complete block over the byte cap is rejected too.
        let huge_line = format!(
            "GET / HTTP/1.1\r\nX-Flood: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert!(parse_request(huge_line.as_bytes()).is_err());
        // One header over the count cap is rejected.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert!(parse_request(&many).is_err());
        // Exactly at the count cap is fine.
        let mut at_cap = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            at_cap.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        at_cap.extend_from_slice(b"\r\n");
        assert!(parse_request(&at_cap).unwrap().is_some());
    }

    #[test]
    fn parse_request_leaves_pipelined_bytes_unconsumed() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (first, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let rest = &raw[consumed..];
        let (second, consumed) = parse_request(rest).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(parse_request(&rest[consumed..]).unwrap().is_none());
    }

    #[test]
    fn response_carries_length_and_connection_verdict() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "application/json", b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert_eq!(reason(503), "Service Unavailable");
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_goes_out_in_one_write_with_pinned_bytes() {
        let cases: [(u16, &[u8], bool, &str); 2] = [
            (
                200,
                b"{\"ok\":true}",
                false,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}",
            ),
            (
                404,
                b"{}",
                true,
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
                 Content-Length: 2\r\nConnection: close\r\n\r\n{}",
            ),
        ];
        for (status, body, close, expected) in cases {
            let mut out = CountingWriter::default();
            write_response(&mut out, status, "application/json", body, close).unwrap();
            assert_eq!(out.writes, 1, "status {status}: one write per response");
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
        }
    }
}
