//! Totality of the HTTP front door: `http::parse_request` never panics,
//! whatever bytes a peer sends, and a valid pipelined request stream
//! parses to the same requests however the bytes are split across
//! reads. Run in a debug build, where arithmetic overflow panics too.

use od_serve::http::{parse_request, Request};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fragments for request-shaped inputs: random bytes rarely get past
/// the request line, these reach the header and body paths.
const TOKENS: [&str; 20] = [
    "GET",
    "POST",
    " ",
    "/jobs",
    "HTTP/1.1",
    "HTTP/1.0",
    "HTTP/2",
    "\r\n",
    "\n",
    "\r",
    ":",
    "Content-Length",
    "content-length: ",
    "18446744073709551616",
    "-1",
    "1048577",
    "5",
    "Connection: close",
    "Connection: keep-alive",
    "x",
];

/// Parses requests off the front of `buf` until it holds only an
/// incomplete prefix or an error, the way od-serve drains a
/// connection's buffer.
fn drain(buf: &mut Vec<u8>, out: &mut Vec<Request>) -> std::io::Result<()> {
    while let Some((request, consumed)) = parse_request(buf)? {
        buf.drain(..consumed);
        out.push(request);
    }
    Ok(())
}

/// Fails the case if `parse_request` (or draining pipelined requests)
/// panics on `bytes`, or claims more bytes than it was given.
fn assert_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(Some((_, consumed))) = parse_request(bytes) {
            assert!(consumed <= bytes.len(), "consumed past the buffer");
        }
        let _ = drain(&mut bytes.to_vec(), &mut Vec::new());
    }));
    prop_assert!(outcome.is_ok(), "panicked on input {bytes:?}");
    Ok(())
}

/// Renders one valid request from `words`, which pick the method, path,
/// version, connection header and body bytes.
fn request_bytes(words: &[u64]) -> Vec<u8> {
    let method = ["GET", "POST", "DELETE"][(words[0] % 3) as usize];
    let path = ["/jobs", "/results/abc?x=1", "/metrics", "/"][(words[1] % 4) as usize];
    let version = ["HTTP/1.1", "HTTP/1.0"][(words[2] % 2) as usize];
    let connection = ["", "Connection: close\r\n", "connection: Keep-Alive\r\n"];
    let body: Vec<u8> = words[3..].iter().map(|&w| w as u8).collect();
    let mut bytes = format!(
        "{method} {path} {version}\r\nHost: localhost\r\n{}Content-Length: {}\r\n\r\n",
        connection[(words[2] % 3) as usize],
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(&body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..512)) {
        assert_total(&bytes)?;
    }

    #[test]
    fn token_soup_never_panics(picks in collection::vec(0usize..TOKENS.len(), 0..64)) {
        let text: String = picks.iter().map(|&t| TOKENS[t]).collect();
        assert_total(text.as_bytes())?;
    }

    #[test]
    fn any_chunking_of_a_pipelined_stream_parses_the_same_requests(
        words in collection::vec(0u64..1_000, 3..200),
        lengths in collection::vec(1usize..24, 1..6),
        cuts in collection::vec(1usize..64, 1..64),
    ) {
        // Split `words` into one request per entry of `lengths`.
        let mut stream = Vec::new();
        let mut rest = &words[..];
        for &len in &lengths {
            if rest.len() < 3 {
                break;
            }
            let take = (3 + len).min(rest.len());
            stream.extend(request_bytes(&rest[..take]));
            rest = &rest[take..];
        }
        let mut whole = Vec::new();
        let mut buf = stream.clone();
        drain(&mut buf, &mut whole).unwrap();
        prop_assert!(!whole.is_empty());
        prop_assert!(buf.is_empty(), "a valid stream left {} bytes", buf.len());
        // Feed the same bytes in chunks, draining after every read.
        let mut chunked = Vec::new();
        let mut buf = Vec::new();
        let (mut at, mut cut) = (0, 0);
        while at < stream.len() {
            let end = (at + cuts[cut % cuts.len()]).min(stream.len());
            buf.extend_from_slice(&stream[at..end]);
            drain(&mut buf, &mut chunked).unwrap();
            at = end;
            cut += 1;
        }
        prop_assert!(buf.is_empty(), "chunked feed left {} bytes", buf.len());
        prop_assert_eq!(chunked, whole);
    }
}
