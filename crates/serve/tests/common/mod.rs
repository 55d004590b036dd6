//! Helpers shared by the failpoint suites, which drive real `od-serve`
//! child processes with `OD_FAILPOINTS` armed in the child's
//! environment only.

// Each suite uses its own subset.
#![allow(dead_code)]

use od_runtime::json::{parse, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

pub const OD_SERVE: &str = env!("CARGO_BIN_EXE_od-serve");

pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("od_serve_fp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn spec(seed: u64) -> String {
    format!(
        r#"{{
  "name": "gcfp",
  "protocol": {{"name": "three-majority"}},
  "initial": {{"kind": "balanced", "n": 200, "k": 4}},
  "trials": 2,
  "master_seed": {seed},
  "max_rounds": 100000,
  "shard_size": 2
}}"#
    )
}

/// A one-shot HTTP exchange against a spawned service.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// Spawns `od-serve` on an ephemeral port and returns (child, addr).
/// `failpoints` is armed in the child's environment only.
pub fn spawn_serve(args: &[&str], failpoints: &str) -> (std::process::Child, SocketAddr) {
    let mut cmd = std::process::Command::new(OD_SERVE);
    cmd.args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if failpoints.is_empty() {
        cmd.env_remove("OD_FAILPOINTS");
    } else {
        cmd.env("OD_FAILPOINTS", failpoints);
    }
    let mut child = cmd.spawn().expect("spawn od-serve");
    let stdout = child.stdout.take().unwrap();
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("od-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .unwrap();
    (child, addr)
}

pub fn poll_until_done(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        match doc.get("status").and_then(Json::as_str).unwrap_or("") {
            "done" => return,
            "quarantined" => panic!("job quarantined: {body}"),
            state => {
                assert!(Instant::now() < deadline, "job stuck in '{state}'");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

pub fn store_entries(queue: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(queue.join(".results"))
        .map(|iter| {
            iter.map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

pub fn pin_mtime(path: &Path, secs: u64) {
    let file = std::fs::File::options().write(true).open(path).unwrap();
    file.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(secs))
        .unwrap();
}

/// Kills and reaps the child when dropped, so a failing assertion
/// leaves no service running.
pub struct Reaped(pub std::process::Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}
