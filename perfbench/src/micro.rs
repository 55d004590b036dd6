//! Per-call costs of the layers every workload's jobs can pass through:
//! spec submission, the done marker, the results store and HTTP framing,
//! each replayed on one of the workload's own jobs.

use crate::measure::{self, time_each, Outcome};
use crate::trace::Tracer;
use od_runtime::{lease, load_job_file, JobReport, JobSpec};
use od_serve::{http, store};
use std::hint::black_box;
use std::path::Path;

/// Median seconds per `POST /jobs` spec handling of `text`
/// (`from_json_text`, `validate`, `content_hash`) and per scan-side
/// reload of the same spec stored at `job_path` (`load_job_file`,
/// `content_hash`).
pub fn spec_costs(
    text: &str,
    job_path: &Path,
    tracer: &Tracer,
    parent: u64,
    job: &str,
) -> (f64, f64) {
    let (submit, _) = tracer.span("runtime.spec.submit", Some(parent), job, |_| {
        time_each(50, || {
            let spec = JobSpec::from_json_text(text).expect("generated spec parses");
            spec.validate().expect("generated spec validates");
            black_box(spec.content_hash());
        })
    });
    let (load, _) = tracer.span("runtime.queue.load_job_file", Some(parent), job, |_| {
        time_each(50, || {
            let spec = load_job_file(job_path).expect("job file loads");
            black_box(spec.content_hash());
        })
    });
    (measure::median(&submit), measure::median(&load))
}

/// The request bytes a client sends to submit `body` (as recorded by the
/// serve workload's client).
pub fn post_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Accumulated per-call samples over a workload's jobs.
#[derive(Default)]
pub struct Micro {
    write_done: Vec<f64>,
    publish: Vec<f64>,
    parse: Vec<f64>,
    render: Vec<f64>,
    /// Publishes that returned no result (a correctness failure).
    pub publish_misses: u64,
}

impl Micro {
    /// Replays `spec`'s finished job against the marker, store and HTTP
    /// layers inside a scratch queue under `dir`.
    pub fn add_job(
        &mut self,
        spec: &JobSpec,
        report: &JobReport,
        hash: &str,
        dir: &Path,
        tracer: &Tracer,
        parent: u64,
    ) {
        let queue = dir.join("micro-queue");
        let _ = std::fs::remove_dir_all(&queue);
        if std::fs::create_dir_all(&queue).is_err() {
            self.publish_misses += 1;
            return;
        }
        let text = crate::specs::job_file_text(spec);
        let job = queue.join(format!("job-{hash}.json"));
        if std::fs::write(&job, &text).is_err() {
            self.publish_misses += 1;
            return;
        }
        let summary = report.summary.to_json();
        let ((), _) = tracer.span("runtime.lease.write_done", Some(parent), hash, |_| {
            self.write_done.extend(time_each(10, || {
                lease::write_done(&job, hash, &summary).expect("done marker writes");
            }));
        });
        let mut marker = Vec::new();
        let ((), _) = tracer.span("serve.store.publish", Some(parent), hash, |_| {
            for _ in 0..10 {
                let t = std::time::Instant::now();
                let published = store::publish(&queue, &job, hash);
                self.publish.push(t.elapsed().as_secs_f64());
                match published {
                    Ok(Some(bytes)) => marker = bytes,
                    _ => self.publish_misses += 1,
                }
            }
        });
        let request = post_request("/jobs", text.as_bytes());
        let ((), _) = tracer.span("serve.http.parse_request", Some(parent), hash, |_| {
            self.parse.extend(time_each(200, || {
                let parsed = http::parse_request(black_box(&request)).expect("well-formed request");
                black_box(parsed);
            }));
        });
        let ((), _) = tracer.span("serve.http.write_response", Some(parent), hash, |_| {
            let mut out = Vec::with_capacity(marker.len() + 256);
            self.render.extend(time_each(200, || {
                out.clear();
                http::write_response(&mut out, 200, "application/json", black_box(&marker), false)
                    .expect("writing into memory");
                black_box(&out);
            }));
        });
        let _ = std::fs::remove_dir_all(&queue);
    }

    /// Records the medians.
    pub fn finish(&self, outcome: &mut Outcome) {
        outcome.attempted += 1;
        if self.publish_misses > 0 {
            eprintln!(
                "store replay: {} publishes found no result",
                self.publish_misses
            );
            outcome.failed += 1;
        }
        outcome.set(
            "lease.write_done_us",
            measure::median(&self.write_done) * 1e6,
        );
        outcome.set("store.publish_us", measure::median(&self.publish) * 1e6);
        outcome.set("http.parse_us", measure::median(&self.parse) * 1e6);
        outcome.set("http.render_us", measure::median(&self.render) * 1e6);
    }
}
