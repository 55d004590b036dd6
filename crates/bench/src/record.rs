//! Machine-readable benchmark records.
//!
//! The criterion stand-in prints human-readable timings; benches that
//! track a performance trajectory additionally emit a `BENCH_*.json`
//! file through this module, so successive PRs can be compared without
//! scraping stdout. The format is a flat, stable JSON document:
//!
//! ```json
//! {
//!   "bench": "graph_engine",
//!   "meta": {"threads": "8"},
//!   "results": [
//!     {"id": "erdos_renyi/n=100000/seq", "mean_ns": 1.0, "min_ns": 1.0, "samples": 10}
//!   ]
//! }
//! ```

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One measured case.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Stable case id, e.g. `erdos_renyi/n=100000/seq`.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Minimum wall-clock nanoseconds per iteration.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: u32,
}

/// Times `f` with `warmup` untimed and `samples` timed executions,
/// returning the record (and printing it in the criterion stub's style).
pub fn measure(
    id: impl Into<String>,
    warmup: u32,
    samples: u32,
    mut f: impl FnMut(),
) -> BenchRecord {
    assert!(samples > 0, "measure: need at least one sample");
    for _ in 0..warmup {
        f();
    }
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        total += dt;
        min = min.min(dt);
    }
    finish(id.into(), total, min, samples)
}

/// The record of `samples` timings summing to `total` with minimum
/// `min`, printed in the criterion stub's style.
fn finish(id: String, total: Duration, min: Duration, samples: u32) -> BenchRecord {
    let record = BenchRecord {
        id,
        mean_ns: total.as_nanos() as f64 / f64::from(samples),
        min_ns: min.as_nanos() as f64,
        samples,
    };
    println!(
        "  {}: mean {:?}, min {:?} over {} samples",
        record.id,
        Duration::from_nanos(record.mean_ns as u64),
        Duration::from_nanos(record.min_ns as u64),
        record.samples
    );
    record
}

/// Times several cases with their samples interleaved round-robin —
/// sample `i` of every case runs before sample `i + 1` of any case.
///
/// On shared or frequency-scaled hosts, sequential per-case measurement
/// systematically favors whichever case runs first (turbo, thermals, and
/// noisy neighbors drift over the run); interleaving spreads that drift
/// evenly across the cases being compared, so the *ratios* stay honest
/// even when absolute timings wander.
pub fn measure_interleaved(
    warmup: u32,
    samples: u32,
    mut cases: Vec<(String, Box<dyn FnMut() + '_>)>,
) -> Vec<BenchRecord> {
    assert!(samples > 0, "measure_interleaved: need at least one sample");
    for _ in 0..warmup {
        for (_, f) in &mut cases {
            f();
        }
    }
    let mut totals = vec![Duration::ZERO; cases.len()];
    let mut minima = vec![Duration::MAX; cases.len()];
    for _ in 0..samples {
        for (case, (total, min)) in cases
            .iter_mut()
            .zip(totals.iter_mut().zip(minima.iter_mut()))
        {
            let t0 = Instant::now();
            (case.1)();
            let dt = t0.elapsed();
            *total += dt;
            *min = (*min).min(dt);
        }
    }
    cases
        .iter()
        .zip(totals.iter().zip(minima.iter()))
        .map(|((id, _), (total, min))| finish(id.clone(), *total, *min, samples))
        .collect()
}

/// Times `base` and `case` in `pairs` back-to-back pairs (after
/// `warmup` untimed ones), alternating which runs first, and returns
/// both series' records with the median over pairs of `case`'s time
/// over `base`'s.
///
/// Each ratio compares two samples taken moments apart, so frequency
/// and load drift cancel within the pair, and the median ignores the
/// odd sample a preemption or a timer glitch distorts. A ratio of the
/// two series' *minima* has neither property: for a gated pair of
/// identical code on a shared 2-vCPU host it read 0.90–1.18 across
/// runs of one binary, and more samples made it worse — every extra
/// sample is another chance at a glitch.
pub fn measure_paired(
    warmup: u32,
    pairs: u32,
    base: (String, &mut dyn FnMut()),
    case: (String, &mut dyn FnMut()),
) -> (Vec<BenchRecord>, f64) {
    let ((base_id, base), (case_id, case)) = (base, case);
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed()
    };
    measure_paired_timed(
        warmup,
        pairs,
        (base_id, &mut || time(base)),
        (case_id, &mut || time(case)),
    )
}

/// [`measure_paired`] over samples that time themselves: each call
/// returns the duration of the work it measures, so a sample can leave
/// out its own set-up (a job's graph build, say) or report a per-round
/// time.
pub fn measure_paired_timed(
    warmup: u32,
    pairs: u32,
    base: (String, &mut dyn FnMut() -> Duration),
    case: (String, &mut dyn FnMut() -> Duration),
) -> (Vec<BenchRecord>, f64) {
    assert!(pairs > 0, "measure_paired: need at least one pair");
    let ((base_id, base), (case_id, case)) = (base, case);
    for _ in 0..warmup {
        base();
        case();
    }
    let mut times = [Vec::new(), Vec::new()];
    let mut ratios = Vec::with_capacity(pairs as usize);
    for i in 0..pairs {
        let (b, c) = if i % 2 == 0 {
            let b = base();
            (b, case())
        } else {
            let c = case();
            (base(), c)
        };
        ratios.push(c.as_secs_f64() / b.as_secs_f64().max(1e-12));
        times[0].push(b);
        times[1].push(c);
    }
    ratios.sort_by(f64::total_cmp);
    let records = [base_id, case_id]
        .into_iter()
        .zip(&times)
        .map(|(id, times)| {
            let min = times.iter().min().copied().unwrap_or_default();
            finish(id, times.iter().sum(), min, pairs)
        })
        .collect();
    (records, ratios[ratios.len() / 2])
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the stable JSON document.
#[must_use]
pub fn render_json(bench: &str, meta: &[(&str, String)], results: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", escape(bench)));
    out.push_str("  \"meta\": {");
    for (i, (key, value)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", escape(key), escape(value)));
    }
    out.push_str("},\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}{}\n",
            escape(&r.id),
            r.mean_ns,
            r.min_ns,
            r.samples,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the document to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_json(
    path: &Path,
    bench: &str,
    meta: &[(&str, String)],
    results: &[BenchRecord],
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_json(bench, meta, results).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_collects_samples() {
        let mut runs = 0u32;
        let r = measure("case", 1, 3, || runs += 1);
        assert_eq!(runs, 4);
        assert_eq!(r.samples, 3);
        assert!(r.min_ns <= r.mean_ns);
    }

    #[test]
    fn measure_paired_alternates_which_case_runs_first() {
        use std::cell::RefCell;
        let order = RefCell::new(Vec::new());
        let (records, ratio) = measure_paired(
            1,
            4,
            ("a".to_string(), &mut || order.borrow_mut().push(0u8)),
            ("b".to_string(), &mut || order.borrow_mut().push(1u8)),
        );
        // warmup a,b then pairs ab, ba, ab, ba.
        assert_eq!(*order.borrow(), [0, 1, 0, 1, 1, 0, 0, 1, 1, 0]);
        assert_eq!((records[0].id.as_str(), records[1].id.as_str()), ("a", "b"));
        assert!(records.iter().all(|r| r.samples == 4));
        assert!(ratio.is_finite() && ratio > 0.0);
    }

    #[test]
    fn measure_paired_timed_uses_the_reported_durations() {
        // The case reports 3 ms against the base's 2 ms in every pair,
        // whatever the calls themselves take.
        let (records, ratio) = measure_paired_timed(
            0,
            5,
            ("a".to_string(), &mut || Duration::from_millis(2)),
            ("b".to_string(), &mut || Duration::from_millis(3)),
        );
        assert!((ratio - 1.5).abs() < 1e-12, "{ratio}");
        assert_eq!((records[0].mean_ns, records[1].min_ns), (2e6, 3e6));
    }

    #[test]
    fn measure_interleaved_round_robins_all_cases() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let order: Rc<RefCell<Vec<u8>>> = Rc::default();
        let (a, b) = (order.clone(), order.clone());
        let records = measure_interleaved(
            1,
            2,
            vec![
                ("a".to_string(), Box::new(move || a.borrow_mut().push(0))),
                ("b".to_string(), Box::new(move || b.borrow_mut().push(1))),
            ],
        );
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "a");
        assert_eq!(records[1].samples, 2);
        // warmup a,b then samples a,b,a,b.
        assert_eq!(*order.borrow(), vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let records = vec![BenchRecord {
            id: "a/b".to_string(),
            mean_ns: 1.5,
            min_ns: 1.0,
            samples: 2,
        }];
        let text = render_json("graph_engine", &[("threads", "8".to_string())], &records);
        assert!(text.contains("\"bench\": \"graph_engine\""));
        assert!(text.contains("\"id\": \"a/b\""));
        assert!(text.contains("\"samples\": 2"));
        // Balanced braces/brackets as a cheap sanity check.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }
}
