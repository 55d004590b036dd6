//! Every metric the benchmark reports: name, unit, direction, which
//! workloads report it, and which end-to-end metric it should move.
//!
//! * `EndToEnd` metrics are what a user waits for. Every workload reports
//!   each of them (`--trace 0`), and `BENCHMARK.json` bounds them.
//! * `Detail` metrics are end-to-end figures of one workload (the serve
//!   latencies, the error rate); printed by name, not bounded.
//! * `PerLayer` metrics are measured on every workload's own inputs by
//!   the traced run (`--trace 1`) and listed in `BENCHMARK.json`.
//! * `Ledger` metrics belong to layers only some workloads reach (the
//!   graph passes, the serve transport, queue and store); the traced run
//!   prints them and writes them to its trace file.

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["pop-paper", "graph-sparse", "serve-backlog"];

const ALL: &[&str] = &WORKLOADS;
const POP: &[&str] = &["pop-paper"];
const GRAPH: &[&str] = &["graph-sparse"];
const SERVE: &[&str] = &["serve-backlog"];
const POP_SERVE: &[&str] = &["pop-paper", "serve-backlog"];

/// How a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Detail,
    PerLayer,
    Ledger,
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    pub kind: Kind,
    /// Workloads that report it.
    pub workloads: &'static [&'static str],
    /// The end-to-end metric (and workload) it should move; every other
    /// pairing is predicted not to change.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: Kind,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
        workloads,
        moves,
    }
}

use Kind::{Detail, EndToEnd, Ledger, PerLayer};

/// The catalogue.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    // End to end.
    m("setup_s", "s", "lower", EndToEnd, ALL, "itself: spec generation and warm-up, or backlog seeding and server start"),
    m("wall_s", "s", "lower", EndToEnd, ALL, "itself: median wall time of one repetition of the job list"),
    m("jobs_per_s", "jobs/s", "higher", EndToEnd, ALL, "itself: jobs completed per measured second"),
    m("rounds_per_s", "rounds/s", "higher", EndToEnd, ALL, "itself: simulated rounds per measured second"),
    m("peak_rss_mb", "MiB", "lower", EndToEnd, ALL, "itself: peak resident memory of the run"),
    m("error_rate", "fraction", "lower", Detail, ALL, "itself: failed over attempted operations"),
    m("turnaround_p50_ms", "ms", "lower", Detail, SERVE, "itself: POST /jobs to result bytes"),
    m("turnaround_p90_ms", "ms", "lower", Detail, SERVE, "itself: POST /jobs to result bytes"),
    m("submit_p50_ms", "ms", "lower", Detail, SERVE, "itself: POST /jobs latency"),
    m("read_p50_ms", "ms", "lower", Detail, SERVE, "itself: read-mix latency"),
    m("read_p90_ms", "ms", "lower", Detail, SERVE, "itself: read-mix latency"),
    // Per layer, on every workload.
    m("attributed_frac", "fraction", "higher", PerLayer, ALL, "none: ledger check, layers over end-to-end time"),
    m("trace_overhead_frac", "fraction", "lower", PerLayer, ALL, "none: traced over untraced wall time, minus one"),
    m("kernel.round_us", "us", "lower", PerLayer, ALL, "rounds_per_s @ pop-paper, graph-sparse"),
    m("executor.parallel_efficiency", "fraction", "higher", PerLayer, ALL, "wall_s @ pop-paper, graph-sparse"),
    m("executor.overhead_frac", "fraction", "lower", PerLayer, ALL, "wall_s @ pop-paper, graph-sparse"),
    m("checkpoint.saves", "count", "lower", PerLayer, ALL, "wall_s @ graph-sparse; jobs_per_s @ serve-backlog"),
    m("checkpoint.bytes_written", "bytes", "lower", PerLayer, ALL, "wall_s @ graph-sparse; jobs_per_s @ serve-backlog"),
    m("checkpoint.save_ms", "ms", "lower", PerLayer, ALL, "wall_s @ graph-sparse; jobs_per_s @ serve-backlog"),
    m("spec.submit_us", "us", "lower", PerLayer, ALL, "submit_p50_ms, wall_s @ serve-backlog"),
    m("spec.load_hash_us", "us", "lower", PerLayer, ALL, "turnaround_p50_ms, jobs_per_s @ serve-backlog"),
    m("lease.write_done_us", "us", "lower", PerLayer, ALL, "jobs_per_s @ serve-backlog"),
    m("store.publish_us", "us", "lower", PerLayer, ALL, "turnaround_p50_ms @ serve-backlog"),
    m("http.parse_us", "us", "lower", PerLayer, ALL, "read_p50_ms, submit_p50_ms @ serve-backlog"),
    m("http.render_us", "us", "lower", PerLayer, ALL, "read_p50_ms, submit_p50_ms @ serve-backlog"),
    m("share.spec", "fraction", "lower", PerLayer, ALL, "wall_s @ the workload (share of it)"),
    m("share.graphs", "fraction", "lower", PerLayer, ALL, "wall_s @ graph-sparse (share of it)"),
    m("share.kernel", "fraction", "lower", PerLayer, ALL, "wall_s @ pop-paper, graph-sparse (share of it)"),
    m("share.checkpoint", "fraction", "lower", PerLayer, ALL, "wall_s @ graph-sparse (share of it)"),
    m("share.http", "fraction", "lower", PerLayer, ALL, "turnaround_p50_ms @ serve-backlog (share of it)"),
    m("share.queue", "fraction", "lower", PerLayer, ALL, "turnaround_p50_ms @ serve-backlog (share of it)"),
    m("share.store", "fraction", "lower", PerLayer, ALL, "turnaround_p50_ms @ serve-backlog (share of it)"),
    m("share.client_poll", "fraction", "lower", PerLayer, ALL, "none: the clients' own poll interval"),
    // Ledger: layers only some workloads reach.
    m("engine.round_us.three-majority", "us", "lower", Ledger, POP_SERVE, "rounds_per_s @ pop-paper"),
    m("engine.round_us.two-choices", "us", "lower", Ledger, POP, "rounds_per_s @ pop-paper"),
    m("graphs.build_ms", "ms", "lower", Ledger, GRAPH, "wall_s @ graph-sparse"),
    m("graphs.csr_bytes", "bytes", "lower", Ledger, GRAPH, "wall_s @ graph-sparse"),
    m("graph.round_ms.three-majority", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.round_ms.two-choices", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.pass1_ms.three-majority", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.pass2_ms.three-majority", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.pass3_ms.three-majority", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.pass1_ms.two-choices", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.pass2_ms.two-choices", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.pass3_ms.two-choices", "ms", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse"),
    m("graph.unattributed_frac.three-majority", "fraction", "lower", Ledger, GRAPH, "none: fused round minus the split passes"),
    m("graph.unattributed_frac.two-choices", "fraction", "lower", Ledger, GRAPH, "none: fused round minus the split passes"),
    m("graph.bytes_per_round.three-majority", "bytes", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse (computed, not measured)"),
    m("graph.bytes_per_round.two-choices", "bytes", "lower", Ledger, GRAPH, "rounds_per_s @ graph-sparse (computed, not measured)"),
    m("graph.gather_gbps.three-majority", "GB/s", "higher", Ledger, GRAPH, "rounds_per_s @ graph-sparse (computed bytes over measured pass 2)"),
    m("graph.gather_gbps.two-choices", "GB/s", "higher", Ledger, GRAPH, "rounds_per_s @ graph-sparse (computed bytes over measured pass 2)"),
    m("http.noop_rtt_ms", "ms", "lower", Ledger, SERVE, "read_p50_ms, turnaround_p50_ms @ serve-backlog"),
    m("http.fresh_conn_rtt_ms", "ms", "lower", Ledger, SERVE, "read_p50_ms, turnaround_p50_ms @ serve-backlog"),
    m("queue.list_ms", "ms", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("queue.idle_pass_ms", "ms", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("queue.job_overhead_ms", "ms", "lower", Ledger, SERVE, "jobs_per_s, turnaround_p50_ms @ serve-backlog"),
    m("lease.cycle_us", "us", "lower", Ledger, SERVE, "jobs_per_s @ serve-backlog"),
    m("state.status_us", "us", "lower", Ledger, SERVE, "read_p50_ms, read_p90_ms @ serve-backlog"),
    m("store.lookup_us", "us", "lower", Ledger, SERVE, "read_p50_ms, read_p90_ms @ serve-backlog"),
    m("store.footprint_ms", "ms", "lower", Ledger, SERVE, "read_p50_ms, read_p90_ms @ serve-backlog"),
    m("store.gc_ms", "ms", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("serve.queue_wait_ms", "ms", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("serve.claim_to_done_ms", "ms", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("serve.result_polls_per_job", "count", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("serve.result_poll_useful_frac", "fraction", "higher", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("telemetry.events_per_job", "count", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
    m("telemetry.emit_us", "us", "lower", Ledger, SERVE, "turnaround_p50_ms @ serve-backlog"),
];

/// The metrics `workload` reports in one mode, in catalogue order.
pub fn reported(workload: &str, trace: bool) -> impl Iterator<Item = &'static Metric> + '_ {
    METRICS.iter().filter(move |m| {
        let in_mode = match m.kind {
            EndToEnd | Detail => !trace,
            PerLayer | Ledger => trace,
        };
        in_mode && m.workloads.contains(&workload)
    })
}

/// The metrics that go into the result line in one mode.
pub fn result_line(trace: bool) -> impl Iterator<Item = &'static Metric> {
    let kind = if trace { PerLayer } else { EndToEnd };
    METRICS.iter().filter(move |m| m.kind == kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_runtime::json::{parse, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_has_a_name_a_unit_and_a_workload() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in METRICS {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(
                !metric.unit.is_empty() && metric.unit.len() <= 16,
                "{}",
                metric.name
            );
            assert!(
                matches!(metric.better, "lower" | "higher"),
                "{}",
                metric.name
            );
            assert!(!metric.workloads.is_empty(), "{}", metric.name);
            assert!(metric.workloads.iter().all(|w| WORKLOADS.contains(w)));
            assert!(!metric.moves.is_empty(), "{}", metric.name);
            if matches!(metric.kind, EndToEnd | PerLayer) {
                assert_eq!(
                    metric.workloads, ALL,
                    "{} goes into every result line",
                    metric.name
                );
            }
        }
    }

    #[test]
    fn setup_time_is_an_end_to_end_metric() {
        let setup = METRICS.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(
            (setup.unit, setup.better, setup.kind),
            ("s", "lower", EndToEnd)
        );
    }

    /// `BENCHMARK.json` and the catalogue list the same bounded metrics
    /// with the same units and directions, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // building outside a checkout that has the file
        };
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, kind) in [("end_to_end", EndToEnd), ("per_layer", PerLayer)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = METRICS
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn each_mode_reports_a_result_line_metric_set() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let names: Vec<_> = reported(workload, trace).map(|m| m.name).collect();
                for metric in result_line(trace) {
                    assert!(
                        names.contains(&metric.name),
                        "{workload} misses {}",
                        metric.name
                    );
                }
            }
        }
    }
}
