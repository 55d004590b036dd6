//! Host metadata recorded with every result: absolute numbers are only
//! comparable on the same kind of host.

use crate::specs;
use od_runtime::json::Json;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The size of the cache at `level` seen by CPU 0 (as the kernel reports
/// it, e.g. "2048K"), or "unknown".
fn cache_size(level: &str) -> String {
    (0..8)
        .find_map(|index| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let lvl = read("level")?;
            let kind = read("type")?;
            (lvl.trim() == level && kind.trim() != "Instruction")
                .then(|| read("size"))
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Number of processors the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host and workload description of one run.
pub fn metadata(workload: &str, seed: u64, seconds: f64) -> Json {
    let mut host = Json::object();
    host.insert("nproc", Json::Int(nproc() as i64));
    host.insert("cpu_model", Json::Str(cpu_model()));
    host.insert("l2", Json::Str(cache_size("2")));
    host.insert("l3", Json::Str(cache_size("3")));
    host.insert("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string()));
    host.insert(
        "git_commit",
        Json::Str(env!("PERFBENCH_COMMIT").to_string()),
    );

    let int = |v: u64| Json::Int(v as i64);
    let mut params = Json::object();
    params.insert("workload", Json::Str(workload.to_string()));
    params.insert("seed", Json::Str(seed.to_string()));
    params.insert("seconds", Json::Float(seconds));
    match workload {
        "pop-paper" => {
            params.insert("n", int(specs::POP_N));
            params.insert("k_three_majority", int(specs::POP_K_THREE_MAJORITY as u64));
            params.insert("k_two_choices", int(specs::POP_K_TWO_CHOICES as u64));
            params.insert("trials_per_job", int(specs::POP_TRIALS));
            params.insert(
                "threads",
                int(nproc().min(specs::POP_TRIALS as usize) as u64),
            );
        }
        "graph-sparse" => {
            params.insert("n", int(specs::GRAPH_N));
            params.insert("k", int(specs::GRAPH_K as u64));
            params.insert("d", int(specs::GRAPH_D));
            params.insert("max_rounds", int(specs::GRAPH_MAX_ROUNDS));
            params.insert("trials_per_job", int(specs::GRAPH_TRIALS));
            params.insert(
                "threads",
                int(nproc().min(specs::GRAPH_TRIALS as usize) as u64),
            );
        }
        _ => {
            params.insert("n", int(specs::TINY_N));
            params.insert("k", int(specs::TINY_K as u64));
            params.insert("trials_per_job", int(specs::TINY_TRIALS));
            params.insert("backlog_jobs", int(specs::BACKLOG_JOBS));
            params.insert("clients", int(specs::SERVE_CLIENTS as u64));
            params.insert(
                "jobs_per_client_per_repetition",
                int(specs::SERVE_JOBS_PER_CLIENT as u64),
            );
            params.insert("result_poll_ms", int(specs::RESULT_POLL_MS));
            params.insert("results_max_count", int(specs::RESULTS_MAX_COUNT));
            params.insert("server_workers", int(1));
            params.insert(
                "server_worker_poll_ms",
                int(od_serve::ServeOptions::default().worker.poll_ms),
            );
            // The client threads plus the embedded worker; the server adds
            // an accept thread and one mostly idle handler per connection.
            params.insert("threads", int(specs::SERVE_CLIENTS as u64 + 1));
        }
    }
    host.insert("workload_params", params);
    host
}
