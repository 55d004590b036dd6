//! Workload parameters and the job specs each workload generates.
//!
//! Every spec is a pure function of the benchmark's `--seed` and the
//! workload name: the seed is mixed with the workload name, and each job
//! derives its master seed (and graph seed) from that. The program under
//! test only ever sees the generated specs.

use od_runtime::{GraphFamily, GraphSpec, InitialSpec, JobSpec, OpinionAssignment};
use od_sampling::seeds::derive_seed;

/// Population size of both pop-paper jobs.
pub const POP_N: u64 = 1_000_000;
/// Opinions of the pop-paper 3-Majority job (k > √n).
pub const POP_K_THREE_MAJORITY: usize = 10_000;
/// Opinions of the pop-paper 2-Choices job (the Θ̃(k) regime).
pub const POP_K_TWO_CHOICES: usize = 1_000;
/// Trials per pop-paper job; one trial per shard, so several shards per
/// core on a 2-core host.
pub const POP_TRIALS: u64 = 12;

/// Vertices of the graph-sparse jobs.
pub const GRAPH_N: u64 = 250_000;
/// Degree of the random-regular graph.
pub const GRAPH_D: u64 = 8;
/// Opinions of the graph-sparse jobs, dealt striped over the vertices.
pub const GRAPH_K: usize = 64;
/// Round cap: every graph trial runs exactly this many rounds.
pub const GRAPH_MAX_ROUNDS: u64 = 40;
/// Trials per graph-sparse job.
pub const GRAPH_TRIALS: u64 = 10;
/// Generator seed of the graph-sparse graph. Fixed, unlike the trial
/// seeds: `random_regular`'s build time varies by about ±17% between
/// graph seeds (its repair pass rescans the edge list once per defect),
/// which would swamp the benchmark's bounds, so every run times the same
/// graph.
pub const GRAPH_SEED: u64 = 20_250_304;

/// Completed jobs seeded into the serve-backlog queue during set-up.
pub const BACKLOG_JOBS: u64 = 2_000;
/// Population size of the tiny serve jobs.
pub const TINY_N: u64 = 10_000;
/// Opinions of the tiny serve jobs.
pub const TINY_K: usize = 16;
/// Trials of the tiny serve jobs.
pub const TINY_TRIALS: u64 = 2;
/// Closed-loop clients of the serve workload, one keep-alive connection
/// each.
pub const SERVE_CLIENTS: usize = 2;
/// Jobs each client pushes through the loop per repetition.
pub const SERVE_JOBS_PER_CLIENT: usize = 6;
/// Fixed interval between a client's result polls, in milliseconds.
pub const RESULT_POLL_MS: u64 = 10;
/// Results-store count cap: above anything a run fills, so nothing is
/// evicted, but every fresh publish pays a GC pass.
pub const RESULTS_MAX_COUNT: u64 = 1_000_000;

/// The seed all of a workload's inputs derive from.
#[must_use]
pub fn workload_seed(seed: u64, workload: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    derive_seed(seed, h)
}

fn population_job(name: &str, protocol: &str, k: usize, trials: u64, master_seed: u64) -> JobSpec {
    JobSpec {
        shard_size: 1,
        ..JobSpec::new(
            name,
            protocol,
            InitialSpec::Balanced { n: POP_N, k },
            trials,
            master_seed,
        )
    }
}

/// The pop-paper job list: 3-Majority at k = 10⁴ and 2-Choices at
/// k = 10³, both n = 10⁶, balanced start, consensus stop, full mode.
#[must_use]
pub fn pop_specs(seed: u64) -> Vec<JobSpec> {
    pop_specs_sized(seed, POP_TRIALS)
}

/// [`pop_specs`] with a chosen trial count (reduced sizes for tests).
#[must_use]
pub fn pop_specs_sized(seed: u64, trials: u64) -> Vec<JobSpec> {
    let ws = workload_seed(seed, "pop-paper");
    vec![
        population_job(
            "pop-paper 3-Majority n=1e6 k=1e4",
            "three-majority",
            POP_K_THREE_MAJORITY,
            trials,
            derive_seed(ws, 0),
        ),
        population_job(
            "pop-paper 2-Choices n=1e6 k=1e3",
            "two-choices",
            POP_K_TWO_CHOICES,
            trials,
            derive_seed(ws, 1),
        ),
    ]
}

/// The graph-sparse job list: 3-Majority and 2-Choices on one random
/// 8-regular graph (n = 2.5·10⁵, k = 64 striped, 40 rounds per trial);
/// the trial seeds derive from `seed`, the graph is [`GRAPH_SEED`]'s.
#[must_use]
pub fn graph_specs(seed: u64) -> Vec<JobSpec> {
    graph_specs_sized(seed, GRAPH_N, GRAPH_TRIALS)
}

/// [`graph_specs`] with a chosen size (reduced sizes for tests).
#[must_use]
pub fn graph_specs_sized(seed: u64, n: u64, trials: u64) -> Vec<JobSpec> {
    let ws = workload_seed(seed, "graph-sparse");
    let graph = GraphSpec {
        seed: Some(GRAPH_SEED),
        assignment: OpinionAssignment::Striped,
        ..GraphSpec::new(GraphFamily::RandomRegular { d: GRAPH_D })
    };
    [
        ("three-majority", "3-Majority"),
        ("two-choices", "2-Choices"),
    ]
    .iter()
    .enumerate()
    .map(|(i, (protocol, label))| JobSpec {
        shard_size: 1,
        max_rounds: GRAPH_MAX_ROUNDS,
        graph: Some(graph.clone()),
        ..JobSpec::new(
            &format!("graph-sparse {label} random-regular d=8"),
            protocol,
            InitialSpec::Balanced { n, k: GRAPH_K },
            trials,
            derive_seed(ws, i as u64),
        )
    })
    .collect()
}

/// The `index`-th tiny serve-backlog job. Indices below
/// [`BACKLOG_JOBS`] seed the backlog; the clients submit higher ones, so
/// every submission is fresh (never answered by dedup).
#[must_use]
pub fn tiny_spec(seed: u64, index: u64) -> JobSpec {
    let ws = workload_seed(seed, "serve-backlog");
    JobSpec::new(
        "serve-backlog tiny 3-Majority",
        "three-majority",
        InitialSpec::Balanced {
            n: TINY_N,
            k: TINY_K,
        },
        TINY_TRIALS,
        derive_seed(ws, index),
    )
}

/// The index of client `client`'s `job`-th submission in repetition
/// `rep` (disjoint from the backlog and from every other submission).
#[must_use]
pub fn submission_index(rep: u64, client: usize, job: usize) -> u64 {
    BACKLOG_JOBS
        + rep * (SERVE_CLIENTS * SERVE_JOBS_PER_CLIENT) as u64
        + (client * SERVE_JOBS_PER_CLIENT + job) as u64
}

/// A tenth-scale copy of `spec` (n and k divided by ten, two trials) for
/// warming up before timing.
#[must_use]
pub fn warmup_spec(spec: &JobSpec) -> JobSpec {
    let initial = match spec.initial {
        InitialSpec::Balanced { n, k } => InitialSpec::Balanced {
            n: n / 10,
            k: (k / 10).max(2),
        },
        ref other => other.clone(),
    };
    JobSpec {
        initial,
        trials: 2,
        ..spec.clone()
    }
}

/// The text a job file holds: the spec as `POST /jobs` writes it.
#[must_use]
pub fn job_file_text(spec: &JobSpec) -> String {
    let mut text = spec.to_json().to_string_pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(specs: &[JobSpec]) -> Vec<String> {
        specs.iter().map(JobSpec::content_hash).collect()
    }

    #[test]
    fn same_seed_same_specs_different_seed_different_specs() {
        assert_eq!(hashes(&pop_specs(7)), hashes(&pop_specs(7)));
        assert_eq!(hashes(&graph_specs(7)), hashes(&graph_specs(7)));
        assert_eq!(
            tiny_spec(7, 3).content_hash(),
            tiny_spec(7, 3).content_hash()
        );
        assert_ne!(hashes(&pop_specs(7)), hashes(&pop_specs(8)));
        assert_ne!(hashes(&graph_specs(7)), hashes(&graph_specs(8)));
        assert_ne!(
            tiny_spec(7, 3).content_hash(),
            tiny_spec(8, 3).content_hash()
        );
        assert_ne!(
            tiny_spec(7, 3).content_hash(),
            tiny_spec(7, 4).content_hash()
        );
    }

    #[test]
    fn workloads_draw_independent_seeds() {
        assert_ne!(
            workload_seed(1, "pop-paper"),
            workload_seed(1, "graph-sparse")
        );
        assert_ne!(workload_seed(1, "pop-paper"), workload_seed(2, "pop-paper"));
    }

    #[test]
    fn generated_specs_validate() {
        for spec in pop_specs(1).iter().chain(&graph_specs(1)) {
            spec.validate().expect("generated spec validates");
        }
        tiny_spec(1, 0).validate().expect("tiny spec validates");
        for spec in pop_specs(1).iter().chain(&graph_specs(1)) {
            warmup_spec(spec)
                .validate()
                .expect("warm-up spec validates");
        }
    }

    #[test]
    fn submissions_never_collide_with_the_backlog() {
        assert_eq!(submission_index(0, 0, 0), BACKLOG_JOBS);
        assert_eq!(
            submission_index(1, 0, 0),
            submission_index(0, SERVE_CLIENTS - 1, SERVE_JOBS_PER_CLIENT - 1) + 1
        );
    }

    #[test]
    fn job_files_round_trip_to_the_same_hash() {
        let spec = tiny_spec(3, 9);
        let reparsed = JobSpec::from_json_text(&job_file_text(&spec)).unwrap();
        assert_eq!(reparsed.content_hash(), spec.content_hash());
    }
}
