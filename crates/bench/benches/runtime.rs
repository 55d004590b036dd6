//! od-runtime executor kernel: sharded job throughput vs the direct
//! single-loop path, across shard sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_bench::rng_for;
use od_core::protocol::ThreeMajority;
use od_core::{OpinionCounts, Simulation};
use od_runtime::{run_job_simple, InitialSpec, JobSpec};
use std::hint::black_box;
use std::time::Duration;

const N: u64 = 10_000;
const K: usize = 64;
const TRIALS: u64 = 16;
const MAX_ROUNDS: u64 = 500_000;

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_executor");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    // Baseline: the direct sequential trial loop.
    group.bench_function("direct-loop", |b| {
        let initial = OpinionCounts::balanced(N, K).unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut consensus = 0u64;
            for trial in 0..TRIALS {
                let mut rng = rng_for(seed, trial);
                let out = Simulation::new(&ThreeMajority)
                    .with_max_rounds(MAX_ROUNDS)
                    .run(&initial, &mut rng);
                consensus += u64::from(out.reached_consensus());
            }
            black_box(consensus)
        });
    });

    // The sharded executor at several granularities (shard_size = 1 is
    // maximal parallelism + maximal scheduling overhead).
    for shard_size in [1u64, 4, TRIALS] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shard_size),
            &shard_size,
            |b, &shard_size| {
                let mut seed = 1000u64;
                b.iter(|| {
                    seed += 1;
                    let spec = JobSpec {
                        max_rounds: MAX_ROUNDS,
                        shard_size,
                        ..JobSpec::new(
                            "bench",
                            "three-majority",
                            InitialSpec::Balanced { n: N, k: K },
                            TRIALS,
                            seed,
                        )
                    };
                    black_box(run_job_simple(&spec).unwrap().summary.consensus)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
