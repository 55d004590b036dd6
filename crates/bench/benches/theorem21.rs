//! E2 / Theorem 2.1 kernel: consensus from a large-gamma0 configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_bench::{rng_for, BENCH_N};
use od_core::protocol::ThreeMajority;
use od_core::{OpinionCounts, Simulation};
use std::hint::black_box;
use std::time::Duration;

fn bench_theorem21(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem21_large_gamma0");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    for leader_pct in [10u64, 40] {
        let lead = BENCH_N * leader_pct / 100;
        let k = 64usize;
        let mut counts = vec![(BENCH_N - lead) / (k as u64 - 1); k];
        counts[0] = lead + (BENCH_N - lead) % (k as u64 - 1);
        let start = OpinionCounts::from_counts(counts).unwrap();
        group.bench_with_input(
            BenchmarkId::new("3-majority", leader_pct),
            &start,
            |b, start| {
                let mut trial = 0u64;
                b.iter(|| {
                    trial += 1;
                    let mut rng = rng_for(3, trial);
                    black_box(Simulation::new(&ThreeMajority).run(start, &mut rng).rounds)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_theorem21);
criterion_main!(benches);
