//! E4 / Theorem 2.6 kernel: plurality-consensus run with an initial
//! margin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_bench::{rng_for, BENCH_N};
use od_core::protocol::{ThreeMajority, TwoChoices};
use od_core::{OpinionCounts, Simulation};
use std::hint::black_box;
use std::time::Duration;

fn bench_plurality(c: &mut Criterion) {
    let mut group = c.benchmark_group("plurality_with_margin");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let n = BENCH_N;
    let k = 16usize;
    let margin = (2.0 * ((n as f64) * (n as f64).ln()).sqrt()) as u64;
    let start = OpinionCounts::with_leader_margin(n, k, margin).unwrap();
    group.bench_function(BenchmarkId::new("3-majority", margin), |b| {
        let mut trial = 0u64;
        b.iter(|| {
            trial += 1;
            let mut rng = rng_for(5, trial);
            black_box(Simulation::new(&ThreeMajority).run(&start, &mut rng).winner)
        });
    });
    group.bench_function(BenchmarkId::new("2-choices", margin), |b| {
        let mut trial = 0u64;
        b.iter(|| {
            trial += 1;
            let mut rng = rng_for(6, trial);
            black_box(Simulation::new(&TwoChoices).run(&start, &mut rng).winner)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_plurality);
criterion_main!(benches);
