//! E10 / Section 2.5 kernel: consensus under the keep-tied adversary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_bench::rng_for;
use od_core::adversary::BoostRunnerUp;
use od_core::protocol::ThreeMajority;
use od_core::{OpinionCounts, Simulation};
use std::hint::black_box;
use std::time::Duration;

fn bench_adversary(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversary");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let n = 4_096u64;
    let k = 8usize;
    let start = OpinionCounts::balanced(n, k).unwrap();
    let f_ref = (n as f64).sqrt() / (k as f64).powf(1.5);
    for mult in [0u64, 1] {
        let f = mult * f_ref as u64;
        group.bench_with_input(BenchmarkId::new("keep-tied", f), &f, |b, &f| {
            let mut trial = 0u64;
            b.iter(|| {
                trial += 1;
                let mut rng = rng_for(14, trial);
                let mut adv = BoostRunnerUp::new(f);
                black_box(
                    Simulation::new(&ThreeMajority)
                        .with_max_rounds(10_000)
                        .run_with_adversary(&start, &mut rng, &mut adv)
                        .rounds,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adversary);
criterion_main!(benches);
