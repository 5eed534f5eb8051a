//! Criterion: simulator throughput — how fast the `vmach`-backed
//! algorithms simulate (useful for sizing the experiment sweeps; the
//! simulated *cycle counts* themselves are deterministic and measured
//! by the `repro` binaries, not here).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use listkit::gen;
use listrank::{Algorithm, SimRunner};
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    let n = 1usize << 18;
    let list = gen::random_list(n, 5);
    g.throughput(Throughput::Elements(n as u64));
    for alg in [Algorithm::Serial, Algorithm::Wyllie, Algorithm::ReidMiller] {
        let runner = SimRunner::new(alg, 1);
        g.bench_with_input(BenchmarkId::new(alg.name(), n), &list, |b, l| {
            b.iter(|| black_box(runner.rank(black_box(l)).cycles))
        });
    }
    g.finish();
}

fn bench_tuner(c: &mut Criterion) {
    let mut g = c.benchmark_group("tuner");
    g.sample_size(10);
    for &n in &[100_000usize, 10_000_000] {
        g.bench_with_input(BenchmarkId::new("tuned_scan", n), &n, |b, &n| {
            b.iter(|| black_box(listrank::SimParams::tuned_scan(black_box(n), 1)))
        });
    }
    // The planner's call for a 2^22-bucket Reid-Miller job at 2 inner
    // threads (tuned at the bucket midpoint 3·2^21).
    g.bench_with_input(BenchmarkId::new("tuned_rank_p2", 3 << 21), &(3 << 21), |b, &n| {
        b.iter(|| black_box(listrank::SimParams::tuned_rank(black_box(n), 2)))
    });
    g.finish();
}

criterion_group!(benches, bench_sim, bench_tuner);
criterion_main!(benches);
