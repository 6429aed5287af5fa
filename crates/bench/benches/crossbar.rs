//! Criterion micro-bench for the ReRAM simulator's one dot-product path,
//! the array-level batch. It measures *simulator* throughput (how fast we
//! can simulate), not modeled hardware latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simpim_reram::{AccWidth, PimArray, PimConfig};
use std::hint::black_box;

fn array_level_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar/array_batch");
    for &n in &[1_000usize, 10_000] {
        let cfg = PimConfig::default();
        let mut pim = PimArray::new(cfg).unwrap();
        let s = 128usize;
        let flat: Vec<u32> = (0..n * s).map(|i| (i % 1_000_000) as u32).collect();
        let rep = pim.program_region(&flat, n, s, 32).unwrap();
        let query: Vec<u32> = (0..s).map(|i| (i * 7919 % 1_000_000) as u32).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                pim.dot_batch(rep.region, black_box(&query), AccWidth::U64)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, array_level_batch);
criterion_main!(benches);
