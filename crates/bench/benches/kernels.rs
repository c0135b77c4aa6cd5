//! Criterion bench for the `pstl::kernel` layer: scalar vs. wide
//! dispatch of each single-thread inner loop (ISSUE 7). Unlike the
//! other groups this one runs no pool — it times the leaf kernels the
//! parallel algorithms bottom out in, which is where the `simd`
//! feature's raw-speed claim lives.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::BENCH_SIZES;
use pstl::kernel;

fn scrambled_u32(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.measurement_time(std::time::Duration::from_millis(300));

    for &n in &BENCH_SIZES {
        let size = format!("2^{}", n.trailing_zeros());
        let f64s: Vec<f64> = (0..n).map(|i| (i % 1021) as f64 * 0.5).collect();
        let u32s = scrambled_u32(n);

        group.throughput(criterion::Throughput::Bytes((n * 8) as u64));
        group.bench_with_input(BenchmarkId::new("reduce_scalar", &size), &n, |b, _| {
            b.iter(|| {
                kernel::reduce::fold_map_scalar(black_box(&f64s), &|x: &f64| *x, &|a, b| a + b)
            })
        });
        group.bench_with_input(BenchmarkId::new("reduce_wide", &size), &n, |b, _| {
            b.iter(|| kernel::reduce::fold_map_wide(black_box(&f64s), &|x: &f64| *x, &|a, b| a + b))
        });

        group.throughput(criterion::Throughput::Bytes((n * 4) as u64));
        let absent = |i: usize| u32s[i] == u32::MAX;
        group.bench_with_input(BenchmarkId::new("find_scalar", &size), &n, |b, _| {
            b.iter(|| kernel::compare::find_first_in_scalar(black_box(0..n), &absent))
        });
        group.bench_with_input(BenchmarkId::new("find_wide", &size), &n, |b, _| {
            b.iter(|| kernel::compare::find_first_in_wide(black_box(0..n), &absent))
        });

        group.throughput(criterion::Throughput::Bytes((n * 4) as u64));
        let even = |x: &u32| x.is_multiple_of(2);
        group.bench_with_input(BenchmarkId::new("count_scalar", &size), &n, |b, _| {
            b.iter(|| kernel::partition::count_matches_scalar(black_box(&u32s), &even))
        });
        group.bench_with_input(BenchmarkId::new("count_wide", &size), &n, |b, _| {
            b.iter(|| kernel::partition::count_matches_wide(black_box(&u32s), &even))
        });

        group.throughput(criterion::Throughput::Bytes((n * 4) as u64));
        group.bench_with_input(BenchmarkId::new("sort_introsort", &size), &n, |b, _| {
            b.iter_batched(
                || u32s.clone(),
                |mut buf| pstl::seq::introsort(&mut buf, &|a: &u32, b: &u32| a.cmp(b)),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
