//! Criterion micro-benchmarks of the local (full-access) skyline and
//! sky-band algorithms used for ground truth and for the crawl baseline's
//! post-processing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use skyweb_datagen::synthetic::{self, Correlation, SyntheticConfig};
use skyweb_skyline::{bnl_skyline, sfs_skyline, skyband};

fn bench_local_skyline(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_skyline");
    group.sample_size(10);

    for &(n, corr, label) in &[
        (10_000usize, Correlation::Correlated(0.7), "correlated"),
        (10_000usize, Correlation::Independent, "independent"),
        (
            2_000usize,
            Correlation::AntiCorrelated(0.8),
            "anticorrelated",
        ),
    ] {
        let ds = synthetic::generate(&SyntheticConfig {
            n,
            m: 4,
            domain_size: 1_000,
            correlation: corr,
            seed: 99,
        });
        group.bench_function(BenchmarkId::new("bnl", label), |b| {
            b.iter(|| bnl_skyline(&ds.tuples, &ds.schema).len())
        });
        group.bench_function(BenchmarkId::new("sfs", label), |b| {
            b.iter(|| sfs_skyline(&ds.tuples, &ds.schema).len())
        });
    }

    let ds = synthetic::generate(&SyntheticConfig {
        n: 3_000,
        m: 3,
        domain_size: 500,
        correlation: Correlation::Independent,
        seed: 5,
    });
    for k in [1usize, 5, 20] {
        group.bench_function(BenchmarkId::new("skyband", k), |b| {
            b.iter(|| skyband(&ds.tuples, &ds.schema, k).len())
        });
    }

    group.finish();
}

criterion_group!(benches, bench_local_skyline);
criterion_main!(benches);
