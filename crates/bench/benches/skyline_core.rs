//! Bench for the CSR skyline primitives themselves, below the engine
//! layer: the span-wide build sweep (one flat window vector plus a `u32`
//! offset array, counting-sort scattered from the emission stream), the
//! binary-search `restrict_with` slice through a recycled scratch pool
//! (the allocation-free warm path), and the parallel 4-shard cold build
//! through `ShardedEngine::warm`.
//!
//! Set `TKC_BENCH_QUICK=1` to run a reduced configuration (fewer samples
//! and queries) as a layout-regression smoke in CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tkc_datasets::{DatasetProfile, DatasetStats, QueryWorkload, WorkloadConfig};
use tkcore::{EdgeCoreSkyline, ShardPlan, ShardedEngine, SkylineScratch, TimeRangeKCoreQuery};

const SHARDS: usize = 4;

fn quick() -> bool {
    std::env::var_os("TKC_BENCH_QUICK").is_some()
}

fn bench_skyline_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("skyline_core");
    group.sample_size(if quick() { 2 } else { 10 });
    let num_queries = if quick() { 6 } else { 16 };

    for name in ["EM", "CM"] {
        let profile = DatasetProfile::by_name(name).expect("profile");
        let graph = profile.generate();
        let stats = DatasetStats::compute(&graph);
        let config = WorkloadConfig {
            num_queries,
            ..WorkloadConfig::paper_default(&stats, num_queries, 0xC5A1 ^ profile.seed())
        };
        let workload = QueryWorkload::generate(&graph, &config);
        let queries: Vec<TimeRangeKCoreQuery> = workload.queries().collect();
        let k = workload.k;

        group.bench_with_input(BenchmarkId::new("csr_build", name), &graph, |b, g| {
            b.iter(|| black_box(EdgeCoreSkyline::build(g, k, g.span()).total_windows()));
        });

        let span_index = EdgeCoreSkyline::build(&graph, k, graph.span());
        let mut scratch = SkylineScratch::default();
        group.bench_with_input(
            BenchmarkId::new("flat_restrict", name),
            &span_index,
            |b, index| {
                b.iter(|| {
                    let mut windows = 0usize;
                    for query in &queries {
                        let restricted = index.restrict_with(&graph, query.range(), &mut scratch);
                        windows += restricted.total_windows();
                        scratch.recycle(restricted);
                    }
                    black_box(windows)
                });
            },
        );

        // Cold 4-shard build through the engine's pool: every iteration
        // drops the caches so `warm` rebuilds all shards.
        let pooled = ShardedEngine::new(graph.clone(), ShardPlan::FixedCount(SHARDS))
            .expect("fixed-count plan resolves");
        group.bench_with_input(
            BenchmarkId::new("parallel_cold_build", name),
            &pooled,
            |b, eng| {
                b.iter(|| {
                    eng.clear_cache();
                    black_box(eng.warm(k))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_skyline_core);
criterion_main!(benches);
