//! Bench for the time-interval sharded engine: span-wide cold index builds
//! versus per-shard builds, warm batched execution through a 4-shard plan
//! versus the one-shard `ShardPlan::Span` plan, and warm boundary-spanning
//! batches answered through the stitch index.  The per-shard build rows
//! must not exceed the span-wide ones (shard skylines drop every
//! cut-crossing window, so the total sweep work shrinks), and short windows
//! served from warm shard caches skip the untouched shards entirely.
//!
//! Set `TKC_BENCH_QUICK=1` to run a reduced configuration (fewer samples
//! and queries) as an executor-regression smoke in CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tkc_datasets::{DatasetProfile, DatasetStats, QueryWorkload, WorkloadConfig};
use tkcore::{EdgeCoreSkyline, ShardPlan, ShardedEngine, TimeRangeKCoreQuery};

const SHARDS: usize = 4;

fn quick() -> bool {
    std::env::var_os("TKC_BENCH_QUICK").is_some()
}

fn bench_sharded_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_engine");
    group.sample_size(if quick() { 2 } else { 10 });
    let num_queries = if quick() { 6 } else { 16 };

    for name in ["EM", "CM"] {
        let profile = DatasetProfile::by_name(name).expect("profile");
        let graph = profile.generate();
        let stats = DatasetStats::compute(&graph);
        let config = WorkloadConfig {
            num_queries,
            ..WorkloadConfig::paper_default(&stats, num_queries, 0x5AAD ^ profile.seed())
        };
        let workload = QueryWorkload::generate(&graph, &config);
        let queries: Vec<TimeRangeKCoreQuery> = workload.queries().collect();
        let k = workload.k;

        group.bench_with_input(BenchmarkId::new("span_cold_build", name), &graph, |b, g| {
            b.iter(|| black_box(EdgeCoreSkyline::build(g, k, g.span()).total_windows()));
        });

        let shards = ShardPlan::FixedCount(SHARDS)
            .resolve(&graph)
            .expect("fixed-count plan resolves");
        group.bench_with_input(
            BenchmarkId::new("shard_cold_builds", name),
            &graph,
            |b, g| {
                b.iter(|| {
                    let mut windows = 0usize;
                    for &shard in &shards {
                        windows += EdgeCoreSkyline::build(g, k, shard).total_windows();
                    }
                    black_box(windows)
                });
            },
        );

        let span_engine =
            ShardedEngine::new(graph.clone(), ShardPlan::Span).expect("span plan resolves");
        span_engine.warm(k);
        group.bench_with_input(
            BenchmarkId::new("warm_span_batch", name),
            &span_engine,
            |b, eng| {
                b.iter(|| {
                    let (_, batch) = eng.run_batch(&queries).expect("valid workload");
                    black_box(batch.total_cores)
                });
            },
        );

        let sharded = ShardedEngine::new(graph.clone(), ShardPlan::FixedCount(SHARDS))
            .expect("fixed-count plan resolves");
        sharded.warm(k);
        group.bench_with_input(
            BenchmarkId::new("warm_sharded_batch", name),
            &sharded,
            |b, eng| {
                b.iter(|| {
                    let (_, batch) = eng.run_batch(&queries).expect("valid workload");
                    black_box(batch.total_cores)
                });
            },
        );

        // Boundary-spanning workload: every query crosses a shard cut and is
        // answered by one enumeration over its composed window skyline.
        let spanning = tkc_bench::spanning_workload(&graph, k, SHARDS, num_queries);
        let stitched = ShardedEngine::new(graph.clone(), ShardPlan::FixedCount(SHARDS))
            .expect("fixed-count plan resolves");
        stitched.warm(k);
        let _ = stitched
            .run_batch(&spanning)
            .expect("warm the stitch cache");
        group.bench_with_input(
            BenchmarkId::new("spanning_warm_stitched", name),
            &stitched,
            |b, eng| {
                b.iter(|| {
                    let (_, batch) = eng.run_batch(&spanning).expect("valid workload");
                    black_box(batch.total_cores)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_engine);
criterion_main!(benches);
