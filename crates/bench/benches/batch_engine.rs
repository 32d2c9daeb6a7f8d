//! Bench for the cached batch-query engine: cold per-query execution
//! (skyline rebuilt from scratch for every query, as the one-shot
//! `TimeRangeKCoreQuery` API does) versus warm batched execution through a
//! `ShardPlan::Span` `ShardedEngine` (one span-wide skyline per `k`,
//! restricted per query and fanned across threads).  The warm rows amortise the CoreTime phase to
//! ~zero, which is the acceptance target of this subsystem on the EM
//! profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tkc_bench::{count_requests, total_cores};
use tkc_datasets::{DatasetProfile, DatasetStats, QueryWorkload, WorkloadConfig};
use tkcore::{Algorithm, CountingSink, ShardPlan, ShardedEngine, TimeRangeKCoreQuery};

fn bench_batch_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);

    for name in ["EM", "CM"] {
        let profile = DatasetProfile::by_name(name).expect("profile");
        let graph = profile.generate();
        let stats = DatasetStats::compute(&graph);
        let config = WorkloadConfig {
            num_queries: 16,
            ..WorkloadConfig::paper_default(&stats, 16, 0xBA7C ^ profile.seed())
        };
        let workload = QueryWorkload::generate(&graph, &config);
        let queries: Vec<TimeRangeKCoreQuery> = workload.queries().collect();

        group.bench_with_input(BenchmarkId::new("cold_per_query", name), &graph, |b, g| {
            b.iter(|| {
                let mut total = 0u64;
                for query in &queries {
                    let mut sink = CountingSink::default();
                    query.run_with(g, Algorithm::Enum, &mut sink);
                    total += sink.num_cores;
                }
                black_box(total)
            });
        });

        let engine =
            ShardedEngine::new(graph.clone(), ShardPlan::Span).expect("span plan resolves");
        engine.warm(workload.k);
        group.bench_with_input(BenchmarkId::new("warm_batched", name), &engine, |b, eng| {
            b.iter(|| {
                let responses = eng
                    .execute_batch(count_requests(&queries), Algorithm::Enum)
                    .expect("valid workload");
                black_box(total_cores(&responses))
            });
        });

        let sequential = ShardedEngine::with_config(
            graph.clone(),
            ShardPlan::Span,
            tkcore::EngineConfig {
                num_threads: 1,
                ..tkcore::EngineConfig::default()
            },
        )
        .expect("span plan resolves");
        sequential.warm(workload.k);
        group.bench_with_input(
            BenchmarkId::new("warm_sequential", name),
            &sequential,
            |b, eng| {
                b.iter(|| {
                    let responses = eng
                        .execute_batch(count_requests(&queries), Algorithm::Enum)
                        .expect("valid workload");
                    black_box(total_cores(&responses))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_engine);
criterion_main!(benches);
