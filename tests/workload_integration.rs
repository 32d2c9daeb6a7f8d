//! Integration tests for the evaluation pipeline: dataset statistics,
//! workload generation and framework measurements behave sensibly on the
//! scaled dataset profiles.

use temporal_kcore::prelude::*;

#[test]
fn table3_statistics_are_reasonable_for_every_profile() {
    for profile in temporal_kcore::datasets::ALL_PROFILES {
        // Generating the largest profiles takes a little while; statistics
        // are checked for all of them but the heavier algorithms only run on
        // the smaller ones (see other tests).
        if profile.num_edges > 12_000 {
            continue;
        }
        let graph = profile.generate();
        let stats = DatasetStats::compute(&graph);
        assert!(stats.num_vertices > 0, "{}", profile.name);
        assert!(stats.num_edges > 0, "{}", profile.name);
        assert!(stats.tmax >= 1, "{}", profile.name);
        assert!(
            stats.kmax >= 4,
            "{}: kmax {} too small for a 10%..40% sweep",
            profile.name,
            stats.kmax
        );
    }
}

#[test]
fn framework_stats_track_result_size() {
    let profile = DatasetProfile::by_name("CM").unwrap();
    let graph = profile.generate();
    let stats = DatasetStats::compute(&graph);
    let k = stats.k_for_percent(30);
    let len = stats.range_len_for_percent(10);
    let range = TimeWindow::new(1, len.min(graph.tmax()));
    let fw = FrameworkStats::measure(&graph, k, range);
    // |ECS| <= |R| whenever at least one core exists (every skyline window's
    // edge appears in at least one result), and |VCT| is positive as soon as
    // any vertex is ever in a core.
    if fw.num_cores > 0 {
        assert!(fw.vct_entries > 0);
        assert!(fw.ecs_windows > 0);
        assert!(fw.result_size >= fw.ecs_windows as u64);
    }
    // Counting through the unified request API agrees with the measurement.
    let response = QueryRequest::single(k, range.start(), range.end())
        .run(&graph, Algorithm::Enum)
        .unwrap();
    let KOutput::Counts(count) = response.outcomes[0].output else {
        unreachable!("count is the default mode")
    };
    assert_eq!(count.num_cores, fw.num_cores);
    assert_eq!(count.total_edges, fw.result_size);
}

#[test]
fn workloads_drive_all_algorithms_within_budget() {
    let profile = DatasetProfile::by_name("FB").unwrap();
    let graph = profile.generate();
    let stats = DatasetStats::compute(&graph);
    let config = WorkloadConfig {
        num_queries: 2,
        ..WorkloadConfig::paper_default(&stats, 2, 17)
    };
    let workload = QueryWorkload::generate(&graph, &config);
    for query in workload.queries() {
        for algo in [Algorithm::Enum, Algorithm::EnumBase, Algorithm::Otcd] {
            let mut sink = CountingSink::default();
            let run = query.run_with(&graph, algo, &mut sink);
            assert_eq!(run.num_cores, sink.num_cores);
            assert!(
                run.peak_memory_bytes < 1 << 30,
                "{} unexpectedly large",
                algo.name()
            );
        }
    }
}

#[test]
fn varying_k_monotonically_shrinks_results() {
    let profile = DatasetProfile::by_name("FB").unwrap();
    let graph = profile.generate();
    let stats = DatasetStats::compute(&graph);
    let range = TimeWindow::new(1, stats.range_len_for_percent(20).min(graph.tmax()));
    let mut previous = u64::MAX;
    for percent in [10, 20, 30, 40] {
        let k = stats.k_for_percent(percent);
        let mut count = CountingSink::default();
        Algorithm::Enum
            .execute(&graph, k, range, &mut count)
            .unwrap();
        assert!(
            count.total_edges <= previous,
            "result size must not grow with k"
        );
        previous = count.total_edges;
    }
}

#[test]
fn varying_range_monotonically_grows_results() {
    let profile = DatasetProfile::by_name("FB").unwrap();
    let graph = profile.generate();
    let stats = DatasetStats::compute(&graph);
    let k = stats.k_for_percent(30);
    let mut previous = 0u64;
    for percent in [5, 10, 20, 40] {
        let len = stats.range_len_for_percent(percent).min(graph.tmax());
        let mut count = CountingSink::default();
        Algorithm::Enum
            .execute(&graph, k, TimeWindow::new(1, len), &mut count)
            .unwrap();
        assert!(
            count.total_edges >= previous,
            "result size must not shrink as the range grows"
        );
        previous = count.total_edges;
    }
}
