//! Integration tests spanning crates: dataset profiles, workloads and the
//! enumeration algorithms agree with each other at realistic (small) scale.

use temporal_kcore::prelude::*;

/// On a generated dataset analogue, the three real algorithms agree on the
/// result counts for several workloads (the full naive reference would be
/// too slow here; exact set equality at small scale is covered by the
/// property tests in `tkcore`).
#[test]
fn algorithms_agree_on_generated_profiles() {
    for name in ["FB", "BO"] {
        let profile = DatasetProfile::by_name(name).unwrap();
        let graph = profile.generate();
        let stats = DatasetStats::compute(&graph);
        let config = WorkloadConfig::paper_default(&stats, 3, 11);
        let workload = QueryWorkload::generate(&graph, &config);
        for query in workload.queries() {
            let mut a = CountingSink::default();
            query.run_with(&graph, Algorithm::Enum, &mut a);
            let mut b = CountingSink::default();
            query.run_with(&graph, Algorithm::EnumBase, &mut b);
            let mut c = CountingSink::default();
            query.run_with(&graph, Algorithm::Otcd, &mut c);
            assert_eq!(a, b, "{name} {:?}", query.range());
            assert_eq!(a, c, "{name} {:?}", query.range());
        }
    }
}

/// Exact result-set equality of Enum and OTCD on a planted-burst graph that
/// is small enough to compare collections directly.
#[test]
fn exact_equality_on_planted_bursts() {
    use temporal_kcore::temporal_graph::generator::{planted_bursty_cores, BurstyConfig};
    let config = BurstyConfig {
        num_vertices: 60,
        background_edges: 250,
        num_bursts: 4,
        burst_size: 8,
        burst_duration: 6,
        burst_density: 0.8,
        num_timestamps: 60,
    };
    let graph = planted_bursty_cores(&config, 5);
    let query = TimeRangeKCoreQuery::new(3, graph.span()).unwrap();

    let mut a = CollectingSink::default();
    query.run_with(&graph, Algorithm::Enum, &mut a);
    let mut b = CollectingSink::default();
    query.run_with(&graph, Algorithm::Otcd, &mut b);
    let a = a.into_sorted();
    let b = b.into_sorted();
    assert!(
        !a.is_empty(),
        "planted bursts must produce temporal 3-cores"
    );
    assert_eq!(a, b);
    for core in &a {
        assert!(core.is_valid_k_core(&graph, 3));
        assert!(core.tti_is_tight(&graph));
    }
}

/// The planted rings are actually recovered: for each burst window there is
/// a temporal k-core whose TTI lies inside (a slightly padded version of)
/// the burst window.
#[test]
fn planted_bursts_are_recovered() {
    use temporal_kcore::temporal_graph::generator::{planted_bursty_cores, BurstyConfig};
    let config = BurstyConfig {
        num_vertices: 300,
        background_edges: 1_000,
        num_bursts: 5,
        burst_size: 12,
        burst_duration: 8,
        burst_density: 0.9,
        num_timestamps: 400,
    };
    let graph = planted_bursty_cores(&config, 21);
    let response = QueryRequest::single(5, 1, graph.tmax())
        .materialize()
        .run(&graph, Algorithm::Enum)
        .unwrap();
    let KOutput::Cores(cores) = &response.outcomes[0].output else {
        unreachable!("materialized request")
    };
    assert!(
        cores.len() >= config.num_bursts,
        "expected at least one core per planted burst, got {}",
        cores.len()
    );
    // Each planted burst is individually recovered: at least `num_bursts`
    // cores are confined to a window not much longer than one burst.
    // (Windows covering several bursts additionally produce "union" cores
    // with long TTIs, which is expected.)
    let short = cores
        .iter()
        .filter(|c| c.tti.len() <= 2 * u64::from(config.burst_duration))
        .count();
    assert!(
        short >= config.num_bursts,
        "only {short} short-window cores for {} planted bursts",
        config.num_bursts
    );
}

/// Loader round trip composes with enumeration: saving and reloading a graph
/// yields identical query answers.
#[test]
fn loader_round_trip_preserves_results() {
    let profile = DatasetProfile::by_name("FB").unwrap();
    let graph = profile.generate();
    let dir = std::env::temp_dir().join("tkc-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fb.txt");
    loader::write_edge_list(&graph, &path).unwrap();
    let reloaded = loader::read_edge_list(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded.num_edges(), graph.num_edges());
    let stats = DatasetStats::compute(&graph);
    let query = TimeRangeKCoreQuery::new(
        stats.k_for_percent(30),
        TimeWindow::new(1, stats.range_len_for_percent(20).min(graph.tmax())),
    )
    .unwrap();
    let mut a = CountingSink::default();
    query.run_with(&graph, Algorithm::Enum, &mut a);
    let mut b = CountingSink::default();
    query.run_with(&reloaded, Algorithm::Enum, &mut b);
    assert_eq!(a, b);
}
