//! Integration test: the paper's running example through the public facade.

use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

#[test]
fn figure_2_results_via_public_api() {
    let graph = paper_example::graph();
    let response = QueryRequest::single(2, 1, 4)
        .materialize()
        .run(&graph, Algorithm::Enum)
        .unwrap();
    let KOutput::Cores(cores) = &response.outcomes[0].output else {
        unreachable!("materialized request")
    };
    assert_eq!(cores.len(), 2);

    // The smaller core is the triangle {v1, v2, v4} with TTI [2, 3].
    let small = cores.iter().find(|c| c.num_edges() == 3).unwrap();
    assert_eq!(small.tti, TimeWindow::new(2, 3));
    let labels: Vec<u64> = small
        .vertices(&graph)
        .into_iter()
        .map(|v| graph.label(v))
        .collect();
    assert_eq!(labels, vec![1, 2, 4]);

    // The larger core spans {v1, v2, v3, v4, v9} with TTI [1, 4].
    let large = cores.iter().find(|c| c.num_edges() == 6).unwrap();
    assert_eq!(large.tti, TimeWindow::new(1, 4));
    let labels: Vec<u64> = large
        .vertices(&graph)
        .into_iter()
        .map(|v| graph.label(v))
        .collect();
    assert_eq!(labels, vec![1, 2, 3, 4, 9]);
}

#[test]
fn all_algorithms_agree_via_public_api() {
    let graph = paper_example::graph();
    let span = graph.span();
    let mut reference = CollectingSink::default();
    Algorithm::Enum
        .execute(&graph, 2, span, &mut reference)
        .unwrap();
    let reference = reference.into_sorted();
    for algo in [Algorithm::Otcd, Algorithm::EnumBase, Algorithm::Naive] {
        let mut sink = CollectingSink::default();
        algo.execute(&graph, 2, span, &mut sink).unwrap();
        assert_eq!(sink.into_sorted(), reference, "{}", algo.name());
    }
}

#[test]
fn vertex_core_time_index_is_queryable() {
    let graph = paper_example::graph();
    let vct = VertexCoreTimeIndex::build(&graph, 2, graph.span());
    // Example 2: CT_1(v1) = 3, CT_3(v1) = 5.
    let v1 = graph.labels().iter().position(|&l| l == 1).unwrap() as VertexId;
    assert_eq!(vct.core_time(v1, 1), 3);
    assert_eq!(vct.core_time(v1, 3), 5);
    assert_eq!(vct.size(), 24);
}
