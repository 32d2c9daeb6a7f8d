//! Quickstart: run the paper's running example end to end.
//!
//! Builds the temporal graph of Figure 1, asks for all temporal 2-cores in
//! the query range [1, 4] (Example 1), and prints the two resulting cores
//! of Figure 2 together with the underlying index structures.
//!
//! Run with: `cargo run --example quickstart`

use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

fn main() {
    // The graph of Figure 1: vertices v1..v9, edges with timestamps 1..7.
    let graph = paper_example::graph();
    println!(
        "Temporal graph G: {} vertices, {} temporal edges, timestamps 1..={}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.tmax()
    );

    // The time-range k-core query of Example 1: k = 2, range [1, 4].
    let response = QueryRequest::single(2, 1, 4)
        .materialize()
        .run(&graph, Algorithm::Enum)
        .expect("valid query on the example graph");
    let KOutput::Cores(cores) = &response.outcomes[0].output else {
        unreachable!("materialized request")
    };
    println!(
        "\nTemporal 2-cores in range [1, 4] (Figure 2): {}",
        cores.len()
    );
    for core in cores {
        let vertex_labels: Vec<String> = core
            .vertices(&graph)
            .into_iter()
            .map(|v| format!("v{}", graph.label(v)))
            .collect();
        println!(
            "  TTI {:>6}  vertices {{{}}}  ({} edges)",
            core.tti.to_string(),
            vertex_labels.join(", "),
            core.num_edges()
        );
    }

    // The two index structures behind the fast enumeration.
    let vct = VertexCoreTimeIndex::build(&graph, 2, graph.span());
    println!(
        "\nVertex core time index (Table I), |VCT| = {}:",
        vct.size()
    );
    for label in 1..=9u64 {
        let u = graph
            .labels()
            .iter()
            .position(|&l| l == label)
            .expect("vertex exists") as VertexId;
        let entries: Vec<String> = vct
            .entries(u)
            .iter()
            .map(|&(ts, ct)| {
                if ct == temporal_graph::T_INFINITY {
                    format!("[{ts}, inf]")
                } else {
                    format!("[{ts}, {ct}]")
                }
            })
            .collect();
        println!("  v{label}: {}", entries.join(", "));
    }

    let ecs = EdgeCoreSkyline::build(&graph, 2, graph.span());
    println!(
        "\nEdge core window skylines (Table II), |ECS| = {} windows over {} edges:",
        ecs.total_windows(),
        ecs.num_edges_with_windows()
    );
    for (edge, windows) in ecs.iter() {
        let e = graph.edge(edge);
        let ws: Vec<String> = windows.iter().map(|w| w.to_string()).collect();
        println!(
            "  (v{}, v{}, {}): {}",
            graph.label(e.u),
            graph.label(e.v),
            e.t,
            ws.join(", ")
        );
    }

    // Compare algorithms on the same query, each executed per query.
    println!("\nAlgorithm comparison on the full span {}:", graph.span());
    for algo in [Algorithm::Otcd, Algorithm::EnumBase, Algorithm::Enum] {
        let mut sink = CountingSink::default();
        let stats = algo
            .execute(&graph, 2, graph.span(), &mut sink)
            .expect("valid query");
        println!(
            "  {:>8}: {} cores, |R| = {} edges, {:?}",
            algo.name(),
            sink.num_cores,
            sink.total_edges,
            stats.total_time()
        );
    }
}
