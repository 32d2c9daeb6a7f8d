//! Spotting coordinated amplification bursts in a social interaction graph.
//!
//! Coordinated misinformation campaigns unfold in bursts over varying time
//! scales (Section I of the paper): the same accounts repeatedly interact
//! within short windows that do not align with any predefined slicing of
//! the timeline.  Exhaustively enumerating temporal k-cores across a query
//! range reveals those bursts — including recurring ones — without guessing
//! window boundaries in advance.
//!
//! Run with: `cargo run --release --example misinformation_bursts`

use std::collections::HashMap;
use temporal_kcore::prelude::*;
use temporal_kcore::temporal_graph::generator::{planted_bursty_cores, BurstyConfig};

fn main() {
    // One week of retweet/reply interactions with several coordinated
    // campaigns: the same bot cluster fires repeatedly in short bursts.
    let config = BurstyConfig {
        num_vertices: 1_500,
        background_edges: 4_500,
        num_bursts: 12,
        burst_size: 16,
        burst_duration: 30,
        burst_density: 0.55,
        num_timestamps: 1_008, // 7 days * 144 slots
    };
    let graph = planted_bursty_cores(&config, 99);
    let stats = DatasetStats::compute(&graph);
    println!(
        "Interaction graph: {} accounts, {} interactions, {} slots, kmax = {}",
        stats.num_vertices, stats.num_edges, stats.tmax, stats.kmax
    );

    // Pick k above what organic (background) activity can sustain in any
    // window but below the in-burst degree of a coordinated cluster.
    let k = 6;
    let response = QueryRequest::single(k, 1, graph.tmax())
        .materialize()
        .run(&graph, Algorithm::Enum)
        .expect("valid query");
    let KOutput::Cores(cores) = &response.outcomes[0].output else {
        unreachable!("materialized request")
    };
    println!(
        "\n{} temporal {}-cores across the whole week",
        cores.len(),
        k
    );

    // Group cores by their account set to expose *recurring* campaigns:
    // the same group surfacing in separated windows is a strong signal of
    // coordination rather than organic activity.
    let mut appearances: HashMap<Vec<VertexId>, Vec<TimeWindow>> = HashMap::new();
    for core in cores {
        appearances
            .entry(core.vertices(&graph))
            .or_default()
            .push(core.tti);
    }
    let mut recurring: Vec<(&Vec<VertexId>, &Vec<TimeWindow>)> = appearances
        .iter()
        .filter(|(accounts, windows)| windows.len() >= 2 && accounts.len() <= 40)
        .collect();
    recurring.sort_by_key(|(_, windows)| std::cmp::Reverse(windows.len()));

    println!("Account groups appearing as a dense core in multiple windows:");
    for (accounts, windows) in recurring.iter().take(5) {
        let spans: Vec<String> = windows.iter().map(|w| w.to_string()).collect();
        println!(
            "  {:>2} accounts, {} separate windows: {}",
            accounts.len(),
            windows.len(),
            spans.join("  ")
        );
    }
    if recurring.is_empty() {
        println!("  (none at this k — try lowering k or extending the range)");
    }

    // Show how much of the work is precomputation vs enumeration.
    let mut counting = CountingSink::default();
    let run = Algorithm::Enum
        .execute(&graph, k, graph.span(), &mut counting)
        .expect("valid query");
    println!(
        "\nCost split: CoreTime {:?}, enumeration {:?}, |R| = {} edges",
        run.precompute_time, run.enumerate_time, counting.total_edges
    );
}
