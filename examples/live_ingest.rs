//! Live ingestion: appending a temporal graph while serving queries.
//!
//! The other examples treat the graph as frozen — every engine is built
//! once over a fixed timeline.  Real event streams do not stop, so this
//! example runs the appendable path end to end:
//!
//! * the timeline of a dataset analogue is split into "history" (the base
//!   graph the engine starts from) and "tonight's events" (a stream
//!   generated past the base watermark with `EventStream`);
//! * the stream is pushed through `CoreService::submit_append` — the
//!   service's ingest lane absorbs each batch into the live tail shard of
//!   a `ShardedEngine` while the same workers keep answering queries;
//! * a `SealPolicy::EdgeCount` rolls the growing tail into closed shards
//!   mid-stream, and the cache counters show the incremental-maintenance
//!   contract: closed-shard skylines are **never** rebuilt, only
//!   tail-touching entries are invalidated;
//! * out-of-order events (a jittered replay of old timestamps) come back
//!   as typed `TkError` rejections instead of corrupting the timeline.
//!
//! Run with: `cargo run --release --example live_ingest`

use temporal_kcore::prelude::*;

fn main() {
    let profile = DatasetProfile::by_name("CM").expect("profile exists");
    let base = profile.generate();
    let stats = DatasetStats::compute(&base);
    let k = stats.k_for_percent(30);
    println!(
        "Base graph ({} analogue): {} vertices, {} edges, timeline [1, {}], k = {}",
        profile.name, stats.num_vertices, stats.num_edges, stats.tmax, k
    );

    // A sharded service over the base graph: the last shard of the plan is
    // the live tail that absorbs appends.  EdgeCount(400): after ~400
    // appended edges the tail seals into a closed shard and a fresh tail
    // opens with the next batch.
    let service = CoreService::start_sharded(
        base.clone(),
        ShardPlan::FixedCount(4),
        ServiceConfig {
            workers: 2,
            affinity: Affinity::Shard,
            engine: EngineConfig {
                seal_policy: SealPolicy::EdgeCount(400),
                ..EngineConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("fixed-count plan resolves");

    // Tonight's events: a steady stream starting strictly past the base
    // watermark.  It concentrates on 48 hot vertices, so the fresh slice
    // of the timeline is dense enough to contain live cores.
    let stream = EventStream::generate(&EventStreamConfig {
        num_events: 1_200,
        num_vertices: 48,
        start_after: base.tmax(),
        profile: ArrivalProfile::Steady { events_per_tick: 8 },
        seed: 7,
    });
    println!(
        "\nStreaming {} events into the live tail (batches of 96)...",
        stream.len()
    );

    let before = service.cache_stats();
    let mut appended = 0usize;
    let mut seals = 0u32;
    // 96 = 12 full ticks of 8 events: batches end on timestamp boundaries.
    // A seal closes the tail at its last timestamp, so a batch that split a
    // timestamp would leave its second half out-of-order behind the seal.
    for batch in stream.chunks(96) {
        // Waiting on each ticket keeps batches strictly ordered; queries
        // submitted by other clients race the absorb freely.
        let reply = service
            .submit_append(batch.to_vec())
            .expect("service is accepting")
            .wait()
            .expect("steady streams are time-ordered");
        appended += reply.stats.appended;
        seals += u32::from(reply.stats.sealed);

        // A live dashboard query (k = 2: "communities forming right now")
        // over the freshest slice of the timeline, served while the stream
        // keeps flowing.
        let tmax = reply.stats.tmax;
        let window_start = tmax.saturating_sub(10).max(1);
        let ticket = service
            .submit(QueryRequest::single(2, window_start, tmax).count())
            .expect("window is live");
        let answer = ticket.wait().expect("query completes");
        let KOutput::Counts(counts) = &answer.response.outcomes[0].output else {
            unreachable!("count request");
        };
        println!(
            "  absorbed {:>4} events (worker {}, {:>9?}) -> {} cores in [{}, {}]{}",
            reply.stats.appended,
            reply.worker,
            reply.absorb_time,
            counts.num_cores,
            window_start,
            tmax,
            if reply.stats.sealed {
                "  [tail sealed]"
            } else {
                ""
            },
        );
    }

    // Out-of-order events are refused with a typed error, atomically: the
    // whole bad batch changes nothing.
    let stale = vec![(1u64, 2u64, 1u32)];
    let err = service
        .submit_append(stale)
        .expect("admission succeeds; the absorb itself fails")
        .wait()
        .expect_err("stale timestamps are rejected");
    println!("\nReplayed an old timestamp: {err}");

    // What the incremental maintenance did.
    let after = service.cache_stats();
    let delta = IngestDelta::between(&before, &after);
    let lane = service.stats().ingest;
    println!(
        "\nIngest lane: {} batches submitted, {} absorbed, {} rejected, {} events, \
         total absorb time {:?}",
        lane.submitted, lane.completed, lane.failed, lane.events_appended, lane.absorb_total
    );
    println!(
        "Cache movement during the stream: {} tail invalidations, {} boundary \
         invalidations, {} seals, {} skyline builds",
        delta.tail_invalidations, delta.boundary_invalidations, delta.seals, delta.builds
    );
    println!(
        "Appended {appended} events; {seals} seals rolled the tail into closed shards \
         (timeline now has {} shards, {} sealed).",
        service.engine().num_shards(),
        service.engine().sealed_shards(),
    );
    println!(
        "Closed-shard skylines were never rebuilt: appends only dirty the live tail, \
         so history stays warm while the stream flows."
    );
    service.shutdown();
}
