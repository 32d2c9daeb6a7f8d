//! Seeded input generation for the three workloads, plus the self-checks
//! that pin what each workload claims to exercise.
//!
//! Everything here is a pure function of the dataset and the seed: the
//! service under test only ever sees the generated request lines and
//! append batches.

use std::collections::{BTreeMap, HashSet};

use temporal_graph::{TemporalGraph, TimeWindow, Timestamp};
use tkc_datasets::{ArrivalProfile, DatasetProfile, DatasetStats, EventStream, EventStreamConfig};
use tkcore::{CountingSink, EdgeCoreSkyline, IngestEvent, ShardPlan};

/// Shards of the served plan (`tkc serve --shards 4`).
pub const SHARDS: usize = 4;
/// Distinct requests per query workload.
const POOL: usize = 64;
/// Ingest stream shape: events per tick, ticks per batch, batches.
const EVENTS_PER_TICK: usize = 20;
const TICKS_PER_BATCH: usize = 2;
const BATCHES: usize = 40;
/// Labels of the appended stream are drawn from `1..=STREAM_VERTICES`, a
/// dense corner of the base graph, so tail windows hold k-cores.
const STREAM_VERTICES: u64 = 40;
/// The append stream is part of the dataset, like the EM graph itself: the
/// workload seed draws the query windows, not the events.
const STREAM_SEED: u64 = 0x1736;
/// Tail seal threshold (edge occurrences), so the live tail stays bounded.
pub const SEAL_EDGES: usize = 800;
/// Windows per ingest epoch, ending 1..=4 ticks below the watermark.  The
/// seed only orders all but the freshest: result sizes in the dense tail
/// swing with every tick of window length, so seed-drawn windows would make
/// the result-normalised throughput a draw of the seed.
const WINDOWS_PER_EPOCH: usize = 4;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InshardCount,
    SpanningCores,
    IngestTail,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::InshardCount,
        Workload::SpanningCores,
        Workload::IngestTail,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InshardCount => "inshard-count",
            Workload::SpanningCores => "spanning-cores",
            Workload::IngestTail => "ingest-tail",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections sending queries.
    pub fn connections(self) -> usize {
        match self {
            Workload::IngestTail => 1,
            _ => 2,
        }
    }
}

/// The EM analogue and the paper-default parameters derived from it.
pub struct Dataset {
    pub graph: TemporalGraph,
    pub stats: DatasetStats,
    /// The paper's default `k`: 30% of `kmax`.
    pub k: usize,
    /// The paper's default window length: 10% of `tmax`.
    pub window_len: Timestamp,
    pub shards: Vec<TimeWindow>,
}

impl Dataset {
    pub fn em() -> Self {
        let graph = em_graph();
        let stats = DatasetStats::compute(&graph);
        let shards = ShardPlan::FixedCount(SHARDS)
            .resolve(&graph)
            .expect("a fixed shard count resolves on a non-empty graph");
        Self {
            k: stats.k_for_percent(30),
            window_len: stats.range_len_for_percent(10),
            stats,
            shards,
            graph,
        }
    }

    /// The timestamps after which the plan places a cut.
    pub fn cuts(&self) -> Vec<Timestamp> {
        self.shards[..self.shards.len() - 1]
            .iter()
            .map(|s| s.end())
            .collect()
    }
}

/// Generates the EM analogue graph (fixed by its profile).
pub fn em_graph() -> TemporalGraph {
    DatasetProfile::by_name("EM")
        .expect("the EM profile exists")
        .generate()
}

/// One distinct query request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request {
    pub start: Timestamp,
    pub end: Timestamp,
    pub k_min: usize,
    pub k_max: usize,
    /// `"output":"cores"` rather than `"count"`.
    pub cores: bool,
}

impl Request {
    pub fn window(&self) -> TimeWindow {
        TimeWindow::new(self.start, self.end)
    }

    pub fn ks(&self) -> std::ops::RangeInclusive<usize> {
        self.k_min..=self.k_max
    }

    /// The request's wire line (no newline), echoing `id`.
    pub fn line(&self, id: usize) -> String {
        let output = if self.cores { "cores" } else { "count" };
        if self.k_min == self.k_max {
            format!(
                "{{\"id\":{id},\"k\":{},\"start\":{},\"end\":{},\"output\":\"{output}\"}}",
                self.k_min, self.start, self.end
            )
        } else {
            format!(
                "{{\"id\":{id},\"k_min\":{},\"k_max\":{},\"start\":{},\"end\":{},\"output\":\"{output}\"}}",
                self.k_min, self.k_max, self.start, self.end
            )
        }
    }
}

/// The append side of `ingest-tail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestPlan {
    /// Time-ordered batches, each cut on a tick boundary.
    pub batches: Vec<Vec<IngestEvent>>,
    /// `epochs[j]`: indexes into [`Plan::requests`] a client may send once
    /// `j` batches are acknowledged, freshest window first.  Empty right
    /// after a seal, when there is no live tail to query, and after the
    /// last batch.
    pub epochs: Vec<Vec<usize>>,
    /// Predicted live tail after `j` batches (`None` right after a seal).
    pub tails: Vec<Option<TimeWindow>>,
    /// Predicted ingest watermark after `j` batches.
    pub watermarks: Vec<Timestamp>,
}

/// Everything a run sends: the distinct requests and, for `ingest-tail`,
/// the append stream and its epoch schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub workload: Workload,
    pub requests: Vec<Request>,
    pub ingest: Option<IngestPlan>,
}

impl Plan {
    pub fn generate(workload: Workload, data: &Dataset, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5e4e_be7c_0000_0000 ^ workload as u64);
        match workload {
            Workload::InshardCount => Self {
                workload,
                requests: inshard_requests(data, &mut rng),
                ingest: None,
            },
            Workload::SpanningCores => Self {
                workload,
                requests: spanning_requests(data, &mut rng),
                ingest: None,
            },
            Workload::IngestTail => {
                let (requests, ingest) = ingest_plan(data, &mut rng);
                Self {
                    workload,
                    requests,
                    ingest: Some(ingest),
                }
            }
        }
    }

    /// The distinct `k` values the plan queries.
    pub fn ks(&self) -> Vec<usize> {
        let mut ks: Vec<usize> = self.requests.iter().flat_map(Request::ks).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }
}

/// Paper-default windows placed wholly inside one shard, spread evenly
/// over every such window that holds a k-core (the paper's protocol only
/// queries windows with a result).
fn inshard_requests(data: &Dataset, rng: &mut Rng) -> Vec<Request> {
    let len = data.window_len;
    let mut candidates = Vec::new();
    for &shard in &data.shards {
        let starts = shard.start()..=shard.end().saturating_sub(len - 1);
        let windows = starts.map(|s| TimeWindow::new(s, s + len - 1));
        candidates.extend(with_cores(&data.graph, data.k, shard, windows));
    }
    spread(&candidates, rng)
        .into_iter()
        .map(|w| Request {
            start: w.start(),
            end: w.end(),
            k_min: data.k,
            k_max: data.k,
            cores: false,
        })
        .collect()
}

/// Paper-default windows straddling one shard cut (each holds both `cut`
/// and `cut + 1`), swept over the three `k` values up to the default, with
/// materialised cores; spread evenly over every such window with a result.
///
/// Windows straddle exactly one cut: on EM a window crossing two cuts
/// must contain a whole 108-tick shard and returns millions of result
/// edges per sweep, which would turn the workload into a memory test.
fn spanning_requests(data: &Dataset, rng: &mut Rng) -> Vec<Request> {
    let len = data.window_len;
    let mut candidates = Vec::new();
    for pair in data.shards.windows(2) {
        let cover = TimeWindow::new(pair[0].start(), pair[1].end());
        let cut = pair[0].end();
        let starts = cut.saturating_sub(len - 2).max(cover.start())..=cut;
        let windows = starts
            .map(|s| TimeWindow::new(s, s + len - 1))
            .filter(|w| cover.contains_window(w));
        candidates.extend(with_cores(&data.graph, data.k, cover, windows));
    }
    let k_min = data.k.saturating_sub(2).max(1);
    spread(&candidates, rng)
        .into_iter()
        .map(|w| Request {
            start: w.start(),
            end: w.end(),
            k_min,
            k_max: data.k,
            cores: true,
        })
        .collect()
}

/// The candidate windows (all inside `cover`) holding at least one
/// `k`-core, found by restricting one skyline of `cover`.
fn with_cores(
    graph: &TemporalGraph,
    k: usize,
    cover: TimeWindow,
    candidates: impl Iterator<Item = TimeWindow>,
) -> Vec<TimeWindow> {
    let skyline = EdgeCoreSkyline::build(graph, k, cover);
    candidates
        .filter(|&w| {
            let mut sink = CountingSink::default();
            tkcore::enumerate(graph, &skyline.restrict(graph, w), &mut sink);
            sink.num_cores > 0
        })
        .collect()
}

/// [`POOL`] candidates, one drawn uniformly from each of [`POOL`] equal
/// strata of the list, so every seed covers the timeline alike.
fn spread(candidates: &[TimeWindow], rng: &mut Rng) -> Vec<TimeWindow> {
    let n = POOL.min(candidates.len());
    (0..n)
        .map(|i| {
            let at = (i as f64 + rng.unit()) / n as f64 * candidates.len() as f64;
            candidates[(at as usize).min(candidates.len() - 1)]
        })
        .collect()
}

/// The `ingest-tail` plan: a Steady event stream after the base graph's
/// `tmax`, cut into fixed two-tick batches, and per-epoch count windows
/// confined to the predicted live tail and ending below the watermark.
fn ingest_plan(data: &Dataset, rng: &mut Rng) -> (Vec<Request>, IngestPlan) {
    let tmax = data.stats.tmax;
    let events = EventStream::generate(&EventStreamConfig {
        num_events: BATCHES * TICKS_PER_BATCH * EVENTS_PER_TICK,
        num_vertices: STREAM_VERTICES,
        start_after: tmax,
        profile: ArrivalProfile::Steady {
            events_per_tick: EVENTS_PER_TICK,
        },
        seed: STREAM_SEED,
    });
    // Drop the rare self-loop or duplicate the generator could not reroll,
    // so no batch is ever rejected.
    let mut seen = HashSet::new();
    let mut by_batch: BTreeMap<Timestamp, Vec<IngestEvent>> = BTreeMap::new();
    for (u, v, t) in events {
        if u != v && seen.insert((u.min(v), u.max(v), t)) {
            let batch = (t - tmax - 1) / TICKS_PER_BATCH as Timestamp;
            by_batch.entry(batch).or_default().push((u, v, t));
        }
    }
    let batches: Vec<Vec<IngestEvent>> = by_batch.into_values().collect();

    // Predict the live tail exactly as `SealPolicy::EdgeCount` rolls it.
    let base_tail = *data.shards.last().expect("the plan has shards");
    let mut tails = vec![Some(base_tail)];
    let mut watermarks = vec![tmax];
    let mut tail_edges = data.graph.num_edges_in(base_tail);
    let mut tail_start = Some(base_tail.start());
    for batch in &batches {
        let first = batch.first().expect("batches are non-empty").2;
        let last = batch.last().expect("batches are non-empty").2;
        let start = *tail_start.get_or_insert(first);
        if tails.last().is_some_and(Option::is_none) {
            tail_edges = 0;
        }
        tail_edges += batch.len();
        if tail_edges >= SEAL_EDGES {
            // A seal raises the append floor past the sealed tail.
            tails.push(None);
            tail_start = None;
            watermarks.push(last + 1);
        } else {
            tails.push(Some(TimeWindow::new(start, last)));
            watermarks.push(last);
        }
    }

    let len = data.window_len;
    let mut requests: Vec<Request> = Vec::new();
    let mut index: BTreeMap<Request, usize> = BTreeMap::new();
    // No windows after the last batch: the round ends with the stream.
    let queried = tails.len() - 1;
    let mut epochs: Vec<Vec<usize>> = tails[..queried]
        .iter()
        .zip(&watermarks)
        .map(|(tail, &watermark)| {
            let Some(tail) = tail else {
                return Vec::new();
            };
            // The freshest window first: clients send it once more while
            // the next batch lands.
            let mut below: Vec<Timestamp> = (1..=WINDOWS_PER_EPOCH as Timestamp).collect();
            for i in (2..below.len()).rev() {
                below.swap(i, rng.range(1, i as Timestamp) as usize);
            }
            below
                .into_iter()
                .map(|below| {
                    let end = watermark.saturating_sub(below).max(tail.start());
                    let request = Request {
                        start: end.saturating_sub(len - 1).max(tail.start()),
                        end,
                        k_min: data.k,
                        k_max: data.k,
                        cores: false,
                    };
                    *index.entry(request).or_insert_with(|| {
                        requests.push(request);
                        requests.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    epochs.push(Vec::new());
    (
        requests,
        IngestPlan {
            batches,
            epochs,
            tails,
            watermarks,
        },
    )
}

/// Checks the claims each workload's generator makes; returns the first
/// violated claim.
pub fn self_check(plan: &Plan, data: &Dataset, seed: u64) -> Result<(), String> {
    if plan.requests.is_empty() {
        return Err("the plan has no requests".into());
    }
    if Plan::generate(plan.workload, data, seed) != *plan {
        return Err("generation is not deterministic per seed".into());
    }
    let cuts = data.cuts();
    let crossed = |r: &Request| cuts.iter().filter(|&&c| r.start <= c && c < r.end).count();
    match plan.workload {
        Workload::InshardCount => {
            if let Some(r) = plan.requests.iter().find(|r| crossed(r) > 0) {
                return Err(format!("inshard window {} crosses a cut", r.window()));
            }
        }
        Workload::SpanningCores => {
            if let Some(r) = plan
                .requests
                .iter()
                .find(|r| !(1..=2).contains(&crossed(r)))
            {
                return Err(format!(
                    "spanning window {} crosses no cut or >2",
                    r.window()
                ));
            }
            // One stitch entry per (shard range, k).
            let mut stitch = HashSet::new();
            for r in &plan.requests {
                let lo = data.shards.partition_point(|s| s.end() < r.start);
                let hi = data.shards.partition_point(|s| s.start() <= r.end);
                for k in r.ks() {
                    stitch.insert((lo, hi, k));
                }
            }
            let budget = tkcore::EngineConfig::default().boundary_cache_entries;
            if stitch.len() > budget {
                return Err(format!(
                    "stitch working set {} exceeds the {budget}-entry cache",
                    stitch.len()
                ));
            }
        }
        Workload::IngestTail => check_ingest(plan, data)?,
    }
    Ok(())
}

/// Replays the stream on a bare engine and checks every epoch's windows
/// against its real tail and watermark.
fn check_ingest(plan: &Plan, data: &Dataset) -> Result<(), String> {
    let ingest = plan.ingest.as_ref().ok_or("ingest-tail has no stream")?;
    let engine = tkcore::ShardedEngine::with_config(
        data.graph.clone(),
        ShardPlan::FixedCount(SHARDS),
        engine_config(Workload::IngestTail),
    )
    .map_err(|e| e.to_string())?;
    for (j, windows) in ingest.epochs.iter().enumerate() {
        if j > 0 {
            let batch = &ingest.batches[j - 1];
            if batch.iter().any(|&(u, v, _)| u == v) {
                return Err(format!("batch {} holds a self-loop", j - 1));
            }
            engine
                .absorb(batch)
                .map_err(|e| format!("batch {}: {e}", j - 1))?;
        }
        let shards = engine.shards();
        let live_tail = (engine.sealed_shards() < shards.len()).then(|| shards[shards.len() - 1]);
        if live_tail != ingest.tails[j] || engine.watermark() != ingest.watermarks[j] {
            return Err(format!(
                "epoch {j}: predicted tail/watermark disagree with the engine"
            ));
        }
        for &i in windows {
            let r = plan.requests[i];
            let tail = live_tail.ok_or(format!("epoch {j} queries without a live tail"))?;
            if r.end >= engine.watermark() || r.end < tail.start() {
                return Err(format!(
                    "epoch {j}: window {} must overlap tail {tail} and end below {}",
                    r.window(),
                    engine.watermark()
                ));
            }
        }
    }
    Ok(())
}

/// The engine configuration the served stack runs with.
pub fn engine_config(workload: Workload) -> tkcore::EngineConfig {
    let mut config = tkcore::EngineConfig::default();
    if workload == Workload::IngestTail {
        config.seal_policy = tkcore::SealPolicy::EdgeCount(SEAL_EDGES);
    }
    config
}

/// SplitMix64: a small, seedable, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi` (returns `lo` when `hi < lo`).
    fn range(&mut self, lo: Timestamp, hi: Timestamp) -> Timestamp {
        if hi <= lo {
            return lo;
        }
        lo + (self.next() % u64::from(hi - lo + 1)) as Timestamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_self_check_on_several_seeds() {
        let data = Dataset::em();
        for seed in [1, 2, 3, 17, 991] {
            for workload in Workload::ALL {
                let plan = Plan::generate(workload, &data, seed);
                self_check(&plan, &data, seed)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            }
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let data = Dataset::em();
        for workload in Workload::ALL {
            let a = Plan::generate(workload, &data, 1);
            let b = Plan::generate(workload, &data, 2);
            assert_ne!(a, b, "{}", workload.name());
        }
    }

    #[test]
    fn wire_lines_parse_back_to_the_request() {
        let r = Request {
            start: 3,
            end: 9,
            k_min: 2,
            k_max: 4,
            cores: true,
        };
        let line = r.line(7);
        let tkcore::wire::WireRequest::Query(q) = tkcore::wire::parse_request(&line).unwrap()
        else {
            panic!("a query line");
        };
        assert_eq!(q.client_id, Some(7));
        assert_eq!(q.request.window_bounds(), (3, 9));
    }
}
