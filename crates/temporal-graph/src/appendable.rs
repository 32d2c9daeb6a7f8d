//! An appendable front for [`TemporalGraph`]: time-ordered ingest with
//! cheap immutable snapshots.
//!
//! [`AppendableGraph`] owns a mutable, time-ordered event log and publishes
//! immutable [`TemporalGraph`] snapshots behind an [`Arc`].  Readers clone
//! the `Arc` ([`AppendableGraph::snapshot`]) and keep a fully consistent
//! view for as long as they hold it; writers batch events with
//! [`AppendableGraph::append`] / [`AppendableGraph::append_batch`] and make
//! them visible atomically with [`AppendableGraph::publish`].
//!
//! # Ordering and identity guarantees
//!
//! * Events must arrive in **non-decreasing timestamp order**, strictly past
//!   the sealed watermark ([`AppendableGraph::floor`]); violations are typed
//!   [`TemporalGraphError::OutOfOrder`] rejections, never panics.
//! * Exact duplicates `(u, v, t)` are rejected with
//!   [`TemporalGraphError::DuplicateEvent`].
//! * Vertex ids are assigned in **first-seen order** and never change once
//!   assigned (unlike [`crate::TemporalGraphBuilder`], which sorts by
//!   label).  Together with time-ordered appends this keeps every edge of an
//!   already-published prefix at a stable [`crate::EdgeId`] across
//!   snapshots: appended edges sort strictly after the sealed prefix, so
//!   `EdgeId`-indexed structures built over timestamps `<=` [`Self::floor`]
//!   remain valid against every later snapshot.
//!
//! # Publishing cost
//!
//! [`AppendableGraph::publish`] derives each snapshot from the previous one
//! instead of rebuilding it: it sorts the batch, and merges the rest.  Only
//! the incidences of the dirty suffix (the events at or past the earliest
//! unpublished timestamp) are sorted; every vertex's old neighbour groups
//! are walked once in neighbour order and the new occurrences merged in.
//! The copy stays linear in the graph, but the `O(|E| log |E|)` re-sort of
//! every incidence is gone, so publish is meant to be called once per
//! batch, not per event; `snapshot()` itself is a single atomic-refcount
//! clone.

use crate::graph::GroupEntry;
use crate::{EdgeId, TemporalEdge, TemporalGraph, TemporalGraphError, Timestamp, VertexId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A mutable, append-only temporal graph publishing immutable snapshots.
///
/// ```
/// use temporal_graph::{AppendableGraph, TemporalGraphBuilder};
///
/// let base = TemporalGraphBuilder::new()
///     .with_edges([(1u64, 2u64, 1i64), (2, 3, 2)])
///     .build()
///     .unwrap();
/// let mut live = AppendableGraph::from_graph(base);
/// let frozen = live.snapshot();
///
/// live.append(1, 3, 3).unwrap();
/// assert!(live.append(1, 3, 1).is_err()); // out of order: typed, no panic
/// let fresh = live.publish();
///
/// assert_eq!(frozen.num_edges(), 2); // old readers keep their view
/// assert_eq!(fresh.num_edges(), 3);
/// ```
#[derive(Debug)]
pub struct AppendableGraph {
    /// All events, normalised to dense ids with `u < v`; sorted by
    /// `(t, u, v)` up to the dirty suffix re-sorted at publish time.
    edges: Vec<TemporalEdge>,
    /// Dense id → external label, in first-seen order.
    labels: Vec<u64>,
    id_of: HashMap<u64, VertexId>,
    /// Largest timestamp appended (or present in the base graph).
    last_t: Timestamp,
    /// Sealed watermark: appends must satisfy `t > floor`.
    floor: Timestamp,
    /// Label-space keys `(min, max)` of the events at `last_t`, for exact
    /// duplicate detection; reset whenever `last_t` advances.
    at_last: HashSet<(u64, u64)>,
    /// Earliest timestamp with unpublished events (`T_INFINITY`-free: `0`
    /// means clean).
    dirty_from: Timestamp,
    pending: usize,
    snapshot: Arc<TemporalGraph>,
}

impl AppendableGraph {
    /// Wraps an existing immutable graph as the sealed starting prefix.
    ///
    /// The graph's vertex-id assignment and edge ids are preserved verbatim;
    /// the initial snapshot is the graph itself.
    pub fn from_graph(graph: TemporalGraph) -> Self {
        let labels = graph.labels().to_vec();
        let id_of = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as VertexId))
            .collect();
        let last_t = graph.tmax();
        let at_last = graph
            .edges_at(last_t)
            .iter()
            .map(|e| Self::label_key(labels[e.u as usize], labels[e.v as usize]))
            .collect();
        let edges = graph.edges().to_vec();
        Self {
            edges,
            labels,
            id_of,
            last_t,
            floor: 0,
            at_last,
            dirty_from: 0,
            pending: 0,
            snapshot: Arc::new(graph),
        }
    }

    #[inline]
    fn label_key(u: u64, v: u64) -> (u64, u64) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// The smallest timestamp [`Self::append`] currently accepts.
    #[inline]
    pub fn watermark(&self) -> Timestamp {
        self.last_t.max(self.floor + 1)
    }

    /// The sealed watermark: every event at `t <= floor()` is immutable and
    /// will keep its [`crate::EdgeId`] in all future snapshots.
    #[inline]
    pub fn floor(&self) -> Timestamp {
        self.floor
    }

    /// Raises the sealed watermark (it never goes down).  Events at or
    /// below the new floor become immutable; later appends must be strictly
    /// past it.
    pub fn raise_floor(&mut self, t: Timestamp) {
        self.floor = self.floor.max(t);
    }

    /// Largest timestamp appended so far (including unpublished events).
    #[inline]
    pub fn last_t(&self) -> Timestamp {
        self.last_t
    }

    /// Number of events appended since the last [`Self::publish`].
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Total number of events, published or not.
    #[inline]
    pub fn num_events(&self) -> usize {
        self.edges.len()
    }

    /// The most recently published immutable snapshot (a cheap `Arc`
    /// clone).  Events appended after the last [`Self::publish`] are not
    /// visible in it.
    #[inline]
    pub fn snapshot(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.snapshot)
    }

    fn push_event(&mut self, u: u64, v: u64, t: Timestamp) {
        if t > self.last_t {
            self.at_last.clear();
            self.last_t = t;
        }
        self.at_last.insert(Self::label_key(u, v));
        let labels = &mut self.labels;
        let a = *self.id_of.entry(u).or_insert_with(|| {
            labels.push(u);
            (labels.len() - 1) as VertexId
        });
        let b = *self.id_of.entry(v).or_insert_with(|| {
            labels.push(v);
            (labels.len() - 1) as VertexId
        });
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.edges.push(TemporalEdge { u: a, v: b, t });
        if self.pending == 0 {
            self.dirty_from = t;
        }
        self.pending += 1;
    }

    /// Appends one event `(u, v, t)` given by external vertex labels and a
    /// normalised timestamp on the graph's `1..=tmax` timeline.
    ///
    /// Fails (without mutating anything) when the event is a self loop, its
    /// timestamp is below [`Self::watermark`], or it exactly duplicates an
    /// occurrence at the same timestamp.
    pub fn append(&mut self, u: u64, v: u64, t: Timestamp) -> Result<(), TemporalGraphError> {
        self.append_batch(&[(u, v, t)]).map(|_| ())
    }

    /// Appends a whole batch atomically: the batch is validated in full
    /// first (including intra-batch ordering and duplicates), and on any
    /// rejection **no event of the batch is applied**.
    ///
    /// Returns the number of events appended (the batch length).
    pub fn append_batch(
        &mut self,
        events: &[(u64, u64, Timestamp)],
    ) -> Result<usize, TemporalGraphError> {
        // Dry-run validation against a simulated cursor, so a fail-fast
        // rejection cannot leave a partial batch behind.
        let mut sim_last = self.last_t;
        let mut sim_new: HashSet<(u64, u64)> = HashSet::new();
        for &(u, v, t) in events {
            if u == v {
                return Err(TemporalGraphError::InvalidEdge {
                    message: format!("self loop ({u}, {v}, {t})"),
                });
            }
            if t == Timestamp::MAX {
                return Err(TemporalGraphError::InvalidEdge {
                    message: format!("timestamp {t} out of range 1..2^32-1"),
                });
            }
            let watermark = sim_last.max(self.floor + 1);
            if t < watermark {
                return Err(TemporalGraphError::OutOfOrder { t, watermark });
            }
            if t > sim_last {
                sim_new.clear();
                sim_last = t;
            }
            let key = Self::label_key(u, v);
            let dup = if sim_last == self.last_t {
                self.at_last.contains(&key) || !sim_new.insert(key)
            } else {
                !sim_new.insert(key)
            };
            if dup {
                return Err(TemporalGraphError::DuplicateEvent { u, v, t });
            }
        }
        for &(u, v, t) in events {
            self.push_event(u, v, t);
        }
        Ok(events.len())
    }

    /// Publishes every pending event as a fresh immutable snapshot and
    /// returns it.  A no-op (returning the current snapshot) when nothing
    /// is pending.
    ///
    /// The cost is "sort the batch, merge the rest": the new snapshot is
    /// derived from the previous one, sorting only the incidences of the
    /// dirty suffix and copying every other index entry once.  Batch
    /// appends between publishes to amortise the copy.
    pub fn publish(&mut self) -> Arc<TemporalGraph> {
        if self.pending == 0 {
            return Arc::clone(&self.snapshot);
        }
        // Appends arrive in non-decreasing `t` but not sorted by `(u, v)`
        // within a timestamp; restore the global `(t, u, v)` order over the
        // dirty suffix only.  Everything before `dirty_from` — in
        // particular the sealed prefix — keeps its position, and with it
        // its `EdgeId`.
        let cut = self.edges.partition_point(|e| e.t < self.dirty_from);
        self.edges[cut..].sort_unstable_by_key(|e| (e.t, e.u, e.v));
        let graph = merge_suffix(&self.snapshot, &self.edges, cut, &self.labels);
        self.snapshot = Arc::new(graph);
        self.pending = 0;
        self.dirty_from = 0;
        Arc::clone(&self.snapshot)
    }
}

/// Derives the snapshot over `edges` (sorted by `(t, u, v)`, dense ids
/// below `labels.len()`) from `prev`, the previous snapshot, whose edges
/// agree with `edges[..cut]`.  `edges[cut..]` is the dirty suffix: every
/// event at or past its first timestamp, including any of `prev`'s own
/// events there, whose ids the re-sort may have moved.
///
/// * `time_offsets` is copied up to the dirty timestamp (padded with `cut`
///   across a gap past `prev`'s `tmax`) and counted from the suffix after.
/// * Only the suffix's incidences are sorted.  Each vertex's old groups are
///   walked in neighbour order, keep their occurrences with id `< cut` (a
///   prefix: occurrences are in id order), and merge the new ones in; a
///   vertex the suffix does not touch is copied verbatim.
///
/// The result equals `assemble_graph(edges.to_vec(), labels.to_vec())`.
fn merge_suffix(
    prev: &TemporalGraph,
    edges: &[TemporalEdge],
    cut: usize,
    labels: &[u64],
) -> TemporalGraph {
    debug_assert!(cut < edges.len() && cut <= prev.edges.len());
    debug_assert!(edges[cut..]
        .windows(2)
        .all(|w| (w[0].t, w[0].u, w[0].v) <= (w[1].t, w[1].u, w[1].v)));
    let num_vertices = labels.len();
    let tmax = edges.last().map_or(0, |e| e.t);
    let dirty = edges[cut].t as usize;

    // `time_offsets[i]` counts the edges with `t < i`: for `i <= dirty`
    // those all lie before `cut`, so `prev` already has the count (or, past
    // its `tmax`, every one of them).
    let mut time_offsets = Vec::with_capacity(tmax as usize + 2);
    time_offsets.extend_from_slice(&prev.time_offsets[..(dirty + 1).min(prev.time_offsets.len())]);
    time_offsets.resize(dirty + 1, cut as u32);
    let mut id = cut;
    for i in dirty + 1..=tmax as usize + 1 {
        while id < edges.len() && (edges[id].t as usize) < i {
            id += 1;
        }
        time_offsets.push(id as u32);
    }

    let mut fresh: Vec<(VertexId, VertexId, Timestamp, EdgeId)> =
        Vec::with_capacity(2 * (edges.len() - cut));
    for (id, e) in edges.iter().enumerate().skip(cut) {
        fresh.push((e.u, e.v, e.t, id as EdgeId));
        fresh.push((e.v, e.u, e.t, id as EdgeId));
    }
    fresh.sort_unstable();

    let mut adj_offsets = Vec::with_capacity(num_vertices + 1);
    adj_offsets.push(0u32);
    let mut groups: Vec<GroupEntry> = Vec::with_capacity(prev.groups.len() + fresh.len());
    let mut occurrences: Vec<(Timestamp, EdgeId)> =
        Vec::with_capacity(prev.occurrences.len() + fresh.len());
    let mut next = 0usize;
    for u in 0..num_vertices {
        let old = if u < prev.num_vertices {
            &prev.groups[prev.adj_offsets[u] as usize..prev.adj_offsets[u + 1] as usize]
        } else {
            &[]
        };
        let start = next;
        while next < fresh.len() && fresh[next].0 as usize == u {
            next += 1;
        }
        let mut new = &fresh[start..next];
        if new.is_empty() {
            // Untouched by the suffix, so every occurrence predates `cut`
            // and the vertex's groups copy over as one block.  The block
            // only moves up: every earlier vertex kept or re-merged all of
            // its occurrences.
            if let (Some(first), Some(last)) = (old.first(), old.last()) {
                let shift = occurrences.len() as u32 - first.occ_start;
                occurrences.extend_from_slice(
                    &prev.occurrences[first.occ_start as usize..last.occ_end as usize],
                );
                groups.extend(old.iter().map(|g| GroupEntry {
                    neighbor: g.neighbor,
                    occ_start: g.occ_start + shift,
                    occ_end: g.occ_end + shift,
                }));
            }
            adj_offsets.push(groups.len() as u32);
            continue;
        }
        let mut old = old.iter().peekable();
        loop {
            let old_next = old.peek().map(|g| g.neighbor);
            let new_next = new.first().map(|f| f.1);
            let neighbor = match (old_next, new_next) {
                (None, None) => break,
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
            };
            let occ_start = occurrences.len() as u32;
            if old_next == Some(neighbor) {
                if let Some(g) = old.next() {
                    let kept = &prev.occurrences[g.occ_start as usize..g.occ_end as usize];
                    let keep = kept.partition_point(|&(_, id)| (id as usize) < cut);
                    occurrences.extend_from_slice(&kept[..keep]);
                }
            }
            let run = new.partition_point(|f| f.1 == neighbor);
            occurrences.extend(new[..run].iter().map(|&(_, _, t, id)| (t, id)));
            new = &new[run..];
            groups.push(GroupEntry {
                neighbor,
                occ_start,
                occ_end: occurrences.len() as u32,
            });
        }
        adj_offsets.push(groups.len() as u32);
    }

    TemporalGraph {
        num_vertices,
        edges: edges.to_vec(),
        tmax,
        time_offsets,
        adj_offsets,
        groups,
        occurrences,
        labels: labels.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::assemble_graph;
    use crate::{TemporalGraphBuilder, TimeWindow};
    use proptest::prelude::*;

    fn base() -> TemporalGraph {
        TemporalGraphBuilder::new()
            .with_edges([(0u64, 1u64, 1i64), (1, 2, 2), (0, 2, 3), (2, 3, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn snapshots_are_immutable_and_publish_is_atomic() {
        let mut live = AppendableGraph::from_graph(base());
        let frozen = live.snapshot();
        live.append(0, 3, 4).unwrap();
        live.append(1, 3, 4).unwrap();
        // Not yet published: the snapshot is unchanged.
        assert_eq!(live.snapshot().num_edges(), 4);
        let fresh = live.publish();
        assert_eq!(frozen.num_edges(), 4);
        assert_eq!(fresh.num_edges(), 6);
        assert_eq!(fresh.tmax(), 4);
        assert_eq!(fresh.edges_at(4).len(), 2);
    }

    #[test]
    fn out_of_order_duplicate_and_self_loop_are_typed_errors() {
        let mut live = AppendableGraph::from_graph(base());
        assert!(matches!(
            live.append(0, 3, 2),
            Err(TemporalGraphError::OutOfOrder { t: 2, watermark: 3 })
        ));
        // (0, 2) already occurs at t = 3 = tmax of the base graph.
        assert!(matches!(
            live.append(2, 0, 3),
            Err(TemporalGraphError::DuplicateEvent { t: 3, .. })
        ));
        assert!(matches!(
            live.append(5, 5, 7),
            Err(TemporalGraphError::InvalidEdge { .. })
        ));
        // Same timestamp as tmax but a new pair: accepted.
        live.append(1, 3, 3).unwrap();
        // Appending it again at the same timestamp duplicates it.
        assert!(matches!(
            live.append(3, 1, 3),
            Err(TemporalGraphError::DuplicateEvent { .. })
        ));
        // Nothing above mutated the published view.
        assert_eq!(live.publish().num_edges(), 5);
    }

    #[test]
    fn batches_apply_all_or_nothing() {
        let mut live = AppendableGraph::from_graph(base());
        let err = live
            .append_batch(&[(0, 3, 4), (1, 3, 5), (0, 1, 4)])
            .unwrap_err();
        assert!(matches!(err, TemporalGraphError::OutOfOrder { .. }));
        assert_eq!(live.pending(), 0);
        assert_eq!(live.last_t(), 3);

        let dup = live.append_batch(&[(0, 3, 4), (3, 0, 4)]).unwrap_err();
        assert!(matches!(dup, TemporalGraphError::DuplicateEvent { .. }));
        assert_eq!(live.pending(), 0);

        assert_eq!(live.append_batch(&[(0, 3, 4), (1, 3, 5)]).unwrap(), 2);
        assert_eq!(live.publish().tmax(), 5);
    }

    #[test]
    fn floor_seals_the_prefix() {
        let mut live = AppendableGraph::from_graph(base());
        live.raise_floor(3);
        assert!(matches!(
            live.append(0, 3, 3),
            Err(TemporalGraphError::OutOfOrder { t: 3, watermark: 4 })
        ));
        live.append(0, 3, 4).unwrap();
        live.raise_floor(2); // never goes down
        assert_eq!(live.floor(), 3);
    }

    #[test]
    fn sealed_edge_ids_are_stable_and_new_vertices_get_fresh_ids() {
        let mut live = AppendableGraph::from_graph(base());
        let before = live.snapshot();
        // A brand-new vertex label smaller than every existing label: the
        // sorted builder would renumber, the appendable layer must not.
        live.append_batch(&[(7, 0, 4), (7, 1, 4)]).unwrap();
        let after = live.publish();
        for (id, e) in before.edges().iter().enumerate() {
            assert_eq!(after.edge(id as u32), e, "sealed edge {id} moved");
        }
        for (id, &l) in before.labels().iter().enumerate() {
            assert_eq!(after.label(id as u32), l, "vertex {id} renumbered");
        }
        assert_eq!(after.num_vertices(), before.num_vertices() + 1);
        assert_eq!(after.num_edges_in(TimeWindow::new(4, 4)), 2);
        // The new snapshot is fully indexed: adjacency sees the new edges.
        let v7 = after.labels().iter().position(|&l| l == 7).unwrap() as u32;
        assert_eq!(after.distinct_degree(v7), 2);
    }

    #[test]
    fn rebuilt_graph_matches_a_from_scratch_build_in_label_space() {
        let mut live = AppendableGraph::from_graph(base());
        let events = [(0u64, 3u64, 4u32), (4, 0, 5), (4, 3, 5)];
        live.append_batch(&events).unwrap();
        let inc = live.publish();

        let scratch = TemporalGraphBuilder::new()
            .with_edges(
                [(0u64, 1u64, 1i64), (1, 2, 2), (0, 2, 3), (2, 3, 3)]
                    .into_iter()
                    .chain(events.iter().map(|&(u, v, t)| (u, v, i64::from(t)))),
            )
            .timestamp_mode(crate::TimestampMode::Raw)
            .build()
            .unwrap();

        let canon = |g: &TemporalGraph| {
            let mut v: Vec<(u64, u64, Timestamp)> = g
                .edges()
                .iter()
                .map(|e| {
                    let (a, b) = (g.label(e.u), g.label(e.v));
                    let (a, b) = if a < b { (a, b) } else { (b, a) };
                    (a, b, e.t)
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(canon(&inc), canon(&scratch));
    }

    /// Every index of `got` equals the one `assemble_graph` builds from
    /// `live`'s edges and labels.
    fn assert_matches_a_full_assembly(live: &AppendableGraph, got: &TemporalGraph) {
        let want = assemble_graph(live.edges.clone(), live.labels.clone());
        let groups = |g: &TemporalGraph| -> Vec<(VertexId, u32, u32)> {
            g.groups
                .iter()
                .map(|e| (e.neighbor, e.occ_start, e.occ_end))
                .collect()
        };
        assert_eq!(got.num_vertices, want.num_vertices);
        assert_eq!(got.tmax, want.tmax);
        assert_eq!(got.edges, want.edges);
        assert_eq!(got.time_offsets, want.time_offsets);
        assert_eq!(got.adj_offsets, want.adj_offsets);
        assert_eq!(groups(got), groups(&want));
        assert_eq!(got.occurrences, want.occurrences);
        assert_eq!(got.labels, want.labels);
    }

    #[test]
    fn appends_at_tmax_move_published_ids_and_merge_exactly() {
        let mut live = AppendableGraph::from_graph(base());
        // (0, 1) sorts before the published (0, 2) and (2, 3) at t = 3, so
        // both of those move up one id.
        live.append_batch(&[(1, 3, 3), (0, 1, 3)]).unwrap();
        let merged = live.publish();
        assert_matches_a_full_assembly(&live, &merged);
        // A gap past tmax + 1 leaves empty timestamps in between.
        live.append_batch(&[(9, 0, 7), (9, 2, 7)]).unwrap();
        let merged = live.publish();
        assert_matches_a_full_assembly(&live, &merged);
        assert_eq!(merged.edges_at(5).len(), 0);
        assert_eq!(merged.edges_at(7).len(), 2);
    }

    /// One step of the merge-publish property: `(kind, events)`, where each
    /// event `(u, v, dt)` lands at `watermark + dt` (plus a gap of 2 for
    /// kind 3).  Kind 0 publishes, kind 1 leaves the batch pending for the
    /// next publish, kind 2 raises the floor to `last_t` first, kind 3
    /// skips timestamps.
    type Step = (u8, Vec<(u64, u64, u32)>);

    fn arb_steps() -> impl Strategy<Value = (Vec<(u64, u64, i64)>, Vec<Step>)> {
        (
            prop::collection::vec((0u64..8, 0u64..8, 1i64..5), 1..14),
            prop::collection::vec(
                (
                    0u8..4,
                    prop::collection::vec((0u64..14, 0u64..14, 0u32..3), 1..7),
                ),
                1..12,
            ),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever the batch sequence — appends at `t == tmax`, gaps past
        /// `tmax + 1`, new labels, raised floors, several batches per
        /// publish — every published snapshot equals a full assembly over
        /// the same edges.
        #[test]
        fn merge_publish_matches_a_full_assembly((base, steps) in arb_steps()) {
            let edges = base.into_iter().map(|(u, v, t)| (u, if u == v { v + 1 } else { v }, t));
            let graph = TemporalGraphBuilder::new()
                .timestamp_mode(crate::TimestampMode::Raw)
                .with_edges(edges)
                .build()
                .unwrap();
            let mut live = AppendableGraph::from_graph(graph);
            for (kind, events) in steps {
                if kind == 2 {
                    live.raise_floor(live.last_t());
                }
                let gap = if kind == 3 { 2 } else { 0 };
                let watermark = live.watermark();
                let mut batch: Vec<(u64, u64, Timestamp)> = events
                    .into_iter()
                    .map(|(u, v, dt)| (u, if u == v { v + 1 } else { v }, watermark + gap + dt))
                    .collect();
                batch.sort_by_key(|&(_, _, t)| t);
                // A batch repeating a pair at one timestamp is refused
                // whole and leaves no trace.
                let _ = live.append_batch(&batch);
                if kind != 1 {
                    let published = live.publish();
                    assert_matches_a_full_assembly(&live, &published);
                }
            }
            let published = live.publish();
            assert_matches_a_full_assembly(&live, &published);
        }
    }
}
