//! Domain-range sharding: a [`ShardedIndex`] front-end that splits the
//! domain into `K` contiguous shards, each owning an independent inner
//! index over its slice of the data.
//!
//! This is the serving-side counterpart of the paper's hierarchical
//! partitioning: the domain is cut into `K` contiguous ranges at build
//! time, every interval is stored in each shard its extent overlaps, and
//! a query only touches the shards its range overlaps — usually one. The
//! originals/replicas discipline of §3.2 carries over wholesale:
//!
//! * an interval is an **original** in the shard containing its start
//!   point and a **replica** in every later shard it crosses into;
//! * the *first* shard a query is routed to reports everything it finds
//!   (any interval there overlapping the query does so at or after the
//!   query's own start);
//! * every *later* routed shard suppresses its replicas on emit — their
//!   overlap with the query began in an earlier shard, which already
//!   reported them.
//!
//! Each result is therefore emitted exactly once, with no cross-shard
//! result-set intersection and no post-hoc dedup pass.
//!
//! Queries route through [`ShardedIndex::query_sink`] (sequential, shard
//! order) or the batched executor in [`crate::executor`], which fans a
//! whole batch out across shards with one thread per shard and merges the
//! per-shard results back into the callers' sinks ([`MergeableSink`]).
//! Writes route to exactly the shards whose ranges the new interval
//! overlaps ([`MutableIndex`]).
//!
//! ```
//! use hint_core::{Hint, Interval, IntervalIndex, RangeQuery, ShardedIndex};
//!
//! let data: Vec<Interval> = (0..1_000)
//!     .map(|i| Interval::new(i, i * 10, i * 10 + 25))
//!     .collect();
//! // four contiguous domain shards, each a fully-optimized HINT^m
//! let sharded = ShardedIndex::build_with(&data, 4, |slice, lo, hi| {
//!     Hint::build_with_domain(slice, hint_core::Domain::new(lo, hi, 10), Default::default())
//! });
//! assert_eq!(sharded.shard_count(), 4);
//! assert_eq!(sharded.count(RangeQuery::new(0, 9_999)), 1_000);
//! ```

use crate::interval::{Interval, IntervalId, RangeQuery, Time};
use crate::sink::QuerySink;
use crate::IntervalIndex;
use std::collections::{HashMap, HashSet};

/// Write interface shared by the updatable indexes in the workspace
/// ([`crate::Hint`], [`crate::HintMBase`], [`crate::HintMSubs`],
/// [`crate::HybridHint`], [`crate::ConcurrentHint`]), so generic
/// front-ends like [`ShardedIndex`] can route inserts and deletes without
/// knowing the concrete index type.
pub trait MutableIndex: IntervalIndex {
    /// Inserts an interval.
    fn insert(&mut self, s: Interval);

    /// Logically deletes an interval (matched by id and endpoints),
    /// returning whether it was present.
    fn delete(&mut self, s: &Interval) -> bool;

    /// The hierarchy depth `m` this index currently runs at, if the
    /// index is re-tunable. The default (`None`) marks the index as not
    /// participating in serve-time `m` re-tuning.
    fn tuned_m(&self) -> Option<u32> {
        None
    }

    /// The `m` the §3.3 cost model would pick for this index's *current
    /// contents* under the observed query-extent `mix`
    /// ([`crate::cost_model::retuned_m`]) — guaranteed to be no worse
    /// than [`tuned_m`](Self::tuned_m) on that mix. `None` when the
    /// index is not re-tunable (or empty: nothing to model).
    fn retune_m(&self, _mix: &crate::stats::ExtentMix) -> Option<u32> {
        None
    }

    /// Rebuilds the index at depth `m` with identical contents, domain
    /// bounds and configuration, returning it sealed — or `None` when
    /// the index does not support re-tuning. Queries against the rebuilt
    /// index are bit-identical to the original.
    fn rebuild_with_m(&self, _m: u32) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

impl MutableIndex for crate::Hint {
    fn insert(&mut self, s: Interval) {
        crate::Hint::insert(self, s)
    }
    fn delete(&mut self, s: &Interval) -> bool {
        crate::Hint::delete(self, s)
    }
}

impl MutableIndex for crate::HintMBase {
    fn insert(&mut self, s: Interval) {
        crate::HintMBase::insert(self, s)
    }
    fn delete(&mut self, s: &Interval) -> bool {
        crate::HintMBase::delete(self, s)
    }
}

impl MutableIndex for crate::HintMSubs {
    fn insert(&mut self, s: Interval) {
        crate::HintMSubs::insert(self, s)
    }
    fn delete(&mut self, s: &Interval) -> bool {
        crate::HintMSubs::delete(self, s)
    }
    fn tuned_m(&self) -> Option<u32> {
        Some(self.domain().m())
    }
    fn retune_m(&self, mix: &crate::stats::ExtentMix) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let data = self.intervals();
        let input = crate::cost_model::ModelInput {
            span: self.domain().max() - self.domain().min(),
            ..crate::cost_model::ModelInput::from_data(&data, 0.0)
        };
        let current = self.domain().m();
        let betas = crate::cost_model::Betas::DEFAULT;
        let tol = 0.03; // the paper's convergence tolerance
                        // rebuilds above m = 26 would violate the per-partition layout
                        // bound, so clamp — and re-check the within-tolerance guarantee
                        // after clamping (a clamped candidate is no longer the model's
                        // free choice)
        let m = crate::cost_model::retuned_m(&input, &betas, tol, mix, current).clamp(1, 26);
        if crate::cost_model::mix_cost(&input, &betas, m, mix)
            <= crate::cost_model::mix_cost(&input, &betas, current, mix) * (1.0 + tol)
        {
            Some(m)
        } else {
            Some(current)
        }
    }
    fn rebuild_with_m(&self, m: u32) -> Option<Self> {
        Some(crate::HintMSubs::rebuild_with_m(self, m))
    }
}

impl MutableIndex for crate::HybridHint {
    fn insert(&mut self, s: Interval) {
        crate::HybridHint::insert(self, s)
    }
    fn delete(&mut self, s: &Interval) -> bool {
        crate::HybridHint::delete(self, s)
    }
}

impl MutableIndex for crate::ConcurrentHint {
    fn insert(&mut self, s: Interval) {
        crate::ConcurrentHint::insert(self, s)
    }
    fn delete(&mut self, s: &Interval) -> bool {
        crate::ConcurrentHint::delete(self, s)
    }
}

/// One contiguous domain slice with its inner index.
#[derive(Clone)]
pub(crate) struct Shard<I> {
    /// Inclusive lower bound of the shard's domain range.
    pub(crate) start: Time,
    /// Inclusive upper bound of the shard's domain range.
    pub(crate) end: Time,
    /// Inner index over every interval overlapping `[start, end]`.
    pub(crate) index: I,
    /// Ids of the replicas: intervals stored here whose start point lies
    /// in an earlier shard (`st < start`). Suppressed on emit whenever
    /// this shard is not the first one a query routes to.
    pub(crate) replicas: HashSet<IntervalId>,
}

/// Forwards emits to an inner sink, optionally suppressing replica ids —
/// the dedup-on-emit half of the sharding scheme. With `replicas: None`
/// (first routed shard) it is a transparent pass-through that keeps the
/// bulk `emit_slice` fast path.
pub(crate) struct FilterSink<'a, S: QuerySink + ?Sized> {
    pub(crate) inner: &'a mut S,
    pub(crate) replicas: Option<&'a HashSet<IntervalId>>,
}

impl<S: QuerySink + ?Sized> QuerySink for FilterSink<'_, S> {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        if let Some(replicas) = self.replicas {
            if replicas.contains(&id) {
                return;
            }
        }
        self.inner.emit(id);
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        match self.replicas {
            None => self.inner.emit_slice(ids),
            Some(replicas) => {
                // bulk-forward maximal replica-free runs
                let mut run = 0;
                for (i, id) in ids.iter().enumerate() {
                    if replicas.contains(id) {
                        if run < i {
                            self.inner.emit_slice(&ids[run..i]);
                        }
                        run = i + 1;
                    }
                }
                if run < ids.len() {
                    self.inner.emit_slice(&ids[run..]);
                }
            }
        }
    }

    #[inline]
    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }

    /// Zero-copy pass-through: only when nothing needs suppressing can a
    /// comparison-free run cross the shard boundary as a handle.
    #[inline]
    fn wants_arenas(&self) -> bool {
        self.replicas.is_none() && self.inner.wants_arenas()
    }

    #[inline]
    fn emit_arena(&mut self, run: &crate::sink::ArenaRun) {
        match self.replicas {
            None => self.inner.emit_arena(run),
            // a suppressing filter must inspect every id; fall back to
            // the chunked slice scan the arena run stands in for
            Some(_) => {
                for chunk in run.as_slice().chunks(crate::sink::SATURATION_POLL) {
                    if self.is_saturated() {
                        return;
                    }
                    self.emit_slice(chunk);
                }
            }
        }
    }
}

impl<I> Shard<I> {
    /// The copy of `s` stored in this shard: its extent clipped to the
    /// shard's domain range. Every shard-local query is likewise confined
    /// to the shard range, so clipping never changes which local queries
    /// an interval overlaps — and it keeps each inner index's fixed
    /// domain tight. Replica classification uses the *unclipped* start.
    pub(crate) fn clip(&self, s: &Interval) -> Interval {
        Interval {
            id: s.id,
            st: s.st.max(self.start),
            end: s.end.min(self.end),
        }
    }
}

impl<I: IntervalIndex> Shard<I> {
    /// Runs the shard-local portion of `q` into `sink`, suppressing
    /// replicas unless this is the first shard the query routed to.
    pub(crate) fn query_local<S: QuerySink + ?Sized>(
        &self,
        lq: RangeQuery,
        is_first: bool,
        sink: &mut S,
    ) {
        let replicas = (!is_first && !self.replicas.is_empty()).then_some(&self.replicas);
        let mut filter = FilterSink {
            inner: sink,
            replicas,
        };
        self.index.query_sink(lq, &mut filter);
    }
}

/// A domain-range sharded front-end over `K` inner interval indexes.
///
/// Built by [`build_with`](Self::build_with): the domain `[min, max]`
/// observed in the data (or given explicitly) is split into `K`
/// equal-width contiguous ranges, and the supplied closure builds one
/// inner index per shard from the intervals overlapping that range.
/// Boundary-crossing intervals are replicated into every shard they
/// overlap and deduplicated on emit (see the module docs), so any exact
/// inner index yields an exact sharded index.
///
/// * Solo queries ([`query_sink`](Self::query_sink)) visit the routed
///   shards sequentially in domain order.
/// * Batches ([`IntervalIndex::query_batch`] and
///   [`query_batch_merge`](Self::query_batch_merge)) fan out across
///   shards in parallel — one thread per shard with routed work — and
///   merge the per-shard results back in shard order, so batched results
///   are bit-identical to the solo path.
/// * Writes ([`insert`](Self::insert) / [`delete`](Self::delete), for
///   inner indexes implementing [`MutableIndex`]) route to exactly the
///   shards the interval overlaps.
/// * [`IntervalIndex::seal`] seals every shard in place.
///
/// Interval ids must be unique across the index (the workspace-wide
/// convention): replica suppression is keyed by id, so two live
/// intervals sharing an id would shadow each other at shard boundaries.
#[derive(Clone)]
pub struct ShardedIndex<I> {
    pub(crate) shards: Vec<Shard<I>>,
    /// Live (deduplicated) interval count across all shards.
    pub(crate) live: usize,
}

impl<I: IntervalIndex> ShardedIndex<I> {
    /// Builds a sharded index over `data`, inferring the domain bounds
    /// from the data. `build` is called once per shard with the shard's
    /// interval slice and its inclusive domain range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `data` is empty (use
    /// [`build_with_domain`](Self::build_with_domain) for explicit
    /// bounds) or `k == 0`.
    pub fn build_with<F>(data: &[Interval], k: usize, build: F) -> Self
    where
        F: FnMut(&[Interval], Time, Time) -> I,
    {
        assert!(
            !data.is_empty(),
            "cannot infer shard bounds from an empty dataset"
        );
        let mut min = Time::MAX;
        let mut max = 0;
        for s in data {
            min = min.min(s.st);
            max = max.max(s.end);
        }
        Self::build_with_domain(data, min, max, k, build)
    }

    /// Builds a sharded index with explicit domain bounds `[min, max]`.
    /// `k` is clamped so every shard spans at least one domain value.
    ///
    /// # Panics
    /// Panics if `min > max` or `k == 0`.
    pub fn build_with_domain<F>(
        data: &[Interval],
        min: Time,
        max: Time,
        k: usize,
        mut build: F,
    ) -> Self
    where
        F: FnMut(&[Interval], Time, Time) -> I,
    {
        assert!(
            min <= max,
            "shard domain min ({min}) must be <= max ({max})"
        );
        assert!(k >= 1, "shard count must be >= 1");
        let span = (max - min).saturating_add(1); // may saturate on the full u64 domain
        let k = (k as u64).min(span).max(1);
        let mut shards = Vec::with_capacity(k as usize);
        let mut slice: Vec<Interval> = Vec::new();
        for i in 0..k {
            let start = min + ((span as u128 * i as u128) / k as u128) as u64;
            let end = if i + 1 < k {
                min + ((span as u128 * (i + 1) as u128) / k as u128) as u64 - 1
            } else {
                max
            };
            slice.clear();
            let mut replicas = HashSet::new();
            for s in data.iter().filter(|s| s.st <= end && s.end >= start) {
                if s.st < start {
                    replicas.insert(s.id);
                }
                // store the extent clipped to the shard range (the inner
                // index's domain); see `Shard::clip`
                slice.push(Interval {
                    id: s.id,
                    st: s.st.max(start),
                    end: s.end.min(end),
                });
            }
            let index = build(&slice, start, end);
            shards.push(Shard {
                start,
                end,
                index,
                replicas,
            });
        }
        // intervals wholly outside [min, max] land in no shard; count
        // only what is actually stored so len() matches a full-domain
        // count()
        let live = data.iter().filter(|s| s.end >= min && s.st <= max).count();
        Self { shards, live }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inclusive domain range `[start, end]` of each shard, in order.
    pub fn shard_bounds(&self) -> Vec<(Time, Time)> {
        self.shards.iter().map(|s| (s.start, s.end)).collect()
    }

    /// Per-shard live entry counts (replicas included) — the balance a
    /// deployment would watch.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.index.len()).collect()
    }

    /// Total number of replica entries across shards (the storage price
    /// of boundary-crossing intervals).
    pub fn replicated(&self) -> usize {
        self.shards.iter().map(|s| s.replicas.len()).sum()
    }

    /// Index of the shard owning domain point `t` (clamped to the first /
    /// last shard for out-of-range points).
    #[inline]
    pub(crate) fn shard_of(&self, t: Time) -> usize {
        self.shards
            .partition_point(|s| s.start <= t)
            .saturating_sub(1)
    }

    /// The contiguous run of shards a query's range overlaps.
    #[inline]
    pub(crate) fn route(&self, q: RangeQuery) -> (usize, usize) {
        (self.shard_of(q.st), self.shard_of(q.end))
    }

    /// The shard-local sub-query for shard `j`: interior boundaries are
    /// clipped to the shard range, while the query's own endpoints are
    /// kept on the first/last routed shard (they may lie outside the
    /// sharded domain; the inner index clamps exactly).
    #[inline]
    pub(crate) fn local_query(&self, j: usize, q: RangeQuery, lo: usize, hi: usize) -> RangeQuery {
        let st = if j == lo { q.st } else { self.shards[j].start };
        let end = if j == hi { q.end } else { self.shards[j].end };
        RangeQuery { st, end }
    }

    /// Reports all intervals overlapping `q` exactly once, visiting the
    /// routed shards sequentially in domain order.
    pub fn query_sink<S: QuerySink + ?Sized>(&self, q: RangeQuery, sink: &mut S) {
        let (lo, hi) = self.route(q);
        for j in lo..=hi {
            if sink.is_saturated() {
                return;
            }
            let lq = self.local_query(j, q, lo, hi);
            self.shards[j].query_local(lq, j == lo, sink);
        }
    }

    /// Enumerates all intervals overlapping `q` into `out`.
    pub fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        self.query_sink(q, out)
    }

    /// Decomposes the index into its shards and live count — the handoff
    /// that moves each shard into its [`crate::ShardPool`] worker thread.
    pub(crate) fn into_parts(self) -> (Vec<Shard<I>>, usize) {
        (self.shards, self.live)
    }

    /// Reassembles an index from parts (the inverse of
    /// [`Self::into_parts`], used when a pool shuts down).
    pub(crate) fn from_parts(shards: Vec<Shard<I>>, live: usize) -> Self {
        Self { shards, live }
    }

    /// Approximate heap footprint: inner indexes plus replica bookkeeping.
    pub fn size_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.index.size_bytes()
                    + s.replicas.len() * std::mem::size_of::<IntervalId>() * 2
                    + std::mem::size_of::<Shard<I>>()
            })
            .sum()
    }
}

impl<I: MutableIndex> ShardedIndex<I> {
    /// Inserts an interval into every shard its extent overlaps (clipped
    /// to each shard's range), registering it as a replica wherever its
    /// start point lies in an earlier shard.
    ///
    /// # Panics
    /// Panics if the interval falls outside the sharded domain — the
    /// same contract as the inner indexes' fixed-domain `insert`.
    pub fn insert(&mut self, s: Interval) {
        self.assert_in_domain(&s);
        let lo = self.shard_of(s.st);
        let hi = self.shard_of(s.end);
        for shard in &mut self.shards[lo..=hi] {
            let clipped = shard.clip(&s);
            shard.index.insert(clipped);
            if s.st < shard.start {
                shard.replicas.insert(s.id);
            }
        }
        self.live += 1;
    }

    /// Deletes an interval from every shard holding a copy, returning
    /// whether it was present.
    ///
    /// As with the inner indexes' `delete`, the caller passes the exact
    /// interval previously inserted (same id and endpoints). The shard
    /// owning the start point arbitrates presence: if it has no match,
    /// nothing is mutated and `false` is returned; replica markers are
    /// only dropped in shards whose inner delete actually matched, so a
    /// contract-violating delete (endpoints that were never inserted)
    /// cannot corrupt more dedup state than the inner indexes themselves
    /// would.
    pub fn delete(&mut self, s: &Interval) -> bool {
        if s.st < self.shards[0].start || s.end > self.shards[self.shards.len() - 1].end {
            return false; // out-of-domain intervals were never inserted
        }
        let lo = self.shard_of(s.st);
        let hi = self.shard_of(s.end);
        let owner = &mut self.shards[lo];
        let clipped = owner.clip(s);
        if !owner.index.delete(&clipped) {
            return false;
        }
        owner.replicas.remove(&s.id);
        for shard in &mut self.shards[lo + 1..=hi] {
            let clipped = shard.clip(s);
            if shard.index.delete(&clipped) {
                shard.replicas.remove(&s.id);
            }
        }
        self.live -= 1;
        true
    }

    /// Reseals shard `j`'s inner index at hierarchy depth `m` (same
    /// contents, same shard range), returning whether the inner index
    /// supported the rebuild. Results are bit-identical before and
    /// after — only the shard's traversal cost (and replication) change.
    /// This is the in-place spelling of serve-time re-tuning; the worker
    /// pool ([`crate::ShardPool`]) runs the same rebuild on the owning
    /// worker thread.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn retune_shard(&mut self, j: usize, m: u32) -> bool {
        match self.shards[j].index.rebuild_with_m(m) {
            Some(rebuilt) => {
                self.shards[j].index = rebuilt;
                true
            }
            None => false,
        }
    }

    fn assert_in_domain(&self, s: &Interval) {
        let (min, max) = (self.shards[0].start, self.shards[self.shards.len() - 1].end);
        assert!(
            s.st >= min && s.end <= max,
            "interval [{}, {}] outside the sharded domain [{min}, {max}]",
            s.st,
            s.end,
        );
    }
}

impl ShardedIndex<crate::HintMSubs> {
    /// Reconstructs the live interval set `(id, st, end)` from the
    /// shards' own storage, sorted by id.
    ///
    /// Shards store boundary-crossing intervals as *clipped* pieces
    /// (each piece covers the interval's extent within that shard's
    /// range, see [`Self::build_with_domain`]), so the true interval is
    /// re-stitched here: pieces of one id are contiguous across adjacent
    /// shards, making `(min st, max end)` over its pieces exactly the
    /// stored extent. This is the substrate for serving-layer record
    /// tables (id → interval lookups for aggregation and Allen verbs)
    /// after a restore or over an index built from pre-loaded data.
    pub fn intervals(&self) -> Vec<Interval> {
        let mut stitched: HashMap<IntervalId, (Time, Time)> = HashMap::with_capacity(self.live);
        for shard in &self.shards {
            for piece in shard.index.intervals() {
                stitched
                    .entry(piece.id)
                    .and_modify(|(st, end)| {
                        *st = (*st).min(piece.st);
                        *end = (*end).max(piece.end);
                    })
                    .or_insert((piece.st, piece.end));
            }
        }
        let mut out: Vec<Interval> = stitched
            .into_iter()
            .map(|(id, (st, end))| Interval { id, st, end })
            .collect();
        out.sort_unstable_by_key(|s| s.id);
        out
    }
}

impl<I: IntervalIndex + Sync> IntervalIndex for ShardedIndex<I> {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        ShardedIndex::query_sink(self, q, sink)
    }

    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        ShardedIndex::query(self, q, out)
    }

    fn seal(&mut self) {
        for shard in &mut self.shards {
            shard.index.seal();
        }
    }

    fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        ShardedIndex::query_batch(self, queries, sinks)
    }

    fn size_bytes(&self) -> usize {
        ShardedIndex::size_bytes(self)
    }

    fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanOracle;
    use crate::{HintMSubs, SubsConfig};

    fn data() -> Vec<Interval> {
        (0..500)
            .map(|i| {
                let st = (i * 37) % 4_000;
                Interval::new(i, st, (st + (i % 13) * 40).min(4_095))
            })
            .collect()
    }

    fn sharded(k: usize) -> ShardedIndex<HintMSubs> {
        ShardedIndex::build_with(&data(), k, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, crate::Domain::new(lo, hi, 8), SubsConfig::full())
        })
    }

    #[test]
    fn boundaries_partition_the_domain_contiguously() {
        let idx = sharded(4);
        let bounds = idx.shard_bounds();
        assert_eq!(bounds.len(), 4);
        for w in bounds.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "shards must tile the domain");
        }
        assert_eq!(bounds[0].0, 0); // first shard starts at the data min
    }

    #[test]
    fn replicas_are_exactly_the_boundary_crossers() {
        let idx = sharded(4);
        let bounds = idx.shard_bounds();
        for (shard_idx, (lo, _)) in bounds.iter().enumerate() {
            let expect: HashSet<IntervalId> = data()
                .iter()
                .filter(|s| s.st < *lo && s.end >= *lo)
                .map(|s| s.id)
                .collect();
            assert_eq!(idx.shards[shard_idx].replicas, expect, "shard {shard_idx}");
        }
    }

    #[test]
    fn every_k_matches_oracle_with_no_duplicates() {
        let oracle = ScanOracle::new(&data());
        for k in [1, 2, 3, 5, 8, 64] {
            let idx = sharded(k);
            for st in (0..4_000u64).step_by(173) {
                let q = RangeQuery::new(st, (st + 700).min(4_095));
                let mut got = Vec::new();
                idx.query(q, &mut got);
                let n = got.len();
                got.sort_unstable();
                got.dedup();
                assert_eq!(n, got.len(), "k={k} emitted duplicates on {q:?}");
                assert_eq!(got, oracle.query_sorted(q), "k={k} on {q:?}");
            }
        }
    }

    #[test]
    fn k_larger_than_span_is_clamped() {
        let tiny = vec![Interval::new(0, 10, 12), Interval::new(1, 11, 13)];
        let idx = ShardedIndex::build_with(&tiny, 64, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, crate::Domain::new(lo, hi, 4), SubsConfig::full())
        });
        assert!(idx.shard_count() <= 4); // span is 4 values
        assert_eq!(idx.count(RangeQuery::new(0, 100)), 2);
    }

    #[test]
    fn writes_route_to_owning_shards() {
        let mut idx = sharded(4);
        let mut oracle = ScanOracle::new(&data());
        let bounds = idx.shard_bounds();
        // a boundary-crossing insert spanning shards 1-2
        let cross = Interval::new(9_000, bounds[1].1 - 5, bounds[2].0 + 5);
        idx.insert(cross);
        oracle.insert(cross);
        assert!(idx.shards[2].replicas.contains(&9_000));
        let q = RangeQuery::new(bounds[1].1, bounds[2].0);
        let mut got = Vec::new();
        idx.query(q, &mut got);
        got.sort_unstable();
        assert_eq!(got, oracle.query_sorted(q));
        // delete removes every copy
        assert!(idx.delete(&cross));
        assert!(!idx.delete(&cross));
        assert!(!idx.shards[2].replicas.contains(&9_000));
        let mut got = Vec::new();
        idx.query(q, &mut got);
        got.sort_unstable();
        assert!(oracle.delete(9_000));
        assert_eq!(got, oracle.query_sorted(q));
    }

    #[test]
    fn delete_of_absent_interval_mutates_nothing() {
        let mut idx = sharded(4);
        let len_before = idx.len();
        let replicas_before: Vec<_> = idx.shards.iter().map(|s| s.replicas.clone()).collect();
        // id never inserted
        assert!(!idx.delete(&Interval::new(777_777, 100, 3_000)));
        // entirely out of domain
        assert!(!idx.delete(&Interval::new(0, 50_000, 60_000)));
        assert_eq!(idx.len(), len_before);
        for (shard, before) in idx.shards.iter().zip(&replicas_before) {
            assert_eq!(&shard.replicas, before, "replica set must be untouched");
        }
    }

    #[test]
    fn out_of_domain_intervals_are_not_counted_live() {
        let data = vec![
            Interval::new(0, 10, 20),
            Interval::new(1, 500, 600), // wholly outside the explicit bounds
            Interval::new(2, 90, 120),  // straddles the upper bound: stored clipped
        ];
        let idx = ShardedIndex::build_with_domain(&data, 0, 100, 2, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, crate::Domain::new(lo, hi, 4), SubsConfig::full())
        });
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.count(RangeQuery::new(0, 100)), idx.len());
    }

    #[test]
    fn filter_sink_suppresses_only_replicas() {
        let mut out: Vec<IntervalId> = Vec::new();
        let replicas: HashSet<IntervalId> = [2, 4].into_iter().collect();
        let mut f = FilterSink {
            inner: &mut out,
            replicas: Some(&replicas),
        };
        f.emit_slice(&[1, 2, 3, 4, 5]);
        f.emit(2);
        f.emit(6);
        assert_eq!(out, vec![1, 3, 5, 6]);
    }
}
