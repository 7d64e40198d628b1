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
//! order) or the batch path ([`ShardedIndex::query_batch`],
//! [`ShardedIndex::query_batch_merge`]), which routes a whole batch once
//! and drains each shard's sub-batch into the callers' sinks, in shard
//! order, on the calling thread. [`crate::ShardPool`] runs the same
//! inline walks over the shards it owns, and can also fan a batch out
//! across threads; both share this module's routing rules (`Router`),
//! inline walks (`query_solo`, `drain_inline`), per-shard walks and
//! write legs. Writes route to exactly the shards whose ranges the new
//! interval overlaps ([`MutableIndex`]).
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
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Write interface shared by the updatable indexes in the workspace
/// ([`crate::Hint`], [`crate::HintMBase`], [`crate::HintMSubs`],
/// [`crate::HybridHint`]), so generic front-ends like [`ShardedIndex`]
/// can route inserts and deletes without knowing the concrete index type.
pub trait MutableIndex: IntervalIndex {
    /// Inserts an interval.
    fn insert(&mut self, s: Interval);

    /// Logically deletes an interval (matched by id and endpoints),
    /// returning whether it was present.
    fn delete(&mut self, s: &Interval) -> bool;
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
}

impl MutableIndex for crate::HybridHint {
    fn insert(&mut self, s: Interval) {
        crate::HybridHint::insert(self, s)
    }
    fn delete(&mut self, s: &Interval) -> bool {
        crate::HybridHint::delete(self, s)
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

    /// Walks a routed sub-batch, entry `i` into `sinks[i]`, as one shared
    /// inner batch call, so sealed inner indexes amortize one level walk
    /// across the sub-batch. Every sub-batch was ordered by the planning
    /// pass, so the inner walk is told it is presorted. Replicas are
    /// suppressed for entries that are not their query's first shard;
    /// when nothing can need suppressing — the shard holds no replicas,
    /// or every entry is its query's first shard — the filter wrapper is
    /// pure overhead on the emit path and is skipped.
    fn walk<S: QuerySink>(&self, sub: &[Routed], mut sinks: Vec<&mut S>) {
        let queries: Vec<RangeQuery> = sub.iter().map(|e| e.1).collect();
        if self.replicas.is_empty() || sub.iter().all(|e| e.2) {
            return self.index.query_batch_sinks(&queries, &mut sinks, true);
        }
        let mut wrappers: Vec<FilterSink<'_, S>> = sinks
            .into_iter()
            .zip(sub)
            .map(|(inner, &(_, _, is_first))| FilterSink {
                inner,
                replicas: (!is_first).then_some(&self.replicas),
            })
            .collect();
        let mut refs: Vec<&mut FilterSink<'_, S>> = wrappers.iter_mut().collect();
        self.index.query_batch_sinks(&queries, &mut refs, true);
    }

    /// The inline route: drains a routed sub-batch straight into the
    /// callers' sinks (`sinks` is the whole batch, indexed by each
    /// entry's query position). Entries may arrive in any order (the
    /// clustering pass reorders them), so each entry *takes* its sink
    /// out of a per-query slot — a sub-batch never repeats a query, so
    /// every take succeeds.
    fn run_inline<S: QuerySink>(&self, sub: &[Routed], sinks: &mut [S]) {
        let mut slots: Vec<Option<&mut S>> = sinks.iter_mut().map(Some).collect();
        let picked = sub
            .iter()
            .map(|&(qi, _, _)| {
                slots[qi as usize]
                    .take()
                    .expect("sub-batch repeats a query")
            })
            .collect();
        self.walk(sub, picked);
    }

    /// The fan-out route ([`crate::ShardPool`]): drains a routed
    /// sub-batch into the sink forks it carries and hands them back
    /// tagged with their query positions. Fork saturation propagates into the scan,
    /// so saturating sinks keep their early exit within each shard.
    pub(crate) fn run_forks<S: QuerySink>(&self, job: Vec<(Routed, S)>) -> Vec<(u32, S)> {
        let (sub, mut forks): (Vec<Routed>, Vec<S>) = job.into_iter().unzip();
        self.walk(&sub, forks.iter_mut().collect());
        sub.iter().map(|e| e.0).zip(forks).collect()
    }
}

impl<I: MutableIndex> Shard<I> {
    /// This shard's leg of an insert: stores `s` clipped to the shard
    /// range, marking it a replica when it starts in an earlier shard.
    pub(crate) fn insert_leg(&mut self, s: Interval) {
        let clipped = self.clip(&s);
        self.index.insert(clipped);
        if s.st < self.start {
            self.replicas.insert(s.id);
        }
    }

    /// This shard's leg of a delete: removes the clipped copy of `s`,
    /// dropping its replica mark only when the inner delete matched — so
    /// a contract-violating delete (endpoints never inserted) cannot
    /// corrupt more dedup state than the inner index itself would.
    /// Returns whether it matched.
    pub(crate) fn delete_leg(&mut self, s: &Interval) -> bool {
        let found = self.index.delete(&self.clip(s));
        if found {
            self.replicas.remove(&s.id);
        }
        found
    }
}

/// Solo query over `shards` (the shards `router` was built from),
/// visiting the routed shards in domain order and stopping once the
/// sink saturates. Returns how many routed shards were walked and how
/// many were skipped.
pub(crate) fn query_solo<I, B, S>(
    router: &Router,
    shards: &[B],
    q: RangeQuery,
    sink: &mut S,
) -> (usize, usize)
where
    I: IntervalIndex,
    B: Borrow<Shard<I>>,
    S: QuerySink + ?Sized,
{
    let (lo, hi) = router.route(q);
    for (j, shard) in shards.iter().enumerate().take(hi + 1).skip(lo) {
        if sink.is_saturated() {
            return (j - lo, hi - j + 1);
        }
        let lq = router.local_query(j, q, lo, hi);
        shard.borrow().query_local(lq, j == lo, sink);
    }
    (hi - lo + 1, 0)
}

/// The inline batch route over a routed `plan`: each shard's sub-batch,
/// in shard order, drained straight into the callers' sinks as one
/// shared walk of the shard's inner index. Entries whose sink saturated
/// at an earlier shard are skipped, not walked — what a solo query's
/// shard-order visit does. Returns how many entries were walked and how
/// many were skipped.
pub(crate) fn drain_inline<I, B, S>(
    shards: &[B],
    plan: &[Vec<Routed>],
    sinks: &mut [S],
) -> (usize, usize)
where
    I: IntervalIndex,
    B: Borrow<Shard<I>>,
    S: QuerySink,
{
    let (mut walked, mut skipped) = (0, 0);
    let mut live: Vec<Routed> = Vec::new();
    for (shard, sub) in shards.iter().zip(plan) {
        let sub: &[Routed] = if sub.iter().any(|e| sinks[e.0 as usize].is_saturated()) {
            live.clear();
            live.extend(sub.iter().filter(|e| !sinks[e.0 as usize].is_saturated()));
            skipped += sub.len() - live.len();
            &live
        } else {
            sub
        };
        if !sub.is_empty() {
            walked += sub.len();
            shard.borrow().run_inline(sub, sinks);
        }
    }
    (walked, skipped)
}

/// One routed entry of a shard's sub-batch: the position of the query in
/// the caller's batch, the shard-local sub-query, and whether this shard
/// is the first the query routes to (replicas are reported there).
pub(crate) type Routed = (u32, RangeQuery, bool);

/// The routing rules of both read routes — the inline walks and the
/// fan-out of [`crate::ShardPool`]: the
/// shards' inclusive domain ranges, ascending, and how queries and
/// writes map onto them.
#[derive(Clone, Debug)]
pub(crate) struct Router {
    bounds: Vec<(Time, Time)>,
}

impl Router {
    /// The routing table of `shards`.
    pub(crate) fn of<I>(shards: &[Shard<I>]) -> Self {
        Self {
            bounds: shards.iter().map(|s| (s.start, s.end)).collect(),
        }
    }

    /// The inclusive domain range `[start, end]` of each shard, in order.
    pub(crate) fn bounds(&self) -> &[(Time, Time)] {
        &self.bounds
    }

    /// Inclusive domain bounds `[min, max]` across all shards.
    pub(crate) fn domain(&self) -> (Time, Time) {
        (self.bounds[0].0, self.bounds[self.bounds.len() - 1].1)
    }

    /// Index of the shard owning domain point `t` (clamped to the first /
    /// last shard for out-of-range points).
    #[inline]
    fn shard_of(&self, t: Time) -> usize {
        self.bounds
            .partition_point(|&(start, _)| start <= t)
            .saturating_sub(1)
    }

    /// The contiguous run of shards a query's range overlaps.
    #[inline]
    pub(crate) fn route(&self, q: RangeQuery) -> (usize, usize) {
        (self.shard_of(q.st), self.shard_of(q.end))
    }

    /// The run of shards a write of `s` touches — every shard its extent
    /// overlaps — or `None` when `s` lies (partly) outside the sharded
    /// domain, where no write can land.
    pub(crate) fn route_write(&self, s: &Interval) -> Option<(usize, usize)> {
        let (min, max) = self.domain();
        (s.st >= min && s.end <= max).then(|| {
            self.route(RangeQuery {
                st: s.st,
                end: s.end,
            })
        })
    }

    /// [`route_write`](Self::route_write) for an insert, whose contract
    /// (like the inner indexes' fixed-domain `insert`) is to panic on an
    /// out-of-domain interval.
    pub(crate) fn route_insert(&self, s: &Interval) -> (usize, usize) {
        self.route_write(s).unwrap_or_else(|| {
            let (min, max) = self.domain();
            panic!(
                "interval [{}, {}] outside the sharded domain [{min}, {max}]",
                s.st, s.end
            )
        })
    }

    /// The shard-local sub-query for shard `j`: interior boundaries are
    /// clipped to the shard range, while the query's own endpoints are
    /// kept on the first/last routed shard (they may lie outside the
    /// sharded domain; the inner index clamps exactly).
    #[inline]
    pub(crate) fn local_query(&self, j: usize, q: RangeQuery, lo: usize, hi: usize) -> RangeQuery {
        let st = if j == lo { q.st } else { self.bounds[j].0 };
        let end = if j == hi { q.end } else { self.bounds[j].1 };
        RangeQuery { st, end }
    }

    /// Routes a batch into `plan`, reusing its allocations: one sub-batch
    /// per shard, in batch order, then clustered ([`cluster_plan`]) — the
    /// plan is built and ordered a single time and reused by every
    /// routed shard.
    pub(crate) fn plan_into(&self, queries: &[RangeQuery], plan: &mut Vec<Vec<Routed>>) {
        plan.resize_with(self.bounds.len(), Vec::new);
        for sub in plan.iter_mut() {
            sub.clear();
        }
        for (qi, &q) in queries.iter().enumerate() {
            let (lo, hi) = self.route(q);
            for (j, sub) in plan[lo..=hi].iter_mut().enumerate() {
                let j = lo + j;
                sub.push((qi as u32, self.local_query(j, q, lo, hi), j == lo));
            }
        }
        cluster_plan(plan);
    }
}

/// The batch-clustering planning pass: orders every shard's sub-batch
/// by the shard-local sub-query's `(st, end)` — the same key the sealed
/// walk would have sorted mapped queries by — *once, at planning time*,
/// so the sealed shared-level walk skips its own per-(shard, batch)
/// sort and every routed shard reuses the one ordered plan. Stable, so
/// equal-start queries keep batch order and plans stay deterministic.
/// Purely a locality strategy: per-sink results are bit-identical to an
/// unclustered plan.
fn cluster_plan(plan: &mut [Vec<Routed>]) {
    for sub in plan.iter_mut() {
        if sub.len() > 1 {
            sub.sort_by_key(|&(_, lq, _)| (lq.st, lq.end));
        }
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
/// * Batches ([`query_batch`](Self::query_batch) and
///   [`query_batch_merge`](Self::query_batch_merge)) are routed once and
///   drained shard by shard, in shard order, straight into the callers'
///   sinks, so batched results are bit-identical to the solo path. For
///   a parallel fan-out across shards, move the index into a
///   [`crate::ShardPool`].
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
    /// The routing table mirrored out of `shards`.
    router: Router,
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
        Self::from_parts(shards, live)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inclusive domain range `[start, end]` of each shard, in order.
    pub fn shard_bounds(&self) -> Vec<(Time, Time)> {
        self.router.bounds().to_vec()
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

    /// Reports all intervals overlapping `q` exactly once, visiting the
    /// routed shards sequentially in domain order.
    pub fn query_sink<S: QuerySink + ?Sized>(&self, q: RangeQuery, sink: &mut S) {
        query_solo(&self.router, &self.shards, q, sink);
    }

    /// Enumerates all intervals overlapping `q` into `out`.
    pub fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        self.query_sink(q, out)
    }

    /// Evaluates a batch of queries, one sink per query: the batch is
    /// routed and clustered once, then each shard's sub-batch is drained
    /// into the callers' sinks, in shard order, as one shared walk of the
    /// shard's inner index. Each sink ends up with exactly what a solo
    /// [`query_sink`](Self::query_sink) call would have emitted, in the
    /// same order; caller saturation is visible to the scans, and a
    /// query whose sink saturated is not walked on later shards.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        self.query_batch_merge(queries, sinks)
    }

    /// [`query_batch`](Self::query_batch) generic over the sink type, so
    /// the whole chain — replica filter, sealed level walk, regime
    /// dispatch, emissions — monomorphizes per concrete sink with no
    /// vtable call anywhere. Nothing is forked: forking per-shard sinks
    /// and merging them back is [`crate::ShardPool`]'s job.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch_merge<S: QuerySink>(&self, queries: &[RangeQuery], sinks: &mut [S]) {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        let mut plan = Vec::new();
        self.router.plan_into(queries, &mut plan);
        drain_inline(&self.shards, &plan, sinks);
    }

    /// Decomposes the index into its shards and live count — the handoff
    /// to a [`crate::ShardPool`].
    pub(crate) fn into_parts(self) -> (Vec<Shard<I>>, usize) {
        (self.shards, self.live)
    }

    /// Reassembles an index from parts (the inverse of
    /// [`Self::into_parts`], used when a pool shuts down).
    pub(crate) fn from_parts(shards: Vec<Shard<I>>, live: usize) -> Self {
        let router = Router::of(&shards);
        Self {
            shards,
            router,
            live,
        }
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
        let (lo, hi) = self.router.route_insert(&s);
        for shard in &mut self.shards[lo..=hi] {
            shard.insert_leg(s);
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
    /// only dropped in shards whose inner delete actually matched
    /// (see `Shard::delete_leg`).
    pub fn delete(&mut self, s: &Interval) -> bool {
        // out-of-domain intervals were never inserted
        let Some((lo, hi)) = self.router.route_write(s) else {
            return false;
        };
        if !self.shards[lo].delete_leg(s) {
            return false;
        }
        for shard in &mut self.shards[lo + 1..=hi] {
            shard.delete_leg(s);
        }
        self.live -= 1;
        true
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

impl<I: IntervalIndex> IntervalIndex for ShardedIndex<I> {
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
    use crate::sink::{CountSink, ExistsSink, FirstK};
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

    /// The batch tests' index: 2,000 intervals over a 16k domain, long
    /// enough that every `k > 1` has boundary-crossing replicas.
    fn batch_index(k: usize, seal: bool) -> ShardedIndex<HintMSubs> {
        let data: Vec<Interval> = (0..2_000)
            .map(|i| {
                let st = (i * 53) % 16_000;
                Interval::new(i, st, (st + (i % 29) * 30).min(16_383))
            })
            .collect();
        let mut idx = ShardedIndex::build_with(&data, k, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, crate::Domain::new(lo, hi, 9), SubsConfig::full())
        });
        if seal {
            IntervalIndex::seal(&mut idx);
        }
        idx
    }

    fn batch() -> Vec<RangeQuery> {
        (0..48u64)
            .map(|i| {
                let st = (i * 331) % 16_000;
                RangeQuery::new(st, (st + 40 + i * 60).min(16_383))
            })
            .collect()
    }

    fn solo(idx: &ShardedIndex<HintMSubs>, queries: &[RangeQuery]) -> Vec<Vec<IntervalId>> {
        queries
            .iter()
            .map(|&q| {
                let mut v = Vec::new();
                idx.query_sink(q, &mut v);
                v
            })
            .collect()
    }

    #[test]
    fn dyn_batch_is_bit_identical_to_solo_for_every_k_and_seal() {
        for seal in [false, true] {
            for k in [1, 2, 4, 8] {
                let idx = batch_index(k, seal);
                let queries = batch();
                let mut bufs: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
                let mut sinks: Vec<&mut dyn QuerySink> =
                    bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
                idx.query_batch(&queries, &mut sinks);
                assert_eq!(solo(&idx, &queries), bufs, "k={k} seal={seal}");
            }
        }
    }

    #[test]
    fn merge_path_is_bit_identical_to_solo_for_every_k_and_seal() {
        for seal in [false, true] {
            for k in [1, 2, 4, 5, 8, 16] {
                let idx = batch_index(k, seal);
                let queries = batch();
                let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
                idx.query_batch_merge(&queries, &mut merged);
                assert_eq!(solo(&idx, &queries), merged, "k={k} seal={seal}");
            }
        }
    }

    #[test]
    fn merge_path_counts_and_exists_match_dyn_path() {
        let idx = batch_index(4, true);
        let queries = batch();
        let mut counts = vec![CountSink::new(); queries.len()];
        idx.query_batch_merge(&queries, &mut counts);
        let mut exists = vec![ExistsSink::new(); queries.len()];
        idx.query_batch_merge(&queries, &mut exists);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(counts[i].count(), idx.count(q), "count {q:?}");
            assert_eq!(exists[i].found(), idx.exists(q), "exists {q:?}");
        }
    }

    #[test]
    fn merge_path_first_k_is_bit_identical_to_solo_and_never_over_emits() {
        let idx = batch_index(8, true);
        let queries = batch();
        for k in [0, 1, 3, 17] {
            let mut sinks: Vec<FirstK> = queries.iter().map(|_| FirstK::new(k)).collect();
            idx.query_batch_merge(&queries, &mut sinks);
            for (i, &q) in queries.iter().enumerate() {
                let mut solo = FirstK::new(k);
                idx.query_sink(q, &mut solo);
                assert!(sinks[i].len() <= k, "FirstK over-emitted past the merge");
                assert_eq!(sinks[i].ids(), solo.ids(), "k={k} {q:?}");
            }
        }
    }

    #[test]
    fn cluster_plan_sorts_each_sub_batch_stably_by_local_query() {
        let rq = RangeQuery::new;
        let mut plan: Vec<Vec<Routed>> = vec![
            vec![
                (0, rq(50, 60), true),
                (1, rq(10, 90), false),
                (2, rq(10, 20), true),
                (3, rq(50, 60), false),
                (4, rq(10, 20), false),
            ],
            Vec::new(),
            vec![(5, rq(7, 8), true)],
        ];
        cluster_plan(&mut plan);
        // ties keep batch order: 2 before 4, 0 before 3
        assert_eq!(
            plan[0],
            vec![
                (2, rq(10, 20), true),
                (4, rq(10, 20), false),
                (1, rq(10, 90), false),
                (0, rq(50, 60), true),
                (3, rq(50, 60), false),
            ]
        );
        assert!(plan[1].is_empty());
        assert_eq!(plan[2], vec![(5, rq(7, 8), true)]);
    }

    #[test]
    fn router_routes_writes_only_inside_the_domain() {
        let idx = sharded(4);
        let router = &idx.router;
        let (min, max) = router.domain();
        let bounds = router.bounds().to_vec();
        // a write spanning shards 1..=2, and one pinned to the edges
        let cross = Interval::new(1, bounds[1].1 - 1, bounds[2].0 + 1);
        assert_eq!(router.route_write(&cross), Some((1, 2)));
        assert_eq!(router.route_insert(&cross), (1, 2));
        assert_eq!(
            router.route_write(&Interval::new(2, min, max)),
            Some((0, 3))
        );
        // reads clamp to the edge shards, writes outside the domain route
        // nowhere
        assert_eq!(router.route(RangeQuery::new(0, max + 100)), (0, 3));
        assert_eq!(router.route_write(&Interval::new(3, min, max + 1)), None);
        let err = std::panic::catch_unwind(|| router.route_insert(&Interval::new(4, 0, max + 1)))
            .expect_err("out-of-domain insert must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("outside the sharded domain"), "got: {msg}");
    }

    #[test]
    fn delete_leg_keeps_the_replica_mark_on_a_miss() {
        let mut idx = sharded(4);
        let bounds = idx.shard_bounds();
        let cross = Interval::new(9_100, bounds[1].1 - 5, bounds[2].0 + 5);
        idx.insert(cross);
        let shard = &mut idx.shards[2];
        assert!(shard.replicas.contains(&cross.id));
        // same id, endpoints never inserted: the inner delete misses, so
        // the replica mark must survive
        let wrong = Interval::new(cross.id, cross.st, cross.end + 7);
        assert!(!shard.delete_leg(&wrong));
        assert!(shard.replicas.contains(&cross.id));
        assert!(shard.delete_leg(&cross));
        assert!(!shard.replicas.contains(&cross.id));
    }
}
