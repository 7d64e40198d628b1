//! Query-result consumers: the [`QuerySink`] trait and its stock
//! implementations.
//!
//! The paper's experiments distinguish *enumeration* from *counting* and
//! *selectivity* measurements, and a production service additionally needs
//! first-`k`, existence and streaming answers — all of which pay pure
//! overhead if the index materializes a full `Vec<IntervalId>` first (the
//! FO+MOD literature likewise prices enumeration, counting and testing as
//! distinct access modes). Every index in the workspace therefore reports
//! results by *emitting* ids into a [`QuerySink`]; what happens to an id —
//! collected, counted, forwarded, or discarded after a threshold — is the
//! sink's business, and the scan loops ask [`QuerySink::is_saturated`]
//! between partition runs so saturated sinks (first-`k`, existence)
//! terminate the traversal early.
//!
//! | Sink | Answers | Allocation |
//! |------|---------|------------|
//! | [`CollectSink`] / `Vec<IntervalId>` | full enumeration | result vector |
//! | [`CountSink`] | `COUNT(*)` / selectivity | none |
//! | [`FirstK`] | top-`k` sample, `LIMIT k` | `k` ids |
//! | [`ExistsSink`] | `EXISTS` / boolean overlap | none |
//! | [`FnSink`] | streaming callback | none |
//!
//! ```
//! use hint_core::{CountSink, Hint, Interval, IntervalIndex, QuerySink, RangeQuery};
//!
//! let data = vec![Interval::new(1, 0, 5), Interval::new(2, 3, 9)];
//! let index = Hint::build(&data, 4);
//! let mut count = CountSink::new();
//! index.query_sink(RangeQuery::new(4, 4), &mut count);
//! assert_eq!(count.count(), 2);
//! ```

use crate::interval::{Interval, IntervalId, Time, TOMBSTONE};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How many entries a reporting loop should emit between
/// [`QuerySink::is_saturated`] polls.
///
/// A single partition run (or node list, or grid cell) can hold most of
/// the data under skew, so polling only at run boundaries would let a
/// saturated sink receive an unbounded tail of emits; chunking at this
/// cadence bounds the overshoot while keeping the check off the
/// per-element path. Shared by hint-core's scan loops and the competitor
/// indexes.
pub const SATURATION_POLL: usize = 64;

/// A zero-copy handle to one comparison-free run inside a sealed CSR id
/// arena: `(arena, lo, hi)` instead of `hi - lo` copied ids.
///
/// The sealed store's blind-report regimes (Lemma 5/6: runs that qualify
/// with no comparisons at all) hand whole partition runs to the sink.
/// For sinks that opt in via [`QuerySink::wants_arenas`], the run
/// crosses the fork/merge boundary as this handle and is materialized
/// only at the final consumer — the serving layer's `WireSink` encodes
/// wire bytes straight from the arena slice.
///
/// The handle shares ownership of the arena's id column (`Arc`), so it
/// can never outlive the arena it points into: a reseal builds a *new*
/// sealed store, and outstanding handles keep the superseded column
/// alive until they are dropped. Logical deletes against a sealed store
/// copy-on-write the column (`Arc::make_mut`), so a handle taken before
/// the delete still sees the tombstone-free snapshot it was issued from
/// — and blind runs are only forwarded as handles when the store has no
/// tombstones to skip.
#[derive(Debug, Clone)]
pub struct ArenaRun {
    ids: Arc<Vec<IntervalId>>,
    lo: usize,
    hi: usize,
}

impl ArenaRun {
    /// Wraps the half-open range `lo..hi` of `ids`.
    ///
    /// # Panics
    /// If `lo..hi` is not a valid range of `ids`.
    pub fn new(ids: Arc<Vec<IntervalId>>, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi <= ids.len(), "run out of arena bounds");
        Self { ids, lo, hi }
    }

    /// The run's ids, borrowed from the shared arena.
    #[inline]
    pub fn as_slice(&self) -> &[IntervalId] {
        &self.ids[self.lo..self.hi]
    }

    /// Number of ids in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True when the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// Emits `id` unless it is a [`TOMBSTONE`] — the reporting-side half of
/// the logical-delete scheme every index in the workspace uses.
#[inline]
pub fn emit_live<S: QuerySink + ?Sized>(id: IntervalId, sink: &mut S) {
    if id != TOMBSTONE {
        sink.emit(id);
    }
}

/// A consumer of query results.
///
/// Indexes push every qualifying interval id through [`emit`](Self::emit)
/// instead of appending to a caller-provided `Vec`, so counting,
/// existence and first-`k` queries run without materializing results.
/// Scan loops poll [`is_saturated`](Self::is_saturated) at partition-run
/// granularity and abandon the traversal once it returns true; a sink
/// must therefore tolerate a bounded number of extra `emit` calls after
/// saturation (they are ignored by the stock sinks).
pub trait QuerySink {
    /// Consumes one result id. Ids arrive in index-traversal order (not
    /// sorted) and are duplicate-free for every index in the workspace.
    fn emit(&mut self, id: IntervalId);

    /// Consumes a batch of result ids (the comparison-free blind-report
    /// fast path: indexes hand over whole tombstone-free runs). The
    /// default loops over [`emit`](Self::emit); collecting sinks override
    /// it with a bulk copy and [`CountSink`] with a single addition, so
    /// the batch path costs what `extend_from_slice` did before the sink
    /// abstraction existed.
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        for &id in ids {
            self.emit(id);
        }
    }

    /// True once the sink needs no further results; the index then stops
    /// scanning. The default never saturates.
    fn is_saturated(&self) -> bool {
        false
    }

    /// True for sinks that keep [`ArenaRun`] handles instead of copying
    /// the ids out of a blind run. The sealed scan consults this before
    /// each comparison-free run; the default (`false`) keeps every stock
    /// sink on the plain [`emit_slice`](Self::emit_slice) path.
    fn wants_arenas(&self) -> bool {
        false
    }

    /// Consumes one comparison-free run. Overriders that returned `true`
    /// from [`wants_arenas`](Self::wants_arenas) typically store the
    /// handle; the default materializes it exactly like the slice scan
    /// loop would — [`SATURATION_POLL`]-sized chunks with a saturation
    /// poll before each — so forwarding a run as a handle is always
    /// bit-identical to emitting it.
    fn emit_arena(&mut self, run: &ArenaRun) {
        for chunk in run.as_slice().chunks(SATURATION_POLL) {
            if self.is_saturated() {
                return;
            }
            self.emit_slice(chunk);
        }
    }
}

/// A sink whose work can be split across parallel workers and recombined.
///
/// The shard pool's fan-out ([`crate::ShardPool::query_batch_merge`])
/// gives every helper thread a private [`fork`](Self::fork) of the
/// caller's sink, lets the helpers drain their shard-local results into
/// the forks concurrently,
/// and then folds the forks back with [`merge`](Self::merge) — always on
/// the caller's thread, always in ascending shard order, so collecting
/// sinks stay deterministic without any locking on the emit path.
///
/// Implementations must uphold two contracts:
///
/// * **merge is saturation-aware** — merging never drives the receiver
///   past its own retention bound. [`FirstK`] in particular keeps at most
///   `k` ids no matter how many forks arrive with `k` ids each; results
///   beyond `k` must not cross the merge boundary.
/// * **aggregates are order-independent** — for pure aggregates
///   ([`CountSink`], [`ExistsSink`]) any merge order yields the same
///   state; positional sinks ([`CollectSink`], `Vec`, [`FirstK`]) reflect
///   the order in which `merge` is called, which the pool fixes to
///   shard order.
pub trait MergeableSink: QuerySink {
    /// A fresh, empty sink of the same kind (same `k`, same bounds) for a
    /// helper thread to fill.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Folds a helper's fork into `self`. Called once per fork, in shard
    /// order, on the caller's thread.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;

    /// True for sinks that can saturate after finitely many results
    /// ([`FirstK`], [`ExistsSink`]). Executors use this to pick a
    /// dispatch strategy: a batch of bounded sinks is dispatched shard
    /// by shard so a saturated query stops being sent to the remaining
    /// shards at all (see the shard pool in [`crate::pool`]), while
    /// unbounded sinks fan out to every routed shard at once.
    fn is_bounded(&self) -> bool {
        false
    }

    /// A fork pre-sized for an expected `cap` results — the
    /// histogram-presizing hook: the session predicts a query's result
    /// count from its extent history and hands the prediction here, so a
    /// collecting fork never reallocates mid-scan. The default ignores
    /// the hint and forks normally; capacity is a hint only and never
    /// affects results.
    fn fork_sized(&self, cap: usize) -> Self
    where
        Self: Sized,
    {
        let _ = cap;
        self.fork()
    }

    /// How many results this sink holds, when that is knowable —
    /// collectors and counters report it, streaming sinks return `None`.
    /// The session records these after a batch to train the per-shard
    /// extent histograms that drive [`fork_sized`](Self::fork_sized).
    fn result_count(&self) -> Option<usize> {
        None
    }
}

/// A mutable reference to a sink is itself a sink — lets adapters that
/// *own* their inner sink (e.g. [`crate::RelationFilter`]) also wrap a
/// borrowed one.
impl<S: QuerySink + ?Sized> QuerySink for &mut S {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        (**self).emit(id)
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        (**self).emit_slice(ids)
    }

    #[inline]
    fn is_saturated(&self) -> bool {
        (**self).is_saturated()
    }

    #[inline]
    fn wants_arenas(&self) -> bool {
        (**self).wants_arenas()
    }

    #[inline]
    fn emit_arena(&mut self, run: &ArenaRun) {
        (**self).emit_arena(run)
    }
}

/// The original behaviour: any `Vec<IntervalId>` is a sink that collects
/// every emitted id.
impl QuerySink for Vec<IntervalId> {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        self.push(id);
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        self.extend_from_slice(ids);
    }
}

impl MergeableSink for Vec<IntervalId> {
    /// No-histogram fallback: pre-sizes from the parent's running count,
    /// a decent proxy for a shard fork's share once a few results exist.
    fn fork(&self) -> Self {
        Vec::with_capacity(self.len())
    }

    fn fork_sized(&self, cap: usize) -> Self {
        Vec::with_capacity(cap)
    }

    fn merge(&mut self, mut other: Self) {
        if self.is_empty() {
            *self = other;
        } else {
            self.append(&mut other);
        }
    }

    fn result_count(&self) -> Option<usize> {
        Some(self.len())
    }
}

/// Collects every result id into an owned vector (the explicit-struct
/// spelling of the `Vec<IntervalId>` sink).
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    ids: Vec<IntervalId>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collector with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ids: Vec::with_capacity(cap),
        }
    }

    /// The ids collected so far, in emission order.
    pub fn ids(&self) -> &[IntervalId] {
        &self.ids
    }

    /// Number of ids collected.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Consumes the sink, returning the collected ids.
    pub fn into_vec(self) -> Vec<IntervalId> {
        self.ids
    }
}

impl QuerySink for CollectSink {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        self.ids.push(id);
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        self.ids.extend_from_slice(ids);
    }
}

impl MergeableSink for CollectSink {
    /// No-histogram fallback: pre-sizes from the parent's running count.
    fn fork(&self) -> Self {
        CollectSink::with_capacity(self.len())
    }

    fn fork_sized(&self, cap: usize) -> Self {
        CollectSink::with_capacity(cap)
    }

    fn merge(&mut self, mut other: Self) {
        if self.ids.is_empty() {
            self.ids = other.ids;
        } else {
            self.ids.append(&mut other.ids);
        }
    }

    fn result_count(&self) -> Option<usize> {
        Some(self.len())
    }
}

/// Counts results without storing them — the sink behind
/// [`IntervalIndex::count`](crate::IntervalIndex::count) and the
/// harness's count-only experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSink {
    n: usize,
}

impl CountSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of results emitted so far.
    pub fn count(&self) -> usize {
        self.n
    }
}

impl QuerySink for CountSink {
    #[inline]
    fn emit(&mut self, _id: IntervalId) {
        self.n += 1;
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        self.n += ids.len();
    }
}

impl MergeableSink for CountSink {
    fn fork(&self) -> Self {
        CountSink::new()
    }

    fn merge(&mut self, other: Self) {
        self.n += other.n;
    }

    fn result_count(&self) -> Option<usize> {
        Some(self.n)
    }
}

/// Keeps the first `k` results (in traversal order) and saturates,
/// terminating the index scan early — `LIMIT k` without enumerating the
/// full result.
#[derive(Debug, Clone)]
pub struct FirstK {
    k: usize,
    ids: Vec<IntervalId>,
}

impl FirstK {
    /// A sink that retains at most `k` ids.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            ids: Vec::with_capacity(k.min(1024)),
        }
    }

    /// The retained ids (at most `k`).
    pub fn ids(&self) -> &[IntervalId] {
        &self.ids
    }

    /// Number of ids retained so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Consumes the sink, returning the retained ids.
    pub fn into_vec(self) -> Vec<IntervalId> {
        self.ids
    }
}

impl QuerySink for FirstK {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        if self.ids.len() < self.k {
            self.ids.push(id);
        }
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        let take = (self.k - self.ids.len().min(self.k)).min(ids.len());
        self.ids.extend_from_slice(&ids[..take]);
    }

    #[inline]
    fn is_saturated(&self) -> bool {
        self.ids.len() >= self.k
    }
}

impl MergeableSink for FirstK {
    fn fork(&self) -> Self {
        // the fork carries the full budget: a single shard may own all of
        // the first k results, and saturation still bounds its scan
        FirstK::new(self.k)
    }

    /// Saturation-aware: takes only the first `k - len` ids from `other`,
    /// so at most `k` results ever cross the merge boundary regardless of
    /// how full each worker's fork came back.
    fn merge(&mut self, other: Self) {
        let room = self.k - self.ids.len().min(self.k);
        let take = room.min(other.ids.len());
        self.ids.extend_from_slice(&other.ids[..take]);
    }

    fn is_bounded(&self) -> bool {
        true
    }
}

/// Saturates on the first result — boolean overlap tests
/// ([`IntervalIndex::exists`](crate::IntervalIndex::exists)) with maximal
/// early exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExistsSink {
    found: bool,
}

impl ExistsSink {
    /// Creates the sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once any result was emitted.
    pub fn found(&self) -> bool {
        self.found
    }
}

impl QuerySink for ExistsSink {
    #[inline]
    fn emit(&mut self, _id: IntervalId) {
        self.found = true;
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        self.found |= !ids.is_empty();
    }

    #[inline]
    fn is_saturated(&self) -> bool {
        self.found
    }
}

impl MergeableSink for ExistsSink {
    fn fork(&self) -> Self {
        ExistsSink::new()
    }

    fn merge(&mut self, other: Self) {
        self.found |= other.found;
    }

    fn is_bounded(&self) -> bool {
        true
    }
}

/// Shortest comparison-free run worth keeping as a zero-copy handle.
///
/// A handle costs fixed bookkeeping on both sides of the merge boundary
/// — a run-list entry, an arena refcount round-trip, an indirection at
/// consume time — while copying a run costs 8 bytes per id into a
/// buffer that is already hot. Below this length the copy is cheaper,
/// so handle-keeping sinks ([`HandleSink`], the serve crate's
/// `WireSink`) inline short runs into their owned tail and reserve
/// handles for the long runs where zero-copy actually pays.
pub const ARENA_HANDLE_MIN: usize = 64;

/// One run of a [`HandleSink`]'s result stream: either ids the sink had
/// to own (comparison-bearing emissions and short blind runs, see
/// [`ARENA_HANDLE_MIN`]) or a zero-copy [`ArenaRun`] handle into a
/// sealed arena (long comparison-free blind runs).
#[derive(Debug, Clone)]
pub enum ResultRun {
    /// Ids copied into the sink (per-id and slice emissions).
    Owned(Vec<IntervalId>),
    /// A borrowed run, still resident in the sealed CSR arena.
    Arena(ArenaRun),
}

impl ResultRun {
    /// The run's ids, wherever they live.
    pub fn as_slice(&self) -> &[IntervalId] {
        match self {
            ResultRun::Owned(ids) => ids,
            ResultRun::Arena(run) => run.as_slice(),
        }
    }
}

/// Collects results as a sequence of [`ResultRun`]s, keeping
/// comparison-free runs as zero-copy arena handles until a consumer
/// actually needs the ids.
///
/// This is the enumeration sink for the parallel read path: a shard
/// worker's fork accumulates handles (O(1) per blind run, no copy), the
/// merge step concatenates run lists in shard order (O(runs), not
/// O(ids)), and only the final consumer pays for materialization — or
/// never does, if it can stream the runs (`for run in sink.runs()`).
///
/// Piecewise emissions (and short blind runs, see [`ARENA_HANDLE_MIN`])
/// land in an open *tail* buffer — a plain `Vec` push, no per-emission
/// branching — which is cut into the run list as an owned run only when
/// a long handle arrives. Reused sinks ([`clear`](Self::clear)) recycle
/// the tail and the dropped owned-run allocations, so steady-state
/// batch serving allocates nothing on this path.
#[derive(Debug, Clone, Default)]
pub struct HandleSink {
    /// Completed runs in emission (then merge) order; the open tail is
    /// not yet among them.
    runs: Vec<ResultRun>,
    /// The open owned run taking piecewise and short-blind emissions.
    tail: Vec<IntervalId>,
    len: usize,
    /// Recycled owned-run allocations from [`clear`](Self::clear),
    /// reused when the tail is cut into the run list.
    spares: Vec<Vec<IntervalId>>,
}

impl HandleSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of result ids across all runs, O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no results were collected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The collected runs, in emission (then merge) order. Closes the
    /// open tail first, so the returned list covers every id.
    pub fn runs(&mut self) -> &[ResultRun] {
        self.flush_tail();
        &self.runs
    }

    /// Empties the sink for reuse, releasing any arena handles it held.
    /// Owned-run allocations (and the run list's own) are kept for the
    /// next fill.
    pub fn clear(&mut self) {
        for run in self.runs.drain(..) {
            if let ResultRun::Owned(mut ids) = run {
                ids.clear();
                self.spares.push(ids);
            }
        }
        self.tail.clear();
        self.len = 0;
    }

    /// Materializes the result: one owned, contiguous id vector in the
    /// exact order a copying sink would have produced.
    pub fn into_vec(self) -> Vec<IntervalId> {
        let mut out = Vec::with_capacity(self.len);
        for run in &self.runs {
            out.extend_from_slice(run.as_slice());
        }
        out.extend_from_slice(&self.tail);
        out
    }

    /// Cuts the open tail into the run list as an owned run.
    fn flush_tail(&mut self) {
        if !self.tail.is_empty() {
            let fresh = self.spares.pop().unwrap_or_default();
            let full = std::mem::replace(&mut self.tail, fresh);
            self.runs.push(ResultRun::Owned(full));
        }
    }
}

impl QuerySink for HandleSink {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        self.tail.push(id);
        self.len += 1;
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        self.tail.extend_from_slice(ids);
        self.len += ids.len();
    }

    fn wants_arenas(&self) -> bool {
        true
    }

    fn emit_arena(&mut self, run: &ArenaRun) {
        if run.len() < ARENA_HANDLE_MIN {
            self.emit_slice(run.as_slice());
        } else {
            self.flush_tail();
            self.len += run.len();
            self.runs.push(ResultRun::Arena(run.clone()));
        }
    }
}

impl MergeableSink for HandleSink {
    fn fork(&self) -> Self {
        HandleSink::new()
    }

    /// Run-list concatenation: O(runs + own tail) regardless of how many
    /// ids the handles cover.
    fn merge(&mut self, mut other: Self) {
        self.len += other.len;
        self.flush_tail();
        if self.runs.is_empty() {
            self.runs = other.runs;
        } else {
            self.runs.append(&mut other.runs);
        }
        // adopt the merged-in sink's open tail (its newest emissions),
        // recycling our now-idle tail allocation
        let idle = std::mem::replace(&mut self.tail, other.tail);
        if idle.capacity() > 0 {
            self.spares.push(idle);
        }
        self.spares.append(&mut other.spares);
    }

    fn result_count(&self) -> Option<usize> {
        Some(self.len)
    }
}

/// Streams every result id into a callback, allocation-free — the bridge
/// to joins, network replies, or any other push-based consumer.
#[derive(Debug)]
pub struct FnSink<F: FnMut(IntervalId)> {
    f: F,
}

impl<F: FnMut(IntervalId)> FnSink<F> {
    /// Wraps a callback.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<F: FnMut(IntervalId)> QuerySink for FnSink<F> {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        (self.f)(id);
    }
}

/// Streams results into a callback at *slice* granularity, preserving
/// the indexes' comparison-free bulk-report fast path end to end: a
/// whole tombstone-free run arrives as one `&[IntervalId]` instead of
/// being re-chopped into per-id calls. This is [`FnSink`]'s counterpart
/// for consumers that process results in blocks — e.g. forwarding
/// decoded result chunks from the serving client's reply stream
/// (`serve::Client::query_sink` emits whole chunks; see the quickstart
/// example's serving section) or batching ids into any downstream
/// writer — where a per-id callback would put a function call on every
/// element.
///
/// Single ids (the comparison-bearing paths) arrive as 1-length slices.
#[derive(Debug)]
pub struct SliceSink<F: FnMut(&[IntervalId])> {
    f: F,
}

impl<F: FnMut(&[IntervalId])> SliceSink<F> {
    /// Wraps a slice callback.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<F: FnMut(&[IntervalId])> QuerySink for SliceSink<F> {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        (self.f)(std::slice::from_ref(&id));
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        if !ids.is_empty() {
            (self.f)(ids);
        }
    }
}

/// Resolves an emitted result id back to the stored interval it names.
///
/// The aggregation sinks below ([`TopKByDuration`], [`BucketHistogram`])
/// need the *endpoints* of each result, but the scan loops emit bare
/// ids. Rather than widen every emit path, the sinks carry a lookup —
/// typically an `Arc`-shared id → interval table owned by whoever also
/// owns the index (the serving catalog keeps one per named index) — and
/// resolve at emit time. Forks clone the lookup (an `Arc` bump), so the
/// table is shared, not copied, across forks.
///
/// `get` returning `None` means the id is unknown to the table; the
/// aggregation sinks skip such emissions. With a table maintained in
/// lockstep with the index (insert/delete/restore), that never happens.
pub trait IntervalLookup: Clone + Send {
    /// The interval stored under `id`, if the table knows it.
    fn get(&self, id: IntervalId) -> Option<Interval>;
}

impl IntervalLookup for Arc<HashMap<IntervalId, Interval>> {
    #[inline]
    fn get(&self, id: IntervalId) -> Option<Interval> {
        HashMap::get(self, &id).copied()
    }
}

impl IntervalLookup for Arc<BTreeMap<IntervalId, Interval>> {
    #[inline]
    fn get(&self, id: IntervalId) -> Option<Interval> {
        BTreeMap::get(self, &id).copied()
    }
}

/// Keeps the `k` results with the longest duration (`end - st`), ties
/// broken toward the smaller id — "the k longest-running records
/// overlapping this window" without materializing the full result.
///
/// Unlike [`FirstK`] this sink can never saturate: any not-yet-seen
/// result might out-last the current worst retained one, so the scan
/// must run to completion. What it shares with `FirstK` is the bounded
/// merge: at most `k` entries ever cross the fork/merge boundary, and
/// the merged ranking is independent of shard order (the key
/// `(duration desc, id asc)` is a total order over duplicate-free ids).
#[derive(Debug, Clone)]
pub struct TopKByDuration<L> {
    k: usize,
    lookup: L,
    /// Best-first: sorted by `(duration desc, id asc)`, at most `k` long.
    top: Vec<(u64, IntervalId)>,
}

impl<L: IntervalLookup> TopKByDuration<L> {
    /// A sink retaining the `k` longest intervals, resolving endpoints
    /// through `lookup`.
    pub fn new(k: usize, lookup: L) -> Self {
        Self {
            k,
            lookup,
            top: Vec::with_capacity(k.min(1024)),
        }
    }

    /// The retained `(duration, id)` pairs, best first.
    pub fn ranked(&self) -> &[(u64, IntervalId)] {
        &self.top
    }

    /// Number of entries retained so far (at most `k`).
    pub fn len(&self) -> usize {
        self.top.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.top.is_empty()
    }

    /// Consumes the sink, returning the retained ids best-first.
    pub fn into_ids(self) -> Vec<IntervalId> {
        self.top.into_iter().map(|(_, id)| id).collect()
    }

    /// Where `key` belongs in the best-first order.
    fn rank_of(&self, dur: u64, id: IntervalId) -> usize {
        self.top
            .partition_point(|&(d, i)| d > dur || (d == dur && i < id))
    }

    fn offer(&mut self, dur: u64, id: IntervalId) {
        if self.k == 0 {
            return;
        }
        let pos = self.rank_of(dur, id);
        if pos >= self.k {
            return; // worse than the current k-th best
        }
        self.top.insert(pos, (dur, id));
        self.top.truncate(self.k);
    }
}

impl<L: IntervalLookup> QuerySink for TopKByDuration<L> {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        if let Some(s) = self.lookup.get(id) {
            self.offer(s.end - s.st, id);
        }
    }
}

impl<L: IntervalLookup> MergeableSink for TopKByDuration<L> {
    fn fork(&self) -> Self {
        TopKByDuration::new(self.k, self.lookup.clone())
    }

    /// Merge-sorts the two bounded rankings and re-truncates to `k`, so
    /// the global top-k is re-established no matter how the results were
    /// split across shards; at most `k` entries survive.
    fn merge(&mut self, other: Self) {
        if other.top.is_empty() {
            return;
        }
        if self.top.is_empty() {
            self.top = other.top;
            return;
        }
        let mine = std::mem::take(&mut self.top);
        let mut a = mine.into_iter().peekable();
        let mut b = other.top.into_iter().peekable();
        while self.top.len() < self.k {
            let take_a = match (a.peek(), b.peek()) {
                (Some(&(da, ia)), Some(&(db, ib))) => da > db || (da == db && ia < ib),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let next = if take_a { a.next() } else { b.next() };
            self.top.push(next.expect("peeked entry"));
        }
    }
}

/// Counts results per fixed-width time bucket — the sink behind "how
/// many records are active in each hour of this window" dashboards.
///
/// Bucket `b` spans `[origin + b·width, origin + (b+1)·width)` on the
/// domain axis. Every emitted result contributes one count to **each**
/// bucket its stored extent overlaps (endpoints resolved through the
/// carried [`IntervalLookup`]), clipped to the histogram's covered
/// range. Counts are pure order-independent aggregates, so the merge is
/// an element-wise add and sharding cannot change the answer (the
/// originals/replicas discipline already guarantees each result id is
/// emitted exactly once across shards).
#[derive(Debug, Clone)]
pub struct BucketHistogram<L> {
    origin: Time,
    width: u64,
    counts: Vec<u64>,
    lookup: L,
}

impl<L: IntervalLookup> BucketHistogram<L> {
    /// A histogram of `buckets` buckets of `width` domain units starting
    /// at `origin`.
    ///
    /// # Panics
    /// If `width == 0` or `buckets == 0`.
    pub fn new(origin: Time, width: u64, buckets: usize, lookup: L) -> Self {
        assert!(width > 0, "bucket width must be positive");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Self {
            origin,
            width,
            counts: vec![0; buckets],
            lookup,
        }
    }

    /// A histogram covering exactly the query window `[q.st, q.end]`:
    /// bucket 0 starts at `q.st` and the last (possibly partial) bucket
    /// contains `q.end`.
    ///
    /// # Panics
    /// If `width == 0` or `q` is inverted.
    pub fn for_query(q: crate::RangeQuery, width: u64, lookup: L) -> Self {
        assert!(q.st <= q.end, "inverted query range");
        let span = (q.end - q.st) as u128 + 1;
        let buckets = span.div_ceil(width as u128) as usize;
        Self::new(q.st, width, buckets, lookup)
    }

    /// The per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Consumes the sink, returning the per-bucket counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }

    /// Last domain point the histogram covers.
    fn covered_end(&self) -> Time {
        self.origin
            .saturating_add(self.width.saturating_mul(self.counts.len() as u64) - 1)
    }
}

impl<L: IntervalLookup> QuerySink for BucketHistogram<L> {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        let Some(s) = self.lookup.get(id) else {
            return;
        };
        let lo = s.st.max(self.origin);
        let hi = s.end.min(self.covered_end());
        if lo > hi {
            return;
        }
        let b0 = ((lo - self.origin) / self.width) as usize;
        let b1 = ((hi - self.origin) / self.width) as usize;
        for c in &mut self.counts[b0..=b1] {
            *c += 1;
        }
    }
}

impl<L: IntervalLookup> MergeableSink for BucketHistogram<L> {
    fn fork(&self) -> Self {
        Self {
            origin: self.origin,
            width: self.width,
            counts: vec![0; self.counts.len()],
            lookup: self.lookup.clone(),
        }
    }

    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut impl QuerySink, ids: &[IntervalId]) {
        for &id in ids {
            if sink.is_saturated() {
                break;
            }
            sink.emit(id);
        }
    }

    #[test]
    fn vec_and_collect_agree() {
        let mut v: Vec<IntervalId> = Vec::new();
        let mut c = CollectSink::new();
        feed(&mut v, &[3, 1, 2]);
        feed(&mut c, &[3, 1, 2]);
        assert_eq!(v, c.ids());
        assert_eq!(c.len(), 3);
        assert_eq!(c.into_vec(), vec![3, 1, 2]);
    }

    #[test]
    fn count_never_saturates() {
        let mut s = CountSink::new();
        feed(&mut s, &[9; 1000]);
        assert_eq!(s.count(), 1000);
        assert!(!s.is_saturated());
    }

    #[test]
    fn first_k_saturates_at_k() {
        let mut s = FirstK::new(2);
        feed(&mut s, &[5, 6, 7, 8]);
        assert_eq!(s.ids(), &[5, 6]);
        assert!(s.is_saturated());
        // late emits after saturation are ignored
        s.emit(99);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn first_zero_is_immediately_saturated() {
        let s = FirstK::new(0);
        assert!(s.is_saturated());
    }

    #[test]
    fn exists_saturates_on_first_hit() {
        let mut s = ExistsSink::new();
        assert!(!s.found());
        feed(&mut s, &[1, 2, 3]);
        assert!(s.found());
        assert!(s.is_saturated());
    }

    #[test]
    fn emit_slice_overrides_match_per_element_emission() {
        let batch: Vec<IntervalId> = (0..200).collect();
        let mut v: Vec<IntervalId> = Vec::new();
        v.emit_slice(&batch);
        assert_eq!(v, batch);
        let mut c = CollectSink::new();
        c.emit_slice(&batch);
        assert_eq!(c.ids(), &batch[..]);
        let mut n = CountSink::new();
        n.emit_slice(&batch);
        assert_eq!(n.count(), 200);
        let mut f = FirstK::new(3);
        f.emit_slice(&batch);
        f.emit_slice(&batch);
        assert_eq!(f.ids(), &[0, 1, 2]);
        let mut e = ExistsSink::new();
        e.emit_slice(&[]);
        assert!(!e.found());
        e.emit_slice(&batch);
        assert!(e.found());
    }

    #[test]
    fn merge_recombines_every_stock_sink() {
        let mut v: Vec<IntervalId> = vec![1, 2];
        let mut fv = MergeableSink::fork(&v);
        assert!(fv.is_empty());
        fv.emit_slice(&[3, 4]);
        v.merge(fv);
        assert_eq!(v, vec![1, 2, 3, 4]);

        let mut c = CollectSink::new();
        c.emit(7);
        let mut fc = c.fork();
        fc.emit(8);
        c.merge(fc);
        assert_eq!(c.ids(), &[7, 8]);

        let mut n = CountSink::new();
        n.emit_slice(&[0; 5]);
        let mut fn_ = n.fork();
        fn_.emit_slice(&[0; 3]);
        n.merge(fn_);
        assert_eq!(n.count(), 8);

        let mut e = ExistsSink::new();
        let mut fe = e.fork();
        fe.emit(1);
        e.merge(fe);
        assert!(e.found());
    }

    /// The saturation-aware merge: even when every fork comes back full,
    /// no more than `k` results may cross the merge boundary.
    #[test]
    fn first_k_merge_never_over_emits() {
        let mut sink = FirstK::new(5);
        sink.emit_slice(&[0, 1, 2]);
        // three forks, each saturated with k ids of their own
        for base in [100u64, 200, 300] {
            let mut f = sink.fork();
            f.emit_slice(&[base, base + 1, base + 2, base + 3, base + 4]);
            assert!(f.is_saturated());
            sink.merge(f);
            assert!(
                sink.len() <= 5,
                "merge pushed FirstK past k: {} ids",
                sink.len()
            );
        }
        // exactly the first k in merge order survive
        assert_eq!(sink.ids(), &[0, 1, 2, 100, 101]);
        assert!(sink.is_saturated());
    }

    #[test]
    fn first_k_fork_carries_the_full_budget() {
        let sink = FirstK::new(3);
        let mut f = sink.fork();
        f.emit_slice(&[9, 9, 9, 9]);
        // the fork itself retains at most k, and saturates
        assert_eq!(f.len(), 3);
        assert!(f.is_saturated());
    }

    #[test]
    fn forks_presize_from_the_parents_running_count() {
        let v: Vec<IntervalId> = (0..100).collect();
        let fv = MergeableSink::fork(&v);
        assert!(fv.is_empty());
        assert!(fv.capacity() >= 100, "Vec fork should carry a size hint");

        let mut c = CollectSink::new();
        c.emit_slice(&v);
        let fc = c.fork();
        assert!(fc.is_empty());
        assert!(fc.into_vec().capacity() >= 100);
    }

    #[test]
    fn fork_sized_uses_the_hint_and_never_changes_results() {
        let v: Vec<IntervalId> = vec![1, 2];
        let mut fv = v.fork_sized(64);
        assert!(fv.capacity() >= 64);
        fv.emit_slice(&[3, 4]);
        let mut v2 = v.clone();
        v2.merge(fv);
        assert_eq!(v2, vec![1, 2, 3, 4]);

        // sinks without a capacity override just fork normally
        let f = FirstK::new(2).fork_sized(1024);
        assert!(!f.is_saturated());
        let e = ExistsSink::new().fork_sized(9);
        assert!(!e.found());
    }

    #[test]
    fn result_counts_are_reported_where_knowable() {
        let mut v: Vec<IntervalId> = Vec::new();
        v.emit_slice(&[1, 2, 3]);
        assert_eq!(MergeableSink::result_count(&v), Some(3));
        let mut c = CollectSink::new();
        c.emit(1);
        assert_eq!(c.result_count(), Some(1));
        let mut n = CountSink::new();
        n.emit_slice(&[0; 7]);
        assert_eq!(n.result_count(), Some(7));
        let mut h = HandleSink::new();
        h.emit_slice(&[1, 2]);
        assert_eq!(h.result_count(), Some(2));
        assert_eq!(FirstK::new(3).result_count(), None);
    }

    #[test]
    fn default_emit_arena_matches_the_slice_scan_exactly() {
        let arena: Arc<Vec<IntervalId>> = Arc::new((0..500).collect());
        let run = ArenaRun::new(Arc::clone(&arena), 10, 400);

        // unbounded sink: whole run, in order
        let mut v: Vec<IntervalId> = Vec::new();
        assert!(!QuerySink::wants_arenas(&v));
        v.emit_arena(&run);
        assert_eq!(v, arena[10..400]);

        // saturating sink: polls at SATURATION_POLL cadence, so the
        // overshoot past k is bounded by one chunk — same as emit_ids
        let mut f = FirstK::new(5);
        f.emit_arena(&run);
        assert_eq!(f.ids(), &arena[10..15]);
    }

    #[test]
    fn handle_sink_mixes_owned_and_arena_runs() {
        let arena: Arc<Vec<IntervalId>> = Arc::new((0..200).collect());
        let mut h = HandleSink::new();
        h.emit(1);
        h.emit_slice(&[2, 3]);
        h.emit_arena(&ArenaRun::new(
            Arc::clone(&arena),
            100,
            100 + ARENA_HANDLE_MIN,
        ));
        h.emit(9);
        h.emit_arena(&ArenaRun::new(Arc::clone(&arena), 4, 4)); // empty: dropped
        assert_eq!(h.len(), 4 + ARENA_HANDLE_MIN);
        // owned runs coalesce; long arena runs stay handles
        assert_eq!(h.runs().len(), 3);
        assert!(matches!(h.runs()[1], ResultRun::Arena(_)));
        let want: Vec<IntervalId> = [1, 2, 3]
            .into_iter()
            .chain(100..(100 + ARENA_HANDLE_MIN) as IntervalId)
            .chain([9])
            .collect();
        assert_eq!(h.into_vec(), want);
    }

    #[test]
    fn handle_sink_inlines_short_arena_runs() {
        let arena: Arc<Vec<IntervalId>> = Arc::new((0..200).collect());
        let mut h = HandleSink::new();
        h.emit(7);
        // below the handle threshold: copied into the owned tail, no
        // refcount taken on the arena
        h.emit_arena(&ArenaRun::new(
            Arc::clone(&arena),
            10,
            10 + ARENA_HANDLE_MIN - 1,
        ));
        assert_eq!(h.runs().len(), 1);
        assert!(matches!(h.runs()[0], ResultRun::Owned(_)));
        assert_eq!(Arc::strong_count(&arena), 1);
        let want: Vec<IntervalId> = std::iter::once(7)
            .chain(10..(10 + ARENA_HANDLE_MIN - 1) as IntervalId)
            .collect();
        assert_eq!(h.into_vec(), want);
    }

    #[test]
    fn handle_sink_merge_concatenates_run_lists_in_call_order() {
        let arena: Arc<Vec<IntervalId>> = Arc::new(vec![7, 8, 9]);
        let mut h = HandleSink::new();
        h.emit(1);
        let mut f1 = h.fork();
        f1.emit_arena(&ArenaRun::new(Arc::clone(&arena), 0, 3));
        let mut f2 = h.fork();
        f2.emit_slice(&[4, 5]);
        h.merge(f1);
        h.merge(f2);
        assert_eq!(h.len(), 6);
        assert_eq!(h.into_vec(), vec![1, 7, 8, 9, 4, 5]);
    }

    #[test]
    fn arena_handles_keep_the_arena_alive() {
        let arena: Arc<Vec<IntervalId>> = Arc::new((0..ARENA_HANDLE_MIN as IntervalId).collect());
        let mut h = HandleSink::new();
        h.emit_arena(&ArenaRun::new(Arc::clone(&arena), 0, ARENA_HANDLE_MIN));
        assert!(matches!(h.runs()[0], ResultRun::Arena(_)));
        // simulate a reseal epoch: the store drops its reference
        drop(arena);
        // the handle still reads the superseded column safely
        assert_eq!(
            h.into_vec(),
            (0..ARENA_HANDLE_MIN as IntervalId).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "out of arena bounds")]
    fn arena_run_rejects_out_of_bounds_ranges() {
        let arena: Arc<Vec<IntervalId>> = Arc::new(vec![1, 2]);
        let _ = ArenaRun::new(arena, 1, 3);
    }

    #[test]
    fn fn_sink_streams() {
        let mut seen = Vec::new();
        {
            let mut s = FnSink::new(|id| seen.push(id));
            feed(&mut s, &[4, 2]);
        }
        assert_eq!(seen, vec![4, 2]);
    }

    #[test]
    fn slice_sink_preserves_run_granularity() {
        let mut runs: Vec<Vec<IntervalId>> = Vec::new();
        {
            let mut s = SliceSink::new(|ids: &[IntervalId]| runs.push(ids.to_vec()));
            s.emit_slice(&[1, 2, 3]);
            s.emit(4);
            s.emit_slice(&[]); // empty runs are dropped, not forwarded
            s.emit_slice(&[5, 6]);
        }
        assert_eq!(runs, vec![vec![1, 2, 3], vec![4], vec![5, 6]]);
    }

    fn table(data: &[Interval]) -> Arc<HashMap<IntervalId, Interval>> {
        Arc::new(data.iter().map(|s| (s.id, *s)).collect())
    }

    #[test]
    fn top_k_by_duration_ranks_longest_first_with_id_tiebreak() {
        let data = vec![
            Interval::new(1, 0, 10),  // dur 10
            Interval::new(2, 5, 25),  // dur 20
            Interval::new(3, 40, 60), // dur 20 (tie with 2: smaller id wins)
            Interval::new(4, 7, 9),   // dur 2
        ];
        let mut s = TopKByDuration::new(3, table(&data));
        for id in [4, 3, 1, 2] {
            s.emit(id);
        }
        assert_eq!(s.ranked(), &[(20, 2), (20, 3), (10, 1)]);
        assert!(!s.is_saturated(), "top-k by duration can never stop early");
        s.emit(99); // unknown id: skipped
        assert_eq!(s.len(), 3);
        assert_eq!(s.into_ids(), vec![2, 3, 1]);
    }

    #[test]
    fn top_k_by_duration_merge_reestablishes_the_global_ranking() {
        let data: Vec<Interval> = (0..20).map(|i| Interval::new(i, 0, (i * 7) % 13)).collect();
        let lookup = table(&data);
        // solo reference
        let mut solo = TopKByDuration::new(5, Arc::clone(&lookup));
        for s in &data {
            solo.emit(s.id);
        }
        // split across 3 "shards" in an arbitrary interleaving, merged in
        // shard order
        let mut merged = TopKByDuration::new(5, Arc::clone(&lookup));
        let mut forks: Vec<_> = (0..3).map(|_| merged.fork()).collect();
        for (i, s) in data.iter().enumerate() {
            forks[i % 3].emit(s.id);
        }
        for f in forks {
            assert!(f.len() <= 5);
            merged.merge(f);
        }
        assert!(merged.len() <= 5, "merge must stay within the k bound");
        assert_eq!(merged.ranked(), solo.ranked());
    }

    #[test]
    fn top_zero_by_duration_retains_nothing() {
        let data = vec![Interval::new(1, 0, 9)];
        let mut s = TopKByDuration::new(0, table(&data));
        s.emit(1);
        let f = s.fork();
        s.merge(f);
        assert!(s.is_empty());
    }

    #[test]
    fn bucket_histogram_counts_every_overlapped_bucket() {
        let data = vec![
            Interval::new(1, 0, 19),  // clipped to the window: bucket 0 only
            Interval::new(2, 12, 37), // buckets 0..=2
            Interval::new(3, 25, 26), // bucket 1
            Interval::new(4, 90, 95), // outside the covered range
        ];
        // window [10, 39], width 10 -> buckets [10,19] [20,29] [30,39]
        let mut h = BucketHistogram::for_query(crate::RangeQuery::new(10, 39), 10, table(&data));
        for id in [1, 2, 3, 4] {
            h.emit(id);
        }
        assert_eq!(h.counts(), &[2, 2, 1]);
    }

    #[test]
    fn bucket_histogram_merge_is_elementwise_and_order_independent() {
        let data: Vec<Interval> = (0..30).map(|i| Interval::new(i, i, i + 5)).collect();
        let lookup = table(&data);
        let q = crate::RangeQuery::new(0, 34);
        let mut solo = BucketHistogram::for_query(q, 7, Arc::clone(&lookup));
        for s in &data {
            solo.emit(s.id);
        }
        let mut merged = BucketHistogram::for_query(q, 7, Arc::clone(&lookup));
        let mut f1 = merged.fork();
        let mut f2 = merged.fork();
        for s in &data {
            if s.id % 2 == 0 {
                f1.emit(s.id);
            } else {
                f2.emit(s.id);
            }
        }
        // merge in the "wrong" order on purpose: counts are commutative
        merged.merge(f2);
        merged.merge(f1);
        assert_eq!(merged.counts(), solo.counts());
    }

    #[test]
    fn bucket_histogram_covers_a_partial_last_bucket() {
        let data = vec![Interval::new(1, 21, 21)];
        // span 22 at width 10 -> 3 buckets, the last covering [20, 21]
        let h0 = BucketHistogram::for_query(crate::RangeQuery::new(0, 21), 10, table(&data));
        assert_eq!(h0.counts().len(), 3);
        let mut h = h0;
        h.emit(1);
        assert_eq!(h.counts(), &[0, 0, 1]);
    }
}
