//! # hint-core — HINT: A Hierarchical Index for Intervals in Main Memory
//!
//! A from-scratch Rust reproduction of *Christodoulou, Bouros, Mamoulis,
//! "HINT: A Hierarchical Index for Intervals in Main Memory", SIGMOD 2022*
//! (arXiv:2104.10939).
//!
//! HINT hierarchically decomposes the domain into `m + 1` levels of
//! `2^l` partitions each and assigns every interval to at most two
//! partitions per level (Algorithm 1). Partitions divide their contents
//! into *originals* and *replicas*, which cancels duplicate results and
//! minimizes data accesses; the §4 optimizations (subdivisions, sorting,
//! storage reduction, sparse merged tables, columnar decomposition) reduce
//! both comparisons and cache misses to near the minimum.
//!
//! ## Quick start
//!
//! ```
//! use hint_core::{FirstK, Hint, Interval, IntervalIndex, RangeQuery};
//!
//! let data = vec![
//!     Interval::new(1, 10, 25),
//!     Interval::new(2, 20, 40),
//!     Interval::new(3, 50, 60),
//! ];
//! let index = Hint::build(&data, 10);
//!
//! // Enumerate: collect all overlapping ids into a Vec.
//! let mut results = Vec::new();
//! index.query(RangeQuery::new(22, 55), &mut results);
//! results.sort_unstable();
//! assert_eq!(results, vec![1, 2, 3]);
//!
//! // Count and test without materializing a result vector.
//! assert_eq!(index.count(RangeQuery::new(22, 55)), 3);
//! assert!(index.exists(RangeQuery::new(12, 12)));
//! assert!(!index.exists(RangeQuery::new(45, 48)));
//!
//! // First-k: the scan stops as soon as k results are found.
//! let mut sink = FirstK::new(1);
//! index.query_sink(RangeQuery::new(22, 55), &mut sink);
//! assert_eq!(sink.len(), 1);
//!
//! // Seal into the read-optimized columnar (CSR) layout, then answer a
//! // whole batch with one shared level walk. Each sink receives exactly
//! // what a solo `query_sink` call would emit.
//! use hint_core::QuerySink;
//! let mut index = index;
//! index.seal();
//! let queries = [RangeQuery::new(0, 15), RangeQuery::new(45, 58)];
//! let (mut a, mut b) = (Vec::new(), Vec::new());
//! let mut sinks: Vec<&mut dyn QuerySink> = vec![&mut a, &mut b];
//! index.query_batch(&queries, &mut sinks);
//! assert_eq!((a, b), (vec![1], vec![3]));
//! ```
//!
//! ## Sharded parallel serving
//!
//! For serving-scale deployments, [`ShardedIndex`] splits the domain into
//! `K` contiguous shards (boundary-crossing intervals are replicated and
//! deduplicated on emit, mirroring the paper's originals/replicas
//! discipline) and executes query batches with one thread per shard,
//! merging the per-shard results deterministically back into each
//! caller's sink:
//!
//! ```
//! use hint_core::{
//!     CountSink, Domain, HintMSubs, Interval, IntervalIndex, RangeQuery, ShardedIndex,
//!     SubsConfig,
//! };
//!
//! let data: Vec<Interval> = (0..10_000)
//!     .map(|i| Interval::new(i, i * 13 % 100_000, (i * 13 % 100_000) + 40))
//!     .collect();
//!
//! // 1. Split the domain into 4 contiguous shards, one sealed HINT^m each.
//! let mut index = ShardedIndex::build_with(&data, 4, |slice, lo, hi| {
//!     HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 10), SubsConfig::full())
//! });
//! index.seal(); // seal every shard into the columnar (CSR) layout
//!
//! // 2. Solo queries route to the shards they overlap (usually one).
//! let q = RangeQuery::new(5_000, 5_400);
//! let mut ids = Vec::new();
//! index.query(q, &mut ids);
//! assert_eq!(ids.len(), index.count(q));
//!
//! // 3. Batches fan out across shards in parallel (one thread per shard)
//! //    and merge back in shard order — results identical to solo calls.
//! let queries: Vec<RangeQuery> =
//!     (0..64).map(|i| RangeQuery::new(i * 1_500, i * 1_500 + 900)).collect();
//! let mut counts = vec![CountSink::new(); queries.len()];
//! index.query_batch_merge(&queries, &mut counts);
//! assert_eq!(counts[3].count(), index.count(queries[3]));
//!
//! // 4. Writes route to exactly the shards the interval overlaps.
//! index.insert(Interval::new(1_000_000, 70_000, 82_000));
//! assert!(index.delete(&Interval::new(1_000_000, 70_000, 82_000)));
//! ```
//!
//! Every query path reports through a [`QuerySink`]; see the [`sink`]
//! module for the full menu of consumers (collect, count, first-`k`,
//! exists, streaming callback).
//!
//! ## Index variants (the paper's ablation lattice)
//!
//! | Type | Paper | Role |
//! |------|-------|------|
//! | [`HintCf`] | §3.1 | comparison-free HINT for discrete domains |
//! | [`HintMBase`] | §3.2 | base HINT^m, top-down vs bottom-up (Fig 10) |
//! | [`HintMSubs`] | §4.1 | subdivisions + sort/sopt options (Fig 11); update-friendly |
//! | [`Hint`] | §4.2–4.3 | the flagship fully-optimized index (Fig 12–14) |
//! | [`HybridHint`] | §4.4 | main + delta for mixed workloads (Table 10) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allen;
pub mod assign;
pub mod cost_model;
pub mod domain;
pub mod env;
pub mod hint_cf;
pub mod hintm;
pub mod interval;
pub mod join;
pub mod oracle;
pub mod pool;
mod scan;
pub mod session;
pub mod shard;
pub mod sink;
pub mod stats;

pub use allen::{AllenIndex, AllenRelation, RelationFilter, SortedRecords};
pub use assign::{Assignment, SubKind};
pub use cost_model::{m_opt, measure_betas, Betas, ModelInput};
pub use domain::Domain;
pub use hint_cf::{CfLayout, HintCf};
pub use hintm::base::{Eval, HintMBase};
pub use hintm::delta::HybridHint;
pub use hintm::opt::{Hint, HintOptions};
pub use hintm::snapshot::{
    FaultIo, FaultKind, RestoreError, SnapshotIo, StdSnapshotIo, SNAPSHOT_VERSION,
};
pub use hintm::subs::{HintMSubs, SubsConfig};
pub use interval::{Interval, IntervalId, RangeQuery, Time, TOMBSTONE};
pub use join::{
    index_join, index_join_count, index_join_sink, sweep_join, sweep_join_count, sweep_join_sink,
    CountPairs, FirstKPairs, FnPairSink, PairSink,
};
pub use oracle::ScanOracle;
pub use pool::{PoolError, PoolStats, ShardPool};
pub use session::{Session, WriteError};
pub use shard::{MutableIndex, ShardedIndex};
pub use sink::{
    ArenaRun, BucketHistogram, CollectSink, CountSink, ExistsSink, FirstK, FnSink, HandleSink,
    IntervalLookup, MergeableSink, QuerySink, ResultRun, SliceSink, TopKByDuration,
    ARENA_HANDLE_MIN,
};
pub use stats::{ExtentHistogram, QueryStats, WorkloadStats};

/// Common query interface implemented by every index in the workspace
/// (HINT variants here, the four competitor indexes in their own crates),
/// so that benchmarks and integration tests can drive them uniformly.
///
/// The one required query method is [`query_sink`](Self::query_sink):
/// indexes push results into a [`QuerySink`] and poll
/// [`QuerySink::is_saturated`] to stop early. Enumeration
/// ([`query`](Self::query)), counting ([`count`](Self::count)) and
/// existence testing ([`exists`](Self::exists)) are derived access modes
/// with default implementations over the appropriate sink; implementors
/// typically also override `query` with their monomorphized `Vec` path to
/// avoid dynamic dispatch on the enumeration hot loop.
pub trait IntervalIndex {
    /// Reports the ids of all intervals overlapping `q` into `sink`,
    /// stopping early once the sink is saturated.
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink);

    /// Reports the ids of all intervals overlapping `q` into `out`.
    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        self.query_sink(q, out)
    }

    /// Number of intervals overlapping `q`, without materializing the
    /// result set.
    fn count(&self, q: RangeQuery) -> usize {
        let mut sink = CountSink::new();
        self.query_sink(q, &mut sink);
        sink.count()
    }

    /// True if any interval overlaps `q`; the scan stops at the first
    /// hit.
    fn exists(&self, q: RangeQuery) -> bool {
        let mut sink = ExistsSink::new();
        self.query_sink(q, &mut sink);
        sink.found()
    }

    /// Seals (freezes/compacts) the index into its read-optimized
    /// storage layout. For the HINT^m variants this flattens per-partition
    /// storage into the sealed columnar (CSR) arenas (or, for [`Hint`],
    /// compacts the merged tables), drops tombstones, and resets the
    /// update overlay; queries remain exact before, between and after
    /// seals. The default is a no-op for indexes without a distinct
    /// sealed layout.
    fn seal(&mut self) {}

    /// Evaluates a batch of queries, one sink per query. Results for each
    /// sink are exactly what a solo [`query_sink`](Self::query_sink) call
    /// would emit; implementations with sealed/merged storage override
    /// this with a shared level walk that sorts queries by their first
    /// relevant partition and traverses each level's arenas once for the
    /// whole batch. The default runs the queries independently.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        for (q, sink) in queries.iter().zip(sinks.iter_mut()) {
            self.query_sink(*q, &mut **sink);
        }
    }

    /// Statically-dispatched batch evaluation: like
    /// [`query_batch`](Self::query_batch), but the sink type is a
    /// monomorphization parameter, so indexes that override it (the
    /// sealed HINT^m walk) run their whole batch loop — level walk,
    /// regime dispatch, saturation polls, emissions — without a vtable
    /// call per result. This is the sharded read routes' entry point:
    /// each shard's sub-batch instantiates it per concrete sink type, and
    /// the comparison-free regimes const-fold their zero-copy
    /// [`QuerySink::wants_arenas`] check away.
    ///
    /// `presorted` declares that the caller already ordered
    /// `queries`/`sinks` by query start (the batch-clustering planning
    /// pass does this once per batch, before fan-out), letting the
    /// sealed walk skip its own per-batch sort. It is a locality hint
    /// only: results are bit-identical either way, because each query's
    /// sink receives exactly its own per-level emissions regardless of
    /// the order queries are visited in.
    ///
    /// The default delegates to the dynamic
    /// [`query_batch`](Self::query_batch), preserving whatever
    /// shared-walk override an index has.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    fn query_batch_sinks<S: QuerySink>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [&mut S],
        presorted: bool,
    ) where
        Self: Sized,
    {
        let _ = presorted;
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        let mut dyns: Vec<&mut dyn QuerySink> = sinks
            .iter_mut()
            .map(|s| &mut **s as &mut dyn QuerySink)
            .collect();
        self.query_batch(queries, &mut dyns);
    }

    /// Approximate heap footprint in bytes (Table 8).
    fn size_bytes(&self) -> usize;

    /// Number of live intervals.
    fn len(&self) -> usize;

    /// True if the index holds no live intervals.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stabbing query at point `t` (`q.st == q.end == t`).
    fn stab(&self, t: Time, out: &mut Vec<IntervalId>) {
        self.query(RangeQuery::stab(t), out)
    }
}

impl IntervalIndex for Hint {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        Hint::query_sink(self, q, sink)
    }
    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        Hint::query(self, q, out)
    }
    fn seal(&mut self) {
        Hint::seal(self)
    }
    fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        Hint::query_batch(self, queries, sinks)
    }
    fn size_bytes(&self) -> usize {
        Hint::size_bytes(self)
    }
    fn len(&self) -> usize {
        Hint::len(self)
    }
}

impl IntervalIndex for HintMBase {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        HintMBase::query_sink(self, q, sink)
    }
    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        HintMBase::query(self, q, out)
    }
    fn seal(&mut self) {
        HintMBase::seal(self)
    }
    fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        HintMBase::query_batch(self, queries, sinks)
    }
    fn size_bytes(&self) -> usize {
        HintMBase::size_bytes(self)
    }
    fn len(&self) -> usize {
        HintMBase::len(self)
    }
}

impl IntervalIndex for HintMSubs {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        HintMSubs::query_sink(self, q, sink)
    }
    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        HintMSubs::query(self, q, out)
    }
    fn seal(&mut self) {
        HintMSubs::seal(self)
    }
    fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        HintMSubs::query_batch(self, queries, sinks)
    }
    fn query_batch_sinks<S: QuerySink>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [&mut S],
        presorted: bool,
    ) {
        HintMSubs::query_batch_sinks(self, queries, sinks, presorted)
    }
    fn size_bytes(&self) -> usize {
        HintMSubs::size_bytes(self)
    }
    fn len(&self) -> usize {
        HintMSubs::len(self)
    }
}

impl IntervalIndex for HintCf {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        HintCf::query_sink(self, q, sink)
    }
    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        HintCf::query(self, q, out)
    }
    fn size_bytes(&self) -> usize {
        HintCf::size_bytes(self)
    }
    fn len(&self) -> usize {
        HintCf::len(self)
    }
}

impl IntervalIndex for HybridHint {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        HybridHint::query_sink(self, q, sink)
    }
    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        HybridHint::query(self, q, out)
    }
    fn seal(&mut self) {
        // §4.4 batch merge: fold the delta into a rebuilt (compact,
        // tombstone-free) main index.
        HybridHint::merge(self)
    }
    fn size_bytes(&self) -> usize {
        HybridHint::size_bytes(self)
    }
    fn len(&self) -> usize {
        HybridHint::len(self)
    }
}

impl IntervalIndex for ScanOracle {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        ScanOracle::query_sink(self, q, sink)
    }
    fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        ScanOracle::query(self, q, out)
    }
    fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Interval>()
    }
    fn len(&self) -> usize {
        ScanOracle::len(self)
    }
}
