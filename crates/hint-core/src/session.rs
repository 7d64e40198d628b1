//! The serving-side engine handle: a [`Session`] owns a [`ShardPool`]
//! over a [`ShardedIndex`], applies checked writes to its shards, and
//! reseals them on demand.
//!
//! A network front-end (see the workspace's `serve` crate) needs a
//! single object that (a) answers query batches through the shard pool,
//! (b) applies writes without panicking on client-supplied
//! garbage — an out-of-domain insert from the wire must become an error
//! reply, not a server crash — and (c) knows whether any writes have
//! landed since the last seal, so a `Seal` request on a clean index is
//! free. `Session` is that object, kept in hint-core so any embedder
//! (not just the bundled wire protocol) can serve the sharded index the
//! same way.
//!
//! Each shard's hierarchy depth `m` is fixed when the index is built
//! (the §3.3 cost model picks it, as in the paper); a reseal only folds
//! the shards' update overlays into their columnar arenas.
//!
//! ## Two read routes
//!
//! A batch reaches the shards on one of the pool's two routes (see
//! [`crate::pool`]), and the caller names it:
//!
//! * [`Session::query_batch_inline`] walks the batch on the calling
//!   thread, straight into the callers' sinks. The wire server drives
//!   this route: its scheduler shares the cores with the connections'
//!   reader and writer threads, so lending a walk to a helper buys a
//!   thread round trip (about 25 µs for a batch of one, against a 3 µs
//!   walk) and no idle core to run it on.
//! * [`Session::query_batch_merge`] fans the batch out across the
//!   pool's helper threads and merges the forks in shard order. A
//!   caller that issues batches from one thread, with cores to spare,
//!   gets the shards walked in parallel.
//!
//! Both give results bit-identical to solo [`Session::query_sink`]
//! calls.

use crate::hintm::snapshot::{self, RestoreError, SnapshotIo, StdSnapshotIo};
use crate::interval::{Interval, RangeQuery, Time, TOMBSTONE};
use crate::pool::ShardPool;
use crate::shard::{MutableIndex, ShardedIndex};
use crate::sink::{MergeableSink, QuerySink};
use crate::stats::ExtentHistogram;
use crate::IntervalIndex;
use std::io;
use std::path::Path;

/// Why a client-requested write was refused. Unlike the index methods
/// themselves (which `assert!` on contract violations, appropriate for
/// in-process callers), a serving layer turns these into error replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The interval lies (partly) outside the sharded domain, which is
    /// fixed at build time.
    OutOfDomain {
        /// Inclusive domain bounds of the session's index.
        domain: (Time, Time),
    },
    /// The interval uses the reserved [`TOMBSTONE`] id. Accepting it
    /// would ack a write that the next seal silently drops (the sealed
    /// stores key logical deletes on that sentinel) and corrupt the
    /// live count.
    ReservedId,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::OutOfDomain { domain } => write!(
                f,
                "interval outside the sharded domain [{}, {}]",
                domain.0, domain.1
            ),
            WriteError::ReservedId => {
                write!(f, "interval id {} is reserved (tombstone)", TOMBSTONE)
            }
        }
    }
}

/// An engine handle owning a pooled sharded index: checked writes,
/// resealing on demand, and batched query execution on either read
/// route — the substrate a serving front-end schedules work onto.
///
/// ```
/// use hint_core::{
///     Domain, HintMSubs, Interval, IntervalIndex, RangeQuery, Session, ShardedIndex, SubsConfig,
/// };
///
/// let data: Vec<Interval> = (0..100).map(|i| Interval::new(i, i * 10, i * 10 + 35)).collect();
/// let sharded = ShardedIndex::build_with(&data, 4, |slice, lo, hi| {
///     HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 8), SubsConfig::full())
/// });
/// let mut session = Session::new(sharded);
/// assert!(!session.is_dirty()); // `new` seals the freshly built index
///
/// session.try_insert(Interval::new(500, 40, 90)).unwrap();
/// assert!(session.is_dirty());
/// assert!(session.seal_if_dirty()); // reseal folds the write in
/// assert_eq!(session.len(), 101);
/// assert!(session.pool().exists(RangeQuery::new(40, 90)));
/// ```
pub struct Session<I: MutableIndex + Send + Sync + 'static> {
    pool: ShardPool<I>,
    /// Writes applied since the last seal; the serving layer's "was
    /// there anything to do" answer.
    dirty: bool,
    /// Per-shard result counts by query extent, the fan-out route's
    /// fork presizing hints (see
    /// [`query_batch_merge`](Self::query_batch_merge)).
    result_counts: Vec<ExtentHistogram>,
}

impl<I: MutableIndex + Send + Sync + 'static> Session<I> {
    /// Wraps (and seals) a sharded index, moving its shards into a
    /// [`ShardPool`]. Sealing up front puts every shard in
    /// the read-optimized columnar layout before the first query
    /// arrives.
    pub fn new(mut index: ShardedIndex<I>) -> Self {
        IntervalIndex::seal(&mut index);
        let mut session = Self::new_unsealed(index);
        session.dirty = false;
        session
    }

    /// Wraps an index without sealing it (for embedders that manage the
    /// seal cycle themselves). The session starts dirty.
    pub fn new_unsealed(index: ShardedIndex<I>) -> Self {
        let pool = ShardPool::new(index);
        let result_counts = (0..pool.shard_count())
            .map(|_| ExtentHistogram::new())
            .collect();
        Self {
            pool,
            dirty: true,
            result_counts,
        }
    }

    /// The underlying shard pool (solo queries, the explicit fan-out,
    /// dispatch stats).
    pub fn pool(&self) -> &ShardPool<I> {
        &self.pool
    }

    /// Inclusive domain bounds `[min, max]` of the sharded index.
    pub fn domain(&self) -> (Time, Time) {
        self.pool.domain()
    }

    /// True if writes have been applied since the last seal.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if no intervals are live.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Checked insert: routes to the shards the interval overlaps, or reports
    /// [`WriteError::OutOfDomain`] instead of panicking — the write path
    /// for requests arriving from untrusted clients.
    pub fn try_insert(&mut self, s: Interval) -> Result<(), WriteError> {
        if s.id == TOMBSTONE {
            return Err(WriteError::ReservedId);
        }
        if self.pool.router().route_write(&s).is_none() {
            return Err(WriteError::OutOfDomain {
                domain: self.domain(),
            });
        }
        self.pool.insert(s);
        self.dirty = true;
        Ok(())
    }

    /// Deletes an interval (exact id + endpoints match, the workspace
    /// contract), returning whether it was present. Out-of-domain
    /// intervals were never inserted, so they report `false` rather
    /// than an error.
    pub fn delete(&mut self, s: &Interval) -> bool {
        let found = self.pool.delete(s);
        self.dirty |= found;
        found
    }

    /// Reseals the index if any writes landed since the last seal,
    /// folding overlay entries into the columnar arenas shard by shard
    /// (clean shards are skipped by the inner fast path, so the cost is
    /// O(dirty shards)). Returns whether a reseal actually ran.
    pub fn seal_if_dirty(&mut self) -> bool {
        if !self.dirty {
            return false;
        }
        self.pool.seal_all();
        self.dirty = false;
        true
    }
}

impl<I: MutableIndex + Send + Sync + 'static> Session<I> {
    /// Evaluates a batch of queries, one [`MergeableSink`] per query,
    /// fanned out across the pool's helper threads (the fan-out route,
    /// see [Two read routes](self#two-read-routes)). Results are
    /// bit-identical to solo [`query_sink`](Self::query_sink) calls.
    ///
    /// Each query's forked sinks are pre-sized from the mean result
    /// count previously observed for its extent bucket
    /// ([`ExtentHistogram::expected_results`], fed through
    /// [`ShardPool::query_batch_merge_hinted`]), and counting sinks
    /// report their totals back after the batch — a feedback loop that
    /// kills mid-scan fork reallocation once a workload's shape has been
    /// seen. Hints are capacity advice only and never change results.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths, or if a
    /// helper fails.
    pub fn query_batch_merge<S: MergeableSink + Send + 'static>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [S],
    ) {
        // Predict per-query result counts from each query's first routed
        // shard (where the merged total was recorded). All-None batches
        // skip the hint plumbing entirely.
        let mut hints: Vec<usize> = Vec::new();
        let mut any = false;
        for &q in queries {
            let (lo, _) = self.pool.router().route(q);
            match self.result_counts[lo].expected_results(q.end - q.st) {
                Some(n) => {
                    any = true;
                    hints.push(n);
                }
                None => hints.push(0),
            }
        }
        let hints = if any { Some(hints.as_slice()) } else { None };
        self.pool.query_batch_merge_hinted(queries, sinks, hints);
        for (&q, sink) in queries.iter().zip(sinks.iter()) {
            if let Some(n) = sink.result_count() {
                let (lo, _) = self.pool.router().route(q);
                self.result_counts[lo].record_results(q.end - q.st, n);
            }
        }
    }

    /// Evaluates a batch of queries on the calling thread (the inline
    /// route, see [Two read routes](self#two-read-routes)): each
    /// shard's sub-batch is drained straight into the callers' sinks,
    /// so nothing is forked and no result-count hints are needed.
    /// Gives the same results as
    /// [`query_batch_merge`](Self::query_batch_merge).
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch_inline<S: QuerySink>(&self, queries: &[RangeQuery], sinks: &mut [S]) {
        self.pool.query_batch_inline(queries, sinks);
    }

    /// Solo query into a sink, walked inline — the reference path
    /// batched serving must stay bit-identical to.
    pub fn query_sink<S: QuerySink + ?Sized>(&self, q: RangeQuery, sink: &mut S) {
        self.pool.query_sink_pooled(q, sink)
    }
}

/// Durable snapshot/restore (see [`crate::hintm::snapshot`] for the
/// file format and crash-safety discipline). Implemented for the
/// sealed-arena index the snapshot format serializes.
impl Session<crate::HintMSubs> {
    /// Durably writes the session's index to `path`: reseals first (a
    /// write barrier folding every pending write in), clones the sealed
    /// shards, then writes temp-file + fsync +
    /// atomic rename. A crash at any byte leaves either the old
    /// snapshot or the new one at `path`, never garbage. Returns the
    /// snapshot size in bytes.
    pub fn snapshot(&mut self, path: impl AsRef<Path>) -> io::Result<u64> {
        self.snapshot_with(path.as_ref(), &mut StdSnapshotIo::default())
    }

    /// [`snapshot`](Self::snapshot) through an explicit [`SnapshotIo`]
    /// (the fault-injection seam).
    pub fn snapshot_with(&mut self, path: &Path, io: &mut dyn SnapshotIo) -> io::Result<u64> {
        let index = self.sealed_clone()?;
        snapshot::write_index(&index, path, io)
    }

    /// The snapshot as in-memory bytes — what the wire `Snapshot` verb
    /// streams to a bootstrapping peer. Same reseal barrier as
    /// [`snapshot`](Self::snapshot), no file involved.
    pub fn snapshot_bytes(&mut self) -> io::Result<Vec<u8>> {
        let index = self.sealed_clone()?;
        snapshot::encode_index(&index)
    }

    fn sealed_clone(&mut self) -> io::Result<ShardedIndex<crate::HintMSubs>> {
        self.seal_if_dirty();
        self.pool.clone_index().map_err(io::Error::other)
    }

    /// The live interval set `(id, st, end)`, sorted by id — a reseal
    /// barrier followed by [`ShardedIndex::intervals`] on a clone of the
    /// sealed shards. The serving catalog uses this to (re)build its
    /// per-index record table when it adopts a session it didn't observe
    /// every write of: at registration over a pre-loaded index, and
    /// after a restore.
    pub fn live_intervals(&mut self) -> io::Result<Vec<Interval>> {
        Ok(self.sealed_clone()?.intervals())
    }

    /// Restores a session from a snapshot file: a fully-validated bulk
    /// read straight into the sealed arenas (no re-sort, no
    /// re-assignment pass). Any corruption yields a typed
    /// [`RestoreError`], never a panic.
    pub fn restore(path: impl AsRef<Path>) -> Result<Self, RestoreError> {
        Self::restore_with(path.as_ref(), &mut StdSnapshotIo::default())
    }

    /// [`restore`](Self::restore) through an explicit [`SnapshotIo`]
    /// (the fault-injection seam).
    pub fn restore_with(path: &Path, io: &mut dyn SnapshotIo) -> Result<Self, RestoreError> {
        Ok(Self::new(snapshot::read_index(path, io)?))
    }

    /// Restores a session from snapshot bytes already in memory — the
    /// receiving half of peer bootstrap over the wire.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        Ok(Self::new(snapshot::decode_index(bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanOracle;
    use crate::sink::{CountSink, ExistsSink, FirstK};
    use crate::{Domain, HintMSubs, SubsConfig};

    fn session() -> Session<HintMSubs> {
        Session::new(build())
    }

    fn data() -> Vec<Interval> {
        (0..400)
            .map(|i| {
                let st = (i * 41) % 3_000;
                Interval::new(i, st, (st + (i % 11) * 30).min(4_095))
            })
            .collect()
    }

    fn build() -> ShardedIndex<HintMSubs> {
        ShardedIndex::build_with_domain(&data(), 0, 4_095, 4, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 8), SubsConfig::full())
        })
    }

    #[test]
    fn new_seals_and_is_clean() {
        let mut s = session();
        assert!(!s.is_dirty());
        assert!(!s.seal_if_dirty()); // nothing to do
        assert_eq!(s.domain(), (0, 4_095));
    }

    #[test]
    fn out_of_domain_insert_is_an_error_not_a_panic() {
        let mut s = session();
        let err = s.try_insert(Interval::new(999, 4_000, 10_000)).unwrap_err();
        assert_eq!(err, WriteError::OutOfDomain { domain: (0, 4_095) });
        assert!(!s.is_dirty(), "failed insert must not dirty the session");
        assert!(err.to_string().contains("[0, 4095]"));
    }

    #[test]
    fn write_seal_query_cycle_matches_oracle() {
        let mut s = session();
        let mut oracle = ScanOracle::new(&{
            let data: Vec<Interval> = (0..400)
                .map(|i| {
                    let st = (i * 41) % 3_000;
                    Interval::new(i, st, (st + (i % 11) * 30).min(4_095))
                })
                .collect();
            data
        });
        let fresh = Interval::new(10_000, 100, 2_500);
        s.try_insert(fresh).unwrap();
        oracle.insert(fresh);
        assert!(s.is_dirty());
        assert!(s.seal_if_dirty());
        assert!(!s.is_dirty());
        let victim = Interval::new(0, 0, 0);
        assert_eq!(s.delete(&victim), oracle.delete(victim.id));
        assert!(s.is_dirty(), "successful delete dirties the session");
        let q = RangeQuery::new(0, 4_095);
        let mut got = Vec::new();
        s.query_sink(q, &mut got);
        got.sort_unstable();
        assert_eq!(got, oracle.query_sorted(q));
    }

    #[test]
    fn tombstone_id_insert_is_rejected() {
        let mut s = session();
        let err = s.try_insert(Interval::new(TOMBSTONE, 10, 20)).unwrap_err();
        assert_eq!(err, WriteError::ReservedId);
        assert!(!s.is_dirty());
        let live = s.len();
        s.seal_if_dirty();
        assert_eq!(s.len(), live, "rejected insert must not drift len");
    }

    #[test]
    fn absent_delete_keeps_the_session_clean() {
        let mut s = session();
        assert!(!s.delete(&Interval::new(777_777, 5, 9)));
        assert!(!s.is_dirty());
    }

    #[test]
    fn an_absent_delete_after_a_write_keeps_the_session_dirty() {
        let mut s = session();
        s.try_insert(Interval::new(5_000, 10, 20)).unwrap();
        assert!(!s.delete(&Interval::new(777_777, 5, 9)));
        assert!(s.is_dirty(), "a miss must not clear a pending write");
        assert!(s.seal_if_dirty());
    }

    #[test]
    fn new_unsealed_starts_dirty_until_its_first_seal() {
        let mut s = Session::new_unsealed(build());
        let oracle = ScanOracle::new(&data());
        assert!(s.is_dirty());
        let q = RangeQuery::new(500, 1_500);
        assert_eq!(solo_sorted(&s, q), oracle.query_sorted(q), "unsealed read");
        assert!(s.seal_if_dirty());
        assert!(!s.is_dirty());
        assert!(!s.seal_if_dirty(), "a second seal has nothing to do");
        assert_eq!(solo_sorted(&s, q), oracle.query_sorted(q), "sealed read");
        assert_eq!(s.len(), data().len());
    }

    #[test]
    fn one_reseal_folds_every_pending_write_across_shards() {
        let mut s = session();
        let mut oracle = ScanOracle::new(&data());
        // one interval per shard plus one spanning all four
        let fresh = [
            Interval::new(30_000, 10, 50),
            Interval::new(30_001, 1_100, 1_200),
            Interval::new(30_002, 2_100, 2_900),
            Interval::new(30_003, 3_500, 4_095),
            Interval::new(30_004, 0, 4_095),
        ];
        for f in fresh {
            s.try_insert(f).unwrap();
            oracle.insert(f);
        }
        for victim in [data()[7], data()[301]] {
            assert!(s.delete(&victim));
            oracle.delete(victim.id);
        }
        assert_eq!(s.len(), data().len() + fresh.len() - 2);
        assert!(s.seal_if_dirty());
        assert!(!s.seal_if_dirty());
        for q in (0..4_096)
            .step_by(512)
            .map(|st| RangeQuery::new(st, st + 700))
        {
            assert_eq!(solo_sorted(&s, q), oracle.query_sorted(q), "{q:?}");
        }
        assert_eq!(s.len(), data().len() + fresh.len() - 2);
    }

    #[test]
    fn live_intervals_are_id_sorted_and_track_writes() {
        let mut s = session();
        let fresh = Interval::new(40_000, 1_000, 3_000);
        s.try_insert(fresh).unwrap();
        let victim = data()[12];
        assert!(s.delete(&victim));
        let live = s.live_intervals().unwrap();
        assert!(!s.is_dirty(), "live_intervals reseals first");
        let mut want: Vec<Interval> = data().into_iter().filter(|x| x.id != victim.id).collect();
        want.push(fresh);
        assert_eq!(live, want, "sorted by id, one entry per live interval");
    }

    #[test]
    fn fan_out_result_counts_train_the_first_routed_shard() {
        let s = session();
        let q = RangeQuery::new(1_100, 2_600); // shards 1 and 2
        let (lo, hi) = s.pool().router().route(q);
        assert!(lo < hi, "the probe must span shards");
        let extent = q.end - q.st;
        assert_eq!(s.result_counts[lo].expected_results(extent), None);
        let mut sinks = vec![Vec::new()];
        s.query_batch_merge(&[q], &mut sinks);
        let n = sinks[0].len();
        assert_eq!(s.result_counts[lo].expected_results(extent), Some(n));
        for (i, h) in s.result_counts.iter().enumerate() {
            if i != lo {
                assert_eq!(h.expected_results(extent), None, "shard {i}");
            }
        }
        // streaming sinks report no count and leave the hint alone
        let mut exists = vec![ExistsSink::new()];
        s.query_batch_merge(&[RangeQuery::new(1_100, 1_101)], &mut exists);
        assert_eq!(s.result_counts[lo].expected_results(1), None);
    }

    #[test]
    fn batch_merge_matches_solo() {
        let s = session();
        let queries: Vec<RangeQuery> = (0..32)
            .map(|i| RangeQuery::new(i * 100, i * 100 + 400))
            .collect();
        let mut merged: Vec<Vec<u64>> = queries.iter().map(|_| Vec::new()).collect();
        s.query_batch_merge(&queries, &mut merged);
        for (q, got) in queries.iter().zip(&merged) {
            let mut solo = Vec::new();
            s.query_sink(*q, &mut solo);
            assert_eq!(got, &solo, "{q:?}");
        }
    }

    #[test]
    fn result_feedback_never_changes_results() {
        // First batch records result counts; second batch runs with
        // histogram hints live. Both must match solo exactly.
        let s = session();
        let queries: Vec<RangeQuery> = (0..32)
            .map(|i| RangeQuery::new(i * 100, i * 100 + 400))
            .collect();
        for round in 0..2 {
            let mut merged: Vec<Vec<u64>> = queries.iter().map(|_| Vec::new()).collect();
            s.query_batch_merge(&queries, &mut merged);
            for (q, got) in queries.iter().zip(&merged) {
                let mut solo = Vec::new();
                s.query_sink(*q, &mut solo);
                assert_eq!(got, &solo, "round {round}: {q:?}");
            }
        }
    }

    /// Sorted ids of a solo query on `s`.
    fn solo_sorted(s: &Session<HintMSubs>, q: RangeQuery) -> Vec<u64> {
        let mut ids = Vec::new();
        s.query_sink(q, &mut ids);
        ids.sort_unstable();
        ids
    }

    #[test]
    fn a_singleton_batch_walks_inline() {
        let s = session();
        let before = s.pool().stats();
        let q = RangeQuery::new(10, 20); // inside shard 0
        let mut sinks = vec![Vec::new()];
        s.query_batch_inline(&[q], &mut sinks);
        let after = s.pool().stats();
        assert_eq!(after.batches - before.batches, 1);
        assert_eq!(after.inline - before.inline, 1);
        assert_eq!(after.routed - before.routed, 1);
        assert_eq!(after.dispatched - before.dispatched, 1);
        let mut got = sinks.pop().unwrap();
        got.sort_unstable();
        assert_eq!(got, solo_sorted(&s, q));
    }

    /// A batch on the fan-out route (`fanned`) or the inline one.
    fn run_batch<S: MergeableSink + Send + 'static>(
        s: &Session<HintMSubs>,
        fanned: bool,
        queries: &[RangeQuery],
        sinks: &mut [S],
    ) {
        if fanned {
            s.query_batch_merge(queries, sinks)
        } else {
            s.query_batch_inline(queries, sinks)
        }
    }

    #[test]
    fn both_routes_match_the_oracle_for_every_sink() {
        let s = session();
        let oracle = ScanOracle::new(&data());
        let queries: Vec<RangeQuery> = (0..40)
            .map(|i| RangeQuery::new(i * 97, i * 97 + (i % 7) * 300))
            .chain([RangeQuery::new(0, 4_095), RangeQuery::new(4_000, 4_095)])
            .collect();
        let mut by_route = Vec::new();
        for fanned in [false, true] {
            let mut ids: Vec<Vec<u64>> = queries.iter().map(|_| Vec::new()).collect();
            run_batch(&s, fanned, &queries, &mut ids);
            let mut counts = vec![CountSink::new(); queries.len()];
            run_batch(&s, fanned, &queries, &mut counts);
            let mut exists = vec![ExistsSink::new(); queries.len()];
            run_batch(&s, fanned, &queries, &mut exists);
            let mut firsts: Vec<FirstK> = queries.iter().map(|_| FirstK::new(3)).collect();
            run_batch(&s, fanned, &queries, &mut firsts);
            for (i, &q) in queries.iter().enumerate() {
                let want = oracle.query_sorted(q);
                let mut solo = Vec::new();
                s.query_sink(q, &mut solo);
                assert_eq!(ids[i], solo, "fanned {fanned}, {q:?}: not the solo order");
                assert_eq!(counts[i].count(), want.len(), "fanned {fanned}, {q:?}");
                assert_eq!(
                    exists[i].found(),
                    !want.is_empty(),
                    "fanned {fanned}, {q:?}"
                );
                let mut first = FirstK::new(3);
                s.query_sink(q, &mut first);
                assert_eq!(firsts[i].ids(), first.ids(), "fanned {fanned}, {q:?}");
                let mut sorted = ids[i].clone();
                sorted.sort_unstable();
                assert_eq!(sorted, want, "fanned {fanned}, {q:?}");
            }
            by_route.push(ids);
        }
        assert_eq!(by_route[0], by_route[1], "the routes differ");
    }

    /// A collecting sink whose forks panic on their first id: a fanned
    /// batch into it dies on the helpers.
    struct PanickingFork {
        ids: Vec<u64>,
        is_fork: bool,
    }

    impl QuerySink for PanickingFork {
        fn emit(&mut self, id: u64) {
            assert!(!self.is_fork, "injected helper panic");
            self.ids.push(id);
        }
    }

    impl MergeableSink for PanickingFork {
        fn fork(&self) -> Self {
            Self {
                ids: Vec::new(),
                is_fork: true,
            }
        }
        fn merge(&mut self, other: Self) {
            self.ids.extend(other.ids);
        }
    }

    #[test]
    fn a_write_right_after_a_failed_fan_out_succeeds() {
        let mut s = session();
        let mut oracle = ScanOracle::new(&data());
        let queries = vec![RangeQuery::new(0, 4_095); 4];
        let mut sinks: Vec<PanickingFork> = queries
            .iter()
            .map(|_| PanickingFork {
                ids: Vec::new(),
                is_fork: false,
            })
            .collect();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.query_batch_merge(&queries, &mut sinks)
        }));
        assert!(failed.is_err(), "the fanned batch must fail");
        // every lent shard is back: writes, a reseal and reads succeed
        let fresh = Interval::new(20_000, 1_000, 3_500);
        s.try_insert(fresh).unwrap();
        oracle.insert(fresh);
        let victim = data()[5];
        assert!(s.delete(&victim));
        oracle.delete(victim.id);
        assert!(s.seal_if_dirty());
        for q in [RangeQuery::new(0, 4_095), RangeQuery::new(900, 1_100)] {
            assert_eq!(solo_sorted(&s, q), oracle.query_sorted(q), "{q:?}");
            let mut fanned = vec![Vec::new()];
            s.query_batch_merge(&[q], &mut fanned);
            fanned[0].sort_unstable();
            assert_eq!(fanned[0], oracle.query_sorted(q), "{q:?}");
        }
    }

    fn drain(s: &Session<HintMSubs>) -> Vec<Vec<u64>> {
        let probes = [
            RangeQuery::new(0, 4_095),
            RangeQuery::new(100, 900),
            RangeQuery::stab(2_048),
            RangeQuery::new(3_000, 3_001),
        ];
        probes
            .iter()
            .map(|&q| {
                let mut out: Vec<u64> = Vec::new();
                s.query_sink(q, &mut out);
                out.sort_unstable();
                out
            })
            .collect()
    }

    #[test]
    fn snapshot_bytes_roundtrips_a_dirty_session() {
        let mut s = session();
        // pending writes must be folded in by the snapshot barrier
        s.try_insert(Interval::new(70_000, 5, 9)).unwrap();
        let victim = Interval::new(3, 123, 213); // i=3 in build()
        assert!(s.delete(&victim));
        let bytes = s.snapshot_bytes().unwrap();
        assert!(!s.is_dirty(), "snapshot must seal first");
        let r = Session::restore_bytes(&bytes).unwrap();
        assert_eq!(r.len(), s.len());
        assert_eq!(r.domain(), s.domain());
        assert_eq!(drain(&r), drain(&s));
        // and the restored session accepts writes like a fresh one
        let mut r = r;
        r.try_insert(Interval::new(70_001, 5, 9)).unwrap();
        assert!(r.seal_if_dirty());
        assert_eq!(r.len(), s.len() + 1);
    }

    #[test]
    fn snapshot_file_roundtrips_and_cleans_up_its_temp() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hint-session-snap-{}.snap", std::process::id()));
        let mut s = session();
        s.snapshot(&path).unwrap();
        assert!(
            snapshot::tmp_siblings(&path).is_empty(),
            "temp must be renamed away"
        );
        let r = Session::restore(&path).unwrap();
        assert_eq!(drain(&r), drain(&s));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_of_garbage_is_a_typed_error() {
        let err = Session::restore_bytes(b"definitely not a snapshot")
            .err()
            .unwrap();
        assert!(matches!(err, RestoreError::Format(_)));
        let missing = Session::restore(Path::new("/nonexistent/dir/x.snap"))
            .err()
            .unwrap();
        assert!(matches!(missing, RestoreError::Io(_)));
    }
}
