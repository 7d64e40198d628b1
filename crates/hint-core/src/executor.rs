//! Batched parallel query execution over a *borrowed* [`ShardedIndex`]
//! — the scoped, spawn-per-batch executor.
//!
//! This is the executor for callers that hold the index by reference:
//! every batch fans out under a [`crossbeam::thread::scope`], so worker
//! threads are created and joined *per batch*. The serving stack does
//! not use it anymore: [`crate::ShardPool`] moves the shards into
//! persistent, optionally core-pinned worker threads and dispatches
//! batches over channels with zero per-batch spawns (the `retune` bench
//! harness measures the two side by side). The scoped path remains the
//! right tool for one-shot batch work over an index you only borrow,
//! and is the reference implementation the pool must stay bit-identical
//! to.
//!
//! A batch of queries is *routed* first: every query contributes one
//! entry (its shard-local sub-query plus an is-first-shard flag) to the
//! sub-batch of each shard its range overlaps. Execution then fans out
//! with [`crossbeam::thread::scope`] — **one thread per shard that
//! received work**, capped at the machine's available parallelism (extra
//! shards are folded onto the workers in contiguous runs; set
//! `HINT_SHARD_THREADS` to override the cap) — and each thread drains
//! its sub-batches through the shards' inner indexes (which apply their
//! own shared-level-walk batching when sealed) into thread-local sinks.
//! On a single-core machine the executor degenerates to draining the
//! sub-batches inline, in shard order, with no spawns at all: sharding
//! still pays through shard-local batching (each shard's sub-batch walks
//! a smaller, shallower index back-to-back) while oversubscription costs
//! nothing. No locks are taken on the emit path; the only
//! synchronization is the scope join.
//!
//! The thread-local results are merged into the callers' sinks on the
//! calling thread, always in ascending shard order, so the merged output
//! is bit-identical to what the sequential [`ShardedIndex::query_sink`]
//! loop produces — regardless of how the OS scheduled the shard threads.
//! Two merge paths exist:
//!
//! * [`ShardedIndex::query_batch`] accepts the trait-level
//!   `&mut [&mut dyn QuerySink]` and buffers each (shard, query) result
//!   in a thread-local `Vec<IntervalId>`, merging via
//!   [`QuerySink::emit_slice`]. Saturating sinks are respected at merge
//!   time (a full [`FirstK`](crate::FirstK) never receives more than its
//!   `k`), though workers cannot observe saturation across threads.
//! * [`ShardedIndex::query_batch_merge`] is the typed fast path for
//!   [`MergeableSink`] consumers: every worker gets a
//!   [`fork`](MergeableSink::fork) of the caller's sink per routed query,
//!   saturation stops the shard-local scan early (a first-`k` fork stops
//!   its shard's scan at `k`), and the forks are folded back with the
//!   saturation-aware [`merge`](MergeableSink::merge).

use crate::interval::{IntervalId, RangeQuery};
use crate::shard::{FilterSink, Shard, ShardedIndex};
use crate::sink::{MergeableSink, QuerySink};
use crate::IntervalIndex;

/// One routed entry of a shard's sub-batch: the position of the query in
/// the caller's batch, the shard-local sub-query, and whether this shard
/// is the first the query routes to (replicas are reported there).
pub(crate) type Routed = (u32, RangeQuery, bool);

/// How many worker threads a batch may fan out over: the
/// `HINT_SHARD_THREADS` override if set, else the machine's available
/// parallelism. `0` is clamped to `1` (the long-standing way to force
/// the serial inline path); unparsable values warn once on stderr via
/// [`crate::env`] and fall back to the machine default.
fn worker_cap() -> usize {
    // `available_parallelism` is uncached by std and re-reads cgroup
    // state on Linux — far too expensive per batch; the machine default
    // cannot change mid-process, so resolve it once. The env override
    // stays a live read (cheap), preserving per-test/per-call semantics.
    static MACHINE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let default =
        *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    crate::env::var_or("HINT_SHARD_THREADS", default, "a thread count", |_| true).max(1)
}

/// The batch-clustering planning pass: orders every shard's sub-batch
/// by the shard-local sub-query's `(st, end)` — the same key the sealed
/// walk would have sorted mapped queries by — *once, at planning time*,
/// so the sealed shared-level walk skips its own per-(shard, batch)
/// sort and every routed shard reuses the one ordered plan. Stable, so
/// equal-start queries keep batch order and plans stay deterministic.
/// Purely a locality strategy: per-sink results are bit-identical to an
/// unclustered plan.
pub(crate) fn cluster_plan(plan: &mut [Vec<Routed>]) {
    for sub in plan.iter_mut() {
        if sub.len() > 1 {
            sub.sort_by_key(|&(_, lq, _)| (lq.st, lq.end));
        }
    }
}

/// Splits `items` into at most `workers` contiguous chunks of
/// near-equal size (ascending order preserved).
fn split_chunks<T>(mut items: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    let per = items.len().div_ceil(workers.max(1)).max(1);
    let mut out = Vec::with_capacity(workers);
    while items.len() > per {
        let rest = items.split_off(per);
        out.push(std::mem::replace(&mut items, rest));
    }
    if !items.is_empty() {
        out.push(items);
    }
    out
}

impl<I: IntervalIndex + Sync> ShardedIndex<I> {
    /// Routes a batch: one sub-batch per shard, in batch order.
    fn plan(&self, queries: &[RangeQuery]) -> Vec<Vec<Routed>> {
        let mut plan: Vec<Vec<Routed>> = self.shards.iter().map(|_| Vec::new()).collect();
        for (qi, &q) in queries.iter().enumerate() {
            let (lo, hi) = self.route(q);
            for (j, sub) in plan[lo..=hi].iter_mut().enumerate() {
                let j = lo + j;
                sub.push((qi as u32, self.local_query(j, q, lo, hi), j == lo));
            }
        }
        plan
    }

    /// Evaluates a batch of queries, one sink per query, fanning the
    /// routed sub-batches out across shards in parallel and merging the
    /// per-shard results back in shard order. Each sink ends up with
    /// exactly what a solo [`ShardedIndex::query_sink`] call would have
    /// emitted, in the same order.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        self.query_batch_workers(queries, sinks, worker_cap())
    }

    /// [`query_batch`](Self::query_batch) with an explicit worker-thread
    /// cap instead of the machine default (`workers <= 1` drains the
    /// sub-batches inline with no spawns; results are identical either
    /// way).
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch_workers(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [&mut dyn QuerySink],
        workers: usize,
    ) {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        if queries.is_empty() {
            return;
        }
        if self.shards.len() == 1 {
            // single shard, nothing to fan out: use the inner index's own
            // batch executor (shared level walk when sealed)
            return self.shards[0].index.query_batch(queries, sinks);
        }
        let mut plan = self.plan(queries);
        cluster_plan(&mut plan);
        // shards with routed work, ascending
        let active: Vec<(usize, &[Routed])> = plan
            .iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .map(|(j, sub)| (j, sub.as_slice()))
            .collect();
        let workers = workers.min(active.len());
        if workers <= 1 {
            // single core (or shard): drain each sub-batch directly into
            // the callers' sinks, in shard order — zero-copy, and caller
            // saturation is visible to the scans
            for &(j, sub) in &active {
                self.shards[j].run_inline(sub, sinks);
            }
            return;
        }
        let results: Vec<Vec<(u32, Vec<IntervalId>)>> = {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = split_chunks(active, workers)
                    .into_iter()
                    .map(|chunk| {
                        scope.spawn(move |_| {
                            chunk
                                .into_iter()
                                .map(|(j, sub)| self.shards[j].run_collect(sub))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
            .expect("shard executor scope")
        };
        // merge on the calling thread, ascending shard order per query
        for per_shard in &results {
            for (qi, ids) in per_shard {
                let sink = &mut *sinks[*qi as usize];
                if !sink.is_saturated() {
                    sink.emit_slice(ids);
                }
            }
        }
    }

    /// The typed batch path for [`MergeableSink`] consumers: workers fill
    /// per-query [`fork`](MergeableSink::fork)s of the callers' sinks
    /// (honouring fork saturation, so first-`k`/exists sub-scans
    /// terminate early inside each shard) and the forks are folded back
    /// with the saturation-aware [`merge`](MergeableSink::merge), in
    /// shard order, on the calling thread.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch_merge<S>(&self, queries: &[RangeQuery], sinks: &mut [S])
    where
        S: MergeableSink + Send,
    {
        self.query_batch_merge_workers(queries, sinks, worker_cap())
    }

    /// [`query_batch_merge`](Self::query_batch_merge) with an explicit
    /// worker-thread cap instead of the machine default.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch_merge_workers<S>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [S],
        workers: usize,
    ) where
        S: MergeableSink + Send,
    {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        if queries.is_empty() {
            return;
        }
        if self.shards.len() == 1 {
            // monomorphized straight through: the inner sealed walk runs
            // against the concrete sink type with no vtable on the emit
            // path (a single shard has no replicas to suppress)
            let mut refs: Vec<&mut S> = sinks.iter_mut().collect();
            return self.shards[0]
                .index
                .query_batch_sinks(queries, &mut refs, false);
        }
        let mut plan = self.plan(queries);
        cluster_plan(&mut plan);
        let active: Vec<(usize, &[Routed])> = plan
            .iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .map(|(j, sub)| (j, sub.as_slice()))
            .collect();
        let workers = workers.min(active.len());
        if workers <= 1 {
            // no parallelism available: skip the fork/merge machinery
            // entirely and drain straight into the callers' sinks — fully
            // monomorphized, shard order preserved
            for &(j, sub) in &active {
                self.shards[j].run_inline_merge(sub, sinks);
            }
            return;
        }
        // fork on the calling thread (forks then move into the workers)
        let jobs: Vec<(usize, Vec<(Routed, S)>)> = active
            .iter()
            .map(|&(j, sub)| {
                let job = sub
                    .iter()
                    .map(|&entry| {
                        let fork = sinks[entry.0 as usize].fork();
                        (entry, fork)
                    })
                    .collect();
                (j, job)
            })
            .collect();
        let results: Vec<Vec<(u32, S)>> = {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = split_chunks(jobs, workers)
                    .into_iter()
                    .map(|chunk| {
                        scope.spawn(move |_| {
                            chunk
                                .into_iter()
                                .map(|(j, job)| self.shards[j].run_forks(job))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
            .expect("shard executor scope")
        };
        for per_shard in results {
            for (qi, fork) in per_shard {
                sinks[qi as usize].merge(fork);
            }
        }
    }
}

// Every routed sub-batch reaching these walks was ordered by
// `cluster_plan`, so the inner batch walk is told it is presorted.
impl<I: IntervalIndex> Shard<I> {
    /// The inline dyn path (single worker): drains a routed sub-batch
    /// directly into the callers' sinks through the replica filter, one
    /// shared inner batch call for the whole sub-batch. Entries may
    /// arrive in any order (the clustering pass reorders them), so each
    /// entry *takes* its sink out of a per-query slot — a sub-batch
    /// never repeats a query, so every take succeeds.
    fn run_inline(&self, sub: &[Routed], sinks: &mut [&mut dyn QuerySink]) {
        let queries: Vec<RangeQuery> = sub.iter().map(|e| e.1).collect();
        let mut grabbed: Vec<Option<&mut dyn QuerySink>> =
            sinks.iter_mut().map(|s| Some(&mut **s)).collect();
        let mut wrappers: Vec<FilterSink<'_, dyn QuerySink>> = sub
            .iter()
            .map(|&(qi, _, is_first)| FilterSink {
                inner: grabbed[qi as usize]
                    .take()
                    .expect("sub-batch repeats a query"),
                replicas: (!is_first && !self.replicas.is_empty()).then_some(&self.replicas),
            })
            .collect();
        let mut refs: Vec<&mut FilterSink<'_, dyn QuerySink>> = wrappers.iter_mut().collect();
        self.index.query_batch_sinks(&queries, &mut refs, true);
    }

    /// The inline merge path (single worker): like
    /// [`run_inline`](Self::run_inline) but generic over the sink type,
    /// so the whole chain — replica filter, sealed level walk, regime
    /// dispatch, emissions — monomorphizes per concrete sink with no
    /// vtable call anywhere. This is the measured path on machines where
    /// the batch degenerates to inline execution.
    pub(crate) fn run_inline_merge<S: MergeableSink>(&self, sub: &[Routed], sinks: &mut [S]) {
        let queries: Vec<RangeQuery> = sub.iter().map(|e| e.1).collect();
        let mut grabbed: Vec<Option<&mut S>> = sinks.iter_mut().map(Some).collect();
        // When nothing can need suppressing — the shard holds no replicas,
        // or every routed entry is its query's first shard — the filter
        // wrapper is pure overhead on the emit path: drain straight into
        // the callers' sinks.
        if self.replicas.is_empty() || sub.iter().all(|e| e.2) {
            let mut refs: Vec<&mut S> = sub
                .iter()
                .map(|&(qi, _, _)| {
                    grabbed[qi as usize]
                        .take()
                        .expect("sub-batch repeats a query")
                })
                .collect();
            return self.index.query_batch_sinks(&queries, &mut refs, true);
        }
        let mut wrappers: Vec<FilterSink<'_, S>> = sub
            .iter()
            .map(|&(qi, _, is_first)| FilterSink {
                inner: grabbed[qi as usize]
                    .take()
                    .expect("sub-batch repeats a query"),
                replicas: (!is_first).then_some(&self.replicas),
            })
            .collect();
        let mut refs: Vec<&mut FilterSink<'_, S>> = wrappers.iter_mut().collect();
        self.index.query_batch_sinks(&queries, &mut refs, true);
    }

    /// Drains a routed sub-batch into thread-local result buffers, one
    /// per query, replicas suppressed for non-first entries. The whole
    /// sub-batch goes through the inner index's batch walk, so sealed
    /// inner indexes amortize one level walk across the sub-batch.
    pub(crate) fn run_collect(&self, sub: &[Routed]) -> Vec<(u32, Vec<IntervalId>)> {
        let queries: Vec<RangeQuery> = sub.iter().map(|e| e.1).collect();
        let mut bufs: Vec<Vec<IntervalId>> = sub.iter().map(|_| Vec::new()).collect();
        {
            let mut wrappers: Vec<FilterSink<'_, Vec<IntervalId>>> = bufs
                .iter_mut()
                .zip(sub)
                .map(|(buf, &(_, _, is_first))| FilterSink {
                    inner: buf,
                    replicas: (!is_first && !self.replicas.is_empty()).then_some(&self.replicas),
                })
                .collect();
            let mut refs: Vec<&mut FilterSink<'_, Vec<IntervalId>>> = wrappers.iter_mut().collect();
            self.index.query_batch_sinks(&queries, &mut refs, true);
        }
        sub.iter()
            .zip(bufs)
            .map(|(&(qi, _, _), buf)| (qi, buf))
            .collect()
    }

    /// Drains a routed sub-batch into the callers' sink forks. Fork
    /// saturation propagates into the scan, so saturating sinks keep
    /// their early exit within each shard.
    pub(crate) fn run_forks<S: MergeableSink + Send>(
        &self,
        job: Vec<(Routed, S)>,
    ) -> Vec<(u32, S)> {
        let queries: Vec<RangeQuery> = job.iter().map(|(e, _)| e.1).collect();
        let firsts: Vec<bool> = job.iter().map(|(e, _)| e.2).collect();
        let mut out: Vec<(u32, S)> = job
            .into_iter()
            .map(|((qi, _, _), fork)| (qi, fork))
            .collect();
        {
            let mut wrappers: Vec<FilterSink<'_, S>> = out
                .iter_mut()
                .zip(&firsts)
                .map(|((_, fork), &is_first)| FilterSink {
                    inner: fork,
                    replicas: (!is_first && !self.replicas.is_empty()).then_some(&self.replicas),
                })
                .collect();
            let mut refs: Vec<&mut FilterSink<'_, S>> = wrappers.iter_mut().collect();
            self.index.query_batch_sinks(&queries, &mut refs, true);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountSink, ExistsSink, FirstK};
    use crate::{HintMSubs, Interval, SubsConfig};

    fn data() -> Vec<Interval> {
        (0..2_000)
            .map(|i| {
                let st = (i * 53) % 16_000;
                Interval::new(i, st, (st + (i % 29) * 30).min(16_383))
            })
            .collect()
    }

    fn sharded(k: usize, seal: bool) -> ShardedIndex<HintMSubs> {
        let mut idx = ShardedIndex::build_with(&data(), k, |slice, lo, hi| {
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

    #[test]
    fn parallel_batch_is_bit_identical_to_solo_at_any_worker_count() {
        for seal in [false, true] {
            for k in [1, 2, 4, 8] {
                let idx = sharded(k, seal);
                let queries = batch();
                let solo: Vec<Vec<IntervalId>> = queries
                    .iter()
                    .map(|&q| {
                        let mut v = Vec::new();
                        idx.query_sink(q, &mut v);
                        v
                    })
                    .collect();
                // inline (workers=1), undersubscribed (2), one thread per
                // shard (k), oversubscribed (k+3): all bit-identical
                for workers in [1, 2, k, k + 3] {
                    let mut bufs: Vec<Vec<IntervalId>> =
                        queries.iter().map(|_| Vec::new()).collect();
                    let mut sinks: Vec<&mut dyn QuerySink> =
                        bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
                    idx.query_batch_workers(&queries, &mut sinks, workers);
                    assert_eq!(solo, bufs, "k={k} seal={seal} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn merge_path_is_bit_identical_at_any_worker_count() {
        let idx = sharded(8, true);
        let queries = batch();
        let mut solo: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        for (q, buf) in queries.iter().zip(&mut solo) {
            idx.query_sink(*q, buf);
        }
        for workers in [1, 2, 5, 8, 16] {
            let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
            idx.query_batch_merge_workers(&queries, &mut merged, workers);
            assert_eq!(solo, merged, "workers={workers}");
        }
    }

    #[test]
    fn split_chunks_preserves_order_and_covers_everything() {
        for n in [0usize, 1, 2, 5, 7, 8, 9] {
            for workers in [1usize, 2, 3, 8] {
                let items: Vec<usize> = (0..n).collect();
                let chunks = split_chunks(items, workers);
                assert!(chunks.len() <= workers.max(1), "n={n} workers={workers}");
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn merge_path_counts_and_exists_match_dyn_path() {
        let idx = sharded(4, true);
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
        let idx = sharded(8, true);
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
    fn collect_forks_merge_in_shard_order() {
        let idx = sharded(4, false);
        let queries = batch();
        let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        idx.query_batch_merge(&queries, &mut merged);
        for (i, &q) in queries.iter().enumerate() {
            let mut solo = Vec::new();
            idx.query_sink(q, &mut solo);
            assert_eq!(merged[i], solo, "{q:?}");
        }
    }
}
