//! The shard pool: the caller owns every shard, and one helper thread
//! per shard walks lent shards when a batch fans out.
//!
//! [`ShardPool::new`] keeps each shard of a [`ShardedIndex`] as an
//! `Arc<Shard<I>>` on the calling thread — in the serving stack, the
//! scheduler — and spawns one long-lived helper thread per shard. Reads
//! take one of two routes, and both share the index's own routing and
//! per-shard walks ([`crate::shard`]):
//!
//! * **Inline** ([`ShardPool::query_sink_pooled`], the `dyn`
//!   [`IntervalIndex::query_batch`] and
//!   [`Session::query_batch_inline`](crate::Session::query_batch_inline),
//!   the route the wire server drives): the batch is routed once and
//!   each shard's sub-batch is drained straight into the callers'
//!   sinks, in shard order, on the calling thread. No thread hop,
//!   nothing forked.
//! * **Fan-out** ([`ShardPool::query_batch_merge`], and
//!   [`Session::query_batch_merge`](crate::Session::query_batch_merge)
//!   over it): every active shard
//!   is *lent* to its helper as an `Arc` clone, with its routed
//!   sub-batch and one sink fork per entry; the filled forks come back
//!   and are merged on the calling thread in ascending shard order —
//!   bit-identical to the inline route. Bounded sinks
//!   ([`crate::FirstK`], [`crate::ExistsSink`];
//!   [`MergeableSink::is_bounded`]) are *staged* in shard order, so a
//!   query whose sink is already saturated is not sent to the remaining
//!   shards at all.
//!
//! On either route, [`ShardPool::stats`] counts the `(query, shard)`
//! entries walked and the saturated ones skipped, and `inline` counts
//! the batches walked on the calling thread.
//!
//! ## Ownership
//!
//! Writes and size queries run on the calling thread, directly
//! on the shards (writes through `Arc::get_mut`). That always succeeds,
//! because a lent `Arc` never outlives the call that lent it: a fan-out
//! waits for every helper it dispatched — also when it fails — and a
//! helper drops its clone before it replies or hangs up, even when its
//! walk panics. So between calls the caller holds the only reference to
//! every shard, a read sees every earlier write by program order alone,
//! and no write is ever queued. The helpers do the heavy whole-shard
//! work in parallel: [`ShardPool::seal_all`] hands each shard to its
//! helper by value and takes it back, [`ShardPool::clone_index`] lends
//! each one to be cloned, and a dropped pool has each helper drop its
//! own shard.

use crate::interval::{Interval, IntervalId, RangeQuery, Time};
use crate::shard::{self, MutableIndex, Routed, Router, Shard, ShardedIndex};
use crate::sink::{MergeableSink, QuerySink};
use crate::IntervalIndex;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A recoverable fan-out failure, surfaced as a value instead of
/// crashing the process. A serving layer maps this to an error reply on
/// one request; the pool itself stays up (a panicking walk is caught on
/// its helper, which keeps serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The helper walking shard `shard`'s sub-batch did not reply: the
    /// walk panicked, or the helper thread is gone. Sink contents are
    /// unspecified; the shard itself is untouched and still owned by the
    /// caller.
    WorkerDied {
        /// Index of the failing shard.
        shard: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerDied { shard } => {
                write!(f, "shard {shard} worker failed to complete the request")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// One lent walk, run on a helper thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why `Arc::get_mut` / `Arc::into_inner` cannot fail on a pool shard.
const LENT: &str = "a lent shard outlived the batch that lent it";

/// A shard lent to a helper for one walk, with the channel the result
/// goes back on. Fields drop in declaration order, so a walk that
/// panics releases the lent `Arc` before the reply channel hangs up,
/// and [`repay`](Self::repay) releases it before replying: the owner
/// never sees a reply, or a closed channel, while a clone is still out.
struct Loan<I, T> {
    shard: Arc<Shard<I>>,
    reply: Sender<(usize, T)>,
    j: usize,
}

impl<I, T> Loan<I, T> {
    fn repay(self, out: T) {
        let Loan { shard, reply, j } = self;
        drop(shard);
        let _ = reply.send((j, out));
    }
}

/// Dispatch counters (see [`ShardPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches executed on either route (solo queries count as batches
    /// of 1).
    pub batches: u64,
    /// Batches walked on the calling thread (the inline route).
    pub inline: u64,
    /// `(query, shard)` entries produced by routing.
    pub routed: u64,
    /// Entries actually walked, on either route.
    pub dispatched: u64,
    /// Entries skipped because the query's sink was already saturated
    /// when its shard's turn came.
    pub skipped: u64,
}

#[derive(Default)]
struct PoolCounters {
    batches: AtomicU64,
    inline: AtomicU64,
    routed: AtomicU64,
    dispatched: AtomicU64,
    skipped: AtomicU64,
}

/// The caller-owned shards of a [`ShardedIndex`] plus one helper thread
/// per shard: the serving-side executor. See the module docs for the
/// two read routes and the ownership rules.
///
/// The pool exposes the same query surface as the index it was built
/// from ([`IntervalIndex`] plus the typed
/// [`query_batch_merge`](Self::query_batch_merge) fan-out) with
/// bit-identical results, and the same write surface when the inner
/// index is [`MutableIndex`].
pub struct ShardPool<I: Send + Sync + 'static> {
    shards: Vec<Arc<Shard<I>>>,
    /// Each helper's job channel; helper `j` walks shard `j`.
    jobs: Vec<Sender<Job>>,
    helpers: Vec<JoinHandle<()>>,
    /// The routing table of `shards`.
    router: Router,
    /// Live (deduplicated) interval count, maintained by the write path.
    live: usize,
    counters: PoolCounters,
    /// Pooled per-shard routing buffers, reused across batches so steady
    /// dispatch allocates no plan `Vec`s at all. `try_lock` only: a
    /// concurrent batch that loses the race plans into a fresh local
    /// buffer instead of waiting.
    scratch: Mutex<Vec<Vec<Routed>>>,
}

impl<I: IntervalIndex + Send + Sync + 'static> ShardPool<I> {
    /// Takes ownership of `index`'s shards and spawns one helper thread
    /// per shard.
    pub fn new(index: ShardedIndex<I>) -> Self {
        let (shards, live) = index.into_parts();
        let router = Router::of(&shards);
        let (jobs, helpers) = (0..shards.len()).map(spawn_helper).unzip();
        Self {
            shards: shards.into_iter().map(Arc::new).collect(),
            jobs,
            helpers,
            router,
            live,
            counters: PoolCounters::default(),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Stops the helpers and reassembles the [`ShardedIndex`]. The
    /// inverse of [`ShardPool::new`]; a new pool can be spun up from the
    /// result.
    pub fn into_index(mut self) -> ShardedIndex<I> {
        let shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|s| Arc::into_inner(s).expect(LENT))
            .collect();
        ShardedIndex::from_parts(shards, self.live)
    }

    /// Number of shards (= helper threads).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inclusive domain range `[start, end]` of each shard, in order.
    pub fn shard_bounds(&self) -> &[(Time, Time)] {
        self.router.bounds()
    }

    /// Inclusive domain bounds `[min, max]` across all shards.
    pub fn domain(&self) -> (Time, Time) {
        self.router.domain()
    }

    /// The routing table the pool dispatches by.
    pub(crate) fn router(&self) -> &Router {
        &self.router
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no intervals are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// A snapshot of the dispatch counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.counters;
        PoolStats {
            batches: c.batches.load(Ordering::Relaxed),
            inline: c.inline.load(Ordering::Relaxed),
            routed: c.routed.load(Ordering::Relaxed),
            dispatched: c.dispatched.load(Ordering::Relaxed),
            skipped: c.skipped.load(Ordering::Relaxed),
        }
    }

    /// Shard `j`, mutably: only ever called between batches, when the
    /// caller holds the only reference.
    fn shard_mut(&mut self, j: usize) -> &mut Shard<I> {
        Arc::get_mut(&mut self.shards[j]).expect(LENT)
    }

    /// Counts `(query, shard)` entries walked and skipped.
    fn count_walks(&self, walked: usize, skipped: usize) {
        let c = &self.counters;
        c.dispatched.fetch_add(walked as u64, Ordering::Relaxed);
        c.skipped.fetch_add(skipped as u64, Ordering::Relaxed);
    }

    /// Drains replies tagged with their shard index from `rx` until the
    /// channel closes — so every dispatched helper is done with its loan
    /// — returning them in ascending shard order, or, if a dispatched
    /// shard never replied (its walk panicked), the lowest such shard
    /// as a [`PoolError`]. Each dispatched shard sends at most one reply.
    fn collect_tagged<T>(
        rx: &Receiver<(usize, T)>,
        dispatched: &[usize],
    ) -> Result<Vec<(usize, T)>, PoolError> {
        let mut done: Vec<(usize, T)> = Vec::with_capacity(dispatched.len());
        while let Ok(pair) = rx.recv() {
            done.push(pair);
        }
        if done.len() < dispatched.len() {
            let shard = dispatched
                .iter()
                .copied()
                .filter(|&j| done.iter().all(|&(got, _)| got != j))
                .min()
                .unwrap_or(0);
            return Err(PoolError::WorkerDied { shard });
        }
        done.sort_unstable_by_key(|&(j, _)| j);
        Ok(done)
    }

    /// Routes and clusters a batch, then hands the plan to `run`. The
    /// plan lives in pooled per-shard buffers, reused across batches so
    /// steady dispatch allocates no plan `Vec`s at all (a concurrent
    /// batch that loses the `try_lock` race plans into a fresh local
    /// buffer instead of waiting). Counts the batch and its routed
    /// entries.
    fn planned<R>(&self, queries: &[RangeQuery], run: impl FnOnce(&[Vec<Routed>]) -> R) -> R {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        let mut local: Vec<Vec<Routed>> = Vec::new();
        let mut guard = self.scratch.try_lock().ok();
        let plan: &mut Vec<Vec<Routed>> = match guard.as_deref_mut() {
            Some(g) => g,
            None => &mut local,
        };
        self.router.plan_into(queries, plan);
        let routed: usize = plan.iter().map(Vec::len).sum();
        self.counters
            .routed
            .fetch_add(routed as u64, Ordering::Relaxed);
        run(plan)
    }

    /// The inline route: evaluates a batch on the calling thread, each
    /// shard's sub-batch drained straight into the callers' sinks in
    /// shard order. Bit-identical to solo
    /// [`query_sink_pooled`](Self::query_sink_pooled) calls; entries
    /// whose sink saturated at an earlier shard are skipped.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub(crate) fn query_batch_inline<S: QuerySink>(&self, queries: &[RangeQuery], sinks: &mut [S]) {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        if queries.is_empty() {
            return;
        }
        self.counters.inline.fetch_add(1, Ordering::Relaxed);
        let (walked, skipped) = self.planned(queries, |plan| {
            shard::drain_inline(&self.shards, plan, sinks)
        });
        self.count_walks(walked, skipped);
    }

    /// The fan-out route: evaluates a batch of queries on the helper
    /// threads, one [`MergeableSink`] per query. Bit-identical to solo
    /// [`ShardedIndex::query_sink`] calls at the same index state:
    /// per-shard forks are merged back in ascending shard order on the
    /// calling thread. Bounded sinks are dispatched shard by shard so a
    /// saturated query stops being sent to the remaining shards (see
    /// the module docs).
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths, or if a
    /// helper fails (use [`try_query_batch_merge`](Self::try_query_batch_merge)
    /// to handle that as a value).
    pub fn query_batch_merge<S>(&self, queries: &[RangeQuery], sinks: &mut [S])
    where
        S: MergeableSink + Send + 'static,
    {
        self.query_batch_merge_hinted(queries, sinks, None)
    }

    /// Fallible [`query_batch_merge`](Self::query_batch_merge): a helper
    /// failure surfaces as [`PoolError`] instead of a panic. On `Err`,
    /// the contents of `sinks` are unspecified (some forks may have
    /// merged) — callers reply with an error and drop them.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn try_query_batch_merge<S>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [S],
    ) -> Result<(), PoolError>
    where
        S: MergeableSink + Send + 'static,
    {
        self.try_query_batch_merge_hinted(queries, sinks, None)
    }

    /// [`query_batch_merge`](Self::query_batch_merge) with optional
    /// per-query result-count predictions (from the session's extent
    /// histograms): hint `hints[i]` pre-sizes every fork of `sinks[i]`
    /// via [`MergeableSink::fork_sized`], so collecting forks never grow
    /// mid-scan. Hints are capacity advice only and never affect
    /// results.
    ///
    /// # Panics
    /// Panics if `queries`, `sinks` (and `hints`, when given) have
    /// different lengths, or if a helper fails.
    pub fn query_batch_merge_hinted<S>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [S],
        hints: Option<&[usize]>,
    ) where
        S: MergeableSink + Send + 'static,
    {
        self.try_query_batch_merge_hinted(queries, sinks, hints)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`query_batch_merge_hinted`](Self::query_batch_merge_hinted):
    /// a helper failure surfaces as [`PoolError`] instead of a panic (on
    /// `Err` the sink contents are unspecified).
    ///
    /// # Panics
    /// Panics if `queries`, `sinks` (and `hints`, when given) have
    /// different lengths.
    pub fn try_query_batch_merge_hinted<S>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [S],
        hints: Option<&[usize]>,
    ) -> Result<(), PoolError>
    where
        S: MergeableSink + Send + 'static,
    {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        if let Some(h) = hints {
            assert_eq!(h.len(), queries.len(), "one hint per query");
        }
        if queries.is_empty() {
            return Ok(());
        }
        self.planned(queries, |plan| {
            if sinks.iter().all(|s| s.is_bounded()) {
                return self.run_staged(plan, sinks, hints);
            }
            let forked = self.fan_out(plan, |qi| fork_for(sinks, hints, qi))?;
            for (qi, fork) in forked.into_iter().flatten() {
                sinks[qi as usize].merge(fork);
            }
            Ok(())
        })
    }

    /// Lends shard `j` to its helper to run `work` on it; the result
    /// comes back on `reply`, tagged `j`, after the helper has dropped
    /// its clone. If the helper is gone, the job — and with it the
    /// clone — is dropped here.
    fn lend<T: Send + 'static>(
        &self,
        j: usize,
        reply: &Sender<(usize, T)>,
        work: impl FnOnce(&Shard<I>) -> T + Send + 'static,
    ) -> Result<(), PoolError> {
        let loan = Loan {
            shard: Arc::clone(&self.shards[j]),
            reply: reply.clone(),
            j,
        };
        self.jobs[j]
            .send(Box::new(move || {
                let out = work(&loan.shard);
                loan.repay(out);
            }))
            .map_err(|_| PoolError::WorkerDied { shard: j })
    }

    /// Lends every listed shard `j`, in ascending order, to run its
    /// `work` on its helper, all at once, and returns the results in
    /// shard order. Returns only once every dispatched helper is done,
    /// even on `Err`.
    fn lend_all<T, W>(
        &self,
        work: impl IntoIterator<Item = (usize, W)>,
    ) -> Result<Vec<T>, PoolError>
    where
        T: Send + 'static,
        W: FnOnce(&Shard<I>) -> T + Send + 'static,
    {
        let (tx, rx) = unbounded();
        let mut dispatched = Vec::new();
        let mut failed = Ok(());
        for (j, w) in work {
            failed = self.lend(j, &tx, w);
            if failed.is_err() {
                break;
            }
            dispatched.push(j);
        }
        drop(tx);
        // every shard dispatched before a failed lend is lower than it
        let done = Self::collect_tagged(&rx, &dispatched)?;
        failed?;
        Ok(done.into_iter().map(|(_, out)| out).collect())
    }

    /// Parallel dispatch: every active shard is lent at once, entry `qi`
    /// carrying the fork `fork(qi)`, and the filled forks come back per
    /// shard, in ascending shard order, tagged with their query
    /// positions — the caller merges them in that order.
    fn fan_out<F: QuerySink + Send + 'static>(
        &self,
        plan: &[Vec<Routed>],
        mut fork: impl FnMut(usize) -> F,
    ) -> Result<Vec<Vec<(u32, F)>>, PoolError> {
        self.lend_all(
            plan.iter()
                .enumerate()
                .filter(|(_, sub)| !sub.is_empty())
                .map(|(j, sub)| {
                    let job: Vec<(Routed, F)> = sub
                        .iter()
                        .map(|&entry| (entry, fork(entry.0 as usize)))
                        .collect();
                    self.count_walks(job.len(), 0);
                    (j, move |shard: &Shard<I>| shard.run_forks(job))
                }),
        )
    }

    /// Staged dispatch for bounded sinks: shards are visited in
    /// ascending order, and entries whose sink is already saturated are
    /// dropped instead of dispatched — the cross-shard early exit solo
    /// queries get from sequential shard visits, kept under batching.
    fn run_staged<S>(
        &self,
        plan: &[Vec<Routed>],
        sinks: &mut [S],
        hints: Option<&[usize]>,
    ) -> Result<(), PoolError>
    where
        S: MergeableSink + Send + 'static,
    {
        for (j, sub) in plan.iter().enumerate() {
            let job: Vec<(Routed, S)> = sub
                .iter()
                .filter(|&&(qi, _, _)| !sinks[qi as usize].is_saturated())
                .map(|&entry| (entry, fork_for(sinks, hints, entry.0 as usize)))
                .collect();
            self.count_walks(job.len(), sub.len() - job.len());
            if job.is_empty() {
                continue;
            }
            let walk = move |shard: &Shard<I>| shard.run_forks(job);
            for (qi, fork) in self.lend_all([(j, walk)])?.into_iter().flatten() {
                sinks[qi as usize].merge(fork);
            }
        }
        Ok(())
    }

    /// Solo query on the calling thread: the routed shards are walked
    /// in domain order, stopping as soon as the sink saturates — the
    /// same shard-granular early exit as [`ShardedIndex::query_sink`].
    pub fn query_sink_pooled<S: QuerySink + ?Sized>(&self, q: RangeQuery, sink: &mut S) {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters.inline.fetch_add(1, Ordering::Relaxed);
        let (walked, skipped) = shard::query_solo(&self.router, &self.shards, q, sink);
        self.counters
            .routed
            .fetch_add((walked + skipped) as u64, Ordering::Relaxed);
        self.count_walks(walked, skipped);
    }

    /// Reseals every shard in parallel, each handed by value to its
    /// helper and taken back — a write barrier: every earlier write is
    /// folded into the sealed arenas before this returns. Clean shards
    /// reseal for free (the inner indexes' idempotent fast path).
    ///
    /// # Panics
    /// Panics if a shard's seal panicked, naming the lowest such shard.
    /// Every shard is back in the pool first, the failed ones in
    /// whatever state their seal left them, so the pool stays usable.
    pub fn seal_all(&mut self) {
        let (tx, rx) = unbounded();
        for (j, mut shard) in std::mem::take(&mut self.shards).into_iter().enumerate() {
            let tx = tx.clone();
            let job: Job = Box::new(move || {
                let seal = || Arc::get_mut(&mut shard).expect(LENT).index.seal();
                let sealed = catch_unwind(AssertUnwindSafe(seal)).is_ok();
                let _ = tx.send((j, shard, sealed));
            });
            // a helper that is gone leaves its shard to seal here
            if let Err(unsent) = self.jobs[j].send(job) {
                (unsent.0)();
            }
        }
        drop(tx);
        let mut back: Vec<(usize, Arc<Shard<I>>, bool)> = rx.iter().collect();
        back.sort_unstable_by_key(|&(j, ..)| j);
        let failed = back
            .iter()
            .find(|&&(_, _, sealed)| !sealed)
            .map(|&(j, ..)| j);
        self.shards = back.into_iter().map(|(_, shard, _)| shard).collect();
        if let Some(j) = failed {
            panic!("shard {j}'s seal panicked");
        }
    }

    /// Clones every shard and reassembles a standalone [`ShardedIndex`]
    /// — the snapshot path's view of a live pool. The helpers clone
    /// their shards in parallel, so this takes about the largest
    /// shard's time, not the sum; sealed shards are cheap anyway, their
    /// big id arenas being `Arc`-shared, not copied.
    pub fn clone_index(&self) -> Result<ShardedIndex<I>, PoolError>
    where
        I: Clone,
    {
        let shards = self.lend_all((0..self.shards.len()).map(|j| (j, Shard::clone)))?;
        Ok(ShardedIndex::from_parts(shards, self.live))
    }

    /// Approximate heap footprint: inner indexes plus replica
    /// bookkeeping.
    pub fn size_bytes_pooled(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.index.size_bytes() + s.replicas.len() * std::mem::size_of::<IntervalId>() * 2
            })
            .sum()
    }
}

/// The fork for batch entry `qi`: histogram-presized when the caller
/// supplied hints, otherwise the sink's own fallback fork.
#[inline]
fn fork_for<S: MergeableSink>(sinks: &[S], hints: Option<&[usize]>, qi: usize) -> S {
    match hints {
        Some(h) => sinks[qi].fork_sized(h[qi]),
        None => sinks[qi].fork(),
    }
}

/// Spawns helper `j`: it runs lent walks until its job channel closes.
/// A panicking walk must not kill the helper — the owner sees the
/// missing reply as a typed [`PoolError::WorkerDied`], never a crash —
/// so each job is caught at its boundary.
fn spawn_helper(j: usize) -> (Sender<Job>, JoinHandle<()>) {
    let (tx, rx) = unbounded::<Job>();
    let handle = std::thread::Builder::new()
        .name(format!("hint-shard-{j}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
        })
        .expect("spawn shard helper");
    (tx, handle)
}

impl<I: MutableIndex + Send + Sync + 'static> ShardPool<I> {
    /// Inserts an interval into every shard its extent overlaps (clipped
    /// per shard; replicas registered where the start lies in an earlier
    /// shard).
    ///
    /// # Panics
    /// Panics if the interval falls outside the pooled domain — the same
    /// contract as [`ShardedIndex::insert`].
    pub fn insert(&mut self, s: Interval) {
        let (lo, hi) = self.router.route_insert(&s);
        for j in lo..=hi {
            self.shard_mut(j).insert_leg(s);
        }
        self.live += 1;
    }

    /// Deletes an interval from every shard holding a copy, returning
    /// whether it was present. The shard owning the start point
    /// arbitrates presence, as in [`ShardedIndex::delete`].
    pub fn delete(&mut self, s: &Interval) -> bool {
        // out-of-domain intervals were never inserted
        let Some((lo, hi)) = self.router.route_write(s) else {
            return false;
        };
        if !self.shard_mut(lo).delete_leg(s) {
            return false;
        }
        for j in lo + 1..=hi {
            self.shard_mut(j).delete_leg(s);
        }
        self.live -= 1;
        true
    }
}

impl<I: Send + Sync + 'static> Drop for ShardPool<I> {
    fn drop(&mut self) {
        // each helper drops its shard as its last job, so the shards'
        // memory is released in parallel; then close every job channel
        // and join
        for (shard, jobs) in self.shards.drain(..).zip(&self.jobs) {
            let _ = jobs.send(Box::new(move || drop(shard)));
        }
        self.jobs.clear();
        for handle in self.helpers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<I: IntervalIndex + Send + Sync + 'static> IntervalIndex for ShardPool<I> {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        self.query_sink_pooled(q, sink)
    }

    fn seal(&mut self) {
        self.seal_all()
    }

    fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        self.query_batch_inline(queries, sinks)
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes_pooled()
    }

    fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountSink, ExistsSink, FirstK};
    use crate::{Domain, HintMSubs, SubsConfig};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

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
            HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 9), SubsConfig::full())
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
    fn pool_solo_and_batch_match_the_direct_index() {
        for seal in [false, true] {
            for k in [1, 2, 4, 8] {
                let direct = sharded(k, seal);
                let pool = ShardPool::new(direct.clone());
                let queries = batch();
                for &q in &queries {
                    let mut want = Vec::new();
                    direct.query_sink(q, &mut want);
                    let mut got = Vec::new();
                    IntervalIndex::query_sink(&pool, q, &mut got);
                    assert_eq!(got, want, "solo k={k} seal={seal} {q:?}");
                }
                // typed merge path
                let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
                pool.query_batch_merge(&queries, &mut merged);
                for (i, &q) in queries.iter().enumerate() {
                    let mut want = Vec::new();
                    direct.query_sink(q, &mut want);
                    assert_eq!(merged[i], want, "merge k={k} seal={seal} {q:?}");
                }
                // dyn path
                let mut bufs: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
                {
                    let mut sinks: Vec<&mut dyn QuerySink> =
                        bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
                    IntervalIndex::query_batch(&pool, &queries, &mut sinks);
                }
                for (i, &q) in queries.iter().enumerate() {
                    let mut want = Vec::new();
                    direct.query_sink(q, &mut want);
                    assert_eq!(bufs[i], want, "dyn k={k} seal={seal} {q:?}");
                }
            }
        }
    }

    #[test]
    fn pool_counts_and_exists_match() {
        let direct = sharded(4, true);
        let pool = ShardPool::new(direct.clone());
        let queries = batch();
        let mut counts = vec![CountSink::new(); queries.len()];
        pool.query_batch_merge(&queries, &mut counts);
        let mut exists = vec![ExistsSink::new(); queries.len()];
        pool.query_batch_merge(&queries, &mut exists);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(counts[i].count(), direct.count(q), "count {q:?}");
            assert_eq!(exists[i].found(), direct.exists(q), "exists {q:?}");
        }
    }

    #[test]
    fn pool_first_k_is_bit_identical_and_never_over_emits() {
        let direct = sharded(8, true);
        let pool = ShardPool::new(direct.clone());
        let queries = batch();
        for k in [0, 1, 3, 17] {
            let mut sinks: Vec<FirstK> = queries.iter().map(|_| FirstK::new(k)).collect();
            pool.query_batch_merge(&queries, &mut sinks);
            for (i, &q) in queries.iter().enumerate() {
                let mut solo = FirstK::new(k);
                direct.query_sink(q, &mut solo);
                assert!(sinks[i].len() <= k);
                assert_eq!(sinks[i].ids(), solo.ids(), "k={k} {q:?}");
            }
        }
    }

    #[test]
    fn pool_round_trips_through_into_index() {
        let direct = sharded(4, true);
        let pool = ShardPool::new(direct.clone());
        let footprint = pool.size_bytes_pooled();
        assert!(footprint > 0 && footprint <= direct.size_bytes());
        let mut back = pool.into_index();
        assert_eq!(back.shard_count(), 4);
        assert_eq!(back.len(), direct.len());
        let q = RangeQuery::new(100, 9_000);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        direct.query_sink(q, &mut a);
        back.query_sink(q, &mut b);
        assert_eq!(a, b);
        // respawn a second pool from the returned index
        back.insert(Interval::new(700_000, 5, 9));
        let pool2 = ShardPool::new(back);
        assert_eq!(pool2.len(), direct.len() + 1);
        let mut c = Vec::new();
        IntervalIndex::query_sink(&pool2, RangeQuery::new(5, 9), &mut c);
        assert!(c.contains(&700_000));
    }

    #[test]
    fn pool_writes_match_the_direct_index() {
        let mut direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        let bounds = direct.shard_bounds();
        // boundary-crossing insert
        let cross = Interval::new(900_000, bounds[1].1 - 5, bounds[2].0 + 5);
        direct.insert(cross);
        pool.insert(cross);
        // a delete that exists and one that doesn't
        let victim = data()[17];
        assert_eq!(pool.delete(&victim), direct.delete(&victim));
        assert!(!pool.delete(&Interval::new(123_456_789, 1, 2)));
        assert!(!pool.delete(&Interval::new(0, 100_000, 200_000))); // out of domain
        IntervalIndex::seal(&mut direct);
        pool.seal_all();
        assert_eq!(pool.len(), direct.len());
        for &q in &batch() {
            let mut want = Vec::new();
            direct.query_sink(q, &mut want);
            let mut got = Vec::new();
            IntervalIndex::query_sink(&pool, q, &mut got);
            assert_eq!(got, want, "{q:?}");
        }
    }

    #[test]
    fn saturated_first_k_batch_stops_dispatching_to_later_shards() {
        // every query hits the full domain, so it routes to all 4 shards;
        // k=1 saturates at the first shard, and the staged dispatch must
        // not send the remaining 3 sub-queries anywhere
        let pool = ShardPool::new(sharded(4, true));
        let queries: Vec<RangeQuery> = (0..8).map(|_| RangeQuery::new(0, 16_383)).collect();
        let mut sinks: Vec<FirstK> = queries.iter().map(|_| FirstK::new(1)).collect();
        pool.query_batch_merge(&queries, &mut sinks);
        for s in &sinks {
            assert_eq!(s.len(), 1);
        }
        let stats = pool.stats();
        assert_eq!(stats.routed, 8 * 4);
        assert_eq!(stats.dispatched, 8, "only the first shard may be scanned");
        assert_eq!(stats.skipped, 8 * 3, "later shards must be skipped");
    }

    #[test]
    fn mixed_bounded_batch_still_exact() {
        let direct = sharded(4, true);
        let pool = ShardPool::new(direct.clone());
        // exists sinks saturate on first hit; staged dispatch must keep
        // answers exact for queries with no results at all
        let queries = vec![
            RangeQuery::new(0, 16_383),
            RangeQuery::new(16_380, 16_383),
            RangeQuery::new(8_000, 8_001),
        ];
        let mut sinks = vec![ExistsSink::new(); queries.len()];
        pool.query_batch_merge(&queries, &mut sinks);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(sinks[i].found(), direct.exists(q), "{q:?}");
        }
    }

    /// An inner index that panics mid-walk while `armed` is set, and
    /// in its seal while `seal_armed` is: work that dies on its helper
    /// with no caller code involved.
    #[derive(Clone)]
    struct Tripwire {
        inner: HintMSubs,
        armed: Arc<AtomicBool>,
        seal_armed: Arc<AtomicBool>,
    }

    impl IntervalIndex for Tripwire {
        fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
            assert!(!self.armed.load(Ordering::Relaxed), "tripwire");
            self.inner.query_sink(q, sink)
        }
        fn seal(&mut self) {
            assert!(!self.seal_armed.load(Ordering::Relaxed), "seal tripwire");
            self.inner.seal()
        }
        fn size_bytes(&self) -> usize {
            self.inner.size_bytes()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// A collecting sink whose forks panic on emitting any id in
    /// `doomed`: the helper walking those ids dies mid-reply.
    struct DoomedFork {
        ids: Vec<IntervalId>,
        doomed: Arc<HashSet<IntervalId>>,
        is_fork: bool,
    }

    impl QuerySink for DoomedFork {
        fn emit(&mut self, id: IntervalId) {
            assert!(!(self.is_fork && self.doomed.contains(&id)), "doomed id");
            self.ids.push(id);
        }
    }

    impl MergeableSink for DoomedFork {
        fn fork(&self) -> Self {
            Self {
                ids: Vec::new(),
                doomed: Arc::clone(&self.doomed),
                is_fork: true,
            }
        }
        fn merge(&mut self, other: Self) {
            self.ids.extend(other.ids);
        }
    }

    #[test]
    fn worker_panicking_mid_reply_fails_the_batch_with_its_shard() {
        // shard 2's tripwire is the only one ever armed
        let armed = Arc::new(AtomicBool::new(false));
        let mut built = 0;
        let mut direct = ShardedIndex::build_with(&data(), 4, |slice, lo, hi| {
            built += 1;
            Tripwire {
                inner: HintMSubs::build_with_domain(
                    slice,
                    Domain::new(lo, hi, 9),
                    SubsConfig::full(),
                ),
                armed: if built == 3 {
                    Arc::clone(&armed)
                } else {
                    Arc::default()
                },
                seal_armed: Arc::default(),
            }
        });
        IntervalIndex::seal(&mut direct);
        let mut pool = ShardPool::new(direct.clone());
        let queries = batch();
        // fanned merge: intervals lying wholly inside shard 2 are stored
        // only there, so only shard 2's fork trips
        let (lo, hi) = pool.shard_bounds()[2];
        let doomed: Arc<HashSet<IntervalId>> = Arc::new(
            data()
                .iter()
                .filter(|s| s.st >= lo && s.end <= hi)
                .map(|s| s.id)
                .collect(),
        );
        assert!(!doomed.is_empty());
        let mut sinks: Vec<DoomedFork> = queries
            .iter()
            .map(|_| DoomedFork {
                ids: Vec::new(),
                doomed: Arc::clone(&doomed),
                is_fork: false,
            })
            .collect();
        assert_eq!(
            pool.try_query_batch_merge(&queries, &mut sinks),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        // the failed batch returned every loan: writes reach the shards
        pool.seal_all();
        // plain sinks, but shard 2's walk itself panics
        armed.store(true, Ordering::Relaxed);
        let mut bufs: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        assert_eq!(
            pool.try_query_batch_merge(&queries, &mut bufs),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        pool.seal_all();
        // every helper survived: the pool still matches the direct index
        armed.store(false, Ordering::Relaxed);
        let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        pool.query_batch_merge(&queries, &mut merged);
        for (i, &q) in queries.iter().enumerate() {
            let mut want = Vec::new();
            direct.query_sink(q, &mut want);
            assert_eq!(merged[i], want, "{q:?}");
        }
    }

    #[test]
    fn a_panicking_seal_keeps_every_shard_in_the_pool() {
        // shards 1 and 3 trip in their seals
        let seal_armed = Arc::new(AtomicBool::new(true));
        let mut built = 0;
        let direct = ShardedIndex::build_with(&data(), 4, |slice, lo, hi| {
            built += 1;
            Tripwire {
                inner: HintMSubs::build_with_domain(
                    slice,
                    Domain::new(lo, hi, 9),
                    SubsConfig::full(),
                ),
                armed: Arc::default(),
                seal_armed: if built % 2 == 0 {
                    Arc::clone(&seal_armed)
                } else {
                    Arc::default()
                },
            }
        });
        let mut pool = ShardPool::new(direct.clone());
        let failed = catch_unwind(AssertUnwindSafe(|| pool.seal_all()));
        let msg = failed.expect_err("the seal must fail");
        assert_eq!(
            msg.downcast_ref::<String>().unwrap(),
            "shard 1's seal panicked"
        );
        // every shard came back: reads on both routes, a reseal and the
        // final reassembly all still work (the sealed shards emit in
        // their own order, so results compare as sets)
        assert_eq!(pool.shard_count(), 4);
        let sorted = |mut ids: Vec<IntervalId>| {
            ids.sort_unstable();
            ids
        };
        let queries = batch();
        let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        pool.query_batch_merge(&queries, &mut merged);
        for (i, &q) in queries.iter().enumerate() {
            let mut want = Vec::new();
            direct.query_sink(q, &mut want);
            let want = sorted(want);
            assert_eq!(sorted(std::mem::take(&mut merged[i])), want, "{q:?}");
            let mut solo = Vec::new();
            pool.query_sink_pooled(q, &mut solo);
            assert_eq!(sorted(solo), want, "{q:?}");
        }
        seal_armed.store(false, Ordering::Relaxed);
        pool.seal_all();
        assert_eq!(pool.into_index().len(), direct.len());
    }

    #[test]
    fn two_workers_panicking_mid_reply_report_the_lowest_shard() {
        let direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        let queries = batch();
        // ids stored only in shards 1 and 3: both forks die mid-reply
        let bounds = pool.shard_bounds().to_vec();
        let doomed: Arc<HashSet<IntervalId>> = Arc::new(
            data()
                .iter()
                .filter(|s| {
                    [1, 3]
                        .iter()
                        .any(|&j| s.st >= bounds[j].0 && s.end <= bounds[j].1)
                })
                .map(|s| s.id)
                .collect(),
        );
        let mut sinks: Vec<DoomedFork> = queries
            .iter()
            .map(|_| DoomedFork {
                ids: Vec::new(),
                doomed: Arc::clone(&doomed),
                is_fork: false,
            })
            .collect();
        assert_eq!(
            pool.try_query_batch_merge(&queries, &mut sinks),
            Err(PoolError::WorkerDied { shard: 1 })
        );
        pool.seal_all();
        let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        pool.query_batch_merge(&queries, &mut merged);
        for (i, &q) in queries.iter().enumerate() {
            let mut want = Vec::new();
            direct.query_sink(q, &mut want);
            assert_eq!(merged[i], want, "{q:?}");
        }
    }

    #[test]
    fn collect_tagged_sorts_replies_or_names_the_lowest_silent_shard() {
        let (tx, rx) = unbounded();
        for j in [3usize, 0, 2] {
            tx.send((j, j * 10)).unwrap();
        }
        drop(tx);
        assert_eq!(
            ShardPool::<HintMSubs>::collect_tagged(&rx, &[0, 2, 3]),
            Ok(vec![(0, 0), (2, 20), (3, 30)])
        );
        // shards 1 and 4 were dispatched but never replied
        let (tx, rx) = unbounded();
        for j in [3usize, 0] {
            tx.send((j, ())).unwrap();
        }
        drop(tx);
        assert_eq!(
            ShardPool::<HintMSubs>::collect_tagged(&rx, &[0, 1, 3, 4]),
            Err(PoolError::WorkerDied { shard: 1 })
        );
    }

    /// Every read path of `pool` against solo queries on `direct`, with
    /// both sides' ids sorted.
    fn assert_all_read_paths_match(pool: &ShardPool<HintMSubs>, direct: &ShardedIndex<HintMSubs>) {
        let sorted = |mut v: Vec<IntervalId>| {
            v.sort_unstable();
            v
        };
        let queries = batch();
        let mut merged: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        pool.query_batch_merge(&queries, &mut merged);
        let mut counts = vec![CountSink::new(); queries.len()];
        pool.query_batch_merge(&queries, &mut counts);
        let mut bufs: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        {
            let mut sinks: Vec<&mut dyn QuerySink> =
                bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
            IntervalIndex::query_batch(pool, &queries, &mut sinks);
        }
        for (i, &q) in queries.iter().enumerate() {
            let mut want = Vec::new();
            direct.query_sink(q, &mut want);
            let want = sorted(want);
            let mut solo = Vec::new();
            pool.query_sink_pooled(q, &mut solo);
            assert_eq!(sorted(solo), want, "solo {q:?}");
            assert_eq!(sorted(merged[i].clone()), want, "merge {q:?}");
            assert_eq!(sorted(bufs[i].clone()), want, "dyn {q:?}");
            assert_eq!(counts[i].count(), want.len(), "count {q:?}");
        }
    }

    #[test]
    fn writes_are_visible_to_the_next_read_without_a_barrier() {
        let mut direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        let bounds = pool.shard_bounds().to_vec();
        // spans shards 0..=2, so its copies in shards 1 and 2 are
        // replicas
        let cross = Interval::new(910_000, bounds[0].1 - 3, bounds[2].0 + 3);
        direct.insert(cross);
        pool.insert(cross);
        assert_all_read_paths_match(&pool, &direct);
        // a query lying wholly inside shard 2 reads only its replica copy
        let tail = RangeQuery::new(bounds[2].0, bounds[2].0 + 3);
        let mut got = Vec::new();
        pool.query_sink_pooled(tail, &mut got);
        assert!(got.contains(&cross.id), "replica insert invisible");
        assert!(pool.delete(&cross));
        assert!(direct.delete(&cross));
        let mut after = Vec::new();
        pool.query_sink_pooled(tail, &mut after);
        assert!(!after.contains(&cross.id), "replica delete invisible");
        assert_all_read_paths_match(&pool, &direct);
        assert_eq!(pool.len(), direct.len());
    }

    #[test]
    fn reseal_between_writes_keeps_every_read_path_exact() {
        let mut direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        for step in 0..3 {
            let s = Interval::new(920_000 + step as IntervalId, 40 + step as Time, 12_000);
            direct.insert(s);
            pool.insert(s);
            assert_all_read_paths_match(&pool, &direct);
            IntervalIndex::seal(&mut direct);
            pool.seal_all();
            assert_all_read_paths_match(&pool, &direct);
        }
        assert_eq!(pool.len(), direct.len());
    }

    #[test]
    fn seal_all_on_a_clean_pool_changes_no_answer() {
        let direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        for _ in 0..2 {
            pool.seal_all();
            assert_all_read_paths_match(&pool, &direct);
        }
        assert_eq!(pool.len(), direct.len());
        assert_eq!(loans_out(&pool), [0; 4]);
    }

    #[test]
    fn shard_bounds_tile_the_domain() {
        for k in [1, 3, 4, 8] {
            let pool = ShardPool::new(sharded(k, false));
            let bounds = pool.shard_bounds();
            assert_eq!(pool.shard_count(), k);
            assert_eq!(bounds.len(), k);
            assert_eq!(pool.domain(), (bounds[0].0, bounds[k - 1].1), "k={k}");
            for w in bounds.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0, "k={k}: gap or overlap");
            }
            assert!(!pool.is_empty());
            assert_eq!(pool.len(), data().len());
        }
    }

    #[test]
    fn a_repeated_or_absent_delete_leaves_len_alone() {
        let mut direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        let victim = data()[42];
        assert!(pool.delete(&victim));
        assert!(direct.delete(&victim));
        let live = pool.len();
        assert!(!pool.delete(&victim), "already gone");
        // an unknown id at a stored interval's endpoints
        let other = data()[43];
        assert!(!pool.delete(&Interval::new(990_000, other.st, other.end)));
        assert_eq!(pool.len(), live);
        assert_eq!(pool.len(), direct.len());
        assert_all_read_paths_match(&pool, &direct);
    }

    #[test]
    fn unbounded_batches_dispatch_every_routed_entry() {
        let pool = ShardPool::new(sharded(4, true));
        let queries: Vec<RangeQuery> = (0..8).map(|_| RangeQuery::new(0, 16_383)).collect();
        let mut sinks: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        pool.query_batch_merge(&queries, &mut sinks);
        let stats = pool.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.routed, 8 * 4);
        assert_eq!(stats.dispatched, 8 * 4, "fanned dispatch skips nothing");
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.inline, 0, "query_batch_merge always fans out");
        // a solo bounded query walks inline and stops after the first
        // shard
        let mut one = FirstK::new(1);
        pool.query_sink_pooled(RangeQuery::new(0, 16_383), &mut one);
        assert_eq!(one.len(), 1);
        let stats = pool.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.inline, 1);
        assert_eq!(stats.routed, 8 * 4 + 4);
        assert_eq!(stats.dispatched, 8 * 4 + 1);
        assert_eq!(stats.skipped, 3);
    }

    #[test]
    fn inline_batches_count_walks_and_skips_like_the_fan_out() {
        let direct = sharded(4, true);
        let fanned = ShardPool::new(direct.clone());
        let inline = ShardPool::new(direct.clone());
        let queries: Vec<RangeQuery> = (0..8).map(|_| RangeQuery::new(0, 16_383)).collect();
        for k in [1, 5_000] {
            let mut a: Vec<FirstK> = queries.iter().map(|_| FirstK::new(k)).collect();
            let mut b: Vec<FirstK> = queries.iter().map(|_| FirstK::new(k)).collect();
            fanned.query_batch_merge(&queries, &mut a);
            inline.query_batch_inline(&queries, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.ids(), y.ids(), "k={k}");
            }
        }
        let (f, i) = (fanned.stats(), inline.stats());
        assert_eq!((f.batches, f.inline), (2, 0));
        assert_eq!((i.batches, i.inline), (2, 2));
        assert_eq!(i.routed, f.routed);
        // k = 1 walks only the first shard, k = 5,000 every shard
        assert_eq!(i.dispatched, 8 + 8 * 4);
        assert_eq!((i.dispatched, i.skipped), (f.dispatched, f.skipped));
    }

    /// The strong count of every shard: 1 when no loan is out.
    fn loans_out(pool: &ShardPool<HintMSubs>) -> Vec<usize> {
        pool.shards
            .iter()
            .map(|s| Arc::strong_count(s) - 1)
            .collect()
    }

    #[test]
    fn every_loan_is_back_when_a_fan_out_returns() {
        let direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        let queries = batch();
        let mut ok: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        pool.query_batch_merge(&queries, &mut ok);
        assert_eq!(loans_out(&pool), [0; 4]);
        let mut first: Vec<FirstK> = queries.iter().map(|_| FirstK::new(2)).collect();
        pool.query_batch_merge(&queries, &mut first);
        assert_eq!(loans_out(&pool), [0; 4]);
        // shard 2's helper has hung up: its lend fails, and the fan-out
        // still waits for shards 0 and 1 before it reports the failure
        pool.jobs[2] = unbounded().0;
        let mut sinks: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        assert_eq!(
            pool.try_query_batch_merge(&queries, &mut sinks),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        assert_eq!(loans_out(&pool), [0; 4]);
        let mut staged: Vec<FirstK> = queries.iter().map(|_| FirstK::new(5_000)).collect();
        assert_eq!(
            pool.try_query_batch_merge(&queries, &mut staged),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        assert_eq!(loans_out(&pool), [0; 4]);
        // so the writes that follow reach every shard, and the inline
        // routes never needed the helper
        let s = Interval::new(940_000, 10, 16_000);
        pool.insert(s);
        pool.seal_all();
        let mut got = Vec::new();
        pool.query_sink_pooled(RangeQuery::new(0, 16_383), &mut got);
        assert_eq!(got.len(), direct.len() + 1);
        assert!(pool.delete(&s));
        assert_eq!(pool.into_index().len(), direct.len());
    }

    #[test]
    fn clone_index_matches_the_live_pool() {
        let mut pool = ShardPool::new(sharded(4, true));
        pool.insert(Interval::new(650_000, 100, 9_000));
        let cloned = pool.clone_index().unwrap();
        assert_eq!(cloned.shard_count(), 4);
        assert_eq!(cloned.len(), pool.len());
        for &q in &batch() {
            let mut want = Vec::new();
            IntervalIndex::query_sink(&pool, q, &mut want);
            let mut got = Vec::new();
            cloned.query_sink(q, &mut got);
            assert_eq!(got, want, "{q:?}");
        }
        // the clone is independent: mutating it leaves the pool alone
        let live = pool.len();
        let mut cloned = cloned;
        cloned.insert(Interval::new(650_001, 5, 6));
        assert_eq!(pool.len(), live);
    }
}
