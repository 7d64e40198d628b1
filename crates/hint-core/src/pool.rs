//! Persistent shard-worker pool: one long-lived thread per shard,
//! optionally pinned to a core, each **owning** its shard outright.
//!
//! [`ShardPool`] is the workspace's one parallel read route: the only
//! code that forks per-shard sinks, runs them on several threads and
//! merges them back. A [`ShardedIndex`] on its own drains a batch shard
//! by shard on the calling thread. [`ShardPool::new`] moves each shard
//! into a dedicated worker thread that lives for the pool's lifetime,
//! and batches are *dispatched* to the workers over channels as boxed
//! task closures — zero per-batch spawns, and every shard's arenas are
//! only ever walked (and mutated) by the one thread that owns them,
//! which keeps them hot in that core's cache. Routing and the per-shard
//! walks and write legs are the same code the index itself runs
//! ([`crate::shard`]). With `HINT_SHARD_PIN=1` each
//! worker additionally pins itself to core `worker_index mod cores`
//! (best-effort via `taskset(1)` on Linux — the crate forbids `unsafe`,
//! so the `sched_setaffinity` syscall is reached through the userland
//! tool; a no-op when unavailable or on other platforms).
//!
//! ## Dispatch strategies
//!
//! * **Unbounded sinks** (collect, count, wire encoders): the routed
//!   sub-batches are dispatched to every active shard at once and the
//!   returned forks are merged on the calling thread in ascending shard
//!   order — bit-identical to the sequential
//!   [`ShardedIndex::query_sink`] loop.
//! * **Bounded sinks** ([`crate::FirstK`], [`crate::ExistsSink`];
//!   [`MergeableSink::is_bounded`]): dispatch is *staged* in shard
//!   order, and a query whose sink is already saturated is not sent to
//!   the remaining shards at all — the saturation signal propagates to
//!   idle workers as "no work", instead of each worker scanning for
//!   results the merge would then discard. [`ShardPool::stats`] counts
//!   the suppressed dispatches.
//!
//! Writes route to the owning workers as mutation tasks (each worker
//! mutates only its own shard; per-worker channel FIFO keeps every
//! write ordered before any later batch), `seal` broadcasts a reseal
//! barrier, and [`ShardPool::retune_shard`] rebuilds one shard at the
//! `m` the §3.3 cost model picks for its observed query-extent mix —
//! on the worker that owns it. [`ShardPool::into_index`] shuts the
//! workers down and reassembles the [`ShardedIndex`].
//!
//! ## One read route
//!
//! Every read — batched, bounded or solo — queues on the worker that
//! owns its shard, behind any earlier write to that shard. A shard is
//! never walked off its owner's thread, so reads need no published copy
//! of the shard and writes need no republication: per-worker FIFO alone
//! gives read-your-writes.

use crate::interval::{Interval, IntervalId, RangeQuery, Time};
use crate::shard::{MutableIndex, Routed, Router, Shard, ShardedIndex};
use crate::sink::{MergeableSink, QuerySink};
use crate::stats::ExtentMix;
use crate::IntervalIndex;
use crossbeam::channel::{unbounded, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A recoverable worker-pool failure, surfaced as a value instead of
/// crashing the process. A serving layer maps this to an error reply on
/// one request; the pool itself stays up (panicking tasks are caught at
/// the task boundary, so the worker keeps its shard and later requests
/// proceed normally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// Shard `shard`'s worker did not complete the request: the task
    /// panicked mid-reply, or the worker thread is gone. State touched
    /// by the failing request (sink contents, a half-routed write) is
    /// unspecified; the shard itself remains owned and serviceable.
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

/// A unit of work dispatched to a shard worker. The closure runs on the
/// worker thread with exclusive access to the shard it owns.
type Task<I> = Box<dyn FnOnce(&mut Shard<I>) + Send + 'static>;

/// One worker: its task channel and join handle. Dropping the sender
/// ends the worker's receive loop; joining returns the shard.
struct Worker<I> {
    tasks: Option<Sender<Task<I>>>,
    handle: Option<JoinHandle<Shard<I>>>,
}

/// Dispatch counters (see [`ShardPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batch dispatches executed (solo queries count as batches of 1).
    pub batches: u64,
    /// `(query, shard)` entries produced by routing.
    pub routed: u64,
    /// Entries actually dispatched to a worker.
    pub dispatched: u64,
    /// Entries suppressed because the query's sink was already
    /// saturated when its shard's turn came (bounded-sink staging).
    pub skipped: u64,
}

#[derive(Default)]
struct PoolCounters {
    batches: AtomicU64,
    routed: AtomicU64,
    dispatched: AtomicU64,
    skipped: AtomicU64,
}

/// True when `HINT_SHARD_PIN=1`: workers pin themselves to cores.
fn pinning_enabled() -> bool {
    crate::env::var_or("HINT_SHARD_PIN", 0u8, "0 or 1", |&v| v <= 1) == 1
}

/// Best-effort core pinning for the calling thread. The crate forbids
/// `unsafe`, so instead of the `sched_setaffinity` syscall this shells
/// out to `taskset(1)` with the thread's own tid (from
/// `/proc/thread-self`); any failure — no procfs, no taskset, denied —
/// leaves the thread unpinned, which is always correct.
#[cfg(target_os = "linux")]
fn pin_current_thread(worker: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let core = worker % cores;
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let Some(tid) = link.file_name().and_then(|s| s.to_str()) else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-pc", &core.to_string(), tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_worker: usize) {}

/// A persistent worker pool over the shards of a [`ShardedIndex`]: the
/// serving-side executor. See the module docs for the dispatch model.
///
/// The pool exposes the same query surface as the index it was built
/// from ([`IntervalIndex`] plus the typed
/// [`query_batch_merge`](Self::query_batch_merge) fast path) with
/// bit-identical results, and the same write surface when the inner
/// index is [`MutableIndex`].
pub struct ShardPool<I> {
    workers: Vec<Worker<I>>,
    /// The routing table mirrored out of the moved shards.
    router: Router,
    /// Live (deduplicated) interval count, maintained by the write path.
    live: usize,
    counters: PoolCounters,
    /// Tasks that panicked on a worker (caught at the task boundary;
    /// the workers survive them). Shared with the worker threads.
    task_panics: Arc<AtomicU64>,
    /// Pooled per-shard routing buffers, reused across batches so steady
    /// dispatch allocates no plan `Vec`s at all. `try_lock` only: a
    /// concurrent batch that loses the race plans into a fresh local
    /// buffer instead of waiting.
    scratch: Mutex<Vec<Vec<Routed>>>,
}

impl<I: IntervalIndex + Send + 'static> ShardPool<I> {
    /// Moves every shard of `index` into its own worker thread. With
    /// `HINT_SHARD_PIN=1`, worker `j` pins itself to core `j mod cores`.
    pub fn new(index: ShardedIndex<I>) -> Self {
        let (shards, live) = index.into_parts();
        let pin = pinning_enabled();
        let router = Router::of(&shards);
        let task_panics = Arc::new(AtomicU64::new(0));
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(j, shard)| Self::spawn_worker(j, shard, pin, Arc::clone(&task_panics)))
            .collect();
        Self {
            workers,
            router,
            live,
            counters: PoolCounters::default(),
            task_panics,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Spawns the owning worker thread for shard `j`.
    fn spawn_worker(j: usize, mut shard: Shard<I>, pin: bool, panics: Arc<AtomicU64>) -> Worker<I> {
        let (tx, rx) = unbounded::<Task<I>>();
        let handle = std::thread::Builder::new()
            .name(format!("hint-shard-{j}"))
            .spawn(move || {
                if pin {
                    pin_current_thread(j);
                }
                while let Ok(task) = rx.recv() {
                    // a panicking task must not kill the worker
                    // (its shard would be lost with it): catch at
                    // the task boundary, count, keep serving. The
                    // caller sees the missing reply as a typed
                    // `PoolError::WorkerDied`, never a crash.
                    if catch_unwind(AssertUnwindSafe(|| task(&mut shard))).is_err() {
                        panics.fetch_add(1, Ordering::Relaxed);
                    }
                }
                shard
            })
            .expect("spawn shard worker");
        Worker {
            tasks: Some(tx),
            handle: Some(handle),
        }
    }

    /// Number of dispatched tasks that panicked on a worker. The workers
    /// catch these at the task boundary and keep serving; a nonzero
    /// count means some request got a [`PoolError`] (or, for
    /// fire-and-forget writes, may not have fully applied).
    pub fn task_panics(&self) -> u64 {
        self.task_panics.load(Ordering::Relaxed)
    }

    /// Test hook: dispatches a task that panics on shard `j`'s worker.
    /// The worker must survive it (the shard stays owned and queryable);
    /// only the poisoned task itself is lost.
    #[doc(hidden)]
    pub fn inject_poison(&self, j: usize) -> Result<(), PoolError> {
        self.try_send(j, Box::new(|_| panic!("injected poisoned task")))
    }

    /// Shuts the workers down (draining any queued tasks) and
    /// reassembles the [`ShardedIndex`]. The inverse of
    /// [`ShardPool::new`]; a new pool can be spun up from the result.
    pub fn into_index(mut self) -> ShardedIndex<I> {
        let shards = self.join_workers();
        ShardedIndex::from_parts(shards, self.live)
    }

    /// Number of shards (= worker threads).
    pub fn shard_count(&self) -> usize {
        self.workers.len()
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
        PoolStats {
            batches: self.counters.batches.load(Ordering::Relaxed),
            routed: self.counters.routed.load(Ordering::Relaxed),
            dispatched: self.counters.dispatched.load(Ordering::Relaxed),
            skipped: self.counters.skipped.load(Ordering::Relaxed),
        }
    }

    /// Sends one task to worker `j`, reporting a dead worker as a typed
    /// error. With panicking tasks caught on the worker, this only fails
    /// if the worker thread itself is gone (shut down, or killed outside
    /// the task boundary).
    fn try_send(&self, j: usize, task: Task<I>) -> Result<(), PoolError> {
        self.workers[j]
            .tasks
            .as_ref()
            .ok_or(PoolError::WorkerDied { shard: j })?
            .send(task)
            .map_err(|_| PoolError::WorkerDied { shard: j })
    }

    /// Sends one task to worker `j`.
    ///
    /// # Panics
    /// Panics if the worker thread died.
    fn send(&self, j: usize, task: Task<I>) {
        self.try_send(j, task).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Drains replies tagged with their shard index from `rx` until the
    /// channel closes, returning them in ascending shard order — or, if
    /// a dispatched shard never replied (its task panicked mid-reply),
    /// the lowest such shard as a [`PoolError`]. Each dispatched shard
    /// sends at most one reply.
    fn collect_tagged<T>(
        rx: &crossbeam::channel::Receiver<(usize, T)>,
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

    /// Drops every task sender and joins the worker threads, collecting
    /// the shards back. Queued tasks still run before a worker exits.
    fn join_workers(&mut self) -> Vec<Shard<I>> {
        let mut shards = Vec::with_capacity(self.workers.len());
        for w in &mut self.workers {
            drop(w.tasks.take());
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                match handle.join() {
                    Ok(shard) => shards.push(shard),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        }
        self.workers.clear();
        shards
    }

    /// Test hook: kills shard `j`'s owning worker outright (closes its
    /// task channel and joins the thread), so the `try_*` dead-worker
    /// paths can be exercised. The shard is lost with the worker; only
    /// `try_*` calls are safe on the pool afterwards.
    #[doc(hidden)]
    pub fn kill_worker(&mut self, j: usize) {
        drop(self.workers[j].tasks.take());
        if let Some(handle) = self.workers[j].handle.take() {
            let _ = handle.join();
        }
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

    /// Evaluates a batch of queries through the worker pool, one
    /// [`MergeableSink`] per query. Bit-identical to solo
    /// [`ShardedIndex::query_sink`] calls at the same index state:
    /// per-shard forks are merged back in ascending shard order on the
    /// calling thread. Bounded sinks are dispatched shard by shard so a
    /// saturated query stops being sent to the remaining shards (see
    /// the module docs).
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths, or if a
    /// worker fails (use [`try_query_batch_merge`](Self::try_query_batch_merge)
    /// to handle that as a value).
    pub fn query_batch_merge<S>(&self, queries: &[RangeQuery], sinks: &mut [S])
    where
        S: MergeableSink + Send + 'static,
    {
        self.query_batch_merge_hinted(queries, sinks, None)
    }

    /// Fallible [`query_batch_merge`](Self::query_batch_merge): a worker
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
    /// different lengths, or if a worker fails.
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
    /// a worker failure surfaces as [`PoolError`] instead of a panic (on
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
            let forked = self.fan_out(plan, |qi| Self::fork_for(sinks, hints, qi))?;
            for (qi, fork) in forked.into_iter().flatten() {
                sinks[qi as usize].merge(fork);
            }
            Ok(())
        })
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

    /// Parallel dispatch: every active shard gets its sub-batch at once,
    /// entry `qi` carrying the fork `fork(qi)`, and the filled forks come
    /// back per shard, in ascending shard order, tagged with their query
    /// positions — the caller merges them in that order. One reply
    /// channel serves the whole batch; workers tag replies with their
    /// shard index and [`collect_tagged`](Self::collect_tagged) restores
    /// shard order.
    fn fan_out<F: QuerySink + Send + 'static>(
        &self,
        plan: &[Vec<Routed>],
        mut fork: impl FnMut(usize) -> F,
    ) -> Result<Vec<Vec<(u32, F)>>, PoolError> {
        let (tx, rx) = unbounded();
        let mut dispatched = Vec::new();
        for (j, sub) in plan.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let job: Vec<(Routed, F)> = sub
                .iter()
                .map(|&entry| (entry, fork(entry.0 as usize)))
                .collect();
            self.counters
                .dispatched
                .fetch_add(job.len() as u64, Ordering::Relaxed);
            let tx = tx.clone();
            self.try_send(
                j,
                Box::new(move |shard| {
                    let _ = tx.send((j, shard.run_forks(job)));
                }),
            )?;
            dispatched.push(j);
        }
        drop(tx);
        Ok(Self::collect_tagged(&rx, &dispatched)?
            .into_iter()
            .map(|(_, forks)| forks)
            .collect())
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
        let (tx, rx) = unbounded();
        for (j, sub) in plan.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let job: Vec<(Routed, S)> = sub
                .iter()
                .filter(|&&(qi, _, _)| !sinks[qi as usize].is_saturated())
                .map(|&entry| (entry, Self::fork_for(sinks, hints, entry.0 as usize)))
                .collect();
            self.counters
                .skipped
                .fetch_add((sub.len() - job.len()) as u64, Ordering::Relaxed);
            if job.is_empty() {
                continue;
            }
            self.counters
                .dispatched
                .fetch_add(job.len() as u64, Ordering::Relaxed);
            let tx = tx.clone();
            self.try_send(
                j,
                Box::new(move |shard| {
                    let _ = tx.send(shard.run_forks(job));
                }),
            )?;
            for (qi, fork) in rx.recv().map_err(|_| PoolError::WorkerDied { shard: j })? {
                sinks[qi as usize].merge(fork);
            }
        }
        Ok(())
    }

    /// Evaluates a batch through trait-level `dyn` sinks: workers
    /// collect into `Vec<IntervalId>` forks, merged back in shard order
    /// via [`QuerySink::emit_slice`] (saturated sinks stop receiving at
    /// the merge).
    fn query_batch_dyn(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        self.try_query_batch_dyn(queries, sinks)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible `dyn`-sink batch evaluation (see
    /// [`IntervalIndex::query_batch`]): a worker failure surfaces as
    /// [`PoolError`] instead of a panic (on `Err` the sink contents are
    /// unspecified).
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn try_query_batch_dyn(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [&mut dyn QuerySink],
    ) -> Result<(), PoolError> {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        if queries.is_empty() {
            return Ok(());
        }
        let forked = self.planned(queries, |plan| {
            self.fan_out(plan, |_| Vec::<IntervalId>::new())
        })?;
        for (qi, ids) in forked.into_iter().flatten() {
            let sink = &mut *sinks[qi as usize];
            if !sink.is_saturated() {
                sink.emit_slice(&ids);
            }
        }
        Ok(())
    }

    /// Solo query: the routed shards are dispatched one at a time in
    /// domain order, stopping as soon as the sink saturates — the same
    /// shard-granular early exit as [`ShardedIndex::query_sink`], with
    /// each shard's scan running on the worker that owns it.
    pub fn query_sink_pooled<S: QuerySink + ?Sized>(&self, q: RangeQuery, sink: &mut S) {
        self.try_query_sink_pooled(q, sink)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`query_sink_pooled`](Self::query_sink_pooled): a worker
    /// failure surfaces as [`PoolError`] instead of a panic (on `Err`
    /// the sink may hold a prefix of the results).
    pub fn try_query_sink_pooled<S: QuerySink + ?Sized>(
        &self,
        q: RangeQuery,
        sink: &mut S,
    ) -> Result<(), PoolError> {
        let (lo, hi) = self.router.route(q);
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .routed
            .fetch_add((hi - lo + 1) as u64, Ordering::Relaxed);
        for j in lo..=hi {
            if sink.is_saturated() {
                self.counters
                    .skipped
                    .fetch_add((hi - j + 1) as u64, Ordering::Relaxed);
                return Ok(());
            }
            self.counters.dispatched.fetch_add(1, Ordering::Relaxed);
            let entry: Routed = (0, self.router.local_query(j, q, lo, hi), j == lo);
            let (tx, rx) = unbounded();
            self.try_send(
                j,
                Box::new(move |shard| {
                    let _ = tx.send(shard.run_forks(vec![(entry, Vec::<IntervalId>::new())]));
                }),
            )?;
            for (_, ids) in rx.recv().map_err(|_| PoolError::WorkerDied { shard: j })? {
                sink.emit_slice(&ids);
            }
        }
        Ok(())
    }

    /// Broadcasts a reseal to every worker and waits for all of them —
    /// a write barrier: every earlier queued write is folded into the
    /// sealed arenas before this returns. Clean shards reseal for free
    /// (the inner indexes' idempotent fast path).
    pub fn seal_all(&self) {
        self.try_seal_all().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`seal_all`](Self::seal_all): a worker failure surfaces
    /// as [`PoolError`] instead of a panic. On `Err`, shards that did
    /// reply are sealed; the failing one may not be.
    pub fn try_seal_all(&self) -> Result<(), PoolError> {
        let (tx, rx) = unbounded();
        let dispatched: Vec<usize> = (0..self.workers.len()).collect();
        for &j in &dispatched {
            let tx = tx.clone();
            self.try_send(
                j,
                Box::new(move |shard| {
                    shard.index.seal();
                    let _ = tx.send((j, ()));
                }),
            )?;
        }
        drop(tx);
        Self::collect_tagged(&rx, &dispatched)?;
        Ok(())
    }

    /// Clones every shard out of its worker and reassembles a
    /// standalone [`ShardedIndex`] — the snapshot path's view of a live
    /// pool. Runs as a task on each owning worker, so per-worker FIFO
    /// makes it a read barrier: every earlier queued write is applied
    /// before its shard is cloned. Cheap for sealed shards: the big id
    /// arenas are `Arc`-shared, not copied.
    pub fn clone_index(&self) -> Result<ShardedIndex<I>, PoolError>
    where
        I: Clone,
    {
        let (tx, rx) = unbounded();
        let dispatched: Vec<usize> = (0..self.workers.len()).collect();
        for &j in &dispatched {
            let tx = tx.clone();
            self.try_send(
                j,
                Box::new(move |shard| {
                    let _ = tx.send((j, shard.clone()));
                }),
            )?;
        }
        drop(tx);
        let shards = Self::collect_tagged(&rx, &dispatched)?
            .into_iter()
            .map(|(_, shard)| shard)
            .collect();
        Ok(ShardedIndex::from_parts(shards, self.live))
    }

    /// Approximate heap footprint: inner indexes plus replica
    /// bookkeeping (computed on the owning workers).
    ///
    /// # Panics
    /// Panics if a worker died — use
    /// [`try_size_bytes_pooled`](Self::try_size_bytes_pooled) to handle
    /// that as a value.
    pub fn size_bytes_pooled(&self) -> usize {
        self.try_size_bytes_pooled()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`size_bytes_pooled`](Self::size_bytes_pooled): a dead
    /// worker surfaces as [`PoolError::WorkerDied`] instead of a panic,
    /// matching the rest of the `try_*` surface.
    pub fn try_size_bytes_pooled(&self) -> Result<usize, PoolError> {
        let (tx, rx) = unbounded();
        let dispatched: Vec<usize> = (0..self.workers.len()).collect();
        for &j in &dispatched {
            let tx = tx.clone();
            self.try_send(
                j,
                Box::new(move |shard| {
                    let _ = tx.send((
                        j,
                        shard.index.size_bytes()
                            + shard.replicas.len() * std::mem::size_of::<IntervalId>() * 2,
                    ));
                }),
            )?;
        }
        drop(tx);
        Ok(Self::collect_tagged(&rx, &dispatched)?
            .into_iter()
            .map(|(_, n)| n)
            .sum())
    }
}

impl<I: MutableIndex + Send + 'static> ShardPool<I> {
    /// Inserts an interval, routing a mutation task to every shard its
    /// extent overlaps (clipped per shard; replicas registered where the
    /// start lies in an earlier shard). Per-worker FIFO orders the write
    /// before any later dispatched batch.
    ///
    /// # Panics
    /// Panics if the interval falls outside the pooled domain — the same
    /// contract as [`ShardedIndex::insert`].
    pub fn insert(&mut self, s: Interval) {
        self.try_insert(s).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`insert`](Self::insert): a dead worker surfaces as
    /// [`PoolError`] instead of a panic. On `Err` the interval may be
    /// stored in a prefix of its overlapping shards (queries routed to
    /// a healthy prefix still behave sanely); the live count is only
    /// bumped on success.
    ///
    /// # Panics
    /// Panics if the interval falls outside the pooled domain — the same
    /// contract as [`ShardedIndex::insert`].
    pub fn try_insert(&mut self, s: Interval) -> Result<(), PoolError> {
        let (lo, hi) = self.router.route_insert(&s);
        // fire-and-forget: per-worker FIFO orders the write before any
        // later read of the same shard
        for j in lo..=hi {
            self.try_send(j, Box::new(move |shard| shard.insert_leg(s)))?;
        }
        self.live += 1;
        Ok(())
    }

    /// Deletes an interval from every shard holding a copy, returning
    /// whether it was present. The shard owning the start point
    /// arbitrates presence (synchronously); replica copies are removed
    /// with fire-and-forget tasks that later operations queue behind.
    pub fn delete(&mut self, s: &Interval) -> bool {
        self.try_delete(s).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`delete`](Self::delete): a worker failure surfaces as
    /// [`PoolError`] instead of a panic. On `Err` it is unspecified
    /// whether the delete applied (the owning shard arbitrates, and its
    /// reply is what went missing); the live count is left untouched.
    pub fn try_delete(&mut self, s: &Interval) -> Result<bool, PoolError> {
        // out-of-domain intervals were never inserted
        let Some((lo, hi)) = self.router.route_write(s) else {
            return Ok(false);
        };
        let s = *s;
        let (tx, rx) = unbounded();
        self.try_send(
            lo,
            Box::new(move |shard| {
                let _ = tx.send(shard.delete_leg(&s));
            }),
        )?;
        if !rx.recv().map_err(|_| PoolError::WorkerDied { shard: lo })? {
            return Ok(false);
        }
        for j in lo + 1..=hi {
            self.try_send(
                j,
                Box::new(move |shard| {
                    shard.delete_leg(&s);
                }),
            )?;
        }
        self.live -= 1;
        Ok(true)
    }

    /// Reseals shard `j` at the `m` the cost model picks for the
    /// observed query-extent `mix`, on the worker that owns the shard.
    /// Returns `Some((old_m, new_m))` when the shard was rebuilt at a
    /// different depth; otherwise the shard is plainly resealed and
    /// `None` is returned (not re-tunable, empty, or already at the
    /// model's choice). Results are bit-identical either way.
    pub fn retune_shard(&self, j: usize, mix: ExtentMix) -> Option<(u32, u32)> {
        self.try_retune_shard(j, mix)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`retune_shard`](Self::retune_shard): a worker failure
    /// surfaces as [`PoolError`] instead of a panic (on `Err` the shard
    /// may be resealed but not retuned — results stay exact either way).
    pub fn try_retune_shard(
        &self,
        j: usize,
        mix: ExtentMix,
    ) -> Result<Option<(u32, u32)>, PoolError> {
        let (tx, rx) = unbounded();
        self.try_send(
            j,
            Box::new(move |shard| {
                let outcome = shard.index.tuned_m().and_then(|from| {
                    let to = shard.index.retune_m(&mix)?;
                    if to == from {
                        return None;
                    }
                    let rebuilt = shard.index.rebuild_with_m(to)?;
                    shard.index = rebuilt; // arrives sealed
                    Some((from, to))
                });
                if outcome.is_none() {
                    shard.index.seal();
                }
                let _ = tx.send(outcome);
            }),
        )?;
        rx.recv().map_err(|_| PoolError::WorkerDied { shard: j })
    }

    /// The hierarchy depth each shard currently runs at (`None` for
    /// non-re-tunable inner indexes).
    pub fn shard_ms(&self) -> Vec<Option<u32>> {
        let mut out = Vec::with_capacity(self.workers.len());
        for j in 0..self.workers.len() {
            let (tx, rx) = unbounded();
            self.send(
                j,
                Box::new(move |shard| {
                    let _ = tx.send(shard.index.tuned_m());
                }),
            );
            out.push(
                rx.recv()
                    .unwrap_or_else(|_| panic!("{}", PoolError::WorkerDied { shard: j })),
            );
        }
        out
    }
}

impl<I> Drop for ShardPool<I> {
    fn drop(&mut self) {
        // close every task channel, then join: queued work drains, the
        // threads exit, and the shards are dropped on their own workers.
        for w in &mut self.workers {
            drop(w.tasks.take());
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                // a worker that panicked already reported; don't double-
                // panic out of drop
                let _ = handle.join();
            }
        }
    }
}

impl<I: IntervalIndex + Send + 'static> IntervalIndex for ShardPool<I> {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        self.query_sink_pooled(q, sink)
    }

    fn seal(&mut self) {
        self.seal_all()
    }

    fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        self.query_batch_dyn(queries, sinks)
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

    #[test]
    fn poisoned_task_does_not_kill_the_worker() {
        let direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        assert_eq!(pool.task_panics(), 0);
        // poison every worker once; the panics are caught at the task
        // boundary, so the workers keep their shards and keep serving
        for j in 0..pool.shard_count() {
            pool.inject_poison(j).unwrap();
        }
        for &q in &batch() {
            let mut want = Vec::new();
            direct.query_sink(q, &mut want);
            let mut got = Vec::new();
            pool.try_query_sink_pooled(q, &mut got).unwrap();
            assert_eq!(got, want, "{q:?}");
        }
        assert_eq!(pool.task_panics(), 4);
        // writes and barriers still work after the poison
        pool.try_insert(Interval::new(800_000, 10, 20)).unwrap();
        pool.try_seal_all().unwrap();
        let mut got = Vec::new();
        pool.try_query_sink_pooled(RangeQuery::new(10, 20), &mut got)
            .unwrap();
        assert!(got.contains(&800_000));
        // and the shards come back out intact
        let back = pool.into_index();
        assert_eq!(back.shard_count(), 4);
        assert_eq!(back.len(), direct.len() + 1);
    }

    #[test]
    fn task_panicking_mid_reply_yields_a_typed_error_not_a_panic() {
        let pool = ShardPool::new(sharded(2, true));
        // a task that panics *before* sending its reply: the fallible
        // paths must report WorkerDied for the right shard
        let (tx, rx) = unbounded::<(usize, ())>();
        pool.try_send(
            1,
            Box::new(move |_| {
                let _ = &tx; // the reply sender dies with the panic
                panic!("injected mid-reply panic");
            }),
        )
        .unwrap();
        drop(rx);
        // the pool is still fully serviceable afterwards
        pool.try_seal_all().unwrap();
        let mut count = CountSink::new();
        pool.try_query_sink_pooled(RangeQuery::new(0, 16_383), &mut count)
            .unwrap();
        assert_eq!(count.count(), pool.len());
        assert_eq!(pool.task_panics(), 1);
    }

    /// An inner index that panics mid-walk while `armed` is set: the
    /// dyn path runs no caller code on the workers, so this is how a
    /// worker dies there between accepting a sub-batch and replying.
    #[derive(Clone)]
    struct Tripwire {
        inner: HintMSubs,
        armed: Arc<AtomicBool>,
    }

    impl IntervalIndex for Tripwire {
        fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
            assert!(!self.armed.load(Ordering::Relaxed), "tripwire");
            self.inner.query_sink(q, sink)
        }
        fn seal(&mut self) {
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
    /// `doomed`: the worker walking those ids dies mid-reply.
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
            }
        });
        IntervalIndex::seal(&mut direct);
        let pool = ShardPool::new(direct.clone());
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
        // a round trip through every worker: each counts its caught
        // panic before it takes its next task
        pool.try_seal_all().unwrap();
        assert_eq!(pool.task_panics(), 1);
        // dyn path: shard 2's walk itself panics
        armed.store(true, Ordering::Relaxed);
        let mut bufs: Vec<Vec<IntervalId>> = queries.iter().map(|_| Vec::new()).collect();
        let mut dyns: Vec<&mut dyn QuerySink> =
            bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
        assert_eq!(
            pool.try_query_batch_dyn(&queries, &mut dyns),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        pool.try_seal_all().unwrap();
        assert_eq!(pool.task_panics(), 2);
        // every worker survived: the pool still matches the direct index
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
    fn two_workers_panicking_mid_reply_report_the_lowest_shard() {
        let direct = sharded(4, true);
        let pool = ShardPool::new(direct.clone());
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
        pool.try_seal_all().unwrap();
        assert_eq!(pool.task_panics(), 2);
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
    /// both sides' ids sorted (a retuned shard may emit in another order).
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
        // replicas written and deleted by fire-and-forget tasks
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
    fn reseal_and_retune_between_writes_keep_every_read_path_exact() {
        let mut direct = sharded(4, true);
        let mut pool = ShardPool::new(direct.clone());
        let stab = ExtentMix::from_extents(&[0; 64]);
        let wide = ExtentMix::from_extents(&[8_000; 64]);
        for (step, mix) in [stab, wide, stab].into_iter().enumerate() {
            let s = Interval::new(920_000 + step as IntervalId, 40 + step as Time, 12_000);
            direct.insert(s);
            pool.insert(s);
            assert_all_read_paths_match(&pool, &direct);
            IntervalIndex::seal(&mut direct);
            pool.seal_all();
            for j in 0..pool.shard_count() {
                pool.retune_shard(j, mix);
            }
            assert_all_read_paths_match(&pool, &direct);
        }
        assert_eq!(pool.len(), direct.len());
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
        // a solo bounded query stops after the first shard
        let mut one = FirstK::new(1);
        pool.query_sink_pooled(RangeQuery::new(0, 16_383), &mut one);
        assert_eq!(one.len(), 1);
        let stats = pool.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.routed, 8 * 4 + 4);
        assert_eq!(stats.dispatched, 8 * 4 + 1);
        assert_eq!(stats.skipped, 3);
    }

    #[test]
    fn writes_to_a_dead_worker_fail_typed_and_keep_the_live_count() {
        let mut pool = ShardPool::new(sharded(4, true));
        let bounds = pool.shard_bounds().to_vec();
        let live = pool.len();
        // insert into the live shard 1 and across into the dead shard 2
        let cross = Interval::new(930_000, bounds[1].1 - 3, bounds[2].0 + 3);
        pool.insert(cross);
        pool.kill_worker(2);
        let inside = Interval::new(930_001, bounds[2].0 + 1, bounds[2].0 + 2);
        assert_eq!(
            pool.try_insert(inside),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        // the owner (shard 1) finds it, then the leg to shard 2 fails
        assert_eq!(
            pool.try_delete(&cross),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        assert_eq!(pool.len(), live + 1);
        assert_eq!(pool.try_seal_all(), Err(PoolError::WorkerDied { shard: 2 }));
        assert_eq!(
            pool.try_retune_shard(2, ExtentMix::from_extents(&[0; 4])),
            Err(PoolError::WorkerDied { shard: 2 })
        );
        // reads routed around the dead shard still succeed
        let mut count = CountSink::new();
        pool.try_query_sink_pooled(RangeQuery::new(0, bounds[1].1), &mut count)
            .unwrap();
        assert!(count.count() > 0);
    }

    #[test]
    fn clone_index_matches_the_live_pool() {
        let mut pool = ShardPool::new(sharded(4, true));
        pool.insert(Interval::new(650_000, 100, 9_000));
        // clone_index is a read barrier: the queued insert lands first
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

    #[test]
    fn try_size_bytes_reports_a_dead_worker_instead_of_panicking() {
        let mut pool = ShardPool::new(sharded(4, true));
        let healthy = pool.try_size_bytes_pooled().unwrap();
        assert!(healthy > 0);
        pool.kill_worker(1);
        assert_eq!(
            pool.try_size_bytes_pooled(),
            Err(PoolError::WorkerDied { shard: 1 })
        );
        // the panicking spelling still panics — but as the typed message
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.size_bytes_pooled()))
            .expect_err("dead worker must fail size_bytes_pooled");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("shard 1"), "got: {msg}");
    }

    #[test]
    fn retune_preserves_results_and_reports_the_move() {
        let direct = sharded(4, true);
        let pool = ShardPool::new(direct.clone());
        // a stab-heavy mix on short-interval data wants a deep hierarchy
        let mix = ExtentMix::from_extents(&[0; 64]);
        let moved = pool.retune_shard(1, mix);
        if let Some((from, to)) = moved {
            assert_ne!(from, to);
        }
        for &q in &batch() {
            let mut want = Vec::new();
            direct.query_sink(q, &mut want);
            let mut got = Vec::new();
            IntervalIndex::query_sink(&pool, q, &mut got);
            let (mut wq, mut gq) = (want.clone(), got.clone());
            wq.sort_unstable();
            gq.sort_unstable();
            assert_eq!(gq, wq, "retuned shard diverged on {q:?}");
        }
    }
}
