//! Timing utilities: build-time and query-throughput measurement in the
//! paper's units (seconds to build, queries/second to search).

use hint_core::{IntervalId, IntervalIndex, MutableIndex, RangeQuery};
use std::time::Instant;

/// Result of a throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Queries per second.
    pub qps: f64,
    /// Total results reported (sanity check between indexes).
    pub results: u64,
}

/// Runs the full query batch against `index` and reports throughput.
/// The result buffer is reused across queries, as in the paper's setup
/// (throughput measurement over 10K random queries).
pub fn query_throughput<I: IntervalIndex + ?Sized>(
    index: &I,
    queries: &[RangeQuery],
) -> Throughput {
    let mut out: Vec<IntervalId> = Vec::with_capacity(1024);
    let mut results = 0u64;
    let t0 = Instant::now();
    for &q in queries {
        out.clear();
        index.query(q, &mut out);
        results += out.len() as u64;
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// Count-only throughput: every query runs through
/// [`IntervalIndex::count`] (a `CountSink`), so no result vector is ever
/// written — the access mode the paper's counting/selectivity figures
/// assume.
pub fn count_throughput<I: IntervalIndex + ?Sized>(
    index: &I,
    queries: &[RangeQuery],
) -> Throughput {
    let mut results = 0u64;
    let t0 = Instant::now();
    for &q in queries {
        results += index.count(q) as u64;
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// Existence-test throughput: every query runs through
/// [`IntervalIndex::exists`] (an `ExistsSink`), terminating each scan at
/// its first hit. `results` counts queries with a non-empty answer.
pub fn exists_throughput<I: IntervalIndex + ?Sized>(
    index: &I,
    queries: &[RangeQuery],
) -> Throughput {
    let mut results = 0u64;
    let t0 = Instant::now();
    for &q in queries {
        results += u64::from(index.exists(q));
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// Batched-query throughput: queries run through
/// [`IntervalIndex::query_batch`] in chunks of `batch`, one collecting
/// sink per query (sinks are reused across chunks). Indexes with sealed
/// or merged storage answer each chunk with one shared level walk.
pub fn batch_throughput<I: IntervalIndex + ?Sized>(
    index: &I,
    queries: &[hint_core::RangeQuery],
    batch: usize,
) -> Throughput {
    use hint_core::QuerySink;
    let batch = batch.max(1);
    let mut bufs: Vec<Vec<IntervalId>> = (0..batch).map(|_| Vec::with_capacity(256)).collect();
    let mut results = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(batch) {
        let bufs = &mut bufs[..chunk.len()];
        for b in bufs.iter_mut() {
            b.clear();
        }
        let mut sinks: Vec<&mut dyn QuerySink> =
            bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
        index.query_batch(chunk, &mut sinks);
        results += bufs.iter().map(|b| b.len() as u64).sum::<u64>();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// Batched counting throughput: like [`batch_throughput`] but with one
/// [`CountSink`](hint_core::CountSink) per query, so no result vector is
/// ever written — the pure cost of the shared level walk.
pub fn batch_count_throughput<I: IntervalIndex + ?Sized>(
    index: &I,
    queries: &[hint_core::RangeQuery],
    batch: usize,
) -> Throughput {
    use hint_core::{CountSink, QuerySink};
    let batch = batch.max(1);
    let mut counts: Vec<CountSink> = vec![CountSink::new(); batch];
    let mut results = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(batch) {
        let counts = &mut counts[..chunk.len()];
        counts.fill(CountSink::new());
        let mut sinks: Vec<&mut dyn QuerySink> =
            counts.iter_mut().map(|c| c as &mut dyn QuerySink).collect();
        index.query_batch(chunk, &mut sinks);
        results += counts.iter().map(|c| c.count() as u64).sum::<u64>();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// The shared batched-enumeration timing loop: drives `queries` through
/// `run(chunk, bufs)` in windows of `batch` collecting-`Vec` sinks
/// (reused across windows), totalling results. Every batched
/// enumeration measurement — inline walk, pool fan-out, a served
/// session — is this loop with a different `run`.
pub fn batched_throughput_with(
    queries: &[RangeQuery],
    batch: usize,
    mut run: impl FnMut(&[RangeQuery], &mut [Vec<IntervalId>]),
) -> Throughput {
    let batch = batch.max(1);
    let mut bufs: Vec<Vec<IntervalId>> = (0..batch).map(|_| Vec::with_capacity(256)).collect();
    let mut results = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(batch) {
        let bufs = &mut bufs[..chunk.len()];
        for b in bufs.iter_mut() {
            b.clear();
        }
        run(chunk, bufs);
        results += bufs.iter().map(|b| b.len() as u64).sum::<u64>();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// Batched-query throughput through `Session::query_batch_inline` with
/// **zero-copy [`HandleSink`](hint_core::HandleSink)s**: the read path
/// as the wire server drives it, each batch walked on the calling
/// thread. Comparison-free runs reach the sinks as arena-slice handles
/// (O(1) per run), and nothing is materialized — the consumer encodes
/// frames straight from the arena slices (`serve`'s `WireSink`). Use [`assert_handle_merge_matches_solo`]
/// to pin the stream's content to the solo path's, id for id.
pub fn merge_handle_throughput<I: MutableIndex + Send + Sync + 'static>(
    session: &hint_core::Session<I>,
    queries: &[RangeQuery],
    batch: usize,
) -> Throughput {
    use hint_core::HandleSink;
    let batch = batch.max(1);
    let mut sinks: Vec<HandleSink> = vec![HandleSink::new(); batch];
    let mut results = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(batch) {
        let sinks = &mut sinks[..chunk.len()];
        for s in sinks.iter_mut() {
            s.clear();
        }
        session.query_batch_inline(chunk, sinks);
        results += sinks.iter().map(|s| s.len() as u64).sum::<u64>();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// Untimed differential for the zero-copy merge path: every query's
/// [`HandleSink`](hint_core::HandleSink) stream answered by `session`,
/// materialized, must be the exact id sequence the solo `query` path of
/// `index` (the index the session was built from) produces. Panics on
/// the first divergence.
pub fn assert_handle_merge_matches_solo<I: MutableIndex + Send + Sync + 'static>(
    session: &hint_core::Session<I>,
    index: &hint_core::ShardedIndex<I>,
    queries: &[RangeQuery],
    batch: usize,
) {
    use hint_core::HandleSink;
    let mut solo: Vec<IntervalId> = Vec::new();
    for chunk in queries.chunks(batch.max(1)) {
        let mut sinks: Vec<HandleSink> = vec![HandleSink::new(); chunk.len()];
        session.query_batch_inline(chunk, &mut sinks);
        for (q, sink) in chunk.iter().zip(sinks) {
            solo.clear();
            index.query(*q, &mut solo);
            assert_eq!(
                sink.into_vec(),
                solo,
                "zero-copy handle merge diverged from solo at {q:?}"
            );
        }
    }
}

/// Count-only throughput through the sharded index's inline typed path:
/// `CountSink`s drained shard by shard, so no result vector is ever
/// written.
pub fn merge_count_throughput<I: IntervalIndex>(
    index: &hint_core::ShardedIndex<I>,
    queries: &[RangeQuery],
    batch: usize,
) -> Throughput {
    use hint_core::CountSink;
    let batch = batch.max(1);
    let mut counts: Vec<CountSink> = vec![CountSink::new(); batch];
    let mut results = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(batch) {
        let counts = &mut counts[..chunk.len()];
        counts.fill(CountSink::new());
        index.query_batch_merge(chunk, counts);
        results += counts.iter().map(|c| c.count() as u64).sum::<u64>();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Throughput {
        qps: queries.len() as f64 / secs,
        results,
    }
}

/// Batched-query throughput through the shard pool's fan-out
/// (`ShardPool::query_batch_merge`): every active shard lent over a
/// channel to its long-lived helper thread with per-shard `Vec` forks,
/// merged back in shard order — zero per-batch thread spawns.
pub fn pool_batch_throughput<I: IntervalIndex + Send + Sync + 'static>(
    pool: &hint_core::ShardPool<I>,
    queries: &[RangeQuery],
    batch: usize,
) -> Throughput {
    batched_throughput_with(queries, batch, |chunk, bufs| {
        pool.query_batch_merge(chunk, bufs)
    })
}

/// Times a closure (e.g. an index build), returning (seconds, value).
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

/// Formats a byte count as MB with two decimals (Table 8 units).
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hint_core::{Hint, Interval};

    #[test]
    fn throughput_counts_results() {
        let data: Vec<Interval> = (0..100)
            .map(|i| Interval::new(i, i * 10, i * 10 + 5))
            .collect();
        let idx = Hint::build(&data, 8);
        let queries = vec![RangeQuery::new(0, 995); 10];
        let t = query_throughput(&idx, &queries);
        assert_eq!(t.results, 1000);
        assert!(t.qps > 0.0);
    }

    #[test]
    fn time_measures_nonnegative() {
        let (secs, v) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
