//! Differential property tests for the sharded read routes:
//! `ShardedIndex` with any shard count `K` must produce bit-identical
//! result sets to the unsharded index it wraps — across solo
//! `query_sink`, batched `query_batch`, the typed `query_batch_merge`
//! path, count/exists/first-`k` sinks, and insert/delete-then-reseal
//! cycles. The batch tests run every batch twice: through the index's
//! inline walk and through the fork/merge of a `ShardPool` built from
//! it.
//!
//! The shard-count sweep comes from `test_support::shard_counts()`
//! (default `[1, 2, 3, 8]`), which CI pins via `HINT_TEST_SHARDS`.

use hint_suite::hint_core::{
    CountSink, Domain, ExistsSink, FirstK, Hint, HintMSubs, HintOptions, Interval, IntervalId,
    IntervalIndex, MergeableSink, QuerySink, RangeQuery, ResultRun, ScanOracle, ShardPool,
    ShardedIndex, SubsConfig,
};
use proptest::prelude::*;
use test_support::{
    assert_indexes_agree, assert_same_results_named, intervals, queries, shard_counts, sorted,
};

const DOM: u64 = 4_096;

fn sharded_subs(data: &[Interval], k: usize, cfg: SubsConfig) -> ShardedIndex<HintMSubs> {
    ShardedIndex::build_with_domain(data, 0, DOM - 1, k, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 9), cfg)
    })
}

fn sharded_hint(data: &[Interval], k: usize) -> ShardedIndex<Hint> {
    ShardedIndex::build_with_domain(data, 0, DOM - 1, k, |slice, lo, hi| {
        Hint::build_with_domain(slice, Domain::new(lo, hi, 9), HintOptions::default())
    })
}

/// The two batch routes over one sharded index: the index's own inline
/// walk, and the fork/merge of a `ShardPool` built from a clone of it.
enum Route<'a> {
    Inline(&'a ShardedIndex<HintMSubs>),
    Pool(&'a ShardPool<HintMSubs>),
}

impl Route<'_> {
    fn query_batch_merge<S: MergeableSink + Send + 'static>(
        &self,
        qs: &[RangeQuery],
        sinks: &mut [S],
    ) {
        match self {
            Route::Inline(idx) => idx.query_batch_merge(qs, sinks),
            Route::Pool(pool) => pool.query_batch_merge(qs, sinks),
        }
    }

    fn query_batch(&self, qs: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        match self {
            Route::Inline(idx) => idx.query_batch(qs, sinks),
            Route::Pool(pool) => IntervalIndex::query_batch(*pool, qs, sinks),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // sharded(K) == unsharded == oracle, unsealed and sealed, for the
    // update-friendly HINT^m variant the serving layer wraps
    #[test]
    fn sharded_subs_matches_unsharded_for_every_k(
        data in intervals(DOM),
        qs in queries(DOM, 12),
        seal in any::<bool>(),
    ) {
        let oracle = ScanOracle::new(&data);
        let mut unsharded = HintMSubs::build_with_domain(
            &data, Domain::new(0, DOM - 1, 9), SubsConfig::full());
        if seal {
            unsharded.seal();
        }
        for k in shard_counts() {
            let mut sharded = sharded_subs(&data, k, SubsConfig::full());
            if seal {
                IntervalIndex::seal(&mut sharded);
            }
            assert_same_results_named("sharded-subs", &sharded, &oracle, &qs)?;
            assert_indexes_agree("sharded-vs-unsharded", &sharded, &unsharded, &qs)?;
        }
    }

    // same property around the flagship fully-optimized index
    #[test]
    fn sharded_hint_matches_unsharded_for_every_k(
        data in intervals(DOM),
        qs in queries(DOM, 10),
    ) {
        let unsharded = Hint::build_with_domain(
            &data, Domain::new(0, DOM - 1, 9), HintOptions::default());
        for k in shard_counts() {
            let sharded = sharded_hint(&data, k);
            assert_indexes_agree("sharded-hint", &sharded, &unsharded, &qs)?;
        }
    }

    // the typed MergeableSink path: collect / count / exists / first-k
    // forks merged across the shard boundary must match the solo answers
    #[test]
    fn batch_merge_path_matches_solo_for_every_sink(
        data in intervals(DOM),
        qs in queries(DOM, 12),
        k in 0usize..10,
    ) {
        for shards in shard_counts() {
            let mut idx = sharded_subs(&data, shards, SubsConfig::full());
            IntervalIndex::seal(&mut idx);
            let pool = ShardPool::new(idx.clone());
            for route in [Route::Inline(&idx), Route::Pool(&pool)] {
                let mut collects: Vec<Vec<IntervalId>> = qs.iter().map(|_| Vec::new()).collect();
                route.query_batch_merge(&qs, &mut collects);
                let mut counts = vec![CountSink::new(); qs.len()];
                route.query_batch_merge(&qs, &mut counts);
                let mut exists = vec![ExistsSink::new(); qs.len()];
                route.query_batch_merge(&qs, &mut exists);
                let mut firsts: Vec<FirstK> = qs.iter().map(|_| FirstK::new(k)).collect();
                route.query_batch_merge(&qs, &mut firsts);

                for (i, &q) in qs.iter().enumerate() {
                    let mut solo = Vec::new();
                    idx.query_sink(q, &mut solo);
                    prop_assert_eq!(
                        &collects[i], &solo,
                        "K={} collect merge != solo on {:?}", shards, q
                    );
                    prop_assert_eq!(counts[i].count(), solo.len(), "K={} count on {:?}", shards, q);
                    prop_assert_eq!(exists[i].found(), !solo.is_empty(), "K={} exists on {:?}", shards, q);
                    let mut solo_k = FirstK::new(k);
                    idx.query_sink(q, &mut solo_k);
                    prop_assert!(
                        firsts[i].len() <= k,
                        "K={} FirstK over-emitted across the merge boundary on {:?}", shards, q
                    );
                    prop_assert_eq!(
                        firsts[i].ids(), solo_k.ids(),
                        "K={} FirstK merge != solo on {:?}", shards, q
                    );
                }
            }
        }
    }

    // insert/delete-then-reseal cycles: the sharded index routes writes
    // to owning shards and stays exact through overlay and reseal states
    #[test]
    fn update_and_reseal_cycles_match_oracle_for_every_k(
        data in intervals(DOM),
        ops in prop::collection::vec((any::<bool>(), 0u64..DOM, 0u64..256), 1..32),
        qs in queries(DOM, 8),
    ) {
        for k in shard_counts() {
            let mut sharded = sharded_subs(&data, k, SubsConfig::update_friendly());
            let mut oracle = ScanOracle::new(&data);
            let mut live: Vec<Interval> = data.clone();
            let mut next_id = 700_000u64;
            IntervalIndex::seal(&mut sharded);
            for (i, &(is_insert, st, len)) in ops.iter().enumerate() {
                if is_insert || live.is_empty() {
                    let s = Interval::new(next_id, st, (st + len).min(DOM - 1));
                    next_id += 1;
                    sharded.insert(s);
                    oracle.insert(s);
                    live.push(s);
                } else {
                    let victim = live.swap_remove((st as usize) % live.len());
                    prop_assert_eq!(
                        sharded.delete(&victim),
                        oracle.delete(victim.id),
                        "K={} delete {:?}", k, victim
                    );
                }
                if i == ops.len() / 2 {
                    // mid-stream reseal: merge overlays into the arenas
                    IntervalIndex::seal(&mut sharded);
                }
            }
            assert_same_results_named("sharded overlay", &sharded, &oracle, &qs)?;
            IntervalIndex::seal(&mut sharded);
            assert_same_results_named("sharded resealed", &sharded, &oracle, &qs)?;
            prop_assert_eq!(sharded.len(), oracle.len(), "K={} live count", k);
        }
    }
}

/// Deterministic saturation check at the merge boundary: a query whose
/// results live in many shards, answered with `FirstK`, must never
/// receive more than `k` ids — on the dyn `query_batch` path *and* the
/// typed `query_batch_merge` path, inline and through the pool.
#[test]
fn first_k_never_over_emits_across_the_merge_boundary() {
    // 800 intervals spread evenly, so every one of the 8 shards owns ~100
    // results for the full-domain query below
    let data: Vec<Interval> = (0..800)
        .map(|i| Interval::new(i, i * 5, i * 5 + 3))
        .collect();
    let idx = {
        let mut idx = ShardedIndex::build_with(&data, 8, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 8), SubsConfig::full())
        });
        IntervalIndex::seal(&mut idx);
        idx
    };
    assert_eq!(idx.shard_count(), 8);
    let q = RangeQuery::new(0, 4_003); // selects everything
    let full = idx.count(q);
    assert_eq!(full, 800);
    let pool = ShardPool::new(idx.clone());
    for route in [Route::Inline(&idx), Route::Pool(&pool)] {
        for k in [0usize, 1, 7, 100, 799, 800, 1_000] {
            // dyn path: drained inline, or per-shard `Vec` forks merged
            // through emit_slice on the pool
            let queries = [q, q];
            let mut a = FirstK::new(k);
            let mut b = FirstK::new(k);
            {
                let mut sinks: Vec<&mut dyn QuerySink> = vec![&mut a, &mut b];
                route.query_batch(&queries, &mut sinks);
            }
            // typed path: saturation-aware MergeableSink::merge
            let mut m = vec![FirstK::new(k), FirstK::new(k)];
            route.query_batch_merge(&queries, &mut m);
            for sink in [&a, &b, &m[0], &m[1]] {
                assert!(
                    sink.len() <= k,
                    "FirstK({k}) over-emitted: {} results crossed the merge boundary",
                    sink.len()
                );
                assert_eq!(sink.len(), k.min(full), "FirstK({k}) under-filled");
            }
            // every retained id is a real result
            let want = {
                let mut v = Vec::new();
                idx.query(q, &mut v);
                sorted(v)
            };
            for sink in [&a, &m[0]] {
                for id in sink.ids() {
                    assert!(
                        want.binary_search(id).is_ok(),
                        "FirstK({k}) emitted fake id {id}"
                    );
                }
            }
        }
    }
}

/// The zero-copy read path, end to end: a `HandleSink` receives
/// comparison-free runs as slice handles into the sealed arenas, and the
/// merged handles of a sharded(K) batch must materialize to exactly the
/// solo (and unsharded) results — for K in {1, 2, 4, 8} and alongside
/// the count / exists / first-k sinks on the same batch.
#[test]
fn zero_copy_handle_merge_matches_solo_for_k_1_2_4_8() {
    let data: Vec<Interval> = (0..2_000)
        .map(|i| {
            let st = (i * 53) % (DOM - 96);
            Interval::new(i, st, (st + (i % 13) * 40).min(DOM - 1))
        })
        .collect();
    let qs: Vec<RangeQuery> = (0..48)
        .map(|i| {
            let st = (i * 157) % (DOM - 1);
            RangeQuery::new(st, (st + 30 + (i % 7) * 250).min(DOM - 1))
        })
        .collect();
    let mut unsharded =
        HintMSubs::build_with_domain(&data, Domain::new(0, DOM - 1, 9), SubsConfig::full());
    unsharded.seal();
    for k in [1usize, 2, 4, 8] {
        let mut idx = sharded_subs(&data, k, SubsConfig::full());
        IntervalIndex::seal(&mut idx);
        let pool = ShardPool::new(idx.clone());
        for route in [Route::Inline(&idx), Route::Pool(&pool)] {
            let mut handles: Vec<hint_suite::hint_core::HandleSink> = qs
                .iter()
                .map(|_| hint_suite::hint_core::HandleSink::new())
                .collect();
            route.query_batch_merge(&qs, &mut handles);
            if k == 1 {
                // Guard against the test going vacuous: arena offers are
                // length-gated (`ARENA_HANDLE_MIN`), so sparse data could
                // silently stop exercising the zero-copy path. At K=1 no
                // replica filter can suppress handles — at least one
                // comparison-free run must cross the boundary un-copied.
                assert!(
                    handles
                        .iter_mut()
                        .any(|s| s.runs().iter().any(|r| matches!(r, ResultRun::Arena(_)))),
                    "no arena handle crossed the merge boundary — densify the test data"
                );
            }
            let mut counts = vec![CountSink::new(); qs.len()];
            route.query_batch_merge(&qs, &mut counts);
            let mut exists = vec![ExistsSink::new(); qs.len()];
            route.query_batch_merge(&qs, &mut exists);
            let mut firsts: Vec<FirstK> = qs.iter().map(|_| FirstK::new(5)).collect();
            route.query_batch_merge(&qs, &mut firsts);

            for (i, (&q, sink)) in qs.iter().zip(handles).enumerate() {
                let mut solo = Vec::new();
                idx.query_sink(q, &mut solo);
                assert_eq!(
                    sink.len(),
                    solo.len(),
                    "K={k}: handle count != solo on {q:?}"
                );
                let got = sink.into_vec();
                assert_eq!(got, solo, "K={k}: handle merge != solo on {q:?}");
                let mut reference = Vec::new();
                unsharded.query_sink(q, &mut reference);
                assert_eq!(
                    sorted(got),
                    sorted(reference),
                    "K={k}: handle merge != unsharded on {q:?}"
                );
                assert_eq!(counts[i].count(), solo.len(), "K={k}: count on {q:?}");
                assert_eq!(
                    exists[i].found(),
                    !solo.is_empty(),
                    "K={k}: exists on {q:?}"
                );
                let mut solo_k = FirstK::new(5);
                idx.query_sink(q, &mut solo_k);
                assert_eq!(firsts[i].ids(), solo_k.ids(), "K={k}: first-k on {q:?}");
            }
        }
    }
}

/// The aggregation sinks behind the serving layer's top-k and histogram
/// verbs: forks merged across a sharded(K) batch must reproduce the
/// solo answers exactly — order included — for K in {1, 2, 4, 8}.
#[test]
fn top_k_and_histogram_merge_match_solo_for_k_1_2_4_8() {
    use hint_suite::hint_core::{BucketHistogram, TopKByDuration};
    use std::collections::HashMap;
    use std::sync::Arc;

    let data: Vec<Interval> = (0..1_500)
        .map(|i| {
            let st = (i * 97) % (DOM - 512);
            Interval::new(i, st, (st + (i * 31) % 509).min(DOM - 1))
        })
        .collect();
    let lookup: Arc<HashMap<u64, Interval>> = Arc::new(data.iter().map(|s| (s.id, *s)).collect());
    let qs: Vec<RangeQuery> = (0..24)
        .map(|i| {
            let st = (i * 311) % (DOM - 700);
            RangeQuery::new(st, st + 64 + (i % 5) * 160)
        })
        .collect();
    for k in [1usize, 2, 4, 8] {
        let mut idx = sharded_subs(&data, k, SubsConfig::full());
        IntervalIndex::seal(&mut idx);
        let pool = ShardPool::new(idx.clone());
        for route in [Route::Inline(&idx), Route::Pool(&pool)] {
            let mut tops: Vec<TopKByDuration<_>> = qs
                .iter()
                .map(|_| TopKByDuration::new(7, Arc::clone(&lookup)))
                .collect();
            route.query_batch_merge(&qs, &mut tops);
            let mut hists: Vec<BucketHistogram<_>> = qs
                .iter()
                .map(|q| {
                    let buckets = ((q.end - q.st) / 50 + 1) as usize;
                    BucketHistogram::new(q.st, 50, buckets, Arc::clone(&lookup))
                })
                .collect();
            route.query_batch_merge(&qs, &mut hists);

            for ((&q, top), hist) in qs.iter().zip(tops).zip(hists) {
                let mut solo_top = TopKByDuration::new(7, Arc::clone(&lookup));
                idx.query_sink(q, &mut solo_top);
                assert_eq!(
                    top.into_ids(),
                    solo_top.into_ids(),
                    "K={k}: top-k merge != solo on {q:?}"
                );
                let buckets = ((q.end - q.st) / 50 + 1) as usize;
                let mut solo_hist = BucketHistogram::new(q.st, 50, buckets, Arc::clone(&lookup));
                idx.query_sink(q, &mut solo_hist);
                assert_eq!(
                    hist.into_counts(),
                    solo_hist.into_counts(),
                    "K={k}: histogram merge != solo on {q:?}"
                );
            }
        }
    }
}

/// Shard bookkeeping stays consistent through boundary-crossing writes.
#[test]
fn replica_accounting_survives_update_cycles() {
    let data: Vec<Interval> = (0..400)
        .map(|i| {
            Interval::new(
                i,
                (i * 11) % 3_900,
                ((i * 11) % 3_900 + i % 200).min(DOM - 1),
            )
        })
        .collect();
    let mut idx = sharded_subs(&data, 4, SubsConfig::update_friendly());
    let before = idx.replicated();
    // insert a monster interval crossing every shard...
    let monster = Interval::new(555_555, 0, DOM - 1);
    idx.insert(monster);
    assert_eq!(idx.replicated(), before + 3, "replica in each later shard");
    // ...and delete it again
    assert!(idx.delete(&monster));
    assert!(!idx.delete(&monster), "double delete must miss");
    assert_eq!(idx.replicated(), before);
    assert_eq!(idx.len(), data.len());
}
