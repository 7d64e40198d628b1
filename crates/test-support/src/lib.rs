//! Shared differential-test harness for the workspace.
//!
//! Every index in the workspace is validated the same way: build it next
//! to a [`ScanOracle`] over the same data and check that both answer
//! every query identically, in every access mode. Before this crate, the
//! oracle-comparison loop was duplicated across the workspace test files
//! and the per-crate proptest suites; they all now share:
//!
//! * [`assert_same_results`] — the differential check: enumerate (sorted,
//!   duplicate-free, tombstone-free), count and exists against the
//!   oracle, for a batch of queries;
//! * [`assert_indexes_agree`] — index-vs-index differential (e.g. a
//!   [`ShardedIndex`](hint_core::ShardedIndex) against its unsharded
//!   twin), covering solo sinks, batched execution, count/exists and
//!   first-`k`;
//! * [`intervals`] / [`queries`] — the standard proptest strategies for
//!   interval collections and range queries;
//! * [`fuzz`] — deterministic seeded workload generation, so any RNG
//!   seed that ever produced a failure can be replayed forever as a
//!   named regression test (see `tests/regressions.rs`);
//! * [`shard_counts`] — the shard-count sweep for sharded differential
//!   tests, overridable via the `HINT_TEST_SHARDS` environment variable
//!   (comma-separated, e.g. `HINT_TEST_SHARDS=1,4`) so CI can pin it.
//!
//! The assertion helpers return `Result<(), TestCaseError>` so they
//! compose with `?` inside [`proptest::proptest!`] bodies, and panic via
//! [`expect_same_results`] for plain `#[test]`s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hint_core::{
    CollectSink, FirstK, Interval, IntervalId, IntervalIndex, QuerySink, RangeQuery, ScanOracle,
    TOMBSTONE,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Sorts a result vector (enumeration order is index-specific; result
/// *sets* are what differential tests compare).
pub fn sorted(mut v: Vec<IntervalId>) -> Vec<IntervalId> {
    v.sort_unstable();
    v
}

/// Strategy: a collection of `1..max_count` intervals with endpoints
/// drawn from `[0, max_val)`, ids `0..len`.
pub fn intervals_up_to(max_val: u64, max_count: usize) -> impl Strategy<Value = Vec<Interval>> {
    prop::collection::vec((0..max_val, 0..max_val), 1..max_count).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| Interval::new(i as u64, a.min(b), a.max(b)))
            .collect()
    })
}

/// The workspace-standard interval collection strategy (up to 120
/// intervals over `[0, max_val)`).
pub fn intervals(max_val: u64) -> impl Strategy<Value = Vec<Interval>> {
    intervals_up_to(max_val, 120)
}

/// Strategy: one range query with endpoints drawn from `[0, max_val)`.
pub fn query(max_val: u64) -> impl Strategy<Value = RangeQuery> {
    (0..max_val, 0..max_val).prop_map(|(a, b)| RangeQuery::new(a.min(b), a.max(b)))
}

/// Strategy: a batch of `1..max_count` range queries over `[0, max_val)`.
pub fn queries(max_val: u64, max_count: usize) -> impl Strategy<Value = Vec<RangeQuery>> {
    prop::collection::vec((0..max_val, 0..max_val), 1..max_count).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(a, b)| RangeQuery::new(a.min(b), a.max(b)))
            .collect()
    })
}

/// The enumeration an index reports for `q`, via the sink path.
fn enumerate<I: IntervalIndex + ?Sized>(index: &I, q: RangeQuery) -> Vec<IntervalId> {
    let mut out = Vec::new();
    index.query_sink(q, &mut out);
    out
}

/// The differential check, named variant: for every query, `index` must
/// report exactly the oracle's result set (duplicate-free and
/// tombstone-free), the same count, and the same existence answer.
/// `name` labels failures when one test sweeps several index variants.
pub fn assert_same_results_named<I: IntervalIndex + ?Sized>(
    name: &str,
    index: &I,
    oracle: &ScanOracle,
    queries: &[RangeQuery],
) -> Result<(), TestCaseError> {
    for &q in queries {
        let got = enumerate(index, q);
        prop_assert!(
            !got.contains(&TOMBSTONE),
            "{name}: emitted a tombstone on {q:?}"
        );
        let n = got.len();
        let got = sorted(got);
        let mut deduped = got.clone();
        deduped.dedup();
        prop_assert_eq!(n, deduped.len(), "{} emitted duplicates on {:?}", name, q);
        let want = oracle.query_sorted(q);
        prop_assert_eq!(&got, &want, "{} enumerate vs oracle on {:?}", name, q);
        prop_assert_eq!(
            index.count(q),
            want.len(),
            "{} count vs oracle on {:?}",
            name,
            q
        );
        prop_assert_eq!(
            index.exists(q),
            !want.is_empty(),
            "{} exists vs oracle on {:?}",
            name,
            q
        );
    }
    Ok(())
}

/// The differential check: `index` must agree with `oracle` on every
/// query, in every access mode (enumerate / count / exists). See
/// [`assert_same_results_named`] to label the index variant.
pub fn assert_same_results<I: IntervalIndex + ?Sized>(
    index: &I,
    oracle: &ScanOracle,
    queries: &[RangeQuery],
) -> Result<(), TestCaseError> {
    assert_same_results_named("index", index, oracle, queries)
}

/// Panicking wrapper around [`assert_same_results_named`] for plain
/// `#[test]`s (outside `proptest!` bodies).
pub fn expect_same_results<I: IntervalIndex + ?Sized>(
    name: &str,
    index: &I,
    oracle: &ScanOracle,
    queries: &[RangeQuery],
) {
    if let Err(e) = assert_same_results_named(name, index, oracle, queries) {
        panic!("differential check failed: {e:?}");
    }
}

/// Index-vs-index differential: `a` and `b` must report the same result
/// *sets*, counts and existence answers for every query, both solo and
/// through `query_batch`, and their first-`k` answers must be valid
/// prefixes of the shared result set (`min(k, |result|)` real results,
/// never more than `k`). This is the bit-identical-results check behind
/// the sharded-vs-unsharded property tests, where emission *order* is
/// allowed to differ but result sets are not.
pub fn assert_indexes_agree<A, B>(
    name: &str,
    a: &A,
    b: &B,
    queries: &[RangeQuery],
) -> Result<(), TestCaseError>
where
    A: IntervalIndex + ?Sized,
    B: IntervalIndex + ?Sized,
{
    // the shared truth: both sides' solo enumerations as sorted sets
    let mut want_sets = Vec::with_capacity(queries.len());
    for &q in queries {
        let wa = sorted(enumerate(a, q));
        let wb = sorted(enumerate(b, q));
        prop_assert_eq!(&wa, &wb, "{} solo enumerate on {:?}", name, q);
        want_sets.push(wa);
    }
    check_modes(name, "a", a, queries, &want_sets)?;
    check_modes(name, "b", b, queries, &want_sets)
}

/// Checks one index's count / exists / first-`k` / batched answers
/// against the per-query result sets established by the solo comparison.
fn check_modes<I: IntervalIndex + ?Sized>(
    name: &str,
    side: &str,
    idx: &I,
    queries: &[RangeQuery],
    want_sets: &[Vec<IntervalId>],
) -> Result<(), TestCaseError> {
    for (&q, want) in queries.iter().zip(want_sets) {
        prop_assert_eq!(
            idx.count(q),
            want.len(),
            "{} {}.count on {:?}",
            name,
            side,
            q
        );
        prop_assert_eq!(
            idx.exists(q),
            !want.is_empty(),
            "{} {}.exists on {:?}",
            name,
            side,
            q
        );
        for k in [0, 1, 3] {
            let mut sink = FirstK::new(k);
            idx.query_sink(q, &mut sink);
            prop_assert_eq!(
                sink.len(),
                k.min(want.len()),
                "{} {}.first_k({}) size on {:?}",
                name,
                side,
                k,
                q
            );
            for id in sink.ids() {
                prop_assert!(
                    want.binary_search(id).is_ok(),
                    "{name}: {side}.first_k({k}) emitted non-result {id} on {q:?}"
                );
            }
        }
    }
    // batched execution must match the solo result sets
    let mut bufs: Vec<CollectSink> = queries.iter().map(|_| CollectSink::new()).collect();
    {
        let mut sinks: Vec<&mut dyn QuerySink> =
            bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
        idx.query_batch(queries, &mut sinks);
    }
    for ((buf, want), q) in bufs.into_iter().zip(want_sets).zip(queries) {
        prop_assert_eq!(
            &sorted(buf.into_vec()),
            want,
            "{} {}.query_batch on {:?}",
            name,
            side,
            q
        );
    }
    Ok(())
}

/// The shard counts the sharded differential tests sweep. Defaults to
/// `[1, 2, 3, 8]`; CI pins it via `HINT_TEST_SHARDS` (comma-separated).
pub fn shard_counts() -> Vec<usize> {
    match std::env::var("HINT_TEST_SHARDS") {
        Ok(raw) => {
            let counts: Vec<usize> = raw
                .split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .filter(|&k| k >= 1)
                .collect();
            assert!(
                !counts.is_empty(),
                "HINT_TEST_SHARDS={raw:?} contains no valid shard counts"
            );
            counts
        }
        Err(_) => vec![1, 2, 3, 8],
    }
}

pub mod lifecycle {
    //! The seeded stateful lifecycle driver shared by `tests/lifecycle.rs`
    //! (the fuzz seed matrix) and `tests/regressions.rs` (failing seeds,
    //! replayed forever): a long random interleaving of insert / delete /
    //! seal / query (solo, batched, merged, bounded sinks)
    //! driven through a pooled [`Session`] against the `ScanOracle` twin,
    //! across the [`super::shard_counts`] sweep.

    use super::{expect_same_results, fuzz, shard_counts};
    use hint_core::{
        CountSink, Domain, ExistsSink, FirstK, HandleSink, HintMSubs, Interval, IntervalId,
        IntervalIndex, QuerySink, RangeQuery, ScanOracle, Session, ShardedIndex, SubsConfig,
    };

    /// A point-in-time pair: snapshot bytes and the live set they
    /// captured, for rolling the oracle twin back on a Restore step.
    type SnapPoint = (Vec<u8>, Vec<Interval>);

    /// Domain of the generated workloads.
    pub const DOM: u64 = 4_096;

    fn build_sharded(data: &[Interval], k: usize) -> ShardedIndex<HintMSubs> {
        ShardedIndex::build_with_domain(data, 0, DOM - 1, k, |slice, lo, hi| {
            HintMSubs::build_with_domain(
                slice,
                Domain::new(lo, hi, 9),
                SubsConfig::update_friendly(),
            )
        })
    }

    /// Sorted result set of one solo query through the session.
    fn session_sorted(session: &Session<HintMSubs>, q: RangeQuery) -> Vec<IntervalId> {
        let mut got: Vec<IntervalId> = Vec::new();
        session.query_sink(q, &mut got);
        got.sort_unstable();
        got
    }

    /// Replays one lifecycle seed: 60 random steps, each differentially
    /// checked, then a final reseal and the full differential battery.
    /// Steps include in-memory snapshot/restore, so save interleaves
    /// with insert / delete / seal and restore rolls both the engine and
    /// the oracle twin back to the snapshot point. Panics on divergence.
    pub fn replay(seed: u64) {
        let w = fuzz::workload(seed, DOM, 140, 16, 0);
        for k in shard_counts() {
            let mut session = Session::new(build_sharded(&w.data, k));
            let mut oracle = ScanOracle::new(&w.data);
            let mut live = w.data.clone();
            let mut rng = fuzz::Rng::new(seed ^ 0x11f3_c1c1);
            let mut next_id = 500_000u64;
            let mut snap: Option<SnapPoint> = None;
            for step in 0..60 {
                let ctx = |what: &str| format!("seed {seed:#x} K={k} step {step}: {what}");
                match rng.below(15) {
                    0..=2 => {
                        // insert (sometimes deliberately out of domain)
                        let st = rng.below(DOM + 64);
                        let end = (st + rng.below(DOM / 8 + 1)).min(DOM + 128);
                        let s = Interval::new(next_id, st, end);
                        next_id += 1;
                        let r = session.try_insert(s);
                        if st < DOM && end < DOM {
                            assert!(r.is_ok(), "{}", ctx("in-domain insert refused"));
                            oracle.insert(s);
                            live.push(s);
                        } else {
                            assert!(r.is_err(), "{}", ctx("out-of-domain insert accepted"));
                        }
                    }
                    3..=4 => {
                        // delete a live victim, or an absent interval
                        if !live.is_empty() && rng.below(8) != 0 {
                            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                            assert_eq!(
                                session.delete(&victim),
                                oracle.delete(victim.id),
                                "{}",
                                ctx("delete divergence")
                            );
                        } else {
                            assert!(
                                !session.delete(&Interval::new(987_654_321, 1, 2)),
                                "{}",
                                ctx("absent delete reported found")
                            );
                        }
                    }
                    5 => {
                        // reseal: folds overlays in
                        let was_dirty = session.is_dirty();
                        assert_eq!(session.seal_if_dirty(), was_dirty, "{}", ctx("seal"));
                    }
                    6..=7 => {
                        let (a, b) = (rng.below(DOM), rng.below(DOM));
                        let q = RangeQuery::new(a.min(b), a.max(b));
                        assert_eq!(
                            session_sorted(&session, q),
                            oracle.query_sorted(q),
                            "{}",
                            ctx("solo query")
                        );
                    }
                    8 => {
                        // merged batch
                        let qs: Vec<RangeQuery> = (0..8)
                            .map(|_| {
                                let (a, b) = (rng.below(DOM), rng.below(DOM));
                                RangeQuery::new(a.min(b), a.max(b))
                            })
                            .collect();
                        let mut merged: Vec<Vec<IntervalId>> =
                            qs.iter().map(|_| Vec::new()).collect();
                        session.query_batch_merge(&qs, &mut merged);
                        for (q, got) in qs.iter().zip(merged) {
                            let mut got = got;
                            got.sort_unstable();
                            assert_eq!(got, oracle.query_sorted(*q), "{}", ctx("merged batch"));
                        }
                    }
                    9 => {
                        // dyn batch through the pool's collect path
                        let qs: Vec<RangeQuery> = (0..6)
                            .map(|_| {
                                let (a, b) = (rng.below(DOM), rng.below(DOM));
                                RangeQuery::new(a.min(b), a.max(b))
                            })
                            .collect();
                        let mut bufs: Vec<Vec<IntervalId>> =
                            qs.iter().map(|_| Vec::new()).collect();
                        {
                            let mut sinks: Vec<&mut dyn QuerySink> =
                                bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
                            session.pool().query_batch(&qs, &mut sinks);
                        }
                        for (q, got) in qs.iter().zip(bufs) {
                            let mut got = got;
                            got.sort_unstable();
                            assert_eq!(got, oracle.query_sorted(*q), "{}", ctx("dyn batch"));
                        }
                    }
                    10 => {
                        // bounded sinks: first-k is a valid prefix,
                        // count and exists are exact
                        let (a, b) = (rng.below(DOM), rng.below(DOM));
                        let q = RangeQuery::new(a.min(b), a.max(b));
                        let want = oracle.query_sorted(q);
                        let kk = rng.below(5) as usize;
                        let mut sinks = vec![FirstK::new(kk)];
                        session.query_batch_merge(&[q], &mut sinks);
                        assert_eq!(
                            sinks[0].len(),
                            kk.min(want.len()),
                            "{}",
                            ctx("first-k size")
                        );
                        for id in sinks[0].ids() {
                            assert!(
                                want.binary_search(id).is_ok(),
                                "{}",
                                ctx("first-k emitted a non-result")
                            );
                        }
                        let mut counts = vec![CountSink::new()];
                        session.query_batch_merge(&[q], &mut counts);
                        assert_eq!(counts[0].count(), want.len(), "{}", ctx("count"));
                        let mut exists = vec![ExistsSink::new()];
                        session.query_batch_merge(&[q], &mut exists);
                        assert_eq!(exists[0].found(), !want.is_empty(), "{}", ctx("exists"));
                    }
                    11 => {
                        // zero-copy handles across a reseal epoch:
                        // slice handles acquired from the sealed arenas
                        // must materialize the snapshot they were taken
                        // from even after a write lands and the index
                        // reseals underneath them (the Arc'd columns
                        // outlive their superseding arena)
                        let qs: Vec<RangeQuery> = (0..6)
                            .map(|_| {
                                let (a, b) = (rng.below(DOM), rng.below(DOM));
                                RangeQuery::new(a.min(b), a.max(b))
                            })
                            .collect();
                        let want: Vec<Vec<IntervalId>> =
                            qs.iter().map(|&q| oracle.query_sorted(q)).collect();
                        let mut handles: Vec<HandleSink> =
                            qs.iter().map(|_| HandleSink::new()).collect();
                        session.query_batch_merge(&qs, &mut handles);
                        // next epoch: dirty the index, then reseal while
                        // the handles are still unmaterialized
                        let st = rng.below(DOM - 8);
                        let s = Interval::new(next_id, st, st + 7);
                        next_id += 1;
                        session.try_insert(s).unwrap();
                        oracle.insert(s);
                        live.push(s);
                        assert!(session.seal_if_dirty(), "{}", ctx("epoch reseal"));
                        for (sink, want) in handles.into_iter().zip(&want) {
                            let mut got = sink.into_vec();
                            got.sort_unstable();
                            assert_eq!(
                                &got,
                                want,
                                "{}",
                                ctx("handle diverged across the reseal epoch")
                            );
                        }
                    }
                    12 => {
                        // stab burst: extent-0 queries between the
                        // writes and reseals
                        for _ in 0..4 {
                            let t = rng.below(DOM);
                            let q = RangeQuery::stab(t);
                            assert_eq!(
                                session_sorted(&session, q),
                                oracle.query_sorted(q),
                                "{}",
                                ctx("stab")
                            );
                        }
                    }
                    13 => {
                        // snapshot: a write barrier — the bytes must
                        // capture exactly the live set at this step
                        let bytes = session
                            .snapshot_bytes()
                            .unwrap_or_else(|e| panic!("{}", ctx(&format!("snapshot: {e}"))));
                        assert!(!session.is_dirty(), "{}", ctx("snapshot left dirt"));
                        snap = Some((bytes, live.clone()));
                    }
                    _ => {
                        // restore: roll the engine back to the last
                        // snapshot point; the oracle twin rolls back too
                        if let Some((bytes, at)) = &snap {
                            session = Session::restore_bytes(bytes)
                                .unwrap_or_else(|e| panic!("{}", ctx(&format!("restore: {e}"))));
                            live = at.clone();
                            oracle = ScanOracle::new(&live);
                            assert!(!session.is_dirty(), "{}", ctx("restored dirty"));
                            let q = RangeQuery::new(0, DOM - 1);
                            assert_eq!(
                                session_sorted(&session, q),
                                oracle.query_sorted(q),
                                "{}",
                                ctx("post-restore sweep")
                            );
                        }
                    }
                }
            }
            // final reseal, then the full differential battery over the
            // workload's query set
            session.seal_if_dirty();
            expect_same_results(
                &format!("lifecycle seed {seed:#x} K={k}"),
                session.pool(),
                &oracle,
                &w.queries,
            );
        }
    }
}

pub mod fuzz {
    //! Deterministic seeded workload generation for regression replay.
    //!
    //! Proptest's shrunk failures are point-in-time; a regression corpus
    //! must replay *forever*. Everything here is a pure function of the
    //! seed (SplitMix64, no environment influence), so a failing seed
    //! copied into `tests/regressions.rs` reproduces its workload
    //! bit-for-bit on every future run.

    use hint_core::{Interval, RangeQuery, Time};

    /// SplitMix64 — tiny, seedable, stable across platforms.
    #[derive(Debug, Clone)]
    pub struct Rng(u64);

    impl Rng {
        /// Creates a generator for `seed`.
        pub fn new(seed: u64) -> Self {
            Self(seed)
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)` (`0` when `bound == 0`).
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return 0;
            }
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// One insert (`true`) or delete (`false`) position in an update
    /// interleaving; see [`Workload::ops`].
    pub type Op = (bool, Time, Time);

    /// A fully deterministic differential workload.
    #[derive(Debug, Clone)]
    pub struct Workload {
        /// Domain upper bound (endpoints are `< dom`).
        pub dom: u64,
        /// The initial interval collection (ids `0..n`).
        pub data: Vec<Interval>,
        /// Query batch.
        pub queries: Vec<RangeQuery>,
        /// Update interleaving: `(is_insert, position, length)` triples,
        /// interpreted by the replay loop (deletes pick a live victim by
        /// `position`).
        pub ops: Vec<Op>,
    }

    /// Generates the standard workload for `seed`: `n` intervals and
    /// `nq` queries over `[0, dom)`, plus `nops` update operations.
    pub fn workload(seed: u64, dom: u64, n: usize, nq: usize, nops: usize) -> Workload {
        assert!(dom >= 2, "degenerate fuzz domain");
        let mut rng = Rng::new(seed);
        let data = (0..n)
            .map(|i| {
                let (a, b) = (rng.below(dom), rng.below(dom));
                Interval::new(i as u64, a.min(b), a.max(b))
            })
            .collect();
        let queries = (0..nq)
            .map(|_| {
                let (a, b) = (rng.below(dom), rng.below(dom));
                RangeQuery::new(a.min(b), a.max(b))
            })
            .collect();
        let ops = (0..nops)
            .map(|_| {
                (
                    rng.next_u64() & 1 == 1,
                    rng.below(dom),
                    rng.below(dom / 8 + 1),
                )
            })
            .collect();
        Workload {
            dom,
            data,
            queries,
            ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hint_core::{Hint, HintMSubs, SubsConfig};

    fn sample_data() -> Vec<Interval> {
        (0..300)
            .map(|i| {
                let st = (i * 17) % 2_000;
                Interval::new(i, st, (st + i % 40).min(2_047))
            })
            .collect()
    }

    #[test]
    fn same_results_accepts_an_exact_index() {
        let data = sample_data();
        let oracle = ScanOracle::new(&data);
        let idx = Hint::build(&data, 9);
        let qs: Vec<RangeQuery> = (0..40)
            .map(|i| RangeQuery::new(i * 50, i * 50 + 80))
            .collect();
        expect_same_results("hint", &idx, &oracle, &qs);
    }

    #[test]
    fn same_results_rejects_a_lying_index() {
        // an index that reports nothing must fail the differential check
        struct Mute;
        impl IntervalIndex for Mute {
            fn query_sink(&self, _q: RangeQuery, _sink: &mut dyn QuerySink) {}
            fn size_bytes(&self) -> usize {
                0
            }
            fn len(&self) -> usize {
                0
            }
        }
        let data = sample_data();
        let oracle = ScanOracle::new(&data);
        let qs = [RangeQuery::new(0, 2_047)];
        assert!(assert_same_results(&Mute, &oracle, &qs).is_err());
    }

    #[test]
    fn indexes_agree_accepts_two_exact_indexes() {
        let data = sample_data();
        let a = Hint::build(&data, 9);
        let b = HintMSubs::build(&data, 8, SubsConfig::full());
        let qs: Vec<RangeQuery> = (0..24)
            .map(|i| RangeQuery::new(i * 80, i * 80 + 200))
            .collect();
        assert!(assert_indexes_agree("hint-vs-subs", &a, &b, &qs).is_ok());
    }

    #[test]
    fn fuzz_workloads_are_deterministic() {
        let a = fuzz::workload(7, 1_024, 50, 20, 30);
        let b = fuzz::workload(7, 1_024, 50, 20, 30);
        assert_eq!(a.data, b.data);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.ops, b.ops);
        let c = fuzz::workload(8, 1_024, 50, 20, 30);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn shard_counts_defaults_without_env() {
        // NB: runs without HINT_TEST_SHARDS in the normal suite
        if std::env::var("HINT_TEST_SHARDS").is_err() {
            assert_eq!(shard_counts(), vec![1, 2, 3, 8]);
        }
    }
}
