//! The `QuerySink` execution layer, validated across every index in the
//! workspace:
//!
//! * enumerate == count == exists against the `ScanOracle` for every
//!   variant, via the shared `test-support` differential harness;
//! * `FirstK` retains exactly `min(k, |result|)` ids, all of them real
//!   results, and terminates the scan early (measurably fewer emits than
//!   full enumeration);
//! * `query_batch` is bit-identical to independent `query_sink` calls;
//! * saturation is honoured by every index: after a saturating sink stops
//!   the scan, at most a bounded tail of extra emits arrived.

use hint_suite::grid1d::Grid1D;
use hint_suite::hint_core::{
    CfLayout, CollectSink, ExistsSink, FirstK, FnSink, Hint, HintCf, HintMBase, HintMSubs,
    HybridHint, Interval, IntervalId, IntervalIndex, QuerySink, RangeQuery, ScanOracle, SubsConfig,
};
use hint_suite::interval_tree::IntervalTree;
use hint_suite::period_index::PeriodIndex;
use hint_suite::timeline_index::TimelineIndex;
use proptest::prelude::*;
use test_support::{assert_same_results_named, intervals_up_to, query};

/// Forwards to an inner sink while counting how many ids the index
/// actually emitted — the observable cost of a scan.
struct ProbeSink<S: QuerySink> {
    inner: S,
    emits: usize,
}

impl<S: QuerySink> ProbeSink<S> {
    fn new(inner: S) -> Self {
        Self { inner, emits: 0 }
    }
}

impl<S: QuerySink> QuerySink for ProbeSink<S> {
    fn emit(&mut self, id: IntervalId) {
        self.emits += 1;
        self.inner.emit(id);
    }
    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }
}

/// Builds every index in the workspace over `data` (domain `[0, max)`).
fn build_all(data: &[Interval], max: u64) -> Vec<(&'static str, Box<dyn IntervalIndex>)> {
    vec![
        ("oracle", Box::new(ScanOracle::new(data))),
        ("hint", Box::new(Hint::build(data, 10))),
        (
            "hint-cf",
            Box::new(HintCf::build_exact(data, CfLayout::Sparse)),
        ),
        ("hint-m-base", Box::new(HintMBase::build(data, 9))),
        (
            "hint-m-subs",
            Box::new(HintMSubs::build(data, 9, SubsConfig::full())),
        ),
        (
            "hint-m-subs-uf",
            Box::new(HintMSubs::build(data, 9, SubsConfig::update_friendly())),
        ),
        ("hint-sealed", {
            let mut i = Hint::build(data, 10);
            i.seal();
            Box::new(i)
        }),
        ("hint-m-base-sealed", {
            let mut i = HintMBase::build(data, 9);
            i.seal();
            Box::new(i)
        }),
        ("hint-m-subs-sealed", {
            let mut i = HintMSubs::build(data, 9, SubsConfig::full());
            i.seal();
            Box::new(i)
        }),
        ("hint-m-subs-sealed+overlay", {
            // sealed arenas plus a live unsealed overlay: the second half
            // of the data is inserted after the seal
            let split = data.len() / 2;
            let mut i = HintMSubs::build_with_domain(
                &data[..split.max(1)],
                hint_suite::hint_core::Domain::new(0, max, 9),
                SubsConfig::update_friendly(),
            );
            i.seal();
            for &s in &data[split.max(1)..] {
                i.insert(s);
            }
            Box::new(i)
        }),
        ("hybrid", {
            let split = data.len() / 2;
            let mut h = HybridHint::new(&data[..split.max(1)], 0, max, 9);
            for &s in &data[split.max(1)..] {
                h.insert(s);
            }
            Box::new(h)
        }),
        ("interval-tree", Box::new(IntervalTree::build(data))),
        ("grid1d", Box::new(Grid1D::build(data, 64))),
        ("period", Box::new(PeriodIndex::build(data, 16, 4))),
        (
            "timeline",
            Box::new(TimelineIndex::build_with_spacing(data, 32)),
        ),
    ]
}

fn intervals(max_val: u64) -> impl Strategy<Value = Vec<Interval>> {
    intervals_up_to(max_val, 120)
}

const DOM: u64 = 4_096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The central differential property: every variant agrees with the
    // oracle in every access mode (enumerate, duplicate/tombstone
    // freedom, count, exists) — one `assert_same_results` call per
    // variant replaces the old hand-rolled comparison loops.
    #[test]
    fn every_variant_matches_the_oracle_in_every_mode(
        data in intervals(DOM),
        q in query(DOM),
    ) {
        let oracle = ScanOracle::new(&data);
        for (name, idx) in build_all(&data, DOM) {
            assert_same_results_named(name, idx.as_ref(), &oracle, &[q])?;
        }
    }

    #[test]
    fn first_k_yields_real_results_and_respects_k(
        data in intervals(DOM),
        q in query(DOM),
        k in 0usize..12,
    ) {
        let oracle = ScanOracle::new(&data);
        let full = oracle.query_sorted(q);
        for (name, idx) in build_all(&data, DOM) {
            let mut sink = FirstK::new(k);
            idx.query_sink(q, &mut sink);
            let got = sink.into_vec();
            prop_assert_eq!(got.len(), k.min(full.len()), "{} FirstK({}) size on {:?}", name, k, q);
            for id in got {
                prop_assert!(
                    full.binary_search(&id).is_ok(),
                    "{} FirstK emitted non-result {} on {:?}", name, id, q
                );
            }
        }
    }

    #[test]
    fn query_batch_equals_independent_query_sink_calls(
        data in intervals(DOM),
        raw_queries in prop::collection::vec((0u64..DOM, 0u64..DOM), 1..16),
    ) {
        let queries: Vec<RangeQuery> = raw_queries
            .into_iter()
            .map(|(a, b)| RangeQuery::new(a.min(b), a.max(b)))
            .collect();
        for (name, idx) in build_all(&data, DOM) {
            let mut solo: Vec<Vec<IntervalId>> = queries
                .iter()
                .map(|&q| {
                    let mut v = Vec::new();
                    idx.query_sink(q, &mut v);
                    v
                })
                .collect();
            let mut bufs: Vec<Vec<IntervalId>> = vec![Vec::new(); queries.len()];
            {
                let mut sinks: Vec<&mut dyn QuerySink> =
                    bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
                idx.query_batch(&queries, &mut sinks);
            }
            if name == "timeline" {
                // the timeline index reports each checkpoint's survivors
                // from a HashSet, so even two identical query_sink calls
                // emit in different orders — compare as multisets
                for v in solo.iter_mut().chain(bufs.iter_mut()) {
                    v.sort_unstable();
                }
            }
            // bit-identical for every deterministic index: same ids in
            // the same emission order per sink
            prop_assert_eq!(&solo, &bufs, "{} batch != solo", name);
        }
    }

    #[test]
    fn sealed_indexes_agree_with_oracle_after_update_and_reseal(
        data in intervals(DOM),
        ops in prop::collection::vec((any::<bool>(), 0u64..DOM, 0u64..256), 0..24),
        q in query(DOM),
    ) {
        let domain = hint_suite::hint_core::Domain::new(0, DOM, 10);
        let mut subs = HintMSubs::build_with_domain(&data, domain, SubsConfig::full());
        let mut base = HintMBase::build_with_domain(&data, domain);
        let mut oracle = ScanOracle::new(&data);
        subs.seal();
        base.seal();
        let mut live: Vec<Interval> = data.clone();
        let mut next_id = 500_000u64;
        for (is_insert, st, len) in ops {
            if is_insert || live.is_empty() {
                let s = Interval::new(next_id, st, (st + len).min(DOM));
                next_id += 1;
                subs.insert(s);
                base.insert(s);
                oracle.insert(s);
                live.push(s);
            } else {
                let victim = live.swap_remove((st as usize) % live.len());
                prop_assert_eq!(subs.delete(&victim), oracle.delete(victim.id));
                prop_assert!(base.delete(&victim));
            }
        }
        for reseal in [false, true] {
            if reseal {
                subs.seal();
                base.seal();
            }
            assert_same_results_named(
                if reseal { "subs resealed" } else { "subs overlay" },
                &subs, &oracle, &[q],
            )?;
            assert_same_results_named(
                if reseal { "base resealed" } else { "base overlay" },
                &base, &oracle, &[q],
            )?;
        }
    }

    #[test]
    fn fn_sink_streams_the_full_result_set(
        data in intervals(DOM),
        q in query(DOM),
    ) {
        let idx = Hint::build(&data, 10);
        let mut streamed = Vec::new();
        {
            let mut sink = FnSink::new(|id| streamed.push(id));
            idx.query_sink(q, &mut sink);
        }
        streamed.sort_unstable();
        prop_assert_eq!(streamed, ScanOracle::new(&data).query_sorted(q));
    }
}

/// Dense deterministic workload: every saturating sink must do
/// measurably less work than full enumeration on a broad query.
#[test]
fn saturating_sinks_terminate_early() {
    let data: Vec<Interval> = (0..20_000)
        .map(|i| Interval::new(i, (i * 7) % 60_000, (i * 7) % 60_000 + 500))
        .collect();
    let q = RangeQuery::new(0, 59_999); // selects everything
    for (name, idx) in build_all(&data, 61_000) {
        let mut full = ProbeSink::new(CollectSink::new());
        idx.query_sink(q, &mut full);
        assert_eq!(full.inner.len(), data.len(), "{name} full enumeration");

        let mut first5 = ProbeSink::new(FirstK::new(5));
        idx.query_sink(q, &mut first5);
        assert_eq!(first5.inner.len(), 5, "{name} FirstK(5)");
        assert!(
            first5.emits * 10 < full.emits,
            "{name}: FirstK scanned {} of {} emits — no early exit",
            first5.emits,
            full.emits
        );

        let mut exists = ProbeSink::new(ExistsSink::new());
        idx.query_sink(q, &mut exists);
        assert!(exists.inner.found(), "{name} exists");
        assert!(
            exists.emits * 10 < full.emits,
            "{name}: exists scanned {} of {} emits — no early exit",
            exists.emits,
            full.emits
        );
    }
}

/// The trait-object path (`&mut dyn QuerySink`) and the monomorphized
/// inherent path must agree — the bench harness drives indexes through
/// `Box<dyn IntervalIndex>`.
#[test]
fn dyn_and_inherent_paths_agree() {
    let data: Vec<Interval> = (0..3_000)
        .map(|i| Interval::new(i, (i * 13) % 9_000, (i * 13) % 9_000 + (i % 70)))
        .collect();
    let idx = Hint::build(&data, 11);
    let boxed: Box<dyn IntervalIndex> = Box::new(Hint::build(&data, 11));
    for st in (0..9_000u64).step_by(311) {
        let q = RangeQuery::new(st, (st + 400).min(9_069));
        let mut direct = Vec::new();
        idx.query(q, &mut direct);
        let mut via_dyn = Vec::new();
        boxed.query_sink(q, &mut via_dyn);
        direct.sort_unstable();
        via_dyn.sort_unstable();
        assert_eq!(direct, via_dyn, "{q:?}");
        assert_eq!(boxed.count(q), direct.len(), "{q:?}");
        assert_eq!(boxed.exists(q), !direct.is_empty(), "{q:?}");
    }
}
