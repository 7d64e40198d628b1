//! Deterministic seeded fuzz-regression corpus.
//!
//! Property tests shrink a failure to one input and then move on; this
//! file makes such failures *permanent*. Every test replays one fixed
//! RNG seed through `test_support::fuzz::workload` — a pure function of
//! the seed, stable across platforms and releases — and runs the full
//! differential battery (every index variant, sharded and unsharded,
//! static and under updates) against the oracle.
//!
//! **Convention:** when a proptest or fuzz run ever fails (locally or in
//! CI), shrink it, fix the bug, then add the seed here as
//! `regress_seed_0x<SEED>` with a comment naming the bug it caught. The
//! seeds below bootstrap the corpus with a spread of workload shapes;
//! they must stay green forever.

use hint_suite::hint_core::{
    Domain, Hint, HintMBase, HintMSubs, Interval, IntervalIndex, QuerySink, RangeQuery, ScanOracle,
    Session, ShardedIndex, SubsConfig,
};
use serve::{duplex, Client, DuplexTransport, ServeConfig, Server};
use std::io::Write as _;
use test_support::{expect_same_results, fuzz, shard_counts};

/// Replays one seed: static differential over the initial data, then an
/// update interleaving with a mid-stream reseal, then a final
/// differential sweep — across the core variants and every shard count.
fn replay(seed: u64) {
    let w = fuzz::workload(seed, 4_096, 160, 24, 48);
    let dom = Domain::new(0, w.dom - 1, 9);
    let oracle = ScanOracle::new(&w.data);

    // static differential: unsharded variants
    expect_same_results("hint", &Hint::build(&w.data, 10), &oracle, &w.queries);
    expect_same_results(
        "hint-m-base",
        &HintMBase::build_with_domain(&w.data, dom),
        &oracle,
        &w.queries,
    );
    let mut subs = HintMSubs::build_with_domain(&w.data, dom, SubsConfig::full());
    expect_same_results("hint-m-subs", &subs, &oracle, &w.queries);
    subs.seal();
    expect_same_results("hint-m-subs-sealed", &subs, &oracle, &w.queries);

    // static differential: sharded, every K in the sweep
    for k in shard_counts() {
        let mut sharded = ShardedIndex::build_with_domain(&w.data, 0, w.dom - 1, k, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, 9), SubsConfig::full())
        });
        expect_same_results("sharded", &sharded, &oracle, &w.queries);
        IntervalIndex::seal(&mut sharded);
        expect_same_results("sharded-sealed", &sharded, &oracle, &w.queries);
    }

    // update interleaving with reseal, sharded vs oracle
    for k in shard_counts() {
        let mut sharded = ShardedIndex::build_with_domain(&w.data, 0, w.dom - 1, k, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, 9), SubsConfig::update_friendly())
        });
        let mut oracle = ScanOracle::new(&w.data);
        let mut live = w.data.clone();
        let mut next_id = 900_000u64;
        for (i, &(is_insert, pos, len)) in w.ops.iter().enumerate() {
            if is_insert || live.is_empty() {
                let s = Interval::new(next_id, pos, (pos + len).min(w.dom - 1));
                next_id += 1;
                sharded.insert(s);
                oracle.insert(s);
                live.push(s);
            } else {
                let victim = live.swap_remove((pos as usize) % live.len());
                assert_eq!(
                    sharded.delete(&victim),
                    oracle.delete(victim.id),
                    "seed {seed:#x} K={k}: delete divergence on {victim:?}"
                );
            }
            if i == w.ops.len() / 2 {
                IntervalIndex::seal(&mut sharded);
            }
        }
        expect_same_results("sharded after updates", &sharded, &oracle, &w.queries);
        IntervalIndex::seal(&mut sharded);
        expect_same_results("sharded after final reseal", &sharded, &oracle, &w.queries);
    }
}

// ---- the corpus ----------------------------------------------------
// Bootstrap seeds covering a spread of generated workload shapes. Add
// every seed that ever fails, with a comment naming the bug it caught.

#[test]
fn regress_seed_0x2a() {
    replay(0x2a);
}

#[test]
fn regress_seed_0xdead_beef() {
    replay(0xdead_beef);
}

#[test]
fn regress_seed_0x5eed_0001() {
    replay(0x5eed_0001);
}

#[test]
fn regress_seed_0xc0ffee() {
    replay(0xc0ffee);
}

#[test]
fn regress_seed_0x7fff_ffff_ffff_ffff() {
    // extreme seed value: exercises the SplitMix64 stream far from zero
    replay(0x7fff_ffff_ffff_ffff);
}

/// Replays one seed through the serving subsystem: the workload's data
/// behind a wire-protocol server (in-memory duplex transport), the full
/// differential battery against the oracle through the encode →
/// schedule → batch → demux → decode path, then a seeded garbage stream
/// at the same server — which must neither panic it nor disturb a
/// subsequent clean connection. Mirrors the unsharded/sharded replay
/// convention above: any serving or codec seed that ever fails is added
/// below forever.
fn replay_serve(seed: u64) {
    let w = fuzz::workload(seed, 4_096, 160, 24, 0);
    let oracle = ScanOracle::new(&w.data);
    for k in shard_counts() {
        let sharded = ShardedIndex::build_with_domain(&w.data, 0, w.dom - 1, k, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, 9), SubsConfig::full())
        });
        let server = Server::start(Session::new(sharded), ServeConfig::default()).unwrap();

        // the served index must pass the same differential battery as a
        // direct one
        struct Remote(std::cell::RefCell<Client<DuplexTransport>>, usize);
        impl IntervalIndex for Remote {
            fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
                self.0
                    .borrow_mut()
                    .query_sink(q, sink)
                    .expect("served query");
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn len(&self) -> usize {
                self.1
            }
        }
        let (client_end, server_end) = duplex();
        server.attach(server_end);
        let remote = Remote(
            std::cell::RefCell::new(Client::new(client_end).unwrap()),
            w.data.len(),
        );
        expect_same_results("served", &remote, &oracle, &w.queries);
        drop(remote);

        // seeded garbage at the wire: per-connection errors, never a
        // server panic, and the next clean connection still answers
        let mut rng = fuzz::Rng::new(seed ^ 0xbad_c0de);
        let (raw_client, raw_server) = duplex();
        server.attach(raw_server);
        use serve::Transport;
        let (_r, mut wtr) = raw_client.split().unwrap();
        let junk: Vec<u8> = (0..64 + rng.below(128))
            .map(|_| (rng.next_u64() & 0xFF) as u8)
            .collect();
        let _ = wtr.write_all(&junk);
        drop(wtr);
        let (client_end, server_end) = duplex();
        server.attach(server_end);
        let mut clean = Client::new(client_end).unwrap();
        let got = clean
            .query(RangeQuery::new(0, w.dom - 1))
            .expect("server survived garbage");
        assert_eq!(got.len(), w.data.len(), "seed {seed:#x} K={k}");
        drop(clean);
        server.shutdown();
    }
}

// Bootstrap serving/codec seeds (none have failed yet; the convention
// is the same as above — every future shrunk serving failure lands
// here by its seed).

#[test]
fn regress_serve_seed_0x5e4e_0001() {
    replay_serve(0x5e4e_0001);
}

#[test]
fn regress_serve_seed_0xfeed_f00d() {
    replay_serve(0xfeed_f00d);
}

// Lifecycle seeds: the stateful insert/delete/seal/query
// interleaving over the pooled session (driver in
// `test_support::lifecycle`, fuzz matrix in `tests/lifecycle.rs`).
// Bootstrap seeds below; every lifecycle seed that ever fails is added
// here by number, forever.

#[test]
fn regress_lifecycle_seed_0x11fe() {
    test_support::lifecycle::replay(0x11fe);
}

#[test]
fn regress_lifecycle_seed_0xl33t_a5() {
    test_support::lifecycle::replay(0x1337_00a5);
}

/// Degenerate-workload replay: tiny domains, point intervals, and a
/// single-interval dataset — shapes that historically break routing and
/// boundary math first.
#[test]
fn regress_degenerate_shapes() {
    // single interval, stab queries
    let one = vec![Interval::new(0, 7, 7)];
    let oracle = ScanOracle::new(&one);
    for k in shard_counts() {
        let sharded = ShardedIndex::build_with(&one, k, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, 4), SubsConfig::full())
        });
        expect_same_results(
            "single-interval",
            &sharded,
            &oracle,
            &[
                hint_suite::hint_core::RangeQuery::stab(7),
                hint_suite::hint_core::RangeQuery::stab(6),
                hint_suite::hint_core::RangeQuery::new(0, 100),
            ],
        );
    }
    // two-value domain, everything overlaps everything
    let w = fuzz::workload(99, 2, 40, 10, 0);
    let oracle = ScanOracle::new(&w.data);
    for k in shard_counts() {
        let sharded = ShardedIndex::build_with_domain(&w.data, 0, 1, k, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, 1), SubsConfig::full())
        });
        expect_same_results("two-value-domain", &sharded, &oracle, &w.queries);
    }
}
