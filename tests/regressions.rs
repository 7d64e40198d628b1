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

// Lifecycle seeds: the stateful insert/delete/seal/retune/query
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

/// Replays one seed through the serve scheduler's AIMD batch-window
/// controller (`serve::WindowController` — pure and clock-free, so the
/// replay is bit-exact). The seed picks the controller bounds and then
/// drives three arrival regimes (steady trickle, bursty, bimodal)
/// through the same feed discipline the scheduler uses — `on_arrival`
/// per request, a full flush when the round fills the window, a
/// deadline flush otherwise — asserting after every step that the
/// window stays inside `[min_window, max_window]` and the derived delay
/// never exceeds `max_delay`. The tail then holds occupancy constant
/// and requires convergence to a tight band: a controller that
/// sawtooths or drifts re-creates the window-64 collapse the AIMD
/// design exists to prevent.
fn replay_controller(seed: u64) {
    use serve::{ControllerConfig, WindowController};
    let mut rng = fuzz::Rng::new(seed);
    let cfg = ControllerConfig {
        min_window: 1 + rng.below(4) as usize,
        max_window: 8 + rng.below(120) as usize,
        max_delay: std::time::Duration::from_micros(100 + rng.below(900)),
    };
    let mut c = WindowController::new(cfg);
    let cfg = c.config(); // post-repair bounds are the contract
    let mut now = 0u64;
    for regime in 0..3u32 {
        let base_gap = 1 + rng.below(50);
        for _ in 0..300 {
            let arrivals = match regime {
                0 => 1 + rng.below(3), // steady trickle
                1 => {
                    // bursty: long quiet runs, then a pile-up
                    if rng.below(8) == 0 {
                        32 + rng.below(64)
                    } else {
                        1
                    }
                }
                _ => {
                    // bimodal: alternating light and heavy rounds
                    if rng.below(2) == 0 {
                        1
                    } else {
                        16
                    }
                }
            } as usize;
            for _ in 0..arrivals {
                now += rng.below(base_gap * 2);
                c.on_arrival(now);
            }
            let w = c.window();
            assert!(
                (cfg.min_window..=cfg.max_window).contains(&w),
                "seed {seed:#x} regime {regime}: window {w} escaped [{}, {}]",
                cfg.min_window,
                cfg.max_window,
            );
            assert!(
                c.delay() <= cfg.max_delay,
                "seed {seed:#x} regime {regime}: delay {:?} above the {:?} cap",
                c.delay(),
                cfg.max_delay,
            );
            if arrivals >= w {
                c.on_flush(w, false);
            } else {
                c.on_flush(arrivals, true);
            }
        }
    }
    // convergence tail: constant occupancy must settle near itself
    let g = 4 + rng.below(40) as usize;
    let goal = g.min(cfg.max_window);
    let step = |c: &mut WindowController| {
        let w = c.window();
        if g >= w {
            c.on_flush(w, false);
        } else {
            c.on_flush(g, true);
        }
    };
    for _ in 0..400 {
        step(&mut c);
    }
    let (mut lo, mut hi) = (usize::MAX, 0usize);
    for _ in 0..32 {
        step(&mut c);
        lo = lo.min(c.window());
        hi = hi.max(c.window());
    }
    assert!(
        hi - lo <= 2 && lo + 1 >= goal && hi <= (goal + 2).min(cfg.max_window),
        "seed {seed:#x}: steady occupancy {g} did not converge \
         (tail band [{lo}, {hi}], goal {goal})",
    );
}

// Controller seeds. None have failed yet; every seeded controller
// property failure (from this battery or any future proptest over the
// AIMD policy) is shrunk and added here by its seed, forever.

#[test]
fn regress_controller_seed_0x41ad_0001() {
    replay_controller(0x41ad_0001);
}

#[test]
fn regress_controller_seed_0x41ad_0002() {
    replay_controller(0x41ad_0002);
}

#[test]
fn regress_controller_seed_0xb1b0_0003() {
    replay_controller(0xb1b0_0003);
}

#[test]
fn regress_controller_seed_0x7e11_7a1e() {
    // extreme-ish seed: drives the burst regime into the window cap
    replay_controller(0x7e11_7a1e);
}

/// Median per-request wait, in microseconds, of `arrivals` (ascending
/// microsecond timestamps) run through the scheduler's flush rule: the
/// open batch flushes when it holds the current window, or at its open
/// time plus the delay in force when it opened. Without a controller
/// the window and delay are the static `max_batch`/`max_delay`, as in
/// the scheduler's fixed mode.
fn median_wait_us(
    arrivals: &[u64],
    mut controller: Option<serve::WindowController>,
    max_batch: usize,
    max_delay: std::time::Duration,
) -> u64 {
    let mut waits = Vec::with_capacity(arrivals.len());
    let mut batch: Vec<u64> = Vec::new();
    let mut deadline = 0u64;
    for &t in arrivals {
        if !batch.is_empty() && deadline <= t {
            if let Some(c) = &mut controller {
                c.on_flush(batch.len(), true);
            }
            waits.extend(batch.drain(..).map(|a| deadline - a));
        }
        if let Some(c) = &mut controller {
            c.on_arrival(t);
        }
        if batch.is_empty() {
            let delay = controller.as_ref().map_or(max_delay, |c| c.delay());
            deadline = t + delay.as_micros() as u64;
        }
        batch.push(t);
        if batch.len() >= controller.as_ref().map_or(max_batch, |c| c.window()) {
            if let Some(c) = &mut controller {
                c.on_flush(batch.len(), false);
            }
            waits.extend(batch.drain(..).map(|a| t - a));
        }
    }
    waits.extend(batch.drain(..).map(|a| deadline - a));
    waits.sort_unstable();
    waits[waits.len() / 2]
}

/// The window-64 cliff, replayed without a clock. One seeded sparse
/// stream (exponential gaps, mean 2 ms) runs through the flush rule
/// twice: under the controller (window 1..=64, delay cap 500 µs) and
/// under a static 64-wide, 500 µs window. Gaps that wide almost never
/// fill even two slots within 500 µs, so the static window
/// deadline-flushes nearly every batch and its median request waits
/// the full 500 µs. The controller must keep its median clearly under
/// that floor; one that stops shrinking on deadline flushes parks at
/// window 2 and waits the full delay too.
#[test]
fn regress_controller_sparse_arrivals_avoid_the_window_64_cliff() {
    use serve::{ControllerConfig, WindowController};
    const MAX_DELAY: std::time::Duration = std::time::Duration::from_micros(500);
    const MEAN_GAP_US: f64 = 2_000.0;
    let mut rng = fuzz::Rng::new(0xc11f_0064);
    let mut now = 0u64;
    let arrivals: Vec<u64> = (0..2_000)
        .map(|_| {
            let u = (rng.below(1 << 53) + 1) as f64 / (1u64 << 53) as f64;
            now += (-u.ln() * MEAN_GAP_US) as u64;
            now
        })
        .collect();
    let controller = WindowController::new(ControllerConfig {
        min_window: 1,
        max_window: 64,
        max_delay: MAX_DELAY,
    });
    let adaptive = median_wait_us(&arrivals, Some(controller), 64, MAX_DELAY);
    let fixed = median_wait_us(&arrivals, None, 64, MAX_DELAY);
    assert_eq!(
        fixed,
        MAX_DELAY.as_micros() as u64,
        "the static window must deadline-flush at this arrival rate"
    );
    assert!(
        adaptive as f64 <= 0.9 * fixed as f64,
        "controller median wait {adaptive} us reproduced the static window's {fixed} us"
    );
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
