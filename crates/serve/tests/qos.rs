//! QoS-lane, admission-control, and adaptive-window tests for the
//! serving subsystem.
//!
//! The adaptive scheduler may reorder *across* connections (lanes,
//! round-robin fairness) and refuse work under overload — but it must
//! never change what any single connection observes: replies stay in
//! request order, results stay bit-identical to a direct `query_sink`
//! at the same point in the write sequence, and shedding is a
//! recoverable per-request answer, not a connection or server failure.

use hint_core::env::WindowMode;
use hint_core::{
    Domain, HintMSubs, Interval, IntervalIndex, QuerySink, RangeQuery, ScanOracle, Session,
    ShardedIndex, SubsConfig,
};
use serve::{duplex, Client, DuplexTransport, Request, ServeConfig, Server, Status};
use std::cell::RefCell;
use std::time::{Duration, Instant};
use test_support::{expect_same_results, fuzz};

const DOM: u64 = 8_192;

fn build_session(data: &[Interval], k: usize) -> Session<HintMSubs> {
    let sharded = ShardedIndex::build_with_domain(data, 0, DOM - 1, k, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 9), SubsConfig::update_friendly())
    });
    Session::new(sharded)
}

fn start_server(data: &[Interval], k: usize, config: ServeConfig) -> Server {
    Server::start(build_session(data, k), config).expect("start server")
}

fn connect(server: &Server) -> Client<DuplexTransport> {
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    Client::new(client_end).unwrap()
}

/// `IntervalIndex` facade over a served connection (see
/// `tests/roundtrip.rs`), here driving the adaptive scheduler.
struct RemoteIndex {
    client: RefCell<Client<DuplexTransport>>,
    live: usize,
}

impl IntervalIndex for RemoteIndex {
    fn query_sink(&self, q: RangeQuery, sink: &mut dyn QuerySink) {
        self.client
            .borrow_mut()
            .query_sink(q, sink)
            .expect("served query failed");
    }

    fn size_bytes(&self) -> usize {
        0 // not represented on the wire
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// The adaptive controller plus lanes must be invisible to results: a
/// served round-trip returns bit-identical answers to direct
/// `query_sink` in every access mode, across window bounds including
/// a cramped `[min, max]` that forces constant controller movement.
#[test]
fn adaptive_scheduler_matches_direct_query_sink() {
    let w = fuzz::workload(0xa05_0001, DOM, 600, 48, 0);
    let oracle = ScanOracle::new(&w.data);
    let settings = [
        ServeConfig::default(),
        ServeConfig {
            min_window: 2,
            max_batch: 4,
            max_delay: Duration::from_micros(100),
            ..ServeConfig::default()
        },
        ServeConfig {
            lanes: false,
            ..ServeConfig::default()
        },
    ];
    for config in settings {
        assert_eq!(config.mode, WindowMode::Adaptive);
        let server = start_server(&w.data, 4, config);
        let remote = RemoteIndex {
            client: RefCell::new(connect(&server)),
            live: w.data.len(),
        };
        expect_same_results("served-adaptive", &remote, &oracle, &w.queries);
        drop(remote);
        server.shutdown();
    }
}

/// One connection pipelines a mixed-priority script — plain queries,
/// priority-flagged queries, bounded verbs, and writes — and every
/// reply must arrive in request order, each query answering against
/// exactly the index state its position in the stream implies. The
/// high lane may only ever reorder *across* connections.
#[test]
fn mixed_priority_pipeline_preserves_per_connection_fifo() {
    let w = fuzz::workload(0xa05_0002, DOM, 500, 0, 0);
    let server = start_server(&w.data, 4, ServeConfig::default());
    let mut client = connect(&server);
    let mut oracle = ScanOracle::new(&w.data);
    // the oracle mirror for top-k: the live intervals with endpoints
    let mut live: Vec<Interval> = w.data.clone();
    let mut rng = fuzz::Rng::new(0xa05_0003);

    // the script: each step sends one pipelined request and records
    // what its reply must say, given every write sent before it
    enum Expect {
        Ids(Vec<u64>),
        Count(u64),
    }
    let mut expected: Vec<Expect> = Vec::new();
    let mut next_id = 900_000u64;
    for step in 0..120 {
        let st = rng.below(DOM - 64);
        let q = RangeQuery::new(st, st + 1 + rng.below(512));
        match step % 6 {
            // plain enumeration (low lane)
            0 | 3 => {
                client.send(&Request::Query(q)).unwrap();
                expected.push(Expect::Ids(oracle.query_sorted(q)));
            }
            // priority-flagged enumeration (high lane)
            1 => {
                client.send_flagged(None, true, &Request::Query(q)).unwrap();
                expected.push(Expect::Ids(oracle.query_sorted(q)));
            }
            // a write barrier mid-pipeline
            2 => {
                let s = Interval::new(next_id, st, st + 40);
                next_id += 1;
                client.send(&Request::Insert(s)).unwrap();
                oracle.insert(s);
                live.push(s);
                expected.push(Expect::Count(1));
            }
            // bounded verb: rides the high lane unflagged
            4 => {
                let k = 1 + rng.below(8) as u32;
                client.send(&Request::TopK { k, q }).unwrap();
                let mut rows: Vec<Interval> = live
                    .iter()
                    .filter(|s| s.st <= q.end && s.end >= q.st)
                    .copied()
                    .collect();
                rows.sort_unstable_by(|a, b| {
                    (b.end - b.st).cmp(&(a.end - a.st)).then(a.id.cmp(&b.id))
                });
                rows.truncate(k as usize);
                expected.push(Expect::Ids(rows.into_iter().map(|s| s.id).collect()));
            }
            // seal mid-pipeline: a no-op to results, a barrier to order
            _ => {
                client.send(&Request::Seal).unwrap();
                expected.push(Expect::Count(u64::MAX)); // either 0 or 1
            }
        }
    }
    for (i, want) in expected.iter().enumerate() {
        let mut got = Vec::new();
        let reply = client.recv_reply(|ids| got.extend_from_slice(ids)).unwrap();
        assert_eq!(reply.status, Status::Ok, "step {i}");
        match want {
            Expect::Ids(ids) => {
                // top-k replies are order-significant; plain query
                // results are compared as sets like the oracle does
                let mut sorted_got = got.clone();
                sorted_got.sort_unstable();
                let mut sorted_want = ids.clone();
                sorted_want.sort_unstable();
                assert_eq!(sorted_got, sorted_want, "step {i}: wrong ids");
            }
            Expect::Count(u64::MAX) => assert!(reply.count <= 1, "step {i}"),
            Expect::Count(n) => assert_eq!(reply.count, *n, "step {i}"),
        }
    }
    drop(client);
    server.shutdown();
}

/// The overload scenario from the issue: a hostile connection floods
/// enumerations far past its admission budget while a well-behaved
/// connection asks one bounded query. The flood is shed with
/// *recoverable* `Overloaded` trailers in FIFO position (never a
/// dropped connection, never a panic), the bounded query completes
/// without shedding — and both connections work fine afterwards.
#[test]
fn flooding_connection_is_shed_while_bounded_queries_complete() {
    let w = fuzz::workload(0xa05_0004, DOM, 400, 0, 0);
    // a window the flood cannot fill and a deadline far enough out that
    // shedding is deterministic: admission is the only policy in play
    let config = ServeConfig {
        mode: WindowMode::Fixed,
        max_batch: 1_024,
        max_delay: Duration::from_millis(40),
        min_window: 1,
        conn_pending: 4,
        max_pending: 64,
        lanes: true,
    };
    const FLOOD: usize = 200;
    let server = start_server(&w.data, 4, config);
    let mut bounded = connect(&server);
    let q = RangeQuery::new(100, 2_000);

    // the expected bounded answer, fetched before any overload exists
    let want_top = bounded.top_k(5, q).expect("unloaded top-k");

    let mut flood = connect(&server);
    for i in 0..FLOOD {
        let st = (i as u64 * 37) % (DOM - 600);
        flood
            .send(&Request::Query(RangeQuery::new(st, st + 512)))
            .unwrap();
    }
    // the bounded connection's queue is all-high: lanes flush it
    // immediately, so this completes while the flood still queues
    let got_top = bounded.top_k(5, q).expect("top-k under flood");
    assert_eq!(got_top, want_top, "bounded reply must not degrade");

    // the flood's replies arrive in request order: the admitted prefix
    // answers Ok, everything past the budget is Overloaded
    let mut ok = 0usize;
    let mut shed = 0usize;
    for i in 0..FLOOD {
        let reply = flood.recv_reply(|_| {}).expect("flood replies decode");
        match reply.status {
            Status::Ok => {
                assert_eq!(shed, 0, "reply {i}: Ok after Overloaded breaks FIFO");
                ok += 1;
            }
            Status::Overloaded => shed += 1,
            s => panic!("reply {i}: unexpected status {s:?}"),
        }
    }
    assert_eq!(ok, config.conn_pending, "the admitted prefix is the budget");
    assert_eq!(shed, FLOOD - config.conn_pending);
    let stats = server.stats();
    assert_eq!(stats.shed, shed as u64, "stats count every shed request");
    assert!(stats.lane_high >= 1, "the bounded query rode the high lane");

    // recoverable: both connections serve normally after the storm
    let again = bounded.top_k(5, q).expect("bounded conn after flood");
    assert_eq!(again, want_top);
    let ids = flood.query_priority(None, q).expect("flood conn recovers");
    let mut direct = ScanOracle::new(&w.data).query_sorted(q);
    direct.sort_unstable();
    let mut got = ids;
    got.sort_unstable();
    assert_eq!(got, direct, "shed connection answers correctly again");

    drop(bounded);
    drop(flood);
    server.shutdown();
}

/// The global admission budget backstops many connections flooding at
/// once: total admitted work never exceeds `max_pending`, every
/// over-budget request is shed recoverably, and the server survives.
#[test]
fn global_budget_sheds_across_many_connections() {
    let w = fuzz::workload(0xa05_0005, DOM, 300, 0, 0);
    let config = ServeConfig {
        mode: WindowMode::Fixed,
        max_batch: 10_000,
        max_delay: Duration::from_millis(40),
        min_window: 1,
        conn_pending: 1_000, // per-conn budget out of the way
        max_pending: 16,
        lanes: true,
    };
    let server = start_server(&w.data, 2, config);
    let conns = 8usize;
    let per_conn = 10usize;
    let mut clients: Vec<_> = (0..conns).map(|_| connect(&server)).collect();
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..per_conn {
            let st = ((c * per_conn + i) as u64 * 53) % (DOM - 300);
            client
                .send(&Request::Query(RangeQuery::new(st, st + 256)))
                .unwrap();
        }
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    for client in clients.iter_mut() {
        for _ in 0..per_conn {
            match client.recv_reply(|_| {}).expect("reply decodes").status {
                Status::Ok => ok += 1,
                Status::Overloaded => shed += 1,
                s => panic!("unexpected status {s:?}"),
            }
        }
    }
    assert_eq!(ok + shed, conns * per_conn);
    assert_eq!(ok, config.max_pending, "admitted exactly the global budget");
    assert_eq!(server.stats().shed, shed as u64);
    // every connection still works
    for client in clients.iter_mut() {
        let ids = client
            .query_priority(None, RangeQuery::new(0, DOM - 1))
            .unwrap();
        assert_eq!(ids.len(), w.data.len());
    }
    drop(clients);
    server.shutdown();
}

/// The lanes' reason to exist: a bounded query never waits out the
/// batch timer. Under a static window the flood cannot fill and a long
/// deadline, a `top_k` from a quiet connection returns at once with
/// lanes on and sits in the flood's batch until the deadline with lanes
/// off. The two bounds are a quarter and a half of `max_delay` apart,
/// so the assert measures the scheduling policy, not host jitter.
#[test]
fn lanes_let_a_bounded_query_skip_the_batch_timer() {
    let w = fuzz::workload(0xa05_0006, DOM, 400, 0, 0);
    const MAX_DELAY: Duration = Duration::from_millis(300);
    const FLOOD: usize = 64;
    let q = RangeQuery::new(100, 2_000);
    for lanes in [true, false] {
        let config = ServeConfig {
            lanes,
            ..ServeConfig::fixed(1_024, MAX_DELAY)
        };
        let server = start_server(&w.data, 4, config);
        let mut bounded = connect(&server);
        let want_top = bounded.top_k(5, q).expect("unloaded top-k");

        let mut flood = connect(&server);
        for i in 0..FLOOD {
            let st = (i as u64 * 37) % (DOM - 600);
            flood
                .send(&Request::Query(RangeQuery::new(st, st + 512)))
                .unwrap();
        }
        let t = Instant::now();
        let got_top = bounded.top_k(5, q).expect("top-k under flood");
        let waited = t.elapsed();
        assert_eq!(got_top, want_top, "lanes {lanes}: bounded reply changed");
        if lanes {
            assert!(
                waited < MAX_DELAY / 4,
                "lanes on: top-k waited {waited:?}, the batch timer is {MAX_DELAY:?}"
            );
        } else {
            assert!(
                waited >= MAX_DELAY / 2,
                "lanes off: top-k returned in {waited:?}, before the {MAX_DELAY:?} timer"
            );
        }
        for i in 0..FLOOD {
            let reply = flood.recv_reply(|_| {}).expect("flood replies decode");
            assert_eq!(reply.status, Status::Ok, "lanes {lanes}: flood reply {i}");
        }
        drop(bounded);
        drop(flood);
        server.shutdown();
    }
}

/// Admission at exactly the budget sheds nothing. On the default
/// scheduler (adaptive window, lanes on) one connection keeps exactly
/// `conn_pending` queries outstanding, round after round; every batch
/// the scheduler executes hands its budget back to the gate, so no
/// request is ever refused. Shedding past the budget is covered by the
/// two fixed-mode flood tests above.
#[test]
fn pipelining_exactly_the_connection_budget_sheds_nothing() {
    let w = fuzz::workload(0xa05_0007, DOM, 300, 0, 0);
    let oracle = ScanOracle::new(&w.data);
    let config = ServeConfig::default();
    let server = start_server(&w.data, 4, config);
    let mut client = connect(&server);
    let mut rng = fuzz::Rng::new(0xa05_0008);
    for round in 0..4 {
        let queries: Vec<RangeQuery> = (0..config.conn_pending)
            .map(|_| {
                let st = rng.below(DOM - 600);
                RangeQuery::new(st, st + rng.below(512))
            })
            .collect();
        for q in &queries {
            client.send(&Request::Query(*q)).unwrap();
        }
        for (i, q) in queries.iter().enumerate() {
            let mut got = Vec::new();
            let reply = client.recv_reply(|ids| got.extend_from_slice(ids)).unwrap();
            assert_eq!(reply.status, Status::Ok, "round {round} reply {i}");
            got.sort_unstable();
            assert_eq!(got, oracle.query_sorted(*q), "round {round} reply {i}");
        }
    }
    assert_eq!(server.stats().shed, 0, "nothing was over budget");
    drop(client);
    server.shutdown();
}
