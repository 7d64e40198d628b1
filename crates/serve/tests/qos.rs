//! Admission-control and batching tests for the serving subsystem.
//!
//! The scheduler batches across connections and refuses work under
//! overload — but it must never change what any single connection
//! observes: replies stay in request order, results stay bit-identical
//! to a direct `query_sink` at the same point in the write sequence,
//! and shedding is a recoverable per-request answer, not a connection
//! or server failure.

use hint_core::{
    Domain, HintMSubs, Interval, IntervalIndex, QuerySink, RangeQuery, ScanOracle, Session,
    ShardedIndex, SubsConfig,
};
use serve::proto::encode_request;
use serve::{
    duplex, Client, DuplexTransport, Request, ServeConfig, Server, Status, Transport, FLAG_PRIORITY,
};
use std::cell::RefCell;
use std::io::Write;
use std::sync::{Arc, Mutex};
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
/// `tests/roundtrip.rs`).
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

/// Batching must be invisible to results: a served round-trip returns
/// bit-identical answers to direct `query_sink` in every access mode,
/// under the default cap, a cramped cap of 4 and a cap of 1.
#[test]
fn batched_scheduler_matches_direct_query_sink() {
    let w = fuzz::workload(0xa05_0001, DOM, 600, 48, 0);
    let oracle = ScanOracle::new(&w.data);
    for max_batch in [ServeConfig::default().max_batch, 4, 1] {
        let config = ServeConfig {
            max_batch,
            ..ServeConfig::default()
        };
        let server = start_server(&w.data, 4, config);
        let remote = RemoteIndex {
            client: RefCell::new(connect(&server)),
            live: w.data.len(),
        };
        expect_same_results("served-batched", &remote, &oracle, &w.queries);
        drop(remote);
        server.shutdown();
    }
}

/// A write half shared between a [`Client`] and the test, so raw frames
/// can be written in order between the client's own sends (each of
/// which the client flushes at once).
struct SharedWriter<W>(Arc<Mutex<W>>);

impl<W: Write> Write for SharedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().unwrap().flush()
    }
}

/// One connection pipelines a mixed script — plain queries,
/// priority-flagged queries (the bit is accepted and ignored), bounded
/// verbs, and writes — and every reply must arrive in request order,
/// each query answering against exactly the index state its position
/// in the stream implies.
#[test]
fn mixed_priority_pipeline_preserves_per_connection_fifo() {
    let w = fuzz::workload(0xa05_0002, DOM, 500, 0, 0);
    let server = start_server(&w.data, 4, ServeConfig::default());
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    let (reader, writer) = client_end.split().unwrap();
    let mut raw = SharedWriter(Arc::new(Mutex::new(writer)));
    let mut client = Client::new(Halves(reader, SharedWriter(Arc::clone(&raw.0)))).unwrap();
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
            // plain enumeration
            0 | 3 => {
                client.send(&Request::Query(q)).unwrap();
                expected.push(Expect::Ids(oracle.query_sorted(q)));
            }
            // priority-flagged enumeration: the bit set on a raw frame
            1 => {
                let mut frame = bytes::BytesMut::new();
                encode_request(&mut frame, &Request::Query(q));
                let mut frame = Vec::from(frame);
                frame[3] |= FLAG_PRIORITY; // the header's flags byte
                raw.write_all(&frame).unwrap();
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
            // bounded verb
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

/// A client's raw halves, rejoined into a [`Transport`] so a
/// [`Client`] can read the replies to bytes written around it.
struct Halves<R, W>(R, W);

impl<R: std::io::Read + Send + 'static, W: Write + Send + 'static> Transport for Halves<R, W> {
    type Reader = R;
    type Writer = W;

    fn split(self) -> std::io::Result<(R, W)> {
        Ok((self.0, self.1))
    }
}

/// The overload scenario: a hostile connection floods enumerations far
/// past its admission budget while a well-behaved connection asks one
/// bounded query. The flood is shed with *recoverable* `Overloaded`
/// trailers in FIFO position (never a dropped connection, never a
/// panic), the bounded query completes without shedding — and both
/// connections work fine afterwards.
#[test]
fn flooding_connection_is_shed_while_bounded_queries_complete() {
    let w = fuzz::workload(0xa05_0004, DOM, 400, 0, 0);
    let config = ServeConfig {
        conn_pending: 4,
        max_pending: 64,
        ..ServeConfig::default()
    };
    const FLOOD: usize = 200;
    let server = start_server(&w.data, 4, config);
    let mut bounded = connect(&server);
    let q = RangeQuery::new(100, 2_000);

    // the expected bounded answer, fetched before any overload exists
    let want_top = bounded.top_k(5, q).expect("unloaded top-k");

    // the flood goes out as one write, so its reader decodes and gates
    // every frame in one pass, before the scheduler can hand any budget
    // back: admission is deterministic
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    let (reader, mut writer) = client_end.split().unwrap();
    let mut frames = bytes::BytesMut::new();
    for i in 0..FLOOD {
        let st = (i as u64 * 37) % (DOM - 600);
        encode_request(&mut frames, &Request::Query(RangeQuery::new(st, st + 512)));
    }
    writer.write_all(frames.as_slice()).unwrap();
    let mut flood = Client::new(Halves(reader, writer)).unwrap();
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
    assert_eq!(
        server.stats().shed,
        shed as u64,
        "stats count every shed request"
    );

    // recoverable: both connections serve normally after the storm
    let again = bounded.top_k(5, q).expect("bounded conn after flood");
    assert_eq!(again, want_top);
    let ids = flood.query(q).expect("flood conn recovers");
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
/// once: every request is answered `Ok` or shed recoverably, the stats
/// count every shed one, and the server survives. How many are admitted
/// depends on when the scheduler hands budget back; that exactly
/// `max_pending` are admitted while none is released is pinned by the
/// `shed_at_gate` unit test in `server.rs`.
#[test]
fn global_budget_sheds_across_many_connections() {
    let w = fuzz::workload(0xa05_0005, DOM, 300, 0, 0);
    let config = ServeConfig {
        conn_pending: 1_000, // per-conn budget out of the way
        max_pending: 16,
        ..ServeConfig::default()
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
    // nothing is released before the first `max_pending` are gated
    assert!(ok >= config.max_pending, "admitted {ok}");
    assert_eq!(server.stats().shed, shed as u64);
    // every connection still works
    for client in clients.iter_mut() {
        let ids = client.query(RangeQuery::new(0, DOM - 1)).unwrap();
        assert_eq!(ids.len(), w.data.len());
    }
    drop(clients);
    server.shutdown();
}

/// Admission at exactly the budget sheds nothing. On the default
/// scheduler one connection keeps exactly
/// `conn_pending` queries outstanding, round after round; every batch
/// the scheduler executes hands its budget back to the gate, so no
/// request is ever refused. Shedding past the budget is covered by the
/// two flood tests above.
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
