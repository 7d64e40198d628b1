//! End-to-end differential tests for the serving subsystem.
//!
//! The wire path (encode → schedule → batch → demux → decode) must be
//! invisible: a client sees exactly what a direct `query_sink` against
//! the same index state produces, in every access mode, under
//! concurrency, and malformed wire input must never panic the server.

use hint_core::{
    Domain, HintMSubs, Interval, IntervalId, IntervalIndex, QuerySink, RangeQuery, ScanOracle,
    Session, ShardedIndex, SubsConfig,
};
use serve::{duplex, Client, ClientError, DuplexTransport, ServeConfig, Server, Status};
use std::cell::RefCell;
use std::io::Write as _;
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

/// `IntervalIndex` facade over a served connection, so the shared
/// differential harness (`test_support::assert_same_results`) can drive
/// the whole wire path exactly like an in-process index.
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

/// The acceptance-criteria core: a server round-trip returns
/// bit-identical results to direct `query_sink`, verified through the
/// shared differential harness in every access mode (enumerate / count
/// / exists), for several batch caps.
#[test]
fn roundtrip_matches_direct_query_sink() {
    let w = fuzz::workload(0x5e4e_0001, DOM, 600, 48, 0);
    let oracle = ScanOracle::new(&w.data);
    for max_batch in [1, 16, 256] {
        let server = start_server(
            &w.data,
            4,
            ServeConfig {
                max_batch,
                ..Default::default()
            },
        );
        let remote = RemoteIndex {
            client: RefCell::new(connect(&server)),
            live: w.data.len(),
        };
        expect_same_results("served", &remote, &oracle, &w.queries);
        drop(remote);
        server.shutdown();
    }
}

/// Writes act as barriers: a single connection pipelining
/// query/insert/query/delete/query/seal/query sees each query answer
/// against exactly the index state its position in the stream implies.
#[test]
fn write_barriers_order_replies_per_connection() {
    let w = fuzz::workload(0x5e4e_0002, DOM, 400, 0, 0);
    let server = start_server(&w.data, 3, ServeConfig::default());
    let mut client = connect(&server);
    let mut oracle = ScanOracle::new(&w.data);
    let direct = |oracle: &ScanOracle, q: RangeQuery| oracle.query_sorted(q);

    let q = RangeQuery::new(100, 2_000);
    let fresh = Interval::new(990_000, 150, 1_800);

    let mut got = client.query(q).unwrap();
    got.sort_unstable();
    assert_eq!(got, direct(&oracle, q), "pre-insert");

    client.insert(fresh).unwrap();
    oracle.insert(fresh);
    let mut got = client.query(q).unwrap();
    got.sort_unstable();
    assert_eq!(got, direct(&oracle, q), "post-insert");
    assert!(got.contains(&fresh.id));

    assert!(client.delete(fresh).unwrap());
    assert!(oracle.delete(fresh.id));
    assert!(
        !client.delete(fresh).unwrap(),
        "double delete reports absent"
    );
    let mut got = client.query(q).unwrap();
    got.sort_unstable();
    assert_eq!(got, direct(&oracle, q), "post-delete");

    // reseal after the delete tombstone, then query again
    assert!(client.seal().unwrap());
    assert!(!client.seal().unwrap(), "clean index reseal is a no-op");
    let mut got = client.query(q).unwrap();
    got.sort_unstable();
    assert_eq!(got, direct(&oracle, q), "post-seal");

    drop(client);
    server.shutdown();
}

/// N concurrent connections issue interleaved queries and writes (ids
/// disjoint per connection, so the final state is order-independent);
/// after a seal barrier every connection's queries must match direct
/// `query_sink` over an identically-updated twin.
#[test]
fn concurrent_connections_interleaving_queries_and_writes() {
    let w = fuzz::workload(0x5e4e_0003, DOM, 800, 0, 0);
    let clients = 4usize;
    let server = start_server(
        &w.data,
        4,
        ServeConfig {
            max_batch: 32,
            ..Default::default()
        },
    );
    // the twin: every connection's writes applied (order across
    // connections is irrelevant — ids and endpoints are disjoint)
    let mut twin = ScanOracle::new(&w.data);
    let mut writes_per_client: Vec<Vec<Interval>> = Vec::new();
    for c in 0..clients {
        let mut ws = Vec::new();
        for i in 0..24u64 {
            let st = (c as u64 * 1_900 + i * 67) % (DOM - 200);
            let s = Interval::new(1_000_000 + c as u64 * 1_000 + i, st, st + 150);
            twin.insert(s);
            ws.push(s);
        }
        writes_per_client.push(ws);
    }

    std::thread::scope(|scope| {
        let handles: Vec<_> = writes_per_client
            .iter()
            .enumerate()
            .map(|(c, writes)| {
                let mut client = connect(&server);
                scope.spawn(move || {
                    // interleave writes with queries (answers during this
                    // phase are timing-dependent; just check integrity)
                    for (i, s) in writes.iter().enumerate() {
                        client.insert(*s).unwrap();
                        if i % 3 == 0 {
                            let q = RangeQuery::new(s.st, s.end);
                            let ids = client.query(q).unwrap();
                            assert!(ids.contains(&s.id), "conn {c}: own acked insert invisible");
                        }
                    }
                    client.seal().ok();
                    client
                })
            })
            .collect();
        let mut clients: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // all writes acked: every connection now sees the same final
        // state, which must equal the twin's
        for (c, client) in clients.iter_mut().enumerate() {
            for i in 0..24u64 {
                let st = (i * 311) % (DOM - 900);
                let q = RangeQuery::new(st, st + 777);
                let mut got = client.query(q).unwrap();
                got.sort_unstable();
                assert_eq!(got, twin.query_sorted(q), "conn {c} on {q:?}");
            }
        }
    });
    server.shutdown();
}

/// Raw duplex halves for writing arbitrary bytes at the server.
fn raw_connect(server: &Server) -> (serve::transport::PipeReader, serve::transport::PipeWriter) {
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    use serve::Transport;
    client_end.split().unwrap()
}

/// Reads frames back until EOF, returning the End statuses seen.
fn drain_statuses(reader: serve::transport::PipeReader) -> Vec<Status> {
    let mut rd = serve::FrameReader::new(reader);
    let mut statuses = Vec::new();
    while let Ok(Some(frame)) = rd.read_frame() {
        if frame.kind == serve::Kind::End {
            use bytes::Buf;
            let mut p = frame.payload;
            statuses.push(Status::from_u8(p.get_u8()));
        }
    }
    statuses
}

/// Targeted malformed frames: each failure mode earns its error trailer
/// — fatal ones close the connection, recoverable ones keep it usable —
/// and the server survives to serve a clean connection afterwards.
#[test]
fn malformed_frames_error_per_connection_without_killing_the_server() {
    let w = fuzz::workload(0x5e4e_0004, DOM, 300, 4, 0);
    let server = start_server(&w.data, 2, ServeConfig::default());

    // 1. bad magic: fatal
    let (r, mut wtr) = raw_connect(&server);
    wtr.write_all(&[0xFFu8; 64]).unwrap();
    drop(wtr);
    assert_eq!(drain_statuses(r), vec![Status::BadMagic]);

    // 2. truncated mid-frame: fatal
    let (r, mut wtr) = raw_connect(&server);
    wtr.write_all(&[0x69, 1, 0x01]).unwrap(); // header cut short
    drop(wtr);
    assert_eq!(drain_statuses(r), vec![Status::Truncated]);

    // 3. oversized length: fatal
    let (r, mut wtr) = raw_connect(&server);
    let mut junk = vec![0x69, 1, 0x01, 0];
    junk.extend_from_slice(&u32::MAX.to_le_bytes());
    wtr.write_all(&junk).unwrap();
    drop(wtr);
    assert_eq!(drain_statuses(r), vec![Status::Oversized]);

    // 4. unknown kind and bad payload length: recoverable — the same
    //    connection then serves a valid query
    let mut client = connect(&server);
    {
        // reach into the pipe: send an unknown-kind frame by hand
        let mut frame = vec![0x69u8, 1, 0x6E, 0, 2, 0, 0, 0, 9, 9];
        // and a Seal with a bogus payload length
        frame.extend_from_slice(&[0x69, 1, 0x04, 0, 1, 0, 0, 0, 7]);
        // then a well-formed query
        let mut ok = bytes::BytesMut::new();
        serve::proto::encode_request(&mut ok, &serve::Request::Query(RangeQuery::new(0, DOM - 1)));
        frame.extend_from_slice(ok.as_slice());
        // write the three frames as raw bytes through a fresh pipe
        let (client_end, server_end) = duplex();
        server.attach(server_end);
        use serve::Transport;
        let (r, mut wtr) = client_end.split().unwrap();
        wtr.write_all(&frame).unwrap();
        let mut rd = serve::FrameReader::new(r);
        // reply 1: BadKind trailer; reply 2: BadLength trailer
        for want in [Status::BadKind, Status::BadLength] {
            let f = rd.read_frame().unwrap().unwrap();
            assert_eq!(f.kind, serve::Kind::End);
            use bytes::Buf;
            assert_eq!(Status::from_u8(f.payload.clone().get_u8()), want);
        }
        // reply 3: real results
        let mut results = 0usize;
        loop {
            let f = rd.read_frame().unwrap().unwrap();
            match f.kind {
                serve::Kind::Results => results += f.payload.len() / 8,
                serve::Kind::End => break,
                k => panic!("unexpected {k:?}"),
            }
        }
        assert_eq!(results, w.data.len(), "full-domain query after junk");
        drop(wtr);
    }

    // 5. semantic errors: inverted query range, out-of-domain insert —
    //    error replies, connection stays up
    let mut raw = bytes::BytesMut::new();
    raw.clear();
    {
        use bytes::BufMut;
        raw.put_u8(0x69);
        raw.put_u8(1);
        raw.put_u8(0x01);
        raw.put_u8(0);
        raw.put_u32_le(16);
        raw.put_u64_le(500);
        raw.put_u64_le(3); // st > end
    }
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    use serve::Transport;
    let (r, mut wtr) = client_end.split().unwrap();
    wtr.write_all(raw.as_slice()).unwrap();
    let mut rd = serve::FrameReader::new(r);
    let f = rd.read_frame().unwrap().unwrap();
    use bytes::Buf;
    assert_eq!(
        Status::from_u8(f.payload.clone().get_u8()),
        Status::InvalidRange
    );
    drop(wtr);

    match client.insert(Interval::new(5, 0, DOM * 10)) {
        Err(ClientError::Server(Status::OutOfDomain)) => {}
        other => panic!("expected OutOfDomain, got {other:?}"),
    }
    // the reserved tombstone id must be refused, not acked-and-lost
    match client.insert(Interval::new(u64::MAX, 5, 9)) {
        Err(ClientError::Server(Status::ReservedId)) => {}
        other => panic!("expected ReservedId, got {other:?}"),
    }
    // ... and the connection still answers queries
    let ids = client.query(RangeQuery::new(0, DOM - 1)).unwrap();
    assert_eq!(ids.len(), w.data.len());

    drop(client);
    server.shutdown();
}

/// Seeded garbage fuzz: arbitrary byte streams must never panic the
/// server; every connection either errors out or EOFs, and the server
/// still serves a clean connection afterwards. Any seed that ever
/// breaks this graduates into `tests/regressions.rs` at the workspace
/// root.
#[test]
fn garbage_streams_never_panic_the_server() {
    let w = fuzz::workload(0x5e4e_0005, DOM, 200, 0, 0);
    let server = start_server(&w.data, 3, ServeConfig::default());
    for seed in 0..32u64 {
        let mut rng = fuzz::Rng::new(0xbad_c0de ^ seed);
        let len = 1 + (rng.below(200) as usize);
        let mut junk = Vec::with_capacity(len);
        for _ in 0..len {
            // bias towards the magic byte so some frames get past the
            // header checks into payload validation
            let b = if rng.below(4) == 0 {
                0x69
            } else {
                (rng.next_u64() & 0xFF) as u8
            };
            junk.push(b);
        }
        let (r, mut wtr) = raw_connect(&server);
        wtr.write_all(&junk).unwrap();
        drop(wtr);
        let _ = drain_statuses(r); // any statuses are fine; no panic, no hang
    }
    // the scheduler survived 32 garbage connections
    let mut client = connect(&server);
    let ids = client.query(RangeQuery::new(0, DOM - 1)).unwrap();
    assert_eq!(ids.len(), w.data.len());
    drop(client);
    server.shutdown();
}

/// Catalog-era failure modes are all recoverable: bad relation bytes,
/// unknown index ids, unknown flag bits, truncated catalog verbs, and
/// semantic catalog misuse each earn an error trailer — and the very
/// same connection keeps serving afterwards.
#[test]
fn unknown_verbs_and_indexes_error_recoverably() {
    let w = fuzz::workload(0x5e4e_0007, DOM, 300, 4, 0);
    let server = start_server(&w.data, 2, ServeConfig::default());

    // raw frames: every case on ONE connection, then a real query
    let mut raw = bytes::BytesMut::new();
    {
        use bytes::BufMut;
        // 1. Allen with a relation byte past the 13 relations → BadVerb
        raw.put_u8(0x69);
        raw.put_u8(1);
        raw.put_u8(0x0B); // Allen
        raw.put_u8(0);
        raw.put_u32_le(17);
        raw.put_u8(13); // first invalid relation discriminant
        raw.put_u64_le(10);
        raw.put_u64_le(20);
        // 2. query addressed at a never-created index id → UnknownIndex
        raw.put_u8(0x69);
        raw.put_u8(1);
        raw.put_u8(0x01); // Query
        raw.put_u8(serve::FLAG_INDEXED);
        raw.put_u32_le(20);
        raw.put_u32_le(999);
        raw.put_u64_le(0);
        raw.put_u64_le(50);
        // 3. unknown flag bit → BadVerb (frame is well-formed, so the
        //    connection survives)
        raw.put_u8(0x69);
        raw.put_u8(1);
        raw.put_u8(0x01);
        raw.put_u8(0x80);
        raw.put_u32_le(16);
        raw.put_u64_le(0);
        raw.put_u64_le(50);
        // 4. CreateIndex whose name length overruns the payload →
        //    BadLength, still recoverable
        raw.put_u8(0x69);
        raw.put_u8(1);
        raw.put_u8(0x07); // CreateIndex
        raw.put_u8(0);
        raw.put_u32_le(3);
        raw.put_u8(200); // claims a 200-byte name, 2 bytes follow
        raw.put_u8(b'h');
        raw.put_u8(b'i');
        // 5. histogram with width 0 → BadVerb
        raw.put_u8(0x69);
        raw.put_u8(1);
        raw.put_u8(0x0E); // Histogram
        raw.put_u8(0);
        raw.put_u32_le(24);
        raw.put_u64_le(0); // width 0
        raw.put_u64_le(0);
        raw.put_u64_le(100);
        // then a well-formed query proving the connection is intact
        serve::proto::encode_request(
            &mut raw,
            &serve::Request::Query(RangeQuery::new(0, DOM - 1)),
        );
    }
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    use serve::Transport;
    let (r, mut wtr) = client_end.split().unwrap();
    wtr.write_all(raw.as_slice()).unwrap();
    let mut rd = serve::FrameReader::new(r);
    for (i, want) in [
        Status::BadVerb,
        Status::UnknownIndex,
        Status::BadVerb,
        Status::BadLength,
        Status::BadVerb,
    ]
    .iter()
    .enumerate()
    {
        let f = rd.read_frame().unwrap().unwrap();
        assert_eq!(f.kind, serve::Kind::End, "trailer {i}");
        use bytes::Buf;
        assert_eq!(Status::from_u8(f.payload.clone().get_u8()), *want, "{i}");
    }
    let mut results = 0usize;
    loop {
        let f = rd.read_frame().unwrap().unwrap();
        match f.kind {
            serve::Kind::Results => results += f.payload.len() / 8,
            serve::Kind::End => break,
            k => panic!("unexpected {k:?}"),
        }
    }
    assert_eq!(results, w.data.len(), "query after five rejected verbs");
    drop(wtr);

    // semantic catalog misuse through the typed client
    let mut client = connect(&server);
    match client.drop_index("default") {
        Err(ClientError::Server(Status::BadVerb)) => {}
        other => panic!("dropping the default index: {other:?}"),
    }
    match client.use_index("nope") {
        Err(ClientError::Server(Status::UnknownIndex)) => {}
        other => panic!("using an unknown index: {other:?}"),
    }
    match client.drop_index("nope") {
        Err(ClientError::Server(Status::UnknownIndex)) => {}
        other => panic!("dropping an unknown index: {other:?}"),
    }
    client.create_index("twice", 0, 99).unwrap();
    match client.create_index("twice", 0, 99) {
        Err(ClientError::Server(Status::BadVerb)) => {}
        other => panic!("duplicate create: {other:?}"),
    }
    match client.join_on(None, 999, RangeQuery::new(0, 50)) {
        Err(ClientError::Server(Status::UnknownIndex)) => {}
        other => panic!("join against an unknown inner: {other:?}"),
    }
    // a histogram whose bucket count explodes is refused, not allocated
    match client.histogram(1, RangeQuery::new(0, 100_000_000)) {
        Err(ClientError::Server(Status::BadVerb)) => {}
        other => panic!("oversized histogram: {other:?}"),
    }
    // the connection still answers real queries afterwards
    let ids = client.query(RangeQuery::new(0, DOM - 1)).unwrap();
    assert_eq!(ids.len(), w.data.len());
    drop(client);
    server.shutdown();
}

/// Pipelined queries across the batch boundary come back in send order
/// with the same results as one-at-a-time calls.
#[test]
fn pipelined_replies_preserve_request_order() {
    let w = fuzz::workload(0x5e4e_0006, DOM, 500, 40, 0);
    let server = start_server(
        &w.data,
        4,
        ServeConfig {
            max_batch: 8,
            ..Default::default()
        },
    );
    let mut client = connect(&server);
    for q in &w.queries {
        client.send(&serve::Request::Query(*q)).unwrap();
    }
    let oracle = ScanOracle::new(&w.data);
    for q in &w.queries {
        let mut got: Vec<IntervalId> = Vec::new();
        let reply = client.recv_reply(|ids| got.extend_from_slice(ids)).unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(reply.count as usize, got.len());
        got.sort_unstable();
        assert_eq!(got, oracle.query_sorted(*q), "{q:?}");
    }
    drop(client);
    server.shutdown();
}
