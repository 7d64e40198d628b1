//! Wire framing under batching: the server reads requests in bursts,
//! answers a whole batch per connection in one buffer and drains many
//! replies into one write. None of that may show on the wire — replies
//! stay in request order and byte-identical to one-at-a-time serving,
//! however the bytes are split across reads and writes.

use hint_core::{
    AllenRelation, Domain, HintMSubs, Interval, RangeQuery, ScanOracle, Session, ShardedIndex,
    SubsConfig,
};
use serve::proto::{encode_request, HEADER_LEN};
use serve::{duplex, Client, DuplexTransport, Request, ServeConfig, Server, Status, Transport};
use std::io::{self, BufReader, Read, Write};
use test_support::fuzz;

const DOM: u64 = 8_192;

fn start_server(data: &[Interval], config: ServeConfig) -> Server {
    let sharded = ShardedIndex::build_with_domain(data, 0, DOM - 1, 4, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 9), SubsConfig::update_friendly())
    });
    Server::start(Session::new(sharded), config).expect("start server")
}

/// The default configuration with a per-connection admission budget
/// that covers every pipeline here: each request is outstanding at once,
/// and none may be shed.
fn admit_all() -> ServeConfig {
    ServeConfig {
        conn_pending: 4_096,
        ..ServeConfig::default()
    }
}

/// Attaches a fresh connection and returns the client's raw halves.
fn raw_conn(server: &Server) -> (BufReader<impl Read>, impl Write) {
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    let (r, w) = client_end.split().unwrap();
    (BufReader::new(r), w)
}

fn encode_all(reqs: &[Request]) -> Vec<u8> {
    let mut out = bytes::BytesMut::new();
    for req in reqs {
        encode_request(&mut out, req);
    }
    Vec::from(out)
}

/// One reply as it crossed the wire: its raw bytes, the ids of its
/// `Results` frames and its `End` trailer.
struct RawReply {
    bytes: Vec<u8>,
    ids: Vec<u64>,
    status: Status,
    count: u64,
}

/// Reads one reply's frames, framing by the header length only.
fn read_reply(r: &mut impl Read) -> io::Result<RawReply> {
    let mut reply = RawReply {
        bytes: Vec::new(),
        ids: Vec::new(),
        status: Status::Ok,
        count: 0,
    };
    loop {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        reply.bytes.extend_from_slice(&header);
        reply.bytes.extend_from_slice(&payload);
        match header[2] {
            0x81 => reply.ids.extend(
                payload
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
            ),
            0x82 => {
                reply.status = Status::from_u8(payload[0]);
                reply.count = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                return Ok(reply);
            }
            k => panic!("unexpected reply kind {k:#x}"),
        }
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// A burst of 512 queries in one `write_all`: the reader decodes them
/// in bursts, yet every reply comes back in request order and matches
/// the scan oracle.
#[test]
fn pipelined_burst_replies_in_fifo_order() {
    let w = fuzz::workload(0xf4a3_0001, DOM, 800, 512, 0);
    let oracle = ScanOracle::new(&w.data);
    let server = start_server(&w.data, admit_all());
    let (mut r, mut wr) = raw_conn(&server);
    let reqs: Vec<Request> = w.queries.iter().map(|&q| Request::Query(q)).collect();
    wr.write_all(&encode_all(&reqs)).unwrap();
    for (i, &q) in w.queries.iter().enumerate() {
        let reply = read_reply(&mut r).unwrap();
        assert_eq!(reply.status, Status::Ok, "reply {i}");
        assert_eq!(reply.count, reply.ids.len() as u64, "reply {i}");
        assert_eq!(
            sorted(reply.ids),
            oracle.query_sorted(q),
            "reply {i} ({q:?})"
        );
    }
    server.shutdown();
}

/// The read half of a transport that hands out one byte per `read`.
struct Trickle<R>(R);

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(1);
        self.0.read(&mut buf[..n])
    }
}

/// A duplex endpoint whose reads return at most one byte, so every
/// frame arrives split across many reads.
struct TrickleTransport(DuplexTransport);

impl Transport for TrickleTransport {
    type Reader = Trickle<<DuplexTransport as Transport>::Reader>;
    type Writer = <DuplexTransport as Transport>::Writer;

    fn split(self) -> io::Result<(Self::Reader, Self::Writer)> {
        let (r, w) = self.0.split()?;
        Ok((Trickle(r), w))
    }
}

/// Frames split across 1-byte reads, on both the server's reader and
/// the client's, decode exactly as whole ones do.
#[test]
fn frames_split_across_one_byte_reads() {
    let w = fuzz::workload(0xf4a3_0002, DOM, 600, 40, 0);
    let oracle = ScanOracle::new(&w.data);
    let server = start_server(&w.data, ServeConfig::default());
    let (client_end, server_end) = duplex();
    server.attach(TrickleTransport(server_end));
    let mut client = Client::new(TrickleTransport(client_end)).unwrap();
    // one at a time, then the same queries pipelined
    for &q in &w.queries {
        assert_eq!(sorted(client.query(q).unwrap()), oracle.query_sorted(q));
    }
    for &q in &w.queries {
        client.send(&Request::Query(q)).unwrap();
    }
    for &q in &w.queries {
        let mut ids = Vec::new();
        let reply = client
            .recv_reply(|chunk| ids.extend_from_slice(chunk))
            .unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(sorted(ids), oracle.query_sorted(q));
    }
    server.shutdown();
}

/// An unknown-kind frame in the middle of a burst earns a recoverable
/// `BadKind` trailer in its own FIFO slot; the requests around it are
/// answered normally and the connection stays up.
#[test]
fn unknown_kind_mid_burst_is_answered_in_its_slot() {
    let w = fuzz::workload(0xf4a3_0003, DOM, 600, 8, 0);
    let oracle = ScanOracle::new(&w.data);
    let server = start_server(&w.data, ServeConfig::default());
    let (mut r, mut wr) = raw_conn(&server);
    let query = |i: usize| Request::Query(w.queries[i]);
    let mut burst = encode_all(&[query(0), query(1), query(2)]);
    burst.extend_from_slice(&[0x69, 1, 0x7E, 0, 4, 0, 0, 0, 1, 2, 3, 4]);
    burst.extend_from_slice(&encode_all(&[query(3), query(4)]));
    wr.write_all(&burst).unwrap();
    for i in 0..3 {
        let reply = read_reply(&mut r).unwrap();
        assert_eq!(sorted(reply.ids), oracle.query_sorted(w.queries[i]));
    }
    let junk = read_reply(&mut r).unwrap();
    assert_eq!((junk.status, junk.count), (Status::BadKind, 0));
    assert!(junk.ids.is_empty());
    for i in 3..5 {
        let reply = read_reply(&mut r).unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(sorted(reply.ids), oracle.query_sorted(w.queries[i]));
    }
    // a later burst on the same connection is still served
    wr.write_all(&encode_all(&[query(5), query(6), query(7)]))
        .unwrap();
    for i in 5..8 {
        let reply = read_reply(&mut r).unwrap();
        assert_eq!(sorted(reply.ids), oracle.query_sorted(w.queries[i]));
    }
    server.shutdown();
}

/// EOF in the middle of a frame, right after a burst of whole ones:
/// every whole frame's reply is delivered first, then one fatal
/// `Truncated` trailer, then the server closes the connection.
#[test]
fn eof_mid_frame_after_a_burst_delivers_earlier_replies_first() {
    let w = fuzz::workload(0xf4a3_0004, DOM, 600, 24, 0);
    let oracle = ScanOracle::new(&w.data);
    let server = start_server(&w.data, ServeConfig::default());
    let (mut r, mut wr) = raw_conn(&server);
    let reqs: Vec<Request> = w.queries.iter().map(|&q| Request::Query(q)).collect();
    let mut burst = encode_all(&reqs);
    let cut = encode_all(&[Request::Query(RangeQuery::new(1, 2))]);
    burst.extend_from_slice(&cut[..HEADER_LEN + 5]);
    wr.write_all(&burst).unwrap();
    drop(wr);
    for &q in &w.queries {
        let reply = read_reply(&mut r).unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(sorted(reply.ids), oracle.query_sorted(q));
    }
    let last = read_reply(&mut r).unwrap();
    assert_eq!((last.status, last.count), (Status::Truncated, 0));
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing may follow the fatal trailer");
    server.shutdown();
}

/// A client that sends 2,000 mixed read requests before reading any
/// reply gets every reply byte-identical to what one-at-a-time serving
/// of the same request returns.
#[test]
fn deep_pipeline_is_byte_identical_to_one_at_a_time() {
    let w = fuzz::workload(0xf4a3_0005, DOM, 1_500, 2_000, 0);
    let reqs: Vec<Request> = w
        .queries
        .iter()
        .enumerate()
        .map(|(i, &q)| match i % 8 {
            5 => Request::TopK { k: 5, q },
            6 => Request::Allen {
                rel: AllenRelation::ALL[i % AllenRelation::ALL.len()],
                q,
            },
            7 => Request::Histogram {
                width: (q.end - q.st) / 4 + 1,
                q,
            },
            _ => Request::Query(q),
        })
        .collect();
    let server = start_server(&w.data, admit_all());
    let (mut r, mut wr) = raw_conn(&server);
    let solo: Vec<Vec<u8>> = reqs
        .iter()
        .map(|req| {
            wr.write_all(&encode_all(std::slice::from_ref(req)))
                .unwrap();
            read_reply(&mut r).unwrap().bytes
        })
        .collect();
    wr.write_all(&encode_all(&reqs)).unwrap();
    for (i, want) in solo.iter().enumerate() {
        let got = read_reply(&mut r).unwrap();
        assert_eq!(got.status, Status::Ok, "reply {i} ({:?})", reqs[i]);
        assert_eq!(&got.bytes, want, "reply {i} ({:?})", reqs[i]);
    }
    server.shutdown();
}
