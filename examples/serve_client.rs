//! Serving over real sockets: a TCP loopback server over a sharded,
//! sealed HINT^m, driven by concurrent clients issuing interleaved
//! queries and writes — and checked against a directly-queried twin.
//!
//! ```text
//! cargo run --example serve_client --release
//! ```

use hint_suite::hint_core::{
    Domain, HintMSubs, Interval, RangeQuery, ScanOracle, Session, ShardedIndex, SubsConfig,
};
use serve::{Client, ServeConfig, Server};
use std::net::{TcpListener, TcpStream};

fn main() {
    // a modest dataset so the example runs in milliseconds
    let dom = 1 << 16;
    let data: Vec<Interval> = (0..20_000u64)
        .map(|i| {
            let st = (i * 211) % (dom - 600);
            Interval::new(i, st, st + 1 + i % 600)
        })
        .collect();
    let twin = ScanOracle::new(&data);

    // engine: 4 contiguous domain shards, sealed columnar layout
    let index = ShardedIndex::build_with_domain(&data, 0, dom - 1, 4, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 10), SubsConfig::full())
    });
    // the batch cap and admission budgets come from the environment
    // when set (HINT_SERVE_MAX_BATCH, HINT_SERVE_CONN_PENDING,
    // HINT_SERVE_MAX_PENDING; garbled values warn and fall back), else
    // the defaults
    let mut server = Server::start(Session::new(index), ServeConfig::from_env()).expect("start");

    // TCP loopback on an OS-assigned port
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.listen_tcp(listener).expect("listen");
    println!("serving on {addr}");

    // phase 1: concurrent clients, read-only traffic, checked per query
    let queries_per_client = 64u64;
    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let twin = &twin;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut client = Client::new(stream).expect("split stream");
                for i in 0..queries_per_client {
                    let st = (c * 17_000 + i * 997) % (dom - 2_000);
                    let q = RangeQuery::new(st, st + 1_500);
                    let mut got = client.query(q).expect("query");
                    got.sort_unstable();
                    assert_eq!(got, twin.query_sorted(q), "client {c} on {q:?}");
                }
            });
        }
    });
    println!("phase 1: 4 clients x {queries_per_client} queries matched the direct index");

    // phase 2: one writer interleaves inserts/deletes/seal with queries
    let stream = TcpStream::connect(addr).expect("connect writer");
    let mut client = Client::new(stream).expect("split stream");
    let mut twin = twin;
    for i in 0..200u64 {
        let st = (i * 313) % (dom - 100);
        let s = Interval::new(1_000_000 + i, st, st + 80);
        client.insert(s).expect("insert");
        twin.insert(s);
        if i % 3 == 0 {
            let q = RangeQuery::new(st, st + 80);
            let mut got = client.query(q).expect("query after insert");
            got.sort_unstable();
            assert_eq!(got, twin.query_sorted(q), "write {i}");
        }
        if i % 7 == 0 {
            assert!(client.delete(s).expect("delete"));
            assert!(twin.delete(s.id));
        }
    }
    assert!(client.seal().expect("seal"), "dirty index must reseal");
    let q = RangeQuery::new(0, dom - 1);
    let mut got = client.query(q).expect("full sweep");
    got.sort_unstable();
    assert_eq!(got, twin.query_sorted(q), "post-seal full sweep");
    println!(
        "phase 2: 200 writes + seal; full-domain sweep matches ({} live)",
        got.len()
    );

    let stats = server.stats();
    println!(
        "scheduler: {} batches / {} queries (mean batch {:.1}, largest {}), {} writes",
        stats.batches,
        stats.queries,
        stats.mean_batch(),
        stats.largest_batch,
        stats.writes,
    );
    server.shutdown();
    println!("serve_client OK");
}
