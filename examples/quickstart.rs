//! Quickstart: build a HINT^m index, run range / stabbing / count /
//! exists / first-k queries, batch queries over sealed storage, and
//! handle updates through the hybrid index.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use hint_suite::hint_core::{
    FirstK, Hint, HybridHint, Interval, IntervalIndex, QuerySink, RangeQuery,
};

fn main() {
    // --- 1. model your records as (id, start, end) triples -------------
    let data = vec![
        Interval::new(1, 10, 25), // e.g. a booking from t=10 to t=25
        Interval::new(2, 20, 40),
        Interval::new(3, 50, 60),
        Interval::new(4, 5, 90), // one long-running record
    ];

    // --- 2. build the read-optimized index ------------------------------
    // `m` controls the hierarchy depth: 2^m bottom partitions. The §3.3
    // cost model (hint_core::m_opt) can pick this for you; 10 is a fine
    // default for small domains.
    let index = Hint::build(&data, 10);

    // --- 3. range query: everything overlapping [22, 55] ----------------
    let mut results = Vec::new();
    index.query(RangeQuery::new(22, 55), &mut results);
    results.sort_unstable();
    println!("overlapping [22, 55]: {results:?}"); // [1, 2, 3, 4]
    assert_eq!(results, vec![1, 2, 3, 4]);

    // --- 4. stabbing query: who is active at t = 15? --------------------
    results.clear();
    index.stab(15, &mut results);
    results.sort_unstable();
    println!("active at t=15:       {results:?}"); // [1, 4]
    assert_eq!(results, vec![1, 4]);

    // --- 5. count / exists: no result vector is ever materialized -------
    // These run the same partition scan but emit into a CountSink /
    // ExistsSink; `exists` additionally stops at the first hit.
    println!(
        "count [22, 55]:       {}",
        index.count(RangeQuery::new(22, 55))
    ); // 4
    assert_eq!(index.count(RangeQuery::new(22, 55)), 4);
    assert!(index.exists(RangeQuery::new(12, 12)));
    assert!(!index.exists(RangeQuery::new(95, 99)));

    // --- 6. first-k: LIMIT-style queries terminate the scan early -------
    let mut first = FirstK::new(2);
    index.query_sink(RangeQuery::new(0, 100), &mut first);
    println!("first 2 of [0, 100]:  {:?}", first.ids());
    assert_eq!(first.len(), 2);

    // --- 7. seal + query_batch: freeze into the columnar (CSR) layout
    // and answer many queries with one shared level walk. Each sink
    // receives exactly what a solo `query_sink` call would emit.
    let mut index = index;
    index.seal();
    let queries = [RangeQuery::new(0, 15), RangeQuery::new(45, 58)];
    let (mut q0, mut q1) = (Vec::new(), Vec::new());
    {
        let mut sinks: Vec<&mut dyn QuerySink> = vec![&mut q0, &mut q1];
        index.query_batch(&queries, &mut sinks);
    }
    q0.sort_unstable();
    q1.sort_unstable();
    println!("batched [0,15]:       {q0:?}"); // [1, 4]
    println!("batched [45,58]:      {q1:?}"); // [3, 4]
    assert_eq!((q0, q1), (vec![1, 4], vec![3, 4]));

    // --- 8. updates: use the hybrid main+delta index (§4.4) -------------
    let mut live = HybridHint::new(&data, 0, 1_000, 10);
    live.insert(Interval::new(5, 70, 80));
    live.delete(&Interval::new(2, 20, 40));
    results.clear();
    live.query(RangeQuery::new(0, 100), &mut results);
    results.sort_unstable();
    println!("after insert+delete:  {results:?}"); // [1, 3, 4, 5]
    assert_eq!(results, vec![1, 3, 4, 5]);

    // --- 9. serving: put the index behind the wire protocol -------------
    // A `Server` owns a sharded engine (`Session`) and batches queries
    // across client connections; clients speak the length-prefixed
    // binary protocol over TCP or in-memory pipes (see docs/protocol.md
    // and examples/serve_client.rs for the TCP variant).
    use hint_suite::hint_core::{Domain, HintMSubs, Session, ShardedIndex, SubsConfig};
    let sharded = ShardedIndex::build_with_domain(&data, 0, 1_000, 2, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 6), SubsConfig::full())
    });
    let server = serve::Server::start(Session::new(sharded), serve::ServeConfig::default())
        .expect("start server");
    let (client_end, server_end) = serve::duplex();
    server.attach(server_end);
    let mut client = serve::Client::new(client_end).expect("split transport");
    let mut served = client.query(RangeQuery::new(22, 55)).unwrap();
    served.sort_unstable();
    println!("served [22, 55]:      {served:?}"); // same as step 3
    assert_eq!(served, vec![1, 2, 3, 4]);
    client.insert(Interval::new(9, 30, 35)).unwrap(); // acked write
    assert!(client.seal().unwrap());
    // stream the reply chunk-by-chunk through a SliceSink — no
    // full-result Vec on the client either
    let mut streamed = Vec::new();
    let mut chunks = 0usize;
    {
        use hint_suite::hint_core::SliceSink;
        let mut sink = SliceSink::new(|ids: &[u64]| {
            chunks += 1;
            streamed.extend_from_slice(ids);
        });
        client
            .query_sink(RangeQuery::new(31, 32), &mut sink)
            .unwrap();
    }
    streamed.sort_unstable();
    assert_eq!(streamed, vec![2, 4, 9]); // the acked insert is visible
    println!("streamed [31, 32]:    {streamed:?} in {chunks} chunk(s)");
    drop(client);
    server.shutdown();

    // --- 10. the shard pool and its two read routes --------------------
    // A `Session` owns its shards through a `ShardPool` with one helper
    // thread per shard: `query_batch_merge` fans a batch out to the
    // helpers (zero per-batch thread spawns), and `query_batch_inline`,
    // the route the server drives, walks it on the calling thread. Both
    // give what solo queries give. Each shard's m is fixed at build
    // time; a reseal only folds the pending writes into the arenas.
    let sharded = ShardedIndex::build_with_domain(&data, 0, 1_000, 2, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 4), SubsConfig::full())
    });
    let mut session = Session::new(sharded);
    session.try_insert(Interval::new(10, 400, 500)).unwrap(); // dirty shard 0
    assert!(session.seal_if_dirty()); // reseal folds the write in
    let queries: Vec<RangeQuery> = (0..8)
        .map(|t| RangeQuery::new(t * 120, t * 120 + 60))
        .collect();
    let mut fanned: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    session.query_batch_merge(&queries, &mut fanned);
    let mut inline: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    session.query_batch_inline(&queries, &mut inline);
    assert_eq!(fanned, inline); // same ids, same order
    assert!(session.pool().exists(RangeQuery::new(420, 430)));
    println!("pool dispatch stats:  {:?}", session.pool().stats());

    // --- 11. durable snapshot + restore ---------------------------------
    // `snapshot` seals if dirty, then writes the columnar arenas as a
    // checksummed file via temp file + fsync + atomic rename — a crash
    // at any byte leaves the old snapshot or the new one, never
    // garbage. `restore` bulk-loads the file back (no re-sort, no
    // re-assignment) and fails with a typed error on any corruption.
    // Over the wire, `Client::snapshot_fetch` streams the same bytes so
    // a fresh peer can bootstrap from a live server (docs/protocol.md).
    let path = std::env::temp_dir().join(format!("hint-quickstart-{}.snap", std::process::id()));
    let written = session.snapshot(&path).expect("snapshot save");
    let restored = Session::restore(&path).expect("snapshot restore");
    assert_eq!(restored.len(), session.len());
    assert!(restored.pool().exists(RangeQuery::new(420, 430)));
    println!(
        "snapshot:             {written} bytes, restored {} intervals",
        restored.len()
    );
    std::fs::remove_file(&path).ok();

    // --- 12. named indexes and a served join ----------------------------
    // The server hosts a catalog of named indexes; every verb can
    // address one explicitly (`*_on`), and `Join` runs server-side
    // between two of them, streaming (outer, inner) id pairs. Writes
    // barrier only their own index (see docs/protocol.md).
    let sharded = ShardedIndex::build_with_domain(&data, 0, 1_000, 2, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 6), SubsConfig::full())
    });
    let server = serve::Server::start(Session::new(sharded), serve::ServeConfig::default())
        .expect("start server");
    let (client_end, server_end) = serve::duplex();
    server.attach(server_end);
    let mut client = serve::Client::new(client_end).expect("split transport");
    let trips = client.create_index("trips", 0, 1_000).unwrap();
    let zones = client.create_index("zones", 0, 1_000).unwrap();
    client
        .insert_on(Some(trips), Interval::new(1, 10, 40))
        .unwrap();
    client
        .insert_on(Some(trips), Interval::new(2, 35, 90))
        .unwrap();
    client
        .insert_on(Some(zones), Interval::new(7, 30, 50))
        .unwrap();
    // Allen-relation query against a named index, evaluated server-side
    use hint_suite::hint_core::AllenRelation;
    let overlaps = client
        .allen_on(
            Some(trips),
            AllenRelation::Overlaps,
            RangeQuery::new(35, 95),
        )
        .unwrap();
    assert_eq!(overlaps, vec![1]); // [10, 40] strictly overlaps [35, 95]
                                   // server-side streamed join: trips ⋈ zones inside a window
    let pairs = client
        .join_on(Some(trips), zones, RangeQuery::new(0, 100))
        .unwrap();
    assert_eq!(pairs, vec![(1, 7), (2, 7)]); // both trips meet zone 7
    for info in client.list_indexes().unwrap() {
        println!("index {} {:?}: {} live", info.id, info.name, info.len);
    }
    server.shutdown();

    // --- 13. latency engineering: natural batching, admission --------
    // The scheduler never waits on a timer: whenever it is free it runs
    // every request already queued (up to HINT_SERVE_MAX_BATCH) as one
    // batch, so a lone query is answered at once and load forms larger
    // batches on its own. Per-connection + global admission budgets
    // shed overload with a recoverable `Overloaded` instead of queueing
    // without bound — see docs/tuning.md and docs/protocol.md.
    let sharded = ShardedIndex::build_with_domain(&data, 0, 1_000, 2, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 6), SubsConfig::full())
    });
    let server = serve::Server::start(Session::new(sharded), serve::ServeConfig::default())
        .expect("start server");
    let (client_end, server_end) = serve::duplex();
    server.attach(server_end);
    let mut client = serve::Client::new(client_end).expect("split transport");
    let mut lone = client.query(RangeQuery::new(22, 55)).unwrap();
    lone.sort_unstable();
    assert_eq!(lone, vec![1, 2, 3, 4]);
    println!("served [22, 55]:      {lone:?}");
    server.shutdown();

    println!("quickstart OK");
}
