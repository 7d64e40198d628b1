//! Stateful lifecycle fuzz for the pooled serving engine: long seeded
//! interleavings of insert / delete / seal / query (solo, batched,
//! merged, bounded sinks) driven through a [`Session`] — whose shards
//! live in its shard pool — against the `ScanOracle` twin, across the
//! `HINT_TEST_SHARDS` sweep.
//!
//! Also home to the shard-pool shutdown/respawn coverage (drop a pool
//! mid-stream, reseal while a batch is pipelined behind the write
//! barrier, rebuild a pool from a recovered index).
//!
//! **Convention:** any seed that ever fails here is shrunk, fixed, and
//! then added to `tests/regressions.rs` (`replay_lifecycle`) forever.

use hint_suite::hint_core::{
    Domain, FirstK, HandleSink, HintMSubs, Interval, IntervalId, RangeQuery, ResultRun, ScanOracle,
    Session, ShardPool, ShardedIndex, SubsConfig,
};
use serve::{duplex, Client, ServeConfig, Server, Status};
use test_support::{expect_same_results, fuzz, shard_counts};

const DOM: u64 = 4_096;

fn build_sharded(data: &[Interval], k: usize, cfg: SubsConfig) -> ShardedIndex<HintMSubs> {
    ShardedIndex::build_with_domain(data, 0, DOM - 1, k, |slice, lo, hi| {
        HintMSubs::build_with_domain(slice, Domain::new(lo, hi, 9), cfg)
    })
}

/// Sorted result set of one solo query through the session.
fn session_sorted(session: &Session<HintMSubs>, q: RangeQuery) -> Vec<IntervalId> {
    let mut got: Vec<IntervalId> = Vec::new();
    session.query_sink(q, &mut got);
    got.sort_unstable();
    got
}

/// The CI seed matrix: 64 fixed seeds, replayed forever. The driver
/// lives in `test_support::lifecycle` so any failing seed can be added
/// to `tests/regressions.rs` and replay the identical interleaving.
#[test]
fn lifecycle_fuzz_seed_matrix() {
    for seed in 1..=64u64 {
        test_support::lifecycle::replay(seed);
    }
}

/// Zero-copy slice handles across a reseal epoch, deterministically:
/// handles taken from one sealed epoch must materialize that epoch's
/// snapshot even after deletes tombstone the shared columns
/// (copy-on-write), an insert dirties the index, and a reseal replaces
/// the arenas underneath them. The seeded driver's case 11 fuzzes the
/// same property across the whole `lifecycle_fuzz_seed_matrix`.
#[test]
fn zero_copy_handles_survive_a_reseal_epoch() {
    let w = fuzz::workload(0x2cee, DOM, 500, 16, 0);
    for k in shard_counts() {
        let mut session = Session::new(build_sharded(&w.data, k, SubsConfig::update_friendly()));
        let mut oracle = ScanOracle::new(&w.data);
        // epoch 1: acquire handles into the freshly sealed arenas
        let qs = &w.queries[..12.min(w.queries.len())];
        let want: Vec<Vec<IntervalId>> = qs.iter().map(|&q| oracle.query_sorted(q)).collect();
        let mut handles: Vec<HandleSink> = qs.iter().map(|_| HandleSink::new()).collect();
        session.query_batch_merge(qs, &mut handles);
        if k == 1 {
            // the property below is vacuous unless real handles exist:
            // arena offers are length-gated (`ARENA_HANDLE_MIN`), so at
            // K=1 (no replica filtering) at least one run must have
            // crossed the merge boundary as a live arena slice
            assert!(
                handles
                    .iter_mut()
                    .any(|s| s.runs().iter().any(|r| matches!(r, ResultRun::Arena(_)))),
                "no arena handle acquired — the reseal-epoch property went vacuous"
            );
        }
        // mutate: deletes tombstone the very columns the handles point
        // into (forcing the copy-on-write), an insert lands, and the
        // reseal builds replacement arenas
        for victim in w.data.iter().step_by(7) {
            assert!(session.delete(victim), "K={k} seeded victim missing");
            oracle.delete(victim.id);
        }
        session
            .try_insert(Interval::new(920_000, 100, 2_000))
            .unwrap();
        oracle.insert(Interval::new(920_000, 100, 2_000));
        assert!(session.seal_if_dirty());
        // the old epoch's handles still read the old epoch's snapshot
        for (sink, want) in handles.into_iter().zip(&want) {
            let mut got = sink.into_vec();
            got.sort_unstable();
            assert_eq!(&got, want, "K={k}: handle diverged across the epoch");
        }
        // and fresh queries see the new epoch
        for &q in qs {
            assert_eq!(session_sorted(&session, q), oracle.query_sorted(q), "K={k}");
        }
    }
}

// ---- shard-pool shutdown / respawn coverage ------------------------

/// Dropping a pool (and a session) right after a burst of writes must
/// join without deadlocking — the drop path closes every job channel
/// and joins the helpers.
#[test]
fn dropping_a_busy_pool_does_not_deadlock() {
    let w = fuzz::workload(0x11fe, DOM, 400, 0, 0);
    for k in shard_counts() {
        let mut pool = ShardPool::new(build_sharded(&w.data, k, SubsConfig::full()));
        // a pool dropped right after a burst of writes
        for i in 0..256u64 {
            let st = (i * 13) % (DOM - 8);
            pool.insert(Interval::new(700_000 + i, st, st + 7));
        }
        drop(pool); // must join every helper, not leak or hang
    }
    // the session spelling: drop with a dirty overlay and queued writes
    let mut session = Session::new(build_sharded(&w.data, 4, SubsConfig::full()));
    for i in 0..256u64 {
        session
            .try_insert(Interval::new(
                800_000 + i,
                i % DOM,
                (i % DOM + 5).min(DOM - 1),
            ))
            .unwrap();
    }
    drop(session);
}

/// A server dropped mid-stream — pipelined queries in flight, replies
/// unread — must shut down cleanly (scheduler flushes, connection
/// threads unwind as their transports close).
#[test]
fn server_shutdown_with_pipelined_queries_in_flight() {
    let w = fuzz::workload(0x11ff, DOM, 300, 0, 0);
    let session = Session::new(build_sharded(&w.data, 4, SubsConfig::full()));
    let server = Server::start(session, ServeConfig::default()).unwrap();
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    let mut client = Client::new(client_end).unwrap();
    for i in 0..64u64 {
        let st = (i * 61) % DOM;
        client
            .send(&serve::Request::Query(RangeQuery::new(
                st,
                (st + 300).min(DOM - 1),
            )))
            .unwrap();
    }
    // read only a prefix of the replies, then abandon the connection
    for _ in 0..8 {
        let reply = client.recv_reply(|_| {}).unwrap();
        assert_eq!(reply.status, Status::Ok);
    }
    drop(client);
    server.shutdown(); // must not deadlock on the unread tail
}

/// Reseal while a batch is pipelined behind the write barrier: queries
/// before the Seal see the pre-seal index, queries after it the
/// resealed one, and every reply stays exact and in FIFO order on the
/// connection.
#[test]
fn reseal_behind_the_write_barrier_keeps_replies_exact() {
    let w = fuzz::workload(0x1200, DOM, 400, 24, 0);
    let mut oracle = ScanOracle::new(&w.data);
    let session = Session::new(build_sharded(&w.data, 4, SubsConfig::update_friendly()));
    let server = Server::start(session, ServeConfig::default()).unwrap();
    let (client_end, server_end) = duplex();
    server.attach(server_end);
    let mut client = Client::new(client_end).unwrap();
    // a run of stabs ahead of the barrier
    for t in 0..24u64 {
        client
            .send(&serve::Request::Query(RangeQuery::stab(t * 131)))
            .unwrap();
    }
    // pipeline: queries → insert (barrier) → seal (barrier) →
    // queries, all before reading a single reply
    for q in &w.queries[..12] {
        client.send(&serve::Request::Query(*q)).unwrap();
    }
    let fresh = Interval::new(900_000, 64, 1_900);
    client.send(&serve::Request::Insert(fresh)).unwrap();
    client.send(&serve::Request::Seal).unwrap();
    for q in &w.queries[12..] {
        client.send(&serve::Request::Query(*q)).unwrap();
    }
    // drain in order: stabs, pre-barrier queries (pre-insert snapshot),
    // insert ack, seal ack, post-barrier queries (post-insert snapshot)
    for t in 0..24u64 {
        let mut got: Vec<IntervalId> = Vec::new();
        let reply = client.recv_reply(|ids| got.extend_from_slice(ids)).unwrap();
        assert_eq!(reply.status, Status::Ok);
        got.sort_unstable();
        assert_eq!(got, oracle.query_sorted(RangeQuery::stab(t * 131)));
    }
    for q in &w.queries[..12] {
        let mut got: Vec<IntervalId> = Vec::new();
        let reply = client.recv_reply(|ids| got.extend_from_slice(ids)).unwrap();
        assert_eq!(reply.status, Status::Ok);
        got.sort_unstable();
        assert_eq!(got, oracle.query_sorted(*q), "pre-barrier {q:?}");
    }
    let ins = client.recv_reply(|_| {}).unwrap();
    assert_eq!(ins.status, Status::Ok);
    oracle.insert(fresh);
    let seal = client.recv_reply(|_| {}).unwrap();
    assert_eq!(seal.status, Status::Ok);
    for q in &w.queries[12..] {
        let mut got: Vec<IntervalId> = Vec::new();
        let reply = client.recv_reply(|ids| got.extend_from_slice(ids)).unwrap();
        assert_eq!(reply.status, Status::Ok);
        got.sort_unstable();
        assert_eq!(got, oracle.query_sorted(*q), "post-barrier {q:?}");
    }
    drop(client);
    server.shutdown();
}

/// `into_index` recovers the shards from a pool; a fresh pool
/// spun up from the result answers identically — the respawn path a
/// process uses to rebuild its pool after reconfiguring.
#[test]
fn pool_respawn_via_into_index_preserves_the_index() {
    let w = fuzz::workload(0x1201, DOM, 300, 24, 0);
    let oracle = ScanOracle::new(&w.data);
    for k in shard_counts() {
        let mut pool = ShardPool::new(build_sharded(&w.data, k, SubsConfig::full()));
        pool.seal_all();
        // route some writes through the first pool, then recover
        let extra = Interval::new(901_000, 10, DOM / 2);
        pool.insert(extra);
        let mut oracle = oracle.clone();
        oracle.insert(extra);
        let recovered = pool.into_index();
        assert_eq!(recovered.shard_count(), k.min(DOM as usize));
        let pool2 = ShardPool::new(recovered);
        expect_same_results(
            &format!("respawned pool K={k}"),
            &pool2,
            &oracle,
            &w.queries,
        );
    }
}

// ---- crash-safe snapshot / restore ---------------------------------

/// The crash-recovery matrix: a save of state B over a durable state A
/// is killed at *every* fault point the save has (each chunk write, the
/// fsync, the rename), and after each simulated crash the file at the
/// snapshot path must restore to a bit-identical pre- (A) or post- (B)
/// snapshot image — never garbage, never a panic. Read-side bit rot
/// must surface as a typed `RestoreError`.
#[test]
fn crash_recovery_matrix_covers_every_fault_point() {
    use hint_suite::hint_core::hintm::snapshot::tmp_siblings;
    use hint_suite::hint_core::{FaultIo, FaultKind, StdSnapshotIo};
    let dir = std::env::temp_dir().join(format!("hint-crash-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let w = fuzz::workload(0xFA01, DOM, 400, 12, 0);
    for k in shard_counts() {
        let path = dir.join(format!("k{k}.snap"));
        // state A: sealed seed build, durably saved
        let mut session = Session::new(build_sharded(&w.data, k, SubsConfig::update_friendly()));
        session.snapshot(&path).unwrap();
        let bytes_a = session.snapshot_bytes().unwrap();
        // state B: mutate past A (inserts + a delete), sealed by the
        // snapshot barrier
        let mut oracle_b = ScanOracle::new(&w.data);
        for i in 0..48u64 {
            let st = (i * 97) % (DOM - 9);
            let s = Interval::new(940_000 + i, st, st + 8);
            session.try_insert(s).unwrap();
            oracle_b.insert(s);
        }
        assert!(session.delete(&w.data[0]));
        oracle_b.delete(w.data[0].id);
        let bytes_b = session.snapshot_bytes().unwrap();
        assert_ne!(bytes_a, bytes_b, "states A and B must differ");

        // one counting pass learns how many write fault points the save
        // has (and commits B — put A back before the matrix runs)
        let mut counter = FaultIo::counting(StdSnapshotIo::default());
        session.snapshot_with(&path, &mut counter).unwrap();
        let write_points = counter.writes();
        assert!(write_points >= 1, "K={k}: save issued no writes");
        std::fs::write(&path, &bytes_a).unwrap();

        // pre-commit faults: the save errors, the temp is cleaned up,
        // and the previous snapshot restores bit-identically
        let mut cases: Vec<(FaultKind, usize)> = vec![(FaultKind::FsyncFail, 0)];
        for at in 0..write_points {
            cases.push((FaultKind::ShortWrite, at));
            cases.push((FaultKind::NoSpace, at));
        }
        for (kind, at) in cases {
            let mut io = FaultIo::failing(StdSnapshotIo::default(), kind, at, 7);
            assert!(
                session.snapshot_with(&path, &mut io).is_err(),
                "K={k} {kind:?}@{at}: save must report the fault"
            );
            assert!(
                tmp_siblings(&path).is_empty(),
                "K={k} {kind:?}@{at}: temp file leaked"
            );
            let mut back = Session::restore(&path)
                .unwrap_or_else(|e| panic!("K={k} {kind:?}@{at}: restore failed: {e}"));
            assert_eq!(
                back.snapshot_bytes().unwrap(),
                bytes_a,
                "K={k} {kind:?}@{at}: pre-crash snapshot not bit-identical"
            );
        }

        // a torn rename: the commit landed but the save reports failure
        // — recovery must find a valid snapshot either way (here: B)
        let mut io = FaultIo::failing(StdSnapshotIo::default(), FaultKind::TornRename, 0, 7);
        assert!(session.snapshot_with(&path, &mut io).is_err());
        let mut back = Session::restore(&path)
            .unwrap_or_else(|e| panic!("K={k}: post-torn-rename restore failed: {e}"));
        assert_eq!(
            back.snapshot_bytes().unwrap(),
            bytes_b,
            "K={k}: torn rename must leave the committed snapshot"
        );
        expect_same_results(
            &format!("restored twin after torn rename K={k}"),
            back.pool(),
            &oracle_b,
            &w.queries,
        );

        // read-side bit rot: every seeded flipped bit must surface as a
        // typed RestoreError — zero panics, zero silent corruption
        for seed in 0..16u64 {
            let mut io = FaultIo::failing(StdSnapshotIo::default(), FaultKind::BitFlip, 0, seed);
            assert!(
                Session::restore_with(&path, &mut io).is_err(),
                "K={k} seed={seed}: a flipped bit restored silently"
            );
        }
    }
}

/// A fresh server bootstraps from a live peer's snapshot stream over
/// real TCP: pull the snapshot bytes with `snapshot_fetch`, restore a
/// twin session from them, serve the twin from a second server, and
/// differential-check that both servers answer every seeded query
/// identically.
#[test]
fn tcp_peer_bootstrap_from_a_snapshot_stream() {
    use std::net::{TcpListener, TcpStream};
    let w = fuzz::workload(0xFA02, DOM, 500, 24, 0);
    let mut session = Session::new(build_sharded(&w.data, 4, SubsConfig::full()));
    // post-build churn so the snapshot barrier has something to seal
    session
        .try_insert(Interval::new(950_000, 100, 900))
        .unwrap();
    assert!(session.delete(&w.data[1]));
    let live = session.len();
    let mut server_a = Server::start(session, ServeConfig::default()).unwrap();
    let addr = server_a
        .listen_tcp(TcpListener::bind("127.0.0.1:0").unwrap())
        .unwrap();
    // peer bootstrap: fetch the snapshot over the wire, restore a twin
    let mut boot = Client::new(TcpStream::connect(addr).unwrap()).unwrap();
    let bytes = boot.snapshot_fetch().unwrap();
    let twin = Session::restore_bytes(&bytes).unwrap_or_else(|e| panic!("restore: {e}"));
    assert_eq!(twin.len(), live, "twin lost or invented intervals");
    let server_b = Server::start(twin, ServeConfig::default()).unwrap();
    let (b_client_end, b_server_end) = duplex();
    server_b.attach(b_server_end);
    let mut client_b = Client::new(b_client_end).unwrap();
    let mut client_a = Client::new(TcpStream::connect(addr).unwrap()).unwrap();
    for &q in &w.queries {
        let mut a = client_a.query(q).unwrap();
        let mut b = client_b.query(q).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "bootstrapped peer diverged on {q:?}");
    }
    drop((client_a, client_b, boot));
    server_a.shutdown();
    server_b.shutdown();
}

/// The dispatch-stop fix, end to end: a saturated first-k batch stops
/// walking sub-queries on the remaining shards (counted by
/// the pool's dispatch stats), at unchanged results.
#[test]
fn saturated_first_k_stops_dispatching_across_shards() {
    let w = fuzz::workload(0x1203, DOM, 600, 0, 0);
    let session = Session::new(build_sharded(&w.data, 4, SubsConfig::full()));
    let oracle = ScanOracle::new(&w.data);
    let full = RangeQuery::new(0, DOM - 1);
    let want = oracle.query_sorted(full);
    assert!(want.len() >= 8, "workload too sparse for the test");
    let queries = vec![full; 6];
    let mut sinks: Vec<FirstK> = queries.iter().map(|_| FirstK::new(2)).collect();
    let before = session.pool().stats();
    session.query_batch_merge(&queries, &mut sinks);
    let after = session.pool().stats();
    for s in &sinks {
        assert_eq!(s.len(), 2);
        for id in s.ids() {
            assert!(want.binary_search(id).is_ok());
        }
    }
    assert_eq!(after.routed - before.routed, 6 * 4, "full-domain routing");
    assert_eq!(
        after.dispatched - before.dispatched,
        6,
        "saturated queries must only reach the first shard"
    );
    assert_eq!(
        after.skipped - before.skipped,
        6 * 3,
        "the other three shards' sub-queries must be skipped, not scanned"
    );
}

/// Two sessions racing saves to one path: with per-save unique temp
/// files the committed snapshot is always exactly one racer's state
/// (never bytes interleaved from both), it restores cleanly, and no
/// temp siblings leak.
#[test]
fn concurrent_snapshot_saves_commit_a_coherent_file() {
    use hint_suite::hint_core::hintm::snapshot::tmp_siblings;
    let dir = std::env::temp_dir().join(format!("hint-save-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("race.snap");
    let w = fuzz::workload(0x5A7E, DOM, 500, 8, 0);
    let mut a = Session::new(build_sharded(&w.data, 2, SubsConfig::update_friendly()));
    let mut b = Session::new(build_sharded(
        &w.data[..300],
        3,
        SubsConfig::update_friendly(),
    ));
    let bytes_a = a.snapshot_bytes().unwrap();
    let bytes_b = b.snapshot_bytes().unwrap();
    assert_ne!(bytes_a, bytes_b);
    std::thread::scope(|s| {
        for session in [&mut a, &mut b] {
            s.spawn(|| {
                for _ in 0..6 {
                    session.snapshot(&path).unwrap();
                }
            });
        }
    });
    let mut restored = Session::restore(&path).unwrap();
    let got = restored.snapshot_bytes().unwrap();
    assert!(
        got == bytes_a || got == bytes_b,
        "committed file is neither racer's snapshot"
    );
    assert!(tmp_siblings(&path).is_empty(), "temp files leaked");
    std::fs::remove_dir_all(&dir).ok();
}
