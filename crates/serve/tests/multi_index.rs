//! Differential tests for the multi-index catalog: everything a wire
//! client can do against named indexes must match the direct library
//! API over identically-maintained twins — across the shard sweep,
//! under interleaved writers, and through create/drop/use lifecycle
//! fuzz.

use hint_core::{
    AllenIndex, AllenRelation, Domain, HintMSubs, Interval, IntervalId, RangeQuery, ScanOracle,
    Session, ShardedIndex, SubsConfig,
};
use serve::{duplex, Client, ClientError, DuplexTransport, ServeConfig, Server, Status};
use test_support::{fuzz, shard_counts};

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

/// Brute-force join twin: every (outer id, inner id) pair whose
/// intervals overlap each other inside the window, sorted.
fn join_twin(outer: &[Interval], inner: &[Interval], q: RangeQuery) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    for o in outer {
        if o.st > q.end || o.end < q.st {
            continue;
        }
        let (lo, hi) = (o.st.max(q.st), o.end.min(q.end));
        for i in inner {
            if i.st <= hi && i.end >= lo {
                pairs.push((o.id, i.id));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// The acceptance scenario, swept across shard counts: create two named
/// indexes over the wire, ingest into both from interleaved writers,
/// then check range, Allen, top-k, histogram, and the streamed join
/// against the direct library API — bit-identical results everywhere.
#[test]
fn two_named_indexes_match_direct_library() {
    let w = fuzz::workload(0x9_0001, DOM, 400, 32, 0);
    for k in shard_counts() {
        let server = start_server(
            &w.data,
            k,
            ServeConfig {
                max_batch: 16,
                ..Default::default()
            },
        );
        let mut admin = connect(&server);
        let left = admin.create_index("left", 0, DOM - 1).unwrap();
        let right = admin.create_index("right", 0, DOM - 1).unwrap();
        assert_ne!(left, 0);
        assert_ne!(right, 0);
        assert_ne!(left, right);

        // interleaved writers: two connections, each writing to BOTH
        // named indexes in alternation (ids disjoint per writer)
        let mut left_twin: Vec<Interval> = Vec::new();
        let mut right_twin: Vec<Interval> = Vec::new();
        let gen = |c: u64, i: u64| {
            let st = (c * 2_311 + i * 131) % (DOM - 400);
            Interval::new(c * 100_000 + i, st, st + 40 + (i * 13) % 350)
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=2u64)
                .map(|c| {
                    let mut client = connect(&server);
                    scope.spawn(move || {
                        for i in 0..60u64 {
                            let s = gen(c, i);
                            let target = if i % 2 == 0 { left } else { right };
                            client.insert_on(Some(target), s).unwrap();
                        }
                        client.seal_on(Some(left)).ok();
                        client.seal_on(Some(right)).ok();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        for c in 1..=2u64 {
            for i in 0..60u64 {
                let s = gen(c, i);
                if i % 2 == 0 {
                    left_twin.push(s);
                } else {
                    right_twin.push(s);
                }
            }
        }

        // the default index is untouched by the named-index writers
        let d_oracle = ScanOracle::new(&w.data);
        let l_oracle = ScanOracle::new(&left_twin);
        let r_oracle = ScanOracle::new(&right_twin);
        for q in &w.queries {
            let mut got = admin.query(*q).unwrap();
            got.sort_unstable();
            assert_eq!(got, d_oracle.query_sorted(*q), "default k={k} {q:?}");
            let mut got = admin.query_on(Some(left), *q).unwrap();
            got.sort_unstable();
            assert_eq!(got, l_oracle.query_sorted(*q), "left k={k} {q:?}");
            let mut got = admin.query_on(Some(right), *q).unwrap();
            got.sort_unstable();
            assert_eq!(got, r_oracle.query_sorted(*q), "right k={k} {q:?}");
        }

        // Allen relations on a named index vs the library's AllenIndex
        let allen_twin = AllenIndex::build(&left_twin, 9);
        for rel in AllenRelation::ALL {
            for q in w.queries.iter().take(8) {
                let mut want: Vec<IntervalId> = Vec::new();
                allen_twin.select(rel, *q, &mut want);
                want.sort_unstable();
                let mut got = admin.allen_on(Some(left), rel, *q).unwrap();
                got.sort_unstable();
                assert_eq!(got, want, "allen {rel:?} k={k} {q:?}");
            }
        }

        // aggregation verbs vs the library sinks driven directly
        for q in w.queries.iter().take(8) {
            let mut by_len: Vec<(u64, u64)> = l_oracle
                .query_sorted(*q)
                .into_iter()
                .map(|id| {
                    let s = left_twin.iter().find(|s| s.id == id).unwrap();
                    (s.end - s.st, id)
                })
                .collect();
            by_len.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let want: Vec<IntervalId> = by_len.iter().take(5).map(|&(_, id)| id).collect();
            let got = admin.top_k_on(Some(left), 5, *q).unwrap();
            assert_eq!(got, want, "top-k k={k} {q:?}");

            let width = 64u64;
            let buckets = ((q.end - q.st) / width + 1) as usize;
            let mut want = vec![0u64; buckets];
            for id in l_oracle.query_sorted(*q) {
                let s = left_twin.iter().find(|s| s.id == id).unwrap();
                let lo = s.st.max(q.st);
                let hi = s.end.min(q.end);
                for (b, w_) in want.iter_mut().enumerate() {
                    let b_lo = q.st + b as u64 * width;
                    let b_hi = (b_lo + width - 1).min(q.end);
                    if lo <= b_hi && hi >= b_lo {
                        *w_ += 1;
                    }
                }
            }
            let got = admin.histogram_on(Some(left), width, *q).unwrap();
            assert_eq!(got, want, "histogram k={k} {q:?}");
        }

        // the streamed join between the two named indexes
        for q in w.queries.iter().take(8) {
            let mut got = admin.join_on(Some(left), right, *q).unwrap();
            got.sort_unstable();
            assert_eq!(
                got,
                join_twin(&left_twin, &right_twin, *q),
                "join k={k} {q:?}"
            );
        }

        // UseIndex re-points un-addressed verbs at a named index
        assert_eq!(admin.use_index("left").unwrap(), left);
        for q in w.queries.iter().take(4) {
            let mut got = admin.query(*q).unwrap();
            got.sort_unstable();
            assert_eq!(got, l_oracle.query_sorted(*q), "use-index k={k} {q:?}");
        }

        // the catalog listing reflects both names and live counts
        let infos = admin.list_indexes().unwrap();
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[0].name, "default");
        let l_info = infos.iter().find(|i| i.id == left).unwrap();
        assert_eq!((l_info.name.as_str(), l_info.len), ("left", 60));
        assert_eq!((l_info.lo, l_info.hi), (0, DOM - 1));

        drop(admin);
        server.shutdown();
    }
}

/// Writes to one index must not disturb another: a writer hammering
/// index A interleaved with queries on index B gives B answers
/// identical to a never-written twin.
#[test]
fn writes_on_one_index_leave_others_consistent() {
    let w = fuzz::workload(0x9_0002, DOM, 500, 16, 0);
    let server = start_server(&w.data, 3, ServeConfig::default());
    let mut client = connect(&server);
    let scratch = client.create_index("scratch", 0, DOM - 1).unwrap();
    let d_oracle = ScanOracle::new(&w.data);
    for (i, q) in w.queries.iter().enumerate() {
        let s = Interval::new(i as u64 + 1, (i as u64 * 97) % (DOM - 100), DOM - 1);
        client.insert_on(Some(scratch), s).unwrap();
        let mut got = client.query(*q).unwrap();
        got.sort_unstable();
        assert_eq!(got, d_oracle.query_sorted(*q), "{q:?} after write {i}");
    }
    drop(client);
    server.shutdown();
}

/// Seeded lifecycle fuzz: random create / drop / use / insert / query
/// over a pool of names, mirrored into per-index oracle twins. Every
/// query answer matches its twin; every verb against a dropped or
/// never-created name earns `UnknownIndex`; drops free catalog
/// capacity.
#[test]
fn catalog_lifecycle_fuzz_with_oracle_twin() {
    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    for seed in 0..4u64 {
        let w = fuzz::workload(0x9_1000 ^ seed, DOM, 200, 0, 0);
        let server = start_server(&w.data, 2, ServeConfig::default());
        let mut client = connect(&server);
        let mut rng = fuzz::Rng::new(0xca7a_7065 ^ seed);
        // name -> (catalog id, oracle twin); None while dropped
        let mut live: Vec<Option<(u32, ScanOracle)>> = (0..NAMES.len()).map(|_| None).collect();
        let mut next_id = 1u64;
        for _ in 0..300 {
            let n = rng.below(NAMES.len() as u64) as usize;
            match rng.below(10) {
                0..=1 => {
                    let r = client.create_index(NAMES[n], 0, DOM - 1);
                    match (&live[n], r) {
                        (None, Ok(id)) => live[n] = Some((id, ScanOracle::new(&[]))),
                        (Some(_), Err(ClientError::Server(Status::BadVerb))) => {}
                        (state, other) => {
                            panic!(
                                "create {:?} (live={}): {other:?}",
                                NAMES[n],
                                state.is_some()
                            )
                        }
                    }
                }
                2 => {
                    let r = client.drop_index(NAMES[n]);
                    match (&live[n], r) {
                        (Some((id, _)), Ok(freed)) => {
                            assert_eq!(freed, *id);
                            live[n] = None;
                        }
                        (None, Err(ClientError::Server(Status::UnknownIndex))) => {}
                        (state, other) => {
                            panic!("drop {:?} (live={}): {other:?}", NAMES[n], state.is_some())
                        }
                    }
                }
                3..=5 => {
                    let st = rng.below(DOM - 200);
                    let s = Interval::new(next_id, st, st + 1 + rng.below(199));
                    next_id += 1;
                    match &mut live[n] {
                        Some((id, twin)) => {
                            client.insert_on(Some(*id), s).unwrap();
                            twin.insert(s);
                        }
                        None => {
                            // a dropped name's old id must stay dead
                            // (slots are never reused)
                            match client.use_index(NAMES[n]) {
                                Err(ClientError::Server(Status::UnknownIndex)) => {}
                                other => panic!("use dropped {:?}: {other:?}", NAMES[n]),
                            }
                        }
                    }
                }
                _ => {
                    let st = rng.below(DOM - 500);
                    let q = RangeQuery::new(st, st + rng.below(500));
                    match &live[n] {
                        Some((id, twin)) => {
                            let mut got = client.query_on(Some(*id), q).unwrap();
                            got.sort_unstable();
                            assert_eq!(got, twin.query_sorted(q), "{:?} {q:?}", NAMES[n]);
                        }
                        None => {
                            // id may have been freed; query by a stale
                            // name via UseIndex instead
                            match client.use_index(NAMES[n]) {
                                Err(ClientError::Server(Status::UnknownIndex)) => {}
                                other => panic!("use dropped {:?}: {other:?}", NAMES[n]),
                            }
                        }
                    }
                }
            }
        }
        // final sweep: every live index still matches its twin
        for (n, slot) in live.iter().enumerate() {
            if let Some((id, twin)) = slot {
                for st in [0u64, 1_000, 4_000] {
                    let q = RangeQuery::new(st, st + 900);
                    let mut got = client.query_on(Some(*id), q).unwrap();
                    got.sort_unstable();
                    assert_eq!(got, twin.query_sorted(q), "final {:?} {q:?}", NAMES[n]);
                }
            }
        }
        drop(client);
        server.shutdown();
    }
}

/// The catalog cap (`HINT_MAX_INDEXES`, default 16) rejects the
/// overflowing create with `Overloaded` and recovers capacity on drop.
#[test]
fn catalog_capacity_is_bounded_and_recovers() {
    let server = start_server(&[], 1, ServeConfig::default());
    let mut client = connect(&server);
    // default occupies one of the 16 slots
    for i in 0..15 {
        client.create_index(&format!("idx{i}"), 0, 1_023).unwrap();
    }
    match client.create_index("one-too-many", 0, 1_023) {
        Err(ClientError::Server(Status::Overloaded)) => {}
        other => panic!("over-cap create: {other:?}"),
    }
    client.drop_index("idx7").unwrap();
    let id = client.create_index("one-too-many", 0, 1_023).unwrap();
    // slots are never reused: the new index gets a fresh id
    assert_eq!(id, 16);
    drop(client);
    server.shutdown();
}
