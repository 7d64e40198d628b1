//! The traced run's layer ladder: the same queries, cut into the same
//! calls, replayed on one rung of the serving stack at a time. Each rung
//! adds one layer to the rung beneath it, so a layer's self time is its
//! rung's time per query minus that of the rung beneath it:
//!
//! | rung | call |
//! |---|---|
//! | `hintm` | one unsharded sealed `HintMSubs`, `query_batch_sinks` |
//! | `executor` | `ShardedIndex::query_batch_merge` (K shards, scoped fan-out) |
//! | `pool` | `ShardPool::query_batch_merge` (persistent shard workers) |
//! | `session` | `Session::query_batch_merge` (routing stats, sink presizing) |
//! | `duplex` | the server's scheduler over an in-memory `duplex()` transport |
//! | `tcp` | the same server over TCP loopback |
//!
//! Every rung fills the same sink type (a `Vec<u64>` per query; the wire
//! rungs decode into one), and every rung's per-query checksums must
//! equal the first rung's. After the TCP rung, a verb probe sends each
//! verb one request at a time over the same connection and checks every
//! reply against the correctness twin, whose index is the `hintm` rung.

use crate::check::{self, Twin};
use crate::plan::{self, Op, FIRST_INSERT_ID};
use crate::stats::{checksum, median, rss_mb};
use crate::trace::Recorder;
use crate::wire::{self, Sent};
use crate::workload::{build_sharded, request_spans};
use bench::datasets::Dataset;
use hint_core::{Hint, Interval, RangeQuery, Session, WorkloadStats};
use serve::{duplex, BatchStats, Request, ServeConfig, Server, Status};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Untimed calls each rung makes before its timed pass.
const WARM_CALLS: usize = 8;

/// Queries the paper's Table 7 counters are averaged over.
const OPT_QUERIES: usize = 2_000;

/// Requests of each read verb, and inserts (each later deleted), the
/// verb probe sends.
const PROBE_READS: usize = 200;
const PROBE_WRITES: usize = 100;

pub const RUNGS: [&str; 6] = ["hintm", "executor", "pool", "session", "duplex", "tcp"];

pub struct LadderOut {
    /// Median call time per query on each rung of [`RUNGS`], µs.
    pub rung_us: [f64; 6],
    pub results_per_query: f64,
    pub dispatched_per_batch: f64,
    pub partitions_per_query: f64,
    pub comparisons_per_query: f64,
    pub server_start_s: f64,
    pub server_start_rss_mb: f64,
    /// The ladder server's counters after both wire rungs and the probe.
    pub server: BatchStats,
    pub bytes_per_reply: f64,
    pub probe: Probe,
}

/// Median latency of each verb in the verb probe, send to `End` frame.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub range_us: f64,
    pub topk_us: f64,
    pub allen_us: f64,
    pub histogram_us: f64,
    /// Inserts and deletes together.
    pub write_us: f64,
    pub seal_ms: f64,
}

struct Rung {
    us_per_query: f64,
    sums: Vec<u64>,
    results: usize,
}

/// Times one rung: a warm pass over the first calls, then every call
/// once. `call` gets the call's index, or `None` while warming.
fn rung(
    name: &'static str,
    calls: &[&[RangeQuery]],
    rec: &mut Recorder,
    mut call: impl FnMut(&[RangeQuery], Option<u64>) -> Result<Vec<Vec<u64>>, String>,
) -> Result<Rung, String> {
    for c in calls.iter().take(WARM_CALLS) {
        call(c, None)?;
    }
    let mut per_query_us = Vec::with_capacity(calls.len());
    let mut sums = Vec::new();
    let mut results = 0;
    for (i, c) in calls.iter().enumerate() {
        let t0 = Instant::now();
        let out = call(c, Some(i as u64))?;
        let t1 = Instant::now();
        per_query_us.push((t1 - t0).as_secs_f64() * 1e6 / c.len() as f64);
        rec.span(name, Some(("ladder", 0)), i as u64, t0, t1);
        results += out.iter().map(Vec::len).sum::<usize>();
        sums.extend(out.iter().map(|ids| checksum(false, ids)));
    }
    Ok(Rung {
        us_per_query: median(&mut per_query_us),
        sums,
        results,
    })
}

fn fresh_sinks(n: usize) -> Vec<Vec<u64>> {
    (0..n).map(|_| Vec::new()).collect()
}

/// One pipelined wire call: send every query, then read every reply.
/// Timed calls add their reply sizes to `bytes` and, on an enabled
/// recorder, each request's spans under the call's span.
fn wire_call<R: Read, W: Write>(
    (rx, tx): (&mut wire::Rx<R>, &mut wire::Tx<W>),
    qs: &[RangeQuery],
    call: Option<u64>,
    parent: &'static str,
    rec: &mut Recorder,
    bytes: &mut (u64, u64),
) -> Result<Vec<Vec<u64>>, String> {
    let sent: Vec<Sent> = qs
        .iter()
        .map(|&q| {
            tx.send(&Request::Query(q))
                .map_err(|e| format!("send: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut out = fresh_sinks(qs.len());
    for (j, (s, ids)) in sent.iter().zip(out.iter_mut()).enumerate() {
        let r = rx.recv(ids)?;
        if r.status != Status::Ok {
            return Err(format!("ladder reply status {:?}", r.status));
        }
        if let Some(call) = call {
            bytes.0 += r.bytes;
            bytes.1 += 1;
            let req = call * qs.len() as u64 + j as u64;
            request_spans(rec, Some((parent, call)), req, s.start, s, &r);
        }
    }
    Ok(out)
}

/// Sends each verb one request at a time and checks every reply against
/// `twin`: [`PROBE_READS`] rounds of range, top-k, Allen and histogram,
/// then [`PROBE_WRITES`] inserts, a delete of each, and a seal.
fn verb_probe<R: Read, W: Write>(
    rx: &mut wire::Rx<R>,
    tx: &mut wire::Tx<W>,
    twin: &mut Twin,
    queries: &[RangeQuery],
    extent: u64,
) -> Result<Probe, String> {
    let mut values = Vec::new();
    let mut one = |op: Op| -> Result<f64, String> {
        values.clear();
        let s = tx.send(&op.request()).map_err(|e| format!("send: {e}"))?;
        let r = rx.recv(&mut values)?;
        let (want, got) = (twin.apply(&op), check::observed(&op, &r, &values));
        if want != got {
            return Err(format!("verb probe {op:?}: twin {want:?}, server {got:?}"));
        }
        Ok((r.end - s.start).as_secs_f64() * 1e6)
    };
    let mut reads: [Vec<f64>; 4] = Default::default();
    for &q in queries.iter().take(PROBE_READS) {
        let ops = [
            Op::Range(q),
            Op::TopK(q),
            Op::Allen(q),
            Op::Histogram(q, plan::hist_width(extent)),
        ];
        for (lat, op) in reads.iter_mut().zip(ops) {
            lat.push(one(op)?);
        }
    }
    let inserts: Vec<Interval> = queries
        .iter()
        .cycle()
        .take(PROBE_WRITES)
        .enumerate()
        .map(|(i, q)| Interval::new(FIRST_INSERT_ID + i as u64, q.st, q.end))
        .collect();
    let mut writes = Vec::with_capacity(2 * PROBE_WRITES);
    for &s in &inserts {
        writes.push(one(Op::Insert(s))?);
    }
    for &s in &inserts {
        writes.push(one(Op::Delete(s))?);
    }
    let seal_ms = one(Op::Seal)? / 1e3;
    let [range, topk, allen, histogram] = &mut reads;
    Ok(Probe {
        range_us: median(range),
        topk_us: median(topk),
        allen_us: median(allen),
        histogram_us: median(histogram),
        write_us: median(&mut writes),
        seal_ms,
    })
}

/// Replays `queries` in calls of `batch` on every rung, then runs the
/// verb probe. `wire_spans` records per-request spans on the TCP rung,
/// for workloads whose own load does not cross the wire.
pub fn run(
    ds: &Dataset,
    (m, shard_m): (u32, u32),
    queries: &[RangeQuery],
    (batch, extent): (usize, u64),
    rec: &mut Recorder,
    wire_spans: bool,
) -> Result<LadderOut, String> {
    let t_ladder = Instant::now();
    let calls: Vec<&[RangeQuery]> = queries.chunks(batch).collect();
    let mut rung_us = [0.0; 6];

    // rung 0: the unsharded sealed walk at the model's m
    let mut twin = Twin::new(ds, m);
    let base = rung("rung.hintm", &calls, rec, |qs, _| {
        let mut sinks = fresh_sinks(qs.len());
        let mut refs: Vec<&mut Vec<u64>> = sinks.iter_mut().collect();
        twin.index().query_batch_sinks(qs, &mut refs, false);
        Ok(sinks)
    })?;
    rung_us[0] = base.us_per_query;
    let mut record = |i: usize, r: Rung| -> Result<(), String> {
        match r.sums.iter().zip(&base.sums).position(|(a, b)| a != b) {
            None if r.sums.len() == base.sums.len() => {
                rung_us[i] = r.us_per_query;
                Ok(())
            }
            Some(q) => Err(format!(
                "ladder rung {} disagrees with hintm on query {q}",
                RUNGS[i]
            )),
            None => Err(format!(
                "ladder rung {} answered {} queries",
                RUNGS[i],
                r.sums.len()
            )),
        }
    };

    // the paper's Table 7 counters, on the same queries
    let opt = Hint::build(&ds.data, m);
    let mut ws = WorkloadStats::default();
    let mut ids = Vec::new();
    for &q in queries.iter().take(OPT_QUERIES) {
        ids.clear();
        ws.push(opt.query_stats(q, &mut ids));
    }
    drop(opt);

    // rung 1: the sharded executor
    let sharded = build_sharded(ds, shard_m).0;
    record(
        1,
        rung("rung.executor", &calls, rec, |qs, _| {
            let mut sinks = fresh_sinks(qs.len());
            sharded.query_batch_merge(qs, &mut sinks);
            Ok(sinks)
        })?,
    )?;

    // rungs 2 and 3: the worker pool, then the session above it
    let session = Session::new(sharded);
    let before = session.pool().stats();
    record(
        2,
        rung("rung.pool", &calls, rec, |qs, _| {
            let mut sinks = fresh_sinks(qs.len());
            session.pool().query_batch_merge(qs, &mut sinks);
            Ok(sinks)
        })?,
    )?;
    let pool_batches = session.pool().stats().batches - before.batches;
    let dispatched = session.pool().stats().dispatched - before.dispatched;
    record(
        3,
        rung("rung.session", &calls, rec, |qs, _| {
            let mut sinks = fresh_sinks(qs.len());
            session.query_batch_merge(qs, &mut sinks);
            Ok(sinks)
        })?,
    )?;

    // rungs 4 and 5: the server over an in-memory pipe, then over TCP
    let rss0 = rss_mb().unwrap_or(0.0);
    let t = Instant::now();
    let mut server =
        Server::start(session, ServeConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let server_start_s = t.elapsed().as_secs_f64();
    let server_start_rss_mb = rss_mb().unwrap_or(0.0) - rss0;
    let (client, server_end) = duplex();
    server.attach(server_end);
    let (mut rx, mut tx) = wire::split(client).map_err(|e| e.to_string())?;
    let mut quiet = Recorder::new(false);
    let mut ignored = (0, 0);
    record(
        4,
        rung("rung.duplex", &calls, rec, |qs, call| {
            wire_call(
                (&mut rx, &mut tx),
                qs,
                call,
                "rung.duplex",
                &mut quiet,
                &mut ignored,
            )
        })?,
    )?;
    drop((rx, tx));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.listen_tcp(listener).map_err(|e| e.to_string())?;
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let (mut rx, mut tx) = wire::split(stream).map_err(|e| e.to_string())?;
    let mut spans = Recorder::new(wire_spans && rec.is_on());
    let mut bytes = (0u64, 0u64);
    record(
        5,
        rung("rung.tcp", &calls, rec, |qs, call| {
            wire_call(
                (&mut rx, &mut tx),
                qs,
                call,
                "rung.tcp",
                &mut spans,
                &mut bytes,
            )
        })?,
    )?;
    rec.absorb(spans);
    let t_probe = Instant::now();
    let probe = verb_probe(&mut rx, &mut tx, &mut twin, queries, extent)?;
    rec.span(
        "verb_probe",
        Some(("ladder", 0)),
        0,
        t_probe,
        Instant::now(),
    );
    drop((rx, tx));
    let stats = server.stats();
    server.shutdown();
    rec.span("ladder", None, 0, t_ladder, Instant::now());

    Ok(LadderOut {
        rung_us,
        results_per_query: base.results as f64 / queries.len() as f64,
        dispatched_per_batch: dispatched as f64 / pool_batches.max(1) as f64,
        partitions_per_query: ws.total.partitions_accessed as f64 / ws.queries.max(1) as f64,
        comparisons_per_query: ws.avg_comparisons(),
        server_start_s,
        server_start_rss_mb,
        server: stats,
        bytes_per_reply: bytes.0 as f64 / bytes.1.max(1) as f64,
        probe,
    })
}
