//! The four workloads: set-up, the measured run, the correctness check,
//! and the metrics a run reports.

use crate::calibrate;
use crate::check::{self, Twin};
use crate::ladder::{self, LadderOut};
use crate::plan::{self, Op, QueryStream};
use crate::stats::{self, median, percentile, Answer};
use crate::trace::Recorder;
use crate::wire::{self, Received, Sent};
use bench::datasets::Dataset;
use bench::experiments::{model_m, DEFAULT_EXTENT};
use hint_core::{Domain, HintMSubs, IntervalIndex, RangeQuery, Session, ShardedIndex, SubsConfig};
use serve::{BatchStats, Request, ServeConfig, Server, Status};
use std::collections::{BTreeMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::realistic::RealDataset;

/// Shards of every served index; each shard is built at the model's `m`
/// minus log2 of this, so partitions keep the unsharded width.
pub const SHARDS: usize = 4;
/// Upper clamp of the model's `m` (the experiment harness's default).
const MAX_M: u32 = 17;
/// Set-ups per round: at least `SETUP_REPS`, more while their total
/// stays under `SETUP_BUDGET_S`, at most `SETUP_MAX_REPS`. A run sets up
/// in two rounds, before and after its measured window, and `setup_s` is
/// the median of both, so a fast set-up gets enough samples to be steady.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;
/// Every this-many-th reply of a served run is checked against the twin.
pub const CHECK_EVERY: usize = 16;
/// Queries of a library run checked against the `ScanOracle`.
const LIB_CHECKS: usize = 256;
/// Reads checked after the final `Seal` of `serve-mixed`.
const POST_SEAL_CHECKS: usize = 64;
/// An open-loop run whose sender was later than this at p99 (µs) did
/// not offer the load it claims, and is rejected. On an idle host the
/// lag is 0.1 to 0.3 ms; host stalls have pushed it to 4.5 ms in a run
/// that still offered its load, so the limit sits above that.
pub const GEN_LAG_P99_LIMIT_US: f64 = 10_000.0;
/// `--smoke` divides every dataset by this on top of its scale.
const SMOKE_SCALE: u64 = 64;
/// Request-stream offset between starting the load threads and the
/// first scheduled send, so thread start-up is not booked as latency.
const OPEN_LOOP_LEAD: Duration = Duration::from_millis(20);
const MB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Closed loop: one caller thread, `batch` queries per
    /// `Session::query_batch_merge` call into `Vec` sinks.
    Library { batch: usize },
    /// Open-loop Poisson arrivals over one TCP connection, one sender
    /// and one receiver thread; the `serve-mixed` request plan.
    OpenLoop { rate_hz: f64 },
    /// `conns` TCP connections, each driven closed-loop at `depth`
    /// outstanding range queries by its own thread.
    Saturate { conns: usize, depth: usize },
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: RealDataset,
    pub scale: u64,
    /// Query extent as a fraction of the domain (0: stabbing).
    pub extent_frac: f64,
    pub shape: Shape,
    /// The traced ladder replays `ladder_calls` calls of `ladder_batch`
    /// queries on every rung.
    pub ladder_batch: usize,
    pub ladder_calls: usize,
}

impl Spec {
    /// Threads that generate load (and connections they use).
    pub fn load(&self) -> (usize, usize) {
        match self.shape {
            Shape::Library { .. } => (1, 0),
            Shape::OpenLoop { .. } => (2, 1),
            Shape::Saturate { conns, .. } => (conns, conns),
        }
    }
}

pub static WORKLOADS: [Spec; 4] = [
    Spec {
        name: "lib-stab",
        why: "stabbing queries on a 3.6M-interval TAXIS clone whose 117 MB index outgrows the 105 MB L3; ~84 results each, so routing, pool dispatch and fork/merge dominate",
        dataset: RealDataset::Taxis,
        scale: 48,
        extent_frac: 0.0,
        shape: Shape::Library { batch: 64 },
        ladder_batch: 64,
        ladder_calls: 400,
    },
    Spec {
        name: "lib-wide",
        why: "1%-extent queries on a 145k-interval BOOKS clone whose 7.5 MB index fits in cache; ~11.6k results each, so the sealed walk's bulk emission and sink materialization dominate",
        dataset: RealDataset::Books,
        scale: 16,
        extent_frac: 0.01,
        shape: Shape::Library { batch: 64 },
        ladder_batch: 64,
        ladder_calls: 40,
    },
    Spec {
        name: "serve-mixed",
        why: "open-loop Poisson mix of reads and writes at 4,000 req/s over one TCP connection to a 337k-interval TAXIS clone; per-request fixed costs, write barriers, the overlay and reseal dominate",
        dataset: RealDataset::Taxis,
        scale: 512,
        extent_frac: 0.001,
        shape: Shape::OpenLoop { rate_hz: 4_000.0 },
        ladder_batch: 1,
        ladder_calls: 3_000,
    },
    Spec {
        name: "serve-saturate",
        why: "two TCP connections at pipeline depth 32 to the same index, range reads only; cross-connection batching, batch fan-out and wire encoding dominate",
        dataset: RealDataset::Taxis,
        scale: 512,
        extent_frac: 0.001,
        shape: Shape::Saturate { conns: 2, depth: 32 },
        ladder_batch: 32,
        ladder_calls: 300,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes its spans (none: not written).
    pub trace_dir: Option<PathBuf>,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed beside the metrics (not compared).
    pub notes: Vec<String>,
}

/// A metric as `BENCHMARK.json` lists it: name, unit, and which way is
/// better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// The metrics every untraced run reports, in `BENCHMARK.json` order.
pub const END_TO_END: [MetricDef; 5] = [
    ("setup_s", "s", "lower"),
    ("qps", "1/s", "higher"),
    ("p50_us", "us", "lower"),
    ("p95_us", "us", "lower"),
    ("rss_mb", "MB", "lower"),
];

/// The metrics every traced run reports, in `BENCHMARK.json` order.
pub const PER_LAYER: [MetricDef; 31] = [
    ("setup.build_s", "s", "lower"),
    ("setup.seal_s", "s", "lower"),
    ("setup.spawn_s", "s", "lower"),
    ("setup.server_start_s", "s", "lower"),
    ("server.start_rss_mb", "MB", "lower"),
    ("hintm.index_mb", "MB", "lower"),
    ("hintm.us_per_query", "us", "lower"),
    ("opt.partitions_per_query", "count", "lower"),
    ("opt.comparisons_per_query", "count", "lower"),
    ("executor.self_us", "us", "lower"),
    ("pool.self_us", "us", "lower"),
    ("pool.dispatched_per_batch", "count", "lower"),
    ("session.self_us", "us", "lower"),
    ("ladder.engine_p50_us", "us", "lower"),
    ("ladder.duplex_p50_us", "us", "lower"),
    ("server.self_us", "us", "lower"),
    ("transport.tcp_self_us", "us", "lower"),
    ("proto.encode_us", "us", "lower"),
    ("transport.write_us", "us", "lower"),
    ("server.first_byte_us", "us", "lower"),
    ("server.first_byte_p95_us", "us", "lower"),
    ("client.stream_us", "us", "lower"),
    ("wire.bytes_per_reply", "bytes", "lower"),
    ("server.mean_batch", "count", "higher"),
    ("verb.range_p50_us", "us", "lower"),
    ("verb.topk_p50_us", "us", "lower"),
    ("verb.allen_p50_us", "us", "lower"),
    ("verb.histogram_p50_us", "us", "lower"),
    ("verb.write_p50_us", "us", "lower"),
    ("verb.seal_ms", "ms", "lower"),
    ("tail.p99_us", "us", "lower"),
];

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Builds the served index: `SHARDS` contiguous shards of `HintMSubs`
/// at `shard_m`, then seals it. Returns the index and the instants the
/// build started, finished, and the seal finished.
pub fn build_sharded(ds: &Dataset, shard_m: u32) -> (ShardedIndex<HintMSubs>, [Instant; 3]) {
    let t0 = Instant::now();
    let mut index =
        ShardedIndex::build_with_domain(&ds.data, 0, ds.domain - 1, SHARDS, |slice, lo, hi| {
            HintMSubs::build_with_domain(slice, Domain::new(lo, hi, shard_m), SubsConfig::full())
        });
    let t1 = Instant::now();
    IntervalIndex::seal(&mut index);
    (index, [t0, t1, Instant::now()])
}

/// Records one request's spans: the request itself from `due` to its
/// trailer, and beneath it the client encode, the socket write, the
/// wait from write to the first reply frame, and the reply streaming.
pub fn request_spans(
    rec: &mut Recorder,
    parent: Option<(&'static str, u64)>,
    req: u64,
    due: Instant,
    sent: &Sent,
    r: &Received,
) {
    let root = Some(("request", req));
    rec.span("request", parent, req, due, r.end);
    rec.span("encode", root, req, sent.start, sent.encoded);
    rec.span("write", root, req, sent.encoded, sent.written);
    rec.span("wait_first", root, req, sent.written, r.first);
    rec.span("stream", root, req, r.first, r.end);
}

/// One set-up's step timings.
#[derive(Debug, Clone, Copy, Default)]
struct SetupSample {
    build: f64,
    seal: f64,
    spawn: f64,
    server_start: f64,
    connect: f64,
    server_start_rss_mb: f64,
    index_mb: f64,
}

impl SetupSample {
    fn total(&self) -> f64 {
        self.build + self.seal + self.spawn + self.server_start + self.connect
    }
}

/// What a workload's measured run leaves for the report.
#[derive(Default)]
struct Outcome {
    setup: Vec<SetupSample>,
    /// Latencies of the operations completed in the measured window.
    lat_us: Vec<f64>,
    ops: u64,
    window_s: f64,
    attempted: u64,
    failed: u64,
    checks: Vec<(Answer, Answer)>,
    peak_rss_mb: f64,
    /// The main run's server counters (served workloads).
    server: Option<BatchStats>,
    bytes_per_reply: Option<f64>,
    notes: Vec<String>,
}

struct Ctx<'a> {
    opts: &'a Opts,
    ds: Dataset,
    m: u32,
    shard_m: u32,
    extent: u64,
    warm: Duration,
    measure: Duration,
}

/// Frees one large block so the allocator starts the run in the state a
/// long-running process settles in. glibc's malloc starts with a 128 KiB
/// mmap threshold and trims freed heap memory back to the kernel; the
/// first time the process frees a larger mmapped block it raises both
/// thresholds for good. Until then every batch's result buffers are
/// returned and faulted back in, which makes `lib-wide` about 3x slower,
/// and when a run's own traffic first frees such a block (10 to 20 s in,
/// or never) is chance. 16 MiB is below glibc's 32 MiB cap on the raised
/// threshold; other allocators just free the block.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20)));
}

/// Runs one workload in this process.
pub fn run(spec: &Spec, opts: &Opts) -> Result<Report, String> {
    let epoch = Instant::now();
    // a smoke run skips the calibration walks
    let calibration = (!opts.smoke).then(calibrate::start);
    settle_allocator();
    let mut rec = Recorder::new(opts.trace);
    let scale = spec.scale * if opts.smoke { SMOKE_SCALE } else { 1 };
    let ds = plan::dataset(spec.dataset, scale, opts.seed);
    let m = model_m(&ds, DEFAULT_EXTENT, MAX_M);
    let cx = Ctx {
        opts,
        m,
        shard_m: m.saturating_sub(SHARDS.trailing_zeros()).max(1),
        extent: plan::extent(ds.domain, spec.extent_frac),
        warm: Duration::from_secs_f64((opts.seconds * 0.1).clamp(0.05, 1.0)),
        measure: Duration::from_secs_f64(opts.seconds),
        ds,
    };
    let mut out = Outcome::default();
    out.notes.push(format!("why: {}", spec.why));
    out.notes.push(format!(
        "dataset {} scale {} intervals {} domain {} extent {} m {} shard_m {} shards {}",
        cx.ds.name,
        scale,
        cx.ds.data.len(),
        cx.ds.domain,
        cx.extent,
        cx.m,
        cx.shard_m,
        SHARDS
    ));
    match spec.shape {
        Shape::Library { batch } => run_library(&cx, batch, &mut rec, &mut out)?,
        Shape::OpenLoop { rate_hz } => {
            let rate = if opts.smoke { rate_hz / 8.0 } else { rate_hz };
            run_open_loop(&cx, rate, &mut rec, &mut out)?
        }
        Shape::Saturate { conns, depth } => run_saturate(&cx, conns, depth, &mut rec, &mut out)?,
    }
    // a second round of set-ups after the measured window, so `setup_s`
    // samples both ends of the run rather than one moment of the host
    match spec.shape {
        Shape::Library { .. } => drop(library_setup(&cx, &mut rec, &mut out.setup)?),
        _ => shut_down(served_setup(&cx, spec.load().1, &mut rec, &mut out.setup)?),
    }
    let ladder = if opts.trace {
        let calls = if opts.smoke { 16 } else { spec.ladder_calls };
        let queries =
            QueryStream::new(opts.seed, 0, cx.ds.domain, cx.extent).take(calls * spec.ladder_batch);
        let wire_spans = matches!(spec.shape, Shape::Library { .. });
        Some(ladder::run(
            &cx.ds,
            (cx.m, cx.shard_m),
            &queries,
            (spec.ladder_batch, cx.extent),
            &mut rec,
            wire_spans,
        )?)
    } else {
        None
    };
    let host = calibration.map_or_else(calibrate::Host::nominal, calibrate::Start::finish);
    out.notes.push(format!(
        "calibration walk {:.3} ms before, {:.3} ms after (nominal {}), steal {:.4}: host factor {}",
        host.walk_ms[0],
        host.walk_ms[1],
        calibrate::NOMINAL_MS,
        host.steal,
        host.factor()
    ));
    let closed_loop = !matches!(spec.shape, Shape::OpenLoop { .. });
    let report = finish(&cx, out, ladder.as_ref(), &rec, host.factor(), closed_loop)?;
    if let (true, Some(dir)) = (opts.trace, &opts.trace_dir) {
        let path = dir.join(format!("trace-{}.jsonl", spec.name));
        rec.write_jsonl(&path, epoch)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// Sets up repeatedly (see `SETUP_REPS`), appending each set-up's
/// timings to `samples` and tearing down every engine but the last.
fn repeat_setup<T>(
    rec: &mut Recorder,
    samples: &mut Vec<SetupSample>,
    mut once: impl FnMut(u64, &mut Recorder) -> Result<(T, SetupSample), String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let first = samples.len();
    loop {
        let rep = samples.len() as u64;
        let t0 = Instant::now();
        let (engine, sample) = once(rep, rec)?;
        rec.span("setup", None, rep, t0, Instant::now());
        samples.push(sample);
        let round = &samples[first..];
        let spent: f64 = round.iter().map(SetupSample::total).sum();
        if round.len() >= SETUP_MAX_REPS || (round.len() >= SETUP_REPS && spent >= SETUP_BUDGET_S) {
            return Ok(engine);
        }
        teardown(engine);
    }
}

fn library_setup(
    cx: &Ctx,
    rec: &mut Recorder,
    samples: &mut Vec<SetupSample>,
) -> Result<Session<HintMSubs>, String> {
    repeat_setup(
        rec,
        samples,
        |rep, rec| Ok(setup_session(cx, rep, rec)),
        drop,
    )
}

/// Build + seal + `Session::new`.
fn setup_session(cx: &Ctx, rep: u64, rec: &mut Recorder) -> (Session<HintMSubs>, SetupSample) {
    let root = Some(("setup", rep));
    let (index, [t0, t1, t2]) = build_sharded(&cx.ds, cx.shard_m);
    let index_mb = index.size_bytes() as f64 / MB;
    let session = Session::new(index);
    let t3 = Instant::now();
    rec.span("build", root, rep, t0, t1);
    rec.span("seal", root, rep, t1, t2);
    rec.span("spawn", root, rep, t2, t3);
    let sample = SetupSample {
        build: secs(t1 - t0),
        seal: secs(t2 - t1),
        spawn: secs(t3 - t2),
        index_mb,
        ..SetupSample::default()
    };
    (session, sample)
}

/// A running server and the load's connections to it.
type Served = (Server, Vec<TcpStream>);

/// A session's set-up plus `Server::start`, a TCP listener and `conns`
/// connected clients.
fn setup_server(
    cx: &Ctx,
    rep: u64,
    conns: usize,
    rec: &mut Recorder,
) -> Result<(Served, SetupSample), String> {
    let (session, mut sample) = setup_session(cx, rep, rec);
    let rss0 = stats::rss_mb().unwrap_or(0.0);
    let t0 = Instant::now();
    let mut server =
        Server::start(session, ServeConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let t1 = Instant::now();
    sample.server_start_rss_mb = stats::rss_mb().unwrap_or(0.0) - rss0;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .listen_tcp(listener)
        .map_err(|e| format!("listen: {e}"))?;
    let streams = (0..conns)
        .map(|_| TcpStream::connect(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let t2 = Instant::now();
    rec.span("server_start", Some(("setup", rep)), rep, t0, t1);
    rec.span("connect", Some(("setup", rep)), rep, t1, t2);
    sample.server_start = secs(t1 - t0);
    sample.connect = secs(t2 - t1);
    Ok(((server, streams), sample))
}

fn served_setup(
    cx: &Ctx,
    conns: usize,
    rec: &mut Recorder,
    samples: &mut Vec<SetupSample>,
) -> Result<Served, String> {
    repeat_setup(
        rec,
        samples,
        |rep, rec| setup_server(cx, rep, conns, rec),
        shut_down,
    )
}

fn shut_down((server, streams): Served) {
    drop(streams);
    server.shutdown();
}

fn run_library(
    cx: &Ctx,
    batch: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let session = library_setup(cx, rec, &mut out.setup)?;
    let mut stream = QueryStream::new(cx.opts.seed, 0, cx.ds.domain, cx.extent);
    let mut checked: Vec<(RangeQuery, Answer)> = Vec::with_capacity(LIB_CHECKS);
    let measure_from = Instant::now() + cx.warm;
    let end = measure_from + cx.measure;
    let mut last = measure_from;
    let mut call = 0u64;
    while Instant::now() < end {
        let qs = stream.take(batch);
        let mut sinks: Vec<Vec<u64>> = (0..batch).map(|_| Vec::new()).collect();
        let t0 = Instant::now();
        session.query_batch_merge(&qs, &mut sinks);
        let t1 = Instant::now();
        if t0 >= measure_from {
            out.lat_us.push(us(t1 - t0));
            out.ops += batch as u64;
            last = t1;
            if call.is_multiple_of(CHECK_EVERY as u64) {
                rec.span("batch", None, call, t0, t1);
            }
        }
        for (q, ids) in qs.iter().zip(&sinks) {
            if checked.len() < LIB_CHECKS {
                checked.push((*q, check::set_answer(ids)));
            }
        }
        call += 1;
    }
    out.window_s = secs(last - measure_from);
    out.attempted = out.ops;
    out.peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    drop(session);
    let queries: Vec<RangeQuery> = checked.iter().map(|(q, _)| *q).collect();
    let want = check::oracle_answers(&cx.ds.data, &queries);
    out.checks = want
        .into_iter()
        .zip(checked.into_iter().map(|(_, a)| a))
        .collect();
    Ok(())
}

fn run_open_loop(
    cx: &Ctx,
    rate_hz: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let (server, mut streams) = served_setup(cx, 1, rec, &mut out.setup)?;
    let plan = plan::mixed_plan(
        cx.opts.seed,
        rate_hz,
        secs(cx.warm + cx.measure),
        cx.ds.domain,
        cx.extent,
    );
    let stream = streams.pop().expect("one connection");
    let (mut rx, mut tx) = wire::split(stream).map_err(|e| format!("split: {e}"))?;
    let t0 = Instant::now() + OPEN_LOOP_LEAD;
    let due = |i: usize| t0 + Duration::from_micros(plan[i].at_us);
    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<Sent>, String> {
            let mut sent = Vec::with_capacity(plan.len());
            for (i, p) in plan.iter().enumerate() {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sent.push(tx.send(&p.op.request()).map_err(|e| format!("send: {e}"))?);
            }
            Ok(sent)
        });
        let receiver = s.spawn(|| -> Result<(Vec<Received>, Vec<Answer>), String> {
            let mut got = Vec::with_capacity(plan.len());
            let mut answers = Vec::new();
            let mut values = Vec::new();
            for (i, p) in plan.iter().enumerate() {
                values.clear();
                let r = rx.recv(&mut values)?;
                if i.is_multiple_of(CHECK_EVERY) {
                    answers.push(check::observed(&p.op, &r, &values));
                }
                got.push(r);
            }
            Ok((got, answers))
        });
        (join(sender), join(receiver))
    });
    let sent = sent?;
    let (received, mut observed) = received?;

    let measure_from = t0 + cx.warm;
    let mut lags = Vec::new();
    let mut writes = Vec::new();
    let mut verbs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last = measure_from;
    let mut bytes = 0;
    for (i, (p, r)) in plan.iter().zip(&received).enumerate() {
        bytes += r.bytes;
        out.failed += u64::from(r.status != Status::Ok);
        if rec.is_on() && i.is_multiple_of(CHECK_EVERY) {
            request_spans(rec, None, i as u64, due(i), &sent[i], r);
        }
        if due(i) < measure_from {
            continue;
        }
        let lat = us(r.end - due(i));
        out.lat_us.push(lat);
        out.ops += 1;
        last = last.max(r.end);
        lags.push(us(sent[i].start.saturating_duration_since(due(i))));
        verbs.entry(p.op.verb()).or_default().push(lat);
        if matches!(p.op, Op::Insert(_) | Op::Delete(_)) {
            writes.push(lat);
        }
    }
    out.window_s = secs(last - measure_from);
    out.attempted = plan.len() as u64;
    out.bytes_per_reply = Some(bytes as f64 / received.len().max(1) as f64);

    // untimed: a final seal, then reads checked against the sealed state
    let mut post: Vec<Op> = vec![Op::Seal];
    let mut qs = QueryStream::new(cx.opts.seed, 9, cx.ds.domain, cx.extent);
    for i in 0..POST_SEAL_CHECKS {
        let q = qs.next_query();
        post.push(match i % 4 {
            0 => Op::Range(q),
            1 => Op::TopK(q),
            2 => Op::Allen(q),
            _ => Op::Histogram(q, plan::hist_width(cx.extent)),
        });
    }
    for op in &post {
        tx.send(&op.request()).map_err(|e| format!("send: {e}"))?;
    }
    let mut values = Vec::new();
    for op in &post {
        values.clear();
        let r = rx.recv(&mut values)?;
        observed.push(check::observed(op, &r, &values));
    }
    out.server = Some(server.stats());
    out.peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    drop((rx, tx));
    server.shutdown();

    let mut twin = Twin::new(&cx.ds, cx.m);
    let mut want = Vec::with_capacity(observed.len());
    for (i, p) in plan.iter().enumerate() {
        let a = twin.apply(&p.op);
        if i.is_multiple_of(CHECK_EVERY) {
            want.push(a);
        }
    }
    want.extend(post.iter().map(|op| twin.apply(op)));
    out.checks = want.into_iter().zip(observed).collect();

    out.notes.push(format!(
        "mixed.write_p50_us {:.1} over {} inserts and deletes",
        median(&mut writes),
        writes.len()
    ));
    for (verb, lat) in &mut verbs {
        out.notes.push(format!(
            "mixed.{verb}_p50_us {:.1} n {}",
            median(lat),
            lat.len()
        ));
    }
    lags.sort_by(f64::total_cmp);
    let lag = percentile(&lags, 99.0).unwrap_or(f64::INFINITY);
    out.notes.push(format!(
        "client.gen_lag_p99_us {lag:.1} (limit {GEN_LAG_P99_LIMIT_US})"
    ));
    if !cx.opts.smoke && lag > GEN_LAG_P99_LIMIT_US {
        return Err(format!(
            "open-loop sender ran {lag:.0} us late at p99 (limit {GEN_LAG_P99_LIMIT_US} us): the offered load was not the planned load"
        ));
    }
    Ok(())
}

/// One `serve-saturate` connection's results.
#[derive(Default)]
struct ConnOut {
    lat_us: Vec<f64>,
    ops: u64,
    sent: u64,
    failed: u64,
    bytes: u64,
    replies: u64,
    checked: Vec<(RangeQuery, Answer)>,
    /// (request id, send, reply) of the checked requests, for spans.
    sampled: Vec<(u64, Sent, Received)>,
}

struct Window {
    from: Instant,
    to: Instant,
}

/// Drives one connection closed-loop at `depth` outstanding range
/// queries until the window closes, then drains.
fn drive(
    c: usize,
    stream: TcpStream,
    cx: &Ctx,
    depth: usize,
    w: &Window,
    traced: bool,
) -> Result<ConnOut, String> {
    let (mut rx, mut tx) = wire::split(stream).map_err(|e| format!("split: {e}"))?;
    let mut qs = QueryStream::new(cx.opts.seed, 1 + c as u64, cx.ds.domain, cx.extent);
    let mut out = ConnOut::default();
    let mut inflight = VecDeque::with_capacity(depth);
    let mut send = |tx: &mut wire::Tx<TcpStream>, out: &mut ConnOut| -> Result<_, String> {
        let q = qs.next_query();
        let s = tx
            .send(&Request::Query(q))
            .map_err(|e| format!("send: {e}"))?;
        out.sent += 1;
        Ok((out.sent - 1, q, s))
    };
    for _ in 0..depth {
        inflight.push_back(send(&mut tx, &mut out)?);
    }
    let mut values = Vec::new();
    while let Some((i, q, s)) = inflight.pop_front() {
        values.clear();
        let r = rx.recv(&mut values)?;
        out.replies += 1;
        out.bytes += r.bytes;
        out.failed += u64::from(r.status != Status::Ok);
        if s.start >= w.from && r.end <= w.to {
            out.lat_us.push(us(r.end - s.start));
        }
        if r.end >= w.from && r.end <= w.to {
            out.ops += 1;
        }
        if (i as usize).is_multiple_of(CHECK_EVERY) {
            out.checked
                .push((q, check::observed(&Op::Range(q), &r, &values)));
            if traced {
                out.sampled.push((((c as u64) << 40) | i, s, r));
            }
        }
        if Instant::now() < w.to {
            inflight.push_back(send(&mut tx, &mut out)?);
        }
    }
    Ok(out)
}

fn run_saturate(
    cx: &Ctx,
    conns: usize,
    depth: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let (server, streams) = served_setup(cx, conns, rec, &mut out.setup)?;
    let from = Instant::now() + cx.warm;
    let w = Window {
        from,
        to: from + cx.measure,
    };
    let traced = rec.is_on();
    let per_conn: Vec<Result<ConnOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let w = &w;
                s.spawn(move || drive(c, stream, cx, depth, w, traced))
            })
            .collect();
        handles.into_iter().map(join).collect()
    });
    out.server = Some(server.stats());
    out.peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    server.shutdown();
    let mut checked = Vec::new();
    let (mut bytes, mut replies) = (0, 0);
    for conn in per_conn {
        let conn = conn?;
        out.lat_us.extend(conn.lat_us);
        out.ops += conn.ops;
        out.attempted += conn.sent;
        out.failed += conn.failed;
        bytes += conn.bytes;
        replies += conn.replies;
        checked.extend(conn.checked);
        for (req, sent, r) in &conn.sampled {
            request_spans(rec, None, *req, sent.start, sent, r);
        }
    }
    out.window_s = secs(cx.measure);
    out.bytes_per_reply = Some(bytes as f64 / replies.max(1) as f64);
    let mut twin = Twin::new(&cx.ds, cx.m);
    out.checks = checked
        .into_iter()
        .map(|(q, got)| (twin.apply(&Op::Range(q)), got))
        .collect();
    Ok(())
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join().map_err(|_| "load thread panicked".to_string())?
}

/// The metrics of `list`, in its order, from `values` (every listed name
/// must be there). A value that is missing because the run's samples
/// cannot support a percentile fails a real run; a smoke run leaves it
/// out.
fn pick(
    list: &[MetricDef],
    values: &[(&str, Option<f64>)],
    smoke: bool,
    samples: usize,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(list.len());
    for &(name, unit, _) in list {
        let (_, v) = values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no value computed for {name}"));
        match v {
            Some(value) if value.is_finite() => out.push(Metric {
                name,
                value: *value,
                unit,
            }),
            _ if smoke => {}
            _ => {
                return Err(format!(
                    "{name}: the run's {samples} samples cannot support it"
                ))
            }
        }
    }
    Ok(out)
}

/// Turns a run's outcome (and the traced ladder) into its report. The
/// end-to-end times are divided by the host factor (see `calibrate`),
/// and `qps` is multiplied by it where the loop is closed; an open
/// loop's rate is set by its schedule, not by the host.
fn finish(
    cx: &Ctx,
    mut out: Outcome,
    ladder: Option<&LadderOut>,
    rec: &Recorder,
    host: f64,
    closed_loop: bool,
) -> Result<Report, String> {
    out.lat_us.sort_by(f64::total_cmp);
    let lat = &out.lat_us;
    let smoke = cx.opts.smoke;
    let setup_median =
        |f: fn(&SetupSample) -> f64| median(&mut out.setup.iter().map(f).collect::<Vec<_>>());
    let (setup, qps) = (
        setup_median(SetupSample::total),
        out.ops as f64 / out.window_s,
    );
    let (p50, p95) = (percentile(lat, 50.0), percentile(lat, 95.0));
    let e2e = [
        ("setup_s", Some(setup / host)),
        ("qps", Some(if closed_loop { qps * host } else { qps })),
        ("p50_us", p50.map(|v| v / host)),
        ("p95_us", p95.map(|v| v / host)),
        ("rss_mb", Some(out.peak_rss_mb)),
    ];
    out.notes.push(format!(
        "uncalibrated setup_s {setup} qps {qps} p50_us {} p95_us {}",
        p50.unwrap_or(f64::NAN),
        p95.unwrap_or(f64::NAN)
    ));
    let tail =
        |p: f64| percentile(lat, p).map_or("n/a (too few samples)".into(), |v| format!("{v:.1}"));
    out.notes.push(format!(
        "{} latency samples over {:.2} s; uncalibrated p99_us {} p999_us {}",
        lat.len(),
        out.window_s,
        tail(99.0),
        tail(99.9)
    ));

    let mismatched = stats::mismatches(&out.checks);
    for &i in mismatched.iter().take(5) {
        let (want, got) = out.checks[i];
        out.notes
            .push(format!("MISMATCH check {i}: want {want:?}, got {got:?}"));
    }
    out.notes.push(format!(
        "correctness: {} of {} checked replies match",
        out.checks.len() - mismatched.len(),
        out.checks.len()
    ));

    let metrics = match ladder {
        None => pick(&END_TO_END, &e2e, smoke, lat.len())?,
        Some(l) => {
            for ((name, unit, _), v) in END_TO_END.iter().zip(&e2e) {
                if let (_, Some(v)) = v {
                    out.notes.push(format!("traced {name} {v} {unit}"));
                }
            }
            for (rung, v) in ladder::RUNGS.iter().zip(l.rung_us) {
                out.notes.push(format!("ladder.{rung}_us {v:.3} per query"));
            }
            let sv = out.server.unwrap_or(l.server);
            out.notes.push(format!(
                "sink.results_per_query {:.1} server.batches {} controller.window {} server.lane_high {}",
                l.results_per_query, sv.batches, sv.cur_window, sv.lane_high
            ));
            // served workloads report their own run's wire and set-up
            // numbers; library workloads the ladder's
            let served = out.server.is_some();
            let mine = |s: f64, l: f64| Some(if served { s } else { l });
            let span = |name: &str, p: f64| {
                let mut d = rec.durations_us(name);
                d.sort_by(f64::total_cmp);
                percentile(&d, p)
            };
            let (r, p) = (l.rung_us, l.probe);
            let values = [
                ("setup.build_s", Some(setup_median(|s| s.build))),
                ("setup.seal_s", Some(setup_median(|s| s.seal))),
                ("setup.spawn_s", Some(setup_median(|s| s.spawn))),
                (
                    "setup.server_start_s",
                    mine(setup_median(|s| s.server_start), l.server_start_s),
                ),
                (
                    "server.start_rss_mb",
                    mine(out.setup[0].server_start_rss_mb, l.server_start_rss_mb),
                ),
                ("hintm.index_mb", Some(setup_median(|s| s.index_mb))),
                ("hintm.us_per_query", Some(r[0])),
                ("opt.partitions_per_query", Some(l.partitions_per_query)),
                ("opt.comparisons_per_query", Some(l.comparisons_per_query)),
                ("executor.self_us", Some(r[1] - r[0])),
                ("pool.self_us", Some(r[2] - r[1])),
                ("pool.dispatched_per_batch", Some(l.dispatched_per_batch)),
                ("session.self_us", Some(r[3] - r[2])),
                ("ladder.engine_p50_us", Some(r[3])),
                ("ladder.duplex_p50_us", Some(r[4])),
                ("server.self_us", Some(r[4] - r[3])),
                ("transport.tcp_self_us", Some(r[5] - r[4])),
                ("proto.encode_us", span("encode", 50.0)),
                ("transport.write_us", span("write", 50.0)),
                ("server.first_byte_us", span("wait_first", 50.0)),
                ("server.first_byte_p95_us", span("wait_first", 95.0)),
                ("client.stream_us", span("stream", 50.0)),
                (
                    "wire.bytes_per_reply",
                    Some(out.bytes_per_reply.unwrap_or(l.bytes_per_reply)),
                ),
                ("server.mean_batch", Some(sv.mean_batch())),
                ("verb.range_p50_us", Some(p.range_us)),
                ("verb.topk_p50_us", Some(p.topk_us)),
                ("verb.allen_p50_us", Some(p.allen_us)),
                ("verb.histogram_p50_us", Some(p.histogram_us)),
                ("verb.write_p50_us", Some(p.write_us)),
                ("verb.seal_ms", Some(p.seal_ms)),
                ("tail.p99_us", percentile(lat, 99.0)),
            ];
            pick(&PER_LAYER, &values, smoke, lat.len())?
        }
    };
    Ok(Report {
        correct: mismatched.is_empty(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
        notes: out.notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn benchmark_json_lists_what_the_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("a list")
                .to_vec()
        };
        let field = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .expect("a string field")
                .to_string()
        };
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, want);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<[String; 3]> = list(key)
                .iter()
                .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
                .collect();
            let want: Vec<[String; 3]> = defs
                .iter()
                .map(|&(n, u, b)| [n.into(), u.into(), b.into()])
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn smoke_runs_every_workload_quickly_and_correctly() {
        let t = Instant::now();
        for spec in &WORKLOADS {
            let opts = Opts {
                seed: 11,
                seconds: 0.2,
                trace: true,
                smoke: true,
                trace_dir: None,
            };
            let r = run(spec, &opts).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(r.correct, "{}: {:?}", spec.name, r.notes);
            // a smoke run leaves out percentiles its few samples cannot
            // support, and reports every other per-layer metric
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = PER_LAYER
                .iter()
                .map(|m| m.0)
                .filter(|n| !n.contains("p95") && !n.starts_with("tail."))
                .collect();
            assert!(
                want.iter().all(|n| names.contains(n)),
                "{}: {names:?}",
                spec.name
            );
            assert_eq!(r.failed, 0, "{}", spec.name);
            assert!(r.attempted > 0);
        }
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "smoke took {:?}",
            t.elapsed()
        );
    }
}
