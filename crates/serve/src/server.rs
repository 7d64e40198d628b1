//! The batched serving front-end: per-connection reader/writer threads
//! around a single scheduler thread that owns the engine
//! ([`hint_core::Session`]) and turns independent connections into
//! cross-connection query batches.
//!
//! ## Threading model
//!
//! No async runtime: one **scheduler** thread owns the `Session`
//! outright (no locks on the query or write path), and every attached
//! connection contributes a **reader** thread (decode frames → ops
//! channel) and a **writer** thread (response-bytes channel → transport).
//! All cross-thread traffic flows over the vendored `crossbeam`
//! channels. The session's shards live on the scheduler thread too
//! (`hint_core::ShardPool`), and the scheduler walks each query batch
//! right there, on the session's inline route
//! (`Session::query_batch_inline`): the reader and writer threads keep
//! the other cores busy, so handing a walk to the pool's helper threads
//! would add a thread round trip and win no parallelism. The helpers
//! (one per shard) still reseal dirty shards in parallel. Writes apply
//! directly to the shards between batches, so a read queued after a
//! write always sees it; they reach the sealed arenas only when a
//! client sends `Seal` (or a snapshot barrier reseals).
//!
//! ## Wire path
//!
//! The wire path is batch-shaped from socket to socket. The reader
//! reads through a fixed-size buffer, decodes every whole frame one
//! read delivered, and forwards them to the scheduler as one batch op,
//! so a pipelined burst wakes the scheduler once; the admission gate
//! still meters each request, in order. When a query batch executes,
//! the scheduler encodes each connection's replies, in that
//! connection's FIFO order, into one buffer recycled from the
//! connection's bounded free list, and sends it as one message. The
//! writer blocks for the first buffer, drains every buffer already
//! queued behind it, writes them all with one vectored write, and hands
//! them back to the free list, so a warm connection allocates no reply
//! buffers. The bytes on the wire are the same as with one write per
//! reply; only their grouping into reads and writes differs.
//!
//! ## Batching policy
//!
//! Natural batching, with no timer: while the scheduler has nothing
//! queued it blocks for the next op; then it takes every op already
//! waiting in its channel, and flushes when the channel is empty or the
//! batch holds [`ServeConfig::max_batch`] requests. A lone request is
//! therefore answered at once, and under load batches grow on their
//! own, because requests queue while a batch executes. A flushed batch
//! executes as one `query_batch_inline` call per addressed index — the
//! level walks are shared across *all* connections' queries — and each
//! query's [`WireSink`] demultiplexes into its connection's response
//! stream. Writes (`Insert`/`Delete`/`Seal`) act as barriers: they
//! flush the pending batch, apply, and ack, which keeps the global
//! order serializable and every connection's replies in its request
//! order. Because requests are answered strictly FIFO per connection,
//! batched results are bit-identical to what a solo `query_sink` at the
//! same point in the write sequence would produce.
//!
//! ## Overload behavior
//!
//! Admission control bounds how much work may be *outstanding* — sent
//! by a client but not yet answered. Each reader thread gates
//! walk-driven requests as it decodes them, against a per-connection
//! and a global budget ([`ServeConfig::conn_pending`],
//! [`ServeConfig::max_pending`]); the scheduler returns the budget when
//! the reply goes out. Gating at the reader is what makes the bound
//! real under open-loop load: the backlog of an unbounded producer
//! accumulates in the ops channel, *before* the scheduler's pending
//! queue, and a scheduler-side count would never see it. Past a budget
//! the request is shed with a recoverable `Overloaded` trailer in its
//! FIFO position — the connection stays up and the client may simply
//! retry. Writes and catalog verbs are synchronous barriers and need no
//! budget: they backpressure naturally.

use crate::proto::{
    encode_end, encode_index_infos, encode_results, encode_snapshot_chunk, Command, DecodeError,
    FrameReader, IndexInfo, Reply, Request, Status, READ_BUF,
};
use crate::sink::{Records, ServeSink, WireSink};
use crate::transport::Transport;
use bytes::{BufMut, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use hint_core::{Domain, HintMSubs, Interval, RangeQuery, Session, ShardedIndex, SubsConfig};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, BufReader, IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Payload bytes per streamed snapshot chunk (64 KiB: large enough to
/// amortize frame headers, small enough to keep the writer thread's
/// send granularity bounded).
const SNAP_CHUNK: usize = 64 * 1024;

/// (outer, inner) id pairs per streamed join `Results` frame (8 KiB).
const PAIRS_PER_FRAME: usize = 512;

/// Hard ceiling on histogram buckets per request, so a wire-controlled
/// width cannot make the server allocate unboundedly.
const MAX_HIST_BUCKETS: u128 = 1 << 16;

/// Most queued reply buffers the writer thread drains into one vectored
/// write.
const WRITE_DRAIN: usize = 64;

/// Most recycled reply buffers a connection keeps.
const FREE_BUFS: usize = 4;

/// Largest reply buffer worth recycling; a bigger one (a huge answer)
/// is freed rather than pinned for the connection's lifetime.
const FREE_BUF_MAX: usize = 1 << 20;

/// Shard fan-out for indexes created over the wire.
const CREATED_SHARDS: usize = 4;

/// Default for the `HINT_MAX_INDEXES` knob: catalog capacity, counting
/// live entries (index 0 included).
const DEFAULT_MAX_INDEXES: usize = 16;

/// Engine-side support for the wire `Snapshot`/`Restore` verbs.
///
/// The scheduler is generic over the engine it serves, but durable
/// snapshots are a property of the sealed-arena index the snapshot
/// format serializes — so the capability is a separate trait, and
/// [`Server::start`] requires it. Implemented for
/// [`Session<HintMSubs>`]; other engines can implement it (or answer
/// every call with an error, which the scheduler surfaces as
/// [`Status::SnapshotFailed`]).
pub trait SnapshotVerbs {
    /// Serializes the engine's index to snapshot bytes (the streaming
    /// verb). Must act as a write barrier: every applied write is in
    /// the bytes.
    fn snapshot_bytes(&mut self) -> io::Result<Vec<u8>>;
    /// Durably saves the engine's index to a server-side path,
    /// returning the snapshot size in bytes.
    fn snapshot_save(&mut self, path: &Path) -> io::Result<u64>;
    /// Replaces the engine's index from a server-side snapshot file,
    /// returning the restored live count. On error the served index
    /// must be unchanged.
    fn restore_from(&mut self, path: &Path) -> Result<u64, String>;
}

impl SnapshotVerbs for Session<HintMSubs> {
    fn snapshot_bytes(&mut self) -> io::Result<Vec<u8>> {
        Session::snapshot_bytes(self)
    }

    fn snapshot_save(&mut self, path: &Path) -> io::Result<u64> {
        self.snapshot(path)
    }

    fn restore_from(&mut self, path: &Path) -> Result<u64, String> {
        let fresh = Session::restore(path).map_err(|e| e.to_string())?;
        *self = fresh;
        Ok(self.len() as u64)
    }
}

/// Scheduler tuning: how wide a batch may grow, and how much work a
/// connection (or the whole server) may have outstanding before the
/// scheduler sheds load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// The most requests one flush executes. The scheduler flushes
    /// earlier whenever its op channel runs dry, so this only bounds
    /// the batches a backlog forms.
    pub max_batch: usize,
    /// Most admitted walk-driven requests one connection may have
    /// *outstanding* (decoded by its reader, reply not yet sent) before
    /// further requests on it are shed with a recoverable
    /// [`Status::Overloaded`] trailer.
    pub conn_pending: usize,
    /// Most admitted walk-driven requests outstanding across all
    /// connections before shedding — the global backstop against a
    /// many-connection flood.
    pub max_pending: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            conn_pending: 256,
            max_pending: 4096,
        }
    }
}

impl ServeConfig {
    /// Reads the `HINT_SERVE_*` scheduler knobs over the defaults:
    /// `HINT_SERVE_MAX_BATCH` (queries, >= 1) and
    /// `HINT_SERVE_CONN_PENDING` / `HINT_SERVE_MAX_PENDING` (admission
    /// budgets, >= 1). Rejected values warn once on stderr and fall
    /// back (see [`hint_core::env`]).
    pub fn from_env() -> Self {
        let d = Self::default();
        let at_least_one = |name: &str, default: usize| {
            hint_core::env::var_or(name, default, "must be >= 1", |&n: &usize| n >= 1)
        };
        Self {
            max_batch: at_least_one("HINT_SERVE_MAX_BATCH", d.max_batch),
            conn_pending: at_least_one("HINT_SERVE_CONN_PENDING", d.conn_pending),
            max_pending: at_least_one("HINT_SERVE_MAX_PENDING", d.max_pending),
        }
    }
}

/// Scheduler counters: how well the batching policy is doing. Snapshot
/// via [`Server::stats`]; hintbench reports the observed mean batch
/// size as its `server.mean_batch` metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches executed (flushes with at least one query).
    pub batches: u64,
    /// Queries served across all batches.
    pub queries: u64,
    /// Largest single batch executed.
    pub largest_batch: usize,
    /// Write requests (insert/delete/seal) applied.
    pub writes: u64,
    /// Accept-loop errors survived (transient failures like FD
    /// exhaustion, retried with bounded backoff instead of killing the
    /// acceptor thread).
    pub accept_errors: u64,
    /// Requests refused by admission control: answered in FIFO position
    /// with a recoverable [`Status::Overloaded`] trailer, never
    /// executed.
    pub shed: u64,
    /// Always 0: the scheduler has no priority lanes. Kept only
    /// because hintbench prints it.
    pub lane_high: u64,
    /// The batch cap in force ([`ServeConfig::max_batch`]).
    pub cur_window: usize,
}

impl BatchStats {
    /// Mean queries per executed batch (0 when idle).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }
}

/// Connection identifier, assigned at attach time.
type ConnId = u64;

/// What reader threads (and the server handle) feed the scheduler.
enum Op {
    /// A connection came up, with the scheduler's handles on it.
    Conn(ConnId, ConnState),
    /// Every whole frame one read of the connection delivered, decoded
    /// in arrival order: one scheduler wake-up per burst, not per frame.
    Batch(ConnId, Vec<Inbound>),
    /// The connection's stream is beyond recovery: answer with an error
    /// trailer, then close it.
    Fatal(ConnId, Status),
    /// The connection closed (EOF).
    Disconnect(ConnId),
    /// Stop serving (flush pending work first).
    Stop,
}

/// One decoded frame of an [`Op::Batch`].
enum Inbound {
    /// A well-formed request with its catalog addressing. The flag is
    /// the reader-side admission verdict: `true` means the request was
    /// over budget at the gate and must be shed (FIFO-positioned
    /// `Overloaded` trailer, no walk).
    Request(Command, bool),
    /// A malformed-but-framed request: answer with an error trailer,
    /// keep the connection.
    Invalid(Status),
}

/// A connection's recycled reply buffers: the scheduler encodes each
/// batch's replies into one it takes from here, and the writer thread
/// gives it back once written, so a warm connection stops allocating
/// per reply. Bounded in count ([`FREE_BUFS`]) and in size
/// ([`FREE_BUF_MAX`]).
#[derive(Clone, Default)]
struct FreeList(Arc<Mutex<Vec<BytesMut>>>);

impl FreeList {
    fn take(&self) -> BytesMut {
        self.0.lock().pop().unwrap_or_default()
    }

    fn give(&self, mut buf: BytesMut) {
        if buf.capacity() > FREE_BUF_MAX {
            return;
        }
        buf.clear();
        let mut free = self.0.lock();
        if free.len() < FREE_BUFS {
            free.push(buf);
        }
    }
}

/// Writes `bufs` in order with as few vectored writes as the stream
/// accepts (one per [`WRITE_DRAIN`] buffers, on a socket with room),
/// resuming after partial writes.
fn write_all_vectored(w: &mut impl Write, bufs: &[BytesMut]) -> io::Result<()> {
    for group in bufs.chunks(WRITE_DRAIN) {
        let mut slices = [IoSlice::new(&[]); WRITE_DRAIN];
        for (slice, buf) in slices.iter_mut().zip(group) {
            *slice = IoSlice::new(buf.as_slice());
        }
        let mut left = &mut slices[..group.len()];
        IoSlice::advance_slices(&mut left, 0); // skip leading empty buffers
        while !left.is_empty() {
            match w.write_vectored(left) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// The admission gate every reader thread checks before forwarding a
/// walk-driven request. The budgets bound *outstanding* requests — the
/// counters rise at decode and fall when the scheduler sends the reply
/// — so the bound covers the ops-channel backlog an open-loop flood
/// builds up, not just the scheduler's own pending queue.
#[derive(Clone)]
struct AdmissionGate {
    /// Admitted walk-driven requests outstanding across all
    /// connections, bounded by `max_pending`.
    inflight: Arc<AtomicUsize>,
    conn_pending: usize,
    max_pending: usize,
}

/// True for the verbs the admission gate meters: the batched reads,
/// whose cost the scheduler cannot bound otherwise. Writes and catalog
/// verbs are synchronous barriers and backpressure on their own.
fn gated_verb(req: &Request) -> bool {
    matches!(
        req,
        Request::Query(_)
            | Request::Allen { .. }
            | Request::TopK { .. }
            | Request::Histogram { .. }
    )
}

/// The gate check, run on the reader thread per decoded request.
/// Returns `true` when the request must be shed. Admitted requests hold
/// one slot on both counters until the scheduler replies; shed requests
/// hold nothing (the increment is given straight back), so a flood past
/// the budget cannot starve other connections' admission.
fn shed_at_gate(gate: &AdmissionGate, conn_inflight: &AtomicUsize, cmd: &Command) -> bool {
    if !gated_verb(&cmd.verb) {
        return false;
    }
    let c = conn_inflight.fetch_add(1, Ordering::Relaxed);
    let g = gate.inflight.fetch_add(1, Ordering::Relaxed);
    if c < gate.conn_pending && g < gate.max_pending {
        return false;
    }
    conn_inflight.fetch_sub(1, Ordering::Relaxed);
    gate.inflight.fetch_sub(1, Ordering::Relaxed);
    true
}

/// How `spawn_connection` starts its threads — injectable so tests can
/// induce spawn failure and assert the connection is rejected without
/// taking the acceptor (or the server) down.
type Spawner = fn(String, Box<dyn FnOnce() + Send + 'static>) -> io::Result<()>;

/// The production spawner: a named OS thread per closure.
fn os_spawn(name: String, f: Box<dyn FnOnce() + Send + 'static>) -> io::Result<()> {
    std::thread::Builder::new().name(name).spawn(f).map(|_| ())
}

/// Registers `transport` with the scheduler as connection `id` and
/// spawns its reader and writer threads. Both threads terminate on
/// their own: the reader at transport EOF/error or scheduler exit, the
/// writer when the scheduler drops the connection's response channel or
/// the peer stops reading.
///
/// Connection bring-up is fallible (TCP `try_clone`, thread spawn under
/// resource exhaustion); any failure rejects *this* connection — with a
/// fatal [`Status::Overloaded`] trailer when the write half is still
/// on hand — and never panics the caller, which may be the acceptor
/// serving every other connection.
fn spawn_connection<T: Transport>(
    ops: &Sender<Op>,
    id: ConnId,
    transport: T,
    gate: &AdmissionGate,
) {
    spawn_connection_with(ops, id, transport, gate.clone(), os_spawn)
}

fn spawn_connection_with<T: Transport>(
    ops: &Sender<Op>,
    id: ConnId,
    transport: T,
    gate: AdmissionGate,
    spawn: Spawner,
) {
    let (reader, mut writer) = match transport.split() {
        Ok(halves) => halves,
        // no write half to carry a rejection: drop; the peer sees EOF
        Err(_) => return,
    };
    let (resp_tx, resp_rx) = unbounded::<BytesMut>();
    let inflight = Arc::new(AtomicUsize::new(0));
    let free = FreeList::default();
    // register before the reader can produce the first request so the
    // scheduler always knows the connection
    let _ = ops.send(Op::Conn(
        id,
        ConnState {
            tx: resp_tx,
            default_index: 0,
            inflight: Arc::clone(&inflight),
            free: free.clone(),
        },
    ));
    let reader_ops = ops.clone();
    let read = spawn(
        format!("serve-read-{id}"),
        Box::new(move || {
            let mut frames = FrameReader::new(BufReader::with_capacity(READ_BUF, reader));
            loop {
                // block for one frame, then decode every whole frame
                // that read already buffered; the admission gate still
                // meters each request, in order
                let mut batch = Vec::new();
                let end = loop {
                    match frames.read_frame() {
                        Ok(Some(frame)) => batch.push(match frame.to_command() {
                            Ok(cmd) => {
                                let shed = shed_at_gate(&gate, &inflight, &cmd);
                                Inbound::Request(cmd, shed)
                            }
                            Err(status) => Inbound::Invalid(status),
                        }),
                        Ok(None) => break Some(Op::Disconnect(id)),
                        Err(DecodeError::Frame(status)) => batch.push(Inbound::Invalid(status)),
                        Err(DecodeError::Desync(status)) => break Some(Op::Fatal(id, status)),
                        Err(DecodeError::Io(_)) => break Some(Op::Fatal(id, Status::Truncated)),
                    }
                    if !frames.has_buffered_frame() {
                        break None;
                    }
                };
                if !batch.is_empty() && reader_ops.send(Op::Batch(id, batch)).is_err() {
                    return; // scheduler gone: server shut down
                }
                if let Some(op) = end {
                    let _ = reader_ops.send(op);
                    return;
                }
            }
        }),
    );
    if read.is_err() {
        // reject just this connection: unregister, tell the peer
        // inline (the writer half is still ours), and keep serving
        let _ = ops.send(Op::Disconnect(id));
        let mut out = BytesMut::new();
        encode_end(
            &mut out,
            Reply {
                status: Status::Overloaded,
                count: 0,
            },
        );
        let _ = writer
            .write_all(out.as_slice())
            .and_then(|_| writer.flush());
        return;
    }
    let write = spawn(
        format!("serve-write-{id}"),
        Box::new(move || {
            // block for one reply buffer, then take every buffer already
            // queued behind it: one write per drain, not per reply
            let mut queued = Vec::with_capacity(WRITE_DRAIN);
            while let Ok(first) = resp_rx.recv() {
                queued.push(first);
                while queued.len() < WRITE_DRAIN {
                    match resp_rx.try_recv() {
                        Ok(buf) => queued.push(buf),
                        Err(_) => break,
                    }
                }
                let sent = write_all_vectored(&mut writer, &queued).and_then(|_| writer.flush());
                for buf in queued.drain(..) {
                    free.give(buf);
                }
                if sent.is_err() {
                    return;
                }
            }
        }),
    );
    if write.is_err() {
        // the write half went down with the failed spawn; unregister
        // and let the peer see EOF
        let _ = ops.send(Op::Disconnect(id));
    }
}

/// A source of inbound connections for the server's generic accept
/// loop — [`TcpListener`] in production, scriptable shims in tests (the
/// loop's retry/backoff behavior is testable without sockets).
pub trait AcceptSource: Send + 'static {
    /// The transport produced per accepted connection.
    type Conn: Transport;
    /// Blocks until the next connection attempt resolves.
    fn accept(&self) -> io::Result<Self::Conn>;
}

impl AcceptSource for TcpListener {
    type Conn = TcpStream;
    fn accept(&self) -> io::Result<TcpStream> {
        TcpListener::accept(self).map(|(stream, _)| stream)
    }
}

/// First delay after a failed `accept`; doubles per consecutive failure.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);
/// Ceiling on the accept retry delay.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// True for accept errors that retrying cannot fix (the listener itself
/// is unusable). Everything else — notably FD exhaustion (`EMFILE`
/// surfaces as an uncategorized kind) and aborted handshakes
/// (`ECONNABORTED`) — is transient: the kernel keeps the listen queue,
/// so backing off and re-accepting recovers.
fn fatal_accept_error(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::InvalidInput
            | io::ErrorKind::NotFound
            | io::ErrorKind::PermissionDenied
            | io::ErrorKind::Unsupported
    )
}

/// The acceptor body: admit connections until the stop flag rises or a
/// fatal accept error. Transient errors are counted
/// ([`BatchStats::accept_errors`]) and retried under exponential
/// backoff, sleeping in short slices so shutdown stays prompt.
fn accept_loop<A: AcceptSource>(
    source: A,
    ops: Sender<Op>,
    next_conn: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    stats: Arc<RwLock<BatchStats>>,
    gate: AdmissionGate,
) {
    let mut backoff = ACCEPT_BACKOFF_START;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match source.accept() {
            Ok(conn) => {
                if stop.load(Ordering::Acquire) {
                    return; // the shutdown wake-up connection
                }
                backoff = ACCEPT_BACKOFF_START;
                let id = next_conn.fetch_add(1, Ordering::Relaxed);
                spawn_connection(&ops, id, conn, &gate);
            }
            Err(e) if fatal_accept_error(e.kind()) => return,
            Err(_) => {
                stats.write().accept_errors += 1;
                let mut left = backoff;
                while !left.is_zero() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let slice = left.min(Duration::from_millis(5));
                    std::thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_CAP);
            }
        }
    }
}

/// A running server over one [`Session`]. Connections attach via
/// [`attach`](Server::attach) (any [`Transport`]) or a TCP listener via
/// [`listen_tcp`](Server::listen_tcp); [`shutdown`](Server::shutdown)
/// flushes and joins the scheduler.
pub struct Server {
    ops: Sender<Op>,
    scheduler: Option<JoinHandle<()>>,
    next_conn: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    /// Acceptor threads; the address is `Some` for TCP listeners so
    /// shutdown can wake a blocking `accept` with a no-op connection.
    acceptors: Vec<(Option<std::net::SocketAddr>, JoinHandle<()>)>,
    stats: Arc<RwLock<BatchStats>>,
    /// The admission gate shared by every connection's reader thread.
    gate: AdmissionGate,
}

impl Server {
    /// Starts the scheduler thread over `session`, which becomes
    /// catalog index 0 ("default") with the given batching policy.
    /// Errors (thread spawn under resource exhaustion, or a session
    /// whose live set cannot be enumerated for the entry's record
    /// table) surface to the caller instead of panicking bring-up.
    pub fn start(mut session: Session<HintMSubs>, config: ServeConfig) -> io::Result<Server> {
        // the entry's id → interval table: what Allen refinement and
        // the aggregation sinks resolve endpoints through, maintained
        // incrementally by every write from here on
        let records: Records = Arc::new(
            session
                .live_intervals()?
                .into_iter()
                .map(|s| (s.id, s))
                .collect(),
        );
        let (ops_tx, ops_rx) = unbounded();
        let stats = Arc::new(RwLock::new(BatchStats::default()));
        let scheduler_stats = Arc::clone(&stats);
        let gate = AdmissionGate {
            inflight: Arc::new(AtomicUsize::new(0)),
            conn_pending: config.conn_pending.max(1),
            max_pending: config.max_pending.max(1),
        };
        let scheduler_gate = gate.clone();
        let scheduler = std::thread::Builder::new()
            .name("serve-scheduler".into())
            .spawn(move || {
                Scheduler::new(
                    session,
                    records,
                    config.max_batch,
                    scheduler_stats,
                    scheduler_gate,
                )
                .run(ops_rx)
            })?;
        Ok(Server {
            ops: ops_tx,
            scheduler: Some(scheduler),
            next_conn: Arc::new(AtomicU64::new(1)),
            stop: Arc::new(AtomicBool::new(false)),
            acceptors: Vec::new(),
            stats,
            gate,
        })
    }

    /// A snapshot of the scheduler's batching counters.
    pub fn stats(&self) -> BatchStats {
        *self.stats.read()
    }

    /// Attaches one connection: spawns its reader and writer threads.
    /// The connection lives until its transport reaches EOF / error or
    /// the server shuts down; the threads clean themselves up.
    pub fn attach<T: Transport>(&self, transport: T) {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        spawn_connection(&self.ops, id, transport, &self.gate);
    }

    /// Accepts TCP connections in a background thread until shutdown.
    /// Returns the bound address (useful with an OS-assigned port 0).
    /// Transient accept failures are retried with bounded backoff (see
    /// [`BatchStats::accept_errors`]); only a fatal error or shutdown
    /// ends the acceptor.
    pub fn listen_tcp(&mut self, listener: TcpListener) -> std::io::Result<std::net::SocketAddr> {
        let addr = listener.local_addr()?;
        self.listen(Some(addr), listener)?;
        Ok(addr)
    }

    /// Accepts connections from an arbitrary [`AcceptSource`] in a
    /// background thread — the seam the accept-loop regression tests
    /// drive with scripted sources. Non-TCP sources cannot be woken by
    /// shutdown; their `accept` must eventually return (the scripted
    /// sources end with a fatal error).
    #[doc(hidden)]
    pub fn listen_source<A: AcceptSource>(&mut self, source: A) -> std::io::Result<()> {
        self.listen(None, source)
    }

    fn listen<A: AcceptSource>(
        &mut self,
        addr: Option<std::net::SocketAddr>,
        source: A,
    ) -> std::io::Result<()> {
        let ops = self.ops.clone();
        let next_conn = Arc::clone(&self.next_conn);
        let stop = Arc::clone(&self.stop);
        let stats = Arc::clone(&self.stats);
        let gate = self.gate.clone();
        let handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(source, ops, next_conn, stop, stats, gate))?;
        self.acceptors.push((addr, handle));
        Ok(())
    }

    /// Flushes pending work, stops the scheduler and joins every
    /// server-owned thread that can be joined promptly (acceptors are
    /// woken with a no-op connection). Connection reader/writer threads
    /// exit on their own as their transports close.
    pub fn shutdown(mut self) {
        self.stop_acceptors();
        let _ = self.ops.send(Op::Stop);
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }

    /// Raises the stop flag, wakes each blocking `accept` with a no-op
    /// connection, and joins the acceptor threads — releasing their
    /// listener sockets. Prompt: a woken acceptor returns immediately.
    fn stop_acceptors(&mut self) {
        self.stop.store(true, Ordering::Release);
        for (addr, handle) in self.acceptors.drain(..) {
            if let Some(addr) = addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // same acceptor teardown as shutdown(), so a dropped server
        // never leaves a thread parked in accept() holding its port;
        // the scheduler is only signalled (joining it could block on
        // in-flight work, which drop must not)
        self.stop_acceptors();
        let _ = self.ops.send(Op::Stop);
    }
}

/// One named index in the catalog: its engine plus the record table
/// the relation/aggregation sinks resolve endpoints through.
struct CatalogEntry {
    name: String,
    session: Session<HintMSubs>,
    records: Records,
}

/// The scheduler's catalog of named indexes. Slot position is the wire
/// index id; dropped slots stay `None` forever so ids are never reused.
struct Catalog {
    entries: Vec<Option<CatalogEntry>>,
    by_name: HashMap<String, u32>,
    /// Live-entry capacity (the `HINT_MAX_INDEXES` knob).
    max: usize,
}

impl Catalog {
    fn new(default: CatalogEntry, max: usize) -> Self {
        let by_name = HashMap::from([(default.name.clone(), 0u32)]);
        Self {
            entries: vec![Some(default)],
            by_name,
            max,
        }
    }

    fn get(&self, id: u32) -> Option<&CatalogEntry> {
        self.entries.get(id as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut CatalogEntry> {
        self.entries.get_mut(id as usize)?.as_mut()
    }

    fn live(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    fn create(&mut self, name: String, lo: u64, hi: u64) -> Result<u32, Status> {
        if self.by_name.contains_key(&name) {
            return Err(Status::BadVerb); // duplicate name
        }
        if self.live() >= self.max {
            return Err(Status::Overloaded);
        }
        // hierarchy depth from the domain's span, capped like the
        // hand-built sessions in this workspace
        let span = (hi - lo) as u128 + 1;
        let mut m = 1u32;
        while (1u128 << m) < span && m < 9 {
            m += 1;
        }
        let sharded = ShardedIndex::build_with_domain(&[], lo, hi, CREATED_SHARDS, |s, l, h| {
            HintMSubs::build_with_domain(s, Domain::new(l, h, m), SubsConfig::update_friendly())
        });
        let id = self.entries.len() as u32;
        self.by_name.insert(name.clone(), id);
        self.entries.push(Some(CatalogEntry {
            name,
            session: Session::new(sharded),
            records: Arc::new(HashMap::new()),
        }));
        Ok(id)
    }

    /// Drops a named entry, returning its id. Index 0 is undropable.
    fn drop_named(&mut self, name: &str) -> Result<u32, Status> {
        let id = *self.by_name.get(name).ok_or(Status::UnknownIndex)?;
        if id == 0 {
            return Err(Status::BadVerb);
        }
        self.by_name.remove(name);
        self.entries[id as usize] = None;
        Ok(id)
    }

    fn infos(&self) -> Vec<IndexInfo> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| {
                slot.as_ref().map(|e| {
                    let (lo, hi) = e.session.domain();
                    IndexInfo {
                        id: id as u32,
                        name: e.name.clone(),
                        lo,
                        hi,
                        len: e.session.len() as u64,
                    }
                })
            })
            .collect()
    }
}

/// Per-connection scheduler state.
struct ConnState {
    /// The connection's reply channel to its writer thread.
    tx: Sender<BytesMut>,
    /// Where un-addressed verbs go; index 0 until a `UseIndex`.
    default_index: u32,
    /// The connection's outstanding-request counter, shared with its
    /// reader thread's admission gate; the scheduler decrements it as
    /// each admitted request's reply goes out.
    inflight: Arc<AtomicUsize>,
    /// Reply buffers the writer thread gives back.
    free: FreeList,
}

/// One queued walk-driven request.
struct Pending {
    conn: ConnId,
    entry: u32,
    /// The range the level walk runs (`None`: the answer is already
    /// known to be empty, the slot only holds FIFO position).
    probe: Option<RangeQuery>,
    sink: ServeSink,
}

/// Streams (outer, inner) join pairs to one connection as they are
/// found, cutting a `Results` frame every [`PAIRS_PER_FRAME`] pairs.
/// A send failure (the peer is gone) saturates the sink, aborting both
/// the inner walks and the outer loop — backpressure by disconnect.
struct JoinStream {
    outer: u64,
    buf: BytesMut,
    pairs: u64,
    tx: Option<Sender<BytesMut>>,
    dead: bool,
}

impl JoinStream {
    fn new(tx: Option<Sender<BytesMut>>) -> Self {
        Self {
            outer: 0,
            buf: BytesMut::new(),
            pairs: 0,
            tx,
            dead: false,
        }
    }

    fn ship(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut out = BytesMut::new();
        encode_results(&mut out, self.buf.as_slice());
        self.buf.clear();
        match &self.tx {
            Some(tx) => {
                if tx.send(out).is_err() {
                    self.dead = true;
                }
            }
            None => self.dead = true,
        }
    }

    /// Flushes the partial frame and sends the trailer.
    fn finish(mut self) {
        self.ship();
        let mut out = BytesMut::new();
        encode_end(
            &mut out,
            Reply {
                status: Status::Ok,
                count: self.pairs,
            },
        );
        if let Some(tx) = &self.tx {
            let _ = tx.send(out);
        }
    }
}

impl hint_core::QuerySink for JoinStream {
    fn emit(&mut self, inner: u64) {
        self.buf.put_u64_le(self.outer);
        self.buf.put_u64_le(inner);
        self.pairs += 1;
        if self.buf.len() >= PAIRS_PER_FRAME * 16 {
            self.ship();
        }
    }

    fn is_saturated(&self) -> bool {
        self.dead
    }
}

/// The scheduler: owns the catalog and the pending queue.
struct Scheduler {
    catalog: Catalog,
    /// The batch cap ([`ServeConfig::max_batch`], at least 1).
    max_batch: usize,
    conns: HashMap<ConnId, ConnState>,
    /// Queued walk-driven requests in global arrival order (which
    /// restricts to per-connection request order).
    pending: Vec<Pending>,
    /// The admission gate the reader threads meter against; the
    /// scheduler's half of the contract is returning each admitted
    /// request's budget when its reply is sent.
    gate: AdmissionGate,
    stats: Arc<RwLock<BatchStats>>,
}

impl Scheduler {
    fn new(
        session: Session<HintMSubs>,
        records: Records,
        max_batch: usize,
        stats: Arc<RwLock<BatchStats>>,
        gate: AdmissionGate,
    ) -> Self {
        let max = hint_core::env::var_or(
            "HINT_MAX_INDEXES",
            DEFAULT_MAX_INDEXES,
            "must be >= 1",
            |&n: &usize| n >= 1,
        );
        let default = CatalogEntry {
            name: "default".to_string(),
            session,
            records,
        };
        let max_batch = max_batch.max(1);
        stats.write().cur_window = max_batch;
        Self {
            catalog: Catalog::new(default, max),
            max_batch,
            conns: HashMap::new(),
            pending: Vec::new(),
            gate,
            stats,
        }
    }

    /// Natural batching: block while nothing is queued, then take every
    /// op already waiting and flush when the channel runs dry (or
    /// [`push`](Self::push) fills a batch). No timer, so a lone request
    /// never waits, and a backlog becomes batches on its own.
    fn run(mut self, ops: Receiver<Op>) {
        loop {
            let op = match ops.try_recv() {
                Ok(op) => op,
                Err(TryRecvError::Empty) if !self.pending.is_empty() => {
                    self.flush_all();
                    continue;
                }
                Err(TryRecvError::Empty) => match ops.recv() {
                    Ok(op) => op,
                    Err(_) => return, // every handle gone
                },
                Err(TryRecvError::Disconnected) => {
                    self.flush_all();
                    return;
                }
            };
            match op {
                Op::Conn(id, state) => {
                    self.conns.insert(id, state);
                }
                Op::Batch(id, batch) => {
                    for inbound in batch {
                        match inbound {
                            Inbound::Request(cmd, shed) => self.handle(id, cmd, shed),
                            Inbound::Invalid(status) => {
                                // flush this connection first so the
                                // error trailer lands in its FIFO position
                                self.flush_conn(id);
                                self.send_end(id, Reply { status, count: 0 });
                            }
                        }
                    }
                }
                Op::Fatal(id, status) => {
                    self.flush_conn(id);
                    self.send_end(id, Reply { status, count: 0 });
                    self.conns.remove(&id); // writer drains, then exits
                }
                Op::Disconnect(id) => {
                    // the peer is gone but its queued queries may share
                    // a batch with live connections; execute, then drop
                    self.flush_all();
                    self.conns.remove(&id);
                }
                Op::Stop => {
                    self.flush_all();
                    return;
                }
            }
        }
    }

    /// Dispatches one decoded request. Catalog verbs act immediately
    /// (after flushing what per-connection FIFO demands); walk-driven
    /// verbs enqueue; writes barrier their own index — and only it —
    /// so writes to one index never stall reads on another.
    fn handle(&mut self, conn: ConnId, cmd: Command, shed: bool) {
        let eid = cmd
            .index
            .unwrap_or_else(|| self.conns.get(&conn).map_or(0, |c| c.default_index));
        if shed {
            // the reader's admission gate refused this request: queue
            // only its FIFO placeholder, which carries the recoverable
            // `Overloaded` trailer and nothing else
            self.stats.write().shed += 1;
            self.push(conn, eid, None, ServeSink::Shed);
            return;
        }
        match cmd.verb {
            // ---- catalog management -------------------------------
            Request::CreateIndex { name, lo, hi } => {
                self.flush_conn(conn);
                let reply = match self.catalog.create(name, lo, hi) {
                    Ok(id) => Reply {
                        status: Status::Ok,
                        count: id as u64,
                    },
                    Err(status) => Reply { status, count: 0 },
                };
                self.send_end(conn, reply);
            }
            Request::DropIndex(name) => {
                // answer the dropped index's queued work before it goes
                let target = self.catalog.by_name.get(&name).copied();
                match target {
                    Some(id) if id != 0 => self.flush_where(&[id], Some(conn)),
                    _ => self.flush_conn(conn),
                }
                let reply = match self.catalog.drop_named(&name) {
                    Ok(id) => Reply {
                        status: Status::Ok,
                        count: id as u64,
                    },
                    Err(status) => Reply { status, count: 0 },
                };
                self.send_end(conn, reply);
            }
            Request::ListIndexes => {
                self.flush_conn(conn);
                let mut out = self.out_buf(conn);
                encode_index_infos(&mut out, &self.catalog.infos());
                self.send_bytes(conn, out);
            }
            Request::UseIndex(name) => {
                self.flush_conn(conn);
                let reply = match self.catalog.by_name.get(&name).copied() {
                    Some(id) => {
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.default_index = id;
                        }
                        Reply {
                            status: Status::Ok,
                            count: id as u64,
                        }
                    }
                    None => Reply {
                        status: Status::UnknownIndex,
                        count: 0,
                    },
                };
                self.send_end(conn, reply);
            }
            // ---- walk-driven reads --------------------------------
            Request::Query(q) => match self.catalog.get(eid) {
                Some(_) => self.push(conn, eid, Some(q), ServeSink::range()),
                None => self.reject_gated(conn, Status::UnknownIndex),
            },
            Request::Allen { rel, q } => match self.catalog.get(eid) {
                Some(entry) => {
                    let (lo, hi) = entry.session.domain();
                    // the probe is a minimal superset; the sink-level
                    // relation filter refines it to the exact answer
                    match rel.probe(q, lo, hi) {
                        Some(p) => {
                            let sink = ServeSink::allen(rel, q, Arc::clone(&entry.records));
                            self.push(conn, eid, Some(p), sink);
                        }
                        // provably empty, but the slot keeps FIFO order
                        None => self.push(conn, eid, None, ServeSink::Empty),
                    }
                }
                None => self.reject_gated(conn, Status::UnknownIndex),
            },
            Request::TopK { k, q } => match self.catalog.get(eid) {
                Some(entry) => {
                    let sink = ServeSink::top_k(k as usize, Arc::clone(&entry.records));
                    self.push(conn, eid, Some(q), sink);
                }
                None => self.reject_gated(conn, Status::UnknownIndex),
            },
            Request::Histogram { width, q } => match self.catalog.get(eid) {
                Some(entry) => {
                    let buckets = ((q.end - q.st) as u128 + 1).div_ceil(width as u128);
                    if buckets > MAX_HIST_BUCKETS {
                        self.reject_gated(conn, Status::BadVerb);
                        return;
                    }
                    let sink = ServeSink::histogram(q, width, Arc::clone(&entry.records));
                    self.push(conn, eid, Some(q), sink);
                }
                None => self.reject_gated(conn, Status::UnknownIndex),
            },
            Request::Join { inner, q } => self.join(conn, eid, inner, q),
            // ---- writes (per-index barriers) ----------------------
            Request::Insert(s) => {
                if self.catalog.get(eid).is_none() {
                    self.reject(conn, Status::UnknownIndex);
                    return;
                }
                self.flush_where(&[eid], Some(conn));
                self.stats.write().writes += 1;
                let entry = self.catalog.get_mut(eid).expect("checked above");
                let reply = match entry.session.try_insert(s) {
                    Ok(()) => {
                        Arc::make_mut(&mut entry.records).insert(s.id, s);
                        Reply {
                            status: Status::Ok,
                            count: 1,
                        }
                    }
                    Err(hint_core::WriteError::ReservedId) => Reply {
                        status: Status::ReservedId,
                        count: 0,
                    },
                    Err(hint_core::WriteError::OutOfDomain { .. }) => Reply {
                        status: Status::OutOfDomain,
                        count: 0,
                    },
                };
                self.send_end(conn, reply);
            }
            Request::Delete(s) => {
                if self.catalog.get(eid).is_none() {
                    self.reject(conn, Status::UnknownIndex);
                    return;
                }
                self.flush_where(&[eid], Some(conn));
                self.stats.write().writes += 1;
                let entry = self.catalog.get_mut(eid).expect("checked above");
                let found = entry.session.delete(&s);
                if found {
                    Arc::make_mut(&mut entry.records).remove(&s.id);
                }
                self.send_end(
                    conn,
                    Reply {
                        status: Status::Ok,
                        count: u64::from(found),
                    },
                );
            }
            Request::Seal => {
                if self.catalog.get(eid).is_none() {
                    self.reject(conn, Status::UnknownIndex);
                    return;
                }
                self.flush_where(&[eid], Some(conn));
                self.stats.write().writes += 1;
                let entry = self.catalog.get_mut(eid).expect("checked above");
                let resealed = entry.session.seal_if_dirty();
                self.send_end(
                    conn,
                    Reply {
                        status: Status::Ok,
                        count: u64::from(resealed),
                    },
                );
            }
            Request::Snapshot(path) => {
                if self.catalog.get(eid).is_none() {
                    self.reject(conn, Status::UnknownIndex);
                    return;
                }
                // snapshots are write barriers too: the bytes must
                // reflect every request answered before this one
                self.flush_where(&[eid], Some(conn));
                self.stats.write().writes += 1;
                let entry = self.catalog.get_mut(eid).expect("checked above");
                match path {
                    None => match entry.session.snapshot_bytes() {
                        Ok(bytes) => self.stream_snapshot(conn, &bytes),
                        Err(_) => self.send_end(
                            conn,
                            Reply {
                                status: Status::SnapshotFailed,
                                count: 0,
                            },
                        ),
                    },
                    Some(p) => {
                        let reply = match entry.session.snapshot_save(Path::new(&p)) {
                            Ok(bytes) => Reply {
                                status: Status::Ok,
                                count: bytes,
                            },
                            Err(_) => Reply {
                                status: Status::SnapshotFailed,
                                count: 0,
                            },
                        };
                        self.send_end(conn, reply);
                    }
                }
            }
            Request::Restore(p) => {
                if self.catalog.get(eid).is_none() {
                    self.reject(conn, Status::UnknownIndex);
                    return;
                }
                self.flush_where(&[eid], Some(conn));
                self.stats.write().writes += 1;
                // restore into a twin first: the served index (and its
                // record table) only swap on full success
                let reply = match Session::<HintMSubs>::restore(Path::new(&p))
                    .map_err(|e| e.to_string())
                    .and_then(|mut fresh| {
                        let live = fresh.live_intervals().map_err(|e| e.to_string())?;
                        Ok((fresh, live))
                    }) {
                    Ok((fresh, live)) => {
                        let count = fresh.len() as u64;
                        let entry = self.catalog.get_mut(eid).expect("checked above");
                        entry.session = fresh;
                        entry.records = Arc::new(live.into_iter().map(|s| (s.id, s)).collect());
                        Reply {
                            status: Status::Ok,
                            count,
                        }
                    }
                    // the served index is unchanged on failure
                    Err(_) => Reply {
                        status: Status::SnapshotFailed,
                        count: 0,
                    },
                };
                self.send_end(conn, reply);
            }
        }
    }

    /// Queues one walk-driven request (or a shed request's FIFO
    /// placeholder), flushing everything once the batch reaches the
    /// cap.
    fn push(&mut self, conn: ConnId, entry: u32, probe: Option<RangeQuery>, sink: ServeSink) {
        self.pending.push(Pending {
            conn,
            entry,
            probe,
            sink,
        });
        if self.pending.len() >= self.max_batch {
            self.flush_all();
        }
    }

    /// Returns one admitted request's budget to the gate: the global
    /// counter always, the per-connection counter while the connection
    /// is still known (a vanished connection's reader is gone too, so
    /// its counter no longer gates anything).
    fn release(&mut self, conn: ConnId) {
        self.gate.inflight.fetch_sub(1, Ordering::Relaxed);
        if let Some(c) = self.conns.get(&conn) {
            c.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Answers a request with an error trailer in FIFO position.
    fn reject(&mut self, conn: ConnId, status: Status) {
        self.flush_conn(conn);
        self.send_end(conn, Reply { status, count: 0 });
    }

    /// [`reject`](Self::reject) for an admitted gated verb: the reader
    /// counted this request against the admission budgets, so the
    /// error reply must give them back.
    fn reject_gated(&mut self, conn: ConnId, status: Status) {
        self.release(conn);
        self.reject(conn, status);
    }

    /// Executes the streamed interval join: for every record of the
    /// outer index overlapping the window (ascending id), the inner
    /// index is probed with the record clipped to the window, and each
    /// (outer, inner) pair streams to the requesting connection.
    fn join(&mut self, conn: ConnId, outer: u32, inner: u32, q: RangeQuery) {
        if self.catalog.get(outer).is_none() || self.catalog.get(inner).is_none() {
            self.reject(conn, Status::UnknownIndex);
            return;
        }
        // a join is a read barrier on both sides plus this connection
        self.flush_where(&[outer, inner], Some(conn));
        let outer_records = Arc::clone(&self.catalog.get(outer).expect("checked above").records);
        let mut rows: Vec<Interval> = outer_records
            .values()
            .filter(|s| s.st <= q.end && s.end >= q.st)
            .copied()
            .collect();
        rows.sort_unstable_by_key(|s| s.id);
        let inner_session = &self.catalog.get(inner).expect("checked above").session;
        let mut stream = JoinStream::new(self.conns.get(&conn).map(|c| c.tx.clone()));
        for o in rows {
            if stream.dead {
                break;
            }
            stream.outer = o.id;
            let clip = RangeQuery::new(o.st.max(q.st), o.end.min(q.end));
            inner_session.query_sink(clip, &mut stream);
        }
        stream.finish();
    }

    /// Flushes every queued request.
    fn flush_all(&mut self) {
        let items = std::mem::take(&mut self.pending);
        self.execute(items);
    }

    /// Flushes one connection's queued requests (all indexes).
    fn flush_conn(&mut self, conn: ConnId) {
        self.flush_where(&[], Some(conn));
    }

    /// Selective flush: executes every queued request on the given
    /// indexes or from the given connection — plus, for each connection
    /// that loses an item, every *earlier* item it has queued, so
    /// per-connection reply order stays FIFO. Requests on untouched
    /// indexes from untouched connections stay queued: this is what
    /// lets a write barrier one index without stalling the others.
    fn flush_where(&mut self, entries: &[u32], conn: Option<ConnId>) {
        if self.pending.is_empty() {
            return;
        }
        // last selected position per connection (prefix closure)
        let mut latest: HashMap<ConnId, usize> = HashMap::new();
        for (i, p) in self.pending.iter().enumerate() {
            if entries.contains(&p.entry) || conn == Some(p.conn) {
                latest.insert(p.conn, i);
            }
        }
        if latest.is_empty() {
            return;
        }
        let mut selected = Vec::new();
        let mut rest = Vec::new();
        for (i, p) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            if latest.get(&p.conn).is_some_and(|&last| i <= last) {
                selected.push(p);
            } else {
                rest.push(p);
            }
        }
        self.pending = rest;
        self.execute(selected);
    }

    /// Executes a flushed set: one merged walk per addressed index,
    /// then every reply sent in arrival order.
    fn execute(&mut self, mut items: Vec<Pending>) {
        if items.is_empty() {
            return;
        }
        // these are answered now: release their admission budget back
        // to the reader-side gate (shed slots never held any)
        for p in &items {
            if !matches!(p.sink, ServeSink::Shed) {
                self.release(p.conn);
            }
        }
        // group walk work per entry, preserving arrival order within
        let mut by_entry: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, p) in items.iter().enumerate() {
            if p.probe.is_none() {
                continue;
            }
            match by_entry.iter_mut().find(|(e, _)| *e == p.entry) {
                Some((_, v)) => v.push(i),
                None => by_entry.push((p.entry, vec![i])),
            }
        }
        let mut ran = 0u64;
        let mut total = 0u64;
        let mut largest = 0usize;
        for (entry, idxs) in &by_entry {
            // DropIndex flushes its entry before removal, so a queued
            // item's entry is always live here; guard anyway — a
            // missing entry just leaves its sinks empty
            let Some(e) = self.catalog.get(*entry) else {
                continue;
            };
            let queries: Vec<RangeQuery> = idxs
                .iter()
                .map(|&i| items[i].probe.expect("grouped on Some"))
                .collect();
            // plain range scans (every legacy verb) walk the merge
            // path monomorphized over `WireSink` directly — the enum
            // dispatch is measurable in the per-id emit loops, so only
            // mixed batches (Allen/top-k/histogram present) pay for it
            if idxs
                .iter()
                .all(|&i| matches!(items[i].sink, ServeSink::Range(_)))
            {
                let mut sinks: Vec<WireSink> = idxs
                    .iter()
                    .map(
                        |&i| match std::mem::replace(&mut items[i].sink, ServeSink::Empty) {
                            ServeSink::Range(w) => w,
                            _ => unreachable!("filtered on Range"),
                        },
                    )
                    .collect();
                e.session.query_batch_inline(&queries, &mut sinks);
                for (&i, sink) in idxs.iter().zip(sinks) {
                    items[i].sink = ServeSink::Range(sink);
                }
            } else {
                let mut sinks: Vec<ServeSink> = idxs
                    .iter()
                    .map(|&i| std::mem::replace(&mut items[i].sink, ServeSink::Empty))
                    .collect();
                e.session.query_batch_inline(&queries, &mut sinks);
                for (&i, sink) in idxs.iter().zip(sinks) {
                    items[i].sink = sink;
                }
            }
            ran += 1;
            total += queries.len() as u64;
            largest = largest.max(queries.len());
        }
        if ran > 0 {
            let mut stats = self.stats.write();
            stats.batches += ran;
            stats.queries += total;
            stats.largest_batch = stats.largest_batch.max(largest);
        }
        // one buffer per connection, its replies in FIFO order, and one
        // send each: the writer wakes once per batch, not per reply
        let mut outs: Vec<(ConnId, BytesMut)> = Vec::new();
        for p in items {
            let slot = match outs.iter().position(|(c, _)| *c == p.conn) {
                Some(slot) => slot,
                None => {
                    outs.push((p.conn, self.out_buf(p.conn)));
                    outs.len() - 1
                }
            };
            p.sink.into_reply(&mut outs[slot].1);
        }
        for (conn, out) in outs {
            self.send_bytes(conn, out);
        }
    }

    /// Streams snapshot bytes to one connection as [`SNAP_CHUNK`]-sized
    /// chunk frames followed by an `Ok` trailer whose count is the
    /// total byte length.
    fn stream_snapshot(&self, conn: ConnId, bytes: &[u8]) {
        let mut out = self.out_buf(conn);
        for chunk in bytes.chunks(SNAP_CHUNK) {
            encode_snapshot_chunk(&mut out, chunk);
        }
        encode_end(
            &mut out,
            Reply {
                status: Status::Ok,
                count: bytes.len() as u64,
            },
        );
        self.send_bytes(conn, out);
    }

    fn send_end(&self, conn: ConnId, reply: Reply) {
        let mut out = self.out_buf(conn);
        encode_end(&mut out, reply);
        self.send_bytes(conn, out);
    }

    /// An empty reply buffer for `conn`, recycled when one is free.
    fn out_buf(&self, conn: ConnId) -> BytesMut {
        self.conns
            .get(&conn)
            .map_or_else(BytesMut::new, |c| c.free.take())
    }

    fn send_bytes(&self, conn: ConnId, out: BytesMut) {
        if let Some(c) = self.conns.get(&conn) {
            let _ = c.tx.send(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::transport::{duplex, DuplexTransport};
    use crate::ClientError;
    use bytes::Buf;
    use hint_core::{Domain, Interval, ShardedIndex, SubsConfig};

    fn sharded() -> ShardedIndex<HintMSubs> {
        let data: Vec<Interval> = (0..500)
            .map(|i| {
                let st = (i * 37) % 4_000;
                Interval::new(i, st, (st + i % 50).min(4_095))
            })
            .collect();
        ShardedIndex::build_with_domain(&data, 0, 4_095, 4, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, 8), SubsConfig::full())
        })
    }

    fn session() -> Session<HintMSubs> {
        Session::new(sharded())
    }

    fn failing_read_spawn(name: String, f: Box<dyn FnOnce() + Send + 'static>) -> io::Result<()> {
        if name.starts_with("serve-read") {
            return Err(io::Error::other("induced spawn failure"));
        }
        os_spawn(name, f)
    }

    /// An [`AcceptSource`] that replays a script of accept outcomes,
    /// then reports a fatal error so the acceptor thread exits and
    /// shutdown can join it.
    struct ScriptedSource {
        script: std::sync::Mutex<std::collections::VecDeque<io::Result<DuplexTransport>>>,
    }

    impl ScriptedSource {
        fn new(script: Vec<io::Result<DuplexTransport>>) -> Self {
            Self {
                script: std::sync::Mutex::new(script.into_iter().collect()),
            }
        }
    }

    impl AcceptSource for ScriptedSource {
        type Conn = DuplexTransport;
        fn accept(&self) -> io::Result<DuplexTransport> {
            self.script
                .lock()
                .unwrap()
                .pop_front()
                .unwrap_or_else(|| Err(io::Error::new(io::ErrorKind::Unsupported, "script over")))
        }
    }

    /// A scheduler over [`session`], plus the admission gate its
    /// connections' readers would share and its stats.
    fn scheduler(config: ServeConfig) -> (Scheduler, AdmissionGate, Arc<RwLock<BatchStats>>) {
        scheduler_over(session(), config)
    }

    /// [`scheduler`] over a caller-built session.
    fn scheduler_over(
        mut session: Session<HintMSubs>,
        config: ServeConfig,
    ) -> (Scheduler, AdmissionGate, Arc<RwLock<BatchStats>>) {
        let records: Records = Arc::new(
            session
                .live_intervals()
                .unwrap()
                .into_iter()
                .map(|s| (s.id, s))
                .collect(),
        );
        let stats = Arc::new(RwLock::new(BatchStats::default()));
        let gate = AdmissionGate {
            inflight: Arc::new(AtomicUsize::new(0)),
            conn_pending: config.conn_pending,
            max_pending: config.max_pending,
        };
        let sched = Scheduler::new(
            session,
            records,
            config.max_batch,
            Arc::clone(&stats),
            gate.clone(),
        );
        (sched, gate, stats)
    }

    /// One connection as the scheduler sees it: registered on the op
    /// channel the way `spawn_connection` does, minus the threads.
    struct TestConn {
        id: ConnId,
        inflight: Arc<AtomicUsize>,
        replies: Receiver<BytesMut>,
    }

    impl TestConn {
        fn open(ops: &Sender<Op>, id: ConnId) -> Self {
            let (tx, replies) = unbounded();
            let inflight = Arc::new(AtomicUsize::new(0));
            let state = ConnState {
                tx,
                default_index: 0,
                inflight: Arc::clone(&inflight),
                free: FreeList::default(),
            };
            ops.send(Op::Conn(id, state)).unwrap();
            Self {
                id,
                inflight,
                replies,
            }
        }

        /// Queues `qs` as one reader batch, gated as the reader gates.
        fn send(&self, ops: &Sender<Op>, gate: &AdmissionGate, qs: &[RangeQuery]) {
            let cmds = qs.iter().map(|&q| cmd(Request::Query(q))).collect();
            self.send_cmds(ops, gate, cmds);
        }

        /// Queues `cmds` as one reader batch, gated as the reader gates.
        fn send_cmds(&self, ops: &Sender<Op>, gate: &AdmissionGate, cmds: Vec<Command>) {
            let batch = cmds
                .into_iter()
                .map(|cmd| {
                    let shed = shed_at_gate(gate, &self.inflight, &cmd);
                    Inbound::Request(cmd, shed)
                })
                .collect();
            ops.send(Op::Batch(self.id, batch)).unwrap();
        }

        /// The next reply buffer the scheduler sends this connection.
        /// Bounded so a scheduler that never flushes fails the test
        /// instead of hanging it.
        fn next_buf(&self) -> BytesMut {
            let give_up = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(buf) = self.replies.try_recv() {
                    return buf;
                }
                assert!(
                    std::time::Instant::now() < give_up,
                    "no reply for connection {}",
                    self.id
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// An un-addressed, unflagged command.
    fn cmd(verb: Request) -> Command {
        Command { index: None, verb }
    }

    /// Polls `done` until it holds, failing the test after 10 s instead
    /// of hanging it.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < give_up, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    impl TestConn {
        /// Waits until the scheduler drops this connection's reply
        /// channel; any further reply fails the test.
        fn expect_closed(&self) {
            wait_for("connection closed", || match self.replies.try_recv() {
                Ok(_) => panic!("unexpected reply for connection {}", self.id),
                Err(e) => e == TryRecvError::Disconnected,
            });
        }
    }

    /// Each reply's trailer in one reply buffer: status and count.
    fn trailers(buf: BytesMut) -> Vec<(Status, u64)> {
        let mut frames = FrameReader::new(buf.as_slice());
        let mut out = Vec::new();
        while let Some(mut f) = frames.read_frame().unwrap() {
            if f.kind == crate::proto::Kind::End {
                let status = Status::from_u8(f.payload.get_u8());
                out.push((status, f.payload.get_u64_le()));
            }
        }
        out
    }

    /// Decodes one reply buffer: each reply's sorted ids and status.
    fn decode(buf: BytesMut) -> Vec<(Vec<u64>, Status)> {
        let mut frames = FrameReader::new(buf.as_slice());
        let mut out = Vec::new();
        let mut ids = Vec::new();
        while let Some(mut f) = frames.read_frame().unwrap() {
            match f.kind {
                crate::proto::Kind::Results => {
                    while f.payload.has_remaining() {
                        ids.push(f.payload.get_u64_le());
                    }
                }
                crate::proto::Kind::End => {
                    ids.sort_unstable();
                    out.push((
                        std::mem::take(&mut ids),
                        Status::from_u8(f.payload.get_u8()),
                    ));
                }
                kind => panic!("unexpected {kind:?} frame"),
            }
        }
        out
    }

    /// What a solo `query_sink` answers, sorted.
    fn direct(q: RangeQuery) -> (Vec<u64>, Status) {
        let mut ids: Vec<u64> = Vec::new();
        session().query_sink(q, &mut ids);
        ids.sort_unstable();
        (ids, Status::Ok)
    }

    /// Distinct, non-empty probes over [`session`]'s domain.
    fn probe(i: u64) -> RangeQuery {
        RangeQuery::new(i * 300, i * 300 + 120)
    }

    #[test]
    fn scheduler_answers_a_lone_query_without_further_ops() {
        // the op channel stays open and nothing follows the query, so
        // no batch ever fills: only the flush on an empty channel can
        // answer it
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let conn = TestConn::open(&ops, 1);
        conn.send(&ops, &gate, &[probe(1)]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(decode(conn.next_buf()), vec![direct(probe(1))]);
        assert_eq!(stats.read().batches, 1);
        drop(ops); // every handle gone: the scheduler returns
        handle.join().unwrap();
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0, "budget returned");
    }

    #[test]
    fn scheduler_batches_queued_ops_across_connections() {
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        a.send(&ops, &gate, &[probe(1)]);
        b.send(&ops, &gate, &[probe(2)]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(decode(a.next_buf()), vec![direct(probe(1))]);
        assert_eq!(decode(b.next_buf()), vec![direct(probe(2))]);
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!((stats.batches, stats.queries), (1, 2), "{stats:?}");
    }

    #[test]
    fn scheduler_caps_a_backlog_at_max_batch_and_keeps_fifo() {
        // global arrival order: a0 a1 a2 b0 | b1 a3 a4 a5 | b2 b3, so
        // the cap of 4 cuts batches of 4 and 4, and the drained
        // channel flushes the last 2
        let (sched, gate, stats) = scheduler(ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        });
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        let qa: Vec<RangeQuery> = (0..6).map(probe).collect();
        let qb: Vec<RangeQuery> = (6..10).map(probe).collect();
        a.send(&ops, &gate, &qa[..3]);
        b.send(&ops, &gate, &qb[..2]);
        a.send(&ops, &gate, &qa[3..]);
        b.send(&ops, &gate, &qb[2..]);
        let handle = std::thread::spawn(move || sched.run(rx));
        // one reply buffer per connection per batch, in request order
        let want = |qs: &[RangeQuery]| qs.iter().map(|&q| direct(q)).collect::<Vec<_>>();
        assert_eq!(decode(a.next_buf()), want(&qa[..3]));
        assert_eq!(decode(a.next_buf()), want(&qa[3..]));
        assert_eq!(decode(b.next_buf()), want(&qb[..1]));
        assert_eq!(decode(b.next_buf()), want(&qb[1..2]));
        assert_eq!(decode(b.next_buf()), want(&qb[2..]));
        drop(ops);
        handle.join().unwrap();
        assert!(a.replies.try_recv().is_err() && b.replies.try_recv().is_err());
        let stats = *stats.read();
        assert_eq!(
            (stats.batches, stats.queries, stats.largest_batch),
            (3, 10, 4),
            "{stats:?}"
        );
        assert_eq!(stats.cur_window, 4, "the cap in force");
    }

    #[test]
    fn shed_at_gate_admits_exactly_the_global_budget() {
        // 8 connections, 10 reads each, and nothing released: the
        // global budget admits exactly max_pending of them
        let gate = AdmissionGate {
            inflight: Arc::new(AtomicUsize::new(0)),
            conn_pending: 1_000,
            max_pending: 16,
        };
        let conns: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let read = cmd(Request::Query(RangeQuery::new(0, 99)));
        let mut admitted = 0;
        for conn in &conns {
            for _ in 0..10 {
                admitted += usize::from(!shed_at_gate(&gate, conn, &read));
            }
        }
        assert_eq!(admitted, gate.max_pending);
        // shed requests hold no budget on either counter
        assert_eq!(gate.inflight.load(Ordering::Relaxed), gate.max_pending);
        let held: usize = conns.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(held, gate.max_pending);
        // writes are barriers, never gated
        let seal = Command {
            verb: Request::Seal,
            ..read
        };
        assert!(!shed_at_gate(&gate, &conns[7], &seal));
    }

    #[test]
    fn scheduler_with_cap_one_walks_every_query_alone() {
        let (sched, gate, stats) = scheduler(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let qs: Vec<RangeQuery> = (0..5).map(probe).collect();
        a.send(&ops, &gate, &qs);
        let handle = std::thread::spawn(move || sched.run(rx));
        for &q in &qs {
            assert_eq!(decode(a.next_buf()), vec![direct(q)]);
        }
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!(
            (stats.batches, stats.queries, stats.largest_batch),
            (5, 5, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn scheduler_reports_its_cap_as_cur_window() {
        let (sched, _, stats) = scheduler(ServeConfig::default());
        assert_eq!(sched.max_batch, 64);
        assert_eq!(stats.read().cur_window, 64);
        // a zero cap is repaired to 1, never "flush on every push of
        // nothing"; there are no lanes to count
        let (sched, _, stats) = scheduler(ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        });
        assert_eq!(sched.max_batch, 1);
        let stats = *stats.read();
        assert_eq!((stats.cur_window, stats.lane_high), (1, 0), "{stats:?}");
    }

    #[test]
    fn scheduler_ignores_the_priority_flag() {
        // flagged and plain reads from two connections share one walk,
        // and each connection's replies stay in request order
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        // decoded from a raw frame with the priority bit set
        let flagged = |q| {
            let mut frame = BytesMut::new();
            crate::proto::encode_request(&mut frame, &Request::Query(q));
            let mut frame = Vec::from(frame);
            frame[3] |= crate::proto::FLAG_PRIORITY; // the header's flags byte
            let decoded = crate::proto::FrameReader::new(frame.as_slice())
                .read_frame()
                .unwrap()
                .unwrap()
                .to_command()
                .unwrap();
            assert_eq!(decoded, cmd(Request::Query(q)));
            decoded
        };
        a.send_cmds(
            &ops,
            &gate,
            vec![flagged(probe(1)), cmd(Request::Query(probe(2)))],
        );
        b.send_cmds(
            &ops,
            &gate,
            vec![cmd(Request::Query(probe(3))), flagged(probe(4))],
        );
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(
            decode(a.next_buf()),
            vec![direct(probe(1)), direct(probe(2))]
        );
        assert_eq!(
            decode(b.next_buf()),
            vec![direct(probe(3)), direct(probe(4))]
        );
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!((stats.batches, stats.queries), (1, 4), "{stats:?}");
    }

    #[test]
    fn scheduler_write_barrier_flushes_earlier_reads_on_its_index() {
        // b's first read precedes a's insert and must not see it; b's
        // second read follows it and must
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        let q = probe(1);
        let fresh = Interval::new(90_000, q.st + 10, q.st + 20);
        b.send(&ops, &gate, &[q]);
        a.send_cmds(&ops, &gate, vec![cmd(Request::Insert(fresh))]);
        b.send(&ops, &gate, &[q]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(decode(b.next_buf()), vec![direct(q)]);
        assert_eq!(trailers(a.next_buf()), vec![(Status::Ok, 1)]);
        let (mut want, _) = direct(q);
        want.push(fresh.id);
        want.sort_unstable();
        assert_eq!(decode(b.next_buf()), vec![(want, Status::Ok)]);
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!((stats.batches, stats.writes), (2, 1), "{stats:?}");
    }

    #[test]
    fn scheduler_write_on_another_index_leaves_reads_queued() {
        // a's insert barriers index 1 only, so b's reads on index 0
        // around it still form one batch
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        let create = Request::CreateIndex {
            name: "side".to_string(),
            lo: 0,
            hi: 4_095,
        };
        a.send_cmds(&ops, &gate, vec![cmd(create)]);
        b.send(&ops, &gate, &[probe(1)]);
        let insert = Command {
            index: Some(1),
            ..cmd(Request::Insert(Interval::new(1, 10, 20)))
        };
        a.send_cmds(&ops, &gate, vec![insert]);
        b.send(&ops, &gate, &[probe(2)]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(trailers(a.next_buf()), vec![(Status::Ok, 1)], "created");
        assert_eq!(trailers(a.next_buf()), vec![(Status::Ok, 1)], "inserted");
        assert_eq!(
            decode(b.next_buf()),
            vec![direct(probe(1)), direct(probe(2))]
        );
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!((stats.batches, stats.writes), (1, 1), "{stats:?}");
    }

    #[test]
    fn scheduler_catalog_verbs_flush_only_their_own_connection() {
        // arrival: a0 b0 a:UseIndex b1 — the catalog verb answers a0
        // first, while b0 stays queued and batches with b1
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        a.send(&ops, &gate, &[probe(1)]);
        b.send(&ops, &gate, &[probe(2)]);
        a.send_cmds(
            &ops,
            &gate,
            vec![cmd(Request::UseIndex("default".to_string()))],
        );
        b.send(&ops, &gate, &[probe(3)]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(decode(a.next_buf()), vec![direct(probe(1))]);
        assert_eq!(trailers(a.next_buf()), vec![(Status::Ok, 0)]);
        assert_eq!(
            decode(b.next_buf()),
            vec![direct(probe(2)), direct(probe(3))]
        );
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!((stats.batches, stats.queries), (2, 3), "{stats:?}");
    }

    #[test]
    fn scheduler_answers_an_invalid_frame_in_fifo_position() {
        let (sched, gate, _) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let gated = |q| {
            let c = cmd(Request::Query(q));
            let shed = shed_at_gate(&gate, &a.inflight, &c);
            Inbound::Request(c, shed)
        };
        let batch = vec![
            gated(probe(1)),
            Inbound::Invalid(Status::InvalidRange),
            gated(probe(2)),
        ];
        ops.send(Op::Batch(a.id, batch)).unwrap();
        let handle = std::thread::spawn(move || sched.run(rx));
        let got: Vec<_> = (0..3).flat_map(|_| decode(a.next_buf())).collect();
        assert_eq!(
            got,
            vec![
                direct(probe(1)),
                (Vec::new(), Status::InvalidRange),
                direct(probe(2))
            ]
        );
        drop(ops);
        handle.join().unwrap();
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scheduler_sheds_past_the_connection_budget_in_fifo_position() {
        let (sched, gate, stats) = scheduler(ServeConfig {
            conn_pending: 2,
            ..ServeConfig::default()
        });
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        let qa: Vec<RangeQuery> = (0..4).map(probe).collect();
        a.send(&ops, &gate, &qa);
        b.send(&ops, &gate, &[probe(5)]);
        let handle = std::thread::spawn(move || sched.run(rx));
        let shed = (Vec::new(), Status::Overloaded);
        assert_eq!(
            decode(a.next_buf()),
            vec![direct(qa[0]), direct(qa[1]), shed.clone(), shed]
        );
        assert_eq!(decode(b.next_buf()), vec![direct(probe(5))]);
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!(
            (stats.shed, stats.batches, stats.queries),
            (2, 1, 3),
            "{stats:?}"
        );
        // every admitted slot came back; shed ones never held any
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0);
        assert_eq!(a.inflight.load(Ordering::Relaxed), 0);
        assert_eq!(b.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scheduler_returns_a_slot_before_the_reply_goes_out() {
        // with a budget of one, a read sent after the previous reply
        // arrived is admitted, never shed
        let (sched, gate, _) = scheduler(ServeConfig {
            conn_pending: 1,
            max_pending: 1,
            ..ServeConfig::default()
        });
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let handle = std::thread::spawn(move || sched.run(rx));
        for i in 0..5 {
            a.send(&ops, &gate, &[probe(i)]);
            assert_eq!(decode(a.next_buf()), vec![direct(probe(i))]);
        }
        drop(ops);
        handle.join().unwrap();
    }

    #[test]
    fn scheduler_returns_the_budget_of_rejected_reads() {
        // reads on an unknown index and an oversized histogram are
        // answered with errors in FIFO position, and give back the
        // budget the gate charged them
        let (sched, gate, _) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let on_missing = |verb| Command {
            index: Some(9),
            ..cmd(verb)
        };
        let too_wide = Request::Histogram {
            width: 1,
            q: RangeQuery::new(0, 100_000),
        };
        a.send_cmds(
            &ops,
            &gate,
            vec![
                on_missing(Request::Query(probe(1))),
                on_missing(Request::TopK { k: 3, q: probe(1) }),
                cmd(too_wide),
                cmd(Request::Query(probe(2))),
            ],
        );
        let handle = std::thread::spawn(move || sched.run(rx));
        let got: Vec<_> = (0..4).flat_map(|_| decode(a.next_buf())).collect();
        assert_eq!(
            got,
            vec![
                (Vec::new(), Status::UnknownIndex),
                (Vec::new(), Status::UnknownIndex),
                (Vec::new(), Status::BadVerb),
                direct(probe(2)),
            ]
        );
        drop(ops);
        handle.join().unwrap();
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0);
        assert_eq!(a.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scheduler_fatal_answers_queued_reads_then_closes_the_connection() {
        let (sched, gate, _) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        a.send(&ops, &gate, &[probe(1)]);
        ops.send(Op::Fatal(a.id, Status::BadMagic)).unwrap();
        b.send(&ops, &gate, &[probe(2)]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(decode(a.next_buf()), vec![direct(probe(1))]);
        assert_eq!(decode(a.next_buf()), vec![(Vec::new(), Status::BadMagic)]);
        // closed while the scheduler keeps serving the others
        a.expect_closed();
        assert_eq!(decode(b.next_buf()), vec![direct(probe(2))]);
        drop(ops);
        handle.join().unwrap();
    }

    #[test]
    fn scheduler_disconnect_executes_every_queued_query_first() {
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let b = TestConn::open(&ops, 2);
        a.send(&ops, &gate, &[probe(1)]);
        b.send(&ops, &gate, &[probe(2)]);
        ops.send(Op::Disconnect(a.id)).unwrap();
        b.send(&ops, &gate, &[probe(3)]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(decode(a.next_buf()), vec![direct(probe(1))]);
        a.expect_closed();
        assert_eq!(decode(b.next_buf()), vec![direct(probe(2))]);
        assert_eq!(decode(b.next_buf()), vec![direct(probe(3))]);
        drop(ops);
        handle.join().unwrap();
        let stats = *stats.read();
        assert_eq!((stats.batches, stats.queries), (2, 3), "{stats:?}");
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0);
        assert_eq!(a.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scheduler_stop_flushes_pending_and_returns_with_ops_open() {
        let (sched, gate, stats) = scheduler(ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        a.send(&ops, &gate, &[probe(1), probe(2)]);
        ops.send(Op::Stop).unwrap();
        let handle = std::thread::spawn(move || sched.run(rx));
        wait_for("scheduler returned", || handle.is_finished());
        handle.join().unwrap();
        assert_eq!(
            decode(a.next_buf()),
            vec![direct(probe(1)), direct(probe(2))]
        );
        a.expect_closed();
        assert_eq!(stats.read().batches, 1);
        drop(ops);
    }

    #[test]
    fn scheduler_idle_hook_leaves_sealing_to_the_seal_verb_by_default() {
        let session = Session::new(sharded());
        let (sched, gate, _) = scheduler_over(session, ServeConfig::default());
        let (ops, rx) = unbounded();
        let a = TestConn::open(&ops, 1);
        let q = probe(1);
        let fresh = Interval::new(90_000, q.st + 10, q.st + 20);
        a.send_cmds(&ops, &gate, vec![cmd(Request::Insert(fresh))]);
        let handle = std::thread::spawn(move || sched.run(rx));
        assert_eq!(trailers(a.next_buf()), vec![(Status::Ok, 1)]);
        a.send_cmds(&ops, &gate, vec![cmd(Request::Seal)]);
        assert_eq!(trailers(a.next_buf()), vec![(Status::Ok, 1)], "still dirty");
        drop(ops);
        handle.join().unwrap();
    }

    #[test]
    fn shed_at_gate_caps_one_connection_and_spares_the_others() {
        let gate = AdmissionGate {
            inflight: Arc::new(AtomicUsize::new(0)),
            conn_pending: 3,
            max_pending: 100,
        };
        let (a, b) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let read = cmd(Request::Query(RangeQuery::new(0, 99)));
        let admitted_a = (0..5).filter(|_| !shed_at_gate(&gate, &a, &read)).count();
        let admitted_b = (0..2).filter(|_| !shed_at_gate(&gate, &b, &read)).count();
        assert_eq!((admitted_a, admitted_b), (3, 2));
        assert_eq!(a.load(Ordering::Relaxed), 3);
        assert_eq!(b.load(Ordering::Relaxed), 2);
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn shed_at_gate_meters_only_the_batched_read_verbs() {
        // with no budget at all, every metered verb sheds and every
        // other verb passes, and nothing is left charged
        let gate = AdmissionGate {
            inflight: Arc::new(AtomicUsize::new(0)),
            conn_pending: 0,
            max_pending: 0,
        };
        let conn = AtomicUsize::new(0);
        let q = RangeQuery::new(0, 99);
        let metered = vec![
            Request::Query(q),
            Request::Allen {
                rel: hint_core::AllenRelation::Before,
                q,
            },
            Request::TopK { k: 3, q },
            Request::Histogram { width: 10, q },
        ];
        let barriers = vec![
            Request::Insert(Interval::new(1, 0, 9)),
            Request::Delete(Interval::new(1, 0, 9)),
            Request::Seal,
            Request::Snapshot(None),
            Request::Restore("x.snap".to_string()),
            Request::CreateIndex {
                name: "x".to_string(),
                lo: 0,
                hi: 99,
            },
            Request::DropIndex("x".to_string()),
            Request::ListIndexes,
            Request::UseIndex("x".to_string()),
            Request::Join { inner: 1, q },
        ];
        for verb in metered {
            assert!(shed_at_gate(&gate, &conn, &cmd(verb.clone())), "{verb:?}");
        }
        for verb in barriers {
            assert!(!shed_at_gate(&gate, &conn, &cmd(verb.clone())), "{verb:?}");
        }
        assert_eq!(conn.load(Ordering::Relaxed), 0);
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn free_list_keeps_a_bounded_number_of_bounded_buffers() {
        let free = FreeList::default();
        for _ in 0..FREE_BUFS + 2 {
            let mut buf = BytesMut::with_capacity(64);
            buf.put_slice(b"reply");
            free.give(buf);
        }
        assert_eq!(free.0.lock().len(), FREE_BUFS);
        let buf = free.take();
        assert!(
            buf.is_empty() && buf.capacity() >= 64,
            "cleared, not shrunk"
        );
        // a huge answer's buffer is freed, not pinned
        free.give(BytesMut::with_capacity(FREE_BUF_MAX + 1));
        assert_eq!(free.0.lock().len(), FREE_BUFS - 1);
        // an empty list hands out fresh buffers
        let drained = FreeList::default();
        assert_eq!(drained.take().capacity(), 0);
    }

    /// A writer that takes at most `step` bytes per call and fails
    /// every third call with `Interrupted`.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut left = self.step;
            for b in bufs {
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                left -= n;
                if left == 0 {
                    break;
                }
            }
            Ok(self.step - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_all_vectored_resumes_after_short_writes() {
        // more buffers than one drain group, some of them empty
        let bufs: Vec<BytesMut> = (0..WRITE_DRAIN + 6)
            .map(|i| {
                let mut b = BytesMut::new();
                b.put_slice(&vec![i as u8; i % 7]);
                b
            })
            .collect();
        let want: Vec<u8> = bufs.iter().flat_map(|b| b.as_slice().to_vec()).collect();
        let mut w = Trickle {
            out: Vec::new(),
            step: 5,
            calls: 0,
        };
        write_all_vectored(&mut w, &bufs).unwrap();
        assert_eq!(w.out, want);
        // a stream that stops taking bytes is an error, not a spin
        let mut stuck = Trickle {
            out: Vec::new(),
            step: 0,
            calls: 0,
        };
        let err = write_all_vectored(&mut stuck, &bufs).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn mean_batch_is_queries_per_batch_and_zero_when_idle() {
        assert_eq!(BatchStats::default().mean_batch(), 0.0);
        let stats = BatchStats {
            batches: 4,
            queries: 10,
            ..BatchStats::default()
        };
        assert_eq!(stats.mean_batch(), 2.5);
    }

    #[test]
    fn accept_loop_survives_transient_errors_and_keeps_admitting() {
        let mut server = Server::start(session(), ServeConfig::default()).unwrap();
        let (client_end, server_end) = duplex();
        // EMFILE-shaped failures reach userland as an uncategorized
        // kind; the loop must classify them transient, back off, and
        // still admit the connection scripted after them
        let emfile = || io::Error::other("Too many open files (os error 24)");
        server
            .listen_source(ScriptedSource::new(vec![
                Err(emfile()),
                Err(io::Error::from(io::ErrorKind::ConnectionAborted)),
                Ok(server_end),
            ]))
            .unwrap();
        let mut client = Client::new(client_end).unwrap();
        assert!(!client.query(RangeQuery::new(0, 4_095)).unwrap().is_empty());
        let stats = server.stats();
        assert!(
            stats.accept_errors >= 2,
            "transient accept errors must be counted, got {stats:?}"
        );
        server.shutdown();
    }

    #[test]
    fn fatal_accept_errors_end_the_loop_without_retry_spin() {
        let mut server = Server::start(session(), ServeConfig::default()).unwrap();
        server
            .listen_source(ScriptedSource::new(vec![Err(io::Error::from(
                io::ErrorKind::PermissionDenied,
            ))]))
            .unwrap();
        // a fatal error exits immediately: no accept_errors counted,
        // and shutdown joins the acceptor without a wake-up address
        server.shutdown();
    }

    #[test]
    fn reader_spawn_failure_rejects_only_that_connection() {
        let server = Server::start(session(), ServeConfig::default()).unwrap();
        // a connection whose reader thread cannot start is rejected
        // with a fatal trailer, not a panic in the acceptor path
        let (client_end, server_end) = duplex();
        let id = server.next_conn.fetch_add(1, Ordering::Relaxed);
        spawn_connection_with(
            &server.ops,
            id,
            server_end,
            server.gate.clone(),
            failing_read_spawn,
        );
        let (reader, _writer) = client_end.split().unwrap();
        let mut frames = FrameReader::new(reader);
        let f = frames.read_frame().unwrap().expect("a rejection frame");
        assert_eq!(f.kind, crate::proto::Kind::End);
        let mut p = f.payload;
        assert_eq!(Status::from_u8(p.get_u8()), Status::Overloaded);
        assert_eq!(p.get_u64_le(), 0);
        assert!(frames.read_frame().unwrap().is_none(), "then EOF");
        // the server still serves fresh connections
        let (c2, s2) = duplex();
        server.attach(s2);
        let mut client = Client::new(c2).unwrap();
        assert!(!client.query(RangeQuery::new(0, 4_095)).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn snapshot_and_restore_verbs_roundtrip_over_the_wire() {
        let path =
            std::env::temp_dir().join(format!("hint-serve-snap-{}.snap", std::process::id()));
        let server = Server::start(session(), ServeConfig::default()).unwrap();
        let (c, s) = duplex();
        server.attach(s);
        let mut client = Client::new(c).unwrap();
        let mut before = client.query(RangeQuery::new(0, 4_095)).unwrap();
        before.sort_unstable();
        // save, mutate, restore: the mutation must be rolled back
        let saved = client.snapshot_save(path.to_str().unwrap()).unwrap();
        assert!(saved > 0);
        client.insert(Interval::new(90_000, 1, 2)).unwrap();
        client.seal().unwrap();
        assert!(client
            .query(RangeQuery::new(1, 2))
            .unwrap()
            .contains(&90_000));
        let live = client.restore(path.to_str().unwrap()).unwrap();
        assert_eq!(live, before.len() as u64);
        let mut after = client.query(RangeQuery::new(0, 4_095)).unwrap();
        after.sort_unstable();
        assert_eq!(after, before);
        // restoring from a bad path fails recoverably: error trailer,
        // connection kept, index unchanged
        let err = client.restore("/nonexistent/dir/x.snap").unwrap_err();
        assert!(matches!(err, ClientError::Server(Status::SnapshotFailed)));
        assert_eq!(
            client.query(RangeQuery::new(0, 4_095)).unwrap().len(),
            before.len()
        );
        // the streamed snapshot boots an identical twin
        let bytes = client.snapshot_fetch().unwrap();
        let twin = Session::restore_bytes(&bytes).unwrap();
        let mut got: Vec<u64> = Vec::new();
        twin.query_sink(RangeQuery::new(0, 4_095), &mut got);
        got.sort_unstable();
        assert_eq!(got, before);
        server.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
