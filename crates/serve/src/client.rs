//! The client half of the wire protocol: encodes requests, decodes
//! streamed replies.
//!
//! Replies arrive strictly in request order (the protocol has no
//! correlation ids), so a client may either call the blocking
//! convenience methods ([`query`](Client::query),
//! [`insert`](Client::insert), …) one at a time, or **pipeline**: send
//! several requests with [`send`](Client::send) and then collect the
//! same number of replies with [`recv_reply`](Client::recv_reply) —
//! the shape that lets the server batch queries across (and within)
//! connections.

use crate::proto::{
    encode_request_on, DecodeError, Frame, FrameReader, IndexInfo, Kind, Reply, Request, Status,
    READ_BUF,
};
use crate::transport::Transport;
use bytes::{Buf, BytesMut};
use hint_core::{AllenRelation, Interval, IntervalId, QuerySink, RangeQuery};
use std::io::{self, BufReader, Write};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server's reply stream could not be decoded.
    Decode(DecodeError),
    /// The server answered with a non-`Ok` status.
    Server(Status),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Decode(e) => write!(f, "reply decode error: {e}"),
            ClientError::Server(s) => write!(f, "server error: {s:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connection to a serve endpoint over any [`Transport`].
pub struct Client<T: Transport> {
    frames: FrameReader<BufReader<T::Reader>>,
    writer: T::Writer,
    scratch: BytesMut,
}

impl<T: Transport> Client<T> {
    /// Wraps a connected transport. Fallible: splitting a TCP stream
    /// `try_clone`s the socket, which can fail under fd exhaustion.
    pub fn new(transport: T) -> io::Result<Self> {
        let (reader, writer) = transport.split()?;
        Ok(Self {
            frames: FrameReader::new(BufReader::with_capacity(READ_BUF, reader)),
            writer,
            scratch: BytesMut::new(),
        })
    }

    /// Sends one request without waiting for its reply (pipelining).
    /// Every send must eventually be paired with one
    /// [`recv_reply`](Self::recv_reply). The request addresses the
    /// connection's default index (index 0 unless changed with
    /// [`use_index`](Self::use_index)).
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.send_on(None, req)
    }

    /// Sends one request addressed at an explicit catalog index
    /// (pipelining). `None` falls back to the connection's default.
    pub fn send_on(&mut self, index: Option<u32>, req: &Request) -> io::Result<()> {
        self.scratch.clear();
        encode_request_on(&mut self.scratch, index, req);
        self.writer.write_all(self.scratch.as_slice())?;
        self.writer.flush()
    }

    /// Receives the next reply: streams each results chunk into
    /// `on_ids` as it is decoded (no full-result buffer), then returns
    /// the end trailer. Non-`Ok` trailers are returned, not errors —
    /// they are the reply.
    pub fn recv_reply(
        &mut self,
        mut on_ids: impl FnMut(&[IntervalId]),
    ) -> Result<Reply, ClientError> {
        let mut chunk: Vec<IntervalId> = Vec::new();
        loop {
            let frame: Frame = match self.frames.read_frame() {
                Ok(Some(f)) => f,
                Ok(None) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed before the end-of-results trailer",
                    )))
                }
                Err(e) => return Err(ClientError::Decode(e)),
            };
            match frame.kind {
                Kind::Results => {
                    let mut p = frame.payload;
                    if !p.remaining().is_multiple_of(8) {
                        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
                    }
                    chunk.clear();
                    chunk.reserve(p.remaining() / 8);
                    while p.has_remaining() {
                        chunk.push(p.get_u64_le());
                    }
                    on_ids(&chunk);
                }
                Kind::End => {
                    let mut p = frame.payload;
                    if p.remaining() != 9 {
                        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
                    }
                    let status = Status::from_u8(p.get_u8());
                    let count = p.get_u64_le();
                    return Ok(Reply { status, count });
                }
                _ => return Err(ClientError::Decode(DecodeError::Frame(Status::BadKind))),
            }
        }
    }

    /// Range query, streaming results into a [`QuerySink`] — the
    /// remote mirror of [`hint_core::IntervalIndex::query_sink`].
    /// (Saturation cannot stop the server mid-stream; late chunks are
    /// still drained off the wire and discarded by the sink.)
    pub fn query_sink(
        &mut self,
        q: RangeQuery,
        sink: &mut dyn QuerySink,
    ) -> Result<Reply, ClientError> {
        self.query_sink_on(None, q, sink)
    }

    /// [`query_sink`](Self::query_sink) against an explicit index.
    pub fn query_sink_on(
        &mut self,
        index: Option<u32>,
        q: RangeQuery,
        sink: &mut dyn QuerySink,
    ) -> Result<Reply, ClientError> {
        self.send_on(index, &Request::Query(q))?;
        let reply = self.recv_reply(|ids| sink.emit_slice(ids))?;
        match reply.status {
            Status::Ok => Ok(reply),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Range query, collecting all result ids.
    pub fn query(&mut self, q: RangeQuery) -> Result<Vec<IntervalId>, ClientError> {
        self.query_on(None, q)
    }

    /// [`query`](Self::query) against an explicit index.
    pub fn query_on(
        &mut self,
        index: Option<u32>,
        q: RangeQuery,
    ) -> Result<Vec<IntervalId>, ClientError> {
        let mut out = Vec::new();
        self.query_sink_on(index, q, &mut out)?;
        Ok(out)
    }

    /// Inserts an interval. Errs with [`ClientError::Server`] if the
    /// interval is outside the server's domain.
    pub fn insert(&mut self, s: Interval) -> Result<(), ClientError> {
        self.insert_on(None, s)
    }

    /// [`insert`](Self::insert) against an explicit index.
    pub fn insert_on(&mut self, index: Option<u32>, s: Interval) -> Result<(), ClientError> {
        self.send_on(index, &Request::Insert(s))?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(()),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Deletes an interval (exact id + endpoints), returning whether it
    /// was present.
    pub fn delete(&mut self, s: Interval) -> Result<bool, ClientError> {
        self.delete_on(None, s)
    }

    /// [`delete`](Self::delete) against an explicit index.
    pub fn delete_on(&mut self, index: Option<u32>, s: Interval) -> Result<bool, ClientError> {
        self.send_on(index, &Request::Delete(s))?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(reply.count == 1),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Asks the server to fold pending writes into the sealed arenas;
    /// returns whether a reseal actually ran.
    pub fn seal(&mut self) -> Result<bool, ClientError> {
        self.seal_on(None)
    }

    /// [`seal`](Self::seal) against an explicit index.
    pub fn seal_on(&mut self, index: Option<u32>) -> Result<bool, ClientError> {
        self.send_on(index, &Request::Seal)?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(reply.count == 1),
            s => Err(ClientError::Server(s)),
        }
    }

    // ---- catalog management -------------------------------------

    /// Creates a named index with the given closed domain; returns its
    /// catalog id. Duplicate names err with [`Status::BadVerb`], a full
    /// catalog with [`Status::Overloaded`].
    pub fn create_index(&mut self, name: &str, lo: u64, hi: u64) -> Result<u32, ClientError> {
        self.send(&Request::CreateIndex {
            name: name.to_string(),
            lo,
            hi,
        })?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(reply.count as u32),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Drops a named index; returns the freed catalog id. The default
    /// index (id 0) cannot be dropped ([`Status::BadVerb`]).
    pub fn drop_index(&mut self, name: &str) -> Result<u32, ClientError> {
        self.send(&Request::DropIndex(name.to_string()))?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(reply.count as u32),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Points this connection's un-addressed requests at a named index;
    /// returns its catalog id.
    pub fn use_index(&mut self, name: &str) -> Result<u32, ClientError> {
        self.send(&Request::UseIndex(name.to_string()))?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(reply.count as u32),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Lists the catalog's live indexes (id, name, domain, live count).
    pub fn list_indexes(&mut self) -> Result<Vec<IndexInfo>, ClientError> {
        self.send(&Request::ListIndexes)?;
        let mut infos = Vec::new();
        loop {
            let frame = self.read_frame()?;
            match frame.kind {
                Kind::Info => {
                    IndexInfo::parse_payload(&frame.payload, &mut infos)
                        .map_err(|s| ClientError::Decode(DecodeError::Frame(s)))?;
                }
                Kind::End => {
                    let reply = decode_end(frame)?;
                    if reply.status != Status::Ok {
                        return Err(ClientError::Server(reply.status));
                    }
                    if reply.count != infos.len() as u64 {
                        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
                    }
                    return Ok(infos);
                }
                _ => return Err(ClientError::Decode(DecodeError::Frame(Status::BadKind))),
            }
        }
    }

    // ---- relation, aggregation, and join verbs ------------------

    /// Allen-relation query: ids of intervals standing in exactly
    /// `rel` to the query interval, evaluated server-side.
    pub fn allen(
        &mut self,
        rel: AllenRelation,
        q: RangeQuery,
    ) -> Result<Vec<IntervalId>, ClientError> {
        self.allen_on(None, rel, q)
    }

    /// [`allen`](Self::allen) against an explicit index.
    pub fn allen_on(
        &mut self,
        index: Option<u32>,
        rel: AllenRelation,
        q: RangeQuery,
    ) -> Result<Vec<IntervalId>, ClientError> {
        self.send_on(index, &Request::Allen { rel, q })?;
        let mut out = Vec::new();
        let reply = self.recv_reply(|ids| out.extend_from_slice(ids))?;
        match reply.status {
            Status::Ok => Ok(out),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Top-k by duration: the (at most) `k` longest intervals
    /// overlapping the window, longest first (id breaks ties),
    /// aggregated server-side across shards.
    pub fn top_k(&mut self, k: u32, q: RangeQuery) -> Result<Vec<IntervalId>, ClientError> {
        self.top_k_on(None, k, q)
    }

    /// [`top_k`](Self::top_k) against an explicit index.
    pub fn top_k_on(
        &mut self,
        index: Option<u32>,
        k: u32,
        q: RangeQuery,
    ) -> Result<Vec<IntervalId>, ClientError> {
        self.send_on(index, &Request::TopK { k, q })?;
        let mut out = Vec::new();
        let reply = self.recv_reply(|ids| out.extend_from_slice(ids))?;
        match reply.status {
            Status::Ok => Ok(out),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Per-bucket overlap counts for fixed-`width` buckets tiling the
    /// window from its start; `counts[i]` covers
    /// `[q.st + i*width, q.st + (i+1)*width)` clipped to the window.
    pub fn histogram(&mut self, width: u64, q: RangeQuery) -> Result<Vec<u64>, ClientError> {
        self.histogram_on(None, width, q)
    }

    /// [`histogram`](Self::histogram) against an explicit index.
    pub fn histogram_on(
        &mut self,
        index: Option<u32>,
        width: u64,
        q: RangeQuery,
    ) -> Result<Vec<u64>, ClientError> {
        self.send_on(index, &Request::Histogram { width, q })?;
        let mut out = Vec::new();
        let reply = self.recv_reply(|counts| out.extend_from_slice(counts))?;
        match reply.status {
            Status::Ok => Ok(out),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Streamed interval join: every `(outer_id, inner_id)` pair whose
    /// intervals overlap each other inside the window, the outer drawn
    /// from this request's index, the inner from the named `inner`
    /// catalog id. Pairs arrive grouped by outer id (ascending).
    pub fn join(&mut self, inner: u32, q: RangeQuery) -> Result<Vec<(u64, u64)>, ClientError> {
        self.join_on(None, inner, q)
    }

    /// [`join`](Self::join) with the outer side addressed explicitly.
    pub fn join_on(
        &mut self,
        index: Option<u32>,
        inner: u32,
        q: RangeQuery,
    ) -> Result<Vec<(u64, u64)>, ClientError> {
        self.send_on(index, &Request::Join { inner, q })?;
        let mut pairs = Vec::new();
        loop {
            let frame = self.read_frame()?;
            match frame.kind {
                Kind::Results => {
                    let mut p = frame.payload;
                    if !p.remaining().is_multiple_of(16) {
                        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
                    }
                    pairs.reserve(p.remaining() / 16);
                    while p.has_remaining() {
                        let outer = p.get_u64_le();
                        let inner_id = p.get_u64_le();
                        pairs.push((outer, inner_id));
                    }
                }
                Kind::End => {
                    let reply = decode_end(frame)?;
                    if reply.status != Status::Ok {
                        return Err(ClientError::Server(reply.status));
                    }
                    if reply.count != pairs.len() as u64 {
                        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
                    }
                    return Ok(pairs);
                }
                _ => return Err(ClientError::Decode(DecodeError::Frame(Status::BadKind))),
            }
        }
    }

    /// Pulls the next frame off the wire, mapping stream-end to an
    /// unexpected-EOF error.
    fn read_frame(&mut self) -> Result<Frame, ClientError> {
        match self.frames.read_frame() {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before the end-of-results trailer",
            ))),
            Err(e) => Err(ClientError::Decode(e)),
        }
    }

    /// Fetches the server's snapshot as bytes — the peer-bootstrap
    /// path: feed the result to `Session::restore_bytes` and a fresh
    /// server starts from this server's exact sealed state.
    pub fn snapshot_fetch(&mut self) -> Result<Vec<u8>, ClientError> {
        self.snapshot_fetch_on(None)
    }

    /// [`snapshot_fetch`](Self::snapshot_fetch) against an explicit
    /// index.
    pub fn snapshot_fetch_on(&mut self, index: Option<u32>) -> Result<Vec<u8>, ClientError> {
        self.send_on(index, &Request::Snapshot(None))?;
        let mut bytes = Vec::new();
        loop {
            let frame: Frame = match self.frames.read_frame() {
                Ok(Some(f)) => f,
                Ok(None) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed before the end-of-results trailer",
                    )))
                }
                Err(e) => return Err(ClientError::Decode(e)),
            };
            match frame.kind {
                Kind::SnapChunk => bytes.extend_from_slice(frame.payload.as_ref()),
                Kind::End => {
                    let mut p = frame.payload;
                    if p.remaining() != 9 {
                        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
                    }
                    let status = Status::from_u8(p.get_u8());
                    let count = p.get_u64_le();
                    if status != Status::Ok {
                        return Err(ClientError::Server(status));
                    }
                    if count != bytes.len() as u64 {
                        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
                    }
                    return Ok(bytes);
                }
                _ => return Err(ClientError::Decode(DecodeError::Frame(Status::BadKind))),
            }
        }
    }

    /// Asks the server to durably save its snapshot to a server-side
    /// path; returns the snapshot size in bytes.
    pub fn snapshot_save(&mut self, path: &str) -> Result<u64, ClientError> {
        self.snapshot_save_on(None, path)
    }

    /// [`snapshot_save`](Self::snapshot_save) against an explicit
    /// index.
    pub fn snapshot_save_on(&mut self, index: Option<u32>, path: &str) -> Result<u64, ClientError> {
        self.send_on(index, &Request::Snapshot(Some(path.to_string())))?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(reply.count),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Asks the server to replace its index from a server-side snapshot
    /// file; returns the restored live count. A failed restore leaves
    /// the server's index unchanged ([`Status::SnapshotFailed`]).
    pub fn restore(&mut self, path: &str) -> Result<u64, ClientError> {
        self.restore_on(None, path)
    }

    /// [`restore`](Self::restore) against an explicit index.
    pub fn restore_on(&mut self, index: Option<u32>, path: &str) -> Result<u64, ClientError> {
        self.send_on(index, &Request::Restore(path.to_string()))?;
        let reply = self.recv_reply(|_| {})?;
        match reply.status {
            Status::Ok => Ok(reply.count),
            s => Err(ClientError::Server(s)),
        }
    }
}

/// Decodes an `End` frame into its reply trailer.
fn decode_end(frame: Frame) -> Result<Reply, ClientError> {
    let mut p = frame.payload;
    if p.remaining() != 9 {
        return Err(ClientError::Decode(DecodeError::Frame(Status::BadLength)));
    }
    let status = Status::from_u8(p.get_u8());
    let count = p.get_u64_le();
    Ok(Reply { status, count })
}
