//! The wire protocol: length-prefixed binary frames over any ordered
//! byte stream.
//!
//! Every frame is an 8-byte header followed by `len` payload bytes, all
//! integers little-endian (see `docs/protocol.md` for the normative
//! spec):
//!
//! ```text
//! +-------+---------+------+-------+------------+=========+
//! | magic | version | kind | flags | len (u32)  | payload |
//! +-------+---------+------+-------+------------+=========+
//!    1B        1B      1B     1B        4B          len B
//! ```
//!
//! Clients send request frames ([`Request`]); the server answers each
//! request — in per-connection FIFO order, so no correlation ids are
//! needed — with zero or more [`Kind::Results`] frames (a chunk of
//! result ids each) terminated by exactly one [`Kind::End`] trailer
//! carrying a status code and the total result count. Decoding errors
//! split into two severities:
//!
//! * **recoverable** ([`DecodeError::Frame`]): the header was sound, so
//!   framing stays synchronized — the server answers with an error
//!   trailer and keeps the connection;
//! * **fatal** ([`DecodeError::Desync`] / [`DecodeError::Io`]): the
//!   byte stream can no longer be trusted (bad magic, oversized length,
//!   truncation) — the server sends one error trailer and closes the
//!   connection. Either way the server never panics on wire input.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hint_core::{AllenRelation, Interval, RangeQuery, Time};
use std::io::{self, BufReader, Read};

/// First byte of every frame ('i' for interval).
pub const MAGIC: u8 = 0x69;
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Header flag bit: the payload starts with a `u32` LE index id
/// addressing a named index in the server's catalog. Frames without the
/// bit (every pre-catalog client) address the connection's default
/// index — index `0` until a `UseIndex` says otherwise — so legacy
/// traffic is untouched by the multi-index surface.
pub const FLAG_INDEXED: u8 = 0x01;
/// Header flag bit: a scheduling hint asking for priority. It is
/// accepted and ignored — a flagged frame decodes to the same
/// [`Command`] as an unflagged one (see `docs/protocol.md`) — so the
/// bit is always safe to set.
pub const FLAG_PRIORITY: u8 = 0x02;
/// Longest index name the catalog verbs accept, in bytes (the `Info`
/// encoding carries the length in one byte).
pub const MAX_NAME: usize = 255;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Upper bound on a frame payload; a larger announced length is treated
/// as a desynchronized stream (fatal), bounding per-connection memory.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Result ids per [`Kind::Results`] frame (8 KiB payloads): large
/// enough to amortize headers, small enough to stream long answers
/// incrementally.
pub const RESULTS_PER_FRAME: usize = 1024;

/// Frame kinds. Requests have the high bit clear, responses set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Range query `[st, end]` (payload 16 B).
    Query = 0x01,
    /// Insert an interval (payload 24 B: id, st, end).
    Insert = 0x02,
    /// Delete an interval by exact id + endpoints (payload 24 B).
    Delete = 0x03,
    /// Seal: fold overlay writes into the columnar arenas (payload 0 B).
    Seal = 0x04,
    /// Snapshot: empty payload streams the snapshot bytes back in
    /// [`Kind::SnapChunk`] frames; a non-empty payload is a UTF-8
    /// server-side path to save durably instead.
    Snapshot = 0x05,
    /// Restore: replace the served index from the snapshot at the UTF-8
    /// server-side path in the payload.
    Restore = 0x06,
    /// Create a named index (payload 16 B + name: lo, hi, UTF-8 name).
    /// The `End` trailer's count is the new index's id.
    CreateIndex = 0x07,
    /// Drop a named index (payload: UTF-8 name). Index 0 is undropable.
    DropIndex = 0x08,
    /// List the catalog (payload 0 B); answered with [`Kind::Info`]
    /// frames, trailer count = number of entries.
    ListIndexes = 0x09,
    /// Set this connection's default index by name (payload: UTF-8
    /// name). The trailer's count is the resolved index id.
    UseIndex = 0x0A,
    /// Allen-relation query (payload 17 B: relation byte, st, end).
    AllenQuery = 0x0B,
    /// Interval join against a second index (payload 20 B: inner index
    /// id, window st, window end). The addressed index is the outer
    /// side; results stream as (outer id, inner id) pairs.
    Join = 0x0C,
    /// Top-k longest intervals overlapping a window (payload 20 B: k,
    /// st, end); result ids arrive best-first.
    TopK = 0x0D,
    /// Per-bucket overlap counts over a window (payload 24 B: bucket
    /// width, st, end); the results stream is `u64` counts, one per
    /// bucket from `st` upward.
    Histogram = 0x0E,
    /// Response: a chunk of result ids (payload 8·n B).
    Results = 0x81,
    /// Response: end-of-results trailer (payload 9 B: status, count).
    End = 0x82,
    /// Response: a chunk of raw snapshot-file bytes (streamed reply to
    /// an empty-payload [`Kind::Snapshot`]; trailer count = total bytes).
    SnapChunk = 0x83,
    /// Response: a chunk of catalog entries (reply to
    /// [`Kind::ListIndexes`]; see [`IndexInfo`] for the entry layout).
    Info = 0x84,
}

impl Kind {
    fn from_u8(b: u8) -> Option<Kind> {
        match b {
            0x01 => Some(Kind::Query),
            0x02 => Some(Kind::Insert),
            0x03 => Some(Kind::Delete),
            0x04 => Some(Kind::Seal),
            0x05 => Some(Kind::Snapshot),
            0x06 => Some(Kind::Restore),
            0x07 => Some(Kind::CreateIndex),
            0x08 => Some(Kind::DropIndex),
            0x09 => Some(Kind::ListIndexes),
            0x0A => Some(Kind::UseIndex),
            0x0B => Some(Kind::AllenQuery),
            0x0C => Some(Kind::Join),
            0x0D => Some(Kind::TopK),
            0x0E => Some(Kind::Histogram),
            0x81 => Some(Kind::Results),
            0x82 => Some(Kind::End),
            0x83 => Some(Kind::SnapChunk),
            0x84 => Some(Kind::Info),
            _ => None,
        }
    }
}

/// Status byte of an [`Kind::End`] trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request served.
    Ok = 0,
    /// Unknown frame kind (recoverable: framing intact).
    BadKind = 1,
    /// Payload length inconsistent with the frame kind (recoverable).
    BadLength = 2,
    /// Query/interval endpoints inverted (`st > end`) (recoverable).
    InvalidRange = 3,
    /// Insert outside the index's fixed domain (recoverable).
    OutOfDomain = 4,
    /// Bad magic byte: stream desynchronized (fatal, connection closes).
    BadMagic = 5,
    /// Unsupported protocol version (fatal).
    BadVersion = 6,
    /// Announced payload length exceeds [`MAX_PAYLOAD`] (fatal).
    Oversized = 7,
    /// Connection truncated mid-frame (fatal).
    Truncated = 8,
    /// Insert used the reserved tombstone id (recoverable).
    ReservedId = 9,
    /// A snapshot save or restore could not complete — bad path,
    /// storage failure, or a corrupt/unsupported snapshot file. The
    /// served index is unchanged (recoverable).
    SnapshotFailed = 10,
    /// The server could not bring the connection up (thread or resource
    /// exhaustion), or the catalog is at its configured capacity
    /// (`HINT_MAX_INDEXES`). Fatal at connection bring-up, recoverable
    /// as a `CreateIndex` answer.
    Overloaded = 11,
    /// The request addressed an index id or name the catalog does not
    /// hold (recoverable: only this request fails).
    UnknownIndex = 12,
    /// The request's verb fields are semantically invalid — an unknown
    /// Allen relation byte, a zero or overflowing histogram width, a
    /// duplicate or malformed index name, dropping index 0
    /// (recoverable).
    BadVerb = 13,
}

impl Status {
    /// Decodes a status byte (unknown values map to `BadKind` — they
    /// can only come from a peer speaking a newer protocol).
    pub fn from_u8(b: u8) -> Status {
        match b {
            0 => Status::Ok,
            1 => Status::BadKind,
            2 => Status::BadLength,
            3 => Status::InvalidRange,
            4 => Status::OutOfDomain,
            5 => Status::BadMagic,
            6 => Status::BadVersion,
            7 => Status::Oversized,
            8 => Status::Truncated,
            9 => Status::ReservedId,
            10 => Status::SnapshotFailed,
            11 => Status::Overloaded,
            12 => Status::UnknownIndex,
            13 => Status::BadVerb,
            _ => Status::BadKind,
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Range query.
    Query(RangeQuery),
    /// Insert an interval.
    Insert(Interval),
    /// Delete an interval (exact id + endpoints).
    Delete(Interval),
    /// Fold pending writes into the sealed arenas.
    Seal,
    /// Snapshot the index: `None` streams the bytes to this client,
    /// `Some(path)` saves durably to a server-side path.
    Snapshot(Option<String>),
    /// Replace the served index from a server-side snapshot file.
    Restore(String),
    /// Create a named index over the domain `[lo, hi]`.
    CreateIndex {
        /// Catalog name (non-empty UTF-8, at most [`MAX_NAME`] bytes).
        name: String,
        /// Inclusive domain lower bound.
        lo: Time,
        /// Inclusive domain upper bound.
        hi: Time,
    },
    /// Drop a named index (index 0 is undropable).
    DropIndex(String),
    /// List the catalog.
    ListIndexes,
    /// Set this connection's default index by name.
    UseIndex(String),
    /// Select the stored intervals standing in one Allen relation to
    /// the query interval.
    Allen {
        /// The relation to select.
        rel: AllenRelation,
        /// The query interval.
        q: RangeQuery,
    },
    /// Join the addressed (outer) index against `inner` inside a
    /// window: every (outer id, inner id) pair whose intervals overlap
    /// each other within the window streams back.
    Join {
        /// Catalog id of the inner index.
        inner: u32,
        /// The join window.
        q: RangeQuery,
    },
    /// The k longest intervals overlapping a window, best-first.
    TopK {
        /// How many ids to keep.
        k: u32,
        /// The window.
        q: RangeQuery,
    },
    /// Per-bucket overlap counts across a window.
    Histogram {
        /// Bucket width (> 0), anchored at the window start.
        width: u64,
        /// The window.
        q: RangeQuery,
    },
}

/// A decoded request plus its catalog addressing: `index` is the
/// explicit [`FLAG_INDEXED`] prefix when present, otherwise `None` and
/// the connection's default index applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Explicit index id, if the frame carried the [`FLAG_INDEXED`] bit.
    pub index: Option<u32>,
    /// The verb itself.
    pub verb: Request,
}

/// One catalog entry as listed by [`Kind::ListIndexes`]. Wire layout
/// per entry: `[u32 id][u8 name_len][name][u64 lo][u64 hi][u64 len]`,
/// entries packed back-to-back inside [`Kind::Info`] payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    /// Catalog id (stable for the index's lifetime, never reused).
    pub id: u32,
    /// Catalog name.
    pub name: String,
    /// Inclusive domain lower bound.
    pub lo: Time,
    /// Inclusive domain upper bound.
    pub hi: Time,
    /// Live interval count at listing time.
    pub len: u64,
}

impl IndexInfo {
    /// Decodes the entries packed in one [`Kind::Info`] payload,
    /// appending to `out`. Fails recoverably on any shape violation.
    pub fn parse_payload(payload: &Bytes, out: &mut Vec<IndexInfo>) -> Result<(), Status> {
        let mut p = payload.clone();
        while p.has_remaining() {
            if p.remaining() < 5 {
                return Err(Status::BadLength);
            }
            let id = p.get_u32_le();
            let name_len = p.get_u8() as usize;
            if p.remaining() < name_len + 24 {
                return Err(Status::BadLength);
            }
            let name = match std::str::from_utf8(&p.as_slice()[..name_len]) {
                Ok(s) => s.to_string(),
                Err(_) => return Err(Status::BadLength),
            };
            p.advance(name_len);
            let (lo, hi, len) = (p.get_u64_le(), p.get_u64_le(), p.get_u64_le());
            out.push(IndexInfo {
                id,
                name,
                lo,
                hi,
                len,
            });
        }
        Ok(())
    }
}

/// The end-of-results trailer of one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Outcome of the request.
    pub status: Status,
    /// Results streamed before this trailer (queries), or the write's
    /// effect (`1`/`0` for insert-applied / delete-found / seal-ran).
    pub count: u64,
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum DecodeError {
    /// Recoverable per-request error: header sound, framing preserved.
    Frame(Status),
    /// Fatal: the stream is desynchronized; the connection must close.
    Desync(Status),
    /// Fatal: the underlying transport failed or was truncated.
    Io(io::Error),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Frame(s) => write!(f, "malformed request frame ({s:?})"),
            DecodeError::Desync(s) => write!(f, "wire desynchronized ({s:?})"),
            DecodeError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends a frame header.
fn put_header(out: &mut BytesMut, kind: Kind, len: u32) {
    put_header_flags(out, kind, 0, len)
}

/// Appends a frame header carrying explicit flag bits.
fn put_header_flags(out: &mut BytesMut, kind: Kind, flags: u8, len: u32) {
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(kind as u8);
    out.put_u8(flags);
    out.put_u32_le(len);
}

/// The verb's kind byte and payload (without any index prefix).
fn encode_verb(req: &Request) -> (Kind, BytesMut) {
    let mut body = BytesMut::new();
    let kind = match req {
        Request::Query(q) => {
            body.put_u64_le(q.st);
            body.put_u64_le(q.end);
            Kind::Query
        }
        Request::Insert(s) | Request::Delete(s) => {
            body.put_u64_le(s.id);
            body.put_u64_le(s.st);
            body.put_u64_le(s.end);
            if matches!(req, Request::Insert(_)) {
                Kind::Insert
            } else {
                Kind::Delete
            }
        }
        Request::Seal => Kind::Seal,
        Request::Snapshot(path) => {
            body.put_slice(path.as_deref().unwrap_or("").as_bytes());
            Kind::Snapshot
        }
        Request::Restore(path) => {
            body.put_slice(path.as_bytes());
            Kind::Restore
        }
        Request::CreateIndex { name, lo, hi } => {
            body.put_u64_le(*lo);
            body.put_u64_le(*hi);
            body.put_slice(name.as_bytes());
            Kind::CreateIndex
        }
        Request::DropIndex(name) => {
            body.put_slice(name.as_bytes());
            Kind::DropIndex
        }
        Request::ListIndexes => Kind::ListIndexes,
        Request::UseIndex(name) => {
            body.put_slice(name.as_bytes());
            Kind::UseIndex
        }
        Request::Allen { rel, q } => {
            body.put_u8(rel.as_u8());
            body.put_u64_le(q.st);
            body.put_u64_le(q.end);
            Kind::AllenQuery
        }
        Request::Join { inner, q } => {
            body.put_u32_le(*inner);
            body.put_u64_le(q.st);
            body.put_u64_le(q.end);
            Kind::Join
        }
        Request::TopK { k, q } => {
            body.put_u32_le(*k);
            body.put_u64_le(q.st);
            body.put_u64_le(q.end);
            Kind::TopK
        }
        Request::Histogram { width, q } => {
            body.put_u64_le(*width);
            body.put_u64_le(q.st);
            body.put_u64_le(q.end);
            Kind::Histogram
        }
    };
    (kind, body)
}

/// Encodes a request frame addressed to the connection's default index
/// (no [`FLAG_INDEXED`] bit — byte-identical to pre-catalog encodings).
pub fn encode_request(out: &mut BytesMut, req: &Request) {
    encode_request_on(out, None, req)
}

/// Encodes a request frame, optionally addressed to an explicit catalog
/// index via the [`FLAG_INDEXED`] payload prefix. With `index: None`
/// the encoding is byte-identical to [`encode_request`].
pub fn encode_request_on(out: &mut BytesMut, index: Option<u32>, req: &Request) {
    let (kind, body) = encode_verb(req);
    match index {
        None => {
            put_header_flags(out, kind, 0, body.len() as u32);
        }
        Some(ix) => {
            put_header_flags(out, kind, FLAG_INDEXED, body.len() as u32 + 4);
            out.put_u32_le(ix);
        }
    }
    out.put_slice(body.as_slice());
}

/// Encodes the [`Kind::Info`] reply to a `ListIndexes`: the entries
/// packed into chunked `Info` frames (many fit one frame at the default
/// catalog capacity), followed by an `Ok` trailer counting them.
pub fn encode_index_infos(out: &mut BytesMut, entries: &[IndexInfo]) {
    // worst-case entry is 4 + 1 + MAX_NAME + 24 bytes; 512 per frame
    // stays far under MAX_PAYLOAD
    for chunk in entries.chunks(512) {
        let mut body = BytesMut::new();
        for e in chunk {
            debug_assert!(e.name.len() <= MAX_NAME);
            body.put_u32_le(e.id);
            body.put_u8(e.name.len() as u8);
            body.put_slice(e.name.as_bytes());
            body.put_u64_le(e.lo);
            body.put_u64_le(e.hi);
            body.put_u64_le(e.len);
        }
        put_header(out, Kind::Info, body.len() as u32);
        out.put_slice(body.as_slice());
    }
    encode_end(
        out,
        Reply {
            status: Status::Ok,
            count: entries.len() as u64,
        },
    );
}

/// Encodes one streamed snapshot chunk (reply to an empty-payload
/// [`Kind::Snapshot`] request).
///
/// # Panics
/// Panics if the chunk overflows [`MAX_PAYLOAD`] — the scheduler slices
/// snapshots into far smaller chunks, never wire-controlled.
pub fn encode_snapshot_chunk(out: &mut BytesMut, bytes: &[u8]) {
    assert!(
        bytes.len() <= MAX_PAYLOAD as usize,
        "snapshot chunk too large"
    );
    put_header(out, Kind::SnapChunk, bytes.len() as u32);
    out.put_slice(bytes);
}

/// Encodes one results chunk. `ids_le` is the chunk's payload — result
/// ids already in little-endian wire form (the encoding sink produces
/// them that way, so this is a header + memcpy, no per-id work).
///
/// # Panics
/// Panics if the chunk is not a whole number of ids or overflows
/// [`MAX_PAYLOAD`]; both are internal invariants of the encoding sink,
/// never wire-controlled.
pub fn encode_results(out: &mut BytesMut, ids_le: &[u8]) {
    assert_eq!(ids_le.len() % 8, 0, "results payload must be whole ids");
    assert!(
        ids_le.len() <= MAX_PAYLOAD as usize,
        "results chunk too large"
    );
    put_header(out, Kind::Results, ids_le.len() as u32);
    out.put_slice(ids_le);
}

/// Appends the header of a `Results` frame carrying `ids` ids; the
/// caller appends exactly `ids` little-endian ids after it.
///
/// # Panics
/// Panics if `ids` exceeds [`RESULTS_PER_FRAME`], an internal invariant
/// of the encoding sink.
pub(crate) fn encode_results_header(out: &mut BytesMut, ids: usize) {
    assert!(ids <= RESULTS_PER_FRAME, "results chunk too large");
    put_header(out, Kind::Results, (ids * 8) as u32);
}

/// Encodes an end-of-results trailer.
pub fn encode_end(out: &mut BytesMut, reply: Reply) {
    put_header(out, Kind::End, 9);
    out.put_u8(reply.status as u8);
    out.put_u64_le(reply.count);
}

/// A decoded frame: its kind, header flags and (owned) payload bytes.
#[derive(Debug)]
pub struct Frame {
    /// Frame kind.
    pub kind: Kind,
    /// Header flag bits (see [`FLAG_INDEXED`]).
    pub flags: u8,
    /// Payload (`len` bytes, already read off the stream).
    pub payload: Bytes,
}

impl Frame {
    /// Interprets this frame as a request, validating payload shape and
    /// semantics (endpoint order). Returns the recoverable status on
    /// failure — by the time a `Frame` exists, framing is synchronized.
    /// Any explicit index prefix is parsed and discarded; prefer
    /// [`to_command`](Self::to_command) on the serving path.
    pub fn to_request(&self) -> Result<Request, Status> {
        self.to_command().map(|c| c.verb)
    }

    /// Interprets this frame as a [`Command`]: the optional
    /// [`FLAG_INDEXED`] index prefix plus the verb. The
    /// [`FLAG_PRIORITY`] hint is accepted and ignored; unknown flag bits
    /// are rejected recoverably ([`Status::BadVerb`]) rather than
    /// silently misread.
    pub fn to_command(&self) -> Result<Command, Status> {
        let mut p = self.payload.clone();
        if self.flags & !(FLAG_INDEXED | FLAG_PRIORITY) != 0 {
            return Err(Status::BadVerb);
        }
        let index = if self.flags & FLAG_INDEXED != 0 {
            if p.remaining() < 4 {
                return Err(Status::BadLength);
            }
            Some(p.get_u32_le())
        } else {
            None
        };
        let verb = self.parse_verb(p)?;
        Ok(Command { index, verb })
    }

    /// Decodes an index name payload: non-empty, bounded, UTF-8.
    fn parse_name(mut p: Bytes) -> Result<String, Status> {
        if p.remaining() == 0 || p.remaining() > MAX_NAME {
            return Err(Status::BadVerb);
        }
        match std::str::from_utf8(p.as_slice()) {
            Ok(name) => {
                let name = name.to_string();
                p.advance(p.remaining());
                Ok(name)
            }
            Err(_) => Err(Status::BadLength),
        }
    }

    /// Decodes the verb fields from `p` (the payload after any index
    /// prefix was consumed).
    fn parse_verb(&self, mut p: Bytes) -> Result<Request, Status> {
        match self.kind {
            Kind::Query => {
                if p.remaining() != 16 {
                    return Err(Status::BadLength);
                }
                let (st, end) = (p.get_u64_le(), p.get_u64_le());
                if st > end {
                    return Err(Status::InvalidRange);
                }
                Ok(Request::Query(RangeQuery { st, end }))
            }
            Kind::Insert | Kind::Delete => {
                if p.remaining() != 24 {
                    return Err(Status::BadLength);
                }
                let (id, st, end) = (p.get_u64_le(), p.get_u64_le(), p.get_u64_le());
                if st > end {
                    return Err(Status::InvalidRange);
                }
                let s = Interval { id, st, end };
                Ok(if self.kind == Kind::Insert {
                    Request::Insert(s)
                } else {
                    Request::Delete(s)
                })
            }
            Kind::Seal => {
                if p.has_remaining() {
                    return Err(Status::BadLength);
                }
                Ok(Request::Seal)
            }
            Kind::Snapshot => {
                if !p.has_remaining() {
                    return Ok(Request::Snapshot(None));
                }
                match std::str::from_utf8(p.as_slice()) {
                    Ok(path) => Ok(Request::Snapshot(Some(path.to_string()))),
                    Err(_) => Err(Status::BadLength), // path must be UTF-8
                }
            }
            Kind::Restore => {
                if !p.has_remaining() {
                    return Err(Status::BadLength); // a restore needs a path
                }
                match std::str::from_utf8(p.as_slice()) {
                    Ok(path) => Ok(Request::Restore(path.to_string())),
                    Err(_) => Err(Status::BadLength),
                }
            }
            Kind::CreateIndex => {
                if p.remaining() < 16 {
                    return Err(Status::BadLength);
                }
                let (lo, hi) = (p.get_u64_le(), p.get_u64_le());
                if lo > hi {
                    return Err(Status::InvalidRange);
                }
                let name = Self::parse_name(p)?;
                Ok(Request::CreateIndex { name, lo, hi })
            }
            Kind::DropIndex => Ok(Request::DropIndex(Self::parse_name(p)?)),
            Kind::ListIndexes => {
                if p.has_remaining() {
                    return Err(Status::BadLength);
                }
                Ok(Request::ListIndexes)
            }
            Kind::UseIndex => Ok(Request::UseIndex(Self::parse_name(p)?)),
            Kind::AllenQuery => {
                if p.remaining() != 17 {
                    return Err(Status::BadLength);
                }
                let rel = AllenRelation::from_u8(p.get_u8()).ok_or(Status::BadVerb)?;
                let (st, end) = (p.get_u64_le(), p.get_u64_le());
                if st > end {
                    return Err(Status::InvalidRange);
                }
                Ok(Request::Allen {
                    rel,
                    q: RangeQuery { st, end },
                })
            }
            Kind::Join => {
                if p.remaining() != 20 {
                    return Err(Status::BadLength);
                }
                let inner = p.get_u32_le();
                let (st, end) = (p.get_u64_le(), p.get_u64_le());
                if st > end {
                    return Err(Status::InvalidRange);
                }
                Ok(Request::Join {
                    inner,
                    q: RangeQuery { st, end },
                })
            }
            Kind::TopK => {
                if p.remaining() != 20 {
                    return Err(Status::BadLength);
                }
                let k = p.get_u32_le();
                let (st, end) = (p.get_u64_le(), p.get_u64_le());
                if st > end {
                    return Err(Status::InvalidRange);
                }
                Ok(Request::TopK {
                    k,
                    q: RangeQuery { st, end },
                })
            }
            Kind::Histogram => {
                if p.remaining() != 24 {
                    return Err(Status::BadLength);
                }
                let width = p.get_u64_le();
                let (st, end) = (p.get_u64_le(), p.get_u64_le());
                if width == 0 {
                    return Err(Status::BadVerb);
                }
                if st > end {
                    return Err(Status::InvalidRange);
                }
                Ok(Request::Histogram {
                    width,
                    q: RangeQuery { st, end },
                })
            }
            // response kinds are not requests
            Kind::Results | Kind::End | Kind::SnapChunk | Kind::Info => Err(Status::BadKind),
        }
    }
}

/// Read-buffer size the server's connection readers and the client put
/// under their [`FrameReader`]s: one `read` takes in a whole pipelined
/// burst (a `Query` frame is 24 bytes, so thousands fit), which then
/// decodes frame after frame without a syscall each.
pub(crate) const READ_BUF: usize = 64 * 1024;

/// Incremental frame reader over any blocking byte stream.
///
/// Reads exactly one frame per [`read_frame`](Self::read_frame) call
/// (wrap the stream in a [`BufReader`] so small frames cost no syscall
/// each);
/// EOF *between* frames is a clean close (`Ok(None)`), EOF *inside* a
/// frame is [`DecodeError::Io`]. Unknown-but-plausible headers (valid
/// magic/version/length, unknown kind byte) skip their payload and
/// surface as recoverable [`DecodeError::Frame`], so one junk frame
/// from a newer client does not kill the connection.
pub struct FrameReader<R: Read> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    /// Reads the next frame. `Ok(None)` on clean EOF.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        let mut header = [0u8; HEADER_LEN];
        match read_exact_or_eof(&mut self.inner, &mut header) {
            Ok(false) => return Ok(None), // clean EOF at a frame boundary
            Ok(true) => {}
            Err(e) => return Err(DecodeError::Io(e)),
        }
        if header[0] != MAGIC {
            return Err(DecodeError::Desync(Status::BadMagic));
        }
        if header[1] != VERSION {
            return Err(DecodeError::Desync(Status::BadVersion));
        }
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_PAYLOAD {
            return Err(DecodeError::Desync(Status::Oversized));
        }
        let mut payload = vec![0u8; len as usize];
        self.inner
            .read_exact(&mut payload)
            .map_err(DecodeError::Io)?;
        let kind = match Kind::from_u8(header[2]) {
            Some(k) => k,
            // header + payload consumed: framing is intact, the kind is
            // just unknown — recoverable
            None => return Err(DecodeError::Frame(Status::BadKind)),
        };
        Ok(Some(Frame {
            kind,
            flags: header[3],
            payload: Bytes::from(payload),
        }))
    }

    /// Consumes the reader, returning the stream.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> FrameReader<BufReader<R>> {
    /// True when the next [`read_frame`](Self::read_frame) decodes from
    /// bytes already buffered: a whole frame, or a header the reader
    /// rejects without reading its payload. Never blocks.
    pub(crate) fn has_buffered_frame(&self) -> bool {
        let buf = self.inner.buffer();
        if buf.len() < HEADER_LEN {
            return false;
        }
        let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        buf[0] != MAGIC
            || buf[1] != VERSION
            || len > MAX_PAYLOAD
            || buf.len() - HEADER_LEN >= len as usize
    }
}

/// `read_exact`, except a clean EOF before the *first* byte returns
/// `Ok(false)` instead of an error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection truncated mid-frame",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: Vec<u8>) -> FrameReader<io::Cursor<Vec<u8>>> {
        FrameReader::new(io::Cursor::new(bytes))
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Query(RangeQuery::new(3, 999)),
            Request::Insert(Interval::new(7, 10, 20)),
            Request::Delete(Interval::new(7, 10, 20)),
            Request::Seal,
            Request::Snapshot(None),
            Request::Snapshot(Some("/var/lib/hint/a.snap".into())),
            Request::Restore("/var/lib/hint/a.snap".into()),
            Request::CreateIndex {
                name: "audit".into(),
                lo: 0,
                hi: 4_095,
            },
            Request::DropIndex("audit".into()),
            Request::ListIndexes,
            Request::UseIndex("audit".into()),
            Request::Allen {
                rel: hint_core::AllenRelation::During,
                q: RangeQuery::new(5, 95),
            },
            Request::Join {
                inner: 2,
                q: RangeQuery::new(0, 1_000),
            },
            Request::TopK {
                k: 10,
                q: RangeQuery::new(3, 77),
            },
            Request::Histogram {
                width: 16,
                q: RangeQuery::new(0, 255),
            },
        ];
        let mut out = BytesMut::new();
        for r in &reqs {
            encode_request(&mut out, r);
        }
        let mut rd = reader(Vec::from(out));
        for want in &reqs {
            let frame = rd.read_frame().unwrap().unwrap();
            assert_eq!(frame.to_request().as_ref(), Ok(want));
            // a legacy encoding carries no explicit index
            assert_eq!(frame.to_command().unwrap().index, None);
        }
        assert!(rd.read_frame().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn indexed_addressing_roundtrips_on_every_verb() {
        let reqs = [
            Request::Query(RangeQuery::new(3, 999)),
            Request::Insert(Interval::new(7, 10, 20)),
            Request::Delete(Interval::new(7, 10, 20)),
            Request::Seal,
            Request::Snapshot(Some("/tmp/x.snap".into())),
            Request::Restore("/tmp/x.snap".into()),
            Request::Allen {
                rel: hint_core::AllenRelation::Meets,
                q: RangeQuery::new(5, 9),
            },
            Request::Join {
                inner: 1,
                q: RangeQuery::new(0, 10),
            },
            Request::TopK {
                k: 3,
                q: RangeQuery::new(0, 10),
            },
            Request::Histogram {
                width: 2,
                q: RangeQuery::new(0, 10),
            },
        ];
        let mut out = BytesMut::new();
        for r in &reqs {
            encode_request_on(&mut out, Some(42), r);
        }
        let mut rd = reader(Vec::from(out));
        for want in &reqs {
            let frame = rd.read_frame().unwrap().unwrap();
            assert_eq!(frame.flags, FLAG_INDEXED);
            let cmd = frame.to_command().unwrap();
            assert_eq!(cmd.index, Some(42));
            assert_eq!(&cmd.verb, want);
        }
    }

    #[test]
    fn new_verbs_validate_recoverably() {
        // unknown Allen relation byte
        let mut bytes = vec![MAGIC, VERSION, 0x0B, 0, 17, 0, 0, 0, 13];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_command(), Err(Status::BadVerb));
        // zero-width histogram
        let mut out = BytesMut::new();
        encode_request(
            &mut out,
            &Request::Histogram {
                width: 5,
                q: RangeQuery::new(0, 9),
            },
        );
        let mut bytes = Vec::from(out);
        bytes[HEADER_LEN..HEADER_LEN + 8].fill(0);
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_command(), Err(Status::BadVerb));
        // empty index name
        let bytes = vec![MAGIC, VERSION, 0x08, 0, 0, 0, 0, 0];
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_command(), Err(Status::BadVerb));
        // over-long index name
        let mut out = BytesMut::new();
        encode_request(&mut out, &Request::UseIndex("n".repeat(MAX_NAME + 1)));
        let f = reader(Vec::from(out)).read_frame().unwrap().unwrap();
        assert_eq!(f.to_command(), Err(Status::BadVerb));
        // truncated CreateIndex (domain cut short)
        let bytes = vec![MAGIC, VERSION, 0x07, 0, 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_command(), Err(Status::BadLength));
        // an unknown flag bit must not be silently misread (0x01 and
        // 0x02 are assigned; 0x04 is the lowest unassigned bit)
        let mut out = BytesMut::new();
        encode_request(&mut out, &Request::Seal);
        let mut bytes = Vec::from(out);
        bytes[3] = 0x04;
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_command(), Err(Status::BadVerb));
        // the INDEXED flag demands at least the 4-byte prefix
        let bytes = vec![MAGIC, VERSION, 0x04, FLAG_INDEXED, 2, 0, 0, 0, 9, 9];
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_command(), Err(Status::BadLength));
    }

    #[test]
    fn priority_flag_roundtrips_alone_and_with_indexing() {
        // the priority bit, set on a raw frame alone or beside the index
        // prefix, decodes to the same command as the unflagged frame
        let q = Request::Query(RangeQuery::new(3, 999));
        for index in [None, Some(7)] {
            let mut plain = BytesMut::new();
            encode_request_on(&mut plain, index, &q);
            let mut flagged = Vec::from(plain.clone());
            flagged[3] |= FLAG_PRIORITY; // the header's flags byte
            let f = reader(flagged).read_frame().unwrap().unwrap();
            let want = if index.is_some() { FLAG_INDEXED } else { 0 };
            assert_eq!(f.flags, want | FLAG_PRIORITY);
            let cmd = f.to_command().unwrap();
            assert_eq!(
                cmd,
                Command {
                    index,
                    verb: q.clone()
                }
            );
            let f = reader(Vec::from(plain)).read_frame().unwrap().unwrap();
            assert_eq!(f.flags, want);
            assert_eq!(f.to_command().unwrap(), cmd);
        }
        // encode_request_on(None) is encode_request
        let mut flagless = BytesMut::new();
        encode_request_on(&mut flagless, None, &q);
        let mut want = BytesMut::new();
        encode_request(&mut want, &q);
        assert_eq!(flagless, want);
    }

    #[test]
    fn index_infos_roundtrip_through_info_frames() {
        let entries = vec![
            IndexInfo {
                id: 0,
                name: "default".into(),
                lo: 0,
                hi: 4_095,
                len: 500,
            },
            IndexInfo {
                id: 3,
                name: "audit".into(),
                lo: 100,
                hi: 200,
                len: 0,
            },
        ];
        let mut out = BytesMut::new();
        encode_index_infos(&mut out, &entries);
        let mut rd = reader(Vec::from(out));
        let mut got = Vec::new();
        loop {
            let f = rd.read_frame().unwrap().unwrap();
            match f.kind {
                Kind::Info => IndexInfo::parse_payload(&f.payload, &mut got).unwrap(),
                Kind::End => {
                    let mut p = f.payload;
                    assert_eq!(Status::from_u8(p.get_u8()), Status::Ok);
                    assert_eq!(p.get_u64_le(), 2);
                    break;
                }
                k => panic!("unexpected kind {k:?}"),
            }
        }
        assert_eq!(got, entries);
        // a truncated entry is a recoverable decode error
        let mut bad = Vec::new();
        assert_eq!(
            IndexInfo::parse_payload(&Bytes::from(vec![1, 0, 0]), &mut bad),
            Err(Status::BadLength)
        );
    }

    #[test]
    fn results_and_end_roundtrip() {
        let mut out = BytesMut::new();
        let ids: Vec<u8> = [5u64, 6, 7].iter().flat_map(|v| v.to_le_bytes()).collect();
        encode_results(&mut out, &ids);
        encode_end(
            &mut out,
            Reply {
                status: Status::Ok,
                count: 3,
            },
        );
        let mut rd = reader(Vec::from(out));
        let f = rd.read_frame().unwrap().unwrap();
        assert_eq!(f.kind, Kind::Results);
        let mut p = f.payload;
        assert_eq!(p.remaining(), 24);
        assert_eq!((p.get_u64_le(), p.get_u64_le(), p.get_u64_le()), (5, 6, 7));
        let f = rd.read_frame().unwrap().unwrap();
        assert_eq!(f.kind, Kind::End);
        let mut p = f.payload;
        assert_eq!(Status::from_u8(p.get_u8()), Status::Ok);
        assert_eq!(p.get_u64_le(), 3);
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut rd = reader(vec![0xFF; 32]);
        match rd.read_frame() {
            Err(DecodeError::Desync(Status::BadMagic)) => {}
            other => panic!("expected BadMagic desync, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_is_fatal() {
        let mut rd = reader(vec![MAGIC, 99, 0x01, 0, 0, 0, 0, 0]);
        match rd.read_frame() {
            Err(DecodeError::Desync(Status::BadVersion)) => {}
            other => panic!("expected BadVersion desync, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_fatal() {
        let len = (MAX_PAYLOAD + 1).to_le_bytes();
        let mut rd = reader(vec![
            MAGIC, VERSION, 0x01, 0, len[0], len[1], len[2], len[3],
        ]);
        match rd.read_frame() {
            Err(DecodeError::Desync(Status::Oversized)) => {}
            other => panic!("expected Oversized desync, got {other:?}"),
        }
    }

    #[test]
    fn truncations_are_io_errors() {
        // header cut short
        let mut rd = reader(vec![MAGIC, VERSION, 0x01]);
        assert!(matches!(rd.read_frame(), Err(DecodeError::Io(_))));
        // payload cut short
        let mut out = BytesMut::new();
        encode_request(&mut out, &Request::Query(RangeQuery::new(0, 1)));
        let mut bytes = Vec::from(out);
        bytes.truncate(HEADER_LEN + 3);
        let mut rd = reader(bytes);
        assert!(matches!(rd.read_frame(), Err(DecodeError::Io(_))));
    }

    #[test]
    fn unknown_kind_is_recoverable_and_stream_resyncs() {
        let mut bytes = vec![MAGIC, VERSION, 0x7E, 0, 4, 0, 0, 0, 1, 2, 3, 4];
        let mut good = BytesMut::new();
        encode_request(&mut good, &Request::Seal);
        bytes.extend_from_slice(good.as_slice());
        let mut rd = reader(bytes);
        assert!(matches!(
            rd.read_frame(),
            Err(DecodeError::Frame(Status::BadKind))
        ));
        // the junk frame's payload was skipped; the next frame decodes
        let f = rd.read_frame().unwrap().unwrap();
        assert_eq!(f.to_request().unwrap(), Request::Seal);
    }

    #[test]
    fn has_buffered_frame_sees_whole_frames_only() {
        let mut out = BytesMut::new();
        encode_request(&mut out, &Request::Query(RangeQuery::new(1, 2)));
        encode_request(&mut out, &Request::Seal);
        let mut bytes = Vec::from(out);
        bytes.extend_from_slice(&[MAGIC, VERSION, 0x01, 0, 16, 0, 0, 0, 9, 9]);
        let mut rd = FrameReader::new(BufReader::new(io::Cursor::new(bytes)));
        assert!(!rd.has_buffered_frame(), "nothing read yet");
        let f = rd.read_frame().unwrap().unwrap();
        assert_eq!(
            f.to_request().unwrap(),
            Request::Query(RangeQuery::new(1, 2))
        );
        assert!(rd.has_buffered_frame());
        assert_eq!(
            rd.read_frame().unwrap().unwrap().to_request(),
            Ok(Request::Seal)
        );
        assert!(!rd.has_buffered_frame(), "a partial frame is not whole");
        assert!(matches!(rd.read_frame(), Err(DecodeError::Io(_))));
        // a header the reader rejects decodes (to its error) without
        // waiting for a payload
        let mut rd = FrameReader::new(BufReader::new(io::Cursor::new(vec![
            MAGIC, VERSION, 0x04, 0, 0, 0, 0, 0, 0xFF, 0, 0, 0, 0, 0, 0, 0,
        ])));
        assert_eq!(
            rd.read_frame().unwrap().unwrap().to_request(),
            Ok(Request::Seal)
        );
        assert!(rd.has_buffered_frame());
        assert!(matches!(
            rd.read_frame(),
            Err(DecodeError::Desync(Status::BadMagic))
        ));
    }

    #[test]
    fn semantic_validation_rejects_without_panicking() {
        // query with st > end
        let mut bytes = vec![MAGIC, VERSION, 0x01, 0, 16, 0, 0, 0];
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_request(), Err(Status::InvalidRange));
        // insert with a short payload
        let bytes = vec![MAGIC, VERSION, 0x02, 0, 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_request(), Err(Status::BadLength));
        // seal with a non-empty payload
        let bytes = vec![MAGIC, VERSION, 0x04, 0, 1, 0, 0, 0, 0];
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_request(), Err(Status::BadLength));
    }

    #[test]
    fn status_bytes_roundtrip() {
        for s in [
            Status::Ok,
            Status::BadKind,
            Status::BadLength,
            Status::InvalidRange,
            Status::OutOfDomain,
            Status::BadMagic,
            Status::BadVersion,
            Status::Oversized,
            Status::Truncated,
            Status::ReservedId,
            Status::SnapshotFailed,
            Status::Overloaded,
            Status::UnknownIndex,
            Status::BadVerb,
        ] {
            assert_eq!(Status::from_u8(s as u8), s);
        }
    }

    #[test]
    fn snapshot_and_restore_payloads_are_validated() {
        // restore with no path
        let bytes = vec![MAGIC, VERSION, 0x06, 0, 0, 0, 0, 0];
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_request(), Err(Status::BadLength));
        // non-UTF-8 path bytes
        let bytes = vec![MAGIC, VERSION, 0x05, 0, 2, 0, 0, 0, 0xFF, 0xFE];
        let f = reader(bytes).read_frame().unwrap().unwrap();
        assert_eq!(f.to_request(), Err(Status::BadLength));
        // snapshot-chunk frames are responses, never requests
        let mut out = BytesMut::new();
        encode_snapshot_chunk(&mut out, &[1, 2, 3]);
        let f = reader(Vec::from(out)).read_frame().unwrap().unwrap();
        assert_eq!(f.kind, Kind::SnapChunk);
        assert_eq!(f.payload.as_ref(), &[1, 2, 3]);
        assert_eq!(f.to_request(), Err(Status::BadKind));
    }
}
