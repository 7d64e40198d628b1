//! The demultiplexing result encoder: one [`WireSink`] per in-flight
//! query turns the session's batch walk into per-connection
//! response bytes, with no intermediate `Vec<IntervalId>` per query.
//!
//! The scheduler hands the batch to
//! [`Session::query_batch_inline`](hint_core::Session::query_batch_inline),
//! which walks it shard by shard through the session's
//! [`ShardPool`](hint_core::ShardPool), with one `WireSink` per query;
//! every id the index reports is encoded
//! straight into the sink's little-endian payload buffer (a bulk
//! `emit_slice` run becomes one `memcpy`-shaped loop). The
//! [`MergeableSink`] contract also makes the pool's fan-out route
//! ([`Session::query_batch_merge`](hint_core::Session::query_batch_merge))
//! free: a helper's fork is another byte buffer, and merging is buffer
//! concatenation in shard order — bit-identical to the sequential
//! emission order. When
//! the batch returns, [`WireSink::into_frames`] chops the payload into
//! `Results` frames and the `End` trailer addressed to the owning
//! connection: the demux step that lets one merged walk feed many
//! connections.

use crate::proto::{
    encode_end, encode_results_header, Reply, Status, HEADER_LEN, RESULTS_PER_FRAME,
};
use bytes::{BufMut, BytesMut};
use hint_core::{
    ArenaRun, BucketHistogram, Interval, IntervalId, MergeableSink, QuerySink, RangeQuery,
    RelationFilter, TopKByDuration,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The scheduler's shared id → interval table for one catalog entry:
/// what lets relation filters and aggregation sinks resolve endpoints
/// from the bare ids the walk emits. `Arc`-shared so every fork of a
/// sink (one per shard) reads the same table without copying it.
pub type Records = Arc<HashMap<IntervalId, Interval>>;

/// One run of a query's results, in emission order.
#[derive(Debug)]
enum Segment {
    /// Piecewise emissions, already in little-endian wire encoding
    /// (8 bytes per id).
    Bytes(BytesMut),
    /// A zero-copy handle into a sealed shard's id arena — carried
    /// across the fork/merge boundary as a slice handle and encoded
    /// straight from the arena only when frames are cut.
    Arena(ArenaRun),
}

/// Encodes one query's results incrementally into wire form.
///
/// Comparison-free bulk runs arrive as [`ArenaRun`] handles
/// ([`QuerySink::emit_arena`]) and are kept as handles until
/// [`into_frames`](Self::into_frames) — the ids cross the pool's
/// fork/merge boundary without ever being copied into an intermediate
/// buffer.
#[derive(Debug, Default)]
pub struct WireSink {
    /// Completed runs, in emission order.
    segments: Vec<Segment>,
    /// The open byte run taking piecewise emissions.
    tail: BytesMut,
    /// Ids accepted so far.
    count: u64,
}

impl WireSink {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids encoded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Closes the open byte run into the segment list.
    fn flush_tail(&mut self) {
        if !self.tail.is_empty() {
            self.segments
                .push(Segment::Bytes(std::mem::take(&mut self.tail)));
        }
    }

    /// Consumes the sink, appending its response — result chunks of at
    /// most [`RESULTS_PER_FRAME`] ids, then the `Ok` end trailer — to a
    /// connection's outgoing byte buffer. The count is known up front,
    /// so every `Results` header goes straight into `out` ahead of its
    /// ids; arena segments are encoded here, straight from the sealed
    /// arena slice: the final consumer of the zero-copy read path.
    pub fn into_frames(self, out: &mut BytesMut) {
        let mut framer = Framer::new(out, self.count);
        for seg in &self.segments {
            match seg {
                Segment::Bytes(b) => framer.encoded(b.as_slice()),
                Segment::Arena(run) => framer.ids(run.as_slice()),
            }
        }
        framer.encoded(self.tail.as_slice());
        framer.finish();
    }
}

/// Appends `ids` in little-endian wire form, a stack chunk at a time:
/// each chunk is filled with `to_le_bytes` and lands in `out` with one
/// `put_slice`, so the buffer grows per chunk, not per id.
fn put_ids(out: &mut BytesMut, ids: &[IntervalId]) {
    const CHUNK: usize = 128;
    let mut buf = [0u8; CHUNK * 8];
    for run in ids.chunks(CHUNK) {
        for (dst, id) in buf.chunks_exact_mut(8).zip(run) {
            dst.copy_from_slice(&id.to_le_bytes());
        }
        out.put_slice(&buf[..run.len() * 8]);
    }
}

/// Cuts one reply's id stream into `Results` frames written in place:
/// with the total known up front, each frame's header is written before
/// its ids, so no frame is staged and copied.
struct Framer<'a> {
    out: &'a mut BytesMut,
    /// The reply's total id count (the `End` trailer's count).
    count: u64,
    /// Ids still to be written across all frames.
    left: u64,
    /// Ids still to be written into the open frame.
    room: usize,
}

impl<'a> Framer<'a> {
    fn new(out: &'a mut BytesMut, count: u64) -> Self {
        // every Results frame's header and ids, then the trailer's
        // header and its 9-byte payload
        let frames = count.div_ceil(RESULTS_PER_FRAME as u64);
        out.reserve((count * 8 + (frames + 1) * HEADER_LEN as u64 + 9) as usize);
        Self {
            out,
            count,
            left: count,
            room: 0,
        }
    }

    /// Ids the open frame still takes, opening the next frame when the
    /// current one is full.
    fn room(&mut self) -> usize {
        if self.room == 0 {
            assert!(self.left > 0, "reply holds more ids than its count");
            self.room = self.left.min(RESULTS_PER_FRAME as u64) as usize;
            encode_results_header(self.out, self.room);
        }
        self.room
    }

    fn wrote(&mut self, ids: usize) {
        self.room -= ids;
        self.left -= ids as u64;
    }

    /// Appends ids already in wire form (a whole number of ids).
    fn encoded(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (self.room() * 8).min(bytes.len());
            self.out.put_slice(&bytes[..take]);
            self.wrote(take / 8);
            bytes = &bytes[take..];
        }
    }

    /// Appends ids, encoding them on the way.
    fn ids(&mut self, mut ids: &[IntervalId]) {
        while !ids.is_empty() {
            let take = self.room().min(ids.len());
            put_ids(self.out, &ids[..take]);
            self.wrote(take);
            ids = &ids[take..];
        }
    }

    /// Appends the `Ok` trailer.
    fn finish(self) {
        assert_eq!(self.left, 0, "reply holds fewer ids than its count");
        encode_end(
            self.out,
            Reply {
                status: Status::Ok,
                count: self.count,
            },
        );
    }
}

/// Encodes a whole reply of `ids` (result ids, or histogram counts).
fn ids_reply(out: &mut BytesMut, ids: &[u64]) {
    let mut framer = Framer::new(out, ids.len() as u64);
    framer.ids(ids);
    framer.finish();
}

impl QuerySink for WireSink {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        self.tail.put_u64_le(id);
        self.count += 1;
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        put_ids(&mut self.tail, ids);
        self.count += ids.len() as u64;
    }

    fn wants_arenas(&self) -> bool {
        true
    }

    fn emit_arena(&mut self, run: &ArenaRun) {
        if run.len() < hint_core::ARENA_HANDLE_MIN {
            // short runs: the fixed handle bookkeeping (segment entry,
            // refcount round-trip, flush of the open byte run) costs
            // more than encoding the few ids inline
            self.emit_slice(run.as_slice());
            return;
        }
        self.flush_tail();
        self.count += run.len() as u64;
        self.segments.push(Segment::Arena(run.clone()));
    }
}

impl MergeableSink for WireSink {
    fn fork(&self) -> Self {
        WireSink::new()
    }

    /// A fork pre-sized for `cap` expected ids (the serve scheduler's
    /// histogram hint); arena runs bypass the buffer, so this only sizes
    /// the piecewise-emission tail.
    fn fork_sized(&self, cap: usize) -> Self {
        Self {
            segments: Vec::new(),
            tail: BytesMut::with_capacity(cap * 8),
            count: 0,
        }
    }

    /// Run-list concatenation: forks arrive in shard order, so the
    /// merged segment sequence equals what sequential emission would
    /// have produced — arena handles are adopted without touching their
    /// bytes.
    fn merge(&mut self, mut other: Self) {
        self.flush_tail();
        self.segments.append(&mut other.segments);
        self.tail = other.tail;
        self.count += other.count;
    }

    fn result_count(&self) -> Option<usize> {
        Some(self.count as usize)
    }
}

/// The scheduler's per-request sink: one value type covering every
/// walk-driven verb so a single mixed batch per catalog entry flows
/// through one [`query_batch_inline`](hint_core::Session::query_batch_inline)
/// call — plain range queries next to Allen refinements next to top-k
/// and histogram aggregations. Each is also a [`MergeableSink`], so the
/// same batch can fan out across shards and merge back by each sink's
/// own discipline.
#[derive(Debug)]
pub enum ServeSink {
    /// A plain range query, encoding ids straight to wire form.
    Range(WireSink),
    /// An Allen-relation query: the minimal-superset probe's candidates
    /// refined against the entry's record table before encoding.
    Allen(RelationFilter<Records, WireSink>),
    /// Top-k by duration over the window.
    TopK(TopKByDuration<Records>),
    /// Per-bucket overlap counts over the window.
    Hist(BucketHistogram<Records>),
    /// A request already known to have an empty answer (an Allen
    /// relation whose probe is empty); holds the response slot so the
    /// reply still lands in FIFO position.
    Empty,
    /// A request refused by admission control: the reply is a
    /// recoverable [`Status::Overloaded`] trailer, but it must still
    /// ship *in this request's FIFO position* — replies carry no
    /// correlation ids, so shedding out of order would desynchronize
    /// every later reply on the connection. The slot costs no walk and
    /// no buffers; it only holds the position.
    Shed,
}

impl ServeSink {
    /// A plain range-query sink.
    pub fn range() -> Self {
        ServeSink::Range(WireSink::new())
    }

    /// An Allen refinement sink over the entry's record table.
    pub fn allen(rel: hint_core::AllenRelation, q: RangeQuery, records: Records) -> Self {
        ServeSink::Allen(RelationFilter::new(rel, q, records, WireSink::new()))
    }

    /// A top-k-by-duration sink over the entry's record table.
    pub fn top_k(k: usize, records: Records) -> Self {
        ServeSink::TopK(TopKByDuration::new(k, records))
    }

    /// A bucket-histogram sink anchored at the window start.
    pub fn histogram(q: RangeQuery, width: u64, records: Records) -> Self {
        ServeSink::Hist(BucketHistogram::for_query(q, width, records))
    }

    /// Consumes the sink into its reply frames: result chunks (ids for
    /// range/Allen/top-k, `u64` bucket counts for histograms) and the
    /// `Ok` trailer.
    pub fn into_reply(self, out: &mut BytesMut) {
        match self {
            ServeSink::Range(w) => w.into_frames(out),
            ServeSink::Allen(f) => f.into_inner().into_frames(out),
            ServeSink::TopK(t) => ids_reply(out, &t.into_ids()),
            ServeSink::Hist(h) => ids_reply(out, &h.into_counts()),
            ServeSink::Empty => encode_end(
                out,
                Reply {
                    status: Status::Ok,
                    count: 0,
                },
            ),
            ServeSink::Shed => encode_end(
                out,
                Reply {
                    status: Status::Overloaded,
                    count: 0,
                },
            ),
        }
    }
}

impl QuerySink for ServeSink {
    #[inline]
    fn emit(&mut self, id: IntervalId) {
        match self {
            ServeSink::Range(s) => s.emit(id),
            ServeSink::Allen(s) => s.emit(id),
            ServeSink::TopK(s) => s.emit(id),
            ServeSink::Hist(s) => s.emit(id),
            ServeSink::Empty | ServeSink::Shed => {}
        }
    }

    #[inline]
    fn emit_slice(&mut self, ids: &[IntervalId]) {
        match self {
            ServeSink::Range(s) => s.emit_slice(ids),
            ServeSink::Allen(s) => s.emit_slice(ids),
            ServeSink::TopK(s) => s.emit_slice(ids),
            ServeSink::Hist(s) => s.emit_slice(ids),
            ServeSink::Empty | ServeSink::Shed => {}
        }
    }

    #[inline]
    fn is_saturated(&self) -> bool {
        match self {
            ServeSink::Range(s) => s.is_saturated(),
            ServeSink::Allen(s) => s.is_saturated(),
            ServeSink::TopK(s) => s.is_saturated(),
            ServeSink::Hist(s) => s.is_saturated(),
            ServeSink::Empty | ServeSink::Shed => true,
        }
    }

    fn wants_arenas(&self) -> bool {
        // only the plain range path can adopt arena runs wholesale; the
        // refining/aggregating variants inspect every id anyway
        matches!(self, ServeSink::Range(_))
    }

    fn emit_arena(&mut self, run: &ArenaRun) {
        match self {
            ServeSink::Range(s) => s.emit_arena(run),
            other => other.emit_slice(run.as_slice()),
        }
    }
}

impl MergeableSink for ServeSink {
    fn fork(&self) -> Self {
        match self {
            ServeSink::Range(s) => ServeSink::Range(s.fork()),
            ServeSink::Allen(s) => ServeSink::Allen(s.fork()),
            ServeSink::TopK(s) => ServeSink::TopK(s.fork()),
            ServeSink::Hist(s) => ServeSink::Hist(s.fork()),
            ServeSink::Empty => ServeSink::Empty,
            ServeSink::Shed => ServeSink::Shed,
        }
    }

    fn fork_sized(&self, cap: usize) -> Self {
        match self {
            ServeSink::Range(s) => ServeSink::Range(s.fork_sized(cap)),
            other => other.fork(),
        }
    }

    fn merge(&mut self, other: Self) {
        // forks always come back as the parent's variant
        match (self, other) {
            (ServeSink::Range(a), ServeSink::Range(b)) => a.merge(b),
            (ServeSink::Allen(a), ServeSink::Allen(b)) => a.merge(b),
            (ServeSink::TopK(a), ServeSink::TopK(b)) => a.merge(b),
            (ServeSink::Hist(a), ServeSink::Hist(b)) => a.merge(b),
            (ServeSink::Empty, ServeSink::Empty) => {}
            (ServeSink::Shed, ServeSink::Shed) => {}
            _ => unreachable!("merge of mismatched ServeSink variants"),
        }
    }

    fn is_bounded(&self) -> bool {
        match self {
            ServeSink::Range(s) => s.is_bounded(),
            ServeSink::Allen(s) => s.is_bounded(),
            ServeSink::TopK(s) => s.is_bounded(),
            ServeSink::Hist(s) => s.is_bounded(),
            ServeSink::Empty | ServeSink::Shed => true,
        }
    }

    fn result_count(&self) -> Option<usize> {
        match self {
            ServeSink::Range(s) => s.result_count(),
            ServeSink::Allen(s) => s.result_count(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_results, DecodeError, FrameReader, Kind};
    use bytes::Buf;

    /// Decodes the frames `into_frames` wrote back into ids + reply.
    fn decode(out: BytesMut) -> (Vec<IntervalId>, Reply) {
        let mut rd = FrameReader::new(std::io::Cursor::new(Vec::from(out)));
        let mut ids = Vec::new();
        loop {
            let frame = match rd.read_frame() {
                Ok(Some(f)) => f,
                Ok(None) => panic!("stream ended before End trailer"),
                Err(e) => panic!("decode error: {e:?}"),
            };
            match frame.kind {
                Kind::Results => {
                    let mut p = frame.payload;
                    while p.has_remaining() {
                        ids.push(p.get_u64_le());
                    }
                }
                Kind::End => {
                    let mut p = frame.payload;
                    let status = Status::from_u8(p.get_u8());
                    let count = p.get_u64_le();
                    match rd.read_frame() {
                        Ok(None) => {}
                        other => panic!("bytes after End: {other:?}"),
                    }
                    return (ids, Reply { status, count });
                }
                k => panic!("unexpected frame kind {k:?}"),
            }
        }
    }

    #[test]
    fn empty_result_is_just_a_trailer() {
        let sink = WireSink::new();
        let mut out = BytesMut::new();
        sink.into_frames(&mut out);
        let (ids, reply) = decode(out);
        assert!(ids.is_empty());
        assert_eq!(
            reply,
            Reply {
                status: Status::Ok,
                count: 0
            }
        );
    }

    #[test]
    fn emissions_roundtrip_in_order() {
        let mut sink = WireSink::new();
        sink.emit(7);
        sink.emit_slice(&[1, 2, 3]);
        sink.emit(u64::MAX - 1);
        assert_eq!(sink.count(), 5);
        let mut out = BytesMut::new();
        sink.into_frames(&mut out);
        let (ids, reply) = decode(out);
        assert_eq!(ids, vec![7, 1, 2, 3, u64::MAX - 1]);
        assert_eq!(reply.count, 5);
    }

    #[test]
    fn long_results_stream_in_bounded_chunks() {
        let n = RESULTS_PER_FRAME * 2 + 17;
        let mut sink = WireSink::new();
        let all: Vec<IntervalId> = (0..n as u64).collect();
        sink.emit_slice(&all);
        let mut out = BytesMut::new();
        sink.into_frames(&mut out);
        // count the Results frames: ceil(n / RESULTS_PER_FRAME)
        let mut rd = FrameReader::new(std::io::Cursor::new(Vec::from(out.clone())));
        let mut frames = 0;
        while let Ok(Some(f)) = rd.read_frame() {
            if f.kind == Kind::Results {
                assert!(f.payload.len() <= RESULTS_PER_FRAME * 8);
                frames += 1;
            }
        }
        assert_eq!(frames, 3);
        let (ids, reply) = decode(out);
        assert_eq!(ids, all);
        assert_eq!(reply.count, n as u64);
    }

    #[test]
    fn merge_concatenates_in_call_order() {
        let mut sink = WireSink::new();
        sink.emit_slice(&[1, 2]);
        let mut f1 = sink.fork();
        let mut f2 = sink.fork();
        f1.emit_slice(&[3, 4]);
        f2.emit(5);
        sink.merge(f1);
        sink.merge(f2);
        let mut out = BytesMut::new();
        sink.into_frames(&mut out);
        let (ids, _) = decode(out);
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_into_empty_adopts_the_fork() {
        let mut sink = WireSink::new();
        let mut f = sink.fork();
        f.emit_slice(&[9, 8]);
        sink.merge(f);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn arena_runs_encode_straight_from_the_handle() {
        let hm = hint_core::ARENA_HANDLE_MIN as u64;
        let arena = std::sync::Arc::new((0..4 * hm).collect::<Vec<_>>());
        let mut sink = WireSink::new();
        sink.emit(7);
        // long run: carried as a handle, encoded straight from the arena
        sink.emit_arena(&ArenaRun::new(
            std::sync::Arc::clone(&arena),
            10,
            10 + hm as usize,
        ));
        sink.emit_slice(&[1, 2]);
        // short run: inlined into the byte tail, no segment cut
        sink.emit_arena(&ArenaRun::new(std::sync::Arc::clone(&arena), 30, 33));
        sink.emit_arena(&ArenaRun::new(arena, 50, 50)); // empty: dropped
        assert_eq!(sink.count(), 6 + hm);
        let mut out = BytesMut::new();
        sink.into_frames(&mut out);
        let (ids, reply) = decode(out);
        let want: Vec<IntervalId> = std::iter::once(7)
            .chain(10..10 + hm)
            .chain([1, 2])
            .chain(30..33)
            .collect();
        assert_eq!(ids, want);
        assert_eq!(reply.count, 6 + hm);
    }

    #[test]
    fn arena_heavy_results_still_frame_at_the_bound() {
        let n = RESULTS_PER_FRAME * 2 + 17;
        let arena = std::sync::Arc::new((0..n as u64).collect::<Vec<_>>());
        let mut sink = WireSink::new();
        sink.emit(u64::MAX); // unaligned byte prefix before the arena run
        sink.emit_arena(&ArenaRun::new(arena, 0, n));
        let mut out = BytesMut::new();
        sink.into_frames(&mut out);
        let mut rd = FrameReader::new(std::io::Cursor::new(Vec::from(out.clone())));
        let mut frames = 0;
        while let Ok(Some(f)) = rd.read_frame() {
            if f.kind == Kind::Results {
                assert!(f.payload.len() <= RESULTS_PER_FRAME * 8);
                assert_eq!(f.payload.len() % 8, 0, "ids must not split across frames");
                frames += 1;
            }
        }
        assert_eq!(frames, 3);
        let (ids, reply) = decode(out);
        let want: Vec<IntervalId> = std::iter::once(u64::MAX).chain(0..n as u64).collect();
        assert_eq!(ids, want);
        assert_eq!(reply.count, n as u64 + 1);
    }

    #[test]
    fn merged_arena_forks_preserve_emission_order() {
        let arena = std::sync::Arc::new(vec![100u64, 101, 102, 103]);
        let mut sink = WireSink::new();
        sink.emit_slice(&[1, 2]);
        let mut f1 = sink.fork();
        let mut f2 = sink.fork_sized(8);
        f1.emit_arena(&ArenaRun::new(std::sync::Arc::clone(&arena), 0, 2));
        f1.emit(3);
        f2.emit(4);
        f2.emit_arena(&ArenaRun::new(arena, 2, 4));
        sink.merge(f1);
        sink.merge(f2);
        assert_eq!(sink.count(), 8);
        let mut out = BytesMut::new();
        sink.into_frames(&mut out);
        let (ids, _) = decode(out);
        assert_eq!(ids, vec![1, 2, 100, 101, 3, 4, 102, 103]);
    }

    /// The in-place framing writes exactly the bytes of the reference
    /// encoding — `encode_results` over 1024-id chunks of the flat id
    /// list, then `encode_end` — at every frame-boundary count, from
    /// every emission route, appended behind earlier replies.
    #[test]
    fn into_frames_is_byte_identical_to_chunked_reference() {
        let hm = hint_core::ARENA_HANDLE_MIN;
        for n in [0usize, 1, 1023, 1024, 1025, 5000] {
            let all: Vec<IntervalId> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let arena = Arc::new(all.clone());
            let run = |st: usize, len: usize| ArenaRun::new(Arc::clone(&arena), st, st + len);
            let mut sink = WireSink::new();
            let mut pos = 0;
            for step in 0.. {
                if pos == n {
                    break;
                }
                let left = n - pos;
                match step % 4 {
                    0 => {
                        sink.emit(all[pos]);
                        pos += 1;
                    }
                    1 => {
                        let k = left.min(37);
                        sink.emit_slice(&all[pos..pos + k]);
                        pos += k;
                    }
                    2 => {
                        let k = left.min(hm + 29);
                        sink.emit_arena(&run(pos, k));
                        pos += k;
                    }
                    _ => {
                        // a fork holding an arena handle and piecewise
                        // ids, merged back in order
                        let mut fork = sink.fork();
                        let k = left.min(hm);
                        fork.emit_arena(&run(pos, k));
                        pos += k;
                        let k = (n - pos).min(5);
                        fork.emit_slice(&all[pos..pos + k]);
                        pos += k;
                        sink.merge(fork);
                    }
                }
            }
            assert_eq!(sink.count(), n as u64);
            if n >= hm {
                assert!(
                    sink.segments.iter().any(|s| matches!(s, Segment::Arena(_))),
                    "n = {n}: an arena handle must reach into_frames"
                );
            }
            let earlier = Reply {
                status: Status::Ok,
                count: 3,
            };
            let mut got = BytesMut::new();
            encode_end(&mut got, earlier);
            sink.into_frames(&mut got);
            let mut want = BytesMut::new();
            encode_end(&mut want, earlier);
            for chunk in all.chunks(RESULTS_PER_FRAME) {
                let le: Vec<u8> = chunk.iter().flat_map(|id| id.to_le_bytes()).collect();
                encode_results(&mut want, &le);
            }
            encode_end(
                &mut want,
                Reply {
                    status: Status::Ok,
                    count: n as u64,
                },
            );
            assert_eq!(got.as_slice(), want.as_slice(), "n = {n}");
        }
    }

    #[test]
    fn decode_helper_rejects_garbage() {
        // guard the test helper itself: a truncated buffer must not
        // decode quietly
        let mut out = BytesMut::new();
        let mut sink = WireSink::new();
        sink.emit(1);
        sink.into_frames(&mut out);
        let mut bytes = Vec::from(out);
        bytes.truncate(bytes.len() - 1);
        let mut rd = FrameReader::new(std::io::Cursor::new(bytes));
        let _ = rd.read_frame().unwrap(); // Results frame is intact
        assert!(matches!(rd.read_frame(), Err(DecodeError::Io(_))));
    }
}
