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
//! `emit_slice` run becomes one `memcpy`-shaped loop). When the batch
//! returns, [`WireSink::into_frames`] chops the payload into `Results`
//! frames and the `End` trailer addressed to the owning connection: the
//! demux step that lets one shared walk feed many connections.

use crate::proto::{
    encode_end, encode_results_header, Reply, Status, HEADER_LEN, RESULTS_PER_FRAME,
};
use bytes::{BufMut, BytesMut};
use hint_core::{
    ArenaRun, BucketHistogram, Interval, IntervalId, QuerySink, RangeQuery, RelationFilter,
    TopKByDuration,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The scheduler's shared id → interval table for one catalog entry:
/// what lets relation filters and aggregation sinks resolve endpoints
/// from the bare ids the walk emits. `Arc`-shared so every sink in a
/// batch reads the same table without copying it.
pub type Records = Arc<HashMap<IntervalId, Interval>>;

/// One run of a query's results, in emission order.
#[derive(Debug)]
enum Segment {
    /// Piecewise emissions, already in little-endian wire encoding
    /// (8 bytes per id).
    Bytes(BytesMut),
    /// A zero-copy handle into a sealed shard's id arena, encoded
    /// straight from the arena only when frames are cut.
    Arena(ArenaRun),
}

/// Encodes one query's results incrementally into wire form.
///
/// Comparison-free bulk runs arrive as [`ArenaRun`] handles
/// ([`QuerySink::emit_arena`]) and are kept as handles until
/// [`into_frames`](Self::into_frames) — the ids are never copied into
/// an intermediate buffer.
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

/// The scheduler's per-request sink: one value type covering every
/// walk-driven verb so a single mixed batch per catalog entry flows
/// through one [`query_batch_inline`](hint_core::Session::query_batch_inline)
/// call — plain range queries next to Allen refinements next to top-k
/// and histogram aggregations.
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
                        // an arena handle right behind another, then
                        // piecewise ids
                        let k = left.min(hm);
                        sink.emit_arena(&run(pos, k));
                        pos += k;
                        let k = (n - pos).min(5);
                        sink.emit_slice(&all[pos..pos + k]);
                        pos += k;
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
    fn put_ids_matches_per_id_encoding_across_its_stack_chunk() {
        for n in [0u64, 1, 127, 128, 129, 300] {
            let ids: Vec<IntervalId> = (0..n).map(|i| i ^ 0xA5A5_0000_0000_0001).collect();
            let mut got = BytesMut::new();
            put_ids(&mut got, &ids);
            let want: Vec<u8> = ids.iter().flat_map(|id| id.to_le_bytes()).collect();
            assert_eq!(got.as_slice(), want.as_slice(), "n = {n}");
        }
    }

    /// Three records: `1` = [0, 10], `2` = [5, 50], `3` = [40, 45].
    fn records() -> Records {
        Arc::new(HashMap::from([
            (1, Interval::new(1, 0, 10)),
            (2, Interval::new(2, 5, 50)),
            (3, Interval::new(3, 40, 45)),
        ]))
    }

    fn reply_of(sink: ServeSink) -> (Vec<IntervalId>, Reply) {
        let mut out = BytesMut::new();
        sink.into_reply(&mut out);
        decode(out)
    }

    #[test]
    fn shed_slot_replies_overloaded_and_ignores_emissions() {
        let mut sink = ServeSink::Shed;
        assert!(sink.is_saturated(), "a shed slot must cost no walk");
        sink.emit(1);
        sink.emit_slice(&[2, 3]);
        let (ids, reply) = reply_of(sink);
        assert!(ids.is_empty());
        assert_eq!(
            reply,
            Reply {
                status: Status::Overloaded,
                count: 0
            }
        );
    }

    #[test]
    fn empty_slot_replies_ok_with_a_zero_count() {
        let mut sink = ServeSink::Empty;
        assert!(sink.is_saturated());
        sink.emit(9);
        let (ids, reply) = reply_of(sink);
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
    fn only_range_sinks_adopt_arena_runs() {
        let q = RangeQuery::new(20, 60);
        let arena = Arc::new(vec![1, 2, 3]);
        let mut sinks = [
            ServeSink::range(),
            ServeSink::allen(hint_core::AllenRelation::During, q, records()),
            ServeSink::top_k(2, records()),
            ServeSink::histogram(q, 100, records()),
        ];
        let adopts: Vec<bool> = sinks.iter().map(|s| s.wants_arenas()).collect();
        assert_eq!(adopts, [true, false, false, false]);
        // the others still see every id of a run handed to them
        for s in &mut sinks {
            s.emit_arena(&ArenaRun::new(Arc::clone(&arena), 0, 3));
        }
        let [range, allen, top, hist] = sinks;
        assert_eq!(reply_of(range).0, [1, 2, 3]);
        assert_eq!(reply_of(allen).0, [3]);
        assert_eq!(reply_of(top).0, [2, 1]);
        assert_eq!(reply_of(hist).0, [2]);
    }

    #[test]
    fn allen_sink_encodes_only_matching_candidates() {
        let q = RangeQuery::new(0, 20);
        let mut sink = ServeSink::allen(hint_core::AllenRelation::Starts, q, records());
        assert!(!sink.is_saturated());
        // 1 starts q; 2 overlaps it; 3 lies past it; 77 is unknown
        sink.emit_slice(&[1, 2, 3, 77]);
        let (ids, reply) = reply_of(sink);
        assert_eq!(ids, [1]);
        assert_eq!(reply.count, 1);
    }

    #[test]
    fn top_k_reply_ranks_by_duration_then_id() {
        let mut sink = ServeSink::top_k(2, records());
        sink.emit(3);
        sink.emit(1);
        sink.emit(2);
        let (ids, reply) = reply_of(sink);
        // durations: 2 → 45, 1 → 10, 3 → 5
        assert_eq!(ids, [2, 1]);
        assert_eq!(reply.count, 2);
    }

    #[test]
    fn histogram_reply_carries_one_count_per_bucket() {
        let q = RangeQuery::new(0, 49);
        let mut sink = ServeSink::histogram(q, 20, records());
        sink.emit_slice(&[1, 2, 3]);
        let (counts, reply) = reply_of(sink);
        // buckets [0,19], [20,39], [40,59]: 1 and 2 / 2 / 2 and 3
        assert_eq!(counts, [2, 1, 2]);
        assert_eq!(reply.count, 3, "the trailer counts buckets");
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
