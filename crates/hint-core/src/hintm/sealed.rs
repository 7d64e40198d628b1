//! Sealed columnar (CSR) storage for the HINT^m family.
//!
//! The update-friendly variants ([`super::base::HintMBase`],
//! [`super::subs::HintMSubs`]) store every partition as its own set of
//! heap `Vec`s — thousands of tiny allocations whose scans chase a pointer
//! per partition. A `seal()` freeze step flattens each level into four
//! contiguous per-category arenas in CSR form: for every subdivision
//! category (`Oin`, `Oaft`, `Rin`, `Raft`) one flat `ids` column (plus the
//! endpoint columns Table 3 says the category can ever compare), indexed
//! by a per-level partition-offset table `starts` with `starts[i] ..
//! starts[i + 1]` delimiting partition `i`'s run.
//!
//! The sealed query walk exploits two consequences of the layout:
//!
//! * **bulk emit** — every "no-comparison" reporting regime (middle
//!   partitions, cleared Lemma-2 flags, the whole `Raft` category) hands
//!   one contiguous, tombstone-free `ids` slice to
//!   [`QuerySink::emit_slice`]; in particular *all* middle partitions of a
//!   level form a single slice per category, so the widest part of a query
//!   costs one `memcpy` instead of a per-element loop over per-partition
//!   `Vec`s;
//! * **comparison scans over flat columns** — runs are sorted at seal
//!   time (`Oin`/`Oaft` by start, `Rin` by end), so every comparison
//!   regime is a binary search into one flat endpoint column followed by a
//!   bulk emit of the qualifying prefix/suffix.
//!
//! Updates after sealing go to a small unsealed *overlay* (the variant's
//! original per-partition storage) that the next `seal()` merges into new
//! arenas, dropping tombstones; queries walk the sealed arenas first and
//! the overlay second, so mixed workloads stay exact between seals.
//!
//! [`SealedStore::query_batch`] additionally amortizes the level walk over
//! many queries: queries are sorted by their first relevant partition and
//! each level's arenas are traversed once for the whole batch, keeping the
//! offset table and data columns hot in cache.

use crate::assign::SubKind;
use crate::domain::Domain;
use crate::hintm::CompFlags;
use crate::interval::{Interval, IntervalId, RangeQuery, Time, TOMBSTONE};
use crate::scan;
use crate::sink::{ArenaRun, QuerySink};
use std::sync::Arc;

/// Queries per tile of the batched level walk: small enough that a
/// tile's destination sinks stay cache-hot on result-heavy extents,
/// large enough to amortize the level traversal across sorted
/// neighbours (stabbing throughput is flat from 8 to 64 queries per
/// walk, so the bound only bites where it helps).
const BATCH_TILE: usize = 8;

/// Emission-volume budget per tile, in ids (~32 KB): the next tile's
/// width is sized so its expected touched-id volume (fed back from the
/// previous tile's walk) stays within this, so result-heavy queries run
/// with few (down to one) live destination buffers and their emission
/// stream stays cache-resident — the regime where an unbounded tile
/// cycles cold sink tails per level and loses to the solo walk's single
/// hot output buffer.
const TILE_VOLUME: usize = 4_096;

/// One subdivision category at one level, flattened into CSR form.
///
/// `starts` has `2^level + 1` entries; partition `i`'s run is
/// `starts[i] .. starts[i + 1]` in the data columns. Only the endpoint
/// columns the category can ever compare are populated (Table 3):
/// `Oin: st + end`, `Oaft: st`, `Rin: end`, `Raft: neither`.
///
/// The `ids` column is shared (`Arc`) so comparison-free runs can cross
/// the fork/merge boundary as zero-copy [`ArenaRun`] handles: a reseal
/// builds new columns while outstanding handles keep the superseded one
/// alive, and a tombstone against a sealed store copies-on-write
/// ([`Arc::make_mut`]) so issued handles retain the snapshot they were
/// cut from.
#[derive(Debug, Clone, Default)]
struct CsrCat {
    starts: Vec<u32>,
    ids: Arc<Vec<IntervalId>>,
    st: Vec<Time>,
    end: Vec<Time>,
}

impl CsrCat {
    /// Data range of partition `off`.
    #[inline]
    fn run(&self, off: u64) -> (usize, usize) {
        (
            self.starts[off as usize] as usize,
            self.starts[off as usize + 1] as usize,
        )
    }

    /// Data range spanned by partitions `first ..= last` — contiguous by
    /// construction, the bulk-emit fast path.
    #[inline]
    fn span(&self, first: u64, last: u64) -> (usize, usize) {
        (
            self.starts[first as usize] as usize,
            self.starts[last as usize + 1] as usize,
        )
    }

    /// Blind-reports a data range (no comparisons; one `emit_slice` per
    /// saturation-poll chunk when tombstone-free). Sinks that opt in via
    /// [`QuerySink::wants_arenas`] receive tombstone-free runs of at
    /// least [`ARENA_HANDLE_MIN`](crate::sink::ARENA_HANDLE_MIN) ids as
    /// zero-copy [`ArenaRun`] handles instead — shorter runs are cheaper
    /// to copy than to track, so the handle (and its arena refcount
    /// round-trip) is never even constructed for them. In a
    /// monomorphized batch walk the `wants_arenas` branch const-folds to
    /// whichever side the sink type uses.
    #[inline]
    fn blind<S: QuerySink + ?Sized>(&self, lo: usize, hi: usize, skip: bool, sink: &mut S) {
        if !skip && hi - lo >= crate::sink::ARENA_HANDLE_MIN && sink.wants_arenas() {
            sink.emit_arena(&ArenaRun::new(Arc::clone(&self.ids), lo, hi));
            return;
        }
        scan::emit_ids(&self.ids[lo..hi], skip, sink);
    }

    /// Reports the run prefix with `st <= bound` (run sorted by start).
    #[inline]
    fn st_prefix<S: QuerySink + ?Sized>(
        &self,
        lo: usize,
        hi: usize,
        bound: Time,
        skip: bool,
        sink: &mut S,
    ) {
        let ub = self.st[lo..hi].partition_point(|&x| x <= bound);
        scan::emit_ids(&self.ids[lo..lo + ub], skip, sink);
    }

    /// Reports the run suffix with `end >= bound` (run sorted by end).
    #[inline]
    fn end_suffix<S: QuerySink + ?Sized>(
        &self,
        lo: usize,
        hi: usize,
        bound: Time,
        skip: bool,
        sink: &mut S,
    ) {
        let lb = self.end[lo..hi].partition_point(|&x| x < bound);
        scan::emit_ids(&self.ids[lo + lb..hi], skip, sink);
    }

    /// Linear `end >= bound` filter over a run that is sorted by start
    /// (the Lemma-5 first-partition case for `Oin`).
    #[inline]
    fn end_filter<S: QuerySink + ?Sized>(
        &self,
        lo: usize,
        hi: usize,
        bound: Time,
        skip: bool,
        sink: &mut S,
    ) {
        scan::emit_filtered_ids(
            &self.ids[lo..hi],
            &self.end[lo..hi],
            skip,
            |e| e >= bound,
            sink,
        );
    }

    /// Full overlap test (single-partition Lemma-6 case): binary-search
    /// the `st <= qend` prefix, then filter it by `end >= qst`.
    #[inline]
    fn overlap<S: QuerySink + ?Sized>(
        &self,
        lo: usize,
        hi: usize,
        qst: Time,
        qend: Time,
        skip: bool,
        sink: &mut S,
    ) {
        let ub = self.st[lo..hi].partition_point(|&x| x <= qend);
        scan::emit_filtered_ids(
            &self.ids[lo..lo + ub],
            &self.end[lo..lo + ub],
            skip,
            |e| e >= qst,
            sink,
        );
    }

    /// Tombstones the entry with `id` inside partition `off`, narrowing
    /// the scan to the equal-key run via the sorted key column (`KeyCol`).
    fn tombstone(&mut self, off: u64, id: IntervalId, key: Time, col: KeyCol) -> bool {
        let (lo, hi) = self.run(off);
        let (lo, hi) = match col {
            KeyCol::St => {
                let c = &self.st[lo..hi];
                (
                    lo + c.partition_point(|&x| x < key),
                    lo + c.partition_point(|&x| x <= key),
                )
            }
            KeyCol::End => {
                let c = &self.end[lo..hi];
                (
                    lo + c.partition_point(|&x| x < key),
                    lo + c.partition_point(|&x| x <= key),
                )
            }
            KeyCol::None => (lo, hi),
        };
        // copy-on-write: outstanding ArenaRun handles keep reading the
        // tombstone-free snapshot they were issued from
        for slot in &mut Arc::make_mut(&mut self.ids)[lo..hi] {
            if *slot == id {
                *slot = TOMBSTONE;
                return true;
            }
        }
        false
    }

    fn size_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>()
            + (self.ids.len() + self.st.len() + self.end.len()) * 8
    }
}

/// Which sorted key column to use when narrowing a tombstone scan.
enum KeyCol {
    St,
    End,
    None,
}

/// Borrowed view of one category's raw CSR columns — what the snapshot
/// writer serializes. Only the columns the category populates are
/// non-empty (Table 3).
pub(crate) struct CatColumns<'a> {
    /// Partition-offset table (`2^level + 1` entries).
    pub starts: &'a [u32],
    /// Interval ids, one per stored entry.
    pub ids: &'a [IntervalId],
    /// Start column (`Oin`, `Oaft`); empty otherwise.
    pub st: &'a [Time],
    /// End column (`Oin`, `Rin`); empty otherwise.
    pub end: &'a [Time],
}

/// Owned raw CSR columns of one category — what the snapshot reader
/// hands back for validation and import.
#[derive(Debug, Default)]
pub(crate) struct CatColumnsOwned {
    /// Partition-offset table (`2^level + 1` entries).
    pub starts: Vec<u32>,
    /// Interval ids, one per stored entry.
    pub ids: Vec<IntervalId>,
    /// Start column (`Oin`, `Oaft`); empty otherwise.
    pub st: Vec<Time>,
    /// End column (`Oin`, `Rin`); empty otherwise.
    pub end: Vec<Time>,
}

fn into_cat(c: CatColumnsOwned) -> CsrCat {
    CsrCat {
        starts: c.starts,
        ids: Arc::new(c.ids),
        st: c.st,
        end: c.end,
    }
}

/// Checks one imported category's shape: offset-table length and
/// monotonicity, final offset matching the column lengths, and the
/// Table-3 column-presence rule.
fn validate_cat(
    level: u32,
    name: &str,
    c: &CatColumnsOwned,
    parts: usize,
    has_st: bool,
    has_end: bool,
) -> Result<(), String> {
    if c.starts.len() != parts + 1 {
        return Err(format!(
            "level {level} {name}: offset table has {} entries, expected {}",
            c.starts.len(),
            parts + 1
        ));
    }
    if c.starts[0] != 0 {
        return Err(format!(
            "level {level} {name}: offset table does not start at 0"
        ));
    }
    if c.starts.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("level {level} {name}: offset table not monotone"));
    }
    let n = *c.starts.last().unwrap() as usize;
    if c.ids.len() != n {
        return Err(format!(
            "level {level} {name}: {} ids, offset table says {n}",
            c.ids.len()
        ));
    }
    let want_st = if has_st { n } else { 0 };
    if c.st.len() != want_st {
        return Err(format!(
            "level {level} {name}: st column has {} entries, expected {want_st}",
            c.st.len()
        ));
    }
    let want_end = if has_end { n } else { 0 };
    if c.end.len() != want_end {
        return Err(format!(
            "level {level} {name}: end column has {} entries, expected {want_end}",
            c.end.len()
        ));
    }
    if c.ids.contains(&TOMBSTONE) {
        return Err(format!(
            "level {level} {name}: tombstone id in a sealed snapshot"
        ));
    }
    Ok(())
}

/// Checks the within-run sort invariant the sealed walk's binary
/// searches rely on: `key` non-decreasing inside every partition run.
fn check_run_order(level: u32, name: &str, starts: &[u32], key: &[Time]) -> Result<(), String> {
    if key.is_empty() {
        return Ok(());
    }
    for (off, w) in starts.windows(2).enumerate() {
        let run = &key[w[0] as usize..w[1] as usize];
        if run.windows(2).any(|p| p[0] > p[1]) {
            return Err(format!(
                "level {level} {name}: partition {off} comparison-key run not sorted"
            ));
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct SealedLevel {
    oin: CsrCat,
    oaft: CsrCat,
    rin: CsrCat,
    raft: CsrCat,
}

/// The frozen CSR arenas of one index: `m + 1` levels, four categories
/// each. Built by [`SealedBuilder`], immutable except for tombstoning.
#[derive(Debug, Clone)]
pub(crate) struct SealedStore {
    m: u32,
    levels: Vec<SealedLevel>,
}

/// Per-level collection buffers for a seal: entries keyed by partition
/// offset, sorted and flattened by [`SealedBuilder::finish`].
#[derive(Default)]
struct LevelBuf {
    oin: Vec<(u64, Interval)>,
    oaft: Vec<(u64, IntervalId, Time)>,
    rin: Vec<(u64, IntervalId, Time)>,
    raft: Vec<(u64, IntervalId)>,
}

/// Accumulates entries (from old sealed arenas and/or the unsealed
/// overlay) and freezes them into a [`SealedStore`]. Tombstoned entries
/// are dropped on push, so every seal is also a compaction.
pub(crate) struct SealedBuilder {
    m: u32,
    levels: Vec<LevelBuf>,
}

impl SealedBuilder {
    pub fn new(m: u32) -> Self {
        Self {
            m,
            levels: (0..=m).map(|_| LevelBuf::default()).collect(),
        }
    }

    #[inline]
    pub fn push_oin(&mut self, level: u32, off: u64, id: IntervalId, st: Time, end: Time) {
        if id != TOMBSTONE {
            self.levels[level as usize]
                .oin
                .push((off, Interval { id, st, end }));
        }
    }

    #[inline]
    pub fn push_oaft(&mut self, level: u32, off: u64, id: IntervalId, st: Time) {
        if id != TOMBSTONE {
            self.levels[level as usize].oaft.push((off, id, st));
        }
    }

    #[inline]
    pub fn push_rin(&mut self, level: u32, off: u64, id: IntervalId, end: Time) {
        if id != TOMBSTONE {
            self.levels[level as usize].rin.push((off, id, end));
        }
    }

    #[inline]
    pub fn push_raft(&mut self, level: u32, off: u64, id: IntervalId) {
        if id != TOMBSTONE {
            self.levels[level as usize].raft.push((off, id));
        }
    }

    /// Sorts every level's buffers by `(partition, comparison key)` and
    /// materializes the CSR arenas.
    pub fn finish(self) -> SealedStore {
        let m = self.m;
        let levels = self
            .levels
            .into_iter()
            .enumerate()
            .map(|(l, mut b)| {
                let parts = 1usize << l;
                b.oin.sort_unstable_by_key(|&(off, s)| (off, s.st));
                b.oaft.sort_unstable_by_key(|&(off, _, st)| (off, st));
                b.rin.sort_unstable_by_key(|&(off, _, end)| (off, end));
                b.raft.sort_unstable_by_key(|&(off, _)| off);
                SealedLevel {
                    oin: CsrCat {
                        starts: build_starts(parts, b.oin.iter().map(|e| e.0)),
                        ids: Arc::new(b.oin.iter().map(|e| e.1.id).collect()),
                        st: b.oin.iter().map(|e| e.1.st).collect(),
                        end: b.oin.iter().map(|e| e.1.end).collect(),
                    },
                    oaft: CsrCat {
                        starts: build_starts(parts, b.oaft.iter().map(|e| e.0)),
                        ids: Arc::new(b.oaft.iter().map(|e| e.1).collect()),
                        st: b.oaft.iter().map(|e| e.2).collect(),
                        end: Vec::new(),
                    },
                    rin: CsrCat {
                        starts: build_starts(parts, b.rin.iter().map(|e| e.0)),
                        ids: Arc::new(b.rin.iter().map(|e| e.1).collect()),
                        st: Vec::new(),
                        end: b.rin.iter().map(|e| e.2).collect(),
                    },
                    raft: CsrCat {
                        starts: build_starts(parts, b.raft.iter().map(|e| e.0)),
                        ids: Arc::new(b.raft.iter().map(|e| e.1).collect()),
                        st: Vec::new(),
                        end: Vec::new(),
                    },
                }
            })
            .collect();
        SealedStore { m, levels }
    }
}

/// Builds the partition-offset table of one category from its (sorted or
/// unsorted) entry offsets: a counting pass plus a prefix sum.
fn build_starts(parts: usize, offsets: impl Iterator<Item = u64>) -> Vec<u32> {
    let mut starts = vec![0u32; parts + 1];
    for off in offsets {
        starts[off as usize + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    starts
}

impl SealedStore {
    /// Hierarchy depth of the sealed arenas.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Borrowed raw columns of category `kind` at `level` — the
    /// snapshot export path reads the arenas through this, byte for
    /// byte, with no re-sort or re-assignment.
    pub fn category_columns(&self, level: u32, kind: SubKind) -> CatColumns<'_> {
        let lev = &self.levels[level as usize];
        let cat = match kind {
            SubKind::OriginalIn => &lev.oin,
            SubKind::OriginalAft => &lev.oaft,
            SubKind::ReplicaIn => &lev.rin,
            SubKind::ReplicaAft => &lev.raft,
        };
        CatColumns {
            starts: &cat.starts,
            ids: &cat.ids,
            st: &cat.st,
            end: &cat.end,
        }
    }

    /// Rebuilds a store from raw columns (the snapshot restore path),
    /// validating every structural invariant the sealed walk relies on:
    /// offset-table shape and monotonicity, final offsets matching the
    /// column lengths, per-category column presence (Table 3), sorted
    /// comparison keys within every partition run, and no tombstones.
    /// Each level's categories arrive in `[oin, oaft, rin, raft]`
    /// order. Returns a description of the first violation instead of
    /// panicking — corrupted snapshot bytes must never crash a restore.
    pub fn from_columns(m: u32, levels: Vec<[CatColumnsOwned; 4]>) -> Result<SealedStore, String> {
        if m > 26 {
            // the build path asserts the same bound; a decoded m beyond
            // it is corruption, not a shape this store can represent
            return Err(format!("m = {m} exceeds the supported depth (26)"));
        }
        if levels.len() != (m + 1) as usize {
            return Err(format!(
                "expected {} levels for m = {m}, got {}",
                m + 1,
                levels.len()
            ));
        }
        let levels = levels
            .into_iter()
            .enumerate()
            .map(|(l, [oin, oaft, rin, raft])| {
                let parts = 1usize << l;
                let l = l as u32;
                validate_cat(l, "oin", &oin, parts, true, true)?;
                validate_cat(l, "oaft", &oaft, parts, true, false)?;
                validate_cat(l, "rin", &rin, parts, false, true)?;
                validate_cat(l, "raft", &raft, parts, false, false)?;
                check_run_order(l, "oin", &oin.starts, &oin.st)?;
                check_run_order(l, "oaft", &oaft.starts, &oaft.st)?;
                check_run_order(l, "rin", &rin.starts, &rin.end)?;
                Ok(SealedLevel {
                    oin: into_cat(oin),
                    oaft: into_cat(oaft),
                    rin: into_cat(rin),
                    raft: into_cat(raft),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SealedStore { m, levels })
    }

    /// Total stored entries across all arenas.
    pub fn entries(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.oin.ids.len() + l.oaft.ids.len() + l.rin.ids.len() + l.raft.ids.len())
            .sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.oin.size_bytes() + l.oaft.size_bytes() + l.rin.size_bytes() + l.raft.size_bytes()
            })
            .sum()
    }

    /// Re-pushes every live entry into `b` (the reseal path: old arenas +
    /// overlay are merged into fresh arenas, dropping tombstones).
    pub fn drain_into(&self, b: &mut SealedBuilder) {
        for (l, lev) in self.levels.iter().enumerate() {
            let l = l as u32;
            for (off, w) in lev.oin.starts.windows(2).enumerate() {
                for k in w[0] as usize..w[1] as usize {
                    b.push_oin(l, off as u64, lev.oin.ids[k], lev.oin.st[k], lev.oin.end[k]);
                }
            }
            for (off, w) in lev.oaft.starts.windows(2).enumerate() {
                for k in w[0] as usize..w[1] as usize {
                    b.push_oaft(l, off as u64, lev.oaft.ids[k], lev.oaft.st[k]);
                }
            }
            for (off, w) in lev.rin.starts.windows(2).enumerate() {
                for k in w[0] as usize..w[1] as usize {
                    b.push_rin(l, off as u64, lev.rin.ids[k], lev.rin.end[k]);
                }
            }
            for (off, w) in lev.raft.starts.windows(2).enumerate() {
                for k in w[0] as usize..w[1] as usize {
                    b.push_raft(l, off as u64, lev.raft.ids[k]);
                }
            }
        }
    }

    /// Reconstructs every live interval stored in the arenas, appending
    /// `(id, st)` pairs for originals whose end lives elsewhere into
    /// `await_end` and `(id, end)` pairs from ends-inside replicas into
    /// `end_of`; fully-known intervals go straight to `out`.
    ///
    /// Works because Algorithm 1 gives every interval exactly one
    /// `Original*` assignment (carrying its start) and exactly one
    /// *ends-inside* assignment (carrying its end): an `Oin` original
    /// carries both; an `Oaft` original's end is carried by its unique
    /// `Rin` replica. `Raft` entries carry nothing and are skipped.
    pub fn collect_live(
        &self,
        out: &mut Vec<Interval>,
        await_end: &mut Vec<(IntervalId, Time)>,
        end_of: &mut Vec<(IntervalId, Time)>,
    ) {
        for lev in &self.levels {
            for (k, &id) in lev.oin.ids.iter().enumerate() {
                if id != TOMBSTONE {
                    out.push(Interval {
                        id,
                        st: lev.oin.st[k],
                        end: lev.oin.end[k],
                    });
                }
            }
            for (k, &id) in lev.oaft.ids.iter().enumerate() {
                if id != TOMBSTONE {
                    await_end.push((id, lev.oaft.st[k]));
                }
            }
            for (k, &id) in lev.rin.ids.iter().enumerate() {
                if id != TOMBSTONE {
                    end_of.push((id, lev.rin.end[k]));
                }
            }
        }
    }

    /// Tombstones one assignment of interval `(id, st, end)`. The sorted
    /// key column implied by the category narrows the scan to the
    /// equal-key run (the same assignment rule insertion uses).
    pub fn tombstone(
        &mut self,
        level: u32,
        off: u64,
        kind: SubKind,
        id: IntervalId,
        st: Time,
        end: Time,
    ) -> bool {
        let lev = &mut self.levels[level as usize];
        match kind {
            SubKind::OriginalIn => lev.oin.tombstone(off, id, st, KeyCol::St),
            SubKind::OriginalAft => lev.oaft.tombstone(off, id, st, KeyCol::St),
            SubKind::ReplicaIn => lev.rin.tombstone(off, id, end, KeyCol::End),
            SubKind::ReplicaAft => lev.raft.tombstone(off, id, 0, KeyCol::None),
        }
    }

    /// Evaluates one query over the sealed arenas (Algorithm 3 with the
    /// §4.1 subdivision lemmas). The caller has already checked that `q`
    /// intersects the domain; `skip` enables tombstone filtering.
    pub fn query_sink<S: QuerySink + ?Sized>(
        &self,
        domain: &Domain,
        q: RangeQuery,
        skip: bool,
        sink: &mut S,
    ) {
        debug_assert_eq!(domain.m(), self.m);
        let (qst, qend) = domain.map_query(&q);
        let mut flags = CompFlags::new();
        for l in (0..=self.m).rev() {
            if sink.is_saturated() {
                return;
            }
            let f = domain.prefix(l, qst);
            let last = domain.prefix(l, qend);
            let _ = self.walk_level(l, f, last, &q, flags, skip, sink);
            flags.update(f, last);
        }
    }

    /// Evaluates a batch of queries with one shared walk per level:
    /// queries are ordered by their first relevant partition, so each
    /// level's offset table and arenas are traversed once, left to right,
    /// for the whole batch. Per-sink output is bit-identical to running
    /// [`SealedStore::query_sink`] once per query — each query's sink
    /// receives exactly its own per-level emissions, so the visiting
    /// order within a level is a cache-locality concern only.
    ///
    /// Generic over the sink type: the sharded read routes instantiate
    /// this per concrete sink, eliminating the per-emission vtable hop
    /// the `dyn` spelling pays. `presorted` says the caller already
    /// ordered the batch by query start (the batch-clustering planning
    /// pass), so the per-batch locality sort is skipped.
    pub fn query_batch<S: QuerySink + ?Sized>(
        &self,
        domain: &Domain,
        queries: &[RangeQuery],
        skip: bool,
        sinks: &mut [&mut S],
        presorted: bool,
    ) {
        assert_eq!(
            queries.len(),
            sinks.len(),
            "query_batch: one sink per query"
        );
        let mapped: Vec<(u64, u64)> = queries.iter().map(|q| domain.map_query(q)).collect();
        let mut order: Vec<usize> = (0..queries.len())
            .filter(|&i| domain.intersects(&queries[i]))
            .collect();
        if !presorted {
            order.sort_unstable_by_key(|&i| mapped[i]);
        }
        // The Lemma-2 flags are a closed form of the mapped endpoints: at
        // level `l`, `first` survives iff every level below had an odd
        // first-partition offset — i.e. the low `m - l` bits of the mapped
        // start are all ones — and dually `last` survives iff the low
        // `m - l` bits of the mapped end are all zeros. Computing the
        // alignment once per query replaces the per-(level, query) flag
        // updates and lets the batch skip empty levels outright.
        let align: Vec<(u32, u32)> = mapped
            .iter()
            .map(|&(qst, qend)| (qst.trailing_ones(), qend.trailing_zeros()))
            .collect();
        // Tile the sorted batch: each tile of queries runs the whole
        // level walk before the next tile starts. The level-major order
        // inside a tile keeps the arena-locality win of batching (sorted
        // neighbours touch adjacent partitions), while the tile width
        // caps how many destination sinks are live at once — on
        // result-heavy workloads an unbounded batch cycles through every
        // sink's tail per level and thrashes the cache that solo keeps a
        // single hot output buffer in. The width adapts by feedback: the
        // walk reports how many arena ids each tile touched, and the
        // next tile is sized so its expected emission volume stays
        // within the cache budget (result-heavy queries degrade to one
        // live destination, exactly the solo walk's behaviour). Per-sink
        // emission order is unchanged (every query still walks levels
        // bottom-up), so results stay bit-identical to the solo walk.
        let mut tile_len = BATCH_TILE;
        let mut t0 = 0;
        while t0 < order.len() {
            let t1 = (t0 + tile_len).min(order.len());
            let tile = &order[t0..t1];
            let mut volume = 0usize;
            for l in (0..=self.m).rev() {
                // hoist the empty-level test out of the per-query loop:
                // on short-interval data most top levels hold nothing,
                // and the whole tile can skip them in one branch
                let lev = &self.levels[l as usize];
                if lev.oin.ids.is_empty()
                    && lev.oaft.ids.is_empty()
                    && lev.rin.ids.is_empty()
                    && lev.raft.ids.is_empty()
                {
                    continue;
                }
                let need = self.m - l;
                for &i in tile {
                    if sinks[i].is_saturated() {
                        continue;
                    }
                    let (qst, qend) = mapped[i];
                    let flags = CompFlags {
                        first: align[i].0 >= need,
                        last: align[i].1 >= need,
                    };
                    let f = domain.prefix(l, qst);
                    let last = domain.prefix(l, qend);
                    volume += self.walk_level(l, f, last, &queries[i], flags, skip, &mut *sinks[i]);
                }
            }
            let per_query = volume / (t1 - t0);
            tile_len = (TILE_VOLUME / per_query.max(1)).clamp(1, BATCH_TILE);
            t0 = t1;
        }
    }

    /// One level of the walk: Lemmas 5/6 comparison regimes, gated by the
    /// Lemma-2 flags, over the CSR runs. All middle partitions of a
    /// category form one contiguous blind slice.
    ///
    /// Returns the number of arena ids the level touched for this query
    /// (the sum of the run lengths handed to the emitters, before any
    /// endpoint filtering) — the cache-relevant volume the batched walk
    /// feeds back into its tile sizing.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn walk_level<S: QuerySink + ?Sized>(
        &self,
        l: u32,
        f: u64,
        last: u64,
        q: &RangeQuery,
        flags: CompFlags,
        skip: bool,
        sink: &mut S,
    ) -> usize {
        let lev = &self.levels[l as usize];
        if lev.oin.ids.is_empty()
            && lev.oaft.ids.is_empty()
            && lev.rin.ids.is_empty()
            && lev.raft.ids.is_empty()
        {
            return 0;
        }
        let mut vol = 0;
        if f == last {
            // single relevant partition (Lemma 6)
            let (lo, hi) = lev.oin.run(f);
            if lo < hi {
                vol += hi - lo;
                match (flags.first, flags.last) {
                    (true, true) => lev.oin.overlap(lo, hi, q.st, q.end, skip, sink),
                    (false, true) => lev.oin.st_prefix(lo, hi, q.end, skip, sink),
                    (true, false) => lev.oin.end_filter(lo, hi, q.st, skip, sink),
                    (false, false) => lev.oin.blind(lo, hi, skip, sink),
                }
            }
            let (lo, hi) = lev.oaft.run(f);
            if lo < hi {
                vol += hi - lo;
                if flags.last {
                    lev.oaft.st_prefix(lo, hi, q.end, skip, sink);
                } else {
                    lev.oaft.blind(lo, hi, skip, sink);
                }
            }
            let (lo, hi) = lev.rin.run(f);
            if lo < hi {
                vol += hi - lo;
                if flags.first {
                    lev.rin.end_suffix(lo, hi, q.st, skip, sink);
                } else {
                    lev.rin.blind(lo, hi, skip, sink);
                }
            }
            let (lo, hi) = lev.raft.run(f);
            vol += hi.saturating_sub(lo);
            lev.raft.blind(lo, hi, skip, sink);
        } else {
            // first relevant partition (Lemma 5): only the `in`
            // subdivisions may need the `end >= q.st` test
            let (lo, hi) = lev.oin.run(f);
            if lo < hi {
                vol += hi - lo;
                if flags.first {
                    lev.oin.end_filter(lo, hi, q.st, skip, sink);
                } else {
                    lev.oin.blind(lo, hi, skip, sink);
                }
            }
            let (lo, hi) = lev.rin.run(f);
            if lo < hi {
                vol += hi - lo;
                if flags.first {
                    lev.rin.end_suffix(lo, hi, q.st, skip, sink);
                } else {
                    lev.rin.blind(lo, hi, skip, sink);
                }
            }
            let (lo, hi) = lev.oaft.run(f);
            vol += hi.saturating_sub(lo);
            lev.oaft.blind(lo, hi, skip, sink);
            let (lo, hi) = lev.raft.run(f);
            vol += hi.saturating_sub(lo);
            lev.raft.blind(lo, hi, skip, sink);
            // all middle partitions at once: one contiguous slice per
            // category (originals only; their replicas were counted at
            // the first partition)
            if last > f + 1 {
                let (lo, hi) = lev.oin.span(f + 1, last - 1);
                vol += hi.saturating_sub(lo);
                lev.oin.blind(lo, hi, skip, sink);
                let (lo, hi) = lev.oaft.span(f + 1, last - 1);
                vol += hi.saturating_sub(lo);
                lev.oaft.blind(lo, hi, skip, sink);
            }
            // last relevant partition: originals only, `st <= q.end`
            let (lo, hi) = lev.oin.run(last);
            if lo < hi {
                vol += hi - lo;
                if flags.last {
                    lev.oin.st_prefix(lo, hi, q.end, skip, sink);
                } else {
                    lev.oin.blind(lo, hi, skip, sink);
                }
            }
            let (lo, hi) = lev.oaft.run(last);
            if lo < hi {
                vol += hi - lo;
                if flags.last {
                    lev.oaft.st_prefix(lo, hi, q.end, skip, sink);
                } else {
                    lev.oaft.blind(lo, hi, skip, sink);
                }
            }
        }
        vol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_table_prefix_sums() {
        let s = build_starts(4, [0, 0, 2, 3, 3].into_iter());
        assert_eq!(s, vec![0, 2, 2, 3, 5]);
    }

    #[test]
    fn builder_drops_tombstones_and_sorts_runs() {
        let mut b = SealedBuilder::new(2);
        b.push_oin(2, 1, 7, 30, 40);
        b.push_oin(2, 1, 8, 10, 15);
        b.push_oin(2, 1, TOMBSTONE, 0, 0);
        b.push_raft(1, 0, 3);
        let s = b.finish();
        assert_eq!(s.entries(), 3);
        let lev = &s.levels[2];
        let (lo, hi) = lev.oin.run(1);
        assert_eq!(&lev.oin.ids[lo..hi], &[8, 7]); // sorted by st
        assert_eq!(&lev.oin.st[lo..hi], &[10, 30]);
    }

    #[test]
    fn tombstone_narrows_by_key() {
        let mut b = SealedBuilder::new(1);
        for (id, st) in [(1u64, 5u64), (2, 5), (3, 9)] {
            b.push_oin(1, 0, id, st, st + 1);
        }
        let mut s = b.finish();
        assert!(s.tombstone(1, 0, SubKind::OriginalIn, 2, 5, 6));
        assert!(!s.tombstone(1, 0, SubKind::OriginalIn, 2, 5, 6));
        // id 3 has key 9; looking for it under the wrong key fails
        assert!(!s.tombstone(1, 0, SubKind::OriginalIn, 3, 5, 6));
        assert!(s.tombstone(1, 0, SubKind::OriginalIn, 3, 9, 10));
    }
}
