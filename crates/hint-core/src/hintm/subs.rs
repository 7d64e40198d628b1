//! HINT^m with the §4.1 partition subdivisions.
//!
//! Every partition `P_{l,i}` is divided into four groups (Table 2):
//! `P^{Oin}` (originals ending inside), `P^{Oaft}` (originals ending after),
//! `P^{Rin}` (replicas ending inside), `P^{Raft}` (replicas ending after).
//! Lemmas 5 and 6 then reduce the overlap test to **at most one comparison
//! per interval**, and the `Raft` group never needs any comparison.
//!
//! Two further §4.1 options are configurable to reproduce Figure 11:
//!
//! * **sorting** (§4.1.1, [`SubsConfig::sort`]): `Oin` and `Oaft` are kept
//!   sorted by start point and `Rin` by end point, turning comparison scans
//!   into binary-searched prefix/suffix runs;
//! * **storage optimization** (§4.1.2, [`SubsConfig::sopt`]): each group
//!   stores only the fields that can ever be compared (Table 3):
//!   `Oin: (id, st, end)`, `Oaft: (id, st)`, `Rin: (id, end)`, `Raft: id`.
//!
//! With `sopt` enabled and `sort` disabled this is the paper's
//! *update-friendly* HINT^m used as the delta index of the hybrid setting
//! (§4.4) and in the Table 10 update experiments.

use crate::assign::{for_each_assignment, SubKind};
use crate::domain::Domain;
use crate::hintm::sealed::{SealedBuilder, SealedStore};
use crate::hintm::{CompFlags, PRESIZE_MAX_M};
use crate::interval::{Interval, IntervalId, RangeQuery, Time, TOMBSTONE};
use crate::scan;
use crate::sink::QuerySink;

/// Configuration of the §4.1 options (Figure 11's ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubsConfig {
    /// Keep subdivisions sorted (§4.1.1).
    pub sort: bool,
    /// Store only the necessary endpoint fields per subdivision (§4.1.2).
    pub sopt: bool,
}

impl SubsConfig {
    /// All §4.1 optimizations on (the `subs+sort+sopt` line of Figure 11).
    pub fn full() -> Self {
        Self {
            sort: true,
            sopt: true,
        }
    }

    /// The update-friendly configuration (`subs+sopt`, §4.4 delta index).
    pub fn update_friendly() -> Self {
        Self {
            sort: false,
            sopt: true,
        }
    }
}

impl Default for SubsConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// `Oaft` entry under the storage optimization: end point never needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdSt {
    id: IntervalId,
    st: Time,
}

/// `Rin` entry under the storage optimization: start point never needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdEnd {
    id: IntervalId,
    end: Time,
}

#[derive(Debug, Clone, Default)]
struct PartFull {
    oin: Vec<Interval>,
    oaft: Vec<Interval>,
    rin: Vec<Interval>,
    raft: Vec<Interval>,
}

#[derive(Debug, Clone, Default)]
struct PartOpt {
    oin: Vec<Interval>,
    oaft: Vec<IdSt>,
    rin: Vec<IdEnd>,
    raft: Vec<IntervalId>,
}

#[derive(Debug, Clone)]
enum Storage {
    Full(Vec<Vec<PartFull>>),
    Opt(Vec<Vec<PartOpt>>),
}

/// HINT^m with subdivisions (§4.1), configurable sorting and storage
/// optimization.
///
/// Calling [`HintMSubs::seal`] freezes the current contents into the
/// sealed columnar (CSR) engine: contiguous per-category arenas whose
/// comparison-free runs are bulk-emitted and whose comparison scans walk
/// flat endpoint columns. After sealing, the per-partition storage acts
/// as a small unsealed *overlay* for new inserts; the next `seal()`
/// merges it back in (dropping tombstones). Sealed runs are always kept
/// sorted, independent of [`SubsConfig::sort`].
#[derive(Debug, Clone)]
pub struct HintMSubs {
    domain: Domain,
    cfg: SubsConfig,
    /// Unsealed per-partition storage; after a `seal()` this holds only
    /// the overlay of post-seal updates.
    storage: Storage,
    /// Frozen CSR arenas, present once `seal()` has been called.
    sealed: Option<SealedStore>,
    /// Raw entry count currently in `storage` (assignments, not
    /// intervals); 0 means queries can skip the overlay walk entirely.
    overlay_entries: usize,
    live: usize,
    tombstones: usize,
}

impl HintMSubs {
    /// Builds the index with `m + 1` levels over `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty or the clamped `m` exceeds 26.
    pub fn build(data: &[Interval], m: u32, cfg: SubsConfig) -> Self {
        let domain = Domain::from_data(data, m);
        Self::build_with_domain(data, domain, cfg)
    }

    /// Builds over an explicit domain (for pre-sized update workloads).
    pub fn build_with_domain(data: &[Interval], domain: Domain, cfg: SubsConfig) -> Self {
        let m = domain.m();
        assert!(
            m <= 26,
            "dense per-partition layout limited to m <= 26 (got {m})"
        );
        let mut idx = Self {
            domain,
            cfg,
            storage: Self::empty_storage(cfg, m),
            sealed: None,
            overlay_entries: 0,
            live: 0,
            tombstones: 0,
        };
        idx.reserve_for(data);
        for s in data {
            idx.place(*s);
        }
        idx.live = data.len();
        if cfg.sort {
            idx.sort_all();
        }
        idx.shrink();
        idx
    }

    /// Fresh (empty) per-partition storage for the configured layout.
    fn empty_storage(cfg: SubsConfig, m: u32) -> Storage {
        if cfg.sopt {
            Storage::Opt(
                (0..=m)
                    .map(|l| vec![PartOpt::default(); 1usize << l])
                    .collect(),
            )
        } else {
            Storage::Full(
                (0..=m)
                    .map(|l| vec![PartFull::default(); 1usize << l])
                    .collect(),
            )
        }
    }

    /// Bulk-construction pre-sizing: counts the assignments of `data` per
    /// partition and subdivision, then reserves every `Vec` exactly, so
    /// the placement pass performs no reallocation. Skipped above
    /// [`PRESIZE_MAX_M`], where the counter tables would be too large.
    fn reserve_for(&mut self, data: &[Interval]) {
        let m = self.domain.m();
        if data.is_empty() || m > PRESIZE_MAX_M {
            return;
        }
        // counts[level][offset * 4 + kind]
        let mut counts: Vec<Vec<u32>> = (0..=m).map(|l| vec![0u32; 4usize << l]).collect();
        for s in data {
            let (a, b) = self.domain.map_interval(s);
            for_each_assignment(m, a, b, |asg| {
                counts[asg.level as usize][asg.offset as usize * 4 + asg.kind.slot()] += 1;
            });
        }
        match &mut self.storage {
            Storage::Full(levels) => {
                for (lc, parts) in counts.iter().zip(levels.iter_mut()) {
                    for (off, part) in parts.iter_mut().enumerate() {
                        part.oin.reserve_exact(lc[off * 4] as usize);
                        part.oaft.reserve_exact(lc[off * 4 + 1] as usize);
                        part.rin.reserve_exact(lc[off * 4 + 2] as usize);
                        part.raft.reserve_exact(lc[off * 4 + 3] as usize);
                    }
                }
            }
            Storage::Opt(levels) => {
                for (lc, parts) in counts.iter().zip(levels.iter_mut()) {
                    for (off, part) in parts.iter_mut().enumerate() {
                        part.oin.reserve_exact(lc[off * 4] as usize);
                        part.oaft.reserve_exact(lc[off * 4 + 1] as usize);
                        part.rin.reserve_exact(lc[off * 4 + 2] as usize);
                        part.raft.reserve_exact(lc[off * 4 + 3] as usize);
                    }
                }
            }
        }
    }

    /// Releases growth slack left by `push`-based construction (a no-op
    /// when [`Self::reserve_for`] pre-sized exactly).
    fn shrink(&mut self) {
        match &mut self.storage {
            Storage::Full(levels) => {
                for part in levels.iter_mut().flatten() {
                    part.oin.shrink_to_fit();
                    part.oaft.shrink_to_fit();
                    part.rin.shrink_to_fit();
                    part.raft.shrink_to_fit();
                }
            }
            Storage::Opt(levels) => {
                for part in levels.iter_mut().flatten() {
                    part.oin.shrink_to_fit();
                    part.oaft.shrink_to_fit();
                    part.rin.shrink_to_fit();
                    part.raft.shrink_to_fit();
                }
            }
        }
    }

    /// Routes one interval to its partitions (no sorting).
    fn place(&mut self, s: Interval) {
        let (a, b) = self.domain.map_interval(&s);
        let m = self.domain.m();
        let mut added = 0usize;
        match &mut self.storage {
            Storage::Full(levels) => {
                for_each_assignment(m, a, b, |asg| {
                    added += 1;
                    let part = &mut levels[asg.level as usize][asg.offset as usize];
                    match asg.kind {
                        SubKind::OriginalIn => part.oin.push(s),
                        SubKind::OriginalAft => part.oaft.push(s),
                        SubKind::ReplicaIn => part.rin.push(s),
                        SubKind::ReplicaAft => part.raft.push(s),
                    }
                });
            }
            Storage::Opt(levels) => {
                for_each_assignment(m, a, b, |asg| {
                    added += 1;
                    let part = &mut levels[asg.level as usize][asg.offset as usize];
                    match asg.kind {
                        SubKind::OriginalIn => part.oin.push(s),
                        SubKind::OriginalAft => part.oaft.push(IdSt { id: s.id, st: s.st }),
                        SubKind::ReplicaIn => part.rin.push(IdEnd {
                            id: s.id,
                            end: s.end,
                        }),
                        SubKind::ReplicaAft => part.raft.push(s.id),
                    }
                });
            }
        }
        self.overlay_entries += added;
    }

    fn sort_all(&mut self) {
        match &mut self.storage {
            Storage::Full(levels) => {
                for part in levels.iter_mut().flatten() {
                    part.oin.sort_unstable_by_key(|s| s.st);
                    part.oaft.sort_unstable_by_key(|s| s.st);
                    part.rin.sort_unstable_by_key(|s| s.end);
                }
            }
            Storage::Opt(levels) => {
                for part in levels.iter_mut().flatten() {
                    part.oin.sort_unstable_by_key(|s| s.st);
                    part.oaft.sort_unstable_by_key(|s| s.st);
                    part.rin.sort_unstable_by_key(|s| s.end);
                }
            }
        }
    }

    /// The index domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> SubsConfig {
        self.cfg
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live intervals remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Evaluates a range query (Algorithm 3 + Lemmas 5/6), pushing result
    /// ids into `out`.
    pub fn query(&self, q: RangeQuery, out: &mut Vec<IntervalId>) {
        self.query_sink(q, out)
    }

    /// Evaluates a range query into an arbitrary sink; the partition walk
    /// stops once the sink is saturated. When the index is sealed, the
    /// CSR arenas are walked first and the (possibly empty) unsealed
    /// overlay second.
    pub fn query_sink<S: QuerySink + ?Sized>(&self, q: RangeQuery, sink: &mut S) {
        if !self.domain.intersects(&q) {
            return;
        }
        if let Some(sealed) = &self.sealed {
            sealed.query_sink(&self.domain, q, self.tombstones > 0, sink);
            if self.overlay_entries == 0 || sink.is_saturated() {
                return;
            }
        }
        match &self.storage {
            Storage::Full(levels) => self.run(levels, q, sink, FullView),
            Storage::Opt(levels) => self.run(levels, q, sink, OptView),
        }
    }

    /// Evaluates a batch of queries, one sink per query. On a fully
    /// sealed index (no overlay) the batch shares one arena walk per
    /// level — queries are sorted by first relevant partition so the
    /// offset tables and data columns stay hot in cache; otherwise it
    /// falls back to independent [`Self::query_sink`] calls. Either way
    /// each sink receives exactly what a solo `query_sink` would emit.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch(&self, queries: &[RangeQuery], sinks: &mut [&mut dyn QuerySink]) {
        self.query_batch_sinks(queries, sinks, false)
    }

    /// Statically-dispatched spelling of [`Self::query_batch`]: the sink
    /// type is a monomorphization parameter, so the sealed shared walk —
    /// regime dispatch, saturation polls, emissions, the zero-copy
    /// `wants_arenas` check — compiles with no per-result vtable call.
    /// `presorted` declares the caller already ordered the batch by query
    /// start (the sharded planning pass), skipping the sealed walk's
    /// own locality sort; it never affects results.
    ///
    /// # Panics
    /// Panics if `queries` and `sinks` have different lengths.
    pub fn query_batch_sinks<S: QuerySink + ?Sized>(
        &self,
        queries: &[RangeQuery],
        sinks: &mut [&mut S],
        presorted: bool,
    ) {
        assert_eq!(queries.len(), sinks.len(), "one sink per query");
        match &self.sealed {
            Some(sealed) if self.overlay_entries == 0 => {
                sealed.query_batch(&self.domain, queries, self.tombstones > 0, sinks, presorted)
            }
            _ => {
                for (q, sink) in queries.iter().zip(sinks.iter_mut()) {
                    self.query_sink(*q, &mut **sink);
                }
            }
        }
    }

    /// Freezes the index into the sealed columnar (CSR) engine: current
    /// sealed arenas (if any) and the unsealed per-partition storage are
    /// merged into fresh contiguous per-category arenas, dropping all
    /// tombstones, and the per-partition storage is reset to an empty
    /// overlay for subsequent updates. Queries over sealed storage
    /// bulk-emit comparison-free runs and binary-search sorted flat
    /// columns regardless of [`SubsConfig::sort`].
    pub fn seal(&mut self) {
        if self.sealed.is_some() && self.overlay_entries == 0 && self.tombstones == 0 {
            // idempotent fast path: no overlay writes and no tombstones
            // since the last seal, so the arenas are already canonical —
            // resealing a clean index is free (this is what makes
            // resealing a sharded index after localized writes cost
            // O(dirty shard) instead of O(n))
            return;
        }
        let m = self.domain.m();
        let mut b = SealedBuilder::new(m);
        if let Some(sealed) = &self.sealed {
            sealed.drain_into(&mut b);
        }
        match &self.storage {
            Storage::Full(levels) => {
                for (l, parts) in levels.iter().enumerate() {
                    let l = l as u32;
                    for (off, p) in parts.iter().enumerate() {
                        let off = off as u64;
                        for e in &p.oin {
                            b.push_oin(l, off, e.id, e.st, e.end);
                        }
                        for e in &p.oaft {
                            b.push_oaft(l, off, e.id, e.st);
                        }
                        for e in &p.rin {
                            b.push_rin(l, off, e.id, e.end);
                        }
                        for e in &p.raft {
                            b.push_raft(l, off, e.id);
                        }
                    }
                }
            }
            Storage::Opt(levels) => {
                for (l, parts) in levels.iter().enumerate() {
                    let l = l as u32;
                    for (off, p) in parts.iter().enumerate() {
                        let off = off as u64;
                        for e in &p.oin {
                            b.push_oin(l, off, e.id, e.st, e.end);
                        }
                        for e in &p.oaft {
                            b.push_oaft(l, off, e.id, e.st);
                        }
                        for e in &p.rin {
                            b.push_rin(l, off, e.id, e.end);
                        }
                        for &id in &p.raft {
                            b.push_raft(l, off, id);
                        }
                    }
                }
            }
        }
        self.sealed = Some(b.finish());
        self.storage = Self::empty_storage(self.cfg, m);
        self.overlay_entries = 0;
        self.tombstones = 0;
    }

    /// True once [`Self::seal`] has been called.
    pub fn is_sealed(&self) -> bool {
        self.sealed.is_some()
    }

    /// Raw entry count in the unsealed overlay (0 on a freshly sealed
    /// index).
    pub fn overlay_entries(&self) -> usize {
        self.overlay_entries
    }

    /// The frozen CSR arenas, if sealed — the snapshot writer reads the
    /// raw columns through this.
    pub(crate) fn sealed_store(&self) -> Option<&SealedStore> {
        self.sealed.as_ref()
    }

    /// Number of logically deleted entries still buried in the sealed
    /// arenas (0 on a freshly sealed index). The snapshot writer refuses
    /// anything nonzero: snapshots capture only the clean post-seal
    /// state.
    pub(crate) fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Reconstructs an index directly from restored sealed arenas (the
    /// snapshot restore path): empty overlay, no tombstones, live count
    /// recomputed from the arenas themselves. The store must have been
    /// validated (`SealedStore::from_columns`) and must carry exactly
    /// one `Original*` assignment per live interval — true of every
    /// freshly sealed index, which is the only state snapshots capture.
    pub(crate) fn from_sealed(domain: Domain, cfg: SubsConfig, sealed: SealedStore) -> Self {
        let m = domain.m();
        debug_assert_eq!(m, sealed.m(), "sealed store depth mismatch");
        // every live interval contributes exactly one Oin or Oaft entry
        let live = (0..=m)
            .map(|l| {
                sealed.category_columns(l, SubKind::OriginalIn).ids.len()
                    + sealed.category_columns(l, SubKind::OriginalAft).ids.len()
            })
            .sum();
        Self {
            domain,
            cfg,
            storage: Self::empty_storage(cfg, m),
            sealed: Some(sealed),
            overlay_entries: 0,
            live,
            tombstones: 0,
        }
    }

    /// Convenience: stabbing query.
    pub fn stab(&self, t: Time, out: &mut Vec<IntervalId>) {
        self.query(RangeQuery::stab(t), out)
    }

    /// Reconstructs the live interval set `(id, st, end)` from the index's
    /// own storage (sealed arenas plus unsealed overlay), in no particular
    /// order — the substrate for snapshotting.
    ///
    /// Every interval has exactly one `Original*` assignment (carrying its
    /// start) and exactly one *ends-inside* assignment (carrying its end);
    /// an `Oin` original carries both, while an `Oaft` original's end is
    /// recovered from its unique `Rin` replica. All assignments of one
    /// interval live in the same store generation (inserts go wholly to
    /// the overlay, seals move them wholly into the arenas), so the join
    /// never straddles the two.
    pub fn intervals(&self) -> Vec<Interval> {
        let mut out = Vec::with_capacity(self.live);
        let mut await_end: Vec<(IntervalId, Time)> = Vec::new();
        let mut end_of: Vec<(IntervalId, Time)> = Vec::new();
        if let Some(sealed) = &self.sealed {
            sealed.collect_live(&mut out, &mut await_end, &mut end_of);
        }
        match &self.storage {
            Storage::Full(levels) => {
                // the full layout stores complete intervals everywhere:
                // the originals alone are the live set
                for p in levels.iter().flatten() {
                    for e in p.oin.iter().chain(&p.oaft) {
                        if e.id != TOMBSTONE {
                            out.push(*e);
                        }
                    }
                }
            }
            Storage::Opt(levels) => {
                for p in levels.iter().flatten() {
                    for e in &p.oin {
                        if e.id != TOMBSTONE {
                            out.push(*e);
                        }
                    }
                    for e in &p.oaft {
                        if e.id != TOMBSTONE {
                            await_end.push((e.id, e.st));
                        }
                    }
                    for e in &p.rin {
                        if e.id != TOMBSTONE {
                            end_of.push((e.id, e.end));
                        }
                    }
                }
            }
        }
        if !await_end.is_empty() {
            let ends: std::collections::HashMap<IntervalId, Time> = end_of.into_iter().collect();
            for (id, st) in await_end {
                let end = ends
                    .get(&id)
                    .copied()
                    .expect("Oaft original without its Rin ends-inside twin");
                out.push(Interval { id, st, end });
            }
        }
        debug_assert_eq!(
            out.len(),
            self.live,
            "reconstructed set drifted from live count"
        );
        out
    }

    /// Level/partition walk shared by both storage layouts.
    fn run<P, V: PartView<P>, S: QuerySink + ?Sized>(
        &self,
        levels: &[Vec<P>],
        q: RangeQuery,
        sink: &mut S,
        view: V,
    ) {
        let (qst, qend) = self.domain.map_query(&q);
        let m = self.domain.m();
        let sort = self.cfg.sort;
        let skip = self.tombstones > 0;
        let mut flags = CompFlags::new();
        for l in (0..=m).rev() {
            if sink.is_saturated() {
                return;
            }
            let f = self.domain.prefix(l, qst);
            let last = self.domain.prefix(l, qend);
            if f == last {
                view.single(&levels[l as usize][f as usize], &q, flags, sort, skip, sink);
            } else {
                view.first(&levels[l as usize][f as usize], &q, flags, sort, skip, sink);
                let parts = &levels[l as usize];
                for off in f + 1..last {
                    if sink.is_saturated() {
                        return;
                    }
                    view.middle(&parts[off as usize], skip, sink);
                }
                view.last(&parts[last as usize], &q, flags, sort, skip, sink);
            }
            flags.update(f, last);
        }
    }

    /// Inserts an interval (Algorithm 1; sorted insertion when the index
    /// keeps subdivisions sorted).
    ///
    /// # Panics
    /// Panics if the endpoints fall outside the fixed index domain.
    pub fn insert(&mut self, s: Interval) {
        assert!(
            s.st >= self.domain.min() && s.end <= self.domain.max(),
            "interval outside index domain"
        );
        let (a, b) = self.domain.map_interval(&s);
        let m = self.domain.m();
        let sort = self.cfg.sort;
        let mut added = 0usize;
        match &mut self.storage {
            Storage::Full(levels) => {
                for_each_assignment(m, a, b, |asg| {
                    added += 1;
                    let part = &mut levels[asg.level as usize][asg.offset as usize];
                    match asg.kind {
                        SubKind::OriginalIn => insert_by(&mut part.oin, s, sort, |x| x.st),
                        SubKind::OriginalAft => insert_by(&mut part.oaft, s, sort, |x| x.st),
                        SubKind::ReplicaIn => insert_by(&mut part.rin, s, sort, |x| x.end),
                        SubKind::ReplicaAft => part.raft.push(s),
                    }
                });
            }
            Storage::Opt(levels) => {
                for_each_assignment(m, a, b, |asg| {
                    added += 1;
                    let part = &mut levels[asg.level as usize][asg.offset as usize];
                    match asg.kind {
                        SubKind::OriginalIn => insert_by(&mut part.oin, s, sort, |x| x.st),
                        SubKind::OriginalAft => {
                            insert_by(&mut part.oaft, IdSt { id: s.id, st: s.st }, sort, |x| x.st)
                        }
                        SubKind::ReplicaIn => insert_by(
                            &mut part.rin,
                            IdEnd {
                                id: s.id,
                                end: s.end,
                            },
                            sort,
                            |x| x.end,
                        ),
                        SubKind::ReplicaAft => part.raft.push(s.id),
                    }
                });
            }
        }
        self.overlay_entries += added;
        self.live += 1;
    }

    /// Logically deletes an interval via tombstones. The caller passes the
    /// endpoints the interval was inserted with. Returns true if found.
    ///
    /// Each assignment scans only the subdivision its kind implies, and
    /// when that group is kept sorted the scan is short-circuited to the
    /// equal-key run located by binary search on the endpoint the group
    /// is ordered by (the same assignment rule insertion uses). On a
    /// sealed index the overlay is probed first, then the CSR arenas.
    pub fn delete(&mut self, s: &Interval) -> bool {
        let (a, b) = self.domain.map_interval(s);
        let m = self.domain.m();
        let sort = self.cfg.sort;
        let mut found = false;
        let sealed = &mut self.sealed;
        match &mut self.storage {
            Storage::Full(levels) => {
                for_each_assignment(m, a, b, |asg| {
                    let part = &mut levels[asg.level as usize][asg.offset as usize];
                    let hit = match asg.kind {
                        SubKind::OriginalIn => {
                            tomb(&mut part.oin, s.id, |x| &mut x.id, sort, s.st, |x| x.st)
                        }
                        SubKind::OriginalAft => {
                            tomb(&mut part.oaft, s.id, |x| &mut x.id, sort, s.st, |x| x.st)
                        }
                        SubKind::ReplicaIn => {
                            tomb(&mut part.rin, s.id, |x| &mut x.id, sort, s.end, |x| x.end)
                        }
                        SubKind::ReplicaAft => {
                            tomb(&mut part.raft, s.id, |x| &mut x.id, false, 0, |x| x.st)
                        }
                    };
                    let hit = hit
                        || sealed.as_mut().is_some_and(|sl| {
                            sl.tombstone(asg.level, asg.offset, asg.kind, s.id, s.st, s.end)
                        });
                    found |= hit;
                });
            }
            Storage::Opt(levels) => {
                for_each_assignment(m, a, b, |asg| {
                    let part = &mut levels[asg.level as usize][asg.offset as usize];
                    let hit = match asg.kind {
                        SubKind::OriginalIn => {
                            tomb(&mut part.oin, s.id, |x| &mut x.id, sort, s.st, |x| x.st)
                        }
                        SubKind::OriginalAft => {
                            tomb(&mut part.oaft, s.id, |x| &mut x.id, sort, s.st, |x| x.st)
                        }
                        SubKind::ReplicaIn => {
                            tomb(&mut part.rin, s.id, |x| &mut x.id, sort, s.end, |x| x.end)
                        }
                        SubKind::ReplicaAft => {
                            let mut hit = false;
                            for slot in part.raft.iter_mut() {
                                if *slot == s.id {
                                    *slot = TOMBSTONE;
                                    hit = true;
                                    break;
                                }
                            }
                            hit
                        }
                    };
                    let hit = hit
                        || sealed.as_mut().is_some_and(|sl| {
                            sl.tombstone(asg.level, asg.offset, asg.kind, s.id, s.st, s.end)
                        });
                    found |= hit;
                });
            }
        }
        if found {
            self.live -= 1;
            self.tombstones += 1;
        }
        found
    }

    /// Approximate heap footprint in bytes — the quantity Figure 11 plots.
    pub fn size_bytes(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.size_bytes()) + self.storage_bytes()
    }

    fn storage_bytes(&self) -> usize {
        match &self.storage {
            Storage::Full(levels) => {
                let mut total = 0;
                for parts in levels {
                    total += parts.len() * std::mem::size_of::<PartFull>();
                    for p in parts {
                        total += (p.oin.len() + p.oaft.len() + p.rin.len() + p.raft.len())
                            * std::mem::size_of::<Interval>();
                    }
                }
                total
            }
            Storage::Opt(levels) => {
                let mut total = 0;
                for parts in levels {
                    total += parts.len() * std::mem::size_of::<PartOpt>();
                    for p in parts {
                        total += p.oin.len() * std::mem::size_of::<Interval>()
                            + p.oaft.len() * std::mem::size_of::<IdSt>()
                            + p.rin.len() * std::mem::size_of::<IdEnd>()
                            + p.raft.len() * std::mem::size_of::<IntervalId>();
                    }
                }
                total
            }
        }
    }

    /// Total stored entries (for the replication factor `k`).
    pub fn entries(&self) -> usize {
        let sealed = self.sealed.as_ref().map_or(0, |s| s.entries());
        sealed
            + match &self.storage {
                Storage::Full(levels) => levels
                    .iter()
                    .flatten()
                    .map(|p| p.oin.len() + p.oaft.len() + p.rin.len() + p.raft.len())
                    .sum::<usize>(),
                Storage::Opt(levels) => levels
                    .iter()
                    .flatten()
                    .map(|p| p.oin.len() + p.oaft.len() + p.rin.len() + p.raft.len())
                    .sum::<usize>(),
            }
    }
}

fn insert_by<T: Copy, K: Fn(&T) -> Time>(v: &mut Vec<T>, x: T, sort: bool, key: K) {
    if sort {
        let k = key(&x);
        let pos = v.partition_point(|e| key(e) <= k);
        v.insert(pos, x);
    } else {
        v.push(x);
    }
}

/// Tombstones the first entry with `id`. When the run is `sorted` by the
/// endpoint `keyf` extracts, the scan is narrowed by binary search to the
/// entries whose key equals `key` (tombstoning preserves keys, so the
/// ordering invariant survives deletions).
fn tomb<T>(
    v: &mut [T],
    id: IntervalId,
    idf: impl Fn(&mut T) -> &mut IntervalId,
    sorted: bool,
    key: Time,
    keyf: impl Fn(&T) -> Time,
) -> bool {
    let (lo, hi) = if sorted {
        (
            v.partition_point(|e| keyf(e) < key),
            v.partition_point(|e| keyf(e) <= key),
        )
    } else {
        (0, v.len())
    };
    for slot in &mut v[lo..hi] {
        let slot_id = idf(slot);
        if *slot_id == id {
            *slot_id = TOMBSTONE;
            return true;
        }
    }
    false
}

/// Reporting logic per partition role, abstracted over the two storage
/// layouts. Methods are `#[inline]`-heavy; monomorphization gives each
/// layout/sink pair its own straight-line code with no dynamic dispatch.
/// The comparison regimes themselves live in [`crate::scan`], shared with
/// the other HINT variants.
trait PartView<P>: Copy {
    fn single<S: QuerySink + ?Sized>(
        &self,
        p: &P,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    );
    fn first<S: QuerySink + ?Sized>(
        &self,
        p: &P,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    );
    fn middle<S: QuerySink + ?Sized>(&self, p: &P, skip: bool, sink: &mut S);
    fn last<S: QuerySink + ?Sized>(
        &self,
        p: &P,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    );
}

#[derive(Clone, Copy)]
struct FullView;

impl PartView<PartFull> for FullView {
    #[inline]
    fn single<S: QuerySink + ?Sized>(
        &self,
        p: &PartFull,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    ) {
        // Lemma 6, gated by the Lemma-2 flags.
        match (flags.first, flags.last) {
            (true, true) => {
                scan::emit_overlap(
                    &p.oin,
                    q.st,
                    q.end,
                    sort,
                    skip,
                    |e| e.st,
                    |e| e.end,
                    |e| e.id,
                    sink,
                );
                scan::emit_st_prefix(&p.oaft, q.end, sort, skip, |e| e.st, |e| e.id, sink);
                scan::emit_end_suffix(&p.rin, q.st, sort, skip, |e| e.end, |e| e.id, sink);
            }
            (false, true) => {
                scan::emit_st_prefix(&p.oin, q.end, sort, skip, |e| e.st, |e| e.id, sink);
                scan::emit_st_prefix(&p.oaft, q.end, sort, skip, |e| e.st, |e| e.id, sink);
                scan::emit_all(&p.rin, skip, |e| e.id, sink);
            }
            (true, false) => {
                scan::emit_end_suffix(&p.rin, q.st, sort, skip, |e| e.end, |e| e.id, sink);
                scan::emit_end_suffix(&p.oin, q.st, false, skip, |e| e.end, |e| e.id, sink);
                scan::emit_all(&p.oaft, skip, |e| e.id, sink);
            }
            (false, false) => {
                scan::emit_all(&p.oin, skip, |e| e.id, sink);
                scan::emit_all(&p.oaft, skip, |e| e.id, sink);
                scan::emit_all(&p.rin, skip, |e| e.id, sink);
            }
        }
        scan::emit_all(&p.raft, skip, |e| e.id, sink);
    }

    #[inline]
    fn first<S: QuerySink + ?Sized>(
        &self,
        p: &PartFull,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    ) {
        // Lemma 5: only the `in` subdivisions may need `s.end >= q.st`.
        if flags.first {
            scan::emit_end_suffix(&p.oin, q.st, false, skip, |e| e.end, |e| e.id, sink);
            scan::emit_end_suffix(&p.rin, q.st, sort, skip, |e| e.end, |e| e.id, sink);
        } else {
            scan::emit_all(&p.oin, skip, |e| e.id, sink);
            scan::emit_all(&p.rin, skip, |e| e.id, sink);
        }
        scan::emit_all(&p.oaft, skip, |e| e.id, sink);
        scan::emit_all(&p.raft, skip, |e| e.id, sink);
    }

    #[inline]
    fn middle<S: QuerySink + ?Sized>(&self, p: &PartFull, skip: bool, sink: &mut S) {
        scan::emit_all(&p.oin, skip, |e| e.id, sink);
        scan::emit_all(&p.oaft, skip, |e| e.id, sink);
    }

    #[inline]
    fn last<S: QuerySink + ?Sized>(
        &self,
        p: &PartFull,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    ) {
        if flags.last {
            scan::emit_st_prefix(&p.oin, q.end, sort, skip, |e| e.st, |e| e.id, sink);
            scan::emit_st_prefix(&p.oaft, q.end, sort, skip, |e| e.st, |e| e.id, sink);
        } else {
            scan::emit_all(&p.oin, skip, |e| e.id, sink);
            scan::emit_all(&p.oaft, skip, |e| e.id, sink);
        }
    }
}

#[derive(Clone, Copy)]
struct OptView;

impl PartView<PartOpt> for OptView {
    #[inline]
    fn single<S: QuerySink + ?Sized>(
        &self,
        p: &PartOpt,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    ) {
        match (flags.first, flags.last) {
            (true, true) => {
                scan::emit_overlap(
                    &p.oin,
                    q.st,
                    q.end,
                    sort,
                    skip,
                    |e| e.st,
                    |e| e.end,
                    |e| e.id,
                    sink,
                );
                scan::emit_st_prefix(&p.oaft, q.end, sort, skip, |e| e.st, |e| e.id, sink);
                scan::emit_end_suffix(&p.rin, q.st, sort, skip, |e| e.end, |e| e.id, sink);
            }
            (false, true) => {
                scan::emit_st_prefix(&p.oin, q.end, sort, skip, |e| e.st, |e| e.id, sink);
                scan::emit_st_prefix(&p.oaft, q.end, sort, skip, |e| e.st, |e| e.id, sink);
                scan::emit_all(&p.rin, skip, |e| e.id, sink);
            }
            (true, false) => {
                scan::emit_end_suffix(&p.rin, q.st, sort, skip, |e| e.end, |e| e.id, sink);
                scan::emit_end_suffix(&p.oin, q.st, false, skip, |e| e.end, |e| e.id, sink);
                scan::emit_all(&p.oaft, skip, |e| e.id, sink);
            }
            (false, false) => {
                scan::emit_all(&p.oin, skip, |e| e.id, sink);
                scan::emit_all(&p.oaft, skip, |e| e.id, sink);
                scan::emit_all(&p.rin, skip, |e| e.id, sink);
            }
        }
        scan::emit_ids(&p.raft, skip, sink);
    }

    #[inline]
    fn first<S: QuerySink + ?Sized>(
        &self,
        p: &PartOpt,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    ) {
        if flags.first {
            scan::emit_end_suffix(&p.oin, q.st, false, skip, |e| e.end, |e| e.id, sink);
            scan::emit_end_suffix(&p.rin, q.st, sort, skip, |e| e.end, |e| e.id, sink);
        } else {
            scan::emit_all(&p.oin, skip, |e| e.id, sink);
            scan::emit_all(&p.rin, skip, |e| e.id, sink);
        }
        scan::emit_all(&p.oaft, skip, |e| e.id, sink);
        scan::emit_ids(&p.raft, skip, sink);
    }

    #[inline]
    fn middle<S: QuerySink + ?Sized>(&self, p: &PartOpt, skip: bool, sink: &mut S) {
        scan::emit_all(&p.oin, skip, |e| e.id, sink);
        scan::emit_all(&p.oaft, skip, |e| e.id, sink);
    }

    #[inline]
    fn last<S: QuerySink + ?Sized>(
        &self,
        p: &PartOpt,
        q: &RangeQuery,
        flags: CompFlags,
        sort: bool,
        skip: bool,
        sink: &mut S,
    ) {
        if flags.last {
            scan::emit_st_prefix(&p.oin, q.end, sort, skip, |e| e.st, |e| e.id, sink);
            scan::emit_st_prefix(&p.oaft, q.end, sort, skip, |e| e.st, |e| e.id, sink);
        } else {
            scan::emit_all(&p.oin, skip, |e| e.id, sink);
            scan::emit_all(&p.oaft, skip, |e| e.id, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanOracle;

    fn sorted(mut v: Vec<IntervalId>) -> Vec<IntervalId> {
        v.sort_unstable();
        v
    }

    fn lcg_data(n: u64, dom: u64, max_len: u64, seed: u64) -> Vec<Interval> {
        let mut x = seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        (0..n)
            .map(|i| {
                let st = next() % dom;
                let len = next() % max_len;
                Interval::new(i, st, (st + len).min(dom - 1).max(st))
            })
            .collect()
    }

    fn all_configs() -> [SubsConfig; 4] {
        [
            SubsConfig {
                sort: false,
                sopt: false,
            },
            SubsConfig {
                sort: true,
                sopt: false,
            },
            SubsConfig {
                sort: false,
                sopt: true,
            },
            SubsConfig {
                sort: true,
                sopt: true,
            },
        ]
    }

    #[test]
    fn all_configs_match_oracle() {
        let data = lcg_data(400, 100_000, 9_000, 21);
        let oracle = ScanOracle::new(&data);
        for cfg in all_configs() {
            for m in [4, 8, 12] {
                let idx = HintMSubs::build(&data, m, cfg);
                let mut x = 5u64;
                for _ in 0..300 {
                    x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    let st = (x >> 17) % 100_000;
                    let end = (st + (x >> 9) % 12_000).min(99_999);
                    let q = RangeQuery::new(st, end);
                    let mut got = Vec::new();
                    idx.query(q, &mut got);
                    assert_eq!(sorted(got), oracle.query_sorted(q), "{cfg:?} m={m} {q:?}");
                }
            }
        }
    }

    /// `intervals()` must reconstruct the exact live set — across every
    /// storage layout and a spread of depths, sealed and unsealed, with
    /// post-seal overlay writes and tombstones in both generations — and
    /// an index rebuilt from that set answers every query exactly.
    #[test]
    fn intervals_reconstructs_the_live_set() {
        let data = lcg_data(300, 50_000, 6_000, 33);
        for cfg in all_configs() {
            for m in [1, 4, 9, 14] {
                let mut idx = HintMSubs::build_with_domain(&data, Domain::new(0, 49_999, m), cfg);
                let mut want: Vec<Interval> = data.clone();
                let check = |idx: &HintMSubs, want: &[Interval], what: &str| {
                    let mut got = idx.intervals();
                    got.sort_unstable_by_key(|s| s.id);
                    let mut want = want.to_vec();
                    want.sort_unstable_by_key(|s| s.id);
                    assert_eq!(got, want, "{cfg:?} m={m}: {what}");
                };
                check(&idx, &want, "fresh build");
                // delete a few pre-seal (tombstones in unsealed storage)
                for victim in [7usize, 100, 250] {
                    let s = data[victim];
                    assert!(idx.delete(&s));
                    want.retain(|x| x.id != s.id);
                }
                check(&idx, &want, "unsealed with tombstones");
                idx.seal();
                check(&idx, &want, "sealed");
                // post-seal inserts land in the overlay; deletes
                // tombstone both the arenas and the overlay
                for i in 0..20u64 {
                    let s = Interval::new(10_000 + i, (i * 997) % 49_000, (i * 997) % 49_000 + 800);
                    idx.insert(s);
                    want.push(s);
                }
                let sealed_victim = data[42];
                assert!(idx.delete(&sealed_victim));
                want.retain(|x| x.id != sealed_victim.id);
                let overlay_victim = Interval::new(10_003, 3 * 997, 3 * 997 + 800);
                assert!(idx.delete(&overlay_victim));
                want.retain(|x| x.id != overlay_victim.id);
                check(&idx, &want, "sealed + overlay + mixed tombstones");
                idx.seal();
                check(&idx, &want, "resealed");
                let mut rebuilt =
                    HintMSubs::build_with_domain(&idx.intervals(), *idx.domain(), cfg);
                check(&rebuilt, &want, "rebuilt from intervals()");
                rebuilt.seal();
                let oracle = ScanOracle::new(&want);
                for st in (0..50_000).step_by(4_999) {
                    let q = RangeQuery::new(st, (st + 7_000).min(49_999));
                    let mut got = Vec::new();
                    rebuilt.query(q, &mut got);
                    assert_eq!(sorted(got), oracle.query_sorted(q), "{cfg:?} m={m} {q:?}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_small_domain() {
        let data = lcg_data(120, 64, 20, 9);
        let oracle = ScanOracle::new(&data);
        for cfg in all_configs() {
            let idx = HintMSubs::build(&data, 6, cfg);
            for st in 0..64u64 {
                for end in st..64 {
                    let q = RangeQuery::new(st, end);
                    let mut got = Vec::new();
                    idx.query(q, &mut got);
                    assert_eq!(sorted(got), oracle.query_sorted(q), "{cfg:?} {q:?}");
                }
            }
        }
    }

    #[test]
    fn stabbing_matches_oracle() {
        let data = lcg_data(250, 4096, 300, 17);
        let oracle = ScanOracle::new(&data);
        let idx = HintMSubs::build(&data, 9, SubsConfig::full());
        for t in (0..4096).step_by(13) {
            let mut got = Vec::new();
            idx.stab(t, &mut got);
            assert_eq!(sorted(got), oracle.query_sorted(RangeQuery::stab(t)));
        }
    }

    #[test]
    fn sopt_shrinks_the_index() {
        let data = lcg_data(3000, 1 << 20, 1 << 16, 33);
        let full = HintMSubs::build(
            &data,
            10,
            SubsConfig {
                sort: true,
                sopt: false,
            },
        );
        let opt = HintMSubs::build(
            &data,
            10,
            SubsConfig {
                sort: true,
                sopt: true,
            },
        );
        assert!(
            opt.size_bytes() < full.size_bytes(),
            "sopt {} vs full {}",
            opt.size_bytes(),
            full.size_bytes()
        );
        assert_eq!(opt.entries(), full.entries());
    }

    #[test]
    fn updates_match_oracle() {
        let mut data = lcg_data(150, 2048, 100, 29);
        for cfg in all_configs() {
            let mut idx =
                HintMSubs::build_with_domain(&data, crate::domain::Domain::new(0, 2047, 8), cfg);
            let mut oracle = ScanOracle::new(&data);
            for i in 0..60u64 {
                let st = (i * 31) % 2000;
                let s = Interval::new(5000 + i, st, st + (i % 40));
                idx.insert(s);
                oracle.insert(s);
            }
            let snapshot: Vec<Interval> = data.to_vec();
            for s in snapshot.iter().filter(|s| s.id % 4 == 0) {
                assert_eq!(idx.delete(s), oracle.delete(s.id), "{cfg:?} {s:?}");
            }
            for st in (0..2048u64).step_by(41) {
                let q = RangeQuery::new(st, (st + 90).min(2047));
                let mut got = Vec::new();
                idx.query(q, &mut got);
                assert_eq!(sorted(got), oracle.query_sorted(q), "{cfg:?} {q:?}");
            }
        }
        data.truncate(data.len()); // silence unused-mut lint paranoia
    }

    #[test]
    fn sealed_matches_unsealed_and_oracle() {
        let data = lcg_data(400, 100_000, 9_000, 21);
        let oracle = ScanOracle::new(&data);
        for cfg in all_configs() {
            let unsealed = HintMSubs::build(&data, 10, cfg);
            let mut sealed = unsealed.clone();
            sealed.seal();
            assert!(sealed.is_sealed());
            assert_eq!(sealed.overlay_entries(), 0);
            assert_eq!(sealed.entries(), unsealed.entries());
            assert_eq!(sealed.len(), unsealed.len());
            let mut x = 5u64;
            for _ in 0..200 {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let st = (x >> 17) % 100_000;
                let end = (st + (x >> 9) % 12_000).min(99_999);
                let q = RangeQuery::new(st, end);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                unsealed.query(q, &mut a);
                sealed.query(q, &mut b);
                assert_eq!(sorted(a), oracle.query_sorted(q), "{cfg:?} unsealed {q:?}");
                assert_eq!(sorted(b), oracle.query_sorted(q), "{cfg:?} sealed {q:?}");
            }
        }
    }

    #[test]
    fn reseal_cycles_with_updates_match_oracle() {
        let data = lcg_data(150, 2048, 100, 29);
        let domain = crate::domain::Domain::new(0, 2047, 8);
        for cfg in all_configs() {
            let mut idx = HintMSubs::build_with_domain(&data, domain, cfg);
            let mut oracle = ScanOracle::new(&data);
            idx.seal();
            // mixed overlay: new inserts, deletes of sealed and overlay
            // records
            for i in 0..60u64 {
                let st = (i * 31) % 2000;
                let s = Interval::new(5000 + i, st, st + (i % 40));
                idx.insert(s);
                oracle.insert(s);
            }
            assert!(idx.overlay_entries() > 0);
            for s in data.iter().filter(|s| s.id % 4 == 0) {
                assert_eq!(idx.delete(s), oracle.delete(s.id), "{cfg:?} sealed del");
            }
            for i in (0..60u64).filter(|i| i % 3 == 0) {
                let st = (i * 31) % 2000;
                let s = Interval::new(5000 + i, st, st + (i % 40));
                assert_eq!(idx.delete(&s), oracle.delete(s.id), "{cfg:?} overlay del");
            }
            let check = |idx: &HintMSubs, oracle: &ScanOracle, tag: &str| {
                for st in (0..2048u64).step_by(41) {
                    let q = RangeQuery::new(st, (st + 90).min(2047));
                    let mut got = Vec::new();
                    idx.query(q, &mut got);
                    assert_eq!(sorted(got), oracle.query_sorted(q), "{cfg:?} {tag} {q:?}");
                }
            };
            check(&idx, &oracle, "before reseal");
            let live = idx.len();
            idx.seal();
            assert_eq!(idx.overlay_entries(), 0);
            assert_eq!(idx.len(), live);
            check(&idx, &oracle, "after reseal");
            // keep updating after the reseal
            for i in 0..20u64 {
                let s = Interval::new(9000 + i, i * 13, i * 13 + 7);
                idx.insert(s);
                oracle.insert(s);
            }
            check(&idx, &oracle, "post-reseal inserts");
        }
    }

    #[test]
    fn query_batch_bit_identical_to_solo() {
        let data = lcg_data(300, 1 << 14, 2000, 7);
        let mut idx = HintMSubs::build(&data, 9, SubsConfig::full());
        // pass 0: unsealed (fallback loop); pass 1: sealed (shared walk)
        for pass in 0..2 {
            let queries: Vec<RangeQuery> = (0..50u64)
                .map(|i| {
                    let st = (i * 317) % (1 << 14);
                    RangeQuery::new(st, (st + 1200).min((1 << 14) - 1))
                })
                .collect();
            let solo: Vec<Vec<IntervalId>> = queries
                .iter()
                .map(|&q| {
                    let mut v = Vec::new();
                    idx.query_sink(q, &mut v);
                    v
                })
                .collect();
            let mut bufs: Vec<Vec<IntervalId>> = vec![Vec::new(); queries.len()];
            let mut sinks: Vec<&mut dyn QuerySink> =
                bufs.iter_mut().map(|b| b as &mut dyn QuerySink).collect();
            idx.query_batch(&queries, &mut sinks);
            assert_eq!(solo, bufs, "pass {pass}: emission order must match");
            idx.seal();
        }
    }

    #[test]
    fn no_duplicates() {
        let data = lcg_data(500, 1 << 14, 4000, 77);
        let idx = HintMSubs::build(&data, 10, SubsConfig::full());
        for st in (0..(1 << 14)).step_by(257) {
            let q = RangeQuery::new(st, (st + 5000).min((1 << 14) - 1));
            let mut got = Vec::new();
            idx.query(q, &mut got);
            let n = got.len();
            got.sort_unstable();
            got.dedup();
            assert_eq!(n, got.len(), "{q:?}");
        }
    }
}
