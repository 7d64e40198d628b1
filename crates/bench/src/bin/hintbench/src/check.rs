//! Correctness references: the `ScanOracle` for library workloads and,
//! for served workloads, an untimed in-process twin that replays a
//! plan's writes in FIFO order and answers every verb the way the wire
//! protocol defines it.
//!
//! The twin is one unsharded `HintMSubs`, so it shares no code path with
//! the sharded pool, the session or the server it checks; top-k, Allen
//! refinement and histograms are computed here from the interval
//! endpoints, not by the library's sinks.

use crate::plan::{Op, TOP_K};
use crate::stats::{checksum, Answer};
use crate::wire::Received;
use bench::datasets::Dataset;
use hint_core::{
    AllenRelation, Domain, HintMSubs, Interval, IntervalId, RangeQuery, ScanOracle, SubsConfig,
};
use std::collections::HashMap;

/// The answers the `ScanOracle` gives for `queries`.
pub fn oracle_answers(data: &[Interval], queries: &[RangeQuery]) -> Vec<Answer> {
    let oracle = ScanOracle::new(data);
    let mut ids = Vec::new();
    queries
        .iter()
        .map(|&q| {
            ids.clear();
            oracle.query(q, &mut ids);
            set_answer(&ids)
        })
        .collect()
}

/// The answer for a reply carrying the id set `ids`.
pub fn set_answer(ids: &[IntervalId]) -> Answer {
    Answer {
        status: serve::Status::Ok as u8,
        count: ids.len() as u64,
        sum: checksum(false, ids),
    }
}

/// The answer a reply to `op` carried: its status, its trailer's count
/// and the checksum of its values.
pub fn observed(op: &Op, r: &Received, values: &[u64]) -> Answer {
    Answer {
        status: r.status as u8,
        count: r.count,
        sum: checksum(op.ordered(), values),
    }
}

fn ordered_answer(values: &[u64]) -> Answer {
    Answer {
        status: serve::Status::Ok as u8,
        count: values.len() as u64,
        sum: checksum(true, values),
    }
}

fn write_answer(count: u64) -> Answer {
    Answer {
        status: serve::Status::Ok as u8,
        count,
        sum: 0,
    }
}

pub struct Twin<'a> {
    index: HintMSubs,
    /// The bulk-loaded data; dataset ids are positions in it.
    originals: &'a [Interval],
    inserted: HashMap<IntervalId, Interval>,
    /// Writes since the last seal: what a `Seal` reply reports.
    dirty: bool,
}

impl<'a> Twin<'a> {
    pub fn new(ds: &'a Dataset, m: u32) -> Self {
        let mut index = HintMSubs::build_with_domain(
            &ds.data,
            Domain::new(0, ds.domain - 1, m),
            SubsConfig::full(),
        );
        index.seal();
        Self {
            index,
            originals: &ds.data,
            inserted: HashMap::new(),
            dirty: false,
        }
    }

    /// The twin's index: one unsharded sealed `HintMSubs` at the model's
    /// `m` (the ladder's first rung).
    pub fn index(&self) -> &HintMSubs {
        &self.index
    }

    fn lookup(&self, id: IntervalId) -> Interval {
        match self.originals.get(id as usize) {
            Some(s) => *s,
            None => self.inserted[&id],
        }
    }

    fn overlapping(&self, q: RangeQuery) -> Vec<Interval> {
        let mut ids = Vec::new();
        self.index.query(q, &mut ids);
        ids.into_iter().map(|id| self.lookup(id)).collect()
    }

    /// Applies `op` in FIFO order and returns the reply the server must
    /// give at this point of the request stream.
    pub fn apply(&mut self, op: &Op) -> Answer {
        match *op {
            Op::Range(q) => {
                let mut ids = Vec::new();
                self.index.query(q, &mut ids);
                set_answer(&ids)
            }
            Op::Allen(q) => {
                // every interval overlapping `q` in the Allen sense
                // contains the point q.st
                let ids: Vec<IntervalId> = self
                    .overlapping(RangeQuery::stab(q.st))
                    .into_iter()
                    .filter(|s| AllenRelation::Overlaps.matches(s, &q))
                    .map(|s| s.id)
                    .collect();
                set_answer(&ids)
            }
            Op::TopK(q) => {
                let mut hits = self.overlapping(q);
                hits.sort_by_key(|s| (std::cmp::Reverse(s.end - s.st), s.id));
                let ids: Vec<IntervalId> = hits.iter().take(TOP_K as usize).map(|s| s.id).collect();
                ordered_answer(&ids)
            }
            Op::Histogram(q, width) => {
                let buckets = (q.end - q.st + 1).div_ceil(width);
                let covered_end = q.st + width * buckets - 1;
                let mut counts = vec![0u64; buckets as usize];
                for s in self.overlapping(q) {
                    let (lo, hi) = (s.st.max(q.st), s.end.min(covered_end));
                    for c in
                        &mut counts[((lo - q.st) / width) as usize..=((hi - q.st) / width) as usize]
                    {
                        *c += 1;
                    }
                }
                ordered_answer(&counts)
            }
            Op::Insert(s) => {
                self.index.insert(s);
                self.inserted.insert(s.id, s);
                self.dirty = true;
                write_answer(1)
            }
            Op::Delete(s) => {
                let found = self.index.delete(&s);
                self.dirty |= found;
                write_answer(u64::from(found))
            }
            Op::Seal => write_answer(u64::from(std::mem::take(&mut self.dirty))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan;

    #[test]
    fn twin_agrees_with_the_scan_oracle_after_writes() {
        let ds = plan::dataset(workloads::realistic::RealDataset::Taxis, 1 << 13, 5);
        let mut twin = Twin::new(&ds, 8);
        let mut oracle = ScanOracle::new(&ds.data);
        let extent = plan::extent(ds.domain, 0.01);
        for p in plan::mixed_plan(5, 4_000.0, 0.5, ds.domain, extent) {
            let got = twin.apply(&p.op);
            match p.op {
                Op::Insert(s) => oracle.insert(s),
                Op::Delete(s) => assert!(oracle.delete(s.id)),
                Op::Range(q) => assert_eq!(got, set_answer(&oracle.query_sorted(q))),
                _ => {}
            }
        }
    }
}
