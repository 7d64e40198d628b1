//! Seeded inputs: the datasets, the query streams and the `serve-mixed`
//! request plan. Every input is a pure function of the run's seed, so
//! the same seed replays the same run and the correctness twin can
//! replay a plan after the fact.

use bench::datasets::Dataset;
use hint_core::{Interval, RangeQuery};
use workloads::realistic::{RealDataset, RealisticConfig};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a run.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        crate::stats::mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Stream ids: each input of a run draws from its own generator, so
/// adding one input never shifts another.
pub const STREAM_QUERIES: u64 = 1;
pub const STREAM_PLAN: u64 = 2;

/// The clone of one real dataset at `scale`, generated from the run seed.
pub fn dataset(ds: RealDataset, scale: u64, seed: u64) -> Dataset {
    let rc = RealisticConfig::new(ds).with_scale(scale).with_seed(seed);
    Dataset {
        name: ds.name(),
        data: rc.generate(),
        domain: rc.domain(),
        scale,
    }
}

/// Query extent in domain units for a fraction of the domain (0 gives
/// stabbing queries).
pub fn extent(domain: u64, frac: f64) -> u64 {
    (domain as f64 * frac) as u64
}

/// An endless stream of uniform range queries of one extent over
/// `[0, domain - 1]` (the paper's real-data query model, §5.1).
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: Rng,
    domain: u64,
    extent: u64,
}

impl QueryStream {
    pub fn new(seed: u64, stream: u64, domain: u64, extent: u64) -> Self {
        assert!(extent < domain, "query extent must fit the domain");
        Self {
            rng: Rng::new(seed, STREAM_QUERIES ^ (stream << 8)),
            domain,
            extent,
        }
    }

    pub fn next_query(&mut self) -> RangeQuery {
        let st = self.rng.below(self.domain - self.extent);
        RangeQuery::new(st, st + self.extent)
    }

    pub fn take(&mut self, n: usize) -> Vec<RangeQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

/// One request of the `serve-mixed` traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Range(RangeQuery),
    TopK(RangeQuery),
    Allen(RangeQuery),
    Histogram(RangeQuery, u64),
    Insert(Interval),
    /// Always names an interval an earlier request of the plan inserted
    /// and no earlier request deleted, so every delete finds its target.
    Delete(Interval),
    Seal,
}

/// Bucket width of the `Histogram` requests: eight buckets per query.
pub fn hist_width(extent: u64) -> u64 {
    (extent / 8).max(1)
}

/// Top-k size of the `TopK` requests.
pub const TOP_K: u32 = 8;

impl Op {
    pub fn request(&self) -> serve::Request {
        use hint_core::AllenRelation;
        use serve::Request;
        match *self {
            Op::Range(q) => Request::Query(q),
            Op::TopK(q) => Request::TopK { k: TOP_K, q },
            Op::Allen(q) => Request::Allen {
                rel: AllenRelation::Overlaps,
                q,
            },
            Op::Histogram(q, width) => Request::Histogram { width, q },
            Op::Insert(s) => Request::Insert(s),
            Op::Delete(s) => Request::Delete(s),
            Op::Seal => Request::Seal,
        }
    }

    /// Short verb name for per-verb diagnostics.
    pub fn verb(&self) -> &'static str {
        match self {
            Op::Range(_) => "range",
            Op::TopK(_) => "topk",
            Op::Allen(_) => "allen",
            Op::Histogram(..) => "histogram",
            Op::Insert(_) => "insert",
            Op::Delete(_) => "delete",
            Op::Seal => "seal",
        }
    }

    /// True if the reply's values must be compared in order (top-k
    /// ranks, histogram buckets); range-shaped replies are id sets.
    pub fn ordered(&self) -> bool {
        matches!(self, Op::TopK(_) | Op::Histogram(..))
    }
}

/// One scheduled request: its offset from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub at_us: u64,
    pub op: Op,
}

/// Every `SEAL_EVERY`-th request of the mixed plan is a `Seal`.
pub const SEAL_EVERY: usize = 20_000;

/// First id of intervals inserted by the plan: far above every dataset
/// id, so inserts never collide with the bulk-loaded data.
pub const FIRST_INSERT_ID: u64 = 1 << 40;

/// Longest interval the plan inserts (domain units).
const INSERT_LEN: u64 = 64;

/// The open-loop `serve-mixed` plan: Poisson arrivals at `rate_hz` for
/// `seconds`, drawn as 70% range, 5% top-k, 5% Allen `Overlaps`, 5%
/// histogram, 10% insert and 5% delete of an earlier insert, with a
/// `Seal` every [`SEAL_EVERY`]-th request.
pub fn mixed_plan(seed: u64, rate_hz: f64, seconds: f64, domain: u64, extent: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, STREAM_PLAN);
    let horizon_us = seconds * 1e6;
    let mut at_us = 0.0f64;
    let mut next_id = FIRST_INSERT_ID;
    let mut live: Vec<Interval> = Vec::new();
    let mut out = Vec::new();
    loop {
        at_us += -rng.unit().ln() * 1e6 / rate_hz;
        if at_us >= horizon_us {
            return out;
        }
        let op = if (out.len() + 1) % SEAL_EVERY == 0 {
            Op::Seal
        } else {
            let st = rng.below(domain - extent);
            let q = RangeQuery::new(st, st + extent);
            match rng.below(100) {
                0..=69 => Op::Range(q),
                70..=74 => Op::TopK(q),
                75..=79 => Op::Allen(q),
                80..=84 => Op::Histogram(q, hist_width(extent)),
                95..=99 if !live.is_empty() => {
                    let i = rng.below(live.len() as u64) as usize;
                    Op::Delete(live.swap_remove(i))
                }
                _ => {
                    let st = rng.below(domain - INSERT_LEN);
                    let s = Interval::new(next_id, st, st + rng.below(INSERT_LEN));
                    next_id += 1;
                    live.push(s);
                    Op::Insert(s)
                }
            }
        };
        out.push(Planned {
            at_us: at_us as u64,
            op,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = mixed_plan(42, 4_000.0, 2.0, 100_000, 100);
        assert_eq!(a, mixed_plan(42, 4_000.0, 2.0, 100_000, 100));
        assert_ne!(a, mixed_plan(7, 4_000.0, 2.0, 100_000, 100));
        let mut s = QueryStream::new(42, 0, 100_000, 100);
        let qs = s.take(64);
        assert_eq!(qs, QueryStream::new(42, 0, 100_000, 100).take(64));
        assert_ne!(qs, QueryStream::new(7, 0, 100_000, 100).take(64));
        assert_ne!(qs, QueryStream::new(42, 1, 100_000, 100).take(64));
        let d = dataset(RealDataset::Taxis, 1 << 14, 42);
        assert_eq!(d.data, dataset(RealDataset::Taxis, 1 << 14, 42).data);
        assert_ne!(d.data, dataset(RealDataset::Taxis, 1 << 14, 7).data);
    }

    #[test]
    fn mixed_plan_has_the_stated_mix_and_valid_deletes() {
        let plan = mixed_plan(3, 4_000.0, 12.0, 100_000, 100);
        let n = plan.len() as f64;
        assert!((n - 48_000.0).abs() < 1_500.0, "Poisson count {n}");
        let share = |verb: &str| plan.iter().filter(|p| p.op.verb() == verb).count() as f64 / n;
        assert!((share("range") - 0.70).abs() < 0.02);
        assert!((share("insert") - 0.10).abs() < 0.02);
        assert!((share("delete") - 0.05).abs() < 0.02);
        assert_eq!(
            plan.iter().filter(|p| p.op == Op::Seal).count(),
            plan.len() / SEAL_EVERY
        );
        let mut live = std::collections::HashSet::new();
        for p in &plan {
            match p.op {
                Op::Insert(s) => assert!(live.insert(s)),
                Op::Delete(s) => assert!(live.remove(&s), "delete of a live insert"),
                _ => {}
            }
        }
        assert!(plan.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }
}
