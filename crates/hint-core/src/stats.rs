//! Query-execution statistics used to validate the paper's analytical
//! claims (§3.2.3, §5.2.4 / Table 7): the number of partitions for which
//! endpoint comparisons were conducted is expected to be at most ~4 per
//! query (Lemma 4), independent of query extent and position.
//!
//! The module also carries the serve-time workload observations behind
//! adaptive per-shard `m` tuning: an [`ExtentHistogram`] accumulates the
//! query extents a shard actually receives (lock-free, so the query path
//! records through `&self`), and its [`ExtentMix`] snapshot feeds the
//! §3.3 cost model ([`crate::cost_model::retuned_m`]) when a dirty shard
//! is resealed.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 extent buckets: bucket 0 holds stabbing queries
/// (extent 0), bucket `i >= 1` holds extents with bit length `i`, i.e.
/// `extent in [2^(i-1), 2^i)`. 64-bit extents need at most bit length
/// 64, hence 65 buckets.
pub const EXTENT_BUCKETS: usize = 65;

/// Bucket index of a query extent (`q.end - q.st`).
#[inline]
fn bucket_of(extent: u64) -> usize {
    (64 - extent.leading_zeros()) as usize
}

/// A lock-free log2 histogram of observed query extents.
///
/// Recording is `&self` (relaxed atomic increments), so the serving
/// query path can accumulate observations without taking locks or
/// requiring `&mut` access; [`snapshot`](Self::snapshot) yields a plain
/// [`ExtentMix`] for the cost model.
#[derive(Debug)]
pub struct ExtentHistogram {
    buckets: [AtomicU64; EXTENT_BUCKETS],
    /// Per-bucket sum of observed result counts (see
    /// [`record_results`](Self::record_results)).
    result_sums: [AtomicU64; EXTENT_BUCKETS],
    /// Per-bucket number of result-count observations. Kept separate
    /// from `buckets`: extents are recorded pre-query on every routed
    /// shard, result counts only where the merged total is known.
    result_obs: [AtomicU64; EXTENT_BUCKETS],
}

impl Default for ExtentHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            result_sums: std::array::from_fn(|_| AtomicU64::new(0)),
            result_obs: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ExtentHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observed query extent.
    #[inline]
    pub fn record(&self, extent: u64) {
        self.buckets[bucket_of(extent)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the merged result count of a completed query, keyed by
    /// its extent — the feedback loop behind
    /// [`expected_results`](Self::expected_results).
    #[inline]
    pub fn record_results(&self, extent: u64, results: usize) {
        let b = bucket_of(extent);
        self.result_sums[b].fetch_add(results as u64, Ordering::Relaxed);
        self.result_obs[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Predicted result count for a query of the given extent: the mean
    /// of past [`record_results`](Self::record_results) observations in
    /// the extent's bucket, or `None` before any have landed. Capacity
    /// advice only — never affects results.
    pub fn expected_results(&self, extent: u64) -> Option<usize> {
        let b = bucket_of(extent);
        let obs = self.result_obs[b].load(Ordering::Relaxed);
        if obs == 0 {
            return None;
        }
        let sum = self.result_sums[b].load(Ordering::Relaxed);
        Some((sum / obs) as usize)
    }

    /// A point-in-time copy of the counts.
    pub fn snapshot(&self) -> ExtentMix {
        let mut counts = [0u64; EXTENT_BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Relaxed);
        }
        ExtentMix { counts }
    }

    /// Total extents recorded so far.
    pub fn observations(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// A plain (copyable) snapshot of an [`ExtentHistogram`] — the observed
/// query-extent mix the cost model re-tunes `m` against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentMix {
    /// Per-bucket observation counts (see [`EXTENT_BUCKETS`]).
    pub counts: [u64; EXTENT_BUCKETS],
}

impl Default for ExtentMix {
    fn default() -> Self {
        Self {
            counts: [0; EXTENT_BUCKETS],
        }
    }
}

impl ExtentMix {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// A mix built from raw extents (convenience for tests/benches).
    pub fn from_extents(extents: &[u64]) -> Self {
        let mut counts = [0u64; EXTENT_BUCKETS];
        for &e in extents {
            counts[bucket_of(e)] += 1;
        }
        Self { counts }
    }

    /// Total observations in the mix.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Representative extent of bucket `i`: 0 for the stabbing bucket,
    /// else the midpoint of the bucket's `[2^(i-1), 2^i)` range.
    pub fn representative(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            // 1.5 * 2^(i-1), saturating for the top buckets
            (1u64 << (i - 1)).saturating_add(1u64 << (i - 1) >> 1)
        }
    }

    /// Mean observed extent (0 when empty).
    pub fn mean_extent(&self) -> f64 {
        let total = self.observations();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * Self::representative(i) as f64)
            .sum();
        sum / total as f64
    }
}

/// Counters collected by the instrumented query path of
/// [`crate::Hint::query_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Partitions visited (relevant, non-empty).
    pub partitions_accessed: usize,
    /// Partitions in which at least one endpoint comparison was performed.
    pub partitions_compared: usize,
    /// Total endpoint comparisons performed (binary-search probes count
    /// as `log2` of the run length, rounded up).
    pub comparisons: usize,
    /// Results reported.
    pub results: usize,
}

impl QueryStats {
    /// Merges another stats record into this one (for workload averages).
    pub fn merge(&mut self, other: &QueryStats) {
        self.partitions_accessed += other.partitions_accessed;
        self.partitions_compared += other.partitions_compared;
        self.comparisons += other.comparisons;
        self.results += other.results;
    }
}

/// Running aggregate over a query workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadStats {
    /// Sum of per-query stats.
    pub total: QueryStats,
    /// Number of queries aggregated.
    pub queries: usize,
}

impl WorkloadStats {
    /// Adds one query's stats.
    pub fn push(&mut self, s: QueryStats) {
        self.total.merge(&s);
        self.queries += 1;
    }

    /// Average number of partitions compared per query — the paper's
    /// "avg. comp. part." row of Table 7.
    pub fn avg_partitions_compared(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total.partitions_compared as f64 / self.queries as f64
        }
    }

    /// Average comparisons per query.
    pub fn avg_comparisons(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total.comparisons as f64 / self.queries as f64
        }
    }

    /// Average results per query.
    pub fn avg_results(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total.results as f64 / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_averages() {
        let mut w = WorkloadStats::default();
        w.push(QueryStats {
            partitions_accessed: 10,
            partitions_compared: 4,
            comparisons: 20,
            results: 100,
        });
        w.push(QueryStats {
            partitions_accessed: 6,
            partitions_compared: 2,
            comparisons: 10,
            results: 50,
        });
        assert_eq!(w.queries, 2);
        assert!((w.avg_partitions_compared() - 3.0).abs() < 1e-12);
        assert!((w.avg_comparisons() - 15.0).abs() < 1e-12);
        assert!((w.avg_results() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn empty_workload_is_zero() {
        let w = WorkloadStats::default();
        assert_eq!(w.avg_partitions_compared(), 0.0);
        assert_eq!(w.avg_comparisons(), 0.0);
        assert_eq!(w.avg_results(), 0.0);
    }

    #[test]
    fn extent_buckets_are_log2_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_snapshot_round_trips() {
        let h = ExtentHistogram::new();
        for e in [0u64, 0, 1, 5, 5, 900] {
            h.record(e);
        }
        assert_eq!(h.observations(), 6);
        let mix = h.snapshot();
        assert_eq!(mix, ExtentMix::from_extents(&[0, 0, 1, 5, 5, 900]));
        assert_eq!(mix.counts[0], 2); // two stabs
        assert_eq!(mix.counts[1], 1); // extent 1
        assert_eq!(mix.counts[3], 2); // extent 5 in [4, 8)
        assert_eq!(mix.counts[10], 1); // extent 900 in [512, 1024)
    }

    #[test]
    fn expected_results_average_per_extent_bucket() {
        let h = ExtentHistogram::new();
        assert_eq!(h.expected_results(5), None);
        h.record_results(5, 100);
        h.record_results(6, 50); // same [4, 8) bucket
        assert_eq!(h.expected_results(7), Some(75));
        // Other buckets stay independent and unobserved.
        assert_eq!(h.expected_results(0), None);
        assert_eq!(h.expected_results(900), None);
        h.record_results(0, 3);
        assert_eq!(h.expected_results(0), Some(3));
    }

    #[test]
    fn representatives_sit_inside_their_bucket() {
        assert_eq!(ExtentMix::representative(0), 0);
        assert_eq!(ExtentMix::representative(1), 1);
        for i in 2..64 {
            let rep = ExtentMix::representative(i);
            assert!(rep >= 1 << (i - 1) && rep < 1 << i, "bucket {i}: {rep}");
        }
    }

    #[test]
    fn mean_extent_weights_buckets() {
        let mix = ExtentMix::from_extents(&[0, 0]);
        assert_eq!(mix.mean_extent(), 0.0);
        let mix = ExtentMix::from_extents(&[1, 1]);
        assert_eq!(mix.mean_extent(), 1.0);
        assert_eq!(ExtentMix::new().mean_extent(), 0.0);
    }
}
