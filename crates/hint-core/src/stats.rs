//! Query-execution statistics used to validate the paper's analytical
//! claims (§3.2.3, §5.2.4 / Table 7): the number of partitions for which
//! endpoint comparisons were conducted is expected to be at most ~4 per
//! query (Lemma 4), independent of query extent and position.
//!
//! The module also carries the serve-time result-count feedback behind
//! fork presizing: an [`ExtentHistogram`] keys the merged result counts
//! of completed queries by their extent (lock-free, so the query path
//! records through `&self`), and predicts the next query's count from
//! its extent bucket.

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

/// A lock-free log2 histogram of observed result counts per query
/// extent.
///
/// Recording is `&self` (relaxed atomic increments), so the serving
/// query path can feed it without taking locks or requiring `&mut`
/// access.
#[derive(Debug)]
pub struct ExtentHistogram {
    /// Per-bucket sum of observed result counts (see
    /// [`record_results`](Self::record_results)).
    result_sums: [AtomicU64; EXTENT_BUCKETS],
    /// Per-bucket number of result-count observations.
    result_obs: [AtomicU64; EXTENT_BUCKETS],
}

impl Default for ExtentHistogram {
    fn default() -> Self {
        Self {
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
    fn expected_results_is_the_truncated_mean() {
        let h = ExtentHistogram::new();
        h.record_results(u64::MAX, 1);
        h.record_results(u64::MAX - 7, 2); // same top bucket
        assert_eq!(h.expected_results(1 << 63), Some(1));
        h.record_results(12, 0);
        assert_eq!(h.expected_results(8), Some(0), "a zero mean is a hint");
    }

    #[test]
    fn concurrent_recorders_lose_no_observation() {
        let h = ExtentHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = &h;
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        h.record_results(100, 10 + 2 * t as usize);
                    }
                });
            }
        });
        // (10 + 12 + 14 + 16) / 4: any lost increment skews the mean
        assert_eq!(h.expected_results(100), Some(13));
        assert_eq!(h.result_obs[bucket_of(100)].load(Ordering::Relaxed), 4_000);
    }

    #[test]
    fn query_stats_merge_sums_every_counter() {
        let mut a = QueryStats {
            partitions_accessed: 1,
            partitions_compared: 2,
            comparisons: 3,
            results: 4,
        };
        a.merge(&QueryStats {
            partitions_accessed: 10,
            partitions_compared: 20,
            comparisons: 30,
            results: 40,
        });
        assert_eq!(
            a,
            QueryStats {
                partitions_accessed: 11,
                partitions_compared: 22,
                comparisons: 33,
                results: 44,
            }
        );
        a.merge(&QueryStats::default());
        assert_eq!(a.results, 44, "merging an empty record is a no-op");
    }
}
