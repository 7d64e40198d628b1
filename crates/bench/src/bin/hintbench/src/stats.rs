//! Summary statistics, reply checksums and process memory readings.

/// The SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checksum of a reply's values. Id sets (range and Allen replies, whose
/// order depends on shard layout) use an order-insensitive sum; ranked
/// and bucketed replies (top-k, histogram) use an order-sensitive fold,
/// so a swapped rank or bucket changes the checksum.
pub fn checksum(ordered: bool, values: &[u64]) -> u64 {
    values.iter().fold(0u64, |acc, &x| {
        if ordered {
            (acc ^ mix(x)).wrapping_mul(0x0000_0100_0000_01b3)
        } else {
            acc.wrapping_add(mix(x))
        }
    })
}

/// One reply as the correctness check sees it: the status byte, the
/// count the trailer carried and the checksum of the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub status: u8,
    pub count: u64,
    pub sum: u64,
}

/// Pairs of (expected, observed) answers that disagree, with their
/// position in the checked sequence.
pub fn mismatches(pairs: &[(Answer, Answer)]) -> Vec<usize> {
    pairs
        .iter()
        .enumerate()
        .filter(|(_, (want, got))| want != got)
        .map(|(i, _)| i)
        .collect()
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail the
/// sample cannot support is not reported.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - rank >= MIN_BEYOND || p <= 50.0).then(|| sorted[rank])
}

/// Median of `values` (sorts in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// Reads one `kB` field of `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process, in MB.
pub fn rss_mb() -> Option<f64> {
    proc_status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), None, "9 samples beyond p95");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&[3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some([1.0, 3.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn a_corrupted_checksum_fails_the_check() {
        let ids = [5u64, 9, 2, 11];
        let want = Answer {
            status: 0,
            count: 4,
            sum: checksum(false, &ids),
        };
        let shuffled = Answer {
            sum: checksum(false, &[11, 2, 9, 5]),
            ..want
        };
        assert!(
            mismatches(&[(want, shuffled)]).is_empty(),
            "sets are unordered"
        );
        let corrupted = Answer {
            sum: want.sum ^ 1,
            ..want
        };
        assert_eq!(mismatches(&[(want, want), (want, corrupted)]), vec![1]);
        // ranked replies are order-sensitive
        assert_ne!(checksum(true, &[1, 2]), checksum(true, &[2, 1]));
    }
}
