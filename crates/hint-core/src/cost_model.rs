//! The §3.3 analytical model for choosing `m`.
//!
//! Query cost is modeled as `C = C_p + C_cmp + C_acc` where the partition
//! lookup cost `C_p` is negligible, `C_cmp` is dominated by comparing the
//! two bottom-level boundary partitions (expected `n / 2^m` intervals each,
//! Lemma 3), and `C_acc` is the cost of sequentially touching the remaining
//! `|Q| - 2·n/2^m` comparison-free results. Result cardinality follows the
//! selectivity formula of Pagel et al. \[28\]: `|Q| = n·(λ_s + λ_q)/Λ`.
//!
//! `m_opt` is the smallest `m` whose estimated cost converges (within a
//! configurable tolerance, the paper uses 3%) to the cost of the
//! comparison-free `m = m'` configuration.
//!
//! The module also implements the Theorem-1 space model: the expected
//! replication factor `k` (partitions per interval).

use crate::interval::Interval;
use std::time::Instant;

/// Machine-dependent cost constants: seconds per endpoint comparison and
/// per sequential result access. Estimate with [`measure_betas`] or use
/// [`Betas::DEFAULT`] (a typical 2020s x86-64 ratio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Betas {
    /// Cost of one endpoint comparison (includes the dependent branch).
    pub cmp: f64,
    /// Cost of sequentially accessing + reporting one result id.
    pub acc: f64,
}

impl Betas {
    /// A reasonable default ratio: a comparison with an unpredictable
    /// branch costs ~4x a sequential id copy.
    pub const DEFAULT: Betas = Betas {
        cmp: 2.0e-9,
        acc: 0.5e-9,
    };
}

/// Workload statistics feeding the model.
#[derive(Debug, Clone, Copy)]
pub struct ModelInput {
    /// Number of intervals `n = |S|`.
    pub n: u64,
    /// Mean interval length `λ_s`.
    pub lambda_s: f64,
    /// Mean query extent `λ_q`.
    pub lambda_q: f64,
    /// Domain span `Λ` (max endpoint − min endpoint).
    pub span: u64,
}

impl ModelInput {
    /// Gathers `n`, `λ_s` and `Λ` from a dataset; `λ_q` is supplied by the
    /// caller (it is a property of the query workload).
    pub fn from_data(data: &[Interval], lambda_q: f64) -> Self {
        assert!(!data.is_empty());
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut total_len = 0u128;
        for s in data {
            min = min.min(s.st);
            max = max.max(s.end);
            total_len += s.duration() as u128;
        }
        Self {
            n: data.len() as u64,
            lambda_s: total_len as f64 / data.len() as f64,
            lambda_q,
            span: max - min,
        }
    }

    /// Number of bits `m'` of the domain span — the maximum useful `m`.
    pub fn max_m(&self) -> u32 {
        if self.span == 0 {
            0
        } else {
            64 - self.span.leading_zeros()
        }
    }

    /// Expected query result cardinality `|Q| = n·(λ_s + λ_q)/Λ` \[28\].
    pub fn expected_results(&self) -> f64 {
        if self.span == 0 {
            return self.n as f64;
        }
        (self.n as f64 * (self.lambda_s + self.lambda_q) / self.span as f64).min(self.n as f64)
    }
}

/// Estimated evaluation cost (seconds per query) of a HINT^m with the
/// given `m` (§3.3).
pub fn estimated_cost(input: &ModelInput, betas: &Betas, m: u32) -> f64 {
    let per_part = input.n as f64 / (1u64 << m.min(63)) as f64;
    let c_cmp = betas.cmp * 2.0 * per_part;
    let c_acc = betas.acc * (input.expected_results() - 2.0 * per_part).max(0.0);
    c_cmp + c_acc
}

/// The smallest `m` whose estimated cost is within `tolerance` (e.g. 0.03)
/// of the comparison-free configuration `m = m'` (§3.3, Table 7).
pub fn m_opt(input: &ModelInput, betas: &Betas, tolerance: f64) -> u32 {
    let max_m = input.max_m();
    let best = estimated_cost(input, betas, max_m);
    for m in 1..=max_m {
        if estimated_cost(input, betas, m) <= best * (1.0 + tolerance) {
            return m;
        }
    }
    max_m
}

/// Theorem-1 space model: expected replication factor `k` — the number of
/// levels (≈ partitions) each interval is assigned to:
/// `k = log2(2^{log2 λ − m' + m} + 1)`, at least 1.
pub fn replication_factor(input: &ModelInput, m: u32) -> f64 {
    if input.lambda_s <= 0.0 {
        return 1.0;
    }
    let exponent = input.lambda_s.log2() - input.max_m() as f64 + m.min(input.max_m()) as f64;
    (exponent.exp2() + 1.0).log2().max(1.0)
}

/// Measures the machine's `β_cmp` and `β_acc` with short calibration loops
/// (§3.3: "machine-dependent and can easily be estimated by
/// experimentation").
pub fn measure_betas() -> Betas {
    const N: usize = 1 << 20;
    // pseudo-random data defeating branch prediction for the compare loop
    let mut x = 0x9e3779b97f4a7c15u64;
    let data: Vec<u64> = (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();

    // β_acc: sequential copy of ids
    let mut out: Vec<u64> = Vec::with_capacity(N);
    let t0 = Instant::now();
    let mut acc_total = 0.0;
    let reps = 8;
    for _ in 0..reps {
        out.clear();
        out.extend_from_slice(&data);
        acc_total += out.iter().rev().take(1).sum::<u64>() as f64 * 0.0;
    }
    let acc = t0.elapsed().as_secs_f64() / (reps * N) as f64 + acc_total;

    // β_cmp: compare + conditional push
    let pivot = u64::MAX / 2;
    let t1 = Instant::now();
    for _ in 0..reps {
        out.clear();
        for &v in &data {
            if v <= pivot {
                out.push(v);
            }
        }
    }
    let cmp = t1.elapsed().as_secs_f64() / (reps * N) as f64;
    Betas {
        cmp: cmp.max(1e-12),
        acc: acc.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> ModelInput {
        // BOOKS-like shape: n=2.3M, λ_s ≈ 7% of a 31.5M domain
        ModelInput {
            n: 2_300_000,
            lambda_s: 2.2e6,
            lambda_q: 3.15e4,
            span: 31_507_200,
        }
    }

    #[test]
    fn cost_decreases_with_m_and_converges() {
        let inp = input();
        let b = Betas::DEFAULT;
        let mut prev = f64::INFINITY;
        for m in 1..=inp.max_m() {
            let c = estimated_cost(&inp, &b, m);
            assert!(c <= prev + 1e-15, "cost must be non-increasing in m");
            prev = c;
        }
    }

    #[test]
    fn m_opt_is_interior_for_long_interval_workloads() {
        let inp = input();
        let m = m_opt(&inp, &Betas::DEFAULT, 0.03);
        // paper's Table 7 reports m_opt ≈ 9-12 for BOOKS-shaped data
        assert!(m >= 5 && m <= inp.max_m(), "m_opt = {m}");
        assert!(m < inp.max_m(), "long intervals should not need m = m'");
    }

    #[test]
    fn replication_factor_grows_with_m_and_interval_length() {
        let inp = input();
        let k_small = replication_factor(&inp, 5);
        let k_large = replication_factor(&inp, inp.max_m());
        assert!(k_small <= k_large);
        assert!(k_small >= 1.0);

        // short intervals (TAXIS-like) stay near k = 1
        let short = ModelInput {
            n: 10_000_000,
            lambda_s: 758.0,
            lambda_q: 3.2e4,
            span: 31_768_287,
        };
        let k = replication_factor(&short, 16);
        assert!(k < 2.5, "short intervals: k = {k}");
    }

    #[test]
    fn expected_results_clamped_to_n() {
        let inp = ModelInput {
            n: 100,
            lambda_s: 1e9,
            lambda_q: 1e9,
            span: 10,
        };
        assert_eq!(inp.expected_results(), 100.0);
    }

    #[test]
    fn from_data_statistics() {
        let data = vec![
            Interval::new(1, 0, 10),
            Interval::new(2, 5, 25),
            Interval::new(3, 90, 100),
        ];
        let inp = ModelInput::from_data(&data, 4.0);
        assert_eq!(inp.n, 3);
        assert_eq!(inp.span, 100);
        assert!((inp.lambda_s - 40.0 / 3.0).abs() < 1e-9);
        assert_eq!(inp.max_m(), 7);
    }

    #[test]
    fn m_opt_never_falls_as_the_tolerance_tightens() {
        let inp = input();
        let mut prev = 0;
        for tol in [0.5, 0.1, 0.03, 0.01, 0.0] {
            let m = m_opt(&inp, &Betas::DEFAULT, tol);
            assert!(m >= prev, "tolerance {tol}: m_opt {m} < {prev}");
            assert!(m <= inp.max_m());
            prev = m;
        }
        // with no slack the chosen m costs exactly the comparison-free one
        let best = estimated_cost(&inp, &Betas::DEFAULT, inp.max_m());
        assert_eq!(estimated_cost(&inp, &Betas::DEFAULT, prev), best);
    }

    #[test]
    fn short_intervals_want_a_deeper_hierarchy_than_long_ones() {
        let long = input();
        let short = ModelInput {
            lambda_s: 758.0,
            ..long
        };
        let (m_long, m_short) = (
            m_opt(&long, &Betas::DEFAULT, 0.03),
            m_opt(&short, &Betas::DEFAULT, 0.03),
        );
        assert!(
            m_short > m_long,
            "few results leave comparisons dominant: {m_short} vs {m_long}"
        );
    }

    #[test]
    fn a_zero_span_domain_collapses_the_model() {
        let inp = ModelInput {
            n: 50,
            lambda_s: 0.0,
            lambda_q: 0.0,
            span: 0,
        };
        assert_eq!(inp.max_m(), 0);
        assert_eq!(inp.expected_results(), 50.0, "every point query hits all");
        assert_eq!(m_opt(&inp, &Betas::DEFAULT, 0.03), 0);
        let data = vec![Interval::new(1, 7, 7), Interval::new(2, 7, 7)];
        assert_eq!(ModelInput::from_data(&data, 0.0).max_m(), 0);
    }

    #[test]
    fn point_intervals_are_never_replicated() {
        let points = ModelInput {
            lambda_s: 0.0,
            ..input()
        };
        for m in [1, 8, points.max_m(), 40] {
            assert_eq!(replication_factor(&points, m), 1.0, "m = {m}");
        }
        // m beyond m' is clamped, not extrapolated
        let inp = input();
        assert_eq!(
            replication_factor(&inp, inp.max_m() + 10),
            replication_factor(&inp, inp.max_m())
        );
    }

    #[test]
    fn measured_betas_are_positive_and_sane() {
        let b = measure_betas();
        assert!(b.cmp > 0.0 && b.acc > 0.0);
        assert!(
            b.cmp < 1e-5 && b.acc < 1e-5,
            "per-element costs look wrong: {b:?}"
        );
    }
}
