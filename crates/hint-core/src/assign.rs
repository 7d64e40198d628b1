//! Algorithm 1 of the paper: assignment of an interval to the hierarchical
//! partitions of HINT / HINT^m.
//!
//! Given a mapped interval `[a, b]` (both in `[0, 2^m - 1]`), the interval is
//! assigned to at most two partitions per level, walking bottom-up:
//!
//! * if the last bit of `a` is 1, the interval goes to `P_{l,a}` and `a`
//!   is incremented;
//! * if the last bit of `b` is 0, the interval goes to `P_{l,b}` and `b`
//!   is decremented;
//! * then the last bits are cut off (`a /= 2`, `b /= 2`) and the procedure
//!   repeats one level up, until `a > b`.
//!
//! # Originals vs replicas, `in` vs `aft` subdivisions
//!
//! Per §3.1, an interval `s` is an **original** in `P_{l,i}` iff
//! `prefix(l, map(s.st)) == i` (it *begins* inside the partition) and a
//! **replica** otherwise. This closed-form test is equivalent to the paper's
//! footnote-1 rule ("the first execution of line 5 adds an original, ..."):
//! once the `a`-branch fires at some level, `a` stays strictly above the
//! prefix of `map(s.st)` at every higher level (incrementing an odd offset
//! and halving lands strictly above the halved prefix), so at most one
//! emitted partition can contain the start — and exactly one always does.
//!
//! Similarly (§4.1), the interval **ends inside** `P_{l,i}` iff
//! `prefix(l, map(s.end)) == i`, otherwise it ends **after** the partition.

use crate::interval::Time;

/// Which of the four §4.1 subdivisions of a partition an interval falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubKind {
    /// Original that ends inside the partition (`P^{Oin}`).
    OriginalIn,
    /// Original that ends after the partition (`P^{Oaft}`).
    OriginalAft,
    /// Replica that ends inside the partition (`P^{Rin}`).
    ReplicaIn,
    /// Replica that ends after the partition (`P^{Raft}`).
    ReplicaAft,
}

impl SubKind {
    /// True for the two original subdivisions.
    #[inline]
    pub fn is_original(self) -> bool {
        matches!(self, SubKind::OriginalIn | SubKind::OriginalAft)
    }

    /// True for the two subdivisions whose intervals end inside the
    /// partition.
    #[inline]
    pub fn ends_inside(self) -> bool {
        matches!(self, SubKind::OriginalIn | SubKind::ReplicaIn)
    }

    /// Index of this subdivision in fixed `[Oin, Oaft, Rin, Raft]` tables
    /// (the single source of truth for per-kind counting/bucketing).
    #[inline]
    pub fn slot(self) -> usize {
        match self {
            SubKind::OriginalIn => 0,
            SubKind::OriginalAft => 1,
            SubKind::ReplicaIn => 2,
            SubKind::ReplicaAft => 3,
        }
    }
}

/// A single partition assignment produced by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index level (0 = root, `m` = bottom).
    pub level: u32,
    /// Partition offset within the level (`0 .. 2^level`).
    pub offset: u64,
    /// Subdivision of the partition the interval belongs to.
    pub kind: SubKind,
}

/// Runs Algorithm 1 for the mapped interval `[a, b]` on an index with
/// bottom level `m`, invoking `emit` for every partition the interval is
/// assigned to.
///
/// The callback receives assignments bottom-up (level `m` first). Every
/// interval receives exactly one `Original*` assignment.
///
/// Always inlined: it is the inner loop of every build and insert, and
/// left to the optimizer it was compiled out of line (with `emit` a
/// call per assignment) in some builds, costing up to a fifth of the
/// build time.
///
/// # Panics
/// Debug-asserts `a <= b` and `b < 2^m`.
#[inline(always)]
pub fn for_each_assignment(m: u32, a: Time, b: Time, mut emit: impl FnMut(Assignment)) {
    debug_assert!(a <= b, "mapped interval must be non-degenerate: {a} > {b}");
    debug_assert!(
        m == 63 || b < (1u64 << m),
        "mapped endpoint {b} out of domain for m={m}"
    );
    let (st0, end0) = (a, b);
    let mut a = a;
    let mut b = b;
    let mut level = m as i64;
    while level >= 0 && a <= b {
        let l = level as u32;
        let shift = m - l;
        // prefix of the original (un-truncated) endpoints at this level,
        // used for the original/replica and in/aft classification.
        let pst = st0 >> shift;
        let pend = end0 >> shift;
        if a & 1 == 1 {
            emit(Assignment {
                level: l,
                offset: a,
                kind: classify(a, pst, pend),
            });
            a += 1;
        }
        // after the a-branch `a` may exceed `b`; the paper's loop only checks
        // `a <= b` at the top, so the b-branch still runs in that iteration.
        if b & 1 == 0 {
            emit(Assignment {
                level: l,
                offset: b,
                kind: classify(b, pst, pend),
            });
            b = b.wrapping_sub(1); // b may be 0 only when a==0; then a>b ends the loop
            if b == Time::MAX {
                break;
            }
        }
        a >>= 1;
        b >>= 1;
        level -= 1;
    }
}

/// Classifies an assignment into one of the four subdivisions given the
/// partition offset and the level-prefixes of the interval's endpoints.
#[inline]
fn classify(offset: u64, pst: u64, pend: u64) -> SubKind {
    debug_assert!(pst <= offset && offset <= pend);
    match (pst == offset, pend == offset) {
        (true, true) => SubKind::OriginalIn,
        (true, false) => SubKind::OriginalAft,
        (false, true) => SubKind::ReplicaIn,
        (false, false) => SubKind::ReplicaAft,
    }
}

/// Collects all assignments into a `Vec` (convenience for tests and for
/// deletion, which must visit every partition holding the interval).
pub fn assignments(m: u32, a: Time, b: Time) -> Vec<Assignment> {
    let mut out = Vec::new();
    for_each_assignment(m, a, b, |x| out.push(x));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets(m: u32, a: Time, b: Time) -> Vec<(u32, u64, SubKind)> {
        assignments(m, a, b)
            .into_iter()
            .map(|x| (x.level, x.offset, x.kind))
            .collect()
    }

    #[test]
    fn paper_running_example_5_9() {
        // Figure 5: [5, 9] with m = 4 goes to P_{4,5} (original), P_{3,3}
        // and P_{3,4} (replicas).
        let got = offsets(4, 5, 9);
        assert_eq!(
            got,
            vec![
                (4, 5, SubKind::OriginalAft),
                (3, 3, SubKind::ReplicaAft),
                (3, 4, SubKind::ReplicaIn),
            ]
        );
    }

    #[test]
    fn point_interval_goes_to_one_bottom_partition() {
        for v in 0..16u64 {
            let got = assignments(4, v, v);
            assert_eq!(got.len(), 1, "point {v}");
            assert_eq!(got[0].level, 4);
            assert_eq!(got[0].offset, v);
            assert_eq!(got[0].kind, SubKind::OriginalIn);
        }
    }

    #[test]
    fn full_domain_interval_goes_to_root() {
        let got = offsets(4, 0, 15);
        assert_eq!(got, vec![(0, 0, SubKind::OriginalIn)]);
    }

    #[test]
    fn exactly_one_original_always() {
        let m = 6;
        for a in 0..64u64 {
            for b in a..64 {
                let asg = assignments(m, a, b);
                let originals = asg.iter().filter(|x| x.kind.is_original()).count();
                assert_eq!(originals, 1, "[{a},{b}]");
            }
        }
    }

    #[test]
    fn at_most_two_partitions_per_level() {
        let m = 6;
        for a in 0..64u64 {
            for b in a..64 {
                let asg = assignments(m, a, b);
                for l in 0..=m {
                    let cnt = asg.iter().filter(|x| x.level == l).count();
                    assert!(cnt <= 2, "[{a},{b}] level {l}: {cnt}");
                }
            }
        }
    }

    #[test]
    fn assigned_partitions_exactly_cover_the_interval() {
        // The union of the assigned partitions' spans must equal [a, b]
        // and the spans must be pairwise disjoint (each domain value is
        // covered exactly once).
        let m = 6;
        for a in 0..64u64 {
            for b in a..64 {
                let mut covered = vec![0u32; 64];
                for x in assignments(m, a, b) {
                    let shift = m - x.level;
                    let lo = x.offset << shift;
                    let hi = ((x.offset + 1) << shift) - 1;
                    for slot in covered.iter_mut().take(hi as usize + 1).skip(lo as usize) {
                        *slot += 1;
                    }
                }
                for (v, &c) in covered.iter().enumerate() {
                    let inside = (v as u64) >= a && (v as u64) <= b;
                    assert_eq!(
                        c,
                        u32::from(inside),
                        "[{a},{b}] value {v} covered {c} times"
                    );
                }
            }
        }
    }

    #[test]
    fn original_contains_start_replicas_do_not() {
        let m = 6;
        for a in 0..64u64 {
            for b in a..64 {
                for x in assignments(m, a, b) {
                    let shift = m - x.level;
                    let starts_here = (a >> shift) == x.offset;
                    assert_eq!(x.kind.is_original(), starts_here, "[{a},{b}] {x:?}");
                    let ends_here = (b >> shift) == x.offset;
                    assert_eq!(x.kind.ends_inside(), ends_here, "[{a},{b}] {x:?}");
                }
            }
        }
    }

    #[test]
    fn zero_to_zero_terminates() {
        let got = offsets(4, 0, 0);
        assert_eq!(got, vec![(4, 0, SubKind::OriginalIn)]);
    }

    #[test]
    fn m_zero_single_partition() {
        let got = offsets(0, 0, 0);
        assert_eq!(got, vec![(0, 0, SubKind::OriginalIn)]);
    }
}
