//! Host calibration: scales a run's times and rates to a nominal host.
//!
//! The benchmark's host shares its cores, caches and memory bandwidth
//! with other machines. Over minutes its speed drifts by 20% and more,
//! and at times the hypervisor runs other work on this machine's cores
//! for a third of the time they want to run. Every time the benchmark
//! measures drifts with it: over ten runs of a workload the quartile
//! spread of `qps`, `p50_us` and `p95_us` was 0.15 to 0.65 of the median.
//!
//! Two readings track that drift. A dependent random walk over a buffer
//! four times the L2, timed before set-up and after tear-down while none
//! of the program's threads exist, tracks how fast a running core is
//! (correlation 0.6 to 0.95 with the workloads' times). The steal counter
//! in `/proc/stat` gives the share of the time the cores wanted to run
//! that the hypervisor took. A run's host factor is the walk's mean time
//! against [`NOMINAL_MS`], divided by the share of wanted time the cores
//! got; dividing times by it and multiplying closed-loop rates by it
//! roughly halves their spread. Both readings are benchmark code and
//! kernel counters, so no change to the program can move them.

use crate::plan::Rng;
use crate::stats::median;
use std::time::Instant;

/// Entries of the walk's cycle: 16 MiB of `u32`, four times the L2.
const ENTRIES: usize = 4 << 20;
/// Steps of one walk.
const STEPS: usize = 400_000;
/// Walks per timing; the timing is their median.
const REPS: usize = 5;
/// The walk's median time on the host the bounds in `BENCHMARK.json`
/// were set on (a 2-vCPU Xeon VM with a 105 MB L3), ms.
pub const NOMINAL_MS: f64 = 57.0;

/// Times the walk: the median of [`REPS`] walks, ms. Builds its cycle
/// (Sattolo's shuffle, so every entry lies on one cycle) and frees it
/// again, so the buffer is not part of the run's memory.
fn walk_ms() -> f64 {
    let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
    let mut rng = Rng::new(0, 0x57a1);
    for i in (1..ENTRIES).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut at = 0u32;
            for _ in 0..STEPS {
                at = next[at as usize];
            }
            std::hint::black_box(at);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}

/// The machine's CPU time so far, from the first line of `/proc/stat`:
/// (time the cores ran, time the hypervisor took while they wanted to
/// run), in clock ticks. `None` where the file or its steal column is
/// missing.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let t: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let f = |i: usize| t.get(i).copied();
    Some((f(0)? + f(1)? + f(2)? + f(5)? + f(6)?, f(7)?))
}

/// The first half of a run's calibration, taken before set-up.
pub struct Start {
    walk_ms: f64,
    ticks: Option<(u64, u64)>,
}

/// A run's calibration readings.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// The walk before set-up and after tear-down, ms.
    pub walk_ms: [f64; 2],
    /// Share of the cores' wanted time the hypervisor took in between.
    pub steal: f64,
}

pub fn start() -> Start {
    let ticks = cpu_ticks();
    Start {
        walk_ms: walk_ms(),
        ticks,
    }
}

impl Start {
    /// Takes the second readings; call it once the program's threads
    /// are gone.
    pub fn finish(self) -> Host {
        let walk_after = walk_ms();
        let steal = match (self.ticks, cpu_ticks()) {
            (Some((ran0, stolen0)), Some((ran1, stolen1))) => {
                let (ran, stolen) = (ran1.saturating_sub(ran0), stolen1.saturating_sub(stolen0));
                stolen as f64 / (ran + stolen).max(1) as f64
            }
            _ => 0.0,
        };
        Host {
            walk_ms: [self.walk_ms, walk_after],
            steal,
        }
    }
}

impl Host {
    /// The readings of a host running at the nominal speed.
    pub fn nominal() -> Self {
        Host {
            walk_ms: [NOMINAL_MS; 2],
            steal: 0.0,
        }
    }

    /// How much slower than nominal the host ran: above 1 when slower.
    pub fn factor(&self) -> f64 {
        (self.walk_ms[0] + self.walk_ms[1]) / 2.0 / NOMINAL_MS / (1.0 - self.steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_or_more_stolen_host_has_a_larger_factor() {
        assert_eq!(Host::nominal().factor(), 1.0);
        let slow = Host {
            walk_ms: [NOMINAL_MS * 1.1, NOMINAL_MS * 1.3],
            steal: 0.0,
        };
        assert!((slow.factor() - 1.2).abs() < 1e-12);
        let stolen = Host {
            steal: 0.5,
            ..Host::nominal()
        };
        assert_eq!(stolen.factor(), 2.0);
    }
}
