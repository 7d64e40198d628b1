//! The adaptive batch-window controller: a bounded AIMD loop that
//! replaces the static `max_batch`/`max_delay` dial with a window tuned
//! from what the scheduler actually observes.
//!
//! The static window is a cliff, not a dial. In the closed-loop serving
//! experiment this controller was built against, window-16 beat
//! window-1 by 1.68x, but window-64 *collapsed* to 0.68x with 2.9x worse
//! p50 — because the configured window was larger than the traffic's
//! in-flight request count, so every batch waited out the full
//! `max_delay` before flushing. The controller closes that failure mode
//! from both ends:
//!
//! * **Additive increase, escalating to slow-start**: a batch that
//!   flushed *full* means the window is the bottleneck — widen by one
//!   (up to `max_window`). Three *consecutive* full flushes mean the
//!   window is not just tight but far behind (the post-stall backlog
//!   shape: a write barrier froze the scheduler and a queue piled up) —
//!   from there each further full flush *doubles* the window so a
//!   backlog drains in a handful of batches instead of paying per-batch
//!   overhead hundreds of times. Any non-full flush drops back to
//!   additive probing.
//! * **Multiplicative decrease**: a batch that flushed on its
//!   *deadline* at under half occupancy means the window has outrun the
//!   offered load — halve it (down to `min_window`). Mild under-fill
//!   eases down by one instead, so steady traffic settles instead of
//!   sawing.
//! * **Derived delay**: the flush deadline is not a constant but the
//!   time the window is *expected* to take to fill — the inter-arrival
//!   EWMA times the remaining capacity, capped by the configured
//!   `max_delay`. At low load the window converges to `min_window` and
//!   the delay to zero: exactly the window-1 behavior, no queueing tax.
//!
//! The controller is **pure and deterministic**: it never reads the
//! clock — the scheduler feeds it timestamps in microseconds — so the
//! seeded property tests (`tests/regressions.rs`) replay arrival
//! patterns bit-for-bit, the window-64 cliff among them: a sparse
//! arrival stream through the scheduler's flush rule must wait clearly
//! less under the controller than under a static 64-wide window. Its
//! end-to-end effect is measured by hintbench's `serve-mixed` and
//! `serve-saturate` workloads. In `HINT_SERVE_WINDOW=fixed` mode the
//! scheduler never constructs one, leaving the static path byte-
//! identical to the pre-controller servers.

use std::time::Duration;

/// Smoothing factor for the inter-arrival EWMA (1/8: new samples move
/// the estimate fast enough to track a load shift within ~a batch, slow
/// enough that one burst gap does not whipsaw the derived delay).
const EWMA_WEIGHT: f64 = 0.125;

/// The controller's fixed bounds, taken from [`crate::ServeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Smallest window the controller may choose (>= 1).
    pub min_window: usize,
    /// Largest window the controller may choose (>= `min_window`).
    pub max_window: usize,
    /// Hard cap on the derived flush delay.
    pub max_delay: Duration,
}

/// Bounded AIMD batch-window controller. See the module docs for the
/// policy; see [`crate::ServeConfig`] for the knobs that bound it.
#[derive(Debug, Clone)]
pub struct WindowController {
    cfg: ControllerConfig,
    window: usize,
    /// EWMA of the gap between request arrivals, in microseconds.
    /// `None` until two arrivals have been seen.
    interarrival_us: Option<f64>,
    /// Timestamp of the last arrival fed in, in microseconds.
    last_arrival_us: Option<u64>,
    /// Consecutive full flushes; at three the increase escalates from
    /// additive (+1) to slow-start (x2) so a post-stall backlog drains
    /// in O(log) batches.
    full_streak: u32,
}

impl WindowController {
    /// A controller starting at `min_window` (the latency-safe end:
    /// until traffic proves it can fill bigger batches, queries are
    /// scheduled as if batching were off).
    pub fn new(cfg: ControllerConfig) -> Self {
        let cfg = ControllerConfig {
            min_window: cfg.min_window.max(1),
            max_window: cfg.max_window.max(cfg.min_window.max(1)),
            max_delay: cfg.max_delay,
        };
        Self {
            window: cfg.min_window,
            interarrival_us: None,
            last_arrival_us: None,
            full_streak: 0,
            cfg,
        }
    }

    /// The current batch window (always within `[min_window,
    /// max_window]`).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The controller's bounds.
    pub fn config(&self) -> ControllerConfig {
        self.cfg
    }

    /// Records one request arrival at `now_us` (microseconds on any
    /// monotonic scale), updating the inter-arrival EWMA.
    pub fn on_arrival(&mut self, now_us: u64) {
        if let Some(last) = self.last_arrival_us {
            let gap = now_us.saturating_sub(last) as f64;
            self.interarrival_us = Some(match self.interarrival_us {
                Some(ewma) => ewma + EWMA_WEIGHT * (gap - ewma),
                None => gap,
            });
        }
        self.last_arrival_us = Some(now_us);
    }

    /// Records one batch flush of `batch_len` requests. `deadline_hit`
    /// is true when the flush fired on the delay timer rather than on a
    /// full window. Only window-policy flushes are fed here; forced
    /// flushes (write barriers, disconnects, shutdown) say nothing
    /// about whether the window fits the load.
    pub fn on_flush(&mut self, batch_len: usize, deadline_hit: bool) {
        if batch_len == 0 {
            return;
        }
        if !deadline_hit || batch_len >= self.window {
            // the window was the binding constraint: probe wider. A
            // sustained run of full flushes is the post-stall backlog
            // shape — escalate from +1 probing to doubling so the
            // drain takes O(log) batches, not O(backlog)
            self.full_streak += 1;
            self.window = if self.full_streak >= 3 {
                // doubling is for draining a backlog, where arrivals
                // land nearly back-to-back and the EWMA collapses; at a
                // merely-steady rate it would overshoot into deadline
                // sawtooth. Cap the jump at the window the observed
                // rate can fill within max_delay, but never stall: a
                // full flush always buys at least the +1 probe.
                let rate_cap = match self.interarrival_us {
                    Some(ewma) if ewma > 0.0 => {
                        (self.cfg.max_delay.as_micros() as f64 / ewma) as usize + 1
                    }
                    _ => usize::MAX,
                };
                (self.window * 2)
                    .min(rate_cap.max(self.window + 1))
                    .min(self.cfg.max_window)
            } else {
                (self.window + 1).min(self.cfg.max_window)
            };
        } else if batch_len * 2 <= self.window {
            self.full_streak = 0;
            // deadline fired at under half occupancy — the window-64
            // cliff shape; cut multiplicatively before more batches pay
            // the full delay
            self.window = (self.window / 2).max(self.cfg.min_window);
        } else {
            // mildly under-full: ease down so steady input settles into
            // a +/-1 band instead of sawtoothing
            self.full_streak = 0;
            self.window = (self.window - 1).max(self.cfg.min_window);
        }
    }

    /// The flush deadline for the *next* batch: how long the current
    /// window is expected to take to fill at the observed arrival rate,
    /// capped by the configured `max_delay`. A window of 1 (or an
    /// unknown rate) waits nothing — that is the no-batching baseline.
    pub fn delay(&self) -> Duration {
        if self.window <= 1 {
            return Duration::ZERO;
        }
        match self.interarrival_us {
            None => Duration::ZERO,
            Some(ewma) => {
                let fill_us = ewma * (self.window - 1) as f64;
                let cap = self.cfg.max_delay.as_micros() as f64;
                Duration::from_micros(fill_us.min(cap).max(0.0) as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(min: usize, max: usize) -> ControllerConfig {
        ControllerConfig {
            min_window: min,
            max_window: max,
            max_delay: Duration::from_micros(500),
        }
    }

    #[test]
    fn starts_at_min_with_zero_delay() {
        let c = WindowController::new(cfg(1, 64));
        assert_eq!(c.window(), 1);
        assert_eq!(c.delay(), Duration::ZERO);
    }

    #[test]
    fn degenerate_bounds_are_repaired() {
        let c = WindowController::new(ControllerConfig {
            min_window: 0,
            max_window: 0,
            max_delay: Duration::ZERO,
        });
        assert_eq!(c.config().min_window, 1);
        assert_eq!(c.config().max_window, 1);
        assert_eq!(c.window(), 1);
    }

    #[test]
    fn full_batches_grow_to_the_cap_and_stop() {
        let mut c = WindowController::new(cfg(1, 8));
        for _ in 0..32 {
            let w = c.window();
            c.on_flush(w, false);
        }
        assert_eq!(c.window(), 8, "growth stops at max_window");
    }

    #[test]
    fn sustained_full_flushes_escalate_to_slow_start() {
        let mut c = WindowController::new(cfg(1, 64));
        // two full flushes probe additively...
        c.on_flush(c.window(), false);
        assert_eq!(c.window(), 2);
        c.on_flush(c.window(), false);
        assert_eq!(c.window(), 3);
        // ...the third and beyond double: a backlog drains in O(log)
        c.on_flush(c.window(), false);
        assert_eq!(c.window(), 6);
        c.on_flush(c.window(), false);
        assert_eq!(c.window(), 12);
        // any non-full flush drops back to additive probing
        c.on_flush(8, true); // mild under-fill
        assert_eq!(c.window(), 11);
        c.on_flush(c.window(), false);
        assert_eq!(c.window(), 12, "streak reset: +1, not x2");
    }

    #[test]
    fn deadline_underfill_halves_the_window() {
        let mut c = WindowController::new(cfg(1, 64));
        for _ in 0..8 {
            c.on_flush(c.window(), false);
        }
        assert_eq!(c.window(), 64);
        // deadline fires at tiny occupancy: the window-64 cliff shape
        c.on_flush(2, true);
        assert_eq!(c.window(), 32);
        c.on_flush(2, true);
        assert_eq!(c.window(), 16);
    }

    #[test]
    fn mild_underfill_eases_down_by_one() {
        let mut c = WindowController::new(cfg(1, 64));
        for _ in 0..8 {
            c.on_flush(c.window(), false);
        }
        assert_eq!(c.window(), 64);
        c.on_flush(40, true); // more than half full: -1, not /2
        assert_eq!(c.window(), 63);
    }

    #[test]
    fn empty_flushes_are_ignored() {
        let mut c = WindowController::new(cfg(1, 64));
        c.on_flush(0, true);
        assert_eq!(c.window(), 1);
    }

    #[test]
    fn delay_tracks_the_arrival_rate_and_caps() {
        let mut c = WindowController::new(cfg(1, 64));
        // arrivals every 10us
        for i in 0..100u64 {
            c.on_arrival(i * 10);
        }
        for _ in 0..3 {
            c.on_flush(c.window(), false);
        }
        assert_eq!(c.window(), 6);
        // expected fill time: ~10us * (6 - 1) = ~50us, under the cap
        let d = c.delay().as_micros();
        assert!((40..=60).contains(&d), "delay {d}us should track 50us");
        // a huge window caps at max_delay
        for _ in 0..100 {
            c.on_flush(c.window(), false);
        }
        assert_eq!(c.window(), 64);
        assert!(c.delay() <= Duration::from_micros(500));
    }

    #[test]
    fn slow_arrivals_keep_the_delay_capped_not_unbounded() {
        let mut c = WindowController::new(cfg(1, 64));
        c.on_arrival(0);
        c.on_arrival(1_000_000); // one request a second
        c.on_flush(c.window(), false);
        assert!(c.window() > 1);
        assert_eq!(c.delay(), Duration::from_micros(500), "capped at max");
    }

    #[test]
    fn steady_occupancy_converges_to_a_tight_band() {
        // G requests arrive per deadline period, forever: the window
        // must settle at ~G (full flushes grow past it, deadline
        // flushes pull it back) instead of drifting or sawtoothing
        let g = 12usize;
        let mut c = WindowController::new(cfg(1, 64));
        let mut windows = Vec::new();
        for _ in 0..200 {
            let w = c.window();
            if g >= w {
                c.on_flush(w, false); // window filled before the timer
            } else {
                c.on_flush(g, true);
            }
            windows.push(c.window());
        }
        let tail = &windows[windows.len() - 32..];
        let lo = *tail.iter().min().unwrap();
        let hi = *tail.iter().max().unwrap();
        assert!(
            hi - lo <= 2 && lo >= g - 1 && hi <= g + 2,
            "steady input must converge near {g}: tail band [{lo}, {hi}]"
        );
    }
}
