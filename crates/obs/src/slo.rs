//! SLO burn-rate monitoring over the request latency histograms.
//!
//! Classic multi-window error-budget tracking: the operator declares a
//! latency target (`RSD_SLO_P99_MS`) and an error budget
//! (`RSD_SLO_BUDGET`, the fraction of requests allowed to exceed the
//! target; default 1%). Every series tick the driver feeds the
//! cumulative `(total, over-target)` request counts from the
//! `serve.request` histogram into a [`BurnMonitor`], which computes the
//! budget burn rate over a trailing **fast** (5 s) and **slow** (60 s)
//! window. The run is *burning* only when both exceed 1× — the fast
//! window makes detection prompt, the slow window keeps a single
//! stray tick from paging.
//!
//! A burning tick emits an `slo.burn` event plus a `{"kind":"slo_burn"}`
//! series line, increments the process-wide [`burn_events`] counter,
//! and latches [`degraded`] — which flips the live `/health` endpoint
//! to 503 and makes `obs_top --check` exit 6. The latch is deliberate:
//! a soak that burned its budget *at any point* failed, even if the
//! tail of the run recovered.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Fast detection window.
pub const FAST_WINDOW_MS: u64 = 5_000;
/// Slow confirmation window.
pub const SLOW_WINDOW_MS: u64 = 60_000;

/// Parsed SLO declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Latency target in milliseconds.
    pub target_p99_ms: f64,
    /// Allowed fraction of requests over target.
    pub budget: f64,
}

impl SloConfig {
    /// The target in nanoseconds, for histogram threshold counting.
    pub fn target_ns(&self) -> u64 {
        (self.target_p99_ms * 1e6) as u64
    }
}

/// Read the SLO declaration from the environment. `None` when
/// `RSD_SLO_P99_MS` is unset or disabled; garbage in either knob aborts
/// naming the knob.
pub fn config_from_env() -> Option<SloConfig> {
    let target_p99_ms = crate::knob::SLO_P99_MS.get::<Option<f64>>()?;
    let budget: f64 = crate::knob::SLO_BUDGET.get();
    assert!(
        budget < 1.0,
        "invalid RSD_SLO_BUDGET value {budget}; expected a fraction in (0, 1)"
    );
    Some(SloConfig {
        target_p99_ms,
        budget,
    })
}

#[derive(Debug, Clone, Copy)]
struct Cumulative {
    t_ms: u64,
    total: u64,
    bad: u64,
}

/// One tick's burn verdict.
#[derive(Debug, Clone, Copy)]
pub struct BurnSample {
    /// Budget burn rate over the trailing fast window (1.0 = burning
    /// exactly at budget).
    pub fast_burn: f64,
    /// Budget burn rate over the trailing slow window.
    pub slow_burn: f64,
    /// True when both windows burn above 1×.
    pub burning: bool,
}

/// Multi-window burn-rate tracker fed cumulative counts once per tick.
///
/// Windows clamp to the available history: early in a run both windows
/// span from t=0, so a cold start with a bad first second still trips.
#[derive(Debug)]
pub struct BurnMonitor {
    cfg: SloConfig,
    samples: VecDeque<Cumulative>,
}

impl BurnMonitor {
    /// Monitor for one SLO declaration.
    pub fn new(cfg: SloConfig) -> BurnMonitor {
        BurnMonitor {
            cfg,
            samples: VecDeque::new(),
        }
    }

    /// The declaration this monitor enforces.
    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Feed the cumulative `(total, over-target)` counts observed by
    /// time `t_ms` (ms since run start) and get the windowed verdict.
    pub fn observe(&mut self, t_ms: u64, total: u64, bad: u64) -> BurnSample {
        self.samples.push_back(Cumulative { t_ms, total, bad });
        let fast_burn = self.window_burn(t_ms, FAST_WINDOW_MS);
        let slow_burn = self.window_burn(t_ms, SLOW_WINDOW_MS);
        // Trim history that can no longer anchor the slow window; keep
        // one sample at/beyond the boundary so deltas stay exact.
        while self.samples.len() > 2 && self.samples[1].t_ms + SLOW_WINDOW_MS <= t_ms {
            self.samples.pop_front();
        }
        BurnSample {
            fast_burn,
            slow_burn,
            burning: fast_burn > 1.0 && slow_burn > 1.0,
        }
    }

    /// Burn rate over the trailing window ending at `now_ms`: the
    /// fraction of requests over target within the window, divided by
    /// the budget. Zero when the window saw no requests.
    fn window_burn(&self, now_ms: u64, window_ms: u64) -> f64 {
        let latest = match self.samples.back() {
            Some(s) => *s,
            None => return 0.0,
        };
        let cutoff = now_ms.saturating_sub(window_ms);
        // Newest sample at or before the cutoff anchors the delta; if
        // the run is younger than the window, anchor at zero (run start).
        let base = self
            .samples
            .iter()
            .rev()
            .find(|s| s.t_ms <= cutoff)
            .copied()
            .unwrap_or(Cumulative {
                t_ms: 0,
                total: 0,
                bad: 0,
            });
        let d_total = latest.total.saturating_sub(base.total);
        if d_total == 0 {
            return 0.0;
        }
        let d_bad = latest.bad.saturating_sub(base.bad);
        (d_bad as f64 / d_total as f64) / self.cfg.budget
    }
}

/// Count of burning ticks so far (process-wide).
static BURN_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Latched once any tick burns; read by `/health` and `obs_top --check`.
static DEGRADED: AtomicBool = AtomicBool::new(false);

/// How many ticks have burned so far in this process.
pub fn burn_events() -> u64 {
    BURN_EVENTS.load(Ordering::Relaxed)
}

/// True once any tick has burned (latched for the life of the process).
pub fn degraded() -> bool {
    DEGRADED.load(Ordering::Relaxed)
}

/// Register one burning tick: bump the counter and latch degradation.
/// Called by the time-series driver.
pub fn record_burn() {
    BURN_EVENTS.fetch_add(1, Ordering::Relaxed);
    DEGRADED.store(true, Ordering::Relaxed);
}

/// Clear the burn latch and counter (test isolation only).
pub fn reset() {
    BURN_EVENTS.store(0, Ordering::Relaxed);
    DEGRADED.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: SloConfig = SloConfig {
        target_p99_ms: 250.0,
        budget: 0.05,
    };

    #[test]
    fn target_converts_to_ns() {
        assert_eq!(CFG.target_ns(), 250_000_000);
    }

    #[test]
    fn healthy_traffic_never_burns() {
        let mut m = BurnMonitor::new(CFG);
        for tick in 1..=100u64 {
            // 2% of requests over target: well inside the 5% budget.
            let total = tick * 1_000;
            let sample = m.observe(tick * 100, total, total / 50);
            assert!(!sample.burning, "tick {tick}: {sample:?}");
            assert!(sample.fast_burn <= 1.0);
        }
    }

    #[test]
    fn sustained_breach_burns_both_windows() {
        let mut m = BurnMonitor::new(CFG);
        let mut last = BurnSample {
            fast_burn: 0.0,
            slow_burn: 0.0,
            burning: false,
        };
        for tick in 1..=20u64 {
            // Half of all requests over target: 10x the budget.
            let total = tick * 500;
            last = m.observe(tick * 100, total, total / 2);
        }
        assert!(last.burning, "{last:?}");
        assert!(last.fast_burn > 5.0);
        assert!(last.slow_burn > 5.0);
    }

    #[test]
    fn short_blip_after_long_health_does_not_burn_the_slow_window() {
        let mut m = BurnMonitor::new(CFG);
        // 120 s of clean traffic at 1k req/s…
        let mut total = 0u64;
        for tick in 1..=120u64 {
            total = tick * 1_000;
            m.observe(tick * 1_000, total, 0);
        }
        // …then a 2 s blip where every request breaches.
        let sample = m.observe(122_000, total + 2_000, 2_000);
        assert!(sample.fast_burn > 1.0, "{sample:?}");
        assert!(sample.slow_burn < 1.0, "{sample:?}");
        assert!(!sample.burning);
    }

    #[test]
    fn cold_start_windows_clamp_to_run_start() {
        let mut m = BurnMonitor::new(CFG);
        // 200 ms into the run, everything is breaching: both windows
        // clamp to t=0 and the monitor trips immediately.
        let sample = m.observe(200, 100, 100);
        assert!(sample.burning, "{sample:?}");
    }

    #[test]
    fn idle_windows_report_zero_burn() {
        let mut m = BurnMonitor::new(CFG);
        let sample = m.observe(1_000, 0, 0);
        assert_eq!(sample.fast_burn, 0.0);
        assert!(!sample.burning);
    }

    #[test]
    fn history_trim_keeps_slow_window_anchor() {
        let mut m = BurnMonitor::new(CFG);
        for tick in 1..=400u64 {
            m.observe(tick * 1_000, tick * 100, 0);
        }
        // ~60 s of anchored history + the boundary sample, not 400.
        assert!(m.samples.len() <= 63, "kept {}", m.samples.len());
        // The anchor still spans the full slow window.
        assert!(m.samples[0].t_ms + SLOW_WINDOW_MS <= 400_000);
    }
}
