//! The continuous layer's arm flag.
//!
//! While armed (a time-series driver is running, or a caller such as a
//! benchmark harness arms it directly), span ends and
//! [`crate::latency_ns`] feed the HDR histograms in [`crate::hist`], and
//! request contexts ([`crate::reqctx::ReqCtx`]) record their stage
//! breakdowns. Disarmed, each of those sites costs one atomic load.

use std::sync::atomic::{AtomicBool, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Arm or disarm the continuous layer. Armed by
/// [`crate::timeseries::start`]; disarmed when the driver stops.
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::Release);
}

/// Whether the continuous layer is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}
