//! Environment-knob parsing with hard errors on invalid values.
//!
//! The `RSD_SCALE` precedent: a typo'd knob must abort with its own name
//! in the message, never silently fall back to a default — a run that
//! ignores the operator's `RSD_OBS_TICK_MS=5O` is worse than no run.

/// The values that explicitly disable an optional knob.
pub(crate) fn is_disabled(raw: &str) -> bool {
    raw.is_empty() || raw == "0" || raw == "off"
}

/// Whether on/off knob `var` is on: set to anything but a disable
/// spelling.
pub(crate) fn flag_env(var: &str) -> bool {
    std::env::var(var).is_ok_and(|v| !is_disabled(&v))
}

/// Parse `raw` (from env var `var`) as a positive integer. `None` and
/// the explicit disable spellings (`""`, `"0"`, `"off"`) yield `None`;
/// anything else must parse as a positive integer or the process aborts
/// naming the knob.
fn optional_positive(var: &str, raw: Option<String>) -> Option<u64> {
    let raw = raw?;
    if is_disabled(&raw) {
        return None;
    }
    match raw.trim().parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!(
            "invalid {var} value {raw:?}; expected a positive integer \
             (or \"0\"/\"off\" to disable)"
        ),
    }
}

/// [`optional_positive`] reading the environment directly.
pub fn optional_positive_env(var: &str) -> Option<u64> {
    optional_positive(var, std::env::var(var).ok())
}

/// Like [`optional_positive`], but disabled/unset resolves to `default`.
pub fn positive_or_default(var: &str, raw: Option<String>, default: u64) -> u64 {
    optional_positive(var, raw).unwrap_or(default)
}

/// Parse `raw` (from env var `var`) as a positive finite float. Unset or
/// empty resolves to `default`; anything else must parse as a float
/// `> 0` or the process aborts naming the knob.
pub fn positive_float(var: &str, raw: Option<String>, default: f64) -> f64 {
    let Some(raw) = raw else { return default };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return default;
    }
    match trimmed.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => v,
        _ => panic!("invalid {var} value {raw:?}; expected a positive number"),
    }
}

/// [`positive_float`] reading the environment directly.
pub fn positive_float_env(var: &str, default: f64) -> f64 {
    positive_float(var, std::env::var(var).ok(), default)
}

/// Parse `raw` (from env var `var`) as a TCP port. Unset and the
/// disable spellings (`""`, `"0"`, `"off"`) yield `None`; anything else
/// must parse as a port in `1..=65535` or the process aborts naming the
/// knob.
pub fn port(var: &str, raw: Option<String>) -> Option<u16> {
    let raw = raw?;
    if is_disabled(&raw) {
        return None;
    }
    match raw.trim().parse::<u16>() {
        Ok(p) if p > 0 => Some(p),
        _ => panic!(
            "invalid {var} value {raw:?}; expected a TCP port in 1..=65535 \
             (or \"0\"/\"off\" to disable)"
        ),
    }
}

/// [`port`] reading the environment directly.
pub fn port_env(var: &str) -> Option<u16> {
    port(var, std::env::var(var).ok())
}

/// Parse `raw` (from env var `var`) as an integer in `lo..=hi`. Unset
/// or empty resolves to `default`; anything else must parse inside the
/// bounds or the process aborts naming the knob *and* the valid range.
fn bounded_usize(var: &str, raw: Option<String>, lo: usize, hi: usize, default: usize) -> usize {
    debug_assert!((lo..=hi).contains(&default));
    let Some(raw) = raw else { return default };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return default;
    }
    match trimmed.parse::<usize>() {
        Ok(n) if (lo..=hi).contains(&n) => n,
        _ => panic!("invalid {var} value {raw:?}; expected an integer in {lo}..={hi}"),
    }
}

/// [`bounded_usize`] reading the environment directly.
pub fn bounded_usize_env(var: &str, lo: usize, hi: usize, default: usize) -> usize {
    bounded_usize(var, std::env::var(var).ok(), lo, hi, default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_disable_spellings_yield_none() {
        assert_eq!(optional_positive("K", None), None);
        for off in ["", "0", "off"] {
            assert_eq!(optional_positive("K", Some(off.to_string())), None);
        }
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(optional_positive("K", Some("50".into())), Some(50));
        assert_eq!(optional_positive("K", Some(" 250 ".into())), Some(250));
        assert_eq!(positive_or_default("K", None, 7), 7);
        assert_eq!(positive_or_default("K", Some("off".into()), 7), 7);
        assert_eq!(positive_or_default("K", Some("3".into()), 7), 3);
    }

    #[test]
    fn positive_float_parses_and_defaults() {
        assert_eq!(positive_float("K", None, 0.05), 0.05);
        assert_eq!(positive_float("K", Some("".into()), 0.05), 0.05);
        assert_eq!(positive_float("K", Some("2.5".into()), 0.05), 2.5);
        assert_eq!(positive_float("K", Some(" 99 ".into()), 0.0), 99.0);
        for bad in ["banana", "-1.5", "0", "0.0", "inf", "NaN"] {
            let err = std::panic::catch_unwind(|| {
                positive_float("RSD_QUANT_EPS", Some(bad.to_string()), 0.05)
            })
            .expect_err("must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("RSD_QUANT_EPS"),
                "names the knob for {bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn port_parses_disables_and_hard_errors() {
        assert_eq!(port("K", None), None);
        for off in ["", "0", "off"] {
            assert_eq!(port("K", Some(off.to_string())), None);
        }
        assert_eq!(port("K", Some("9100".into())), Some(9100));
        assert_eq!(port("K", Some(" 65535 ".into())), Some(65535));
        for bad in ["banana", "-1", "65536", "80.0"] {
            let err = std::panic::catch_unwind(|| port("RSD_OBS_HTTP", Some(bad.to_string())))
                .expect_err("must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("RSD_OBS_HTTP") && msg.contains("65535"),
                "names the knob and range for {bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn bounded_usize_defaults_bounds_and_hard_errors() {
        assert_eq!(bounded_usize("K", None, 1, 1024, 4), 4);
        assert_eq!(bounded_usize("K", Some("".into()), 1, 1024, 4), 4);
        assert_eq!(bounded_usize("K", Some(" 16 ".into()), 1, 1024, 4), 16);
        assert_eq!(bounded_usize("K", Some("1024".into()), 1, 1024, 4), 1024);
        for bad in ["0", "1025", "banana", "-2"] {
            let err = std::panic::catch_unwind(|| {
                bounded_usize("RSD_OBS_EXEMPLARS", Some(bad.to_string()), 1, 1024, 4)
            })
            .expect_err("must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("RSD_OBS_EXEMPLARS") && msg.contains("1..=1024"),
                "names the knob and range for {bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn garbage_hard_errors_with_the_knob_named() {
        for bad in ["banana", "5O", "-3", "1.5", "0x10"] {
            let err = std::panic::catch_unwind(|| {
                optional_positive("RSD_OBS_TICK_MS", Some(bad.to_string()))
            })
            .expect_err("must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("RSD_OBS_TICK_MS"),
                "panic must name the knob for {bad:?}: {msg}"
            );
        }
    }
}
