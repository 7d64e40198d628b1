//! Hardened environment-variable parsing for the workspace's tuning
//! knobs (`HINT_SHARD_PIN`, the `HINT_SERVE_*` family).
//!
//! Before this module, an unparsable knob silently fell back to its
//! default — a deployment that exported `HINT_SERVE_MAX_BATCH=four` got
//! the default batch window and no hint why. Every knob now goes
//! through [`parse`] (pure, unit-testable) and [`var_or`] (reads the
//! process environment, warns **once per variable** on stderr when the
//! value is rejected, then falls back), so a garbled knob is tolerated
//! but never silent.

use std::collections::HashSet;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Mutex;

/// Why an environment value was rejected; carried in the warning line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The value did not parse as the expected type.
    Unparsable {
        /// Variable name.
        name: String,
        /// The raw value found.
        raw: String,
    },
    /// The value parsed but failed the knob's validity constraint.
    Invalid {
        /// Variable name.
        name: String,
        /// The raw value found.
        raw: String,
        /// Human-readable constraint, e.g. `"must be >= 1"`.
        constraint: &'static str,
    },
}

impl Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::Unparsable { name, raw } => {
                write!(f, "{name}={raw:?} is not a valid value")
            }
            EnvError::Invalid {
                name,
                raw,
                constraint,
            } => write!(f, "{name}={raw:?} rejected: {constraint}"),
        }
    }
}

/// A hardened boolean knob value (`HINT_SERVE_LANES` and friends):
/// parses `on`/`off` plus the common spellings `1`/`0` and
/// `true`/`false` (case-insensitive), and renders canonically as
/// `on`/`off` so fallback warnings read the way the docs spell the
/// knob. Anything else is [`EnvError::Unparsable`] — a silent typo
/// (`ture`, `onn`) must not silently flip a dispatch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switch {
    /// The knob is enabled.
    On,
    /// The knob is disabled.
    Off,
}

impl Switch {
    /// True when the switch is [`Switch::On`].
    pub fn is_on(self) -> bool {
        matches!(self, Switch::On)
    }
}

impl FromStr for Switch {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        if ["on", "1", "true"]
            .iter()
            .any(|v| s.eq_ignore_ascii_case(v))
        {
            Ok(Switch::On)
        } else if ["off", "0", "false"]
            .iter()
            .any(|v| s.eq_ignore_ascii_case(v))
        {
            Ok(Switch::Off)
        } else {
            Err(())
        }
    }
}

impl Display for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Switch::On => "on",
            Switch::Off => "off",
        })
    }
}

/// How the serve scheduler sizes its batch window (`HINT_SERVE_WINDOW`):
/// `fixed` keeps the configured `max_batch`/`max_delay` exactly as
/// given (the pre-controller behavior, byte-identical on the wire);
/// `adaptive` lets the scheduler's AIMD controller tune the window
/// between the configured min/max from observed arrival rate and batch
/// occupancy. Spelled like [`crate::RetunePolicy`]: the canonical
/// lowercase word, case-insensitive on input, anything else
/// [`EnvError::Unparsable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Static window: use `max_batch`/`max_delay` verbatim.
    Fixed,
    /// AIMD-controlled window within `[min_window, max_window]`.
    Adaptive,
}

impl FromStr for WindowMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        if s.eq_ignore_ascii_case("fixed") {
            Ok(WindowMode::Fixed)
        } else if s.eq_ignore_ascii_case("adaptive") {
            Ok(WindowMode::Adaptive)
        } else {
            Err(())
        }
    }
}

impl Display for WindowMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WindowMode::Fixed => "fixed",
            WindowMode::Adaptive => "adaptive",
        })
    }
}

/// Parses `raw` as a `T` and checks it against `valid` (with its
/// human-readable `constraint` for the error message). Pure: no
/// environment access, no logging — this is the function the unit tests
/// drive.
pub fn parse<T: FromStr>(
    name: &str,
    raw: &str,
    constraint: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, EnvError> {
    let value: T = raw.trim().parse().map_err(|_| EnvError::Unparsable {
        name: name.to_string(),
        raw: raw.to_string(),
    })?;
    if !valid(&value) {
        return Err(EnvError::Invalid {
            name: name.to_string(),
            raw: raw.to_string(),
            constraint,
        });
    }
    Ok(value)
}

/// Variables already warned about, so a rejected knob logs once per
/// process rather than once per query batch.
fn warned() -> &'static Mutex<HashSet<String>> {
    static WARNED: std::sync::OnceLock<Mutex<HashSet<String>>> = std::sync::OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Reads `name` from the process environment. Unset → `default`.
/// Set-but-rejected (unparsable, or failing `valid`) → one stderr
/// warning naming the variable, the offending value and the fallback,
/// then `default`.
pub fn var_or<T: FromStr + Display>(
    name: &str,
    default: T,
    constraint: &'static str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let raw = match std::env::var(name) {
        Ok(raw) => raw,
        Err(_) => return default,
    };
    match parse(name, &raw, constraint, valid) {
        Ok(v) => v,
        Err(e) => {
            let mut warned = warned().lock().unwrap_or_else(|p| p.into_inner());
            if warned.insert(name.to_string()) {
                eprintln!("warning: ignoring {e}; using default {name}={default}");
            }
            default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(raw: &str) -> Result<usize, EnvError> {
        parse("HINT_SHARD_THREADS", raw, "must be >= 1", |&n: &usize| {
            n >= 1
        })
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(threads("4"), Ok(4));
        assert_eq!(threads(" 16 "), Ok(16)); // whitespace tolerated
        assert_eq!(threads("1"), Ok(1));
    }

    #[test]
    fn garbage_is_unparsable() {
        for raw in ["four", "", "4x", "-2", "1.5", "0x10"] {
            match threads(raw) {
                Err(EnvError::Unparsable { name, raw: got }) => {
                    assert_eq!(name, "HINT_SHARD_THREADS");
                    assert_eq!(got, raw);
                }
                other => panic!("{raw:?} should be unparsable, got {other:?}"),
            }
        }
    }

    #[test]
    fn constraint_violations_are_invalid() {
        match threads("0") {
            Err(EnvError::Invalid { constraint, .. }) => {
                assert_eq!(constraint, "must be >= 1");
            }
            other => panic!("0 should violate the constraint, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_the_variable_and_value() {
        let msg = threads("four").unwrap_err().to_string();
        assert!(msg.contains("HINT_SHARD_THREADS"), "{msg}");
        assert!(msg.contains("four"), "{msg}");
        let msg = threads("0").unwrap_err().to_string();
        assert!(msg.contains("must be >= 1"), "{msg}");
    }

    #[test]
    fn var_or_defaults_when_unset() {
        // variable name chosen to never exist in a real environment
        let v = var_or("HINT_TEST_ENV_UNSET_XYZZY", 7usize, "must be >= 1", |&n| {
            n >= 1
        });
        assert_eq!(v, 7);
    }

    fn cluster(raw: &str) -> Result<Switch, EnvError> {
        parse("HINT_BATCH_CLUSTER", raw, "on or off", |_| true)
    }

    #[test]
    fn switch_valid_values_parse() {
        for raw in ["on", "On", "ON", "1", "true", "TRUE", " on "] {
            assert_eq!(cluster(raw), Ok(Switch::On), "{raw:?}");
        }
        for raw in ["off", "Off", "OFF", "0", "false", "FALSE", " off "] {
            assert_eq!(cluster(raw), Ok(Switch::Off), "{raw:?}");
        }
        assert!(Switch::On.is_on());
        assert!(!Switch::Off.is_on());
    }

    #[test]
    fn switch_garbage_is_unparsable() {
        for raw in ["", "yes", "no", "2", "onn", "ture", "o n"] {
            match cluster(raw) {
                Err(EnvError::Unparsable { name, raw: got }) => {
                    assert_eq!(name, "HINT_BATCH_CLUSTER");
                    assert_eq!(got, raw);
                }
                other => panic!("{raw:?} should be unparsable, got {other:?}"),
            }
        }
    }

    #[test]
    fn switch_renders_canonically() {
        assert_eq!(Switch::On.to_string(), "on");
        assert_eq!(Switch::Off.to_string(), "off");
    }

    fn window(raw: &str) -> Result<WindowMode, EnvError> {
        parse("HINT_SERVE_WINDOW", raw, "fixed or adaptive", |_| true)
    }

    #[test]
    fn window_mode_valid_values_parse() {
        for raw in ["fixed", "Fixed", "FIXED", " fixed "] {
            assert_eq!(window(raw), Ok(WindowMode::Fixed), "{raw:?}");
        }
        for raw in ["adaptive", "Adaptive", "ADAPTIVE", " adaptive "] {
            assert_eq!(window(raw), Ok(WindowMode::Adaptive), "{raw:?}");
        }
    }

    #[test]
    fn window_mode_garbage_is_unparsable() {
        for raw in ["", "auto", "aimd", "fixedd", "on", "1"] {
            match window(raw) {
                Err(EnvError::Unparsable { name, raw: got }) => {
                    assert_eq!(name, "HINT_SERVE_WINDOW");
                    assert_eq!(got, raw);
                }
                other => panic!("{raw:?} should be unparsable, got {other:?}"),
            }
        }
    }

    #[test]
    fn window_mode_renders_canonically() {
        assert_eq!(WindowMode::Fixed.to_string(), "fixed");
        assert_eq!(WindowMode::Adaptive.to_string(), "adaptive");
    }

    #[test]
    fn durations_parse_as_micros() {
        let us = parse("HINT_SERVE_MAX_DELAY_US", "250", "", |_: &u64| true);
        assert_eq!(us, Ok(250));
        assert!(parse("HINT_SERVE_MAX_DELAY_US", "soon", "", |_: &u64| true).is_err());
    }
}
