//! Hardened environment-variable parsing for the workspace's tuning
//! knobs (the `HINT_SERVE_*` family, `HINT_MAX_INDEXES`,
//! `HINT_SNAPSHOT_CHUNK`).
//!
//! Before this module, an unparsable knob silently fell back to its
//! default — a deployment that exported `HINT_SERVE_MAX_BATCH=four` got
//! the default batch cap and no hint why. Every knob now goes
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

    fn max_batch(raw: &str) -> Result<usize, EnvError> {
        parse("HINT_SERVE_MAX_BATCH", raw, "must be >= 1", |&n: &usize| {
            n >= 1
        })
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(max_batch("4"), Ok(4));
        assert_eq!(max_batch(" 16 "), Ok(16)); // whitespace tolerated
        assert_eq!(max_batch("1"), Ok(1));
    }

    #[test]
    fn garbage_is_unparsable() {
        for raw in ["four", "", "4x", "-2", "1.5", "0x10"] {
            match max_batch(raw) {
                Err(EnvError::Unparsable { name, raw: got }) => {
                    assert_eq!(name, "HINT_SERVE_MAX_BATCH");
                    assert_eq!(got, raw);
                }
                other => panic!("{raw:?} should be unparsable, got {other:?}"),
            }
        }
    }

    #[test]
    fn constraint_violations_are_invalid() {
        match max_batch("0") {
            Err(EnvError::Invalid { constraint, .. }) => {
                assert_eq!(constraint, "must be >= 1");
            }
            other => panic!("0 should violate the constraint, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_the_variable_and_value() {
        let msg = max_batch("four").unwrap_err().to_string();
        assert!(msg.contains("HINT_SERVE_MAX_BATCH"), "{msg}");
        assert!(msg.contains("four"), "{msg}");
        let msg = max_batch("0").unwrap_err().to_string();
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
}
