//! Centralized warn-and-ignore parsing for `ANTIDOTE_*` environment
//! knobs.
//!
//! Every knob in the workspace follows the same contract: unset means
//! "use the default", a well-formed value overrides it, and a malformed
//! value is **ignored with a warning** (an `env.ignored` event through
//! the console sink) — a typo must never crash a long training run or a
//! serving process. This module is the single implementation of that
//! contract; the binaries and the thread/kernel-backend selection in
//! `antidote-par`/`antidote-tensor` use it instead of hand-rolled
//! `parse`/`eprintln!` blocks. The serving and HTTP crates read no
//! environment: they take typed configs.

use crate::event::warn_ignored_env;
use std::str::FromStr;

/// Parses `key` with `T::from_str`. Unset returns `None`; a malformed
/// value warns and returns `None`.
pub fn parse<T: FromStr>(key: &str) -> Option<T> {
    let raw = std::env::var(key).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_ignored_env(key, &raw, "unparseable");
            None
        }
    }
}

/// Like [`parse`], falling back to `default` when unset or malformed.
pub fn parse_or<T: FromStr>(key: &str, default: T) -> T {
    parse(key).unwrap_or(default)
}

/// Parses `key` as a value that must be strictly greater than zero
/// (worker counts, batch sizes, millisecond windows, backoff factors).
/// Non-positive or malformed values warn and return `None`.
pub fn positive<T>(key: &str) -> Option<T>
where
    T: FromStr + PartialOrd + Default,
{
    let raw = std::env::var(key).ok()?;
    match raw.parse::<T>() {
        Ok(v) if v > T::default() => Some(v),
        _ => {
            warn_ignored_env(key, &raw, "must be positive");
            None
        }
    }
}

/// Emits the standard `env.ignored` warning for a knob a caller
/// rejected with validation of its own (e.g. a finiteness check on top
/// of [`positive`]), keeping the warning shape uniform.
pub fn warn_ignored(key: &str, raw: &str, reason: &str) {
    warn_ignored_env(key, raw, reason);
}

/// Every `ANTIDOTE_*` knob the workspace reads, in one place.
///
/// [`warn_unknown`] checks the process environment against this list so
/// a typo'd knob (`ANTIDOTE_THREDS=4`) warns instead of being silently
/// inert. `tests/doc_references.rs` keeps it equal to the knob table in
/// the workspace README and to the knobs the sources read — `obs` is
/// the lowest layer, so the full list lives here rather than being
/// assembled from the crates that own each knob.
pub const KNOWN_KNOBS: &[&str] = &[
    // tensor / par
    "ANTIDOTE_THREADS",
    "ANTIDOTE_KERNEL_BACKEND",
    // obs
    "ANTIDOTE_OBS",
    "ANTIDOTE_TRACE",
    "ANTIDOTE_LOG",
    // core / bench training harness
    "ANTIDOTE_SCALE",
    "ANTIDOTE_WORKLOAD",
    "ANTIDOTE_MAX_RETRIES",
    "ANTIDOTE_LR_BACKOFF",
    "ANTIDOTE_GRAD_CLIP",
    "ANTIDOTE_INJECT_FAULT",
    "ANTIDOTE_INJECT_WORKLOAD",
    "ANTIDOTE_CKPT",
    "ANTIDOTE_CKPT_EVERY",
    "ANTIDOTE_RESUME",
    "ANTIDOTE_STOP_AFTER",
];

/// Keys starting with this prefix are reserved for unit tests and never
/// warned about.
const TEST_PREFIX: &str = "ANTIDOTE_TEST_";

/// Warns (one `env.ignored` event per offender) about every set
/// `ANTIDOTE_*` variable the workspace does not recognize — the
/// misspelled-knob safety net. Called once per process from
/// `init_from_env`; harmless to call again.
pub fn warn_unknown() {
    warn_unknown_in(std::env::vars());
}

/// [`warn_unknown`] against an explicit `(key, value)` list
/// (unit-testable without polluting the real environment beyond the
/// reserved test prefix).
fn warn_unknown_in(vars: impl Iterator<Item = (String, String)>) {
    for (key, value) in vars {
        if !key.starts_with("ANTIDOTE_") || key.starts_with(TEST_PREFIX) {
            continue;
        }
        if !KNOWN_KNOBS.contains(&key.as_str()) {
            warn_ignored_env(&key, &value, "unrecognized ANTIDOTE_* variable (typo?)");
        }
    }
}

/// Parses `key` as a boolean flag: `1`/`true`/`on`/`yes` and
/// `0`/`false`/`off`/`no` (case-insensitive). Anything else warns and
/// returns `None`.
pub fn flag(key: &str) -> Option<bool> {
    let raw = std::env::var(key).ok()?;
    match raw.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => {
            warn_ignored_env(key, &raw, "must be a boolean (1/0/true/false/on/off)");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use crate::{drain_events, reset};

    // Tests mutate process-global env vars; each uses a distinct key and
    // holds the registry lock so event assertions do not interleave.

    #[test]
    fn unset_is_none_without_warning() {
        let _guard = test_lock::hold();
        reset();
        assert_eq!(parse::<u64>("ANTIDOTE_TEST_UNSET"), None);
        assert!(drain_events().iter().all(|l| !l.contains("ANTIDOTE_TEST_UNSET")));
    }

    #[test]
    fn well_formed_values_parse() {
        let _guard = test_lock::hold();
        std::env::set_var("ANTIDOTE_TEST_OK", "42");
        assert_eq!(parse::<u64>("ANTIDOTE_TEST_OK"), Some(42));
        assert_eq!(parse_or("ANTIDOTE_TEST_OK", 7u64), 42);
        assert_eq!(positive::<u64>("ANTIDOTE_TEST_OK"), Some(42));
        std::env::remove_var("ANTIDOTE_TEST_OK");
    }

    #[test]
    fn malformed_values_warn_and_fall_back() {
        let _guard = test_lock::hold();
        reset();
        std::env::set_var("ANTIDOTE_TEST_BAD", "not-a-number");
        assert_eq!(parse::<u64>("ANTIDOTE_TEST_BAD"), None);
        assert_eq!(parse_or("ANTIDOTE_TEST_BAD", 9u64), 9);
        let lines = drain_events();
        assert!(lines.iter().any(|l| l.contains("env.ignored") && l.contains("ANTIDOTE_TEST_BAD")));
        std::env::remove_var("ANTIDOTE_TEST_BAD");
    }

    #[test]
    fn positive_rejects_zero_and_negative() {
        let _guard = test_lock::hold();
        reset();
        std::env::set_var("ANTIDOTE_TEST_ZERO", "0");
        assert_eq!(positive::<u64>("ANTIDOTE_TEST_ZERO"), None);
        std::env::set_var("ANTIDOTE_TEST_NEG", "-1.5");
        assert_eq!(positive::<f64>("ANTIDOTE_TEST_NEG"), None);
        let lines = drain_events();
        assert!(lines.iter().any(|l| l.contains("ANTIDOTE_TEST_ZERO")));
        assert!(lines.iter().any(|l| l.contains("ANTIDOTE_TEST_NEG")));
        std::env::remove_var("ANTIDOTE_TEST_ZERO");
        std::env::remove_var("ANTIDOTE_TEST_NEG");
    }

    #[test]
    fn unknown_antidote_vars_warn_known_and_foreign_do_not() {
        let _guard = test_lock::hold();
        reset();
        let vars = [
            ("ANTIDOTE_THREDS", "4"),         // typo'd knob: must warn
            ("ANTIDOTE_SERVE_WORKERS", "2"),  // retired knob: must warn
            ("ANTIDOTE_THREADS", "4"),        // known knob: silent
            ("ANTIDOTE_WORKLOAD", "vgg"),     // known knob: silent
            ("ANTIDOTE_TEST_WHATEVER", "x"),  // reserved test prefix: silent
            ("PATH", "/usr/bin"),             // foreign var: silent
        ];
        super::warn_unknown_in(
            vars.iter().map(|(k, v)| (k.to_string(), v.to_string())),
        );
        let lines = drain_events();
        for loud in ["ANTIDOTE_THREDS", "ANTIDOTE_SERVE_WORKERS"] {
            assert!(
                lines.iter().any(|l| l.contains("env.ignored") && l.contains(loud)),
                "{loud} must produce an env.ignored event: {lines:?}"
            );
        }
        for silent in ["ANTIDOTE_THREADS", "ANTIDOTE_WORKLOAD", "ANTIDOTE_TEST_WHATEVER", "PATH"] {
            assert!(
                lines.iter().all(|l| !l.contains(silent)),
                "{silent} must not be warned about: {lines:?}"
            );
        }
    }

    #[test]
    fn every_known_knob_has_the_antidote_prefix() {
        for knob in KNOWN_KNOBS {
            assert!(knob.starts_with("ANTIDOTE_"), "bad allowlist entry {knob}");
            assert!(!knob.starts_with(super::TEST_PREFIX), "test keys do not belong in the allowlist");
        }
    }

    #[test]
    fn flags_accept_common_spellings() {
        let _guard = test_lock::hold();
        reset();
        for (raw, want) in [("1", true), ("TRUE", true), ("on", true), ("0", false), ("off", false)] {
            std::env::set_var("ANTIDOTE_TEST_FLAG", raw);
            assert_eq!(flag("ANTIDOTE_TEST_FLAG"), Some(want), "raw={raw}");
        }
        std::env::set_var("ANTIDOTE_TEST_FLAG", "maybe");
        assert_eq!(flag("ANTIDOTE_TEST_FLAG"), None);
        std::env::remove_var("ANTIDOTE_TEST_FLAG");
        assert!(drain_events().iter().any(|l| l.contains("must be a boolean")));
    }
}
