//! # antidote-obs
//!
//! A lightweight structured-observability layer shared by every crate in
//! the workspace (`DESIGN.md` §9). Std-only, zero dependencies — like the
//! rest of the workspace it must build offline against vendored stand-ins,
//! so there is no `tracing`/`metrics` facade here, just three primitives:
//!
//! 1. **Spans** ([`span`]): RAII wall-clock timers aggregated per name
//!    (count / total / min / max) behind a mutexed map. A span whose name
//!    is computed per call site (per-layer profiling) goes through
//!    [`layer_span`], which skips the `format!` entirely when disabled.
//! 2. **Metrics registries** ([`Registry`]; the process-global one
//!    behind [`counter_add`], [`gauge_set`], [`hist_record`]): named
//!    counters, gauges, and histograms with lifetime count/sum/min/max/
//!    buckets and bounded-sample percentiles that reuse the workspace's
//!    single nearest-rank [`percentile`] implementation. A component
//!    that owns its accounting (each serving engine, the HTTP
//!    front-end) owns a `Registry` instance.
//! 3. **Events** ([`event`] and the [`info`]/[`warn_event`]/[`debug`]
//!    shorthands): structured JSONL records kept in a bounded in-memory
//!    ring and optionally mirrored to a file sink
//!    (`ANTIDOTE_TRACE=path`) and/or stderr (console sink, gated by
//!    `ANTIDOTE_LOG=off|warn|info|debug`).
//!
//! On top of those, the request-tracing layer (`DESIGN.md` §14) adds:
//! [`TraceId`]s with a per-thread span/counter collector
//! ([`collect_begin`]/[`collect_end`]), a flight recorder retaining
//! slowest-N and errored per-request records ([`record_trace`],
//! [`traces_json`]), rotating 60×1s windows over every counter/gauge/
//! histogram (surfaced through [`Snapshot`]), and the one Prometheus
//! text-exposition renderer ([`prom`]).
//!
//! Everything is **off by default**. The only cost on a hot path while
//! disabled is one relaxed atomic load ([`enabled`]); `scripts/tier1.sh`
//! smoke-checks that a dense forward pass is unaffected. Enable
//! programmatically with [`set_enabled`] or via `ANTIDOTE_OBS=1` +
//! [`init_from_env`]. Aggregates are read back with [`snapshot`].
//!
//! # Example
//!
//! ```
//! antidote_obs::set_enabled(true);
//! {
//!     let _timer = antidote_obs::span("demo.work");
//!     antidote_obs::counter_add("demo.items", 3);
//! }
//! let snap = antidote_obs::snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert_eq!(snap.span("demo.work").unwrap().count, 1);
//! antidote_obs::set_enabled(false);
//! antidote_obs::reset();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod env;
mod event;
mod json;
mod metrics;
pub mod prom;
mod recorder;
mod span;
mod stats;
mod trace;
mod window;

pub use event::{
    debug, drain_events, event, events_dropped, info, set_console_level, set_trace_path,
    warn_event, Level, Value,
};
pub use metrics::{
    counter_add, counter_value, gauge_set, hist_record, reset, snapshot, snapshot_at,
    CounterRates, GaugeRange, HistSnapshot, Registry, Snapshot, SpanSnapshot,
};
pub use recorder::{
    clear_recorder, record_trace, recorder_counts, recorder_dump_events,
    traces_json, TraceRecord, TraceSpanRec, DEFAULT_ERROR_CAP, DEFAULT_SLOW_CAP,
};
pub use span::{layer_span, span, SpanGuard, SpanStat};
pub use stats::percentile;
pub use trace::{collect_begin, collect_end, collecting, Collected, CollectedSpan, TraceId};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span/metric collection is enabled.
///
/// A single relaxed atomic load — hot paths check this (directly or via
/// [`span`]) before doing any other observability work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/metric collection on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Applies the `ANTIDOTE_OBS`, `ANTIDOTE_TRACE` and `ANTIDOTE_LOG`
/// environment knobs (idempotent; subsequent calls are no-ops). Every
/// binary calls it first in `main`.
///
/// - `ANTIDOTE_OBS=1|true|on` enables collection ([`set_enabled`]);
/// - `ANTIDOTE_TRACE=path` mirrors events to a JSONL file
///   ([`set_trace_path`]), warn-and-ignore if the file cannot be opened;
/// - `ANTIDOTE_LOG=off|warn|info|debug` sets the console sink threshold
///   (default `warn`), warn-and-ignore on anything else.
///
/// It also sweeps the environment once for *unrecognized* `ANTIDOTE_*`
/// variables ([`env::warn_unknown`]) so a typo'd knob warns instead of
/// being silently inert.
pub fn init_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        env::warn_unknown();
        if let Some(on) = env::flag("ANTIDOTE_OBS") {
            set_enabled(on);
        }
        if let Ok(path) = std::env::var("ANTIDOTE_TRACE") {
            set_trace_path(&path);
        }
        if let Ok(raw) = std::env::var("ANTIDOTE_LOG") {
            match raw.as_str() {
                "off" => set_console_level(None),
                "warn" => set_console_level(Some(Level::Warn)),
                "info" => set_console_level(Some(Level::Info)),
                "debug" => set_console_level(Some(Level::Debug)),
                _ => event::warn_ignored_env("ANTIDOTE_LOG", &raw, "must be off|warn|info|debug"),
            }
        }
    });
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that toggle the global enabled flag or read
    /// whole-registry snapshots.
    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        let _guard = test_lock::hold();
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
