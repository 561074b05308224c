//! Prometheus text-exposition rendering (text format version 0.0.4).
//!
//! [`PromDoc`] is a small document builder; [`render_snapshot`] fills it
//! from one registry [`Snapshot`] under a name prefix and a label set.
//! The HTTP layer renders every registry it exposes — its own, each
//! engine's, the global one — through that one function. The builder
//! guarantees the structural invariants scrapers (and our own
//! exposition lint in `crates/http/tests`) rely on:
//!
//! - every metric family appears exactly once, with one `# TYPE` line
//!   emitted before any of its samples;
//! - metric names are sanitized to `[a-zA-Z_][a-zA-Z0-9_]*`
//!   ([`metric_name`]) — the obs convention `fwd.layer03.macs` becomes
//!   `fwd_layer03_macs`;
//! - label values are escaped per the exposition spec
//!   ([`label_escape`]: `\\`, `\"`, `\n`);
//! - histograms render cumulative `_bucket{le="…"}` series over the
//!   fixed [`HIST_LE`] bounds plus `+Inf`, with `_sum`/`_count`; all
//!   are lifetime aggregates, so no series ever falls (a fall reads as a
//!   counter reset to Prometheus).

use crate::metrics::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Histogram bucket upper bounds (log-ish spacing). One fixed ladder
/// covers the workspace's histogram value ranges: keep-rates (0–1),
/// batch occupancies (1–64), millisecond latencies (0.1–10 000), MAC
/// counts (1e6+).
pub const HIST_LE: &[f64] = &[
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 5000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0,
];

/// Sanitizes a raw metric name to the Prometheus charset: every
/// character outside `[a-zA-Z0-9_]` becomes `_`, and a leading digit
/// gets a `_` prefix.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    for (i, c) in raw.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a sample value: decimal for finite numbers, `+Inf`/`-Inf`/
/// `NaN` for the specials the format defines.
pub fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[derive(Debug)]
struct Family {
    kind: &'static str,
    /// Pre-rendered sample lines in insertion order.
    lines: Vec<String>,
}

/// A Prometheus exposition document under construction. Families are
/// rendered name-sorted; samples keep insertion order within a family.
#[derive(Debug, Default)]
pub struct PromDoc {
    families: BTreeMap<String, Family>,
}

impl PromDoc {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, kind: &'static str) -> &mut Family {
        self.families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                lines: Vec::new(),
            })
    }

    fn render_labels(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{}=\"{}\"", metric_name(k), label_escape(v)))
            .collect();
        format!("{{{}}}", parts.join(","))
    }

    /// Adds one sample to family `name` (already sanitized by the
    /// caller or via [`metric_name`]). `kind` is `counter`, `gauge`,
    /// `histogram`, or `summary`; the first registration of a family
    /// fixes its kind.
    pub fn sample(&mut self, name: &str, kind: &'static str, labels: &[(&str, &str)], value: f64) {
        let line = format!("{name}{} {}", Self::render_labels(labels), format_value(value));
        self.family(name, kind).lines.push(line);
    }

    /// Adds a suffixed sample (`_bucket`, `_sum`, `_count`, or a
    /// quantile series) that belongs to family `name` — the `# TYPE`
    /// line is emitted for `name`, not the suffixed series.
    pub fn sample_suffixed(
        &mut self,
        name: &str,
        kind: &'static str,
        suffix: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let line = format!(
            "{name}{suffix}{} {}",
            Self::render_labels(labels),
            format_value(value)
        );
        self.family(name, kind).lines.push(line);
    }

    /// Adds a full histogram: cumulative buckets over [`HIST_LE`] plus
    /// `+Inf`, then `_sum` and `_count`. `cumulative` must align with
    /// [`HIST_LE`]; `count` is the `+Inf` value.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        cumulative: &[u64],
        sum: f64,
        count: u64,
    ) {
        debug_assert_eq!(cumulative.len(), HIST_LE.len());
        for (le, c) in HIST_LE.iter().zip(cumulative) {
            let le_s = format_value(*le);
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", &le_s));
            self.sample_suffixed(name, "histogram", "_bucket", &ls, *c as f64);
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        self.sample_suffixed(name, "histogram", "_bucket", &ls, count as f64);
        self.sample_suffixed(name, "histogram", "_sum", labels, sum);
        self.sample_suffixed(name, "histogram", "_count", labels, count as f64);
    }

    /// Renders the document: for each family a `# TYPE` line followed
    /// by its samples, families name-sorted, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
            for line in &fam.lines {
                let _ = writeln!(out, "{line}");
            }
        }
        out
    }
}

/// Renders an obs [`Snapshot`] into `doc` under `prefix` (e.g.
/// `antidote_obs_`), with `labels` on every sample:
///
/// - counters as `{prefix}{name}_total` plus a 60s-windowed
///   `{prefix}{name}_rate` gauge (`window` label: `1s`/`10s`/`60s`);
/// - gauges as `{prefix}{name}`;
/// - spans as `{prefix}{name}_seconds_total` / `{prefix}{name}_calls_total`;
/// - histograms as lifetime cumulative-bucket histograms plus a
///   `{prefix}{name}_60s` summary (windowed quantiles).
pub fn render_snapshot(
    doc: &mut PromDoc,
    snap: &Snapshot,
    prefix: &str,
    labels: &[(&str, &str)],
) {
    let with = |extra: (&'static str, &'static str)| -> Vec<(&str, &str)> {
        labels.iter().copied().chain(std::iter::once(extra)).collect()
    };
    for (name, v) in &snap.counters {
        let base = format!("{prefix}{}", metric_name(name));
        doc.sample(&format!("{base}_total"), "counter", labels, *v as f64);
    }
    for w in &snap.counter_rates {
        let base = format!("{prefix}{}_rate", metric_name(&w.name));
        doc.sample(&base, "gauge", &with(("window", "1s")), w.last_1s as f64);
        doc.sample(&base, "gauge", &with(("window", "10s")), w.last_10s as f64 / 10.0);
        doc.sample(&base, "gauge", &with(("window", "60s")), w.last_60s as f64 / 60.0);
    }
    for (name, v) in &snap.gauges {
        doc.sample(&format!("{prefix}{}", metric_name(name)), "gauge", labels, *v);
    }
    for s in &snap.spans {
        let base = format!("{prefix}{}", metric_name(&s.name));
        doc.sample(
            &format!("{base}_seconds_total"),
            "counter",
            labels,
            s.total_ns as f64 / 1e9,
        );
        doc.sample(&format!("{base}_calls_total"), "counter", labels, s.count as f64);
    }
    for h in &snap.hists {
        let base = format!("{prefix}{}", metric_name(&h.name));
        doc.histogram(&base, labels, &h.buckets, h.sum, h.count);
        let wbase = format!("{base}_60s");
        doc.sample(&wbase, "summary", &with(("quantile", "0.5")), h.w_p50);
        doc.sample(&wbase, "summary", &with(("quantile", "0.95")), h.w_p95);
        doc.sample(&wbase, "summary", &with(("quantile", "0.99")), h.w_p99);
        doc.sample_suffixed(&wbase, "summary", "_count", labels, h.w_count as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(metric_name("fwd.layer03.macs"), "fwd_layer03_macs");
        assert_eq!(metric_name("a-b c"), "a_b_c");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(metric_name(""), "_");
    }

    #[test]
    fn label_values_escape_specials() {
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn special_values_render_per_spec() {
        assert_eq!(format_value(1.5), "1.5");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
    }

    #[test]
    fn type_line_precedes_samples_and_is_unique() {
        let mut doc = PromDoc::new();
        doc.sample("demo_total", "counter", &[("model", "vgg")], 3.0);
        doc.sample("demo_total", "counter", &[("model", "vgg-int8")], 4.0);
        doc.sample("alpha", "gauge", &[], 1.0);
        let text = doc.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "# TYPE alpha gauge",
                "alpha 1",
                "# TYPE demo_total counter",
                "demo_total{model=\"vgg\"} 3",
                "demo_total{model=\"vgg-int8\"} 4",
            ]
        );
    }

    /// `(series, value)` of every `{name}_bucket` and `{name}_count`
    /// line of an exposition.
    fn series<'a>(text: &'a str, name: &str) -> Vec<(&'a str, f64)> {
        let (bucket, count) = (format!("{name}_bucket"), format!("{name}_count"));
        text.lines()
            .filter(|l| l.starts_with(&bucket) || l.starts_with(&count))
            .map(|l| {
                let (series, v) = l.rsplit_once(' ').unwrap();
                (series, v.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn histograms_stay_cumulative_past_the_retained_ring() {
        let reg = crate::Registry::new();
        let render = |reg: &crate::Registry| {
            let mut doc = PromDoc::new();
            render_snapshot(&mut doc, &reg.snapshot(), "", &[("model", "m")]);
            doc.render()
        };
        // The lifetime max arrives first, so the ring evicts it below.
        reg.hist_record("lat_ms", 50_000.0);
        for _ in 1..16_384 {
            reg.hist_record("lat_ms", 0.3);
        }
        let before = render(&reg);
        for _ in 0..1_000 {
            reg.hist_record("lat_ms", 7.0);
        }
        let after = render(&reg);
        let (before, after) = (series(&before, "lat_ms"), series(&after, "lat_ms"));
        assert_eq!(before.len(), HIST_LE.len() + 2);
        assert_eq!(before.len(), after.len());
        for ((name, b), (_, a)) in before.iter().zip(&after) {
            assert!(a >= b, "{name} fell from {b} to {a}");
        }
        assert_eq!(after.last().unwrap(), &("lat_ms_count{model=\"m\"}", 17_384.0));
        let h = reg.snapshot().hist("lat_ms").unwrap().clone();
        assert_eq!((h.count, h.retained, h.overflow), (17_384, 16_384, 1_000));
        assert_eq!(h.max, 50_000.0, "lifetime max, long evicted from the ring");
        let mean = (50_000.0 + 16_383.0 * 0.3 + 1_000.0 * 7.0) / 17_384.0;
        assert!((h.mean() - mean).abs() < 1e-9, "{} vs {mean}", h.mean());
        assert_eq!(h.p50, 0.3, "percentiles stay on the ring");
    }

    #[test]
    fn histograms_are_cumulative_and_consistent() {
        let mut doc = PromDoc::new();
        let mut cumulative = vec![0u64; HIST_LE.len()];
        // Three samples: 0.3, 7.0, 7.0.
        for (i, le) in HIST_LE.iter().enumerate() {
            let mut c = 0;
            for v in [0.3, 7.0, 7.0] {
                if v <= *le {
                    c += 1;
                }
            }
            cumulative[i] = c;
        }
        doc.histogram("lat_ms", &[], &cumulative, 14.3, 3);
        let text = doc.render();
        assert!(text.starts_with("# TYPE lat_ms histogram\n"));
        let mut prev = 0.0;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("lat_ms_bucket")) {
            bucket_lines += 1;
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "buckets must be monotone: {line}");
            prev = v;
        }
        assert_eq!(bucket_lines, HIST_LE.len() + 1);
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ms_sum 14.3"));
        assert!(text.contains("lat_ms_count 3"));
    }
}
