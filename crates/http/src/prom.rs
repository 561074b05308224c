//! Assembles the Prometheus text exposition served by `GET /metrics`
//! under content negotiation (`Accept: text/plain` or `?format=prom`).
//!
//! Every source is an `antidote_obs` registry, and each goes into one
//! [`PromDoc`] through the one renderer,
//! [`antidote_obs::prom::render_snapshot`]:
//!
//! 1. the front-end's registry under `antidote_http_`;
//! 2. each engine's registry under `antidote_serve_`, with a `model`
//!    label;
//! 3. the global obs registry under `antidote_obs_`.
//!
//! The builder guarantees the structural invariants the exposition lint
//! test checks: unique families, `# TYPE` before samples, escaped label
//! values, monotone cumulative buckets.

use antidote_obs::prom::{render_snapshot, PromDoc};
use antidote_obs::Snapshot;
use antidote_serve::ServeMetrics;

/// Renders the full exposition document; see the module docs for the
/// families emitted.
pub fn render_exposition(
    http: &Snapshot,
    models: &[(String, ServeMetrics)],
    obs: &Snapshot,
) -> String {
    let mut doc = PromDoc::new();
    render_snapshot(&mut doc, http, "antidote_http_", &[]);
    for (name, m) in models {
        render_snapshot(&mut doc, &m.snapshot, "antidote_serve_", &[("model", name)]);
    }
    render_snapshot(&mut doc, obs, "antidote_obs_", &[]);
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_obs::Registry;

    fn model(name: &str, reg: &Registry) -> (String, ServeMetrics) {
        let snapshot = reg.snapshot();
        (name.to_string(), ServeMetrics { snapshot, ..ServeMetrics::default() })
    }

    #[test]
    fn exposition_carries_all_three_sources() {
        let http = Registry::new();
        http.counter_add("requests", 3);
        let serve = Registry::new();
        serve.counter_add("completed", 5);
        serve.counter_add("admitted.standard", 3);
        serve.hist_record("latency_ms", 2.0);
        let obs = Registry::new();
        obs.counter_add("fwd.layer00.macs", 7);
        let text = render_exposition(
            &http.snapshot(),
            &[model("vgg-tiny", &serve)],
            &obs.snapshot(),
        );
        for line in [
            "# TYPE antidote_http_requests_total counter",
            "antidote_http_requests_total 3",
            "antidote_serve_completed_total{model=\"vgg-tiny\"} 5",
            "antidote_serve_admitted_standard_total{model=\"vgg-tiny\"} 3",
            "antidote_serve_completed_rate{model=\"vgg-tiny\",window=\"1s\"} 5",
            "antidote_serve_latency_ms_bucket{model=\"vgg-tiny\",le=\"2.5\"} 1",
            "antidote_serve_latency_ms_60s{model=\"vgg-tiny\",quantile=\"0.5\"} 2",
            "antidote_obs_fwd_layer00_macs_total 7",
        ] {
            assert!(text.lines().any(|l| l == line), "missing `{line}` in\n{text}");
        }
        // Every `# TYPE` family is unique.
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            assert!(seen.insert(line.to_string()), "duplicate family: {line}");
        }
    }

    #[test]
    fn model_labels_are_escaped() {
        let serve = Registry::new();
        serve.counter_add("completed", 0);
        let text = render_exposition(
            &Snapshot::default(),
            &[model("odd\"name", &serve)],
            &Snapshot::default(),
        );
        assert!(text.contains("model=\"odd\\\"name\""), "{text}");
    }
}
