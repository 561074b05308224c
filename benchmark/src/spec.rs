//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root is this table rendered (`--spec` prints it; a unit
//! test fails when the file and the table disagree).

use serde::Value;

/// Seconds one run measures when the caller gives no `--seconds`; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Open-loop ladder rates, requests per second.
pub const LADDER_RATES: [u32; 4] = [200, 400, 800, 1600];

/// Models the `models` layer probes cover.
pub const PROBED_MODELS: [&str; 4] = ["vgg16", "vgg_small", "qvgg_small", "resnet56"];

/// Conv layers of the paper-width VGG16 (`fwd.layer00` … `fwd.layer12`).
pub const VGG16_LAYERS: usize = 13;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "http_tiny_closed",
        "closed loop over sockets on a 0.2 ms model: http parse/JSON/route and serve hand-off dominate; a kernel change must not move it",
    ),
    (
        "http_vgg_mixed",
        "closed loop over sockets, fp32+int8 vgg_small, four budget tiers, default batching, /metrics scrapes: the whole served stack at realistic proportions",
    ),
    (
        "engine_vgg16_table1",
        "in-process closed loop, paper-width VGG16 at the Table I schedule: nn/models/tensor are >99% of the time, http is absent",
    ),
    (
        "engine_open_ladder",
        "in-process open loop, seeded Poisson arrivals with a 100 ms deadline, 1600 rps sustained (traced: 200/400/800/1600 steps): only an arrival schedule builds a queue",
    ),
    (
        "train_ttd",
        "train_ttd on vgg_small+BN: the same tensor/nn/par code run forward and backward, so a serving gain that costs training shows",
    ),
];

/// `true` = higher is better.
pub type Higher = bool;

/// End-to-end metrics: `(name, unit, higher-is-better, bound)`. Every
/// workload reports every one; see the README for what each means on
/// each workload.
pub const END_TO_END: [(&str, &str, Higher, f64); 5] = [
    ("throughput_rps", "1/s", true, 0.25),
    ("latency_p50_ms", "ms", false, 0.25),
    ("latency_p95_ms", "ms", false, 0.25),
    ("peak_rss_mb", "MB", false, 0.10),
    ("setup_s", "s", false, 0.25),
];

/// Per-layer metrics `(name, unit, higher-is-better)`, reported by the
/// traced run. A metric whose layer is not on a workload's path reads 0
/// there.
pub fn per_layer() -> Vec<(String, &'static str, Higher)> {
    let mut m: Vec<(String, &'static str, Higher)> = Vec::new();
    let mut add =
        |name: &str, unit: &'static str, higher: Higher| m.push((name.to_string(), unit, higher));

    // Demoted end-to-end diagnostics (README: why they carry no bound).
    add("latency_p99_ms", "ms", false);
    add("slo_rate_rps", "1/s", true);
    add("overload_goodput_rps", "1/s", true);
    add("error_frac", "ratio", false);

    add("tensor.gemm_f32_ms", "ms", false);
    add("tensor.gemm_i8_ms", "ms", false);
    add("tensor.im2col_ms", "ms", false);
    add("tensor.gemm_i8_bytes", "bytes", false);
    add("par.fanout_us", "us", false);
    for keep in [100, 50, 10] {
        add(&format!("nn.block256_keep{keep}_ms"), "ms", false);
    }
    for keep in [100, 50, 10] {
        add(&format!("nn.qblock256_keep{keep}_ms"), "ms", false);
    }
    add("nn.skip_efficiency", "ratio", true);
    add("nn.conv2d_fwd_ms", "ms", false);
    add("nn.conv2d_bwd_ms", "ms", false);
    add("core.pruner_tap_us", "us", false);
    add("core.keep_frac_mean", "ratio", false);
    add("core.ttd_overhead_ratio", "ratio", false);
    for model in PROBED_MODELS {
        if model != "qvgg_small" {
            add(&format!("models.{model}.gemm_dense_ms"), "ms", false);
        }
        add(&format!("models.{model}.measured_dense_ms"), "ms", false);
        add(&format!("models.{model}.measured_table1_ms"), "ms", false);
        add(&format!("models.{model}.table1_macs"), "count", false);
    }
    add("models.vgg16.pruning_payoff", "ratio", true);
    for layer in 1..=VGG16_LAYERS {
        add(&format!("models.vgg16.layer{layer:02}_ms"), "ms", false);
    }
    add("modelfile.load_ms", "ms", false);
    add("modelfile.load_mb_per_s", "MB/s", true);
    add("modelfile.build_network_ms", "ms", false);
    add("modelfile.file_bytes", "bytes", false);

    add("serve.plan_us", "us", false);
    add("serve.submit_us", "us", false);
    add("serve.queue_wait_p50_ms", "ms", false);
    add("serve.queue_wait_p99_ms", "ms", false);
    add("serve.service_p50_ms", "ms", false);
    add("serve.batch_mean", "count", true);
    add("serve.budget_util_mean", "ratio", true);
    for rate in LADDER_RATES {
        add(&format!("serve.ladder{rate}_p50_ms"), "ms", false);
        add(&format!("serve.ladder{rate}_p99_ms"), "ms", false);
        add(&format!("serve.ladder{rate}_within_slo"), "ratio", true);
    }
    add("serve.shed_frac", "ratio", false);
    add("serve.degraded_frac", "ratio", false);
    add("serve.expired_frac", "ratio", false);
    add("gen.late_p99_ms", "ms", false);
    add("gen.max_outstanding", "count", false);

    add("http.read_request_us", "us", false);
    add("http.json_decode_us", "us", false);
    add("http.json_encode_us", "us", false);
    add("http.overhead_p50_ms", "ms", false);
    add("http.scrape_last_ms", "ms", false);
    add("http.reconnects", "count", false);
    add("http.status_other", "count", false);
    add("split.fp32_p50_ms", "ms", false);
    add("split.int8_p50_ms", "ms", false);
    add("split.tier_dense_p50_ms", "ms", false);
    add("split.tier_floor_p50_ms", "ms", false);

    add("obs.trace_overhead_ratio", "ratio", false);
    add("data.synth_generate_ms", "ms", false);
    add("data.augment_us_per_image", "us", false);
    m
}

/// Names and units of the metrics one kind of run reports: per-layer for
/// a traced run, end-to-end otherwise.
pub fn names_and_units(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer().into_iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect()
    }
}

fn better(higher: Higher) -> Value {
    Value::Str(if higher { "higher" } else { "lower" }.to_string())
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Value {
    let strs =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect());
    Value::Object(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(name.to_string())),
                            ("why".into(), Value::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, higher, bound)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(name.to_string())),
                            ("unit".into(), Value::Str(unit.to_string())),
                            ("better".into(), better(higher)),
                            ("bound".into(), Value::F64(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, higher)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(name)),
                            ("unit".into(), Value::Str(unit.to_string())),
                            ("better".into(), better(higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        // Compared as text: a parsed 15 and a built 15 differ in integer tag.
        let same = serde_json::to_string(&on_disk).unwrap()
            == serde_json::to_string(&benchmark_json()).unwrap();
        assert!(
            same,
            "BENCHMARK.json is stale: regenerate with `--spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_limits_meet_the_contract() {
        let per_layer = per_layer();
        assert!(per_layer.len() <= 128);
        let mut names: Vec<String> = per_layer.iter().map(|m| m.0.clone()).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.0.to_string()));
        let ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && !m.2));
    }
}
