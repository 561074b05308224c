//! The JSON wire API: request/response bodies for `POST /v1/infer` and
//! the typed-error envelope every non-2xx response carries.
//!
//! Every terminal state the serve engine produces
//! ([`antidote_serve::ServeError`]) maps to exactly one HTTP status
//! (see [`serve_error_status`]), and every error body has the same
//! shape: `{"error": <stable kind>, "detail": <human text>, ...}` —
//! clients branch on `error`, humans read `detail`. DESIGN.md §13
//! tabulates the full mapping.

use antidote_serve::{InferResponse, Priority, ServeError};
use serde::{Deserialize, Serialize};

/// Body of `POST /v1/infer`.
///
/// `input` is the flattened image in row-major `shape` order; `shape`
/// must be a single `[C, H, W]` image matching the registered model.
/// At most one of `budget_macs` (absolute) and `budget_frac` (fraction
/// of the floor→dense MAC range, clamped to `[0, 1]`) may be set.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InferApiRequest {
    /// Registry name of the model to serve; the registry default when
    /// omitted.
    #[serde(default)]
    pub model: Option<String>,
    /// Flattened input image values, `shape`-major order.
    pub input: Vec<f32>,
    /// Input dimensions, `[C, H, W]`.
    pub shape: Vec<usize>,
    /// Per-request compute budget, absolute MACs.
    #[serde(default)]
    pub budget_macs: Option<f64>,
    /// Per-request compute budget as a fraction of the model's
    /// floor→dense MAC range (`0` = cheapest feasible, `1` = dense).
    #[serde(default)]
    pub budget_frac: Option<f64>,
    /// Deadline override, milliseconds from admission; the engine
    /// default when omitted.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Priority lane: `interactive`, `standard` (default), or `batch`.
    #[serde(default)]
    pub priority: Option<String>,
}

/// Body of a `200` response to `POST /v1/infer`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferApiResponse {
    /// Registry name of the model that served the request.
    pub model: String,
    /// `argmax` class index.
    pub class: usize,
    /// Raw class logits.
    pub logits: Vec<f32>,
    /// The budget the request ran under, MACs (absent when dense).
    pub budget_macs: Option<f64>,
    /// Cost realized by the masks actually emitted, MACs; never exceeds
    /// `budget_macs` when one was set.
    pub achieved_macs: f64,
    /// Prune-ratio scale the planner chose (0 = dense).
    pub schedule_scale: f64,
    /// `true` when overload pressure degraded this request to a cheaper
    /// schedule than its budget alone would have chosen.
    pub degraded: bool,
    /// The request's priority lane.
    pub priority: String,
    /// Live requests sharing this request's forward pass.
    pub batch_size: usize,
    /// Queueing + batching delay, milliseconds.
    pub queue_wait_ms: f64,
    /// Engine-side latency (admission → response), milliseconds.
    pub latency_ms: f64,
    /// Trace id serving this request (echoed from the inbound
    /// `x-antidote-trace` header, or minted); absent while
    /// observability is off.
    #[serde(default)]
    pub trace_id: Option<String>,
}

impl InferApiResponse {
    /// Converts an engine response, tagging it with the registry model
    /// name it was routed to.
    pub fn from_engine(model: &str, resp: &InferResponse) -> Self {
        Self {
            model: model.to_string(),
            class: resp.class,
            logits: resp.logits.clone(),
            budget_macs: resp.budget,
            achieved_macs: resp.achieved_macs,
            schedule_scale: resp.schedule_scale,
            degraded: resp.degraded,
            priority: resp.priority.to_string(),
            batch_size: resp.batch_size,
            queue_wait_ms: resp.queue_wait.as_secs_f64() * 1e3,
            latency_ms: resp.latency.as_secs_f64() * 1e3,
            trace_id: resp.trace.map(|t| t.to_hex()),
        }
    }
}

/// The uniform error envelope. `error` is a stable machine-readable
/// kind; `detail` is for humans. `priority`/`pressure` are present on
/// overload rejections (mirroring the fields the engine's typed errors
/// carry), `retry_after_ms` on rate-limit rejections.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable error kind, e.g. `model_not_found`, `rate_limited`.
    pub error: String,
    /// Human-readable description.
    pub detail: String,
    /// Priority lane of the rejected request (overload rejections).
    #[serde(default)]
    pub priority: Option<String>,
    /// Queue pressure at the rejection (overload rejections).
    #[serde(default)]
    pub pressure: Option<f64>,
    /// Suggested retry delay, milliseconds (rate-limit rejections).
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
    /// Registered model names (unknown-model rejections).
    #[serde(default)]
    pub models: Option<Vec<String>>,
    /// Trace id of the rejected request, when one was carried or
    /// minted (matches the `x-antidote-trace` response header).
    #[serde(default)]
    pub trace_id: Option<String>,
}

impl ErrorBody {
    /// A bare kind + detail envelope.
    pub fn new(error: &str, detail: impl std::fmt::Display) -> Self {
        Self {
            error: error.to_string(),
            detail: detail.to_string(),
            ..Self::default()
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("error body serialization cannot fail")
    }
}

/// HTTP status and stable error kind for each engine failure:
///
/// | `ServeError`       | status | kind                 |
/// |--------------------|-------:|----------------------|
/// | `QueueFull`        |    503 | `queue_full`         |
/// | `Overloaded`       |    503 | `overloaded`         |
/// | `ShuttingDown`     |    503 | `shutting_down`      |
/// | `DeadlineExceeded` |    408 | `deadline_exceeded`  |
/// | `Budget`           |    422 | `budget_infeasible`  |
/// | `BadInput`         |    400 | `bad_input`          |
/// | `NonFiniteInput`   |    400 | `bad_input`          |
/// | `WorkerPanicked`   |    500 | `worker_panicked`    |
/// | `Disconnected`     |    500 | `internal`           |
pub fn serve_error_status(e: &ServeError) -> (u16, &'static str) {
    match e {
        ServeError::QueueFull { .. } => (503, "queue_full"),
        ServeError::Overloaded { .. } => (503, "overloaded"),
        ServeError::ShuttingDown => (503, "shutting_down"),
        ServeError::DeadlineExceeded { .. } => (408, "deadline_exceeded"),
        ServeError::Budget(_) => (422, "budget_infeasible"),
        ServeError::BadInput { .. } | ServeError::NonFiniteInput { .. } => (400, "bad_input"),
        ServeError::WorkerPanicked { .. } => (500, "worker_panicked"),
        ServeError::Disconnected => (500, "internal"),
    }
}

/// Builds the full error envelope for an engine failure, carrying the
/// overload fields when present.
pub fn serve_error_body(e: &ServeError) -> (u16, ErrorBody) {
    let (status, kind) = serve_error_status(e);
    let mut body = ErrorBody::new(kind, e);
    if let ServeError::Overloaded { pressure, priority } = e {
        body.pressure = Some(*pressure);
        body.priority = Some(priority.to_string());
    }
    (status, body)
}

/// Parses the API's priority string (`interactive`/`standard`/`batch`,
/// case-insensitive) via [`Priority`]'s `FromStr`.
///
/// # Errors
///
/// The unmodified input, for embedding in a `400` detail message.
pub fn parse_priority(s: &str) -> Result<Priority, String> {
    s.parse::<Priority>().map_err(|_| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_serve::BudgetError;
    use std::time::Duration;

    #[test]
    fn request_parses_with_defaults() {
        let req: InferApiRequest = serde_json::from_str(
            r#"{"input": [0.0, 1.0], "shape": [1, 1, 2]}"#,
        )
        .unwrap();
        assert_eq!(req.model, None);
        assert_eq!(req.input, vec![0.0, 1.0]);
        assert_eq!(req.shape, vec![1, 1, 2]);
        assert_eq!(req.budget_macs, None);
        assert_eq!(req.priority, None);
    }

    #[test]
    fn request_round_trips_all_fields() {
        let req = InferApiRequest {
            model: Some("vgg-int8".into()),
            input: vec![0.5; 4],
            shape: vec![1, 2, 2],
            budget_macs: Some(1e6),
            budget_frac: None,
            deadline_ms: Some(250),
            priority: Some("interactive".into()),
        };
        let back: InferApiRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.model.as_deref(), Some("vgg-int8"));
        assert_eq!(back.deadline_ms, Some(250));
    }

    #[test]
    fn every_serve_error_maps_to_a_status() {
        let cases: Vec<(ServeError, u16)> = vec![
            (ServeError::QueueFull { capacity: 4 }, 503),
            (
                ServeError::Overloaded { pressure: 0.9, priority: Priority::Batch },
                503,
            ),
            (ServeError::ShuttingDown, 503),
            (
                ServeError::DeadlineExceeded { waited: Duration::from_millis(5) },
                408,
            ),
            (ServeError::Budget(BudgetError::Invalid { budget: -1.0 }), 422),
            (ServeError::BadInput { dims: vec![2, 2] }, 400),
            (ServeError::NonFiniteInput { index: 3 }, 400),
            (ServeError::WorkerPanicked { worker: 1 }, 500),
            (ServeError::Disconnected, 500),
        ];
        for (err, want) in cases {
            let (status, kind) = serve_error_status(&err);
            assert_eq!(status, want, "{err:?}");
            assert!(!kind.is_empty());
        }
    }

    #[test]
    fn overload_body_carries_priority_and_pressure() {
        let (status, body) = serve_error_body(&ServeError::Overloaded {
            pressure: 0.93,
            priority: Priority::Batch,
        });
        assert_eq!(status, 503);
        assert_eq!(body.error, "overloaded");
        assert_eq!(body.priority.as_deref(), Some("batch"));
        assert_eq!(body.pressure, Some(0.93));
        let back: ErrorBody = serde_json::from_str(&body.to_json()).unwrap();
        assert_eq!(back.error, "overloaded");
    }

    #[test]
    fn priority_strings_parse() {
        assert_eq!(parse_priority("interactive"), Ok(Priority::Interactive));
        assert_eq!(parse_priority("Standard"), Ok(Priority::Standard));
        assert_eq!(parse_priority("BATCH"), Ok(Priority::Batch));
        assert!(parse_priority("vip").is_err());
    }
}
