//! The closed-loop load generator shared by the socket and in-process
//! workloads: a fixed, seeded request plan replayed in rounds by
//! `clients` threads, each sending its next request only after the
//! previous one completed. Every response is verified.
//!
//! A round is a fixed request count, so sample and MAC counts repeat
//! exactly; rounds repeat until the time budget is spent, and the
//! end-to-end numbers are medians over rounds.

use crate::models::{Tier, POOL};
use crate::spans::Recorder;
use crate::stats;
use crate::verify::{Checker, Observed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One planned request: which model, which pool image, which tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqSpec {
    pub model: usize,
    pub input: usize,
    pub tier: Tier,
}

/// The seeded plan of one round: inputs and tiers are drawn from `seed`;
/// models alternate along each client's own sequence (client `c` of
/// `clients` sends requests `c`, `c + clients`, …).
pub fn request_plan(
    seed: u64,
    len: usize,
    clients: usize,
    models: usize,
    tiers: &[Tier],
) -> Vec<ReqSpec> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9);
    (0..len)
        .map(|i| ReqSpec {
            model: (i / clients) % models,
            input: rng.gen_range(0..POOL),
            tier: tiers[rng.gen_range(0..tiers.len())],
        })
        .collect()
}

/// A successful response as a client saw it.
#[derive(Debug, Clone)]
pub struct Response {
    pub sent: Instant,
    pub done: Instant,
    /// Engine-side latency (admission → response), from the response.
    pub engine_ms: f64,
    pub queue_ms: f64,
    pub batch: usize,
    pub budget: Option<f64>,
    pub achieved_macs: f64,
    pub degraded: bool,
    pub class: usize,
    pub logits: Vec<f32>,
}

/// One connection (socket) or one in-flight slot (in-process).
pub trait Client: Send {
    /// Sends `spec` and waits for its response. `Err` is a contract
    /// violation: a transport failure, a lost response, a refusal.
    fn issue(&mut self, spec: ReqSpec) -> Result<Response, String>;
}

/// A verified, timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub spec: ReqSpec,
    pub rtt_ms: f64,
    pub engine_ms: f64,
    pub queue_ms: f64,
    pub batch: usize,
    pub budget: Option<f64>,
    pub achieved_macs: f64,
    pub degraded: bool,
}

#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub samples: Vec<Sample>,
}

/// Everything a timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Phase {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.rounds.iter().flat_map(|r| r.samples.iter())
    }

    /// Median over rounds of verified-OK requests per wall second.
    pub fn throughput_rps(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.samples.len() as f64 / r.wall_s)
            .collect();
        stats::median(&per_round)
    }

    /// The `q`-th RTT percentile and the samples beyond it: the median
    /// over rounds of each round's percentile when every round leaves at
    /// least ten samples beyond it, else the percentile of all samples.
    pub fn rtt_percentile_ms(&self, q: f64) -> (f64, usize) {
        let of = |samples: &[Sample]| {
            stats::percentile(
                &stats::sorted(&samples.iter().map(|s| s.rtt_ms).collect::<Vec<_>>()),
                q,
            )
        };
        let per_round: Vec<(f64, usize)> = self.rounds.iter().map(|r| of(&r.samples)).collect();
        let beyond = per_round.iter().map(|p| p.1).min().unwrap_or(0);
        if beyond >= 10 {
            return (
                stats::median(&per_round.iter().map(|p| p.0).collect::<Vec<_>>()),
                beyond,
            );
        }
        of(&self.samples().copied().collect::<Vec<_>>())
    }
}

/// How a traced request's root span is split into children.
#[derive(Debug, Clone, Copy)]
pub struct Tracing<'a> {
    pub recorder: &'a Recorder,
    /// Socket workloads have an `http.overhead` child (RTT minus the
    /// engine-side latency the body reports).
    pub over_socket: bool,
}

fn run_round<C: Client>(
    clients: &mut [C],
    checkers: &mut [Checker<'_>],
    plan: &[ReqSpec],
    id_base: u64,
    tracing: Option<Tracing<'_>>,
) -> (Round, Vec<String>) {
    let stride = clients.len();
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(checkers.iter_mut())
            .enumerate()
            .map(|(c, (client, checker))| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(plan.len() / stride + 1);
                    let mut failures = Vec::new();
                    for (i, &spec) in plan.iter().enumerate().skip(c).step_by(stride) {
                        let response = match client.issue(spec) {
                            Ok(r) => r,
                            Err(e) => {
                                failures.push(e);
                                continue;
                            }
                        };
                        let observed = Observed {
                            model: spec.model,
                            input: spec.input,
                            tier: spec.tier,
                            logits: &response.logits,
                            class: response.class,
                            budget: response.budget,
                            achieved_macs: response.achieved_macs,
                            degraded: response.degraded,
                        };
                        if let Err(e) = checker.check(&observed) {
                            failures.push(e);
                            continue;
                        }
                        let rtt_ms = (response.done - response.sent).as_secs_f64() * 1e3;
                        if let Some(t) = tracing {
                            let service = ("serve.service", response.engine_ms - response.queue_ms);
                            let queue = ("serve.queue_wait", response.queue_ms);
                            let overhead = ("http.overhead", rtt_ms - response.engine_ms);
                            let parts: &[(&str, f64)] = if t.over_socket {
                                &[overhead, queue, service]
                            } else {
                                &[queue, service]
                            };
                            t.recorder.request(
                                id_base + i as u64,
                                response.sent,
                                response.done,
                                parts,
                            );
                        }
                        samples.push(Sample {
                            spec,
                            rtt_ms,
                            engine_ms: response.engine_ms,
                            queue_ms: response.queue_ms,
                            batch: response.batch,
                            budget: response.budget,
                            achieved_macs: response.achieved_macs,
                            degraded: response.degraded,
                        });
                    }
                    (samples, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut round = Round {
        wall_s,
        samples: Vec::with_capacity(plan.len()),
    };
    let mut failures = Vec::new();
    for (samples, errs) in per_client {
        round.samples.extend(samples);
        failures.extend(errs);
    }
    (round, failures)
}

/// Replays `plan` in rounds for about `seconds` (at least one round)
/// after one untimed warm-up round.
pub fn closed_loop<C: Client>(
    clients: &mut [C],
    checkers: &mut [Checker<'_>],
    plan: &[ReqSpec],
    seconds: f64,
    tracing: Option<Tracing<'_>>,
) -> Phase {
    let mut phase = Phase::default();
    // Warm-up failures count too: a violation is one wherever it occurs.
    let (_, warm_failures) = run_round(clients, checkers, plan, 0, None);
    phase.attempted += plan.len() as u64;
    phase.failures.extend(warm_failures);
    let start = Instant::now();
    loop {
        let id_base = 1 + (phase.rounds.len() * plan.len()) as u64;
        let (round, failures) = run_round(clients, checkers, plan, id_base, tracing);
        phase.attempted += plan.len() as u64;
        phase.failures.extend(failures);
        phase.rounds.push(round);
        let elapsed = start.elapsed().as_secs_f64();
        let mean_round = elapsed / phase.rounds.len() as f64;
        if elapsed + mean_round / 2.0 > seconds {
            return phase;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = request_plan(42, 500, 2, 2, &Tier::MIXED);
        assert_eq!(a, request_plan(42, 500, 2, 2, &Tier::MIXED));
        assert_ne!(a, request_plan(43, 500, 2, 2, &Tier::MIXED));
        assert!(a.iter().all(|r| r.input < POOL));
        let client0: Vec<usize> = a.iter().step_by(2).map(|r| r.model).collect();
        assert!(
            client0.windows(2).all(|w| w[0] != w[1]),
            "each client alternates models"
        );
        for tier in Tier::MIXED {
            assert!(a.iter().any(|r| r.tier == tier), "{tier:?} is drawn");
        }
    }
}
