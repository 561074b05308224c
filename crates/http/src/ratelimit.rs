//! Per-client token-bucket rate limiting.
//!
//! Buckets are keyed by peer **IP** (not socket address), so a client
//! opening many connections — or churning ephemeral ports — still draws
//! from one budget. Each bucket refills continuously at `rps` tokens
//! per second up to a `burst` cap; a request costs one token. An empty
//! bucket yields a typed rejection carrying the exact time until the
//! next token, which the server surfaces as `429` with a `Retry-After`
//! header.
//!
//! The rate and burst are set through [`crate::HttpConfig::rate`].

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Steady rate and burst allowance for one client IP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateConfig {
    /// Sustained requests per second each client may issue.
    pub rps: f64,
    /// Bucket capacity: how many requests may arrive back-to-back
    /// before the steady rate applies.
    pub burst: f64,
}

impl Default for RateConfig {
    fn default() -> Self {
        // Generous enough that well-behaved benches never notice the
        // limiter; tight enough that one looping client cannot starve
        // the queue for everyone else.
        Self { rps: 200.0, burst: 400.0 }
    }
}

impl RateConfig {
    /// `true` when both fields are usable (finite, positive).
    pub fn is_valid(&self) -> bool {
        self.rps.is_finite() && self.rps > 0.0 && self.burst.is_finite() && self.burst >= 1.0
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refreshed: Instant,
}

/// The limiter: one token bucket per observed client IP.
#[derive(Debug)]
pub struct RateLimiter {
    config: RateConfig,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

/// How many idle bucket-lifetimes of `burst/rps` to keep a client's
/// state around before pruning it. Once a bucket has been idle long
/// enough to refill completely it is indistinguishable from a fresh
/// one, so dropping it changes no admission decision.
const PRUNE_FULL_REFILLS: f64 = 2.0;

impl RateLimiter {
    /// A limiter with the given per-client budget.
    pub fn new(config: RateConfig) -> Self {
        Self { config, buckets: Mutex::new(HashMap::new()) }
    }

    /// The budget this limiter enforces.
    pub fn config(&self) -> RateConfig {
        self.config
    }

    /// Tries to spend one token for `ip`.
    ///
    /// # Errors
    ///
    /// The duration until the bucket next holds a full token — the
    /// `Retry-After` the client should honour.
    pub fn try_acquire(&self, ip: IpAddr) -> Result<(), Duration> {
        self.acquire_at(ip, Instant::now())
    }

    /// Clock-injected core of [`Self::try_acquire`], for deterministic
    /// tests.
    fn acquire_at(&self, ip: IpAddr, now: Instant) -> Result<(), Duration> {
        let mut buckets = self.buckets.lock().unwrap_or_else(|p| p.into_inner());
        let bucket = buckets
            .entry(ip)
            .or_insert(Bucket { tokens: self.config.burst, refreshed: now });
        let dt = now.saturating_duration_since(bucket.refreshed).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.config.rps).min(self.config.burst);
        bucket.refreshed = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Ok(());
        }
        let wait = Duration::from_secs_f64((1.0 - bucket.tokens) / self.config.rps);
        drop(buckets);
        self.prune(now);
        Err(wait)
    }

    /// Drops buckets idle long enough to have fully refilled — bounded
    /// memory under address churn without changing any decision.
    fn prune(&self, now: Instant) {
        let idle_cutoff =
            Duration::from_secs_f64(PRUNE_FULL_REFILLS * self.config.burst / self.config.rps);
        let mut buckets = self.buckets.lock().unwrap_or_else(|p| p.into_inner());
        buckets.retain(|_, b| now.saturating_duration_since(b.refreshed) < idle_cutoff);
    }

    /// Number of client IPs currently tracked (tests, metrics).
    pub fn tracked_clients(&self) -> usize {
        self.buckets.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn burst_admits_then_rejects_with_retry_after() {
        let rl = RateLimiter::new(RateConfig { rps: 10.0, burst: 3.0 });
        let t0 = Instant::now();
        for _ in 0..3 {
            assert!(rl.acquire_at(ip(1), t0).is_ok());
        }
        let wait = rl.acquire_at(ip(1), t0).unwrap_err();
        // Empty bucket at 10 rps: next token in 100ms.
        assert!((wait.as_secs_f64() - 0.1).abs() < 1e-6, "wait = {wait:?}");
    }

    #[test]
    fn refill_restores_tokens_at_rps() {
        let rl = RateLimiter::new(RateConfig { rps: 10.0, burst: 1.0 });
        let t0 = Instant::now();
        assert!(rl.acquire_at(ip(1), t0).is_ok());
        assert!(rl.acquire_at(ip(1), t0).is_err());
        assert!(rl.acquire_at(ip(1), t0 + Duration::from_millis(150)).is_ok());
    }

    #[test]
    fn clients_draw_from_independent_buckets() {
        let rl = RateLimiter::new(RateConfig { rps: 1.0, burst: 1.0 });
        let t0 = Instant::now();
        assert!(rl.acquire_at(ip(1), t0).is_ok());
        assert!(rl.acquire_at(ip(1), t0).is_err());
        assert!(rl.acquire_at(ip(2), t0).is_ok(), "other client unaffected");
    }

    #[test]
    fn refill_caps_at_burst() {
        let rl = RateLimiter::new(RateConfig { rps: 100.0, burst: 2.0 });
        let t0 = Instant::now();
        // A long idle period must not bank more than `burst` tokens.
        let later = t0 + Duration::from_secs(60);
        assert!(rl.acquire_at(ip(1), t0).is_ok());
        assert!(rl.acquire_at(ip(1), later).is_ok());
        assert!(rl.acquire_at(ip(1), later).is_ok());
        assert!(rl.acquire_at(ip(1), later).is_err());
    }

    #[test]
    fn idle_buckets_are_pruned() {
        let rl = RateLimiter::new(RateConfig { rps: 10.0, burst: 1.0 });
        let t0 = Instant::now();
        assert!(rl.acquire_at(ip(1), t0).is_ok());
        assert_eq!(rl.tracked_clients(), 1);
        // ip(1) is now long idle; a rejection for ip(2) triggers a prune.
        let later = t0 + Duration::from_secs(60);
        assert!(rl.acquire_at(ip(2), later).is_ok());
        assert!(rl.acquire_at(ip(2), later).is_err());
        assert_eq!(rl.tracked_clients(), 1, "only the active client remains");
    }

    #[test]
    fn default_config_is_valid() {
        assert!(RateConfig::default().is_valid());
        assert!(!RateConfig { rps: 0.0, burst: 1.0 }.is_valid());
        assert!(!RateConfig { rps: 1.0, burst: 0.5 }.is_valid());
        assert!(!RateConfig { rps: f64::NAN, burst: 1.0 }.is_valid());
    }
}
