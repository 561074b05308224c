//! Chaos mode: deterministic replica killing under load.
//!
//! When enabled (a [`ChaosConfig`] in [`crate::ServeConfig::chaos`]),
//! a [`ChaosMonkey`] periodically selects a victim worker; the next
//! batch that worker processes panics mid-flight. The engine's existing
//! panic containment turns that into typed
//! [`crate::ServeError::WorkerPanicked`] responses for the batch and a
//! replica rebuild from the model factory — chaos mode exists to prove,
//! continuously and under CI, that this recovery path holds its p99 and
//! error-rate bounds while traffic keeps arriving.
//!
//! Victim selection uses a tiny xorshift generator so the serve crate
//! stays free of non-std dependencies and a given seed kills the same
//! sequence of workers.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Chaos-mode parameters. `None` in [`crate::ServeConfig::chaos`]
/// disables chaos entirely (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// How often a replica is killed.
    pub kill_every: Duration,
    /// Maximum kills over the engine's lifetime; 0 means unlimited.
    pub max_kills: u64,
    /// Seed for victim selection.
    pub seed: u64,
}

#[derive(Debug)]
struct MonkeyState {
    next_kill: Instant,
    /// Worker currently marked for death; cleared when it fires.
    victim: Option<usize>,
    kills: u64,
    rng: u64,
}

/// Shared kill scheduler consulted by every worker once per batch.
#[derive(Debug)]
pub struct ChaosMonkey {
    cfg: ChaosConfig,
    workers: usize,
    state: Mutex<MonkeyState>,
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl ChaosMonkey {
    /// Creates a monkey for a pool of `workers` replicas. The first kill
    /// is scheduled one full period after start.
    pub fn new(cfg: ChaosConfig, workers: usize) -> Self {
        Self {
            cfg,
            workers: workers.max(1),
            state: Mutex::new(MonkeyState {
                next_kill: Instant::now() + cfg.kill_every,
                victim: None,
                kills: 0,
                // Xorshift has a fixed point at zero; nudge the seed.
                rng: cfg.seed | 1,
            }),
        }
    }

    /// Called by worker `worker` before processing a batch; `true` means
    /// "panic now". At most one worker gets `true` per kill period: when
    /// the period elapses a victim is drawn, and it fires the next time
    /// that worker polls.
    pub fn should_kill(&self, worker: usize) -> bool {
        let mut st = self.state.lock().expect("chaos lock poisoned");
        if self.cfg.max_kills > 0 && st.kills >= self.cfg.max_kills {
            return false;
        }
        if st.victim.is_none() && Instant::now() >= st.next_kill {
            st.victim = Some((xorshift64(&mut st.rng) % self.workers as u64) as usize);
        }
        if st.victim == Some(worker) {
            st.victim = None;
            st.kills += 1;
            st.next_kill = Instant::now() + self.cfg.kill_every;
            if antidote_obs::enabled() {
                antidote_obs::warn_event(
                    "chaos.kill",
                    &[("worker", antidote_obs::Value::U64(worker as u64))],
                );
            }
            return true;
        }
        false
    }

    /// Kills fired so far.
    pub fn kills(&self) -> u64 {
        self.state.lock().expect("chaos lock poisoned").kills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_period_and_kill_cap() {
        let monkey = ChaosMonkey::new(
            ChaosConfig {
                kill_every: Duration::from_millis(5),
                max_kills: 2,
                seed: 7,
            },
            3,
        );
        // Nothing fires before the first period elapses.
        assert!((0..3).all(|w| !monkey.should_kill(w)));
        std::thread::sleep(Duration::from_millis(8));
        // Exactly one worker dies per period.
        let first: Vec<bool> = (0..3).map(|w| monkey.should_kill(w)).collect();
        assert_eq!(first.iter().filter(|&&k| k).count(), 1);
        assert_eq!(monkey.kills(), 1);
        std::thread::sleep(Duration::from_millis(8));
        let second: Vec<bool> = (0..3).map(|w| monkey.should_kill(w)).collect();
        assert_eq!(second.iter().filter(|&&k| k).count(), 1);
        assert_eq!(monkey.kills(), 2);
        // The cap stops further kills no matter how long we wait.
        std::thread::sleep(Duration::from_millis(8));
        assert!((0..3).all(|w| !monkey.should_kill(w)));
        assert_eq!(monkey.kills(), 2);
    }

    #[test]
    fn same_seed_kills_same_victims() {
        let run = |seed: u64| -> Vec<usize> {
            let monkey = ChaosMonkey::new(
                ChaosConfig {
                    kill_every: Duration::from_millis(1),
                    max_kills: 4,
                    seed,
                },
                5,
            );
            let mut victims = Vec::new();
            while victims.len() < 4 {
                std::thread::sleep(Duration::from_millis(2));
                for w in 0..5 {
                    if monkey.should_kill(w) {
                        victims.push(w);
                    }
                }
            }
            victims
        };
        assert_eq!(run(99), run(99));
    }
}
