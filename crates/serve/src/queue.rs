//! A bounded multi-producer/multi-consumer queue with backpressure.
//!
//! This is the admission-control stage of the serving engine: producers
//! ([`crate::ServeHandle::submit`]) never block — a full queue is a typed
//! rejection, so load beyond capacity surfaces as backpressure instead of
//! unbounded memory growth. Consumers (the worker pool) block with
//! deadlines, which is what lets the micro-batcher coalesce requests for
//! up to `max_wait` without spinning.
//!
//! [`SloQueue`] is the engine's scheduling queue — priority lanes with
//! earliest-deadline-first order inside each lane, **eager expiry** (an
//! entry whose deadline passed while queued is returned to the caller
//! for a typed rejection instead of ever occupying a batch slot), and
//! priority eviction (a full queue displaces its least urgent entry to
//! admit a more urgent one).
//!
//! Built on `std::sync::{Mutex, Condvar}` only (the build environment has
//! no async runtime); ordered inserts are O(queue depth) worst case
//! (bounded by the configured capacity, which is small by design).

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why a push was refused. The rejected value is handed back so the
/// caller can respond to it (e.g. complete the request with a typed
/// error) instead of losing it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; retry later or reject.
    Full(T),
    /// The queue was closed (engine shutting down).
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the value that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(t) | PushError::Closed(t) => t,
        }
    }
}

/// Scheduling metadata an [`SloQueue`] entry must expose.
///
/// `lane` is the priority class (0 = most urgent); `deadline` is the
/// absolute instant after which serving the entry is pointless.
pub trait Scheduled {
    /// Priority lane, 0 = highest priority. Values beyond the queue's
    /// lane count are clamped to the lowest lane.
    fn lane(&self) -> usize;
    /// Absolute deadline; entries still queued past it are expired.
    fn deadline(&self) -> Instant;
}

/// Result of one [`SloQueue::try_push`].
#[derive(Debug)]
pub struct SloPush<T> {
    /// `Ok(None)`: enqueued. `Ok(Some(victim))`: enqueued by displacing
    /// the least urgent lower-priority entry, which the caller must fail
    /// with a typed response. `Err`: rejected (queue full of equal-or-
    /// higher-priority work, or closed) — the item is handed back.
    pub result: Result<Option<T>, PushError<T>>,
    /// Entries whose deadline had already passed, swept out while the
    /// lock was held. The caller must fail each with a typed response.
    pub expired: Vec<T>,
}

/// Result of one [`SloQueue::pop_until`].
#[derive(Debug)]
pub struct SloPop<T> {
    /// The most urgent live entry, if any arrived before the wait
    /// deadline.
    pub item: Option<T>,
    /// Entries rejected at dequeue because their deadline passed while
    /// queued — they never reach a batch; the caller must fail each with
    /// a typed response.
    pub expired: Vec<T>,
    /// `true` once the queue is closed *and* drained.
    pub closed: bool,
}

#[derive(Debug)]
struct SloState<T> {
    /// One deadline-sorted (ascending) vector per priority lane.
    lanes: Vec<Vec<T>>,
    len: usize,
    closed: bool,
}

/// Bounded SLO-aware queue: priority lanes, earliest-deadline-first
/// order within a lane, eager expiry at both push and pop, and
/// displacement of the least urgent entry when a more urgent one
/// arrives at a full queue.
///
/// Dequeue order: the front (earliest deadline) of the highest-priority
/// non-empty lane. Because lanes are deadline-sorted, all expired
/// entries form a prefix of each lane and are swept in one pass.
#[derive(Debug)]
pub struct SloQueue<T: Scheduled> {
    state: Mutex<SloState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T: Scheduled> SloQueue<T> {
    /// Creates a queue with `lanes` priority lanes holding at most
    /// `capacity` entries in total.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `lanes` is zero.
    pub fn new(capacity: usize, lanes: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(lanes > 0, "queue needs at least one lane");
        Self {
            state: Mutex::new(SloState {
                lanes: (0..lanes).map(|_| Vec::new()).collect(),
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of queued entries across all lanes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth across all lanes.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue depth as a fraction of capacity — the load-shedding
    /// pressure signal (mirrors the `serve.queue_depth` gauge).
    pub fn pressure(&self) -> f64 {
        self.len() as f64 / self.capacity as f64
    }

    /// Moves every already-expired entry (deadline ≤ `now`) out of the
    /// lanes into `out`. Expired entries are exactly the prefix of each
    /// deadline-sorted lane.
    fn sweep_expired(st: &mut SloState<T>, now: Instant, out: &mut Vec<T>) {
        for lane in &mut st.lanes {
            let cut = lane.partition_point(|t| t.deadline() <= now);
            if cut > 0 {
                st.len -= cut;
                out.extend(lane.drain(..cut));
            }
        }
    }

    /// Removes and returns the front of the highest-priority non-empty
    /// lane.
    fn take_front(st: &mut SloState<T>) -> Option<T> {
        for lane in &mut st.lanes {
            if !lane.is_empty() {
                st.len -= 1;
                return Some(lane.remove(0));
            }
        }
        None
    }

    /// Non-blocking enqueue with expiry sweep and priority eviction.
    ///
    /// At capacity (after sweeping expired entries), an item may still
    /// be admitted by displacing the *latest-deadline* entry of the
    /// *lowest-priority* lane strictly below the item's own lane; the
    /// victim is returned so the caller can fail it with a typed
    /// response. If no such victim exists the push is
    /// [`PushError::Full`].
    pub fn try_push(&self, item: T) -> SloPush<T> {
        let mut expired = Vec::new();
        let mut st = self.state.lock().expect("queue lock poisoned");
        if st.closed {
            return SloPush {
                result: Err(PushError::Closed(item)),
                expired,
            };
        }
        Self::sweep_expired(&mut st, Instant::now(), &mut expired);
        let lane_count = st.lanes.len();
        let lane = item.lane().min(lane_count - 1);
        let mut evicted = None;
        if st.len >= self.capacity {
            let victim_lane = (lane + 1..lane_count).rev().find(|&l| !st.lanes[l].is_empty());
            match victim_lane {
                Some(v) => {
                    evicted = st.lanes[v].pop();
                    st.len -= 1;
                }
                None => {
                    return SloPush {
                        result: Err(PushError::Full(item)),
                        expired,
                    };
                }
            }
        }
        let deadline = item.deadline();
        let idx = st.lanes[lane].partition_point(|t| t.deadline() <= deadline);
        st.lanes[lane].insert(idx, item);
        st.len += 1;
        drop(st);
        self.not_empty.notify_one();
        SloPush {
            result: Ok(evicted),
            expired,
        }
    }

    /// Dequeues the most urgent live entry, blocking until one arrives,
    /// `wait_until` passes (`None` waits indefinitely), or the queue is
    /// closed and drained.
    ///
    /// Returns early — with an empty `item` — whenever the sweep finds
    /// expired entries, so their typed rejections are delivered promptly
    /// instead of after the batch window.
    pub fn pop_until(&self, wait_until: Option<Instant>) -> SloPop<T> {
        let mut expired = Vec::new();
        let mut st = self.state.lock().expect("queue lock poisoned");
        loop {
            let now = Instant::now();
            Self::sweep_expired(&mut st, now, &mut expired);
            if let Some(item) = Self::take_front(&mut st) {
                return SloPop {
                    item: Some(item),
                    expired,
                    closed: false,
                };
            }
            if st.closed {
                return SloPop {
                    item: None,
                    expired,
                    closed: true,
                };
            }
            if !expired.is_empty() {
                return SloPop {
                    item: None,
                    expired,
                    closed: false,
                };
            }
            match wait_until {
                Some(deadline) => {
                    let Some(remaining) =
                        deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                    else {
                        return SloPop {
                            item: None,
                            expired,
                            closed: false,
                        };
                    };
                    let (guard, _) = self
                        .not_empty
                        .wait_timeout(st, remaining)
                        .expect("queue lock poisoned");
                    st = guard;
                }
                None => {
                    st = self.not_empty.wait(st).expect("queue lock poisoned");
                }
            }
        }
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`];
    /// consumers drain remaining entries (expiring stale ones) and then
    /// observe `closed`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, PartialEq)]
    struct Job {
        id: u32,
        lane: usize,
        deadline: Instant,
    }

    impl Scheduled for Job {
        fn lane(&self) -> usize {
            self.lane
        }
        fn deadline(&self) -> Instant {
            self.deadline
        }
    }

    fn job(id: u32, lane: usize, deadline_ms: u64) -> Job {
        Job {
            id,
            lane,
            deadline: Instant::now() + Duration::from_millis(deadline_ms),
        }
    }

    fn push_ok(q: &SloQueue<Job>, j: Job) {
        let out = q.try_push(j);
        assert!(matches!(out.result, Ok(None)), "expected clean push");
        assert!(out.expired.is_empty());
    }

    #[test]
    fn slo_pop_is_priority_then_edf() {
        let q = SloQueue::new(8, 3);
        push_ok(&q, job(1, 2, 5_000));
        push_ok(&q, job(2, 1, 9_000));
        push_ok(&q, job(3, 1, 1_000));
        push_ok(&q, job(4, 0, 7_000));
        let order: Vec<u32> = (0..4)
            .map(|_| q.pop_until(Some(Instant::now())).item.expect("queued item").id)
            .collect();
        // Lane 0 first, then lane 1 in deadline order, then lane 2.
        assert_eq!(order, vec![4, 3, 2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn slo_expired_entries_are_returned_not_served() {
        let q = SloQueue::new(8, 2);
        push_ok(&q, job(2, 0, 5_000));
        // Expired by the time it is popped (pushes sweep too, so the
        // stale entry goes in last to exercise the dequeue-side sweep).
        let out = q.try_push(Job {
            id: 1,
            lane: 0,
            deadline: Instant::now() - Duration::from_millis(1),
        });
        assert!(matches!(out.result, Ok(None)));
        let pop = q.pop_until(Some(Instant::now()));
        assert_eq!(pop.item.as_ref().map(|j| j.id), Some(2), "live item served");
        assert_eq!(pop.expired.len(), 1, "expired item swept at dequeue");
        assert_eq!(pop.expired[0].id, 1);
    }

    #[test]
    fn slo_expiry_frees_capacity_for_admission() {
        let q = SloQueue::new(1, 2);
        let out = q.try_push(Job {
            id: 1,
            lane: 0,
            deadline: Instant::now() - Duration::from_millis(1),
        });
        assert!(matches!(out.result, Ok(None)));
        // Queue is "full" of one expired entry: the push sweeps it out
        // and admits the new item instead of rejecting it.
        let out = q.try_push(job(2, 0, 5_000));
        assert!(matches!(out.result, Ok(None)));
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].id, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slo_full_queue_evicts_lower_priority_for_higher() {
        let q = SloQueue::new(2, 3);
        push_ok(&q, job(1, 2, 1_000));
        push_ok(&q, job(2, 2, 9_000));
        // Lane-0 arrival displaces the latest-deadline lane-2 entry.
        let out = q.try_push(job(3, 0, 5_000));
        match out.result {
            Ok(Some(victim)) => assert_eq!(victim.id, 2, "latest-deadline low-lane entry evicted"),
            other => panic!("expected eviction, got {other:?}"),
        }
        // A same-lane arrival at capacity is plain backpressure.
        let out = q.try_push(job(4, 2, 2_000));
        assert!(matches!(out.result, Err(PushError::Full(_))));
        // Lowest lane never evicts anything.
        let out = q.try_push(job(5, 2, 1));
        assert!(matches!(out.result, Err(PushError::Full(_))));
    }

    #[test]
    fn slo_pop_times_out_when_empty_and_closes() {
        let q: SloQueue<Job> = SloQueue::new(2, 1);
        let pop = q.pop_until(Some(Instant::now() + Duration::from_millis(10)));
        assert!(pop.item.is_none() && !pop.closed);
        q.close();
        let pop = q.pop_until(None);
        assert!(pop.closed);
        let out = q.try_push(job(1, 0, 1_000));
        assert!(matches!(out.result, Err(PushError::Closed(_))));
    }

    #[test]
    fn slo_cross_thread_handoff_wakes_blocked_consumer() {
        let q: Arc<SloQueue<Job>> = Arc::new(SloQueue::new(4, 2));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || loop {
                let pop = q.pop_until(None);
                if let Some(j) = pop.item {
                    return j.id;
                }
                assert!(!pop.closed, "queue closed before delivering");
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        push_ok(&q, job(77, 1, 5_000));
        assert_eq!(consumer.join().unwrap(), 77);
    }
}
