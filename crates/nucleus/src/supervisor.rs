//! Per-circuit health supervision: breakers, dead letters, and the
//! bounded retransmission queue.
//!
//! §3.5's address-fault handler answers "can we find the peer again?";
//! this module answers the adjacent question the paper leaves to the
//! DRTS — "should we keep trying *right now*?". Each peer circuit
//! carries a small state machine:
//!
//! ```text
//!          consecutive failures == trip_after
//! Closed ────────────────────────────────────▶ Open
//!   ▲  ▲                                        │ half_open_after
//!   │  └───────── probe succeeds ──────┐        ▼
//!   └── success resets failure count   └──── HalfOpen
//!                                        probe fails ──▶ Open
//! ```
//!
//! `Closed` admits all traffic, `Open` rejects immediately with
//! [`NtcsError::CircuitBroken`] (protecting the rest of the stack from
//! queueing behind a dead peer), and `HalfOpen` admits exactly the
//! probes that decide recovery. The externally visible projection is
//! [`CircuitHealth`]: Healthy → Degraded → Broken.
//!
//! When every layer of recovery is exhausted, a reliable message is not
//! silently dropped: it is handed to the [dead-letter sink]
//! (`DeadLetterSink`), so the DRTS or application can log, alert, or
//! re-route (§6.3's plea that exceptional conditions be *surfaced*, not
//! swallowed).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ntcs_addr::{NtcsError, Result, UAdd};
use ntcs_ipcs::SimClock;

/// Externally visible health of a peer circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitHealth {
    /// No recent failures; traffic flows normally.
    Healthy,
    /// Recent failures below the trip threshold, or the breaker is
    /// half-open and probing.
    Degraded,
    /// The breaker is open: sends fail fast with
    /// [`NtcsError::CircuitBroken`] until the half-open timer admits a
    /// probe that succeeds.
    Broken,
}

impl fmt::Display for CircuitHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CircuitHealth::Healthy => "healthy",
            CircuitHealth::Degraded => "degraded",
            CircuitHealth::Broken => "broken",
        })
    }
}

/// Tuning for the per-circuit breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open (minimum 1).
    pub trip_after: u32,
    /// How long an open breaker waits before admitting a half-open
    /// probe.
    pub half_open_after: Duration,
}

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { failures: u32 },
    Open { since_us: i64 },
    HalfOpen,
}

/// One peer's breaker. See the module docs for the state machine.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker with the given tuning.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed { failures: 0 },
        }
    }

    fn half_open_after_us(&self) -> i64 {
        i64::try_from(self.config.half_open_after.as_micros()).unwrap_or(i64::MAX)
    }

    /// Whether a send may proceed now. An open breaker whose half-open
    /// timer has elapsed transitions to `HalfOpen` and admits the call
    /// as a probe. `now_us` is the machine clock's reading — virtual in
    /// a deterministic simulation, wall-derived on the real testbed —
    /// so breaker timelines replay identically under the same seed.
    pub fn allow(&mut self, now_us: i64) -> bool {
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { since_us } => {
                if now_us.saturating_sub(since_us) >= self.half_open_after_us() {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful delivery. Returns `true` when this closed a
    /// previously tripped breaker (a recovery).
    pub fn record_success(&mut self) -> bool {
        let recovered = matches!(
            self.state,
            BreakerState::HalfOpen | BreakerState::Open { .. }
        );
        self.state = BreakerState::Closed { failures: 0 };
        recovered
    }

    /// Records a delivery failure. Returns `true` when this call
    /// tripped the breaker open (including a failed half-open probe).
    pub fn record_failure(&mut self, now_us: i64) -> bool {
        match self.state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.config.trip_after.max(1) {
                    self.state = BreakerState::Open { since_us: now_us };
                    true
                } else {
                    self.state = BreakerState::Closed { failures };
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open { since_us: now_us };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// The health projection of the current state.
    #[must_use]
    pub fn health(&self, now_us: i64) -> CircuitHealth {
        match self.state {
            BreakerState::Closed { failures: 0 } => CircuitHealth::Healthy,
            BreakerState::Closed { .. } | BreakerState::HalfOpen => CircuitHealth::Degraded,
            BreakerState::Open { since_us } => {
                // An open breaker whose probe window has elapsed is
                // eligible to recover: report Degraded so observers see
                // the distinction without mutating state.
                if now_us.saturating_sub(since_us) >= self.half_open_after_us() {
                    CircuitHealth::Degraded
                } else {
                    CircuitHealth::Broken
                }
            }
        }
    }
}

/// All breakers for one nucleus, keyed by peer UAdd.
///
/// Time comes from the machine's [`SimClock`], not from `Instant::now()`:
/// under a virtual-time world the whole breaker timeline (trip, half-open
/// eligibility, recovery) is then a pure function of the driver's
/// schedule, which is what makes same-seed replays bit-identical.
pub struct BreakerRegistry {
    config: BreakerConfig,
    clock: SimClock,
    map: Mutex<HashMap<u64, CircuitBreaker>>,
}

impl BreakerRegistry {
    /// An empty registry reading `clock`; breakers materialise per peer
    /// on first use.
    #[must_use]
    pub fn new(config: BreakerConfig, clock: SimClock) -> Self {
        BreakerRegistry {
            config,
            clock,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The registry's time source: reference microseconds, immune to the
    /// DRTS correction jumping the *local* reading around — breaker
    /// intervals must never run backwards.
    fn now_us(&self) -> i64 {
        self.clock.true_us()
    }

    fn with<R>(&self, peer: UAdd, f: impl FnOnce(&mut CircuitBreaker) -> R) -> R {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let breaker = map
            .entry(peer.raw())
            .or_insert_with(|| CircuitBreaker::new(self.config.clone()));
        f(breaker)
    }

    /// Gate a send: `Err(CircuitBroken)` while the breaker is open and
    /// the half-open timer has not elapsed.
    pub fn check(&self, peer: UAdd) -> Result<()> {
        let now_us = self.now_us();
        if self.with(peer, |b| b.allow(now_us)) {
            Ok(())
        } else {
            Err(NtcsError::CircuitBroken(peer.raw()))
        }
    }

    /// Records a success; returns `true` when a tripped breaker closed.
    pub fn record_success(&self, peer: UAdd) -> bool {
        self.with(peer, CircuitBreaker::record_success)
    }

    /// Records a failure; returns `true` when this tripped the breaker.
    pub fn record_failure(&self, peer: UAdd) -> bool {
        let now_us = self.now_us();
        self.with(peer, |b| b.record_failure(now_us))
    }

    /// Health of the circuit toward `peer` (Healthy when no traffic has
    /// ever been recorded).
    #[must_use]
    pub fn health(&self, peer: UAdd) -> CircuitHealth {
        let now_us = self.now_us();
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&peer.raw())
            .map_or(CircuitHealth::Healthy, |b| b.health(now_us))
    }

    /// Health of every peer circuit that has ever carried traffic, sorted
    /// by peer address for stable rendering in observability reports.
    #[must_use]
    pub fn all_health(&self) -> Vec<(UAdd, CircuitHealth)> {
        let now_us = self.now_us();
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let mut all: Vec<(UAdd, CircuitHealth)> = map
            .iter()
            .map(|(&raw, b)| (UAdd::from_raw(raw), b.health(now_us)))
            .collect();
        all.sort_by_key(|(peer, _)| peer.raw());
        all
    }
}

/// A reliable message whose recovery budget is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Destination the message never (confirmably) reached.
    pub dst: UAdd,
    /// Reliable-send message id (the receiver-side dedupe key).
    pub msg_id: u64,
    /// Application message type.
    pub mtype: u32,
    /// Total delivery attempts made before giving up.
    pub attempts: u32,
    /// The final error that exhausted recovery.
    pub error: NtcsError,
}

/// Callback invoked with each dead letter. Installed via
/// `Nucleus::set_dead_letter_sink` (or the DRTS hook registry at the
/// ComMod level).
pub type DeadLetterSink = Arc<dyn Fn(&DeadLetter) + Send + Sync>;

struct RetxInner {
    cap: usize,
    in_flight: Mutex<HashSet<u64>>,
    freed: Condvar,
}

/// Bounded set of reliable sends currently awaiting acknowledgement.
///
/// The bound is backpressure: when `cap` reliable sends are already in
/// flight, new senders block (up to their own deadline) instead of
/// growing retransmission state without limit across circuit
/// re-establishments.
pub struct RetransmissionQueue {
    inner: Arc<RetxInner>,
}

impl RetransmissionQueue {
    /// A queue admitting at most `cap` (minimum 1) in-flight sends.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        RetransmissionQueue {
            inner: Arc::new(RetxInner {
                cap: cap.max(1),
                in_flight: Mutex::new(HashSet::new()),
                freed: Condvar::new(),
            }),
        }
    }

    /// Number of reliable sends currently awaiting acknowledgement.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Claims a slot for `msg_id`, blocking up to `timeout` while the
    /// queue is full.
    ///
    /// The wait is measured in *wall* time even under a virtual-time
    /// world: blocking is a liveness concern (a parked thread cannot
    /// advance a clock nobody reads), and nothing the system records
    /// derives from how long the wait actually took.
    ///
    /// # Errors
    ///
    /// [`NtcsError::DeadlineExceeded`] when `timeout` passes before a
    /// slot frees up.
    pub fn register(&self, msg_id: u64, timeout: Duration) -> Result<RetxSlot> {
        let deadline = Instant::now() + timeout;
        let mut in_flight = self
            .inner
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while in_flight.len() >= self.inner.cap {
            let now = Instant::now();
            if now >= deadline {
                return Err(NtcsError::DeadlineExceeded);
            }
            let (guard, timeout) = self
                .inner
                .freed
                .wait_timeout(in_flight, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            in_flight = guard;
            if timeout.timed_out() && in_flight.len() >= self.inner.cap {
                return Err(NtcsError::DeadlineExceeded);
            }
        }
        in_flight.insert(msg_id);
        Ok(RetxSlot {
            inner: Arc::clone(&self.inner),
            msg_id,
        })
    }
}

/// RAII slot in the retransmission queue; dropping it (ack received,
/// dead-lettered, or send aborted) frees the slot and wakes one waiter.
pub struct RetxSlot {
    inner: Arc<RetxInner>,
    msg_id: u64,
}

impl Drop for RetxSlot {
    fn drop(&mut self) {
        let mut in_flight = self
            .inner
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        in_flight.remove(&self.msg_id);
        self.inner.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntcs_ipcs::VirtualTime;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            half_open_after: Duration::from_millis(20),
        }
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.health(0), CircuitHealth::Healthy);
        assert!(!b.record_failure(0));
        assert_eq!(b.health(0), CircuitHealth::Degraded);
        assert!(!b.record_failure(0));
        assert!(b.record_failure(0), "third consecutive failure must trip");
        assert_eq!(b.health(0), CircuitHealth::Broken);
        assert!(!b.allow(0));
    }

    #[test]
    fn success_resets_failure_count() {
        let mut b = CircuitBreaker::new(cfg());
        b.record_failure(0);
        b.record_failure(0);
        assert!(!b.record_success());
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.health(0), CircuitHealth::Degraded, "count restarted");
    }

    #[test]
    fn half_open_probe_decides_recovery() {
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure(0);
        }
        assert!(!b.allow(0), "freshly open: reject");
        let later = 25_000; // 25 ms in µs, past the 20 ms half-open window
        assert!(b.allow(later), "half-open window admits a probe");
        assert_eq!(b.health(later), CircuitHealth::Degraded);
        assert!(b.record_success(), "successful probe is a recovery");
        assert_eq!(b.health(later), CircuitHealth::Healthy);

        // And a failed probe re-trips immediately.
        for _ in 0..3 {
            b.record_failure(later);
        }
        let probe_at = later + 25_000;
        assert!(b.allow(probe_at));
        assert!(b.record_failure(probe_at), "failed probe re-trips");
        assert!(!b.allow(probe_at));
    }

    #[test]
    fn registry_checks_and_recovers_on_virtual_time() {
        let mk = |n: u64| UAdd::from_raw(n);
        // A virtual clock: the half-open window elapses only when *we*
        // advance time, no sleeping.
        let vt = Arc::new(VirtualTime::new());
        let reg = BreakerRegistry::new(cfg(), SimClock::new_virtual(Arc::clone(&vt), 0, 0.0));
        let peer = mk(7);
        assert!(reg.check(peer).is_ok());
        assert!(!reg.record_failure(peer));
        assert!(!reg.record_failure(peer));
        assert!(reg.record_failure(peer));
        assert_eq!(reg.check(peer), Err(NtcsError::CircuitBroken(peer.raw())));
        assert_eq!(reg.health(peer), CircuitHealth::Broken);
        // An unrelated peer is unaffected.
        assert!(reg.check(mk(8)).is_ok());
        vt.advance_us(25_000);
        assert!(reg.check(peer).is_ok(), "half-open probe admitted");
        assert!(reg.record_success(peer), "probe success recovers");
        assert_eq!(reg.health(peer), CircuitHealth::Healthy);
    }

    #[test]
    fn retransmission_queue_bounds_in_flight() {
        let q = RetransmissionQueue::new(2);
        let a = q.register(1, Duration::from_millis(30)).unwrap();
        let _b = q.register(2, Duration::from_millis(30)).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(
            q.register(3, Duration::from_millis(20))
                .map(|_| ())
                .unwrap_err(),
            NtcsError::DeadlineExceeded,
            "full queue must time out a blocked register"
        );
        drop(a);
        assert_eq!(q.depth(), 1);
        let _c = q
            .register(3, Duration::from_millis(20))
            .expect("freed slot admits a new send");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn retransmission_queue_wakes_blocked_sender() {
        let q = Arc::new(RetransmissionQueue::new(1));
        let slot = q.register(1, Duration::from_secs(1)).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || {
            q2.register(2, Duration::from_secs(5)).map(|s| {
                drop(s);
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(slot);
        waiter
            .join()
            .unwrap()
            .expect("blocked sender must wake on free");
    }
}
