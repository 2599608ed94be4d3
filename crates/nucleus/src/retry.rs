//! Retry policy: bounded, deterministic exponential backoff.
//!
//! The paper's recovery story (§3.5) re-establishes broken circuits "in
//! exactly the same manner as during an initial connection", but the
//! seed only retried the ND-level *open*. [`RetryPolicy`] is the one
//! knob every layer shares: the ND-Layer open, LCM circuit
//! re-establishment, NSP naming queries, and gateway hop splicing all
//! run their attempts through it, under three constant policies
//! ([`crate::CIRCUIT_RETRY`], the NSP layer's naming policy, and the
//! LCM's reliable-send pacing), all observable through one set of
//! counters.
//!
//! Backoff is exponential with a cap, plus *deterministic seeded
//! jitter*: the jitter for attempt `n` is a pure function of
//! `(seed, n)`, so a given configuration produces the same schedule on
//! every run — chaos tests stay reproducible while distinct modules
//! (distinct seeds) still de-synchronise their retries.

use std::time::{Duration, Instant};

use ntcs_addr::{NtcsError, Result};

/// Bounded exponential backoff with deterministic jitter.
///
/// An operation governed by a policy runs at most [`max_attempts`]
/// times and never past [`deadline`] measured from the first attempt;
/// between attempts it sleeps the next delay of [`schedule`].
///
/// [`max_attempts`]: RetryPolicy::max_attempts
/// [`deadline`]: RetryPolicy::deadline
/// [`schedule`]: RetryPolicy::schedule
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Nominal delay before the first retry.
    pub base_backoff: Duration,
    /// Cap on the nominal (pre-jitter) delay.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: the delay for attempt `n` lies in
    /// `[nominal(n), nominal(n) * (1 + jitter)]`.
    pub jitter: f64,
    /// Wall-clock budget across all attempts and sleeps.
    pub deadline: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            jitter: 0.25,
            deadline: Duration::from_secs(5),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that tries exactly once: no retries, no sleeps.
    #[must_use]
    pub fn once() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Replaces the deadline (builder style) — used when a caller
    /// supplies its own time budget, e.g. a reliable send.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replaces the jitter seed (builder style). Each module derives
    /// its own seed so concurrent retries de-synchronise.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Nominal (pre-jitter) backoff before retry number `retry`
    /// (0-based): `base * 2^retry`, capped at `max_backoff`.
    #[must_use]
    pub fn nominal_backoff(&self, retry: u32) -> Duration {
        let base = self.base_backoff.max(Duration::from_micros(1));
        let doubled = base.saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        doubled.min(self.max_backoff.max(base))
    }

    /// The deterministic delay sequence this policy will sleep between
    /// attempts. Delays are monotone non-decreasing and each lies within
    /// the jitter bounds of its nominal value, except that the final
    /// delay may be truncated so their sum never exceeds
    /// [`RetryPolicy::deadline`] (a truncated emit exhausts the budget,
    /// so it is always the last).
    #[must_use]
    pub fn schedule(&self) -> BackoffSchedule {
        BackoffSchedule {
            policy: self.clone(),
            retry: 0,
            spent: Duration::ZERO,
            prev: Duration::ZERO,
        }
    }

    /// Runs `op` under this policy: transient errors (per
    /// [`NtcsError::is_transient`]) are retried after the scheduled
    /// backoff until the attempt or deadline budget runs out;
    /// non-transient errors surface immediately. `on_retry` fires
    /// before each backoff sleep with the 0-based retry number and the
    /// error that caused it (the metrics/trace hook).
    ///
    /// # Errors
    ///
    /// The last transient error when attempts run out;
    /// [`NtcsError::DeadlineExceeded`] when the deadline expires first.
    pub fn run<T>(
        &self,
        mut on_retry: impl FnMut(u32, &NtcsError),
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let started = Instant::now();
        let mut schedule = self.schedule();
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    if started.elapsed() >= self.deadline {
                        return Err(NtcsError::DeadlineExceeded);
                    }
                    let Some(delay) = schedule.next() else {
                        return Err(e);
                    };
                    on_retry(attempt, &e);
                    // Never sleep past the deadline.
                    let left = self.deadline.saturating_sub(started.elapsed());
                    if left.is_zero() {
                        return Err(NtcsError::DeadlineExceeded);
                    }
                    std::thread::sleep(delay.min(left));
                    attempt += 1;
                }
            }
        }
    }
}

/// Iterator over a policy's inter-attempt delays (at most
/// `max_attempts - 1` of them). See [`RetryPolicy::schedule`].
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    policy: RetryPolicy,
    retry: u32,
    spent: Duration,
    prev: Duration,
}

/// SplitMix64 — small, seedable, and good enough for jitter.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(n.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Iterator for BackoffSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.retry + 1 >= self.policy.max_attempts.max(1) {
            return None;
        }
        if self.spent >= self.policy.deadline {
            return None;
        }
        let nominal = self.policy.nominal_backoff(self.retry);
        // Jitter in [0, 1): pure function of (seed, retry).
        let unit =
            (mix(self.policy.seed, u64::from(self.retry)) >> 11) as f64 / (1u64 << 53) as f64;
        let jitter = self.policy.jitter.clamp(0.0, 1.0) * unit;
        let raw = nominal.mul_f64(1.0 + jitter);
        // Clamp to monotone non-decreasing: once the nominal curve hits
        // its cap, a smaller jitter draw must not shrink the delay. The
        // clamp stays within this attempt's jitter bounds because the
        // previous delay is ≤ nominal(n-1) * (1+j) ≤ nominal(n) * (1+j).
        let monotone = raw.max(self.prev);
        // Never let the cumulative schedule exceed the deadline.
        let capped = monotone.min(self.policy.deadline.saturating_sub(self.spent));
        self.prev = monotone;
        self.spent += capped;
        self.retry += 1;
        Some(capped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        let a: Vec<_> = p.schedule().collect();
        let b: Vec<_> = p.schedule().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let q = p.clone().with_seed(p.seed ^ 1);
        assert_ne!(a, q.schedule().collect::<Vec<_>>());
    }

    #[test]
    fn schedule_is_monotone_and_jitter_bounded() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(64),
            jitter: 0.5,
            deadline: Duration::from_secs(60),
            seed: 99,
        };
        let delays: Vec<_> = p.schedule().collect();
        for (i, pair) in delays.windows(2).enumerate() {
            assert!(pair[1] >= pair[0], "attempt {i}: {pair:?} not monotone");
        }
        for (i, d) in delays.iter().enumerate() {
            let nominal = p.nominal_backoff(i as u32);
            assert!(*d >= nominal, "attempt {i}: {d:?} < nominal {nominal:?}");
            assert!(
                *d <= nominal.mul_f64(1.0 + p.jitter) + Duration::from_nanos(1),
                "attempt {i}: {d:?} above jitter bound"
            );
        }
    }

    #[test]
    fn schedule_total_never_exceeds_deadline() {
        let p = RetryPolicy {
            max_attempts: 50,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 1.0,
            deadline: Duration::from_millis(123),
            seed: 7,
        };
        let total: Duration = p.schedule().sum();
        assert!(total <= p.deadline, "{total:?} > {:?}", p.deadline);
    }

    #[test]
    fn run_retries_transient_and_stops_on_fatal() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(200),
            jitter: 0.0,
            deadline: Duration::from_secs(5),
            seed: 1,
        };
        let mut tries = 0;
        let r: Result<u32> = p.run(
            |_, _| {},
            |_| {
                tries += 1;
                Err(NtcsError::Timeout)
            },
        );
        assert_eq!(r, Err(NtcsError::Timeout));
        assert_eq!(tries, 3);

        let mut tries = 0;
        let r: Result<u32> = p.run(
            |_, _| {},
            |_| {
                tries += 1;
                Err(NtcsError::NotRegistered)
            },
        );
        assert_eq!(r, Err(NtcsError::NotRegistered));
        assert_eq!(tries, 1, "fatal errors must not be retried");

        let mut tries = 0;
        let r = p.run(
            |_, _| {},
            |attempt| {
                tries += 1;
                if attempt < 2 {
                    Err(NtcsError::ConnectionClosed)
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(r, Ok(2));
        assert_eq!(tries, 3);
    }

    #[test]
    fn run_surfaces_deadline_exceeded() {
        let p = RetryPolicy {
            max_attempts: 1000,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
            jitter: 0.0,
            deadline: Duration::from_millis(30),
            seed: 1,
        };
        let started = Instant::now();
        let r: Result<()> = p.run(|_, _| {}, |_| Err(NtcsError::Timeout));
        assert_eq!(r, Err(NtcsError::DeadlineExceeded));
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn on_retry_sees_each_backoff() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(100),
            jitter: 0.0,
            deadline: Duration::from_secs(5),
            seed: 1,
        };
        let mut seen = Vec::new();
        let _: Result<()> = p.run(
            |n, e| seen.push((n, e.clone())),
            |_| Err(NtcsError::Timeout),
        );
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[2].0, 2);
    }
}
