//! Deadlines and bounded retry with deterministic exponential backoff.
//!
//! The laboratory testbed of the paper assumes a healthy LAN; a deployed
//! middleware cannot. Every blocking middleware operation (connect, send,
//! accept, read) is bounded by a deadline from [`MwConfig`], and transient
//! socket failures are retried under a [`RetryPolicy`]. Backoff jitter is
//! *derived*, not sampled: it hashes `(attempt, key)`, so a given operation
//! retries on an identical schedule in every run — a requirement for the
//! deterministic fault-injection harness in [`crate::faults`].

use std::time::Duration;

/// Bounded-retry schedule: exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retry.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after.
    pub base_delay: Duration,
    /// Upper bound on any single backoff.
    pub max_delay: Duration,
    /// Jitter amplitude in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep after failed attempt `attempt` (0-based). `key`
    /// decorrelates concurrent operations (hash of the endpoint URL);
    /// the same `(attempt, key)` always yields the same delay.
    pub fn backoff(&self, attempt: u32, key: u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let unit = (mix(key ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 11)
            as f64
            * (1.0 / (1u64 << 53) as f64);
        let factor = 1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * unit - 1.0);
        exp.mul_f64(factor.max(0.0))
    }

    /// The full deterministic backoff schedule for the operation keyed by
    /// `key`: the delay slept after each failed attempt, in order. A send
    /// that exhausts its attempts sleeps exactly these
    /// `max_attempts - 1` delays — the sequence `mw.send` spans expose as
    /// `backoff_nanos`.
    pub fn schedule(&self, key: u64) -> Vec<Duration> {
        (0..self.max_attempts.saturating_sub(1)).map(|a| self.backoff(a, key)).collect()
    }
}

/// Deadlines and retry configuration for one middleware client or
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwConfig {
    /// Bound on each blocking socket operation: connect, a write, one
    /// accept wait, one read wait.
    pub op_deadline: Duration,
    /// Retry schedule for transient send/forward failures.
    pub retry: RetryPolicy,
}

impl Default for MwConfig {
    fn default() -> Self {
        MwConfig { op_deadline: Duration::from_secs(30), retry: RetryPolicy::default() }
    }
}

/// FNV-1a over `s` — stable key for [`RetryPolicy::backoff`].
pub fn stable_key(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 0..4 {
            assert_eq!(p.backoff(attempt, 42), p.backoff(attempt, 42));
        }
        assert_ne!(p.backoff(0, 1), p.backoff(0, 2));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter: 0.0,
        };
        assert_eq!(p.backoff(0, 7), Duration::from_millis(10));
        assert_eq!(p.backoff(1, 7), Duration::from_millis(20));
        assert_eq!(p.backoff(2, 7), Duration::from_millis(40));
        assert_eq!(p.backoff(6, 7), Duration::from_millis(100)); // capped
    }

    #[test]
    fn jitter_stays_in_band() {
        let p = RetryPolicy { jitter: 0.2, ..RetryPolicy::default() };
        for key in 0..200 {
            let d = p.backoff(0, key).as_secs_f64();
            let base = p.base_delay.as_secs_f64();
            assert!(d >= base * 0.8 - 1e-9 && d <= base * 1.2 + 1e-9, "{d}");
        }
    }

    #[test]
    fn schedule_lists_every_backoff_in_order() {
        let p = RetryPolicy::default();
        let key = stable_key("tcp://pipe-0-1.dse.pnl.gov:6789");
        let sched = p.schedule(key);
        assert_eq!(sched.len(), (p.max_attempts - 1) as usize);
        for (a, d) in sched.iter().enumerate() {
            assert_eq!(*d, p.backoff(a as u32, key));
        }
        let never_retries = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        assert!(never_retries.schedule(key).is_empty());
    }

    #[test]
    fn stable_key_distinguishes_urls() {
        assert_ne!(stable_key("tcp://a:1"), stable_key("tcp://b:1"));
        assert_eq!(stable_key("tcp://a:1"), stable_key("tcp://a:1"));
    }
}
