//! Token-bucket pacing.
//!
//! Two uses, both calibrated to the paper's measurements:
//! * the middleware relay rate (the paper measured ≈ 0.4 GB/s through
//!   MeDICi);
//! * the simulated LAN between "clusters" (the paper's network moved
//!   100 MB in ≈ 0.87 s ≈ 115 MB/s — gigabit Ethernet).

use std::time::{Duration, Instant};

/// The paper's measured middleware relay rate, bytes/second (≈ 0.4 GB/s).
pub const PAPER_RELAY_RATE: f64 = 0.4e9;

/// The paper's measured LAN rate, bytes/second (≈ 115 MB/s).
pub const PAPER_LAN_RATE: f64 = 115.0e6;

/// Paces a byte stream to a fixed rate: after `account(n)`, the caller has
/// slept long enough that cumulative throughput never exceeds the rate.
#[derive(Debug)]
pub struct Throttle {
    bytes_per_sec: f64,
    started: Option<Instant>,
    sent: u64,
}

impl Throttle {
    /// A throttle at `bytes_per_sec`.
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "throttle rate must be positive"
        );
        Throttle { bytes_per_sec, started: None, sent: 0 }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Accounts `n` bytes and sleeps until the cumulative schedule allows
    /// them. The clock starts at the first call.
    ///
    /// Deficits below ~1 ms are carried instead of slept: OS timers round
    /// short sleeps up, which would silently lower the effective rate when
    /// pacing many small chunks.
    pub fn account(&mut self, n: usize) {
        const MIN_SLEEP: Duration = Duration::from_millis(1);
        let start = *self.started.get_or_insert_with(Instant::now);
        self.sent += n as u64;
        let due = Duration::from_secs_f64(self.sent as f64 / self.bytes_per_sec);
        let elapsed = start.elapsed();
        if due > elapsed + MIN_SLEEP {
            std::thread::sleep(due - elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforces_rate_within_tolerance() {
        // 10 MB at 100 MB/s should take ≈ 0.1 s.
        let mut t = Throttle::new(100.0e6);
        let start = Instant::now();
        for _ in 0..10 {
            t.account(1_000_000);
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.095, "too fast: {elapsed}");
        assert!(elapsed < 0.5, "too slow: {elapsed}");
    }

    #[test]
    fn fast_rate_is_nearly_free() {
        let mut t = Throttle::new(1e12);
        let start = Instant::now();
        t.account(1_000_000);
        assert!(start.elapsed().as_secs_f64() < 0.05);
    }

    #[test]
    fn accounts_bytes() {
        let mut t = Throttle::new(1e9);
        t.account(10);
        t.account(20);
        assert_eq!(t.sent, 30);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        Throttle::new(0.0);
    }

    #[test]
    fn paper_constants_have_expected_magnitudes() {
        assert!((PAPER_RELAY_RATE - 4.0e8).abs() < 1.0);
        assert!((PAPER_LAN_RATE - 1.15e8).abs() < 1.0);
        // Cross-check against Table IV: 2 GB over the LAN ≈ 17.75 s.
        let t3_2gb = 2.0e9 / PAPER_LAN_RATE;
        assert!((t3_2gb - 17.4).abs() < 1.0);
    }
}
