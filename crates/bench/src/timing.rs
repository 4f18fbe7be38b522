//! Shared wall-clock measurement helpers for benchmarks and perf tests.
//!
//! Timing assertions on shared CI runners flake when a single noisy
//! measurement lands on the wrong side of a threshold. Every timing
//! assert in this repo goes through [`paired_best`]: measure both sides in
//! alternating pairs (so ambient load hits them symmetrically), keep the
//! best of each, and stop early once the comparison already holds.

/// Best-of-`max_rounds` paired measurement of two workloads expected to
/// satisfy `fast < slow`.
///
/// Each closure performs one measurement and returns it in nanoseconds
/// (e.g. a report's solve time). Rounds alternate fast/slow and the
/// minimum of each side is kept; measurement stops early once the fast
/// side's best is strictly below the slow side's best. Returns
/// `(best_fast, best_slow)` — the caller asserts whatever floor it needs.
pub fn paired_best(
    max_rounds: usize,
    mut fast: impl FnMut() -> u64,
    mut slow: impl FnMut() -> u64,
) -> (u64, u64) {
    let mut best_fast = u64::MAX;
    let mut best_slow = u64::MAX;
    for _ in 0..max_rounds.max(1) {
        best_fast = best_fast.min(fast());
        best_slow = best_slow.min(slow());
        if best_fast < best_slow {
            break;
        }
    }
    (best_fast, best_slow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_best_keeps_the_minimum_of_each_side() {
        // The fast side never wins, so every round runs.
        let mut rounds = 0;
        let mut f = [30u64, 10, 20].into_iter();
        let mut s = [3u64, 1, 2].into_iter();
        let (bf, bs) = paired_best(
            3,
            || {
                rounds += 1;
                f.next().unwrap()
            },
            move || s.next().unwrap(),
        );
        assert_eq!((bf, bs), (10, 1));
        assert_eq!(rounds, 3);
    }

    #[test]
    fn paired_best_stops_early_once_fast_wins() {
        let mut rounds = 0;
        let (bf, bs) = paired_best(
            5,
            || {
                rounds += 1;
                1
            },
            || 2,
        );
        assert_eq!((bf, bs), (1, 2));
        assert_eq!(rounds, 1);
    }
}
