//! Estimators and process readings shared by every workload.
//!
//! All timing estimators work on a list of completion [`Event`]s in
//! arrival order: the first tenth is warm-up and is discarded, the rest
//! is split into [`BLOCKS`] equal consecutive blocks so a burst from a
//! noisy neighbour moves one block, not the figure. The benchmark runs in
//! a virtual machine whose hypervisor reports the time it ran something
//! else while a virtual CPU was runnable ("steal"); blocks during which
//! more than [`QUIET_STEAL`] of the CPU capacity was stolen are left out
//! of every estimate ([`quiet_blocks`]).

/// Consecutive blocks the post-warm-up events are split into.
pub const BLOCKS: usize = 10;

/// One completed unit of closed-loop work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Completion time, seconds since the timed section started.
    pub t_end: f64,
    /// Process CPU clock at completion, seconds.
    pub cpu_end: f64,
    /// Host steal clock at completion, seconds (see [`steal_seconds`]).
    pub steal_end: f64,
    /// Operations this event completed (1 frame, 64 deliveries, …).
    pub ops: u64,
    /// Latency attributed to the event, milliseconds.
    pub latency_ms: f64,
}

/// Index of the first post-warm-up event: the first tenth is dropped.
pub fn warmup_len(n: usize) -> usize {
    n / 10
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `NaN` on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` among `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of the candidate tail percentiles that still has at least
/// ten samples beyond it, as `(p, value)`; falls back to the median when
/// even p90 is not supported by the sample.
pub fn supported_tail(sorted: &[f64], candidates: &[f64]) -> (f64, f64) {
    candidates
        .iter()
        .copied()
        .filter(|&p| !sorted.is_empty() && samples_beyond(sorted.len(), p) >= 10)
        .max_by(f64::total_cmp)
        .map_or((0.5, percentile_sorted(sorted, 0.5)), |p| {
            (p, percentile_sorted(sorted, p))
        })
}

/// Post-warm-up latencies of `events`, ascending.
pub fn timed_latencies(events: &[Event]) -> Vec<f64> {
    let mut v: Vec<f64> = events[warmup_len(events.len())..]
        .iter()
        .map(|e| e.latency_ms)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Share of the machine's CPU capacity that may be stolen during a block
/// that still counts as quiet. The steal clock ticks in 10 ms, so on two
/// CPUs a one-second block resolves half a percent.
pub const QUIET_STEAL: f64 = 0.02;
/// Fewest blocks an estimate rests on: when fewer are quiet, the
/// quietest this many are used.
pub const MIN_QUIET_BLOCKS: usize = 3;

/// One of the [`BLOCKS`] consecutive blocks of the post-warm-up events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// The block's events, as a range of the event list.
    pub first: usize,
    pub end: usize,
    pub ops: u64,
    pub wall_s: f64,
    /// Process CPU seconds spent in the block.
    pub cpu_s: f64,
    /// Share of the machine's CPU capacity stolen during the block.
    pub steal_share: f64,
}

/// The blocks of `events`. Block `b` spans from the completion of the
/// last event before it (the warm-up's last event for block 0) to the
/// completion of its own last event, so the blocks tile the timed section
/// without gaps. Needs at least one warm-up event and one event per
/// block; returns no blocks otherwise.
pub fn blocks(events: &[Event], n_cpus: usize) -> Vec<Block> {
    let warm = warmup_len(events.len());
    let timed = events.len() - warm;
    if warm == 0 || timed < BLOCKS {
        return Vec::new();
    }
    let mut prev = &events[warm - 1];
    (0..BLOCKS)
        .map(|b| {
            let first = warm + timed * b / BLOCKS;
            let end = warm + timed * (b + 1) / BLOCKS;
            let last = &events[end - 1];
            let wall_s = last.t_end - prev.t_end;
            let block = Block {
                first,
                end,
                ops: events[first..end].iter().map(|e| e.ops).sum(),
                wall_s,
                cpu_s: last.cpu_end - prev.cpu_end,
                steal_share: (last.steal_end - prev.steal_end) / (wall_s * n_cpus as f64),
            };
            prev = last;
            block
        })
        .collect()
}

/// The blocks an estimate rests on: those with at most [`QUIET_STEAL`]
/// stolen, or the [`MIN_QUIET_BLOCKS`] quietest when fewer qualify.
pub fn quiet_blocks(blocks: &[Block]) -> Vec<Block> {
    let mut by_steal = blocks.to_vec();
    by_steal.sort_by(|a, b| f64::total_cmp(&a.steal_share, &b.steal_share));
    let quiet = by_steal
        .iter()
        .filter(|b| b.steal_share <= QUIET_STEAL)
        .count();
    by_steal.truncate(quiet.max(MIN_QUIET_BLOCKS));
    by_steal
}

/// Latencies of the events in `blocks`, ascending.
pub fn block_latencies(events: &[Event], blocks: &[Block]) -> Vec<f64> {
    let mut v: Vec<f64> = blocks
        .iter()
        .flat_map(|b| &events[b.first..b.end])
        .map(|e| e.latency_ms)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median over `blocks` of (operations in block ÷ block wall time).
pub fn block_throughput(blocks: &[Block]) -> f64 {
    let rates: Vec<f64> = blocks.iter().map(|b| b.ops as f64 / b.wall_s).collect();
    median(&rates)
}

/// Median over `blocks` of the process CPU milliseconds per operation.
pub fn block_cpu_ms_per_op(blocks: &[Block]) -> f64 {
    let costs: Vec<f64> = blocks
        .iter()
        .map(|b| b.cpu_s * 1e3 / b.ops as f64)
        .collect();
    median(&costs)
}

/// Process CPU seconds spent over the post-warm-up events.
pub fn timed_cpu_seconds(events: &[Event]) -> f64 {
    let warm = warmup_len(events.len());
    match (events.get(warm.wrapping_sub(1)), events.last()) {
        (Some(first), Some(last)) => last.cpu_end - first.cpu_end,
        _ => f64::NAN,
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last cut.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, linearly interpolated and
        // clamped to the sample like the reference implementation.
        let j = (k * (n + 1) / 4).clamp(1, n.max(2) - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j.min(n - 1)] - v[j - 1])
    };
    (cut(1), cut(3))
}

/// Interquartile distance of `xs` as a share of its median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Largest pairwise relative gap of `xs`: `(max − min) / min`.
pub fn largest_gap(xs: &[f64]) -> f64 {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / lo.abs()
}

/// A C `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux clock ids of the CPU-time clocks.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

fn cpu_clock_seconds(clock_id: std::ffi::c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds of the whole process (all threads), at the
/// scheduler's nanosecond resolution — `/proc/self/stat` ticks in 10 ms.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU seconds of the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds the hypervisor ran something else while a virtual CPU of this
/// machine was runnable, summed over the CPUs: the `steal` column of the
/// first line of `/proc/stat`, which ticks in 10 ms. `None` when the file
/// is unreadable or has no such column.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_ascii_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// CPUs this process may run on: the capacity a block's steal is a share
/// of.
pub fn n_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_end: f64, ops: u64, latency_ms: f64) -> Event {
        Event {
            t_end,
            cpu_end: 0.0,
            steal_end: 0.0,
            ops,
            latency_ms,
        }
    }

    #[test]
    fn median_and_percentiles_on_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.9), 90.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves 10 beyond, p99 leaves 1.
        assert_eq!(supported_tail(&v, &[0.9, 0.99]), (0.9, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v, &[0.9, 0.99]), (0.99, 990.0));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(supported_tail(&v, &[0.9, 0.99]), (0.5, 25.0));
    }

    /// 11 warm-up events, then 99 events at 1 op and 8 ms of CPU per
    /// 10 ms; during events 40..60 a noisy neighbour slows them fivefold,
    /// and if `stolen`, the hypervisor reports it stole half of both CPUs.
    fn disturbed_run(stolen: bool) -> Vec<Event> {
        let (mut t, mut cpu, mut steal) = (0.0, 0.0, 0.0);
        (0..110)
            .map(|i| {
                let slow = (40..60).contains(&i);
                let dt = if slow { 0.05 } else { 0.01 };
                t += dt;
                cpu += if slow { 0.04 } else { 0.008 };
                if slow && stolen {
                    steal += dt;
                }
                Event {
                    t_end: t,
                    cpu_end: cpu,
                    steal_end: steal,
                    ops: 1,
                    latency_ms: dt * 1e3,
                }
            })
            .collect()
    }

    #[test]
    fn block_median_ignores_a_slow_stretch() {
        let events = disturbed_run(false);
        assert_eq!(warmup_len(events.len()), 11);
        let all = blocks(&events, 2);
        assert_eq!(all.len(), BLOCKS);
        assert_eq!((all[0].first, all[BLOCKS - 1].end), (11, 110));
        // No steal reported: every block counts, the medians hold.
        let quiet = quiet_blocks(&all);
        assert_eq!(quiet.len(), BLOCKS);
        assert!((block_throughput(&quiet) - 100.0).abs() < 1e-6);
        assert!((block_cpu_ms_per_op(&quiet) - 8.0).abs() < 1e-6);
        assert_eq!(median(&block_latencies(&events, &quiet)), 10.0);
    }

    #[test]
    fn stolen_blocks_are_left_out() {
        let events = disturbed_run(true);
        let all = blocks(&events, 2);
        let quiet = quiet_blocks(&all);
        // Events 40..60 are blocks 3 and 4.
        assert_eq!(quiet.len(), BLOCKS - 2);
        assert!(quiet.iter().all(|b| b.steal_share == 0.0));
        let lat = block_latencies(&events, &quiet);
        assert_eq!(lat.len(), 79);
        assert!(lat.iter().all(|&ms| (ms - 10.0).abs() < 1e-9));
        // Every block stolen from: the quietest few are kept.
        let stormy: Vec<Block> = all
            .iter()
            .enumerate()
            .map(|(i, b)| Block {
                steal_share: 0.1 + 0.01 * i as f64,
                ..*b
            })
            .collect();
        let kept = quiet_blocks(&stormy);
        assert_eq!(kept.len(), MIN_QUIET_BLOCKS);
        assert!(kept.iter().all(|b| b.steal_share < 0.13));
    }

    #[test]
    fn block_throughput_counts_ops_not_events() {
        let events: Vec<Event> = (1..=110).map(|i| ev(i as f64 * 0.5, 64, 0.7)).collect();
        assert!((block_throughput(&blocks(&events, 2)) - 128.0).abs() < 1e-9);
        assert!(blocks(&events[..5], 2).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((largest_gap(&[2.0, 2.2, 2.1]) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn process_readings_are_available_on_linux() {
        assert!(process_cpu_seconds() >= thread_cpu_seconds());
        assert!(thread_cpu_seconds() > 0.0);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
