//! The six closed-loop workloads and what they share: the [`Pass`] every
//! run produces and the [`Meter`] that stamps completion events.
//!
//! Every workload has one client — the harness thread — and issues its
//! next operation only after the previous one completed. Operation
//! counts are fixed per second of requested run length
//! ([`Workload::events_per_second`]), so two runs of one seed do the same
//! work and their counts repeat exactly.

pub mod fanout;
pub mod proto;
pub mod screen;
pub mod stream;

use std::time::Instant;

use crate::spans::Tracer;
use crate::stats::{self, Event};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady118,
    Tiles12x30,
    Faults118,
    Proto118,
    Screen118,
    Fanout118,
}

impl Workload {
    /// Fewest events the estimators can work on: with a tenth dropped as
    /// warm-up, one event per block is left.
    pub const MIN_EVENTS: usize = 2 * stats::BLOCKS + 2;

    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 6] = [
        Workload::Steady118,
        Workload::Tiles12x30,
        Workload::Faults118,
        Workload::Proto118,
        Workload::Screen118,
        Workload::Fanout118,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady118 => "steady118",
            Workload::Tiles12x30 => "tiles12x30",
            Workload::Faults118 => "faults118",
            Workload::Proto118 => "proto118",
            Workload::Screen118 => "screen118",
            Workload::Fanout118 => "fanout118",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one *event* of this workload is and how many operations it
    /// completes — the unit `throughput_per_s` counts and the interval
    /// `latency_ms_p50` times.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::Steady118 | Workload::Tiles12x30 | Workload::Faults118 => {
                "one frame; latency = interval between consecutive epochs decoded at the TCP reader"
            }
            Workload::Proto118 => "one prototype frame; latency = one run_frame call",
            Workload::Screen118 => "one contingency case screened; latency = one full N-1 sweep",
            Workload::Fanout118 => {
                "one delivery; latency = publish call until the 64th reader has decoded the epoch"
            }
        }
    }

    /// Events issued per second of requested run length, sized so that
    /// `--seconds 10` measures for about ten seconds on the 2-core
    /// container the benchmark was calibrated on. Fixed, not adaptive:
    /// the same `--seconds` always means the same work.
    pub fn events_per_second(self) -> f64 {
        match self {
            Workload::Steady118 => 200.0,
            Workload::Tiles12x30 => 110.0,
            Workload::Faults118 => 130.0,
            Workload::Proto118 => 120.0,
            Workload::Screen118 => 4.0,
            Workload::Fanout118 => 1300.0,
        }
    }

    /// Events in a run of `seconds`, never fewer than [`Self::MIN_EVENTS`].
    pub fn n_events(self, seconds: f64) -> usize {
        ((self.events_per_second() * seconds).round() as usize).max(Self::MIN_EVENTS)
    }
}

/// Counts and times a workload reads from the system's own `*Report`
/// structs, for the per-layer metrics.
#[derive(Debug)]
pub enum Detail {
    Stream(Box<stream::StreamDetail>),
    Proto(proto::ProtoDetail),
    Screen(screen::ScreenDetail),
    Fanout(fanout::FanoutDetail),
}

/// What one pass over a workload produced.
#[derive(Debug)]
pub struct Pass {
    /// Completion events in arrival order.
    pub events: Vec<Event>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// Correctness-gate violations; empty means the outputs were right.
    pub problems: Vec<String>,
    /// On-CPU seconds of the harness thread over the timed section — the
    /// load generator's share of the process CPU the events carry.
    pub harness_cpu_s: f64,
    /// Workload-family counts.
    pub detail: Detail,
}

/// Stamps completion events with the wall clock and the process CPU
/// clock, and reads the harness thread's CPU over the timed section.
#[derive(Debug)]
pub struct Meter {
    origin: Instant,
    warmup: usize,
    events: Vec<Event>,
    harness_cpu_at_warmup: f64,
    /// Last steal reading and when it was taken.
    steal: (f64, f64),
}

impl Meter {
    /// A meter for a pass expected to complete `expected_events` events;
    /// the pass starts now. Must be created, fed and finished on the
    /// harness thread.
    pub fn new(expected_events: usize) -> Self {
        Meter {
            origin: Instant::now(),
            warmup: stats::warmup_len(expected_events),
            events: Vec::with_capacity(expected_events),
            harness_cpu_at_warmup: stats::thread_cpu_seconds(),
            steal: (stats::steal_seconds().unwrap_or(0.0), 0.0),
        }
    }

    /// Seconds since the meter was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records an event that completed just now.
    pub fn record(&mut self, ops: u64, latency_ms: f64) {
        let t_end = self.now();
        if t_end - self.steal.1 >= 0.05 {
            self.steal = (stats::steal_seconds().unwrap_or(0.0), t_end);
        }
        self.events.push(Event {
            t_end,
            cpu_end: stats::process_cpu_seconds(),
            steal_end: self.steal.0,
            ops,
            latency_ms,
        });
        if self.events.len() == self.warmup {
            self.harness_cpu_at_warmup = stats::thread_cpu_seconds();
        }
    }

    /// Ends the pass: the events and the harness thread's CPU seconds
    /// since the warm-up boundary.
    pub fn finish(self) -> (Vec<Event>, f64) {
        let harness_cpu_s = stats::thread_cpu_seconds() - self.harness_cpu_at_warmup;
        (self.events, harness_cpu_s)
    }
}

/// A workload set up and ready to run: everything built from the grid
/// up, servers started, readers connected. Dropping it stops its servers
/// and closes its sockets.
#[derive(Debug)]
pub enum Ready {
    Stream(Box<stream::StreamReady>),
    Proto(Box<proto::ProtoReady>),
    Screen(screen::ScreenReady),
    Fanout(fanout::FanoutReady),
}

/// One cold set-up of `w` for a pass of `n_events` events.
///
/// # Errors
/// A one-line description when a set-up step fails (a power flow that
/// diverges, an endpoint that cannot be bound).
pub fn setup(w: Workload, n_events: usize, seed: u64, tracer: &Tracer) -> Result<Ready, String> {
    Ok(match w {
        Workload::Steady118 | Workload::Tiles12x30 | Workload::Faults118 => {
            Ready::Stream(Box::new(stream::setup(w, n_events as u64, seed, tracer)?))
        }
        Workload::Proto118 => Ready::Proto(Box::new(proto::setup(seed, tracer)?)),
        Workload::Screen118 => Ready::Screen(screen::setup(seed, tracer)?),
        Workload::Fanout118 => Ready::Fanout(fanout::setup(seed, tracer)?),
    })
}

/// One pass of `n_events` events over a workload that is set up.
pub fn run(ready: Ready, n_events: usize, tracer: &Tracer) -> Pass {
    match ready {
        Ready::Stream(r) => stream::run(*r, tracer),
        Ready::Proto(r) => proto::run(*r, n_events, tracer),
        Ready::Screen(r) => screen::run(r, n_events, tracer),
        Ready::Fanout(r) => fanout::run(r, n_events, tracer),
    }
}

/// `setup_s`: the median of repeated cold set-ups inside this process —
/// at least 5 repetitions and 1 s in total, at most 50. Repetitions the
/// hypervisor stole more than [`stats::QUIET_STEAL`] of the CPU capacity
/// from are left out when at least 5 others remain.
///
/// # Errors
/// As [`setup`].
pub fn median_setup_seconds(w: Workload, n_events: usize, seed: u64) -> Result<f64, String> {
    const MIN_REPS: usize = 5;
    let capacity = stats::n_cpus() as f64;
    let mut samples = Vec::new();
    let mut quiet = Vec::new();
    let mut total = 0.0;
    while samples.len() < 50 && (samples.len() < MIN_REPS || total < 1.0) {
        let steal0 = stats::steal_seconds().unwrap_or(0.0);
        let t0 = Instant::now();
        drop(setup(w, n_events, seed, &Tracer::off())?);
        let s = t0.elapsed().as_secs_f64();
        let stolen = stats::steal_seconds().unwrap_or(0.0) - steal0;
        total += s;
        samples.push(s);
        if stolen <= stats::QUIET_STEAL * s * capacity {
            quiet.push(s);
        }
    }
    Ok(stats::median(if quiet.len() >= MIN_REPS {
        &quiet
    } else {
        &samples
    }))
}

/// Root-mean-square difference of two equally long slices.
pub(crate) fn rmse(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len().max(1) as f64).sqrt()
}

/// SplitMix64: the benchmark's own seeded stream for input perturbations.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[-1, 1)` from [`splitmix`].
pub(crate) fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}
