//! Timing harness for the middleware-overhead experiments.
//!
//! Reproduces the paper's §V-B methodology: transfer a payload from a
//! source to a destination **without** the middleware (direct TCP socket)
//! and **with** it (through a MeDICi pipeline); the difference is the
//! absolute middleware overhead. Two deployments are measured: within one
//! workstation (loopback at memory speed) and across a LAN (modelled by a
//! sender-side token bucket at the paper's measured ≈115 MB/s).
//!
//! Timings come from `pgse-obs` spans — the span *is* the stopwatch. Each
//! [`OverheadProbe`] owns an `mw.measure` recorder; every transfer runs
//! inside an `mw.measure.direct` / `mw.measure.middleware` span and the
//! harness reads the duration back from the span's `wall_nanos`. The
//! probe's [`OverheadProbe::report`] snapshot folds straight into an
//! `ObsReport`, so the §V-B experiments land in the same artifact as every
//! other stage timing (DESIGN.md §8). The bespoke stopwatch structs that
//! predated `pgse-obs` (`TransferTiming`, `OverheadRow`) are gone.

use std::time::Duration;

use pgse_obs::{with_recorder, Recorder, ScopeReport};

use pgse_medici::client::MwClient;
use pgse_medici::endpoint::EndpointRegistry;
use pgse_medici::pipeline::{EndpointProtocol, MifPipeline, SeComponent};

/// One row of Table III/IV: direct time, middleware time, absolute
/// overhead — all read back from `mw.measure.*` spans.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Payload size in bytes.
    pub size: u64,
    /// Direct TCP time (`T1`/`T3`) in nanoseconds.
    pub direct_nanos: u64,
    /// Via-middleware time (`T2`/`T4`) in nanoseconds.
    pub middleware_nanos: u64,
}

impl OverheadReport {
    /// Direct TCP time as a [`Duration`].
    pub fn direct(&self) -> Duration {
        Duration::from_nanos(self.direct_nanos)
    }

    /// Via-middleware time as a [`Duration`].
    pub fn middleware(&self) -> Duration {
        Duration::from_nanos(self.middleware_nanos)
    }

    /// The paper's absolute overhead `T2 − T1` (clamped at zero).
    pub fn overhead(&self) -> Duration {
        Duration::from_nanos(self.middleware_nanos.saturating_sub(self.direct_nanos))
    }

    /// Effective data relaying rate implied by the overhead (the paper
    /// reports ≈ 0.4 GB/s).
    pub fn relay_rate(&self) -> f64 {
        self.size as f64 / self.overhead().as_secs_f64().max(1e-9)
    }
}

/// The §V-B measurement harness: owns the `mw.measure` span scope and
/// derives every reported time from the spans it records.
#[derive(Debug)]
pub struct OverheadProbe {
    rec: Recorder,
}

impl Default for OverheadProbe {
    fn default() -> Self {
        OverheadProbe::new()
    }
}

impl OverheadProbe {
    /// A fresh probe with an empty `mw.measure` scope.
    pub fn new() -> Self {
        OverheadProbe { rec: Recorder::new("mw.measure") }
    }

    /// Snapshot of every transfer span recorded so far — fold this into an
    /// `ObsReport` alongside the other scopes.
    pub fn report(&self) -> ScopeReport {
        self.rec.snapshot()
    }

    /// Measures a direct TCP transfer of `size` bytes, optionally paced at
    /// `link_rate` (simulated LAN). This is the paper's `T1`/`T3`.
    /// Returns the span-recorded duration in nanoseconds.
    ///
    /// # Panics
    /// Panics on socket failures (the harness runs on loopback; failures
    /// are programming errors, not expected conditions).
    fn direct_nanos(&self, size: u64, link_rate: Option<f64>) -> u64 {
        with_recorder(&self.rec, || {
            let registry = EndpointRegistry::new();
            let listener = registry.bind("tcp://destination-se:7000").expect("bind");
            let client = MwClient::new(registry);
            let receiver = std::thread::spawn(move || {
                MwClient::recv_discard_on(&listener).expect("receive")
            });
            let mut sp = pgse_obs::span("mw.measure.direct");
            sp.record("bytes", size);
            client
                .send_synthetic("tcp://destination-se:7000", size, link_rate)
                .expect("send");
            let got = receiver.join().expect("receiver thread");
            assert_eq!(got, size, "receiver byte count");
            drop(sp);
            self.last_span_nanos("mw.measure.direct")
        })
    }

    /// Measures the same transfer through a MeDICi pipeline relaying at
    /// `relay_rate` (the paper's `T2`/`T4`), in nanoseconds.
    fn middleware_nanos(&self, size: u64, relay_rate: f64, link_rate: Option<f64>) -> u64 {
        with_recorder(&self.rec, || {
            let registry = EndpointRegistry::new();
            let dst = registry.bind("tcp://destination-se:7000").expect("bind dst");
            let mut pipeline = MifPipeline::new();
            pipeline.add_mif_connector(EndpointProtocol::Tcp);
            let mut se = SeComponent::new("SE");
            se.set_in_name_endp("tcp://medici-router:6789");
            se.set_out_hal_endp("tcp://destination-se:7000");
            pipeline.add_mif_component(se);
            pipeline.set_relay_rate(relay_rate);
            let handle = pipeline.start(&registry).expect("pipeline start");

            let client = MwClient::new(registry);
            let receiver =
                std::thread::spawn(move || MwClient::recv_discard_on(&dst).expect("receive"));
            let mut sp = pgse_obs::span("mw.measure.middleware");
            sp.record("bytes", size);
            client
                .send_synthetic("tcp://medici-router:6789", size, link_rate)
                .expect("send");
            let got = receiver.join().expect("receiver thread");
            assert_eq!(got, size, "receiver byte count");
            drop(sp);
            handle.stop();
            self.last_span_nanos("mw.measure.middleware")
        })
    }

    /// Runs one size through both modes.
    pub fn measure(&self, size: u64, relay_rate: f64, link_rate: Option<f64>) -> OverheadReport {
        let direct_nanos = self.direct_nanos(size, link_rate);
        let middleware_nanos = self.middleware_nanos(size, relay_rate, link_rate);
        OverheadReport { size, direct_nanos, middleware_nanos }
    }

    /// Wall time of the most recent span with this name.
    fn last_span_nanos(&self, name: &str) -> u64 {
        self.rec
            .snapshot()
            .spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.wall_nanos)
            .expect("transfer span recorded")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_medici::throttle::PAPER_RELAY_RATE;

    #[test]
    fn middleware_adds_overhead_scaling_with_size() {
        // Scaled-down sizes keep the unit test fast; the tables binary runs
        // the paper's full 100 MB – 2 GB sweep.
        let probe = OverheadProbe::new();
        let small = probe.measure(4_000_000, 40.0e6, None);
        let large = probe.measure(16_000_000, 40.0e6, None);
        assert!(small.overhead() > Duration::ZERO);
        // Linear trend: 4× the size → roughly 4× the overhead (±60%).
        let ratio = large.overhead().as_secs_f64() / small.overhead().as_secs_f64();
        assert!(ratio > 1.6 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn implied_relay_rate_is_near_configured() {
        let probe = OverheadProbe::new();
        let row = probe.measure(20_000_000, 50.0e6, None);
        // Overhead ≈ 20 MB / 50 MB/s = 0.4 s → implied rate near 50 MB/s.
        let implied = row.relay_rate();
        assert!(implied > 25.0e6 && implied < 100.0e6, "implied relay rate {implied}");
    }

    #[test]
    fn simulated_lan_slows_direct_transfer() {
        let probe = OverheadProbe::new();
        let local = probe.direct_nanos(5_000_000, None);
        let lan = probe.direct_nanos(5_000_000, Some(25.0e6)); // 5 MB at 25 MB/s ≈ 0.2 s
        assert!(lan > local);
        assert!(lan >= 150_000_000);
    }

    #[test]
    fn paper_rate_constant_is_plausible_on_loopback() {
        // At the paper's relay rate a 8 MB frame adds ≈ 20 ms.
        let probe = OverheadProbe::new();
        let row = probe.measure(8_000_000, PAPER_RELAY_RATE, None);
        assert!(row.overhead().as_secs_f64() < 1.0);
    }

    #[test]
    fn every_transfer_lands_in_the_span_scope() {
        let probe = OverheadProbe::new();
        probe.measure(1_000_000, 40.0e6, None);
        probe.direct_nanos(1_000_000, None);
        let report = probe.report();
        assert_eq!(report.scope, "mw.measure");
        let direct: Vec<_> =
            report.spans.iter().filter(|s| s.name == "mw.measure.direct").collect();
        let mw: Vec<_> =
            report.spans.iter().filter(|s| s.name == "mw.measure.middleware").collect();
        assert_eq!(direct.len(), 2);
        assert_eq!(mw.len(), 1);
        for sp in direct.iter().chain(&mw) {
            assert_eq!(sp.field_u64("bytes"), Some(1_000_000));
            assert!(sp.wall_nanos > 0);
        }
    }
}
