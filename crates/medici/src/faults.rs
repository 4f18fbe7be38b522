//! Deterministic fault injection for middleware chaos tests.
//!
//! A [`FaultProxy`] registers itself under a public endpoint URL and
//! forwards each arriving frame to a target endpoint, injecting faults —
//! drop, delay, truncation, duplication — drawn from a PRNG seeded by
//! `plan.seed ^ hash(public_url)`. The same plan against the same traffic
//! order therefore injects the *same fault sequence in every run*, which is
//! what lets the fault-tolerance suite assert exact degraded behaviour
//! instead of flaky statistics.
//!
//! [`FaultProxy::deploy_dead`] models the harshest failure: an endpoint
//! that is registered (resolvable) but refuses every connection, as a
//! crashed pipeline host would.
//!
//! Both sides of a proxy are sessions: it serves its senders' held
//! connections from one [`Inbox`] and delivers on one held connection to
//! its target. A truncation writes half a frame and then closes that
//! connection, so the next frame goes out on a fresh one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::client::Session;
use crate::endpoint::{wake_acceptor, EndpointRegistry, OWNER_WOKEN_PARK};
use crate::inbox::{Arrival, Inbox};
use crate::retry::stable_key;
use crate::MwError;

/// Fault probabilities and parameters for one proxied endpoint.
///
/// Probabilities are evaluated per frame in a fixed order — drop,
/// truncate, delay, duplicate — and at most one fault is injected per
/// frame (the first whose draw hits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-proxy fault stream (combined with the public URL).
    pub seed: u64,
    /// Probability a frame is silently discarded.
    pub drop_prob: f64,
    /// Probability a frame is truncated: the full-length prefix is sent,
    /// the body is cut short and the connection closed, so the receiver
    /// sees a mid-frame EOF (a crashed sender); the next frame re-dials.
    pub truncate_prob: f64,
    /// Probability a frame is delayed by [`FaultPlan::delay`] before
    /// delivery.
    pub delay_prob: f64,
    /// Delay applied to delayed frames.
    pub delay: Duration,
    /// Probability a frame is delivered twice (a retransmit race).
    pub duplicate_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            truncate_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(25),
            duplicate_prob: 0.0,
        }
    }
}

/// What the proxy did to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Forwarded untouched.
    Delivered,
    /// Discarded.
    Dropped,
    /// Forwarded with a cut-short body and a closed connection.
    Truncated,
    /// Forwarded after the configured delay.
    Delayed,
    /// Forwarded twice.
    Duplicated,
}

impl FaultKind {
    /// Stable metric label — the suffix of the `faults.injected.<label>`
    /// counters the prototype folds proxy stats into.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Delivered => "delivered",
            FaultKind::Dropped => "dropped",
            FaultKind::Truncated => "truncated",
            FaultKind::Delayed => "delayed",
            FaultKind::Duplicated => "duplicated",
        }
    }
}

/// The per-frame fault record of a proxy.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames that arrived at the proxy.
    pub frames: u64,
    /// Action taken for each frame, in arrival order.
    pub injected: Vec<FaultKind>,
}

impl FaultStats {
    /// Number of frames that were not delivered intact (dropped or
    /// truncated).
    pub fn lost(&self) -> u64 {
        self.injected
            .iter()
            .filter(|k| matches!(k, FaultKind::Dropped | FaultKind::Truncated))
            .count() as u64
    }

    /// Number of frames that had a fault injected (everything except a
    /// clean delivery).
    pub fn injected_faults(&self) -> u64 {
        self.injected.iter().filter(|k| **k != FaultKind::Delivered).count() as u64
    }

    /// How many frames received one specific treatment.
    pub fn count_of(&self, kind: FaultKind) -> u64 {
        self.injected.iter().filter(|k| **k == kind).count() as u64
    }
}

/// Deploys fault-injecting proxies (see module docs).
#[derive(Debug)]
pub struct FaultProxy;

impl FaultProxy {
    /// Binds `public_url`, forwarding each frame to `target_url` under
    /// `plan`. Returns the handle controlling the proxy thread.
    ///
    /// # Errors
    /// [`MwError`] when either URL is malformed or the bind fails.
    pub fn deploy(
        registry: &EndpointRegistry,
        public_url: &str,
        target_url: &str,
        plan: FaultPlan,
    ) -> Result<FaultProxyHandle, MwError> {
        let inbox = Inbox::new(registry.bind(public_url)?, PROXY_IO_DEADLINE)?;
        let addr = inbox.local_addr()?;
        let rng = StdRng::seed_from_u64(plan.seed ^ stable_key(public_url));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(FaultStats::default()));
        let registry = registry.clone();
        let target = target_url.to_string();
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                proxy_loop(inbox, registry, target, plan, rng, stop, stats);
            })
        };
        Ok(FaultProxyHandle { stop, addr, thread: Some(thread), stats })
    }

    /// Registers `public_url` as a dead endpoint: the name resolves, but
    /// every connection is refused (the listener is bound and immediately
    /// dropped). Models a crashed pipeline host.
    ///
    /// # Errors
    /// [`MwError`] when the URL is malformed or the bind fails.
    pub fn deploy_dead(registry: &EndpointRegistry, public_url: &str) -> Result<(), MwError> {
        drop(registry.bind(public_url)?);
        Ok(())
    }
}

/// A running fault proxy; dropping it (or calling
/// [`FaultProxyHandle::stop`]) shuts the proxy down.
#[derive(Debug)]
pub struct FaultProxyHandle {
    stop: Arc<AtomicBool>,
    /// Live address of the proxy's listener, for the shutdown wake.
    addr: std::net::SocketAddr,
    thread: Option<JoinHandle<()>>,
    stats: Arc<Mutex<FaultStats>>,
}

impl FaultProxyHandle {
    /// Snapshot of the per-frame fault record.
    pub fn stats(&self) -> FaultStats {
        self.stats.lock().clone()
    }

    /// Stops the proxy thread and waits for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Flag, wake, join: the proxy is parked in its inbox's poll, so the
    /// flag alone would be read only after [`OWNER_WOKEN_PARK`].
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            wake_acceptor(self.addr);
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxyHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bound on a proxy's socket operations: a partial inbound frame's
/// stall, the outbound connect and each write.
const PROXY_IO_DEADLINE: Duration = Duration::from_secs(5);

/// Receive loop: frames in arrival order, one fault decision per frame.
/// An idle proxy is parked in its inbox's poll; the handle's shutdown
/// wakes it with a connection that carries no frame (so it draws no
/// fault decision), and `stop` is re-read after every wake.
fn proxy_loop(
    mut inbox: Inbox,
    registry: EndpointRegistry,
    target: String,
    plan: FaultPlan,
    mut rng: StdRng,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<FaultStats>>,
) {
    let mut out = Session::default();
    while !stop.load(Ordering::SeqCst) {
        // A cut inbound frame was never a frame: no decision is drawn.
        let Some(Arrival::Frame(body)) = inbox.next(OWNER_WOKEN_PARK) else {
            continue;
        };
        let kind = decide(&plan, &mut rng);
        // Recorded before it is applied: a receiver is woken by the
        // delivery itself, so whoever observes the frame's effect
        // downstream must already find it in the stats.
        {
            let mut s = stats.lock();
            s.frames += 1;
            s.injected.push(kind);
        }
        apply(&mut out, &registry, &target, &body, kind, &plan);
    }
}

/// Draws the fault decision for one frame. All four draws happen
/// unconditionally so the stream position after a frame never depends on
/// which branch was taken.
fn decide(plan: &FaultPlan, rng: &mut StdRng) -> FaultKind {
    let drop_hit = rng.gen_bool(plan.drop_prob.clamp(0.0, 1.0));
    let trunc_hit = rng.gen_bool(plan.truncate_prob.clamp(0.0, 1.0));
    let delay_hit = rng.gen_bool(plan.delay_prob.clamp(0.0, 1.0));
    let dup_hit = rng.gen_bool(plan.duplicate_prob.clamp(0.0, 1.0));
    if drop_hit {
        FaultKind::Dropped
    } else if trunc_hit {
        FaultKind::Truncated
    } else if delay_hit {
        FaultKind::Delayed
    } else if dup_hit {
        FaultKind::Duplicated
    } else {
        FaultKind::Delivered
    }
}

/// Applies the decided fault on the outbound session. Delivery failures
/// are ignored: the proxy models a lossy link, and the downstream
/// deadline machinery is what turns loss into a reported missed exchange.
fn apply(
    out: &mut Session,
    registry: &EndpointRegistry,
    target: &str,
    body: &[u8],
    kind: FaultKind,
    plan: &FaultPlan,
) {
    let deliver = |out: &mut Session| out.send(registry, target, body, PROXY_IO_DEADLINE);
    match kind {
        FaultKind::Dropped => {}
        FaultKind::Delivered => {
            let _ = deliver(out);
        }
        FaultKind::Delayed => {
            std::thread::sleep(plan.delay);
            let _ = deliver(out);
        }
        FaultKind::Duplicated => {
            let _ = deliver(out);
            let _ = deliver(out);
        }
        FaultKind::Truncated => {
            let _ = deliver_truncated(out, registry, target, body);
        }
    }
}

/// Sends the full-length prefix but only half the body, then closes the
/// connection — the receiver observes a mid-frame EOF, and the next frame
/// dials afresh.
fn deliver_truncated(
    out: &mut Session,
    registry: &EndpointRegistry,
    target: &str,
    body: &[u8],
) -> Result<(), MwError> {
    use std::io::Write;
    let conn = out.stream(registry, target, PROXY_IO_DEADLINE)?;
    let mut cut = Vec::with_capacity(8 + body.len() / 2);
    cut.extend_from_slice(&(body.len() as u64).to_be_bytes());
    cut.extend_from_slice(&body[..body.len() / 2]);
    let written = conn.write_all(&cut).and_then(|()| conn.flush());
    out.close();
    Ok(written?)
}

/// Grid-level (scan-content) fault schedule: gross measurement errors and
/// dropped-RTU telemetry loss, injected **inside** frames rather than at
/// the byte layer.
///
/// The byte-level [`FaultProxy`] makes the *infrastructure* misbehave;
/// this plan makes the *grid telemetry* misbehave. It is a pure function
/// of `(plan, area, seq)` — no proxy state — so the feeder, the solver,
/// and any replay all agree on the injected ground truth, at any thread
/// count.
///
/// Faults are abstract here: a gross error names a `slot` (resolved by
/// the applier modulo the scan length) and a magnitude in σ units; an RTU
/// outage names site slots (resolved modulo the area's bus count). At
/// most one scan fault fires per `(area, seq)`, keeping the accounting
/// identities exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanFaultPlan {
    /// Seed of the scan-fault stream (mixed with area and seq).
    pub seed: u64,
    /// Probability a scan carries one gross measurement error.
    pub gross_prob: f64,
    /// Gross-error magnitude in units of the measurement's σ.
    pub gross_magnitude: f64,
    /// Probability a scan loses an RTU (all telemetry at the site sheds).
    pub rtu_prob: f64,
    /// RTU sites lost per outage event.
    pub rtu_sites: usize,
    /// Explicit gross-error schedule: `(seq, area)` pairs that fire
    /// regardless of `gross_prob` (deterministic test hooks).
    pub gross_at: Vec<(u64, usize)>,
    /// Explicit RTU-outage schedule: `(seq, area)` pairs.
    pub rtu_at: Vec<(u64, usize)>,
}

impl Default for ScanFaultPlan {
    fn default() -> Self {
        ScanFaultPlan {
            seed: 0,
            gross_prob: 0.0,
            gross_magnitude: 20.0,
            rtu_prob: 0.0,
            rtu_sites: 1,
            gross_at: Vec::new(),
            rtu_at: Vec::new(),
        }
    }
}

/// One scan-content fault, in applier-resolved abstract coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanFault {
    /// Add `magnitude`·σ to the measurement at `slot % scan_len`.
    GrossError {
        /// Abstract measurement slot; the applier reduces it modulo the
        /// scan length.
        slot: u64,
        /// Error size in σ units (scaled by the applier to the victim's σ).
        magnitude_sigma: f64,
    },
    /// Shed all telemetry touching the buses at `site_slots % n_buses`.
    RtuOutage {
        /// Abstract bus slots; the applier reduces them modulo the area's
        /// bus count and deduplicates.
        site_slots: Vec<u64>,
    },
}

impl ScanFaultPlan {
    /// The scan fault (if any) for `area`'s frame `seq`.
    ///
    /// Deterministic: repeated calls agree, and the injected ground truth
    /// can be re-derived anywhere from the plan alone. Explicit schedules
    /// win over probabilistic draws; gross errors win over RTU outages.
    pub fn fault_for(&self, area: usize, seq: u64) -> Option<ScanFault> {
        if self.gross_prob == 0.0
            && self.rtu_prob == 0.0
            && self.gross_at.is_empty()
            && self.rtu_at.is_empty()
        {
            return None;
        }
        let mix = self.seed
            ^ (area as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
            ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(mix);
        // Draws are unconditional so one knob never shifts another's stream.
        let gross_draw: f64 = rng.gen();
        let rtu_draw: f64 = rng.gen();
        let slot: u64 = rng.gen();
        let site_slots: Vec<u64> = (0..self.rtu_sites.max(1)).map(|_| rng.gen()).collect();
        let gross = ScanFault::GrossError { slot, magnitude_sigma: self.gross_magnitude };
        let rtu = ScanFault::RtuOutage { site_slots };
        if self.gross_at.contains(&(seq, area)) || gross_draw < self.gross_prob {
            Some(gross)
        } else if self.rtu_at.contains(&(seq, area)) || rtu_draw < self.rtu_prob {
            Some(rtu)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MwClient;
    use std::time::Instant;

    fn proxied_pair(plan: FaultPlan) -> (EndpointRegistry, std::net::TcpListener, FaultProxyHandle) {
        let registry = EndpointRegistry::new();
        let dst = registry.bind("tcp://target:1").unwrap();
        let proxy =
            FaultProxy::deploy(&registry, "tcp://proxy:1", "tcp://target:1", plan).unwrap();
        (registry, dst, proxy)
    }

    #[test]
    fn clean_plan_forwards_everything() {
        let (registry, dst, proxy) = proxied_pair(FaultPlan::default());
        let client = MwClient::new(registry);
        for i in 0..5u8 {
            client.send("tcp://proxy:1", &[i; 16]).unwrap();
            let got = MwClient::recv_deadline_on(&dst, Duration::from_secs(5)).unwrap();
            assert_eq!(got, [i; 16]);
        }
        let stats = proxy.stats();
        assert_eq!(stats.frames, 5);
        assert!(stats.injected.iter().all(|k| *k == FaultKind::Delivered));
        proxy.stop();
    }

    #[test]
    fn stop_wakes_an_idle_proxy_instead_of_waiting_out_its_park() {
        let (_registry, _dst, proxy) = proxied_pair(FaultPlan::default());
        let start = Instant::now();
        proxy.stop();
        // Liveness margin, not a perf floor: a stop that relied on the
        // proxy's own timeout would take the whole park bound.
        assert!(start.elapsed() < OWNER_WOKEN_PARK / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn stop_wake_draws_no_fault_decision() {
        let plan = FaultPlan { drop_prob: 1.0, ..FaultPlan::default() };
        let (_registry, _dst, mut proxy) = proxied_pair(plan);
        proxy.shutdown();
        assert_eq!(proxy.stats(), FaultStats::default());
    }

    #[test]
    fn certain_drop_loses_the_frame() {
        let plan = FaultPlan { drop_prob: 1.0, ..FaultPlan::default() };
        let (registry, dst, proxy) = proxied_pair(plan);
        let client = MwClient::new(registry);
        client.send("tcp://proxy:1", b"doomed").unwrap();
        let err = MwClient::recv_deadline_on(&dst, Duration::from_millis(150)).unwrap_err();
        assert!(err.is_timeout());
        let stats = proxy.stats();
        assert_eq!(stats.injected, vec![FaultKind::Dropped]);
        assert_eq!(stats.lost(), 1);
        proxy.stop();
    }

    #[test]
    fn truncation_surfaces_as_receive_error_not_hang() {
        let plan = FaultPlan { truncate_prob: 1.0, ..FaultPlan::default() };
        let (registry, dst, proxy) = proxied_pair(plan);
        let client = MwClient::new(registry);
        client.send("tcp://proxy:1", &[9u8; 512]).unwrap();
        let start = Instant::now();
        // Mid-frame EOF → read error; the receive returns, it never hangs.
        let err = MwClient::recv_deadline_on(&dst, Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, MwError::Io(_) | MwError::Timeout { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(proxy.stats().injected, vec![FaultKind::Truncated]);
        proxy.stop();
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan { duplicate_prob: 1.0, ..FaultPlan::default() };
        let (registry, dst, proxy) = proxied_pair(plan);
        let client = MwClient::new(registry);
        client.send("tcp://proxy:1", b"twin").unwrap();
        // Both copies travel on the proxy's one held connection: the
        // target is a session receiver.
        let mut inbox = Inbox::new(dst, Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let twin = Some(Arrival::Frame(b"twin".to_vec()));
        assert_eq!(inbox.recv_until(deadline), twin);
        assert_eq!(inbox.recv_until(deadline), twin);
        proxy.stop();
    }

    #[test]
    fn delay_postpones_delivery() {
        let plan = FaultPlan {
            delay_prob: 1.0,
            delay: Duration::from_millis(120),
            ..FaultPlan::default()
        };
        let (registry, dst, proxy) = proxied_pair(plan);
        let client = MwClient::new(registry);
        let start = Instant::now();
        client.send("tcp://proxy:1", b"late").unwrap();
        let got = MwClient::recv_deadline_on(&dst, Duration::from_secs(5)).unwrap();
        assert_eq!(got, b"late");
        assert!(start.elapsed() >= Duration::from_millis(120));
        proxy.stop();
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan {
            seed: 7,
            drop_prob: 0.3,
            truncate_prob: 0.2,
            delay_prob: 0.2,
            delay: Duration::from_millis(1),
            duplicate_prob: 0.2,
        };
        let run = || {
            let (registry, dst, proxy) = proxied_pair(plan);
            let client = MwClient::new(registry);
            // Keep the receiver draining so delivered frames don't pile up.
            let drain = std::thread::spawn(move || {
                while MwClient::recv_deadline_on(&dst, Duration::from_millis(300)).is_ok() {}
            });
            for i in 0..30u8 {
                client.send("tcp://proxy:1", &[i; 32]).unwrap();
            }
            // Wait until the proxy has decided every frame.
            for _ in 0..500 {
                if proxy.stats().frames == 30 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            drain.join().unwrap();
            let stats = proxy.stats();
            proxy.stop();
            stats
        };
        let first = run();
        let second = run();
        assert_eq!(first.frames, 30);
        assert_eq!(first.injected, second.injected);
        // The mixed plan should actually exercise several kinds.
        assert!(first.injected.iter().any(|k| *k != FaultKind::Delivered));
    }

    #[test]
    fn stats_count_injected_faults_per_kind() {
        let stats = FaultStats {
            frames: 5,
            injected: vec![
                FaultKind::Delivered,
                FaultKind::Dropped,
                FaultKind::Truncated,
                FaultKind::Delivered,
                FaultKind::Dropped,
            ],
        };
        assert_eq!(stats.injected_faults(), 3);
        assert_eq!(stats.count_of(FaultKind::Dropped), 2);
        assert_eq!(stats.count_of(FaultKind::Delivered), 2);
        assert_eq!(stats.count_of(FaultKind::Delayed), 0);
        assert_eq!(FaultKind::Truncated.label(), "truncated");
    }

    #[test]
    fn scan_faults_are_deterministic_and_schedulable() {
        let plan = ScanFaultPlan {
            seed: 7,
            gross_at: vec![(3, 1)],
            rtu_at: vec![(5, 0)],
            ..ScanFaultPlan::default()
        };
        // Pure function of (plan, area, seq).
        assert_eq!(plan.fault_for(1, 3), plan.fault_for(1, 3));
        assert!(matches!(plan.fault_for(1, 3), Some(ScanFault::GrossError { .. })));
        assert!(matches!(plan.fault_for(0, 5), Some(ScanFault::RtuOutage { .. })));
        // Unscheduled (area, seq) pairs with zero probabilities stay clean.
        assert_eq!(plan.fault_for(0, 3), None);
        assert_eq!(plan.fault_for(1, 5), None);
        assert_eq!(plan.fault_for(2, 9), None);
    }

    #[test]
    fn scan_fault_rates_fire_probabilistically_and_gross_wins() {
        let plan = ScanFaultPlan {
            seed: 11,
            gross_prob: 0.5,
            rtu_prob: 0.5,
            rtu_sites: 2,
            ..ScanFaultPlan::default()
        };
        let mut gross = 0usize;
        let mut rtu = 0usize;
        for seq in 0..200u64 {
            match plan.fault_for(0, seq) {
                Some(ScanFault::GrossError { magnitude_sigma, .. }) => {
                    assert_eq!(magnitude_sigma, 20.0);
                    gross += 1;
                }
                Some(ScanFault::RtuOutage { site_slots }) => {
                    assert_eq!(site_slots.len(), 2);
                    rtu += 1;
                }
                None => {}
            }
        }
        // ~100 gross; rtu fires only when the gross draw missed (~50).
        assert!((70..=130).contains(&gross), "gross {gross}");
        assert!((20..=80).contains(&rtu), "rtu {rtu}");
    }

    #[test]
    fn empty_scan_plan_never_fires() {
        let plan = ScanFaultPlan::default();
        assert!((0..50u64).all(|s| plan.fault_for(0, s).is_none()));
    }

    #[test]
    fn dead_endpoint_refuses_connections_fast() {
        let registry = EndpointRegistry::new();
        FaultProxy::deploy_dead(&registry, "tcp://crashed:1").unwrap();
        let client = MwClient::new(registry);
        let start = Instant::now();
        let err = client.send("tcp://crashed:1", b"anyone there?").unwrap_err();
        assert!(matches!(err, MwError::Exhausted { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
