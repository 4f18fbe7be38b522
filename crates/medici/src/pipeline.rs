//! MeDICi pipelines: one-way relay channels between state estimators.
//!
//! Mirrors the construction code of the paper's Fig. 7: a pipeline gets a
//! TCP connector with the EOF protocol, components are added with inbound
//! and outbound endpoints, and `start()` brings the channel up. Each
//! component is a store-and-forward router: frames arriving at the inbound
//! endpoint are forwarded to the outbound endpoint at the configured relay
//! rate. Both sides are sessions: the router serves its listener and every
//! sender's held connection from one [`Inbox`], and forwards on one held
//! connection to its destination.

use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::client::Session;
use crate::endpoint::{wake_acceptor, EndpointRegistry, OWNER_WOKEN_PARK};
use crate::inbox::{Arrival, Inbox};

/// Relay pacing granularity: small enough that the token bucket shapes the
/// stream the receiver sees, large enough to keep syscall overhead low.
const RELAY_CHUNK: usize = 1 << 20; // 1 MiB

/// Bound on each router socket operation: an inbound frame's stall,
/// outbound connect and write. A stalled inbound peer delays no other
/// sender (its partial frame is dropped as corrupt after one deadline),
/// and a dead outbound peer delays the router by at most one deadline per
/// attempt, never hangs it.
const IO_DEADLINE: Duration = Duration::from_secs(30);
use crate::retry::{stable_key, RetryPolicy};
use crate::throttle::Throttle;
use crate::MwError;

/// Connector protocols (the paper's prototype uses TCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointProtocol {
    /// TCP with the EOF (length-prefix) protocol.
    Tcp,
}

/// A pipeline component bridging one inbound endpoint to one outbound
/// endpoint (the paper's `SESocket` component).
#[derive(Debug, Clone)]
pub struct SeComponent {
    name: String,
    in_url: Option<String>,
    out_url: Option<String>,
}

impl SeComponent {
    /// A named component with unset endpoints.
    pub fn new(name: impl Into<String>) -> Self {
        SeComponent { name: name.into(), in_url: None, out_url: None }
    }

    /// Sets the inbound endpoint URL (paper: `setInNameEndp`).
    pub fn set_in_name_endp(&mut self, url: impl Into<String>) -> &mut Self {
        self.in_url = Some(url.into());
        self
    }

    /// Sets the outbound endpoint URL (paper: `setOutHalEndp`).
    pub fn set_out_hal_endp(&mut self, url: impl Into<String>) -> &mut Self {
        self.out_url = Some(url.into());
        self
    }

    /// Component name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Counters exposed by a running pipeline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RelayStats {
    /// Frames forwarded end-to-end.
    pub frames: u64,
    /// Payload bytes forwarded.
    pub bytes: u64,
    /// Frames dropped because the outbound endpoint failed every attempt.
    pub dropped: u64,
    /// Forward attempts beyond the first (transient failures that were
    /// retried).
    pub retries: u64,
}

/// A MeDICi pipeline under construction.
#[derive(Debug, Default)]
pub struct MifPipeline {
    connector: Option<EndpointProtocol>,
    components: Vec<SeComponent>,
    relay_rate: Option<f64>,
    retry: RetryPolicy,
    recorder: Option<pgse_obs::Recorder>,
}

impl MifPipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the connector (paper: `addMifConnector(EndpointProtocol.TCP)`).
    pub fn add_mif_connector(&mut self, protocol: EndpointProtocol) -> &mut Self {
        self.connector = Some(protocol);
        self
    }

    /// Adds a component (paper: `addMifComponent`).
    pub fn add_mif_component(&mut self, component: SeComponent) -> &mut Self {
        self.components.push(component);
        self
    }

    /// Sets the store-and-forward relay rate in bytes/second (default:
    /// unthrottled). The paper's measured middleware relays at ≈ 0.4 GB/s.
    pub fn set_relay_rate(&mut self, bytes_per_sec: f64) -> &mut Self {
        self.relay_rate = Some(bytes_per_sec);
        self
    }

    /// Sets the bounded-retry schedule for forwarding failures (default:
    /// [`RetryPolicy::default`]). A frame is counted as `dropped` only
    /// after every attempt failed.
    pub fn set_retry(&mut self, retry: RetryPolicy) -> &mut Self {
        self.retry = retry;
        self
    }

    /// Mirrors the relay counters into an observability recorder under the
    /// `volatile.mw.relay.*` namespace. Router threads race delivery, so
    /// these counters can trail the wire by a few frames — which is exactly
    /// why they are `volatile.*` and excluded from the deterministic
    /// export. The routers run under this recorder, so their outbound
    /// dials tick its `mw.connects` (a dial precedes the delivery it
    /// carries, so that count does not trail).
    pub fn set_recorder(&mut self, recorder: pgse_obs::Recorder) -> &mut Self {
        self.recorder = Some(recorder);
        self
    }

    /// Starts the pipeline: binds every component's inbound endpoint in
    /// `registry` and spawns its router thread.
    ///
    /// # Errors
    /// [`MwError`] when the connector/endpoints are missing or a bind
    /// fails.
    pub fn start(&self, registry: &EndpointRegistry) -> Result<PipelineHandle, MwError> {
        if self.connector.is_none() {
            return Err(MwError::BadUrl("pipeline has no connector".into()));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(RelayStats::default()));
        let mut threads = Vec::new();
        let mut inbound = Vec::new();
        for comp in &self.components {
            let in_url = comp
                .in_url
                .clone()
                .ok_or_else(|| MwError::BadUrl(format!("{}: no inbound endpoint", comp.name)))?;
            let out_url = comp
                .out_url
                .clone()
                .ok_or_else(|| MwError::BadUrl(format!("{}: no outbound endpoint", comp.name)))?;
            let inbox = Inbox::new(registry.bind(&in_url)?, IO_DEADLINE)?;
            inbound.push(inbox.local_addr()?);
            let registry = registry.clone();
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let cfg = RouterConfig { relay_rate: self.relay_rate, retry: self.retry };
            let recorder = self.recorder.clone();
            threads.push(std::thread::spawn(move || {
                let relay = || router_loop(inbox, &registry, &out_url, cfg, &stop, &stats, &recorder);
                match &recorder {
                    Some(rec) => pgse_obs::with_recorder(rec, relay),
                    None => relay(),
                }
            }));
        }
        Ok(PipelineHandle { stop, inbound, threads, stats })
    }
}

/// A running pipeline; dropping it (or calling [`PipelineHandle::stop`])
/// shuts the routers down.
#[derive(Debug)]
pub struct PipelineHandle {
    stop: Arc<AtomicBool>,
    /// Live address of every router's inbound listener, for the shutdown
    /// wake.
    inbound: Vec<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<Mutex<RelayStats>>,
}

impl PipelineHandle {
    /// Current relay counters.
    pub fn stats(&self) -> RelayStats {
        *self.stats.lock()
    }

    /// Stops all router threads and waits for them.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Flag, wake, join: the routers are parked in their inbox's poll, so
    /// the flag alone would be read only after [`OWNER_WOKEN_PARK`].
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for addr in self.inbound.drain(..) {
            wake_acceptor(addr);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for PipelineHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-router configuration snapshot.
#[derive(Debug, Clone, Copy)]
struct RouterConfig {
    relay_rate: Option<f64>,
    retry: RetryPolicy,
}

/// Receive loop of one component: store each inbound frame, forward it
/// to the outbound endpoint at the relay rate on the held outbound
/// session. A cut or stalled inbound frame (beyond the IO deadline) is
/// corrupt and is not relayed — the destination sees it as missing. An
/// idle router is parked in its [`Inbox`]'s poll: a frame wakes it at
/// once, and so does [`PipelineHandle`]'s shutdown, which sets `stop` and
/// then connects once to the inbound endpoint — the stop flag is re-read
/// after every wake and every [`OWNER_WOKEN_PARK`].
fn router_loop(
    mut inbox: Inbox,
    registry: &EndpointRegistry,
    out_url: &str,
    cfg: RouterConfig,
    stop: &AtomicBool,
    stats: &Mutex<RelayStats>,
    recorder: &Option<pgse_obs::Recorder>,
) {
    let retry_key = stable_key(out_url);
    let mut out = Session::default();
    while !stop.load(Ordering::SeqCst) {
        let Some(Arrival::Frame(body)) = inbox.next(OWNER_WOKEN_PARK) else {
            continue;
        };
        let retried = forward_with_retry(&mut out, registry, out_url, &body, &cfg, retry_key, stop);
        let mut s = stats.lock();
        match retried {
            Some(extra_attempts) => {
                s.frames += 1;
                s.bytes += body.len() as u64;
                s.retries += u64::from(extra_attempts);
                if let Some(rec) = recorder {
                    rec.counter_add("volatile.mw.relay.frames", 1);
                    rec.counter_add("volatile.mw.relay.bytes", body.len() as u64);
                    rec.counter_add("volatile.mw.relay.retries", u64::from(extra_attempts));
                }
            }
            None => {
                s.dropped += 1;
                s.retries += u64::from(cfg.retry.max_attempts.saturating_sub(1));
                if let Some(rec) = recorder {
                    rec.counter_add("volatile.mw.relay.dropped", 1);
                }
            }
        }
    }
}

/// Forwards one frame under the retry policy. Returns `Some(retries)` (the
/// number of attempts beyond the first) on delivery, `None` when every
/// attempt failed or the pipeline is stopping.
fn forward_with_retry(
    out: &mut Session,
    registry: &EndpointRegistry,
    out_url: &str,
    body: &[u8],
    cfg: &RouterConfig,
    retry_key: u64,
    stop: &AtomicBool,
) -> Option<u32> {
    for attempt in 0..cfg.retry.max_attempts {
        if attempt > 0 {
            std::thread::sleep(cfg.retry.backoff(attempt - 1, retry_key));
            if stop.load(Ordering::SeqCst) {
                return None;
            }
        }
        if forward(out, registry, out_url, body, cfg).is_ok() {
            return Some(attempt);
        }
        // A failed write leaves a cut frame behind: the next attempt
        // starts on a fresh connection.
        out.close();
    }
    None
}

/// Forwards one stored frame on the outbound session, paced at the relay
/// rate. The header goes out in one write with the first chunk, so a frame
/// under [`RELAY_CHUNK`] is one write.
fn forward(
    out: &mut Session,
    registry: &EndpointRegistry,
    out_url: &str,
    body: &[u8],
    cfg: &RouterConfig,
) -> Result<(), crate::MwError> {
    let conn = out.stream(registry, out_url, IO_DEADLINE)?;
    let mut throttle = cfg.relay_rate.map(Throttle::new);
    let mut chunks = body.chunks(RELAY_CHUNK);
    let first = chunks.next().unwrap_or(&[]);
    // Pace-then-send: the relay may not emit a chunk before its schedule
    // allows it, so the receiver genuinely observes the relay rate (paying
    // the cost after the write would let small frames slip through the
    // kernel buffers unthrottled).
    if let Some(t) = throttle.as_mut() {
        t.account(first.len());
    }
    let mut head = Vec::with_capacity(8 + first.len());
    head.extend_from_slice(&(body.len() as u64).to_be_bytes());
    head.extend_from_slice(first);
    conn.write_all(&head)?;
    for chunk in chunks {
        if let Some(t) = throttle.as_mut() {
            t.account(chunk.len());
        }
        conn.write_all(chunk)?;
    }
    conn.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MwClient;
    use std::net::TcpStream;
    use std::time::Instant;

    fn one_hop_pipeline(registry: &EndpointRegistry, relay_rate: Option<f64>) -> PipelineHandle {
        let mut pipeline = MifPipeline::new();
        pipeline.add_mif_connector(EndpointProtocol::Tcp);
        let mut se = SeComponent::new("SE");
        se.set_in_name_endp("tcp://nwiceb.pnl.gov:6789");
        se.set_out_hal_endp("tcp://chinook.emsl.pnl.gov:7890");
        pipeline.add_mif_component(se);
        if let Some(r) = relay_rate {
            pipeline.set_relay_rate(r);
        }
        pipeline.start(registry).unwrap()
    }

    #[test]
    fn relays_a_frame_end_to_end() {
        let registry = EndpointRegistry::new();
        let dst = registry.bind("tcp://chinook.emsl.pnl.gov:7890").unwrap();
        let handle = one_hop_pipeline(&registry, None);
        let client = MwClient::new(registry.clone());
        let receiver = std::thread::spawn(move || MwClient::recv_on(&dst).unwrap());
        client.send("tcp://nwiceb.pnl.gov:6789", b"pseudo measurements").unwrap();
        let got = receiver.join().unwrap();
        assert_eq!(got, b"pseudo measurements");
        // The router updates its counters just after delivery; poll briefly.
        for _ in 0..200 {
            if handle.stats().frames == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(handle.stats().frames, 1);
        assert_eq!(handle.stats().bytes, 19);
        handle.stop();
    }

    #[test]
    fn relays_multiple_frames_on_one_connection() {
        let registry = EndpointRegistry::new();
        let dst = registry.bind("tcp://dst:1").unwrap();
        let mut pipeline = MifPipeline::new();
        pipeline.add_mif_connector(EndpointProtocol::Tcp);
        let mut se = SeComponent::new("SE");
        se.set_in_name_endp("tcp://in:1");
        se.set_out_hal_endp("tcp://dst:1");
        pipeline.add_mif_component(se);
        let handle = pipeline.start(&registry).unwrap();

        // The router forwards both on its one held outbound connection:
        // the destination is a session receiver.
        let receiver = std::thread::spawn(move || {
            let mut inbox = Inbox::new(dst, Duration::from_secs(5)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            let a = inbox.recv_until(deadline).unwrap();
            let b = inbox.recv_until(deadline).unwrap();
            (a, b)
        });
        // Two frames over a single sender connection.
        let addr = registry.resolve("tcp://in:1").unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        crate::framing::write_frame(&mut conn, b"one").unwrap();
        crate::framing::write_frame(&mut conn, b"two").unwrap();
        drop(conn);
        let (a, b) = receiver.join().unwrap();
        assert_eq!(a, Arrival::Frame(b"one".to_vec()));
        assert_eq!(b, Arrival::Frame(b"two".to_vec()));
        for _ in 0..200 {
            if handle.stats().frames == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(handle.stats().frames, 2);
    }

    #[test]
    fn alternating_relayed_sends_and_one_shot_receives_lose_nothing() {
        // Client → router is a held session; router → destination is
        // re-dialled after every one-shot receive closes it.
        let registry = EndpointRegistry::new();
        let dst = registry.bind("tcp://chinook.emsl.pnl.gov:7890").unwrap();
        let handle = one_hop_pipeline(&registry, Some(crate::throttle::PAPER_RELAY_RATE));
        let client = MwClient::new(registry.clone());
        for i in 0..1000u32 {
            client.send("tcp://nwiceb.pnl.gov:6789", &i.to_be_bytes()).unwrap();
            let got = MwClient::recv_deadline_on(&dst, Duration::from_secs(2)).unwrap();
            assert_eq!(got, i.to_be_bytes());
        }
        let stats = handle.stats();
        assert_eq!((stats.dropped, stats.retries), (0, 0));
        handle.stop();
    }

    #[test]
    fn a_relay_session_dials_each_hop_once() {
        let registry = EndpointRegistry::new();
        let dst = registry.bind("tcp://dst:6").unwrap();
        let mut inbox = Inbox::new(dst, Duration::from_secs(5)).unwrap();
        let relay = pgse_obs::Recorder::new("relay");
        let mut pipeline = MifPipeline::new();
        pipeline.add_mif_connector(EndpointProtocol::Tcp);
        let mut se = SeComponent::new("SE");
        se.set_in_name_endp("tcp://in:6");
        se.set_out_hal_endp("tcp://dst:6");
        pipeline.add_mif_component(se);
        pipeline.set_recorder(relay.clone());
        let handle = pipeline.start(&registry).unwrap();
        let client = MwClient::new(registry.clone());
        let sender = pgse_obs::Recorder::new("sender");
        let deadline = Instant::now() + Duration::from_secs(5);
        for i in 0..100u32 {
            pgse_obs::with_recorder(&sender, || client.send("tcp://in:6", &i.to_be_bytes()))
                .unwrap();
            let want = Arrival::Frame(i.to_be_bytes().to_vec());
            assert_eq!(inbox.recv_until(deadline), Some(want));
        }
        assert_eq!(sender.snapshot().metrics.counter("mw.connects"), 1);
        assert_eq!(relay.snapshot().metrics.counter("mw.connects"), 1);
        assert_eq!(inbox.held(), 1);
        handle.stop();
    }

    #[test]
    fn missing_destination_counts_as_dropped() {
        let registry = EndpointRegistry::new();
        let handle = one_hop_pipeline(&registry, None); // destination never bound
        let client = MwClient::new(registry.clone());
        client.send("tcp://nwiceb.pnl.gov:6789", b"lost").unwrap();
        // Allow the router to process.
        for _ in 0..100 {
            if handle.stats().dropped > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.stats().dropped, 1);
        assert_eq!(handle.stats().frames, 0);
        handle.stop();
    }

    #[test]
    fn forward_retry_recovers_late_destination() {
        let registry = EndpointRegistry::new();
        let mut pipeline = MifPipeline::new();
        pipeline.add_mif_connector(EndpointProtocol::Tcp);
        let mut se = SeComponent::new("SE");
        se.set_in_name_endp("tcp://in:9");
        se.set_out_hal_endp("tcp://late:9");
        pipeline.add_mif_component(se);
        pipeline.set_retry(RetryPolicy {
            max_attempts: 20,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(40),
            jitter: 0.0,
        });
        let handle = pipeline.start(&registry).unwrap();
        let client = MwClient::new(registry.clone());
        // Send while the destination does not exist yet…
        client.send("tcp://in:9", b"patience").unwrap();
        std::thread::sleep(Duration::from_millis(60));
        // …then bring it up; a later forward attempt must deliver.
        let dst = registry.bind("tcp://late:9").unwrap();
        let got = MwClient::recv_deadline_on(&dst, Duration::from_secs(5)).unwrap();
        assert_eq!(got, b"patience");
        for _ in 0..200 {
            if handle.stats().frames == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = handle.stats();
        assert_eq!(stats.frames, 1);
        assert!(stats.retries > 0, "delivery should have required retries");
        assert_eq!(stats.dropped, 0);
        handle.stop();
    }

    #[test]
    fn recorder_mirrors_relay_counters_in_volatile_namespace() {
        let registry = EndpointRegistry::new();
        let dst = registry.bind("tcp://dst:5").unwrap();
        let rec = pgse_obs::Recorder::new("relay");
        let mut pipeline = MifPipeline::new();
        pipeline.add_mif_connector(EndpointProtocol::Tcp);
        let mut se = SeComponent::new("SE");
        se.set_in_name_endp("tcp://in:5");
        se.set_out_hal_endp("tcp://dst:5");
        pipeline.add_mif_component(se);
        pipeline.set_recorder(rec.clone());
        let handle = pipeline.start(&registry).unwrap();
        let client = MwClient::new(registry.clone());
        let receiver = std::thread::spawn(move || MwClient::recv_on(&dst).unwrap());
        client.send("tcp://in:5", b"mirrored").unwrap();
        receiver.join().unwrap();
        for _ in 0..200 {
            if rec.snapshot().metrics.counter("volatile.mw.relay.frames") == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let metrics = rec.snapshot().metrics;
        assert_eq!(metrics.counter("volatile.mw.relay.frames"), 1);
        assert_eq!(metrics.counter("volatile.mw.relay.bytes"), 8);
        handle.stop();
    }

    #[test]
    fn unconfigured_pipeline_fails_to_start() {
        let registry = EndpointRegistry::new();
        let mut p = MifPipeline::new();
        assert!(p.start(&registry).is_err()); // no connector
        p.add_mif_connector(EndpointProtocol::Tcp);
        p.add_mif_component(SeComponent::new("incomplete"));
        assert!(p.start(&registry).is_err()); // missing endpoints
    }

    #[test]
    fn stop_terminates_router_threads() {
        let registry = EndpointRegistry::new();
        let handle = one_hop_pipeline(&registry, None);
        handle.stop(); // must return, not hang
    }

    #[test]
    fn stop_wakes_an_idle_router_instead_of_waiting_out_its_park() {
        let registry = EndpointRegistry::new();
        let handle = one_hop_pipeline(&registry, None);
        let start = std::time::Instant::now();
        handle.stop();
        // Liveness margin, not a perf floor: a stop that relied on the
        // router's own timeout would take the whole park bound.
        assert!(start.elapsed() < OWNER_WOKEN_PARK / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn throttled_relay_is_slower() {
        let registry = EndpointRegistry::new();
        let payload = vec![1u8; 2_000_000];

        let time_with = |relay: Option<f64>, tag: &str| {
            let registry = EndpointRegistry::new();
            let dst = registry.bind("tcp://chinook.emsl.pnl.gov:7890").unwrap();
            let handle = one_hop_pipeline(&registry, relay);
            let client = MwClient::new(registry.clone());
            let receiver = std::thread::spawn(move || MwClient::recv_on(&dst).unwrap());
            let start = std::time::Instant::now();
            client.send("tcp://nwiceb.pnl.gov:6789", &payload).unwrap();
            let got = receiver.join().unwrap();
            assert_eq!(got.len(), payload.len(), "{tag}");
            let d = start.elapsed();
            handle.stop();
            d
        };
        let fast = time_with(None, "unthrottled");
        let slow = time_with(Some(10.0e6), "10MB/s"); // 2 MB at 10 MB/s ≈ 0.2 s
        assert!(slow > fast, "throttle had no effect: {slow:?} vs {fast:?}");
        assert!(slow.as_secs_f64() >= 0.15, "too fast: {slow:?}");
        drop(registry);
    }
}
