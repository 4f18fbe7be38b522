//! The middleware client — the interface the state estimators use.
//!
//! Mirrors the paper's Fig. 6: `MW_Client_Send` "invokes a C socket program
//! to connect the appropriate MeDICi inbound endpoint and sends data to
//! it"; the state-estimation code only names the destination estimator and
//! the data. Here the client resolves the logical URL through the registry
//! and speaks the EOF frame protocol.
//!
//! A client holds one **session** per endpoint: the first send to a URL
//! dials it (never earlier — deploying costs no connection), later sends
//! write on the held connection, and the receiver reads frames until EOF
//! ([`crate::inbox::Inbox`]). Before every write the held socket is
//! checked for EOF/reset, and it is re-dialled when the peer closed it or
//! the registry moved the name to a new address — so a frame is never
//! written into a dead socket, and a restarted endpoint gets the next
//! send. Every successful dial ticks `mw.connects` on the active
//! recorder, where the dial happens.
//!
//! Every blocking operation is bounded: connects, writes, accept waits and
//! reads all honour the [`MwConfig`] deadline, and transient send failures
//! are retried (each attempt re-dials) on the deterministic
//! [`RetryPolicy`](crate::RetryPolicy) backoff schedule. A dead destination
//! therefore costs a bounded number of fast failures — never a hang.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::endpoint::{accept_polled, peer_closed, EndpointRegistry};
use crate::framing::{read_frame, read_frame_discard, write_frame, write_frame_synthetic};
use crate::retry::{stable_key, MwConfig};
use crate::throttle::Throttle;
use crate::MwError;

/// Deadline used by the legacy no-deadline receive entry points.
const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(30);

/// Floor of the frame-read budget in `recv_deadline_on` /
/// `recv_discard_on`: a connection accepted as the deadline runs out
/// still gets this long to deliver its frame (and a zero read timeout
/// is an error, not "no wait").
const MIN_READ_BUDGET: Duration = Duration::from_millis(1);

/// Receipt of a successful [`MwClient::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Attempts used (1 = the first try succeeded).
    pub attempts: u32,
}

/// The send side of one session: at most one held connection to one URL,
/// and the address it was dialled at.
#[derive(Debug, Default)]
pub(crate) struct Session {
    held: Option<(SocketAddr, TcpStream)>,
}

impl Session {
    /// The connection to `url`, dialled when none is held, when the
    /// registry now maps `url` elsewhere, or when the held socket shows
    /// EOF/reset. A dial sets `TCP_NODELAY` and the write deadline, and
    /// ticks `mw.connects`.
    pub(crate) fn stream(
        &mut self,
        registry: &EndpointRegistry,
        url: &str,
        deadline: Duration,
    ) -> Result<&mut TcpStream, MwError> {
        let addr = registry.resolve(url)?;
        if !matches!(&self.held, Some((at, s)) if *at == addr && !peer_closed(s)) {
            self.held = None;
            let conn = TcpStream::connect_timeout(&addr, deadline)
                .map_err(map_op_timeout("connect", deadline))?;
            conn.set_nodelay(true)?;
            conn.set_write_timeout(Some(deadline))?;
            pgse_obs::counter_add("mw.connects", 1);
            self.held = Some((addr, conn));
        }
        Ok(&mut self.held.as_mut().expect("held after dial").1)
    }

    /// Writes one frame on the session. A failed write drops the
    /// connection, so the next attempt dials afresh.
    pub(crate) fn send(
        &mut self,
        registry: &EndpointRegistry,
        url: &str,
        body: &[u8],
        deadline: Duration,
    ) -> Result<(), MwError> {
        let written = write_frame(self.stream(registry, url, deadline)?, body);
        written.map_err(|e| {
            self.close();
            map_op_timeout("write", deadline)(e)
        })
    }

    /// Drops the held connection (the peer reads a close).
    pub(crate) fn close(&mut self) {
        self.held = None;
    }
}

/// A middleware client bound to a deployment registry, holding one
/// session per endpoint it has sent to. A clone shares the registry and
/// configuration but holds no connections of its own yet.
#[derive(Debug)]
pub struct MwClient {
    registry: EndpointRegistry,
    config: MwConfig,
    sessions: Mutex<HashMap<String, Session>>,
}

impl Clone for MwClient {
    fn clone(&self) -> Self {
        MwClient::with_config(self.registry.clone(), self.config)
    }
}

impl MwClient {
    /// Creates a client over `registry` with the default [`MwConfig`].
    pub fn new(registry: EndpointRegistry) -> Self {
        MwClient::with_config(registry, MwConfig::default())
    }

    /// Creates a client with explicit deadlines and retry policy.
    pub fn with_config(registry: EndpointRegistry, config: MwConfig) -> Self {
        MwClient { registry, config, sessions: Mutex::new(HashMap::new()) }
    }

    /// The registry this client resolves against.
    pub fn registry(&self) -> &EndpointRegistry {
        &self.registry
    }

    /// The client's deadline/retry configuration.
    pub fn config(&self) -> &MwConfig {
        &self.config
    }

    /// Sends one frame to the endpoint named by `url` (paper:
    /// `MW_Client_Send`) on its session, retrying transient socket
    /// failures on the configured backoff schedule. The send is traced as
    /// a `mw.send` span whose `backoff_nanos` field carries the
    /// deterministic schedule the retries slept — recomputable from
    /// [`crate::retry::RetryPolicy::schedule`].
    ///
    /// # Errors
    /// [`MwError::BadUrl`]/[`MwError::UnknownEndpoint`] immediately (a
    /// naming failure cannot heal by retrying); [`MwError::Exhausted`]
    /// once every attempt failed.
    pub fn send(&self, url: &str, body: &[u8]) -> Result<Delivery, MwError> {
        // Resolve per attempt: a restarted endpoint re-registers under a
        // new socket address, and the session re-dials it.
        let key = stable_key(url);
        let mut sp = pgse_obs::span("mw.send");
        sp.record("url", url);
        let mut last: Option<MwError> = None;
        let mut backoffs: Vec<u64> = Vec::new();
        for attempt in 0..self.config.retry.max_attempts {
            if attempt > 0 {
                let delay = self.config.retry.backoff(attempt - 1, key);
                backoffs.push(delay.as_nanos() as u64);
                std::thread::sleep(delay);
            }
            match self.session(url, |s| s.send(&self.registry, url, body, self.config.op_deadline)) {
                Ok(()) => {
                    finish_send_span(&mut sp, attempt + 1, true, &backoffs);
                    pgse_obs::counter_add("mw.send.ok", 1);
                    pgse_obs::counter_add("mw.retry.attempts", u64::from(attempt));
                    return Ok(Delivery { attempts: attempt + 1 });
                }
                Err(e @ (MwError::BadUrl(_) | MwError::UnknownEndpoint(_))) => {
                    finish_send_span(&mut sp, attempt + 1, false, &backoffs);
                    pgse_obs::counter_add("mw.send.rejected", 1);
                    return Err(e);
                }
                Err(e) => last = Some(e),
            }
        }
        let attempts = self.config.retry.max_attempts;
        finish_send_span(&mut sp, attempts, false, &backoffs);
        pgse_obs::counter_add("mw.send.exhausted", 1);
        pgse_obs::counter_add("mw.retry.attempts", u64::from(attempts.saturating_sub(1)));
        Err(MwError::Exhausted {
            url: url.to_string(),
            attempts,
            last: Box::new(last.expect("at least one attempt ran")),
        })
    }

    /// Runs `op` on the session for `url`. The session map stays locked
    /// for one attempt, so a client shared between threads writes whole
    /// frames, one at a time per client.
    fn session<T>(&self, url: &str, op: impl FnOnce(&mut Session) -> T) -> T {
        let mut sessions = self.sessions.lock();
        if !sessions.contains_key(url) {
            sessions.insert(url.to_string(), Session::default());
        }
        op(sessions.get_mut(url).expect("inserted above"))
    }

    /// Sends a synthetic frame of `len` bytes on the session, optionally
    /// paced at `link_rate` bytes/second (the simulated-LAN path of the
    /// measurement harness). Not retried: a half-sent synthetic stream is
    /// only used by the single-shot measurement harness.
    pub fn send_synthetic(
        &self,
        url: &str,
        len: u64,
        link_rate: Option<f64>,
    ) -> Result<(), MwError> {
        let deadline = self.config.op_deadline;
        self.session(url, |session| {
            let conn = session.stream(&self.registry, url, deadline)?;
            let mut throttle = link_rate.map(Throttle::new);
            write_frame_synthetic(conn, len, |n| {
                if let Some(t) = throttle.as_mut() {
                    t.account(n);
                }
            })
            .map_err(|e| {
                session.close();
                e.into()
            })
        })
    }

    /// Blocks for one inbound frame on `listener` (paper:
    /// `MW_Client_Recv`), waiting at most `DEFAULT_RECV_DEADLINE` (30 s).
    ///
    /// One-shot: accepts one connection, reads one frame and closes it. A
    /// session sender sees the close before its next write and dials
    /// again, so alternating send/receive pairs lose nothing; frames
    /// written *behind* the first on the same connection are discarded
    /// with it — a receiver that expects several frames per connection
    /// serves an [`crate::inbox::Inbox`].
    ///
    /// # Errors
    /// [`MwError::Timeout`] when nothing arrives in time,
    /// [`MwError::Io`] on socket failure.
    pub fn recv_on(listener: &TcpListener) -> Result<Vec<u8>, MwError> {
        Self::recv_deadline_on(listener, DEFAULT_RECV_DEADLINE)
    }

    /// Blocks for one inbound frame, giving up after `deadline`.
    ///
    /// The deadline covers the whole operation: the accept wait and the
    /// frame read share one budget, so a peer that connects and then
    /// stalls mid-frame still cannot hold the receiver past `deadline`.
    pub fn recv_deadline_on(
        listener: &TcpListener,
        deadline: Duration,
    ) -> Result<Vec<u8>, MwError> {
        let start = Instant::now();
        let mut conn = accept_polled(listener, deadline)?;
        let remaining = deadline.saturating_sub(start.elapsed()).max(MIN_READ_BUDGET);
        conn.set_read_timeout(Some(remaining))?;
        read_frame(&mut conn).map_err(map_op_timeout("read", deadline))
    }

    /// Receives one frame and discards the body, returning its length
    /// (benchmark receivers). Bounded by `DEFAULT_RECV_DEADLINE` (30 s).
    pub fn recv_discard_on(listener: &TcpListener) -> Result<u64, MwError> {
        let deadline = DEFAULT_RECV_DEADLINE;
        let start = Instant::now();
        let mut conn = accept_polled(listener, deadline)?;
        let remaining = deadline.saturating_sub(start.elapsed()).max(MIN_READ_BUDGET);
        conn.set_read_timeout(Some(remaining))?;
        read_frame_discard(&mut conn).map_err(map_op_timeout("read", deadline))
    }
}

/// Stamps the terminal fields of a `mw.send` span: attempts, outcome, and
/// the deterministic backoff schedule actually slept (comma-joined
/// nanoseconds; omitted when the first try resolved the send).
fn finish_send_span(sp: &mut pgse_obs::SpanGuard, attempts: u32, ok: bool, backoffs: &[u64]) {
    sp.record("attempts", attempts);
    sp.record("ok", ok);
    if !backoffs.is_empty() {
        let joined =
            backoffs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        sp.record("backoff_nanos", joined);
    }
}

/// Maps a socket-timeout `io::Error` (`WouldBlock`/`TimedOut`, the kinds
/// read/write return when an OS deadline expires) to [`MwError::Timeout`].
fn map_op_timeout(
    what: &'static str,
    after: Duration,
) -> impl Fn(std::io::Error) -> MwError {
    move |e| {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            MwError::Timeout { what, after }
        } else {
            MwError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;

    #[test]
    fn direct_send_recv_roundtrip() {
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://estimator-a:9000").unwrap();
        let client = MwClient::new(registry);
        let rx = std::thread::spawn(move || MwClient::recv_on(&listener).unwrap());
        client.send("tcp://estimator-a:9000", b"state vector").unwrap();
        assert_eq!(rx.join().unwrap(), b"state vector");
    }

    #[test]
    fn alternating_sends_and_one_shot_receives_lose_nothing() {
        // Each one-shot receive closes the connection it read; the held
        // session sees the close before its next write and dials again.
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://one-shot:1").unwrap();
        let client = MwClient::new(registry);
        let rec = pgse_obs::Recorder::new("t");
        pgse_obs::with_recorder(&rec, || {
            for i in 0..1000u32 {
                client.send("tcp://one-shot:1", &i.to_be_bytes()).unwrap();
                let got = MwClient::recv_deadline_on(&listener, Duration::from_secs(2)).unwrap();
                assert_eq!(got, i.to_be_bytes());
            }
        });
        let metrics = rec.snapshot().metrics;
        assert_eq!(metrics.counter("mw.send.ok"), 1000);
        assert_eq!(metrics.counter("mw.retry.attempts"), 0);
        assert_eq!(metrics.counter("mw.connects"), 1000);
    }

    #[test]
    fn a_session_dials_once_for_many_frames() {
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://held:1").unwrap();
        let mut inbox = crate::Inbox::new(listener, Duration::from_secs(5)).unwrap();
        let client = MwClient::new(registry);
        let rec = pgse_obs::Recorder::new("t");
        pgse_obs::with_recorder(&rec, || {
            for i in 0..200u32 {
                client.send("tcp://held:1", &i.to_be_bytes()).unwrap();
            }
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        for i in 0..200u32 {
            let want = crate::Arrival::Frame(i.to_be_bytes().to_vec());
            assert_eq!(inbox.recv_until(deadline), Some(want));
        }
        assert_eq!(inbox.held(), 1);
        assert_eq!(rec.snapshot().metrics.counter("mw.connects"), 1);
    }

    #[test]
    fn a_rebound_endpoint_gets_the_next_send() {
        let registry = EndpointRegistry::new();
        let old = registry.bind("tcp://moving:1").unwrap();
        let mut old = crate::Inbox::new(old, Duration::from_secs(5)).unwrap();
        let client = MwClient::new(registry.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        client.send("tcp://moving:1", b"first").unwrap();
        assert_eq!(old.recv_until(deadline), Some(crate::Arrival::Frame(b"first".to_vec())));
        // The endpoint restarts at a new address while the old listener
        // and the held connection to it are both still open.
        let new = registry.bind("tcp://moving:1").unwrap();
        client.send("tcp://moving:1", b"second").unwrap();
        let got = MwClient::recv_deadline_on(&new, Duration::from_secs(2)).unwrap();
        assert_eq!(got, b"second");
        // The old session was closed at a frame boundary: nothing corrupt.
        assert_eq!(old.recv_until(Instant::now() + Duration::from_millis(50)), None);
        assert_eq!(old.held(), 0);
    }

    #[test]
    fn held_connections_set_nodelay() {
        let registry = EndpointRegistry::new();
        let _listener = registry.bind("tcp://nagle:1").unwrap();
        let mut session = Session::default();
        let conn = session.stream(&registry, "tcp://nagle:1", Duration::from_secs(1)).unwrap();
        assert!(conn.nodelay().unwrap());
    }

    #[test]
    fn synthetic_send_reports_length() {
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://sink:1").unwrap();
        let client = MwClient::new(registry);
        let rx = std::thread::spawn(move || MwClient::recv_discard_on(&listener).unwrap());
        client.send_synthetic("tcp://sink:1", 10_000_000, None).unwrap();
        assert_eq!(rx.join().unwrap(), 10_000_000);
    }

    #[test]
    fn send_to_unknown_endpoint_fails() {
        let client = MwClient::new(EndpointRegistry::new());
        assert!(matches!(
            client.send("tcp://ghost:1", b"x"),
            Err(MwError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn link_rate_paces_synthetic_send() {
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://sink:2").unwrap();
        let client = MwClient::new(registry);
        let rx = std::thread::spawn(move || MwClient::recv_discard_on(&listener).unwrap());
        let start = std::time::Instant::now();
        // 2 MB at 10 MB/s ≈ 0.2 s.
        client.send_synthetic("tcp://sink:2", 2_000_000, Some(10.0e6)).unwrap();
        rx.join().unwrap();
        assert!(start.elapsed().as_secs_f64() >= 0.15);
    }

    #[test]
    fn recv_deadline_times_out_with_no_sender() {
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://lonely:1").unwrap();
        let start = Instant::now();
        let err = MwClient::recv_deadline_on(&listener, Duration::from_millis(50)).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(50));
        assert!(waited < Duration::from_secs(5), "deadline overshot: {waited:?}");
    }

    #[test]
    fn recv_deadline_bounds_a_stalled_sender() {
        // Peer connects, sends a frame header promising bytes, then stalls.
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://stalled:1").unwrap();
        let addr = registry.resolve("tcp://stalled:1").unwrap();
        let stall = std::thread::spawn(move || {
            use std::io::Write;
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&100u64.to_be_bytes()).unwrap();
            conn.write_all(b"partial").unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let start = Instant::now();
        let err = MwClient::recv_deadline_on(&listener, Duration::from_millis(80)).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert!(start.elapsed() < Duration::from_millis(350));
        stall.join().unwrap();
    }

    #[test]
    fn dead_endpoint_send_exhausts_quickly_not_hangs() {
        let registry = EndpointRegistry::new();
        // Bind then drop the listener: the name resolves but connects are
        // refused — the "dead pipeline" failure mode.
        drop(registry.bind("tcp://dead:1").unwrap());
        let config = MwConfig {
            op_deadline: Duration::from_millis(200),
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(20),
                jitter: 0.2,
            },
        };
        let client = MwClient::with_config(registry, config);
        let start = Instant::now();
        let err = client.send("tcp://dead:1", b"doomed").unwrap_err();
        match err {
            MwError::Exhausted { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected Exhausted, got {other}"),
        }
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn exhausted_send_traces_the_deterministic_backoff_schedule() {
        let registry = EndpointRegistry::new();
        drop(registry.bind("tcp://dead:2").unwrap());
        let config = MwConfig {
            op_deadline: Duration::from_millis(200),
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(10),
                jitter: 0.2,
            },
        };
        let client = MwClient::with_config(registry, config);
        let rec = pgse_obs::Recorder::new("t");
        pgse_obs::with_recorder(&rec, || {
            client.send("tcp://dead:2", b"doomed").unwrap_err();
        });
        let snap = rec.snapshot();
        let sp = snap.spans.iter().find(|s| s.name == "mw.send").unwrap();
        assert_eq!(sp.field_u64("attempts"), Some(3));
        let expect = config
            .retry
            .schedule(stable_key("tcp://dead:2"))
            .iter()
            .map(|d| (d.as_nanos() as u64).to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(
            sp.field("backoff_nanos").and_then(|v| v.as_str()),
            Some(expect.as_str())
        );
        assert_eq!(snap.metrics.counter("mw.send.exhausted"), 1);
        assert_eq!(snap.metrics.counter("mw.retry.attempts"), 2);
    }

    #[test]
    fn successful_send_reports_attempts_used() {
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://receipt:1").unwrap();
        let client = MwClient::new(registry);
        let rx = std::thread::spawn(move || MwClient::recv_on(&listener).unwrap());
        let receipt = client.send("tcp://receipt:1", b"x").unwrap();
        assert_eq!(receipt.attempts, 1);
        rx.join().unwrap();
    }

    #[test]
    fn retry_recovers_when_endpoint_comes_back() {
        let registry = EndpointRegistry::new();
        let listener = registry.bind("tcp://flaky:1").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // now refusing connections…
        let registry2 = registry.clone();
        let reviver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // …until the endpoint restarts on the same address.
            let listener = TcpListener::bind(addr).unwrap();
            MwClient::recv_on(&listener).unwrap()
        });
        let config = MwConfig {
            op_deadline: Duration::from_millis(500),
            retry: RetryPolicy {
                max_attempts: 10,
                base_delay: Duration::from_millis(20),
                max_delay: Duration::from_millis(50),
                jitter: 0.0,
            },
        };
        let client = MwClient::with_config(registry2, config);
        client.send("tcp://flaky:1", b"eventually").unwrap();
        assert_eq!(reviver.join().unwrap(), b"eventually");
    }
}
