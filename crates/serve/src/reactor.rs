//! The serving reactor: one thread, many connections, no blocking waits.
//!
//! The estimation service's middleware handles its few dozen area
//! channels with a thread per connection; a read path facing thousands of
//! subscribers cannot. The [`SnapshotServer`] instead runs a single
//! *sweep loop* over non-blocking sockets (a poll reactor built on
//! `medici::endpoint::Acceptor`): each sweep accepts pending
//! connections (refusing past the cap with a typed PGSS refusal), makes
//! incremental progress on every handshake read and every in-flight
//! frame write, and pushes queued one-shot frames to push-mode
//! subscribers. Shutdown is deadline-bounded by construction — the loop
//! re-checks its stop flag every sweep and nothing ever parks in the
//! kernel.
//!
//! Two delivery paths share the [`Broadcaster`]'s queues and accounting:
//!
//! * **streamed** — the subscriber keeps its connection; encoded buffers
//!   flow down it as length-prefixed frames (`medici::framing` layout);
//! * **push** — the subscriber names a registered endpoint URL in its
//!   [`Subscribe`] and each buffer is delivered as a one-shot framed
//!   connect+write — the path a seeded `medici::faults` proxy can sit
//!   on, since the proxy store-and-forwards exactly such frames.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pgse_medici::endpoint::Acceptor;
use pgse_medici::{EndpointRegistry, MwError};
use pgse_stream::SnapshotStore;

use crate::mux::{Broadcaster, QueuedBuf, SubscriberId};
use crate::wire::{
    decode_msg, encode_msg, RefuseReason, Refusal, ServeMsg, ServeWireError, Subscribe,
};

/// Largest accepted handshake frame (a [`Subscribe`] is tiny).
const MAX_SUBSCRIBE_FRAME: u64 = 64 * 1024;

/// Sweep pause when a pass made no progress.
const SWEEP_PAUSE: Duration = Duration::from_micros(200);

/// How long a connection may sit in handshake without completing a
/// [`Subscribe`] before it is dropped.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// Serving reactor configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Logical endpoint URL the server binds through the registry.
    pub url: String,
    /// Connection cap; the `max_conns + 1`-th concurrent connection gets
    /// a typed refusal.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            url: "tcp://serve.pgse:9000".into(),
            max_conns: 1024,
        }
    }
}

enum ConnState {
    Handshake { buf: Vec<u8>, since: Instant },
    Streaming { sub: SubscriberId, inflight: Option<InFlight> },
}

struct InFlight {
    prefix: [u8; 8],
    prefix_off: usize,
    body: QueuedBuf,
    body_off: usize,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
}

struct PushSub {
    sub: SubscriberId,
    url: String,
}

/// The running serving reactor; [`SnapshotServer::stop`] (or drop) shuts
/// it down within a bounded number of sweeps.
pub struct SnapshotServer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SnapshotServer {
    /// Binds `cfg.url` through `registry` and starts the reactor thread
    /// serving `broadcaster`'s subscriptions.
    ///
    /// # Errors
    /// [`MwError`] when the endpoint cannot be bound.
    pub fn start(
        registry: &EndpointRegistry,
        cfg: ServeConfig,
        broadcaster: Arc<Broadcaster>,
    ) -> Result<SnapshotServer, MwError> {
        let acceptor = Acceptor::with_limit(registry.bind(&cfg.url)?, cfg.max_conns)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_t = Arc::clone(&stop);
        let registry = registry.clone();
        let thread = std::thread::Builder::new()
            .name("pgse-serve-reactor".into())
            .spawn(move || reactor_loop(acceptor, registry, broadcaster, stop_t))
            .expect("spawn serve reactor");
        Ok(SnapshotServer { stop, thread: Some(thread) })
    }

    /// Stops the reactor and joins it. Pending queue entries of its
    /// connections are shed (the accounting identity stays closed).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SnapshotServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SnapshotServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotServer").finish_non_exhaustive()
    }
}

fn refusal_bytes(reason: RefuseReason) -> Vec<u8> {
    let body = encode_msg(&ServeMsg::Refused(Refusal { reason }));
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&(body.len() as u64).to_be_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Best-effort goodbye: a small refusal frame written with a short
/// timeout; failure just means the peer sees a bare close.
fn write_refusal(conn: &mut TcpStream, reason: RefuseReason) {
    let _ = conn.set_nonblocking(false);
    let _ = conn.set_write_timeout(Some(Duration::from_millis(50)));
    let _ = conn.write_all(&refusal_bytes(reason));
}

fn reactor_loop(
    acceptor: Acceptor,
    registry: EndpointRegistry,
    bc: Arc<Broadcaster>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut pushes: Vec<PushSub> = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        let mut progressed = false;

        // --- Accept sweep: drain the backlog, refusing past the cap. ---
        loop {
            let limit = acceptor.limit().unwrap_or(usize::MAX) as u32;
            match acceptor.try_accept(conns.len(), |c| {
                write_refusal(c, RefuseReason::ConnLimit(limit));
            }) {
                Ok(Some(conn)) => {
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    conns.push(Conn {
                        stream: conn,
                        state: ConnState::Handshake { buf: Vec::new(), since: Instant::now() },
                    });
                    progressed = true;
                }
                Ok(None) => break,
                Err(MwError::ConnLimit { .. }) => {
                    bc.count_refused();
                    progressed = true;
                }
                Err(_) => break,
            }
        }

        // --- Connection sweep: handshakes forward, writes forward. ---
        let mut i = 0;
        while i < conns.len() {
            match step_conn(&mut conns[i], &bc, &mut pushes) {
                StepOutcome::Keep { moved } => {
                    progressed |= moved;
                    i += 1;
                }
                StepOutcome::Close => {
                    let conn = conns.swap_remove(i);
                    close_conn(conn, &bc);
                    progressed = true;
                }
            }
        }

        // --- Push sweep: at most one frame per push subscriber. ---
        for p in &pushes {
            if let Some(buf) = bc.pop(p.sub) {
                progressed = true;
                match push_deliver(&registry, &p.url, &buf) {
                    Ok(()) => bc.mark_delivered(&buf),
                    Err(_) => bc.mark_shed(1),
                }
            }
        }

        if !progressed {
            std::thread::sleep(SWEEP_PAUSE);
        }
    }

    // Shutdown: every in-flight frame and queued entry is shed, every
    // subscriber unregistered — nothing goes unaccounted.
    for conn in conns.drain(..) {
        close_conn(conn, &bc);
    }
    for p in pushes.drain(..) {
        bc.unsubscribe(p.sub);
    }
}

fn close_conn(conn: Conn, bc: &Broadcaster) {
    if let ConnState::Streaming { sub, inflight } = conn.state {
        if inflight.is_some() {
            bc.mark_shed(1);
        }
        bc.unsubscribe(sub);
    }
}

enum StepOutcome {
    Keep { moved: bool },
    Close,
}

fn step_conn(
    conn: &mut Conn,
    bc: &Broadcaster,
    pushes: &mut Vec<PushSub>,
) -> StepOutcome {
    match &mut conn.state {
        ConnState::Handshake { buf, since } => {
            if since.elapsed() > HANDSHAKE_DEADLINE {
                return StepOutcome::Close;
            }
            let mut chunk = [0u8; 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return StepOutcome::Close,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return StepOutcome::Close,
                }
            }
            if buf.len() < 8 {
                return StepOutcome::Keep { moved: false };
            }
            let len = u64::from_be_bytes(buf[..8].try_into().unwrap());
            if len > MAX_SUBSCRIBE_FRAME {
                write_refusal(&mut conn.stream, RefuseReason::BadSubscribe);
                bc.count_refused();
                return StepOutcome::Close;
            }
            let len = len as usize;
            if buf.len() < 8 + len {
                return StepOutcome::Keep { moved: false };
            }
            match decode_msg(&buf[8..8 + len]) {
                Ok(ServeMsg::Subscribe(Subscribe { filter, mode, deliver_url })) => {
                    let Some(sub) = bc.subscribe(filter, mode) else {
                        write_refusal(&mut conn.stream, RefuseReason::BadFilter);
                        bc.count_refused();
                        return StepOutcome::Close;
                    };
                    match deliver_url {
                        Some(url) => {
                            // Push mode: the control connection has done
                            // its job; deliveries go to the endpoint.
                            pushes.push(PushSub { sub, url });
                            StepOutcome::Close
                        }
                        None => {
                            conn.state = ConnState::Streaming { sub, inflight: None };
                            StepOutcome::Keep { moved: true }
                        }
                    }
                }
                Ok(_) | Err(_) => {
                    write_refusal(&mut conn.stream, RefuseReason::BadSubscribe);
                    bc.count_refused();
                    StepOutcome::Close
                }
            }
        }
        ConnState::Streaming { sub, inflight } => {
            // Liveness probe: a subscriber never speaks after its
            // handshake, so any readable event is either EOF (the reader
            // went away — release its cap slot) or a protocol violation;
            // both close the connection.
            let mut probe = [0u8; 64];
            match conn.stream.read(&mut probe) {
                Ok(_) => return StepOutcome::Close,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return StepOutcome::Close,
            }
            if inflight.is_none() {
                if let Some(body) = bc.pop(*sub) {
                    let mut prefix = [0u8; 8];
                    prefix.copy_from_slice(&(body.bytes.len() as u64).to_be_bytes());
                    *inflight = Some(InFlight { prefix, prefix_off: 0, body, body_off: 0 });
                }
            }
            if inflight.is_none() {
                return StepOutcome::Keep { moved: false };
            }
            let mut moved = false;
            {
                let fl = inflight.as_mut().expect("inflight checked above");
                loop {
                    let res = if fl.prefix_off < 8 {
                        conn.stream.write(&fl.prefix[fl.prefix_off..])
                    } else if fl.body_off < fl.body.bytes.len() {
                        conn.stream.write(&fl.body.bytes[fl.body_off..])
                    } else {
                        break; // frame fully written
                    };
                    match res {
                        Ok(0) => return StepOutcome::Close,
                        Ok(n) => {
                            if fl.prefix_off < 8 {
                                fl.prefix_off += n;
                            } else {
                                fl.body_off += n;
                            }
                            moved = true;
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return StepOutcome::Keep { moved };
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return StepOutcome::Close,
                    }
                }
            }
            let done = inflight.take().expect("inflight present");
            bc.mark_delivered(&done.body);
            StepOutcome::Keep { moved: true }
        }
    }
}

/// One-shot push delivery: connect to the (possibly proxied) endpoint and
/// write the buffer as a single length-prefixed frame.
fn push_deliver(registry: &EndpointRegistry, url: &str, buf: &QueuedBuf) -> Result<(), MwError> {
    let addr = registry.resolve(url)?;
    let mut conn = TcpStream::connect(addr)?;
    conn.set_write_timeout(Some(Duration::from_secs(5)))?;
    pgse_medici::framing::write_frame(&mut conn, &buf.bytes)?;
    Ok(())
}

/// Why a [`RemoteReader`] failed to produce the next message.
#[derive(Debug)]
pub enum ReadError {
    /// Socket-level failure or timeout.
    Transport(MwError),
    /// The frame arrived but did not decode.
    Wire(ServeWireError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Transport(e) => write!(f, "transport: {e}"),
            ReadError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A blocking streamed-mode client: subscribes over one connection and
/// reads framed PGSS messages off it — what the conformance tests, the
/// bench's socket phase, and the example readers use.
#[derive(Debug)]
pub struct RemoteReader {
    conn: TcpStream,
}

impl RemoteReader {
    /// Connects to the server endpoint and sends the subscribe handshake.
    ///
    /// # Errors
    /// [`MwError`] when the endpoint is unknown or the socket fails.
    pub fn connect(
        registry: &EndpointRegistry,
        server_url: &str,
        subscribe: Subscribe,
    ) -> Result<RemoteReader, MwError> {
        let addr = registry.resolve(server_url)?;
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true).ok();
        pgse_medici::framing::write_frame(&mut conn, &encode_msg(&ServeMsg::Subscribe(subscribe)))?;
        Ok(RemoteReader { conn })
    }

    /// Reads the next message, waiting at most `deadline`.
    ///
    /// # Errors
    /// [`ReadError::Transport`] on timeout/EOF/socket failure,
    /// [`ReadError::Wire`] when the frame does not decode.
    pub fn next_within(&mut self, deadline: Duration) -> Result<ServeMsg, ReadError> {
        self.conn
            .set_read_timeout(Some(deadline))
            .map_err(|e| ReadError::Transport(e.into()))?;
        let body = pgse_medici::framing::read_frame(&mut self.conn).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                ReadError::Transport(MwError::Timeout { what: "read", after: deadline })
            } else {
                ReadError::Transport(e.into())
            }
        })?;
        decode_msg(&body).map_err(ReadError::Wire)
    }
}

/// Forwards every new epoch of `store` into `bc` until `stop` is raised;
/// returns the number of epochs forwarded. Run this in a (scoped) thread
/// beside the streaming service — the serve-side wiring onto
/// [`pgse_stream::StreamService::store`].
pub fn tail_store(
    store: &SnapshotStore,
    bc: &Broadcaster,
    stop: &AtomicBool,
    poll: Duration,
) -> u64 {
    let mut last: Option<u64> = None;
    let mut forwarded = 0u64;
    while !stop.load(Ordering::SeqCst) {
        if store.current_epoch() != last {
            if let Some(snap) = store.load() {
                // `load` may race past `current_epoch`; only strictly
                // newer epochs go out (the broadcaster insists).
                if last.is_none_or(|l| snap.epoch > l) {
                    last = Some(snap.epoch);
                    bc.publish(&snap);
                    forwarded += 1;
                    continue;
                }
            }
        }
        std::thread::sleep(poll);
    }
    forwarded
}
