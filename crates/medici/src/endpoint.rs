//! Endpoint URLs and the deployment registry.
//!
//! The paper identifies every state estimator and data source by a URL
//! ("each state estimator or data source is uniquely identified by a URL",
//! §IV-A) such as `tcp://nwiceb.pnl.gov:6789`. The prototype keeps those
//! names as the addressing scheme and maps each one to a live loopback
//! socket through the [`EndpointRegistry`] — the single point where the
//! simulated deployment differs from the laboratory testbed.

use std::collections::HashMap;
use std::ffi::{c_int, c_short, c_ulong};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::MwError;

/// How long a receive loop that its owner wakes (the pipeline routers,
/// the fault proxies) parks between looks at its stop flag. The owner's
/// `shutdown` does not wait this out: it sets the flag and then calls
/// [`wake_acceptor`], so the bound is only what a *missed* wake would
/// cost — long enough that an idle loop makes no measurable wake-ups.
pub(crate) const OWNER_WOKEN_PARK: Duration = Duration::from_secs(5);

/// A parsed `tcp://host:port` endpoint name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EndpointUrl {
    /// Host name as written (a logical name; resolution goes through the
    /// registry, not DNS).
    pub host: String,
    /// Port as written (part of the logical name).
    pub port: u16,
}

impl EndpointUrl {
    /// Parses `tcp://host:port`.
    ///
    /// # Errors
    /// [`MwError::BadUrl`] on anything else.
    pub fn parse(url: &str) -> Result<Self, MwError> {
        let rest = url
            .strip_prefix("tcp://")
            .ok_or_else(|| MwError::BadUrl(url.to_string()))?;
        let (host, port) = rest
            .rsplit_once(':')
            .ok_or_else(|| MwError::BadUrl(url.to_string()))?;
        if host.is_empty() {
            return Err(MwError::BadUrl(url.to_string()));
        }
        let port: u16 = port.parse().map_err(|_| MwError::BadUrl(url.to_string()))?;
        if port == 0 {
            // Port 0 is "any ephemeral port" to the OS — never a routable
            // logical endpoint name.
            return Err(MwError::BadUrl(url.to_string()));
        }
        Ok(EndpointUrl { host: host.to_string(), port })
    }

    /// The canonical string form.
    pub fn to_url_string(&self) -> String {
        format!("tcp://{}:{}", self.host, self.port)
    }
}

/// Maps logical endpoint URLs to live loopback socket addresses.
///
/// Cloning is cheap (shared state): every component of the deployment holds
/// the same registry, exactly like a name service.
#[derive(Debug, Clone, Default)]
pub struct EndpointRegistry {
    /// Canonical URL string ([`EndpointUrl::to_url_string`]) → address.
    inner: Arc<Mutex<HashMap<String, SocketAddr>>>,
}

impl EndpointRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a fresh loopback listener for `url` and records the mapping.
    /// Returns the listener the endpoint's owner should serve on.
    ///
    /// # Errors
    /// [`MwError::BadUrl`] for malformed URLs, [`MwError::Io`] when the
    /// bind fails.
    pub fn bind(&self, url: &str) -> Result<TcpListener, MwError> {
        let parsed = EndpointUrl::parse(url)?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        self.inner.lock().insert(parsed.to_url_string(), addr);
        Ok(listener)
    }

    /// Resolves a logical URL to its live socket address.
    ///
    /// Every send resolves its URL (a restarted endpoint re-registers
    /// under a new address), so a URL already in canonical form is looked
    /// up as written, without parsing or allocating.
    ///
    /// # Errors
    /// [`MwError::UnknownEndpoint`] when the URL was never bound.
    pub fn resolve(&self, url: &str) -> Result<SocketAddr, MwError> {
        if let Some(&addr) = self.inner.lock().get(url) {
            return Ok(addr);
        }
        let canonical = EndpointUrl::parse(url)?.to_url_string();
        self.inner
            .lock()
            .get(&canonical)
            .copied()
            .ok_or_else(|| MwError::UnknownEndpoint(url.to_string()))
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Accepts one connection within `deadline` — the one-shot receivers'
/// accept. The listener is left non-blocking; the accepted stream is
/// switched back to blocking mode.
///
/// Between non-blocking `accept()` attempts the caller waits in `poll(2)`
/// on the listener for what is left of the deadline, so a connection
/// wakes its acceptor at once and an idle acceptor makes one wake-up per
/// deadline. (Session receivers wait the same way on their listener and
/// every held connection at once: [`crate::inbox::Inbox`].)
///
/// # Errors
/// [`MwError::Timeout`] once the deadline has expired (never earlier),
/// [`MwError::Io`] on socket failure.
pub fn accept_polled(listener: &TcpListener, deadline: Duration) -> Result<TcpStream, MwError> {
    listener.set_nonblocking(true)?;
    let start = Instant::now();
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                conn.set_nonblocking(false)?;
                return Ok(conn);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let left = deadline.saturating_sub(start.elapsed());
                if left.is_zero() {
                    return Err(MwError::Timeout { what: "accept", after: deadline });
                }
                wait_readable(listener, left)?;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `fd` becoming readable. On a listener that means a
    /// pending connection; on a stream, bytes, EOF or a reset.
    pub(crate) fn readable(fd: &impl AsRawFd) -> Self {
        PollFd { fd: fd.as_raw_fd(), events: POLLIN | POLLRDHUP, revents: 0 }
    }

    /// True when the last [`poll_fds`] reported any event on the fd
    /// (readiness, hang-up or error alike).
    pub(crate) fn fired(&self) -> bool {
        self.revents != 0
    }

}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// `POLLIN`: on a listening socket, a connection is pending; on a stream,
/// bytes (or EOF) can be read.
const POLLIN: c_short = 0x001;

/// `POLLRDHUP` (Linux): the peer shut down its writing half.
const POLLRDHUP: c_short = 0x2000;

/// Parks the calling thread in one `poll(2)` over every descriptor in
/// `fds` until one of them fires or `timeout` has passed (whole
/// milliseconds, rounded up so the wait never ends before the caller's
/// deadline), then leaves each entry's events in its `revents`. Returning
/// says nothing about which happened: the timeout and an interrupting
/// signal both leave every entry unfired, and the caller recomputes what
/// is left of its deadline either way.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
    let millis = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    // SAFETY: `fds` is a valid, writable slice of `pollfd` records for the
    // duration of the call and `nfds` is its length, so `poll` reads and
    // writes nothing else; every descriptor in it is owned by a socket the
    // caller borrows across the call, so none is closed underneath it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Parks until `listener` has a pending connection or `timeout` passed;
/// see [`poll_fds`].
fn wait_readable(listener: &TcpListener, timeout: Duration) -> std::io::Result<()> {
    poll_fds(&mut [PollFd::readable(listener)], timeout)
}

/// True when a held outbound stream can no longer carry a frame: its peer
/// closed or reset it. Receivers never write, so any readiness on the
/// sender's side of the connection is EOF, a reset or an error. One
/// zero-timeout `poll(2)`, run before every write on a held connection,
/// so a frame is never written into a socket the peer has already closed
/// (where the peer's reset would discard it).
pub(crate) fn peer_closed(stream: &TcpStream) -> bool {
    let mut fd = [PollFd::readable(stream)];
    poll_fds(&mut fd, Duration::ZERO).is_err() || fd[0].fired()
}

/// Wakes a loop parked on the listener at `addr` with one throwaway
/// loopback connection. The connection queues in the backlog, so a loop
/// that read its stop flag just before the owner set it still finds it
/// on its next poll; it carries no frame, so the loop's
/// [`crate::inbox::Inbox`] sees a clean close (no arrival) and the loop
/// re-reads the flag. Failure is ignored: a listener that is already
/// gone needs no wake.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// A non-blocking, capacity-limited accept over an owned listener.
///
/// The listener is kept non-blocking for its whole life. A sweep-style
/// server calls [`Acceptor::try_accept`] once per loop iteration, which
/// never waits, so its shutdown latency is bounded by the sweep period —
/// the serve reactor depends on this. The optional
/// connection cap turns overload into a *typed refusal*
/// ([`MwError::ConnLimit`]) instead of an unbounded backlog.
#[derive(Debug)]
pub struct Acceptor {
    listener: TcpListener,
    limit: Option<usize>,
}

impl Acceptor {
    /// Wraps `listener` (switched to non-blocking) with no connection cap.
    ///
    /// # Errors
    /// [`MwError::Io`] when the non-blocking switch fails.
    pub fn new(listener: TcpListener) -> Result<Self, MwError> {
        listener.set_nonblocking(true)?;
        Ok(Acceptor { listener, limit: None })
    }

    /// Wraps `listener` with a cap on concurrently open connections.
    ///
    /// # Errors
    /// [`MwError::Io`] when the non-blocking switch fails.
    pub fn with_limit(listener: TcpListener, limit: usize) -> Result<Self, MwError> {
        let mut a = Acceptor::new(listener)?;
        a.limit = Some(limit);
        Ok(a)
    }

    /// The configured connection cap, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// The listener's live socket address.
    ///
    /// # Errors
    /// [`MwError::Io`] when the address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr, MwError> {
        Ok(self.listener.local_addr()?)
    }

    /// One non-blocking accept poll. `open` is the number of connections
    /// the caller currently has open against this acceptor.
    ///
    /// * `Ok(Some(stream))` — a connection was accepted (the stream stays
    ///   non-blocking, ready for a sweep-style reactor);
    /// * `Ok(None)` — nothing pending;
    /// * `Err(ConnLimit)` — a connection was pending but `open` has
    ///   reached the cap. The pending connection is accepted, handed to
    ///   `refuse` (best-effort goodbye — write a refusal frame, or
    ///   nothing), and closed.
    ///
    /// # Errors
    /// [`MwError::ConnLimit`] as above, [`MwError::Io`] on socket failure.
    pub fn try_accept(
        &self,
        open: usize,
        refuse: impl FnOnce(&mut TcpStream),
    ) -> Result<Option<TcpStream>, MwError> {
        match self.listener.accept() {
            Ok((mut conn, _)) => {
                if let Some(limit) = self.limit {
                    if open >= limit {
                        refuse(&mut conn);
                        drop(conn);
                        return Err(MwError::ConnLimit { limit });
                    }
                }
                Ok(Some(conn))
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_urls() {
        let u = EndpointUrl::parse("tcp://nwiceb.pnl.gov:6789").unwrap();
        assert_eq!(u.host, "nwiceb.pnl.gov");
        assert_eq!(u.port, 6789);
        assert_eq!(u.to_url_string(), "tcp://nwiceb.pnl.gov:6789");
    }

    #[test]
    fn rejects_malformed_urls() {
        for bad in ["http://x:1", "tcp://", "tcp://host", "tcp://host:notaport", "tcp://:5"] {
            assert!(EndpointUrl::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn bind_then_resolve() {
        let reg = EndpointRegistry::new();
        let listener = reg.bind("tcp://chinook.emsl.pnl.gov:7890").unwrap();
        let addr = reg.resolve("tcp://chinook.emsl.pnl.gov:7890").unwrap();
        assert_eq!(addr, listener.local_addr().unwrap());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn unknown_endpoint_errors() {
        let reg = EndpointRegistry::new();
        assert!(matches!(
            reg.resolve("tcp://nowhere:1"),
            Err(MwError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn registry_clones_share_state() {
        let reg = EndpointRegistry::new();
        let clone = reg.clone();
        let _l = reg.bind("tcp://a:1").unwrap();
        assert!(clone.resolve("tcp://a:1").is_ok());
    }

    #[test]
    fn distinct_urls_get_distinct_ports() {
        let reg = EndpointRegistry::new();
        let _a = reg.bind("tcp://a:1").unwrap();
        let _b = reg.bind("tcp://b:1").unwrap();
        assert_ne!(reg.resolve("tcp://a:1").unwrap(), reg.resolve("tcp://b:1").unwrap());
    }

    #[test]
    fn try_accept_returns_none_when_nothing_pending() {
        let reg = EndpointRegistry::new();
        let acceptor = Acceptor::new(reg.bind("tcp://idle:1").unwrap()).unwrap();
        assert!(acceptor.try_accept(0, |_| {}).unwrap().is_none());
    }

    #[test]
    fn accept_polled_returns_a_connection_made_before_the_call() {
        let reg = EndpointRegistry::new();
        let listener = reg.bind("tcp://early:1").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = accept_polled(&listener, Duration::from_secs(5)).unwrap();
        assert_eq!(conn.peer_addr().unwrap(), peer.local_addr().unwrap());
    }

    #[test]
    fn accept_polled_is_woken_by_a_connection_from_another_thread() {
        let reg = EndpointRegistry::new();
        let listener = reg.bind("tcp://late:1").unwrap();
        let addr = listener.local_addr().unwrap();
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let peer = s.spawn(|| {
                go.wait();
                TcpStream::connect(addr).unwrap()
            });
            go.wait();
            // Parked or not yet parked when the peer connects: either way
            // the connection is returned, and is the peer's.
            let conn = accept_polled(&listener, Duration::from_secs(5)).unwrap();
            let peer = peer.join().unwrap();
            assert_eq!(conn.peer_addr().unwrap(), peer.local_addr().unwrap());
        });
    }

    #[test]
    fn connection_cap_refuses_with_typed_error() {
        let reg = EndpointRegistry::new();
        let acceptor = Acceptor::with_limit(reg.bind("tcp://capped:1").unwrap(), 1).unwrap();
        let addr = acceptor.local_addr().unwrap();

        let first = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            if let Some(c) = acceptor.try_accept(0, |_| {}).unwrap() {
                break c;
            }
            assert!(Instant::now() < deadline, "accept never fired");
            std::thread::sleep(Duration::from_millis(1));
        };

        // A second connection while one is open hits the cap: the typed
        // refusal names the limit and the socket is closed under the peer.
        let mut second = TcpStream::connect(addr).unwrap();
        let refused = loop {
            match acceptor.try_accept(1, |_| {}) {
                Ok(Some(_)) => panic!("cap ignored"),
                Ok(None) => {
                    assert!(Instant::now() < deadline, "refusal never fired");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break e,
            }
        };
        assert!(matches!(refused, MwError::ConnLimit { limit: 1 }));
        // The refused peer observes EOF (read returns 0) rather than a hang.
        second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let n = std::io::Read::read(&mut second, &mut buf).unwrap_or(0);
        assert_eq!(n, 0, "refused connection was not closed");

        drop(first);
        drop(accepted);
    }
}
