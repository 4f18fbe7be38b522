//! The receive side of a session: one listener plus every connection it
//! has accepted, served from one `poll(2)`.
//!
//! A sender holds one connection per endpoint and writes frame after
//! frame on it ([`crate::MwClient`]); an [`Inbox`] keeps each accepted
//! connection and reads frames from it until EOF. There is no thread per
//! connection: the listener and every held connection share one
//! multi-fd wait, sockets are non-blocking, and each connection
//! assembles its frames in a buffer of its own, so a frame that arrives
//! in pieces neither blocks the others nor is lost between calls. Frames
//! already read but not yet taken stay queued for the next call.
//!
//! What ends a connection decides what it counts:
//!
//! * a clean close at a frame boundary counts nothing — a wake
//!   connection, or a sender that is done;
//! * a close or reset inside a frame (truncation), a length prefix above
//!   [`MAX_FRAME`], or a partial frame that makes no progress for the
//!   inbox's stall budget, is one [`Arrival::Corrupt`], and the
//!   connection is dropped; the sender sees the close before its next
//!   write and dials again.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::endpoint::{poll_fds, PollFd};
use crate::framing::MAX_FRAME;
use crate::MwError;

/// A completed frame at least this large is handed over in the receive
/// buffer it arrived in rather than copied out of it.
const HANDOVER_MIN: usize = 64 << 10;

/// Above this capacity an emptied receive buffer is given back, so one
/// large frame does not pin its memory for the connection's lifetime.
const MAX_IDLE_BUF: usize = 1 << 20;

/// What an [`Inbox`] took in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arrival {
    /// One complete frame body.
    Frame(Vec<u8>),
    /// A connection that ended inside a frame, announced an oversized
    /// frame, or stalled mid-frame past the stall budget.
    Corrupt,
}

/// One accepted connection and its partial frame.
#[derive(Debug)]
struct Held {
    stream: TcpStream,
    /// Received bytes not yet taken live in `buf[start..]`.
    buf: Vec<u8>,
    start: usize,
    /// Last time bytes arrived; a partial frame older than the stall
    /// budget is corrupt.
    progress: Instant,
}

/// How a read pass left a connection.
enum Status {
    Open,
    /// Closed by the peer or failed; `corrupt` when a frame was cut.
    Closed { corrupt: bool },
}

impl Held {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Held { stream, buf: Vec::new(), start: 0, progress: now }
    }

    /// True while a frame's bytes have started to arrive but not ended.
    fn partial(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Reads everything the socket has ready — up to `WouldBlock` or EOF,
    /// so a close queued behind the bytes is seen in the same pass —
    /// queueing each completed frame on `out`.
    fn read_ready(&mut self, out: &mut VecDeque<Arrival>, now: Instant) -> Status {
        let before = self.buf.len();
        // `read_to_end` appends into spare capacity without zero-filling
        // it, and keeps what it read when it stops on an error.
        let read = (&self.stream).read_to_end(&mut self.buf);
        if self.buf.len() > before {
            self.progress = now;
            if !self.extract(out) {
                return Status::Closed { corrupt: true };
            }
        }
        match read {
            Ok(_) => Status::Closed { corrupt: self.partial() },
            Err(ref e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) =>
            {
                Status::Open
            }
            Err(_) => Status::Closed { corrupt: self.partial() },
        }
    }

    /// Queues every complete frame at the front of the buffer and reserves
    /// room for the one still arriving. False on a length prefix above
    /// [`MAX_FRAME`]: the stream cannot be resynced.
    fn extract(&mut self, out: &mut VecDeque<Arrival>) -> bool {
        while let Some(len) = self.announced() {
            if len > MAX_FRAME {
                return false;
            }
            let total = 8 + len as usize;
            let have = self.buf.len() - self.start;
            if have < total {
                // Capacity only: pages are touched as the bytes arrive.
                self.buf.reserve(total - have);
                break;
            }
            if self.start == 0 && have == total && total >= HANDOVER_MIN {
                // A large frame alone in the buffer: hand the buffer over.
                let mut body = std::mem::take(&mut self.buf);
                body.drain(..8);
                out.push_back(Arrival::Frame(body));
                break;
            }
            out.push_back(Arrival::Frame(self.buf[self.start + 8..self.start + total].to_vec()));
            self.start += total;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            if self.buf.capacity() > MAX_IDLE_BUF {
                self.buf = Vec::new();
            }
        } else if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        true
    }

    /// The length prefix of the frame at the front, once all 8 bytes are in.
    fn announced(&self) -> Option<u64> {
        let head = self.buf.get(self.start..self.start + 8)?;
        Some(u64::from_be_bytes(head.try_into().expect("8 bytes")))
    }
}

/// A session receiver: a listener and its held connections (see module
/// docs).
#[derive(Debug)]
pub struct Inbox {
    listener: TcpListener,
    conns: Vec<Held>,
    arrivals: VecDeque<Arrival>,
    /// How long a partial frame may go without progress.
    stall: Duration,
    /// The last wait's poll set: the listener, then `conns` in order.
    /// Empty when no wait has run since the connections last changed.
    polled: Vec<PollFd>,
}

impl Inbox {
    /// Serves `listener` (switched to non-blocking); a partial frame that
    /// makes no progress for `stall` is corrupt.
    ///
    /// # Errors
    /// [`MwError::Io`] when the non-blocking switch fails.
    pub fn new(listener: TcpListener, stall: Duration) -> Result<Self, MwError> {
        listener.set_nonblocking(true)?;
        Ok(Inbox {
            listener,
            conns: Vec::new(),
            arrivals: VecDeque::new(),
            stall,
            polled: Vec::new(),
        })
    }

    /// The listener's live socket address.
    ///
    /// # Errors
    /// [`MwError::Io`] when the address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr, MwError> {
        Ok(self.listener.local_addr()?)
    }

    /// Connections currently held open.
    pub fn held(&self) -> usize {
        self.conns.len()
    }

    /// True while some held connection has a frame partly received.
    pub fn pending(&self) -> bool {
        self.conns.iter().any(Held::partial)
    }

    /// The oldest queued arrival; otherwise waits at most `timeout` in one
    /// `poll(2)` over the listener and every held connection, takes in
    /// whatever is ready, and returns the oldest arrival. `None` when the
    /// wait ended without one — it timed out, or the activity completed
    /// no frame (a new connection, a clean close, part of a frame), which
    /// lets a loop re-read its stop flag on every wake. A zero `timeout`
    /// still takes in what is already there.
    pub fn next(&mut self, timeout: Duration) -> Option<Arrival> {
        if let Some(a) = self.arrivals.pop_front() {
            return Some(a);
        }
        if self.wait(timeout).is_ok() {
            self.take_in();
        }
        self.arrivals.pop_front()
    }

    /// Waits until `deadline` for the next arrival. Past the deadline it
    /// still takes in what is already there once, so a collection that
    /// starts late loses nothing that has arrived.
    pub fn recv_until(&mut self, deadline: Instant) -> Option<Arrival> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if let Some(a) = self.next(left) {
                return Some(a);
            }
            if left.is_zero() {
                return None;
            }
        }
    }

    /// One `poll(2)` over the listener and every held connection, bounded
    /// by `timeout` and by the earliest stall expiry.
    fn wait(&mut self, timeout: Duration) -> std::io::Result<()> {
        let now = Instant::now();
        let timeout = self
            .conns
            .iter()
            .filter(|c| c.partial())
            .map(|c| (c.progress + self.stall).saturating_duration_since(now))
            .fold(timeout, Duration::min);
        self.polled.clear();
        self.polled.push(PollFd::readable(&self.listener));
        self.polled.extend(self.conns.iter().map(|c| PollFd::readable(&c.stream)));
        poll_fds(&mut self.polled, timeout)
    }

    /// Reads every connection the last wait found ready, retires closed
    /// and stalled ones, then accepts what is pending on the listener.
    fn take_in(&mut self) {
        let now = Instant::now();
        let Inbox { conns, arrivals, stall, polled, listener } = self;
        let mut fired = polled.iter().skip(1);
        conns.retain_mut(|c| {
            let status = match fired.next() {
                Some(fd) if fd.fired() => c.read_ready(arrivals, now),
                _ => Status::Open,
            };
            let status = match status {
                Status::Open if c.partial() && now.duration_since(c.progress) >= *stall => {
                    Status::Closed { corrupt: true }
                }
                s => s,
            };
            match status {
                Status::Open => true,
                Status::Closed { corrupt } => {
                    if corrupt {
                        arrivals.push_back(Arrival::Corrupt);
                    }
                    false
                }
            }
        });
        if polled.first().is_some_and(PollFd::fired) {
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // A sender writes right after its connect: read now rather
                // than after another wait.
                let mut held = Held::new(stream, now);
                match held.read_ready(arrivals, now) {
                    Status::Open => conns.push(held),
                    Status::Closed { corrupt } => {
                        if corrupt {
                            arrivals.push_back(Arrival::Corrupt);
                        }
                    }
                }
            }
        }
        polled.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::write_frame;
    use std::io::Write;

    fn inbox(stall: Duration) -> (Inbox, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (Inbox::new(listener, stall).unwrap(), addr)
    }

    fn recv(inbox: &mut Inbox) -> Option<Arrival> {
        inbox.recv_until(Instant::now() + Duration::from_secs(5))
    }

    #[test]
    fn one_connection_carries_many_frames_and_stays_held() {
        let (mut inbox, addr) = inbox(Duration::from_secs(5));
        let mut conn = TcpStream::connect(addr).unwrap();
        for i in 0..50u8 {
            write_frame(&mut conn, &[i; 100]).unwrap();
        }
        for i in 0..50u8 {
            assert_eq!(recv(&mut inbox), Some(Arrival::Frame(vec![i; 100])));
        }
        assert_eq!(inbox.held(), 1);
        drop(conn);
        // A clean close at a frame boundary counts nothing.
        assert_eq!(inbox.recv_until(Instant::now() + Duration::from_millis(50)), None);
        assert_eq!(inbox.held(), 0);
    }

    #[test]
    fn a_frame_larger_than_the_buffer_arrives_whole() {
        let (mut inbox, addr) = inbox(Duration::from_secs(5));
        let body: Vec<u8> = (0..3 * HANDOVER_MIN + 17).map(|i| i as u8).collect();
        let sent = body.clone();
        let writer = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            write_frame(&mut conn, &sent).unwrap();
            write_frame(&mut conn, b"after").unwrap();
        });
        assert_eq!(recv(&mut inbox), Some(Arrival::Frame(body)));
        assert_eq!(recv(&mut inbox), Some(Arrival::Frame(b"after".to_vec())));
        writer.join().unwrap();
    }

    #[test]
    fn a_cut_frame_is_corrupt_and_other_connections_are_unaffected() {
        let (mut inbox, addr) = inbox(Duration::from_secs(5));
        let mut good = TcpStream::connect(addr).unwrap();
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&100u64.to_be_bytes()).unwrap();
        bad.write_all(b"oops").unwrap();
        drop(bad);
        write_frame(&mut good, b"fine").unwrap();
        let mut got = vec![recv(&mut inbox).unwrap(), recv(&mut inbox).unwrap()];
        got.sort_by_key(|a| matches!(a, Arrival::Frame(_)));
        assert_eq!(got, vec![Arrival::Corrupt, Arrival::Frame(b"fine".to_vec())]);
    }

    #[test]
    fn a_stalled_partial_frame_is_corrupt_after_the_stall_budget() {
        let (mut inbox, addr) = inbox(Duration::from_millis(60));
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(&64u64.to_be_bytes()).unwrap();
        let start = Instant::now();
        assert_eq!(recv(&mut inbox), Some(Arrival::Corrupt));
        assert!(start.elapsed() >= Duration::from_millis(50), "{:?}", start.elapsed());
        assert_eq!(inbox.held(), 0);
        // The reader closed it: the stalled sender sees EOF.
        stalled.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(stalled.read(&mut [0u8; 1]).unwrap_or(0), 0);
    }

    #[test]
    fn an_idle_held_connection_is_not_corrupt() {
        let (mut inbox, addr) = inbox(Duration::from_millis(20));
        let mut conn = TcpStream::connect(addr).unwrap();
        assert_eq!(inbox.recv_until(Instant::now() + Duration::from_millis(80)), None);
        assert_eq!(inbox.held(), 1);
        write_frame(&mut conn, b"later").unwrap();
        assert_eq!(recv(&mut inbox), Some(Arrival::Frame(b"later".to_vec())));
    }

    #[test]
    fn an_oversized_prefix_is_corrupt_without_allocating_it() {
        let (mut inbox, addr) = inbox(Duration::from_secs(5));
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&(1u64 << 62).to_be_bytes()).unwrap();
        conn.write_all(b"whatever").unwrap();
        assert_eq!(recv(&mut inbox), Some(Arrival::Corrupt));
    }

    #[test]
    fn a_wake_connection_returns_next_without_an_arrival() {
        let (mut inbox, addr) = inbox(Duration::from_secs(5));
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(TcpStream::connect(addr).unwrap());
        });
        let start = Instant::now();
        // Parked for up to 5 s, the wait ends on the connection.
        assert_eq!(inbox.next(Duration::from_secs(5)), None);
        assert!(start.elapsed() < Duration::from_secs(2), "{:?}", start.elapsed());
        waker.join().unwrap();
    }

    #[test]
    fn frames_read_together_stay_queued_for_the_next_call() {
        let (mut inbox, addr) = inbox(Duration::from_secs(5));
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut burst = Vec::new();
        for body in [b"a", b"b", b"c"] {
            write_frame(&mut burst, body).unwrap();
        }
        conn.write_all(&burst).unwrap();
        assert_eq!(recv(&mut inbox), Some(Arrival::Frame(b"a".to_vec())));
        // The rest were read in the same pass: no wait needed.
        assert_eq!(inbox.next(Duration::ZERO), Some(Arrival::Frame(b"b".to_vec())));
        assert_eq!(inbox.next(Duration::ZERO), Some(Arrival::Frame(b"c".to_vec())));
    }
}
