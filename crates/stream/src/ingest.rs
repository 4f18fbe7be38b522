//! The ingest layer: bounded per-area frame queues with explicit
//! backpressure.
//!
//! A continuous service cannot solve every scan when the field outpaces
//! the solver, and it must never *silently* lose data either. The policy
//! here is **latest-wins with full accounting**: each area owns one
//! bounded [`IngestQueue`]; a frame that arrives is either accepted or
//! *shed* for a recorded reason, and a frame that is accepted is either
//! handed to the solver or shed later when a fresher frame supersedes it.
//! The invariant the service asserts end-to-end is
//!
//! ```text
//! ingested + requeued == solved + shed(stale) + shed(overflow) + shed(superseded)
//! ```
//!
//! The `requeued` leg exists for supervision: when a worker is killed
//! after popping a frame but before solving it, the supervisor puts the
//! frame back ([`IngestQueue::requeue`]) so it is solved after recovery
//! instead of vanishing. A requeue is *not* a new ingest — it re-enters a
//! frame already counted — so it carries its own counter and the identity
//! widens accordingly (`requeued == 0` whenever no worker ever died
//! mid-frame, collapsing back to the original identity).
//!
//! Sequencing: a frame whose sequence number is not strictly greater than
//! the last accepted one is shed as *stale* — out-of-order and duplicate
//! deliveries (the fault proxy produces both) can therefore never push
//! the solver backwards in time, which is the first half of the snapshot
//! epoch-monotonicity guarantee (the second half lives in
//! [`crate::snapshot::SnapshotStore::publish`]).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::wire::StreamFrame;

/// Why the queue refused or discarded a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Sequence number not newer than the last accepted frame
    /// (duplicate or out-of-order delivery).
    Stale,
    /// The bounded queue was full; the *oldest* queued frame was evicted
    /// to make room (the new frame is fresher).
    Overflow,
    /// A fresher frame was taken instead when the solver drained the
    /// queue (latest-wins), or the queue was drained at shutdown.
    Superseded,
}

/// Accepted/shed accounting for one queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames pushed at the queue (accepted *or* shed).
    pub ingested: u64,
    /// Frames shed as stale.
    pub shed_stale: u64,
    /// Frames shed by bounded-capacity eviction.
    pub shed_overflow: u64,
    /// Frames shed because a fresher frame superseded them.
    pub shed_superseded: u64,
    /// Popped frames put back by the supervisor after a worker died
    /// mid-frame. Each re-enters the solve/shed accounting once more, so
    /// the identity is `ingested + requeued == solved + shed`.
    pub requeued: u64,
}

impl IngestStats {
    /// Total shed frames.
    pub fn shed(&self) -> u64 {
        self.shed_stale + self.shed_overflow + self.shed_superseded
    }

    /// Folds another queue's stats into this one.
    pub fn merge(&mut self, other: &IngestStats) {
        self.ingested += other.ingested;
        self.shed_stale += other.shed_stale;
        self.shed_overflow += other.shed_overflow;
        self.shed_superseded += other.shed_superseded;
        self.requeued += other.requeued;
    }
}

/// Outcome of one [`IngestQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The frame was queued.
    Accepted,
    /// The frame was shed on arrival (the eviction a full queue performs
    /// is reported against the *evicted* frame, not this one).
    Shed(ShedReason),
}

#[derive(Debug)]
struct QueueState {
    /// Pending frames in sequence order, each with its arrival instant
    /// (the start of the frame-latency clock).
    frames: VecDeque<(StreamFrame, Instant)>,
    last_accepted: Option<u64>,
    stats: IngestStats,
    closed: bool,
}

/// A bounded, sequence-checked, latest-wins frame queue for one area.
#[derive(Debug)]
pub struct IngestQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

impl IngestQueue {
    /// Creates a queue holding at most `capacity` pending frames.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ingest queue capacity must be at least 1");
        IngestQueue {
            state: Mutex::new(QueueState {
                frames: VecDeque::with_capacity(capacity),
                last_accepted: None,
                stats: IngestStats::default(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Offers a frame. Stale frames are shed; a full queue evicts its
    /// oldest frame (counted as overflow shed) to accept the fresher one.
    pub fn push(&self, frame: StreamFrame) -> PushOutcome {
        let mut s = self.state.lock().unwrap();
        s.stats.ingested += 1;
        if let Some(last) = s.last_accepted {
            if frame.seq <= last {
                s.stats.shed_stale += 1;
                return PushOutcome::Shed(ShedReason::Stale);
            }
        }
        if s.frames.len() == self.capacity {
            s.frames.pop_front();
            s.stats.shed_overflow += 1;
        }
        s.last_accepted = Some(frame.seq);
        s.frames.push_back((frame, Instant::now()));
        drop(s);
        // `notify_all`: `pop_latest` and `wait_accepted` share the condvar,
        // and a single wake handed to the wrong kind of waiter is lost.
        self.ready.notify_all();
        PushOutcome::Accepted
    }

    /// Puts a previously popped frame back at the *front* of the queue
    /// (it is the oldest in sequence order). Used by the supervisor when a
    /// worker died between popping and solving: the frame re-enters the
    /// accounting via the `requeued` counter, not `ingested`, and
    /// `last_accepted` is untouched (the frame already advanced it when it
    /// first arrived). When the queue is full the fresher queued frames
    /// win and the returned frame is shed as superseded on the spot.
    pub fn requeue(&self, frame: StreamFrame) {
        let mut s = self.state.lock().unwrap();
        s.stats.requeued += 1;
        if s.frames.len() == self.capacity {
            s.stats.shed_superseded += 1;
            return;
        }
        s.frames.push_front((frame, Instant::now()));
        drop(s);
        self.ready.notify_all();
    }

    /// Takes the freshest pending frame, shedding every older queued frame
    /// as superseded. Blocks up to `deadline` for a frame to arrive;
    /// returns `None` on timeout or when the queue is closed and empty.
    /// The returned instant is the frame's arrival time.
    pub fn pop_latest(&self, deadline: Duration) -> Option<(StreamFrame, Instant)> {
        let mut s = self.state.lock().unwrap();
        let end = Instant::now() + deadline;
        while s.frames.is_empty() {
            if s.closed {
                return None;
            }
            let now = Instant::now();
            if now >= end {
                return None;
            }
            let (guard, _) = self.ready.wait_timeout(s, end - now).unwrap();
            s = guard;
        }
        while s.frames.len() > 1 {
            s.frames.pop_front();
            s.stats.shed_superseded += 1;
        }
        s.frames.pop_front()
    }

    /// Parks until the queue has accepted a frame with sequence number
    /// `seq` or newer, for at most `deadline`. Returns whether it has —
    /// `false` means the deadline expired or the queue was closed first.
    /// The predicate is read under the lock [`IngestQueue::push`] updates
    /// it under, so an accept between the check and the park cannot be
    /// missed.
    pub fn wait_accepted(&self, seq: u64, deadline: Duration) -> bool {
        let accepted = |s: &QueueState| s.last_accepted.is_some_and(|last| last >= seq);
        let s = self.state.lock().expect("ingest queue lock poisoned");
        let (s, _) = self
            .ready
            .wait_timeout_while(s, deadline, |s| !s.closed && !accepted(s))
            .expect("ingest queue lock poisoned");
        accepted(&s)
    }

    /// Number of pending frames.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().frames.len()
    }

    /// Marks the queue closed: pending frames stay poppable, blocked and
    /// future `pop_latest` calls return immediately once empty, and a
    /// blocked `wait_accepted` returns.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Sheds every still-pending frame as superseded (shutdown drain, so
    /// the ingest accounting stays exact) and returns how many there were.
    pub fn drain_remaining(&self) -> u64 {
        let mut s = self.state.lock().unwrap();
        let n = s.frames.len() as u64;
        s.frames.clear();
        s.stats.shed_superseded += n;
        n
    }

    /// Snapshot of the queue's accounting.
    pub fn stats(&self) -> IngestStats {
        self.state.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_estimation::measurement::MeasurementSet;

    fn frame(seq: u64) -> StreamFrame {
        StreamFrame::new(0, seq, seq as f64, MeasurementSet::new())
    }

    /// `ingested == popped + shed` must hold for any push/pop interleaving.
    fn assert_accounted(q: &IngestQueue, popped: u64) {
        let st = q.stats();
        assert_eq!(
            st.ingested,
            popped + st.shed() + q.depth() as u64,
            "unaccounted frames: {st:?}"
        );
    }

    #[test]
    fn accepts_in_order_and_pops_latest() {
        let q = IngestQueue::new(8);
        for s in 0..3 {
            assert_eq!(q.push(frame(s)), PushOutcome::Accepted);
        }
        let (f, _) = q.pop_latest(Duration::ZERO).unwrap();
        assert_eq!(f.seq, 2);
        let st = q.stats();
        assert_eq!(st.ingested, 3);
        assert_eq!(st.shed_superseded, 2);
        assert_accounted(&q, 1);
    }

    #[test]
    fn stale_and_duplicate_frames_are_shed() {
        let q = IngestQueue::new(8);
        q.push(frame(5));
        assert_eq!(q.push(frame(5)), PushOutcome::Shed(ShedReason::Stale));
        assert_eq!(q.push(frame(3)), PushOutcome::Shed(ShedReason::Stale));
        assert_eq!(q.push(frame(6)), PushOutcome::Accepted);
        let st = q.stats();
        assert_eq!(st.ingested, 4);
        assert_eq!(st.shed_stale, 2);
        assert_eq!(q.depth(), 2);
        assert_accounted(&q, 0);
    }

    #[test]
    fn overflow_evicts_oldest_never_silently() {
        let q = IngestQueue::new(2);
        q.push(frame(0));
        q.push(frame(1));
        q.push(frame(2)); // evicts seq 0
        assert_eq!(q.depth(), 2);
        assert_eq!(q.stats().shed_overflow, 1);
        let (f, _) = q.pop_latest(Duration::ZERO).unwrap();
        assert_eq!(f.seq, 2);
        assert_eq!(q.stats().shed_superseded, 1); // seq 1 superseded
        assert_accounted(&q, 1);
    }

    #[test]
    fn pop_times_out_on_empty_and_wakes_on_push() {
        let q = IngestQueue::new(4);
        assert!(q.pop_latest(Duration::from_millis(5)).is_none());
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                q.push(frame(0));
            });
            let got = q.pop_latest(Duration::from_secs(5));
            assert_eq!(got.unwrap().0.seq, 0);
        });
    }

    #[test]
    fn close_releases_blocked_pops_and_drain_accounts() {
        let q = IngestQueue::new(4);
        q.push(frame(0));
        q.push(frame(1));
        q.close();
        // Pending frames stay poppable after close...
        assert!(q.pop_latest(Duration::ZERO).is_some());
        // ...and an empty closed queue returns None immediately.
        assert!(q.pop_latest(Duration::from_secs(5)).is_none());

        let q2 = IngestQueue::new(4);
        q2.push(frame(0));
        q2.push(frame(1));
        assert_eq!(q2.drain_remaining(), 2);
        assert_eq!(q2.stats().shed_superseded, 2);
        assert_accounted(&q2, 0);
    }

    #[test]
    fn wait_accepted_returns_at_once_when_the_sequence_is_already_in() {
        let q = IngestQueue::new(4);
        q.push(frame(3));
        // Popping does not un-accept: the predicate is `last_accepted`.
        q.pop_latest(Duration::ZERO).unwrap();
        assert!(q.wait_accepted(3, Duration::ZERO));
        assert!(q.wait_accepted(2, Duration::ZERO));
        assert!(!q.wait_accepted(4, Duration::ZERO));
    }

    #[test]
    fn wait_accepted_times_out_on_an_empty_queue() {
        let q = IngestQueue::new(4);
        let deadline = Duration::from_millis(20);
        let start = Instant::now();
        assert!(!q.wait_accepted(0, deadline));
        assert!(start.elapsed() >= deadline);
    }

    #[test]
    fn wait_accepted_wakes_on_a_push_from_another_thread() {
        let q = IngestQueue::new(4);
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                go.wait();
                q.push(frame(0)); // older than awaited: the waiter parks again
                q.push(frame(1));
            });
            go.wait();
            assert!(q.wait_accepted(1, Duration::from_secs(5)));
        });
    }

    #[test]
    fn close_releases_a_blocked_wait_accepted() {
        let q = IngestQueue::new(4);
        let go = std::sync::Barrier::new(2);
        let deadline = Duration::from_secs(5);
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                go.wait();
                q.close();
            });
            go.wait();
            assert!(!q.wait_accepted(0, deadline));
        });
        // Closed and never accepted: later waits return without parking.
        assert!(!q.wait_accepted(0, deadline));
        // `false` from a timeout would have taken a whole deadline.
        assert!(start.elapsed() < deadline, "close did not wake the wait");
    }

    /// Push *k* → the waiter returns → push *k + 1* → …: every round parks
    /// or finds the frame already in, and a single lost wake-up costs one
    /// whole 5 s deadline — more than all 10 000 rounds may take together.
    #[test]
    fn ten_thousand_round_handoff_loses_no_wakeup() {
        const ROUNDS: u64 = 10_000;
        let per_wait = Duration::from_secs(5);
        let q = IngestQueue::new(2);
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<()>();
        let start = Instant::now();
        std::thread::scope(|s| {
            // Owned by this closure, so a failed assert below hangs up the
            // channel and releases the pusher before the scope joins it.
            let ack_tx = ack_tx;
            let q = &q;
            s.spawn(move || {
                for k in 0..ROUNDS {
                    q.push(frame(k));
                    if ack_rx.recv().is_err() {
                        return;
                    }
                }
            });
            for k in 0..ROUNDS {
                assert!(q.wait_accepted(k, per_wait), "round {k} waited out its deadline");
                assert!(start.elapsed() < per_wait, "a wake-up was lost by round {k}");
                ack_tx.send(()).unwrap();
            }
        });
    }

    #[test]
    fn requeue_reenters_the_frame_without_reingesting_it() {
        let q = IngestQueue::new(4);
        q.push(frame(0));
        q.push(frame(1));
        let (f, _) = q.pop_latest(Duration::ZERO).unwrap(); // seq 1; seq 0 superseded
        assert_eq!(f.seq, 1);
        q.requeue(f);
        let st = q.stats();
        assert_eq!(st.ingested, 2, "requeue must not count as ingest");
        assert_eq!(st.requeued, 1);
        // A requeue never regresses last_accepted: a late duplicate of the
        // requeued sequence is still stale.
        assert_eq!(q.push(frame(1)), PushOutcome::Shed(ShedReason::Stale));
        // The requeued frame is poppable again and the identity closes:
        // ingested + requeued == popped + shed.
        let (f, _) = q.pop_latest(Duration::ZERO).unwrap();
        assert_eq!(f.seq, 1);
        let st = q.stats();
        assert_eq!(st.ingested + st.requeued, 2 + st.shed());
    }

    #[test]
    fn requeue_into_a_full_queue_sheds_the_old_frame_as_superseded() {
        let q = IngestQueue::new(1);
        q.push(frame(0));
        let (f0, _) = q.pop_latest(Duration::ZERO).unwrap();
        q.push(frame(1)); // queue full again
        q.requeue(f0); // fresher queued frame wins; f0 shed on the spot
        assert_eq!(q.depth(), 1);
        let st = q.stats();
        assert_eq!(st.requeued, 1);
        assert_eq!(st.shed_superseded, 1);
        let (f, _) = q.pop_latest(Duration::ZERO).unwrap();
        assert_eq!(f.seq, 1);
        assert_eq!(st.ingested + st.requeued, 1 /* popped f0 */ + 1 /* popped f1 */ + st.shed());
    }

    #[test]
    fn requeued_frame_is_oldest_so_latest_still_wins() {
        let q = IngestQueue::new(4);
        q.push(frame(2));
        let (f2, _) = q.pop_latest(Duration::ZERO).unwrap();
        q.push(frame(3));
        q.requeue(f2);
        // Latest-wins drain: seq 3 pops, the requeued seq 2 is superseded.
        let (f, _) = q.pop_latest(Duration::ZERO).unwrap();
        assert_eq!(f.seq, 3);
        assert_eq!(q.stats().shed_superseded, 1);
    }

    #[test]
    fn concurrent_producers_and_consumer_account_exactly() {
        let q = IngestQueue::new(4);
        let popped = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            let q = &q;
            let popped = &popped;
            for p in 0..4u64 {
                s.spawn(move || {
                    for i in 0..100u64 {
                        // Interleaved sequence streams: plenty of staleness.
                        q.push(frame(i * 4 + p));
                    }
                });
            }
            s.spawn(move || {
                while q.pop_latest(Duration::from_millis(100)).is_some() {
                    popped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        });
        q.drain_remaining();
        let st = q.stats();
        assert_eq!(st.ingested, 400);
        assert_eq!(
            st.ingested,
            popped.load(std::sync::atomic::Ordering::Relaxed) + st.shed(),
            "unaccounted frames: {st:?}"
        );
    }
}
