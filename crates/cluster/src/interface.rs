//! The master-node interface layer.
//!
//! Paper §IV-A: "an interface layer is deployed on the master node of each
//! HPC cluster … It includes a middleware client that wraps the
//! communication code for disseminating and retrieving data \[and\] a data
//! processor \[that\] acquires the data from a local data buffer, extracts
//! the required fields … and assembles them as inputs to the parallel
//! power models."
//!
//! Here the layer is the inbox side: it owns the cluster's inbox endpoint
//! as a session receiver ([`Inbox`]), whose peers' held connections stay
//! open across rounds and are read from one poll on the calling thread.
//! The data processor is the caller's decoder, applied to each frame as
//! it is collected. The sending half is the deployment's one
//! [`pgse_medici::MwClient`], which holds a session per endpoint.

use std::time::{Duration, Instant};

use pgse_medici::{Arrival, EndpointRegistry, Inbox, MwConfig, MwError};

/// What a deadline-bounded collection actually gathered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectOutcome {
    /// Frames taken, one per distinct source.
    pub received: usize,
    /// Corrupt deliveries: a frame cut by its connection's close or reset,
    /// stalled past the middleware deadline, or rejected by the decoder.
    pub corrupt: usize,
    /// Frames discarded as duplicates of an already-received source.
    pub duplicate: usize,
    /// True when the round deadline expired before `n` frames arrived.
    pub timed_out: bool,
}

/// The interface layer of one cluster's master node.
pub struct InterfaceLayer {
    /// The inbox endpoint and its held connections (the "local data
    /// buffer" feed).
    inbox: Inbox,
}

impl InterfaceLayer {
    /// Deploys the layer: binds the cluster's inbox endpoint in the shared
    /// registry. `config.op_deadline` is how long a partly received
    /// inbound frame may stall.
    ///
    /// # Errors
    /// [`MwError`] when the endpoint cannot be bound.
    pub fn deploy_with(
        registry: &EndpointRegistry,
        inbox_url: &str,
        config: MwConfig,
    ) -> Result<Self, MwError> {
        Ok(InterfaceLayer { inbox: Inbox::new(registry.bind(inbox_url)?, config.op_deadline)? })
    }

    /// Collects up to `n` frames from distinct sources within one round
    /// `deadline`, tolerating loss. `decode` yields a frame's source key
    /// and its decoded value in one pass; a frame it rejects (`None`) is
    /// counted corrupt and skipped, and one whose key was already taken in
    /// this call is counted duplicate and discarded, so a duplicated
    /// delivery cannot mask a still-missing source. An expired deadline
    /// ends the wait instead of failing it. The first value per source is
    /// returned with its key, in arrival order; frames not read stay
    /// queued for the next call.
    ///
    /// The deadline bounds the *wait*, not the take: a zero deadline (a
    /// round whose budget an earlier inbox used up) still takes every
    /// frame that has already arrived.
    pub fn collect_decoded<T>(
        &mut self,
        n: usize,
        deadline: Duration,
        decode: impl Fn(&[u8]) -> Option<(u64, T)>,
    ) -> (Vec<(u64, T)>, CollectOutcome) {
        let mut sp = pgse_obs::span("inbox.collect");
        let end = Instant::now() + deadline;
        let mut outcome = CollectOutcome::default();
        let mut taken: Vec<(u64, T)> = Vec::with_capacity(n);
        while outcome.received < n {
            match self.inbox.recv_until(end) {
                Some(Arrival::Frame(frame)) => match decode(&frame) {
                    Some((k, _)) if taken.iter().any(|(seen, _)| *seen == k) => {
                        outcome.duplicate += 1;
                    }
                    Some(item) => {
                        taken.push(item);
                        outcome.received += 1;
                    }
                    None => outcome.corrupt += 1,
                },
                Some(Arrival::Corrupt) => outcome.corrupt += 1,
                None => {
                    outcome.timed_out = true;
                    break;
                }
            }
        }
        // Only distinct received frames feed `exchange.frames`: duplicates
        // land in `exchange.duplicates`, so a duplicated delivery never
        // inflates the received count.
        sp.record("expected", n as u64);
        sp.record("received", outcome.received as u64);
        sp.record("corrupt", outcome.corrupt as u64);
        sp.record("duplicate", outcome.duplicate as u64);
        sp.record("timed_out", outcome.timed_out);
        pgse_obs::counter_add("exchange.frames", outcome.received as u64);
        pgse_obs::counter_add("exchange.corrupt", outcome.corrupt as u64);
        pgse_obs::counter_add("exchange.duplicates", outcome.duplicate as u64);
        if outcome.timed_out {
            pgse_obs::counter_add("exchange.timeouts", 1);
        }
        (taken, outcome)
    }

    /// Consumes and discards frames still pending on the inbox until
    /// `grace` passes with nothing arriving (a zero `grace` takes only what
    /// is already there). Used after a fault-injected round so stragglers
    /// (late duplicates) cannot leak into the next round's collection.
    pub fn drain_pending(&mut self, grace: Duration) -> usize {
        let mut sp = pgse_obs::span("inbox.drain");
        let mut drained: usize = 0;
        while let Some(arrival) = self.inbox.recv_until(Instant::now() + grace) {
            if matches!(arrival, Arrival::Frame(_)) {
                drained += 1;
            }
        }
        sp.record("drained", drained as u64);
        pgse_obs::counter_add("exchange.drained", drained as u64);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_medici::MwClient;

    fn deploy(registry: &EndpointRegistry, url: &str) -> InterfaceLayer {
        InterfaceLayer::deploy_with(registry, url, MwConfig::default()).unwrap()
    }

    /// Keys every frame by its first byte and keeps the whole frame.
    fn by_first_byte(f: &[u8]) -> Option<(u64, Vec<u8>)> {
        f.first().map(|&b| (u64::from(b), f.to_vec()))
    }

    fn values<T>(taken: Vec<(u64, T)>) -> Vec<T> {
        taken.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn layers_exchange_frames_directly() {
        let registry = EndpointRegistry::new();
        let mut a = deploy(&registry, "tcp://nwiceb.pnl.gov:6789");
        let client = MwClient::new(registry.clone());
        client.send("tcp://nwiceb.pnl.gov:6789", b"boundary states").unwrap();
        let (got, outcome) = a.collect_decoded(1, Duration::from_secs(5), by_first_byte);
        assert_eq!(values(got), vec![b"boundary states".to_vec()]);
        assert_eq!(outcome.received, 1);
    }

    #[test]
    fn collect_waits_for_all_expected_frames() {
        let registry = EndpointRegistry::new();
        let mut hub = deploy(&registry, "tcp://hub:1");
        let reg = registry.clone();
        let t = std::thread::spawn(move || {
            let client = MwClient::new(reg);
            for i in 0..3 {
                client.send("tcp://hub:1", format!("frame{i}").as_bytes()).unwrap();
            }
        });
        let (got, outcome) = hub.collect_decoded(3, Duration::from_secs(30), |f| {
            Some((u64::from(f[5]), String::from_utf8(f.to_vec()).unwrap()))
        });
        t.join().unwrap();
        assert_eq!(outcome.received, 3);
        let mut frames = values(got);
        frames.sort();
        assert_eq!(frames, vec!["frame0", "frame1", "frame2"]);
    }

    #[test]
    fn decoder_extracts_fields() {
        let registry = EndpointRegistry::new();
        let mut layer = deploy(&registry, "tcp://x:1");
        MwClient::new(registry.clone()).send("tcp://x:1", b"12,34").unwrap();
        let (parsed, _) = layer.collect_decoded(1, Duration::from_secs(5), |f| {
            let s = std::str::from_utf8(f).ok()?;
            Some((0, s.split(',').map(|v| v.parse::<i32>().unwrap()).collect::<Vec<_>>()))
        });
        assert_eq!(values(parsed), vec![vec![12, 34]]);
    }

    #[test]
    fn collect_returns_partial_on_timeout() {
        let registry = EndpointRegistry::new();
        let mut hub = deploy(&registry, "tcp://hub:2");
        MwClient::new(registry.clone()).send("tcp://hub:2", b"only one").unwrap();
        // Expect 3 frames but only one was ever sent: the round must end at
        // the deadline with the single frame taken.
        let start = Instant::now();
        let (got, outcome) = hub.collect_decoded(3, Duration::from_millis(120), by_first_byte);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(outcome.received, 1);
        assert!(outcome.timed_out);
        assert_eq!(values(got), vec![b"only one".to_vec()]);
    }

    #[test]
    fn collect_skips_corrupt_frames() {
        let registry = EndpointRegistry::new();
        let mut hub = deploy(&registry, "tcp://hub:3");
        let addr = registry.resolve("tcp://hub:3").unwrap();
        let reg = registry.clone();
        let t = std::thread::spawn(move || {
            use std::io::Write;
            // A truncated frame (claims 100 bytes, sends 4, closes)…
            let mut bad = std::net::TcpStream::connect(addr).unwrap();
            bad.write_all(&100u64.to_be_bytes()).unwrap();
            bad.write_all(b"oops").unwrap();
            drop(bad);
            // …followed by a good one.
            MwClient::new(reg).send("tcp://hub:3", b"good frame").unwrap();
        });
        let (got, outcome) = hub.collect_decoded(1, Duration::from_secs(5), by_first_byte);
        t.join().unwrap();
        assert_eq!(outcome.received, 1);
        assert_eq!(outcome.corrupt, 1);
        assert!(!outcome.timed_out);
        assert_eq!(values(got), vec![b"good frame".to_vec()]);
    }

    #[test]
    fn collect_discards_duplicates() {
        let registry = EndpointRegistry::new();
        let mut hub = deploy(&registry, "tcp://hub:4");
        let client = MwClient::new(registry.clone());
        // Source 7 delivered twice (a duplication fault), then source 9.
        for src in [7u8, 7, 9] {
            client.send("tcp://hub:4", &[src]).unwrap();
        }
        let (got, outcome) = hub.collect_decoded(2, Duration::from_secs(5), by_first_byte);
        assert_eq!(outcome.received, 2);
        assert_eq!(outcome.duplicate, 1);
        assert_eq!(outcome.corrupt, 0);
        assert!(!outcome.timed_out);
        assert_eq!(values(got), vec![vec![7u8], vec![9u8]]);
    }

    #[test]
    fn drain_pending_clears_stragglers() {
        let registry = EndpointRegistry::new();
        let mut hub = deploy(&registry, "tcp://hub:5");
        let client = MwClient::new(registry.clone());
        client.send("tcp://hub:5", b"stale").unwrap();
        client.send("tcp://hub:5", b"stale").unwrap();
        assert_eq!(hub.drain_pending(Duration::from_millis(100)), 2);
        // Inbox is now clean: a fresh collect sees only new data.
        client.send("tcp://hub:5", b"fresh").unwrap();
        let (got, outcome) = hub.collect_decoded(1, Duration::from_secs(5), by_first_byte);
        assert_eq!(outcome.received, 1);
        assert_eq!(values(got), vec![b"fresh".to_vec()]);
    }

    #[test]
    fn duplicates_do_not_inflate_exchange_counters() {
        let rec = pgse_obs::Recorder::new("inbox");
        let registry = EndpointRegistry::new();
        let mut hub = deploy(&registry, "tcp://hub:6");
        let client = MwClient::new(registry.clone());
        // Source 3 delivered three times (duplication fault), source 4 once.
        for src in [3u8, 3, 3, 4] {
            client.send("tcp://hub:6", &[src]).unwrap();
        }
        let (_, outcome) = pgse_obs::with_recorder(&rec, || {
            hub.collect_decoded(2, Duration::from_secs(5), by_first_byte)
        });
        assert_eq!((outcome.received, outcome.duplicate), (2, 2));
        let snap = rec.snapshot();
        // Distinct sources only: the duplicated deliveries are accounted
        // separately and never reach `exchange.frames`.
        assert_eq!(snap.metrics.counter("exchange.frames"), 2);
        assert_eq!(snap.metrics.counter("exchange.duplicates"), 2);
        assert_eq!(snap.metrics.counter("exchange.timeouts"), 0);
        let span = &snap.spans[0];
        assert_eq!(span.name, "inbox.collect");
        assert_eq!(span.field_u64("received"), Some(2));
        assert_eq!(span.field_u64("duplicate"), Some(2));
    }

    #[test]
    fn drain_is_accounted_separately_from_received_frames() {
        let rec = pgse_obs::Recorder::new("inbox");
        let registry = EndpointRegistry::new();
        let mut hub = deploy(&registry, "tcp://hub:7");
        let client = MwClient::new(registry.clone());
        client.send("tcp://hub:7", b"wanted").unwrap();
        client.send("tcp://hub:7", b"straggler").unwrap();
        pgse_obs::with_recorder(&rec, || {
            let (_, outcome) =
                hub.collect_decoded(1, Duration::from_secs(5), |f| Some((0, f.to_vec())));
            assert_eq!(outcome.received, 1);
            assert_eq!(hub.drain_pending(Duration::from_millis(100)), 1);
        });
        let snap = rec.snapshot();
        assert_eq!(snap.metrics.counter("exchange.frames"), 1);
        assert_eq!(snap.metrics.counter("exchange.drained"), 1);
        assert_eq!(
            snap.spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["inbox.collect", "inbox.drain"]
        );
    }
}
