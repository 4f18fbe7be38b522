//! The supervision layer: heartbeats, a deterministic watchdog, and the
//! in-memory checkpoint store that makes streaming workers restartable.
//!
//! The paper's subsystem→cluster mapping is *dynamic* — METIS repartitions
//! before Step 1 and Step 2, and the prototype spans three clusters any
//! one of which can go away. This module supplies the machinery the
//! streaming service needs to *notice* and *survive* that:
//!
//! * **Heartbeats + watchdog** ([`Watchdog`]) — each area worker beats once
//!   per solve round with its current frame sequence. The watchdog runs on
//!   a **deterministic deadline clock**: its time base is the round
//!   counter, not wall time, so the same fault schedule always produces
//!   the same `healthy → suspect → dead` transition sequence (and the
//!   same byte-identical ObsReport). A worker that misses
//!   [`SUSPECT_AFTER`] consecutive rounds is *suspect*; at
//!   [`DEAD_AFTER`] missed rounds it is declared *dead* and the
//!   supervisor recovers it.
//! * **Checkpoints** ([`CheckpointStore`]) — after each successful solve a
//!   worker serializes its warm state (last converged state vector, frame
//!   sequence, last scan on its layout, and the [`StructureDescriptor`] of its
//!   cached symbolic structures) into a per-area slot. A restarted or
//!   re-hosted worker restores the checkpoint and re-converges *warm*
//!   instead of cold; symbolic structures rebuild deterministically from
//!   the next frame's layout, so the restored trajectory is bitwise
//!   identical to the uninterrupted one when the checkpoint is fresh
//!   (pinned in `tests/parallel_determinism.rs`).
//! * **Fault schedules** ([`KillSchedule`]) — seeded, frame-sequence-keyed
//!   chaos: kill one worker, kill a whole cluster, or inject a panic into
//!   a solve closure. Deterministic by construction, which is what lets
//!   the chaos suite assert byte-identical same-seed recovery traces.
//!
//! The recovery actions themselves (restart in place, repartition the
//! shrunken fleet, execute the redistribution plan) live in
//! [`crate::service`], which owns the workers.

use std::sync::Mutex;

use pgse_dse::{AreaSlot, AreaSolution};
use pgse_estimation::measurement::MeasurementSet;
use pgse_estimation::wls::{SolveCache, StructureDescriptor};

/// Consecutive missed heartbeats before a streaming worker turns
/// *suspect*. Deadlines count solve rounds — the deterministic clock —
/// never wall time.
pub const SUSPECT_AFTER: u64 = 1;

/// Consecutive missed heartbeats before a streaming worker is declared
/// *dead* and recovered.
pub const DEAD_AFTER: u64 = 2;

/// Clusters the streaming service maps its areas onto (the paper's fleet
/// size).
pub const N_CLUSTERS: usize = 3;

/// A seeded fault schedule, keyed by frame sequence so that the same
/// schedule against the same stream is exactly reproducible.
#[derive(Debug, Clone, Default)]
pub struct KillSchedule {
    /// `(frame_seq, area)`: kill that area's worker when the solve round
    /// for `frame_seq` begins (the worker loses all in-memory state and
    /// stops heartbeating; the frame it had popped is requeued).
    pub worker_kills: Vec<(u64, usize)>,
    /// `(frame_seq, cluster)`: kill every worker hosted on that cluster —
    /// the paper's "one of the three clusters goes away" scenario.
    pub cluster_kills: Vec<(u64, usize)>,
    /// `(frame_seq, area)`: make that area's Step-1 closure panic once,
    /// exercising the `catch_unwind` containment path.
    pub panics: Vec<(u64, usize)>,
}

/// Watchdog belief about one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Beating on schedule.
    Healthy,
    /// Missed at least `suspect_after` consecutive rounds.
    Suspect,
    /// Missed at least `dead_after` consecutive rounds; awaiting recovery.
    Dead,
}

/// What the supervision layer observed or did, stamped with the frame
/// sequence of the round it happened in (deterministic, reportable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisionEvent {
    /// A worker's solve closure panicked; the panic was contained.
    Panicked {
        /// Affected area.
        area: usize,
        /// Frame sequence of the round.
        seq: u64,
    },
    /// The watchdog marked a worker suspect.
    Suspected {
        /// Affected area.
        area: usize,
        /// Frame sequence of the round.
        seq: u64,
    },
    /// The watchdog declared a worker dead.
    Died {
        /// Affected area.
        area: usize,
        /// Frame sequence of the round.
        seq: u64,
    },
    /// A worker was restarted in place on its (surviving) host cluster.
    Restarted {
        /// Affected area.
        area: usize,
        /// Frame sequence of the round.
        seq: u64,
        /// Whether a checkpoint was available (warm restart).
        warm: bool,
    },
    /// Every worker on a cluster died at once — the cluster is gone.
    ClusterDied {
        /// The dead cluster.
        cluster: usize,
        /// Frame sequence of the round.
        seq: u64,
    },
    /// Failover moved an area to a surviving cluster (one redistribution
    /// plan move, executed by handing over the area's checkpoint).
    Rehosted {
        /// Affected area.
        area: usize,
        /// The dead source cluster.
        from_cluster: usize,
        /// The surviving destination cluster.
        to_cluster: usize,
        /// Frame sequence of the round.
        seq: u64,
    },
    /// A previously dead area published a fresh (non-degraded) solve
    /// again — recovery is complete for that area.
    Recovered {
        /// Affected area.
        area: usize,
        /// Frame sequence of the first fresh round.
        seq: u64,
    },
}

impl SupervisionEvent {
    /// The frame sequence the event is stamped with.
    pub fn seq(&self) -> u64 {
        match *self {
            SupervisionEvent::Panicked { seq, .. }
            | SupervisionEvent::Suspected { seq, .. }
            | SupervisionEvent::Died { seq, .. }
            | SupervisionEvent::Restarted { seq, .. }
            | SupervisionEvent::ClusterDied { seq, .. }
            | SupervisionEvent::Rehosted { seq, .. }
            | SupervisionEvent::Recovered { seq, .. } => seq,
        }
    }
}

/// Per-worker heartbeat ledger with round-based deadlines.
///
/// The clock is *logical*: [`Watchdog::tick`] is called exactly once per
/// solve round after the beats land, so "missed N rounds" means the same
/// thing in every run regardless of scheduling jitter.
#[derive(Debug)]
pub struct Watchdog {
    suspect_after: u64,
    dead_after: u64,
    health: Vec<WorkerHealth>,
    beat_this_round: Vec<bool>,
    missed: Vec<u64>,
}

impl Watchdog {
    /// A watchdog over `n` workers, all healthy: a worker turns suspect
    /// after `suspect_after` consecutive missed rounds and dead after
    /// `dead_after`.
    ///
    /// # Panics
    /// Panics when `dead_after < suspect_after` or either is zero.
    pub fn new(n: usize, suspect_after: u64, dead_after: u64) -> Self {
        assert!(suspect_after >= 1, "suspect_after must be at least 1");
        assert!(dead_after >= suspect_after, "dead_after must be >= suspect_after");
        Watchdog {
            suspect_after,
            dead_after,
            health: vec![WorkerHealth::Healthy; n],
            beat_this_round: vec![false; n],
            missed: vec![0; n],
        }
    }

    /// Records a heartbeat for `area` in the current round. Returns `false`
    /// (a zombie beat) when the worker is already declared dead:
    /// a revived-but-not-reinstated worker cannot talk its way back in —
    /// only [`Watchdog::revive`] (the supervisor) can.
    pub fn beat(&mut self, area: usize) -> bool {
        if self.health[area] == WorkerHealth::Dead {
            return false;
        }
        self.beat_this_round[area] = true;
        true
    }

    /// Closes the current round: workers that did not beat accumulate a
    /// missed round and transition `healthy → suspect → dead` at the
    /// configured deadlines. Events are stamped with `seq` (the round's
    /// frame sequence). Workers already dead emit nothing further.
    pub fn tick(&mut self, seq: u64) -> Vec<SupervisionEvent> {
        let mut events = Vec::new();
        for area in 0..self.health.len() {
            if std::mem::take(&mut self.beat_this_round[area]) {
                self.missed[area] = 0;
                if self.health[area] == WorkerHealth::Suspect {
                    self.health[area] = WorkerHealth::Healthy;
                }
                continue;
            }
            if self.health[area] == WorkerHealth::Dead {
                continue;
            }
            self.missed[area] += 1;
            if self.missed[area] >= self.dead_after {
                self.health[area] = WorkerHealth::Dead;
                events.push(SupervisionEvent::Died { area, seq });
            } else if self.missed[area] >= self.suspect_after
                && self.health[area] == WorkerHealth::Healthy
            {
                self.health[area] = WorkerHealth::Suspect;
                events.push(SupervisionEvent::Suspected { area, seq });
            }
        }
        events
    }

    /// Reinstates a recovered worker as healthy with a clean slate.
    pub fn revive(&mut self, area: usize) {
        self.health[area] = WorkerHealth::Healthy;
        self.missed[area] = 0;
        self.beat_this_round[area] = false;
    }

    /// Current belief about `area`.
    pub fn health(&self, area: usize) -> WorkerHealth {
        self.health[area]
    }
}

/// One area worker's restorable state at a frame boundary.
#[derive(Debug, Clone)]
pub struct AreaCheckpoint {
    /// The area this checkpoint belongs to.
    pub area: usize,
    /// Frame sequence of the last solve folded into the warm state.
    pub frame_seq: u64,
    /// Warm-start profile `(vm, va)` of the Step-1 estimator, if the
    /// worker had converged at least once (cold-mode workers checkpoint
    /// without one).
    pub warm: Option<(Vec<f64>, Vec<f64>)>,
    /// The last scan the worker consumed, placed on its area's layout
    /// (the paper's redistributable raw measurement data; inactive rows
    /// ride along with their flags).
    pub last_set: Option<MeasurementSet>,
    /// The last merged solution (for sizing and diagnostics).
    pub last_solution: Option<AreaSolution>,
    /// Fingerprint of the symbolic structures the worker was running with;
    /// a restored worker's rebuild must match it.
    pub structure: Option<StructureDescriptor>,
}

impl AreaCheckpoint {
    /// Approximate checkpoint size — what failover ships across the
    /// inter-cluster link, so what the redistribution plan is priced on.
    pub fn approx_bytes(&self) -> u64 {
        let warm = self
            .warm
            .as_ref()
            .map_or(0, |(vm, va)| (vm.len() + va.len()) * std::mem::size_of::<f64>())
            as u64;
        let scan = self.last_set.as_ref().map_or(0, |s| s.n_active() as u64 * 24);
        let sol = self.last_solution.as_ref().map_or(0, AreaSolution::approx_bytes);
        warm + scan + sol + 64
    }
}

/// A checkpoint of `area`'s slot after a fresh solve of frame `seq`.
pub(crate) fn checkpoint(slot: &AreaSlot, area: usize, seq: u64) -> AreaCheckpoint {
    AreaCheckpoint {
        area,
        frame_seq: seq,
        warm: slot.s1.export_warm(),
        last_set: slot.set.clone(),
        last_solution: slot.solution.clone(),
        structure: slot.s1.structure_descriptor(),
    }
}

/// Brings `slot` back for a restarted worker: fresh caches, then the
/// checkpoint's warm start and scan when there is one. Returns whether the
/// symbolic structures were retained.
///
/// Structure retention: when the checkpointed [`StructureDescriptor`]
/// matches what the live Step-1 cache is running with, the topology is
/// verified unchanged across the failure, so the symbolic analyses
/// (Jacobian pattern, gain `AᵀWA` symbolic) survive the restart instead of
/// being rebuilt on the first post-revive frame.
pub(crate) fn revive(slot: &mut AreaSlot, ck: Option<AreaCheckpoint>) -> bool {
    let live = slot.s1.structure_descriptor();
    let retained = live.is_some() && ck.as_ref().is_some_and(|ck| ck.structure == live);
    if retained {
        slot.s1.retain_structures_for_restart();
        slot.s2.retain_structures_for_restart();
    } else {
        slot.s1 = SolveCache::new();
        slot.s2 = SolveCache::new();
    }
    slot.set = ck.and_then(|ck| {
        if let Some((vm, va)) = ck.warm {
            slot.s1.restore_warm(vm, va);
        }
        ck.last_set
    });
    retained
}

/// Checkpoint accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints written.
    pub saves: u64,
    /// Checkpoints handed to a restarted or re-hosted worker.
    pub restores: u64,
    /// Restore requests that found no checkpoint (cold restart).
    pub misses: u64,
}

/// In-memory per-area checkpoint slots (latest wins).
///
/// In the three-cluster prototype this store stands in for replicated
/// cluster-local storage; the interface is deliberately value-oriented
/// (save a clone, restore a clone) so a real backend can slot in.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: Mutex<(Vec<Option<AreaCheckpoint>>, CheckpointStats)>,
}

impl CheckpointStore {
    /// An empty store with one slot per area.
    pub fn new(n_areas: usize) -> Self {
        CheckpointStore {
            slots: Mutex::new((vec![None; n_areas], CheckpointStats::default())),
        }
    }

    /// Saves `ckpt` into its area's slot, superseding any previous one.
    ///
    /// # Panics
    /// Panics when `ckpt.area` is out of range.
    pub fn save(&self, ckpt: AreaCheckpoint) {
        let mut guard = self.slots.lock().unwrap();
        let area = ckpt.area;
        guard.0[area] = Some(ckpt);
        guard.1.saves += 1;
    }

    /// Clones the latest checkpoint for `area` out of the store; `None`
    /// (counted as a miss) when the area never checkpointed.
    pub fn restore(&self, area: usize) -> Option<AreaCheckpoint> {
        let mut guard = self.slots.lock().unwrap();
        match guard.0[area].clone() {
            Some(ckpt) => {
                guard.1.restores += 1;
                Some(ckpt)
            }
            None => {
                guard.1.misses += 1;
                None
            }
        }
    }

    /// Drops `area`'s checkpoint, if any. Used when a live topology
    /// transition invalidates the checkpointed scan and structures: a
    /// restart after the switch must come up cold rather than restore
    /// measurement indices that reference branches of the old topology.
    pub fn clear(&self, area: usize) {
        self.slots.lock().unwrap().0[area] = None;
    }

    /// Approximate size of `area`'s latest checkpoint (0 when none) — the
    /// number failover prices its redistribution plan on. A peek: does
    /// not count as a restore.
    pub fn checkpoint_bytes(&self, area: usize) -> u64 {
        self.slots.lock().unwrap().0[area]
            .as_ref()
            .map_or(0, AreaCheckpoint::approx_bytes)
    }

    /// Current accounting.
    pub fn stats(&self) -> CheckpointStats {
        self.slots.lock().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_declares_suspect_then_dead_on_the_deterministic_clock() {
        let mut wd = Watchdog::new(2, 1, 2);
        // Round 0: both beat.
        assert!(wd.beat(0));
        assert!(wd.beat(1));
        assert!(wd.tick(0).is_empty());
        // Round 1: worker 1 goes silent → suspect.
        wd.beat(0);
        assert_eq!(wd.tick(1), vec![SupervisionEvent::Suspected { area: 1, seq: 1 }]);
        assert_eq!(wd.health(1), WorkerHealth::Suspect);
        // Round 2: still silent → dead.
        wd.beat(0);
        assert_eq!(wd.tick(2), vec![SupervisionEvent::Died { area: 1, seq: 2 }]);
        assert_eq!(wd.health(1), WorkerHealth::Dead);
        // Dead workers emit nothing further.
        wd.beat(0);
        assert!(wd.tick(3).is_empty());
        assert_eq!(wd.health(0), WorkerHealth::Healthy);
    }

    #[test]
    fn a_beat_clears_suspicion_but_not_death() {
        let mut wd = Watchdog::new(1, 1, 3);
        assert_eq!(wd.tick(0), vec![SupervisionEvent::Suspected { area: 0, seq: 0 }]);
        // It comes back: suspicion clears, missed counter resets.
        assert!(wd.beat(0));
        assert!(wd.tick(1).is_empty());
        assert_eq!(wd.health(0), WorkerHealth::Healthy);
        // Silent for three straight rounds → dead this time.
        wd.tick(2);
        wd.tick(3);
        assert_eq!(wd.tick(4), vec![SupervisionEvent::Died { area: 0, seq: 4 }]);
        // A zombie beat is refused; only revive reinstates.
        assert!(!wd.beat(0));
        wd.revive(0);
        assert_eq!(wd.health(0), WorkerHealth::Healthy);
        assert!(wd.beat(0));
        assert!(wd.tick(5).is_empty());
    }

    #[test]
    fn same_miss_pattern_yields_identical_event_sequences() {
        let run = || {
            let mut wd = Watchdog::new(3, 1, 2);
            let mut events = Vec::new();
            for round in 0..6u64 {
                for area in 0..3 {
                    // Worker 2 dies after round 2; worker 0 flakes once.
                    let beats = match area {
                        0 => round != 1,
                        2 => round <= 2,
                        _ => true,
                    };
                    if beats {
                        wd.beat(area);
                    }
                }
                events.extend(wd.tick(round));
            }
            events
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_store_latest_wins_and_accounts() {
        let store = CheckpointStore::new(2);
        assert!(store.restore(0).is_none());
        store.save(AreaCheckpoint {
            area: 0,
            frame_seq: 3,
            warm: Some((vec![1.0; 4], vec![0.0; 4])),
            last_set: None,
            last_solution: None,
            structure: None,
        });
        store.save(AreaCheckpoint {
            area: 0,
            frame_seq: 5,
            warm: Some((vec![1.01; 4], vec![0.01; 4])),
            last_set: None,
            last_solution: None,
            structure: None,
        });
        let latest_seq =
            |area: usize| store.slots.lock().unwrap().0[area].as_ref().map(|c| c.frame_seq);
        assert_eq!(latest_seq(0), Some(5));
        let got = store.restore(0).unwrap();
        assert_eq!(got.frame_seq, 5);
        assert!(got.approx_bytes() > 0);
        assert_eq!(
            store.stats(),
            CheckpointStats { saves: 2, restores: 1, misses: 1 }
        );
        assert_eq!(latest_seq(1), None);
    }

    #[test]
    #[should_panic(expected = "dead_after must be >= suspect_after")]
    fn watchdog_rejects_inverted_deadlines() {
        Watchdog::new(1, 3, 2);
    }
}
