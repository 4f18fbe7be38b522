//! Prototype configuration.

use std::time::Duration;

use pgse_estimation::synthetic::NoiseProcess;
use pgse_medici::{FaultPlan, MwConfig};

/// How state estimators coordinate (paper Fig. 1 supports both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinationMode {
    /// Peer-to-peer exchange between neighbouring estimators
    /// (decentralized DSE — the paper's focus, after \[5\]).
    Decentralized,
    /// All exchange goes through a central coordinator (hierarchical state
    /// estimation — today's industry structure).
    Hierarchical,
}

/// Deterministic fault injection for the middleware exchange.
///
/// When set on a [`PrototypeConfig`], every decentralized peer-to-peer
/// pipeline is fronted by a [`pgse_medici::FaultProxy`] seeded from `seed`
/// and the edge's public URL, so the same spec reproduces the same fault
/// sequence run after run. Edges listed in `dead` are deployed as dead
/// pipelines: the endpoint exists but never accepts a connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Master seed of the fault streams (combined per edge).
    pub seed: u64,
    /// Probability a relayed frame is silently discarded.
    pub drop_prob: f64,
    /// Probability a frame is truncated mid-body.
    pub truncate_prob: f64,
    /// Probability a frame is delayed by [`ChaosSpec::delay`].
    pub delay_prob: f64,
    /// Injected delay for delayed frames.
    pub delay: Duration,
    /// Probability a frame is delivered twice.
    pub duplicate_prob: f64,
    /// Directed edges `(src, dst)` whose pipeline is dead: connect attempts
    /// are refused, so the sender's retries exhaust and the receiver runs
    /// degraded.
    pub dead: Vec<(usize, usize)>,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0,
            drop_prob: 0.0,
            truncate_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(25),
            duplicate_prob: 0.0,
            dead: Vec::new(),
        }
    }
}

impl ChaosSpec {
    /// The per-proxy fault plan this spec describes (the per-edge seed is
    /// mixed in by the proxy itself from the edge's public URL).
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            drop_prob: self.drop_prob,
            truncate_prob: self.truncate_prob,
            delay_prob: self.delay_prob,
            delay: self.delay,
            duplicate_prob: self.duplicate_prob,
        }
    }

    /// Whether the directed edge `(src, dst)` is configured dead.
    pub fn is_dead(&self, src: usize, dst: usize) -> bool {
        self.dead.contains(&(src, dst))
    }
}

/// Configuration of a [`crate::SystemPrototype`].
#[derive(Debug, Clone)]
pub struct PrototypeConfig {
    /// Number of HPC clusters; `3` reproduces the paper's testbed.
    pub n_clusters: usize,
    /// Coordination structure.
    pub mode: CoordinationMode,
    /// The time-frame noise process `x = f(δt)`.
    pub noise: NoiseProcess,
    /// Iteration-model slope `g1` (paper §IV-B.2; 14-bus empirical value).
    pub g1: f64,
    /// Iteration-model intercept `g2`.
    pub g2: f64,
    /// Middleware relay rate in bytes/second (paper measured ≈ 0.4 GB/s).
    pub relay_rate: f64,
    /// Deadlines and retry schedule of the prototype's exchange sender;
    /// `op_deadline` also bounds how long a partly received frame may
    /// stall an interface layer's inbox.
    pub middleware: MwConfig,
    /// Wall-clock budget of one exchange round: each interface layer stops
    /// waiting for neighbour pseudo measurements once this expires and the
    /// frame proceeds degraded on whatever arrived.
    pub exchange_deadline: Duration,
    /// Optional deterministic fault injection on the exchange pipelines.
    pub chaos: Option<ChaosSpec>,
}

impl Default for PrototypeConfig {
    fn default() -> Self {
        PrototypeConfig {
            n_clusters: 3,
            mode: CoordinationMode::Decentralized,
            noise: NoiseProcess::default(),
            g1: 3.7579,
            g2: 5.2464,
            relay_rate: pgse_medici::throttle::PAPER_RELAY_RATE,
            middleware: MwConfig::default(),
            exchange_deadline: Duration::from_secs(30),
            chaos: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = PrototypeConfig::default();
        assert_eq!(c.n_clusters, 3);
        assert_eq!(c.mode, CoordinationMode::Decentralized);
        assert!((c.g1 - 3.7579).abs() < 1e-12);
        assert!((c.relay_rate - 0.4e9).abs() < 1.0);
        assert!(c.chaos.is_none());
        assert_eq!(c.exchange_deadline, Duration::from_secs(30));
    }

    #[test]
    fn chaos_spec_maps_to_fault_plan() {
        let spec = ChaosSpec {
            seed: 7,
            drop_prob: 0.1,
            dead: vec![(0, 1)],
            ..Default::default()
        };
        let plan = spec.fault_plan();
        assert_eq!(plan.seed, 7);
        assert!((plan.drop_prob - 0.1).abs() < 1e-12);
        assert!(spec.is_dead(0, 1));
        assert!(!spec.is_dead(1, 0));
    }
}
