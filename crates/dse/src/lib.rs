//! # pgse-dse
//!
//! The decentralized distributed state estimation (DSE) algorithm of the
//! paper's §II, following Jiang, Vittal & Heydt \[5\]:
//!
//! * **Preliminary step** ([`decomposition`]): the interconnection is
//!   decomposed into non-overlapping subsystems (areas) joined by tie
//!   lines; off-line sensitivity analysis identifies each subsystem's
//!   boundary buses and *sensitive internal* buses.
//! * **Step 1** ([`estimator::AreaEstimator::step1_cached`]): every subsystem runs
//!   local WLS estimation on its own measurements. PMUs provide the shared
//!   angle reference, so local solutions live in the global frame.
//! * **Step 2** ([`estimator::AreaEstimator::step2_cached`]): neighbours exchange
//!   their boundary/sensitive-bus solutions as *pseudo measurements*
//!   ([`pseudo::PseudoMeasurement`]); each subsystem re-evaluates its
//!   boundary and sensitive states on a one-hop-extended model.
//! * **Final step** ([`runner::aggregate`]): subsystem solutions are
//!   combined into the system-wide estimate. Exchange rounds are bounded
//!   by the decomposition-graph diameter.
//!
//! [`hierarchical`] additionally implements the two-level (balancing
//! authority → reliability coordinator) estimation structure of §I, giving
//! the architecture's hierarchical mode a real algorithm and an
//! accuracy/latency comparison point.
//!
//! [`runner::run_cycle`] runs these steps as one time frame, whatever
//! hosts it: the [`runner::Exchange`] seam says where a step's areas run
//! and how a round's pseudo measurements travel. [`runner::InProcess`]
//! runs them on one rayon pool; `pgse-core` runs them on its cluster
//! fleet and ships the batches through the MeDICi middleware exactly as
//! Fig. 6 describes. Each area solves on its [`runner::AreaSlot`], which
//! its host keeps across frames, so a warm frame refreshes the area's
//! factors instead of re-analysing them.

pub mod decomposition;
pub mod estimator;
pub mod hierarchical;
pub mod pseudo;
pub mod runner;

pub use decomposition::{AreaInfo, Decomposition, DecompositionOptions};
pub use estimator::{AreaEstimator, AreaSolution};
pub use hierarchical::{reconcile_hierarchy, Coordinator};
pub use pseudo::PseudoMeasurement;
pub use runner::{
    run_centralized, run_cycle, run_dse, run_dse_degraded, AreaSlot, DegradationDelta, Delivery,
    DropPlan, DseOptions, DseReport, Exchange, InProcess, MissedExchange, Step,
};
