//! # pgse-cluster
//!
//! The HPC deployment model of the prototype (paper Fig. 1): a fleet of
//! named clusters — the paper's laboratory testbed is *Nwiceb*, *Catamount*
//! and *Chinook* — each hosting the subsystems the mapping method assigns
//! to it. Every cluster's master node carries an **interface layer**: the
//! inbox side of the exchange, which collects and decodes arriving pseudo
//! measurements for the worker processes (the deployment's one middleware
//! client does the sending).
//!
//! * [`fleet`] — clusters with their own compute pools;
//! * [`interface`] — the master-node inbox over `pgse-medici`;
//! * [`redistribution`] — the raw-data moves a mapping change forces
//!   between Step 1 and Step 2 (§IV-C) and their cost on the simulated
//!   inter-cluster links.

pub mod fleet;
pub mod interface;
pub mod redistribution;

pub use fleet::{ClusterFleet, FleetLiveness, HpcCluster};
pub use interface::{CollectOutcome, InterfaceLayer};
pub use redistribution::{plan_redistribution, DataMove, RedistributionPlan};
