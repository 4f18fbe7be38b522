//! Experiment implementations behind the `tables` binary.
//!
//! One function per paper table/figure; each returns a formatted block of
//! text (and structured rows where the EXPERIMENTS.md comparison needs
//! them). See DESIGN.md §4 for the experiment index.

pub mod experiments;
pub mod itermodel;
pub mod overhead;
pub mod timing;

pub use experiments::*;
