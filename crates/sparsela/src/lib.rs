// Sparse numeric kernels walk parallel index structures (rowptr/colind/
// vals) where the loop counter indexes several slices at once; the
// enumerate() rewrites clippy suggests obscure the stencil.
#![allow(clippy::needless_range_loop)]

//! # pgse-sparsela
//!
//! Sparse linear-algebra substrate for the distributed power-grid state
//! estimation prototype.
//!
//! The paper's WLS state estimator solves, in every Gauss–Newton iteration,
//! a large sparse symmetric positive-definite system `G Δx = rhs`, and the
//! Newton power flow that produces ground-truth operating points needs a
//! general sparse LU. Neither existed as a substrate we could assume, so
//! this crate provides them from scratch:
//!
//! * storage formats: [`Coo`] (triplet assembly), [`Csr`], [`Csc`];
//! * kernels: SpMV, Gustavson SpGEMM, transpose, `AᵀWA`;
//! * ordering: minimum degree ([`ordering`]);
//! * direct solvers: Gilbert–Peierls sparse LU with a minimum-degree
//!   pre-order analysed once per pattern ([`LuSymbolic`]) and partial
//!   pivoting ([`lu`]), and one sparse Cholesky — an elimination-tree symbolic
//!   analysis ([`CholSymbolic`]) shared by a scalar up-looking numeric
//!   pass ([`scholesky`]) and a lane-interleaved one for same-pattern
//!   groups ([`batch`]);
//! * dense reference implementations used as test oracles ([`dense`]);
//! * a minimal complex number type ([`complex::Cplx`]) shared by the power
//!   system crates.
//!
//! The paper's PCG kernel is the row-distributed one in `pgse-mpilite`.

pub mod batch;
pub mod complex;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod lu;
pub mod ordering;
pub mod scholesky;
pub mod symbolic;
pub mod update;
pub mod vecops;

pub use batch::{solve_group, BatchCholesky, BatchPlan, PatternGroup, RoundOutcome};
pub use complex::Cplx;
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::DenseMatrix;
pub use lu::{LuSymbolic, SparseLu};
pub use scholesky::{CholSymbolic, SparseCholesky};
pub use symbolic::AtaSymbolic;
pub use update::UpdatedFactor;

/// Errors produced by factorizations and solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LaError {
    /// Matrix dimensions do not match the requested operation.
    DimensionMismatch { expected: usize, found: usize },
    /// A zero (or numerically negligible) pivot was encountered at the given
    /// elimination step; the matrix is singular to working precision.
    SingularPivot { step: usize },
    /// A Cholesky factorization found a non-positive diagonal; the matrix is
    /// not positive definite.
    NotPositiveDefinite { step: usize, value: f64 },
    /// The matrix handed to a numeric-only refactorization (or to a batched
    /// lane) does not carry the pattern the symbolic structure was built
    /// from; a fresh symbolic analysis is required.
    PatternMismatch { expected_nnz: usize, found_nnz: usize },
    /// A batched operation failed on one lane; `source` is the per-lane
    /// failure.
    Lane { lane: usize, source: Box<LaError> },
    /// A low-rank (Sherman–Morrison) update produced a singular modified
    /// matrix: the denominator `1 + c·uᵀA⁻¹u` vanished. For a Laplacian
    /// downdate this is the bridge-removal (islanding) case.
    SingularUpdate { denom: f64 },
}

impl std::fmt::Display for LaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LaError::SingularPivot { step } => {
                write!(f, "singular pivot at elimination step {step}")
            }
            LaError::NotPositiveDefinite { step, value } => {
                write!(
                    f,
                    "matrix not positive definite at step {step} (diagonal {value:.3e})"
                )
            }
            LaError::PatternMismatch { expected_nnz, found_nnz } => {
                write!(
                    f,
                    "sparsity pattern mismatch: symbolic structure has {expected_nnz} entries, matrix has {found_nnz}"
                )
            }
            LaError::Lane { lane, source } => {
                write!(f, "batched lane {lane} failed: {source}")
            }
            LaError::SingularUpdate { denom } => {
                write!(
                    f,
                    "low-rank update is singular (Sherman–Morrison denominator {denom:.3e})"
                )
            }
        }
    }
}

impl std::error::Error for LaError {}

/// Convenience alias used throughout the crate.
pub type LaResult<T> = Result<T, LaError>;
