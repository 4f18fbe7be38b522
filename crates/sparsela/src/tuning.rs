//! Runtime-adjustable parallelism thresholds.
//!
//! The parallel kernels fall back to their sequential forms below these
//! sizes, where fork/join overhead dominates. Benchmarks and tests lower
//! them to exercise the parallel paths on small systems (IEEE-118's state
//! dimension is 235); changing a threshold can never change a result —
//! the parallel kernels are bitwise identical to their sequential
//! references (see `vecops`) — only which execution path runs.

use std::sync::atomic::{AtomicUsize, Ordering};

static PAR_ELEMS: AtomicUsize = AtomicUsize::new(4096);
static PAR_ROWS: AtomicUsize = AtomicUsize::new(256);

/// Minimum vector length before BLAS-1 kernels split across threads.
pub fn par_elems_threshold() -> usize {
    PAR_ELEMS.load(Ordering::Relaxed)
}

/// Sets the BLAS-1 parallelism threshold (process-wide).
pub fn set_par_elems_threshold(n: usize) {
    PAR_ELEMS.store(n, Ordering::Relaxed);
}

/// Minimum row count before SpMV splits across threads.
pub fn par_rows_threshold() -> usize {
    PAR_ROWS.load(Ordering::Relaxed)
}

/// Sets the SpMV parallelism threshold (process-wide).
pub fn set_par_rows_threshold(n: usize) {
    PAR_ROWS.store(n, Ordering::Relaxed);
}

/// True when splitting work across threads can actually use more than
/// one worker. The parallel kernels AND this into their size gates so a
/// `parallel: true` configuration on a 1-thread pool (the CI container)
/// falls back to the sequential forms instead of paying fork/join
/// dispatch for no concurrency. Never changes results — both paths are
/// bitwise identical.
pub fn pool_parallel() -> bool {
    rayon::current_num_threads() > 1
}
