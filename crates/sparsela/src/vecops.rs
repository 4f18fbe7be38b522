//! Lane kernels of the batched Cholesky ([`crate::batch`]).
//!
//! Each kernel works on one lane block — the same structural position
//! across every system of a same-pattern group — with a fixed
//! `LANE_WIDTH`-wide body the compiler can keep in vector registers.
//! Every output element is written from exactly one input position, so
//! the kernels are bitwise identical to the naive per-lane loops.

/// Fixed lane width of the batched-solve lane loops ([`crate::batch`]).
const LANE_WIDTH: usize = 4;

/// Elementwise fused multiply-subtract across a lane block:
/// `acc[i] ← acc[i] − a[i]·b[i]`. The lane-inner kernel of the batched
/// Cholesky ([`crate::batch`]): each output element is written from
/// exactly one input position, so it is trivially deterministic, and the
/// fixed-width body lets the compiler keep the lanes in vector registers.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn lanes_mul_sub(acc: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(acc.len(), a.len(), "lanes_mul_sub: length mismatch");
    assert_eq!(acc.len(), b.len(), "lanes_mul_sub: length mismatch");
    let mut chunks = acc.chunks_exact_mut(LANE_WIDTH);
    let mut ca = a.chunks_exact(LANE_WIDTH);
    let mut cb = b.chunks_exact(LANE_WIDTH);
    for ((acc4, a4), b4) in (&mut chunks).zip(&mut ca).zip(&mut cb) {
        acc4[0] -= a4[0] * b4[0];
        acc4[1] -= a4[1] * b4[1];
        acc4[2] -= a4[2] * b4[2];
        acc4[3] -= a4[3] * b4[3];
    }
    for ((ai, &xi), &yi) in chunks.into_remainder().iter_mut().zip(ca.remainder()).zip(cb.remainder()) {
        *ai -= xi * yi;
    }
}

/// Elementwise division across a lane block: `num[i] ← num[i] / den[i]`.
/// Companion of [`lanes_mul_sub`] for the batched forward/backward solves.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn lanes_div(num: &mut [f64], den: &[f64]) {
    assert_eq!(num.len(), den.len(), "lanes_div: length mismatch");
    let mut chunks = num.chunks_exact_mut(LANE_WIDTH);
    let mut cd = den.chunks_exact(LANE_WIDTH);
    for (n4, d4) in (&mut chunks).zip(&mut cd) {
        n4[0] /= d4[0];
        n4[1] /= d4[1];
        n4[2] /= d4[2];
        n4[3] /= d4[3];
    }
    for (ni, &di) in chunks.into_remainder().iter_mut().zip(cd.remainder()) {
        *ni /= di;
    }
}

/// Cross-lane gather: `dst[l] ← srcs[l][idx]` for every lane `l`. The
/// scatter-phase kernel of the batched refactorization
/// ([`crate::batch::BatchCholesky::refactor`]): one shared structural
/// position `idx` is read from each lane's value array into a contiguous
/// lane block. `LANE_WIDTH`-chunked so the loop body has a fixed shape the
/// compiler can keep in registers; pure copies, so trivially bitwise
/// identical to the naive per-lane loop.
///
/// # Panics
/// Panics if `dst.len() != srcs.len()` or `idx` is out of range for a lane.
#[inline]
pub fn lanes_gather(dst: &mut [f64], srcs: &[&[f64]], idx: usize) {
    assert_eq!(dst.len(), srcs.len(), "lanes_gather: lane count mismatch");
    let mut chunks = dst.chunks_exact_mut(LANE_WIDTH);
    let mut cs = srcs.chunks_exact(LANE_WIDTH);
    for (d4, s4) in (&mut chunks).zip(&mut cs) {
        d4[0] = s4[0][idx];
        d4[1] = s4[1][idx];
        d4[2] = s4[2][idx];
        d4[3] = s4[3][idx];
    }
    for (di, si) in chunks.into_remainder().iter_mut().zip(cs.remainder()) {
        *di = si[idx];
    }
}

/// Strided variant of [`lanes_gather`] for interleaved destinations:
/// `dst[base + l] ← srcs[l][idx]` where the lane block starts at `base`
/// inside a larger lane-interleaved buffer. Same chunking, same bitwise
/// guarantee.
///
/// # Panics
/// Panics if the `base..base + srcs.len()` block is out of range for `dst`
/// or `idx` is out of range for a lane.
#[inline]
pub fn lanes_gather_at(dst: &mut [f64], base: usize, srcs: &[&[f64]], idx: usize) {
    lanes_gather(&mut dst[base..base + srcs.len()], srcs, idx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_gather_matches_naive_loop_bitwise() {
        // Lane counts straddling LANE_WIDTH multiples, including the
        // remainder path and a strided destination.
        for nl in [1usize, 3, 4, 5, 8, 11] {
            let lanes: Vec<Vec<f64>> = (0..nl)
                .map(|l| (0..17).map(|i| ((l * 31 + i * 7) % 97) as f64 * 0.137 - 3.0).collect())
                .collect();
            let srcs: Vec<&[f64]> = lanes.iter().map(|v| v.as_slice()).collect();
            for idx in [0usize, 6, 16] {
                let mut fast = vec![0.0f64; nl];
                lanes_gather(&mut fast, &srcs, idx);
                let naive: Vec<f64> = srcs.iter().map(|s| s[idx]).collect();
                for (f, n) in fast.iter().zip(&naive) {
                    assert_eq!(f.to_bits(), n.to_bits(), "nl={nl} idx={idx}");
                }
                let mut strided = vec![-1.0f64; 2 + nl + 3];
                lanes_gather_at(&mut strided, 2, &srcs, idx);
                for (f, n) in strided[2..2 + nl].iter().zip(&naive) {
                    assert_eq!(f.to_bits(), n.to_bits(), "strided nl={nl} idx={idx}");
                }
                assert!(strided[..2].iter().chain(&strided[2 + nl..]).all(|&v| v == -1.0));
            }
        }
    }

    #[test]
    fn lanes_mul_sub_matches_scalar_loop_bitwise() {
        // Lane blocks of every residue class mod LANE_WIDTH.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
            let mut acc: Vec<f64> = (0..n).map(|i| i as f64 * 0.09 - 0.4).collect();
            let mut reference = acc.clone();
            lanes_mul_sub(&mut acc, &a, &b);
            for i in 0..n {
                reference[i] -= a[i] * b[i];
            }
            for (p, q) in acc.iter().zip(&reference) {
                assert_eq!(p.to_bits(), q.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn lanes_div_matches_scalar_loop_bitwise() {
        for n in [0usize, 1, 4, 6, 9] {
            let den: Vec<f64> = (0..n).map(|i| 1.5 + (i as f64 * 0.23).sin()).collect();
            let mut num: Vec<f64> = (0..n).map(|i| i as f64 * 0.7 - 1.0).collect();
            let mut reference = num.clone();
            lanes_div(&mut num, &den);
            for i in 0..n {
                reference[i] /= den[i];
            }
            for (p, q) in num.iter().zip(&reference) {
                assert_eq!(p.to_bits(), q.to_bits(), "n={n}");
            }
        }
    }
}
