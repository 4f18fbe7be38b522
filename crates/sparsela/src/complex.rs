//! A minimal `f64` complex number.
//!
//! The power-system crates need complex arithmetic for bus admittances and
//! phasors. We implement the handful of operations they use rather than pull
//! in an external crate.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A double-precision complex number `re + j·im`.
///
/// Power-engineering convention: the imaginary unit is written `j`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// The additive identity.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const J: Cplx = Cplx { re: 0.0, im: 1.0 };

    /// Creates `re + j·im`.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// Creates a phasor from polar form: `mag·e^{j·ang}` (angle in radians).
    #[inline]
    pub fn from_polar(mag: f64, ang: f64) -> Self {
        Cplx::new(mag * ang.cos(), mag * ang.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cplx::new(self.re, -self.im)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns an infinite/NaN value when `z == 0`, matching IEEE-754
    /// division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Cplx::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Cplx::new(self.re * s, self.im * s)
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline]
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    #[inline]
    fn add_assign(&mut self, rhs: Cplx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline]
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cplx {
    #[inline]
    fn sub_assign(&mut self, rhs: Cplx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: f64) -> Cplx {
        self.scale(rhs)
    }
}

impl Div for Cplx {
    type Output = Cplx;
    // Complex division *is* multiplication by the reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Cplx) -> Cplx {
        self * rhs.recip()
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn div(self, rhs: f64) -> Cplx {
        Cplx::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline]
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl std::fmt::Display for Cplx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+j{:.6}", self.re, self.im)
        } else {
            write!(f, "{:.6}-j{:.6}", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cplx, b: Cplx) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Cplx::new(1.5, -2.25);
        let b = Cplx::new(-0.5, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Cplx::new(2.0, 3.0);
        let b = Cplx::new(-1.0, 0.5);
        // (2+3j)(-1+0.5j) = -2 + 1j - 3j + 1.5 j^2 = -3.5 - 2j
        assert!(close(a * b, Cplx::new(-3.5, -2.0)));
    }

    #[test]
    fn div_inverts_mul() {
        let a = Cplx::new(0.3, -0.9);
        let b = Cplx::new(1.2, 0.7);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn recip_of_unit() {
        let one = Cplx::new(1.0, 0.0);
        assert!(close(one.recip(), one));
        assert!(close(Cplx::J.recip(), -Cplx::J));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Cplx::from_polar(2.0, 0.75);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.im.atan2(z.re) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn conj_negates_imaginary() {
        let z = Cplx::new(1.0, 2.0);
        assert_eq!(z.conj(), Cplx::new(1.0, -2.0));
        assert!((z * z.conj()).im.abs() < 1e-15);
        assert!(((z * z.conj()).re - z.norm_sqr()).abs() < 1e-15);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Cplx::new(1.0, -2.0)), "1.000000-j2.000000");
    }
}
