//! Minimal complex arithmetic for the FFT paths.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    /// 0 + 0i.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// 1 + 0i.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Construct from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// A real number as a complex value.
    #[inline]
    pub const fn real(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Complex {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Complex {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert_eq!(-z, Complex::new(-3.0, 4.0));
    }

    #[test]
    fn multiplication() {
        // (1+2i)(3+4i) = 3+4i+6i-8 = -5+10i
        let p = Complex::new(1.0, 2.0) * Complex::new(3.0, 4.0);
        assert_eq!(p, Complex::new(-5.0, 10.0));
    }

    #[test]
    fn magnitude_and_conjugate() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sq(), 25.0);
        let conj = Complex::new(z.re, -z.im);
        assert_eq!((z * conj).re, 25.0);
        assert!((z * conj).im.abs() < 1e-12);
    }

    #[test]
    fn cis_unit_circle() {
        let q = Complex::cis(std::f64::consts::FRAC_PI_2);
        assert!((q.re).abs() < 1e-15);
        assert!((q.im - 1.0).abs() < 1e-15);
        assert!((Complex::cis(1.2).abs() - 1.0).abs() < 1e-15);
    }
}
