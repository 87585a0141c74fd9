//! Floating-point abstraction over `f32` and `f64`.
//!
//! The paper evaluates the GPU port in both single and double precision
//! (44.3 GFlops SP vs 14.6 GFlops DP on Tesla S1070, Fig. 4), so all
//! kernels in this reproduction are generic over [`Real`].

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A scalar floating-point type usable in every kernel of the model.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half.
    const HALF: Self;
    /// Two.
    const TWO: Self;
    /// Size of one element in bytes (4 for `f32`, 8 for `f64`); used by the
    /// virtual-GPU cost model to convert element counts into traffic.
    const BYTES: usize;
    /// Human-readable precision name ("single" / "double").
    const PRECISION: &'static str;

    /// The 8-wide SIMD lane type for this scalar (`F32x8` / `F64x8`,
    /// both [`LANES`](crate::simd::LANES) wide: one 256-bit register per
    /// f32 lane, two per f64 lane). Every lane op is element-wise
    /// identical to the scalar op, so a kernel body run at this width is
    /// bitwise equal to the same body run on the scalar itself, the
    /// width-1 lane (see [`crate::simd`]).
    type Lane: crate::simd::Lane<Self>;

    /// Lossy conversion from `f64` (exact for `f64`, rounded for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from `usize` grid indices.
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }

    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn exp(self) -> Self;
    fn ln(self) -> Self;
    fn powf(self, e: Self) -> Self;
    fn powi(self, e: i32) -> Self;
    fn sin(self) -> Self;
    fn cos(self) -> Self;
    fn max(self, other: Self) -> Self;
    fn min(self, other: Self) -> Self;
    fn is_finite(self) -> bool;
    /// Fused multiply-add `self * a + b` (maps to hardware FMA).
    fn mul_add(self, a: Self, b: Self) -> Self;
}

macro_rules! impl_real {
    ($t:ty, $bytes:expr, $name:expr, $lane:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const TWO: Self = 2.0;
            const BYTES: usize = $bytes;
            const PRECISION: &'static str = $name;

            type Lane = $lane;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }
            #[inline(always)]
            fn powi(self, e: i32) -> Self {
                <$t>::powi(self, e)
            }
            #[inline(always)]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline(always)]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
        }
    };
}

impl_real!(f32, 4, "single", crate::simd::F32x8);
impl_real!(f64, 8, "double", crate::simd::F64x8);

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<R: Real>() {
        let x = R::from_f64(1.5);
        assert_eq!(x.to_f64(), 1.5);
        assert_eq!(R::ZERO + R::ONE, R::ONE);
        assert_eq!(R::HALF + R::HALF, R::ONE);
        assert_eq!(R::ONE + R::ONE, R::TWO);
    }

    #[test]
    fn roundtrip_f32() {
        generic_roundtrip::<f32>();
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f32::PRECISION, "single");
    }

    #[test]
    fn roundtrip_f64() {
        generic_roundtrip::<f64>();
        assert_eq!(f64::BYTES, 8);
        assert_eq!(f64::PRECISION, "double");
    }

    #[test]
    fn math_functions_match_std() {
        let v = 2.37_f64;
        assert_eq!(Real::sqrt(v), v.sqrt());
        assert_eq!(Real::exp(v), v.exp());
        assert_eq!(Real::ln(v), v.ln());
        assert_eq!(Real::powf(v, 1.3), v.powf(1.3));
        assert_eq!(Real::powi(v, 3), v.powi(3));
    }

    #[test]
    fn mul_add_is_fma() {
        let a = 1.000000000000001_f64;
        let r = Real::mul_add(a, a, -1.0);
        assert!((r - (a * a - 1.0)).abs() < 1e-15);
    }

    #[test]
    fn from_usize_converts() {
        assert_eq!(<f32 as Real>::from_usize(7), 7.0_f32);
        assert_eq!(<f64 as Real>::from_usize(7), 7.0_f64);
    }
}
