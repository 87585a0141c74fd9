//! Dependency-free portable SIMD lanes for the kernel x-walks.
//!
//! The paper's single-GPU win comes from making unit-stride x the fast
//! axis so a warp's 32 threads issue one coalesced transaction per
//! stencil tap (§IV-A). The host analog is an 8-wide lane walking the
//! same contiguous padded x-row: one lane load per tap, eight points
//! retired per loop iteration. An [`F32x8`] tap fills one 256-bit AVX
//! register and an [`F64x8`] tap two, so an f32 lane op retires twice
//! the points of an f64 one — the host side of the paper's single- vs
//! double-precision gap. No external crates are used (the build is
//! fully offline); everything here is plain arrays plus runtime feature
//! detection from `std`.
//!
//! ## One body per kernel: scalars are width-1 lanes
//!
//! [`Lane`] is implemented by the 8-wide [`F64x8`] / [`F32x8`] *and* by
//! every [`Real`] scalar itself, with `N = 1` and each op the scalar op.
//! A per-point body is therefore written once, generic over
//! `L: Lane<R>`, and run at both widths: [`x_walk!`](crate::x_walk)
//! runs `R::Lane` while a whole lane fits in the row, then the same body
//! at width 1 for the remainder (`ASUCA_SIMD=0` runs the whole row at
//! width 1). Inside the walk the lane type is reached through a
//! zero-sized [`Width`] token (`lw.splat(x)`, `lw.load_at(slice, at)`,
//! `row.lanes(lw, i)`), because a block cannot name the type a macro
//! chose for it.
//!
//! ## The bit-identity rule
//!
//! Every lane operation is defined **element-wise in terms of the exact
//! scalar operation the kernels already use** (`+`, `*`, `Real::max`,
//! `Real::mul_add`, …), and branches become lane selects that pick the
//! value the scalar branch would have produced. Per-point operation
//! order is therefore preserved lane-wise and the 8-wide pass is bitwise
//! identical to the width-1 pass — asserted end-to-end by
//! `tests/determinism.rs` (threads × `ASUCA_SIMD` matrix, both
//! precisions) and per-op by the tests below.
//!
//! ## Selects: eager or lazy
//!
//! [`Lane::select_ge`] takes both sides as values: use it when both
//! sides are cheap (a constant, an operand). When the choice picks the
//! operands of an expensive function — the upwind stencil of
//! [`limited_flux`](crate::limiter::limited_flux) — use
//! [`Lane::select_ge_then`]: a wide lane selects the operands per lane
//! and evaluates the function once, a width-1 lane branches and
//! evaluates it on the taken operands only, as a hand-written scalar
//! branch would. A guard whose one side is the
//! exception (the limiter's near-zero divisor) uses
//! [`Lane::select_lt_cold`]: width 1 keeps it a branch, where LLVM would
//! otherwise turn the cheap sides into a branchless select in front of
//! the divide.
//!
//! ## How the lanes get wide
//!
//! One mechanism: twin stamping ([`simd_kernel!`](crate::simd_kernel)).
//! Each kernel entry point is expanded twice — a portable build and an
//! AVX2+FMA `#[target_feature]` twin — with a tiny runtime dispatcher.
//! *Closures defined inside a `#[target_feature]` function inherit its
//! features*, so the `launch`/`launch_par` kernel bodies stamped into
//! the twin compile with 256-bit registers available and the
//! `[f32; 8]` / `[f64; 8]` lane ops become `vaddps`/`vmulpd`/…. The
//! lane types themselves are plain 8-element arrays with element-wise
//! ops; off x86-64, or with the knob off, they compile as such.
//!
//! A wide loop only pays off when every lane op inlines: an out-of-line
//! helper call inside it (each behind a `vzeroupper`) costs more than the
//! lanes win, with the same bits. The verify skill has an `objdump`
//! recipe that checks a kernel's wide loop for `call`s.
//!
//! `ASUCA_SIMD=0` runs every x-walk at width 1 process-wide (A/B
//! verification knob); `ASUCA_SIMD=1` forces the 8-wide pass even where
//! no vector ISA was detected (portable arrays, still bit-identical).

use crate::real::Real;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// Width of the wide lane types [`F64x8`] and [`F32x8`].
pub const LANES: usize = 8;

// One width for both precisions. perfbench's limiter layer steps its
// loop by `LANES` while loading `R::Lane`, and the warm-rain and
// monitor kernels (`kernels/physics.rs`, `monitor.rs`) size their
// per-lane arrays by `LANES`; a per-type width would panic or silently
// miscount there.
const _: () = assert!(
    <<f32 as Real>::Lane as Lane<f32>>::N == LANES
        && <<f64 as Real>::Lane as Lane<f64>>::N == LANES
);

/// A fixed-width vector of `R` with element-wise semantics identical to
/// the scalar [`Real`] operations (see the module-level bit-identity
/// rule). Implemented by the wide `R::Lane` and, at width 1, by `R`.
pub trait Lane<R: Real>:
    Copy
    + Clone
    + Debug
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
    + 'static
{
    /// Number of elements ([`LANES`] for the wide types, 1 for `R`).
    const N: usize;

    /// Broadcast one scalar to all lanes.
    fn splat(x: R) -> Self;
    /// Build a lane from a per-index function (lane order 0..N).
    fn from_fn(f: impl FnMut(usize) -> R) -> Self;
    /// Unaligned load of the first `N` elements of `src`.
    fn load(src: &[R]) -> Self;
    /// Load of the `N` elements of `src` starting at `at` (at width 1
    /// the plain index `src[at]`, one bounds check).
    fn load_at(src: &[R], at: usize) -> Self;
    /// Store into the `N` elements of `dst` starting at `at`.
    fn store_at(self, dst: &mut [R], at: usize);
    /// Read one lane.
    fn extract(self, lane: usize) -> R;
    /// Apply a scalar function per lane (lane order 0..N) — used for
    /// transcendental cores (`powf`/`exp`) that must stay on the exact
    /// scalar libm path to preserve bit-identity.
    fn map(self, f: impl FnMut(R) -> R) -> Self;

    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    /// Element-wise `Real::max` (same NaN/±0 behaviour as the scalar op).
    fn max(self, o: Self) -> Self;
    /// Element-wise `Real::min`.
    fn min(self, o: Self) -> Self;
    /// Element-wise fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Per lane: `if a >= b { x } else { y }` — the branchless form of a
    /// scalar `>=` branch whose both sides are pure values.
    fn select_ge(a: Self, b: Self, x: Self, y: Self) -> Self;
    /// Per lane: `if a >= b { f(x) } else { f(y) }`, for an element-wise
    /// `f` too expensive to evaluate twice. A wide lane selects each
    /// operand per lane and evaluates `f` once; width 1 branches and
    /// evaluates `f` on the taken operands only. `f` must be pure.
    fn select_ge_then<const K: usize>(
        a: Self,
        b: Self,
        x: [Self; K],
        y: [Self; K],
        f: impl FnOnce([Self; K]) -> Self,
    ) -> Self;
    /// Per lane: `if a < b { x } else { y }`, for a guard whose `a < b`
    /// side is the exception (e.g. a near-zero divisor). A wide lane
    /// evaluates `x` and selects; width 1 branches with `x` marked cold,
    /// so the usual path pays one compare-and-branch instead of a
    /// branchless select feeding the value.
    fn select_lt_cold(a: Self, b: Self, x: impl FnOnce() -> Self, y: Self) -> Self;
}

/// Every scalar is a lane of width 1: each op is the scalar op itself,
/// and the lazy select is the scalar branch.
impl<R: Real> Lane<R> for R {
    const N: usize = 1;

    #[inline(always)]
    fn splat(x: R) -> Self {
        x
    }
    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> R) -> Self {
        f(0)
    }
    #[inline(always)]
    fn load(src: &[R]) -> Self {
        src[0]
    }
    #[inline(always)]
    fn load_at(src: &[R], at: usize) -> Self {
        src[at]
    }
    #[inline(always)]
    fn store_at(self, dst: &mut [R], at: usize) {
        dst[at] = self;
    }
    #[inline(always)]
    fn extract(self, lane: usize) -> R {
        debug_assert_eq!(lane, 0, "a scalar has one lane");
        self
    }
    #[inline(always)]
    fn map(self, mut f: impl FnMut(R) -> R) -> Self {
        f(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        Real::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Real::sqrt(self)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        Real::max(self, o)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        Real::min(self, o)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Real::mul_add(self, a, b)
    }
    #[inline(always)]
    fn select_ge(a: Self, b: Self, x: Self, y: Self) -> Self {
        if a >= b {
            x
        } else {
            y
        }
    }
    #[inline(always)]
    fn select_ge_then<const K: usize>(
        a: Self,
        b: Self,
        x: [Self; K],
        y: [Self; K],
        f: impl FnOnce([Self; K]) -> Self,
    ) -> Self {
        if a >= b {
            f(x)
        } else {
            f(y)
        }
    }
    #[inline(always)]
    fn select_lt_cold(a: Self, b: Self, x: impl FnOnce() -> Self, y: Self) -> Self {
        if a < b {
            std::hint::cold_path();
            x()
        } else {
            y
        }
    }
}

/// Eight `f64` lanes (two 256-bit AVX registers).
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(32))]
pub struct F64x8(pub [f64; LANES]);

/// Eight `f32` lanes (one 256-bit AVX register).
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(32))]
pub struct F32x8(pub [f32; LANES]);

/// One element-wise binary op of a wide lane type over its lane indices
/// `$l`: each element is the scalar IEEE-754 operation.
macro_rules! lane_binop {
    ($name:ident, [$($l:literal)*], $trait:ident, $fn:ident, $op:tt) => {
        impl $trait for $name {
            type Output = Self;
            #[inline(always)]
            fn $fn(self, o: Self) -> Self {
                $name([$(self.0[$l] $op o.0[$l]),*])
            }
        }
    };
}

/// The operators and the [`Lane`] impl of a wide lane type (all
/// element-wise scalar ops, per the bit-identity rule), given its lane
/// indices `0..LANES` as literals.
macro_rules! lane_common {
    ($name:ident, $elem:ty, [$($l:literal)*]) => {
        lane_binop!($name, [$($l)*], Add, add, +);
        lane_binop!($name, [$($l)*], Sub, sub, -);
        lane_binop!($name, [$($l)*], Mul, mul, *);
        lane_binop!($name, [$($l)*], Div, div, /);
        impl Neg for $name {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| -self.0[l])
            }
        }
        impl AddAssign for $name {
            #[inline(always)]
            fn add_assign(&mut self, o: Self) {
                *self = *self + o;
            }
        }
        impl SubAssign for $name {
            #[inline(always)]
            fn sub_assign(&mut self, o: Self) {
                *self = *self - o;
            }
        }
        impl MulAssign for $name {
            #[inline(always)]
            fn mul_assign(&mut self, o: Self) {
                *self = *self * o;
            }
        }
        impl DivAssign for $name {
            #[inline(always)]
            fn div_assign(&mut self, o: Self) {
                *self = *self / o;
            }
        }

        impl Lane<$elem> for $name {
            const N: usize = LANES;

            #[inline(always)]
            fn splat(x: $elem) -> Self {
                $name([x; LANES])
            }
            #[inline(always)]
            fn from_fn(mut f: impl FnMut(usize) -> $elem) -> Self {
                $name([$(f($l)),*])
            }
            #[inline(always)]
            fn load(src: &[$elem]) -> Self {
                let s: &[$elem; LANES] = src[..LANES].try_into().unwrap();
                $name(*s)
            }
            #[inline(always)]
            fn load_at(src: &[$elem], at: usize) -> Self {
                <Self as Lane<$elem>>::load(&src[at..])
            }
            #[inline(always)]
            fn store_at(self, dst: &mut [$elem], at: usize) {
                dst[at..][..LANES].copy_from_slice(&self.0);
            }
            #[inline(always)]
            fn extract(self, lane: usize) -> $elem {
                self.0[lane]
            }
            #[inline(always)]
            fn map(self, mut f: impl FnMut($elem) -> $elem) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| f(self.0[l]))
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| Real::abs(self.0[l]))
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| Real::sqrt(self.0[l]))
            }
            #[inline(always)]
            fn max(self, o: Self) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| Real::max(self.0[l], o.0[l]))
            }
            #[inline(always)]
            fn min(self, o: Self) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| Real::min(self.0[l], o.0[l]))
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| Real::mul_add(self.0[l], a.0[l], b.0[l]))
            }
            #[inline(always)]
            fn select_ge(a: Self, b: Self, x: Self, y: Self) -> Self {
                <Self as Lane<$elem>>::from_fn(|l| if a.0[l] >= b.0[l] { x.0[l] } else { y.0[l] })
            }
            #[inline(always)]
            fn select_ge_then<const K: usize>(
                a: Self,
                b: Self,
                x: [Self; K],
                y: [Self; K],
                f: impl FnOnce([Self; K]) -> Self,
            ) -> Self {
                // A plain loop, not `std::array::from_fn`: at 8 lanes LLVM
                // stops inlining `from_fn`'s closure and the wide loop
                // calls it out of line, behind a `vzeroupper` each time.
                let mut s = x;
                for m in 0..K {
                    s[m] = <Self as Lane<$elem>>::select_ge(a, b, x[m], y[m]);
                }
                f(s)
            }
            #[inline(always)]
            fn select_lt_cold(a: Self, b: Self, x: impl FnOnce() -> Self, y: Self) -> Self {
                let x = x();
                <Self as Lane<$elem>>::from_fn(|l| if a.0[l] < b.0[l] { x.0[l] } else { y.0[l] })
            }
        }
    };
}

lane_common!(F64x8, f64, [0 1 2 3 4 5 6 7]);
lane_common!(F32x8, f32, [0 1 2 3 4 5 6 7]);

/// Whether the CPU offers the AVX2+FMA fast path (runtime detection,
/// cached by `std`). Always `false` off x86-64.
#[inline]
pub fn lanes_native() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Process-wide default for the lane path, mirroring
/// `par::default_threads`: the `ASUCA_SIMD` env var wins (`0`/`off`/
/// `false`/`no` → scalar, anything else → lanes); unset means lanes
/// exactly when [`lanes_native`] detects the vector ISA. Cached after
/// the first call.
pub fn default_enabled() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("ASUCA_SIMD") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !matches!(v.as_str(), "0" | "off" | "false" | "no")
        }
        Err(_) => lanes_native(),
    })
}

/// Zero-sized token naming the lane type `L` of one
/// [`x_walk!`](crate::x_walk) pass.
///
/// A walk body is a block expanded once per width, and a block cannot
/// name the type the macro chose for it; the token carries it instead,
/// so `lw.splat(x)`, `lw.load_at(slice, at)` and `row.lanes(lw, i)`
/// produce `L` values and type inference does the rest.
#[derive(Clone, Copy)]
pub struct Width<R, L>(PhantomData<fn() -> (R, L)>);

impl<R: Real, L: Lane<R>> Width<R, L> {
    #[inline(always)]
    pub fn new() -> Self {
        Width(PhantomData)
    }
    /// Elements per lane of this pass (`L::N`).
    #[inline(always)]
    pub fn n(self) -> usize {
        L::N
    }
    /// [`Lane::splat`] at this width.
    #[inline(always)]
    pub fn splat(self, x: R) -> L {
        L::splat(x)
    }
    /// [`Lane::load_at`] at this width.
    #[inline(always)]
    pub fn load_at(self, src: &[R], at: usize) -> L {
        L::load_at(src, at)
    }
    /// [`Lane::from_fn`] at this width.
    #[inline(always)]
    pub fn from_fn(self, f: impl FnMut(usize) -> R) -> L {
        L::from_fn(f)
    }
}

impl<R: Real, L: Lane<R>> Default for Width<R, L> {
    fn default() -> Self {
        Self::new()
    }
}

/// Walk the x-range `lo..hi` (`isize`) with one body at two widths.
///
/// ```text
/// numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
///     out.set_lanes(lw, i, a.lanes(lw, i) * lw.splat(c));
/// });
/// ```
///
/// With `lanes_on`, the body runs at `R::Lane` while a whole lane fits
/// (`i + N <= hi`, `i` advancing by `N`); then, and for the whole row
/// when `lanes_on` is false, it runs at width 1 (`lw` names `R` itself).
/// Every point is computed exactly once, by the same expression, in the
/// same i-order, so both passes give the bits of a scalar walk (see the
/// module-level bit-identity rule).
///
/// The body is expanded once per width and must not `break` or
/// `continue` the walk. The arguments read like a call with a closure,
/// so rustfmt formats the body wherever it formats the caller.
#[macro_export]
macro_rules! x_walk {
    ($R:ty, $lanes_on:expr, $range:expr, |$w:ident, $i:ident| $body:block) => {{
        let range: ::core::ops::Range<isize> = $range;
        let mut $i = range.start;
        if $lanes_on {
            let $w = $crate::simd::Width::<$R, <$R as $crate::Real>::Lane>::new();
            let n = <<$R as $crate::Real>::Lane as $crate::simd::Lane<$R>>::N as isize;
            while $i + n <= range.end {
                $body
                $i += n;
            }
        }
        let $w = $crate::simd::Width::<$R, $R>::new();
        while $i < range.end {
            $body
            $i += 1;
        }
    }};
}

/// Stamp a kernel entry point twice — a portable build and (on x86-64)
/// an AVX2+FMA `#[target_feature]` twin — plus a dispatcher that picks
/// the twin at runtime.
///
/// ```text
/// numerics::simd_kernel! {
/// pub fn my_kernel<R: Real>(dev: &mut Device<R>, x: Buf<R>) {
///     ... body with dev.launch_par(..., |mem, j0, j1| { ... }) ...
/// }
/// }
/// ```
///
/// Why this exists: `#[target_feature]` inheritance is *syntactic* —
/// the launch closures holding the kernel loops compile with the
/// features of the function they are written in, and LLVM will not
/// inline a multi-hundred-instruction closure into a feature frame by
/// cost model alone. Stamping the whole body into a
/// `#[target_feature(enable = "avx2,fma")]` twin makes the closures
/// inherit the features, so the 8-wide lane ops compile to 256-bit
/// instructions — with no global `-C target-feature` baseline (the
/// portable twin still runs on any x86-64) and no per-op dispatch.
///
/// The twin is entered only when the device's SIMD knob is on *and*
/// [`lanes_native`](crate::simd::lanes_native) detects AVX2+FMA;
/// `ASUCA_SIMD=0` therefore measures the width-1 walk at baseline
/// codegen, a true A/B. Either twin
/// performs the exact same IEEE-754 operations per point (see the
/// module-level bit-identity rule), so the choice never changes
/// results.
///
/// Requirements: the first parameter must be the device handle (any
/// type with a `simd_enabled(&self) -> bool` method), the remaining
/// parameters plain `name: Type` bindings. An optional return type is
/// passed straight through both twins (the dispatcher tail-calls the
/// chosen twin, so fallible kernels can return `Result`).
#[macro_export]
macro_rules! simd_kernel {
    ($(#[$meta:meta])* $vis:vis fn $name:ident<$R:ident: Real>(
        $dev:ident: $devty:ty,
        $($arg:ident: $ty:ty),* $(,)?
    ) $(-> $ret:ty)? $body:block) => {
        $(#[$meta])*
        $vis fn $name<$R: $crate::Real>($dev: $devty, $($arg: $ty),*) $(-> $ret)? {
            #[allow(clippy::too_many_arguments)]
            fn portable<$R: $crate::Real>($dev: $devty, $($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            #[allow(clippy::too_many_arguments)]
            fn lanes_arch<$R: $crate::Real>($dev: $devty, $($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            if $dev.simd_enabled() && $crate::simd::lanes_native() {
                // SAFETY: AVX2+FMA presence was verified by
                // `lanes_native` on this very call.
                return unsafe { lanes_arch::<$R>($dev, $($arg),*) };
            }
            portable::<$R>($dev, $($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One operand pair per lane: sign changes, ±0 against ∓0,
    /// subnormals, a huge value, and an equal pair.
    fn vals() -> ([f64; LANES], [f64; LANES]) {
        (
            [1.5, -2.25, 5.0e-324, 7.75, 0.0, -0.0, 1.0e30, -3.5],
            [-0.5, 2.25, 1.0e-310, -7.75, -0.0, 0.0, -1.0e30, -3.5],
        )
    }

    /// Exact bits of a scalar of either precision (widening to f64 is
    /// exact, signed zeros included).
    fn bits<R: Real>(x: R) -> u64 {
        x.to_f64().to_bits()
    }

    fn operands<R: Real>() -> (Vec<R>, Vec<R>) {
        // Two lanes' worth, with subnormals of either precision (1e-40
        // is subnormal in f32) and products that overflow f32.
        let a = [
            1.5, -2.25, 1.0e-300, 7.75, 0.0, -3.5, 1.0e30, -0.0, //
            5.0e-324, 1.0e-40, -1.0e30, 3.0, -0.0, 0.0, 1.0e-310, 9.5,
        ];
        let b = [
            -0.5, 2.25, 3.0e-300, -7.75, -0.0, 0.125, 3.0, 2.0, //
            2.0, -1.0e-40, 1.0e30, -3.0, -0.0, -0.0, 0.5, 9.5,
        ];
        (
            a.iter().map(|&x| R::from_f64(x)).collect(),
            b.iter().map(|&x| R::from_f64(x)).collect(),
        )
    }

    /// Every op of lane type `L` equals the scalar op per element, to
    /// the last bit.
    fn ops_match_scalar<R: Real, L: Lane<R>>() {
        let (a, b) = operands::<R>();
        for f in (0..a.len()).step_by(L::N) {
            let (va, vb) = (L::load(&a[f..]), L::load(&b[f..]));
            for l in 0..L::N {
                let (x, y) = (a[f + l], b[f + l]);
                assert_eq!(bits((va + vb).extract(l)), bits(x + y));
                assert_eq!(bits((va - vb).extract(l)), bits(x - y));
                assert_eq!(bits((va * vb).extract(l)), bits(x * y));
                assert_eq!(bits((va / vb).extract(l)), bits(x / y));
                assert_eq!(bits((-va).extract(l)), bits(-x));
                assert_eq!(bits(va.abs().extract(l)), bits(x.abs()));
                assert_eq!(bits(va.abs().sqrt().extract(l)), bits(x.abs().sqrt()));
                assert_eq!(bits(va.mul_add(vb, vb).extract(l)), bits(x.mul_add(y, y)));
            }
        }
    }

    /// The contract everything else rests on: every lane op equals the
    /// scalar op per element, to the last bit — for the wide lanes and
    /// for the scalars run as width-1 lanes, in both precisions.
    #[test]
    fn lane_ops_bitwise_match_scalar() {
        ops_match_scalar::<f64, F64x8>();
        ops_match_scalar::<f64, f64>();
        ops_match_scalar::<f32, F32x8>();
        ops_match_scalar::<f32, f32>();
    }

    fn max_min_match_scalar<R: Real, L: Lane<R>>() {
        let edge = [0.0, -0.0, 1.0, -1.0].map(R::from_f64);
        for &x in &edge {
            for &y in &edge {
                let (vx, vy) = (L::splat(x), L::splat(y));
                for l in 0..L::N {
                    assert_eq!(bits(vx.max(vy).extract(l)), bits(x.max(y)));
                    assert_eq!(bits(vx.min(vy).extract(l)), bits(x.min(y)));
                }
            }
        }
    }

    /// `max`/`min` are the one place vector ISAs (`vmaxpd` returns SRC2
    /// on equal or NaN) and Rust's scalar `maxnum` could diverge on
    /// ±0.0; the lane impls therefore call the scalar op per element and
    /// this test pins the equivalence, signed zeros included.
    #[test]
    fn lane_max_min_match_scalar_including_signed_zero() {
        max_min_match_scalar::<f64, F64x8>();
        max_min_match_scalar::<f64, f64>();
        max_min_match_scalar::<f32, F32x8>();
        max_min_match_scalar::<f32, f32>();
    }

    /// The width-1 lazy selects are the scalar branch: `f` runs once, on
    /// the taken operands. The wide lane selects per lane, then runs `f`
    /// once.
    #[test]
    fn lazy_select_evaluates_only_the_taken_side_at_width_one() {
        use std::cell::Cell;
        let calls = Cell::new(0);
        let f = |[p, q]: [f64; 2]| {
            calls.set(calls.get() + 1);
            p - q
        };
        let ge_then = |a, b| <f64 as Lane<f64>>::select_ge_then(a, b, [10.0, 1.0], [-10.0, 1.0], f);
        assert_eq!(ge_then(2.0, 1.0), 9.0);
        assert_eq!(ge_then(1.0, 2.0), -11.0);
        // Equal operands take the `>=` side.
        assert_eq!(ge_then(2.0, 2.0), 9.0);
        assert_eq!(calls.get(), 3);

        let a = F64x8([2.0, 1.0, 2.0, 0.0, -0.0, 0.0, 1.0e30, -1.0]);
        let b = F64x8([1.0, 2.0, 2.0, 0.5, 0.0, -0.0, 1.0e-310, 1.0]);
        let (x, y) = (F64x8::splat(10.0), F64x8::splat(-10.0));
        let v = F64x8::select_ge_then(a, b, [x, y], [y, x], |[p, q]| {
            calls.set(calls.get() + 1);
            p - q
        });
        assert_eq!(v.0, [20.0, -20.0, 20.0, -20.0, 20.0, 20.0, 20.0, -20.0]);
        assert_eq!(calls.get(), 4);

        // The cold select's `x` side runs at width 1 only when taken
        // (equal operands are not `<`).
        let x = || {
            calls.set(calls.get() + 1);
            10.0
        };
        assert_eq!(<f64 as Lane<f64>>::select_lt_cold(1.0, 2.0, x, -10.0), 10.0);
        assert_eq!(calls.get(), 5);
        assert_eq!(
            <f64 as Lane<f64>>::select_lt_cold(2.0, 2.0, x, -10.0),
            -10.0
        );
        assert_eq!(calls.get(), 5);
    }

    #[test]
    fn selects_mirror_scalar_branches() {
        let (a, b) = vals();
        let (va, vb) = (F64x8(a), F64x8(b));
        let x = F64x8::from_fn(|l| 10.0 + l as f64);
        let y = F64x8::from_fn(|l| -10.0 - l as f64);
        for l in 0..LANES {
            let ge = if a[l] >= b[l] { x.0[l] } else { y.0[l] };
            let lt = if a[l] < b[l] { x.0[l] } else { y.0[l] };
            assert_eq!(F64x8::select_ge(va, vb, x, y).0[l], ge);
            assert_eq!(F64x8::select_lt_cold(va, vb, || x, y).0[l], lt);
        }
        // Equal operands take the scalar `>=` branch, ±0 included.
        let z = F64x8::splat(2.0);
        assert_eq!(F64x8::select_ge(z, z, x, y).0, x.0);
        assert_eq!(F64x8::select_lt_cold(z, z, || x, y).0, y.0);
        let (pz, nz) = (F64x8::splat(0.0), F64x8::splat(-0.0));
        assert_eq!(F64x8::select_ge(nz, pz, x, y).0, x.0);
        assert_eq!(F64x8::select_lt_cold(nz, pz, || x, y).0, y.0);
    }

    #[test]
    fn load_store_roundtrip_with_offset() {
        let src: Vec<f64> = (0..14).map(|i| i as f64 * 0.5).collect();
        let v = F64x8::load(&src[3..]);
        let want = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];
        assert_eq!(v.0, want);
        assert_eq!(F64x8::load_at(&src, 3), v);
        let mut dst = [0.0f64; 14];
        v.store_at(&mut dst, 2);
        assert_eq!(dst[1], 0.0);
        assert_eq!(&dst[2..10], &want);
        assert_eq!(dst[10], 0.0);
        for (l, &w) in want.iter().enumerate() {
            assert_eq!(v.extract(l), w);
        }
    }

    #[test]
    fn map_applies_scalar_function_per_lane() {
        let v = F64x8([1.0, 2.0, 3.0, 4.0, 0.5, 1.0e-310, 1.0e30, 0.0]);
        let m = v.map(|x| x.powf(1.3));
        for l in 0..LANES {
            assert_eq!(m.0[l].to_bits(), v.0[l].powf(1.3).to_bits());
        }
    }

    #[test]
    fn f32_lanes_work_too() {
        let v = F32x8([1.0, 2.0, 3.0, 4.0, -0.0, 1.0e-40, 1.0e30, -5.0]);
        let w = F32x8::splat(2.0);
        assert_eq!((v * w).0[..4], [2.0, 4.0, 6.0, 8.0]);
        for l in 0..LANES {
            assert_eq!((v * w).0[l].to_bits(), (v.0[l] * 2.0).to_bits());
        }
        // 1e30 squared overflows f32 in its lane only.
        assert_eq!((v * v).0[6], f32::INFINITY);
        assert_eq!(<F32x8 as Lane<f32>>::N, LANES);
        assert_eq!(<f32 as Lane<f32>>::N, 1);
    }

    #[test]
    fn x_walk_covers_each_point_once_at_both_widths() {
        for lanes_on in [false, true] {
            for hi in 0..20isize {
                let mut out = [0.0f64; 21];
                let mut widths = Vec::new();
                crate::x_walk!(f64, lanes_on, 1..hi, |lw, i| {
                    let v = lw.from_fn(|e| (i + e as isize) as f64);
                    let cur = lw.load_at(&out, i as usize);
                    (cur + v).store_at(&mut out, i as usize);
                    widths.push(lw.n());
                });
                for (i, &o) in out.iter().enumerate() {
                    let want = if i >= 1 && (i as isize) < hi {
                        i as f64
                    } else {
                        0.0
                    };
                    assert_eq!(o, want, "point {i} of 1..{hi}, lanes {lanes_on}");
                }
                let wide = if lanes_on {
                    ((hi - 1).max(0) as usize) / LANES
                } else {
                    0
                };
                assert_eq!(widths.iter().filter(|&&n| n == LANES).count(), wide);
            }
        }
    }

    #[test]
    fn generic_access_through_real() {
        fn sum_lanes<R: Real>(xs: &[R]) -> R {
            let v = R::Lane::load(xs);
            let mut acc = R::ZERO;
            for l in 0..R::Lane::N {
                acc += v.extract(l);
            }
            acc
        }
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(sum_lanes(&xs.map(|x: f64| x)), 36.0);
        assert_eq!(sum_lanes(&xs.map(|x: f64| x as f32)), 36.0);
    }
}
