//! Numerical substrate for the ASUCA GPU-acceleration reproduction.
//!
//! This crate provides the building blocks every other crate in the
//! workspace is written against:
//!
//! * [`Real`] — an `f32`/`f64` abstraction so the GPU port can run in both
//!   single and double precision, as the paper evaluates (Fig. 4).
//! * [`Field3`] — a 3-D array with halo cells and a runtime-selectable
//!   memory [`Layout`]: `KIJ` (z fastest; the original Fortran/CPU order)
//!   or `XZY` (x fastest, then z, then y; the order the paper chooses for
//!   coalesced GPU access and y-direction halo transfer, §IV-A.1).
//! * [`limiter`] — the Koren flux limiter used by ASUCA for monotone
//!   advection, plus alternatives used by the ablation benches.
//! * [`tridiag`] — Thomas-algorithm solvers for the 1-D Helmholtz-like
//!   vertical implicit problem of the HE-VI scheme (§IV-A.3).
//! * [`par`] — lightweight slab-parallel iteration built on scoped threads
//!   scoped threads.
//! * [`simd`] — dependency-free 8-wide lanes ([`simd::F32x8`],
//!   [`simd::F64x8`]), with
//!   every scalar a lane of width 1, so each kernel x-walk body is
//!   written once and run at both widths ([`x_walk!`]); bitwise
//!   identical at either width by construction (`ASUCA_SIMD` knob,
//!   runtime AVX2 detection).

pub mod field;
pub mod layout;
pub mod limiter;
pub mod par;
pub mod real;
pub mod reduce;
pub mod rng;
pub mod simd;
pub mod stencil;
pub mod tridiag;

pub use field::Field3;
pub use layout::Layout;
pub use real::Real;
