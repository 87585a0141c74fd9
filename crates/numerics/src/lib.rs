//! Numerical substrate for the ASUCA GPU-acceleration reproduction.
//!
//! This crate provides the building blocks every other crate in the
//! workspace is written against:
//!
//! * [`Real`] — an `f32`/`f64` abstraction so the GPU port can run in both
//!   single and double precision, as the paper evaluates (Fig. 4).
//! * [`Field3`] — a halo-padded 3-D host array in the original
//!   Fortran/CPU `kij` order (z fastest, then x, then y). The GPU's
//!   x-fastest XZY order (§IV-A.1) is a device-side matter: it lives in
//!   `asuca_gpu::view::Dims`, and `asuca_gpu::geom` transforms fields
//!   into it at upload.
//! * [`limiter`] — the Koren flux limiter used by ASUCA for monotone
//!   advection, plus alternatives selectable with `ModelConfig::limiter`
//!   and exercised by tests.
//! * [`tridiag`] — Thomas-algorithm solvers for the 1-D Helmholtz-like
//!   vertical implicit problem of the HE-VI scheme (§IV-A.3).
//! * [`par`] — the y-slab partition ([`par::split_ranges`]) and the
//!   default worker count ([`par::default_threads`]); the worker pool
//!   that runs the slabs is `vgpu::pool::WorkerPool`.
//! * [`simd`] — dependency-free 8-wide lanes ([`simd::F32x8`],
//!   [`simd::F64x8`]), with
//!   every scalar a lane of width 1, so each kernel x-walk body is
//!   written once and run at both widths ([`x_walk!`]); bitwise
//!   identical at either width by construction (`ASUCA_SIMD` knob,
//!   runtime AVX2 detection).

pub mod field;
pub mod limiter;
pub mod par;
pub mod real;
pub mod rng;
pub mod simd;
pub mod tridiag;

pub use field::Field3;
pub use real::Real;
