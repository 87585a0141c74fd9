//! The paper's contribution: the full GPU port of the ASUCA dynamical
//! core, written against the virtual GPU (`vgpu`) exactly as the
//! original was written against CUDA.
//!
//! Structure mirrors the paper:
//!
//! * [`view`] — XZY-ordered device array views (§IV-A.1: x fastest for
//!   coalescing, y outermost so y-halo slabs are contiguous).
//! * [`geom`] — device-resident grid metrics and base-state fields.
//! * [`fields`] — the full device state (every prognostic, tendency and
//!   scratch array lives in GPU memory; the host only orchestrates).
//! * [`kernels`] — one module per computational component of Fig. 1
//!   (advection, Coriolis, pressure gradient, continuity, 1-D
//!   Helmholtz, EOS, warm rain, precipitation, boundary/pack ops, array
//!   copies), each with an analytic FLOP/byte cost and a `Region`
//!   parameter implementing the paper's inner / x-boundary / y-boundary
//!   kernel splitting (overlap method 2).
//! * `step` — the one step program both drivers run: the Fig. 1
//!   execution flow, device setup, the guard/checkpoint cadence and the
//!   three overlap optimizations (Figs. 7–8), behind a halo policy.
//! * [`single`] — the single-GPU driver, the step program over local
//!   periodic halos.
//! * [`decomp`], [`halo`], [`multi`] — 2-D domain decomposition, halo
//!   exchange through host staging (Fig. 6), and the multi-GPU driver,
//!   the step program over halo exchanges on every rank.
//! * [`perf`] — GFlops accounting and report structures for the
//!   evaluation harnesses.

pub mod checkpoint;
pub mod decomp;
pub mod error;
pub mod fields;
pub mod geom;
pub mod halo;
pub mod kernels;
pub mod monitor;
pub mod multi;
pub mod perf;
pub mod single;
mod step;
pub mod view;

pub use checkpoint::Checkpoint;
pub use decomp::{table1_configs, Decomp, Table1Row};
pub use error::ModelError;
pub use fields::DeviceState;
pub use geom::DeviceGeom;
pub use kernels::Region;
pub use multi::{MultiGpuConfig, MultiGpuReport, OverlapMode};
pub use single::SingleGpu;
