//! GPU kernels: one module per computational component of the paper's
//! Fig. 1, each with an analytic FLOP/byte cost (the reproduction's
//! PAPI substitute) and support for the inner / x-boundary / y-boundary
//! splitting of overlap method 2 (Fig. 8).

pub mod advection;
pub mod boundary;
pub mod eos;
pub mod helmholtz;
pub mod pgf;
pub mod physics;
pub mod region;
pub mod tend;
pub mod tiled;
pub mod transform;

pub use region::{launch_cfg, Rect, Region};

use numerics::simd::Lane;
use numerics::Real;

/// Lane width an x-walk over rows `widest` points wide really runs at,
/// recorded on its launch (informational — never priced by the cost
/// model): `R::Lane::N` when lanes are on and a whole lane fits in the
/// widest row, else 1. A `Region::XBound` strip is `halo` = 2 columns
/// wide, so its launches run, and record, width 1.
pub(crate) fn walk_lanes<R: Real>(lanes_on: bool, widest: isize) -> u32 {
    let n = <R::Lane as Lane<R>>::N;
    if lanes_on && widest >= n as isize {
        n as u32
    } else {
        1
    }
}
