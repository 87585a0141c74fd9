//! Kernel region splitting (overlap method 2, §V-A).
//!
//! "By dividing a single kernel into three — one for the inner domain,
//! another for the x boundaries, and the other for the y boundaries, we
//! can overlap the computation of inner domain and communication of the
//! boundary region."

use crate::view::Dims;
use numerics::Real;
use vgpu::{AccessDecl, AccessRange, Buf, Device, Dim3, Launch, MemView, StreamId, VgpuError};

/// A horizontal index rectangle `[i0, i1) × [j0, j1)` (full z extent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    pub i0: isize,
    pub i1: isize,
    pub j0: isize,
    pub j1: isize,
}

impl Rect {
    pub fn area(&self) -> u64 {
        ((self.i1 - self.i0).max(0) as u64) * ((self.j1 - self.j0).max(0) as u64)
    }
}

/// Width in x of the widest rectangle (0 for none).
pub fn widest(rects: &[Rect]) -> isize {
    rects.iter().map(|r| r.i1 - r.i0).max().unwrap_or(0)
}

/// Which part of the subdomain a kernel launch covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The whole interior (the non-overlapping baseline).
    Whole,
    /// Interior minus the boundary strips.
    Inner,
    /// Two `w`-wide strips at the x edges (excluding y strips).
    XBound,
    /// Two `w`-wide strips at the y edges (full x extent).
    YBound,
}

impl Region {
    /// The rectangles this region covers for an `nx × ny` interior with
    /// boundary-strip width `w`. Together, `Inner + XBound + YBound`
    /// tile exactly the `Whole` interior with no overlap.
    pub fn rects(self, nx: usize, ny: usize, w: usize) -> Vec<Rect> {
        let (nxi, nyi, wi) = (nx as isize, ny as isize, w as isize);
        match self {
            Region::Whole => vec![Rect {
                i0: 0,
                i1: nxi,
                j0: 0,
                j1: nyi,
            }],
            Region::Inner => vec![Rect {
                i0: wi,
                i1: nxi - wi,
                j0: wi,
                j1: nyi - wi,
            }],
            Region::XBound => vec![
                Rect {
                    i0: 0,
                    i1: wi,
                    j0: wi,
                    j1: nyi - wi,
                },
                Rect {
                    i0: nxi - wi,
                    i1: nxi,
                    j0: wi,
                    j1: nyi - wi,
                },
            ],
            Region::YBound => vec![
                Rect {
                    i0: 0,
                    i1: nxi,
                    j0: 0,
                    j1: wi,
                },
                Rect {
                    i0: 0,
                    i1: nxi,
                    j0: nyi - wi,
                    j1: nyi,
                },
            ],
        }
    }

    /// Total horizontal points covered.
    pub fn area(self, nx: usize, ny: usize, w: usize) -> u64 {
        self.rects(nx, ny, w).iter().map(Rect::area).sum()
    }

    /// Issue one member of a split kernel as a logical launch.
    ///
    /// The simulated GPU runs the paper's three launches, `.by`, `.bx`
    /// and `.inner`, each over its own strips. The Functional host runs
    /// the kernel body once, over the whole interior, when the overlap
    /// schedule issues the group's first member (`YBound`); `XBound` and
    /// `Inner` are only recorded ([`Device::record`]) at their own
    /// positions in the stream, so the launch list, the simulated clock
    /// and each member's declared access set stay those of three
    /// launches. `Whole` launches as usual. `body` must therefore walk
    /// the whole interior whatever the region.
    ///
    /// The bits are those of three strip bodies only for a kernel that
    /// is column- or point-wise and whose inputs no launch issued
    /// between its `.by` and `.inner` writes in another column: true of
    /// `pgf::momentum_x/y` and `helmholtz::{helmholtz, density,
    /// potential_temperature}`, the kernels that call this.
    pub fn launch_split<R: Real>(
        self,
        dev: &mut Device<R>,
        stream: StreamId,
        launch: Launch,
        span: usize,
        body: impl Fn(&MemView<'_, R>, usize, usize) + Sync,
    ) -> Result<(), VgpuError> {
        match self {
            Region::Whole | Region::YBound => dev.launch_par(stream, launch, span, body),
            Region::XBound | Region::Inner => dev.record(stream, launch),
        }
    }

    /// Suffix for profiler kernel names.
    pub fn suffix(self) -> &'static str {
        match self {
            Region::Whole => "",
            Region::Inner => ".inner",
            Region::XBound => ".bx",
            Region::YBound => ".by",
        }
    }
}

/// Kernel-name table: one static name per region variant, so profiler
/// records carry zero-allocation labels like `"adv_qv.inner"`.
#[derive(Debug, Clone, Copy)]
pub struct KName(pub [&'static str; 4]);

impl KName {
    pub fn get(&self, r: Region) -> &'static str {
        match r {
            Region::Whole => self.0[0],
            Region::Inner => self.0[1],
            Region::XBound => self.0[2],
            Region::YBound => self.0[3],
        }
    }

    /// The base (whole-domain) name.
    pub fn base(&self) -> &'static str {
        self.0[0]
    }
}

/// Build a [`KName`] from a string literal.
#[macro_export]
macro_rules! kname {
    ($base:literal) => {
        $crate::kernels::region::KName([
            $base,
            concat!($base, ".inner"),
            concat!($base, ".bx"),
            concat!($base, ".by"),
        ])
    };
}

/// Element footprint of one horizontal rectangle over the full (padded)
/// vertical extent of a buffer with dims `d` — the exact set of flat
/// indices a region kernel writes. In the XZY layout this is a single
/// strided-run pattern: runs of `i1-i0` elements every `px`, and since
/// the y-stride is `px*pl` (i.e. `pl` consecutive x-rows), runs continue
/// seamlessly across `j`.
pub fn rect_range(d: &Dims, r: &Rect) -> AccessRange {
    let h = d.halo as isize;
    let (px, pl) = (d.px() as isize, d.pl() as isize);
    let start = (r.i0 + h) + px * pl * (r.j0 + h);
    AccessRange::Rows {
        start: start.max(0) as usize,
        run: (r.i1 - r.i0).max(0) as usize,
        stride: px as usize,
        count: ((r.j1 - r.j0).max(0) * pl) as usize,
    }
}

/// `rect_range` grown by the stencil halo in i and j (clamped to the
/// padded extent) — the footprint a stencil kernel *reads* when it
/// writes `r`. Declaring reads at this 2-D precision is what lets
/// synccheck certify the paper's overlap schedule: the inner kernel's
/// stencil reads stay disjoint from the y-boundary slab copies running
/// concurrently on the copy stream.
pub fn rect_stencil_range(d: &Dims, r: &Rect) -> AccessRange {
    let h = d.halo as isize;
    let grown = Rect {
        i0: (r.i0 - h).max(-h),
        i1: (r.i1 + h).min(d.nx as isize + h),
        j0: (r.j0 - h).max(-h),
        j1: (r.j1 + h).min(d.ny as isize + h),
    };
    rect_range(d, &grown)
}

/// Write declarations: `bufs` each written exactly on `rects`.
pub fn writes_rects<R>(d: &Dims, rects: &[Rect], bufs: &[Buf<R>]) -> Vec<AccessDecl> {
    bufs.iter()
        .flat_map(|b| rects.iter().map(|r| b.access_range(rect_range(d, r))))
        .collect()
}

/// Read declarations: `bufs` each read with a halo-wide stencil around
/// `rects`.
pub fn reads_stencil<R>(d: &Dims, rects: &[Rect], bufs: &[Buf<R>]) -> Vec<AccessDecl> {
    bufs.iter()
        .flat_map(|b| {
            rects
                .iter()
                .map(|r| b.access_range(rect_stencil_range(d, r)))
        })
        .collect()
}

/// Whole-buffer read declarations (fields read without a useful
/// rectangular footprint — vertical columns, geometry constants).
pub fn reads_all<R>(bufs: &[Buf<R>]) -> Vec<AccessDecl> {
    bufs.iter().map(|b| b.access()).collect()
}

/// Whole-buffer write declarations.
pub fn writes_all<R>(bufs: &[Buf<R>]) -> Vec<AccessDecl> {
    bufs.iter().map(|b| b.access()).collect()
}

/// The paper's launch configuration (§IV-A.2): (64, 4, 1)-thread blocks
/// tiling an (a × b) plane, the third dimension marched by the threads.
pub fn launch_cfg(a: u64, b: u64) -> (Dim3, Dim3) {
    let block = Dim3::new(64, 4, 1);
    let grid = Dim3::new(a.div_ceil(64).max(1) as u32, b.div_ceil(4).max(1) as u32, 1);
    (grid, block)
}

/// Launch config sized for a region of the horizontal plane (threads
/// over (x, z); fewer threads for boundary slabs — the occupancy loss
/// the paper measures in Fig. 9).
pub fn launch_cfg_region(
    region: Region,
    nx: usize,
    ny: usize,
    nz: usize,
    w: usize,
) -> (Dim3, Dim3) {
    let area = region.area(nx, ny, w).max(1);
    // Threads span (x-extent, z); approximate the x-extent by area / ny.
    let eff_x = (area / ny.max(1) as u64).max(1);
    launch_cfg(eff_x, nz as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_regions_tile_the_whole() {
        for (nx, ny, w) in [(32usize, 24usize, 2usize), (8, 8, 2), (320, 256, 2)] {
            let whole = Region::Whole.area(nx, ny, w);
            let sum = Region::Inner.area(nx, ny, w)
                + Region::XBound.area(nx, ny, w)
                + Region::YBound.area(nx, ny, w);
            assert_eq!(whole, sum, "{nx}x{ny}");
            assert_eq!(whole, (nx * ny) as u64);
        }
    }

    #[test]
    fn split_regions_do_not_overlap() {
        let (nx, ny, w) = (16usize, 12usize, 2usize);
        let mut hit = vec![false; nx * ny];
        for r in [Region::Inner, Region::XBound, Region::YBound] {
            for rect in r.rects(nx, ny, w) {
                for j in rect.j0..rect.j1 {
                    for i in rect.i0..rect.i1 {
                        let idx = (j as usize) * nx + i as usize;
                        assert!(!hit[idx], "overlap at {i},{j} in {r:?}");
                        hit[idx] = true;
                    }
                }
            }
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn boundary_regions_are_thin() {
        let (nx, ny, w) = (320usize, 256usize, 2usize);
        assert_eq!(Region::YBound.area(nx, ny, w), 2 * 2 * 320);
        assert_eq!(Region::XBound.area(nx, ny, w), 2 * 2 * (256 - 4));
    }

    #[test]
    fn launch_cfg_matches_paper_shape() {
        // 320 x 48 plane -> (5, 12, 1) blocks of (64, 4, 1) threads,
        // exactly the advection configuration of §IV-A.2.
        let (grid, block) = launch_cfg(320, 48);
        assert_eq!((grid.x, grid.y, grid.z), (5, 12, 1));
        assert_eq!((block.x, block.y, block.z), (64, 4, 1));
    }

    #[test]
    fn boundary_launches_use_fewer_threads() {
        let (gi, _) = launch_cfg_region(Region::Inner, 320, 256, 48, 2);
        let (gb, _) = launch_cfg_region(Region::YBound, 320, 256, 48, 2);
        assert!(gb.count() < gi.count());
    }
}
