//! Advection kernels (§IV-A.2).
//!
//! Per the paper, advection uses a four-point Koren-limited stencil per
//! direction, (64, 4, 1)-thread blocks over the (x, z) plane marching in
//! y, with the current xy tile staged through shared memory
//! ((64+3)×(4+3) elements, Fig. 3) and the y-neighbours held in
//! registers, each thread computing one limited flux per face. The cost
//! model charges that kernel: each stencil input roughly once per point
//! rather than once per stencil tap.
//!
//! The host kernel computes one flux per face the same way (see
//! `march`): a row's x faces go to a row buffer and are differenced;
//! the y faces of a slab's rows are marched across `j` in an
//! `nz × width` buffer, the host analog of the paper's register
//! marching, the entry faces computed at the slab's first row; and the
//! z face is carried along `k`. Each face is still the same
//! [`limited_flux`] call with the same arguments as in a
//! two-faces-per-cell walk, so the results are bitwise those of one.

use crate::geom::DeviceGeom;
use crate::kernels::region::{
    launch_cfg_region, reads_stencil, widest, writes_rects, KName, Rect, Region,
};
use crate::kernels::walk_lanes;
use crate::view::{Row, V3SlabMut, V3};
use numerics::limiter::{limited_flux, Limiter};
use numerics::simd::{Lane, Width};
use numerics::Real;
use vgpu::{Buf, Device, KernelCost, Launch, StreamId, VgpuError};

/// Shared-memory tile of the advection kernels: (64+3)*(4+3) elements
/// (Fig. 3), in the element size of the precision in use.
pub fn advection_shared_mem_bytes(elem: usize) -> u32 {
    ((64 + 3) * (4 + 3) * elem) as u32
}

/// FLOP/byte accounting of the scalar advection kernel (per point):
/// six limited face fluxes plus three flux divergences. This is the
/// simulated charge of the paper's kernel and deliberately unchanged by
/// the host kernel computing each face once.
pub const ADV_FLOPS: f64 = 105.0;
/// Global-memory elements read per point *with* shared-memory staging.
pub const ADV_READS: f64 = 7.0;
pub const ADV_WRITES: f64 = 1.0;
/// Reads per point without shared memory: every stencil tap goes to
/// global memory (used by the `ablation_shared_memory` bench).
pub const ADV_READS_NO_SMEM: f64 = 19.0;

/// The control volume an advection kernel updates: a centre scalar, or
/// one of the staggered momenta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cv {
    Center,
    U,
    V,
    W,
}

/// Flux-form advection tendency of a center scalar, accumulated into
/// `out`: `out -= div(massflux * reconstruct(spec))`.
#[allow(clippy::too_many_arguments)]
pub fn advect_scalar<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    use_shared_mem: bool,
    spec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    advect(
        dev,
        stream,
        geom,
        region,
        kn,
        lim,
        Cv::Center,
        use_shared_mem,
        [spec, u, v, mw, out],
    )
}

/// Advection of u momentum (control volumes on u points).
#[allow(clippy::too_many_arguments)]
pub fn advect_u<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    uspec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    advect(
        dev,
        stream,
        geom,
        region,
        kn,
        lim,
        Cv::U,
        true,
        [uspec, u, v, mw, out],
    )
}

/// Advection of v momentum (mirror of [`advect_u`]).
#[allow(clippy::too_many_arguments)]
pub fn advect_v<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    vspec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    advect(
        dev,
        stream,
        geom,
        region,
        kn,
        lim,
        Cv::V,
        true,
        [vspec, u, v, mw, out],
    )
}

/// Advection of w momentum at interior w levels.
#[allow(clippy::too_many_arguments)]
pub fn advect_w<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    wspec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    advect(
        dev,
        stream,
        geom,
        region,
        kn,
        lim,
        Cv::W,
        true,
        [wspec, u, v, mw, out],
    )
}

numerics::simd_kernel! {
/// The launch behind the four kernels, on `[spec, u, v, mw, out]`:
/// `spec` and `out` live on centre levels, or on w levels for
/// [`Cv::W`].
#[allow(clippy::too_many_arguments)]
fn advect<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    cv: Cv,
    use_shared_mem: bool,
    bufs: [Buf<R>; 5],
) -> Result<(), VgpuError> {
    let [spec, u, v, mw, out] = bufs;
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    // The levels updated: w's interior levels, or every centre level.
    let ks = (if cv == Cv::W { 1 } else { 0 }, nz as isize);
    let points = region.area(nx, ny, hw) * (ks.1 - ks.0) as u64;
    if points == 0 {
        return Ok(());
    }
    let (gdim, bdim) = launch_cfg_region(region, nx, ny, nz, hw);
    let (flops, reads) = match (cv, use_shared_mem) {
        (Cv::Center, true) => (ADV_FLOPS, ADV_READS),
        (Cv::Center, false) => (ADV_FLOPS, ADV_READS_NO_SMEM),
        _ => (ADV_FLOPS + 20.0, ADV_READS + 1.0),
    };
    let cost = KernelCost::streaming(points, flops, reads, ADV_WRITES);
    let smem = if use_shared_mem {
        advection_shared_mem_bytes(R::BYTES)
    } else {
        0
    };
    let (dc, dw) = (geom.dc, geom.dw);
    // `spec` and `out` share one grid; the velocities keep their own.
    let (ds, by_grid, n_dc) = if cv == Cv::W {
        (dw, [u, v, spec, mw], 2)
    } else {
        (dc, [spec, u, v, mw], 3)
    };
    let (on_dc, on_dw) = by_grid.split_at(n_dc);
    let inv = [geom.dx, geom.dy, geom.dz].map(|d| R::from_f64(1.0 / d));
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gdim, bdim, cost)
            .with_shared_mem(smem)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, on_dc))
            .reading(reads_stencil(&dw, &rects, on_dw))
            .writing(writes_rects(&ds, &rects, &[out])),
        ny,
        move |mem, sj0, sj1| {
            let sj = (sj0 as isize, sj1 as isize);
            let s_r = mem.read(spec);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let mw_r = mem.read(mw);
            let mut out_s = mem.write_slab(out, ds.slab(sj.0, sj.1));
            let f = [V3::new(&s_r, ds), V3::new(&u_r, dc), V3::new(&v_r, dc), V3::new(&mw_r, dw)];
            let mut o = V3SlabMut::new(&mut out_s, ds, sj.0);
            let w = Walk { lim, lanes_on, inv, f, ks };
            // One constant per arm, so each inlined walk folds its
            // control-volume branches away.
            match cv {
                Cv::Center => march(Cv::Center, &w, &rects, sj, &mut o),
                Cv::U => march(Cv::U, &w, &rects, sj, &mut o),
                Cv::V => march(Cv::V, &w, &rects, sj, &mut o),
                Cv::W => march(Cv::W, &w, &rects, sj, &mut o),
            }
        },
    )
}
}

/// The normal velocity on one row of faces: a mass-flux row itself for
/// a centre scalar; for a staggered momentum the mean of the two mass
/// fluxes either side of its control volume along its own axis.
#[derive(Clone, Copy)]
struct FaceVel<'a, R> {
    a: Row<'a, R>,
    b: Row<'a, R>,
    /// x-offset of the `b` tap (1 for u).
    di: isize,
    mean: bool,
}

impl<'a, R: Real> FaceVel<'a, R> {
    /// The velocity of `cv`'s faces whose mass flux `m` has its row
    /// `(j, k)`.
    #[inline(always)]
    fn new(cv: Cv, m: &V3<'a, R>, j: isize, k: isize) -> Self {
        let (a, b, di) = match cv {
            Cv::Center | Cv::U => (m.row(j, k), m.row(j, k), 1),
            Cv::V => (m.row(j, k), m.row(j + 1, k), 0),
            Cv::W => (m.row(j, k - 1), m.row(j, k), 0),
        };
        let mean = cv != Cv::Center;
        FaceVel { a, b, di, mean }
    }

    #[inline(always)]
    fn lanes<L: Lane<R>>(&self, lw: Width<R, L>, i: isize) -> L {
        let a = self.a.lanes(lw, i);
        if self.mean {
            lw.splat(R::HALF) * (a + self.b.lanes(lw, i + self.di))
        } else {
            a
        }
    }
}

/// One row of faces normal to an axis, each on the low side of the
/// point it is evaluated at: the four stencil rows around it (for x
/// faces one row, stepped along x by `dx` = 1) and its velocity.
#[derive(Clone, Copy)]
struct Faces<'a, R> {
    s: [Row<'a, R>; 4],
    dx: isize,
    vel: FaceVel<'a, R>,
}

impl<'a, R: Real> Faces<'a, R> {
    /// The x faces `i - 1/2` of row `(j, k)`.
    #[inline(always)]
    fn x(cv: Cv, [s, u, _, _]: &[V3<'a, R>; 4], j: isize, k: isize) -> Self {
        let vel = FaceVel::new(cv, u, j, k);
        Faces {
            s: [s.row(j, k); 4],
            dx: 1,
            vel,
        }
    }

    /// The y faces `j - 1/2` of level `k`.
    #[inline(always)]
    fn y(cv: Cv, [s, _, v, _]: &[V3<'a, R>; 4], j: isize, k: isize) -> Self {
        let vel = FaceVel::new(cv, v, j - 1, k);
        Faces {
            s: [
                s.row(j - 2, k),
                s.row(j - 1, k),
                s.row(j, k),
                s.row(j + 1, k),
            ],
            dx: 0,
            vel,
        }
    }

    /// The z faces `k - 1/2` of row `j`.
    #[inline(always)]
    fn z(cv: Cv, [s, _, _, w]: &[V3<'a, R>; 4], j: isize, k: isize) -> Self {
        let vel = FaceVel::new(cv, w, j, k);
        Faces {
            s: [
                s.row(j, k - 2),
                s.row(j, k - 1),
                s.row(j, k),
                s.row(j, k + 1),
            ],
            dx: 0,
            vel,
        }
    }

    /// The limited flux through the face(s) at `i` (x faces: `i - 1/2`).
    #[inline(always)]
    fn flux<L: Lane<R>>(&self, lw: Width<R, L>, lim: Limiter, i: isize) -> L {
        let tap = |m: isize| self.s[m as usize].lanes(lw, i + self.dx * (m - 2));
        limited_flux(
            lim,
            self.vel.lanes(lw, i - self.dx),
            tap(0),
            tap(1),
            tap(2),
            tap(3),
        )
    }
}

/// What every slab of an advection launch shares: the limiter, the lane
/// setting, `1/dx, 1/dy, 1/dz`, the fields (`spec`, `u`, `v`, `mw`) and
/// the levels `ks.0..ks.1` it updates.
struct Walk<'a, R> {
    lim: Limiter,
    lanes_on: bool,
    inv: [R; 3],
    f: [V3<'a, R>; 4],
    ks: (isize, isize),
}

/// Accumulate the flux divergence of `cv` into `o` over the rows
/// `sj.0..sj.1` of `rects`, computing each face flux once:
///
/// - x: the faces `i0 - 1/2 ..= i1 - 1/2` of a row go to `fx`, and each
///   point differences its two;
/// - y: `fy` holds, per level, the faces on the low side of row `j`; a
///   point reads its low face there and overwrites it with its high
///   face, which is the next row's low face (the paper's register
///   marching in y). The slab's first row computes its low faces on
///   entry;
/// - z: `fz` carries the face between levels `k` and `k + 1` along `k`.
///   For centre levels the faces at the ground and the lid are zero.
#[inline(always)]
fn march<R: Real>(
    cv: Cv,
    w: &Walk<'_, R>,
    rects: &[Rect],
    sj: (isize, isize),
    o: &mut V3SlabMut<R>,
) {
    let Walk {
        lim,
        lanes_on,
        inv,
        ref f,
        ks,
    } = *w;
    let width = widest(rects) as usize;
    let mut fx = vec![R::ZERO; width + 1];
    let mut fy = vec![R::ZERO; (ks.1 - ks.0) as usize * width];
    let mut fz = vec![R::ZERO; width];
    for r in rects {
        let (i0, i1) = (r.i0, r.i1);
        let (j0, j1) = (r.j0.max(sj.0), r.j1.min(sj.1));
        if i0 >= i1 || j0 >= j1 {
            continue;
        }
        let at = |i: isize| (i - i0) as usize;
        let n = at(i1);
        for (k, fyk) in (ks.0..ks.1).zip(fy.chunks_exact_mut(n)) {
            let yf = Faces::y(cv, f, j0, k);
            numerics::x_walk!(R, lanes_on, i0..i1, |lw, i| {
                yf.flux(lw, lim, i).store_at(fyk, at(i));
            });
        }
        for j in j0..j1 {
            if cv == Cv::W {
                let zf = Faces::z(cv, f, j, ks.0);
                numerics::x_walk!(R, lanes_on, i0..i1, |lw, i| {
                    zf.flux(lw, lim, i).store_at(&mut fz, at(i));
                });
            } else {
                fz.fill(R::ZERO);
            }
            for (k, fyk) in (ks.0..ks.1).zip(fy.chunks_exact_mut(n)) {
                let xf = Faces::x(cv, f, j, k);
                numerics::x_walk!(R, lanes_on, i0..i1 + 1, |lw, i| {
                    xf.flux(lw, lim, i).store_at(&mut fx, at(i));
                });
                let yf = Faces::y(cv, f, j + 1, k);
                let zf = Faces::z(cv, f, j, k + 1);
                let lid = cv != Cv::W && k + 1 == ks.1;
                let mut orow = o.row_mut(j, k);
                numerics::x_walk!(R, lanes_on, i0..i1, |lw, i| {
                    let [vdx, vdy, vdz] = [lw.splat(inv[0]), lw.splat(inv[1]), lw.splat(inv[2])];
                    let (fxm, fxp) = (lw.load_at(&fx, at(i)), lw.load_at(&fx, at(i) + 1));
                    let fym = lw.load_at(fyk, at(i));
                    let fyp = yf.flux(lw, lim, i);
                    let fzm = lw.load_at(&fz, at(i));
                    let fzp = if lid {
                        lw.splat(R::ZERO)
                    } else {
                        zf.flux(lw, lim, i)
                    };
                    fyp.store_at(fyk, at(i));
                    fzp.store_at(&mut fz, at(i));
                    orow.add_lanes(
                        lw,
                        i,
                        -((fxp - fxm) * vdx + (fyp - fym) * vdy + (fzp - fzm) * vdz),
                    );
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::DeviceState;
    use crate::kname;
    use dycore::config::{ModelConfig, Terrain};
    use dycore::grid::{BaseFields, Grid};
    use numerics::simd::LANES;
    use physics::base::BaseState;
    use vgpu::{DeviceSpec, ExecMode};

    const LIMITERS: [Limiter; 6] = [
        Limiter::Koren,
        Limiter::Upwind1,
        Limiter::Minmod,
        Limiter::VanLeer,
        Limiter::Superbee,
        Limiter::UnlimitedKappaThird,
    ];

    /// Values drawn from five levels `offset + scale * {-1, -1/2, 0,
    /// 1/2, 1}`: with `offset` 0 the field changes sign along x, y and
    /// z, and equal neighbours (flat patches, whose zero downwind
    /// gradient trips the limiter's eps guard) are common.
    fn field<R: Real>(len: usize, seed: u64, offset: f64, scale: f64) -> Vec<R> {
        (0..len)
            .map(|n| {
                let level = (numerics::rng::draw(&[seed, n as u64]) * 5.0).floor() - 2.0;
                R::from_f64(offset + scale * 0.5 * level)
            })
            .collect()
    }

    /// The tendency as a two-faces-per-cell walk computes it: per point
    /// and axis, the low and the high face, each from scratch with
    /// `limited_flux`, accumulated into `out`.
    fn two_faces_per_cell<R: Real>(
        cv: Cv,
        lim: Limiter,
        geom: &DeviceGeom<R>,
        region: Region,
        [s, u, v, w]: [&[R]; 4],
        out: &mut [R],
    ) {
        let (dc, dw) = (geom.dc, geom.dw);
        let ds = if cv == Cv::W { dw } else { dc };
        let (s, u, v, w) = (
            V3::new(s, ds),
            V3::new(u, dc),
            V3::new(v, dc),
            V3::new(w, dw),
        );
        let inv = [geom.dx, geom.dy, geom.dz].map(|d| R::from_f64(1.0 / d));
        let nz = geom.nz as isize;
        let h = R::HALF;
        // Normal velocity of the face on the low side of `p` along axis
        // `a`: u and v sit on high faces, mw on low ones; a momentum
        // averages the two mass fluxes either side of its point.
        let vel = |a: usize, [i, j, k]: [isize; 3]| {
            let (m, i, j) = match a {
                0 => (&u, i - 1, j),
                1 => (&v, i, j - 1),
                _ => (&w, i, j),
            };
            match cv {
                Cv::Center => m.at(i, j, k),
                Cv::U => h * (m.at(i, j, k) + m.at(i + 1, j, k)),
                Cv::V => h * (m.at(i, j, k) + m.at(i, j + 1, k)),
                Cv::W => h * (m.at(i, j, k - 1) + m.at(i, j, k)),
            }
        };
        let face = |a: usize, p: [isize; 3]| {
            if a == 2 && cv != Cv::W && (p[2] == 0 || p[2] == nz) {
                return R::ZERO;
            }
            let q = |d: isize| {
                let mut t = p;
                t[a] += d;
                s.at(t[0], t[1], t[2])
            };
            limited_flux(lim, vel(a, p), q(-2), q(-1), q(0), q(1))
        };
        let k0 = if cv == Cv::W { 1 } else { 0 };
        for r in region.rects(geom.nx, geom.ny, geom.halo) {
            for j in r.j0..r.j1 {
                for k in k0..nz {
                    for i in r.i0..r.i1 {
                        let p = [i, j, k];
                        let div = |a: usize| {
                            let mut hi = p;
                            hi[a] += 1;
                            face(a, hi) - face(a, p)
                        };
                        out[ds.off(i, j, k)] +=
                            -(div(0) * inv[0] + div(1) * inv[1] + div(2) * inv[2]);
                    }
                }
            }
        }
    }

    /// The face-once kernels reproduce the two-faces-per-cell walk to
    /// the last bit: every kernel, limiter and region, 1 and 3 threads
    /// (so slabs start inside rectangles and compute entry y faces),
    /// lanes on and off, on a grid whose rows leave a lane remainder.
    fn face_once_matches_two_faces_per_cell<R: Real>() {
        let mut cfg = ModelConfig::mountain_wave(13, 11, 6);
        cfg.terrain = Terrain::Flat;
        let grid = Grid::build(&cfg);
        let base = BaseFields::build(&grid, &BaseState::isothermal(280.0));
        for threads in [1, 3] {
            for lanes in [false, true] {
                let mut spec = DeviceSpec::tesla_s1070();
                spec.host_threads = threads;
                spec.host_simd = lanes;
                let mut dev = Device::<R>::new(spec, ExecMode::Functional);
                let geom = DeviceGeom::build(&mut dev, &grid, &base);
                let (nc, nw) = (geom.dc.len(), geom.dw.len());
                let host = [
                    field::<R>(nc, 1, 0.0, 2.0),
                    field(nw, 2, 0.0, 2.0),
                    field(nc, 3, 0.0, 3.0),
                    field(nc, 4, 0.0, 3.0),
                    field(nw, 5, 0.0, 1.0),
                    field(nc, 6, 0.5, 1.0),
                    field(nw, 7, -0.5, 1.0),
                ];
                let bufs: Vec<Buf<R>> = host
                    .iter()
                    .map(|h| {
                        let b = dev.alloc(h.len()).unwrap();
                        dev.write_vec(b, h);
                        b
                    })
                    .collect();
                let &[sc, sw, u, v, mw, oc, ow] = &bufs[..] else {
                    unreachable!()
                };
                let kn = kname!("adv_ref");
                for cv in [Cv::Center, Cv::U, Cv::V, Cv::W] {
                    let (spec, out, s_host, o_host) = match cv {
                        Cv::W => (sw, ow, &host[1], &host[6]),
                        _ => (sc, oc, &host[0], &host[5]),
                    };
                    for lim in LIMITERS {
                        for region in [Region::Whole, Region::Inner, Region::XBound, Region::YBound]
                        {
                            dev.write_vec(out, o_host);
                            let st = StreamId::DEFAULT;
                            let g = &geom;
                            match cv {
                                Cv::Center => advect_scalar(
                                    &mut dev, st, g, region, &kn, lim, true, spec, u, v, mw, out,
                                ),
                                Cv::U => {
                                    advect_u(&mut dev, st, g, region, &kn, lim, spec, u, v, mw, out)
                                }
                                Cv::V => {
                                    advect_v(&mut dev, st, g, region, &kn, lim, spec, u, v, mw, out)
                                }
                                Cv::W => {
                                    advect_w(&mut dev, st, g, region, &kn, lim, spec, u, v, mw, out)
                                }
                            }
                            .unwrap();
                            let mut want = o_host.clone();
                            let fields = [s_host, &host[2], &host[3], &host[4]].map(|h| &h[..]);
                            two_faces_per_cell(cv, lim, &geom, region, fields, &mut want);
                            let got = dev.read_vec(out);
                            let what = format!(
                                "{cv:?} {} {region:?} threads {threads} lanes {lanes}",
                                lim.name()
                            );
                            let bits = |x: &R| x.to_f64().to_bits();
                            assert!(
                                got.iter().zip(o_host).any(|(a, b)| bits(a) != bits(b)),
                                "nothing updated: {what}"
                            );
                            for (n, (a, b)) in want.iter().zip(&got).enumerate() {
                                assert_eq!(bits(a), bits(b), "element {n}: {what}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn face_once_kernels_bitwise_match_two_faces_per_cell_f64() {
        face_once_matches_two_faces_per_cell::<f64>();
    }

    #[test]
    fn face_once_kernels_bitwise_match_two_faces_per_cell_f32() {
        face_once_matches_two_faces_per_cell::<f32>();
    }

    #[test]
    fn tile_fits_the_sm_shared_memory() {
        // The paper's 16 KB shared memory per SM must hold the tile.
        assert!(advection_shared_mem_bytes(4) <= 16 * 1024);
        assert!(advection_shared_mem_bytes(8) <= 16 * 1024);
        assert_eq!(advection_shared_mem_bytes(4), (67 * 7 * 4) as u32);
    }

    /// A launch records the lane width its x-walk really runs at: the
    /// `halo`-wide `XBound` strips are narrower than a lane, so they run
    /// (and record) width 1 even with lanes on.
    #[test]
    fn launch_records_the_lane_width_the_walk_runs_at() {
        let mut cfg = ModelConfig::mountain_wave(16, 12, 6);
        cfg.terrain = Terrain::Flat;
        let grid = Grid::build(&cfg);
        let base = BaseFields::build(&grid, &BaseState::isothermal(280.0));
        let mut spec = DeviceSpec::tesla_s1070();
        spec.host_simd = true;
        let mut dev = Device::<f64>::new(spec, ExecMode::Functional);
        let geom = DeviceGeom::build(&mut dev, &grid, &base);
        let ds = DeviceState::alloc(&mut dev, &geom, 3).unwrap();
        let kn = kname!("adv_probe");
        for (region, lanes) in [(Region::XBound, 1), (Region::Inner, LANES as u32)] {
            advect_scalar(
                &mut dev,
                StreamId::DEFAULT,
                &geom,
                region,
                &kn,
                Limiter::Koren,
                true,
                ds.spec,
                ds.u,
                ds.v,
                ds.mw,
                ds.fth,
            )
            .unwrap();
            let rec = dev.profiler.records().last().unwrap();
            assert_eq!(rec.name, kn.get(region));
            assert_eq!(rec.lanes, lanes, "{region:?}");
        }
    }
}
