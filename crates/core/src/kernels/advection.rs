//! Advection kernels (§IV-A.2).
//!
//! Per the paper, advection uses a four-point Koren-limited stencil per
//! direction, (64, 4, 1)-thread blocks over the (x, z) plane marching in
//! y, with the current xy tile staged through shared memory
//! ((64+3)×(4+3) elements, Fig. 3) and the y-neighbours held in
//! registers. The cost model reflects that staging: each stencil input
//! is charged roughly once per point rather than once per stencil tap.

use crate::geom::DeviceGeom;
use crate::kernels::region::{
    launch_cfg_region, reads_stencil, widest, writes_rects, KName, Region,
};
use crate::kernels::walk_lanes;
use crate::view::{V3SlabMut, V3};
use numerics::limiter::{limited_flux, Limiter};
use vgpu::{Buf, Device, KernelCost, Launch, StreamId, VgpuError};

/// Shared-memory tile of the advection kernels: (64+3)*(4+3) elements
/// (Fig. 3), in the element size of the precision in use.
pub fn advection_shared_mem_bytes(elem: usize) -> u32 {
    ((64 + 3) * (4 + 3) * elem) as u32
}

/// FLOP/byte accounting of the scalar advection kernel (per point):
/// six limited face fluxes plus three flux divergences.
pub const ADV_FLOPS: f64 = 105.0;
/// Global-memory elements read per point *with* shared-memory staging.
pub const ADV_READS: f64 = 7.0;
pub const ADV_WRITES: f64 = 1.0;
/// Reads per point without shared memory: every stencil tap goes to
/// global memory (used by the `ablation_shared_memory` bench).
pub const ADV_READS_NO_SMEM: f64 = 19.0;

numerics::simd_kernel! {
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
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gdim, bdim) = launch_cfg_region(region, nx, ny, nz, hw);
    let reads = if use_shared_mem {
        ADV_READS
    } else {
        ADV_READS_NO_SMEM
    };
    let cost = KernelCost::streaming(points, ADV_FLOPS, reads, ADV_WRITES);
    let smem = if use_shared_mem {
        advection_shared_mem_bytes(R::BYTES)
    } else {
        0
    };
    let (dc, dw) = (geom.dc, geom.dw);
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let inv_dz = R::from_f64(1.0 / geom.dz);
    let nzi = nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gdim, bdim, cost)
            .with_shared_mem(smem)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[spec, u, v]))
            .reading(reads_stencil(&dw, &rects, &[mw]))
            .writing(writes_rects(&dc, &rects, &[out])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let spec_r = mem.read(spec);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let mw_r = mem.read(mw);
            let mut out_s = mem.write_slab(out, dc.slab(sj0, sj1));
            let s = V3::new(&spec_r, dc);
            let uu = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let ww = V3::new(&mw_r, dw);
            let mut o = V3SlabMut::new(&mut out_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    for k in 0..nzi {
                        // Row cursors: base offsets computed once per
                        // (j, k); stencil taps are ±1/±2 x-offsets (x
                        // faces) or same-i taps on ±y/±z rows. HALO = 2,
                        // so k±2 / j±2 rows always exist.
                        let s0 = s.row(j, k);
                        let sjm2 = s.row(j - 2, k);
                        let sjm1 = s.row(j - 1, k);
                        let sjp1 = s.row(j + 1, k);
                        let sjp2 = s.row(j + 2, k);
                        let skm2 = s.row(j, k - 2);
                        let skm1 = s.row(j, k - 1);
                        let skp1 = s.row(j, k + 1);
                        let skp2 = s.row(j, k + 2);
                        let u0 = uu.row(j, k);
                        let vjm1 = vv.row(j - 1, k);
                        let v0 = vv.row(j, k);
                        let w0 = ww.row(j, k);
                        let wp = ww.row(j, k + 1);
                        let mut orow = o.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            // One body at both widths: 4 faces per
                            // iteration on the lane pass, each stencil
                            // tap one shifted unaligned load; 1 face on
                            // the remainder pass, same op order.
                            let vdx = lw.splat(inv_dx);
                            let vdy = lw.splat(inv_dy);
                            let vdz = lw.splat(inv_dz);
                            let zl = lw.splat(R::ZERO);
                            let sm1 = s0.lanes(lw, i - 1);
                            let sc = s0.lanes(lw, i);
                            let sp1 = s0.lanes(lw, i + 1);
                            let fxm = limited_flux(
                                lim,
                                u0.lanes(lw, i - 1),
                                s0.lanes(lw, i - 2),
                                sm1,
                                sc,
                                sp1,
                            );
                            let fxp = limited_flux(
                                lim,
                                u0.lanes(lw, i),
                                sm1,
                                sc,
                                sp1,
                                s0.lanes(lw, i + 2),
                            );
                            let fym = limited_flux(
                                lim,
                                vjm1.lanes(lw, i),
                                sjm2.lanes(lw, i),
                                sjm1.lanes(lw, i),
                                sc,
                                sjp1.lanes(lw, i),
                            );
                            let fyp = limited_flux(
                                lim,
                                v0.lanes(lw, i),
                                sjm1.lanes(lw, i),
                                sc,
                                sjp1.lanes(lw, i),
                                sjp2.lanes(lw, i),
                            );
                            let fzm = if k == 0 {
                                zl
                            } else {
                                limited_flux(
                                    lim,
                                    w0.lanes(lw, i),
                                    skm2.lanes(lw, i),
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                )
                            };
                            let fzp = if k == nzi - 1 {
                                zl
                            } else {
                                limited_flux(
                                    lim,
                                    wp.lanes(lw, i),
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                    skp2.lanes(lw, i),
                                )
                            };
                            orow.add_lanes(
                                lw,
                                i,
                                -((fxp - fxm) * vdx + (fyp - fym) * vdy + (fzp - fzm) * vdz),
                            );
                        });
                    }
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
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
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gdim, bdim) = launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, ADV_FLOPS + 20.0, ADV_READS + 1.0, ADV_WRITES);
    let (dc, dw) = (geom.dc, geom.dw);
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let inv_dz = R::from_f64(1.0 / geom.dz);
    let nzi = nz as isize;
    let half = R::HALF;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gdim, bdim, cost)
            .with_shared_mem(advection_shared_mem_bytes(R::BYTES))
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[uspec, u, v]))
            .reading(reads_stencil(&dw, &rects, &[mw]))
            .writing(writes_rects(&dc, &rects, &[out])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let s_r = mem.read(uspec);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let mw_r = mem.read(mw);
            let mut out_s = mem.write_slab(out, dc.slab(sj0, sj1));
            let s = V3::new(&s_r, dc);
            let uu = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let ww = V3::new(&mw_r, dw);
            let mut o = V3SlabMut::new(&mut out_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    for k in 0..nzi {
                        let s0 = s.row(j, k);
                        let sjm2 = s.row(j - 2, k);
                        let sjm1 = s.row(j - 1, k);
                        let sjp1 = s.row(j + 1, k);
                        let sjp2 = s.row(j + 2, k);
                        let skm2 = s.row(j, k - 2);
                        let skm1 = s.row(j, k - 1);
                        let skp1 = s.row(j, k + 1);
                        let skp2 = s.row(j, k + 2);
                        let u0 = uu.row(j, k);
                        let vjm1 = vv.row(j - 1, k);
                        let v0 = vv.row(j, k);
                        let w0 = ww.row(j, k);
                        let wp = ww.row(j, k + 1);
                        let mut orow = o.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vdx = lw.splat(inv_dx);
                            let vdy = lw.splat(inv_dy);
                            let vdz = lw.splat(inv_dz);
                            let vh = lw.splat(half);
                            let zl = lw.splat(R::ZERO);
                            let um1 = u0.lanes(lw, i - 1);
                            let uc = u0.lanes(lw, i);
                            let up1 = u0.lanes(lw, i + 1);
                            let sm1 = s0.lanes(lw, i - 1);
                            let sc = s0.lanes(lw, i);
                            let sp1 = s0.lanes(lw, i + 1);
                            let fxm = {
                                let vel = vh * (um1 + uc);
                                limited_flux(lim, vel, s0.lanes(lw, i - 2), sm1, sc, sp1)
                            };
                            let fxp = {
                                let vel = vh * (uc + up1);
                                limited_flux(lim, vel, sm1, sc, sp1, s0.lanes(lw, i + 2))
                            };
                            let fym = {
                                let vel = vh * (vjm1.lanes(lw, i) + vjm1.lanes(lw, i + 1));
                                limited_flux(
                                    lim,
                                    vel,
                                    sjm2.lanes(lw, i),
                                    sjm1.lanes(lw, i),
                                    sc,
                                    sjp1.lanes(lw, i),
                                )
                            };
                            let fyp = {
                                let vel = vh * (v0.lanes(lw, i) + v0.lanes(lw, i + 1));
                                limited_flux(
                                    lim,
                                    vel,
                                    sjm1.lanes(lw, i),
                                    sc,
                                    sjp1.lanes(lw, i),
                                    sjp2.lanes(lw, i),
                                )
                            };
                            let fzm = if k == 0 {
                                zl
                            } else {
                                let vel = vh * (w0.lanes(lw, i) + w0.lanes(lw, i + 1));
                                limited_flux(
                                    lim,
                                    vel,
                                    skm2.lanes(lw, i),
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                )
                            };
                            let fzp = if k == nzi - 1 {
                                zl
                            } else {
                                let vel = vh * (wp.lanes(lw, i) + wp.lanes(lw, i + 1));
                                limited_flux(
                                    lim,
                                    vel,
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                    skp2.lanes(lw, i),
                                )
                            };
                            orow.add_lanes(
                                lw,
                                i,
                                -((fxp - fxm) * vdx + (fyp - fym) * vdy + (fzp - fzm) * vdz),
                            );
                        });
                    }
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
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
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gdim, bdim) = launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, ADV_FLOPS + 20.0, ADV_READS + 1.0, ADV_WRITES);
    let (dc, dw) = (geom.dc, geom.dw);
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let inv_dz = R::from_f64(1.0 / geom.dz);
    let nzi = nz as isize;
    let half = R::HALF;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gdim, bdim, cost)
            .with_shared_mem(advection_shared_mem_bytes(R::BYTES))
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[vspec, u, v]))
            .reading(reads_stencil(&dw, &rects, &[mw]))
            .writing(writes_rects(&dc, &rects, &[out])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let s_r = mem.read(vspec);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let mw_r = mem.read(mw);
            let mut out_s = mem.write_slab(out, dc.slab(sj0, sj1));
            let s = V3::new(&s_r, dc);
            let uu = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let ww = V3::new(&mw_r, dw);
            let mut o = V3SlabMut::new(&mut out_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    for k in 0..nzi {
                        let s0 = s.row(j, k);
                        let sjm2 = s.row(j - 2, k);
                        let sjm1 = s.row(j - 1, k);
                        let sjp1 = s.row(j + 1, k);
                        let sjp2 = s.row(j + 2, k);
                        let skm2 = s.row(j, k - 2);
                        let skm1 = s.row(j, k - 1);
                        let skp1 = s.row(j, k + 1);
                        let skp2 = s.row(j, k + 2);
                        let u0 = uu.row(j, k);
                        let ujp1 = uu.row(j + 1, k);
                        let vjm1 = vv.row(j - 1, k);
                        let v0 = vv.row(j, k);
                        let vjp1 = vv.row(j + 1, k);
                        let w0 = ww.row(j, k);
                        let wjp1 = ww.row(j + 1, k);
                        let wp0 = ww.row(j, k + 1);
                        let wpjp1 = ww.row(j + 1, k + 1);
                        let mut orow = o.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vdx = lw.splat(inv_dx);
                            let vdy = lw.splat(inv_dy);
                            let vdz = lw.splat(inv_dz);
                            let vh = lw.splat(half);
                            let zl = lw.splat(R::ZERO);
                            let sm1 = s0.lanes(lw, i - 1);
                            let sc = s0.lanes(lw, i);
                            let sp1 = s0.lanes(lw, i + 1);
                            let fxm = {
                                let vel = vh * (u0.lanes(lw, i - 1) + ujp1.lanes(lw, i - 1));
                                limited_flux(lim, vel, s0.lanes(lw, i - 2), sm1, sc, sp1)
                            };
                            let fxp = {
                                let vel = vh * (u0.lanes(lw, i) + ujp1.lanes(lw, i));
                                limited_flux(lim, vel, sm1, sc, sp1, s0.lanes(lw, i + 2))
                            };
                            let fym = {
                                let vel = vh * (vjm1.lanes(lw, i) + v0.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    sjm2.lanes(lw, i),
                                    sjm1.lanes(lw, i),
                                    sc,
                                    sjp1.lanes(lw, i),
                                )
                            };
                            let fyp = {
                                let vel = vh * (v0.lanes(lw, i) + vjp1.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    sjm1.lanes(lw, i),
                                    sc,
                                    sjp1.lanes(lw, i),
                                    sjp2.lanes(lw, i),
                                )
                            };
                            let fzm = if k == 0 {
                                zl
                            } else {
                                let vel = vh * (w0.lanes(lw, i) + wjp1.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    skm2.lanes(lw, i),
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                )
                            };
                            let fzp = if k == nzi - 1 {
                                zl
                            } else {
                                let vel = vh * (wp0.lanes(lw, i) + wpjp1.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                    skp2.lanes(lw, i),
                                )
                            };
                            orow.add_lanes(
                                lw,
                                i,
                                -((fxp - fxm) * vdx + (fyp - fym) * vdy + (fzp - fzm) * vdz),
                            );
                        });
                    }
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
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
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * (nz as u64 - 1);
    if points == 0 {
        return Ok(());
    }
    let (gdim, bdim) = launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, ADV_FLOPS + 20.0, ADV_READS + 1.0, ADV_WRITES);
    let (dc, dw) = (geom.dc, geom.dw);
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let inv_dz = R::from_f64(1.0 / geom.dz);
    let nzi = nz as isize;
    let half = R::HALF;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gdim, bdim, cost)
            .with_shared_mem(advection_shared_mem_bytes(R::BYTES))
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[u, v]))
            .reading(reads_stencil(&dw, &rects, &[wspec, mw]))
            .writing(writes_rects(&dw, &rects, &[out])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let s_r = mem.read(wspec);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let mw_r = mem.read(mw);
            let mut out_s = mem.write_slab(out, dw.slab(sj0, sj1));
            let s = V3::new(&s_r, dw);
            let uu = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let ww = V3::new(&mw_r, dw);
            let mut o = V3SlabMut::new(&mut out_s, dw, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    for k in 1..nzi {
                        let s0 = s.row(j, k);
                        let sjm2 = s.row(j - 2, k);
                        let sjm1 = s.row(j - 1, k);
                        let sjp1 = s.row(j + 1, k);
                        let sjp2 = s.row(j + 2, k);
                        let skm2 = s.row(j, k - 2);
                        let skm1 = s.row(j, k - 1);
                        let skp1 = s.row(j, k + 1);
                        let skp2 = s.row(j, k + 2);
                        let ukm1 = uu.row(j, k - 1);
                        let uk = uu.row(j, k);
                        let vjm1km1 = vv.row(j - 1, k - 1);
                        let vjm1k = vv.row(j - 1, k);
                        let v0km1 = vv.row(j, k - 1);
                        let v0k = vv.row(j, k);
                        let wkm1 = ww.row(j, k - 1);
                        let wk = ww.row(j, k);
                        let wkp1 = ww.row(j, k + 1);
                        let mut orow = o.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vdx = lw.splat(inv_dx);
                            let vdy = lw.splat(inv_dy);
                            let vdz = lw.splat(inv_dz);
                            let vh = lw.splat(half);
                            let sm1 = s0.lanes(lw, i - 1);
                            let sc = s0.lanes(lw, i);
                            let sp1 = s0.lanes(lw, i + 1);
                            let fxm = {
                                let vel = vh * (ukm1.lanes(lw, i - 1) + uk.lanes(lw, i - 1));
                                limited_flux(lim, vel, s0.lanes(lw, i - 2), sm1, sc, sp1)
                            };
                            let fxp = {
                                let vel = vh * (ukm1.lanes(lw, i) + uk.lanes(lw, i));
                                limited_flux(lim, vel, sm1, sc, sp1, s0.lanes(lw, i + 2))
                            };
                            let fym = {
                                let vel = vh * (vjm1km1.lanes(lw, i) + vjm1k.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    sjm2.lanes(lw, i),
                                    sjm1.lanes(lw, i),
                                    sc,
                                    sjp1.lanes(lw, i),
                                )
                            };
                            let fyp = {
                                let vel = vh * (v0km1.lanes(lw, i) + v0k.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    sjm1.lanes(lw, i),
                                    sc,
                                    sjp1.lanes(lw, i),
                                    sjp2.lanes(lw, i),
                                )
                            };
                            let fzm = {
                                let vel = vh * (wkm1.lanes(lw, i) + wk.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    skm2.lanes(lw, i),
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                )
                            };
                            let fzp = {
                                let vel = vh * (wk.lanes(lw, i) + wkp1.lanes(lw, i));
                                limited_flux(
                                    lim,
                                    vel,
                                    skm1.lanes(lw, i),
                                    sc,
                                    skp1.lanes(lw, i),
                                    skp2.lanes(lw, i),
                                )
                            };
                            orow.add_lanes(
                                lw,
                                i,
                                -((fxp - fxm) * vdx + (fyp - fym) * vdy + (fzp - fzm) * vdz),
                            );
                        });
                    }
                }
            }
        },
    )
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
