//! Short-time-step horizontal momentum kernels: the explicit part of
//! HE-VI. Kernel (2) of Fig. 5 ("pressure gradient force in x
//! direction") plus the slow-forcing accumulation; the paper's Fig. 9
//! rows "Momentum (x)" and "Momentum (y)" are these kernels, split into
//! inner/boundary regions for overlap method 2.

use crate::geom::DeviceGeom;
use crate::kernels::region::{
    launch_cfg_region, reads_stencil, widest, writes_rects, KName, Region,
};
use crate::kernels::walk_lanes;
use crate::view::{V3SlabMut, V3};
use vgpu::{Buf, Device, KernelCost, Launch, StreamId, VgpuError};

numerics::simd_kernel! {
/// `U += Δτ (−G_u ∂x p + F_U)` over `region`.
#[allow(clippy::too_many_arguments)]
pub fn momentum_x<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    p: Buf<R>,
    fu: Buf<R>,
    dtau: f64,
    u: Buf<R>,
) -> Result<(), VgpuError> {
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gd, bd) = launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, 6.0, 4.0, 1.0);
    let (dc, dp) = (geom.dc, geom.dp);
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let dt = R::from_f64(dtau);
    let gub = geom.g_u;
    let nzi = nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gd, bd, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[p, fu]))
            .reading(reads_stencil(&dp, &rects, &[gub]))
            .writing(writes_rects(&dc, &rects, &[u])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let p_r = mem.read(p);
            let f_r = mem.read(fu);
            let g_r = mem.read(gub);
            let mut u_s = mem.write_slab(u, dc.slab(sj0, sj1));
            let pv = V3::new(&p_r, dc);
            let fv = V3::new(&f_r, dc);
            let gv = V3::new(&g_r, dp);
            let mut uv = V3SlabMut::new(&mut u_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    let g_row = gv.row(j, 0);
                    for k in 0..nzi {
                        let p_row = pv.row(j, k);
                        let f_row = fv.row(j, k);
                        let mut u_row = uv.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vdx = lw.splat(inv_dx);
                            let vdt = lw.splat(dt);
                            let dpdx = (p_row.lanes(lw, i + 1) - p_row.lanes(lw, i)) * vdx;
                            u_row.add_lanes(
                                lw,
                                i,
                                vdt * (-g_row.lanes(lw, i) * dpdx + f_row.lanes(lw, i)),
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
/// `V += Δτ (−G_v ∂y p + F_V)` over `region`.
#[allow(clippy::too_many_arguments)]
pub fn momentum_y<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    p: Buf<R>,
    fv_t: Buf<R>,
    dtau: f64,
    v: Buf<R>,
) -> Result<(), VgpuError> {
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gd, bd) = launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, 6.0, 4.0, 1.0);
    let (dc, dp) = (geom.dc, geom.dp);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let dt = R::from_f64(dtau);
    let gvb = geom.g_v;
    let nzi = nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gd, bd, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[p, fv_t]))
            .reading(reads_stencil(&dp, &rects, &[gvb]))
            .writing(writes_rects(&dc, &rects, &[v])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let p_r = mem.read(p);
            let f_r = mem.read(fv_t);
            let g_r = mem.read(gvb);
            let mut v_s = mem.write_slab(v, dc.slab(sj0, sj1));
            let pv = V3::new(&p_r, dc);
            let fv = V3::new(&f_r, dc);
            let gv = V3::new(&g_r, dp);
            let mut vv = V3SlabMut::new(&mut v_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    let g_row = gv.row(j, 0);
                    for k in 0..nzi {
                        let p_row = pv.row(j, k);
                        let pjp1_row = pv.row(j + 1, k);
                        let f_row = fv.row(j, k);
                        let mut v_row = vv.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vdy = lw.splat(inv_dy);
                            let vdt = lw.splat(dt);
                            let dpdy = (pjp1_row.lanes(lw, i) - p_row.lanes(lw, i)) * vdy;
                            v_row.add_lanes(
                                lw,
                                i,
                                vdt * (-g_row.lanes(lw, i) * dpdy + f_row.lanes(lw, i)),
                            );
                        });
                    }
                }
            }
        },
    )
}
}
