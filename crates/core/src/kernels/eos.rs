//! Equation-of-state kernels (Fig. 1 "Update pressure (EOS)").

use crate::geom::DeviceGeom;
use crate::kernels::region::{launch_cfg, reads_all, writes_all};
use crate::kernels::walk_lanes;
use crate::view::{V3SlabMut, V3};
use numerics::simd::Lane;
use physics::eos;
use vgpu::{Buf, Device, KernelCost, Launch, StreamId, VgpuError};

numerics::simd_kernel! {
/// Linearized pressure update `p = p_ref + c2m (Θ − Θ_ref)` over the
/// padded box (run once per acoustic substep).
pub fn eos_linear<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    th: Buf<R>,
    th_ref: Buf<R>,
    p_ref: Buf<R>,
    p: Buf<R>,
) -> Result<(), VgpuError> {
    let dc = geom.dc;
    let h = geom.halo as isize;
    let points = dc.len() as u64;
    let (g, b) = launch_cfg(dc.px() as u64, dc.pl() as u64);
    let cost = KernelCost::streaming(points, 3.0, 4.0, 1.0);
    let c2m_b = geom.c2m;
    let nzi = geom.nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("eos_linear", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, dc.px() as isize))
            .reading(reads_all(&[th, th_ref, p_ref, c2m_b]))
            .writing(writes_all(&[p])),
        dc.py(),
        move |mem, row0, row1| {
            let (sj0, sj1) = (row0 as isize - h, row1 as isize - h);
            let th_r = mem.read(th);
            let tr_r = mem.read(th_ref);
            let pr_r = mem.read(p_ref);
            let c_r = mem.read(c2m_b);
            let mut p_s = mem.write_slab(p, dc.slab(sj0, sj1));
            let thv = V3::new(&th_r, dc);
            let trv = V3::new(&tr_r, dc);
            let prv = V3::new(&pr_r, dc);
            let cv = V3::new(&c_r, dc);
            let mut pv = V3SlabMut::new(&mut p_s, dc, sj0);
            for j in sj0..sj1 {
                for k in -h..dc.nl as isize + h {
                    let kk = k.clamp(0, nzi - 1);
                    let th_row = thv.row(j, k);
                    let tr_row = trv.row(j, k);
                    let pr_row = prv.row(j, k);
                    let c_row = cv.row(j, kk);
                    let mut p_row = pv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, -h..dc.nx as isize + h, |lw, i| {
                        let v = pr_row.lanes(lw, i)
                            + c_row.lanes(lw, i) * (th_row.lanes(lw, i) - tr_row.lanes(lw, i));
                        p_row.set_lanes(lw, i, v);
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Full nonlinear EOS `p = p00 (Rd Θ/(G p00))^(cp/cv)` over the padded
/// box (run at stage capture and step end).
pub fn eos_full<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    name: &'static str,
    th: Buf<R>,
    p: Buf<R>,
) -> Result<(), VgpuError> {
    let dc = geom.dc;
    let dp = geom.dp;
    let h = geom.halo as isize;
    let points = dc.len() as u64;
    let (g, b) = launch_cfg(dc.px() as u64, dc.pl() as u64);
    let cost = KernelCost::streaming(points, 14.0, 2.0, 1.0).with_transcendental(0.7);
    let g2 = geom.g;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(name, g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, dc.px() as isize))
            .reading(reads_all(&[th, g2]))
            .writing(writes_all(&[p])),
        dc.py(),
        move |mem, row0, row1| {
            let (sj0, sj1) = (row0 as isize - h, row1 as isize - h);
            let th_r = mem.read(th);
            let g_r = mem.read(g2);
            let mut p_s = mem.write_slab(p, dc.slab(sj0, sj1));
            let thv = V3::new(&th_r, dc);
            let gv = V3::new(&g_r, dp);
            let mut pv = V3SlabMut::new(&mut p_s, dc, sj0);
            // One division per (i, j) as before, hoisted into a per-j row
            // over the full padded i range (indexed i + h).
            let mut inv_g_row = vec![R::ZERO; dc.px()];
            for j in sj0..sj1 {
                let g_row = gv.row(j, 0);
                for (ii, slot) in inv_g_row.iter_mut().enumerate() {
                    *slot = R::ONE / g_row.at(ii as isize - h);
                }
                for k in -h..dc.nl as isize + h {
                    let th_row = thv.row(j, k);
                    let mut p_row = pv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, -h..dc.nx as isize + h, |lw, i| {
                        // The powf core stays scalar per lane: `map`
                        // applies the identical scalar function at
                        // either width.
                        let rho_th = th_row.lanes(lw, i) * lw.load_at(&inv_g_row, (i + h) as usize);
                        p_row.set_lanes(lw, i, rho_th.map(eos::pressure_from_rho_theta));
                    });
                }
            }
        },
    )
}
}
