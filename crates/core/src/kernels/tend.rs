//! Slow-tendency kernels: Coriolis force, the metric part of the
//! horizontal pressure gradient, the linear acoustic divergences,
//! diffusion, and the tracer long-step update.

use crate::geom::DeviceGeom;
use crate::kernels::region::{
    launch_cfg, launch_cfg_region, reads_all, reads_stencil, widest, writes_all, writes_rects,
    KName, Region,
};
use crate::kernels::walk_lanes;
use crate::view::{Row, V3SlabMut, V3};
use numerics::simd::{Lane, Width};
use numerics::Real;
use vgpu::{Buf, Device, KernelCost, Launch, StreamId, VgpuError};

numerics::simd_kernel! {
/// f-plane Coriolis: `F_U += f V̄|_u`, `F_V −= f Ū|_v`.
#[allow(clippy::too_many_arguments)]
pub fn coriolis<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    fcor: f64,
    u: Buf<R>,
    v: Buf<R>,
    fu: Buf<R>,
    fv: Buf<R>,
) -> Result<(), VgpuError> {
    // f = 0 disables Coriolis, an exact config sentinel — lint: allow(float-eq)
    if fcor == 0.0 {
        return Ok(());
    }
    let dc = geom.dc;
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.nz as u64);
    let cost = KernelCost::streaming(points, 12.0, 4.0, 2.0);
    let f = R::from_f64(fcor);
    let quarter = R::from_f64(0.25);
    let (nx, ny, nz) = (geom.nx as isize, geom.ny as isize, geom.nz as isize);
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("coriolis", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[u, v]))
            .writing(writes_all(&[fu, fv])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let mut fu_s = mem.write_slab(fu, dc.slab(sj0, sj1));
            let mut fv_s = mem.write_slab(fv, dc.slab(sj0, sj1));
            let uv = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let mut fuv = V3SlabMut::new(&mut fu_s, dc, sj0);
            let mut fvv = V3SlabMut::new(&mut fv_s, dc, sj0);
            for j in sj0..sj1 {
                for k in 0..nz {
                    let v0 = vv.row(j, k);
                    let vjm1 = vv.row(j - 1, k);
                    let u0 = uv.row(j, k);
                    let ujp1 = uv.row(j + 1, k);
                    let mut fu_row = fuv.row_mut(j, k);
                    let mut fv_row = fvv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vq = lw.splat(quarter);
                        let vf = lw.splat(f);
                        let v_at_u = vq
                            * (v0.lanes(lw, i)
                                + v0.lanes(lw, i + 1)
                                + vjm1.lanes(lw, i)
                                + vjm1.lanes(lw, i + 1));
                        fu_row.add_lanes(lw, i, vf * v_at_u);
                        let u_at_v = vq
                            * (u0.lanes(lw, i)
                                + u0.lanes(lw, i - 1)
                                + ujp1.lanes(lw, i)
                                + ujp1.lanes(lw, i - 1));
                        fv_row.add_lanes(lw, i, -vf * u_at_v);
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Metric part of the horizontal pressure gradient over terrain
/// (mirrors `dycore::tendency::metric_pressure_gradient`).
#[allow(clippy::too_many_arguments)]
pub fn metric_pg<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    p: Buf<R>,
    fu: Buf<R>,
    fv: Buf<R>,
) -> Result<(), VgpuError> {
    if geom.flat {
        return Ok(());
    }
    let (dc, dp) = (geom.dc, geom.dp);
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.nz as u64);
    let cost = KernelCost::streaming(points, 16.0, 6.0, 2.0);
    let (sx2, sy2, zf) = (geom.dzsdx_u, geom.dzsdy_v, geom.zeta_fac);
    let dz = geom.dz;
    let (nx, ny, nz) = (geom.nx as isize, geom.ny as isize, geom.nz as isize);
    let half = R::HALF;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("metric_pg", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[p, sx2, sy2, zf]))
            .writing(writes_all(&[fu, fv])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let p_r = mem.read(p);
            let sx_r = mem.read(sx2);
            let sy_r = mem.read(sy2);
            let zf_r = mem.read(zf);
            let mut fu_s = mem.write_slab(fu, dc.slab(sj0, sj1));
            let mut fv_s = mem.write_slab(fv, dc.slab(sj0, sj1));
            let pv = V3::new(&p_r, dc);
            let sxv = V3::new(&sx_r, dp);
            let syv = V3::new(&sy_r, dp);
            let mut fuv = V3SlabMut::new(&mut fu_s, dc, sj0);
            let mut fvv = V3SlabMut::new(&mut fv_s, dc, sj0);
            for j in sj0..sj1 {
                let sx_row = sxv.row(j, 0);
                let sy_row = syv.row(j, 0);
                for k in 0..nz {
                    let km = (k - 1).max(0);
                    let kp = (k + 1).min(nz - 1);
                    let span = R::from_f64(((kp - km).max(1)) as f64 * dz);
                    let fac = zf_r[k as usize];
                    let p_km = pv.row(j, km);
                    let p_kp = pv.row(j, kp);
                    let pjp_km = pv.row(j + 1, km);
                    let pjp_kp = pv.row(j + 1, kp);
                    let mut fu_row = fuv.row_mut(j, k);
                    let mut fv_row = fvv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vspan = lw.splat(span);
                        let vfac = lw.splat(fac);
                        let vhalf = lw.splat(half);
                        let dpdz_i = (p_kp.lanes(lw, i) - p_km.lanes(lw, i)) / vspan;
                        let dpdz_ip = (p_kp.lanes(lw, i + 1) - p_km.lanes(lw, i + 1)) / vspan;
                        fu_row.add_lanes(
                            lw,
                            i,
                            sx_row.lanes(lw, i) * vfac * vhalf * (dpdz_i + dpdz_ip),
                        );
                        let dpdz_jp = (pjp_kp.lanes(lw, i) - pjp_km.lanes(lw, i)) / vspan;
                        fv_row.add_lanes(
                            lw,
                            i,
                            sy_row.lanes(lw, i) * vfac * vhalf * (dpdz_i + dpdz_jp),
                        );
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Add the linear θ̄-weighted divergence to F_Θ
/// (`dycore::ops::div_lin_theta` followed by the add).
#[allow(clippy::too_many_arguments)]
pub fn add_div_lin_theta<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    u: Buf<R>,
    v: Buf<R>,
    w: Buf<R>,
    fth: Buf<R>,
) -> Result<(), VgpuError> {
    let (dc, dw, dp) = (geom.dc, geom.dw, geom.dp);
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.nz as u64);
    let cost = KernelCost::streaming(points, 20.0, 8.0, 1.0);
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let inv_dz = R::from_f64(1.0 / geom.dz);
    let (th_c_b, th_w_b, g2) = (geom.th_c, geom.th_w, geom.g);
    let (nx, ny, nz) = (geom.nx as isize, geom.ny as isize, geom.nz as isize);
    let half = R::HALF;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("div_lin_theta", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[u, v, w, th_c_b, th_w_b, g2]))
            .writing(writes_all(&[fth])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let w_r = mem.read(w);
            let thc_r = mem.read(th_c_b);
            let thw_r = mem.read(th_w_b);
            let g_r = mem.read(g2);
            let mut f_s = mem.write_slab(fth, dc.slab(sj0, sj1));
            let uv = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let wv = V3::new(&w_r, dw);
            let thc = V3::new(&thc_r, dc);
            let thw = V3::new(&thw_r, dw);
            let gv = V3::new(&g_r, dp);
            let mut fv = V3SlabMut::new(&mut f_s, dc, sj0);
            // One division per (i, j) as before, hoisted into a per-j row.
            let mut inv_g_row = vec![R::ZERO; nx as usize];
            for j in sj0..sj1 {
                let g_row = gv.row(j, 0);
                for (ii, slot) in inv_g_row.iter_mut().enumerate() {
                    *slot = R::ONE / g_row.at(ii as isize);
                }
                for k in 0..nz {
                    let thc0 = thc.row(j, k);
                    let thcjm1 = thc.row(j - 1, k);
                    let thcjp1 = thc.row(j + 1, k);
                    let u0 = uv.row(j, k);
                    let vjm1 = vv.row(j - 1, k);
                    let v0 = vv.row(j, k);
                    let w_k = wv.row(j, k);
                    let w_kp = wv.row(j, k + 1);
                    let thw_k = thw.row(j, k);
                    let thw_kp = thw.row(j, k + 1);
                    let mut f_row = fv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vh = lw.splat(half);
                        let vdx = lw.splat(inv_dx);
                        let vdy = lw.splat(inv_dy);
                        let vdz = lw.splat(inv_dz);
                        let thc_c = thc0.lanes(lw, i);
                        let thu_p = vh * (thc_c + thc0.lanes(lw, i + 1));
                        let thu_m = vh * (thc0.lanes(lw, i - 1) + thc_c);
                        let thv_p = vh * (thc_c + thcjp1.lanes(lw, i));
                        let thv_m = vh * (thcjm1.lanes(lw, i) + thc_c);
                        let inv_g = lw.load_at(&inv_g_row, i as usize);
                        let d = (thu_p * u0.lanes(lw, i) - thu_m * u0.lanes(lw, i - 1)) * vdx
                            + (thv_p * v0.lanes(lw, i) - thv_m * vjm1.lanes(lw, i)) * vdy
                            + (thw_kp.lanes(lw, i) * w_kp.lanes(lw, i)
                                - thw_k.lanes(lw, i) * w_k.lanes(lw, i))
                                * inv_g
                                * vdz;
                        f_row.add_lanes(lw, i, d);
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Terrain metric continuity forcing: `F_ρ += div_lin − div_full`
/// (identically zero on flat terrain, where the kernel is skipped).
#[allow(clippy::too_many_arguments)]
pub fn continuity_residual<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    u: Buf<R>,
    v: Buf<R>,
    w: Buf<R>,
    mw: Buf<R>,
    frho: Buf<R>,
) -> Result<(), VgpuError> {
    if geom.flat {
        return Ok(());
    }
    let (dc, dw, dp) = (geom.dc, geom.dw, geom.dp);
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.nz as u64);
    let cost = KernelCost::streaming(points, 18.0, 8.0, 1.0);
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let inv_dz = R::from_f64(1.0 / geom.dz);
    let g2 = geom.g;
    let (nx, ny, nz) = (geom.nx as isize, geom.ny as isize, geom.nz as isize);
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("continuity_residual", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[u, v, w, mw, g2]))
            .writing(writes_all(&[frho])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let w_r = mem.read(w);
            let mw_r = mem.read(mw);
            let g_r = mem.read(g2);
            let mut f_s = mem.write_slab(frho, dc.slab(sj0, sj1));
            let uv = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let wv = V3::new(&w_r, dw);
            let mwv = V3::new(&mw_r, dw);
            let gv = V3::new(&g_r, dp);
            let mut fv = V3SlabMut::new(&mut f_s, dc, sj0);
            let mut inv_g_row = vec![R::ZERO; nx as usize];
            for j in sj0..sj1 {
                let g_row = gv.row(j, 0);
                for (ii, slot) in inv_g_row.iter_mut().enumerate() {
                    *slot = R::ONE / g_row.at(ii as isize);
                }
                for k in 0..nz {
                    let u0 = uv.row(j, k);
                    let vjm1 = vv.row(j - 1, k);
                    let v0 = vv.row(j, k);
                    let w_k = wv.row(j, k);
                    let w_kp = wv.row(j, k + 1);
                    let mw_k = mwv.row(j, k);
                    let mw_kp = mwv.row(j, k + 1);
                    let mut f_row = fv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vdx = lw.splat(inv_dx);
                        let vdy = lw.splat(inv_dy);
                        let vdz = lw.splat(inv_dz);
                        let dh = (u0.lanes(lw, i) - u0.lanes(lw, i - 1)) * vdx
                            + (v0.lanes(lw, i) - vjm1.lanes(lw, i)) * vdy;
                        let full = dh + (mw_kp.lanes(lw, i) - mw_k.lanes(lw, i)) * vdz;
                        let inv_g = lw.load_at(&inv_g_row, i as usize);
                        let lin = dh + (w_kp.lanes(lw, i) - w_k.lanes(lw, i)) * inv_g * vdz;
                        f_row.add_lanes(lw, i, -full);
                        f_row.add_lanes(lw, i, lin);
                    });
                }
            }
        },
    )
}
}

/// A diffusion stencil tap at width `lw`: the spec row minus, when
/// diffusing a deviation, the reference row.
#[inline(always)]
fn tap<R: Real, L: Lane<R>>(
    rows: &(Row<'_, R>, Option<Row<'_, R>>),
    lw: Width<R, L>,
    i: isize,
) -> L {
    match &rows.1 {
        Some(rf) => rows.0.lanes(lw, i) - rf.lanes(lw, i),
        None => rows.0.lanes(lw, i),
    }
}

/// Which ρ* weight a diffusion kernel applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffWeight {
    Center,
    U,
    V,
    W,
}

numerics::simd_kernel! {
/// `out += K ρ*_stag ∇²(spec − ref?)` over the vertical range
/// `[klo, khi)` (mirrors `dycore::ops::diffuse` with the deviation
/// subtraction done per stencil tap).
#[allow(clippy::too_many_arguments)]
pub fn diffuse<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    name: &'static str,
    kdiff: f64,
    spec: Buf<R>,
    sub_ref: Option<Buf<R>>,
    weight: DiffWeight,
    rho: Buf<R>,
    out: Buf<R>,
    klo: isize,
    khi: isize,
) -> Result<(), VgpuError> {
    // zero diffusivity skips the kernel, an exact config sentinel — lint: allow(float-eq)
    if kdiff == 0.0 {
        return Ok(());
    }
    let dims = if weight == DiffWeight::W {
        geom.dw
    } else {
        geom.dc
    };
    let dc = geom.dc;
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.nz as u64);
    let cost = KernelCost::streaming(points, 18.0, 8.0, 1.0);
    let inv_dx2 = R::from_f64(1.0 / (geom.dx * geom.dx));
    let inv_dy2 = R::from_f64(1.0 / (geom.dy * geom.dy));
    let inv_dz2 = R::from_f64(1.0 / (geom.dz * geom.dz));
    let kd = R::from_f64(kdiff);
    let (nx, ny, nz) = (geom.nx as isize, geom.ny as isize, geom.nz as isize);
    let half = R::HALF;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(name, g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[spec, rho]))
            .reading(sub_ref.iter().map(|r| r.access()))
            .writing(writes_all(&[out])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let s_r = mem.read(spec);
            let rho_r = mem.read(rho);
            let ref_r = sub_ref.map(|r| mem.read(r));
            let mut o_s = mem.write_slab(out, dims.slab(sj0, sj1));
            let sv = V3::new(&s_r, dims);
            let rv = V3::new(&rho_r, dc);
            let refv = ref_r.as_ref().map(|r| V3::new(r, dc));
            let mut ov = V3SlabMut::new(&mut o_s, dims, sj0);
            // A tap is the spec row plus (when diffusing a deviation) the
            // k-clamped reference row — prepared once per (j, k).
            let tap_rows = |jj: isize, kk: isize| -> (Row<'_, R>, Option<Row<'_, R>>) {
                (
                    sv.row(jj, kk),
                    refv.as_ref().map(|rf| rf.row(jj, kk.clamp(0, nz - 1))),
                )
            };
            for j in sj0..sj1 {
                for k in klo..khi {
                    let c_rows = tap_rows(j, k);
                    let ym_rows = tap_rows(j - 1, k);
                    let yp_rows = tap_rows(j + 1, k);
                    let zm_rows = tap_rows(j, k - 1);
                    let zp_rows = tap_rows(j, k + 1);
                    let (wa, wb) = match weight {
                        DiffWeight::Center | DiffWeight::U => (rv.row(j, k), rv.row(j, k)),
                        DiffWeight::V => (rv.row(j, k), rv.row(j + 1, k)),
                        DiffWeight::W => (rv.row(j, (k - 1).max(0)), rv.row(j, k.min(nz - 1))),
                    };
                    let mut o_row = ov.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vdx2 = lw.splat(inv_dx2);
                        let vdy2 = lw.splat(inv_dy2);
                        let vdz2 = lw.splat(inv_dz2);
                        let vtwo = lw.splat(R::TWO);
                        let vkd = lw.splat(kd);
                        let vhalf = lw.splat(half);
                        let c = tap(&c_rows, lw, i);
                        let lap = (tap(&c_rows, lw, i - 1) - vtwo * c + tap(&c_rows, lw, i + 1))
                            * vdx2
                            + (tap(&ym_rows, lw, i) - vtwo * c + tap(&yp_rows, lw, i)) * vdy2
                            + (tap(&zm_rows, lw, i) - vtwo * c + tap(&zp_rows, lw, i)) * vdz2;
                        let w = match weight {
                            DiffWeight::Center => wa.lanes(lw, i),
                            DiffWeight::U => vhalf * (wa.lanes(lw, i) + wa.lanes(lw, i + 1)),
                            DiffWeight::V | DiffWeight::W => {
                                vhalf * (wa.lanes(lw, i) + wb.lanes(lw, i))
                            }
                        };
                        o_row.add_lanes(lw, i, vkd * w * lap);
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Long-step tracer update: `q = max(q_t + dts F_q, 0)` over `region`
/// (the per-variable kernels pipelined by overlap method 1).
#[allow(clippy::too_many_arguments)]
pub fn tracer_update<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    dts: f64,
    q_t: Buf<R>,
    fq: Buf<R>,
    q: Buf<R>,
) -> Result<(), VgpuError> {
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gd, bd) = launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, 3.0, 2.0, 1.0);
    let dc = geom.dc;
    let dt = R::from_f64(dts);
    let nzi = nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gd, bd, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[q_t, fq]))
            .writing(writes_rects(&dc, &rects, &[q])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let t_r = mem.read(q_t);
            let f_r = mem.read(fq);
            let mut q_s = mem.write_slab(q, dc.slab(sj0, sj1));
            let tv = V3::new(&t_r, dc);
            let fv = V3::new(&f_r, dc);
            let mut qv = V3SlabMut::new(&mut q_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    for k in 0..nzi {
                        let t_row = tv.row(j, k);
                        let f_row = fv.row(j, k);
                        let mut q_row = qv.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vdt = lw.splat(dt);
                            let vzero = lw.splat(R::ZERO);
                            let v = t_row.lanes(lw, i) + vdt * f_row.lanes(lw, i);
                            q_row.set_lanes(lw, i, v.max(vzero));
                        });
                    }
                }
            }
        },
    )
}
}
