//! Coordinate-transformation and specific-value kernels.
//!
//! Kernel (1) of the paper's Fig. 5 — "coordinate transformation for
//! density", ρ = J ρ̃ — is the archetype of this family: one or two
//! flops against three memory elements (arithmetic intensity ≈ 0.08),
//! the most bandwidth-starved kernels of the model. They compute the
//! specific (per-mass) fields the advection kernels reconstruct, and
//! the contravariant vertical mass flux.

use crate::geom::DeviceGeom;
use crate::kernels::region::{launch_cfg, reads_all, writes_all};
use crate::kernels::walk_lanes;
use crate::view::{V3SlabMut, V3};
use numerics::Real;
use vgpu::{Buf, Device, KernelCost, Launch, StreamId, VgpuError};

numerics::simd_kernel! {
/// spec = Q / ρ* over the full padded box (halos must be current).
pub fn specific_center<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    name: &'static str,
    q: Buf<R>,
    rho: Buf<R>,
    spec: Buf<R>,
) -> Result<(), VgpuError> {
    let dc = geom.dc;
    let h = geom.halo as isize;
    let points = dc.len() as u64;
    let (g, b) = launch_cfg((dc.px()) as u64, dc.pl() as u64);
    let cost = KernelCost::streaming(points, 1.0, 2.0, 1.0);
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(name, g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, dc.px() as isize))
            .reading(reads_all(&[q, rho]))
            .writing(writes_all(&[spec])),
        dc.py(),
        move |mem, row0, row1| {
            // Padded-box kernel: the span covers all py rows, row r = row j + h.
            let (sj0, sj1) = (row0 as isize - h, row1 as isize - h);
            let q_r = mem.read(q);
            let r_r = mem.read(rho);
            let mut s_s = mem.write_slab(spec, dc.slab(sj0, sj1));
            let qv = V3::new(&q_r, dc);
            let rv = V3::new(&r_r, dc);
            let mut sv = V3SlabMut::new(&mut s_s, dc, sj0);
            for j in sj0..sj1 {
                for k in -h..dc.nl as isize + h {
                    let q_row = qv.row(j, k);
                    let r_row = rv.row(j, k);
                    let mut s_row = sv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, -h..dc.nx as isize + h, |lw, i| {
                        s_row.set_lanes(lw, i, q_row.lanes(lw, i) / r_row.lanes(lw, i));
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// spec_u = U / avg_x(ρ*) over the padded box shrunk by one in x.
pub fn specific_u<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    u: Buf<R>,
    rho: Buf<R>,
    spec: Buf<R>,
) -> Result<(), VgpuError> {
    let dc = geom.dc;
    let h = geom.halo as isize;
    let points = dc.len() as u64;
    let (g, b) = launch_cfg(dc.px() as u64, dc.pl() as u64);
    let cost = KernelCost::streaming(points, 3.0, 2.0, 1.0);
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("spec_u", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, dc.px() as isize - 1))
            .reading(reads_all(&[u, rho]))
            .writing(writes_all(&[spec])),
        dc.py(),
        move |mem, row0, row1| {
            let (sj0, sj1) = (row0 as isize - h, row1 as isize - h);
            let u_r = mem.read(u);
            let r_r = mem.read(rho);
            let mut s_s = mem.write_slab(spec, dc.slab(sj0, sj1));
            let uv = V3::new(&u_r, dc);
            let rv = V3::new(&r_r, dc);
            let mut sv = V3SlabMut::new(&mut s_s, dc, sj0);
            let half = R::HALF;
            for j in sj0..sj1 {
                for k in -h..dc.nl as isize + h {
                    let u_row = uv.row(j, k);
                    let r_row = rv.row(j, k);
                    let mut s_row = sv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, -h..dc.nx as isize + h - 1, |lw, i| {
                        let vh = lw.splat(half);
                        let r = vh * (r_row.lanes(lw, i) + r_row.lanes(lw, i + 1));
                        s_row.set_lanes(lw, i, u_row.lanes(lw, i) / r);
                    });
                    let edge = s_row.at(dc.nx as isize + h - 2);
                    s_row.set(dc.nx as isize + h - 1, edge);
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// spec_v = V / avg_y(ρ*).
pub fn specific_v<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    v: Buf<R>,
    rho: Buf<R>,
    spec: Buf<R>,
) -> Result<(), VgpuError> {
    let dc = geom.dc;
    let h = geom.halo as isize;
    let points = dc.len() as u64;
    let (g, b) = launch_cfg(dc.px() as u64, dc.pl() as u64);
    let cost = KernelCost::streaming(points, 3.0, 2.0, 1.0);
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("spec_v", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, dc.px() as isize))
            .reading(reads_all(&[v, rho]))
            .writing(writes_all(&[spec])),
        dc.py(),
        move |mem, row0, row1| {
            let (sj0, sj1) = (row0 as isize - h, row1 as isize - h);
            let v_r = mem.read(v);
            let r_r = mem.read(rho);
            let mut s_s = mem.write_slab(spec, dc.slab(sj0, sj1));
            let vv = V3::new(&v_r, dc);
            let rv = V3::new(&r_r, dc);
            let mut sv = V3SlabMut::new(&mut s_s, dc, sj0);
            let half = R::HALF;
            let jlast = dc.ny as isize + h - 1;
            for j in sj0..sj1 {
                // The last padded row replicates row jlast-1; recompute that
                // row's value here instead of reading a neighbouring slab
                // (same expression, so the result is bitwise identical).
                let js = if j == jlast { jlast - 1 } else { j };
                for k in -h..dc.nl as isize + h {
                    let v_row = vv.row(js, k);
                    let r_row = rv.row(js, k);
                    let rjp_row = rv.row(js + 1, k);
                    let mut s_row = sv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, -h..dc.nx as isize + h, |lw, i| {
                        let vh = lw.splat(half);
                        let r = vh * (r_row.lanes(lw, i) + rjp_row.lanes(lw, i));
                        s_row.set_lanes(lw, i, v_row.lanes(lw, i) / r);
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// spec_w = W / avg_z(ρ*) at w levels.
pub fn specific_w<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    w: Buf<R>,
    rho: Buf<R>,
    spec: Buf<R>,
) -> Result<(), VgpuError> {
    let (dc, dw) = (geom.dc, geom.dw);
    let h = geom.halo as isize;
    let points = dw.len() as u64;
    let (g, b) = launch_cfg(dw.px() as u64, dw.pl() as u64);
    let cost = KernelCost::streaming(points, 3.0, 2.0, 1.0);
    let nz = geom.nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("spec_w", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, dw.px() as isize))
            .reading(reads_all(&[w, rho]))
            .writing(writes_all(&[spec])),
        dw.py(),
        move |mem, row0, row1| {
            let (sj0, sj1) = (row0 as isize - h, row1 as isize - h);
            let w_r = mem.read(w);
            let r_r = mem.read(rho);
            let mut s_s = mem.write_slab(spec, dw.slab(sj0, sj1));
            let wv = V3::new(&w_r, dw);
            let rv = V3::new(&r_r, dc);
            let mut sv = V3SlabMut::new(&mut s_s, dw, sj0);
            let half = R::HALF;
            for j in sj0..sj1 {
                for k in -h..dw.nl as isize + h {
                    let kc_hi = k.clamp(0, nz - 1);
                    let kc_lo = (k - 1).clamp(0, nz - 1);
                    let w_row = wv.row(j, k);
                    let r_lo = rv.row(j, kc_lo);
                    let r_hi = rv.row(j, kc_hi);
                    let mut s_row = sv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, -h..dw.nx as isize + h, |lw, i| {
                        let vh = lw.splat(half);
                        let r = vh * (r_lo.lanes(lw, i) + r_hi.lanes(lw, i));
                        s_row.set_lanes(lw, i, w_row.lanes(lw, i) / r);
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Contravariant vertical mass flux ρ*W, zero at surface and lid, with
/// one lateral halo ring (mirrors `dycore::ops::mass_flux_w`).
#[allow(clippy::too_many_arguments)]
pub fn mass_flux_w<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    u: Buf<R>,
    v: Buf<R>,
    w: Buf<R>,
    mw: Buf<R>,
) -> Result<(), VgpuError> {
    let (dc, dw, dp) = (geom.dc, geom.dw, geom.dp);
    let nz = geom.nz;
    let points = (geom.nx + 2) as u64 * (geom.ny + 2) as u64 * (nz as u64 + 1);
    let (gd, bd) = launch_cfg((geom.nx + 2) as u64, nz as u64 + 1);
    let flat = geom.flat;
    let cost = if flat {
        KernelCost::streaming(points, 2.0, 2.0, 1.0)
    } else {
        KernelCost::streaming(points, 16.0, 7.0, 1.0)
    };
    let (g2, gu2, gv2) = (geom.g, geom.dzsdx_u, geom.dzsdy_v);
    let zf = geom.zeta_fac;
    let nzl = nz;
    let span = geom.ny + 2;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("mass_flux_w", gd, bd, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, dc.nx as isize + 2))
            .reading(reads_all(&[u, v, w, g2, gu2, gv2, zf]))
            .writing(writes_all(&[mw])),
        span,
        move |mem, row0, row1| {
            // Writes one lateral halo ring: row r covers j = r - 1.
            let (sj0, sj1) = (row0 as isize - 1, row1 as isize - 1);
            let u_r = mem.read(u);
            let v_r = mem.read(v);
            let w_r = mem.read(w);
            let g_r = mem.read(g2);
            let sx_r = mem.read(gu2);
            let sy_r = mem.read(gv2);
            let zf_r = mem.read(zf);
            let mut mw_s = mem.write_slab(mw, dw.slab(sj0, sj1));
            let uv = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let wv = V3::new(&w_r, dw);
            let gv = V3::new(&g_r, dp);
            let sxv = V3::new(&sx_r, dp);
            let syv = V3::new(&sy_r, dp);
            let mut mwv = V3SlabMut::new(&mut mw_s, dw, sj0);
            let half = R::HALF;
            // One division per (i, j) as before, hoisted into a per-j row
            // over the i range -1..nx+1 (indexed i + 1).
            let mut inv_g_row = vec![R::ZERO; dc.nx + 2];
            for j in sj0..sj1 {
                let g_row = gv.row(j, 0);
                for (ii, slot) in inv_g_row.iter_mut().enumerate() {
                    *slot = R::ONE / g_row.at(ii as isize - 1);
                }
                {
                    let mut surf = mwv.row_mut(j, 0);
                    for i in -1..dc.nx as isize + 1 {
                        surf.set(i, R::ZERO);
                    }
                }
                {
                    let mut lid = mwv.row_mut(j, nzl as isize);
                    for i in -1..dc.nx as isize + 1 {
                        lid.set(i, R::ZERO);
                    }
                }
                let sx_row = sxv.row(j, 0);
                let sy_jm1 = syv.row(j - 1, 0);
                let sy_0 = syv.row(j, 0);
                for k in 1..nzl as isize {
                    let w_row = wv.row(j, k);
                    let u_km1 = uv.row(j, k - 1);
                    let u_k = uv.row(j, k);
                    let v_jm1_km1 = vv.row(j - 1, k - 1);
                    let v_jm1_k = vv.row(j - 1, k);
                    let v_0_km1 = vv.row(j, k - 1);
                    let v_0_k = vv.row(j, k);
                    let fac_lo = zf_r[(k - 1) as usize];
                    let fac_hi = zf_r[k as usize];
                    let mut mw_row = mwv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, -1..dc.nx as isize + 1, |lw, i| {
                        let vh = lw.splat(half);
                        let vzero = lw.splat(R::ZERO);
                        let vfac_lo = lw.splat(fac_lo);
                        let vfac_hi = lw.splat(fac_hi);
                        let wk = w_row.lanes(lw, i);
                        let cross = if flat {
                            vzero
                        } else {
                            let ux = |u_row: &crate::view::Row<'_, R>, fac| {
                                vh * (u_row.lanes(lw, i - 1) * sx_row.lanes(lw, i - 1) * fac
                                    + u_row.lanes(lw, i) * sx_row.lanes(lw, i) * fac)
                            };
                            let vy = |vm_row: &crate::view::Row<'_, R>,
                                      v0_row: &crate::view::Row<'_, R>,
                                      fac| {
                                vh * (vm_row.lanes(lw, i) * sy_jm1.lanes(lw, i) * fac
                                    + v0_row.lanes(lw, i) * sy_0.lanes(lw, i) * fac)
                            };
                            vh * (ux(&u_km1, vfac_lo) + ux(&u_k, vfac_hi))
                                + vh * (vy(&v_jm1_km1, &v_0_km1, vfac_lo)
                                    + vy(&v_jm1_k, &v_0_k, vfac_hi))
                        };
                        let inv_g = lw.load_at(&inv_g_row, (i + 1) as usize);
                        mw_row.set_lanes(lw, i, (wk - cross) * inv_g);
                    });
                }
            }
        },
    )
}
}

/// Device-to-device copy of a whole buffer ("array copy" of §IV-A).
pub fn copy_buf<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    name: &'static str,
    src: Buf<R>,
    dst: Buf<R>,
) -> Result<(), VgpuError> {
    let n = src.len();
    let (g, b) = launch_cfg(n as u64 / 4, 4);
    let cost = KernelCost::streaming(n as u64, 0.0, 1.0, 1.0);
    dev.launch_par(
        stream,
        Launch::new(name, g, b, cost)
            .reading(reads_all(&[src]))
            .writing(writes_all(&[dst])),
        n,
        move |mem, e0, e1| {
            // Flat element-range split (no row structure needed for a copy).
            let s = mem.read(src);
            let mut d = mem.write_slab(dst, e0..e1);
            d.copy_from_slice(&s[e0..e1]);
        },
    )
}

/// Zero-fill a buffer (tendency clear).
pub fn zero_buf<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    name: &'static str,
    buf: Buf<R>,
) -> Result<(), VgpuError> {
    let n = buf.len();
    let (g, b) = launch_cfg(n as u64 / 4, 4);
    let cost = KernelCost::streaming(n as u64, 0.0, 0.0, 1.0);
    dev.launch_par(
        stream,
        Launch::new(name, g, b, cost).writing(writes_all(&[buf])),
        n,
        move |mem, e0, e1| {
            let mut d = mem.write_slab(buf, e0..e1);
            d.fill(R::ZERO);
        },
    )
}
