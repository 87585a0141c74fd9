//! The vertically implicit short-step kernels.
//!
//! * [`helmholtz`] — builds and solves the tridiagonal 1-D
//!   Helmholtz-like system per column (kernel (4) of Fig. 5; launch
//!   layout of Fig. 2b: threads tile (x, y) and march sequentially in
//!   z). It also stores the explicit "star" parts of ρ* and Θ into
//!   scratch, from which the back-substitution kernels below finish the
//!   substep.
//! * [`density`] / [`potential_temperature`] — the Fig. 9 "Density" and
//!   "Potential temperature" kernels: back-substitute the implicit
//!   vertical fluxes. They are separate kernels treated as one logical
//!   kernel by the overlap scheduler (overlap method 3).
//!
//! The math mirrors `dycore::acoustic::implicit_vertical` exactly so the
//! GPU port agrees with the CPU reference to round-off.

use crate::geom::DeviceGeom;
use crate::kernels::region::{reads_stencil, widest, writes_rects, KName, Region};
use crate::kernels::walk_lanes;
use crate::view::{V3SlabMut, V3};
use numerics::simd::Lane;
use numerics::Real;
use physics::consts::GRAV;
use vgpu::{Buf, Device, Dim3, KernelCost, Launch, StreamId, VgpuError};

/// Inputs/outputs of the implicit vertical solve.
pub struct HelmholtzArgs<R> {
    pub u: Buf<R>,
    pub v: Buf<R>,
    pub w: Buf<R>,
    pub rho: Buf<R>,
    pub th: Buf<R>,
    pub p: Buf<R>,
    pub fu_w: Buf<R>,
    pub frho: Buf<R>,
    pub fth: Buf<R>,
    pub th_ref: Buf<R>,
    pub p_ref: Buf<R>,
    /// Scratch out: explicit ρ*‡ per center.
    pub st_rho: Buf<R>,
    /// Scratch out: explicit Θ‡ per center.
    pub st_th: Buf<R>,
}

/// Launch configuration for column solves: (64, 4) threads over (x, y)
/// (Fig. 2b), marching in z.
fn column_launch(area: u64) -> (Dim3, Dim3) {
    let block = Dim3::new(64, 4, 1);
    let cols = area.max(1);
    let bx = cols.div_ceil(64 * 4).max(1) as u32;
    (Dim3::new(bx, 4, 1), block)
}

/// Whether every lane of `beta` is a usable pivot (`|β| > 0`).
#[inline(always)]
fn pivots_ok<R: Real, L: Lane<R>>(beta: L) -> bool {
    (0..L::N).all(|e| beta.extract(e).abs() > R::ZERO)
}

numerics::simd_kernel! {
/// Solve the tridiagonal system for the new W in every column of
/// `region` and write ρ*‡/Θ‡ to scratch.
#[allow(clippy::too_many_arguments)]
pub fn helmholtz<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    beta: f64,
    dtau: f64,
    args: HelmholtzArgs<R>,
) -> Result<(), VgpuError> {
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let area = region.area(nx, ny, hw);
    if area == 0 {
        return Ok(());
    }
    let points = area * nz as u64;
    let (gd, bd) = column_launch(area);
    let cost = KernelCost::streaming(points, 48.0, 14.0, 4.0);
    let (dc, dw, dp) = (geom.dc, geom.dw, geom.dp);
    let flat = geom.flat;
    let inv_dx = R::from_f64(1.0 / geom.dx);
    let inv_dy = R::from_f64(1.0 / geom.dy);
    let dz = R::from_f64(geom.dz);
    let dt = R::from_f64(dtau);
    let bt = R::from_f64(beta);
    let grav = R::from_f64(GRAV);
    let one = R::ONE;
    let half = R::HALF;
    let g2 = geom.g;
    let sx2 = geom.dzsdx_u;
    let sy2 = geom.dzsdy_v;
    let (th_c_b, th_w_b, c2m_b, rbw_b) = (geom.th_c, geom.th_w, geom.c2m, geom.rbw);
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gd, bd, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[
                args.u, args.v, args.rho, args.th, args.p, args.frho, args.fth,
                args.th_ref, args.p_ref,
            ]))
            .reading(reads_stencil(&dw, &rects, &[args.fu_w]))
            .reading([g2.access(), sx2.access(), sy2.access()])
            .reading([th_c_b.access(), th_w_b.access(), c2m_b.access(), rbw_b.access()])
            .writing(writes_rects(&dw, &rects, &[args.w]))
            .writing(writes_rects(&dc, &rects, &[args.st_rho, args.st_th])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let u_r = mem.read(args.u);
            let v_r = mem.read(args.v);
            let rho_r = mem.read(args.rho);
            let th_r = mem.read(args.th);
            let p_r = mem.read(args.p);
            let fw_r = mem.read(args.fu_w);
            let frho_r = mem.read(args.frho);
            let fth_r = mem.read(args.fth);
            let thref_r = mem.read(args.th_ref);
            let pref_r = mem.read(args.p_ref);
            let g_r = mem.read(g2);
            let sx_r = mem.read(sx2);
            let sy_r = mem.read(sy2);
            let thc_r = mem.read(th_c_b);
            let thw_r = mem.read(th_w_b);
            let c2m_r = mem.read(c2m_b);
            let rbw_r = mem.read(rbw_b);
            // This kernel reads and writes w / scratch, but only within the
            // current column, so per-slab mutable views are race-free.
            let mut w_s = mem.write_slab(args.w, dw.slab(sj0, sj1));
            let mut strho_s = mem.write_slab(args.st_rho, dc.slab(sj0, sj1));
            let mut stth_s = mem.write_slab(args.st_th, dc.slab(sj0, sj1));

            let uv = V3::new(&u_r, dc);
            let vv = V3::new(&v_r, dc);
            let rhov = V3::new(&rho_r, dc);
            let thv = V3::new(&th_r, dc);
            let pv = V3::new(&p_r, dc);
            let fwv = V3::new(&fw_r, dw);
            let frhov = V3::new(&frho_r, dc);
            let fthv = V3::new(&fth_r, dc);
            let threfv = V3::new(&thref_r, dc);
            let prefv = V3::new(&pref_r, dc);
            let gv = V3::new(&g_r, dp);
            let sxv = V3::new(&sx_r, dp);
            let syv = V3::new(&sy_r, dp);
            let thcv = V3::new(&thc_r, dc);
            let thwv = V3::new(&thw_r, dw);
            let c2mv = V3::new(&c2m_r, dc);
            let rbwv = V3::new(&rbw_r, dw);
            let mut wv = V3SlabMut::new(&mut w_s, dw, sj0);
            let mut strho = V3SlabMut::new(&mut strho_s, dc, sj0);
            let mut stth = V3SlabMut::new(&mut stth_s, dc, sj0);

            // The column march is restructured row-at-a-time: every phase
            // sweeps contiguous x with row cursors, carrying the per-column
            // work vectors (the per-thread register/local arrays of the
            // CUDA kernel) as (level, x) scratch planes. Columns are
            // independent and each column's operation sequence is exactly
            // the per-column original, so results are bitwise identical.
            for r in &rects {
                let i0 = r.i0;
                let nxs = (r.i1 - r.i0).max(0) as usize;
                if nxs == 0 {
                    continue;
                }
                let li = |i: isize| (i - i0) as usize;
                let mut gm_row = vec![R::ZERO; nxs];
                let mut inv_gdz_row = vec![R::ZERO; nxs];
                let mut w_surf = vec![R::ZERO; nxs];
                let mut p_st = vec![R::ZERO; nz * nxs];
                let mut ta = vec![R::ZERO; nz * nxs];
                let mut tb = vec![R::ZERO; nz * nxs];
                let mut tc = vec![R::ZERO; nz * nxs];
                let mut td = vec![R::ZERO; nz * nxs];
                let mut tscr = vec![R::ZERO; nz * nxs];
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    // Surface row: metric factors and the kinematic
                    // lower-boundary w.
                    {
                        let g_row = gv.row(j, 0);
                        let rho0_row = rhov.row(j, 0);
                        let u0 = uv.row(j, 0);
                        let vjm1 = vv.row(j - 1, 0);
                        let v0 = vv.row(j, 0);
                        let sx_row = sxv.row(j, 0);
                        let sy_jm1 = syv.row(j - 1, 0);
                        let sy_0 = syv.row(j, 0);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vone = lw.splat(one);
                            let vh = lw.splat(half);
                            let vdz = lw.splat(dz);
                            let gm = g_row.lanes(lw, i);
                            gm.store_at(&mut gm_row, li(i));
                            (vone / (gm * vdz)).store_at(&mut inv_gdz_row, li(i));
                            let ws = if flat {
                                lw.splat(R::ZERO)
                            } else {
                                let rho0 = rho0_row.lanes(lw, i);
                                let uspec = vh * (u0.lanes(lw, i - 1) + u0.lanes(lw, i)) / rho0;
                                let vspec = vh * (vjm1.lanes(lw, i) + v0.lanes(lw, i)) / rho0;
                                let slopex = vh * (sx_row.lanes(lw, i - 1) + sx_row.lanes(lw, i));
                                let slopey = vh * (sy_jm1.lanes(lw, i) + sy_0.lanes(lw, i));
                                rho0 * (uspec * slopex + vspec * slopey)
                            };
                            ws.store_at(&mut w_surf, li(i));
                        });
                    }

                    // Explicit star parts per center.
                    for kc in 0..nz {
                        let k = kc as isize;
                        let u0 = uv.row(j, k);
                        let vjm1 = vv.row(j - 1, k);
                        let v0 = vv.row(j, k);
                        let thc_jm1 = thcv.row(j - 1, k);
                        let thc_0 = thcv.row(j, k);
                        let thc_jp1 = thcv.row(j + 1, k);
                        let w_k = wv.row(j, k);
                        let w_kp = wv.row(j, k + 1);
                        let thw_k = thwv.row(j, k);
                        let thw_kp = thwv.row(j, k + 1);
                        let rho_0 = rhov.row(j, k);
                        let th_0 = thv.row(j, k);
                        let frho_0 = frhov.row(j, k);
                        let fth_0 = fthv.row(j, k);
                        let pref_0 = prefv.row(j, k);
                        let thref_0 = threfv.row(j, k);
                        let c2m_0 = c2mv.row(j, k);
                        let mut strho_row = strho.row_mut(j, k);
                        let mut stth_row = stth.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vh = lw.splat(half);
                            let vdx = lw.splat(inv_dx);
                            let vdy = lw.splat(inv_dy);
                            let vdt = lw.splat(dt);
                            let vomb = lw.splat(one - bt);
                            let dh_rho = (u0.lanes(lw, i) - u0.lanes(lw, i - 1)) * vdx
                                + (v0.lanes(lw, i) - vjm1.lanes(lw, i)) * vdy;
                            let thc_c = thc_0.lanes(lw, i);
                            let thu_p = vh * (thc_c + thc_0.lanes(lw, i + 1));
                            let thu_m = vh * (thc_0.lanes(lw, i - 1) + thc_c);
                            let thv_p = vh * (thc_c + thc_jp1.lanes(lw, i));
                            let thv_m = vh * (thc_jm1.lanes(lw, i) + thc_c);
                            let dh_th = (thu_p * u0.lanes(lw, i) - thu_m * u0.lanes(lw, i - 1))
                                * vdx
                                + (thv_p * v0.lanes(lw, i) - thv_m * vjm1.lanes(lw, i)) * vdy;
                            let inv_gdz = lw.load_at(&inv_gdz_row, li(i));
                            let dwz_old = (w_kp.lanes(lw, i) - w_k.lanes(lw, i)) * inv_gdz;
                            let dthwz_old = (thw_kp.lanes(lw, i) * w_kp.lanes(lw, i)
                                - thw_k.lanes(lw, i) * w_k.lanes(lw, i))
                                * inv_gdz;
                            let rho_st = rho_0.lanes(lw, i)
                                + vdt * (frho_0.lanes(lw, i) - dh_rho - vomb * dwz_old);
                            let th_st = th_0.lanes(lw, i)
                                + vdt * (fth_0.lanes(lw, i) - dh_th - vomb * dthwz_old);
                            strho_row.set_lanes(lw, i, rho_st);
                            stth_row.set_lanes(lw, i, th_st);
                            (pref_0.lanes(lw, i)
                                + c2m_0.lanes(lw, i) * (th_st - thref_0.lanes(lw, i)))
                            .store_at(&mut p_st, kc * nxs + li(i));
                        });
                    }

                    // Tridiagonal rows for interior w levels.
                    let tb2 = (dt * bt) * (dt * bt);
                    for kw in 1..nz {
                        let row = kw - 1;
                        let k = kw as isize;
                        let c2m_lo_row = c2mv.row(j, k - 1);
                        let c2m_hi_row = c2mv.row(j, k);
                        let thw_m_row = thwv.row(j, k - 1);
                        let thw_0_row = thwv.row(j, k);
                        let thw_p_row = thwv.row(j, k + 1);
                        let p_km1 = pv.row(j, k - 1);
                        let p_k = pv.row(j, k);
                        let rho_km1 = rhov.row(j, k - 1);
                        let rho_k = rhov.row(j, k);
                        let rbw_k = rbwv.row(j, k);
                        let strho_km1 = strho.row(j, k - 1);
                        let strho_k = strho.row(j, k);
                        let w_k = wv.row(j, k);
                        let fw_k = fwv.row(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vmtb2 = lw.splat(-tb2);
                            let vtb2 = lw.splat(tb2);
                            let vdz = lw.splat(dz);
                            let vdz2 = lw.splat(dz * dz);
                            let vg2dz = lw.splat(grav / (R::TWO * dz));
                            let vone = lw.splat(one);
                            let vh = lw.splat(half);
                            let vgrav = lw.splat(grav);
                            let vdt = lw.splat(dt);
                            let vomb = lw.splat(one - bt);
                            let vbt = lw.splat(bt);
                            let gm = lw.load_at(&gm_row, li(i));
                            let c2m_lo = c2m_lo_row.lanes(lw, i);
                            let c2m_hi = c2m_hi_row.lanes(lw, i);
                            let thw_m = thw_m_row.lanes(lw, i);
                            let thw_0 = thw_0_row.lanes(lw, i);
                            let thw_p = thw_p_row.lanes(lw, i);
                            (vmtb2 / gm * (c2m_lo * thw_m / vdz2 - vg2dz))
                                .store_at(&mut ta, row * nxs + li(i));
                            (vone + vtb2 / (gm * vdz * vdz) * thw_0 * (c2m_hi + c2m_lo))
                                .store_at(&mut tb, row * nxs + li(i));
                            (vmtb2 / gm * (c2m_hi * thw_p / vdz2 + vg2dz))
                                .store_at(&mut tc, row * nxs + li(i));
                            let p_old_grad = (p_k.lanes(lw, i) - p_km1.lanes(lw, i)) / vdz;
                            let buoy_old = vgrav
                                * (vh * (rho_km1.lanes(lw, i) + rho_k.lanes(lw, i))
                                    - rbw_k.lanes(lw, i));
                            let p_st_grad = (lw.load_at(&p_st, kw * nxs + li(i))
                                - lw.load_at(&p_st, (kw - 1) * nxs + li(i)))
                                / vdz;
                            let buoy_st = vgrav
                                * (vh * (strho_km1.lanes(lw, i) + strho_k.lanes(lw, i))
                                    - rbw_k.lanes(lw, i));
                            (w_k.lanes(lw, i) + vdt * fw_k.lanes(lw, i)
                                - vdt * vomb * (p_old_grad + buoy_old)
                                - vdt * vbt * (p_st_grad + buoy_st))
                                .store_at(&mut td, row * nxs + li(i));
                        });
                    }
                    if nz >= 2 {
                        for l in 0..nxs {
                            let a0 = ta[l];
                            td[l] -= a0 * w_surf[l];
                            ta[l] = R::ZERO;
                            tc[(nz - 2) * nxs + l] = R::ZERO;
                        }
                    }

                    // Thomas algorithm over the row's columns — the exact
                    // per-column sequence of `numerics::tridiag::
                    // solve_in_place` on rows [0, nz-1).
                    let n = nz - 1;
                    assert!(n >= 1);
                    numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                        let l = li(i);
                        let beta = lw.load_at(&tb, l);
                        assert!(pivots_ok(beta), "zero pivot in tridiagonal solve (row 0)");
                        (lw.load_at(&td, l) / beta).store_at(&mut td, l);
                        (lw.load_at(&tc, l) / beta).store_at(&mut tscr, l);
                    });
                    for kr in 1..n {
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let (l, lm) = (kr * nxs + li(i), (kr - 1) * nxs + li(i));
                            let beta =
                                lw.load_at(&tb, l) - lw.load_at(&ta, l) * lw.load_at(&tscr, lm);
                            assert!(pivots_ok(beta), "zero pivot in tridiagonal solve");
                            (lw.load_at(&tc, l) / beta).store_at(&mut tscr, l);
                            ((lw.load_at(&td, l) - lw.load_at(&ta, l) * lw.load_at(&td, lm))
                                / beta)
                                .store_at(&mut td, l);
                        });
                    }
                    for kr in (0..n - 1).rev() {
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let (l, lp) = (kr * nxs + li(i), (kr + 1) * nxs + li(i));
                            let next = lw.load_at(&td, lp);
                            (lw.load_at(&td, l) - lw.load_at(&tscr, l) * next).store_at(&mut td, l);
                        });
                    }

                    // Write the new w levels.
                    {
                        let mut w_row = wv.row_mut(j, 0);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            w_row.set_lanes(lw, i, lw.load_at(&w_surf, li(i)));
                        });
                    }
                    {
                        let mut w_row = wv.row_mut(j, nz as isize);
                        for i in r.i0..r.i1 {
                            w_row.set(i, R::ZERO);
                        }
                    }
                    for kw in 1..nz {
                        let mut w_row = wv.row_mut(j, kw as isize);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            w_row.set_lanes(lw, i, lw.load_at(&td, (kw - 1) * nxs + li(i)));
                        });
                    }
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Back-substitute the new density:
/// `ρ* = ρ*‡ − Δτβ ∂ζ(W)/G` (the Fig. 9 "Density" kernel).
#[allow(clippy::too_many_arguments)]
pub fn density<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    beta: f64,
    dtau: f64,
    st_rho: Buf<R>,
    w: Buf<R>,
    rho: Buf<R>,
) -> Result<(), VgpuError> {
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gd, bd) = crate::kernels::region::launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, 5.0, 4.0, 1.0);
    let (dc, dw, dp) = (geom.dc, geom.dw, geom.dp);
    let g2 = geom.g;
    let dz = R::from_f64(geom.dz);
    let fac = R::from_f64(dtau * beta);
    let nzi = nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gd, bd, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[st_rho]))
            .reading(reads_stencil(&dw, &rects, &[w]))
            .reading([g2.access()])
            .writing(writes_rects(&dc, &rects, &[rho])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let st_r = mem.read(st_rho);
            let w_r = mem.read(w);
            let g_r = mem.read(g2);
            let mut rho_s = mem.write_slab(rho, dc.slab(sj0, sj1));
            let st = V3::new(&st_r, dc);
            let wv = V3::new(&w_r, dw);
            let gv = V3::new(&g_r, dp);
            let mut rv = V3SlabMut::new(&mut rho_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    let g_row = gv.row(j, 0);
                    for k in 0..nzi {
                        let st_row = st.row(j, k);
                        let w_k = wv.row(j, k);
                        let w_kp = wv.row(j, k + 1);
                        let mut rho_row = rv.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vone = lw.splat(R::ONE);
                            let vdz = lw.splat(dz);
                            let vfac = lw.splat(fac);
                            let inv_gdz = vone / (g_row.lanes(lw, i) * vdz);
                            let dwz = (w_kp.lanes(lw, i) - w_k.lanes(lw, i)) * inv_gdz;
                            rho_row.set_lanes(lw, i, st_row.lanes(lw, i) - vfac * dwz);
                        });
                    }
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Back-substitute the new potential temperature:
/// `Θ = Θ‡ − Δτβ ∂ζ(θ̄_w W)/G` (the Fig. 9 "Potential temperature"
/// kernel, fused logically with [`density`] by overlap method 3).
#[allow(clippy::too_many_arguments)]
pub fn potential_temperature<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    beta: f64,
    dtau: f64,
    st_th: Buf<R>,
    w: Buf<R>,
    th: Buf<R>,
) -> Result<(), VgpuError> {
    let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
    let rects = region.rects(nx, ny, hw);
    let points = region.area(nx, ny, hw) * nz as u64;
    if points == 0 {
        return Ok(());
    }
    let (gd, bd) = crate::kernels::region::launch_cfg_region(region, nx, ny, nz, hw);
    let cost = KernelCost::streaming(points, 7.0, 5.0, 1.0);
    let (dc, dw, dp) = (geom.dc, geom.dw, geom.dp);
    let g2 = geom.g;
    let thw_b = geom.th_w;
    let dz = R::from_f64(geom.dz);
    let fac = R::from_f64(dtau * beta);
    let nzi = nz as isize;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new(kn.get(region), gd, bd, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, widest(&rects)))
            .reading(reads_stencil(&dc, &rects, &[st_th]))
            .reading(reads_stencil(&dw, &rects, &[w, thw_b]))
            .reading([g2.access()])
            .writing(writes_rects(&dc, &rects, &[th])),
        ny,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let st_r = mem.read(st_th);
            let w_r = mem.read(w);
            let g_r = mem.read(g2);
            let thw_r = mem.read(thw_b);
            let mut th_s = mem.write_slab(th, dc.slab(sj0, sj1));
            let st = V3::new(&st_r, dc);
            let wv = V3::new(&w_r, dw);
            let gv = V3::new(&g_r, dp);
            let thwv = V3::new(&thw_r, dw);
            let mut tv = V3SlabMut::new(&mut th_s, dc, sj0);
            for r in &rects {
                for j in r.j0.max(sj0)..r.j1.min(sj1) {
                    let g_row = gv.row(j, 0);
                    for k in 0..nzi {
                        let st_row = st.row(j, k);
                        let w_k = wv.row(j, k);
                        let w_kp = wv.row(j, k + 1);
                        let thw_k = thwv.row(j, k);
                        let thw_kp = thwv.row(j, k + 1);
                        let mut th_row = tv.row_mut(j, k);
                        numerics::x_walk!(R, lanes_on, r.i0..r.i1, |lw, i| {
                            let vone = lw.splat(R::ONE);
                            let vdz = lw.splat(dz);
                            let vfac = lw.splat(fac);
                            let inv_gdz = vone / (g_row.lanes(lw, i) * vdz);
                            let dthwz = (thw_kp.lanes(lw, i) * w_kp.lanes(lw, i)
                                - thw_k.lanes(lw, i) * w_k.lanes(lw, i))
                                * inv_gdz;
                            th_row.set_lanes(lw, i, st_row.lanes(lw, i) - vfac * dthwz);
                        });
                    }
                }
            }
        },
    )
}
}
