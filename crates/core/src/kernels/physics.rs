//! Physics-process kernels: Kessler warm rain (kernel (5) of Fig. 5 —
//! "contains mathematical functions, such as log, exp, with few memory
//! accesses", hence the highest arithmetic intensity in the model),
//! rain sedimentation (Fig. 1 "Precipitation"), and the Rayleigh sponge.

use crate::geom::DeviceGeom;
use crate::kernels::region::{launch_cfg, reads_all, writes_all};
use crate::kernels::walk_lanes;
use crate::view::{V3SlabMut, V3};
use numerics::simd::{Lane, LANES};
use physics::eos;
use physics::kessler::{self, PointState};
use vgpu::{Buf, Device, KernelCost, Launch, StreamId, VgpuError};

numerics::simd_kernel! {
/// Kessler warm rain over the interior; mirrors
/// `dycore::micro::apply_kessler`.
#[allow(clippy::too_many_arguments)]
pub fn warm_rain<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    dt: f64,
    rho: Buf<R>,
    th: Buf<R>,
    p: Buf<R>,
    qv: Buf<R>,
    qc: Buf<R>,
    qr: Buf<R>,
) -> Result<(), VgpuError> {
    let dc = geom.dc;
    let dp2 = geom.dp;
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.nz as u64);
    let cost = KernelCost::streaming(points, 300.0, 4.0, 4.0).with_transcendental(0.6);
    let g2 = geom.g;
    let dtr = R::from_f64(dt);
    let (nx, ny, nz) = (geom.nx as isize, geom.ny as isize, geom.nz as isize);
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("warm_rain", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[g2, p, rho]))
            .writing(writes_all(&[th, qv, qc, qr])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let g_r = mem.read(g2);
            let p_r = mem.read(p);
            // rho is read-only in this kernel (the original whole-buffer
            // write borrow never mutated it).
            let rho_r = mem.read(rho);
            let mut th_s = mem.write_slab(th, dc.slab(sj0, sj1));
            let mut qv_s = mem.write_slab(qv, dc.slab(sj0, sj1));
            let mut qc_s = mem.write_slab(qc, dc.slab(sj0, sj1));
            let mut qr_s_g = mem.write_slab(qr, dc.slab(sj0, sj1));
            let gv = V3::new(&g_r, dp2);
            let pv = V3::new(&p_r, dc);
            let rhov = V3::new(&rho_r, dc);
            let mut thv = V3SlabMut::new(&mut th_s, dc, sj0);
            let mut qvv = V3SlabMut::new(&mut qv_s, dc, sj0);
            let mut qcv = V3SlabMut::new(&mut qc_s, dc, sj0);
            let mut qrv = V3SlabMut::new(&mut qr_s_g, dc, sj0);
            for j in sj0..sj1 {
                let g_row = gv.row(j, 0);
                for k in 0..nz {
                    let p_row = pv.row(j, k);
                    let rho_row = rhov.row(j, k);
                    let mut th_row = thv.row_mut(j, k);
                    let mut qv_row = qvv.row_mut(j, k);
                    let mut qc_row = qcv.row_mut(j, k);
                    let mut qr_row = qrv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        // Lane the surrounding divisions/multiplies; the
                        // transcendental Kessler core runs scalar per
                        // lane at either width.
                        let gm = g_row.lanes(lw, i);
                        let rho_star = rho_row.lanes(lw, i);
                        let rho_phys = rho_star / gm;
                        let qv_l = qv_row.lanes(lw, i) / rho_star;
                        let qc_l = qc_row.lanes(lw, i) / rho_star;
                        let qr_l = qr_row.lanes(lw, i) / rho_star;
                        let pp = p_row.lanes(lw, i);
                        let pi = pp.map(eos::exner);
                        let fac = lw.from_fn(|e| {
                            eos::theta_m_factor(qv_l.extract(e), qc_l.extract(e), qr_l.extract(e))
                        });
                        let theta = th_row.lanes(lw, i) / (rho_star * fac);
                        // Sized for the widest lane; a pass fills `N`.
                        let mut out_th = [R::ZERO; LANES];
                        let mut out_qv = [R::ZERO; LANES];
                        let mut out_qc = [R::ZERO; LANES];
                        let mut out_qr = [R::ZERO; LANES];
                        for e in 0..lw.n() {
                            let out = kessler::step_point(
                                pp.extract(e),
                                pi.extract(e),
                                rho_phys.extract(e),
                                dtr,
                                PointState {
                                    theta: theta.extract(e),
                                    qv: qv_l.extract(e),
                                    qc: qc_l.extract(e),
                                    qr: qr_l.extract(e),
                                },
                            );
                            out_th[e] = out.theta;
                            out_qv[e] = out.qv;
                            out_qc[e] = out.qc;
                            out_qr[e] = out.qr;
                        }
                        let o_th = lw.load_at(&out_th, 0);
                        let o_qv = lw.load_at(&out_qv, 0);
                        let o_qc = lw.load_at(&out_qc, 0);
                        let o_qr = lw.load_at(&out_qr, 0);
                        let fac_new = lw.from_fn(|e| {
                            eos::theta_m_factor(o_qv.extract(e), o_qc.extract(e), o_qr.extract(e))
                        });
                        th_row.set_lanes(lw, i, rho_star * o_th * fac_new);
                        qv_row.set_lanes(lw, i, rho_star * o_qv);
                        qc_row.set_lanes(lw, i, rho_star * o_qc);
                        qr_row.set_lanes(lw, i, rho_star * o_qr);
                    });
                }
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Rain sedimentation: upwind fall of qr with the Kessler terminal
/// velocity, removing mass through the surface into the precipitation
/// accumulator (mirrors `dycore::micro::sediment_rain`).
#[allow(clippy::too_many_arguments)]
pub fn sediment<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    dt: f64,
    rho: Buf<R>,
    qr: Buf<R>,
    precip: Buf<R>,
) -> Result<(), VgpuError> {
    let dc = geom.dc;
    let dpl = geom.dp;
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.ny as u64);
    let cost = KernelCost::streaming(points, 30.0, 3.0, 3.0).with_transcendental(0.3);
    let g2 = geom.g;
    let dtr = R::from_f64(dt);
    let dz = R::from_f64(geom.dz);
    let (nx, ny) = (geom.nx as isize, geom.ny as isize);
    let nz = geom.nz;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("precipitation", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[g2]))
            .writing(writes_all(&[rho, qr, precip])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let g_r = mem.read(g2);
            let mut rho_s = mem.write_slab(rho, dc.slab(sj0, sj1));
            let mut qr_s = mem.write_slab(qr, dc.slab(sj0, sj1));
            let mut pr_s = mem.write_slab(precip, dpl.slab(sj0, sj1));
            let gv = V3::new(&g_r, dpl);
            let mut rhov = V3SlabMut::new(&mut rho_s, dc, sj0);
            let mut qrv = V3SlabMut::new(&mut qr_s, dc, sj0);
            let mut prv = V3SlabMut::new(&mut pr_s, dpl, sj0);
            let inv_dz = R::ONE / dz;
            // Per-row flux plane indexed [level * nx + i] plus the
            // surface density row; columns stay independent, each doing
            // the exact per-column operation sequence of the original.
            let nxs = nx as usize;
            let mut flux = vec![R::ZERO; (nz + 1) * nxs];
            let mut rho_sfc_row = vec![R::ZERO; nxs];
            for j in sj0..sj1 {
                let g_row = gv.row(j, 0);
                {
                    let rho0_row = rhov.row(j, 0);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        (rho0_row.lanes(lw, i) / g_row.lanes(lw, i))
                            .store_at(&mut rho_sfc_row, i as usize);
                    });
                }
                for kc in 0..nz {
                    let k = kc as isize;
                    let rho_row = rhov.row(j, k);
                    let qr_row = qrv.row(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vzero = lw.splat(R::ZERO);
                        let vdz = lw.splat(dz);
                        let vdtr = lw.splat(dtr);
                        let rho_phys = rho_row.lanes(lw, i) / g_row.lanes(lw, i);
                        let qr_s = (qr_row.lanes(lw, i) / rho_row.lanes(lw, i)).max(vzero);
                        let rho_sfc = lw.load_at(&rho_sfc_row, i as usize);
                        let vt = lw.from_fn(|e| {
                            kessler::terminal_velocity(
                                rho_phys.extract(e),
                                qr_s.extract(e),
                                rho_sfc.extract(e),
                            )
                        });
                        let max_flux = qr_row.lanes(lw, i) * vdz / vdtr;
                        ((rho_phys * qr_s * vt).min(max_flux.max(vzero)))
                            .store_at(&mut flux, kc * nxs + i as usize);
                    });
                }
                for f in &mut flux[nz * nxs..] {
                    *f = R::ZERO;
                }
                for kc in 0..nz {
                    let k = kc as isize;
                    let mut qr_row = qrv.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vdtr = lw.splat(dtr);
                        let vinv_dz = lw.splat(inv_dz);
                        let f_bottom = lw.load_at(&flux, kc * nxs + i as usize);
                        let f_top = lw.load_at(&flux, (kc + 1) * nxs + i as usize);
                        qr_row.add_lanes(lw, i, vdtr * (f_top - f_bottom) * vinv_dz);
                    });
                    let mut rho_row = rhov.row_mut(j, k);
                    numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                        let vdtr = lw.splat(dtr);
                        let vinv_dz = lw.splat(inv_dz);
                        let f_bottom = lw.load_at(&flux, kc * nxs + i as usize);
                        let f_top = lw.load_at(&flux, (kc + 1) * nxs + i as usize);
                        rho_row.add_lanes(lw, i, vdtr * (f_top - f_bottom) * vinv_dz);
                    });
                }
                let mut pr_row = prv.row_mut(j, 0);
                numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                    let vdtr = lw.splat(dtr);
                    pr_row.add_lanes(lw, i, vdtr * lw.load_at(&flux, i as usize));
                });
            }
        },
    )
}
}

numerics::simd_kernel! {
/// Rayleigh sponge: damp w and the Θ deviation above `z_bottom`
/// (mirrors `dycore::micro::rayleigh_damping`). Damping coefficients are
/// precomputed per column level from the host grid (passed as closure
/// constants, like the constant memory of the CUDA version).
#[allow(clippy::too_many_arguments)]
pub fn rayleigh<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    grid: &dycore::grid::Grid,
    z_bottom: f64,
    rate: f64,
    dt: f64,
    w: Buf<R>,
    th: Buf<R>,
    rho: Buf<R>,
) -> Result<(), VgpuError> {
    // zero-rate sponge is disabled, an exact config sentinel — lint: allow(float-eq)
    if rate == 0.0 || !z_bottom.is_finite() {
        return Ok(());
    }
    let dc = geom.dc;
    let dw = geom.dw;
    let points = geom.points();
    let (g, b) = launch_cfg(geom.nx as u64, geom.nz as u64);
    let cost = KernelCost::streaming(points, 8.0, 4.0, 2.0);
    let (nx, ny, nz) = (geom.nx as isize, geom.ny as isize, geom.nz);
    // Per-level damping tables shared with the CPU reference (ζ-based,
    // uploaded like constant memory in the CUDA version). The f64 table
    // is rounded to R exactly as all other uploaded constants.
    let (dw64, dc64) = dycore::micro::rayleigh_tables(grid, z_bottom, rate, dt);
    let damp_w: Vec<R> = dw64.iter().map(|&v| R::from_f64(v)).collect();
    let damp_c: Vec<R> = dc64.iter().map(|&v| R::from_f64(v)).collect();
    let th_b = geom.th_c;
    let lanes_on = dev.simd_enabled();
    dev.launch_par(
        stream,
        Launch::new("rayleigh_sponge", g, b, cost)
            .with_lanes(walk_lanes::<R>(lanes_on, nx))
            .reading(reads_all(&[rho, th_b]))
            .writing(writes_all(&[w, th])),
        ny as usize,
        move |mem, sj0, sj1| {
            let (sj0, sj1) = (sj0 as isize, sj1 as isize);
            let rho_r = mem.read(rho);
            let thb_r = mem.read(th_b);
            let mut w_s = mem.write_slab(w, dw.slab(sj0, sj1));
            let mut th_s = mem.write_slab(th, dc.slab(sj0, sj1));
            let rhov = V3::new(&rho_r, dc);
            let thbv = V3::new(&thb_r, dc);
            let mut wv = V3SlabMut::new(&mut w_s, dw, sj0);
            let mut thv = V3SlabMut::new(&mut th_s, dc, sj0);
            for j in sj0..sj1 {
                #[allow(clippy::needless_range_loop)]
                for k in 1..nz {
                    let dmp = damp_w[k];
                    if dmp < R::ONE {
                        let mut w_row = wv.row_mut(j, k as isize);
                        numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                            let vdmp = lw.splat(dmp);
                            let v = w_row.lanes(lw, i) * vdmp;
                            w_row.set_lanes(lw, i, v);
                        });
                    }
                }
                #[allow(clippy::needless_range_loop)]
                for k in 0..nz {
                    let dmp = damp_c[k];
                    if dmp < R::ONE {
                        let kk = k as isize;
                        let rho_row = rhov.row(j, kk);
                        let thb_row = thbv.row(j, kk);
                        let mut th_row = thv.row_mut(j, kk);
                        numerics::x_walk!(R, lanes_on, 0..nx, |lw, i| {
                            let vdmp = lw.splat(dmp);
                            let th_eq = rho_row.lanes(lw, i) * thb_row.lanes(lw, i);
                            let v = th_eq + (th_row.lanes(lw, i) - th_eq) * vdmp;
                            th_row.set_lanes(lw, i, v);
                        });
                    }
                }
            }
        },
    )
}
}
