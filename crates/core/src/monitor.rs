//! Numerical guard rails: a cheap per-long-step device scan that turns
//! a silent NaN/Inf blow-up or a runaway Courant number into a
//! structured [`ModelError`] instead of garbage output thousands of
//! steps later.
//!
//! The scan is one slab-parallel kernel over the interior: each y-row
//! accumulates (a) a *poison* sum — every element is multiplied by zero
//! first, so any NaN/Inf collapses the row sum to non-finite without
//! overflow false-positives — and (b) the row's maximum advective
//! Courant number, both on the same [`numerics::x_walk!`] as the
//! production kernels. Only rows whose poison sum trips pay for a
//! scalar rescan to locate the first offending point. The per-row
//! results land in a tiny stats buffer (`4 ny` elements) that the host
//! reduces after a D2H copy.
//!
//! In [`ExecMode::Phantom`] the kernel and the copy are accounted on
//! the simulated timeline but there is no data to judge, so the check
//! always passes.

use crate::error::ModelError;
use crate::fields::DeviceState;
use crate::geom::DeviceGeom;
use crate::view::V3;
use numerics::simd::{Lane, LANES};
use numerics::Real;
use vgpu::{Buf, Device, Dim3, ExecMode, KernelCost, Launch, StreamId, VgpuError};

/// Advective Courant ceiling: the split-explicit RK3 core is stable
/// well below 1; beyond this the integration is already lost.
pub const CFL_LIMIT: f64 = 2.0;

/// Stats slots per row: [field code, i, k, max courant].
const STRIDE: usize = 4;

/// Prognostic names indexed by `code - 1` in the stats buffer.
const FIELDS: [&str; 5] = ["rho", "u", "v", "w", "theta"];

/// Reusable guard-rail scanner (one small stats buffer per driver,
/// allocated at init so it is never subject to fault injection).
pub struct GuardRails<R: Real> {
    stats: Buf<R>,
    ny: usize,
}

impl<R: Real> GuardRails<R> {
    /// Release the stats buffer (leak-check teardown).
    pub fn free(self, dev: &mut Device<R>) {
        let _ = dev.free(self.stats);
    }

    pub fn new(dev: &mut Device<R>, geom: &DeviceGeom<R>) -> Result<Self, VgpuError> {
        let ny = geom.dc.ny;
        let stats = dev.alloc_labeled(ny * STRIDE, "guard_stats")?;
        Ok(GuardRails { stats, ny })
    }

    /// Scan the prognostics after long step `step`. `dt`, `dx`, `dy`,
    /// `dzeta` come from the model configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &self,
        dev: &mut Device<R>,
        ds: &DeviceState<R>,
        geom: &DeviceGeom<R>,
        step: u64,
        dt: f64,
        dx: f64,
        dy: f64,
        dzeta: f64,
    ) -> Result<(), ModelError> {
        let (dc, dw) = (geom.dc, geom.dw);
        let (nx, ny, nz) = (dc.nx, dc.ny, dc.nl);
        let points = (nx * ny * nz) as u64;
        // ~6 field reads and ~8 flops per point, one stats row write.
        let cost = KernelCost::streaming(points.max(1), 8.0, 6.0, 0.01);
        let launch = Launch::new("guard_scan", Dim3::new(1, 4, 1), Dim3::new(64, 4, 1), cost)
            .reading(crate::kernels::region::reads_all(&[
                ds.rho, ds.u, ds.v, ds.w, ds.th,
            ]))
            .writing([self.stats.access()]);
        let (rho, u, v, w, th, stats) = (ds.rho, ds.u, ds.v, ds.w, ds.th, self.stats);
        let cx = R::from_f64(dt / dx);
        let cy = R::from_f64(dt / dy);
        let cz = R::from_f64(dt / dzeta);
        let lanes_on = dev.simd_enabled();
        dev.launch_par(StreamId::DEFAULT, launch, ny, move |mem, j0, j1| {
            let (brho, bu, bv, bw, bth) = (
                mem.read(rho),
                mem.read(u),
                mem.read(v),
                mem.read(w),
                mem.read(th),
            );
            let vrho = V3::new(&brho, dc);
            let vu = V3::new(&bu, dc);
            let vv = V3::new(&bv, dc);
            let vw = V3::new(&bw, dw);
            let vth = V3::new(&bth, dc);
            let mut out = mem.write_slab(stats, j0 * STRIDE..j1 * STRIDE);
            for j in j0..j1 {
                let jj = j as isize;
                // Per-lane accumulators (a width-1 pass uses slot 0),
                // reduced once per row.
                let mut hp = [R::ZERO; LANES];
                let mut hc = [R::ZERO; LANES];
                for k in 0..nz as isize {
                    let (rr, ru, rv, rw, rt) = (
                        vrho.row(jj, k),
                        vu.row(jj, k),
                        vv.row(jj, k),
                        vw.row(jj, k),
                        vth.row(jj, k),
                    );
                    numerics::x_walk!(R, lanes_on, 0..nx as isize, |lw, i| {
                        let (xr, xu, xv, xw, xt) = (
                            rr.lanes(lw, i),
                            ru.lanes(lw, i),
                            rv.lanes(lw, i),
                            rw.lanes(lw, i),
                            rt.lanes(lw, i),
                        );
                        let zero = lw.splat(R::ZERO);
                        let poison = xr * zero + xu * zero + xv * zero + xw * zero + xt * zero;
                        let cu = (xu / xr).abs() * lw.splat(cx)
                            + (xv / xr).abs() * lw.splat(cy)
                            + (xw / xr).abs() * lw.splat(cz);
                        for e in 0..lw.n() {
                            hp[e] += poison.extract(e);
                            hc[e] = hc[e].max(cu.extract(e));
                        }
                    });
                    // w's top level (nz) is not visited by the center
                    // loop; fold it into the poison sum scalar-wise.
                    let rwt = vw.row(jj, nz as isize);
                    for i in 0..nx as isize {
                        hp[0] += rwt.at(i) * R::ZERO;
                    }
                }
                let (mut code, mut fi, mut fk) = (0usize, 0usize, 0usize);
                let hp: R = hp.into_iter().sum();
                let hc = hc.into_iter().fold(R::ZERO, R::max);
                if !hp.is_finite() {
                    // Locate the first bad point: field-major, then k, i.
                    let views: [(&V3<'_, R>, usize); 5] =
                        [(&vrho, nz), (&vu, nz), (&vv, nz), (&vw, nz + 1), (&vth, nz)];
                    'outer: for (f, (view, levels)) in views.iter().enumerate() {
                        for k in 0..*levels {
                            for i in 0..nx {
                                if !view.at(i as isize, jj, k as isize).is_finite() {
                                    (code, fi, fk) = (f + 1, i, k);
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
                let row = &mut out[(j - j0) * STRIDE..(j - j0 + 1) * STRIDE];
                row[0] = R::from_usize(code);
                row[1] = R::from_usize(fi);
                row[2] = R::from_usize(fk);
                row[3] = hc;
            }
        })?;
        if dev.mode() != ExecMode::Functional {
            dev.copy_d2h_phantom(StreamId::DEFAULT, self.ny * STRIDE);
            return Ok(());
        }
        let mut host = vec![R::ZERO; self.ny * STRIDE];
        dev.copy_d2h(StreamId::DEFAULT, self.stats, 0, &mut host)
            .expect("copy in bounds");
        let mut courant = 0.0f64;
        for j in 0..self.ny {
            let row = &host[j * STRIDE..(j + 1) * STRIDE];
            let code = row[0].to_f64() as usize;
            if code != 0 {
                return Err(ModelError::NumericalBlowup {
                    step,
                    field: FIELDS[code - 1],
                    location: (row[1].to_f64() as usize, j, row[2].to_f64() as usize),
                });
            }
            let c = row[3].to_f64();
            courant = courant.max(c);
            if !c.is_finite() {
                // NaN Courant with finite fields cannot happen (rho = 0
                // would make u/rho infinite, tripping the poison sum);
                // treat it as a blow-up at an unknown point regardless.
                return Err(ModelError::CflViolation {
                    step,
                    courant: c,
                    limit: CFL_LIMIT,
                });
            }
        }
        if courant > CFL_LIMIT {
            return Err(ModelError::CflViolation {
                step,
                courant,
                limit: CFL_LIMIT,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleGpu;
    use dycore::config::ModelConfig;
    use vgpu::DeviceSpec;

    fn model(mode: ExecMode) -> SingleGpu<f64> {
        let mut cfg = ModelConfig::mountain_wave(9, 6, 6);
        cfg.fault = None;
        SingleGpu::new(cfg, DeviceSpec::tesla_s1070(), mode)
    }

    fn check(m: &mut SingleGpu<f64>, g: &GuardRails<f64>) -> Result<(), ModelError> {
        let (dt, dx, dy, dz) = (m.cfg.dt, m.cfg.dx, m.cfg.dy, m.cfg.dzeta());
        g.check(&mut m.dev, &m.ds, &m.geom, 1, dt, dx, dy, dz)
    }

    #[test]
    fn clean_state_passes() {
        let mut m = model(ExecMode::Functional);
        m.run(2).unwrap();
        let g = GuardRails::new(&mut m.dev, &m.geom).unwrap();
        check(&mut m, &g).unwrap();
    }

    #[test]
    fn nan_is_located_exactly() {
        let mut m = model(ExecMode::Functional);
        let g = GuardRails::new(&mut m.dev, &m.geom).unwrap();
        let mut th = m.dev.read_vec(m.ds.th);
        th[m.geom.dc.off(3, 2, 4)] = f64::NAN;
        m.dev.write_vec(m.ds.th, &th);
        match check(&mut m, &g) {
            Err(ModelError::NumericalBlowup {
                step,
                field,
                location,
            }) => {
                assert_eq!(step, 1);
                assert_eq!(field, "theta");
                assert_eq!(location, (3, 2, 4));
            }
            other => panic!("expected blow-up, got {other:?}"),
        }
    }

    #[test]
    fn inf_in_w_top_level_is_caught() {
        // The w field's extra top level is outside the center loop; the
        // scan must still see it.
        let mut m = model(ExecMode::Functional);
        let g = GuardRails::new(&mut m.dev, &m.geom).unwrap();
        let mut w = m.dev.read_vec(m.ds.w);
        let nz = m.geom.dc.nl as isize;
        w[m.geom.dw.off(1, 1, nz)] = f64::INFINITY;
        m.dev.write_vec(m.ds.w, &w);
        match check(&mut m, &g) {
            Err(ModelError::NumericalBlowup { field, .. }) => assert_eq!(field, "w"),
            other => panic!("expected blow-up, got {other:?}"),
        }
    }

    #[test]
    fn runaway_velocity_is_a_cfl_violation() {
        let mut m = model(ExecMode::Functional);
        let g = GuardRails::new(&mut m.dev, &m.geom).unwrap();
        // u/rho * dt/dx >> limit but still finite everywhere.
        let rho = m.dev.read_vec(m.ds.rho);
        let mut u = m.dev.read_vec(m.ds.u);
        let off = m.geom.dc.off(4, 3, 2);
        u[off] = rho[off] * 3.0 * CFL_LIMIT * m.cfg.dx / m.cfg.dt;
        m.dev.write_vec(m.ds.u, &u);
        match check(&mut m, &g) {
            Err(ModelError::CflViolation { courant, limit, .. }) => {
                assert_eq!(limit, CFL_LIMIT);
                assert!(courant > 2.5 * CFL_LIMIT && courant.is_finite());
            }
            other => panic!("expected CFL violation, got {other:?}"),
        }
    }

    #[test]
    fn phantom_scan_costs_time_but_always_passes() {
        let mut m = model(ExecMode::Phantom);
        let g = GuardRails::new(&mut m.dev, &m.geom).unwrap();
        let t0 = m.dev.host_time();
        check(&mut m, &g).unwrap();
        m.dev.sync_all();
        assert!(m.dev.host_time() > t0);
    }
}
