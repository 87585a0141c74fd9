//! Traced replay of one long step: the launch sequence of
//! `SingleGpu::step`, issued from outside through the public
//! `asuca_gpu::kernels::*` entry points with a wall-clock timer around
//! every call, keyed by kernel module.
//!
//! The replay issues the same launches with the same arguments in the
//! same order as the driver, so it advances the simulated clock by
//! exactly one step (the caller checks this) and its per-module wall
//! times add up to nearly the whole step. Simulated seconds, flops and
//! bytes come from the device profiler deltas around each call.

use asuca_gpu::kernels::physics as kphys;
use asuca_gpu::kernels::region::KName;
use asuca_gpu::kernels::{advection, boundary, eos, helmholtz, pgf, tend, transform};
use asuca_gpu::{kname, Region, SingleGpu};
use numerics::Real;
use std::time::Instant;
use vgpu::{Buf, Device, OpKind, StreamId, VgpuError};

use crate::report::MODULES;

const ADV: usize = 0;
const HELM: usize = 1;
const EOS: usize = 2;
const PGF: usize = 3;
const TEND: usize = 4;
const TRANS: usize = 5;
const PHYS: usize = 6;
const BND: usize = 7;

const KN_ADV_U: KName = kname!("advection_u");
const KN_ADV_V: KName = kname!("advection_v");
const KN_ADV_W: KName = kname!("advection_w");
const KN_ADV_TH: KName = kname!("advection_theta");
const KN_ADV_Q: [KName; 7] = [
    kname!("advection_qv"),
    kname!("advection_qc"),
    kname!("advection_qr"),
    kname!("advection_qi"),
    kname!("advection_qs"),
    kname!("advection_qg"),
    kname!("advection_qh"),
];
const KN_MOM_X: KName = kname!("momentum_x");
const KN_MOM_Y: KName = kname!("momentum_y");
const KN_HELM: KName = kname!("helmholtz");
const KN_DENS: KName = kname!("density");
const KN_PT: KName = kname!("potential_temperature");
const KN_TRACER: [KName; 7] = [
    kname!("tracer_qv"),
    kname!("tracer_qc"),
    kname!("tracer_qr"),
    kname!("tracer_qi"),
    kname!("tracer_qs"),
    kname!("tracer_qg"),
    kname!("tracer_qh"),
];

/// What one module cost during one replayed step.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModuleStats {
    pub wall_s: f64,
    pub calls: u64,
    pub sim_s: f64,
    pub flops: f64,
    pub bytes: f64,
}

/// Per-module accumulator of one replayed step.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub modules: [ModuleStats; MODULES.len()],
    /// Wall seconds of the whole replay, timers included.
    pub total_wall_s: f64,
    /// Simulated seconds the replay advanced the device's host clock.
    pub sim_step_s: f64,
}

impl Trace {
    /// Σ of the per-module wall seconds.
    pub fn kernel_wall_s(&self) -> f64 {
        self.modules.iter().map(|m| m.wall_s).sum()
    }

    fn time<R: Real>(
        &mut self,
        module: usize,
        dev: &mut Device<R>,
        f: impl FnOnce(&mut Device<R>) -> Result<(), VgpuError>,
    ) -> Result<(), VgpuError> {
        let rec0 = dev.profiler.records().len();
        let launches0 = dev.profiler.kernel_launches;
        let (flops0, sim0) = dev.profiler.flops_and_time();
        let t0 = Instant::now();
        f(dev)?;
        let wall = t0.elapsed().as_secs_f64();
        let (flops1, sim1) = dev.profiler.flops_and_time();
        let m = &mut self.modules[module];
        m.wall_s += wall;
        m.calls += dev.profiler.kernel_launches - launches0;
        m.sim_s += sim1 - sim0;
        m.flops += flops1 - flops0;
        m.bytes += dev.profiler.records()[rec0..]
            .iter()
            .filter(|r| r.kind == OpKind::Kernel)
            .map(|r| r.bytes)
            .sum::<f64>();
        Ok(())
    }
}

/// Replay one long step on `gpu`'s device state and return its trace.
pub fn replay_step<R: Real>(gpu: &mut SingleGpu<R>) -> Result<Trace, VgpuError> {
    let mut tr = Trace::default();
    // Start from an idle device, as a step after a step does.
    gpu.dev.sync_all();
    let sim0 = gpu.dev.host_time();
    let t0 = Instant::now();
    step(gpu, &mut tr)?;
    tr.total_wall_s = t0.elapsed().as_secs_f64();
    tr.sim_step_s = gpu.dev.host_time() - sim0;
    Ok(tr)
}

fn fill_halo<R: Real>(
    tr: &mut Trace,
    dev: &mut Device<R>,
    buf: Buf<R>,
    dims: asuca_gpu::view::Dims,
    name: &'static str,
) -> Result<(), VgpuError> {
    let st = StreamId::DEFAULT;
    tr.time(BND, dev, |d| {
        boundary::halo_periodic_xy(d, st, name, buf, dims)
    })?;
    tr.time(BND, dev, |d| {
        boundary::halo_zero_grad_z(d, st, name, buf, dims)
    })
}

fn fill_all_halos<R: Real>(gpu: &mut SingleGpu<R>, tr: &mut Trace) -> Result<(), VgpuError> {
    let (dc, dw) = (gpu.geom.dc, gpu.geom.dw);
    let ds = &gpu.ds;
    let dev = &mut gpu.dev;
    fill_halo(tr, dev, ds.rho, dc, "halo_rho")?;
    fill_halo(tr, dev, ds.u, dc, "halo_u")?;
    fill_halo(tr, dev, ds.v, dc, "halo_v")?;
    fill_halo(tr, dev, ds.w, dw, "halo_w")?;
    fill_halo(tr, dev, ds.th, dc, "halo_theta")?;
    fill_halo(tr, dev, ds.p, dc, "halo_p")?;
    for &q in &ds.q {
        fill_halo(tr, dev, q, dc, "halo_q")?;
    }
    Ok(())
}

fn slow_tendencies<R: Real>(gpu: &mut SingleGpu<R>, tr: &mut Trace) -> Result<(), VgpuError> {
    let st = StreamId::DEFAULT;
    let lim = gpu.cfg.limiter;
    let kdiff = gpu.cfg.k_diffusion;
    let coriolis_f = gpu.cfg.coriolis_f;
    let g = &gpu.geom;
    let ds = &gpu.ds;
    let dev = &mut gpu.dev;
    let nz = g.nz as isize;

    for (buf, name) in [
        (ds.fu, "clear_fu"),
        (ds.fv, "clear_fv"),
        (ds.fw, "clear_fw"),
        (ds.frho, "clear_frho"),
        (ds.fth, "clear_fth"),
    ] {
        tr.time(TRANS, dev, |d| transform::zero_buf(d, st, name, buf))?;
    }
    for &fq in &ds.fq {
        tr.time(TRANS, dev, |d| transform::zero_buf(d, st, "clear_fq", fq))?;
    }

    tr.time(TRANS, dev, |d| {
        transform::mass_flux_w(d, st, g, ds.u, ds.v, ds.w, ds.mw)
    })?;
    tr.time(BND, dev, |d| {
        boundary::halo_periodic_xy(d, st, "halo_mw", ds.mw, g.dw)
    })?;

    // Momentum advection + diffusion.
    tr.time(TRANS, dev, |d| {
        transform::specific_u(d, st, g, ds.u, ds.rho, ds.spec)
    })?;
    tr.time(BND, dev, |d| {
        boundary::halo_periodic_xy(d, st, "halo_spec", ds.spec, g.dc)
    })?;
    tr.time(ADV, dev, |d| {
        advection::advect_u(
            d,
            st,
            g,
            Region::Whole,
            &KN_ADV_U,
            lim,
            ds.spec,
            ds.u,
            ds.v,
            ds.mw,
            ds.fu,
        )
    })?;
    tr.time(TEND, dev, |d| {
        tend::diffuse(
            d,
            st,
            g,
            "diff_u",
            kdiff,
            ds.spec,
            None,
            tend::DiffWeight::U,
            ds.rho,
            ds.fu,
            0,
            nz,
        )
    })?;

    tr.time(TRANS, dev, |d| {
        transform::specific_v(d, st, g, ds.v, ds.rho, ds.spec)
    })?;
    tr.time(BND, dev, |d| {
        boundary::halo_periodic_xy(d, st, "halo_spec", ds.spec, g.dc)
    })?;
    tr.time(ADV, dev, |d| {
        advection::advect_v(
            d,
            st,
            g,
            Region::Whole,
            &KN_ADV_V,
            lim,
            ds.spec,
            ds.u,
            ds.v,
            ds.mw,
            ds.fv,
        )
    })?;
    tr.time(TEND, dev, |d| {
        tend::diffuse(
            d,
            st,
            g,
            "diff_v",
            kdiff,
            ds.spec,
            None,
            tend::DiffWeight::V,
            ds.rho,
            ds.fv,
            0,
            nz,
        )
    })?;

    tr.time(TRANS, dev, |d| {
        transform::specific_w(d, st, g, ds.w, ds.rho, ds.spec_w)
    })?;
    tr.time(ADV, dev, |d| {
        advection::advect_w(
            d,
            st,
            g,
            Region::Whole,
            &KN_ADV_W,
            lim,
            ds.spec_w,
            ds.u,
            ds.v,
            ds.mw,
            ds.fw,
        )
    })?;
    tr.time(TEND, dev, |d| {
        tend::diffuse(
            d,
            st,
            g,
            "diff_w",
            kdiff,
            ds.spec_w,
            None,
            tend::DiffWeight::W,
            ds.rho,
            ds.fw,
            1,
            nz,
        )
    })?;

    tr.time(TEND, dev, |d| {
        tend::coriolis(d, st, g, coriolis_f, ds.u, ds.v, ds.fu, ds.fv)
    })?;
    tr.time(TEND, dev, |d| tend::metric_pg(d, st, g, ds.p, ds.fu, ds.fv))?;

    // Θ: advection + deviation diffusion + linear-divergence credit.
    tr.time(TRANS, dev, |d| {
        transform::specific_center(d, st, g, "transform_theta", ds.th, ds.rho, ds.spec)
    })?;
    tr.time(ADV, dev, |d| {
        advection::advect_scalar(
            d,
            st,
            g,
            Region::Whole,
            &KN_ADV_TH,
            lim,
            true,
            ds.spec,
            ds.u,
            ds.v,
            ds.mw,
            ds.fth,
        )
    })?;
    tr.time(TEND, dev, |d| {
        tend::diffuse(
            d,
            st,
            g,
            "diff_theta",
            kdiff,
            ds.spec,
            Some(g.th_c),
            tend::DiffWeight::Center,
            ds.rho,
            ds.fth,
            0,
            nz,
        )
    })?;
    tr.time(TEND, dev, |d| {
        tend::add_div_lin_theta(d, st, g, ds.u, ds.v, ds.w, ds.fth)
    })?;

    // ρ*: terrain metric residual.
    tr.time(TEND, dev, |d| {
        tend::continuity_residual(d, st, g, ds.u, ds.v, ds.w, ds.mw, ds.frho)
    })?;

    // Tracers.
    for ((&q, &fq), kn) in ds.q.iter().zip(&ds.fq).zip(&KN_ADV_Q) {
        tr.time(TRANS, dev, |d| {
            transform::specific_center(d, st, g, "transform_q", q, ds.rho, ds.spec)
        })?;
        tr.time(ADV, dev, |d| {
            advection::advect_scalar(
                d,
                st,
                g,
                Region::Whole,
                kn,
                lim,
                true,
                ds.spec,
                ds.u,
                ds.v,
                ds.mw,
                fq,
            )
        })?;
        tr.time(TEND, dev, |d| {
            tend::diffuse(
                d,
                st,
                g,
                "diff_q",
                kdiff,
                ds.spec,
                None,
                tend::DiffWeight::Center,
                ds.rho,
                fq,
                0,
                nz,
            )
        })?;
    }
    Ok(())
}

fn step<R: Real>(gpu: &mut SingleGpu<R>, tr: &mut Trace) -> Result<(), VgpuError> {
    let st = StreamId::DEFAULT;
    let dt = gpu.cfg.dt;

    {
        let ds = &gpu.ds;
        let dev = &mut gpu.dev;
        for (src, dst, name) in [
            (ds.rho, ds.rho_t, "save_rho_t"),
            (ds.u, ds.u_t, "save_u_t"),
            (ds.v, ds.v_t, "save_v_t"),
            (ds.w, ds.w_t, "save_w_t"),
            (ds.th, ds.th_t, "save_th_t"),
        ] {
            tr.time(TRANS, dev, |d| transform::copy_buf(d, st, name, src, dst))?;
        }
        for (&q, &q_t) in ds.q.iter().zip(&ds.q_t) {
            tr.time(TRANS, dev, |d| {
                transform::copy_buf(d, st, "save_q_t", q, q_t)
            })?;
        }
    }

    for s in 1..=3usize {
        let dts = dt * gpu.cfg.dt_fraction_for_stage(s);
        let nsub = gpu.cfg.substeps_for_stage(s);
        let dtau = dts / nsub as f64;
        let beta = gpu.cfg.beta;

        slow_tendencies(gpu, tr)?;

        let g = &gpu.geom;
        let ds = &gpu.ds;
        let dev = &mut gpu.dev;
        tr.time(TRANS, dev, |d| {
            transform::copy_buf(d, st, "capture_th_ref", ds.th, ds.th_ref)
        })?;
        tr.time(EOS, dev, |d| {
            eos::eos_full(d, st, g, "eos_ref", ds.th_ref, ds.p_ref)
        })?;
        for (src, dst, name) in [
            (ds.rho_t, ds.rho, "restore_rho"),
            (ds.u_t, ds.u, "restore_u"),
            (ds.v_t, ds.v, "restore_v"),
            (ds.w_t, ds.w, "restore_w"),
            (ds.th_t, ds.th, "restore_th"),
        ] {
            tr.time(TRANS, dev, |d| transform::copy_buf(d, st, name, src, dst))?;
        }
        tr.time(EOS, dev, |d| {
            eos::eos_linear(d, st, g, ds.th, ds.th_ref, ds.p_ref, ds.p)
        })?;

        for _ in 0..nsub {
            tr.time(PGF, dev, |d| {
                pgf::momentum_x(d, st, g, Region::Whole, &KN_MOM_X, ds.p, ds.fu, dtau, ds.u)
            })?;
            tr.time(PGF, dev, |d| {
                pgf::momentum_y(d, st, g, Region::Whole, &KN_MOM_Y, ds.p, ds.fv, dtau, ds.v)
            })?;
            tr.time(BND, dev, |d| {
                boundary::halo_periodic_xy(d, st, "halo_u", ds.u, g.dc)
            })?;
            tr.time(BND, dev, |d| {
                boundary::halo_periodic_xy(d, st, "halo_v", ds.v, g.dc)
            })?;
            tr.time(HELM, dev, |d| {
                helmholtz::helmholtz(
                    d,
                    st,
                    g,
                    Region::Whole,
                    &KN_HELM,
                    beta,
                    dtau,
                    helmholtz::HelmholtzArgs {
                        u: ds.u,
                        v: ds.v,
                        w: ds.w,
                        rho: ds.rho,
                        th: ds.th,
                        p: ds.p,
                        fu_w: ds.fw,
                        frho: ds.frho,
                        fth: ds.fth,
                        th_ref: ds.th_ref,
                        p_ref: ds.p_ref,
                        st_rho: ds.spec,
                        st_th: ds.flux,
                    },
                )
            })?;
            tr.time(HELM, dev, |d| {
                helmholtz::density(
                    d,
                    st,
                    g,
                    Region::Whole,
                    &KN_DENS,
                    beta,
                    dtau,
                    ds.spec,
                    ds.w,
                    ds.rho,
                )
            })?;
            tr.time(HELM, dev, |d| {
                helmholtz::potential_temperature(
                    d,
                    st,
                    g,
                    Region::Whole,
                    &KN_PT,
                    beta,
                    dtau,
                    ds.flux,
                    ds.w,
                    ds.th,
                )
            })?;
            fill_halo(tr, dev, ds.th, g.dc, "halo_theta")?;
            fill_halo(tr, dev, ds.rho, g.dc, "halo_rho")?;
            tr.time(EOS, dev, |d| {
                eos::eos_linear(d, st, g, ds.th, ds.th_ref, ds.p_ref, ds.p)
            })?;
        }
        fill_halo(tr, dev, ds.w, g.dw, "halo_w")?;

        // Tracers from their time-t values.
        for (((&q_t, &fq), &q), kn) in ds.q_t.iter().zip(&ds.fq).zip(&ds.q).zip(&KN_TRACER) {
            tr.time(TEND, dev, |d| {
                tend::tracer_update(d, st, g, Region::Whole, kn, dts, q_t, fq, q)
            })?;
            fill_halo(tr, dev, q, g.dc, "halo_q")?;
        }
    }

    // Physics.
    {
        let cfg = &gpu.cfg;
        let g = &gpu.geom;
        let ds = &gpu.ds;
        let grid = &gpu.grid;
        let dev = &mut gpu.dev;
        if cfg.microphysics && ds.n_tracers >= 3 {
            tr.time(PHYS, dev, |d| {
                kphys::warm_rain(d, st, g, dt, ds.rho, ds.th, ds.p, ds.q[0], ds.q[1], ds.q[2])
            })?;
            tr.time(PHYS, dev, |d| {
                kphys::sediment(d, st, g, dt, ds.rho, ds.q[2], ds.precip)
            })?;
        }
        let (z_bottom, rate) = (cfg.rayleigh.z_bottom, cfg.rayleigh.rate);
        tr.time(PHYS, dev, |d| {
            kphys::rayleigh(d, st, g, grid, z_bottom, rate, dt, ds.w, ds.th, ds.rho)
        })?;
    }

    // Final halos + full EOS.
    fill_all_halos(gpu, tr)?;
    let g = &gpu.geom;
    let ds = &gpu.ds;
    tr.time(EOS, &mut gpu.dev, |d| {
        eos::eos_full(d, st, g, "eos_full", ds.th, ds.p)
    })?;
    gpu.dev.sync_all();
    Ok(())
}
