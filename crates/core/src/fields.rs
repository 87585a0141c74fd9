//! The full device-resident model state.
//!
//! Everything the time step touches lives in GPU memory — prognostics,
//! the time-t copies for the RK3 re-integration, slow tendencies, the
//! stage linearization reference and scratch fields. The host only ever
//! sees data at initialization and output, as the paper's Fig. 1
//! prescribes ("virtually eliminates all the host-GPU memory transfers
//! during simulation runs").

use crate::geom::{relayout_from_xzy, relayout_to_xzy, DeviceGeom};
use dycore::state::State;
use numerics::Real;
use vgpu::{Buf, Device, ExecMode, StreamId};

/// Device buffers of all model arrays.
pub struct DeviceState<R: Real> {
    pub n_tracers: usize,
    // Prognostics.
    pub rho: Buf<R>,
    pub u: Buf<R>,
    pub v: Buf<R>,
    pub w: Buf<R>,
    pub th: Buf<R>,
    pub q: Vec<Buf<R>>,
    pub p: Buf<R>,
    pub precip: Buf<R>,
    // Time-t copies for the RK3 stages.
    pub rho_t: Buf<R>,
    pub u_t: Buf<R>,
    pub v_t: Buf<R>,
    pub w_t: Buf<R>,
    pub th_t: Buf<R>,
    pub q_t: Vec<Buf<R>>,
    // Slow tendencies.
    pub fu: Buf<R>,
    pub fv: Buf<R>,
    pub fw: Buf<R>,
    pub frho: Buf<R>,
    pub fth: Buf<R>,
    pub fq: Vec<Buf<R>>,
    // Stage linearization reference.
    pub th_ref: Buf<R>,
    pub p_ref: Buf<R>,
    // Scratch.
    pub spec: Buf<R>,
    pub spec_w: Buf<R>,
    pub flux: Buf<R>,
    pub flux_w: Buf<R>,
    pub mw: Buf<R>,
}

impl<R: Real> DeviceState<R> {
    /// Allocate every array on the device (fails if the grid exceeds the
    /// device memory, reproducing the paper's per-GPU size limits).
    pub fn alloc(
        dev: &mut Device<R>,
        geom: &DeviceGeom<R>,
        n_tracers: usize,
    ) -> Result<Self, vgpu::VgpuError> {
        let c = geom.dc.len();
        let w = geom.dw.len();
        let plane = geom.dp.len();
        let mut a = |len: usize, label: &str| dev.alloc_labeled(len, label);
        const Q_LABELS: [&str; 8] = ["q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7"];
        const QT_LABELS: [&str; 8] = [
            "q0_t", "q1_t", "q2_t", "q3_t", "q4_t", "q5_t", "q6_t", "q7_t",
        ];
        const FQ_LABELS: [&str; 8] = ["fq0", "fq1", "fq2", "fq3", "fq4", "fq5", "fq6", "fq7"];
        let ql = |i: usize, t: &'static [&'static str; 8]| t[i.min(7)];
        Ok(DeviceState {
            n_tracers,
            rho: a(c, "rho")?,
            u: a(c, "u")?,
            v: a(c, "v")?,
            w: a(w, "w")?,
            th: a(c, "th")?,
            q: (0..n_tracers)
                .map(|i| a(c, ql(i, &Q_LABELS)))
                .collect::<Result<_, _>>()?,
            p: a(c, "p")?,
            precip: a(plane, "precip")?,
            rho_t: a(c, "rho_t")?,
            u_t: a(c, "u_t")?,
            v_t: a(c, "v_t")?,
            w_t: a(w, "w_t")?,
            th_t: a(c, "th_t")?,
            q_t: (0..n_tracers)
                .map(|i| a(c, ql(i, &QT_LABELS)))
                .collect::<Result<_, _>>()?,
            fu: a(c, "fu")?,
            fv: a(c, "fv")?,
            fw: a(w, "fw")?,
            frho: a(c, "frho")?,
            fth: a(c, "fth")?,
            fq: (0..n_tracers)
                .map(|i| a(c, ql(i, &FQ_LABELS)))
                .collect::<Result<_, _>>()?,
            th_ref: a(c, "th_ref")?,
            p_ref: a(c, "p_ref")?,
            spec: a(c, "spec")?,
            spec_w: a(w, "spec_w")?,
            flux: a(c, "flux")?,
            flux_w: a(w, "flux_w")?,
            mw: a(w, "mw")?,
        })
    }

    /// Release every array (leak-check teardown: a driver that frees
    /// its state before dropping the device reports a clean heap).
    pub fn free(self, dev: &mut Device<R>) {
        let DeviceState {
            n_tracers: _,
            rho,
            u,
            v,
            w,
            th,
            q,
            p,
            precip,
            rho_t,
            u_t,
            v_t,
            w_t,
            th_t,
            q_t,
            fu,
            fv,
            fw,
            frho,
            fth,
            fq,
            th_ref,
            p_ref,
            spec,
            spec_w,
            flux,
            flux_w,
            mw,
        } = self;
        for b in [
            rho, u, v, w, th, p, precip, rho_t, u_t, v_t, w_t, th_t, fu, fv, fw, frho, fth, th_ref,
            p_ref, spec, spec_w, flux, flux_w, mw,
        ] {
            let _ = dev.free(b);
        }
        for b in q.into_iter().chain(q_t).chain(fq) {
            let _ = dev.free(b);
        }
    }

    /// Upload a host (KIJ, f64) state into the device prognostics — the
    /// Fig. 1 "Initial data" transfer.
    pub fn upload(&mut self, dev: &mut Device<R>, geom: &DeviceGeom<R>, s: &State) {
        assert_eq!(s.q.len(), self.n_tracers);
        let up = |dev: &mut Device<R>, buf: Buf<R>, f: &numerics::Field3<f64>, dims| {
            if dev.mode() == ExecMode::Functional {
                let host = relayout_to_xzy::<R>(f, dims);
                dev.copy_h2d(StreamId::DEFAULT, &host, buf, 0)
                    .expect("copy in bounds");
            } else {
                dev.copy_h2d_phantom(StreamId::DEFAULT, dims.len());
            }
        };
        up(dev, self.rho, &s.rho, geom.dc);
        up(dev, self.u, &s.u, geom.dc);
        up(dev, self.v, &s.v, geom.dc);
        up(dev, self.w, &s.w, geom.dw);
        up(dev, self.th, &s.th, geom.dc);
        up(dev, self.p, &s.p, geom.dc);
        for (buf, f) in self.q.iter().zip(s.q.iter()) {
            up(dev, *buf, f, geom.dc);
        }
        up(dev, self.precip, &s.precip, geom.dp);
    }

    /// Phantom upload: account the initial transfer without host data.
    pub fn upload_phantom(&mut self, dev: &mut Device<R>, geom: &DeviceGeom<R>) {
        assert_eq!(dev.mode(), ExecMode::Phantom);
        let c = geom.dc.len();
        let w = geom.dw.len();
        for _ in 0..(6 + self.n_tracers) {
            dev.copy_h2d_phantom(StreamId::DEFAULT, c);
        }
        dev.copy_h2d_phantom(StreamId::DEFAULT, w);
        dev.copy_h2d_phantom(StreamId::DEFAULT, geom.dp.len());
    }

    /// Download the device prognostics back into a host state — the
    /// Fig. 1 "Output" transfer ("minimum necessary data").
    pub fn download(&self, dev: &mut Device<R>, geom: &DeviceGeom<R>, s: &mut State) {
        assert_eq!(
            dev.mode(),
            ExecMode::Functional,
            "download needs functional mode"
        );
        let down = |dev: &mut Device<R>,
                    buf: Buf<R>,
                    f: &mut numerics::Field3<f64>,
                    dims: crate::view::Dims| {
            let mut host = vec![R::ZERO; dims.len()];
            dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut host)
                .expect("copy in bounds");
            relayout_from_xzy(&host, dims, f);
        };
        down(dev, self.rho, &mut s.rho, geom.dc);
        down(dev, self.u, &mut s.u, geom.dc);
        down(dev, self.v, &mut s.v, geom.dc);
        down(dev, self.w, &mut s.w, geom.dw);
        down(dev, self.th, &mut s.th, geom.dc);
        down(dev, self.p, &mut s.p, geom.dc);
        for (buf, f) in self.q.iter().zip(s.q.iter_mut()) {
            down(dev, *buf, f, geom.dc);
        }
        down(dev, self.precip, &mut s.precip, geom.dp);
    }

    /// Estimated device-memory footprint in bytes for a grid, used by
    /// capacity planning (Table I sizing).
    pub fn footprint_bytes(
        geom_c_len: usize,
        geom_w_len: usize,
        plane_len: usize,
        n_tracers: usize,
    ) -> u64 {
        // 5 prognostic centers + 4 t-copies + 4 tendencies + 2 refs +
        // 2 scratch, plus 3 arrays per tracer; 6 w-staggered fields.
        let centers = 17 + 3 * n_tracers;
        let wlevels = 6;
        ((centers * geom_c_len + wlevels * geom_w_len + plane_len) * R::BYTES) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dycore::config::{ModelConfig, Terrain};
    use dycore::grid::{BaseFields, Grid};
    use physics::base::BaseState;
    use vgpu::DeviceSpec;

    fn setup() -> (Grid, BaseFields, State) {
        let mut c = ModelConfig::mountain_wave(6, 5, 4);
        c.terrain = Terrain::Flat;
        let g = Grid::build(&c);
        let b = BaseFields::build(&g, &BaseState::isothermal(280.0));
        let mut s = State::zeros(&g, 3);
        dycore::model::install_base_state(&g, &b, &mut s);
        s.fill_halos_periodic();
        (g, b, s)
    }

    #[test]
    fn upload_download_roundtrip() {
        let (g, b, mut s) = setup();
        s.u.set(2, 2, 1, 3.25);
        s.q[1].set(1, 1, 1, 4.5e-3);
        s.fill_halos_periodic();
        let mut dev = Device::<f64>::new(DeviceSpec::tesla_s1070(), ExecMode::Functional);
        let geom = DeviceGeom::build(&mut dev, &g, &b);
        let mut ds = DeviceState::alloc(&mut dev, &geom, 3).unwrap();
        ds.upload(&mut dev, &geom, &s);
        let mut out = State::zeros(&g, 3);
        ds.download(&mut dev, &geom, &mut out);
        assert_eq!(out.u.max_diff(&s.u), 0.0);
        assert_eq!(out.q[1].max_diff(&s.q[1]), 0.0);
        assert_eq!(out.th.max_diff(&s.th), 0.0);
    }

    #[test]
    fn single_precision_upload_rounds() {
        let (g, b, mut s) = setup();
        s.th.set(0, 0, 0, 300.000000001);
        s.fill_halos_periodic();
        let mut dev = Device::<f32>::new(DeviceSpec::tesla_s1070(), ExecMode::Functional);
        let geom = DeviceGeom::build(&mut dev, &g, &b);
        let mut ds = DeviceState::alloc(&mut dev, &geom, 3).unwrap();
        ds.upload(&mut dev, &geom, &s);
        let mut out = State::zeros(&g, 3);
        ds.download(&mut dev, &geom, &mut out);
        // f32 rounding is bounded.
        assert!(out.th.max_diff(&s.th) < 1e-3);
    }

    #[test]
    fn paper_max_grid_fits_in_4gb_sp() {
        // The paper's maximum single-GPU grid (320x256x48 in SP) must fit
        // one 4 GB S1070; DP doubles the footprint (which, with the full
        // production code's larger array count, is what forces the paper
        // to halve ny to 128 for its DP runs).
        let c_len = crate::view::Dims::center(320, 256, 48, 2).len();
        let w_len = crate::view::Dims::wlevel(320, 256, 48, 2).len();
        let p_len = crate::view::Dims::plane(320, 256, 2).len();
        let sp = DeviceState::<f32>::footprint_bytes(c_len, w_len, p_len, 7);
        assert!(sp < 4 << 30, "SP footprint {sp} exceeds 4GB");
        let dp = DeviceState::<f64>::footprint_bytes(c_len, w_len, p_len, 7);
        assert_eq!(dp, 2 * sp, "DP must double the footprint");
        // Halving ny (the paper's DP configuration) halves it back.
        let c2 = crate::view::Dims::center(320, 128, 48, 2).len();
        let w2 = crate::view::Dims::wlevel(320, 128, 48, 2).len();
        let p2 = crate::view::Dims::plane(320, 128, 2).len();
        let dp_half = DeviceState::<f64>::footprint_bytes(c2, w2, p2, 7);
        assert!(dp_half < sp * 11 / 10);
    }

    #[test]
    fn alloc_fails_gracefully_on_oversized_grid() {
        let mut c = ModelConfig::mountain_wave(8, 8, 4);
        c.terrain = Terrain::Flat;
        let g = Grid::build(&c);
        let b = BaseFields::build(&g, &BaseState::isothermal(280.0));
        // Tiny device: 256 KiB — the geometry fits but the full state
        // cannot.
        let mut spec = DeviceSpec::tesla_s1070();
        spec.mem_capacity = 256 << 10;
        let mut dev = Device::<f64>::new(spec, ExecMode::Phantom);
        let geom = DeviceGeom::build(&mut dev, &g, &b);
        let r = DeviceState::alloc(&mut dev, &geom, 7);
        assert!(r.is_err());
    }
}
