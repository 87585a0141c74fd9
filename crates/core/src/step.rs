//! The step program both drivers run: device construction, the Fig. 1
//! long step (three RK3 stages of slow tendencies and an acoustic loop,
//! then physics and the final halos/EOS), the guard/checkpoint cadence
//! and teardown, written once.
//!
//! A [`Halo`] policy decides only where halo values come from: the
//! local periodic kernels of one device ([`SingleGpu`]), or exchanges
//! with the neighbouring ranks of a decomposed run (`run_multi`),
//! serial or with the paper's overlap methods. Each policy keeps its
//! own launch names and order, so each driver's simulated timeline is
//! pinned by `tests/schedule.rs`. DESIGN.md §7 tabulates the hooks.
//!
//! [`SingleGpu`]: crate::SingleGpu

use crate::checkpoint::Checkpoint;
use crate::error::ModelError;
use crate::fields::DeviceState;
use crate::geom::DeviceGeom;
use crate::halo::{FieldRef, HaloExchanger};
use crate::kernels::physics as kphys;
use crate::kernels::region::{KName, Region};
use crate::kernels::{advection, boundary, eos, helmholtz, pgf, tend, transform};
use crate::kname;
use crate::monitor::GuardRails;
use crate::multi::OverlapMode;
use crate::view::Dims;
use cluster::{Comm, LinkFaultSpec, Topo2D};
use dycore::config::{FaultConfig, ModelConfig};
use dycore::grid::{BaseFields, Grid};
use dycore::state::State;
use numerics::Real;
use physics::base::BaseState;
use vgpu::{Buf, Device, DeviceSpec, ExecMode, FaultSpec, StreamId, VgpuError};

/// Restart attempts a driver makes from its last checkpoint before
/// giving up on a persistently failing device.
const MAX_RESTARTS: u64 = 8;

/// Every kernel of the step runs on the compute stream.
const COMPUTE: StreamId = StreamId::DEFAULT;

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

/// Map the pure-data [`FaultConfig`] onto a device-level fault schedule
/// for one rank.
fn fault_spec_for_rank(f: &FaultConfig, rank: usize) -> FaultSpec {
    let mut s = FaultSpec::quiet(f.seed, rank as u64);
    s.ecc_rate = f.ecc_rate;
    s.oom_rate = f.oom_rate;
    if f.straggler_rank == Some(rank) {
        s.straggler_rate = 1.0;
        s.straggler_slowdown = f.straggler_slowdown;
    }
    s
}

/// A device for `cfg`. Functional kernel bodies run slab-parallel on
/// `cfg.threads` host workers (0 → `ASUCA_THREADS` / all cores) with
/// SIMD x-walks per `cfg.simd` (`None` → `ASUCA_SIMD` / CPU detection);
/// neither choice changes a bit of the results.
pub(crate) fn device<R: Real>(cfg: &ModelConfig, spec: DeviceSpec, mode: ExecMode) -> Device<R> {
    let threads = if cfg.threads == 0 {
        numerics::par::default_threads()
    } else {
        cfg.threads
    };
    let simd = cfg.simd.unwrap_or_else(numerics::simd::default_enabled);
    Device::new(spec.with_host_threads(threads).with_host_simd(simd), mode)
}

/// The host base-state fields of `cfg`'s profile on `grid`.
pub(crate) fn base_fields(cfg: &ModelConfig, grid: &Grid) -> BaseFields {
    let profile = BaseState {
        profile: cfg.base,
        p_surface: physics::consts::P00,
    };
    BaseFields::build(grid, &profile)
}

/// The resting base state on `grid`, halos filled (Fig. 1 "Initial
/// data" before any perturbation).
pub(crate) fn resting_state(grid: &Grid, base: &BaseFields, n_tracers: usize) -> State {
    let mut s = State::zeros(grid, n_tracers);
    dycore::model::install_base_state(grid, base, &mut s);
    s.fill_halos_periodic();
    s
}

/// Where the step program's halo values come from.
// One per program, built once at setup and never moved on the step
// path, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Halo<R: Real> {
    /// One device whose domain is periodic in x and y: halos are local
    /// copy kernels on the compute stream.
    LocalPeriodic,
    /// One rank of a decomposed run: halos travel through host staging
    /// to the neighbouring ranks.
    Exchange {
        ex: HaloExchanger<R>,
        comm: Comm<Vec<R>>,
        /// Communication streams for the y and x directions.
        s_y: StreamId,
        s_x: StreamId,
        overlap: OverlapMode,
        /// Overlap method 1: tracer halo exchanges deferred from the
        /// end of the previous stage, to be hidden under this stage's
        /// big advection kernels.
        tracers_pending: bool,
    },
}

impl<R: Real> Halo<R> {
    /// The exchange policy of `rank` in `topo`, with its two
    /// communication streams.
    pub(crate) fn exchange(
        dev: &mut Device<R>,
        geom: &DeviceGeom<R>,
        topo: &Topo2D,
        comm: Comm<Vec<R>>,
        overlap: OverlapMode,
    ) -> Self {
        let s_y = dev.create_stream();
        let s_x = dev.create_stream();
        let ex = HaloExchanger::new(dev, topo, comm.rank(), geom.dc, geom.dw);
        Halo::Exchange {
            ex,
            comm,
            s_y,
            s_x,
            overlap,
            tracers_pending: false,
        }
    }

    /// The exchanger and communicator of a decomposed rank.
    pub(crate) fn rank(&mut self) -> (&mut HaloExchanger<R>, &mut Comm<Vec<R>>) {
        match self {
            Halo::Exchange { ex, comm, .. } => (ex, comm),
            Halo::LocalPeriodic => unreachable!("a local-periodic program has no neighbours"),
        }
    }
}

/// A field the halo hooks fill.
#[derive(Clone, Copy)]
enum F {
    Rho,
    U,
    V,
    W,
    Th,
    P,
    Spec,
    Q(usize),
}

impl F {
    /// Launch name of the field's local halo kernels.
    fn name(self) -> &'static str {
        match self {
            F::Rho => "halo_rho",
            F::U => "halo_u",
            F::V => "halo_v",
            F::W => "halo_w",
            F::Th => "halo_theta",
            F::P => "halo_p",
            F::Spec => "halo_spec",
            F::Q(_) => "halo_q",
        }
    }

    /// Message tag of the field's exchange.
    fn id(self) -> u32 {
        match self {
            F::Rho => 0,
            F::U => 1,
            F::V => 2,
            F::W => 3,
            F::Th => 4,
            F::P => 5,
            F::Spec => 6,
            F::Q(t) => 8 + t as u32,
        }
    }
}

/// The step program: one device's model state, its halo policy and its
/// robustness machinery. [`SingleGpu`](crate::SingleGpu) is this
/// program over the local periodic policy with the host base fields
/// kept in `base`; a `run_multi` rank runs it over the exchange policy.
pub struct StepProgram<R: Real, B> {
    pub cfg: ModelConfig,
    pub grid: Grid,
    pub base: B,
    pub dev: Device<R>,
    pub geom: DeviceGeom<R>,
    pub ds: DeviceState<R>,
    pub time: f64,
    pub steps_taken: u64,
    /// Restarts performed after device loss.
    pub restarts: u64,
    pub(crate) halo: Halo<R>,
    /// Guard-rail scanner (present when `cfg.guard_every > 0`).
    guard: Option<GuardRails<R>>,
    /// Last checkpoint (kept when `cfg.checkpoint_every > 0`).
    last_checkpoint: Option<Checkpoint<R>>,
}

impl<R: Real, B> StepProgram<R, B> {
    /// Allocate the device state for a device built by [`device`] and
    /// its geometry. The guard-rail stats are allocated here too, before
    /// any fault plan arms, so injection can never fail them.
    pub(crate) fn assemble(
        cfg: ModelConfig,
        grid: Grid,
        base: B,
        mut dev: Device<R>,
        geom: DeviceGeom<R>,
        halo: Halo<R>,
    ) -> Result<Self, ModelError> {
        let ds = DeviceState::alloc(&mut dev, &geom, cfg.n_tracers)?;
        let guard = if cfg.guard_every > 0 {
            Some(GuardRails::new(&mut dev, &geom)?)
        } else {
            None
        };
        Ok(StepProgram {
            cfg,
            grid,
            base,
            dev,
            geom,
            ds,
            time: 0.0,
            steps_taken: 0,
            restarts: 0,
            halo,
            guard,
            last_checkpoint: None,
        })
    }

    /// Upload a host state (`None`: account a phantom upload), then fill
    /// every halo and evaluate the full EOS once on the device.
    pub(crate) fn load(&mut self, s: Option<&State>) -> Result<(), ModelError> {
        match s {
            Some(s) => self.ds.upload(&mut self.dev, &self.geom, s),
            None => self.ds.upload_phantom(&mut self.dev, &self.geom),
        }
        self.fill_all_halos()?;
        eos::eos_full(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            "eos_full",
            self.ds.th,
            self.ds.p,
        )?;
        Ok(())
    }

    /// Arm `cfg.fault` for `rank`: the device schedule, and on a
    /// decomposed rank the link schedule. Setup is never injected, so
    /// the op-index → decision mapping starts at the first step. Returns
    /// whether an injected OOM downgraded detailed profiling.
    pub(crate) fn arm_faults(&mut self, rank: usize) -> bool {
        let Some(f) = self.cfg.fault else {
            return false;
        };
        self.dev.set_fault_plan(fault_spec_for_rank(&f, rank));
        let Halo::Exchange { comm, .. } = &mut self.halo else {
            return false;
        };
        comm.enable_link_faults(LinkFaultSpec {
            drop_rate: f.drop_rate,
            delay_rate: f.delay_rate,
            delay_s: f.delay_s,
            ..LinkFaultSpec::quiet(f.seed)
        });
        // Graceful degradation: probe one scratch allocation under the
        // armed plan; on an injected OOM, drop the (memory-hungry)
        // detailed profiling instead of dying.
        match self.dev.alloc(boundary::x_strip_len(self.geom.dc)) {
            Err(VgpuError::Oom { injected: true, .. }) => {
                self.dev.profiler.set_detailed(false);
                true
            }
            Ok(probe) => {
                let _ = self.dev.free(probe);
                false
            }
            Err(_) => false,
        }
    }

    /// Download the prognostics into a host state (Fig. 1 "Output").
    pub fn save_state(&mut self, s: &mut State) {
        self.ds.download(&mut self.dev, &self.geom, s);
    }

    /// Tear the model down and collect the sanitizer report (if
    /// `ASUCA_SAN` armed one). Frees every device allocation first so
    /// leakcheck certifies a clean heap; a leak finding here means a
    /// code path dropped a buffer without `free`.
    pub fn san_finish(mut self) -> Option<vgpu::san::Report> {
        if let Some(g) = self.guard.take() {
            g.free(&mut self.dev);
        }
        if let Halo::Exchange { ex, .. } = self.halo {
            ex.free(&mut self.dev);
        }
        self.ds.free(&mut self.dev);
        self.geom.free(&mut self.dev);
        self.dev.san_finish()
    }

    /// Snapshot the prognostics at the current step when checkpointing
    /// is on (`cfg.checkpoint_every > 0`).
    pub(crate) fn checkpoint(&mut self) {
        if self.cfg.checkpoint_every > 0 {
            self.last_checkpoint = Some(Checkpoint::capture(
                &mut self.dev,
                &self.ds,
                &self.geom,
                self.steps_taken,
                self.time,
            ));
        }
    }

    /// The guard/checkpoint cadence after a completed step: a guard-rail
    /// scan every `cfg.guard_every` steps, a checkpoint every
    /// `cfg.checkpoint_every`.
    pub(crate) fn after_step(&mut self) -> Result<(), ModelError> {
        let (n, cfg) = (self.steps_taken, &self.cfg);
        if let Some(g) = &self.guard {
            if n.is_multiple_of(cfg.guard_every) {
                g.check(
                    &mut self.dev,
                    &self.ds,
                    &self.geom,
                    n,
                    cfg.dt,
                    cfg.dx,
                    cfg.dy,
                    cfg.dzeta(),
                )?;
            }
        }
        if cfg.checkpoint_every > 0 && n.is_multiple_of(cfg.checkpoint_every) {
            self.checkpoint();
        }
        Ok(())
    }

    /// Whether a lost device can roll back: a checkpoint exists and the
    /// restart budget is not spent.
    pub(crate) fn can_restart(&self) -> bool {
        self.last_checkpoint.is_some() && self.restarts < MAX_RESTARTS
    }

    /// Roll the physics back to the last checkpoint. The virtual clock
    /// keeps running forward across the restart.
    pub(crate) fn rollback(&mut self) {
        let cp = self
            .last_checkpoint
            .as_ref()
            .expect("rollback needs a checkpoint");
        cp.restore(&mut self.dev, &self.ds, &self.geom);
        self.steps_taken = cp.step;
        self.time = cp.sim_time;
        self.restarts += 1;
    }

    fn buf(&self, f: F) -> (Buf<R>, Dims) {
        let (ds, c) = (&self.ds, self.geom.dc);
        match f {
            F::Rho => (ds.rho, c),
            F::U => (ds.u, c),
            F::V => (ds.v, c),
            F::W => (ds.w, self.geom.dw),
            F::Th => (ds.th, c),
            F::P => (ds.p, c),
            F::Spec => (ds.spec, c),
            F::Q(t) => (ds.q[t], c),
        }
    }

    fn overlapped(&self) -> bool {
        matches!(
            self.halo,
            Halo::Exchange {
                overlap: OverlapMode::Overlap,
                ..
            }
        )
    }

    /// The lateral (x/y) halo of one field.
    fn lateral(&mut self, f: F) -> Result<(), ModelError> {
        let (buf, dims) = self.buf(f);
        match &mut self.halo {
            Halo::LocalPeriodic => {
                boundary::halo_periodic_xy(&mut self.dev, COMPUTE, f.name(), buf, dims)?;
            }
            Halo::Exchange { ex, comm, s_y, .. } => {
                // The comm stream must not start packing until the
                // compute stream's writes to `buf` have landed; the
                // reverse edge (the compute stream seeing the unpacked
                // halos) is the exchange's own `sync_stream`.
                let ev = self.dev.record_event(COMPUTE);
                self.dev.stream_wait_event(*s_y, ev);
                ex.exchange(&mut self.dev, comm, *s_y, buf, dims, f.id())?;
            }
        }
        Ok(())
    }

    /// The zero-gradient vertical halo that follows an exchange.
    fn zgrad(&mut self, f: F) -> Result<(), VgpuError> {
        let (buf, dims) = self.buf(f);
        boundary::halo_zero_grad_z(&mut self.dev, COMPUTE, "halo_z", buf, dims)
    }

    /// Lateral plus vertical halo of one field.
    fn full_halo(&mut self, f: F) -> Result<(), ModelError> {
        self.lateral(f)?;
        let name = match self.halo {
            Halo::LocalPeriodic => f.name(),
            Halo::Exchange { .. } => "halo_z",
        };
        let (buf, dims) = self.buf(f);
        boundary::halo_zero_grad_z(&mut self.dev, COMPUTE, name, buf, dims)?;
        Ok(())
    }

    /// Every halo, one field at a time (initial state, and the end of a
    /// step without overlap). A local device also fills `p`; ranks leave
    /// it to the EOS that follows.
    fn fill_all_halos(&mut self) -> Result<(), ModelError> {
        for f in [F::Rho, F::U, F::V, F::W, F::Th] {
            self.full_halo(f)?;
        }
        if let Halo::LocalPeriodic = self.halo {
            self.full_halo(F::P)?;
        }
        for t in 0..self.ds.n_tracers {
            self.full_halo(F::Q(t))?;
        }
        Ok(())
    }

    /// Make both comm streams wait for the compute stream's work so far.
    fn comm_after_compute(&mut self) {
        if let Halo::Exchange { s_y, s_x, .. } = self.halo {
            let ev = self.dev.record_event(COMPUTE);
            self.dev.stream_wait_event(s_y, ev);
            self.dev.stream_wait_event(s_x, ev);
        }
    }

    /// Batched exchange of `fields` on the comm streams: y (which
    /// carries the corners), then x.
    fn exchange_many<const N: usize>(&mut self, fields: [F; N]) -> Result<(), ModelError> {
        let refs = fields.map(|f| {
            let (buf, dims) = self.buf(f);
            FieldRef {
                buf,
                dims,
                id: f.id(),
            }
        });
        let Halo::Exchange {
            ex, comm, s_y, s_x, ..
        } = &mut self.halo
        else {
            unreachable!("batched exchanges need a decomposed rank");
        };
        ex.exchange_y_many(&mut self.dev, comm, *s_y, &refs)?;
        ex.exchange_x_many(&mut self.dev, comm, *s_x, &refs)
    }

    /// Compute all slow tendencies from the current prognostics
    /// (mirrors `dycore::tendency::compute_slow`). The kernels are
    /// whole-domain; the overlap methods target the short-step and
    /// tracer phases.
    fn compute_slow(&mut self) -> Result<(), ModelError> {
        let st = COMPUTE;
        let lim = self.cfg.limiter;
        let kdiff = self.cfg.k_diffusion;
        let nz = self.geom.nz as isize;

        for (buf, name) in [
            (self.ds.fu, "clear_fu"),
            (self.ds.fv, "clear_fv"),
            (self.ds.fw, "clear_fw"),
            (self.ds.frho, "clear_frho"),
            (self.ds.fth, "clear_fth"),
        ] {
            transform::zero_buf(&mut self.dev, st, name, buf)?;
        }
        for t in 0..self.ds.n_tracers {
            transform::zero_buf(&mut self.dev, st, "clear_fq", self.ds.fq[t])?;
        }

        transform::mass_flux_w(
            &mut self.dev,
            st,
            &self.geom,
            self.ds.u,
            self.ds.v,
            self.ds.w,
            self.ds.mw,
        )?;
        // A rank computes the one-cell ring of mw that the advection
        // averages read locally from its (already exchanged) u/v/w
        // halos, exactly as in the original code; no exchange needed.
        if let Halo::LocalPeriodic = self.halo {
            boundary::halo_periodic_xy(&mut self.dev, st, "halo_mw", self.ds.mw, self.geom.dw)?;
        }

        // Momentum advection + diffusion (staggered specific velocities
        // get a lateral halo refresh; see dycore::tendency for why).
        transform::specific_u(
            &mut self.dev,
            st,
            &self.geom,
            self.ds.u,
            self.ds.rho,
            self.ds.spec,
        )?;
        self.lateral(F::Spec)?;
        advection::advect_u(
            &mut self.dev,
            st,
            &self.geom,
            Region::Whole,
            &KN_ADV_U,
            lim,
            self.ds.spec,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            self.ds.fu,
        )?;
        tend::diffuse(
            &mut self.dev,
            st,
            &self.geom,
            "diff_u",
            kdiff,
            self.ds.spec,
            None,
            tend::DiffWeight::U,
            self.ds.rho,
            self.ds.fu,
            0,
            nz,
        )?;

        transform::specific_v(
            &mut self.dev,
            st,
            &self.geom,
            self.ds.v,
            self.ds.rho,
            self.ds.spec,
        )?;
        self.lateral(F::Spec)?;
        advection::advect_v(
            &mut self.dev,
            st,
            &self.geom,
            Region::Whole,
            &KN_ADV_V,
            lim,
            self.ds.spec,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            self.ds.fv,
        )?;
        tend::diffuse(
            &mut self.dev,
            st,
            &self.geom,
            "diff_v",
            kdiff,
            self.ds.spec,
            None,
            tend::DiffWeight::V,
            self.ds.rho,
            self.ds.fv,
            0,
            nz,
        )?;

        transform::specific_w(
            &mut self.dev,
            st,
            &self.geom,
            self.ds.w,
            self.ds.rho,
            self.ds.spec_w,
        )?;
        advection::advect_w(
            &mut self.dev,
            st,
            &self.geom,
            Region::Whole,
            &KN_ADV_W,
            lim,
            self.ds.spec_w,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            self.ds.fw,
        )?;
        tend::diffuse(
            &mut self.dev,
            st,
            &self.geom,
            "diff_w",
            kdiff,
            self.ds.spec_w,
            None,
            tend::DiffWeight::W,
            self.ds.rho,
            self.ds.fw,
            1,
            nz,
        )?;

        tend::coriolis(
            &mut self.dev,
            st,
            &self.geom,
            self.cfg.coriolis_f,
            self.ds.u,
            self.ds.v,
            self.ds.fu,
            self.ds.fv,
        )?;
        tend::metric_pg(
            &mut self.dev,
            st,
            &self.geom,
            self.ds.p,
            self.ds.fu,
            self.ds.fv,
        )?;

        // Θ: advection + deviation diffusion + linear-divergence credit.
        transform::specific_center(
            &mut self.dev,
            st,
            &self.geom,
            "transform_theta",
            self.ds.th,
            self.ds.rho,
            self.ds.spec,
        )?;
        advection::advect_scalar(
            &mut self.dev,
            st,
            &self.geom,
            Region::Whole,
            &KN_ADV_TH,
            lim,
            true,
            self.ds.spec,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            self.ds.fth,
        )?;
        tend::diffuse(
            &mut self.dev,
            st,
            &self.geom,
            "diff_theta",
            kdiff,
            self.ds.spec,
            Some(self.geom.th_c),
            tend::DiffWeight::Center,
            self.ds.rho,
            self.ds.fth,
            0,
            nz,
        )?;
        tend::add_div_lin_theta(
            &mut self.dev,
            st,
            &self.geom,
            self.ds.u,
            self.ds.v,
            self.ds.w,
            self.ds.fth,
        )?;

        // ρ*: terrain metric residual.
        tend::continuity_residual(
            &mut self.dev,
            st,
            &self.geom,
            self.ds.u,
            self.ds.v,
            self.ds.w,
            self.ds.mw,
            self.ds.frho,
        )?;

        // Overlap method 1 (Fig. 7): the tracer halo exchanges deferred
        // from the previous stage complete here, hidden under the
        // momentum/θ advection kernels issued above, just in time for
        // this stage's tracer advection.
        let pending = match &mut self.halo {
            Halo::Exchange {
                tracers_pending, ..
            } => std::mem::take(tracers_pending),
            Halo::LocalPeriodic => false,
        };
        if pending {
            for t in 0..self.ds.n_tracers {
                self.full_halo(F::Q(t))?;
            }
        }

        // Tracers ("13 variables related to water substances").
        #[allow(clippy::needless_range_loop)]
        for t in 0..self.ds.n_tracers {
            transform::specific_center(
                &mut self.dev,
                st,
                &self.geom,
                "transform_q",
                self.ds.q[t],
                self.ds.rho,
                self.ds.spec,
            )?;
            advection::advect_scalar(
                &mut self.dev,
                st,
                &self.geom,
                Region::Whole,
                &KN_ADV_Q[t],
                lim,
                true,
                self.ds.spec,
                self.ds.u,
                self.ds.v,
                self.ds.mw,
                self.ds.fq[t],
            )?;
            tend::diffuse(
                &mut self.dev,
                st,
                &self.geom,
                "diff_q",
                kdiff,
                self.ds.spec,
                None,
                tend::DiffWeight::Center,
                self.ds.rho,
                self.ds.fq[t],
                0,
                nz,
            )?;
        }
        Ok(())
    }

    /// Momentum x then y over one region of a substep.
    fn momentum(&mut self, region: Region, dtau: f64) -> Result<(), VgpuError> {
        pgf::momentum_x(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            region,
            &KN_MOM_X,
            self.ds.p,
            self.ds.fu,
            dtau,
            self.ds.u,
        )?;
        pgf::momentum_y(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            region,
            &KN_MOM_Y,
            self.ds.p,
            self.ds.fv,
            dtau,
            self.ds.v,
        )
    }

    /// The 1-D Helmholtz solve, then density and potential temperature,
    /// over one region of a substep.
    fn helmholtz_block(&mut self, region: Region, dtau: f64) -> Result<(), VgpuError> {
        let st = COMPUTE;
        helmholtz::helmholtz(
            &mut self.dev,
            st,
            &self.geom,
            region,
            &KN_HELM,
            self.cfg.beta,
            dtau,
            helmholtz::HelmholtzArgs {
                u: self.ds.u,
                v: self.ds.v,
                w: self.ds.w,
                rho: self.ds.rho,
                th: self.ds.th,
                p: self.ds.p,
                fu_w: self.ds.fw,
                frho: self.ds.frho,
                fth: self.ds.fth,
                th_ref: self.ds.th_ref,
                p_ref: self.ds.p_ref,
                st_rho: self.ds.spec,
                st_th: self.ds.flux,
            },
        )?;
        helmholtz::density(
            &mut self.dev,
            st,
            &self.geom,
            region,
            &KN_DENS,
            self.cfg.beta,
            dtau,
            self.ds.spec,
            self.ds.w,
            self.ds.rho,
        )?;
        helmholtz::potential_temperature(
            &mut self.dev,
            st,
            &self.geom,
            region,
            &KN_PT,
            self.cfg.beta,
            dtau,
            self.ds.flux,
            self.ds.w,
            self.ds.th,
        )
    }

    fn eos_linear(&mut self) -> Result<(), VgpuError> {
        eos::eos_linear(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.th,
            self.ds.th_ref,
            self.ds.p_ref,
            self.ds.p,
        )
    }

    /// One acoustic substep without overlap: whole-domain kernels, each
    /// followed by its halos.
    fn acoustic_substep(&mut self, dtau: f64) -> Result<(), ModelError> {
        self.momentum(Region::Whole, dtau)?;
        self.lateral(F::U)?;
        self.lateral(F::V)?;
        self.helmholtz_block(Region::Whole, dtau)?;
        self.full_halo(F::Th)?;
        self.full_halo(F::Rho)?;
        // A rank's Helmholtz outputs all travel every substep (the
        // paper's Fig. 9 short-step communication rows: momentum x/y,
        // Helmholtz (w), density, potential temperature).
        if let Halo::Exchange { .. } = self.halo {
            self.full_halo(F::W)?;
        }
        self.eos_linear()?;
        Ok(())
    }

    /// One acoustic substep with overlap methods 2 and 3 (Fig. 8): the
    /// boundary strips of every short-step variable are computed first,
    /// their exchange proceeds while the inner kernels run. That is the
    /// simulated GPU's schedule; the Functional host runs each split
    /// kernel's body once, at its `.by` launch ([`Region::launch_split`]).
    fn acoustic_substep_overlap(&mut self, dtau: f64) -> Result<(), ModelError> {
        // (1)+(2): boundary momentum kernels.
        for region in [Region::YBound, Region::XBound] {
            self.momentum(region, dtau)?;
        }
        // Order streams: comm streams wait for the boundary values.
        self.comm_after_compute();
        // (4): inner kernels issued *before* the host blocks on MPI, so
        // the DES overlaps them with the transfers.
        self.momentum(Region::Inner, dtau)?;
        // (5)+(6): batched exchanges on the comm streams.
        self.exchange_many([F::U, F::V])?;
        self.dev.sync_all();

        // Helmholtz + fused density/θ (method 3): boundary first, then
        // exchange overlapped with the inner block.
        for region in [Region::YBound, Region::XBound] {
            self.helmholtz_block(region, dtau)?;
        }
        self.comm_after_compute();
        self.helmholtz_block(Region::Inner, dtau)?;
        // Fused ρ+Θ(+w) logical-kernel exchange (overlap method 3),
        // hidden under the inner Helmholtz block.
        self.exchange_many([F::Th, F::Rho, F::W])?;
        self.dev.sync_all();
        for f in [F::Th, F::Rho, F::W] {
            self.zgrad(f)?;
        }
        self.eos_linear()?;
        Ok(())
    }

    /// The final halos of a step with overlap.
    fn final_halos_overlap(&mut self) -> Result<(), ModelError> {
        // u/v are untouched by the physics kernels: their exchange
        // proceeds while warm rain / sedimentation / sponge still run on
        // the compute engine.
        self.exchange_many([F::U, F::V])?;
        // The physics outputs travel once the physics kernels have
        // drained (cross-stream event ordering).
        self.comm_after_compute();
        self.exchange_many([F::Rho, F::Th, F::W])?;
        for f in [F::Rho, F::U, F::V, F::W, F::Th] {
            self.zgrad(f)?;
        }
        // (the deferred tracer exchanges complete at the start of the
        // next stage's slow-tendency phase)
        Ok(())
    }

    /// One long (RK3 + acoustic) step on the device.
    pub fn step(&mut self) -> Result<(), ModelError> {
        let st = COMPUTE;
        let dt = self.cfg.dt;
        let overlap = self.overlapped();

        // Keep the time-t copies on device.
        transform::copy_buf(&mut self.dev, st, "save_rho_t", self.ds.rho, self.ds.rho_t)?;
        transform::copy_buf(&mut self.dev, st, "save_u_t", self.ds.u, self.ds.u_t)?;
        transform::copy_buf(&mut self.dev, st, "save_v_t", self.ds.v, self.ds.v_t)?;
        transform::copy_buf(&mut self.dev, st, "save_w_t", self.ds.w, self.ds.w_t)?;
        transform::copy_buf(&mut self.dev, st, "save_th_t", self.ds.th, self.ds.th_t)?;
        for t in 0..self.ds.n_tracers {
            transform::copy_buf(&mut self.dev, st, "save_q_t", self.ds.q[t], self.ds.q_t[t])?;
        }

        for s in 1..=3usize {
            let dts = dt * self.cfg.dt_fraction_for_stage(s);
            let nsub = self.cfg.substeps_for_stage(s);
            let dtau = dts / nsub as f64;

            // Slow tendencies + linearization reference from the latest
            // stage state (the prognostics currently on device).
            self.compute_slow()?;
            transform::copy_buf(
                &mut self.dev,
                st,
                "capture_th_ref",
                self.ds.th,
                self.ds.th_ref,
            )?;
            eos::eos_full(
                &mut self.dev,
                st,
                &self.geom,
                "eos_ref",
                self.ds.th_ref,
                self.ds.p_ref,
            )?;

            // Restart the acoustic integration from time t.
            transform::copy_buf(&mut self.dev, st, "restore_rho", self.ds.rho_t, self.ds.rho)?;
            transform::copy_buf(&mut self.dev, st, "restore_u", self.ds.u_t, self.ds.u)?;
            transform::copy_buf(&mut self.dev, st, "restore_v", self.ds.v_t, self.ds.v)?;
            transform::copy_buf(&mut self.dev, st, "restore_w", self.ds.w_t, self.ds.w)?;
            transform::copy_buf(&mut self.dev, st, "restore_th", self.ds.th_t, self.ds.th)?;
            self.eos_linear()?;

            for _ in 0..nsub {
                if overlap {
                    self.acoustic_substep_overlap(dtau)?;
                } else {
                    self.acoustic_substep(dtau)?;
                }
            }
            self.full_halo(F::W)?;

            // Tracers from their time-t values. With overlap (method 1)
            // their exchanges are deferred into the next slow-tendency
            // phase, where they hide under the advection kernels.
            #[allow(clippy::needless_range_loop)]
            for t in 0..self.ds.n_tracers {
                tend::tracer_update(
                    &mut self.dev,
                    st,
                    &self.geom,
                    Region::Whole,
                    &KN_TRACER[t],
                    dts,
                    self.ds.q_t[t],
                    self.ds.fq[t],
                    self.ds.q[t],
                )?;
                if overlap {
                    self.zgrad(F::Q(t))?;
                } else {
                    self.full_halo(F::Q(t))?;
                }
            }
            if let Halo::Exchange {
                tracers_pending, ..
            } = &mut self.halo
            {
                *tracers_pending = overlap;
            }
        }

        // Physics.
        if self.cfg.microphysics && self.ds.n_tracers >= 3 {
            kphys::warm_rain(
                &mut self.dev,
                st,
                &self.geom,
                dt,
                self.ds.rho,
                self.ds.th,
                self.ds.p,
                self.ds.q[0],
                self.ds.q[1],
                self.ds.q[2],
            )?;
            kphys::sediment(
                &mut self.dev,
                st,
                &self.geom,
                dt,
                self.ds.rho,
                self.ds.q[2],
                self.ds.precip,
            )?;
        }
        kphys::rayleigh(
            &mut self.dev,
            st,
            &self.geom,
            &self.grid,
            self.cfg.rayleigh.z_bottom,
            self.cfg.rayleigh.rate,
            dt,
            self.ds.w,
            self.ds.th,
            self.ds.rho,
        )?;

        // Final halos + full EOS.
        if overlap {
            self.final_halos_overlap()?;
        } else {
            self.fill_all_halos()?;
        }
        eos::eos_full(
            &mut self.dev,
            st,
            &self.geom,
            "eos_full",
            self.ds.th,
            self.ds.p,
        )?;

        self.dev.sync_all();
        self.time += dt;
        self.steps_taken += 1;
        Ok(())
    }
}
