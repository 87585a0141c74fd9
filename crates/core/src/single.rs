//! Single-GPU driver: the complete Fig. 1 execution flow.
//!
//! The CPU reads initial data and transfers it to the GPU once; every
//! computational component of the long and short time steps then runs
//! as GPU kernels; data returns to the host only for output. The step
//! structure mirrors `dycore::Model::step` so the two implementations
//! agree to round-off (the paper's §I claim). The step itself is the
//! shared step program (`crate::step`) over local periodic halos.

use crate::error::ModelError;
use crate::geom::DeviceGeom;
use crate::step::{self, Halo, StepProgram};
use dycore::config::ModelConfig;
use dycore::grid::{BaseFields, Grid};
use dycore::state::State;
use numerics::Real;
use vgpu::{DeviceSpec, ExecMode, VgpuError};

/// A complete single-GPU model instance: the step program on one
/// device, with the host base fields kept in `base`.
pub type SingleGpu<R> = StepProgram<R, BaseFields>;

impl<R: Real> SingleGpu<R> {
    /// Build the device model: construct grid/base on the host, upload
    /// everything, install the resting base state.
    pub fn new(cfg: ModelConfig, spec: DeviceSpec, mode: ExecMode) -> Self {
        cfg.validate();
        let grid = Grid::build(&cfg);
        let base = step::base_fields(&cfg, &grid);
        let mut dev = step::device(&cfg, spec, mode);
        let geom = DeviceGeom::build(&mut dev, &grid, &base);
        let mut this = StepProgram::assemble(cfg, grid, base, dev, geom, Halo::LocalPeriodic)
            .expect("grid does not fit in device memory");
        let s = step::resting_state(&this.grid, &this.base, this.cfg.n_tracers);
        this.load_state(&s).expect("initial state upload failed");
        this.arm_faults(0);
        this
    }

    /// Upload a host state (initial condition) into the device. With
    /// checkpointing on, the loaded state becomes the checkpoint, so a
    /// device lost before the first periodic checkpoint rolls back here.
    pub fn load_state(&mut self, s: &State) -> Result<(), ModelError> {
        self.load(Some(s))?;
        self.checkpoint();
        Ok(())
    }

    /// Run `n` steps with the robustness machinery engaged: periodic
    /// checkpoints (`cfg.checkpoint_every`), guard-rail scans
    /// (`cfg.guard_every`), and — when a checkpoint exists — automatic
    /// rollback/restart after a device loss.
    pub fn run(&mut self, n: usize) -> Result<(), ModelError> {
        let target = self.steps_taken + n as u64;
        while self.steps_taken < target {
            match self.step() {
                Ok(()) => self.after_step()?,
                Err(ModelError::Gpu(VgpuError::DeviceLost { .. })) if self.can_restart() => {
                    self.rollback();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Simulated GFlops achieved so far (total flops / busy kernel time).
    pub fn simulated_gflops(&self) -> f64 {
        let (flops, secs) = self.dev.profiler.flops_and_time();
        if secs > 0.0 {
            flops / secs / 1e9
        } else {
            0.0
        }
    }
}
