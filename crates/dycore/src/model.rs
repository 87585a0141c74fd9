//! The time-integration driver: Wicker–Skamarock RK3 long steps wrapping
//! the HE-VI acoustic loop, followed by microphysics, sedimentation and
//! the sponge — the CPU reference for the paper's Fig. 1 execution flow.

use crate::acoustic::{self, ColumnScratch, StageRef};
use crate::config::ModelConfig;
use crate::grid::{BaseFields, Grid};
use crate::micro;
use crate::ops::Workspace;
use crate::state::{State, Tendencies};
use crate::tendency;
use physics::base::BaseState;

/// Summary statistics of one long step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Simulation time after the step \[s\].
    pub time: f64,
    /// Maximum |specific w| [m/s].
    pub max_w: f64,
    /// Maximum |specific u| [m/s].
    pub max_u: f64,
    /// Total (G-weighted) air mass per unit cell volume.
    pub total_mass: f64,
    /// Total suspended water (Σ Gρq over cells).
    pub total_water: f64,
    /// Total accumulated surface precipitation (Σ over cells, mass per
    /// dζ-normalized cell, same units as `total_water`).
    pub total_precip: f64,
}

/// The CPU reference model.
pub struct Model {
    pub cfg: ModelConfig,
    pub grid: Grid,
    pub base: BaseFields,
    pub state: State,
    /// Time-t copy used by the RK3 stages.
    state_t: State,
    /// RK3 predictor (the working stage state).
    stage: State,
    tend: Tendencies,
    ws: Workspace,
    scratch: ColumnScratch,
    pub time: f64,
    pub steps_taken: u64,
}

impl Model {
    /// Build a model with the base state installed and at rest; callers
    /// then apply an initializer from [`crate::init`].
    pub fn new(cfg: ModelConfig) -> Self {
        cfg.validate();
        let grid = Grid::build(&cfg);
        Self::with_grid(cfg, grid)
    }

    /// Build with an externally constructed (e.g. subdomain) grid.
    pub fn with_grid(cfg: ModelConfig, grid: Grid) -> Self {
        let profile = BaseState {
            profile: cfg.base,
            p_surface: physics::consts::P00,
        };
        let base = BaseFields::build(&grid, &profile);
        let mut state = State::zeros(&grid, cfg.n_tracers);
        install_base_state(&grid, &base, &mut state);
        state.fill_halos_periodic();
        acoustic::compute_eos_pressure(&grid, &state.th, &mut state.p);
        let state_t = state.clone();
        let stage = state.clone();
        let tend = Tendencies::zeros(&grid, cfg.n_tracers);
        let ws = Workspace::new(&grid);
        let scratch = ColumnScratch::new(grid.nz);
        Model {
            cfg,
            grid,
            base,
            state,
            state_t,
            stage,
            tend,
            ws,
            scratch,
            time: 0.0,
            steps_taken: 0,
        }
    }

    /// Call after externally modifying `state` (initializers): refreshes
    /// halos and the diagnostic pressure.
    pub fn finalize_init(&mut self) {
        self.state.fill_halos_periodic();
        acoustic::compute_eos_pressure(&self.grid, &self.state.th, &mut self.state.p);
    }

    /// Advance one long time step Δt (RK3 + acoustic substeps + tracers +
    /// physics), returning step statistics.
    pub fn step(&mut self) -> StepStats {
        let dt = self.cfg.dt;
        self.state_t.copy_prognostics_from(&self.state);

        for s in 1..=3usize {
            let dts = dt * self.cfg.dt_fraction_for_stage(s);
            let nsub = self.cfg.substeps_for_stage(s);
            let dtau = dts / nsub as f64;

            // Slow tendencies and linearization from the latest stage
            // state (time t for stage 1, the previous predictor after).
            let sref = {
                let stage_src: &State = if s == 1 { &self.state } else { &self.stage };
                tendency::compute_slow(
                    &self.cfg,
                    &self.grid,
                    &self.base,
                    stage_src,
                    &mut self.ws,
                    &mut self.tend,
                );
                StageRef::capture(&self.grid, stage_src)
            };

            // Restart the acoustic integration from time t.
            self.stage.copy_prognostics_from(&self.state_t);
            acoustic::update_linear_pressure(
                &self.grid,
                &self.base,
                &sref,
                &self.stage.th,
                &mut self.stage.p,
            );

            for _ in 0..nsub {
                acoustic::update_horizontal_momentum(
                    &self.grid,
                    &self.tend,
                    &self.stage.p,
                    dtau,
                    &mut self.stage.u,
                    &mut self.stage.v,
                );
                self.stage.u.fill_halo_periodic_xy();
                self.stage.v.fill_halo_periodic_xy();
                acoustic::implicit_vertical(
                    &self.cfg,
                    &self.grid,
                    &self.base,
                    &sref,
                    &self.tend,
                    dtau,
                    &mut self.stage,
                    &mut self.scratch,
                );
                self.stage.th.fill_halo_periodic_xy();
                self.stage.th.fill_halo_zero_gradient_z();
                self.stage.rho.fill_halo_periodic_xy();
                self.stage.rho.fill_halo_zero_gradient_z();
                acoustic::update_linear_pressure(
                    &self.grid,
                    &self.base,
                    &sref,
                    &self.stage.th,
                    &mut self.stage.p,
                );
            }
            self.stage.w.fill_halo_periodic_xy();
            self.stage.w.fill_halo_zero_gradient_z();

            // Tracers: q(stage) = q(t) + dts * F_q(latest stage).
            let (nx, ny, nz) = (
                self.grid.nx as isize,
                self.grid.ny as isize,
                self.grid.nz as isize,
            );
            for ((sq, tq), fq) in self
                .stage
                .q
                .iter_mut()
                .zip(self.state_t.q.iter())
                .zip(self.tend.fq.iter())
            {
                for j in 0..ny {
                    for i in 0..nx {
                        for k in 0..nz {
                            let v = tq.at(i, j, k) + dts * fq.at(i, j, k);
                            // Clip the (tiny) limiter-undershoot negatives.
                            sq.set(i, j, k, v.max(0.0));
                        }
                    }
                }
                sq.fill_halo_periodic_xy();
                sq.fill_halo_zero_gradient_z();
            }
        }

        // The third-stage predictor is the provisional t+dt state.
        self.state.copy_prognostics_from(&self.stage);
        self.state.p.copy_padded_from(&self.stage.p);

        // Physics: warm rain + sedimentation, then the sponge.
        if self.cfg.microphysics && self.state.q.len() >= 3 {
            micro::apply_kessler(&self.grid, &mut self.state, dt);
            micro::sediment_rain(&self.grid, &mut self.state, dt);
        }
        micro::rayleigh_damping(&self.cfg, &self.grid, &self.base, &mut self.state, dt);

        // Final halo refresh and full (nonlinear) EOS pressure update.
        self.state.fill_halos_periodic();
        acoustic::compute_eos_pressure(&self.grid, &self.state.th, &mut self.state.p);

        self.time += dt;
        self.steps_taken += 1;
        self.stats()
    }

    /// Run `n` steps, returning the stats of the last one.
    pub fn run(&mut self, n: usize) -> StepStats {
        let mut last = self.stats();
        for _ in 0..n {
            last = self.step();
        }
        last
    }

    /// Current step statistics.
    pub fn stats(&self) -> StepStats {
        let (nx, ny, nz) = (
            self.grid.nx as isize,
            self.grid.ny as isize,
            self.grid.nz as isize,
        );
        let mut max_w = 0.0f64;
        let mut max_u = 0.0f64;
        for j in 0..ny {
            for i in 0..nx {
                for k in 0..nz {
                    let rho = self.state.rho.at(i, j, k);
                    max_u = max_u.max((self.state.u.at(i, j, k) / rho).abs());
                    max_w = max_w.max((self.state.w.at(i, j, k) / rho).abs());
                }
            }
        }
        let total_water: f64 = self.state.q.iter().map(|q| q.sum_interior()).sum();
        StepStats {
            time: self.time,
            max_w,
            max_u,
            total_mass: self.state.rho.sum_interior(),
            total_water,
            total_precip: self.state.precip.sum_interior() / self.grid.dzeta,
        }
    }
}

/// Install the hydrostatic base state into a zeroed state (at rest).
pub fn install_base_state(grid: &Grid, base: &BaseFields, s: &mut State) {
    let h = 2isize;
    for j in -h..grid.ny as isize + h {
        for i in -h..grid.nx as isize + h {
            let gm = grid.g.at(i, j);
            for k in -h..grid.nz as isize + h {
                let kk = k.clamp(0, grid.nz as isize - 1);
                let rho_star = gm * base.rho_c.at(i, j, kk);
                s.rho.set(i, j, k, rho_star);
                s.th.set(i, j, k, rho_star * base.th_c.at(i, j, kk));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Terrain;

    fn small_cfg() -> ModelConfig {
        let mut c = ModelConfig::mountain_wave(16, 8, 12);
        c.terrain = Terrain::Flat;
        c.microphysics = false;
        c.rayleigh.rate = 0.0;
        c.rayleigh.z_bottom = f64::INFINITY;
        c
    }

    #[test]
    fn resting_atmosphere_stays_at_rest_flat() {
        let mut m = Model::new(small_cfg());
        let stats = m.run(3);
        assert!(stats.max_u < 1e-9, "u = {}", stats.max_u);
        assert!(stats.max_w < 1e-9, "w = {}", stats.max_w);
        assert_eq!(m.state.find_non_finite(), None);
    }

    #[test]
    fn mass_is_conserved_over_steps() {
        let mut c = small_cfg();
        c.k_diffusion = 20.0;
        let mut m = Model::new(c);
        // Kick it with a thermal perturbation so there is actual flow.
        for di in -2..=2isize {
            for dk in -2..=2isize {
                let (i, k) = (8 + di, 6 + dk);
                let v = m.state.th.at(i, 4, k) * (1.0 + 0.002);
                m.state.th.set(i, 4, k, v);
            }
        }
        m.finalize_init();
        let m0 = m.stats().total_mass;
        let stats = m.run(5);
        assert!(
            ((stats.total_mass - m0) / m0).abs() < 1e-11,
            "mass drift {:e}",
            (stats.total_mass - m0) / m0
        );
        assert_eq!(m.state.find_non_finite(), None);
        assert!(stats.max_w > 0.0, "bubble should rise");
        assert!(stats.max_w < 30.0, "runaway w {}", stats.max_w);
    }

    #[test]
    fn warm_bubble_rises() {
        let mut c = small_cfg();
        c.dt = 4.0;
        let mut m = Model::new(c);
        // +1 K bubble near the ground.
        for j in 0..8isize {
            for i in 5..11isize {
                for k in 1..4isize {
                    let rho = m.state.rho.at(i, j, k);
                    let th = m.state.th.at(i, j, k);
                    m.state.th.set(i, j, k, th + rho * 1.0);
                }
            }
        }
        m.finalize_init();
        let mut max_w_mid = 0.0f64;
        for _ in 0..8 {
            m.step();
            // w at mid-level above the bubble
            for i in 5..11isize {
                let rho = m.state.rho.at(i, 4, 5);
                max_w_mid = max_w_mid.max(m.state.w.at(i, 4, 5) / rho);
            }
        }
        assert!(max_w_mid > 0.05, "bubble did not rise: w = {max_w_mid}");
        assert_eq!(m.state.find_non_finite(), None);
    }

    #[test]
    fn uniform_flow_over_flat_ground_is_preserved() {
        // Galilean consistency: uniform wind with no terrain must stay
        // uniform (no spurious forces).
        let mut m = Model::new(small_cfg());
        let u0 = 10.0;
        for j in -2..10isize {
            for i in -2..17isize {
                for k in -2..14isize {
                    let kk = k.clamp(0, 11);
                    let r =
                        0.5 * (m.state.rho.at(i, j, kk) + m.state.rho.at((i + 1).min(17), j, kk));
                    m.state.u.set(i, j, k, u0 * r);
                }
            }
        }
        m.finalize_init();
        let stats = m.run(3);
        assert!(
            (stats.max_u - u0).abs() < 0.05,
            "u drifted to {}",
            stats.max_u
        );
        assert!(stats.max_w < 1e-6, "spurious w {}", stats.max_w);
    }

    #[test]
    fn terrain_run_is_stable_and_makes_waves() {
        let mut c = ModelConfig::mountain_wave(32, 6, 16);
        c.microphysics = false;
        c.dt = 4.0;
        let mut m = Model::new(c);
        crate::init::mountain_wave_inflow(&mut m, 10.0);
        let mut stats = m.stats();
        for _ in 0..10 {
            stats = m.step();
            assert_eq!(m.state.find_non_finite(), None, "NaN at t={}", m.time);
        }
        // Flow over the ridge must generate vertical motion.
        assert!(stats.max_w > 1e-3, "no mountain wave: w = {}", stats.max_w);
        assert!(stats.max_w < 20.0, "unstable w = {}", stats.max_w);
        assert!(stats.max_u < 40.0, "unstable u = {}", stats.max_u);
    }
}
