//! Model configuration.

use numerics::limiter::Limiter;
use physics::base::Profile;

/// Terrain specification (the lower boundary zs(x, y)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Terrain {
    /// Flat surface (zs = 0): the metric degenerates to Cartesian.
    Flat,
    /// Bell-shaped (Witch of Agnesi) ridge centred in the domain:
    /// `zs = h0 / (1 + ((x-xc)/a)^2)` — the "ideal mountain placed at the
    /// center of the calculation domain" of the paper's §IV-B benchmark.
    AgnesiRidge { height: f64, half_width: f64 },
    /// 2-D bell hill, circular in the horizontal plane.
    AgnesiHill { height: f64, half_width: f64 },
}

/// Rayleigh sponge-layer configuration (absorbs gravity waves at the lid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayleighConfig {
    /// Height above which damping ramps in \[m\].
    pub z_bottom: f64,
    /// Peak damping rate at the model top [s⁻¹].
    pub rate: f64,
}

impl Default for RayleighConfig {
    fn default() -> Self {
        RayleighConfig {
            z_bottom: f64::INFINITY, // off
            rate: 0.0,
        }
    }
}

/// Deterministic fault-injection knobs (pure data — the dycore knows
/// nothing about devices or links; the drivers map this onto
/// `vgpu::FaultSpec` and `cluster::LinkFaultSpec`).
///
/// Every injection decision downstream is a pure function of
/// `(seed, rank, op-index)`, so a given `FaultConfig` replays its fault
/// sequence bit-identically across reruns, thread counts and overlap
/// modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed (`ASUCA_FAULT_SEED`).
    pub seed: u64,
    /// Per-kernel-launch probability of a transient (auto-retried) ECC
    /// event.
    pub ecc_rate: f64,
    /// Per-message probability of each virtual link drop (recovered by
    /// the receiver's timeout + backoff resend protocol).
    pub drop_rate: f64,
    /// Per-message probability of extra in-flight delay.
    pub delay_rate: f64,
    /// The extra delay \[s\] when injected.
    pub delay_s: f64,
    /// Fail allocations made after driver init with this probability
    /// (drivers degrade gracefully, e.g. drop detailed profiling).
    pub oom_rate: f64,
    /// Pin one rank as a straggler: all its kernels run slower by
    /// `straggler_slowdown`.
    pub straggler_rank: Option<usize>,
    /// Duration multiplier (>= 1.0) for the straggler rank's kernels.
    pub straggler_slowdown: f64,
    /// Kill `(rank, after-step)` once: the run must roll back to the
    /// last checkpoint and restart (requires `checkpoint_every > 0`).
    pub death: Option<(usize, u64)>,
    /// Virtual-time cost of respawning a dead rank \[s\].
    pub respawn_penalty_s: f64,
}

impl FaultConfig {
    /// A schedule with nothing enabled (base for overrides).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            ecc_rate: 0.0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_s: 0.0,
            oom_rate: 0.0,
            straggler_rank: None,
            straggler_slowdown: 1.0,
            death: None,
            respawn_penalty_s: 0.0,
        }
    }

    /// The `ASUCA_FAULT_SEED` preset: modest, always-recoverable
    /// transient faults (ECC retries plus link drops/delays). Death,
    /// stragglers and OOM stay opt-in through explicit configs.
    pub fn from_env() -> Option<Self> {
        let seed = std::env::var("ASUCA_FAULT_SEED").ok()?.parse().ok()?;
        Some(FaultConfig {
            ecc_rate: 0.02,
            drop_rate: 0.05,
            delay_rate: 0.05,
            delay_s: 200.0e-6,
            ..FaultConfig::quiet(seed)
        })
    }
}

/// Full configuration of a model instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Grid points in x, y, z.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Horizontal grid spacing \[m\].
    pub dx: f64,
    pub dy: f64,
    /// Model-top height H \[m\] (uniform ζ levels, dζ = H / nz).
    pub z_top: f64,
    /// Long time step \[s\].
    pub dt: f64,
    /// Acoustic substeps per long step (stage 3 of RK3); stages 1 and 2
    /// use 1 and ⌈ns/2⌉ respectively, as in the time-split literature.
    pub ns_acoustic: usize,
    /// Off-centering β of the vertically implicit scheme (0.5 =
    /// Crank–Nicolson; slightly larger damps acoustic noise).
    pub beta: f64,
    /// Flux limiter of the advection scheme (ASUCA: Koren).
    pub limiter: Limiter,
    /// Constant eddy diffusivity for momentum/scalars [m² s⁻¹].
    pub k_diffusion: f64,
    /// Coriolis parameter f [s⁻¹] (f-plane; 0 disables).
    pub coriolis_f: f64,
    /// Rayleigh sponge near the lid.
    pub rayleigh: RayleighConfig,
    /// Terrain of the lower boundary.
    pub terrain: Terrain,
    /// Hydrostatic reference profile.
    pub base: Profile,
    /// Number of water-substance tracers carried (3 = qv,qc,qr warm rain;
    /// 7 adds the paper's ice-phase placeholders qi,qs,qg,qh which are
    /// advected but have no sources — ASUCA's production configuration at
    /// the time also ran warm rain only).
    pub n_tracers: usize,
    /// Enable the Kessler warm-rain scheme (first 3 tracers).
    pub microphysics: bool,
    /// Worker threads for slab-parallel sweeps (CPU reference loops and
    /// Functional-mode device kernels). 0 = auto: the `ASUCA_THREADS`
    /// environment variable if set, else all available cores. Results
    /// are bitwise identical for any thread count.
    pub threads: usize,
    /// SIMD x-walk inner loops for Functional-mode device kernels.
    /// `None` = auto: the `ASUCA_SIMD` environment variable if set
    /// ("0"/"off" disables, anything else enables), else on when the
    /// host CPU supports AVX2+FMA. Results are bitwise identical with
    /// SIMD on or off, and for any thread count.
    pub simd: Option<bool>,
    /// Deterministic fault injection; `None` (the default when
    /// `ASUCA_FAULT_SEED` is unset) is the untouched production path.
    pub fault: Option<FaultConfig>,
    /// Checkpoint the prognostic state every this many long steps
    /// (0 = off). Defaults to `ASUCA_CHECKPOINT_EVERY` if set. Required
    /// for recovery from injected rank death.
    pub checkpoint_every: u64,
    /// Run the NaN/Inf + CFL guard-rail scan every this many long steps
    /// (0 = off). Defaults to `ASUCA_GUARD_EVERY` if set.
    pub guard_every: u64,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

impl ModelConfig {
    /// The paper's mountain-wave benchmark configuration scaled to a
    /// given grid: 10 m/s inflow, Δt = 5 s, isothermal-ish stable air,
    /// periodic boundaries, warm rain on.
    pub fn mountain_wave(nx: usize, ny: usize, nz: usize) -> Self {
        ModelConfig {
            nx,
            ny,
            nz,
            dx: 2000.0,
            dy: 2000.0,
            z_top: 15_000.0,
            dt: 5.0,
            ns_acoustic: 6,
            beta: 0.6,
            limiter: Limiter::Koren,
            k_diffusion: 15.0,
            coriolis_f: 0.0,
            rayleigh: RayleighConfig {
                z_bottom: 10_000.0,
                rate: 0.05,
            },
            terrain: Terrain::AgnesiRidge {
                height: 400.0,
                half_width: 10_000.0,
            },
            base: Profile::ConstantN {
                theta0: 288.0,
                n: 0.01,
            },
            n_tracers: 3,
            microphysics: true,
            threads: 0,
            simd: None,
            fault: FaultConfig::from_env(),
            checkpoint_every: env_u64("ASUCA_CHECKPOINT_EVERY").unwrap_or(0),
            guard_every: env_u64("ASUCA_GUARD_EVERY").unwrap_or(0),
        }
    }

    /// Number of acoustic substeps for RK3 stage `s` (1-based).
    pub fn substeps_for_stage(&self, s: usize) -> usize {
        match s {
            1 => 1,
            2 => self.ns_acoustic.div_ceil(2),
            3 => self.ns_acoustic,
            _ => panic!("RK3 has stages 1..=3"),
        }
    }

    /// Fraction of dt integrated by RK3 stage `s`.
    pub fn dt_fraction_for_stage(&self, s: usize) -> f64 {
        match s {
            1 => 1.0 / 3.0,
            2 => 0.5,
            3 => 1.0,
            _ => panic!("RK3 has stages 1..=3"),
        }
    }

    /// Vertical grid spacing dζ \[m\].
    pub fn dzeta(&self) -> f64 {
        self.z_top / self.nz as f64
    }

    pub fn validate(&self) {
        assert!(
            self.nx >= 4 && self.ny >= 4 && self.nz >= 4,
            "grid too small for the 4-point stencil"
        );
        assert!(self.dt > 0.0 && self.dx > 0.0 && self.dy > 0.0 && self.z_top > 0.0);
        assert!(self.ns_acoustic >= 1);
        assert!((0.5..=1.0).contains(&self.beta), "beta must be in [0.5, 1]");
        assert!((3..=7).contains(&self.n_tracers));
        if let Some(f) = &self.fault {
            assert!(
                f.straggler_slowdown >= 1.0,
                "straggler slowdown must be >= 1.0"
            );
            assert!(
                f.death.is_none() || self.checkpoint_every > 0,
                "rank-death injection needs checkpoint_every > 0 to recover"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mountain_wave_defaults_are_valid() {
        let c = ModelConfig::mountain_wave(32, 32, 16);
        c.validate();
        assert_eq!(c.dt, 5.0);
        assert_eq!(c.limiter, Limiter::Koren);
    }

    #[test]
    fn stage_substeps_follow_ws_rk3() {
        let mut c = ModelConfig::mountain_wave(8, 8, 8);
        c.ns_acoustic = 6;
        assert_eq!(c.substeps_for_stage(1), 1);
        assert_eq!(c.substeps_for_stage(2), 3);
        assert_eq!(c.substeps_for_stage(3), 6);
        assert_eq!(c.dt_fraction_for_stage(1), 1.0 / 3.0);
        assert_eq!(c.dt_fraction_for_stage(2), 0.5);
        assert_eq!(c.dt_fraction_for_stage(3), 1.0);
    }

    #[test]
    fn dzeta_uniform_levels() {
        let c = ModelConfig::mountain_wave(8, 8, 48);
        assert!((c.dzeta() - 312.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_rejected() {
        let mut c = ModelConfig::mountain_wave(8, 8, 8);
        c.beta = 0.3;
        c.validate();
    }
}
