//! Hydrostatically balanced reference (base) states.
//!
//! The HE-VI acoustic step linearizes pressure and buoyancy around a
//! horizontally uniform, hydrostatic base state ρ̄(z), θ̄(z), p̄(z). Two
//! analytic profiles are provided: isothermal (the paper's "normal
//! pressure, temperature" mountain-wave setup) and constant Brunt–Väisälä
//! frequency (the classic linear mountain-wave reference).

use crate::consts::{CP, GRAV, KAPPA, P00, RD};
use crate::eos;

/// Base-state profile family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Profile {
    /// Constant temperature `t0` \[K\].
    Isothermal { t0: f64 },
    /// Constant Brunt–Väisälä frequency `n` [s⁻¹] with surface potential
    /// temperature `theta0` \[K\].
    ConstantN { theta0: f64, n: f64 },
}

/// Thermodynamic base-state values at one height.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level {
    /// Height above the surface \[m\].
    pub z: f64,
    /// Potential temperature θ̄ \[K\].
    pub theta: f64,
    /// Exner function π̄.
    pub pi: f64,
    /// Pressure p̄ \[Pa\].
    pub p: f64,
    /// Temperature T̄ \[K\].
    pub t: f64,
    /// Density ρ̄ [kg m⁻³].
    pub rho: f64,
    /// ρ̄ θ̄ [kg K m⁻³] — the linearization point of the EOS.
    pub rho_theta: f64,
    /// Squared sound speed c̄s² [m² s⁻²].
    pub cs2: f64,
}

/// An analytic hydrostatic base state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseState {
    pub profile: Profile,
    /// Surface pressure \[Pa\].
    pub p_surface: f64,
}

impl BaseState {
    pub fn isothermal(t0: f64) -> Self {
        BaseState {
            profile: Profile::Isothermal { t0 },
            p_surface: P00,
        }
    }

    pub fn constant_n(theta0: f64, n: f64) -> Self {
        BaseState {
            profile: Profile::ConstantN { theta0, n },
            p_surface: P00,
        }
    }

    /// Evaluate the base state at height `z` \[m\].
    pub fn at(&self, z: f64) -> Level {
        let pi_sfc = (self.p_surface / P00).powf(KAPPA);
        let (theta, pi) = match self.profile {
            Profile::Isothermal { t0 } => {
                // p = p_s exp(-g z / (Rd T0));  θ = T0 / π.
                let p = self.p_surface * (-GRAV * z / (RD * t0)).exp();
                let pi = (p / P00).powf(KAPPA);
                (t0 / pi, pi)
            }
            Profile::ConstantN { theta0, n } => {
                // θ(z) = θ0 exp(N² z / g); hydrostatic Exner integral:
                // π(z) = π_s + (g² / (cp θ0 N²)) (exp(-N² z / g) − 1).
                let n2 = n * n;
                let theta = theta0 * (n2 * z / GRAV).exp();
                let pi = pi_sfc + GRAV * GRAV / (CP * theta0 * n2) * ((-n2 * z / GRAV).exp() - 1.0);
                assert!(pi > 0.0, "constant-N base state exhausted at z={z}");
                (theta, pi)
            }
        };
        let p = P00 * pi.powf(1.0 / KAPPA);
        let t = theta * pi;
        let rho = eos::rho_from_p_t(p, t);
        Level {
            z,
            theta,
            pi,
            p,
            t,
            rho,
            rho_theta: rho * theta,
            cs2: eos::sound_speed_sq(p, rho),
        }
    }

    /// Sample cell-center levels `z[k]` into parallel vectors
    /// (θ̄, ρ̄, p̄, ρ̄θ̄, c̄s²) for kernel consumption.
    pub fn sample(&self, zs: &[f64]) -> BaseColumns {
        let mut cols = BaseColumns::with_capacity(zs.len());
        for &z in zs {
            let l = self.at(z);
            cols.z.push(l.z);
            cols.theta.push(l.theta);
            cols.rho.push(l.rho);
            cols.p.push(l.p);
            cols.rho_theta.push(l.rho_theta);
            cols.cs2.push(l.cs2);
        }
        cols
    }
}

/// Column arrays of base-state values (index = vertical level).
#[derive(Debug, Clone, Default)]
pub struct BaseColumns {
    pub z: Vec<f64>,
    pub theta: Vec<f64>,
    pub rho: Vec<f64>,
    pub p: Vec<f64>,
    pub rho_theta: Vec<f64>,
    pub cs2: Vec<f64>,
}

impl BaseColumns {
    fn with_capacity(n: usize) -> Self {
        BaseColumns {
            z: Vec::with_capacity(n),
            theta: Vec::with_capacity(n),
            rho: Vec::with_capacity(n),
            p: Vec::with_capacity(n),
            rho_theta: Vec::with_capacity(n),
            cs2: Vec::with_capacity(n),
        }
    }
    pub fn len(&self) -> usize {
        self.z.len()
    }
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_hydrostatic(bs: &BaseState, zmax: f64) {
        // dp/dz must equal -ρ g to high accuracy for the analytic profiles.
        for i in 0..40 {
            let z = zmax * (i as f64 + 0.5) / 40.0;
            let h = 0.5;
            let dpdz = (bs.at(z + h).p - bs.at(z - h).p) / (2.0 * h);
            let rho = bs.at(z).rho;
            let rel = (dpdz + rho * GRAV).abs() / (rho * GRAV);
            assert!(rel < 1e-6, "hydrostatic violation {rel} at z={z}");
        }
    }

    #[test]
    fn isothermal_is_hydrostatic() {
        check_hydrostatic(&BaseState::isothermal(280.0), 20_000.0);
    }

    #[test]
    fn constant_n_is_hydrostatic() {
        check_hydrostatic(&BaseState::constant_n(288.0, 0.01), 15_000.0);
    }

    #[test]
    fn isothermal_scale_height() {
        let t0 = 250.0;
        let bs = BaseState::isothermal(t0);
        let h_scale = RD * t0 / GRAV;
        let p_ratio = bs.at(h_scale).p / bs.at(0.0).p;
        assert!((p_ratio - (-1.0f64).exp()).abs() < 1e-10);
    }

    #[test]
    fn constant_n_theta_gradient() {
        let n = 0.012;
        let bs = BaseState::constant_n(300.0, n);
        let z = 3000.0;
        let h = 1.0;
        let dthdz = (bs.at(z + h).theta - bs.at(z - h).theta) / (2.0 * h);
        let n2 = crate::eos::brunt_vaisala_sq(bs.at(z).theta, dthdz);
        assert!((n2.sqrt() - n).abs() < 1e-6);
    }

    #[test]
    fn surface_values_match_surface_pressure() {
        let bs = BaseState::isothermal(300.0);
        let l = bs.at(0.0);
        assert!((l.p - P00).abs() < 1e-9);
        assert!((l.t - 300.0).abs() < 1e-9);
        assert!((l.theta - 300.0).abs() < 1e-9);
    }

    #[test]
    fn sample_matches_pointwise() {
        let bs = BaseState::constant_n(295.0, 0.011);
        let zs: Vec<f64> = (0..10).map(|k| k as f64 * 500.0).collect();
        let cols = bs.sample(&zs);
        assert_eq!(cols.len(), 10);
        for (k, &z) in zs.iter().enumerate() {
            let l = bs.at(z);
            assert_eq!(cols.rho[k], l.rho);
            assert_eq!(cols.cs2[k], l.cs2);
        }
    }

    #[test]
    fn density_decreases_with_height() {
        for bs in [
            BaseState::isothermal(270.0),
            BaseState::constant_n(300.0, 0.01),
        ] {
            let mut prev = f64::INFINITY;
            for k in 0..30 {
                let rho = bs.at(k as f64 * 600.0).rho;
                assert!(rho < prev);
                prev = rho;
            }
        }
    }
}
