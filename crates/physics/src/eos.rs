//! Equation of state in the Exner-function form used by ASUCA.
//!
//! The paper's Eq. (5) is `p = Rd π (ρ θm)` where π = (p/p00)^(Rd/cp) is
//! the Exner function. Eliminating π gives the closed form actually
//! evaluated by the EOS kernel:
//!
//! ```text
//! p = p00 * (Rd * ρθm / p00)^(cp/cv)
//! ```
//!
//! The acoustic (short) time step linearizes this around the base state:
//! `p″ = (∂p/∂(ρθ)) (ρθ)″` with `∂p/∂(ρθ) = γ p / (ρθ) = cs²/θ`, where
//! `cs² = γ Rd π θ = γ p / ρ` is the squared sound speed.

use crate::consts::{CV, GAMMA, GRAV, KAPPA, P00, RD};
use numerics::Real;

/// Full (nonlinear) pressure from the density–potential-temperature
/// product `ρθ` \[Pa\].
#[inline(always)]
pub fn pressure_from_rho_theta<R: Real>(rho_theta: R) -> R {
    let p00 = R::from_f64(P00);
    let rd = R::from_f64(RD);
    let gamma = R::from_f64(GAMMA);
    p00 * (rd * rho_theta / p00).powf(gamma)
}

/// Inverse map: `ρθ` from pressure.
#[inline(always)]
pub fn rho_theta_from_pressure<R: Real>(p: R) -> R {
    let p00 = R::from_f64(P00);
    let rd = R::from_f64(RD);
    let inv_gamma = R::from_f64(1.0 / GAMMA);
    (p / p00).powf(inv_gamma) * p00 / rd
}

/// Exner function π = (p/p00)^(Rd/cp).
#[inline(always)]
pub fn exner<R: Real>(p: R) -> R {
    (p / R::from_f64(P00)).powf(R::from_f64(KAPPA))
}

/// Temperature from pressure and potential temperature: T = θ π.
#[inline(always)]
pub fn temperature<R: Real>(p: R, theta: R) -> R {
    theta * exner(p)
}

/// Linearization coefficient `∂p/∂(ρθ) = γ p / (ρθ)` [J kg⁻¹] — the
/// factor converting a ρθ perturbation to a pressure perturbation in the
/// HE-VI acoustic step.
#[inline(always)]
pub fn dp_drhotheta<R: Real>(p: R, rho_theta: R) -> R {
    R::from_f64(GAMMA) * p / rho_theta
}

/// Squared sound speed cs² = γ p / ρ [m² s⁻²].
#[inline(always)]
pub fn sound_speed_sq<R: Real>(p: R, rho: R) -> R {
    R::from_f64(GAMMA) * p / rho
}

/// Density from pressure and temperature via the ideal-gas law.
#[inline(always)]
pub fn rho_from_p_t<R: Real>(p: R, t: R) -> R {
    p / (R::from_f64(RD) * t)
}

/// Brunt–Väisälä frequency squared from a vertical θ profile:
/// N² = (g/θ) dθ/dz.
#[inline(always)]
pub fn brunt_vaisala_sq(theta: f64, dtheta_dz: f64) -> f64 {
    GRAV / theta * dtheta_dz
}

/// Potential-temperature factor θm = θ (ρd/ρ + ε ρv/ρ) from the paper's
/// §II; with warm-rain species only, ρd/ρ = 1 − qv − qc − qr.
#[inline(always)]
pub fn theta_m_factor<R: Real>(qv: R, qc: R, qr: R) -> R {
    let eps = R::from_f64(crate::consts::EPS_RV_RD);
    (R::ONE - qv - qc - qr) + eps * qv
}

/// Numerically safe check used in tests: γ Rd / cv relation (cs² via T).
#[inline(always)]
pub fn sound_speed_sq_from_t<R: Real>(t: R) -> R {
    R::from_f64(GAMMA * RD) * t
}

/// Guard against the `CV` constant being optimized away as unused.
#[allow(dead_code)]
const _ASSERT_CV: f64 = CV;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{KAPPA, P00, RD};

    #[test]
    fn surface_standard_atmosphere() {
        // θ = T at p = p00, so ρθ = p00/Rd there.
        let rho_theta = P00 / RD;
        let p = pressure_from_rho_theta(rho_theta);
        assert!((p - P00).abs() / P00 < 1e-12);
        assert!((exner(P00) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eos_roundtrip_double() {
        for &p in &[2.0e4, 5.0e4, 8.5e4, 1.013e5] {
            let rt = rho_theta_from_pressure(p);
            let p2 = pressure_from_rho_theta(rt);
            assert!((p - p2).abs() / p < 1e-12, "p={p}");
        }
    }

    #[test]
    fn eos_roundtrip_single() {
        for &p in &[2.0e4f32, 5.0e4, 1.013e5] {
            let rt = rho_theta_from_pressure(p);
            let p2 = pressure_from_rho_theta(rt);
            assert!((p - p2).abs() / p < 1e-5, "p={p}");
        }
    }

    #[test]
    fn linearization_matches_finite_difference() {
        let rt = P00 / RD * 1.07;
        let p = pressure_from_rho_theta(rt);
        let slope = dp_drhotheta(p, rt);
        let h = rt * 1e-7;
        let fd = (pressure_from_rho_theta(rt + h) - pressure_from_rho_theta(rt - h)) / (2.0 * h);
        assert!((slope - fd).abs() / fd < 1e-6);
    }

    #[test]
    fn sound_speed_sea_level_about_340ms() {
        let t = 288.15;
        let p = 101325.0;
        let rho = rho_from_p_t(p, t);
        let cs = sound_speed_sq(p, rho).sqrt();
        assert!((cs - 340.3).abs() < 1.0, "cs={cs}");
        let cs2 = sound_speed_sq_from_t(t).sqrt();
        assert!((cs - cs2).abs() < 1e-9);
    }

    #[test]
    fn temperature_consistent_with_theta() {
        let p = 7.0e4;
        let theta = 300.0;
        let t = temperature(p, theta);
        // θ = T (p00/p)^κ
        let theta_back = t * (P00 / p).powf(KAPPA);
        assert!((theta_back - theta).abs() < 1e-9);
    }

    #[test]
    fn theta_m_dry_air_is_unity() {
        assert_eq!(theta_m_factor(0.0f64, 0.0, 0.0), 1.0);
        // Vapour raises θm (ε > 1); condensate loading lowers it.
        assert!(theta_m_factor(0.01f64, 0.0, 0.0) > 1.0);
        assert!(theta_m_factor(0.0f64, 0.005, 0.005) < 1.0);
    }

    #[test]
    fn brunt_vaisala_typical_troposphere() {
        // dθ/dz ≈ 3.3 K/km at θ = 300 K gives N ≈ 0.0104 s⁻¹.
        let n2 = brunt_vaisala_sq(300.0, 3.3e-3);
        assert!(n2 > 0.9e-4 && n2 < 1.2e-4);
    }
}
