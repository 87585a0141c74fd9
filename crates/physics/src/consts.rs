//! Physical constants, following the JMA-NHM / ASUCA conventions.

/// Gas constant for dry air [J kg⁻¹ K⁻¹].
pub const RD: f64 = 287.04;
/// Gas constant for water vapour [J kg⁻¹ K⁻¹].
pub const RV: f64 = 461.50;
/// Specific heat of dry air at constant pressure [J kg⁻¹ K⁻¹].
pub const CP: f64 = 1004.64;
/// Specific heat of dry air at constant volume [J kg⁻¹ K⁻¹].
pub const CV: f64 = CP - RD;
/// Reference surface pressure \[Pa\].
pub const P00: f64 = 1.0e5;
/// Gravitational acceleration [m s⁻²].
pub const GRAV: f64 = 9.80665;
/// Ratio Rv/Rd (the ε of the paper's θm definition).
pub const EPS_RV_RD: f64 = RV / RD;
/// Ratio Rd/Rv (≈ 0.622), used for saturation mixing ratio.
pub const EPS_RD_RV: f64 = RD / RV;
/// Rd/cp — exponent of the Exner function.
pub const KAPPA: f64 = RD / CP;
/// cp/cv — the heat-capacity ratio γ.
pub const GAMMA: f64 = CP / CV;
/// Latent heat of vaporization at 0°C [J kg⁻¹].
pub const LV: f64 = 2.501e6;
/// Freezing point \[K\].
pub const T0C: f64 = 273.15;
/// Default Coriolis parameter (f-plane at ~35°N) [s⁻¹].
pub const F_CORIOLIS_35N: f64 = 2.0 * 7.292e-5 * 0.573576436; // 2Ω sin(35°)

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_consistent() {
        assert!((CV - 717.6).abs() < 0.1);
        assert!((GAMMA - 1.4).abs() < 0.01);
        assert!((KAPPA - 0.2857).abs() < 0.001);
        assert!((EPS_RD_RV - 0.622).abs() < 0.001);
        const { assert!(EPS_RV_RD > 1.6 && EPS_RV_RD < 1.61) }
    }

    #[test]
    fn coriolis_at_midlatitude() {
        const { assert!(F_CORIOLIS_35N > 8.0e-5 && F_CORIOLIS_35N < 9.0e-5) }
    }
}
