//! Kessler-type warm-rain microphysics.
//!
//! ASUCA "employs a Kessler-type warm-rain scheme for cloud-microphysics
//! parameterization at this time, which is also used in the JMA-NHM"
//! (§II). The scheme carries water vapour (qv), cloud water (qc) and rain
//! (qr) and models:
//!
//! * saturation adjustment (condensation/evaporation of cloud water with
//!   latent heating of θ),
//! * autoconversion of cloud to rain above a threshold,
//! * accretion (collection of cloud by falling rain),
//! * evaporation of rain in sub-saturated air,
//! * rain sedimentation with a diagnosed terminal velocity (handled by the
//!   dynamical core's precipitation kernel; the velocity law lives here).
//!
//! Rate constants follow Klemp & Wilhelmson (1978), the lineage the
//! JMA-NHM warm-rain scheme descends from. The paper's Fig. 5 kernel (5)
//! — "warm rain", arithmetic-intensity ≈ 10, full of `exp`/`log` — is the
//! GPU port of exactly this routine.

use crate::consts::{CP, LV};
use crate::moist;
use numerics::Real;

/// Autoconversion rate constant k1 [s⁻¹].
pub const K1_AUTOCONV: f64 = 1.0e-3;
/// Autoconversion cloud-water threshold [kg/kg].
pub const QC0_THRESHOLD: f64 = 1.0e-3;
/// Accretion rate constant k2 [s⁻¹].
pub const K2_ACCRETION: f64 = 2.2;

/// Thermodynamic/water state of one grid point handed to the scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointState<R> {
    /// Potential temperature θ \[K\].
    pub theta: R,
    /// Water-vapour mixing ratio [kg/kg].
    pub qv: R,
    /// Cloud-water mixing ratio [kg/kg].
    pub qc: R,
    /// Rain-water mixing ratio [kg/kg].
    pub qr: R,
}

/// Apply the warm-rain scheme to one grid point over `dt` seconds.
///
/// `p` is pressure \[Pa\], `pi` the Exner function and `rho` density
/// [kg m⁻³] at the point. Total water `qv + qc + qr` is conserved exactly
/// (sedimentation is *not* applied here).
#[inline]
pub fn step_point<R: Real>(p: R, pi: R, rho: R, dt: R, s: PointState<R>) -> PointState<R> {
    let zero = R::ZERO;
    let lv_over_cp_pi = R::from_f64(LV / CP) / pi;

    let mut theta = s.theta;
    let mut qv = s.qv.max(zero);
    let mut qc = s.qc.max(zero);
    let mut qr = s.qr.max(zero);

    // --- Autoconversion: cloud -> rain above the threshold. ---
    let qc0 = R::from_f64(QC0_THRESHOLD);
    if qc > qc0 {
        let dqr = (R::from_f64(K1_AUTOCONV) * (qc - qc0) * dt).min(qc);
        qc -= dqr;
        qr += dqr;
    }

    // --- Accretion: rain collects cloud water (KW78 rate). ---
    if qc > zero && qr > zero {
        let rate = R::from_f64(K2_ACCRETION) * qc * qr.powf(R::from_f64(0.875));
        let dqr = (rate * dt).min(qc);
        qc -= dqr;
        qr += dqr;
    }

    // --- Saturation adjustment (single Newton step, as in KW78). ---
    let t = theta * pi;
    let qvs = moist::saturation_mixing_ratio(p, t);
    let gamma = lv_over_cp_pi * pi * moist::dqvs_dt(p, t); // (Lv/cp) dqvs/dT
    let excess = (qv - qvs) / (R::ONE + gamma);
    if excess > zero {
        // Condense onto cloud water; heats θ.
        qv -= excess;
        qc += excess;
        theta += lv_over_cp_pi * excess;
    } else if qc > zero {
        // Evaporate cloud water up to saturation (or until cloud is gone).
        let evap = (-excess).min(qc);
        qv += evap;
        qc -= evap;
        theta -= lv_over_cp_pi * evap;
    }

    // --- Rain evaporation in sub-saturated air (KW78 ventilation). ---
    if qr > zero {
        let t2 = theta * pi;
        let qvs2 = moist::saturation_mixing_ratio(p, t2);
        if qv < qvs2 {
            let rho_qr = rho * qr;
            let vent = R::from_f64(1.6) + R::from_f64(124.9) * rho_qr.powf(R::from_f64(0.2046));
            let denom = R::from_f64(5.4e5) + R::from_f64(2.55e6) / (p * qvs2);
            let er = (R::ONE - qv / qvs2) * vent * rho_qr.powf(R::from_f64(0.525)) / (denom * rho);
            let dqv = (er * dt).max(zero).min(qr).min(qvs2 - qv);
            qv += dqv;
            qr -= dqv;
            theta -= lv_over_cp_pi * dqv;
        }
    }

    PointState { theta, qv, qc, qr }
}

/// Rain-drop terminal fall velocity [m s⁻¹] (KW78):
/// `Vt = 36.34 (ρ qr)^0.1346 sqrt(ρ0 / ρ)`.
#[inline(always)]
pub fn terminal_velocity<R: Real>(rho: R, qr: R, rho_surface: R) -> R {
    let qr = qr.max(R::ZERO);
    if qr == R::ZERO {
        return R::ZERO;
    }
    let rho_qr = rho * qr;
    R::from_f64(36.34) * rho_qr.powf(R::from_f64(0.1346)) * (rho_surface / rho).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::P00;
    use crate::eos;

    fn env(p: f64, theta: f64) -> (f64, f64, f64) {
        let pi = eos::exner(p);
        let t = theta * pi;
        let rho = eos::rho_from_p_t(p, t);
        (pi, t, rho)
    }

    #[test]
    fn total_water_is_conserved() {
        let p = 9.0e4;
        let (pi, _t, rho) = env(p, 295.0);
        let s0 = PointState {
            theta: 295.0,
            qv: 0.018,
            qc: 0.002,
            qr: 0.001,
        };
        let s1 = step_point(p, pi, rho, 5.0, s0);
        let before = s0.qv + s0.qc + s0.qr;
        let after = s1.qv + s1.qc + s1.qr;
        assert!(
            (before - after).abs() < 1e-15,
            "water not conserved: {before} vs {after}"
        );
    }

    #[test]
    fn supersaturation_condenses_and_warms() {
        let p = P00;
        let theta = 290.0;
        let (pi, t, rho) = env(p, theta);
        let qvs = moist::saturation_mixing_ratio(p, t);
        let s0 = PointState {
            theta,
            qv: qvs * 1.2,
            qc: 0.0,
            qr: 0.0,
        };
        let s1 = step_point(p, pi, rho, 5.0, s0);
        assert!(s1.qc > 0.0, "no condensation");
        assert!(s1.qv < s0.qv);
        assert!(s1.theta > theta, "no latent heating");
    }

    #[test]
    fn subsaturated_cloud_evaporates_and_cools() {
        let p = P00;
        let theta = 290.0;
        let (pi, t, rho) = env(p, theta);
        let qvs = moist::saturation_mixing_ratio(p, t);
        let s0 = PointState {
            theta,
            qv: qvs * 0.5,
            qc: 5e-4,
            qr: 0.0,
        };
        let s1 = step_point(p, pi, rho, 5.0, s0);
        assert!(s1.qc < s0.qc);
        assert!(s1.qv > s0.qv);
        assert!(s1.theta < theta);
    }

    #[test]
    fn autoconversion_only_above_threshold() {
        let p = 8.5e4;
        let theta = 300.0;
        let (pi, t, rho) = env(p, theta);
        // Saturate exactly so adjustment is a no-op.
        let qvs = moist::saturation_mixing_ratio(p, t);
        let below = PointState {
            theta,
            qv: qvs,
            qc: 0.5e-3,
            qr: 0.0,
        };
        let s = step_point(p, pi, rho, 10.0, below);
        assert_eq!(s.qr, 0.0, "autoconversion fired below threshold");
        let above = PointState {
            theta,
            qv: qvs,
            qc: 3.0e-3,
            qr: 0.0,
        };
        let s = step_point(p, pi, rho, 10.0, above);
        assert!(s.qr > 0.0, "autoconversion did not fire above threshold");
    }

    #[test]
    fn accretion_transfers_cloud_to_rain() {
        let p = 8.5e4;
        let theta = 300.0;
        let (pi, t, rho) = env(p, theta);
        let qvs = moist::saturation_mixing_ratio(p, t);
        let s0 = PointState {
            theta,
            qv: qvs,
            qc: 0.8e-3,
            qr: 2.0e-3,
        };
        let s1 = step_point(p, pi, rho, 10.0, s0);
        assert!(s1.qr > s0.qr);
        assert!(s1.qc < s0.qc);
    }

    #[test]
    fn rain_evaporates_in_dry_air() {
        let p = 9.5e4;
        let theta = 300.0;
        let (pi, t, rho) = env(p, theta);
        let qvs = moist::saturation_mixing_ratio(p, t);
        let s0 = PointState {
            theta,
            qv: qvs * 0.2,
            qc: 0.0,
            qr: 1.5e-3,
        };
        let s1 = step_point(p, pi, rho, 10.0, s0);
        assert!(s1.qr < s0.qr, "rain did not evaporate");
        assert!(s1.qv > s0.qv);
        assert!(s1.theta < theta, "evaporation must cool");
    }

    #[test]
    fn no_negative_water_ever() {
        let p = 9.0e4;
        let (pi, _t, rho) = env(p, 285.0);
        for qv in [0.0, 1e-4, 5e-3, 2e-2] {
            for qc in [0.0, 1e-5, 5e-3] {
                for qr in [0.0, 1e-5, 8e-3] {
                    let s = step_point(
                        p,
                        pi,
                        rho,
                        30.0,
                        PointState {
                            theta: 285.0,
                            qv,
                            qc,
                            qr,
                        },
                    );
                    assert!(
                        s.qv >= 0.0 && s.qc >= 0.0 && s.qr >= 0.0,
                        "negative water from qv={qv} qc={qc} qr={qr}: {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn terminal_velocity_reference_values() {
        // ρ qr = 1 g/m³ at surface density gives ~ 14 m/s per KW78 scaling...
        // check monotonicity and plausible magnitude instead of one point.
        let rho0 = 1.2;
        let v1 = terminal_velocity(rho0, 1.0e-3, rho0);
        assert!(v1 > 3.0 && v1 < 15.0, "Vt={v1}");
        let v2 = terminal_velocity(rho0, 5.0e-3, rho0);
        assert!(v2 > v1, "Vt must grow with qr");
        // lower density aloft => faster fall
        let v3 = terminal_velocity(0.6, 1.0e-3, rho0);
        let v4 = terminal_velocity(1.2, 1.0e-3, rho0);
        assert!(v3 > v4 * 0.9);
        assert_eq!(terminal_velocity(1.0, 0.0, rho0), 0.0);
    }

    #[test]
    fn single_precision_tracks_double() {
        let p = 9.2e4;
        let theta = 292.0;
        let (pi, t, rho) = env(p, theta);
        let qvs = moist::saturation_mixing_ratio(p, t);
        let d = step_point(
            p,
            pi,
            rho,
            5.0,
            PointState {
                theta,
                qv: qvs * 1.1,
                qc: 1e-3,
                qr: 5e-4,
            },
        );
        let s = step_point(
            p as f32,
            pi as f32,
            rho as f32,
            5.0f32,
            PointState {
                theta: theta as f32,
                qv: (qvs * 1.1) as f32,
                qc: 1e-3,
                qr: 5e-4,
            },
        );
        assert!((d.theta - s.theta as f64).abs() < 1e-3);
        assert!((d.qv - s.qv as f64).abs() < 1e-6);
        assert!((d.qc - s.qc as f64).abs() < 1e-6);
        assert!((d.qr - s.qr as f64).abs() < 1e-6);
    }
}
