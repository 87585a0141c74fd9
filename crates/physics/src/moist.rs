//! Moist thermodynamics: saturation vapour pressure and mixing ratio.

use crate::consts::{EPS_RD_RV, T0C};
use numerics::Real;

/// Saturation vapour pressure over liquid water (Tetens, 1930) \[Pa\].
///
/// `es(T) = 610.78 exp(17.27 (T − 273.15) / (T − 35.85))`
#[inline(always)]
pub fn saturation_vapor_pressure<R: Real>(t: R) -> R {
    let e0 = R::from_f64(610.78);
    let a = R::from_f64(17.27);
    let t0 = R::from_f64(T0C);
    let b = R::from_f64(35.85);
    e0 * (a * (t - t0) / (t - b)).exp()
}

/// Saturation mixing ratio qvs = ε es / (p − es) [kg/kg].
/// Clamped to keep the denominator positive in extreme (low-p) inputs.
#[inline(always)]
pub fn saturation_mixing_ratio<R: Real>(p: R, t: R) -> R {
    let es = saturation_vapor_pressure(t);
    let eps = R::from_f64(EPS_RD_RV);
    let denom = (p - es).max(p * R::from_f64(1e-3));
    eps * es / denom
}

/// d(qvs)/dT at constant pressure, via the Clausius–Clapeyron-style
/// derivative of the Tetens formula; used by the saturation-adjustment
/// Newton step.
#[inline(always)]
pub fn dqvs_dt<R: Real>(p: R, t: R) -> R {
    let a = R::from_f64(17.27);
    let t0 = R::from_f64(T0C);
    let b = R::from_f64(35.85);
    let qvs = saturation_mixing_ratio(p, t);
    let es = saturation_vapor_pressure(t);
    // d ln es / dT = a (t0 - b) / (T - b)^2; the (p - es) denominator of
    // qvs also varies with es, contributing the p/(p - es) factor.
    let dln = a * (t0 - b) / ((t - b) * (t - b));
    let denom = (p - es).max(p * R::from_f64(1e-3));
    qvs * dln * (p / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn es_at_freezing_is_611pa() {
        let es = saturation_vapor_pressure(273.15f64);
        assert!((es - 610.78).abs() < 0.01);
    }

    #[test]
    fn es_at_20c_about_2340pa() {
        let es = saturation_vapor_pressure(293.15f64);
        assert!(es > 2300.0 && es < 2400.0, "es={es}");
    }

    #[test]
    fn es_monotone_in_t() {
        let mut prev = 0.0;
        for i in 0..60 {
            let t = 233.15 + i as f64 * 2.0;
            let es = saturation_vapor_pressure(t);
            assert!(es > prev);
            prev = es;
        }
    }

    #[test]
    fn qvs_sea_level_20c_about_15gkg() {
        let q = saturation_mixing_ratio(101325.0f64, 293.15);
        assert!(q > 0.013 && q < 0.016, "qvs={q}");
    }

    #[test]
    fn qvs_increases_as_pressure_drops() {
        let q_low = saturation_mixing_ratio(7.0e4f64, 283.15);
        let q_high = saturation_mixing_ratio(1.0e5f64, 283.15);
        assert!(q_low > q_high);
    }

    #[test]
    fn dqvs_dt_matches_finite_difference() {
        let p = 9.0e4;
        for &t in &[263.15f64, 283.15, 303.15] {
            let h = 1e-3;
            let fd =
                (saturation_mixing_ratio(p, t + h) - saturation_mixing_ratio(p, t - h)) / (2.0 * h);
            let an = dqvs_dt(p, t);
            assert!((fd - an).abs() / fd < 1e-4, "t={t}: {an} vs {fd}");
        }
    }

    #[test]
    fn single_precision_close_to_double() {
        for i in 0..20 {
            let t = 253.15 + i as f64 * 3.0;
            let d = saturation_mixing_ratio(9.5e4f64, t);
            let s = saturation_mixing_ratio(9.5e4f32, t as f32) as f64;
            assert!((d - s).abs() / d < 1e-4);
        }
    }
}
