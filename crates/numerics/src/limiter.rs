//! Flux limiters and the limited upwind face-value reconstruction used by
//! the ASUCA advection scheme.
//!
//! ASUCA employs the limiter of Koren (1993) to keep the third-order
//! upwind-biased (κ = 1/3) reconstruction monotone and free of spurious
//! oscillations (§II of the paper). The alternatives here are exercised by
//! the `ablation_limiters` bench and by property tests.

use crate::real::Real;
use crate::simd::Lane;

/// Limiter functions φ(r) applied to the consecutive-gradient ratio r.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Limiter {
    /// Koren (1993): φ(r) = max(0, min(2r, (1 + 2r)/3, 2)) — third-order
    /// accurate in smooth regions; the scheme ASUCA uses.
    Koren,
    /// First-order upwind (φ = 0) — maximally diffusive reference.
    Upwind1,
    /// Minmod: φ(r) = max(0, min(1, r)).
    Minmod,
    /// Van Leer: φ(r) = (r + |r|) / (1 + |r|).
    VanLeer,
    /// Superbee: φ(r) = max(0, min(2r, 1), min(r, 2)).
    Superbee,
    /// Unlimited κ = 1/3 scheme (not TVD; for ablation only).
    UnlimitedKappaThird,
}

impl Limiter {
    /// Evaluate φ(r), lane-wise for a lane `L` (a scalar `R` is the
    /// width-1 lane; max/min are element-wise `Real::max`/`min`, so each
    /// lane is bitwise the scalar φ).
    #[inline(always)]
    pub fn phi<R: Real, L: Lane<R>>(self, r: L) -> L {
        let zero = L::splat(R::ZERO);
        let one = L::splat(R::ONE);
        let two = L::splat(R::TWO);
        match self {
            Limiter::Koren => {
                let third = (one + two * r) / L::splat(R::from_f64(3.0));
                zero.max((two * r).min(third).min(two))
            }
            Limiter::Upwind1 => zero,
            Limiter::Minmod => zero.max(one.min(r)),
            Limiter::VanLeer => {
                let ar = r.abs();
                (r + ar) / (one + ar)
            }
            Limiter::Superbee => zero.max((two * r).min(one)).max(r.min(two)),
            Limiter::UnlimitedKappaThird => (one + two * r) / L::splat(R::from_f64(3.0)),
        }
    }

    /// All TVD members (everything except the unlimited scheme).
    pub fn tvd_members() -> [Limiter; 5] {
        [
            Limiter::Koren,
            Limiter::Upwind1,
            Limiter::Minmod,
            Limiter::VanLeer,
            Limiter::Superbee,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Limiter::Koren => "koren",
            Limiter::Upwind1 => "upwind1",
            Limiter::Minmod => "minmod",
            Limiter::VanLeer => "vanleer",
            Limiter::Superbee => "superbee",
            Limiter::UnlimitedKappaThird => "kappa13-unlimited",
        }
    }
}

/// Reconstruct the scalar value on the face between `q0` (upwind-side cell)
/// and `qp1` (downwind-side cell), given the next upwind cell `qm1`, for
/// flow *from* the `q0` side. With the 4-point stencil `(qm1, q0, qp1)`
/// plus the mirrored call this is the paper's "four-point stencil in each
/// direction".
///
/// For `vel >= 0` across face i+1/2 call with
/// `(q[i-1], q[i], q[i+1])`; for `vel < 0` call with `(q[i+2], q[i+1], q[i])`.
/// Lane-wise for a lane `L`. The eps guard on the downwind gradient is
/// a cold select: width 1 branches on it, as a hand-written scalar guard
/// would, rather than route every divisor through a select.
#[inline(always)]
pub fn limited_face_value<R: Real, L: Lane<R>>(lim: Limiter, qm1: L, q0: L, qp1: L) -> L {
    let dq_dn = qp1 - q0; // downwind gradient
    let dq_up = q0 - qm1; // upwind gradient
                          // Ratio r = upwind / downwind gradient; guard the zero-gradient case.
    let zero = L::splat(R::ZERO);
    let eps = L::splat(R::from_f64(1e-30));
    let denom = L::select_lt_cold(
        dq_dn.abs(),
        eps,
        #[inline(always)]
        || L::select_ge(dq_dn, zero, eps, -eps),
        dq_dn,
    );
    let r = dq_up / denom;
    q0 + L::splat(R::HALF) * lim.phi(r) * dq_dn
}

/// Upwind flux across a face with normal velocity `vel` (positive toward
/// increasing index). `qm1, q0, qp1, qp2` are the four stencil cells in
/// increasing-index order around the face between `q0` and `qp1`.
/// Lane-wise for a lane `L`: the upwind choice is a lazy select, so a
/// width-1 lane reconstructs only the upwind side. The sides are forced
/// inline: an outlined side would be called up to six times per point
/// and keep the limiter `match` inside the kernel loop.
#[inline(always)]
pub fn limited_flux<R: Real, L: Lane<R>>(lim: Limiter, vel: L, qm1: L, q0: L, qp1: L, qp2: L) -> L {
    L::select_ge_with(
        vel,
        L::splat(R::ZERO),
        #[inline(always)]
        || vel * limited_face_value(lim, qm1, q0, qp1),
        #[inline(always)]
        || vel * limited_face_value(lim, qp2, qp1, q0),
    )
}

/// [`limited_flux`] at the wide lane `R::Lane`, for callers that name
/// the lane through the precision (the `perfbench` limiter layer).
#[inline(always)]
pub fn limited_flux_lanes<R: Real>(
    lim: Limiter,
    vel: R::Lane,
    qm1: R::Lane,
    q0: R::Lane,
    qp1: R::Lane,
    qp2: R::Lane,
) -> R::Lane {
    limited_flux(lim, vel, qm1, q0, qp1, qp2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn koren_reference_values() {
        // Hand-checked values of the Koren limiter.
        assert_eq!(Limiter::Koren.phi(-1.0f64), 0.0);
        assert_eq!(Limiter::Koren.phi(0.0f64), 0.0);
        assert!((Limiter::Koren.phi(0.25f64) - 0.5).abs() < 1e-15); // 2r branch
        assert!((Limiter::Koren.phi(1.0f64) - 1.0).abs() < 1e-15); // (1+2r)/3 branch
        assert!((Limiter::Koren.phi(10.0f64) - 2.0).abs() < 1e-15); // cap at 2
    }

    #[test]
    fn koren_is_second_order_at_r_one() {
        // φ(1) = 1 is required for second-order accuracy at smooth extrema-free data.
        for lim in [
            Limiter::Koren,
            Limiter::Minmod,
            Limiter::VanLeer,
            Limiter::Superbee,
        ] {
            assert!(
                (lim.phi(1.0f64) - 1.0).abs() < 1e-14,
                "{} violates phi(1)=1",
                lim.name()
            );
        }
    }

    #[test]
    fn tvd_region_bounds() {
        // Sweby's TVD region: 0 <= phi(r) <= min(2r, 2) for r > 0, phi = 0 for r <= 0.
        for lim in Limiter::tvd_members() {
            for n in -400..=400 {
                let r = n as f64 * 0.025;
                let phi = lim.phi(r);
                assert!(phi >= 0.0, "{} negative at r={}", lim.name(), r);
                if r <= 0.0 {
                    assert_eq!(phi, 0.0, "{} nonzero for r<=0", lim.name());
                } else {
                    assert!(
                        phi <= (2.0 * r).min(2.0) + 1e-14,
                        "{} leaves TVD region at r={r}: phi={phi}",
                        lim.name()
                    );
                }
            }
        }
    }

    #[test]
    fn face_value_constant_field_is_exact() {
        let v = limited_face_value(Limiter::Koren, 3.0f64, 3.0, 3.0);
        assert_eq!(v, 3.0);
    }

    #[test]
    fn face_value_linear_field_is_exact_for_koren() {
        // On linear data (r = 1, phi = 1) the face value is the midpoint.
        let v = limited_face_value(Limiter::Koren, 1.0f64, 2.0, 3.0);
        assert!((v - 2.5).abs() < 1e-14);
    }

    #[test]
    fn face_value_bounded_by_neighbors() {
        // Monotone data: reconstruction must stay within [q0, qp1].
        let cases = [(0.0, 1.0, 4.0), (5.0, 2.0, 1.0), (-3.0, -1.0, 0.0)];
        for lim in Limiter::tvd_members() {
            for &(a, b, c) in &cases {
                let v = limited_face_value::<f64, f64>(lim, a, b, c);
                let (lo, hi) = if b < c { (b, c) } else { (c, b) };
                assert!(
                    v >= lo - 1e-14 && v <= hi + 1e-14,
                    "{}: face value {v} outside [{lo},{hi}]",
                    lim.name()
                );
            }
        }
    }

    #[test]
    fn flux_upwinds_on_sign() {
        // Positive velocity uses the left-side stencil, negative the right.
        let f_pos = limited_flux(Limiter::Upwind1, 2.0f64, 0.0, 1.0, 9.0, 9.0);
        assert_eq!(f_pos, 2.0); // vel * q0
        let f_neg = limited_flux(Limiter::Upwind1, -2.0f64, 0.0, 1.0, 9.0, 9.0);
        assert_eq!(f_neg, -18.0); // vel * qp1
    }

    const ALL: [Limiter; 6] = [
        Limiter::Koren,
        Limiter::Upwind1,
        Limiter::Minmod,
        Limiter::VanLeer,
        Limiter::Superbee,
        Limiter::UnlimitedKappaThird,
    ];

    /// Exact bits of a scalar of either precision.
    fn bits<R: Real>(x: R) -> u64 {
        x.to_f64().to_bits()
    }

    /// Sign changes, zero gradients, extrema and values inside the eps
    /// guard.
    fn stencil_data<R: Real>() -> Vec<R> {
        (0..64)
            .map(|n| match n % 7 {
                0 => 0.0,
                1 => 1.0,
                2 => 1.0, // flat pair → zero downwind gradient
                3 => -2.5,
                4 => 4.0e-31, // inside the eps guard
                5 => -1.0,
                _ => 3.25,
            })
            .map(R::from_f64)
            .collect()
    }

    /// φ, the face value and the flux at the wide lane `R::Lane`
    /// reproduce the width-1 results lane by lane, to the last bit.
    fn wide_matches_width_one<R: Real>() {
        let q = stencil_data::<R>();
        let vels = [2.0, -2.0, 0.0, -0.0, 1.0e-12].map(R::from_f64);
        let n = <R::Lane as Lane<R>>::N;
        for lim in ALL {
            for &vel in &vels {
                for f in (0..q.len() - 3 - n).step_by(n) {
                    let ld = |o: usize| R::Lane::load(&q[f + o..]);
                    let flux = limited_flux(lim, R::Lane::splat(vel), ld(0), ld(1), ld(2), ld(3));
                    let face = limited_face_value(lim, ld(0), ld(1), ld(2));
                    let phi = lim.phi(ld(3) - ld(1));
                    for l in 0..n {
                        let (qm1, q0, qp1, qp2) =
                            (q[f + l], q[f + l + 1], q[f + l + 2], q[f + l + 3]);
                        let s = limited_flux(lim, vel, qm1, q0, qp1, qp2);
                        let what = format!("{} lane {l} at face {f} vel {vel}", lim.name());
                        assert_eq!(bits(flux.extract(l)), bits(s), "flux: {what}");
                        let s = limited_face_value(lim, qm1, q0, qp1);
                        assert_eq!(bits(face.extract(l)), bits(s), "face: {what}");
                        assert_eq!(bits(phi.extract(l)), bits(lim.phi(qp2 - q0)), "phi: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_flux_bitwise_matches_scalar_flux() {
        wide_matches_width_one::<f64>();
        wide_matches_width_one::<f32>();
    }

    #[test]
    fn single_precision_agrees_with_double() {
        for lim in Limiter::tvd_members() {
            for n in 0..100 {
                let r = n as f64 * 0.07 - 2.0;
                let d = lim.phi(r);
                let s = lim.phi(r as f32) as f64;
                assert!(
                    (d - s).abs() < 1e-6,
                    "{} differs across precision",
                    lim.name()
                );
            }
        }
    }
}
