//! Property-style tests of the core numerical invariants, driven by a
//! deterministic xorshift sampler (the workspace builds offline, so no
//! proptest; each case sweeps a seeded sample set instead).

use asuca_gpu::geom::{relayout_from_xzy, relayout_to_xzy};
use asuca_gpu::view::Dims;
use dycore::config::{ModelConfig, Terrain};
use dycore::grid::Grid;
use dycore::ops;
use dycore::state::State;
use numerics::limiter::{limited_face_value, limited_flux, Limiter};
use numerics::tridiag;
use numerics::Field3;

/// Deterministic xorshift64* sampler in [-0.5, 0.5).
struct Sampler {
    state: u64,
}

impl Sampler {
    fn new(seed: u64) -> Self {
        Sampler {
            state: seed.wrapping_mul(0x9E3779B97F4A7C15).max(1),
        }
    }

    fn next(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    /// Uniform sample in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() + 0.5) * (hi - lo)
    }
}

/// TVD limiters never create new extrema: the reconstructed face value
/// lies within the hull of the adjacent cells.
#[test]
fn face_value_within_hull() {
    let mut rng = Sampler::new(1);
    for _ in 0..256 {
        let qm1 = rng.range(-1e3, 1e3);
        let q0 = rng.range(-1e3, 1e3);
        let qp1 = rng.range(-1e3, 1e3);
        for lim in Limiter::tvd_members() {
            let v = limited_face_value(lim, qm1, q0, qp1);
            let (lo, hi) = if q0 < qp1 { (q0, qp1) } else { (qp1, q0) };
            // Reconstruction is bounded by the face-adjacent cells (with
            // a tiny floating-point allowance).
            let slack = 1e-12 * (1.0 + lo.abs().max(hi.abs()));
            assert!(
                v >= lo - slack && v <= hi + slack,
                "{}: {v} outside [{lo},{hi}] (qm1={qm1})",
                lim.name()
            );
        }
    }
}

/// Upwind consistency: with zero velocity the flux vanishes; flux is
/// linear in the velocity sign-region.
#[test]
fn flux_zero_velocity() {
    let mut rng = Sampler::new(2);
    for _ in 0..256 {
        let a = rng.range(-10.0, 10.0);
        let b = rng.range(-10.0, 10.0);
        let c = rng.range(-10.0, 10.0);
        let d = rng.range(-10.0, 10.0);
        assert_eq!(limited_flux(Limiter::Koren, 0.0, a, b, c, d), 0.0);
        let f1 = limited_flux(Limiter::Koren, 2.0, a, b, c, d);
        let f2 = limited_flux(Limiter::Koren, 4.0, a, b, c, d);
        assert!((f2 - 2.0 * f1).abs() < 1e-9 * (1.0 + f1.abs()));
    }
}

/// The Thomas solver solves: residual of a random diagonally dominant
/// system is at round-off.
#[test]
fn tridiagonal_residual() {
    for seed in 0..64u64 {
        let n = 32;
        let mut rng = Sampler::new(seed.wrapping_add(3));
        let a: Vec<f64> = (0..n).map(|_| rng.next()).collect();
        let c: Vec<f64> = (0..n).map(|_| rng.next()).collect();
        let b: Vec<f64> = (0..n).map(|k| 2.5 + a[k].abs() + c[k].abs()).collect();
        let rhs: Vec<f64> = (0..n).map(|_| rng.next() * 5.0).collect();
        let mut d = rhs.clone();
        let mut scr = vec![0.0; n];
        tridiag::solve_in_place(&a, &b, &c, &mut d, &mut scr);
        let y = tridiag::matvec(&a, &b, &c, &d);
        for k in 0..n {
            assert!((y[k] - rhs[k]).abs() < 1e-9, "seed {seed} row {k}");
        }
    }
}

/// Flux-form advection conserves the advected quantity over a periodic
/// domain for arbitrary (periodic) velocity and scalar fields.
#[test]
fn advection_conserves() {
    for seed in 0..24u64 {
        let mut c = ModelConfig::mountain_wave(8, 6, 5);
        c.terrain = Terrain::Flat;
        let g = Grid::build(&c);
        let mut s = State::zeros(&g, 3);
        s.rho.fill(1.0);
        let mut rng = Sampler::new(seed.wrapping_mul(0x2545F4914F6CDD1D).max(1));
        for j in 0..6isize {
            for i in 0..8isize {
                for k in 0..5isize {
                    s.u.set(i, j, k, rng.next() * 3.0);
                    s.v.set(i, j, k, rng.next() * 3.0);
                    s.w.set(i, j, k, rng.next());
                }
            }
        }
        s.fill_halos_periodic();
        let mut spec = g.center_field();
        for j in 0..6isize {
            for i in 0..8isize {
                for k in 0..5isize {
                    spec.set(i, j, k, 1.0 + rng.next().abs());
                }
            }
        }
        spec.fill_halo_periodic_xy();
        spec.fill_halo_zero_gradient_z();
        let mut mw = g.w_field();
        ops::mass_flux_w(&g, &s, &mut mw);
        mw.fill_halo_periodic_xy();
        let mut out = g.center_field();
        let mut fa = g.center_field();
        let mut fw = g.w_field();
        ops::advect_scalar(
            &g,
            Limiter::Koren,
            &spec,
            &s.u,
            &s.v,
            &mw,
            &mut out,
            &mut fa,
            &mut fw,
        );
        let total = out.sum_interior();
        let scale = out.max_abs().max(1e-30) * out.interior_len() as f64;
        assert!(
            total.abs() < 1e-10 * scale,
            "seed {seed} not conservative: {total:e} vs scale {scale:e}"
        );
    }
}

/// The upload transform is a bijection on the padded box: host KIJ ->
/// device XZY -> host KIJ returns every cell, halos included, bitwise in
/// `f64` and rounded once to `f32` in single precision.
#[test]
fn layout_roundtrip() {
    for seed in 0..32u64 {
        let mut rng = Sampler::new(seed.wrapping_add(7));
        let mut draw = |lo: usize, hi: usize| lo + (rng.range(0.0, (hi - lo + 1) as f64) as usize);
        // nz >= 2: a one-level `Dims` is a 2-D plane, not a 3-D box.
        let (nx, ny, nz, halo) = (draw(1, 7), draw(1, 6), draw(2, 6), draw(0, 3));
        let dims = Dims::center(nx, ny, nz, halo);
        let mut a = Field3::<f64>::new(nx, ny, nz, halo);
        let h = halo as isize;
        for j in -h..(ny + halo) as isize {
            for i in -h..(nx + halo) as isize {
                for k in -h..(nz + halo) as isize {
                    a.set(i, j, k, rng.range(-1e3, 1e3));
                }
            }
        }
        let what = format!("seed {seed} {nx}x{ny}x{nz} halo {halo}");

        let mut back = Field3::<f64>::new(nx, ny, nz, halo);
        relayout_from_xzy(&relayout_to_xzy::<f64>(&a, dims), dims, &mut back);
        for (n, (x, y)) in a.raw().iter().zip(back.raw()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "f64 element {n}: {what}");
        }

        let mut back = Field3::<f64>::new(nx, ny, nz, halo);
        relayout_from_xzy(&relayout_to_xzy::<f32>(&a, dims), dims, &mut back);
        for (n, (x, y)) in a.raw().iter().zip(back.raw()).enumerate() {
            let rounded = *x as f32 as f64;
            assert_eq!(rounded.to_bits(), y.to_bits(), "f32 element {n}: {what}");
        }
    }
}

/// Kessler microphysics conserves total water and never produces
/// negative species for any physically plausible input.
#[test]
fn kessler_invariants() {
    use physics::kessler::{step_point, PointState};
    let mut rng = Sampler::new(11);
    for _ in 0..256 {
        let theta = rng.range(250.0, 320.0);
        let qv = rng.range(0.0, 0.03);
        let qc = rng.range(0.0, 0.01);
        let qr = rng.range(0.0, 0.01);
        let p = rng.range(3.0e4, 1.05e5);
        let pi = physics::eos::exner(p);
        let rho = physics::eos::rho_from_p_t(p, theta * pi);
        let out = step_point(p, pi, rho, 10.0, PointState { theta, qv, qc, qr });
        assert!(out.qv >= 0.0 && out.qc >= 0.0 && out.qr >= 0.0);
        let before = qv + qc + qr;
        let after = out.qv + out.qc + out.qr;
        assert!((before - after).abs() <= 1e-14 * (1.0 + before));
        assert!(out.theta.is_finite() && out.theta > 100.0 && out.theta < 500.0);
    }
}

/// EOS roundtrip holds across the atmospheric pressure range.
#[test]
fn eos_roundtrip() {
    let mut rng = Sampler::new(13);
    for _ in 0..256 {
        let p = rng.range(1.0e4, 1.1e5);
        let rt = physics::eos::rho_theta_from_pressure(p);
        let back = physics::eos::pressure_from_rho_theta(rt);
        assert!((back - p).abs() / p < 1e-12);
    }
}
