//! Prognostic model state.

use crate::grid::Grid;
use numerics::Field3;

/// The prognostic variables, all G-weighted ("starred") densities on the
/// Arakawa C grid (see crate docs). Index conventions:
///
/// * `rho`, `th`, `q[*]`, `p` at cell centers `(i, j, k)`, k = 0..nz-1.
/// * `u` at x faces: index i denotes face i+1/2.
/// * `v` at y faces: index j denotes face j+1/2.
/// * `w` at z faces: k = 0..nz (k=0 surface, k=nz lid).
///
/// `p` is the diagnostic full pressure (updated from the EOS).
#[derive(Debug, Clone)]
pub struct State {
    /// ρ* = Gρ.
    pub rho: Field3<f64>,
    /// U = Gρu at u points.
    pub u: Field3<f64>,
    /// V = Gρv at v points.
    pub v: Field3<f64>,
    /// W = Gρw at w levels (nz+1).
    pub w: Field3<f64>,
    /// Θ = Gρθm.
    pub th: Field3<f64>,
    /// Qα = Gρqα per tracer (0: qv, 1: qc, 2: qr, 3..: ice-phase
    /// placeholders).
    pub q: Vec<Field3<f64>>,
    /// Diagnostic pressure \[Pa\].
    pub p: Field3<f64>,
    /// Accumulated surface precipitation [kg m⁻²] (diagnostic).
    pub precip: Field3<f64>,
}

impl State {
    pub fn zeros(grid: &Grid, n_tracers: usize) -> Self {
        State {
            rho: grid.center_field(),
            u: grid.center_field(),
            v: grid.center_field(),
            w: grid.w_field(),
            th: grid.center_field(),
            q: (0..n_tracers).map(|_| grid.center_field()).collect(),
            p: grid.center_field(),
            precip: Field3::new(
                grid.nx,
                grid.ny,
                1,
                crate::grid::HALO,
                numerics::Layout::KIJ,
            ),
        }
    }

    pub fn n_tracers(&self) -> usize {
        self.q.len()
    }

    /// Copy all prognostic fields (not `p`/`precip`) from `src`.
    pub fn copy_prognostics_from(&mut self, src: &State) {
        self.rho.copy_padded_from(&src.rho);
        self.u.copy_padded_from(&src.u);
        self.v.copy_padded_from(&src.v);
        self.w.copy_padded_from(&src.w);
        self.th.copy_padded_from(&src.th);
        for (d, s) in self.q.iter_mut().zip(src.q.iter()) {
            d.copy_padded_from(s);
        }
    }

    /// Exchange lateral halos of every prognostic field periodically and
    /// extend vertical halos with zero gradient (single-domain BCs; the
    /// multi-GPU version replaces the lateral part with MPI exchange).
    pub fn fill_halos_periodic(&mut self) {
        for f in [
            &mut self.rho,
            &mut self.u,
            &mut self.v,
            &mut self.th,
            &mut self.p,
        ] {
            f.fill_halo_periodic_xy();
            f.fill_halo_zero_gradient_z();
        }
        self.w.fill_halo_periodic_xy();
        self.w.fill_halo_zero_gradient_z();
        for q in &mut self.q {
            q.fill_halo_periodic_xy();
            q.fill_halo_zero_gradient_z();
        }
    }

    /// Largest |q| over tracers (sanity diagnostics).
    pub fn max_abs_tracer(&self) -> f64 {
        self.q.iter().map(|q| q.max_abs()).fold(0.0, f64::max)
    }

    /// Order-stable FNV-1a fingerprint of every interior prognostic
    /// value's bit pattern. Two states hash equal iff they are bitwise
    /// identical on the interior — the equality the chaos tests assert
    /// between a recovered run and its fault-free twin.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut field = |f: &Field3<f64>| {
            for j in 0..f.ny() as isize {
                for i in 0..f.nx() as isize {
                    for k in 0..f.nz() as isize {
                        h = fnv1a_u64(h, f.at(i, j, k).to_bits());
                    }
                }
            }
        };
        field(&self.rho);
        field(&self.u);
        field(&self.v);
        field(&self.w);
        field(&self.th);
        for q in &self.q {
            field(q);
        }
        field(&self.p);
        field(&self.precip);
        h
    }

    /// Check every field for non-finite values; returns the name of the
    /// first offender.
    pub fn find_non_finite(&self) -> Option<&'static str> {
        let check = |f: &Field3<f64>| f.raw().iter().any(|v| !v.is_finite());
        if check(&self.rho) {
            return Some("rho");
        }
        if check(&self.u) {
            return Some("u");
        }
        if check(&self.v) {
            return Some("v");
        }
        if check(&self.w) {
            return Some("w");
        }
        if check(&self.th) {
            return Some("th");
        }
        if self.q.iter().any(&check) {
            return Some("q");
        }
        if check(&self.p) {
            return Some("p");
        }
        None
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Fold one little-endian `u64` into a running FNV-1a hash.
pub fn fnv1a_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a sequence of `u64`s starting from the standard offset
/// basis (shared fingerprint helper for tests and harnesses).
pub fn fnv1a(xs: impl IntoIterator<Item = u64>) -> u64 {
    xs.into_iter().fold(FNV_OFFSET, fnv1a_u64)
}

/// Slow-mode tendencies (the F terms of the paper's Eqs. (1)–(4))
/// produced once per RK3 stage and held fixed over the acoustic loop.
#[derive(Debug, Clone)]
pub struct Tendencies {
    pub fu: Field3<f64>,
    pub fv: Field3<f64>,
    pub fw: Field3<f64>,
    pub frho: Field3<f64>,
    pub fth: Field3<f64>,
    pub fq: Vec<Field3<f64>>,
}

impl Tendencies {
    pub fn zeros(grid: &Grid, n_tracers: usize) -> Self {
        Tendencies {
            fu: grid.center_field(),
            fv: grid.center_field(),
            fw: grid.w_field(),
            frho: grid.center_field(),
            fth: grid.center_field(),
            fq: (0..n_tracers).map(|_| grid.center_field()).collect(),
        }
    }

    pub fn clear(&mut self) {
        self.fu.fill(0.0);
        self.fv.fill(0.0);
        self.fw.fill(0.0);
        self.frho.fill(0.0);
        self.fth.fill(0.0);
        for f in &mut self.fq {
            f.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::grid::Grid;

    fn grid() -> Grid {
        let mut c = ModelConfig::mountain_wave(8, 6, 5);
        c.terrain = crate::config::Terrain::Flat;
        Grid::build(&c)
    }

    #[test]
    fn shapes_follow_staggering() {
        let g = grid();
        let s = State::zeros(&g, 3);
        assert_eq!(s.rho.nz(), 5);
        assert_eq!(s.w.nz(), 6);
        assert_eq!(s.q.len(), 3);
        assert_eq!(s.precip.nz(), 1);
    }

    #[test]
    fn copy_prognostics_roundtrip() {
        let g = grid();
        let mut a = State::zeros(&g, 3);
        let mut b = State::zeros(&g, 3);
        a.th.set(2, 3, 1, 7.5);
        a.w.set(1, 1, 5, -2.0);
        a.q[2].set(0, 0, 0, 1e-3);
        b.copy_prognostics_from(&a);
        assert_eq!(b.th.at(2, 3, 1), 7.5);
        assert_eq!(b.w.at(1, 1, 5), -2.0);
        assert_eq!(b.q[2].at(0, 0, 0), 1e-3);
    }

    #[test]
    fn halo_fill_wraps_all_fields() {
        let g = grid();
        let mut s = State::zeros(&g, 3);
        s.u.set(7, 0, 0, 3.0);
        s.q[0].set(0, 5, 2, 9.0);
        s.fill_halos_periodic();
        assert_eq!(s.u.at(-1, 0, 0), 3.0);
        assert_eq!(s.q[0].at(0, -1, 2), 9.0);
        // z zero-gradient
        s.th.set(1, 1, 0, 4.0);
        s.fill_halos_periodic();
        assert_eq!(s.th.at(1, 1, -1), 4.0);
    }

    #[test]
    fn non_finite_detection() {
        let g = grid();
        let mut s = State::zeros(&g, 3);
        assert_eq!(s.find_non_finite(), None);
        s.w.set(0, 0, 1, f64::NAN);
        assert_eq!(s.find_non_finite(), Some("w"));
    }
}
