//! Halo-padded 3-D host fields in `kij` order.
//!
//! Grid convention (Arakawa C, Lorenz levels, as in ASUCA):
//!
//! * Cell centers carry scalars (ρ, ρθm, p, q_α) and live at logical
//!   indices `(i, j, k)` with `0 <= i < nx`, `0 <= j < ny`, `0 <= k < nz`.
//! * `u`-momenta live at x faces: index `i` denotes the face `i+1/2`.
//! * `v`-momenta live at y faces: index `j` denotes the face `j+1/2`.
//! * `w`-momenta live at z faces: a field built with `nz+1` levels where
//!   index `k` denotes the face between centers `k-1` and `k` (so `k=0` is
//!   the ground and `k=nz` the model top).
//!
//! The halo (ghost-cell) width is chosen by the caller; the Koren-limited
//! advection stencil needs 2. Halo cells are addressed with negative /
//! past-the-end logical indices.
//!
//! Storage is the original Fortran/CPU `kij` order (§IV-A.1): z fastest,
//! then x, then y, so a vertical column is contiguous. The GPU's
//! x-fastest order is applied at upload, not carried by the field.

use crate::real::Real;

/// A 3-D array of `R` with `h`-wide halos on every face, stored z
/// fastest, then x, then y.
#[derive(Debug, Clone)]
pub struct Field3<R> {
    data: Vec<R>,
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
    /// x stride: one padded column, `nz + 2·halo`.
    sx: usize,
    /// y stride: one padded x-z plane, `(nx + 2·halo)·(nz + 2·halo)`.
    sy: usize,
}

impl<R: Real> Field3<R> {
    /// Zero-filled field of interior size `(nx, ny, nz)` with `halo` ghost
    /// cells on every face.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "field dimensions must be positive"
        );
        let (px, py, pz) = (nx + 2 * halo, ny + 2 * halo, nz + 2 * halo);
        Field3 {
            data: vec![R::ZERO; px * py * pz],
            nx,
            ny,
            nz,
            halo,
            sx: pz,
            sy: px * pz,
        }
    }

    /// Field initialized from `f(i, j, k)` over the interior (halos zero).
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        halo: usize,
        mut f: impl FnMut(usize, usize, usize) -> R,
    ) -> Self {
        let mut field = Self::new(nx, ny, nz, halo);
        for j in 0..ny {
            for i in 0..nx {
                for k in 0..nz {
                    let v = f(i, j, k);
                    field.set(i as isize, j as isize, k as isize, v);
                }
            }
        }
        field
    }

    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }
    #[inline(always)]
    pub fn nz(&self) -> usize {
        self.nz
    }
    #[inline(always)]
    pub fn halo(&self) -> usize {
        self.halo
    }
    /// Number of interior points.
    #[inline]
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Linear offset of logical index `(i, j, k)`; halos addressed with
    /// negative / past-the-end indices.
    #[inline(always)]
    fn offset(&self, i: isize, j: isize, k: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(
            i >= -h
                && i < self.nx as isize + h
                && j >= -h
                && j < self.ny as isize + h
                && k >= -h
                && k < self.nz as isize + h,
            "index ({i},{j},{k}) out of halo-padded range for {}x{}x{} halo {}",
            self.nx,
            self.ny,
            self.nz,
            self.halo
        );
        (i + h) as usize * self.sx + (j + h) as usize * self.sy + (k + h) as usize
    }

    #[inline(always)]
    pub fn at(&self, i: isize, j: isize, k: isize) -> R {
        self.data[self.offset(i, j, k)]
    }

    #[inline(always)]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: R) {
        let off = self.offset(i, j, k);
        self.data[off] = v;
    }

    #[inline(always)]
    pub fn add_at(&mut self, i: isize, j: isize, k: isize, v: R) {
        let off = self.offset(i, j, k);
        self.data[off] += v;
    }

    /// Raw backing slice (padded, `kij` order).
    #[inline]
    pub fn raw(&self) -> &[R] {
        &self.data
    }

    /// Fill the whole allocation (interior + halos) with `v`.
    pub fn fill(&mut self, v: R) {
        self.data.fill(v);
    }

    /// Copy interior *and* halo cells from `src` (sizes, halos must match).
    pub fn copy_padded_from(&mut self, src: &Field3<R>) {
        assert_eq!(
            (self.nx, self.ny, self.nz, self.halo),
            (src.nx, src.ny, src.nz, src.halo)
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Exchange lateral halos periodically in x and y (single-domain case).
    /// The vertical halo is *not* touched; vertical boundaries are physical
    /// and handled by the model's boundary operators.
    pub fn fill_halo_periodic_xy(&mut self) {
        let h = self.halo as isize;
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        // x halos (including y interior only; corners fixed by the y pass).
        for j in 0..ny {
            for g in 1..=h {
                for k in -h..self.nz as isize + h {
                    let left = self.at(nx - g, j, k);
                    self.set(-g, j, k, left);
                    let right = self.at(g - 1, j, k);
                    self.set(nx + g - 1, j, k, right);
                }
            }
        }
        // y halos over the full padded x range => corners become periodic too.
        for g in 1..=h {
            for i in -h..nx + h {
                for k in -h..self.nz as isize + h {
                    let south = self.at(i, ny - g, k);
                    self.set(i, -g, k, south);
                    let north = self.at(i, g - 1, k);
                    self.set(i, ny + g - 1, k, north);
                }
            }
        }
    }

    /// Extrapolate the vertical halo with zero-gradient (used beneath the
    /// surface / above the lid before advection sweeps).
    pub fn fill_halo_zero_gradient_z(&mut self) {
        let h = self.halo as isize;
        let nz = self.nz as isize;
        for j in -h..self.ny as isize + h {
            for i in -h..self.nx as isize + h {
                for g in 1..=h {
                    let bottom = self.at(i, j, 0);
                    self.set(i, j, -g, bottom);
                    let top = self.at(i, j, nz - 1);
                    self.set(i, j, nz + g - 1, top);
                }
            }
        }
    }

    /// Maximum absolute interior value.
    pub fn max_abs(&self) -> R {
        let mut m = R::ZERO;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                for k in 0..self.nz as isize {
                    m = m.max(self.at(i, j, k).abs());
                }
            }
        }
        m
    }

    /// Interior sum in `f64` (compensated) — used for conservation checks.
    pub fn sum_interior(&self) -> f64 {
        let mut sum = 0.0f64;
        let mut c = 0.0f64;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                for k in 0..self.nz as isize {
                    let y = self.at(i, j, k).to_f64() - c;
                    let t = sum + y;
                    c = (t - sum) - y;
                    sum = t;
                }
            }
        }
        sum
    }

    /// Max-norm of the interior difference against `other` (sizes must match).
    pub fn max_diff(&self, other: &Field3<R>) -> f64 {
        assert_eq!((self.nx, self.ny, self.nz), (other.nx, other.ny, other.nz));
        let mut m = 0.0f64;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                for k in 0..self.nz as isize {
                    let d = (self.at(i, j, k).to_f64() - other.at(i, j, k).to_f64()).abs();
                    if d > m {
                        m = d;
                    }
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_set_get() {
        let mut f = Field3::<f64>::new(4, 5, 6, 2);
        let mut v = 0.0;
        for j in -2..7isize {
            for i in -2..6isize {
                for k in -2..8isize {
                    f.set(i, j, k, v);
                    v += 1.0;
                }
            }
        }
        let mut v = 0.0;
        for j in -2..7isize {
            for i in -2..6isize {
                for k in -2..8isize {
                    assert_eq!(f.at(i, j, k), v);
                    v += 1.0;
                }
            }
        }
    }

    #[test]
    fn kij_strides_are_z_fastest() {
        // Padded box 4 x 5 x 6: offset = k + 6 * (i + 4 * j).
        let f = Field3::<f64>::new(2, 3, 4, 1);
        assert_eq!(f.offset(-1, -1, -1), 0);
        assert_eq!(f.offset(-1, -1, 0), 1);
        assert_eq!(f.offset(0, -1, -1), 6);
        assert_eq!(f.offset(-1, 0, -1), 24);
        assert_eq!(f.offset(2, 3, 4), 119);
    }

    #[test]
    fn offsets_cover_padded_box_without_overlap() {
        // Every cell of the padded box maps to a unique offset in
        // [0, px*py*pz).
        let f = Field3::<f64>::new(3, 4, 5, 2);
        let mut seen = vec![false; f.raw().len()];
        for j in -2..6isize {
            for i in -2..5isize {
                for k in -2..7isize {
                    let off = f.offset(i, j, k);
                    assert!(!seen[off], "collision at {i},{j},{k}");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn from_fn_fills_interior() {
        let f = Field3::<f32>::from_fn(3, 3, 3, 1, |i, j, k| (i + 10 * j + 100 * k) as f32);
        assert_eq!(f.at(2, 1, 0), 12.0);
        assert_eq!(f.at(0, 0, 2), 200.0);
        // halo untouched
        assert_eq!(f.at(-1, 0, 0), 0.0);
    }

    #[test]
    fn periodic_halo_wraps_x_and_y() {
        let mut f = Field3::<f64>::from_fn(4, 3, 2, 2, |i, j, k| (i * 100 + j * 10 + k) as f64);
        f.fill_halo_periodic_xy();
        assert_eq!(f.at(-1, 0, 0), f.at(3, 0, 0));
        assert_eq!(f.at(-2, 1, 1), f.at(2, 1, 1));
        assert_eq!(f.at(4, 2, 0), f.at(0, 2, 0));
        assert_eq!(f.at(5, 2, 1), f.at(1, 2, 1));
        assert_eq!(f.at(0, -1, 0), f.at(0, 2, 0));
        assert_eq!(f.at(0, 3, 1), f.at(0, 0, 1));
        // corner wraps both ways
        assert_eq!(f.at(-1, -1, 0), f.at(3, 2, 0));
        assert_eq!(f.at(4, 3, 1), f.at(0, 0, 1));
    }

    #[test]
    fn zero_gradient_z_copies_boundary_levels() {
        let mut f = Field3::<f64>::from_fn(2, 2, 4, 1, |_, _, k| k as f64 + 1.0);
        f.fill_halo_zero_gradient_z();
        assert_eq!(f.at(0, 0, -1), 1.0);
        assert_eq!(f.at(1, 1, 4), 4.0);
    }

    #[test]
    fn sum_and_max_abs() {
        let f = Field3::<f64>::from_fn(3, 3, 3, 1, |i, _, _| if i == 0 { -2.0 } else { 1.0 });
        assert_eq!(f.max_abs(), 2.0);
        // 9 cells at -2, 18 cells at 1
        assert_eq!(f.sum_interior(), -18.0 + 18.0);
    }

    #[test]
    #[should_panic(expected = "out of halo-padded range")]
    #[cfg(debug_assertions)]
    fn out_of_range_panics_in_debug() {
        let f = Field3::<f64>::new(2, 2, 2, 1);
        let _ = f.at(3, 0, 0);
    }
}
