//! Field diagnostics: slices and summaries for output and for the
//! Fig. 12-style visualization harness.

use crate::grid::Grid;
use crate::state::State;

/// A horizontal (x, y) slice of diagnostic values at one level.
#[derive(Debug, Clone)]
pub struct Slice2D {
    pub nx: usize,
    pub ny: usize,
    pub data: Vec<f64>,
}

impl Slice2D {
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.nx + i]
    }

    pub fn min_max(&self) -> (f64, f64) {
        self.data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Render as a coarse ASCII contour map (for terminal inspection of
    /// the Fig. 12 surrogate fields).
    pub fn ascii(&self, width: usize, height: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let (lo, hi) = self.min_max();
        let span = (hi - lo).max(1e-300);
        let mut out = String::with_capacity((width + 1) * height);
        for row in 0..height {
            let j = row * self.ny / height;
            for col in 0..width {
                let i = col * self.nx / width;
                let t = ((self.at(i, j) - lo) / span * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[t.min(RAMP.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// Specific horizontal wind speed at cell centers for level `k`.
pub fn wind_speed_slice(grid: &Grid, s: &State, k: usize) -> Slice2D {
    let mut data = vec![0.0; grid.nx * grid.ny];
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            let (ii, jj, kk) = (i as isize, j as isize, k as isize);
            let rho = s.rho.at(ii, jj, kk);
            let u = 0.5 * (s.u.at(ii - 1, jj, kk) + s.u.at(ii, jj, kk)) / rho;
            let v = 0.5 * (s.v.at(ii, jj - 1, kk) + s.v.at(ii, jj, kk)) / rho;
            data[j * grid.nx + i] = (u * u + v * v).sqrt();
        }
    }
    Slice2D {
        nx: grid.nx,
        ny: grid.ny,
        data,
    }
}

/// Pressure at cell centers for level `k` \[Pa\].
pub fn pressure_slice(grid: &Grid, s: &State, k: usize) -> Slice2D {
    let mut data = vec![0.0; grid.nx * grid.ny];
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            data[j * grid.nx + i] = s.p.at(i as isize, j as isize, k as isize);
        }
    }
    Slice2D {
        nx: grid.nx,
        ny: grid.ny,
        data,
    }
}

/// Accumulated surface precipitation [kg m⁻²].
pub fn precipitation_slice(grid: &Grid, s: &State) -> Slice2D {
    let mut data = vec![0.0; grid.nx * grid.ny];
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            data[j * grid.nx + i] = s.precip.at(i as isize, j as isize, 0);
        }
    }
    Slice2D {
        nx: grid.nx,
        ny: grid.ny,
        data,
    }
}

/// Specific vertical velocity in an (x, z) cross-section at row `j`.
pub fn w_cross_section(grid: &Grid, s: &State, j: usize) -> Slice2D {
    let mut data = vec![0.0; grid.nx * (grid.nz + 1)];
    for k in 0..=grid.nz {
        for i in 0..grid.nx {
            let (ii, jj, kk) = (i as isize, j as isize, k as isize);
            let kc = k.min(grid.nz - 1).max(1) - 1;
            let rho = 0.5
                * (s.rho.at(ii, jj, kc as isize)
                    + s.rho.at(ii, jj, (kc + 1).min(grid.nz - 1) as isize));
            data[k * grid.nx + i] = s.w.at(ii, jj, kk) / rho;
        }
    }
    Slice2D {
        nx: grid.nx,
        ny: grid.nz + 1,
        data,
    }
}

/// CSV dump of a slice (header `i,j,value`).
pub fn slice_to_csv(s: &Slice2D) -> String {
    let mut out = String::from("i,j,value\n");
    for j in 0..s.ny {
        for i in 0..s.nx {
            out.push_str(&format!("{i},{j},{:.6e}\n", s.at(i, j)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, Terrain};
    use crate::model::Model;

    fn model() -> Model {
        let mut c = ModelConfig::mountain_wave(8, 6, 5);
        c.terrain = Terrain::Flat;
        Model::new(c)
    }

    #[test]
    fn wind_slice_of_uniform_flow() {
        let mut m = model();
        crate::init::mountain_wave_inflow(&mut m, 7.0);
        let s = wind_speed_slice(&m.grid, &m.state, 2);
        for j in 0..6 {
            for i in 0..8 {
                assert!((s.at(i, j) - 7.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pressure_slice_decreases_with_height() {
        let m = model();
        let p0 = pressure_slice(&m.grid, &m.state, 0);
        let p4 = pressure_slice(&m.grid, &m.state, 4);
        assert!(p4.at(3, 3) < p0.at(3, 3));
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let m = model();
        let s = pressure_slice(&m.grid, &m.state, 0);
        let art = s.ascii(16, 8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.len() == 16));
    }

    #[test]
    fn csv_roundtrip_header_and_rows() {
        let m = model();
        let s = precipitation_slice(&m.grid, &m.state);
        let csv = slice_to_csv(&s);
        assert!(csv.starts_with("i,j,value\n"));
        assert_eq!(csv.lines().count(), 1 + 8 * 6);
    }

    #[test]
    fn min_max_detects_range() {
        let s = Slice2D {
            nx: 2,
            ny: 2,
            data: vec![1.0, -3.0, 5.0, 0.0],
        };
        assert_eq!(s.min_max(), (-3.0, 5.0));
    }
}
