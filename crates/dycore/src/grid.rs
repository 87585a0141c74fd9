//! Terrain-following grid, metric terms, and hydrostatic base-state
//! fields.
//!
//! Vertical coordinate (Gal-Chen & Somerville): with terrain height
//! `zs(x, y)` and model top `H`,
//!
//! ```text
//! z(x, y, ζ) = ζ G(x, y) + zs(x, y),      G = ∂z/∂ζ = 1 − zs/H
//! ```
//!
//! so `G` (the inverse of the paper's Jacobian J) is constant in each
//! column and the metric term `(∂z/∂x)|ζ = (1 − ζ/H) ∂zs/∂x` decays
//! linearly to zero at the lid.

use crate::config::{ModelConfig, Terrain};
use numerics::Field3;
use physics::base::BaseState;
use physics::consts::GRAV;

/// Halo width used throughout the model (the Koren stencil needs 2).
pub const HALO: usize = 2;

/// A halo-padded 2-D horizontal array (terrain and metric coefficients).
#[derive(Debug, Clone)]
pub struct Pad2 {
    data: Vec<f64>,
    nx: usize,
    ny: usize,
}

impl Pad2 {
    pub fn new(nx: usize, ny: usize) -> Self {
        Pad2 {
            data: vec![0.0; (nx + 2 * HALO) * (ny + 2 * HALO)],
            nx,
            ny,
        }
    }

    #[inline(always)]
    pub fn at(&self, i: isize, j: isize) -> f64 {
        let h = HALO as isize;
        debug_assert!(i >= -h && i < self.nx as isize + h && j >= -h && j < self.ny as isize + h);
        self.data[((j + h) as usize) * (self.nx + 2 * HALO) + (i + h) as usize]
    }

    #[inline(always)]
    pub fn set(&mut self, i: isize, j: isize, v: f64) {
        let h = HALO as isize;
        let idx = ((j + h) as usize) * (self.nx + 2 * HALO) + (i + h) as usize;
        self.data[idx] = v;
    }

    /// Periodic halo exchange in both directions.
    pub fn fill_halo_periodic(&mut self) {
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        let h = HALO as isize;
        for j in 0..ny {
            for g in 1..=h {
                let w = self.at(nx - g, j);
                self.set(-g, j, w);
                let e = self.at(g - 1, j);
                self.set(nx + g - 1, j, e);
            }
        }
        for g in 1..=h {
            for i in -h..nx + h {
                let s = self.at(i, ny - g);
                self.set(i, -g, s);
                let n = self.at(i, g - 1);
                self.set(i, ny + g - 1, n);
            }
        }
    }
}

/// The model grid: sizes, spacings, terrain and metric coefficients.
#[derive(Debug, Clone)]
pub struct Grid {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub dx: f64,
    pub dy: f64,
    pub dzeta: f64,
    pub z_top: f64,
    /// Terrain height at cell centers.
    pub zs: Pad2,
    /// Metric G = 1 − zs/H at cell centers.
    pub g: Pad2,
    /// G averaged to u points (i+1/2, j).
    pub g_u: Pad2,
    /// G averaged to v points (i, j+1/2).
    pub g_v: Pad2,
    /// ∂zs/∂x at u points.
    pub dzsdx_u: Pad2,
    /// ∂zs/∂y at v points.
    pub dzsdy_v: Pad2,
    /// ζ of cell centers, k = 0..nz-1.
    pub zeta_c: Vec<f64>,
    /// ζ of w levels, k = 0..nz.
    pub zeta_w: Vec<f64>,
    /// Whether the terrain is identically flat (enables shortcuts).
    pub flat: bool,
}

impl Grid {
    /// Build the grid for a configuration; terrain is evaluated with the
    /// domain origin at (0, 0) and the feature centred at the domain
    /// centre. `x_offset`/`y_offset` shift this rank's subdomain inside a
    /// larger global domain (multi-GPU decomposition); pass 0 for a
    /// single domain, and `global_nx/ny` the global extent.
    pub fn build(cfg: &ModelConfig) -> Self {
        Self::build_sub(cfg, 0, 0, cfg.nx, cfg.ny)
    }

    /// Build a subdomain grid of a `global_nx × global_ny` domain whose
    /// local origin is at global cell `(x0, y0)`.
    pub fn build_sub(
        cfg: &ModelConfig,
        x0: usize,
        y0: usize,
        global_nx: usize,
        global_ny: usize,
    ) -> Self {
        let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
        let dzeta = cfg.dzeta();
        let mut zs = Pad2::new(nx, ny);
        let h = HALO as isize;
        let xc = global_nx as f64 * cfg.dx * 0.5;
        let yc = global_ny as f64 * cfg.dy * 0.5;
        let terrain_height = |xg: f64, yg: f64| -> f64 {
            match cfg.terrain {
                Terrain::Flat => 0.0,
                Terrain::AgnesiRidge { height, half_width } => {
                    let r = (xg - xc) / half_width;
                    height / (1.0 + r * r)
                }
                Terrain::AgnesiHill { height, half_width } => {
                    let rx = (xg - xc) / half_width;
                    let ry = (yg - yc) / half_width;
                    height / (1.0 + rx * rx + ry * ry)
                }
            }
        };
        for j in -h..ny as isize + h {
            for i in -h..nx as isize + h {
                // Global physical coordinates of this (halo) cell center,
                // wrapped periodically onto the global domain.
                let gi = (x0 as isize + i).rem_euclid(global_nx as isize) as f64;
                let gj = (y0 as isize + j).rem_euclid(global_ny as isize) as f64;
                let xg = (gi + 0.5) * cfg.dx;
                let yg = (gj + 0.5) * cfg.dy;
                zs.set(i, j, terrain_height(xg, yg));
            }
        }
        let flat = matches!(cfg.terrain, Terrain::Flat);

        let mut g = Pad2::new(nx, ny);
        for j in -h..ny as isize + h {
            for i in -h..nx as isize + h {
                let v = 1.0 - zs.at(i, j) / cfg.z_top;
                assert!(v > 0.2, "terrain too tall for the model top");
                g.set(i, j, v);
            }
        }
        // Staggered metrics; the outermost halo row of the staggered
        // quantities cannot be formed (needs i+1 beyond the pad) and is
        // left at the edge value.
        let mut g_u = Pad2::new(nx, ny);
        let mut g_v = Pad2::new(nx, ny);
        let mut dzsdx_u = Pad2::new(nx, ny);
        let mut dzsdy_v = Pad2::new(nx, ny);
        for j in -h..ny as isize + h {
            for i in -h..nx as isize + h {
                let ip = (i + 1).min(nx as isize + h - 1);
                let jp = (j + 1).min(ny as isize + h - 1);
                g_u.set(i, j, 0.5 * (g.at(i, j) + g.at(ip, j)));
                g_v.set(i, j, 0.5 * (g.at(i, j) + g.at(i, jp)));
                dzsdx_u.set(i, j, (zs.at(ip, j) - zs.at(i, j)) / cfg.dx);
                dzsdy_v.set(i, j, (zs.at(i, jp) - zs.at(i, j)) / cfg.dy);
            }
        }

        let zeta_c: Vec<f64> = (0..nz).map(|k| (k as f64 + 0.5) * dzeta).collect();
        let zeta_w: Vec<f64> = (0..=nz).map(|k| k as f64 * dzeta).collect();

        Grid {
            nx,
            ny,
            nz,
            dx: cfg.dx,
            dy: cfg.dy,
            dzeta,
            z_top: cfg.z_top,
            zs,
            g,
            g_u,
            g_v,
            dzsdx_u,
            dzsdy_v,
            zeta_c,
            zeta_w,
            flat,
        }
    }

    /// Physical height of cell center (i, j, k).
    #[inline]
    pub fn z_c(&self, i: isize, j: isize, k: usize) -> f64 {
        self.zeta_c[k] * self.g.at(i, j) + self.zs.at(i, j)
    }

    /// Physical height of w level (i, j, k), k = 0..=nz.
    #[inline]
    pub fn z_w(&self, i: isize, j: isize, k: usize) -> f64 {
        self.zeta_w[k] * self.g.at(i, j) + self.zs.at(i, j)
    }

    /// Metric slope (∂z/∂x)|ζ at u point (i+1/2, j) and center level k.
    #[inline]
    pub fn dzdx_u(&self, i: isize, j: isize, k: usize) -> f64 {
        self.dzsdx_u.at(i, j) * (1.0 - self.zeta_c[k] / self.z_top)
    }

    /// Metric slope (∂z/∂y)|ζ at v point (i, j+1/2) and center level k.
    #[inline]
    pub fn dzdy_v(&self, i: isize, j: isize, k: usize) -> f64 {
        self.dzsdy_v.at(i, j) * (1.0 - self.zeta_c[k] / self.z_top)
    }

    /// Allocate a center-staggered scalar field (nz levels).
    pub fn center_field(&self) -> Field3<f64> {
        Field3::new(self.nx, self.ny, self.nz, HALO)
    }

    /// Allocate a w-staggered field (nz + 1 levels).
    pub fn w_field(&self) -> Field3<f64> {
        Field3::new(self.nx, self.ny, self.nz + 1, HALO)
    }
}

/// Hydrostatic base-state fields on the (terrain-following) grid, in the
/// discretely balanced form the acoustic step linearizes around.
#[derive(Debug, Clone)]
pub struct BaseFields {
    /// θ̄ at cell centers.
    pub th_c: Field3<f64>,
    /// θ̄ at w levels.
    pub th_w: Field3<f64>,
    /// Base pressure at cell centers (pointwise EOS of the profile).
    pub p_c: Field3<f64>,
    /// Base density ρ̄ at centers.
    pub rho_c: Field3<f64>,
    /// Buoyancy reference at w levels, *defined for exact discrete
    /// hydrostatic balance* of the w equation
    /// `−∂ζp − g(avg_z ρ* − rbw)`:
    /// `rbw[k] = ½(Gρ̄[k−1] + Gρ̄[k]) + (p̄[k] − p̄[k−1])/(g dζ)`,
    /// so an unperturbed base state is exactly steady and the operator
    /// reduces to the perturbation form `−∂ζδp − g avg_z δρ*`.
    pub rbw: Field3<f64>,
    /// Linearized EOS coefficient c2m = c̄s² / (θ̄ G) at centers:
    /// `p″ = c2m Θ″` for the G-weighted Θ = Gρθ.
    pub c2m: Field3<f64>,
}

impl BaseFields {
    pub fn build(grid: &Grid, profile: &BaseState) -> Self {
        let mut th_c = grid.center_field();
        let mut th_w = grid.w_field();
        let mut p_c = grid.center_field();
        let mut rho_c = grid.center_field();
        let mut rbw = grid.w_field();
        let mut c2m = grid.center_field();
        let h = HALO as isize;
        let (nx, ny, nz) = (grid.nx as isize, grid.ny as isize, grid.nz);
        for j in -h..ny + h {
            for i in -h..nx + h {
                let gm = grid.g.at(i, j);
                for k in 0..nz {
                    let l = profile.at(grid.z_c(i, j, k));
                    th_c.set(i, j, k as isize, l.theta);
                    p_c.set(i, j, k as isize, l.p);
                    rho_c.set(i, j, k as isize, l.rho);
                    c2m.set(i, j, k as isize, l.cs2 / (l.theta * gm));
                }
                for k in 0..=nz {
                    let lw = profile.at(grid.z_w(i, j, k));
                    th_w.set(i, j, k as isize, lw.theta);
                    // Discretely balanced buoyancy reference at interior
                    // levels; analytic at the boundaries (where w = 0
                    // makes the value irrelevant to the solve).
                    let v = if k > 0 && k < nz {
                        let ki = k as isize;
                        0.5 * gm * (rho_c.at(i, j, ki - 1) + rho_c.at(i, j, ki))
                            + (p_c.at(i, j, ki) - p_c.at(i, j, ki - 1)) / (GRAV * grid.dzeta)
                    } else {
                        gm * lw.rho
                    };
                    rbw.set(i, j, k as isize, v);
                }
            }
        }
        BaseFields {
            th_c,
            th_w,
            p_c,
            rho_c,
            rbw,
            c2m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use physics::base::BaseState;

    fn cfg_flat() -> ModelConfig {
        let mut c = ModelConfig::mountain_wave(16, 12, 10);
        c.terrain = Terrain::Flat;
        c
    }

    #[test]
    fn flat_grid_has_unit_metric() {
        let g = Grid::build(&cfg_flat());
        assert!(g.flat);
        for j in -2..14isize {
            for i in -2..18isize {
                assert_eq!(g.g.at(i, j), 1.0);
                assert_eq!(g.zs.at(i, j), 0.0);
            }
        }
        assert_eq!(g.z_c(0, 0, 0), 0.5 * g.dzeta);
        assert_eq!(g.z_w(3, 4, 10), g.z_top);
    }

    #[test]
    fn agnesi_ridge_peaks_at_center() {
        let mut c = ModelConfig::mountain_wave(32, 8, 10);
        c.terrain = Terrain::AgnesiRidge {
            height: 500.0,
            half_width: 8000.0,
        };
        let g = Grid::build(&c);
        // max zs near the domain-center column
        let mut max_zs = 0.0;
        let mut argmax = 0;
        for i in 0..32isize {
            if g.zs.at(i, 4) > max_zs {
                max_zs = g.zs.at(i, 4);
                argmax = i;
            }
        }
        assert!((argmax - 16).abs() <= 1, "peak at {argmax}");
        assert!(max_zs > 450.0 && max_zs <= 500.0);
        // metric shrinks over the mountain
        assert!(g.g.at(argmax, 4) < 1.0);
        // slope antisymmetric around the peak and decaying aloft
        assert!(g.dzdx_u(argmax - 4, 4, 0) > 0.0);
        assert!(g.dzdx_u(argmax + 3, 4, 0) < 0.0);
        assert!(g.dzdx_u(argmax - 4, 4, 9).abs() < g.dzdx_u(argmax - 4, 4, 0).abs());
    }

    #[test]
    fn terrain_height_consistency() {
        let mut c = ModelConfig::mountain_wave(24, 24, 12);
        c.terrain = Terrain::AgnesiHill {
            height: 300.0,
            half_width: 6000.0,
        };
        let g = Grid::build(&c);
        // z at surface w-level equals terrain height; z at top equals lid.
        for (i, j) in [(0isize, 0isize), (12, 12), (5, 20)] {
            assert!((g.z_w(i, j, 0) - g.zs.at(i, j)).abs() < 1e-12);
            assert!((g.z_w(i, j, 12) - g.z_top).abs() < 1e-9);
        }
    }

    #[test]
    fn subdomain_matches_global_grid() {
        // A subdomain of a larger global domain must see the same terrain
        // as the corresponding region of the global grid.
        let mut cg = ModelConfig::mountain_wave(32, 16, 8);
        cg.terrain = Terrain::AgnesiHill {
            height: 250.0,
            half_width: 5000.0,
        };
        let global = Grid::build(&cg);
        let mut cl = cg.clone();
        cl.nx = 16;
        cl.ny = 8;
        let local = Grid::build_sub(&cl, 8, 4, 32, 16);
        for j in 0..8isize {
            for i in 0..16isize {
                assert_eq!(local.zs.at(i, j), global.zs.at(i + 8, j + 4));
            }
        }
    }

    #[test]
    fn base_state_discretely_balanced() {
        let mut c = cfg_flat();
        c.terrain = Terrain::AgnesiRidge {
            height: 600.0,
            half_width: 9000.0,
        };
        let g = Grid::build(&c);
        let bs = BaseState::constant_n(288.0, 0.01);
        let b = BaseFields::build(&g, &bs);
        // rbw is defined so that the discrete w-equation RHS
        // -(dp/dζ) - g (avg_z(Gρ̄) - rbw) vanishes exactly on the base.
        for j in 0..g.ny as isize {
            for i in 0..g.nx as isize {
                let gm = g.g.at(i, j);
                for k in 1..g.nz {
                    let ki = k as isize;
                    let dp = (b.p_c.at(i, j, ki) - b.p_c.at(i, j, ki - 1)) / g.dzeta;
                    let avg = 0.5 * gm * (b.rho_c.at(i, j, ki - 1) + b.rho_c.at(i, j, ki));
                    let resid = -dp - GRAV * (avg - b.rbw.at(i, j, ki));
                    assert!(resid.abs() < 1e-9, "imbalance {resid} at {i},{j},{k}");
                }
            }
        }
    }

    #[test]
    fn c2m_matches_sound_speed() {
        let g = Grid::build(&cfg_flat());
        let bs = BaseState::isothermal(280.0);
        let b = BaseFields::build(&g, &bs);
        let l = bs.at(g.z_c(0, 0, 3));
        let expect = l.cs2 / (l.theta * 1.0);
        assert!((b.c2m.at(0, 0, 3) - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn pad2_periodic_halo() {
        let mut p = Pad2::new(4, 3);
        for j in 0..3isize {
            for i in 0..4isize {
                p.set(i, j, (10 * i + j) as f64);
            }
        }
        p.fill_halo_periodic();
        assert_eq!(p.at(-1, 0), p.at(3, 0));
        assert_eq!(p.at(4, 2), p.at(0, 2));
        assert_eq!(p.at(0, -1), p.at(0, 2));
        assert_eq!(p.at(-1, 3), p.at(3, 0));
    }
}
