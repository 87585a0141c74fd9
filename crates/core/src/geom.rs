//! Device-resident grid geometry: metric terms and hydrostatic base
//! fields, uploaded once at initialization (part of the paper's
//! "Initial data → GPU" arrow in Fig. 1).

use crate::view::Dims;
use dycore::grid::{BaseFields, Grid, HALO};
use numerics::{Field3, Real};
use vgpu::{Buf, Device, ExecMode, StreamId};

/// Grid constants + device buffers for metrics and base state, in the
/// kernel precision `R`.
pub struct DeviceGeom<R: Real> {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub halo: usize,
    pub dx: f64,
    pub dy: f64,
    pub dz: f64,
    pub z_top: f64,
    pub flat: bool,
    /// Dims of center / w-level / 2-D plane fields.
    pub dc: Dims,
    pub dw: Dims,
    pub dp: Dims,
    // 2-D metric fields.
    pub g: Buf<R>,
    pub g_u: Buf<R>,
    pub g_v: Buf<R>,
    pub dzsdx_u: Buf<R>,
    pub dzsdy_v: Buf<R>,
    /// (1 - ζc\[k\]/H) factors for the metric slope, one per level,
    /// uploaded as a small device array.
    pub zeta_fac: Buf<R>,
    // Base-state fields.
    pub th_c: Buf<R>,
    pub th_w: Buf<R>,
    pub p_c: Buf<R>,
    pub rho_c: Buf<R>,
    pub rbw: Buf<R>,
    pub c2m: Buf<R>,
}

/// The host levels a relayout walks. A one-level plane
/// ([`Dims::plane`], e.g. `State::precip`) stores k = 0 only, and
/// `Dims::off` ignores k for it, so walking the host field's padded
/// levels would land them all on one cell; a 3-D field walks its
/// padded levels.
fn relayout_levels(dims: Dims) -> std::ops::Range<isize> {
    if dims.nl == 1 {
        0..1
    } else {
        let h = dims.halo as isize;
        -h..dims.nl as isize + h
    }
}

/// Convert a KIJ `f64` host field into an XZY `R` vector ready for
/// device upload (the layout transformation of §IV-A.1).
pub fn relayout_to_xzy<R: Real>(f: &Field3<f64>, dims: Dims) -> Vec<R> {
    assert_eq!(f.halo(), dims.halo);
    assert_eq!((f.nx(), f.ny(), f.nz()), (dims.nx, dims.ny, dims.nl));
    let h = dims.halo as isize;
    let mut out = vec![R::ZERO; dims.len()];
    for j in -h..dims.ny as isize + h {
        for k in relayout_levels(dims) {
            for i in -h..dims.nx as isize + h {
                out[dims.off(i, j, k)] = R::from_f64(f.at(i, j, k));
            }
        }
    }
    out
}

/// Inverse transform: XZY `R` device data back into a KIJ `f64` field.
pub fn relayout_from_xzy<R: Real>(data: &[R], dims: Dims, f: &mut Field3<f64>) {
    assert_eq!(f.halo(), dims.halo);
    assert_eq!((f.nx(), f.ny(), f.nz()), (dims.nx, dims.ny, dims.nl));
    let h = dims.halo as isize;
    for j in -h..dims.ny as isize + h {
        for k in relayout_levels(dims) {
            for i in -h..dims.nx as isize + h {
                f.set(i, j, k, data[dims.off(i, j, k)].to_f64());
            }
        }
    }
}

fn upload_plane<R: Real>(
    dev: &mut Device<R>,
    dims: Dims,
    label: &str,
    f: impl Fn(isize, isize) -> f64,
) -> Buf<R> {
    let buf = dev
        .alloc_labeled(dims.len(), label)
        .expect("device OOM uploading metric plane");
    if dev.mode() == ExecMode::Functional {
        let h = dims.halo as isize;
        let mut host = vec![R::ZERO; dims.len()];
        for j in -h..dims.ny as isize + h {
            for i in -h..dims.nx as isize + h {
                host[dims.off(i, j, 0)] = R::from_f64(f(i, j));
            }
        }
        dev.copy_h2d(StreamId::DEFAULT, &host, buf, 0)
            .expect("copy in bounds");
    } else {
        dev.copy_h2d_phantom(StreamId::DEFAULT, dims.len());
    }
    buf
}

/// Upload a KIJ f64 field to the device in XZY order, tagging the
/// allocation with a sanitizer label.
pub fn upload_field_labeled<R: Real>(
    dev: &mut Device<R>,
    f: &Field3<f64>,
    dims: Dims,
    label: &str,
) -> Buf<R> {
    let buf = dev
        .alloc_labeled(dims.len(), label)
        .expect("device OOM uploading field");
    if dev.mode() == ExecMode::Functional {
        let host = relayout_to_xzy::<R>(f, dims);
        dev.copy_h2d(StreamId::DEFAULT, &host, buf, 0)
            .expect("copy in bounds");
    } else {
        dev.copy_h2d_phantom(StreamId::DEFAULT, dims.len());
    }
    buf
}

impl<R: Real> DeviceGeom<R> {
    /// Release every metric/base buffer (leak-check teardown).
    pub fn free(&self, dev: &mut Device<R>) {
        for b in [
            self.g,
            self.g_u,
            self.g_v,
            self.dzsdx_u,
            self.dzsdy_v,
            self.zeta_fac,
            self.th_c,
            self.th_w,
            self.p_c,
            self.rho_c,
            self.rbw,
            self.c2m,
        ] {
            let _ = dev.free(b);
        }
    }

    /// Phantom-mode build: allocate and account every upload without
    /// constructing host base fields (used by paper-scale timing runs,
    /// where materializing 528 ranks of 3-D base arrays would exhaust
    /// host memory).
    pub fn build_phantom(dev: &mut Device<R>, grid: &Grid) -> Self {
        assert_eq!(
            dev.mode(),
            ExecMode::Phantom,
            "build_phantom needs phantom mode"
        );
        let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
        let dc = Dims::center(nx, ny, nz, HALO);
        let dw = Dims::wlevel(nx, ny, nz, HALO);
        let dp = Dims::plane(nx, ny, HALO);
        let aplane = |dev: &mut Device<R>| {
            let b = dev.alloc(dp.len()).expect("device OOM");
            dev.copy_h2d_phantom(StreamId::DEFAULT, dp.len());
            b
        };
        let g = aplane(dev);
        let g_u = aplane(dev);
        let g_v = aplane(dev);
        let dzsdx_u = aplane(dev);
        let dzsdy_v = aplane(dev);
        let zeta_fac = dev.alloc_labeled(nz, "zeta_fac").expect("device OOM");
        dev.copy_h2d_phantom(StreamId::DEFAULT, nz);
        let afield = |dev: &mut Device<R>, len: usize| {
            let b = dev.alloc(len).expect("device OOM");
            dev.copy_h2d_phantom(StreamId::DEFAULT, len);
            b
        };
        let th_c = afield(dev, dc.len());
        let th_w = afield(dev, dw.len());
        let p_c = afield(dev, dc.len());
        let rho_c = afield(dev, dc.len());
        let rbw = afield(dev, dw.len());
        let c2m = afield(dev, dc.len());
        DeviceGeom {
            nx,
            ny,
            nz,
            halo: HALO,
            dx: grid.dx,
            dy: grid.dy,
            dz: grid.dzeta,
            z_top: grid.z_top,
            flat: grid.flat,
            dc,
            dw,
            dp,
            g,
            g_u,
            g_v,
            dzsdx_u,
            dzsdy_v,
            zeta_fac,
            th_c,
            th_w,
            p_c,
            rho_c,
            rbw,
            c2m,
        }
    }

    /// Build from the host grid and base fields, uploading everything.
    pub fn build(dev: &mut Device<R>, grid: &Grid, base: &BaseFields) -> Self {
        let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
        let dc = Dims::center(nx, ny, nz, HALO);
        let dw = Dims::wlevel(nx, ny, nz, HALO);
        let dp = Dims::plane(nx, ny, HALO);

        let g = upload_plane(dev, dp, "g", |i, j| grid.g.at(i, j));
        let g_u = upload_plane(dev, dp, "g_u", |i, j| grid.g_u.at(i, j));
        let g_v = upload_plane(dev, dp, "g_v", |i, j| grid.g_v.at(i, j));
        let dzsdx_u = upload_plane(dev, dp, "dzsdx_u", |i, j| grid.dzsdx_u.at(i, j));
        let dzsdy_v = upload_plane(dev, dp, "dzsdy_v", |i, j| grid.dzsdy_v.at(i, j));

        // Per-level metric decay factors (1 - ζc/H).
        let zeta_fac = dev.alloc_labeled(nz, "zeta_fac").expect("device OOM");
        if dev.mode() == ExecMode::Functional {
            let host: Vec<R> = grid
                .zeta_c
                .iter()
                .map(|&z| R::from_f64(1.0 - z / grid.z_top))
                .collect();
            dev.copy_h2d(StreamId::DEFAULT, &host, zeta_fac, 0)
                .expect("copy in bounds");
        } else {
            dev.copy_h2d_phantom(StreamId::DEFAULT, nz);
        }

        let th_c = upload_field_labeled(dev, &base.th_c, dc, "th_c");
        let th_w = upload_field_labeled(dev, &base.th_w, dw, "th_w");
        let p_c = upload_field_labeled(dev, &base.p_c, dc, "p_c");
        let rho_c = upload_field_labeled(dev, &base.rho_c, dc, "rho_c");
        let rbw = upload_field_labeled(dev, &base.rbw, dw, "rbw");
        let c2m = upload_field_labeled(dev, &base.c2m, dc, "c2m");

        DeviceGeom {
            nx,
            ny,
            nz,
            halo: HALO,
            dx: grid.dx,
            dy: grid.dy,
            dz: grid.dzeta,
            z_top: grid.z_top,
            flat: grid.flat,
            dc,
            dw,
            dp,
            g,
            g_u,
            g_v,
            dzsdx_u,
            dzsdy_v,
            zeta_fac,
            th_c,
            th_w,
            p_c,
            rho_c,
            rbw,
            c2m,
        }
    }

    /// Interior point count of a center field.
    pub fn points(&self) -> u64 {
        (self.nx * self.ny * self.nz) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dycore::config::{ModelConfig, Terrain};
    use physics::base::BaseState;
    use vgpu::DeviceSpec;

    fn grid() -> (Grid, BaseFields) {
        let mut c = ModelConfig::mountain_wave(8, 6, 5);
        c.terrain = Terrain::AgnesiRidge {
            height: 300.0,
            half_width: 8000.0,
        };
        let g = Grid::build(&c);
        let b = BaseFields::build(&g, &BaseState::constant_n(288.0, 0.01));
        (g, b)
    }

    #[test]
    fn relayout_roundtrip() {
        let f = Field3::<f64>::from_fn(5, 4, 3, 2, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let dims = Dims::center(5, 4, 3, 2);
        let xzy = relayout_to_xzy::<f64>(&f, dims);
        let mut back = Field3::<f64>::new(5, 4, 3, 2);
        relayout_from_xzy(&xzy, dims, &mut back);
        assert_eq!(back.max_diff(&f), 0.0);
    }

    #[test]
    fn relayout_of_a_plane_keeps_its_ground_level() {
        // Rain on the ground (k = 0) and zero halo levels, as the CPU
        // model leaves `State::precip`.
        let f = Field3::<f64>::from_fn(5, 4, 1, 2, |i, j, _| 5.0 + (i * 10 + j) as f64);
        let dims = Dims::plane(5, 4, 2);
        let xzy = relayout_to_xzy::<f64>(&f, dims);
        assert_eq!(xzy[dims.off(1, 2, 0)], f.at(1, 2, 0));
        let mut back = Field3::<f64>::new(5, 4, 1, 2);
        relayout_from_xzy(&xzy, dims, &mut back);
        assert_eq!(back.max_diff(&f), 0.0);
        assert_eq!((back.at(1, 2, -1), back.at(1, 2, 1)), (0.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn relayout_from_xzy_rejects_a_larger_field() {
        let dims = Dims::center(5, 4, 3, 2);
        let xzy = vec![0.0f64; dims.len()];
        let mut wider_halo = Field3::<f64>::new(5, 4, 3, 3);
        relayout_from_xzy(&xzy, dims, &mut wider_halo);
    }

    #[test]
    fn geom_uploads_match_host_values() {
        let (g, b) = grid();
        let mut dev = Device::<f64>::new(DeviceSpec::tesla_s1070(), ExecMode::Functional);
        let geom = DeviceGeom::build(&mut dev, &g, &b);
        let gdata = dev.read_vec(geom.g);
        assert_eq!(gdata[geom.dp.off(3, 2, 0)], g.g.at(3, 2));
        let th = dev.read_vec(geom.th_c);
        assert_eq!(th[geom.dc.off(1, 1, 2)], b.th_c.at(1, 1, 2));
        assert!(dev.mem_used() > 0);
    }

    #[test]
    fn phantom_geom_accounts_memory_without_data() {
        let (g, b) = grid();
        let mut dev = Device::<f32>::new(DeviceSpec::tesla_s1070(), ExecMode::Phantom);
        let used0 = dev.mem_used();
        let _geom = DeviceGeom::<f32>::build(&mut dev, &g, &b);
        assert!(dev.mem_used() > used0);
        assert!(dev.profiler.total_h2d_bytes > 0.0);
    }

    #[test]
    fn precision_conversion_in_relayout() {
        let f = Field3::<f64>::from_fn(3, 3, 3, 1, |i, _, _| i as f64 + 0.25);
        let dims = Dims::center(3, 3, 3, 1);
        let xzy = relayout_to_xzy::<f32>(&f, dims);
        assert_eq!(xzy[dims.off(2, 0, 0)], 2.25f32);
    }
}
