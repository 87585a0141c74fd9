//! `at()`-indexed vs row-cursor advection inner loop at the paper's
//! per-GPU subdomain 320×256×48 — measures exactly what the row-cursor
//! port of the stencil kernels buys: `Dims::off` re-derives a 3-D
//! offset (three multiplies plus bounds bookkeeping) on every stencil
//! tap, while a `Row` cursor computes the row base once per `(j, k)`
//! and taps at fixed ±1/±2 x-offsets, like the paper's
//! register-marching loops walking coalesced x.
//!
//! A third variant runs the SIMD x-walk (lane loads at the same ±1/±2
//! offsets, the same body at width 1 for each row's remainder, inside an
//! AVX2+FMA `#[target_feature]` twin), as the Functional kernels run
//! when `ASUCA_SIMD` is on. All three compute both faces per cell; the
//! kernels themselves now compute each face once (DESIGN.md §9).
//!
//! All variants run the same Koren-limited advection stencil on the
//! same data single-threaded; identical results are asserted bitwise
//! before timing.

use asuca_gpu::view::{Dims, V3SlabMut, V3};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use numerics::limiter::{limited_flux, Limiter};

const NX: usize = 320;
const NY: usize = 256;
const NZ: usize = 48;
const HALO: usize = 2;
const LIM: Limiter = Limiter::Koren;

struct Fields {
    dc: Dims,
    dw: Dims,
    spec: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
    mw: Vec<f64>,
}

fn filled(len: usize, base: f64, ripple: f64) -> Vec<f64> {
    (0..len).map(|i| base + ripple * (i % 101) as f64).collect()
}

fn fields() -> Fields {
    let dc = Dims::center(NX, NY, NZ, HALO);
    let dw = Dims::wlevel(NX, NY, NZ, HALO);
    Fields {
        dc,
        dw,
        spec: filled(dc.len(), 300.0, 1.0e-3),
        u: filled(dc.len(), 5.0, 1.0e-4),
        v: filled(dc.len(), -2.0, 1.0e-4),
        mw: filled(dw.len(), 0.3, 1.0e-5),
    }
}

const INV_DX: f64 = 1.0 / 400.0;
const INV_DY: f64 = 1.0 / 400.0;
const INV_DZ: f64 = 1.0 / 300.0;

/// The seed-path inner loop: every stencil tap goes through
/// `Dims::off` (`V3::at` / `V3SlabMut::add`).
fn advect_at(f: &Fields, out: &mut [f64]) {
    let s = V3::new(&f.spec, f.dc);
    let uu = V3::new(&f.u, f.dc);
    let vv = V3::new(&f.v, f.dc);
    let ww = V3::new(&f.mw, f.dw);
    let mut o = V3SlabMut::new(out, f.dc, -(HALO as isize));
    let (nxi, nyi, nzi) = (NX as isize, NY as isize, NZ as isize);
    for j in 0..nyi {
        for k in 0..nzi {
            for i in 0..nxi {
                let fxm = limited_flux(
                    LIM,
                    uu.at(i - 1, j, k),
                    s.at(i - 2, j, k),
                    s.at(i - 1, j, k),
                    s.at(i, j, k),
                    s.at(i + 1, j, k),
                );
                let fxp = limited_flux(
                    LIM,
                    uu.at(i, j, k),
                    s.at(i - 1, j, k),
                    s.at(i, j, k),
                    s.at(i + 1, j, k),
                    s.at(i + 2, j, k),
                );
                let fym = limited_flux(
                    LIM,
                    vv.at(i, j - 1, k),
                    s.at(i, j - 2, k),
                    s.at(i, j - 1, k),
                    s.at(i, j, k),
                    s.at(i, j + 1, k),
                );
                let fyp = limited_flux(
                    LIM,
                    vv.at(i, j, k),
                    s.at(i, j - 1, k),
                    s.at(i, j, k),
                    s.at(i, j + 1, k),
                    s.at(i, j + 2, k),
                );
                let fzm = if k == 0 {
                    0.0
                } else {
                    limited_flux(
                        LIM,
                        ww.at(i, j, k),
                        s.at(i, j, k - 2),
                        s.at(i, j, k - 1),
                        s.at(i, j, k),
                        s.at(i, j, k + 1),
                    )
                };
                let fzp = if k == nzi - 1 {
                    0.0
                } else {
                    limited_flux(
                        LIM,
                        ww.at(i, j, k + 1),
                        s.at(i, j, k - 1),
                        s.at(i, j, k),
                        s.at(i, j, k + 1),
                        s.at(i, j, k + 2),
                    )
                };
                o.add(
                    i,
                    j,
                    k,
                    -((fxp - fxm) * INV_DX + (fyp - fym) * INV_DY + (fzp - fzm) * INV_DZ),
                );
            }
        }
    }
}

/// The row-cursor inner loop, as
/// `asuca_gpu::kernels::advection::advect_scalar` ran it before its
/// faces were computed once.
fn advect_rows(f: &Fields, out: &mut [f64]) {
    let s = V3::new(&f.spec, f.dc);
    let uu = V3::new(&f.u, f.dc);
    let vv = V3::new(&f.v, f.dc);
    let ww = V3::new(&f.mw, f.dw);
    let mut o = V3SlabMut::new(out, f.dc, -(HALO as isize));
    let (nxi, nyi, nzi) = (NX as isize, NY as isize, NZ as isize);
    for j in 0..nyi {
        for k in 0..nzi {
            let s0 = s.row(j, k);
            let sjm2 = s.row(j - 2, k);
            let sjm1 = s.row(j - 1, k);
            let sjp1 = s.row(j + 1, k);
            let sjp2 = s.row(j + 2, k);
            let skm2 = s.row(j, k - 2);
            let skm1 = s.row(j, k - 1);
            let skp1 = s.row(j, k + 1);
            let skp2 = s.row(j, k + 2);
            let u0 = uu.row(j, k);
            let vjm1 = vv.row(j - 1, k);
            let v0 = vv.row(j, k);
            let w0 = ww.row(j, k);
            let wp = ww.row(j, k + 1);
            let mut orow = o.row_mut(j, k);
            for i in 0..nxi {
                let fxm = limited_flux(
                    LIM,
                    u0.at(i - 1),
                    s0.at(i - 2),
                    s0.at(i - 1),
                    s0.at(i),
                    s0.at(i + 1),
                );
                let fxp = limited_flux(
                    LIM,
                    u0.at(i),
                    s0.at(i - 1),
                    s0.at(i),
                    s0.at(i + 1),
                    s0.at(i + 2),
                );
                let fym = limited_flux(
                    LIM,
                    vjm1.at(i),
                    sjm2.at(i),
                    sjm1.at(i),
                    s0.at(i),
                    sjp1.at(i),
                );
                let fyp = limited_flux(LIM, v0.at(i), sjm1.at(i), s0.at(i), sjp1.at(i), sjp2.at(i));
                let fzm = if k == 0 {
                    0.0
                } else {
                    limited_flux(LIM, w0.at(i), skm2.at(i), skm1.at(i), s0.at(i), skp1.at(i))
                };
                let fzp = if k == nzi - 1 {
                    0.0
                } else {
                    limited_flux(LIM, wp.at(i), skm1.at(i), s0.at(i), skp1.at(i), skp2.at(i))
                };
                orow.add(
                    i,
                    -((fxp - fxm) * INV_DX + (fyp - fym) * INV_DY + (fzp - fzm) * INV_DZ),
                );
            }
        }
    }
}

/// The SIMD x-walk, as used by
/// `asuca_gpu::kernels::advection::advect_scalar` with lanes on: one
/// body run at `f64`'s 8 lanes (loads at the same stencil offsets), then at
/// width 1 for each row's remainder (`numerics::x_walk!`).
/// Like the kernels (`numerics::simd_kernel!`), the loop body is
/// stamped into an AVX2+FMA `#[target_feature]` twin when the CPU has
/// the ISA — the results are bitwise identical either way.
fn advect_lanes(f: &Fields, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if numerics::simd::lanes_native() {
        // SAFETY: AVX2+FMA presence was verified by `lanes_native`.
        return unsafe { advect_lanes_arch(f, out) };
    }
    advect_lanes_body(f, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn advect_lanes_arch(f: &Fields, out: &mut [f64]) {
    advect_lanes_body(f, out)
}

#[inline(always)]
fn advect_lanes_body(f: &Fields, out: &mut [f64]) {
    let s = V3::new(&f.spec, f.dc);
    let uu = V3::new(&f.u, f.dc);
    let vv = V3::new(&f.v, f.dc);
    let ww = V3::new(&f.mw, f.dw);
    let mut o = V3SlabMut::new(out, f.dc, -(HALO as isize));
    let (nxi, nyi, nzi) = (NX as isize, NY as isize, NZ as isize);
    for j in 0..nyi {
        for k in 0..nzi {
            let s0 = s.row(j, k);
            let sjm2 = s.row(j - 2, k);
            let sjm1 = s.row(j - 1, k);
            let sjp1 = s.row(j + 1, k);
            let sjp2 = s.row(j + 2, k);
            let skm2 = s.row(j, k - 2);
            let skm1 = s.row(j, k - 1);
            let skp1 = s.row(j, k + 1);
            let skp2 = s.row(j, k + 2);
            let u0 = uu.row(j, k);
            let vjm1 = vv.row(j - 1, k);
            let v0 = vv.row(j, k);
            let w0 = ww.row(j, k);
            let wp = ww.row(j, k + 1);
            let mut orow = o.row_mut(j, k);
            numerics::x_walk!(f64, true, 0..nxi, |lw, i| {
                let sm1 = s0.lanes(lw, i - 1);
                let sc = s0.lanes(lw, i);
                let sp1 = s0.lanes(lw, i + 1);
                let fxm = limited_flux(LIM, u0.lanes(lw, i - 1), s0.lanes(lw, i - 2), sm1, sc, sp1);
                let fxp = limited_flux(LIM, u0.lanes(lw, i), sm1, sc, sp1, s0.lanes(lw, i + 2));
                let fym = limited_flux(
                    LIM,
                    vjm1.lanes(lw, i),
                    sjm2.lanes(lw, i),
                    sjm1.lanes(lw, i),
                    sc,
                    sjp1.lanes(lw, i),
                );
                let fyp = limited_flux(
                    LIM,
                    v0.lanes(lw, i),
                    sjm1.lanes(lw, i),
                    sc,
                    sjp1.lanes(lw, i),
                    sjp2.lanes(lw, i),
                );
                let fzm = if k == 0 {
                    lw.splat(0.0)
                } else {
                    limited_flux(
                        LIM,
                        w0.lanes(lw, i),
                        skm2.lanes(lw, i),
                        skm1.lanes(lw, i),
                        sc,
                        skp1.lanes(lw, i),
                    )
                };
                let fzp = if k == nzi - 1 {
                    lw.splat(0.0)
                } else {
                    limited_flux(
                        LIM,
                        wp.lanes(lw, i),
                        skm1.lanes(lw, i),
                        sc,
                        skp1.lanes(lw, i),
                        skp2.lanes(lw, i),
                    )
                };
                orow.add_lanes(
                    lw,
                    i,
                    -((fxp - fxm) * lw.splat(INV_DX)
                        + (fyp - fym) * lw.splat(INV_DY)
                        + (fzp - fzm) * lw.splat(INV_DZ)),
                );
            });
        }
    }
}

fn bench_kernel_inner_loop(c: &mut Criterion) {
    let f = fields();
    let mut out_at = vec![0.0f64; f.dc.len()];
    let mut out_rows = vec![0.0f64; f.dc.len()];
    let mut out_lanes = vec![0.0f64; f.dc.len()];
    advect_at(&f, &mut out_at);
    advect_rows(&f, &mut out_rows);
    advect_lanes(&f, &mut out_lanes);
    assert_eq!(
        out_at, out_rows,
        "row-cursor advection diverged from at()-indexed advection"
    );
    assert!(
        out_rows
            .iter()
            .zip(&out_lanes)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "SIMD x-walk advection diverged bitwise from the row-cursor walk"
    );

    let points = (NX * NY * NZ) as u64;
    let mut group = c.benchmark_group("kernel_inner_loop");
    group.throughput(Throughput::Elements(points));
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("advection_at_indexed_320x256x48", |b| {
        b.iter(|| advect_at(&f, &mut out_at))
    });
    group.bench_function("advection_row_cursor_320x256x48", |b| {
        b.iter(|| advect_rows(&f, &mut out_rows))
    });
    group.bench_function("advection_simd_lanes_320x256x48", |b| {
        b.iter(|| advect_lanes(&f, &mut out_lanes))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_kernel_inner_loop
}
criterion_main!(benches);
