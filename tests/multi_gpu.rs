//! Multi-GPU correctness: the decomposed run must reproduce the
//! single-domain solution cell-for-cell, with and without the overlap
//! optimizations (which must not change results, only timing).

use asuca_gpu::multi::{run_multi, MultiGpuConfig, OverlapMode};
use asuca_gpu::SingleGpu;
use cluster::NetworkSpec;
use dycore::config::{ModelConfig, Terrain};
use dycore::grid::{BaseFields, Grid};
use dycore::State;
use numerics::Real;
use vgpu::{DeviceSpec, ExecMode};

/// Seed a deterministic thermal + moisture anomaly from *global*
/// coordinates, so every rank initializes its piece of the same field.
fn seeded_init(grid: &Grid, s: &mut State, x0: usize, y0: usize, gnx: usize, gny: usize) {
    for j in 0..grid.ny as isize {
        for i in 0..grid.nx as isize {
            let gx = (x0 as isize + i) as f64 / gnx as f64;
            let gy = (y0 as isize + j) as f64 / gny as f64;
            for k in 0..grid.nz as isize {
                let gz = k as f64 / grid.nz as f64;
                let amp = (gx * std::f64::consts::TAU).sin()
                    * (gy * std::f64::consts::TAU).cos()
                    * (1.0 - gz);
                let rho = s.rho.at(i, j, k);
                let th = s.th.at(i, j, k);
                s.th.set(i, j, k, th + rho * 0.8 * amp);
                s.q[0].set(i, j, k, rho * 2.0e-3 * (1.0 + amp).max(0.0));
            }
        }
    }
    s.fill_halos_periodic();
}

fn multi_config(
    px: usize,
    py: usize,
    sub_nx: usize,
    sub_ny: usize,
    overlap: OverlapMode,
    steps: usize,
) -> MultiGpuConfig {
    let mut local = ModelConfig::mountain_wave(sub_nx, sub_ny, 8);
    local.terrain = Terrain::Flat;
    local.dt = 4.0;
    MultiGpuConfig {
        local_cfg: local,
        px,
        py,
        overlap,
        spec: DeviceSpec::tesla_s1070(),
        net: NetworkSpec::tsubame1_infiniband(),
        mode: ExecMode::Functional,
        steps,
        detailed_profile: false,
    }
}

fn run_decomposed(
    px: usize,
    py: usize,
    sub_nx: usize,
    sub_ny: usize,
    overlap: OverlapMode,
    steps: usize,
) -> Vec<State> {
    run_config::<f64>(&multi_config(px, py, sub_nx, sub_ny, overlap, steps))
}

/// Run `mc` at precision `R` from the seeded global field; the final
/// rank states, in rank order.
fn run_config<R: Real>(mc: &MultiGpuConfig) -> Vec<State> {
    let (px, py) = (mc.px, mc.py);
    let (sub_nx, sub_ny) = (mc.local_cfg.nx, mc.local_cfg.ny);
    let (gnx, gny) = (px * sub_nx, py * sub_ny);
    let report = run_multi::<R>(mc, &move |rank, grid, _base, s| {
        let d = asuca_gpu::decomp::Decomp::disjoint(px, py, sub_nx, sub_ny, 8);
        let (x0, y0) = d.origin_disjoint(rank);
        seeded_init(grid, s, x0, y0, gnx, gny);
    })
    .expect("run failed");
    report.final_states.expect("functional mode returns states")
}

fn run_reference(gnx: usize, gny: usize, steps: usize) -> State {
    let mut cfg = ModelConfig::mountain_wave(gnx, gny, 8);
    cfg.terrain = Terrain::Flat;
    cfg.dt = 4.0;
    let mut gpu =
        SingleGpu::<f64>::new(cfg.clone(), DeviceSpec::tesla_s1070(), ExecMode::Functional);
    // Same seeded field on the global grid.
    let profile = physics::base::BaseState {
        profile: cfg.base,
        p_surface: physics::consts::P00,
    };
    let grid = Grid::build(&cfg);
    let base = BaseFields::build(&grid, &profile);
    let mut s = State::zeros(&grid, cfg.n_tracers);
    dycore::model::install_base_state(&grid, &base, &mut s);
    s.fill_halos_periodic();
    seeded_init(&grid, &mut s, 0, 0, gnx, gny);
    gpu.load_state(&s).unwrap();
    gpu.run(steps).unwrap();
    let mut out = State::zeros(&grid, cfg.n_tracers);
    gpu.save_state(&mut out);
    out
}

fn compare_rank_interiors(
    states: &[State],
    global: &State,
    px: usize,
    _py: usize,
    sub_nx: usize,
    sub_ny: usize,
    tol: f64,
) {
    for (rank, local) in states.iter().enumerate() {
        let cx = rank % px;
        let cy = rank / px;
        let (x0, y0) = (cx * sub_nx, cy * sub_ny);
        let mut worst = 0.0f64;
        for j in 0..sub_ny as isize {
            for i in 0..sub_nx as isize {
                for k in 0..8isize {
                    for (a, b) in [
                        (
                            local.th.at(i, j, k),
                            global.th.at(i + x0 as isize, j + y0 as isize, k),
                        ),
                        (
                            local.u.at(i, j, k),
                            global.u.at(i + x0 as isize, j + y0 as isize, k),
                        ),
                        (
                            local.rho.at(i, j, k),
                            global.rho.at(i + x0 as isize, j + y0 as isize, k),
                        ),
                        (
                            local.q[0].at(i, j, k),
                            global.q[0].at(i + x0 as isize, j + y0 as isize, k),
                        ),
                    ] {
                        worst = worst.max((a - b).abs());
                    }
                }
            }
        }
        assert!(
            worst <= tol,
            "rank {rank}: max diff {worst:e} vs tol {tol:e}"
        );
    }
}

#[test]
fn decomposed_run_matches_single_domain() {
    let (px, py, sx, sy) = (2usize, 2usize, 8usize, 8usize);
    let states = run_decomposed(px, py, sx, sy, OverlapMode::None, 2);
    let global = run_reference(px * sx, py * sy, 2);
    compare_rank_interiors(&states, &global, px, py, sx, sy, 1e-10);
}

/// The overlapped schedule leaves every rank's full state bitwise equal
/// to the serial schedule's, in both precisions, at 1 and 3 host
/// threads, with lanes off and on. A 20×12 subdomain's inner strip
/// rows (16 columns between the 2-wide x strips) hold whole 8-lanes,
/// so the lane walk runs in every split kernel.
#[test]
fn overlap_does_not_change_results() {
    fn check<R: Real>() {
        let (px, py, sx, sy) = (2usize, 3usize, 20usize, 12usize);
        for threads in [1, 3] {
            for lanes in [false, true] {
                let run = |overlap| {
                    let mut mc = multi_config(px, py, sx, sy, overlap, 2);
                    mc.local_cfg.threads = threads;
                    mc.local_cfg.simd = Some(lanes);
                    run_config::<R>(&mc)
                };
                let plain = run(OverlapMode::None);
                let fancy = run(OverlapMode::Overlap);
                assert_eq!(plain.len(), px * py);
                for (rank, (a, b)) in plain.iter().zip(fancy.iter()).enumerate() {
                    assert_eq!(
                        a.checksum(),
                        b.checksum(),
                        "rank {rank} differs ({} bytes, threads {threads}, lanes {lanes})",
                        R::BYTES
                    );
                }
            }
        }
    }
    check::<f32>();
    check::<f64>();
}

#[test]
fn overlap_matches_single_domain_too() {
    let (px, py, sx, sy) = (3usize, 1usize, 8usize, 12usize);
    let states = run_decomposed(px, py, sx, sy, OverlapMode::Overlap, 2);
    let global = run_reference(px * sx, py * sy, 2);
    compare_rank_interiors(&states, &global, px, py, sx, sy, 1e-10);
}

#[test]
fn overlap_reduces_simulated_time_at_paper_scale() {
    // Timing property (the paper's Fig. 11): at the production per-GPU
    // subdomain (320x256x48) the overlapped schedule must beat the
    // serial one. (On toy subdomains launch overhead dominates and the
    // split kernels don't pay off — also true on real hardware.)
    let mut local = ModelConfig::mountain_wave(320, 256, 48);
    local.terrain = Terrain::Flat;
    let mut mc = MultiGpuConfig {
        local_cfg: local,
        px: 2,
        py: 2,
        overlap: OverlapMode::None,
        spec: DeviceSpec::tesla_s1070(),
        net: NetworkSpec::tsubame1_infiniband(),
        mode: ExecMode::Phantom,
        steps: 1,
        detailed_profile: false,
    };
    let t_plain = run_multi::<f32>(&mc, &|_, _, _, _| {})
        .expect("run failed")
        .total_time_s;
    mc.overlap = OverlapMode::Overlap;
    let t_overlap = run_multi::<f32>(&mc, &|_, _, _, _| {})
        .expect("run failed")
        .total_time_s;
    assert!(
        t_overlap < t_plain,
        "overlap slower: {t_overlap} vs {t_plain}"
    );
}

#[test]
fn phantom_and_functional_modes_agree_on_timing() {
    // The phantom (timing-only) backend must produce the same simulated
    // schedule as the functional one.
    let mc_f = multi_config(2, 2, 8, 8, OverlapMode::Overlap, 1);
    let mut mc_p = mc_f.clone();
    mc_p.mode = ExecMode::Phantom;
    let t_f = run_multi::<f32>(&mc_f, &|_, _, _, _| {})
        .expect("run failed")
        .total_time_s;
    let t_p = run_multi::<f32>(&mc_p, &|_, _, _, _| {})
        .expect("run failed")
        .total_time_s;
    let rel = ((t_f - t_p) / t_f).abs();
    assert!(rel < 1e-9, "phantom timing diverges: {t_f} vs {t_p}");
}
