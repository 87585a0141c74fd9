//! `ASUCA_SAN=full` over the decomposed multi-rank schedule (the
//! Fig. 10 weak-scaling shape, small): the overlap optimizations —
//! inner kernels racing ahead of boundary exchanges on separate streams
//! — must certify clean, and the sanitizer must not perturb a single
//! bit of the solution.
//!
//! This lives in its own integration-test binary because the sanitizer
//! is installed per-rank from the `ASUCA_SAN` environment variable at
//! device creation; a dedicated process keeps the variable from leaking
//! into unrelated tests.

use asuca_gpu::multi::{run_multi, MultiGpuConfig, MultiGpuReport, OverlapMode};
use cluster::NetworkSpec;
use dycore::config::{ModelConfig, Terrain};
use dycore::grid::Grid;
use dycore::State;
use vgpu::{DeviceSpec, ExecMode};

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

fn run_2x2(overlap: OverlapMode) -> MultiGpuReport {
    let (px, py, sub, nz, steps) = (2usize, 2usize, 16usize, 8usize, 2usize);
    let mut local = ModelConfig::mountain_wave(sub, sub, nz);
    local.terrain = Terrain::Flat;
    local.dt = 4.0;
    let mc = MultiGpuConfig {
        local_cfg: local,
        px,
        py,
        overlap,
        spec: DeviceSpec::tesla_s1070(),
        net: NetworkSpec::tsubame1_infiniband(),
        mode: ExecMode::Functional,
        steps,
        detailed_profile: false,
    };
    let (gnx, gny) = (px * sub, py * sub);
    run_multi::<f64>(&mc, &move |rank, grid, _base, s| {
        let d = asuca_gpu::decomp::Decomp::disjoint(px, py, sub, sub, nz);
        let (x0, y0) = d.origin_disjoint(rank);
        seeded_init(grid, s, x0, y0, gnx, gny);
    })
    .expect("run failed")
}

fn states_checksum(states: &[State]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in states {
        for f in [&s.rho, &s.u, &s.v, &s.w, &s.th, &s.p] {
            for v in f.raw() {
                for b in v.to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
    }
    h
}

/// Both overlap schedules certify clean under the full and the strict
/// sanitizer and are bitwise identical to the sanitizer-off run. Strict
/// audits each split kernel's body where it runs (the `.by` member of a
/// logical launch) against that member's declarations. Both legs live
/// in one test because `ASUCA_SAN` is process-wide.
#[test]
fn full_sanitizer_is_clean_on_multi_rank_overlap() {
    for overlap in [OverlapMode::None, OverlapMode::Overlap] {
        std::env::remove_var("ASUCA_SAN");
        let gold = run_2x2(overlap);
        assert_eq!(gold.san_findings, 0, "sanitizer off reports nothing");
        let gold_sum = states_checksum(gold.final_states.as_ref().expect("functional states"));

        for mode in ["full", "strict"] {
            std::env::set_var("ASUCA_SAN", mode);
            let audited = run_2x2(overlap);
            std::env::remove_var("ASUCA_SAN");
            assert_eq!(
                audited.san_findings, 0,
                "{mode} sanitizer found issues in the {overlap:?} multi-rank schedule \
                 (per-rank reports on stderr)"
            );
            let audited_sum =
                states_checksum(audited.final_states.as_ref().expect("functional states"));
            assert_eq!(
                audited_sum, gold_sum,
                "{mode} sanitizer perturbed the {overlap:?} multi-rank run"
            );
        }
    }
}
