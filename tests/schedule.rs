//! Schedule fingerprints: the launch sequence of both drivers, pinned
//! bit for bit on the simulated clock.
//!
//! Each constant hashes a Phantom run's schedule (FNV-1a). The
//! single-GPU fingerprint covers every profiler record in issue order:
//! name, kind, stream and the bit patterns of its start and end times.
//! The multi-GPU fingerprints cover rank 0's per-kernel breakdown and
//! the bit patterns of the report's time and flop totals. Any change to
//! a launch name, its order, its stream or its cost moves a constant;
//! a refactor of the drivers must leave all three unchanged.

use asuca_gpu::multi::{run_multi, MultiGpuConfig, MultiGpuReport, OverlapMode};
use asuca_gpu::SingleGpu;
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use dycore::state::{fnv1a, fnv1a_u64};
use vgpu::{DeviceSpec, ExecMode};

const SINGLE_64X64X32: u64 = 0x254d_f957_023d_bede;
const MULTI_2X2_SERIAL: u64 = 0x1fd9_e0f8_9c72_9080;
const MULTI_2X2_OVERLAP: u64 = 0xe42e_a8b5_6021_b61a;

/// Mountain-wave configuration with microphysics, the environment
/// knobs (fault injection, checkpoint and guard cadence) pinned off.
fn config(nx: usize, ny: usize, nz: usize) -> ModelConfig {
    let mut cfg = ModelConfig::mountain_wave(nx, ny, nz);
    assert!(cfg.microphysics && cfg.n_tracers >= 3);
    cfg.threads = 1;
    cfg.fault = None;
    cfg.checkpoint_every = 0;
    cfg.guard_every = 0;
    cfg
}

fn hash_str(h: u64, s: &str) -> u64 {
    let h = s.bytes().fold(h, |h, b| fnv1a_u64(h, b as u64));
    // Terminate, so adjacent names cannot run together.
    fnv1a_u64(h, u64::MAX)
}

fn single_fingerprint() -> u64 {
    let mut gpu = SingleGpu::<f64>::new(
        config(64, 64, 32),
        DeviceSpec::tesla_s1070(),
        ExecMode::Phantom,
    );
    gpu.run(2).expect("phantom run");
    gpu.dev.profiler.records().iter().fold(fnv1a([]), |h, r| {
        let h = hash_str(h, r.name);
        let h = hash_str(h, &format!("{:?}", r.kind));
        fnv1a([h, r.stream as u64, r.start.to_bits(), r.end.to_bits()])
    })
}

fn multi_report(overlap: OverlapMode) -> MultiGpuReport {
    let mc = MultiGpuConfig {
        local_cfg: config(64, 64, 32),
        px: 2,
        py: 2,
        overlap,
        spec: DeviceSpec::tesla_s1070(),
        net: NetworkSpec::tsubame1_infiniband(),
        mode: ExecMode::Phantom,
        steps: 2,
        detailed_profile: true,
    };
    run_multi::<f64>(&mc, &|_, _, _, _| {}).expect("phantom run")
}

fn multi_fingerprint(overlap: OverlapMode) -> u64 {
    let rep = multi_report(overlap);
    // The breakdown is ordered by seconds; ties come out of a hash map,
    // so hash it in name order.
    let mut rows = rep.kernel_breakdown.clone();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let h = rows.iter().fold(fnv1a([]), |h, (name, calls, secs)| {
        fnv1a([hash_str(h, name), *calls, secs.to_bits()])
    });
    fnv1a([
        h,
        rep.total_time_s.to_bits(),
        rep.compute_s.to_bits(),
        rep.mpi_s.to_bits(),
        rep.pcie_s.to_bits(),
        rep.total_flops.to_bits(),
    ])
}

#[test]
fn single_gpu_schedule_is_pinned() {
    let got = single_fingerprint();
    assert_eq!(
        got, SINGLE_64X64X32,
        "single-GPU schedule moved: {got:#018x}"
    );
}

#[test]
fn multi_gpu_serial_schedule_is_pinned() {
    let got = multi_fingerprint(OverlapMode::None);
    assert_eq!(
        got, MULTI_2X2_SERIAL,
        "serial multi-GPU schedule moved: {got:#018x}"
    );
}

#[test]
fn multi_gpu_overlap_schedule_is_pinned() {
    let got = multi_fingerprint(OverlapMode::Overlap);
    assert_eq!(
        got, MULTI_2X2_OVERLAP,
        "overlap multi-GPU schedule moved: {got:#018x}"
    );
}
