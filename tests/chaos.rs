//! Chaos matrix: every injected-fault scenario must *recover* — the
//! run completes and its final prognostic state is bitwise identical
//! to the fault-free run's (fault injection perturbs only the
//! simulated timeline, never data; see DESIGN.md §10).
//!
//! Scenarios {message drops, ECC retries, OOM degrade, rank death +
//! restart, straggler} are each crossed with both overlap modes. A
//! single-GPU device loss checks the same contract for `SingleGpu::run`.

use asuca_gpu::multi::{run_multi, MultiGpuConfig, MultiGpuReport, OverlapMode};
use asuca_gpu::SingleGpu;
use cluster::NetworkSpec;
use dycore::config::{FaultConfig, ModelConfig, Terrain};
use dycore::state::fnv1a;
use dycore::{Grid, State};
use vgpu::{DeviceSpec, ExecMode, FaultSpec};

const PX: usize = 2;
const PY: usize = 2;
const SUB_NX: usize = 8;
const SUB_NY: usize = 6;
const NZ: usize = 8;
const STEPS: usize = 6;

/// Deterministic thermal + moisture anomaly from global coordinates,
/// so every rank seeds its piece of the same global field.
fn seeded_init(grid: &Grid, s: &mut State, x0: usize, y0: usize) {
    let (gnx, gny) = (PX * SUB_NX, PY * SUB_NY);
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

fn config(overlap: OverlapMode, fault: Option<FaultConfig>) -> MultiGpuConfig {
    let mut local = ModelConfig::mountain_wave(SUB_NX, SUB_NY, NZ);
    local.terrain = Terrain::Flat;
    local.dt = 4.0;
    // Pin the robustness knobs so the test is independent of
    // ASUCA_FAULT_SEED / ASUCA_CHECKPOINT_EVERY in the environment.
    local.fault = fault;
    local.checkpoint_every = 2;
    local.guard_every = 0;
    MultiGpuConfig {
        local_cfg: local,
        px: PX,
        py: PY,
        overlap,
        spec: DeviceSpec::tesla_s1070(),
        net: NetworkSpec::tsubame1_infiniband(),
        mode: ExecMode::Functional,
        steps: STEPS,
        detailed_profile: true,
    }
}

fn run(overlap: OverlapMode, fault: Option<FaultConfig>) -> MultiGpuReport {
    let mc = config(overlap, fault);
    run_multi::<f64>(&mc, &|rank, grid, _base, s| {
        let d = asuca_gpu::decomp::Decomp::disjoint(PX, PY, SUB_NX, SUB_NY, NZ);
        let (x0, y0) = d.origin_disjoint(rank);
        seeded_init(grid, s, x0, y0);
    })
    .expect("chaos run must recover, not fail")
}

/// One fingerprint over all ranks' final prognostic interiors.
fn final_checksum(report: &MultiGpuReport) -> u64 {
    let states = report.final_states.as_ref().expect("functional mode");
    fnv1a(states.iter().map(|s| s.checksum()))
}

fn baseline(overlap: OverlapMode) -> u64 {
    final_checksum(&run(overlap, None))
}

fn assert_recovers_bitwise(fault: FaultConfig, check: impl Fn(&MultiGpuReport, OverlapMode)) {
    for overlap in [OverlapMode::None, OverlapMode::Overlap] {
        let gold = baseline(overlap);
        let report = run(overlap, Some(fault));
        assert_eq!(
            final_checksum(&report),
            gold,
            "recovered state must be bitwise identical to fault-free ({overlap:?})"
        );
        check(&report, overlap);
    }
}

#[test]
fn message_drops_and_delays_recover_bitwise() {
    let f = FaultConfig {
        drop_rate: 0.25,
        delay_rate: 0.2,
        delay_s: 200.0e-6,
        ..FaultConfig::quiet(1007)
    };
    assert_recovers_bitwise(f, |r, o| {
        assert!(
            r.faults_injected > 0,
            "drop/delay schedule must actually fire ({o:?})"
        );
        assert!(r.retries > 0, "drops must be recovered by resends ({o:?})");
    });
}

#[test]
fn ecc_retries_recover_bitwise() {
    let f = FaultConfig {
        ecc_rate: 0.1,
        ..FaultConfig::quiet(2038)
    };
    assert_recovers_bitwise(f, |r, o| {
        assert!(r.faults_injected > 0, "ECC events must fire ({o:?})");
        assert!(r.retries > 0, "ECC events must be retried ({o:?})");
    });
}

#[test]
fn injected_oom_degrades_profiling_not_results() {
    let f = FaultConfig {
        oom_rate: 1.0,
        ..FaultConfig::quiet(3999)
    };
    assert_recovers_bitwise(f, |r, o| {
        assert!(
            r.profile_degraded,
            "injected OOM must downgrade detailed profiling ({o:?})"
        );
        assert!(
            r.faults_injected > 0,
            "OOM injection must be counted ({o:?})"
        );
    });
}

#[test]
fn rank_death_restarts_from_checkpoint_bitwise() {
    let f = FaultConfig {
        death: Some((1, 3)),
        respawn_penalty_s: 0.05,
        ..FaultConfig::quiet(4242)
    };
    assert_recovers_bitwise(f, |r, o| {
        assert!(
            r.restarts >= 1,
            "rank death must force a checkpoint rollback ({o:?})"
        );
    });
}

#[test]
fn straggler_is_detected_and_timing_only() {
    let f = FaultConfig {
        straggler_rank: Some(1),
        straggler_slowdown: 5.0,
        ..FaultConfig::quiet(5151)
    };
    assert_recovers_bitwise(f, |r, o| {
        assert!(
            r.stragglers > 0,
            "heartbeats must flag the straggling rank ({o:?})"
        );
        assert!(r.faults_injected > 0, "slowdowns must be counted ({o:?})");
    });
}

#[test]
fn faulty_runs_cost_more_simulated_time_than_fault_free() {
    // Injection must show up on the simulated clock (retries, resends
    // and rollbacks all cost virtual time) even though data is
    // untouched.
    let base = run(OverlapMode::None, None).total_time_s;
    let f = FaultConfig {
        ecc_rate: 0.1,
        drop_rate: 0.25,
        ..FaultConfig::quiet(1007)
    };
    let faulty = run(OverlapMode::None, Some(f)).total_time_s;
    assert!(
        faulty > base,
        "fault recovery must cost simulated time: {faulty} <= {base}"
    );
}

/// Single-GPU run of `steps` steps on one 16×12×8 domain, seeded like
/// the decomposed runs; `lost_op` loses the device at that launch of
/// the run. Returns the final state's checksum and the restart count.
fn single_run(lost_op: Option<u64>, steps: usize) -> (u64, u64) {
    let mut cfg = ModelConfig::mountain_wave(16, 12, NZ);
    cfg.terrain = Terrain::Flat;
    cfg.dt = 4.0;
    cfg.fault = None;
    cfg.checkpoint_every = 3;
    cfg.guard_every = 0;
    let mut gpu =
        SingleGpu::<f64>::new(cfg.clone(), DeviceSpec::tesla_s1070(), ExecMode::Functional);
    let mut s = State::zeros(&gpu.grid, cfg.n_tracers);
    dycore::model::install_base_state(&gpu.grid, &gpu.base, &mut s);
    seeded_init(&gpu.grid, &mut s, 0, 0);
    gpu.load_state(&s).expect("upload");
    if let Some(k) = lost_op {
        gpu.dev.set_fault_plan(FaultSpec {
            device_lost_op: Some(k),
            ..FaultSpec::quiet(77, 0)
        });
    }
    gpu.run(steps)
        .expect("device loss must recover from the step-0 checkpoint");
    let mut out = State::zeros(&gpu.grid, cfg.n_tracers);
    gpu.save_state(&mut out);
    (out.checksum(), gpu.restarts)
}

#[test]
fn single_gpu_device_loss_before_first_checkpoint_recovers_bitwise() {
    // Launch 40 falls inside step 1, before the first periodic
    // checkpoint at step 3: only the setup's step-0 checkpoint can
    // recover it.
    let (gold, clean_restarts) = single_run(None, 4);
    assert_eq!(clean_restarts, 0);
    let (got, restarts) = single_run(Some(40), 4);
    assert_eq!(restarts, 1, "device loss must force exactly one rollback");
    assert_eq!(
        got, gold,
        "recovered state must be bitwise identical to fault-free"
    );
}
