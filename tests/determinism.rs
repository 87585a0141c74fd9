//! The slab-parallel launch path's contract: host worker threads and
//! SIMD x-walks change only the wall clock of a Functional run — never
//! the results and never the simulated timeline. Every prognostic field
//! must be *bitwise* identical for any thread count and either lane
//! setting (each grid point is computed by exactly one worker from the
//! same inputs with the same operation order, and every lane op is the
//! same scalar op per element, so there is no rounding ambiguity to
//! hide behind). The matrix runs in both precisions, and on grids
//! whose x-extent is not a multiple of the lane width, so the 8-wide
//! pass and the width-1 remainder meet inside every row.

use asuca_gpu::SingleGpu;
use dycore::config::ModelConfig;
use dycore::{init, Model};
use numerics::Real;
use vgpu::{Device, DeviceSpec, ExecMode, KernelCost, Launch, StreamId};

fn run_with<R: Real>(
    (nx, ny, nz): (usize, usize, usize),
    threads: usize,
    simd: bool,
    steps: usize,
) -> (dycore::State, f64) {
    let mut cfg = ModelConfig::mountain_wave(nx, ny, nz);
    cfg.dt = 4.0;
    cfg.threads = threads;
    // Pin the lane path explicitly so the matrix below is independent of
    // the ASUCA_SIMD environment and the host CPU.
    cfg.simd = Some(simd);
    // Identical initial state on every run.
    let mut seed = Model::new(cfg.clone());
    init::warm_moist_bubble(&mut seed, 1.5, 0.95, 0.5, 0.5, 0.3, 3.5);
    let mut gpu = SingleGpu::<R>::new(cfg.clone(), DeviceSpec::tesla_s1070(), ExecMode::Functional);
    gpu.load_state(&seed.state).unwrap();
    gpu.run(steps).unwrap();
    let mut out = dycore::State::zeros(&gpu.grid, cfg.n_tracers);
    gpu.save_state(&mut out);
    (out, gpu.dev.host_time())
}

/// FNV-1a over the raw bit patterns of every prognostic field — a
/// byte-identical checksum, stricter in spirit than per-field max_diff
/// (it also pins NaN payloads and signed zeros).
fn state_checksum(s: &dycore::State) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |f: &numerics::Field3<f64>| {
        for v in f.raw() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
    };
    eat(&s.rho);
    eat(&s.u);
    eat(&s.v);
    eat(&s.w);
    eat(&s.th);
    eat(&s.p);
    for q in &s.q {
        eat(q);
    }
    h
}

fn assert_states_identical(base: &dycore::State, other: &dycore::State, label: &str) {
    let pairs: Vec<(&str, f64)> = vec![
        ("rho", base.rho.max_diff(&other.rho)),
        ("u", base.u.max_diff(&other.u)),
        ("v", base.v.max_diff(&other.v)),
        ("w", base.w.max_diff(&other.w)),
        ("th", base.th.max_diff(&other.th)),
        ("p", base.p.max_diff(&other.p)),
        ("qv", base.q[0].max_diff(&other.q[0])),
        ("qc", base.q[1].max_diff(&other.q[1])),
        ("qr", base.q[2].max_diff(&other.q[2])),
    ];
    for (name, diff) in pairs {
        assert_eq!(
            diff, 0.0,
            "field {name} not bitwise identical at {label} (max diff {diff:e})"
        );
    }
    assert_eq!(
        state_checksum(base),
        state_checksum(other),
        "state bytes differ at {label}"
    );
}

#[test]
fn thread_count_and_simd_never_change_results_or_simulated_time() {
    // 16 is a multiple of the lane width; 18 leaves a width-1 remainder
    // of 2 in every interior row, and 21 one of 5 (6 in the 22-point
    // walks over a row's x faces). The checksums of the
    // single-threaded width-1 base runs were recorded from the
    // hand-written scalar loops that preceded the shared kernel bodies
    // (16 and 18) and from the code before the lanes went 8 wide (21),
    // so a change to a body that moves bits at every width
    // still fails here. They hold for x86-64 Linux; another libm may
    // round `powf`/`exp` differently.
    for (grid, sum_f64, sum_f32) in [
        ((16, 12, 10), 0xe93f_fef3_d609_a53d, 0xc60f_80bf_82a0_a8b9),
        ((18, 12, 10), 0x31c5_3f84_b680_41f0, 0xb7ba_7684_f1a3_dba5),
        ((21, 12, 10), 0x6bf8_1117_a349_6b2c, 0xa36d_622f_273b_e04b),
    ] {
        threads_by_simd_matrix::<f64>(grid, sum_f64);
        threads_by_simd_matrix::<f32>(grid, sum_f32);
    }
}

/// Full matrix: threads {1, 2, 3, 8} × SIMD {off, on}, all against the
/// single-threaded width-1 walk, in precision `R`, whose state must
/// hash to `base_checksum`.
fn threads_by_simd_matrix<R: Real>(grid: (usize, usize, usize), base_checksum: u64) {
    let steps = 12;
    let (base, t1) = run_with::<R>(grid, 1, false, steps);
    assert_eq!(base.find_non_finite(), None);
    assert_eq!(
        state_checksum(&base),
        base_checksum,
        "{} {grid:?} base run moved off its recorded bits",
        R::PRECISION
    );
    for threads in [1, 2, 3, 8] {
        for simd in [false, true] {
            if threads == 1 && !simd {
                continue;
            }
            let (par, tn) = run_with::<R>(grid, threads, simd, steps);
            assert_eq!(par.find_non_finite(), None);
            let label = format!("{} {grid:?} threads={threads} simd={simd}", R::PRECISION);
            assert_states_identical(&base, &par, &label);
            // Neither host parallelism nor host lane width may touch
            // the simulated GT200 timeline, to the last bit.
            assert_eq!(t1, tn, "simulated time changed with {label}");
        }
    }
}

/// The worker pool is created once per device and every subsequent
/// `launch_par` reuses the same parked OS threads — no per-launch
/// spawns, and the slab → thread assignment is static (slab 0 always on
/// the submitting thread).
#[test]
fn consecutive_launches_reuse_the_same_worker_threads() {
    use std::collections::{HashMap, HashSet};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    let mut dev = Device::<f64>::new(
        DeviceSpec::tesla_s1070().with_host_threads(3),
        ExecMode::Functional,
    );
    let cost = KernelCost::streaming(3, 1.0, 1.0, 1.0);
    let record = |dev: &mut Device<f64>| -> HashMap<usize, ThreadId> {
        let seen: Mutex<HashMap<usize, ThreadId>> = Mutex::new(HashMap::new());
        dev.launch_par(
            StreamId::DEFAULT,
            Launch::new("pool_probe", (1, 1, 1), (1, 1, 1), cost),
            3,
            |_mem, j0, _j1| {
                seen.lock().unwrap().insert(j0, std::thread::current().id());
            },
        )
        .unwrap();
        seen.into_inner().unwrap()
    };
    let first = record(&mut dev);
    let second = record(&mut dev);
    assert_eq!(first.len(), 3, "expected one slab per pool participant");
    let distinct: HashSet<&ThreadId> = first.values().collect();
    assert_eq!(distinct.len(), 3, "slabs must run on distinct threads");
    assert_eq!(
        first[&0],
        std::thread::current().id(),
        "slab 0 must run inline on the submitting thread"
    );
    assert_eq!(
        first, second,
        "a second launch_par must reuse the exact same worker threads"
    );
    assert!(
        dev.worker_pool().is_some(),
        "multi-threaded Functional launches must instantiate the persistent pool"
    );
}
