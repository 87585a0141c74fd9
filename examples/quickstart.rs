//! Quickstart: run the ASUCA-like model on the GPU port end-to-end.
//!
//! Builds a small mountain-wave case, runs it on the CPU reference and
//! on the (simulated) GPU in double precision, verifies agreement to
//! round-off — the paper's §I correctness claim — and prints the
//! simulated performance numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use asuca_gpu::SingleGpu;
use dycore::config::ModelConfig;
use dycore::{init, Model};
use vgpu::{DeviceSpec, ExecMode};

fn main() {
    // A small version of the paper's mountain-wave benchmark (§IV-B):
    // bell-shaped ridge, 10 m/s inflow, warm-rain microphysics on.
    let mut cfg = ModelConfig::mountain_wave(48, 16, 16);
    cfg.dt = 4.0;
    println!(
        "grid {}x{}x{}, dt = {} s, limiter = {:?}",
        cfg.nx, cfg.ny, cfg.nz, cfg.dt, cfg.limiter
    );

    // CPU reference (the "original Fortran code" stand-in).
    let mut cpu = Model::new(cfg.clone());
    init::mountain_wave_inflow(&mut cpu, 10.0);

    // Full GPU port, fed the identical initial state.
    let mut gpu =
        SingleGpu::<f64>::new(cfg.clone(), DeviceSpec::tesla_s1070(), ExecMode::Functional);
    gpu.load_state(&cpu.state).unwrap();

    let steps = 5;
    for n in 1..=steps {
        let stats = cpu.step();
        gpu.step().unwrap();
        println!(
            "step {n}: t = {:>5.0} s  max|u| = {:.2} m/s  max|w| = {:.3} m/s  mass = {:.6e}",
            stats.time, stats.max_u, stats.max_w, stats.total_mass
        );
    }

    // Download the GPU result and compare.
    let mut gpu_state = dycore::State::zeros(&gpu.grid, cfg.n_tracers);
    gpu.save_state(&mut gpu_state);
    let diff_u = cpu.state.u.max_diff(&gpu_state.u);
    let diff_th = cpu.state.th.max_diff(&gpu_state.th);
    println!("\nGPU vs CPU after {steps} steps: max|Δu| = {diff_u:.3e}, max|ΔΘ| = {diff_th:.3e}");
    assert!(
        diff_u < 1e-8 && diff_th < 1e-6,
        "GPU port diverged from the CPU reference"
    );
    println!("agreement within machine round-off — the paper's correctness check holds.");

    // Simulated performance on the Tesla S1070 model.
    let (flops, ksecs) = gpu.dev.profiler.flops_and_time();
    println!(
        "\nsimulated GPU: {:.2e} flops in {:.1} ms of kernel time -> {:.1} GFlops (double precision)",
        flops,
        ksecs * 1e3,
        flops / ksecs / 1e9
    );
    println!("(run the crates/bench harnesses to reproduce the paper's figures)");
}
