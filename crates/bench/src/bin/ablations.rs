//! Ablations of the design choices DESIGN.md calls out, on the
//! simulated clock:
//!
//! 1. array ordering — the XZY (coalesced) order vs the CPU's KIJ order
//!    on the GPU (§IV-A.1: "the kij-ordering, which works well on CPUs,
//!    should be avoided on GPUs");
//! 2. shared-memory staging of the advection stencil on vs off (Fig. 3);
//! 3. overlap (methods 1+2+3 together) on vs off at 48 GPUs (§V-A);
//! 4. thread-block shape for the advection kernel (§IV-A.2);
//! 5. single vs double precision for the whole model on one GPU.

use asuca_bench::paper_subdomain;
use asuca_gpu::kernels::advection::{
    advection_shared_mem_bytes, ADV_FLOPS, ADV_READS, ADV_READS_NO_SMEM,
};
use asuca_gpu::multi::{run_multi, MultiGpuConfig, OverlapMode};
use asuca_gpu::SingleGpu;
use cluster::NetworkSpec;
use vgpu::{kernel_time, DeviceSpec, Dim3, ExecMode, KernelCost, Launch};

fn main() {
    let spec = DeviceSpec::tesla_s1070();
    let points = 320u64 * 256 * 48;

    println!("# Ablation 1: array ordering (advection kernel, 320x256x48, single precision)");
    println!("ordering,time_ms,slowdown");
    let cost = KernelCost::streaming(points, ADV_FLOPS, ADV_READS, 1.0);
    let launch = |c: KernelCost| Launch::new("adv", Dim3::new(5, 12, 1), Dim3::new(64, 4, 1), c);
    let t_xzy = kernel_time(&spec, &launch(cost), 4);
    let t_kij = kernel_time(&spec, &launch(cost.with_coalescing(0.0)), 4);
    println!("xzy (x fastest; GPU order),{:.3},1.00x", t_xzy * 1e3);
    println!(
        "kij (z fastest; CPU order),{:.3},{:.2}x",
        t_kij * 1e3,
        t_kij / t_xzy
    );

    println!("\n# Ablation 2: shared-memory stencil staging (advection kernel)");
    println!("variant,time_ms,global_reads_per_point,smem_bytes_per_block");
    let with = KernelCost::streaming(points, ADV_FLOPS, ADV_READS, 1.0);
    let without = KernelCost::streaming(points, ADV_FLOPS, ADV_READS_NO_SMEM, 1.0);
    let tw = kernel_time(&spec, &launch(with), 4);
    let to = kernel_time(&spec, &launch(without), 4);
    println!(
        "shared memory (Fig. 3 tile),{:.3},{},{}",
        tw * 1e3,
        ADV_READS,
        advection_shared_mem_bytes(4)
    );
    println!("global memory only,{:.3},{},0", to * 1e3, ADV_READS_NO_SMEM);
    println!("# speedup from shared memory: {:.2}x", to / tw);

    println!("\n# Ablation 3: overlap on/off at 6x8 = 48 GPUs (phantom, per step ms)");
    println!("schedule,total_ms,compute_ms,mpi_ms");
    let cfg = paper_subdomain(256);
    for (label, overlap) in [
        ("non-overlapping", OverlapMode::None),
        ("overlapping (methods 1+2+3)", OverlapMode::Overlap),
    ] {
        let mc = MultiGpuConfig {
            local_cfg: cfg.clone(),
            px: 6,
            py: 8,
            overlap,
            spec: spec.clone(),
            net: NetworkSpec::tsubame1_infiniband(),
            mode: ExecMode::Phantom,
            steps: 1,
            detailed_profile: false,
        };
        let r = run_multi::<f32>(&mc, &|_, _, _, _| {}).expect("run failed");
        println!(
            "{label},{:.0},{:.0},{:.0}",
            r.total_time_s * 1e3,
            r.compute_s * 1e3,
            r.mpi_s * 1e3
        );
    }

    println!("\n# Ablation 4: thread-block shape for the advection kernel");
    println!("block,time_ms");
    for (bx, by) in [(32u32, 2u32), (64, 4), (128, 2), (256, 1), (16, 16)] {
        let grid = Dim3::new(320u32.div_ceil(bx).max(1), 48u32.div_ceil(by).max(1), 1);
        let l = Launch::new("adv", grid, Dim3::new(bx, by, 1), cost);
        let t = kernel_time(&spec, &l, 4);
        println!("({bx};{by};1),{:.3}", t * 1e3);
    }

    println!("\n# Ablation 5: precision (whole model, single GPU, simulated GFlops)");
    println!("precision,gflops");
    let c = paper_subdomain(128);
    let mut sp = SingleGpu::<f32>::new(c.clone(), spec.clone(), ExecMode::Phantom);
    sp.dev.profiler.reset();
    let t0 = sp.dev.host_time();
    sp.run(1).unwrap();
    let g32 = sp.dev.profiler.total_flops / (sp.dev.host_time() - t0) / 1e9;
    let mut dp = SingleGpu::<f64>::new(c, spec, ExecMode::Phantom);
    dp.dev.profiler.reset();
    let t0 = dp.dev.host_time();
    dp.run(1).unwrap();
    let g64 = dp.dev.profiler.total_flops / (dp.dev.host_time() - t0) / 1e9;
    println!("single,{g32:.1}");
    println!("double,{g64:.1}");
    println!("# DP/SP ratio {:.0}% (paper: ~30%)", g64 / g32 * 100.0);
}
