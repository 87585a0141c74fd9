//! Kernel launch descriptors and the Eq. 6 cost model.

use crate::san::AccessDecl;
use crate::spec::DeviceSpec;

/// CUDA-style 3-component launch dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from(v: (u32, u32, u32)) -> Self {
        Dim3::new(v.0, v.1, v.2)
    }
}

/// Analytic resource usage of one kernel launch, counted per grid point
/// processed (the reproduction's substitute for the paper's PAPI counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Grid points the kernel processes (≠ thread count: the paper's
    /// kernels march in y or z, so one thread handles many points).
    pub points: u64,
    /// Floating-point operations per point.
    pub flops_per_point: f64,
    /// Global-memory elements read per point (after shared-memory reuse;
    /// stencil neighbours staged through shared memory count once).
    pub reads_per_point: f64,
    /// Global-memory elements written per point.
    pub writes_per_point: f64,
    /// Fraction of accesses that are coalesced (1.0 = perfectly
    /// coalesced; 0.0 = fully strided, paying the device's penalty).
    pub coalesced_fraction: f64,
    /// Fraction of the FLOPs that are transcendental (exp/log/pow);
    /// these run on SFUs on the GPU, effectively boosting Fpeak.
    pub transcendental_fraction: f64,
}

impl KernelCost {
    /// A memory-streaming kernel with perfectly coalesced access.
    pub fn streaming(points: u64, flops: f64, reads: f64, writes: f64) -> Self {
        KernelCost {
            points,
            flops_per_point: flops,
            reads_per_point: reads,
            writes_per_point: writes,
            coalesced_fraction: 1.0,
            transcendental_fraction: 0.0,
        }
    }

    pub fn with_coalescing(mut self, fraction: f64) -> Self {
        self.coalesced_fraction = fraction;
        self
    }

    pub fn with_transcendental(mut self, fraction: f64) -> Self {
        self.transcendental_fraction = fraction;
        self
    }

    /// Total floating-point operations of the launch.
    pub fn total_flops(&self) -> f64 {
        self.flops_per_point * self.points as f64
    }

    /// Total global-memory traffic in bytes for elements of `elem_bytes`.
    pub fn total_bytes(&self, elem_bytes: usize) -> f64 {
        (self.reads_per_point + self.writes_per_point) * self.points as f64 * elem_bytes as f64
    }

    /// Arithmetic intensity [Flop/Byte] — the x-axis of the paper's Fig. 5.
    pub fn arithmetic_intensity(&self, elem_bytes: usize) -> f64 {
        self.total_flops() / self.total_bytes(elem_bytes)
    }
}

/// A kernel launch: name, launch configuration and cost.
#[derive(Debug, Clone)]
pub struct Launch {
    pub name: &'static str,
    pub grid: Dim3,
    pub block: Dim3,
    pub cost: KernelCost,
    /// Dynamic shared memory per block \[bytes\] (validated vs. the spec).
    pub shared_mem_per_block: u32,
    /// Elements retired per inner-loop iteration of the Functional body
    /// (1 = scalar walk, `numerics::simd::LANES` = vectorized x-walk).
    /// Purely informational for the profiler: [`KernelCost`] stays
    /// per-*point*, so flops/bytes totals — and therefore
    /// [`kernel_time`] and the fig. 5 roofline — are independent of how
    /// wide the host lanes are (the two-clock rule).
    pub lanes: u32,
    /// Declared read access-set (buffers + element footprints). Used by
    /// the sanitizer's synccheck for precise happens-before audits and
    /// validated against observed accesses under `ASUCA_SAN=strict`.
    pub reads: Vec<AccessDecl>,
    /// Declared write access-set.
    pub writes: Vec<AccessDecl>,
    /// Whether `reading`/`writing` were called — distinguishes "declares
    /// it touches nothing" from "never annotated".
    pub declared: bool,
}

impl Launch {
    pub fn new(
        name: &'static str,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        cost: KernelCost,
    ) -> Self {
        Launch {
            name,
            grid: grid.into(),
            block: block.into(),
            cost,
            shared_mem_per_block: 0,
            lanes: 1,
            reads: Vec::new(),
            writes: Vec::new(),
            declared: false,
        }
    }

    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Builder: declare the buffers (and optionally element footprints)
    /// this kernel reads. Calling either access builder marks the
    /// launch as declared for `ASUCA_SAN=strict` validation.
    pub fn reading(mut self, decls: impl IntoIterator<Item = AccessDecl>) -> Self {
        self.reads.extend(decls);
        self.declared = true;
        self
    }

    /// Builder: declare the buffers this kernel writes.
    pub fn writing(mut self, decls: impl IntoIterator<Item = AccessDecl>) -> Self {
        self.writes.extend(decls);
        self.declared = true;
        self
    }

    /// Builder: record how many elements the body retires per inner-loop
    /// iteration (see [`Launch::lanes`]).
    pub fn with_lanes(mut self, lanes: u32) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Total threads launched.
    pub fn threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }
}

/// Evaluate the execution time \[s\] of a launch on `spec` for elements of
/// `elem_bytes`, per the paper's Eq. (6) extended with coalescing,
/// occupancy and SFU effects:
///
/// ```text
/// t = FLOP / Fpeak_eff  +  Byte / Bpeak_eff  +  α
/// Fpeak_eff = Fpeak(precision) * (1 + (sfu_boost - 1) * transcendental_fraction)
/// Bpeak_eff = Bpeak * coalescing_efficiency * occupancy_efficiency
/// ```
pub fn kernel_time(spec: &DeviceSpec, launch: &Launch, elem_bytes: usize) -> f64 {
    let cost = &launch.cost;
    let flops = cost.total_flops();
    let bytes = cost.total_bytes(elem_bytes);

    let sfu = 1.0 + (spec.sfu_transcendental_boost - 1.0) * cost.transcendental_fraction;
    let fpeak = spec.peak_flops(elem_bytes) * sfu;

    // Mixed coalesced/strided traffic: strided fraction pays the penalty.
    let coalescing_eff = 1.0
        / (cost.coalesced_fraction + (1.0 - cost.coalesced_fraction) * spec.uncoalesced_penalty);

    // Under-filled launches cannot saturate the memory system.
    let occupancy_eff = (launch.threads() as f64 / spec.saturation_threads as f64).min(1.0);
    // Even tiny launches achieve some fraction of peak; floor at 5%.
    let occupancy_eff = occupancy_eff.max(0.05);

    // Warp alignment: an x-block extent that is not a multiple of the
    // 32-thread warp wastes the remainder lanes of each warp (both
    // compute and memory transactions).
    let bx = launch.block.x.max(1);
    let warp_eff = if bx >= 32 { 1.0 } else { bx as f64 / 32.0 };
    let occupancy_eff = occupancy_eff * warp_eff.max(0.25);

    let bpeak = spec.peak_bw() * spec.achievable_bw_fraction * coalescing_eff * occupancy_eff;

    flops / fpeak + bytes / bpeak + spec.launch_overhead_s
}

/// Time \[s\] for a host↔device copy of `bytes` over the PCIe link.
pub fn copy_time(spec: &DeviceSpec, bytes: u64) -> f64 {
    if spec.pcie_bw_gbs.is_infinite() {
        return 0.0;
    }
    spec.pcie_latency_s + bytes as f64 / spec.pcie_bw()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tesla() -> DeviceSpec {
        DeviceSpec::tesla_s1070()
    }

    fn big_launch(cost: KernelCost) -> Launch {
        Launch::new("k", (320 / 64, 48 / 4, 1), (64, 4, 1), cost)
    }

    #[test]
    fn bandwidth_bound_kernel_near_streaming_limit() {
        // 1 flop, 3 elements of traffic: time ≈ bytes / Bpeak.
        let points = 320 * 256 * 48u64;
        let cost = KernelCost::streaming(points, 1.0, 2.0, 1.0);
        // saturate occupancy with a big launch
        let launch = Launch::new("transform", (320 * 256 / 256, 48, 1), (256, 1, 1), cost);
        let t = kernel_time(&tesla(), &launch, 4);
        let ideal = cost.total_bytes(4) / (tesla().peak_bw() * tesla().achievable_bw_fraction);
        assert!(t >= ideal);
        assert!(t < ideal * 1.3, "t={t}, ideal={ideal}");
    }

    #[test]
    fn compute_bound_kernel_near_flop_limit() {
        let points = 1u64 << 22;
        let cost = KernelCost::streaming(points, 400.0, 1.0, 1.0);
        let launch = Launch::new("dense", (4096, 16, 1), (256, 1, 1), cost);
        let t = kernel_time(&tesla(), &launch, 4);
        let ideal = cost.total_flops() / tesla().peak_flops(4);
        assert!(t >= ideal);
        assert!(t < ideal * 1.5, "t={t}, ideal={ideal}");
    }

    #[test]
    fn double_precision_slower_than_single() {
        let points = 320 * 256 * 48u64;
        let cost = KernelCost::streaming(points, 20.0, 6.0, 2.0);
        let launch = big_launch(cost);
        let t_sp = kernel_time(&tesla(), &launch, 4);
        let t_dp = kernel_time(&tesla(), &launch, 8);
        // DP moves 2x the bytes and has 1/8 the peak flops: must be
        // between 2x and 8x slower for a mixed kernel.
        assert!(t_dp > 1.8 * t_sp, "dp={t_dp} sp={t_sp}");
        assert!(t_dp < 8.5 * t_sp);
    }

    #[test]
    fn uncoalesced_access_pays_penalty() {
        let points = 320 * 256 * 48u64;
        let cost = KernelCost::streaming(points, 5.0, 4.0, 1.0);
        let good = Launch::new("xzy", (1280, 12, 1), (64, 4, 1), cost);
        let bad = Launch::new("kij", (1280, 12, 1), (64, 4, 1), cost.with_coalescing(0.0));
        let tg = kernel_time(&tesla(), &good, 4);
        let tb = kernel_time(&tesla(), &bad, 4);
        assert!(tb > 5.0 * tg, "penalty too small: {tb} vs {tg}");
    }

    #[test]
    fn small_launches_lose_efficiency() {
        // Same per-point cost; boundary slab has 64x fewer points AND
        // threads: time per point must be worse.
        let full = KernelCost::streaming(320 * 256 * 48, 10.0, 5.0, 1.0);
        let slab = KernelCost::streaming(320 * 4 * 48, 10.0, 5.0, 1.0);
        let lf = Launch::new("inner", (320 / 64, 256 / 4, 1), (64, 4, 1), full);
        let ls = Launch::new("bound", (320 / 64, 1, 1), (64, 4, 1), slab);
        let tf = kernel_time(&tesla(), &lf, 4) / full.points as f64;
        let ts = kernel_time(&tesla(), &ls, 4) / slab.points as f64;
        assert!(ts > 1.5 * tf, "per-point {ts} vs {tf}");
    }

    #[test]
    fn transcendental_boost_speeds_up_warm_rain_like_kernels() {
        let points = 320 * 256 * 48u64;
        let cost = KernelCost::streaming(points, 150.0, 2.0, 2.0);
        let plain = big_launch(cost);
        let sfu = big_launch(cost.with_transcendental(0.8));
        let tp = kernel_time(&tesla(), &plain, 4);
        let ts = kernel_time(&tesla(), &sfu, 4);
        assert!(ts < tp);
    }

    #[test]
    fn arithmetic_intensity_axis() {
        let cost = KernelCost::streaming(100, 1.0, 2.0, 1.0);
        assert!((cost.arithmetic_intensity(4) - 1.0 / 12.0).abs() < 1e-12);
        assert!((cost.arithmetic_intensity(8) - 1.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn copy_time_scales_with_bytes() {
        let s = tesla();
        let t1 = copy_time(&s, 1 << 20);
        let t2 = copy_time(&s, 1 << 24);
        assert!(t2 > t1 * 10.0);
        assert!(t1 > s.pcie_latency_s);
        assert_eq!(copy_time(&DeviceSpec::opteron_core(), 123456), 0.0);
    }

    #[test]
    fn lane_width_never_changes_simulated_time() {
        // The two-clock rule for SIMD: `lanes` is profiler metadata only;
        // Eq. (6) prices the same launch identically at any lane width.
        let points = 320 * 256 * 48u64;
        let cost = KernelCost::streaming(points, 20.0, 6.0, 2.0);
        let scalar = big_launch(cost);
        let vec4 = big_launch(cost).with_lanes(4);
        assert_eq!(
            kernel_time(&tesla(), &scalar, 8).to_bits(),
            kernel_time(&tesla(), &vec4, 8).to_bits()
        );
        assert_eq!(vec4.lanes, 4);
        assert_eq!(scalar.lanes, 1);
    }

    #[test]
    fn launch_threads_product() {
        let l = Launch::new(
            "k",
            (5, 12, 1),
            (64, 4, 1),
            KernelCost::streaming(1, 1.0, 1.0, 1.0),
        );
        assert_eq!(l.threads(), 5 * 12 * 64 * 4);
    }
}
