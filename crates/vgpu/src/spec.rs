//! Device hardware specifications.
//!
//! Numbers for the Tesla S1070 are taken from §III of the paper; the
//! Fermi numbers feed the TSUBAME 2.0 projection of §VII; the Opteron
//! "device" models one 2.4 GHz core of the TSUBAME 1.2 Sun Fire X4600
//! hosts on which the original Fortran code was measured.

/// Static description of an execution device for the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: &'static str,
    /// Peak single-precision throughput [GFlop/s].
    pub peak_sp_gflops: f64,
    /// Peak double-precision throughput [GFlop/s].
    pub peak_dp_gflops: f64,
    /// Peak device-memory bandwidth [GB/s].
    pub mem_bw_gbs: f64,
    /// Device memory capacity \[bytes\].
    pub mem_capacity: u64,
    /// Number of streaming multiprocessors (1 for a CPU core).
    pub sm_count: u32,
    /// Shared memory per SM \[bytes\].
    pub shared_mem_per_sm: u32,
    /// Device-side fixed overhead per kernel launch \[s\] (the α of Eq. 6).
    pub launch_overhead_s: f64,
    /// Host-side cost of issuing an asynchronous operation \[s\].
    pub host_issue_overhead_s: f64,
    /// Thread count at which memory bandwidth saturates; fewer concurrent
    /// threads proportionally under-utilize the memory system (this is
    /// why the paper's divided boundary kernels are slower, Fig. 9).
    pub saturation_threads: u32,
    /// Host link (PCI-Express) bandwidth [GB/s], per direction.
    pub pcie_bw_gbs: f64,
    /// Host link latency per transfer \[s\].
    pub pcie_latency_s: f64,
    /// Fraction of the theoretical memory bandwidth a well-tuned
    /// streaming kernel actually achieves (DRAM efficiency); ~70% on
    /// GDDR3-era GPUs.
    pub achievable_bw_fraction: f64,
    /// Penalty factor on effective bandwidth for non-coalesced
    /// (strided) global-memory access.
    pub uncoalesced_penalty: f64,
    /// Speed-up factor on transcendental-heavy kernels from the special
    /// function units (SFU); 1.0 on CPU.
    pub sfu_transcendental_boost: f64,
    /// Host worker threads used to execute Functional-mode kernel bodies
    /// in parallel over y-slabs. Affects only the host wall clock of
    /// functional runs — never the simulated timeline.
    pub host_threads: usize,
    /// Whether Functional-mode kernel bodies take their 4-wide SIMD
    /// x-walks (`numerics::simd`) and, on AVX2+FMA hosts, their
    /// `simd_kernel!` AVX2 twins. Bitwise identical to the width-1 walk
    /// by construction; like `host_threads`, affects only the host wall
    /// clock — never the simulated timeline.
    pub host_simd: bool,
}

impl DeviceSpec {
    /// One GPU of an NVIDIA Tesla S1070 (GT200), as used on TSUBAME 1.2:
    /// 30 SMs × 8 SPs @ 1.44 GHz, 4 GB GDDR3 @ 102.4 GB/s (the paper
    /// quotes 691.2 GFlops SP / 86.4 GFlops DP peaks), PCIe Gen1 ×8.
    pub fn tesla_s1070() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla S1070 (GT200)",
            peak_sp_gflops: 691.2,
            peak_dp_gflops: 86.4,
            mem_bw_gbs: 102.4,
            mem_capacity: 4 * 1024 * 1024 * 1024,
            sm_count: 30,
            shared_mem_per_sm: 16 * 1024,
            launch_overhead_s: 8.0e-6,
            host_issue_overhead_s: 4.0e-6,
            saturation_threads: 30 * 512,
            pcie_bw_gbs: 1.6, // PCIe Gen1 x8, effective
            pcie_latency_s: 15.0e-6,
            achievable_bw_fraction: 0.72,
            uncoalesced_penalty: 8.0,
            sfu_transcendental_boost: 1.8,
            host_threads: 1,
            host_simd: false,
        }
    }

    /// One NVIDIA Fermi GPU (M2050-class) of TSUBAME 2.0 (§VII): the
    /// paper conservatively assumes compute/bandwidth similar to the
    /// S1070 but a ≥4× better host/network path; we use published M2050
    /// figures with the paper's interconnect assumption.
    pub fn fermi_m2050() -> Self {
        DeviceSpec {
            name: "NVIDIA Fermi M2050",
            peak_sp_gflops: 1030.0,
            peak_dp_gflops: 515.0,
            mem_bw_gbs: 148.0,
            mem_capacity: 3 * 1024 * 1024 * 1024,
            sm_count: 14,
            shared_mem_per_sm: 48 * 1024,
            launch_overhead_s: 5.0e-6,
            host_issue_overhead_s: 3.0e-6,
            saturation_threads: 14 * 1024,
            pcie_bw_gbs: 6.4, // PCIe Gen2 x16, effective
            pcie_latency_s: 10.0e-6,
            achievable_bw_fraction: 0.75,
            uncoalesced_penalty: 6.0,
            sfu_transcendental_boost: 4.0,
            host_threads: 1,
            host_simd: false,
        }
    }

    /// A single 2.4 GHz AMD Opteron core of a Sun Fire X4600 node, used
    /// as the CPU baseline (the original Fortran code ran on one core).
    /// Peak 4.8 GFlop/s DP (one add + one mul per cycle). The sustained
    /// memory bandwidth is the *effective stencil* bandwidth of one core
    /// on the 16-core shared-memory node (DDR1, shared controllers,
    /// strided z-column accesses): 1.5 GB/s, calibrated so the model's
    /// CPU throughput matches the ~0.53 GFlops the paper measured for
    /// the Fortran code (44.3 GFlops / 83.4× speedup).
    pub fn opteron_core() -> Self {
        DeviceSpec {
            name: "AMD Opteron 2.4 GHz (1 core)",
            peak_sp_gflops: 9.6,
            peak_dp_gflops: 4.8,
            mem_bw_gbs: 1.5,
            mem_capacity: 32 * 1024 * 1024 * 1024,
            sm_count: 1,
            shared_mem_per_sm: 1024 * 1024, // L2 stand-in; unused by the model
            launch_overhead_s: 0.0,
            host_issue_overhead_s: 0.0,
            saturation_threads: 1,
            pcie_bw_gbs: f64::INFINITY, // host memory *is* device memory
            pcie_latency_s: 0.0,
            achievable_bw_fraction: 0.85,
            uncoalesced_penalty: 1.0, // caches hide ordering on CPU
            sfu_transcendental_boost: 1.0,
            host_threads: 1,
            host_simd: false,
        }
    }

    /// Builder: set the number of host worker threads for slab-parallel
    /// Functional-mode kernel execution.
    pub fn with_host_threads(mut self, n: usize) -> Self {
        self.host_threads = n.max(1);
        self
    }

    /// Builder: enable/disable the SIMD lane path for Functional-mode
    /// kernel bodies (results are bitwise identical either way).
    pub fn with_host_simd(mut self, on: bool) -> Self {
        self.host_simd = on;
        self
    }

    /// Peak floating-point throughput [Flop/s] for an element size.
    pub fn peak_flops(&self, elem_bytes: usize) -> f64 {
        let gf = if elem_bytes <= 4 {
            self.peak_sp_gflops
        } else {
            self.peak_dp_gflops
        };
        gf * 1.0e9
    }

    /// Peak memory bandwidth [B/s].
    pub fn peak_bw(&self) -> f64 {
        self.mem_bw_gbs * 1.0e9
    }

    /// Host-link bandwidth [B/s].
    pub fn pcie_bw(&self) -> f64 {
        self.pcie_bw_gbs * 1.0e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tesla_matches_paper_quotes() {
        let t = DeviceSpec::tesla_s1070();
        assert_eq!(t.peak_sp_gflops, 691.2);
        assert_eq!(t.peak_dp_gflops, 86.4);
        assert_eq!(t.mem_bw_gbs, 102.4);
        assert_eq!(t.mem_capacity, 4 << 30);
        assert_eq!(t.sm_count, 30);
        assert_eq!(t.shared_mem_per_sm, 16 * 1024);
    }

    #[test]
    fn precision_selects_peak() {
        let t = DeviceSpec::tesla_s1070();
        assert_eq!(t.peak_flops(4), 691.2e9);
        assert_eq!(t.peak_flops(8), 86.4e9);
    }

    #[test]
    fn sp_dp_ratio_is_8x_on_tesla() {
        // One DP unit vs eight SP units per SM (discussed in §IV-B).
        let t = DeviceSpec::tesla_s1070();
        assert!((t.peak_sp_gflops / t.peak_dp_gflops - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_core_is_much_slower_than_gpu() {
        let g = DeviceSpec::tesla_s1070();
        let c = DeviceSpec::opteron_core();
        assert!(g.peak_bw() / c.peak_bw() > 20.0);
        assert!(g.peak_flops(8) / c.peak_flops(8) > 15.0);
    }
}
