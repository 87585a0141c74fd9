//! Performance accounting for the evaluation harnesses.

use vgpu::Profiler;

/// Summary of a profiled run, in the units the paper reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSummary {
    /// Total floating-point operations.
    pub flops: f64,
    /// Kernel-busy simulated seconds.
    pub kernel_seconds: f64,
    /// End-to-end simulated seconds (host clock span).
    pub elapsed_seconds: f64,
    /// Achieved GFlop/s against the elapsed time.
    pub gflops: f64,
    /// Host↔device traffic \[bytes\].
    pub h2d_bytes: f64,
    pub d2h_bytes: f64,
    /// Number of kernel launches.
    pub launches: u64,
}

impl PerfSummary {
    pub fn from_profiler(p: &Profiler, elapsed_seconds: f64) -> Self {
        let (flops, kernel_seconds) = p.flops_and_time();
        PerfSummary {
            flops,
            kernel_seconds,
            elapsed_seconds,
            gflops: if elapsed_seconds > 0.0 {
                flops / elapsed_seconds / 1e9
            } else {
                0.0
            },
            h2d_bytes: p.total_h2d_bytes,
            d2h_bytes: p.total_d2h_bytes,
            launches: p.kernel_launches,
        }
    }
}

/// One row of a per-kernel roofline table (Fig. 5).
#[derive(Debug, Clone)]
pub struct RooflineRow {
    pub name: &'static str,
    pub arithmetic_intensity: f64,
    pub gflops: f64,
    pub calls: u64,
    pub seconds: f64,
}

/// Extract roofline rows for kernels whose name starts with one of the
/// given prefixes, sorted by descending time.
pub fn roofline_rows(p: &Profiler, prefixes: &[&str]) -> Vec<RooflineRow> {
    p.by_name()
        .into_iter()
        .filter(|agg| {
            matches!(agg.kind, vgpu::OpKind::Kernel)
                && (prefixes.is_empty() || prefixes.iter().any(|pre| agg.name.starts_with(pre)))
        })
        .map(|agg| RooflineRow {
            name: agg.name,
            arithmetic_intensity: agg.arithmetic_intensity(),
            gflops: agg.gflops(),
            calls: agg.calls,
            seconds: agg.seconds,
        })
        .collect()
}

/// The paper's Eq. (6) roofline curve: achievable GFlop/s as a function
/// of arithmetic intensity on a device.
pub fn eq6_curve(spec: &vgpu::DeviceSpec, elem_bytes: usize, ai: f64) -> f64 {
    // Per byte of traffic: ai flops. t = ai/Fpeak + 1/Bpeak (+0).
    let fpeak = spec.peak_flops(elem_bytes);
    let bpeak = spec.peak_bw() * spec.achievable_bw_fraction;
    let t = ai / fpeak + 1.0 / bpeak;
    ai / t / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceSpec;

    #[test]
    fn eq6_limits() {
        let s = DeviceSpec::tesla_s1070();
        // Very low AI -> bandwidth-limited: perf ≈ ai * Beff.
        let lo = eq6_curve(&s, 4, 0.01);
        assert!((lo - 0.01 * s.peak_bw() * s.achievable_bw_fraction / 1e9).abs() / lo < 0.01);
        // Very high AI -> approaches peak flops.
        let hi = eq6_curve(&s, 4, 1e4);
        assert!(hi > 0.9 * s.peak_sp_gflops);
        assert!(hi < s.peak_sp_gflops);
    }

    #[test]
    fn summary_computes_gflops() {
        let mut p = Profiler::new();
        p.record(vgpu::OpRecord {
            name: "k",
            kind: vgpu::OpKind::Kernel,
            stream: 0,
            start: 0.0,
            end: 1.0,
            flops: 2.0e9,
            bytes: 1.0,
            lanes: 1,
        });
        let s = PerfSummary::from_profiler(&p, 2.0);
        assert_eq!(s.flops, 2.0e9);
        assert_eq!(s.gflops, 1.0);
        assert_eq!(s.launches, 1);
    }

    #[test]
    fn roofline_filters_by_prefix() {
        let mut p = Profiler::new();
        for (name, flops) in [("advection_u", 10.0), ("halo_u", 0.0)] {
            p.record(vgpu::OpRecord {
                name,
                kind: vgpu::OpKind::Kernel,
                stream: 0,
                start: 0.0,
                end: 0.5,
                flops,
                bytes: 4.0,
                lanes: 1,
            });
        }
        let rows = roofline_rows(&p, &["advection"]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "advection_u");
    }
}
