//! Metric names, units and the one-line JSON result.
//!
//! The metric lists here are the benchmark's schema: `BENCHMARK.json`
//! at the repository root declares the same names (a test checks that
//! the two agree), and a run prints exactly the end-to-end set
//! (`--trace 0`) or exactly the per-layer set (`--trace 1`).

use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: (name, unit). The
/// times are process CPU seconds (see [`crate::e2e`]).
pub const END_TO_END: [(&str, &str); 3] = [
    ("step_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The kernel modules of `asuca_gpu::kernels` that the traced replay
/// times one by one.
pub const MODULES: [&str; 8] = [
    "advection",
    "helmholtz",
    "eos",
    "pgf",
    "tend",
    "transform",
    "physics",
    "boundary",
];

/// Per-module columns of the traced table: (suffix, unit). The
/// boundary module does no arithmetic, so it has no `host_gflops`.
pub const KERNEL_COLUMNS: [(&str, &str); 7] = [
    ("wall_s_per_step", "s"),
    ("share", "frac"),
    ("calls_per_step", "count"),
    ("sim_s_per_step", "sim_s"),
    ("host_gflops", "GFlop/s"),
    ("host_gbps_computed", "GB/s"),
    ("pool_eff", "frac"),
];

/// Per-layer metrics outside the kernel table: (name, unit).
pub const LAYER_EXTRA: [(&str, &str); 22] = [
    ("numerics.limiter.ns_per_face_scalar", "ns"),
    ("numerics.limiter.ns_per_face_lanes", "ns"),
    ("vgpu.launch_us_t1", "us"),
    ("vgpu.launch_us_t2", "us"),
    ("vgpu.phantom_launch_us", "us"),
    ("fields.upload_s", "s"),
    ("fields.download_s", "s"),
    ("geom.build_s", "s"),
    ("halo.exchange_s", "s"),
    ("halo.bytes_per_exchange", "B"),
    ("cluster.msg_us", "us"),
    ("multi.sim_mpi_s_per_step", "sim_s"),
    ("multi.overlap_wall_ratio", "ratio"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.bytes", "B"),
    ("monitor.check_s", "s"),
    ("single.orchestration_s_per_step", "s"),
    ("single.coverage", "frac"),
    ("sim.s_per_step", "sim_s"),
    ("sim.gflops", "sim_GFlop/s"),
    ("trace.overhead_frac", "frac"),
];

/// Whether `module` reports `column`.
pub fn has_column(module: &str, column: &str) -> bool {
    !(module == "boundary" && column == "host_gflops")
}

/// Name of one kernel-table metric.
pub fn kernel_metric(module: &str, column: &str) -> String {
    format!("kernels.{module}.{column}")
}

/// Every per-layer metric in output order: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for m in MODULES {
        for (c, unit) in KERNEL_COLUMNS {
            if has_column(m, c) {
                v.push((kernel_metric(m, c), unit));
            }
        }
    }
    v.extend(LAYER_EXTRA.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// The metric set a run must print for the given trace setting.
pub fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters from letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 characters from letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Long steps attempted (every step whose output was checked).
    pub attempted: u64,
    /// Steps that returned `Err` or failed an output check.
    pub failed: u64,
    /// Metric values by name, in output order.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Count `n` steps whose outputs are about to be checked.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a failed check of already counted steps, with its reason
    /// on stderr (a step failing two checks still counts once).
    pub fn fail(&mut self, steps: u64, why: &str) {
        eprintln!("perfbench: check failed: {why}");
        self.failed = (self.failed + steps).min(self.attempted);
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with the metrics in `expected` order. Errors if a
    /// metric is missing, extra or not a finite number.
    pub fn to_json(&self, expected: &[(String, &'static str)]) -> Result<String, String> {
        if self.metrics.len() != expected.len() {
            return Err(format!(
                "{} metrics measured, {} expected",
                self.metrics.len(),
                expected.len()
            ));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (n, (name, unit)) in expected.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            let sep = if n == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
