//! Execution profiler: records every simulated operation so the figure
//! harnesses can reconstruct the paper's per-kernel breakdowns (Figs. 5,
//! 9, 11) and aggregate GFlops (Figs. 4, 10).

/// Kind of a recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Kernel,
    CopyH2D,
    CopyD2H,
}

/// One operation on the simulated timeline.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub name: &'static str,
    pub kind: OpKind,
    pub stream: u32,
    /// Simulated start time \[s\].
    pub start: f64,
    /// Simulated end time \[s\].
    pub end: f64,
    /// Floating-point operations performed (kernels only).
    pub flops: f64,
    /// Bytes moved (global memory for kernels, link bytes for copies).
    pub bytes: f64,
    /// Elements retired per Functional inner-loop iteration (1 = scalar,
    /// 4 = SIMD x-walk). `flops`/`bytes` are whole-launch totals counted
    /// per grid *point*, so they are already lane-width-invariant; this
    /// field lets per-iteration accounting divide correctly.
    pub lanes: u32,
}

impl OpRecord {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Accumulating profiler attached to a device.
#[derive(Debug, Default, Clone)]
pub struct Profiler {
    records: Vec<OpRecord>,
    enabled: bool,
    /// Totals survive even when detailed records are disabled.
    pub total_flops: f64,
    pub total_kernel_time: f64,
    pub total_h2d_bytes: f64,
    pub total_d2h_bytes: f64,
    /// Copy-engine busy time (both directions) \[s\].
    pub total_copy_time: f64,
    pub kernel_launches: u64,
}

impl Profiler {
    pub fn new() -> Self {
        Profiler {
            enabled: true,
            ..Default::default()
        }
    }

    /// Disable per-op record retention (totals still accumulate) —
    /// keeps long phantom runs cheap.
    pub fn set_detailed(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record one operation (public so tests and external harnesses can
    /// synthesize profiles).
    pub fn record(&mut self, rec: OpRecord) {
        match rec.kind {
            OpKind::Kernel => {
                self.total_flops += rec.flops;
                self.total_kernel_time += rec.duration();
                self.kernel_launches += 1;
            }
            OpKind::CopyH2D => {
                self.total_h2d_bytes += rec.bytes;
                self.total_copy_time += rec.duration();
            }
            OpKind::CopyD2H => {
                self.total_d2h_bytes += rec.bytes;
                self.total_copy_time += rec.duration();
            }
        }
        if self.enabled {
            self.records.push(rec);
        }
    }

    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Clear all records and totals.
    pub fn reset(&mut self) {
        self.records.clear();
        self.total_flops = 0.0;
        self.total_kernel_time = 0.0;
        self.total_h2d_bytes = 0.0;
        self.total_d2h_bytes = 0.0;
        self.total_copy_time = 0.0;
        self.kernel_launches = 0;
    }

    /// Sum of durations of operations whose name passes `pred`.
    pub fn time_where(&self, mut pred: impl FnMut(&OpRecord) -> bool) -> f64 {
        self.records
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.duration())
            .sum()
    }

    /// (total flops, total kernel-busy seconds) — the GFlops numerator /
    /// denominator used throughout the paper's evaluation.
    pub fn flops_and_time(&self) -> (f64, f64) {
        (self.total_flops, self.total_kernel_time)
    }

    /// Aggregate by kernel name: (name, calls, total seconds, total
    /// flops, total bytes), sorted by descending time.
    pub fn by_name(&self) -> Vec<NameAgg> {
        let mut map: std::collections::HashMap<&'static str, NameAgg> =
            std::collections::HashMap::new();
        for r in &self.records {
            let e = map.entry(r.name).or_insert(NameAgg {
                name: r.name,
                kind: r.kind,
                calls: 0,
                seconds: 0.0,
                flops: 0.0,
                bytes: 0.0,
                lanes: 1,
            });
            e.calls += 1;
            e.seconds += r.duration();
            e.flops += r.flops;
            e.bytes += r.bytes;
            e.lanes = e.lanes.max(r.lanes);
        }
        let mut v: Vec<NameAgg> = map.into_values().collect();
        v.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        v
    }
}

/// Aggregated per-kernel statistics.
#[derive(Debug, Clone, Copy)]
pub struct NameAgg {
    pub name: &'static str,
    pub kind: OpKind,
    pub calls: u64,
    pub seconds: f64,
    pub flops: f64,
    pub bytes: f64,
    /// Widest lane width this kernel was recorded at (see
    /// [`OpRecord::lanes`]); flops/bytes are per-point and thus already
    /// comparable across lane widths.
    pub lanes: u32,
}

impl NameAgg {
    /// Achieved GFlop/s of this kernel.
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops / self.seconds / 1e9
        } else {
            0.0
        }
    }

    /// Achieved arithmetic intensity [Flop/Byte].
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes > 0.0 {
            self.flops / self.bytes
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, kind: OpKind, start: f64, end: f64, flops: f64) -> OpRecord {
        OpRecord {
            name,
            kind,
            stream: 0,
            start,
            end,
            flops,
            bytes: 100.0,
            lanes: 1,
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut p = Profiler::new();
        p.record(rec("a", OpKind::Kernel, 0.0, 1.0, 5.0));
        p.record(rec("b", OpKind::Kernel, 1.0, 3.0, 10.0));
        p.record(rec("c", OpKind::CopyH2D, 0.0, 0.5, 0.0));
        assert_eq!(p.total_flops, 15.0);
        assert_eq!(p.total_kernel_time, 3.0);
        assert_eq!(p.total_h2d_bytes, 100.0);
        assert_eq!(p.kernel_launches, 2);
        assert_eq!(p.records().len(), 3);
    }

    #[test]
    fn detailed_off_keeps_totals_only() {
        let mut p = Profiler::new();
        p.set_detailed(false);
        p.record(rec("a", OpKind::Kernel, 0.0, 2.0, 8.0));
        assert!(p.records().is_empty());
        assert_eq!(p.total_flops, 8.0);
    }

    #[test]
    fn by_name_aggregates_and_sorts() {
        let mut p = Profiler::new();
        p.record(rec("adv", OpKind::Kernel, 0.0, 1.0, 4.0));
        p.record(rec("adv", OpKind::Kernel, 1.0, 2.0, 4.0));
        p.record(rec("eos", OpKind::Kernel, 2.0, 2.5, 1.0));
        let agg = p.by_name();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].name, "adv");
        assert_eq!(agg[0].calls, 2);
        assert_eq!(agg[0].seconds, 2.0);
        assert!((agg[0].gflops() - 8.0 / 2.0 / 1e9).abs() < 1e-18);
    }

    #[test]
    fn lane_metadata_aggregates_without_touching_totals() {
        // SIMD kernels carry lanes=4 metadata, but flops/bytes stay
        // per-point totals — the roofline inputs are lane-invariant.
        let mut p = Profiler::new();
        let mut r4 = rec("adv", OpKind::Kernel, 0.0, 1.0, 4.0);
        r4.lanes = 4;
        p.record(r4);
        p.record(rec("adv", OpKind::Kernel, 1.0, 2.0, 4.0));
        let agg = p.by_name();
        assert_eq!(agg[0].lanes, 4);
        assert_eq!(agg[0].flops, 8.0);
        assert_eq!(p.total_flops, 8.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = Profiler::new();
        p.record(rec("a", OpKind::Kernel, 0.0, 1.0, 5.0));
        p.reset();
        assert!(p.records().is_empty());
        assert_eq!(p.total_flops, 0.0);
        assert_eq!(p.kernel_launches, 0);
    }
}
