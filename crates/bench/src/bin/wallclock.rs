//! Wall-clock trajectory of the Functional backend: full mountain-wave
//! steps at 64×64×32 and 320×256×48, in double and single precision, at
//! host threads 1 and max, with the SIMD x-walks off and on, merged into
//! `BENCH_wallclock.json` at the repository root: a row is keyed by
//! (case, precision, nx, ny, nz, threads, simd), a new row replaces the
//! file's row of the same key, and rows this run did not measure are
//! kept. Rows written before the precision column existed read as
//! double precision.
//!
//! This is the *other* clock of the repository: the simulated GT200
//! seconds (reported by the fig* harnesses) must be bit-identical
//! across thread counts AND lane settings — asserted here before
//! timing — while the wall clock is what the persistent worker pool,
//! the row cursors and the lane walks buy.
//!
//! Step counts can be overridden for quick runs:
//! `ASUCA_WALLCLOCK_STEPS_SMALL` (default 5) and
//! `ASUCA_WALLCLOCK_STEPS_LARGE` (default 2); a count of 0 skips that
//! grid entirely. `ASUCA_SIMD=0` turns the binary into a
//! scalar-walk-only smoke run (the CI A/B leg); any other setting, or
//! leaving it unset, runs both walks and compares them.

use asuca_gpu::SingleGpu;
use dycore::config::ModelConfig;
use numerics::Real;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use vgpu::{DeviceSpec, ExecMode};

#[derive(Debug, Clone, PartialEq)]
struct Case {
    label: String,
    /// `Real::PRECISION` of the run: "double" or "single".
    precision: String,
    nx: usize,
    ny: usize,
    nz: usize,
    steps: usize,
    threads: usize,
    simd: bool,
    wall_s: f64,
    sim_s: f64,
}

fn env_steps(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Case {
    fn key(&self) -> (&str, &str, usize, usize, usize, usize, bool) {
        (
            &self.label,
            &self.precision,
            self.nx,
            self.ny,
            self.nz,
            self.threads,
            self.simd,
        )
    }

    fn per_step(&self) -> f64 {
        self.wall_s / self.steps as f64
    }

    /// The row's one-line JSON object, as [`parse_cases`] reads it.
    fn to_json(&self) -> String {
        format!(
            "{{\"case\": \"{}\", \"precision\": \"{}\", \"nx\": {}, \"ny\": {}, \"nz\": {}, \"steps\": {}, \"threads\": {}, \"simd\": {}, \"wall_seconds\": {:.6}, \"wall_seconds_per_step\": {:.6}, \"simulated_seconds\": {:.6}}}",
            self.label,
            self.precision,
            self.nx,
            self.ny,
            self.nz,
            self.steps,
            self.threads,
            self.simd,
            self.wall_s,
            self.per_step(),
            self.sim_s
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn run_case<R: Real>(
    label: &str,
    nx: usize,
    ny: usize,
    nz: usize,
    steps: usize,
    threads: usize,
    simd: bool,
) -> Case {
    let mut cfg = ModelConfig::mountain_wave(nx, ny, nz);
    cfg.dt = 5.0;
    cfg.threads = threads;
    cfg.simd = Some(simd);
    let mut gpu = SingleGpu::<R>::new(cfg, DeviceSpec::tesla_s1070(), ExecMode::Functional);
    // Warm up one step so pool creation, lazy allocations and page
    // faults don't land inside the timed region.
    gpu.run(1).unwrap();
    let sim0 = gpu.dev.host_time();
    let t0 = Instant::now();
    gpu.run(steps).unwrap();
    let wall_s = t0.elapsed().as_secs_f64();
    let sim_s = gpu.dev.host_time() - sim0;
    eprintln!(
        "{label} {} threads={threads} simd={simd}: {steps} steps in {wall_s:.3} s wall ({:.3} s/step), simulated {sim_s:.4} s",
        R::PRECISION,
        wall_s / steps as f64
    );
    Case {
        label: label.to_string(),
        precision: R::PRECISION.to_string(),
        nx,
        ny,
        nz,
        steps,
        threads,
        simd,
        wall_s,
        sim_s,
    }
}

/// The case rows of a BENCH_wallclock.json (line-oriented scan; the
/// file is written by this binary, one case object per line). A row
/// without a precision is a double-precision row.
fn parse_cases(json: &str) -> Vec<Case> {
    let field = |line: &str, key: &str| -> Option<String> {
        let idx = line.find(&format!("\"{key}\": "))?;
        let rest = &line[idx + key.len() + 4..];
        Some(
            rest.trim_start_matches([' ', '"'])
                .chars()
                .take_while(|c| !matches!(c, ',' | '"' | '}'))
                .collect(),
        )
    };
    let case = |line: &str| -> Option<Case> {
        let num = |key| field(line, key)?.parse::<usize>().ok();
        let real = |key| field(line, key)?.parse::<f64>().ok();
        Some(Case {
            label: field(line, "case")?,
            precision: field(line, "precision").unwrap_or_else(|| f64::PRECISION.to_string()),
            nx: num("nx")?,
            ny: num("ny")?,
            nz: num("nz")?,
            steps: num("steps")?,
            threads: num("threads")?,
            simd: field(line, "simd")?.parse().ok()?,
            wall_s: real("wall_seconds")?,
            sim_s: real("simulated_seconds")?,
        })
    };
    json.lines()
        .filter(|l| l.trim_start().starts_with("{\"case\":"))
        .filter_map(case)
        .collect()
}

/// `old` with each row of `new` merged in by key: a row of the same key
/// is replaced in place, a row of a new key is appended.
fn merge(mut old: Vec<Case>, new: &[Case]) -> Vec<Case> {
    for c in new {
        match old.iter_mut().find(|o| o.key() == c.key()) {
            Some(o) => *o = c.clone(),
            None => old.push(c.clone()),
        }
    }
    old
}

const LARGE: &str = "mountain_wave_320x256x48";

/// Per-step wall-time ratio of the large-grid rows `(threads, simd)`
/// `slow` over `fast` in `precision`, when `rows` hold both.
fn large_speedup(
    rows: &[Case],
    precision: &str,
    slow: (usize, bool),
    fast: (usize, bool),
) -> Option<f64> {
    let find = |(threads, simd)| {
        rows.iter().find(|c| {
            c.label == LARGE && c.precision == precision && c.threads == threads && c.simd == simd
        })
    };
    Some(find(slow)?.per_step() / find(fast)?.per_step())
}

/// The scalar, lane and pooled runs of one grid in precision `R`: the
/// width-1 walk at 1 thread, then (with `run_lanes`) the lane walk at 1
/// thread, then (on a multi-core host) `max` threads.
fn grid_cases<R: Real>(
    (label, nx, ny, nz, steps): (&str, usize, usize, usize, usize),
    max: usize,
    run_lanes: bool,
    cases: &mut Vec<Case>,
) {
    let scalar = run_case::<R>(label, nx, ny, nz, steps, 1, false);
    let scalar_sim = scalar.sim_s;
    cases.push(scalar);
    if run_lanes {
        let lanes = run_case::<R>(label, nx, ny, nz, steps, 1, true);
        // The two-clock rule: neither the lane width nor the thread
        // count may move the simulated timeline by a single bit.
        assert_eq!(
            scalar_sim,
            lanes.sim_s,
            "{label} {}: simulated seconds changed with simd on",
            R::PRECISION
        );
        cases.push(lanes);
    }
    if max > 1 {
        let pooled = run_case::<R>(label, nx, ny, nz, steps, max, run_lanes);
        assert_eq!(
            scalar_sim,
            pooled.sim_s,
            "{label} {}: simulated seconds changed with threads={max}",
            R::PRECISION
        );
        cases.push(pooled);
    }
}

fn results_path() -> PathBuf {
    // crates/bench → repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("BENCH_wallclock.json");
    p
}

fn main() {
    let max = numerics::par::default_threads();
    let simd_native = numerics::simd::lanes_native();
    let run_lanes = std::env::var("ASUCA_SIMD").map_or(true, |v| {
        !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        )
    });
    let steps_small = env_steps("ASUCA_WALLCLOCK_STEPS_SMALL", 5);
    let steps_large = env_steps("ASUCA_WALLCLOCK_STEPS_LARGE", 2);

    let mut cases = Vec::new();
    for &(label, nx, ny, nz, steps) in &[
        (
            "mountain_wave_64x64x32",
            64usize,
            64usize,
            32usize,
            steps_small,
        ),
        (LARGE, 320, 256, 48, steps_large),
    ] {
        if steps == 0 {
            continue;
        }
        let grid = (label, nx, ny, nz, steps);
        grid_cases::<f64>(grid, max, run_lanes, &mut cases);
        grid_cases::<f32>(grid, max, run_lanes, &mut cases);
    }

    // Perf gates at the large grid, in each precision. Multi-core hosts
    // must see the pool win; hosts with the vector ISA must see the lane
    // walk win over the scalar walk at equal thread count.
    let simd_pair = ((1, false), (1, true));
    let pool_pair = ((1, run_lanes), (max, run_lanes));
    for precision in [f64::PRECISION, f32::PRECISION] {
        if let Some(sp) = large_speedup(&cases, precision, simd_pair.0, simd_pair.1) {
            eprintln!("320x256x48 {precision} speedup simd on vs off (threads 1): {sp:.2}x");
            if simd_native {
                assert!(
                    sp > 1.0,
                    "{precision}: lane walk slower than scalar walk at 320x256x48 ({sp:.2}x)"
                );
            }
        }
        let pool = large_speedup(&cases, precision, pool_pair.0, pool_pair.1).filter(|_| max > 1);
        if let Some(sp) = pool {
            eprintln!(
                "320x256x48 {precision} speedup threads {max} vs 1 (simd={run_lanes}): {sp:.2}x"
            );
            assert!(
                sp > 1.0,
                "{precision}: pooled path slower than single-threaded at 320x256x48 ({sp:.2}x)"
            );
        }
    }

    // Regression gate for the robustness layer: with injection,
    // checkpointing and guard scans all disabled, the fault machinery
    // must stay off the hot path. `ASUCA_WALLCLOCK_ASSERT_BASELINE=1`
    // compares this run against the committed BENCH_wallclock.json:
    // per-step wall time within 3% (override the percentage by setting
    // the variable to a number), simulated seconds bit-stable to the
    // file's printed precision.
    if let Ok(v) = std::env::var("ASUCA_WALLCLOCK_ASSERT_BASELINE") {
        let tol_pct: f64 = v.parse().ok().filter(|p| *p > 1.0).unwrap_or(3.0);
        let baseline = parse_cases(
            &std::fs::read_to_string(results_path())
                .expect("baseline assert needs a committed BENCH_wallclock.json"),
        );
        for c in &cases {
            let Some((base_per_step, base_sim)) = baseline
                .iter()
                .find(|b| {
                    b.label == c.label
                        && b.precision == c.precision
                        && b.threads == c.threads
                        && b.simd == c.simd
                })
                .map(|b| (b.per_step(), b.sim_s))
            else {
                eprintln!(
                    "no baseline case for {} {} threads={} simd={} — skipping",
                    c.label, c.precision, c.threads, c.simd
                );
                continue;
            };
            let per_step = c.per_step();
            let overhead_pct = (per_step / base_per_step - 1.0) * 100.0;
            eprintln!(
                "{} {} threads={} simd={}: {per_step:.4} s/step vs baseline {base_per_step:.4} ({overhead_pct:+.1}%)",
                c.label, c.precision, c.threads, c.simd
            );
            assert!(
                per_step <= base_per_step * (1.0 + tol_pct / 100.0),
                "{}: wall overhead {overhead_pct:.1}% exceeds {tol_pct}% budget",
                c.label
            );
            assert!(
                (c.sim_s - base_sim).abs() <= 1e-6,
                "{}: simulated seconds moved vs baseline ({} vs {base_sim})",
                c.label,
                c.sim_s
            );
        }
    }

    // Merge into the file's rows, so a run of one grid keeps the other
    // grid's rows.
    let path = results_path();
    let rows = merge(
        parse_cases(&std::fs::read_to_string(&path).unwrap_or_default()),
        &cases,
    );
    // The file's headline ratios stay the double-precision ones.
    let simd_speedup = large_speedup(&rows, f64::PRECISION, simd_pair.0, simd_pair.1);
    let thread_speedup =
        large_speedup(&rows, f64::PRECISION, pool_pair.0, pool_pair.1).filter(|_| max > 1);
    let fmt_opt = |o: Option<f64>| o.map_or("null".to_string(), |s| format!("{s:.4}"));
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_threads_max\": {max},");
    let _ = writeln!(json, "  \"simd_native\": {simd_native},");
    let _ = writeln!(
        json,
        "  \"simd_speedup_320x256x48\": {},",
        fmt_opt(simd_speedup)
    );
    let _ = writeln!(
        json,
        "  \"speedup_320x256x48\": {},",
        fmt_opt(thread_speedup)
    );
    json.push_str("  \"cases\": [\n");
    for (n, c) in rows.iter().enumerate() {
        let sep = if n + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{sep}", c.to_json());
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&path, &json).expect("failed to write BENCH_wallclock.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, threads: usize, simd: bool, wall_s: f64) -> Case {
        Case {
            label: label.to_string(),
            precision: f64::PRECISION.to_string(),
            nx: 64,
            ny: 64,
            nz: 32,
            steps: 2,
            threads,
            simd,
            wall_s,
            sim_s: 0.25,
        }
    }

    fn single(c: Case) -> Case {
        Case {
            precision: f32::PRECISION.to_string(),
            ..c
        }
    }

    /// A new row replaces the row of its key in place, a new key is
    /// appended (the precision is part of the key), and rows the run did
    /// not measure survive.
    #[test]
    fn rows_merge_by_key() {
        let old = vec![
            row("a", 1, false, 1.0),
            row("a", 1, true, 2.0),
            row(LARGE, 1, false, 3.0),
        ];
        let new = [
            row("a", 1, true, 5.0),
            row("a", 2, true, 6.0),
            single(row("a", 1, true, 7.0)),
        ];
        let merged = merge(old, &new);
        assert_eq!(
            merged,
            vec![
                row("a", 1, false, 1.0),
                row("a", 1, true, 5.0),
                row(LARGE, 1, false, 3.0),
                row("a", 2, true, 6.0),
                single(row("a", 1, true, 7.0)),
            ]
        );
    }

    /// The committed file parses back into its rows, which the baseline
    /// assert and the merge both read; rows written before the precision
    /// column read as double precision.
    #[test]
    fn committed_rows_parse() {
        let json = include_str!("../../../../BENCH_wallclock.json");
        let rows = parse_cases(json);
        assert_eq!(rows.len(), json.matches("{\"case\":").count());
        assert!(rows.iter().all(|c| c.steps > 0 && c.wall_s > 0.0));
        assert_eq!(merge(rows.clone(), &rows), rows);
        let legacy = r#"{"case": "a", "nx": 64, "ny": 64, "nz": 32, "steps": 2, "threads": 1, "simd": false, "wall_seconds": 1.000000, "wall_seconds_per_step": 0.500000, "simulated_seconds": 0.250000}"#;
        assert_eq!(parse_cases(legacy), vec![row("a", 1, false, 1.0)]);
    }

    /// A row with its precision written round-trips through the file
    /// format, in either precision.
    #[test]
    fn rows_round_trip_with_precision() {
        for c in [row("a", 2, true, 1.5), single(row(LARGE, 1, false, 3.0))] {
            assert_eq!(parse_cases(&c.to_json()), vec![c.clone()]);
        }
    }
}
