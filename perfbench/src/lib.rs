//! Repository benchmark: workloads of the ASUCA reproduction,
//! measured end to end in process CPU seconds (`--trace 0`) or layer by
//! layer on the wall clock through a traced replay (`--trace 1`), with
//! every run's outputs checked against recorded references.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_f32_t1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (see [`report`]). The lines
//! before it record the host and, for traced runs, the per-module table
//! with simulated seconds beside wall seconds.

pub mod e2e;
pub mod host;
pub mod layers;
pub mod replay;
pub mod report;
pub mod workload;

use asuca_gpu::fields::DeviceState;
use asuca_gpu::view::Dims;
use asuca_gpu::ModelError;
use dycore::grid::HALO;
use numerics::Real;
use report::Outcome;
use std::fmt::Write as _;
use workload::{Driver, Precision, Reference, Workload};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print reference rows for seeds `0..=record` instead of measuring.
    pub record: Option<u64>,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            record: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?.clone(),
                "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    }
                }
                "--record" => {
                    a.record = Some(value()?.parse().map_err(|_| "bad --record".to_string())?)
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if Workload::by_name(&a.workload).is_none() {
            return Err(format!(
                "--workload must be one of {}",
                [&workload::NAMES[..], &workload::EXTRA[..]]
                    .concat()
                    .join(", ")
            ));
        }
        if a.seconds.is_nan() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(a)
    }
}

/// Measure one run of `w` (end to end or traced).
pub fn measure<R: Real>(
    w: &Workload,
    args: &Args,
    reference: &Reference,
) -> Result<Outcome, ModelError> {
    match (&w.driver, args.trace) {
        (_, true) => layers::run_traced::<R>(w, args.seed, args.seconds, reference),
        (Driver::Single, false) => e2e::run_single::<R>(w, args.seed, args.seconds, reference),
        (Driver::Multi { mc, steps_per_call }, false) => {
            e2e::run_multi_workload::<R>(w, mc, *steps_per_call, args.seed, args.seconds, reference)
        }
    }
}

/// Reference rows for `w` on seeds `0..=last`: the simulated seconds
/// (of step 2 for single-device workloads) and each seed's state
/// checksum (Functional workloads only).
pub fn record<R: Real>(w: &Workload, last: u64) -> Result<String, String> {
    let mut rows = String::new();
    let none = Reference::default();
    for seed in 0..=last {
        let mut out = Outcome::default();
        let (sim, sum) = match &w.driver {
            Driver::Single => {
                let (mut gpu, _) = e2e::setup_single::<R>(w, seed).map_err(|e| e.to_string())?;
                let sum = e2e::warm_up_checked(&mut gpu, seed, &none, &mut out);
                let sim = if seed == 0 {
                    e2e::checked_step(&mut gpu, None, &mut out).1
                } else {
                    0.0
                };
                (sim, sum)
            }
            Driver::Multi { mc, steps_per_call } => {
                let mc = asuca_gpu::MultiGpuConfig {
                    steps: *steps_per_call,
                    ..(**mc).clone()
                };
                let rep = e2e::seeded_run_multi::<R>(&mc, seed).map_err(|e| e.to_string())?;
                let sum = rep.final_states.as_deref().map(workload::combine_checksums);
                (rep.total_time_s, sum)
            }
        };
        if out.failed > 0 {
            return Err(format!(
                "{}: seed {seed}: the reference step failed",
                w.name
            ));
        }
        if seed == 0 {
            let _ = writeln!(rows, "{}\tsim\t{sim:?}", w.name);
        }
        if let Some(sum) = sum {
            let _ = writeln!(rows, "{}\t{seed}\t{sum:016x}", w.name);
        }
    }
    Ok(rows)
}

/// Host and size record of `w` (one JSON line).
pub fn host_record(w: &Workload) -> String {
    let elem = match w.precision {
        Precision::F32 => 4,
        Precision::F64 => 8,
    };
    let c = &w.cfg;
    let dc = Dims::center(c.nx, c.ny, c.nz, HALO);
    let dw = Dims::wlevel(c.nx, c.ny, c.nz, HALO);
    let dp = Dims::plane(c.nx, c.ny, HALO);
    let footprint = match w.precision {
        Precision::F32 => {
            DeviceState::<f32>::footprint_bytes(dc.len(), dw.len(), dp.len(), c.n_tracers)
        }
        Precision::F64 => {
            DeviceState::<f64>::footprint_bytes(dc.len(), dw.len(), dp.len(), c.n_tracers)
        }
    };
    host::record(w.name, elem, (dc.len() * elem) as u64, footprint)
}
