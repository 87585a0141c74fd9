//! End-to-end measurement (tracing off): setup time, CPU seconds per
//! long step and peak RSS, with every step's output checked.
//!
//! Times are the process's CPU seconds (all threads). On the shared
//! 2-vCPU development host the hypervisor took 0.5–17% of the CPUs away
//! from one minute to the next; wall time then swung by a factor of 3
//! on `phantom_2rank`, whose two rank threads wake each other hundreds
//! of times per step (see `perfbench/README.md`). CPU seconds leave out
//! that lost time and the ranks' blocked waits; wall times are logged
//! on stderr beside them.

use asuca_gpu::decomp::Decomp;
use asuca_gpu::monitor::GuardRails;
use asuca_gpu::multi::{run_multi, MultiGpuConfig, MultiGpuReport};
use asuca_gpu::{ModelError, SingleGpu};
use dycore::grid::{BaseFields, Grid};
use dycore::State;
use numerics::Real;
use std::time::{Duration, Instant};
use vgpu::DeviceSpec;

use crate::host;
use crate::report::{median, Outcome};
use crate::workload::{combine_checksums, perturb, Reference, Workload};

/// Setups per run: at least this many, and more until
/// [`SETUP_MIN_SECONDS`] have passed (at most [`SETUP_MAX_REPS`]);
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
pub const SETUP_MIN_SECONDS: f64 = 1.0;
pub const SETUP_MAX_REPS: usize = 200;

/// Whether another setup repetition is due after `done` of them.
fn more_setups(done: usize, since: Instant) -> bool {
    done < SETUP_REPS
        || (done < SETUP_MAX_REPS && since.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
}

/// Fewest timed steps (`Single`) or calls (`Multi`) a run makes, even
/// when they overrun the requested seconds.
pub const MIN_SAMPLES: usize = 2;

/// Wall and process CPU seconds one piece of work took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::Add for Spent {
    type Output = Spent;
    fn add(self, o: Spent) -> Spent {
        Spent {
            wall_s: self.wall_s + o.wall_s,
            cpu_s: self.cpu_s + o.cpu_s,
        }
    }
}

/// Run `f` and measure it.
pub fn spent<T>(f: impl FnOnce() -> T) -> (T, Spent) {
    let (t0, c0) = (Instant::now(), host::process_cpu_s());
    let r = f();
    let s = Spent {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - c0,
    };
    (r, s)
}

/// Medians of the CPU and the wall seconds of a sample.
fn medians(xs: &[Spent]) -> Spent {
    Spent {
        wall_s: median(&xs.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        cpu_s: median(&xs.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
    }
}

/// Build the workload's single device and load the seeded state; the
/// returned time covers `SingleGpu::new` plus `load_state` (the seeded
/// input is generated outside the timed region).
pub fn setup_single<R: Real>(w: &Workload, seed: u64) -> Result<(SingleGpu<R>, Spent), ModelError> {
    let (mut gpu, built) =
        spent(|| SingleGpu::<R>::new(w.cfg.clone(), DeviceSpec::tesla_s1070(), w.mode));
    let mut s = State::zeros(&gpu.grid, gpu.cfg.n_tracers);
    dycore::model::install_base_state(&gpu.grid, &gpu.base, &mut s);
    let (nx, ny) = (gpu.grid.nx, gpu.grid.ny);
    perturb(&gpu.grid, &mut s, seed, 0, 0, nx, ny);
    let (loaded, load) = spent(|| gpu.load_state(&s));
    loaded?;
    Ok((gpu, built + load))
}

/// Whether simulated seconds match a recorded value. The simulated
/// clock is deterministic; the tolerance only absorbs the rounding of
/// a step's few hundred additions onto a clock that has grown over many
/// steps, far below one launch's issue overhead.
pub fn sim_matches(sim_s: f64, want: f64) -> bool {
    (sim_s - want).abs() <= 1e-9 * want.abs().max(1.0)
}

/// Download the state and return its FNV-1a checksum. Waits for the
/// copies on the simulated clock too, so the next step's simulated
/// seconds are those of a steady step.
pub fn state_checksum<R: Real>(gpu: &mut SingleGpu<R>) -> u64 {
    let mut s = State::zeros(&gpu.grid, gpu.cfg.n_tracers);
    gpu.save_state(&mut s);
    gpu.dev.sync_all();
    s.checksum()
}

/// Run one step through `SingleGpu::run` and check it: no `Err`, and
/// (with `reference`) the simulated seconds it took match the recorded
/// per-step value. Returns the time the step took and its simulated
/// seconds.
pub fn checked_step<R: Real>(
    gpu: &mut SingleGpu<R>,
    reference: Option<&Reference>,
    out: &mut Outcome,
) -> (Spent, f64) {
    let sim0 = gpu.dev.host_time();
    let (r, took) = spent(|| gpu.run(1));
    let sim = gpu.dev.host_time() - sim0;
    out.attempt(1);
    match r {
        Err(e) => out.fail(1, &format!("step {} returned {e}", gpu.steps_taken)),
        Ok(()) => {
            if let Some(want) = reference.and_then(|r| r.sim_s) {
                if !sim_matches(sim, want) {
                    out.fail(
                        1,
                        &format!(
                            "step {}: {sim:?} simulated seconds, recorded {want:?}",
                            gpu.steps_taken
                        ),
                    );
                }
            }
        }
    }
    (took, sim)
}

/// The warm-up step of every single-device run doubles as the output
/// check: after it, the state checksum must match the recorded one for
/// this seed (when recorded). Its simulated seconds are not checked:
/// the first step also waits out the initial upload's queued work.
/// Returns the checksum (Functional only).
pub fn warm_up_checked<R: Real>(
    gpu: &mut SingleGpu<R>,
    seed: u64,
    reference: &Reference,
    out: &mut Outcome,
) -> Option<u64> {
    checked_step(gpu, None, out);
    if gpu.dev.mode() != vgpu::ExecMode::Functional {
        return None;
    }
    let sum = state_checksum(gpu);
    if let Some(want) = reference.checksum(seed) {
        if sum != want {
            out.fail(
                1,
                &format!("seed {seed}: checksum {sum:016x} after step 1, recorded {want:016x}"),
            );
        }
    }
    Some(sum)
}

/// Final `GuardRails::check` over the device state (NaN/Inf and CFL).
pub fn guard_check<R: Real>(gpu: &mut SingleGpu<R>, out: &mut Outcome) -> Result<(), ModelError> {
    let guard = GuardRails::new(&mut gpu.dev, &gpu.geom)?;
    let c = &gpu.cfg;
    let r = guard.check(
        &mut gpu.dev,
        &gpu.ds,
        &gpu.geom,
        gpu.steps_taken,
        c.dt,
        c.dx,
        c.dy,
        c.dzeta(),
    );
    guard.free(&mut gpu.dev);
    if let Err(e) = r {
        out.fail(1, &format!("final guard-rail check: {e}"));
    }
    Ok(())
}

pub fn run_single<R: Real>(
    w: &Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Result<Outcome, ModelError> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut gpu = None;
    let since = Instant::now();
    while more_setups(setups.len(), since) {
        // Free the previous instance first, so the peak holds one model.
        drop(gpu.take());
        let (g, s) = setup_single::<R>(w, seed)?;
        setups.push(s);
        gpu = Some(g);
    }
    let mut gpu = gpu.expect("at least one setup");
    warm_up_checked(&mut gpu, seed, reference, &mut out);

    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut steps = Vec::new();
    while steps.len() < MIN_SAMPLES || t0.elapsed() < budget {
        steps.push(checked_step(&mut gpu, Some(reference), &mut out).0);
    }
    guard_check(&mut gpu, &mut out)?;
    finish(&mut out, w, &steps, medians(&setups), setups.len());
    Ok(out)
}

/// Set the end-to-end metrics from per-step and setup times, and log
/// the sample counts and wall times on stderr.
fn finish(out: &mut Outcome, w: &Workload, steps: &[Spent], setup: Spent, setup_reps: usize) {
    let step = medians(steps);
    out.set("step_cpu_s", step.cpu_s);
    out.set("setup_s", setup.cpu_s);
    out.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(f64::NAN));
    eprintln!(
        "perfbench: {}: per step over {} samples: median {:.6} CPU s, {:.6} wall s; setup over {setup_reps}: {:.6} CPU s, {:.6} wall s",
        w.name,
        steps.len(),
        step.cpu_s,
        step.wall_s,
        setup.cpu_s,
        setup.wall_s
    );
}

/// `run_multi` with the seeded initial condition on every rank.
pub fn seeded_run_multi<R: Real>(
    mc: &MultiGpuConfig,
    seed: u64,
) -> Result<MultiGpuReport, ModelError> {
    let decomp = Decomp::disjoint(
        mc.px,
        mc.py,
        mc.local_cfg.nx,
        mc.local_cfg.ny,
        mc.local_cfg.nz,
    );
    let (gnx, gny) = decomp.global_disjoint();
    let init = move |rank: usize, grid: &Grid, _: &BaseFields, s: &mut State| {
        let (x0, y0) = decomp.origin_disjoint(rank);
        perturb(grid, s, seed, x0, y0, gnx, gny);
    };
    run_multi::<R>(mc, &init)
}

/// Run `steps` long steps through `run_multi` and check the call: no
/// `Err`, simulated seconds as recorded, finite final states, and the
/// combined checksum equal to the recorded one for this seed (when
/// recorded) and to the first call of this run. Returns the time the
/// call took and, when it returned `Ok`, its report.
pub fn checked_multi_call<R: Real>(
    mc: &MultiGpuConfig,
    steps: usize,
    seed: u64,
    reference: &Reference,
    first_sum: &mut Option<u64>,
    out: &mut Outcome,
) -> (Spent, Option<MultiGpuReport>) {
    let mc = MultiGpuConfig {
        steps,
        ..mc.clone()
    };
    let (r, took) = spent(|| seeded_run_multi::<R>(&mc, seed));
    let n = steps as u64;
    out.attempt(n);
    let rep = match r {
        Ok(rep) => rep,
        Err(e) => {
            out.fail(n, &format!("run_multi returned {e}"));
            return (took, None);
        }
    };
    if let Some(want) = reference.sim_s {
        if !sim_matches(rep.total_time_s, want) {
            out.fail(
                n,
                &format!(
                    "run_multi: {:?} simulated seconds, recorded {want:?}",
                    rep.total_time_s
                ),
            );
        }
    }
    if let Some(states) = &rep.final_states {
        if let Some(bad) = states.iter().find_map(State::find_non_finite) {
            out.fail(n, &format!("non-finite {bad} in a final state"));
        }
        let sum = combine_checksums(states);
        if let Some(want) = reference.checksum(seed) {
            if sum != want {
                out.fail(
                    n,
                    &format!("seed {seed}: checksum {sum:016x}, recorded {want:016x}"),
                );
            }
        }
        match first_sum {
            Some(first) if *first != sum => out.fail(
                n,
                &format!("checksum {sum:016x} differs from the run's first call {first:016x}"),
            ),
            _ => *first_sum = Some(sum),
        }
    }
    (took, Some(rep))
}

pub fn run_multi_workload<R: Real>(
    w: &Workload,
    mc: &MultiGpuConfig,
    steps_per_call: usize,
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Result<Outcome, ModelError> {
    let mut out = Outcome::default();
    // Setup: a zero-step run_multi is rank spawn, device build, seeded
    // upload, initial halo exchange and EOS, and teardown.
    let zero_steps = MultiGpuConfig {
        steps: 0,
        ..mc.clone()
    };
    let mut setups = Vec::new();
    let since = Instant::now();
    while more_setups(setups.len(), since) {
        let (r, s) = spent(|| seeded_run_multi::<R>(&zero_steps, seed));
        r?;
        setups.push(s);
    }
    let setup = medians(&setups);

    let mut first_sum = None;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut per_step = Vec::new();
    let n = steps_per_call as f64;
    while per_step.len() < MIN_SAMPLES || t0.elapsed() < budget {
        let (call, _) = checked_multi_call::<R>(
            mc,
            steps_per_call,
            seed,
            reference,
            &mut first_sum,
            &mut out,
        );
        per_step.push(Spent {
            wall_s: (call.wall_s - setup.wall_s) / n,
            cpu_s: (call.cpu_s - setup.cpu_s) / n,
        });
    }
    finish(&mut out, w, &per_step, setup, setups.len());
    Ok(out)
}
