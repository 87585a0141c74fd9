//! Multi-GPU driver (§V): one rank per GPU under the cluster substrate,
//! 2-D decomposition, halo exchange through host staging, and the three
//! communication/computation overlap optimizations:
//!
//! 1. **Inter-variable pipelining** (Fig. 7) — while one water-substance
//!    variable's halo is in flight, the next variable's kernel runs.
//! 2. **Kernel splitting** (Fig. 8) — short-step kernels split into
//!    y-boundary / x-boundary / inner launches on separate streams; the
//!    inner launch executes while the boundary values travel.
//! 3. **Logical kernel fusion** — density and potential temperature are
//!    treated as one logical kernel so the (communication-heavy) density
//!    exchange hides under the fused computation.
//!
//! Every rank runs the shared step program (`crate::step`) over the
//! exchange halo policy, which holds the three methods. This module
//! spawns the ranks, runs the end-of-step heartbeat and lockstep
//! rollback, and aggregates the report.

use crate::decomp::Decomp;
use crate::error::ModelError;
use crate::geom::DeviceGeom;
use crate::step::{self, Halo, StepProgram};
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use dycore::grid::{BaseFields, Grid};
use dycore::state::State;
use numerics::Real;
use vgpu::{DeviceSpec, ExecMode, VgpuError};

/// Whether the overlap optimizations are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapMode {
    /// Compute, then communicate, serially (the paper's baseline).
    None,
    /// All three overlap methods enabled.
    Overlap,
}

/// Configuration of a multi-GPU run.
#[derive(Clone)]
pub struct MultiGpuConfig {
    /// Per-rank model configuration (nx/ny are the *subdomain* size).
    pub local_cfg: ModelConfig,
    /// Process grid.
    pub px: usize,
    pub py: usize,
    pub overlap: OverlapMode,
    pub spec: DeviceSpec,
    pub net: NetworkSpec,
    pub mode: ExecMode,
    pub steps: usize,
    /// Retain per-op profiler records (needed for Fig. 9/11 breakdowns;
    /// disable for very large phantom sweeps).
    pub detailed_profile: bool,
}

/// Aggregated results of a run.
#[derive(Debug, Clone)]
pub struct MultiGpuReport {
    pub ranks: usize,
    pub steps: usize,
    /// End-to-end simulated wall time (max over ranks) [s].
    pub total_time_s: f64,
    /// Kernel-busy time of the slowest rank [s].
    pub compute_s: f64,
    /// MPI blocked time of the slowest rank [s].
    pub mpi_s: f64,
    /// GPU↔CPU transfer busy time of the slowest rank [s].
    pub pcie_s: f64,
    /// Total floating-point operations over all ranks.
    pub total_flops: f64,
    /// Sustained TFlop/s = total flops / total time.
    pub tflops: f64,
    /// Rank-0 per-kernel aggregation: (name, calls, seconds).
    pub kernel_breakdown: Vec<(String, u64, f64)>,
    /// Final prognostic states (functional mode only), rank order.
    pub final_states: Option<Vec<State>>,
    /// Injected fault events over all ranks (ECC hits, OOM failures,
    /// straggler slowdowns, link drops and delays).
    pub faults_injected: u64,
    /// Recovery actions over all ranks: ECC launch retries plus link
    /// resend rounds.
    pub retries: u64,
    /// Checkpoint rollbacks performed (ranks roll back in lockstep, so
    /// this is the per-rank count, not a sum).
    pub restarts: u64,
    /// Long steps whose heartbeat showed a straggling rank (max step
    /// duration more than 3x the min).
    pub stragglers: u64,
    /// Sanitizer findings over all ranks (0 unless `ASUCA_SAN` is set;
    /// per-rank reports go to stderr).
    pub san_findings: u64,
    /// True when an injected allocation failure downgraded detailed
    /// profiling instead of aborting the run.
    pub profile_degraded: bool,
}

/// Everything one rank thread reports back to the aggregator.
struct RankOut {
    elapsed: f64,
    kbusy: f64,
    mpi_wait: f64,
    pcie: f64,
    flops: f64,
    breakdown: Vec<(String, u64, f64)>,
    final_state: Option<State>,
    faults_injected: u64,
    retries: u64,
    restarts: u64,
    stragglers: u64,
    profile_degraded: bool,
    san_findings: u64,
}
/// Initial-condition hook applied to each rank's host state before
/// upload.
pub type InitFn = dyn Fn(usize, &Grid, &BaseFields, &mut State) + Sync;

/// Run a multi-GPU simulation; `init` receives (rank, local grid,
/// base fields, state-at-rest) and may modify the state.
///
/// With `local_cfg.fault` set, the run arms deterministic fault
/// injection *after* initialization (setup is never faulted and the
/// per-op schedules are independent of init): ECC launch retries and
/// straggler slowdowns on the device, drop/delay schedules on the
/// links, and an optional one-shot rank death that forces a lockstep
/// rollback to the last checkpoint on every rank.
pub fn run_multi<R: Real>(
    mc: &MultiGpuConfig,
    init: &InitFn,
) -> Result<MultiGpuReport, ModelError> {
    let decomp = Decomp::disjoint(
        mc.px,
        mc.py,
        mc.local_cfg.nx,
        mc.local_cfg.ny,
        mc.local_cfg.nz,
    );
    let ranks = decomp.ranks();
    let (gnx, gny) = decomp.global_disjoint();

    let results =
        cluster::try_spawn_ranks::<Vec<R>, Result<RankOut, ModelError>, _>(ranks, mc.net, |comm| {
            let rank = comm.rank();
            let cfg = &mc.local_cfg;
            let (x0, y0) = decomp.origin_disjoint(rank);
            let grid = Grid::build_sub(cfg, x0, y0, gnx, gny);
            let mut dev = step::device::<R>(cfg, mc.spec.clone(), mc.mode);
            // Detailed records only where the breakdown harness reads
            // them (rank 0); totals accumulate everywhere.
            dev.profiler.set_detailed(mc.detailed_profile && rank == 0);
            // Host base fields are only materialized when the run is
            // functional; paper-scale phantom runs skip the (large)
            // 3-D host arrays entirely.
            let base = (mc.mode == ExecMode::Functional).then(|| step::base_fields(cfg, &grid));
            let geom = match &base {
                Some(b) => DeviceGeom::build(&mut dev, &grid, b),
                None => DeviceGeom::build_phantom(&mut dev, &grid),
            };
            let halo = Halo::exchange(&mut dev, &geom, &decomp.topo, comm, mc.overlap);
            let mut prog = StepProgram::assemble(cfg.clone(), grid, (), dev, geom, halo)?;

            // Initial condition on the host, then upload, halos + EOS.
            let state = base.map(|b| {
                let mut s = step::resting_state(&prog.grid, &b, cfg.n_tracers);
                init(rank, &prog.grid, &b, &mut s);
                s
            });
            prog.load(state.as_ref())?;
            drop(state);
            prog.dev.sync_all();
            prog.checkpoint();
            let profile_degraded = prog.arm_faults(rank);

            // Measure only the time-step loop (the paper's benchmarks
            // exclude initialization).
            prog.dev.profiler.reset();
            prog.halo.rank().0.stats = Default::default();
            let t_start = prog.dev.host_time();

            let target = mc.steps as u64;
            let fault = cfg.fault;
            let mut stragglers: u64 = 0;
            // One-shot (rank, after-step) death, consumed on first
            // trigger so the replayed steps do not re-kill the rank.
            let mut death_pending = fault.as_ref().and_then(|f| f.death);

            while prog.steps_taken < target {
                let busy0 = prog.dev.profiler.flops_and_time().1;
                prog.step()?;
                let step_idx = prog.steps_taken;
                // Kernel-busy delta, not wall duration: halo exchanges
                // synchronize the ranks every step, so wall durations
                // equalize and would hide a straggler.
                let busy = prog.dev.profiler.flops_and_time().1 - busy0;

                if let Some(f) = &fault {
                    // End-of-step heartbeat: [death flag, kernel-busy
                    // seconds] from every rank. Gated on fault injection
                    // being armed so fault-free runs keep the exact
                    // baseline timeline.
                    let flag = if death_pending == Some((rank, step_idx)) {
                        1.0
                    } else {
                        0.0
                    };
                    let now = prog.dev.host_time();
                    let (hb, now2) = prog.halo.rank().1.allgather_f64(vec![flag, busy], now)?;
                    prog.dev.host_at_least(now2);
                    let (mut dmin, mut dmax) = (f64::INFINITY, 0.0f64);
                    let mut died = false;
                    for h in &hb {
                        // heartbeat flags are exact 0.0/1.0 sentinels — lint: allow(float-eq)
                        died |= h[0] != 0.0;
                        dmin = dmin.min(h[1]);
                        dmax = dmax.max(h[1]);
                    }
                    if dmax > 3.0 * dmin {
                        stragglers += 1;
                    }
                    if died {
                        // Every rank saw the flag; consume the death and
                        // roll back in lockstep.
                        death_pending = None;
                        if !prog.can_restart() {
                            return Err(ModelError::Gpu(VgpuError::DeviceLost {
                                op_index: step_idx,
                                kernel: "rank_death",
                            }));
                        }
                        // heartbeat flags are exact 0.0/1.0 sentinels — lint: allow(float-eq)
                        if flag != 0.0 {
                            // The dying rank pays the respawn cost on
                            // its virtual clock; peers absorb it through
                            // subsequent message timing.
                            prog.dev.host_advance(f.respawn_penalty_s);
                        }
                        prog.rollback();
                        continue;
                    }
                }
                prog.after_step()?;
            }
            let elapsed = prog.dev.host_time() - t_start;

            let (flops, kbusy) = prog.dev.profiler.flops_and_time();
            let pcie = prog.dev.profiler.total_copy_time;
            let breakdown: Vec<(String, u64, f64)> = prog
                .dev
                .profiler
                .by_name()
                .into_iter()
                .map(|a| (a.name.to_string(), a.calls, a.seconds))
                .collect();
            let final_state = (mc.mode == ExecMode::Functional).then(|| {
                let mut out = State::zeros(&prog.grid, cfg.n_tracers);
                prog.save_state(&mut out);
                out
            });
            let fs = prog.dev.fault_stats();
            let (ex, comm) = prog.halo.rank();
            let (mpi_wait, ls) = (ex.stats.mpi_wait_s, comm.link_stats());
            let restarts = prog.restarts;
            // Teardown: free every device allocation, then drain the
            // sanitizer (leakcheck certifies a clean per-rank heap).
            let san_findings = match prog.san_finish() {
                Some(rep) if !rep.findings.is_empty() => {
                    eprintln!("vsan (rank {rank}):\n{rep}");
                    rep.findings.len() as u64
                }
                _ => 0,
            };
            Ok(RankOut {
                elapsed,
                kbusy,
                mpi_wait,
                pcie,
                flops,
                breakdown,
                final_state,
                faults_injected: fs.ecc_events
                    + fs.oom_injected
                    + fs.stragglers
                    + ls.drops_injected
                    + ls.delays_injected,
                retries: fs.ecc_retries + ls.resends,
                restarts,
                stragglers,
                profile_degraded,
                san_findings,
            })
        });

    let mut outs = Vec::with_capacity(ranks);
    for r in results {
        match r {
            Ok(Ok(out)) => outs.push(out),
            Ok(Err(e)) => return Err(e),
            Err(fail) => return Err(ModelError::Rank(fail)),
        }
    }

    let total_time_s = outs.iter().map(|r| r.elapsed).fold(0.0f64, f64::max);
    let compute_s = outs.iter().map(|r| r.kbusy).fold(0.0f64, f64::max);
    let mpi_s = outs.iter().map(|r| r.mpi_wait).fold(0.0f64, f64::max);
    let pcie_s = outs.iter().map(|r| r.pcie).fold(0.0f64, f64::max);
    let total_flops: f64 = outs.iter().map(|r| r.flops).sum();
    let kernel_breakdown = outs[0].breakdown.clone();
    let faults_injected: u64 = outs.iter().map(|r| r.faults_injected).sum();
    let retries: u64 = outs.iter().map(|r| r.retries).sum();
    let restarts = outs.iter().map(|r| r.restarts).max().unwrap_or(0);
    let stragglers = outs.iter().map(|r| r.stragglers).max().unwrap_or(0);
    let profile_degraded = outs.iter().any(|r| r.profile_degraded);
    let san_findings: u64 = outs.iter().map(|r| r.san_findings).sum();
    let final_states: Option<Vec<State>> = if mc.mode == ExecMode::Functional {
        Some(outs.into_iter().map(|r| r.final_state.unwrap()).collect())
    } else {
        None
    };

    Ok(MultiGpuReport {
        ranks,
        steps: mc.steps,
        total_time_s,
        compute_s,
        mpi_s,
        pcie_s,
        total_flops,
        tflops: if total_time_s > 0.0 {
            total_flops / total_time_s / 1e12
        } else {
            0.0
        },
        kernel_breakdown,
        final_states,
        faults_injected,
        retries,
        restarts,
        stragglers,
        profile_degraded,
        san_findings,
    })
}
