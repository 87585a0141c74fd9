//! Traced run (`--trace 1`): per-layer numbers, each measured from
//! outside by timing calls into one module's public functions.
//!
//! * `kernels.<m>.*` — the traced replay of one long step
//!   ([`crate::replay`]) on the workload's (per-rank) device, beside
//!   the simulated seconds of the same launches; `pool_eff` replays the
//!   step again on a twin device with the other thread count (1 ↔ 2).
//! * `fields`, `geom`, `checkpoint`, `monitor` — host↔device data paths
//!   on a Functional device of the workload's shape and precision.
//! * `numerics.limiter`, `vgpu` — micro loops of the limiter and of
//!   empty launches.
//! * `halo`, `cluster`, `multi` — on the workload's process grid, or on
//!   the `halo_2rank_f32` grid for single-device workloads.

use asuca_gpu::checkpoint::Checkpoint;
use asuca_gpu::halo::HaloExchanger;
use asuca_gpu::monitor::GuardRails;
use asuca_gpu::multi::{MultiGpuConfig, OverlapMode};
use asuca_gpu::view::Dims;
use asuca_gpu::{DeviceGeom, ModelError, SingleGpu};
use dycore::grid::HALO;
use dycore::State;
use numerics::limiter::{limited_flux, limited_flux_lanes, Limiter};
use numerics::simd::{Lane, LANES};
use numerics::Real;
use std::hint::black_box;
use std::time::Instant;
use vgpu::{Device, DeviceSpec, Dim3, ExecMode, KernelCost, Launch, StreamId};

use crate::e2e::{
    checked_multi_call, checked_step, guard_check, setup_single, sim_matches, warm_up_checked,
    MIN_SAMPLES,
};
use crate::replay::{replay_step, Trace};
use crate::report::{has_column, kernel_metric, median, Outcome, MODULES};
use crate::workload::{Driver, Reference, Workload, REFERENCE_TSV};

/// Time `f` `reps` times and return the median seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        v.push(t0.elapsed().as_secs_f64());
    }
    median(&v)
}

/// Most untraced steps and replays one traced run makes (Phantom
/// steps take microseconds; this bounds the profiler's records).
const MAX_SAMPLES: usize = 1000;

/// Replay one step and warn when it no longer advances the simulated
/// clock like a real step (`step_sim` seconds).
fn checked_replay<R: Real>(gpu: &mut SingleGpu<R>, step_sim: f64) -> Result<Trace, ModelError> {
    let tr = replay_step(gpu)?;
    if !sim_matches(tr.sim_step_s, step_sim) {
        eprintln!(
            "perfbench: warning: replay advanced the simulated clock by {:?} s, a step by {step_sim:?} s; the replay no longer mirrors SingleGpu::step",
            tr.sim_step_s
        );
    }
    Ok(tr)
}

/// One trace whose per-module and total wall seconds are the medians
/// over `traces`; counts, flops and simulated seconds are those of the
/// first (they are deterministic).
fn merge(traces: &[Trace]) -> Trace {
    let mut out = traces[0].clone();
    for (m, stats) in out.modules.iter_mut().enumerate() {
        let walls: Vec<f64> = traces.iter().map(|t| t.modules[m].wall_s).collect();
        stats.wall_s = median(&walls);
    }
    let totals: Vec<f64> = traces.iter().map(|t| t.total_wall_s).collect();
    out.total_wall_s = median(&totals);
    out
}

/// Whether a sampling loop that has taken `n` samples since `t0` goes
/// on: at least `min`, then until `secs` have passed.
fn more(n: usize, min: usize, t0: Instant, secs: f64) -> bool {
    n < min || (n < MAX_SAMPLES && t0.elapsed().as_secs_f64() < secs)
}

pub fn run_traced<R: Real>(
    w: &Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Result<Outcome, ModelError> {
    let mut out = Outcome::default();
    // The per-rank device of a decomposed workload runs without the
    // driver's checkpoint and guard cadence: the replay mirrors the
    // bare step.
    let mut probe_w = w.clone();
    probe_w.cfg.checkpoint_every = 0;
    probe_w.cfg.guard_every = 0;
    let probe_ref = match w.driver {
        Driver::Single => Some(reference),
        Driver::Multi { .. } => None,
    };

    // Untraced steps and traced replays on the workload's device,
    // alternated so that drift of the host's speed hits both alike.
    let (mut gpu, _) = setup_single::<R>(&probe_w, seed)?;
    warm_up_checked(
        &mut gpu,
        seed,
        probe_ref.unwrap_or(&Reference::default()),
        &mut out,
    );
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut traces = Vec::new();
    while more(walls.len(), MIN_SAMPLES, t0, 0.6 * seconds) {
        let (took, step_sim) = checked_step(&mut gpu, probe_ref, &mut out);
        walls.push(took.wall_s);
        traces.push(checked_replay(&mut gpu, step_sim)?);
    }
    let untraced = median(&walls);
    let trace = merge(&traces);
    let step_sim = trace.sim_step_s;
    let sim_gflops = gpu.simulated_gflops();
    guard_check(&mut gpu, &mut out)?;

    limiter_layer::<R>(w.cfg.limiter, &mut out);
    launch_layer::<R>(gpu.geom.ny, &mut out);

    // Data paths, always on a Functional device.
    if w.mode == ExecMode::Functional {
        data_paths(&mut gpu, &mut out)?;
        drop(gpu);
    } else {
        drop(gpu);
        let mut fw = probe_w.clone();
        fw.mode = ExecMode::Functional;
        let (mut fgpu, _) = setup_single::<R>(&fw, seed)?;
        data_paths(&mut fgpu, &mut out)?;
    }

    // Twin with the other thread count, for pool efficiency (built
    // after the first device is freed, so the peak holds one model).
    let mut twin_w = probe_w.clone();
    twin_w.cfg.threads = if w.threads() > 1 { 1 } else { 2 };
    let (mut twin, _) = setup_single::<R>(&twin_w, seed)?;
    let t0 = Instant::now();
    let mut twin_traces = Vec::new();
    while more(twin_traces.len(), 1, t0, 0.1 * seconds) {
        twin_traces.push(checked_replay(&mut twin, step_sim)?);
    }
    let twin_trace = merge(&twin_traces);
    drop(twin);

    let kernel_sum = trace.kernel_wall_s();
    println!(
        "# traced {}: {} replays, untraced step {untraced:.6} s, Σ replayed kernels {kernel_sum:.6} s",
        w.name,
        traces.len()
    );
    println!(
        "# {:<10} {:>12} {:>7} {:>6} {:>13} {:>9} {:>12} {:>14} {:>8}",
        "module",
        "wall_s/step",
        "share",
        "calls",
        "sim_s/step",
        "sim_share",
        "host_GFlop/s",
        "host_GB/s(cmp)",
        "pool_eff"
    );
    let sim_sum: f64 = trace.modules.iter().map(|m| m.sim_s).sum();
    for (m, name) in MODULES.iter().enumerate() {
        let s = trace.modules[m];
        let twin_wall = twin_trace.modules[m].wall_s;
        let (t1, t2) = if w.threads() > 1 {
            (twin_wall, s.wall_s)
        } else {
            (s.wall_s, twin_wall)
        };
        let pool_eff = t1 / (2.0 * t2);
        let share = s.wall_s / untraced;
        let gflops = s.flops / s.wall_s / 1e9;
        let gbps = s.bytes / s.wall_s / 1e9;
        println!(
            "# {name:<10} {:>12.6} {share:>7.4} {:>6} {:>13.6e} {:>9.4} {gflops:>12.3} {gbps:>14.3} {pool_eff:>8.3}",
            s.wall_s,
            s.calls,
            s.sim_s,
            s.sim_s / sim_sum,
        );
        for (column, value) in [
            ("wall_s_per_step", s.wall_s),
            ("share", share),
            ("calls_per_step", s.calls as f64),
            ("sim_s_per_step", s.sim_s),
            ("host_gflops", gflops),
            ("host_gbps_computed", gbps),
            ("pool_eff", pool_eff),
        ] {
            if has_column(name, column) {
                out.set(&kernel_metric(name, column), value);
            }
        }
    }

    // Decomposed-run layers: the workload's own process grid, or the
    // halo_2rank_f32 grid (in its f32) for single-device workloads.
    let sim_step = match &w.driver {
        Driver::Multi { mc, steps_per_call } => {
            halo_layer::<R>(mc, &mut out);
            multi_layers::<R>(mc, *steps_per_call, seed, reference, &mut out)
        }
        Driver::Single => {
            let h = Workload::by_name("halo_2rank_f32").expect("halo workload");
            let Driver::Multi { mc, steps_per_call } = &h.driver else {
                unreachable!("halo_2rank_f32 is decomposed")
            };
            let r = Reference::parse(REFERENCE_TSV, h.name).expect("reference table parses");
            halo_layer::<f32>(mc, &mut out);
            multi_layers::<f32>(mc, *steps_per_call, seed, &r, &mut out);
            step_sim
        }
    };
    let coverage = kernel_sum / untraced;
    if w.name.starts_with("paper_") && coverage < 0.9 {
        eprintln!(
            "perfbench: warning: replayed kernels cover only {coverage:.3} of the {} step",
            w.name
        );
    }
    out.set("single.orchestration_s_per_step", untraced - kernel_sum);
    out.set("single.coverage", coverage);
    out.set("sim.s_per_step", sim_step);
    out.set("sim.gflops", sim_gflops);
    out.set("trace.overhead_frac", trace.total_wall_s / untraced - 1.0);
    Ok(out)
}

/// Host↔device data paths: `DeviceState::{upload, download}`,
/// `DeviceGeom::build`, `Checkpoint::{capture, restore}` and
/// `GuardRails::check`. Every call leaves the state as it was.
fn data_paths<R: Real>(gpu: &mut SingleGpu<R>, out: &mut Outcome) -> Result<(), ModelError> {
    const REPS: usize = 3;
    let mut s = State::zeros(&gpu.grid, gpu.cfg.n_tracers);
    out.set(
        "fields.download_s",
        median_secs(REPS, || gpu.ds.download(&mut gpu.dev, &gpu.geom, &mut s)),
    );
    out.set(
        "fields.upload_s",
        median_secs(REPS, || gpu.ds.upload(&mut gpu.dev, &gpu.geom, &s)),
    );
    out.set(
        "geom.build_s",
        median_secs(REPS, || {
            let g = DeviceGeom::build(&mut gpu.dev, &gpu.grid, &gpu.base);
            g.free(&mut gpu.dev);
        }),
    );

    let d2h0 = gpu.dev.profiler.total_d2h_bytes;
    let mut cp = Checkpoint::capture(&mut gpu.dev, &gpu.ds, &gpu.geom, gpu.steps_taken, gpu.time);
    out.set("checkpoint.bytes", gpu.dev.profiler.total_d2h_bytes - d2h0);
    out.set(
        "checkpoint.capture_s",
        median_secs(REPS, || {
            cp = Checkpoint::capture(&mut gpu.dev, &gpu.ds, &gpu.geom, gpu.steps_taken, gpu.time)
        }),
    );
    out.set(
        "checkpoint.restore_s",
        median_secs(REPS, || cp.restore(&mut gpu.dev, &gpu.ds, &gpu.geom)),
    );

    let guard = GuardRails::new(&mut gpu.dev, &gpu.geom)?;
    let c = gpu.cfg.clone();
    let mut result = Ok(());
    let check_s = median_secs(5, || {
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
        if result.is_ok() {
            result = r;
        }
    });
    guard.free(&mut gpu.dev);
    if let Err(e) = result {
        out.fail(1, &format!("guard-rail check after the data paths: {e}"));
    }
    out.set("monitor.check_s", check_s);
    Ok(())
}

/// Deterministic limiter inputs: `n` faces of (vel, qm1, q0, qp1, qp2),
/// with winds of both signs and θ-like values in random order, so both
/// upwind branches and both limiter regimes occur.
fn faces<R: Real>(n: usize) -> [Vec<R>; 5] {
    let mut cols: [Vec<R>; 5] = Default::default();
    for i in 0..n {
        for (c, col) in cols.iter_mut().enumerate() {
            let x = numerics::rng::draw(&[0xface, i as u64, c as u64]);
            let v = if c == 0 {
                20.0 * (x - 0.5)
            } else {
                290.0 + 4.0 * x
            };
            col.push(R::from_f64(v));
        }
    }
    cols
}

/// `numerics::limiter::limited_flux{,_lanes}` in ns per face, at the
/// workload's precision (the lane loop in the AVX2+FMA build the
/// kernels use when the host has it).
fn limiter_layer<R: Real>(lim: Limiter, out: &mut Outcome) {
    const N: usize = 4096;
    const SWEEPS: usize = 64;
    let [vel, qm1, q0, qp1, qp2] = faces::<R>(N);
    let scalar = median_secs(5, || {
        for _ in 0..SWEEPS {
            let mut acc = R::ZERO;
            for i in 0..N {
                acc += limited_flux(lim, vel[i], qm1[i], q0[i], qp1[i], qp2[i]);
            }
            black_box(acc);
        }
    });
    let lanes_sweep = || {
        let mut acc = R::Lane::splat(R::ZERO);
        let mut i = 0;
        while i + LANES <= N {
            acc += limited_flux_lanes::<R>(
                lim,
                R::Lane::load(&vel[i..]),
                R::Lane::load(&qm1[i..]),
                R::Lane::load(&q0[i..]),
                R::Lane::load(&qp1[i..]),
                R::Lane::load(&qp2[i..]),
            );
            i += LANES;
        }
        black_box(acc);
    };
    let lanes = median_secs(5, || {
        for _ in 0..SWEEPS {
            with_vector_isa(lanes_sweep);
        }
    });
    let per_face = 1e9 / (N * SWEEPS) as f64;
    out.set("numerics.limiter.ns_per_face_scalar", scalar * per_face);
    out.set("numerics.limiter.ns_per_face_lanes", lanes * per_face);
}

/// Run `f` inside an AVX2+FMA frame when the host supports it (as the
/// kernels' stamped twins do), else as is.
fn with_vector_isa(f: impl FnOnce()) {
    #[cfg(target_arch = "x86_64")]
    {
        /// # Safety
        ///
        /// The host must support AVX2 and FMA.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx(f: impl FnOnce()) {
            f()
        }
        if numerics::simd::lanes_native() {
            // SAFETY: the features were detected at runtime just above.
            unsafe { avx(f) };
            return;
        }
    }
    f()
}

/// An empty `Device::launch_par` over `span` rows: Functional at 1 and
/// 2 host threads, and Phantom.
fn launch_layer<R: Real>(span: usize, out: &mut Outcome) {
    const LAUNCHES: usize = 2000;
    let per_launch = |mode: ExecMode, threads: usize| {
        let mut dev = Device::<R>::new(DeviceSpec::tesla_s1070().with_host_threads(threads), mode);
        dev.profiler.set_detailed(false);
        let launch = Launch::new(
            "bench_empty",
            Dim3::new(1, 1, 1),
            Dim3::new(64, 1, 1),
            KernelCost::streaming(1, 0.0, 0.0, 0.0),
        );
        let s = median_secs(5, || {
            for _ in 0..LAUNCHES {
                dev.launch_par(StreamId::DEFAULT, launch.clone(), span, |_, j0, j1| {
                    black_box((j0, j1));
                })
                .expect("no fault plan is installed");
            }
        });
        s / LAUNCHES as f64 * 1e6
    };
    out.set("vgpu.launch_us_t1", per_launch(ExecMode::Functional, 1));
    out.set("vgpu.launch_us_t2", per_launch(ExecMode::Functional, 2));
    out.set("vgpu.phantom_launch_us", per_launch(ExecMode::Phantom, 1));
}

/// `run_multi` with overlap against without: wall ratio of the step
/// loops (setup subtracted) and simulated MPI seconds per step. Both
/// calls are output-checked; overlap must not change the results.
/// Returns the simulated seconds per step of the overlapped run.
fn multi_layers<R: Real>(
    mc: &MultiGpuConfig,
    steps: usize,
    seed: u64,
    reference: &Reference,
    out: &mut Outcome,
) -> f64 {
    let setup = median_secs(3, || {
        let _ = crate::e2e::seeded_run_multi::<R>(
            &MultiGpuConfig {
                steps: 0,
                ..mc.clone()
            },
            seed,
        );
    });
    let mut first = None;
    let ov = MultiGpuConfig {
        overlap: OverlapMode::Overlap,
        ..mc.clone()
    };
    let (wall_ov, rep) = checked_multi_call::<R>(&ov, steps, seed, reference, &mut first, out);
    // The serial schedule has its own simulated timeline but must
    // reproduce the overlapped run's state bit for bit.
    let serial_ref = Reference {
        sim_s: None,
        ..reference.clone()
    };
    let none = MultiGpuConfig {
        overlap: OverlapMode::None,
        ..mc.clone()
    };
    let (wall_none, _) = checked_multi_call::<R>(&none, steps, seed, &serial_ref, &mut first, out);
    out.set(
        "multi.overlap_wall_ratio",
        (wall_ov.wall_s - setup) / (wall_none.wall_s - setup),
    );

    // A failed call is already counted; its metrics read as NaN, which
    // makes the run report an error instead of a number.
    let (mpi_s, total_s) = rep.map_or((f64::NAN, f64::NAN), |r| (r.mpi_s, r.total_time_s));
    out.set("multi.sim_mpi_s_per_step", mpi_s / steps as f64);
    total_s / steps as f64
}

/// `HaloExchanger::exchange` of one centre field between the ranks of
/// `mc`'s process grid, and a point-to-point message of one y-slab on
/// the same communicator (half a ping-pong round trip).
fn halo_layer<R: Real>(mc: &MultiGpuConfig, out: &mut Outcome) {
    const EXCHANGES: usize = 30;
    const PINGS: usize = 200;
    let c = &mc.local_cfg;
    let dc = Dims::center(c.nx, c.ny, c.nz, HALO);
    let dw = Dims::wlevel(c.nx, c.ny, c.nz, HALO);
    let topo = cluster::Topo2D::new(mc.px, mc.py);
    let ranks = mc.px * mc.py;
    let results = cluster::spawn_ranks::<Vec<R>, _, _>(ranks, mc.net, |mut comm| {
        let rank = comm.rank();
        let mut dev = Device::<R>::new(mc.spec.clone().with_host_threads(1), mc.mode);
        dev.profiler.set_detailed(false);
        let mut ex = HaloExchanger::new(&mut dev, &topo, rank, dc, dw);
        let buf = dev.alloc(dc.len()).expect("halo field fits");
        let mut walls = Vec::with_capacity(EXCHANGES);
        for _ in 0..EXCHANGES {
            let t0 = Instant::now();
            ex.exchange(&mut dev, &mut comm, StreamId::DEFAULT, buf, dc, 0)
                .expect("fault-free exchange");
            walls.push(t0.elapsed().as_secs_f64());
        }
        let bytes = ex.stats.mpi_bytes as f64 / EXCHANGES as f64;

        // Ping-pong between ranks 0 and 1 with a y-slab payload.
        let slab = asuca_gpu::kernels::boundary::y_slab_len(dc);
        let tag = 1 << 20;
        let mut rtts = Vec::with_capacity(PINGS);
        let mut now = dev.host_time();
        for _ in 0..PINGS {
            let t0 = Instant::now();
            match rank {
                0 => {
                    now = comm
                        .send(1, tag, vec![R::ZERO; slab], (slab * R::BYTES) as u64, now)
                        .expect("send");
                    now = comm.recv(1, tag, now).expect("recv").now;
                }
                1 => {
                    let m = comm.recv(0, tag, now).expect("recv");
                    now = comm
                        .send(0, tag, m.data, (slab * R::BYTES) as u64, m.now)
                        .expect("send");
                }
                _ => {}
            }
            rtts.push(t0.elapsed().as_secs_f64());
        }
        ex.free(&mut dev);
        let _ = dev.free(buf);
        (median(&walls), bytes, median(&rtts) / 2.0)
    });
    let (exchange_s, bytes, msg_s) = results[0];
    out.set("halo.exchange_s", exchange_s);
    out.set("halo.bytes_per_exchange", bytes);
    out.set("cluster.msg_us", msg_s * 1e6);
}
