//! The benchmark's workloads, their seeded inputs and the recorded
//! reference outputs they are checked against.

use asuca_gpu::multi::{MultiGpuConfig, OverlapMode};
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use dycore::grid::Grid;
use dycore::State;
use vgpu::{DeviceSpec, ExecMode};

/// Floating-point precision of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    F32,
    F64,
}

/// How the workload drives the model.
#[derive(Clone)]
pub enum Driver {
    /// `SingleGpu::{new, load_state, run}` on one device.
    Single,
    /// `run_multi` over a process grid; `steps_per_call` long steps per
    /// call (a fixed count, so every call's outputs are comparable).
    Multi {
        mc: Box<MultiGpuConfig>,
        steps_per_call: usize,
    },
}

/// One named workload.
#[derive(Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Per-device model configuration (the subdomain for `Multi`).
    pub cfg: ModelConfig,
    pub precision: Precision,
    pub mode: ExecMode,
    pub driver: Driver,
}

/// The benchmark's workloads, as listed in `BENCHMARK.json`.
pub const NAMES: [&str; 3] = ["paper_f32_t1", "halo_2rank_f32", "phantom_2rank"];

/// Further workloads `--workload` accepts but `BENCHMARK.json` does not
/// list: `paper_f64_t2` runs two pool threads on every core of a
/// two-core host, where its step time swings too much between runs to
/// gate on (see `perfbench/README.md`).
pub const EXTRA: [&str; 1] = ["paper_f64_t2"];

/// The paper's per-GPU subdomain configuration at `nx × ny × 48` with
/// the environment-driven knobs (fault injection, checkpoint and guard
/// cadence) pinned, so a stray variable cannot change what is measured.
fn subdomain(nx: usize, ny: usize, threads: usize) -> ModelConfig {
    let mut cfg = asuca_bench::paper_subdomain(ny);
    if nx != cfg.nx {
        let paper = cfg;
        cfg = ModelConfig::mountain_wave(nx, ny, paper.nz);
        cfg.dt = paper.dt;
        cfg.n_tracers = paper.n_tracers;
    }
    cfg.threads = threads;
    cfg.simd = Some(true);
    cfg.fault = None;
    cfg.checkpoint_every = 0;
    cfg.guard_every = 0;
    cfg
}

fn two_ranks(local: ModelConfig, mode: ExecMode) -> MultiGpuConfig {
    MultiGpuConfig {
        local_cfg: local,
        px: 2,
        py: 1,
        overlap: OverlapMode::Overlap,
        spec: DeviceSpec::tesla_s1070(),
        net: NetworkSpec::tsubame1_infiniband(),
        mode,
        steps: 0,
        detailed_profile: false,
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "paper_f64_t2" => Workload {
                name: "paper_f64_t2",
                cfg: subdomain(320, 256, 2),
                precision: Precision::F64,
                mode: ExecMode::Functional,
                driver: Driver::Single,
            },
            "paper_f32_t1" => Workload {
                name: "paper_f32_t1",
                cfg: subdomain(320, 256, 1),
                precision: Precision::F32,
                mode: ExecMode::Functional,
                driver: Driver::Single,
            },
            "halo_2rank_f32" => {
                let mut local = subdomain(64, 64, 1);
                local.checkpoint_every = 2;
                local.guard_every = 1;
                Workload {
                    name: "halo_2rank_f32",
                    cfg: local.clone(),
                    precision: Precision::F32,
                    mode: ExecMode::Functional,
                    driver: Driver::Multi {
                        mc: Box::new(two_ranks(local, ExecMode::Functional)),
                        steps_per_call: 4,
                    },
                }
            }
            "phantom_2rank" => {
                let local = subdomain(320, 256, 1);
                Workload {
                    name: "phantom_2rank",
                    cfg: local.clone(),
                    precision: Precision::F32,
                    mode: ExecMode::Phantom,
                    driver: Driver::Multi {
                        mc: Box::new(two_ranks(local, ExecMode::Phantom)),
                        steps_per_call: 1000,
                    },
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// Host threads one device of this workload runs its kernels on.
    pub fn threads(&self) -> usize {
        self.cfg.threads.max(1)
    }
}

/// Deterministic θ (and vapour) perturbation drawn from `seed`, laid
/// down in *global* coordinates so every rank of a decomposed run
/// initializes its piece of the same field. `(x0, y0)` is the subdomain
/// origin and `(gnx, gny)` the global interior extent.
pub fn perturb(
    grid: &Grid,
    s: &mut State,
    seed: u64,
    x0: usize,
    y0: usize,
    gnx: usize,
    gny: usize,
) {
    let draw = |k: u64| numerics::rng::draw(&[0x5eed_0a5c_a000_0001, seed, k]);
    // 0.5–1.0 of the `tests/multi_gpu.rs` anomaly, at a seeded phase.
    let amp0 = 0.5 + 0.5 * draw(1);
    let (phx, phy) = (draw(2), draw(3));
    let tau = std::f64::consts::TAU;
    for j in 0..grid.ny as isize {
        for i in 0..grid.nx as isize {
            let gx = (x0 as isize + i) as f64 / gnx as f64;
            let gy = (y0 as isize + j) as f64 / gny as f64;
            for k in 0..grid.nz as isize {
                let gz = k as f64 / grid.nz as f64;
                let amp = amp0 * (tau * (gx + phx)).sin() * (tau * (gy + phy)).cos() * (1.0 - gz);
                let rho = s.rho.at(i, j, k);
                let th = s.th.at(i, j, k);
                s.th.set(i, j, k, th + rho * 0.8 * amp);
                s.q[0].set(i, j, k, rho * 2.0e-3 * (1.0 + amp).max(0.0));
            }
        }
    }
    s.fill_halos_periodic();
}

/// Recorded outputs of one workload: simulated seconds (per long step
/// after the first for `Single`, per `run_multi` call for `Multi`;
/// data-independent, so checked on every seed) and FNV-1a state checksums for the seeds they
/// were recorded on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    pub sim_s: Option<f64>,
    pub checksums: Vec<(u64, u64)>,
}

impl Reference {
    /// Parse the rows of `reference.tsv` that belong to `workload`:
    /// `<workload> sim <seconds>` and `<workload> <seed> <checksum hex>`.
    pub fn parse(table: &str, workload: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for (n, line) in table.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() != 3 {
                return Err(format!("reference line {}: expected 3 columns", n + 1));
            }
            if cols[0] != workload {
                continue;
            }
            let bad = |what: &str| format!("reference line {}: bad {what}", n + 1);
            if cols[1] == "sim" {
                r.sim_s = Some(cols[2].parse().map_err(|_| bad("seconds"))?);
            } else {
                let seed = cols[1].parse().map_err(|_| bad("seed"))?;
                let sum = u64::from_str_radix(cols[2], 16).map_err(|_| bad("checksum"))?;
                r.checksums.push((seed, sum));
            }
        }
        Ok(r)
    }

    /// The recorded checksum for `seed`, if any.
    pub fn checksum(&self, seed: u64) -> Option<u64> {
        self.checksums.iter().find(|c| c.0 == seed).map(|c| c.1)
    }
}

/// The embedded reference table.
pub const REFERENCE_TSV: &str = include_str!("../reference.tsv");

/// Combine per-rank checksums into one run checksum.
pub fn combine_checksums(states: &[State]) -> u64 {
    dycore::state::fnv1a(states.iter().map(State::checksum))
}
