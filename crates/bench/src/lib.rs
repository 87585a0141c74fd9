//! Shared configuration and reporting helpers for the figure/table
//! harnesses.
//!
//! Two clocks exist in this repository and are never mixed:
//!
//! * the **simulated clock** of the vgpu/cluster substrates, which the
//!   harness binaries report (it reproduces the paper's numbers
//!   independent of the host machine), and
//! * the **wall clock** measured by the `wallclock` binary (and, per
//!   kernel, by the separate `perfbench` package), which characterizes
//!   this Rust implementation itself.

use dycore::config::{ModelConfig, Terrain};

/// The per-GPU benchmark subdomain of the paper (320 × ny × 48, §IV-B),
/// with the production model's full set of seven water substances (the
/// "13 variables related to water substances" of overlap method 1 —
/// the ice-phase tracers are advected but sourceless, as in ASUCA's
/// warm-rain configuration).
pub fn paper_subdomain(ny: usize) -> ModelConfig {
    let mut cfg = ModelConfig::mountain_wave(320, ny, 48);
    cfg.dt = 5.0; // the paper's mountain-wave time step
    cfg.n_tracers = 7;
    cfg
}

/// A scaled-down subdomain for quick runs (same physics, smaller mesh).
pub fn small_subdomain(nx: usize, ny: usize, nz: usize) -> ModelConfig {
    let mut cfg = ModelConfig::mountain_wave(nx, ny, nz);
    cfg.dt = 5.0;
    cfg
}

/// Flat-terrain variant (used where the figure doesn't need the ridge).
pub fn flat(mut cfg: ModelConfig) -> ModelConfig {
    cfg.terrain = Terrain::Flat;
    cfg
}

/// Format a GFlops table row.
pub fn row3(label: &str, a: f64, b: f64, c: f64) -> String {
    format!("{label:>14} {a:>12.2} {b:>12.2} {c:>12.2}")
}

/// Simple fixed-width CSV-ish printer used by every harness so output
/// is both human-readable and machine-parsable.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("# {title}");
    println!("{}", cols.join(","));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_subdomain_matches_benchmark_setup() {
        let c = paper_subdomain(256);
        assert_eq!((c.nx, c.ny, c.nz), (320, 256, 48));
        assert_eq!(c.dt, 5.0);
        assert!(matches!(c.terrain, Terrain::AgnesiRidge { .. }));
    }

    #[test]
    fn flat_strips_terrain() {
        let c = flat(paper_subdomain(64));
        assert!(matches!(c.terrain, Terrain::Flat));
    }
}
