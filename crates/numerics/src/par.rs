//! Slab-partitioning helpers for parallel iteration over the
//! slowest-varying (y) dimension.
//!
//! Host fields (KIJ) and device buffers (XZY) both place `y` outermost,
//! so splitting the domain into `[j0, j1)` slabs gives contiguous,
//! disjoint memory ranges — the natural shared-memory parallelization
//! for stencil sweeps.
//! This module only *computes* the partition; execution lives in the one
//! thread-pool implementation of the workspace, `vgpu::pool::WorkerPool`
//! (this crate sits below `vgpu` in the dependency graph).

/// Number of worker threads to use by default: the machine's parallelism,
/// overridable with the `ASUCA_THREADS` environment variable.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ASUCA_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `[0, n)` into at most `parts` contiguous, balanced ranges.
pub fn split_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(n.max(1));
    let mut out = Vec::with_capacity(parts);
    let base = n / parts;
    let rem = n % parts;
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        if len == 0 {
            continue;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_balanced_and_covers() {
        for n in [0usize, 1, 7, 16, 100] {
            for p in [1usize, 2, 3, 8, 200] {
                let r = split_ranges(n, p);
                let total: usize = r.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, n);
                // contiguity
                let mut expect = 0;
                for &(a, b) in &r {
                    assert_eq!(a, expect);
                    assert!(b > a);
                    expect = b;
                }
                // balance within 1
                if let (Some(min), Some(max)) = (
                    r.iter().map(|(a, b)| b - a).min(),
                    r.iter().map(|(a, b)| b - a).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn split_is_pure() {
        // Same inputs, same partition — the foundation of the pool's
        // determinism contract.
        assert_eq!(split_ranges(37, 4), split_ranges(37, 4));
        assert_eq!(
            split_ranges(37, 4),
            vec![(0, 10), (10, 19), (19, 28), (28, 37)]
        );
    }
}
