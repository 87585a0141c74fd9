//! Interconnect timing parameters.

/// Network timing model: point-to-point messages cost
/// `latency + bytes / bandwidth` on top of the sender's depart time.
///
/// The effective bandwidth already folds in protocol overhead and rail
/// contention — the paper reports 438 MB/s achieved between neighbour
/// nodes over dual-rail SDR InfiniBand with Voltaire MPI, which is the
/// default here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Effective point-to-point MPI bandwidth [bytes/s].
    pub bandwidth_bytes_s: f64,
    /// Per-message latency \[s\].
    pub latency_s: f64,
    /// Host-side CPU cost of posting a send or receive \[s\].
    pub sw_overhead_s: f64,
}

impl NetworkSpec {
    /// TSUBAME 1.2: dual-rail SDR InfiniBand, effective 438 MB/s
    /// (the paper's measured figure), ~20 µs latency.
    pub fn tsubame1_infiniband() -> Self {
        NetworkSpec {
            bandwidth_bytes_s: 438.0e6,
            latency_s: 20.0e-6,
            sw_overhead_s: 2.0e-6,
        }
    }

    /// TSUBAME 2.0 projection (§VII): full-bisection dual-rail QDR
    /// InfiniBand, ≥4× the effective per-GPU bandwidth of TSUBAME 1.2.
    pub fn tsubame2_infiniband() -> Self {
        NetworkSpec {
            bandwidth_bytes_s: 4.0 * 438.0e6,
            latency_s: 8.0e-6,
            sw_overhead_s: 2.0e-6,
        }
    }

    /// An ideal zero-cost network (for functional tests where timing is
    /// irrelevant).
    pub fn ideal() -> Self {
        NetworkSpec {
            bandwidth_bytes_s: f64::INFINITY,
            latency_s: 0.0,
            sw_overhead_s: 0.0,
        }
    }

    /// Wire time of a message of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if self.bandwidth_bytes_s.is_infinite() {
            self.latency_s
        } else {
            self.latency_s + bytes as f64 / self.bandwidth_bytes_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth_is_default_tsubame1() {
        let n = NetworkSpec::tsubame1_infiniband();
        assert_eq!(n.bandwidth_bytes_s, 438.0e6);
    }

    #[test]
    fn transfer_time_linear_in_bytes() {
        let n = NetworkSpec::tsubame1_infiniband();
        let t1 = n.transfer_time(438_000_000);
        assert!((t1 - (1.0 + n.latency_s)).abs() < 1e-9);
        let t0 = n.transfer_time(0);
        assert_eq!(t0, n.latency_s);
    }

    #[test]
    fn ideal_network_is_free() {
        assert_eq!(NetworkSpec::ideal().transfer_time(1 << 30), 0.0);
    }
}
