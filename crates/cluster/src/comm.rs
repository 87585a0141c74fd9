//! Rank communicator and rank-per-thread runtime.
//!
//! Timing semantics: every operation takes the caller's current virtual
//! time `now` and returns the advanced time. A blocking `recv` called at
//! the point the data is needed is time-equivalent to MPI's
//! `Irecv`+`Wait`, because arrival is computed as
//! `max(wait_time, depart + latency + bytes/bw)`; sends are buffered and
//! return after a software overhead, like an eager-protocol `Isend`.
//!
//! ## Failure model
//!
//! Nothing here panics on peer failure anymore: all communication
//! returns `Result<_, CommError>`. Two clocks are involved and must not
//! be confused:
//!
//! * The **virtual clock** (`now`) models the TSUBAME interconnect,
//!   including the retry protocol for injected link faults: a dropped
//!   message costs the receiver one timeout window (exponential
//!   backoff, [`Comm::set_retry`]) plus a resend-request latency per
//!   attempt, all computed analytically from the message envelope — so
//!   retries advance `now` deterministically regardless of thread
//!   interleaving.
//! * The **wall clock** guards the host process against real deadlocks:
//!   [`Comm::recv`] waits at most [`Comm::set_recv_wall_timeout`] real
//!   time for a matching message before returning
//!   [`CommError::Timeout`], and a disconnected peer yields
//!   [`CommError::PeerLost`] immediately instead of hanging the test
//!   process. The wall deadline never influences virtual timestamps.
//!
//! Link faults themselves are injected at the *sender*: a seeded,
//! counter-keyed schedule ([`LinkFaultSpec`], drawing through
//! [`numerics::rng`] on `(seed, src, dst, domain, msg-index)`) stamps
//! each envelope with how many times the virtual link dropped it and
//! any extra delay. The underlying channel stays reliable — drops are
//! virtual link-layer events, which keeps the retry protocol free of
//! real extra messages and therefore bit-reproducible.

use crate::network::NetworkSpec;
use numerics::rng;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Reserved tag for collectives.
const CTRL_TAG: u32 = u32::MAX;

/// Domain separators for the per-message fault draws.
const DOM_DROP: u64 = 10;
const DOM_DELAY: u64 = 11;

/// Communication failure, surfaced instead of a panic or a hang.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// The channel to `rank` is disconnected: the peer exited or died.
    PeerLost { rank: usize },
    /// No matching message arrived within the wall-clock deadline.
    Timeout { src: usize, tag: u32 },
    /// Injected drops exceeded the bounded retry budget.
    RetriesExhausted { src: usize, tag: u32, drops: u32 },
    /// Malformed collective framing.
    Protocol { detail: String },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerLost { rank } => write!(f, "peer rank {rank} is gone"),
            CommError::Timeout { src, tag } => {
                write!(f, "recv from rank {src} tag {tag} timed out (wall clock)")
            }
            CommError::RetriesExhausted { src, tag, drops } => write!(
                f,
                "message from rank {src} tag {tag} dropped {drops} times, retries exhausted"
            ),
            CommError::Protocol { detail } => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Seeded link-fault schedule (installed per communicator via
/// [`Comm::enable_link_faults`]). Rates are per-message probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultSpec {
    /// Master seed; mixed with (src, dst, msg-index) per draw.
    pub seed: u64,
    /// Per-message probability of each (repeated) virtual drop.
    pub drop_rate: f64,
    /// Cap on injected drops per message; keep at or below the
    /// receiver's retry budget so every message stays deliverable.
    pub max_drops: u32,
    /// Per-message probability of an extra in-flight delay.
    pub delay_rate: f64,
    /// The extra delay \[s\] when injected.
    pub delay_s: f64,
}

impl LinkFaultSpec {
    /// A schedule that injects nothing (base for overrides).
    pub fn quiet(seed: u64) -> Self {
        LinkFaultSpec {
            seed,
            drop_rate: 0.0,
            max_drops: 2,
            delay_rate: 0.0,
            delay_s: 0.0,
        }
    }
}

/// Counters of injected link faults and the retries they caused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Virtual drops stamped onto outgoing envelopes (sender side).
    pub drops_injected: u64,
    /// Extra-delay injections (sender side).
    pub delays_injected: u64,
    /// Resend rounds this rank performed as a receiver.
    pub resends: u64,
}

struct Msg<T> {
    tag: u32,
    depart: f64,
    bytes: u64,
    data: Option<T>,
    ctl: Vec<f64>,
    /// Times the virtual link dropped this message before delivery.
    drops: u32,
    /// Injected extra in-flight delay [s].
    extra_delay: f64,
}

/// Result of a receive: the payload and the receiver's advanced clock.
pub struct RecvOut<T> {
    pub data: T,
    pub now: f64,
}

/// Per-rank communicator (the MPI_COMM_WORLD analogue).
pub struct Comm<T> {
    rank: usize,
    size: usize,
    net: NetworkSpec,
    tx: Vec<Sender<Msg<T>>>,
    rx: Vec<Receiver<Msg<T>>>,
    pending: Vec<VecDeque<Msg<T>>>,
    faults: Option<LinkFaultSpec>,
    /// Per-destination message counters keying the fault draws.
    msg_idx: Vec<u64>,
    stats: LinkStats,
    /// Wall-clock deadline for a blocking receive (deadlock guard).
    recv_wall_timeout: Duration,
    /// First virtual retry-timeout window [s].
    retry_timeout_s: f64,
    /// Multiplier on the timeout window per retry round.
    retry_backoff: f64,
    /// Bounded retry budget per message.
    max_retries: u32,
}

impl<T: Send + 'static> Comm<T> {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn network(&self) -> &NetworkSpec {
        &self.net
    }

    /// Install a seeded link-fault schedule for messages *sent by this
    /// rank*. Drivers install it after initialization so setup traffic
    /// is never subject to injection.
    pub fn enable_link_faults(&mut self, spec: LinkFaultSpec) {
        assert!(
            spec.max_drops <= self.max_retries,
            "max_drops beyond the retry budget would make messages undeliverable"
        );
        self.faults = Some(spec);
    }

    /// Counters of injected faults and performed resends.
    pub fn link_stats(&self) -> LinkStats {
        self.stats
    }

    /// Wall-clock deadline for blocking receives (default 30 s); purely
    /// a deadlock guard, never part of virtual time.
    pub fn set_recv_wall_timeout(&mut self, d: Duration) {
        self.recv_wall_timeout = d;
    }

    /// Virtual retry protocol knobs: first timeout window \[s\], backoff
    /// multiplier per round, and the bounded retry budget.
    pub fn set_retry(&mut self, timeout_s: f64, backoff: f64, max_retries: u32) {
        assert!(timeout_s > 0.0 && backoff >= 1.0);
        self.retry_timeout_s = timeout_s;
        self.retry_backoff = backoff;
        self.max_retries = max_retries;
    }

    /// Sender-side fault draw for the next message to `dst`.
    fn envelope_faults(&mut self, dst: usize) -> (u32, f64) {
        let Some(fs) = self.faults else {
            return (0, 0.0);
        };
        let idx = self.msg_idx[dst];
        self.msg_idx[dst] += 1;
        let (src, dst64) = (self.rank as u64, dst as u64);
        let mut drops = 0u32;
        while drops < fs.max_drops
            && rng::draw(&[fs.seed, src, dst64, DOM_DROP, idx, drops as u64]) < fs.drop_rate
        {
            drops += 1;
        }
        let mut extra_delay = 0.0;
        if fs.delay_rate > 0.0 && rng::draw(&[fs.seed, src, dst64, DOM_DELAY, idx]) < fs.delay_rate
        {
            extra_delay = fs.delay_s;
            self.stats.delays_injected += 1;
        }
        self.stats.drops_injected += drops as u64;
        (drops, extra_delay)
    }

    /// Virtual time the receiver spends on `drops` retry rounds: one
    /// (exponentially backed-off) timeout window plus one resend-request
    /// latency per round.
    fn retry_penalty(&self, drops: u32) -> f64 {
        let mut p = 0.0;
        for k in 0..drops {
            p += self.retry_timeout_s * self.retry_backoff.powi(k as i32) + self.net.latency_s;
        }
        p
    }

    /// Send `data` (`bytes` long on the wire) to `dst`; returns the
    /// sender's advanced clock. Fails with [`CommError::PeerLost`] if
    /// `dst` is gone.
    pub fn send(
        &mut self,
        dst: usize,
        tag: u32,
        data: T,
        bytes: u64,
        now: f64,
    ) -> Result<f64, CommError> {
        assert!(tag != CTRL_TAG, "tag {CTRL_TAG} is reserved");
        let depart = now + self.net.sw_overhead_s;
        let (drops, extra_delay) = self.envelope_faults(dst);
        self.tx[dst]
            .send(Msg {
                tag,
                depart,
                bytes,
                data: Some(data),
                ctl: Vec::new(),
                drops,
                extra_delay,
            })
            .map_err(|_| CommError::PeerLost { rank: dst })?;
        Ok(depart)
    }

    /// Blocking receive of the next message from `src` with `tag`;
    /// returns payload and the advanced clock.
    ///
    /// Injected drops recorded in the envelope cost retry rounds on the
    /// *virtual* clock (see module docs); the *wall* clock deadline only
    /// guards against real deadlocks.
    pub fn recv(&mut self, src: usize, tag: u32, now: f64) -> Result<RecvOut<T>, CommError> {
        let msg = self.take_matching(src, tag)?;
        if msg.drops > self.max_retries {
            return Err(CommError::RetriesExhausted {
                src,
                tag,
                drops: msg.drops,
            });
        }
        self.stats.resends += msg.drops as u64;
        let arrival = if msg.drops == 0 {
            (msg.depart + msg.extra_delay + self.net.transfer_time(msg.bytes)).max(now)
                + self.net.sw_overhead_s
        } else {
            // The winning resend leaves after the last resend request,
            // which itself waited out the preceding timeout windows.
            let resend = (msg.depart + msg.extra_delay).max(now + self.retry_penalty(msg.drops));
            resend + self.net.transfer_time(msg.bytes) + self.net.sw_overhead_s
        };
        Ok(RecvOut {
            data: msg.data.ok_or(CommError::Protocol {
                detail: format!("user message from rank {src} tag {tag} without payload"),
            })?,
            now: arrival,
        })
    }

    fn take_matching(&mut self, src: usize, tag: u32) -> Result<Msg<T>, CommError> {
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag == tag) {
            return Ok(self.pending[src].remove(pos).unwrap());
        }
        let deadline = Instant::now() + self.recv_wall_timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx[src].recv_timeout(left) {
                Ok(msg) if msg.tag == tag => return Ok(msg),
                Ok(msg) => self.pending[src].push_back(msg),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerLost { rank: src })
                }
                Err(RecvTimeoutError::Timeout) => return Err(CommError::Timeout { src, tag }),
            }
        }
    }

    fn send_ctl(&mut self, dst: usize, ctl: Vec<f64>, now: f64) -> Result<(), CommError> {
        let bytes = (ctl.len() * 8) as u64;
        let (drops, extra_delay) = self.envelope_faults(dst);
        self.tx[dst]
            .send(Msg {
                tag: CTRL_TAG,
                depart: now,
                bytes,
                data: None,
                ctl,
                drops,
                extra_delay,
            })
            .map_err(|_| CommError::PeerLost { rank: dst })
    }

    /// Receive a ctl frame; returns `(ctl, effective depart)` where the
    /// effective depart folds in injected delay and retry rounds.
    fn recv_ctl(&mut self, src: usize) -> Result<(Vec<f64>, f64), CommError> {
        let msg = self.take_matching(src, CTRL_TAG)?;
        if msg.drops > self.max_retries {
            return Err(CommError::RetriesExhausted {
                src,
                tag: CTRL_TAG,
                drops: msg.drops,
            });
        }
        self.stats.resends += msg.drops as u64;
        let eff = msg.depart + msg.extra_delay + self.retry_penalty(msg.drops);
        Ok((msg.ctl, eff))
    }

    /// All-gather a small vector of `f64` through rank 0 and synchronize
    /// clocks to the participating maximum (plus one latency for the
    /// release broadcast). Returns `(per-rank vectors, new clock)`.
    pub fn allgather_f64(
        &mut self,
        vals: Vec<f64>,
        now: f64,
    ) -> Result<(Vec<Vec<f64>>, f64), CommError> {
        let n = self.size;
        if n == 1 {
            return Ok((vec![vals], now));
        }
        if self.rank == 0 {
            let mut all: Vec<Vec<f64>> = Vec::with_capacity(n);
            let mut tmax = now;
            all.push(vals);
            for src in 1..n {
                let (mut ctl, depart) = self.recv_ctl(src)?;
                tmax = tmax.max(depart);
                let stated_len = ctl.pop().ok_or_else(|| CommError::Protocol {
                    detail: format!("empty allgather ctl frame from rank {src}"),
                })? as usize;
                if stated_len != ctl.len() {
                    return Err(CommError::Protocol {
                        detail: format!(
                            "allgather frame from rank {src} states {stated_len} values, carries {}",
                            ctl.len()
                        ),
                    });
                }
                all.push(ctl);
            }
            let release = tmax + self.net.latency_s;
            for dst in 1..n {
                let mut flat: Vec<f64> = Vec::new();
                for v in &all {
                    flat.push(v.len() as f64);
                    flat.extend_from_slice(v);
                }
                self.send_ctl(dst, flat, release)?;
            }
            Ok((all, release))
        } else {
            let mut payload = vals;
            let len = payload.len();
            payload.push(len as f64);
            self.send_ctl(0, payload, now)?;
            let (flat, release) = self.recv_ctl(0)?;
            let mut all = Vec::with_capacity(n);
            let mut i = 0;
            while i < flat.len() {
                let len = flat[i] as usize;
                if i + 1 + len > flat.len() {
                    return Err(CommError::Protocol {
                        detail: format!(
                            "allgather release frame truncated at entry {} (needs {} of {} values)",
                            all.len(),
                            i + 1 + len,
                            flat.len()
                        ),
                    });
                }
                all.push(flat[i + 1..i + 1 + len].to_vec());
                i += 1 + len;
            }
            if all.len() != n {
                return Err(CommError::Protocol {
                    detail: format!("allgather release frame carries {} of {n} ranks", all.len()),
                });
            }
            Ok((all, release.max(now)))
        }
    }

    /// Barrier: all clocks advance to the maximum participant clock
    /// (plus one release latency).
    pub fn barrier(&mut self, now: f64) -> Result<f64, CommError> {
        let (_, t) = self.allgather_f64(Vec::new(), now)?;
        Ok(t)
    }

    /// Max-reduction over one `f64` per rank with clock synchronization.
    pub fn allreduce_max(&mut self, x: f64, now: f64) -> Result<(f64, f64), CommError> {
        let (all, t) = self.allgather_f64(vec![x], now)?;
        let m = all.iter().map(|v| v[0]).fold(f64::NEG_INFINITY, f64::max);
        Ok((m, t))
    }

    /// Sum-reduction over one `f64` per rank with clock synchronization.
    pub fn allreduce_sum(&mut self, x: f64, now: f64) -> Result<(f64, f64), CommError> {
        let (all, t) = self.allgather_f64(vec![x], now)?;
        Ok((all.iter().map(|v| v[0]).sum(), t))
    }
}

/// A rank whose thread panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    pub rank: usize,
    pub panic_msg: String,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.panic_msg)
    }
}

impl std::error::Error for RankFailure {}

fn build_comms<T: Send + 'static>(n: usize, net: NetworkSpec) -> Vec<Comm<T>> {
    assert!(n > 0);
    // Build the n×n channel matrix: chan[src][dst].
    let mut senders: Vec<Vec<Sender<Msg<T>>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Vec<Option<Receiver<Msg<T>>>>> = (0..n)
        .map(|_| (0..n).map(|_| None).collect::<Vec<_>>())
        .collect();
    #[allow(clippy::needless_range_loop)]
    for src in 0..n {
        let mut row = Vec::with_capacity(n);
        for dst in 0..n {
            let (tx, rx) = channel();
            row.push(tx);
            receivers[dst][src] = Some(rx);
        }
        senders.push(row);
    }

    senders
        .into_iter()
        .enumerate()
        .map(|(rank, tx_row)| Comm {
            rank,
            size: n,
            net,
            // tx[dst] is the (rank -> dst) channel.
            tx: tx_row,
            rx: receivers[rank]
                .iter_mut()
                .map(|r| r.take().unwrap())
                .collect(),
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            faults: None,
            msg_idx: vec![0; n],
            stats: LinkStats::default(),
            recv_wall_timeout: Duration::from_secs(30),
            // First virtual retry window: generous vs one latency, tiny
            // vs a model step — values only matter under injection.
            retry_timeout_s: (8.0 * net.latency_s).max(50.0e-6),
            retry_backoff: 2.0,
            max_retries: 4,
        })
        .collect()
}

/// Launch `n` ranks, each running `f(comm)` on its own thread, and
/// collect per-rank outcomes in rank order: `Ok(out)` for a rank that
/// returned, `Err(RankFailure)` for one that panicked. Other ranks keep
/// running (a dead peer surfaces at their next receive as
/// [`CommError::PeerLost`]).
pub fn try_spawn_ranks<T, Out, F>(n: usize, net: NetworkSpec, f: F) -> Vec<Result<Out, RankFailure>>
where
    T: Send + 'static,
    Out: Send,
    F: Fn(Comm<T>) -> Out + Sync,
{
    let comms = build_comms::<T>(n, net);
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = &f;
                scope.spawn(move || f(comm))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().map_err(|e| {
                    let panic_msg = if let Some(s) = e.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = e.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    RankFailure { rank, panic_msg }
                })
            })
            .collect()
    })
}

/// Launch `n` ranks and collect their return values in rank order,
/// panicking if any rank panicked (the strict variant used where a rank
/// failure is a test failure; resilient drivers use
/// [`try_spawn_ranks`]).
pub fn spawn_ranks<T, Out, F>(n: usize, net: NetworkSpec, f: F) -> Vec<Out>
where
    T: Send + 'static,
    Out: Send,
    F: Fn(Comm<T>) -> Out + Sync,
{
    try_spawn_ranks(n, net, f)
        .into_iter()
        .map(|r| match r {
            Ok(out) => out,
            Err(fail) => panic!("rank thread panicked: {fail}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_payload_and_time() {
        let net = NetworkSpec {
            bandwidth_bytes_s: 1.0e6,
            latency_s: 1.0e-3,
            sw_overhead_s: 0.0,
        };
        let out = spawn_ranks::<Vec<u8>, f64, _>(2, net, |mut comm| {
            if comm.rank() == 0 {
                let now = comm.send(1, 7, vec![1, 2, 3], 1000, 0.0).unwrap();
                let r = comm.recv(1, 8, now).unwrap();
                assert_eq!(r.data, vec![9]);
                r.now
            } else {
                let r = comm.recv(0, 7, 0.0).unwrap();
                assert_eq!(r.data, vec![1, 2, 3]);
                // arrival = 1 ms latency + 1000 B / 1 MB/s = 2 ms
                assert!((r.now - 2.0e-3).abs() < 1e-9, "arrival {}", r.now);
                comm.send(0, 8, vec![9], 1000, r.now).unwrap()
            }
        });
        // rank 0 receives the reply at 2ms (depart) + 2ms (transfer) = 4ms
        assert!((out[0] - 4.0e-3).abs() < 1e-9, "rank0 end {}", out[0]);
    }

    #[test]
    fn recv_matches_tags_out_of_order() {
        let net = NetworkSpec::ideal();
        spawn_ranks::<u32, (), _>(2, net, |mut comm| {
            if comm.rank() == 0 {
                let t = comm.send(1, 1, 100, 4, 0.0).unwrap();
                comm.send(1, 2, 200, 4, t).unwrap();
            } else {
                // receive tag 2 first although tag 1 was sent first
                let r2 = comm.recv(0, 2, 0.0).unwrap();
                assert_eq!(r2.data, 200);
                let r1 = comm.recv(0, 1, r2.now).unwrap();
                assert_eq!(r1.data, 100);
            }
        });
    }

    #[test]
    fn barrier_synchronizes_clocks_to_max() {
        let net = NetworkSpec::ideal();
        let outs = spawn_ranks::<(), f64, _>(4, net, |mut comm| {
            let start = comm.rank() as f64 * 0.5; // ranks arrive at 0, .5, 1, 1.5
            comm.barrier(start).unwrap()
        });
        for t in &outs {
            assert!((*t - 1.5).abs() < 1e-12, "barrier time {t}");
        }
    }

    #[test]
    fn allreduce_max_and_sum() {
        let net = NetworkSpec::ideal();
        let outs = spawn_ranks::<(), (f64, f64), _>(5, net, |mut comm| {
            let x = (comm.rank() + 1) as f64;
            let (mx, now) = comm.allreduce_max(x, 0.0).unwrap();
            let (sum, _) = comm.allreduce_sum(x, now).unwrap();
            (mx, sum)
        });
        for (mx, sum) in outs {
            assert_eq!(mx, 5.0);
            assert_eq!(sum, 15.0);
        }
    }

    #[test]
    fn allgather_preserves_rank_order() {
        let net = NetworkSpec::ideal();
        let outs = spawn_ranks::<(), Vec<f64>, _>(3, net, |mut comm| {
            let (all, _) = comm
                .allgather_f64(vec![comm.rank() as f64 * 10.0], 0.0)
                .unwrap();
            all.into_iter().map(|v| v[0]).collect()
        });
        for o in outs {
            assert_eq!(o, vec![0.0, 10.0, 20.0]);
        }
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let outs = spawn_ranks::<(), f64, _>(1, NetworkSpec::ideal(), |mut comm| {
            let (m, t) = comm.allreduce_max(3.0, 1.0).unwrap();
            assert_eq!(m, 3.0);
            comm.barrier(t).unwrap()
        });
        assert_eq!(outs[0], 1.0);
    }

    #[test]
    fn late_receiver_pays_no_extra_wait() {
        // If the receiver shows up after the message already arrived, the
        // recv completes at the receiver's own clock.
        let net = NetworkSpec {
            bandwidth_bytes_s: 1.0e9,
            latency_s: 1.0e-6,
            sw_overhead_s: 0.0,
        };
        spawn_ranks::<u8, (), _>(2, net, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 1, 8, 0.0).unwrap();
            } else {
                let r = comm.recv(0, 0, 5.0).unwrap(); // waits "at" t = 5 s
                assert_eq!(r.now, 5.0);
            }
        });
    }

    #[test]
    fn many_ranks_scale() {
        // Smoke test that 64 rank threads run a collective fine.
        let outs = spawn_ranks::<(), f64, _>(64, NetworkSpec::ideal(), |mut comm| {
            let (s, _) = comm.allreduce_sum(1.0, 0.0).unwrap();
            s
        });
        assert!(outs.iter().all(|&s| s == 64.0));
    }

    #[test]
    fn dead_peer_yields_peer_lost_not_hang() {
        // Regression for the historical hard hang: rank 0 exits without
        // ever sending; rank 1's blocking recv must surface PeerLost.
        let outs = spawn_ranks::<u8, bool, _>(2, NetworkSpec::ideal(), |mut comm| {
            if comm.rank() == 0 {
                true // exit immediately, dropping our channels
            } else {
                matches!(comm.recv(0, 0, 0.0), Err(CommError::PeerLost { rank: 0 }))
            }
        });
        assert!(outs[1], "dead peer must yield PeerLost");
    }

    #[test]
    fn slow_peer_yields_wall_timeout() {
        let outs = spawn_ranks::<u8, bool, _>(2, NetworkSpec::ideal(), |mut comm| {
            if comm.rank() == 0 {
                // Stay alive (keeping channels open) until rank 1 is done.
                comm.recv(1, 1, 0.0).unwrap();
                true
            } else {
                comm.set_recv_wall_timeout(Duration::from_millis(50));
                let timed_out = matches!(
                    comm.recv(0, 99, 0.0),
                    Err(CommError::Timeout { src: 0, tag: 99 })
                );
                comm.send(0, 1, 0, 1, 0.0).unwrap();
                timed_out
            }
        });
        assert!(outs[1], "alive-but-silent peer must yield wall Timeout");
    }

    #[test]
    fn malformed_ctl_frame_is_protocol_error_not_abort() {
        let outs = spawn_ranks::<u8, bool, _>(2, NetworkSpec::ideal(), |mut comm| {
            if comm.rank() == 0 {
                // Expecting a well-formed allgather contribution.
                matches!(
                    comm.allgather_f64(vec![1.0], 0.0),
                    Err(CommError::Protocol { .. })
                )
            } else {
                // Claim 5 values but carry none.
                comm.send_ctl(0, vec![5.0], 0.0).unwrap();
                // Rank 0 errors out and exits; our release recv fails
                // with PeerLost rather than hanging.
                matches!(comm.recv_ctl(0), Err(CommError::PeerLost { rank: 0 }))
            }
        });
        assert!(outs[0] && outs[1]);
    }

    #[test]
    fn injected_drops_are_retried_deterministically() {
        let net = NetworkSpec {
            bandwidth_bytes_s: 1.0e9,
            latency_s: 10.0e-6,
            sw_overhead_s: 1.0e-6,
        };
        let run = || {
            spawn_ranks::<u64, Vec<u64>, _>(2, net, |mut comm| {
                if comm.rank() == 0 {
                    comm.enable_link_faults(LinkFaultSpec {
                        drop_rate: 0.4,
                        delay_rate: 0.2,
                        delay_s: 123.0e-6,
                        ..LinkFaultSpec::quiet(77)
                    });
                    let mut now = 0.0;
                    for i in 0..50u64 {
                        now = comm.send(1, 3, i, 64, now).unwrap();
                    }
                    assert!(comm.link_stats().drops_injected > 0);
                    vec![comm.link_stats().drops_injected]
                } else {
                    let mut now = 0.0;
                    let mut out = Vec::new();
                    for i in 0..50u64 {
                        let r = comm.recv(0, 3, now).unwrap();
                        assert_eq!(r.data, i, "payloads survive drops in order");
                        now = r.now;
                        out.push(now.to_bits());
                    }
                    assert!(comm.link_stats().resends > 0);
                    out
                }
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a[1], b[1], "faulty arrival times must replay bitwise");
        // Retries must cost virtual time vs a clean link.
        let clean = spawn_ranks::<u64, f64, _>(2, net, |mut comm| {
            if comm.rank() == 0 {
                let mut now = 0.0;
                for i in 0..50u64 {
                    now = comm.send(1, 3, i, 64, now).unwrap();
                }
                0.0
            } else {
                let mut now = 0.0;
                for _ in 0..50 {
                    now = comm.recv(0, 3, now).unwrap().now;
                }
                now
            }
        });
        let faulty_last = f64::from_bits(*a[1].last().unwrap());
        assert!(
            faulty_last > clean[1],
            "drops must delay arrivals: {faulty_last} vs {}",
            clean[1]
        );
    }

    #[test]
    fn try_spawn_ranks_reports_rank_failure() {
        let outs = try_spawn_ranks::<u8, u32, _>(2, NetworkSpec::ideal(), |comm| {
            if comm.rank() == 0 {
                panic!("rank 0 dies for the test");
            }
            7
        });
        let fail = outs[0].as_ref().unwrap_err();
        assert_eq!(fail.rank, 0);
        assert!(fail.panic_msg.contains("dies for the test"));
        assert_eq!(outs[1], Ok(7));
    }
}
