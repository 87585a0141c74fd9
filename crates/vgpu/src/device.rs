//! The virtual device: memory, streams, launches and simulated time.

use crate::cost::{copy_time, kernel_time, Launch};
use crate::fault::{FaultPlan, FaultSpec, FaultStats, VgpuError};
use crate::mem::{Arena, Buf, MemError, MemView};
use crate::pool::WorkerPool;
use crate::profile::{OpKind, OpRecord, Profiler};
use crate::san::{self, LaunchTrace, Report, SanConfig, Sanitizer};
use crate::spec::DeviceSpec;
use crate::stream::{Engines, Event, StreamId, StreamState};
use numerics::Real;

/// How kernels and copies execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Kernels run their Rust bodies over real device buffers; timing is
    /// simulated as well. Used by tests, examples and small benchmarks.
    Functional,
    /// Only the timing model runs; buffers carry no data. Used to
    /// simulate paper-scale runs (528 GPUs, 6956×6052×48) on one host.
    Phantom,
}

/// A virtual GPU (or CPU-core "device") owned by one simulated host rank.
///
/// All simulated clocks are in seconds since device creation. The device
/// also tracks its owning host's clock: asynchronous ops advance the host
/// only by the issue overhead; synchronizations move the host clock to
/// the completion time, exactly like `cudaStreamSynchronize`.
pub struct Device<R: Real> {
    spec: DeviceSpec,
    mode: ExecMode,
    arena: Arena<R>,
    streams: Vec<StreamState>,
    engines: Engines,
    host_time: f64,
    /// Persistent slab workers for Functional `launch_par` bodies;
    /// created lazily on the first multi-threaded launch and reused for
    /// the device's lifetime (no per-launch thread spawns).
    pool: Option<WorkerPool>,
    /// Deterministic fault schedule; `None` (the default) is the
    /// zero-overhead production path.
    faults: Option<FaultPlan>,
    /// The `vsan` sanitizer suite (`ASUCA_SAN`); `None` (the default)
    /// keeps every hook a skipped `if let` — zero hot-path cost.
    san: Option<Box<Sanitizer>>,
    pub profiler: Profiler,
}

impl<R: Real> Device<R> {
    pub fn new(spec: DeviceSpec, mode: ExecMode) -> Self {
        let capacity = spec.mem_capacity;
        Device {
            spec,
            mode,
            arena: Arena::new(capacity),
            streams: vec![StreamState::new()],
            engines: Engines::default(),
            host_time: 0.0,
            pool: None,
            faults: None,
            san: SanConfig::from_env().map(|cfg| Box::new(Sanitizer::new(cfg))),
            profiler: Profiler::new(),
        }
    }

    /// Install (or remove) the sanitizer suite programmatically —
    /// equivalent to setting `ASUCA_SAN` before device creation, but
    /// race-free for parallel test harnesses. Allocations already live
    /// are registered retroactively (with synthetic `buf#N` labels), so
    /// late installation is safe; their contents are treated as
    /// initialized (the sanitizer did not observe their history).
    pub fn set_san_config(&mut self, cfg: Option<SanConfig>) {
        self.san = cfg.map(|c| {
            let mut s = Sanitizer::new(c);
            for _ in 1..self.streams.len() {
                s.on_create_stream();
            }
            for (id, len, _) in self.arena.live() {
                s.on_alloc(id, len, "", self.mode == ExecMode::Phantom);
                s.on_host_write(id);
            }
            Box::new(s)
        });
    }

    /// The active sanitizer configuration, if any.
    pub fn san_config(&self) -> Option<SanConfig> {
        self.san.as_ref().map(|s| *s.cfg())
    }

    /// Findings accumulated so far (empty report when the sanitizer is
    /// off). Does not run leakcheck — see [`Self::san_finish`].
    pub fn san_report(&self) -> Report {
        self.san.as_ref().map(|s| s.report()).unwrap_or_default()
    }

    /// Finalize the sanitizer: run leakcheck over still-live allocations
    /// and return the full report. `None` when the sanitizer is off.
    /// After this, the `Drop` impl stays silent.
    pub fn san_finish(&mut self) -> Option<Report> {
        let live = self.arena.live();
        self.san.as_mut().map(|s| s.finish(live))
    }

    /// Install a deterministic fault schedule. Drivers install the plan
    /// *after* device/state initialization so setup allocations and the
    /// initial halo exchange are never subject to injection — keeping
    /// the op-index → decision mapping independent of init details.
    pub fn set_fault_plan(&mut self, spec: FaultSpec) {
        self.faults = Some(FaultPlan::new(spec));
    }

    /// Remove any installed fault schedule.
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Counters of injected faults (zero if no plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Create an additional stream (stream 0 always exists).
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(StreamState::new());
        if let Some(s) = &mut self.san {
            s.on_create_stream();
        }
        StreamId((self.streams.len() - 1) as u32)
    }

    /// Current simulated host-thread time \[s\].
    pub fn host_time(&self) -> f64 {
        self.host_time
    }

    /// Advance the host clock by `dt` seconds of host-side work
    /// (file I/O, MPI calls, ...). Used by the cluster integration.
    pub fn host_advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "host time cannot run backwards");
        self.host_time += dt;
    }

    /// Force the host clock to at least `t` (e.g. after an MPI receive
    /// whose completion time was determined by a peer).
    pub fn host_at_least(&mut self, t: f64) {
        if t > self.host_time {
            self.host_time = t;
        }
    }

    /// Bytes of device memory currently allocated.
    pub fn mem_used(&self) -> u64 {
        self.arena.used()
    }

    /// Bytes of device memory still available.
    pub fn mem_free(&self) -> u64 {
        self.arena.free_bytes()
    }

    /// Whether a buffer is a phantom (timing-only) allocation.
    pub fn is_phantom(&self, buf: Buf<R>) -> bool {
        self.arena.is_phantom(buf)
    }

    /// Allocate `len` elements of device memory. Fails on genuine arena
    /// exhaustion, or — when a fault plan is installed — by scheduled
    /// OOM injection (`VgpuError::Oom { injected: true, .. }`).
    pub fn alloc(&mut self, len: usize) -> Result<Buf<R>, VgpuError> {
        self.alloc_labeled(len, "")
    }

    /// [`alloc`](Self::alloc) with a human-readable label used in
    /// sanitizer reports (e.g. the field name); costs nothing when the
    /// sanitizer is off.
    pub fn alloc_labeled(&mut self, len: usize, label: &str) -> Result<Buf<R>, VgpuError> {
        if let Some(plan) = &mut self.faults {
            plan.on_alloc((len * R::BYTES) as u64, self.arena.free_bytes())?;
        }
        let phantom = self.mode == ExecMode::Phantom;
        let buf = self.arena.alloc(len, phantom).map_err(VgpuError::from)?;
        if let Some(s) = &mut self.san {
            s.on_alloc(buf.id(), len, label, phantom);
        }
        Ok(buf)
    }

    /// Free a device allocation.
    pub fn free(&mut self, buf: Buf<R>) -> Result<(), MemError> {
        self.arena.dealloc(buf)?;
        if let Some(s) = &mut self.san {
            s.on_free(buf.id());
        }
        Ok(())
    }

    /// Simulated-timing bookkeeping shared by [`launch`](Self::launch)
    /// and [`launch_par`](Self::launch_par): issue overhead, in-order
    /// stream tail, exclusive compute engine, profiler record. When a
    /// fault plan is installed, this is also where injected ECC retries
    /// (engine occupied `attempts` times, body deferred to the winning
    /// attempt), straggler slowdowns and planned device-lost errors land.
    fn note_kernel(&mut self, stream: StreamId, launch: &Launch) -> Result<(), VgpuError> {
        assert!(
            launch.shared_mem_per_block <= self.spec.shared_mem_per_sm,
            "kernel '{}' requests {}B shared memory/block, SM has {}B",
            launch.name,
            launch.shared_mem_per_block,
            self.spec.shared_mem_per_sm
        );
        // Host issues asynchronously.
        self.host_time += self.spec.host_issue_overhead_s;

        let (attempts, slowdown) = match &mut self.faults {
            Some(plan) => {
                let o = plan.on_launch(launch.name)?;
                (o.attempts, o.slowdown)
            }
            None => (1, 1.0),
        };

        // Timing: in-order within stream, serialized on the compute
        // engine. A failed (retried) attempt occupies the engine for the
        // kernel's full duration before the winning attempt runs.
        let dur = kernel_time(&self.spec, launch, R::BYTES) * slowdown * attempts as f64;
        let start = self
            .host_time
            .max(self.streams[stream.0 as usize].tail)
            .max(self.engines.compute_free);
        let end = start + dur;
        self.streams[stream.0 as usize].tail = end;
        self.engines.compute_free = end;

        self.profiler.record(OpRecord {
            name: launch.name,
            kind: OpKind::Kernel,
            stream: stream.0,
            start,
            end,
            flops: launch.cost.total_flops(),
            bytes: launch.cost.total_bytes(R::BYTES),
            lanes: launch.lanes,
        });
        Ok(())
    }

    /// Whether Functional kernel bodies should take their 8-wide lane
    /// x-walks (from [`DeviceSpec::host_simd`]); results are bitwise
    /// identical either way — kernels consult this so the width-1 walk
    /// stays exercisable via `ASUCA_SIMD=0`.
    pub fn simd_enabled(&self) -> bool {
        self.spec.host_simd
    }

    /// Launch a kernel asynchronously in `stream`.
    ///
    /// In [`ExecMode::Functional`] the body `f` runs immediately (issue
    /// order equals program order, which our drivers keep
    /// dependency-correct); simulated timing is computed either way.
    ///
    /// Fails only under an installed fault plan ([`VgpuError::DeviceLost`]
    /// for a planned loss or an exhausted ECC retry budget); a transient
    /// injected ECC event is retried internally and still returns `Ok`.
    /// On `Err` the body has not run.
    pub fn launch(
        &mut self,
        stream: StreamId,
        launch: Launch,
        f: impl FnOnce(&MemView<'_, R>),
    ) -> Result<(), VgpuError> {
        self.note_kernel(stream, &launch)?;
        let mut recs = None;
        if self.mode == ExecMode::Functional {
            let trace = self
                .san
                .as_ref()
                .filter(|s| s.wants_trace())
                .map(|_| LaunchTrace::new());
            san::set_current_slab(san::WHOLE_SLAB);
            let view = MemView {
                arena: &self.arena,
                trace: trace.as_ref(),
            };
            f(&view);
            recs = trace.map(LaunchTrace::into_recs);
        }
        if let Some(s) = &mut self.san {
            s.on_launch(&launch, stream.0, recs);
        }
        Ok(())
    }

    /// Launch a kernel whose body executes slab-parallel over `[0, span)`
    /// on the host: the body is invoked as `f(&view, j0, j1)` for a
    /// balanced, disjoint partition of the span across
    /// [`DeviceSpec::host_threads`] workers of the device's persistent
    /// [`WorkerPool`] (created once, lazily, and
    /// reused by every launch — no per-launch thread spawns).
    ///
    /// Simulated timing is **identical** to [`launch`](Self::launch) —
    /// host parallelism accelerates the wall clock of Functional runs,
    /// never the simulated GT200 timeline (see the determinism contract
    /// in [`crate::pool`]). Bodies must restrict their writes to the
    /// `[j0, j1)` slab they are handed (enforced per buffer by
    /// [`MemView::write_slab`]'s overlap checking).
    pub fn launch_par(
        &mut self,
        stream: StreamId,
        launch: Launch,
        span: usize,
        f: impl Fn(&MemView<'_, R>, usize, usize) + Sync,
    ) -> Result<(), VgpuError> {
        self.note_kernel(stream, &launch)?;
        let mut recs = None;
        if self.mode == ExecMode::Functional {
            let trace = self
                .san
                .as_ref()
                .filter(|s| s.wants_trace())
                .map(|_| LaunchTrace::new());
            let view = MemView {
                arena: &self.arena,
                trace: trace.as_ref(),
            };
            if self.san.as_ref().is_some_and(|s| s.serialize_slabs()) {
                // Racecheck: run a fine fixed partition sequentially.
                // Temporally-overlapping claims become analyzable records
                // instead of concurrent-borrow panics, and the report is
                // independent of the thread count. Each element is still
                // computed exactly once, so outputs stay bitwise identical
                // to the parallel path. The slab count is capped so
                // flat-span launches (element-indexed copies, span = the
                // whole buffer) don't degenerate to one slab per element;
                // every row-structured span in the model is far below the
                // cap and keeps exhaustive per-row resolution.
                for (j0, j1) in numerics::par::split_ranges(span, span.min(san::RACE_SLABS)) {
                    san::set_current_slab(j0);
                    f(&view, j0, j1);
                }
                san::set_current_slab(san::WHOLE_SLAB);
            } else {
                let threads = self.spec.host_threads.max(1);
                if threads > 1 && self.pool.is_none() {
                    self.pool = Some(WorkerPool::new(threads));
                }
                let tracing = trace.is_some();
                match &self.pool {
                    Some(pool) => pool.run_slabs(span, threads, |j0, j1| {
                        if tracing {
                            san::set_current_slab(j0);
                        }
                        f(&view, j0, j1)
                    }),
                    None => {
                        if span > 0 {
                            if tracing {
                                san::set_current_slab(0);
                            }
                            f(&view, 0, span);
                        }
                    }
                }
                if tracing {
                    san::set_current_slab(san::WHOLE_SLAB);
                }
            }
            recs = trace.map(LaunchTrace::into_recs);
        }
        if let Some(s) = &mut self.san {
            s.on_launch(&launch, stream.0, recs);
        }
        Ok(())
    }

    /// Record a kernel launch whose body an earlier launch of the same
    /// logical group already ran on the host (logical launches: the
    /// simulated GPU runs the paper's fine-grained kernel list, the
    /// Functional host runs coarser bodies).
    ///
    /// Everything [`launch_par`](Self::launch_par) does except run a
    /// body: issue overhead, stream and engine timing, the fault plan's
    /// op index and the profiler record are identical, so Phantom and
    /// Functional schedules stay the same. The sanitizer sees the
    /// launch's declared reads and writes (synccheck) and no observed
    /// trace, so racecheck, initcheck and strict have nothing to audit
    /// here; they audited the body where it ran.
    pub fn record(&mut self, stream: StreamId, launch: Launch) -> Result<(), VgpuError> {
        self.note_kernel(stream, &launch)?;
        if let Some(s) = &mut self.san {
            s.on_launch(&launch, stream.0, None);
        }
        Ok(())
    }

    /// The device's persistent slab-worker pool, if a multi-threaded
    /// Functional launch has created it yet.
    pub fn worker_pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
    }

    /// Asynchronous host→device copy (like `cudaMemcpyAsync`). `host` may
    /// be empty in phantom mode; `bytes` drives the timing either way.
    ///
    /// Fails with [`VgpuError::OutOfBounds`] when `offset + host.len()`
    /// exceeds the destination allocation (previously a raw slice panic
    /// deep in the arena); no copy is enqueued on `Err`.
    pub fn copy_h2d(
        &mut self,
        stream: StreamId,
        host: &[R],
        dst: Buf<R>,
        offset: usize,
    ) -> Result<(), VgpuError> {
        if offset + host.len() > dst.len() {
            return Err(VgpuError::OutOfBounds {
                buf: dst.id(),
                offset,
                len: host.len(),
            });
        }
        let bytes = (host.len().max(1) * R::BYTES) as u64;
        self.enqueue_copy(stream, OpKind::CopyH2D, "h2d", bytes);
        let functional = self.mode == ExecMode::Functional;
        if functional {
            let mut d = self.arena.borrow_mut(dst);
            d[offset..offset + host.len()].copy_from_slice(host);
        }
        if let Some(s) = &mut self.san {
            s.on_copy(
                stream.0,
                "h2d",
                dst.id(),
                offset,
                offset + host.len(),
                true,
                functional,
            );
        }
        Ok(())
    }

    /// Asynchronous device→host copy.
    ///
    /// Fails with [`VgpuError::OutOfBounds`] when `offset + host.len()`
    /// exceeds the source allocation; `host` is untouched on `Err`.
    pub fn copy_d2h(
        &mut self,
        stream: StreamId,
        src: Buf<R>,
        offset: usize,
        host: &mut [R],
    ) -> Result<(), VgpuError> {
        if offset + host.len() > src.len() {
            return Err(VgpuError::OutOfBounds {
                buf: src.id(),
                offset,
                len: host.len(),
            });
        }
        let bytes = (host.len().max(1) * R::BYTES) as u64;
        self.enqueue_copy(stream, OpKind::CopyD2H, "d2h", bytes);
        let functional = self.mode == ExecMode::Functional;
        if functional {
            let s = self.arena.borrow(src);
            host.copy_from_slice(&s[offset..offset + host.len()]);
        }
        if let Some(s) = &mut self.san {
            s.on_copy(
                stream.0,
                "d2h",
                src.id(),
                offset,
                offset + host.len(),
                false,
                functional,
            );
        }
        Ok(())
    }

    /// Timing-only copy of `n_elems` elements (phantom halo traffic).
    pub fn copy_h2d_phantom(&mut self, stream: StreamId, n_elems: usize) {
        self.enqueue_copy(stream, OpKind::CopyH2D, "h2d", (n_elems * R::BYTES) as u64);
        if let Some(s) = &mut self.san {
            s.on_copy_phantom(stream.0);
        }
    }

    /// Timing-only device→host copy of `n_elems` elements.
    pub fn copy_d2h_phantom(&mut self, stream: StreamId, n_elems: usize) {
        self.enqueue_copy(stream, OpKind::CopyD2H, "d2h", (n_elems * R::BYTES) as u64);
        if let Some(s) = &mut self.san {
            s.on_copy_phantom(stream.0);
        }
    }

    fn enqueue_copy(&mut self, stream: StreamId, kind: OpKind, name: &'static str, bytes: u64) {
        self.host_time += self.spec.host_issue_overhead_s;
        let dur = copy_time(&self.spec, bytes);
        let start = self
            .host_time
            .max(self.streams[stream.0 as usize].tail)
            .max(self.engines.copy_free);
        let end = start + dur;
        self.streams[stream.0 as usize].tail = end;
        self.engines.copy_free = end;
        self.profiler.record(OpRecord {
            name,
            kind,
            stream: stream.0,
            start,
            end,
            flops: 0.0,
            bytes: bytes as f64,
            lanes: 1,
        });
    }

    /// Record an event capturing the stream's current tail
    /// (like `cudaEventRecord`).
    pub fn record_event(&mut self, stream: StreamId) -> Event {
        let san_id = match &mut self.san {
            Some(s) => s.on_record_event(stream.0),
            None => u32::MAX,
        };
        Event {
            time: self.streams[stream.0 as usize].tail,
            san_id,
        }
    }

    /// Make `stream` wait until `event` has completed
    /// (like `cudaStreamWaitEvent`).
    pub fn stream_wait_event(&mut self, stream: StreamId, event: Event) {
        let s = &mut self.streams[stream.0 as usize];
        if event.time > s.tail {
            s.tail = event.time;
        }
        if let Some(san) = &mut self.san {
            if event.san_id != u32::MAX {
                san.on_wait_event(stream.0, event.san_id);
            }
        }
    }

    /// Block the host until `stream` drains (`cudaStreamSynchronize`).
    pub fn sync_stream(&mut self, stream: StreamId) {
        let tail = self.streams[stream.0 as usize].tail;
        self.host_at_least(tail);
        if let Some(s) = &mut self.san {
            s.on_sync_stream(stream.0);
        }
    }

    /// Block the host until the whole device drains
    /// (`cudaDeviceSynchronize`).
    pub fn sync_all(&mut self) {
        let tail = self.streams.iter().map(|s| s.tail).fold(0.0f64, f64::max);
        self.host_at_least(tail);
        if let Some(s) = &mut self.san {
            s.on_sync_all();
        }
    }

    /// Functional read of a whole buffer (test/diagnostic helper).
    pub fn read_vec(&self, buf: Buf<R>) -> Vec<R> {
        assert_eq!(
            self.mode,
            ExecMode::Functional,
            "read_vec needs functional mode"
        );
        self.arena.borrow(buf).to_vec()
    }

    /// Functional overwrite of a whole buffer (test/init helper);
    /// performs no simulated transfer.
    pub fn write_vec(&mut self, buf: Buf<R>, data: &[R]) {
        assert_eq!(
            self.mode,
            ExecMode::Functional,
            "write_vec needs functional mode"
        );
        let mut d = self.arena.borrow_mut(buf);
        d[..data.len()].copy_from_slice(data);
        drop(d);
        if let Some(s) = &mut self.san {
            s.on_host_write(buf.id());
        }
    }
}

impl<R: Real> Drop for Device<R> {
    fn drop(&mut self) {
        // A sanitized device that was never finalized still reports —
        // on stderr, without panicking (drops run during unwinding).
        if self.san.as_ref().is_some_and(|s| !s.finished()) {
            let live = self.arena.live();
            if let Some(s) = &mut self.san {
                let report = s.finish(live);
                if !report.is_empty() {
                    eprintln!("vsan: device dropped with findings:\n{report}");
                    eprintln!("vsan-json: {}", report.to_json());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Dim3, KernelCost};

    fn small_launch(name: &'static str, points: u64) -> Launch {
        Launch::new(
            name,
            Dim3::new(1, 1, 1),
            Dim3::new(64, 4, 1),
            KernelCost::streaming(points, 2.0, 2.0, 1.0),
        )
    }

    fn dev() -> Device<f32> {
        Device::new(DeviceSpec::tesla_s1070(), ExecMode::Functional)
    }

    #[test]
    fn kernel_runs_functionally() {
        let mut d = dev();
        let a = d.alloc(16).unwrap();
        let b = d.alloc(16).unwrap();
        d.write_vec(a, &(0..16).map(|i| i as f32).collect::<Vec<_>>());
        d.launch(StreamId::DEFAULT, small_launch("double", 16), |mem| {
            let src = mem.read(a);
            let mut dst = mem.write(b);
            for i in 0..16 {
                dst[i] = src[i] * 2.0;
            }
        })
        .unwrap();
        assert_eq!(d.read_vec(b)[5], 10.0);
    }

    #[test]
    fn phantom_skips_bodies_but_times() {
        let mut d = Device::<f32>::new(DeviceSpec::tesla_s1070(), ExecMode::Phantom);
        let _a = d.alloc(1_000_000).unwrap();
        d.launch(StreamId::DEFAULT, small_launch("k", 1_000_000), |_| {
            panic!("body must not run in phantom mode");
        })
        .unwrap();
        d.sync_all();
        assert!(d.host_time() > 0.0);
        assert_eq!(d.profiler.kernel_launches, 1);
    }

    #[test]
    fn recorded_launch_times_like_a_launch_and_runs_no_body() {
        let run = |record: bool| {
            let mut d = dev();
            d.set_fault_plan(crate::fault::FaultSpec {
                ecc_rate: 0.5,
                straggler_rate: 0.5,
                ..crate::fault::FaultSpec::quiet(5, 0)
            });
            let a = d.alloc(4).unwrap();
            d.write_vec(a, &[0.0; 4]);
            for _ in 0..16 {
                let l = small_launch("k", 1 << 18);
                if record {
                    d.record(StreamId::DEFAULT, l).unwrap();
                } else {
                    d.launch_par(StreamId::DEFAULT, l, 4, |mem, j0, j1| {
                        for x in mem.write_slab(a, j0..j1).iter_mut() {
                            *x += 1.0;
                        }
                    })
                    .unwrap();
                }
            }
            d.sync_all();
            let recs: Vec<_> = d
                .profiler
                .records()
                .iter()
                .map(|r| (r.name, r.start.to_bits(), r.end.to_bits()))
                .collect();
            (
                d.host_time().to_bits(),
                d.fault_stats(),
                recs,
                d.read_vec(a),
            )
        };
        let (launched, recorded) = (run(false), run(true));
        assert_eq!(launched.0, recorded.0);
        assert_eq!(launched.1, recorded.1);
        assert_eq!(launched.2, recorded.2);
        assert_eq!(launched.3, vec![16.0, 16.0, 16.0, 16.0]);
        assert_eq!(recorded.3, vec![0.0; 4]);
    }

    #[test]
    fn in_stream_ops_serialize() {
        let mut d = dev();
        d.launch(StreamId::DEFAULT, small_launch("k1", 1 << 20), |_| {})
            .unwrap();
        d.launch(StreamId::DEFAULT, small_launch("k2", 1 << 20), |_| {})
            .unwrap();
        let r = d.profiler.records();
        assert!(r[1].start >= r[0].end);
    }

    #[test]
    fn kernels_in_different_streams_still_serialize_on_compute_engine() {
        // GT200 has no concurrent kernels: cross-stream kernels cannot
        // overlap each other.
        let mut d = dev();
        let s1 = d.create_stream();
        d.launch(StreamId::DEFAULT, small_launch("k1", 1 << 20), |_| {})
            .unwrap();
        d.launch(s1, small_launch("k2", 1 << 20), |_| {}).unwrap();
        let r = d.profiler.records();
        assert!(r[1].start >= r[0].end);
    }

    #[test]
    fn copies_overlap_with_compute() {
        // A copy in stream 1 must be able to run during a kernel in
        // stream 0 — the foundation of the paper's overlap methods.
        let mut d = dev();
        let s1 = d.create_stream();
        let big = Launch::new(
            "big",
            Dim3::new(320 / 64, 256 / 4, 1),
            Dim3::new(64, 4, 1),
            KernelCost::streaming(320 * 256 * 48, 30.0, 8.0, 4.0),
        );
        d.launch(StreamId::DEFAULT, big, |_| {}).unwrap();
        let buf = d.alloc(1 << 20).unwrap();
        let host = vec![0.0f32; 1 << 20];
        d.copy_h2d(s1, &host, buf, 0).unwrap();
        let r = d.profiler.records();
        let (k, c) = (&r[0], &r[1]);
        assert!(
            c.start < k.end,
            "copy did not overlap compute: {c:?} vs {k:?}"
        );
    }

    #[test]
    fn two_copies_serialize_on_copy_engine() {
        let mut d = dev();
        let s1 = d.create_stream();
        let s2 = d.create_stream();
        let buf = d.alloc(2 << 20).unwrap();
        let host = vec![0.0f32; 1 << 20];
        d.copy_h2d(s1, &host, buf, 0).unwrap();
        d.copy_h2d(s2, &host, buf, 1 << 20).unwrap();
        let r = d.profiler.records();
        assert!(r[1].start >= r[0].end, "single copy engine must serialize");
    }

    #[test]
    fn events_order_cross_stream_work() {
        let mut d = dev();
        let s1 = d.create_stream();
        d.launch(StreamId::DEFAULT, small_launch("producer", 1 << 22), |_| {})
            .unwrap();
        let ev = d.record_event(StreamId::DEFAULT);
        d.stream_wait_event(s1, ev);
        let buf = d.alloc(64).unwrap();
        let host = vec![0.0f32; 64];
        d.copy_h2d(s1, &host, buf, 0).unwrap();
        let r = d.profiler.records();
        assert!(
            r[1].start >= r[0].end,
            "event did not order the copy after the kernel"
        );
    }

    #[test]
    fn sync_moves_host_clock() {
        let mut d = dev();
        d.launch(StreamId::DEFAULT, small_launch("k", 1 << 22), |_| {})
            .unwrap();
        let before = d.host_time();
        d.sync_all();
        assert!(d.host_time() > before);
        let tail = d.record_event(StreamId::DEFAULT).time();
        assert_eq!(d.host_time(), tail);
    }

    #[test]
    fn async_issue_returns_early() {
        // Host time after an async launch is (nearly) just issue cost.
        let mut d = dev();
        d.launch(StreamId::DEFAULT, small_launch("k", 1 << 24), |_| {})
            .unwrap();
        assert!(
            d.host_time() < 1e-4,
            "launch blocked the host: {}",
            d.host_time()
        );
        d.sync_all();
        assert!(d.host_time() > 1e-4);
    }

    #[test]
    fn alloc_respects_capacity() {
        let mut d = Device::<f64>::new(DeviceSpec::tesla_s1070(), ExecMode::Phantom);
        // 4 GiB / 8 bytes = 512 Mi elements; asking for more must fail.
        assert!(d.alloc(600 * 1024 * 1024).is_err());
        assert!(d.alloc(100).is_ok());
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn oversized_shared_memory_rejected() {
        let mut d = dev();
        let l = small_launch("k", 64).with_shared_mem(64 * 1024);
        d.launch(StreamId::DEFAULT, l, |_| {}).unwrap();
    }

    #[test]
    fn quiet_fault_plan_leaves_timeline_unchanged() {
        let run = |plan: bool| {
            let mut d = dev();
            if plan {
                d.set_fault_plan(crate::fault::FaultSpec::quiet(11, 0));
            }
            for _ in 0..8 {
                d.launch(StreamId::DEFAULT, small_launch("k", 1 << 18), |_| {})
                    .unwrap();
            }
            d.sync_all();
            d.host_time().to_bits()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn injected_ecc_costs_time_but_runs_body_once() {
        let clean = {
            let mut d = dev();
            d.launch(StreamId::DEFAULT, small_launch("k", 1 << 18), |_| {})
                .unwrap();
            d.sync_all();
            d.host_time()
        };
        // ecc_rate = 1.0 on the first draw only is impossible with a
        // rate; instead use a rate high enough that some of the launches
        // retry, and check time strictly grows vs the clean run while
        // each body still runs exactly once.
        let mut d = dev();
        d.set_fault_plan(crate::fault::FaultSpec {
            ecc_rate: 0.5,
            ..crate::fault::FaultSpec::quiet(3, 0)
        });
        let a = d.alloc(4).unwrap();
        let mut total = 0.0;
        let mut runs = 0u32;
        for _ in 0..32 {
            d.launch(StreamId::DEFAULT, small_launch("k", 1 << 18), |mem| {
                let mut w = mem.write(a);
                w[0] += 1.0;
            })
            .unwrap();
            runs += 1;
        }
        d.sync_all();
        total += d.host_time();
        let st = d.fault_stats();
        assert!(st.ecc_events > 0, "rate 0.5 over 32 launches must hit");
        assert!(
            total > clean * runs as f64,
            "retries must cost simulated time"
        );
        assert_eq!(d.read_vec(a)[0], runs as f32, "body must run exactly once");
    }

    #[test]
    fn straggler_slowdown_multiplies_duration() {
        let time = |rate: f64| {
            let mut d = dev();
            d.set_fault_plan(crate::fault::FaultSpec {
                straggler_rate: rate,
                straggler_slowdown: 10.0,
                ..crate::fault::FaultSpec::quiet(1, 0)
            });
            d.launch(StreamId::DEFAULT, small_launch("k", 1 << 20), |_| {})
                .unwrap();
            d.sync_all();
            d.host_time()
        };
        assert!(time(1.0) > 5.0 * time(0.0));
    }

    #[test]
    fn injected_oom_and_device_lost_surface_as_errors() {
        let mut d = dev();
        d.set_fault_plan(crate::fault::FaultSpec {
            oom_rate: 1.0,
            device_lost_op: Some(0),
            ..crate::fault::FaultSpec::quiet(2, 0)
        });
        assert!(matches!(
            d.alloc(16),
            Err(VgpuError::Oom { injected: true, .. })
        ));
        assert!(matches!(
            d.launch(StreamId::DEFAULT, small_launch("k", 16), |_| {
                panic!("body must not run on a lost device")
            }),
            Err(VgpuError::DeviceLost { op_index: 0, .. })
        ));
        assert_eq!(d.fault_stats().total_injected(), 2);
    }
}
