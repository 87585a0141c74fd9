//! Periodic checkpoint/restart of the device-resident prognostic state.
//!
//! A checkpoint is a bitwise snapshot of every prognostic array — the
//! full padded boxes, halos included — plus the step index and model
//! time. Restoring one therefore reproduces the exact device state at
//! the captured step boundary, so a run that rolls back after an
//! injected rank death re-integrates the identical trajectory, bit for
//! bit (the determinism contract of the fault-injection subsystem; see
//! DESIGN.md §10).
//!
//! Clocks are deliberately *not* part of the snapshot: recovery costs
//! simulated time (the rollback D2H/H2D traffic plus any respawn
//! penalty), so virtual clocks keep running forward across a restart
//! while the physics rewinds.
//!
//! In [`ExecMode::Phantom`] a checkpoint carries no payload but still
//! accounts the full transfer traffic, so paper-scale phantom runs see
//! the realistic checkpoint cost on the simulated timeline.

use crate::fields::DeviceState;
use crate::geom::DeviceGeom;
use numerics::Real;
use vgpu::{Device, ExecMode, StreamId};

/// A bitwise snapshot of the prognostic device state at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<R: Real> {
    /// Long-step index at which the snapshot was taken.
    pub step: u64,
    /// Model time \[s\] at the snapshot.
    pub sim_time: f64,
    /// Raw padded boxes in capture order (`rho, u, v, w, th, p, q...,
    /// precip`); empty in phantom mode.
    data: Vec<Vec<R>>,
}

/// The prognostic buffers a checkpoint covers, in serialization order,
/// with their padded lengths.
fn prognostics<R: Real>(ds: &DeviceState<R>, geom: &DeviceGeom<R>) -> Vec<(vgpu::Buf<R>, usize)> {
    let c = geom.dc.len();
    let w = geom.dw.len();
    let p = geom.dp.len();
    let mut v = vec![
        (ds.rho, c),
        (ds.u, c),
        (ds.v, c),
        (ds.w, w),
        (ds.th, c),
        (ds.p, c),
    ];
    v.extend(ds.q.iter().map(|&q| (q, c)));
    v.push((ds.precip, p));
    v
}

impl<R: Real> Checkpoint<R> {
    /// Snapshot the prognostics through the device's copy engine (the
    /// transfer is accounted on the simulated timeline in both modes).
    pub fn capture(
        dev: &mut Device<R>,
        ds: &DeviceState<R>,
        geom: &DeviceGeom<R>,
        step: u64,
        sim_time: f64,
    ) -> Self {
        let mut data = Vec::new();
        for (buf, len) in prognostics(ds, geom) {
            if dev.mode() == ExecMode::Functional {
                let mut host = vec![R::ZERO; len];
                dev.copy_d2h(StreamId::DEFAULT, buf, 0, &mut host)
                    .expect("copy in bounds");
                data.push(host);
            } else {
                dev.copy_d2h_phantom(StreamId::DEFAULT, len);
            }
        }
        dev.sync_stream(StreamId::DEFAULT);
        Checkpoint {
            step,
            sim_time,
            data,
        }
    }

    /// Upload the snapshot back into the device prognostics (bitwise
    /// restore; the H2D traffic is accounted in both modes).
    pub fn restore(&self, dev: &mut Device<R>, ds: &DeviceState<R>, geom: &DeviceGeom<R>) {
        let bufs = prognostics(ds, geom);
        if dev.mode() == ExecMode::Functional {
            assert_eq!(self.data.len(), bufs.len(), "checkpoint field count");
            for ((buf, len), host) in bufs.into_iter().zip(self.data.iter()) {
                assert_eq!(host.len(), len, "checkpoint field length");
                dev.copy_h2d(StreamId::DEFAULT, host, buf, 0)
                    .expect("copy in bounds");
            }
        } else {
            for (_, len) in bufs {
                dev.copy_h2d_phantom(StreamId::DEFAULT, len);
            }
        }
        dev.sync_stream(StreamId::DEFAULT);
    }

    /// Serialize to a little-endian byte stream (a portable on-disk
    /// checkpoint format; elements travel as `f64` bit patterns, exact
    /// for both precisions).
    pub fn to_bytes(&self) -> Vec<u8> {
        let elems: usize = self.data.iter().map(|f| f.len()).sum();
        let mut out = Vec::with_capacity(32 + self.data.len() * 8 + elems * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&self.sim_time.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u64).to_le_bytes());
        for field in &self.data {
            out.extend_from_slice(&(field.len() as u64).to_le_bytes());
            for &x in field {
                out.extend_from_slice(&x.to_f64().to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Parse a [`to_bytes`](Self::to_bytes) stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, &'static str> {
        let mut rd = Reader(bytes);
        if rd.take(MAGIC.len())? != MAGIC {
            return Err("bad checkpoint magic");
        }
        let step = rd.u64()?;
        let sim_time = f64::from_bits(rd.u64()?);
        let nfields = rd.u64()? as usize;
        let mut data = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let len = rd.u64()? as usize;
            let mut field = Vec::with_capacity(len);
            for _ in 0..len {
                field.push(R::from_f64(f64::from_bits(rd.u64()?)));
            }
            data.push(field);
        }
        if !rd.0.is_empty() {
            return Err("trailing bytes after checkpoint");
        }
        Ok(Checkpoint {
            step,
            sim_time,
            data,
        })
    }
}

const MAGIC: &[u8] = b"ASUCACP1";

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if self.0.len() < n {
            return Err("truncated checkpoint");
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleGpu;
    use dycore::config::ModelConfig;
    use vgpu::DeviceSpec;

    fn model() -> SingleGpu<f64> {
        let mut cfg = ModelConfig::mountain_wave(8, 6, 6);
        cfg.fault = None;
        SingleGpu::new(cfg, DeviceSpec::tesla_s1070(), ExecMode::Functional)
    }

    #[test]
    fn capture_restore_is_bitwise() {
        let mut m = model();
        m.run(2).unwrap();
        let cp = Checkpoint::capture(&mut m.dev, &m.ds, &m.geom, m.steps_taken, m.time);
        let before: Vec<Vec<u64>> = prognostics(&m.ds, &m.geom)
            .iter()
            .map(|&(b, _)| m.dev.read_vec(b).iter().map(|x| x.to_bits()).collect())
            .collect();
        m.run(2).unwrap();
        cp.restore(&mut m.dev, &m.ds, &m.geom);
        let after: Vec<Vec<u64>> = prognostics(&m.ds, &m.geom)
            .iter()
            .map(|&(b, _)| m.dev.read_vec(b).iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(before, after, "restore must be bitwise");
    }

    #[test]
    fn restart_from_checkpoint_reproduces_trajectory() {
        // Straight run to step 4 vs. run to 2, checkpoint, run to 4,
        // roll back, re-run to 4: identical prognostics.
        let mut a = model();
        a.run(4).unwrap();
        let gold = a.dev.read_vec(a.ds.th);

        let mut b = model();
        b.run(2).unwrap();
        let cp = Checkpoint::capture(&mut b.dev, &b.ds, &b.geom, b.steps_taken, b.time);
        b.run(2).unwrap();
        cp.restore(&mut b.dev, &b.ds, &b.geom);
        b.steps_taken = cp.step;
        b.time = cp.sim_time;
        b.run(2).unwrap();
        let redo = b.dev.read_vec(b.ds.th);
        let eq = gold
            .iter()
            .zip(redo.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(eq, "replayed trajectory must be bitwise identical");
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let mut m = model();
        m.run(1).unwrap();
        let cp = Checkpoint::capture(&mut m.dev, &m.ds, &m.geom, 1, 5.0);
        let bytes = cp.to_bytes();
        let back = Checkpoint::<f64>::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        assert_eq!(back.step, 1);
        assert_eq!(back.sim_time, 5.0);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Checkpoint::<f64>::from_bytes(b"not a checkpoint").is_err());
        let mut m = model();
        let cp = Checkpoint::capture(&mut m.dev, &m.ds, &m.geom, 0, 0.0);
        let mut bytes = cp.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(Checkpoint::<f64>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn phantom_checkpoint_accounts_traffic_only() {
        let mut cfg = ModelConfig::mountain_wave(8, 6, 6);
        cfg.fault = None;
        let mut m = SingleGpu::<f64>::new(cfg, DeviceSpec::tesla_s1070(), ExecMode::Phantom);
        let t0 = m.dev.host_time();
        let cp = Checkpoint::capture(&mut m.dev, &m.ds, &m.geom, 0, 0.0);
        assert!(cp.data.is_empty());
        assert!(m.dev.host_time() > t0, "phantom capture must cost time");
        cp.restore(&mut m.dev, &m.ds, &m.geom);
    }
}
