//! Device memory arena with capacity accounting.
//!
//! Allocation failures matter: the paper's maximum per-GPU grid
//! (320×256×48 in single precision, 320×128×48 in double) is set by the
//! 4 GB of a Tesla S1070 GPU, and the multi-GPU decomposition is sized
//! around exactly that limit. The arena enforces the spec's capacity in
//! both functional and phantom modes.
//!
//! Functional storage is shared across kernel worker threads (the
//! slab-parallel launch path hands one [`MemView`] to every worker), so
//! per-buffer borrow rules are enforced with a small mutex-guarded state
//! instead of `RefCell`: any number of concurrent readers, one exclusive
//! whole-buffer writer, or any number of *disjoint* mutable slab views
//! ([`MemView::write_slab`]) with overlap detection at claim time.

use crate::san::{AccessDecl, AccessRange, LaunchTrace};
use numerics::Real;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut, Range};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Typed handle to a device allocation (like a `CUdeviceptr`).
#[derive(Debug)]
pub struct Buf<R> {
    pub(crate) id: u32,
    pub(crate) len: usize,
    _marker: std::marker::PhantomData<R>,
}

// Manual impls: a Buf is a plain handle, copyable regardless of R.
impl<R> Clone for Buf<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for Buf<R> {}

impl<R> Buf<R> {
    pub fn len(&self) -> usize {
        self.len
    }
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// Raw arena id — the sanitizer's buffer identity.
    pub fn id(&self) -> u32 {
        self.id
    }
    /// Whole-buffer access declaration for [`Launch::reading`](crate::Launch::reading)
    /// / [`Launch::writing`](crate::Launch::writing).
    pub fn access(&self) -> AccessDecl {
        AccessDecl {
            buf: self.id,
            range: AccessRange::All,
        }
    }
    /// Access declaration restricted to a contiguous flat element range.
    pub fn access_flat(&self, range: Range<usize>) -> AccessDecl {
        AccessDecl {
            buf: self.id,
            range: AccessRange::flat(range),
        }
    }
    /// Access declaration with an explicit footprint.
    pub fn access_range(&self, range: AccessRange) -> AccessDecl {
        AccessDecl {
            buf: self.id,
            range,
        }
    }
}

impl<R> From<Buf<R>> for AccessDecl {
    fn from(b: Buf<R>) -> Self {
        b.access()
    }
}

/// Device memory errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Allocation exceeds remaining device memory; payload is
    /// (requested bytes, free bytes).
    OutOfMemory { requested: u64, free: u64 },
    /// Handle already freed or from another device.
    InvalidHandle,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory { requested, free } => write!(
                f,
                "out of device memory: requested {requested} bytes, {free} bytes free"
            ),
            MemError::InvalidHandle => write!(f, "invalid device buffer handle"),
        }
    }
}

impl std::error::Error for MemError {}

/// Runtime borrow accounting of one functional allocation.
#[derive(Default)]
struct BorrowState {
    readers: usize,
    writer: bool,
    /// Active mutable slab claims (element ranges), checked for overlap.
    slabs: Vec<Range<usize>>,
}

/// Functional allocation: stable heap storage plus borrow accounting.
///
/// The storage pointer is captured once at allocation and never changes
/// (the `Box` owns a fixed heap block); all guard slices are formed from
/// it via `from_raw_parts`, so no `&mut Box` is ever re-created while
/// guards exist.
struct DataSlot<R> {
    /// Owns the heap block `ptr` points into; never read directly.
    #[allow(dead_code)]
    data: UnsafeCell<Box<[R]>>,
    ptr: *mut R,
    len: usize,
    state: Mutex<BorrowState>,
}

// Safety: all access to `data` goes through the borrow protocol in
// `state` (readers xor one writer xor disjoint slabs), which makes the
// raw-pointer slices race-free; `R: Send + Sync` via the `Real` bound.
unsafe impl<R: Send + Sync> Sync for DataSlot<R> {}
unsafe impl<R: Send> Send for DataSlot<R> {}

impl<R> DataSlot<R> {
    /// Lock the borrow state, ignoring poisoning: a borrow-rule panic
    /// fires while the state lock is held, and the unwinding guards must
    /// still be able to release their claims.
    fn lock_state(&self) -> MutexGuard<'_, BorrowState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<R: Real> DataSlot<R> {
    fn new(storage: Box<[R]>) -> Self {
        let mut storage = storage;
        let ptr = storage.as_mut_ptr();
        let len = storage.len();
        DataSlot {
            data: UnsafeCell::new(storage),
            ptr,
            len,
            state: Mutex::new(BorrowState::default()),
        }
    }
}

enum Slot<R> {
    /// Functional allocation with real storage.
    Data(DataSlot<R>),
    /// Phantom allocation: bytes accounted, no storage.
    Phantom { len: usize },
    /// Freed.
    Empty,
}

/// Shared read access to a buffer's contents.
pub struct ReadGuard<'a, R> {
    slot: &'a DataSlot<R>,
}

impl<R> Deref for ReadGuard<'_, R> {
    type Target = [R];
    fn deref(&self) -> &[R] {
        unsafe { std::slice::from_raw_parts(self.slot.ptr, self.slot.len) }
    }
}

impl<R> Drop for ReadGuard<'_, R> {
    fn drop(&mut self) {
        self.slot.lock_state().readers -= 1;
    }
}

/// Exclusive whole-buffer write access.
pub struct WriteGuard<'a, R> {
    slot: &'a DataSlot<R>,
}

impl<R> Deref for WriteGuard<'_, R> {
    type Target = [R];
    fn deref(&self) -> &[R] {
        unsafe { std::slice::from_raw_parts(self.slot.ptr, self.slot.len) }
    }
}

impl<R> DerefMut for WriteGuard<'_, R> {
    fn deref_mut(&mut self) -> &mut [R] {
        unsafe { std::slice::from_raw_parts_mut(self.slot.ptr, self.slot.len) }
    }
}

impl<R> Drop for WriteGuard<'_, R> {
    fn drop(&mut self) {
        self.slot.lock_state().writer = false;
    }
}

/// Mutable access to one claimed element range of a buffer. Multiple
/// slab guards of the same buffer may coexist as long as their ranges
/// are disjoint (checked when the claim is made).
pub struct SlabGuard<'a, R> {
    slot: &'a DataSlot<R>,
    range: Range<usize>,
}

impl<R> SlabGuard<'_, R> {
    /// First element (flat index into the buffer) this view covers.
    pub fn start(&self) -> usize {
        self.range.start
    }
}

impl<R> Deref for SlabGuard<'_, R> {
    type Target = [R];
    fn deref(&self) -> &[R] {
        unsafe { std::slice::from_raw_parts(self.slot.ptr.add(self.range.start), self.range.len()) }
    }
}

impl<R> DerefMut for SlabGuard<'_, R> {
    fn deref_mut(&mut self) -> &mut [R] {
        unsafe {
            std::slice::from_raw_parts_mut(self.slot.ptr.add(self.range.start), self.range.len())
        }
    }
}

impl<R> Drop for SlabGuard<'_, R> {
    fn drop(&mut self) {
        let mut st = self.slot.lock_state();
        let pos = st
            .slabs
            .iter()
            .position(|r| r.start == self.range.start && r.end == self.range.end)
            .expect("slab claim vanished");
        st.slabs.swap_remove(pos);
    }
}

/// The arena owning all allocations of one device.
pub(crate) struct Arena<R> {
    slots: Vec<Slot<R>>,
    capacity: u64,
    used: u64,
}

impl<R: Real> Arena<R> {
    pub fn new(capacity: u64) -> Self {
        Arena {
            slots: Vec::new(),
            capacity,
            used: 0,
        }
    }

    pub fn used(&self) -> u64 {
        self.used
    }

    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    pub fn alloc(&mut self, len: usize, phantom: bool) -> Result<Buf<R>, MemError> {
        let bytes = (len * R::BYTES) as u64;
        if self.used + bytes > self.capacity {
            return Err(MemError::OutOfMemory {
                requested: bytes,
                free: self.capacity - self.used,
            });
        }
        self.used += bytes;
        let slot = if phantom {
            Slot::Phantom { len }
        } else {
            Slot::Data(DataSlot::new(vec![R::ZERO; len].into_boxed_slice()))
        };
        self.slots.push(slot);
        Ok(Buf {
            id: (self.slots.len() - 1) as u32,
            len,
            _marker: std::marker::PhantomData,
        })
    }

    pub fn dealloc(&mut self, buf: Buf<R>) -> Result<(), MemError> {
        let slot = self
            .slots
            .get_mut(buf.id as usize)
            .ok_or(MemError::InvalidHandle)?;
        let len = match slot {
            Slot::Data(d) => d.len,
            Slot::Phantom { len } => *len,
            Slot::Empty => return Err(MemError::InvalidHandle),
        };
        self.used -= (len * R::BYTES) as u64;
        *slot = Slot::Empty;
        Ok(())
    }

    pub fn is_phantom(&self, buf: Buf<R>) -> bool {
        matches!(self.slots.get(buf.id as usize), Some(Slot::Phantom { .. }))
    }

    fn data_slot(&self, buf: Buf<R>) -> &DataSlot<R> {
        match &self.slots[buf.id as usize] {
            Slot::Data(d) => d,
            Slot::Phantom { .. } => panic!("functional access to phantom buffer {}", buf.id),
            Slot::Empty => panic!("use after free of device buffer {}", buf.id),
        }
    }

    pub fn borrow(&self, buf: Buf<R>) -> ReadGuard<'_, R> {
        let slot = self.data_slot(buf);
        {
            let mut st = slot.lock_state();
            assert!(
                !st.writer && st.slabs.is_empty(),
                "buffer {} already mutably borrowed",
                buf.id
            );
            st.readers += 1;
        }
        ReadGuard { slot }
    }

    pub fn borrow_mut(&self, buf: Buf<R>) -> WriteGuard<'_, R> {
        let slot = self.data_slot(buf);
        {
            let mut st = slot.lock_state();
            assert!(
                !st.writer && st.readers == 0 && st.slabs.is_empty(),
                "buffer {} already borrowed",
                buf.id
            );
            st.writer = true;
        }
        WriteGuard { slot }
    }

    /// Live (un-freed) allocations as `(id, elements, bytes)` — the
    /// sanitizer's leakcheck input.
    pub fn live(&self) -> Vec<(u32, usize, usize)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Data(d) => Some((i as u32, d.len, d.len * R::BYTES)),
                Slot::Phantom { len } => Some((i as u32, *len, *len * R::BYTES)),
                Slot::Empty => None,
            })
            .collect()
    }

    pub fn borrow_slab(&self, buf: Buf<R>, range: Range<usize>) -> SlabGuard<'_, R> {
        let slot = self.data_slot(buf);
        assert!(
            range.start <= range.end && range.end <= slot.len,
            "slab {range:?} out of bounds for buffer {} (len {})",
            buf.id,
            slot.len
        );
        {
            let mut st = slot.lock_state();
            assert!(
                !st.writer && st.readers == 0,
                "buffer {} already borrowed",
                buf.id
            );
            assert!(
                st.slabs
                    .iter()
                    .all(|r| r.end <= range.start || range.end <= r.start),
                "overlapping mutable slabs of buffer {}: {range:?} vs {:?}",
                buf.id,
                st.slabs
            );
            st.slabs.push(range.clone());
        }
        SlabGuard { slot, range }
    }
}

/// Read/write view of device memory handed to a kernel body — the kernel's
/// window onto "global memory". Borrow rules are enforced at runtime per
/// buffer (a kernel may read one field while writing another), and the
/// view is `Sync`: the slab-parallel launch path shares one view across
/// all worker threads, each claiming its own disjoint slab.
pub struct MemView<'a, R> {
    pub(crate) arena: &'a Arena<R>,
    /// Per-launch access recorder, armed only when a sanitizer mode
    /// that needs traces is active — `None` costs nothing on claims.
    pub(crate) trace: Option<&'a LaunchTrace>,
}

impl<'a, R: Real> MemView<'a, R> {
    /// Immutable access to a buffer's contents.
    pub fn read(&self, buf: Buf<R>) -> ReadGuard<'a, R> {
        if let Some(t) = self.trace {
            t.record(buf.id, false, None);
        }
        self.arena.borrow(buf)
    }

    /// Mutable access to a buffer's contents.
    pub fn write(&self, buf: Buf<R>) -> WriteGuard<'a, R> {
        if let Some(t) = self.trace {
            t.record(buf.id, true, None);
        }
        self.arena.borrow_mut(buf)
    }

    /// Mutable access to one element range of a buffer; disjoint ranges
    /// of the same buffer may be claimed concurrently by different
    /// workers (overlap panics).
    pub fn write_slab(&self, buf: Buf<R>, range: Range<usize>) -> SlabGuard<'a, R> {
        if let Some(t) = self.trace {
            t.record(buf.id, true, Some(range.clone()));
        }
        self.arena.borrow_slab(buf, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut a = Arena::<f32>::new(1024);
        let b = a.alloc(10, false).unwrap();
        assert_eq!(a.used(), 40);
        a.borrow_mut(b)[3] = 7.0;
        assert_eq!(a.borrow(b)[3], 7.0);
        assert_eq!(a.borrow(b)[0], 0.0);
    }

    #[test]
    fn capacity_enforced() {
        let mut a = Arena::<f64>::new(100);
        assert!(a.alloc(12, false).is_ok()); // 96 bytes
        let err = a.alloc(1, false).unwrap_err();
        match err {
            MemError::OutOfMemory { requested, free } => {
                assert_eq!(requested, 8);
                assert_eq!(free, 4);
            }
            _ => panic!("wrong error"),
        }
    }

    #[test]
    fn paper_grid_fits_exactly_in_4gb_sp_but_not_dp() {
        // ~25 full-size 3-D fields of the ASUCA state at 320x256x48.
        // In SP they fit in 4 GB; in DP they exceed it (the paper halves
        // ny to 128 for DP) — reproduce the capacity arithmetic.
        let grid = ((320 + 4) * (256 + 4) * (48 + 4)) as usize;
        let nfields = 150;
        let mut sp = Arena::<f32>::new(4 << 30);
        for _ in 0..nfields {
            sp.alloc(grid, true).unwrap();
        }
        // The same field count in double precision must exhaust 4 GB —
        // which is why the paper halves ny to 128 for its DP runs.
        let mut dp = Arena::<f64>::new(4 << 30);
        let mut failed = false;
        for _ in 0..nfields {
            if dp.alloc(grid, true).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "DP at double the footprint should exceed 4GB");
        // Halving ny (as the paper does) makes DP fit again.
        let half = ((320 + 4) * (128 + 4) * (48 + 4)) as usize;
        let mut dp_half = Arena::<f64>::new(4 << 30);
        for _ in 0..nfields {
            dp_half.alloc(half, true).unwrap();
        }
    }

    #[test]
    fn dealloc_returns_capacity() {
        let mut a = Arena::<f32>::new(64);
        let b = a.alloc(16, false).unwrap();
        assert_eq!(a.free_bytes(), 0);
        a.dealloc(b).unwrap();
        assert_eq!(a.free_bytes(), 64);
        let b2 = a.alloc(16, true).unwrap();
        assert!(a.is_phantom(b2));
    }

    #[test]
    #[should_panic(expected = "phantom")]
    fn phantom_access_panics() {
        let mut a = Arena::<f32>::new(1024);
        let b = a.alloc(4, true).unwrap();
        let _ = a.borrow(b);
    }

    #[test]
    fn double_free_is_error() {
        let mut a = Arena::<f32>::new(1024);
        let b = a.alloc(4, false).unwrap();
        a.dealloc(b).unwrap();
        assert_eq!(a.dealloc(b), Err(MemError::InvalidHandle));
    }

    #[test]
    fn view_allows_read_one_write_other() {
        let mut a = Arena::<f64>::new(1024);
        let src = a.alloc(8, false).unwrap();
        let dst = a.alloc(8, false).unwrap();
        a.borrow_mut(src)[2] = 5.0;
        let view = MemView {
            arena: &a,
            trace: None,
        };
        {
            let s = view.read(src);
            let mut d = view.write(dst);
            d[2] = s[2] * 2.0;
        }
        assert_eq!(a.borrow(dst)[2], 10.0);
    }

    #[test]
    fn disjoint_slabs_coexist_and_land() {
        let mut a = Arena::<f64>::new(1024);
        let b = a.alloc(16, false).unwrap();
        let view = MemView {
            arena: &a,
            trace: None,
        };
        {
            let mut lo = view.write_slab(b, 0..8);
            let mut hi = view.write_slab(b, 8..16);
            assert_eq!(lo.start(), 0);
            assert_eq!(hi.start(), 8);
            lo[3] = 1.5;
            hi[3] = 2.5;
        }
        let d = a.borrow(b);
        assert_eq!(d[3], 1.5);
        assert_eq!(d[11], 2.5);
    }

    #[test]
    fn slabs_are_written_from_threads() {
        let mut a = Arena::<f64>::new(8192);
        let b = a.alloc(64, false).unwrap();
        let view = MemView {
            arena: &a,
            trace: None,
        };
        let pool = crate::pool::WorkerPool::new(4);
        pool.run_slabs(64, 4, |j0, j1| {
            let mut s = view.write_slab(b, j0..j1);
            for (i, v) in s.iter_mut().enumerate() {
                *v = (j0 + i) as f64;
            }
        });
        let d = a.borrow(b);
        for (i, v) in d.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    #[should_panic(expected = "overlapping mutable slabs")]
    fn overlapping_slabs_panic() {
        let mut a = Arena::<f64>::new(1024);
        let b = a.alloc(16, false).unwrap();
        let view = MemView {
            arena: &a,
            trace: None,
        };
        let _lo = view.write_slab(b, 0..9);
        let _hi = view.write_slab(b, 8..16);
    }

    #[test]
    #[should_panic(expected = "mutably borrowed")]
    fn read_during_slab_write_panics() {
        let mut a = Arena::<f64>::new(1024);
        let b = a.alloc(16, false).unwrap();
        let view = MemView {
            arena: &a,
            trace: None,
        };
        let _s = view.write_slab(b, 0..8);
        let _r = view.read(b);
    }
}
