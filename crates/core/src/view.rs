//! Device-array views in the GPU's XZY memory order.
//!
//! The paper stores GPU arrays x-fastest, then z, then y (§IV-A.1) so
//! that (a) a warp's threads walk contiguous x (coalesced access) and
//! (b) y-direction halo slabs are contiguous for the 2-D decomposition.
//! These views give kernels `at(i, j, k)` indexing over a flat device
//! slice with that layout and a uniform halo.

use numerics::simd::{Lane, Width};
use numerics::Real;

/// Shape of a device field: interior size plus halo width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    pub nx: usize,
    pub ny: usize,
    /// Number of vertical levels (nz for centers, nz+1 for w).
    pub nl: usize,
    pub halo: usize,
}

impl Dims {
    pub fn center(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        Dims {
            nx,
            ny,
            nl: nz,
            halo,
        }
    }

    pub fn wlevel(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        Dims {
            nx,
            ny,
            nl: nz + 1,
            halo,
        }
    }

    /// A 2-D horizontal field (one level, no vertical halo).
    pub fn plane(nx: usize, ny: usize, halo: usize) -> Self {
        Dims {
            nx,
            ny,
            nl: 1,
            halo,
        }
    }

    #[inline(always)]
    pub fn px(&self) -> usize {
        self.nx + 2 * self.halo
    }
    #[inline(always)]
    pub fn py(&self) -> usize {
        self.ny + 2 * self.halo
    }
    #[inline(always)]
    pub fn pl(&self) -> usize {
        if self.nl == 1 {
            1
        } else {
            self.nl + 2 * self.halo
        }
    }

    /// Total elements including halos.
    pub fn len(&self) -> usize {
        self.px() * self.py() * self.pl()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// XZY flat offset of logical index (i, j, k); halos via negative /
    /// past-the-end indices. 2-D planes ignore `k`.
    #[inline(always)]
    pub fn off(&self, i: isize, j: isize, k: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(i >= -h && i < self.nx as isize + h, "i={i} out of range");
        debug_assert!(j >= -h && j < self.ny as isize + h, "j={j} out of range");
        let (kk, pl) = if self.nl == 1 {
            (0usize, 1usize)
        } else {
            debug_assert!(k >= -h && k < self.nl as isize + h, "k={k} out of range");
            ((k + h) as usize, self.pl())
        };
        (i + h) as usize + self.px() * (kk + pl * (j + h) as usize)
    }

    /// Flat element range covering logical rows `[j0, j1)` — a
    /// contiguous y-slab (the XZY property the slab-parallel launch path
    /// builds on). Halo rows via negative / past-the-end indices.
    pub fn slab(&self, j0: isize, j1: isize) -> std::ops::Range<usize> {
        let h = self.halo as isize;
        debug_assert!(-h <= j0 && j0 <= j1 && j1 <= self.ny as isize + h);
        let stride = self.px() * self.pl();
        stride * (j0 + h) as usize..stride * (j1 + h) as usize
    }
}

/// Read cursor over one padded x-row at fixed `(j, k)`: the row's base
/// offset is computed once, and every stencil tap is a single add off the
/// logical `i` — the Rust analog of the paper's register-marching loops,
/// where neighbor values are reached by fixed ±1/±2 offsets inside a
/// coalesced x-walk instead of re-deriving a 3-D offset per access.
#[derive(Clone, Copy)]
pub struct Row<'a, R> {
    /// The full padded row: `px` elements, starting at logical `i = -h`.
    d: &'a [R],
    h: isize,
}

/// Padded-row index of logical `i` with a named bounds check: a stencil
/// tap whose x-offset leaves the padded row must die with the offending
/// `i`, not a wrapped-usize slice panic (mirror of the `V3SlabMut::idx`
/// low-side check).
#[inline(always)]
fn row_idx(i: isize, h: isize, px: usize) -> usize {
    let idx = i + h;
    debug_assert!(
        idx >= 0 && (idx as usize) < px,
        "x-offset i={i} outside the padded row (halo {h}, padded width {px})"
    );
    idx as usize
}

impl<'a, R: Real> Row<'a, R> {
    #[inline(always)]
    pub fn at(&self, i: isize) -> R {
        self.d[row_idx(i, self.h, self.d.len())]
    }

    /// Lane load of `L::N` consecutive values starting at logical `i`,
    /// at the pass width `lw` of an x-walk — one unaligned vector load
    /// off the contiguous padded row, so a fixed-offset stencil tap
    /// (`lanes(lw, i - 1)`) is the same single load shifted by one
    /// element, exactly like the shifted coalesced warp reads of the
    /// paper's §IV-A x-walk. At width 1 it is [`at`](Self::at).
    #[inline(always)]
    pub fn lanes<L: Lane<R>>(&self, _w: Width<R, L>, i: isize) -> L {
        let idx = row_idx(i, self.h, self.d.len() + 1 - L::N);
        L::load_at(self.d, idx)
    }
}

/// Mutable counterpart of [`Row`]; obtained from [`V3SlabMut::row_mut`]
/// so writes stay confined to the claimed y-slab.
pub struct RowMut<'a, R> {
    d: &'a mut [R],
    h: isize,
}

impl<'a, R: Real> RowMut<'a, R> {
    #[inline(always)]
    pub fn at(&self, i: isize) -> R {
        self.d[row_idx(i, self.h, self.d.len())]
    }

    #[inline(always)]
    pub fn set(&mut self, i: isize, v: R) {
        let idx = row_idx(i, self.h, self.d.len());
        self.d[idx] = v;
    }

    #[inline(always)]
    pub fn add(&mut self, i: isize, v: R) {
        let idx = row_idx(i, self.h, self.d.len());
        self.d[idx] += v;
    }

    /// Lane load of `L::N` consecutive values starting at logical `i`
    /// (see [`Row::lanes`]).
    #[inline(always)]
    pub fn lanes<L: Lane<R>>(&self, _w: Width<R, L>, i: isize) -> L {
        let idx = row_idx(i, self.h, self.d.len() + 1 - L::N);
        L::load_at(self.d, idx)
    }

    /// Lane store of `L::N` consecutive values starting at `i`.
    #[inline(always)]
    pub fn set_lanes<L: Lane<R>>(&mut self, _w: Width<R, L>, i: isize, v: L) {
        let idx = row_idx(i, self.h, self.d.len() + 1 - L::N);
        v.store_at(self.d, idx);
    }

    /// Lane read-modify-write `+=`: each lane performs the identical
    /// scalar `+=` the element-wise [`add`](Self::add) would.
    #[inline(always)]
    pub fn add_lanes<L: Lane<R>>(&mut self, _w: Width<R, L>, i: isize, v: L) {
        let idx = row_idx(i, self.h, self.d.len() + 1 - L::N);
        let cur = L::load_at(self.d, idx);
        (cur + v).store_at(self.d, idx);
    }
}

/// Read-only view of a device buffer.
#[derive(Clone, Copy)]
pub struct V3<'a, R> {
    pub d: &'a [R],
    pub m: Dims,
}

impl<'a, R: Real> V3<'a, R> {
    pub fn new(d: &'a [R], m: Dims) -> Self {
        debug_assert_eq!(d.len(), m.len(), "buffer/dims mismatch");
        V3 { d, m }
    }

    #[inline(always)]
    pub fn at(&self, i: isize, j: isize, k: isize) -> R {
        self.d[self.m.off(i, j, k)]
    }

    /// Cursor over the padded x-row at `(j, k)`.
    #[inline(always)]
    pub fn row(&self, j: isize, k: isize) -> Row<'a, R> {
        let h = self.m.halo as isize;
        let base = self.m.off(-h, j, k);
        Row {
            d: &self.d[base..base + self.m.px()],
            h,
        }
    }
}

/// Mutable view of a device buffer.
pub struct V3Mut<'a, R> {
    pub d: &'a mut [R],
    pub m: Dims,
}

impl<'a, R: Real> V3Mut<'a, R> {
    pub fn new(d: &'a mut [R], m: Dims) -> Self {
        debug_assert_eq!(d.len(), m.len(), "buffer/dims mismatch");
        V3Mut { d, m }
    }

    #[inline(always)]
    pub fn at(&self, i: isize, j: isize, k: isize) -> R {
        self.d[self.m.off(i, j, k)]
    }

    #[inline(always)]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: R) {
        let off = self.m.off(i, j, k);
        self.d[off] = v;
    }

    #[inline(always)]
    pub fn add(&mut self, i: isize, j: isize, k: isize, v: R) {
        let off = self.m.off(i, j, k);
        self.d[off] += v;
    }
}

/// Mutable view over one claimed y-slab of a device buffer: `d` holds
/// only the rows `[j0, …)` (see [`Dims::slab`]), and indexing subtracts
/// the slab's base offset so kernels keep using global `(i, j, k)`
/// coordinates. Out-of-slab access lands outside `d` and panics.
pub struct V3SlabMut<'a, R> {
    pub d: &'a mut [R],
    pub m: Dims,
    base: usize,
    j0: isize,
}

impl<'a, R: Real> V3SlabMut<'a, R> {
    /// Wrap a slab slice whose first element is global row `j0`'s origin.
    pub fn new(d: &'a mut [R], m: Dims, j0: isize) -> Self {
        let base = m.slab(j0, j0).start;
        V3SlabMut { d, m, base, j0 }
    }

    #[inline(always)]
    fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let off = self.m.off(i, j, k);
        debug_assert!(
            off >= self.base,
            "row j={j} is below this slab (slab starts at row j0={})",
            self.j0
        );
        off.wrapping_sub(self.base)
    }

    #[inline(always)]
    pub fn at(&self, i: isize, j: isize, k: isize) -> R {
        self.d[self.idx(i, j, k)]
    }

    #[inline(always)]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: R) {
        let off = self.idx(i, j, k);
        self.d[off] = v;
    }

    #[inline(always)]
    pub fn add(&mut self, i: isize, j: isize, k: isize, v: R) {
        let off = self.idx(i, j, k);
        self.d[off] += v;
    }

    /// Read cursor over the padded x-row at `(j, k)` — the row must lie
    /// inside the claimed slab (unlike [`V3::row`], which sees the whole
    /// buffer).
    #[inline(always)]
    pub fn row(&self, j: isize, k: isize) -> Row<'_, R> {
        let h = self.m.halo as isize;
        let base = self.idx(-h, j, k);
        Row {
            d: &self.d[base..base + self.m.px()],
            h,
        }
    }

    /// Mutable cursor over the padded x-row at `(j, k)`.
    #[inline(always)]
    pub fn row_mut(&mut self, j: isize, k: isize) -> RowMut<'_, R> {
        let h = self.m.halo as isize;
        let base = self.idx(-h, j, k);
        let px = self.m.px();
        RowMut {
            d: &mut self.d[base..base + px],
            h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xzy_x_is_contiguous() {
        let m = Dims::center(8, 4, 6, 2);
        assert_eq!(m.off(1, 0, 0), m.off(0, 0, 0) + 1);
        // z stride = px
        assert_eq!(m.off(0, 0, 1), m.off(0, 0, 0) + 12);
        // y stride = px*pz
        assert_eq!(m.off(0, 1, 0), m.off(0, 0, 0) + 12 * 10);
    }

    #[test]
    fn y_slabs_are_contiguous_blocks() {
        // All cells with fixed j form one contiguous block — the property
        // the paper exploits for y halo transfer.
        let m = Dims::center(4, 3, 2, 2);
        let base = m.off(-2, 1, -2);
        let mut offs: Vec<usize> = Vec::new();
        for k in -2..4isize {
            for i in -2..6isize {
                offs.push(m.off(i, 1, k));
            }
        }
        offs.sort_unstable();
        for (n, o) in offs.iter().enumerate() {
            assert_eq!(*o, base + n);
        }
    }

    #[test]
    fn plane_ignores_k() {
        let m = Dims::plane(4, 3, 2);
        assert_eq!(m.off(0, 0, 0), m.off(0, 0, 5));
        assert_eq!(m.len(), 8 * 7);
    }

    #[test]
    fn views_read_write() {
        let m = Dims::center(2, 2, 2, 1);
        let mut data = vec![0.0f32; m.len()];
        {
            let mut v = V3Mut::new(&mut data, m);
            v.set(0, 0, 0, 5.0);
            v.add(0, 0, 0, 2.0);
            v.set(-1, 1, 2, 9.0);
        }
        let v = V3::new(&data, m);
        assert_eq!(v.at(0, 0, 0), 7.0);
        assert_eq!(v.at(-1, 1, 2), 9.0);
    }

    #[test]
    fn slab_ranges_tile_the_buffer() {
        let m = Dims::center(4, 3, 2, 2);
        assert_eq!(m.slab(-2, m.ny as isize + 2), 0..m.len());
        // Interior rows [0, ny) are exactly the union of per-row slabs.
        let whole = m.slab(0, 3);
        let mut cursor = whole.start;
        for j in 0..3isize {
            let r = m.slab(j, j + 1);
            assert_eq!(r.start, cursor);
            assert_eq!(r.len(), m.px() * m.pl());
            cursor = r.end;
        }
        assert_eq!(cursor, whole.end);
    }

    #[test]
    fn slab_view_matches_whole_view() {
        let m = Dims::center(3, 4, 2, 1);
        let mut data = vec![0.0f64; m.len()];
        {
            let r = m.slab(1, 3);
            let mut s = V3SlabMut::new(&mut data[r], m, 1);
            s.set(0, 1, 0, 5.0);
            s.add(2, 2, 1, 2.5);
            assert_eq!(s.at(0, 1, 0), 5.0);
        }
        let v = V3::new(&data, m);
        assert_eq!(v.at(0, 1, 0), 5.0);
        assert_eq!(v.at(2, 2, 1), 2.5);
    }

    #[test]
    #[should_panic]
    fn slab_view_rejects_out_of_slab_rows() {
        let m = Dims::center(3, 4, 2, 1);
        let mut data = vec![0.0f64; m.len()];
        let r = m.slab(1, 3);
        let mut s = V3SlabMut::new(&mut data[r], m, 1);
        s.set(0, 3, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "below this slab")]
    fn slab_view_rejects_rows_below_slab() {
        // j < j0 used to die as a raw usize subtraction overflow; it must
        // name the offending row and the slab's first row instead.
        let m = Dims::center(3, 4, 2, 1);
        let mut data = vec![0.0f64; m.len()];
        let r = m.slab(1, 3);
        let mut s = V3SlabMut::new(&mut data[r], m, 1);
        s.set(0, 0, 0, 1.0);
    }

    #[test]
    fn row_cursor_matches_at() {
        let m = Dims::center(5, 3, 4, 2);
        let mut data = vec![0.0f64; m.len()];
        {
            let mut v = V3Mut::new(&mut data, m);
            for j in -2..5isize {
                for k in -2..6isize {
                    for i in -2..7isize {
                        v.set(i, j, k, (i * 100 + j * 10 + k) as f64);
                    }
                }
            }
        }
        let v = V3::new(&data, m);
        for j in -2..5isize {
            for k in -2..6isize {
                let row = v.row(j, k);
                for i in -2..7isize {
                    assert_eq!(row.at(i), v.at(i, j, k));
                }
            }
        }
    }

    #[test]
    fn slab_row_cursors_read_and_write() {
        let m = Dims::center(3, 4, 2, 1);
        let mut data = vec![0.0f64; m.len()];
        {
            let r = m.slab(1, 3);
            let mut s = V3SlabMut::new(&mut data[r], m, 1);
            {
                let mut row = s.row_mut(2, 1);
                row.set(0, 4.0);
                row.add(0, 0.5);
                row.set(-1, 7.0); // halo column
                assert_eq!(row.at(0), 4.5);
            }
            assert_eq!(s.row(2, 1).at(0), 4.5);
            assert_eq!(s.at(2, 2, 1), 0.0);
        }
        let v = V3::new(&data, m);
        assert_eq!(v.at(0, 2, 1), 4.5);
        assert_eq!(v.at(-1, 2, 1), 7.0);
    }

    #[test]
    #[should_panic(expected = "below this slab")]
    fn slab_row_cursor_rejects_rows_below_slab() {
        let m = Dims::center(3, 4, 2, 1);
        let mut data = vec![0.0f64; m.len()];
        let r = m.slab(1, 3);
        let s = V3SlabMut::new(&mut data[r], m, 1);
        let _ = s.row(0, 0);
    }

    #[test]
    fn row_lane_taps_match_scalar_taps() {
        use numerics::simd::{F64x8, LANES};
        let m = Dims::center(13, 3, 4, 2);
        let mut data = vec![0.0f64; m.len()];
        {
            let mut v = V3Mut::new(&mut data, m);
            for j in -2..5isize {
                for k in -2..6isize {
                    for i in -2..15isize {
                        v.set(i, j, k, (i * 1000 + j * 50 + k) as f64);
                    }
                }
            }
        }
        let v = V3::new(&data, m);
        let row = v.row(1, 2);
        let (wide, one) = (Width::<f64, F64x8>::new(), Width::<f64, f64>::new());
        // A lane load at i with a fixed stencil offset must equal the
        // eight scalar taps at i-1..i+7 etc.; at width 1 it is the tap.
        // The last offset's lane ends on the last halo column.
        for off in [-2isize, -1, 0, 1, 2, 5, 7] {
            let lv = row.lanes(wide, off);
            for l in 0..LANES {
                assert_eq!(lv.extract(l), row.at(off + l as isize));
            }
            assert_eq!(row.lanes(one, off), row.at(off));
        }
    }

    #[test]
    fn row_mut_lane_store_and_add_match_scalar() {
        use numerics::simd::{F64x8, LANES};
        let m = Dims::center(10, 2, 2, 1);
        let mut a = vec![0.0f64; m.len()];
        let mut b = vec![0.0f64; m.len()];
        let w = Width::<f64, F64x8>::new();
        let lane = w.from_fn(|l| 1.5 + l as f64);
        {
            let r = m.slab(0, 2);
            let mut s = V3SlabMut::new(&mut a[r], m, 0);
            let mut row = s.row_mut(1, 0);
            row.set_lanes(w, 1, lane);
            row.add_lanes(w, 0, lane);
            assert_eq!(row.lanes(w, 1).extract(0), row.at(1));
        }
        {
            let r = m.slab(0, 2);
            let mut s = V3SlabMut::new(&mut b[r], m, 0);
            let mut row = s.row_mut(1, 0);
            for l in 0..LANES as isize {
                row.set(1 + l, lane.extract(l as usize));
            }
            for l in 0..LANES as isize {
                row.add(l, lane.extract(l as usize));
            }
        }
        assert_eq!(a, b, "lane stores must equal element-wise stores");
    }

    #[test]
    #[should_panic(expected = "outside the padded row")]
    fn row_tap_rejects_x_offset_past_halo() {
        let m = Dims::center(4, 2, 2, 1);
        let data = vec![0.0f64; m.len()];
        let v = V3::new(&data, m);
        // nx=4, halo=1: valid logical i is -1..=4; i=5 leaves the row.
        let _ = v.row(0, 0).at(5);
    }

    #[test]
    #[should_panic(expected = "outside the padded row")]
    fn row_tap_rejects_x_offset_below_halo() {
        let m = Dims::center(4, 2, 2, 1);
        let data = vec![0.0f64; m.len()];
        let v = V3::new(&data, m);
        let _ = v.row(0, 0).at(-2);
    }

    #[test]
    #[should_panic(expected = "outside the padded row")]
    fn lane_tap_rejects_partial_overhang() {
        let m = Dims::center(8, 2, 2, 1);
        let data = vec![0.0f64; m.len()];
        let v = V3::new(&data, m);
        // nx=8, halo=1: valid logical i is -1..=8. An 8-wide load
        // starting at i=2 would touch i=9 — one past the halo column.
        let _ = v
            .row(0, 0)
            .lanes(Width::<f64, numerics::simd::F64x8>::new(), 2);
    }

    #[test]
    fn w_dims_have_extra_level() {
        let c = Dims::center(4, 4, 6, 2);
        let w = Dims::wlevel(4, 4, 6, 2);
        assert_eq!(w.pl(), c.pl() + 1);
    }
}
