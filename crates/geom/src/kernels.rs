//! Batched one-rect-vs-N distance-bound kernels over a struct-of-arrays
//! rectangle view.
//!
//! Node expansion is the join's CPU hot path: one popped pair evaluates
//! MINDIST (and often MAXDIST/MINMAXDIST) against *every* child entry of a
//! node, or against a plane-sweep window of them. Walking array-of-structs
//! entries one at a time keeps each bound evaluation scalar; this module
//! instead decodes a node's rectangles once into per-axis `lo`/`hi` columns
//! ([`SoaRects`]) and evaluates each bound as `D` column passes that the
//! compiler can autovectorize:
//!
//! ```text
//!   SoaRects<2>            axis 0              axis 1
//!     lo[0]: [l0 l0 l0 ...]   \  pass 1: out[i] = acc(0, gap0(i))
//!     hi[0]: [h0 h0 h0 ...]   /
//!     lo[1]: [l1 l1 l1 ...]   \  pass 2: out[i] = acc(out[i], gap1(i))
//!     hi[1]: [h1 h1 h1 ...]   /
//! ```
//!
//! The axis-major accumulation order (axis `0`, then `1`, …) is exactly the
//! fold order of the scalar bounds in [`Metric`](crate::Metric), so in the
//! squared [`KeySpace`] the batched keys match the scalar accumulators bit
//! for bit and a deferred `sqrt` reproduces the scalar distance exactly.
//!
//! All kernels write keys in the caller-chosen [`KeySpace`]; none of them
//! performs a `sqrt`.

use std::ops::Range;

use crate::metric::axis_gap;
use crate::{KeySpace, Point, Rect};

/// A struct-of-arrays batch of non-empty rectangles: one `lo` and one `hi`
/// column per axis, reusable across node expansions (`clear` keeps the
/// allocations).
#[derive(Clone, Debug)]
pub struct SoaRects<const D: usize> {
    len: usize,
    lo: [Vec<f64>; D],
    hi: [Vec<f64>; D],
}

impl<const D: usize> Default for SoaRects<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> SoaRects<D> {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            len: 0,
            lo: std::array::from_fn(|_| Vec::new()),
            hi: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Number of rectangles in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no rectangles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the batch, keeping the column allocations for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        for a in 0..D {
            self.lo[a].clear();
            self.hi[a].clear();
        }
    }

    /// Appends one rectangle. Rectangles must be non-empty; node entry
    /// regions and object bounding rectangles always are.
    pub fn push(&mut self, r: &Rect<D>) {
        debug_assert!(!r.is_empty(), "SoaRects holds non-empty rectangles only");
        for a in 0..D {
            self.lo[a].push(r.lo()[a]);
            self.hi[a].push(r.hi()[a]);
        }
        self.len += 1;
    }

    /// Appends `rects` in order, one column at a time. Each column is one
    /// tight copy loop; a [`SoaRects::push`] per rectangle instead updates
    /// `2·D` vector lengths per rectangle and costs several times more.
    pub fn extend<'a>(&mut self, rects: impl ExactSizeIterator<Item = &'a Rect<D>> + Clone) {
        debug_assert!(
            rects.clone().all(|r| !r.is_empty()),
            "SoaRects holds non-empty rectangles only"
        );
        self.len += rects.len();
        for a in 0..D {
            self.lo[a].extend(rects.clone().map(|r| r.lo()[a]));
            self.hi[a].extend(rects.clone().map(|r| r.hi()[a]));
        }
    }

    /// The `lo` column of one axis (used by the plane sweep, which keeps the
    /// batch sorted by `lo[0]` and binary-searches its window bounds here).
    #[must_use]
    pub fn lo_axis(&self, axis: usize) -> &[f64] {
        &self.lo[axis]
    }

    /// Reconstructs the rectangle at `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> Rect<D> {
        Rect::new(
            std::array::from_fn(|a| self.lo[a][i]),
            std::array::from_fn(|a| self.hi[a][i]),
        )
    }

    /// MINDIST keys between `q` and the rectangles in `range`, appended to
    /// `out` (one key per rectangle, in batch order).
    pub fn mindist_keys(&self, ks: KeySpace, q: &Rect<D>, range: Range<usize>, out: &mut Vec<f64>) {
        if q.is_empty() {
            out.resize(out.len() + range.len(), f64::INFINITY);
            return;
        }
        let base = out.len();
        out.resize(out.len() + range.len(), 0.0);
        let acc = &mut out[base..];
        for a in 0..D {
            let lo = &self.lo[a][range.clone()];
            let hi = &self.hi[a][range.clone()];
            let (qlo, qhi) = (q.lo()[a], q.hi()[a]);
            accumulate_axis(ks, acc, lo, hi, |l, h| axis_gap(l, h, qlo, qhi));
        }
        finish_axis(ks, acc);
    }

    /// [`SoaRects::mindist_keys`] with the column pass unrolled into
    /// explicit [`LANE_WIDTH`]-wide f64 lanes (the `std::simd` shape on
    /// stable Rust). Exact-width chunks carry no per-element bounds checks
    /// or iterator state, so the pass lowers to straight-line vector code;
    /// each element still performs the same two-rounding accumulate as the
    /// scalar kernel, so results are bit-identical.
    pub fn mindist_keys_lanes(
        &self,
        ks: KeySpace,
        q: &Rect<D>,
        range: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        if q.is_empty() {
            out.resize(out.len() + range.len(), f64::INFINITY);
            return;
        }
        let base = out.len();
        out.resize(out.len() + range.len(), 0.0);
        let acc = &mut out[base..];
        for a in 0..D {
            let lo = &self.lo[a][range.clone()];
            let hi = &self.hi[a][range.clone()];
            let (qlo, qhi) = (q.lo()[a], q.hi()[a]);
            accumulate_axis_lanes(ks, acc, lo, hi, |l, h| axis_gap(l, h, qlo, qhi));
        }
        finish_axis(ks, acc);
    }

    /// MAXDIST keys between `q` and the rectangles in `range`, appended to
    /// `out`.
    pub fn maxdist_keys(&self, ks: KeySpace, q: &Rect<D>, range: Range<usize>, out: &mut Vec<f64>) {
        if q.is_empty() {
            out.resize(out.len() + range.len(), f64::INFINITY);
            return;
        }
        let base = out.len();
        out.resize(out.len() + range.len(), 0.0);
        let acc = &mut out[base..];
        for a in 0..D {
            let lo = &self.lo[a][range.clone()];
            let hi = &self.hi[a][range.clone()];
            let (qlo, qhi) = (q.lo()[a], q.hi()[a]);
            accumulate_axis(ks, acc, lo, hi, |l, h| (h - qlo).abs().max((qhi - l).abs()));
        }
        finish_axis(ks, acc);
    }

    /// [`SoaRects::maxdist_keys`] over explicit fixed-width lanes; see
    /// [`SoaRects::mindist_keys_lanes`] for the contract (bit-identical to
    /// the scalar kernel, element for element).
    pub fn maxdist_keys_lanes(
        &self,
        ks: KeySpace,
        q: &Rect<D>,
        range: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        if q.is_empty() {
            out.resize(out.len() + range.len(), f64::INFINITY);
            return;
        }
        let base = out.len();
        out.resize(out.len() + range.len(), 0.0);
        let acc = &mut out[base..];
        for a in 0..D {
            let lo = &self.lo[a][range.clone()];
            let hi = &self.hi[a][range.clone()];
            let (qlo, qhi) = (q.lo()[a], q.hi()[a]);
            accumulate_axis_lanes(ks, acc, lo, hi, |l, h| (h - qlo).abs().max((qhi - l).abs()));
        }
        finish_axis(ks, acc);
    }

    /// MINMAXDIST keys between minimal bounding rectangle `q` and the
    /// rectangles in `range`, appended to `out`. The per-element minimum over
    /// candidate axes keeps a running best, so later candidates exit early
    /// once they cannot improve it; the min commutes with the monotone key
    /// map, so results still match the scalar bound exactly.
    pub fn minmaxdist_keys(
        &self,
        ks: KeySpace,
        q: &Rect<D>,
        range: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        for i in range {
            out.push(ks.minmaxdist_rect_rect(q, &self.get(i)));
        }
    }

    /// MINDIST keys between point `p` and the rectangles in `range`,
    /// appended to `out`.
    pub fn point_mindist_keys(
        &self,
        ks: KeySpace,
        p: &Point<D>,
        range: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        let base = out.len();
        out.resize(out.len() + range.len(), 0.0);
        let acc = &mut out[base..];
        for a in 0..D {
            let lo = &self.lo[a][range.clone()];
            let hi = &self.hi[a][range.clone()];
            let c = p.coord(a);
            accumulate_axis(ks, acc, lo, hi, |l, h| axis_gap(c, c, l, h));
        }
        finish_axis(ks, acc);
    }

    /// For each rectangle `r_i` in `range`: the MINDIST key between `focus`
    /// and `r_i ∩ clip`, or `+inf` when the intersection is empty. This is
    /// the ordered-intersection join's key (see `sdj-core`'s `intersect`
    /// module) computed without materialising the intersection rectangle.
    pub fn focus_intersection_keys(
        &self,
        ks: KeySpace,
        clip: &Rect<D>,
        focus: &Point<D>,
        range: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        if clip.is_empty() {
            out.resize(out.len() + range.len(), f64::INFINITY);
            return;
        }
        let base = out.len();
        out.resize(out.len() + range.len(), 0.0);
        let acc = &mut out[base..];
        for a in 0..D {
            let lo = &self.lo[a][range.clone()];
            let hi = &self.hi[a][range.clone()];
            let (clo, chi) = (clip.lo()[a], clip.hi()[a]);
            let c = focus.coord(a);
            for (v, (&l, &h)) in acc.iter_mut().zip(lo.iter().zip(hi)) {
                let (ilo, ihi) = (l.max(clo), h.min(chi));
                if ilo > ihi {
                    *v = f64::INFINITY;
                } else {
                    *v = ks.metric().accumulate(*v, axis_gap(c, c, ilo, ihi));
                }
            }
        }
        finish_axis(ks, acc);
    }
}

/// Elements per lane group in the `*_keys_lanes` kernels: 4 × f64 matches a
/// 256-bit vector register, the widest unit commonly available without
/// nightly `std::simd`.
pub const LANE_WIDTH: usize = 4;

/// [`accumulate_axis`] restructured into exact [`LANE_WIDTH`]-element
/// chunks: the lane body indexes fixed-size arrays (no slice bounds checks,
/// no iterator state), which is the explicit-SIMD shape stable Rust can
/// express. The per-element arithmetic is identical to the scalar pass, so
/// both produce the same bits; only the loop structure differs.
#[inline]
fn accumulate_axis_lanes(
    ks: KeySpace,
    acc: &mut [f64],
    lo: &[f64],
    hi: &[f64],
    gap: impl Fn(f64, f64) -> f64,
) {
    let m = ks.metric();
    let (acc_lanes, acc_tail) = acc.as_chunks_mut::<LANE_WIDTH>();
    let (lo_lanes, lo_tail) = lo.as_chunks::<LANE_WIDTH>();
    let (hi_lanes, hi_tail) = hi.as_chunks::<LANE_WIDTH>();
    for (v, (l, h)) in acc_lanes.iter_mut().zip(lo_lanes.iter().zip(hi_lanes)) {
        for j in 0..LANE_WIDTH {
            v[j] = m.accumulate(v[j], gap(l[j], h[j]));
        }
    }
    for (v, (&l, &h)) in acc_tail.iter_mut().zip(lo_tail.iter().zip(hi_tail)) {
        *v = m.accumulate(*v, gap(l, h));
    }
}

/// One column pass: folds `gap(lo[i], hi[i])` into `acc[i]` under the
/// metric's accumulator. Kept free of branches on the element index so the
/// compiler can vectorize the loop.
#[inline]
fn accumulate_axis(
    ks: KeySpace,
    acc: &mut [f64],
    lo: &[f64],
    hi: &[f64],
    gap: impl Fn(f64, f64) -> f64,
) {
    let m = ks.metric();
    for (v, (&l, &h)) in acc.iter_mut().zip(lo.iter().zip(hi)) {
        *v = m.accumulate(*v, gap(l, h));
    }
}

/// Applies the key-domain finish to a whole column (identity in the squared
/// domain and for L1/L∞ — only the plain Euclidean A/B path pays sqrts here).
#[inline]
fn finish_axis(ks: KeySpace, acc: &mut [f64]) {
    for v in acc {
        *v = ks.finish_acc(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chessboard];

    fn batch() -> (SoaRects<2>, Vec<Rect<2>>) {
        let rects = vec![
            Rect::new([0.0, 0.0], [1.0, 1.0]),
            Rect::new([3.0, 4.0], [5.0, 6.0]),
            Rect::new([-2.0, -1.5], [-1.0, 0.5]),
            Rect::new([0.25, 0.25], [0.25, 0.25]),
        ];
        let mut soa = SoaRects::new();
        for r in &rects {
            soa.push(r);
        }
        (soa, rects)
    }

    #[test]
    fn extend_appends_like_push() {
        let (pushed, rects) = batch();
        let mut soa = SoaRects::new();
        soa.push(&rects[0]);
        soa.extend(rects[1..].iter());
        assert_eq!(soa.len(), pushed.len());
        for (i, r) in rects.iter().enumerate() {
            assert_eq!(soa.get(i), *r);
        }
        for a in 0..2 {
            assert_eq!(soa.lo_axis(a), pushed.lo_axis(a));
        }
        soa.clear();
        soa.extend(rects.iter());
        assert_eq!(soa.get(3), rects[3]);
    }

    #[test]
    fn batched_bounds_match_scalar_exactly() {
        let (soa, rects) = batch();
        let q = Rect::new([0.5, 0.5], [2.0, 2.5]);
        let p = Point::xy(1.5, -0.5);
        for m in METRICS {
            for ks in [KeySpace::squared(m), KeySpace::plain(m)] {
                let mut min = Vec::new();
                let mut max = Vec::new();
                let mut mm = Vec::new();
                let mut pmin = Vec::new();
                soa.mindist_keys(ks, &q, 0..soa.len(), &mut min);
                soa.maxdist_keys(ks, &q, 0..soa.len(), &mut max);
                soa.minmaxdist_keys(ks, &q, 0..soa.len(), &mut mm);
                soa.point_mindist_keys(ks, &p, 0..soa.len(), &mut pmin);
                for (i, r) in rects.iter().enumerate() {
                    assert_eq!(ks.to_distance(min[i]), m.mindist_rect_rect(&q, r));
                    assert_eq!(ks.to_distance(max[i]), m.maxdist_rect_rect(&q, r));
                    assert_eq!(ks.to_distance(mm[i]), m.minmaxdist_rect_rect(&q, r));
                    assert_eq!(ks.to_distance(pmin[i]), m.mindist_point_rect(&p, r));
                }
            }
        }
    }

    #[test]
    fn lane_kernels_match_column_kernels_bit_for_bit() {
        // Sizes straddling the lane width exercise both the exact-chunk body
        // and the scalar tail (0..=9 covers empty, sub-lane, exact multiples
        // and ragged tails).
        let q = Rect::new([0.5, 0.5], [2.0, 2.5]);
        for n in 0..=9usize {
            let mut soa = SoaRects::<2>::new();
            for i in 0..n {
                let x = (i as f64).mul_add(0.7, -1.3);
                let y = (i as f64).sin();
                soa.push(&Rect::new([x, y], [x + 0.4, y + 0.9]));
            }
            for m in METRICS {
                for ks in [KeySpace::squared(m), KeySpace::plain(m)] {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    soa.mindist_keys(ks, &q, 0..n, &mut a);
                    soa.mindist_keys_lanes(ks, &q, 0..n, &mut b);
                    assert_eq!(
                        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    );
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    soa.maxdist_keys(ks, &q, 0..n, &mut a);
                    soa.maxdist_keys_lanes(ks, &q, 0..n, &mut b);
                    assert_eq!(
                        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn lane_kernels_handle_empty_query() {
        let (soa, _) = batch();
        let ks = KeySpace::squared(Metric::Euclidean);
        let mut out = Vec::new();
        soa.mindist_keys_lanes(ks, &Rect::empty(), 0..soa.len(), &mut out);
        assert!(out.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn focus_intersection_matches_materialized_intersection() {
        let (soa, rects) = batch();
        let clip = Rect::new([-0.5, 0.0], [4.0, 5.0]);
        let focus = Point::xy(0.0, 3.0);
        for m in METRICS {
            let ks = KeySpace::squared(m);
            let mut keys = Vec::new();
            soa.focus_intersection_keys(ks, &clip, &focus, 0..soa.len(), &mut keys);
            for (i, r) in rects.iter().enumerate() {
                let int = r.intersection(&clip);
                let want = m.mindist_point_rect(&focus, &int);
                assert_eq!(ks.to_distance(keys[i]), want, "rect {i}");
            }
        }
    }

    #[test]
    fn subrange_keys_align_with_range_start() {
        let (soa, rects) = batch();
        let q = Rect::new([10.0, 10.0], [11.0, 11.0]);
        let ks = KeySpace::squared(Metric::Euclidean);
        let mut keys = Vec::new();
        soa.mindist_keys(ks, &q, 1..3, &mut keys);
        assert_eq!(keys.len(), 2);
        for (j, r) in rects[1..3].iter().enumerate() {
            assert_eq!(
                ks.to_distance(keys[j]),
                Metric::Euclidean.mindist_rect_rect(&q, r)
            );
        }
    }

    #[test]
    fn clear_keeps_capacity_and_appends_after_reuse() {
        let (mut soa, _) = batch();
        soa.clear();
        assert!(soa.is_empty());
        soa.push(&Rect::new([1.0, 1.0], [2.0, 2.0]));
        assert_eq!(soa.len(), 1);
        assert_eq!(soa.get(0), Rect::new([1.0, 1.0], [2.0, 2.0]));
        let mut out = vec![f64::NAN];
        let ks = KeySpace::plain(Metric::Manhattan);
        soa.mindist_keys(ks, &Rect::new([0.0, 0.0], [0.0, 0.0]), 0..1, &mut out);
        // Appends after existing content rather than clobbering it.
        assert!(out[0].is_nan());
        assert_eq!(out[1], 2.0);
    }
}
