//! The global coordinate table `X ∈ R^{d×N}` of Table 2, stored
//! column-major so each point's `d` coordinates are contiguous, together
//! with the precomputed squared 2-norms `X2(i) = ‖x_i‖²`. Generic over the
//! coordinate scalar ([`GsknnScalar`]) with `f64` as the default; the f32
//! kernel path consumes `PointSet<f32>` (usually produced by
//! [`PointSet::cast`] from an f64 generator).

use gsknn_scalar::GsknnScalar;

/// Column-major `d × N` point set with cached squared norms.
///
/// This is the "general stride" input of GSKNN: kernels receive a
/// `PointSet` plus index slices `q`/`r` naming which columns participate,
/// and gather-pack straight from here (§2.3 "Packing") instead of first
/// materializing dense `Q`/`R` matrices.
///
/// ```
/// use dataset::PointSet;
/// // two points in 3-d: (1,0,0) and (0,2,0)
/// let x = PointSet::from_vec(3, 2, vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
/// assert_eq!(x.point(1), &[0.0, 2.0, 0.0]);
/// assert_eq!(x.sqnorm(1), 4.0); // cached X2 table
/// ```
#[derive(Clone, Debug)]
pub struct PointSet<T: GsknnScalar = f64> {
    d: usize,
    n: usize,
    /// Point `j` occupies `data[j*d .. (j+1)*d]`.
    data: Vec<T>,
    /// `sqnorms[j] = ‖x_j‖²` — the `X2` table.
    sqnorms: Vec<T>,
}

impl<T: GsknnScalar> PointSet<T> {
    /// Wrap a column-major buffer (`data.len() == d * n`); computes `X2`.
    ///
    /// # Panics
    /// If the buffer length does not match, or any coordinate is non-finite
    /// (NaN/±∞ coordinates would poison every distance comparison, so they
    /// are rejected once here instead of being checked in the hot loops).
    pub fn from_vec(d: usize, n: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), d * n, "buffer is not d*n long");
        assert!(
            data.iter().all(|x| x.is_finite()),
            "non-finite coordinate in point set"
        );
        let sqnorms = (0..n)
            .map(|j| {
                data[j * d..(j + 1) * d]
                    .iter()
                    .fold(T::ZERO, |acc, &x| acc + x * x)
            })
            .collect();
        PointSet {
            d,
            n,
            data,
            sqnorms,
        }
    }

    /// Dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of points `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the set holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Coordinates of point `j` (`X(:, j)`).
    #[inline(always)]
    pub fn point(&self, j: usize) -> &[T] {
        &self.data[j * self.d..(j + 1) * self.d]
    }

    /// A `dc`-long slice of point `j` starting at coordinate `pc`
    /// (`X(pc:pc+dc-1, j)`) — what the 5th loop packs.
    #[inline(always)]
    pub fn point_slab(&self, j: usize, pc: usize, dc: usize) -> &[T] {
        debug_assert!(pc + dc <= self.d);
        &self.data[j * self.d + pc..j * self.d + pc + dc]
    }

    /// `X2(j) = ‖x_j‖²`.
    #[inline(always)]
    pub fn sqnorm(&self, j: usize) -> T {
        self.sqnorms[j]
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The full `X2` table.
    #[inline]
    pub fn sqnorms(&self) -> &[T] {
        &self.sqnorms
    }

    /// The raw column-major buffer and the `X2` table, by value — for a
    /// consumer that rewrites the coordinates in place.
    pub fn into_parts(self) -> (Vec<T>, Vec<T>) {
        (self.data, self.sqnorms)
    }

    /// Gather a dense column-major `d × idx.len()` matrix `X(:, idx)` —
    /// the explicit collection step of the GEMM approach (Algorithm 2.1),
    /// which GSKNN avoids.
    pub fn gather(&self, idx: &[usize]) -> Vec<T> {
        let mut out = Vec::with_capacity(self.d * idx.len());
        for &j in idx {
            out.extend_from_slice(self.point(j));
        }
        out
    }

    /// Append points (column-major, `coords.len()` a multiple of `d`),
    /// returning the id range they received. Existing ids are stable —
    /// the streaming all-NN maintainer relies on this (§1: "frequent
    /// updates of X").
    ///
    /// # Panics
    /// On a ragged buffer or non-finite coordinates.
    pub fn append(&mut self, coords: &[T]) -> std::ops::Range<usize> {
        assert!(self.d > 0, "cannot append to a 0-dimensional set");
        assert_eq!(
            coords.len() % self.d,
            0,
            "buffer is not a whole number of points"
        );
        assert!(
            coords.iter().all(|x| x.is_finite()),
            "non-finite coordinate in appended points"
        );
        let added = coords.len() / self.d;
        let start = self.n;
        self.data.extend_from_slice(coords);
        self.sqnorms.extend(
            coords
                .chunks_exact(self.d)
                .map(|p| p.iter().fold(T::ZERO, |acc, &x| acc + x * x)),
        );
        self.n += added;
        start..self.n
    }

    /// Append one point whose squared norm the caller already holds — a
    /// point copied out of another set, say, whose `X2` entry comes along
    /// instead of being folded again. `fill` writes the point's `d`
    /// coordinates. Returns the point's id.
    ///
    /// `sqnorm` must be the fold [`PointSet::append`] computes for those
    /// coordinates, and they must be finite: neither is checked (that
    /// would fold them again), and a wrong norm gives wrong distances.
    pub fn push_with_sqnorm(&mut self, sqnorm: T, fill: impl FnOnce(&mut [T])) -> usize {
        assert!(self.d > 0, "cannot append to a 0-dimensional set");
        let start = self.data.len();
        self.data.resize(start + self.d, T::ZERO);
        fill(&mut self.data[start..]);
        self.sqnorms.push(sqnorm);
        self.n += 1;
        self.n - 1
    }

    /// Drop all points but keep the dimension and the backing storage —
    /// observably identical to `from_vec(d, 0, Vec::new())`, except that
    /// a set cycled through a serving workspace stops allocating once it
    /// has seen its largest batch.
    pub fn clear(&mut self) {
        self.n = 0;
        self.data.clear();
        self.sqnorms.clear();
    }

    /// Append `n_points` points whose coordinates arrive as a stream of
    /// `f64` values (column-major, `n_points * d` of them), converting
    /// each to `T` — the wire-decode path lands coordinates here straight
    /// out of the request frame without an intermediate `Vec`. Returns
    /// the id range the points received.
    ///
    /// # Panics
    /// If the stream does not yield exactly `n_points * d` values, or any
    /// converted coordinate is non-finite in `T` (callers validating at a
    /// wider precision must also reject values that overflow `T`).
    pub fn append_from_f64(
        &mut self,
        n_points: usize,
        coords: impl Iterator<Item = f64>,
    ) -> std::ops::Range<usize> {
        assert!(self.d > 0, "cannot append to a 0-dimensional set");
        let start = self.n;
        let want = n_points * self.d;
        self.data.reserve(want);
        self.sqnorms.reserve(n_points);
        let mut got = 0usize;
        let mut acc = T::ZERO;
        for wide in coords.take(want) {
            let x = T::from_f64(wide);
            assert!(x.is_finite(), "non-finite coordinate in appended points");
            self.data.push(x);
            acc += x * x;
            got += 1;
            if got.is_multiple_of(self.d) {
                self.sqnorms.push(acc);
                acc = T::ZERO;
            }
        }
        assert_eq!(got, want, "coordinate stream is not n_points * d long");
        self.n += n_points;
        start..self.n
    }

    /// Convert every coordinate to another scalar type, recomputing the
    /// `X2` table in the target precision (so f32 kernels prune against
    /// f32-accurate norms rather than rounded f64 ones).
    pub fn cast<U: GsknnScalar>(&self) -> PointSet<U> {
        let data: Vec<U> = self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect();
        PointSet::from_vec(self.d, self.n, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqnorms_match_manual() {
        let ps = PointSet::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 0.0, -2.0]);
        assert_eq!(ps.sqnorm(0), 5.0);
        assert_eq!(ps.sqnorm(1), 25.0);
        assert_eq!(ps.sqnorm(2), 4.0);
    }

    #[test]
    fn point_views_are_columns() {
        let ps = PointSet::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(ps.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ps.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ps.point_slab(1, 1, 2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_collects_in_index_order() {
        let ps = PointSet::from_vec(2, 3, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        assert_eq!(ps.gather(&[2, 0]), vec![20.0, 21.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        PointSet::from_vec(1, 2, vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "buffer is not d*n long")]
    fn rejects_bad_shape() {
        PointSet::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_set_is_fine() {
        let ps = PointSet::<f64>::from_vec(4, 0, Vec::new());
        assert!(ps.is_empty());
        assert_eq!(ps.dim(), 4);
    }

    #[test]
    fn append_extends_ids_and_norms() {
        let mut ps = PointSet::from_vec(2, 1, vec![1.0, 2.0]);
        let range = ps.append(&[3.0, 4.0, 0.0, 1.0]);
        assert_eq!(range, 1..3);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps.point(0), &[1.0, 2.0]); // existing ids stable
        assert_eq!(ps.point(1), &[3.0, 4.0]);
        assert_eq!(ps.sqnorm(1), 25.0);
        assert_eq!(ps.sqnorm(2), 1.0);
    }

    #[test]
    fn push_with_sqnorm_matches_append() {
        let src = PointSet::from_vec(3, 2, vec![0.1, 0.2, 0.3, 1.5, -2.0, 0.7]);
        let mut pushed = PointSet::from_vec(3, 0, Vec::new());
        for j in [1, 0] {
            let id =
                pushed.push_with_sqnorm(src.sqnorm(j), |out| out.copy_from_slice(src.point(j)));
            assert_eq!(id, 1 - j);
        }
        let mut appended = PointSet::from_vec(3, 0, Vec::new());
        appended.append(src.point(1));
        appended.append(src.point(0));
        assert_eq!(pushed.as_slice(), appended.as_slice());
        assert_eq!(pushed.sqnorms(), appended.sqnorms());
    }

    #[test]
    fn clear_then_append_from_f64_matches_from_vec() {
        let mut ps = PointSet::from_vec(2, 2, vec![9.0, 9.0, 9.0, 9.0]);
        ps.clear();
        assert!(ps.is_empty());
        assert_eq!(ps.dim(), 2);
        let coords = [1.0f64, 2.0, 3.0, 4.0];
        let range = ps.append_from_f64(2, coords.iter().copied());
        assert_eq!(range, 0..2);
        let fresh = PointSet::<f64>::from_vec(2, 2, coords.to_vec());
        assert_eq!(ps.as_slice(), fresh.as_slice());
        assert_eq!(ps.sqnorms(), fresh.sqnorms());
        // and the f32 narrowing path
        let mut ps32 = PointSet::<f32>::from_vec(2, 0, Vec::new());
        ps32.append_from_f64(2, coords.iter().copied());
        let fresh32: PointSet<f32> = fresh.cast();
        assert_eq!(ps32.as_slice(), fresh32.as_slice());
        assert_eq!(ps32.sqnorms(), fresh32.sqnorms());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn append_from_f64_rejects_f32_overflow() {
        let mut ps = PointSet::<f32>::from_vec(1, 0, Vec::new());
        ps.append_from_f64(1, std::iter::once(1e300));
    }

    #[test]
    #[should_panic(expected = "not n_points * d long")]
    fn append_from_f64_rejects_short_stream() {
        let mut ps = PointSet::<f64>::from_vec(2, 0, Vec::new());
        ps.append_from_f64(2, [1.0, 2.0, 3.0].into_iter());
    }

    #[test]
    fn f32_point_set_and_cast() {
        let ps64 = PointSet::from_vec(2, 2, vec![0.5, 1.5, 2.0, 3.0]);
        let ps32: PointSet<f32> = ps64.cast();
        assert_eq!(ps32.dim(), 2);
        assert_eq!(ps32.point(1), &[2.0f32, 3.0]);
        // sqnorms recomputed in f32 (exact here: small halves)
        assert_eq!(ps32.sqnorm(0), 2.5f32);
        // and a direct f32 construction matches the cast
        let direct = PointSet::<f32>::from_vec(2, 2, vec![0.5, 1.5, 2.0, 3.0]);
        assert_eq!(direct.as_slice(), ps32.as_slice());
        assert_eq!(direct.sqnorms(), ps32.sqnorms());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn f32_rejects_nan_too() {
        PointSet::<f32>::from_vec(1, 2, vec![1.0, f32::NAN]);
    }

    #[test]
    #[should_panic(expected = "whole number of points")]
    fn append_rejects_ragged() {
        let mut ps = PointSet::from_vec(2, 1, vec![1.0, 2.0]);
        ps.append(&[3.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn append_rejects_nan() {
        let mut ps = PointSet::from_vec(1, 1, vec![1.0]);
        ps.append(&[f64::NAN]);
    }
}
