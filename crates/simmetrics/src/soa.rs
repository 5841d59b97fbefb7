//! Struct-of-arrays vector batches and tiled, autovectorizing distance
//! kernels.
//!
//! The per-pair kernels in [`crate::vector`] walk one `[f64; D]` row at a
//! time: the D-step accumulation is a serial dependency chain, so the CPU's
//! SIMD lanes sit idle and every row costs a full add-latency ladder. The
//! batch kernels here flip the layout: a [`VecBatch`] stores each of the D
//! dimensions as one contiguous column, and the kernels iterate *points*
//! in the inner loop — every point carries an independent accumulator, so
//! LLVM autovectorizes the loop across points without any reassociation
//! (and therefore without `-ffast-math`, `unsafe`, or intrinsics).
//!
//! **Bit-identity.** Each point's squared distance is still accumulated in
//! ascending-dimension order, exactly like
//! [`squared_euclidean_fixed`](crate::squared_euclidean_fixed); only the
//! loop *nesting* changes, never the per-result operation order. Every
//! kernel here is therefore bit-for-bit interchangeable with its scalar
//! counterpart — the property the kNN total order `(distance², id)` and the
//! seeded k-means digests rely on, pinned by this module's proptests.
//!
//! **Tiling.** The block kernel, [`assign_min`], tiles twice. Points are
//! walked in [`TILE_COLS`]-wide column tiles (8 columns × 256 points × 8 B
//! = 16 KiB — L1-resident), so each point tile is re-streamed from L1 rather
//! than from memory. Centres are register-blocked [`TILE_ROWS`] at a
//! time: every column load is reused for all [`TILE_ROWS`] accumulators,
//! and because the per-centre dimension chains are mutually independent they
//! pipeline through the FP units instead of stalling on add latency — the
//! same register-tiling that dense linear-algebra kernels use.

/// Points per column tile: `D × TILE_COLS × 8 B` of column data ≈ 16 KiB
/// for the 8-dimensional pair space — comfortably inside a 32 KiB L1d
/// alongside the accumulator tile.
pub const TILE_COLS: usize = 256;

/// Centres per register block of [`assign_min`]: one column
/// load feeds `TILE_ROWS` independent accumulator chains, hiding FP-add
/// latency while keeping the accumulators (`TILE_ROWS` vector registers
/// once the point loop vectorizes) within the register file.
pub const TILE_ROWS: usize = 8;

/// A batch of fixed-arity vectors in struct-of-arrays layout: dimension `d`
/// of every vector lives in the contiguous column `col(d)`, with the
/// caller's id and label carried in parallel arrays.
///
/// Rows are append-only and keep insertion order; [`VecBatch::row`]
/// reassembles the array-of-structs view on demand, and the AoS → SoA → AoS
/// round trip is lossless (bit-for-bit, ids and labels included).
#[derive(Debug, Clone, PartialEq)]
pub struct VecBatch<const D: usize> {
    ids: Vec<u64>,
    labels: Vec<bool>,
    cols: Vec<Vec<f64>>,
}

impl<const D: usize> Default for VecBatch<D> {
    /// Same as [`VecBatch::new`] — a derived `Default` would construct zero
    /// columns instead of `D` empty ones.
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> VecBatch<D> {
    /// Empty batch.
    pub fn new() -> Self {
        VecBatch {
            ids: Vec::new(),
            labels: Vec::new(),
            cols: (0..D).map(|_| Vec::new()).collect(),
        }
    }

    /// Empty batch with row capacity `n` in every column.
    pub fn with_capacity(n: usize) -> Self {
        VecBatch {
            ids: Vec::with_capacity(n),
            labels: Vec::with_capacity(n),
            cols: (0..D).map(|_| Vec::with_capacity(n)).collect(),
        }
    }

    /// Batch of plain vectors: ids are the row indices, labels all `false`.
    pub fn from_rows(rows: &[[f64; D]]) -> Self {
        let mut batch = Self::with_capacity(rows.len());
        for (i, r) in rows.iter().enumerate() {
            batch.push(i as u64, r, false);
        }
        batch
    }

    /// Batch of the given columns: row `i` is `ids[i]`, `labels[i]` and
    /// `cols[d][i]` for every dimension `d`.
    ///
    /// # Panics
    /// Panics unless every column is as long as `ids`, and `labels` too.
    pub fn from_columns(ids: Vec<u64>, labels: Vec<bool>, cols: [Vec<f64>; D]) -> Self {
        let n = ids.len();
        assert!(
            labels.len() == n && cols.iter().all(|c| c.len() == n),
            "every column of a batch holds one value per row"
        );
        VecBatch {
            ids,
            labels,
            cols: cols.into(),
        }
    }

    /// Append one row.
    pub fn push(&mut self, id: u64, vector: &[f64; D], label: bool) {
        self.ids.push(id);
        self.labels.push(label);
        for (col, &x) in self.cols.iter_mut().zip(vector.iter()) {
            col.push(x);
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Column `d` (one value per row).
    #[inline]
    pub fn col(&self, d: usize) -> &[f64] {
        &self.cols[d]
    }

    /// Row ids, in insertion order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Row labels, in insertion order.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Id of row `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Label of row `i`.
    #[inline]
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Reassemble row `i` as an array-of-structs vector.
    #[inline]
    pub fn row(&self, i: usize) -> [f64; D] {
        std::array::from_fn(|d| self.cols[d][i])
    }

    /// Mutable row ids — for renumbering a concatenated batch in place
    /// (the duplicate-detection pipeline reindexes pair rows 0..n before
    /// classification).
    pub fn ids_mut(&mut self) -> &mut [u64] {
        &mut self.ids
    }

    /// Append every row of `other`, column-wise, preserving order — the
    /// driver-side concatenation for per-partition batches coming back from
    /// the engine.
    pub fn append(&mut self, other: &Self) {
        self.ids.extend_from_slice(&other.ids);
        self.labels.extend_from_slice(&other.labels);
        for (c, oc) in self.cols.iter_mut().zip(&other.cols) {
            c.extend_from_slice(oc);
        }
    }

    /// New batch holding rows `idx[0], idx[1], …` of `self`, in that order
    /// (a permutation gather; indices may also repeat or skip rows).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather(&self, idx: &[usize]) -> Self {
        let mut out = Self::with_capacity(idx.len());
        out.ids.extend(idx.iter().map(|&i| self.ids[i]));
        out.labels.extend(idx.iter().map(|&i| self.labels[i]));
        for (oc, c) in out.cols.iter_mut().zip(&self.cols) {
            oc.extend(idx.iter().map(|&i| c[i]));
        }
        out
    }

    /// Split off the rows from `at` onward into a new batch (cf.
    /// [`Vec::split_off`]).
    pub fn split_off(&mut self, at: usize) -> Self {
        VecBatch {
            ids: self.ids.split_off(at),
            labels: self.labels.split_off(at),
            cols: self.cols.iter_mut().map(|c| c.split_off(at)).collect(),
        }
    }

    /// Serialize the batch **column-wise**: row count, then ids, then
    /// labels, then each of the `D` columns contiguously — the SoA layout
    /// on disk, no re-rowifying. `f64` values travel as raw bits, so the
    /// encode → decode round trip is bit-exact (NaN payloads and signed
    /// zeros included). This is the out-of-core spill format.
    pub fn encode_columns(&self, out: &mut Vec<u8>) {
        let n = self.len();
        out.reserve(8 + n * (8 + 1 + D * 8));
        out.extend_from_slice(&(n as u64).to_le_bytes());
        for &id in &self.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        for &l in &self.labels {
            out.push(l as u8);
        }
        for col in &self.cols {
            for &x in col {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }

    /// Rebuild a batch serialized by [`VecBatch::encode_columns`] from the
    /// front of `bytes` and advance `bytes` past it: the row count fixes the
    /// span, so encodings can be laid end to end. Returns `None`, leaving
    /// `bytes` where it was, when fewer bytes remain than the encoded row
    /// count needs (truncated or garbled input).
    pub fn decode_columns<'a>(cursor: &mut &'a [u8]) -> Option<Self> {
        let all: &'a [u8] = cursor;
        let n = u64::from_le_bytes(all.get(..8)?.try_into().ok()?) as usize;
        let span = n.checked_mul(8 + 1 + D * 8)?.checked_add(8)?;
        if all.len() < span {
            return None;
        }
        let (bytes, rest) = all.split_at(span);
        *cursor = rest;
        let mut at = 8;
        let ids: Vec<u64> = bytes[at..at + n * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        at += n * 8;
        let labels: Vec<bool> = bytes[at..at + n].iter().map(|&b| b != 0).collect();
        at += n;
        let cols: Vec<Vec<f64>> = (0..D)
            .map(|_| {
                let col = bytes[at..at + n * 8]
                    .chunks_exact(8)
                    .map(|c| {
                        f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    })
                    .collect();
                at += n * 8;
                col
            })
            .collect();
        Some(VecBatch { ids, labels, cols })
    }

    /// Copy the rows into contiguous chunks of at most `chunk_len` rows
    /// (the last chunk may be shorter), preserving order — the driver-side
    /// splitter for handing each engine partition one contiguous batch.
    pub fn chunk_rows(&self, chunk_len: usize) -> Vec<Self> {
        assert!(chunk_len > 0, "chunk length must be positive");
        let mut out = Vec::with_capacity(self.len().div_ceil(chunk_len));
        let mut start = 0;
        while start < self.len() {
            let end = (start + chunk_len).min(self.len());
            let mut chunk = Self::with_capacity(end - start);
            chunk.ids.extend_from_slice(&self.ids[start..end]);
            chunk.labels.extend_from_slice(&self.labels[start..end]);
            for (cc, c) in chunk.cols.iter_mut().zip(&self.cols) {
                cc.extend_from_slice(&c[start..end]);
            }
            out.push(chunk);
            start = end;
        }
        out
    }
}

/// Squared Euclidean distances from every row of `points` to the single
/// query `q`, written to `out` (resized to `points.len()`).
///
/// 1×N kernel: the point loop vectorizes (each lane owns one point's
/// accumulator) and the fully-unrolled dimension loop keeps that
/// accumulator in a register instead of round-tripping it through memory
/// once per dimension. Per point the accumulation order is
/// ascending-dimension: bit-identical to
/// [`squared_euclidean_fixed`](crate::squared_euclidean_fixed).
pub fn distances_to_point<const D: usize>(points: &VecBatch<D>, q: &[f64; D], out: &mut Vec<f64>) {
    distances_to_point_range(points, q, 0, points.len(), out);
}

/// [`distances_to_point`] restricted to rows `start..end`: `out` is resized
/// to `end - start` and `out[i]` is the squared distance from row
/// `start + i` to `q`.
///
/// Same per-row ascending-dimension accumulation as the full kernel, so the
/// value computed for a row is **position-independent** — bit-identical to
/// what the full kernel would produce at that row. This is what lets the
/// pruning engine evaluate only the admissible window of a sorted Voronoi
/// cell without perturbing kNN results.
pub fn distances_to_point_range<const D: usize>(
    points: &VecBatch<D>,
    q: &[f64; D],
    start: usize,
    end: usize,
    out: &mut Vec<f64>,
) {
    debug_assert!(start <= end && end <= points.len());
    out.clear();
    out.resize(end - start, 0.0);
    let cols: [&[f64]; D] = std::array::from_fn(|d| &points.col(d)[start..end]);
    for (i, acc) in out.iter_mut().enumerate() {
        let mut a = 0.0;
        for (col, &qd) in cols.iter().zip(q.iter()) {
            let diff = col[i] - qd;
            a += diff * diff;
        }
        *acc = a;
    }
}

/// Fused centre assignment: for every row of `points`, the index and
/// squared distance of its nearest centre (first index wins ties, strict
/// `<` — the exact semantics of `mlcore::kmeans::nearest_centroid`).
///
/// Works one [`TILE_COLS`] point tile at a time with the centres
/// register-blocked [`TILE_ROWS`] at a time: within a point tile each
/// column load feeds [`TILE_ROWS`] independent accumulator chains, the
/// block's distances fold into the running best with branchless selects in
/// ascending centre order, and no M×N distance matrix is ever
/// materialised. With no centres every row reports index 0 at distance
/// `+∞`, matching the scalar fallback.
pub fn assign_min<const D: usize>(
    points: &VecBatch<D>,
    centers: &[[f64; D]],
    out_idx: &mut Vec<u32>,
    out_d2: &mut Vec<f64>,
) {
    let n = points.len();
    out_idx.clear();
    out_idx.resize(n, 0);
    out_d2.clear();
    out_d2.resize(n, f64::INFINITY);
    let cols: [&[f64]; D] = std::array::from_fn(|d| &points.col(d)[..n]);
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + TILE_COLS).min(n);
        let mut c0 = 0;
        while c0 + TILE_ROWS <= centers.len() {
            let cb = &centers[c0..c0 + TILE_ROWS];
            for i in t0..t1 {
                let mut acc = [0.0f64; TILE_ROWS];
                for (d, col) in cols.iter().enumerate() {
                    let x = col[i];
                    for (a, cr) in acc.iter_mut().zip(cb) {
                        let diff = x - cr[d];
                        *a += diff * diff;
                    }
                }
                // Branchless ascending fold — first strict minimum wins,
                // exactly the scalar scan order.
                let mut best_d = out_d2[i];
                let mut best_i = out_idx[i];
                for (q, &a) in acc.iter().enumerate() {
                    let better = a < best_d;
                    best_d = if better { a } else { best_d };
                    best_i = if better { (c0 + q) as u32 } else { best_i };
                }
                out_d2[i] = best_d;
                out_idx[i] = best_i;
            }
            c0 += TILE_ROWS;
        }
        // Remainder centres (fewer than a register block): one each.
        for (ci, c) in centers.iter().enumerate().skip(c0) {
            for i in t0..t1 {
                let mut a = 0.0;
                for (col, &qd) in cols.iter().zip(c.iter()) {
                    let diff = col[i] - qd;
                    a += diff * diff;
                }
                if a < out_d2[i] {
                    out_d2[i] = a;
                    out_idx[i] = ci as u32;
                }
            }
        }
        t0 = t1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squared_euclidean_fixed;
    use proptest::prelude::*;

    fn rows(n: usize, seed: u64) -> Vec<[f64; 8]> {
        // Cheap deterministic pseudo-data with exercised mantissa bits.
        (0..n)
            .map(|i| {
                std::array::from_fn(|d| {
                    let x = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(seed + d as u64);
                    (x % 10_000) as f64 / 997.0
                })
            })
            .collect()
    }

    #[test]
    fn round_trip_aos_soa_aos_is_lossless() {
        let data = rows(100, 3);
        let mut batch = VecBatch::<8>::with_capacity(data.len());
        for (i, r) in data.iter().enumerate() {
            batch.push(1000 + i as u64, r, i % 3 == 0);
        }
        assert_eq!(batch.len(), data.len());
        for (i, r) in data.iter().enumerate() {
            assert_eq!(&batch.row(i), r, "row {i}");
            assert_eq!(batch.id(i), 1000 + i as u64);
            assert_eq!(batch.label(i), i % 3 == 0);
        }
    }

    /// The sizes the tiled loops must get right: empty, single, and every
    /// tile boundary (tile−1, tile, tile+1) for both the column and the row
    /// tiling.
    fn boundary_sizes() -> Vec<usize> {
        vec![
            0,
            1,
            TILE_ROWS - 1,
            TILE_ROWS,
            TILE_ROWS + 1,
            TILE_COLS - 1,
            TILE_COLS,
            TILE_COLS + 1,
        ]
    }

    #[test]
    fn distances_to_point_matches_scalar_at_tile_boundaries() {
        let q = rows(1, 9)[0];
        let mut out = Vec::new();
        for n in boundary_sizes() {
            let data = rows(n, 17);
            let batch = VecBatch::<8>::from_rows(&data);
            distances_to_point(&batch, &q, &mut out);
            assert_eq!(out.len(), n);
            for (i, r) in data.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    squared_euclidean_fixed(r, &q).to_bits(),
                    "row {i} of {n}"
                );
            }
        }
    }

    #[test]
    fn assign_min_matches_scalar_at_tile_boundaries() {
        let centers: Vec<[f64; 8]> = rows(13, 41);
        let mut idx = Vec::new();
        let mut d2 = Vec::new();
        for n in boundary_sizes() {
            let data = rows(n, 29);
            let batch = VecBatch::<8>::from_rows(&data);
            assign_min(&batch, &centers, &mut idx, &mut d2);
            assert_eq!(idx.len(), n);
            for (i, p) in data.iter().enumerate() {
                // Reference: first strict minimum, like nearest_centroid.
                let mut best = (0usize, f64::INFINITY);
                for (ci, c) in centers.iter().enumerate() {
                    let d = squared_euclidean_fixed(p, c);
                    if d < best.1 {
                        best = (ci, d);
                    }
                }
                assert_eq!(idx[i] as usize, best.0, "row {i} of {n}");
                assert_eq!(d2[i].to_bits(), best.1.to_bits(), "row {i} of {n}");
            }
        }
    }

    #[test]
    fn assign_min_without_centers_reports_infinity() {
        let batch = VecBatch::<8>::from_rows(&rows(5, 1));
        let (mut idx, mut d2) = (Vec::new(), Vec::new());
        assign_min(&batch, &[], &mut idx, &mut d2);
        assert_eq!(idx, vec![0; 5]);
        assert!(d2.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn split_off_and_chunk_rows_preserve_rows() {
        let data = rows(10, 7);
        let mut batch = VecBatch::<8>::from_rows(&data);
        let tail = batch.split_off(6);
        assert_eq!(batch.len(), 6);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.row(0), data[6]);
        assert_eq!(tail.id(0), 6);

        let whole = VecBatch::<8>::from_rows(&data);
        let chunks = whole.chunk_rows(4);
        assert_eq!(chunks.iter().map(VecBatch::len).sum::<usize>(), 10);
        assert_eq!(chunks.len(), 3);
        let mut i = 0;
        for chunk in &chunks {
            for r in 0..chunk.len() {
                assert_eq!(chunk.row(r), data[i]);
                assert_eq!(chunk.id(r), i as u64);
                i += 1;
            }
        }
    }

    #[test]
    fn append_concatenates_column_wise() {
        let data = rows(10, 11);
        let mut a = VecBatch::<8>::from_rows(&data[..6]);
        let b = VecBatch::<8>::from_rows(&data[6..]);
        a.append(&b);
        assert_eq!(a.len(), 10);
        for (i, r) in data.iter().enumerate() {
            assert_eq!(a.row(i), *r, "row {i}");
        }
        // from_rows numbers each source batch from zero; renumber globally.
        for (i, id) in a.ids_mut().iter_mut().enumerate() {
            *id = i as u64;
        }
        assert_eq!(a.ids(), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn column_codec_round_trips_bit_exactly() {
        let mut batch = VecBatch::<3>::new();
        batch.push(7, &[f64::NAN, -0.0, 1.0 / 3.0], true);
        batch.push(u64::MAX, &[f64::INFINITY, f64::MIN_POSITIVE, -2.5], false);
        let mut bytes = Vec::new();
        batch.encode_columns(&mut bytes);
        assert_eq!(bytes.len(), 8 + 2 * (8 + 1 + 3 * 8));
        // Two encodings end to end: each decode consumes exactly its own.
        let one = bytes.len();
        batch.encode_columns(&mut bytes);
        let mut cursor = &bytes[..];
        let back = VecBatch::<3>::decode_columns(&mut cursor).expect("well-formed");
        assert_eq!(cursor.len(), one);
        VecBatch::<3>::decode_columns(&mut cursor).expect("the second one");
        assert!(cursor.is_empty());
        bytes.truncate(one);
        assert_eq!(back.ids(), batch.ids());
        assert_eq!(back.labels(), batch.labels());
        for d in 0..3 {
            let bits: Vec<u64> = back.col(d).iter().map(|x| x.to_bits()).collect();
            let expect: Vec<u64> = batch.col(d).iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, expect, "column {d} must survive bit-exactly");
        }
        // Truncation, arity mismatch and a row count whose span overflows
        // refuse to decode, and consume nothing.
        let mut cut = &bytes[..bytes.len() - 1];
        assert!(VecBatch::<3>::decode_columns(&mut cut).is_none());
        assert_eq!(cut.len(), bytes.len() - 1);
        assert!(VecBatch::<4>::decode_columns(&mut &bytes[..]).is_none());
        let huge = u64::MAX.to_le_bytes();
        assert!(VecBatch::<3>::decode_columns(&mut &huge[..]).is_none());
        // Empty batch round-trips too.
        let mut empty_bytes = Vec::new();
        VecBatch::<3>::new().encode_columns(&mut empty_bytes);
        assert_eq!(
            VecBatch::<3>::decode_columns(&mut &empty_bytes[..])
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn gather_permutes_repeats_and_skips() {
        let data = rows(5, 13);
        let mut batch = VecBatch::<8>::with_capacity(5);
        for (i, r) in data.iter().enumerate() {
            batch.push(100 + i as u64, r, i % 2 == 0);
        }
        let picked = batch.gather(&[4, 0, 0, 2]);
        assert_eq!(picked.len(), 4);
        assert_eq!(picked.row(0), data[4]);
        assert_eq!(picked.row(1), data[0]);
        assert_eq!(picked.row(2), data[0]);
        assert_eq!(picked.row(3), data[2]);
        assert_eq!(picked.ids(), &[104, 100, 100, 102]);
        assert_eq!(picked.labels(), &[true, true, true, true]);
    }

    proptest! {
        /// Every kernel is bit-identical to the scalar per-pair path on
        /// arbitrary shapes — the contract the kNN total order rests on.
        #[test]
        fn kernels_are_bit_identical_to_scalar(
            seed in 0u64..10_000,
            n_pts in 0usize..600,
            n_qs in 0usize..12,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<[f64; 4]> = (0..n_pts)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-100.0..100.0)))
                .collect();
            let qs: Vec<[f64; 4]> = (0..n_qs)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-100.0..100.0)))
                .collect();
            let points = VecBatch::<4>::from_rows(&pts);
            let mut row = Vec::new();
            for q in &qs {
                distances_to_point(&points, q, &mut row);
                for (c, p) in pts.iter().enumerate() {
                    prop_assert_eq!(row[c].to_bits(), squared_euclidean_fixed(q, p).to_bits());
                }
            }
            let (mut idx, mut d2) = (Vec::new(), Vec::new());
            assign_min(&points, &qs, &mut idx, &mut d2);
            for (i, p) in pts.iter().enumerate() {
                let mut best = (0usize, f64::INFINITY);
                for (ci, c) in qs.iter().enumerate() {
                    let d = squared_euclidean_fixed(p, c);
                    if d < best.1 {
                        best = (ci, d);
                    }
                }
                prop_assert_eq!(idx[i] as usize, best.0);
                prop_assert_eq!(d2[i].to_bits(), best.1.to_bits());
            }
        }

        /// The ranged kernel is bit-identical to the corresponding window of
        /// the full kernel for every sub-range — what makes windowed pruning
        /// scans lossless.
        #[test]
        fn ranged_kernel_matches_full_kernel_windows(
            seed in 0u64..10_000,
            n_pts in 0usize..80,
            bounds in (0usize..81, 0usize..81),
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<[f64; 4]> = (0..n_pts)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-100.0..100.0)))
                .collect();
            let q: [f64; 4] = std::array::from_fn(|_| rng.gen_range(-100.0..100.0));
            let points = VecBatch::<4>::from_rows(&pts);
            let (lo, hi) = (bounds.0.min(n_pts), bounds.1.min(n_pts));
            let (start, end) = (lo.min(hi), lo.max(hi));
            let mut full = Vec::new();
            distances_to_point(&points, &q, &mut full);
            let mut window = Vec::new();
            distances_to_point_range(&points, &q, start, end, &mut window);
            prop_assert_eq!(window.len(), end - start);
            for (i, w) in window.iter().enumerate() {
                prop_assert_eq!(w.to_bits(), full[start + i].to_bits());
            }
        }
    }
}
