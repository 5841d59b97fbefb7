//! The lattice layout: §4.2's five exact-match fields as a scan index.
//!
//! The first [`LATTICE_BITS`] columns of a pair vector are the distances of
//! the numeric and categorical fields (age, sex, state, onset, outcome;
//! `dedup::distance`), and §4.2's rule makes each exactly 0 or 1. The other
//! columns are the Jaccard distances of the free-text fields. For a query
//! `x` and a resident `s` whose five fields form the bit pattern `p`,
//!
//! ```text
//! ‖x − s‖² = Σ_{d<5} (x_d − p_d)² + Σ_{d≥5} (x_d − s_d)²  ≥  F(x, p) := Σ_{d<5} (x_d − p_d)²
//! ```
//!
//! and for a query on the lattice `F` is `H`, the Hamming distance between
//! the two patterns. The bound holds for the kernel's float sum too, with
//! no slack: the kernel adds the squared differences in ascending column
//! order from `0.0`, so after column 4 its accumulator holds exactly the
//! float `F` computed the same way (`bits_floor`), and adding the
//! non-negative terms of columns 5–7 never rounds a sum below one of its
//! addends. Every resident of a bucket shares `p`, so the float `F` is one
//! number per bucket, and a bucket with `F > cutoff²` holds no resident the
//! hood can admit — not even on the id tie-break, which needs
//! `d² == cutoff²`.
//!
//! # The layout
//!
//! `LatticeIndex::build` stores a batch (a Voronoi cell, or the
//! positives) as at most 32 buckets, one per pattern present, in pattern
//! order; within a bucket, rows are in `(distance to the bucket's
//! reference point, id)` order. The reference point carries the pattern's
//! bits in columns 0–4 and the bucket's mean in the rest, so a resident's
//! distance to it is its distance in columns 5–7 alone.
//!
//! # The scan
//!
//! `LatticeIndex::scan` visits the buckets in increasing Hamming distance
//! from the query's pattern and stops at the first whose `F` exceeds the
//! running cutoff (for a query off the lattice `F` is not monotone in that
//! order, and the scan skips such a bucket instead of stopping). Inside a
//! bucket it runs [`crate::prune`]'s window around the reference point in
//! columns 5–7, with the cutoff `cutoff² − F`: a resident `s` the kernel
//! would put at `d² ≤ cutoff²` has a columns-5–7 distance of at most
//! `√(cutoff² − F)`, up to rounding. The rounding is the kernel's error on
//! a sum bounded by `cutoff²` (a few ulps of `cutoff²`, not of the
//! difference, which can be 0) plus the error of the subtraction, so the
//! window's cutoff is widened by [`PRUNE_SLACK_REL`]` · cutoff²` — nine
//! orders of magnitude above that error — before the window adds its own
//! slack on the linear distances ([`crate::prune::admissible_radius`]).
//! An equal key (a resident at exactly `cutoff²`) stays inside both bounds.

use crate::prune::{admissible_radius, offer_rows, walk_window, CellScanStats, PRUNE_SLACK_REL};
use crate::soa::VecBatch;
use crate::types::Neighborhood;
use crate::voronoi::{row_key, RowKey};

/// The columns §4.2 makes exactly 0 or 1: the numeric and categorical
/// fields' distances, first in every pair vector.
pub const LATTICE_BITS: usize = 5;

/// Patterns of [`LATTICE_BITS`] bits.
const PATTERNS: usize = 1 << LATTICE_BITS;

/// `bucket_of` entry of a pattern no row has.
const ABSENT: u8 = u8::MAX;

/// Every mask of [`LATTICE_BITS`] bits by popcount, then value: a query
/// with pattern `q` visits the bucket of `q ^ mask` in this order, which
/// is increasing Hamming distance.
const BY_WEIGHT: [u8; PATTERNS] = {
    let mut out = [0u8; PATTERNS];
    let mut next = 0;
    let mut weight = 0;
    while weight <= LATTICE_BITS as u32 {
        let mut mask = 0;
        while mask < PATTERNS {
            if (mask as u32).count_ones() == weight {
                out[next] = mask as u8;
                next += 1;
            }
            mask += 1;
        }
        weight += 1;
    }
    out
};

/// Is every one of `values` exactly 0 or 1? (A fold without early exit,
/// so a column of them compares in vector lanes.)
pub(crate) fn on_lattice(values: &[f64]) -> bool {
    values
        .iter()
        .fold(true, |ok, &x| ok & ((x == 0.0) | (x == 1.0)))
}

/// The bit pattern of `v`'s first [`LATTICE_BITS`] columns: bit `d` is set
/// where column `d` is 1.
fn pattern<const D: usize>(v: &[f64; D]) -> usize {
    (0..LATTICE_BITS.min(D)).fold(0, |p, d| p | (usize::from(v[d] == 1.0) << d))
}

/// `F(x, p)`: the kernel's accumulator after the bit columns, for a query
/// `x` and a resident whose bits are `reference`'s. The same operations in
/// the same order as [`simmetrics::soa::distances_to_point_range`], so it
/// is exactly the partial sum the kernel reaches for every such resident.
#[inline]
fn bits_floor<const D: usize>(x: &[f64; D], reference: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for d in 0..LATTICE_BITS {
        let diff = reference[d] - x[d];
        acc += diff * diff;
    }
    acc
}

/// Linear distance between `x` and `reference` in the columns after the
/// bits: the window's `d(s, c)` for a bucket.
#[inline]
fn tail_distance<const D: usize>(x: &[f64; D], reference: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for d in LATTICE_BITS..D {
        let diff = reference[d] - x[d];
        acc += diff * diff;
    }
    acc.sqrt()
}

/// The rows of one pattern: `start..end` of the batch.
#[derive(Debug, Clone)]
struct Bucket<const D: usize> {
    /// The pattern's bits in columns 0–4, the bucket's mean after them.
    reference: [f64; D],
    start: usize,
    end: usize,
}

/// A batch laid out on the lattice (see the module doc): where each
/// pattern's bucket starts and ends, its reference point, and each row's
/// linear distance to its bucket's reference point.
#[derive(Debug, Clone)]
pub(crate) struct LatticeIndex<const D: usize> {
    /// Index into `buckets` of each pattern, [`ABSENT`] when no row has it.
    bucket_of: [u8; PATTERNS],
    /// The buckets, in pattern order.
    buckets: Vec<Bucket<D>>,
    /// Per row, the linear distance to its bucket's reference point:
    /// ascending within each bucket.
    dists: Vec<f64>,
}

impl<const D: usize> LatticeIndex<D> {
    /// Lay `rows` of `batch` out on the lattice: returns them in
    /// `(pattern, distance to the bucket's reference point, id)` order —
    /// the order to gather them in — and the index of that gathered
    /// batch. Every row must be [`on_lattice`].
    pub(crate) fn build(batch: &VecBatch<D>, rows: &[usize]) -> (Vec<usize>, Self) {
        let n = rows.len();
        let cols: [&[f64]; D] = std::array::from_fn(|d| batch.col(d));
        let mut patterns = vec![0u8; n];
        let mut counts = [0usize; PATTERNS];
        let mut sums = [[0.0f64; D]; PATTERNS];
        for (pattern, &r) in patterns.iter_mut().zip(rows) {
            let p = (0..LATTICE_BITS).fold(0, |p, d| p | usize::from(cols[d][r] == 1.0) << d);
            *pattern = p as u8;
            counts[p] += 1;
            for d in LATTICE_BITS..D {
                sums[p][d] += cols[d][r];
            }
        }
        let mut bucket_of = [ABSENT; PATTERNS];
        let mut buckets: Vec<Bucket<D>> = Vec::new();
        for p in (0..PATTERNS).filter(|&p| counts[p] > 0) {
            let reference = std::array::from_fn(|d| match d {
                d if d < LATTICE_BITS => ((p >> d) & 1) as f64,
                d => sums[p][d] / counts[p] as f64,
            });
            let start = buckets.last().map_or(0, |b| b.end);
            bucket_of[p] = buckets.len() as u8;
            buckets.push(Bucket {
                reference,
                start,
                end: start + counts[p],
            });
        }
        // Each row's squared distance to its bucket's reference point. The
        // bits agree, so the kernel's sum would add zeros first: summing
        // the later columns alone, in order, gives the same bits.
        let mut references = [[0.0f64; D]; PATTERNS];
        for b in &buckets {
            references[pattern(&b.reference)] = b.reference;
        }
        let mut d2 = vec![0.0f64; n];
        for (k, (&r, &p)) in rows.iter().zip(&patterns).enumerate() {
            for d in LATTICE_BITS..D {
                let diff = cols[d][r] - references[p as usize][d];
                d2[k] += diff * diff;
            }
        }
        // Deal the rows into their buckets, then sort each bucket.
        let mut next: Vec<usize> = buckets.iter().map(|b| b.start).collect();
        let mut keys: Vec<RowKey> = vec![(0, 0, 0); n];
        for (k, (&r, &p)) in rows.iter().zip(&patterns).enumerate() {
            let slot = &mut next[bucket_of[p as usize] as usize];
            keys[*slot] = row_key(d2[k], batch.id(r), k);
            *slot += 1;
        }
        for b in &buckets {
            keys[b.start..b.end].sort_unstable();
        }
        let order = keys.iter().map(|&(_, _, k)| rows[k]).collect();
        let index = LatticeIndex {
            bucket_of,
            buckets,
            dists: keys.iter().map(|&(_, _, k)| d2[k].sqrt()).collect(),
        };
        (order, index)
    }

    /// Scan `batch` — the rows this index was built over — into `hood`,
    /// bucket by bucket in increasing Hamming distance, each bucket
    /// windowed (see the module doc). `initial_cutoff_sq` and the result
    /// mean what they do for [`crate::prune::scan_cell_pruned`]: the hood
    /// is bit-identical to offering every row, every row is evaluated or
    /// bound-rejected, and `min_sq` is the smallest evaluated distance.
    pub(crate) fn scan(
        &self,
        batch: &VecBatch<D>,
        query: &[f64; D],
        initial_cutoff_sq: f64,
        hood: &mut Neighborhood,
        dists: &mut Vec<f64>,
    ) -> CellScanStats {
        let mut stats = CellScanStats::default();
        // On the lattice a bucket's floor is its Hamming distance, which
        // the visiting order makes non-decreasing: the first bucket past
        // the cutoff ends the scan. Off it, floors come in no order.
        let monotone = on_lattice(&query[..LATTICE_BITS]);
        let q = pattern(query);
        for &mask in &BY_WEIGHT {
            let b = self.bucket_of[q ^ mask as usize];
            if b == ABSENT {
                continue;
            }
            let bucket = &self.buckets[b as usize];
            let floor = bits_floor(query, &bucket.reference);
            if floor > initial_cutoff_sq.min(hood.kth_distance_sq()) {
                if monotone {
                    break;
                }
                continue;
            }
            let ds = tail_distance(query, &bucket.reference);
            let scanned = walk_window(
                &self.dists[bucket.start..bucket.end],
                ds,
                initial_cutoff_sq,
                hood,
                |cutoff| {
                    if floor > cutoff {
                        f64::NEG_INFINITY
                    } else {
                        admissible_radius(ds, cutoff - floor + PRUNE_SLACK_REL * cutoff)
                    }
                },
                |start, end, hood| {
                    offer_rows(
                        batch,
                        query,
                        bucket.start + start,
                        bucket.start + end,
                        hood,
                        dists,
                    )
                },
            );
            stats.evaluated += scanned.evaluated;
            stats.min_sq = stats.min_sq.min(scanned.min_sq);
        }
        stats.bound_rejected = batch.len() as u64 - stats.evaluated;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmetrics::squared_euclidean_fixed;

    #[test]
    fn masks_come_in_hamming_order_and_cover_every_pattern() {
        let weights: Vec<u32> = BY_WEIGHT.iter().map(|m| m.count_ones()).collect();
        assert!(weights.windows(2).all(|w| w[0] <= w[1]));
        let mut seen = BY_WEIGHT.to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..PATTERNS as u8).collect::<Vec<_>>());
    }

    #[test]
    fn build_groups_by_pattern_and_sorts_each_bucket() {
        let mut batch = VecBatch::<8>::new();
        let rows = [
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 1.0],
        ];
        for (id, row) in rows.iter().enumerate() {
            batch.push(10 - id as u64, row, false);
        }
        let (order, index) = LatticeIndex::build(&batch, &(0..5).collect::<Vec<_>>());
        let batch = batch.gather(&order);
        assert_eq!(index.buckets.len(), 2);
        assert_eq!(index.bucket_of[0], 0);
        assert_eq!(index.bucket_of[0b10001], 1);
        for b in &index.buckets {
            for r in b.start..b.end {
                let row = batch.row(r);
                assert_eq!(row[..LATTICE_BITS], b.reference[..LATTICE_BITS]);
                let want = squared_euclidean_fixed(&row, &b.reference).sqrt();
                assert_eq!(index.dists[r].to_bits(), want.to_bits());
            }
            for r in b.start..b.end - 1 {
                let (d, e) = (index.dists[r], index.dists[r + 1]);
                assert!(d < e || (d == e && batch.id(r) < batch.id(r + 1)));
            }
        }
        // The bucket of 0b10001 holds three rows around their mean.
        assert_eq!(index.buckets[1].reference[6], 1.0 / 3.0);
        assert_eq!(
            batch.id(2),
            6,
            "two rows tie on distance: the smaller id first"
        );
    }

    #[test]
    fn the_floor_is_the_kernels_partial_sum() {
        let x = [0.3, 1.0, 0.0, 0.7, 1.0, 0.2, 0.9, 0.4];
        let s = [1.0, 1.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.0];
        let floor = bits_floor(&x, &s);
        let mut acc = 0.0;
        for d in 0..LATTICE_BITS {
            acc += (s[d] - x[d]) * (s[d] - x[d]);
        }
        assert_eq!(floor.to_bits(), acc.to_bits());
        assert!(floor <= squared_euclidean_fixed(&x, &s));
        assert!(!on_lattice(&x[..LATTICE_BITS]));
        assert_eq!(
            bits_floor(&s, &[0.0; 8]),
            2.0,
            "on the lattice: the Hamming distance"
        );
    }
}
