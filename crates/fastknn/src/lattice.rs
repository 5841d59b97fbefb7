//! The lattice layout: §4.2's pair vectors as a trie the kernel's own
//! partial sums prune.
//!
//! The first [`LATTICE_BITS`] columns of a pair vector are the distances of
//! the numeric and categorical fields (age, sex, state, onset, outcome;
//! `dedup::distance`), and §4.2's rule makes each exactly 0 or 1. The other
//! columns are the Jaccard distances of the free-text fields: drug names and
//! ADR names over short token sets, which take a handful of values, then the
//! narrative, which takes many.
//!
//! # Floors are partial sums
//!
//! The kernel ([`simmetrics::soa::distances_to_point_range`]) computes
//! `‖x − s‖²` by adding `(s_d − x_d)²` in ascending column order from `0.0`.
//! Stop it after column `c` and its accumulator holds the *floor*
//!
//! ```text
//! F_c(x, s) = (…((0 + (s_0 − x_0)²) + (s_1 − x_1)²) + …) + (s_c − x_c)²
//! ```
//!
//! which depends only on `s`'s first `c + 1` columns. Every later step adds
//! a non-negative term, and rounding never takes a sum below one of its
//! addends, so the kernel's result is at least every one of its floors, as
//! floats, with no slack. A floor strictly above the running cutoff thus
//! rules out every resident sharing that prefix — even on the id tie-break,
//! which needs `d² == cutoff²`.
//!
//! # The layout
//!
//! `LatticeIndex::build` stores a batch (a Voronoi cell, or the positives)
//! as a trie over its columns in the kernel's order:
//!
//! * at most 32 **buckets**, one per bit pattern present, in pattern order;
//!   all rows of a bucket share the floor after the bits, `F_4`;
//! * below a bucket, one **level** per column after the bits except the
//!   last — columns 5 and 6 of a pair vector — each node one value of its
//!   column, the nodes under one parent sorted by value and their children
//!   contiguous;
//! * under each node of the deepest level its rows, in `(last column, id)`
//!   order, so the last column of a leaf is one contiguous, sorted run of
//!   the gathered batch.
//!
//! The rows come out in `(pattern, tail columns in total order, id)` order —
//! the order to gather them in.
//!
//! # The scan
//!
//! `LatticeIndex::scan` visits the buckets in increasing Hamming distance
//! from the query's pattern and stops at the first whose floor exceeds the
//! running cutoff (for a query off the lattice the floors are not monotone
//! in that order, and the scan skips such a bucket instead of stopping).
//! Inside a bucket it walks each level outward from the query's value,
//! nearest value first, carrying the floor `parent + (value − x)²` — the
//! kernel's very operations — and a leaf's rows outward from the query's
//! last value, where `floor + (s − x)²` *is* the kernel's distance. Along
//! one side of a walk the values move away from the query, so the floors
//! never fall: each side stops at its first floor strictly above the
//! running cutoff, and everything past it is further still. A row at
//! exactly the cutoff is offered, so the hood's id tie-break decides it as
//! it would in a full sweep.
//!
//! Counted as evaluated is every row whose distance was computed, the
//! boundary row that stops a walk included; the floors of nodes are not
//! distances and are not counted.
//!
//! # Non-finite values
//!
//! The argument needs every sum to be a number. A NaN in a resident's tail
//! makes its distance NaN for every query, which a hood orders by when it
//! was offered, not by key; such data is not laid out on the lattice at all
//! ([`crate::voronoi::VoronoiPartition`] checks, as it checks the bits).
//! Infinities and signed zeros in the data keep every floor a number and
//! every walk monotone. A query with a non-finite value can meet an
//! infinity in a resident (`∞ − ∞`) or carry a NaN: the scan then offers
//! every row in storage order, as a full sweep does.

use crate::prune::{offer_rows, CellScanStats};
use crate::soa::VecBatch;
use crate::types::Neighborhood;

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

/// Is none of `values` NaN? (A fold without early exit, like
/// [`on_lattice`].)
pub(crate) fn free_of_nan(values: &[f64]) -> bool {
    values.iter().fold(true, |ok, &x| ok & !x.is_nan())
}

/// The bit pattern of `v`'s first [`LATTICE_BITS`] columns: bit `d` is set
/// where column `d` is 1.
fn pattern<const D: usize>(v: &[f64; D]) -> usize {
    (0..LATTICE_BITS.min(D)).fold(0, |p, d| p | (usize::from(v[d] == 1.0) << d))
}

/// `F_4`: the kernel's accumulator after the bit columns, for a query `x`
/// and a resident whose bits form pattern `p`. A resident's bit column
/// holds `0.0`, `-0.0` or `1.0`; `0.0` and `-0.0` differ from `x_d` by
/// the same magnitude, so the squares, and the sum, are the kernel's.
#[inline]
fn bits_floor<const D: usize>(x: &[f64; D], p: usize) -> f64 {
    let mut acc = 0.0;
    for (d, &xd) in x.iter().enumerate().take(LATTICE_BITS) {
        let diff = ((p >> d) & 1) as f64 - xd;
        acc += diff * diff;
    }
    acc
}

/// A batch laid out on the lattice as a trie (see the module doc).
#[derive(Debug, Clone)]
pub(crate) struct LatticeIndex<const D: usize> {
    /// The bucket of each pattern, [`ABSENT`] when no row has it; buckets
    /// are numbered in pattern order.
    bucket_of: [u8; PATTERNS],
    /// `children[0][b]..children[0][b + 1]` are bucket `b`'s nodes at the
    /// first level; `children[j + 1][i]..children[j + 1][i + 1]` are node
    /// `i` of level `j`'s children. The last list points at rows of the
    /// gathered batch, the others at nodes of the next level.
    children: Vec<Vec<u32>>,
    /// `values[j][i]`: the value node `i` of level `j` holds in column
    /// `LATTICE_BITS + j`.
    values: Vec<Vec<f64>>,
}

impl<const D: usize> LatticeIndex<D> {
    /// Lay `rows` of `batch` out on the lattice: returns them in
    /// `(pattern, tail columns in total order, id)` order — the order to
    /// gather them in — and the index of that gathered batch. Every row
    /// must be [`on_lattice`] in its bits and [`free_of_nan`] after them,
    /// and `D > LATTICE_BITS`.
    ///
    /// The rows are put in id order (which the product's rows arrive in,
    /// so that sort only checks) and counting-sorted into their buckets;
    /// then, one column after another, each group of rows that agree so
    /// far — a bucket, a node's rows, at last a leaf — is sorted by the
    /// next column, keeping id order among equals ([`sort_by_keys`]), and
    /// its runs of one value become the next level's nodes.
    pub(crate) fn build(batch: &VecBatch<D>, rows: &[usize]) -> (Vec<usize>, Self) {
        debug_assert!(
            D > LATTICE_BITS,
            "the lattice needs a column after the bits"
        );
        let n = rows.len();
        let levels = D - LATTICE_BITS - 1;
        let bits: [&[f64]; LATTICE_BITS] = std::array::from_fn(|d| batch.col(d));
        let patterns: Vec<u32> = (rows.iter())
            .map(|&r| (0..LATTICE_BITS).fold(0, |p, d| p | u32::from(bits[d][r] == 1.0) << d))
            .collect();
        let mut by_id: Vec<(u64, u32)> = (rows.iter().enumerate())
            .map(|(k, &r)| (batch.id(r), k as u32))
            .collect();
        by_id.sort_unstable();
        let by_id: Vec<u32> = by_id.into_iter().map(|(_, k)| k).collect();
        let mut order = vec![0u32; n];
        let bucket_ends = counting_pass(&by_id, &patterns, PATTERNS, &mut order);

        let mut bucket_of = [ABSENT; PATTERNS];
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for (p, window) in bucket_ends.windows(2).enumerate() {
            if window[0] < window[1] {
                bucket_of[p] = groups.len() as u8;
                groups.push((window[0] as usize, window[1] as usize));
            }
        }
        let mut children: Vec<Vec<u32>> = Vec::with_capacity(levels + 1);
        let mut values: Vec<Vec<f64>> = Vec::with_capacity(levels);
        let mut keys = Vec::new();
        for d in LATTICE_BITS..D {
            let col = batch.col(d);
            keys.clear();
            keys.extend(rows.iter().map(|&r| total_key(col[r])));
            let mut starts: Vec<u32> = Vec::with_capacity(groups.len() + 1);
            let (mut nodes, mut level) = (Vec::new(), Vec::new());
            for &(lo, hi) in &groups {
                let group = &mut order[lo..hi];
                sort_by_keys(group, &keys);
                if d == D - 1 {
                    starts.push(lo as u32);
                    continue;
                }
                starts.push(nodes.len() as u32);
                let mut start = lo;
                for at in lo + 1..=hi {
                    if at == hi || keys[order[at] as usize] != keys[order[start] as usize] {
                        level.push(col[rows[order[start] as usize]]);
                        nodes.push((start, at));
                        start = at;
                    }
                }
            }
            starts.push(if d == D - 1 { n } else { nodes.len() } as u32);
            children.push(starts);
            if d < D - 1 {
                values.push(level);
                groups = nodes;
            }
        }
        let order = order.iter().map(|&k| rows[k as usize]).collect();
        let index = LatticeIndex {
            bucket_of,
            children,
            values,
        };
        (order, index)
    }

    /// Scan `batch` — the rows this index was built over — into `hood`,
    /// bucket by bucket in increasing Hamming distance, each bucket walked
    /// level by level (see the module doc). `initial_cutoff_sq` and the
    /// result mean what they do for [`crate::prune::scan_cell_pruned`]: the
    /// hood is bit-identical to offering every row, every row is evaluated
    /// or bound-rejected, and `min_sq` is the smallest evaluated distance.
    pub(crate) fn scan(
        &self,
        batch: &VecBatch<D>,
        query: &[f64; D],
        initial_cutoff_sq: f64,
        hood: &mut Neighborhood,
        dists: &mut Vec<f64>,
    ) -> CellScanStats {
        let n = batch.len();
        if !query.iter().all(|x| x.is_finite()) {
            return CellScanStats {
                evaluated: n as u64,
                bound_rejected: 0,
                min_sq: offer_rows(batch, query, 0, n, hood, dists),
            };
        }
        // On the lattice a bucket's floor is its Hamming distance, which
        // the visiting order makes non-decreasing: the first bucket past
        // the cutoff ends the scan. Off it, floors come in no order.
        let monotone = on_lattice(&query[..LATTICE_BITS]);
        let q = pattern(query);
        let mut descent = Descent {
            index: self,
            batch,
            query,
            initial_cutoff_sq,
            hood,
            evaluated: 0,
            min_sq: f64::INFINITY,
        };
        for &mask in &BY_WEIGHT {
            let p = q ^ mask as usize;
            let b = self.bucket_of[p];
            if b == ABSENT {
                continue;
            }
            let floor = bits_floor(query, p);
            if floor > descent.cutoff() {
                if monotone {
                    break;
                }
                continue;
            }
            let nodes = &self.children[0];
            let b = b as usize;
            descent.descend(0, nodes[b] as usize, nodes[b + 1] as usize, floor);
        }
        CellScanStats {
            evaluated: descent.evaluated,
            bound_rejected: n as u64 - descent.evaluated,
            min_sq: descent.min_sq,
        }
    }
}

/// One scan's walk down a [`LatticeIndex`]: what it reads, the running
/// hood, and what it has counted so far.
struct Descent<'a, const D: usize> {
    index: &'a LatticeIndex<D>,
    batch: &'a VecBatch<D>,
    query: &'a [f64; D],
    initial_cutoff_sq: f64,
    hood: &'a mut Neighborhood,
    evaluated: u64,
    min_sq: f64,
}

impl<const D: usize> Descent<'_, D> {
    /// The running cutoff: only rows at or below it can enter the hood.
    #[inline]
    fn cutoff(&self) -> f64 {
        self.initial_cutoff_sq.min(self.hood.kth_distance_sq())
    }

    /// Walk entries `lo..hi` of depth `t` — nodes of level `t`, or rows
    /// when `t` is the number of levels — under a parent whose floor is
    /// `floor`.
    fn descend(&mut self, t: usize, lo: usize, hi: usize, floor: f64) {
        let index = self.index;
        let x = self.query[LATTICE_BITS + t];
        match index.values.get(t) {
            Some(level) => {
                let children = &index.children[t + 1];
                self.walk_out(&level[lo..hi], x, floor, |descent, i, floor| {
                    let (start, end) = (children[lo + i], children[lo + i + 1]);
                    descent.descend(t + 1, start as usize, end as usize, floor);
                });
            }
            None => {
                let batch = self.batch;
                let (ids, labels) = (&batch.ids()[lo..hi], &batch.labels()[lo..hi]);
                let last = &batch.col(D - 1)[lo..hi];
                let (computed, min_sq) = self.walk_out(last, x, floor, |descent, i, d_sq| {
                    descent.hood.push_sq(d_sq, ids[i], labels[i]);
                });
                self.evaluated += computed;
                self.min_sq = self.min_sq.min(min_sq);
            }
        }
    }

    /// Visit the positions of `values` (ascending, none NaN) outward from
    /// `x`, the one whose key `floor + (value − x)²` is smaller first,
    /// while that key is at most the running cutoff; `visit(self, i, key)`
    /// may tighten the cutoff. Each side's keys never fall, so the walk
    /// stops for good at the first key past the cutoff. Returns how many
    /// keys it computed — the two it stops at included — and the smallest.
    #[inline]
    fn walk_out(
        &mut self,
        values: &[f64],
        x: f64,
        floor: f64,
        mut visit: impl FnMut(&mut Self, usize, f64),
    ) -> (u64, f64) {
        let key = |i: usize| {
            let diff = values[i] - x;
            floor + diff * diff
        };
        let n = values.len();
        let mut right = values.partition_point(|&v| v < x);
        let mut left = right;
        let mut computed = 0u64;
        let mut min_key = f64::INFINITY;
        let mut head = |i: usize| {
            let k = key(i);
            computed += 1;
            min_key = min_key.min(k);
            k
        };
        let mut left_key = if left > 0 { head(left - 1) } else { 0.0 };
        let mut right_key = if right < n { head(right) } else { 0.0 };
        loop {
            let take_left = match (left > 0, right < n) {
                (false, false) => break,
                (on_left, on_right) => on_left && (!on_right || left_key < right_key),
            };
            let (at, at_key) = match take_left {
                true => (left - 1, left_key),
                false => (right, right_key),
            };
            if at_key > self.cutoff() {
                break;
            }
            visit(self, at, at_key);
            if take_left {
                left -= 1;
                if left > 0 {
                    left_key = head(left - 1);
                }
            } else {
                right += 1;
                if right < n {
                    right_key = head(right);
                }
            }
        }
        (computed, min_key)
    }
}

/// `x` as an unsigned integer in [`f64::total_cmp`] order.
#[inline]
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// Sort a group of rows (positions, in id order) by `keys[position]`,
/// stably, so id order holds among equals. A stable sort finds the runs
/// already in order: a group that holds one value of the column — most
/// rows share their drug and ADR distances — costs one pass.
fn sort_by_keys(group: &mut [u32], keys: &[u64]) {
    group.sort_by_key(|&k| keys[k as usize]);
}

/// Stably order `order` (positions) by `key[position]`, each key below
/// `buckets`, into `out`; returns where each key's run starts, and the
/// end, in `buckets + 1` entries.
fn counting_pass(order: &[u32], key: &[u32], buckets: usize, out: &mut [u32]) -> Vec<u32> {
    let mut next = vec![0u32; buckets + 1];
    for &k in order {
        next[key[k as usize] as usize + 1] += 1;
    }
    for b in 1..=buckets {
        next[b] += next[b - 1];
    }
    let starts = next.clone();
    for &k in order {
        let slot = &mut next[key[k as usize] as usize];
        out[*slot as usize] = k;
        *slot += 1;
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::distances_to_point;
    use proptest::prelude::*;
    use simmetrics::squared_euclidean_fixed;

    #[test]
    fn masks_come_in_hamming_order_and_cover_every_pattern() {
        let weights: Vec<u32> = BY_WEIGHT.iter().map(|m| m.count_ones()).collect();
        assert!(weights.windows(2).all(|w| w[0] <= w[1]));
        let mut seen = BY_WEIGHT.to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..PATTERNS as u8).collect::<Vec<_>>());
    }

    /// The trie over `batch` (gathered in the index's order) is what the
    /// module doc says: buckets in pattern order, each level's nodes under
    /// one parent strictly ascending in total order with their children
    /// contiguous, every row under the nodes of its own values, and the
    /// rows of a leaf in `(last column, id)` order.
    fn assert_trie<const D: usize>(index: &LatticeIndex<D>, batch: &VecBatch<D>) {
        let levels = index.values.len();
        assert_eq!(levels, D - LATTICE_BITS - 1);
        assert_eq!(index.children.len(), levels + 1);
        let present: Vec<usize> = (0..PATTERNS)
            .filter(|&p| index.bucket_of[p] != ABSENT)
            .collect();
        let numbered: Vec<u8> = present.iter().map(|&p| index.bucket_of[p]).collect();
        assert_eq!(numbered, (0..present.len() as u8).collect::<Vec<_>>());
        // Every list starts at 0, never falls, and ends at its targets.
        for (t, list) in index.children.iter().enumerate() {
            let parents = match t {
                0 => present.len(),
                t => index.values[t - 1].len(),
            };
            let targets = index.values.get(t).map_or(batch.len(), Vec::len);
            assert_eq!(list.len(), parents + 1, "list {t}");
            assert_eq!(list[0], 0);
            assert_eq!(*list.last().unwrap() as usize, targets);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "no empty node");
        }
        // Walk every root-to-row path.
        let mut path: Vec<(usize, f64)> = Vec::new();
        fn visit<const D: usize>(
            index: &LatticeIndex<D>,
            batch: &VecBatch<D>,
            t: usize,
            lo: usize,
            hi: usize,
            p: usize,
            path: &mut Vec<(usize, f64)>,
        ) {
            match index.values.get(t) {
                Some(level) => {
                    let nodes = &level[lo..hi];
                    assert!(
                        nodes.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()),
                        "level {t} siblings ascend: {nodes:?}"
                    );
                    for (i, &value) in nodes.iter().enumerate() {
                        let i = lo + i;
                        path.push((LATTICE_BITS + t, value));
                        let (start, end) = (index.children[t + 1][i], index.children[t + 1][i + 1]);
                        visit(index, batch, t + 1, start as usize, end as usize, p, path);
                        path.pop();
                    }
                }
                None => {
                    for r in lo..hi {
                        let row = batch.row(r);
                        assert_eq!(pattern(&row), p, "row {r} in bucket {p:05b}");
                        for &(d, v) in path.iter() {
                            assert_eq!(row[d].to_bits(), v.to_bits(), "row {r} column {d}");
                        }
                    }
                    for r in lo + 1..hi {
                        let (a, b) = (batch.col(D - 1)[r - 1], batch.col(D - 1)[r]);
                        let order = a.total_cmp(&b).then(batch.id(r - 1).cmp(&batch.id(r)));
                        assert!(order.is_lt(), "leaf rows {} and {r} out of order", r - 1);
                    }
                }
            }
        }
        for (b, &p) in present.iter().enumerate() {
            let (lo, hi) = (index.children[0][b], index.children[0][b + 1]);
            visit(index, batch, 0, lo as usize, hi as usize, p, &mut path);
        }
    }

    #[test]
    fn build_groups_by_pattern_and_sorts_each_bucket() {
        let mut batch = VecBatch::<8>::new();
        let rows = [
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0],
            [0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 1.0],
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.75],
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.25, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0],
        ];
        for (i, row) in rows.iter().enumerate() {
            batch.push(10 - i as u64, row, false);
        }
        let (order, index) = LatticeIndex::build(&batch, &(0..rows.len()).collect::<Vec<_>>());
        let batch = batch.gather(&order);
        assert_trie(&index, &batch);
        assert_eq!(index.bucket_of[0], 0, "-0.0 is a 0 bit");
        assert_eq!(index.bucket_of[0b10001], 1);
        // Bucket 0: column 5 holds -0.0, 0.0 and 1.0 — three nodes, -0.0
        // first; bucket 0b10001: 0.0 and 0.5.
        assert_eq!(index.children[0], [0, 3, 5]);
        let level5: Vec<u64> = index.values[0].iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = [-0.0f64, 0.0, 1.0, 0.0, 0.5]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(level5, want);
        // Under (0b10001, 0.5): column 6 holds 0.25 and 0.5; the 0.25 leaf
        // holds ids 6 (0.75), then 5 and 10 (1.0, by id).
        assert_eq!(index.values[1][4..], [0.25, 0.5]);
        let leaf = index.children[2][4] as usize..index.children[2][5] as usize;
        assert_eq!(batch.ids()[leaf], [5, 6, 10]);
    }

    #[test]
    fn the_floor_is_the_kernels_partial_sum() {
        let x = [0.3, 1.0, 0.0, 0.7, 1.0, 0.2, 0.9, 0.4];
        let s = [1.0, 1.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.0];
        let mut acc = 0.0;
        let mut partial = Vec::new();
        for d in 0..8 {
            acc += (s[d] - x[d]) * (s[d] - x[d]);
            partial.push(acc);
        }
        let floor = bits_floor(&x, pattern(&s));
        assert_eq!(floor.to_bits(), partial[4].to_bits());
        // Each level adds its column as the walk does.
        let mut floor = floor;
        for d in LATTICE_BITS..8 {
            let diff = s[d] - x[d];
            floor += diff * diff;
            assert_eq!(floor.to_bits(), partial[d].to_bits(), "after column {d}");
        }
        let mut batch = VecBatch::<8>::new();
        batch.push(0, &s, false);
        let mut kernel = Vec::new();
        distances_to_point(&batch, &x, &mut kernel);
        assert_eq!(floor.to_bits(), kernel[0].to_bits());
        assert_eq!(
            kernel[0].to_bits(),
            squared_euclidean_fixed(&x, &s).to_bits()
        );
        assert!(!on_lattice(&x[..LATTICE_BITS]));
        assert_eq!(
            bits_floor(&s, 0),
            2.0,
            "on the lattice: the Hamming distance"
        );
    }

    #[test]
    fn keys_follow_the_total_order_and_both_sorts_are_stable() {
        let col = [0.5, -0.0, f64::INFINITY, 0.0, 0.5, f64::NEG_INFINITY, -0.0];
        let keys: Vec<u64> = col.iter().map(|&x| total_key(x)).collect();
        for (a, b) in (0..col.len()).flat_map(|a| (0..col.len()).map(move |b| (a, b))) {
            assert_eq!(keys[a].cmp(&keys[b]), col[a].total_cmp(&col[b]), "{a} {b}");
        }
        let mut group = [6u32, 5, 4, 3, 2, 1, 0];
        sort_by_keys(&mut group, &keys);
        assert_eq!(group, [5, 6, 1, 3, 4, 0, 2], "equal keys keep their order");
        let ranks = [2u32, 0, 1, 0, 2, 1, 0];
        let mut out = [0u32; 7];
        let starts = counting_pass(&[6, 5, 4, 3, 2, 1, 0], &ranks, 3, &mut out);
        assert_eq!(out, [6, 3, 1, 5, 2, 4, 0], "equal keys keep their order");
        assert_eq!(starts, [0, 3, 5, 7]);
    }

    /// Values a tail column can hold in these tests: signed zeros,
    /// infinities, a value whose square overflows, and ordinary ones.
    const SPECIAL: [f64; 10] = [
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        0.25,
        1.0 / 3.0,
        0.5,
        1.0,
        1e300,
        f64::INFINITY,
    ];

    /// A query's values: [`SPECIAL`] and NaN.
    fn query_value(i: usize) -> f64 {
        SPECIAL.get(i).copied().unwrap_or(f64::NAN)
    }

    /// `(distance², id, label)` by bits, so a NaN entry equals itself. Its
    /// sign is not compared: `s − x` and `x − s` can differ there, as the
    /// tiled and the scalar kernel do.
    fn entry_bits(hood: &Neighborhood) -> Vec<(u64, u64, bool)> {
        hood.entries
            .iter()
            .map(|&(d, id, label)| (if d.is_nan() { f64::NAN } else { d }.to_bits(), id, label))
            .collect()
    }

    proptest! {
        /// One index's scan against the full sweep, with signed zeros,
        /// infinities and overflowing squares in the tail columns of the
        /// rows and the queries, NaN in the queries, queries off the
        /// lattice, and an external hood whose k-th distance is the
        /// initial cutoff. For a finite query, the scan merged into the
        /// external hood is, bit for bit, every row offered to it, and
        /// `min_sq` is the sweep's minimum wherever that is within the
        /// cutoff; a query with a non-finite value is swept in storage
        /// order. Every row is evaluated or bound-rejected.
        #[test]
        fn scans_equal_the_full_sweep_with_non_finite_and_signed_zero_tails(
            rows in prop::collection::vec(
                (0u8..32, prop::collection::vec(0usize..SPECIAL.len(), 3), 0u8..3), 0..70),
            queries in prop::collection::vec(
                (0u8..32, prop::collection::vec(0usize..SPECIAL.len() + 1, 3), (0usize..8, 0usize..SPECIAL.len() + 1)),
                1..6),
            external in prop::collection::vec(0usize..40, 0..12),
            k in 1usize..10,
        ) {
            let vector = |bits: u8, tail: &[usize], value: &dyn Fn(usize) -> f64| -> [f64; 8] {
                std::array::from_fn(|d| match d < LATTICE_BITS {
                    true => f64::from(bits >> d & 1),
                    false => value(tail[d - LATTICE_BITS]),
                })
            };
            let mut batch = VecBatch::<8>::new();
            for (i, (bits, tail, label)) in rows.iter().enumerate() {
                // Ids unique and out of row order.
                let id = (i as u64 * 7_919) % 65_537;
                batch.push(id, &vector(*bits, tail, &|i| SPECIAL[i]), *label == 0);
            }
            let (order, index) = LatticeIndex::build(&batch, &(0..batch.len()).collect::<Vec<_>>());
            let batch = batch.gather(&order);
            assert_trie(&index, &batch);
            let mut dists = Vec::new();
            for (bits, tail, (moved, value)) in &queries {
                let mut q = vector(*bits, tail, &query_value);
                // Sometimes a bit column moves off the lattice.
                if *moved < LATTICE_BITS {
                    q[*moved] = query_value(*value);
                }
                let mut ext = Neighborhood::new(k);
                for (i, &e) in external.iter().enumerate() {
                    ext.push_sq(e as f64 * 0.125, 1_000_000 + i as u64, false);
                }
                let cutoff = ext.kth_distance_sq();
                let mut scanned = Neighborhood::new(k);
                let stats = index.scan(&batch, &q, cutoff, &mut scanned, &mut dists);
                prop_assert_eq!(stats.evaluated + stats.bound_rejected, batch.len() as u64);
                let kernel: Vec<f64> = (0..batch.len())
                    .map(|r| squared_euclidean_fixed(&q, &batch.row(r)))
                    .collect();
                if q.iter().all(|x| x.is_finite()) {
                    let mut full = ext.clone();
                    for (r, &d) in kernel.iter().enumerate() {
                        full.push_sq(d, batch.id(r), batch.label(r));
                    }
                    prop_assert_eq!(entry_bits(&ext.merge(scanned)), entry_bits(&full));
                    let least = kernel.iter().copied().fold(f64::INFINITY, f64::min);
                    if least <= cutoff {
                        prop_assert_eq!(stats.min_sq.to_bits(), least.to_bits());
                    } else {
                        prop_assert!(stats.min_sq >= least);
                    }
                } else {
                    let mut swept = Neighborhood::new(k);
                    for (r, &d) in kernel.iter().enumerate() {
                        swept.push_sq(d, batch.id(r), batch.label(r));
                    }
                    prop_assert_eq!(entry_bits(&scanned), entry_bits(&swept));
                    prop_assert_eq!(stats.evaluated, batch.len() as u64);
                }
            }
        }
    }
}
