//! Lloyd's k-means with k-means++ seeding.
//!
//! The paper uses k-means twice: to Voronoi-partition the training pairs
//! (§4.3.1 — "clusters produced by k-means form a Voronoi diagram") and to
//! cluster positive pairs for test-set pruning (§4.3.4).
//!
//! Points are fixed-arity `[f64; D]` arrays (const-generic over `D`): the
//! assignment loops dominate partition builds, and fixed arity lets the
//! distance kernel unroll with no per-point allocation. The accumulation
//! order matches the slice-based kernel bit-for-bit.
//!
//! # Leading 0/1 columns
//!
//! §4.2's exact-match fields make the first columns of a pair vector 0
//! or 1. Lloyd's loop finds how many leading columns of the data hold
//! nothing else (at most six) and reads them as one bit pattern per point:
//!
//! * **Assignment.** The kernel's accumulator for a point and a centre,
//!   after those columns, is `0.0` plus each column's squared difference in
//!   column order: a number that depends on the point's pattern only. It
//!   is tabulated once per centre and pattern, each point's accumulator
//!   starts from its pattern's entry, and the other columns are added to it
//!   as [`assign_min`] adds them. The float is the one the kernel reaches,
//!   so the nearest centre is too (`fastknn`'s lattice bound makes the same
//!   argument). The points are grouped by pattern once per fit, so within a
//!   group the start is one number per centre and the loop runs across
//!   points over the other columns alone.
//! * **Update.** A cluster's sum of a 0/1 column is the count of its ones:
//!   every partial sum is an integer below 2⁵³, exact in any order. One
//!   pass counting each cluster's patterns gives those sums and the cluster
//!   sizes.
//!
//! k-means++ seeding, the other columns and the empty-cluster repair run as
//! on any data. Data with no 0/1 leading column takes the same loop with
//! no bits: one pattern, a table of `0.0`, every column added per point.
//! The centroids are bit for bit those of the plain loop (every point
//! through [`assign_min`], every sum added in point order), which the
//! tests keep as the oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmetrics::soa::{assign_min, distances_to_point, VecBatch};
use simmetrics::squared_euclidean_fixed;

/// k-means configuration.
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement (squared).
    pub tol: f64,
    /// RNG seed for k-means++ seeding.
    pub seed: u64,
}

impl KMeans {
    /// Standard configuration: 100 iterations, tolerance 1e-9.
    pub fn new(k: usize, seed: u64) -> Self {
        KMeans {
            k,
            max_iters: 100,
            tol: 1e-9,
            seed,
        }
    }

    /// Run k-means++ then Lloyd's algorithm.
    ///
    /// # Panics
    /// Panics on empty data or `k == 0`. If `k > n`, `k` is clamped to `n`.
    pub fn fit<const D: usize>(&self, data: &[[f64; D]]) -> KMeansModel<D> {
        self.fit_batch(&VecBatch::from_rows(data))
    }

    /// Run k-means++ then Lloyd's algorithm over a column batch.
    ///
    /// Lloyd iterations run entirely on the SoA layout: assignment via the
    /// tabulated form of the fused [`assign_min`] kernel over leading 0/1
    /// columns (see the module doc), centroid update via per-column
    /// accumulators. Both keep the scalar path's per-point and
    /// per-(cluster, dimension) results, so results are bit-identical to
    /// the historical `[f64; D]` loop.
    ///
    /// # Panics
    /// Panics on empty data or `k == 0`. If `k > n`, `k` is clamped to `n`.
    pub fn fit_batch<const D: usize>(&self, data: &VecBatch<D>) -> KMeansModel<D> {
        let centroids = self.fit_centroids(data);
        // Final assignment against the converged centroids.
        let (mut assign_idx, mut assign_d2) = (Vec::new(), Vec::new());
        assign_min(data, &centroids, &mut assign_idx, &mut assign_d2);
        KMeansModel {
            centroids,
            assignments: assign_idx.iter().map(|&a| a as usize).collect(),
        }
    }

    /// The centroids of [`KMeans::fit_batch`], without its final
    /// assignment of every point: for a caller that assigns other points.
    ///
    /// # Panics
    /// Panics on empty data or `k == 0`. If `k > n`, `k` is clamped to `n`.
    pub fn fit_centroids<const D: usize>(&self, data: &VecBatch<D>) -> Vec<[f64; D]> {
        assert!(!data.is_empty(), "k-means needs data");
        assert!(self.k > 0, "k must be positive");
        let k = self.k.min(data.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut centroids = plus_plus_init(data, k, &mut rng);
        let prefix = BinaryPrefix::of(data);
        let mut assign_idx: Vec<u32> = Vec::with_capacity(data.len());
        let mut assign_d2: Vec<f64> = Vec::with_capacity(data.len());
        let (mut table, mut hist) = (Vec::new(), Vec::new());
        for _ in 0..self.max_iters {
            assign_idx.resize(data.len(), 0);
            assign_d2.resize(data.len(), 0.0);
            prefix.assign(
                &centroids,
                &mut table,
                &mut assign_idx,
                &mut assign_d2,
                &mut hist,
            );
            let (sums, counts) = prefix.sums(data, &assign_idx, &hist, k);
            let mut movement = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from
                    // its current centroid (standard repair). Distances are
                    // against the partially updated centroid set, exactly
                    // as the scalar loop computed them.
                    assign_min(data, &centroids, &mut assign_idx, &mut assign_d2);
                    let far = assign_d2
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i)
                        .expect("data non-empty");
                    let far_row = data.row(far);
                    movement += squared_euclidean_fixed(&centroids[c], &far_row);
                    centroids[c] = far_row;
                    continue;
                }
                let mut new = [0.0; D];
                for (n, s) in new.iter_mut().zip(&sums[c]) {
                    *n = s / counts[c] as f64;
                }
                movement += squared_euclidean_fixed(&centroids[c], &new);
                centroids[c] = new;
            }
            if movement <= self.tol {
                break;
            }
        }
        centroids
    }
}

/// Most leading 0/1 columns Lloyd's loop reads as a pattern: the distance
/// table then holds 64 entries per centre.
const MAX_BINARY_PREFIX: usize = 6;

/// Points per register tile of the tabulated assignment: one lane per
/// point, so its distance and fold loops vectorise across points.
const LANES: usize = 8;

/// The `order` entry of a padding lane.
const PAD: u32 = u32::MAX;

/// A batch's leading 0/1 columns, read as one bit pattern per point (see
/// the module doc), and the batch's points grouped by pattern: within a
/// group every point's accumulator starts from the same table entry, so
/// the assignment runs over the other columns alone.
struct BinaryPrefix {
    /// How many leading columns: `0..=MAX_BINARY_PREFIX`.
    bits: usize,
    /// The points by pattern, in point order within a pattern; each group
    /// padded with [`PAD`] to a whole number of [`LANES`].
    order: Vec<u32>,
    /// Where each pattern's group starts in `order`, then its end.
    starts: Vec<usize>,
    /// The columns after the bits, in `order` (0 at padding).
    tail: Vec<Vec<f64>>,
}

impl BinaryPrefix {
    /// The prefix of `data`: none at all when its first column is not all
    /// 0 or 1, and then one pattern, every column a tail column and every
    /// table entry `0.0`, which is where the kernel's accumulator starts.
    fn of<const D: usize>(data: &VecBatch<D>) -> Self {
        // A fold, not `all`: no early exit, so the check vectorises.
        let binary = |col: &[f64]| (col.iter()).fold(true, |ok, &x| ok & ((x == 0.0) | (x == 1.0)));
        let bits = (0..D.min(MAX_BINARY_PREFIX))
            .take_while(|&d| binary(data.col(d)))
            .count();
        assert!(data.len() < PAD as usize, "a batch of 2^32 points");
        let mut patterns = vec![0u8; data.len()];
        for d in 0..bits {
            for (p, &x) in patterns.iter_mut().zip(data.col(d)) {
                *p |= u8::from(x == 1.0) << d;
            }
        }
        let mut sizes = vec![0usize; 1 << bits];
        for &p in &patterns {
            sizes[p as usize] += 1;
        }
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        starts.push(0);
        for size in sizes {
            starts.push(starts[starts.len() - 1] + size.next_multiple_of(LANES));
        }
        // Deal the points out in one pass over the batch.
        let len = starts[starts.len() - 1];
        let mut order = vec![PAD; len];
        let mut tail = vec![vec![0.0; len]; D - bits];
        let cols: Vec<&[f64]> = (bits..D).map(|d| data.col(d)).collect();
        let mut next = starts.clone();
        for (i, &p) in patterns.iter().enumerate() {
            let at = next[p as usize];
            next[p as usize] += 1;
            order[at] = i as u32;
            for (t, col) in tail.iter_mut().zip(&cols) {
                t[at] = col[i];
            }
        }
        BinaryPrefix {
            bits,
            order,
            starts,
            tail,
        }
    }

    /// [`assign_min`]'s nearest centre of every point and its squared
    /// distance, bit for bit, into `out_idx` and `out_d2` (in point order),
    /// and each cluster's count of each pattern, into
    /// `hist[c * patterns + p]`. `table` is scratch.
    fn assign<const D: usize>(
        &self,
        centers: &[[f64; D]],
        table: &mut Vec<f64>,
        out_idx: &mut [u32],
        out_d2: &mut [f64],
        hist: &mut Vec<usize>,
    ) {
        let k = centers.len();
        let patterns = self.starts.len() - 1;
        // `table[p * k + c]`: the kernel's accumulator for a point of
        // pattern `p` against centre `c` after the bit columns. A column
        // holding -0.0 for 0 squares its difference to the same bits.
        table.clear();
        for p in 0..patterns {
            table.extend(centers.iter().map(|c| {
                let mut a = 0.0;
                for (d, &cd) in c.iter().enumerate().take(self.bits) {
                    let diff = ((p >> d) & 1) as f64 - cd;
                    a += diff * diff;
                }
                a
            }));
        }
        hist.clear();
        hist.resize(k * patterns, 0);
        for (p, start) in table.chunks_exact(k).enumerate() {
            for at in (self.starts[p]..self.starts[p + 1]).step_by(LANES) {
                // Centres in ascending order with a strict `<` from
                // (index 0, +∞): the kernel's pick, lane by lane. The
                // index rides as an f64, so its select vectorises with the
                // distance's.
                let mut best_d = [f64::INFINITY; LANES];
                let mut best_i = [0.0f64; LANES];
                for (c, centre) in centers.iter().enumerate() {
                    let mut acc = [start[c]; LANES];
                    for (col, &cd) in self.tail.iter().zip(&centre[self.bits..]) {
                        for (a, &x) in acc.iter_mut().zip(&col[at..at + LANES]) {
                            let diff = x - cd;
                            *a += diff * diff;
                        }
                    }
                    for ((a, d), i) in acc.iter().zip(&mut best_d).zip(&mut best_i) {
                        let better = *a < *d;
                        *d = if better { *a } else { *d };
                        *i = if better { c as f64 } else { *i };
                    }
                }
                let lanes = self.order[at..at + LANES]
                    .iter()
                    .zip(best_i.iter().zip(&best_d));
                for (&point, (&c, &d2)) in lanes {
                    if point != PAD {
                        out_idx[point as usize] = c as u32;
                        out_d2[point as usize] = d2;
                        hist[c as usize * patterns + p] += 1;
                    }
                }
            }
        }
    }

    /// Update-step sums and cluster sizes for assignment `assign`, whose
    /// pattern counts are `hist`: the bit columns' sums are counts of ones,
    /// and the other columns' are added in point order, as the plain loop
    /// adds them.
    fn sums<const D: usize>(
        &self,
        data: &VecBatch<D>,
        assign: &[u32],
        hist: &[usize],
        k: usize,
    ) -> (Vec<[f64; D]>, Vec<usize>) {
        let mut sums = vec![[0.0; D]; k];
        let mut counts = vec![0usize; k];
        for (c, hist) in hist.chunks_exact(self.starts.len() - 1).enumerate() {
            counts[c] = hist.iter().sum();
            for (d, sum) in sums[c].iter_mut().enumerate().take(self.bits) {
                let ones: usize = (hist.iter().enumerate())
                    .filter(|(p, _)| p >> d & 1 == 1)
                    .map(|(_, &m)| m)
                    .sum();
                *sum = ones as f64;
            }
        }
        for (d, col) in (self.bits..D).map(|d| (d, data.col(d))) {
            for (&x, &a) in col.iter().zip(assign) {
                sums[a as usize][d] += x;
            }
        }
        (sums, counts)
    }
}

/// Index and squared distance of the nearest centroid.
pub fn nearest_centroid<const D: usize>(p: &[f64; D], centroids: &[[f64; D]]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_euclidean_fixed(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

fn plus_plus_init<const D: usize>(data: &VecBatch<D>, k: usize, rng: &mut StdRng) -> Vec<[f64; D]> {
    let mut centroids: Vec<[f64; D]> = Vec::with_capacity(k);
    centroids.push(data.row(rng.gen_range(0..data.len())));
    let mut dists: Vec<f64> = Vec::with_capacity(data.len());
    distances_to_point(data, &centroids[0], &mut dists);
    let mut fresh: Vec<f64> = Vec::with_capacity(data.len());
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = data.len() - 1;
            for (i, d) in dists.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(data.row(next));
        distances_to_point(data, centroids.last().expect("just pushed"), &mut fresh);
        for (d, &nd) in dists.iter_mut().zip(&fresh) {
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeansModel<const D: usize> {
    /// Cluster centres ("the center of each cluster is calculated and
    /// stored in memory", §4.3.1).
    pub centroids: Vec<[f64; D]>,
    /// Cluster index per training point.
    pub assignments: Vec<usize>,
}

impl<const D: usize> KMeansModel<D> {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Assign an unseen point to its Voronoi cell (closest centre).
    pub fn assign(&self, p: &[f64; D]) -> usize {
        nearest_centroid(p, &self.centroids).0
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Within-cluster sum of squared distances (inertia).
    pub fn inertia(&self, data: &[[f64; D]]) -> f64 {
        data.iter()
            .zip(&self.assignments)
            .map(|(p, &a)| squared_euclidean_fixed(p, &self.centroids[a]))
            .sum()
    }
}

/// The plain Lloyd loop on any data — every assignment through
/// [`assign_min`], every update sum added in point order — as the oracle
/// [`KMeans::fit_batch`] is held to. Also returns how many empty-cluster
/// repairs it made.
#[cfg(test)]
fn lloyd_oracle<const D: usize>(kmeans: &KMeans, data: &VecBatch<D>) -> (KMeansModel<D>, usize) {
    let n = data.len();
    let k = kmeans.k.min(n);
    let mut rng = StdRng::seed_from_u64(kmeans.seed);
    let mut centroids = plus_plus_init(data, k, &mut rng);
    let mut assign_idx: Vec<u32> = Vec::with_capacity(n);
    let mut assign_d2: Vec<f64> = Vec::with_capacity(n);
    let mut repairs = 0;
    for _ in 0..kmeans.max_iters {
        assign_min(data, &centroids, &mut assign_idx, &mut assign_d2);
        let mut sums = vec![[0.0; D]; k];
        let mut counts = vec![0usize; k];
        for &a in &assign_idx {
            counts[a as usize] += 1;
        }
        for (d, col) in (0..D).map(|d| (d, data.col(d))) {
            for (&x, &a) in col.iter().zip(&assign_idx) {
                sums[a as usize][d] += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                repairs += 1;
                assign_min(data, &centroids, &mut assign_idx, &mut assign_d2);
                let far = assign_d2
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .expect("data non-empty");
                let far_row = data.row(far);
                movement += squared_euclidean_fixed(&centroids[c], &far_row);
                centroids[c] = far_row;
                continue;
            }
            let mut new = [0.0; D];
            for (n, s) in new.iter_mut().zip(&sums[c]) {
                *n = s / counts[c] as f64;
            }
            movement += squared_euclidean_fixed(&centroids[c], &new);
            centroids[c] = new;
        }
        if movement <= kmeans.tol {
            break;
        }
    }
    assign_min(data, &centroids, &mut assign_idx, &mut assign_d2);
    let model = KMeansModel {
        centroids,
        assignments: assign_idx.iter().map(|&a| a as usize).collect(),
    };
    (model, repairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `n` rows drawn from a pool of `distinct` rows whose first `bits`
    /// columns are 0 or 1 (a 0 is sometimes -0.0) and whose other columns
    /// take a few fractions, so rows repeat and sums tie.
    fn binary_prefix_batch(seed: u64, n: usize, distinct: usize, bits: usize) -> VecBatch<8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<[f64; 8]> = (0..distinct)
            .map(|_| {
                std::array::from_fn(|d| match d < bits {
                    true if rng.gen_bool(0.5) => 1.0,
                    true if rng.gen_bool(0.1) => -0.0,
                    true => 0.0,
                    false => rng.gen_range(0..8) as f64 / 7.0,
                })
            })
            .collect();
        let rows: Vec<[f64; 8]> = (0..n).map(|_| pool[rng.gen_range(0..distinct)]).collect();
        VecBatch::from_rows(&rows)
    }

    /// Centroid bits and assignments of `fit_batch` against the oracle.
    fn assert_equals_oracle(kmeans: &KMeans, data: &VecBatch<8>) -> usize {
        let (want, repairs) = lloyd_oracle(kmeans, data);
        let got = kmeans.fit_batch(data);
        let bits = |m: &KMeansModel<8>| -> Vec<[u64; 8]> {
            (m.centroids.iter()).map(|c| c.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.assignments, want.assignments);
        let centroids = kmeans.fit_centroids(data);
        assert_eq!(
            centroids
                .iter()
                .map(|c| c.map(f64::to_bits))
                .collect::<Vec<_>>(),
            bits(&want)
        );
        // The tabulated assignment against the fitted centres: the kernel's
        // nearest centre and distance, bit for bit, at every point.
        let prefix = BinaryPrefix::of(data);
        let (mut idx, mut d2) = (Vec::new(), Vec::new());
        assign_min(data, &want.centroids, &mut idx, &mut d2);
        let (mut got_idx, mut got_d2) = (vec![0; data.len()], vec![0.0; data.len()]);
        let (mut table, mut hist) = (Vec::new(), Vec::new());
        prefix.assign(
            &want.centroids,
            &mut table,
            &mut got_idx,
            &mut got_d2,
            &mut hist,
        );
        assert_eq!(got_idx, idx);
        assert_eq!(
            got_d2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        repairs
    }

    proptest! {
        /// The tabulated Lloyd loop over 0 to 8 leading 0/1 columns (six
        /// at most read as a pattern) gives the plain loop's centroids and
        /// assignments bit for bit, k from 1 to n + 2.
        #[test]
        fn binary_prefix_lloyd_equals_lloyd(
            seed in 0u64..u64::MAX,
            n in 1usize..120,
            distinct in 1usize..16,
            bits in 0usize..9,
            k_share in 0.0f64..1.0,
        ) {
            let k = 1 + ((n + 2) as f64 * k_share) as usize;
            let kmeans = KMeans { k: k.min(n + 2), max_iters: 25, tol: 1e-9, seed };
            assert_equals_oracle(&kmeans, &binary_prefix_batch(seed, n, distinct, bits));
        }
    }

    #[test]
    fn binary_prefix_lloyd_equals_lloyd_through_the_empty_cluster_repair() {
        // Two distinct rows and five clusters: k-means++ runs out of
        // distinct points and seeds coincident centres, and every one after
        // the first of them starts empty.
        let data = binary_prefix_batch(3, 40, 2, 5);
        let repairs = assert_equals_oracle(&KMeans::new(5, 11), &data);
        assert!(repairs > 0, "the repair ran");
    }

    fn two_blobs() -> Vec<[f64; 2]> {
        let mut data = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.01;
            data.push([0.0 + t, 0.0 - t]);
            data.push([10.0 - t, 10.0 + t]);
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let model = KMeans::new(2, 42).fit(&data);
        assert_eq!(model.k(), 2);
        // All even indices (blob A) share a cluster; odd (blob B) the other.
        let a = model.assignments[0];
        let b = model.assignments[1];
        assert_ne!(a, b);
        for (i, &asg) in model.assignments.iter().enumerate() {
            assert_eq!(asg, if i % 2 == 0 { a } else { b });
        }
    }

    #[test]
    fn voronoi_property_holds() {
        // Every point must be closer to its own centre than to any other —
        // the invariant observation 4 of §4.3.2 relies on.
        let data = two_blobs();
        let model = KMeans::new(4, 7).fit(&data);
        for (p, &a) in data.iter().zip(&model.assignments) {
            let own = squared_euclidean_fixed(p, &model.centroids[a]);
            for (j, c) in model.centroids.iter().enumerate() {
                if j != a {
                    assert!(own <= squared_euclidean_fixed(p, c) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_blobs();
        let m1 = KMeans::new(3, 5).fit(&data);
        let m2 = KMeans::new(3, 5).fit(&data);
        assert_eq!(m1.assignments, m2.assignments);
        assert_eq!(m1.centroids, m2.centroids);
    }

    #[test]
    fn k_clamped_to_n() {
        let data = vec![[0.0], [1.0]];
        let model = KMeans::new(10, 1).fit(&data);
        assert_eq!(model.k(), 2);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let data = vec![[1.0, 1.0]; 10];
        let model = KMeans::new(3, 1).fit(&data);
        assert_eq!(model.assignments.len(), 10);
    }

    #[test]
    fn assign_routes_new_points() {
        let data = two_blobs();
        let model = KMeans::new(2, 42).fit(&data);
        let near_a = model.assign(&[0.5, 0.5]);
        let near_b = model.assign(&[9.5, 9.5]);
        assert_ne!(near_a, near_b);
        assert_eq!(near_a, model.assignments[0]);
        assert_eq!(near_b, model.assignments[1]);
    }

    #[test]
    fn sizes_sum_to_n() {
        let data = two_blobs();
        let model = KMeans::new(5, 3).fit(&data);
        assert_eq!(model.sizes().iter().sum::<usize>(), data.len());
    }

    #[test]
    fn more_clusters_reduce_inertia() {
        let data = two_blobs();
        let i2 = KMeans::new(2, 9).fit(&data).inertia(&data);
        let i8 = KMeans::new(8, 9).fit(&data).inertia(&data);
        assert!(
            i8 <= i2 + 1e-9,
            "inertia must not grow with k: {i8} vs {i2}"
        );
    }
}
