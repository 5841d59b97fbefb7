//! Voronoi partitioning of the training pairs (§4.3.1) and the
//! hyperplane-distance bound of Eq. 7.

use crate::soa::{assign_min, distances_to_point, distances_to_point_range, VecBatch};
use crate::types::{LabeledPair, PAIR_DIMS};
use mlcore::kmeans::{nearest_centroid, KMeans};
use simmetrics::{euclidean_fixed, squared_euclidean_fixed};
use std::sync::Arc;

/// The k-means Voronoi partition of a training set.
///
/// Cluster centres are kept in (driver) memory — §4.3.1: "The center of
/// each cluster is calculated and stored in memory." Negative pairs are
/// bucketed per cluster; positive pairs are few (observation 1) and kept as
/// one global batch compared against every test pair. Both sides are stored
/// as struct-of-arrays [`VecBatch`] columns, so every distance scan over a
/// cell runs the tiled vector kernels instead of striding over row structs.
#[derive(Debug, Clone)]
pub struct VoronoiPartition<const D: usize = PAIR_DIMS> {
    /// Cluster centres `p_1 … p_b`.
    pub centers: Vec<[f64; D]>,
    /// Negative training pairs per cluster, one column batch per cell.
    ///
    /// After [`VoronoiPartition::build`], each cell's rows are sorted by
    /// `(distance-to-centre, id)` so the triangle-inequality window scan in
    /// [`crate::prune::scan_cell_pruned`] is a pair of binary searches plus
    /// an early-exit sweep. Resident order within a cell never affects
    /// classification (the neighbourhood is a total-order top-k over the
    /// candidate *set*), so the sort is lossless.
    ///
    /// Each cell sits behind an `Arc`, so [`crate::FastKnn::fit`] hands the
    /// engine these very cells instead of a copy of the negative store.
    pub negative_clusters: Vec<Arc<VecBatch<D>>>,
    /// Per cell, the **linear** distance of each resident to its own centre,
    /// parallel to the (sorted) cell rows — ascending by construction.
    /// Empty cells have empty lists. Maintained by `build`; callers that
    /// assemble a partition by hand (tests) may leave lists empty, which
    /// simply disables windowed pruning for those cells.
    pub center_dists: Vec<Vec<f64>>,
    /// All positive training pairs (global), as one column batch.
    ///
    /// After [`VoronoiPartition::build`] the positives are laid out as one
    /// more sorted cell: rows ordered by `(distance to`
    /// [`VoronoiPartition::positive_ref`]`, id)`, so stage 1 walks them
    /// with the same window scan as a negative cell instead of evaluating
    /// every positive for every test pair.
    pub positives: VecBatch<D>,
    /// The reference point the positives are sorted around: their mean.
    /// Any point would keep the scan lossless (the triangle inequality
    /// holds about every point); the mean keeps the window narrow.
    pub positive_ref: [f64; D],
    /// **Linear** distance of each positive to
    /// [`VoronoiPartition::positive_ref`], parallel to the (sorted) rows of
    /// [`VoronoiPartition::positives`] — ascending by construction. Same
    /// rule as [`VoronoiPartition::center_dists`]: a hand-assembled
    /// partition may leave it empty, and the scan then sweeps every
    /// positive.
    pub positive_ref_dists: Vec<f64>,
}

/// How many training vectors k-means fits on at most; larger sets are
/// subsampled deterministically (stride sampling) before fitting, then every
/// pair is assigned to its nearest fitted centre. The Voronoi property the
/// correctness argument needs — "each pair is closer to its own centre than
/// to any other" — holds by construction of the assignment step regardless
/// of how centres were obtained.
pub const KMEANS_FIT_CAP: usize = 20_000;

impl<const D: usize> VoronoiPartition<D> {
    /// Partition `train` into `b` Voronoi cells via k-means.
    ///
    /// # Panics
    /// Panics if `train` is empty or `b == 0`.
    pub fn build(train: &[LabeledPair<D>], b: usize, seed: u64) -> Self {
        assert!(!train.is_empty(), "cannot partition an empty training set");
        assert!(b > 0, "cluster number must be positive");
        let mut fit_batch = VecBatch::with_capacity(train.len().min(KMEANS_FIT_CAP + 1));
        if train.len() > KMEANS_FIT_CAP {
            let stride = train.len() / KMEANS_FIT_CAP + 1;
            for p in train.iter().step_by(stride) {
                fit_batch.push(p.id, &p.vector, p.positive);
            }
        } else {
            for p in train {
                fit_batch.push(p.id, &p.vector, p.positive);
            }
        }
        let model = KMeans {
            k: b,
            max_iters: 25,
            tol: 1e-9,
            seed,
        }
        .fit_batch(&fit_batch);
        let b_actual = model.centroids.len();
        // Split the training set by label, then bucket every negative via
        // one fused assign_min sweep (bit-identical to per-row
        // nearest_centroid).
        let mut negatives = VecBatch::with_capacity(train.len());
        let mut positives = VecBatch::new();
        for pair in train {
            if pair.positive {
                positives.push(pair.id, &pair.vector, true);
            } else {
                negatives.push(pair.id, &pair.vector, false);
            }
        }
        let mut assigned: Vec<u32> = Vec::with_capacity(negatives.len());
        let mut d2: Vec<f64> = Vec::with_capacity(negatives.len());
        assign_min(&negatives, &model.centroids, &mut assigned, &mut d2);
        let mut negative_clusters: Vec<VecBatch<D>> = vec![VecBatch::new(); b_actual];
        for i in 0..negatives.len() {
            negative_clusters[assigned[i] as usize].push(negatives.id(i), &negatives.row(i), false);
        }
        let mut partition = VoronoiPartition {
            centers: model.centroids,
            negative_clusters: negative_clusters.into_iter().map(Arc::new).collect(),
            center_dists: Vec::new(),
            positives,
            positive_ref: [0.0; D],
            positive_ref_dists: Vec::new(),
        };
        partition.rebalance();
        partition.sort_cells_by_center_distance();
        partition
    }

    /// The same partition with the distance metadata the bound-driven
    /// pruning reads removed: every scan over it is a full sweep and no
    /// cell has radius bounds for the annulus test. Cell membership and
    /// row order stay, so classification is bit-identical: the unpruned
    /// reference model is [`crate::FastKnn::from_partition`] over this.
    pub fn without_prune_metadata(mut self) -> Self {
        self.center_dists.clear();
        self.positive_ref_dists.clear();
        self
    }

    /// Sort each cell's residents by `(distance-to-centre, id)` and record
    /// the sorted linear distances in [`VoronoiPartition::center_dists`];
    /// then the same for the positives around their mean
    /// ([`VoronoiPartition::positive_ref`]).
    ///
    /// Runs after [`VoronoiPartition::rebalance`] so cell *membership* is
    /// untouched — only intra-cell row order changes, which classification
    /// cannot observe (candidate sets per cell are identical and the
    /// neighbourhood top-k is insertion-order-independent).
    fn sort_cells_by_center_distance(&mut self) {
        self.center_dists = Vec::with_capacity(self.negative_clusters.len());
        for (cid, cell) in self.negative_clusters.iter_mut().enumerate() {
            self.center_dists
                .push(sort_by_distance_to(Arc::make_mut(cell), &self.centers[cid]));
        }
        let n = self.positives.len();
        if n > 0 {
            self.positive_ref =
                std::array::from_fn(|d| self.positives.col(d).iter().sum::<f64>() / n as f64);
        }
        self.positive_ref_dists = sort_by_distance_to(&mut self.positives, &self.positive_ref);
    }

    /// Cell `cid`'s sorted resident-to-centre distances; empty when the
    /// partition carries no metadata for it (the scan then sweeps).
    pub fn center_dists_of(&self, cid: usize) -> &[f64] {
        self.center_dists.get(cid).map_or(&[], Vec::as_slice)
    }

    /// `(min, max)` resident-to-centre linear distance of a cell, when the
    /// cell is non-empty and its distance metadata is present.
    pub fn cell_radius_bounds(&self, cid: usize) -> Option<(f64, f64)> {
        let cds = self.center_dists_of(cid);
        match (cds.first(), cds.last()) {
            (Some(&lo), Some(&hi)) => Some((lo, hi)),
            _ => None,
        }
    }

    /// Split oversized cells into sibling chunks that share a centre.
    ///
    /// Exact-match field distances make pair-vector space a lattice: one
    /// lattice corner can hold 20%+ of all negative pairs, and no k-means
    /// assignment can split coincident points — so one task would dominate
    /// every stage and cap executor scaling (the load-balancing problem the
    /// paper lists as future work). Sibling chunks keep the search exact:
    /// the hyperplane distance between coincident centres is 0, so
    /// Algorithm 1 always selects a probed cell's siblings, and the
    /// all-negative shortcut only ever sees a *larger* k-th distance than
    /// the full cell's (conservative, never wrong).
    fn rebalance(&mut self) {
        let total: usize = self.negative_clusters.iter().map(|c| c.len()).sum();
        if total == 0 {
            return;
        }
        let cap = (2 * total / self.centers.len().max(1)).max(1);
        let mut extra_centers = Vec::new();
        let mut extra_clusters = Vec::new();
        for cid in 0..self.negative_clusters.len() {
            while self.negative_clusters[cid].len() > cap {
                let keep = self.negative_clusters[cid].len()
                    - cap.min(self.negative_clusters[cid].len() / 2);
                let chunk = Arc::make_mut(&mut self.negative_clusters[cid]).split_off(keep);
                extra_centers.push(self.centers[cid]);
                extra_clusters.push(Arc::new(chunk));
            }
        }
        self.centers.extend(extra_centers);
        self.negative_clusters.extend(extra_clusters);
    }

    /// Number of clusters.
    pub fn b(&self) -> usize {
        self.centers.len()
    }

    /// Voronoi cell of a query vector (nearest centre).
    pub fn assign(&self, v: &[f64; D]) -> usize {
        nearest_centroid(v, &self.centers).0
    }

    /// The centres tied for nearest to `v`, in index order: every centre
    /// within `TIE_EPS` of the minimum squared distance. Sibling chunks of
    /// a rebalanced cell share a centre, so they always tie. Never empty.
    fn tied_centers<'a>(&'a self, v: &'a [f64; D]) -> impl Iterator<Item = usize> + 'a {
        let best_d2 = self
            .centers
            .iter()
            .map(|c| squared_euclidean_fixed(v, c))
            .fold(f64::INFINITY, f64::min);
        self.centers
            .iter()
            .enumerate()
            .filter(move |(_, c)| is_tied(squared_euclidean_fixed(v, c), best_d2))
            .map(|(i, _)| i)
    }

    /// How many centres tie for nearest to `v` — the period of
    /// [`Self::assign_balanced`] in its tiebreak: two queries at `v` get one
    /// cell iff their tiebreaks agree modulo this count. At least 1.
    pub fn tie_count(&self, v: &[f64; D]) -> usize {
        self.tied_centers(v).count()
    }

    /// Voronoi cell with deterministic tie-spreading: when several centres
    /// are (near-)equidistant — sibling chunks of a rebalanced cell always
    /// are — pick among them by `tiebreak` (e.g. the query's id), spreading
    /// load instead of piling every query onto the first sibling.
    pub fn assign_balanced(&self, v: &[f64; D], tiebreak: u64) -> usize {
        let tied: Vec<usize> = self.tied_centers(v).collect();
        tied[tiebreak as usize % tied.len()]
    }

    /// [`Self::tie_count`] of every row of `batch`, appended to `out`
    /// (cleared first), off the tiled kernel: a batch's worth costs a
    /// fraction of as many scalar calls. `dist_scratch` is a reusable
    /// distance buffer; rows go through it `TIE_SWEEP_ROWS` at a time.
    pub fn tie_counts(
        &self,
        batch: &VecBatch<D>,
        out: &mut Vec<usize>,
        dist_scratch: &mut Vec<f64>,
    ) {
        out.clear();
        for start in (0..batch.len()).step_by(TIE_SWEEP_ROWS) {
            let n = TIE_SWEEP_ROWS.min(batch.len() - start);
            self.center_distances(batch, start, start + n, dist_scratch);
            out.extend((0..n).map(|i| tied_in_column(dist_scratch, n, i).count()));
        }
    }

    /// [`Self::assign_balanced`] for a whole batch, using each row's id as
    /// its tiebreak. Appends one cell index per row to `out` (cleared
    /// first); `dist_scratch` is a reusable `rows × centers` distance
    /// buffer.
    ///
    /// The distances come from the tiled kernel, which is bit-identical to
    /// the scalar one, and the tied set from the same `is_tied`: the same
    /// pick as the scalar path (see the `assign_balanced_batch_matches_scalar`
    /// proptest).
    pub fn assign_balanced_batch(
        &self,
        batch: &VecBatch<D>,
        out: &mut Vec<usize>,
        dist_scratch: &mut Vec<f64>,
    ) {
        let n = batch.len();
        out.clear();
        self.center_distances(batch, 0, n, dist_scratch);
        for (i, &id) in batch.ids().iter().enumerate() {
            let mut tied = tied_in_column(dist_scratch, n, i);
            let nth = id as usize % tied.clone().count();
            out.push(tied.nth(nth).expect("nth < the tied centres' count"));
        }
    }

    /// Centre-major distance matrix of rows `start..end` of `batch`:
    /// `dist[ci * (end - start) + i] = d²(row start + i, centre ci)`, each
    /// stripe one tiled 1×N kernel sweep.
    fn center_distances(&self, batch: &VecBatch<D>, start: usize, end: usize, dist: &mut Vec<f64>) {
        let n = end - start;
        dist.clear();
        dist.resize(self.centers.len() * n, 0.0);
        let mut stripe: Vec<f64> = Vec::new();
        for (ci, c) in self.centers.iter().enumerate() {
            distances_to_point_range(batch, c, start, end, &mut stripe);
            dist[ci * n..(ci + 1) * n].copy_from_slice(&stripe);
        }
    }

    /// Sizes of the negative clusters.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.negative_clusters.iter().map(|c| c.len()).collect()
    }

    /// Minimum **squared** distance from `v` to any positive pair, by the
    /// obvious scalar loop; `+∞` when there are no positives. The oracle
    /// the windowed positive scan's `min_sq` is tested against.
    #[cfg(test)]
    pub(crate) fn min_positive_distance_sq(&self, v: &[f64; D]) -> f64 {
        let mut best = f64::INFINITY;
        for i in 0..self.positives.len() {
            best = best.min(squared_euclidean_fixed(v, &self.positives.row(i)));
        }
        best
    }
}

/// Squared-distance slack within which centres count as equidistant from a
/// query. The one definition of a tie: [`VoronoiPartition::tie_count`],
/// [`VoronoiPartition::assign_balanced`] and
/// [`VoronoiPartition::assign_balanced_batch`] all go through [`is_tied`].
const TIE_EPS: f64 = 1e-12;

/// Is a centre at squared distance `d2` tied with the nearest, at `best_d2`?
#[inline]
fn is_tied(d2: f64, best_d2: f64) -> bool {
    d2 <= best_d2 + TIE_EPS
}

/// Rows whose centre distances [`VoronoiPartition::tie_counts`] holds at
/// once: 4,096 rows × 40-odd centres is 1.5 MB, whatever the batch.
const TIE_SWEEP_ROWS: usize = 4096;

/// The centres tied for nearest to row `i`, in index order, read off a
/// centre-major distance matrix of `n` rows.
fn tied_in_column(dist: &[f64], n: usize, i: usize) -> impl Iterator<Item = usize> + Clone + '_ {
    let column = move || dist.iter().skip(i).step_by(n);
    let best_d2 = column().copied().fold(f64::INFINITY, f64::min);
    column()
        .enumerate()
        .filter(move |(_, &d2)| is_tied(d2, best_d2))
        .map(|(ci, _)| ci)
}

/// Reorder `cell`'s rows by `(distance to point, id)` and return the sorted
/// **linear** distances, parallel to the new row order.
fn sort_by_distance_to<const D: usize>(cell: &mut VecBatch<D>, point: &[f64; D]) -> Vec<f64> {
    let mut d2: Vec<f64> = Vec::new();
    distances_to_point(cell, point, &mut d2);
    let mut idx: Vec<usize> = (0..cell.len()).collect();
    idx.sort_unstable_by(|&a, &b| {
        d2[a]
            .total_cmp(&d2[b])
            .then_with(|| cell.id(a).cmp(&cell.id(b)))
    });
    *cell = cell.gather(&idx);
    idx.iter().map(|&i| d2[i].sqrt()).collect()
}

/// Distance from `s` to the hyperplane separating the Voronoi cells of
/// centres `pi` (the cell `s` belongs to) and `pj` — the paper's Eq. 7,
/// after Hjaltason & Samet:
///
/// ```text
/// d(s, h) = (d(s, pj)² − d(s, pi)²) / (2 · d(pi, pj))
/// ```
///
/// Non-negative whenever `s` is genuinely closer to `pi`. This is a linear
/// (not squared) distance — the one place besides Eq. 5 scoring where a
/// square root is taken.
pub fn hyperplane_distance<const D: usize>(s: &[f64; D], pi: &[f64; D], pj: &[f64; D]) -> f64 {
    let dij = euclidean_fixed(pi, pj);
    if dij == 0.0 {
        // Coincident centres: the "hyperplane" is everywhere; no bound.
        return 0.0;
    }
    (squared_euclidean_fixed(s, pj) - squared_euclidean_fixed(s, pi)) / (2.0 * dij)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simmetrics::{euclidean, squared_euclidean};

    fn make_train() -> Vec<LabeledPair<2>> {
        let mut train = Vec::new();
        // Two negative blobs.
        for i in 0..30 {
            let t = i as f64 * 0.01;
            train.push(LabeledPair::new(i, [t, t], false));
            train.push(LabeledPair::new(100 + i, [8.0 + t, 8.0 - t], false));
        }
        // A few positives near the first blob.
        for i in 0..3 {
            train.push(LabeledPair::new(
                200 + i,
                [0.5 + i as f64 * 0.01, 0.5],
                true,
            ));
        }
        train
    }

    #[test]
    fn build_separates_positives_from_clusters() {
        let vp = VoronoiPartition::build(&make_train(), 2, 42);
        assert_eq!(vp.b(), 2);
        assert_eq!(vp.positives.len(), 3);
        let total_negs: usize = vp.cluster_sizes().iter().sum();
        assert_eq!(total_negs, 60);
    }

    #[test]
    fn voronoi_property_of_assignment() {
        let vp = VoronoiPartition::build(&make_train(), 3, 7);
        for (cid, cluster) in vp.negative_clusters.iter().enumerate() {
            for r in 0..cluster.len() {
                let v = cluster.row(r);
                let own = squared_euclidean(&v, &vp.centers[cid]);
                for (j, c) in vp.centers.iter().enumerate() {
                    if j != cid {
                        assert!(
                            own <= squared_euclidean(&v, c) + 1e-9,
                            "pair {} violates the Voronoi property",
                            cluster.id(r)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn assign_matches_nearest_center() {
        let vp = VoronoiPartition::build(&make_train(), 2, 42);
        let near_blob_a = vp.assign(&[0.1, 0.1]);
        let near_blob_b = vp.assign(&[8.0, 8.0]);
        assert_ne!(near_blob_a, near_blob_b);
    }

    #[test]
    fn assign_balanced_spreads_ties_but_respects_nearest() {
        let vp = VoronoiPartition::build(&make_train(), 2, 42);
        // Unique nearest centre: every tiebreak agrees with assign().
        for tb in 0..8u64 {
            assert_eq!(vp.assign_balanced(&[0.1, 0.1], tb), vp.assign(&[0.1, 0.1]));
        }
        // Duplicated centres (as rebalance produces): ties spread by id.
        let dup = VoronoiPartition::<2> {
            centers: vec![[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]],
            negative_clusters: vec![Arc::default(); 3],
            center_dists: Vec::new(),
            positives: VecBatch::new(),
            positive_ref: [0.0; 2],
            positive_ref_dists: Vec::new(),
        };
        let a = dup.assign_balanced(&[0.1, 0.0], 0);
        let b = dup.assign_balanced(&[0.1, 0.0], 1);
        assert_ne!(a, b, "coincident centres must spread by tiebreak");
        assert!(a < 2 && b < 2, "never a farther centre");
    }

    #[test]
    fn min_positive_distance_finds_the_closest_positive() {
        let vp = VoronoiPartition::build(&make_train(), 2, 42);
        let d2 = vp.min_positive_distance_sq(&[0.5, 0.5]);
        assert!(d2.sqrt() < 0.05, "got {}", d2.sqrt());
        let none = VoronoiPartition::build(&[LabeledPair::new(0, [0.0], false)], 1, 1);
        assert_eq!(none.min_positive_distance_sq(&[0.0]), f64::INFINITY);
    }

    #[test]
    fn cells_are_sorted_by_center_distance_with_id_tiebreak() {
        let vp = VoronoiPartition::build(&make_train(), 3, 7);
        assert_eq!(vp.center_dists.len(), vp.negative_clusters.len());
        for (cid, cell) in vp.negative_clusters.iter().enumerate() {
            let cds = &vp.center_dists[cid];
            assert_eq!(cds.len(), cell.len());
            for (r, cd) in cds.iter().enumerate() {
                let want = euclidean(&cell.row(r), &vp.centers[cid]);
                assert_eq!(cd.to_bits(), want.to_bits(), "stale distance");
            }
            for w in 0..cell.len().saturating_sub(1) {
                assert!(
                    cds[w] < cds[w + 1] || (cds[w] == cds[w + 1] && cell.id(w) < cell.id(w + 1)),
                    "cell {cid} not sorted by (distance, id) at row {w}"
                );
            }
            if let Some((lo, hi)) = vp.cell_radius_bounds(cid) {
                assert_eq!(lo.to_bits(), cds[0].to_bits());
                assert_eq!(hi.to_bits(), cds[cell.len() - 1].to_bits());
            } else {
                assert!(cell.is_empty());
            }
        }
        // The positives are one more sorted cell, around their mean.
        let (p, pds) = (&vp.positives, &vp.positive_ref_dists);
        assert_eq!(pds.len(), p.len());
        for d in 0..2 {
            // Summed here in sorted row order, at build in training order.
            let mean = p.col(d).iter().sum::<f64>() / p.len() as f64;
            assert!((vp.positive_ref[d] - mean).abs() < 1e-12);
        }
        for (r, pd) in pds.iter().enumerate() {
            let want = euclidean(&p.row(r), &vp.positive_ref);
            assert_eq!(pd.to_bits(), want.to_bits(), "stale positive distance");
        }
        for w in 0..p.len() - 1 {
            assert!(
                pds[w] < pds[w + 1] || (pds[w] == pds[w + 1] && p.id(w) < p.id(w + 1)),
                "positives not sorted by (distance, id) at row {w}"
            );
        }
        let bare = vp.clone().without_prune_metadata();
        assert!(bare.center_dists.is_empty() && bare.positive_ref_dists.is_empty());
        assert!((0..bare.b()).all(|c| bare.cell_radius_bounds(c).is_none()));
    }

    #[test]
    fn hyperplane_distance_midpoint_is_zero() {
        let pi = [0.0, 0.0];
        let pj = [2.0, 0.0];
        // The midpoint lies ON the hyperplane.
        assert!(hyperplane_distance(&[1.0, 0.0], &pi, &pj).abs() < 1e-12);
        // A point at pi is 1.0 from the plane.
        assert!((hyperplane_distance(&[0.0, 0.0], &pi, &pj) - 1.0).abs() < 1e-12);
        // Coincident centres degrade gracefully.
        assert_eq!(hyperplane_distance(&[1.0, 1.0], &pi, &pi), 0.0);
    }

    proptest! {
        /// The geometric fact observation 4 relies on: for any point x in
        /// pj's half-space, d(s, x) >= d(s, h).
        #[test]
        fn hyperplane_bound_is_sound(
            s in prop::collection::vec(-5.0f64..5.0, 2),
            x in prop::collection::vec(-5.0f64..5.0, 2),
        ) {
            let s: [f64; 2] = s.try_into().unwrap();
            let x: [f64; 2] = x.try_into().unwrap();
            let pi = [-1.0, 0.0];
            let pj = [1.0, 0.0];
            // Only test when s is in pi's cell and x in pj's cell.
            prop_assume!(squared_euclidean(&s, &pi) < squared_euclidean(&s, &pj));
            prop_assume!(squared_euclidean(&x, &pj) <= squared_euclidean(&x, &pi));
            let bound = hyperplane_distance(&s, &pi, &pj);
            prop_assert!(euclidean(&s, &x) >= bound - 1e-9,
                "point {:?} beats the hyperplane bound {bound}", x);
        }

        /// The tied set and the pick match a scan written out longhand.
        #[test]
        fn assign_balanced_matches_two_pass_reference(
            centers in prop::collection::vec(
                prop::collection::vec(0.0f64..1.0, 2), 1..12),
            v in prop::collection::vec(0.0f64..1.0, 2),
            tiebreak in 0u64..100,
        ) {
            let centers: Vec<[f64; 2]> =
                centers.into_iter().map(|c| c.try_into().unwrap()).collect();
            let v: [f64; 2] = v.try_into().unwrap();
            let vp = VoronoiPartition::<2> {
                negative_clusters: vec![Arc::default(); centers.len()],
                center_dists: Vec::new(),
                positives: VecBatch::new(),
                positive_ref: [0.0; 2],
                positive_ref_dists: Vec::new(),
                centers,
            };
            let best = vp
                .centers
                .iter()
                .map(|c| squared_euclidean(&v, c))
                .fold(f64::INFINITY, f64::min);
            let tied: Vec<usize> = vp
                .centers
                .iter()
                .enumerate()
                .filter(|(_, c)| squared_euclidean(&v, *c) <= best + 1e-12)
                .map(|(i, _)| i)
                .collect();
            let expect = tied[(tiebreak as usize) % tied.len()];
            prop_assert_eq!(vp.assign_balanced(&v, tiebreak), expect);
        }

        /// On lattice centres, where coincident and equidistant centres
        /// are the rule: `tie_count(v)` is exactly the period of
        /// `assign_balanced(v, ·)` — one lap visits `tie_count` different
        /// cells, every later lap repeats it — and the batched assignment
        /// and `tie_counts` see the same lap over the same tied set.
        #[test]
        fn tie_count_is_the_period_of_the_balanced_assignment(
            centers in prop::collection::vec((0usize..3, 0usize..3), 1..9),
            v in (0usize..3, 0usize..3),
        ) {
            let on_lattice = |(x, y): (usize, usize)| [x as f64 * 0.5, y as f64 * 0.5];
            let vp = VoronoiPartition::<2> {
                centers: centers.into_iter().map(on_lattice).collect(),
                negative_clusters: Vec::new(),
                center_dists: Vec::new(),
                positives: VecBatch::new(),
                positive_ref: [0.0; 2],
                positive_ref_dists: Vec::new(),
            };
            let v = on_lattice(v);
            let t = vp.tie_count(&v);
            prop_assert!((1..=vp.b()).contains(&t));
            let lap: Vec<usize> = (0..t as u64).map(|tb| vp.assign_balanced(&v, tb)).collect();
            prop_assert!(lap.windows(2).all(|w| w[0] < w[1]), "t distinct cells: {:?}", lap);
            let best = squared_euclidean(&v, &vp.centers[vp.assign(&v)]);
            for &cell in &lap {
                prop_assert!(squared_euclidean(&v, &vp.centers[cell]) <= best + 1e-12);
            }
            let mut batch = VecBatch::<2>::new();
            for id in 0..3 * t as u64 {
                prop_assert_eq!(vp.assign_balanced(&v, id), lap[id as usize % t]);
                batch.push(id, &v, false);
            }
            let (mut cells, mut scratch) = (Vec::new(), Vec::new());
            vp.assign_balanced_batch(&batch, &mut cells, &mut scratch);
            for (id, &cell) in cells.iter().enumerate() {
                prop_assert_eq!(cell, lap[id % t]);
            }
            vp.tie_counts(&batch, &mut cells, &mut scratch);
            prop_assert_eq!(cells, vec![t; 3 * t]);
        }

        /// The batched assignment agrees with the scalar per-row path.
        #[test]
        fn assign_balanced_batch_matches_scalar(
            centers in prop::collection::vec(
                prop::collection::vec(0.0f64..1.0, 2), 1..10),
            rows in prop::collection::vec(
                (prop::collection::vec(0.0f64..1.0, 2), 0u64..50), 0..40),
        ) {
            let centers: Vec<[f64; 2]> =
                centers.into_iter().map(|c| c.try_into().unwrap()).collect();
            let vp = VoronoiPartition::<2> {
                negative_clusters: vec![Arc::default(); centers.len()],
                center_dists: Vec::new(),
                positives: VecBatch::new(),
                positive_ref: [0.0; 2],
                positive_ref_dists: Vec::new(),
                centers,
            };
            let mut batch = VecBatch::<2>::new();
            for (v, id) in &rows {
                let v: [f64; 2] = v.clone().try_into().unwrap();
                batch.push(*id, &v, false);
            }
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            vp.assign_balanced_batch(&batch, &mut out, &mut scratch);
            prop_assert_eq!(out.len(), rows.len());
            for (i, (v, id)) in rows.iter().enumerate() {
                let v: [f64; 2] = v.clone().try_into().unwrap();
                prop_assert_eq!(out[i], vp.assign_balanced(&v, *id));
            }
        }
    }
}
