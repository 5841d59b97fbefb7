//! Voronoi partitioning of the training pairs (§4.3.1) and the
//! hyperplane-distance bound of Eq. 7.

use crate::lattice::{free_of_nan, on_lattice, LatticeIndex, LATTICE_BITS};
use crate::prune::{scan_in_order, CellScanStats};
use crate::soa::{
    assign_min, distances_to_point, distances_to_point_range, from_labeled, VecBatch,
};
use crate::types::{LabeledPair, Neighborhood, PAIR_DIMS};
use mlcore::kmeans::{nearest_centroid, KMeans};
use simmetrics::{euclidean_fixed, squared_euclidean_fixed};
use std::sync::{Arc, OnceLock};

/// The k-means Voronoi partition of a training set.
///
/// Cluster centres are kept in (driver) memory — §4.3.1: "The center of
/// each cluster is calculated and stored in memory." Negative pairs are
/// bucketed per cluster; positive pairs are few (observation 1) and kept as
/// one global batch compared against every test pair. Both sides are stored
/// as struct-of-arrays [`VecBatch`] columns, so every distance scan over a
/// cell runs the tiled vector kernels instead of striding over row structs.
///
/// # Two orders over one layout
///
/// A scan walks a cell (or the positives) in one of two orders, the
/// [`Walk`]:
///
/// * **[`Walk::Center`]**, Algorithm 2's: residents by `(distance to the
///   cell's centre, id)` and the positives by `(distance to their mean,
///   id)`, windowed by [`crate::prune::scan_cell_pruned`]. Figs. 6b–11
///   count its comparisons.
/// * **[`Walk::Lattice`]**, the product's: on data whose first
///   [`LATTICE_BITS`] columns are all 0 or 1 (§4.2's exact-match fields)
///   and whose later columns hold no NaN, a cell is a trie — at most 32
///   buckets visited in Hamming order, each a tree of its Jaccard values
///   walked outward from the query's ([`crate::lattice`]). On other data
///   it is the centre order.
///
/// Rows are stored once, in the order the product walks. On lattice data
/// the centre order is a permutation over those rows, derived on the first
/// [`Walk::Center`] scan rather than at `build`: only Algorithm 2 reads it.
#[derive(Debug, Clone)]
pub struct VoronoiPartition<const D: usize = PAIR_DIMS> {
    /// Cluster centres `p_1 … p_b`.
    pub centers: Vec<[f64; D]>,
    /// Negative training pairs per cluster, one column batch per cell.
    ///
    /// Resident order within a cell never affects classification (the
    /// neighbourhood is a total-order top-k over the candidate *set*), so
    /// the layout is lossless. Each cell sits behind an `Arc`, so
    /// [`crate::FastKnn::fit`] hands the engine these very cells instead of
    /// a copy of the negative store.
    pub negative_clusters: Vec<Arc<VecBatch<D>>>,
    /// All positive training pairs (global), as one column batch, laid out
    /// like one more cell.
    pub positives: VecBatch<D>,
    /// The reference point of the positives' centre order: their mean, in
    /// training order. Any point would keep the scan lossless (the triangle
    /// inequality holds about every point); the mean keeps the window
    /// narrow.
    pub positive_ref: [f64; D],
    /// Per cell, the `(min, max)` linear distance of its residents to its
    /// centre (`None` for an empty cell): Algorithm 1's annulus bound.
    /// Empty without distance metadata.
    radius_bounds: Vec<Option<(f64, f64)>>,
    /// The [`LatticeIndex`] of every cell, then of the positives, when
    /// `build` found the data on the lattice.
    lattice: Option<Vec<LatticeIndex<D>>>,
    /// The centre order of every cell, then the positives' order around
    /// [`VoronoiPartition::positive_ref`]. Set by `build` when the rows
    /// are stored in it, derived on first use over a lattice layout; all
    /// empty without distance metadata, and the scans then sweep.
    center_order: OnceLock<Vec<RefOrder>>,
}

/// Which order a scan walks a batch of rows in (see [`VoronoiPartition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Algorithm 2's: by distance to the cell's centre.
    Center,
    /// The product's: the lattice's trie where the partition has one, else
    /// the centre order.
    Lattice,
}

/// A batch's rows in `(distance to a reference point, id)` order: what a
/// [`Walk::Center`] scan walks.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefOrder {
    /// Linear distance to the reference point at each position, ascending;
    /// empty when the batch has no distance metadata (the scan sweeps).
    pub(crate) dists: Vec<f64>,
    /// The row at each position; empty when the rows are stored in this
    /// order.
    pub(crate) rows: Vec<u32>,
}

impl RefOrder {
    /// The order the rows are stored in, at linear distances `dists`.
    fn stored(dists: Vec<f64>) -> Self {
        RefOrder {
            dists,
            rows: Vec::new(),
        }
    }
}

/// How many training vectors k-means fits on at most; larger sets are
/// subsampled deterministically (stride sampling) before fitting, then every
/// pair is assigned to its nearest fitted centre. The Voronoi property the
/// correctness argument needs — "each pair is closer to its own centre than
/// to any other" — holds by construction of the assignment step regardless
/// of how centres were obtained.
pub const KMEANS_FIT_CAP: usize = 20_000;

impl<const D: usize> VoronoiPartition<D> {
    /// Partition `train` into `b` Voronoi cells via k-means, reading it
    /// into one column batch first: the partition
    /// [`FastKnn::fit_batch`](crate::FastKnn::fit_batch) builds from the
    /// same rows in columns, here all on the calling thread.
    ///
    /// # Panics
    /// Panics if `train` is empty or `b == 0`.
    pub fn build(train: &[LabeledPair<D>], b: usize, seed: u64) -> Self {
        Self::build_batch(&from_labeled(train), b, seed, 1)
    }

    /// Partition the rows of `all` — training pairs as columns, each under
    /// its id and label — into `b` Voronoi cells via k-means. The k-means
    /// sample is `all` or a strided gather of it, and the cells and the
    /// positives are lists of its rows until `lay_out` gathers each once,
    /// in its final order, on up to `slots` threads (see
    /// [`layout_parts`]). The partition is the same on any number.
    ///
    /// # Panics
    /// Panics if `all` is empty or `b == 0`.
    pub(crate) fn build_batch(all: &VecBatch<D>, b: usize, seed: u64, slots: usize) -> Self {
        assert!(!all.is_empty(), "cannot partition an empty training set");
        assert!(b > 0, "cluster number must be positive");
        let kmeans = KMeans {
            k: b,
            max_iters: 25,
            tol: 1e-9,
            seed,
        };
        let mut centers = if all.len() > KMEANS_FIT_CAP {
            let stride = all.len() / KMEANS_FIT_CAP + 1;
            let sample: Vec<usize> = (0..all.len()).step_by(stride).collect();
            kmeans.fit_centroids(&all.gather(&sample))
        } else {
            kmeans.fit_centroids(all)
        };
        // One fused assign_min sweep (bit-identical to per-row
        // nearest_centroid) buckets every negative; the positives ride
        // along, being few (observation 1), and their cells are not read.
        let mut assigned: Vec<u32> = Vec::with_capacity(all.len());
        let mut d2: Vec<f64> = Vec::with_capacity(all.len());
        assign_min(all, &centers, &mut assigned, &mut d2);
        // Cells as lists of rows, in training order.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); centers.len()];
        let mut positives: Vec<usize> = Vec::new();
        for (i, (&cid, &positive)) in assigned.iter().zip(all.labels()).enumerate() {
            match positive {
                true => positives.push(i),
                false => members[cid as usize].push(i),
            }
        }
        rebalance(&mut centers, &mut members);
        let lattice = D > LATTICE_BITS
            && (0..LATTICE_BITS).all(|d| on_lattice(all.col(d)))
            && (LATTICE_BITS..D).all(|d| free_of_nan(all.col(d)));
        let parts = layout_parts(all.len(), slots);
        Self::lay_out(centers, all, &members, &d2, &positives, lattice, parts)
    }

    /// A partition of the given cells with no distance metadata, as tests
    /// assemble one by hand: every scan sweeps, and Algorithm 1 has no
    /// radius bounds.
    #[cfg(test)]
    pub(crate) fn from_cells(
        centers: Vec<[f64; D]>,
        negative_clusters: Vec<VecBatch<D>>,
        positives: VecBatch<D>,
    ) -> Self {
        let batches = negative_clusters.len() + 1;
        VoronoiPartition {
            centers,
            negative_clusters: negative_clusters.into_iter().map(Arc::new).collect(),
            positives,
            positive_ref: [0.0; D],
            radius_bounds: Vec::new(),
            lattice: None,
            center_order: OnceLock::from(vec![RefOrder::default(); batches]),
        }
    }

    /// The same partition with the distance metadata the bound-driven
    /// pruning reads removed: every scan over it is a full sweep and no
    /// cell has radius bounds for the annulus test. Cell membership and
    /// row order stay, so classification is bit-identical: the unpruned
    /// reference model is [`crate::FastKnn::from_partition`] over this.
    pub fn without_prune_metadata(mut self) -> Self {
        self.radius_bounds.clear();
        self.lattice = None;
        self.center_order = OnceLock::from(vec![RefOrder::default(); self.b() + 1]);
        self
    }

    /// Does the partition store its rows on the lattice (see [`Walk`])?
    #[cfg(test)]
    pub(crate) fn on_lattice(&self) -> bool {
        self.lattice.is_some()
    }

    /// The partition of the rows of `all`: the cells `members` (lists of
    /// rows, after [`rebalance`]) around `centers`, and the `positives`
    /// rows, each batch gathered once in the order the product walks.
    /// `center_d2[i]` is row `i`'s squared distance to its centre:
    /// `assign_min` computes it as `distances_to_point` would, bit for bit.
    /// Row order never shows in classification (candidate sets per cell are
    /// fixed and the neighbourhood top-k is insertion-order-independent).
    ///
    /// Off the lattice, each cell's rows are sorted by `(distance to the
    /// centre, id)` and the positives' by `(distance to their mean, id)`:
    /// the centre order is the storage order. On it, every batch gets its
    /// [`LatticeIndex`] order.
    ///
    /// The batches — the cells, then the positives — are laid out in
    /// `parts` contiguous runs of about equal rows ([`lay_out_batches`]):
    /// the calling thread lays out the first while a scoped helper lays
    /// out each later one. Each batch is laid out whole by one thread, so
    /// the partition is the same for any `parts`.
    fn lay_out(
        centers: Vec<[f64; D]>,
        all: &VecBatch<D>,
        members: &[Vec<usize>],
        center_d2: &[f64],
        positives: &[usize],
        lattice: bool,
        parts: usize,
    ) -> Self {
        let n = positives.len();
        let mut positive_ref = [0.0; D];
        if n > 0 {
            positive_ref = std::array::from_fn(|d| {
                let col = all.col(d);
                positives.iter().map(|&r| col[r]).sum::<f64>() / n as f64
            });
        }
        let sizes: Vec<usize> = members.iter().map(Vec::len).chain([n]).collect();
        let rows_of = |i: usize| members.get(i).map_or(positives, Vec::as_slice);
        // A cell's `(min, max)` distance to its centre, taken by the thread
        // that lays the cell out; `f64::min` and `max` ignore order.
        let bounds_of = |i: usize| {
            let rows = members.get(i)?;
            let lo = rows.iter().map(|&r| center_d2[r]).reduce(f64::min)?;
            let hi = rows.iter().map(|&r| center_d2[r]).reduce(f64::max)?;
            Some((lo.sqrt(), hi.sqrt()))
        };
        let (laid, lattice, center_order) = if lattice {
            let laid = lay_out_batches(&sizes, parts, |i| {
                let (order, index) = LatticeIndex::build(all, rows_of(i));
                ((all.gather(&order), bounds_of(i)), index)
            });
            let (laid, indexes): (Vec<_>, Vec<_>) = laid.into_iter().unzip();
            (laid, Some(indexes), OnceLock::new())
        } else {
            let laid = lay_out_batches(&sizes, parts, |i| match members.get(i) {
                Some(rows) => {
                    let (order, dists) = order_by(all, center_d2, rows);
                    ((all.gather(&order), bounds_of(i)), RefOrder::stored(dists))
                }
                None => {
                    let positives = all.gather(positives);
                    let mut d2 = Vec::new();
                    distances_to_point(&positives, &positive_ref, &mut d2);
                    let every_positive: Vec<usize> = (0..n).collect();
                    let (order, dists) = order_by(&positives, &d2, &every_positive);
                    ((positives.gather(&order), None), RefOrder::stored(dists))
                }
            });
            let (laid, orders): (Vec<_>, Vec<_>) = laid.into_iter().unzip();
            (laid, None, OnceLock::from(orders))
        };
        let (mut cells, mut radius_bounds): (Vec<_>, Vec<_>) = laid.into_iter().unzip();
        let positives = cells.pop().expect("the positives are the last batch");
        radius_bounds.pop();
        VoronoiPartition {
            centers,
            negative_clusters: cells.into_iter().map(Arc::new).collect(),
            positives,
            positive_ref,
            radius_bounds,
            lattice,
            center_order,
        }
    }

    /// The centre order of every cell, then the positives' (see
    /// [`VoronoiPartition::center_order`]'s field), derived on first use
    /// over a lattice layout.
    fn center_orders(&self) -> &[RefOrder] {
        self.center_order.get_or_init(|| {
            let mut d2 = Vec::new();
            let reference = |i: usize| match self.centers.get(i) {
                Some(center) => center,
                None => &self.positive_ref,
            };
            (0..=self.b())
                .map(|i| {
                    let batch = self.batch(i);
                    distances_to_point(batch, reference(i), &mut d2);
                    let every_row: Vec<usize> = (0..batch.len()).collect();
                    let (order, dists) = order_by(batch, &d2, &every_row);
                    RefOrder {
                        dists,
                        rows: order.into_iter().map(|r| r as u32).collect(),
                    }
                })
                .collect()
        })
    }

    /// Batch `i`: cell `i` for `i < b`, the positives at `i == b`.
    fn batch(&self, i: usize) -> &VecBatch<D> {
        match self.negative_clusters.get(i) {
            Some(cell) => cell,
            None => &self.positives,
        }
    }

    /// Scan cell `cid` — its rows `cell`, the partition's own or the
    /// engine's copy of them — into `hood` in the order `walk` names.
    /// `initial_cutoff_sq` and the result are
    /// [`crate::prune::scan_cell_pruned`]'s: the hood is bit-identical to
    /// offering every resident, and every resident is evaluated or
    /// bound-rejected.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_cell(
        &self,
        walk: Walk,
        cid: usize,
        cell: &VecBatch<D>,
        v: &[f64; D],
        initial_cutoff_sq: f64,
        hood: &mut Neighborhood,
        dists: &mut Vec<f64>,
    ) -> CellScanStats {
        let center = &self.centers[cid];
        self.scan(walk, cid, cell, center, v, initial_cutoff_sq, hood, dists)
    }

    /// [`VoronoiPartition::scan_cell`] over the positives. Its `min_sq` is
    /// stage 1's `min(s, T⁺)²` wherever Algorithm 1 reads it (see
    /// [`crate::stage1`]).
    pub fn scan_positives(
        &self,
        walk: Walk,
        v: &[f64; D],
        initial_cutoff_sq: f64,
        hood: &mut Neighborhood,
        dists: &mut Vec<f64>,
    ) -> CellScanStats {
        let (i, reference) = (self.b(), &self.positive_ref);
        self.scan(
            walk,
            i,
            &self.positives,
            reference,
            v,
            initial_cutoff_sq,
            hood,
            dists,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn scan(
        &self,
        walk: Walk,
        i: usize,
        rows: &VecBatch<D>,
        reference: &[f64; D],
        v: &[f64; D],
        initial_cutoff_sq: f64,
        hood: &mut Neighborhood,
        dists: &mut Vec<f64>,
    ) -> CellScanStats {
        if let (Walk::Lattice, Some(lattice)) = (walk, &self.lattice) {
            return lattice[i].scan(rows, v, initial_cutoff_sq, hood, dists);
        }
        let ds = squared_euclidean_fixed(v, reference).sqrt();
        let order = &self.center_orders()[i];
        scan_in_order(rows, order, v, ds, initial_cutoff_sq, hood, dists)
    }

    /// `(min, max)` resident-to-centre linear distance of a cell, when the
    /// cell is non-empty and its distance metadata is present.
    pub fn cell_radius_bounds(&self, cid: usize) -> Option<(f64, f64)> {
        self.radius_bounds.get(cid).copied().flatten()
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
///
/// `members[c]` lists cell `c`'s rows; a chunk is a tail of that list.
fn rebalance<const D: usize>(centers: &mut Vec<[f64; D]>, members: &mut Vec<Vec<usize>>) {
    let total: usize = members.iter().map(Vec::len).sum();
    if total == 0 {
        return;
    }
    let cap = (2 * total / centers.len().max(1)).max(1);
    for cid in 0..members.len() {
        while members[cid].len() > cap {
            let keep = members[cid].len() - cap.min(members[cid].len() / 2);
            let chunk = members[cid].split_off(keep);
            centers.push(centers[cid]);
            members.push(chunk);
        }
    }
}

/// Training rows per slot below which [`VoronoiPartition::build_batch`]
/// lays its batches out on fewer threads: a scoped helper costs ≈ 55 µs to
/// start and join, and laying out 1,024 rows ≈ 0.1 ms (two vCPUs), so a
/// helper with fewer rows than this saves less than it costs.
const MIN_LAYOUT_ROWS_PER_SLOT: usize = 1_024;

/// Runs a layout of `rows` training rows is cut into on `slots` threads:
/// as many as get [`MIN_LAYOUT_ROWS_PER_SLOT`] each, at least one.
fn layout_parts(rows: usize, slots: usize) -> usize {
    slots.min(rows / MIN_LAYOUT_ROWS_PER_SLOT).max(1)
}

/// `lay(i)` for every batch `i` in `0..sizes.len()`, in batch order. The
/// batches, of `sizes[i]` rows, are cut into up to `parts` contiguous runs
/// of about equal rows ([`run_starts`]); the calling thread lays out the
/// first run while a scoped helper lays out each later one, and the
/// results are assembled in batch order. A helper panic resumes on the
/// calling thread.
fn lay_out_batches<T: Send>(
    sizes: &[usize],
    parts: usize,
    lay: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let starts = run_starts(sizes, parts);
    let Some(&first_end) = starts.first() else {
        return (0..sizes.len()).map(lay).collect();
    };
    let lay = &lay;
    let ends = starts.iter().skip(1).copied().chain([sizes.len()]);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (starts.iter().zip(ends))
            .map(|(&start, end)| scope.spawn(move || (start..end).map(lay).collect::<Vec<T>>()))
            .collect();
        let mut laid: Vec<T> = Vec::with_capacity(sizes.len());
        laid.extend((0..first_end).map(lay));
        for helper in helpers {
            let run = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            laid.extend(run);
        }
        laid
    })
}

/// Where [`lay_out_batches`] cuts batches of `sizes` rows into `parts`
/// runs: the first batch of every run after the first, ascending. Run `k`
/// starts at the first batch whose middle row lies past `k/parts` of all
/// rows, so no run is empty; a batch larger than a run's share leaves
/// fewer runs.
fn run_starts(sizes: &[usize], parts: usize) -> Vec<usize> {
    let total: usize = sizes.iter().sum();
    let mut starts = Vec::with_capacity(parts.saturating_sub(1));
    let mut before = 0;
    for (i, &n) in sizes.iter().enumerate() {
        let k = starts.len() + 1;
        if i > 0 && k < parts && (2 * before + n) * parts >= 2 * total * k {
            starts.push(i);
        }
        before += n;
    }
    starts
}

/// `rows` of `batch` in `(d2, id)` order, and their **linear** distances
/// in that order; `d2[r]` is row `r`'s squared distance to the reference
/// point.
fn order_by<const D: usize>(
    batch: &VecBatch<D>,
    d2: &[f64],
    rows: &[usize],
) -> (Vec<usize>, Vec<f64>) {
    let mut keys: Vec<RowKey> = rows
        .iter()
        .map(|&r| row_key(d2[r], batch.id(r), r))
        .collect();
    keys.sort_unstable();
    let order: Vec<usize> = keys.iter().map(|&(_, _, r)| r).collect();
    let dists = order.iter().map(|&r| d2[r].sqrt()).collect();
    (order, dists)
}

/// A row's sort key: its squared distance as [`f64::total_cmp`] orders
/// it, then its id, then where the row is. Sorting keys in place is
/// cheaper than sorting indices through a comparator that looks both up.
type RowKey = (i64, u64, usize);

/// The [`RowKey`] of the row at `at`, with squared distance `d2` and `id`.
fn row_key(d2: f64, id: u64, at: usize) -> RowKey {
    let bits = d2.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, id, at)
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
        let dup = VoronoiPartition::<2>::from_cells(
            vec![[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]],
            vec![VecBatch::new(); 3],
            VecBatch::new(),
        );
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

    /// Every batch's centre order visits its rows by `(squared distance to
    /// the reference point, id)`, carries those distances bit for bit, and
    /// gives the cells' radius bounds.
    fn assert_center_orders<const D: usize>(vp: &VoronoiPartition<D>) {
        let orders = vp.center_orders();
        assert_eq!(orders.len(), vp.b() + 1);
        for (i, order) in orders.iter().enumerate() {
            let batch = vp.batch(i);
            let reference = vp.centers.get(i).unwrap_or(&vp.positive_ref);
            assert_eq!(order.dists.len(), batch.len());
            let rows: Vec<usize> = match order.rows.len() {
                0 => (0..batch.len()).collect(),
                _ => order.rows.iter().map(|&r| r as usize).collect(),
            };
            let mut seen = rows.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..batch.len()).collect::<Vec<_>>(), "a permutation");
            for (&r, d) in rows.iter().zip(&order.dists) {
                let want = euclidean(&batch.row(r), reference);
                assert_eq!(d.to_bits(), want.to_bits(), "stale distance");
            }
            // Sorted on the squares, which two rows can differ in and
            // still share a root.
            let d2 = |w: usize| squared_euclidean_fixed(&batch.row(rows[w]), reference);
            for w in 1..rows.len() {
                let (a, b) = (d2(w - 1), d2(w));
                let ids = (batch.id(rows[w - 1]), batch.id(rows[w]));
                assert!(
                    a < b || (a == b && ids.0 < ids.1),
                    "batch {i} unsorted at {w}"
                );
            }
            if i < vp.b() {
                let bounds = order
                    .dists
                    .first()
                    .copied()
                    .zip(order.dists.last().copied());
                let got = vp.cell_radius_bounds(i);
                assert_eq!(
                    got.map(|(l, h)| (l.to_bits(), h.to_bits())),
                    bounds.map(|(l, h)| (l.to_bits(), h.to_bits()))
                );
            }
        }
    }

    #[test]
    fn cells_are_sorted_by_center_distance_with_id_tiebreak() {
        let vp = VoronoiPartition::build(&make_train(), 3, 7);
        assert!(!vp.on_lattice());
        assert!(vp.center_order.get().is_some(), "set at build");
        assert!(
            vp.center_orders().iter().all(|o| o.rows.is_empty()),
            "stored in it"
        );
        assert_center_orders(&vp);
        for d in 0..2 {
            // Summed here in sorted row order, at build in training order.
            let p = &vp.positives;
            let mean = p.col(d).iter().sum::<f64>() / p.len() as f64;
            assert!((vp.positive_ref[d] - mean).abs() < 1e-12);
        }
        let bare = vp.clone().without_prune_metadata();
        assert!(bare.center_orders().iter().all(|o| o.dists.is_empty()));
        assert!((0..bare.b()).all(|c| bare.cell_radius_bounds(c).is_none()));
    }

    #[test]
    fn lattice_data_is_stored_by_pattern_and_derives_the_center_order_on_first_use() {
        let mut train = Vec::new();
        for i in 0..300u64 {
            let bit = |shift: u64| ((i * 2_654_435_761) >> shift & 1) as f64;
            let frac = |shift: u64| ((i * 40_503) >> shift & 3) as f64 * 0.25;
            let v = [
                bit(3),
                bit(7),
                bit(11),
                bit(13),
                bit(17),
                frac(2),
                frac(5),
                frac(9),
            ];
            train.push(LabeledPair::new(i, v, i % 23 == 0));
        }
        let vp = VoronoiPartition::build(&train, 5, 3);
        assert!(vp.on_lattice());
        assert!(vp.center_order.get().is_none(), "nothing derived at build");
        let patterns = |batch: &VecBatch<8>| -> Vec<u32> {
            (0..batch.len())
                .map(|r| {
                    (0..LATTICE_BITS)
                        .map(|d| (batch.row(r)[d] as u32) << d)
                        .sum()
                })
                .collect()
        };
        for i in 0..=vp.b() {
            let p = patterns(vp.batch(i));
            assert!(
                p.windows(2).all(|w| w[0] <= w[1]),
                "batch {i} grouped by pattern"
            );
        }
        let mut hood = Neighborhood::new(3);
        vp.scan_cell(
            Walk::Lattice,
            0,
            &vp.negative_clusters[0],
            &train[0].vector,
            f64::INFINITY,
            &mut hood,
            &mut Vec::new(),
        );
        assert!(
            vp.center_order.get().is_none(),
            "the product's walk derives nothing"
        );
        vp.scan_cell(
            Walk::Center,
            0,
            &vp.negative_clusters[0],
            &train[0].vector,
            f64::INFINITY,
            &mut hood,
            &mut Vec::new(),
        );
        assert!(vp.center_orders().iter().any(|o| !o.rows.is_empty()));
        assert_center_orders(&vp);
        let bare = vp.without_prune_metadata();
        assert!(!bare.on_lattice());
        assert!(bare.center_orders().iter().all(|o| o.dists.is_empty()));
    }

    #[test]
    fn a_nan_after_the_bits_keeps_the_data_off_the_lattice() {
        let special = [f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 0.5];
        let train: Vec<LabeledPair<8>> = (0..40usize)
            .map(|i| {
                let mut v = [0.0; 8];
                v[0] = (i % 2) as f64;
                v[5..].copy_from_slice(&[special[i % 5], special[i / 5 % 5], 0.25]);
                LabeledPair::new(i as u64, v, i % 5 == 0)
            })
            .collect();
        let vp = VoronoiPartition::build(&train, 3, 1);
        assert!(vp.on_lattice(), "infinities and signed zeros stay on it");
        let mut with_nan = train.clone();
        with_nan[17].vector[6] = f64::NAN;
        assert!(!VoronoiPartition::build(&with_nan, 3, 1).on_lattice());
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

    #[test]
    fn runs_split_the_rows_evenly_and_are_never_empty() {
        assert_eq!(run_starts(&[5, 5, 5, 5], 1), Vec::<usize>::new());
        assert_eq!(run_starts(&[5, 5, 5, 5], 2), [2]);
        assert_eq!(run_starts(&[5, 5, 5, 5], 4), [1, 2, 3]);
        assert_eq!(run_starts(&[9, 1, 1, 1], 2), [1]);
        assert_eq!(run_starts(&[1, 1, 1, 9], 2), [3]);
        // A batch larger than a run's share leaves fewer runs.
        assert_eq!(run_starts(&[1, 20, 1], 3), [1, 2]);
        assert_eq!(run_starts(&[0, 0, 0], 2), [1]);
        assert_eq!(run_starts(&[7], 2), Vec::<usize>::new());
        assert_eq!(layout_parts(2 * MIN_LAYOUT_ROWS_PER_SLOT - 1, 2), 1);
        assert_eq!(layout_parts(2 * MIN_LAYOUT_ROWS_PER_SLOT, 2), 2);
        assert_eq!(layout_parts(20_075, 2), 2);
        assert_eq!(layout_parts(20_075, 0), 1);
    }

    /// Two layouts of the same rows agree bit for bit: every batch's ids,
    /// labels and columns, the lattice indexes, the radius bounds, the
    /// positives' reference point and the centre orders.
    fn assert_same_layout(a: &VoronoiPartition<8>, b: &VoronoiPartition<8>) {
        let bits = |batch: &VecBatch<8>| {
            let cols: Vec<Vec<u64>> = (0..8)
                .map(|d| batch.col(d).iter().map(|x| x.to_bits()).collect())
                .collect();
            (batch.ids().to_vec(), batch.labels().to_vec(), cols)
        };
        assert_eq!(a.b(), b.b());
        for i in 0..=a.b() {
            assert_eq!(bits(a.batch(i)), bits(b.batch(i)), "batch {i}");
        }
        assert_eq!(format!("{:?}", a.lattice), format!("{:?}", b.lattice));
        let bounds = |vp: &VoronoiPartition<8>| -> Vec<Option<(u64, u64)>> {
            (vp.radius_bounds.iter())
                .map(|r| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())))
                .collect()
        };
        assert_eq!(bounds(a), bounds(b));
        assert_eq!(
            a.positive_ref.map(f64::to_bits),
            b.positive_ref.map(f64::to_bits)
        );
        let orders = |vp: &VoronoiPartition<8>| -> Vec<(Vec<u64>, Vec<u32>)> {
            (vp.center_orders().iter())
                .map(|o| {
                    (
                        o.dists.iter().map(|d| d.to_bits()).collect(),
                        o.rows.clone(),
                    )
                })
                .collect()
        };
        assert_eq!(orders(a), orders(b));
    }

    proptest! {
        /// `lay_out` split into runs on scoped helpers lays out exactly
        /// what the calling thread alone does, on and off the lattice, with
        /// empty cells, a single cell and no positives among the cases.
        /// Coarse values make distance ties, so the id tiebreaks count.
        #[test]
        fn split_lay_out_equals_the_calling_thread_lay_out(
            rows in prop::collection::vec(
                (0usize..6, 0u8..4, prop::collection::vec(0u8..4, 8)), 0..60),
            b in 1usize..6,
            lattice in prop::bool::ANY,
            no_positives in prop::bool::ANY,
            seed in 0usize..1000,
        ) {
            let mut all = VecBatch::<8>::new();
            let mut cell_of = Vec::new();
            for (i, (cell, label, values)) in rows.iter().enumerate() {
                let v: [f64; 8] = std::array::from_fn(|d| match d < LATTICE_BITS && lattice {
                    true => f64::from(values[d] % 2),
                    false => f64::from(values[d]) * 0.25,
                });
                // Ids unique but not in row order.
                let id = ((i + seed) * 7_919 % 65_537) as u64;
                all.push(id, &v, *label == 0 && !no_positives);
                cell_of.push(cell % b);
            }
            let centers: Vec<[f64; 8]> = (0..b)
                .map(|c| std::array::from_fn(|d| ((c * 3 + d * 5 + seed) % 4) as f64 * 0.25))
                .collect();
            let center_d2: Vec<f64> = (0..all.len())
                .map(|r| squared_euclidean_fixed(&all.row(r), &centers[cell_of[r]]))
                .collect();
            let mut members = vec![Vec::new(); b];
            let mut positives = Vec::new();
            for r in 0..all.len() {
                match all.label(r) {
                    true => positives.push(r),
                    false => members[cell_of[r]].push(r),
                }
            }
            let laid = |parts: usize| {
                VoronoiPartition::lay_out(
                    centers.clone(), &all, &members, &center_d2, &positives, lattice, parts,
                )
            };
            let one = laid(1);
            prop_assert_eq!(one.lattice.is_some(), lattice);
            assert_center_orders(&one);
            let sizes: Vec<usize> =
                members.iter().map(Vec::len).chain([positives.len()]).collect();
            prop_assert!(!run_starts(&sizes, 2).is_empty(), "two slots split");
            for parts in [2, 3] {
                assert_same_layout(&one, &laid(parts));
            }
        }

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
            let cells = vec![VecBatch::new(); centers.len()];
            let vp = VoronoiPartition::<2>::from_cells(centers, cells, VecBatch::new());
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
            let centers: Vec<[f64; 2]> = centers.into_iter().map(on_lattice).collect();
            let vp = VoronoiPartition::<2>::from_cells(centers, Vec::new(), VecBatch::new());
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
            let cells = vec![VecBatch::new(); centers.len()];
            let vp = VoronoiPartition::<2>::from_cells(centers, cells, VecBatch::new());
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
