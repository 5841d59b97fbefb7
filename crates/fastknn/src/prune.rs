//! Test-set pruning (§4.3.4).
//!
//! Cluster the *positive* training pairs into `l` clusters; around each
//! cluster centre `cp_i` draw the ball of radius `dcp_i` (distance of the
//! cluster's farthest member) expanded by `f(θ)`. A test pair outside every
//! expanded ball is too far from any known duplicate to be classified
//! positive at threshold θ, so it is pruned before classification — the
//! paper's Fig. 11 measures the pruning ratio and the resulting speed-up.
//!
//! The membership test compares in squared space: `d² ≤ (dcp_i + f(θ))²`
//! avoids a `sqrt` per (test pair × cluster) probe. Radii stay linear —
//! they feed the Eq. 6-driven `f(θ)` arithmetic of [`TestPruner::learn_f_theta`].
//!
//! # Candidate pruning ([`scan_cell_pruned`])
//!
//! Besides §4.3.4's *test-set* pruning above, this module hosts the
//! *candidate* pruning engine: the triangle-inequality window scan over a
//! Voronoi cell whose residents are ordered by distance-to-centre — and
//! over the positives, which are laid out as one more such cell around
//! their mean (see [`crate::stage1`]). The product's walk on pair vectors
//! needs no window: its bounds are the kernel's own partial sums, exact
//! as floats ([`crate::lattice`]). For a query `s`
//! with `d(s, c)` to the cell centre and a running k-th-neighbour cutoff
//! `kth`, any resident `x` satisfies
//!
//! ```text
//! d(s, x) ≥ |d(s, c) − d(x, c)|
//! ```
//!
//! so residents with `d(x, c)` outside `[d(s, c) − kth, d(s, c) + kth]`
//! cannot enter the neighbourhood and are skipped without computing their
//! distance. The scan walks outward from `s`'s insertion point in the
//! sorted distances, block by block, re-tightening the window as admitted
//! candidates shrink the cutoff — **lossless** because (a) the bound is
//! exact mathematics slackened by [`PRUNE_SLACK_REL`] against float
//! rounding, so equality ties (which the total-order top-k breaks by id)
//! always stay inside the window, and (b) the neighbourhood is a function
//! of the candidate *set*, never of evaluation order.

use crate::soa::{distances_to_point_range, VecBatch};
use crate::types::{LabeledPair, Neighborhood, UnlabeledPair, PAIR_DIMS};
use crate::voronoi::RefOrder;
use mlcore::kmeans::KMeans;
use simmetrics::{euclidean_fixed, squared_euclidean_fixed};
use sparklet::{Result, SparkletError};

/// Pruner built from the positive training pairs.
#[derive(Debug, Clone)]
pub struct TestPruner<const D: usize = PAIR_DIMS> {
    /// Positive-cluster centres `cp_i`.
    pub centers: Vec<[f64; D]>,
    /// Radius `dcp_i` of each cluster (farthest member distance, linear).
    pub radii: Vec<f64>,
}

/// Outcome of pruning a test set.
#[derive(Debug, Clone)]
pub struct PruneOutcome<const D: usize = PAIR_DIMS> {
    /// Test pairs kept for classification.
    pub kept: Vec<UnlabeledPair<D>>,
    /// Number of pruned pairs.
    pub pruned: usize,
}

impl<const D: usize> PruneOutcome<D> {
    /// Fraction of the original test set that was kept.
    pub fn keep_ratio(&self) -> f64 {
        let total = self.kept.len() + self.pruned;
        if total == 0 {
            return 1.0;
        }
        self.kept.len() as f64 / total as f64
    }
}

impl<const D: usize> TestPruner<D> {
    /// Step 1–2 of §4.3.4: cluster positives into `l` clusters and record
    /// each cluster's radius.
    ///
    /// No positive pairs is a [`SparkletError::User`]: there is nothing to
    /// prune against, and the caller should skip pruning in that regime.
    pub fn build(positives: &[LabeledPair<D>], l: usize, seed: u64) -> Result<Self> {
        if positives.is_empty() {
            return Err(SparkletError::User(
                "TestPruner::build: test-set pruning requires positive training pairs".into(),
            ));
        }
        let vectors: Vec<[f64; D]> = positives.iter().map(|p| p.vector).collect();
        let model = KMeans::new(l.max(1), seed).fit(&vectors);
        let mut radii = vec![0.0f64; model.k()];
        for (v, &a) in vectors.iter().zip(&model.assignments) {
            let d = euclidean_fixed(v, &model.centroids[a]);
            if d > radii[a] {
                radii[a] = d;
            }
        }
        Ok(TestPruner {
            centers: model.centroids,
            radii,
        })
    }

    /// Step 3: should `vector` be kept at expansion `f_theta`?
    ///
    /// Compared in squared space; a negative expanded radius (large negative
    /// `f_theta`) keeps nothing, which squaring alone would get wrong.
    pub fn keep(&self, vector: &[f64; D], f_theta: f64) -> bool {
        self.centers.iter().zip(&self.radii).any(|(c, r)| {
            let rf = r + f_theta;
            rf >= 0.0 && squared_euclidean_fixed(vector, c) <= rf * rf
        })
    }

    /// Learn the pruning expansion `f(θ)` from labelled data — the paper's
    /// stated future work (§5.2.6: "the setting can be learned from the
    /// labelled data, which we leave as our future work").
    ///
    /// Returns the smallest expansion (with `margin` slack added) that
    /// keeps at least `target_recall` of the labelled duplicate vectors
    /// inside some positive-cluster ball. Pass held-out duplicate vectors
    /// (not the ones the pruner was built from, which are retained by
    /// construction at `f(θ) = 0`).
    ///
    /// # Panics
    /// Panics if `duplicates` is empty or `target_recall` is outside (0, 1].
    pub fn learn_f_theta(&self, duplicates: &[[f64; D]], target_recall: f64, margin: f64) -> f64 {
        assert!(
            !duplicates.is_empty(),
            "learning f(θ) needs labelled duplicates"
        );
        assert!(
            target_recall > 0.0 && target_recall <= 1.0,
            "target_recall must be in (0, 1]"
        );
        // For each duplicate, the smallest expansion that would keep it:
        // min_i (dist(v, cp_i) − dcp_i), clamped at 0.
        let mut needed: Vec<f64> = duplicates
            .iter()
            .map(|v| {
                self.centers
                    .iter()
                    .zip(&self.radii)
                    .map(|(c, r)| (euclidean_fixed(v, c) - r).max(0.0))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        needed.sort_by(|a, b| a.partial_cmp(b).expect("finite expansions"));
        let keep =
            ((duplicates.len() as f64 * target_recall).ceil() as usize).clamp(1, duplicates.len());
        // [`TestPruner::keep`] certifies membership in squared space; the
        // exact boundary expansion can fall a few ulps short once squared,
        // so widen relatively (exact zero stays zero).
        needed[keep - 1] * (1.0 + 4.0 * f64::EPSILON) + margin
    }

    /// Prune a test set.
    pub fn prune(&self, test: &[UnlabeledPair<D>], f_theta: f64) -> PruneOutcome<D> {
        let mut kept = Vec::with_capacity(test.len());
        let mut pruned = 0usize;
        for t in test {
            if self.keep(&t.vector, f_theta) {
                kept.push(*t);
            } else {
                pruned += 1;
            }
        }
        PruneOutcome { kept, pruned }
    }
}

/// Relative slack applied to the admissible window radius.
///
/// # Why `1e-9` relative and `1e-12` absolute are enough
///
/// The window rejects a resident `x` unevaluated when
/// `|ds − cd_x| > kth + slack`, with `ds`, `cd_x` and `kth` the *computed*
/// `√d²(s, c)`, `√d²(x, c)` and `√cutoff²`. It is wrong only if the kernel
/// would have computed `d²(s, x) ≤ cutoff²` for that `x` (it could have
/// entered the hood, or tied with the k-th and won on id). In exact
/// arithmetic `d(s, x) ≥ |d(s, c) − d(x, c)|`, so the slack has to cover
/// what rounding adds to the two sides, with `u = 2⁻⁵³ ≈ 1.1e-16`:
///
/// * a `D`-term sum of squared differences, all terms non-negative,
///   carries a relative error of at most `(D + 2)·u`; its square root
///   halves that and adds `u`. For `D = 8`: `ds` and `cd_x` are each
///   within `6u` of the true distances, `kth` within `u` of `√cutoff²`,
///   and a kernel `d²(s, x) ≤ cutoff²` bounds the true `d(s, x)` by
///   `kth·(1 + 6u)`;
/// * an `x` the kernel would admit has `d(x, c) ≤ d(s, c) + d(s, x)`, so
///   the computed `|ds − cd_x|` exceeds the true one by at most
///   `6u·(ds + cd_x) + u·|ds − cd_x| ≤ 13u·(ds + kth)`.
///
/// Together the computed left side can overshoot the computed `kth` by at
/// most `≈ 20u·(ds + kth) ≈ 2.2e-15·(ds + kth)` for an `x` that must be
/// kept. `PRUNE_SLACK_REL·(ds + kth)` is that bound with five orders of
/// magnitude to spare — it would still hold at `D` in the hundreds of
/// thousands — and widens the window by one part in `10⁹`.
///
/// The relative bounds fail only where squares underflow (coordinate
/// differences below `≈ 1e-154`): a distance can then be computed as `0`
/// with no relative accuracy at all, but it is also absolutely smaller
/// than `1e-153`, which [`PRUNE_SLACK_ABS`] covers with room to spare.
/// That, not "tiny magnitudes" in general, is what the absolute floor is
/// for; with `ds = kth = 0` exactly it also admits the residents
/// coincident with the query, which the `≤` comparison admits anyway.
///
/// The argument never uses what `c` is, so it holds unchanged for the
/// second scan the window now guards: the positives, sorted around their
/// mean ([`crate::voronoi::VoronoiPartition::positive_ref`]). The check
/// that goes with it is the lattice proptest in [`crate::stage1`]: pair
/// vectors drawn from `{0, ¼, ½, 1}` put candidates at *exactly* the
/// cutoff, on both sides of the k-th id, and that test fails with the
/// slack removed where the continuous-valued ones below do not.
pub const PRUNE_SLACK_REL: f64 = 1e-9;
/// Absolute slack floor for the admissible window: covers distances whose
/// squares underflow (see [`PRUNE_SLACK_REL`]).
pub const PRUNE_SLACK_ABS: f64 = 1e-12;

/// Rows evaluated per ranged-kernel call inside [`scan_cell_pruned`]: large
/// enough to amortize kernel dispatch and keep SIMD lanes full, small
/// enough that the cutoff re-tightens frequently while scanning a big cell.
const SCAN_BLOCK: usize = 64;

/// Outcome of one pruned cell scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellScanStats {
    /// Residents whose distance to the query was actually computed.
    pub evaluated: u64,
    /// Residents skipped because their triangle-inequality lower bound
    /// exceeded the (slackened) cutoff — distance evaluations avoided.
    pub bound_rejected: u64,
    /// Smallest squared distance among the evaluated residents; `+∞` when
    /// none was evaluated. Over the positive cell this is stage 1's
    /// `min(s, T⁺)²` (see [`crate::stage1`] for why the window keeps it
    /// exact whenever Algorithm 1 reads it).
    pub min_sq: f64,
}

impl Default for CellScanStats {
    fn default() -> Self {
        CellScanStats {
            evaluated: 0,
            bound_rejected: 0,
            min_sq: f64::INFINITY,
        }
    }
}

/// The admissible window radius around `d(s, c)` for cutoff `cutoff_sq`:
/// `kth` plus the float-rounding slack. `+∞` cutoff ⇒ `+∞` radius (no
/// pruning until the neighbourhood fills).
#[inline]
pub fn admissible_radius(ds: f64, cutoff_sq: f64) -> f64 {
    if cutoff_sq == f64::INFINITY {
        return f64::INFINITY;
    }
    let kth = cutoff_sq.sqrt();
    kth + PRUNE_SLACK_REL * (ds + kth) + PRUNE_SLACK_ABS
}

/// Scan one sorted Voronoi cell into `hood`, skipping residents whose
/// triangle-inequality lower bound beats the running cutoff.
///
/// * `center_dists` — the cell's sorted linear distances-to-centre
///   (parallel to its rows). If its length does not match the cell (a
///   partition without metadata: assembled by hand, or stripped by
///   `without_prune_metadata`), the scan is a full unpruned sweep.
/// * `ds` — linear distance from the query to this cell's centre (for the
///   positives: to their reference point).
/// * `initial_cutoff_sq` — an externally-known squared cutoff (a stage-1
///   k-th distance carried to a stage-2 probe); `+∞` when none. The
///   effective cutoff at any instant is
///   `min(initial_cutoff_sq, hood.kth_distance_sq())` and only tightens.
///
/// The resulting `hood` is **bit-identical** to pushing every resident:
/// skipped residents provably cannot enter the top-k (strictly farther
/// than k admitted candidates, even accounting for the id tie-break), and
/// push order is irrelevant to the total-order neighbourhood. `dists` is
/// reused scratch for the ranged kernel.
pub fn scan_cell_pruned<const D: usize>(
    cell: &VecBatch<D>,
    center_dists: &[f64],
    query: &[f64; D],
    ds: f64,
    initial_cutoff_sq: f64,
    hood: &mut Neighborhood,
    dists: &mut Vec<f64>,
) -> CellScanStats {
    let n = cell.len();
    if n == 0 {
        return CellScanStats::default();
    }
    if center_dists.len() != n {
        return CellScanStats {
            evaluated: n as u64,
            bound_rejected: 0,
            min_sq: offer_rows(cell, query, 0, n, hood, dists),
        };
    }
    walk_window(
        center_dists,
        ds,
        initial_cutoff_sq,
        hood,
        |cutoff| admissible_radius(ds, cutoff),
        |start, end, hood| offer_rows(cell, query, start, end, hood, dists),
    )
}

/// [`scan_cell_pruned`] over rows stored in another order: `order.rows[p]`
/// is the row at sorted position `p`, whose distance to the reference is
/// `order.dists[p]`. Rows come in the order `order` walks them, each
/// distance by the scalar kernel (bit-identical to the tiled one), so the
/// counts and the hood equal a scan over the rows gathered into that order.
/// An order with no rows is the storage order itself.
pub(crate) fn scan_in_order<const D: usize>(
    cell: &VecBatch<D>,
    order: &RefOrder,
    query: &[f64; D],
    ds: f64,
    initial_cutoff_sq: f64,
    hood: &mut Neighborhood,
    dists: &mut Vec<f64>,
) -> CellScanStats {
    if order.rows.is_empty() {
        return scan_cell_pruned(
            cell,
            &order.dists,
            query,
            ds,
            initial_cutoff_sq,
            hood,
            dists,
        );
    }
    walk_window(
        &order.dists,
        ds,
        initial_cutoff_sq,
        hood,
        |cutoff| admissible_radius(ds, cutoff),
        |start, end, hood| {
            let mut min_sq = f64::INFINITY;
            for &row in &order.rows[start..end] {
                let row = row as usize;
                let d_sq = squared_euclidean_fixed(query, &cell.row(row));
                min_sq = min_sq.min(d_sq);
                hood.push_sq(d_sq, cell.id(row), cell.label(row));
            }
            min_sq
        },
    )
}

/// The window walk every sorted scan shares. `sorted` holds the linear
/// distances to the reference point of positions `0..sorted.len()`,
/// ascending; `ds` is the query's. At each step the cutoff is
/// `min(initial_cutoff_sq, hood.kth_distance_sq())` and `radius(cutoff)`
/// the admissible distance from `ds` (negative: nothing more is
/// admissible); `offer(start, end, hood)` evaluates positions
/// `start..end`, offers them to the hood and returns their smallest
/// squared distance.
fn walk_window(
    sorted: &[f64],
    ds: f64,
    initial_cutoff_sq: f64,
    hood: &mut Neighborhood,
    radius: impl Fn(f64) -> f64,
    mut offer: impl FnMut(usize, usize, &mut Neighborhood) -> f64,
) -> CellScanStats {
    let n = sorted.len();
    let mut stats = CellScanStats::default();
    // Walk outward from the query's insertion point in the sorted
    // distances: candidates with the smallest lower bound first, so the
    // cutoff tightens as fast as possible.
    let mut right = sorted.partition_point(|&cd| cd < ds);
    let mut left = right; // next left candidate is `left - 1`
    loop {
        let cutoff = initial_cutoff_sq.min(hood.kth_distance_sq());
        let r = radius(cutoff);
        let left_ok = left > 0 && ds - sorted[left - 1] <= r;
        let right_ok = right < n && sorted[right] - ds <= r;
        if !left_ok && !right_ok {
            // Bounds on each side grow monotonically outward and the cutoff
            // only tightens, so everything unvisited stays excluded.
            stats.bound_rejected += (left + (n - right)) as u64;
            return stats;
        }
        let take_left = match (left_ok, right_ok) {
            (true, false) => true,
            (false, true) => false,
            _ => ds - sorted[left - 1] <= sorted[right] - ds,
        };
        let (start, end) = if take_left {
            let lo_limit = sorted[..left].partition_point(|&cd| cd < ds - r);
            let block = (left.saturating_sub(SCAN_BLOCK).max(lo_limit), left);
            left = block.0;
            block
        } else {
            let hi_limit = right + sorted[right..].partition_point(|&cd| cd <= ds + r);
            let block = (right, (right + SCAN_BLOCK).min(hi_limit));
            right = block.1;
            block
        };
        stats.min_sq = stats.min_sq.min(offer(start, end, hood));
        stats.evaluated += (end - start) as u64;
    }
}

/// Evaluate rows `start..end` of `cell` against `query` and offer each to
/// `hood`; returns the smallest squared distance among them.
#[inline]
pub(crate) fn offer_rows<const D: usize>(
    cell: &VecBatch<D>,
    query: &[f64; D],
    start: usize,
    end: usize,
    hood: &mut Neighborhood,
    dists: &mut Vec<f64>,
) -> f64 {
    distances_to_point_range(cell, query, start, end, dists);
    let ids = &cell.ids()[start..end];
    let labels = &cell.labels()[start..end];
    let mut min_sq = f64::INFINITY;
    for ((&d_sq, &id), &label) in dists.iter().zip(ids).zip(labels) {
        min_sq = min_sq.min(d_sq);
        hood.push_sq(d_sq, id, label);
    }
    min_sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::classify_brute;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn positives() -> Vec<LabeledPair<2>> {
        // Two tight positive clumps, like duplicate pairs in distance space.
        let mut out = Vec::new();
        for i in 0..10 {
            let t = i as f64 * 0.005;
            out.push(LabeledPair::new(i, [0.1 + t, 0.1 - t], true));
            out.push(LabeledPair::new(100 + i, [0.8 + t, 0.2 - t], true));
        }
        out
    }

    #[test]
    fn keeps_points_near_positives_and_prunes_far_ones() {
        let pruner = TestPruner::build(&positives(), 2, 7).unwrap();
        assert!(pruner.keep(&[0.11, 0.10], 0.1));
        assert!(pruner.keep(&[0.81, 0.19], 0.1));
        assert!(!pruner.keep(&[5.0, 5.0], 0.1));
    }

    #[test]
    fn negative_expansion_beyond_radius_keeps_nothing() {
        let pruner = TestPruner::build(&positives(), 2, 7).unwrap();
        let huge_negative = -(pruner.radii.iter().fold(0.0f64, |a, &b| a.max(b)) + 1.0);
        assert!(!pruner.keep(&[0.1, 0.1], huge_negative));
    }

    #[test]
    fn negative_expansion_shrinks_the_balls_without_sign_flips() {
        // f(θ) < 0 shrinks each ball to radius r + f(θ). Squaring a negative
        // expanded radius would silently re-grow the ball — `keep` must gate
        // on the sign before comparing in squared space.
        let pruner = TestPruner::<2> {
            centers: vec![[0.0, 0.0]],
            radii: vec![1.0],
        };
        // Mildly negative: ball of radius 0.4 remains.
        assert!(pruner.keep(&[0.3, 0.0], -0.6));
        assert!(!pruner.keep(&[0.5, 0.0], -0.6));
        // Expanded radius exactly 0: only the centre itself survives.
        assert!(pruner.keep(&[0.0, 0.0], -1.0));
        assert!(!pruner.keep(&[0.001, 0.0], -1.0));
        // Below zero: nothing survives, not even the centre. Without the
        // sign gate, rf = -0.5 squares to 0.25 and the centre would pass.
        assert!(!pruner.keep(&[0.0, 0.0], -1.5));
        // Prune with a shrinking expansion is monotone in f(θ) too.
        let test: Vec<UnlabeledPair<2>> = (0..50)
            .map(|i| UnlabeledPair::new(i, [i as f64 * 0.05, 0.0]))
            .collect();
        let mut prev = usize::MAX;
        for f in [0.0, -0.25, -0.5, -0.75, -1.0, -2.0] {
            let kept = pruner.prune(&test, f).kept.len();
            assert!(kept <= prev, "keep count must shrink as f(θ) drops");
            prev = kept;
        }
        assert_eq!(prev, 0, "f(θ) = -2 keeps nothing");
    }

    #[test]
    fn larger_f_theta_keeps_more() {
        let pruner = TestPruner::build(&positives(), 2, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let test: Vec<UnlabeledPair<2>> = (0..500)
            .map(|i| UnlabeledPair::new(i, [rng.gen_range(0.0..1.5), rng.gen_range(0.0..1.5)]))
            .collect();
        let mut prev = 0usize;
        for f in [0.1, 0.3, 0.5, 0.9] {
            let out = pruner.prune(&test, f);
            assert!(
                out.kept.len() >= prev,
                "keep count must be monotone in f(θ)"
            );
            prev = out.kept.len();
        }
        // And wide enough keeps everything.
        assert_eq!(pruner.prune(&test, 10.0).pruned, 0);
    }

    #[test]
    fn pruning_never_drops_a_true_positive_classification() {
        // The safety property of Fig. 11: "all these threshold settings
        // enable the duplicate report pairs in the testing dataset being
        // included". A pruned pair must be one brute-force kNN would have
        // scored below θ anyway — provided f(θ) is at least the distance at
        // which a positive neighbour can still push the score past θ.
        let mut rng = StdRng::seed_from_u64(3);
        let mut train = positives();
        for i in 0..400 {
            train.push(LabeledPair::new(
                1000 + i,
                [rng.gen_range(0.0..1.5), rng.gen_range(0.0..1.5)],
                false,
            ));
        }
        let pos_only: Vec<LabeledPair<2>> = train.iter().filter(|p| p.positive).copied().collect();
        let pruner = TestPruner::build(&pos_only, 2, 7).unwrap();
        let test: Vec<UnlabeledPair<2>> = (0..300)
            .map(|i| UnlabeledPair::new(i, [rng.gen_range(0.0..1.5), rng.gen_range(0.0..1.5)]))
            .collect();
        let f_theta = 0.5;
        let outcome = pruner.prune(&test, f_theta);
        assert!(outcome.pruned > 0, "workload should prune something");
        let scored = classify_brute(&train, &test, 5, 1.0 / f_theta);
        let kept_ids: std::collections::HashSet<u64> = outcome.kept.iter().map(|t| t.id).collect();
        for s in &scored {
            if s.positive {
                assert!(
                    kept_ids.contains(&s.id),
                    "pruning dropped test {} which classifies positive",
                    s.id
                );
            }
        }
    }

    #[test]
    fn learned_f_theta_achieves_its_target_recall() {
        let mut rng = StdRng::seed_from_u64(8);
        let train_pos = positives();
        let pruner = TestPruner::build(&train_pos, 2, 7).unwrap();
        // Held-out duplicates scattered around the positive clumps, some
        // farther out than the training radii.
        let held_out: Vec<[f64; 2]> = (0..60)
            .map(|i| {
                let (cx, cy) = if i % 2 == 0 { (0.1, 0.1) } else { (0.8, 0.2) };
                [cx + rng.gen_range(-0.2..0.2), cy + rng.gen_range(-0.2..0.2)]
            })
            .collect();
        for target in [0.8, 0.95, 1.0] {
            let f = pruner.learn_f_theta(&held_out, target, 0.0);
            let kept = held_out.iter().filter(|v| pruner.keep(v, f)).count();
            assert!(
                kept as f64 >= target * held_out.len() as f64,
                "target {target}: kept {kept}/{} at f={f:.3}",
                held_out.len()
            );
        }
        // Tighter targets need no larger expansion.
        let f80 = pruner.learn_f_theta(&held_out, 0.8, 0.0);
        let f100 = pruner.learn_f_theta(&held_out, 1.0, 0.0);
        assert!(f100 >= f80, "expansion must be monotone in recall target");
    }

    #[test]
    fn learned_f_theta_zero_for_training_duplicates() {
        // The pruner's own training positives are inside the balls by
        // construction, so the learned expansion (margin 0) is 0.
        let train_pos = positives();
        let pruner = TestPruner::build(&train_pos, 2, 7).unwrap();
        let vectors: Vec<[f64; 2]> = train_pos.iter().map(|p| p.vector).collect();
        let f = pruner.learn_f_theta(&vectors, 1.0, 0.0);
        assert!(f.abs() < 1e-9, "got {f}");
    }

    #[test]
    fn keep_ratio_math() {
        let outcome = PruneOutcome {
            kept: vec![UnlabeledPair::new(0, [0.0])],
            pruned: 3,
        };
        assert!((outcome.keep_ratio() - 0.25).abs() < 1e-12);
        let empty = PruneOutcome::<2> {
            kept: vec![],
            pruned: 0,
        };
        assert_eq!(empty.keep_ratio(), 1.0);
    }

    #[test]
    fn no_positives_rejected() {
        match TestPruner::<2>::build(&[], 2, 1) {
            Err(SparkletError::User(m)) => assert!(m.contains("requires positive"), "{m}"),
            other => panic!("expected a user error, got {other:?}"),
        }
    }

    mod cell_scan {
        use super::super::*;
        use crate::soa::distances_to_point;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A sorted cell + center_dists, the way `VoronoiPartition::build`
        /// lays them out.
        fn sorted_cell(
            rows: &[(u64, [f64; 4], bool)],
            center: &[f64; 4],
        ) -> (VecBatch<4>, Vec<f64>) {
            let mut cell = VecBatch::<4>::new();
            for (id, v, lab) in rows {
                cell.push(*id, v, *lab);
            }
            let mut d2 = Vec::new();
            distances_to_point(&cell, center, &mut d2);
            let mut idx: Vec<usize> = (0..cell.len()).collect();
            idx.sort_unstable_by(|&a, &b| {
                d2[a]
                    .total_cmp(&d2[b])
                    .then_with(|| cell.id(a).cmp(&cell.id(b)))
            });
            let sorted = cell.gather(&idx);
            let cds: Vec<f64> = idx.iter().map(|&i| d2[i].sqrt()).collect();
            (sorted, cds)
        }

        #[test]
        fn missing_metadata_falls_back_to_full_sweep() {
            let rows: Vec<(u64, [f64; 4], bool)> = (0..20)
                .map(|i| (i, [i as f64 * 0.1, 0.0, 0.0, 0.0], false))
                .collect();
            let (cell, _) = sorted_cell(&rows, &[0.0; 4]);
            let q = [0.5, 0.0, 0.0, 0.0];
            let mut hood = Neighborhood::new(3);
            let mut dists = Vec::new();
            let stats = scan_cell_pruned(&cell, &[], &q, 0.5, f64::INFINITY, &mut hood, &mut dists);
            assert_eq!(stats.evaluated, 20);
            assert_eq!(stats.bound_rejected, 0);
            let mut full = Neighborhood::new(3);
            for i in 0..cell.len() {
                full.push_sq(
                    squared_euclidean_fixed(&q, &cell.row(i)),
                    cell.id(i),
                    cell.label(i),
                );
            }
            assert_eq!(hood, full);
        }

        proptest! {
            /// The tentpole contract: the pruned windowed scan merged with
            /// any externally-derived cutoff neighbourhood is bit-identical
            /// to the fully-swept equivalent, and every resident is either
            /// evaluated or bound-rejected.
            #[test]
            fn pruned_scan_is_lossless(
                seed in 0u64..5_000,
                n_cell in 0usize..200,
                n_ext in 0usize..40,
                k in 1usize..12,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let center: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                let rows: Vec<(u64, [f64; 4], bool)> = (0..n_cell)
                    .map(|i| {
                        let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                        (1000 + i as u64, v, rng.gen_bool(0.2))
                    })
                    .collect();
                let (cell, cds) = sorted_cell(&rows, &center);
                let q: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                let ds = squared_euclidean_fixed(&q, &center).sqrt();
                // External candidates stand in for a stage-1 neighbourhood
                // whose k-th distance seeds the stage-2 cutoff.
                let mut ext = Neighborhood::new(k);
                for i in 0..n_ext {
                    let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                    ext.push_sq(squared_euclidean_fixed(&q, &v), i as u64, rng.gen_bool(0.1));
                }
                let cutoff = ext.kth_distance_sq();
                let mut scanned = Neighborhood::new(k);
                let mut dists = Vec::new();
                let stats =
                    scan_cell_pruned(&cell, &cds, &q, ds, cutoff, &mut scanned, &mut dists);
                prop_assert_eq!(stats.evaluated + stats.bound_rejected, n_cell as u64);
                // Ground truth: push everything, no pruning anywhere.
                let mut full = ext.clone();
                for i in 0..cell.len() {
                    full.push_sq(
                        squared_euclidean_fixed(&q, &cell.row(i)),
                        cell.id(i),
                        cell.label(i),
                    );
                }
                prop_assert_eq!(ext.merge(scanned), full);
            }

            /// With no external cutoff the scanned neighbourhood alone is
            /// bit-identical to the full sweep (the stage-1 intra case).
            #[test]
            fn pruned_scan_alone_matches_full_sweep(
                seed in 0u64..5_000,
                n_cell in 0usize..200,
                k in 1usize..12,
            ) {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let center: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                let rows: Vec<(u64, [f64; 4], bool)> = (0..n_cell)
                    .map(|i| {
                        let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                        (i as u64, v, false)
                    })
                    .collect();
                let (cell, cds) = sorted_cell(&rows, &center);
                let q: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                let ds = squared_euclidean_fixed(&q, &center).sqrt();
                let mut scanned = Neighborhood::new(k);
                let mut dists = Vec::new();
                scan_cell_pruned(&cell, &cds, &q, ds, f64::INFINITY, &mut scanned, &mut dists);
                let mut full = Neighborhood::new(k);
                for i in 0..cell.len() {
                    full.push_sq(
                        squared_euclidean_fixed(&q, &cell.row(i)),
                        cell.id(i),
                        cell.label(i),
                    );
                }
                prop_assert_eq!(scanned, full);
            }
        }
    }
}
