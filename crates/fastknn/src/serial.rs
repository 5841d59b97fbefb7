//! Serial reference implementations.
//!
//! [`classify_brute`] is the ground truth the distributed Fast kNN is tested
//! against: exact kNN over the full training set with Eq. 5 scoring.
//! [`classify_fast_serial`] runs the same two-stage Voronoi algorithm as the
//! distributed path but single-threaded — useful for unit-testing the
//! algorithm without an engine, and for isolating engine effects in
//! benchmarks.
//!
//! Both run the candidate loops entirely in squared-distance space.
//! [`classify_batch`] is the SoA engine underneath: every candidate scan is
//! a tiled column-kernel sweep, and all working state lives in a caller-owned
//! [`ClassifyScratch`] — after warm-up it performs **zero heap allocation**
//! (pinned by the `zero_alloc` integration test). Its row body,
//! `classify_row`, is also what every task of the product's one-stage
//! classification runs (see [`crate::classify`]).

use crate::score::{label_for, score_neighbors};
use crate::soa::{from_unlabeled, ClassifyScratch, VecBatch};
use crate::stage1::{stage1_row, Stage1Row};
use crate::types::{LabeledPair, Neighborhood, ScoredPair, UnlabeledPair};
use crate::voronoi::{VoronoiPartition, Walk};
use simmetrics::squared_euclidean_fixed;

/// Exact brute-force kNN classification with Eq. 5 scoring.
pub fn classify_brute<const D: usize>(
    train: &[LabeledPair<D>],
    test: &[UnlabeledPair<D>],
    k: usize,
    theta: f64,
) -> Vec<ScoredPair> {
    test.iter()
        .map(|t| {
            let mut hood = Neighborhood::new(k);
            for pair in train {
                hood.push_sq(
                    squared_euclidean_fixed(&t.vector, &pair.vector),
                    pair.id,
                    pair.positive,
                );
            }
            let score = score_neighbors(&hood);
            ScoredPair {
                id: t.id,
                score,
                positive: label_for(score, theta),
                shortcut: false,
            }
        })
        .collect()
}

/// Single-threaded Fast kNN: identical algorithm to the distributed
/// classifier (stage 1 intra-cluster + positives, Algorithm 1 selection,
/// stage 2 cross-cluster), without the engine. Thin wrapper over
/// [`classify_batch`] with a fresh scratch.
pub fn classify_fast_serial<const D: usize>(
    partition: &VoronoiPartition<D>,
    test: &[UnlabeledPair<D>],
    k: usize,
    theta: f64,
) -> Vec<ScoredPair> {
    let batch = from_unlabeled(test);
    let mut scratch = ClassifyScratch::default();
    let mut out = Vec::with_capacity(test.len());
    classify_batch(partition, &batch, k, theta, &mut scratch, &mut out);
    out
}

/// Fast kNN over a column batch of test pairs, appending one [`ScoredPair`]
/// per row to `out` (cleared first): `classify_row` on each row, at its
/// nearest centre.
///
/// All candidate scans run the tiled column kernels over the partition's
/// SoA cells; every buffer lives in `scratch`, so a warm call
/// allocates nothing. Results are bit-identical to the historical per-pair
/// path: the kernels preserve the scalar accumulation order, and the
/// neighbourhood's `(distance², id)` total order makes candidate push order
/// irrelevant.
pub fn classify_batch<const D: usize>(
    partition: &VoronoiPartition<D>,
    tests: &VecBatch<D>,
    k: usize,
    theta: f64,
    scratch: &mut ClassifyScratch<D>,
    out: &mut Vec<ScoredPair>,
) {
    out.clear();
    for i in 0..tests.len() {
        let v = tests.row(i);
        let assigned = partition.assign(&v);
        let (scored, _) = classify_row(partition, assigned, tests.id(i), &v, k, theta, scratch);
        out.push(scored);
    }
}

/// What [`classify_row`] did for one test pair, in the units the counters
/// use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowCounts {
    /// Stage 1: the assigned cell, the positives, Algorithm 1.
    pub(crate) stage1: Stage1Row,
    /// Additional cells Algorithm 1 selected.
    pub(crate) extra_cells: u64,
    /// Residents of those cells whose distance was computed.
    pub(crate) cross_evaluated: u64,
    /// Residents of those cells the window bound rejected unevaluated.
    pub(crate) cross_rejected: u64,
}

impl RowCounts {
    /// Accumulate another row's counts (`stage1.shortcut` is left alone).
    pub(crate) fn add(&mut self, other: &RowCounts) {
        self.stage1.add(&other.stage1);
        self.extra_cells += other.extra_cells;
        self.cross_evaluated += other.cross_evaluated;
        self.cross_rejected += other.cross_rejected;
    }
}

/// Classify the test pair `(id, v)` in Voronoi cell `assigned`: stage 1
/// ([`stage1_row`]), then every cell Algorithm 1 selects scanned into the
/// same running hood, then Eq. 5 at threshold `theta`.
///
/// The one copy of the row algorithm: [`classify_batch`] runs it at the
/// nearest centre, and the product's one-stage classification
/// ([`crate::FastKnn::classify_distinct`]) at the centre
/// [`VoronoiPartition::assign_balanced_batch`] picks. Algorithm 2 seeds
/// each cross-cell scan with the stage-1 k-th distance and merges the
/// probes' hoods afterwards; the hood is a total-order top-k over the
/// candidate set, so both hold the same k neighbours and score the same
/// bits, while the running hood's cutoff only tightens.
pub(crate) fn classify_row<const D: usize>(
    partition: &VoronoiPartition<D>,
    assigned: usize,
    id: u64,
    v: &[f64; D],
    k: usize,
    theta: f64,
    scratch: &mut ClassifyScratch<D>,
) -> (ScoredPair, RowCounts) {
    let cell = &partition.negative_clusters[assigned];
    let stage1 = stage1_row(partition, cell, assigned, v, k, Walk::Lattice, scratch);
    let ClassifyScratch {
        hood, dists, extra, ..
    } = scratch;
    let mut counts = RowCounts {
        stage1,
        extra_cells: extra.len() as u64,
        ..RowCounts::default()
    };
    for &cid in extra.iter() {
        // The cross-cell scan inherits the running cutoff: the hood
        // already holds the intra candidates and positives, so
        // hood.kth alone tightens the window.
        let cell = &partition.negative_clusters[cid];
        let stats = partition.scan_cell(Walk::Lattice, cid, cell, v, f64::INFINITY, hood, dists);
        counts.cross_evaluated += stats.evaluated;
        counts.cross_rejected += stats.bound_rejected;
    }
    let score = score_neighbors(hood);
    let scored = ScoredPair {
        id,
        score,
        positive: label_for(score, theta),
        shortcut: stage1.shortcut,
    };
    (scored, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_workload(
        n_neg: usize,
        n_pos: usize,
        n_test: usize,
        seed: u64,
    ) -> (Vec<LabeledPair<4>>, Vec<UnlabeledPair<4>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        for i in 0..n_neg {
            let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
            train.push(LabeledPair::new(i as u64, v, false));
        }
        for i in 0..n_pos {
            // Positives concentrated in a corner (duplicates have small
            // field distances).
            let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..0.15));
            train.push(LabeledPair::new((n_neg + i) as u64, v, true));
        }
        let test = (0..n_test)
            .map(|i| {
                let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                UnlabeledPair::new(i as u64, v)
            })
            .collect();
        (train, test)
    }

    #[test]
    fn brute_force_scores_obvious_cases() {
        let train = vec![
            LabeledPair::new(0, [0.0, 0.0], true),
            LabeledPair::new(1, [1.0, 1.0], false),
            LabeledPair::new(2, [1.1, 1.0], false),
        ];
        let test = vec![
            UnlabeledPair::new(0, [0.01, 0.01]),
            UnlabeledPair::new(1, [1.05, 1.0]),
        ];
        let out = classify_brute(&train, &test, 3, 0.0);
        assert!(out[0].positive, "next to the positive");
        assert!(!out[1].positive, "between the negatives");
    }

    #[test]
    fn fast_serial_matches_brute_force_labels_and_scores() {
        let (train, test) = random_workload(400, 12, 60, 11);
        let brute = classify_brute(&train, &test, 7, 0.0);
        for b in [2usize, 5, 10] {
            let vp = VoronoiPartition::build(&train, b, 99);
            let fast = classify_fast_serial(&vp, &test, 7, 0.0);
            for (bf, ff) in brute.iter().zip(&fast) {
                assert_eq!(bf.id, ff.id);
                assert_eq!(
                    bf.positive, ff.positive,
                    "label mismatch at id {} with b={b}",
                    bf.id
                );
                if !ff.shortcut {
                    assert!(
                        (bf.score - ff.score).abs() < 1e-9,
                        "non-shortcut scores must be exact at id {} with b={b}: {} vs {}",
                        bf.id,
                        bf.score,
                        ff.score
                    );
                }
            }
        }
    }

    #[test]
    fn shortcut_pairs_are_still_labelled_negative_by_brute_force() {
        let (train, test) = random_workload(300, 5, 80, 23);
        let vp = VoronoiPartition::build(&train, 6, 1);
        let fast = classify_fast_serial(&vp, &test, 5, 0.0);
        let brute = classify_brute(&train, &test, 5, 0.0);
        let mut shortcut_count = 0;
        for (ff, bf) in fast.iter().zip(&brute) {
            if ff.shortcut {
                shortcut_count += 1;
                assert!(!bf.positive, "shortcut fired on a true-kNN-positive pair");
            }
        }
        assert!(shortcut_count > 0, "workload should exercise the shortcut");
    }

    #[test]
    fn classify_batch_is_stable_across_scratch_reuse() {
        // A warm scratch (carrying a stale hood, distance buffers and
        // Algorithm 1 output from another workload) must not leak into the
        // next call's results.
        let (train, test) = random_workload(300, 8, 50, 31);
        let vp = VoronoiPartition::build(&train, 5, 17);
        let batch = from_unlabeled(&test);
        let mut scratch = ClassifyScratch::default();
        let mut first = Vec::new();
        classify_batch(&vp, &batch, 7, 0.0, &mut scratch, &mut first);
        let (other_train, other_test) = random_workload(100, 4, 30, 99);
        let other_vp = VoronoiPartition::build(&other_train, 3, 1);
        let mut other = Vec::new();
        classify_batch(
            &other_vp,
            &from_unlabeled(&other_test),
            3,
            0.0,
            &mut scratch,
            &mut other,
        );
        let mut second = Vec::new();
        classify_batch(&vp, &batch, 7, 0.0, &mut scratch, &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn no_positives_in_training_shortcuts_everything() {
        let (mut train, test) = random_workload(100, 0, 20, 5);
        train.retain(|p| !p.positive);
        let vp = VoronoiPartition::build(&train, 4, 2);
        let fast = classify_fast_serial(&vp, &test, 3, 0.0);
        assert!(fast.iter().all(|s| s.shortcut && !s.positive));
    }
}
