//! Algorithm 1 — additional-partition selection (§4.3.2).
//!
//! After stage 1 (intra-cluster kNN merged with the positive distances),
//! decide which *other* Voronoi cells could still contain closer
//! neighbours:
//!
//! * lines 2–5 (observations 1–3): if the current k-th neighbour is closer
//!   than the nearest positive pair, the true kNN can contain no positive —
//!   the pair is classified negative without any cross-cluster search;
//! * lines 6–12 (observation 4): otherwise cell `T_j` is consulted only if
//!   the k-th neighbour distance exceeds `d(s, h_ij)`, the distance to the
//!   hyperplane separating the assigned cell from `T_j` (Eq. 7), since by
//!   the triangle inequality no point behind a farther hyperplane can beat
//!   the current k-th neighbour.
//!
//! Inputs arrive **squared** (the candidate-generation space); the shortcut
//! test compares squares directly, and a single root is taken only when the
//! Eq. 7 hyperplane comparison — a linear distance — is actually needed.

use crate::prune::admissible_radius;
use crate::voronoi::{hyperplane_distance, VoronoiPartition};
use simmetrics::squared_euclidean_fixed;

/// Algorithm 1. Returns the indices of additional clusters to search;
/// an empty result with `kth_distance_sq <= min_positive_distance_sq` means
/// the shortcut fired (no positive can be in the true kNN).
///
/// * `s` — the test vector;
/// * `assigned` — index of the Voronoi cell `s` belongs to;
/// * `kth_distance_sq` — `d(s, s_k)²`, squared distance to the current k-th
///   nearest neighbour (`+∞` when fewer than k are known);
/// * `min_positive_distance_sq` — `min(s, T⁺)²`;
/// * `centers` — all cluster centres.
pub fn additional_partitions<const D: usize>(
    s: &[f64; D],
    assigned: usize,
    kth_distance_sq: f64,
    min_positive_distance_sq: f64,
    centers: &[[f64; D]],
) -> Vec<usize> {
    let mut out = Vec::new();
    // Lines 2–5: all-negative shortcut (monotone in the square).
    if kth_distance_sq <= min_positive_distance_sq {
        return out;
    }
    // Lines 6–12: hyperplane pruning. Eq. 7 yields a linear distance, so
    // take the one root here rather than squaring every hyperplane bound
    // (which can be negative under balanced tie-assignment).
    let kth_distance = kth_distance_sq.sqrt();
    let pi = &centers[assigned];
    for (j, pj) in centers.iter().enumerate() {
        if j == assigned {
            continue;
        }
        if kth_distance > hyperplane_distance(s, pi, pj) {
            out.push(j);
        }
    }
    out
}

/// Algorithm 1 with an additional **annulus bound** per surviving cell:
/// every resident of cell `j` lies in the annulus
/// `d(x, p_j) ∈ [lo_j, hi_j]` recorded by
/// [`VoronoiPartition::cell_radius_bounds`], so by the triangle inequality
/// `d(s, x) ≥ max(d(s, p_j) − hi_j, lo_j − d(s, p_j))`. Cells whose bound
/// exceeds the (slackened) k-th-neighbour cutoff are skipped **wholesale**
/// even when Eq. 7's hyperplane test would probe them — the hyperplane
/// bound knows only the cell's half-space, not how far its actual members
/// sit from the centre.
///
/// Returns `(cells skipped, residents those cells held)` — the second
/// component is exactly the distance evaluations the wholesale skips
/// avoided. Selection is lossless for the same reason the window scan is: a
/// skipped cell's residents are all strictly farther than k known
/// candidates (slack keeps equality ties). Cells without radius metadata
/// fall back to the plain hyperplane test.
pub fn additional_partitions_pruned_into<const D: usize>(
    s: &[f64; D],
    assigned: usize,
    kth_distance_sq: f64,
    min_positive_distance_sq: f64,
    partition: &VoronoiPartition<D>,
    out: &mut Vec<usize>,
) -> (u64, u64) {
    out.clear();
    if kth_distance_sq <= min_positive_distance_sq {
        return (0, 0);
    }
    let kth_distance = kth_distance_sq.sqrt();
    let pi = &partition.centers[assigned];
    let mut skipped = 0u64;
    let mut residents = 0u64;
    for (j, pj) in partition.centers.iter().enumerate() {
        if j == assigned {
            continue;
        }
        if kth_distance > hyperplane_distance(s, pi, pj) {
            if let Some((lo, hi)) = partition.cell_radius_bounds(j) {
                let dsj = squared_euclidean_fixed(s, pj).sqrt();
                let r = admissible_radius(dsj, kth_distance_sq);
                if dsj - hi > r || lo - dsj > r {
                    skipped += 1;
                    residents += partition.negative_clusters[j].len() as u64;
                    continue;
                }
            }
            out.push(j);
        }
    }
    (skipped, residents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simmetrics::euclidean;

    fn centers() -> Vec<[f64; 2]> {
        vec![[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [50.0, 50.0]]
    }

    fn sq(d: f64) -> f64 {
        d * d
    }

    #[test]
    fn shortcut_returns_no_partitions() {
        // k-th neighbour at 1.0, nearest positive at 5.0: stop.
        let out = additional_partitions(&[1.0, 1.0], 0, sq(1.0), sq(5.0), &centers());
        assert!(out.is_empty());
    }

    #[test]
    fn tight_neighborhood_prunes_everything() {
        // s at the origin with k-th distance 1.0: hyperplanes to the other
        // cells are ~5, ~5 and ~35 away.
        let out = additional_partitions(&[0.0, 0.0], 0, sq(1.0), sq(0.5), &centers());
        assert!(out.is_empty());
    }

    #[test]
    fn loose_neighborhood_selects_nearby_cells_only() {
        // k-th distance 6 crosses the hyperplanes to cells 1 and 2 (5 away)
        // but not to the far cell 3.
        let out = additional_partitions(&[0.0, 0.0], 0, sq(6.0), sq(0.5), &centers());
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn infinite_kth_distance_selects_all_other_cells() {
        // Fewer than k neighbours known: every cell may contribute.
        let out = additional_partitions(&[0.0, 0.0], 0, f64::INFINITY, sq(0.5), &centers());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn assigned_cell_is_never_selected() {
        let out = additional_partitions(&[0.0, 0.0], 0, sq(1e9), 0.0, &centers());
        assert!(!out.contains(&0));
    }

    #[test]
    fn negative_hyperplane_bound_still_selects() {
        // Under balanced tie-assignment s can sit marginally closer to pj
        // than to its assigned pi; the Eq. 7 bound is then negative and the
        // cell must always be searched, however small the neighbourhood.
        let cs = vec![[0.0f64, 0.0], [1.0, 0.0]];
        let out = additional_partitions(&[0.9, 0.0], 0, sq(1e-6), 0.0, &cs);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn annulus_selection_is_a_subset_of_hyperplane_selection() {
        use crate::types::LabeledPair;
        let mut train = Vec::new();
        for i in 0..40 {
            let t = i as f64 * 0.02;
            train.push(LabeledPair::new(i, [t, t], false));
            train.push(LabeledPair::new(100 + i, [6.0 + t, 6.0 - t], false));
            train.push(LabeledPair::new(200 + i, [12.0, t], false));
        }
        let vp = VoronoiPartition::build(&train, 3, 5);
        let s = [0.2, 0.2];
        let assigned = vp.assign(&s);
        for kth in [0.5f64, 2.0, 7.0, 50.0] {
            let plain = additional_partitions(&s, assigned, kth * kth, 0.0, &vp.centers);
            let mut pruned = Vec::new();
            let (skipped, residents) =
                additional_partitions_pruned_into(&s, assigned, kth * kth, 0.0, &vp, &mut pruned);
            assert!(pruned.iter().all(|c| plain.contains(c)));
            assert_eq!(plain.len(), pruned.len() + skipped as usize);
            let selected_residents: usize =
                pruned.iter().map(|&c| vp.negative_clusters[c].len()).sum();
            let plain_residents: usize = plain.iter().map(|&c| vp.negative_clusters[c].len()).sum();
            assert_eq!(plain_residents, selected_residents + residents as usize);
        }
    }

    proptest! {
        /// Annulus-pruned selection stays sound on built partitions: a cell
        /// holding a resident strictly inside the neighbourhood is never
        /// skipped.
        #[test]
        fn annulus_pruning_never_skips_a_cell_with_a_closer_resident(
            seed in 0u64..2_000,
            s in prop::collection::vec(0.0f64..1.0, 2),
            kth in 0.05f64..1.5,
        ) {
            use crate::types::LabeledPair;
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let train: Vec<LabeledPair<2>> = (0..120)
                .map(|i| {
                    let v = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
                    LabeledPair::new(i, v, false)
                })
                .collect();
            let vp = VoronoiPartition::build(&train, 4, seed);
            let s: [f64; 2] = s.try_into().unwrap();
            let assigned = vp.assign(&s);
            let mut selected = Vec::new();
            additional_partitions_pruned_into(
                &s, assigned, kth * kth, 0.0, &vp, &mut selected);
            for (j, cell) in vp.negative_clusters.iter().enumerate() {
                if j == assigned {
                    continue;
                }
                let holds_closer = (0..cell.len())
                    .any(|r| euclidean(&s, &cell.row(r)) < kth);
                if holds_closer {
                    prop_assert!(
                        selected.contains(&j),
                        "cell {j} holds a resident closer than kth {kth} but was pruned"
                    );
                }
            }
        }

        /// Soundness of the pruning rule: if a point x in cell j is closer
        /// to s than kth_distance, then j MUST be selected.
        #[test]
        fn never_prunes_a_cell_containing_a_closer_point(
            s in prop::collection::vec(-3.0f64..3.0, 2),
            x in prop::collection::vec(-20.0f64..20.0, 2),
            slack in 0.01f64..5.0,
        ) {
            let s: [f64; 2] = s.try_into().unwrap();
            let x: [f64; 2] = x.try_into().unwrap();
            let cs = centers();
            // s must live in cell 0 for the setup to apply.
            prop_assume!(nearest(&s, &cs) == 0);
            let xj = nearest(&x, &cs);
            prop_assume!(xj != 0);
            // Choose kth so that x is strictly inside the neighbourhood.
            let kth = euclidean(&s, &x) + slack;
            let selected = additional_partitions(&s, 0, kth * kth, 0.0, &cs);
            prop_assert!(
                selected.contains(&xj),
                "cell {xj} holds a point at distance {} < kth {kth} but was pruned",
                euclidean(&s, &x)
            );
        }
    }

    fn nearest(p: &[f64; 2], centers: &[[f64; 2]]) -> usize {
        let mut best = (0usize, f64::INFINITY);
        for (i, c) in centers.iter().enumerate() {
            let d = euclidean(p, c);
            if d < best.1 {
                best = (i, d);
            }
        }
        best.0
    }
}
