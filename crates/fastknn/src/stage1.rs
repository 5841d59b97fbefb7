//! Stage 1 of Algorithm 2 for one test pair (steps 6–12): intra-cell kNN,
//! the positives, the all-negative shortcut and Algorithm 1.
//!
//! The one copy of the sequence; [`crate::classify`] runs it inside the
//! engine's stage-1 task and [`crate::serial`] in its row loop.
//!
//! # The positives are one more cell
//!
//! [`VoronoiPartition::build`] lays the positives out like a cell, so the
//! positive step is the same walk as the intra step
//! ([`VoronoiPartition::scan_positives`]), over a hood that already holds
//! the intra-cell neighbours. The walk leaves a positive unevaluated in one
//! of two ways: outside its window ([`Walk::Center`], and [`Walk::Lattice`]
//! off the lattice), or under a node of the lattice's trie — a bucket, or a
//! value of a Jaccard column — whose floor, the kernel's partial sum and a
//! lower bound on the computed `d²` of every row below it, exceeds the
//! running cutoff ([`Walk::Lattice`], see [`crate::lattice`]). Either way
//! the skipped positive is **strictly farther than the running cutoff**
//! when it is skipped, and that is all the argument below uses.
//! The walk must deliver two things the full loop delivered — the merged
//! hood and `min(s, T⁺)²` — and delivers both exactly where they are read:
//!
//! * **The hood.** The scan's cutoff starts at `intra_kth_sq` (the hood's
//!   own k-th distance) and only tightens, so a skipped positive is
//!   strictly farther than k candidates the hood already holds: it cannot
//!   enter. The hood equals the full loop's.
//! * **`min_pos_sq`, case "no evaluated positive beats `intra_kth_sq`".**
//!   Then nothing tightened the cutoff (a positive admitted at exactly
//!   `intra_kth` on the id tie-break leaves the k-th distance where it
//!   was), so it stayed at `intra_kth_sq` and every skipped positive —
//!   outside a window, or under a floor above `intra_kth_sq` — is
//!   strictly farther than `intra_kth`. No positive at all beats it, the
//!   true minimum is `≥ intra_kth_sq` too, and the shortcut test
//!   `intra_kth_sq <= min_pos_sq` fires as it would have. `min_pos_sq` is
//!   read nowhere else on that branch.
//! * **`min_pos_sq`, case "one does".** Let `p*` be the nearest positive,
//!   at `d* < intra_kth`. Were the running cutoff ever below `d*`, the hood
//!   would hold k candidates nearer than every positive — k intra-cell
//!   negatives — and `intra_kth ≤ cutoff < d*`, a contradiction. So the
//!   cutoff stays `≥ d*`: every node on `p*`'s path through the trie has a
//!   floor `≤ d*² ≤ cutoff²`, and so has every node nearer the query on
//!   the way there, so the lattice walk reaches it (a walk stops only at a
//!   floor strictly above the cutoff); off the lattice `p*` is inside its
//!   window. It is evaluated, and the `min_pos_sq` handed to Algorithm 1 is
//!   exact.
//!
//! A hood that is not full has `intra_kth_sq = +∞` and the scan sweeps
//! every positive until it fills.

use crate::select::additional_partitions_pruned_into;
use crate::soa::{ClassifyScratch, VecBatch};
use crate::voronoi::{VoronoiPartition, Walk};

/// What stage 1 did for one test pair, in the units the counters use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stage1Row {
    /// The all-negative shortcut fired: the hood is final and `extra` empty.
    pub shortcut: bool,
    /// Residents of the assigned cell whose distance was computed.
    pub intra_evaluated: u64,
    /// Positives whose distance was computed.
    pub positives_evaluated: u64,
    /// Residents and positives the window bound rejected unevaluated.
    pub bound_rejected: u64,
    /// Cells Algorithm 1's annulus bound skipped wholesale.
    pub cells_skipped: u64,
    /// Distance evaluations avoided: `bound_rejected` plus the populations
    /// of the skipped cells.
    pub evals_avoided: u64,
}

impl Stage1Row {
    /// Accumulate another row's counts (`shortcut` is per row and is left
    /// alone).
    pub fn add(&mut self, other: &Stage1Row) {
        self.intra_evaluated += other.intra_evaluated;
        self.positives_evaluated += other.positives_evaluated;
        self.bound_rejected += other.bound_rejected;
        self.cells_skipped += other.cells_skipped;
        self.evals_avoided += other.evals_avoided;
    }
}

/// Run stage 1 for the test vector `v`, assigned to Voronoi cell
/// `assigned` whose residents are `cell`, with every scan in the order
/// `walk` names: Algorithm 2 walks [`Walk::Center`], the product
/// [`Walk::Lattice`].
///
/// On return `scratch.hood` (reset to capacity `k` first) holds the top-k
/// of the assigned cell's residents and all positives — bit-identical to
/// offering every one of them — and `scratch.extra` holds the additional
/// cells Algorithm 1 selected (empty when the shortcut fired).
///
/// A partition without distance metadata
/// ([`VoronoiPartition::without_prune_metadata`], or one assembled by hand)
/// takes the same route: both scans find no sorted distances and sweep, and
/// Algorithm 1 finds no radius bounds and falls back to the hyperplane test.
pub fn stage1_row<const D: usize>(
    partition: &VoronoiPartition<D>,
    cell: &VecBatch<D>,
    assigned: usize,
    v: &[f64; D],
    k: usize,
    walk: Walk,
    scratch: &mut ClassifyScratch<D>,
) -> Stage1Row {
    let ClassifyScratch {
        hood,
        dists,
        pos_dists,
        extra,
    } = scratch;
    hood.reset(k);
    let intra = partition.scan_cell(walk, assigned, cell, v, f64::INFINITY, hood, dists);
    // Algorithm 1 line 2: d(s, s_k) over the intra-cluster neighbours only,
    // BEFORE merging the positives.
    let intra_kth_sq = hood.kth_distance_sq();
    let pos = partition.scan_positives(walk, v, intra_kth_sq, hood, pos_dists);
    // Lines 2–5, the shortcut, are Algorithm 1's first test: it leaves
    // `extra` empty when `intra_kth_sq <= pos.min_sq`.
    let (cells_skipped, residents) =
        additional_partitions_pruned_into(v, assigned, intra_kth_sq, pos.min_sq, partition, extra);
    let bound_rejected = intra.bound_rejected + pos.bound_rejected;
    Stage1Row {
        shortcut: intra_kth_sq <= pos.min_sq,
        intra_evaluated: intra.evaluated,
        positives_evaluated: pos.evaluated,
        bound_rejected,
        cells_skipped,
        evals_avoided: bound_rejected + residents,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::types::{LabeledPair, Neighborhood};
    use proptest::prelude::*;
    use simmetrics::squared_euclidean_fixed;

    /// Coordinates the §4.2 distance space really produces: exact-match
    /// fields are 0 or 1 and short-set Jaccard lands on simple fractions, so
    /// many pairs coincide and candidates sit *exactly* on the cutoff.
    pub(crate) const LATTICE: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

    /// Three lattice indices per point.
    pub(crate) fn lattice_points(
        size: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
        prop::collection::vec((0usize..4, 0usize..4, 0usize..4), size)
    }

    pub(crate) fn on_lattice(points: Vec<(usize, usize, usize)>) -> Vec<[f64; 3]> {
        points
            .into_iter()
            .map(|(x, y, z)| [LATTICE[x], LATTICE[y], LATTICE[z]])
            .collect()
    }

    /// Pair vectors as §4.2 makes them: a five-bit pattern of exact-match
    /// fields, then three Jaccard columns from [`LATTICE`].
    pub(crate) fn pair_points(
        size: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(u8, (usize, usize, usize))>> {
        prop::collection::vec((0u8..32, (0usize..4, 0usize..4, 0usize..4)), size)
    }

    pub(crate) fn pair_vectors(points: Vec<(u8, (usize, usize, usize))>) -> Vec<[f64; 8]> {
        points
            .into_iter()
            .map(|(bits, (x, y, z))| {
                let mut v = [0.0; 8];
                for (d, field) in v.iter_mut().enumerate().take(5) {
                    *field = f64::from(bits >> d & 1);
                }
                v[5..].copy_from_slice(&[LATTICE[x], LATTICE[y], LATTICE[z]]);
                v
            })
            .collect()
    }

    /// Queries off the lattice: pair vectors with one exact-match column
    /// moved to a Jaccard value (sometimes 0 or 1 again).
    pub(crate) fn off_lattice(
        points: Vec<(u8, (usize, usize, usize))>,
        moves: &[(usize, usize)],
    ) -> Vec<[f64; 8]> {
        let mut vectors = pair_vectors(points);
        for (v, &(column, value)) in vectors.iter_mut().zip(moves) {
            v[column] = LATTICE[value];
        }
        vectors
    }

    /// Pair vectors whose Jaccard columns are off [`LATTICE`]: drug names
    /// in sixths, ADR names in ninths and the narrative in 1/97 steps, so
    /// the narrative takes many values and the sums round. `flat` zeroes
    /// the narrative (1) or the ADR and narrative columns (2): a row's
    /// distance is then its level-6 (or level-5) floor, and floors meet
    /// the cutoff exactly.
    fn rich_pair_points(
        size: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(u8, (usize, usize, usize))>> {
        prop::collection::vec((0u8..32, (0usize..7, 0usize..10, 0usize..98)), size)
    }

    fn rich_pair_vectors(points: Vec<(u8, (usize, usize, usize))>, flat: usize) -> Vec<[f64; 8]> {
        points
            .into_iter()
            .map(|(bits, (x, y, z))| {
                let mut v = [0.0; 8];
                for (d, field) in v.iter_mut().enumerate().take(5) {
                    *field = f64::from(bits >> d & 1);
                }
                v[5..].copy_from_slice(&[x as f64 / 6.0, y as f64 / 9.0, z as f64 / 97.0]);
                v[8 - flat.min(2)..].fill(0.0);
                v
            })
            .collect()
    }

    /// Negatives under even ids and positives under odd ones, so distance
    /// ties at the cutoff fall on both sides of the k-th id.
    pub(crate) fn labelled<const D: usize>(
        negatives: &[[f64; D]],
        positives: &[[f64; D]],
    ) -> Vec<LabeledPair<D>> {
        let mut train: Vec<LabeledPair<D>> = Vec::new();
        for (i, v) in negatives.iter().enumerate() {
            train.push(LabeledPair::new(2 * i as u64, *v, false));
        }
        for (i, v) in positives.iter().enumerate() {
            train.push(LabeledPair::new(2 * i as u64 + 1, *v, true));
        }
        train
    }

    /// Stage 1 over `sorted` at every query against the full loop, on both
    /// walks: same hood, same shortcut decision, same Algorithm 1 output,
    /// every resident and positive evaluated or bound-rejected, and the
    /// exact `min(s, T⁺)²` whenever a positive beats the intra-cell k-th
    /// distance. With the metadata stripped, the same routine sweeps.
    fn stage1_equals_the_full_loop<const D: usize>(
        sorted: &VoronoiPartition<D>,
        queries: &[[f64; D]],
        k: usize,
    ) {
        let stripped = sorted.clone().without_prune_metadata();
        let positives = &sorted.positives;
        let mut scratch = ClassifyScratch::default();
        for v in queries {
            let assigned = sorted.assign(v);
            let cell = &sorted.negative_clusters[assigned];
            // The full loop, as stage 1 ran it before the window.
            let mut full = Neighborhood::new(k);
            for j in 0..cell.len() {
                full.push_sq(squared_euclidean_fixed(v, &cell.row(j)), cell.id(j), false);
            }
            let intra_only = full.clone();
            let intra_kth_sq = full.kth_distance_sq();
            let min_pos_sq = sorted.min_positive_distance_sq(v);
            for j in 0..positives.len() {
                let d_sq = squared_euclidean_fixed(v, &positives.row(j));
                full.push_sq(d_sq, positives.id(j), true);
            }
            let mut extra = Vec::new();
            additional_partitions_pruned_into(
                v,
                assigned,
                intra_kth_sq,
                min_pos_sq,
                sorted,
                &mut extra,
            );
            for walk in [Walk::Lattice, Walk::Center] {
                let row = stage1_row(sorted, cell, assigned, v, k, walk, &mut scratch);
                prop_assert_eq!(&scratch.hood, &full, "{:?}", walk);
                prop_assert_eq!(row.shortcut, intra_kth_sq <= min_pos_sq);
                prop_assert_eq!(&scratch.extra, &extra);
                prop_assert_eq!(
                    row.intra_evaluated + row.positives_evaluated + row.bound_rejected,
                    (cell.len() + positives.len()) as u64,
                    "every resident and positive is evaluated or bound-rejected"
                );

                // The minimum itself, straight from the positive scan.
                let mut hood = intra_only.clone();
                let pos =
                    sorted.scan_positives(walk, v, intra_kth_sq, &mut hood, &mut scratch.pos_dists);
                if min_pos_sq < intra_kth_sq {
                    prop_assert_eq!(pos.min_sq.to_bits(), min_pos_sq.to_bits(), "{:?}", walk);
                } else {
                    prop_assert!(pos.min_sq >= intra_kth_sq);
                }
            }

            // No metadata: the same routine sweeps, to the same result.
            let swept = stage1_row(&stripped, cell, assigned, v, k, Walk::Lattice, &mut scratch);
            prop_assert_eq!(&scratch.hood, &full);
            prop_assert_eq!(swept.shortcut, intra_kth_sq <= min_pos_sq);
            prop_assert_eq!(swept.positives_evaluated, positives.len() as u64);
            prop_assert_eq!(swept.evals_avoided, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The windowed positive scan against the full loop (see
        /// [`stage1_equals_the_full_loop`]), with metadata and with it
        /// stripped. Three-column points: never on the five-bit lattice, so
        /// both walks are the centre order.
        ///
        /// `shape` picks the positive set: none, one, all coincident, a
        /// random set, and a random set plus one positive at the query.
        /// Small cells against `k` up to 11 give cutoff `+∞` (k larger
        /// than the cell) and k larger than the positive set.
        #[test]
        fn windowed_positives_equal_the_full_loop_on_lattice_vectors(
            negatives in lattice_points(1..40),
            positives in lattice_points(1..12),
            shape in 0usize..5,
            queries in lattice_points(1..6),
            k in 1usize..12,
            b in 1usize..4,
            seed in 0u64..50,
        ) {
            let (negatives, positives) = (on_lattice(negatives), on_lattice(positives));
            let mut queries = on_lattice(queries);
            let positives: Vec<[f64; 3]> = match shape {
                0 => Vec::new(),
                1 => positives[..1].to_vec(),
                2 => vec![positives[0]; positives.len()],
                3 => positives,
                _ => {
                    queries.push(positives[0]);
                    positives
                }
            };
            let sorted = VoronoiPartition::build(&labelled(&negatives, &positives), b, seed);
            prop_assert!(!sorted.on_lattice());
            stage1_equals_the_full_loop(&sorted, &queries, k);
        }

        /// The same on eight-column pair vectors, which `build` lays out on
        /// the lattice: buckets visited in Hamming order, each walked down
        /// its trie of Jaccard values, against the full loop — for queries on the
        /// lattice, where the first bucket past the cutoff ends the scan,
        /// and off it, where buckets are skipped one by one. With `flat`,
        /// every Jaccard column is 0: each distance is then a Hamming
        /// distance, and a bucket's floor meets the cutoff exactly.
        #[test]
        fn bucketed_scans_equal_the_full_loop_on_eight_column_pair_vectors(
            negatives in pair_points(1..60),
            positives in pair_points(1..12),
            shape in 0usize..5,
            queries in pair_points(1..6),
            strays in pair_points(0..3),
            moves in prop::collection::vec((0usize..5, 0usize..4), 3),
            flat in prop::bool::ANY,
            k in 1usize..12,
            b in 1usize..6,
            seed in 0u64..50,
        ) {
            let (mut negatives, mut positives) = (pair_vectors(negatives), pair_vectors(positives));
            let mut queries = pair_vectors(queries);
            queries.extend(off_lattice(strays, &moves));
            if flat {
                for v in negatives.iter_mut().chain(&mut positives).chain(&mut queries) {
                    v[5..].fill(0.0);
                }
            }
            let positives: Vec<[f64; 8]> = match shape {
                0 => Vec::new(),
                1 => positives[..1].to_vec(),
                2 => vec![positives[0]; positives.len()],
                3 => positives,
                _ => {
                    queries.push(positives[0]);
                    positives
                }
            };
            let sorted = VoronoiPartition::build(&labelled(&negatives, &positives), b, seed);
            prop_assert!(sorted.on_lattice());
            stage1_equals_the_full_loop(&sorted, &queries, k);
        }
    }

    proptest! {
        /// The trie's walk on Jaccard columns as §4.2 makes them — few
        /// drug and ADR values, many narrative ones — against the full
        /// loop, for queries on the lattice and off it. The positive scan
        /// inherits the intra-cell k-th distance as its initial cutoff.
        /// With `flat`, rows share their last columns, so a level-6 (or
        /// level-5) floor is a row's distance and meets the cutoff exactly,
        /// on both sides of the k-th id.
        #[test]
        fn trie_scans_equal_the_full_loop_on_many_valued_jaccard_columns(
            negatives in rich_pair_points(1..80),
            positives in rich_pair_points(1..12),
            shape in 0usize..5,
            queries in rich_pair_points(1..6),
            strays in rich_pair_points(0..3),
            moves in prop::collection::vec((0usize..5, 0usize..4), 3),
            flat in 0usize..3,
            k in 1usize..12,
            b in 1usize..6,
            seed in 0u64..50,
        ) {
            let negatives = rich_pair_vectors(negatives, flat);
            let positives = rich_pair_vectors(positives, flat);
            let mut queries = rich_pair_vectors(queries, flat);
            for (mut v, &(column, value)) in rich_pair_vectors(strays, flat).into_iter().zip(&moves) {
                v[column] = LATTICE[value];
                queries.push(v);
            }
            let positives: Vec<[f64; 8]> = match shape {
                0 => Vec::new(),
                1 => positives[..1].to_vec(),
                2 => vec![positives[0]; positives.len()],
                3 => positives,
                _ => {
                    queries.push(positives[0]);
                    positives
                }
            };
            let sorted = VoronoiPartition::build(&labelled(&negatives, &positives), b, seed);
            prop_assert!(sorted.on_lattice());
            stage1_equals_the_full_loop(&sorted, &queries, k);
        }
    }
}
