//! Core data types flowing through the Fast kNN pipeline.
//!
//! Pair vectors are fixed-arity `[f64; D]` arrays (const-generic, defaulting
//! to [`PAIR_DIMS`] — the §4.2 eight-field distance space) so that training
//! pairs are `Copy` and the classification hot path never heap-allocates or
//! clones per pair. Neighbourhoods store **squared** distances: ranking is
//! monotone in the square, so `sqrt` is deferred to the Eq. 5 scoring
//! boundary (see [`crate::score::score_neighbors`]).

use serde::{Deserialize, Serialize};

/// Default pair-vector arity: the eight detection fields of §4.2.
///
/// Kept as a local constant (rather than importing `adr-model`) so the
/// classifier stays schema-agnostic; `dedup` statically asserts the two
/// constants agree.
pub const PAIR_DIMS: usize = 8;

/// A labelled training pair: the distance vector of a report pair plus its
/// duplicate / non-duplicate label.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LabeledPair<const D: usize = PAIR_DIMS> {
    /// Caller-assigned identifier (e.g. an index into the pair store).
    pub id: u64,
    /// Field-distance vector of the report pair (§4.2).
    pub vector: [f64; D],
    /// `true` = duplicate (+1), `false` = non-duplicate (−1).
    pub positive: bool,
}

impl<const D: usize> LabeledPair<D> {
    /// Convenience constructor.
    pub fn new(id: u64, vector: [f64; D], positive: bool) -> Self {
        LabeledPair {
            id,
            vector,
            positive,
        }
    }
}

/// An unlabelled (test) pair awaiting classification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnlabeledPair<const D: usize = PAIR_DIMS> {
    /// Caller-assigned identifier.
    pub id: u64,
    /// Field-distance vector.
    pub vector: [f64; D],
}

impl<const D: usize> UnlabeledPair<D> {
    /// Convenience constructor.
    pub fn new(id: u64, vector: [f64; D]) -> Self {
        UnlabeledPair { id, vector }
    }
}

/// A bounded k-nearest neighbourhood: `(squared distance, candidate id,
/// is_positive)` entries kept sorted ascending and truncated to `k`.
///
/// Distances are stored **squared** — candidate generation compares in
/// squared space and only Eq. 5 scoring takes the root.
///
/// Equal-distance ties are broken by candidate id, so the kept set is a
/// *total-order* top-k: the result is the `k` smallest `(distance_sq, id)`
/// keys of everything ever offered, independent of insertion order. That is
/// what makes distributed classification identical across partition counts
/// and worker schedules — shuffle bucket concatenation order is
/// thread-dependent, and encounter-order tie-breaking would leak it into
/// the output (pinned by the `insertion_order_is_irrelevant` proptest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Neighborhood {
    /// Capacity (the `k` of kNN).
    pub k: usize,
    /// Sorted `(squared distance, candidate id, is_positive)` entries, at
    /// most `k`.
    pub entries: Vec<(f64, u64, bool)>,
}

impl Default for Neighborhood {
    /// A capacity-0 placeholder for scratch arenas; [`Neighborhood::reset`]
    /// gives it a real `k` before use.
    fn default() -> Self {
        Neighborhood::new(0)
    }
}

impl Neighborhood {
    /// Empty neighbourhood of capacity `k`.
    pub fn new(k: usize) -> Self {
        Neighborhood {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// Insert a candidate by **squared** distance (ties broken by `id`),
    /// keeping the `k` closest.
    ///
    /// Gated on the cutoff: against a full neighbourhood a candidate whose
    /// `(distance_sq, id)` key is not below the current k-th key returns
    /// here, before the search and the insert — it would have been inserted
    /// behind the k-th entry and popped again. Almost every candidate a
    /// cell scan offers takes this exit (only ~k·ln(n/k) of n can enter a
    /// top-k), so the common case is two compares. A NaN distance fails
    /// both rejecting comparisons and falls through to the ungated search,
    /// as before; `k == 0` keeps nothing, as before.
    #[inline]
    pub fn push_sq(&mut self, distance_sq: f64, id: u64, positive: bool) {
        if self.entries.len() >= self.k {
            match self.entries.last() {
                Some(&(kth_sq, kth_id, _)) => {
                    if distance_sq > kth_sq || (distance_sq == kth_sq && id >= kth_id) {
                        return;
                    }
                }
                None => return,
            }
            // Admitted against a full hood: the k-th entry is the one that
            // leaves. Dropping it first keeps `entries` within the capacity
            // `new(k)` reserved.
            self.entries.pop();
        }
        let pos = self
            .entries
            .partition_point(|(d, i, _)| *d < distance_sq || (*d == distance_sq && *i <= id));
        self.entries.insert(pos, (distance_sq, id, positive));
    }

    /// Reset to an empty neighbourhood of capacity `k`, keeping the entry
    /// buffer's allocation (scratch-arena reuse on the batch path).
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.entries.clear();
    }

    /// Merge another neighbourhood (disjoint candidate sets assumed).
    pub fn merge(mut self, other: Neighborhood) -> Neighborhood {
        for (d, i, p) in other.entries {
            self.push_sq(d, i, p);
        }
        self
    }

    /// Squared distance of the current k-th (worst) neighbour; `+∞` while
    /// fewer than `k` entries are known (any candidate could still enter).
    pub fn kth_distance_sq(&self) -> f64 {
        if self.entries.len() < self.k {
            f64::INFINITY
        } else {
            self.entries
                .last()
                .map(|(d, _, _)| *d)
                .unwrap_or(f64::INFINITY)
        }
    }

    /// Does the neighbourhood contain any positive?
    pub fn has_positive(&self) -> bool {
        self.entries.iter().any(|(_, _, p)| *p)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the neighbourhood empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Classification output for one test pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredPair {
    /// Test-pair identifier.
    pub id: u64,
    /// Eq. 5 inverse-distance score.
    pub score: f64,
    /// Eq. 6 label at the model's θ: `true` = duplicate.
    pub positive: bool,
    /// Whether the all-negative shortcut resolved this pair (its
    /// neighbourhood is then a superset-bound approximation; the label is
    /// still exact).
    pub shortcut: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pairs_are_copy_and_stack_sized() {
        // The whole point of the fixed-arity representation: a LabeledPair
        // moves by memcpy, no heap in sight.
        fn assert_copy<T: Copy>() {}
        assert_copy::<LabeledPair>();
        assert_copy::<UnlabeledPair>();
        assert_eq!(
            std::mem::size_of::<LabeledPair>(),
            std::mem::size_of::<u64>() + PAIR_DIMS * 8 + 8,
        );
        let p = LabeledPair::new(7, [0.5; PAIR_DIMS], true);
        let q = p; // Copy, not move.
        assert_eq!(p, q);
    }

    #[test]
    fn neighborhood_keeps_k_closest_sorted() {
        let mut n = Neighborhood::new(3);
        for (i, d) in [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().enumerate() {
            n.push_sq(d, i as u64, false);
        }
        let dists: Vec<f64> = n.entries.iter().map(|(d, _, _)| *d).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
        assert_eq!(n.kth_distance_sq(), 3.0);
    }

    #[test]
    fn kth_distance_is_infinite_until_full() {
        let mut n = Neighborhood::new(3);
        n.push_sq(1.0, 0, true);
        assert_eq!(n.kth_distance_sq(), f64::INFINITY);
        n.push_sq(2.0, 1, false);
        n.push_sq(3.0, 2, false);
        assert_eq!(n.kth_distance_sq(), 3.0);
    }

    #[test]
    fn merge_is_a_topk_union() {
        let mut a = Neighborhood::new(2);
        a.push_sq(1.0, 0, true);
        a.push_sq(4.0, 1, false);
        let mut b = Neighborhood::new(2);
        b.push_sq(2.0, 2, false);
        b.push_sq(3.0, 3, false);
        let m = a.merge(b);
        let dists: Vec<f64> = m.entries.iter().map(|(d, _, _)| *d).collect();
        assert_eq!(dists, vec![1.0, 2.0]);
        assert!(m.has_positive());
    }

    #[test]
    fn has_positive_detects_labels() {
        let mut n = Neighborhood::new(2);
        n.push_sq(1.0, 0, false);
        assert!(!n.has_positive());
        n.push_sq(0.5, 1, true);
        assert!(n.has_positive());
    }

    #[test]
    fn equal_distances_break_ties_by_id() {
        // Offer three candidates at the same distance in two different
        // orders; capacity 2 must keep the two smallest ids both times.
        let mut a = Neighborhood::new(2);
        a.push_sq(1.0, 30, true);
        a.push_sq(1.0, 10, false);
        a.push_sq(1.0, 20, false);
        let mut b = Neighborhood::new(2);
        b.push_sq(1.0, 10, false);
        b.push_sq(1.0, 20, false);
        b.push_sq(1.0, 30, true);
        assert_eq!(a.entries, b.entries);
        let ids: Vec<u64> = a.entries.iter().map(|(_, i, _)| *i).collect();
        assert_eq!(ids, vec![10, 20]);
        assert!(!a.has_positive(), "id 30's positive label must be evicted");
    }

    /// Sort key of the total order the neighbourhood maintains.
    fn key(e: &(f64, u64, bool)) -> (u64, u64) {
        (e.0.to_bits(), e.1)
    }

    /// `push_sq` as it was before the cutoff gate: search, insert, pop.
    fn push_ungated(n: &mut Neighborhood, distance_sq: f64, id: u64, positive: bool) {
        let pos = n
            .entries
            .partition_point(|(d, i, _)| *d < distance_sq || (*d == distance_sq && *i <= id));
        n.entries.insert(pos, (distance_sq, id, positive));
        if n.entries.len() > n.k {
            n.entries.pop();
        }
    }

    /// Bit view of the entries, so a NaN compares equal to itself.
    fn bits(n: &Neighborhood) -> Vec<(u64, u64, bool)> {
        n.entries
            .iter()
            .map(|(d, i, p)| (d.to_bits(), *i, *p))
            .collect()
    }

    proptest! {
        /// The gate is invisible: after every offer the gated hood equals
        /// the ungated reference. Distances sit on a quarter lattice and
        /// ids come from a range narrower than the sequence, so offers tie
        /// with the k-th entry on distance with ids below, equal to and
        /// above its id; `k` starts at 0; and the sequence may end with a
        /// NaN, which meets a full hood when the sequence is longer than
        /// `k` and a non-full one when it is shorter.
        #[test]
        fn gated_push_equals_ungated_reference(
            offers in prop::collection::vec((0u8..12, 0u64..10, prop::bool::ANY), 0..40),
            k in 0usize..8,
            nan_last in prop::bool::ANY,
            nan_id in 0u64..10,
        ) {
            let mut offers: Vec<(f64, u64, bool)> = offers
                .into_iter()
                .map(|(q, id, p)| (f64::from(q) * 0.25, id, p))
                .collect();
            if nan_last {
                offers.push((f64::NAN, nan_id, false));
            }
            let mut gated = Neighborhood::new(k);
            let mut reference = Neighborhood::new(k);
            for (d, id, p) in offers {
                gated.push_sq(d, id, p);
                push_ungated(&mut reference, d, id, p);
                prop_assert_eq!(bits(&gated), bits(&reference), "after offering ({}, {})", d, id);
            }
            prop_assert_eq!(
                gated.entries.capacity(),
                Neighborhood::new(k).entries.capacity(),
                "the hood outgrew what new(k) reserved"
            );
        }

        #[test]
        fn neighborhood_invariants(
            ds in prop::collection::vec((0.0f64..10.0, prop::bool::ANY), 0..40),
            k in 1usize..8,
        ) {
            let mut n = Neighborhood::new(k);
            for (i, (d, p)) in ds.iter().enumerate() {
                n.push_sq(*d, i as u64, *p);
            }
            prop_assert!(n.len() <= k);
            for w in n.entries.windows(2) {
                prop_assert!(key(&w[0]) <= key(&w[1]));
            }
            // The kept entries are exactly the k smallest (distance, id) keys.
            let mut all: Vec<(f64, u64, bool)> = ds
                .iter()
                .enumerate()
                .map(|(i, (d, p))| (*d, i as u64, *p))
                .collect();
            all.sort_by_key(key);
            let expect: Vec<(f64, u64, bool)> = all.into_iter().take(k).collect();
            prop_assert_eq!(&n.entries, &expect);
        }

        #[test]
        fn insertion_order_is_irrelevant(
            ds in prop::collection::vec((0.0f64..4.0, prop::bool::ANY), 0..24),
            k in 1usize..6,
            rot in 0usize..24,
        ) {
            // Identical candidate sets offered in different orders (a
            // rotation and a reversal, which is what shuffle-chunk
            // concatenation order amounts to) must yield identical entries
            // — labels included.
            let items: Vec<(f64, u64, bool)> = ds
                .iter()
                .enumerate()
                .map(|(i, (d, p))| ((d * 4.0).round() / 4.0, i as u64, *p))
                .collect();
            let mut fwd = Neighborhood::new(k);
            for (d, i, p) in &items { fwd.push_sq(*d, *i, *p); }
            let mut rev = Neighborhood::new(k);
            for (d, i, p) in items.iter().rev() { rev.push_sq(*d, *i, *p); }
            let mut rotated = Neighborhood::new(k);
            let r = if items.is_empty() { 0 } else { rot % items.len() };
            for (d, i, p) in items[r..].iter().chain(&items[..r]) {
                rotated.push_sq(*d, *i, *p);
            }
            prop_assert_eq!(&fwd.entries, &rev.entries);
            prop_assert_eq!(&fwd.entries, &rotated.entries);
        }

        #[test]
        fn merge_equals_bulk_insert(
            xs in prop::collection::vec((0.0f64..10.0, prop::bool::ANY), 0..20),
            ys in prop::collection::vec((0.0f64..10.0, prop::bool::ANY), 0..20),
            k in 1usize..6,
        ) {
            let label = |off: u64, v: &[(f64, bool)]| -> Vec<(f64, u64, bool)> {
                v.iter()
                    .enumerate()
                    .map(|(i, (d, p))| (*d, off + i as u64, *p))
                    .collect()
            };
            let xs = label(0, &xs);
            let ys = label(1000, &ys);
            let mut a = Neighborhood::new(k);
            for (d, i, p) in &xs { a.push_sq(*d, *i, *p); }
            let mut b = Neighborhood::new(k);
            for (d, i, p) in &ys { b.push_sq(*d, *i, *p); }
            let merged = a.merge(b);
            let mut bulk = Neighborhood::new(k);
            for (d, i, p) in xs.iter().chain(&ys) { bulk.push_sq(*d, *i, *p); }
            prop_assert_eq!(&merged.entries, &bulk.entries);
        }
    }
}
