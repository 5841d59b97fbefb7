//! Set operations over **sorted, deduplicated** slices.
//!
//! The Jaccard kernels here are the allocation-free counterparts of the
//! `HashSet`-based reference in [`crate::token`]: operands are pre-sorted
//! deduplicated slices (interned `u32` token ids in the dedup pipeline) and
//! the intersection size comes from a single merge walk — no allocation, no
//! hashing, no string bytes touched at comparison time. Property tests
//! assert exact agreement with the reference, including its empty-set
//! convention: two empty sets are identical (similarity 1), an empty vs
//! non-empty set has similarity 0. The galloping intersection and k-way
//! union build the blocking index's candidate sets.

/// `|A ∩ B|` for sorted deduplicated slices, by merge walk.
#[inline]
pub fn intersection_size_sorted<T: Ord>(a: &[T], b: &[T]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "lhs not sorted+deduped");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "rhs not sorted+deduped");
    let mut inter = 0;
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` from the sizes of two sets and
/// of their intersection; two empty sets are identical (similarity 1).
#[inline]
fn jaccard_similarity_counts(inter: usize, a: usize, b: usize) -> f64 {
    let union = a + b - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over sorted deduplicated slices.
#[inline]
pub fn jaccard_similarity_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    jaccard_similarity_counts(intersection_size_sorted(a, b), a.len(), b.len())
}

/// Jaccard distance (Eq. 4) from the sizes of two sets, `a` and `b`, and
/// of their intersection, `inter`: the expression
/// [`jaccard_distance_sorted`] evaluates once its merge walk has counted
/// `inter`, so a caller that counts the intersection another way gets the
/// same bits.
#[inline]
pub fn jaccard_distance_counts(inter: usize, a: usize, b: usize) -> f64 {
    1.0 - jaccard_similarity_counts(inter, a, b)
}

/// Jaccard distance (Eq. 4) over sorted deduplicated slices.
#[inline]
pub fn jaccard_distance_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    jaccard_distance_counts(intersection_size_sorted(a, b), a.len(), b.len())
}

/// Exponential (galloping) search: smallest index in `a[lo..]` whose element
/// is `>= needle`, found by doubling strides then binary-searching the last
/// bracket. `O(log gap)` instead of `O(gap)` — the win when one list is much
/// shorter than the other.
#[inline]
fn gallop_to<T: Ord>(a: &[T], lo: usize, needle: &T) -> usize {
    let mut hi = lo + 1;
    while hi < a.len() && a[hi] < *needle {
        let step = hi - lo;
        hi += step * 2;
    }
    let hi = hi.min(a.len());
    // Invariant: a[lo..] may contain needle, a[..lo] is all < needle, and
    // a[hi..] (if the gallop stopped early) is all >= some element >= needle.
    lo + a[lo..hi].partition_point(|x| x < needle)
}

/// `A ∩ B` for sorted deduplicated slices, appended to `out`, with galloping
/// jumps driven by the shorter list.
///
/// Produces the same elements as the merge walk in
/// [`intersection_size_sorted`] but skips runs of the longer list in
/// `O(log run)` — asymptotically `O(min·log(max/min))`, which matters for
/// posting-list candidate generation where a new report's key list meets a
/// hot block thousands of entries long. `out` is **not** cleared: callers
/// accumulate into reused scratch.
pub fn intersect_gallop_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "lhs not sorted+deduped");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "rhs not sorted+deduped");
    // Drive from the shorter side so each probe gallops the longer one.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut j = 0;
    for x in short {
        if j >= long.len() {
            break;
        }
        j = gallop_to(long, j, x);
        if j < long.len() && long[j] == *x {
            out.push(*x);
            j += 1;
        }
    }
}

/// Union of `k` sorted deduplicated lists, appended to `out` sorted and
/// deduplicated, by k-way merge.
///
/// The cursor set is scanned linearly per emitted element (`O(k)` with the
/// k's this engine sees — a report touches a handful of block keys), which
/// beats a heap's allocation and constant factor until k is large. `out` is
/// **not** cleared; `cursors` is caller-owned scratch (cleared and refilled)
/// so warm calls allocate nothing.
pub fn union_k_sorted_into<T: Ord + Copy>(
    lists: &[&[T]],
    cursors: &mut Vec<usize>,
    out: &mut Vec<T>,
) {
    for l in lists {
        debug_assert!(l.windows(2).all(|w| w[0] < w[1]), "list not sorted+deduped");
    }
    cursors.clear();
    cursors.resize(lists.len(), 0);
    loop {
        // Smallest head across all non-exhausted lists.
        let mut min: Option<T> = None;
        for (l, &c) in lists.iter().zip(cursors.iter()) {
            if c < l.len() {
                let head = l[c];
                min = Some(match min {
                    Some(m) if m <= head => m,
                    _ => head,
                });
            }
        }
        let Some(m) = min else { break };
        out.push(m);
        // Advance every cursor sitting on the emitted value (dedup for free).
        for (l, c) in lists.iter().zip(cursors.iter_mut()) {
            if *c < l.len() && l[*c] == m {
                *c += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{jaccard_distance, jaccard_similarity};
    use proptest::prelude::*;
    use textprep::TokenInterner;

    fn sorted_set(tokens: &[String]) -> Vec<String> {
        let mut s = tokens.to_vec();
        s.sort();
        s.dedup();
        s
    }

    #[test]
    fn merge_walk_known_values() {
        assert_eq!(intersection_size_sorted(&[1u32, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(intersection_size_sorted::<u32>(&[], &[]), 0);
        assert!((jaccard_similarity_sorted(&[1u32, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gallop_intersection_known_values() {
        let mut out = Vec::new();
        intersect_gallop_into(&[3u32, 7, 200], &(0u32..1000).collect::<Vec<_>>(), &mut out);
        assert_eq!(out, vec![3, 7, 200]);
        out.clear();
        intersect_gallop_into(&[1u32, 2], &[5u32, 6], &mut out);
        assert!(out.is_empty());
        // Accumulates without clearing.
        out.push(99);
        intersect_gallop_into(&[4u32], &[4u32], &mut out);
        assert_eq!(out, vec![99, 4]);
    }

    #[test]
    fn union_k_known_values() {
        let mut out = Vec::new();
        let mut cursors = Vec::new();
        union_k_sorted_into(
            &[&[1u32, 4, 9][..], &[2, 4][..], &[][..], &[9, 10][..]],
            &mut cursors,
            &mut out,
        );
        assert_eq!(out, vec![1, 2, 4, 9, 10]);
        out.clear();
        union_k_sorted_into::<u32>(&[], &mut cursors, &mut out);
        assert!(out.is_empty());
    }

    fn sorted_u32_set(v: &[u32]) -> Vec<u32> {
        let mut s = v.to_vec();
        s.sort_unstable();
        s.dedup();
        s
    }

    proptest! {
        // The satellite property: interned sorted-slice metrics agree exactly
        // (bit-for-bit) with the HashSet reference oracle on arbitrary lists.
        #[test]
        fn interned_metrics_match_hashset_oracle(
            a in prop::collection::vec("[a-d]{1,2}", 0..10),
            b in prop::collection::vec("[a-d]{1,2}", 0..10),
        ) {
            let mut interner = TokenInterner::new();
            let ia = interner.intern_set(&a);
            let ib = interner.intern_set(&b);
            prop_assert_eq!(jaccard_similarity_sorted(&ia, &ib), jaccard_similarity(&a, &b));
            prop_assert_eq!(jaccard_distance_sorted(&ia, &ib), jaccard_distance(&a, &b));
        }

        // Same agreement without an interner: sorted string slices.
        #[test]
        fn sorted_string_metrics_match_hashset_oracle(
            a in prop::collection::vec("[a-d]{1,2}", 0..10),
            b in prop::collection::vec("[a-d]{1,2}", 0..10),
        ) {
            let sa = sorted_set(&a);
            let sb = sorted_set(&b);
            prop_assert_eq!(jaccard_similarity_sorted(&sa, &sb), jaccard_similarity(&a, &b));
            prop_assert_eq!(jaccard_distance_sorted(&sa, &sb), jaccard_distance(&a, &b));
        }

        // Galloping intersection agrees element-for-element with the HashSet
        // oracle on arbitrary (possibly wildly size-imbalanced) inputs.
        #[test]
        fn gallop_intersection_matches_hashset_oracle(
            a in prop::collection::vec(0u32..64, 0..40),
            b in prop::collection::vec(0u32..2000, 0..200),
        ) {
            let sa = sorted_u32_set(&a);
            let sb = sorted_u32_set(&b);
            let mut got = Vec::new();
            intersect_gallop_into(&sa, &sb, &mut got);
            let oracle: std::collections::HashSet<u32> = sa
                .iter()
                .filter(|x| sb.binary_search(x).is_ok())
                .copied()
                .collect();
            let mut want: Vec<u32> = oracle.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(got.clone(), want);
            prop_assert_eq!(got.len(), intersection_size_sorted(&sa, &sb));
        }

        // K-way union agrees with the HashSet oracle for any list count.
        #[test]
        fn union_k_matches_hashset_oracle(
            lists in prop::collection::vec(prop::collection::vec(0u32..50, 0..20), 0..6),
        ) {
            let sorted: Vec<Vec<u32>> = lists.iter().map(|l| sorted_u32_set(l)).collect();
            let refs: Vec<&[u32]> = sorted.iter().map(|l| l.as_slice()).collect();
            let mut got = Vec::new();
            let mut cursors = Vec::new();
            union_k_sorted_into(&refs, &mut cursors, &mut got);
            let oracle: std::collections::HashSet<u32> =
                lists.iter().flatten().copied().collect();
            let mut want: Vec<u32> = oracle.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
