//! Set-based similarity over token collections.
//!
//! The paper's Eq. 4 measures string fields with the Jaccard coefficient
//! over token sets: `d(S1, S2) = 1 − |S1 ∩ S2| / |S1 ∪ S2|`. This `HashSet`
//! version is the reference the sorted-slice kernels of [`crate::sorted`]
//! are checked against.

use std::collections::HashSet;
use std::hash::Hash;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over the *sets* of tokens.
/// Two empty collections are defined as identical (similarity 1).
pub fn jaccard_similarity<T: Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

/// Jaccard distance, the paper's Eq. 4: `1 − jaccard_similarity`.
pub fn jaccard_distance<T: Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn jaccard_known_values() {
        let a = toks("patient experienced severe headache");
        let b = toks("patient reported severe headache");
        // sets: {patient, experienced, severe, headache} vs {patient, reported, severe, headache}
        // inter 3, union 5.
        assert!((jaccard_similarity(&a, &b) - 0.6).abs() < 1e-12);
        assert!((jaccard_distance(&a, &b) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn duplicates_within_input_do_not_count_twice() {
        let a = vec!["x", "x", "y"];
        let b = vec!["x", "y", "y"];
        assert_eq!(jaccard_similarity(&a, &b), 1.0);
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<&str> = vec![];
        assert_eq!(jaccard_similarity::<&str>(&e, &e), 1.0);
        assert_eq!(jaccard_distance::<&str>(&e, &e), 0.0);
        assert_eq!(jaccard_similarity(&e, &toks("a b")), 0.0);
        assert_eq!(jaccard_distance(&toks("a b"), &e), 1.0);
    }

    proptest! {
        #[test]
        fn all_in_unit_interval(a in prop::collection::vec("[a-d]{1,2}", 0..8),
                                b in prop::collection::vec("[a-d]{1,2}", 0..8)) {
            prop_assert!((0.0..=1.0).contains(&jaccard_similarity(&a, &b)));
            prop_assert!((0.0..=1.0).contains(&jaccard_distance(&a, &b)));
        }

        #[test]
        fn symmetric(a in prop::collection::vec("[a-d]{1,2}", 0..8),
                     b in prop::collection::vec("[a-d]{1,2}", 0..8)) {
            prop_assert_eq!(jaccard_similarity(&a, &b), jaccard_similarity(&b, &a));
        }

        #[test]
        fn self_similarity(a in prop::collection::vec("[a-d]{1,2}", 1..8)) {
            prop_assert_eq!(jaccard_similarity(&a, &a), 1.0);
            prop_assert_eq!(jaccard_distance(&a, &a), 0.0);
        }
    }
}
