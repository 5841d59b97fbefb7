//! Report pairs.

use crate::report::ReportId;
use serde::{Deserialize, Serialize};

/// Canonical identifier of an unordered report pair: always `(lo, hi)` with
/// `lo < hi`, so `(a, b)` and `(b, a)` compare equal and hash together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PairId {
    /// Smaller report id.
    pub lo: ReportId,
    /// Larger report id.
    pub hi: ReportId,
}

impl PairId {
    /// Build the canonical pair id.
    ///
    /// # Panics
    /// Panics if `a == b` — a report is never paired with itself.
    pub fn new(a: ReportId, b: ReportId) -> Self {
        assert_ne!(a, b, "a report cannot pair with itself");
        if a < b {
            PairId { lo: a, hi: b }
        } else {
            PairId { lo: b, hi: a }
        }
    }

    /// Does this pair involve report `id`?
    pub fn contains(&self, id: ReportId) -> bool {
        self.lo == id || self.hi == id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pair_id_is_canonical() {
        assert_eq!(PairId::new(3, 7), PairId::new(7, 3));
        let p = PairId::new(9, 2);
        assert_eq!((p.lo, p.hi), (2, 9));
    }

    #[test]
    #[should_panic(expected = "cannot pair with itself")]
    fn self_pair_rejected() {
        let _ = PairId::new(5, 5);
    }

    #[test]
    fn contains_checks_both_ends() {
        let p = PairId::new(1, 4);
        assert!(p.contains(1));
        assert!(p.contains(4));
        assert!(!p.contains(2));
    }

    proptest! {
        #[test]
        fn canonicalisation_is_order_insensitive(a in 0u64..1000, b in 0u64..1000) {
            prop_assume!(a != b);
            prop_assert_eq!(PairId::new(a, b), PairId::new(b, a));
            let p = PairId::new(a, b);
            prop_assert!(p.lo < p.hi);
        }
    }
}
