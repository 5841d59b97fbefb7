//! Field-distance rules of §4.2.
//!
//! > "For a numerical field, if the values of two reports in the field is
//! > the same, the distance is 0, otherwise 1. The same calculation applies
//! > to categorical field types. For fields of string type, we use Jaccard
//! > similarity coefficient to measure the distance."
//!
//! The 0/1 rules live here; the string rule is Jaccard over interned token
//! sets ([`crate::jaccard_distance_sorted`]).

/// Field-level distance dispatcher implementing the paper's 0/1 rules.
///
/// Missing values: when *both* sides are missing the field carries no
/// signal and we define the distance as 0 (the WHO hit–miss practice);
/// when exactly one side is missing, the values differ, distance 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct FieldDistance;

impl FieldDistance {
    /// 0/1 distance for numeric fields (`None` = missing value).
    pub fn numeric(a: Option<f64>, b: Option<f64>) -> f64 {
        match (a, b) {
            (None, None) => 0.0,
            (Some(x), Some(y)) if x == y => 0.0,
            _ => 1.0,
        }
    }

    /// 0/1 distance for categorical fields.
    pub fn categorical(a: Option<&str>, b: Option<&str>) -> f64 {
        match (a, b) {
            (None, None) => 0.0,
            (Some(x), Some(y)) if x == y => 0.0,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_rule() {
        assert_eq!(FieldDistance::numeric(Some(46.0), Some(46.0)), 0.0);
        assert_eq!(FieldDistance::numeric(Some(84.0), Some(34.0)), 1.0);
        assert_eq!(FieldDistance::numeric(None, None), 0.0);
        assert_eq!(FieldDistance::numeric(Some(46.0), None), 1.0);
    }

    #[test]
    fn categorical_rule() {
        assert_eq!(FieldDistance::categorical(Some("M"), Some("M")), 0.0);
        assert_eq!(FieldDistance::categorical(Some("M"), Some("F")), 1.0);
        assert_eq!(FieldDistance::categorical(None, None), 0.0);
        assert_eq!(FieldDistance::categorical(None, Some("F")), 1.0);
    }

    #[test]
    fn text_rule_is_jaccard() {
        // String fields are sorted interned token ids by the time they are
        // compared; the rule is Jaccard distance over them.
        let rhabdo: &[u32] = &[7];
        assert_eq!(crate::jaccard_distance_sorted(rhabdo, rhabdo), 0.0);
        // {vomiting, pyrexia} vs {vomiting, cough}: inter 1, union 3.
        let (vomiting, pyrexia, cough) = (1u32, 2u32, 3u32);
        let d = crate::jaccard_distance_sorted(&[vomiting, pyrexia], &[vomiting, cough]);
        assert!((d - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn table1_example_fields() {
        // Report A vs B from the paper's Table 1(a): same age/sex, different
        // outcome description.
        assert_eq!(FieldDistance::numeric(Some(46.0), Some(46.0)), 0.0);
        assert_eq!(FieldDistance::categorical(Some("M"), Some("M")), 0.0);
        assert_eq!(
            FieldDistance::categorical(Some("Unknown"), Some("Recovered")),
            1.0
        );
    }
}
