//! The detection-field subset (bold rows of the paper's Table 2) as a
//! distance-vector shape.

/// Number of fields §4.2 selects for duplicate detection, following the WHO
/// system of Norén et al. = dimensionality of pair distance vectors.
pub const DETECTION_DIMS: usize = 8;

/// A §4.2 pair distance vector: one `[0, 1]` component per detection field,
/// in this order — patient age (numeric), sex, residential state, onset
/// date, reaction outcome description (categorical), drug name, ADR name
/// (strings) and the free-text report description (NLP-processed).
///
/// Fixed arity and `Copy` on purpose — the classification hot path evaluates
/// millions of these per batch, and a stack array keeps that path free of
/// per-pair heap allocation (and of the `Vec` clone churn a growable vector
/// drags into every partition build).
pub type DistVec = [f64; DETECTION_DIMS];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_detection_fields() {
        assert_eq!(DETECTION_DIMS, 8);
        // A pair vector is eight raw `f64`s: `Copy`, no heap, 64 bytes.
        assert_eq!(std::mem::size_of::<DistVec>(), 64);
    }
}
