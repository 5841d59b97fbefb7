//! Dense-vector distances.
//!
//! The paper compares report pairs by the Euclidean distance between their
//! field-distance vectors (§4.2); k-means and the hyperplane bound of Eq. 7
//! run in the same space. The fixed-arity kernels are the ones the
//! classifier runs; the slice versions are the reference its tests check
//! them against.

/// Squared Euclidean distance over slices (monotone in [`euclidean`], no
/// `sqrt`).
///
/// # Panics
/// Panics when lengths differ: mixed-arity distance vectors indicate a bug
/// upstream, never a recoverable condition.
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean (L2) distance.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Squared Euclidean distance over fixed-arity vectors.
///
/// The constant trip count lets the compiler fully unroll the loop and drop
/// every bounds check, while the strictly sequential accumulation order keeps
/// the result **bit-identical** to [`squared_euclidean`] on the same values —
/// the kNN ranking paths rely on that when mixing the two.
#[inline]
pub fn squared_euclidean_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    let mut i = 0;
    while i < D {
        let d = a[i] - b[i];
        acc += d * d;
        i += 1;
    }
    acc
}

/// Euclidean (L2) distance over fixed-arity vectors.
#[inline]
pub fn euclidean_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    squared_euclidean_fixed(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn euclidean_known() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = euclidean(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn euclidean_symmetry_and_nonneg(
            a in prop::collection::vec(-100.0f64..100.0, 4),
            b in prop::collection::vec(-100.0f64..100.0, 4),
        ) {
            let d = euclidean(&a, &b);
            prop_assert!(d >= 0.0);
            prop_assert!((d - euclidean(&b, &a)).abs() < 1e-9);
        }

        #[test]
        fn euclidean_triangle(
            a in prop::collection::vec(-10.0f64..10.0, 3),
            b in prop::collection::vec(-10.0f64..10.0, 3),
            c in prop::collection::vec(-10.0f64..10.0, 3),
        ) {
            prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9);
        }

        #[test]
        fn identity_of_indiscernibles(a in prop::collection::vec(-10.0f64..10.0, 5)) {
            prop_assert_eq!(euclidean(&a, &a), 0.0);
            let fixed: [f64; 5] = a.clone().try_into().unwrap();
            prop_assert_eq!(squared_euclidean_fixed(&fixed, &fixed), 0.0);
        }

        // The satellite property: the unrolled fixed-arity kernel matches the
        // slice version to within 1 ulp (in fact bit-exactly — the
        // accumulation order is identical).
        #[test]
        fn fixed_kernel_matches_slice_within_one_ulp(
            a in prop::collection::vec(-100.0f64..100.0, 8),
            b in prop::collection::vec(-100.0f64..100.0, 8),
        ) {
            let fa: [f64; 8] = a.clone().try_into().unwrap();
            let fb: [f64; 8] = b.clone().try_into().unwrap();
            let slice = squared_euclidean(&a, &b);
            let fixed = squared_euclidean_fixed(&fa, &fb);
            let ulp_gap = (slice.to_bits() as i64 - fixed.to_bits() as i64).abs();
            prop_assert!(ulp_gap <= 1, "slice {slice} vs fixed {fixed} ({ulp_gap} ulps)");
            prop_assert_eq!(euclidean_fixed(&fa, &fb).to_bits(), euclidean(&a, &b).to_bits());
        }
    }
}
