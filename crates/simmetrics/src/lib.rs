//! # simmetrics — the distance metrics of §4.2
//!
//! Field-matching building blocks for duplicate detection — exactly the
//! ones §4.2 of Wang & Karimi (EDBT 2016) computes distance vectors with:
//! 0/1 rules, Jaccard and Euclidean.
//!
//! * [`field`] — the 0/1 rules for numeric and categorical fields;
//! * [`token`] — Jaccard \[3\] over token sets (Eq. 4), the `HashSet`
//!   reference;
//! * [`sorted`] — Jaccard as an allocation-free merge walk over sorted
//!   deduplicated slices (interned token ids on the hot path), plus the
//!   galloping intersection and k-way union the blocking index uses;
//! * [`vector`] — Euclidean distance over dense `f64` vectors (the paper
//!   compares *distance vectors of report pairs* with Euclidean distance);
//! * [`soa`] — struct-of-arrays [`soa::VecBatch`] column batches with
//!   tiled, autovectorizing distance kernels (1×N and fused centre
//!   assignment), bit-identical to the scalar per-pair path;
//! * [`hash`] — [`hash::WordHasher`], the word-at-a-time hasher of the
//!   driver's tables keyed by ids and distance-vector bits.
//!
//! All distances are in `[0, 1]` unless documented otherwise; similarities
//! are `1 - distance` where both are defined.

pub mod field;
pub mod hash;
pub mod soa;
pub mod sorted;
pub mod token;
pub mod vector;

pub use field::FieldDistance;
pub use sorted::{
    intersect_gallop_into, intersection_size_sorted, jaccard_distance_counts,
    jaccard_distance_sorted, jaccard_similarity_sorted, union_k_sorted_into,
};
pub use token::{jaccard_distance, jaccard_similarity};
pub use vector::{euclidean, euclidean_fixed, squared_euclidean, squared_euclidean_fixed};
