//! # simmetrics — similarity and distance metrics for record matching
//!
//! Field-matching building blocks for duplicate detection — the ones §4.2
//! of Wang & Karimi (EDBT 2016) computes distance vectors with (the
//! character-level string metrics §1 surveys are not among them):
//!
//! * [`token`] — Jaccard \[3\], Dice, overlap and cosine over token sets;
//! * [`sorted`] — the same set metrics as allocation-free merge walks over
//!   sorted deduplicated slices (interned token ids on the hot path);
//! * [`vector`] — Euclidean / Manhattan / Minkowski / cosine over dense
//!   `f64` vectors (the paper compares *distance vectors of report pairs*
//!   with Euclidean distance);
//! * [`soa`] — struct-of-arrays [`soa::VecBatch`] column batches with
//!   tiled, autovectorizing distance kernels (1×N, M×N block, fused
//!   centre assignment), bit-identical to the scalar per-pair path;
//! * [`field`] — the paper's §4.2 field-distance rules: 0/1 for numeric and
//!   categorical fields, Jaccard over token sets for string fields.
//!
//! All distances are in `[0, 1]` unless documented otherwise; similarities
//! are `1 - distance` where both are defined.

pub mod field;
pub mod soa;
pub mod sorted;
pub mod token;
pub mod vector;

pub use field::{FieldDistance, FieldKind};
pub use sorted::{
    cosine_tokens_sorted, dice_sorted, intersect_gallop_into, intersection_size_sorted,
    jaccard_distance_sorted, jaccard_similarity_sorted, overlap_coefficient_sorted,
    union_k_sorted_into,
};
pub use token::{cosine_tokens, dice, jaccard_distance, jaccard_similarity, overlap_coefficient};
pub use vector::{
    cosine_similarity, euclidean, euclidean_fixed, manhattan, minkowski, squared_euclidean,
    squared_euclidean8, squared_euclidean_fixed,
};
