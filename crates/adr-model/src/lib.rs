//! # adr-model — the adverse-drug-reaction report schema
//!
//! Typed representation of a TGA-style ADR report (the 37 fields of the
//! paper's Table 2), the subset of fields used for duplicate detection, and
//! report pairs with ground-truth labels.

pub mod fields;
pub mod pairs;
pub mod report;

pub use fields::{DetectionField, DistVec, FieldValue, DETECTION_DIMS, DETECTION_FIELDS};
pub use pairs::{PairId, PairLabel, ReportPair};
pub use report::{AdrReport, ReportId, Sex};
