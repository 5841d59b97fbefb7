//! # adr-model — the adverse-drug-reaction report schema
//!
//! Typed representation of a TGA-style ADR report (the 37 fields of the
//! paper's Table 2), the shape of a §4.2 pair distance vector over the
//! detection-field subset, and canonical report-pair ids.

pub mod fields;
pub mod pairs;
pub mod report;

pub use fields::{DistVec, DETECTION_DIMS};
pub use pairs::PairId;
pub use report::{AdrReport, ReportId, Sex};
