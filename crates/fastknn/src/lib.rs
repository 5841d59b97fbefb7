//! # fastknn — Voronoi-partitioned Fast kNN classification
//!
//! The primary contribution of Wang & Karimi (EDBT 2016), §4.3: a kNN
//! classifier for *highly imbalanced* labelled-pair data, parallelised over
//! a Spark-style engine ([`sparklet`]) with the paper's two pruning devices:
//!
//! 1. **Voronoi partitioning** (§4.3.1): k-means clusters the training
//!    pairs; each test pair is assigned to its nearest cluster centre and
//!    stage 1 searches only that cluster.
//! 2. **Additional-partition selection** (Algorithm 1, §4.3.2): stage 2
//!    consults a neighbouring cluster only when the test pair's current
//!    k-th neighbour distance exceeds its distance to the separating
//!    hyperplane (Eq. 7) — and is skipped entirely when every current
//!    neighbour is negative and closer than the nearest positive
//!    (observations 1–3, exploiting label imbalance).
//!
//! Classification uses the inverse-distance score of Eq. 5 with threshold θ
//! (Eq. 6). §4.3.4's *test-set pruning* — clustering the positive pairs and
//! discarding test pairs outside every positive cluster's `dcp + f(θ)`
//! ball — is implemented in [`prune`].
//!
//! The distributed classifier is *label-exact* with respect to brute-force
//! kNN: when the positive shortcut does not fire it returns the exact
//! k-nearest neighbourhood (Algorithm 1's bound is conservative), and when
//! it does fire the true neighbourhood is provably all-negative. The test
//! suite checks this equivalence against [`serial`].

pub mod classify;
pub mod lattice;
pub mod prune;
pub mod score;
pub mod select;
pub mod serial;
pub mod soa;
pub mod spill;
pub mod stage1;
pub mod types;
pub mod voronoi;

pub use classify::{DistinctScores, FastKnn, FastKnnConfig, CLASSIFY_STAGE};
pub use prune::{
    admissible_radius, scan_cell_pruned, CellScanStats, TestPruner, PRUNE_SLACK_ABS,
    PRUNE_SLACK_REL,
};
pub use score::{label_for, score_neighbors, SCORE_EPS};
pub use select::{additional_partitions, additional_partitions_pruned_into};
pub use soa::{from_unlabeled, to_labeled, ClassifyScratch, ScratchPool, VecBatch};
pub use spill::register_spill_codecs;
pub use stage1::{stage1_row, Stage1Row};
pub use types::{LabeledPair, Neighborhood, ScoredPair, UnlabeledPair, PAIR_DIMS};
pub use voronoi::{hyperplane_distance, VoronoiPartition, Walk};

/// Counter names published to [`sparklet::ClusterMetrics`] — the quantities
/// Figs. 7 and 8 of the paper plot.
pub mod counters {
    /// Test-to-centre distance computations (assignment step).
    pub const CENTER_COMPARISONS: &str = "fastknn.center_comparisons";
    /// Stage-1 intra-cluster pair comparisons (Fig. 7a).
    pub const INTRA_COMPARISONS: &str = "fastknn.intra_comparisons";
    /// Comparisons against the global positive set: positives whose
    /// distance was evaluated (the window scan rejects the rest unevaluated,
    /// into [`PRUNE_BOUND_REJECTED`]).
    pub const POSITIVE_COMPARISONS: &str = "fastknn.positive_comparisons";
    /// Stage-2 cross-cluster pair comparisons (Fig. 7c).
    pub const CROSS_COMPARISONS: &str = "fastknn.cross_comparisons";
    /// Additional clusters selected by Algorithm 1 (Fig. 7b).
    pub const ADDITIONAL_CLUSTERS: &str = "fastknn.additional_clusters";
    /// Tests resolved by the all-negative shortcut (observations 1–3).
    pub const SHORTCUT_SKIPS: &str = "fastknn.shortcut_skips";
    /// Voronoi cells skipped wholesale by the annulus bound (lossless).
    pub const PRUNE_CELLS_SKIPPED: &str = "fastknn.prune_cells_skipped";
    /// Cell residents and positives rejected by the triangle-inequality
    /// window (lossless).
    pub const PRUNE_BOUND_REJECTED: &str = "fastknn.prune_bound_rejected";
    /// Distance evaluations avoided: bound-rejected residents plus the
    /// populations of wholesale-skipped cells.
    pub const PRUNE_EVALS_AVOIDED: &str = "fastknn.prune_evals_avoided";
    /// Rows [`crate::FastKnn::classify_distinct`] answered from another
    /// row's classification: rows in, minus representatives classified.
    pub const ROWS_SHARED: &str = "fastknn.rows_shared";
}
