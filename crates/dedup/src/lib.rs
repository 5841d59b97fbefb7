//! # dedup — the end-to-end ADR duplicate-detection system
//!
//! Implements the workflow of the paper's Fig. 1 around the `fastknn`
//! classifier:
//!
//! ```text
//! report database ──► text-field processing ──► pairwise report distances
//!        ▲                                             │
//!        │            labelled duplicates ──┐          ▼
//!   new reports       labelled non-dups ────┴──► classification ──► duplicate pairs
//!                         ▲                                              │
//!                         └──────────── feedback ────────────────────────┘
//! ```
//!
//! * [`distance`] — §4.2's report representation: per-report text
//!   preprocessing and the 8-field distance vector between two reports;
//! * [`pairing`] — candidate pair enumeration (§3: new reports against the
//!   database and among themselves) and the distributed pairwise-distance
//!   job (the separately-timed step of Fig. 10b);
//! * [`store`] — the two labelled-pair databases of Fig. 1 (all known
//!   duplicates; a bounded sample of non-duplicates) with feedback;
//! * [`system`] — [`system::DedupSystem`], the orchestrated service;
//! * [`ingest`] — [`ingest::IngestService`], the durable micro-batch ingest
//!   loop: checkpointed commits, crash recovery and poison quarantine
//!   around the Fig. 1 feedback loop;
//! * [`serve`] — [`serve::ServeService`], low-latency read serving: adaptive
//!   micro-batched duplicate lookups and memoised drug–event signal (ROR)
//!   queries over incrementally-maintained contingency tables;
//! * [`svm_baseline`] — the §5.2.1 SVM and Fig. 5(c) "SVM clustering"
//!   comparison methods;
//! * [`workload`] — labelled pair-set construction from a synthetic corpus
//!   (training/testing splits at the sizes the evaluation sweeps).
//!
//! Non-test code has no `unwrap` or `expect`: a hostile input or a failed
//! job surfaces as a typed error, never as a panic. The lint below keeps it
//! so under `cargo clippy`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

// The classifier's default pair arity and the §4.2 schema width must agree:
// [`fastknn::LabeledPair`] defaults to `PAIR_DIMS` and this crate feeds it
// [`adr_model::DistVec`] vectors.
const _: () = assert!(fastknn::PAIR_DIMS == adr_model::DETECTION_DIMS);

pub mod blocking;
pub mod distance;
pub mod ingest;
pub mod pairing;
pub mod serve;
pub mod store;
pub mod svm_baseline;
pub mod system;
pub mod workload;

pub use blocking::BlockingIndex;
pub use distance::{pair_distance, HeldReport, ProcessedReport};
pub use ingest::{IngestConfig, IngestError, IngestService, TornWrite};
pub use pairing::{
    index_corpus, pack_pairs, pairs_involving_new, pairwise_distances, CorpusIndex, DistanceMemo,
};
pub use serve::{
    answers_digest, ServeAnswer, ServeConfig, ServeQuery, ServeRequest, ServeRunSummary,
    ServeService, SignalStats,
};
pub use store::PairStore;
pub use svm_baseline::{svm_clustering_scores, svm_scores};
pub use system::{DedupConfig, DedupSystem, Detection};
pub use workload::{build_workload, build_workload_on, PairWorkload, ProcessedCorpus};
