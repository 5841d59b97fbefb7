//! # mlcore — learning primitives for duplicate detection
//!
//! The machine-learning substrate the paper builds on (the kNN itself —
//! brute force, Voronoi-partitioned, Eq. 5 scoring — lives in `fastknn`):
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding, used both to
//!   Voronoi-partition training pairs (§4.3.1) and to cluster positive
//!   pairs for test-set pruning (§4.3.4);
//! * [`svm`] — a linear soft-margin SVM trained with Pegasos-style
//!   stochastic sub-gradient descent: the comparison baseline of §5.2.1,
//!   plus the cluster-sampled "SVM clustering" variant of Fig. 5(c);
//! * [`eval`] — precision–recall curves and area-under-PR (§5.2.2's metric
//!   of choice for heavily imbalanced data).

pub mod eval;
pub mod kmeans;
pub mod svm;

pub use eval::{average_precision, pr_curve, PrPoint};
pub use kmeans::{KMeans, KMeansModel};
pub use svm::{LinearSvm, SvmConfig};
