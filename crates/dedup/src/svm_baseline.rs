//! The comparison classifiers of §5.2.1 / Fig. 5(c).
//!
//! * **SVM** — a vanilla linear SVM over pair distance vectors; its decision
//!   value serves as the ranking score for the PR curve.
//! * **SVM clustering** — the paper's improved variant: "clustering \[the\]
//!   training set and mak\[ing\] sure report pairs in small clusters are
//!   included in the training dataset", i.e. sample the training set
//!   per-cluster (small clusters fully) instead of uniformly.

use fastknn::{LabeledPair, UnlabeledPair};
use mlcore::kmeans::KMeans;
use mlcore::svm::{LinearSvm, SvmConfig};

fn split_xy<const D: usize>(train: &[LabeledPair<D>]) -> (Vec<Vec<f64>>, Vec<i8>) {
    let x: Vec<Vec<f64>> = train.iter().map(|p| p.vector.to_vec()).collect();
    let y: Vec<i8> = train
        .iter()
        .map(|p| if p.positive { 1 } else { -1 })
        .collect();
    (x, y)
}

/// Train the paper's SVM baseline and score the test set by decision value.
///
/// Solver fidelity matters here: the paper runs on Spark 1.2.1, where the
/// only available SVM is MLlib's `SVMWithSGD` (full-batch hinge SGD,
/// `1/√t` steps, no intercept). [`LinearSvm::train_batch`] reproduces that
/// solver and its behaviour under extreme label imbalance — which is the
/// phenomenon §5.2.2 reports. A modern dual coordinate descent solver
/// ([`LinearSvm::train_dual`]) closes much of the gap; the ablation bench
/// quantifies this (see EXPERIMENTS.md).
pub fn svm_scores<const D: usize>(
    train: &[LabeledPair<D>],
    test: &[UnlabeledPair<D>],
    config: &SvmConfig,
) -> Vec<(u64, f64)> {
    let (x, y) = split_xy(train);
    let svm = LinearSvm::train_batch(&x, &y, config);
    test.iter()
        .map(|t| (t.id, svm.decision(&t.vector)))
        .collect()
}

/// The Fig. 5(c) "SVM clustering" variant: k-means the training vectors into
/// `clusters` groups and build a balanced-by-cluster training sample of at
/// most `budget` pairs (every cluster contributes, small clusters entirely),
/// then train the SVM on the sample.
pub fn svm_clustering_scores<const D: usize>(
    train: &[LabeledPair<D>],
    test: &[UnlabeledPair<D>],
    clusters: usize,
    budget: usize,
    config: &SvmConfig,
) -> Vec<(u64, f64)> {
    let sampled = cluster_sample(train, clusters, budget, config.seed);
    svm_scores(&sampled, test, config)
}

/// Per-cluster sampling: round-robin over clusters so every cluster —
/// however small — is represented in the budget.
pub fn cluster_sample<const D: usize>(
    train: &[LabeledPair<D>],
    clusters: usize,
    budget: usize,
    seed: u64,
) -> Vec<LabeledPair<D>> {
    if train.len() <= budget {
        return train.to_vec();
    }
    // Fit k-means on a stride sample (clustering cost, not assignment cost,
    // dominates on million-pair training sets), then assign every pair.
    const FIT_CAP: usize = 50_000;
    let fit_vectors: Vec<[f64; D]> = if train.len() > FIT_CAP {
        let stride = train.len() / FIT_CAP + 1;
        train.iter().step_by(stride).map(|p| p.vector).collect()
    } else {
        train.iter().map(|p| p.vector).collect()
    };
    let model = KMeans::new(clusters.max(1), seed).fit(&fit_vectors);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); model.k()];
    for (i, p) in train.iter().enumerate() {
        buckets[model.assign(&p.vector)].push(i);
    }
    let mut out = Vec::with_capacity(budget);
    let mut cursor = vec![0usize; buckets.len()];
    'outer: loop {
        let mut progressed = false;
        for (b, bucket) in buckets.iter().enumerate() {
            if cursor[b] < bucket.len() {
                out.push(train[bucket[cursor[b]]]);
                cursor[b] += 1;
                progressed = true;
                if out.len() >= budget {
                    break 'outer;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcore::average_precision;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn imbalanced_workload(seed: u64) -> (Vec<LabeledPair<4>>, Vec<UnlabeledPair<4>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        // Positives: small distance vectors (duplicates are close).
        for i in 0..20 {
            let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..0.2));
            train.push(LabeledPair::new(i, v, true));
        }
        // Negatives: spread out.
        for i in 0..2000 {
            let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.1..1.0));
            train.push(LabeledPair::new(100 + i, v, false));
        }
        let mut test = Vec::new();
        let mut truth = Vec::new();
        for i in 0..40 {
            let positive = i % 8 == 0;
            let v: [f64; 4] = if positive {
                std::array::from_fn(|_| rng.gen_range(0.0..0.2))
            } else {
                std::array::from_fn(|_| rng.gen_range(0.1..1.0))
            };
            test.push(UnlabeledPair::new(i, v));
            truth.push(positive);
        }
        (train, test, truth)
    }

    #[test]
    fn svm_scores_rank_obviously_separable_data() {
        let (train, test, truth) = imbalanced_workload(1);
        let scores = svm_scores(&train, &test, &SvmConfig::default());
        let scored: Vec<(f64, bool)> = scores
            .iter()
            .zip(&truth)
            .map(|((_, s), &t)| (*s, t))
            .collect();
        // Vanilla SVM should do SOMETHING, even if weak under imbalance.
        let ap = average_precision(&scored);
        assert!(ap.is_finite());
    }

    #[test]
    fn cluster_sample_respects_budget_and_small_clusters() {
        let (train, _, _) = imbalanced_workload(2);
        let sample = cluster_sample(&train, 8, 200, 3);
        assert_eq!(sample.len(), 200);
        // The positive clump forms its own small cluster; round-robin
        // sampling must include positives.
        assert!(
            sample.iter().any(|p| p.positive),
            "cluster sampling must represent the small positive cluster"
        );
    }

    #[test]
    fn cluster_sample_small_input_passthrough() {
        let (train, _, _) = imbalanced_workload(3);
        let small: Vec<LabeledPair<4>> = train.into_iter().take(50).collect();
        let sample = cluster_sample(&small, 4, 100, 1);
        assert_eq!(sample.len(), 50);
    }

    #[test]
    fn svm_clustering_runs_end_to_end() {
        let (train, test, truth) = imbalanced_workload(4);
        let scores = svm_clustering_scores(&train, &test, 8, 500, &SvmConfig::default());
        assert_eq!(scores.len(), test.len());
        let scored: Vec<(f64, bool)> = scores
            .iter()
            .zip(&truth)
            .map(|((_, s), &t)| (*s, t))
            .collect();
        assert!(average_precision(&scored).is_finite());
    }
}
