//! Shared, lazily-built corpora and workloads.

use adr_synth::{Dataset, SynthConfig};
use dedup::workload::ProcessedCorpus;
use std::sync::OnceLock;

/// The TGA-scale corpus of Table 3 (10,382 reports, 286 duplicate pairs),
/// generated once per process.
pub fn tga_corpus() -> &'static ProcessedCorpus {
    static CORPUS: OnceLock<ProcessedCorpus> = OnceLock::new();
    CORPUS.get_or_init(|| ProcessedCorpus::new(Dataset::generate(&SynthConfig::tga())))
}

/// A quick corpus for smoke runs and tests (800 reports, 40 dup pairs).
pub fn small_corpus() -> &'static ProcessedCorpus {
    static CORPUS: OnceLock<ProcessedCorpus> = OnceLock::new();
    CORPUS
        .get_or_init(|| ProcessedCorpus::new(Dataset::generate(&SynthConfig::small(800, 40, 2016))))
}

/// Paper-to-harness scaling for training-set sizes: the paper's "N million
/// pairs" becomes `N million / 5` here. The divisor is deliberately small:
/// keeping the training sets large preserves the paper's extreme label
/// imbalance (their 1M-pair training set holds just 266 duplicates —
/// 0.027%; ours holds ~172 in 200k — 0.086%), which is the mechanism behind
/// their SVM-vs-kNN result.
pub const TRAIN_SCALE_DIVISOR: usize = 5;

/// Convert a paper-scale "millions of training pairs" figure to this
/// harness's pair count.
pub fn scaled_train(millions: usize) -> usize {
    millions * 1_000_000 / TRAIN_SCALE_DIVISOR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_train_matches_design() {
        assert_eq!(scaled_train(1), 200_000);
        assert_eq!(scaled_train(5), 1_000_000);
    }

    #[test]
    fn small_corpus_is_cached() {
        let a = small_corpus() as *const _;
        let b = small_corpus() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn small_workload_builds() {
        let w = dedup::workload::build_workload_on(small_corpus(), 500, 100, 1);
        assert_eq!(w.train.len(), 500);
        assert_eq!(w.test.len(), 100);
        assert!(w.test_positives() > 0);
    }
}
