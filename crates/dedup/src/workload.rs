//! Labelled pair-set construction from a synthetic corpus.
//!
//! The evaluation (§5) works on *pair* datasets derived from the report
//! database: training sets of 1M–5M pairs and test sets of 10k–200k pairs,
//! with every known duplicate labelled and the (overwhelming) remainder
//! non-duplicate. This module samples such pair sets at any size,
//! preserving the paper's split discipline: ground-truth duplicate pairs are
//! divided between train and test, negatives are sampled uniformly.

use crate::distance::{pair_distance, process_reports, ProcessedReport};
use adr_model::PairId;
use adr_synth::Dataset;
use fastknn::{LabeledPair, UnlabeledPair};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use textprep::{Pipeline, TokenInterner};

/// A train/test pair workload with ground truth.
#[derive(Debug, Clone)]
pub struct PairWorkload {
    /// Labelled training pairs (all assigned duplicates + sampled negatives).
    pub train: Vec<LabeledPair>,
    /// Unlabelled test pairs.
    pub test: Vec<UnlabeledPair>,
    /// Ground truth aligned with `test` (`true` = duplicate).
    pub truth: Vec<bool>,
}

impl PairWorkload {
    /// Number of positive training pairs.
    pub fn train_positives(&self) -> usize {
        self.train.iter().filter(|p| p.positive).count()
    }

    /// Number of positive test pairs.
    pub fn test_positives(&self) -> usize {
        self.truth.iter().filter(|&&t| t).count()
    }

    /// Test set as `(score, truth)` pairs for PR evaluation, given scores
    /// aligned with `test`.
    pub fn scored(&self, scores: &[f64]) -> Vec<(f64, bool)> {
        assert_eq!(scores.len(), self.truth.len());
        scores
            .iter()
            .copied()
            .zip(self.truth.iter().copied())
            .collect()
    }
}

/// Fraction of ground-truth duplicate pairs assigned to the training side.
pub const TRAIN_DUP_FRACTION: f64 = 0.6;

/// A corpus with its reports preprocessed once — amortises tokenisation,
/// stop-wording and stemming across many workload constructions.
#[derive(Debug, Clone)]
pub struct ProcessedCorpus {
    /// The source corpus.
    pub dataset: Dataset,
    /// Preprocessed reports, indexed by report id.
    pub processed: Vec<ProcessedReport>,
    /// The interner all of `processed` share; id sets from different
    /// corpora are not comparable.
    pub interner: TokenInterner,
}

impl ProcessedCorpus {
    /// Preprocess every report with the paper's pipeline, interning all
    /// tokens into one corpus-wide table, on every available core.
    pub fn new(dataset: Dataset) -> Self {
        let mut interner = TokenInterner::new();
        let mut processed = Vec::with_capacity(dataset.reports.len());
        process_reports(
            &dataset.reports,
            &Pipeline::paper(),
            &mut interner,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            |p| processed.push(p),
        );
        ProcessedCorpus {
            dataset,
            processed,
            interner,
        }
    }
}

/// Build a workload of `train_pairs` training and `test_pairs` testing
/// pairs from a corpus. Duplicate pairs are split
/// [`TRAIN_DUP_FRACTION`]/(1−fraction) between train and test; the rest of
/// both sets is uniformly sampled non-duplicate pairs. Deterministic in
/// `seed`.
///
/// # Panics
/// Panics if the corpus has fewer than 2 reports or no duplicate pairs, or
/// if the requested sizes cannot accommodate the duplicate pairs.
pub fn build_workload(
    dataset: &Dataset,
    train_pairs: usize,
    test_pairs: usize,
    seed: u64,
) -> PairWorkload {
    let corpus = ProcessedCorpus::new(dataset.clone());
    build_workload_on(&corpus, train_pairs, test_pairs, seed)
}

/// Fraction of sampled negative pairs drawn from *blocking* (pairs sharing
/// a primary drug or an onset date) rather than uniformly. Candidate pairs
/// in a production dedup system come out of blocking, so the pair store is
/// dominated by same-drug / same-date pairs — the confusable negatives that
/// keep PR curves below 1.
pub const BLOCKED_NEGATIVE_FRACTION: f64 = 0.5;

/// [`build_workload`] over a pre-processed corpus.
pub fn build_workload_on(
    corpus: &ProcessedCorpus,
    train_pairs: usize,
    test_pairs: usize,
    seed: u64,
) -> PairWorkload {
    let dataset = &corpus.dataset;
    let processed = &corpus.processed;
    let n = dataset.reports.len();
    assert!(n >= 2, "need at least two reports");
    assert!(
        !dataset.duplicate_pairs.is_empty(),
        "corpus has no duplicate pairs"
    );

    // Blocking index: reports by primary drug and by onset date. Sampling a
    // partner from a random report's block weights blocks by size, as a
    // real candidate generator does.
    let mut by_block: std::collections::HashMap<String, Vec<u64>> =
        std::collections::HashMap::new();
    let mut report_blocks: Vec<[String; 2]> = Vec::with_capacity(n);
    for r in &dataset.reports {
        let drug_key = format!("drug:{}", r.drug_names().first().unwrap_or(&""));
        let date_key = format!("date:{}", r.reaction.onset_date.as_deref().unwrap_or(""));
        by_block.entry(drug_key.clone()).or_default().push(r.id);
        by_block.entry(date_key.clone()).or_default().push(r.id);
        report_blocks.push([drug_key, date_key]);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut dups = dataset.duplicate_pairs.clone();
    dups.shuffle(&mut rng);
    let train_dup_count = ((dups.len() as f64 * TRAIN_DUP_FRACTION) as usize)
        .clamp(1, dups.len().saturating_sub(1).max(1));
    let (train_dups, test_dups) = dups.split_at(train_dup_count.min(dups.len()));
    assert!(
        train_dups.len() <= train_pairs,
        "train_pairs too small for the duplicate pairs"
    );
    assert!(
        test_dups.len() <= test_pairs,
        "test_pairs too small for the duplicate pairs"
    );

    let dup_set = dataset.duplicate_set();
    let mut used: HashSet<PairId> = dup_set.clone();
    let sample_negative = |rng: &mut StdRng, used: &mut HashSet<PairId>| loop {
        let a = rng.gen_range(0..n as u64);
        let b = if rng.gen_bool(BLOCKED_NEGATIVE_FRACTION) {
            // Blocked candidate: a partner sharing `a`'s drug or onset date.
            let key = &report_blocks[a as usize][rng.gen_range(0..2usize)];
            let block = &by_block[key];
            block[rng.gen_range(0..block.len())]
        } else {
            rng.gen_range(0..n as u64)
        };
        if a == b {
            continue;
        }
        let pid = PairId::new(a, b);
        if used.insert(pid) {
            return pid;
        }
    };

    let vector_of =
        |pid: &PairId| pair_distance(&processed[pid.lo as usize], &processed[pid.hi as usize]);

    let mut train = Vec::with_capacity(train_pairs);
    let mut next_id = 0u64;
    for pid in train_dups {
        train.push(LabeledPair::new(next_id, vector_of(pid), true));
        next_id += 1;
    }
    while train.len() < train_pairs {
        let pid = sample_negative(&mut rng, &mut used);
        train.push(LabeledPair::new(next_id, vector_of(&pid), false));
        next_id += 1;
    }

    let mut test = Vec::with_capacity(test_pairs);
    let mut truth = Vec::with_capacity(test_pairs);
    for pid in test_dups {
        test.push(UnlabeledPair::new(next_id, vector_of(pid)));
        truth.push(true);
        next_id += 1;
    }
    while test.len() < test_pairs {
        let pid = sample_negative(&mut rng, &mut used);
        test.push(UnlabeledPair::new(next_id, vector_of(&pid)));
        truth.push(false);
        next_id += 1;
    }
    // Shuffle test so positives are not clumped at the front.
    let mut order: Vec<usize> = (0..test.len()).collect();
    order.shuffle(&mut rng);
    let test = order.iter().map(|&i| test[i]).collect();
    let truth = order.iter().map(|&i| truth[i]).collect();

    PairWorkload { train, test, truth }
}

/// Uniformly sampled unlabelled test pairs — the test distribution of the
/// paper's scalability experiments (Figs. 7–10): "10,000 randomly selected
/// report pairs". At a ~5% report-duplication rate a uniform pair sample is
/// ~99.99% non-duplicate, so almost every pair resolves through the
/// all-negative shortcut; this is what makes the paper's cross/intra
/// comparison ratio so small (Fig. 8a).
pub fn uniform_test_pairs(corpus: &ProcessedCorpus, count: usize, seed: u64) -> Vec<UnlabeledPair> {
    let n = corpus.dataset.reports.len() as u64;
    assert!(n >= 2, "need at least two reports");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used: HashSet<PairId> = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let pid = PairId::new(a, b);
        if !used.insert(pid) {
            continue;
        }
        let v = pair_distance(
            &corpus.processed[pid.lo as usize],
            &corpus.processed[pid.hi as usize],
        );
        out.push(UnlabeledPair::new(out.len() as u64, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_synth::SynthConfig;

    fn corpus() -> Dataset {
        Dataset::generate(&SynthConfig::small(300, 20, 5))
    }

    #[test]
    fn workload_sizes_and_labels() {
        let ds = corpus();
        let w = build_workload(&ds, 500, 100, 1);
        assert_eq!(w.train.len(), 500);
        assert_eq!(w.test.len(), 100);
        assert_eq!(w.truth.len(), 100);
        assert_eq!(w.train_positives(), 12); // 60% of 20
        assert_eq!(w.test_positives(), 8);
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = corpus();
        let a = build_workload(&ds, 200, 50, 7);
        let b = build_workload(&ds, 200, 50, 7);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        assert_eq!(a.truth, b.truth);
        let c = build_workload(&ds, 200, 50, 8);
        assert_ne!(a.test, c.test);
    }

    #[test]
    fn pair_ids_are_unique_across_train_and_test() {
        let ds = corpus();
        let w = build_workload(&ds, 300, 80, 3);
        let mut ids: HashSet<u64> = HashSet::new();
        for p in &w.train {
            assert!(ids.insert(p.id));
        }
        for t in &w.test {
            assert!(ids.insert(t.id));
        }
    }

    #[test]
    fn vectors_are_eight_dimensional_unit_box() {
        let ds = corpus();
        let w = build_workload(&ds, 100, 30, 2);
        for p in &w.train {
            assert_eq!(p.vector.len(), 8);
            assert!(p.vector.iter().all(|&d| (0.0..=1.0).contains(&d)));
        }
    }

    #[test]
    fn positives_have_smaller_vectors_on_average() {
        let ds = corpus();
        let w = build_workload(&ds, 400, 100, 4);
        let mean = |pairs: Vec<&adr_model::DistVec>| -> f64 {
            let s: f64 = pairs.iter().map(|v| v.iter().sum::<f64>()).sum();
            s / pairs.len() as f64
        };
        let pos = mean(
            w.train
                .iter()
                .filter(|p| p.positive)
                .map(|p| &p.vector)
                .collect(),
        );
        let neg = mean(
            w.train
                .iter()
                .filter(|p| !p.positive)
                .map(|p| &p.vector)
                .collect(),
        );
        assert!(
            pos < neg,
            "positives {pos} must be closer than negatives {neg}"
        );
    }

    #[test]
    fn uniform_test_pairs_are_distinct_and_sized() {
        let corpus = ProcessedCorpus::new(corpus());
        let pairs = uniform_test_pairs(&corpus, 300, 9);
        assert_eq!(pairs.len(), 300);
        // ids are sequential, vectors 8-dimensional.
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(p.id, i as u64);
            assert_eq!(p.vector.len(), 8);
        }
        assert_eq!(
            uniform_test_pairs(&corpus, 300, 9),
            pairs,
            "deterministic in seed"
        );
    }

    #[test]
    #[should_panic(expected = "train_pairs too small")]
    fn tiny_budgets_rejected() {
        let ds = corpus();
        let _ = build_workload(&ds, 2, 100, 1);
    }
}
