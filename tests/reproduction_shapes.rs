//! Small-scale shape checks of the paper's headline results — the same
//! claims the full benches regenerate, asserted as tests so CI guards the
//! reproduction.
//!
//! Methodology notes (mirroring `crates/bench`):
//! * quality shapes (Fig. 5) need the TGA-scale corpus geometry and the
//!   paper's label imbalance, so that test builds the full corpus once;
//! * scalability shapes (Figs. 7–10) test on *uniformly random* pairs, as
//!   the paper does — a uniform sample is ~99.99% non-duplicate, which is
//!   what makes the cross/intra comparison ratio small;
//! * execution times are virtual-clock makespans under a paper-scaled cost
//!   model (see DESIGN.md).

use adr_synth::{Dataset, SynthConfig};
use dedup::svm_scores;
use dedup::workload::{build_workload_on, uniform_test_pairs, ProcessedCorpus};
use fastknn::{counters, FastKnn, FastKnnConfig, LabeledPair, TestPruner, VoronoiPartition};
use mlcore::average_precision;
use mlcore::svm::SvmConfig;
use sparklet::{Cluster, CostModelConfig};
use std::collections::HashMap;
use std::sync::OnceLock;

fn small_corpus() -> &'static ProcessedCorpus {
    static C: OnceLock<ProcessedCorpus> = OnceLock::new();
    C.get_or_init(|| ProcessedCorpus::new(Dataset::generate(&SynthConfig::small(1_500, 75, 17))))
}

fn tga_corpus() -> &'static ProcessedCorpus {
    static C: OnceLock<ProcessedCorpus> = OnceLock::new();
    C.get_or_init(|| ProcessedCorpus::new(Dataset::generate(&SynthConfig::tga())))
}

/// Cost model whose virtual time is dominated by comparisons, not task
/// overhead, at test scale (the bench uses the same idea via PAPER_SCALE).
fn scaled_cost() -> CostModelConfig {
    CostModelConfig {
        op_ns: 400 * 50,
        task_launch_overhead_us: 500,
        coordination_us_per_executor: 200,
        ..CostModelConfig::default()
    }
}

fn knn_aupr(w: &dedup::workload::PairWorkload, b: usize) -> f64 {
    let cluster = Cluster::local(2);
    let model = FastKnn::fit(
        &cluster,
        &w.train,
        FastKnnConfig {
            b,
            ..FastKnnConfig::default()
        },
    )
    .expect("fit");
    let scored = model.classify(&w.test).expect("classify");
    let by_id: HashMap<u64, f64> = scored.iter().map(|s| (s.id, s.score)).collect();
    let scores: Vec<f64> = w.test.iter().map(|t| by_id[&t.id]).collect();
    average_precision(&w.scored(&scores))
}

#[test]
fn fig5_shape_knn_beats_the_svm_baseline_at_paper_imbalance() {
    // The paper's regime: ~0.03% positive training pairs (their 1M-pair set
    // holds 266 duplicates). The TGA-scale corpus reproduces the geometry.
    let w = build_workload_on(tga_corpus(), 50_000, 1_500, 17);
    let knn = knn_aupr(&w, 32);
    let svm = svm_scores(&w.train, &w.test, &SvmConfig::default());
    let by_id: HashMap<u64, f64> = svm.into_iter().collect();
    let svm_scores_v: Vec<f64> = w.test.iter().map(|t| by_id[&t.id]).collect();
    let svm_ap = average_precision(&w.scored(&svm_scores_v));
    assert!(
        knn > svm_ap,
        "Fig 5 shape: kNN ({knn:.3}) must beat the SGD SVM baseline ({svm_ap:.3})"
    );
    assert!(
        knn > 0.85,
        "kNN should be strong in absolute terms: {knn:.3}"
    );
}

#[test]
fn fig7_8_shape_comparisons_fall_with_b_and_cross_stays_marginal() {
    let w = build_workload_on(small_corpus(), 8_000, 300, 19);
    // Uniform test pairs, as in the paper's Figs. 7/8.
    let test = uniform_test_pairs(small_corpus(), 400, 19);
    let run_at = |b: usize| {
        let cluster = Cluster::local(2);
        let model = FastKnn::fit(
            &cluster,
            &w.train,
            FastKnnConfig {
                b,
                ..FastKnnConfig::default()
            },
        )
        .expect("fit");
        cluster.metrics().reset();
        let _ = model.classify(&test).expect("classify");
        (
            cluster.metrics().counter(counters::INTRA_COMPARISONS).get(),
            cluster.metrics().counter(counters::CROSS_COMPARISONS).get(),
            cluster.metrics().counter(counters::SHORTCUT_SKIPS).get(),
        )
    };
    let (intra_small_b, _, _) = run_at(5);
    let (intra_large_b, cross_large_b, shortcuts) = run_at(40);
    assert!(
        intra_large_b < intra_small_b,
        "Fig 7(a) shape: {intra_small_b} -> {intra_large_b}"
    );
    // Fig 8(a) shape: on uniform pairs, cross-cluster work is marginal
    // because the all-negative shortcut resolves almost everything.
    assert!(
        (cross_large_b as f64) < 0.30 * intra_large_b as f64,
        "cross ({cross_large_b}) should stay well below intra ({intra_large_b})"
    );
    assert!(
        shortcuts as f64 > 0.9 * test.len() as f64,
        "uniform pairs should overwhelmingly shortcut: {shortcuts}/{}",
        test.len()
    );
}

#[test]
fn fig9_shape_virtual_time_grows_sublinearly_with_training_size() {
    let test = uniform_test_pairs(small_corpus(), 300, 23);
    let time_at = |train_pairs: usize| {
        let w = build_workload_on(small_corpus(), train_pairs, 200, 23);
        let cluster = Cluster::local(2);
        // Figure 9 charts the paper's engine, which scans whole cells; the
        // bound-driven pruning layer (DESIGN.md §13) makes classification
        // time nearly independent of training size, so the shape is pinned
        // on a partition stripped of the metadata the bounds read.
        let config = FastKnnConfig {
            b: 16,
            ..FastKnnConfig::default()
        };
        let voronoi = VoronoiPartition::build(&w.train, config.b, config.seed);
        let model = FastKnn::from_partition(&cluster, voronoi.without_prune_metadata(), config)
            .expect("fit");
        cluster.reset_run_state();
        let _ = model.classify(&test).expect("classify");
        cluster.clock().makespan(25, 1, &scaled_cost()).us as f64
    };
    let t1 = time_at(8_000);
    let t5 = time_at(40_000);
    let growth = t5 / t1;
    assert!(
        growth > 1.05,
        "5x data must cost more time, got {growth:.2}x"
    );
    assert!(
        growth < 5.0,
        "Fig 9 shape: growth must be sublinear in data (paper: 1.4-2.1x), got {growth:.2}x"
    );
}

#[test]
fn fig10_shape_virtual_time_falls_with_executors_but_sublinearly() {
    let w = build_workload_on(small_corpus(), 10_000, 200, 29);
    let test = uniform_test_pairs(small_corpus(), 300, 29);
    let cluster = Cluster::local(2);
    let model = FastKnn::fit(
        &cluster,
        &w.train,
        FastKnnConfig {
            b: 16,
            ..FastKnnConfig::default()
        },
    )
    .expect("fit");
    cluster.reset_run_state();
    let _ = model.classify(&test).expect("classify");
    let cost = scaled_cost();
    let t5 = cluster.clock().makespan(5, 1, &cost).us as f64;
    let t20 = cluster.clock().makespan(20, 1, &cost).us as f64;
    assert!(t20 < t5, "more executors must be faster: {t5} vs {t20}");
    assert!(
        t5 / t20 < 4.0,
        "speedup must flatten below the 4x ideal, got {:.2}x",
        t5 / t20
    );
}

#[test]
fn fig11_shape_pruning_keeps_every_wide_radius_duplicate() {
    let w = build_workload_on(small_corpus(), 10_000, 2_000, 31);
    let positives: Vec<LabeledPair> = w.train.iter().filter(|p| p.positive).cloned().collect();
    let pruner = TestPruner::build(&positives, 10, 31).unwrap();
    let mut last_kept = 0usize;
    for f in [0.3, 0.5, 0.7, 0.9] {
        let outcome = pruner.prune(&w.test, f);
        assert!(outcome.kept.len() >= last_kept, "monotone keep in f(θ)");
        last_kept = outcome.kept.len();
    }
    // Wide setting: all true duplicates retained.
    let outcome = pruner.prune(&w.test, 0.9);
    let kept: std::collections::HashSet<u64> = outcome.kept.iter().map(|t| t.id).collect();
    for (t, &truth) in w.test.iter().zip(&w.truth) {
        if truth {
            assert!(kept.contains(&t.id), "duplicate {} pruned at f=0.9", t.id);
        }
    }
}
