//! Test-set pruning in practice (§4.3.4 + the paper's future-work item of
//! learning f(θ) from labelled data).
//!
//! ```sh
//! cargo run -p examples --bin pruning_speedup --release
//! ```
//!
//! Builds a workload, learns the pruning expansion f(θ) for a 100% recall
//! target from held-out duplicates, and compares comparison counts and
//! virtual time with and without pruning.

use adr_synth::{Dataset, SynthConfig};
use dedup::workload::build_workload;
use fastknn::{FastKnn, FastKnnConfig, LabeledPair, TestPruner, UnlabeledPair};
use sparklet::Cluster;

fn classify(
    train: &[LabeledPair],
    test: &[UnlabeledPair],
) -> Result<(u64, f64), Box<dyn std::error::Error>> {
    let cluster = Cluster::local(4);
    let model = FastKnn::fit(
        &cluster,
        train,
        FastKnnConfig {
            b: 24,
            ..FastKnnConfig::default()
        },
    )?;
    cluster.reset_run_state();
    let _ = model.classify(test)?;
    let comparisons = cluster
        .metrics()
        .counter(fastknn::counters::INTRA_COMPARISONS)
        .get()
        + cluster
            .metrics()
            .counter(fastknn::counters::CROSS_COMPARISONS)
            .get();
    Ok((comparisons, cluster.virtual_elapsed().minutes()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Dataset::generate(&SynthConfig::small(2_000, 100, 21));
    let workload = build_workload(&corpus, 30_000, 3_000, 21);
    let positives: Vec<LabeledPair> = workload
        .train
        .iter()
        .filter(|p| p.positive)
        .cloned()
        .collect();
    println!(
        "workload: {} train / {} test; {} positive pairs feed the pruner",
        workload.train.len(),
        workload.test.len(),
        positives.len()
    );

    // Learn f(θ) from a held-out half of the positives (§5.2.6 future work).
    let (fit_pos, held_out) = positives.split_at(positives.len() / 2);
    let pruner = TestPruner::build(fit_pos, 12, 21)?;
    let held_vectors: Vec<adr_model::DistVec> = held_out.iter().map(|p| p.vector).collect();
    let f_theta = pruner.learn_f_theta(&held_vectors, 1.0, 0.05);
    println!("learned f(θ) = {f_theta:.3} for a 100% duplicate-recall target");

    let (full_cmp, full_min) = classify(&workload.train, &workload.test)?;
    let outcome = pruner.prune(&workload.test, f_theta);
    println!(
        "pruning keeps {:.1}% of the test set ({} of {})",
        outcome.keep_ratio() * 100.0,
        outcome.kept.len(),
        workload.test.len()
    );
    let (pruned_cmp, pruned_min) = classify(&workload.train, &outcome.kept)?;

    // Safety check: no true duplicate was pruned.
    let kept_ids: std::collections::HashSet<u64> = outcome.kept.iter().map(|t| t.id).collect();
    let lost = workload
        .test
        .iter()
        .zip(&workload.truth)
        .filter(|(t, &truth)| truth && !kept_ids.contains(&t.id))
        .count();

    println!(
        "\n{:<22} {:>16} {:>16}",
        "", "comparisons", "virtual minutes"
    );
    println!("{:<22} {:>16} {:>16.3}", "no pruning", full_cmp, full_min);
    println!(
        "{:<22} {:>16} {:>16.3}",
        "with pruning", pruned_cmp, pruned_min
    );
    println!(
        "\npruning cuts {:.0}% of comparisons and {:.0}% of virtual time; \
         true duplicates lost: {lost}",
        (1.0 - pruned_cmp as f64 / full_cmp as f64) * 100.0,
        (1.0 - pruned_min / full_min) * 100.0,
    );
    Ok(())
}
