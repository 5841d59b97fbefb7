//! Classifier shoot-out on one workload: Fast kNN (Eq. 5) vs the SVM
//! baselines — a miniature of the paper's Fig. 5.
//!
//! ```sh
//! cargo run -p examples --bin classifier_shootout --release
//! ```

use adr_synth::{Dataset, SynthConfig};
use dedup::workload::build_workload;
use dedup::{svm_clustering_scores, svm_scores};
use fastknn::{FastKnn, FastKnnConfig};
use mlcore::average_precision;
use mlcore::svm::SvmConfig;
use sparklet::Cluster;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Dataset::generate(&SynthConfig::small(1_500, 75, 3));
    let workload = build_workload(&corpus, 20_000, 1_000, 3);
    println!(
        "workload: {} train ({} dup) / {} test ({} dup)",
        workload.train.len(),
        workload.train_positives(),
        workload.test.len(),
        workload.test_positives(),
    );

    // Fast kNN with the inverse-distance score (Eq. 5).
    let cluster = Cluster::local(4);
    let model = FastKnn::fit(&cluster, &workload.train, FastKnnConfig::default())?;
    let scored = model.classify(&workload.test)?;
    let by_id: HashMap<u64, f64> = scored.iter().map(|s| (s.id, s.score)).collect();
    let knn_scores: Vec<f64> = workload.test.iter().map(|t| by_id[&t.id]).collect();

    // SVM baselines (era-faithful SGD solver + cluster-sampled variant).
    let svm = svm_scores(&workload.train, &workload.test, &SvmConfig::default());
    let svm_by_id: HashMap<u64, f64> = svm.into_iter().collect();
    let svm_scores_v: Vec<f64> = workload.test.iter().map(|t| svm_by_id[&t.id]).collect();
    let svmc = svm_clustering_scores(
        &workload.train,
        &workload.test,
        8,
        workload.train.len() / 2,
        &SvmConfig::default(),
    );
    let svmc_by_id: HashMap<u64, f64> = svmc.into_iter().collect();
    let svmc_scores: Vec<f64> = workload.test.iter().map(|t| svmc_by_id[&t.id]).collect();

    println!("\nAUPR (higher is better):");
    for (name, scores) in [
        ("Fast kNN (Eq. 5 score)", &knn_scores),
        ("SVM (SGD baseline)", &svm_scores_v),
        ("SVM clustering (8 clusters)", &svmc_scores),
    ] {
        let ap = average_precision(&workload.scored(scores));
        println!("  {name:<28} {ap:.3}");
    }
    Ok(())
}
