//! Quickstart: classify report pairs with Fast kNN in ~40 lines.
//!
//! ```sh
//! cargo run -p examples --bin quickstart --release
//! ```
//!
//! Generates a small synthetic ADR corpus, derives labelled pair vectors,
//! fits the Voronoi-partitioned Fast kNN classifier on an embedded sparklet
//! cluster, and scores a held-out test set.

use adr_synth::{Dataset, SynthConfig};
use dedup::workload::build_workload;
use fastknn::{FastKnn, FastKnnConfig};
use mlcore::average_precision;
use sparklet::Cluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A corpus of 1,000 reports with 50 injected duplicate pairs.
    let corpus = Dataset::generate(&SynthConfig::small(1_000, 50, 7));
    println!("corpus: {:?}", corpus.summary());

    // 2. Labelled pair workload: 20,000 training pairs, 500 test pairs.
    let workload = build_workload(&corpus, 20_000, 500, 7);
    println!(
        "training pairs: {} ({} duplicates) / test pairs: {} ({} duplicates)",
        workload.train.len(),
        workload.train_positives(),
        workload.test.len(),
        workload.test_positives(),
    );

    // 3. An embedded 4-executor cluster and a Fast kNN model (k=9, 16
    //    Voronoi clusters, 2 test blocks, θ=0).
    let cluster = Cluster::local(4);
    let model = FastKnn::fit(
        &cluster,
        &workload.train,
        FastKnnConfig {
            k: 9,
            b: 16,
            c: 2,
            theta: 0.0,
            seed: 7,
        },
    )?;

    // 4. Classify and evaluate. `classify` returns results sorted by pair
    //    id, so align scores back to the workload's test order by id.
    let scored = model.classify(&workload.test)?;
    let detected = scored.iter().filter(|s| s.positive).count();
    let by_id: std::collections::HashMap<u64, f64> =
        scored.iter().map(|s| (s.id, s.score)).collect();
    let scores: Vec<(f64, bool)> = workload
        .test
        .iter()
        .zip(&workload.truth)
        .map(|(t, &truth)| (by_id[&t.id], truth))
        .collect();
    println!(
        "flagged {detected} candidate duplicates; AUPR = {:.3}",
        average_precision(&scores)
    );
    println!(
        "engine: {} tasks, {} shuffle records, {} intra-cluster comparisons",
        cluster.metrics().tasks_succeeded.get(),
        cluster.metrics().shuffle_records_written.get(),
        cluster
            .metrics()
            .counter(fastknn::counters::INTRA_COMPARISONS)
            .get(),
    );

    // 5. Inspect the run: the journal-backed job report, as JSON, holds every
    //    stage's task-duration distribution, shuffle volume and cache behaviour.
    println!("\n{}", cluster.job_report().to_json());
    Ok(())
}
