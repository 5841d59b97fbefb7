//! Figure 6 — effect of `k` on quality (a) and execution time (b).
//!
//! Paper setting: 3M training pairs (here 60k), 10k test pairs (here 1k),
//! k ∈ {5, 9, 13, 17, 21}. Expected: AUPR is essentially flat in k (Eq. 5's
//! distance weighting mutes far neighbours); execution time grows ~31% from
//! k=5 to k=21 (larger k ⇒ looser k-th distance ⇒ more partitions pass
//! Algorithm 1's test).

use crate::corpora::{self, scaled_train};
use crate::harness::{capture_run, experiment_cluster_config, f3, ExperimentResult};
use fastknn::{FastKnn, FastKnnConfig};
use mlcore::average_precision;
use sparklet::Cluster;
use std::collections::HashMap;

/// Run the Figure 6 sweep.
pub fn run(quick: bool) -> Vec<ExperimentResult> {
    let ks = [5usize, 9, 13, 17, 21];
    let (train_pairs, test_pairs) = if quick {
        (2_000, 200)
    } else {
        (scaled_train(3), 1_000)
    };
    let corpus = if quick {
        corpora::small_corpus()
    } else {
        corpora::tga_corpus()
    };
    let workload = dedup::workload::build_workload_on(corpus, train_pairs, test_pairs, 66);

    let mut qual = ExperimentResult::new(
        "Figure 6(a) — AUPR vs k",
        "AUPR varies little with k (distance-weighted scores mute far neighbours).",
        &["k", "AUPR"],
    );
    let mut time = ExperimentResult::new(
        "Figure 6(b) — execution time vs k",
        "Execution time grows ~31% from k=5 to k=21 (more partitions to compare).",
        &["k", "virtual minutes", "cross-cluster comparisons"],
    );

    let mut auprs = Vec::new();
    let mut times = Vec::new();
    for &k in &ks {
        let cluster = Cluster::new(experiment_cluster_config(20, 1));
        let model = FastKnn::fit(
            &cluster,
            &workload.train,
            FastKnnConfig {
                k,
                b: 32,
                c: 4,
                theta: 0.0,
                seed: 7,
            },
        )
        .expect("fit");
        cluster.reset_run_state();
        let scored = model.classify(&workload.test).expect("classify");
        let by_id: HashMap<u64, f64> = scored.iter().map(|s| (s.id, s.score)).collect();
        let scores: Vec<f64> = workload.test.iter().map(|t| by_id[&t.id]).collect();
        let ap = average_precision(&workload.scored(&scores));
        capture_run(format!("fig6 classify k={k}"), &cluster);
        let minutes = cluster.virtual_elapsed().minutes();
        let cross = cluster
            .metrics()
            .counter(fastknn::counters::CROSS_COMPARISONS)
            .get();
        auprs.push(ap);
        times.push(minutes);
        qual.row(vec![k.to_string(), f3(ap)]);
        time.row(vec![k.to_string(), f3(minutes), cross.to_string()]);
    }
    let spread = (auprs.iter().cloned().fold(f64::MIN, f64::max)
        - auprs.iter().cloned().fold(f64::MAX, f64::min))
    .abs();
    qual.note(format!(
        "AUPR spread across k is {:.3} — {} (paper: not significant).",
        spread,
        if spread < 0.1 { "flat" } else { "NOT flat" }
    ));
    let growth = (times.last().unwrap() / times.first().unwrap() - 1.0) * 100.0;
    time.note(format!(
        "time grows {growth:.0}% from k=5 to k=21 (paper: 31%)."
    ));
    vec![qual, time]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_fig6_time_grows_with_k() {
        let out = super::run(true);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].rows.len(), 5);
        // Execution time at k=21 must exceed k=5 (more cross-cluster work).
        let t5: f64 = out[1].rows[0][1].parse().unwrap();
        let t21: f64 = out[1].rows[4][1].parse().unwrap();
        assert!(t21 >= t5, "time must not shrink with k: {t5} -> {t21}");
    }
}
