//! Figure 9 — scalability with training-set size, per test block number.
//!
//! Paper setting: training 1M–5M pairs (here 20k–100k), test 10k (here 1k),
//! b=32, 25 executors, block number c ∈ {4, 8, 12}. Expected: execution
//! time grows sub-linearly — 1.4–2.1× when the training set grows 5× —
//! because the per-test work grows with cluster size (train/b) while task
//! overheads stay fixed; larger block numbers pay more per-stage overhead.

use crate::corpora::{self, scaled_train};
use crate::harness::{count, experiment_cluster_config, f3, ExperimentResult};
use fastknn::{FastKnn, FastKnnConfig};
use sparklet::Cluster;

/// Run the Figure 9 sweep.
pub fn run(quick: bool) -> Vec<ExperimentResult> {
    let blocks = [4usize, 8, 12];
    let (sizes, test_pairs): (Vec<usize>, usize) = if quick {
        (vec![1_000, 2_000, 4_000], 200)
    } else {
        ((1..=5).map(scaled_train).collect(), 1_000)
    };
    let corpus = if quick {
        corpora::small_corpus()
    } else {
        corpora::tga_corpus()
    };

    let mut r = ExperimentResult::new(
        "Figure 9 — execution time vs training-set size and block number",
        "Time grows 1.4–2.1× when the training set grows 5×; 25 executors, b=32.",
        &["training pairs", "c=4 (min)", "c=8 (min)", "c=12 (min)"],
    );

    let mut per_block_growth: Vec<(usize, f64, f64)> = Vec::new();
    let mut times: Vec<Vec<f64>> = Vec::new();
    // Uniform test pairs, as in the paper's scalability runs.
    let test = dedup::workload::uniform_test_pairs(corpus, test_pairs, 90);
    for (i, &size) in sizes.iter().enumerate() {
        let workload = dedup::workload::build_workload_on(corpus, size, 200, 90 + i as u64);
        let mut row_times = Vec::new();
        for &c in &blocks {
            let cluster = Cluster::new(experiment_cluster_config(25, 1));
            let model = FastKnn::fit(
                &cluster,
                &workload.train,
                FastKnnConfig {
                    k: 9,
                    b: 32,
                    c,
                    theta: 0.0,
                    seed: 9,
                },
            )
            .expect("fit");
            cluster.reset_run_state();
            let _ = model.classify(&test).expect("classify");
            crate::harness::capture_run(format!("fig9 classify train={size} c={c}"), &cluster);
            row_times.push(cluster.virtual_elapsed().minutes());
        }
        r.row(vec![
            count(size as u64),
            f3(row_times[0]),
            f3(row_times[1]),
            f3(row_times[2]),
        ]);
        times.push(row_times);
    }
    for (bi, &c) in blocks.iter().enumerate() {
        let first = times.first().unwrap()[bi];
        let last = times.last().unwrap()[bi];
        per_block_growth.push((c, first, last));
    }
    let growths: Vec<String> = per_block_growth
        .iter()
        .map(|(c, first, last)| format!("c={c}: {:.1}×", last / first))
        .collect();
    r.note(format!(
        "time growth over the {}× training sweep — {} (paper: 1.4–2.1×).",
        sizes.last().unwrap() / sizes.first().unwrap(),
        growths.join(", ")
    ));
    vec![r]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_fig9_time_grows_with_training_size() {
        let out = super::run(true);
        let rows = &out[0].rows;
        assert_eq!(rows.len(), 3);
        let first: f64 = rows[0][1].parse().unwrap();
        let last: f64 = rows[2][1].parse().unwrap();
        // At quick scale the fixed per-stage overheads dominate, so only
        // monotonicity is asserted; the full run shows the paper's 1.4–2.1×
        // band (see EXPERIMENTS.md).
        assert!(
            last >= first * 0.95,
            "bigger training sets must not be materially faster: {first} -> {last}"
        );
    }
}
