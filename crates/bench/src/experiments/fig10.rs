//! Figure 10 — execution time vs number of executors.
//!
//! Paper setting: training ∈ {2M, 3M, 4M} (here 40k–80k), test 10k (here
//! 1k), b=48, block number 5, executors 5–20 with 32 GB / 1 core each.
//! Expected: (a) time falls with executors but flattens (shuffle /
//! coordination overhead grows with the cluster); (b) the pairwise-distance
//! step is a small share of total time and keeps speeding up (its
//! distribution cost is low).
//!
//! The virtual clock records per-task costs once per workload; the
//! executor sweep is then a pure makespan query — the same mechanics that
//! determine the paper's curve (task balance + per-executor overhead).

use crate::corpora::{self, scaled_train};
use crate::harness::{count, experiment_cluster_config, f3, paper_cost, ExperimentResult};
use adr_model::PairId;
use dedup::pairing::pairwise_distances;
use fastknn::{FastKnn, FastKnnConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklet::Cluster;

const EXECUTORS: [usize; 4] = [5, 10, 15, 20];

/// Run the Figure 10 experiments.
pub fn run(quick: bool) -> Vec<ExperimentResult> {
    let (train_millions, test_pairs): (Vec<usize>, usize) = if quick {
        (vec![1, 2], 200)
    } else {
        (vec![2, 3, 4], 1_000)
    };
    let corpus = if quick {
        corpora::small_corpus()
    } else {
        corpora::tga_corpus()
    };

    // --- (a) overall classification time ---
    let mut f10a = ExperimentResult::new(
        "Figure 10(a) — overall execution time vs executor number",
        "Time decreases with executors 5→20 but flattens (shuffle overhead grows \
         with participating nodes).",
        &[
            "executors",
            "2M-scale (min)",
            "3M-scale (min)",
            "4M-scale (min)",
        ],
    );
    let mut clocks = Vec::new();
    // Uniform test pairs, as in the paper's scalability runs.
    let test = dedup::workload::uniform_test_pairs(corpus, test_pairs, 100);
    for (i, &m) in train_millions.iter().enumerate() {
        let size = if quick { m * 1_000 } else { scaled_train(m) };
        let workload = dedup::workload::build_workload_on(corpus, size, 200, 100 + i as u64);
        let cluster = Cluster::new(experiment_cluster_config(20, 1));
        let model = FastKnn::fit(
            &cluster,
            &workload.train,
            FastKnnConfig {
                k: 9,
                b: 48,
                c: 5,
                theta: 0.0,
                seed: 10,
            },
        )
        .expect("fit");
        cluster.reset_run_state();
        let _ = model.classify(&test).expect("classify");
        crate::harness::capture_run(format!("fig10 classify scale={m}M"), &cluster);
        clocks.push(cluster.clock().clone());
    }
    // Quick workloads carry ~50× less compute, so the per-executor
    // coordination term must shrink with them or it would dominate and
    // invert the curve (at full scale compute dominates, as in the paper).
    let mut cost = paper_cost();
    if quick {
        cost.coordination_us_per_executor /= 50;
        cost.task_launch_overhead_us /= 50;
    }
    let mut speedups = Vec::new();
    for &e in &EXECUTORS {
        let mut cells = vec![e.to_string()];
        for clock in &clocks {
            cells.push(f3(clock.makespan(e, 1, &cost).minutes()));
        }
        // Pad the row when running quick with fewer sizes.
        while cells.len() < 4 {
            cells.push("-".into());
        }
        f10a.row(cells);
    }
    for clock in &clocks {
        let t5 = clock.makespan(5, 1, &cost).minutes();
        let t20 = clock.makespan(20, 1, &cost).minutes();
        speedups.push(t5 / t20);
    }
    f10a.note(format!(
        "speedup from 5→20 executors: {} — sublinear (ideal would be 4×).",
        speedups
            .iter()
            .map(|s| format!("{s:.1}×"))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // --- (b) pairwise-distance step timed separately ---
    let n_reports = corpus.dataset.reports.len() as u64;
    let n_pairs = if quick { 5_000 } else { 100_000 };
    let mut rng = StdRng::seed_from_u64(1010);
    let mut pairs = Vec::with_capacity(n_pairs);
    while pairs.len() < n_pairs {
        let a = rng.gen_range(0..n_reports);
        let b = rng.gen_range(0..n_reports);
        if a != b {
            pairs.push(PairId::new(a, b));
        }
    }
    let cluster = Cluster::new(experiment_cluster_config(20, 1));
    let corpus_index = dedup::index_corpus(corpus.processed.clone());
    let _ = pairwise_distances(&cluster, &corpus_index, pairs, 40).expect("distances");
    crate::harness::capture_run("fig10 pairwise distances", &cluster);
    let dist_clock = cluster.clock().clone();

    let mut f10b = ExperimentResult::new(
        "Figure 10(b) — pairwise-distance computing time vs executor number",
        "A small share of overall time; speeds up well with executors because its \
         data-distribution cost is low (10,382 reports).",
        &[
            "executors",
            "pairwise distances (min)",
            "share of overall (4M-scale)",
        ],
    );
    for &e in &EXECUTORS {
        let t = dist_clock.makespan(e, 1, &cost).minutes();
        let overall = clocks.last().unwrap().makespan(e, 1, &cost).minutes();
        f10b.row(vec![
            e.to_string(),
            f3(t),
            format!("{:.0}%", t / (t + overall) * 100.0),
        ]);
    }
    f10b.note(format!(
        "computed over {} sampled candidate pairs of the {}-report corpus.",
        count(n_pairs as u64),
        count(n_reports)
    ));
    vec![f10a, f10b]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_fig10_time_falls_with_executors() {
        let out = super::run(true);
        let rows = &out[0].rows;
        let t5: f64 = rows[0][1].parse().unwrap();
        let t20: f64 = rows[3][1].parse().unwrap();
        assert!(t20 < t5, "more executors must be faster: {t5} -> {t20}");
        // Sub-linear: speedup strictly below the 4x ideal.
        assert!(t5 / t20 < 4.0, "speedup must flatten: {}", t5 / t20);
    }
}
