//! Bound-driven pruning benchmark behind `BENCH_prune.json`: the
//! classification stage with the lossless pruning engine on vs off.
//!
//! Both sides fit the identical Voronoi model over the identical training
//! pairs and classify the identical test batch at the same worker count;
//! the only difference is that the unpruned side's partition is stripped of
//! the distance metadata the bounds read
//! ([`fastknn::VoronoiPartition::without_prune_metadata`], fed to
//! [`fastknn::FastKnn::from_partition`]). The gate reads two numbers from
//! the pruned side:
//!
//! * **speedup** — off/on ratio of the classification stages' summed
//!   virtual makespan (the fit stages are excluded: pruning does not touch
//!   k-means);
//! * **avoided fraction** — share of the would-be pair-distance
//!   evaluations the triangle-inequality window and the annulus cell bound
//!   eliminated, from the journal's `prune` section (by the conservation
//!   invariant, `evals_on + avoided == evals_off` exactly, evaluations
//!   being intra + cross + positive comparisons: the positives are one
//!   more windowed cell).
//!
//! The corpus is skewed the way §4.2 distance vectors are in practice:
//! pair-distance mass concentrates along low-dimensional manifolds (most
//! field distances move together) and one hot region holds a third of all
//! pairs. Each Voronoi cell's residents spread **radially** from their
//! centre — the geometry the sorted-by-centre-distance window scan
//! exploits — while the cells themselves sit far apart, giving the annulus
//! bound whole cells to skip. Pruning is lossless, so the benchmark also
//! asserts the two sides' outputs are identical before reporting.

use crate::harness::{experiment_cluster_config, gates_json, Gate};
use fastknn::{
    FastKnn, FastKnnConfig, LabeledPair, ScoredPair, UnlabeledPair, VoronoiPartition, PAIR_DIMS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklet::{Cluster, PruneReport};

/// A classification workload: labelled training pairs and an unlabelled
/// test batch, both in the §4.2 pair-distance space.
pub struct PruneWorkload {
    /// Training pairs (mostly negatives, a few positives — the paper's
    /// imbalance).
    pub train: Vec<LabeledPair<PAIR_DIMS>>,
    /// The test batch to classify.
    pub tests: Vec<UnlabeledPair<PAIR_DIMS>>,
    /// Voronoi cells the model should build (`FastKnnConfig::b`).
    pub cells: usize,
}

/// Skewed radial-cluster workload. `clusters` well-separated centres; the
/// hot one (index 0) holds a third of all training pairs and test points,
/// the rest split the remainder evenly. Within a cluster, points spread
/// along a fixed direction at radii up to ~120 with sub-unit noise on every
/// other coordinate, so distance-to-centre separates residents sharply —
/// the regime where the window bound pays — while the k-th-neighbour
/// cutoff stays small against the cell radius. Positives ride inside the
/// hot cluster (duplicates sit near their originals in distance space).
pub fn skewed_workload(
    n_neg: usize,
    n_pos: usize,
    n_test: usize,
    clusters: usize,
    seed: u64,
) -> PruneWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = clusters.max(2);
    let centres: Vec<[f64; PAIR_DIMS]> = (0..b)
        .map(|c| {
            let mut centre = [0.0; PAIR_DIMS];
            centre[c % PAIR_DIMS] = 400.0 * (1.0 + (c / PAIR_DIMS) as f64);
            centre[(c + 3) % PAIR_DIMS] += 170.0 * c as f64;
            centre
        })
        .collect();
    let axes: Vec<[f64; PAIR_DIMS]> = (0..b)
        .map(|_| {
            let raw: [f64; PAIR_DIMS] = std::array::from_fn(|_| rng.gen_range(-1.0..1.0));
            let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
            raw.map(|x| x / norm)
        })
        .collect();
    // Hot cluster 0 takes a third; the rest share the remainder.
    let cluster_of = |i: usize| {
        if i.is_multiple_of(3) {
            0
        } else {
            1 + (i / 3) % (b - 1)
        }
    };
    let point = |cluster: usize, rng: &mut StdRng| -> [f64; PAIR_DIMS] {
        let t = rng.gen_range(0.0..120.0);
        std::array::from_fn(|d| {
            centres[cluster][d] + t * axes[cluster][d] + rng.gen_range(-0.5..0.5)
        })
    };
    let mut train = Vec::with_capacity(n_neg + n_pos);
    for i in 0..n_neg {
        let v = point(cluster_of(i), &mut rng);
        train.push(LabeledPair::new(i as u64, v, false));
    }
    for i in 0..n_pos {
        let v = point(0, &mut rng);
        train.push(LabeledPair::new((n_neg + i) as u64, v, true));
    }
    let tests = (0..n_test)
        .map(|i| UnlabeledPair::new(i as u64, point(cluster_of(i), &mut rng)))
        .collect();
    PruneWorkload {
        train,
        tests,
        cells: b,
    }
}

/// Measured outcome of one classification run.
#[derive(Debug, Clone)]
pub struct PruneRun {
    /// Test pairs classified.
    pub tests: usize,
    /// Summed virtual makespan of the classification stages (µs), fit
    /// excluded.
    pub classify_us: u64,
    /// Pair-distance evaluations performed against the negative cells and
    /// the positives (intra + cross + positive comparison counters; k-means
    /// leaves them untouched).
    pub evals: u64,
    /// The journal's prune aggregates (nothing avoided when pruning is
    /// off).
    pub prune: PruneReport,
    /// The classification results, for the losslessness check.
    pub outputs: Vec<ScoredPair>,
    /// The job report as JSON (the prune-section artifact).
    pub report_json: String,
}

/// Fit and classify `w` on `workers` single-core executors with pruning on
/// or off. Only stages recorded after the fit count towards `classify_us`.
pub fn run_classification(w: &PruneWorkload, workers: usize, prune: bool) -> PruneRun {
    let cluster = Cluster::new(experiment_cluster_config(workers, 1));
    let config = FastKnnConfig {
        b: w.cells,
        theta: 0.0,
        ..FastKnnConfig::default()
    };
    let model = if prune {
        FastKnn::fit(&cluster, &w.train, config)
    } else {
        let voronoi = VoronoiPartition::build(&w.train, config.b, config.seed);
        FastKnn::from_partition(&cluster, voronoi.without_prune_metadata(), config)
    }
    .expect("fit");
    let fit_stages = cluster.clock().stage_count();
    let outputs = model.classify(&w.tests).expect("classify");
    let classify_us = cluster.clock().with_stages(|stages| {
        stages[fit_stages..]
            .iter()
            .map(|s| s.makespan_us(workers))
            .sum()
    });
    let report = cluster.job_report();
    let m = cluster.metrics();
    let evals = m.counter(fastknn::counters::INTRA_COMPARISONS).get()
        + m.counter(fastknn::counters::CROSS_COMPARISONS).get()
        + m.counter(fastknn::counters::POSITIVE_COMPARISONS).get();
    PruneRun {
        tests: w.tests.len(),
        classify_us,
        evals,
        prune: report.prune.clone(),
        report_json: report.to_json(),
        outputs,
    }
}

/// The on/off comparison the gate reads.
#[derive(Debug, Clone)]
pub struct PruneComparison {
    /// Pruning engine on.
    pub on: PruneRun,
    /// Pruning engine off (full scans).
    pub off: PruneRun,
}

impl PruneComparison {
    /// Run both sides over one workload and assert losslessness.
    pub fn run(w: &PruneWorkload, workers: usize) -> Self {
        let on = run_classification(w, workers, true);
        let off = run_classification(w, workers, false);
        assert_eq!(
            on.outputs, off.outputs,
            "pruning must be lossless: on/off classifications diverged"
        );
        assert_eq!(
            on.evals + on.prune.evals_avoided,
            off.evals,
            "conservation: every avoided evaluation must account for one \
             the unpruned run performed"
        );
        PruneComparison { on, off }
    }

    /// Classification-stage virtual-time ratio off/on — the gated speedup.
    pub fn speedup(&self) -> f64 {
        self.off.classify_us as f64 / (self.on.classify_us as f64).max(1.0)
    }

    /// Fraction of would-be distance evaluations the pruned side avoided.
    pub fn avoided_fraction(&self) -> f64 {
        self.on.prune.avoided_fraction()
    }
}

fn run_json(r: &PruneRun) -> String {
    format!(
        "{{\"tests\": {}, \"classify_us\": {}, \"evals\": {}, \"evals_avoided\": {}, \
         \"cells_skipped\": {}, \"bound_rejected\": {}}}",
        r.tests,
        r.classify_us,
        r.evals,
        r.prune.evals_avoided,
        r.prune.cells_skipped,
        r.prune.bound_rejected
    )
}

/// Render the comparison as the `BENCH_prune.json` document.
pub fn prune_to_json(
    workers: usize,
    cmp: &PruneComparison,
    speedup_gate: f64,
    avoided_gate: f64,
) -> String {
    let gates = [
        Gate::at_least("speedup", speedup_gate, cmp.speedup()),
        Gate::at_least("avoided", avoided_gate, cmp.avoided_fraction()),
    ];
    format!(
        "{{\n  \"schema_version\": 1,\n  \"workers\": {workers},\n  \"off\": {},\n  \"on\": {},\n  \
         \"lossless\": true,\n  {}\n}}\n",
        run_json(&cmp.off),
        run_json(&cmp.on),
        gates_json(&gates)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_classification_is_lossless_and_saves_work() {
        let w = skewed_workload(1_200, 30, 150, 6, 17);
        // `run` itself asserts on == off; here pin that the workload
        // actually gives the bounds something to do.
        let cmp = PruneComparison::run(&w, 4);
        assert!(
            cmp.avoided_fraction() > 0.3,
            "the radial workload must let the bounds bite: {:.3}",
            cmp.avoided_fraction()
        );
        assert!(
            cmp.speedup() > 1.0,
            "avoided evaluations must show up in virtual time: {:.2}",
            cmp.speedup()
        );
        // Both sides journal one pass per block; the unpruned one avoids
        // nothing.
        assert_eq!(cmp.off.prune.passes, cmp.on.prune.passes);
        assert!(cmp.off.prune.passes > 0);
        assert_eq!(cmp.off.prune.evals_avoided, 0);
        assert_eq!(cmp.off.prune.evals_done, cmp.off.evals);
    }

    #[test]
    fn json_shape_is_well_formed() {
        let run = |us: u64, done: u64, avoided: u64| PruneRun {
            tests: 10,
            classify_us: us,
            evals: done,
            prune: PruneReport {
                passes: 1,
                evals_done: done,
                evals_avoided: avoided,
                ..PruneReport::default()
            },
            outputs: Vec::new(),
            report_json: String::new(),
        };
        let cmp = PruneComparison {
            on: run(1_000, 200, 800),
            off: run(3_000, 1_000, 0),
        };
        let doc = prune_to_json(8, &cmp, 1.5, 0.5);
        assert!(doc.contains("\"value\": 3.00"));
        assert!(doc.contains("\"value\": 0.8000"));
        assert!(doc.contains("\"passed\": true"));
        assert!(!doc.contains("\"passed\": false"));
        assert!(doc.starts_with('{') && doc.ends_with("}\n"));
    }

    #[test]
    fn quick_scale_job_report_is_json() {
        // `bench_prune --quick`'s workload, pruned side.
        let w = skewed_workload(3_500, 40, 450, 6, 2016);
        let json = run_classification(&w, 8, true).report_json;
        assert!(crate::json_check::is_json(&json), "{json}");
    }
}
