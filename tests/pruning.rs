//! Pruning-equivalence suite: the bound-driven pruning engine must be
//! invisible in every output, under every engine configuration.
//!
//! Two layers of pinning:
//!
//! * **Classification** — a proptest sweep over random workloads and model
//!   shapes asserting pruned ≡ unpruned classification, result for result.
//! * **detect_new digests** — the seeded pipeline of `refactor_baseline.rs`
//!   re-run with pruning on *and* off across 1/4/16 partitions and chaos
//!   kill and fault schedules; every leg must
//!   reproduce the pinned baseline digest bit for bit. The baseline was
//!   captured before the pruning engine existed, so the prune-on legs prove
//!   losslessness end to end and the prune-off legs prove the refactor
//!   itself (sorted cells, cutoff threading) changed nothing either.
//!
//! "Off" is a model built with [`FastKnn::from_partition`] over
//! `VoronoiPartition::build(..).without_prune_metadata()`: the same scans,
//! finding no sorted distances, sweep every resident and positive.

use adr_model::{AdrReport, PairId};
use adr_synth::{Dataset, SynthConfig};
use dedup::{DedupConfig, DedupSystem};
use fastknn::{FastKnn, FastKnnConfig, LabeledPair, UnlabeledPair, VoronoiPartition};
use proptest::prelude::*;
use sparklet::{stable_hash, Cluster, ClusterConfig, FaultConfig, RecoveryReport};

mod algorithm2;
use algorithm2::{algorithm2_records, Record};

/// The fault-free `detect_new` digest pinned in `refactor_baseline.rs`,
/// captured on the pre-pruning tree.
const BASELINE_DIGEST: u64 = 11028548671881665013;

/// The seeded corpus of `refactor_baseline.rs` / `chaos.rs`.
fn corpus() -> (Vec<AdrReport>, Vec<PairId>, Vec<AdrReport>) {
    let ds = Dataset::generate(&SynthConfig::small(300, 18, 77));
    let cut = 280;
    let historical = ds.reports[..cut].to_vec();
    let labelled = ds
        .duplicate_pairs
        .iter()
        .filter(|p| (p.hi as usize) < cut)
        .copied()
        .collect();
    let arriving = ds.reports[cut..].to_vec();
    (historical, labelled, arriving)
}

/// Bootstrap, then classify the arriving reports under `config`; returns
/// the detection digest and the run's recovery totals. Pruned, that is the
/// product's `detect_new`. Unpruned, it is the same §3 candidate pairs
/// through the same distance job, classified by an unpruned twin of the
/// model the bootstrap published — [`FastKnn::from_partition`] over the
/// partition `fit` builds, stripped of its pruning metadata — and put in
/// `detect_new`'s order.
fn detect_digest(config: ClusterConfig, prune: bool) -> sparklet::Result<(u64, RecoveryReport)> {
    let (historical, labelled, arriving) = corpus();
    let mut dcfg = DedupConfig::default();
    dcfg.knn.b = 8;
    dcfg.bootstrap_negatives = 400;
    let mut system = DedupSystem::new(Cluster::new(config), dcfg);
    system.bootstrap(&historical, &labelled)?;
    let records: Vec<Record> = if prune {
        let detections = system.detect_new(&arriving)?;
        detections
            .iter()
            .map(|d| (d.pair.lo, d.pair.hi, d.score.to_bits(), d.is_duplicate))
            .collect()
    } else {
        unpruned_detections(&system, &historical, &arriving)?
    };
    Ok((stable_hash(&records), system.job_report().recovery))
}

/// `detect_new` over the exhaustive candidate path, rebuilt from public
/// calls around an unpruned model; records as [`detect_digest`] hashes them.
fn unpruned_detections(
    system: &DedupSystem,
    historical: &[AdrReport],
    arriving: &[AdrReport],
) -> sparklet::Result<Vec<Record>> {
    let knn = system.config().knn;
    let voronoi = VoronoiPartition::build(&system.store().training_pairs(), knn.b, knn.seed);
    let model = FastKnn::from_partition(system.cluster(), voronoi.without_prune_metadata(), knn)?;
    algorithm2_records(system, &model, historical, arriving)
}

#[test]
fn digest_is_pinned_across_partition_counts_with_pruning_on_and_off() {
    for executors in [1usize, 4, 16] {
        for prune in [true, false] {
            let (digest, _) =
                detect_digest(ClusterConfig::local(executors), prune).expect("pipeline run");
            assert_eq!(
                digest, BASELINE_DIGEST,
                "digest drifted at {executors} executors, prune={prune}"
            );
        }
    }
}

#[test]
fn digest_is_pinned_under_mid_stage_kills_with_pruning_on_and_off() {
    // Pruning shrinks what the scans evaluate, never the stage graph. The
    // pruned leg is the product's one classify stage, the unpruned leg
    // Algorithm 2 and its `shuffle#3` map side: either way the kill lands
    // mid-stage, costs a task, and must be recovered from identically.
    for prune in [true, false] {
        let mut config = ClusterConfig::local(4);
        config.fault = if prune {
            FaultConfig::disabled().kill_in_stage(1, fastknn::CLASSIFY_STAGE, 1)
        } else {
            FaultConfig::disabled().kill_in_stage(0, "shuffle#3-write[map_partitions_with_ctx]", 1)
        };
        let (digest, recovery) = detect_digest(config, prune).expect("pipeline run");
        assert_eq!(
            digest, BASELINE_DIGEST,
            "mid-stage kill drifted with prune={prune}"
        );
        assert_eq!(
            recovery.executors_lost, 1,
            "the kill fired with prune={prune}"
        );
        assert!(
            recovery.tasks_lost + recovery.recomputed_map_tasks >= 1,
            "prune={prune}: the kill cost no work: {recovery:?}"
        );
    }
}

#[test]
fn digest_is_pinned_under_random_faults_and_stealing_with_pruning_on_and_off() {
    // Random task faults perturb retry interleavings and the morsel steal
    // schedule; neither may reach the output.
    for prune in [true, false] {
        let mut config = ClusterConfig::local(4);
        config.fault = FaultConfig::with_probability(0.05, 23);
        let (digest, _) = detect_digest(config, prune).expect("pipeline run");
        assert_eq!(
            digest, BASELINE_DIGEST,
            "random faults drifted with prune={prune}"
        );
    }
}

/// Clustered + uniform mixture workload in 4-d: tight blobs give the
/// window/annulus bounds something to reject, the uniform backdrop keeps
/// neighbourhoods honest, and near-duplicate coordinates exercise the
/// slackened (tie-preserving) comparisons.
fn mixed_workload(
    seed: u64,
    n_neg: usize,
    n_pos: usize,
    n_test: usize,
) -> (Vec<LabeledPair<4>>, Vec<UnlabeledPair<4>>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let blob = |rng: &mut StdRng, c: [f64; 4], r: f64| -> [f64; 4] {
        std::array::from_fn(|d| c[d] + rng.gen_range(-r..r))
    };
    let centres = [
        [0.0, 0.0, 0.0, 0.0],
        [5.0, 0.0, 1.0, 0.0],
        [0.0, 6.0, 0.0, 2.0],
    ];
    let mut train = Vec::new();
    for i in 0..n_neg {
        let v = if i % 4 == 0 {
            std::array::from_fn(|_| rng.gen_range(-2.0..8.0))
        } else {
            blob(&mut rng, centres[i % 3], 0.4)
        };
        train.push(LabeledPair::new(i as u64, v, false));
    }
    for i in 0..n_pos {
        let v = blob(&mut rng, centres[0], 0.3);
        train.push(LabeledPair::new((n_neg + i) as u64, v, true));
    }
    let test = (0..n_test)
        .map(|i| {
            let v = if i % 3 == 0 {
                std::array::from_fn(|_| rng.gen_range(-2.0..8.0))
            } else {
                blob(&mut rng, centres[i % 3], 0.5)
            };
            UnlabeledPair::new(i as u64, v)
        })
        .collect();
    (train, test)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pruned ≡ unpruned classification over random workloads, model
    /// shapes, and parallelism — every score, label, and shortcut flag —
    /// with the positive window doing its share of the pruning: the
    /// unpruned leg evaluates every positive for every test pair, the
    /// pruned leg bound-rejects some of them.
    #[test]
    fn pruned_classification_is_identical_to_unpruned(
        seed in 0u64..10_000,
        b in 2usize..10,
        k in 3usize..12,
        executors in 1usize..5,
    ) {
        let (train, test) = mixed_workload(seed, 400, 12, 60);
        let run = |prune: bool| {
            let cluster = Cluster::local(executors);
            let config = FastKnnConfig {
                k,
                b,
                theta: 0.0,
                ..FastKnnConfig::default()
            };
            let model = if prune {
                FastKnn::fit(&cluster, &train, config)
            } else {
                let voronoi = VoronoiPartition::build(&train, b, config.seed);
                FastKnn::from_partition(&cluster, voronoi.without_prune_metadata(), config)
            };
            let out = model
                .expect("fit")
                .classify(&test)
                .expect("classify");
            let positives_evaluated = cluster
                .metrics()
                .counter(fastknn::counters::POSITIVE_COMPARISONS)
                .get();
            (out, positives_evaluated)
        };
        let (pruned, positives_on) = run(true);
        let (full, positives_off) = run(false);
        prop_assert_eq!(pruned, full);
        prop_assert_eq!(positives_off, 60 * 12);
        prop_assert!(
            positives_on < positives_off,
            "no positive was bound-rejected: {} evaluated", positives_on
        );
    }
}
