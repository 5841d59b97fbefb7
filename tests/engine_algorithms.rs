//! Cross-crate algorithmic invariants: the distributed classifier against
//! serial references and against the paper-literal Algorithm 2, under
//! engine stress (fault injection, tiny memory).

use fastknn::serial::{classify_brute, classify_fast_serial};
use fastknn::soa::to_labeled;
use fastknn::voronoi::VoronoiPartition;
use fastknn::{
    additional_partitions, label_for, score_neighbors, FastKnn, FastKnnConfig, LabeledPair,
    Neighborhood, ScoredPair, UnlabeledPair,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmetrics::squared_euclidean_fixed;
use sparklet::{Cluster, ClusterConfig, FaultConfig, PairRdd, Rdd, Result};
use std::sync::Arc;

fn workload<const D: usize>(
    n_neg: usize,
    n_pos: usize,
    n_test: usize,
    seed: u64,
) -> (Vec<LabeledPair<D>>, Vec<UnlabeledPair<D>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    for i in 0..n_neg {
        let v: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
        train.push(LabeledPair::new(i as u64, v, false));
    }
    for i in 0..n_pos {
        let v: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..0.2));
        train.push(LabeledPair::new((n_neg + i) as u64, v, true));
    }
    let test = (0..n_test)
        .map(|i| {
            let v: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
            UnlabeledPair::new(i as u64, v)
        })
        .collect();
    (train, test)
}

/// Top-k of each probe among the `T⁻` rows of the cell it is keyed by:
/// `join` on the cell id, then a per-test-pair `aggregate_by_key`
/// (Algorithm 2 steps 6–8, and again 13–14 for the additional partitions).
fn knn_in_cells<const D: usize>(
    probes: &Rdd<(usize, UnlabeledPair<D>)>,
    negatives: &Rdd<(usize, LabeledPair<D>)>,
    k: usize,
    b: usize,
) -> Result<Rdd<(u64, Neighborhood)>> {
    Ok(probes
        .join(negatives, b)?
        .map(|(_, (s, t))| (s.id, (squared_euclidean_fixed(&s.vector, &t.vector), t.id)))
        .aggregate_by_key(
            Neighborhood::new(k),
            |mut hood, (d_sq, id)| {
                hood.push_sq(d_sq, id, false);
                hood
            },
            Neighborhood::merge,
            b,
        ))
}

/// Algorithm 2 as §4.3 prints it, one sparklet primitive per step: rows,
/// not column batches; full scans, no pruning windows; no scratch pool, no
/// cache. It uses only `parallelize`, `map`, `flat_map`, `join`,
/// `aggregate_by_key`, `union`, `reduce_by_key` and `collect`, and must
/// label every pair as [`FastKnn::classify`] does — the tested form of
/// DESIGN §2's "the algorithm code maps 1:1". Returns rows sorted by id.
fn algorithm2_literal<const D: usize>(
    cluster: &Cluster,
    train: &[LabeledPair<D>],
    test: &[UnlabeledPair<D>],
    config: FastKnnConfig,
) -> Result<Vec<ScoredPair>> {
    let (k, theta) = (config.k, config.theta);
    // Step 1: k-means partition of T into b Voronoi cells; T⁻ keyed by cell.
    let vp = Arc::new(VoronoiPartition::build(train, config.b, config.seed));
    let b = vp.b();
    let keyed_negatives = (vp.negative_clusters.iter().enumerate())
        .flat_map(|(cid, cell)| to_labeled(cell).into_iter().map(move |t| (cid, t)))
        .collect();
    let negatives = cluster.parallelize(keyed_negatives, b);
    let positives = to_labeled(&vp.positives);
    // Step 4: S in c partitions.
    let tests = cluster.parallelize(test.to_vec(), config.c);

    // Steps 2–3: map each s to its closest centre (sibling chunks of a
    // rebalanced cell share one; the id picks among them, as in the model).
    let nearest = vp.clone();
    let assigned = tests.map(move |s| (nearest.assign_balanced(&s.vector, s.id), s));
    // Steps 6–8: join with T⁻ on the cell id, aggregate the top-k.
    let intra = knn_in_cells(&assigned, &negatives, k, b)?;
    // Steps 9–10: distances to T⁺, merged by union + reduce. The two lists
    // stay side by side until Algorithm 1 has read d(s, s_k) off the first
    // and min(s, T⁺) off the second.
    let to_positives = tests.map(move |s| {
        let mut hood = Neighborhood::new(k);
        for p in &positives {
            hood.push_sq(squared_euclidean_fixed(&s.vector, &p.vector), p.id, true);
        }
        (s.id, (Neighborhood::new(k), hood))
    });
    let stage1 = intra
        .map(move |(id, hood)| (id, (hood, Neighborhood::new(k))))
        .union(&to_positives)
        .reduce_by_key(|(a, p), (b, q)| (a.merge(b), p.merge(q)), b);

    // Steps 11–12: Algorithm 1 picks each pair's additional partitions.
    let select = vp.clone();
    let selected =
        tests
            .map(|s| (s.id, s))
            .join(&stage1, b)?
            .map(move |(_, (s, (intra, to_pos)))| {
                let cell = select.assign_balanced(&s.vector, s.id);
                let min_pos_sq = to_pos.entries.first().map_or(f64::INFINITY, |e| e.0);
                let extra = additional_partitions(
                    &s.vector,
                    cell,
                    intra.kth_distance_sq(),
                    min_pos_sq,
                    &select.centers,
                );
                (s, intra.merge(to_pos), extra)
            });
    let probes = selected
        .flat_map(|(s, _, extra)| extra.into_iter().map(|cid| (cid, s)).collect::<Vec<_>>());
    // Steps 13–15: join with the additional partitions, union + reduce to
    // merge the top-k lists.
    let merged = knn_in_cells(&probes, &negatives, k, b)?
        .union(&selected.map(|(s, hood, _)| (s.id, hood)))
        .reduce_by_key(Neighborhood::merge, b);
    // Step 17: Eq. 5 score, Eq. 6 label.
    let mut out = merged
        .map(move |(id, hood)| {
            let score = score_neighbors(&hood);
            ScoredPair {
                id,
                score,
                positive: label_for(score, theta),
                shortcut: false,
            }
        })
        .collect()?;
    out.sort_by_key(|s| s.id);
    Ok(out)
}

/// The literal twin against the model's output and brute force: labels
/// equal on every row, scores within 1e-9 of the model's on every row and
/// of brute force's wherever the model did not stop at the shortcut.
fn assert_literal_agrees(literal: &[ScoredPair], model: &[ScoredPair], brute: &[ScoredPair]) {
    assert_eq!(literal.len(), model.len());
    for ((l, m), b) in literal.iter().zip(model).zip(brute) {
        assert_eq!((l.id, l.positive), (m.id, m.positive), "id {}", m.id);
        assert_eq!(l.positive, b.positive, "id {}", m.id);
        assert!((l.score - m.score).abs() < 1e-9, "model score, id {}", m.id);
        if !m.shortcut {
            assert!((l.score - b.score).abs() < 1e-9, "brute score, id {}", m.id);
        }
    }
}

#[test]
fn distributed_equals_serial_equals_brute_under_fault_injection() {
    let (train, test) = workload::<4>(600, 15, 60, 77);
    // A flaky cluster: 20% of task attempts fail and are retried.
    let mut config = ClusterConfig::local(4);
    config.fault = FaultConfig::with_probability(0.2, 9);
    config.max_task_attempts = 10;
    let cluster = Cluster::new(config);
    let knn_config = FastKnnConfig {
        k: 7,
        b: 10,
        c: 3,
        theta: 0.0,
        seed: 4,
    };
    let model = FastKnn::fit(&cluster, &train, knn_config).expect("fit");
    let distributed = model.classify(&test).expect("classify");
    assert!(
        cluster.metrics().tasks_failed.get() > 0,
        "fault injection should have fired"
    );

    let vp = VoronoiPartition::build(&train, 10, 4);
    let serial = classify_fast_serial(&vp, &test, 7, 0.0);
    let brute = classify_brute(&train, &test, 7, 0.0);
    for ((d, s), b) in distributed.iter().zip(&serial).zip(&brute) {
        assert_eq!(d.id, s.id);
        assert_eq!(
            d.positive, b.positive,
            "distributed label must match brute force at id {} even with retries",
            d.id
        );
        assert_eq!(d.positive, s.positive);
        if !d.shortcut {
            assert!((d.score - b.score).abs() < 1e-9, "score at id {}", d.id);
        }
    }
    // The literal Algorithm 2 on the same flaky cluster.
    let literal = algorithm2_literal(&cluster, &train, &test, knn_config).expect("literal");
    assert_literal_agrees(&literal, &distributed, &brute);
}

#[test]
fn tiny_executor_memory_still_classifies_correctly() {
    let (train, test) = workload::<4>(2_000, 20, 40, 13);
    let mut config = ClusterConfig::local(2);
    // Budget far below one joined partition: every stage-1 task thrashes,
    // retries, and eventually completes (hold_memory's graduated model).
    config.memory_per_executor = 4 * 1024;
    let cluster = Cluster::new(config);
    let knn_config = FastKnnConfig {
        k: 5,
        b: 4,
        c: 2,
        theta: 0.0,
        seed: 2,
    };
    let model = FastKnn::fit(&cluster, &train, knn_config).expect("fit");
    let out = model.classify(&test).expect("classify despite thrash");
    assert!(cluster.metrics().memory_kills.get() > 0, "should thrash");
    let brute = classify_brute(&train, &test, 5, 0.0);
    for (d, b) in out.iter().zip(&brute) {
        assert_eq!(d.positive, b.positive);
    }
    // The literal twin holds its joined rows in shuffle buckets no spill
    // codec covers, so it runs the same workload on a roomy cluster.
    let literal =
        algorithm2_literal(&Cluster::local(2), &train, &test, knn_config).expect("literal");
    assert_literal_agrees(&literal, &out, &brute);
}

/// The workloads above resolve nearly every pair at the all-negative
/// shortcut. Here the test pairs sit among the positives, so Algorithm 1
/// selects additional partitions and the second join decides labels.
#[test]
fn literal_algorithm2_agrees_where_the_second_join_decides() {
    let (train, mut test) = workload::<4>(600, 15, 60, 77);
    for t in &mut test {
        t.vector = t.vector.map(|x| 0.3 * x);
    }
    let cluster = Cluster::local(4);
    let knn_config = FastKnnConfig {
        k: 7,
        b: 10,
        c: 3,
        theta: 0.0,
        seed: 4,
    };
    let model = FastKnn::fit(&cluster, &train, knn_config).expect("fit");
    let fast = model.classify(&test).expect("classify");
    let probed = cluster
        .metrics()
        .counter(fastknn::counters::ADDITIONAL_CLUSTERS)
        .get();
    assert!(probed >= 30, "stage 2 must carry weight here: {probed}");
    let brute = classify_brute(&train, &test, 7, 0.0);
    let literal = algorithm2_literal(&cluster, &train, &test, knn_config).expect("literal");
    assert_literal_agrees(&literal, &fast, &brute);
    assert!(literal.iter().any(|s| s.positive) && literal.iter().any(|s| !s.positive));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Label equivalence between distributed Fast kNN and brute force over
    /// randomised workload shapes and partitioning.
    #[test]
    fn distributed_label_equivalence(
        seed in 0u64..1000,
        b in 2usize..12,
        k in prop::sample::select(vec![3usize, 5, 7]),
    ) {
        let (train, test) = workload::<3>(300, 10, 25, seed);
        let cluster = Cluster::local(2);
        let config = FastKnnConfig { k, b, c: 2, theta: 0.0, seed };
        let model = FastKnn::fit(&cluster, &train, config).expect("fit");
        let fast = model.classify(&test).expect("classify");
        let brute = classify_brute(&train, &test, k, 0.0);
        for (f, g) in fast.iter().zip(&brute) {
            prop_assert_eq!(f.positive, g.positive, "id {}", f.id);
        }
        let literal = algorithm2_literal(&cluster, &train, &test, config).expect("literal");
        assert_literal_agrees(&literal, &fast, &brute);
    }
}
