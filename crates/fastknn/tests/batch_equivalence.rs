//! Satellite property of the SoA refactor: the distributed batch engine is
//! *exact*. For random workloads, cluster counts, and engine partition
//! counts (1/4/16 workers), [`FastKnn::classify_batch`] over a [`VecBatch`]
//! must produce classifications identical to the per-pair brute-force
//! reference, which never touches the SoA layout.

use fastknn::serial::classify_brute;
use fastknn::{FastKnn, FastKnnConfig, LabeledPair, UnlabeledPair, VecBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklet::Cluster;

fn workload(
    seed: u64,
    n_train: usize,
    n_test: usize,
) -> (Vec<LabeledPair>, Vec<UnlabeledPair>, VecBatch<8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let train: Vec<LabeledPair> = (0..n_train)
        .map(|i| {
            let positive = rng.gen_bool(0.06);
            let center = if positive { 0.25 } else { 0.75 };
            LabeledPair {
                id: i as u64,
                vector: std::array::from_fn(|_| center + rng.gen_range(-0.25..0.25)),
                positive,
            }
        })
        .collect();
    let test: Vec<UnlabeledPair> = (0..n_test)
        .map(|i| UnlabeledPair {
            id: i as u64,
            vector: std::array::from_fn(|_| rng.gen_range(0.0..1.0)),
        })
        .collect();
    let mut batch = VecBatch::with_capacity(test.len());
    for t in &test {
        batch.push(t.id, &t.vector, false);
    }
    (train, test, batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn distributed_batch_equals_per_pair_brute(
        seed in 0u64..1_000,
        workers in prop::sample::select(vec![1usize, 4, 16]),
        b in 2usize..12,
        c in 1usize..4,
        k in prop::sample::select(vec![3usize, 7]),
    ) {
        let (train, test, batch) = workload(seed, 400, 60);
        let config = FastKnnConfig { k, b, c, theta: 0.4, seed: seed ^ 0xABCD };
        let cluster = Cluster::local(workers);
        let model = FastKnn::fit(&cluster, &train, config).unwrap();
        let got = model.classify_batch(&batch).unwrap();
        let expect = classify_brute(&train, &test, k, 0.4);
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!(g.id, e.id);
            prop_assert_eq!(g.positive, e.positive, "classification for id {}", g.id);
            // Same contract as the serial suite: shortcut pairs are provably
            // negative but carry a truncated neighbourhood, so only
            // non-shortcut scores are exact.
            if !g.shortcut {
                prop_assert!(
                    (g.score - e.score).abs() < 1e-9,
                    "score for id {}: {} vs {}", g.id, g.score, e.score
                );
            }
        }
    }
}
