//! Property-based equivalence: the sparklet operators must agree with the
//! obvious single-threaded reference implementation over `Vec`/`HashMap`,
//! for arbitrary data, partition counts and parallelism.

use proptest::prelude::*;
use sparklet::{Cluster, PairRdd};
use std::collections::HashMap;

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn map_filter_collect_matches_reference(
        data in prop::collection::vec(0u32..1000, 0..200),
        parts in 1usize..12,
        workers in 1usize..6,
    ) {
        let c = Cluster::local(workers);
        let got = c
            .parallelize(data.clone(), parts)
            .map(|x| x.wrapping_mul(3))
            .flat_map(|x| if x % 2 == 0 { vec![x] } else { vec![] })
            .collect()
            .unwrap();
        let expect: Vec<u32> = data
            .iter()
            .map(|x| x.wrapping_mul(3))
            .filter(|x| x % 2 == 0)
            .collect();
        prop_assert_eq!(got, expect, "order must be preserved");
    }

    #[test]
    fn reduce_by_key_matches_hashmap(
        data in prop::collection::vec((0u8..10, 0u64..100), 0..150),
        parts in 1usize..8,
        reduce_parts in 1usize..8,
    ) {
        let c = Cluster::local(2);
        let got: HashMap<u8, u64> = c
            .parallelize(data.clone(), parts)
            .reduce_by_key(|a, b| a + b, reduce_parts)
            .collect()
            .unwrap()
            .into_iter()
            .collect();
        let mut expect: HashMap<u8, u64> = HashMap::new();
        for (k, v) in data {
            *expect.entry(k).or_default() += v;
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn join_matches_nested_loop(
        left in prop::collection::vec((0u8..6, 0u16..50), 0..40),
        right in prop::collection::vec((0u8..6, 0u16..50), 0..40),
        parts in 1usize..6,
    ) {
        let c = Cluster::local(2);
        let got = sorted(
            c.parallelize(left.clone(), 2)
                .join(&c.parallelize(right.clone(), 3), parts)
                .unwrap()
                .collect()
                .unwrap(),
        );
        let mut expect = Vec::new();
        for (k, v) in &left {
            for (k2, w) in &right {
                if k == k2 {
                    expect.push((*k, (*v, *w)));
                }
            }
        }
        prop_assert_eq!(got, sorted(expect));
    }

    #[test]
    fn aggregate_is_partitioning_invariant(
        data in prop::collection::vec(0u64..1000, 1..120),
        parts_a in 1usize..9,
        parts_b in 1usize..9,
    ) {
        let c = Cluster::local(2);
        let sum = |parts: usize| {
            c.parallelize(data.clone(), parts)
                .aggregate(0u64, |a, x| a + x, |a, b| a + b)
                .unwrap()
        };
        prop_assert_eq!(sum(parts_a), sum(parts_b));
        prop_assert_eq!(sum(parts_a), data.iter().sum::<u64>());
    }

    #[test]
    fn caching_changes_nothing(
        data in prop::collection::vec(0u32..100, 0..100),
        parts in 1usize..6,
    ) {
        let c = Cluster::local(2);
        let rdd = c.parallelize(data, parts).map(|x| x + 1);
        let cached = rdd.cache();
        let once = cached.collect().unwrap();
        let twice = cached.collect().unwrap();
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(once, rdd.collect().unwrap());
    }

    #[test]
    fn aggregate_by_key_matches_hashmap_fold(
        data in prop::collection::vec((0u8..5, 0u32..30), 0..100),
        parts in 1usize..6,
        reduce_parts in 1usize..6,
    ) {
        let c = Cluster::local(2);
        // A list accumulator: the fold must hand every value to its key
        // exactly once, whatever the map- and reduce-side partitioning.
        let got: HashMap<u8, Vec<u32>> = c
            .parallelize(data.clone(), parts)
            .aggregate_by_key(
                Vec::new(),
                |mut acc, v| {
                    acc.push(v);
                    acc
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
                reduce_parts,
            )
            .collect()
            .unwrap()
            .into_iter()
            .map(|(k, vs)| (k, sorted(vs)))
            .collect();
        let mut expect: HashMap<u8, Vec<u32>> = HashMap::new();
        for (k, v) in data {
            expect.entry(k).or_default().push(v);
        }
        for vs in expect.values_mut() {
            vs.sort();
        }
        prop_assert_eq!(got, expect);
    }
}
