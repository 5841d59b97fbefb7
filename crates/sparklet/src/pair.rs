//! Key-value ("pair RDD") operations: shuffles, per-key folds and the join.

use crate::error::Result;
use crate::partitioner::{HashPartitioner, Partitioner};
use crate::rdd::node::RddNode;
use crate::rdd::nodes::ShuffledNode;
use crate::rdd::Rdd;
use crate::{Data, KeyData};
use std::collections::HashMap;
use std::sync::Arc;

/// Operations available on datasets of key-value pairs, mirroring Spark's
/// `PairRDDFunctions` — the vocabulary Algorithm 2 of the paper is written
/// in (`join` on cluster IDs, `aggregate` for top-k, `union`/`reduce` for
/// merging neighbour lists).
pub trait PairRdd<K: KeyData, V: Data> {
    /// Repartition by key with an explicit partitioner (one shuffle).
    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, V)>;

    /// Merge values per key with `f`, combining map-side first.
    fn reduce_by_key(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        num_partitions: usize,
    ) -> Rdd<(K, V)>;

    /// Per-key aggregation with distinct accumulator type; `seq` folds
    /// map-side, `comb` merges accumulators reduce-side.
    fn aggregate_by_key<A: Data>(
        &self,
        zero: A,
        seq: impl Fn(A, V) -> A + Send + Sync + 'static,
        comb: impl Fn(A, A) -> A + Send + Sync + 'static,
        num_partitions: usize,
    ) -> Rdd<(K, A)>;

    /// Inner join on key.
    fn join<W: Data>(&self, other: &Rdd<(K, W)>, num_partitions: usize)
        -> Result<Rdd<(K, (V, W))>>;
}

fn shuffled<K: KeyData, V: Data>(
    rdd: &Rdd<(K, V)>,
    partitioner: Arc<dyn Partitioner<K>>,
) -> Rdd<(K, V)> {
    let shuffle_id = rdd.cluster.new_shuffle_id();
    Rdd::from_node(
        rdd.cluster.clone(),
        Arc::new(ShuffledNode::new(
            shuffle_id,
            rdd.cluster.clone(),
            rdd.node.clone(),
            partitioner,
        )) as Arc<dyn RddNode<(K, V)>>,
    )
}

/// Hash-repartition into `num_partitions` buckets.
fn hash_partitioned<K: KeyData, V: Data>(rdd: &Rdd<(K, V)>, num_partitions: usize) -> Rdd<(K, V)> {
    shuffled(rdd, Arc::new(HashPartitioner::new(num_partitions)))
}

/// Fold a partition's values per key with `f`.
fn combine_by_key<K: KeyData, V>(part: Vec<(K, V)>, f: impl Fn(V, V) -> V) -> Vec<(K, V)> {
    let mut acc: HashMap<K, V> = HashMap::new();
    for (k, v) in part {
        match acc.remove(&k) {
            Some(prev) => {
                acc.insert(k, f(prev, v));
            }
            None => {
                acc.insert(k, v);
            }
        }
    }
    acc.into_iter().collect()
}

/// Group both datasets by key into `(values-from-left, values-from-right)`
/// — the building block of [`PairRdd::join`].
#[allow(clippy::type_complexity)] // (K, (Vec<V>, Vec<W>)) is Spark's own cogroup shape
fn cogroup<K: KeyData, V: Data, W: Data>(
    left: &Rdd<(K, V)>,
    right: &Rdd<(K, W)>,
    num_partitions: usize,
) -> Result<Rdd<(K, (Vec<V>, Vec<W>))>> {
    // The same deterministic hash partitioner sends equal keys of both
    // sides to the same bucket index.
    let left = hash_partitioned(left, num_partitions);
    let right = hash_partitioned(right, num_partitions);
    left.zip_partitions(&right, |_, lv: Vec<(K, V)>, rv: Vec<(K, W)>| {
        let mut groups: HashMap<K, (Vec<V>, Vec<W>)> = HashMap::new();
        for (k, v) in lv {
            groups.entry(k).or_default().0.push(v);
        }
        for (k, w) in rv {
            groups.entry(k).or_default().1.push(w);
        }
        Ok(groups.into_iter().collect())
    })
}

impl<K: KeyData, V: Data> PairRdd<K, V> for Rdd<(K, V)> {
    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, V)> {
        shuffled(self, partitioner)
    }

    fn reduce_by_key(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        num_partitions: usize,
    ) -> Rdd<(K, V)> {
        let f = Arc::new(f);
        let f_map = f.clone();
        // Map-side combine shrinks the shuffle volume, as in Spark.
        let combined = self.map_partitions(move |part| combine_by_key(part, &*f_map));
        hash_partitioned(&combined, num_partitions)
            .map_partitions(move |part| combine_by_key(part, &*f))
    }

    fn aggregate_by_key<A: Data>(
        &self,
        zero: A,
        seq: impl Fn(A, V) -> A + Send + Sync + 'static,
        comb: impl Fn(A, A) -> A + Send + Sync + 'static,
        num_partitions: usize,
    ) -> Rdd<(K, A)> {
        let folded = self.map_partitions(move |part: Vec<(K, V)>| {
            let mut acc: HashMap<K, A> = HashMap::new();
            for (k, v) in part {
                let cur = acc.remove(&k).unwrap_or_else(|| zero.clone());
                acc.insert(k, seq(cur, v));
            }
            acc.into_iter().collect()
        });
        folded.reduce_by_key(comb, num_partitions)
    }

    fn join<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        num_partitions: usize,
    ) -> Result<Rdd<(K, (V, W))>> {
        Ok(
            cogroup(self, other, num_partitions)?.flat_map(|(k, (vs, ws))| {
                let mut out = Vec::with_capacity(vs.len() * ws.len());
                for v in &vs {
                    for w in &ws {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
                out
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;

    fn pairs(c: &Cluster) -> Rdd<(u32, u32)> {
        c.parallelize(
            vec![(1, 10), (2, 20), (1, 11), (3, 30), (2, 21), (1, 12)],
            3,
        )
    }

    #[test]
    fn partition_by_hash_keeps_all_records_and_groups_keys() {
        let c = Cluster::local(2);
        let shuffled = pairs(&c).partition_by(Arc::new(HashPartitioner::new(4)));
        assert_eq!(shuffled.num_partitions(), 4);
        let mut all = shuffled.collect().unwrap();
        all.sort();
        assert_eq!(
            all,
            vec![(1, 10), (1, 11), (1, 12), (2, 20), (2, 21), (3, 30)]
        );
        // Records with equal keys must land in the same partition.
        let node_parts = shuffled.map_partitions_with_ctx(|_, split, part| {
            Ok(part
                .into_iter()
                .map(move |(k, _)| (k, split))
                .collect::<Vec<_>>())
        });
        let mut seen: HashMap<u32, usize> = HashMap::new();
        for (k, split) in node_parts.collect().unwrap() {
            if let Some(prev) = seen.insert(k, split) {
                assert_eq!(prev, split, "key {k} split across partitions");
            }
        }
    }

    #[test]
    fn reduce_by_key_sums() {
        let c = Cluster::local(2);
        let mut out = pairs(&c).reduce_by_key(|a, b| a + b, 2).collect().unwrap();
        out.sort();
        assert_eq!(out, vec![(1, 33), (2, 41), (3, 30)]);
    }

    #[test]
    fn aggregate_by_key_counts_and_sums() {
        let c = Cluster::local(2);
        let mut out = pairs(&c)
            .aggregate_by_key(
                (0u32, 0u32),
                |(n, s), v| (n + 1, s + v),
                |a, b| (a.0 + b.0, a.1 + b.1),
                2,
            )
            .collect()
            .unwrap();
        out.sort();
        assert_eq!(out, vec![(1, (3, 33)), (2, (2, 41)), (3, (1, 30))]);
    }

    #[test]
    fn cogroup_pairs_up_both_sides() {
        let c = Cluster::local(2);
        let a = c.parallelize(vec![(1u32, "a"), (2, "b"), (1, "c")], 2);
        let b = c.parallelize(vec![(1u32, 10u32), (3, 30)], 2);
        let mut out = cogroup(&a, &b, 3).unwrap().collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        for (_, (vs, _)) in out.iter_mut() {
            vs.sort();
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], (1, (vec!["a", "c"], vec![10])));
        assert_eq!(out[1], (2, (vec!["b"], vec![])));
        assert_eq!(out[2], (3, (vec![], vec![30])));
    }

    #[test]
    fn join_is_inner() {
        let c = Cluster::local(2);
        let a = c.parallelize(vec![(1u32, "x"), (2, "y")], 2);
        let b = c.parallelize(vec![(2u32, 20u32), (3, 30), (2, 21)], 2);
        let mut out = a.join(&b, 2).unwrap().collect().unwrap();
        out.sort();
        assert_eq!(out, vec![(2, ("y", 20)), (2, ("y", 21))]);
    }

    #[test]
    fn shuffle_metrics_move() {
        let c = Cluster::local(2);
        let _ = hash_partitioned(&pairs(&c), 2).collect().unwrap();
        assert!(c.metrics().shuffle_records_written.get() >= 6);
        assert!(c.metrics().shuffle_bytes_written.get() > 0);
        assert!(c.metrics().shuffle_records_read.get() >= 6);
    }

    #[test]
    fn reusing_shuffled_rdd_does_not_rewrite_shuffle() {
        let c = Cluster::local(2);
        let shuffled = hash_partitioned(&pairs(&c), 2);
        let _ = shuffled.count().unwrap();
        let written = c.metrics().shuffle_records_written.get();
        let _ = shuffled.count().unwrap();
        assert_eq!(
            c.metrics().shuffle_records_written.get(),
            written,
            "shuffle must be materialised exactly once"
        );
    }
}
