//! The public [`Rdd`] handle: transformations and actions.

pub mod batch;
pub mod node;
pub mod nodes;

use crate::cluster::Cluster;
use crate::error::{Result, SparkletError};
use crate::task::TaskContext;
use crate::Data;
use batch::BatchMapNode;
pub use batch::Chunk;
use node::RddNode;
use nodes::*;
use std::sync::Arc;

/// A partitioned, immutable, lineage-backed dataset — sparklet's analogue of
/// Spark's `RDD`.
///
/// Transformations are lazy: they only grow the lineage graph. Actions
/// ([`Rdd::collect`], [`Rdd::count`], [`Rdd::reduce`], [`Rdd::aggregate`],
/// …) materialise shuffle dependencies stage by stage and run one task per
/// partition on the cluster scheduler.
pub struct Rdd<T: Data> {
    pub(crate) cluster: Cluster,
    pub(crate) node: Arc<dyn RddNode<T>>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            cluster: self.cluster.clone(),
            node: self.node.clone(),
        }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn from_collection(cluster: Cluster, data: Vec<T>, num_partitions: usize) -> Self {
        let id = cluster.new_rdd_id();
        Rdd {
            node: Arc::new(ParallelCollectionNode::new(id, data, num_partitions)),
            cluster,
        }
    }

    pub(crate) fn from_node(cluster: Cluster, node: Arc<dyn RddNode<T>>) -> Self {
        Rdd { cluster, node }
    }

    /// The cluster this dataset is bound to.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    // ------------------------------------------------------------------
    // Narrow transformations
    // ------------------------------------------------------------------

    /// Element-wise transformation (a thin adapter over the batch path: the
    /// partition moves through the DAG in [`Chunk`]s, see [`Rdd::map_batches`]).
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        self.batch_op("map", move |_, _, chunk: Chunk<T>| {
            Ok(Chunk::new(chunk.into_items().into_iter().map(&f).collect()))
        })
    }

    /// Keep only elements satisfying `pred` (chunked under the hood, see
    /// [`Rdd::filter_batches`]).
    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        self.batch_op("filter", move |_, _, chunk: Chunk<T>| {
            Ok(Chunk::new(
                chunk.into_items().into_iter().filter(|t| pred(t)).collect(),
            ))
        })
    }

    /// One-to-many transformation (chunked under the hood, see
    /// [`Rdd::flat_map_batches`]).
    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        self.batch_op("flat_map", move |_, _, chunk: Chunk<T>| {
            Ok(Chunk::new(
                chunk.into_items().into_iter().flat_map(&f).collect(),
            ))
        })
    }

    // ------------------------------------------------------------------
    // Batch-native operators: whole chunks in, whole chunks out
    // ------------------------------------------------------------------

    /// Chunk-wise 1:1 transformation: `f` sees a whole [`Chunk`] and must
    /// return exactly one output row per input row (enforced — a length
    /// mismatch fails the task). Use this to amortise per-row dispatch when
    /// the body can vectorise over the slab; use
    /// [`Rdd::flat_map_batches`] for free-form arity.
    pub fn map_batches<U: Data>(
        &self,
        f: impl Fn(&TaskContext, &Chunk<T>) -> Result<Vec<U>> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.batch_op("map_batches", move |ctx, _, chunk: Chunk<T>| {
            let out = f(ctx, &chunk)?;
            if out.len() != chunk.len() {
                return Err(SparkletError::User(format!(
                    "map_batches must be 1:1: chunk of {} rows produced {}",
                    chunk.len(),
                    out.len()
                )));
            }
            Ok(Chunk::new(out))
        })
    }

    /// Chunk-wise filter: `f` returns one keep/drop mask entry per row of
    /// the chunk (enforced — a mask length mismatch fails the task).
    pub fn filter_batches(
        &self,
        f: impl Fn(&TaskContext, &Chunk<T>) -> Result<Vec<bool>> + Send + Sync + 'static,
    ) -> Rdd<T> {
        self.batch_op("filter_batches", move |ctx, _, chunk: Chunk<T>| {
            let mask = f(ctx, &chunk)?;
            if mask.len() != chunk.len() {
                return Err(SparkletError::User(format!(
                    "filter_batches mask must match the chunk: {} rows, {} mask entries",
                    chunk.len(),
                    mask.len()
                )));
            }
            let mut mask = mask.into_iter();
            Ok(Chunk::new(
                chunk
                    .into_items()
                    .into_iter()
                    .filter(|_| mask.next().unwrap_or(false))
                    .collect(),
            ))
        })
    }

    /// Chunk-wise free-form transformation: `f` consumes a whole [`Chunk`]
    /// and may return any number of rows. Outputs are concatenated in chunk
    /// order, so results match a row-at-a-time `flat_map` for any chunk
    /// size.
    pub fn flat_map_batches<U: Data>(
        &self,
        f: impl Fn(&TaskContext, Chunk<T>) -> Result<Vec<U>> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.batch_op("flat_map_batches", move |ctx, _, chunk: Chunk<T>| {
            Ok(Chunk::new(f(ctx, chunk)?))
        })
    }

    fn batch_op<U: Data>(
        &self,
        name: &str,
        f: impl Fn(&TaskContext, usize, Chunk<T>) -> Result<Chunk<U>> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let id = self.cluster.new_rdd_id();
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(BatchMapNode::new(id, name, self.node.clone(), Arc::new(f))),
        )
    }

    /// Whole-partition transformation.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.map_partitions_named("map_partitions", move |_, _, part| Ok(f(part)))
    }

    /// Whole-partition transformation with access to the task context and
    /// the partition index — the hook for cost charging, user counters and
    /// memory declarations.
    pub fn map_partitions_with_ctx<U: Data>(
        &self,
        f: impl Fn(&TaskContext, usize, Vec<T>) -> Result<Vec<U>> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.map_partitions_named("map_partitions_with_ctx", f)
    }

    fn map_partitions_named<U: Data>(
        &self,
        name: &str,
        f: impl Fn(&TaskContext, usize, Vec<T>) -> Result<Vec<U>> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let id = self.cluster.new_rdd_id();
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(MapPartitionsNode::new(
                id,
                name,
                self.node.clone(),
                Arc::new(f),
            )),
        )
    }

    /// Pair every element with a key computed from it.
    pub fn key_by<K: Data>(&self, f: impl Fn(&T) -> K + Send + Sync + 'static) -> Rdd<(K, T)> {
        self.map(move |t| (f(&t), t))
    }

    /// Concatenate with another dataset (partition spaces appended).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let id = self.cluster.new_rdd_id();
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(UnionNode::new(
                id,
                vec![self.node.clone(), other.node.clone()],
            )),
        )
    }

    /// All pairs with elements of `other` (`|self| × |other|` partitions).
    pub fn cartesian<U: Data>(&self, other: &Rdd<U>) -> Rdd<(T, U)> {
        let id = self.cluster.new_rdd_id();
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(CartesianNode::new(
                id,
                self.node.clone(),
                other.node.clone(),
            )),
        )
    }

    /// Deterministic Bernoulli sample of roughly `fraction` of elements.
    pub fn sample(&self, fraction: f64, seed: u64) -> Rdd<T> {
        let id = self.cluster.new_rdd_id();
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(SampleNode::new(id, self.node.clone(), fraction, seed)),
        )
    }

    /// Reduce the partition count without a shuffle.
    pub fn coalesce(&self, num_partitions: usize) -> Rdd<T> {
        let id = self.cluster.new_rdd_id();
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(CoalesceNode::new(id, self.node.clone(), num_partitions)),
        )
    }

    /// Pin computed partitions in the block manager (LRU-evicted under
    /// memory pressure and recomputed from lineage on access).
    pub fn cache(&self) -> Rdd<T> {
        let id = self.cluster.new_rdd_id();
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(CachedNode::new(id, self.cluster.clone(), self.node.clone())),
        )
    }

    /// Zip partition-wise with an equally partitioned dataset through a
    /// combiner. Errors with [`SparkletError::PartitionMismatch`] otherwise.
    pub fn zip_partitions<U: Data, C: Data>(
        &self,
        other: &Rdd<U>,
        f: impl Fn(&TaskContext, Vec<T>, Vec<U>) -> Result<Vec<C>> + Send + Sync + 'static,
    ) -> Result<Rdd<C>> {
        let id = self.cluster.new_rdd_id();
        let node = ZipPartitionsNode::new(id, self.node.clone(), other.node.clone(), Arc::new(f))?;
        Ok(Rdd::from_node(self.cluster.clone(), Arc::new(node)))
    }

    /// Globally sort by a derived `Ord` key using a sampled range
    /// partitioner (Spark's `sortBy`): sample keys, choose splitters, range-
    /// shuffle, sort within partitions.
    pub fn sort_by<K: crate::KeyData + Ord>(
        &self,
        f: impl Fn(&T) -> K + Send + Sync + 'static,
        num_partitions: usize,
    ) -> Result<Rdd<T>> {
        use crate::pair::PairRdd;
        use crate::partitioner::RangePartitioner;
        let f = std::sync::Arc::new(f);
        let n = num_partitions.max(1);
        // Sample ~20 keys per target partition for splitter selection.
        let f_sample = f.clone();
        let mut sampled: Vec<K> = self
            .sample(1.0f64.min(0.1 + 0.001 * n as f64), 0xBEEF)
            .map(move |t| f_sample(&t))
            .take(n * 20)?;
        sampled.sort();
        let mut splitters = Vec::with_capacity(n.saturating_sub(1));
        for i in 1..n {
            if sampled.is_empty() {
                break;
            }
            let idx = i * sampled.len() / n;
            splitters.push(sampled[idx.min(sampled.len() - 1)].clone());
        }
        splitters.dedup();
        let f_key = f.clone();
        let keyed = self.map(move |t| (f_key(&t), t));
        let ranged = keyed.partition_by(std::sync::Arc::new(RangePartitioner::new(splitters)));
        Ok(ranged.map_partitions(|mut part: Vec<(K, T)>| {
            part.sort_by(|a, b| a.0.cmp(&b.0));
            part.into_iter().map(|(_, t)| t).collect()
        }))
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Materialise every partition and concatenate.
    pub fn collect(&self) -> Result<Vec<T>> {
        self.node.prepare(&self.cluster)?;
        let node = self.node.clone();
        let stage = format!("collect[{}]", node.name());
        let parts = self
            .cluster
            .run_job(&stage, node.num_partitions(), move |i, ctx| {
                node.compute(i, ctx)
            })?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Number of elements.
    pub fn count(&self) -> Result<usize> {
        self.aggregate(0usize, |acc, _| acc + 1, |a, b| a + b)
    }

    /// Fold each partition with `seq` starting from `zero`, then combine the
    /// per-partition results with `comb` on the driver.
    pub fn aggregate<A: Data>(
        &self,
        zero: A,
        seq: impl Fn(A, T) -> A + Send + Sync + 'static,
        comb: impl Fn(A, A) -> A + Send + Sync + 'static,
    ) -> Result<A> {
        self.node.prepare(&self.cluster)?;
        let node = self.node.clone();
        let stage = format!("aggregate[{}]", node.name());
        let z = zero.clone();
        let parts = self
            .cluster
            .run_job(&stage, node.num_partitions(), move |i, ctx| {
                let data = node.compute(i, ctx)?;
                let acc = data.into_iter().fold(z.clone(), &seq);
                Ok(vec![acc])
            })?;
        Ok(parts.into_iter().flatten().fold(zero, comb))
    }

    /// Reduce all elements with `f`; `None` for an empty dataset.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Result<Option<T>> {
        let f = Arc::new(f);
        let f2 = f.clone();
        self.aggregate(
            None,
            move |acc: Option<T>, t| match acc {
                None => Some(t),
                Some(a) => Some(f(a, t)),
            },
            move |a, b| match (a, b) {
                (None, b) => b,
                (a, None) => a,
                (Some(a), Some(b)) => Some(f2(a, b)),
            },
        )
    }

    /// First `n` elements in partition order.
    pub fn take(&self, n: usize) -> Result<Vec<T>> {
        let mut all = self.collect()?;
        all.truncate(n);
        Ok(all)
    }

    /// First element, or [`SparkletError::EmptyCollection`].
    pub fn first(&self) -> Result<T> {
        self.take(1)?
            .into_iter()
            .next()
            .ok_or(SparkletError::EmptyCollection)
    }

    /// Minimum element under a derived `Ord` key; `None` when empty.
    pub fn min_by_key<K: Ord>(
        &self,
        f: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Result<Option<T>> {
        self.reduce(move |a, b| if f(&a) <= f(&b) { a } else { b })
    }

    /// Maximum element under a derived `Ord` key; `None` when empty.
    pub fn max_by_key<K: Ord>(
        &self,
        f: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Result<Option<T>> {
        self.reduce(move |a, b| if f(&a) >= f(&b) { a } else { b })
    }

    /// Pair every element with its global index in partition order
    /// (Spark's `zipWithIndex`). Costs one counting pass.
    pub fn zip_with_index(&self) -> Result<Rdd<(T, u64)>> {
        self.node.prepare(&self.cluster)?;
        let node = self.node.clone();
        let counts = self
            .cluster
            .run_job("zip_with_index-count", node.num_partitions(), {
                let node = node.clone();
                move |i, ctx| Ok(vec![node.compute(i, ctx)?.len() as u64])
            })?;
        let mut offsets = Vec::with_capacity(counts.len());
        let mut acc = 0u64;
        for c in counts {
            offsets.push(acc);
            acc += c[0];
        }
        Ok(self.map_partitions_with_ctx(move |_, split, part: Vec<T>| {
            let base = offsets[split];
            Ok(part
                .into_iter()
                .enumerate()
                .map(|(i, t)| (t, base + i as u64))
                .collect())
        }))
    }
}

impl<T: crate::KeyData> Rdd<T> {
    /// Remove duplicate elements (one shuffle).
    pub fn distinct(&self, num_partitions: usize) -> Rdd<T> {
        use crate::pair::PairRdd;
        self.map(|t| (t, ()))
            .reduce_by_key(|a, _| a, num_partitions)
            .keys()
    }

    /// Action: occurrence count per distinct value.
    pub fn count_by_value(&self) -> Result<std::collections::HashMap<T, u64>> {
        use crate::pair::PairRdd;
        self.map(|t| (t, ())).count_by_key()
    }
}

#[cfg(test)]
mod tests {
    use super::Rdd;
    use crate::Cluster;

    #[test]
    fn parallelize_preserves_order_and_count() {
        let c = Cluster::local(3);
        let data: Vec<u32> = (0..100).collect();
        let rdd = c.parallelize(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        assert_eq!(rdd.collect().unwrap(), data);
    }

    #[test]
    fn parallelize_more_partitions_than_elements() {
        let c = Cluster::local(2);
        let rdd = c.parallelize(vec![1u8, 2], 10);
        assert_eq!(rdd.count().unwrap(), 2);
    }

    #[test]
    fn map_filter_flat_map_pipeline() {
        let c = Cluster::local(2);
        let out = c
            .parallelize((1..=10u32).collect(), 3)
            .map(|x| x * 10)
            .filter(|x| x % 20 == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect()
            .unwrap();
        assert_eq!(out, vec![20, 21, 40, 41, 60, 61, 80, 81, 100, 101]);
    }

    #[test]
    fn aggregate_sums() {
        let c = Cluster::local(4);
        let sum = c
            .parallelize((1..=100u64).collect(), 8)
            .aggregate(0u64, |a, x| a + x, |a, b| a + b)
            .unwrap();
        assert_eq!(sum, 5050);
    }

    #[test]
    fn reduce_empty_is_none() {
        let c = Cluster::local(2);
        let r = c
            .parallelize(Vec::<u32>::new(), 4)
            .reduce(|a, b| a + b)
            .unwrap();
        assert_eq!(r, None);
    }

    #[test]
    fn reduce_max() {
        let c = Cluster::local(2);
        let r = c
            .parallelize(vec![3u32, 9, 1, 7], 3)
            .reduce(|a, b| a.max(b))
            .unwrap();
        assert_eq!(r, Some(9));
    }

    #[test]
    fn union_concatenates() {
        let c = Cluster::local(2);
        let a = c.parallelize(vec![1, 2], 1);
        let b = c.parallelize(vec![3, 4], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cartesian_produces_all_pairs() {
        let c = Cluster::local(2);
        let a = c.parallelize(vec![1u8, 2], 2);
        let b = c.parallelize(vec![10u8, 20], 2);
        let mut pairs = a.cartesian(&b).collect().unwrap();
        pairs.sort();
        assert_eq!(pairs, vec![(1, 10), (1, 20), (2, 10), (2, 20)]);
    }

    #[test]
    fn sample_is_deterministic_and_roughly_proportional() {
        let c = Cluster::local(2);
        let rdd = c.parallelize((0..10_000u32).collect(), 4);
        let s1 = rdd.sample(0.1, 42).collect().unwrap();
        let s2 = rdd.sample(0.1, 42).collect().unwrap();
        assert_eq!(s1, s2);
        assert!(s1.len() > 700 && s1.len() < 1300, "got {}", s1.len());
        let s3 = rdd.sample(0.1, 43).collect().unwrap();
        assert_ne!(s1, s3, "different seeds should differ");
    }

    #[test]
    fn coalesce_reduces_partitions_preserving_data() {
        let c = Cluster::local(2);
        let rdd = c.parallelize((0..50u32).collect(), 10).coalesce(3);
        assert_eq!(rdd.num_partitions(), 3);
        assert_eq!(rdd.collect().unwrap(), (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn cache_hits_on_second_action() {
        let c = Cluster::local(2);
        let rdd = c
            .parallelize((0..100u32).collect(), 4)
            .map(|x| x + 1)
            .cache();
        let _ = rdd.count().unwrap();
        let before = c.metrics().cache_hits.get();
        let _ = rdd.count().unwrap();
        assert!(
            c.metrics().cache_hits.get() >= before + 4,
            "all four partitions should hit on the second pass"
        );
    }

    #[test]
    fn cached_blocks_live_exactly_as_long_as_the_node() {
        let c = Cluster::local(2);
        let cached = c.parallelize((0..100u32).collect(), 4).cache();
        let derived = cached.map(|x| x + 1);
        derived.count().unwrap();
        let held = c.blocks().used();
        assert_eq!(c.blocks().block_count(), 4);
        // The derived RDD holds the node through its lineage: dropping the
        // handle the cache was declared on releases nothing.
        drop(cached);
        assert_eq!(c.blocks().used(), held);
        let hits = c.metrics().cache_hits.get();
        derived.count().unwrap();
        assert_eq!(c.metrics().cache_hits.get(), hits + 4);
        // The last holder takes the blocks with it.
        drop(derived);
        assert_eq!(c.blocks().block_count(), 0);
        assert_eq!(c.blocks().used(), 0);
    }

    #[test]
    fn zip_partitions_mismatch_errors() {
        let c = Cluster::local(2);
        let a = c.parallelize(vec![1u8], 2);
        let b = c.parallelize(vec![1u8], 3);
        assert!(a.zip_partitions(&b, |_, x, _| Ok(x)).is_err());
    }

    #[test]
    fn zip_partitions_combines() {
        let c = Cluster::local(2);
        let a = c.parallelize((0..10u32).collect(), 5);
        let b = c.parallelize((10..20u32).collect(), 5);
        let z = a
            .zip_partitions(&b, |_, xs, ys| {
                Ok(xs.into_iter().zip(ys).map(|(x, y)| x + y).collect())
            })
            .unwrap();
        let out = z.collect().unwrap();
        assert_eq!(out, vec![10, 12, 14, 16, 18, 20, 22, 24, 26, 28]);
    }

    #[test]
    fn take_and_first() {
        let c = Cluster::local(2);
        let rdd = c.parallelize(vec![5u8, 6, 7], 2);
        assert_eq!(rdd.take(2).unwrap(), vec![5, 6]);
        assert_eq!(rdd.first().unwrap(), 5);
        assert!(c.parallelize(Vec::<u8>::new(), 1).first().is_err());
    }

    #[test]
    fn key_by_pairs_elements() {
        let c = Cluster::local(2);
        let out = c
            .parallelize(vec!["a".to_string(), "bb".to_string()], 1)
            .key_by(|s| s.len())
            .collect()
            .unwrap();
        assert_eq!(out, vec![(1, "a".to_string()), (2, "bb".to_string())]);
    }

    #[test]
    fn sort_by_produces_global_order() {
        let c = Cluster::local(3);
        let data: Vec<u32> = (0..500).map(|i| (i * 7919) % 1000).collect();
        let sorted = c
            .parallelize(data.clone(), 8)
            .sort_by(|x| *x, 4)
            .unwrap()
            .collect()
            .unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn sort_by_handles_empty_and_tiny() {
        let c = Cluster::local(2);
        assert!(c
            .parallelize(Vec::<u32>::new(), 3)
            .sort_by(|x| *x, 4)
            .unwrap()
            .collect()
            .unwrap()
            .is_empty());
        assert_eq!(
            c.parallelize(vec![3u32], 1)
                .sort_by(|x| *x, 4)
                .unwrap()
                .collect()
                .unwrap(),
            vec![3]
        );
    }

    #[test]
    fn sort_by_derived_key_descending() {
        let c = Cluster::local(2);
        let out = c
            .parallelize(vec![1i64, 5, 3], 2)
            .sort_by(|x| -*x, 2)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out, vec![5, 3, 1]);
    }

    #[test]
    fn zip_with_index_is_global_and_ordered() {
        let c = Cluster::local(2);
        let out = c
            .parallelize(vec!["a", "b", "c", "d", "e"], 3)
            .zip_with_index()
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out, vec![("a", 0), ("b", 1), ("c", 2), ("d", 3), ("e", 4)]);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let c = Cluster::local(2);
        let mut out = c
            .parallelize(vec![3u32, 1, 3, 2, 1, 1], 3)
            .distinct(2)
            .collect()
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn count_by_value_counts() {
        let c = Cluster::local(2);
        let counts = c
            .parallelize(vec!["x", "y", "x", "x"], 2)
            .count_by_value()
            .unwrap();
        assert_eq!(counts["x"], 3);
        assert_eq!(counts["y"], 1);
    }

    #[test]
    fn min_max_by_key() {
        let c = Cluster::local(2);
        let rdd = c.parallelize(vec![("a", 3), ("b", 9), ("c", 1)], 2);
        assert_eq!(rdd.min_by_key(|(_, v)| *v).unwrap(), Some(("c", 1)));
        assert_eq!(rdd.max_by_key(|(_, v)| *v).unwrap(), Some(("b", 9)));
        let empty: Rdd<(&str, i32)> = c.parallelize(vec![], 1);
        assert_eq!(empty.min_by_key(|(_, v)| *v).unwrap(), None);
    }

    #[test]
    fn map_partitions_with_ctx_charges_cost() {
        let c = Cluster::local(2);
        let out = c
            .parallelize((0..8u32).collect(), 2)
            .map_partitions_with_ctx(|ctx, split, part| {
                ctx.charge_ops(part.len() as u64);
                ctx.counter("parts_seen").inc();
                Ok(vec![split])
            })
            .collect()
            .unwrap();
        assert_eq!(out, vec![0, 1]);
        assert_eq!(c.metrics().counter("parts_seen").get(), 2);
    }
}
