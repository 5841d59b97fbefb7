//! The public [`Rdd`] handle: transformations and actions.

pub mod node;
pub mod nodes;

use crate::cluster::Cluster;
use crate::error::Result;
use crate::task::TaskContext;
use crate::Data;
use node::RddNode;
use nodes::*;
use std::sync::Arc;

/// A partitioned, immutable, lineage-backed dataset — sparklet's analogue of
/// Spark's `RDD`.
///
/// Transformations are lazy: they only grow the lineage graph. Actions
/// ([`Rdd::collect`], [`Rdd::count`], [`Rdd::aggregate`]) materialise
/// shuffle dependencies stage by stage and run one task per partition on
/// the cluster scheduler.
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
        Rdd {
            node: Arc::new(ParallelCollectionNode::new(data, num_partitions)),
            cluster,
        }
    }

    pub(crate) fn from_node(cluster: Cluster, node: Arc<dyn RddNode<T>>) -> Self {
        Rdd { cluster, node }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    // ------------------------------------------------------------------
    // Narrow transformations
    // ------------------------------------------------------------------

    /// Element-wise transformation. Charged as chunked execution: one
    /// [`crate::CostModelConfig::chunk_dispatch_ns`] per 1024-row slab of
    /// the partition, not per element.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        self.map_partitions_named("map", move |ctx, _, part| {
            charge_chunks(ctx, part.len());
            Ok(part.into_iter().map(&f).collect())
        })
    }

    /// One-to-many transformation (chunk-charged like [`Rdd::map`]).
    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        self.map_partitions_named("flat_map", move |ctx, _, part| {
            charge_chunks(ctx, part.len());
            Ok(part.into_iter().flat_map(&f).collect())
        })
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
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(MapPartitionsNode::new(name, self.node.clone(), Arc::new(f))),
        )
    }

    /// Concatenate with another dataset (partition spaces appended).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(UnionNode::new(vec![self.node.clone(), other.node.clone()])),
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
    /// combiner. Errors with [`crate::SparkletError::PartitionMismatch`] otherwise.
    pub fn zip_partitions<U: Data, C: Data>(
        &self,
        other: &Rdd<U>,
        f: impl Fn(&TaskContext, Vec<T>, Vec<U>) -> Result<Vec<C>> + Send + Sync + 'static,
    ) -> Result<Rdd<C>> {
        let node = ZipPartitionsNode::new(self.node.clone(), other.node.clone(), Arc::new(f))?;
        Ok(Rdd::from_node(self.cluster.clone(), Arc::new(node)))
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
}

/// Rows per chunk on the batch path (narrow operators and the shuffle map
/// side): large enough that the per-chunk dispatch cost is noise next to
/// per-record work, small enough that a chunk stays cache-resident.
pub(crate) const CHUNK_RECORDS: usize = 1024;

/// Chunk accounting of an element-wise operator over an `n`-row partition:
/// one dispatch per slab of at most [`CHUNK_RECORDS`] rows — an empty
/// partition still dispatches once — and the slabs, their rows and the
/// largest of them counted into the report's `batch` section.
fn charge_chunks(ctx: &TaskContext, n: usize) {
    ctx.add_chunks(n.div_ceil(CHUNK_RECORDS).max(1) as u64);
    ctx.add_chunk_records(n as u64, n.min(CHUNK_RECORDS) as u64);
}

#[cfg(test)]
mod tests {
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
            .flat_map(|x| if x % 20 == 0 { vec![x] } else { vec![] })
            .flat_map(|x| vec![x, x + 1])
            .collect()
            .unwrap();
        assert_eq!(out, vec![20, 21, 40, 41, 60, 61, 80, 81, 100, 101]);
    }

    #[test]
    fn element_wise_operators_charge_one_dispatch_per_1024_row_slab() {
        for (n, chunks, largest) in [
            (0u64, 1, 0),
            (1, 1, 1),
            (1024, 1, 1024),
            (1025, 2, 1024),
            (2_500, 3, 1024),
        ] {
            for flat in [false, true] {
                let c = Cluster::local(1);
                let rows = c.parallelize((0..n).collect::<Vec<u64>>(), 1);
                let out = if flat {
                    rows.flat_map(|x| vec![x, x])
                } else {
                    rows.map(|x| x + 1)
                };
                out.count().unwrap();
                let batch = c.job_report().batch;
                assert_eq!(
                    (batch.chunks, batch.records, batch.max_chunk_records),
                    (chunks, n, largest),
                    "{n} rows"
                );
            }
        }
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
    fn union_concatenates() {
        let c = Cluster::local(2);
        let a = c.parallelize(vec![1, 2], 1);
        let b = c.parallelize(vec![3, 4], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect().unwrap(), vec![1, 2, 3, 4]);
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
