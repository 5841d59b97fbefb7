//! Concrete lineage-node implementations.

use super::node::RddNode;
use super::CHUNK_RECORDS;
use crate::cluster::{Cluster, RecoveryFn};
use crate::error::{Result, SparkletError};
use crate::partitioner::Partitioner;
use crate::storage::estimate_vec_size;
use crate::task::TaskContext;
use crate::{Data, KeyData};
use parking_lot::Mutex;
use std::sync::Arc;

/// Source node: an in-memory collection split into even chunks.
pub struct ParallelCollectionNode<T: Data> {
    partitions: Vec<Arc<Vec<T>>>,
}

impl<T: Data> ParallelCollectionNode<T> {
    pub(crate) fn new(data: Vec<T>, num_partitions: usize) -> Self {
        let n = num_partitions.max(1);
        let len = data.len();
        let mut partitions = Vec::with_capacity(n);
        let mut iter = data.into_iter();
        for i in 0..n {
            let start = i * len / n;
            let end = (i + 1) * len / n;
            partitions.push(Arc::new(
                iter.by_ref().take(end - start).collect::<Vec<T>>(),
            ));
        }
        ParallelCollectionNode { partitions }
    }
}

impl<T: Data> RddNode<T> for ParallelCollectionNode<T> {
    fn name(&self) -> String {
        "parallelize".into()
    }
    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }
    fn prepare(&self, _cluster: &Cluster) -> Result<()> {
        Ok(())
    }
    fn compute(&self, split: usize, _ctx: &TaskContext) -> Result<Vec<T>> {
        Ok((*self.partitions[split]).clone())
    }
}

/// Narrow transformation over whole partitions; `map`, `flat_map` and
/// `map_partitions` all lower to this node.
pub struct MapPartitionsNode<T: Data, U: Data> {
    name: String,
    parent: Arc<dyn RddNode<T>>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&TaskContext, usize, Vec<T>) -> Result<Vec<U>> + Send + Sync>,
}

impl<T: Data, U: Data> MapPartitionsNode<T, U> {
    #[allow(clippy::type_complexity)]
    pub(crate) fn new(
        name: &str,
        parent: Arc<dyn RddNode<T>>,
        f: Arc<dyn Fn(&TaskContext, usize, Vec<T>) -> Result<Vec<U>> + Send + Sync>,
    ) -> Self {
        MapPartitionsNode {
            name: name.to_string(),
            parent,
            f,
        }
    }
}

impl<T: Data, U: Data> RddNode<U> for MapPartitionsNode<T, U> {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn prepare(&self, cluster: &Cluster) -> Result<()> {
        self.parent.prepare(cluster)
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Result<Vec<U>> {
        let input = self.parent.compute(split, ctx)?;
        (self.f)(ctx, split, input)
    }
}

/// Concatenation of several parents' partition spaces.
pub struct UnionNode<T: Data> {
    parents: Vec<Arc<dyn RddNode<T>>>,
}

impl<T: Data> UnionNode<T> {
    pub(crate) fn new(parents: Vec<Arc<dyn RddNode<T>>>) -> Self {
        UnionNode { parents }
    }
}

impl<T: Data> RddNode<T> for UnionNode<T> {
    fn name(&self) -> String {
        "union".into()
    }
    fn num_partitions(&self) -> usize {
        self.parents.iter().map(|p| p.num_partitions()).sum()
    }
    fn prepare(&self, cluster: &Cluster) -> Result<()> {
        for p in &self.parents {
            p.prepare(cluster)?;
        }
        Ok(())
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Result<Vec<T>> {
        let mut offset = split;
        for p in &self.parents {
            let n = p.num_partitions();
            if offset < n {
                return p.compute(offset, ctx);
            }
            offset -= n;
        }
        Err(SparkletError::User(format!(
            "union partition {split} out of range"
        )))
    }
}

/// Caching node: partitions are stored in the block manager on first
/// computation; evicted blocks are transparently recomputed from lineage.
/// The blocks live as long as the node: every RDD derived from it holds it
/// through its lineage, and when the last holder drops it the blocks go with
/// it (memory and disk tier) instead of waiting for LRU pressure.
pub struct CachedNode<T: Data> {
    id: u64,
    cluster: Cluster,
    parent: Arc<dyn RddNode<T>>,
}

impl<T: Data> CachedNode<T> {
    pub(crate) fn new(id: u64, cluster: Cluster, parent: Arc<dyn RddNode<T>>) -> Self {
        CachedNode {
            id,
            cluster,
            parent,
        }
    }
}

impl<T: Data> RddNode<T> for CachedNode<T> {
    fn name(&self) -> String {
        format!("cached[{}]", self.parent.name())
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn prepare(&self, cluster: &Cluster) -> Result<()> {
        self.parent.prepare(cluster)
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Result<Vec<T>> {
        if let Some(block) = self.cluster.blocks().get::<T>((self.id, split)) {
            return Ok((*block).clone());
        }
        let data = self.parent.compute(split, ctx)?;
        let size = estimate_vec_size(&data);
        self.cluster.blocks().put(
            (self.id, split),
            Arc::new(data.clone()),
            size,
            ctx.executor(),
        );
        Ok(data)
    }
}

impl<T: Data> Drop for CachedNode<T> {
    fn drop(&mut self) {
        self.cluster.blocks().evict_rdd(self.id);
    }
}

/// Run (or re-run) the map side of shuffle `sid` for the given subset of
/// parent partitions: each map task hash-partitions its parent partition
/// into `partitioner.num_partitions()` buckets and registers them, keyed by
/// map-task index and tagged with the hosting executor. Called with every
/// partition from [`ShuffledNode::prepare`] and with just the missing ones
/// from the lineage-recovery handler.
fn run_map_stage<K: KeyData, V: Data>(
    cluster: &Cluster,
    parent: &Arc<dyn RddNode<(K, V)>>,
    partitioner: &Arc<dyn Partitioner<K>>,
    sid: u64,
    maps: &[usize],
    recovering: bool,
) -> Result<()> {
    let nr = partitioner.num_partitions();
    let total = parent.num_partitions();
    let suffix = if recovering { "-recover" } else { "-write" };
    let stage = format!("shuffle#{sid}{suffix}[{}]", parent.name());
    let maps: Arc<Vec<usize>> = Arc::new(maps.to_vec());
    let parent = parent.clone();
    let partitioner = partitioner.clone();
    let cl = cluster.clone();
    cluster.run_job::<u8, _>(&stage, maps.len(), move |i, ctx| {
        let m = maps[i];
        let data = parent.compute(m, ctx)?;
        let records = data.len();
        let (buckets, chunks) = bucket_by_partition(data, partitioner.as_ref(), CHUNK_RECORDS);
        ctx.add_chunks(chunks);
        ctx.add_chunk_records(records as u64, CHUNK_RECORDS.min(records) as u64);
        let bytes = (records * std::mem::size_of::<(K, V)>().max(1)) as u64;
        ctx.add_shuffle_bytes(bytes);
        cl.shuffles()
            .write_map_output(sid, m, total, nr, ctx.executor(), buckets, bytes)?;
        Ok(Vec::new())
    })?;
    Ok(())
}

/// Bucket a map task's pairs by reduce partition, chunked and with
/// exact-capacity buckets: an assignment pass calls
/// [`Partitioner::partition_batch`] once per `chunk_target` rows (one
/// virtual dispatch per chunk instead of one per record), a counting pass
/// sizes every bucket exactly, and the fill pass moves each pair once into
/// storage that never reallocates or over-allocates. Returns the buckets
/// and the number of chunks dispatched. Bucket contents are bit-identical
/// to the per-record path for every chunk size: assignment order is row
/// order either way.
pub(crate) fn bucket_by_partition<K: KeyData, V: Data>(
    data: Vec<(K, V)>,
    partitioner: &dyn Partitioner<K>,
    chunk_target: usize,
) -> (Vec<Vec<(K, V)>>, u64) {
    let nr = partitioner.num_partitions();
    let chunk_target = chunk_target.max(1);
    let mut assign = Vec::with_capacity(data.len());
    let mut chunks = 0u64;
    for rows in data.chunks(chunk_target) {
        partitioner.partition_batch(&mut rows.iter().map(|kv| &kv.0), &mut assign);
        chunks += 1;
    }
    let mut counts = vec![0usize; nr];
    for &r in &assign {
        counts[r] += 1;
    }
    let mut buckets: Vec<Vec<(K, V)>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (kv, &r) in data.into_iter().zip(&assign) {
        buckets[r].push(kv);
    }
    (buckets, chunks)
}

/// Wide node: repartitions `(K, V)` pairs by key through the shuffle service.
///
/// The node owns the strong reference to its shuffle's lineage-recovery
/// handler (see `cluster::RecoveryFn`); the cluster registry only holds it
/// weakly, so there is no node ↔ cluster reference cycle. The map outputs
/// live as long as the node, like a [`CachedNode`]'s blocks: every RDD
/// derived from it holds it through its lineage, and when the last holder
/// drops it the outputs and the registry entry go with it — a long-lived
/// cluster keeps the shuffles of its live datasets, not of every job it
/// ever ran.
pub struct ShuffledNode<K: KeyData, V: Data> {
    shuffle_id: u64,
    cluster: Cluster,
    parent: Arc<dyn RddNode<(K, V)>>,
    partitioner: Arc<dyn Partitioner<K>>,
    recovery: Arc<RecoveryFn>,
    done: Mutex<bool>,
}

impl<K: KeyData, V: Data> ShuffledNode<K, V> {
    pub(crate) fn new(
        shuffle_id: u64,
        cluster: Cluster,
        parent: Arc<dyn RddNode<(K, V)>>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Self {
        let recovery: Arc<RecoveryFn> = {
            let parent = parent.clone();
            let partitioner = partitioner.clone();
            Arc::new(move |cluster: &Cluster, maps: &[usize]| {
                run_map_stage(cluster, &parent, &partitioner, shuffle_id, maps, true)
            })
        };
        ShuffledNode {
            shuffle_id,
            cluster,
            parent,
            partitioner,
            recovery,
            done: Mutex::new(false),
        }
    }
}

impl<K: KeyData, V: Data> RddNode<(K, V)> for ShuffledNode<K, V> {
    fn name(&self) -> String {
        format!("shuffle#{}", self.shuffle_id)
    }
    fn num_partitions(&self) -> usize {
        self.partitioner.num_partitions()
    }
    fn prepare(&self, cluster: &Cluster) -> Result<()> {
        self.parent.prepare(cluster)?;
        let mut done = self.done.lock();
        // The node-local flag alone is not authoritative: the cluster's
        // shuffle store may have been cleared (reset_run_state between
        // experiment runs) or partially lost to an executor kill, in which
        // case the shuffle must be re-materialised.
        if *done && cluster.shuffles().is_complete(self.shuffle_id) {
            return Ok(());
        }
        *done = false;
        // A previous failed materialisation may have left partial buckets.
        cluster.shuffles().discard(self.shuffle_id);
        cluster.register_shuffle_recovery(
            self.shuffle_id,
            self.parent.num_partitions(),
            &self.recovery,
        );
        let all: Vec<usize> = (0..self.parent.num_partitions()).collect();
        run_map_stage(
            cluster,
            &self.parent,
            &self.partitioner,
            self.shuffle_id,
            &all,
            false,
        )?;
        if !cluster.shuffles().mark_complete(self.shuffle_id) {
            // An executor died between writing its outputs and this point,
            // taking some of them with it: rebuild the gaps right away.
            cluster.recover_shuffle(self.shuffle_id);
        }
        *done = true;
        Ok(())
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Result<Vec<(K, V)>> {
        let data: Vec<(K, V)> = self
            .cluster
            .shuffles()
            .read_bucket(self.shuffle_id, split)?;
        ctx.add_shuffle_bytes((data.len() * std::mem::size_of::<(K, V)>().max(1)) as u64);
        Ok(data)
    }
}

impl<K: KeyData, V: Data> Drop for ShuffledNode<K, V> {
    fn drop(&mut self) {
        self.cluster.release_shuffle(self.shuffle_id);
    }
}

/// Zip two equally-partitioned parents partition-wise through a combiner
/// function (the engine's cogroup building block).
pub struct ZipPartitionsNode<A: Data, B: Data, C: Data> {
    left: Arc<dyn RddNode<A>>,
    right: Arc<dyn RddNode<B>>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&TaskContext, Vec<A>, Vec<B>) -> Result<Vec<C>> + Send + Sync>,
}

impl<A: Data, B: Data, C: Data> ZipPartitionsNode<A, B, C> {
    #[allow(clippy::type_complexity)]
    pub(crate) fn new(
        left: Arc<dyn RddNode<A>>,
        right: Arc<dyn RddNode<B>>,
        f: Arc<dyn Fn(&TaskContext, Vec<A>, Vec<B>) -> Result<Vec<C>> + Send + Sync>,
    ) -> Result<Self> {
        if left.num_partitions() != right.num_partitions() {
            return Err(SparkletError::PartitionMismatch {
                left: left.num_partitions(),
                right: right.num_partitions(),
            });
        }
        Ok(ZipPartitionsNode { left, right, f })
    }
}

impl<A: Data, B: Data, C: Data> RddNode<C> for ZipPartitionsNode<A, B, C> {
    fn name(&self) -> String {
        "zip_partitions".into()
    }
    fn num_partitions(&self) -> usize {
        self.left.num_partitions()
    }
    fn prepare(&self, cluster: &Cluster) -> Result<()> {
        self.left.prepare(cluster)?;
        self.right.prepare(cluster)
    }
    fn compute(&self, split: usize, ctx: &TaskContext) -> Result<Vec<C>> {
        let a = self.left.compute(split, ctx)?;
        let b = self.right.compute(split, ctx)?;
        (self.f)(ctx, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::HashPartitioner;

    #[test]
    fn bucketing_allocates_buckets_at_exact_capacity() {
        // Regression: the shuffle write path must size each bucket exactly
        // once instead of growing it per record (doubling leaves up to 2×
        // slack per bucket).
        let data: Vec<(u64, u32)> = (0..1000u64).map(|k| (k, (k * 3) as u32)).collect();
        let p = HashPartitioner::<u64>::new(8);
        let (buckets, chunks) = bucket_by_partition(data.clone(), &p, 128);
        assert_eq!(chunks, 8, "1000 rows at 128/chunk");
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 1000);
        for (i, b) in buckets.iter().enumerate() {
            assert_eq!(
                b.capacity(),
                b.len(),
                "bucket {i} over-allocated: capacity {} for {} rows",
                b.capacity(),
                b.len()
            );
        }
        // Bit-identical to the per-record path, in row order.
        let mut expect: Vec<Vec<(u64, u32)>> = (0..8).map(|_| Vec::new()).collect();
        for kv in data {
            expect[p.partition(&kv.0)].push(kv);
        }
        assert_eq!(buckets, expect);
    }

    #[test]
    fn bucketing_handles_empty_and_single_chunk_inputs() {
        let p = HashPartitioner::<u64>::new(4);
        let (buckets, chunks) = bucket_by_partition(Vec::<(u64, u8)>::new(), &p, 16);
        assert_eq!(chunks, 0);
        assert!(buckets.iter().all(Vec::is_empty));
        let (buckets, chunks) = bucket_by_partition(vec![(1u64, 1u8), (2, 2)], &p, usize::MAX);
        assert_eq!(chunks, 1);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 2);
    }
}
