//! Chunked operator-at-a-time execution — the batch path.
//!
//! Record-at-a-time dispatch pays one boxed-closure call per element; with
//! the narrow operators lowered to this module, a partition instead moves
//! through the DAG as a sequence of [`Chunk`] slabs of at most 1024 rows
//! (`CHUNK_RECORDS`), paying one dispatch
//! ([`crate::CostModelConfig::chunk_dispatch_ns`]) per chunk and per-record
//! cost only for the work itself. Output does not depend on where the cuts
//! fall: chunks are cut and re-concatenated in row order, so `map`, `filter`
//! and `flat_map` remain thin adapters over [`BatchMapNode`] with unchanged
//! semantics.

use super::node::RddNode;
use crate::cluster::Cluster;
use crate::error::Result;
use crate::task::TaskContext;
use crate::Data;
use std::sync::Arc;

/// Rows per chunk on the batch path (narrow operators and the shuffle map
/// side): large enough that the per-chunk dispatch cost is noise next to
/// per-record work, small enough that a chunk stays cache-resident.
pub(crate) const CHUNK_RECORDS: usize = 1024;

/// A contiguous slab of rows flowing through a batch operator.
///
/// A `Chunk` is a plain `Vec<T>` with the slab semantics made explicit:
/// operators receive whole chunks, transform them, and hand back whole
/// chunks. Within a partition, chunks arrive in row order and their outputs
/// are concatenated in the same order.
#[derive(Debug, Clone)]
pub struct Chunk<T> {
    items: Vec<T>,
}

impl<T> Chunk<T> {
    /// Wrap a row vector as a chunk.
    pub fn new(items: Vec<T>) -> Self {
        Chunk { items }
    }

    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the chunk empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrow the rows.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Take the rows out of the chunk.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Iterate over borrowed rows.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }
}

impl<T> From<Vec<T>> for Chunk<T> {
    fn from(items: Vec<T>) -> Self {
        Chunk::new(items)
    }
}

impl<T> IntoIterator for Chunk<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// Cut a partition into chunks of at most `target` rows, moving each element
/// exactly once. A partition at or under the target passes through as a
/// single chunk without touching its elements; an empty partition is one
/// empty chunk, so every (task, operator) pair dispatches at least once.
pub(crate) fn split_chunks<T>(data: Vec<T>, target: usize) -> Vec<Vec<T>> {
    let target = target.max(1);
    if data.len() <= target {
        return vec![data];
    }
    let mut chunks = Vec::with_capacity(data.len().div_ceil(target));
    let mut iter = data.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(target).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    chunks
}

/// Narrow batch transformation: the parent partition is cut into chunks and
/// each chunk is pushed through `f`; outputs are concatenated in chunk
/// order. All of `map` / `filter` / `flat_map` / `map_batches` /
/// `filter_batches` / `flat_map_batches` lower to this node.
///
/// Cost accounting: one [`crate::CostModelConfig::chunk_dispatch_ns`] per
/// chunk via [`TaskContext::add_chunks`]; the chunks, their records and the
/// largest of them are counted into the report's `batch` section once per
/// compute.
pub struct BatchMapNode<T: Data, U: Data> {
    id: u64,
    name: String,
    parent: Arc<dyn RddNode<T>>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&TaskContext, usize, Chunk<T>) -> Result<Chunk<U>> + Send + Sync>,
}

impl<T: Data, U: Data> BatchMapNode<T, U> {
    #[allow(clippy::type_complexity)]
    pub fn new(
        id: u64,
        name: &str,
        parent: Arc<dyn RddNode<T>>,
        f: Arc<dyn Fn(&TaskContext, usize, Chunk<T>) -> Result<Chunk<U>> + Send + Sync>,
    ) -> Self {
        BatchMapNode {
            id,
            name: name.to_string(),
            parent,
            f,
        }
    }
}

impl<T: Data, U: Data> RddNode<U> for BatchMapNode<T, U> {
    fn id(&self) -> u64 {
        self.id
    }
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
        let records = input.len() as u64;
        let chunks = split_chunks(input, CHUNK_RECORDS);
        ctx.add_chunks(chunks.len() as u64);
        ctx.add_chunk_records(records, records.min(CHUNK_RECORDS as u64));
        let mut out: Vec<U> = Vec::new();
        for chunk in chunks {
            let produced = (self.f)(ctx, split, Chunk::new(chunk))?;
            if out.is_empty() {
                // Single-chunk fast path: hand the produced slab through.
                out = produced.into_items();
            } else {
                out.extend(produced.into_items());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_chunks_cuts_in_row_order_without_remainder_loss() {
        let chunks = split_chunks((0..10u32).collect(), 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], vec![0, 1, 2]);
        assert_eq!(chunks[3], vec![9]);
        let flat: Vec<u32> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn split_chunks_small_partition_is_one_slab() {
        let chunks = split_chunks(vec![1u8, 2, 3], 1024);
        assert_eq!(chunks.len(), 1);
        let chunks = split_chunks(vec![1u8, 2, 3], usize::MAX);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn split_chunks_empty_partition_is_one_empty_chunk() {
        for target in [1, 4, CHUNK_RECORDS, usize::MAX] {
            let chunks = split_chunks(Vec::<u8>::new(), target);
            assert_eq!(chunks, vec![Vec::<u8>::new()], "target {target}");
        }
    }

    #[test]
    fn split_chunks_preserves_order_and_content_at_every_target() {
        let rows: Vec<u32> = (0..2_500).map(|i| i * 7 % 1_013).collect();
        for (target, expect_chunks) in [(1, 2_500), (CHUNK_RECORDS, 3), (usize::MAX, 1)] {
            let chunks = split_chunks(rows.clone(), target);
            assert_eq!(chunks.len(), expect_chunks, "target {target}");
            assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= target));
            let flat: Vec<u32> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, rows, "target {target}");
        }
    }

    #[test]
    fn split_chunks_target_one_is_one_row_per_chunk() {
        let chunks = split_chunks(vec![7u8, 8, 9], 1);
        assert_eq!(chunks, vec![vec![7], vec![8], vec![9]]);
    }

    #[test]
    fn chunk_wraps_and_unwraps() {
        let c = Chunk::from(vec![1u8, 2]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.items(), &[1, 2]);
        assert_eq!(c.iter().copied().sum::<u8>(), 3);
        assert_eq!(c.into_items(), vec![1, 2]);
    }
}
