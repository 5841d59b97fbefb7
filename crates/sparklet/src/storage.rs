//! Block manager: in-memory cache for computed RDD partitions.
//!
//! Mirrors Spark's storage layer at the granularity the paper relies on:
//! `cache()` pins partitions in executor memory; when an executor's pool is
//! exhausted its least-recently-used blocks are evicted and later accesses
//! recompute them from lineage (the engine's [`crate::rdd`] layer does the
//! recomputation; the block manager only stores/evicts).
//!
//! Blocks are owned by the executor whose task computed them. Storage
//! pressure is per executor (`memory_per_executor * storage_fraction` each),
//! and killing an executor (`BlockManager::evict_executor`) drops exactly
//! its blocks — the failure-domain semantics real Spark gets from having one
//! block manager per executor process. Lookups stay global: the engine is
//! one process, so a surviving replica anywhere is a hit.
//!
//! With a [`SpillManager`] attached (see `BlockManager::with_spill`, wired
//! by [`crate::Cluster::new`]), pressure evictions and oversized puts go to
//! the owner's spill file instead of being dropped — provided a spill codec
//! is registered for the element type — and later `get`s read them back from
//! disk. Lineage recompute remains the fallback of last resort: it only
//! happens when no codec exists or the spill file died with its executor.

use crate::metrics::ClusterMetrics;
use crate::spill::{SpillManager, SpillSlot};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a cached partition: `(rdd id, partition index)`.
pub type BlockId = (u64, usize);

struct Block {
    data: Arc<dyn Any + Send + Sync>,
    size: usize,
    /// Monotone access stamp for LRU.
    last_used: u64,
    /// Executor whose task computed (and therefore hosts) the block.
    owner: usize,
}

/// A block that lives on the disk tier instead of in memory.
struct SpilledBlock {
    slot: SpillSlot,
    owner: usize,
}

struct Store {
    blocks: HashMap<BlockId, Block>,
    /// Blocks serialized to the owner's spill file (disk tier).
    spilled: HashMap<BlockId, SpilledBlock>,
    /// Bytes cached per executor, indexed by executor id.
    used: Vec<usize>,
    tick: u64,
}

/// Memory-bounded cache of computed partitions with per-executor pools.
pub struct BlockManager {
    store: Mutex<Store>,
    executor_capacity: usize,
    num_executors: usize,
    metrics: ClusterMetrics,
    /// Disk tier; `None` keeps the historical drop-on-pressure semantics
    /// (standalone block managers in unit tests).
    spill: Option<SpillManager>,
}

impl BlockManager {
    /// Fraction of executor memory available to storage (Spark's
    /// `spark.storage.memoryFraction` era default was 0.6).
    pub const STORAGE_FRACTION: f64 = 0.6;

    /// Create a block manager with `executor_capacity` bytes of storage
    /// memory on each of `num_executors` executors.
    pub(crate) fn new(
        executor_capacity: usize,
        num_executors: usize,
        metrics: ClusterMetrics,
    ) -> Self {
        let n = num_executors.max(1);
        BlockManager {
            store: Mutex::new(Store {
                blocks: HashMap::new(),
                spilled: HashMap::new(),
                used: vec![0; n],
                tick: 0,
            }),
            executor_capacity,
            num_executors: n,
            metrics,
            spill: None,
        }
    }

    /// Attach the disk tier (builder, used by [`crate::Cluster::new`]).
    /// Pressure evictions and oversized puts then spill instead of dropping
    /// when the spill manager has a codec for the block type.
    pub(crate) fn with_spill(mut self, spill: SpillManager) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Bytes currently cached across all executors.
    pub fn used(&self) -> usize {
        self.store.lock().used.iter().sum()
    }

    /// Bytes currently cached on one executor.
    pub fn used_by(&self, executor: usize) -> usize {
        self.store.lock().used.get(executor).copied().unwrap_or(0)
    }

    /// Number of blocks currently cached.
    pub fn block_count(&self) -> usize {
        self.store.lock().blocks.len()
    }

    /// Look up a cached partition. Hits bump the LRU stamp and the
    /// `cache_hits` metric; misses bump `cache_misses`.
    pub(crate) fn get<T: Send + Sync + 'static>(&self, id: BlockId) -> Option<Arc<Vec<T>>> {
        let mut s = self.store.lock();
        s.tick += 1;
        let tick = s.tick;
        match s.blocks.get_mut(&id) {
            Some(block) => {
                block.last_used = tick;
                let data = block.data.clone();
                drop(s);
                match data.downcast::<Vec<T>>() {
                    Ok(v) => {
                        self.metrics.cache_hits.inc();
                        Some(v)
                    }
                    Err(_) => {
                        // Type mismatch can only happen on RDD-id reuse bugs;
                        // treat as a miss rather than corrupting the caller.
                        self.metrics.cache_misses.inc();
                        None
                    }
                }
            }
            None => {
                // Disk tier: a spilled copy is still a hit — read it back
                // rather than recomputing from lineage.
                if let Some(found) = self.get_spilled::<T>(&mut s, id) {
                    drop(s);
                    self.metrics.cache_hits.inc();
                    return Some(found);
                }
                drop(s);
                self.metrics.cache_misses.inc();
                None
            }
        }
    }

    /// Read a spilled block back from the disk tier. Drops the entry (and
    /// reports a miss) when its spill file died with the owning executor or
    /// the payload type does not match.
    fn get_spilled<T: Send + Sync + 'static>(
        &self,
        s: &mut Store,
        id: BlockId,
    ) -> Option<Arc<Vec<T>>> {
        let spill = self.spill.as_ref()?;
        let entry = s.spilled.get(&id)?;
        let found = spill
            .read(&entry.slot)
            .and_then(|any| any.downcast::<Vec<T>>().ok());
        if found.is_none() {
            s.spilled.remove(&id);
        }
        found
    }

    /// Insert a partition computed on `executor`, evicting that executor's
    /// LRU blocks as needed. Blocks larger than one executor's pool never
    /// enter the memory pool: with a disk tier attached they spill straight
    /// to the owner's spill file; otherwise the put is skipped (counted in
    /// `cache_skipped` — callers recompute on every access).
    pub(crate) fn put<T: Send + Sync + 'static>(
        &self,
        id: BlockId,
        data: Arc<Vec<T>>,
        size: usize,
        executor: usize,
    ) {
        let owner = executor % self.num_executors;
        if size > self.executor_capacity {
            // Spark's "skip caching oversized partition" path. Historically
            // this returned silently, making reports claim a clean cache
            // while the partition recomputed on every access.
            let mut s = self.store.lock();
            if self.spill_block(&mut s, id, &*data, owner) {
                return;
            }
            drop(s);
            self.metrics.cache_skipped.inc();
            return;
        }
        let mut s = self.store.lock();
        if let Some(old) = s.blocks.remove(&id) {
            s.used[old.owner] -= old.size;
            self.sub_resident(old.owner, old.size);
            if old.owner != owner {
                // Cross-owner re-put (e.g. a retry recomputed the partition
                // on another executor): the old owner's copy is gone —
                // count the implicit eviction instead of adjusting
                // accounting silently.
                self.metrics.cache_evictions.inc();
            }
        }
        // A fresh in-memory copy supersedes any stale spilled one.
        s.spilled.remove(&id);
        while s.used[owner] + size > self.executor_capacity {
            // Evict the owner's least recently used block — to the disk
            // tier when possible, dropping it only as the last resort.
            let victim = s
                .blocks
                .iter()
                .filter(|(_, b)| b.owner == owner)
                .min_by_key(|(_, b)| b.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(b) = s.blocks.remove(&k) {
                        s.used[owner] -= b.size;
                        self.sub_resident(owner, b.size);
                        if !self.spill_block(&mut s, k, &*b.data, owner) {
                            self.metrics.cache_evictions.inc();
                        }
                    }
                }
                None => break,
            }
        }
        s.tick += 1;
        let tick = s.tick;
        s.used[owner] += size;
        self.add_resident(owner, size);
        s.blocks.insert(
            id,
            Block {
                data,
                size,
                last_used: tick,
                owner,
            },
        );
    }

    /// Try to move a block to the disk tier. Returns whether it spilled.
    fn spill_block(
        &self,
        s: &mut Store,
        id: BlockId,
        data: &(dyn Any + Send + Sync),
        owner: usize,
    ) -> bool {
        let Some(spill) = self.spill.as_ref() else {
            return false;
        };
        let Some(slot) = spill.write(owner, data) else {
            return false;
        };
        self.metrics.blocks_spilled.inc();
        s.spilled.insert(id, SpilledBlock { slot, owner });
        true
    }

    fn add_resident(&self, owner: usize, bytes: usize) {
        if let Some(spill) = self.spill.as_ref() {
            spill.add_resident(owner, bytes as u64);
        }
    }

    fn sub_resident(&self, owner: usize, bytes: usize) {
        if let Some(spill) = self.spill.as_ref() {
            spill.sub_resident(owner, bytes as u64);
        }
    }

    /// Remove every cached partition of an RDD (`unpersist`), from both the
    /// memory pool and the disk tier.
    pub(crate) fn evict_rdd(&self, rdd_id: u64) {
        let mut s = self.store.lock();
        let keys: Vec<BlockId> = s
            .blocks
            .keys()
            .filter(|(r, _)| *r == rdd_id)
            .copied()
            .collect();
        for k in keys {
            if let Some(b) = s.blocks.remove(&k) {
                s.used[b.owner] -= b.size;
                self.sub_resident(b.owner, b.size);
            }
        }
        s.spilled.retain(|(r, _), _| *r != rdd_id);
    }

    /// Drop every block owned by `executor` — the storage half of an
    /// executor kill. These are failure losses, not pressure evictions, so
    /// `cache_evictions` is not bumped; the scheduler counts the kill in
    /// `executors_lost` instead.
    pub(crate) fn evict_executor(&self, executor: usize) {
        let mut s = self.store.lock();
        let keys: Vec<BlockId> = s
            .blocks
            .iter()
            .filter(|(_, b)| b.owner == executor)
            .map(|(k, _)| *k)
            .collect();
        for k in &keys {
            if let Some(b) = s.blocks.remove(k) {
                s.used[b.owner] -= b.size;
                self.sub_resident(b.owner, b.size);
            }
        }
        // Spilled copies die with the executor's spill file (the cluster
        // invalidates it on kill); forget the now-dangling entries so later
        // gets go straight to lineage recompute.
        s.spilled.retain(|_, e| e.owner != executor);
    }

    /// Clear the whole cache, memory and disk tier alike.
    pub fn clear(&self) {
        let mut s = self.store.lock();
        for b in s.blocks.values() {
            self.sub_resident(b.owner, b.size);
        }
        s.blocks.clear();
        s.spilled.clear();
        s.used.iter_mut().for_each(|u| *u = 0);
    }
}

/// Estimate the resident size of a `Vec<T>` partition.
///
/// Deliberately shallow (`len * size_of::<T>()`): the engine's memory model
/// needs relative sizes that scale with record counts, not byte-exact
/// accounting. Documented in `DESIGN.md`.
pub(crate) fn estimate_vec_size<T>(v: &[T]) -> usize {
    v.len() * std::mem::size_of::<T>().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(cap: usize) -> BlockManager {
        BlockManager::new(cap, 1, ClusterMetrics::new())
    }

    #[test]
    fn put_get_roundtrip() {
        let m = bm(1024);
        m.put((1, 0), Arc::new(vec![1u32, 2, 3]), 12, 0);
        let got: Arc<Vec<u32>> = m.get((1, 0)).unwrap();
        assert_eq!(*got, vec![1, 2, 3]);
        assert_eq!(m.used(), 12);
    }

    #[test]
    fn miss_returns_none_and_counts() {
        let metrics = ClusterMetrics::new();
        let m = BlockManager::new(64, 1, metrics.clone());
        assert!(m.get::<u32>((9, 9)).is_none());
        assert_eq!(metrics.cache_misses.get(), 1);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let m = bm(100);
        m.put((1, 0), Arc::new(vec![0u8; 40]), 40, 0);
        m.put((1, 1), Arc::new(vec![0u8; 40]), 40, 0);
        // Touch block 0 so block 1 becomes LRU.
        let _ = m.get::<u8>((1, 0));
        m.put((1, 2), Arc::new(vec![0u8; 40]), 40, 0);
        assert!(m.get::<u8>((1, 0)).is_some(), "recently used survives");
        assert!(m.get::<u8>((1, 1)).is_none(), "LRU victim evicted");
        assert!(m.get::<u8>((1, 2)).is_some());
    }

    #[test]
    fn pressure_is_per_executor() {
        // Two executors, 100 B each: filling executor 0 must not evict
        // executor 1's blocks.
        let m = BlockManager::new(100, 2, ClusterMetrics::new());
        m.put((1, 0), Arc::new(vec![0u8; 80]), 80, 0);
        m.put((2, 0), Arc::new(vec![0u8; 80]), 80, 1);
        m.put((3, 0), Arc::new(vec![0u8; 80]), 80, 0); // evicts (1,0) only
        assert!(m.get::<u8>((1, 0)).is_none(), "executor 0's LRU evicted");
        assert!(m.get::<u8>((2, 0)).is_some(), "executor 1 untouched");
        assert!(m.get::<u8>((3, 0)).is_some());
        assert_eq!(m.used_by(0), 80);
        assert_eq!(m.used_by(1), 80);
    }

    #[test]
    fn evict_executor_drops_only_its_blocks() {
        let m = BlockManager::new(1000, 2, ClusterMetrics::new());
        m.put((1, 0), Arc::new(vec![0u8; 10]), 10, 0);
        m.put((1, 1), Arc::new(vec![0u8; 20]), 20, 1);
        m.put((2, 0), Arc::new(vec![0u8; 30]), 30, 0);
        m.evict_executor(0);
        assert!(m.get::<u8>((1, 0)).is_none());
        assert!(m.get::<u8>((2, 0)).is_none());
        assert!(m.get::<u8>((1, 1)).is_some(), "survivor's block remains");
        assert_eq!((m.block_count(), m.used(), m.used_by(0)), (1, 20, 0));
        m.evict_executor(0);
        assert_eq!(
            (m.block_count(), m.used(), m.used_by(1)),
            (1, 20, 20),
            "idempotent"
        );
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let m = bm(10);
        m.put((1, 0), Arc::new(vec![0u8; 100]), 100, 0);
        assert_eq!(m.block_count(), 0);
    }

    #[test]
    fn reinsert_replaces_and_fixes_accounting() {
        let m = bm(100);
        m.put((1, 0), Arc::new(vec![1u8]), 30, 0);
        m.put((1, 0), Arc::new(vec![2u8]), 50, 0);
        assert_eq!(m.used(), 50);
        let got: Arc<Vec<u8>> = m.get((1, 0)).unwrap();
        assert_eq!(*got, vec![2u8]);
    }

    #[test]
    fn reinsert_across_executors_moves_ownership() {
        let m = BlockManager::new(100, 2, ClusterMetrics::new());
        m.put((1, 0), Arc::new(vec![1u8]), 30, 0);
        m.put((1, 0), Arc::new(vec![2u8]), 40, 1);
        assert_eq!(m.used_by(0), 0);
        assert_eq!(m.used_by(1), 40);
    }

    #[test]
    fn evict_rdd_removes_all_its_partitions() {
        let m = bm(1000);
        m.put((1, 0), Arc::new(vec![1u8]), 10, 0);
        m.put((1, 1), Arc::new(vec![1u8]), 10, 0);
        m.put((2, 0), Arc::new(vec![1u8]), 10, 0);
        m.evict_rdd(1);
        assert!(m.get::<u8>((1, 0)).is_none());
        assert!(m.get::<u8>((1, 1)).is_none());
        assert!(m.get::<u8>((2, 0)).is_some());
        assert_eq!(m.used(), 10);
    }

    #[test]
    fn type_mismatch_is_a_miss_not_a_panic() {
        let m = bm(100);
        m.put((1, 0), Arc::new(vec![1u32]), 4, 0);
        assert!(m.get::<String>((1, 0)).is_none());
    }

    #[test]
    fn out_of_range_executor_is_clamped() {
        let m = bm(100);
        m.put((1, 0), Arc::new(vec![1u8]), 10, 7); // 7 % 1 == 0
        assert!(m.get::<u8>((1, 0)).is_some());
        assert_eq!(m.used_by(0), 10);
    }

    #[test]
    fn estimate_scales_with_len() {
        assert_eq!(estimate_vec_size(&[0u64; 8]), 64);
        assert_eq!(estimate_vec_size::<u64>(&[]), 0);
    }

    fn bm_spill(cap: usize) -> (BlockManager, ClusterMetrics, SpillManager) {
        let metrics = ClusterMetrics::new();
        let spill = SpillManager::new(1, usize::MAX, metrics.clone());
        let m = BlockManager::new(cap, 1, metrics.clone()).with_spill(spill.clone());
        (m, metrics, spill)
    }

    #[test]
    fn oversized_put_spills_straight_to_disk_and_reads_back() {
        let (m, metrics, _spill) = bm_spill(10);
        m.put((1, 0), Arc::new(vec![7u8; 100]), 100, 0);
        assert_eq!(m.block_count(), 0, "never enters the memory pool");
        assert_eq!(metrics.blocks_spilled.get(), 1);
        assert_eq!(metrics.cache_skipped.get(), 0, "spilled, not skipped");
        let got: Arc<Vec<u8>> = m.get((1, 0)).expect("disk tier serves the block");
        assert_eq!(*got, vec![7u8; 100]);
        assert_eq!(metrics.cache_hits.get(), 1, "a spilled read is a hit");
        assert!(metrics.spill_bytes_written.get() > 0);
        assert!(metrics.spill_bytes_read.get() > 0);
    }

    #[test]
    fn oversized_put_without_codec_is_journaled_as_skipped() {
        // Regression: this used to return silently — no counter — so
        // reports claimed a clean cache while the block recomputed on
        // every access.
        let (m, metrics, _spill) = bm_spill(10);
        m.put((1, 0), Arc::new(vec!["x".to_string(); 50]), 100, 0);
        assert_eq!(m.block_count(), 0);
        assert_eq!(metrics.cache_skipped.get(), 1);
        assert_eq!(metrics.blocks_spilled.get(), 0);
        assert!(m.get::<String>((1, 0)).is_none(), "recomputes from lineage");
    }

    #[test]
    fn pressure_eviction_spills_instead_of_dropping() {
        let (m, metrics, _spill) = bm_spill(100);
        m.put((1, 0), Arc::new(vec![1u8; 60]), 60, 0);
        m.put((1, 1), Arc::new(vec![2u8; 60]), 60, 0); // evicts (1,0) to disk
        assert_eq!(metrics.blocks_spilled.get(), 1);
        assert_eq!(
            metrics.cache_evictions.get(),
            0,
            "a spill is not a drop: the block is still servable"
        );
        let got: Arc<Vec<u8>> = m.get((1, 0)).expect("victim survives on disk");
        assert_eq!(*got, vec![1u8; 60]);
        assert!(m.get::<u8>((1, 1)).is_some(), "resident block untouched");
    }

    #[test]
    fn cross_owner_reput_journals_the_implicit_eviction() {
        // Regression: re-putting an existing BlockId under a different owner
        // adjusted `used[]` but never counted that the old owner's copy was
        // dropped.
        let metrics = ClusterMetrics::new();
        let m = BlockManager::new(100, 2, metrics.clone());
        m.put((1, 0), Arc::new(vec![1u8]), 30, 0);
        m.put((1, 0), Arc::new(vec![2u8]), 40, 1);
        assert_eq!(metrics.cache_evictions.get(), 1);
        assert_eq!((m.used_by(0), m.used_by(1)), (0, 40), "old copy released");
        // Same-owner replacement is bookkeeping, not an eviction.
        m.put((1, 0), Arc::new(vec![3u8]), 50, 1);
        assert_eq!(metrics.cache_evictions.get(), 1);
    }

    #[test]
    fn executor_kill_forgets_spilled_copies() {
        let (m, _metrics, spill) = bm_spill(10);
        m.put((1, 0), Arc::new(vec![9u8; 64]), 64, 0); // oversized → disk
        assert!(m.get::<u8>((1, 0)).is_some());
        // The kill path invalidates the spill file and evicts the executor.
        spill.invalidate_executor(0);
        m.evict_executor(0);
        assert!(
            m.get::<u8>((1, 0)).is_none(),
            "dangling slot must miss, not serve stale bytes"
        );
    }

    #[test]
    fn evict_rdd_and_clear_purge_the_disk_tier() {
        let (m, _metrics, _spill) = bm_spill(10);
        m.put((1, 0), Arc::new(vec![1u8; 64]), 64, 0);
        m.put((2, 0), Arc::new(vec![2u8; 64]), 64, 0);
        m.evict_rdd(1);
        assert!(m.get::<u8>((1, 0)).is_none(), "unpersist covers spilled");
        assert!(m.get::<u8>((2, 0)).is_some());
        m.clear();
        assert!(m.get::<u8>((2, 0)).is_none());
    }

    #[test]
    fn fresh_put_supersedes_the_spilled_copy() {
        let (m, _metrics, _spill) = bm_spill(100);
        m.put((1, 0), Arc::new(vec![1u8; 60]), 60, 0);
        m.put((1, 1), Arc::new(vec![2u8; 60]), 60, 0); // spills (1,0)
        m.put((1, 0), Arc::new(vec![3u8; 10]), 10, 0); // fresh resident copy
        let got: Arc<Vec<u8>> = m.get((1, 0)).unwrap();
        assert_eq!(*got, vec![3u8; 10], "memory copy wins over stale disk");
    }
}
