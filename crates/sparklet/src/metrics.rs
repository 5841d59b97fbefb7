//! Cluster-wide counters: scheduling, shuffle, storage and user metrics.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared handle to a named `u64` counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Raise the counter to `n` if it is lower: a high-water mark.
    pub(crate) fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// All engine metrics plus a registry of user-defined counters.
///
/// Cloning shares the underlying counters (`Arc` semantics).
#[derive(Clone, Default)]
pub struct ClusterMetrics {
    /// Task attempts launched (including retries).
    pub tasks_launched: Counter,
    /// Task attempts that succeeded.
    pub tasks_succeeded: Counter,
    /// Task attempts that failed (injected faults + memory kills).
    pub tasks_failed: Counter,
    /// Failures caused by the modelled memory budget specifically.
    pub memory_kills: Counter,
    /// Records written to the shuffle service.
    pub shuffle_records_written: Counter,
    /// Estimated bytes written to the shuffle service.
    pub shuffle_bytes_written: Counter,
    /// Records read back from the shuffle service.
    pub shuffle_records_read: Counter,
    /// Cache lookups that hit the block manager.
    pub cache_hits: Counter,
    /// Cache lookups that missed and recomputed from lineage.
    pub cache_misses: Counter,
    /// Cached blocks evicted under memory pressure.
    pub cache_evictions: Counter,
    /// Jobs (actions / shuffle-materialisation stages) submitted.
    pub jobs_submitted: Counter,
    /// Executors killed by the fault schedule (restarts + blacklists).
    pub executors_lost: Counter,
    /// Executors removed from scheduling after exceeding the failure budget.
    pub executors_blacklisted: Counter,
    /// Reduce-side reads that found their shuffle map outputs gone.
    pub fetch_failures: Counter,
    /// Map tasks re-run from lineage to rebuild lost shuffle outputs.
    pub recomputed_tasks: Counter,
    /// Task results discarded because their executor died mid-flight
    /// (rescheduled on survivors without counting as failures).
    pub tasks_lost: Counter,
    /// Chunks dispatched by the element-wise operators and the shuffle map
    /// side (see [`crate::Rdd::map`]).
    pub chunks_executed: Counter,
    /// Records carried by those chunks.
    pub chunk_records: Counter,
    /// Largest single chunk dispatched (records) — a high-water mark.
    pub max_chunk_records: Counter,
    /// Bytes serialized to spill files (shuffle buckets + cache blocks).
    pub spill_bytes_written: Counter,
    /// Bytes read back and deserialized from spill files.
    pub spill_bytes_read: Counter,
    /// Cache blocks that went to the disk tier instead of being dropped.
    pub blocks_spilled: Counter,
    /// Shuffle buckets written to the disk tier.
    pub buckets_spilled: Counter,
    /// Per-executor spill files created.
    pub spill_files_created: Counter,
    /// Cache puts refused because the block exceeded the executor pool and
    /// no spill codec could take it (the block recomputes from lineage on
    /// every access).
    pub cache_skipped: Counter,
    user: Arc<RwLock<HashMap<String, Counter>>>,
}

impl ClusterMetrics {
    /// Create a fresh, zeroed metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch (creating on first use) a named user counter.
    ///
    /// Domain code uses these for algorithm-level statistics — the paper's
    /// intra-cluster / cross-cluster comparison counts, pruned-pair counts,
    /// and so on.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.user.read().get(name) {
            return c.clone();
        }
        let mut w = self.user.write();
        w.entry(name.to_string()).or_default().clone()
    }

    /// Snapshot of all user counters, sorted by name.
    pub(crate) fn user_counters(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .user
            .read()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        v.sort();
        v
    }

    /// Reset every engine and user counter to zero. Used between experiment
    /// runs so each figure's counts are independent.
    pub fn reset(&self) {
        self.tasks_launched.reset();
        self.tasks_succeeded.reset();
        self.tasks_failed.reset();
        self.memory_kills.reset();
        self.shuffle_records_written.reset();
        self.shuffle_bytes_written.reset();
        self.shuffle_records_read.reset();
        self.cache_hits.reset();
        self.cache_misses.reset();
        self.cache_evictions.reset();
        self.jobs_submitted.reset();
        self.executors_lost.reset();
        self.executors_blacklisted.reset();
        self.fetch_failures.reset();
        self.recomputed_tasks.reset();
        self.tasks_lost.reset();
        self.chunks_executed.reset();
        self.chunk_records.reset();
        self.max_chunk_records.reset();
        self.spill_bytes_written.reset();
        self.spill_bytes_read.reset();
        self.blocks_spilled.reset();
        self.buckets_spilled.reset();
        self.spill_files_created.reset();
        self.cache_skipped.reset();
        for (_, c) in self.user.read().iter() {
            c.reset();
        }
    }
}

impl std::fmt::Debug for ClusterMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterMetrics")
            .field("tasks_launched", &self.tasks_launched.get())
            .field("tasks_succeeded", &self.tasks_succeeded.get())
            .field("tasks_failed", &self.tasks_failed.get())
            .field(
                "shuffle_records_written",
                &self.shuffle_records_written.get(),
            )
            .field("shuffle_bytes_written", &self.shuffle_bytes_written.get())
            .field("cache_hits", &self.cache_hits.get())
            .field("cache_misses", &self.cache_misses.get())
            .field("user", &self.user_counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn raise_to_is_a_high_water_mark() {
        let c = Counter::default();
        c.raise_to(50);
        c.raise_to(7);
        assert_eq!(c.get(), 50);
    }

    #[test]
    fn counters_share_state_across_clones() {
        let m = ClusterMetrics::new();
        let a = m.counter("comparisons");
        let b = m.counter("comparisons");
        a.add(5);
        b.add(7);
        assert_eq!(m.counter("comparisons").get(), 12);
    }

    #[test]
    fn user_counters_snapshot_is_sorted() {
        let m = ClusterMetrics::new();
        m.counter("zzz").add(1);
        m.counter("aaa").add(2);
        let snap = m.user_counters();
        assert_eq!(snap[0].0, "aaa");
        assert_eq!(snap[1].0, "zzz");
    }

    #[test]
    fn reset_clears_user_counters_too() {
        let m = ClusterMetrics::new();
        m.counter("x").add(9);
        m.tasks_launched.add(3);
        m.executors_lost.add(2);
        m.fetch_failures.add(4);
        m.tasks_lost.inc();
        m.reset();
        assert_eq!(m.counter("x").get(), 0);
        assert_eq!(m.tasks_launched.get(), 0);
        assert_eq!(m.executors_lost.get(), 0);
        assert_eq!(m.fetch_failures.get(), 0);
        assert_eq!(m.tasks_lost.get(), 0);
    }

    #[test]
    fn metrics_clone_shares_counters() {
        let m = ClusterMetrics::new();
        let m2 = m.clone();
        m.tasks_failed.inc();
        assert_eq!(m2.tasks_failed.get(), 1);
    }
}
