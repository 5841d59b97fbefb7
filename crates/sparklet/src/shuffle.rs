//! Shuffle service: bucketed map-output storage between stages.
//!
//! A wide transformation materialises its parent by running a map stage that
//! hash-partitions every parent partition into `R` buckets and registers them
//! here; reduce-side tasks then fetch bucket `r` of every map output. In
//! Spark this crosses the network — the engine accounts the would-be network
//! volume in [`crate::metrics::ClusterMetrics`] and charges it to the virtual
//! clock instead.
//!
//! Map outputs are keyed by map-task index and tagged with the executor that
//! produced them. That gives three properties the failure domain needs:
//! reads concatenate buckets in map-task order (deterministic regardless of
//! which worker finished first), duplicate writes of the same map task are
//! ignored (a racing recomputation cannot double records), and
//! killing an executor invalidates exactly its map outputs
//! (`ShuffleService::invalidate_executor`) so the next read surfaces
//! [`SparkletError::FetchFailed`] and the scheduler recomputes just the
//! missing parents from lineage.
//!
//! With a [`SpillManager`] attached (see `ShuffleService::with_spill`,
//! wired by [`crate::Cluster::new`]), each executor's *resident* shuffle
//! bytes are capped (`SpillManager::shuffle_capacity`, Spark's
//! `shuffle.memoryFraction` pool). A map output that would overflow the pool
//! is serialized bucket-by-bucket into the executor's spill file instead of
//! being held in memory — read-back happens transparently in
//! `ShuffleService::read_bucket`. A payload type with no registered spill
//! codec cannot go out of core: the same write fails with
//! [`SparkletError::MemoryExceeded`], failing the task and, once attempts
//! are exhausted, the job.

use crate::error::{Result, SparkletError};
use crate::metrics::ClusterMetrics;
use crate::spill::{SpillManager, SpillSlot};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

type Bucket = Arc<dyn Any + Send + Sync>;

/// Where one reduce bucket of a map output lives.
enum BucketStore {
    /// In memory, counted against the owner's resident shuffle pool.
    Resident(Bucket),
    /// On the owner's spill file; read back (and type-recovered through the
    /// codec registry) on fetch.
    Spilled(SpillSlot),
}

/// One map task's registered output.
struct MapOutput {
    /// Executor that produced (and in real Spark would serve) the output.
    executor: usize,
    /// `buckets[r]` is the chunk destined for reduce partition `r`.
    buckets: Vec<BucketStore>,
    /// Estimated bytes held resident by this output (0 when fully spilled);
    /// released from the owner's pool when the output is dropped.
    resident_bytes: u64,
}

struct ShuffleData {
    /// `outputs[m]` is map task `m`'s output, `None` until written (or
    /// after its executor died).
    outputs: Vec<Option<MapOutput>>,
    num_reduce: usize,
    complete: bool,
}

struct ShuffleStore {
    shuffles: HashMap<u64, ShuffleData>,
    /// Resident shuffle bytes per executor (the `shuffle.memoryFraction`
    /// pool), compared against the spill manager's shuffle capacity.
    resident: HashMap<usize, u64>,
}

/// Registry of all shuffles produced during a cluster's lifetime.
pub struct ShuffleService {
    store: Mutex<ShuffleStore>,
    metrics: ClusterMetrics,
    /// Disk tier; `None` means unbounded resident buckets (standalone
    /// shuffle services in unit tests keep the historical semantics).
    spill: Option<SpillManager>,
}

impl ShuffleService {
    /// Create an empty shuffle service.
    pub(crate) fn new(metrics: ClusterMetrics) -> Self {
        ShuffleService {
            store: Mutex::new(ShuffleStore {
                shuffles: HashMap::new(),
                resident: HashMap::new(),
            }),
            metrics,
            spill: None,
        }
    }

    /// Attach the disk tier (builder, used by [`crate::Cluster::new`]): caps
    /// each executor's resident shuffle bytes at the spill manager's shuffle
    /// capacity, spilling over-cap map outputs (or failing them with
    /// [`SparkletError::MemoryExceeded`] when their type has no codec).
    pub(crate) fn with_spill(mut self, spill: SpillManager) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Has `shuffle_id` been fully materialised (every map output present)?
    pub(crate) fn is_complete(&self, shuffle_id: u64) -> bool {
        self.store
            .lock()
            .shuffles
            .get(&shuffle_id)
            .map(|s| s.complete)
            .unwrap_or(false)
    }

    /// Register the output of map task `map_task` (of `num_maps`) computed
    /// on `executor`: `chunks[r]` is the data destined for reduce partition
    /// `r`. `bytes` is the estimated serialized volume (for metrics /
    /// virtual time). Keep-first: if the map task already has a live
    /// output (a racing recomputation lost), the
    /// write is ignored and `Ok(false)` is returned — nothing is counted
    /// for a discarded duplicate.
    ///
    /// With a disk tier attached, a write that would push the executor's
    /// resident shuffle bytes over the spill capacity is serialized
    /// bucket-by-bucket to the executor's spill file (codec registered for
    /// `T`) or fails with [`SparkletError::MemoryExceeded`], which fails the
    /// task like any other attempt error.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write_map_output<T: Send + Sync + 'static>(
        &self,
        shuffle_id: u64,
        map_task: usize,
        num_maps: usize,
        num_reduce: usize,
        executor: usize,
        chunks: Vec<Vec<T>>,
        bytes: u64,
    ) -> Result<bool> {
        debug_assert_eq!(chunks.len(), num_reduce);
        debug_assert!(map_task < num_maps);
        let records: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let mut spilled_buckets = 0u64;
        {
            let mut s = self.store.lock();
            let resident_now = s.resident.get(&executor).copied().unwrap_or(0);
            let entry = s.shuffles.entry(shuffle_id).or_insert_with(|| ShuffleData {
                outputs: (0..num_maps).map(|_| None).collect(),
                num_reduce,
                complete: false,
            });
            debug_assert_eq!(entry.outputs.len(), num_maps);
            debug_assert_eq!(entry.num_reduce, num_reduce);
            if entry.outputs[map_task].is_some() {
                return Ok(false);
            }
            let capacity = self
                .spill
                .as_ref()
                .map_or(u64::MAX, |sp| sp.shuffle_capacity() as u64);
            let output = if resident_now.saturating_add(bytes) <= capacity {
                // Fits in the resident pool.
                MapOutput {
                    executor,
                    buckets: chunks
                        .into_iter()
                        .map(|chunk| BucketStore::Resident(Arc::new(chunk) as Bucket))
                        .collect(),
                    resident_bytes: bytes,
                }
            } else {
                // Over the pool: spill every bucket or fail the attempt.
                let sp = self.spill.as_ref().expect("finite capacity implies spill");
                let mut buckets = Vec::with_capacity(chunks.len());
                for chunk in &chunks {
                    match sp.write(executor, chunk) {
                        Some(slot) => buckets.push(BucketStore::Spilled(slot)),
                        None => {
                            // No codec for T: out-of-core is impossible for
                            // this payload, surface the memory failure.
                            self.metrics.memory_kills.inc();
                            return Err(SparkletError::MemoryExceeded {
                                requested: resident_now.saturating_add(bytes) as usize,
                                budget: capacity as usize,
                            });
                        }
                    }
                }
                spilled_buckets = buckets.len() as u64;
                MapOutput {
                    executor,
                    buckets,
                    resident_bytes: 0,
                }
            };
            let resident_bytes = output.resident_bytes;
            entry.outputs[map_task] = Some(output);
            if resident_bytes > 0 {
                *s.resident.entry(executor).or_insert(0) += resident_bytes;
                if let Some(sp) = self.spill.as_ref() {
                    sp.add_resident(executor, resident_bytes);
                }
            }
        }
        if spilled_buckets > 0 {
            self.metrics.buckets_spilled.add(spilled_buckets);
        }
        self.metrics.shuffle_records_written.add(records);
        self.metrics.shuffle_bytes_written.add(bytes);
        Ok(true)
    }

    /// Release a dropped output's resident bytes from its owner's pool.
    fn release_output(&self, resident: &mut HashMap<usize, u64>, output: &MapOutput) {
        if output.resident_bytes == 0 {
            return;
        }
        if let Some(r) = resident.get_mut(&output.executor) {
            *r = r.saturating_sub(output.resident_bytes);
        }
        if let Some(sp) = self.spill.as_ref() {
            sp.sub_resident(output.executor, output.resident_bytes);
        }
    }

    /// Mark a shuffle complete. Only takes effect once every map output is
    /// present; returns whether the shuffle is complete afterwards.
    pub(crate) fn mark_complete(&self, shuffle_id: u64) -> bool {
        let mut s = self.store.lock();
        match s.shuffles.get_mut(&shuffle_id) {
            Some(data) => {
                data.complete = data.outputs.iter().all(Option::is_some);
                data.complete
            }
            None => false,
        }
    }

    /// Discard a shuffle entirely (used before a map stage re-materialises
    /// from scratch) so retries do not duplicate records.
    pub(crate) fn discard(&self, shuffle_id: u64) {
        let mut s = self.store.lock();
        if let Some(data) = s.shuffles.remove(&shuffle_id) {
            let mut resident = std::mem::take(&mut s.resident);
            for output in data.outputs.iter().flatten() {
                self.release_output(&mut resident, output);
            }
            s.resident = resident;
        }
    }

    /// Drop every map output produced by `executor` — the shuffle half of
    /// an executor kill. Affected shuffles flip back to incomplete so
    /// readers surface [`SparkletError::FetchFailed`] until the scheduler
    /// recomputes the missing maps.
    pub(crate) fn invalidate_executor(&self, executor: usize) {
        let mut s = self.store.lock();
        let mut resident = std::mem::take(&mut s.resident);
        for data in s.shuffles.values_mut() {
            for slot in data.outputs.iter_mut() {
                if slot.as_ref().is_some_and(|o| o.executor == executor) {
                    if let Some(output) = slot.take() {
                        self.release_output(&mut resident, &output);
                    }
                    data.complete = false;
                }
            }
        }
        s.resident = resident;
    }

    /// Map tasks of `shuffle_id` whose outputs are missing, or `None` if
    /// the shuffle is not registered at all.
    pub(crate) fn missing_maps(&self, shuffle_id: u64) -> Option<Vec<usize>> {
        self.store.lock().shuffles.get(&shuffle_id).map(|data| {
            data.outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_none())
                .map(|(m, _)| m)
                .collect()
        })
    }

    /// Fetch reduce bucket `r`: the concatenation of that bucket across all
    /// map outputs, in map-task order. Spilled buckets are read back from
    /// their owner's spill file transparently. Errors with
    /// [`SparkletError::FetchFailed`] when the shuffle is unknown,
    /// incomplete, any map output is gone, or a spilled bucket's file died
    /// with its executor — the recoverable conditions the scheduler answers
    /// with lineage recomputation. A bucket index out of range or a type
    /// mismatch is a caller bug and still panics.
    pub(crate) fn read_bucket<T: Clone + Send + Sync + 'static>(
        &self,
        shuffle_id: u64,
        r: usize,
    ) -> Result<Vec<T>> {
        let fetch_failed = SparkletError::FetchFailed {
            shuffle: shuffle_id,
            bucket: r,
        };
        // (map task, resident chunk or spill slot) per map output.
        enum Fetched {
            Resident(Bucket),
            Spilled(usize, SpillSlot),
        }
        let chunks: Vec<Fetched> = {
            let s = self.store.lock();
            let data = s
                .shuffles
                .get(&shuffle_id)
                .ok_or_else(|| fetch_failed.clone())?;
            if !data.complete {
                return Err(fetch_failed);
            }
            assert!(r < data.num_reduce, "bucket {r} out of range");
            let mut chunks = Vec::with_capacity(data.outputs.len());
            for (m, output) in data.outputs.iter().enumerate() {
                let output = output.as_ref().ok_or_else(|| fetch_failed.clone())?;
                chunks.push(match &output.buckets[r] {
                    BucketStore::Resident(b) => Fetched::Resident(b.clone()),
                    BucketStore::Spilled(slot) => Fetched::Spilled(m, slot.clone()),
                });
            }
            chunks
        };
        // Downcast first, then concatenate into exactly-sized storage: one
        // allocation for the whole bucket, no doubling during the copy.
        let mut typed: Vec<Arc<Vec<T>>> = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let arc = match chunk {
                Fetched::Resident(b) => b,
                Fetched::Spilled(m, slot) => {
                    let sp = self.spill.as_ref().expect("spilled bucket implies spill");
                    match sp.read(&slot) {
                        Some(any) => any,
                        None => {
                            // The spill file died with its executor (or the
                            // bytes no longer decode): drop the map output
                            // so recovery recomputes exactly this parent.
                            let mut s = self.store.lock();
                            if let Some(data) = s.shuffles.get_mut(&shuffle_id) {
                                if let Some(out) = data.outputs.get_mut(m) {
                                    *out = None;
                                }
                                data.complete = false;
                            }
                            return Err(fetch_failed);
                        }
                    }
                }
            };
            typed.push(
                arc.downcast::<Vec<T>>()
                    .expect("shuffle bucket type mismatch"),
            );
        }
        let total: usize = typed.iter().map(|c| c.len()).sum();
        let mut out = Vec::with_capacity(total);
        for chunk in typed {
            out.extend_from_slice(&chunk);
        }
        self.metrics.shuffle_records_read.add(out.len() as u64);
        Ok(out)
    }

    /// Number of registered shuffles (diagnostics).
    pub fn shuffle_count(&self) -> usize {
        self.store.lock().shuffles.len()
    }

    /// Resident shuffle bytes currently held for `executor`.
    pub fn resident_bytes(&self, executor: usize) -> u64 {
        self.store
            .lock()
            .resident
            .get(&executor)
            .copied()
            .unwrap_or(0)
    }

    /// Drop all shuffle data (between experiments).
    pub(crate) fn clear(&self) {
        let mut s = self.store.lock();
        if let Some(sp) = self.spill.as_ref() {
            for (&e, &bytes) in s.resident.iter() {
                sp.sub_resident(e, bytes);
            }
        }
        s.shuffles.clear();
        s.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_concatenates_in_map_order() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        // Two map tasks, two reduce partitions — written out of order.
        svc.write_map_output(7, 1, 2, 2, 0, vec![vec![4u32], vec![5, 6]], 12)
            .unwrap();
        svc.write_map_output(7, 0, 2, 2, 1, vec![vec![1u32, 2], vec![3]], 12)
            .unwrap();
        assert!(svc.mark_complete(7));
        let r0: Vec<u32> = svc.read_bucket(7, 0).unwrap();
        assert_eq!(r0, vec![1, 2, 4], "map-task order, not write order");
        let r1: Vec<u32> = svc.read_bucket(7, 1).unwrap();
        assert_eq!(r1, vec![3, 5, 6]);
    }

    #[test]
    fn duplicate_map_output_is_kept_first() {
        let metrics = ClusterMetrics::new();
        let svc = ShuffleService::new(metrics.clone());
        assert!(svc
            .write_map_output(1, 0, 1, 1, 0, vec![vec![1u8]], 1)
            .unwrap());
        assert!(
            !svc.write_map_output(1, 0, 1, 1, 1, vec![vec![9u8]], 1)
                .unwrap(),
            "duplicate write ignored"
        );
        svc.mark_complete(1);
        let got: Vec<u8> = svc.read_bucket(1, 0).unwrap();
        assert_eq!(got, vec![1]);
        assert_eq!(
            metrics.shuffle_records_written.get(),
            1,
            "discarded duplicate not counted"
        );
    }

    #[test]
    fn metrics_track_volume() {
        let metrics = ClusterMetrics::new();
        let svc = ShuffleService::new(metrics.clone());
        svc.write_map_output(1, 0, 1, 1, 0, vec![vec![1u8, 2, 3]], 3)
            .unwrap();
        svc.mark_complete(1);
        assert_eq!(metrics.shuffle_records_written.get(), 3);
        assert_eq!(metrics.shuffle_bytes_written.get(), 3);
        let _: Vec<u8> = svc.read_bucket(1, 0).unwrap();
        assert_eq!(metrics.shuffle_records_read.get(), 3);
    }

    #[test]
    fn reading_unknown_shuffle_is_a_fetch_failure() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        let err = svc.read_bucket::<u8>(99, 0).unwrap_err();
        assert_eq!(
            err,
            SparkletError::FetchFailed {
                shuffle: 99,
                bucket: 0
            }
        );
    }

    #[test]
    fn reading_incomplete_shuffle_is_a_fetch_failure() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        svc.write_map_output(1, 0, 2, 1, 0, vec![vec![1u8]], 1)
            .unwrap();
        assert!(!svc.mark_complete(1), "a map output is still missing");
        let err = svc.read_bucket::<u8>(1, 0).unwrap_err();
        assert!(matches!(err, SparkletError::FetchFailed { shuffle: 1, .. }));
    }

    #[test]
    fn invalidate_executor_loses_its_outputs_only() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        svc.write_map_output(5, 0, 2, 1, 0, vec![vec![1u8]], 1)
            .unwrap();
        svc.write_map_output(5, 1, 2, 1, 1, vec![vec![2u8]], 1)
            .unwrap();
        assert!(svc.mark_complete(5));
        svc.invalidate_executor(1);
        assert!(!svc.is_complete(5), "loss flips the shuffle incomplete");
        assert_eq!(svc.missing_maps(5), Some(vec![1]));
        let err = svc.read_bucket::<u8>(5, 0).unwrap_err();
        assert!(matches!(err, SparkletError::FetchFailed { .. }));
        // Recompute the missing map (possibly on another executor) and the
        // shuffle becomes readable again with identical content ordering.
        svc.write_map_output(5, 1, 2, 1, 0, vec![vec![2u8]], 1)
            .unwrap();
        assert!(svc.mark_complete(5));
        assert_eq!(svc.read_bucket::<u8>(5, 0).unwrap(), vec![1, 2]);
    }

    #[test]
    fn missing_maps_of_unknown_shuffle_is_none() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        assert_eq!(svc.missing_maps(42), None);
        svc.invalidate_executor(3);
        assert_eq!(svc.missing_maps(42), None, "a kill registers nothing");
    }

    #[test]
    fn discard_allows_clean_rerun() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        svc.write_map_output(1, 0, 1, 1, 0, vec![vec![1u8]], 1)
            .unwrap();
        svc.discard(1);
        svc.write_map_output(1, 0, 1, 1, 0, vec![vec![2u8]], 1)
            .unwrap();
        svc.mark_complete(1);
        let got: Vec<u8> = svc.read_bucket(1, 0).unwrap();
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn read_bucket_allocates_exactly() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        svc.write_map_output(9, 0, 3, 1, 0, vec![(0..100u32).collect::<Vec<_>>()], 400)
            .unwrap();
        svc.write_map_output(9, 1, 3, 1, 0, vec![(100..137u32).collect::<Vec<_>>()], 148)
            .unwrap();
        svc.write_map_output(9, 2, 3, 1, 0, vec![Vec::<u32>::new()], 0)
            .unwrap();
        assert!(svc.mark_complete(9));
        let got: Vec<u32> = svc.read_bucket(9, 0).unwrap();
        assert_eq!(got, (0..137).collect::<Vec<u32>>());
        assert_eq!(got.capacity(), got.len(), "concat must not over-allocate");
    }

    #[test]
    fn empty_buckets_read_as_empty() {
        let svc = ShuffleService::new(ClusterMetrics::new());
        svc.write_map_output(3, 0, 1, 2, 0, vec![vec![], Vec::<u64>::new()], 0)
            .unwrap();
        svc.mark_complete(3);
        let got: Vec<u64> = svc.read_bucket(3, 1).unwrap();
        assert!(got.is_empty());
    }

    fn spilling_svc(cap: usize) -> (ShuffleService, ClusterMetrics, SpillManager) {
        let metrics = ClusterMetrics::new();
        let spill = SpillManager::new(2, cap, metrics.clone());
        let svc = ShuffleService::new(metrics.clone()).with_spill(spill.clone());
        (svc, metrics, spill)
    }

    #[test]
    fn over_cap_writes_spill_buckets_and_read_back_matches() {
        // Cap 64 B; each map output is 800 B of u64s, so both writes go
        // over the pool and spill. Content must round-trip in map-task
        // order regardless of tier.
        let (svc, metrics, _spill) = spilling_svc(64);
        let a: Vec<u64> = (0..50).collect();
        let b: Vec<u64> = (50..100).collect();
        svc.write_map_output(1, 0, 2, 2, 0, vec![a.clone(), b.clone()], 800)
            .unwrap();
        svc.write_map_output(1, 1, 2, 2, 1, vec![b.clone(), a.clone()], 800)
            .unwrap();
        assert!(svc.mark_complete(1));
        assert_eq!(metrics.buckets_spilled.get(), 4);
        assert!(metrics.spill_bytes_written.get() > 0);
        let r0: Vec<u64> = svc.read_bucket(1, 0).unwrap();
        let r1: Vec<u64> = svc.read_bucket(1, 1).unwrap();
        let mut want0 = a.clone();
        want0.extend(&b);
        let mut want1 = b.clone();
        want1.extend(&a);
        assert_eq!(r0, want0);
        assert_eq!(r1, want1);
        assert!(metrics.spill_bytes_read.get() > 0, "read back from disk");
        assert_eq!(svc.resident_bytes(0), 0, "spilled outputs hold no memory");
    }

    #[test]
    fn under_cap_writes_stay_resident() {
        let (svc, metrics, _spill) = spilling_svc(1024);
        svc.write_map_output(1, 0, 1, 1, 0, vec![vec![1u64, 2, 3]], 24)
            .unwrap();
        assert_eq!(svc.resident_bytes(0), 24);
        assert_eq!(metrics.buckets_spilled.get(), 0);
        svc.mark_complete(1);
        let got: Vec<u64> = svc.read_bucket(1, 0).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(metrics.spill_bytes_read.get(), 0, "never touched disk");
        svc.discard(1);
        assert_eq!(svc.resident_bytes(0), 0, "discard releases the pool");
    }

    #[test]
    fn over_cap_without_codec_is_memory_exceeded() {
        // String has no default codec: out-of-core is impossible, the write
        // must fail rather than silently dropping data.
        let (svc, metrics, _spill) = spilling_svc(4);
        let err = svc
            .write_map_output(1, 0, 1, 1, 0, vec![vec!["x".to_string(); 64]], 1024)
            .unwrap_err();
        assert!(matches!(err, SparkletError::MemoryExceeded { .. }));
        assert_eq!(metrics.memory_kills.get(), 1);
        assert_eq!(svc.missing_maps(1), Some(vec![0]), "nothing registered");
    }

    #[test]
    fn dead_spill_file_surfaces_fetch_failed_and_marks_map_missing() {
        let (svc, _metrics, spill) = spilling_svc(8);
        svc.write_map_output(1, 0, 1, 1, 0, vec![vec![7u64; 32]], 256)
            .unwrap();
        assert!(svc.mark_complete(1));
        // The executor dies: its spill file (and the slots into it) go away.
        spill.invalidate_executor(0);
        let err = svc.read_bucket::<u64>(1, 0).unwrap_err();
        assert!(matches!(err, SparkletError::FetchFailed { .. }));
        assert!(!svc.is_complete(1), "loss flips the shuffle incomplete");
        assert_eq!(
            svc.missing_maps(1),
            Some(vec![0]),
            "exactly the dead map recomputes from lineage"
        );
    }

    #[test]
    fn invalidate_executor_releases_resident_bytes() {
        let (svc, _metrics, _spill) = spilling_svc(4096);
        svc.write_map_output(1, 0, 2, 1, 0, vec![vec![1u8; 100]], 100)
            .unwrap();
        svc.write_map_output(1, 1, 2, 1, 1, vec![vec![2u8; 50]], 50)
            .unwrap();
        assert_eq!(svc.resident_bytes(0), 100);
        assert_eq!(svc.resident_bytes(1), 50);
        svc.invalidate_executor(0);
        assert_eq!(svc.resident_bytes(0), 0);
        assert_eq!(svc.resident_bytes(1), 50, "survivor unaffected");
        svc.clear();
        assert_eq!(svc.resident_bytes(1), 0);
    }
}
