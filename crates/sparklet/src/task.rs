//! Task execution context and per-task cost accounting.

use crate::config::CostModelConfig;
use crate::error::{Result, SparkletError};
use crate::metrics::{ClusterMetrics, Counter};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Execution context handed to every task attempt.
///
/// Carries identity (stage / task / attempt / executor), the cluster metrics
/// registry, and the per-attempt virtual-cost accumulators. Engine code
/// that is handed no context (the spill tier's cost charging) reaches the
/// currently running task's through `with_current`, the way Spark code
/// reaches `TaskContext.get()`.
pub struct TaskContext {
    inner: Arc<TaskCtxInner>,
}

pub(crate) struct TaskCtxInner {
    pub stage: String,
    pub task: usize,
    pub attempt: u32,
    pub executor: usize,
    pub metrics: ClusterMetrics,
    pub cost: CostModelConfig,
    /// Operations charged by domain code this attempt.
    pub ops: AtomicU64,
    /// Records emitted by this attempt.
    pub records_out: AtomicU64,
    /// Chunks dispatched through the batch path by this attempt.
    pub chunks: AtomicU64,
    /// Shuffle bytes read/written by this attempt.
    pub shuffle_bytes: AtomicU64,
    /// Bytes this attempt serialized to spill files.
    pub spill_bytes_written: AtomicU64,
    /// Bytes this attempt read back from spill files.
    pub spill_bytes_read: AtomicU64,
    /// Peak resident bytes the task declared (see [`TaskContext::hold_memory`]).
    pub mem_held: AtomicUsize,
    /// Per-executor memory budget; exceeding it kills the attempt.
    pub memory_budget: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<TaskCtxInner>>> = const { RefCell::new(None) };
}

impl TaskContext {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        stage: &str,
        task: usize,
        attempt: u32,
        executor: usize,
        metrics: ClusterMetrics,
        cost: CostModelConfig,
        memory_budget: usize,
    ) -> Self {
        TaskContext {
            inner: Arc::new(TaskCtxInner {
                stage: stage.to_string(),
                task,
                attempt,
                executor,
                metrics,
                cost,
                ops: AtomicU64::new(0),
                records_out: AtomicU64::new(0),
                chunks: AtomicU64::new(0),
                shuffle_bytes: AtomicU64::new(0),
                spill_bytes_written: AtomicU64::new(0),
                spill_bytes_read: AtomicU64::new(0),
                mem_held: AtomicUsize::new(0),
                memory_budget,
            }),
        }
    }

    /// Stage name this task belongs to.
    pub fn stage(&self) -> &str {
        &self.inner.stage
    }

    /// Partition / task index within the stage.
    pub fn task(&self) -> usize {
        self.inner.task
    }

    /// Attempt number, starting at 0.
    pub fn attempt(&self) -> u32 {
        self.inner.attempt
    }

    /// Virtual executor this attempt runs on.
    pub fn executor(&self) -> usize {
        self.inner.executor
    }

    /// Charge `n` abstract operations to this attempt's virtual cost.
    pub fn charge_ops(&self, n: u64) {
        self.inner.ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` chunk dispatches to this attempt's virtual cost (one
    /// [`crate::CostModelConfig::chunk_dispatch_ns`] each). The batch
    /// operators call this once per chunk; record-level work is charged
    /// separately through `record_ns` and [`TaskContext::charge_ops`].
    pub(crate) fn add_chunks(&self, n: u64) {
        self.inner.chunks.fetch_add(n, Ordering::Relaxed);
        self.inner.metrics.chunks_executed.add(n);
    }

    /// Count the `records` a compute's chunks carried, and the `largest` of
    /// those chunks, into the report's `batch` section.
    pub(crate) fn add_chunk_records(&self, records: u64, largest: u64) {
        self.inner.metrics.chunk_records.add(records);
        self.inner.metrics.max_chunk_records.raise_to(largest);
    }

    /// Fetch (or create) a named user counter from the cluster metrics.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.metrics.counter(name)
    }

    /// Declare that the task holds `bytes` resident (e.g. a joined partition
    /// buffered for a hash join). When the cumulative held memory exceeds
    /// the executor budget the attempt fails with
    /// [`SparkletError::MemoryExceeded`] and is retried with a virtual-time
    /// penalty — modelling the swap/timeout/retry behaviour the paper
    /// reports for small cluster numbers (Fig. 8b). The number of forced
    /// failures grows with the overcommit ratio (each retry finds a bit
    /// more breathing room as caches are evicted), so overcommitted tasks
    /// eventually complete — slowly — rather than failing the job.
    pub fn hold_memory(&self, bytes: usize) -> Result<()> {
        let held = self.inner.mem_held.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if held > self.inner.memory_budget {
            let over = held as f64 / self.inner.memory_budget.max(1) as f64;
            let forced_failures = (over.ceil() as u32).min(3);
            if self.inner.attempt < forced_failures {
                self.inner.metrics.memory_kills.inc();
                return Err(SparkletError::MemoryExceeded {
                    requested: held,
                    budget: self.inner.memory_budget,
                });
            }
        }
        Ok(())
    }

    /// Release previously held memory.
    pub fn release_memory(&self, bytes: usize) {
        let _ = self
            .inner
            .mem_held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            });
    }

    pub(crate) fn add_records_out(&self, n: u64) {
        self.inner.records_out.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_shuffle_bytes(&self, n: u64) {
        self.inner.shuffle_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` bytes of spill-file write I/O to this attempt
    /// ([`crate::CostModelConfig::spill_write_ns`] each).
    pub(crate) fn add_spill_write(&self, n: u64) {
        self.inner
            .spill_bytes_written
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` bytes of spill-file read-back I/O to this attempt
    /// ([`crate::CostModelConfig::spill_read_ns`] each).
    pub(crate) fn add_spill_read(&self, n: u64) {
        self.inner.spill_bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn raw_shuffle_bytes(&self) -> u64 {
        self.inner.shuffle_bytes.load(Ordering::Relaxed)
    }

    /// Virtual duration of this attempt so far, in microseconds.
    pub(crate) fn attempt_cost_us(&self) -> u64 {
        let c = &self.inner.cost;
        c.task_launch_overhead_us
            + self.inner.ops.load(Ordering::Relaxed) * c.op_ns / 1000
            + self.inner.records_out.load(Ordering::Relaxed) * c.record_ns / 1000
            + self.inner.shuffle_bytes.load(Ordering::Relaxed) * c.shuffle_byte_ns / 1000
            + self.inner.chunks.load(Ordering::Relaxed) * c.chunk_dispatch_ns / 1000
            + self.inner.spill_bytes_written.load(Ordering::Relaxed) * c.spill_write_ns / 1000
            + self.inner.spill_bytes_read.load(Ordering::Relaxed) * c.spill_read_ns / 1000
    }

    pub(crate) fn install(&self) -> CtxGuard {
        CURRENT.with(|c| *c.borrow_mut() = Some(self.inner.clone()));
        CtxGuard
    }
}

/// RAII guard that clears the thread-local current-task pointer.
pub(crate) struct CtxGuard;

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// Run `f` with the currently executing task's context, if any.
///
/// Outside a task (driver code, tests) the argument is `None`.
pub(crate) fn with_current<R>(f: impl FnOnce(Option<&TaskContext>) -> R) -> R {
    CURRENT.with(|c| {
        let borrowed = c.borrow();
        match borrowed.as_ref() {
            Some(inner) => {
                let ctx = TaskContext {
                    inner: inner.clone(),
                };
                f(Some(&ctx))
            }
            None => f(None),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TaskContext {
        TaskContext::new(
            "test",
            0,
            0,
            0,
            ClusterMetrics::new(),
            CostModelConfig {
                task_launch_overhead_us: 10,
                op_ns: 1000,
                record_ns: 2000,
                shuffle_byte_ns: 0,
                retry_penalty_us: 0,
                coordination_us_per_executor: 0,
                morsel_dispatch_overhead_us: 0,
                chunk_dispatch_ns: 3000,
                spill_write_ns: 4000,
                spill_read_ns: 2000,
            },
            1000,
        )
    }

    #[test]
    fn cost_accumulates_ops_and_records() {
        let c = ctx();
        c.charge_ops(5);
        c.add_records_out(3);
        // 10 overhead + 5*1 + 3*2
        assert_eq!(c.attempt_cost_us(), 10 + 5 + 6);
    }

    #[test]
    fn cost_charges_one_dispatch_per_chunk() {
        let c = ctx();
        c.add_chunks(4);
        // 10 overhead + 4 chunks * 3000 ns
        assert_eq!(c.attempt_cost_us(), 10 + 12);
    }

    #[test]
    fn cost_charges_spill_io_per_byte() {
        let c = ctx();
        c.add_spill_write(500);
        c.add_spill_read(250);
        // 10 overhead + 500 * 4000 ns + 250 * 2000 ns
        assert_eq!(c.attempt_cost_us(), 10 + 2000 + 500);
    }

    #[test]
    fn memory_budget_enforced() {
        let c = ctx();
        assert!(c.hold_memory(600).is_ok());
        let err = c.hold_memory(600).unwrap_err();
        assert!(matches!(err, SparkletError::MemoryExceeded { .. }));
    }

    #[test]
    fn release_memory_allows_reuse() {
        let c = ctx();
        c.hold_memory(800).unwrap();
        c.release_memory(800);
        assert!(c.hold_memory(900).is_ok());
    }

    #[test]
    fn late_attempts_survive_memory_pressure() {
        // Same overcommit, attempt 3: the forced-failure window (max 3) has
        // passed, the task completes slowly instead of failing forever.
        let c = TaskContext::new(
            "test",
            0,
            3,
            0,
            ClusterMetrics::new(),
            CostModelConfig::default(),
            1000,
        );
        assert!(c.hold_memory(5000).is_ok());
    }

    #[test]
    fn release_memory_saturates_at_zero() {
        let c = ctx();
        c.release_memory(1_000_000);
        assert!(c.hold_memory(999).is_ok());
    }

    #[test]
    fn thread_local_install_and_clear() {
        let c = ctx();
        with_current(|cur| assert!(cur.is_none()));
        {
            let _g = c.install();
            with_current(|cur| assert_eq!(cur.unwrap().stage(), "test"));
            with_current(|cur| cur.unwrap().charge_ops(7));
        }
        with_current(|cur| assert!(cur.is_none()));
        assert_eq!(c.attempt_cost_us(), 10 + 7);
    }
}
