//! Cluster handle, worker pool and the wave-based, failure-aware scheduler.
//!
//! Scheduling is driver-authoritative: workers run exactly one task attempt
//! and report back; the driver collects a whole *wave* of outcomes, processes
//! them in task order, and only then decides retries, lineage recovery and
//! rescheduling of attempts lost with a killed executor. Pushing every
//! decision to a deterministic point on the driver is what makes a run with
//! a fault schedule reproduce the exact same failure and recovery history —
//! and, for deterministic user code, the exact same output — as a fault-free
//! run.

use crate::config::{ClusterConfig, KillWhen};
use crate::error::{Result, SparkletError};
use crate::executor::ExecutorRegistry;
use crate::hash::stable_hash;
use crate::journal::{EventKind, FailureLine, JobReport, RunJournal};
use crate::metrics::ClusterMetrics;
use crate::rdd::Rdd;
use crate::shuffle::ShuffleService;
use crate::simtime::{simulate_morsels, StageRecord, VirtualClock, VirtualDuration};
use crate::spill::SpillManager;
use crate::storage::BlockManager;
use crate::task::TaskContext;
use crate::Data;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Weak};
use std::thread;

/// What the pool's workers receive: a wake-up to help drain one wave.
type WakeUp = Arc<dyn Drain>;

/// Op-weight budget per morsel in [`Cluster::run_morsel_job`]. With the
/// default 400 ns/op cost this is ~6.5 ms of virtual compute per morsel —
/// small enough to balance skewed partitions, large enough that the
/// per-morsel dispatch overhead stays in the noise.
pub(crate) const MORSEL_OPS: u64 = 16_384;

/// Fraction of executor memory that shuffle map outputs may keep resident
/// per executor before they spill (Spark 1.x's `spark.shuffle.memoryFraction`
/// default).
const SHUFFLE_FRACTION: f64 = 0.2;

/// A lineage-recovery handler for one shuffle: re-run the given map tasks of
/// the parent stage and re-register their outputs. Owned (strongly) by the
/// shuffle's RDD node; the cluster keeps only a [`Weak`] reference so the
/// registry cannot keep lineage graphs (and through them the cluster itself)
/// alive. The node's `Drop` removes the entry together with the shuffle's
/// map outputs (see [`Cluster::release_shuffle`]).
pub(crate) type RecoveryFn = dyn Fn(&Cluster, &[usize]) -> Result<()> + Send + Sync;

/// Handle to an embedded sparklet cluster.
///
/// Cheap to clone; all clones share executors, metrics, storage and shuffle
/// state. Dropping the last clone shuts the worker threads down.
#[derive(Clone)]
pub struct Cluster {
    pub(crate) inner: Arc<ClusterInner>,
}

pub(crate) struct ClusterInner {
    pub config: ClusterConfig,
    pub metrics: ClusterMetrics,
    pub shuffles: ShuffleService,
    pub blocks: BlockManager,
    pub spill: SpillManager,
    pub clock: VirtualClock,
    pub journal: RunJournal,
    pub executors: ExecutorRegistry,
    sender: Sender<WakeUp>,
    next_rdd_id: AtomicU64,
    next_shuffle_id: AtomicU64,
    next_job_id: AtomicU64,
    /// One flag per entry of `config.fault.executor_kills`: has it fired?
    fired_kills: Mutex<Vec<bool>>,
    /// Driver-side fault points passed so far; compared against
    /// `config.fault.driver_kill` by [`Cluster::driver_fault_point`].
    driver_points: AtomicU64,
    /// Shuffle id → (map-task count, recovery handler). See [`RecoveryFn`].
    shuffle_recovery: Mutex<HashMap<u64, (usize, Weak<RecoveryFn>)>>,
}

impl Cluster {
    /// Start a cluster with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        let metrics = ClusterMetrics::new();
        let executor_storage =
            (config.memory_per_executor as f64 * BlockManager::STORAGE_FRACTION) as usize;
        let spill = SpillManager::new(
            config.num_executors,
            (config.memory_per_executor as f64 * SHUFFLE_FRACTION) as usize,
            metrics.clone(),
        );
        let (sender, receiver) = unbounded::<WakeUp>();
        for worker_id in 0..config.worker_threads() {
            let rx = receiver.clone();
            thread::Builder::new()
                .name(format!("sparklet-worker-{worker_id}"))
                .spawn(move || {
                    while let Ok(wave) = rx.recv() {
                        wave.drain();
                    }
                })
                .expect("failed to spawn worker thread");
        }
        Cluster {
            inner: Arc::new(ClusterInner {
                metrics: metrics.clone(),
                shuffles: ShuffleService::new(metrics.clone()).with_spill(spill.clone()),
                blocks: BlockManager::new(executor_storage, config.num_executors, metrics)
                    .with_spill(spill.clone()),
                spill,
                clock: VirtualClock::new(),
                journal: RunJournal::new(),
                executors: ExecutorRegistry::new(config.num_executors),
                sender,
                next_rdd_id: AtomicU64::new(0),
                next_shuffle_id: AtomicU64::new(0),
                next_job_id: AtomicU64::new(0),
                fired_kills: Mutex::new(vec![false; config.fault.executor_kills.len()]),
                driver_points: AtomicU64::new(0),
                shuffle_recovery: Mutex::new(HashMap::new()),
                config,
            }),
        }
    }

    /// Convenience: a local cluster with `parallelism` single-core executors
    /// and fault injection disabled.
    pub fn local(parallelism: usize) -> Self {
        Cluster::new(ClusterConfig::local(parallelism))
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Shared metrics registry.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.inner.metrics
    }

    /// The virtual clock accumulating stage costs.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// Block manager backing `cache()`.
    pub fn blocks(&self) -> &BlockManager {
        &self.inner.blocks
    }

    /// Shuffle service (exposed for diagnostics and tests).
    pub fn shuffles(&self) -> &ShuffleService {
        &self.inner.shuffles
    }

    /// The executor registry: liveness, incarnations and blacklist state.
    pub fn executors(&self) -> &ExecutorRegistry {
        &self.inner.executors
    }

    /// The disk tier: spill files, codec registry and the joint
    /// resident-memory accounting behind the report's `spill` section.
    pub fn spill(&self) -> &SpillManager {
        &self.inner.spill
    }

    /// The run journal: the report sections that task failures and units
    /// of service work fold into. A healthy engine run records nothing.
    pub fn journal(&self) -> &RunJournal {
        &self.inner.journal
    }

    /// Aggregate the journal, clock and metrics into an exportable
    /// [`JobReport`], rendered by [`JobReport::to_json`].
    pub fn job_report(&self) -> JobReport {
        JobReport::capture(self)
    }

    /// Virtual elapsed time of everything run so far on this cluster's own
    /// topology. The [`Cluster::clock`]'s `makespan` queries other topologies.
    pub fn virtual_elapsed(&self) -> VirtualDuration {
        self.inner.clock.makespan(
            self.inner.config.num_executors,
            self.inner.config.cores_per_executor,
            &self.inner.config.cost,
        )
    }

    /// Reset metrics, virtual clock, cache, shuffle and failure-domain state
    /// (executor health, fired kill triggers, job ids) — used between
    /// experiment configurations so measurements do not bleed. Semantically a
    /// fresh cluster on the same worker pool.
    pub fn reset_run_state(&self) {
        self.inner.metrics.reset();
        self.inner.clock.reset();
        self.inner.blocks.clear();
        self.inner.shuffles.clear();
        self.inner.spill.clear();
        self.inner.journal.clear();
        self.inner.executors.reset();
        self.inner.next_job_id.store(0, Ordering::Relaxed);
        self.inner.driver_points.store(0, Ordering::Relaxed);
        for fired in self.inner.fired_kills.lock().iter_mut() {
            *fired = false;
        }
    }

    /// Pass a driver-side fault point labelled `label`. Each call consumes
    /// one global point index (0-based, across the cluster's lifetime); if
    /// [`crate::FaultConfig::driver_kill`] arms exactly this index, the call
    /// journals an [`EventKind::DriverKilled`] and returns the fatal
    /// [`SparkletError::DriverKilled`] — callers must *not* retry it, but
    /// drop their in-memory state and recover from a durable checkpoint.
    /// Otherwise it is free and returns `Ok(())`.
    pub fn driver_fault_point(&self, label: &str) -> Result<()> {
        let point = self.inner.driver_points.fetch_add(1, Ordering::Relaxed);
        if self.inner.config.fault.driver_kill == Some(point) {
            self.inner.journal.record(EventKind::DriverKilled);
            return Err(SparkletError::DriverKilled {
                point,
                label: label.to_string(),
            });
        }
        Ok(())
    }

    /// How many driver-side fault points have been passed so far. A clean
    /// run of a service reports the sweep range for kill-point chaos tests.
    pub fn driver_points_passed(&self) -> u64 {
        self.inner.driver_points.load(Ordering::Relaxed)
    }

    /// Charge `us` of driver-side work to the virtual clock as a
    /// single-task stage named `name`. Used by driver-level services
    /// (checkpoint writes, retry backoff waits) whose cost is not incurred
    /// by any executor task.
    pub fn charge_driver_stage(&self, name: &str, us: u64) {
        self.inner.clock.record_stage(StageRecord {
            name: name.to_string(),
            task_us: vec![us],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        });
    }

    pub(crate) fn new_rdd_id(&self) -> u64 {
        self.inner.next_rdd_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn new_shuffle_id(&self) -> u64 {
        self.inner.next_shuffle_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Remember how to rebuild `shuffle_id`'s map outputs from lineage. The
    /// registry holds the handler weakly; see [`RecoveryFn`].
    pub(crate) fn register_shuffle_recovery(
        &self,
        shuffle_id: u64,
        total_maps: usize,
        handler: &Arc<RecoveryFn>,
    ) {
        self.inner
            .shuffle_recovery
            .lock()
            .insert(shuffle_id, (total_maps, Arc::downgrade(handler)));
    }

    /// Forget `shuffle_id` — its node is gone, so nothing can read its map
    /// outputs or rebuild them any more: release the outputs (memory and
    /// resident accounting) and the recovery registry's entry.
    pub(crate) fn release_shuffle(&self, shuffle_id: u64) {
        self.inner.shuffles.discard(shuffle_id);
        self.inner.shuffle_recovery.lock().remove(&shuffle_id);
    }

    /// Rebuild the missing map outputs of `shuffle_id` from lineage, if a
    /// recovery handler is registered and still alive. Returns whether the
    /// shuffle is complete again afterwards; on `false` the readers' retries
    /// exhaust naturally (there is nothing else to do).
    pub(crate) fn recover_shuffle(&self, shuffle_id: u64) -> bool {
        if self.inner.shuffles.is_complete(shuffle_id) {
            return true;
        }
        let entry = self.inner.shuffle_recovery.lock().get(&shuffle_id).cloned();
        let Some((total_maps, weak)) = entry else {
            return false;
        };
        let Some(handler) = weak.upgrade() else {
            return false;
        };
        let missing = self
            .inner
            .shuffles
            .missing_maps(shuffle_id)
            .unwrap_or_else(|| (0..total_maps).collect());
        if missing.is_empty() {
            return self.inner.shuffles.mark_complete(shuffle_id);
        }
        match handler(self, &missing) {
            Ok(()) => {
                self.inner
                    .metrics
                    .recomputed_tasks
                    .add(missing.len() as u64);
                self.inner.shuffles.mark_complete(shuffle_id)
            }
            Err(_) => false,
        }
    }

    /// Kill `executor` now: evict its cached blocks, invalidate its shuffle
    /// map outputs, and either restart it with a new incarnation or
    /// blacklist it (see [`crate::FaultConfig::max_executor_failures`]).
    /// No-op if the executor is unknown or already blacklisted.
    pub(crate) fn kill_executor(&self, executor: usize) {
        let max = self.inner.config.fault.max_executor_failures;
        let Some(blacklisted) = self.inner.executors.kill(executor, max) else {
            return;
        };
        self.inner.blocks.evict_executor(executor);
        self.inner.shuffles.invalidate_executor(executor);
        // The disk tier is executor-local: its spill file dies with the
        // node, orphaning every slot written under the old incarnation.
        self.inner.spill.invalidate_executor(executor);
        self.inner.metrics.executors_lost.inc();
        if blacklisted {
            self.inner.metrics.executors_blacklisted.inc();
        }
    }

    /// Fire any scheduled kills due at this point: `AtVirtualTime` triggers
    /// at stage start (`completions == 0`) once the clock's total work has
    /// reached their threshold, `InStage` triggers when the named stage has
    /// seen exactly `after_completions` completed tasks.
    fn process_kill_triggers(&self, stage: &str, completions: usize) {
        if self.inner.config.fault.executor_kills.is_empty() {
            return;
        }
        let mut to_fire = Vec::new();
        {
            let mut fired = self.inner.fired_kills.lock();
            for (i, kill) in self.inner.config.fault.executor_kills.iter().enumerate() {
                if fired[i] {
                    continue;
                }
                let due = match &kill.when {
                    KillWhen::AtVirtualTime { us } => {
                        completions == 0 && self.inner.clock.total_work().us >= *us
                    }
                    KillWhen::InStage {
                        name,
                        after_completions,
                    } => name == stage && *after_completions == completions,
                };
                if due {
                    fired[i] = true;
                    to_fire.push(kill.executor);
                }
            }
        }
        for executor in to_fire {
            self.kill_executor(executor);
        }
    }

    /// Distribute `data` over `num_partitions` as an [`Rdd`].
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        Rdd::from_collection(self.clone(), data, num_partitions.max(1))
    }

    /// Run one stage: `f(partition_index, ctx)` for each of `num_tasks`
    /// partitions, with deterministic fault injection, per-task retries,
    /// executor-failure recovery and virtual-cost recording. Returns the
    /// per-partition outputs in order.
    ///
    /// Must be called from driver code (never from inside a task) — shuffle
    /// dependencies are materialised driver-side before dependent stages run,
    /// which is what makes the fixed worker pool deadlock-free.
    pub fn run_job<T, F>(&self, stage: &str, num_tasks: usize, f: F) -> Result<Vec<Vec<T>>>
    where
        T: Data,
        F: Fn(usize, &TaskContext) -> Result<Vec<T>> + Send + Sync + 'static,
    {
        self.run_job_inner(stage, num_tasks, f, None)
    }

    /// Run one stage morsel-driven: each of `partitions` is cut into
    /// contiguous *morsels* whose summed `weight` stays at or under a fixed
    /// budget of 16 384 ops, and `f(partition, slice, ctx)` runs once per
    /// morsel. Virtual placement is owner-queues plus work stealing (see
    /// `simulate_morsels`); the first morsel of a partition pays the full
    /// task launch overhead, follow-ups only
    /// [`crate::CostModelConfig::morsel_dispatch_overhead_us`], so an
    /// unsplit stage costs exactly what [`Cluster::run_job`] charges.
    ///
    /// Results are reassembled in (partition, morsel-index) order, so the
    /// returned per-partition outputs are bit-identical regardless of worker
    /// count or steal interleaving — for deterministic `f`, `run_morsel_job`
    /// and whole-partition execution agree byte-for-byte.
    pub fn run_morsel_job<T, U, W, F>(
        &self,
        stage: &str,
        partitions: Vec<Vec<T>>,
        weight: W,
        f: F,
    ) -> Result<Vec<Vec<U>>>
    where
        T: Send + Sync + 'static,
        U: Data,
        W: Fn(&T) -> u64,
        F: Fn(usize, &[T], &TaskContext) -> Result<Vec<U>> + Send + Sync + 'static,
    {
        let cost = &self.inner.config.cost;
        let ranges = cut_morsels(&partitions, weight, MORSEL_OPS);
        let mut partition_of = Vec::with_capacity(ranges.len());
        let mut overhead_of = Vec::with_capacity(ranges.len());
        for (m, &(p, ..)) in ranges.iter().enumerate() {
            partition_of.push(p);
            let first_of_partition = m == 0 || ranges[m - 1].0 != p;
            overhead_of.push(if first_of_partition {
                cost.task_launch_overhead_us
            } else {
                cost.morsel_dispatch_overhead_us
            });
        }
        let meta = MorselMeta {
            partition_of,
            overhead_of,
        };
        let num_partitions = partitions.len();
        let data = Arc::new(partitions);
        let ranges = Arc::new(ranges);
        let body = {
            let data = data.clone();
            let ranges = ranges.clone();
            move |task: usize, ctx: &TaskContext| {
                let (p, start, end) = ranges[task];
                f(p, &data[p][start..end], ctx)
            }
        };
        let morsel_results = self.run_job_inner(stage, ranges.len(), body, Some(meta))?;
        let mut out: Vec<Vec<U>> = (0..num_partitions).map(|_| Vec::new()).collect();
        for (chunk, &(p, ..)) in morsel_results.into_iter().zip(ranges.iter()) {
            out[p].extend(chunk);
        }
        Ok(out)
    }

    fn run_job_inner<T, F>(
        &self,
        stage: &str,
        num_tasks: usize,
        f: F,
        morsel: Option<MorselMeta>,
    ) -> Result<Vec<Vec<T>>>
    where
        T: Data,
        F: Fn(usize, &TaskContext) -> Result<Vec<T>> + Send + Sync + 'static,
    {
        let job_id = self.inner.next_job_id.fetch_add(1, Ordering::Relaxed);
        let max_attempts = self.inner.config.max_task_attempts.max(1);
        let penalty = self.inner.config.cost.retry_penalty_us;
        self.inner.metrics.jobs_submitted.inc();
        let f = Arc::new(f);
        let (morsel_info, overheads) = match morsel {
            Some(m) => (Some(m.partition_of), m.overhead_of),
            None => (
                None,
                vec![self.inner.config.cost.task_launch_overhead_us; num_tasks],
            ),
        };

        let mut results: Vec<Option<Vec<T>>> = (0..num_tasks).map(|_| None).collect();
        let mut exhausted: Vec<Option<SparkletError>> = (0..num_tasks).map(|_| None).collect();
        let mut attempts_used = vec![0u32; num_tasks];
        let mut task_us = vec![0u64; num_tasks];
        let mut shuffle_bytes = 0u64;
        let mut retries = 0u64;
        let mut completions = 0usize;

        self.process_kill_triggers(stage, completions);

        // Wave loop: submit all runnable attempts, collect every outcome,
        // then decide — in task order — what each outcome means. Recovery
        // and retries feed the next wave.
        let mut pending: Vec<(usize, u32)> = (0..num_tasks).map(|t| (t, 0)).collect();
        while !pending.is_empty() {
            let mut wave = Vec::with_capacity(pending.len());
            for &(task, attempt) in &pending {
                match self.inner.executors.place(task, attempt) {
                    Some((executor, incarnation)) => wave.push(Placed {
                        task,
                        attempt,
                        executor,
                        incarnation,
                        overhead_us: overheads[task],
                    }),
                    None => {
                        self.finish_stage(stage, task_us, shuffle_bytes, retries, morsel_info);
                        return Err(SparkletError::NoHealthyExecutors {
                            stage: stage.to_string(),
                        });
                    }
                }
            }
            pending.clear();
            let mut outcomes = self.run_wave(stage, job_id, wave, &f);
            outcomes.sort_by_key(|o| (o.task, o.attempt));
            let mut failed_shuffles: Vec<u64> = Vec::new();
            for outcome in outcomes {
                // An attempt placed on an incarnation that has since died
                // is lost, not failed: its result is discarded and the task
                // rescheduled on a survivor with the same attempt number.
                if !self
                    .inner
                    .executors
                    .is_current(outcome.executor, outcome.incarnation)
                {
                    self.inner.metrics.tasks_lost.inc();
                    task_us[outcome.task] += outcome.virtual_us;
                    shuffle_bytes += outcome.shuffle_bytes;
                    pending.push((outcome.task, outcome.attempt));
                    continue;
                }
                attempts_used[outcome.task] = attempts_used[outcome.task].max(outcome.attempt + 1);
                task_us[outcome.task] += outcome.virtual_us;
                shuffle_bytes += outcome.shuffle_bytes;
                match outcome.result {
                    Ok(data) => {
                        self.inner.metrics.tasks_succeeded.inc();
                        results[outcome.task] = Some(data);
                        completions += 1;
                        self.process_kill_triggers(stage, completions);
                    }
                    Err(e) => {
                        self.inner.metrics.tasks_failed.inc();
                        if let SparkletError::FetchFailed { shuffle, .. } = &e {
                            self.inner.metrics.fetch_failures.inc();
                            failed_shuffles.push(*shuffle);
                        }
                        self.inner
                            .journal
                            .record(EventKind::TaskFailed(FailureLine {
                                stage: stage.to_string(),
                                task: outcome.task,
                                attempt: outcome.attempt,
                                reason: e.to_string(),
                            }));
                        retries += 1;
                        if outcome.attempt + 1 < max_attempts {
                            // The reschedule delay is only paid when a retry
                            // actually follows; a final failed attempt ends
                            // the task there and then.
                            task_us[outcome.task] += penalty;
                            pending.push((outcome.task, outcome.attempt + 1));
                        } else {
                            exhausted[outcome.task] = Some(e);
                        }
                    }
                }
            }
            // Lineage recovery: rebuild every shuffle that failed a fetch
            // this wave before its readers retry in the next one.
            failed_shuffles.sort_unstable();
            failed_shuffles.dedup();
            for shuffle_id in failed_shuffles {
                self.recover_shuffle(shuffle_id);
            }
        }

        let first_error = exhausted
            .iter_mut()
            .enumerate()
            .find_map(|(task, e)| e.take().map(|e| (task, e)));
        if let Some((task, e)) = first_error {
            self.finish_stage(stage, task_us, shuffle_bytes, retries, morsel_info);
            return Err(SparkletError::TaskFailed {
                stage: stage.to_string(),
                task,
                attempts: attempts_used[task],
                reason: e.to_string(),
            });
        }

        self.finish_stage(stage, task_us, shuffle_bytes, retries, morsel_info);
        Ok(results
            .into_iter()
            .map(|r| r.expect("missing task result"))
            .collect())
    }

    /// Run one wave of placed attempts and hand back every outcome (no
    /// decisions are made here). The wave is one shared [`Wave`]: the driver
    /// wakes at most one worker per attempt beyond the one it will run
    /// itself, then claims attempts off the wave's cursor beside them, and
    /// sleeps only if a worker still holds an attempt once the cursor is
    /// spent. A single attempt wakes nobody and runs here.
    fn run_wave<T, F>(
        &self,
        stage: &str,
        job_id: u64,
        attempts: Vec<Placed>,
        f: &Arc<F>,
    ) -> Vec<AttemptOutcome<T>>
    where
        T: Data,
        F: Fn(usize, &TaskContext) -> Result<Vec<T>> + Send + Sync + 'static,
    {
        let n = attempts.len();
        let wave = Arc::new(Wave {
            inner: self.inner.clone(),
            stage: stage.to_string(),
            job_id,
            f: RwLock::new(Some(f.clone())),
            cursor: AtomicUsize::new(0),
            outcomes: std::sync::Mutex::new(Vec::with_capacity(n)),
            complete: Condvar::new(),
            attempts,
        });
        let helpers = n.saturating_sub(1).min(self.inner.config.worker_threads());
        for _ in 0..helpers {
            self.inner
                .sender
                .send(wave.clone())
                .expect("worker pool unavailable");
        }
        wave.drain();
        let mut filed = wave.outcomes.lock().expect(OUTCOMES_POISONED);
        while filed.len() < n {
            filed = wave.complete.wait(filed).expect(OUTCOMES_POISONED);
        }
        std::mem::take(&mut *filed)
    }

    /// Close a stage out: record its cost on the clock. Morsel stages also
    /// replay the steal schedule once, to fold it into the report's `sched`
    /// section.
    fn finish_stage(
        &self,
        stage: &str,
        task_us: Vec<u64>,
        shuffle_bytes: u64,
        retries: u64,
        morsels: Option<Vec<usize>>,
    ) {
        if let Some(partition_of) = &morsels {
            let sim = simulate_morsels(&task_us, partition_of, self.inner.config.total_slots());
            self.inner.journal.fold_sched(&sim);
        }
        self.inner.clock.record_stage(StageRecord {
            name: stage.to_string(),
            task_us,
            shuffle_bytes,
            retries,
            morsels,
        });
    }
}

/// Driver-side metadata of a morsel stage: the home partition and launch
/// overhead of every morsel. Built by [`Cluster::run_morsel_job`], consumed
/// by the scheduler core.
struct MorselMeta {
    partition_of: Vec<usize>,
    overhead_of: Vec<u64>,
}

/// Cut each partition into contiguous morsels `(partition, start, end)` whose
/// summed `weight` stays at or under `budget` (a single item heavier than the
/// budget is its own morsel). Every partition emits at least one morsel, even
/// an empty one, so the job's output keeps one entry per input partition.
fn cut_morsels<T>(
    partitions: &[Vec<T>],
    weight: impl Fn(&T) -> u64,
    budget: u64,
) -> Vec<(usize, usize, usize)> {
    let mut ranges = Vec::new();
    for (p, part) in partitions.iter().enumerate() {
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, item) in part.iter().enumerate() {
            let w = weight(item);
            if i > start && acc.saturating_add(w) > budget {
                ranges.push((p, start, i));
                start = i;
                acc = 0;
            }
            acc = acc.saturating_add(w);
        }
        ranges.push((p, start, part.len()));
    }
    ranges
}

/// One attempt of a wave, as the driver placed it.
#[derive(Clone, Copy)]
struct Placed {
    task: usize,
    attempt: u32,
    executor: usize,
    incarnation: u32,
    /// Launch overhead this attempt pays: morsels after the first of a
    /// partition pay dispatch, not full launch.
    overhead_us: u64,
}

struct AttemptOutcome<T> {
    task: usize,
    attempt: u32,
    executor: usize,
    incarnation: u32,
    result: Result<Vec<T>>,
    virtual_us: u64,
    shuffle_bytes: u64,
}

/// The only way the outcome lock poisons is a panic between its `lock` and
/// the `push` under it — an allocation failure.
const OUTCOMES_POISONED: &str = "a thread panicked while filing a task outcome";

/// A wave as the threads that run it see it; type-erased so one pool serves
/// every job's task and output types.
trait Drain: Send + Sync {
    /// Claim and run attempts until none is left unclaimed.
    fn drain(&self);
}

/// One wave of a stage: everything the driver and the workers it woke need
/// to run the wave's attempts between them, in whatever order they get to
/// them. Which thread runs an attempt is not recorded anywhere — virtual
/// placement was fixed by the driver in [`Placed`] — so the outcomes, once
/// sorted, do not depend on it.
struct Wave<T, F> {
    inner: Arc<ClusterInner>,
    stage: String,
    job_id: u64,
    attempts: Vec<Placed>,
    /// The task closure, until the wave's last attempt has run: whoever
    /// files the last outcome takes the closure (and through it the
    /// lineage) out *before* filing it. Once the driver has every outcome
    /// the caller's handles are the only ones left — so a cached node
    /// dropped after the job evicts its blocks there and then — even while
    /// a wake-up nobody needed still holds the wave in the pool's queue.
    f: RwLock<Option<Arc<F>>>,
    /// Next unclaimed index into `attempts`. `Relaxed`: the index publishes
    /// nothing — every field a claimant reads was written before the wave
    /// was shared.
    cursor: AtomicUsize,
    outcomes: std::sync::Mutex<Vec<AttemptOutcome<T>>>,
    /// Signalled once, by the thread that files the last outcome.
    complete: Condvar,
}

impl<T, F> Drain for Wave<T, F>
where
    T: Data,
    F: Fn(usize, &TaskContext) -> Result<Vec<T>> + Send + Sync + 'static,
{
    fn drain(&self) {
        let n = self.attempts.len();
        loop {
            let claimed = self.cursor.fetch_add(1, Ordering::Relaxed);
            if claimed >= n {
                return;
            }
            let outcome = {
                let f = self.f.read();
                let f = f
                    .as_ref()
                    .expect("the task closure stays until the last attempt has run");
                run_one_attempt(self, &self.attempts[claimed], f)
            };
            let mut filed = self.outcomes.lock().expect(OUTCOMES_POISONED);
            if filed.len() + 1 == n {
                // Every other attempt has filed, and let go of its read
                // guard before it did.
                *self.f.write() = None;
            }
            filed.push(outcome);
            if filed.len() == n {
                self.complete.notify_one();
            }
        }
    }
}

/// Run exactly one attempt, on whichever thread claimed it, and report what
/// happened. All retry/recovery decisions belong to the driver. A task that
/// panics is a failed attempt like any other — the thread survives it, and
/// the driver is never left waiting for an outcome that will not come.
fn run_one_attempt<T, F>(wave: &Wave<T, F>, placed: &Placed, f: &F) -> AttemptOutcome<T>
where
    T: Data,
    F: Fn(usize, &TaskContext) -> Result<Vec<T>>,
{
    let inner = &*wave.inner;
    let &Placed {
        task,
        attempt,
        executor,
        incarnation,
        overhead_us,
    } = placed;
    inner.metrics.tasks_launched.inc();
    let mut cost = inner.config.cost;
    cost.task_launch_overhead_us = overhead_us;
    let ctx = TaskContext::new(
        &wave.stage,
        task,
        attempt,
        executor,
        inner.metrics.clone(),
        cost,
        inner.config.memory_per_executor,
    );
    let result = {
        let _guard = ctx.install();
        if fault_fires(&inner.config, wave.job_id, &wave.stage, task, attempt) {
            Err(SparkletError::InjectedFault)
        } else {
            catch_unwind(AssertUnwindSafe(|| f(task, &ctx))).unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "a payload that is not a string".into());
                Err(SparkletError::TaskPanicked(message))
            })
        }
    };
    if let Ok(data) = &result {
        ctx.add_records_out(data.len() as u64);
    }
    AttemptOutcome {
        task,
        attempt,
        executor,
        incarnation,
        virtual_us: ctx.attempt_cost_us(),
        shuffle_bytes: ctx.raw_shuffle_bytes(),
        result,
    }
}

fn fault_fires(
    config: &ClusterConfig,
    job_id: u64,
    stage: &str,
    task: usize,
    attempt: u32,
) -> bool {
    let prob = config.fault.task_failure_prob;
    if prob <= 0.0 {
        return false;
    }
    if prob >= 1.0 {
        return true;
    }
    // Keyed SipHash owned by the crate: the fault pattern for a given seed is
    // part of recorded experiment outputs and must survive toolchain bumps.
    // The job id is mixed in so two jobs running an identically named stage
    // (e.g. repeated actions on one RDD) draw independent fault patterns.
    let h = stable_hash(&(job_id, stage, task, attempt, config.fault.seed));
    let x = h as f64 / u64::MAX as f64;
    x < prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultConfig;
    use crate::partitioner::HashPartitioner;
    use proptest::prelude::*;

    #[test]
    fn driver_fault_point_fires_exactly_at_its_armed_index() {
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::disabled().kill_driver_at_point(2);
        let c = Cluster::new(cfg);
        assert!(c.driver_fault_point("a").is_ok());
        assert!(c.driver_fault_point("b").is_ok());
        let err = c.driver_fault_point("commit").unwrap_err();
        assert_eq!(
            err,
            SparkletError::DriverKilled {
                point: 2,
                label: "commit".into()
            }
        );
        assert!(err.is_driver_kill());
        // Points past the armed one are free again (the service is expected
        // to have crashed; a recovered service runs on a fresh cluster).
        assert!(c.driver_fault_point("later").is_ok());
        assert_eq!(c.driver_points_passed(), 4);
        assert_eq!(c.job_report().ingest.driver_kills, 1);
        c.reset_run_state();
        assert_eq!(c.driver_points_passed(), 0);
    }

    #[test]
    fn charge_driver_stage_advances_the_clock() {
        let c = Cluster::local(2);
        let before = c.clock().total_work().us;
        c.charge_driver_stage("ingest-checkpoint", 5_000);
        assert_eq!(c.clock().total_work().us, before + 5_000);
        let task_us = c.clock().with_stages(|stages| {
            let s = stages.iter().find(|s| s.name == "ingest-checkpoint");
            s.map(|s| s.task_us.clone())
        });
        assert_eq!(task_us, Some(vec![5_000]));
    }

    #[test]
    fn shuffle_pool_is_a_fifth_of_executor_memory() {
        let mut cfg = ClusterConfig::local(2);
        cfg.memory_per_executor = 1000;
        assert_eq!(Cluster::new(cfg).spill().shuffle_capacity(), 200);
    }

    #[test]
    fn run_job_returns_ordered_partition_outputs() {
        let c = Cluster::local(4);
        let out = c.run_job("square", 6, |i, _ctx| Ok(vec![i * i])).unwrap();
        assert_eq!(
            out,
            vec![vec![0], vec![1], vec![4], vec![9], vec![16], vec![25]]
        );
    }

    #[test]
    fn injected_faults_are_retried_to_success() {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::with_probability(0.4, 7);
        cfg.max_task_attempts = 10;
        let c = Cluster::new(cfg);
        let out = c.run_job("flaky", 20, |i, _| Ok(vec![i])).unwrap();
        assert_eq!(out.len(), 20);
        assert!(
            c.metrics().tasks_failed.get() > 0,
            "with p=0.4 over 20 tasks some attempt should fail"
        );
        assert_eq!(c.metrics().tasks_succeeded.get(), 20);
    }

    #[test]
    fn certain_failure_exhausts_attempts() {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::with_probability(1.0, 1);
        cfg.max_task_attempts = 3;
        let c = Cluster::new(cfg);
        let err = c
            .run_job::<u32, _>("doomed", 1, |_, _| Ok(vec![]))
            .unwrap_err();
        match err {
            SparkletError::TaskFailed { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("unexpected error: {other:?}"),
        }
        assert_eq!(c.metrics().tasks_failed.get(), 3);
    }

    #[test]
    fn user_errors_propagate() {
        let c = Cluster::local(2);
        let err = c
            .run_job::<u32, _>("bad", 2, |i, _| {
                if i == 1 {
                    Err(SparkletError::User("boom".into()))
                } else {
                    Ok(vec![i as u32])
                }
            })
            .unwrap_err();
        assert!(matches!(err, SparkletError::TaskFailed { task: 1, .. }));
    }

    #[test]
    fn stage_costs_are_recorded() {
        let c = Cluster::local(2);
        c.run_job("charged", 3, |_, ctx| {
            ctx.charge_ops(1000);
            Ok(vec![0u8])
        })
        .unwrap();
        assert_eq!(c.clock().stage_count(), 1);
        let task_us = c.clock().with_stages(|stages| stages[0].task_us.clone());
        assert_eq!(task_us.len(), 3);
        assert!(task_us.iter().all(|&t| t > 0));
    }

    #[test]
    fn retries_inflate_virtual_time() {
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::disabled();
        let baseline = Cluster::new(cfg.clone());
        baseline.run_job("t", 4, |_, _| Ok(vec![0u8])).unwrap();
        let t0 = baseline.virtual_elapsed();

        cfg.fault = FaultConfig::with_probability(0.5, 3);
        cfg.max_task_attempts = 20;
        let flaky = Cluster::new(cfg);
        flaky.run_job("t", 4, |_, _| Ok(vec![0u8])).unwrap();
        let t1 = flaky.virtual_elapsed();
        assert!(
            t1.us > t0.us,
            "retry penalties must stretch virtual time ({} vs {})",
            t1.us,
            t0.us
        );
    }

    #[test]
    fn retry_penalty_is_not_charged_on_the_final_failed_attempt() {
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::with_probability(1.0, 1);
        cfg.max_task_attempts = 2;
        let overhead = cfg.cost.task_launch_overhead_us;
        let penalty = cfg.cost.retry_penalty_us;
        let c = Cluster::new(cfg);
        let _ = c
            .run_job::<u8, _>("doomed", 1, |_, _| Ok(vec![]))
            .unwrap_err();
        assert_eq!(c.clock().stage_count(), 1);
        // Two wasted attempts, but only the first is followed by a retry —
        // exactly one reschedule penalty is paid.
        let task_us = c.clock().with_stages(|stages| stages[0].task_us[0]);
        assert_eq!(task_us, 2 * overhead + penalty);
    }

    #[test]
    fn reset_run_state_clears_everything() {
        let c = Cluster::local(2);
        c.run_job("x", 2, |_, ctx| {
            ctx.counter("things").add(5);
            Ok(vec![0u8])
        })
        .unwrap();
        c.reset_run_state();
        assert_eq!(c.clock().stage_count(), 0);
        assert_eq!(c.metrics().counter("things").get(), 0);
        assert_eq!(c.metrics().jobs_submitted.get(), 0);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::with_probability(0.5, 42);
        let a: Vec<bool> = (0..64).map(|t| fault_fires(&cfg, 0, "s", t, 0)).collect();
        let b: Vec<bool> = (0..64).map(|t| fault_fires(&cfg, 0, "s", t, 0)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn fault_pattern_mixes_the_job_id() {
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::with_probability(0.5, 42);
        let job0: Vec<bool> = (0..64).map(|t| fault_fires(&cfg, 0, "s", t, 0)).collect();
        let job1: Vec<bool> = (0..64).map(|t| fault_fires(&cfg, 1, "s", t, 0)).collect();
        assert_ne!(
            job0, job1,
            "two jobs running the same stage name must draw independent faults"
        );
    }

    #[test]
    fn fault_pattern_is_pinned() {
        // Golden: the (job, stage, task, attempt, seed) hash is part of
        // recorded experiment outputs; this fails if the mixing changes.
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::with_probability(0.25, 1337);
        let fires: u64 = (0..256)
            .map(|t| fault_fires(&cfg, 3, "golden", t, 1) as u64)
            .sum();
        let mut first_16 = [false; 16];
        for (t, slot) in first_16.iter_mut().enumerate() {
            *slot = fault_fires(&cfg, 3, "golden", t, 1);
        }
        assert_eq!((fires, first_16), PINNED_FAULT_PATTERN);
    }

    /// Captured from a reference run; see `fault_pattern_is_pinned`.
    const PINNED_FAULT_PATTERN: (u64, [bool; 16]) = (
        73,
        [
            false, false, false, false, true, false, true, false, false, false, false, true, true,
            false, false, false,
        ],
    );

    #[test]
    fn kill_mid_stage_reschedules_lost_tasks_on_survivors() {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_in_stage(0, "work", 1);
        let c = Cluster::new(cfg);
        let out = c.run_job("work", 4, |i, _| Ok(vec![i as u32])).unwrap();
        assert_eq!(out, vec![vec![0], vec![1], vec![2], vec![3]]);
        // Wave 1 places tasks 0,2 on executor 0 and 1,3 on executor 1. The
        // kill fires after task 0's completion is processed, so task 2's
        // result (old incarnation) is discarded and rescheduled.
        assert_eq!(c.metrics().executors_lost.get(), 1);
        assert_eq!(c.metrics().executors_blacklisted.get(), 0);
        assert_eq!(c.metrics().tasks_lost.get(), 1);
        assert_eq!(c.metrics().tasks_succeeded.get(), 4);
        assert_eq!(c.metrics().tasks_failed.get(), 0, "lost is not failed");
        assert_eq!(c.executors().alive_count(), 2, "restarted, not blacklisted");
    }

    #[test]
    fn kill_evicts_blocks_and_invalidates_shuffle_outputs() {
        let c = Cluster::local(2);
        c.blocks().put((9, 0), Arc::new(vec![1u8, 2, 3]), 3, 0);
        c.shuffles()
            .write_map_output(4, 0, 1, 1, 0, vec![vec![5u8]], 1)
            .unwrap();
        c.shuffles().mark_complete(4);
        c.kill_executor(0);
        assert!(c.blocks().get::<u8>((9, 0)).is_none());
        assert!(!c.shuffles().is_complete(4));
        assert_eq!(c.metrics().executors_lost.get(), 1);
    }

    #[test]
    fn blacklisting_every_executor_fails_the_job_cleanly() {
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::disabled().kill_in_stage(0, "doomed", 0);
        cfg.fault.max_executor_failures = 1;
        let c = Cluster::new(cfg);
        let err = c
            .run_job::<u8, _>("doomed", 2, |_, _| Ok(vec![]))
            .unwrap_err();
        assert_eq!(
            err,
            SparkletError::NoHealthyExecutors {
                stage: "doomed".into()
            }
        );
        assert_eq!(c.metrics().executors_blacklisted.get(), 1);
    }

    #[test]
    fn fetch_failures_recover_from_registered_lineage() {
        let c = Cluster::local(2);
        let sid = c.new_shuffle_id();
        let handler: Arc<RecoveryFn> = Arc::new(move |cluster: &Cluster, maps: &[usize]| {
            for &m in maps {
                cluster.shuffles().write_map_output(
                    sid,
                    m,
                    2,
                    2,
                    0,
                    vec![vec![m as u32], vec![10 + m as u32]],
                    8,
                )?;
            }
            Ok(())
        });
        c.register_shuffle_recovery(sid, 2, &handler);
        // Materialise both map outputs on executor 1, then lose executor 1.
        handler(&c, &[0, 1]).unwrap();
        c.shuffles().mark_complete(sid);
        c.shuffles().invalidate_executor(1); // writes above used executor 0
        c.shuffles().invalidate_executor(0);
        assert!(!c.shuffles().is_complete(sid));
        let reader = c.clone();
        let out = c
            .run_job("read", 2, move |i, _| {
                reader.shuffles().read_bucket::<u32>(sid, i)
            })
            .unwrap();
        assert_eq!(out, vec![vec![0, 1], vec![10, 11]]);
        assert_eq!(
            c.metrics().fetch_failures.get(),
            2,
            "both readers failed once"
        );
        assert_eq!(c.metrics().recomputed_tasks.get(), 2);
    }

    #[test]
    fn unrecoverable_fetch_failures_exhaust_attempts() {
        let mut cfg = ClusterConfig::local(2);
        cfg.max_task_attempts = 3;
        let c = Cluster::new(cfg);
        let reader = c.clone();
        let err = c
            .run_job::<u8, _>("read", 1, move |_, _| reader.shuffles().read_bucket(77, 0))
            .unwrap_err();
        match err {
            SparkletError::TaskFailed {
                attempts, reason, ..
            } => {
                assert_eq!(attempts, 3, "fetch failures count toward the budget");
                assert!(reason.contains("fetch failed"), "reason: {reason}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert_eq!(c.metrics().fetch_failures.get(), 3);
    }

    #[test]
    fn morsel_job_reassembles_partition_outputs_in_order() {
        let c = Cluster::local(4);
        let partitions: Vec<Vec<u32>> = (0..6)
            .map(|p| {
                (0..(p as u32 * 7 + 1))
                    .map(|i| p as u32 * 100 + i)
                    .collect()
            })
            .collect();
        let expected = partitions.clone();
        let out = c
            .run_morsel_job(
                "morsel",
                partitions,
                |_| 5_000,
                |_, items, _| Ok(items.to_vec()),
            )
            .unwrap();
        assert_eq!(out, expected);
        assert!(
            c.job_report().sched.morsels > 6,
            "heavy partitions must split into several morsels"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the budget, morsels are contiguous, cover every
        /// partition exactly once in order, and never exceed the budget
        /// unless they hold a single over-budget item.
        #[test]
        fn cut_morsels_is_a_contiguous_cover_at_any_budget(
            partitions in prop::collection::vec(
                prop::collection::vec(0u64..40, 0..60), 0..8),
            budget in prop::sample::select(vec![1u64, 7, MORSEL_OPS, u64::MAX]),
        ) {
            let ranges = cut_morsels(&partitions, |&w| w, budget);
            let mut next = 0usize;
            for (p, part) in partitions.iter().enumerate() {
                let mut at = 0usize;
                let mut morsels = 0usize;
                while next < ranges.len() && ranges[next].0 == p {
                    let (_, start, end) = ranges[next];
                    prop_assert_eq!(start, at, "morsels of a partition are contiguous");
                    prop_assert!(end > start || part.is_empty(), "only an empty partition cuts empty");
                    let load: u64 = part[start..end].iter().sum();
                    prop_assert!(load <= budget || end - start == 1, "over budget: {}", load);
                    at = end;
                    morsels += 1;
                    next += 1;
                }
                prop_assert!(morsels >= 1, "partition {} emitted no morsel", p);
                prop_assert_eq!(at, part.len(), "partition {} not covered", p);
                if budget == u64::MAX {
                    prop_assert_eq!(morsels, 1, "an unbounded budget never splits");
                }
            }
            prop_assert_eq!(next, ranges.len(), "ranges are grouped in partition order");
        }
    }

    #[test]
    fn cut_morsels_splits_greedily_in_item_order() {
        let parts = vec![vec![3u64, 3, 3, 9, 1], vec![], vec![2]];
        assert_eq!(
            cut_morsels(&parts, |&w| w, 7),
            vec![
                (0, 0, 2),
                (0, 2, 3),
                (0, 3, 4),
                (0, 4, 5),
                (1, 0, 0),
                (2, 0, 1)
            ]
        );
        assert_eq!(
            cut_morsels(&parts, |&w| w, 1).len(),
            5 + 1 + 1,
            "budget 1 is one morsel per item, plus the empty partition's"
        );
    }

    #[test]
    fn unsplit_morsel_stage_costs_the_same_as_run_job() {
        // Both partitions fit the morsel budget: one morsel each, paying the
        // full launch overhead — the cost model must match run_job exactly.
        let c = Cluster::local(2);
        c.run_morsel_job(
            "m",
            vec![vec![1u64; 10], vec![1; 4]],
            |_| 1,
            |_, items, ctx| {
                ctx.charge_ops(items.len() as u64 * 100);
                Ok(items.to_vec())
            },
        )
        .unwrap();
        assert_eq!(c.job_report().sched.morsels, 2);
        let d = Cluster::local(2);
        d.run_job("j", 2, |i, ctx| {
            let n = if i == 0 { 10 } else { 4 };
            ctx.charge_ops(n as u64 * 100);
            Ok(vec![1u64; n])
        })
        .unwrap();
        let morsel_us = c.clock().with_stages(|st| st[0].task_us.clone());
        let job_us = d.clock().with_stages(|st| st[0].task_us.clone());
        assert_eq!(morsel_us, job_us);
    }

    #[test]
    fn morsel_job_survives_executor_kills() {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_in_stage(0, "m", 1);
        let c = Cluster::new(cfg);
        let partitions: Vec<Vec<u32>> = vec![(0..10).collect(), (10..20).collect()];
        let out = c
            .run_morsel_job("m", partitions, |_| 8_000, |_, items, _| Ok(items.to_vec()))
            .unwrap();
        assert_eq!(
            out,
            vec![
                (0..10).collect::<Vec<u32>>(),
                (10..20).collect::<Vec<u32>>()
            ]
        );
        assert!(c.metrics().tasks_lost.get() >= 1, "the kill lost a result");
        assert_eq!(c.metrics().executors_lost.get(), 1);
    }

    /// The stage at whose start a kill at virtual time `us` fires, over
    /// three stages of unequal work (`None` if it never fires), and the
    /// executors it cost by the end.
    fn stage_a_kill_at_fires_in(us: u64) -> (Option<&'static str>, u64) {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_at_time(1, us);
        let c = Cluster::new(cfg);
        let mut fired = None;
        for (stage, ops) in [("first", 1_000u64), ("second", 3_000), ("third", 0)] {
            c.run_job(stage, 2, move |i, ctx| {
                ctx.charge_ops(ops);
                Ok(vec![i])
            })
            .unwrap();
            if fired.is_none() && c.metrics().executors_lost.get() > 0 {
                fired = Some(stage);
            }
        }
        (fired, c.metrics().executors_lost.get())
    }

    #[test]
    fn at_virtual_time_kills_fire_at_stage_starts() {
        // The clock's total work after each of the first two stages, read
        // on a fault-free cluster.
        let probe = Cluster::local(2);
        let mut after = Vec::new();
        for ops in [1_000u64, 3_000] {
            probe
                .run_job("probe", 2, move |i, ctx| {
                    ctx.charge_ops(ops);
                    Ok(vec![i])
                })
                .unwrap();
            after.push(probe.clock().total_work().us);
        }
        let (first, second) = (after[0], after[1]);
        assert!(0 < first && first < second);
        // A kill fires at the first stage start whose total work reached its
        // threshold, and only once: later stages do not re-fire it.
        for (us, stage) in [
            (0, Some("first")),
            (first - 1, Some("second")),
            (first, Some("second")),
            (first + 1, Some("third")),
            (second, Some("third")),
            (second + 1, None),
        ] {
            let lost = u64::from(stage.is_some());
            assert_eq!(
                stage_a_kill_at_fires_in(us),
                (stage, lost),
                "kill at {us} µs"
            );
        }
    }

    #[test]
    fn the_clocks_running_total_is_the_work_of_the_recorded_stages() {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_in_stage(0, "killed", 1);
        let c = Cluster::new(cfg);
        let recorded = |c: &Cluster| {
            c.clock().with_stages(|st| {
                st.iter()
                    .map(|s| s.task_us.iter().sum::<u64>())
                    .sum::<u64>()
            })
        };
        c.run_job("plain", 3, |i, ctx| {
            ctx.charge_ops(500 * i as u64);
            Ok(vec![i])
        })
        .unwrap();
        assert_eq!(c.clock().total_work().us, recorded(&c));
        c.run_morsel_job(
            "retried",
            vec![vec![MORSEL_OPS; 3], vec![MORSEL_OPS]],
            |&w| w,
            |p, items, ctx| {
                if p == 0 && ctx.attempt() == 0 {
                    return Err(SparkletError::User("first attempt".into()));
                }
                ctx.charge_ops(items.iter().sum());
                Ok(items.to_vec())
            },
        )
        .unwrap();
        assert!(c.metrics().tasks_failed.get() > 0, "a morsel was retried");
        assert_eq!(c.clock().total_work().us, recorded(&c));
        c.charge_driver_stage("driver", 7_000);
        assert_eq!(c.clock().total_work().us, recorded(&c));
        c.run_job("killed", 4, |i, _| Ok(vec![i])).unwrap();
        assert_eq!(c.metrics().tasks_lost.get(), 1, "the kill lost a result");
        assert_eq!(c.clock().total_work().us, recorded(&c));
        assert!(c.clock().total_work().us > 7_000);
        c.reset_run_state();
        assert_eq!(c.clock().total_work().us, 0);
    }

    #[test]
    fn reset_run_state_revives_executors_and_rearms_kills() {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_in_stage(0, "work", 0);
        cfg.fault.max_executor_failures = 1;
        let c = Cluster::new(cfg);
        c.run_job("work", 2, |i, _| Ok(vec![i])).unwrap();
        assert_eq!(c.executors().alive_count(), 1);
        c.reset_run_state();
        assert_eq!(c.executors().alive_count(), 2);
        // The same schedule fires again on the next run.
        c.run_job("work", 2, |i, _| Ok(vec![i])).unwrap();
        assert_eq!(c.metrics().executors_lost.get(), 1);
    }

    #[test]
    fn shuffle_outputs_live_exactly_as_long_as_the_node() {
        use crate::pair::PairRdd;
        // Armed for `derived`'s first collect below: executor 0 dies once
        // the first reader's result is in.
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_in_stage(0, "collect[map]", 1);
        let c = Cluster::new(cfg);
        let resident = |c: &Cluster| {
            [
                c.shuffles().resident_bytes(0),
                c.shuffles().resident_bytes(1),
            ]
        };
        let pairs = c.parallelize((0..100u32).map(|x| (x % 7, x)).collect(), 4);
        // An action on a temporary: the shuffle is gone when it returns.
        let sums = pairs.reduce_by_key(|a, b| a + b, 3).collect().unwrap();
        assert_eq!(sums.len(), 7);
        assert_eq!(c.shuffles().shuffle_count(), 0);
        assert_eq!(resident(&c), [0, 0]);
        // A held dataset keeps its shuffle, through a derived RDD too.
        let shuffled = pairs.partition_by(Arc::new(HashPartitioner::new(3)));
        let derived = shuffled.map(|(k, v)| k + v);
        let first = derived.collect().unwrap();
        assert_eq!(c.metrics().executors_lost.get(), 1);
        assert_eq!(c.shuffles().shuffle_count(), 1);
        assert!(resident(&c).iter().sum::<u64>() > 0);
        drop(shuffled);
        assert_eq!(
            c.shuffles().shuffle_count(),
            1,
            "the lineage holds the node"
        );
        // Held, it was recoverable: the kill took executor 0's map outputs
        // and its unprocessed reader (task 2) with them; rescheduled, the
        // reader failed its fetch, the outputs were rebuilt from lineage
        // through the node's handler, and the retry read them.
        assert_eq!(c.metrics().tasks_lost.get(), 1);
        assert_eq!(c.metrics().fetch_failures.get(), 1);
        assert_eq!(c.metrics().recomputed_tasks.get(), 2);
        assert_eq!(derived.collect().unwrap(), first);
        // The last holder takes the outputs and the recovery entry with it.
        drop(derived);
        assert_eq!(c.shuffles().shuffle_count(), 0);
        assert_eq!(resident(&c), [0, 0]);
        assert!(c.inner.shuffle_recovery.lock().is_empty());
    }

    /// What a run leaves on the clock, in a comparable shape.
    type Recorded = (String, Vec<u64>, u64, u64, Option<Vec<usize>>);

    fn recorded_stages(c: &Cluster) -> Vec<Recorded> {
        c.clock().with_stages(|stages| {
            stages
                .iter()
                .map(|s| {
                    (
                        s.name.clone(),
                        s.task_us.clone(),
                        s.shuffle_bytes,
                        s.retries,
                        s.morsels.clone(),
                    )
                })
                .collect()
        })
    }

    #[test]
    fn outputs_and_stage_records_do_not_depend_on_who_ran_what() {
        // Which thread claims an attempt — a worker, or the driver beside
        // them — must show nowhere: not in the outputs, not in a virtual
        // cost. One worker, two, eight; no task, one (inline on the
        // driver), two (one wake-up), more than the pool has threads.
        for fault in [
            FaultConfig::disabled(),
            FaultConfig::with_probability(0.3, 99),
        ] {
            for tasks in [0usize, 1, 2, 37] {
                let run = |parallelism: usize| {
                    let mut cfg = ClusterConfig::local(parallelism);
                    cfg.fault = fault.clone();
                    cfg.max_task_attempts = 12;
                    let c = Cluster::new(cfg);
                    let out = c
                        .run_job("work", tasks, |i, ctx| {
                            ctx.charge_ops(100 * (i as u64 + 1));
                            Ok(vec![i as u64; i % 3])
                        })
                        .unwrap();
                    let morsels = c
                        .run_morsel_job(
                            "morsels",
                            (0..tasks).map(|p| vec![p as u64; 2 * p + 1]).collect(),
                            |_| 6_000,
                            |_, items, _| Ok(items.to_vec()),
                        )
                        .unwrap();
                    (out, morsels, recorded_stages(&c))
                };
                let one = run(1);
                assert_eq!(one.0.len(), tasks);
                assert_eq!(one.2.len(), 2, "one record per stage, even an empty one");
                assert_eq!(one, run(2), "{tasks} tasks, {fault:?}");
                assert_eq!(one, run(8), "{tasks} tasks, {fault:?}");
            }
        }
    }

    #[test]
    fn two_drivers_sharing_one_cluster_both_finish() {
        // Neither driver can starve the other: each drains its own wave,
        // with or without the pool's help. The barrier makes every round's
        // two jobs overlap.
        let c = Cluster::local(2);
        let rounds = 200;
        let start = Arc::new(std::sync::Barrier::new(2));
        let drivers: Vec<_> = (0..2u64)
            .map(|d| {
                let c = c.clone();
                let start = start.clone();
                thread::spawn(move || {
                    (0..rounds)
                        .map(|round| {
                            start.wait();
                            let out = c
                                .run_job("shared", 5, move |i, _| Ok(vec![d * 1_000 + i as u64]))
                                .unwrap();
                            assert_eq!(out.len(), 5);
                            out.into_iter().flatten().sum::<u64>() + round
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        let sums: Vec<u64> = drivers.into_iter().map(|h| h.join().unwrap()).collect();
        let rounds_sum: u64 = (0..rounds).sum();
        assert_eq!(
            sums,
            vec![rounds * 10 + rounds_sum, rounds * 5_010 + rounds_sum]
        );
        assert_eq!(c.metrics().tasks_succeeded.get(), 2 * rounds * 5);
    }

    /// Threads that run a task of a job one task wider than the pool: every
    /// task waits until as many distinct threads as there are tasks have
    /// arrived (or ten seconds pass), so each thread takes exactly one.
    fn threads_that_share_a_wave(c: &Cluster) -> usize {
        let wanted = c.config().worker_threads() + 1;
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let arrived = seen.clone();
        c.run_job("rendezvous", wanted, move |_, _| {
            arrived.lock().insert(thread::current().id());
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while arrived.lock().len() < wanted && std::time::Instant::now() < deadline {
                thread::yield_now();
            }
            Ok(vec![0u8])
        })
        .unwrap();
        let n = seen.lock().len();
        n
    }

    #[test]
    fn a_wave_is_shared_by_the_driver_and_every_worker() {
        let c = Cluster::local(3);
        assert_eq!(threads_that_share_a_wave(&c), 4);
    }

    #[test]
    fn a_panicking_attempt_is_a_failed_attempt_and_the_job_retries() {
        // `tasks == 1` runs inline: the panic unwinds on the driver thread.
        for tasks in [1usize, 6] {
            let c = Cluster::local(2);
            let out = c
                .run_job("flaky", tasks, |i, ctx| {
                    if i == 0 && ctx.attempt() == 0 {
                        panic!("first attempt");
                    }
                    Ok(vec![i])
                })
                .unwrap();
            assert_eq!(out, (0..tasks).map(|i| vec![i]).collect::<Vec<_>>());
            assert_eq!(c.metrics().tasks_failed.get(), 1);
            assert_eq!(c.metrics().tasks_succeeded.get(), tasks as u64);
            let failures: Vec<(usize, u32, String)> = c
                .job_report()
                .failures
                .into_iter()
                .map(|f| (f.task, f.attempt, f.reason))
                .collect();
            let panic = (0, 0, "task panicked: first attempt".to_string());
            assert_eq!(failures, vec![panic], "the panic is a failed attempt");
        }
    }

    #[test]
    fn a_task_that_always_panics_fails_the_job_and_costs_the_pool_no_thread() {
        for tasks in [1usize, 6] {
            let mut cfg = ClusterConfig::local(2);
            cfg.max_task_attempts = 3;
            let c = Cluster::new(cfg);
            let doomed = tasks - 1;
            let err = c
                .run_job("doomed", tasks, move |i, _| {
                    if i == doomed {
                        panic!("task {i} cannot run");
                    }
                    Ok(vec![i])
                })
                .unwrap_err();
            assert_eq!(
                err,
                SparkletError::TaskFailed {
                    stage: "doomed".into(),
                    task: doomed,
                    attempts: 3,
                    reason: format!("task panicked: task {doomed} cannot run"),
                }
            );
            assert_eq!(c.metrics().tasks_failed.get(), 3);
            // The driver returned, and every thread that unwound is back.
            assert_eq!(threads_that_share_a_wave(&c), 3);
            let out = c.run_job("after", 4, |i, _| Ok(vec![i])).unwrap();
            assert_eq!(out, vec![vec![0], vec![1], vec![2], vec![3]]);
        }
    }

    #[test]
    fn a_finished_job_holds_no_reference_to_its_task_closure() {
        // The wave lets go of the closure before the driver has the last
        // outcome, whoever ran the last attempt and however many wake-ups
        // are still queued: what the closure captured is the caller's alone
        // the moment `run_job` returns.
        let c = Cluster::local(4);
        for tasks in [1usize, 2, 9] {
            for _ in 0..200 {
                let captured = Arc::new(());
                let held = captured.clone();
                c.run_job("holds", tasks, move |i, _| {
                    let _ = &held;
                    Ok(vec![i])
                })
                .unwrap();
                assert_eq!(Arc::strong_count(&captured), 1);
            }
        }
    }
}
