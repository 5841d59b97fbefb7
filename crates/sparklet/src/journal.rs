//! Run journal and exportable job reports — sparklet's observability layer.
//!
//! Every cluster owns a [`RunJournal`]: an append-only, sequence-numbered
//! record of scheduler and storage events (stage start/finish, task-attempt
//! launch/success/failure, cache hit/miss/eviction, shuffle read/write).
//! Timestamps are virtual: each event is stamped with the clock's
//! accumulated virtual work at the moment its stage started, and task events
//! additionally carry their own virtual durations — wall-clock times on the
//! worker pool are meaningless for the paper's figures (see [`crate::simtime`]).
//!
//! The journal is bounded ([`RunJournal::MAX_EVENTS`]); once full, further
//! events are counted but not stored, so a long-running feedback loop cannot
//! grow without bound. Aggregates never depend on the dropped tail: a
//! [`JobReport`] combines the journal with [`crate::simtime::VirtualClock`]
//! stage records and [`crate::metrics::ClusterMetrics`] counters into a
//! per-stage task-duration distribution (min/p50/max, straggler flags),
//! retry/shuffle/cache totals and user counters. Reports serialise to
//! schema-stable JSON ([`JobReport::to_json`]) and render as a terminal
//! stage table (`Display`) — a mini Spark UI for the terminal.

use crate::cluster::Cluster;
use crate::simtime::{simulate_morsels, StageRecord};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One journal entry: a global sequence number, the virtual timestamp of
/// the enclosing stage, and the event itself.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global order of the event within the run (0-based).
    pub seq: u64,
    /// Virtual-clock reading (accumulated virtual work, µs) when the
    /// event's stage started. Events inside one stage share a stamp; task
    /// events carry their own durations on top.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary of the journal.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A stage was submitted to the scheduler.
    StageStarted {
        /// Stage name.
        stage: String,
        /// Tasks in the stage.
        tasks: usize,
    },
    /// A stage completed (all tasks accounted for, success or not).
    StageFinished {
        /// Stage name.
        stage: String,
        /// Sum of final per-task virtual durations (µs).
        virtual_us: u64,
        /// Shuffle bytes the stage moved.
        shuffle_bytes: u64,
        /// Failed attempts across the stage.
        retries: u64,
    },
    /// A task attempt was handed to a worker.
    TaskLaunched {
        /// Stage name.
        stage: String,
        /// Task (partition) index.
        task: usize,
        /// Attempt number, 0-based.
        attempt: u32,
        /// Virtual executor the attempt ran on.
        executor: usize,
    },
    /// A task attempt succeeded.
    TaskSucceeded {
        /// Stage name.
        stage: String,
        /// Task index.
        task: usize,
        /// Attempt number.
        attempt: u32,
        /// Virtual duration of this attempt (µs).
        virtual_us: u64,
        /// Records the attempt emitted.
        records_out: u64,
    },
    /// A task attempt failed (it may be retried).
    TaskFailed {
        /// Stage name.
        stage: String,
        /// Task index.
        task: usize,
        /// Attempt number.
        attempt: u32,
        /// Virtual duration wasted by this attempt (µs).
        virtual_us: u64,
        /// The [`crate::SparkletError`] rendered to text.
        reason: String,
        /// Whether another attempt follows.
        will_retry: bool,
    },
    /// A cached partition was found in the block manager.
    CacheHit {
        /// RDD id.
        rdd: u64,
        /// Partition index.
        partition: usize,
    },
    /// A cache lookup missed (the partition recomputes from lineage).
    CacheMiss {
        /// RDD id.
        rdd: u64,
        /// Partition index.
        partition: usize,
    },
    /// A cached partition was evicted under memory pressure.
    CacheEvicted {
        /// RDD id.
        rdd: u64,
        /// Partition index.
        partition: usize,
        /// Estimated bytes released.
        bytes: usize,
    },
    /// A cache put was refused outright: the block exceeded the executor
    /// pool and no spill codec is registered for its type.
    /// The partition will recompute from lineage on every access.
    CacheSkipped {
        /// RDD id.
        rdd: u64,
        /// Partition index.
        partition: usize,
        /// Estimated size of the refused block.
        bytes: usize,
    },
    /// A payload (cache block or shuffle bucket) was serialized to an
    /// executor's spill file instead of being dropped or failing the task.
    SpillWrite {
        /// Executor whose spill file grew.
        executor: usize,
        /// Encoded bytes written.
        bytes: u64,
    },
    /// A spilled payload was read back from disk (instead of recomputing
    /// from lineage or failing a shuffle fetch).
    SpillRead {
        /// Executor whose spill file was read.
        executor: usize,
        /// Encoded bytes read.
        bytes: u64,
    },
    /// A map task registered its bucketed output with the shuffle service.
    ShuffleWrite {
        /// Shuffle id.
        shuffle: u64,
        /// Records written across all buckets.
        records: u64,
        /// Estimated serialized bytes.
        bytes: u64,
    },
    /// A reduce task fetched one bucket across all map outputs.
    ShuffleRead {
        /// Shuffle id.
        shuffle: u64,
        /// Bucket (reduce partition) index.
        bucket: usize,
        /// Records fetched.
        records: u64,
    },
    /// An executor was killed by the fault schedule, taking its cached
    /// blocks and shuffle map outputs with it.
    ExecutorLost {
        /// Executor id.
        executor: usize,
        /// Incarnation that died.
        incarnation: u32,
        /// Whether the kill exceeded the failure budget (no restart).
        blacklisted: bool,
        /// Cached blocks evicted with the executor.
        blocks_lost: usize,
        /// Shuffle map outputs invalidated with the executor.
        map_outputs_lost: u64,
    },
    /// A task attempt failed because the shuffle data it reads is gone.
    FetchFailed {
        /// Stage of the reading task.
        stage: String,
        /// Reading task index.
        task: usize,
        /// Shuffle whose map output is missing.
        shuffle: u64,
        /// Bucket the reader wanted.
        bucket: usize,
    },
    /// A lost shuffle map output was rebuilt from lineage.
    Recomputed {
        /// Shuffle id.
        shuffle: u64,
        /// Map task that was re-run.
        map_task: usize,
    },
    /// A task's result was discarded because its executor died mid-flight;
    /// the task is rescheduled on a survivor (not counted as a failure).
    TaskLost {
        /// Stage name.
        stage: String,
        /// Task index.
        task: usize,
        /// Attempt number.
        attempt: u32,
        /// The dead executor.
        executor: usize,
    },
    /// Work stealing moved morsels between workers in a morsel-driven stage.
    /// Coalesced: one event per (thief, victim) pair per stage, so volume is
    /// bounded by workers², never by morsel count.
    MorselStolen {
        /// Stage name.
        stage: String,
        /// Worker that stole.
        thief: usize,
        /// Worker whose queue was robbed.
        victim: usize,
        /// Morsels moved along this edge during the stage.
        count: u64,
    },
    /// A worker sat idle for part of a morsel-driven stage (emitted once per
    /// worker per stage, only when the idle time is non-zero).
    WorkerIdle {
        /// Stage name.
        stage: String,
        /// Worker id.
        worker: usize,
        /// Idle virtual time until the stage's makespan (µs).
        idle_us: u64,
    },
    /// A batch-path operator finished one task's compute: `chunks` chunks
    /// moved `records` records through the operator. Coalesced: one event
    /// per task, never per chunk, so journal volume stays bounded by task
    /// count even at chunk size 1.
    BatchExecuted {
        /// Stage (node) name.
        stage: String,
        /// Operator name ("map", "filter_batches", "shuffle-bucket", …).
        op: String,
        /// Chunks dispatched by this compute.
        chunks: u64,
        /// Records carried across those chunks.
        records: u64,
        /// Largest single chunk (records).
        max_chunk: u64,
    },
    /// A bound-driven pruning pass ran over one unit of work (a classify
    /// block, a detect_new round, …). Coalesced driver-side: one event per
    /// unit, never per test pair, so journal volume stays bounded however
    /// large the corpus. All pruning is lossless — these events record
    /// distance evaluations *avoided*, never results changed.
    PruneApplied {
        /// Label of the pruned unit ("classify-block", "memo", …).
        scope: String,
        /// Voronoi cells skipped wholesale by the annulus bound.
        cells_skipped: u64,
        /// Cell residents rejected by the triangle-inequality window.
        bound_rejected: u64,
        /// Distance evaluations actually performed.
        evals_done: u64,
        /// Distance evaluations avoided (bound-rejected residents plus the
        /// populations of wholesale-skipped cells, plus memo hits).
        evals_avoided: u64,
        /// Pair distances answered from the cross-call memo.
        memo_hits: u64,
    },
    /// The driver was killed at a driver-side fault point (see
    /// [`crate::FaultConfig::driver_kill`]). Fatal: the owning service drops
    /// its state and recovers from its durable checkpoint.
    DriverKilled {
        /// Global fault-point index that fired.
        point: u64,
        /// Label of the code location that hit the fault point.
        label: String,
    },
    /// An ingest micro-batch committed: detections folded into the
    /// cumulative digest and a new checkpoint generation renamed into place.
    /// Coalesced: one event per batch, never per report or per pair, so a
    /// long-running ingest stays within the journal bound.
    IngestBatchCommitted {
        /// Batch index (== quarter index for quarterly replay).
        batch: u64,
        /// Reports ingested by this batch.
        reports: u64,
        /// Candidate pairs scored (detections emitted).
        detections: u64,
        /// Detections classified duplicate.
        duplicates: u64,
        /// Failed attempts before the one that committed.
        retries: u64,
        /// Admission-gate deferrals charged before this batch started.
        deferrals: u64,
        /// Virtual latency of the committed attempt plus checkpoint write
        /// (µs), excluding backoff waits and deferrals.
        latency_us: u64,
        /// Size of the checkpoint file written at commit (bytes).
        checkpoint_bytes: u64,
    },
    /// The ingest admission gate deferred the next batch because the
    /// engine's lag exceeded its bound (backpressure). One event per wait.
    IngestDeferred {
        /// Batch whose admission was deferred.
        batch: u64,
        /// Spill-resident bytes observed at the gate.
        resident_bytes: u64,
        /// In-flight (previous-batch) pair count observed at the gate.
        lagged_pairs: u64,
        /// Virtual time charged for the wait (µs).
        waited_us: u64,
    },
    /// A poison batch exhausted `max_batch_retries`, was dumped to the
    /// quarantine file and skipped so the service keeps making progress.
    IngestQuarantined {
        /// Batch index that was quarantined.
        batch: u64,
        /// Reports the batch carried.
        reports: u64,
        /// Attempts made (including the first).
        attempts: u64,
        /// Last failure, human-readable.
        reason: String,
    },
    /// An ingest service recovered from a durable checkpoint after a driver
    /// crash (or plain restart).
    IngestRecovered {
        /// Checkpoint generation that was loaded.
        generation: u64,
        /// First batch to (re)run after recovery.
        batch_high_water: u64,
        /// Whether the newest generation was corrupt and recovery fell back
        /// to an older one.
        fallback: bool,
    },
    /// A serve micro-batch was dispatched and answered. Coalesced: one
    /// event per admitted batch, never per request, so an open-loop load of
    /// millions of requests stays within the journal bound.
    ServeBatchExecuted {
        /// Batch index within the serve run.
        batch: u64,
        /// Requests coalesced into this batch.
        requests: u64,
        /// Requests still queued when this batch dispatched.
        queue_depth: u64,
        /// Signal-memo lookups issued by this batch.
        memo_lookups: u64,
        /// Signal-memo lookups answered from the memo.
        memo_hits: u64,
        /// Virtual service time for the batch (µs).
        service_us: u64,
        /// Worst request latency in the batch: dispatch wait plus service
        /// time, measured from the earliest admitted arrival (µs).
        latency_us: u64,
    },
}

impl EventKind {
    /// Short kind tag, used for event-count aggregation.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::StageStarted { .. } => "stage_started",
            EventKind::StageFinished { .. } => "stage_finished",
            EventKind::TaskLaunched { .. } => "task_launched",
            EventKind::TaskSucceeded { .. } => "task_succeeded",
            EventKind::TaskFailed { .. } => "task_failed",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::CacheEvicted { .. } => "cache_evicted",
            EventKind::CacheSkipped { .. } => "cache_skipped",
            EventKind::SpillWrite { .. } => "spill_write",
            EventKind::SpillRead { .. } => "spill_read",
            EventKind::ShuffleWrite { .. } => "shuffle_write",
            EventKind::ShuffleRead { .. } => "shuffle_read",
            EventKind::ExecutorLost { .. } => "executor_lost",
            EventKind::FetchFailed { .. } => "fetch_failed",
            EventKind::Recomputed { .. } => "recomputed",
            EventKind::TaskLost { .. } => "task_lost",
            EventKind::MorselStolen { .. } => "morsel_stolen",
            EventKind::WorkerIdle { .. } => "worker_idle",
            EventKind::BatchExecuted { .. } => "batch_executed",
            EventKind::PruneApplied { .. } => "prune_applied",
            EventKind::DriverKilled { .. } => "driver_killed",
            EventKind::IngestBatchCommitted { .. } => "ingest_batch_committed",
            EventKind::IngestDeferred { .. } => "ingest_deferred",
            EventKind::IngestQuarantined { .. } => "ingest_quarantined",
            EventKind::IngestRecovered { .. } => "ingest_recovered",
            EventKind::ServeBatchExecuted { .. } => "serve_batch_executed",
        }
    }
}

struct JournalInner {
    events: Mutex<Vec<Event>>,
    seq: AtomicU64,
    /// Virtual work (µs) recorded by completed stages so far — the stamp
    /// given to subsequent events.
    virtual_now_us: AtomicU64,
    dropped: AtomicU64,
}

/// Shared, bounded event journal. Cloning shares the underlying buffer
/// (`Arc` semantics); recording is lock-per-event and cheap enough for the
/// engine's task granularity (tasks, not records).
#[derive(Clone)]
pub struct RunJournal {
    inner: Arc<JournalInner>,
}

impl Default for RunJournal {
    fn default() -> Self {
        RunJournal::new()
    }
}

impl RunJournal {
    /// Events retained before the journal starts counting instead of
    /// storing. Bounds driver memory for endless feedback loops.
    pub const MAX_EVENTS: usize = 100_000;

    /// Fresh empty journal.
    pub fn new() -> Self {
        RunJournal {
            inner: Arc::new(JournalInner {
                events: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                virtual_now_us: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Append an event (drops it, counted, once [`Self::MAX_EVENTS`] is
    /// reached).
    pub fn record(&self, kind: EventKind) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let at_us = self.inner.virtual_now_us.load(Ordering::Relaxed);
        let mut events = self.inner.events.lock();
        if events.len() >= Self::MAX_EVENTS {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(Event { seq, at_us, kind });
    }

    /// Advance the virtual stamp by `us` (called by the scheduler when a
    /// stage's cost is recorded).
    pub(crate) fn advance(&self, us: u64) {
        self.inner.virtual_now_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Current virtual stamp (accumulated stage work, µs). The scheduler's
    /// `AtVirtualTime` kill triggers compare against this at stage starts.
    pub fn now_us(&self) -> u64 {
        self.inner.virtual_now_us.load(Ordering::Relaxed)
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events counted but not stored (journal full).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of all stored events, in sequence order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.lock().clone()
    }

    /// Drop all events and reset the sequence and virtual stamp (between
    /// experiment configurations).
    pub fn clear(&self) {
        self.inner.events.lock().clear();
        self.inner.seq.store(0, Ordering::Relaxed);
        self.inner.virtual_now_us.store(0, Ordering::Relaxed);
        self.inner.dropped.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunJournal")
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Aggregated view of one stage in a [`JobReport`].
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Tasks in the stage.
    pub tasks: usize,
    /// Task attempts launched (tasks + retries).
    pub attempts: u64,
    /// Failed attempts.
    pub retries: u64,
    /// Smallest final task duration (µs).
    pub min_task_us: u64,
    /// Median final task duration (µs).
    pub p50_task_us: u64,
    /// Largest final task duration (µs).
    pub max_task_us: u64,
    /// Sum of final task durations (µs).
    pub total_task_us: u64,
    /// Shuffle bytes the stage moved.
    pub shuffle_bytes: u64,
    /// Straggler flag: the slowest task took more than twice the median.
    pub straggler: bool,
}

impl StageReport {
    fn from_record(r: &StageRecord) -> Self {
        let mut sorted = r.task_us.clone();
        sorted.sort_unstable();
        let min = sorted.first().copied().unwrap_or(0);
        let max = sorted.last().copied().unwrap_or(0);
        let p50 = if sorted.is_empty() {
            0
        } else {
            sorted[(sorted.len() - 1) / 2]
        };
        StageReport {
            name: r.name.clone(),
            tasks: r.task_us.len(),
            attempts: r.task_us.len() as u64 + r.retries,
            retries: r.retries,
            min_task_us: min,
            p50_task_us: p50,
            max_task_us: max,
            total_task_us: sorted.iter().sum(),
            shuffle_bytes: r.shuffle_bytes,
            straggler: p50 > 0 && max > 2 * p50,
        }
    }
}

/// One recorded task-attempt failure (from the journal).
#[derive(Debug, Clone)]
pub struct FailureLine {
    /// Stage name.
    pub stage: String,
    /// Task index.
    pub task: usize,
    /// Attempt number.
    pub attempt: u32,
    /// Failure reason ([`crate::SparkletError`] text).
    pub reason: String,
}

/// Engine-wide counter totals captured into a [`JobReport`].
#[derive(Debug, Clone, Default)]
pub struct ReportTotals {
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Task attempts launched.
    pub tasks_launched: u64,
    /// Successful attempts.
    pub tasks_succeeded: u64,
    /// Failed attempts.
    pub tasks_failed: u64,
    /// Failures caused by the modelled memory budget.
    pub memory_kills: u64,
    /// Records written to the shuffle service.
    pub shuffle_records_written: u64,
    /// Estimated shuffle bytes written.
    pub shuffle_bytes_written: u64,
    /// Records read back from the shuffle service.
    pub shuffle_records_read: u64,
    /// Block-manager hits.
    pub cache_hits: u64,
    /// Block-manager misses.
    pub cache_misses: u64,
    /// Blocks evicted under memory pressure.
    pub cache_evictions: u64,
    /// Journal events recorded (stored + dropped).
    pub events: u64,
    /// Journal events dropped because the buffer was full.
    pub events_dropped: u64,
}

/// Failure-recovery totals captured into a [`JobReport`] — what the run
/// survived and what that survival cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Executors killed by the fault schedule.
    pub executors_lost: u64,
    /// Executors blacklisted after exceeding the failure budget.
    pub executors_blacklisted: u64,
    /// Reduce-side fetches that found their map outputs gone.
    pub fetch_failures: u64,
    /// Map tasks re-run from lineage to rebuild lost shuffle outputs.
    pub recomputed_map_tasks: u64,
    /// In-flight results discarded with their executor and rescheduled.
    pub tasks_lost: u64,
}

impl RecoveryReport {
    /// Did any recovery machinery engage during the run?
    pub fn any(&self) -> bool {
        *self != RecoveryReport::default()
    }
}

/// Morsel-scheduling aggregates captured into a [`JobReport`]: every
/// morsel-driven stage replayed (see [`simulate_morsels`]) on the cluster's
/// own slot count, summed into a per-worker utilization table.
#[derive(Debug, Clone, Default)]
pub struct SchedReport {
    /// Task slots the replay used (the cluster's own topology).
    pub workers: usize,
    /// Stages that ran morsel-driven.
    pub morsel_stages: usize,
    /// Morsels executed across those stages.
    pub morsels: u64,
    /// Morsels that ran away from their home worker.
    pub steals: u64,
    /// Sum of morsel-stage makespans at `workers` slots (µs).
    pub makespan_us: u64,
    /// Per-worker totals across all morsel stages, indexed by worker id.
    pub per_worker: Vec<WorkerUtilization>,
    /// Σ busy / (workers × Σ makespans) — 1.0 means no worker ever idled.
    pub utilization: f64,
    /// Max per-worker busy time over mean busy time; 1.0 is perfectly even.
    pub imbalance: f64,
}

/// One worker's row in the [`SchedReport`] utilization table.
#[derive(Debug, Clone, Default)]
pub struct WorkerUtilization {
    /// Worker (slot) id.
    pub worker: usize,
    /// Busy virtual time across all morsel stages (µs).
    pub busy_us: u64,
    /// Morsels the worker executed (own + stolen).
    pub morsels: u64,
    /// Morsels the worker stole from other queues.
    pub steals: u64,
}

impl SchedReport {
    fn capture(cluster: &Cluster) -> Self {
        let workers = cluster.config().total_slots();
        let mut report = SchedReport {
            workers,
            ..SchedReport::default()
        };
        let mut busy = vec![0u64; workers];
        let mut morsels_run = vec![0u64; workers];
        let mut steals_by = vec![0u64; workers];
        cluster.clock().with_stages(|stages| {
            for record in stages {
                let Some(partition_of) = &record.morsels else {
                    continue;
                };
                let sim = simulate_morsels(&record.task_us, partition_of, workers);
                report.morsel_stages += 1;
                report.morsels += record.task_us.len() as u64;
                report.steals += sim.stolen_count();
                report.makespan_us += sim.makespan_us;
                for w in 0..workers {
                    busy[w] += sim.busy_us[w];
                    morsels_run[w] += sim.morsels_run[w];
                }
                for &(thief, _, n) in &sim.steals {
                    steals_by[thief] += n;
                }
            }
        });
        if report.morsel_stages == 0 {
            return report;
        }
        let total_busy: u64 = busy.iter().sum();
        let denom = workers as u64 * report.makespan_us;
        report.utilization = total_busy as f64 / denom.max(1) as f64;
        let mean_busy = total_busy as f64 / workers as f64;
        let max_busy = busy.iter().copied().max().unwrap_or(0);
        report.imbalance = if mean_busy > 0.0 {
            max_busy as f64 / mean_busy
        } else {
            1.0
        };
        report.per_worker = (0..workers)
            .map(|w| WorkerUtilization {
                worker: w,
                busy_us: busy[w],
                morsels: morsels_run[w],
                steals: steals_by[w],
            })
            .collect();
        report
    }
}

/// Chunked-execution aggregates captured into a [`JobReport`]: one row per
/// (stage, operator) that ran through the batch path, plus run-wide totals.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Chunks dispatched across all batch stages.
    pub chunks: u64,
    /// Records carried through the batch path.
    pub records: u64,
    /// Per-(stage, operator) rows in first-seen order.
    pub stages: Vec<BatchStageReport>,
}

/// One (stage, operator) row in the [`BatchReport`].
#[derive(Debug, Clone, Default)]
pub struct BatchStageReport {
    /// Stage name the chunks ran under.
    pub stage: String,
    /// Operator name ("map", "filter_batches", "shuffle-bucket", …).
    pub op: String,
    /// Chunks dispatched.
    pub chunks: u64,
    /// Records carried.
    pub records: u64,
    /// Median over tasks of the task's mean records-per-chunk.
    pub p50_chunk_records: u64,
    /// Largest single chunk observed (records).
    pub max_chunk_records: u64,
}

impl BatchReport {
    fn capture(cluster: &Cluster) -> Self {
        use std::collections::HashMap;
        let mut order: Vec<(String, String)> = Vec::new();
        let mut rows: HashMap<(String, String), BatchRow> = HashMap::new();
        for ev in cluster.journal().events() {
            let EventKind::BatchExecuted {
                stage,
                op,
                chunks,
                records,
                max_chunk,
            } = ev.kind
            else {
                continue;
            };
            let key = (stage, op);
            let entry = rows.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (0, 0, 0, Vec::new())
            });
            entry.0 += chunks;
            entry.1 += records;
            entry.2 = entry.2.max(max_chunk);
            if let Some(mean) = records.checked_div(chunks) {
                entry.3.push(mean);
            }
        }
        drain_batch_rows(order, rows)
    }

    /// Did anything run through the batch path?
    pub fn any(&self) -> bool {
        self.chunks > 0
    }
}

/// chunks, records, max chunk, per-task mean chunk sizes.
type BatchRow = (u64, u64, u64, Vec<u64>);

/// Fold the accumulated per-(stage, op) rows into a [`BatchReport`] in
/// first-seen order. A key present in `order` but missing from `rows`
/// (duplicate order entries from a journal inconsistency) used to panic and
/// poison the whole report; it now yields a zeroed warning row so the rest
/// of the report still renders.
fn drain_batch_rows(
    order: Vec<(String, String)>,
    mut rows: std::collections::HashMap<(String, String), BatchRow>,
) -> BatchReport {
    let mut report = BatchReport::default();
    for key in order {
        let Some((chunks, records, max_chunk, mut avgs)) = rows.remove(&key) else {
            report.stages.push(BatchStageReport {
                stage: key.0,
                op: format!("{} [warning: journal row missing]", key.1),
                ..BatchStageReport::default()
            });
            continue;
        };
        avgs.sort_unstable();
        let p50 = if avgs.is_empty() {
            0
        } else {
            avgs[(avgs.len() - 1) / 2]
        };
        report.chunks += chunks;
        report.records += records;
        report.stages.push(BatchStageReport {
            stage: key.0,
            op: key.1,
            chunks,
            records,
            p50_chunk_records: p50,
            max_chunk_records: max_chunk,
        });
    }
    report
}

/// Out-of-core aggregates captured into a [`JobReport`]: what the disk tier
/// absorbed, what it handed back, and how close each executor came to its
/// memory budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillReport {
    /// Bytes serialized to spill files (cache blocks + shuffle buckets).
    pub bytes_spilled: u64,
    /// Bytes read back and deserialized from spill files.
    pub bytes_read_back: u64,
    /// Spill files created (one per executor incarnation that spilled).
    pub spill_files: u64,
    /// Cache blocks that went to disk instead of being dropped.
    pub blocks_spilled: u64,
    /// Shuffle buckets written to disk under memory pressure.
    pub buckets_spilled: u64,
    /// Cache puts refused outright (oversized, no spill codec).
    pub cache_skipped: u64,
    /// Peak resident bytes per executor (cache + shuffle pools jointly).
    pub peak_resident: Vec<u64>,
}

impl SpillReport {
    fn capture(cluster: &Cluster) -> Self {
        let m = cluster.metrics();
        SpillReport {
            bytes_spilled: m.spill_bytes_written.get(),
            bytes_read_back: m.spill_bytes_read.get(),
            spill_files: m.spill_files_created.get(),
            blocks_spilled: m.blocks_spilled.get(),
            buckets_spilled: m.buckets_spilled.get(),
            cache_skipped: m.cache_skipped.get(),
            peak_resident: cluster.spill().peak_resident(),
        }
    }

    /// Did the disk tier (or the skip path) engage during the run?
    pub fn any(&self) -> bool {
        self.bytes_spilled > 0 || self.bytes_read_back > 0 || self.cache_skipped > 0
    }
}

/// Bound-driven pruning aggregates captured into a [`JobReport`]: summed
/// over every [`EventKind::PruneApplied`] event in the journal. Pruning is
/// lossless by construction, so this section describes work *saved*, never
/// results changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Pruning passes journaled (classify blocks, memo lookups, …).
    pub passes: u64,
    /// Voronoi cells skipped wholesale by the annulus bound.
    pub cells_skipped: u64,
    /// Cell residents rejected by the triangle-inequality window.
    pub bound_rejected: u64,
    /// Distance evaluations actually performed.
    pub evals_done: u64,
    /// Distance evaluations avoided.
    pub evals_avoided: u64,
    /// Pair distances answered from the cross-call memo.
    pub memo_hits: u64,
}

impl PruneReport {
    fn capture(cluster: &Cluster) -> Self {
        let mut report = PruneReport::default();
        for ev in cluster.journal().events() {
            let EventKind::PruneApplied {
                cells_skipped,
                bound_rejected,
                evals_done,
                evals_avoided,
                memo_hits,
                ..
            } = ev.kind
            else {
                continue;
            };
            report.passes += 1;
            report.cells_skipped += cells_skipped;
            report.bound_rejected += bound_rejected;
            report.evals_done += evals_done;
            report.evals_avoided += evals_avoided;
            report.memo_hits += memo_hits;
        }
        report
    }

    /// Did any pruning pass run?
    pub fn any(&self) -> bool {
        self.passes > 0
    }

    /// Fraction of would-be distance evaluations avoided, in `[0, 1]`.
    pub fn avoided_fraction(&self) -> f64 {
        let would_be = self.evals_done + self.evals_avoided;
        if would_be == 0 {
            0.0
        } else {
            self.evals_avoided as f64 / would_be as f64
        }
    }
}

/// One committed micro-batch in the [`IngestReport`], folded from an
/// [`EventKind::IngestBatchCommitted`] journal event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestBatchRow {
    /// Batch index (== quarter index for quarterly replay).
    pub batch: u64,
    /// Reports ingested by this batch.
    pub reports: u64,
    /// Candidate pairs scored (detections emitted).
    pub detections: u64,
    /// Detections classified duplicate.
    pub duplicates: u64,
    /// Failed attempts before the one that committed.
    pub retries: u64,
    /// Admission-gate deferrals before this batch started.
    pub deferrals: u64,
    /// Virtual latency of the committed attempt plus checkpoint write (µs).
    pub latency_us: u64,
    /// Size of the checkpoint generation written at commit (bytes).
    pub checkpoint_bytes: u64,
}

/// Streaming-ingest aggregates captured into a [`JobReport`]: per-batch
/// latency/retry rows plus quarantine, backpressure and recovery totals,
/// folded from the coalesced ingest journal events (one per batch, so the
/// section stays bounded however long the service runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Batches committed, in commit order.
    pub batches: Vec<IngestBatchRow>,
    /// Batches quarantined after exhausting their retry budget.
    pub batches_quarantined: u64,
    /// Failed attempts summed over committed batches.
    pub batch_retries: u64,
    /// Admission-gate deferrals (backpressure waits).
    pub deferrals: u64,
    /// Checkpoint recoveries (restarts resumed from a checkpoint).
    pub recoveries: u64,
    /// Recoveries that fell back past a corrupt newest generation.
    pub checkpoint_fallbacks: u64,
    /// Driver kills journaled by fault points.
    pub driver_kills: u64,
    /// Checkpoint bytes written, summed over commits.
    pub checkpoint_bytes: u64,
}

impl IngestReport {
    fn capture(cluster: &Cluster) -> Self {
        let mut report = IngestReport::default();
        for ev in cluster.journal().events() {
            match ev.kind {
                EventKind::IngestBatchCommitted {
                    batch,
                    reports,
                    detections,
                    duplicates,
                    retries,
                    deferrals,
                    latency_us,
                    checkpoint_bytes,
                } => {
                    report.batch_retries += retries;
                    report.checkpoint_bytes += checkpoint_bytes;
                    report.batches.push(IngestBatchRow {
                        batch,
                        reports,
                        detections,
                        duplicates,
                        retries,
                        deferrals,
                        latency_us,
                        checkpoint_bytes,
                    });
                }
                EventKind::IngestDeferred { .. } => report.deferrals += 1,
                EventKind::IngestQuarantined { .. } => report.batches_quarantined += 1,
                EventKind::IngestRecovered { fallback, .. } => {
                    report.recoveries += 1;
                    if fallback {
                        report.checkpoint_fallbacks += 1;
                    }
                }
                EventKind::DriverKilled { .. } => report.driver_kills += 1,
                _ => {}
            }
        }
        report
    }

    /// Did an ingest service run on this cluster?
    pub fn any(&self) -> bool {
        !self.batches.is_empty()
            || self.batches_quarantined > 0
            || self.recoveries > 0
            || self.driver_kills > 0
    }
}

/// Power-of-two histogram buckets in a [`ServeReport`]: bucket `i` counts
/// batches of `2^i` requests or fewer (but more than `2^(i-1)`), with the
/// last bucket absorbing everything larger.
pub const SERVE_HIST_BUCKETS: usize = 11;

/// Serving aggregates captured into a [`JobReport`], folded from the
/// coalesced [`EventKind::ServeBatchExecuted`] journal events (one per
/// micro-batch, so the section stays bounded however long the open-loop
/// load runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Requests answered, summed over batches.
    pub requests: u64,
    /// Largest queue depth observed at any dispatch.
    pub max_queue_depth: u64,
    /// Batch-size histogram: bucket `i` counts batches of at most `2^i`
    /// requests (last bucket open-ended).
    pub batch_size_hist: [u64; SERVE_HIST_BUCKETS],
    /// Signal-memo lookups issued.
    pub memo_lookups: u64,
    /// Signal-memo lookups answered from the memo.
    pub memo_hits: u64,
    /// Virtual service time summed over batches (µs).
    pub service_us: u64,
}

impl ServeReport {
    fn capture(cluster: &Cluster) -> Self {
        let mut report = ServeReport::default();
        for ev in cluster.journal().events() {
            if let EventKind::ServeBatchExecuted {
                requests,
                queue_depth,
                memo_lookups,
                memo_hits,
                service_us,
                ..
            } = ev.kind
            {
                report.batches += 1;
                report.requests += requests;
                report.max_queue_depth = report.max_queue_depth.max(queue_depth);
                let bucket = (64 - requests.max(1).next_power_of_two().leading_zeros() - 1)
                    .min(SERVE_HIST_BUCKETS as u32 - 1);
                report.batch_size_hist[bucket as usize] += 1;
                report.memo_lookups += memo_lookups;
                report.memo_hits += memo_hits;
                report.service_us += service_us;
            }
        }
        report
    }

    /// Did a serve service run on this cluster?
    pub fn any(&self) -> bool {
        self.batches > 0
    }

    /// Fraction of signal-memo lookups answered from the memo, in `[0, 1]`.
    pub fn memo_hit_rate(&self) -> f64 {
        if self.memo_lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.memo_lookups as f64
        }
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Maximum failure lines embedded in a report (the journal may hold more).
/// Cap on the failure lines a [`JobReport`] retains (fault-injection runs
/// can fail thousands of attempts; the report keeps the first few).
pub const MAX_REPORT_FAILURES: usize = 32;

/// A full, serialisable run report: stage timeline, attempt/retry counts,
/// shuffle and cache statistics, failures and user counters.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// JSON schema version (bump when the shape changes).
    pub schema_version: u32,
    /// Per-stage aggregates in execution order.
    pub stages: Vec<StageReport>,
    /// Engine counter totals.
    pub totals: ReportTotals,
    /// Failure-recovery totals: executor losses, fetch failures and lineage
    /// recomputation.
    pub recovery: RecoveryReport,
    /// Morsel-scheduling aggregates: steal counts and the per-worker
    /// utilization table (empty when no stage ran morsel-driven).
    pub sched: SchedReport,
    /// Chunked-execution aggregates: chunks/records per stage-operator
    /// (empty when nothing ran batch-path).
    pub batch: BatchReport,
    /// Out-of-core aggregates: spill volume both ways, file counts and the
    /// per-executor peak-resident high-water marks (empty when the run
    /// never touched the disk tier).
    pub spill: SpillReport,
    /// Bound-driven pruning aggregates: cells skipped, residents rejected
    /// by the triangle-inequality window, distance evaluations avoided and
    /// memo hits (empty when no pruning pass was journaled).
    pub prune: PruneReport,
    /// Streaming-ingest aggregates: per-batch latency/retry/checkpoint rows
    /// plus quarantine, backpressure and recovery totals (empty when no
    /// ingest service ran).
    pub ingest: IngestReport,
    /// Serving aggregates: micro-batch counts, queue depth, batch-size
    /// histogram and signal-memo hit rate (empty when no serve service ran).
    pub serve: ServeReport,
    /// First [`MAX_REPORT_FAILURES`] task-attempt failures, in order.
    pub failures: Vec<FailureLine>,
    /// User counters, sorted by name.
    pub user_counters: Vec<(String, u64)>,
    /// Virtual elapsed time on the cluster's own topology (µs).
    pub virtual_us: u64,
    /// Parallelism-independent total work (µs).
    pub total_work_us: u64,
}

impl JobReport {
    /// Current JSON schema version (2 added the `recovery` section, 3 the
    /// `sched` section, 4 the `batch` section, 5 the `spill` section, 6 the
    /// `prune` section, 7 the `ingest` section, 8 the `serve` section; 9
    /// removed `batch.dispatch_saved_us` and the two straggler-clone counters
    /// of `recovery` with the switches they described — DESIGN.md "Retired
    /// baselines" lists them by name).
    pub const SCHEMA_VERSION: u32 = 9;

    /// Snapshot a cluster's clock, metrics and journal into a report.
    pub fn capture(cluster: &Cluster) -> Self {
        let m = cluster.metrics();
        let journal = cluster.journal();
        let mut failures = Vec::new();
        for ev in journal.events() {
            if let EventKind::TaskFailed {
                stage,
                task,
                attempt,
                reason,
                ..
            } = ev.kind
            {
                if failures.len() < MAX_REPORT_FAILURES {
                    failures.push(FailureLine {
                        stage,
                        task,
                        attempt,
                        reason,
                    });
                }
            }
        }
        JobReport {
            schema_version: Self::SCHEMA_VERSION,
            stages: cluster
                .clock()
                .with_stages(|st| st.iter().map(StageReport::from_record).collect()),
            totals: ReportTotals {
                jobs_submitted: m.jobs_submitted.get(),
                tasks_launched: m.tasks_launched.get(),
                tasks_succeeded: m.tasks_succeeded.get(),
                tasks_failed: m.tasks_failed.get(),
                memory_kills: m.memory_kills.get(),
                shuffle_records_written: m.shuffle_records_written.get(),
                shuffle_bytes_written: m.shuffle_bytes_written.get(),
                shuffle_records_read: m.shuffle_records_read.get(),
                cache_hits: m.cache_hits.get(),
                cache_misses: m.cache_misses.get(),
                cache_evictions: m.cache_evictions.get(),
                events: journal.len() as u64 + journal.dropped(),
                events_dropped: journal.dropped(),
            },
            sched: SchedReport::capture(cluster),
            batch: BatchReport::capture(cluster),
            spill: SpillReport::capture(cluster),
            prune: PruneReport::capture(cluster),
            ingest: IngestReport::capture(cluster),
            serve: ServeReport::capture(cluster),
            recovery: RecoveryReport {
                executors_lost: m.executors_lost.get(),
                executors_blacklisted: m.executors_blacklisted.get(),
                fetch_failures: m.fetch_failures.get(),
                recomputed_map_tasks: m.recomputed_tasks.get(),
                tasks_lost: m.tasks_lost.get(),
            },
            failures,
            user_counters: m.user_counters(),
            virtual_us: cluster.virtual_elapsed().us,
            total_work_us: cluster.clock().total_work().us,
        }
    }

    /// Stages flagged as stragglers.
    pub fn straggler_stages(&self) -> impl Iterator<Item = &StageReport> {
        self.stages.iter().filter(|s| s.straggler)
    }

    /// Serialise to schema-stable JSON (hand-rolled: the workspace vendors
    /// no `serde_json`). Field order is fixed; strings are escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + 256 * self.stages.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"virtual_us\": {},\n", self.virtual_us));
        out.push_str(&format!("  \"total_work_us\": {},\n", self.total_work_us));
        let t = &self.totals;
        out.push_str("  \"totals\": {");
        out.push_str(&format!(
            "\"jobs_submitted\": {}, \"tasks_launched\": {}, \"tasks_succeeded\": {}, \
             \"tasks_failed\": {}, \"memory_kills\": {}, \"shuffle_records_written\": {}, \
             \"shuffle_bytes_written\": {}, \"shuffle_records_read\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"cache_evictions\": {}, \"events\": {}, \
             \"events_dropped\": {}",
            t.jobs_submitted,
            t.tasks_launched,
            t.tasks_succeeded,
            t.tasks_failed,
            t.memory_kills,
            t.shuffle_records_written,
            t.shuffle_bytes_written,
            t.shuffle_records_read,
            t.cache_hits,
            t.cache_misses,
            t.cache_evictions,
            t.events,
            t.events_dropped,
        ));
        out.push_str("},\n");
        let r = &self.recovery;
        out.push_str("  \"recovery\": {");
        out.push_str(&format!(
            "\"executors_lost\": {}, \"executors_blacklisted\": {}, \"fetch_failures\": {}, \
             \"recomputed_map_tasks\": {}, \"tasks_lost\": {}",
            r.executors_lost,
            r.executors_blacklisted,
            r.fetch_failures,
            r.recomputed_map_tasks,
            r.tasks_lost,
        ));
        out.push_str("},\n");
        let sc = &self.sched;
        out.push_str("  \"sched\": {");
        out.push_str(&format!(
            "\"workers\": {}, \"morsel_stages\": {}, \"morsels\": {}, \"steals\": {}, \
             \"makespan_us\": {}, \"utilization\": {:.4}, \"imbalance\": {:.4}, \
             \"per_worker\": [",
            sc.workers,
            sc.morsel_stages,
            sc.morsels,
            sc.steals,
            sc.makespan_us,
            sc.utilization,
            sc.imbalance,
        ));
        for (i, w) in sc.per_worker.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"worker\": {}, \"busy_us\": {}, \"morsels\": {}, \"steals\": {}}}",
                w.worker, w.busy_us, w.morsels, w.steals
            ));
        }
        out.push_str("]},\n");
        let b = &self.batch;
        out.push_str("  \"batch\": {");
        out.push_str(&format!(
            "\"chunks\": {}, \"records\": {}, \"stages\": [",
            b.chunks, b.records,
        ));
        for (i, s) in b.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"stage\": {}, \"op\": {}, \"chunks\": {}, \"records\": {}, \
                 \"p50_chunk_records\": {}, \"max_chunk_records\": {}}}",
                json_string(&s.stage),
                json_string(&s.op),
                s.chunks,
                s.records,
                s.p50_chunk_records,
                s.max_chunk_records,
            ));
        }
        out.push_str("]},\n");
        let sp = &self.spill;
        out.push_str("  \"spill\": {");
        out.push_str(&format!(
            "\"bytes_spilled\": {}, \"bytes_read_back\": {}, \"spill_files\": {}, \
             \"blocks_spilled\": {}, \"buckets_spilled\": {}, \"cache_skipped\": {}, \
             \"peak_resident\": [",
            sp.bytes_spilled,
            sp.bytes_read_back,
            sp.spill_files,
            sp.blocks_spilled,
            sp.buckets_spilled,
            sp.cache_skipped,
        ));
        for (i, p) in sp.peak_resident.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&p.to_string());
        }
        out.push_str("]},\n");
        let pr = &self.prune;
        out.push_str("  \"prune\": {");
        out.push_str(&format!(
            "\"passes\": {}, \"cells_skipped\": {}, \"bound_rejected\": {}, \
             \"evals_done\": {}, \"evals_avoided\": {}, \"memo_hits\": {}, \
             \"avoided_fraction\": {:.4}",
            pr.passes,
            pr.cells_skipped,
            pr.bound_rejected,
            pr.evals_done,
            pr.evals_avoided,
            pr.memo_hits,
            pr.avoided_fraction(),
        ));
        out.push_str("},\n");
        let ing = &self.ingest;
        out.push_str("  \"ingest\": {");
        out.push_str(&format!(
            "\"batches_committed\": {}, \"batches_quarantined\": {}, \"batch_retries\": {}, \
             \"deferrals\": {}, \"recoveries\": {}, \"checkpoint_fallbacks\": {}, \
             \"driver_kills\": {}, \"checkpoint_bytes\": {}, \"batches\": [",
            ing.batches.len(),
            ing.batches_quarantined,
            ing.batch_retries,
            ing.deferrals,
            ing.recoveries,
            ing.checkpoint_fallbacks,
            ing.driver_kills,
            ing.checkpoint_bytes,
        ));
        for (i, b) in ing.batches.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"batch\": {}, \"reports\": {}, \"detections\": {}, \"duplicates\": {}, \
                 \"retries\": {}, \"deferrals\": {}, \"latency_us\": {}, \
                 \"checkpoint_bytes\": {}}}",
                b.batch,
                b.reports,
                b.detections,
                b.duplicates,
                b.retries,
                b.deferrals,
                b.latency_us,
                b.checkpoint_bytes,
            ));
        }
        out.push_str("]},\n");
        let sv = &self.serve;
        out.push_str("  \"serve\": {");
        out.push_str(&format!(
            "\"batches\": {}, \"requests\": {}, \"max_queue_depth\": {}, \
             \"memo_lookups\": {}, \"memo_hits\": {}, \"memo_hit_rate\": {:.4}, \
             \"mean_batch_size\": {:.2}, \"service_us\": {}, \"batch_size_hist\": [",
            sv.batches,
            sv.requests,
            sv.max_queue_depth,
            sv.memo_lookups,
            sv.memo_hits,
            sv.memo_hit_rate(),
            sv.mean_batch_size(),
            sv.service_us,
        ));
        for (i, count) in sv.batch_size_hist.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&count.to_string());
        }
        out.push_str("]},\n");
        out.push_str("  \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"name\": {}, \"tasks\": {}, \"attempts\": {}, \"retries\": {}, \
                 \"min_task_us\": {}, \"p50_task_us\": {}, \"max_task_us\": {}, \
                 \"total_task_us\": {}, \"shuffle_bytes\": {}, \"straggler\": {}",
                json_string(&s.name),
                s.tasks,
                s.attempts,
                s.retries,
                s.min_task_us,
                s.p50_task_us,
                s.max_task_us,
                s.total_task_us,
                s.shuffle_bytes,
                s.straggler,
            ));
            out.push('}');
        }
        if !self.stages.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"failures\": [");
        for (i, fl) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"stage\": {}, \"task\": {}, \"attempt\": {}, \"reason\": {}",
                json_string(&fl.stage),
                fl.task,
                fl.attempt,
                json_string(&fl.reason),
            ));
            out.push('}');
        }
        if !self.failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"user_counters\": {");
        for (i, (name, value)) in self.user_counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(name), value));
        }
        out.push_str("}\n");
        out.push_str("}\n");
        out
    }
}

/// Escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run journal: {} stages, {} tasks ({} retries, {} failed attempts), \
             virtual {:.2}s (total work {:.2}s), {} events{}",
            self.stages.len(),
            self.stages.iter().map(|s| s.tasks).sum::<usize>(),
            self.totals.tasks_failed.saturating_sub(0),
            self.totals.tasks_failed,
            self.virtual_us as f64 / 1e6,
            self.total_work_us as f64 / 1e6,
            self.totals.events,
            if self.totals.events_dropped > 0 {
                format!(" ({} dropped)", self.totals.events_dropped)
            } else {
                String::new()
            }
        )?;
        writeln!(
            f,
            "{:<40} {:>5} {:>4} {:>9} {:>9} {:>9} {:>11} {:>8}",
            "stage", "tasks", "try", "min(ms)", "p50(ms)", "max(ms)", "shuffle(B)", "flags"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<40} {:>5} {:>4} {:>9.1} {:>9.1} {:>9.1} {:>11} {:>8}",
                truncate_name(&s.name, 40),
                s.tasks,
                s.attempts,
                s.min_task_us as f64 / 1e3,
                s.p50_task_us as f64 / 1e3,
                s.max_task_us as f64 / 1e3,
                s.shuffle_bytes,
                if s.straggler { "STRAGGLE" } else { "" }
            )?;
        }
        writeln!(
            f,
            "cache: {} hits / {} misses / {} evictions   shuffle: {} B written, {} records read",
            self.totals.cache_hits,
            self.totals.cache_misses,
            self.totals.cache_evictions,
            self.totals.shuffle_bytes_written,
            self.totals.shuffle_records_read,
        )?;
        if self.spill.any() {
            let sp = &self.spill;
            writeln!(
                f,
                "spill: {} B written / {} B read back across {} files \
                 ({} blocks, {} buckets), {} cache puts skipped, \
                 peak resident max {} B",
                sp.bytes_spilled,
                sp.bytes_read_back,
                sp.spill_files,
                sp.blocks_spilled,
                sp.buckets_spilled,
                sp.cache_skipped,
                sp.peak_resident.iter().copied().max().unwrap_or(0),
            )?;
        }
        if self.prune.any() {
            let pr = &self.prune;
            writeln!(
                f,
                "prune: {} passes, {} cells skipped, {} residents bound-rejected, \
                 {} / {} evals avoided ({:.1}%), {} memo hits",
                pr.passes,
                pr.cells_skipped,
                pr.bound_rejected,
                pr.evals_avoided,
                pr.evals_done + pr.evals_avoided,
                pr.avoided_fraction() * 100.0,
                pr.memo_hits,
            )?;
        }
        if self.recovery.any() {
            let r = &self.recovery;
            writeln!(
                f,
                "recovery: {} executors lost ({} blacklisted), {} fetch failures, \
                 {} map tasks recomputed, {} in-flight results rescheduled",
                r.executors_lost,
                r.executors_blacklisted,
                r.fetch_failures,
                r.recomputed_map_tasks,
                r.tasks_lost,
            )?;
        }
        if self.sched.morsel_stages > 0 {
            let sc = &self.sched;
            writeln!(
                f,
                "scheduling: {} morsel stages, {} morsels ({} stolen), \
                 utilization {:.1}%, imbalance {:.2}",
                sc.morsel_stages,
                sc.morsels,
                sc.steals,
                sc.utilization * 100.0,
                sc.imbalance,
            )?;
            writeln!(
                f,
                "{:>6} {:>10} {:>8} {:>7} {:>6}",
                "worker", "busy(ms)", "morsels", "steals", "util%"
            )?;
            for w in &sc.per_worker {
                writeln!(
                    f,
                    "{:>6} {:>10.1} {:>8} {:>7} {:>6.1}",
                    w.worker,
                    w.busy_us as f64 / 1e3,
                    w.morsels,
                    w.steals,
                    100.0 * w.busy_us as f64 / sc.makespan_us.max(1) as f64,
                )?;
            }
        }
        if self.batch.any() {
            let b = &self.batch;
            writeln!(
                f,
                "batch: {} chunks / {} records across {} stage-ops",
                b.chunks,
                b.records,
                b.stages.len(),
            )?;
        }
        if self.ingest.any() {
            let ing = &self.ingest;
            writeln!(
                f,
                "ingest: {} batches committed ({} retries), {} quarantined, \
                 {} deferrals, {} recoveries ({} fallbacks), {} driver kills, \
                 {} checkpoint B",
                ing.batches.len(),
                ing.batch_retries,
                ing.batches_quarantined,
                ing.deferrals,
                ing.recoveries,
                ing.checkpoint_fallbacks,
                ing.driver_kills,
                ing.checkpoint_bytes,
            )?;
            writeln!(
                f,
                "{:>6} {:>8} {:>8} {:>6} {:>4} {:>6} {:>12} {:>8}",
                "batch", "reports", "detect", "dup", "try", "defer", "latency(ms)", "ckpt(B)"
            )?;
            for b in &ing.batches {
                writeln!(
                    f,
                    "{:>6} {:>8} {:>8} {:>6} {:>4} {:>6} {:>12.1} {:>8}",
                    b.batch,
                    b.reports,
                    b.detections,
                    b.duplicates,
                    b.retries,
                    b.deferrals,
                    b.latency_us as f64 / 1e3,
                    b.checkpoint_bytes,
                )?;
            }
        }
        if self.serve.any() {
            let sv = &self.serve;
            writeln!(
                f,
                "serve: {} requests in {} batches (mean size {:.1}, max queue {}), \
                 memo {}/{} hits ({:.1}%), {:.1} ms service",
                sv.requests,
                sv.batches,
                sv.mean_batch_size(),
                sv.max_queue_depth,
                sv.memo_hits,
                sv.memo_lookups,
                sv.memo_hit_rate() * 100.0,
                sv.service_us as f64 / 1e3,
            )?;
            write!(f, "serve batch sizes:")?;
            for (i, &count) in sv.batch_size_hist.iter().enumerate() {
                if count > 0 {
                    write!(f, " <={}:{}", 1u64 << i, count)?;
                }
            }
            writeln!(f)?;
        }
        for fl in &self.failures {
            writeln!(
                f,
                "failure: {} task {} attempt {}: {}",
                truncate_name(&fl.stage, 40),
                fl.task,
                fl.attempt,
                fl.reason
            )?;
        }
        if !self.user_counters.is_empty() {
            writeln!(f, "user counters:")?;
            for (name, value) in &self.user_counters {
                writeln!(f, "  {name} = {value}")?;
            }
        }
        Ok(())
    }
}

fn truncate_name(name: &str, width: usize) -> &str {
    match name.char_indices().nth(width) {
        Some((idx, _)) => &name[..idx],
        None => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultConfig;
    use crate::{ClusterConfig, PairRdd};

    #[test]
    fn journal_records_stage_and_task_events() {
        let c = Cluster::local(2);
        c.run_job("probe", 3, |i, _| Ok(vec![i])).unwrap();
        let events = c.journal().events();
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags.iter().filter(|t| **t == "stage_started").count(), 1);
        assert_eq!(tags.iter().filter(|t| **t == "stage_finished").count(), 1);
        assert_eq!(tags.iter().filter(|t| **t == "task_launched").count(), 3);
        assert_eq!(tags.iter().filter(|t| **t == "task_succeeded").count(), 3);
        // Sequence numbers are unique and ordered.
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn failures_and_retries_are_journaled_with_reasons() {
        let mut cfg = ClusterConfig::local(1);
        cfg.fault = FaultConfig::with_probability(1.0, 3);
        cfg.max_task_attempts = 2;
        let c = Cluster::new(cfg);
        let _ = c
            .run_job::<u8, _>("doomed", 1, |_, _| Ok(vec![]))
            .unwrap_err();
        let failed: Vec<Event> = c
            .journal()
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::TaskFailed { .. }))
            .collect();
        assert_eq!(failed.len(), 2);
        match (&failed[0].kind, &failed[1].kind) {
            (
                EventKind::TaskFailed {
                    will_retry: r0,
                    reason,
                    ..
                },
                EventKind::TaskFailed { will_retry: r1, .. },
            ) => {
                assert!(*r0, "first failure retries");
                assert!(!*r1, "last failure does not");
                assert!(reason.contains("fault"), "reason: {reason}");
            }
            other => panic!("unexpected kinds: {other:?}"),
        }
        let report = JobReport::capture(&c);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.totals.tasks_failed, 2);
    }

    #[test]
    fn cache_and_shuffle_events_flow_through_rdd_execution() {
        let c = Cluster::local(2);
        let cached = c
            .parallelize((0..64u32).collect::<Vec<_>>(), 4)
            .map(|x| (x % 4, x))
            .reduce_by_key(|a, b| a + b, 2)
            .cache();
        cached.count().unwrap();
        cached.count().unwrap();
        let tags: Vec<&str> = c.journal().events().iter().map(|e| e.kind.tag()).collect();
        assert!(tags.contains(&"shuffle_write"));
        assert!(tags.contains(&"shuffle_read"));
        assert!(tags.contains(&"cache_miss"), "first count computes");
        assert!(tags.contains(&"cache_hit"), "second count hits");
    }

    #[test]
    fn report_aggregates_stage_distribution_and_flags_stragglers() {
        let c = Cluster::local(4);
        c.run_job("skewed", 4, |i, ctx| {
            if i == 0 {
                ctx.charge_ops(10_000_000);
            }
            Ok(vec![0u8])
        })
        .unwrap();
        let report = c.job_report();
        assert_eq!(report.stages.len(), 1);
        let s = &report.stages[0];
        assert_eq!(s.tasks, 4);
        assert!(s.min_task_us <= s.p50_task_us && s.p50_task_us <= s.max_task_us);
        assert!(s.straggler, "one hot task over 3 cold ones must flag");
        assert_eq!(report.straggler_stages().count(), 1);
    }

    #[test]
    fn ingest_section_folds_coalesced_batch_events() {
        let c = Cluster::local(2);
        c.journal().record(EventKind::IngestRecovered {
            generation: 3,
            batch_high_water: 2,
            fallback: true,
        });
        for batch in 2..4u64 {
            c.journal().record(EventKind::IngestBatchCommitted {
                batch,
                reports: 50,
                detections: 120,
                duplicates: 4,
                retries: batch - 2,
                deferrals: 0,
                latency_us: 1_000 * batch,
                checkpoint_bytes: 2_048,
            });
        }
        c.journal().record(EventKind::IngestDeferred {
            batch: 4,
            resident_bytes: 1 << 20,
            lagged_pairs: 999,
            waited_us: 500,
        });
        c.journal().record(EventKind::IngestQuarantined {
            batch: 4,
            reports: 50,
            attempts: 3,
            reason: "injected".into(),
        });
        let report = c.job_report();
        assert!(report.ingest.any());
        assert_eq!(report.ingest.batches.len(), 2);
        assert_eq!(report.ingest.batches[0].batch, 2);
        assert_eq!(report.ingest.batches[1].retries, 1);
        assert_eq!(report.ingest.batch_retries, 1);
        assert_eq!(report.ingest.batches_quarantined, 1);
        assert_eq!(report.ingest.deferrals, 1);
        assert_eq!(report.ingest.recoveries, 1);
        assert_eq!(report.ingest.checkpoint_fallbacks, 1);
        assert_eq!(report.ingest.checkpoint_bytes, 4_096);
        let json = report.to_json();
        assert!(json.contains("\"batches_committed\": 2"));
        assert!(json.contains("\"checkpoint_fallbacks\": 1"));
        let text = report.to_string();
        assert!(text.contains("ingest: 2 batches committed"));
    }

    #[test]
    fn serve_events_fold_into_the_serve_section() {
        let c = Cluster::local(2);
        for (batch, requests, queue_depth) in [(0u64, 1u64, 0u64), (1, 16, 3), (2, 1500, 40)] {
            c.journal().record(EventKind::ServeBatchExecuted {
                batch,
                requests,
                queue_depth,
                memo_lookups: 10,
                memo_hits: 4,
                service_us: 100,
                latency_us: 250,
            });
        }
        let report = c.job_report();
        assert!(report.serve.any());
        assert_eq!(report.serve.batches, 3);
        assert_eq!(report.serve.requests, 1517);
        assert_eq!(report.serve.max_queue_depth, 40);
        // Pow2 buckets: 1 → bucket 0, 16 → bucket 4, 1500 → clamped last.
        assert_eq!(report.serve.batch_size_hist[0], 1);
        assert_eq!(report.serve.batch_size_hist[4], 1);
        assert_eq!(report.serve.batch_size_hist[SERVE_HIST_BUCKETS - 1], 1);
        assert_eq!(report.serve.memo_lookups, 30);
        assert_eq!(report.serve.memo_hits, 12);
        assert!((report.serve.memo_hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(report.serve.service_us, 300);
        let json = report.to_json();
        assert!(json.contains("\"serve\": {\"batches\": 3, \"requests\": 1517"));
        assert!(json.contains("\"memo_hit_rate\": 0.4000"));
        let text = report.to_string();
        assert!(text.contains("serve: 1517 requests in 3 batches"));
        assert!(text.contains("<=1:1"));
        // A run with no serve events emits the JSON section but no text.
        let quiet = Cluster::local(1);
        quiet.run_job("q", 1, |_, _| Ok(vec![0u8])).unwrap();
        let quiet_report = quiet.job_report();
        assert!(!quiet_report.serve.any());
        assert!(quiet_report
            .to_json()
            .contains("\"serve\": {\"batches\": 0"));
        assert!(!quiet_report.to_string().contains("serve:"));
    }

    #[test]
    fn json_is_schema_stable_and_escaped() {
        let c = Cluster::local(2);
        c.run_job("quoted \"stage\"\n", 2, |_, ctx| {
            ctx.counter("things").add(3);
            Ok(vec![1u8])
        })
        .unwrap();
        let json = c.job_report().to_json();
        for key in [
            "\"schema_version\": 9",
            "\"batch\"",
            "\"ingest\"",
            "\"serve\"",
            "\"max_queue_depth\"",
            "\"memo_hit_rate\"",
            "\"mean_batch_size\"",
            "\"batch_size_hist\"",
            "\"batches_committed\"",
            "\"batches_quarantined\"",
            "\"checkpoint_fallbacks\"",
            "\"driver_kills\"",
            "\"checkpoint_bytes\"",
            "\"prune\"",
            "\"cells_skipped\"",
            "\"evals_avoided\"",
            "\"memo_hits\"",
            "\"avoided_fraction\"",
            "\"spill\"",
            "\"bytes_spilled\"",
            "\"bytes_read_back\"",
            "\"peak_resident\"",
            "\"cache_skipped\"",
            "\"virtual_us\"",
            "\"total_work_us\"",
            "\"totals\"",
            "\"jobs_submitted\"",
            "\"recovery\"",
            "\"executors_lost\"",
            "\"fetch_failures\"",
            "\"recomputed_map_tasks\"",
            "\"tasks_lost\"",
            "\"sched\"",
            "\"morsel_stages\"",
            "\"utilization\"",
            "\"imbalance\"",
            "\"per_worker\"",
            "\"stages\"",
            "\"attempts\"",
            "\"p50_task_us\"",
            "\"straggler\"",
            "\"failures\"",
            "\"user_counters\"",
            "\"events\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.contains("quoted \\\"stage\\\"\\n"), "escaping: {json}");
        assert!(json.contains("\"things\": 6"), "user counter: {json}");
        // Brace balance as a cheap well-formedness proxy.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn text_report_renders_the_stage_table() {
        let c = Cluster::local(2);
        c.run_job("render-me", 2, |_, _| Ok(vec![1u8])).unwrap();
        let text = c.job_report().to_string();
        assert!(text.contains("run journal"));
        assert!(text.contains("render-me"));
        assert!(text.contains("p50(ms)"));
    }

    #[test]
    fn reset_run_state_clears_the_journal() {
        let c = Cluster::local(2);
        c.run_job("x", 2, |_, _| Ok(vec![0u8])).unwrap();
        assert!(!c.journal().is_empty());
        c.reset_run_state();
        assert!(c.journal().is_empty());
        assert_eq!(c.journal().dropped(), 0);
    }

    #[test]
    fn journal_is_bounded() {
        let j = RunJournal::new();
        for _ in 0..(RunJournal::MAX_EVENTS + 10) {
            j.record(EventKind::CacheHit {
                rdd: 0,
                partition: 0,
            });
        }
        assert_eq!(j.len(), RunJournal::MAX_EVENTS);
        assert_eq!(j.dropped(), 10);
        j.clear();
        assert_eq!(j.len(), 0);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn virtual_stamps_are_monotone_across_stages() {
        let c = Cluster::local(1);
        c.run_job("first", 2, |_, ctx| {
            ctx.charge_ops(1000);
            Ok(vec![0u8])
        })
        .unwrap();
        c.run_job("second", 2, |_, _| Ok(vec![0u8])).unwrap();
        let events = c.journal().events();
        let first_start = events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::StageStarted { stage, .. } if stage == "first"))
            .unwrap();
        let second_start = events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::StageStarted { stage, .. } if stage == "second"))
            .unwrap();
        assert!(second_start.at_us > first_start.at_us);
    }

    #[test]
    fn empty_report_is_valid() {
        let c = Cluster::local(1);
        let report = c.job_report();
        assert!(report.stages.is_empty());
        assert!(report.failures.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"stages\": []"));
        let _ = report.to_string();
    }

    #[test]
    fn json_string_escapes_control_chars() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("x\u{1}"), "\"x\\u0001\"");
    }

    #[test]
    fn sched_report_captures_morsel_stages_and_steals() {
        let c = Cluster::local(4);
        // One skewed partition: morsels spill over and get stolen.
        let partitions: Vec<Vec<u64>> = vec![vec![500; 64], vec![500; 2], vec![], vec![500]];
        c.run_morsel_job(
            "skewed",
            partitions,
            |&w| w,
            |_, items, ctx| {
                ctx.charge_ops(items.iter().sum());
                Ok(items.to_vec())
            },
        )
        .unwrap();
        let report = c.job_report();
        let sc = &report.sched;
        assert_eq!(sc.workers, 4);
        assert_eq!(sc.morsel_stages, 1);
        assert!(sc.morsels >= 4, "at least one morsel per partition");
        assert!(sc.steals > 0, "idle workers must steal from the hot queue");
        assert_eq!(sc.per_worker.len(), 4);
        assert_eq!(
            sc.per_worker.iter().map(|w| w.morsels).sum::<u64>(),
            sc.morsels
        );
        assert!(sc.utilization > 0.0 && sc.utilization <= 1.0);
        assert!(sc.imbalance >= 1.0);
        let text = report.to_string();
        assert!(text.contains("scheduling:"), "{text}");
        assert!(text.contains("util%"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"per_worker\": [{\"worker\": 0"), "{json}");
    }

    #[test]
    fn batch_report_aggregates_chunk_events() {
        let c = Cluster::local(2);
        c.journal().record(EventKind::BatchExecuted {
            stage: "collect[map]".into(),
            op: "map".into(),
            chunks: 4,
            records: 4096,
            max_chunk: 1024,
        });
        c.journal().record(EventKind::BatchExecuted {
            stage: "collect[map]".into(),
            op: "map".into(),
            chunks: 2,
            records: 2048,
            max_chunk: 1024,
        });
        let report = c.job_report();
        assert_eq!(report.batch.chunks, 6);
        assert_eq!(report.batch.records, 6144);
        assert_eq!(report.batch.stages.len(), 1);
        let row = &report.batch.stages[0];
        assert_eq!(row.op, "map");
        assert_eq!(row.p50_chunk_records, 1024);
        assert_eq!(row.max_chunk_records, 1024);
        let json = report.to_json();
        assert!(json.contains("\"batch\": {\"chunks\": 6"), "{json}");
        assert!(report.to_string().contains("batch: 6 chunks"));
    }

    #[test]
    fn prune_report_aggregates_events_and_renders() {
        let c = Cluster::local(2);
        c.journal().record(EventKind::PruneApplied {
            scope: "classify-block".into(),
            cells_skipped: 3,
            bound_rejected: 40,
            evals_done: 60,
            evals_avoided: 140,
            memo_hits: 0,
        });
        c.journal().record(EventKind::PruneApplied {
            scope: "memo".into(),
            cells_skipped: 0,
            bound_rejected: 0,
            evals_done: 0,
            evals_avoided: 10,
            memo_hits: 10,
        });
        let report = c.job_report();
        let pr = &report.prune;
        assert!(pr.any());
        assert_eq!(pr.passes, 2);
        assert_eq!(pr.cells_skipped, 3);
        assert_eq!(pr.bound_rejected, 40);
        assert_eq!(pr.evals_done, 60);
        assert_eq!(pr.evals_avoided, 150);
        assert_eq!(pr.memo_hits, 10);
        assert!((pr.avoided_fraction() - 150.0 / 210.0).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"prune\": {\"passes\": 2"), "{json}");
        let text = report.to_string();
        assert!(text.contains("prune: 2 passes"), "{text}");
        assert!(text.contains("memo hits"), "{text}");
    }

    #[test]
    fn prune_section_stays_silent_without_events() {
        let c = Cluster::local(1);
        c.run_job("plain", 1, |_, _| Ok(vec![0u8])).unwrap();
        let report = c.job_report();
        assert!(!report.prune.any());
        assert_eq!(report.prune.avoided_fraction(), 0.0);
        assert!(!report.to_string().contains("prune:"));
    }

    #[test]
    fn prune_events_at_pair_scale_keep_the_journal_bounded() {
        // 100k-pair scale: even if a run journaled one prune event per
        // candidate pair (it coalesces per block, but the bound must hold
        // regardless), the buffer stops at MAX_EVENTS and the report still
        // renders from the stored prefix with the overflow counted.
        let c = Cluster::local(1);
        for i in 0..(RunJournal::MAX_EVENTS as u64 + 5_000) {
            c.journal().record(EventKind::PruneApplied {
                scope: "pair".into(),
                cells_skipped: 0,
                bound_rejected: 1,
                evals_done: 1,
                evals_avoided: 1,
                memo_hits: i % 2,
            });
        }
        assert_eq!(c.journal().len(), RunJournal::MAX_EVENTS);
        assert_eq!(c.journal().dropped(), 5_000);
        let report = c.job_report();
        assert_eq!(report.prune.passes, RunJournal::MAX_EVENTS as u64);
        assert_eq!(report.totals.events_dropped, 5_000);
        assert_eq!(report.totals.events, RunJournal::MAX_EVENTS as u64 + 5_000);
        let _ = report.to_json();
    }

    #[test]
    fn missing_batch_row_yields_warning_not_panic() {
        // A duplicated key in the first-seen order (journal inconsistency)
        // used to unwrap-panic inside capture and poison the whole report.
        let order = vec![
            ("s".to_string(), "map".to_string()),
            ("s".to_string(), "map".to_string()),
        ];
        let mut rows = std::collections::HashMap::new();
        rows.insert(("s".to_string(), "map".to_string()), (2, 100, 50, vec![50]));
        let report = drain_batch_rows(order, rows);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.chunks, 2, "real row still aggregated");
        assert!(
            report.stages[1].op.contains("warning"),
            "second drain yields a warning row: {:?}",
            report.stages[1].op
        );
        assert_eq!(report.stages[1].chunks, 0);
    }

    #[test]
    fn spill_section_is_empty_without_disk_pressure() {
        let c = Cluster::local(2);
        c.run_job("tiny", 2, |_, _| Ok(vec![1u8])).unwrap();
        let report = c.job_report();
        assert!(!report.spill.any());
        assert_eq!(report.spill.bytes_spilled, 0);
        assert_eq!(report.spill.peak_resident.len(), 2);
        assert!(!report.to_string().contains("spill:"));
        assert!(report
            .to_json()
            .contains("\"spill\": {\"bytes_spilled\": 0"));
    }

    #[test]
    fn plain_stages_leave_the_sched_section_empty() {
        let c = Cluster::local(2);
        c.run_job("plain", 4, |i, _| Ok(vec![i])).unwrap();
        let report = c.job_report();
        assert_eq!(report.sched.morsel_stages, 0);
        assert!(report.sched.per_worker.is_empty());
        assert!(!report.to_string().contains("scheduling:"));
    }

    #[test]
    fn steal_and_idle_events_are_coalesced_per_stage() {
        let c = Cluster::local(4);
        // 200 morsels from one hot partition (each item fills a whole morsel
        // budget): without coalescing this would journal O(morsels) steal
        // events; the bound is workers² + workers.
        let partitions: Vec<Vec<u64>> = vec![vec![crate::cluster::MORSEL_OPS; 200]];
        c.run_morsel_job("hot", partitions, |&w| w, |_, items, _| Ok(items.to_vec()))
            .unwrap();
        let events = c.journal().events();
        let stolen = events
            .iter()
            .filter(|e| e.kind.tag() == "morsel_stolen")
            .count();
        let idle = events
            .iter()
            .filter(|e| e.kind.tag() == "worker_idle")
            .count();
        assert!(stolen > 0, "the hot queue must be robbed");
        assert!(stolen <= 16, "coalesced: bounded by workers², got {stolen}");
        assert!(idle <= 4, "one idle line per worker at most, got {idle}");
    }
}
