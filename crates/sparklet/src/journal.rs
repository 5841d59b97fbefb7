//! Run journal and exportable job reports — sparklet's observability layer.
//!
//! Every cluster owns a [`RunJournal`]: the running sections of its
//! [`JobReport`] that the counters cannot hold — the first task-attempt
//! failures with their reasons, and one fold per unit of service work (a
//! pruning pass, an ingest commit, a serve micro-batch). An event is folded
//! into its section as it is recorded and not kept: the journal stores no
//! log, so its size does not grow with the run. A healthy engine run records
//! nothing: its routine record is [`crate::metrics::ClusterMetrics`], the
//! clock's [`StageRecord`]s and the report's `sched` section, which the
//! scheduler folds as each morsel stage closes. Virtual time is the
//! [`crate::simtime::VirtualClock`]'s alone — wall-clock times on the worker
//! pool are meaningless for the paper's figures.
//!
//! A [`JobReport`] copies the journal's sections and combines them with the
//! clock's stage records and the metrics counters into a per-stage
//! task-duration distribution (min/p50/max, straggler flags),
//! retry/shuffle/cache totals and user counters. A report has one rendering,
//! schema-stable JSON ([`JobReport::to_json`]), pinned byte for byte by
//! `tests/job_report_golden.json`.

use crate::cluster::Cluster;
use crate::simtime::{SchedSim, StageRecord};
use parking_lot::Mutex;
use std::sync::Arc;

/// What the journal folds: each kind feeds one section of the
/// [`JobReport`].
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A task attempt failed (it may be retried): the report's `failures`.
    TaskFailed(FailureLine),
    /// A bound-driven pruning pass ran: the report's `prune`. Coalesced
    /// driver-side, one per classify call (one per block of Algorithm 2),
    /// never per test pair. All pruning is lossless — these record distance
    /// evaluations *avoided*, never results changed.
    PruneApplied {
        /// Voronoi cells skipped wholesale by the annulus bound.
        cells_skipped: u64,
        /// Cell residents rejected by the triangle-inequality window.
        bound_rejected: u64,
        /// Distance evaluations actually performed.
        evals_done: u64,
        /// Distance evaluations avoided (bound-rejected residents plus the
        /// populations of wholesale-skipped cells).
        evals_avoided: u64,
    },
    /// The driver was killed at a driver-side fault point (see
    /// [`crate::FaultConfig::driver_kill`]): `ingest.driver_kills`.
    DriverKilled,
    /// An ingest micro-batch committed: a row of `ingest.batches`. One per
    /// batch, never per report or per pair.
    IngestBatchCommitted(IngestBatchRow),
    /// A poison batch exhausted `max_batch_retries`, was dumped to the
    /// quarantine file and skipped: `ingest.batches_quarantined`.
    IngestQuarantined,
    /// An ingest service recovered from a durable checkpoint after a driver
    /// crash (or plain restart): `ingest.recoveries`.
    IngestRecovered {
        /// Whether the newest generation was corrupt and recovery fell back
        /// to an older one (`ingest.checkpoint_fallbacks`).
        fallback: bool,
    },
    /// A serve micro-batch was dispatched and answered: the report's
    /// `serve`. One per admitted batch, never per request.
    ServeBatchExecuted {
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
    },
}

/// The report sections a journal keeps as running totals.
#[derive(Debug, Clone, Default)]
struct Sections {
    failures: Vec<FailureLine>,
    prune: PruneReport,
    ingest: IngestReport,
    serve: ServeReport,
    sched: SchedReport,
}

/// Shared journal of running report sections. Cloning shares the sections
/// (`Arc` semantics); recording takes one lock per event, and a healthy
/// engine run records none.
#[derive(Debug, Clone, Default)]
pub struct RunJournal {
    sections: Arc<Mutex<Sections>>,
}

impl RunJournal {
    /// Fresh empty journal.
    pub(crate) fn new() -> Self {
        RunJournal::default()
    }

    /// Fold an event into its report section.
    pub fn record(&self, kind: EventKind) {
        let mut s = self.sections.lock();
        match kind {
            EventKind::TaskFailed(failure) => {
                if s.failures.len() < MAX_REPORT_FAILURES {
                    s.failures.push(failure);
                }
            }
            EventKind::PruneApplied {
                cells_skipped,
                bound_rejected,
                evals_done,
                evals_avoided,
            } => {
                let pr = &mut s.prune;
                pr.passes += 1;
                pr.cells_skipped += cells_skipped;
                pr.bound_rejected += bound_rejected;
                pr.evals_done += evals_done;
                pr.evals_avoided += evals_avoided;
            }
            EventKind::DriverKilled => s.ingest.driver_kills += 1,
            EventKind::IngestBatchCommitted(row) => {
                let ing = &mut s.ingest;
                ing.batch_retries += row.retries;
                ing.checkpoint_bytes += row.checkpoint_bytes;
                ing.batches.push(row);
            }
            EventKind::IngestQuarantined => s.ingest.batches_quarantined += 1,
            EventKind::IngestRecovered { fallback } => {
                s.ingest.recoveries += 1;
                s.ingest.checkpoint_fallbacks += u64::from(fallback);
            }
            EventKind::ServeBatchExecuted {
                requests,
                queue_depth,
                memo_lookups,
                memo_hits,
                service_us,
            } => {
                let sv = &mut s.serve;
                sv.batches += 1;
                sv.requests += requests;
                sv.max_queue_depth = sv.max_queue_depth.max(queue_depth);
                let bucket = (64 - requests.max(1).next_power_of_two().leading_zeros() - 1)
                    .min(SERVE_HIST_BUCKETS as u32 - 1);
                sv.batch_size_hist[bucket as usize] += 1;
                sv.memo_lookups += memo_lookups;
                sv.memo_hits += memo_hits;
                sv.service_us += service_us;
            }
        }
    }

    /// Fold one morsel stage's schedule into the running `sched` section
    /// (called by the scheduler as the stage closes).
    pub(crate) fn fold_sched(&self, sim: &SchedSim) {
        self.sections.lock().sched.fold(sim);
    }

    /// Zero the running report sections (between experiment
    /// configurations).
    pub(crate) fn clear(&self) {
        *self.sections.lock() = Sections::default();
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

/// Morsel-scheduling aggregates captured into a [`JobReport`]: the schedule
/// of every morsel-driven stage on the cluster's own slot count (a
/// list-scheduling simulation, computed once as the stage closes), summed into a
/// per-worker utilization table.
#[derive(Debug, Clone, Default)]
pub struct SchedReport {
    /// Task slots the schedules ran on (the cluster's own topology).
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
    fn fold(&mut self, sim: &SchedSim) {
        let workers = sim.busy_us.len();
        if self.per_worker.is_empty() {
            self.per_worker = (0..workers)
                .map(|worker| WorkerUtilization {
                    worker,
                    ..WorkerUtilization::default()
                })
                .collect();
        }
        self.morsel_stages += 1;
        self.morsels += sim.morsels_run.iter().sum::<u64>();
        self.steals += sim.stolen_count();
        self.makespan_us += sim.makespan_us;
        for (w, row) in self.per_worker.iter_mut().enumerate() {
            row.busy_us += sim.busy_us[w];
            row.morsels += sim.morsels_run[w];
        }
        for &(thief, _, n) in &sim.steals {
            self.per_worker[thief].steals += n;
        }
        let total_busy: u64 = self.per_worker.iter().map(|w| w.busy_us).sum();
        let max_busy = self.per_worker.iter().map(|w| w.busy_us).max().unwrap_or(0);
        let denom = workers as u64 * self.makespan_us;
        self.utilization = total_busy as f64 / denom.max(1) as f64;
        let mean_busy = total_busy as f64 / workers as f64;
        self.imbalance = if mean_busy > 0.0 {
            max_busy as f64 / mean_busy
        } else {
            1.0
        };
    }
}

/// Chunked-execution aggregates captured into a [`JobReport`]: run-wide
/// totals of what moved through the batch path, read from three
/// [`crate::metrics::ClusterMetrics`] counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Chunks dispatched across all batch stages.
    pub chunks: u64,
    /// Records carried through the batch path.
    pub records: u64,
    /// Largest single chunk observed (records).
    pub max_chunk_records: u64,
}

impl BatchReport {
    /// Did anything run through the batch path?
    pub fn any(&self) -> bool {
        self.chunks > 0
    }
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
}

/// Bound-driven pruning aggregates captured into a [`JobReport`]: summed
/// over every [`EventKind::PruneApplied`] recorded. Pruning is
/// lossless by construction, so this section describes work *saved*, never
/// results changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Pruning passes journaled (one per classify call of the product, one
    /// per block of the paper's Algorithm 2).
    pub passes: u64,
    /// Voronoi cells skipped wholesale by the annulus bound.
    pub cells_skipped: u64,
    /// Cell residents rejected by the triangle-inequality window.
    pub bound_rejected: u64,
    /// Distance evaluations actually performed.
    pub evals_done: u64,
    /// Distance evaluations avoided.
    pub evals_avoided: u64,
}

impl PruneReport {
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

/// One committed micro-batch: the payload of an
/// [`EventKind::IngestBatchCommitted`] and a row of the [`IngestReport`].
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
    /// Virtual latency of the committed attempt plus checkpoint write (µs),
    /// excluding backoff waits.
    pub latency_us: u64,
    /// Size of the checkpoint generation written at commit (bytes).
    pub checkpoint_bytes: u64,
}

/// Streaming-ingest aggregates captured into a [`JobReport`]: quarantine
/// and recovery totals plus one latency/retry row per committed batch,
/// folded from the ingest events as they are recorded. The totals are constant-size; `batches` grows by one row
/// (64 bytes) a commit for the life of the service.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Batches committed, in commit order.
    pub batches: Vec<IngestBatchRow>,
    /// Batches quarantined after exhausting their retry budget.
    pub batches_quarantined: u64,
    /// Failed attempts summed over committed batches.
    pub batch_retries: u64,
    /// Checkpoint recoveries (restarts resumed from a checkpoint).
    pub recoveries: u64,
    /// Recoveries that fell back past a corrupt newest generation.
    pub checkpoint_fallbacks: u64,
    /// Driver kills journaled by fault points.
    pub driver_kills: u64,
    /// Checkpoint bytes written, summed over commits.
    pub checkpoint_bytes: u64,
}

/// Power-of-two histogram buckets in a [`ServeReport`]: bucket `i` counts
/// batches of `2^i` requests or fewer (but more than `2^(i-1)`), with the
/// last bucket absorbing everything larger.
pub const SERVE_HIST_BUCKETS: usize = 11;

/// Serving aggregates captured into a [`JobReport`], folded from the
/// [`EventKind::ServeBatchExecuted`] events (one per micro-batch) as they
/// are recorded: constant-size however long the
/// open-loop load runs.
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
    /// Fraction of signal-memo lookups answered from the memo, in `[0, 1]`.
    pub(crate) fn memo_hit_rate(&self) -> f64 {
        if self.memo_lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.memo_lookups as f64
        }
    }

    /// Mean requests per dispatched batch.
    pub(crate) fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

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
    /// Chunked-execution aggregates: chunks, records and the largest chunk
    /// (zero when nothing ran batch-path).
    pub batch: BatchReport,
    /// Out-of-core aggregates: spill volume both ways, file counts and the
    /// per-executor peak-resident high-water marks (empty when the run
    /// never touched the disk tier).
    pub spill: SpillReport,
    /// Bound-driven pruning aggregates: cells skipped, residents rejected
    /// by the triangle-inequality window and distance evaluations avoided
    /// (empty when no pruning pass was journaled).
    pub prune: PruneReport,
    /// Streaming-ingest aggregates: per-batch latency/retry/checkpoint rows
    /// plus quarantine and recovery totals (empty when no
    /// ingest service ran).
    pub ingest: IngestReport,
    /// Serving aggregates: micro-batch counts, queue depth, batch-size
    /// histogram and signal-memo hit rate (empty when no serve service ran).
    pub serve: ServeReport,
    /// First `MAX_REPORT_FAILURES` (32) task-attempt failures, in order.
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
    /// baselines" lists them by name; 10 replaced the per-(stage, operator)
    /// `batch.stages` table with `batch.max_chunk_records`, and
    /// `totals.events` stopped counting the eleven retired event kinds —
    /// DESIGN.md §7 "Retired"; 11 removed `ingest.deferrals` and the
    /// per-batch `deferrals` with the ingest admission gate — DESIGN.md
    /// "Retired baselines"; 12 removed `prune.memo_hits` with the
    /// system's cross-batch distance memo, which never hit — same table;
    /// 13 removed `totals.events` and `totals.events_dropped` with the
    /// stored event log — DESIGN.md §7).
    pub const SCHEMA_VERSION: u32 = 13;

    /// Snapshot a cluster's clock, metrics and journal into a report: the
    /// journal's running sections are copied.
    pub(crate) fn capture(cluster: &Cluster) -> Self {
        let m = cluster.metrics();
        let sections = cluster.journal().sections.lock().clone();
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
            },
            sched: SchedReport {
                workers: cluster.config().total_slots(),
                ..sections.sched
            },
            batch: BatchReport {
                chunks: m.chunks_executed.get(),
                records: m.chunk_records.get(),
                max_chunk_records: m.max_chunk_records.get(),
            },
            spill: SpillReport::capture(cluster),
            prune: sections.prune,
            ingest: sections.ingest,
            serve: sections.serve,
            recovery: RecoveryReport {
                executors_lost: m.executors_lost.get(),
                executors_blacklisted: m.executors_blacklisted.get(),
                fetch_failures: m.fetch_failures.get(),
                recomputed_map_tasks: m.recomputed_tasks.get(),
                tasks_lost: m.tasks_lost.get(),
            },
            failures: sections.failures,
            user_counters: m.user_counters(),
            virtual_us: cluster.virtual_elapsed().us,
            total_work_us: cluster.clock().total_work().us,
        }
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
             \"cache_misses\": {}, \"cache_evictions\": {}",
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
            "\"chunks\": {}, \"records\": {}, \"max_chunk_records\": {}",
            b.chunks, b.records, b.max_chunk_records,
        ));
        out.push_str("},\n");
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
             \"evals_done\": {}, \"evals_avoided\": {}, \"avoided_fraction\": {:.4}",
            pr.passes,
            pr.cells_skipped,
            pr.bound_rejected,
            pr.evals_done,
            pr.evals_avoided,
            pr.avoided_fraction(),
        ));
        out.push_str("},\n");
        let ing = &self.ingest;
        out.push_str("  \"ingest\": {");
        out.push_str(&format!(
            "\"batches_committed\": {}, \"batches_quarantined\": {}, \"batch_retries\": {}, \
             \"recoveries\": {}, \"checkpoint_fallbacks\": {}, \
             \"driver_kills\": {}, \"checkpoint_bytes\": {}, \"batches\": [",
            ing.batches.len(),
            ing.batches_quarantined,
            ing.batch_retries,
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
                 \"retries\": {}, \"latency_us\": {}, \"checkpoint_bytes\": {}}}",
                b.batch,
                b.reports,
                b.detections,
                b.duplicates,
                b.retries,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MORSEL_OPS;
    use crate::config::FaultConfig;
    use crate::json_check::is_json;
    use crate::{ClusterConfig, PairRdd};

    /// One pruning pass over a single pair, as `fastknn` would journal it.
    fn prune_pass() -> EventKind {
        EventKind::PruneApplied {
            cells_skipped: 0,
            bound_rejected: 1,
            evals_done: 1,
            evals_avoided: 1,
        }
    }

    /// One serve micro-batch of `requests`, as `dedup::serve` journals it.
    fn serve_batch(requests: u64) -> EventKind {
        EventKind::ServeBatchExecuted {
            requests,
            queue_depth: 3,
            memo_lookups: 10,
            memo_hits: 4,
            service_us: 100,
        }
    }

    /// One ingest commit after `retries` failed attempts.
    fn ingest_commit(batch: u64, retries: u64) -> EventKind {
        EventKind::IngestBatchCommitted(IngestBatchRow {
            batch,
            reports: 50,
            detections: 120,
            duplicates: 4,
            retries,
            latency_us: 2_000,
            checkpoint_bytes: 2_048,
        })
    }

    /// What the journal records of a healthy stage and its tasks: nothing.
    /// The counters, the clock's stage records and the `sched` section
    /// account for every task and every morsel; the journal's own sections
    /// stay empty.
    #[test]
    fn journal_records_stage_and_task_events() {
        let c = Cluster::local(2);
        c.run_job("probe", 3, |i, _| Ok(vec![i])).unwrap();
        let partitions: Vec<Vec<u64>> = vec![vec![MORSEL_OPS; 5], vec![MORSEL_OPS; 2]];
        c.run_morsel_job(
            "morsels",
            partitions,
            |&w| w,
            |_, items, _| Ok(items.to_vec()),
        )
        .unwrap();
        let report = c.job_report();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.prune, PruneReport::default());
        assert_eq!(report.ingest, IngestReport::default());
        assert_eq!(report.serve, ServeReport::default());
        assert_eq!(report.totals.jobs_submitted, 2);
        assert_eq!(report.totals.tasks_launched, 3 + 7);
        assert_eq!(report.totals.tasks_succeeded, 3 + 7);
        let stages: Vec<(&str, usize, u64)> = report
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.tasks, s.attempts))
            .collect();
        assert_eq!(stages, vec![("probe", 3, 3), ("morsels", 7, 7)]);
        assert_eq!(report.sched.morsel_stages, 1);
        assert_eq!(report.sched.morsels, 7);
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
        let report = JobReport::capture(&c);
        let lines: Vec<(&str, usize, u32)> = report
            .failures
            .iter()
            .map(|f| (f.stage.as_str(), f.task, f.attempt))
            .collect();
        assert_eq!(lines, vec![("doomed", 0, 0), ("doomed", 0, 1)]);
        for failure in &report.failures {
            let reason = &failure.reason;
            assert!(reason.contains("fault"), "reason: {reason}");
        }
        assert_eq!(report.totals.tasks_failed, 2);
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
    }

    #[test]
    fn ingest_section_folds_coalesced_batch_events() {
        let c = Cluster::local(2);
        c.journal()
            .record(EventKind::IngestRecovered { fallback: true });
        for batch in 2..4u64 {
            c.journal()
                .record(EventKind::IngestBatchCommitted(IngestBatchRow {
                    batch,
                    reports: 50,
                    detections: 120,
                    duplicates: 4,
                    retries: batch - 2,
                    latency_us: 1_000 * batch,
                    checkpoint_bytes: 2_048,
                }));
        }
        c.journal().record(EventKind::IngestQuarantined);
        let report = c.job_report();
        assert_eq!(report.ingest.batches.len(), 2);
        assert_eq!(report.ingest.batches[0].batch, 2);
        assert_eq!(report.ingest.batches[1].retries, 1);
        assert_eq!(report.ingest.batch_retries, 1);
        assert_eq!(report.ingest.batches_quarantined, 1);
        assert_eq!(report.ingest.recoveries, 1);
        assert_eq!(report.ingest.checkpoint_fallbacks, 1);
        assert_eq!(report.ingest.checkpoint_bytes, 4_096);
        let json = report.to_json();
        assert!(
            json.contains(
                "\"ingest\": {\"batches_committed\": 2, \"batches_quarantined\": 1, \
                 \"batch_retries\": 1, \"recoveries\": 1, \"checkpoint_fallbacks\": 1, \
                 \"driver_kills\": 0, \"checkpoint_bytes\": 4096, \"batches\": [\
                 {\"batch\": 2, \"reports\": 50, \"detections\": 120, \"duplicates\": 4, \
                 \"retries\": 0, \"latency_us\": 2000, \"checkpoint_bytes\": 2048}, \
                 {\"batch\": 3, \"reports\": 50, \"detections\": 120, \"duplicates\": 4, \
                 \"retries\": 1, \"latency_us\": 3000, \"checkpoint_bytes\": 2048}]}"
            ),
            "{json}"
        );
    }

    #[test]
    fn serve_events_fold_into_the_serve_section() {
        let c = Cluster::local(2);
        for (requests, queue_depth) in [(1u64, 0u64), (16, 3), (1500, 40)] {
            c.journal().record(EventKind::ServeBatchExecuted {
                requests,
                queue_depth,
                memo_lookups: 10,
                memo_hits: 4,
                service_us: 100,
            });
        }
        let report = c.job_report();
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
        assert!(
            json.contains(
                "\"serve\": {\"batches\": 3, \"requests\": 1517, \"max_queue_depth\": 40, \
                 \"memo_lookups\": 30, \"memo_hits\": 12, \"memo_hit_rate\": 0.4000, \
                 \"mean_batch_size\": 505.67, \"service_us\": 300, \
                 \"batch_size_hist\": [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]}"
            ),
            "{json}"
        );
        // A run with no serve events emits the section with every counter 0.
        let quiet = Cluster::local(1);
        quiet.run_job("q", 1, |_, _| Ok(vec![0u8])).unwrap();
        let quiet_json = quiet.job_report().to_json();
        assert!(
            quiet_json.contains(
                "\"serve\": {\"batches\": 0, \"requests\": 0, \"max_queue_depth\": 0, \
                 \"memo_lookups\": 0, \"memo_hits\": 0, \"memo_hit_rate\": 0.0000, \
                 \"mean_batch_size\": 0.00, \"service_us\": 0, \
                 \"batch_size_hist\": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}"
            ),
            "{quiet_json}"
        );
    }

    /// One deterministic run that touches every section of the report: a
    /// shuffle under a cached RDD read twice, a morsel job with steals, a
    /// quoted stage name with a user counter, injected task faults, and one
    /// event of each service kind.
    fn golden_run() -> Cluster {
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::with_probability(0.2, 7);
        cfg.max_task_attempts = 8;
        let c = Cluster::new(cfg);
        let cached = c
            .parallelize((0..5000u32).collect::<Vec<_>>(), 2)
            .map(|x| (x % 5, x))
            .reduce_by_key(|a, b| a + b, 2)
            .cache();
        cached.count().unwrap();
        cached.count().unwrap();
        c.run_morsel_job(
            "golden-morsels",
            vec![vec![500u64; 64], vec![500; 2], vec![]],
            |&w| w,
            |_, items, ctx| {
                ctx.charge_ops(items.iter().sum());
                Ok(items.to_vec())
            },
        )
        .unwrap();
        c.run_job("quoted \"stage\"\n", 2, |_, ctx| {
            ctx.counter("things").add(3);
            Ok(vec![1u8])
        })
        .unwrap();
        let j = c.journal();
        j.record(prune_pass());
        j.record(EventKind::IngestRecovered { fallback: true });
        j.record(ingest_commit(2, 1));
        j.record(EventKind::IngestQuarantined);
        j.record(EventKind::DriverKilled);
        j.record(serve_batch(16));
        c
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
        // Every key, in order, is pinned by the golden file below.
        assert!(json.contains("\"schema_version\": 13"), "{json}");
        assert!(json.contains("quoted \\\"stage\\\"\\n"), "escaping: {json}");
        assert!(json.contains("\"things\": 6"), "user counter: {json}");
        assert!(is_json(&json), "{json}");
        assert!(is_json(&Cluster::local(1).job_report().to_json()));
    }

    #[test]
    fn the_json_validator_rejects_what_a_brace_count_accepts() {
        assert!(is_json(
            " [1, -0.5e+3, \"a\\u00e9\\n\", true, null, {\"k\": []}, {}] "
        ));
        let bad = "{\"a\": 1,}|{\"a\" 1}|{a: 1}|[1 2]|[01]|[\"\n\"]|[\"\\x\"]|{} {}|}{|[1|";
        for bad in bad.split('|') {
            assert!(!is_json(bad), "accepted {bad:?}");
        }
    }

    #[test]
    fn report_json_matches_the_golden_file() {
        let got = golden_run().job_report().to_json();
        assert!(is_json(&got), "{got}");
        let want = include_str!("../tests/job_report_golden.json");
        assert!(
            got == want,
            "to_json() drifted from crates/sparklet/tests/job_report_golden.json — a schema \
             change bumps SCHEMA_VERSION and regenerates the file from this output:\n{got}"
        );
    }

    #[test]
    fn reset_run_state_clears_the_journal() {
        let c = Cluster::local(2);
        c.run_job("x", 2, |_, _| Ok(vec![0u8])).unwrap();
        c.journal().record(prune_pass());
        c.journal().record(EventKind::DriverKilled);
        let report = c.job_report();
        assert_eq!((report.prune.passes, report.ingest.driver_kills), (1, 1));
        c.reset_run_state();
        let report = c.job_report();
        assert_eq!(report.prune, PruneReport::default());
        assert_eq!(report.ingest, IngestReport::default());
    }

    #[test]
    fn empty_report_is_valid() {
        let c = Cluster::local(1);
        let report = c.job_report();
        assert!(report.stages.is_empty());
        assert!(report.failures.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"stages\": []"));
        assert!(is_json(&json), "{json}");
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
        let json = report.to_json();
        let header = format!(
            "\"sched\": {{\"workers\": 4, \"morsel_stages\": 1, \"morsels\": {}, \"steals\": {}, \
             \"makespan_us\": {}, ",
            sc.morsels, sc.steals, sc.makespan_us
        );
        assert!(json.contains(&header), "{json}");
        assert!(json.contains("\"per_worker\": [{\"worker\": 0"), "{json}");
    }

    #[test]
    fn batch_report_aggregates_chunk_events() {
        // 3,072 records a partition: chunks of 1024 + 1024 + 1024, twice.
        let c = Cluster::local(2);
        let out = c
            .parallelize((0..6144u32).collect::<Vec<_>>(), 2)
            .map(|x| x + 1)
            .collect()
            .unwrap();
        assert_eq!(out.len(), 6144);
        let report = c.job_report();
        assert_eq!(
            report.batch,
            BatchReport {
                chunks: 6,
                records: 6144,
                max_chunk_records: 1024,
            }
        );
        let json = report.to_json();
        assert!(
            json.contains(
                "\"batch\": {\"chunks\": 6, \"records\": 6144, \"max_chunk_records\": 1024}"
            ),
            "{json}"
        );
    }

    #[test]
    fn prune_report_aggregates_events_and_renders() {
        let c = Cluster::local(2);
        c.journal().record(EventKind::PruneApplied {
            cells_skipped: 3,
            bound_rejected: 40,
            evals_done: 60,
            evals_avoided: 140,
        });
        c.journal().record(EventKind::PruneApplied {
            cells_skipped: 0,
            bound_rejected: 10,
            evals_done: 0,
            evals_avoided: 10,
        });
        let report = c.job_report();
        let pr = &report.prune;
        assert_eq!(pr.passes, 2);
        assert_eq!(pr.cells_skipped, 3);
        assert_eq!(pr.bound_rejected, 50);
        assert_eq!(pr.evals_done, 60);
        assert_eq!(pr.evals_avoided, 150);
        assert!((pr.avoided_fraction() - 150.0 / 210.0).abs() < 1e-12);
        let json = report.to_json();
        assert!(
            json.contains(
                "\"prune\": {\"passes\": 2, \"cells_skipped\": 3, \"bound_rejected\": 50, \
                 \"evals_done\": 60, \"evals_avoided\": 150, \"avoided_fraction\": 0.7143}"
            ),
            "{json}"
        );
    }

    #[test]
    fn prune_section_stays_silent_without_events() {
        let c = Cluster::local(1);
        c.run_job("plain", 1, |_, _| Ok(vec![0u8])).unwrap();
        let report = c.job_report();
        assert_eq!(report.prune.avoided_fraction(), 0.0);
        let json = report.to_json();
        assert!(
            json.contains(
                "\"prune\": {\"passes\": 0, \"cells_skipped\": 0, \"bound_rejected\": 0, \
                 \"evals_done\": 0, \"evals_avoided\": 0, \"avoided_fraction\": 0.0000}"
            ),
            "{json}"
        );
    }

    #[test]
    fn prune_events_at_pair_scale_keep_the_journal_bounded() {
        // 100k-pair scale: even if a run journaled one prune event per
        // candidate pair (it coalesces per block), the journal keeps only
        // the running section, and the report counts every pass.
        let c = Cluster::local(1);
        let recorded = 105_000u64;
        for _ in 0..recorded {
            c.journal().record(prune_pass());
        }
        let report = c.job_report();
        assert_eq!(report.prune.passes, recorded);
        assert_eq!(report.prune.evals_avoided, recorded);
        let _ = report.to_json();
        // The same for the other two services.
        for batch in 0..1_000 {
            c.journal().record(serve_batch(1));
            c.journal().record(ingest_commit(batch, batch % 2));
        }
        let report = c.job_report();
        assert_eq!(report.serve.batches, 1_000);
        assert_eq!(report.serve.service_us, 100_000);
        assert_eq!(report.ingest.batches.len(), 1_000);
        assert_eq!(report.ingest.batch_retries, 500);
        assert_eq!(report.ingest.checkpoint_bytes, 2_048_000);
    }

    #[test]
    fn spill_section_is_empty_without_disk_pressure() {
        let c = Cluster::local(2);
        c.run_job("tiny", 2, |_, _| Ok(vec![1u8])).unwrap();
        let report = c.job_report();
        assert_eq!(report.spill.peak_resident.len(), 2);
        let json = report.to_json();
        assert!(
            json.contains(
                "\"spill\": {\"bytes_spilled\": 0, \"bytes_read_back\": 0, \"spill_files\": 0, \
                 \"blocks_spilled\": 0, \"buckets_spilled\": 0, \"cache_skipped\": 0, \
                 \"peak_resident\": ["
            ),
            "{json}"
        );
    }

    #[test]
    fn plain_stages_leave_the_sched_section_empty() {
        let c = Cluster::local(2);
        c.run_job("plain", 4, |i, _| Ok(vec![i])).unwrap();
        let report = c.job_report();
        assert_eq!(report.sched.morsel_stages, 0);
        assert!(report.sched.per_worker.is_empty());
        let json = report.to_json();
        assert!(
            json.contains(
                "\"sched\": {\"workers\": 2, \"morsel_stages\": 0, \"morsels\": 0, \
                 \"steals\": 0, \"makespan_us\": 0, \"utilization\": 0.0000, \
                 \"imbalance\": 0.0000, \"per_worker\": []}"
            ),
            "{json}"
        );
    }
}
