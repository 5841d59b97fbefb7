//! Cluster, fault-injection and cost-model configuration.

use serde::{Deserialize, Serialize};

/// Topology and behaviour of a [`crate::Cluster`].
///
/// The paper runs Spark 1.2.1 on 14 nodes with YARN executors of 32 GB and
/// 1–4 cores; we model the same knobs. The engine launches
/// `num_executors * cores_per_executor` real worker threads (capped at
/// [`ClusterConfig::MAX_WORKER_THREADS`]), but the authoritative notion of
/// time for experiments is the virtual clock parameterised by
/// [`CostModelConfig`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of virtual executors (paper: `--num-executors`).
    pub num_executors: usize,
    /// Task slots per executor (paper: `--executor-cores`).
    pub cores_per_executor: usize,
    /// Modelled memory budget per executor in bytes (paper:
    /// `--executor-memory`, 32 GB in most experiments). Tasks that charge
    /// more resident memory than this are killed and retried, reproducing
    /// the swap-and-timeout regime of the paper's Fig. 8b.
    pub memory_per_executor: usize,
    /// Maximum attempts per task (Spark's `spark.task.maxFailures`, 4).
    pub max_task_attempts: u32,
    /// Fault injection settings.
    pub fault: FaultConfig,
    /// Virtual-time cost model.
    pub cost: CostModelConfig,
}

impl ClusterConfig {
    /// Upper bound on real OS threads regardless of the virtual topology.
    pub const MAX_WORKER_THREADS: usize = 64;

    /// A small local topology suitable for tests.
    pub fn local(parallelism: usize) -> Self {
        ClusterConfig {
            num_executors: parallelism.max(1),
            cores_per_executor: 1,
            memory_per_executor: 512 << 20,
            max_task_attempts: 4,
            fault: FaultConfig::disabled(),
            cost: CostModelConfig::default(),
        }
    }

    /// Total task slots in the virtual topology.
    pub(crate) fn total_slots(&self) -> usize {
        (self.num_executors * self.cores_per_executor).max(1)
    }

    /// Number of real worker threads to launch: the threads a driver-side
    /// pass may also split its work across.
    pub fn worker_threads(&self) -> usize {
        self.total_slots().min(Self::MAX_WORKER_THREADS)
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::local(4)
    }
}

/// Deterministic fault injection: per-attempt failures plus a scheduled
/// executor-failure domain.
///
/// Per-attempt faults fire when a keyed hash of
/// `(job, stage, task, attempt, seed)` falls below `task_failure_prob`.
/// Executor kills are a fixed schedule ([`ExecutorKill`]) processed by the
/// scheduler at deterministic points (stage starts and task-completion
/// counts), so a given `FaultConfig` produces the same failure history on
/// every run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that any given task attempt fails.
    pub task_failure_prob: f64,
    /// Seed mixed into the per-attempt hash; changing it reshuffles which
    /// attempts fail while keeping the overall rate.
    pub seed: u64,
    /// Scheduled executor failures, processed in order. Each kill evicts
    /// the executor's cached blocks, invalidates its shuffle map outputs
    /// and discards its in-flight task results.
    pub executor_kills: Vec<ExecutorKill>,
    /// Kills an executor survives before it is blacklisted (Spark's
    /// `spark.blacklist` family). Below the budget a killed executor
    /// restarts empty with a new incarnation; at the budget it is removed
    /// from scheduling for the rest of the run.
    pub max_executor_failures: u32,
    /// Kill the *driver* at the `n`-th driver-side fault point (0-based,
    /// counted across the cluster's lifetime by
    /// [`crate::Cluster::driver_fault_point`]). Driver-level services (e.g.
    /// the dedup ingest loop) pepper their commit protocol with fault
    /// points; arming this makes exactly one of them return
    /// [`crate::SparkletError::DriverKilled`], which is fatal — recovery
    /// happens from a durable checkpoint, not in process. `None` disables.
    pub driver_kill: Option<u64>,
}

/// One scheduled executor failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutorKill {
    /// Executor id to kill (`0..num_executors`).
    pub executor: usize,
    /// When the kill fires.
    pub when: KillWhen,
}

/// Trigger point of an [`ExecutorKill`]. Both variants are evaluated at
/// deterministic scheduler points, never on wall-clock time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KillWhen {
    /// Fire at the start of the first stage whose virtual-clock reading is
    /// at or past `us` (kills between stages; fully deterministic recovery
    /// counts).
    AtVirtualTime {
        /// Virtual-clock threshold in microseconds.
        us: u64,
    },
    /// Fire while the named stage runs, once `after_completions` of its
    /// tasks have completed (0 = at stage start). Matching is by exact
    /// stage name.
    InStage {
        /// Stage name to match.
        name: String,
        /// Completed tasks observed before the kill fires.
        after_completions: usize,
    },
}

impl FaultConfig {
    /// No injected faults.
    pub fn disabled() -> Self {
        FaultConfig {
            task_failure_prob: 0.0,
            seed: 0,
            executor_kills: Vec::new(),
            max_executor_failures: Self::DEFAULT_MAX_EXECUTOR_FAILURES,
            driver_kill: None,
        }
    }

    /// Default blacklist budget: one kill restarts the executor, the
    /// second removes it from scheduling.
    pub const DEFAULT_MAX_EXECUTOR_FAILURES: u32 = 2;

    /// Fail roughly `prob` of task attempts, deterministically.
    pub fn with_probability(prob: f64, seed: u64) -> Self {
        FaultConfig {
            task_failure_prob: prob.clamp(0.0, 1.0),
            seed,
            ..FaultConfig::disabled()
        }
    }

    /// Schedule a kill of `executor` at virtual time `us` (builder-style).
    pub fn kill_at_time(mut self, executor: usize, us: u64) -> Self {
        self.executor_kills.push(ExecutorKill {
            executor,
            when: KillWhen::AtVirtualTime { us },
        });
        self
    }

    /// Kill the driver at its `point`-th fault point (builder-style). See
    /// [`FaultConfig::driver_kill`].
    pub fn kill_driver_at_point(mut self, point: u64) -> Self {
        self.driver_kill = Some(point);
        self
    }

    /// Schedule a kill of `executor` during stage `name`, after
    /// `after_completions` of its tasks completed (builder-style).
    pub fn kill_in_stage(mut self, executor: usize, name: &str, after_completions: usize) -> Self {
        self.executor_kills.push(ExecutorKill {
            executor,
            when: KillWhen::InStage {
                name: name.to_string(),
                after_completions,
            },
        });
        self
    }
}

/// Parameters of the virtual-time cost model.
///
/// A task's virtual duration is
/// `launch_overhead_us + ops * op_ns / 1000 + shuffle_bytes * shuffle_byte_ns
/// / 1000`, plus `retry_penalty_us` and the wasted attempt cost for every
/// failed attempt. Stage makespans additionally pay a coordination cost per
/// participating executor, which is what bends the executor-scaling curve of
/// the paper's Fig. 10 away from linear.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModelConfig {
    /// Fixed scheduling/serialisation overhead per task attempt (µs).
    pub task_launch_overhead_us: u64,
    /// Virtual nanoseconds per charged operation (a "charged operation" is
    /// whatever the domain code calls [`crate::TaskContext::charge_ops`]
    /// for — one report-pair distance computation in `fastknn`).
    pub op_ns: u64,
    /// Virtual nanoseconds per record emitted by a task.
    pub record_ns: u64,
    /// Virtual nanoseconds per byte written to or read from the shuffle.
    pub shuffle_byte_ns: u64,
    /// Flat penalty added to a task's duration for each failed attempt
    /// (models Spark's timeout detection + rescheduling delay).
    pub retry_penalty_us: u64,
    /// Per-stage, per-executor coordination cost (µs); models driver RPC,
    /// connection setup and skewed shuffle fetch, growing with cluster size.
    pub coordination_us_per_executor: u64,
    /// Launch overhead for the second and later morsels of a partition (µs).
    /// The first morsel pays the full `task_launch_overhead_us`
    /// (serialisation, closure shipping); follow-up morsels of the same
    /// partition only pay queue dispatch. Keeps an unsplit morsel stage
    /// exactly as expensive as the equivalent `run_job` stage.
    pub morsel_dispatch_overhead_us: u64,
    /// Virtual nanoseconds charged per chunk dispatched on the batch path
    /// (closure call, bounds setup, downstream handoff); amortized over the
    /// ~1024 records a chunk carries.
    pub chunk_dispatch_ns: u64,
    /// Virtual nanoseconds per byte serialized to a spill file when a
    /// shuffle bucket or cache block overflows its memory pool. Higher than
    /// `shuffle_byte_ns`: spilling pays serialization plus disk write
    /// bandwidth, which is how spill pressure bends makespans.
    pub spill_write_ns: u64,
    /// Virtual nanoseconds per byte read back and deserialized from a spill
    /// file on fetch.
    pub spill_read_ns: u64,
}

impl Default for CostModelConfig {
    fn default() -> Self {
        CostModelConfig {
            task_launch_overhead_us: 20_000, // 20 ms, Spark-era task launch
            op_ns: 400,
            record_ns: 50,
            shuffle_byte_ns: 4,
            retry_penalty_us: 10_000_000, // 10 s timeout + reschedule
            coordination_us_per_executor: 20_000,
            morsel_dispatch_overhead_us: 500,
            chunk_dispatch_ns: 2_000, // 2 µs: boxed-closure call + slab handoff
            spill_write_ns: 12,       // ~85 MB/s sequential spill write (2016 disk)
            spill_read_ns: 8,         // read-back is sequential and page-cache friendly
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_config_has_one_core_per_executor() {
        let c = ClusterConfig::local(8);
        assert_eq!(c.num_executors, 8);
        assert_eq!(c.cores_per_executor, 1);
        assert_eq!(c.total_slots(), 8);
    }

    #[test]
    fn zero_parallelism_is_clamped() {
        let c = ClusterConfig::local(0);
        assert_eq!(c.total_slots(), 1);
    }

    #[test]
    fn worker_threads_are_capped() {
        let mut c = ClusterConfig::local(1);
        c.num_executors = 100;
        c.cores_per_executor = 4;
        assert_eq!(c.worker_threads(), ClusterConfig::MAX_WORKER_THREADS);
    }

    #[test]
    fn fault_probability_is_clamped() {
        assert_eq!(FaultConfig::with_probability(7.0, 1).task_failure_prob, 1.0);
        assert_eq!(
            FaultConfig::with_probability(-1.0, 1).task_failure_prob,
            0.0
        );
    }

    #[test]
    fn driver_kill_builder_arms_one_point() {
        assert_eq!(FaultConfig::disabled().driver_kill, None);
        let f = FaultConfig::disabled().kill_driver_at_point(12);
        assert_eq!(f.driver_kill, Some(12));
        assert!(f.executor_kills.is_empty(), "orthogonal to executor kills");
    }

    #[test]
    fn kill_builders_append_in_order() {
        let f = FaultConfig::disabled()
            .kill_at_time(1, 5_000)
            .kill_in_stage(2, "classify", 3);
        assert_eq!(f.executor_kills.len(), 2);
        assert_eq!(f.executor_kills[0].executor, 1);
        assert_eq!(
            f.executor_kills[0].when,
            KillWhen::AtVirtualTime { us: 5_000 }
        );
        assert_eq!(
            f.executor_kills[1].when,
            KillWhen::InStage {
                name: "classify".into(),
                after_completions: 3
            }
        );
    }
}
