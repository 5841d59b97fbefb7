//! Engine error types.

use std::fmt;

/// Convenience alias used across the engine.
pub type Result<T> = std::result::Result<T, SparkletError>;

/// Errors surfaced by sparklet jobs and actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparkletError {
    /// A task exhausted its retry budget.
    TaskFailed {
        /// Stage the task belonged to.
        stage: String,
        /// Task (partition) index within the stage.
        task: usize,
        /// Number of attempts made (including the first).
        attempts: u32,
        /// Human-readable description of the last failure.
        reason: String,
    },
    /// Deterministic fault injection tripped this attempt (internal; always
    /// retried until the retry budget runs out, after which it is wrapped in
    /// [`SparkletError::TaskFailed`]).
    InjectedFault,
    /// A task exceeded the modelled per-executor memory budget and was
    /// killed (Spark analogue: executor OOM / heartbeat timeout while
    /// swapping). Retried like any failure.
    MemoryExceeded {
        /// Bytes the task tried to hold resident.
        requested: usize,
        /// The per-executor budget from [`crate::ClusterConfig`].
        budget: usize,
    },
    /// Two RDDs were combined (zip/cogroup) with incompatible partitioning.
    PartitionMismatch {
        /// Left operand partition count.
        left: usize,
        /// Right operand partition count.
        right: usize,
    },
    /// A reduce-side task tried to fetch a shuffle bucket whose map outputs
    /// are gone (the hosting executor died, or the shuffle was never
    /// materialised). The scheduler treats this as recoverable: it re-runs
    /// the missing parent map tasks from lineage and retries the reader.
    FetchFailed {
        /// Shuffle whose map output is missing.
        shuffle: u64,
        /// Reduce bucket the reader wanted.
        bucket: usize,
    },
    /// Every executor has been blacklisted (exceeded
    /// [`crate::FaultConfig::max_executor_failures`]); no task can be
    /// placed and the job fails rather than hanging.
    NoHealthyExecutors {
        /// Stage that could not be scheduled.
        stage: String,
    },
    /// An action was invoked on an empty dataset where a value is required.
    EmptyCollection,
    /// The driver process was killed at a driver-side fault point (see
    /// [`crate::FaultConfig::driver_kill`] and
    /// [`crate::Cluster::driver_fault_point`]). Unlike task and executor
    /// faults this is **fatal**: nothing in-process retries it. Services
    /// model the crash by dropping their state and recovering from their
    /// durable checkpoint.
    DriverKilled {
        /// Global index of the fault point that fired (0-based, counted
        /// across the cluster's lifetime).
        point: u64,
        /// Label of the code location that hit the fault point.
        label: String,
    },
    /// User code inside a task failed with a message.
    User(String),
    /// User code inside a task panicked; carries the panic message. The
    /// attempt failed, the thread that ran it did not: it is retried and
    /// exhausted like any other failure.
    TaskPanicked(String),
}

impl SparkletError {
    /// Is this a driver kill (fatal; never retried, recovered from a
    /// checkpoint instead)?
    pub fn is_driver_kill(&self) -> bool {
        matches!(self, SparkletError::DriverKilled { .. })
    }
}

impl fmt::Display for SparkletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparkletError::TaskFailed {
                stage,
                task,
                attempts,
                reason,
            } => write!(
                f,
                "task {task} of stage '{stage}' failed after {attempts} attempts: {reason}"
            ),
            SparkletError::InjectedFault => write!(f, "injected fault"),
            SparkletError::MemoryExceeded { requested, budget } => write!(
                f,
                "task memory {requested}B exceeded executor budget {budget}B"
            ),
            SparkletError::PartitionMismatch { left, right } => {
                write!(f, "cannot zip datasets with {left} vs {right} partitions")
            }
            SparkletError::FetchFailed { shuffle, bucket } => {
                write!(f, "fetch failed: shuffle {shuffle} bucket {bucket} lost")
            }
            SparkletError::NoHealthyExecutors { stage } => {
                write!(f, "no healthy executors left to run stage '{stage}'")
            }
            SparkletError::EmptyCollection => write!(f, "empty collection"),
            SparkletError::DriverKilled { point, label } => {
                write!(f, "driver killed at fault point {point} ('{label}')")
            }
            SparkletError::User(msg) => write!(f, "user error: {msg}"),
            SparkletError::TaskPanicked(msg) => write!(f, "task panicked: {msg}"),
        }
    }
}

impl std::error::Error for SparkletError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_task_failed() {
        let e = SparkletError::TaskFailed {
            stage: "collect".into(),
            task: 3,
            attempts: 4,
            reason: "injected fault".into(),
        };
        let s = e.to_string();
        assert!(s.contains("task 3"));
        assert!(s.contains("'collect'"));
        assert!(s.contains("4 attempts"));
    }

    #[test]
    fn display_memory_exceeded() {
        let e = SparkletError::MemoryExceeded {
            requested: 2048,
            budget: 1024,
        };
        assert!(e.to_string().contains("2048B"));
        assert!(e.to_string().contains("1024B"));
    }

    #[test]
    fn display_fetch_failed_and_no_healthy_executors() {
        let e = SparkletError::FetchFailed {
            shuffle: 5,
            bucket: 2,
        };
        assert!(e.to_string().contains("shuffle 5"));
        assert!(e.to_string().contains("bucket 2"));
        let e = SparkletError::NoHealthyExecutors {
            stage: "classify".into(),
        };
        assert!(e.to_string().contains("'classify'"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SparkletError::InjectedFault, SparkletError::InjectedFault);
        assert_ne!(SparkletError::InjectedFault, SparkletError::EmptyCollection);
    }

    #[test]
    fn driver_kill_is_fatal_and_displays_its_point() {
        let e = SparkletError::DriverKilled {
            point: 7,
            label: "batch-commit".into(),
        };
        assert!(e.is_driver_kill());
        assert!(e.to_string().contains("fault point 7"));
        assert!(e.to_string().contains("batch-commit"));
        assert!(!SparkletError::EmptyCollection.is_driver_kill());
    }
}
