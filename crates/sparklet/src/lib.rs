//! # sparklet — an embedded Spark-like dataflow engine
//!
//! `sparklet` reimplements, in-process and from scratch, the subset of the
//! Apache Spark programming model that the EDBT'16 paper *"Parallel Duplicate
//! Detection in Adverse Drug Reaction Databases with Spark"* (Wang & Karimi)
//! expresses its algorithms in:
//!
//! * **Resilient datasets** ([`Rdd`]) — immutable, partitioned collections
//!   described by a lineage graph of transformation nodes. Narrow
//!   transformations (`map`, `flat_map`, `map_partitions`, `union`,
//!   `zip_partitions`) are pipelined inside a single task; wide
//!   transformations (`partition_by`, `reduce_by_key`, `aggregate_by_key`,
//!   `join`) cut a stage boundary and go through the shuffle service.
//!   The operator set is exactly what the product and the paper-literal
//!   Algorithm 2 (`tests/engine_algorithms.rs`) call, nothing more.
//! * **Actions** (`collect`, `count`, `aggregate`) — walk the lineage,
//!   materialise shuffle dependencies stage by stage, and submit one task
//!   per partition to the [`Cluster`] scheduler.
//! * **Caching** ([`Rdd::cache`]) — computed partitions are pinned in the
//!   cluster's block manager subject to a per-executor memory budget with
//!   LRU eviction; evicted partitions are recomputed from lineage, mirroring
//!   RDD fault-tolerance semantics.
//! * **Task scheduling with retries** — tasks can fail (via deterministic
//!   fault injection, or by exceeding the modelled executor memory budget)
//!   and are retried with a virtual-time penalty, reproducing the retry
//!   storms the paper observes when joined partitions do not fit in executor
//!   memory (its Fig. 8b).
//! * **Metrics** ([`ClusterMetrics`]) — tasks, retries, shuffle
//!   records/bytes, cache hits, plus named user counters (the paper's
//!   intra-/cross-cluster comparison counts hang off these).
//! * **Job reports** ([`JobReport`]) — the counters, the clock's stage
//!   records and the [`RunJournal`]'s running sections (the first task
//!   failures, and one fold per pruning pass, ingest commit or serve
//!   micro-batch; no event log is stored), rendered as schema-stable JSON.
//! * **Virtual time** ([`CostModelConfig`]) — every task accrues a virtual
//!   cost (charged operations, shuffle bytes, launch overhead, retry
//!   penalties); a deterministic list scheduler then computes the makespan
//!   for any executor topology. This substitutes for wall-clock
//!   measurements on the paper's 14-node cluster, which are not
//!   reproducible on a single machine (see `DESIGN.md`).
//!
//! ## Quick example
//!
//! ```
//! use sparklet::Cluster;
//!
//! let cluster = Cluster::local(4);
//! let data = cluster.parallelize((0..1000u64).collect::<Vec<_>>(), 8);
//! let sum = data
//!     .map(|x| x * 2)
//!     .flat_map(|x| if x % 3 == 0 { vec![x] } else { vec![] })
//!     .aggregate(0u64, |acc, x| acc + x, |a, b| a + b)
//!     .unwrap();
//! assert_eq!(sum, (0..1000u64).map(|x| x * 2).filter(|x| x % 3 == 0).sum());
//! ```

mod cluster;
mod config;
mod error;
mod executor;
mod hash;
mod journal;
#[cfg(test)]
#[path = "../tests/common/json.rs"]
mod json_check;
mod metrics;
mod pair;
mod partitioner;
mod rdd;
mod shuffle;
mod simtime;
mod spill;
mod storage;
mod task;

pub use cluster::Cluster;
pub use config::{ClusterConfig, CostModelConfig, ExecutorKill, FaultConfig, KillWhen};
pub use error::{Result, SparkletError};
pub use executor::ExecutorRegistry;
pub use hash::stable_hash;
pub use journal::{
    json_string, BatchReport, EventKind, IngestBatchRow, IngestReport, JobReport, PruneReport,
    RecoveryReport, RunJournal, SchedReport, ServeReport,
};
pub use metrics::ClusterMetrics;
pub use pair::PairRdd;
pub use partitioner::{HashPartitioner, IndexPartitioner, Partitioner};
pub use rdd::Rdd;
pub use spill::{FixedBytes, SpillManager};
pub use task::TaskContext;

/// Marker trait for element types that can flow through the engine.
///
/// Blanket-implemented: anything `Clone + Send + Sync + 'static` qualifies.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// Marker trait for key types usable in pair-RDD (shuffle) operations.
pub trait KeyData: Data + std::hash::Hash + Eq {}
impl<T: Data + std::hash::Hash + Eq> KeyData for T {}
