//! The lineage-node trait behind every [`crate::Rdd`].

use crate::cluster::Cluster;
use crate::error::Result;
use crate::task::TaskContext;
use crate::Data;

/// A node in the lineage graph.
///
/// `compute` is pull-based: a task asks a node for one partition, and narrow
/// nodes recursively pull from their parents inside the same task (Spark's
/// stage pipelining). Wide nodes ([`super::nodes::ShuffledNode`]) instead
/// read from the shuffle service, which `prepare` must have materialised
/// beforehand.
///
/// `prepare` is invoked driver-side before any action and walks the lineage
/// recursively, running the map stages of all not-yet-materialised shuffle
/// dependencies in topological order. Keeping stage execution on the driver
/// is what makes the fixed-size worker pool deadlock-free.
pub trait RddNode<T: Data>: Send + Sync {
    /// Human-readable operator name for stage labels.
    fn name(&self) -> String;

    /// Number of partitions this node produces.
    fn num_partitions(&self) -> usize;

    /// Materialise all shuffle dependencies below this node.
    fn prepare(&self, cluster: &Cluster) -> Result<()>;

    /// Compute one partition.
    fn compute(&self, split: usize, ctx: &TaskContext) -> Result<Vec<T>>;
}
