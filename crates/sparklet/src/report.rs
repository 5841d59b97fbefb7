//! Human-readable run reports: per-stage cost breakdown plus engine
//! counters — sparklet's stand-in for the Spark web UI's stage table.

use crate::cluster::Cluster;
use crate::simtime::StageRecord;
use std::fmt;

/// Aggregated view of one stage for display.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage name.
    pub name: String,
    /// Task count.
    pub tasks: usize,
    /// Total virtual task time (µs).
    pub total_us: u64,
    /// Largest single task (µs) — the skew indicator.
    pub max_task_us: u64,
    /// Shuffle bytes moved.
    pub shuffle_bytes: u64,
    /// Failed attempts.
    pub retries: u64,
}

impl StageSummary {
    fn from_record(r: &StageRecord) -> Self {
        StageSummary {
            name: r.name.clone(),
            tasks: r.task_us.len(),
            total_us: r.task_us.iter().sum(),
            max_task_us: r.task_us.iter().copied().max().unwrap_or(0),
            shuffle_bytes: r.shuffle_bytes,
            retries: r.retries,
        }
    }

    /// Skew factor: largest task over mean task (1.0 = perfectly even).
    pub fn skew(&self) -> f64 {
        if self.tasks == 0 || self.total_us == 0 {
            return 1.0;
        }
        self.max_task_us as f64 / (self.total_us as f64 / self.tasks as f64)
    }
}

/// A full run report, built from a cluster's recorded state.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-stage summaries in execution order.
    pub stages: Vec<StageSummary>,
    /// Jobs submitted.
    pub jobs: u64,
    /// Task attempts launched / failed.
    pub tasks_launched: u64,
    /// Failed task attempts.
    pub tasks_failed: u64,
    /// Cache hit / miss counts.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Virtual elapsed time on the cluster's own topology (µs).
    pub virtual_us: u64,
}

impl ClusterReport {
    /// Snapshot a cluster's recorded stages and counters.
    pub fn capture(cluster: &Cluster) -> Self {
        let m = cluster.metrics();
        ClusterReport {
            stages: cluster
                .clock()
                .with_stages(|st| st.iter().map(StageSummary::from_record).collect()),
            jobs: m.jobs_submitted.get(),
            tasks_launched: m.tasks_launched.get(),
            tasks_failed: m.tasks_failed.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            virtual_us: cluster.virtual_elapsed().us,
        }
    }

    /// The most skewed stage, if any stage ran.
    pub fn most_skewed_stage(&self) -> Option<&StageSummary> {
        self.stages
            .iter()
            .max_by(|a, b| a.skew().partial_cmp(&b.skew()).expect("finite skew"))
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "jobs: {}  tasks: {} ({} failed)  cache: {} hits / {} misses  \
             virtual time: {:.2}s",
            self.jobs,
            self.tasks_launched,
            self.tasks_failed,
            self.cache_hits,
            self.cache_misses,
            self.virtual_us as f64 / 1e6
        )?;
        writeln!(
            f,
            "{:<44} {:>6} {:>12} {:>10} {:>12} {:>7}",
            "stage", "tasks", "total(ms)", "skew", "shuffle(B)", "retries"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<44} {:>6} {:>12} {:>10.1} {:>12} {:>7}",
                if s.name.len() > 44 {
                    &s.name[..44]
                } else {
                    &s.name
                },
                s.tasks,
                s.total_us / 1000,
                s.skew(),
                s.shuffle_bytes,
                s.retries
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, PairRdd};

    #[test]
    fn report_captures_stages_and_counters() {
        let c = Cluster::local(2);
        let rdd = c.parallelize((0..100u32).collect::<Vec<_>>(), 4);
        let _ = rdd
            .map(|x| (x % 3, x))
            .reduce_by_key(|a, b| a + b, 2)
            .collect()
            .unwrap();
        let report = ClusterReport::capture(&c);
        assert!(report.jobs >= 2, "shuffle write + collect");
        assert!(report.stages.len() >= 2);
        assert!(report.tasks_launched > 0);
        assert_eq!(report.tasks_failed, 0);
        let text = report.to_string();
        assert!(text.contains("stage"));
        assert!(text.contains("shuffle"));
    }

    #[test]
    fn skew_is_one_for_even_stages() {
        let s = StageSummary {
            name: "even".into(),
            tasks: 4,
            total_us: 400,
            max_task_us: 100,
            shuffle_bytes: 0,
            retries: 0,
        };
        assert!((s.skew() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn most_skewed_stage_finds_the_outlier() {
        let c = Cluster::local(2);
        // One partition carries all the charged ops.
        c.run_job::<u8, _>("skewed", 4, |i, ctx| {
            if i == 0 {
                ctx.charge_ops(1_000_000);
            }
            Ok(vec![])
        })
        .unwrap();
        let report = ClusterReport::capture(&c);
        let worst = report.most_skewed_stage().expect("a stage ran");
        assert_eq!(worst.name, "skewed");
        assert!(worst.skew() > 2.0, "skew {:.2}", worst.skew());
    }

    #[test]
    fn empty_cluster_report_displays() {
        let c = Cluster::local(1);
        let report = ClusterReport::capture(&c);
        assert!(report.stages.is_empty());
        assert!(report.most_skewed_stage().is_none());
        let _ = report.to_string();
    }
}
