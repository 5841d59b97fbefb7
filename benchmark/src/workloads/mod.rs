//! The five workloads. Each has an untraced half (end-to-end metrics,
//! tracing off) and a traced half (per-layer metrics); README.md records
//! why each exists and which layers it stresses.

pub mod bulk_detect;
pub mod cold_load;
pub mod serve_bed;
pub mod serve_lookup;
pub mod serve_refresh;
pub mod stream_ingest;

use crate::common::{Ctx, Report};
use crate::json::Json;
use crate::metrics::MetricSet;
use crate::pacer::PacedRun;
use crate::stats;
use sparklet::Cluster;
use std::time::Instant;

/// Run one workload by name.
pub fn run(name: &str, ctx: &Ctx, traced: bool) -> Option<Report> {
    let run = match name {
        "bulk-detect" => bulk_detect::run,
        "cold-load" => cold_load::run,
        "stream-ingest" => stream_ingest::run,
        "serve-lookup" => serve_lookup::run,
        "serve-refresh" => serve_refresh::run,
        _ => return None,
    };
    let mut report = run(ctx, traced);
    if traced {
        // Layer timings stay wall-clock; the factor says how slow the host
        // was while they were taken.
        for _ in 0..5 {
            report.host_now();
        }
        let (failed_share, host) = (report.failed_share(), report.calibrator.host_factor());
        report.metrics.set("bench.failed_share", failed_share);
        report.metrics.set("bench.host_factor", host);
    }
    Some(report)
}

/// Engine counters at one moment; the difference of two marks describes
/// the phase between them.
#[derive(Debug, Clone, Copy)]
pub struct EngineMark {
    jobs: u64,
    tasks: u64,
    tasks_failed: u64,
    shuffle_bytes: u64,
    virtual_us: u64,
    at: Instant,
}

impl EngineMark {
    pub fn of(cluster: &Cluster) -> EngineMark {
        let m = cluster.metrics();
        EngineMark {
            jobs: m.jobs_submitted.get(),
            tasks: m.tasks_launched.get(),
            tasks_failed: m.tasks_failed.get(),
            shuffle_bytes: m.shuffle_bytes_written.get(),
            virtual_us: cluster.virtual_elapsed().us,
            at: Instant::now(),
        }
    }

    /// The phase from this mark to now.
    pub fn until_now(&self, cluster: &Cluster) -> EnginePhase {
        EnginePhase {
            from: *self,
            to: EngineMark::of(cluster),
        }
    }

    /// Set the `sparklet.*` counters for the phase since this mark.
    pub fn fill(&self, cluster: &Cluster, metrics: &mut MetricSet) {
        self.until_now(cluster).fill(metrics);
    }
}

/// What the engine did between two marks.
#[derive(Debug, Clone, Copy)]
pub struct EnginePhase {
    from: EngineMark,
    to: EngineMark,
}

impl EnginePhase {
    /// Set the `sparklet.*` counters of the phase. `virtual_over_wall` is
    /// the two-clock comparison: the engine's virtual time for the phase
    /// over the wall time it really took.
    pub fn fill(&self, metrics: &mut MetricSet) {
        let (from, to) = (&self.from, &self.to);
        let wall_us = to.at.duration_since(from.at).as_secs_f64() * 1e6;
        let virtual_us = (to.virtual_us - from.virtual_us) as f64;
        metrics.set("sparklet.jobs", (to.jobs - from.jobs) as f64);
        metrics.set("sparklet.tasks", (to.tasks - from.tasks) as f64);
        metrics.set(
            "sparklet.tasks_failed",
            (to.tasks_failed - from.tasks_failed) as f64,
        );
        metrics.set(
            "sparklet.shuffle_bytes",
            (to.shuffle_bytes - from.shuffle_bytes) as f64,
        );
        metrics.set("sparklet.virtual_us", virtual_us);
        metrics.set(
            "sparklet.virtual_over_wall",
            if wall_us > 0.0 {
                virtual_us / wall_us
            } else {
                0.0
            },
        );
    }
}

/// Median wall time of 200 no-op `parallelize(..).map(..).collect()` jobs:
/// what launching a job costs before it does any work.
pub fn empty_job_wall_us(report: &mut Report, cluster: &Cluster) -> f64 {
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        let out = cluster.parallelize(vec![0u8; 1], 1).map(|x| x).collect();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if report.attempt("empty job", out).is_none() {
            break;
        }
    }
    stats::median(&samples)
}

/// Record how late the load generator itself ran over `runs`.
pub fn lateness_facts(report: &mut Report, runs: &[&PacedRun]) -> (f64, f64) {
    let all: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.lateness_us.iter().copied())
        .collect();
    let p50 = stats::median(&all);
    let max = all.iter().copied().fold(0.0, f64::max);
    report.fact(
        "generator_lateness_us",
        Json::obj([
            ("sleeps", Json::Num(all.len() as f64)),
            ("p50", Json::Num(p50)),
            ("max", Json::Num(max)),
        ]),
    );
    (p50, max)
}
