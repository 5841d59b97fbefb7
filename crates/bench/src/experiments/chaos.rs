//! Chaos experiment — recovery cost and output stability under executor
//! failures.
//!
//! Not a figure from the paper: the paper runs on a healthy 14-node cluster
//! and never measures failure recovery. This experiment establishes the
//! property the paper implicitly relies on — that Spark-style lineage
//! recovery is *semantically free*: executor kills, shuffle-output loss and
//! task retries may cost time but must never change a detection. Every
//! schedule in the sweep reruns the same seeded bootstrap + `detect_new`
//! batch and compares its output digest, bit for bit, against the
//! fault-free run.

use crate::harness::{capture_run, f3, ExperimentResult};
use adr_model::{AdrReport, PairId};
use adr_synth::{Dataset, SynthConfig};
use dedup::{DedupConfig, DedupSystem};
use fastknn::CLASSIFY_STAGE;
use sparklet::{stable_hash, Cluster, ClusterConfig, FaultConfig, JobReport};

struct ChaosOutcome {
    digest: u64,
    report: JobReport,
}

/// Run the full dedup pipeline on a seeded corpus under `config`,
/// capturing the run's job report under `label` for `--report`.
fn run_pipeline(quick: bool, label: &str, config: ClusterConfig) -> sparklet::Result<ChaosOutcome> {
    let (reports, cut) = if quick {
        (300usize, 280usize)
    } else {
        (800, 740)
    };
    let ds = Dataset::generate(&SynthConfig::small(reports, reports / 16, 77));
    let historical: Vec<AdrReport> = ds.reports[..cut].to_vec();
    let labelled: Vec<PairId> = ds
        .duplicate_pairs
        .iter()
        .filter(|p| (p.hi as usize) < cut)
        .copied()
        .collect();
    let arriving: Vec<AdrReport> = ds.reports[cut..].to_vec();
    let cluster = Cluster::new(config);
    let handle = cluster.clone();
    let mut dcfg = DedupConfig::default();
    dcfg.knn.b = 8;
    dcfg.bootstrap_negatives = 400;
    let mut system = DedupSystem::new(cluster, dcfg);
    system.bootstrap(&historical, &labelled)?;
    let detections = system.detect_new(&arriving)?;
    let records: Vec<(u64, u64, u64, bool)> = detections
        .iter()
        .map(|d| (d.pair.lo, d.pair.hi, d.score.to_bits(), d.is_duplicate))
        .collect();
    capture_run(format!("chaos {label}"), &handle);
    Ok(ChaosOutcome {
        digest: stable_hash(&records),
        report: handle.job_report(),
    })
}

fn config_with(fault: FaultConfig) -> ClusterConfig {
    let mut config = ClusterConfig::local(4);
    config.fault = fault;
    config
}

/// Run the chaos sweep. Returns the result tables and whether every
/// schedule reproduced the fault-free digest (the binary exits nonzero
/// when this is false).
pub fn run_seeded(quick: bool, fault_seeds: &[u64]) -> (Vec<ExperimentResult>, bool) {
    let baseline = run_pipeline(
        quick,
        "fault-free baseline",
        config_with(FaultConfig::disabled()),
    )
    .expect("fault-free run");
    let total = baseline.report.virtual_us;

    let mut schedules: Vec<(String, ClusterConfig)> = vec![
        (
            "kill executor 1 at t/2".into(),
            config_with(FaultConfig::disabled().kill_at_time(1, total / 2)),
        ),
        (
            "kill executors 1,2,3 staggered".into(),
            config_with(
                FaultConfig::disabled()
                    .kill_at_time(1, total / 4)
                    .kill_at_time(2, total / 2)
                    .kill_at_time(3, 3 * total / 4),
            ),
        ),
        (
            "kill executor 1 mid classify stage".into(),
            config_with(FaultConfig::disabled().kill_in_stage(1, CLASSIFY_STAGE, 1)),
        ),
    ];
    for &seed in fault_seeds {
        schedules.push((
            format!("task faults p=0.05 seed {seed}"),
            config_with(FaultConfig::with_probability(0.05, seed)),
        ));
    }

    let mut r = ExperimentResult::new(
        "Chaos — dedup output under executor failures",
        "Not in the paper; lineage recovery must reproduce the fault-free output bit for bit.",
        &[
            "schedule",
            "lost",
            "blacklisted",
            "fetch fails",
            "recomputed",
            "tasks lost",
            "overhead",
            "output",
        ],
    );
    let mut all_identical = true;
    for (label, config) in schedules {
        let outcome = run_pipeline(quick, &label, config).expect("chaos run");
        let rec = &outcome.report.recovery;
        let identical = outcome.digest == baseline.digest;
        all_identical &= identical;
        let overhead =
            (outcome.report.virtual_us as f64 - total as f64) / (total as f64).max(1.0) * 100.0;
        r.row(vec![
            label.clone(),
            rec.executors_lost.to_string(),
            rec.executors_blacklisted.to_string(),
            rec.fetch_failures.to_string(),
            rec.recomputed_map_tasks.to_string(),
            rec.tasks_lost.to_string(),
            format!("{}%", f3(overhead)),
            if identical {
                "identical".into()
            } else {
                "DRIFT".into()
            },
        ]);
    }
    r.note(format!(
        "fault-free digest {:#018x}, virtual time {:.1} s; \
         every schedule must read 'identical'.",
        baseline.digest,
        total as f64 / 1e6,
    ));
    if !all_identical {
        r.note("OUTPUT DRIFTED under at least one schedule — recovery is not semantically free.");
    }
    (vec![r], all_identical)
}

/// Default sweep (used by `exp_all`).
pub fn run(quick: bool) -> Vec<ExperimentResult> {
    run_seeded(quick, &[11, 22, 33]).0
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_chaos_sweep_reproduces_the_fault_free_digest() {
        let (out, ok) = super::run_seeded(true, &[11]);
        assert!(ok, "output drifted under faults:\n{}", out[0]);
        let rows = &out[0].rows;
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(row.last().unwrap(), "identical");
        }
        // The staggered-kill schedule loses exactly three executors.
        assert_eq!(rows[1][1], "3");
    }
}
