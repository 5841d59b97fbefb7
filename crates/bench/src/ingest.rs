//! Streaming-ingest service benchmark behind `BENCH_ingest.json`.
//!
//! Drives [`dedup::IngestService`] through a multi-quarter replay of a
//! synthetic corpus ([`adr_synth::QuarterlyReplay`]) and measures the
//! per-quarter commit latency the service sustains as the report database
//! grows — the operational question the paper's one-shot evaluation never
//! asks. Two legs:
//!
//! * **steady** — an uninterrupted run over every quarter; per-batch
//!   latency, detections and checkpoint bytes come from the job report's
//!   coalesced `ingest` section;
//! * **kill + recover** — the same run with a driver kill armed at a fault
//!   point midway through the schedule, then a recovery open from the
//!   checkpoint directory that finishes the run.
//!
//! **Gates**: the last detect quarter commits within
//! [`LATENCY_GATE_FACTOR`]× the first detect quarter's latency (bounded
//! stores and blocking keep per-quarter work from tracking database
//! growth), the kill + recover leg's cumulative digest is bit-identical to
//! the steady leg's, and the steady leg's checkpoint bytes stay under
//! [`COMMIT_BYTES_GATE_SHARE`] of a whole store per commit.

use crate::harness::{gates_json, Gate};
use adr_synth::{QuarterlyReplay, StreamingCorpus, SynthConfig};
use dedup::{DedupConfig, IngestConfig, IngestService};
use fastknn::FastKnnConfig;
use sparklet::{Cluster, ClusterConfig, FaultConfig, IngestBatchRow};
use std::path::PathBuf;

/// Gate: the last detect quarter must commit within this factor of the
/// first detect quarter's latency.
pub const LATENCY_GATE_FACTOR: f64 = 2.0;

/// Gate: checkpoint bytes the steady leg wrote, as a share of what a full
/// base per commit would have written (commits × the final store's
/// snapshot). A service that rewrites the store on every commit scores 1.
/// The bootstrap base alone is `1 / commits` of it (0.14 at full scale),
/// and a 300-report quarter offers 32–53k negatives to the 20,000-slot
/// reservoir, so its delta carries 0.2–0.65 of the slots: 0.52 measured at
/// full scale, 0.38 at `--quick`.
pub const COMMIT_BYTES_GATE_SHARE: f64 = 0.60;

/// One benchmark scenario: corpus scale, quarter size and cluster shape.
#[derive(Debug, Clone)]
pub struct IngestWorkload {
    /// Total corpus size (duplicates included).
    pub num_reports: usize,
    /// Injected duplicate pairs (~5% of reports, the Nkanza & Walop rate
    /// the generator defaults to).
    pub duplicate_pairs: usize,
    /// Reports per micro-batch (one "quarter" of the replay).
    pub quarter_size: u64,
    /// Leading quarters ingested as the expert-labelled historical
    /// database (the paper's operating point: new reports arrive at an
    /// *existing* database, so the detect horizon sees bounded relative
    /// growth rather than a cold start).
    pub bootstrap_quarters: u64,
    /// Simulated executors.
    pub executors: usize,
    /// Corpus seed.
    pub seed: u64,
}

impl IngestWorkload {
    /// Headline scenario: a 4,800-report corpus — roughly half the paper's
    /// TGA extract — streamed in 16 quarters of 300, the first 10 forming
    /// the historical labelled database (≈2.5 years of history, 1.5 years
    /// of arrivals).
    pub fn full() -> Self {
        IngestWorkload {
            num_reports: 4_800,
            duplicate_pairs: 240,
            quarter_size: 300,
            bootstrap_quarters: 10,
            executors: 4,
            seed: 2016,
        }
    }

    /// CI-smoke scale: 8 quarters of 150 reports, 4 of them historical.
    pub fn quick() -> Self {
        IngestWorkload {
            num_reports: 1_200,
            duplicate_pairs: 60,
            quarter_size: 150,
            bootstrap_quarters: 4,
            executors: 4,
            seed: 2016,
        }
    }

    /// The replay schedule over this workload's corpus.
    pub fn replay(&self) -> QuarterlyReplay {
        QuarterlyReplay::new(
            StreamingCorpus::new(SynthConfig::small(
                self.num_reports,
                self.duplicate_pairs,
                self.seed,
            )),
            self.quarter_size,
        )
    }

    fn dedup_config(&self) -> DedupConfig {
        // Fill the negative reservoir to capacity at bootstrap (bounded by
        // the pairs the historical prefix can yield): the first classified
        // quarter floods the reservoir to its cap anyway, so a small
        // bootstrap sample would only make the first detect quarter
        // artificially cheap and the latency gate meaningless.
        let bootstrap_reports = (self.quarter_size * self.bootstrap_quarters) as usize;
        let defaults = DedupConfig::default();
        DedupConfig {
            bootstrap_negatives: defaults
                .max_negative_store
                .min(bootstrap_reports * bootstrap_reports / 4),
            use_blocking: true,
            knn: FastKnnConfig {
                // Unlike the score-sweep experiments (θ = 0 so every score
                // is reported), the service feeds Eq. 6 *decisions* back
                // into its stores. Eq. 5 scores are inverse-distance sums
                // — true duplicates land far above 1 — and every false
                // positive permanently joins the (unbounded) duplicate
                // store that Fast kNN's stage 1 scans per candidate, so a
                // loose threshold turns into quadratic latency growth.
                theta: 10.0,
                b: 8,
                ..FastKnnConfig::default()
            },
            ..defaults
        }
    }

    fn ingest_config(&self, dir: &PathBuf) -> IngestConfig {
        let mut cfg = IngestConfig::new(dir);
        cfg.bootstrap_quarters = self.bootstrap_quarters;
        cfg
    }

    /// An empty checkpoint directory for one leg, named by workload size so
    /// legs of different workloads can run at once in one process.
    fn fresh_dir(&self, tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bench-ingest-{tag}-{}-{}",
            self.num_reports,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Summary of one completed service run.
#[derive(Debug, Clone)]
pub struct IngestRunSummary {
    /// Cumulative detection digest — the cross-leg identity witness.
    pub digest: u64,
    /// Per-batch rows from the job report's `ingest` section.
    pub rows: Vec<IngestBatchRow>,
    /// Virtual makespan of the whole run (µs).
    pub makespan_us: u64,
    /// Total checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Bytes of the final store's snapshot — what one more full base
    /// would write.
    pub final_base_bytes: u64,
    /// Fault points the driver passed (arms the kill leg).
    pub driver_points: u64,
    /// Recovery opens observed by the journal.
    pub recoveries: u64,
    /// The run's job report as JSON (stage timeline + ingest rows).
    pub report_json: String,
}

fn summarise(svc: &IngestService) -> IngestRunSummary {
    let report = svc.job_report();
    IngestRunSummary {
        digest: svc.cumulative_digest(),
        rows: report.ingest.batches.clone(),
        makespan_us: report.virtual_us,
        checkpoint_bytes: report.ingest.checkpoint_bytes,
        final_base_bytes: svc.system().store().snapshot().len() as u64,
        driver_points: svc.system().cluster().driver_points_passed(),
        recoveries: report.ingest.recoveries,
        report_json: report.to_json(),
    }
}

/// Run every quarter uninterrupted on a fresh checkpoint directory.
pub fn run_steady(w: &IngestWorkload) -> Result<IngestRunSummary, dedup::IngestError> {
    let rp = w.replay();
    let dir = w.fresh_dir("steady");
    let mut svc = IngestService::open(
        Cluster::local(w.executors),
        w.dedup_config(),
        w.ingest_config(&dir),
        &rp,
    )?;
    svc.run(&rp, rp.quarters())?;
    let summary = summarise(&svc);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(summary)
}

/// Kill the driver at `kill_point`, then recover from the checkpoint
/// directory with a fresh (un-armed) cluster and finish the run.
pub fn run_killed_and_recovered(
    w: &IngestWorkload,
    kill_point: u64,
) -> Result<IngestRunSummary, dedup::IngestError> {
    let rp = w.replay();
    let dir = w.fresh_dir("killed");
    let mut cfg = ClusterConfig::local(w.executors);
    cfg.fault = FaultConfig::disabled().kill_driver_at_point(kill_point);
    let killed = IngestService::open(
        Cluster::new(cfg),
        w.dedup_config(),
        w.ingest_config(&dir),
        &rp,
    )?
    .run(&rp, rp.quarters());
    match killed {
        Err(e) if e.is_driver_kill() => {}
        Err(e) => return Err(e),
        Ok(_) => {
            return Err(dedup::IngestError::Checkpoint(format!(
                "kill point {kill_point} beyond the run; nothing was killed"
            )))
        }
    }
    let mut svc = IngestService::open(
        Cluster::local(w.executors),
        w.dedup_config(),
        w.ingest_config(&dir),
        &rp,
    )?;
    svc.run(&rp, rp.quarters())?;
    let summary = summarise(&svc);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(summary)
}

/// Detect-quarter rows (the bootstrap row commits no detections and is
/// excluded from the latency gate).
fn detect_rows(rows: &[IngestBatchRow]) -> Vec<&IngestBatchRow> {
    rows.iter().filter(|r| r.batch > 0).collect()
}

/// `(first, last, ratio)` of the detect-quarter commit latencies.
pub fn latency_ratio(rows: &[IngestBatchRow]) -> Option<(u64, u64, f64)> {
    let detect = detect_rows(rows);
    let first = detect.first()?.latency_us;
    let last = detect.last()?.latency_us;
    Some((first, last, last as f64 / first.max(1) as f64))
}

/// Checkpoint bytes written per commit, as a share of the final store's
/// snapshot (see [`COMMIT_BYTES_GATE_SHARE`]).
pub fn commit_bytes_share(run: &IngestRunSummary) -> f64 {
    let whole_store_per_commit = run.rows.len() as u64 * run.final_base_bytes;
    run.checkpoint_bytes as f64 / whole_store_per_commit.max(1) as f64
}

/// Render `BENCH_ingest.json`.
pub fn ingest_to_json(
    w: &IngestWorkload,
    steady: &IngestRunSummary,
    recovered: &IngestRunSummary,
) -> String {
    let quarters = w.replay().quarters();
    let (first, last, ratio) = latency_ratio(&steady.rows).unwrap_or((0, 0, f64::INFINITY));
    let digest_match = recovered.digest == steady.digest;
    let recovered_once = recovered.recoveries >= 1;
    let mut out = format!(
        "{{\n  \"schema_version\": 1,\n  \"reports\": {},\n  \"quarters\": {},\n  \
         \"quarter_size\": {},\n  \"executors\": {},\n",
        w.num_reports, quarters, w.quarter_size, w.executors
    );
    out.push_str(&format!(
        "  \"steady\": {{\"digest\": \"{:#018x}\", \"makespan_us\": {}, \
         \"checkpoint_bytes\": {}, \"final_base_bytes\": {}, \"batches\": [\n",
        steady.digest, steady.makespan_us, steady.checkpoint_bytes, steady.final_base_bytes
    ));
    for (i, r) in steady.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"batch\": {}, \"reports\": {}, \"detections\": {}, \"duplicates\": {}, \
             \"latency_us\": {}, \"checkpoint_bytes\": {}}}{}\n",
            r.batch,
            r.reports,
            r.detections,
            r.duplicates,
            r.latency_us,
            r.checkpoint_bytes,
            if i + 1 < steady.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str(&format!(
        "  \"recovered\": {{\"digest\": \"{:#018x}\", \"makespan_us\": {}, \
         \"recoveries\": {}}},\n",
        recovered.digest, recovered.makespan_us, recovered.recoveries
    ));
    out.push_str(&format!(
        "  \"latency\": {{\"first_quarter_us\": {first}, \"last_quarter_us\": {last}}},\n"
    ));
    out.push_str("  ");
    out.push_str(&gates_json(&[
        Gate::at_most("latency_ratio", LATENCY_GATE_FACTOR, ratio),
        Gate::holds("recovery_digest_match", digest_match),
        Gate::holds("recovered", recovered_once),
        Gate::at_most(
            "commit_bytes_share",
            COMMIT_BYTES_GATE_SHARE,
            commit_bytes_share(steady),
        ),
    ]));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> IngestWorkload {
        IngestWorkload {
            num_reports: 160,
            duplicate_pairs: 8,
            quarter_size: 40,
            bootstrap_quarters: 1,
            executors: 2,
            seed: 7,
        }
    }

    #[test]
    fn steady_and_recovered_legs_agree_at_test_scale() {
        let w = tiny();
        let steady = run_steady(&w).expect("steady leg");
        assert_eq!(steady.rows.len(), 4, "bootstrap + 3 detect quarters");
        assert!(steady.checkpoint_bytes > 0);
        assert!(steady.final_base_bytes > 0);
        assert!(steady.driver_points >= 8);
        let recovered =
            run_killed_and_recovered(&w, steady.driver_points / 2).expect("kill + recover leg");
        assert_eq!(recovered.digest, steady.digest);
        assert_eq!(recovered.recoveries, 1);

        let doc = ingest_to_json(&w, &steady, &recovered);
        assert!(
            doc.contains(
                "\"recovery_digest_match\": {\"threshold\": 1.00, \"value\": 1.0000, \"passed\": true}"
            ),
            "{doc}"
        );
        assert!(doc.starts_with('{') && doc.ends_with("}\n"));
    }

    #[test]
    fn json_gate_fails_on_digest_drift_or_latency_blowup() {
        let w = tiny();
        let row = |batch, latency_us| IngestBatchRow {
            batch,
            reports: 10,
            detections: 5,
            duplicates: 1,
            retries: 0,
            latency_us,
            checkpoint_bytes: 100,
        };
        let steady = IngestRunSummary {
            digest: 42,
            rows: vec![row(0, 0), row(1, 1000), row(2, 1500)],
            makespan_us: 10_000,
            checkpoint_bytes: 300,
            final_base_bytes: 200,
            driver_points: 12,
            recoveries: 0,
            report_json: String::new(),
        };
        let mut recovered = steady.clone();
        recovered.recoveries = 1;
        let doc = ingest_to_json(&w, &steady, &recovered);
        assert!(doc.contains(
            "\"latency_ratio\": {\"threshold\": 2.00, \"value\": 1.5000, \"passed\": true}"
        ));
        assert!(!doc.contains("\"passed\": false"));

        let mut drifted = recovered.clone();
        drifted.digest = 43;
        let doc = ingest_to_json(&w, &steady, &drifted);
        assert!(doc.contains(
            "\"recovery_digest_match\": {\"threshold\": 1.00, \"value\": 0.0000, \"passed\": false}"
        ));

        // 300 B over three commits of a 200 B store: half a store a commit.
        assert!(doc.contains(
            "\"commit_bytes_share\": {\"threshold\": 0.60, \"value\": 0.5000, \"passed\": true}"
        ));
        let mut rewriting = steady.clone();
        rewriting.checkpoint_bytes = 600;
        let doc = ingest_to_json(&w, &rewriting, &recovered);
        assert!(doc.contains(
            "\"commit_bytes_share\": {\"threshold\": 0.60, \"value\": 1.0000, \"passed\": false}"
        ));

        let mut slow = steady.clone();
        slow.rows = vec![row(0, 0), row(1, 1000), row(2, 2500)];
        let doc = ingest_to_json(&w, &slow, &recovered);
        assert!(doc.contains(
            "\"latency_ratio\": {\"threshold\": 2.00, \"value\": 2.5000, \"passed\": false}"
        ));
    }

    #[test]
    fn quick_scale_job_report_is_json() {
        let steady = run_steady(&IngestWorkload::quick()).expect("steady leg");
        let json = &steady.report_json;
        assert!(crate::json_check::is_json(json), "{json}");
    }
}
