//! Chaos and scale suite for the serving layer (`dedup::serve`).
//!
//! Three contracts:
//!
//! * **answer invariance** — the batch size (up to 64 requests, or one at
//!   a time with `max_batch: 1`) and executor kills mid-serve must never change a
//!   single answer bit: the answer digest is the only output that matters
//!   and it must be policy- and fault-independent;
//! * **read-only serving** — interleaving serve traffic between ingest
//!   commits must leave the ingest service's cumulative detection digest
//!   exactly where an undisturbed (and a killed-and-recovered) run lands
//!   it — serving reads snapshots, never system state;
//! * **bounded accounting** — a hundred thousand signal requests coalesce
//!   into per-batch journal events, never run an engine job, and surface in
//!   the job report's serve section.

use adr_synth::{Dataset, QuarterlyReplay, StreamingCorpus, SynthConfig};
use dedup::{
    answers_digest, DedupConfig, DedupSystem, IngestConfig, IngestService, ServeConfig, ServeQuery,
    ServeRequest, ServeService,
};
use fastknn::FastKnnConfig;
use sparklet::{Cluster, ClusterConfig, FaultConfig};
use std::path::PathBuf;

fn dedup_config() -> DedupConfig {
    DedupConfig {
        bootstrap_negatives: 400,
        use_blocking: true,
        knn: FastKnnConfig {
            theta: 0.0,
            b: 8,
            ..FastKnnConfig::default()
        },
        ..DedupConfig::default()
    }
}

fn bootstrapped(cluster: Cluster, ds: &Dataset) -> DedupSystem {
    let mut sys = DedupSystem::new(cluster, dedup_config());
    sys.bootstrap(&ds.reports, &ds.duplicate_pairs)
        .expect("bootstrap");
    sys
}

/// A mixed open-loop stream: duplicate probes (fresh-id clones of corpus
/// reports, forcing real candidate classification) with signal queries
/// threaded through.
fn mixed_requests(ds: &Dataset, n: usize) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            let query = if i % 4 == 3 {
                let r = &ds.reports[(i * 7) % ds.reports.len()];
                ServeQuery::Signal {
                    drug: r
                        .drug_names()
                        .first()
                        .and_then(|d| d.split_whitespace().next())
                        .unwrap_or("panadol")
                        .to_lowercase(),
                    event: r
                        .adr_names()
                        .first()
                        .and_then(|e| e.split_whitespace().next())
                        .unwrap_or("rash")
                        .to_lowercase(),
                }
            } else {
                let mut report = ds.reports[(i * 13) % ds.reports.len()].clone();
                report.id = 2_000_000_000 + i as u64;
                ServeQuery::Duplicate { report }
            };
            ServeRequest {
                arrival_us: i as u64 * 400,
                query,
            }
        })
        .collect()
}

/// The tentpole invariance: one request stream served batched, served one
/// request per batch, and served batched on a cluster whose executors are
/// killed mid-run — one digest.
#[test]
fn admission_policy_and_executor_kills_never_change_answers() {
    let ds = Dataset::generate(&SynthConfig::small(250, 15, 11));
    let requests = mixed_requests(&ds, 48);

    let sys = bootstrapped(Cluster::local(4), &ds);
    let after_bootstrap = sys.job_report().virtual_us;
    let batched = ServeService::attach(&sys, ServeConfig::default())
        .expect("attach")
        .run_open_loop(&requests)
        .expect("batched run");
    let total = sys.job_report().virtual_us;
    assert!(total > after_bootstrap, "serving must run engine jobs");

    let single = ServeService::attach(&sys, ServeConfig { max_batch: 1 })
        .expect("attach")
        .run_open_loop(&requests)
        .expect("one-request-batch run");
    assert_eq!(
        batched.digest, single.digest,
        "admission policy changed answers"
    );
    assert!(batched.batches < single.batches);
    assert_eq!(batched.digest, answers_digest(&batched.answers));

    // Kill two of the four executors at virtual times the serve jobs will
    // cross; lineage recomputation must reproduce every answer bit.
    let serve_span = total - after_bootstrap;
    let mut cfg = ClusterConfig::local(4);
    cfg.fault = FaultConfig::disabled()
        .kill_at_time(1, after_bootstrap + serve_span / 4)
        .kill_at_time(2, after_bootstrap + serve_span / 2);
    let chaos_sys = bootstrapped(Cluster::new(cfg), &ds);
    let chaos = ServeService::attach(&chaos_sys, ServeConfig::default())
        .expect("attach")
        .run_open_loop(&requests)
        .expect("chaos run");
    let report = chaos_sys.job_report();
    assert!(
        report.recovery.executors_lost >= 1,
        "no executor was actually killed (lost {})",
        report.recovery.executors_lost
    );
    assert_eq!(
        chaos.digest, batched.digest,
        "executor kills changed serve answers"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serving between ingest commits is invisible to ingest: the interleaved
/// run's cumulative detection digest equals the serve-free reference, and
/// a driver kill + recovery under the same interleaving still lands on it.
#[test]
fn serving_between_ingest_commits_preserves_recovery_invariants() {
    let rp = QuarterlyReplay::new(StreamingCorpus::new(SynthConfig::small(120, 8, 7)), 30);
    let quarters = rp.quarters();
    let probes = Dataset::generate(&SynthConfig::small(60, 5, 99));

    // Serve-free reference digest.
    let dir = temp_dir("ref");
    let mut svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("open reference");
    svc.run(&rp, quarters).expect("reference run");
    let want = svc.cumulative_digest();
    let points = svc.system().cluster().driver_points_passed();
    let _ = std::fs::remove_dir_all(&dir);

    // Interleaved leg: serve a burst after every committed quarter.
    let dir = temp_dir("mix");
    let mut svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("open interleaved");
    let mut serve = ServeService::attach(svc.system(), ServeConfig::default()).expect("attach");
    let mut served = Vec::new();
    for q in 1..=quarters {
        svc.run(&rp, q)
            .unwrap_or_else(|e| panic!("quarter {q}: {e}"));
        serve.refresh(svc.system()).expect("refresh after commit");
        let out = serve
            .run_open_loop(&mixed_requests(&probes, 8))
            .expect("interleaved serve");
        served.push(out.digest);
    }
    assert_eq!(
        svc.cumulative_digest(),
        want,
        "serve traffic perturbed the ingest digest"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Kill the driver midway, recover from disk, serve, finish: the
    // recovered digest and the post-recovery serve answers both hold.
    let dir = temp_dir("kill");
    let mut cfg = ClusterConfig::local(2);
    cfg.fault = FaultConfig::disabled().kill_driver_at_point(points / 2);
    let killed = IngestService::open(
        Cluster::new(cfg),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("open armed")
    .run(&rp, quarters);
    assert!(
        killed.expect_err("armed run must die").is_driver_kill(),
        "expected a driver kill"
    );

    let mut svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("recovery open");
    let mut serve = ServeService::attach(svc.system(), ServeConfig::default()).expect("attach");
    svc.run(&rp, quarters).expect("resumed run");
    assert_eq!(
        svc.cumulative_digest(),
        want,
        "recovery under serving diverged"
    );
    serve.refresh(svc.system()).expect("refresh after recovery");
    let out = serve
        .run_open_loop(&mixed_requests(&probes, 8))
        .expect("post-recovery serve");
    assert_eq!(
        out.digest,
        *served.last().expect("interleaved digests"),
        "post-recovery serve answers diverged from the steady leg's final state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hundred thousand signal requests: no engine jobs, one coalesced
/// journal event per micro-batch, the journal far under its cap, and the
/// job report's serve section carrying the totals.
#[test]
fn hundred_thousand_signal_requests_stay_bounded() {
    let ds = Dataset::generate(&SynthConfig::small(220, 12, 5));
    let sys = bootstrapped(Cluster::local(2), &ds);
    let drugs = adr_synth::lexicon::drug_names(10);
    let events = ["rash", "nausea", "headache", "fatigue", "dizziness"];

    let requests: Vec<ServeRequest> = (0..100_000u64)
        .map(|i| ServeRequest {
            arrival_us: i * 10,
            query: ServeQuery::Signal {
                drug: drugs[(i % drugs.len() as u64) as usize].to_lowercase(),
                event: events[((i / 7) % events.len() as u64) as usize].to_string(),
            },
        })
        .collect();

    // Neither attaching (it shares the published epoch and counts on the
    // driver) nor the flood runs an engine job.
    let mut serve = ServeService::attach(&sys, ServeConfig::default()).expect("attach");
    let stages_before = sys.cluster().clock().stage_count();
    let out = serve.run_open_loop(&requests).expect("signal flood");
    assert_eq!(out.requests(), 100_000);
    assert_eq!(
        sys.cluster().clock().stage_count(),
        stages_before,
        "signal-only batches must not run engine jobs"
    );

    assert!(
        out.batches <= 2_000,
        "100k requests must coalesce into few batches, got {}",
        out.batches
    );

    // The job report's serve section folds one event per batch.
    let report = sys.job_report();
    assert_eq!(report.serve.requests, 100_000);
    assert_eq!(report.serve.batches, out.batches);
    assert_eq!(report.serve.service_us, out.service_us);
    assert_eq!(
        report.serve.batch_size_hist.iter().sum::<u64>(),
        out.batches
    );
    assert_eq!(report.serve.memo_lookups, 100_000);
    assert!(
        report.serve.memo_hits >= 99_000,
        "fifty distinct queries must hit the memo, got {} hits",
        report.serve.memo_hits
    );
    assert!(report.to_json().contains("\"serve\""));
}

/// The report stays true for the life of a service: five hundred
/// single-probe duplicate lookups on one service fold two events each (the
/// serve batch and its one pruning pass — the classify stage in between
/// folds none), and the report counts every one: one classify stage per
/// lookup, and no shuffle.
#[test]
fn job_report_counts_every_lookup_of_a_long_lived_service() {
    let ds = Dataset::generate(&SynthConfig::small(250, 15, 11));
    let sys = bootstrapped(Cluster::local(2), &ds);
    let mut serve = ServeService::attach(&sys, ServeConfig::default()).expect("attach");
    let before = sys.job_report();
    for i in 0..500usize {
        let mut report = ds.reports[(i * 13) % ds.reports.len()].clone();
        report.id = 2_000_000_000 + i as u64;
        let out = serve
            .run_open_loop(&[ServeRequest {
                arrival_us: 0,
                query: ServeQuery::Duplicate { report },
            }])
            .expect("lookup");
        assert_eq!(out.batches, 1);
    }
    let report = sys.job_report();
    assert_eq!(report.serve.batches, 500);
    assert_eq!(report.serve.requests, 500);
    assert_eq!(report.prune.passes - before.prune.passes, 500);
    let stages = &report.stages[before.stages.len()..];
    assert_eq!(stages.len(), 500, "one engine stage per lookup");
    assert!(stages
        .iter()
        .all(|s| s.name == fastknn::CLASSIFY_STAGE && s.tasks == 1));
    assert_eq!(
        report.totals.shuffle_bytes_written,
        before.totals.shuffle_bytes_written
    );
}
