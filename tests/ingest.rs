//! Chaos suite for the durable streaming-ingest service (`dedup::ingest`).
//!
//! The contract under test is *lossless recovery*: a driver crash at any
//! fault point, a torn checkpoint write, a poisoned batch or a transient
//! engine fault must leave the service able to reach the exact cumulative
//! detection digest of an undisturbed run. The digest folds every
//! detection of every committed batch (pair ids, score bits, decision), so
//! bit-identity here is bit-identity of the system's entire output.

use adr_synth::{QuarterlyReplay, StreamingCorpus, SynthConfig};
use dedup::{DedupConfig, IngestConfig, IngestError, IngestService, TornWrite};
use fastknn::FastKnnConfig;
use sparklet::{Cluster, ClusterConfig, FaultConfig, SparkletError};
use std::path::{Path, PathBuf};

fn replay(reports: usize, dups: usize, seed: u64, quarter: u64) -> QuarterlyReplay {
    QuarterlyReplay::new(
        StreamingCorpus::new(SynthConfig::small(reports, dups, seed)),
        quarter,
    )
}

fn dedup_config() -> DedupConfig {
    DedupConfig {
        bootstrap_negatives: 250,
        use_blocking: true,
        knn: FastKnnConfig {
            theta: 0.0,
            b: 8,
            ..FastKnnConfig::default()
        },
        ..DedupConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ingest-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// A fresh copy of a (flat) checkpoint directory.
fn copy_dir(from: &Path, tag: &str) -> PathBuf {
    let to = temp_dir(tag);
    std::fs::create_dir_all(&to).expect("create copy");
    for name in file_names(from) {
        std::fs::copy(from.join(&name), to.join(&name)).expect("copy checkpoint file");
    }
    to
}

/// Run the whole replay on a fresh directory and return the digest.
fn reference_digest(rp: &QuarterlyReplay, tag: &str) -> u64 {
    let dir = temp_dir(tag);
    let mut svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&dir),
        rp,
    )
    .expect("open fresh");
    svc.run(rp, rp.quarters()).expect("uninterrupted run");
    let digest = svc.cumulative_digest();
    let _ = std::fs::remove_dir_all(&dir);
    digest
}

#[test]
fn uninterrupted_runs_share_one_digest() {
    let rp = replay(160, 10, 42, 40);
    let a = reference_digest(&rp, "det-a");
    let b = reference_digest(&rp, "det-b");
    assert_ne!(a, 0);
    assert_eq!(a, b, "identical runs must produce identical digests");
}

/// The tentpole guarantee: arm a driver kill at every fault point the
/// service passes and show that re-opening from the checkpoint directory
/// and finishing the run lands on the uninterrupted digest, every time.
#[test]
fn driver_kill_at_every_point_recovers_bit_identically() {
    let rp = replay(120, 8, 7, 30);
    let quarters = rp.quarters();

    // Clean run: reference digest + the number of fault points traversed.
    let dir = temp_dir("kill-ref");
    let mut svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("open fresh");
    svc.run(&rp, quarters).expect("clean run");
    let want = svc.cumulative_digest();
    let points = svc.system().cluster().driver_points_passed();
    // The schedule both appends to a delta log and compacts into a new
    // base, so the sweep crosses the fault points of either kind of commit.
    let files = file_names(&dir);
    let count = |suffix: &str| files.iter().filter(|n| n.ends_with(suffix)).count();
    assert!(
        count(".ckpt") >= 2 && count(".log") >= 1,
        "the clean run must compact and log: {files:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        points >= 8,
        "expected a sweep worth of fault points, got {points}"
    );

    for p in 0..points {
        let dir = temp_dir(&format!("kill-{p}"));
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_driver_at_point(p);
        let killed = IngestService::open(
            Cluster::new(cfg),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .expect("open armed")
        .run(&rp, quarters);
        let err = killed.expect_err("armed run must die at its fault point");
        assert!(err.is_driver_kill(), "point {p}: unexpected error {err}");

        // The crashed driver's memory is gone; recover from disk alone.
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap_or_else(|e| panic!("point {p}: recovery open failed: {e}"));
        svc.run(&rp, quarters)
            .unwrap_or_else(|e| panic!("point {p}: resumed run failed: {e}"));
        assert_eq!(
            svc.cumulative_digest(),
            want,
            "kill at point {p}: recovered digest diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The publish that ends a commit — the fit on the stores the batch just
/// fed — has a fault point of its own, between the feedback and the
/// checkpoint write. A driver that dies there has changed stores and no
/// model for them, neither of them durable: recovery must come back on the
/// commit before and replay the batch to the same digest.
#[test]
fn driver_kill_inside_the_publish_recovers_bit_identically() {
    let rp = replay(120, 8, 7, 30);
    let quarters = rp.quarters();
    let want = reference_digest(&rp, "publish-ref");
    // Points 0–4 are the bootstrap's (start, publish, done, rename,
    // committed); every detect batch then passes start, publish, detected,
    // append or rename, committed.
    for (p, committed) in [(1, 0), (6, 1), (11, 2)] {
        let dir = temp_dir(&format!("publish-{p}"));
        let mut cfg = ClusterConfig::local(2);
        cfg.fault = FaultConfig::disabled().kill_driver_at_point(p);
        let err = IngestService::open(
            Cluster::new(cfg),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .expect("open armed")
        .run(&rp, quarters)
        .expect_err("armed run must die in the publish");
        assert!(
            matches!(
                &err,
                IngestError::Engine(SparkletError::DriverKilled { label, .. }) if label == "publish"
            ),
            "point {p} is not a publish: {err}"
        );
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap_or_else(|e| panic!("point {p}: recovery open failed: {e}"));
        assert_eq!(svc.batch_high_water(), committed, "point {p}");
        svc.run(&rp, quarters)
            .unwrap_or_else(|e| panic!("point {p}: resumed run failed: {e}"));
        assert_eq!(svc.cumulative_digest(), want, "point {p}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite: a torn checkpoint write (truncated bytes that still made it
/// through the rename) must fail its CRC on recovery and fall back to the
/// previous generation — losing the torn batch's commit but nothing else.
#[test]
fn torn_checkpoint_write_falls_back_one_generation() {
    let rp = replay(120, 8, 7, 30);
    let quarters = rp.quarters();
    let want = reference_digest(&rp, "torn-ref");

    let dir = temp_dir("torn");
    let mut config = IngestConfig::new(&dir);
    // Tear the final checkpoint (generation == quarters - 1: one per
    // bootstrap commit plus one per detect batch).
    config.torn_write = Some(TornWrite {
        generation: quarters - 1,
        keep_bytes: 120,
    });
    let mut svc = IngestService::open(Cluster::local(2), dedup_config(), config, &rp)
        .expect("open with torn-write fault");
    svc.run(&rp, quarters).expect("run with torn final write");
    drop(svc);

    let mut svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("recovery open");
    assert!(
        svc.recovered_with_fallback(),
        "newest generation is torn; recovery must fall back"
    );
    assert_eq!(
        svc.batch_high_water(),
        quarters - 1,
        "fallback loses exactly the torn batch's commit"
    );
    svc.run(&rp, quarters).expect("replay the lost batch");
    assert_eq!(svc.cumulative_digest(), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage the newest checkpoint files byte by byte — the last record of
/// the current log cut short or scrambled, then the same for the current
/// base — and recover: `open` must come back on an earlier commit (never
/// panic, never a later or a made-up state), and finishing the run from
/// there must land on the uninterrupted digest.
#[test]
fn damaged_log_tail_or_base_recovers_to_an_earlier_commit() {
    let rp = replay(120, 8, 7, 30);
    let quarters = rp.quarters();
    let clean = temp_dir("damage-clean");
    let mut svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&clean),
        &rp,
    )
    .expect("open fresh");
    svc.run(&rp, quarters).expect("clean run");
    let want = svc.cumulative_digest();
    drop(svc);
    let files = file_names(&clean);
    let newest = |suffix: &str| {
        files
            .iter()
            .rfind(|n| n.ends_with(suffix))
            .unwrap_or_else(|| panic!("no {suffix} in {files:?}"))
            .clone()
    };
    let (log, base) = (newest(".log"), newest(".ckpt"));
    assert_eq!(
        log.trim_end_matches(".log"),
        base.trim_end_matches(".ckpt"),
        "the final commit was logged against the newest base: {files:?}"
    );

    let recover = |file: &str, damage: &dyn Fn(&mut Vec<u8>), what: &str| {
        let dir = copy_dir(&clean, "damage");
        let mut bytes = std::fs::read(dir.join(file)).expect("read");
        damage(&mut bytes);
        std::fs::write(dir.join(file), bytes).expect("write damaged");
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
        // (A log cut to nothing is a commit that never started: there is
        // no damage to notice, only an earlier state.)
        assert!(
            svc.recovered_with_fallback() || what == "log cut at 0",
            "{what}: damage unnoticed"
        );
        let resumed_at = svc.batch_high_water();
        assert!(resumed_at < quarters, "{what}: resumed at {resumed_at}");
        svc.run(&rp, quarters)
            .unwrap_or_else(|e| panic!("{what}: resumed run failed: {e}"));
        assert_eq!(svc.cumulative_digest(), want, "{what}: digest diverged");
        let _ = std::fs::remove_dir_all(&dir);
        resumed_at
    };

    // The log holds one record here (the final commit): every cut inside
    // it, and a scramble of bytes all along it, loses exactly that commit.
    let log_len = std::fs::read(clean.join(&log)).expect("read log").len();
    let sampled = |len: usize| (0..len).step_by(len / 8 + 1).chain([len - 1]);
    for at in sampled(log_len) {
        let resumed = recover(&log, &|b| b.truncate(at), &format!("log cut at {at}"));
        assert_eq!(resumed, quarters - 1, "log cut at {at}");
        let resumed = recover(&log, &|b| b[at] ^= 0x01, &format!("log byte {at}"));
        assert_eq!(resumed, quarters - 1, "log byte {at}");
    }
    // A damaged base takes its log with it: recovery falls back to the
    // previous base and that base's complete log.
    // (Its last byte is the newline after the CRC, which the base parser
    // does not insist on.)
    let base_len = std::fs::read(clean.join(&base)).expect("read base").len();
    for at in sampled(base_len - 1) {
        let resumed = recover(&base, &|b| b.truncate(at), &format!("base cut at {at}"));
        assert_eq!(resumed, quarters - 2, "base cut at {at}");
        recover(&base, &|b| b[at] ^= 0x01, &format!("base byte {at}"));
    }
    let _ = std::fs::remove_dir_all(&clean);
}

/// Satellite: a poisoned batch is quarantined after its retries, later
/// batches commit, and the final state matches a run that never saw the
/// batch at all.
#[test]
fn quarantine_leaves_state_as_if_the_batch_never_arrived() {
    let rp = replay(160, 10, 42, 40);
    let quarters = rp.quarters();

    let skip_dir = temp_dir("skip");
    let mut skip_cfg = IngestConfig::new(&skip_dir);
    skip_cfg.skip_batches = vec![2];
    let mut skip_svc = IngestService::open(Cluster::local(2), dedup_config(), skip_cfg, &rp)
        .expect("open skip run");
    skip_svc.run(&rp, quarters).expect("skip run");
    let want = skip_svc.cumulative_digest();
    let _ = std::fs::remove_dir_all(&skip_dir);

    let dir = temp_dir("poison");
    let mut cfg = IngestConfig::new(&dir);
    cfg.poison_batches = vec![2];
    cfg.max_batch_retries = 1;
    let mut svc =
        IngestService::open(Cluster::local(2), dedup_config(), cfg, &rp).expect("open poison run");
    svc.run(&rp, quarters).expect("poison run completes");

    assert_eq!(
        svc.batch_high_water(),
        quarters,
        "later batches still commit"
    );
    assert_eq!(svc.skipped(), &[2], "the poison batch is quarantined");
    assert_eq!(
        svc.cumulative_digest(),
        want,
        "quarantine must equal never-arrived"
    );
    let report = svc.job_report();
    assert_eq!(report.ingest.batches_quarantined, 1);
    let log = std::fs::read_to_string(dir.join("quarantine.log")).expect("quarantine.log");
    assert!(log.contains("batch 2"), "log names the batch: {log:?}");
    assert!(
        log.contains("attempts 2"),
        "one initial attempt + one retry before quarantine: {log:?}"
    );
    assert!(log.contains("poisoned batch 2"), "log carries the reason");

    // A restart after quarantine must not retry the poisoned batch.
    drop(svc);
    let svc = IngestService::open(
        Cluster::local(2),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("reopen after quarantine");
    assert_eq!(svc.skipped(), &[2]);
    assert_eq!(svc.cumulative_digest(), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transient engine faults (worker task failures with engine-level retry
/// disabled) bubble up to the service, which rolls the batch back, backs
/// off on the virtual clock, and replays — landing on the fault-free
/// digest.
#[test]
fn transient_engine_faults_retry_to_the_fault_free_digest() {
    let rp = replay(160, 10, 42, 40);
    let want = reference_digest(&rp, "fault-ref");

    let dir = temp_dir("fault");
    let mut cluster_cfg = ClusterConfig::local(2);
    // With engine-level retry disabled every task fault fails its whole
    // job, so the rate must stay low enough that a batch converges within
    // the service's retry budget, and high enough that some batch needs it.
    // A batch here is some 9-17 task attempts over two jobs (the distance
    // job's 8-16 morsel tasks, one classify stage of one task): ≈ 0.2
    // faults a batch expected, and this schedule retries 1 of the 4
    // batches. It retried 3 while each fit also ran a count job over its
    // cached cells (three jobs a batch), was 63-75 attempts over six jobs
    // when a batch classified in one Algorithm 2 block of four stages, and
    // 244-274 over 23 when it ran four blocks of five stages and the rate
    // was 0.004.
    cluster_cfg.max_task_attempts = 1;
    cluster_cfg.fault = FaultConfig::with_probability(0.015, 2016);
    let mut ingest_cfg = IngestConfig::new(&dir);
    ingest_cfg.max_batch_retries = 8;
    let mut svc = IngestService::open(Cluster::new(cluster_cfg), dedup_config(), ingest_cfg, &rp)
        .expect("open faulty");
    svc.run(&rp, rp.quarters()).expect("faulty run converges");

    assert_eq!(svc.cumulative_digest(), want);
    assert!(svc.skipped().is_empty(), "no batch should be quarantined");
    let report = svc.job_report();
    assert!(
        report.ingest.batch_retries >= 1,
        "fault injection never forced a service-level retry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forty quarters of ingest coalesce into one journal row per commit, in
/// commit order, and the report's ingest totals account for all of them.
#[test]
fn journal_stays_bounded_across_forty_quarters() {
    let rp = replay(1000, 50, 9, 25);
    assert_eq!(rp.quarters(), 40);
    let dir = temp_dir("forty");
    let mut svc = IngestService::open(
        Cluster::local(4),
        dedup_config(),
        IngestConfig::new(&dir),
        &rp,
    )
    .expect("open");
    svc.run(&rp, 40).expect("forty quarters");
    assert_eq!(svc.batch_high_water(), 40);

    let report = svc.job_report();
    assert_eq!(report.ingest.batches.len(), 40, "one row per commit");
    let batches: Vec<u64> = report.ingest.batches.iter().map(|b| b.batch).collect();
    assert!(batches.windows(2).all(|w| w[0] < w[1]), "{batches:?}");
    assert_eq!(batches.last(), Some(&39));
    assert_eq!(report.ingest.batches_quarantined, 0);
    assert!(
        report.ingest.checkpoint_bytes > 0,
        "checkpoint bytes accounted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
