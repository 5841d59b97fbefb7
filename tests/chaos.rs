//! Chaos suite: injected executor failures must never change what the
//! pipeline computes.
//!
//! Every test here runs the same seeded bootstrap + `detect_new` batch as
//! `refactor_baseline.rs` under a different failure schedule — executors
//! killed between stages, killed mid-stage, random task faults, spill
//! forced on every stage — and asserts the detections are **bit-identical** to the
//! fault-free run (same pinned digest). The product classifies in one
//! stage and shuffles nothing, so the spill-forced runs also classify the
//! batch through the paper's Algorithm 2, whose shuffles a memory cap
//! spills, and hold its records equal to `detect_new`'s. Recovery is
//! allowed to cost virtual time; it is never allowed to change a score, a
//! label, or the output order. The only acceptable divergence is a clean error when the failure
//! schedule leaves no healthy executor to run on.

use adr_model::{AdrReport, PairId};
use adr_synth::{Dataset, SynthConfig};
use dedup::{DedupConfig, DedupSystem};
use fastknn::{FastKnn, CLASSIFY_STAGE};
use sparklet::{stable_hash, Cluster, ClusterConfig, FaultConfig, JobReport, SparkletError};

mod algorithm2;
use algorithm2::{algorithm2_records, Record};

/// The fault-free `detect_new` digest pinned in `refactor_baseline.rs`.
const BASELINE_DIGEST: u64 = 11028548671881665013;

fn corpus() -> (Vec<AdrReport>, Vec<PairId>, Vec<AdrReport>) {
    let ds = Dataset::generate(&SynthConfig::small(300, 18, 77));
    let cut = 280;
    let historical = ds.reports[..cut].to_vec();
    let labelled = ds
        .duplicate_pairs
        .iter()
        .filter(|p| (p.hi as usize) < cut)
        .copied()
        .collect();
    let arriving = ds.reports[cut..].to_vec();
    (historical, labelled, arriving)
}

struct ChaosRun {
    digest: u64,
    report: JobReport,
}

/// Run the full pipeline on `config`, returning the detection digest and
/// the job report (recovery section included).
fn run_pipeline(config: ClusterConfig) -> sparklet::Result<ChaosRun> {
    run(config, false)
}

/// [`run_pipeline`], then the same candidate batch classified again on the
/// same cluster through Algorithm 2's `classify_batch`, by a twin of the
/// model `detect_new` classified with. The report covers both routes, and
/// Algorithm 2's records must equal `detect_new`'s, score bits included.
fn run_both_routes(config: ClusterConfig) -> sparklet::Result<ChaosRun> {
    run(config, true)
}

fn run(config: ClusterConfig, algorithm2: bool) -> sparklet::Result<ChaosRun> {
    let (historical, labelled, arriving) = corpus();
    let cluster = Cluster::new(config);
    let handle = cluster.clone();
    let mut dcfg = DedupConfig::default();
    dcfg.knn.b = 8;
    dcfg.bootstrap_negatives = 400;
    let mut system = DedupSystem::new(cluster, dcfg);
    system.bootstrap(&historical, &labelled)?;
    let train = system.store().training_pairs();
    let detections = system.detect_new(&arriving)?;
    let records: Vec<Record> = detections
        .iter()
        .map(|d| (d.pair.lo, d.pair.hi, d.score.to_bits(), d.is_duplicate))
        .collect();
    if algorithm2 {
        let twin = FastKnn::fit(&handle, &train, dcfg.knn)?;
        let paper = algorithm2_records(&system, &twin, &historical, &arriving)?;
        assert!(paper == records, "Algorithm 2 and detect_new disagree");
    }
    Ok(ChaosRun {
        digest: stable_hash(&records),
        report: handle.job_report(),
    })
}

fn chaos_config(fault: FaultConfig) -> ClusterConfig {
    let mut config = ClusterConfig::local(4);
    config.fault = fault;
    config
}

#[test]
fn fault_free_run_matches_the_pinned_digest_and_reports_no_recovery() {
    let run = run_pipeline(ClusterConfig::local(4)).expect("fault-free run");
    assert_eq!(run.digest, BASELINE_DIGEST, "fault-free output drifted");
    assert!(
        !run.report.recovery.any(),
        "fault-free run logged recovery work: {:?}",
        run.report.recovery
    );
}

#[test]
fn executor_kills_between_stages_leave_detections_bit_identical() {
    let baseline = run_pipeline(ClusterConfig::local(4)).expect("baseline run");
    let total = baseline.report.virtual_us;
    // Kill three of the four executors at the quarter points of the
    // fault-free timeline; each restarts with a fresh incarnation, loses
    // its cached blocks and its shuffle map outputs.
    let fault = FaultConfig::disabled()
        .kill_at_time(1, total / 4)
        .kill_at_time(2, total / 2)
        .kill_at_time(3, 3 * total / 4);
    let chaos = run_pipeline(chaos_config(fault)).expect("chaos run");
    assert_eq!(chaos.digest, BASELINE_DIGEST, "kills changed the output");
    assert_eq!(chaos.report.recovery.executors_lost, 3);
    assert_eq!(chaos.report.recovery.executors_blacklisted, 0);
    assert!(
        chaos.report.virtual_us >= baseline.report.virtual_us,
        "recovery cannot make the job faster ({} < {})",
        chaos.report.virtual_us,
        baseline.report.virtual_us
    );
}

#[test]
fn mid_stage_kill_recovers_lost_work_without_output_drift() {
    // Kill executor 1 once the classify stage's first task has completed:
    // the task placed on it is in flight, its result goes stale, and the
    // task is rescheduled on a survivor.
    let fault = FaultConfig::disabled().kill_in_stage(1, CLASSIFY_STAGE, 1);
    let chaos = run_pipeline(chaos_config(fault)).expect("chaos run");
    assert_eq!(
        chaos.digest, BASELINE_DIGEST,
        "mid-stage kill changed output"
    );
    let rec = &chaos.report.recovery;
    assert_eq!(rec.executors_lost, 1);
    assert!(
        rec.tasks_lost + rec.recomputed_map_tasks >= 1,
        "the kill should have cost lost or recomputed work: {rec:?}"
    );
}

#[test]
fn a_kill_inside_the_distance_job_recovers_without_output_drift() {
    // The product's other task-running stage: executor 1 dies once the
    // pairwise-distance job's first task has completed, and the task in
    // flight on it is lost and rescheduled.
    let fault = FaultConfig::disabled().kill_in_stage(1, "pairwise-distances", 1);
    let chaos = run_pipeline(chaos_config(fault)).expect("chaos run");
    assert_eq!(
        chaos.digest, BASELINE_DIGEST,
        "a distance-job kill changed the output"
    );
    let rec = &chaos.report.recovery;
    assert!(rec.executors_lost >= 1, "the kill never fired: {rec:?}");
    assert!(rec.tasks_lost >= 1, "the kill cost no task: {rec:?}");
}

#[test]
fn random_task_faults_are_absorbed_without_output_drift() {
    for seed in [11, 22, 33] {
        let fault = FaultConfig::with_probability(0.05, seed);
        let chaos = run_pipeline(chaos_config(fault)).expect("faulty run");
        assert!(
            chaos.report.totals.tasks_failed > 0,
            "seed {seed} injected no faults"
        );
        assert_eq!(
            chaos.digest, BASELINE_DIGEST,
            "seed {seed}: retries changed the output"
        );
    }
}

#[test]
fn stealing_under_executor_kills_matches_the_pinned_digest() {
    // The steal schedule is replayed over per-morsel costs, which injected
    // kills perturb (lost attempts accumulate cost) — the output still may
    // not move, and the distance stage must really have been rebalanced.
    let config = chaos_config(FaultConfig::disabled().kill_in_stage(1, CLASSIFY_STAGE, 1));
    let chaos = run_pipeline(config).expect("chaos run");
    assert_eq!(
        chaos.digest, BASELINE_DIGEST,
        "stealing under kills changed the output"
    );
    assert_eq!(chaos.report.recovery.executors_lost, 1);
    assert!(
        chaos.report.recovery.tasks_lost >= 1,
        "the kill cost no task"
    );
    let scheduling = &chaos.report.sched;
    assert!(scheduling.steals > 0, "no morsel was ever stolen");
}

/// Executor memory small enough that Algorithm 2's shuffles overflow the
/// resident pool (a fifth of it) on every classification stage — the
/// out-of-core forcing knob. The product's classify stage shuffles nothing;
/// the spill-forced runs are [`run_both_routes`].
const SPILL_FORCING_MEMORY: usize = 64 << 10;

#[test]
fn spill_forced_run_matches_the_pinned_digest() {
    // Shrink executor memory until shuffle writes must overflow to disk;
    // the detections must not move by a bit, Algorithm 2's must equal them,
    // and the job report must show the disk tier actually absorbed traffic
    // both ways.
    let mut config = ClusterConfig::local(4);
    config.memory_per_executor = SPILL_FORCING_MEMORY;
    let run = run_both_routes(config).expect("spill-forced run");
    assert_eq!(run.digest, BASELINE_DIGEST, "spill changed the output");
    let spill = &run.report.spill;
    assert!(spill.bytes_spilled > 0, "cap never overflowed: {spill:?}");
    assert!(spill.bytes_read_back > 0, "spilled buckets never read back");
    assert!(spill.spill_files > 0);
    assert!(
        spill.peak_resident.iter().any(|&p| p > 0),
        "resident accounting never moved: {spill:?}"
    );
}

#[test]
fn spill_under_executor_kills_matches_the_pinned_digest() {
    // The disk tier is executor-local: a kill deletes the spill file and
    // orphans its slots, so fetches of spilled buckets surface FetchFailed
    // and lineage recomputes the lost map outputs. Output still must not
    // move, even with spill forced on every stage.
    let baseline = run_pipeline(ClusterConfig::local(4)).expect("baseline run");
    let total = baseline.report.virtual_us;
    let mut config = chaos_config(
        FaultConfig::disabled()
            .kill_at_time(1, total / 4)
            .kill_at_time(2, total / 2),
    );
    config.memory_per_executor = SPILL_FORCING_MEMORY;
    let chaos = run_both_routes(config).expect("spill + kills run");
    assert_eq!(
        chaos.digest, BASELINE_DIGEST,
        "kills with spill on changed the output"
    );
    assert_eq!(chaos.report.recovery.executors_lost, 2);
    assert!(chaos.report.spill.bytes_spilled > 0, "spill never engaged");
    assert!(chaos.report.spill.bytes_read_back > 0);
}

#[test]
fn spill_under_work_stealing_matches_the_pinned_digest() {
    // Morsel stealing changes which worker writes (and therefore spills)
    // each bucket; the spilled bytes' contents — and the detections — must
    // not depend on that placement, at any worker count.
    for executors in [2, 8] {
        let mut config = ClusterConfig::local(executors);
        config.memory_per_executor = SPILL_FORCING_MEMORY;
        let run = run_both_routes(config).expect("spill + steal run");
        assert_eq!(
            run.digest, BASELINE_DIGEST,
            "{executors} executors with spill on changed the output"
        );
        assert!(run.report.spill.bytes_spilled > 0);
        assert!(run.report.spill.bytes_read_back > 0);
    }
}

#[test]
fn killing_every_executor_fails_the_job_with_a_clean_error() {
    let mut config = ClusterConfig::local(2);
    config.fault = FaultConfig::disabled()
        .kill_at_time(0, 0)
        .kill_at_time(1, 0);
    config.fault.max_executor_failures = 1; // first kill blacklists
    match run_pipeline(config) {
        Err(SparkletError::NoHealthyExecutors { stage }) => {
            assert!(!stage.is_empty());
        }
        other => panic!(
            "expected NoHealthyExecutors, got {other:?}",
            other = other.map(|r| r.digest)
        ),
    }
}
