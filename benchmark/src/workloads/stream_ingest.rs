//! `stream-ingest` — `IngestService` committing small micro-batches with a
//! durable checkpoint after each, then a crash-recovery `open`.
//!
//! The layers of `bulk-detect` used differently: batches are tiny, so the
//! per-job `sparklet` launch cost, the per-batch `FastKnn::fit`, the
//! `PairStore` feedback writes and the fsync'd checkpoint dominate instead
//! of the kernels; the store is written and snapshotted beside being read,
//! and commit cost grows with the database.
//!
//! One *round* is a fresh service on an empty directory: bootstrap the
//! labelled prefix (set-up), then a fixed number of timed commits, then
//! drop the service and time a recovery `open`. Rounds repeat until
//! `--seconds` of commits are measured, so every round does identical work
//! however fast the code is. Rounds 0 and 1 share a corpus and must end on
//! the same cumulative digest.

use super::{empty_job_wall_us, EngineMark};
use crate::common::{dedup_config, set_end_to_end, sub_seed, timed, Ctx, Report, Samples};
use crate::decomposed::Decomposed;
use crate::json::Json;
use crate::stats;
use crate::trace::Trace;
use adr_model::{AdrReport, PairId};
use adr_synth::{QuarterlyReplay, StreamingCorpus, SynthConfig};
use dedup::{DedupConfig, DedupSystem, IngestConfig, IngestService};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

const MAX_ROUNDS: usize = 8;

fn config(ctx: &Ctx) -> DedupConfig {
    dedup_config(ctx.scale.bulk_negatives)
}

fn replay(ctx: &Ctx, corpus_seed: u64) -> QuarterlyReplay {
    let n = ctx.scale.ingest_reports;
    QuarterlyReplay::new(
        StreamingCorpus::new(SynthConfig::small(n, n / 20, corpus_seed)),
        ctx.scale.ingest_quarter,
    )
}

fn ingest_config(ctx: &Ctx, dir: &Path) -> IngestConfig {
    let mut cfg = IngestConfig::new(dir);
    cfg.bootstrap_quarters = ctx.scale.ingest_bootstrap_quarters;
    cfg
}

/// What one round measured.
struct Round {
    /// Wall seconds of open + bootstrap, and the host factor around them.
    setup_s: f64,
    setup_host: f64,
    commit_ms: Samples,
    reports: u64,
    /// Wall seconds of the recovery `open`, and the host factor around it.
    recover_s: f64,
    recover_host: f64,
    digest: u64,
    /// From the running service's own job report, before it is dropped.
    checkpoint_bytes: u64,
    retries: u64,
    /// The service as recovered, for the traced half to inspect.
    recovered: Option<IngestService>,
}

fn fresh_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    let dir = ctx.work_dir.join(format!("ingest-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_round(report: &mut Report, ctx: &Ctx, rp: &QuarterlyReplay, dir: &Path) -> Round {
    let s = &ctx.scale;
    let first = s.ingest_bootstrap_quarters;
    let mut round = Round {
        setup_s: 0.0,
        setup_host: 1.0,
        commit_ms: Samples::default(),
        reports: 0,
        recover_s: 0.0,
        recover_host: 1.0,
        digest: 0,
        checkpoint_bytes: 0,
        retries: 0,
        recovered: None,
    };
    let host_before = report.host_now();
    let (opened, setup_s) = timed(|| {
        let mut svc = IngestService::open(ctx.cluster(), config(ctx), ingest_config(ctx, dir), rp)?;
        svc.run(rp, first)?;
        Ok::<_, dedup::IngestError>(svc)
    });
    let mut host = report.host_now();
    round.setup_s = setup_s;
    round.setup_host = (host_before + host) / 2.0;
    let Some(mut svc) = report.attempt("ingest open + bootstrap", opened) else {
        return round;
    };
    // The host factor is taken every other commit; the commits in between
    // are normalised by the mean of the factors on either side.
    let mut since_factor: Vec<f64> = Vec::new();
    for q in first..first + s.ingest_commits {
        let (committed, commit_s) = timed(|| svc.run(rp, q + 1));
        let committed = report.attempt("ingest commit", committed);
        report.check(committed == Some(1), || {
            format!("quarter {q} committed {committed:?} batches, expected 1")
        });
        since_factor.push(commit_s * 1e3);
        round.reports += rp.quarter_range(q).count() as u64;
        if since_factor.len() == 2 || q + 1 == first + s.ingest_commits {
            let next = report.host_now();
            for ms in since_factor.drain(..) {
                round.commit_ms.time(ms, (host + next) / 2.0);
            }
            host = next;
        }
    }
    round.digest = svc.cumulative_digest();
    let high_water = svc.batch_high_water();
    let journal = svc.job_report().ingest;
    round.checkpoint_bytes = journal.checkpoint_bytes;
    round.retries = journal.batch_retries;
    drop(svc);

    let (reopened, recover_s) =
        timed(|| IngestService::open(ctx.cluster(), config(ctx), ingest_config(ctx, dir), rp));
    round.recover_s = recover_s;
    round.recover_host = (host + report.host_now()) / 2.0;
    if let Some(svc) = report.attempt("ingest recovery open", reopened) {
        report.check(svc.cumulative_digest() == round.digest, || {
            format!(
                "recovery changed the cumulative digest: {:#018x} → {:#018x}",
                round.digest,
                svc.cumulative_digest()
            )
        });
        report.check(svc.batch_high_water() == high_water, || {
            format!(
                "recovery resumed at batch {}, the run ended at {high_water}",
                svc.batch_high_water()
            )
        });
        round.recovered = Some(svc);
    }
    round
}

pub fn run(ctx: &Ctx, traced: bool) -> Report {
    if traced {
        run_traced(ctx)
    } else {
        run_untraced(ctx)
    }
}

fn run_untraced(ctx: &Ctx) -> Report {
    let mut report = Report::new(false);
    let dir = fresh_dir(ctx, "rounds");
    let (mut setup_s, mut commit_ms, mut reports_per_s, mut recover_s) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut digests = Vec::new();
    let mut measured = 0.0;
    let mut rounds = 0usize;
    // Two rounds at least: the second repeats the first's corpus.
    while rounds < MAX_ROUNDS && (rounds < 2 || measured < ctx.seconds) {
        let corpus = rounds.saturating_sub(1) as u64;
        let (rp, generate_s) = timed(|| replay(ctx, sub_seed(ctx.seed, corpus)));
        let round = run_round(&mut report, ctx, &rp, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let seconds = |ms: &[f64]| (ms.iter().sum::<f64>() / 1e3).max(f64::MIN_POSITIVE);
        let reports = round.reports as f64;
        setup_s.time(generate_s + round.setup_s, round.setup_host);
        reports_per_s
            .wall
            .push(reports / seconds(&round.commit_ms.wall));
        reports_per_s
            .normalised
            .push(reports / seconds(&round.commit_ms.normalised));
        recover_s.time(round.recover_s, round.recover_host);
        measured += seconds(&round.commit_ms.wall);
        commit_ms.wall.extend(round.commit_ms.wall);
        commit_ms.normalised.extend(round.commit_ms.normalised);
        digests.push(round.digest);
        rounds += 1;
    }
    report.check(digests[0] == digests[1], || {
        format!(
            "two runs over one corpus ended on different digests: {:#018x}, {:#018x}",
            digests[0], digests[1]
        )
    });

    report.sample("recover_s", &recover_s.normalised);
    report.digest_fact("cumulative_digest", digests[0]);
    report.fact("rounds", Json::Num(rounds as f64));
    set_end_to_end(&mut report, &setup_s, &reports_per_s, &commit_ms);
    report.alias_of("ingest_reports_per_s", "1/s", "throughput_per_s");
    report.alias_of("commit_p50_ms", "ms", "op_p50_ms");
    report.alias_of("commit_p90_ms", "ms", "op_tail_ms");
    report.alias("recover_s", "s", stats::median(&recover_s.normalised));
    report
}

fn run_traced(ctx: &Ctx) -> Report {
    let mut report = Report::new(true);
    let s = ctx.scale;
    let rp = replay(ctx, sub_seed(ctx.seed, 0));
    let dir = fresh_dir(ctx, "traced");
    let round = run_round(&mut report, ctx, &rp, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    // The service's own view: commit cost early and late in the round,
    // checkpoint volume, retries, and how good the feedback loop's
    // duplicate store is against the planted pairs that have arrived.
    let edge = (round.commit_ms.wall.len() / 4).clamp(1, 10);
    let first = stats::mean(&round.commit_ms.wall[..edge.min(round.commit_ms.wall.len())]);
    let last =
        stats::mean(&round.commit_ms.wall[round.commit_ms.wall.len().saturating_sub(edge)..]);
    let m = &mut report.metrics;
    m.set("ingest.first10_commit_ms", first);
    m.set("ingest.last10_commit_ms", last);
    m.set("ingest.commit_p90_ms", stats::tail(&round.commit_ms.wall).0);
    m.set(
        "ingest.growth_ratio",
        if first > 0.0 { last / first } else { 0.0 },
    );
    m.set("ingest.recover_wall_ms", round.recover_s * 1e3);
    m.set("ingest.checkpoint_bytes", round.checkpoint_bytes as f64);
    m.set("ingest.retries", round.retries as f64);
    let arrived_slots = rp
        .quarter_range(s.ingest_bootstrap_quarters + s.ingest_commits - 1)
        .end;
    let planted: HashSet<PairId> = rp
        .labelled_pairs_within(arrived_slots)
        .into_iter()
        .collect();
    let mut real_sizes = (0, 0);
    if let Some(svc) = &round.recovered {
        let stored: HashSet<PairId> = svc.system().store().duplicate_pairs().collect();
        let hits = stored.intersection(&planted).count() as f64;
        let (precision, recall) = (
            hits / stored.len().max(1) as f64,
            hits / planted.len().max(1) as f64,
        );
        m.set(
            "ingest.f1",
            if hits > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                0.0
            },
        );
        real_sizes = (
            svc.system().store().duplicate_count(),
            svc.system().store().non_duplicate_count(),
        );
    }

    // The same quarters through the rebuilt pipeline, one traced batch
    // each, with the store snapshotted after every batch as a commit does.
    let first_q = s.ingest_bootstrap_quarters;
    let base: Vec<AdrReport> = (0..first_q).flat_map(|q| rp.quarter_reports(q)).collect();
    let labelled = rp.labelled_pairs_within(rp.quarter_range(first_q - 1).end);
    let mut seed_sys = DedupSystem::new(ctx.cluster(), config(ctx));
    report.attempt("bootstrap", seed_sys.bootstrap(&base, &labelled));
    let mut rebuilt = Decomposed::seeded(
        ctx.cluster(),
        config(ctx),
        &base,
        seed_sys.store().clone(),
        &mut Trace::default(),
    );
    rebuilt.counts = Default::default();
    let mark = EngineMark::of(&rebuilt.cluster);
    let mut trace = Trace::default();
    let mut snapshot_bytes = 0usize;
    for q in first_q..first_q + s.ingest_commits {
        let detected = rebuilt.detect_new(&rp.quarter_reports(q), &mut trace);
        if report.attempt("decomposed detect", detected).is_none() {
            break;
        }
        let snapshot = trace.span("store.snapshot", || rebuilt.store.snapshot());
        snapshot_bytes = snapshot.len();
    }
    mark.fill(&rebuilt.cluster, &mut report.metrics);
    let rebuilt_sizes = (
        rebuilt.store.duplicate_count(),
        rebuilt.store.non_duplicate_count(),
    );
    report.check(
        round.recovered.is_none() || rebuilt_sizes == real_sizes,
        || {
            format!(
                "the decomposed pipeline's store holds {rebuilt_sizes:?} pairs, the service's \
             {real_sizes:?}"
            )
        },
    );

    rebuilt.fill_layer_metrics(&trace, &mut report.metrics);
    let snapshots = trace.count("store.snapshot").max(1) as f64;
    let restored = trace.span("store.restore", || {
        dedup::PairStore::restore(&rebuilt.store.snapshot())
    });
    report.attempt("store restore", restored);
    let detect_ms = trace.total_ms("system.detect");
    let m = &mut report.metrics;
    // Per commit, like the service pays them.
    m.set(
        "store.snapshot_wall_ms",
        trace.total_ms("store.snapshot") / snapshots,
    );
    m.set("store.snapshot_bytes", snapshot_bytes as f64);
    m.set("store.restore_wall_ms", trace.total_ms("store.restore"));
    m.set("system.detect_wall_ms", detect_ms);
    m.set("system.self_wall_ms", trace.self_ms("system.detect"));
    let commit_total_ms: f64 = round.commit_ms.wall.iter().sum();
    // Negative here: the service also snapshots, CRCs, fsyncs and renames
    // a checkpoint per commit, which the rebuilt detect sequence does not.
    m.set(
        "system.trace_overhead_share",
        (detect_ms - commit_total_ms) / commit_total_ms.max(f64::MIN_POSITIVE),
    );
    let launch = empty_job_wall_us(&mut report, &rebuilt.cluster);
    report.metrics.set("sparklet.empty_job_wall_us", launch);

    report.sample("commit_ms", &round.commit_ms.wall);
    report.trace = Some(trace);
    report
}
