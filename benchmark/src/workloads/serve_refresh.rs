//! `serve-refresh` — writes beside reads on the serve layer.
//!
//! Rounds of { `detect_new` of a small batch of new reports (the write,
//! untimed), a timed `ServeService::refresh`, a burst of lookups paced at
//! the `serve-lookup` rate }. `refresh` deep-clones the interner, the
//! blocking index and the pair store and refits the model, so a change
//! that speeds lookups by making refresh dearer (or the reverse) moves
//! `throughput_per_s` one way and `op_p50_ms` the other.
//!
//! The round count is fixed by `--seconds` (two a second), not by how
//! fast rounds go: the database grows with every round, so a faster build
//! must not be handed more, dearer rounds.

use super::serve_bed::{self, Bed};
use super::serve_lookup::BASE_RPS;
use super::{empty_job_wall_us, lateness_facts, EngineMark};
use crate::common::{set_end_to_end, sub_seed, timed, Ctx, Report, Samples};
use crate::json::Json;
use crate::pacer::PacedRun;
use crate::stats;
use crate::trace::Trace;
use dedup::{ServeAnswer, ServeQuery, ServeRequest};
use fastknn::FastKnn;

/// Rounds one system serves before the untraced half replaces it with a
/// fresh one, for the reason `serve-lookup` paces in segments: a service
/// gets dearer with every batch it has served. The traced half keeps one
/// system throughout.
const ROUNDS_PER_BED: usize = 4;

fn rounds(ctx: &Ctx) -> usize {
    ((2.0 * ctx.seconds) as usize).max(ctx.scale.min_reps)
}

/// What was written must be visible to reads: a member of a duplicate pair
/// labelled at bootstrap, asked about under its own id, is known; and the
/// database grew by every write.
fn check_visible(report: &mut Report, ctx: &Ctx, bed: &mut Bed, writes: usize) {
    let known = bed
        .replay
        .labelled_pairs_within(bed.base.len() as u64)
        .first()
        .and_then(|p| bed.base.iter().find(|r| r.id == p.lo))
        .cloned();
    if let Some(report_in_db) = known {
        let probe = ServeRequest {
            arrival_us: 0,
            query: ServeQuery::Duplicate {
                report: report_in_db,
            },
        };
        let out = bed.svc.run_open_loop(std::slice::from_ref(&probe));
        let memberships =
            report
                .attempt("known-member lookup", out)
                .and_then(|s| match s.answers.first() {
                    Some(ServeAnswer::Duplicate {
                        known_memberships, ..
                    }) => Some(*known_memberships),
                    _ => None,
                });
        report.check(memberships.is_some_and(|m| m >= 1), || {
            format!("a labelled duplicate member is not known to the service: {memberships:?}")
        });
    }
    let grown = bed.sys.report_count() == bed.base.len() + writes * ctx.scale.refresh_batch;
    report.check(grown, || {
        format!(
            "{} reports in the database after {writes} writes of {}",
            bed.sys.report_count(),
            ctx.scale.refresh_batch
        )
    });
}

pub fn run(ctx: &Ctx, traced: bool) -> Report {
    let mut report = Report::new(traced);
    let rounds = rounds(ctx);
    let per_round = ctx.scale.refresh_lookups;
    let per_bed = if traced { rounds } else { ROUNDS_PER_BED };
    let mut trace = Trace::default();

    let (mut setup_s, mut refresh_ms, mut latency_ms, mut published_per_s) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut runs: Vec<PacedRun> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut last: Option<(Bed, EngineMark)> = None;
    let mut host = report.host_now();
    for (index, first_round) in (0..rounds).step_by(per_bed).enumerate() {
        // Systems 0 and 1 share a corpus and must answer alike.
        let corpus_seed = sub_seed(ctx.seed, index.saturating_sub(1) as u64);
        drop(last.take());
        let (built, s) = timed(|| serve_bed::build(&mut report, ctx, corpus_seed, per_bed));
        let Some(mut bed) = built else {
            return report;
        };
        let served = per_bed.min(rounds - first_round);
        let (requests, due) = serve_bed::requests(&bed, corpus_seed, served * per_round, BASE_RPS);
        let first_quarter = (bed.base.len() / ctx.scale.refresh_batch) as u64;
        let mark = EngineMark::of(bed.sys.cluster());
        let next = report.host_now();
        setup_s.time(s, (host + next) / 2.0);

        let mut answers: Vec<ServeAnswer> = Vec::new();
        for round in 0..served {
            let batch = bed.replay.quarter_reports(first_quarter + round as u64);
            let written = bed.sys.detect_new(&batch);
            report.attempt("detect_new (write)", written);
            let host_before = report.host_now();

            let (refreshed, s) = timed(|| bed.svc.refresh(&bed.sys));
            report.attempt("refresh", refreshed);
            if traced {
                // What `refresh` spends on its model refit, timed on the
                // same store from outside: the rest is cloning and
                // recounting.
                let train = trace.span("store.training_pairs", || bed.sys.store().training_pairs());
                let fitted = trace.span("fastknn.fit", || {
                    FastKnn::fit(bed.sys.cluster(), &train, bed.sys.config().knn)
                });
                report.attempt("fit", fitted.map(|_| ()));
            }

            // This round's lookups, due from now on at the paced rate.
            let slice = round * per_round..(round + 1) * per_round;
            let offset = due[slice.start];
            let round_due: Vec<u64> = due[slice.clone()].iter().map(|d| d - offset).collect();
            let (run, got) =
                serve_bed::pace(&mut report, &mut bed.svc, &requests[slice], &round_due);
            serve_bed::count_late(&mut report, &run);
            host = report.host_now();
            let around = (host_before + host) / 2.0;
            refresh_ms.time(s * 1e3, around);
            // Reports made visible to readers per second of refresh.
            published_per_s.rate(ctx.scale.refresh_batch as f64 / s, around);
            for l in &run.latency_us {
                latency_ms.time(l / 1e3, around);
            }
            answers.extend(got.answers);
            runs.push(run);
        }
        check_visible(&mut report, ctx, &mut bed, served);
        digests.push(dedup::answers_digest(&answers));
        last = Some((bed, mark));
    }
    report.check(digests.len() < 2 || digests[0] == digests[1], || {
        "two systems over one corpus answered differently".into()
    });
    let Some((bed, mark)) = last else {
        return report;
    };

    report.sample("refresh_ms", &refresh_ms.normalised);
    report.digest_fact("answers_digest", digests[0]);
    report.fact("rounds", Json::Num(rounds as f64));
    let (late_p50, late_max) = lateness_facts(&mut report, &runs.iter().collect::<Vec<_>>());
    if !traced {
        set_end_to_end(&mut report, &setup_s, &published_per_s, &latency_ms);
        report.alias(
            "refresh_p50_ms",
            "ms",
            stats::median(&refresh_ms.normalised),
        );
        report.alias_of("lookup_p50_ms", "ms", "op_p50_ms");
        report.alias_of("lookup_p90_ms", "ms", "op_tail_ms");
        return report;
    }

    mark.fill(bed.sys.cluster(), &mut report.metrics);
    let launch = empty_job_wall_us(&mut report, bed.sys.cluster());
    let batches: u64 = runs.iter().map(|r| r.batches).sum();
    let memo = bed.svc.memo();
    let m = &mut report.metrics;
    m.set("serve.attach_wall_ms", bed.attach_s * 1e3);
    m.set("serve.refresh_wall_ms", stats::median(&refresh_ms.wall));
    m.set(
        "fastknn.fit_wall_ms",
        trace.total_ms("fastknn.fit") / rounds as f64,
    );
    m.set(
        "store.training_pairs_wall_ms",
        trace.total_ms("store.training_pairs") / rounds as f64,
    );
    m.set("store.duplicates", bed.sys.store().duplicate_count() as f64);
    m.set(
        "store.non_duplicates",
        bed.sys.store().non_duplicate_count() as f64,
    );
    m.set("serve.batches", batches as f64);
    m.set(
        "serve.mean_batch",
        latency_ms.wall.len() as f64 / batches.max(1) as f64,
    );
    m.set(
        "serve.max_backlog",
        runs.iter().map(|r| r.max_backlog).max().unwrap_or(0) as f64,
    );
    m.set(
        "serve.memo_hit_share",
        memo.hits() as f64 / memo.lookups().max(1) as f64,
    );
    m.set("serve.lookup_p90_ms", stats::tail(&latency_ms.wall).0);
    m.set("serve.p99_ms", stats::percentile(&latency_ms.wall, 0.99));
    m.set("sparklet.empty_job_wall_us", launch);
    m.set("bench.lateness_p50_us", late_p50);
    m.set("bench.lateness_max_us", late_max);
    m.set("bench.tail_percentile", stats::tail(&latency_ms.wall).1);
    report.trace = Some(trace);
    report
}
