//! `cold-load` — `DedupSystem::bootstrap` of a large labelled corpus into
//! an empty system.
//!
//! The mirror image of `bulk-detect`: `textprep` (tokenize → stop-word →
//! Porter → intern) is nearly all of it, `blocking` insert a few percent,
//! `fastknn` does nothing. A tokenizer gain shows here; a kernel gain must
//! not.

use super::{empty_job_wall_us, EngineMark};
use crate::common::{dedup_config, set_end_to_end, sub_seed, timed, Ctx, Report, Samples};
use crate::decomposed::Decomposed;
use crate::json::Json;
use crate::trace::Trace;
use adr_model::{AdrReport, PairId};
use adr_synth::{StreamingCorpus, SynthConfig};
use dedup::{DedupConfig, DedupSystem, PairStore};
use sparklet::stable_hash;

const MAX_REPS: usize = 24;

/// Bootstrap samples the crate's default 2,000 negatives here: the
/// workload is about loading reports, not labelling pairs.
fn config() -> DedupConfig {
    dedup_config(DedupConfig::default().bootstrap_negatives)
}

fn generate(ctx: &Ctx, corpus_seed: u64) -> (Vec<AdrReport>, Vec<PairId>) {
    let n = ctx.scale.cold_reports;
    let corpus = StreamingCorpus::new(SynthConfig::small(n, n / 20, corpus_seed));
    (
        corpus.reports(0..n as u64).collect(),
        corpus.duplicate_pairs().collect(),
    )
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
    let (mut setup_s, mut op_ms, mut reports_per_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut store_digests = Vec::new();
    let mut measured = 0.0;
    let mut rep = 0usize;
    while rep < MAX_REPS && (rep < ctx.scale.min_reps || measured < ctx.seconds) {
        // Repetitions 0 and 1 load the same corpus and must build the
        // same store; later ones each load their own.
        let corpus = rep.saturating_sub(1) as u64;
        let host_before = report.host_now();
        let ((reports, pairs), prep_s) = timed(|| generate(ctx, sub_seed(ctx.seed, corpus)));
        let cluster = ctx.cluster();
        let host_between = report.host_now();
        let ((sys, result), s) = timed(|| {
            let mut sys = DedupSystem::new(cluster, config());
            let result = sys.bootstrap(&reports, &pairs);
            (sys, result)
        });
        let host_after = report.host_now();
        report.attempt("bootstrap", result);
        report.check(sys.report_count() == reports.len(), || {
            format!(
                "repetition {rep}: {} of {} reports loaded",
                sys.report_count(),
                reports.len()
            )
        });
        report.check(sys.store().duplicate_count() == pairs.len(), || {
            format!(
                "repetition {rep}: {} of {} labelled duplicates stored",
                sys.store().duplicate_count(),
                pairs.len()
            )
        });
        store_digests.push(stable_hash(&sys.store().snapshot()));
        let host = (host_between + host_after) / 2.0;
        setup_s.time(prep_s, (host_before + host_between) / 2.0);
        op_ms.time(s * 1e3, host);
        reports_per_s.rate(reports.len() as f64 / s, host);
        measured += s;
        rep += 1;
    }
    report.check(store_digests[0] == store_digests[1], || {
        "bootstrap is not repeatable: two loads of one corpus built different stores".into()
    });

    report.digest_fact("store_digest", store_digests[0]);
    report.fact("repetitions", Json::Num(rep as f64));
    set_end_to_end(&mut report, &setup_s, &reports_per_s, &op_ms);
    report.alias_of("load_reports_per_s", "1/s", "throughput_per_s");
    report
}

fn run_traced(ctx: &Ctx) -> Report {
    let mut report = Report::new(true);
    let (reports, pairs) = generate(ctx, sub_seed(ctx.seed, 0));

    let mut real = DedupSystem::new(ctx.cluster(), config());
    let (result, real_s) = timed(|| real.bootstrap(&reports, &pairs));
    report.attempt("bootstrap", result);

    // The same load, layer by layer: text processing, blocking insert,
    // then distances and storage for the labelled pairs.
    let cfg = config();
    let mut trace = Trace::default();
    let outer = trace.enter("system.bootstrap");
    let mut rebuilt = Decomposed::seeded(
        ctx.cluster(),
        cfg,
        &reports,
        PairStore::new(cfg.max_negative_store, cfg.seed),
        &mut trace,
    );
    let mark = EngineMark::of(&rebuilt.cluster);
    let labelled = rebuilt.label_pairs(&pairs, cfg.bootstrap_negatives, ctx.seed, &mut trace);
    trace.exit(outer);
    report.attempt("decomposed bootstrap", labelled);
    mark.fill(&rebuilt.cluster, &mut report.metrics);

    report.check(rebuilt.report_count() == real.report_count(), || {
        "the decomposed load ingested a different number of reports".into()
    });
    let sizes = |s: &PairStore| (s.duplicate_count(), s.non_duplicate_count());
    report.check(sizes(&rebuilt.store) == sizes(real.store()), || {
        format!(
            "the decomposed load stored {:?} labelled pairs, bootstrap {:?}",
            sizes(&rebuilt.store),
            sizes(real.store())
        )
    });

    rebuilt.fill_layer_metrics(&trace, &mut report.metrics);
    let snapshot = rebuilt.snapshot_round_trip(&mut trace);
    let bytes = report.attempt("store snapshot round trip", snapshot);
    let traced_ms = trace.total_ms("system.bootstrap");
    let m = &mut report.metrics;
    m.set("store.snapshot_wall_ms", trace.total_ms("store.snapshot"));
    m.set("store.restore_wall_ms", trace.total_ms("store.restore"));
    m.set("store.snapshot_bytes", bytes.unwrap_or(0) as f64);
    // `system.detect_wall_ms` stays 0: nothing is detected here. The
    // orchestration share of a load is the bootstrap span's self time.
    m.set("system.self_wall_ms", trace.self_ms("system.bootstrap"));
    m.set(
        "system.trace_overhead_share",
        (traced_ms / 1e3 - real_s) / real_s,
    );
    let launch = empty_job_wall_us(&mut report, &rebuilt.cluster);
    report.metrics.set("sparklet.empty_job_wall_us", launch);

    report.sample("bootstrap_untraced_ms", &[real_s * 1e3]);
    report.sample("bootstrap_traced_ms", &[traced_ms]);
    report.trace = Some(trace);
    report
}
