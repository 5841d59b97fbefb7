//! `bulk-detect` — the paper's bulk job: one `DedupSystem::detect_new` of
//! a whole quarter against a bootstrapped database of the Table 3 size.
//!
//! `fastknn` classify does most of the work, `system` orchestration and
//! `pairing` follow, `textprep` is 1–2 %: a kernel, pruning or partitioning
//! gain shows here and a tokenizer gain must not.
//!
//! Every repetition is a fresh system. How fast a corpus classifies depends
//! on the k-means cells its training pairs happen to form (113k–154k
//! pairs/s across six seeds in the sizing probe), so one run spreads its
//! repetitions over several corpora derived from `--seed` and reports
//! medians over them; repetitions 0 and 1 share a corpus and must agree
//! bit for bit.

use super::{empty_job_wall_us, EngineMark, EnginePhase};
use crate::common::{
    dedup_config, detections_digest, set_end_to_end, sub_seed, timed, Ctx, Report, Samples,
};
use crate::decomposed::Decomposed;
use crate::json::Json;
use crate::trace::Trace;
use adr_model::{AdrReport, PairId};
use adr_synth::{QuarterlyReplay, StreamingCorpus};
use dedup::{DedupSystem, Detection};
use sparklet::Cluster;
use std::collections::HashSet;

/// Most repetitions one run makes, however short each is.
const MAX_REPS: usize = 12;

/// One generated input: the labelled prefix, the batch to detect, and the
/// planted truth to score detections against.
struct Input {
    base: Vec<AdrReport>,
    labelled: Vec<PairId>,
    batch: Vec<AdrReport>,
    truth: HashSet<PairId>,
}

fn generate(ctx: &Ctx, corpus_seed: u64) -> Input {
    let s = &ctx.scale;
    let replay = QuarterlyReplay::new(
        StreamingCorpus::new(s.bulk_corpus(corpus_seed)),
        s.bulk_quarter,
    );
    // The last *full* quarter is the batch; everything before it is the
    // labelled database (quarters 0–8 and quarter 9 at full scale).
    let batch_quarter = s.bulk_reports as u64 / s.bulk_quarter - 1;
    let prefix = replay.quarter_range(batch_quarter).start;
    Input {
        base: (0..batch_quarter)
            .flat_map(|q| replay.quarter_reports(q))
            .collect(),
        labelled: replay.labelled_pairs_within(prefix),
        batch: replay.quarter_reports(batch_quarter),
        truth: replay.corpus().duplicate_pairs().collect(),
    }
}

fn bootstrapped(report: &mut Report, cluster: Cluster, ctx: &Ctx, input: &Input) -> DedupSystem {
    let mut sys = DedupSystem::new(cluster, dedup_config(ctx.scale.bulk_negatives));
    report.attempt("bootstrap", sys.bootstrap(&input.base, &input.labelled));
    sys
}

/// Average precision of the detection scores against the planted pairs:
/// threshold-free, and exact for a given corpus.
fn aupr(detections: &[Detection], truth: &HashSet<PairId>) -> f64 {
    let scored: Vec<(f64, bool)> = detections
        .iter()
        .map(|d| (d.score, truth.contains(&d.pair)))
        .collect();
    mlcore::eval::average_precision(&scored)
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
    let (mut setup_s, mut op_ms, mut pairs_per_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut digests, mut auprs) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut rep = 0usize;
    while rep < MAX_REPS && (rep < ctx.scale.min_reps || measured < ctx.seconds) {
        // Repetitions 0 and 1 share corpus 0 (the determinism check);
        // every later one gets a corpus of its own.
        let corpus = rep.saturating_sub(1) as u64;
        let host_before = report.host_now();
        let ((input, mut sys), prep_s) = timed(|| {
            let input = generate(ctx, sub_seed(ctx.seed, corpus));
            let sys = bootstrapped(&mut report, ctx.cluster(), ctx, &input);
            (input, sys)
        });
        let host_between = report.host_now();
        let (result, s) = timed(|| sys.detect_new(&input.batch));
        let host_after = report.host_now();
        let detections = report.attempt("detect_new", result).unwrap_or_default();
        report.check(!detections.is_empty(), || {
            format!("repetition {rep}: no candidate pair was classified")
        });
        let host = (host_between + host_after) / 2.0;
        setup_s.time(prep_s, (host_before + host_between) / 2.0);
        op_ms.time(s * 1e3, host);
        pairs_per_s.rate(detections.len() as f64 / s, host);
        digests.push(detections_digest(&detections));
        auprs.push(aupr(&detections, &input.truth));
        measured += s;
        rep += 1;
    }
    report.check(digests[0] == digests[1], || {
        format!(
            "detect_new is not repeatable: {:#018x} then {:#018x} on the same corpus",
            digests[0], digests[1]
        )
    });
    report.check(auprs.iter().all(|a| a.is_finite() && *a > 0.0), || {
        format!("a corpus scored no planted pair: AUPR {auprs:?}")
    });

    report.digest_fact("detect_digest", digests[0]);
    report.fact("repetitions", Json::Num(rep as f64));
    report.fact(
        "detect_aupr_by_corpus",
        Json::Arr(auprs[1..].iter().map(|a| Json::Num(*a)).collect()),
    );
    set_end_to_end(&mut report, &setup_s, &pairs_per_s, &op_ms);
    report.alias_of("detect_pairs_per_s", "1/s", "throughput_per_s");
    report.alias("detect_aupr", "share", auprs[0]);
    report
}

/// One untraced `detect_new` of the batch on a fresh system.
fn real_once(report: &mut Report, ctx: &Ctx, input: &Input) -> (Vec<Detection>, f64) {
    let mut sys = bootstrapped(report, ctx.cluster(), ctx, input);
    let (result, s) = timed(|| sys.detect_new(&input.batch));
    (report.attempt("detect_new", result).unwrap_or_default(), s)
}

/// The same batch through the rebuilt pipeline, seeded from an identically
/// bootstrapped system's store.
struct Rebuilt {
    pipeline: Decomposed,
    trace: Trace,
    engine: EnginePhase,
    detections: Vec<Detection>,
}

fn rebuilt_once(report: &mut Report, ctx: &Ctx, input: &Input) -> Rebuilt {
    let seed_store = bootstrapped(report, ctx.cluster(), ctx, input)
        .store()
        .clone();
    let mut pipeline = Decomposed::seeded(
        ctx.cluster(),
        dedup_config(ctx.scale.bulk_negatives),
        &input.base,
        seed_store,
        // Seeding the database is set-up, not part of the traced batch.
        &mut Trace::default(),
    );
    pipeline.counts = Default::default();
    let mark = EngineMark::of(&pipeline.cluster);
    let mut trace = Trace::default();
    let result = pipeline.detect_new(&input.batch, &mut trace);
    let engine = mark.until_now(&pipeline.cluster);
    let detections = report
        .attempt("decomposed detect", result)
        .unwrap_or_default();
    Rebuilt {
        pipeline,
        trace,
        engine,
        detections,
    }
}

fn run_traced(ctx: &Ctx) -> Report {
    let mut report = Report::new(true);
    let input = generate(ctx, sub_seed(ctx.seed, 0));

    // Two samples a side in mirrored order, and the faster of each: one
    // `detect_new` varies by ±15 % between identical calls on a shared
    // host, far more than a dozen `Instant::now` calls cost, so a single
    // pair would report noise as tracing overhead.
    let (real_detections, real_a) = real_once(&mut report, ctx, &input);
    let first = rebuilt_once(&mut report, ctx, &input);
    let second = rebuilt_once(&mut report, ctx, &input);
    let (again, real_b) = real_once(&mut report, ctx, &input);
    let real_s = real_a.min(real_b);
    let digest = detections_digest(&real_detections);
    report.check(detections_digest(&again) == digest, || {
        "detect_new is not repeatable".into()
    });
    for sample in [&first, &second] {
        report.check(detections_digest(&sample.detections) == digest, || {
            "the decomposed pipeline's detections differ from detect_new's".into()
        });
    }
    report.digest_fact("detect_digest", digest);
    let total = |r: &Rebuilt| r.trace.total_ms("system.detect");
    let Rebuilt {
        pipeline: rebuilt,
        mut trace,
        engine,
        detections,
    } = if total(&first) <= total(&second) {
        first
    } else {
        second
    };
    engine.fill(&mut report.metrics);

    rebuilt.fill_layer_metrics(&trace, &mut report.metrics);
    let snapshot = rebuilt.snapshot_round_trip(&mut trace);
    let bytes = report.attempt("store snapshot round trip", snapshot);
    let m = &mut report.metrics;
    m.set("store.snapshot_wall_ms", trace.total_ms("store.snapshot"));
    m.set("store.restore_wall_ms", trace.total_ms("store.restore"));
    m.set("store.snapshot_bytes", bytes.unwrap_or(0) as f64);

    // Blocking quality on this batch: planted pairs with a member in the
    // batch (and both members arrived) that the index surfaced; and the
    // share of the exhaustive new × database comparison it kept.
    let arrived: HashSet<u64> = input
        .base
        .iter()
        .chain(&input.batch)
        .map(|r| r.id)
        .collect();
    let new_ids: HashSet<u64> = input.batch.iter().map(|r| r.id).collect();
    let surfaced: HashSet<PairId> = detections.iter().map(|d| d.pair).collect();
    let planted: Vec<&PairId> = input
        .truth
        .iter()
        .filter(|p| arrived.contains(&p.lo) && arrived.contains(&p.hi))
        .filter(|p| new_ids.contains(&p.lo) || new_ids.contains(&p.hi))
        .collect();
    let found = planted.iter().filter(|p| surfaced.contains(p)).count();
    let (new, db) = (input.batch.len() as f64, input.base.len() as f64);
    m.set(
        "blocking.recall",
        found as f64 / planted.len().max(1) as f64,
    );
    m.set(
        "blocking.reduction",
        detections.len() as f64 / (new * db + new * (new - 1.0) / 2.0),
    );

    let traced_ms = trace.total_ms("system.detect");
    m.set("system.detect_wall_ms", traced_ms);
    m.set("system.self_wall_ms", trace.self_ms("system.detect"));
    m.set(
        "system.trace_overhead_share",
        (traced_ms / 1e3 - real_s) / real_s,
    );
    m.set("system.detect_aupr", aupr(&real_detections, &input.truth));

    // The same call on one engine thread: what the cluster's parallelism
    // buys in wall time on this host.
    let mut single = bootstrapped(&mut report, Cluster::local(1), ctx, &input);
    let (result, single_s) = timed(|| single.detect_new(&input.batch));
    let single_detections = report
        .attempt("detect_new on one thread", result)
        .unwrap_or_default();
    report.check(detections_digest(&single_detections) == digest, || {
        "detections depend on the engine's thread count".into()
    });
    report
        .metrics
        .set("sparklet.speedup_vs_1", single_s / real_s);
    let launch = empty_job_wall_us(&mut report, &rebuilt.cluster);
    report.metrics.set("sparklet.empty_job_wall_us", launch);

    report.sample("detect_untraced_ms", &[real_a * 1e3, real_b * 1e3]);
    report.trace = Some(trace);
    report
}
