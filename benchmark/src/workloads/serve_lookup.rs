//! `serve-lookup` — the online path: duplicate lookups and signal queries
//! against a read-only `ServeService`.
//!
//! An **open loop**, because the callers are independent users: requests
//! are due on a Poisson schedule whatever the service does, and latency is
//! measured from the due time. Work per call is ~10² pairs, so `sparklet`
//! job launch, `serve` bookkeeping and `blocking` probes dominate and the
//! classify kernels are negligible — a gain in the direction of ROADMAP
//! item 5 shows here and nowhere else.
//!
//! The untraced half runs in segments, each on a freshly built system and
//! cluster: (a) a few requests paced at [`BASE_RPS`]; (b) a few hundred all
//! due at once — the saturated rate. The traced half adds closed-loop
//! single calls by kind, the paced leg on one ageing service and a rate
//! ladder, all over one corpus and all checked against each other.

use super::serve_bed::{self, Bed};
use super::{empty_job_wall_us, lateness_facts, EngineMark};
use crate::common::{set_end_to_end, sub_seed, timed, Ctx, Report, Samples};
use crate::json::Json;
use crate::stats;
use dedup::{ServeQuery, ServeRequest};
use std::time::Duration;

/// Offered rate of the paced legs. A single lookup takes 2.5 ms on a fresh
/// service and 5–7 ms after six hundred batches (`serve.drift_ratio`), half
/// as much again when the host is in its slow state: at ISSUE 11's 200 rps
/// the one driver thread ends the leg over 90 % busy, and even at 100 rps a
/// slowed host pushes it to the knee, where latency measures queueing that
/// no two runs reproduce (two runs in twenty answered their p90 after 31
/// and 48 ms instead of 11). At 50 rps it measures service time plus
/// batching.
pub const BASE_RPS: f64 = 50.0;

/// Rates of the traced ladder.
const LADDER_RPS: [f64; 3] = [400.0, 800.0, 1_600.0];

/// A ladder rate is sustained if its tail stays under this and the
/// backlog drains within [`DRAIN_LIMIT`] of the last due time.
const SUSTAIN_TAIL_MS: f64 = 50.0;
const DRAIN_LIMIT: Duration = Duration::from_millis(100);

/// Requests paced on one service before it is replaced by a fresh one.
/// `run_open_loop` gets dearer with every batch a service has served (a
/// signal query goes from 0.1 ms to 5 ms over 1,200 calls,
/// `serve.drift_ratio`), and an aged call is mostly one large copy, which a
/// slowed host slows by 2× where it slows a young call by 1.2×: latency on
/// one long-lived service measured the host. The drift stays visible in the
/// traced half.
const SEGMENT_REQUESTS: usize = 30;

/// Requests of one saturated pass: five full batches.
const SATURATED_REQUESTS: usize = 320;

pub fn run(ctx: &Ctx, traced: bool) -> Report {
    if traced {
        run_traced(ctx)
    } else {
        run_untraced(ctx)
    }
}

/// Requests of the traced half's legs: `BASE_RPS` for half the measured
/// time, on one service, so that it ages.
fn request_count(ctx: &Ctx) -> usize {
    ((BASE_RPS * ctx.seconds / 2.0) as usize).max(40)
}

/// Segments of the untraced half: paced for four fifths of `--seconds`.
fn segment_count(ctx: &Ctx) -> usize {
    ((BASE_RPS * ctx.seconds * 0.8) as usize / SEGMENT_REQUESTS).max(ctx.scale.min_reps)
}

fn build(report: &mut Report, ctx: &Ctx, corpus_seed: u64) -> Option<(Bed, f64)> {
    let (bed, s) = timed(|| serve_bed::build(report, ctx, corpus_seed, 0));
    bed.map(|b| (b, s))
}

fn run_untraced(ctx: &Ctx) -> Report {
    let mut report = Report::new(false);
    let (mut setup_s, mut latency_ms, mut saturated_rps) =
        (Samples::default(), Samples::default(), Samples::default());

    // One segment: a fresh system and service (set-up); leg a, the first
    // requests paced at `BASE_RPS`; leg b, the whole list due at once — the
    // saturated rate. Leg b asks leg a's questions again and must give leg
    // a's answers: admission and batch size must not change results. What
    // a lookup costs depends on how many candidates the corpus's blocks
    // hold, so every segment serves a corpus of its own, except that
    // segments 0 and 1 share one and must agree.
    let all_due = vec![0u64; SATURATED_REQUESTS];
    let (mut paced, mut digests) = (Vec::new(), Vec::new());
    let mut host = report.host_now();
    for segment in 0..segment_count(ctx) {
        let corpus_seed = sub_seed(ctx.seed, segment.saturating_sub(1) as u64);
        let Some((mut bed, s)) = build(&mut report, ctx, corpus_seed) else {
            return report;
        };
        let (requests, due) = serve_bed::requests(&bed, corpus_seed, SATURATED_REQUESTS, BASE_RPS);
        let mut next = report.host_now();
        setup_s.time(s, (host + next) / 2.0);
        host = next;

        let m = SEGMENT_REQUESTS.min(requests.len());
        let (run, got) = serve_bed::pace(&mut report, &mut bed.svc, &requests[..m], &due[..m]);
        next = report.host_now();
        serve_bed::count_late(&mut report, &run);
        for l in &run.latency_us {
            latency_ms.time(l / 1e3, (host + next) / 2.0);
        }
        host = next;

        let (pass, all) = serve_bed::pace(&mut report, &mut bed.svc, &requests, &all_due);
        next = report.host_now();
        saturated_rps.rate(
            requests.len() as f64 / pass.wall.as_secs_f64(),
            (host + next) / 2.0,
        );
        host = next;
        report.check(all.answers.get(..m) == Some(&got.answers[..]), || {
            format!("segment {segment}: the saturated pass answered differently from the paced leg")
        });
        digests.push(all.digest());
        paced.push(run);
    }
    report.check(digests[0] == digests[1], || {
        format!(
            "two services over one corpus answered differently: {:#018x}, {:#018x}",
            digests[0], digests[1]
        )
    });

    report.digest_fact("answers_digest", digests[0]);
    report.fact("segments", Json::Num(paced.len() as f64));
    report.fact(
        "paced_batches",
        Json::Num(paced.iter().map(|r| r.batches).sum::<u64>() as f64),
    );
    lateness_facts(&mut report, &paced.iter().collect::<Vec<_>>());
    set_end_to_end(&mut report, &setup_s, &saturated_rps, &latency_ms);
    report.alias_of("lookup_p50_ms", "ms", "op_p50_ms");
    report.alias_of("lookup_p90_ms", "ms", "op_tail_ms");
    report.alias_of("saturated_rps", "1/s", "throughput_per_s");
    report
}

fn is_signal(r: &ServeRequest) -> bool {
    matches!(r.query, ServeQuery::Signal { .. })
}

fn run_traced(ctx: &Ctx) -> Report {
    let mut report = Report::new(true);
    let n = request_count(ctx);

    // Closed loop, one request per call: what a single lookup of each kind
    // costs, and how that cost drifts as the service ages.
    let Some((mut bed, _)) = build(&mut report, ctx, ctx.seed) else {
        return report;
    };
    let attach_ms = bed.attach_s * 1e3;
    let (requests, due) = serve_bed::requests(&bed, ctx.seed, n, BASE_RPS);
    let mark = EngineMark::of(bed.sys.cluster());
    let (mut call_us, mut dup_us, mut signal_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut answers = Vec::with_capacity(n);
    let mut virtual_us = Vec::with_capacity(n);
    for r in &requests {
        let (out, s) = timed(|| bed.svc.run_open_loop(std::slice::from_ref(r)));
        let Some(summary) = report.attempt("single lookup", out) else {
            continue;
        };
        call_us.push(s * 1e6);
        if is_signal(r) {
            signal_us.push(s * 1e6);
        } else {
            dup_us.push(s * 1e6);
        }
        virtual_us.extend(summary.latencies_us.iter().map(|&l| l as f64));
        answers.extend(summary.answers);
    }
    mark.fill(bed.sys.cluster(), &mut report.metrics);
    let digest = dedup::answers_digest(&answers);
    let decile = (call_us.len() / 10).max(1);
    let first = stats::mean(&call_us[..decile.min(call_us.len())]);
    let last = stats::mean(&call_us[call_us.len().saturating_sub(decile)..]);
    let memo = bed.svc.memo();
    let memo_share = memo.hits() as f64 / memo.lookups().max(1) as f64;
    let launch = empty_job_wall_us(&mut report, bed.sys.cluster());
    drop(bed);

    // The paced leg again, for its batching behaviour and its far tail.
    let Some((mut bed, _)) = build(&mut report, ctx, ctx.seed) else {
        return report;
    };
    let (paced, paced_answers) = serve_bed::pace(&mut report, &mut bed.svc, &requests, &due);
    serve_bed::count_late(&mut report, &paced);
    report.check(paced_answers.digest() == digest, || {
        "the paced leg answered differently from single calls".into()
    });
    drop(bed);

    // The ladder: the highest rate the service sustains.
    let mut sustained = 0.0;
    let mut ladder = Vec::new();
    let mut runs = vec![paced.clone()];
    for rps in LADDER_RPS {
        let Some((mut bed, _)) = build(&mut report, ctx, ctx.seed) else {
            break;
        };
        let (_, due) = serve_bed::requests(&bed, ctx.seed, n, rps);
        let (run, got) = serve_bed::pace(&mut report, &mut bed.svc, &requests, &due);
        report.check(got.answers[..] == answers[..n.min(answers.len())], || {
            format!("the {rps} rps leg answered differently from single calls")
        });
        let (tail_us, _) = stats::tail(&run.latency_us);
        let ok = tail_us / 1e3 <= SUSTAIN_TAIL_MS
            && run.drain_us <= DRAIN_LIMIT.as_secs_f64() * 1e6
            && run.failed == 0;
        if ok {
            sustained = rps;
        }
        ladder.push(Json::obj([
            ("offered_rps", Json::Num(rps)),
            ("p50_ms", Json::Num(run.p50_ms())),
            ("tail_ms", Json::Num(tail_us / 1e3)),
            ("drain_ms", Json::Num(run.drain_us / 1e3)),
            ("mean_batch", Json::Num(run.mean_batch())),
            ("max_backlog", Json::Num(run.max_backlog as f64)),
            ("sustained", Json::Bool(ok)),
        ]));
        runs.push(run);
    }
    let (base_tail_us, _) = stats::tail(&paced.latency_us);
    if sustained == 0.0 && base_tail_us / 1e3 <= SUSTAIN_TAIL_MS {
        sustained = BASE_RPS;
    }

    let (late_p50, late_max) = lateness_facts(&mut report, &runs.iter().collect::<Vec<_>>());
    report.fact("ladder", Json::Arr(ladder));
    report.digest_fact("answers_digest", digest);
    report.sample("single_call_us", &call_us);
    report.sample("paced_latency_us", &paced.latency_us);
    let m = &mut report.metrics;
    m.set("serve.attach_wall_ms", attach_ms);
    m.set("serve.dup_call_us_p50", stats::median(&dup_us));
    m.set("serve.signal_call_us_p50", stats::median(&signal_us));
    m.set("serve.first_decile_call_us", first);
    m.set("serve.last_decile_call_us", last);
    m.set(
        "serve.drift_ratio",
        if first > 0.0 { last / first } else { 0.0 },
    );
    m.set("serve.batches", paced.batches as f64);
    m.set("serve.mean_batch", paced.mean_batch());
    m.set("serve.max_backlog", paced.max_backlog as f64);
    m.set("serve.memo_hit_share", memo_share);
    m.set("serve.lookup_p90_ms", base_tail_us / 1e3);
    m.set(
        "serve.p99_ms",
        stats::percentile(&paced.latency_us, 0.99) / 1e3,
    );
    m.set("serve.sustained_rps", sustained);
    m.set("serve.virtual_p50_us", stats::median(&virtual_us));
    m.set("sparklet.empty_job_wall_us", launch);
    m.set("bench.lateness_p50_us", late_p50);
    m.set("bench.lateness_max_us", late_max);
    m.set("bench.tail_percentile", stats::tail(&paced.latency_us).1);
    report
}
