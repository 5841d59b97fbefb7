//! What the two `serve-*` workloads share: a bootstrapped system with a
//! `ServeService` attached, the request stream, and the adapter that lets
//! the pacer drive `run_open_loop`.

use crate::common::{dedup_config, timed, Ctx, Report, LOOKUP_LIMIT};
use crate::pacer::{run_paced, PacedRun};
use adr_model::AdrReport;
use adr_synth::{
    generate_query_load, QuarterlyReplay, QueryLoadConfig, QuerySpec, StreamingCorpus, SynthConfig,
};
use dedup::{
    answers_digest, DedupSystem, ServeAnswer, ServeConfig, ServeQuery, ServeRequest, ServeService,
};

/// Signal queries per thousand requests; the rest are duplicate probes.
const SIGNAL_PER_MILLE: u32 = 300;

/// Fresh ids for probe copies start here, far above any corpus id.
const PROBE_ID_BASE: u64 = 1_000_000_000;

/// A system ready to serve, and what it was built from.
pub struct Bed {
    pub sys: DedupSystem,
    pub svc: ServeService,
    /// The replay the database is a prefix of (quarter = one refresh
    /// batch); `serve-refresh` ingests the following quarters.
    pub replay: QuarterlyReplay,
    /// Reports in the database at attach time.
    pub base: Vec<AdrReport>,
    /// Wall seconds of the `ServeService::attach` call alone.
    pub attach_s: f64,
}

/// Generate a corpus, bootstrap its first `serve_reports` arrivals with
/// the duplicate pairs among them labelled, and attach a service. The
/// corpus is larger than the database by `extra_batches` refresh batches.
pub fn build(
    report: &mut Report,
    ctx: &Ctx,
    corpus_seed: u64,
    extra_batches: usize,
) -> Option<Bed> {
    let s = &ctx.scale;
    let total = s.serve_reports + extra_batches * s.refresh_batch;
    let replay = QuarterlyReplay::new(
        StreamingCorpus::new(SynthConfig::small(total, total / 20, corpus_seed)),
        s.refresh_batch as u64,
    );
    let quarters = (s.serve_reports / s.refresh_batch) as u64;
    let base: Vec<AdrReport> = (0..quarters)
        .flat_map(|q| replay.quarter_reports(q))
        .collect();
    let labelled = replay.labelled_pairs_within(base.len() as u64);
    let mut sys = DedupSystem::new(ctx.cluster(), dedup_config(s.bulk_negatives));
    report.attempt("bootstrap", sys.bootstrap(&base, &labelled))?;
    let (attached, attach_s) = timed(|| ServeService::attach(&sys, ServeConfig::default()));
    let svc = report.attempt("serve attach", attached)?;
    Some(Bed {
        sys,
        svc,
        replay,
        base,
        attach_s,
    })
}

/// `n` requests for `bed`: 70 % duplicate probes (fresh-id copies of
/// database reports, so each runs the real blocking → distance → classify
/// path) and 30 % signal queries, with Poisson due times at `rps`. Kinds
/// and probes depend only on `seed` and position, never on the rate, so
/// every leg of a run asks the same questions. `arrival_us` is zeroed:
/// the pacer owns the schedule, the service sees each hand-over as one
/// batch that is due now.
pub fn requests(bed: &Bed, seed: u64, n: usize, rps: f64) -> (Vec<ServeRequest>, Vec<u64>) {
    let load = generate_query_load(&QueryLoadConfig {
        seed,
        requests: n,
        users: 2_000_000,
        mean_interarrival_us: (1e6 / rps) as u64,
        signal_per_mille: SIGNAL_PER_MILLE,
        probe_span: bed.base.len() as u64,
    });
    let first_word = |s: &str| s.split_whitespace().next().unwrap_or(s).to_lowercase();
    let mut due = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for (i, q) in load.iter().enumerate() {
        due.push(q.arrival_us);
        let query = match q.spec {
            QuerySpec::Duplicate { probe_id } => {
                let mut report = bed.base[probe_id as usize % bed.base.len()].clone();
                report.id = PROBE_ID_BASE + i as u64;
                ServeQuery::Duplicate { report }
            }
            QuerySpec::Signal { probe_id } => {
                let r = &bed.base[probe_id as usize % bed.base.len()];
                ServeQuery::Signal {
                    drug: first_word(r.drug_names().first().copied().unwrap_or("panadol")),
                    event: first_word(r.adr_names().first().copied().unwrap_or("rash")),
                }
            }
        };
        out.push(ServeRequest {
            arrival_us: 0,
            query,
        });
    }
    (out, due)
}

/// Count the lookups of a *paced* run that were answered later than
/// [`LOOKUP_LIMIT`] after they were due as failed. Requests in failed
/// batches already are. (Saturated passes have no due times to miss.)
pub fn count_late(report: &mut Report, run: &PacedRun) {
    report.failed += run.later_than(LOOKUP_LIMIT).saturating_sub(run.failed);
}

/// Answers collected across the hand-overs of one paced run.
#[derive(Default)]
pub struct Collected {
    pub answers: Vec<ServeAnswer>,
}

impl Collected {
    pub fn digest(&self) -> u64 {
        answers_digest(&self.answers)
    }
}

/// Pace `requests` on `due` through `svc`, one `run_open_loop` call per
/// hand-over. Every hand-over is a counted attempt; an `Err` fails the
/// whole batch.
pub fn pace(
    report: &mut Report,
    svc: &mut ServeService,
    requests: &[ServeRequest],
    due: &[u64],
) -> (PacedRun, Collected) {
    let max_batch = ServeConfig::default().max_batch;
    let mut collected = Collected::default();
    let mut errors: Vec<String> = Vec::new();
    let run = run_paced(due, max_batch, |range| {
        match svc.run_open_loop(&requests[range]) {
            Ok(summary) => {
                collected.answers.extend(summary.answers);
                true
            }
            Err(e) => {
                errors.push(e.to_string());
                false
            }
        }
    });
    report.attempted += run.requests() as u64;
    report.failed += run.failed;
    for e in errors {
        report.failures.push(format!("serve batch failed: {e}"));
    }
    report.check(
        collected.answers.len() as u64 + run.failed == run.requests() as u64,
        || {
            format!(
                "{} requests sent, {} answered, {} failed",
                run.requests(),
                collected.answers.len(),
                run.failed
            )
        },
    );
    (run, collected)
}
