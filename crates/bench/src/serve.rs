//! Serving benchmark behind `BENCH_serve.json`: adaptive micro-batched
//! duplicate lookups and signal queries under open-loop load.
//!
//! Drives [`dedup::ServeService`] with a deterministic Poisson arrival
//! stream ([`adr_synth::generate_query_load`] — a simulated multi-million
//! user population) against a bootstrapped [`dedup::DedupSystem`]:
//!
//! * **batched leg** — the request stream through the batch-or-deadline
//!   queue (that one-request batches give the same answers is a test,
//!   `tests/serve.rs`, not a leg);
//! * **same-seed rerun** — a freshly built system + service over the same
//!   seed must reproduce the digest bit-for-bit;
//! * **saturation knee** — the batched leg swept across arrival rates,
//!   reporting sustained throughput and tail latency per offered load;
//! * **ROR inflation** — the "why dedup matters" table: drug–event
//!   reporting odds ratios from the raw store vs the deduplicated store
//!   for drugs drawn from known duplicate pairs; duplicates inflate the
//!   raw co-mention cells.

use crate::harness::{gates_json, Gate};
use adr_synth::{
    generate_query_load, Dataset, QueryArrival, QueryLoadConfig, QuerySpec, SynthConfig,
};
use dedup::{
    DedupConfig, DedupSystem, ServeAnswer, ServeConfig, ServeQuery, ServeRequest, ServeRunSummary,
    ServeService, SignalStats,
};
use fastknn::FastKnnConfig;
use sparklet::Cluster;

/// One benchmark scenario: corpus scale, load shape and cluster shape.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Corpus size (duplicates included) bootstrapped into the system.
    pub num_reports: usize,
    /// Injected duplicate pairs.
    pub duplicate_pairs: usize,
    /// Requests in the open-loop stream.
    pub requests: usize,
    /// Mean inter-arrival gap (µs). The headline leg runs saturating
    /// (arrivals faster than the service answers them).
    pub mean_interarrival_us: u64,
    /// Signal-query share, per mille.
    pub signal_per_mille: u32,
    /// Simulated executors.
    pub executors: usize,
    /// Simulated user population.
    pub users: u64,
    /// Corpus + load seed.
    pub seed: u64,
}

impl ServeWorkload {
    /// Headline scenario: a 2,400-report database serving 2,000 queries
    /// from two million simulated users at a saturating arrival rate.
    pub fn full() -> Self {
        ServeWorkload {
            num_reports: 2_400,
            duplicate_pairs: 120,
            requests: 2_000,
            mean_interarrival_us: 40,
            signal_per_mille: 300,
            executors: 4,
            users: 2_000_000,
            seed: 2016,
        }
    }

    /// CI-smoke scale.
    pub fn quick() -> Self {
        ServeWorkload {
            num_reports: 700,
            duplicate_pairs: 35,
            requests: 400,
            mean_interarrival_us: 40,
            signal_per_mille: 300,
            executors: 4,
            users: 2_000_000,
            seed: 2016,
        }
    }

    fn dedup_config(&self) -> DedupConfig {
        DedupConfig {
            use_blocking: true,
            knn: FastKnnConfig {
                theta: 10.0,
                b: 8,
                ..FastKnnConfig::default()
            },
            ..DedupConfig::default()
        }
    }

    /// Generate the corpus and bootstrap a fresh system over it.
    pub fn build_system(&self) -> (DedupSystem, Dataset) {
        let ds = Dataset::generate(&SynthConfig::small(
            self.num_reports,
            self.duplicate_pairs,
            self.seed,
        ));
        let mut sys = DedupSystem::new(Cluster::local(self.executors), self.dedup_config());
        sys.bootstrap(&ds.reports, &ds.duplicate_pairs)
            .expect("bootstrap");
        (sys, ds)
    }

    /// The query stream at this workload's arrival rate.
    pub fn load(&self) -> Vec<QueryArrival> {
        self.load_at(self.mean_interarrival_us)
    }

    /// The query stream at an overridden arrival rate (knee sweep).
    pub fn load_at(&self, mean_interarrival_us: u64) -> Vec<QueryArrival> {
        generate_query_load(&QueryLoadConfig {
            seed: self.seed,
            requests: self.requests,
            users: self.users,
            mean_interarrival_us,
            signal_per_mille: self.signal_per_mille,
            probe_span: self.num_reports as u64,
        })
    }
}

/// Resolve the id-level query stream against the corpus: duplicate probes
/// become fresh-id copies of corpus reports (forcing real candidate
/// classification), signal specs become the probed report's leading drug
/// and reaction words.
pub fn resolve_requests(load: &[QueryArrival], ds: &Dataset) -> Vec<ServeRequest> {
    load.iter()
        .enumerate()
        .map(|(i, q)| {
            let query = match q.spec {
                QuerySpec::Duplicate { probe_id } => {
                    let mut report = ds.reports[probe_id as usize % ds.reports.len()].clone();
                    report.id = 1_000_000_000 + i as u64;
                    ServeQuery::Duplicate { report }
                }
                QuerySpec::Signal { probe_id } => {
                    let r = &ds.reports[probe_id as usize % ds.reports.len()];
                    ServeQuery::Signal {
                        drug: first_word(r.drug_names().first().copied().unwrap_or("panadol")),
                        event: first_word(r.adr_names().first().copied().unwrap_or("rash")),
                    }
                }
            };
            ServeRequest {
                arrival_us: q.arrival_us,
                query,
            }
        })
        .collect()
}

fn first_word(s: &str) -> String {
    s.split_whitespace().next().unwrap_or(s).to_lowercase()
}

/// One serving leg: a fresh service over `system`, the stream run through
/// the batch-or-deadline admission queue.
pub fn run_leg(system: &DedupSystem, requests: &[ServeRequest]) -> ServeRunSummary {
    let mut svc =
        ServeService::attach(system, ServeConfig::default()).expect("attach serve service");
    svc.run_open_loop(requests).expect("open-loop run")
}

/// One row of the ROR-inflation table.
#[derive(Debug, Clone)]
pub struct RorRow {
    /// Queried drug word.
    pub drug: String,
    /// Queried reaction word.
    pub event: String,
    /// Stats over every ingested report.
    pub raw: SignalStats,
    /// Stats with known-duplicate later members excluded.
    pub deduped: SignalStats,
}

/// The "why dedup matters" table: signal queries for words drawn from the
/// base member of each of the first `rows` known duplicate pairs, answered
/// from both stores.
pub fn ror_inflation(system: &DedupSystem, ds: &Dataset, rows: usize) -> Vec<RorRow> {
    let mut svc = ServeService::attach(system, ServeConfig::default()).expect("attach");
    let mut words: Vec<(String, String)> = Vec::new();
    for pair in ds.duplicate_pairs.iter().take(rows) {
        let base = &ds.reports[pair.lo as usize];
        let drug = match base.drug_names().first() {
            Some(d) => first_word(d),
            None => continue,
        };
        let event = match base.adr_names().first() {
            Some(e) => first_word(e),
            None => continue,
        };
        words.push((drug, event));
    }
    let requests: Vec<ServeRequest> = words
        .iter()
        .map(|(drug, event)| ServeRequest {
            arrival_us: 0,
            query: ServeQuery::Signal {
                drug: drug.clone(),
                event: event.clone(),
            },
        })
        .collect();
    let out = svc.run_open_loop(&requests).expect("signal queries");
    words
        .into_iter()
        .zip(out.answers)
        .map(|((drug, event), a)| match a {
            ServeAnswer::Signal { raw, deduped } => RorRow {
                drug,
                event,
                raw,
                deduped,
            },
            other => unreachable!("signal query answered {other:?}"),
        })
        .collect()
}

/// One knee-sweep row: the batched leg at one offered arrival rate.
#[derive(Debug, Clone)]
pub struct KneeRow {
    /// Mean inter-arrival gap driven (µs).
    pub mean_interarrival_us: u64,
    /// Offered load (requests per virtual second).
    pub offered_rps: f64,
    /// Sustained throughput the service achieved.
    pub throughput_rps: f64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// Tail latency (µs).
    pub p99_us: u64,
}

/// Sweep the batched leg across arrival rates: as offered load passes the
/// service capacity the sustained throughput flattens and p99 departs —
/// the saturation knee.
pub fn knee_sweep(
    w: &ServeWorkload,
    system: &DedupSystem,
    ds: &Dataset,
    gaps_us: &[u64],
) -> Vec<KneeRow> {
    gaps_us
        .iter()
        .map(|&gap| {
            let requests = resolve_requests(&w.load_at(gap), ds);
            let s = run_leg(system, &requests);
            KneeRow {
                mean_interarrival_us: gap,
                offered_rps: 1e6 / gap.max(1) as f64,
                throughput_rps: s.throughput_rps(),
                p50_us: s.p50_us(),
                p99_us: s.p99_us(),
            }
        })
        .collect()
}

/// The benchmark's acceptance gates.
pub fn serve_gates(
    batched: &ServeRunSummary,
    rerun: &ServeRunSummary,
    ror: &[RorRow],
) -> Vec<Gate> {
    let raw_a: u64 = ror.iter().map(|r| r.raw.a).sum();
    let dedup_a: u64 = ror.iter().map(|r| r.deduped.a).sum();
    vec![
        Gate::holds("rerun_digest_match", batched.digest == rerun.digest),
        Gate::holds("ror_inflated_by_duplicates", raw_a > dedup_a),
    ]
}

fn leg_json(label: &str, s: &ServeRunSummary) -> String {
    format!(
        "  \"{label}\": {{\"digest\": \"{:#018x}\", \"requests\": {}, \"batches\": {}, \
         \"mean_batch\": {:.2}, \"max_queue_depth\": {}, \"p50_us\": {}, \"p99_us\": {}, \
         \"throughput_rps\": {:.1}, \"service_us\": {}, \"elapsed_us\": {}}},\n",
        s.digest,
        s.requests(),
        s.batches,
        s.requests() as f64 / s.batches.max(1) as f64,
        s.max_queue_depth,
        s.p50_us(),
        s.p99_us(),
        s.throughput_rps(),
        s.service_us,
        s.elapsed_us
    )
}

/// Render `BENCH_serve.json`.
pub fn serve_to_json(
    w: &ServeWorkload,
    batched: &ServeRunSummary,
    rerun: &ServeRunSummary,
    knee: &[KneeRow],
    ror: &[RorRow],
) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": 1,\n  \"reports\": {},\n  \"requests\": {},\n  \
         \"executors\": {},\n  \"mean_interarrival_us\": {},\n  \"signal_per_mille\": {},\n  \
         \"users\": {},\n",
        w.num_reports, w.requests, w.executors, w.mean_interarrival_us, w.signal_per_mille, w.users
    );
    out.push_str(&leg_json("batched", batched));
    out.push_str(&format!(
        "  \"rerun_digest\": \"{:#018x}\",\n  \"knee\": [\n",
        rerun.digest
    ));
    for (i, k) in knee.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mean_interarrival_us\": {}, \"offered_rps\": {:.1}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            k.mean_interarrival_us,
            k.offered_rps,
            k.throughput_rps,
            k.p50_us,
            k.p99_us,
            if i + 1 < knee.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"ror_inflation\": [\n");
    for (i, r) in ror.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"drug\": {}, \"event\": {}, \"raw_a\": {}, \"dedup_a\": {}, \
             \"raw_ror\": {:.4}, \"dedup_ror\": {:.4}}}{}\n",
            sparklet::json_string(&r.drug),
            sparklet::json_string(&r.event),
            r.raw.a,
            r.deduped.a,
            r.raw.ror,
            r.deduped.ror,
            if i + 1 < ror.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  ");
    out.push_str(&gates_json(&serve_gates(batched, rerun, ror)));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeWorkload {
        ServeWorkload {
            num_reports: 220,
            duplicate_pairs: 12,
            requests: 60,
            mean_interarrival_us: 40,
            signal_per_mille: 300,
            executors: 2,
            users: 1_000_000,
            seed: 9,
        }
    }

    #[test]
    fn legs_agree_and_json_carries_the_gates() {
        let w = tiny();
        let (sys, ds) = w.build_system();
        let requests = resolve_requests(&w.load(), &ds);
        assert_eq!(requests.len(), w.requests);
        let batched = run_leg(&sys, &requests);
        assert!(
            batched.batches < requests.len() as u64,
            "batching coalesces"
        );

        let (sys2, ds2) = w.build_system();
        let rerun = run_leg(&sys2, &resolve_requests(&w.load(), &ds2));
        assert_eq!(batched.digest, rerun.digest, "same-seed rerun must agree");

        let ror = ror_inflation(&sys, &ds, 8);
        assert!(!ror.is_empty());
        let knee = knee_sweep(&w, &sys, &ds, &[400, 40]);
        let doc = serve_to_json(&w, &batched, &rerun, &knee, &ror);
        assert!(doc.contains("\"gates\": {"), "{doc}");
        assert!(doc.contains("\"ror_inflation\": ["), "{doc}");
        assert!(
            doc.contains("\"rerun_digest_match\": {\"threshold\": 1.00, \"value\": 1.0000, \"passed\": true}"),
            "{doc}"
        );
        assert!(!doc.contains("request_at_a_time"), "{doc}");
        assert!(doc.starts_with('{') && doc.ends_with("}\n"));
    }

    #[test]
    fn quick_scale_job_report_is_json() {
        let w = ServeWorkload::quick();
        let (sys, ds) = w.build_system();
        run_leg(&sys, &resolve_requests(&w.load(), &ds));
        let json = sys.job_report().to_json();
        assert!(crate::json_check::is_json(&json), "{json}");
    }
}
