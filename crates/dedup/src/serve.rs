//! Low-latency serving over the live dedup system.
//!
//! The Fig. 1 pipeline exists so downstream pharmacovigilance queries can be
//! answered from a clean store. This module serves the two canonical read
//! paths:
//!
//! * **duplicate lookups** — is this incoming report a duplicate of
//!   something already in the database? Probes run through the blocking
//!   index and [`fastknn::FastKnn::classify_distinct`], with an O(1)
//!   short-circuit through [`crate::store::PairStore`]'s per-report member
//!   index for reports already known to be duplicates;
//! * **signal queries** — how strong is a drug–event association? Answered
//!   as a reporting odds ratio (ROR) with Bayesian shrinkage from 2×2
//!   contingency tables maintained incrementally — each refresh folds the
//!   token sets of the reports that arrived since the last one into them,
//!   on the driver. Every query is answered from both the raw and the
//!   deduplicated store, quantifying the ROR inflation duplicates cause —
//!   the "why dedup matters" experiment.
//!
//! The performance core is an **adaptive micro-batching admission queue** on
//! the virtual clock: requests coalesce under a batch-or-deadline policy
//! (the batch target adapts to the observed arrival rate; queueing delay is
//! bounded by the deadline) into one contiguous [`DistBatch`] per
//! micro-batch, so a single classify stage — one engine stage with no
//! shuffle, whether the batch holds one probe or sixty-four; a batch with
//! nothing to classify launches none — amortises its launch across every
//! probe in the batch, exactly like the batch-columnar operators.
//! Serving is read-only and fits nothing. The service *follows* the
//! system's append-only logs rather than co-owning its database:
//! [`ServeService::attach`] shares the published epoch by pointer and
//! clones the token interner once (probes intern into it), and each
//! [`ServeService::refresh`] shares only the new classifier and pair store,
//! and applies the reports that arrived since the last refresh to the
//! service's own corpus and blocking index, and the tokens they brought to
//! its own interner. So a refresh costs its batch, not the database: the
//! system's first write after an attach copies the corpus and the index the
//! service still holds (once per attach), and from the first refresh on the
//! two sides share neither, so no later write copies them and no refresh
//! frees a copy. The service never mutates the [`DedupSystem`], so ingest
//! and serve interleave without interference, and a service keeps answering
//! from its epoch until it refreshes.

use crate::distance::{HeldReport, ProcessedReport};
use crate::pairing::DistBatch;
use crate::system::{DedupSystem, Epoch};
use adr_model::{AdrReport, ReportId};
use sparklet::{stable_hash, Cluster, EventKind, Result, SparkletError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use textprep::{Pipeline, TokenInterner};

/// Serving knobs. Everything else the service reads is a constant below:
/// no caller ever set it to anything but its default.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest micro-batch ever dispatched. `1` dispatches every request
    /// alone, which is how the tests show batching never changes an answer.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 64 }
    }
}

/// Bound on queueing delay (µs): a batch dispatches when it reaches the
/// adaptive target size *or* its oldest request has waited this long,
/// whichever comes first.
const DEADLINE_US: u64 = 2_000;

/// Fixed virtual cost charged per dispatch (µs) — the overhead
/// micro-batching amortises.
const DISPATCH_OVERHEAD_US: u64 = 150;

/// Marginal virtual cost per request in a dispatch (µs).
const PER_REQUEST_US: u64 = 20;

/// Candidate partners considered per probe (smallest report ids first —
/// deterministic whatever the arrival interleaving).
const MAX_CANDIDATES: usize = 256;

/// Bayesian shrinkage `s` added to every 2×2 cell before the ROR.
const SHRINKAGE: f64 = 0.5;

/// Capacity of the bounded signal-query memo.
const MEMO_ENTRIES: usize = 1 << 16;

/// One serving request.
// The wall-clock benchmark constructs `ServeQuery::Duplicate { report }`
// directly, so boxing the report would change a frozen caller.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ServeQuery {
    /// Is this report a duplicate of something in the database?
    Duplicate {
        /// The probe report (need not be ingested).
        report: AdrReport,
    },
    /// How strong is the association between a drug token and an ADR token?
    /// Both are single lowercased words, matched against the corpus token
    /// tables ([`crate::distance::ProcessedReport::drug_tokens`] /
    /// `adr_tokens`).
    Signal {
        /// Drug-name word.
        drug: String,
        /// ADR-name word.
        event: String,
    },
}

/// A timestamped request in an open-loop arrival stream.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Virtual arrival time (µs); streams must be sorted by this.
    pub arrival_us: u64,
    /// The query.
    pub query: ServeQuery,
}

/// One classified candidate partner of a duplicate probe.
#[derive(Debug, Clone, PartialEq)]
pub struct DuplicateMatch {
    /// The database report compared against.
    pub candidate: ReportId,
    /// Eq. 5 score.
    pub score: f64,
    /// Eq. 6 decision at the model's θ.
    pub is_duplicate: bool,
}

/// A 2×2 contingency table with its reporting odds ratio.
///
/// `a` = reports with both drug and event, `b` = drug without event,
/// `c` = event without drug, `d` = neither;
/// `ROR = ((a+s)(d+s)) / ((b+s)(c+s))` with shrinkage `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalStats {
    /// Reports mentioning both the drug and the event.
    pub a: u64,
    /// Reports mentioning the drug but not the event.
    pub b: u64,
    /// Reports mentioning the event but not the drug.
    pub c: u64,
    /// Reports mentioning neither.
    pub d: u64,
    /// Shrunk reporting odds ratio.
    pub ror: f64,
}

impl SignalStats {
    fn from_counts(a: u64, drug_total: u64, event_total: u64, n: u64, s: f64) -> Self {
        let b = drug_total.saturating_sub(a);
        let c = event_total.saturating_sub(a);
        let d = n.saturating_sub(a + b + c);
        let ror = ((a as f64 + s) * (d as f64 + s)) / ((b as f64 + s) * (c as f64 + s));
        SignalStats { a, b, c, d, ror }
    }
}

/// The answer to one [`ServeQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeAnswer {
    /// Duplicate-lookup result.
    Duplicate {
        /// Stored duplicate pairs the probe's id already participates in
        /// (answered O(1) from the store's member index). When positive the
        /// probe short-circuits: `matches` is empty.
        known_memberships: u32,
        /// Classified candidate partners, in candidate-id order.
        matches: Vec<DuplicateMatch>,
    },
    /// Signal-query result from both stores.
    Signal {
        /// Contingency stats over every ingested report.
        raw: SignalStats,
        /// The same stats with the later member of every known duplicate
        /// pair excluded.
        deduped: SignalStats,
    },
}

/// Incrementally-maintained contingency counts: per-(drug, event) pair
/// co-mention counts plus the two marginals and the report total.
#[derive(Debug, Clone, Default, PartialEq)]
struct ContingencyTable {
    pair: HashMap<(u32, u32), u64>,
    drug: HashMap<u32, u64>,
    event: HashMap<u32, u64>,
    reports: u64,
}

impl ContingencyTable {
    /// Count report `r` in: one for each of its distinct drug tokens, for
    /// each of its distinct ADR tokens and for each (drug, ADR) combination.
    fn count(&mut self, r: &ProcessedReport) {
        self.reports += 1;
        for &d in &r.drug_tokens {
            *self.drug.entry(d).or_insert(0) += 1;
            for &e in &r.adr_tokens {
                *self.pair.entry((d, e)).or_insert(0) += 1;
            }
        }
        for &e in &r.adr_tokens {
            *self.event.entry(e).or_insert(0) += 1;
        }
    }

    fn pair_count(&self, d: u32, e: u32) -> u64 {
        self.pair.get(&(d, e)).copied().unwrap_or(0)
    }

    fn drug_count(&self, d: u32) -> u64 {
        self.drug.get(&d).copied().unwrap_or(0)
    }

    fn event_count(&self, e: u32) -> u64 {
        self.event.get(&e).copied().unwrap_or(0)
    }
}

/// Bounded signal-query memo (at most 65,536 entries; insert is a no-op at
/// capacity): a signal answer is a pure function of the contingency
/// stores, so memo hits are bit-identical to recomputation.
/// The whole memo is purged at every [`ServeService::refresh`] — any ingest
/// commit may change any cell.
#[derive(Debug, Clone)]
pub struct SignalMemo {
    entries: HashMap<(u32, u32), (SignalStats, SignalStats)>,
    hits: u64,
    lookups: u64,
}

impl SignalMemo {
    /// Memoised entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    fn get(&mut self, d: u32, e: u32) -> Option<(SignalStats, SignalStats)> {
        self.lookups += 1;
        let hit = self.entries.get(&(d, e)).copied();
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    fn insert(&mut self, d: u32, e: u32, stats: (SignalStats, SignalStats)) {
        if self.entries.len() < MEMO_ENTRIES {
            self.entries.entry((d, e)).or_insert(stats);
        }
    }

    fn purge(&mut self) {
        self.entries.clear();
    }
}

/// The serving service: the epoch the dedup system's last commit published,
/// followed commit by commit (see the module docs), plus the adaptive
/// micro-batching admission queue and the incremental signal stores.
pub struct ServeService {
    cluster: Cluster,
    config: ServeConfig,
    pipeline: Pipeline,
    /// The system's interner, cloned once at attach and brought up to date
    /// at every refresh ([`TokenInterner::follow`]). The service needs its
    /// own because probe reports intern into it: corpus-known tokens
    /// resolve to their stable ids; novel tokens get fresh ids that
    /// provably cannot change any Jaccard distance (intersections only ever
    /// involve corpus-known ids and union sizes are id-independent), so
    /// serve results are invariant to probe interleaving order. The clone
    /// carries the interner's raw-token memo, so probe narratives take the
    /// same memoised path as ingest; the words probes add are forgotten at
    /// the next refresh.
    interner: TokenInterner,
    /// The system's token count at the last refresh: tokens below it are
    /// the system's, tokens from it on are probe-local.
    interner_mark: usize,
    /// Model and pair store as of the last refresh, shared with the system
    /// (pointers, not copies); the corpus and the blocking index, shared at
    /// attach and the service's own from its first refresh that applies
    /// arrivals. None of the four is ever written by the system.
    epoch: Epoch,
    /// Contingency counts over every counted report.
    raw: ContingencyTable,
    /// Contingency contributions of excluded (later-duplicate) reports;
    /// the deduplicated store is `raw − excluded`, evaluated per query.
    excluded_table: ContingencyTable,
    /// Arrival-order prefix already in the service's corpus and blocking
    /// index and folded into `raw` (suffix = fresh work). The system
    /// refuses an id it already holds, so the counted reports are the
    /// corpus's.
    counted_len: usize,
    /// The last id of that prefix, which a refresh checks the system still
    /// has in place.
    last_counted: Option<ReportId>,
    /// Stored duplicate pairs already walked for exclusions. Positives only
    /// grow across committed states (a rollback puts back a store whose
    /// positives are a prefix), so a refresh walks the rest.
    positives_seen: usize,
    /// Reports excluded from the deduplicated store (the later member of
    /// every known duplicate pair).
    excluded: HashSet<ReportId>,
    memo: SignalMemo,
}

/// The outcome of one open-loop run: per-request answers and latencies in
/// request order, queue statistics, and the content digest.
#[derive(Debug, Clone)]
pub struct ServeRunSummary {
    /// Per-request answers, in request order.
    pub answers: Vec<ServeAnswer>,
    /// Per-request latencies (arrival → batch completion, µs).
    pub latencies_us: Vec<u64>,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Largest queue depth observed at any dispatch.
    pub max_queue_depth: u64,
    /// Virtual service time summed over batches (µs).
    pub service_us: u64,
    /// First arrival → last completion (µs).
    pub elapsed_us: u64,
    /// Order-stable digest of every answer's content (not latencies): equal
    /// iff the per-request results are bit-identical.
    pub digest: u64,
}

impl ServeRunSummary {
    /// Requests answered.
    pub fn requests(&self) -> usize {
        self.answers.len()
    }

    /// Latency percentile (nearest-rank on the sorted latencies), µs.
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Median latency, µs.
    pub fn p50_us(&self) -> u64 {
        self.latency_percentile_us(0.50)
    }

    /// Tail latency, µs.
    pub fn p99_us(&self) -> u64 {
        self.latency_percentile_us(0.99)
    }

    /// Sustained throughput over the run, requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.answers.len() as f64 * 1e6 / self.elapsed_us as f64
        }
    }
}

impl ServeService {
    /// Build a service over a system's current state: the published epoch
    /// shared by pointer (model, pair store, corpus and blocking index),
    /// the interner cloned, and every report counted into the contingency
    /// stores. The clone is the only O(database) work a service does; the
    /// other is the system's, which copies the corpus and the blocking
    /// index on its first write after the attach (see
    /// [`ServeService::refresh`]).
    ///
    /// A system whose last publish failed is a [`SparkletError::User`], as
    /// for a refresh.
    pub fn attach(system: &DedupSystem, config: ServeConfig) -> Result<Self> {
        published(system)?;
        let mut svc = ServeService {
            cluster: system.cluster().clone(),
            config,
            pipeline: *system.pipeline(),
            interner: system.interner().clone(),
            interner_mark: system.interner().mark(),
            epoch: system.epoch().clone(),
            raw: ContingencyTable::default(),
            excluded_table: ContingencyTable::default(),
            counted_len: 0,
            last_counted: None,
            positives_seen: 0,
            excluded: HashSet::new(),
            memo: SignalMemo {
                entries: HashMap::new(),
                hits: 0,
                lookups: 0,
            },
        };
        svc.fold(system.arrival_order());
        Ok(svc)
    }

    /// The signal-query memo (inspectable for hit statistics).
    pub fn memo(&self) -> &SignalMemo {
        &self.memo
    }

    /// Move to the epoch the system's last commit published, in work the
    /// size of what the system added since the last refresh:
    ///
    /// * the model and the pair store are shared by pointer (no fit, no
    ///   engine job, no copy);
    /// * the reports that arrived since are cloned into the service's own
    ///   corpus and inserted into its own blocking index in arrival order,
    ///   which gives the rows and date ids of the system's index;
    /// * the interner forgets the words probes added and appends the
    ///   system's new tokens ([`TokenInterner::follow`]);
    /// * the new arrivals and the new duplicate pairs are folded into the
    ///   contingency stores, and the signal memo is purged.
    ///
    /// The service never takes the system's corpus or index again, so
    /// neither side's write copies them and no refresh drops a copy.
    ///
    /// A system that holds labelled pairs but no model — its last publish
    /// failed — has no epoch to serve, and a system that does not continue
    /// the one this service follows (its arrivals, tokens or duplicate
    /// pairs are not an extension of what the service has applied; checked
    /// in O(1) at each log's end) cannot be followed: each is a
    /// [`SparkletError::User`], and the service stays on the epoch it had.
    /// A service that meets the second, say after recovery from an older
    /// checkpoint, is replaced by a fresh [`ServeService::attach`].
    pub fn refresh(&mut self, system: &DedupSystem) -> Result<()> {
        published(system)?;
        self.check_continued_by(system)?;
        let epoch = system.epoch();
        self.interner.follow(system.interner(), self.interner_mark);
        self.interner_mark = system.interner().mark();
        self.epoch.model = epoch.model.clone();
        self.epoch.store = Arc::clone(&epoch.store);

        let order = system.arrival_order();
        let arrived = &order[self.counted_len..];
        if !arrived.is_empty() {
            // The system's first write after the attach copied what it
            // shared with this service, so these write in place (another
            // service attached to the same epoch makes one copy here).
            let corpus = Arc::make_mut(&mut self.epoch.corpus);
            let blocking = Arc::make_mut(&mut self.epoch.blocking);
            corpus.reserve(arrived.len());
            for id in arrived {
                let report = epoch.corpus[id].clone();
                blocking.insert(&report);
                corpus.insert(*id, report);
            }
        }
        self.fold(order);
        Ok(())
    }

    /// Refuse a system whose logs do not extend what this service has
    /// applied, before anything is touched. Each check is O(1), at the end
    /// of what was applied: the arrival order still holds the last counted
    /// id there, the interner the token text at the mark, and the store at
    /// least as many duplicate pairs as were walked.
    fn check_continued_by(&self, system: &DedupSystem) -> Result<()> {
        let order = system.arrival_order();
        let arrivals = order.len() >= self.counted_len
            && self.counted_len.checked_sub(1).map(|at| order[at]) == self.last_counted;
        let tokens = system.interner().len() >= self.interner_mark
            && self.interner_mark.checked_sub(1).is_none_or(|at| {
                system.interner().resolve(at as u32) == self.interner.resolve(at as u32)
            });
        let positives = system.store().duplicate_count() >= self.positives_seen;
        let log = if !arrivals {
            "arrivals"
        } else if !tokens {
            "tokens"
        } else if !positives {
            "duplicate pairs"
        } else {
            return Ok(());
        };
        Err(SparkletError::User(format!(
            "serve: the system's {log} do not continue what this service has applied — \
             it is not the system the service follows; attach a new service to it"
        )))
    }

    /// Fold the arrival-order suffix past `counted_len` (in the service's
    /// corpus by now) and the duplicate pairs past `positives_seen` into
    /// the contingency stores, and purge the memo.
    fn fold(&mut self, order: &[ReportId]) {
        let corpus = &self.epoch.corpus;
        for id in &order[self.counted_len..] {
            self.raw.count(&corpus[id]);
        }
        self.counted_len = order.len();
        self.last_counted = order.last().copied();

        // Newly known duplicate pairs exclude their later (hi) member from
        // the deduplicated store; only the new exclusions are counted.
        let store = &self.epoch.store;
        for pid in store.duplicate_pairs().skip(self.positives_seen) {
            if !self.excluded.contains(&pid.hi) {
                if let Some(report) = corpus.get(&pid.hi) {
                    self.excluded.insert(pid.hi);
                    self.excluded_table.count(report);
                }
            }
        }
        self.positives_seen = store.duplicate_count();

        // Any commit may have changed any contingency cell.
        self.memo.purge();
    }

    /// Answer one signal query from the stores (memoised).
    fn signal_stats(&mut self, drug: &str, event: &str) -> (SignalStats, SignalStats) {
        // Corpus-known words resolve to their stable token ids; a novel word
        // interns a fresh id whose counts are zero in every table.
        let d = self.interner.intern_lowercase(drug);
        let e = self.interner.intern_lowercase(event);
        if let Some(hit) = self.memo.get(d, e) {
            return hit;
        }
        let s = SHRINKAGE;
        let (a, dt, et, n) = (
            self.raw.pair_count(d, e),
            self.raw.drug_count(d),
            self.raw.event_count(e),
            self.raw.reports,
        );
        let raw = SignalStats::from_counts(a, dt, et, n, s);
        let x = &self.excluded_table;
        let deduped = SignalStats::from_counts(
            a.saturating_sub(x.pair_count(d, e)),
            dt.saturating_sub(x.drug_count(d)),
            et.saturating_sub(x.event_count(e)),
            n.saturating_sub(x.reports),
            s,
        );
        self.memo.insert(d, e, (raw, deduped));
        (raw, deduped)
    }

    /// Answer one admitted micro-batch. All duplicate probes' candidate
    /// pairs coalesce into a single contiguous column batch, so one
    /// classify stage (through the model's `ScratchPool`) amortises its
    /// launch across the whole batch: one engine stage, none when no probe
    /// needs classifying. Appends one answer per request to `answers`.
    fn answer_batch(
        &mut self,
        requests: &[ServeRequest],
        answers: &mut Vec<ServeAnswer>,
    ) -> Result<()> {
        let base = answers.len();
        let mut rows = DistBatch::new();
        // Row ids must be stable per (probe, candidate) — never positional.
        // The classifier's balanced Voronoi assignment tie-breaks on the row
        // id, so a positional id would let batch composition leak into cell
        // choice and thence into scores. Hashing the pair keeps every row's
        // entire classify path identical whatever else shares the batch.
        /// A row's pair, and the (request slot, candidate) answers it feeds.
        type RowMeta = ((ReportId, ReportId), Vec<(usize, ReportId)>);
        let mut row_meta: HashMap<u64, RowMeta> = HashMap::new();
        for (slot, req) in requests.iter().enumerate() {
            match &req.query {
                ServeQuery::Duplicate { report } => {
                    let memberships = self.epoch.store.duplicate_memberships(report.id);
                    if memberships > 0 {
                        // O(1) through the store's per-report member index:
                        // the probe is already part of known duplicate pairs.
                        answers.push(ServeAnswer::Duplicate {
                            known_memberships: memberships,
                            matches: Vec::new(),
                        });
                        continue;
                    }
                    let processed =
                        ProcessedReport::from_report(report, &self.pipeline, &mut self.interner);
                    let mut candidates = self.epoch.blocking.probe_candidates(&processed);
                    candidates.truncate(MAX_CANDIDATES);
                    let probe = HeldReport::new(&processed);
                    for cand in candidates {
                        let Some(other) = self.epoch.corpus.get(&cand) else {
                            continue;
                        };
                        let key = (report.id, cand);
                        let mut id = stable_hash(&key);
                        loop {
                            match row_meta.get_mut(&id) {
                                None => {
                                    rows.push(id, &probe.distance(other), false);
                                    row_meta.insert(id, (key, vec![(slot, cand)]));
                                    break;
                                }
                                Some((existing, slots)) if *existing == key => {
                                    // Same probe offered twice in one batch:
                                    // one row answers every copy.
                                    slots.push((slot, cand));
                                    break;
                                }
                                // 64-bit collision between distinct pairs:
                                // chain deterministically to a fresh id.
                                Some(_) => id = stable_hash(&(id, 0x5eed_u64)),
                            }
                        }
                    }
                    answers.push(ServeAnswer::Duplicate {
                        known_memberships: 0,
                        matches: Vec::new(),
                    });
                }
                ServeQuery::Signal { drug, event } => {
                    let (raw, deduped) = self.signal_stats(drug, event);
                    answers.push(ServeAnswer::Signal { raw, deduped });
                }
            }
        }
        if !rows.is_empty() {
            let model = self.epoch.model.as_ref().ok_or_else(|| {
                SparkletError::User(
                    "serve: no trained model — refresh from a bootstrapped system".into(),
                )
            })?;
            // Per-row independent, so each request's matches are identical
            // whatever else shares the batch.
            let distinct = model.classify_distinct(&rows)?;
            for (row, &id) in rows.ids().iter().enumerate() {
                let s = distinct.of_row(row);
                let (_, slots) = &row_meta[&id];
                for &(slot, cand) in slots {
                    if let ServeAnswer::Duplicate { matches, .. } = &mut answers[base + slot] {
                        matches.push(DuplicateMatch {
                            candidate: cand,
                            score: s.score,
                            is_duplicate: s.positive,
                        });
                    }
                }
            }
            // Rows are in request order; present candidates in
            // candidate-id order.
            for a in &mut answers[base..] {
                if let ServeAnswer::Duplicate { matches, .. } = a {
                    matches.sort_by_key(|x| x.candidate);
                }
            }
        }
        Ok(())
    }

    /// Drive an open-loop arrival stream (sorted by `arrival_us`) through
    /// the batch-or-deadline admission queue on the virtual clock.
    ///
    /// Each round computes the earliest moment the pending batch is either
    /// full (the adaptive target, `DEADLINE_US / ema(inter-arrival)`
    /// clamped to `[1, max_batch]`) or its oldest request hits the
    /// deadline, then dispatches every request that has arrived by that
    /// moment (capped at `max_batch`). Service time is the engine's measured
    /// stage makespan for the batch's jobs plus the dispatch-overhead cost
    /// model — the per-dispatch overhead is what batching amortises.
    ///
    /// One coalesced journal event is recorded per dispatched batch, never
    /// per request, so arbitrarily long loads stay within the journal bound.
    ///
    /// A stream out of arrival order is a [`SparkletError::User`], returned
    /// before anything is answered.
    pub fn run_open_loop(&mut self, requests: &[ServeRequest]) -> Result<ServeRunSummary> {
        if let Some(at) = requests
            .windows(2)
            .position(|w| w[0].arrival_us > w[1].arrival_us)
        {
            return Err(SparkletError::User(format!(
                "serve: the open-loop stream is not sorted by arrival time \
                 (request {} arrives before request {at})",
                at + 1
            )));
        }
        let n = requests.len();
        let mut answers: Vec<ServeAnswer> = Vec::with_capacity(n);
        let mut latencies: Vec<u64> = vec![0; n];
        let slots = {
            let c = self.cluster.config();
            (c.num_executors * c.cores_per_executor).max(1)
        };
        let cap = self.config.max_batch.max(1);
        let mut free_at: u64 = 0;
        // Arrival-rate estimate (µs between arrivals, integer EMA). Starts
        // at the deadline, so the target is 1 until the stream reveals its
        // rate — a cold queue never waits a full deadline for company that
        // is not coming.
        let mut ema_gap: u64 = DEADLINE_US;
        let mut i = 0usize;
        let mut batches = 0u64;
        let mut max_queue_depth = 0u64;
        let mut service_total = 0u64;
        let mut last_completion = 0u64;
        while i < n {
            let target = ((DEADLINE_US / ema_gap.max(1)).max(1) as usize).min(cap);
            let t_full = match requests.get(i + target - 1) {
                Some(r) => r.arrival_us,
                None => u64::MAX,
            };
            let t_deadline = requests[i].arrival_us.saturating_add(DEADLINE_US);
            let dispatch_at = free_at.max(t_full.min(t_deadline));
            let mut end = i + 1;
            while end < n && end - i < cap && requests[end].arrival_us <= dispatch_at {
                end += 1;
            }
            let queue_depth = requests[end..]
                .iter()
                .take_while(|r| r.arrival_us <= dispatch_at)
                .count() as u64;
            max_queue_depth = max_queue_depth.max(queue_depth);
            for w in requests[i..end].windows(2) {
                ema_gap = (3 * ema_gap + (w[1].arrival_us - w[0].arrival_us)) / 4;
            }
            if end - i == 1 && end < n {
                // A singleton still reveals the gap to its successor.
                ema_gap = (3 * ema_gap + (requests[end].arrival_us - requests[i].arrival_us)) / 4;
            }
            let memo_lookups0 = self.memo.lookups();
            let memo_hits0 = self.memo.hits();
            let stages_seen = self.cluster.clock().stage_count();
            self.answer_batch(&requests[i..end], &mut answers)?;
            let engine_us: u64 = self.cluster.clock().with_stages(|stages| {
                stages[stages_seen..]
                    .iter()
                    .map(|s| s.makespan_us(slots))
                    .sum()
            });
            let batch_len = (end - i) as u64;
            let service_us = DISPATCH_OVERHEAD_US + PER_REQUEST_US * batch_len + engine_us;
            let completion = dispatch_at + service_us;
            for (j, r) in requests[i..end].iter().enumerate() {
                latencies[i + j] = completion - r.arrival_us;
            }
            self.cluster
                .journal()
                .record(EventKind::ServeBatchExecuted {
                    requests: batch_len,
                    queue_depth,
                    memo_lookups: self.memo.lookups() - memo_lookups0,
                    memo_hits: self.memo.hits() - memo_hits0,
                    service_us,
                });
            batches += 1;
            service_total += service_us;
            free_at = completion;
            last_completion = completion;
            i = end;
        }
        let digest = answers_digest(&answers);
        let elapsed_us = match requests.first() {
            Some(first) => last_completion.saturating_sub(first.arrival_us),
            None => 0,
        };
        Ok(ServeRunSummary {
            answers,
            latencies_us: latencies,
            batches,
            max_queue_depth,
            service_us: service_total,
            elapsed_us,
            digest,
        })
    }
}

/// Refuse a system that holds labelled pairs but no model: its last publish
/// failed, so it has no epoch to serve.
fn published(system: &DedupSystem) -> Result<()> {
    let epoch = system.epoch();
    let labelled = epoch.store.duplicate_count() + epoch.store.non_duplicate_count();
    if epoch.model.is_none() && labelled > 0 {
        return Err(SparkletError::User(
            "serve: the system's last publish failed, so no model matches its stores — \
             run the next detect_new (it republishes) before refreshing"
                .into(),
        ));
    }
    Ok(())
}

/// Order-stable content digest over a slice of answers: equal iff every
/// answer is bit-identical (scores and RORs compare as `f64::to_bits`).
/// Latencies and batching are deliberately excluded — the digest pins the
/// invariant that admission policy must never change results.
pub fn answers_digest(answers: &[ServeAnswer]) -> u64 {
    let mut enc: Vec<u64> = Vec::with_capacity(answers.len() * 4);
    for a in answers {
        match a {
            ServeAnswer::Duplicate {
                known_memberships,
                matches,
            } => {
                enc.push(1);
                enc.push(*known_memberships as u64);
                enc.push(matches.len() as u64);
                for m in matches {
                    enc.push(m.candidate);
                    enc.push(m.score.to_bits());
                    enc.push(m.is_duplicate as u64);
                }
            }
            ServeAnswer::Signal { raw, deduped } => {
                enc.push(2);
                for s in [raw, deduped] {
                    enc.extend([s.a, s.b, s.c, s.d, s.ror.to_bits()]);
                }
            }
        }
    }
    stable_hash(&enc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::pair_distance;
    use crate::system::DedupConfig;
    use adr_synth::{Dataset, SynthConfig};
    use sparklet::PairRdd;

    fn served_system(seed: u64) -> (DedupSystem, Dataset) {
        let ds = Dataset::generate(&SynthConfig::small(250, 15, seed));
        let config = DedupConfig {
            bootstrap_negatives: 400,
            use_blocking: true,
            knn: fastknn::FastKnnConfig {
                theta: 0.0,
                b: 8,
                ..fastknn::FastKnnConfig::default()
            },
            ..DedupConfig::default()
        };
        let mut sys = DedupSystem::new(Cluster::local(2), config);
        sys.bootstrap(&ds.reports, &ds.duplicate_pairs).unwrap();
        (sys, ds)
    }

    fn at(arrival_us: u64, query: ServeQuery) -> ServeRequest {
        ServeRequest { arrival_us, query }
    }

    /// Copies of `ds.reports[range]` arriving under fresh ids `base + i`.
    fn arrivals(ds: &Dataset, range: std::ops::Range<usize>, base: u64) -> Vec<AdrReport> {
        range
            .map(|i| {
                let mut r = ds.reports[i].clone();
                r.id = base + i as u64;
                r
            })
            .collect()
    }

    #[test]
    fn known_duplicate_member_short_circuits() {
        let (sys, ds) = served_system(1);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        let member = ds.duplicate_pairs[0].hi;
        let probe = ds.reports.iter().find(|r| r.id == member).unwrap().clone();
        let out = serve
            .run_open_loop(&[at(0, ServeQuery::Duplicate { report: probe })])
            .unwrap();
        match &out.answers[0] {
            ServeAnswer::Duplicate {
                known_memberships,
                matches,
            } => {
                assert!(*known_memberships > 0, "bootstrapped pair is known");
                assert!(matches.is_empty(), "short-circuit skips classification");
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn novel_probe_close_to_a_report_is_flagged() {
        let (sys, ds) = served_system(2);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        // A verbatim copy of a non-duplicate report under a fresh id: the
        // zero-distance candidate pair must classify as duplicate.
        let dup_members: HashSet<ReportId> = sys
            .store()
            .duplicate_pairs()
            .flat_map(|p| [p.lo, p.hi])
            .collect();
        let mut probe = ds
            .reports
            .iter()
            .find(|r| !dup_members.contains(&r.id))
            .unwrap()
            .clone();
        let original = probe.id;
        probe.id = 9_999_999;
        let out = serve
            .run_open_loop(&[at(0, ServeQuery::Duplicate { report: probe })])
            .unwrap();
        match &out.answers[0] {
            ServeAnswer::Duplicate {
                known_memberships,
                matches,
            } => {
                assert_eq!(*known_memberships, 0);
                let hit = matches
                    .iter()
                    .find(|m| m.candidate == original)
                    .expect("the copied report must be a candidate");
                assert!(hit.is_duplicate, "zero distance must classify positive");
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn signal_queries_show_ror_inflation_from_duplicates() {
        let (sys, _ds) = served_system(3);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        // Aggregate over many drug/event words: raw counts include every
        // duplicate copy, so raw `a` cells must dominate deduped ones.
        let mut raw_a = 0u64;
        let mut dedup_a = 0u64;
        let lex = adr_synth::lexicon::drug_names(10);
        for drug in lex.iter() {
            let word = drug.split_whitespace().next().unwrap().to_string();
            let out = serve
                .run_open_loop(&[at(
                    0,
                    ServeQuery::Signal {
                        drug: word,
                        event: "rash".into(),
                    },
                )])
                .unwrap();
            if let ServeAnswer::Signal { raw, deduped } = &out.answers[0] {
                raw_a += raw.a;
                dedup_a += deduped.a;
                assert!(raw.a >= deduped.a, "dedup can only remove reports");
                // The 2×2 table partitions the store it was counted over.
                let counted = serve.raw.reports;
                let excluded = serve.excluded_table.reports;
                assert_eq!(raw.a + raw.b + raw.c + raw.d, counted);
                assert_eq!(
                    deduped.a + deduped.b + deduped.c + deduped.d,
                    counted - excluded
                );
            }
        }
        assert!(raw_a >= dedup_a);
        assert!(
            serve.excluded_table.reports > 0,
            "the corpus plants duplicates"
        );
    }

    #[test]
    fn batching_policy_never_changes_results() {
        let (sys, ds) = served_system(4);
        let make_requests = || -> Vec<ServeRequest> {
            (0..40u64)
                .map(|i| {
                    if i % 3 == 0 {
                        at(
                            i * 100,
                            ServeQuery::Signal {
                                drug: "panadol".into(),
                                event: "nausea".into(),
                            },
                        )
                    } else {
                        let mut probe = ds.reports[(i as usize * 7) % 200].clone();
                        probe.id = 1_000_000 + i;
                        at(i * 100, ServeQuery::Duplicate { report: probe })
                    }
                })
                .collect()
        };
        let batched = ServeService::attach(&sys, ServeConfig::default())
            .unwrap()
            .run_open_loop(&make_requests())
            .unwrap();
        let single = ServeService::attach(&sys, ServeConfig { max_batch: 1 })
            .unwrap()
            .run_open_loop(&make_requests())
            .unwrap();
        assert_eq!(batched.answers, single.answers);
        assert_eq!(batched.digest, single.digest);
        assert!(single.batches == 40, "batch=1 dispatches per request");
        assert!(batched.batches <= single.batches);
    }

    #[test]
    fn a_lookup_launches_one_block_whatever_the_batch_and_leaves_no_shuffle() {
        let (sys, ds) = served_system(4);
        let cluster = sys.cluster().clone();
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        let probe = |i: u64| {
            let mut report = ds.reports[(i as usize * 7) % 200].clone();
            report.id = 1_000_000 + i;
            at(0, ServeQuery::Duplicate { report })
        };
        let shuffles = || {
            let s = cluster.shuffles();
            (s.shuffle_count(), s.resident_bytes(0), s.resident_bytes(1))
        };
        let before = shuffles();
        let passes = || sys.job_report().prune.passes;
        let mut jobs_of = |requests: &[ServeRequest]| {
            let jobs = cluster.metrics().jobs_submitted.get();
            let (shuffled, passed) = (cluster.metrics().shuffle_bytes_written.get(), passes());
            let out = serve.run_open_loop(requests).unwrap();
            assert_eq!(out.batches, 1, "all due at once: one micro-batch");
            assert_eq!(shuffles(), before, "a lookup leaves no shuffle behind");
            assert_eq!(cluster.metrics().shuffle_bytes_written.get(), shuffled);
            let stages = cluster.metrics().jobs_submitted.get() - jobs;
            assert_eq!(passes() - passed, stages, "one pruning pass per classify");
            (stages, out)
        };
        // One probe, and the largest batch the queue admits: one stage.
        let (jobs, one) = jobs_of(&[probe(1)]);
        assert_eq!(jobs, 1);
        assert!(
            matches!(&one.answers[0], ServeAnswer::Duplicate { matches, .. } if !matches.is_empty())
        );
        let full: Vec<ServeRequest> = (0..64).map(probe).collect();
        let (jobs, all) = jobs_of(&full);
        assert_eq!(jobs, 1);
        assert_eq!(all.answers[1], one.answers[0], "whatever shares the batch");
        // Signal queries and known members classify nothing: no stage.
        let known = ds.duplicate_pairs[0].hi;
        let member = ds.reports.iter().find(|r| r.id == known).unwrap().clone();
        let (jobs, _) = jobs_of(&[
            at(0, ServeQuery::Duplicate { report: member }),
            at(
                0,
                ServeQuery::Signal {
                    drug: "panadol".into(),
                    event: "nausea".into(),
                },
            ),
        ]);
        assert_eq!(jobs, 0);
        // The stream of `batching_policy_never_changes_results`, answered as
        // it was when every batch, of any size, ran four blocks of five
        // stages (the digest is that commit's).
        let stream: Vec<ServeRequest> = (0..40u64)
            .map(|i| {
                if i % 3 == 0 {
                    let (drug, event) = ("panadol".into(), "nausea".into());
                    at(i * 100, ServeQuery::Signal { drug, event })
                } else {
                    ServeRequest {
                        arrival_us: i * 100,
                        ..probe(i)
                    }
                }
            })
            .collect();
        let served = ServeService::attach(&sys, ServeConfig::default())
            .unwrap()
            .run_open_loop(&stream)
            .unwrap();
        assert_eq!(served.digest, 5961368362150543505);
    }

    #[test]
    fn served_matches_equal_the_per_row_route_probe_by_probe() {
        // The oracle for `classify_distinct` sharing one classification among
        // equal rows: every probe's candidate rows, rebuilt here and put
        // through the per-row `classify_blocks` on their own. One batch
        // holds every probe, one of them twice.
        for seed in [4, 11, 29] {
            let (sys, ds) = served_system(seed);
            let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
            let shared = sys
                .cluster()
                .metrics()
                .counter(fastknn::counters::ROWS_SHARED);
            assert_eq!(shared.get(), 0);
            let mut probes = arrivals(&ds, 0..30, 1_000_000);
            probes.push(probes[3].clone());
            let requests: Vec<ServeRequest> = probes
                .iter()
                .map(|report| {
                    let report = report.clone();
                    at(0, ServeQuery::Duplicate { report })
                })
                .collect();
            let out = serve.run_open_loop(&requests).unwrap();
            assert_eq!(out.batches, 1);
            assert!(shared.get() > 0, "seed {seed}: probes share vectors");

            let model = serve.epoch.model.clone().unwrap();
            assert!(
                model.voronoi().b() > 8,
                "seed {seed}: sibling cells, so tie slots"
            );
            let mut interner = serve.interner.clone();
            let expected: Vec<ServeAnswer> = probes
                .iter()
                .map(|report| {
                    let processed =
                        ProcessedReport::from_report(report, &serve.pipeline, &mut interner);
                    let mut rows = DistBatch::new();
                    let mut candidate_of = HashMap::new();
                    for cand in serve.epoch.blocking.probe_candidates(&processed) {
                        let id = stable_hash(&(report.id, cand));
                        rows.push(
                            id,
                            &pair_distance(&processed, &serve.epoch.corpus[&cand]),
                            false,
                        );
                        candidate_of.insert(id, cand);
                    }
                    assert!((1..=MAX_CANDIDATES).contains(&rows.len()));
                    let mut matches: Vec<DuplicateMatch> = model
                        .classify_blocks(&rows, 1)
                        .unwrap()
                        .iter()
                        .map(|s| DuplicateMatch {
                            candidate: candidate_of[&s.id],
                            score: s.score,
                            is_duplicate: s.positive,
                        })
                        .collect();
                    matches.sort_by_key(|m| m.candidate);
                    ServeAnswer::Duplicate {
                        known_memberships: 0,
                        matches,
                    }
                })
                .collect();
            assert_eq!(out.digest, answers_digest(&expected), "seed {seed}");
            assert_eq!(out.answers[30], out.answers[3], "the probe offered twice");
        }
    }

    /// What the contingency stores held before they were folded on the
    /// driver — a sparklet aggregation, one key per distinct drug token, per
    /// distinct ADR token and per (drug, ADR) combination of each report,
    /// summed per key across the cluster — kept as the reference the fold
    /// is checked against.
    fn aggregated(sys: &DedupSystem, ids: Vec<ReportId>) -> ContingencyTable {
        let mut table = ContingencyTable {
            reports: ids.len() as u64,
            ..ContingencyTable::default()
        };
        let corpus = std::sync::Arc::clone(&sys.epoch().corpus);
        let counts = sys
            .cluster()
            .parallelize(ids, 4)
            .flat_map(move |id| {
                let r = &corpus[&id];
                let mut keys = Vec::new();
                for &d in &r.drug_tokens {
                    keys.push((1u8, d, 0u32));
                    for &e in &r.adr_tokens {
                        keys.push((0u8, d, e));
                    }
                }
                for &e in &r.adr_tokens {
                    keys.push((2u8, e, 0u32));
                }
                keys
            })
            .map(|key| (key, 1u64))
            .reduce_by_key(|a, b| a + b, 4)
            .collect()
            .unwrap();
        for ((kind, x, y), n) in counts {
            match kind {
                0 => table.pair.insert((x, y), n),
                1 => table.drug.insert(x, n),
                _ => table.event.insert(x, n),
            };
        }
        table
    }

    /// The service's two tables equal the aggregation over the system's
    /// reports and over the reports the service says it excluded.
    fn assert_tables_match_the_aggregation(serve: &ServeService, sys: &DedupSystem) {
        let sorted = |ids: &HashSet<ReportId>| {
            let mut ids: Vec<ReportId> = ids.iter().copied().collect();
            ids.sort_unstable();
            ids
        };
        let mut counted = sys.arrival_order().to_vec();
        counted.sort_unstable();
        assert_eq!(serve.raw, aggregated(sys, counted));
        assert_eq!(
            serve.excluded_table,
            aggregated(sys, sorted(&serve.excluded))
        );
    }

    #[test]
    fn driver_side_fold_equals_the_aggregation_it_replaced() {
        let (mut sys, ds) = served_system(5);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        assert_eq!(serve.counted_len, 250);
        assert!(!serve.excluded.is_empty(), "the corpus plants duplicates");
        assert_tables_match_the_aggregation(&serve, &sys);
        // The incremental suffix: ten arrivals under fresh ids.
        sys.detect_new(&arrivals(&ds, 0..10, 2_000_000)).unwrap();
        serve.refresh(&sys).unwrap();
        assert_eq!(serve.counted_len, 260);
        assert_tables_match_the_aggregation(&serve, &sys);
        // A report under a counted id is refused, so the next refresh
        // folds nothing and the tables stay exact.
        let mut followup = ds.reports[20].clone();
        followup.id = 2_000_003;
        assert!(sys.detect_new(&[followup]).is_err());
        serve.refresh(&sys).unwrap();
        assert_eq!(serve.counted_len, 260, "same distinct reports");
        assert_eq!(serve.raw.reports, 260);
        assert_tables_match_the_aggregation(&serve, &sys);
    }

    /// Which of the model, the store, the blocking index and the corpus the
    /// service shares with the system by pointer.
    fn shares(serve: &ServeService, sys: &DedupSystem) -> [bool; 4] {
        let (mine, theirs) = (&serve.epoch, sys.epoch());
        let model = match (&mine.model, &theirs.model) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        [
            model,
            Arc::ptr_eq(&mine.store, &theirs.store),
            Arc::ptr_eq(&mine.blocking, &theirs.blocking),
            Arc::ptr_eq(&mine.corpus, &theirs.corpus),
        ]
    }

    /// The service holds the system's corpus, blocking index and tokens,
    /// in copies of its own or not.
    fn assert_replicates(serve: &ServeService, sys: &DedupSystem) {
        assert_eq!(*serve.epoch.corpus, *sys.epoch().corpus, "corpus");
        serve.epoch.blocking.assert_same_as(&sys.epoch().blocking);
        let tokens = sys.interner();
        assert_eq!(serve.interner.len(), tokens.len(), "tokens");
        for id in 0..tokens.len() as u32 {
            assert_eq!(serve.interner.resolve(id), tokens.resolve(id), "token {id}");
        }
    }

    #[test]
    fn refresh_shares_the_published_epoch_and_runs_no_job() {
        let (mut sys, ds) = served_system(7);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        assert_eq!(shares(&serve, &sys), [true; 4], "attach shares the epoch");
        sys.detect_new(&arrivals(&ds, 0..10, 3_000_000)).unwrap();
        let jobs = sys.cluster().metrics().jobs_submitted.get();
        serve.refresh(&sys).unwrap();
        assert_eq!(
            sys.cluster().metrics().jobs_submitted.get() - jobs,
            0,
            "a refresh submits no engine job"
        );
        // The model and the store by pointer; the corpus and the index are
        // the service's own, with the system's content.
        assert_eq!(shares(&serve, &sys), [true, true, false, false]);
        assert_replicates(&serve, &sys);

        let requests: Vec<ServeRequest> = (0..12u64)
            .map(|i| {
                let mut probe = ds.reports[(i as usize * 11) % 200].clone();
                probe.id = 4_000_000 + i;
                at(i * 100, ServeQuery::Duplicate { report: probe })
            })
            .chain([at(
                1_200,
                ServeQuery::Signal {
                    drug: "panadol".into(),
                    event: "rash".into(),
                },
            )])
            .collect();
        let before = serve.run_open_loop(&requests).unwrap();
        // The system moves on; the service's epoch does not move with it.
        let held = (serve.epoch.corpus.len(), serve.interner_mark);
        sys.detect_new(&arrivals(&ds, 0..10, 5_000_000)).unwrap();
        assert_eq!(shares(&serve, &sys), [false; 4]);
        assert_eq!((serve.epoch.corpus.len(), serve.interner_mark), held);
        let during = serve.run_open_loop(&requests).unwrap();
        assert_eq!(before.answers, during.answers);
        serve.refresh(&sys).unwrap();
        assert_eq!(shares(&serve, &sys), [true, true, false, false]);
        assert_replicates(&serve, &sys);
    }

    #[test]
    fn after_the_first_write_neither_side_copies_the_corpus_or_the_index() {
        let (mut sys, ds) = served_system(7);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        let ptrs = |epoch: &Epoch| (Arc::as_ptr(&epoch.corpus), Arc::as_ptr(&epoch.blocking));
        let attached = ptrs(&serve.epoch);
        // The first write after the attach copies what the service holds.
        sys.detect_new(&arrivals(&ds, 0..10, 3_000_000)).unwrap();
        let written = ptrs(sys.epoch());
        assert_ne!(written.0, attached.0, "the first write copies the corpus");
        assert_ne!(written.1, attached.1, "and the index");
        serve.refresh(&sys).unwrap();
        assert_eq!(ptrs(&serve.epoch), attached, "the refresh writes in place");
        for (round, base) in [(1, 4_000_000), (2, 5_000_000), (3, 6_000_000)] {
            sys.detect_new(&arrivals(&ds, 0..10, base)).unwrap();
            assert_eq!(ptrs(sys.epoch()), written, "write {round} copied");
            serve.refresh(&sys).unwrap();
            assert_eq!(ptrs(&serve.epoch), attached, "refresh {round} copied");
            assert_replicates(&serve, &sys);
        }
        assert_eq!(serve.counted_len, 290);
    }

    #[test]
    fn a_refresh_from_a_system_that_does_not_continue_the_followed_one_is_refused() {
        let (mut sys, ds) = served_system(9);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        sys.detect_new(&arrivals(&ds, 0..10, 2_000_000)).unwrap();
        serve.refresh(&sys).unwrap();
        let requests: Vec<ServeRequest> = arrivals(&ds, 20..30, 8_000_000)
            .into_iter()
            .map(|report| at(0, ServeQuery::Duplicate { report }))
            .chain([at(
                0,
                ServeQuery::Signal {
                    drug: "panadol".into(),
                    event: "rash".into(),
                },
            )])
            .collect();
        let answers = serve.run_open_loop(&requests).unwrap().digest;
        let state = |serve: &ServeService| {
            (
                (serve.counted_len, serve.last_counted, serve.positives_seen),
                (serve.interner_mark, serve.interner.len()),
                (Arc::as_ptr(&serve.epoch.store), serve.raw.reports),
            )
        };
        let before = state(&serve);

        // A system one batch behind the followed one: its arrivals are
        // shorter than what the service applied.
        let (behind, _) = served_system(9);
        // Another corpus under other ids: the last applied id differs.
        let (mut other_ids, other) = served_system(10);
        other_ids
            .detect_new(&arrivals(&other, 0..10, 3_000_000))
            .unwrap();
        // Another corpus under the same ids: the tokens differ.
        let (mut same_ids, other) = served_system(10);
        same_ids
            .detect_new(&arrivals(&other, 0..10, 2_000_000))
            .unwrap();
        let empty = DedupSystem::new(Cluster::local(2), DedupConfig::default());
        for (stranger, log) in [
            (&behind, "arrivals"),
            (&other_ids, "arrivals"),
            (&same_ids, "tokens"),
            (&empty, "arrivals"),
        ] {
            let err = serve.refresh(stranger).expect_err(log);
            assert!(
                matches!(&err, SparkletError::User(m) if m.contains(&format!("system's {log} do not"))),
                "{err}"
            );
            assert_eq!(state(&serve), before, "{log}: the service did not move");
        }
        assert_eq!(serve.run_open_loop(&requests).unwrap().digest, answers);
        // The followed system still refreshes it.
        sys.detect_new(&arrivals(&ds, 10..20, 2_000_000)).unwrap();
        serve.refresh(&sys).unwrap();
        assert_replicates(&serve, &sys);
    }

    #[test]
    fn a_service_ahead_of_a_recovered_system_is_refused_and_a_fresh_attach_serves() {
        use crate::ingest::{IngestConfig, IngestService};
        let rp = adr_synth::QuarterlyReplay::new(
            adr_synth::StreamingCorpus::new(SynthConfig::small(300, 15, 31)),
            60,
        );
        let dirs = ["reference", "killed"].map(|leg| {
            let dir = std::env::temp_dir()
                .join(format!("dedup-serve-follow-{leg}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let config = DedupConfig {
            bootstrap_negatives: 300,
            use_blocking: true,
            ..DedupConfig::default()
        };
        let open = |cluster, dir| IngestService::open(cluster, config, IngestConfig::new(dir), &rp);
        // A batch passes batch-start, the publish, then batch-detected:
        // armed there for batch 3, the run dies with batch 3 published in
        // memory and not checkpointed.
        let mut reference = open(Cluster::local(2), &dirs[0]).unwrap();
        reference.run(&rp, 3).unwrap();
        let points = reference.system().cluster().driver_points_passed();
        let mut cluster = sparklet::ClusterConfig::local(2);
        cluster.fault = sparklet::FaultConfig::disabled().kill_driver_at_point(points + 2);
        let open = |cluster| open(cluster, &dirs[1]);
        let mut killed = open(Cluster::new(cluster)).unwrap();
        killed.run(&rp, 3).unwrap();
        let mut serve = ServeService::attach(killed.system(), ServeConfig::default()).unwrap();
        let err = killed.run(&rp, 4).unwrap_err();
        assert!(err.is_driver_kill(), "{err}");
        assert_eq!(killed.system().report_count(), 240);
        serve.refresh(killed.system()).unwrap();
        drop(killed);

        // Recovery replays the checkpoint, which ends before batch 3.
        let mut recovered = open(Cluster::local(2)).unwrap();
        assert_eq!(recovered.system().report_count(), 180);
        let err = serve.refresh(recovered.system()).unwrap_err();
        assert!(
            matches!(&err, SparkletError::User(m) if m.contains("arrivals")),
            "{err}"
        );
        // A fresh attach serves the recovered system, and once batch 3 is
        // committed again it answers as the service that saw it first.
        let mut fresh = ServeService::attach(recovered.system(), ServeConfig::default()).unwrap();
        recovered.run(&rp, 4).unwrap();
        fresh.refresh(recovered.system()).unwrap();
        assert_replicates(&fresh, recovered.system());
        let requests: Vec<ServeRequest> = (0..20u64)
            .map(|i| {
                let mut report = rp.quarter_reports(i % 4)[(i as usize * 7) % 60].clone();
                report.id = 9_000_000 + i;
                at(i * 100, ServeQuery::Duplicate { report })
            })
            .collect();
        assert_eq!(
            fresh.run_open_loop(&requests).unwrap().answers,
            serve.run_open_loop(&requests).unwrap().answers
        );
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A followed service against a fresh attach, over random schedules of
    /// commits, rolled-back commits, refreshes and probe bursts.
    mod follows {
        use super::*;
        use adr_model::PairId;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Step {
            Commit,
            FailedCommit,
            Refresh,
            Probes,
        }

        /// Arrival batches of ten after a bootstrap of sixty.
        const BATCHES: usize = 10;

        /// Word `n` of a family no generated report carries.
        fn novel(n: usize) -> String {
            format!("zyx{}walgia", char::from(b'a' + n as u8))
        }

        /// Batch `i`: its first report's narrative brings word `i`, which a
        /// probe burst may have interned into the service first.
        fn batch(ds: &Dataset, i: usize) -> Vec<AdrReport> {
            let mut reports = ds.reports[60 + 10 * i..70 + 10 * i].to_vec();
            reports[0].reaction.report_description += &format!(" {}", novel(i));
            reports
        }

        /// Probes and signals that intern the words the next two batches
        /// bring, one of them as a drug word, beside known ones.
        fn burst(ds: &Dataset, next: usize) -> Vec<ServeRequest> {
            let mut requests: Vec<ServeRequest> = (0..6)
                .map(|i| {
                    let mut report = ds.reports[(next * 13 + i * 29) % ds.reports.len()].clone();
                    report.id = 5_000_000 + i as u64;
                    report.reaction.report_description +=
                        &format!(" {} then {}", novel(next + 1), novel(next));
                    at(i as u64 * 100, ServeQuery::Duplicate { report })
                })
                .collect();
            for (drug, event) in [(novel(next), "rash"), ("panadol".into(), "nausea")] {
                let event = event.into();
                requests.push(at(600, ServeQuery::Signal { drug, event }));
            }
            // A member of a known pair short-circuits.
            requests.push(at(
                700,
                ServeQuery::Duplicate {
                    report: ds.reports[0].clone(),
                },
            ));
            requests
        }

        proptest! {
            #[test]
            fn a_followed_service_answers_as_a_fresh_attach(
                seed in 0u64..1000,
                steps in prop::collection::vec(
                    prop::sample::select(vec![
                        Step::Commit,
                        Step::FailedCommit,
                        Step::Refresh,
                        Step::Probes,
                    ]),
                    0..12,
                ),
            ) {
                let ds = Dataset::generate(&SynthConfig::small(60 + 10 * BATCHES, 10, seed));
                let mut sys = DedupSystem::new(
                    Cluster::local(2),
                    DedupConfig {
                        bootstrap_negatives: 150,
                        use_blocking: seed % 2 == 0,
                        knn: fastknn::FastKnnConfig { b: 4, ..fastknn::FastKnnConfig::default() },
                        ..DedupConfig::default()
                    },
                );
                let labelled: Vec<PairId> =
                    ds.duplicate_pairs.iter().filter(|p| p.hi < 60).copied().collect();
                sys.bootstrap(&ds.reports[..60], &labelled).unwrap();
                let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
                let mut next = 0;
                // Every schedule ends in a refresh.
                for step in steps.into_iter().chain([Step::Refresh]) {
                    match step {
                        Step::Commit if next < BATCHES => {
                            sys.detect_new(&batch(&ds, next)).unwrap();
                            next += 1;
                        }
                        // The closing fit fails after the feedback, and the
                        // attempt rolls itself back.
                        Step::FailedCommit if next < BATCHES => {
                            let k = sys.config().knn.k;
                            sys.config_mut().knn.k = 0;
                            let failed = sys.detect_new(&batch(&ds, next));
                            prop_assert!(matches!(failed, Err(SparkletError::User(_))));
                            sys.config_mut().knn.k = k;
                        }
                        Step::Commit | Step::FailedCommit => {}
                        Step::Probes => {
                            serve.run_open_loop(&burst(&ds, next)).unwrap();
                        }
                        Step::Refresh => {
                            serve.refresh(&sys).unwrap();
                            assert_replicates(&serve, &sys);
                            let mut fresh = ServeService::attach(&sys, ServeConfig::default()).unwrap();
                            prop_assert_eq!(&serve.raw, &fresh.raw);
                            prop_assert_eq!(&serve.excluded, &fresh.excluded);
                            prop_assert_eq!(&serve.excluded_table, &fresh.excluded_table);
                            let requests = burst(&ds, next);
                            let followed = serve.run_open_loop(&requests).unwrap();
                            let attached = fresh.run_open_loop(&requests).unwrap();
                            prop_assert_eq!(followed.digest, attached.digest);
                            prop_assert_eq!(followed.answers, attached.answers);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_without_a_published_model_is_a_typed_error() {
        // The fault point inside the bootstrap's publish stands in for a
        // fit that fails: the stores fill, no model is published.
        let ds = Dataset::generate(&SynthConfig::small(250, 15, 8));
        let mut cluster = sparklet::ClusterConfig::local(2);
        cluster.fault = sparklet::FaultConfig::disabled().kill_driver_at_point(0);
        let mut sys = DedupSystem::new(
            Cluster::new(cluster),
            DedupConfig {
                bootstrap_negatives: 400,
                ..DedupConfig::default()
            },
        );
        let failed = sys.bootstrap(&ds.reports, &ds.duplicate_pairs);
        assert!(failed.is_err_and(|e| e.is_driver_kill()));
        assert!(sys.store().non_duplicate_count() > 0);
        let err = ServeService::attach(&sys, ServeConfig::default())
            .err()
            .expect("nothing to serve from");
        assert!(
            matches!(&err, SparkletError::User(m) if m.contains("publish")),
            "{err}"
        );
        // An empty system is not that case: it attaches, with no model yet.
        let empty = DedupSystem::new(Cluster::local(2), DedupConfig::default());
        let mut serve = ServeService::attach(&empty, ServeConfig::default()).unwrap();
        // The next batch republishes, and the refresh goes through — while
        // a refused one leaves the service on the epoch it had.
        assert!(serve.refresh(&sys).is_err());
        assert!(serve.epoch.model.is_none() && serve.counted_len == 0);
        sys.detect_new(&arrivals(&ds, 0..1, 6_000_000)).unwrap();
        serve.refresh(&sys).unwrap();
        assert!(serve.epoch.model.is_some());
        assert_eq!(serve.counted_len, 251);
    }

    #[test]
    fn refresh_is_incremental_and_purges_the_memo() {
        let (mut sys, ds) = served_system(5);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        let q = || {
            vec![at(
                0,
                ServeQuery::Signal {
                    drug: "panadol".into(),
                    event: "rash".into(),
                },
            )]
        };
        let before = serve.run_open_loop(&q()).unwrap();
        assert_eq!(serve.memo().len(), 1);
        let again = serve.run_open_loop(&q()).unwrap();
        assert_eq!(serve.memo().hits(), 1, "second ask hits the memo");
        assert_eq!(before.answers, again.answers);
        // Ingest more reports, refresh: the memo purges, counts grow.
        sys.detect_new(&arrivals(&ds, 0..10, 2_000_000)).unwrap();
        let counted_before = serve.raw.reports;
        serve.refresh(&sys).unwrap();
        assert!(serve.memo().is_empty(), "refresh purges the memo");
        assert_eq!(serve.raw.reports, counted_before + 10, "incremental count");
        let after = serve.run_open_loop(&q()).unwrap();
        if let (ServeAnswer::Signal { raw: b, .. }, ServeAnswer::Signal { raw: a, .. }) =
            (&before.answers[0], &after.answers[0])
        {
            assert!(a.a >= b.a, "counts only grow with more reports");
        }
    }

    #[test]
    fn deadline_bounds_queueing_delay_at_low_rate() {
        let (sys, _) = served_system(6);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        // Sparse arrivals (10ms apart): every request must dispatch well
        // before a full batch could form, so latency stays near the
        // service floor, far below the inter-arrival gap.
        let requests: Vec<ServeRequest> = (0..20u64)
            .map(|i| {
                at(
                    i * 10_000,
                    ServeQuery::Signal {
                        drug: "panadol".into(),
                        event: "rash".into(),
                    },
                )
            })
            .collect();
        let out = serve.run_open_loop(&requests).unwrap();
        for (i, &l) in out.latencies_us.iter().enumerate() {
            assert!(
                l <= DEADLINE_US + DISPATCH_OVERHEAD_US + 100 + PER_REQUEST_US,
                "request {i} waited {l}µs — deadline not honoured"
            );
        }
    }

    #[test]
    fn a_stream_out_of_arrival_order_is_a_user_error_before_any_answer() {
        let (sys, ds) = served_system(6);
        let mut serve = ServeService::attach(&sys, ServeConfig::default()).unwrap();
        let mut probe = ds.reports[0].clone();
        probe.id = 7_000_000;
        let signal = ServeQuery::Signal {
            drug: "panadol".into(),
            event: "rash".into(),
        };
        let requests = [
            at(0, signal.clone()),
            at(500, ServeQuery::Duplicate { report: probe }),
            at(400, signal),
        ];
        let jobs = sys.cluster().metrics().jobs_submitted.get();
        let err = serve.run_open_loop(&requests).expect_err("unsorted");
        assert!(
            matches!(&err, SparkletError::User(m) if m.contains("request 2 arrives before request 1")),
            "{err}"
        );
        assert_eq!(serve.memo().lookups(), 0, "nothing was answered");
        assert_eq!(sys.cluster().job_report().serve.batches, 0);
        assert_eq!(sys.cluster().metrics().jobs_submitted.get(), jobs);
    }
}
