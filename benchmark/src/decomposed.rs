//! `DedupSystem`'s state and its `detect_new` sequence rebuilt out of the
//! crates' *public* calls, with a span around each call.
//!
//! The real `detect_new` is one opaque call from outside; tracing inside
//! the program is a later issue. Until then the traced run performs the
//! same sequence itself — `ProcessedReport::from_report` →
//! `BlockingIndex::insert` / `candidate_pair_groups_counted` →
//! `DistanceMemo::split_known` → `pack_pairs` →
//! `pairwise_distance_batches` → `PairStore::training_pairs` →
//! `FastKnn::fit` → `classify_batch` → `PairStore::add` — and every
//! workload that uses it checks its detections against the real call's.

use crate::trace::Trace;
use adr_model::{AdrReport, PairId, ReportId};
use dedup::pairing::pairwise_distance_batches;
use dedup::{
    pack_pairs, BlockingIndex, CorpusIndex, DedupConfig, Detection, DistanceMemo, PairStore,
    ProcessedReport,
};
use fastknn::FastKnn;
use sparklet::{Cluster, Result};
use std::collections::HashMap;
use std::sync::Arc;
use textprep::{Pipeline, TokenInterner};

/// Counts taken at the span boundaries, so ratios are measured where the
/// work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub reports: u64,
    /// Distinct interned tokens kept over all processed reports.
    pub tokens: u64,
    /// Candidate pairs the blocking index surfaced.
    pub pairs_out: u64,
    /// Pairs that went through the distance job / were answered by the memo.
    pub pairs_computed: u64,
    pub memo_hits: u64,
    pub train_pairs: u64,
    pub test_pairs: u64,
}

/// The rebuilt system.
pub struct Decomposed {
    pub cluster: Cluster,
    config: DedupConfig,
    text: Pipeline,
    interner: TokenInterner,
    corpus: CorpusIndex,
    arrival: Vec<ReportId>,
    pub blocking: BlockingIndex,
    pub store: PairStore,
    memo: DistanceMemo,
    pub counts: Counts,
}

impl Decomposed {
    /// Ingest `reports` and adopt `store` — the labelled-pair store of a
    /// real system bootstrapped over the same reports. (Bootstrap draws
    /// its negatives from a private RNG, so the store is the one piece of
    /// state that cannot be rebuilt from outside.)
    pub fn seeded(
        cluster: Cluster,
        config: DedupConfig,
        reports: &[AdrReport],
        store: PairStore,
        trace: &mut Trace,
    ) -> Decomposed {
        fastknn::register_spill_codecs::<{ fastknn::PAIR_DIMS }>(cluster.spill());
        let mut d = Decomposed {
            cluster,
            config,
            text: Pipeline::paper(),
            interner: TokenInterner::new(),
            corpus: Arc::new(HashMap::new()),
            arrival: Vec::new(),
            blocking: BlockingIndex::default(),
            store,
            memo: DistanceMemo::with_capacity(config.memo_pairs),
            counts: Counts::default(),
        };
        d.add_reports(reports, trace);
        d
    }

    pub fn report_count(&self) -> usize {
        self.arrival.len()
    }

    /// `DedupSystem::add_report` over a batch: text processing, then the
    /// blocking insert, then the corpus snapshot. (The real call
    /// interleaves the three per report; interner and index are
    /// independent, so batching them per layer changes no id.)
    pub fn add_reports(&mut self, reports: &[AdrReport], trace: &mut Trace) {
        let open = trace.enter("textprep.process");
        let processed: Vec<ProcessedReport> = reports
            .iter()
            .map(|r| ProcessedReport::from_report(r, &self.text, &mut self.interner))
            .collect();
        trace.exit(open);
        self.counts.reports += processed.len() as u64;
        self.counts.tokens += processed
            .iter()
            .map(|p| (p.drug_tokens.len() + p.adr_tokens.len() + p.narrative_terms.len()) as u64)
            .sum::<u64>();

        let open = trace.enter("blocking.insert");
        for p in &processed {
            self.blocking.insert(p);
        }
        trace.exit(open);

        let open = trace.enter("system.corpus_insert");
        let corpus = Arc::make_mut(&mut self.corpus);
        for p in processed {
            if corpus.get(&p.id).is_some_and(|old| *old != p) {
                self.memo.purge_report(p.id);
            }
            self.arrival.push(p.id);
            corpus.insert(p.id, p);
        }
        trace.exit(open);
    }

    /// `DedupSystem::detect_new` on the blocked path, call by call.
    pub fn detect_new(
        &mut self,
        new_reports: &[AdrReport],
        trace: &mut Trace,
    ) -> Result<Vec<Detection>> {
        if new_reports.is_empty() {
            return Ok(Vec::new());
        }
        assert!(self.config.use_blocking, "only the blocked path is rebuilt");
        let detect = trace.enter("system.detect");
        self.add_reports(new_reports, trace);
        let new_ids: Vec<ReportId> = new_reports.iter().map(|r| r.id).collect();

        let (groups, _multi_key) = trace.span("blocking.candidates", || {
            self.blocking.candidate_pair_groups_counted(&new_ids)
        });
        self.counts.pairs_out += groups.iter().map(|g| g.len() as u64).sum::<u64>();

        let (unknown, known) = trace.span("pairing.memo_split", || self.memo.split_known(groups));
        self.counts.memo_hits += known.len() as u64;
        let partitions = trace.span("pairing.pack", || {
            pack_pairs(&self.corpus, unknown, self.config.pair_partitions)
        });
        let (mut pairs, mut vectors) = trace.span("pairing.distance", || {
            pairwise_distance_batches(&self.cluster, &self.corpus, partitions)
        })?;
        self.counts.pairs_computed += pairs.len() as u64;

        // From here to the fit is `system` self time: memo insert, the
        // by-pair-id sort and the column gather.
        for (row, pid) in pairs.iter().enumerate() {
            self.memo.insert(*pid, vectors.row(row));
        }
        for (pid, v) in known {
            pairs.push(pid);
            vectors.push(0, &v, false);
        }
        let mut idx: Vec<usize> = (0..pairs.len()).collect();
        idx.sort_unstable_by_key(|&i| (pairs[i], i));
        let pairs: Vec<PairId> = idx.iter().map(|&i| pairs[i]).collect();
        let mut vectors = vectors.gather(&idx);
        for (row, id) in vectors.ids_mut().iter_mut().enumerate() {
            *id = row as u64;
        }

        let train = trace.span("store.training_pairs", || self.store.training_pairs());
        self.counts.train_pairs += train.len() as u64;
        self.counts.test_pairs += pairs.len() as u64;
        let model = trace.span("fastknn.fit", || {
            FastKnn::fit(&self.cluster, &train, self.config.knn)
        })?;
        let scored = trace.span("fastknn.classify", || model.classify_batch(&vectors))?;

        let open = trace.enter("store.feedback");
        let mut detections: Vec<Detection> = scored
            .iter()
            .map(|s| {
                let row = s.id as usize;
                self.store.add(pairs[row], vectors.row(row), s.positive);
                Detection {
                    pair: pairs[row],
                    score: s.score,
                    is_duplicate: s.positive,
                }
            })
            .collect();
        trace.exit(open);
        detections.sort_by(|a, b| {
            b.is_duplicate.cmp(&a.is_duplicate).then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        trace.exit(detect);
        Ok(detections)
    }
}

/// Negatives `Decomposed::label_pairs` samples — its own draw, not the
/// private RNG `DedupSystem::bootstrap` uses, so the two stores agree in
/// size but not pair for pair.
fn sample_negatives(
    arrival: &[ReportId],
    dups: &std::collections::HashSet<PairId>,
    wanted: usize,
    seed: u64,
) -> Vec<PairId> {
    let n = arrival.len() as u64;
    let mut out: Vec<PairId> = Vec::with_capacity(wanted);
    let mut seen: std::collections::HashSet<PairId> = std::collections::HashSet::new();
    let mut draws = 0u64;
    while out.len() < wanted && n >= 2 && draws < 100 * wanted as u64 + 1000 {
        let a = crate::common::sub_seed(seed, 2 * draws) % n;
        let b = crate::common::sub_seed(seed, 2 * draws + 1) % n;
        draws += 1;
        if a == b {
            continue;
        }
        let pid = PairId::new(arrival[a as usize], arrival[b as usize]);
        if !dups.contains(&pid) && seen.insert(pid) {
            out.push(pid);
        }
    }
    out
}

impl Decomposed {
    /// The labelling half of `DedupSystem::bootstrap`: distances for every
    /// known duplicate pair plus `negatives` sampled non-duplicates, all
    /// stored as labelled pairs.
    pub fn label_pairs(
        &mut self,
        duplicates: &[PairId],
        negatives: usize,
        seed: u64,
        trace: &mut Trace,
    ) -> Result<()> {
        let dup_set: std::collections::HashSet<PairId> = duplicates.iter().copied().collect();
        let mut wanted = duplicates.to_vec();
        wanted.extend(sample_negatives(&self.arrival, &dup_set, negatives, seed));
        self.counts.pairs_computed += wanted.len() as u64;
        let distances = trace.span("pairing.distance", || {
            dedup::pairwise_distances(
                &self.cluster,
                &self.corpus,
                wanted,
                self.config.pair_partitions,
            )
        })?;
        let open = trace.enter("store.feedback");
        for (pid, vector) in distances {
            self.store.add(pid, vector, dup_set.contains(&pid));
        }
        trace.exit(open);
        Ok(())
    }

    /// Fill the layer metrics the spans and counts of this pipeline give.
    /// `system.*` is left to the caller (it needs the untraced call too).
    pub fn fill_layer_metrics(&self, trace: &Trace, metrics: &mut crate::metrics::MetricSet) {
        let c = &self.counts;
        let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
        let text_ms = trace.total_ms("textprep.process");
        metrics.set("textprep.wall_ms", text_ms);
        metrics.set("textprep.us_per_report", per(text_ms * 1e3, c.reports));
        metrics.set("textprep.reports", c.reports as f64);
        metrics.set("textprep.tokens", c.tokens as f64);

        metrics.set("blocking.insert_wall_ms", trace.total_ms("blocking.insert"));
        metrics.set(
            "blocking.candidates_wall_ms",
            trace.total_ms("blocking.candidates"),
        );
        metrics.set("blocking.pairs_out", c.pairs_out as f64);
        metrics.set("blocking.blocks", self.blocking.block_count() as f64);

        // Memo split and LPT packing are both driver-side preparation of
        // the distance job inside `dedup::pairing`.
        metrics.set(
            "pairing.pack_wall_ms",
            trace.total_ms("pairing.pack") + trace.total_ms("pairing.memo_split"),
        );
        let distance_ms = trace.total_ms("pairing.distance");
        metrics.set("pairing.distance_wall_ms", distance_ms);
        metrics.set("pairing.pairs", c.pairs_computed as f64);
        metrics.set(
            "pairing.ns_per_pair",
            per(distance_ms * 1e6, c.pairs_computed),
        );
        metrics.set("pairing.memo_hits", c.memo_hits as f64);

        let classify_ms = trace.total_ms("fastknn.classify");
        metrics.set("fastknn.fit_wall_ms", trace.total_ms("fastknn.fit"));
        metrics.set("fastknn.classify_wall_ms", classify_ms);
        metrics.set("fastknn.train_pairs", c.train_pairs as f64);
        metrics.set("fastknn.test_pairs", c.test_pairs as f64);
        metrics.set(
            "fastknn.ns_per_test_pair",
            per(classify_ms * 1e6, c.test_pairs),
        );
        let prune = self.cluster.job_report().prune;
        metrics.set("fastknn.evals_done", prune.evals_done as f64);
        metrics.set("fastknn.evals_avoided", prune.evals_avoided as f64);
        metrics.set(
            "fastknn.avoided_share",
            per(
                prune.evals_avoided as f64,
                prune.evals_done + prune.evals_avoided,
            ),
        );

        metrics.set(
            "store.training_pairs_wall_ms",
            trace.total_ms("store.training_pairs"),
        );
        metrics.set("store.feedback_wall_ms", trace.total_ms("store.feedback"));
        metrics.set("store.duplicates", self.store.duplicate_count() as f64);
        metrics.set(
            "store.non_duplicates",
            self.store.non_duplicate_count() as f64,
        );
    }

    /// Snapshot the store and restore it again, each as a span; checks the
    /// round trip and returns the snapshot size in bytes.
    pub fn snapshot_round_trip(&self, trace: &mut Trace) -> std::result::Result<usize, String> {
        let snapshot = trace.span("store.snapshot", || self.store.snapshot());
        let restored = trace.span("store.restore", || PairStore::restore(&snapshot))?;
        if restored.snapshot() != snapshot {
            return Err("restored store snapshots differently".into());
        }
        Ok(snapshot.len())
    }
}
