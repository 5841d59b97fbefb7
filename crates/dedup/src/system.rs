//! The orchestrated duplicate-detection service (Fig. 1 end-to-end).

use crate::blocking::{BlockingIndex, BlockingMark};
use crate::distance::process_reports;
use crate::pairing::{
    contiguous_partitions, pairs_involving_new, pairwise_distance_batches, CorpusIndex,
};
use crate::store::PairStore;
use adr_model::{AdrReport, PairId, ReportId};
use fastknn::{FastKnn, FastKnnConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklet::{Cluster, Result, SparkletError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use textprep::{Pipeline, TokenInterner};

/// Configuration of the duplicate-detection system.
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Fast kNN hyper-parameters (k, b, c, θ).
    pub knn: FastKnnConfig,
    /// Capacity of the non-duplicate pair store.
    pub max_negative_store: usize,
    /// Non-duplicate pairs sampled when bootstrapping from a labelled
    /// corpus (the initial expert-labelled negatives of Fig. 1).
    pub bootstrap_negatives: usize,
    /// Partitions for the pairwise-distance job.
    pub pair_partitions: usize,
    /// Seed for negative sampling.
    pub seed: u64,
    /// Generate candidate pairs through the blocking index instead of §3's
    /// exhaustive new-vs-all comparison. Blocking skips pairs sharing no
    /// drug token and no onset date — a large reduction at a small
    /// pair-completeness cost (see [`crate::blocking`]). `false` is the
    /// paper-faithful default.
    pub use_blocking: bool,
    /// Capacity (in pairs) of a [`DistanceMemo`](crate::DistanceMemo). The
    /// system itself keeps no memo — every candidate pair contains a report
    /// that has just arrived, so no workload ever hit one (DESIGN.md
    /// "Retired baselines"). The field stays because the frozen wall-clock
    /// benchmark's `decomposed.rs` sizes its memo from it, and because the
    /// ingest config digest prints it.
    pub memo_pairs: usize,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            knn: FastKnnConfig::default(),
            max_negative_store: 20_000,
            bootstrap_negatives: 2_000,
            pair_partitions: 8,
            seed: 2016,
            use_blocking: false,
            memo_pairs: 1 << 18,
        }
    }
}

/// One detected (or rejected) candidate pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The report pair.
    pub pair: PairId,
    /// Eq. 5 score.
    pub score: f64,
    /// Eq. 6 decision at the configured θ.
    pub is_duplicate: bool,
}

/// What one commit of the system publishes: the classifier and the three
/// snapshots it was fitted beside, each behind an `Arc`. Cloning an epoch
/// clones four pointers. A holder — the serving layer between refreshes —
/// reads a state that can no longer change: the system writes through
/// [`Arc::make_mut`], which copies a snapshot on the first write of the
/// next batch only while somebody still holds it, and writes in place
/// otherwise. That copy is snapshot isolation for the holder, not a means
/// of rollback: a [`BatchGuard`] holds the model and the store only, and
/// undoes the corpus and the blocking index by removing what the attempt
/// added.
#[derive(Clone)]
pub(crate) struct Epoch {
    /// Fitted on exactly the training pairs of `store`; `None` iff the
    /// store is empty or the last publish failed.
    pub(crate) model: Option<Arc<FastKnn>>,
    /// The labelled-pair stores.
    pub(crate) store: Arc<PairStore>,
    pub(crate) blocking: Arc<BlockingIndex>,
    /// The processed reports; distance jobs share this `Arc` too, and drop
    /// their reference on completion.
    pub(crate) corpus: CorpusIndex,
}

/// The duplicate-detection system: a report database, the two labelled-pair
/// stores, and a Fast kNN classifier refitted from the stores once per
/// commit and shared by detection, ingest and serving.
pub struct DedupSystem {
    cluster: Cluster,
    config: DedupConfig,
    pipeline: Pipeline,
    /// System-wide token interner: every report ever ingested interns into
    /// this one table, so id sets stay comparable across batches.
    interner: TokenInterner,
    epoch: Epoch,
    arrival_order: Vec<ReportId>,
    rng: StdRng,
}

impl DedupSystem {
    /// Create an empty system bound to an engine cluster.
    pub fn new(cluster: Cluster, config: DedupConfig) -> Self {
        DedupSystem {
            epoch: Epoch {
                model: None,
                store: Arc::new(PairStore::new(config.max_negative_store, config.seed)),
                blocking: Arc::default(),
                corpus: Arc::new(HashMap::new()),
            },
            rng: StdRng::seed_from_u64(config.seed ^ 0xD5DA),
            pipeline: Pipeline::paper(),
            interner: TokenInterner::new(),
            arrival_order: Vec::new(),
            cluster,
            config,
        }
    }

    /// Number of reports in the database.
    pub fn report_count(&self) -> usize {
        self.arrival_order.len()
    }

    /// The labelled-pair stores.
    pub fn store(&self) -> &PairStore {
        &self.epoch.store
    }

    /// The engine cluster the system runs on (metrics, journal, clock).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Run report of everything this system has executed on its cluster —
    /// the Fig. 1 loop's stage timeline, retries, shuffle and cache stats.
    pub fn job_report(&self) -> sparklet::JobReport {
        self.cluster.job_report()
    }

    /// Ingest an expert-labelled corpus: add all reports, store every known
    /// duplicate pair as a positive, sample
    /// [`DedupConfig::bootstrap_negatives`] random non-duplicate pairs as
    /// the initial negative store, and publish the first model.
    ///
    /// A batch holding a report id the database already has, or one id
    /// twice, is a [`SparkletError::User`], returned before anything is
    /// touched. Any other failure but a driver kill is rolled back (see
    /// [`DedupSystem::detect_new`]), so the same call can be retried.
    pub fn bootstrap(
        &mut self,
        reports: &[AdrReport],
        labelled_duplicates: &[PairId],
    ) -> Result<()> {
        self.check_new_ids("bootstrap", reports)?;
        self.attempt(|sys| sys.bootstrap_batch(reports, labelled_duplicates))
    }

    /// [`DedupSystem::bootstrap`] after its checks, with no rollback.
    fn bootstrap_batch(
        &mut self,
        reports: &[AdrReport],
        labelled_duplicates: &[PairId],
    ) -> Result<()> {
        self.add_reports(reports);
        let dup_set: HashSet<PairId> = labelled_duplicates.iter().copied().collect();
        // Acceptance order lives in `wanted`; membership in `sampled`, so a
        // rejection test is O(1) rather than a scan of everything drawn.
        let mut wanted: Vec<PairId> = labelled_duplicates.to_vec();
        let mut sampled: HashSet<PairId> = HashSet::new();
        let n = self.arrival_order.len() as u64;
        let mut guard = 0;
        while wanted.len() < labelled_duplicates.len() + self.config.bootstrap_negatives {
            guard += 1;
            if guard > 100 * self.config.bootstrap_negatives + 1000 {
                break; // tiny corpora cannot yield enough distinct pairs
            }
            // Draw arrival *indices* and map them to report ids: streaming
            // corpora ingest non-contiguous ids (duplicates carry tail
            // ids), so `0..n` is not the id space. For a corpus whose ids
            // are contiguous arrival order this maps through the identity
            // and reproduces the historical draw sequence exactly.
            let a = self.rng.gen_range(0..n);
            let b = self.rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let pid = PairId::new(
                self.arrival_order[a as usize],
                self.arrival_order[b as usize],
            );
            if dup_set.contains(&pid) || !sampled.insert(pid) {
                continue;
            }
            wanted.push(pid);
        }
        let (pairs, vectors) = pairwise_distance_batches(
            &self.cluster,
            &self.epoch.corpus,
            contiguous_partitions(wanted, self.config.pair_partitions),
        )?;
        let store = Arc::make_mut(&mut self.epoch.store);
        for (row, pid) in pairs.into_iter().enumerate() {
            store.add(pid, vectors.row(row), dup_set.contains(&pid));
        }
        self.publish()
    }

    /// End a commit: fit the classifier on the store as it now stands and
    /// make it the epoch's model — the one fit per commit, which the next
    /// [`detect_new`](DedupSystem::detect_new) classifies with and the
    /// serving layer shares. The model is cleared first, so a fit that
    /// fails leaves no model rather than one that does not match the store.
    fn publish(&mut self) -> Result<()> {
        self.epoch.model = None;
        let train = self.epoch.store.training_pairs();
        if train.is_empty() {
            return Ok(());
        }
        self.cluster.driver_fault_point("publish")?;
        let model = FastKnn::fit(&self.cluster, &train, self.config.knn)?;
        self.epoch.model = Some(Arc::new(model));
        Ok(())
    }

    /// Refuse a batch that holds an id already in the database, or one id
    /// twice: its report would overwrite a stored one, count twice in
    /// [`DedupSystem::report_count`], and leave a state that removing the
    /// batch's arrivals could not roll back.
    fn check_new_ids(&self, call: &str, reports: &[AdrReport]) -> Result<()> {
        let refuse = |id: ReportId, why: &str| {
            Err(SparkletError::User(format!("{call}: report {id} {why}")))
        };
        if let Some(r) = reports
            .iter()
            .find(|r| self.epoch.corpus.contains_key(&r.id))
        {
            return refuse(r.id, "is already in the database");
        }
        let mut ids: Vec<ReportId> = reports.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        match ids.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => refuse(w[0], "arrives twice in one batch"),
            None => Ok(()),
        }
    }

    /// Add a batch of arrivals to the database: text processing on every
    /// engine slot ([`process_reports`]), then, report by report in arrival
    /// order, the blocking index, the corpus and the arrival log. Token ids
    /// and everything else come out as if each report were processed and
    /// inserted in turn on this thread. Not a sparklet job: the reports are
    /// borrowed, a job would shift the job ids fault schedules are drawn
    /// from, and text processing charges no virtual time.
    pub(crate) fn add_reports(&mut self, reports: &[AdrReport]) {
        let cluster = self.cluster.config();
        let slots = (cluster.num_executors * cluster.cores_per_executor)
            .min(sparklet::ClusterConfig::MAX_WORKER_THREADS);
        // Mutating shared snapshots: `make_mut` copies one only while a
        // serving layer still holds the previous epoch (see [`Epoch`]), so
        // a batch of inserts costs at most one copy of each.
        let corpus = Arc::make_mut(&mut self.epoch.corpus);
        let blocking = Arc::make_mut(&mut self.epoch.blocking);
        let arrival_order = &mut self.arrival_order;
        corpus.reserve(reports.len());
        arrival_order.reserve(reports.len());
        process_reports(reports, &self.pipeline, &mut self.interner, slots, |p| {
            blocking.insert(&p);
            arrival_order.push(p.id);
            corpus.insert(p.id, p);
        });
    }

    /// Process a batch of newly arrived reports (§3): compare them against
    /// the whole database and each other, classify every candidate pair
    /// with the model the previous commit published, feed the decisions
    /// back into the stores, add the reports to the database, and publish
    /// the model of the stores as they now stand. Returns all candidate
    /// decisions in a total order: duplicates first, then by score
    /// descending, then in candidate order — pair ascending with
    /// [`DedupConfig::use_blocking`], else each new report against the
    /// database in arrival order, then the pairs among the new reports.
    ///
    /// A system whose stores are empty (never bootstrapped) has nothing to
    /// classify against, and a batch holding a report id the database
    /// already has, or one id twice, cannot be added to it: each is a
    /// [`SparkletError::User`], returned before anything is touched. A
    /// failure after the batch is added (the distance job, the
    /// classification or the closing fit) is rolled back: the batch's
    /// reports leave the database, and the model, the store, the interner
    /// and the RNG return to where the call found them, so the same batch
    /// can be retried and gets what a clean first try would. A driver kill
    /// is not rolled back: it stands for the death of the process, and
    /// recovery starts from a checkpoint (see [`crate::ingest`]).
    pub fn detect_new(&mut self, new_reports: &[AdrReport]) -> Result<Vec<Detection>> {
        if new_reports.is_empty() {
            return Ok(Vec::new());
        }
        self.check_new_ids("detect_new", new_reports)?;
        self.attempt(|sys| sys.detect_batch(new_reports))
    }

    /// [`DedupSystem::detect_new`] after its checks, with no rollback.
    fn detect_batch(&mut self, new_reports: &[AdrReport]) -> Result<Vec<Detection>> {
        if self.epoch.model.is_none() {
            // The last publish failed (or nothing was ever stored).
            self.publish()?;
        }
        let model = self.epoch.model.clone().ok_or_else(|| {
            SparkletError::User(
                "detect_new: the labelled stores are empty — bootstrap the system first".into(),
            )
        })?;
        let existing = self.arrival_order.len();
        self.add_reports(new_reports);
        let new_ids: Vec<ReportId> = new_reports.iter().map(|r| r.id).collect();
        // One distance route for both candidate lists: even contiguous runs,
        // which the morsel scheduler balances however many pairs of a hot
        // drug block one run holds. The job hands back one column batch in
        // candidate order with row ids `0..n` (row `i` is the vector of
        // `pairs[i]`), ready for the classifier's tiled kernels; blocked
        // candidates are strictly increasing, so their rows are in pair
        // order.
        let candidates = if self.config.use_blocking {
            self.epoch.blocking.candidate_pairs(&new_ids)
        } else {
            pairs_involving_new(&new_ids, &self.arrival_order[..existing])
        };
        let (pairs, vectors) = pairwise_distance_batches(
            &self.cluster,
            &self.epoch.corpus,
            contiguous_partitions(candidates, self.config.pair_partitions),
        )?;

        let scored = model.classify_distinct(&vectors)?;

        let store = Arc::make_mut(&mut self.epoch.store);
        let mut detections: Vec<Detection> = scored
            .iter()
            .map(|s| {
                let row = s.id as usize;
                let pid = pairs[row];
                // Feedback: the classified pair joins the labelled stores
                // (Fig. 1's dashed line).
                store.add(pid, vectors.row(row), s.positive);
                Detection {
                    pair: pid,
                    score: s.score,
                    is_duplicate: s.positive,
                }
            })
            .collect();
        // A total order: duplicates first, then score descending under
        // `total_cmp`, then candidate row ascending — `scored` is in row
        // order and the sort is stable. Identical vectors tie on score by
        // the thousand, so the tiebreak is stated: on the blocked path rows
        // are in pair order; on the exhaustive path in §3's enumeration
        // order, which the pinned digests hold this to.
        detections.sort_by(|a, b| {
            b.is_duplicate
                .cmp(&a.is_duplicate)
                .then(b.score.total_cmp(&a.score))
        });
        self.publish()?;
        Ok(detections)
    }

    /// Run one [`detect_new`](DedupSystem::detect_new) or
    /// [`bootstrap`](DedupSystem::bootstrap) attempt under a
    /// [`BatchGuard`], and roll it back if it fails with anything but a
    /// driver kill.
    fn attempt<T>(&mut self, run: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let guard = self.begin_batch();
        let result = run(self);
        if result.as_ref().is_err_and(|e| !e.is_driver_kill()) {
            self.rollback_batch(guard);
        }
        result
    }

    /// Hold on to the state an attempt touches, so a failed one can be
    /// rolled back and retried as if it never ran: the model and the store
    /// by pointer, and marks of the arrival order, the blocking index, the
    /// interner and the RNG. Nothing is copied here. The attempt's first
    /// write to the store copies it, a copy bounded by
    /// [`DedupConfig::max_negative_store`]; the corpus and the blocking
    /// index, which grow with the database, are written in place.
    fn begin_batch(&self) -> BatchGuard {
        BatchGuard {
            model: self.epoch.model.clone(),
            store: Arc::clone(&self.epoch.store),
            blocking: self.epoch.blocking.mark(),
            arrival_len: self.arrival_order.len(),
            interner_mark: self.interner.mark(),
            rng: self.rng.clone(),
        }
    }

    /// Undo everything since the matching
    /// [`begin_batch`](DedupSystem::begin_batch): the attempt's arrivals
    /// leave the corpus and the blocking index, the model and the store
    /// swap back (no refit), and arrival order, interner ids and the
    /// negative-sampling RNG return to their marks, so a retry re-assigns
    /// the exact same dense ids and draws the attempt would have gotten on
    /// a clean first try. An attempt adds only ids new to the database
    /// (see [`DedupSystem::detect_new`]), so removing them restores the
    /// corpus exactly.
    fn rollback_batch(&mut self, guard: BatchGuard) {
        // An attempt that added nothing leaves the snapshots alone: a
        // `make_mut` would copy one that a serving layer still holds.
        if self.arrival_order.len() > guard.arrival_len {
            let corpus = Arc::make_mut(&mut self.epoch.corpus);
            for id in self.arrival_order.drain(guard.arrival_len..) {
                corpus.remove(&id);
            }
        }
        if self.epoch.blocking.mark() != guard.blocking {
            Arc::make_mut(&mut self.epoch.blocking).truncate(guard.blocking);
        }
        self.epoch.model = guard.model;
        self.epoch.store = guard.store;
        self.interner.truncate(guard.interner_mark);
        self.rng = guard.rng;
    }

    /// Replace the labelled-pair stores with a snapshot-restored instance
    /// and publish their model (checkpoint recovery; see [`crate::ingest`]).
    pub(crate) fn restore_store(&mut self, store: PairStore) -> Result<()> {
        self.epoch.store = Arc::new(store);
        self.publish()
    }

    /// The store's state is durable: its next delta starts here.
    pub(crate) fn mark_store_checkpointed(&mut self) {
        Arc::make_mut(&mut self.epoch.store).mark_checkpointed();
    }

    /// Distinct tokens interned so far — a cheap cross-check that a
    /// recovery replay reconstructed the exact ingest state.
    pub(crate) fn interner_len(&self) -> usize {
        self.interner.len()
    }

    /// The system configuration.
    pub fn config(&self) -> &DedupConfig {
        &self.config
    }

    // Read-only views the serving layer takes at refresh time (see
    // [`crate::serve`]). Serve never mutates the system — it shares the
    // epoch and copies the interner — so ingest and serve interleave
    // without interference.

    pub(crate) fn epoch(&self) -> &Epoch {
        &self.epoch
    }

    pub(crate) fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    pub(crate) fn interner(&self) -> &TokenInterner {
        &self.interner
    }

    pub(crate) fn arrival_order(&self) -> &[ReportId] {
        &self.arrival_order
    }
}

/// What [`DedupSystem::rollback_batch`] needs to undo an attempt: the
/// pre-attempt model and store by pointer, and marks of everything else;
/// see [`DedupSystem::begin_batch`].
struct BatchGuard {
    model: Option<Arc<FastKnn>>,
    store: Arc<PairStore>,
    blocking: BlockingMark,
    arrival_len: usize,
    interner_mark: usize,
    rng: StdRng,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_synth::{Dataset, SynthConfig};
    use sparklet::{ClusterConfig, FaultConfig};

    fn system_with_corpus(seed: u64) -> (DedupSystem, Dataset) {
        let ds = Dataset::generate(&SynthConfig::small(250, 15, seed));
        let cluster = Cluster::local(2);
        let config = DedupConfig {
            bootstrap_negatives: 400,
            knn: fastknn::FastKnnConfig {
                theta: 0.0,
                b: 8,
                ..fastknn::FastKnnConfig::default()
            },
            ..DedupConfig::default()
        };
        let sys = DedupSystem::new(cluster, config);
        (sys, ds)
    }

    #[test]
    fn bootstrap_fills_the_stores() {
        let (mut sys, ds) = system_with_corpus(1);
        sys.bootstrap(&ds.reports, &ds.duplicate_pairs).unwrap();
        assert_eq!(sys.report_count(), 250);
        assert_eq!(sys.store().duplicate_count(), 15);
        assert!(sys.store().non_duplicate_count() >= 300);
    }

    #[test]
    fn bootstrap_is_the_same_on_every_engine_size() {
        // Big enough that every cluster below splits text processing into
        // one chunk per slot.
        let ds = Dataset::generate(&SynthConfig::small(8_400, 400, 21));
        let (batch, arrivals) = ds.reports.split_at(8_380);
        let labelled: Vec<PairId> = ds
            .duplicate_pairs
            .iter()
            .filter(|p| p.hi < 8_380)
            .copied()
            .collect();
        let run = |parallelism: usize| {
            let mut sys = DedupSystem::new(
                Cluster::local(parallelism),
                DedupConfig {
                    bootstrap_negatives: 400,
                    use_blocking: true,
                    ..DedupConfig::default()
                },
            );
            sys.bootstrap(batch, &labelled).unwrap();
            let detections = sys.detect_new(arrivals).unwrap();
            (sys, detections)
        };
        let (serial, serial_detections) = run(1);
        assert_eq!(serial.report_count(), 8_380 + 20);
        for parallelism in [2, 3, 8] {
            let (sys, detections) = run(parallelism);
            assert_eq!(sys.arrival_order, serial.arrival_order);
            assert_eq!(sys.epoch.corpus, serial.epoch.corpus, "{parallelism}");
            assert_eq!(sys.interner_len(), serial.interner_len());
            for id in 0..serial.interner_len() as u32 {
                assert_eq!(sys.interner.resolve(id), serial.interner.resolve(id));
            }
            assert_eq!(sys.store().snapshot(), serial.store().snapshot());
            assert_eq!(detections, serial_detections, "{parallelism}");
        }
    }

    #[test]
    fn bootstrap_store_snapshot_is_pinned() {
        // Captured before negative sampling tracked membership in a set: the
        // RNG draw sequence and acceptance order must not move.
        let (mut sys, ds) = system_with_corpus(1);
        sys.bootstrap(&ds.reports, &ds.duplicate_pairs).unwrap();
        let snapshot = sys.store().snapshot();
        assert_eq!(snapshot.len(), 59_508);
        assert_eq!(sparklet::stable_hash(&snapshot), 10515812461782158190);
    }

    #[test]
    fn detects_an_injected_duplicate_of_a_known_report() {
        let (mut sys, ds) = system_with_corpus(2);
        // Bootstrap on everything except the last 5 duplicate partners.
        let held_out: Vec<u64> = ds
            .duplicate_pairs
            .iter()
            .rev()
            .take(5)
            .map(|p| p.hi)
            .collect();
        let base: Vec<AdrReport> = ds
            .reports
            .iter()
            .filter(|r| !held_out.contains(&r.id))
            .cloned()
            .collect();
        let labelled: Vec<PairId> = ds
            .duplicate_pairs
            .iter()
            .filter(|p| !held_out.contains(&p.hi))
            .copied()
            .collect();
        sys.bootstrap(&base, &labelled).unwrap();

        let new_reports: Vec<AdrReport> = ds
            .reports
            .iter()
            .filter(|r| held_out.contains(&r.id))
            .cloned()
            .collect();
        let detections = sys.detect_new(&new_reports).unwrap();
        assert!(!detections.is_empty());
        let truth = ds.duplicate_set();
        let found = detections
            .iter()
            .filter(|d| d.is_duplicate && truth.contains(&d.pair))
            .count();
        // ~30% of injected duplicates are divergent follow-ups that are
        // intentionally near-undetectable; the detectable majority must be
        // found.
        assert!(
            found >= 2,
            "should find the detectable held-out duplicates, found {found}/5"
        );
        // Feedback grew the stores.
        assert!(sys.store().duplicate_count() >= labelled.len() + found);
    }

    #[test]
    fn blocking_mode_checks_fewer_pairs_but_still_detects() {
        let (mut sys_full, ds) = system_with_corpus(2);
        let (mut sys_blocked, _) = system_with_corpus(2);
        sys_blocked.config.use_blocking = true;

        let held_out: Vec<u64> = ds
            .duplicate_pairs
            .iter()
            .rev()
            .take(5)
            .map(|p| p.hi)
            .collect();
        let base: Vec<AdrReport> = ds
            .reports
            .iter()
            .filter(|r| !held_out.contains(&r.id))
            .cloned()
            .collect();
        let labelled: Vec<PairId> = ds
            .duplicate_pairs
            .iter()
            .filter(|p| !held_out.contains(&p.hi))
            .copied()
            .collect();
        let new_reports: Vec<AdrReport> = ds
            .reports
            .iter()
            .filter(|r| held_out.contains(&r.id))
            .cloned()
            .collect();

        sys_full.bootstrap(&base, &labelled).unwrap();
        sys_blocked.bootstrap(&base, &labelled).unwrap();
        let full = sys_full.detect_new(&new_reports).unwrap();
        let blocked = sys_blocked.detect_new(&new_reports).unwrap();
        assert!(
            blocked.len() < full.len() / 2,
            "blocking must prune the candidate stream: {} vs {}",
            blocked.len(),
            full.len()
        );
        let truth = ds.duplicate_set();
        let found = |d: &[Detection]| {
            d.iter()
                .filter(|x| x.is_duplicate && truth.contains(&x.pair))
                .count()
        };
        assert!(
            found(&blocked) >= found(&full).saturating_sub(1),
            "blocking should find (almost) everything the full scan finds: {} vs {}",
            found(&blocked),
            found(&full)
        );
    }

    #[test]
    fn rollback_makes_a_failed_attempt_invisible() {
        // Run a batch, roll it back, run it again: the retry must produce
        // exactly what a control system that only ran the batch once gets —
        // the property ingest retry relies on for bit-identical replays.
        let build = || {
            let (mut sys, ds) = system_with_corpus(6);
            sys.config.use_blocking = true;
            let base: Vec<AdrReport> = ds.reports.iter().take(240).cloned().collect();
            let labelled: Vec<PairId> = ds
                .duplicate_pairs
                .iter()
                .filter(|p| p.hi < 240)
                .copied()
                .collect();
            sys.bootstrap(&base, &labelled).unwrap();
            let batch: Vec<AdrReport> = ds.reports.iter().skip(240).cloned().collect();
            (sys, batch)
        };
        let (mut sys, batch) = build();
        let (mut control, control_batch) = build();

        // As after a commit: the store's change tracking starts empty.
        sys.mark_store_checkpointed();
        control.mark_store_checkpointed();
        let clean = sys.store().delta();
        let guard = sys.begin_batch();
        let first = sys.detect_new(&batch).unwrap();
        assert_ne!(sys.store().delta(), clean, "feedback dirtied the store");
        sys.rollback_batch(guard);
        assert_eq!(sys.report_count(), 240, "arrival order rolled back");
        assert_eq!(sys.store().delta(), clean, "rollback leaves no delta");
        let retry = sys.detect_new(&batch).unwrap();
        let once = control.detect_new(&control_batch).unwrap();
        assert_eq!(retry, first, "retry reproduces the rolled-back attempt");
        assert_eq!(retry, once, "retry matches a clean single run");
        assert_eq!(sys.interner_len(), control.interner_len());
        assert_eq!(
            sys.store().snapshot(),
            control.store().snapshot(),
            "stores (incl. reservoir RNG state) must match bit-for-bit"
        );
        assert_eq!(
            sys.store().delta(),
            control.store().delta(),
            "the retry's delta is the clean run's"
        );
    }

    /// An onset date no generated report carries.
    const A_DATE: &str = "31/12/1899 00:00:00";

    #[test]
    fn rollback_then_a_different_batch_leaves_no_stale_token_ids() {
        // A rolled-back batch must not leave the interner's raw-token memo
        // pointing at ids the next batch hands to other stems: ingest A,
        // roll back, ingest a *different* B whose narratives reuse A's new
        // words after a new word of their own, and compare with a control
        // that only ever saw B.
        let build = || {
            let (mut sys, ds) = system_with_corpus(6);
            sys.config.use_blocking = true;
            let base: Vec<AdrReport> = ds.reports.iter().take(240).cloned().collect();
            let labelled: Vec<PairId> = ds
                .duplicate_pairs
                .iter()
                .filter(|p| p.hi < 240)
                .copied()
                .collect();
            sys.bootstrap(&base, &labelled).unwrap();
            // Corpus-known drug and ADR names, so the narratives' new words
            // are the only new ids either batch introduces.
            let batch = |ids: std::ops::Range<usize>, narrative: &str| -> Vec<AdrReport> {
                ids.map(|i| {
                    let mut r = ds.reports[i].clone();
                    r.medicine.generic_name_description =
                        ds.reports[0].medicine.generic_name_description.clone();
                    r.reaction.meddra_pt_code = ds.reports[0].reaction.meddra_pt_code.clone();
                    r.reaction.report_description = narrative.to_string();
                    r
                })
                .collect()
            };
            let mut a = batch(240..245, "Zyxwalgia with flurbitis.");
            // An onset date only batch A brings: it interns a date id and
            // opens a block that the rollback must take back.
            a[0].reaction.onset_date = Some(A_DATE.into());
            let b = batch(245..250, "Quorbosis, then zyxwalgia and FLURBITIS.");
            (sys, a, b)
        };
        let (mut sys, batch_a, batch_b) = build();
        let (mut control, _, control_b) = build();

        let guard = sys.begin_batch();
        let (blocks, dates) = (sys.epoch.blocking.block_count(), sys.epoch.blocking.mark());
        sys.detect_new(&batch_a).unwrap();
        assert_eq!(sys.interner_len(), guard.interner_mark + 2);
        assert_eq!(
            sys.epoch.blocking.block_count(),
            blocks + 1,
            "A's date block"
        );
        sys.rollback_batch(guard);
        assert_eq!(sys.epoch.blocking.block_count(), blocks);
        assert_eq!(sys.epoch.blocking.mark(), dates);
        let after = sys.detect_new(&batch_b).unwrap();
        let clean = control.detect_new(&control_b).unwrap();

        assert_eq!(after, clean);
        for r in &batch_b {
            assert_eq!(sys.epoch.corpus[&r.id], control.epoch.corpus[&r.id]);
            assert_eq!(sys.epoch.corpus[&r.id].narrative_terms.len(), 3);
        }
        assert_eq!(sys.interner_len(), control.interner_len());
        for id in 0..sys.interner_len() as u32 {
            assert_eq!(sys.interner.resolve(id), control.interner.resolve(id));
        }
        // The blocking index is the control's: its blocks, the posting
        // list of every key of batch B, and the date ids.
        let (index, control_index) = (&sys.epoch.blocking, &control.epoch.blocking);
        assert_eq!(index.block_count(), control_index.block_count());
        assert_eq!(index.mark(), control_index.mark());
        for r in &batch_b {
            let processed = &sys.epoch.corpus[&r.id];
            let keys = index.probe_keys(processed);
            assert_eq!(keys, control_index.probe_keys(processed));
            for key in keys {
                assert_eq!(index.posting_list(key), control_index.posting_list(key));
            }
        }
        let a_date = crate::distance::ProcessedReport {
            onset_date: Some(A_DATE.into()),
            ..sys.epoch.corpus[&0].clone()
        };
        assert_eq!(
            index.probe_keys(&a_date).len(),
            a_date.drug_tokens.len(),
            "A's date is not interned"
        );
    }

    #[test]
    fn a_committed_attempt_copies_nothing() {
        // `detect_new`'s guard holds the model and the store, not the
        // corpus or the blocking index: a committed attempt writes those
        // two in place.
        let (mut sys, ds) = system_with_corpus(6);
        sys.config.use_blocking = true;
        let labelled: Vec<PairId> = ds
            .duplicate_pairs
            .iter()
            .filter(|p| p.hi < 240)
            .copied()
            .collect();
        sys.bootstrap(&ds.reports[..240], &labelled).unwrap();
        let corpus = Arc::as_ptr(&sys.epoch.corpus);
        let blocking = Arc::as_ptr(&sys.epoch.blocking);
        sys.detect_new(&ds.reports[240..]).unwrap();
        assert_eq!(Arc::as_ptr(&sys.epoch.corpus), corpus, "corpus copied");
        assert_eq!(Arc::as_ptr(&sys.epoch.blocking), blocking, "index copied");
        assert_eq!(sys.report_count(), 250);
    }

    #[test]
    fn a_failed_attempt_rolls_itself_back_and_can_be_retried() {
        // The stored state a retry must find as it was, and the blocking
        // index's size.
        let state = |sys: &DedupSystem| {
            (
                (sys.report_count(), sys.epoch.corpus.len()),
                sys.interner_len(),
                sys.store().snapshot(),
                (sys.epoch.blocking.mark(), sys.epoch.blocking.block_count()),
            )
        };
        let k = DedupConfig::default().knn.k;
        for use_blocking in [true, false] {
            let build = || {
                let (mut sys, ds) = system_with_corpus(9);
                sys.config.use_blocking = use_blocking;
                sys.bootstrap(&ds.reports[..240], &[]).unwrap();
                (sys, ds)
            };
            let ((mut sys, ds), (mut control, _)) = (build(), build());
            let batch = &ds.reports[240..];
            let (before, model) = (state(&sys), sys.epoch.model.clone().unwrap());
            // A closing fit with k = 0 fails after the batch was added,
            // compared, classified and fed back into the store.
            sys.config.knn.k = 0;
            let err = sys.detect_new(batch).unwrap_err();
            assert!(matches!(&err, SparkletError::User(_)), "{err}");
            assert_eq!(state(&sys), before, "blocking {use_blocking}");
            assert!(Arc::ptr_eq(&model, sys.epoch.model.as_ref().unwrap()));
            sys.config.knn.k = k;
            let retried = sys.detect_new(batch).unwrap();
            assert_eq!(retried, control.detect_new(batch).unwrap());
            assert_eq!(state(&sys), state(&control), "blocking {use_blocking}");
        }
        // A failed bootstrap leaves an empty system, and the retry draws
        // the negatives a clean first try draws.
        let ((mut sys, ds), (mut control, _)) = (system_with_corpus(9), system_with_corpus(9));
        let empty = state(&sys);
        sys.config.knn.k = 0;
        assert!(sys.bootstrap(&ds.reports[..240], &[]).is_err());
        assert_eq!(state(&sys), empty);
        sys.config.knn.k = k;
        sys.bootstrap(&ds.reports[..240], &[]).unwrap();
        control.bootstrap(&ds.reports[..240], &[]).unwrap();
        assert_eq!(state(&sys), state(&control));
    }

    #[test]
    fn a_batch_reusing_an_id_is_refused_before_any_write() {
        for use_blocking in [true, false] {
            let (mut sys, ds) = system_with_corpus(5);
            sys.config.use_blocking = use_blocking;
            sys.bootstrap(&ds.reports[..240], &[]).unwrap();
            let state = |sys: &DedupSystem| {
                (
                    sys.report_count(),
                    sys.interner_len(),
                    sys.store().snapshot(),
                )
            };
            let before = state(&sys);
            // An id the database holds, under new content and a new word.
            let mut known = ds.reports[7].clone();
            known.reaction.report_description = "Zyxwalgia.".into();
            let mut fresh = ds.reports[240..243].to_vec();
            fresh.push(known);
            let err = sys.detect_new(&fresh).unwrap_err();
            assert!(
                matches!(&err, SparkletError::User(m) if m.contains("report 7 is already")),
                "{err}"
            );
            assert_eq!(state(&sys), before, "blocking {use_blocking}");
            // One new id twice.
            let mut twice = ds.reports[240..243].to_vec();
            twice.push(ds.reports[241].clone());
            let err = sys.detect_new(&twice).unwrap_err();
            assert!(
                matches!(&err, SparkletError::User(m) if m.contains("twice")),
                "{err}"
            );
            assert_eq!(state(&sys), before, "blocking {use_blocking}");
            // The batch without the offending report goes through.
            sys.detect_new(&ds.reports[240..243]).unwrap();
            assert_eq!(sys.report_count(), 243);
        }
        // `bootstrap` refuses the same two ways, on an empty system and on
        // a bootstrapped one.
        let (mut sys, ds) = system_with_corpus(5);
        let state = |sys: &DedupSystem| {
            (
                sys.report_count(),
                sys.interner_len(),
                sys.store().snapshot(),
            )
        };
        let empty = state(&sys);
        let mut twice = ds.reports[..20].to_vec();
        twice.push(ds.reports[3].clone());
        let err = sys.bootstrap(&twice, &[]).unwrap_err();
        assert!(
            matches!(&err, SparkletError::User(m) if m.contains("twice")),
            "{err}"
        );
        assert_eq!(state(&sys), empty);
        sys.bootstrap(&ds.reports[..240], &[]).unwrap();
        let before = state(&sys);
        let err = sys.bootstrap(&ds.reports[230..245], &[]).unwrap_err();
        assert!(
            matches!(&err, SparkletError::User(m) if m.contains("already")),
            "{err}"
        );
        assert_eq!(state(&sys), before);
    }

    /// `sys.epoch.model` answers `probe` exactly as a model fitted here and
    /// now on the store does; no model iff nothing is stored.
    fn assert_model_matches_store(sys: &DedupSystem, probe: &crate::pairing::DistBatch) {
        let train = sys.store().training_pairs();
        let Some(model) = &sys.epoch.model else {
            assert!(train.is_empty(), "a non-empty store has a model");
            return;
        };
        let fresh = FastKnn::fit(sys.cluster(), &train, sys.config().knn).unwrap();
        assert_eq!(
            model.classify_batch(probe).unwrap(),
            fresh.classify_batch(probe).unwrap(),
            "the published model is the model of the current store"
        );
    }

    /// Labelled base of 60 reports and six arrival batches of 10.
    fn base_and_batches(ds: &Dataset) -> (Vec<AdrReport>, Vec<PairId>, Vec<Vec<AdrReport>>) {
        let base = ds.reports[..60].to_vec();
        let labelled = ds
            .duplicate_pairs
            .iter()
            .filter(|p| p.hi < 60)
            .copied()
            .collect();
        let batches = ds.reports[60..].chunks(10).map(<[_]>::to_vec).collect();
        (base, labelled, batches)
    }

    mod published_model {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Bootstrap,
            Detect,
            DetectThenRollback,
            Restore,
        }

        proptest! {
            // Each case refits after every step, so few cases; the op
            // alphabet is small enough for them to cover it.
            #![proptest_config(ProptestConfig::with_cases(6))]
            #[test]
            fn every_step_leaves_the_model_of_the_current_store(
                seed in 0u64..1000,
                ops in prop::collection::vec(
                    prop::sample::select(vec![
                        Op::Bootstrap,
                        Op::Detect,
                        Op::DetectThenRollback,
                        Op::Restore,
                    ]),
                    1..7,
                ),
            ) {
                let ds = Dataset::generate(&SynthConfig::small(120, 8, seed));
                let (base, labelled, batches) = base_and_batches(&ds);
                let mut sys = DedupSystem::new(
                    Cluster::local(2),
                    DedupConfig {
                        bootstrap_negatives: 150,
                        use_blocking: seed % 2 == 0,
                        knn: FastKnnConfig { b: 4, ..FastKnnConfig::default() },
                        ..DedupConfig::default()
                    },
                );
                let mut probe = crate::pairing::DistBatch::new();
                let mut rng = StdRng::seed_from_u64(seed);
                for id in 0..24 {
                    probe.push(id, &std::array::from_fn(|_| rng.gen_range(0.0..1.0)), false);
                }
                let mut next = 0;
                for op in ops {
                    let bootstrapped = sys.epoch.model.is_some();
                    match op {
                        // The base is in the database after the first.
                        Op::Bootstrap if sys.report_count() > 0 => {
                            prop_assert!(sys.bootstrap(&base, &labelled).is_err());
                        }
                        Op::Bootstrap => sys.bootstrap(&base, &labelled).unwrap(),
                        Op::Detect if !bootstrapped => {
                            prop_assert!(sys.detect_new(&batches[next]).is_err());
                        }
                        Op::Detect => {
                            sys.detect_new(&batches[next]).unwrap();
                            next += 1;
                        }
                        Op::DetectThenRollback => {
                            let before = sys.epoch.model.clone();
                            let guard = sys.begin_batch();
                            let _ = sys.detect_new(&batches[next]);
                            sys.rollback_batch(guard);
                            match (&before, &sys.epoch.model) {
                                (Some(a), Some(b)) => prop_assert!(Arc::ptr_eq(a, b)),
                                (None, None) => {}
                                _ => prop_assert!(false, "rollback changed the model"),
                            }
                        }
                        Op::Restore => {
                            let restored = PairStore::restore(&sys.store().snapshot()).unwrap();
                            sys.restore_store(restored).unwrap();
                        }
                    }
                    assert_model_matches_store(&sys, &probe);
                }
            }
        }
    }

    #[test]
    fn detect_new_before_bootstrap_is_a_typed_error() {
        let (mut sys, ds) = system_with_corpus(3);
        let err = sys.detect_new(&ds.reports[..5]).unwrap_err();
        assert!(
            matches!(&err, SparkletError::User(m) if m.contains("bootstrap")),
            "{err}"
        );
        assert_eq!(sys.report_count(), 0, "refused before anything is touched");
        // The system is as usable as before the refusal.
        sys.bootstrap(&ds.reports[..240], &[]).unwrap();
        sys.detect_new(&ds.reports[240..]).unwrap();
    }

    #[test]
    fn a_failed_publish_clears_the_model_and_the_next_batch_republishes() {
        // The fault point inside the publish stands in for a fit that
        // fails: armed at the publish that ends the first batch.
        let build = |fault: FaultConfig| {
            let ds = Dataset::generate(&SynthConfig::small(120, 8, 12));
            let mut cluster = ClusterConfig::local(2);
            cluster.fault = fault;
            let mut sys = DedupSystem::new(
                Cluster::new(cluster),
                DedupConfig {
                    bootstrap_negatives: 150,
                    ..DedupConfig::default()
                },
            );
            let (base, labelled, batches) = base_and_batches(&ds);
            sys.bootstrap(&base, &labelled).unwrap();
            (sys, batches)
        };
        let (mut sys, batches) = build(FaultConfig::disabled().kill_driver_at_point(1));
        let (mut control, _) = build(FaultConfig::disabled());
        let published = sys.epoch.model.clone().expect("bootstrap publishes");

        let err = sys.detect_new(&batches[0]).unwrap_err();
        assert!(err.is_driver_kill(), "{err}");
        assert!(
            sys.epoch.model.is_none(),
            "no model rather than a stale one"
        );
        control.detect_new(&batches[0]).unwrap();
        assert_eq!(
            sys.store().snapshot(),
            control.store().snapshot(),
            "the feedback was stored before the publish failed"
        );
        assert!(!Arc::ptr_eq(
            &published,
            control.epoch.model.as_ref().expect("published")
        ));

        let after = sys.detect_new(&batches[1]).unwrap();
        assert_eq!(after, control.detect_new(&batches[1]).unwrap());
        assert!(sys.epoch.model.is_some());
    }

    #[test]
    fn k_beyond_the_training_set_gives_short_neighbourhoods_not_a_panic() {
        // Four labelled pairs, k = 9: every neighbourhood holds all four.
        let ds = Dataset::generate(&SynthConfig::small(40, 2, 8));
        let mut sys = DedupSystem::new(
            Cluster::local(2),
            DedupConfig {
                bootstrap_negatives: 2,
                ..DedupConfig::default()
            },
        );
        sys.bootstrap(&ds.reports, &ds.duplicate_pairs).unwrap();
        assert_eq!(sys.store().training_pairs().len(), 4);
        assert!(sys.config().knn.k > 4);
        let arrivals: Vec<AdrReport> = (0..2)
            .map(|i| {
                let mut r = ds.reports[i].clone();
                r.id = 1_000 + i as u64;
                r
            })
            .collect();
        let detections = sys.detect_new(&arrivals).unwrap();
        assert_eq!(detections.len(), 2 * 40 + 1, "every candidate is scored");
        assert!(detections.iter().all(|d| d.score.is_finite()));
    }

    #[test]
    fn a_small_batch_is_one_block_and_leaves_no_shuffle_behind() {
        let ds = Dataset::generate(&SynthConfig::small(300, 15, 9));
        let cluster = Cluster::local(2);
        let config = DedupConfig {
            bootstrap_negatives: 400,
            use_blocking: true,
            knn: FastKnnConfig {
                b: 8,
                ..FastKnnConfig::default()
            },
            ..DedupConfig::default()
        };
        assert_eq!(config.knn.c, 4);
        let mut sys = DedupSystem::new(cluster.clone(), config);
        let labelled: Vec<PairId> = ds
            .duplicate_pairs
            .iter()
            .filter(|p| p.hi < 250)
            .copied()
            .collect();
        sys.bootstrap(&ds.reports[..250], &labelled).unwrap();
        let shuffles = || {
            let s = cluster.shuffles();
            (s.shuffle_count(), s.resident_bytes(0), s.resident_bytes(1))
        };
        assert_eq!(shuffles(), (0, 0, 0), "nor does a bootstrap");
        let jobs = cluster.metrics().jobs_submitted.get();
        let shuffled = cluster.metrics().shuffle_bytes_written.get();
        let before = sys.job_report();
        let detections = sys.detect_new(&ds.reports[250..]).unwrap();
        assert!(!detections.is_empty());
        assert_eq!(
            cluster.metrics().jobs_submitted.get() - jobs,
            1 + 1,
            "the distance job, one classify stage"
        );
        assert_eq!(cluster.blocks().block_count(), 0, "the fit caches nothing");
        let report = sys.job_report();
        let classify: Vec<_> = report.stages[before.stages.len()..]
            .iter()
            .filter(|s| s.name == fastknn::CLASSIFY_STAGE)
            .collect();
        assert_eq!(classify.len(), 1);
        assert_eq!(classify[0].tasks, 1, "a small batch is one task");
        assert_eq!(report.prune.passes - before.prune.passes, 1);
        assert_eq!(cluster.metrics().shuffle_bytes_written.get(), shuffled);
        assert_eq!(shuffles(), (0, 0, 0));
    }

    #[test]
    fn detect_new_equals_the_per_row_route_and_orders_totally() {
        // The oracle for `classify_distinct` sharing one classification among
        // equal rows: the batch's candidate rows, rebuilt here under the ids
        // `detect_new` gives them and put through the per-row
        // `classify_blocks` of the model it classified with.
        for (seed, use_blocking) in [(3, true), (17, true), (17, false), (40, false)] {
            let (mut sys, ds) = system_with_corpus(seed);
            sys.config.use_blocking = use_blocking;
            let (base, batch) = ds.reports.split_at(235);
            let labelled: Vec<PairId> = ds
                .duplicate_pairs
                .iter()
                .filter(|p| p.hi < 235)
                .copied()
                .collect();
            sys.bootstrap(base, &labelled).unwrap();
            let model = sys.epoch.model.clone().unwrap();
            assert!(
                model.voronoi().b() > 8,
                "seed {seed}: sibling cells, so tie slots"
            );
            let new_ids: Vec<ReportId> = batch.iter().map(|r| r.id).collect();
            let existing = sys.arrival_order.clone();
            let detections = sys.detect_new(batch).unwrap();
            let shared = sys
                .cluster
                .metrics()
                .counter(fastknn::counters::ROWS_SHARED)
                .get();
            assert!(shared > 0, "seed {seed}: candidate rows share vectors");

            // Candidates by brute force, not through the index `detect_new`
            // reads: every pair §3 enumerates — on the blocked path only
            // those sharing a drug token or an onset date, in pair order.
            let mut pairs = pairs_involving_new(&new_ids, &existing);
            if use_blocking {
                let corpus = &sys.epoch.corpus;
                pairs.retain(|p| {
                    let (lo, hi) = (&corpus[&p.lo], &corpus[&p.hi]);
                    lo.drug_tokens.iter().any(|t| hi.drug_tokens.contains(t))
                        || (lo.onset_date.is_some() && lo.onset_date == hi.onset_date)
                });
                pairs.sort_unstable();
            }
            let mut rows = crate::pairing::DistBatch::new();
            for (row, pid) in pairs.iter().enumerate() {
                let (lo, hi) = (&sys.epoch.corpus[&pid.lo], &sys.epoch.corpus[&pid.hi]);
                rows.push(row as u64, &crate::distance::pair_distance(lo, hi), false);
            }
            let per_row: HashMap<PairId, (u64, bool)> = model
                .classify_blocks(&rows, 3)
                .unwrap()
                .iter()
                .map(|s| (pairs[s.id as usize], (s.score.to_bits(), s.positive)))
                .collect();
            assert_eq!(detections.len(), pairs.len());
            for d in &detections {
                let got = (d.score.to_bits(), d.is_duplicate);
                assert_eq!(got, per_row[&d.pair], "seed {seed}, pair {:?}", d.pair);
            }

            // Duplicates first, score descending, ties in candidate order
            // (`pairs` is sorted on the blocked path): strictly, so total.
            let row_of: HashMap<PairId, usize> =
                pairs.iter().enumerate().map(|(row, p)| (*p, row)).collect();
            let order = |a: &Detection, b: &Detection| {
                b.is_duplicate
                    .cmp(&a.is_duplicate)
                    .then(b.score.total_cmp(&a.score))
                    .then(row_of[&a.pair].cmp(&row_of[&b.pair]))
            };
            for w in detections.windows(2) {
                assert!(order(&w[0], &w[1]).is_lt(), "seed {seed}: {w:?}");
            }
            let tied_scores = detections
                .windows(2)
                .filter(|w| w[0].score.to_bits() == w[1].score.to_bits())
                .count();
            assert!(
                tied_scores > 0,
                "seed {seed}: the tiebreak decided something"
            );
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (mut sys, ds) = system_with_corpus(3);
        sys.bootstrap(&ds.reports, &ds.duplicate_pairs).unwrap();
        assert!(sys.detect_new(&[]).unwrap().is_empty());
    }

    #[test]
    fn detections_are_sorted_duplicates_first() {
        let (mut sys, ds) = system_with_corpus(4);
        let base: Vec<AdrReport> = ds.reports.iter().take(240).cloned().collect();
        let labelled: Vec<PairId> = ds
            .duplicate_pairs
            .iter()
            .filter(|p| p.hi < 240)
            .copied()
            .collect();
        sys.bootstrap(&base, &labelled).unwrap();
        let new_reports: Vec<AdrReport> = ds.reports.iter().skip(240).cloned().collect();
        let detections = sys.detect_new(&new_reports).unwrap();
        let first_non_dup = detections.iter().position(|d| !d.is_duplicate);
        if let Some(pos) = first_non_dup {
            assert!(
                detections[pos..].iter().all(|d| !d.is_duplicate),
                "non-duplicates must come after duplicates"
            );
        }
    }
}
