//! Durable streaming ingest: checkpointed micro-batches with crash
//! recovery and poison quarantine.
//!
//! Fig. 1 of the paper is a feedback *loop*, but
//! [`DedupSystem::detect_new`] is a one-shot batch call — and while PR 4
//! made executors survivable, a driver crash loses everything the loop has
//! learned. [`IngestService`] closes that gap: reports arrive in
//! quarterly-style micro-batches (an [`adr_synth::QuarterlyReplay`]
//! schedule), each committed batch folds its detections into a cumulative
//! digest, and an [`IngestService::open`]-able checkpoint (schema-
//! versioned, CRC-guarded) persists everything a restart needs:
//!
//! * the [`PairStore`] (bit-exact, with reservoir-RNG replay) — which *is*
//!   the Voronoi-centre state, since Fast kNN centres are a deterministic
//!   function of the training set, refitted once per commit (recovery
//!   publishes the restored store's model the same way),
//! * the batch high-water mark, cumulative digest and skipped-batch list,
//! * cross-checks (report count, interner size, training-set digest) that
//!   the recovery replay reconstructed the exact pre-crash ingest state.
//!
//! On disk that is a *base* plus a *delta log*. `ckpt-<g>.ckpt` holds the
//! header fields and a full [`PairStore::snapshot`] as of commit `g`,
//! written to a temp file, fsynced and renamed into place. Each later
//! commit appends one record — `record <len>`, the same header fields, the
//! [`PairStore::delta`] since the commit before, `crc <hash>` over all of
//! it — to `ckpt-<g>.log` and syncs it, so a commit writes what the batch
//! changed rather than what the store holds. When the log has grown to the
//! size of its base the next commit writes a new base instead
//! (compaction), and bases older than the last two go, with their logs.
//! Recovery takes the newest base that parses and applies its records in
//! order up to the first that fails its length or CRC: a torn tail loses
//! that one commit, an unparseable base falls back to the previous base
//! and its complete log, which also loses one.
//!
//! Everything *not* in the checkpoint is a pure function of the replay
//! schedule: recovery re-ingests the reports of every committed batch
//! (identical dense token ids, blocking rows and corpus snapshot), restores
//! the store, and resumes at the high-water mark — so a driver kill at
//! *any* fault point yields a cumulative digest bit-identical to an
//! uninterrupted run.
//!
//! Around that spine sit the service's robustness surfaces: per-batch retry
//! with exponential backoff + deterministic jitter on the virtual clock
//! (a failed `DedupSystem::detect_new` rolls itself back: the attempt's
//! reports leave the corpus and the blocking index, and the pre-attempt
//! model and store swap back; the retry replays bit-identically),
//! poison-batch quarantine (journaled, dumped to `quarantine.log`,
//! skipped), and torn-write detection with previous-commit fallback. A
//! base written in another checkpoint format version is refused, not fallen
//! back past.

use crate::store::{
    into_text, next_line, parse_u64, push_decimal, push_field, push_hex_field, push_version,
    u64_field, version, PairStore,
};
use crate::system::{DedupConfig, DedupSystem, Detection};
use adr_model::AdrReport;
use adr_synth::QuarterlyReplay;
use sparklet::{stable_hash, Cluster, EventKind, IngestBatchRow, SparkletError};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Errors surfaced by the ingest service.
#[derive(Debug)]
pub enum IngestError {
    /// The engine failed (terminally) under a batch, or a driver-kill
    /// fault point fired. After an `Engine` error carrying a driver kill
    /// the service instance is dead: drop it and [`IngestService::open`] a
    /// fresh one from the checkpoint directory.
    Engine(SparkletError),
    /// Checkpoint-directory I/O failed.
    Io(String),
    /// A checkpoint (or the recovery replay it drives) is inconsistent.
    Checkpoint(String),
    /// The [`IngestConfig`] cannot be run.
    Config(String),
}

impl IngestError {
    /// Was this a driver kill (recover by re-opening from the checkpoint
    /// directory)?
    pub fn is_driver_kill(&self) -> bool {
        matches!(self, IngestError::Engine(e) if e.is_driver_kill())
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Engine(e) => write!(f, "engine: {e}"),
            IngestError::Io(msg) => write!(f, "checkpoint io: {msg}"),
            IngestError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            IngestError::Config(msg) => write!(f, "ingest config: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<SparkletError> for IngestError {
    fn from(e: SparkletError) -> Self {
        IngestError::Engine(e)
    }
}

fn io_err(e: std::io::Error) -> IngestError {
    IngestError::Io(e.to_string())
}

/// Seeded torn-write fault: what commit `generation` writes — a log record,
/// or a base when that commit compacts — is truncated to `keep_bytes` before
/// it reaches the file, modelling a partial flush that made it into place.
/// Recovery must detect the bad CRC and fall back one commit.
#[derive(Debug, Clone, Copy)]
pub struct TornWrite {
    /// Commit to corrupt (commits count from 0, the bootstrap).
    pub generation: u64,
    /// Bytes of the serialised base or record to keep.
    pub keep_bytes: usize,
}

/// Configuration of the streaming ingest service: where it keeps its
/// checkpoints, how much of the replay is the labelled bootstrap, the retry
/// budget, and three fault-injection hooks. The backoff schedule and the
/// number of bases kept are constants below.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Directory holding checkpoint generations and `quarantine.log`.
    pub checkpoint_dir: PathBuf,
    /// Leading quarters consumed as one expert-labelled bootstrap unit
    /// (Fig. 1's initial labelled stores). Must be ≥ 1.
    pub bootstrap_quarters: u64,
    /// Retries a failing batch gets after its first attempt, before it is
    /// quarantined.
    pub max_batch_retries: u32,
    /// Test hook: batches whose every attempt fails with a synthetic
    /// transient error (deterministic poison — exercises quarantine).
    pub poison_batches: Vec<u64>,
    /// Test hook: batches that never arrive (their reports are dropped
    /// without an attempt). The digest of such a run is the reference for
    /// quarantine equivalence: a quarantined batch must leave the same
    /// state behind as one that never arrived.
    pub skip_batches: Vec<u64>,
    /// Seeded torn-write fault injection; see [`TornWrite`].
    pub torn_write: Option<TornWrite>,
}

impl IngestConfig {
    /// Service defaults rooted at `checkpoint_dir`.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        IngestConfig {
            checkpoint_dir: checkpoint_dir.into(),
            bootstrap_quarters: 1,
            max_batch_retries: 2,
            poison_batches: Vec::new(),
            skip_batches: Vec::new(),
            torn_write: None,
        }
    }
}

/// First retry backoff (virtual µs); doubles per retry.
const BACKOFF_BASE_US: u64 = 50_000;

/// Backoff ceiling (virtual µs).
const BACKOFF_CAP_US: u64 = 1_600_000;

/// Deterministic jitter added to each backoff, drawn from
/// `stable_hash(config digest, batch, attempt) % (BACKOFF_JITTER_US + 1)`.
const BACKOFF_JITTER_US: u64 = 10_000;

/// Base checkpoints kept on disk, each with its delta log: the second gives
/// a corrupt newest base an older one to fall back to.
const KEEP_CHECKPOINTS: usize = 2;

/// Current checkpoint schema version (2 dropped the `lagged_pairs` line
/// with the admission gate that read it; 3 embeds the `pairstore v2`
/// snapshot, a header and the delta from an empty store; 4 records the
/// store's [`PairStore::training_digest`] in the `centres` line, a sum of
/// per-row terms rather than v3's hash chain over the rows). A directory
/// written in an earlier version is refused.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Virtual cost of a checkpoint write: fixed fsync+rename latency plus a
/// per-KiB streaming term.
const CHECKPOINT_BASE_US: u64 = 2_000;
const CHECKPOINT_US_PER_KIB: u64 = 50;

/// `crc ` + 16 hex digits + newline: the trailer of a base and of every
/// log record.
const CRC_LINE_BYTES: usize = 21;

/// What a commit records besides the store — the fields a base checkpoint
/// and a log record share.
#[derive(Debug, Clone, PartialEq)]
struct CommitState {
    generation: u64,
    batch_high_water: u64,
    cumulative_digest: u64,
    reports: u64,
    interner_tokens: u64,
    /// The store's [`PairStore::training_digest`].
    centres_digest: u64,
    skipped: Vec<u64>,
}

/// A parsed base checkpoint.
#[cfg_attr(test, derive(Clone))]
struct Checkpoint {
    config_digest: u64,
    state: CommitState,
    store: PairStore,
}

/// Digest of one batch's detections, order-sensitive (the detection order
/// is itself pinned by the engine's determinism guarantees).
fn detections_digest(detections: &[Detection]) -> u64 {
    let mut d = 0xD16Eu64;
    for det in detections {
        d = stable_hash(&(
            d,
            det.pair.lo,
            det.pair.hi,
            det.score.to_bits(),
            det.is_duplicate,
        ));
    }
    d
}

/// The long-running micro-batch ingest service. See the module docs.
pub struct IngestService {
    system: DedupSystem,
    config: IngestConfig,
    config_digest: u64,
    /// Next batch (quarter) to run; batches `0..batch_high_water` are
    /// committed, quarantined or skipped.
    batch_high_water: u64,
    cumulative_digest: u64,
    skipped: Vec<u64>,
    /// Next commit generation to write.
    generation: u64,
    recovered_fallback: bool,
    /// Base generations on disk, ascending.
    bases: Vec<u64>,
    /// The base commits are logged against (`None` before the bootstrap),
    /// its size, and the size of its log: the two sizes decide compaction.
    base_generation: Option<u64>,
    base_bytes: u64,
    log_bytes: u64,
}

impl IngestService {
    /// Open the service: recover from the newest valid checkpoint in
    /// `config.checkpoint_dir` (falling back past a corrupt base or a torn
    /// log tail), or start fresh if none exists. Recovery restores the base
    /// snapshot, applies its delta log, re-ingests the reports of every
    /// committed batch from `replay`, and cross-checks the reconstruction
    /// before resuming.
    pub fn open(
        cluster: Cluster,
        dedup: DedupConfig,
        config: IngestConfig,
        replay: &QuarterlyReplay,
    ) -> Result<IngestService, IngestError> {
        if config.bootstrap_quarters == 0 {
            return Err(IngestError::Config(
                "bootstrap_quarters is 0: the labelled bootstrap needs a quarter".into(),
            ));
        }
        fs::create_dir_all(&config.checkpoint_dir).map_err(io_err)?;
        let config_digest = stable_hash(&format!(
            "{dedup:?} quarter_size={} bootstrap={}",
            replay.quarter_size(),
            config.bootstrap_quarters
        ));
        let mut service = IngestService {
            batch_high_water: 0,
            cumulative_digest: 0,
            skipped: Vec::new(),
            generation: 0,
            recovered_fallback: false,
            bases: Vec::new(),
            base_generation: None,
            base_bytes: 0,
            log_bytes: 0,
            config_digest,
            system: DedupSystem::new(cluster, dedup),
            config,
        };
        let Some(Checkpoint {
            config_digest: stored_digest,
            state,
            store,
        }) = service.recover()?
        else {
            return Ok(service);
        };
        if stored_digest != config_digest {
            return Err(IngestError::Checkpoint(format!(
                "config digest mismatch: checkpoint {stored_digest:016x}, service {config_digest:016x}"
            )));
        }
        // Recovery replay: everything outside the store is a pure function
        // of the replay schedule. Re-ingest the committed batches' reports
        // in arrival order (skipped batches never arrived), then restore
        // the store over the top.
        if state.batch_high_water > replay.quarters() {
            return Err(IngestError::Checkpoint(format!(
                "high-water mark {} is beyond the replay's {} quarters",
                state.batch_high_water,
                replay.quarters()
            )));
        }
        let system = &mut service.system;
        system.add_reports(
            &(0..state.batch_high_water)
                .filter(|batch| !state.skipped.contains(batch))
                .flat_map(|batch| replay.quarter_reports(batch))
                .collect::<Vec<AdrReport>>(),
        );
        system.restore_store(store)?;
        if system.report_count() as u64 != state.reports {
            return Err(IngestError::Checkpoint(format!(
                "recovery replay mismatch: {} reports, checkpoint says {}",
                system.report_count(),
                state.reports
            )));
        }
        if system.interner_len() as u64 != state.interner_tokens {
            return Err(IngestError::Checkpoint(format!(
                "recovery replay mismatch: {} interned tokens, checkpoint says {}",
                system.interner_len(),
                state.interner_tokens
            )));
        }
        let centres = system.store().training_digest_from_rows();
        debug_assert_eq!(centres, system.store().training_digest());
        if centres != state.centres_digest {
            return Err(IngestError::Checkpoint(format!(
                "restored training set digest {:016x} != checkpointed {:016x}",
                centres, state.centres_digest
            )));
        }
        system
            .cluster()
            .journal()
            .record(EventKind::IngestRecovered {
                fallback: service.recovered_fallback,
            });
        service.batch_high_water = state.batch_high_water;
        service.cumulative_digest = state.cumulative_digest;
        service.skipped = state.skipped;
        service.generation = state.generation + 1;
        Ok(service)
    }

    /// The wrapped system (store, report count, cluster).
    pub fn system(&self) -> &DedupSystem {
        &self.system
    }

    /// Cumulative detection digest over every committed batch — the
    /// bit-identity witness for crash recovery.
    pub fn cumulative_digest(&self) -> u64 {
        self.cumulative_digest
    }

    /// Next batch to run; everything below is committed, quarantined or
    /// skipped.
    pub fn batch_high_water(&self) -> u64 {
        self.batch_high_water
    }

    /// Batches quarantined or configured to never arrive.
    pub fn skipped(&self) -> &[u64] {
        &self.skipped
    }

    /// Did the most recent [`IngestService::open`] fall back past a corrupt
    /// newest base or a torn log tail?
    pub fn recovered_with_fallback(&self) -> bool {
        self.recovered_fallback
    }

    /// Run report of the cluster this service executes on (includes the
    /// per-batch `ingest` section).
    pub fn job_report(&self) -> sparklet::JobReport {
        self.system.job_report()
    }

    /// Run the service through quarter `through` (exclusive), committing a
    /// checkpoint after every batch. Returns the number of batches
    /// committed by this call. On a driver-kill error the instance is
    /// dead: drop it and [`IngestService::open`] again.
    pub fn run(&mut self, replay: &QuarterlyReplay, through: u64) -> Result<u64, IngestError> {
        let through = through.min(replay.quarters());
        let mut committed = 0u64;
        while self.batch_high_water < through {
            let batch = self.batch_high_water;
            if batch == 0 {
                self.run_bootstrap(replay)?;
                committed += 1;
                continue;
            }
            if self.config.skip_batches.contains(&batch) {
                self.skipped.push(batch);
                self.batch_high_water += 1;
                self.write_checkpoint()?;
                continue;
            }
            committed += self.run_batch(replay, batch)?;
        }
        Ok(committed)
    }

    /// Ingest the labelled bootstrap prefix (quarters
    /// `0..bootstrap_quarters`) as one unit and commit the first
    /// checkpoint. Bootstrap failures are not quarantined — without the
    /// initial labelled stores the service cannot run at all.
    fn run_bootstrap(&mut self, replay: &QuarterlyReplay) -> Result<(), IngestError> {
        let quarters = self.config.bootstrap_quarters.min(replay.quarters());
        let prefix_slots = replay.quarter_range(quarters - 1).end;
        let labelled = replay.labelled_pairs_within(prefix_slots);
        let reports: Vec<AdrReport> = (0..quarters)
            .flat_map(|q| replay.quarter_reports(q))
            .collect();
        let mut attempt = 0u64;
        loop {
            self.cluster().driver_fault_point("bootstrap-start")?;
            match self.system.bootstrap(&reports, &labelled) {
                Ok(()) => break,
                Err(e) if e.is_driver_kill() => return Err(e.into()),
                Err(e) => {
                    attempt += 1;
                    if attempt > self.config.max_batch_retries as u64 {
                        return Err(e.into());
                    }
                    self.charge_backoff(0, attempt);
                }
            }
        }
        self.cluster().driver_fault_point("bootstrap-done")?;
        // The bootstrap contributes nothing to the cumulative digest (it
        // emits no detections); it advances the high-water mark past the
        // whole labelled prefix in one step.
        self.batch_high_water = quarters;
        let bytes = self.write_checkpoint()?;
        self.cluster().driver_fault_point("bootstrap-committed")?;
        self.cluster()
            .journal()
            .record(EventKind::IngestBatchCommitted(IngestBatchRow {
                batch: 0,
                reports: reports.len() as u64,
                retries: attempt,
                checkpoint_bytes: bytes,
                ..IngestBatchRow::default()
            }));
        Ok(())
    }

    /// One detection micro-batch: attempt (with rollback + backoff on
    /// transient failure), fold the digest, checkpoint, journal. Returns 1
    /// if the batch committed, 0 if it was quarantined.
    fn run_batch(&mut self, replay: &QuarterlyReplay, batch: u64) -> Result<u64, IngestError> {
        let reports = replay.quarter_reports(batch);
        let poisoned = self.config.poison_batches.contains(&batch);
        let mut attempt = 0u64;
        self.cluster().driver_fault_point("batch-start")?;
        let detections = loop {
            let latency_start = self.cluster().clock().total_work().us;
            let result = if poisoned {
                Err(SparkletError::User(format!(
                    "poisoned batch {batch} (injected)"
                )))
            } else {
                self.system.detect_new(&reports)
            };
            match result {
                Ok(dets) => break (dets, latency_start),
                Err(e) if e.is_driver_kill() => return Err(e.into()),
                Err(e) => {
                    attempt += 1;
                    if attempt > self.config.max_batch_retries as u64 {
                        self.quarantine(batch, &reports, attempt, &e)?;
                        return Ok(0);
                    }
                    self.charge_backoff(batch, attempt);
                }
            }
        };
        let (detections, latency_start) = detections;
        self.cluster().driver_fault_point("batch-detected")?;
        let duplicates = detections.iter().filter(|d| d.is_duplicate).count() as u64;
        self.cumulative_digest = stable_hash(&(
            self.cumulative_digest,
            batch,
            detections_digest(&detections),
        ));
        self.batch_high_water += 1;
        let bytes = self.write_checkpoint()?;
        self.cluster().driver_fault_point("batch-committed")?;
        let latency = self
            .cluster()
            .clock()
            .total_work()
            .us
            .saturating_sub(latency_start);
        self.cluster()
            .journal()
            .record(EventKind::IngestBatchCommitted(IngestBatchRow {
                batch,
                reports: reports.len() as u64,
                detections: detections.len() as u64,
                duplicates,
                retries: attempt,
                latency_us: latency,
                checkpoint_bytes: bytes,
            }));
        Ok(1)
    }

    /// Exponential backoff with deterministic jitter, charged to the
    /// virtual clock: `min(base·2^(attempt−1), cap) + hash(config digest,
    /// batch, attempt) % (jitter+1)`.
    fn charge_backoff(&self, batch: u64, attempt: u64) {
        let shift = (attempt - 1).min(20) as u32;
        let base = BACKOFF_BASE_US
            .saturating_mul(1u64 << shift)
            .min(BACKOFF_CAP_US);
        let jitter = stable_hash(&(self.config_digest, batch, attempt)) % (BACKOFF_JITTER_US + 1);
        self.cluster()
            .charge_driver_stage("ingest-backoff", base + jitter);
    }

    /// Quarantine a poison batch: journal it, dump it to `quarantine.log`,
    /// mark it skipped and commit a checkpoint so a restart does not retry
    /// it. Quarantined batches contribute nothing to the digest — the
    /// service state is exactly as if the batch never arrived.
    fn quarantine(
        &mut self,
        batch: u64,
        reports: &[AdrReport],
        attempts: u64,
        error: &SparkletError,
    ) -> Result<(), IngestError> {
        let path = self.config.checkpoint_dir.join("quarantine.log");
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        writeln!(
            file,
            "batch {batch} reports {} attempts {attempts} reason {error}",
            reports.len()
        )
        .map_err(io_err)?;
        for r in reports {
            writeln!(file, "  report {}", r.id).map_err(io_err)?;
        }
        self.cluster()
            .journal()
            .record(EventKind::IngestQuarantined);
        self.skipped.push(batch);
        self.batch_high_water += 1;
        self.write_checkpoint()?;
        Ok(())
    }

    fn cluster(&self) -> &Cluster {
        self.system.cluster()
    }

    fn checkpoint_path(&self, generation: u64) -> PathBuf {
        self.config
            .checkpoint_dir
            .join(format!("ckpt-{generation:08}.ckpt"))
    }

    /// The delta log of the base written at `generation`.
    fn log_path(&self, generation: u64) -> PathBuf {
        self.config
            .checkpoint_dir
            .join(format!("ckpt-{generation:08}.log"))
    }

    /// Make a file creation or rename in the checkpoint directory durable.
    fn sync_dir(&self) -> Result<(), IngestError> {
        fs::File::open(&self.config.checkpoint_dir)
            .and_then(|dir| dir.sync_all())
            .map_err(io_err)
    }

    /// Make the current state durable as commit `self.generation`.
    ///
    /// Normally that appends one CRC-framed record — the commit's header
    /// fields and the store's [`PairStore::delta`] — to the current base's
    /// log and syncs it: the cost of what the batch changed. When there is
    /// no base yet (the bootstrap), or the log has grown to the size of its
    /// base, the commit instead writes a new base — the header fields and
    /// the full [`PairStore::snapshot`] to a temp file, fsync, atomic
    /// rename — and garbage-collects bases (with their logs) beyond
    /// `KEEP_CHECKPOINTS`. Either way nothing is visible to recovery until
    /// it is complete: a crash before the rename leaves the previous base
    /// and its whole log, a crash inside the append leaves a tail that
    /// fails its CRC. The torn-write fault truncates the serialised bytes
    /// first, to the same effect. Returns the bytes written.
    fn write_checkpoint(&mut self) -> Result<u64, IngestError> {
        let generation = self.generation;
        let state = CommitState {
            generation,
            batch_high_water: self.batch_high_water,
            cumulative_digest: self.cumulative_digest,
            reports: self.system.report_count() as u64,
            interner_tokens: self.system.interner_len() as u64,
            centres_digest: self.system.store().training_digest(),
            skipped: self.skipped.clone(),
        };
        // The compaction rule: log against the current base until its log
        // is as large as the base itself, then start a new base.
        let log_base = self
            .base_generation
            .filter(|_| self.log_bytes < self.base_bytes);
        let store = self.system.store();
        let payload = match log_base {
            Some(_) => store.delta(),
            None => store.snapshot(),
        };
        let mut commit = Vec::new();
        state.push_lines(&mut commit);
        push_field(&mut commit, "store", payload.len() as u64);
        let mut head = Vec::with_capacity(commit.len() + payload.len() + 96);
        match log_base {
            Some(_) => push_field(&mut head, "record", (commit.len() + payload.len()) as u64),
            None => {
                push_version(&mut head, "ingest", CHECKPOINT_VERSION);
                push_hex_field(&mut head, "config", self.config_digest);
            }
        }
        head.extend_from_slice(&commit);
        let mut framed = into_text(head);
        framed.push_str(&payload);
        let crc = stable_hash(framed.as_str());
        let mut bytes = framed.into_bytes();
        push_hex_field(&mut bytes, "crc", crc);
        if let Some(torn) = self.config.torn_write {
            if torn.generation == generation {
                bytes.truncate(torn.keep_bytes);
            }
        }
        let written = bytes.len() as u64;
        if let Some(base) = log_base {
            self.cluster().driver_fault_point("commit-append")?;
            let mut log = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.log_path(base))
                .map_err(io_err)?;
            log.write_all(&bytes).map_err(io_err)?;
            log.sync_data().map_err(io_err)?;
            if self.log_bytes == 0 {
                self.sync_dir()?;
            }
            self.log_bytes += written;
        } else {
            let tmp = self
                .config
                .checkpoint_dir
                .join(format!("ckpt-{generation:08}.tmp"));
            {
                let mut f = fs::File::create(&tmp).map_err(io_err)?;
                f.write_all(&bytes).map_err(io_err)?;
                f.sync_all().map_err(io_err)?;
            }
            self.cluster().driver_fault_point("commit-rename")?;
            // A log left under this name by an earlier life of the
            // directory describes a base this one replaces.
            let _ = fs::remove_file(self.log_path(generation));
            fs::rename(&tmp, self.checkpoint_path(generation)).map_err(io_err)?;
            self.sync_dir()?;
            self.base_generation = Some(generation);
            self.base_bytes = written;
            self.log_bytes = 0;
            if let Err(at) = self.bases.binary_search(&generation) {
                self.bases.insert(at, generation);
            }
            while self.bases.len() > KEEP_CHECKPOINTS && self.bases[0] < generation {
                let stale = self.bases.remove(0);
                let _ = fs::remove_file(self.checkpoint_path(stale));
                let _ = fs::remove_file(self.log_path(stale));
            }
        }
        self.system.mark_store_checkpointed();
        self.generation = generation + 1;
        self.cluster().charge_driver_stage(
            "ingest-checkpoint",
            CHECKPOINT_BASE_US + written.div_ceil(1024) * CHECKPOINT_US_PER_KIB,
        );
        Ok(written)
    }

    /// Rebuild the newest recoverable state from the checkpoint directory:
    /// the newest base that parses, then its log records in order up to the
    /// first that fails its framing (length, CRC) — a torn tail, which is
    /// cut off the file so later appends follow the last good record. An
    /// unparseable base falls back to the previous base with its complete
    /// log. A record that passes its CRC but does not continue the state
    /// before it is not a torn write, and is an error. Records which base
    /// the service now logs against, the two sizes, and whether anything
    /// was fallen back past; returns the recovered state.
    fn recover(&mut self) -> Result<Option<Checkpoint>, IngestError> {
        for entry in fs::read_dir(&self.config.checkpoint_dir).map_err(io_err)? {
            let name = entry.map_err(io_err)?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(g) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| parse_u64(s, 10, "base generation").ok())
            {
                self.bases.push(g);
            }
        }
        self.bases.sort_unstable();
        for (rank, &generation) in self.bases.iter().rev().enumerate() {
            let raw = fs::read(self.checkpoint_path(generation)).map_err(io_err)?;
            let parsed = std::str::from_utf8(&raw)
                .map_err(|_| Unreadable::Damaged)
                .and_then(parse_checkpoint);
            let mut checkpoint = match parsed {
                Ok(checkpoint) => checkpoint,
                Err(Unreadable::Damaged) => continue, // fall back a base
                Err(Unreadable::Version(version)) => {
                    return Err(IngestError::Checkpoint(format!(
                        "unsupported checkpoint version {version} (supported: \
                         {CHECKPOINT_VERSION})"
                    )))
                }
            };
            let log_path = self.log_path(generation);
            let log = match fs::read(&log_path) {
                Ok(log) => log,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(io_err(e)),
            };
            let replayed = replay_log(&log, &mut checkpoint).map_err(IngestError::Checkpoint)?;
            if replayed < log.len() {
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(&log_path)
                    .map_err(io_err)?;
                file.set_len(replayed as u64).map_err(io_err)?;
                file.sync_all().map_err(io_err)?;
            }
            self.base_generation = Some(generation);
            self.base_bytes = raw.len() as u64;
            self.log_bytes = replayed as u64;
            self.recovered_fallback = rank > 0 || replayed < log.len();
            return Ok(Some(checkpoint));
        }
        Ok(None)
    }
}

impl CommitState {
    fn push_lines(&self, out: &mut Vec<u8>) {
        push_field(out, "generation", self.generation);
        push_field(out, "batch_high_water", self.batch_high_water);
        push_hex_field(out, "cumulative_digest", self.cumulative_digest);
        push_field(out, "reports", self.reports);
        push_field(out, "interner_tokens", self.interner_tokens);
        push_hex_field(out, "centres", self.centres_digest);
        push_field(out, "skipped", self.skipped.len() as u64);
        for &batch in &self.skipped {
            push_decimal(out, batch);
            out.push(b'\n');
        }
    }
}

/// Parse what a base and a log record share: the commit's header fields,
/// then `store <len>` and exactly `len` bytes of store payload (a snapshot
/// in a base, a delta in a record), which is returned unparsed.
fn parse_commit(mut rest: &str) -> Result<(CommitState, &str), String> {
    let generation = u64_field(&mut rest, "generation", 10)?;
    let batch_high_water = u64_field(&mut rest, "batch_high_water", 10)?;
    let cumulative_digest = u64_field(&mut rest, "cumulative_digest", 16)?;
    let reports = u64_field(&mut rest, "reports", 10)?;
    let interner_tokens = u64_field(&mut rest, "interner_tokens", 10)?;
    let centres_digest = u64_field(&mut rest, "centres", 16)?;
    let skipped_count = u64_field(&mut rest, "skipped", 10)? as usize;
    if skipped_count > batch_high_water as usize {
        return Err(format!(
            "skipped count {skipped_count} exceeds high-water mark {batch_high_water}"
        ));
    }
    let mut skipped = Vec::with_capacity(skipped_count.min(rest.len()));
    for _ in 0..skipped_count {
        let line = next_line(&mut rest).ok_or("truncated skipped batches")?;
        skipped.push(parse_u64(line, 10, "skipped batch")?);
    }
    let store_len = u64_field(&mut rest, "store", 10)? as usize;
    if store_len != rest.len() {
        return Err(format!(
            "store length {store_len}, but {} bytes follow",
            rest.len()
        ));
    }
    let state = CommitState {
        generation,
        batch_high_water,
        cumulative_digest,
        reports,
        interner_tokens,
        centres_digest,
        skipped,
    };
    Ok((state, rest))
}

/// Why a base checkpoint does not load.
#[derive(Debug, PartialEq)]
enum Unreadable {
    /// Cut, torn or scrambled: recovery falls back to the previous base.
    Damaged,
    /// Whole — its CRC holds — but written in another format version:
    /// recovery refuses the directory rather than fall back past (and later
    /// garbage-collect) a base it cannot read.
    Version(u64),
}

impl From<String> for Unreadable {
    fn from(_: String) -> Self {
        Unreadable::Damaged
    }
}

/// Parse and CRC-verify a serialised base checkpoint. Pure; never panics on
/// corrupt input.
fn parse_checkpoint(raw: &str) -> Result<Checkpoint, Unreadable> {
    // The CRC line covers every byte before it.
    let crc_at = raw.rfind("crc ").ok_or(Unreadable::Damaged)?;
    let (body, mut trailer) = raw.split_at(crc_at);
    let stated = u64_field(&mut trailer, "crc", 16)?;
    if !body.ends_with('\n') || !trailer.is_empty() || stated != stable_hash(body) {
        return Err(Unreadable::Damaged);
    }
    let mut rest = body;
    let version = version(&mut rest, "ingest")?;
    if version != u64::from(CHECKPOINT_VERSION) {
        return Err(Unreadable::Version(version));
    }
    let config_digest = u64_field(&mut rest, "config", 16)?;
    let (state, snapshot) = parse_commit(rest)?;
    Ok(Checkpoint {
        config_digest,
        state,
        store: PairStore::restore(snapshot)?,
    })
}

/// The next record of a delta log: `record <len>`, `len` bytes of commit,
/// `crc <hex>` over everything before it. Returns the commit text and the
/// record's total size, or `None` when the bytes at the head of `log` are
/// not a whole record that matches its CRC — a torn tail.
fn next_record(log: &[u8]) -> Option<(&str, usize)> {
    let header_end = log.iter().take(32).position(|&b| b == b'\n')?;
    let mut header = std::str::from_utf8(&log[..header_end]).ok()?;
    let len = u64_field(&mut header, "record", 10).ok()? as usize;
    let commit_end = (header_end + 1).checked_add(len)?;
    let end = commit_end.checked_add(CRC_LINE_BYTES)?;
    let framed = std::str::from_utf8(log.get(..commit_end)?).ok()?;
    let mut crc_line = std::str::from_utf8(log.get(commit_end..end)?)
        .ok()?
        .strip_suffix('\n')?;
    let stated = u64_field(&mut crc_line, "crc", 16).ok()?;
    if !crc_line.is_empty() || stated != stable_hash(framed) {
        return None;
    }
    Some((&framed[header_end + 1..], end))
}

/// Apply the records of a base's delta log to the checkpoint parsed from
/// that base, in order, and return how many bytes of the log replayed.
/// Replay ends at the first torn record (see [`next_record`]). A record
/// whose CRC holds must continue the state before it — the next generation,
/// a delta that applies to the store — or the log is inconsistent.
fn replay_log(log: &[u8], checkpoint: &mut Checkpoint) -> Result<usize, String> {
    let mut at = 0;
    while let Some((commit, size)) = next_record(&log[at..]) {
        let (state, delta) = parse_commit(commit)?;
        let expected = checkpoint.state.generation + 1;
        if state.generation != expected {
            return Err(format!(
                "log record has generation {}, expected {expected}",
                state.generation
            ));
        }
        checkpoint.store.apply_delta(delta)?;
        checkpoint.state = state;
        at += size;
    }
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_synth::{QuarterlyReplay, StreamingCorpus, SynthConfig};
    use fastknn::FastKnnConfig;

    fn replay(n: usize, dups: usize, seed: u64, quarter: u64) -> QuarterlyReplay {
        QuarterlyReplay::new(
            StreamingCorpus::new(SynthConfig::small(n, dups, seed)),
            quarter,
        )
    }

    fn dedup_config() -> DedupConfig {
        DedupConfig {
            bootstrap_negatives: 300,
            use_blocking: true,
            knn: FastKnnConfig {
                theta: 0.0,
                b: 8,
                ..FastKnnConfig::default()
            },
            ..DedupConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dedup-ingest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_run_commits_batches_and_survives_reopen() {
        let dir = temp_dir("fresh");
        let rp = replay(240, 14, 11, 60);
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        assert_eq!(svc.batch_high_water(), 0);
        let committed = svc.run(&rp, 4).unwrap();
        assert_eq!(committed, 4, "bootstrap + 3 detect batches");
        assert_eq!(svc.batch_high_water(), 4);
        let digest = svc.cumulative_digest();
        assert_ne!(digest, 0);
        let report = svc.job_report();
        assert_eq!(report.ingest.batches.len(), 4);
        assert_eq!(report.ingest.batches_quarantined, 0);
        drop(svc);
        // Reopen: nothing left to do, state is exactly where it was.
        let svc2 = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        assert_eq!(svc2.batch_high_water(), 4);
        assert_eq!(svc2.cumulative_digest(), digest);
        assert!(!svc2.recovered_with_fallback());
        let recovered = svc2.job_report().ingest;
        assert_eq!(
            (recovered.recoveries, recovered.checkpoint_fallbacks),
            (1, 0)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let dir = temp_dir("roundtrip");
        let rp = replay(240, 14, 11, 60);
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        svc.run(&rp, 3).unwrap();
        let base = svc.base_generation.expect("a base was written");
        let raw = fs::read_to_string(svc.checkpoint_path(base)).unwrap();
        let mut ckpt = parse_checkpoint(&raw).unwrap();
        assert_eq!(ckpt.state.generation, base);
        let log = fs::read(svc.log_path(base)).unwrap_or_default();
        assert_eq!(replay_log(&log, &mut ckpt), Ok(log.len()));
        assert_eq!(ckpt.state.generation, svc.generation - 1);
        assert_eq!(ckpt.state.batch_high_water, 3);
        assert_eq!(ckpt.state.cumulative_digest, svc.cumulative_digest());
        assert_eq!(ckpt.state.reports, svc.system().report_count() as u64);
        assert_eq!(
            ckpt.state.centres_digest,
            svc.system().store().training_digest_from_rows()
        );
        assert_eq!(ckpt.store.snapshot(), svc.system().store().snapshot());
        // Flipping any byte of the body breaks the CRC.
        let mut torn = raw.clone().into_bytes();
        torn[20] ^= 1;
        assert!(parse_checkpoint(std::str::from_utf8(&torn).unwrap()).is_err());
        // Truncation at any point is detected, not mis-parsed.
        for cut in [1usize, raw.len() / 2, raw.len() - 2] {
            let mut c = cut;
            while !raw.is_char_boundary(c) {
                c -= 1;
            }
            assert!(parse_checkpoint(&raw[..c]).is_err(), "cut at {c}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_generations_are_garbage_collected() {
        let dir = temp_dir("gc");
        let rp = replay(240, 14, 11, 20);
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        // Long enough to compact twice after the bootstrap base.
        let mut bases_written = Vec::new();
        for through in 1..=rp.quarters() {
            svc.run(&rp, through).unwrap();
            if bases_written.last() != svc.base_generation.as_ref() {
                bases_written.extend(svc.base_generation);
            }
        }
        assert!(bases_written.len() >= 3, "bases at {bases_written:?}");
        let generations_of = |suffix: &str| -> Vec<String> {
            let mut kept: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter_map(|n| n.strip_suffix(suffix).map(str::to_string))
                .collect();
            kept.sort();
            kept
        };
        let kept = generations_of(".ckpt");
        assert_eq!(kept.len(), KEEP_CHECKPOINTS, "{kept:?}");
        assert_eq!(svc.bases.len(), 2);
        // Logs live and die with their bases.
        for log in generations_of(".log") {
            assert!(kept.contains(&log), "orphan log {log}, bases {kept:?}");
        }
        assert!(generations_of(".tmp").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_zero_bootstrap_quarters() {
        let dir = temp_dir("cfg-bootstrap");
        let mut config = IngestConfig::new(&dir);
        config.bootstrap_quarters = 0;
        let rp = replay(240, 14, 11, 60);
        let err = IngestService::open(Cluster::local(1), dedup_config(), config, &rp)
            .err()
            .expect("a bootstrap of no quarters cannot run");
        assert!(matches!(&err, IngestError::Config(m) if m.contains("bootstrap_quarters")));
        assert!(!dir.exists(), "rejected before touching the directory");
    }

    #[test]
    fn a_version_1_checkpoint_is_refused_not_fallen_back_past() {
        let dir = temp_dir("v1");
        let rp = replay(240, 14, 11, 60);
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        svc.run(&rp, 1).unwrap();
        let path = svc.checkpoint_path(svc.base_generation.unwrap());
        drop(svc);
        // Rewrite the base as versions 1 to 3 wrote it: their header; for 1
        // and 2 the `pairstore v1` snapshot both embedded (`overflow_offers`
        // in its header, sections without a start, no slots) and version
        // 1's `lagged_pairs` line after the digest; a CRC that holds.
        // Version 3 wrote this very grammar, its `centres` line a hash chain
        // over the rows: only the header tells it apart.
        let v4 = fs::read_to_string(&path).unwrap();
        let body = &v4[..v4.rfind("crc ").unwrap()];
        let (fields, store) = body.split_at(body.find("\nstore ").unwrap() + 1);
        let snapshot = store.split_once('\n').unwrap().1;
        let old_snapshot = snapshot
            .replacen("pairstore v2\n", "pairstore v1\n", 1)
            .replacen("pairstore-delta v1\n", "", 1)
            .replacen("\nduplicates 0 ", "\nduplicates ", 1)
            .replacen("\nnon_duplicates 0 ", "\nnon_duplicates ", 1);
        let old_snapshot = old_snapshot.strip_suffix("slots 0\n").unwrap();
        let digest_line = fields
            .lines()
            .find(|l| l.starts_with("cumulative_digest"))
            .unwrap();
        for version in [1u64, 2, 3] {
            let mut fields = fields.replacen("ingest v4\n", &format!("ingest v{version}\n"), 1);
            if version == 1 {
                fields = fields.replacen(digest_line, &format!("{digest_line}\nlagged_pairs 0"), 1);
            }
            let store = if version == 3 { snapshot } else { old_snapshot };
            let mut old = format!("{fields}store {}\n{store}", store.len());
            let crc = stable_hash(old.as_str());
            old.push_str(&format!("crc {crc:016x}\n"));
            fs::write(&path, &old).unwrap();
            assert!(
                matches!(parse_checkpoint(&old), Err(Unreadable::Version(v)) if v == version),
                "version {version}"
            );
            let err = IngestService::open(
                Cluster::local(2),
                dedup_config(),
                IngestConfig::new(&dir),
                &rp,
            )
            .err()
            .expect("a base in an earlier version is refused");
            let want = format!("unsupported checkpoint version {version} (supported: 4)");
            assert!(
                matches!(&err, IngestError::Checkpoint(m) if *m == want),
                "{err}"
            );
            assert_eq!(fs::read_to_string(&path).unwrap(), old, "left as found");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A service run over `rp` whose final quarter holds two reports, so
    /// the last record of the current log is small enough to fuzz bytewise.
    fn run_with_a_small_last_record(tag: &str) -> (IngestService, QuarterlyReplay, PathBuf) {
        let dir = temp_dir(tag);
        let rp = replay(122, 8, 7, 30);
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        svc.run(&rp, rp.quarters()).unwrap();
        (svc, rp, dir)
    }

    /// Offsets at which the records of `log` start, and its length.
    fn record_bounds(log: &[u8]) -> Vec<usize> {
        let mut bounds = vec![0];
        while let Some((_, size)) = next_record(&log[*bounds.last().unwrap()..]) {
            bounds.push(bounds.last().unwrap() + size);
        }
        bounds
    }

    #[test]
    fn log_cut_or_scrambled_at_any_byte_of_its_last_record_loses_that_commit_only() {
        let (svc, _, dir) = run_with_a_small_last_record("log-bytes");
        let base = svc.base_generation.unwrap();
        let raw = fs::read_to_string(svc.checkpoint_path(base)).unwrap();
        let log = fs::read(svc.log_path(base)).unwrap();
        let bounds = record_bounds(&log);
        assert!(bounds.len() >= 3, "two records at least: {bounds:?}");
        assert_eq!(*bounds.last().unwrap(), log.len(), "whole log replays");
        let last_at = bounds[bounds.len() - 2];
        let mut before = parse_checkpoint(&raw).unwrap();
        assert_eq!(replay_log(&log[..last_at], &mut before), Ok(last_at));
        assert_eq!(before.state.generation, svc.generation - 2);
        let last = &log[last_at..];
        // A torn tail ends replay before anything is applied, so one
        // checkpoint serves every case and must come through untouched.
        let mut ckpt = before.clone();
        let mut scrambled = last.to_vec();
        for at in 0..last.len() {
            assert_eq!(replay_log(&last[..at], &mut ckpt), Ok(0), "cut at {at}");
            for flip in [0x01, 0x80] {
                scrambled[at] ^= flip;
                assert_eq!(
                    replay_log(&scrambled, &mut ckpt),
                    Ok(0),
                    "byte {at} ^ {flip:#x} must read as a torn tail"
                );
                scrambled[at] ^= flip;
            }
            assert_eq!(ckpt.state, before.state, "byte {at}");
        }
        assert_eq!(ckpt.store.snapshot(), before.store.snapshot());
        // Garbage after a whole record is a torn tail too, not an error.
        let mut trailing = last.to_vec();
        trailing.extend_from_slice(b"record 12\ngarbage");
        assert_eq!(replay_log(&trailing, &mut ckpt), Ok(last.len()));
        assert_eq!(ckpt.state.generation, svc.generation - 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_that_pass_their_crc_but_do_not_continue_the_state_are_typed_errors() {
        let (svc, rp, dir) = run_with_a_small_last_record("hostile-log");
        let base = svc.base_generation.unwrap();
        let log_path = svc.log_path(base);
        let good_log = fs::read(&log_path).unwrap();
        let clean_delta = svc.system().store().delta();
        let generation = svc.generation;
        let state = CommitState {
            generation,
            batch_high_water: svc.batch_high_water,
            cumulative_digest: svc.cumulative_digest,
            reports: svc.system().report_count() as u64,
            interner_tokens: svc.system().interner_len() as u64,
            centres_digest: svc.system().store().training_digest(),
            skipped: Vec::new(),
        };
        let duplicates = svc.system().store().duplicate_count();
        drop(svc);
        let open_with = |state: &CommitState, delta: &str| {
            let mut commit = Vec::new();
            state.push_lines(&mut commit);
            let mut commit = into_text(commit);
            commit.push_str(&format!("store {}\n{delta}", delta.len()));
            let mut framed = format!("record {}\n{commit}", commit.len());
            let crc = stable_hash(framed.as_str());
            framed.push_str(&format!("crc {crc:016x}\n"));
            let mut log = good_log.clone();
            log.extend_from_slice(framed.as_bytes());
            fs::write(&log_path, log).unwrap();
            IngestService::open(
                Cluster::local(2),
                dedup_config(),
                IngestConfig::new(&dir),
                &rp,
            )
        };
        let rejects = |state: &CommitState, delta: &str, why: &str| match open_with(state, delta) {
            Err(IngestError::Checkpoint(msg)) => {
                assert!(msg.contains(why), "{msg:?} should mention {why:?}")
            }
            Err(other) => panic!("expected a checkpoint error, got {other}"),
            Ok(_) => panic!("hostile record ({why}) was accepted"),
        };
        // Control: the same framing around an honest (empty) commit opens.
        let svc = open_with(&state, &clean_delta).expect("honest record");
        assert_eq!(svc.generation, generation + 1);
        assert!(!svc.recovered_with_fallback());
        drop(svc);

        let pair = format!("7 9{}", " 0000000000000000".repeat(8));
        rejects(
            &state,
            &clean_delta.replace("slots 0\n", &format!("slots 1\n20000 {pair}\n")),
            "slot 20000 outside the reservoir",
        );
        let dup_header = format!("duplicates {duplicates} 0");
        assert!(clean_delta.contains(&dup_header));
        rejects(
            &state,
            &clean_delta.replace(&dup_header, &format!("duplicates {} 0", duplicates + 1)),
            "duplicates delta starts at",
        );
        rejects(
            &state,
            &clean_delta.replace(
                &dup_header,
                &format!("duplicates {duplicates} {}", u64::MAX),
            ),
            "exceeds delta size",
        );
        for generation in [generation + 1, generation - 1, 0] {
            let skewed = CommitState {
                generation,
                ..state.clone()
            };
            rejects(&skewed, &clean_delta, "expected");
        }
        let beyond = CommitState {
            batch_high_water: rp.quarters() + 1,
            ..state.clone()
        };
        rejects(&beyond, &clean_delta, "beyond the replay");
        let mut overcounted = state.clone();
        overcounted.skipped = vec![1; state.batch_high_water as usize + 1];
        rejects(&overcounted, &clean_delta, "exceeds high-water mark");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_of_bases_without_logs_still_opens() {
        // What the service wrote before it kept a log: a full base per
        // commit, the last two kept. Forgetting the current base before
        // each commit makes every commit write one.
        let rp = replay(160, 10, 42, 40);
        let reference = {
            let dir = temp_dir("bases-only-ref");
            let mut svc = IngestService::open(
                Cluster::local(2),
                dedup_config(),
                IngestConfig::new(&dir),
                &rp,
            )
            .unwrap();
            svc.run(&rp, rp.quarters()).unwrap();
            let _ = fs::remove_dir_all(&dir);
            svc.cumulative_digest()
        };
        let dir = temp_dir("bases-only");
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        for through in 1..=3 {
            svc.base_generation = None;
            svc.run(&rp, through).unwrap();
        }
        drop(svc);
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["ckpt-00000001.ckpt", "ckpt-00000002.ckpt"]);
        let mut svc = IngestService::open(
            Cluster::local(2),
            dedup_config(),
            IngestConfig::new(&dir),
            &rp,
        )
        .unwrap();
        assert_eq!(svc.batch_high_water(), 3);
        assert!(!svc.recovered_with_fallback());
        svc.run(&rp, rp.quarters()).unwrap();
        assert_eq!(svc.cumulative_digest(), reference);
        assert!(svc.log_path(2).exists(), "the next commit starts a log");
        let _ = fs::remove_dir_all(&dir);
    }
}
