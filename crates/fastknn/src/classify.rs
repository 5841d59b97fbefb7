//! Distributed Fast kNN classification on sparklet: the paper's Algorithm
//! 2, and the one-stage route the product classifies with.
//!
//! # Algorithm 2
//!
//! [`FastKnn::classify`], [`FastKnn::classify_batch`] and
//! [`FastKnn::classify_blocks`] map the paper's Spark-primitive formulation
//! onto the engine one-for-one. Figs. 6b–11 run this route: they count its
//! comparisons, memory kills and blocks.
//!
//! | Algorithm 2 step | here |
//! |---|---|
//! | 1. k-means partition of `T` into `b` clusters | [`VoronoiPartition::build`] at [`FastKnn::fit`] |
//! | 2–3. map: assign each `s ∈ S` its closest centre | per-block `map` + `partition_by` on cluster id |
//! | 4. split `S` into `c` partitions | driver loop over the test blocks — `c` of them, or the count the caller gives [`FastKnn::classify_blocks`] |
//! | 6–8. join with `T⁻` on cluster id + top-k aggregate | `zip_partitions` of the block with the negative-cluster dataset, computed and cached by the first block that joins it; per row, [`stage1_row`] |
//! | 9–10. distances to `T⁺`, merge | same routine (positives are broadcast, and windowed like a cell) |
//! | 11–12. Algorithm 1 partition selection | same routine |
//! | 13–15. join with additional partitions, union + reduce to merge top-k | probe shuffle + second `zip_partitions` + `union` + `reduce_by_key` |
//! | 17. score per Eq. 5 | `map` over merged neighbourhoods |
//!
//! The table's left column, written out literally — rows not columns, no
//! pruning, `join` / `aggregate_by_key` / `union` / `reduce_by_key` and
//! nothing else — is `algorithm2_literal` in `tests/engine_algorithms.rs`,
//! differential-tested against [`FastKnn::classify`] and brute force.
//!
//! A block is **one action of four stages**: the assignment shuffle's map
//! side, the probe shuffle's (which runs stage 1 and caches its output), the
//! merge shuffle's (stage 2 plus the cached stage-1 neighbourhoods), and the
//! final collect, where each partition's merged rows are joined by the rows
//! stage 1 had already resolved.
//!
//! # The product: one stage, no shuffle
//!
//! [`FastKnn::classify_distinct`] is the one classify call of `detect_new`,
//! ingest and serving. Algorithm 2 joins test blocks with training cells
//! cached on the cluster because the paper's 1M–5M training pairs do not fit
//! on one node. The product's store is capped (20,000 vectors, ≈ 1.3 MB),
//! and its engine runs in-process, so the whole [`VoronoiPartition`] is in
//! every task's reach behind an `Arc`: Spark's broadcast join, at no cost.
//! The product therefore classifies in **one** stage, [`CLASSIFY_STAGE`],
//! over contiguous runs of rows. Each task assigns its rows
//! ([`VoronoiPartition::assign_balanced_batch`]) and, visiting them cell by
//! cell, runs `classify_row` on each: stage 1, then Algorithm 1's extra
//! cells scanned into the same running hood, then Eq. 5. The hood is a total-order top-k over the
//! candidate set, so every result is bit-identical to Algorithm 2's. The
//! comparison counts are not: the running cutoff only tightens, and every
//! scan walks [`Walk::Lattice`] — on §4.2's data, a cell's trie of bit
//! patterns in Hamming order, then Jaccard values outward from the query's
//! ([`crate::lattice`]) — where Algorithm 2 walks [`Walk::Center`], the
//! order Figs. 6b–11 count.
//!
//! Each task works on contiguous struct-of-arrays batches: the cached
//! negative dataset is one `Arc<VecBatch>` per Voronoi cell, test blocks are
//! parallelized as contiguous [`VecBatch`] chunks, and every candidate scan
//! inside a task is a tiled column-kernel sweep. Per-task working buffers
//! come from a shared [`ScratchPool`], so steady-state classification does
//! not allocate distance buffers per test pair. Shuffled records (probes,
//! neighbourhood bases) still carry stack arrays, not heap vectors.

use crate::counters;
use crate::score::{label_for, score_neighbors};
use crate::serial::{classify_row, RowCounts};
use crate::soa::{from_labeled, from_unlabeled, ScratchPool, VecBatch};
use crate::stage1::{stage1_row, Stage1Row};
use crate::types::{LabeledPair, Neighborhood, ScoredPair, UnlabeledPair, PAIR_DIMS};
use crate::voronoi::{VoronoiPartition, Walk};
use simmetrics::hash::WordMap;
use sparklet::{Cluster, EventKind, IndexPartitioner, PairRdd, Rdd, Result, SparkletError};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Fast kNN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct FastKnnConfig {
    /// Number of neighbours `k` (odd in the paper; Eq. 5 does not require
    /// it, but the Eq. 1 baseline does).
    pub k: usize,
    /// Number of training clusters `b` (the Fig. 7/8 knob).
    pub b: usize,
    /// Number of test blocks `c` (the Fig. 9 "block number" knob).
    pub c: usize,
    /// Score threshold θ of Eq. 6.
    pub theta: f64,
    /// Seed for k-means.
    pub seed: u64,
}

impl Default for FastKnnConfig {
    fn default() -> Self {
        FastKnnConfig {
            k: 9,
            b: 32,
            c: 4,
            theta: 0.0,
            seed: 2016,
        }
    }
}

/// The name of the product's one classify stage
/// ([`FastKnn::classify_distinct`]): what a fault schedule names to kill an
/// executor in it.
pub const CLASSIFY_STAGE: &str = "classify";

/// Representatives one task of [`CLASSIFY_STAGE`] holds at least: a
/// stage of `n` rows runs in `n / 512` tasks, one below 1,024 rows, and a
/// stage of several is rounded up to a multiple of the cluster's worker
/// threads ([`stage_tasks`]). Measured on two cores after the lattice's
/// trie, a representative costs ≈ 0.9 µs of one core, and splitting a
/// stage adds ≈ 35 µs to its wall (a helper's wake-up and join, with
/// 0.1–1 ms of work split in two), so a 1,024-row stage split in two
/// finishes ≈ 0.4 ms sooner. Smaller tasks (256 or 128 rows) measured no
/// faster on `stream-ingest` commits or saturated serving. A served probe
/// (25 representatives at the median) is one task, which the driver
/// thread runs without waking anybody.
const STAGE_TASK_ROWS: usize = 512;

/// How many tasks a [`CLASSIFY_STAGE`] of `rows` representatives runs in
/// on `slots` worker threads: one per [`STAGE_TASK_ROWS`], at least one,
/// and a stage of several rounded up to a multiple of `slots`, so that no
/// round of tasks leaves a slot idle.
fn stage_tasks(rows: usize, slots: usize) -> usize {
    match rows / STAGE_TASK_ROWS {
        0 | 1 => 1,
        tasks => tasks.next_multiple_of(slots.max(1)),
    }
}

/// The counters a pruning pass moves, in the order `PruneApplied` reads them.
const PASS_COUNTERS: [&str; 6] = [
    counters::PRUNE_CELLS_SKIPPED,
    counters::PRUNE_BOUND_REJECTED,
    counters::PRUNE_EVALS_AVOIDED,
    counters::INTRA_COMPARISONS,
    counters::CROSS_COMPARISONS,
    counters::POSITIVE_COMPARISONS,
];

/// [`PASS_COUNTERS`] read off `cluster` before a classification, so that
/// [`PassStart::journal`] can record what it did.
struct PassStart([u64; 6]);

impl PassStart {
    fn take(cluster: &Cluster) -> PassStart {
        PassStart(PASS_COUNTERS.map(|name| cluster.metrics().counter(name).get()))
    }

    /// Coalesce the classification since `self` into one `PruneApplied`
    /// event, driver-side (tasks have no journal access): counter deltas
    /// across its jobs, folded into the report's `prune` section as one
    /// pass per product call or Algorithm 2 block. A model without the
    /// distance metadata journals its passes too, with nothing avoided.
    fn journal(self, cluster: &Cluster) {
        let after = PassStart::take(cluster).0;
        let delta = |i: usize| after[i].saturating_sub(self.0[i]);
        cluster.journal().record(EventKind::PruneApplied {
            cells_skipped: delta(0),
            bound_rejected: delta(1),
            evals_avoided: delta(2),
            evals_done: delta(3) + delta(4) + delta(5),
        });
    }
}

/// Intermediate record between stage 1 and stage 2.
#[derive(Clone)]
enum StageOut<const D: usize> {
    /// Resolved by the all-negative shortcut.
    Done(ScoredPair),
    /// Needs cross-cluster search: stage-1 neighbourhood (sent once).
    Base { id: u64, hood: Neighborhood },
    /// Probe to run against cluster `target`. Carries the stage-1
    /// neighbourhood's k-th distance² so the stage-2 scan starts with a
    /// tight cutoff: any candidate beyond it is already beaten by k known
    /// candidates and cannot enter the merged top-k.
    Probe {
        target: usize,
        id: u64,
        vector: [f64; D],
        kth_sq: f64,
    },
}

/// A stage-2 probe keyed by its target cell: `(id, vector, kth_sq)` — the
/// test pair plus its stage-1 initial cutoff (see [`StageOut::Probe`]).
type Probe<const D: usize> = (usize, (u64, [f64; D], f64));

/// What [`FastKnn::classify_distinct`] returns: one result per
/// representative row, and each row's representative.
#[derive(Debug, Clone, PartialEq)]
pub struct DistinctScores {
    /// The representatives' results, in the order of their rows, each
    /// under its representative row's own id.
    pub scored: Vec<ScoredPair>,
    /// Row `i`'s representative: an index into `scored`.
    pub rep_of_row: Vec<u32>,
}

impl DistinctScores {
    /// Row `i`'s result: its representative's. The score, label and
    /// shortcut are the row's own; the id is the representative's.
    pub fn of_row(&self, i: usize) -> &ScoredPair {
        &self.scored[self.rep_of_row[i] as usize]
    }
}

/// A fitted distributed Fast kNN model bound to a [`Cluster`].
pub struct FastKnn<const D: usize = PAIR_DIMS> {
    config: FastKnnConfig,
    cluster: Cluster,
    voronoi: Arc<VoronoiPartition<D>>,
    /// Negative training cells keyed by cluster id — the partition's own
    /// `Arc<VecBatch>` per Voronoi cell, cell `i` in engine partition `i`.
    /// Only Algorithm 2 reads it: marked for caching but lazy, it is
    /// computed and pinned in the block manager by the first block's
    /// stage-1 `zip_partitions` (the paper relies on Spark's in-memory RDD
    /// caching for exactly this dataset), and a model that only runs
    /// [`FastKnn::classify_distinct`] never computes it.
    negatives: Rdd<(usize, Arc<VecBatch<D>>)>,
    /// Per-worker scratch buffers shared by all classification tasks.
    scratch: Arc<ScratchPool<D>>,
}

impl<const D: usize> FastKnn<D> {
    /// Partition the training set and declare the negative-cell dataset
    /// Algorithm 2 joins with. This is Algorithm 2 step 1 plus the
    /// training-side `join` preparation; it launches no job. An empty
    /// training set or `b == 0` is a [`SparkletError::User`]: there is
    /// nothing to partition. So are the configurations
    /// [`FastKnn::from_partition`] refuses.
    pub fn fit(
        cluster: &Cluster,
        train: &[LabeledPair<D>],
        config: FastKnnConfig,
    ) -> Result<FastKnn<D>> {
        Self::fit_batch(cluster, &from_labeled(train), config)
    }

    /// [`FastKnn::fit`] on training pairs already in columns, each row
    /// under its id and label: what the product fits from (a store fills
    /// the batch column by column), the same model as `fit` on the same
    /// rows.
    pub fn fit_batch(
        cluster: &Cluster,
        train: &VecBatch<D>,
        config: FastKnnConfig,
    ) -> Result<FastKnn<D>> {
        if train.is_empty() || config.b == 0 {
            return Err(SparkletError::User(format!(
                "FastKnn::fit: nothing to partition ({} training pairs, b = {})",
                train.len(),
                config.b
            )));
        }
        let slots = cluster.config().worker_threads();
        let voronoi = VoronoiPartition::build_batch(train, config.b, config.seed, slots);
        Self::from_partition(cluster, voronoi, config)
    }

    /// Declare `voronoi`'s negative cells as a lazily cached engine
    /// dataset: the training-side `join` preparation, for a partition
    /// already built (`config.b` and `config.seed` are not read). It
    /// launches no job. The bit-exact unpruned reference is
    /// this over `VoronoiPartition::build(..).without_prune_metadata()`:
    /// the same routines, finding no sorted distances, sweep every resident
    /// and every positive and skip no cell.
    ///
    /// `k == 0` and a θ that is not finite are [`SparkletError::User`]:
    /// with no neighbour every score is 0, so at θ = 0 every pair would be
    /// a duplicate; no score compares above a NaN or +∞, so no pair ever
    /// would; and every Eq. 5 score is finite (see [`crate::SCORE_EPS`]),
    /// so at −∞ every pair would.
    pub fn from_partition(
        cluster: &Cluster,
        voronoi: VoronoiPartition<D>,
        config: FastKnnConfig,
    ) -> Result<FastKnn<D>> {
        if config.k == 0 || !config.theta.is_finite() {
            return Err(SparkletError::User(format!(
                "FastKnn: cannot score with k = {} at θ = {}",
                config.k, config.theta
            )));
        }
        // Install spill codecs before any job runs: the negative-cell cache
        // and all three classification shuffles must be able to overflow to
        // the disk tier instead of aborting under a tight memory budget.
        crate::spill::register_spill_codecs::<D>(cluster.spill());
        let voronoi = Arc::new(voronoi);
        let b = voronoi.b();
        // `b` cells over `b` partitions: cell `i` is partition `i`, and the
        // engine shares the partition's cell, it does not copy it.
        let keyed: Vec<(usize, Arc<VecBatch<D>>)> = voronoi
            .negative_clusters
            .iter()
            .cloned()
            .enumerate()
            .collect();
        let negatives = cluster.parallelize(keyed, b).cache();
        Ok(FastKnn {
            config,
            cluster: cluster.clone(),
            voronoi,
            negatives,
            scratch: Arc::new(ScratchPool::new()),
        })
    }

    /// The model's Voronoi partition (centres, cluster sizes, positives).
    pub fn voronoi(&self) -> &VoronoiPartition<D> {
        &self.voronoi
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &FastKnnConfig {
        &self.config
    }

    /// Classify a test set. Returns one [`ScoredPair`] per input, sorted by
    /// id. Thin row-wrapper over [`FastKnn::classify_batch`].
    pub fn classify(&self, test: &[UnlabeledPair<D>]) -> Result<Vec<ScoredPair>> {
        self.classify_batch(&from_unlabeled(test))
    }

    /// Classify a column batch of test pairs in the configured
    /// [`FastKnnConfig::c`] blocks: [`FastKnn::classify_blocks`] at
    /// `blocks = c`.
    pub fn classify_batch(&self, test: &VecBatch<D>) -> Result<Vec<ScoredPair>> {
        self.classify_blocks(test, self.config.c)
    }

    /// Classify a column batch of test pairs, cut into `blocks` sequential
    /// blocks of equal size (at least one; never more than there are rows).
    /// Returns one [`ScoredPair`] per row, sorted by id. Each block is one
    /// engine action of four stages — assignment, stage 1 against the
    /// cached negative clusters, the stage-2 probes, the merge — so the
    /// block count trades the size of the joined partitions against the
    /// per-block launch cost (the paper's Fig. 9). Rows are classified
    /// independently of one another, so the result is bit-identical at
    /// every block count.
    pub fn classify_blocks(&self, test: &VecBatch<D>, blocks: usize) -> Result<Vec<ScoredPair>> {
        let mut results: Vec<ScoredPair> = Vec::with_capacity(test.len());
        let block_size = test.len().div_ceil(blocks.max(1)).max(1);
        for block in test.chunk_rows(block_size) {
            results.extend(self.classify_block(block)?);
        }
        results.sort_by_key(|s| s.id);
        Ok(results)
    }

    /// The product's classification (see the module doc): one engine stage,
    /// [`CLASSIFY_STAGE`], with the work done once per *distinct* row —
    /// §4.2's distance vectors are nearly discrete (five 0/1 fields, two
    /// short Jaccard ratios), so a bulk batch repeats each bit pattern
    /// several times over. Returns the representatives' results and each
    /// row's representative ([`DistinctScores`]): row `i`'s result,
    /// [`DistinctScores::of_row`], is bit-identical in score, label and
    /// shortcut to Algorithm 2's [`FastKnn::classify_blocks`] for that row.
    /// As there, ids must be unique within the batch.
    ///
    /// What "distinct" has to mean: a score is a function of the vector
    /// *and of the cell the row is assigned to*. Among centres tied for
    /// nearest — sibling chunks of a rebalanced cell always tie —
    /// [`VoronoiPartition::assign_balanced_batch`] picks by `id % tied`,
    /// and the all-negative shortcut scores from the assigned sibling's
    /// residents alone, so two rows with one vector can differ in score. The
    /// key is therefore (the `D` `to_bits` words, `id % tie_count`): each
    /// vector that several rows hold gets [`VoronoiPartition::tie_count`]
    /// slots, a row lands in slot `id % tie_count`, and the first row in a
    /// slot represents it **under its own id**, so the stage assigns it
    /// the very cell every row of the slot would get.
    ///
    /// The driver's passes, on a `bulk-detect` batch of ≈ 364k rows and
    /// ≈ 72k representatives: one hash of every row's bits (the grouping,
    /// the largest), the tie counts of the vectors seen twice, one pass
    /// placing every row in its slot, and the stage over the
    /// representatives alone, in runs of at least 1,024 per task. Nothing
    /// is scattered back or sorted: a caller reads each row through its
    /// representative.
    ///
    /// [`FastKnn::classify_batch`] and `classify_blocks` stay Algorithm 2,
    /// per row: the paper's Figs. 6b–11 count its comparisons per test pair,
    /// and it is the oracle this is tested against.
    pub fn classify_distinct(&self, test: &VecBatch<D>) -> Result<DistinctScores> {
        // Group the rows by vector, in first-seen order. The keys are the
        // batch's own bit patterns, so they hash as words.
        let mut group_of: WordMap<[u64; D], usize> = WordMap::default();
        let mut firsts: Vec<usize> = Vec::new();
        let mut repeated: Vec<bool> = Vec::new();
        let group_of_row: Vec<usize> = (0..test.len())
            .map(|i| match group_of.entry(test.row(i).map(f64::to_bits)) {
                Entry::Occupied(seen) => {
                    repeated[*seen.get()] = true;
                    *seen.get()
                }
                Entry::Vacant(new) => {
                    firsts.push(i);
                    repeated.push(false);
                    *new.insert(firsts.len() - 1)
                }
            })
            .collect();
        // Group `g` gets `tied[g]` slots from `first_slot[g]` on: one per
        // tied centre where rows collide, one for a vector seen once (its
        // row represents itself, whatever cell it is assigned).
        let collided: Vec<usize> = (0..firsts.len()).filter(|&g| repeated[g]).collect();
        let collided_rows: Vec<usize> = collided.iter().map(|&g| firsts[g]).collect();
        let mut tie_counts = Vec::new();
        self.scratch.with(|s| {
            let vectors = test.gather(&collided_rows);
            self.voronoi
                .tie_counts(&vectors, &mut tie_counts, &mut s.dists)
        });
        let mut tied = vec![1; firsts.len()];
        for (&g, &count) in collided.iter().zip(&tie_counts) {
            tied[g] = count;
        }
        let mut slots = 0;
        let first_slot: Vec<usize> = tied
            .iter()
            .map(|count| {
                slots += count;
                slots - count
            })
            .collect();
        // The first row to land in a slot represents it: `slot_rep` holds
        // its index in `reps`, `rep_of_row` the same for every row.
        const EMPTY: u32 = u32::MAX;
        let mut slot_rep = vec![EMPTY; slots];
        let mut reps: Vec<usize> = Vec::new();
        let rep_of_row: Vec<u32> = group_of_row
            .iter()
            .zip(test.ids())
            .enumerate()
            .map(|(i, (&g, &id))| {
                let rep = &mut slot_rep[first_slot[g] + id as usize % tied[g]];
                if *rep == EMPTY {
                    *rep = u32::try_from(reps.len()).expect("fewer than 2³² − 1 representatives");
                    reps.push(i);
                }
                *rep
            })
            .collect();
        let scored = self.classify_stage(test, &reps)?;
        self.cluster
            .metrics()
            .counter(counters::ROWS_SHARED)
            .add((test.len() - reps.len()) as u64);
        Ok(DistinctScores { scored, rep_of_row })
    }

    /// Classify rows `rows` of `test` in one [`CLASSIFY_STAGE`] of
    /// [`stage_tasks`] contiguous runs of about equal rows; one
    /// [`ScoredPair`] per row, in `rows` order. No rows, no stage.
    fn classify_stage(&self, test: &VecBatch<D>, rows: &[usize]) -> Result<Vec<ScoredPair>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let (k, theta) = (self.config.k, self.config.theta);
        let (n, tasks) = (
            rows.len(),
            stage_tasks(rows.len(), self.cluster.config().worker_threads()),
        );
        let runs: Arc<Vec<VecBatch<D>>> = Arc::new(
            (0..tasks)
                .map(|t| test.gather(&rows[t * n / tasks..(t + 1) * n / tasks]))
                .collect(),
        );
        let voronoi = self.voronoi.clone();
        let scratch = self.scratch.clone();
        let pass = PassStart::take(&self.cluster);
        let scored = self
            .cluster
            .run_job(CLASSIFY_STAGE, runs.len(), move |task, ctx| {
                let run = &runs[task];
                // The partition is broadcast, not held per task; the task
                // holds its own rows, as stage 1 held its joined block.
                let bytes = run.len() * D * 8;
                ctx.hold_memory(bytes)?;
                let centers = (run.len() * voronoi.b()) as u64;
                let mut total = RowCounts::default();
                let mut shortcuts = 0u64;
                let out: Vec<ScoredPair> = scratch.with(|s| {
                    let mut cells = Vec::new();
                    voronoi.assign_balanced_batch(run, &mut cells, &mut s.dists);
                    // Visit the rows cell by cell, each cell's from its
                    // centre outward, as Algorithm 2's per-cell stage-1
                    // tasks did: a cell's residents stay in cache from one
                    // row to the next. Measured on two cores, an ingest
                    // commit's ≈ 2,400 representatives classify ≈ 16 %
                    // faster than in row order.
                    let n = run.len();
                    let to_center = |i: usize| s.dists[cells[i] * n + i];
                    let mut order: Vec<usize> = (0..n).collect();
                    order.sort_unstable_by(|&a, &b| {
                        cells[a]
                            .cmp(&cells[b])
                            .then(to_center(a).total_cmp(&to_center(b)))
                    });
                    let mut out = vec![None; n];
                    for i in order {
                        let v = run.row(i);
                        let (scored, counts) =
                            classify_row(&voronoi, cells[i], run.id(i), &v, k, theta, s);
                        total.add(&counts);
                        shortcuts += u64::from(scored.shortcut);
                        out[i] = Some(scored);
                    }
                    out.into_iter()
                        .map(|scored| scored.expect("every row is visited once"))
                        .collect()
                });
                let stage1 = &total.stage1;
                ctx.charge_ops(
                    centers
                        + stage1.intra_evaluated
                        + stage1.positives_evaluated
                        + total.cross_evaluated,
                );
                ctx.counter(counters::CENTER_COMPARISONS).add(centers);
                ctx.counter(counters::INTRA_COMPARISONS)
                    .add(stage1.intra_evaluated);
                ctx.counter(counters::POSITIVE_COMPARISONS)
                    .add(stage1.positives_evaluated);
                ctx.counter(counters::CROSS_COMPARISONS)
                    .add(total.cross_evaluated);
                ctx.counter(counters::ADDITIONAL_CLUSTERS)
                    .add(total.extra_cells);
                ctx.counter(counters::SHORTCUT_SKIPS).add(shortcuts);
                ctx.counter(counters::PRUNE_CELLS_SKIPPED)
                    .add(stage1.cells_skipped);
                ctx.counter(counters::PRUNE_BOUND_REJECTED)
                    .add(stage1.bound_rejected + total.cross_rejected);
                ctx.counter(counters::PRUNE_EVALS_AVOIDED)
                    .add(stage1.evals_avoided + total.cross_rejected);
                ctx.release_memory(bytes);
                Ok(out)
            })?;
        pass.journal(&self.cluster);
        Ok(scored.into_iter().flatten().collect())
    }

    fn classify_block(&self, block: VecBatch<D>) -> Result<Vec<ScoredPair>> {
        let b = self.voronoi.b();
        let k = self.config.k;
        let theta = self.config.theta;
        let voronoi = self.voronoi.clone();
        let pass = PassStart::take(&self.cluster);

        // Steps 2–3: assign each test pair to its Voronoi cell. Each
        // assignment partition receives one contiguous sub-batch.
        let n_parts = b.min(block.len()).max(1);
        let chunk_len = block.len().div_ceil(n_parts).max(1);
        let chunks: Vec<VecBatch<D>> = block.chunk_rows(chunk_len);
        let n_chunks = chunks.len().max(1);
        let vor_assign = voronoi.clone();
        let assign_scratch = self.scratch.clone();
        let assigned: Rdd<(usize, UnlabeledPair<D>)> = self
            .cluster
            .parallelize(chunks, n_chunks)
            .map_partitions_with_ctx(move |ctx, _, part: Vec<VecBatch<D>>| {
                let rows: usize = part.iter().map(VecBatch::len).sum();
                ctx.counter(counters::CENTER_COMPARISONS)
                    .add((rows * vor_assign.b()) as u64);
                ctx.charge_ops((rows * vor_assign.b()) as u64);
                let mut out = Vec::with_capacity(rows);
                assign_scratch.with(|s| {
                    let mut cells = Vec::new();
                    for batch in &part {
                        vor_assign.assign_balanced_batch(batch, &mut cells, &mut s.dists);
                        for (i, &cid) in cells.iter().enumerate() {
                            out.push((cid, UnlabeledPair::new(batch.id(i), batch.row(i))));
                        }
                    }
                });
                Ok(out)
            })
            .partition_by(Arc::new(IndexPartitioner::new(b)));

        // Steps 6–12: intra-cluster kNN + positives + Algorithm 1.
        let vor_stage1 = voronoi.clone();
        let stage1_scratch = self.scratch.clone();
        let stage_out: Rdd<StageOut<D>> = assigned
            .zip_partitions(
                &self.negatives,
                move |ctx,
                      tests: Vec<(usize, UnlabeledPair<D>)>,
                      negs: Vec<(usize, Arc<VecBatch<D>>)>| {
                    let empty = VecBatch::new();
                    let cell: &VecBatch<D> = negs.first().map_or(&empty, |(_, c)| c);
                    // Model executor memory: the joined block must be
                    // resident (paper Fig. 8b: small b ⇒ oversized joined
                    // partitions ⇒ task kills and retries).
                    let bytes = (tests.len() + cell.len()) * D * 8;
                    ctx.hold_memory(bytes)?;
                    let mut out = Vec::with_capacity(tests.len());
                    let mut total = Stage1Row::default();
                    let mut shortcuts = 0u64;
                    let mut extra_cells = 0u64;
                    stage1_scratch.with(|s| {
                        for (assigned_cid, t) in tests {
                            let row = stage1_row(
                                &vor_stage1,
                                cell,
                                assigned_cid,
                                &t.vector,
                                k,
                                Walk::Center,
                                s,
                            );
                            total.add(&row);
                            shortcuts += u64::from(row.shortcut);
                            extra_cells += s.extra.len() as u64;
                            if s.extra.is_empty() {
                                let score = score_neighbors(&s.hood);
                                out.push(StageOut::Done(ScoredPair {
                                    id: t.id,
                                    score,
                                    positive: label_for(score, theta),
                                    shortcut: row.shortcut,
                                }));
                                continue;
                            }
                            // The stage-1 kth travels with each probe so the
                            // stage-2 scan starts with a tight cutoff.
                            let kth_sq = s.hood.kth_distance_sq();
                            out.push(StageOut::Base {
                                id: t.id,
                                hood: s.hood.clone(),
                            });
                            for &target in &s.extra {
                                out.push(StageOut::Probe {
                                    target,
                                    id: t.id,
                                    vector: t.vector,
                                    kth_sq,
                                });
                            }
                        }
                    });
                    // Positives are charged as evaluated, like residents:
                    // the window leaves most of both unevaluated.
                    ctx.charge_ops(total.intra_evaluated + total.positives_evaluated);
                    ctx.counter(counters::INTRA_COMPARISONS)
                        .add(total.intra_evaluated);
                    ctx.counter(counters::POSITIVE_COMPARISONS)
                        .add(total.positives_evaluated);
                    ctx.counter(counters::ADDITIONAL_CLUSTERS).add(extra_cells);
                    ctx.counter(counters::SHORTCUT_SKIPS).add(shortcuts);
                    ctx.counter(counters::PRUNE_CELLS_SKIPPED)
                        .add(total.cells_skipped);
                    ctx.counter(counters::PRUNE_BOUND_REJECTED)
                        .add(total.bound_rejected);
                    ctx.counter(counters::PRUNE_EVALS_AVOIDED)
                        .add(total.evals_avoided);
                    ctx.release_memory(bytes);
                    Ok(out)
                },
            )?
            .cache();

        let bases: Rdd<(u64, Neighborhood)> = stage_out.flat_map(|o| match o {
            StageOut::Base { id, hood } => vec![(id, hood)],
            _ => vec![],
        });
        let probes: Rdd<Probe<D>> = stage_out.flat_map(|o| match o {
            StageOut::Probe {
                target,
                id,
                vector,
                kth_sq,
            } => vec![(target, (id, vector, kth_sq))],
            _ => vec![],
        });

        // Steps 13–15: cross-cluster comparison, then merge the top-k lists.
        let stage2_scratch = self.scratch.clone();
        let vor_stage2 = voronoi.clone();
        let probe_hits: Rdd<(u64, Neighborhood)> = probes
            .partition_by(Arc::new(IndexPartitioner::new(b)))
            .zip_partitions(
                &self.negatives,
                move |ctx, probes: Vec<Probe<D>>, negs: Vec<(usize, Arc<VecBatch<D>>)>| {
                    let empty = VecBatch::new();
                    let (cid, cell): (usize, &VecBatch<D>) =
                        negs.first().map_or((0, &empty), |(cid, cell)| (*cid, cell));
                    let mut out = Vec::with_capacity(probes.len());
                    let mut evaluated = 0u64;
                    let mut bound_rejected = 0u64;
                    stage2_scratch.with(|s| {
                        for (_, (id, vector, kth_sq)) in probes {
                            // The probe's stage-1 kth seeds the cutoff;
                            // candidates beyond it cannot enter the merged
                            // top-k, so the local hood it fills merges
                            // losslessly.
                            let mut hood = Neighborhood::new(k);
                            let stats = vor_stage2.scan_cell(
                                Walk::Center,
                                cid,
                                cell,
                                &vector,
                                kth_sq,
                                &mut hood,
                                &mut s.dists,
                            );
                            evaluated += stats.evaluated;
                            bound_rejected += stats.bound_rejected;
                            out.push((id, hood));
                        }
                    });
                    ctx.charge_ops(evaluated);
                    ctx.counter(counters::CROSS_COMPARISONS).add(evaluated);
                    ctx.counter(counters::PRUNE_BOUND_REJECTED)
                        .add(bound_rejected);
                    ctx.counter(counters::PRUNE_EVALS_AVOIDED)
                        .add(bound_rejected);
                    Ok(out)
                },
            )?;

        // The rows stage 1 resolved ride along with the merge's last stage
        // (both sides have `b` partitions), so the block is one action.
        let out: Vec<ScoredPair> = probe_hits
            .union(&bases)
            .reduce_by_key(Neighborhood::merge, b)
            .zip_partitions(
                &stage_out,
                move |_, merged: Vec<(u64, Neighborhood)>, stage1: Vec<StageOut<D>>| {
                    let mut out = Vec::with_capacity(merged.len() + stage1.len());
                    for (id, hood) in merged {
                        let score = score_neighbors(&hood);
                        out.push(ScoredPair {
                            id,
                            score,
                            positive: label_for(score, theta),
                            shortcut: false,
                        });
                    }
                    for o in stage1 {
                        if let StageOut::Done(s) = o {
                            out.push(s);
                        }
                    }
                    Ok(out)
                },
            )?
            .collect()?;

        pass.journal(&self.cluster);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::classify_brute;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn workload(
        n_neg: usize,
        n_pos: usize,
        n_test: usize,
        seed: u64,
    ) -> (Vec<LabeledPair<4>>, Vec<UnlabeledPair<4>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        for i in 0..n_neg {
            let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
            train.push(LabeledPair::new(i as u64, v, false));
        }
        for i in 0..n_pos {
            let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..0.15));
            train.push(LabeledPair::new((n_neg + i) as u64, v, true));
        }
        let test = (0..n_test)
            .map(|i| {
                let v: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
                UnlabeledPair::new(i as u64, v)
            })
            .collect();
        (train, test)
    }

    /// [`FastKnn::classify_distinct`] scattered to its rows, each under
    /// its own id and sorted by id — [`FastKnn::classify_blocks`]' shape —
    /// after checking its shape: a representative for every row, and the
    /// representatives in the order of their rows, each under the id of
    /// the first row it answers.
    fn scattered<const D: usize>(
        model: &FastKnn<D>,
        rows: &VecBatch<D>,
    ) -> Result<Vec<ScoredPair>> {
        let distinct = model.classify_distinct(rows)?;
        assert_eq!(distinct.rep_of_row.len(), rows.len());
        let mut seen = 0;
        for (i, &rep) in distinct.rep_of_row.iter().enumerate() {
            assert!(
                (rep as usize) <= seen,
                "row {i}: representative {rep} out of order"
            );
            if rep as usize == seen {
                assert_eq!(
                    distinct.scored[seen].id,
                    rows.id(i),
                    "representative {rep}'s id"
                );
                seen += 1;
            }
        }
        assert_eq!(
            seen,
            distinct.scored.len(),
            "every representative answers a row"
        );
        let mut out: Vec<ScoredPair> = (0..rows.len())
            .map(|i| ScoredPair {
                id: rows.id(i),
                ..distinct.of_row(i).clone()
            })
            .collect();
        out.sort_by_key(|s| s.id);
        Ok(out)
    }

    #[test]
    fn distributed_matches_brute_force() {
        let (train, test) = workload(500, 15, 80, 3);
        let cluster = Cluster::local(4);
        let model = FastKnn::fit(
            &cluster,
            &train,
            FastKnnConfig {
                k: 7,
                b: 8,
                c: 3,
                theta: 0.0,
                seed: 5,
            },
        )
        .unwrap();
        let fast = model.classify(&test).unwrap();
        let brute = classify_brute(&train, &test, 7, 0.0);
        assert_eq!(fast.len(), brute.len());
        for (f, g) in fast.iter().zip(&brute) {
            assert_eq!(f.id, g.id);
            assert_eq!(f.positive, g.positive, "label mismatch at id {}", f.id);
            if !f.shortcut {
                assert!(
                    (f.score - g.score).abs() < 1e-9,
                    "score mismatch at id {}: {} vs {}",
                    f.id,
                    f.score,
                    g.score
                );
            }
        }
    }

    #[test]
    fn counters_are_populated() {
        let (train, test) = workload(300, 10, 40, 9);
        let cluster = Cluster::local(2);
        let model = FastKnn::fit(&cluster, &train, FastKnnConfig::default()).unwrap();
        let _ = model.classify(&test).unwrap();
        let m = cluster.metrics();
        assert!(m.counter(counters::CENTER_COMPARISONS).get() > 0);
        assert!(m.counter(counters::INTRA_COMPARISONS).get() > 0);
        assert!(m.counter(counters::POSITIVE_COMPARISONS).get() > 0);
    }

    #[test]
    fn more_clusters_reduce_intra_comparisons() {
        // Fig. 7a's main trend.
        let (train, test) = workload(2000, 20, 60, 13);
        let intra_at = |b: usize| {
            let cluster = Cluster::local(2);
            let model = FastKnn::fit(
                &cluster,
                &train,
                FastKnnConfig {
                    b,
                    ..FastKnnConfig::default()
                },
            )
            .unwrap();
            cluster.metrics().reset();
            let _ = model.classify(&test).unwrap();
            cluster.metrics().counter(counters::INTRA_COMPARISONS).get()
        };
        let few = intra_at(4);
        let many = intra_at(32);
        assert!(
            many < few,
            "more clusters must mean fewer intra-cluster comparisons: {many} vs {few}"
        );
    }

    #[test]
    fn block_count_does_not_change_results() {
        let (train, test) = workload(400, 10, 50, 21);
        let cluster = Cluster::local(2);
        let out_c1 = FastKnn::fit(
            &cluster,
            &train,
            FastKnnConfig {
                c: 1,
                ..FastKnnConfig::default()
            },
        )
        .unwrap()
        .classify(&test)
        .unwrap();
        let out_c5 = FastKnn::fit(
            &cluster,
            &train,
            FastKnnConfig {
                c: 5,
                ..FastKnnConfig::default()
            },
        )
        .unwrap()
        .classify(&test)
        .unwrap();
        assert_eq!(out_c1, out_c5);
    }

    #[test]
    fn pruning_is_lossless_and_accounts_for_every_avoided_evaluation() {
        // Few, large cells: the k-th-neighbour cutoff is small against the
        // cell radius, so the window and annulus bounds have room to bite.
        let (train, test) = workload(2_000, 12, 90, 41);
        let run = |prune: bool| {
            let cluster = Cluster::local(4);
            let cfg = FastKnnConfig {
                b: 4,
                ..FastKnnConfig::default()
            };
            let model = if prune {
                FastKnn::fit(&cluster, &train, cfg)
            } else {
                let voronoi = VoronoiPartition::build(&train, cfg.b, cfg.seed);
                FastKnn::from_partition(&cluster, voronoi.without_prune_metadata(), cfg)
            }
            .unwrap();
            let out = model.classify(&test).unwrap();
            let m = cluster.metrics();
            let positive = m.counter(counters::POSITIVE_COMPARISONS).get();
            let evals = m.counter(counters::INTRA_COMPARISONS).get()
                + m.counter(counters::CROSS_COMPARISONS).get()
                + positive;
            let avoided = m.counter(counters::PRUNE_EVALS_AVOIDED).get();
            let passes = cluster.job_report().prune.passes;
            (out, evals, positive, avoided, passes)
        };
        let (pruned, evals_on, positive_on, avoided, passes_on) = run(true);
        let (full, evals_off, positive_off, avoided_off, passes_off) = run(false);
        assert_eq!(pruned, full, "pruning must not change a single result");
        assert!(avoided > 0, "the workload must exercise the bounds");
        assert_eq!(
            positive_off,
            90 * 12,
            "unpruned: every positive, every test"
        );
        assert!(
            positive_on < positive_off,
            "the window must reject positives too: {positive_on} evaluated"
        );
        assert_eq!(avoided_off, 0, "no pruning, nothing avoided");
        assert!(passes_on > 0, "each block journals one prune pass");
        assert_eq!(passes_off, passes_on, "with or without anything avoided");
        // Conservation, over intra + cross + positive comparisons: every
        // one the unpruned run performs is either performed or explicitly
        // accounted as avoided by the pruned run (scan invariant: evaluated
        // + bound_rejected = cell size, the positives being one more cell;
        // skipped cells contribute their whole population).
        assert_eq!(
            evals_on + avoided,
            evals_off,
            "avoided evaluations must exactly cover the gap"
        );
    }

    #[test]
    fn empty_test_set_is_fine() {
        let (train, _) = workload(50, 3, 0, 1);
        let cluster = Cluster::local(2);
        let model = FastKnn::fit(&cluster, &train, FastKnnConfig::default()).unwrap();
        assert!(model.classify(&[]).unwrap().is_empty());
    }

    /// `fit` on `train` at `b` is a user error naming both, and runs no job.
    fn assert_fit_refused(train: &[LabeledPair<4>], b: usize) {
        let cluster = Cluster::local(2);
        let config = FastKnnConfig {
            b,
            ..FastKnnConfig::default()
        };
        let want = format!("({} training pairs, b = {b})", train.len());
        match FastKnn::fit(&cluster, train, config) {
            Err(SparkletError::User(m)) => assert!(m.ends_with(&want), "{m}"),
            Err(other) => panic!("expected a user error, got {other}"),
            Ok(_) => panic!("fit accepted {want}"),
        }
        assert_eq!(cluster.metrics().jobs_submitted.get(), 0);
    }

    #[test]
    fn fit_on_an_empty_training_set_is_a_user_error() {
        assert_fit_refused(&[], 32);
    }

    #[test]
    fn fit_with_no_cells_is_a_user_error() {
        assert_fit_refused(&workload(50, 3, 0, 1).0, 0);
    }

    /// `fit` and `from_partition` under `config` are user errors naming
    /// it, and run no job.
    fn assert_scoring_refused(config: FastKnnConfig) {
        let want = format!("k = {} at θ = {}", config.k, config.theta);
        let train = workload(50, 3, 0, 1).0;
        let cluster = Cluster::local(2);
        let voronoi = VoronoiPartition::build(&train, config.b, config.seed);
        for fitted in [
            FastKnn::fit(&cluster, &train, config),
            FastKnn::from_partition(&cluster, voronoi, config),
        ] {
            match fitted {
                Err(SparkletError::User(m)) => assert!(m.ends_with(&want), "{m}"),
                Err(other) => panic!("expected a user error, got {other}"),
                Ok(_) => panic!("accepted {want}"),
            }
        }
        assert_eq!(cluster.metrics().jobs_submitted.get(), 0);
    }

    #[test]
    fn zero_neighbours_is_a_user_error() {
        assert_scoring_refused(FastKnnConfig {
            k: 0,
            ..FastKnnConfig::default()
        });
    }

    #[test]
    fn a_nan_threshold_is_a_user_error() {
        for theta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_scoring_refused(FastKnnConfig {
                theta,
                ..FastKnnConfig::default()
            });
        }
    }

    #[test]
    fn fifty_fits_on_one_cluster_hold_one_models_blocks() {
        // A model's cached cells (and a classification's cached stage-1
        // output) leave the block manager with it, not under LRU pressure
        // some hundred fits later.
        let (train, test) = workload(400, 12, 30, 9);
        let cluster = Cluster::local(2);
        let config = FastKnnConfig::default();
        let one_model = {
            let model = FastKnn::fit(&cluster, &train, config).unwrap();
            assert_eq!(
                cluster.metrics().jobs_submitted.get(),
                0,
                "a fit runs no job"
            );
            assert_eq!(cluster.blocks().used(), 0, "and caches nothing");
            model.classify(&test).unwrap();
            cluster.blocks().used()
        };
        assert!(one_model > 0, "Algorithm 2 cached the negative cells");
        assert_eq!(cluster.blocks().used(), 0, "and go with the model");
        let mut live = FastKnn::fit(&cluster, &train, config).unwrap();
        for _ in 0..50 {
            // As a commit does: the next model is fitted, then replaces
            // the previous one.
            live = FastKnn::fit(&cluster, &train, config).unwrap();
            live.classify(&test).unwrap();
        }
        assert_eq!(cluster.blocks().used(), one_model);
        drop(live);
        assert_eq!(cluster.blocks().block_count(), 0);
    }

    #[test]
    fn a_fit_and_a_classification_leave_no_shuffle_behind() {
        let (train, test) = workload(400, 12, 70, 5);
        let cluster = Cluster::local(2);
        let resident =
            |c: &Cluster| c.shuffles().resident_bytes(0) + c.shuffles().resident_bytes(1);
        let model = FastKnn::fit(&cluster, &train, FastKnnConfig::default()).unwrap();
        assert_eq!(
            cluster.shuffles().shuffle_count(),
            0,
            "a fit shuffles nothing"
        );
        let jobs = cluster.metrics().jobs_submitted.get();
        let shuffled = cluster.metrics().shuffle_bytes_written.get();
        model.classify(&test).unwrap();
        assert_eq!(
            cluster.metrics().jobs_submitted.get() - jobs,
            4 * 4,
            "c = 4 blocks of four stages"
        );
        assert!(cluster.metrics().shuffle_bytes_written.get() > shuffled);
        assert_eq!(cluster.shuffles().shuffle_count(), 0);
        assert_eq!(resident(&cluster), 0);
    }

    #[test]
    fn classify_batch_equals_classify_rows() {
        let (train, test) = workload(300, 10, 60, 77);
        let cluster = Cluster::local(3);
        let model = FastKnn::fit(&cluster, &train, FastKnnConfig::default()).unwrap();
        let rows = model.classify(&test).unwrap();
        let batch = model.classify_batch(&from_unlabeled(&test)).unwrap();
        assert_eq!(rows, batch);
    }

    /// The product's stage against Algorithm 2 on one batch of distinct
    /// rows (so every row is its own representative): the same per-row
    /// stage 1, so the same centre, intra-cell, positive, shortcut and
    /// extra-cell counts; cross-cell comparisons no more than Algorithm 2's,
    /// as the running hood only tightens the cutoff.
    #[test]
    fn one_stage_counts_equal_algorithm_2s_but_cross_only_shrinks() {
        // Test pairs crowded towards the positives' corner, where the
        // shortcut fails and Algorithm 1 picks extra cells.
        let (train, test) = workload(2_000, 60, 150, 41);
        let near: Vec<UnlabeledPair<4>> = test
            .iter()
            .map(|t| UnlabeledPair::new(t.id, t.vector.map(|x| x * 0.4)))
            .collect();
        let batch = from_unlabeled(&near);
        let cfg = FastKnnConfig {
            b: 32,
            ..FastKnnConfig::default()
        };
        const COUNTED: [&str; 6] = [
            counters::CENTER_COMPARISONS,
            counters::INTRA_COMPARISONS,
            counters::POSITIVE_COMPARISONS,
            counters::SHORTCUT_SKIPS,
            counters::ADDITIONAL_CLUSTERS,
            counters::CROSS_COMPARISONS,
        ];
        let counts = |product: bool| {
            let cluster = Cluster::local(2);
            let model = FastKnn::fit(&cluster, &train, cfg).unwrap();
            cluster.metrics().reset();
            let out = if product {
                scattered(&model, &batch)
            } else {
                model.classify_blocks(&batch, 1)
            };
            let m = cluster.metrics();
            assert_eq!(m.counter(counters::ROWS_SHARED).get(), 0);
            (out.unwrap(), COUNTED.map(|name| m.counter(name).get()))
        };
        let (product, [center, intra, positive, shortcut, extra, cross]) = counts(true);
        let (paper, paper_counts) = counts(false);
        assert_eq!(product, paper);
        assert_eq!(
            [center, intra, positive, shortcut, extra],
            paper_counts[..5],
            "centre, intra, positive, shortcut, extra cells"
        );
        assert!(extra > 0, "the workload must reach stage 2");
        assert!(
            cross <= paper_counts[5],
            "running hood {cross} > Algorithm 2's {}",
            paper_counts[5]
        );
    }

    #[test]
    fn a_batch_past_two_runs_splits_and_still_equals_algorithm_2() {
        let (train, test) = workload(600, 10, 2 * STAGE_TASK_ROWS + 50, 8);
        let cluster = Cluster::local(2);
        let model = FastKnn::fit(&cluster, &train, FastKnnConfig::default()).unwrap();
        let batch = from_unlabeled(&test);
        let stages = cluster.job_report().stages.len();
        let product = scattered(&model, &batch).unwrap();
        let report = cluster.job_report();
        let ran: Vec<(&str, usize)> = report.stages[stages..]
            .iter()
            .map(|s| (s.name.as_str(), s.tasks))
            .collect();
        assert_eq!(ran, [(CLASSIFY_STAGE, 2)], "two runs of ≥ 512 rows");
        assert_eq!(report.prune.passes, 1);
        assert_eq!(product, model.classify_blocks(&batch, 1).unwrap());
    }

    #[test]
    fn a_stage_splits_per_512_rows_into_a_multiple_of_the_slots() {
        for rows in [0, 1, 25, 511, 512, 1023] {
            assert_eq!(stage_tasks(rows, 2), 1, "{rows} rows stay one task");
        }
        assert_eq!(stage_tasks(1024, 2), 2);
        assert_eq!(stage_tasks(1535, 2), 2);
        assert_eq!(stage_tasks(1536, 2), 4, "three runs round up to four");
        assert_eq!(stage_tasks(2560, 2), 6);
        assert_eq!(stage_tasks(4096, 2), 8);
        assert_eq!(stage_tasks(1536, 1), 3);
        assert_eq!(stage_tasks(1024, 4), 4);
        assert_eq!(stage_tasks(2560, 4), 8);
        assert_eq!(stage_tasks(1024, 0), 2, "no slots count as one");
    }

    mod block_count_invariance {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Rows are classified independently of one another, so how many
            // blocks a batch is cut into — one, more than it has rows, none
            // to cut — never shows. Exact equality, scores included.
            #![proptest_config(ProptestConfig::with_cases(6))]
            #[test]
            fn classify_blocks_is_bit_identical_at_any_block_count(
                seed in 0u64..1000,
                rows in prop::sample::select(vec![0usize, 1, 4, 23, 57]),
                c in 1usize..=6,
            ) {
                let (train, test) = workload(300, 9, rows, seed);
                let cluster = Cluster::local(2);
                let cfg = FastKnnConfig { b: 6, c, seed, ..FastKnnConfig::default() };
                let model = FastKnn::fit(&cluster, &train, cfg).unwrap();
                let batch = from_unlabeled(&test);
                let one = model.classify_blocks(&batch, 1).unwrap();
                prop_assert_eq!(one.len(), rows);
                for m in 2..=6 {
                    prop_assert_eq!(&model.classify_blocks(&batch, m).unwrap(), &one, "m = {}", m);
                }
                // Zero blocks is one block, not a division by zero.
                prop_assert_eq!(&model.classify_blocks(&batch, 0).unwrap(), &one);
                prop_assert_eq!(&model.classify_batch(&batch).unwrap(), &one, "c = {}", c);
                // ... and it is c blocks of ⌈rows / c⌉ rows that ran, four
                // stages each.
                let blocks = rows.div_ceil(rows.div_ceil(c).max(1));
                let jobs = cluster.metrics().jobs_submitted.get();
                model.classify_batch(&batch).unwrap();
                prop_assert_eq!(cluster.metrics().jobs_submitted.get() - jobs, 4 * blocks as u64);
            }
        }
    }

    mod distinct_vectors {
        use super::*;
        use crate::stage1::tests::{
            lattice_points, off_lattice, on_lattice, pair_points, pair_vectors, LATTICE,
        };
        use proptest::prelude::*;
        use sparklet::stable_hash;

        /// A partition assembled by hand, as `rebalance` leaves one:
        /// `centers[0]` is repeated `siblings` more times, every negative
        /// sits with a nearest centre, and those nearest the repeated one
        /// are dealt round-robin over its copies. No distance metadata, so
        /// every scan sweeps.
        fn with_coincident_centers(
            centers: &[[f64; 3]],
            siblings: usize,
            negatives: &[[f64; 3]],
            positives: &[[f64; 3]],
        ) -> VoronoiPartition<3> {
            let mut all = centers.to_vec();
            all.extend(std::iter::repeat_n(centers[0], siblings));
            let mut cells = vec![VecBatch::new(); all.len()];
            for (i, v) in negatives.iter().enumerate() {
                let nearest = mlcore::kmeans::nearest_centroid(v, centers).0;
                let cell = match i % (siblings + 1) {
                    lap if lap > 0 && all[nearest] == centers[0] => centers.len() + lap - 1,
                    _ => nearest,
                };
                cells[cell].push(2 * i as u64, v, false);
            }
            let mut pos = VecBatch::new();
            for (i, v) in positives.iter().enumerate() {
                pos.push(2 * i as u64 + 1, v, true);
            }
            VoronoiPartition::from_cells(all, cells, pos)
        }

        /// Rows `picks[i]` of `pool`, under hashed ids as the serving layer
        /// makes them: unique, far apart, in no order.
        fn repeated_rows<const D: usize>(
            pool: &[[f64; D]],
            picks: &[usize],
            salt: u64,
        ) -> VecBatch<D> {
            let mut batch = VecBatch::new();
            for (i, &p) in picks.iter().enumerate() {
                batch.push(stable_hash(&(salt, i as u64)), &pool[p % pool.len()], false);
            }
            batch
        }

        /// All four fields, the score by its bits.
        fn bits(scored: &[ScoredPair]) -> Vec<(u64, u64, bool, bool)> {
            scored
                .iter()
                .map(|s| (s.id, s.score.to_bits(), s.positive, s.shortcut))
                .collect()
        }

        fn model_on(voronoi: VoronoiPartition<3>, k: usize) -> FastKnn<3> {
            let config = FastKnnConfig {
                k,
                ..FastKnnConfig::default()
            };
            FastKnn::from_partition(&Cluster::local(2), voronoi, config).unwrap()
        }

        /// Training pairs on the lattice with `heavy` more negatives piled
        /// on one corner: the cell `rebalance` has to split.
        fn train_with_a_heavy_corner<const D: usize>(
            negatives: &[[f64; D]],
            heavy: usize,
            positives: &[[f64; D]],
        ) -> Vec<LabeledPair<D>> {
            let corner = std::iter::repeat_n(&[0.0; D], heavy);
            let mut train: Vec<LabeledPair<D>> = negatives
                .iter()
                .chain(corner)
                .enumerate()
                .map(|(i, v)| LabeledPair::new(2 * i as u64, *v, false))
                .collect();
            for (i, v) in positives.iter().enumerate() {
                train.push(LabeledPair::new(2 * i as u64 + 1, *v, true));
            }
            train
        }

        #[test]
        fn two_rows_with_one_vector_in_different_tie_slots_score_differently() {
            // Two sibling cells under one centre, nothing else: ids 0 and 1
            // are assigned one each, and with no positive anywhere both stop
            // at the shortcut — scored from their own sibling's residents,
            // which sit at different distances. Keyed by vector alone, the
            // second row would be handed the first row's score.
            let near: Vec<[f64; 3]> = vec![[0.25, 0.0, 0.0]; 3];
            let far: Vec<[f64; 3]> = vec![[0.5, 0.0, 0.0]; 3];
            let mut negatives = Vec::new();
            for (n, f) in near.iter().zip(&far) {
                negatives.extend([*n, *f]);
            }
            let voronoi = with_coincident_centers(&[[0.0; 3]], 1, &negatives, &[]);
            assert_eq!(voronoi.tie_count(&[0.0; 3]), 2);
            let model = model_on(voronoi, 3);
            let mut rows = VecBatch::new();
            rows.push(0, &[0.0; 3], false);
            rows.push(1, &[0.0; 3], false);
            let per_row = model.classify_blocks(&rows, 1).unwrap();
            assert!(per_row.iter().all(|s| s.shortcut));
            assert_ne!(
                per_row[0].score.to_bits(),
                per_row[1].score.to_bits(),
                "the siblings hold different residents"
            );
            let shared = scattered(&model, &rows).unwrap();
            assert_eq!(bits(&shared), bits(&per_row));
            // One vector, two slots, two representatives: nothing shared.
            let metrics = model.cluster.metrics();
            assert_eq!(metrics.counter(counters::ROWS_SHARED).get(), 0);
            // A third row in slot 0 is answered by row 0.
            rows.push(2, &[0.0; 3], false);
            let shared = scattered(&model, &rows).unwrap();
            assert_eq!(
                bits(&shared),
                bits(&model.classify_blocks(&rows, 1).unwrap())
            );
            assert_eq!(shared[2].score.to_bits(), shared[0].score.to_bits());
            assert_eq!(metrics.counter(counters::ROWS_SHARED).get(), 1);
        }

        #[test]
        fn build_splits_the_heavy_corner_and_distinct_still_equals_per_row() {
            let mut rng = StdRng::seed_from_u64(24);
            let mut point = || {
                [
                    LATTICE[rng.gen_range(0..4)],
                    LATTICE[rng.gen_range(0..4)],
                    0.0,
                ]
            };
            let negatives: Vec<[f64; 3]> = (0..150).map(|_| point()).collect();
            let positives: Vec<[f64; 3]> = (0..6).map(|_| point()).collect();
            let pool: Vec<[f64; 3]> = (0..12).map(|_| point()).chain([[0.0; 3]]).collect();
            let train = train_with_a_heavy_corner(&negatives, 200, &positives);
            let config = FastKnnConfig {
                b: 4,
                ..FastKnnConfig::default()
            };
            let model = FastKnn::fit(&Cluster::local(2), &train, config).unwrap();
            assert!(model.voronoi().b() > 4, "rebalance split the corner's cell");
            assert!(model.voronoi().tie_count(&[0.0; 3]) > 1);
            let picks: Vec<usize> = (0..400).map(|_| rng.gen_range(0..pool.len())).collect();
            let rows = repeated_rows(&pool, &picks, 24);
            let shared = scattered(&model, &rows).unwrap();
            assert_eq!(
                bits(&shared),
                bits(&model.classify_blocks(&rows, 3).unwrap())
            );
            let metrics = model.cluster.metrics();
            let shared_rows = metrics.counter(counters::ROWS_SHARED).get();
            assert!(
                shared_rows >= 300,
                "13 vectors, a few slots each: {shared_rows} of 400 rows shared"
            );
        }

        proptest! {
            /// `classify_distinct`, scattered to its rows, against the
            /// per-row `classify_blocks` on what the product feeds it:
            /// lattice vectors, each repeated many times over, under hashed
            /// ids; centres that coincide — assembled by hand (`built == 0`)
            /// or by `build` on a training set with one overfull corner — so
            /// vectors have several tie slots; k from 1 to beyond a cell's
            /// population. Rows that share a representative hold its
            /// vector, bit for bit.
            #[test]
            fn classify_distinct_is_bit_identical_to_classify_blocks(
                negatives in lattice_points(20..80),
                positives in lattice_points(0..8),
                centers in lattice_points(1..5),
                siblings in 1usize..4,
                built in 0usize..2,
                pool in lattice_points(1..10),
                picks in prop::collection::vec(0usize..10, 1..90),
                k in 1usize..12,
                salt in 0u64..1000,
            ) {
                let (negatives, positives) = (on_lattice(negatives), on_lattice(positives));
                let (centers, pool) = (on_lattice(centers), on_lattice(pool));
                let model = if built == 1 {
                    let train = train_with_a_heavy_corner(&negatives, 3 * negatives.len(), &positives);
                    let config = FastKnnConfig { k, b: centers.len() + 2, seed: salt, ..FastKnnConfig::default() };
                    FastKnn::fit(&Cluster::local(2), &train, config).unwrap()
                } else {
                    model_on(with_coincident_centers(&centers, siblings, &negatives, &positives), k)
                };
                let rows = repeated_rows(&pool, &picks, salt);
                let per_row = model.classify_blocks(&rows, 2).unwrap();
                let shared = scattered(&model, &rows).unwrap();
                prop_assert_eq!(bits(&shared), bits(&per_row));
                // No more representatives than the pool's vectors have slots.
                let slots: usize = pool.iter().map(|v| model.voronoi().tie_count(v)).sum();
                let shared_rows = model.cluster.metrics().counter(counters::ROWS_SHARED).get();
                prop_assert!(rows.len() - shared_rows as usize <= slots);
                let distinct = model.classify_distinct(&rows).unwrap();
                let bits_of = |row: usize| rows.row(row).map(f64::to_bits);
                let mut first_row: Vec<usize> = Vec::new();
                for (row, &rep) in distinct.rep_of_row.iter().enumerate() {
                    if rep as usize == first_row.len() {
                        first_row.push(row);
                    }
                    prop_assert_eq!(bits_of(row), bits_of(first_row[rep as usize]));
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The product's route on eight-column pair vectors, which
            /// `build` lays out on the lattice: bit-identical to the same
            /// partition stripped of its metadata (every scan a sweep) and
            /// to Algorithm 2's per-row route through the derived centre
            /// order, and every distance the sweep computes is either
            /// computed or counted as avoided. Queries on the lattice and,
            /// from `strays`, off it; a heavy corner makes sibling cells.
            #[test]
            fn classify_distinct_on_pair_vectors_equals_the_unpruned_model(
                negatives in pair_points(20..120),
                positives in pair_points(0..10),
                heavy in 0usize..200,
                pool in pair_points(1..12),
                strays in pair_points(0..3),
                moves in prop::collection::vec((0usize..5, 0usize..4), 3),
                picks in prop::collection::vec(0usize..15, 1..90),
                k in 1usize..12,
                b in 1usize..6,
                salt in 0u64..1000,
            ) {
                let (negatives, positives) = (pair_vectors(negatives), pair_vectors(positives));
                let mut pool = pair_vectors(pool);
                pool.extend(off_lattice(strays, &moves));
                let train = train_with_a_heavy_corner(&negatives, heavy, &positives);
                let voronoi = VoronoiPartition::build(&train, b, salt);
                prop_assert!(voronoi.on_lattice());
                let config = FastKnnConfig { k, b, seed: salt, ..FastKnnConfig::default() };
                let run = |voronoi: VoronoiPartition<8>, rows: &VecBatch<8>| {
                    let model = FastKnn::from_partition(&Cluster::local(2), voronoi, config).unwrap();
                    let scored = scattered(&model, rows).unwrap();
                    let m = model.cluster.metrics();
                    let evals = m.counter(counters::INTRA_COMPARISONS).get()
                        + m.counter(counters::POSITIVE_COMPARISONS).get()
                        + m.counter(counters::CROSS_COMPARISONS).get();
                    let avoided = m.counter(counters::PRUNE_EVALS_AVOIDED).get();
                    (model, scored, evals, avoided)
                };
                let rows = repeated_rows(&pool, &picks, salt);
                let (model, scored, evals_on, avoided) = run(voronoi.clone(), &rows);
                let (_, unpruned, evals_off, avoided_off) =
                    run(voronoi.without_prune_metadata(), &rows);
                prop_assert_eq!(bits(&scored), bits(&unpruned));
                prop_assert_eq!(avoided_off, 0);
                prop_assert_eq!(evals_on + avoided, evals_off);
                let per_row = model.classify_blocks(&rows, 2).unwrap();
                prop_assert_eq!(bits(&scored), bits(&per_row));
            }
        }
    }

    mod parallelism_invariance {
        use super::*;
        use proptest::prelude::*;

        fn classify_on(
            parallelism: usize,
            train: &[LabeledPair<4>],
            test: &[UnlabeledPair<4>],
            cfg: FastKnnConfig,
        ) -> Vec<ScoredPair> {
            let cluster = Cluster::local(parallelism);
            FastKnn::fit(&cluster, train, cfg)
                .unwrap()
                .classify(test)
                .unwrap()
        }

        proptest! {
            // Few cases — each one runs three full distributed
            // classifications — but enough to vary seeds, k and b. With
            // (distance, id) tie-breaking the merged top-k is a function of
            // the candidate *set*, so worker count and shuffle chunk order
            // must not show through. Exact equality, scores included.
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[test]
            fn classification_is_identical_across_1_4_16_workers(
                seed in 0u64..1000,
                k in prop::sample::select(vec![3usize, 7]),
                b in prop::sample::select(vec![4usize, 9]),
            ) {
                let (train, test) = workload(250, 8, 40, seed);
                let cfg = FastKnnConfig { k, b, c: 3, theta: 0.0, seed: seed ^ 0xA5A5 };
                let out1 = classify_on(1, &train, &test, cfg);
                let out4 = classify_on(4, &train, &test, cfg);
                let out16 = classify_on(16, &train, &test, cfg);
                prop_assert_eq!(&out1, &out4);
                prop_assert_eq!(&out1, &out16);
            }
        }
    }
}
