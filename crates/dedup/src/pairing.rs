//! Exhaustive pair enumeration and the distributed pairwise-distance job.
//!
//! [`pairs_involving_new`] is §3's unblocked enumeration; blocked candidates
//! come from [`crate::BlockingIndex`]. Every product distance goes through
//! [`pairwise_distance_batches`] over [`contiguous_partitions`];
//! [`pairwise_distances`] and [`pack_pairs`] stay for the experiments and
//! the frozen wall-clock benchmark.

use crate::distance::{HeldReport, ProcessedReport};
use adr_model::{DistVec, PairId, ReportId, DETECTION_DIMS};
use fastknn::VecBatch;
use simmetrics::hash::WordMap;
use sparklet::{Cluster, Result, SparkletError};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Column batch of §4.2 distance vectors — one row per candidate pair, in
/// the same contiguous layout the fastknn tiled kernels consume. Produced by
/// [`pairwise_distance_batches`]; row `i` belongs to the `i`-th pair id the
/// job returned alongside it.
pub type DistBatch = VecBatch<DETECTION_DIMS>;

/// A shared, immutable snapshot of the processed-report corpus, indexed by
/// report id. Cloning is a reference-count bump, so the distributed
/// pairwise-distance job shares one copy across every task and every call —
/// the corpus is never deep-copied per job.
pub type CorpusIndex = Arc<HashMap<ReportId, ProcessedReport>>;

/// Build a [`CorpusIndex`] from processed reports.
pub fn index_corpus<I>(processed: I) -> CorpusIndex
where
    I: IntoIterator<Item = ProcessedReport>,
{
    Arc::new(processed.into_iter().map(|p| (p.id, p)).collect())
}

/// Pairs involving at least one new report: each new report against every
/// existing one, plus all pairs among the new reports (`Dupe(R, A ∪ R − r)`
/// in the paper's Eq. 3). With no existing reports these are all unordered
/// pairs of the batch — §3's recursive formulation restricted to one batch
/// ("reports with later arrival time are checked against those with
/// earlier arrival time").
pub fn pairs_involving_new(new_ids: &[ReportId], existing_ids: &[ReportId]) -> Vec<PairId> {
    // Exact capacity — new×existing cross pairs plus C(new, 2) within pairs
    // — so one reserve covers the whole enumeration. n·(n−1)/2 overflows
    // usize for n ≥ 2³² even though the result fits, so the even factor is
    // divided first and the product saturates: a saturated reserve only
    // means chunked growth, never UB or panic.
    let n = new_ids.len();
    let within = if n.is_multiple_of(2) {
        (n / 2).saturating_mul(n.saturating_sub(1))
    } else {
        n.saturating_mul(n.saturating_sub(1) / 2)
    };
    let cross = n.saturating_mul(existing_ids.len());
    let mut out = Vec::with_capacity(cross.saturating_add(within));
    for &n in new_ids {
        for &e in existing_ids {
            out.push(PairId::new(n, e));
        }
    }
    for (i, &a) in new_ids.iter().enumerate() {
        for &b in &new_ids[i + 1..] {
            out.push(PairId::new(a, b));
        }
    }
    out
}

/// Base op weight of one §4.2 distance vector: the five scalar field
/// distances plus per-pair bookkeeping. The token-set work is charged per
/// token on top — see [`pair_op_weight`].
pub const PAIR_OP_BASE: u64 = 8;

/// Virtual op weight of one pair's distance vector: the base cost plus one
/// op per token of the drug, ADR and narrative sets of both reports — what
/// merging the three pairs of sorted slices scans. This is the merge-model
/// charge the virtual clock keeps: the distance job marks one report's
/// sets once per run and looks up only the partner's tokens (see
/// [`HeldReport`]), so it overstates what a pair of a long run costs;
/// recalibrating it is part of calibrating the cost model against the
/// wall clock.
/// A pair of long-narrative reports still weighs several times a terse
/// one, which is the skew the morsel scheduler has to balance.
pub fn pair_op_weight(a: &ProcessedReport, b: &ProcessedReport) -> u64 {
    PAIR_OP_BASE + token_count(a) + token_count(b)
}

/// Tokens in the three sets of one report: its share of [`pair_op_weight`].
fn token_count(r: &ProcessedReport) -> u64 {
    (r.drug_tokens.len() + r.adr_tokens.len() + r.narrative_terms.len()) as u64
}

/// [`pair_op_weight`] of each pair in turn. A report's token count is
/// looked up in the [`CorpusIndex`] (a SipHash map) the first time the
/// report is seen and kept in a [`WordMap`] by id, so a job whose pairs
/// name a few thousand reports pays a few thousand corpus lookups, not two
/// per pair. Pairs that share `lo` arrive in runs (blocked candidates are
/// in pair order), so the previous pair's `lo` and its count are kept too.
struct PairWeigher {
    corpus: CorpusIndex,
    /// Token count by report id (`None`: not in the corpus).
    tokens: RefCell<WordMap<ReportId, Option<u64>>>,
    /// The previous pair's `lo`, with its token count.
    last_lo: Cell<Option<(ReportId, Option<u64>)>>,
}

impl PairWeigher {
    fn new(corpus: &CorpusIndex) -> Self {
        PairWeigher {
            corpus: Arc::clone(corpus),
            tokens: RefCell::default(),
            last_lo: Cell::new(None),
        }
    }

    /// Report `id`'s [`token_count`], or `None` when it is not in the
    /// corpus.
    fn tokens(&self, id: ReportId) -> Option<u64> {
        *(self.tokens.borrow_mut())
            .entry(id)
            .or_insert_with(|| self.corpus.get(&id).map(token_count))
    }

    /// The pair's [`pair_op_weight`]; [`PAIR_OP_BASE`] when either id is
    /// unknown — it fails inside the task with a proper error, and a
    /// nominal weight keeps the cutter terminating.
    fn weigh(&self, pid: &PairId) -> u64 {
        let lo = match self.last_lo.get() {
            Some((id, tokens)) if id == pid.lo => tokens,
            _ => self.tokens(pid.lo),
        };
        self.last_lo.set(Some((pid.lo, lo)));
        match (lo, self.tokens(pid.hi)) {
            (Some(lo), Some(hi)) => PAIR_OP_BASE + lo + hi,
            _ => PAIR_OP_BASE,
        }
    }
}

/// Distributed pairwise-distance computation — the separately-timed first
/// stage of the workflow (the paper's Fig. 10b) — over a caller-chosen pair
/// partitioning. Each partition is cut into op-weight-bounded morsels and
/// scheduled with work stealing (see [`Cluster::run_morsel_job`]); every
/// pair charges its [`pair_op_weight`], so skewed partitions show up in the
/// virtual clock and get balanced rather than hidden.
///
/// A task walks its pairs in runs that share one member and computes each
/// run through one [`HeldReport`]: it holds the member the next pair shares
/// — `lo` on the blocked path, where candidates are in pair order, and the
/// new report `hi` in §3's new×existing order — and otherwise `lo`. Every
/// vector is bit-identical to [`crate::pair_distance`] of the pair.
///
/// Output is flattened in (partition, pair) order — deterministic for any
/// scheduling, so digests over downstream results never depend on steal
/// interleavings. Each morsel builds its slice of the result directly as
/// [`DistBatch`] columns; the driver concatenates the column slabs and
/// renumbers row ids `0..n`, so row `i` of the batch is the vector of pair
/// `i` in the returned id list and the whole result is ready for the
/// fastknn tiled kernels without any row-struct round trip.
pub fn pairwise_distance_batches(
    cluster: &Cluster,
    corpus: &CorpusIndex,
    partitions: Vec<Vec<PairId>>,
) -> Result<(Vec<PairId>, DistBatch)> {
    let total: usize = partitions.iter().map(Vec::len).sum();
    let by_id = Arc::clone(corpus);
    let weigher = PairWeigher::new(corpus);
    let out = cluster.run_morsel_job(
        "pairwise-distances",
        partitions,
        move |pid| weigher.weigh(pid),
        move |_, pairs, ctx| {
            ctx.counter("dedup.pair_distances").add(pairs.len() as u64);
            let report = |id: ReportId| {
                by_id
                    .get(&id)
                    .ok_or_else(|| SparkletError::User(format!("unknown report {id}")))
            };
            let mut ops = 0u64;
            let mut batch = DistBatch::with_capacity(pairs.len());
            let mut next = 0;
            while let Some(first) = pairs.get(next) {
                let (lo, hi) = (report(first.lo)?, report(first.hi)?);
                let shares = |p: &PairId, id| p.lo == id || p.hi == id;
                let keep_hi = pairs
                    .get(next + 1)
                    .is_some_and(|p| !shares(p, first.lo) && shares(p, first.hi));
                let (kept, mut other) = if keep_hi { (hi, lo) } else { (lo, hi) };
                let held = HeldReport::new(kept);
                loop {
                    ops += pair_op_weight(kept, other);
                    // Row ids are renumbered by the driver once the global
                    // row order is known.
                    batch.push(0, &held.distance(other), false);
                    next += 1;
                    other = match pairs.get(next) {
                        Some(p) if p.lo == kept.id => report(p.hi)?,
                        Some(p) if p.hi == kept.id => report(p.lo)?,
                        _ => break,
                    };
                }
            }
            ctx.charge_ops(ops);
            Ok(vec![(pairs.to_vec(), batch)])
        },
    )?;
    let mut pairs = Vec::with_capacity(total);
    let mut vectors = DistBatch::with_capacity(total);
    for (ids, batch) in out.into_iter().flatten() {
        pairs.extend(ids);
        vectors.append(&batch);
    }
    for (row, id) in vectors.ids_mut().iter_mut().enumerate() {
        *id = row as u64;
    }
    Ok((pairs, vectors))
}

/// Split `pairs` into `num_partitions` contiguous even runs — the same
/// boundaries `Cluster::parallelize` uses — so a distance job over them
/// returns results in input order.
pub fn contiguous_partitions(pairs: Vec<PairId>, num_partitions: usize) -> Vec<Vec<PairId>> {
    let n = num_partitions.max(1);
    let len = pairs.len();
    let mut parts: Vec<Vec<PairId>> = Vec::with_capacity(n);
    for i in 0..n {
        let start = i * len / n;
        let end = (i + 1) * len / n;
        parts.push(pairs[start..end].to_vec());
    }
    parts
}

/// Row-level facade over [`pairwise_distance_batches`] on the classic
/// contiguous partitioning: `pairs` is split into `num_partitions` even
/// runs ([`contiguous_partitions`]), so results come back in input order,
/// each column row materialized back into a `(PairId, DistVec)` tuple. The
/// product does not call it — `bootstrap` and `detect_new` take the column
/// batch — only the Fig. 10 experiment and the frozen wall-clock
/// benchmark's `decomposed.rs` do.
pub fn pairwise_distances(
    cluster: &Cluster,
    corpus: &CorpusIndex,
    pairs: Vec<PairId>,
    num_partitions: usize,
) -> Result<Vec<(PairId, DistVec)>> {
    let parts = contiguous_partitions(pairs, num_partitions);
    let (pairs, vectors) = pairwise_distance_batches(cluster, corpus, parts)?;
    Ok(pairs
        .into_iter()
        .enumerate()
        .map(|(i, pid)| (pid, vectors.row(i)))
        .collect())
}

/// Skew-aware packing of candidate-pair groups (one group per blocking key;
/// see [`crate::BlockingIndex::candidate_pair_groups_counted`]) into
/// `num_partitions` balanced partitions.
///
/// It stays only for the frozen wall-clock benchmark, whose `decomposed.rs`
/// rebuilds the route `detect_new` once took. The product packs nothing:
/// `detect_new` cuts its pair-sorted candidates into even runs
/// ([`contiguous_partitions`]) and the morsel scheduler balances hot
/// blocks.
///
/// Greedy LPT with splitting: groups heavier than the per-partition target
/// (`ceil(total / partitions)`) are first cut into contiguous chunks at or
/// under it — a single hot block can no longer dominate one partition —
/// then chunks are placed heaviest-first onto the least-loaded partition.
/// Ties break on the first pair id (chunk order) and the lowest partition
/// index (placement), so the packing is fully deterministic.
///
/// Allocation discipline mirrors the engine's shuffle bucketing: chunks are
/// `(weight, group, range)` views over the input (no per-chunk pair
/// buffers), destinations are decided first, and each partition is
/// allocated at its exact final size — the fill pass never reallocates or
/// over-allocates (pinned by `pack_pairs_allocates_partitions_at_exact_capacity`).
pub fn pack_pairs(
    corpus: &CorpusIndex,
    groups: Vec<Vec<PairId>>,
    num_partitions: usize,
) -> Vec<Vec<PairId>> {
    let parts = num_partitions.max(1);
    let weigher = PairWeigher::new(corpus);
    let total: u64 = groups.iter().flatten().map(|pid| weigher.weigh(pid)).sum();
    let target = total.div_ceil(parts as u64).max(1);
    // Chunk pass: cut each group into contiguous index ranges at or under
    // the target weight. Ranges borrow the groups — no pair is copied yet.
    let mut chunks: Vec<(u64, usize, std::ops::Range<usize>)> = Vec::with_capacity(groups.len());
    for (g, group) in groups.iter().enumerate() {
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, pid) in group.iter().enumerate() {
            let w = weigher.weigh(pid);
            if i > start && acc.saturating_add(w) > target {
                chunks.push((acc, g, start..i));
                start = i;
                acc = 0;
            }
            acc = acc.saturating_add(w);
        }
        if start < group.len() {
            chunks.push((acc, g, start..group.len()));
        }
    }
    chunks.sort_by(|(wa, ga, ra), (wb, gb, rb)| {
        wb.cmp(wa)
            .then_with(|| groups[*ga][ra.start].cmp(&groups[*gb][rb.start]))
    });
    // Placement pass: decide every chunk's destination and count pairs per
    // partition, so the fill pass can allocate exactly once.
    let mut dest: Vec<usize> = Vec::with_capacity(chunks.len());
    let mut loads = vec![0u64; parts];
    let mut counts = vec![0usize; parts];
    for (w, _, r) in &chunks {
        // `parts >= 1`, so there is always a lightest partition.
        let lightest = (0..parts).min_by_key(|&i| (loads[i], i)).unwrap_or(0);
        loads[lightest] += w;
        counts[lightest] += r.len();
        dest.push(lightest);
    }
    let mut out: Vec<Vec<PairId>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for ((_, g, r), d) in chunks.into_iter().zip(dest) {
        out[d].extend_from_slice(&groups[g][r]);
    }
    out
}

/// Cross-call memo of §4.2 distance vectors, keyed by [`PairId`].
///
/// No product path uses it. Every candidate pair of a `detect_new` batch
/// contains a report of that batch, so a pair recurs in a later batch only
/// when the same report id is submitted again — and then recomputing gives
/// the bit-identical vector, because the §4.2 distance of a pair is a pure
/// function of its two reports. Not one of the benchmark's five workloads
/// ever hit it (DESIGN.md "Retired baselines"). It stays for the frozen
/// wall-clock benchmark, whose `decomposed.rs` still rebuilds the memo
/// split the system once ran.
///
/// Bounded: once `capacity` entries are stored, further inserts are
/// dropped (hits on existing entries still count), so an endless feedback
/// loop cannot grow the memo without bound.
#[derive(Debug)]
pub struct DistanceMemo {
    map: HashMap<PairId, DistVec>,
    capacity: usize,
    hits: u64,
}

impl DistanceMemo {
    /// Memo bounded to `capacity` entries (`0` disables storage entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        DistanceMemo {
            map: HashMap::new(),
            capacity,
            hits: 0,
        }
    }

    /// Stored vectors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit count (pairs answered without a distance job).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Look up a pair, counting a hit.
    pub fn get(&mut self, pid: &PairId) -> Option<DistVec> {
        let found = self.map.get(pid).copied();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Store a computed vector (dropped once at capacity; existing entries
    /// are never overwritten — the distance is immutable anyway).
    pub fn insert(&mut self, pid: PairId, vector: DistVec) {
        if self.map.len() < self.capacity {
            self.map.entry(pid).or_insert(vector);
        }
    }

    /// Drop every memoised pair involving `id` — required when a report is
    /// re-ingested (ADR databases receive follow-up versions): its text may
    /// have changed, so cached distances against it are no longer the pure
    /// function of the pair they were memoised as. Re-ingest is rare, so the
    /// linear sweep is fine.
    pub fn purge_report(&mut self, id: ReportId) {
        self.map.retain(|pid, _| pid.lo != id && pid.hi != id);
    }

    /// Partition candidate groups into unknown pairs (returned group-shaped,
    /// ready for [`pack_pairs`]) and memoised rows `(pair, vector)`. Group
    /// order and intra-group pair order are preserved for the unknowns;
    /// emptied groups are dropped.
    pub fn split_known(
        &mut self,
        groups: Vec<Vec<PairId>>,
    ) -> (Vec<Vec<PairId>>, Vec<(PairId, DistVec)>) {
        let mut known = Vec::new();
        let mut unknown = Vec::with_capacity(groups.len());
        for group in groups {
            let mut rest = Vec::new();
            for pid in group {
                match self.get(&pid) {
                    Some(v) => known.push((pid, v)),
                    None => rest.push(pid),
                }
            }
            if !rest.is_empty() {
                unknown.push(rest);
            }
        }
        (unknown, known)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::pair_distance;
    use adr_model::AdrReport;
    use textprep::{Pipeline, TokenInterner};

    #[test]
    fn all_pairs_count_is_n_choose_2() {
        let ids: Vec<u64> = (0..10).collect();
        let pairs = pairs_involving_new(&ids, &[]);
        assert_eq!(pairs.len(), 45);
        let set: std::collections::HashSet<PairId> = pairs.iter().copied().collect();
        assert_eq!(set.len(), 45, "no duplicates");
    }

    #[test]
    fn all_pairs_of_one_or_zero() {
        assert!(pairs_involving_new(&[], &[]).is_empty());
        assert!(pairs_involving_new(&[7], &[]).is_empty());
    }

    #[test]
    fn new_pairs_cover_cross_and_within() {
        let pairs = pairs_involving_new(&[10, 11], &[0, 1, 2]);
        // 2*3 cross + 1 within.
        assert_eq!(pairs.len(), 7);
        assert!(pairs.contains(&PairId::new(10, 11)));
        assert!(pairs.contains(&PairId::new(10, 0)));
        assert!(pairs.contains(&PairId::new(11, 2)));
    }

    #[test]
    fn distributed_distances_match_serial() {
        let pipeline = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let reports: Vec<AdrReport> = (0..6u64)
            .map(|id| {
                let mut r = AdrReport {
                    id,
                    ..AdrReport::default()
                };
                r.patient.calculated_age = Some(20.0 + id as f64);
                r.medicine.generic_name_description = format!("Drug{id}");
                r.reaction.meddra_pt_code = "Headache".into();
                r.reaction.report_description = format!("patient {id} felt dizzy and nauseous");
                r
            })
            .collect();
        let processed: Vec<ProcessedReport> = reports
            .iter()
            .map(|r| ProcessedReport::from_report(r, &pipeline, &mut interner))
            .collect();
        let corpus = index_corpus(processed.clone());
        let ids: Vec<u64> = (0..6).collect();
        let pairs = pairs_involving_new(&ids, &[]);
        let cluster = Cluster::local(3);
        let mut dist = pairwise_distances(&cluster, &corpus, pairs.clone(), 4).unwrap();
        dist.sort_by_key(|(p, _)| *p);
        assert_eq!(dist.len(), 15);
        for (pid, v) in &dist {
            let expect = pair_distance(&processed[pid.lo as usize], &processed[pid.hi as usize]);
            assert_eq!(v, &expect, "mismatch for {pid:?}");
        }
        assert_eq!(cluster.metrics().counter("dedup.pair_distances").get(), 15);
    }

    fn tiny_corpus(n: u64) -> (Vec<ProcessedReport>, CorpusIndex) {
        let pipeline = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let processed: Vec<ProcessedReport> = (0..n)
            .map(|id| {
                let mut r = AdrReport {
                    id,
                    ..AdrReport::default()
                };
                r.medicine.generic_name_description = format!("Drug{}", id % 3);
                r.reaction.meddra_pt_code = "Rash".into();
                // Narrative length grows with id — deliberate weight skew.
                r.reaction.report_description =
                    std::iter::repeat_n("itchy swollen arm", 1 + id as usize % 7)
                        .collect::<Vec<_>>()
                        .join(" symptom ");
                ProcessedReport::from_report(&r, &pipeline, &mut interner)
            })
            .collect();
        let corpus = index_corpus(processed.clone());
        (processed, corpus)
    }

    #[test]
    fn pair_op_weight_scales_with_token_counts() {
        let (processed, _) = tiny_corpus(8);
        let light = pair_op_weight(&processed[0], &processed[1]);
        let heavy = pair_op_weight(&processed[5], &processed[6]);
        assert!(light > PAIR_OP_BASE, "tokens must contribute");
        assert!(
            heavy > light,
            "longer narratives must cost more: {heavy} vs {light}"
        );
    }

    #[test]
    fn partitioned_distances_flatten_in_partition_order() {
        let (processed, corpus) = tiny_corpus(6);
        let ids: Vec<u64> = (0..6).collect();
        let pairs = pairs_involving_new(&ids, &[]);
        // A deliberately ragged partitioning, including an empty partition.
        let parts = vec![pairs[10..15].to_vec(), Vec::new(), pairs[0..10].to_vec()];
        let cluster = Cluster::local(2);
        let (got, batch) = pairwise_distance_batches(&cluster, &corpus, parts).unwrap();
        let expect_order: Vec<PairId> =
            pairs[10..15].iter().chain(&pairs[0..10]).copied().collect();
        assert_eq!(
            got, expect_order,
            "output must follow (partition, pair) order"
        );
        for (i, pid) in got.iter().enumerate() {
            let expect = pair_distance(&processed[pid.lo as usize], &processed[pid.hi as usize]);
            assert_eq!(batch.row(i), expect);
        }
    }

    #[test]
    fn batch_distances_line_up_with_row_facade() {
        let (_, corpus) = tiny_corpus(6);
        let ids: Vec<u64> = (0..6).collect();
        let pairs = pairs_involving_new(&ids, &[]);
        let parts = contiguous_partitions(pairs.clone(), 3);
        let cluster = Cluster::local(2);
        let (got_pairs, batch) = pairwise_distance_batches(&cluster, &corpus, parts).unwrap();
        assert_eq!(got_pairs.len(), 15);
        assert_eq!(batch.len(), 15);
        // Row ids are the driver-renumbered 0..n, so the batch can go
        // straight into a classifier whose scores index back into `pairs`.
        let got_ids: Vec<u64> = (0..batch.len()).map(|i| batch.id(i)).collect();
        assert_eq!(got_ids, (0..15).collect::<Vec<u64>>());
        // The row facade is exactly the zipped view of the batch.
        let rows = pairwise_distances(&Cluster::local(2), &corpus, pairs, 3).unwrap();
        for (i, (pid, v)) in rows.iter().enumerate() {
            assert_eq!(*pid, got_pairs[i]);
            assert_eq!(*v, batch.row(i));
        }
    }

    #[test]
    fn contiguous_partitions_cover_in_order() {
        let pairs: Vec<PairId> = (0..10).map(|i| PairId::new(i, i + 100)).collect();
        let parts = contiguous_partitions(pairs.clone(), 4);
        assert_eq!(parts.len(), 4);
        let flat: Vec<PairId> = parts.iter().flatten().copied().collect();
        assert_eq!(flat, pairs, "even split must preserve input order");
        assert_eq!(contiguous_partitions(Vec::new(), 0).len(), 1);
    }

    #[test]
    fn pack_pairs_balances_a_hot_block() {
        let (_, corpus) = tiny_corpus(40);
        let ids: Vec<u64> = (0..40).collect();
        // One hot group holding nearly all pairs plus a few singleton groups
        // — the shape a hot drug block produces.
        let hot = pairs_involving_new(&ids[..30], &[]);
        let groups = vec![
            hot.clone(),
            vec![PairId::new(30, 31)],
            vec![PairId::new(32, 33)],
            vec![PairId::new(34, 35)],
        ];
        let packed = pack_pairs(&corpus, groups.clone(), 4);
        assert_eq!(packed.len(), 4);
        // Every pair survives exactly once.
        let mut flat: Vec<PairId> = packed.iter().flatten().copied().collect();
        flat.sort();
        let mut expect: Vec<PairId> = groups.into_iter().flatten().collect();
        expect.sort();
        assert_eq!(flat, expect);
        // The hot block is split: its pairs span several partitions, and the
        // heaviest partition carries far less than the whole.
        let weigher = PairWeigher::new(&corpus);
        let loads: Vec<u64> = packed
            .iter()
            .map(|part| part.iter().map(|p| weigher.weigh(p)).sum())
            .collect();
        let total: u64 = loads.iter().sum();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(
            max < total / 2,
            "hot block must be split across partitions: max {max} of {total}"
        );
        assert!(
            max <= min.saturating_mul(2).max(total / 2),
            "LPT packing should be roughly balanced: {loads:?}"
        );
        // Deterministic.
        let again = pack_pairs(
            &corpus,
            vec![
                hot,
                vec![PairId::new(30, 31)],
                vec![PairId::new(32, 33)],
                vec![PairId::new(34, 35)],
            ],
            4,
        );
        assert_eq!(packed, again);
    }

    #[test]
    fn pack_pairs_handles_degenerate_inputs() {
        let (_, corpus) = tiny_corpus(4);
        assert_eq!(pack_pairs(&corpus, Vec::new(), 3), vec![Vec::new(); 3]);
        let one = vec![vec![PairId::new(0, 1)]];
        let packed = pack_pairs(&corpus, one, 0);
        assert_eq!(packed.len(), 1, "zero partitions clamps to one");
        assert_eq!(packed[0], vec![PairId::new(0, 1)]);
    }

    #[test]
    fn pack_pairs_allocates_partitions_at_exact_capacity() {
        // Same discipline the engine pins for shuffle buckets: destinations
        // and counts are decided before any pair moves, so every partition
        // Vec is allocated exactly once at its final size. A doubling-growth
        // regression would show up here as capacity() > len().
        let (_, corpus) = tiny_corpus(40);
        let ids: Vec<u64> = (0..40).collect();
        let groups = vec![
            pairs_involving_new(&ids[..25], &[]),
            pairs_involving_new(&ids[25..33], &[]),
            vec![PairId::new(33, 34), PairId::new(35, 36)],
            vec![PairId::new(37, 38)],
        ];
        for parts in [1usize, 3, 4, 8] {
            let packed = pack_pairs(&corpus, groups.clone(), parts);
            assert_eq!(packed.len(), parts);
            for (i, part) in packed.iter().enumerate() {
                assert_eq!(
                    part.capacity(),
                    part.len(),
                    "partition {i} of {parts} over-allocated: capacity {} for {} pairs",
                    part.capacity(),
                    part.len()
                );
            }
        }
    }

    #[test]
    fn distance_memo_answers_repeats_and_respects_capacity() {
        let mut memo = DistanceMemo::with_capacity(2);
        assert!(memo.is_empty());
        let (a, b, c) = (PairId::new(0, 1), PairId::new(0, 2), PairId::new(1, 2));
        let va = [1.0; DETECTION_DIMS];
        assert_eq!(memo.get(&a), None);
        assert_eq!(memo.hits(), 0, "misses are not hits");
        memo.insert(a, va);
        memo.insert(b, [2.0; DETECTION_DIMS]);
        memo.insert(c, [3.0; DETECTION_DIMS]); // over capacity: dropped
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get(&a), Some(va));
        assert_eq!(memo.get(&c), None);
        assert_eq!(memo.hits(), 1);
        // Existing entries are never overwritten.
        memo.insert(a, [9.0; DETECTION_DIMS]);
        assert_eq!(memo.get(&a), Some(va));
        // Capacity 0 disables storage entirely.
        let mut off = DistanceMemo::with_capacity(0);
        off.insert(a, va);
        assert!(off.is_empty());
        assert_eq!(off.get(&a), None);
    }

    #[test]
    fn split_known_preserves_order_and_partitions_exactly() {
        let mut memo = DistanceMemo::with_capacity(16);
        let known_pid = PairId::new(1, 2);
        let v = [0.5; DETECTION_DIMS];
        memo.insert(known_pid, v);
        let groups = vec![
            vec![PairId::new(0, 1), known_pid, PairId::new(0, 2)],
            vec![known_pid],
            vec![PairId::new(3, 4)],
        ];
        let (unknown, known) = memo.split_known(groups);
        // Unknown pairs keep group shape and order; emptied groups vanish.
        assert_eq!(
            unknown,
            vec![
                vec![PairId::new(0, 1), PairId::new(0, 2)],
                vec![PairId::new(3, 4)],
            ]
        );
        // Both appearances of the memoised pair are answered.
        assert_eq!(known, vec![(known_pid, v), (known_pid, v)]);
        assert_eq!(memo.hits(), 2);
    }

    /// The distance job's error for `partitions`: the typed failure of
    /// morsel `task`, naming `missing`.
    fn assert_unknown_report(
        corpus: &CorpusIndex,
        partitions: Vec<Vec<PairId>>,
        task: usize,
        missing: ReportId,
    ) {
        let err = pairwise_distance_batches(&Cluster::local(2), corpus, partitions).unwrap_err();
        match err {
            SparkletError::TaskFailed {
                stage,
                task: failed,
                reason,
                ..
            } => {
                assert_eq!(stage, "pairwise-distances");
                assert_eq!(failed, task);
                assert_eq!(reason, format!("user error: unknown report {missing}"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn unknown_report_id_is_an_error() {
        let corpus = index_corpus(Vec::new());
        assert_unknown_report(&corpus, vec![vec![PairId::new(1, 2)]], 0, 1);
    }

    #[test]
    fn an_unknown_held_member_partner_or_first_pair_is_a_typed_error() {
        let (processed, _) = tiny_corpus(8);
        let corpus = index_corpus(processed.into_iter().filter(|p| p.id != 3));
        let p = PairId::new;
        // The held member: the run of `lo` 3 starts mid-morsel, and in
        // §3's new×existing order the shared `hi` 3 is held.
        assert_unknown_report(
            &corpus,
            vec![vec![p(0, 1), p(0, 2), p(3, 4), p(3, 5)]],
            0,
            3,
        );
        assert_unknown_report(
            &corpus,
            vec![vec![p(0, 1), p(0, 3), p(1, 3), p(2, 3)]],
            0,
            3,
        );
        // The partner of a held `lo`, and of a held `hi`.
        assert_unknown_report(&corpus, vec![vec![p(0, 1), p(0, 3), p(0, 4)]], 0, 3);
        assert_unknown_report(&corpus, vec![vec![p(0, 5), p(3, 5), p(4, 5)]], 0, 3);
        // The first pair of a morsel: nothing is held across morsels.
        assert_unknown_report(
            &corpus,
            vec![vec![p(0, 1), p(0, 2)], vec![p(3, 4), p(4, 5)]],
            1,
            3,
        );
        assert_unknown_report(&corpus, vec![vec![], vec![p(1, 3), p(1, 4)]], 1, 3);
    }

    #[test]
    fn the_weigher_never_lends_a_cached_weight_to_an_unknown_report() {
        let (processed, _) = tiny_corpus(8);
        let corpus = index_corpus(processed.iter().filter(|p| p.id != 3).cloned());
        let weigher = PairWeigher::new(&corpus);
        let w = |lo: usize, hi: usize| pair_op_weight(&processed[lo], &processed[hi]);
        let p = PairId::new;
        let expected = [
            (p(0, 1), w(0, 1)),
            (p(0, 2), w(0, 2)),
            // A cached, known `lo` with an unknown partner.
            (p(0, 3), PAIR_OP_BASE),
            (p(0, 4), w(0, 4)),
            // An unknown `lo` after a known one, then cached as unknown.
            (p(3, 4), PAIR_OP_BASE),
            (p(3, 5), PAIR_OP_BASE),
            (p(4, 5), w(4, 5)),
            (p(2, 3), PAIR_OP_BASE),
            (p(2, 6), w(2, 6)),
        ];
        for (pid, weight) in expected {
            assert_eq!(weigher.weigh(&pid), weight, "{pid:?}");
        }
    }

    mod held_kernel {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        /// Token ids under 48 are common to many reports; the rest map far
        /// past them, so a partner often carries ids beyond the largest id
        /// any report held so far.
        fn token_set(raw: Vec<u32>) -> Vec<u32> {
            let mut ids: Vec<u32> = raw
                .into_iter()
                .map(|t| if t < 48 { t } else { 4_000 + 37 * t })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }

        fn bits(v: &DistVec) -> [u64; DETECTION_DIMS] {
            v.map(f64::to_bits)
        }

        /// Each report held in turn against every report, equal to
        /// `pair_distance` in both argument orders; every release leaves
        /// the thread's marks clear for the next report held.
        fn assert_held_equals_pair_distance(reports: &[ProcessedReport]) {
            for a in reports {
                let held = HeldReport::new(a);
                assert_eq!(held.stray_marks(), 0, "a released report left a mark");
                for b in reports {
                    let v = bits(&held.distance(b));
                    assert_eq!(v, bits(&pair_distance(a, b)), "{} vs {}", a.id, b.id);
                    assert_eq!(v, bits(&pair_distance(b, a)), "{} vs {}", b.id, a.id);
                }
            }
        }

        /// The distance job over `pairs` cut into `parts` even runs: every
        /// row has the bits of `pair_distance` of its pair, in input order.
        fn assert_job_equals_pair_distance(
            cluster: &Cluster,
            reports: &[ProcessedReport],
            pairs: Vec<PairId>,
            parts: usize,
        ) {
            let corpus = index_corpus(reports.iter().cloned());
            let (got, batch) = pairwise_distance_batches(
                cluster,
                &corpus,
                contiguous_partitions(pairs.clone(), parts),
            )
            .unwrap();
            assert_eq!(got, pairs);
            for (i, pid) in pairs.iter().enumerate() {
                let expected = pair_distance(&corpus[&pid.lo], &corpus[&pid.hi]);
                assert_eq!(bits(&batch.row(i)), bits(&expected), "{pid:?}");
            }
        }

        proptest! {
            #[test]
            fn held_kernel_equals_pair_distance_in_every_pair_order(
                raw in prop::collection::vec(
                    (
                        prop::collection::vec(0u32..64, 0..4),
                        prop::collection::vec(0u32..64, 0..4),
                        prop::collection::vec(0u32..64, 0..24),
                        0u8..3,
                    ),
                    1..14,
                ),
                new in 0usize..6,
                parts in 1usize..4,
                seed in 0u64..u64::MAX,
            ) {
                let mut reports: Vec<ProcessedReport> = raw
                    .into_iter()
                    .zip(0u64..)
                    .map(|((drugs, adrs, narrative, scalar), id)| ProcessedReport {
                        id,
                        age: [None, Some(40.0), Some(41.0)][scalar as usize],
                        sex: (scalar > 0).then(|| "F".to_string()),
                        state: Some("NSW".into()),
                        onset_date: (scalar == 1).then(|| "01/01/2013".to_string()),
                        outcome: None,
                        drug_tokens: token_set(drugs),
                        adr_tokens: token_set(adrs),
                        narrative_terms: token_set(narrative),
                    })
                    .collect();
                // Fixed shapes on top of the drawn ones: one token id in the
                // drug and the narrative set, and every set empty.
                let n = reports.len() as u64;
                let mut shared = reports[0].clone();
                shared.id = n;
                shared.drug_tokens = vec![5, 4_500];
                shared.narrative_terms = vec![5, 4_500, 9_000];
                let mut empty = shared.clone();
                empty.id = n + 1;
                empty.drug_tokens.clear();
                empty.adr_tokens.clear();
                empty.narrative_terms.clear();
                reports.extend([shared, empty.clone()]);
                empty.id = n + 2;
                reports.push(empty);

                // On a fresh thread the marks start empty, so the partners
                // carrying id 9,000 reach past the buffer of every report
                // held before `shared`.
                std::thread::scope(|s| {
                    s.spawn(|| assert_held_equals_pair_distance(&reports));
                });

                let ids: Vec<ReportId> = reports.iter().map(|r| r.id).collect();
                let (existing, new_ids) = ids.split_at(ids.len() - new.min(ids.len()));
                let in_pair_order = pairs_involving_new(&ids, &[]);
                let mut shuffled = in_pair_order.clone();
                shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
                let cluster = Cluster::local(2);
                for pairs in [in_pair_order, pairs_involving_new(new_ids, existing), shuffled] {
                    assert_job_equals_pair_distance(&cluster, &reports, pairs, parts);
                }
            }
        }
    }
}
