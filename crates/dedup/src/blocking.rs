//! Candidate-pair blocking.
//!
//! §3's `Dupe(R, A)` compares every new report against the whole database —
//! quadratic and exactly what the paper parallelises. Production linkage
//! systems first *block*: only reports sharing a key (here: a drug-name
//! token, or the onset date) become candidate pairs. This module provides a
//! blocking index, candidate generation, and the two standard quality
//! measures — **reduction ratio** (pairs avoided) and **pair completeness**
//! (ground-truth duplicates still covered). The workload builder and
//! [`crate::DedupSystem`] can both run on top of it.
//!
//! Every candidate route reads a block through one function,
//! [`BlockingIndex::posting_list`], and keys a report through one,
//! [`BlockingIndex::probe_keys`]: a change to what a block yields (a purge
//! of an over-large block, say) is a change to `posting_list`.

use crate::distance::ProcessedReport;
use adr_model::{PairId, ReportId};
use simmetrics::hash::WordMap;
use simmetrics::{intersect_gallop_into, union_k_sorted_into};
use std::collections::hash_map::Entry;
use std::collections::HashSet;

/// A compact blocking key: a drug token (already interned by
/// [`textprep::TokenInterner`]) or an onset date (interned by the index
/// itself). Two machine words instead of a formatted `String` — no
/// allocation and a cheap integer hash per token on the ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockKey {
    /// A drug-name token id.
    Drug(u32),
    /// An interned onset-date id.
    Date(u32),
}

/// Inverted index from blocking keys to **sorted u32 posting lists** of
/// dense report rows.
///
/// Report ids are interned to dense rows at insert time (`row_of` /
/// `id_of`); because rows are handed out monotonically, appending a fresh
/// report's row to each of its key lists keeps every posting list sorted
/// and deduplicated for free. Candidate generation then runs entirely on
/// sorted-set kernels — k-way merge union
/// ([`simmetrics::union_k_sorted_into`]) for a report's partner set and
/// galloping intersection ([`simmetrics::intersect_gallop_into`]) to find a
/// block's newly-arrived members — with no per-report `HashSet` or `Vec`
/// allocation on the warm path.
#[derive(Debug, Clone, Default)]
pub struct BlockingIndex {
    /// Per-key posting list of dense rows, always sorted ascending and
    /// deduplicated. [`BlockingIndex::posting_list`] is its one reader;
    /// `insert` and `truncate` are its writers.
    blocks: WordMap<BlockKey, Vec<u32>>,
    /// Dense row → the [`BlockingIndex::probe_keys`] of its report, taken
    /// at insert.
    keys: Vec<Vec<BlockKey>>,
    /// Report id → dense row.
    row_of: WordMap<ReportId, u32>,
    /// Dense row → report id (inverse of `row_of`).
    id_of: Vec<ReportId>,
    /// Onset-date interner: equal date strings get equal ids, so
    /// [`BlockKey::Date`] equality matches string equality.
    date_ids: WordMap<String, u32>,
}

/// A report's blocking keys: its drug tokens, then its onset date's id
/// when it has one — `date`, looked up (or interned) by the caller.
fn keys_of(r: &ProcessedReport, date: Option<u32>) -> Vec<BlockKey> {
    let drugs = r.drug_tokens.iter().map(|&t| BlockKey::Drug(t));
    drugs.chain(date.map(BlockKey::Date)).collect()
}

impl BlockingIndex {
    /// Build an index over processed reports, keying each report by every
    /// drug token and by its onset date (when present).
    pub fn build(reports: &[ProcessedReport]) -> Self {
        let mut index = BlockingIndex::default();
        for r in reports {
            index.insert(r);
        }
        index
    }

    /// Add a report to the index under the next dense row, the largest
    /// row yet: pushing it onto each of its key lists keeps every list
    /// sorted and deduplicated. Its onset date is interned first — one
    /// lookup for a known date, a second to add a new one — so its keys
    /// are its [`BlockingIndex::probe_keys`].
    ///
    /// # Panics
    /// Panics if the index already holds a report with this id.
    pub fn insert(&mut self, r: &ProcessedReport) {
        let row = self.id_of.len() as u32;
        assert!(
            self.row_of.insert(r.id, row).is_none(),
            "report {} is already in the blocking index",
            r.id
        );
        self.id_of.push(r.id);
        let date = r.onset_date.as_ref().map(|date| {
            if let Some(&id) = self.date_ids.get(date.as_str()) {
                return id;
            }
            let next = self.date_ids.len() as u32;
            self.date_ids.insert(date.clone(), next);
            next
        });
        let keys = keys_of(r, date);
        for key in &keys {
            let list = self.blocks.entry(*key).or_default();
            if list.last() != Some(&row) {
                list.push(row);
            }
        }
        self.keys.push(keys);
    }

    /// How far the index has grown: the mark [`BlockingIndex::truncate`]
    /// returns it to.
    pub(crate) fn mark(&self) -> BlockingMark {
        BlockingMark {
            rows: self.id_of.len(),
            dates: self.date_ids.len(),
        }
    }

    /// Remove every report inserted since `mark` was taken, and the date
    /// ids they interned. Rows are handed out monotonically, so those
    /// reports' rows are the tails of their keys' posting lists: they are
    /// popped, last row first, and a block left empty goes. The index is
    /// then the one `mark` was taken of, up to capacity.
    pub(crate) fn truncate(&mut self, mark: BlockingMark) {
        for (i, keys) in self.keys.drain(mark.rows..).enumerate().rev() {
            let row = (mark.rows + i) as u32;
            for key in keys {
                // A key the report listed twice finds its row gone already.
                let Entry::Occupied(mut block) = self.blocks.entry(key) else {
                    continue;
                };
                // Later rows are gone already, so this row is the tail.
                if block.get().last() == Some(&row) {
                    block.get_mut().pop();
                }
                if block.get().is_empty() {
                    block.remove();
                }
            }
        }
        for id in self.id_of.drain(mark.rows..) {
            self.row_of.remove(&id);
        }
        self.date_ids.retain(|_, id| (*id as usize) < mark.dates);
    }

    /// Number of distinct blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The sorted posting list (dense rows) of one block, if the key has any
    /// members. Every candidate route reads its blocks here and nowhere
    /// else.
    pub fn posting_list(&self, key: BlockKey) -> Option<&[u32]> {
        self.blocks.get(&key).map(|v| v.as_slice())
    }

    /// Union the posting lists of `keys` into `rows` (sorted, deduplicated,
    /// still holding the report's own row if it is indexed): the one
    /// partner walk of [`BlockingIndex::candidate_pairs`] and
    /// [`BlockingIndex::probe_candidates`]. `lists`, `cursors` and `rows`
    /// are the caller's scratch, so a warm call allocates nothing.
    fn partner_rows<'a>(
        &'a self,
        keys: &[BlockKey],
        lists: &mut Vec<&'a [u32]>,
        cursors: &mut Vec<usize>,
        rows: &mut Vec<u32>,
    ) {
        lists.clear();
        lists.extend(keys.iter().filter_map(|&key| self.posting_list(key)));
        rows.clear();
        union_k_sorted_into(lists, cursors, rows);
    }

    /// Blocking keys of a report derived **read-only** — nothing is
    /// interned or inserted, so a serving layer can key a probe report
    /// against a shared index without `&mut` access. Drug keys reuse the
    /// report's interned token ids; the date key resolves only when some
    /// indexed report already interned the same date string (a date no
    /// indexed report carries cannot match any block anyway). Like
    /// [`BlockingIndex::insert`], which interns the date instead of looking
    /// it up, it keys the report through [`keys_of`], the index's one key
    /// derivation.
    pub fn probe_keys(&self, r: &ProcessedReport) -> Vec<BlockKey> {
        let date = (r.onset_date.as_ref()).and_then(|date| self.date_ids.get(date.as_str()));
        keys_of(r, date.copied())
    }

    /// Candidate partners of a probe report *without inserting it*: the
    /// union of the posting lists of its [`BlockingIndex::probe_keys`],
    /// excluding the probe's own row when the same id is already indexed.
    /// Sorted by report id. For an indexed report these are the partners
    /// [`BlockingIndex::candidate_pairs`] pairs it with.
    pub fn probe_candidates(&self, r: &ProcessedReport) -> Vec<ReportId> {
        let (mut lists, mut cursors, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        self.partner_rows(&self.probe_keys(r), &mut lists, &mut cursors, &mut rows);
        let own = self.row_of.get(&r.id).copied();
        let mut v: Vec<ReportId> = rows
            .iter()
            .filter(|&&row| Some(row) != own)
            .map(|&row| self.id_of[row as usize])
            .collect();
        // Rows are in insertion order, not id order; restore the sorted-ids
        // contract (a no-op sort when reports arrived in id order).
        v.sort_unstable();
        v
    }

    /// Candidate pairs for a batch of new reports against the indexed
    /// database (the blocked version of
    /// [`crate::pairing::pairs_involving_new`]). The new reports must
    /// already be inserted; an id the index does not hold pairs with
    /// nothing. Strictly increasing — sorted, each pair once — and
    /// [`DedupSystem::detect_new`](crate::DedupSystem::detect_new) keeps
    /// this order from the distance job to the classifier.
    ///
    /// Two linear passes: each new report's partner walk, then an LSD
    /// radix sort of what the walks emitted over 16-bit digits of
    /// `(lo, hi)`, skipping every digit all pairs share (two counting
    /// passes on ids below 2¹⁶), and an adjacent dedup.
    pub fn candidate_pairs(&self, new_ids: &[ReportId]) -> Vec<PairId> {
        let mut out = self.partner_pairs(new_ids);
        sort_dedup_pairs(&mut out);
        out
    }

    /// Every new report paired with each of its partners, report by report
    /// in `new_ids` order: [`BlockingIndex::candidate_pairs`] before its
    /// sort. A pair of two new reports appears once per endpoint.
    fn partner_pairs(&self, new_ids: &[ReportId]) -> Vec<PairId> {
        let mut out: Vec<PairId> = Vec::new();
        let (mut lists, mut cursors, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for &id in new_ids {
            let Some(&own) = self.row_of.get(&id) else {
                continue;
            };
            let keys = &self.keys[own as usize];
            self.partner_rows(keys, &mut lists, &mut cursors, &mut rows);
            out.extend(
                rows.iter()
                    .filter(|&&r| r != own)
                    .map(|&r| PairId::new(id, self.id_of[r as usize])),
            );
        }
        out
    }

    /// Per-block candidate pairs for a batch of new reports — the same pair
    /// set as [`BlockingIndex::candidate_pairs`], kept grouped by blocking
    /// key for a skew-aware packer ([`crate::pairing::pack_pairs`]) — plus
    /// the number of **multi-key duplicates** dropped: pairs reachable
    /// through more than one blocking key, each counted once per extra key.
    /// This is exactly the set of distance evaluations a naive per-block
    /// pipeline would repeat.
    ///
    /// Blocks are visited in [`BlockKey`] order; a pair sharing several keys
    /// is assigned to the first block that produces it, and pairs are sorted
    /// within each group — the grouping is fully deterministic and flattens
    /// (after a global sort) to exactly `candidate_pairs`. Only the frozen
    /// wall-clock benchmark calls it: its `decomposed.rs` rebuilds the
    /// packed route `detect_new` took before it took `candidate_pairs`.
    pub fn candidate_pair_groups_counted(&self, new_ids: &[ReportId]) -> (Vec<Vec<PairId>>, u64) {
        // Sorted rows of the arriving batch — the gallop driver below.
        let mut new_rows: Vec<u32> = new_ids
            .iter()
            .filter_map(|id| self.row_of.get(id).copied())
            .collect();
        new_rows.sort_unstable();
        new_rows.dedup();
        let mut touched: Vec<BlockKey> = new_rows
            .iter()
            .flat_map(|&row| self.keys[row as usize].iter().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        // Tag every block's pair set with the block's rank in key order; the
        // first-block-wins rule then falls out of a sort + dedup, no HashSet.
        let mut tagged: Vec<(PairId, u32)> = Vec::new();
        let mut new_members: Vec<u32> = Vec::new();
        let mut block_pairs: Vec<PairId> = Vec::new();
        for (rank, &key) in touched.iter().enumerate() {
            let Some(members) = self.posting_list(key) else {
                continue;
            };
            new_members.clear();
            intersect_gallop_into(&new_rows, members, &mut new_members);
            block_pairs.clear();
            for &n in &new_members {
                let nid = self.id_of[n as usize];
                for &m in members.iter() {
                    if m != n {
                        block_pairs.push(PairId::new(nid, self.id_of[m as usize]));
                    }
                }
            }
            // New–new pairs were emitted from both endpoints; collapse them
            // before tagging so the duplicate count is strictly cross-block.
            block_pairs.sort_unstable();
            block_pairs.dedup();
            tagged.extend(block_pairs.iter().map(|&p| (p, rank as u32)));
        }
        tagged.sort_unstable();
        let enumerated = tagged.len() as u64;
        // Sorted by (pair, rank): the first entry of each pair run carries
        // the smallest rank — the first block that produced it.
        tagged.dedup_by_key(|(p, _)| *p);
        let duplicates = enumerated - tagged.len() as u64;
        let mut groups: Vec<Vec<PairId>> = vec![Vec::new(); touched.len()];
        for (p, rank) in tagged {
            // Global (pair, rank) order means each group receives its pairs
            // already sorted.
            groups[rank as usize].push(p);
        }
        groups.retain(|g| !g.is_empty());
        (groups, duplicates)
    }

    /// All candidate pairs the index induces over the whole database:
    /// [`BlockingIndex::candidate_pairs`] with every indexed report new.
    pub fn all_candidate_pairs(&self) -> Vec<PairId> {
        self.candidate_pairs(&self.id_of)
    }
}

#[cfg(test)]
impl BlockingIndex {
    /// Panic unless `other` holds the same blocks, per-row keys, rows and
    /// date ids, naming the first field that differs.
    pub(crate) fn assert_same_as(&self, other: &BlockingIndex) {
        assert_eq!(self.blocks, other.blocks, "blocks");
        assert_eq!(self.keys, other.keys, "keys");
        assert_eq!(self.row_of, other.row_of, "row_of");
        assert_eq!(self.id_of, other.id_of, "id_of");
        assert_eq!(self.date_ids, other.date_ids, "date_ids");
    }
}

/// Bits per digit of [`sort_dedup_pairs`]: ids below 2¹⁶ sort in one pass
/// per member.
const RADIX_BITS: u32 = 16;

/// Sort `pairs` ascending — by `lo`, then `hi`, [`PairId`]'s order — and
/// drop repeats: an LSD radix sort over the eight 16-bit digits of
/// `(lo, hi)`, least significant first, each pass a stable counting sort.
/// A digit every pair shares leaves the order as it is, so its pass is
/// skipped: a database whose ids fit in 16 bits costs two passes, and any
/// `u64` id takes the same code path. Within a digit the pairs share every
/// bit above the highest one that varies, so a pass counts only the bits
/// up to it: ids below 10,000 take 2¹⁴ counters, not 2¹⁶. Repeats are
/// then adjacent.
pub(crate) fn sort_dedup_pairs(pairs: &mut Vec<PairId>) {
    let Some(&first) = pairs.first() else {
        return;
    };
    // Bit `b` of `varies[m]` is set when member `m` (0: hi, 1: lo) differs
    // somewhere in bit `b`.
    let mut varies = [0u64; 2];
    for p in pairs.iter() {
        varies[0] |= p.hi ^ first.hi;
        varies[1] |= p.lo ^ first.lo;
    }
    let mut counts: Vec<usize> = Vec::new();
    let mut sorted = vec![first; pairs.len()];
    for (member, &varied) in varies.iter().enumerate() {
        for shift in (0..u64::BITS).step_by(RADIX_BITS as usize) {
            let digit_varies = varied >> shift & ((1 << RADIX_BITS) - 1);
            if digit_varies == 0 {
                continue;
            }
            let width = u64::BITS - digit_varies.leading_zeros();
            let low_bits = (1u64 << width) - 1;
            let digit = |p: &PairId| {
                let word = if member == 0 { p.hi } else { p.lo };
                (word >> shift & low_bits) as usize
            };
            counts.clear();
            counts.resize(1 << width, 0);
            for p in pairs.iter() {
                counts[digit(p)] += 1;
            }
            let mut start = 0;
            for count in counts.iter_mut() {
                (*count, start) = (start, start + *count);
            }
            for p in pairs.iter() {
                let slot = &mut counts[digit(p)];
                sorted[*slot] = *p;
                *slot += 1;
            }
            std::mem::swap(pairs, &mut sorted);
        }
    }
    pairs.dedup();
}

/// A [`BlockingIndex`]'s row count and date count: where
/// [`BlockingIndex::truncate`] cuts it back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockingMark {
    rows: usize,
    dates: usize,
}

/// Blocking quality relative to a ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingQuality {
    /// Fraction of the full pair space avoided (1 is best).
    pub reduction_ratio: f64,
    /// Fraction of true duplicate pairs still covered (1 is best).
    pub pair_completeness: f64,
}

/// Evaluate an index against ground-truth duplicate pairs over `n` reports.
pub fn evaluate_blocking(
    index: &BlockingIndex,
    n_reports: usize,
    true_duplicates: &HashSet<PairId>,
) -> BlockingQuality {
    let candidates = index.all_candidate_pairs();
    let total_pairs = n_reports * n_reports.saturating_sub(1) / 2;
    // `all_candidate_pairs` is sorted: membership is a binary search, no
    // rebuilt HashSet per evaluation.
    let covered = true_duplicates
        .iter()
        .filter(|p| candidates.binary_search(p).is_ok())
        .count();
    BlockingQuality {
        reduction_ratio: if total_pairs == 0 {
            0.0
        } else {
            1.0 - candidates.len() as f64 / total_pairs as f64
        },
        pair_completeness: if true_duplicates.is_empty() {
            1.0
        } else {
            covered as f64 / true_duplicates.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_synth::{Dataset, SynthConfig};
    use dedup_test_helpers::processed;
    use std::collections::HashMap;

    mod dedup_test_helpers {
        use crate::distance::ProcessedReport;
        use adr_synth::Dataset;
        use textprep::{Pipeline, TokenInterner};

        pub fn processed(ds: &Dataset) -> Vec<ProcessedReport> {
            let p = Pipeline::paper();
            let mut interner = TokenInterner::new();
            ds.reports
                .iter()
                .map(|r| ProcessedReport::from_report(r, &p, &mut interner))
                .collect()
        }
    }

    #[test]
    fn candidates_share_a_key() {
        let ds = Dataset::generate(&SynthConfig::small(200, 10, 3));
        let reports = processed(&ds);
        let index = BlockingIndex::build(&reports);
        let by_id: HashMap<u64, &ProcessedReport> = reports.iter().map(|r| (r.id, r)).collect();
        for r in reports.iter().take(20) {
            for partner in index.probe_candidates(r) {
                let p = by_id[&partner];
                let share_drug = r.drug_tokens.iter().any(|t| p.drug_tokens.contains(t));
                let share_date = r.onset_date.is_some() && r.onset_date == p.onset_date;
                assert!(
                    share_drug || share_date,
                    "candidate {partner} shares no key with {}",
                    r.id
                );
            }
        }
    }

    #[test]
    fn blocking_covers_most_duplicates_and_reduces_pairs() {
        let ds = Dataset::generate(&SynthConfig::small(600, 30, 7));
        let reports = processed(&ds);
        let index = BlockingIndex::build(&reports);
        let quality = evaluate_blocking(&index, reports.len(), &ds.duplicate_set());
        assert!(
            quality.pair_completeness >= 0.95,
            "duplicates share drugs/dates almost always, got {}",
            quality.pair_completeness
        );
        assert!(
            quality.reduction_ratio >= 0.5,
            "blocking must prune at least half the pair space, got {}",
            quality.reduction_ratio
        );
    }

    #[test]
    fn candidate_pairs_for_new_reports_are_canonical_and_deduplicated() {
        let ds = Dataset::generate(&SynthConfig::small(150, 8, 5));
        let reports = processed(&ds);
        let index = BlockingIndex::build(&reports);
        let new_ids: Vec<u64> = (140..150).collect();
        let pairs = index.candidate_pairs(&new_ids);
        let set: HashSet<PairId> = pairs.iter().copied().collect();
        assert_eq!(set.len(), pairs.len(), "no duplicate pairs");
        for p in &pairs {
            assert!(p.lo < p.hi);
            assert!(new_ids.contains(&p.lo) || new_ids.contains(&p.hi));
        }
    }

    #[test]
    fn equal_date_strings_intern_to_the_same_key() {
        let ds = Dataset::generate(&SynthConfig::small(120, 6, 9));
        let reports = processed(&ds);
        let mut index = BlockingIndex::default();
        // A report's date key is the last of its keys; a date seen before
        // reuses the interned id, not a fresh one.
        let mut key_of_date: HashMap<&str, BlockKey> = HashMap::new();
        let mut dated = 0;
        for r in &reports {
            index.insert(r);
            let Some(date) = r.onset_date.as_deref() else {
                continue;
            };
            dated += 1;
            let key = *index.keys[index.row_of[&r.id] as usize].last().unwrap();
            assert!(matches!(key, BlockKey::Date(_)), "{key:?}");
            assert_eq!(*key_of_date.entry(date).or_insert(key), key, "{date}");
        }
        assert_eq!(index.date_ids.len(), key_of_date.len());
        assert!(
            key_of_date.len() < dated,
            "some date repeats on this corpus"
        );
    }

    #[test]
    fn empty_index_yields_nothing() {
        let index = BlockingIndex::default();
        assert!(index.all_candidate_pairs().is_empty());
        assert!(index.candidate_pairs(&[1, 2, 3]).is_empty());
        assert_eq!(
            index.candidate_pair_groups_counted(&[1, 2, 3]),
            (Vec::new(), 0)
        );
        let q = evaluate_blocking(&index, 0, &HashSet::new());
        assert_eq!(q.pair_completeness, 1.0);
    }

    #[test]
    fn posting_lists_are_sorted_and_deduplicated() {
        let ds = Dataset::generate(&SynthConfig::small(400, 20, 13));
        let reports = processed(&ds);
        let index = BlockingIndex::build(&reports);
        assert!(index.block_count() > 0);
        for (key, list) in &index.blocks {
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "posting list for {key:?} not sorted+deduped"
            );
            assert_eq!(Some(list.as_slice()), index.posting_list(*key));
            for &row in list {
                assert!((row as usize) < index.id_of.len(), "row out of range");
            }
        }
        // Row interning is a bijection.
        for (id, &row) in &index.row_of {
            assert_eq!(index.id_of[row as usize], *id);
        }
    }

    #[test]
    #[should_panic(expected = "report 3 is already in the blocking index")]
    fn inserting_a_known_id_panics() {
        let ds = Dataset::generate(&SynthConfig::small(40, 2, 13));
        let reports = processed(&ds);
        let mut index = BlockingIndex::build(&reports);
        index.insert(&reports[3]);
    }

    #[test]
    fn truncate_returns_the_index_to_its_mark() {
        let ds = Dataset::generate(&SynthConfig::small(300, 15, 23));
        let reports = processed(&ds);
        let (base, tail) = reports.split_at(260);
        let control = BlockingIndex::build(base);
        let mut index = control.clone();
        let mark = index.mark();
        for r in tail {
            index.insert(r);
        }
        assert!(index.block_count() > control.block_count());
        assert!(index.date_ids.len() > control.date_ids.len());
        index.truncate(mark);
        assert_eq!(index.mark(), control.mark());
        assert_eq!(index.blocks, control.blocks);
        assert_eq!(index.keys, control.keys);
        assert_eq!(index.row_of, control.row_of);
        assert_eq!(index.id_of, control.id_of);
        assert_eq!(index.date_ids, control.date_ids);
        // The same tail again gets the rows and date ids it got before.
        let mut again = control.clone();
        for r in tail {
            index.insert(r);
            again.insert(r);
        }
        assert_eq!(index.blocks, again.blocks);
        assert_eq!(index.date_ids, again.date_ids);
    }

    #[test]
    fn candidate_pair_groups_flatten_to_candidate_pairs() {
        let ds = Dataset::generate(&SynthConfig::small(300, 15, 11));
        let reports = processed(&ds);
        let index = BlockingIndex::build(&reports);
        let new_ids: Vec<u64> = (280..300).collect();
        let (groups, _) = index.candidate_pair_groups_counted(&new_ids);
        // `detect_new` relies on `candidate_pairs` being strictly
        // increasing: its blocked rows reach the classifier in this order.
        let pairs = index.candidate_pairs(&new_ids);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        let mut flat: Vec<PairId> = groups.iter().flatten().copied().collect();
        let set: HashSet<PairId> = flat.iter().copied().collect();
        assert_eq!(set.len(), flat.len(), "a pair appears in exactly one group");
        flat.sort_unstable();
        assert_eq!(flat, pairs);
        for g in &groups {
            assert!(!g.is_empty(), "empty groups are dropped");
            assert!(g.windows(2).all(|w| w[0] < w[1]), "sorted within group");
        }
        // Deterministic: a second call gives the identical grouping.
        assert_eq!(index.candidate_pair_groups_counted(&new_ids).0, groups);
    }

    #[test]
    fn counted_groups_report_multi_key_duplicates() {
        let ds = Dataset::generate(&SynthConfig::small(300, 15, 11));
        let reports = processed(&ds);
        let index = BlockingIndex::build(&reports);
        let new_ids: Vec<u64> = (280..300).collect();
        let (groups, dups) = index.candidate_pair_groups_counted(&new_ids);
        let unique: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(unique, index.candidate_pairs(&new_ids).len());
        // Duplicate reports share drug tokens *and* dates, so some pairs
        // must be reachable via more than one key on this corpus.
        assert!(dups > 0, "expected multi-key pairs on a duplicate corpus");
        // Deterministic: a second call gives the identical count.
        assert_eq!(index.candidate_pair_groups_counted(&new_ids).1, dups);
    }

    /// Every route against a brute force over the reports themselves: two
    /// reports are candidates when they share a drug token id or an equal
    /// onset-date string.
    mod routes {
        use super::*;
        use proptest::prelude::*;

        fn report(id: ReportId, mut drugs: Vec<u32>, date: u8) -> ProcessedReport {
            drugs.sort_unstable();
            drugs.dedup();
            ProcessedReport {
                id,
                age: None,
                sex: None,
                state: None,
                onset_date: ["01/01/2013", "02/01/2013", "03/01/2013"]
                    .get(date as usize)
                    .map(|d| d.to_string()),
                outcome: None,
                drug_tokens: drugs,
                adr_tokens: Vec::new(),
                narrative_terms: Vec::new(),
            }
        }

        /// The keys `a` and `b` share: common drug tokens, plus one for an
        /// equal onset date.
        fn shared_keys(a: &ProcessedReport, b: &ProcessedReport) -> usize {
            let drugs = a
                .drug_tokens
                .iter()
                .filter(|t| b.drug_tokens.contains(t))
                .count();
            let date = a.onset_date.is_some() && a.onset_date == b.onset_date;
            drugs + usize::from(date)
        }

        /// Every brute-force candidate pair with a member in `of`.
        fn brute_pairs(reports: &[ProcessedReport], of: &HashSet<ReportId>) -> HashSet<PairId> {
            let mut pairs = HashSet::new();
            for (i, a) in reports.iter().enumerate() {
                for b in &reports[i + 1..] {
                    if shared_keys(a, b) > 0 && (of.contains(&a.id) || of.contains(&b.id)) {
                        pairs.insert(PairId::new(a.id, b.id));
                    }
                }
            }
            pairs
        }

        /// The brute-force partners of `probe` among `indexed`, sorted.
        fn brute_partners(indexed: &[ProcessedReport], probe: &ProcessedReport) -> Vec<ReportId> {
            let mut ids: Vec<ReportId> = indexed
                .iter()
                .filter(|r| r.id != probe.id && shared_keys(r, probe) > 0)
                .map(|r| r.id)
                .collect();
            ids.sort_unstable();
            ids
        }

        proptest! {
            #[test]
            fn every_route_equals_the_brute_force(
                raw in prop::collection::vec(
                    (prop::collection::vec(0u32..64, 0..4), 0u8..5),
                    1..24,
                ),
                probes in prop::collection::vec(
                    (prop::collection::vec(0u32..64, 0..4), 0u8..5),
                    0..4,
                ),
                alphabet in 1u32..12,
                new in 0usize..8,
                offset in 0u64..101,
            ) {
                // Drug ids drawn from a small alphabet, so blocks repeat and
                // overlap; dates 3 and 4 are none. Ids follow a permutation
                // of arrival order, so rows are not in id order.
                let reports: Vec<ProcessedReport> = raw
                    .into_iter()
                    .zip(0u64..)
                    .map(|((drugs, date), i)| {
                        let drugs = drugs.into_iter().map(|t| t % alphabet).collect();
                        report((i * 37 + offset) % 101, drugs, date)
                    })
                    .collect();
                let (base, batch) = reports.split_at(reports.len() - new.min(reports.len()));
                let mut index = BlockingIndex::build(base);
                let mark = index.mark();
                for r in batch {
                    index.insert(r);
                }
                let new_ids: Vec<ReportId> = batch.iter().map(|r| r.id).collect();
                let new_set: HashSet<ReportId> = new_ids.iter().copied().collect();

                // A batch's pairs: strictly increasing, the brute-force set.
                let pairs = index.candidate_pairs(&new_ids);
                prop_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
                let got: HashSet<PairId> = pairs.iter().copied().collect();
                prop_assert_eq!(got, brute_pairs(&reports, &new_set));

                // Grouped: flattens to the same pairs; each pair sharing k
                // keys was dropped k − 1 times.
                let (groups, duplicates) = index.candidate_pair_groups_counted(&new_ids);
                let mut flat: Vec<PairId> = groups.into_iter().flatten().collect();
                flat.sort_unstable();
                prop_assert_eq!(&flat, &pairs);
                let by_id: HashMap<ReportId, &ProcessedReport> =
                    reports.iter().map(|r| (r.id, r)).collect();
                let expected: usize =
                    pairs.iter().map(|p| shared_keys(by_id[&p.lo], by_id[&p.hi]) - 1).sum();
                prop_assert_eq!(duplicates, expected as u64);

                // The whole database.
                let all_ids: HashSet<ReportId> = reports.iter().map(|r| r.id).collect();
                let all: HashSet<PairId> = index.all_candidate_pairs().into_iter().collect();
                prop_assert_eq!(all, brute_pairs(&reports, &all_ids));

                // Probes: every indexed report, and unindexed ones — fresh
                // ids, one with a date no indexed report carries.
                let mut unindexed: Vec<ProcessedReport> = probes
                    .into_iter()
                    .zip(1_000u64..)
                    .map(|((drugs, date), id)| {
                        report(id, drugs.into_iter().map(|t| t % alphabet).collect(), date)
                    })
                    .collect();
                let mut unseen_date = report(999, vec![0], 0);
                unseen_date.onset_date = Some("31/12/1999".into());
                unindexed.push(unseen_date);
                for probe in reports.iter().chain(&unindexed) {
                    prop_assert_eq!(
                        index.probe_candidates(probe),
                        brute_partners(&reports, probe),
                        "probe {}",
                        probe.id
                    );
                }

                // Truncated to the mark: the index of the prefix alone.
                index.truncate(mark);
                let control = BlockingIndex::build(base);
                prop_assert_eq!(&index.blocks, &control.blocks);
                prop_assert_eq!(&index.keys, &control.keys);
                prop_assert_eq!(&index.row_of, &control.row_of);
                prop_assert_eq!(&index.id_of, &control.id_of);
                prop_assert_eq!(&index.date_ids, &control.date_ids);
            }

            /// `candidate_pairs`' radix sort against the comparison sort it
            /// replaced, over ids spread across all 64 bits (or, unless
            /// `wide`, below 2⁷): arrival order is not id order, new
            /// reports pair with each other, and some reports have no key
            /// at all. Then the sort alone, on arbitrary pairs with
            /// repeats.
            #[test]
            fn radix_candidates_equal_sort_unstable_and_dedup(
                raw in prop::collection::vec(
                    (prop::collection::vec(0u32..16, 0..3), 0u8..5),
                    1..32,
                ),
                new in 0usize..12,
                reversed in prop::bool::ANY,
                (wide, spread, mask) in (prop::bool::ANY, 0..=u64::MAX, 0..=u64::MAX),
                loose in prop::collection::vec((0..=u64::MAX, 0u64..4), 0..48),
                repeats in 0usize..16,
            ) {
                // `i ↦ ((37 i) mod 101) · (spread | 1) ⊕ mask` is one to one.
                let (spread, mask) = if wide { (spread | 1, mask) } else { (1, 0) };
                let id = |i: u64| ((i * 37) % 101).wrapping_mul(spread) ^ mask;
                let reports: Vec<ProcessedReport> = raw
                    .into_iter()
                    .zip(0u64..)
                    .map(|((drugs, date), i)| report(id(i), drugs, date))
                    .collect();
                let (base, batch) = reports.split_at(reports.len() - new.min(reports.len()));
                let mut index = BlockingIndex::build(base);
                for r in batch {
                    index.insert(r);
                }
                let mut new_ids: Vec<ReportId> = batch.iter().map(|r| r.id).collect();
                if reversed {
                    new_ids.reverse();
                }
                let mut expected = index.partner_pairs(&new_ids);
                expected.sort_unstable();
                expected.dedup();
                prop_assert_eq!(index.candidate_pairs(&new_ids), expected);

                let mut pairs: Vec<PairId> = loose
                    .iter()
                    .map(|&(a, step)| PairId::new(a, a.wrapping_add(step + 1)))
                    .collect();
                let again: Vec<PairId> = pairs.iter().copied().take(repeats).collect();
                pairs.extend(again);
                let mut expected = pairs.clone();
                expected.sort_unstable();
                expected.dedup();
                sort_dedup_pairs(&mut pairs);
                prop_assert_eq!(pairs, expected);
            }
        }
    }
}
