//! The labelled-pair databases of Fig. 1.
//!
//! "The duplicate report pair database stores all known duplicates while the
//! non-duplicate report pair database only keeps a subset of known
//! non-duplicates" — the imbalance-driven asymmetry that shapes the whole
//! system. Newly classified pairs feed back in (the dashed line of Fig. 1).
//!
//! One text grammar persists the stores: a [`PairStore::snapshot`] is a
//! three-line header and the [`PairStore::delta`] from an empty store, so
//! one reader checks a checkpoint's base and its log records alike. Its
//! line helpers also serve the checkpoint's own fields (`crate::ingest`).
//!
//! The store also carries a digest of its training rows
//! ([`PairStore::training_digest`]), kept up to date row by row as pairs
//! arrive, so a checkpoint records it at the cost of the rows a commit
//! changed rather than of the store.

use adr_model::{DistVec, PairId, ReportId, DETECTION_DIMS};
use fastknn::{LabeledPair, VecBatch};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simmetrics::hash::{WordMap, WordSet};
use sparklet::stable_hash;
use std::fmt::Display;

/// Bounded labelled-pair store with feedback. Vectors are fixed-arity
/// [`DistVec`]s, so entries are flat `(PairId, [f64; 8])` tuples — no
/// per-pair heap allocation.
///
/// Memory is proportional to *retained* pairs, not offered pairs: the
/// Fig. 1 feedback loop offers pairs forever, so any per-offer bookkeeping
/// (an unbounded "seen" set, say) would eventually dwarf the bounded
/// negative reservoir it guards. Membership is therefore tracked only for
/// duplicates (kept forever anyway) and for the currently retained
/// negatives; a negative evicted from the reservoir is forgotten entirely.
/// The detection pipeline generates each [`PairId`] at most once, so
/// forgetting evicted negatives cannot change its output.
///
/// The three membership tables hash with
/// [`simmetrics::hash::WordHasher`]: they hold the database's own pair and
/// report ids, every fed-back pair costs a lookup or two, and nothing reads
/// their iteration order.
#[derive(Debug, Clone)]
pub struct PairStore {
    duplicates: Vec<(PairId, DistVec)>,
    non_duplicates: Vec<(PairId, DistVec)>,
    duplicate_ids: WordSet<PairId>,
    /// Per-*report* duplicate membership: how many retained duplicate pairs
    /// each report participates in. Duplicates are kept forever, so this
    /// index only ever grows in lockstep with `duplicates` — it adds no
    /// per-offer state — and it gives the serving layer an O(1) "is this
    /// report part of a known duplicate pair?" answer without scanning the
    /// pair list.
    duplicate_members: WordMap<ReportId, u32>,
    /// Ids of the currently retained negatives — always in lockstep with
    /// `non_duplicates`, so at most `max_non_duplicates` entries.
    negative_ids: WordSet<PairId>,
    /// Maximum non-duplicate pairs retained. Fixed at `new`: the reservoir
    /// and the change tracking assume it never falls below the length.
    max_non_duplicates: usize,
    /// Seed the reservoir RNG was created from (kept for snapshots: the
    /// RNG state is `seed` advanced by `overflow_offers` draws).
    seed: u64,
    rng: StdRng,
    /// Negatives offered after the reservoir filled.
    overflow_offers: u64,
    /// What changed since the last checkpoint; cloned (and so rolled back)
    /// with the store.
    dirty: Dirty,
    /// The wrapping sum of every training row's [`row_term`]: what
    /// [`PairStore::training_digest`] finishes. Derived state, kept in step
    /// with the lists by every append and slot overwrite (and so cloned
    /// and rolled back with the store), never serialised.
    row_terms: u64,
}

/// Pairs [`PairStore::training_batch`] reads at a time: a block of 256
/// (≈ 22 KB) stays in L1 while the eight columns are filled from it. On a
/// 20,075-pair store, filling the columns a row at a time (eight pushes per
/// pair) took 0.53 ms and a pass over the whole store per column 0.34 ms;
/// blocks of 256 took 0.18 ms (standalone timing, two vCPUs).
const TRAINING_BLOCK_ROWS: usize = 256;

/// One training row's share of [`PairStore::training_digest`]: its label,
/// its index in its own list and its vector's bits. Appending a duplicate
/// moves no negative's index, so no other row's term changes.
fn row_term(positive: bool, index: usize, v: &DistVec) -> u64 {
    stable_hash(&(positive, index as u64, v.map(f64::to_bits)))
}

/// Change tracking behind [`PairStore::delta`]. The store only ever changes
/// in three ways — a duplicate is appended, a negative is appended while the
/// reservoir fills, a reservoir slot is overwritten — so two lengths and one
/// bit per slot describe any number of offers: the size is bounded by
/// `max_non_duplicates`, never by how long the feedback loop has run.
#[derive(Debug, Clone, Default)]
struct Dirty {
    /// `duplicates[dup_from..]` were appended since the checkpoint.
    dup_from: usize,
    /// `non_duplicates[neg_from..]` were appended since the checkpoint.
    neg_from: usize,
    /// Bit `s` is set when reservoir slot `s` was overwritten. Empty until
    /// the first overwrite, then `max_non_duplicates.div_ceil(64)` words.
    slots: Vec<u64>,
}

impl Dirty {
    fn mark_slot(&mut self, slot: usize, capacity: usize) {
        if self.slots.len() * 64 <= slot {
            self.slots.resize(capacity.div_ceil(64), 0);
        }
        self.slots[slot / 64] |= 1 << (slot % 64);
    }

    /// Overwritten slots below `neg_from`, ascending (slots at or above it
    /// are covered by the appended range).
    fn overwritten(&self) -> impl Iterator<Item = usize> + '_ {
        let below = self.neg_from;
        self.slots
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                (0..64)
                    .filter(move |b| word >> b & 1 == 1)
                    .map(move |b| w * 64 + b)
            })
            .take_while(move |&slot| slot < below)
    }
}

/// Two lower-case hex digits per byte value: a 16-digit word is eight
/// table reads.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [DIGITS[i >> 4], DIGITS[i & 15]];
        i += 1;
    }
    table
};

pub(crate) fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// `n` as 16 lower-case hex digits. Always inlined: a pair line writes
/// eight, and as a call it slowed the snapshot and delta writers.
#[inline(always)]
fn push_hex(out: &mut Vec<u8>, n: u64) {
    for byte in n.to_be_bytes() {
        out.extend_from_slice(&HEX_PAIRS[byte as usize]);
    }
}

/// `"{name} {n}\n"`.
pub(crate) fn push_field(out: &mut Vec<u8>, name: &str, n: u64) {
    out.extend_from_slice(name.as_bytes());
    out.push(b' ');
    push_decimal(out, n);
    out.push(b'\n');
}

/// `"{name} {n:016x}\n"`.
pub(crate) fn push_hex_field(out: &mut Vec<u8>, name: &str, n: u64) {
    out.extend_from_slice(name.as_bytes());
    out.push(b' ');
    push_hex(out, n);
    out.push(b'\n');
}

/// `"{name} v{version}\n"`: the first line of a snapshot, a delta or a
/// checkpoint base.
pub(crate) fn push_version(out: &mut Vec<u8>, name: &str, version: u32) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b" v");
    push_decimal(out, version.into());
    out.push(b'\n');
}

/// One pair line: `"{lo} {hi}"`, each component as `" {:016x}"` of its
/// bits, newline.
fn push_pair(out: &mut Vec<u8>, id: &PairId, v: &DistVec) {
    push_decimal(out, id.lo);
    out.push(b' ');
    push_decimal(out, id.hi);
    for x in v {
        out.push(b' ');
        push_hex(out, x.to_bits());
    }
    out.push(b'\n');
}

/// Upper bound on a pair line: two 20-digit ids, eight 17-byte components,
/// separator and newline.
const PAIR_LINE_MAX: usize = 2 * 20 + 8 * 17 + 2;

#[expect(
    clippy::expect_used,
    reason = "the store and checkpoint writers emit ASCII only"
)]
pub(crate) fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the store and checkpoint writers emit ASCII only")
}

/// The line at the head of `rest`, without its newline, advancing `rest`
/// past it; `None` at the end of the text. A last line without a newline
/// counts, as with [`str::lines`].
pub(crate) fn next_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    if rest.is_empty() {
        return None;
    }
    let (line, after) = rest.split_once('\n').unwrap_or((rest, ""));
    *rest = after;
    Some(line)
}

/// The `value` of the `"{name} {value}"` line at the head of `rest`. The
/// one line reader of the store and checkpoint grammars.
pub(crate) fn field<'a>(rest: &mut &'a str, name: &str) -> Result<&'a str, String> {
    let line = next_line(rest).ok_or_else(|| format!("missing {name}"))?;
    line.strip_prefix(name)
        .and_then(|value| value.strip_prefix(' '))
        .ok_or_else(|| format!("expected {name}, got {line:?}"))
}

/// The one integer parser of the store and checkpoint grammars: `word` in
/// `radix`, or an error naming the field.
pub(crate) fn parse_u64(word: &str, radix: u32, name: impl Display) -> Result<u64, String> {
    u64::from_str_radix(word, radix).map_err(|_| format!("bad {name}: {word:?}"))
}

/// A `"{name} {value}"` line whose value is a number in `radix`.
pub(crate) fn u64_field(rest: &mut &str, name: &str, radix: u32) -> Result<u64, String> {
    parse_u64(field(rest, name)?, radix, name)
}

/// The `version` of the `"{name} v{version}"` line at the head of `rest`.
pub(crate) fn version(rest: &mut &str, name: &str) -> Result<u64, String> {
    let value = field(rest, name)?;
    let digits = value
        .strip_prefix('v')
        .ok_or_else(|| format!("bad {name} header: {value:?}"))?;
    parse_u64(digits, 10, format_args!("{name} version"))
}

/// Parse the `lo hi c0 … c7` remainder of a pair line.
fn parse_pair(parts: &mut std::str::SplitAsciiWhitespace<'_>) -> Result<(PairId, DistVec), String> {
    let mut id_part = |name: &str| -> Result<u64, String> {
        let word = parts.next().ok_or_else(|| format!("missing {name}"))?;
        parse_u64(word, 10, name)
    };
    let lo = id_part("lo")?;
    let hi = id_part("hi")?;
    let mut v: DistVec = [0.0; adr_model::DETECTION_DIMS];
    for (d, slot) in v.iter_mut().enumerate() {
        let word = parts
            .next()
            .ok_or_else(|| format!("missing component {d}"))?;
        *slot = f64::from_bits(parse_u64(word, 16, format_args!("component {d}"))?);
    }
    if parts.next().is_some() {
        return Err("trailing data on pair line".into());
    }
    Ok((PairId { lo, hi }, v))
}

impl PairStore {
    /// Create a store keeping at most `max_non_duplicates` negatives.
    pub fn new(max_non_duplicates: usize, seed: u64) -> Self {
        PairStore {
            duplicates: Vec::new(),
            non_duplicates: Vec::new(),
            duplicate_ids: WordSet::default(),
            duplicate_members: WordMap::default(),
            negative_ids: WordSet::default(),
            max_non_duplicates,
            seed,
            rng: StdRng::seed_from_u64(seed),
            overflow_offers: 0,
            dirty: Dirty::default(),
            row_terms: 0,
        }
    }

    /// Number of stored duplicate pairs.
    pub fn duplicate_count(&self) -> usize {
        self.duplicates.len()
    }

    /// Number of stored non-duplicate pairs.
    pub fn non_duplicate_count(&self) -> usize {
        self.non_duplicates.len()
    }

    /// Number of pair ids the store currently tracks for membership —
    /// bounded by `duplicate_count() + max_non_duplicates` no matter how
    /// many pairs the feedback loop has offered.
    #[cfg(test)]
    fn tracked_id_count(&self) -> usize {
        self.duplicate_ids.len() + self.negative_ids.len()
    }

    /// Add a labelled pair. Duplicates are always kept; non-duplicates are
    /// reservoir-sampled once the store is full, keeping the retained set a
    /// uniform sample of everything offered. Re-offers of a pair the store
    /// still holds are ignored (a negative already evicted from the
    /// reservoir is no longer remembered and competes as a fresh offer).
    pub fn add(&mut self, id: PairId, vector: DistVec, is_duplicate: bool) {
        if !self.contains(&id) {
            self.add_unseen(id, vector, is_duplicate);
        }
    }

    /// [`PairStore::add`] of a pair the store cannot hold, without the
    /// membership check: a pair with a member that has just joined the
    /// database, as every candidate of
    /// [`DedupSystem::detect_new`](crate::DedupSystem::detect_new) has.
    pub(crate) fn add_unseen(&mut self, id: PairId, vector: DistVec, is_duplicate: bool) {
        debug_assert!(!self.contains(&id), "{id:?} is stored already");
        if is_duplicate {
            self.add_term(true, self.duplicates.len(), &vector);
            self.duplicates.push((id, vector));
            self.index_duplicate(id);
            return;
        }
        if self.non_duplicates.len() < self.max_non_duplicates {
            self.add_term(false, self.non_duplicates.len(), &vector);
            self.non_duplicates.push((id, vector));
            self.negative_ids.insert(id);
        } else if self.max_non_duplicates > 0 {
            // Reservoir sampling over the stream of offered negatives.
            self.overflow_offers += 1;
            let offered = self.max_non_duplicates as u64 + self.overflow_offers;
            let slot = self.rng.gen_range(0..offered);
            if (slot as usize) < self.max_non_duplicates {
                let slot = slot as usize;
                let evicted = self.non_duplicates[slot].0;
                self.negative_ids.remove(&evicted);
                self.negative_ids.insert(id);
                self.overwrite(slot, (id, vector));
                self.dirty.mark_slot(slot, self.max_non_duplicates);
            }
        }
    }

    /// Count row `index` of its list, holding `v`, into the running digest.
    fn add_term(&mut self, positive: bool, index: usize, v: &DistVec) {
        self.row_terms = self.row_terms.wrapping_add(row_term(positive, index, v));
    }

    /// Put `pair` in reservoir slot `slot`, swapping the evicted negative's
    /// digest term for the new one's.
    fn overwrite(&mut self, slot: usize, pair: (PairId, DistVec)) {
        let old = row_term(false, slot, &self.non_duplicates[slot].1);
        self.row_terms = self.row_terms.wrapping_sub(old);
        self.add_term(false, slot, &pair.1);
        self.non_duplicates[slot] = pair;
    }

    /// Digest of the training set — every row's label, index in its own
    /// list and vector bits, and the two list lengths: the state the
    /// per-commit Fast kNN fit (and through it the Voronoi centres) is a
    /// deterministic function of. O(1): the store keeps the rows' terms
    /// summed as they change, so a checkpoint pays for the rows a commit
    /// changed, not for the store.
    pub(crate) fn training_digest(&self) -> u64 {
        self.finish_digest(self.row_terms)
    }

    /// [`PairStore::training_digest`] recomputed from the rows, in
    /// O(store): what recovery checks a restored store against the
    /// checkpoint's record with.
    pub(crate) fn training_digest_from_rows(&self) -> u64 {
        let terms = |pairs: &[(PairId, DistVec)], positive: bool| {
            (pairs.iter().enumerate())
                .map(move |(i, (_, v))| row_term(positive, i, v))
                .fold(0u64, u64::wrapping_add)
        };
        let sum = terms(&self.duplicates, true).wrapping_add(terms(&self.non_duplicates, false));
        self.finish_digest(sum)
    }

    fn finish_digest(&self, row_terms: u64) -> u64 {
        let lengths = (
            self.duplicates.len() as u64,
            self.non_duplicates.len() as u64,
        );
        stable_hash(&(0xC3A7u64, row_terms, lengths))
    }

    /// Index an appended duplicate. The member index is derived state,
    /// rebuilt by `apply_delta` rather than serialised.
    fn index_duplicate(&mut self, id: PairId) {
        self.duplicate_ids.insert(id);
        *self.duplicate_members.entry(id.lo).or_insert(0) += 1;
        *self.duplicate_members.entry(id.hi).or_insert(0) += 1;
    }

    /// Materialise the training set for the classifier: all duplicates as
    /// positives, the retained negatives as negatives.
    pub fn training_pairs(&self) -> Vec<LabeledPair> {
        let mut out = Vec::with_capacity(self.duplicates.len() + self.non_duplicates.len());
        let mut id = 0u64;
        for (_, v) in &self.duplicates {
            out.push(LabeledPair::new(id, *v, true));
            id += 1;
        }
        for (_, v) in &self.non_duplicates {
            out.push(LabeledPair::new(id, *v, false));
            id += 1;
        }
        out
    }

    /// [`PairStore::training_pairs`] as one column batch — row `i` under id
    /// `i` — in one pass over the stored pairs: what the per-commit fit
    /// reads ([`fastknn::FastKnn::fit_batch`]). The pairs are read
    /// [`TRAINING_BLOCK_ROWS`] at a time, and each column is filled from the
    /// block while it is in cache.
    pub(crate) fn training_batch(&self) -> VecBatch<DETECTION_DIMS> {
        let n = self.duplicates.len() + self.non_duplicates.len();
        let mut labels = Vec::with_capacity(n);
        let mut cols: [Vec<f64>; DETECTION_DIMS] = std::array::from_fn(|_| Vec::with_capacity(n));
        for (pairs, positive) in [(&self.duplicates, true), (&self.non_duplicates, false)] {
            labels.resize(labels.len() + pairs.len(), positive);
            for block in pairs.chunks(TRAINING_BLOCK_ROWS) {
                for (d, col) in cols.iter_mut().enumerate() {
                    col.extend(block.iter().map(|(_, v)| v[d]));
                }
            }
        }
        VecBatch::from_columns((0..n as u64).collect(), labels, cols)
    }

    /// Is this pair currently stored (under either label)?
    pub fn contains(&self, id: &PairId) -> bool {
        self.duplicate_ids.contains(id) || self.negative_ids.contains(id)
    }

    /// Is this *report* a member of any stored duplicate pair? O(1): the
    /// per-report index is maintained on every duplicate insert, so a
    /// serving lookup never scans the pair list.
    #[cfg(test)]
    fn is_duplicate_member(&self, id: ReportId) -> bool {
        self.duplicate_members.contains_key(&id)
    }

    /// Number of stored duplicate pairs this report participates in (0 for
    /// a report never seen in a duplicate pair). O(1).
    pub fn duplicate_memberships(&self, id: ReportId) -> u32 {
        self.duplicate_members.get(&id).copied().unwrap_or(0)
    }

    /// Distinct reports that appear in at least one stored duplicate pair.
    #[cfg(test)]
    fn duplicate_member_count(&self) -> usize {
        self.duplicate_members.len()
    }

    /// Stored duplicate pair ids, in insertion order.
    pub fn duplicate_pairs(&self) -> impl Iterator<Item = PairId> + '_ {
        self.duplicates.iter().map(|(id, _)| *id)
    }

    /// Current snapshot schema version (see [`PairStore::snapshot`]).
    /// Version 2 made the body the delta from an empty store; a version-1
    /// snapshot (its own section grammar) is refused.
    pub(crate) const SNAPSHOT_VERSION: u32 = 2;

    /// Serialise the full store state to a schema-versioned text snapshot:
    /// a three-line header — `pairstore v2`, `max_non_duplicates`, `seed` —
    /// then the [`delta`](PairStore::delta) of this store from an empty
    /// one (every pair appended, no slot overwritten).
    ///
    /// The format is line-oriented and exact: distance components are
    /// written as `f64::to_bits` hex so a round trip is bit-identical, and
    /// the RNG is captured as `(seed, overflow_offers)` — the vendored
    /// generator consumes exactly one draw per overflow offer, so
    /// [`PairStore::restore`] reproduces its state by replaying that many
    /// draws. A restored store therefore continues the reservoir stream
    /// exactly where the original would have.
    pub fn snapshot(&self) -> String {
        let mut out = Vec::new();
        push_version(&mut out, "pairstore", Self::SNAPSHOT_VERSION);
        push_field(
            &mut out,
            "max_non_duplicates",
            self.max_non_duplicates as u64,
        );
        push_field(&mut out, "seed", self.seed);
        self.push_delta(&mut out, &Dirty::default());
        into_text(out)
    }

    /// Current delta schema version (see [`PairStore::delta`]).
    pub(crate) const DELTA_VERSION: u32 = 1;

    /// Serialise what changed since the last
    /// [`mark_checkpointed`](PairStore::mark_checkpointed) (or since
    /// `new` / `restore`): the duplicates and filling-phase negatives
    /// appended, the reservoir slots overwritten — each with its *current*
    /// pair, however often it changed — and `overflow_offers`. Pair lines
    /// are the snapshot's, so the cost is that of the changed lines, not of
    /// the store. [`PairStore::apply_delta`] on a store in the checkpointed
    /// state reproduces this one bit for bit, RNG included.
    pub fn delta(&self) -> String {
        let mut out = Vec::new();
        self.push_delta(&mut out, &self.dirty);
        into_text(out)
    }

    /// The one body writer: what changed since the checkpoint `since`
    /// describes (`Dirty::default()` for an empty store).
    fn push_delta(&self, out: &mut Vec<u8>, since: &Dirty) {
        let (dup_from, neg_from) = (since.dup_from, since.neg_from);
        let new_duplicates = &self.duplicates[dup_from..];
        let new_negatives = &self.non_duplicates[neg_from..];
        let overwritten: Vec<usize> = since.overwritten().collect();
        let lines = new_duplicates.len() + new_negatives.len() + overwritten.len();
        out.reserve(128 + PAIR_LINE_MAX * lines);
        push_version(out, "pairstore-delta", Self::DELTA_VERSION);
        push_field(out, "overflow_offers", self.overflow_offers);
        for (section, from, pairs) in [
            ("duplicates", dup_from, new_duplicates),
            ("non_duplicates", neg_from, new_negatives),
        ] {
            out.extend_from_slice(section.as_bytes());
            out.push(b' ');
            push_decimal(out, from as u64);
            out.push(b' ');
            push_decimal(out, pairs.len() as u64);
            out.push(b'\n');
            for (id, v) in pairs {
                push_pair(out, id, v);
            }
        }
        push_field(out, "slots", overwritten.len() as u64);
        for slot in overwritten {
            let (id, v) = &self.non_duplicates[slot];
            push_decimal(out, slot as u64);
            out.push(b' ');
            push_pair(out, id, v);
        }
    }

    /// Declare the current state checkpointed: the next
    /// [`delta`](PairStore::delta) describes changes from here on. Call it
    /// once the bytes of the snapshot or delta just taken are durable.
    pub fn mark_checkpointed(&mut self) {
        self.dirty.dup_from = self.duplicates.len();
        self.dirty.neg_from = self.non_duplicates.len();
        self.dirty.slots.fill(0);
    }

    /// Largest `overflow_offers` a snapshot may claim. Restore replays one
    /// RNG draw per overflow offer, so an unchecked (malformed or hostile)
    /// value like `u64::MAX` would spin for centuries; any legitimate
    /// snapshot stays far below this.
    pub(crate) const MAX_OVERFLOW_OFFERS: u64 = 1 << 32;

    /// Rebuild a store from a [`PairStore::snapshot`]: read the header,
    /// create the empty store it names and [`apply_delta`] the rest, so the
    /// base of a checkpoint passes every check a log record does. Returns
    /// a descriptive error for unknown versions or malformed input — never
    /// panics and never loops unboundedly, however corrupt the input (the
    /// property checkpoint recovery relies on to *detect* a torn write and
    /// fall back, rather than crash on it).
    ///
    /// [`apply_delta`]: PairStore::apply_delta
    pub fn restore(snapshot: &str) -> Result<Self, String> {
        let mut rest = snapshot;
        let version = version(&mut rest, "pairstore")?;
        if version != u64::from(Self::SNAPSHOT_VERSION) {
            return Err(format!(
                "unsupported snapshot version {version} (supported: {})",
                Self::SNAPSHOT_VERSION
            ));
        }
        let max_non_duplicates = u64_field(&mut rest, "max_non_duplicates", 10)? as usize;
        let seed = u64_field(&mut rest, "seed", 10)?;
        let mut store = PairStore::new(max_non_duplicates, seed);
        store.apply_delta(rest)?;
        Ok(store)
    }

    /// Move the reservoir RNG forward to `overflow_offers` draws. A delta
    /// can only ever move it forward; the cap bounds the replay loop.
    fn advance_overflow_offers(&mut self, overflow_offers: u64) -> Result<(), String> {
        if overflow_offers > Self::MAX_OVERFLOW_OFFERS {
            return Err(format!(
                "overflow_offers {overflow_offers} exceeds sanity cap {}",
                Self::MAX_OVERFLOW_OFFERS
            ));
        }
        if overflow_offers < self.overflow_offers {
            return Err(format!(
                "overflow_offers {overflow_offers} is behind the store's {}",
                self.overflow_offers
            ));
        }
        for _ in self.overflow_offers..overflow_offers {
            let _ = self.rng.next_u64();
        }
        self.overflow_offers = overflow_offers;
        Ok(())
    }

    /// Apply a [`PairStore::delta`] taken from a store that was, at its
    /// last checkpoint, in exactly this store's state. The one body reader:
    /// [`restore`](PairStore::restore) passes it a snapshot's body. Like
    /// `restore` it never panics or loops unboundedly on hostile input: a
    /// delta that does not continue this store — an append that does not
    /// start at the current length, a slot outside the reservoir, a count
    /// larger than the delta itself or than the reservoir, a pair already
    /// stored or listed twice — is an error. On error the store may be
    /// partly updated and must be discarded. On success the store is left
    /// checkpointed.
    pub fn apply_delta(&mut self, delta: &str) -> Result<(), String> {
        let mut rest = delta;
        let version = version(&mut rest, "pairstore-delta")?;
        if version != u64::from(Self::DELTA_VERSION) {
            return Err(format!(
                "unsupported delta version {version} (supported: {})",
                Self::DELTA_VERSION
            ));
        }
        self.advance_overflow_offers(u64_field(&mut rest, "overflow_offers", 10)?)?;
        // No section can hold more pairs than the text has lines; rejecting
        // larger counts up front keeps a corrupt count from driving a huge
        // allocation or a line-by-line crawl.
        let line_budget = delta.len() / 4 + 1;
        // Appended pairs go straight onto the lists, so each is held once;
        // their ids are checked and indexed once the slots are read.
        let (dup_from, neg_from) = (self.duplicates.len(), self.non_duplicates.len());
        for (section, current) in [("duplicates", dup_from), ("non_duplicates", neg_from)] {
            let (from, count) = field(&mut rest, section)?
                .split_once(' ')
                .ok_or_else(|| format!("missing {section} count"))?;
            let from = parse_u64(from, 10, "from")? as usize;
            let count = parse_u64(count, 10, "count")? as usize;
            if from != current {
                return Err(format!(
                    "{section} delta starts at {from}, the store holds {current}"
                ));
            }
            if count > line_budget {
                return Err(format!("{section} count {count} exceeds delta size"));
            }
            if section == "non_duplicates"
                && count > self.max_non_duplicates.saturating_sub(current)
            {
                return Err(format!(
                    "non_duplicates {current} + {count} exceeds capacity {}",
                    self.max_non_duplicates
                ));
            }
            let pairs = if section == "duplicates" {
                &mut self.duplicates
            } else {
                &mut self.non_duplicates
            };
            pairs.reserve(count);
            for _ in 0..count {
                let line = next_line(&mut rest).ok_or_else(|| format!("truncated {section}"))?;
                pairs.push(parse_pair(&mut line.split_ascii_whitespace())?);
            }
        }
        let count = u64_field(&mut rest, "slots", 10)? as usize;
        if count > line_budget {
            return Err(format!("slots count {count} exceeds delta size"));
        }
        let mut overwrites: Vec<(usize, (PairId, DistVec))> = Vec::with_capacity(count);
        for _ in 0..count {
            let line = next_line(&mut rest).ok_or("truncated slots")?;
            let mut parts = line.split_ascii_whitespace();
            let slot = parse_u64(parts.next().ok_or("missing slot")?, 10, "slot")? as usize;
            if slot >= neg_from {
                return Err(format!(
                    "slot {slot} outside the reservoir ({neg_from} of {} filled)",
                    self.max_non_duplicates
                ));
            }
            if overwrites.last().is_some_and(|(prev, _)| *prev >= slot) {
                return Err(format!("slot {slot} out of order"));
            }
            overwrites.push((slot, parse_pair(&mut parts)?));
        }
        if !rest.is_empty() {
            return Err("trailing data after delta".into());
        }
        // A pair evicted from one slot may have come back through another
        // (or, once the reservoir filled, through an appended one), so
        // forget every evicted id before admitting any new one.
        for (slot, _) in &overwrites {
            self.negative_ids.remove(&self.non_duplicates[*slot].0);
        }
        let repeated = |id: PairId| format!("delta repeats stored pair {id:?}");
        for at in dup_from..self.duplicates.len() {
            let (id, v) = self.duplicates[at];
            if self.contains(&id) {
                return Err(repeated(id));
            }
            self.index_duplicate(id);
            self.add_term(true, at, &v);
        }
        for at in neg_from..self.non_duplicates.len() {
            let (id, v) = self.non_duplicates[at];
            if self.contains(&id) {
                return Err(repeated(id));
            }
            self.negative_ids.insert(id);
            self.add_term(false, at, &v);
        }
        for (slot, (id, v)) in overwrites {
            if self.contains(&id) {
                return Err(repeated(id));
            }
            self.negative_ids.insert(id);
            self.overwrite(slot, (id, v));
        }
        self.mark_checkpointed();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn pid(a: u64, b: u64) -> PairId {
        PairId::new(a, b)
    }

    fn dv(x: f64) -> DistVec {
        [x; adr_model::DETECTION_DIMS]
    }

    #[test]
    fn duplicates_are_never_dropped() {
        let mut store = PairStore::new(5, 1);
        for i in 0..100 {
            store.add(pid(i, i + 1000), dv(0.1), true);
        }
        assert_eq!(store.duplicate_count(), 100);
    }

    #[test]
    fn negatives_are_bounded() {
        let mut store = PairStore::new(10, 1);
        for i in 0..1000 {
            store.add(pid(i, i + 10_000), dv(0.9), false);
        }
        assert_eq!(store.non_duplicate_count(), 10);
    }

    #[test]
    fn re_offering_a_pair_is_ignored() {
        let mut store = PairStore::new(10, 1);
        store.add(pid(1, 2), dv(0.5), false);
        store.add(pid(2, 1), dv(0.5), true); // same canonical pair
        assert_eq!(store.duplicate_count(), 0);
        assert_eq!(store.non_duplicate_count(), 1);
        assert!(store.contains(&pid(1, 2)));
    }

    #[test]
    fn training_batch_is_training_pairs_in_columns() {
        let mut store = PairStore::new(3, 5);
        for i in 0..6u64 {
            store.add(pid(i, i + 1), dv(i as f64 - 2.5), i % 4 == 0);
        }
        let mut rows = VecBatch::new();
        for p in store.training_pairs() {
            rows.push(p.id, &p.vector, p.positive);
        }
        assert_eq!(store.training_batch(), rows);
        assert_eq!(rows.labels(), [true, true, false, false, false]);
    }

    #[test]
    fn training_pairs_have_correct_labels_and_count() {
        let mut store = PairStore::new(3, 1);
        store.add(pid(1, 2), dv(0.1), true);
        store.add(pid(3, 4), dv(0.9), false);
        store.add(pid(5, 6), dv(0.8), false);
        let train = store.training_pairs();
        assert_eq!(train.len(), 3);
        assert_eq!(train.iter().filter(|p| p.positive).count(), 1);
        // ids are unique
        let ids: HashSet<u64> = train.iter().map(|p| p.id).collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn reservoir_keeps_a_mix_of_old_and_new() {
        let mut store = PairStore::new(50, 42);
        for i in 0..5000u64 {
            store.add(pid(i, i + 100_000), dv(i as f64), false);
        }
        let early = store
            .non_duplicates
            .iter()
            .filter(|(_, v)| v[0] < 1000.0)
            .count();
        let late = store
            .non_duplicates
            .iter()
            .filter(|(_, v)| v[0] >= 4000.0)
            .count();
        assert!(early > 0, "reservoir must retain some early negatives");
        assert!(late > 0, "reservoir must admit some late negatives");
    }

    #[test]
    fn zero_capacity_store_keeps_no_negatives() {
        let mut store = PairStore::new(0, 1);
        store.add(pid(1, 2), dv(0.5), false);
        assert_eq!(store.non_duplicate_count(), 0);
    }

    #[test]
    fn long_stream_memory_stays_proportional_to_retained_pairs() {
        // Fig. 1's feedback loop runs forever; the store must not keep
        // per-offer state. 100k offered negatives against a 50-slot
        // reservoir and 20 duplicates: tracked membership must stay at
        // retained size, and every retained negative must still answer
        // `contains` (the invariant the dedup system's re-offer guard uses).
        let cap = 50;
        let mut store = PairStore::new(cap, 7);
        for i in 0..20u64 {
            store.add(pid(i, i + 1_000_000), dv(0.05), true);
        }
        for i in 0..100_000u64 {
            store.add(pid(i, i + 2_000_000), dv(0.9), false);
            assert!(
                store.tracked_id_count() <= store.duplicate_count() + cap,
                "tracked ids must never exceed retained pairs (at offer {i})"
            );
            // No checkpoint is ever taken here, so the change tracking
            // covers every offer so far — in one bit per slot.
            assert!(
                store.dirty.slots.len() <= cap.div_ceil(64),
                "dirty bitmap must stay at capacity bits (at offer {i})"
            );
        }
        let dirty_bits: u32 = store.dirty.slots.iter().map(|w| w.count_ones()).sum();
        assert!(dirty_bits as usize <= cap, "{dirty_bits} dirty bits");
        assert_eq!(store.dirty.overwritten().count(), 0, "all appended");
        let mut rebuilt = PairStore::new(cap, 7);
        rebuilt
            .apply_delta(&store.delta())
            .expect("delta of everything");
        assert_eq!(rebuilt.snapshot(), store.snapshot());
        assert_eq!(store.non_duplicate_count(), cap);
        assert_eq!(store.tracked_id_count(), store.duplicate_count() + cap);
        for (id, _) in &store.non_duplicates {
            assert!(store.contains(id), "retained negative must be findable");
        }
        for (id, _) in &store.duplicates {
            assert!(store.contains(id), "duplicates keep membership forever");
        }
        assert!(
            !store.contains(&pid(0, 2_000_000))
                || store
                    .non_duplicates
                    .iter()
                    .any(|(i, _)| *i == pid(0, 2_000_000)),
            "an evicted negative must be forgotten"
        );
    }

    #[test]
    fn duplicate_member_index_stays_in_lockstep_with_the_pair_list() {
        // The O(1) membership index must agree with a scan of the retained
        // duplicate pairs at every step — across duplicate inserts, re-offer
        // dedup, reservoir churn (negatives never touch it), and a snapshot
        // round trip (where it is rebuilt from the pair list).
        fn scan_memberships(store: &PairStore) -> HashMap<ReportId, u32> {
            let mut counts = HashMap::new();
            for id in store.duplicate_pairs() {
                *counts.entry(id.lo).or_insert(0u32) += 1;
                *counts.entry(id.hi).or_insert(0u32) += 1;
            }
            counts
        }
        fn check(store: &PairStore, step: &str) {
            let scanned = scan_memberships(store);
            assert_eq!(
                store.duplicate_member_count(),
                scanned.len(),
                "member count diverged from pair-list scan ({step})"
            );
            for (&report, &count) in &scanned {
                assert!(store.is_duplicate_member(report), "{step}: {report}");
                assert_eq!(
                    store.duplicate_memberships(report),
                    count,
                    "{step}: report {report}"
                );
            }
        }

        let mut store = PairStore::new(8, 21);
        // Duplicates sharing reports: 0 appears in three pairs, 1 in two.
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 4), (5, 6)] {
            store.add(pid(a, b), dv(0.1), true);
            check(&store, "after duplicate insert");
        }
        assert_eq!(store.duplicate_memberships(0), 3);
        assert_eq!(store.duplicate_memberships(1), 2);
        assert_eq!(store.duplicate_memberships(6), 1);
        assert!(!store.is_duplicate_member(7));
        assert_eq!(store.duplicate_memberships(7), 0);
        // Re-offering a stored pair is ignored and must not double-count.
        store.add(pid(1, 0), dv(0.9), true);
        assert_eq!(store.duplicate_memberships(0), 3);
        check(&store, "after re-offer");
        // Reservoir churn on negatives never touches duplicate membership,
        // even when a negative pair reuses a duplicate's report id.
        for i in 0..500u64 {
            store.add(pid(i % 7, i + 10_000), dv(0.8), false);
        }
        check(&store, "after reservoir churn");
        // Snapshot round trip rebuilds the derived index exactly.
        let restored = PairStore::restore(&store.snapshot()).expect("restore");
        check(&restored, "after restore");
        assert_eq!(restored.duplicate_memberships(0), 3);
        assert_eq!(
            restored.duplicate_member_count(),
            store.duplicate_member_count()
        );
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_and_continues_the_stream() {
        let mut store = PairStore::new(8, 99);
        for i in 0..10u64 {
            store.add(pid(i, i + 1_000), dv(0.1 * i as f64), true);
        }
        // Overflow the reservoir so the RNG state matters.
        for i in 0..200u64 {
            store.add(pid(i, i + 10_000), dv(0.3 + i as f64), false);
        }
        let snap = store.snapshot();
        assert!(snap.starts_with("pairstore v2\n"), "versioned header");
        let mut restored = PairStore::restore(&snap).expect("restore");
        // Bit-identical state: a second snapshot reproduces the first.
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.duplicate_count(), store.duplicate_count());
        assert_eq!(restored.non_duplicate_count(), store.non_duplicate_count());
        assert_eq!(restored.non_duplicates, store.non_duplicates);
        for (id, _) in &store.non_duplicates {
            assert!(restored.contains(id));
        }
        // The restored RNG continues exactly where the original left off:
        // feeding both stores the same further offers keeps them identical.
        for i in 200..400u64 {
            let p = pid(i, i + 10_000);
            store.add(p, dv(i as f64), false);
            restored.add(p, dv(i as f64), false);
        }
        assert_eq!(restored.non_duplicates, store.non_duplicates);
        assert_eq!(restored.snapshot(), store.snapshot());
    }

    #[test]
    fn snapshot_preserves_non_finite_and_negative_components() {
        let mut store = PairStore::new(4, 1);
        let mut v = dv(0.0);
        v[0] = -0.0;
        v[1] = f64::INFINITY;
        v[2] = 1.0e-300;
        store.add(pid(1, 2), v, false);
        let restored = PairStore::restore(&store.snapshot()).unwrap();
        let (_, rv) = restored.non_duplicates[0];
        assert_eq!(rv[0].to_bits(), (-0.0f64).to_bits(), "-0.0 survives");
        assert_eq!(rv[1], f64::INFINITY);
        assert_eq!(rv[2], 1.0e-300);
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        assert!(PairStore::restore("").is_err());
        let err = PairStore::restore("pairstore v99\n").unwrap_err();
        assert!(err.contains("unsupported snapshot version 99"), "{err}");
        let good = PairStore::new(4, 1).snapshot();
        let truncated = &good[..good.len() - 1];
        // Dropping the final newline still parses (lines() semantics), but
        // cutting a whole section must not.
        let _ = PairStore::restore(truncated);
        let mut store = PairStore::new(4, 1);
        store.add(pid(1, 2), dv(0.5), true);
        let snap = store.snapshot();
        let cut = snap
            .rsplit_once('\n')
            .unwrap()
            .0
            .rsplit_once('\n')
            .unwrap()
            .0;
        assert!(PairStore::restore(cut).is_err(), "missing section line");
        let (head, _) = snap.split_once("duplicates 0 1\n").unwrap();
        let err = PairStore::restore(&format!("{head}duplicates 0 1\n")).unwrap_err();
        assert!(
            err.contains("truncated duplicates"),
            "missing pair line: {err}"
        );
        assert!(
            PairStore::restore(&format!("{snap}extra\n")).is_err(),
            "trailing garbage"
        );
    }

    #[test]
    fn restore_rejects_hostile_counts_without_hanging() {
        // A malformed overflow_offers must not replay u64::MAX RNG draws.
        let hostile = format!(
            "pairstore v2\nmax_non_duplicates 4\nseed 1\npairstore-delta v1\n\
             overflow_offers {}\nduplicates 0 0\nnon_duplicates 0 0\nslots 0\n",
            u64::MAX
        );
        let err = PairStore::restore(&hostile).unwrap_err();
        assert!(err.contains("sanity cap"), "{err}");
        // A section count far beyond the snapshot's own size is rejected
        // up front instead of crawling line by line.
        let bloated = format!(
            "pairstore v2\nmax_non_duplicates 4\nseed 1\npairstore-delta v1\n\
             overflow_offers 0\nduplicates 0 {}\n",
            u64::MAX
        );
        let err = PairStore::restore(&bloated).unwrap_err();
        assert!(err.contains("exceeds delta size"), "{err}");
        // More retained negatives than the stated capacity is inconsistent.
        let over_capacity = "pairstore v2\nmax_non_duplicates 1\nseed 1\npairstore-delta v1\n\
             overflow_offers 0\nduplicates 0 0\nnon_duplicates 0 3\n";
        let err = PairStore::restore(over_capacity).unwrap_err();
        assert!(err.contains("exceeds capacity"), "{err}");
    }

    #[test]
    fn restore_refuses_a_version_1_snapshot() {
        // Version 1 had its own section grammar: `overflow_offers` in the
        // header, `duplicates <count>` without a start, no slots.
        let v1 = "pairstore v1\nmax_non_duplicates 4\nseed 1\noverflow_offers 0\n\
                  duplicates 0\nnon_duplicates 0\n";
        let err = PairStore::restore(v1).unwrap_err();
        assert_eq!(err, "unsupported snapshot version 1 (supported: 2)");
    }

    #[test]
    fn restore_refuses_a_pair_listed_twice() {
        // A snapshot is a delta from an empty store, so the check that
        // keeps a record from repeating a stored pair guards it too: the
        // member index and the id sets could not stay in lockstep with a
        // list that holds one pair twice.
        let mut store = PairStore::new(4, 1);
        store.add(pid(1, 2), dv(0.1), true);
        store.add(pid(3, 4), dv(0.9), false);
        let snap = store.snapshot();
        let line_of = |id: PairId| {
            let prefix = format!("{} {} ", id.lo, id.hi);
            let line = snap.lines().find(|l| l.starts_with(&prefix)).unwrap();
            format!("{line}\n")
        };
        let (dup, neg) = (line_of(pid(1, 2)), line_of(pid(3, 4)));
        let cases = [
            (
                "a duplicate twice",
                snap.replace(
                    &format!("duplicates 0 1\n{dup}"),
                    &format!("duplicates 0 2\n{dup}{dup}"),
                ),
            ),
            (
                "a negative twice",
                snap.replace(
                    &format!("non_duplicates 0 1\n{neg}"),
                    &format!("non_duplicates 0 2\n{neg}{neg}"),
                ),
            ),
            ("a pair under both labels", snap.replace(&neg, &dup)),
        ];
        for (what, text) in cases {
            assert_ne!(text, snap, "{what}: the case must edit the snapshot");
            let err = PairStore::restore(&text).expect_err(what);
            assert!(err.contains("repeats stored pair"), "{what}: {err}");
        }
        assert!(PairStore::restore(&snap).is_ok());
    }

    /// A store with 3 duplicates, a full 8-slot reservoir and 40 overflow
    /// offers, checkpointed; and the same store 60 offers later.
    fn checkpointed_and_later() -> (PairStore, PairStore) {
        let mut store = PairStore::new(8, 5);
        for i in 0..3u64 {
            store.add(pid(i, i + 1_000), dv(0.1), true);
        }
        for i in 0..48u64 {
            store.add(pid(i, i + 10_000), dv(0.5 + i as f64), false);
        }
        store.mark_checkpointed();
        let base = store.clone();
        store.add(pid(7, 1_007), dv(0.2), true);
        for i in 48..108u64 {
            store.add(pid(i, i + 10_000), dv(0.5 + i as f64), false);
        }
        (base, store)
    }

    #[test]
    fn delta_carries_only_what_changed_and_applies_exactly() {
        let (mut base, later) = checkpointed_and_later();
        assert_eq!(base.delta().lines().count(), 5, "a clean store: headers");
        let delta = later.delta();
        let changed = later
            .non_duplicates
            .iter()
            .zip(&base.non_duplicates)
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0, "60 overflow offers must replace something");
        assert_eq!(delta.lines().count(), 5 + 1 + changed);
        base.apply_delta(&delta).expect("apply");
        assert_eq!(base.snapshot(), later.snapshot());
        for (id, _) in &later.non_duplicates {
            assert!(base.contains(id));
        }
        assert_eq!(base.tracked_id_count(), later.tracked_id_count());
        assert_eq!(base.duplicate_memberships(7), 1);
        assert_eq!(base.delta().lines().count(), 5, "applied: clean again");
    }

    #[test]
    fn apply_delta_rejects_hostile_deltas() {
        let (base, later) = checkpointed_and_later();
        let good = later.delta();
        let pair = "9 9 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
                    0000000000000000 0000000000000000 0000000000000000 0000000000000000";
        let rejects = |delta: &str, why: &str| {
            let err = base
                .clone()
                .apply_delta(delta)
                .expect_err("hostile delta must be rejected");
            assert!(err.contains(why), "{err:?} should mention {why:?}");
        };
        let with = |overflow: &str, dups: &str, negs: &str, slots: &str| {
            format!(
                "pairstore-delta v1\noverflow_offers {overflow}\nduplicates {dups}\n\
                 non_duplicates {negs}\nslots {slots}\n"
            )
        };
        assert!(base
            .clone()
            .apply_delta(&with("40", "3 0", "8 0", "0"))
            .is_ok());
        rejects("", "missing pairstore-delta");
        rejects(&good.replace(" v1", " v9"), "unsupported delta version");
        // The reservoir RNG cannot run backwards, nor for centuries.
        rejects(&with("39", "3 0", "8 0", "0"), "behind the store");
        rejects(
            &with(&u64::MAX.to_string(), "3 0", "8 0", "0"),
            "sanity cap",
        );
        // Appends must start where the store ends.
        rejects(
            &with("40", "2 0", "8 0", "0"),
            "duplicates delta starts at 2",
        );
        rejects(
            &with("40", "3 0", "7 0", "0"),
            "non_duplicates delta starts at 7",
        );
        // Counts larger than the delta, or than the reservoir.
        rejects(
            &with("40", &format!("3 {}", u64::MAX), "8 0", "0"),
            "exceeds delta size",
        );
        rejects(&with("40", "3 0", "8 1", "0"), "exceeds capacity");
        rejects(
            &with("40", "3 0", "8 0", &u64::MAX.to_string()),
            "exceeds delta size",
        );
        rejects(&with("40", "3 2", "8 0", "0"), "bad lo");
        rejects(&with("40", "3 0", "8 0", "1"), "truncated slots");
        // Slots outside the reservoir, repeated, or holding a stored pair.
        rejects(
            &with("40", "3 0", "8 0", &format!("1\n8 {pair}")),
            "outside the reservoir",
        );
        rejects(
            &with("40", "3 0", "8 0", &format!("2\n4 {pair}\n4 {pair}")),
            "out of order",
        );
        rejects(
            &with("40", "3 0", "8 0", &format!("2\n3 {pair}\n4 {pair}")),
            "repeats stored pair",
        );
        let stored = pair.replacen("9 9", "0 1000", 1);
        rejects(
            &with("40", &format!("3 1\n{stored}"), "8 0", "0"),
            "repeats stored pair",
        );
        rejects(&format!("{good}extra\n"), "trailing data");
    }

    mod delta_fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Offer `(a, b, label)`: ids from a small space so re-offers of
        /// stored, evicted and differently-labelled pairs all occur; one
        /// offer in eight is a duplicate.
        fn offer(store: &mut PairStore, (a, b, label): (u64, u64, u8)) {
            store.add(pid(a, b + 100), dv(a as f64 + 0.01 * b as f64), label == 0);
        }

        proptest! {
            #[test]
            fn base_plus_deltas_tracks_the_live_store(
                cap in 0usize..24,
                seed in 0u64..50,
                offers in proptest::collection::vec((0u64..40, 0u64..40, 0u8..8), 0..400),
                commits in 1usize..=12,
                base_after in 0usize..60,
            ) {
                let mut live = PairStore::new(cap, seed);
                let base_after = base_after.min(offers.len());
                for &o in &offers[..base_after] {
                    offer(&mut live, o);
                }
                let mut restored = PairStore::restore(&live.snapshot()).unwrap();
                live.mark_checkpointed();
                let rest = &offers[base_after..];
                for chunk in rest.chunks(rest.len().div_ceil(commits).max(1)) {
                    for &o in chunk {
                        offer(&mut live, o);
                    }
                    restored.apply_delta(&live.delta()).unwrap();
                    live.mark_checkpointed();
                    prop_assert_eq!(restored.snapshot(), live.snapshot());
                    prop_assert_eq!(restored.tracked_id_count(), live.tracked_id_count());
                }
                // The restored reservoir continues the stream identically.
                for i in 0..200u64 {
                    let id = pid(i % 50, 100 + i % 37);
                    live.add(id, dv(i as f64), i % 9 == 0);
                    restored.add(id, dv(i as f64), i % 9 == 0);
                }
                prop_assert_eq!(restored.snapshot(), live.snapshot());
                prop_assert_eq!(restored.delta(), live.delta());
            }

            #[test]
            fn scrambled_deltas_never_panic(
                pos in 0usize..4096, byte in 0u8..128, frac in 0.0f64..1.0
            ) {
                let (base, later) = checkpointed_and_later();
                let delta = later.delta();
                let _ = base.clone().apply_delta(&delta[..(delta.len() as f64 * frac) as usize]);
                let mut bytes = delta.into_bytes();
                let pos = pos % bytes.len();
                bytes[pos] = byte;
                let _ = base.clone().apply_delta(std::str::from_utf8(&bytes).unwrap());
            }
        }
    }

    mod digest_fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Offer `(a, b, label, route)`: through `add`, or through
        /// `add_unseen` when `route` is odd and the pair is not stored.
        fn offer(store: &mut PairStore, (a, b, label, route): (u64, u64, u8, u8)) {
            let (id, v) = (pid(a, b + 100), dv(a as f64 + 0.01 * b as f64));
            if route % 2 == 1 && !store.contains(&id) {
                store.add_unseen(id, v, label == 0);
            } else {
                store.add(id, v, label == 0);
            }
        }

        fn assert_running(store: &PairStore, step: &str) {
            assert_eq!(
                store.training_digest(),
                store.training_digest_from_rows(),
                "{step}"
            );
        }

        /// Row `row` of the training order (the duplicates, then the
        /// negatives)'s vector.
        fn vector_mut(store: &mut PairStore, row: usize) -> &mut DistVec {
            match row.checked_sub(store.duplicates.len()) {
                None => &mut store.duplicates[row].1,
                Some(neg) => &mut store.non_duplicates[neg].1,
            }
        }

        /// `store`'s digest recomputed after `edit` changed its lists.
        fn edited(store: &PairStore, edit: impl FnOnce(&mut PairStore)) -> u64 {
            let mut copy = store.clone();
            edit(&mut copy);
            copy.training_digest_from_rows()
        }

        proptest! {
            #[test]
            fn the_running_training_digest_equals_the_one_from_rows(
                cap in 0usize..16,
                seed in 0u64..50,
                offers in proptest::collection::vec((0u64..40, 0u64..40, 0u8..8, 0u8..2), 0..300),
                checkpoint_after in 0usize..300,
                attempt in proptest::collection::vec((0u64..40, 40u64..80, 0u8..8, 0u8..2), 1..40),
                edit in (0usize..1024, 0usize..1024, 0usize..DETECTION_DIMS, 0u32..64),
            ) {
                let mut live = PairStore::new(cap, seed);
                let checkpoint_after = checkpoint_after.min(offers.len());
                for &o in &offers[..checkpoint_after] {
                    offer(&mut live, o);
                    assert_running(&live, "filling");
                }
                let base = PairStore::restore(&live.snapshot()).unwrap();
                prop_assert_eq!(base.training_digest(), live.training_digest());
                live.mark_checkpointed();
                for &o in &offers[checkpoint_after..] {
                    offer(&mut live, o);
                    assert_running(&live, "after the checkpoint");
                }
                // An attempt on a copy that is then rolled back, as the
                // system's guard does, leaves the digest as it was.
                let before = live.training_digest();
                let guard = live.clone();
                for &o in &attempt {
                    offer(&mut live, o);
                }
                assert_running(&live, "attempt");
                live = guard;
                prop_assert_eq!(live.training_digest(), before);
                assert_running(&live, "rolled back");
                // The readers rebuild it: a delta onto the checkpoint, and a
                // snapshot.
                let mut applied = base.clone();
                applied.apply_delta(&live.delta()).unwrap();
                prop_assert_eq!(applied.training_digest(), before);
                assert_running(&applied, "delta applied");
                let restored = PairStore::restore(&live.snapshot()).unwrap();
                prop_assert_eq!(restored.training_digest(), before);
                assert_running(&restored, "restored");

                // Any change to the rows moves it: one vector bit, ...
                let (dups, negs) = (live.duplicate_count(), live.non_duplicate_count());
                let (i, j, d, bit) = edit;
                if dups + negs > 0 {
                    let flipped = edited(&live, |s| {
                        let v = vector_mut(s, i % (dups + negs));
                        v[d] = f64::from_bits(v[d].to_bits() ^ 1 << bit);
                    });
                    prop_assert_ne!(flipped, before);
                    // ... the places of two rows with different vectors, ...
                    let (a, b) = (i % (dups + negs), j % (dups + negs));
                    let mut copy = live.clone();
                    let (va, vb) = (*vector_mut(&mut copy, a), *vector_mut(&mut copy, b));
                    if va != vb {
                        let swapped = edited(&live, |s| {
                            *vector_mut(s, a) = vb;
                            *vector_mut(s, b) = va;
                        });
                        prop_assert_ne!(swapped, before);
                    }
                }
                // ... or one label.
                if dups > 0 {
                    let relabelled = edited(&live, |s| {
                        let row = s.duplicates.remove(i % dups);
                        s.non_duplicates.push(row);
                    });
                    prop_assert_ne!(relabelled, before);
                }
                if negs > 0 {
                    let relabelled = edited(&live, |s| {
                        let row = s.non_duplicates.remove(i % negs);
                        s.duplicates.push(row);
                    });
                    prop_assert_ne!(relabelled, before);
                }
            }
        }
    }

    mod restore_fuzz {
        use super::*;
        use proptest::prelude::*;

        fn valid_snapshot(dups: u64, negs: u64, seed: u64) -> String {
            let mut store = PairStore::new(8, seed);
            for i in 0..dups {
                store.add(pid(i, i + 1_000), dv(0.1 * i as f64), true);
            }
            for i in 0..negs {
                store.add(pid(i, i + 10_000), dv(0.5 + i as f64), false);
            }
            store.snapshot()
        }

        proptest! {
            #[test]
            fn truncation_at_any_byte_never_panics(
                dups in 0u64..6, negs in 0u64..40, seed in 0u64..50, frac in 0.0f64..1.0
            ) {
                let snap = valid_snapshot(dups, negs, seed);
                let mut cut = (snap.len() as f64 * frac) as usize;
                while !snap.is_char_boundary(cut) {
                    cut -= 1;
                }
                // Must return, Ok or Err — never panic, never hang.
                let _ = PairStore::restore(&snap[..cut]);
            }

            #[test]
            fn byte_scrambling_never_panics(
                negs in 0u64..40, seed in 0u64..50,
                pos in 0usize..4096, byte in 0u8..128
            ) {
                let snap = valid_snapshot(3, negs, seed);
                let mut bytes = snap.into_bytes();
                let pos = pos % bytes.len();
                bytes[pos] = byte;
                if let Ok(s) = String::from_utf8(bytes) {
                    let _ = PairStore::restore(&s);
                }
            }

            #[test]
            fn trailing_garbage_is_always_rejected(
                negs in 0u64..40, seed in 0u64..50, garbage in "[ -~]{1,40}"
            ) {
                let snap = valid_snapshot(2, negs, seed);
                prop_assert!(PairStore::restore(&format!("{snap}{garbage}\n")).is_err());
            }

            #[test]
            fn line_shuffling_never_panics_and_full_round_trip_holds(
                dups in 0u64..6, negs in 0u64..40, seed in 0u64..50,
                swap_a in 0usize..64, swap_b in 0usize..64
            ) {
                let snap = valid_snapshot(dups, negs, seed);
                let restored = PairStore::restore(&snap).unwrap();
                prop_assert_eq!(restored.snapshot(), snap.clone());
                let mut lines: Vec<&str> = snap.lines().collect();
                let (a, b) = (swap_a % lines.len(), swap_b % lines.len());
                lines.swap(a, b);
                let shuffled = format!("{}\n", lines.join("\n"));
                // Swapping two distinct structural lines must not panic;
                // swapping a line with itself must still round-trip.
                let result = PairStore::restore(&shuffled);
                if a == b {
                    prop_assert!(result.is_ok());
                }
            }
        }
    }

    #[test]
    fn reservoir_retention_is_roughly_uniform_over_the_stream() {
        // Frequency sanity check: offer 200 negatives (cap 20) across many
        // seeds and count how often each decile of the offer stream is
        // retained. Uniform retention means ~10% each; allow a wide band
        // since this is a statistical smoke test, not a distribution test.
        let offers = 200u64;
        let cap = 20;
        let seeds = 300u64;
        let mut decile_counts = [0u64; 10];
        for seed in 0..seeds {
            let mut store = PairStore::new(cap, seed);
            for i in 0..offers {
                store.add(pid(i, i + 10_000), dv(i as f64), false);
            }
            for (id, _) in &store.non_duplicates {
                let offer_index = id.lo;
                decile_counts[(offer_index * 10 / offers) as usize] += 1;
            }
        }
        let expected = (seeds * cap as u64) as f64 / 10.0; // 600 per decile
        for (d, &count) in decile_counts.iter().enumerate() {
            assert!(
                (count as f64) > expected * 0.75 && (count as f64) < expected * 1.25,
                "decile {d} retention {count} strays too far from uniform {expected}: {decile_counts:?}"
            );
        }
    }
}
