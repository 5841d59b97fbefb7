//! Token interning: map each distinct token string to a dense `u32` id.
//!
//! Pairwise field distances (§4.2) only need *set* operations over tokens, so
//! comparing reports never has to hash or even look at string bytes: each
//! report stores a sorted, deduplicated `Vec<u32>` of token ids and the
//! metrics run as sorted-slice merges. Interning happens once per report at
//! ingest; comparisons — the O(pairs) hot path — are allocation-free.
//!
//! Ids are assigned densely in first-seen order, so a corpus processed in a
//! fixed order yields a deterministic interner.
//!
//! The interner also memoises the narrative pipeline per *raw* token (see
//! [`crate::Pipeline::intern`]): a corpus repeats a few tens of
//! thousands of distinct words millions of times, and the memo is what makes
//! the stop-word lookup, the stemmer and the stem's interning run once per
//! distinct word. It lives here, not in [`crate::Pipeline`], because it holds
//! ids and so has to be rolled back with them. Both tables hash with the
//! crate's keyed word-at-a-time hasher (`hash.rs`).
//!
//! A batch can be interned in contiguous chunks on separate threads, each
//! into a fresh [`ChunkInterner`], and merged with [`TokenInterner::absorb`]
//! in chunk order: ids and memo come out as if the chunks had been interned
//! one after another into one table. A chunk's tokens can be absorbed
//! ahead of the rest of it ([`TokenInterner::absorb_tokens`]), so the
//! reports of a finished stretch can be remapped while the chunk's thread
//! goes on with the next.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use crate::hash::TextMap;
use crate::pipeline::term;
use crate::tokenizer::for_each_token;

/// String → dense `u32` id table, with the narrative pipeline's raw-token
/// memo. `L` is what it records as it grows: a [`TruncationLog`] (the
/// default), which lets it be rolled back ([`TokenInterner::truncate`]),
/// or nothing, for a [`ChunkInterner`].
#[derive(Debug, Default, Clone)]
pub struct TokenInterner<L = TruncationLog> {
    ids: TextMap<Arc<str>, u32>,
    /// Arena of interned strings, indexed by id; each shares its allocation
    /// with its key in `ids`.
    tokens: Vec<Arc<str>>,
    /// Raw lowercase narrative token → what [`term`] made of it: `None` if
    /// the filters dropped it, else the id of its stem. Every `Some(id)`
    /// here is `< tokens.len()` — [`TokenInterner::truncate`] keeps it so.
    memo: TextMap<Box<str>, Option<u32>>,
    log: L,
    /// Lowercasing buffer reused across calls.
    scratch: String,
    /// Id buffer of [`TokenInterner::intern_terms`], reused across calls.
    terms: Vec<u32>,
}

/// An interner for one stretch of a batch, processed on a thread of its own
/// and merged back in order with [`TokenInterner::absorb`]. It is never
/// truncated, so it keeps no [`TruncationLog`]. Build it with
/// `ChunkInterner::default()`.
pub type ChunkInterner = TokenInterner<NoLog>;

mod sealed {
    /// The methods of [`super::InternLog`], out of outside code's reach.
    pub trait Sealed: Default + Clone + std::fmt::Debug {
        /// A token was interned.
        fn interned(&mut self);
        /// The memo learned that raw token `raw` stems to an interned id.
        fn stemmed(&mut self, raw: &str);
    }
}

/// What an interner records as it grows: [`TruncationLog`] or [`NoLog`].
pub trait InternLog: sealed::Sealed {}

/// The record [`TokenInterner::truncate`] reads instead of the whole memo:
/// the memo's `Some` entries in the order they were made, and where the log
/// stood when each token was interned.
#[derive(Debug, Default, Clone)]
pub struct TruncationLog {
    /// The raw tokens of the memo's `Some` entries, end to end.
    stemmed: String,
    /// Where each of those raw tokens ends in `stemmed`.
    ends: Vec<u32>,
    /// `ends.len()` when each token was interned, indexed by id. An entry
    /// naming id `t` was made after `t` was interned, so every entry a
    /// truncation to `t` removes lies at or after `stemmed_from[t]`.
    stemmed_from: Vec<u32>,
}

impl sealed::Sealed for TruncationLog {
    fn interned(&mut self) {
        let logged = u32::try_from(self.ends.len()).expect("memo overflow: > 4G stems");
        self.stemmed_from.push(logged);
    }

    fn stemmed(&mut self, raw: &str) {
        self.stemmed.push_str(raw);
        let end = u32::try_from(self.stemmed.len()).expect("truncation log over 4 GiB");
        self.ends.push(end);
    }
}

impl InternLog for TruncationLog {}

impl TruncationLog {
    /// Cut the log back to where it stood when token `mark` was interned,
    /// and return the raw tokens logged since: end to end, with the offset
    /// each ends at in the returned string.
    fn split_off(&mut self, mark: usize) -> (String, Vec<usize>) {
        let since = self.stemmed_from[mark] as usize;
        self.stemmed_from.truncate(mark);
        let base = since
            .checked_sub(1)
            .map_or(0, |last| self.ends[last] as usize);
        let ends = (self.ends.drain(since..))
            .map(|end| end as usize - base)
            .collect();
        (self.stemmed.split_off(base), ends)
    }
}

/// A [`ChunkInterner`]'s log: it records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoLog;

impl sealed::Sealed for NoLog {
    fn interned(&mut self) {}

    fn stemmed(&mut self, _raw: &str) {}
}

impl InternLog for NoLog {}

fn sorted_set(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl TokenInterner {
    pub fn new() -> Self {
        Self::default()
    }
}

impl<L: InternLog> TokenInterner<L> {
    /// Intern one token, returning its id.
    pub fn intern(&mut self, token: &str) -> u32 {
        match self.ids.get(token) {
            Some(&id) => id,
            None => self.push(Arc::from(token)),
        }
    }

    /// Assign the next id to a token not interned yet.
    fn push(&mut self, token: Arc<str>) -> u32 {
        let id = u32::try_from(self.tokens.len()).expect("interner overflow: > 4G tokens");
        self.ids.insert(Arc::clone(&token), id);
        self.tokens.push(token);
        self.log.interned();
        id
    }

    /// Memoise what the pipeline made of raw token `raw`, unless the memo
    /// already holds it.
    fn memoise(&mut self, raw: Box<str>, id: Option<u32>) {
        if let Entry::Vacant(slot) = self.memo.entry(raw) {
            if id.is_some() {
                self.log.stemmed(slot.key());
            }
            slot.insert(id);
        }
    }

    /// Intern `tokens` — the tokens a [`ChunkInterner`] gave ids
    /// `remap.len()` on, in id order ([`TokenInterner::tokens_from`]) — as
    /// [`TokenInterner::absorb`] would, pushing each one's id here onto
    /// `remap`. A token new here shares its string with the chunk's.
    pub fn absorb_tokens(
        &mut self,
        tokens: impl IntoIterator<Item = Arc<str>>,
        remap: &mut Vec<u32>,
    ) {
        remap.extend(tokens.into_iter().map(|token| match self.ids.get(&*token) {
            Some(&id) => id,
            None => self.push(token),
        }));
    }

    /// Merge `local`, a chunk interner that started empty and then interned
    /// the next stretch of this interner's input, as if that stretch had
    /// been interned here: `local`'s tokens are interned in local id order,
    /// its raw-token memo joins this one with the ids mapped, and `remap`
    /// comes back as the map `remap[local id] = id here`. On the way in,
    /// `remap` holds the map of `local`'s first `remap.len()` tokens, which
    /// [`TokenInterner::absorb_tokens`] interned already (empty if none).
    ///
    /// A token new here is new at its first occurrence in `local`'s
    /// stretch, and local ids are in first-occurrence order, so absorbing
    /// the stretches in input order hands out exactly the ids, and leaves
    /// exactly the memo, of interning them all here one after another.
    /// Memo entries this interner already holds stay: the pipeline is a
    /// pure function of the raw token, so both sides agree on them.
    pub fn absorb(&mut self, local: ChunkInterner, remap: &mut Vec<u32>) {
        let TokenInterner {
            ids, tokens, memo, ..
        } = local;
        // The arena's `Arc`s are then the only owners, and move in as keys.
        drop(ids);
        let absorbed = remap.len();
        self.absorb_tokens(tokens.into_iter().skip(absorbed), remap);
        for (raw, id) in memo {
            self.memoise(raw, id.map(|id| remap[id as usize]));
        }
    }

    /// The tokens given ids `from` on, in id order, each sharing its string
    /// with this interner: what [`TokenInterner::absorb_tokens`] takes.
    pub fn tokens_from(&self, from: usize) -> &[Arc<str>] {
        &self.tokens[from..]
    }

    /// Intern `word.to_lowercase()` without allocating for an ASCII word.
    /// (Not per-`char` lowering: `str::to_lowercase` alone knows the Greek
    /// final sigma.)
    pub fn intern_lowercase(&mut self, word: &str) -> u32 {
        if !word.is_ascii() {
            return self.intern(&word.to_lowercase());
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.push_str(word);
        scratch.make_ascii_lowercase();
        let id = self.intern(&scratch);
        self.scratch = scratch;
        id
    }

    /// Intern a batch of tokens into a sorted, deduplicated id set — the
    /// representation the sorted-merge set metrics require.
    pub fn intern_set<I, S>(&mut self, tokens: I) -> Vec<u32>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        sorted_set(
            tokens
                .into_iter()
                .map(|t| self.intern(t.as_ref()))
                .collect(),
        )
    }

    /// The body of [`crate::Pipeline::intern`]: one scan of `text`, each raw
    /// token resolved through the memo. A token's first occurrence runs
    /// [`term`] and interns the stem exactly where the unmemoised path
    /// would, so ids still come out in first-seen order; later occurrences
    /// are one hash lookup. The ids gather in a buffer the interner keeps,
    /// and the set comes back in a vector of its own length.
    pub(crate) fn intern_terms(&mut self, text: &str) -> Vec<u32> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut ids = std::mem::take(&mut self.terms);
        ids.clear();
        for_each_token(text, &mut scratch, |raw| {
            let id = match self.memo.get(raw) {
                Some(&known) => known,
                None => {
                    let id = term(raw).map(|stem| self.intern(&stem));
                    self.memoise(raw.into(), id);
                    id
                }
            };
            ids.extend(id);
        });
        self.scratch = scratch;
        ids.sort_unstable();
        ids.dedup();
        let set = ids.to_vec();
        self.terms = ids;
        set
    }

    /// The string a given id was assigned to. Panics on an id this interner
    /// never issued.
    pub fn resolve(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

impl TokenInterner {
    /// A rollback mark: the current token count. Tokens interned after
    /// taking a mark can be undone with [`TokenInterner::truncate`].
    pub fn mark(&self) -> usize {
        self.tokens.len()
    }

    /// Roll back to a [`TokenInterner::mark`], forgetting every token
    /// interned since. Ids assigned before the mark are untouched, so a
    /// retried ingest re-assigns the *same* dense ids it would have gotten
    /// on a first try — the property batch rollback relies on for
    /// bit-identical replays. Memo entries pointing at a forgotten id go
    /// with it: a retry may hand that id to a different stem. Marks past
    /// the current length are a no-op.
    ///
    /// The cost is the words interned since the mark and the memo entries
    /// made since: those are the only ones that can name a forgotten id
    /// (see [`TruncationLog`]), so the rest of the memo is never visited.
    pub fn truncate(&mut self, mark: usize) {
        if mark >= self.tokens.len() {
            return;
        }
        for token in self.tokens.drain(mark..) {
            self.ids.remove(&*token);
        }
        let (raws, ends) = self.log.split_off(mark);
        let mut start = 0;
        for end in ends {
            let raw = &raws[start..end];
            start = end;
            let stem = self.memo.get(raw).copied().flatten();
            if stem.is_some_and(|id| (id as usize) < mark) {
                sealed::Sealed::stemmed(&mut self.log, raw);
            } else {
                self.memo.remove(raw);
            }
        }
    }

    /// Follow `source`, an interner this one was cloned from when `source`
    /// was `mark` tokens long: forget what this one interned since
    /// ([`TokenInterner::truncate`] to `mark`), then append `source`'s
    /// tokens from `mark` on, sharing their strings. The tokens and ids are
    /// then `source`'s, at the cost of the words either side added since
    /// the mark. The raw-token memo keeps its entries below the mark and
    /// gains none of `source`'s: an unmemoised raw token runs the pipeline
    /// and interns its stem, which resolves to the id `source` gave it.
    ///
    /// `source` must hold this interner's first `mark` tokens, in order;
    /// a caller that cannot vouch for it checks them first.
    pub fn follow(&mut self, source: &TokenInterner, mark: usize) {
        self.truncate(mark);
        for token in &source.tokens[self.tokens.len()..] {
            self.push(Arc::clone(token));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_dense() {
        let mut interner = TokenInterner::new();
        let a = interner.intern("rhabdomyolysis");
        let b = interner.intern("atorvastatin");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(interner.intern("rhabdomyolysis"), a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), "rhabdomyolysis");
        assert_eq!(interner.resolve(b), "atorvastatin");
    }

    #[test]
    fn intern_set_sorts_and_dedups() {
        let mut interner = TokenInterner::new();
        // Force ids out of lexical order: "zzz" gets id 0.
        interner.intern("zzz");
        let set = interner.intern_set(["zzz", "aaa", "zzz", "mmm"]);
        assert_eq!(set, vec![0, 1, 2]);
        let again = interner.intern_set(["mmm", "aaa"]);
        assert_eq!(again, vec![1, 2]);
    }

    #[test]
    fn set_identity_matches_string_set_identity() {
        let mut interner = TokenInterner::new();
        let x = interner.intern_set(["b", "a", "c", "a"]);
        let y = interner.intern_set(["c", "b", "a"]);
        assert_eq!(x, y, "same string set must intern to same id set");
    }

    #[test]
    fn intern_lowercase_is_str_to_lowercase() {
        let mut interner = TokenInterner::new();
        let a = interner.intern_lowercase("Atorvastatin");
        assert_eq!(interner.resolve(a), "atorvastatin");
        assert_eq!(interner.intern_lowercase("ATORVASTATIN"), a);
        // Whole-string lowering, not per-`char`: the final sigma.
        let greek = interner.intern_lowercase("ΟΔΟΣ");
        assert_eq!(interner.resolve(greek), "οδος");
        assert_eq!(interner.resolve(greek), "ΟΔΟΣ".to_lowercase());
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn truncate_rolls_back_to_mark_and_replays_same_ids() {
        let mut interner = TokenInterner::new();
        interner.intern("keep");
        // One memoised raw token on each side of the mark.
        assert_eq!(interner.intern_terms("coughing"), vec![1]);
        let mark = interner.mark();
        assert_eq!(mark, 2);
        interner.intern_set(["lost", "gone"]);
        assert_eq!(interner.intern_terms("Vomiting, the coughing"), vec![1, 4]);
        assert_eq!(interner.len(), 5);
        interner.truncate(mark);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.intern("keep"), 0, "pre-mark ids untouched");
        // A replay after rollback hands out the exact ids the failed
        // attempt got — dense, first-seen order.
        assert_eq!(interner.intern("gone"), 2);
        assert_eq!(interner.intern("lost"), 3);
        assert_eq!(interner.resolve(2), "gone");
        // The memo still answers for the stem below the mark, and has
        // forgotten the one above it: id 4 now goes to whoever comes first.
        assert_eq!(interner.intern_terms("coughing"), vec![1]);
        assert_eq!(interner.intern_terms("headaches"), vec![4]);
        assert_eq!(interner.intern_terms("vomiting"), vec![5]);
        assert_eq!(interner.resolve(4), "headach");
        assert_eq!(interner.resolve(5), "vomit");
        // Truncating past the end is a no-op.
        interner.truncate(99);
        assert_eq!(interner.len(), 6);
    }

    #[test]
    fn follow_forgets_local_words_and_takes_the_source_suffix() {
        let mut source = TokenInterner::new();
        source.intern_set(["aspirin", "rash"]);
        assert_eq!(source.intern_terms("coughing"), vec![2]);
        let mut follower = source.clone();
        let mark = follower.mark();
        // Words only the follower saw, one of which the source meets later
        // under another id; a raw token memoised on each side of the mark.
        assert_eq!(follower.intern_terms("zyxwalgia, coughing"), vec![2, 3]);
        follower.intern_lowercase("Novelol");
        source.intern_set(["codeine", "zyxwalgia"]);
        assert_eq!(source.intern_terms("vomiting"), vec![5]);

        follower.follow(&source, mark);
        assert_eq!(follower.len(), source.len());
        for id in 0..source.len() as u32 {
            assert_eq!(follower.resolve(id), source.resolve(id));
        }
        assert_eq!(follower.ids, source.ids);
        assert!(
            Arc::ptr_eq(&follower.tokens[4], &source.tokens[4]),
            "shared"
        );
        assert!(follower
            .memo
            .values()
            .all(|id| id.is_none_or(|id| (id as usize) < mark)));
        // The memo holds none of the source's new raw tokens; the pipeline
        // reaches the ids the source gave them.
        assert_eq!(
            follower.intern_terms("coughing, vomiting zyxwalgia"),
            vec![2, 4, 5]
        );
        assert_eq!(follower.len(), source.len(), "nothing new interned");
        // Following again from the new mark takes nothing more.
        let mark = follower.mark();
        follower.follow(&source, mark);
        assert_eq!(follower.ids, source.ids);
    }

    /// One report's text: name words (`intern_lowercase`, as drug and ADR
    /// names are) and a narrative (the pipeline), into one id namespace.
    fn intern_item<L: InternLog>(
        interner: &mut TokenInterner<L>,
        names: &str,
        narrative: &str,
    ) -> [Vec<u32>; 2] {
        let names = names
            .split_whitespace()
            .map(|word| interner.intern_lowercase(word))
            .collect();
        [sorted_set(names), interner.intern_terms(narrative)]
    }

    /// Intern `items` one after another into one interner, and again in
    /// chunks cut at `cuts`: chunk 0 into the merged interner, each later
    /// chunk into a fresh [`ChunkInterner`] absorbed in chunk order, its id
    /// sets remapped. A chunk's tokens so far are absorbed ahead
    /// ([`TokenInterner::absorb_tokens`]) after each item whose index is in
    /// `early`, as a merge that remaps finished stretches does. Both routes
    /// must give the same id sets, the same string behind every id and the
    /// same memo. Returns (merged, serial).
    fn assert_chunked_matches_serial<S: AsRef<str>>(
        items: &[(S, S)],
        cuts: &[usize],
        early: &[usize],
    ) -> (TokenInterner, TokenInterner) {
        let mut serial = TokenInterner::new();
        let expected: Vec<[Vec<u32>; 2]> = items
            .iter()
            .map(|(names, text)| intern_item(&mut serial, names.as_ref(), text.as_ref()))
            .collect();

        let mut ends: Vec<usize> = cuts.iter().map(|&c| c.min(items.len())).collect();
        ends.sort_unstable();
        ends.push(items.len());
        let (mut merged, mut got, mut start) = (TokenInterner::new(), Vec::new(), 0);
        for (chunk, end) in ends.into_iter().enumerate() {
            let part = &items[start..end];
            start = end;
            if chunk == 0 {
                got.extend(
                    part.iter().map(|(names, text)| {
                        intern_item(&mut merged, names.as_ref(), text.as_ref())
                    }),
                );
                continue;
            }
            let (mut local, mut remap) = (ChunkInterner::default(), Vec::new());
            let mut sets = Vec::new();
            for (i, (names, text)) in part.iter().enumerate() {
                sets.push(intern_item(&mut local, names.as_ref(), text.as_ref()));
                if early.contains(&(end - part.len() + i)) {
                    let tokens = local.tokens_from(remap.len()).to_vec();
                    merged.absorb_tokens(tokens, &mut remap);
                }
            }
            merged.absorb(local, &mut remap);
            for mut report in sets {
                for set in &mut report {
                    set.iter_mut().for_each(|id| *id = remap[*id as usize]);
                    set.sort_unstable();
                }
                got.push(report);
            }
        }
        assert_eq!(got, expected, "id sets");
        assert_eq!(merged.len(), serial.len());
        for id in 0..serial.len() as u32 {
            assert_eq!(merged.resolve(id), serial.resolve(id), "id {id}");
        }
        assert_eq!(merged.ids, serial.ids);
        assert_eq!(merged.memo, serial.memo, "memo");
        (merged, serial)
    }

    #[test]
    fn absorb_in_chunk_order_is_serial_interning() {
        let items = [
            // Chunk 0.
            ("Aspirin", "Severe headaches after the first dose."),
            ("aspirin", "headaches again"),
            // Chunk 1: "headache" reaches chunk 0's stem from another raw
            // token; "vomiting" stems to "vomit" before any drug says so.
            ("Paracetamol", "A headache, then vomiting."),
            ("ΟΔΟΣ Forte", "Naïve patient; İstanbul straße."),
            // Chunk 2: "ibuprofen" is new here and in no earlier chunk;
            // the drug word "vomit" is chunk 1's narrative stem.
            ("Ibuprofen vomit", "NAÏVE, vomited, STRAẞE"),
            ("odos", "ibuprofen headache"),
        ];
        let (merged, _) = assert_chunked_matches_serial(&items, &[2, 4], &[2, 4, 5]);
        let id = |s: &str| merged.ids[s];
        assert!(id("ibuprofen") > id("paracetamol"), "first seen in chunk 2");
        assert_eq!(merged.memo["headache"], merged.memo["headaches"]);
        assert_eq!(merged.memo["vomiting"], Some(id("vomit")));
        assert_eq!(merged.resolve(id("οδος")), "ΟΔΟΣ".to_lowercase());
        assert!(merged.memo.contains_key("i\u{307}stanbul"));
        assert!(!merged.memo.contains_key("straẞe"), "lowered to straße");

        // Every chunking, including empty chunks and chunk 0 empty, with
        // and without tokens absorbed ahead.
        for a in 0..=items.len() {
            for b in a..=items.len() {
                assert_chunked_matches_serial(&items, &[a, b], &[]);
                assert_chunked_matches_serial(&items, &[a, b], &[1, 3, 4]);
            }
        }
        assert_chunked_matches_serial::<&str>(&[], &[0, 0], &[0]);
    }

    #[test]
    fn truncate_after_absorb_keeps_the_memo_below_the_mark() {
        let items = [
            ("aspirin", "headaches"),
            ("aspirin", "cough"),
            ("codeine", "coughing and headache, then vomiting"),
            ("vomit", "rash"),
        ];
        let (mut merged, mut serial) = assert_chunked_matches_serial(&items, &[2], &[2]);
        for mark in (0..=serial.len()).rev() {
            merged.truncate(mark);
            serial.truncate(mark);
            assert_eq!(merged.len(), mark.min(serial.len()));
            assert!(merged
                .memo
                .values()
                .all(|id| id.is_none_or(|id| (id as usize) < merged.len())));
            assert_eq!(merged.memo, serial.memo, "mark {mark}");
            assert_eq!(merged.ids, serial.ids, "mark {mark}");
        }
    }

    impl TokenInterner {
        /// [`TokenInterner::truncate`] as one scan of the whole memo, the
        /// rule the bookkeeping has to reproduce. It leaves the log stale,
        /// so an interner it has run on is only ever compared, never
        /// truncated the fast way.
        fn truncate_by_scan(&mut self, mark: usize) {
            if mark >= self.tokens.len() {
                return;
            }
            for token in self.tokens.drain(mark..) {
                self.ids.remove(&*token);
            }
            self.memo
                .retain(|_, id| id.is_none_or(|id| (id as usize) < mark));
        }

        /// [`TokenInterner::follow`] over [`TokenInterner::truncate_by_scan`].
        fn follow_by_scan(&mut self, source: &TokenInterner, mark: usize) {
            self.truncate_by_scan(mark);
            for token in &source.tokens[self.tokens.len()..] {
                self.push(Arc::clone(token));
            }
        }

        /// Panic unless the log lists exactly the memo's `Some` entries.
        fn assert_stemmed_is_the_memo(&self) {
            let log = &self.log;
            let mut logged: Vec<&str> = (log.ends.iter())
                .scan(0, |start, &end| {
                    let raw = &log.stemmed[*start..end as usize];
                    *start = end as usize;
                    Some(raw)
                })
                .collect();
            let mut stemmed: Vec<&str> = (self.memo.iter())
                .filter(|(_, id)| id.is_some())
                .map(|(raw, _)| &**raw)
                .collect();
            logged.sort_unstable();
            stemmed.sort_unstable();
            assert_eq!(logged, stemmed, "stemmed log");
            assert_eq!(log.stemmed_from.len(), self.tokens.len());
        }
    }

    mod truncation {
        use super::*;
        use proptest::prelude::*;

        /// Words whose stems repeat and collide with name words.
        const WORDS: &[&str] = &[
            "the",
            "headache",
            "headaches",
            "vomit",
            "vomiting",
            "Vomited",
            "aspirin",
            "rash",
            "rashes",
            "coughing",
            "cough",
            "naïve",
            "ΟΔΟΣ",
        ];

        proptest! {
            /// Random interning, marks, truncations, forks and follows,
            /// each applied to an interner and to one that truncates by
            /// scanning the memo: ids, tokens and memo stay equal.
            #[test]
            fn truncate_equals_the_memo_scan(
                ops in prop::collection::vec(
                    (0u8..6, prop::collection::vec(0usize..13, 0..6), 0usize..40),
                    0..40,
                ),
            ) {
                let mut fast = TokenInterner::new();
                let mut scan = TokenInterner::new();
                let mut marks: Vec<usize> = Vec::new();
                // A clone of `fast` taken at `.1` tokens, interning on its own.
                let mut fork: Option<(TokenInterner, usize)> = None;
                for (kind, words, k) in ops {
                    let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                    match kind {
                        0 => {
                            let text = text.join(" ");
                            prop_assert_eq!(fast.intern_terms(&text), scan.intern_terms(&text));
                        }
                        1 => {
                            for word in text {
                                prop_assert_eq!(
                                    fast.intern_lowercase(word),
                                    scan.intern_lowercase(word)
                                );
                            }
                        }
                        2 => marks.push(fast.mark()),
                        3 => {
                            // A mark taken earlier, or any count at all.
                            let mark = marks.get(k).copied().unwrap_or(k % 24);
                            fast.truncate(mark);
                            scan.truncate_by_scan(mark);
                            if fork.as_ref().is_some_and(|(_, at)| mark < *at) {
                                fork = None;
                            }
                        }
                        4 => fork = Some((fast.clone(), fast.mark())),
                        _ => match fork.as_mut() {
                            Some((source, _)) if k % 2 == 0 => {
                                source.intern_terms(&text.join(" "));
                            }
                            Some((source, at)) => {
                                fast.follow(source, *at);
                                scan.follow_by_scan(source, *at);
                                *at = fast.mark();
                            }
                            None => {}
                        },
                    }
                    prop_assert_eq!(&fast.tokens, &scan.tokens);
                    prop_assert_eq!(&fast.ids, &scan.ids);
                    prop_assert_eq!(&fast.memo, &scan.memo);
                    fast.assert_stemmed_is_the_memo();
                }
            }
        }
    }

    mod chunked {
        use super::*;
        use proptest::prelude::*;

        /// Words that repeat across reports, stems reached from several raw
        /// tokens, drug words equal to narrative stems, stop words and
        /// non-ASCII lowering.
        const WORDS: &[&str] = &[
            "the",
            "of",
            "x",
            "headache",
            "headaches",
            "HEADACHES",
            "vomit",
            "vomiting",
            "Vomited",
            "aspirin",
            "ASPIRIN",
            "rash",
            "80mg",
            "naïve",
            "NAÏVE",
            "ΟΔΟΣ",
            "İstanbul",
            "straße",
            "STRAẞE",
        ];
        const SEPARATORS: &[&str] = &[" ", ", ", "-", "", ". "];

        proptest! {
            #[test]
            fn absorb_over_random_chunks_is_serial_interning(
                reports in prop::collection::vec(
                    (
                        prop::collection::vec(prop::sample::select(WORDS.to_vec()), 0..4),
                        prop::collection::vec(
                            (prop::sample::select(WORDS.to_vec()), prop::sample::select(SEPARATORS.to_vec())),
                            0..12,
                        ),
                    ),
                    0..16,
                ),
                cuts in prop::collection::vec(0usize..16, 0..5),
                early in prop::collection::vec(0usize..16, 0..6),
            ) {
                let items: Vec<(String, String)> = reports
                    .iter()
                    .map(|(names, words)| {
                        (names.join(" "), words.iter().flat_map(|&(w, sep)| [w, sep]).collect())
                    })
                    .collect();
                assert_chunked_matches_serial(&items, &cuts, &early);
            }
        }
    }
}
