//! Report preprocessing and the §4.2 pair distance vector.
//!
//! Preprocessing interns every token once ([`TokenInterner`]), so a
//! [`ProcessedReport`] carries sorted deduplicated `Vec<u32>` id sets. The
//! O(pairs) hot path compares one report against many: a [`HeldReport`]
//! marks the held report's three token sets in this thread's scratch once,
//! and each partner's distance vector then costs one mark lookup per
//! partner token. [`pair_distance`] — three sorted-slice merge walks — is
//! the reference the held kernel equals bit for bit. Neither touches string
//! bytes or allocates per compared pair.

use adr_model::{AdrReport, DistVec, ReportId};
use simmetrics::{jaccard_distance_counts, jaccard_distance_sorted, FieldDistance};
use std::cell::Cell;
use textprep::{ChunkInterner, InternLog, Pipeline, TokenInterner};

/// A report with its text fields preprocessed once (tokenised, stop-worded,
/// stemmed, interned) so that pairwise comparisons are pure set operations
/// over sorted `u32` id slices.
///
/// §4.2 singles out the free-text description for NLP treatment; the short
/// drug/ADR string fields are compared as raw token sets. Token ids are only
/// comparable between reports processed through the *same* interner.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessedReport {
    /// The source report id.
    pub id: ReportId,
    /// Patient age.
    pub age: Option<f64>,
    /// Sex code.
    pub sex: Option<String>,
    /// Residential state.
    pub state: Option<String>,
    /// Onset date (exact-match categorical).
    pub onset_date: Option<String>,
    /// Reaction outcome description.
    pub outcome: Option<String>,
    /// Drug-name token ids (lowercased words of every listed drug),
    /// sorted and deduplicated.
    pub drug_tokens: Vec<u32>,
    /// ADR-name token ids, sorted and deduplicated.
    pub adr_tokens: Vec<u32>,
    /// NLP-processed narrative term ids, sorted and deduplicated.
    pub narrative_terms: Vec<u32>,
}

/// The token ids of a comma-joined name field: each word of each name
/// [`AdrReport::drug_names`] (or `adr_names`) lists, in order, lowercased,
/// then sorted and deduplicated. Those names are the field's comma-separated
/// parts, trimmed, so their words are the field's runs of characters that
/// are neither commas nor whitespace.
fn name_token_ids<L: InternLog>(field: &str, interner: &mut TokenInterner<L>) -> Vec<u32> {
    let mut ids: Vec<u32> = field
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|word| !word.is_empty())
        .map(|word| interner.intern_lowercase(word))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl ProcessedReport {
    /// Preprocess one report with the given text pipeline, interning every
    /// token into `interner`.
    pub fn from_report<L: InternLog>(
        r: &AdrReport,
        pipeline: &Pipeline,
        interner: &mut TokenInterner<L>,
    ) -> Self {
        ProcessedReport {
            id: r.id,
            age: r.patient.calculated_age,
            sex: r.patient.sex.map(|s| s.as_str().to_string()),
            state: r.patient.residential_state.clone(),
            onset_date: r.reaction.onset_date.clone(),
            outcome: r.reaction.reaction_outcome_description.clone(),
            drug_tokens: name_token_ids(&r.medicine.generic_name_description, interner),
            adr_tokens: name_token_ids(&r.reaction.meddra_pt_code, interner),
            narrative_terms: pipeline.intern(&r.reaction.report_description, interner),
        }
    }
}

/// Reports each text-processing worker must get before a batch is split.
/// Splitting costs a thread spawn per helper and, on the calling thread,
/// the merge of every helper's report (its new tokens, the remap and
/// re-sort of its id sets); a helper also starts with an empty memo, so it
/// filters and stems each distinct word of its chunk again. Measured on
/// two vCPUs, two chunks against one thread (synthetic corpus, medians of
/// 40, into an empty and into a 9,000-report interner), with the byte
/// scanner and the keyed word hasher: 128 reports per worker lose (×0.97
/// and ×0.71), 256–512 break even into the empty interner (×1.02) and lose
/// into the full one (×0.80–0.94), 768 gain ×1.03–1.09, 1,024 ×1.08–1.11
/// and 2,048 ×1.07–1.21. Cheaper text processing moved the crossover from
/// near 200 reports per worker to near 700: the per-report work shrank and
/// the merge and the cold memo did not. 1,024 still keeps clear of it, and
/// keeps `detect_new`'s 1,000-report quarter (text processing ≈ 1 % of
/// that call) and the 50-report ingest commits on the serial loop.
const MIN_REPORTS_PER_WORKER: usize = 1_024;

/// Chunks [`process_reports`] cuts a batch of `reports` into on `workers`
/// threads: as many as get [`MIN_REPORTS_PER_WORKER`] each, at least one.
fn text_chunks(reports: usize, workers: usize) -> usize {
    workers.min(reports / MIN_REPORTS_PER_WORKER).max(1)
}

/// Reports a helper thread processes between two hand-overs to the
/// calling thread in [`process_reports`].
const PIECE_REPORTS: usize = 256;

/// What the calling thread of [`process_reports`] spends per report, in
/// hundredths of what a helper spends processing one: a report it processes
/// itself costs that plus the sink, and a helper's report costs it the
/// absorb of the report's new tokens, the remap and re-sort of its id sets
/// and the sink. Measured with both threads busy (phase timers over 20
/// loads of 40,000 reports, two vCPUs): the sink is 0.23 of a helper's
/// report, the merge 0.16 and the sink after it 0.21.
const OWN_COST: usize = 123;
const MERGE_COST: usize = 37;

/// Reports of a batch of `reports` cut into `chunks` that the calling
/// thread processes itself: as many as keep it busy, with the merge of the
/// helpers' reports, until the helpers are done. With `h` of its own and
/// `t` per helper, the calling thread spends `h·OWN_COST + (chunks−1)·t·
/// MERGE_COST` and each helper `t·100`.
fn head_reports(reports: usize, chunks: usize) -> usize {
    let helpers = chunks - 1;
    // h·OWN + (n − h)·MERGE = (n − h)·100 / helpers, solved for h.
    let spare = 100usize.saturating_sub(helpers * MERGE_COST);
    reports * spare / (helpers * OWN_COST + spare)
}

/// Preprocess `reports` into `interner` and hand each [`ProcessedReport`]
/// to `sink` in input order: the reports, the ids and the interner (memo
/// included) afterwards are exactly those of
/// [`ProcessedReport::from_report`] called on each report in turn. The
/// batch is cut into [`text_chunks`] contiguous chunks — Fig. 1's text
/// processing as a map over partitions. The calling thread processes the
/// first, [`head_reports`] long, into `interner` and sinks it, while a
/// scoped thread per later chunk processes it into a [`ChunkInterner`] of
/// its own and hands it over every [`PIECE_REPORTS`] reports, with the
/// tokens those reports were the first to use. The calling thread then
/// merges the pieces in order as they arrive: the new tokens
/// ([`TokenInterner::absorb_tokens`]), the reports with their id sets
/// remapped and re-sorted, into `sink`; and once a chunk's thread is done,
/// its raw-token memo ([`TokenInterner::absorb`]). So the helpers go on
/// processing while the calling thread merges. A helper panic resumes on
/// the calling thread.
pub(crate) fn process_reports(
    reports: &[AdrReport],
    pipeline: &Pipeline,
    interner: &mut TokenInterner,
    workers: usize,
    mut sink: impl FnMut(ProcessedReport),
) {
    let chunks = text_chunks(reports.len(), workers);
    if chunks == 1 {
        for r in reports {
            sink(ProcessedReport::from_report(r, pipeline, interner));
        }
        return;
    }
    let (head, tail) = reports.split_at(head_reports(reports.len(), chunks));
    std::thread::scope(|scope| {
        let helpers: Vec<_> =
            tail.chunks(tail.len().div_ceil(chunks - 1))
                .map(|chunk| {
                    let pieces = chunk.chunks(PIECE_REPORTS);
                    // Allocated on this thread: under a per-thread-arena
                    // allocator (glibc) each is then freed, after its merge,
                    // where this thread's next allocations reuse it.
                    let buffers: Vec<Vec<ProcessedReport>> = (pieces.clone())
                        .map(|piece| Vec::with_capacity(piece.len()))
                        .collect();
                    let (hand_over, handed) = std::sync::mpsc::sync_channel(buffers.len());
                    let helper =
                        scope.spawn(move || {
                            let mut local = ChunkInterner::default();
                            for (piece, mut processed) in pieces.zip(buffers) {
                                let known = local.len();
                                processed.extend(piece.iter().map(|r| {
                                    ProcessedReport::from_report(r, pipeline, &mut local)
                                }));
                                let tokens = local.tokens_from(known).to_vec();
                                if hand_over.send((processed, tokens)).is_err() {
                                    break; // The calling thread is unwinding.
                                }
                            }
                            local
                        });
                    (handed, helper)
                })
                .collect();
        for r in head {
            sink(ProcessedReport::from_report(r, pipeline, interner));
        }
        for (handed, helper) in helpers {
            let mut remap = Vec::new();
            for (processed, tokens) in handed {
                interner.absorb_tokens(tokens, &mut remap);
                for mut p in processed {
                    for ids in [
                        &mut p.drug_tokens,
                        &mut p.adr_tokens,
                        &mut p.narrative_terms,
                    ] {
                        ids.iter_mut().for_each(|id| *id = remap[*id as usize]);
                        ids.sort_unstable();
                    }
                    sink(p);
                }
            }
            let local = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            interner.absorb(local, &mut remap);
        }
    });
}

/// The §4.2 distance vector between two reports, in the field order of
/// [`adr_model::DistVec`]: age, sex, state, onset date, outcome, drug name,
/// ADR name, report description. Every component is in `[0, 1]`.
///
/// Both reports must come from the same interner. This is the reference:
/// each Jaccard field is a sorted-slice merge walk. The distance job and
/// serving compare one report against many through [`HeldReport`], which
/// returns the same bits.
pub fn pair_distance(a: &ProcessedReport, b: &ProcessedReport) -> DistVec {
    let [age, sex, state, onset, outcome] = scalar_distances(a, b);
    [
        age,
        sex,
        state,
        onset,
        outcome,
        jaccard_distance_sorted(&a.drug_tokens, &b.drug_tokens),
        jaccard_distance_sorted(&a.adr_tokens, &b.adr_tokens),
        jaccard_distance_sorted(&a.narrative_terms, &b.narrative_terms),
    ]
}

/// The five 0/1 components of the §4.2 vector; each is symmetric in its
/// two reports.
fn scalar_distances(a: &ProcessedReport, b: &ProcessedReport) -> [f64; 5] {
    [
        FieldDistance::numeric(a.age, b.age),
        FieldDistance::categorical(a.sex.as_deref(), b.sex.as_deref()),
        FieldDistance::categorical(a.state.as_deref(), b.state.as_deref()),
        FieldDistance::categorical(a.onset_date.as_deref(), b.onset_date.as_deref()),
        FieldDistance::categorical(a.outcome.as_deref(), b.outcome.as_deref()),
    ]
}

// Mark bits of the three token sets: bit `DRUG` of a thread's byte `id`
// is set while the held report's drug set holds token `id`, and so on.
const DRUG: u8 = 1;
const ADR: u8 = 2;
const NARRATIVE: u8 = 4;

thread_local! {
    /// This thread's token marks, one byte per token id up to the largest
    /// id a report held on this thread carried. Every byte is zero while
    /// no [`HeldReport`] has the buffer.
    static MARKS: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// The three token sets of one report with their marks, so that
/// `(set, mark bit)` loops read in field order.
fn token_sets(r: &ProcessedReport) -> [(&[u32], u8); 3] {
    [
        (&r.drug_tokens, DRUG),
        (&r.adr_tokens, ADR),
        (&r.narrative_terms, NARRATIVE),
    ]
}

/// One report held against many partners: the §4.2 distance vector of
/// every `(held, partner)` pair, bit-identical to [`pair_distance`], with
/// the held report's token sets marked once instead of merged again per
/// partner.
///
/// Holding marks each of the held report's token ids in a per-thread byte
/// buffer, one bit per set it belongs to (drug, ADR, narrative). A
/// partner's intersection with a held set is then the number of its ids
/// whose byte carries that set's bit — ids past the buffer's end are
/// unmarked — and the component is [`jaccard_distance_counts`], the
/// expression the merge walk ends in. Dropping the `HeldReport` clears
/// exactly the bytes it set, so the buffer is all zero between holds and
/// never needs a sweep; it grows only to the largest token id held on its
/// thread. Both reports must come from the same interner.
pub struct HeldReport<'a> {
    report: &'a ProcessedReport,
    marks: Vec<u8>,
}

impl<'a> HeldReport<'a> {
    /// Hold `report`, taking this thread's mark buffer (a second
    /// `HeldReport` alive on the same thread starts a buffer of its own).
    pub fn new(report: &'a ProcessedReport) -> Self {
        let mut marks = MARKS.try_with(Cell::take).unwrap_or_default();
        let sets = token_sets(report);
        // Sets are sorted: the last id of each is its largest. Growth is
        // amortised: the largest id held creeps up over a run of reports,
        // and growing to each new maximum exactly would copy the buffer
        // every time.
        if let Some(top) = sets.iter().filter_map(|(ids, _)| ids.last()).max() {
            let len = *top as usize + 1;
            if marks.len() < len {
                marks.resize(len, 0);
            }
        }
        for (ids, bit) in sets {
            for &id in ids {
                marks[id as usize] |= bit;
            }
        }
        HeldReport { report, marks }
    }

    /// Bytes of the thread's marks that differ from the held report's own
    /// marks: zero unless a released report left one behind.
    #[cfg(test)]
    pub(crate) fn stray_marks(&self) -> usize {
        let mut own = vec![0u8; self.marks.len()];
        for (ids, bit) in token_sets(self.report) {
            for &id in ids {
                own[id as usize] |= bit;
            }
        }
        self.marks.iter().zip(&own).filter(|(m, o)| m != o).count()
    }

    /// `other`'s ids that the held report's set `bit` holds.
    fn marked(&self, ids: &[u32], bit: u8) -> usize {
        ids.iter()
            .map(|&id| {
                let mark = self.marks.get(id as usize).copied().unwrap_or(0);
                usize::from(mark & bit != 0)
            })
            .sum()
    }

    /// The §4.2 distance vector between the held report and `other`:
    /// exactly `pair_distance(held, other)`, and so also
    /// `pair_distance(other, held)` — every component is symmetric.
    pub fn distance(&self, other: &ProcessedReport) -> DistVec {
        let held = self.report;
        let jaccard = |mine: &[u32], theirs: &[u32], bit| {
            jaccard_distance_counts(self.marked(theirs, bit), mine.len(), theirs.len())
        };
        let [age, sex, state, onset, outcome] = scalar_distances(held, other);
        [
            age,
            sex,
            state,
            onset,
            outcome,
            jaccard(&held.drug_tokens, &other.drug_tokens, DRUG),
            jaccard(&held.adr_tokens, &other.adr_tokens, ADR),
            jaccard(&held.narrative_terms, &other.narrative_terms, NARRATIVE),
        ]
    }
}

impl Drop for HeldReport<'_> {
    fn drop(&mut self) {
        for (ids, _) in token_sets(self.report) {
            for &id in ids {
                self.marks[id as usize] = 0;
            }
        }
        let marks = std::mem::take(&mut self.marks);
        // During thread teardown the slot may be gone; the buffer then
        // simply goes with the thread.
        let _ = MARKS.try_with(|slot| slot.set(marks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_model::Sex;
    use adr_synth::{Dataset, SynthConfig};
    use simmetrics::euclidean;

    fn report(id: u64, age: f64, sex: Sex, drugs: &str, adrs: &str, narrative: &str) -> AdrReport {
        let mut r = AdrReport {
            id,
            ..AdrReport::default()
        };
        r.patient.calculated_age = Some(age);
        r.patient.sex = Some(sex);
        r.patient.residential_state = Some("NSW".into());
        r.reaction.onset_date = Some("30/04/2013 00:00:00".into());
        r.reaction.reaction_outcome_description = Some("Unknown".into());
        r.medicine.generic_name_description = drugs.into();
        r.reaction.meddra_pt_code = adrs.into();
        r.reaction.report_description = narrative.into();
        r
    }

    /// The construction `from_report` replaced: a `String` per name word and
    /// per narrative term, each interned on its own.
    fn reference_from_report(
        r: &AdrReport,
        pipeline: &Pipeline,
        interner: &mut TokenInterner,
    ) -> ProcessedReport {
        let mut names = |names: Vec<&str>| {
            interner.intern_set(
                names
                    .iter()
                    .flat_map(|n| n.split_whitespace())
                    .map(|t| t.to_lowercase()),
            )
        };
        ProcessedReport {
            id: r.id,
            age: r.patient.calculated_age,
            sex: r.patient.sex.map(|s| s.as_str().to_string()),
            state: r.patient.residential_state.clone(),
            onset_date: r.reaction.onset_date.clone(),
            outcome: r.reaction.reaction_outcome_description.clone(),
            drug_tokens: names(r.drug_names()),
            adr_tokens: names(r.adr_names()),
            narrative_terms: interner.intern_set(pipeline.process(&r.reaction.report_description)),
        }
    }

    #[test]
    fn from_report_matches_the_unfused_reference_over_a_corpus() {
        for seed in [5, 2016] {
            let ds = Dataset::generate(&SynthConfig::small(2_000, 100, seed));
            let p = Pipeline::paper();
            let (mut fused, mut unfused) = (TokenInterner::new(), TokenInterner::new());
            for r in &ds.reports {
                assert_eq!(
                    ProcessedReport::from_report(r, &p, &mut fused),
                    reference_from_report(r, &p, &mut unfused),
                    "report {}",
                    r.id
                );
            }
            assert_eq!(fused.len(), unfused.len());
            for id in 0..fused.len() as u32 {
                assert_eq!(fused.resolve(id), unfused.resolve(id));
            }
        }
    }

    proptest::proptest! {
        /// Name fields of commas, whitespace (Unicode's included) and
        /// mixed-case words: the words `from_report` interns straight from
        /// the field are the reference's, in the same order.
        #[test]
        fn name_fields_intern_like_the_listed_names(
            drugs in "[a-cA-Cé ,\t\u{2003}]{0,24}",
            adrs in "[a-cA-Cé ,\t\u{2003}]{0,24}",
        ) {
            let p = Pipeline::paper();
            let r = report(0, 1.0, Sex::F, &drugs, &adrs, "");
            let (mut fused, mut unfused) = (TokenInterner::new(), TokenInterner::new());
            proptest::prop_assert_eq!(
                ProcessedReport::from_report(&r, &p, &mut fused),
                reference_from_report(&r, &p, &mut unfused)
            );
            proptest::prop_assert_eq!(fused.len(), unfused.len());
            for id in 0..fused.len() as u32 {
                proptest::prop_assert_eq!(fused.resolve(id), unfused.resolve(id));
            }
        }
    }

    #[test]
    fn non_ascii_names_lower_like_str_to_lowercase() {
        let p = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let r = report(0, 1.0, Sex::F, "ΟΔΟΣ Forte,İlaç", "Ödem", "x");
        let a = ProcessedReport::from_report(&r, &p, &mut interner);
        assert_eq!(a, reference_from_report(&r, &p, &mut TokenInterner::new()));
        let drugs: Vec<&str> = a.drug_tokens.iter().map(|&t| interner.resolve(t)).collect();
        assert_eq!(drugs, vec!["οδος", "forte", "i\u{307}laç"]);
    }

    #[test]
    fn identical_reports_have_zero_vector() {
        let p = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let giant_token = "a1".repeat(5_000);
        // (drugs, ADRs, narrative, narrative terms expected): an ordinary
        // report, then the degenerate inputs of each text field.
        let cases = [
            ("Atorvastatin", "Rhabdomyolysis", "severe myalgia", 2),
            ("Atorvastatin", "Rhabdomyolysis", "", 0),
            ("Atorvastatin", "Rhabdomyolysis", "the of and was with", 0),
            ("Atorvastatin", "Rhabdomyolysis", "--- ,,, !!! \n\t…", 0),
            ("Atorvastatin", "Rhabdomyolysis", giant_token.as_str(), 1),
            ("", "", "severe myalgia", 2),
            (" , ,", ",", "", 0),
        ];
        let processed: Vec<ProcessedReport> = cases
            .iter()
            .zip(0..)
            .map(|(&(drugs, adrs, narrative, terms), id)| {
                let r = report(id, 46.0, Sex::M, drugs, adrs, narrative);
                let a = ProcessedReport::from_report(&r, &p, &mut interner);
                assert_eq!(a.narrative_terms.len(), terms, "{narrative:.40?}");
                assert_eq!(a.drug_tokens.is_empty(), r.drug_names().is_empty());
                assert_eq!(a.adr_tokens.is_empty(), r.adr_names().is_empty());
                a
            })
            .collect();
        for a in &processed {
            let v = pair_distance(a, a);
            assert_eq!(v.len(), 8);
            assert!(v.iter().all(|&d| d == 0.0), "{v:?}");
            for b in &processed {
                let v = pair_distance(a, b);
                assert!(v.iter().all(|d| (0.0..=1.0).contains(d)), "{v:?}");
            }
        }
        assert_eq!(
            interner.resolve(processed[4].narrative_terms[0]).len(),
            10_000
        );
    }

    #[test]
    fn table1_style_duplicate_is_close_but_nonzero() {
        // Reports A/B of Table 1(a): same age, sex, drug, ADR; different
        // outcome and narrative.
        let p = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let a = ProcessedReport::from_report(
            &report(
                0,
                46.0,
                Sex::M,
                "Atorvastatin",
                "Rhabdomyolysis",
                "Reference number 123 is a literature report pertaining to a 46 year-old male \
                 patient who experienced rhabdomyolysis while on atorvastatin.",
            ),
            &p,
            &mut interner,
        );
        let b = ProcessedReport::from_report(
            &report(
                1,
                46.0,
                Sex::M,
                "Atorvastatin",
                "Rhabdomyolysis",
                "The 46-year-old male subject started treatment with atorvastatin calcium. The \
                 subject presented with myalgia and was diagnosed with rhabdomyolysis.",
            ),
            &p,
            &mut interner,
        );
        let mut b2 = b.clone();
        b2.outcome = Some("Recovered".into());
        let v = pair_distance(&a, &b2);
        // Age, sex, state, onset, drug, ADR all match.
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 0.0);
        assert_eq!(v[3], 0.0);
        assert_eq!(v[4], 1.0, "outcome differs");
        assert_eq!(v[5], 0.0, "drug matches");
        assert_eq!(v[6], 0.0, "ADR matches");
        assert!(
            v[7] > 0.0 && v[7] < 1.0,
            "narratives overlap partially: {}",
            v[7]
        );
    }

    #[test]
    fn unrelated_reports_are_far() {
        let p = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let a = ProcessedReport::from_report(
            &report(
                0,
                46.0,
                Sex::M,
                "Atorvastatin",
                "Rhabdomyolysis",
                "muscle pain",
            ),
            &p,
            &mut interner,
        );
        let b = ProcessedReport::from_report(
            &report(
                1,
                30.0,
                Sex::F,
                "Amoxicillin",
                "Rash",
                "itchy skin eruption",
            ),
            &p,
            &mut interner,
        );
        let v = pair_distance(&a, &b);
        assert!(euclidean(&v, &[0.0; 8]) > 2.0, "{v:?}");
    }

    #[test]
    fn drug_token_distance_is_symmetric_in_order() {
        let p = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let a = ProcessedReport::from_report(
            &report(
                0,
                1.0,
                Sex::F,
                "Influenza Vaccine,Dtpa Vaccine",
                "Cough",
                "x",
            ),
            &p,
            &mut interner,
        );
        let b = ProcessedReport::from_report(
            &report(
                1,
                1.0,
                Sex::F,
                "Dtpa Vaccine,Influenza Vaccine",
                "Cough",
                "x",
            ),
            &p,
            &mut interner,
        );
        assert_eq!(pair_distance(&a, &b)[5], 0.0, "order must not matter");
    }

    #[test]
    fn interned_vectors_match_string_set_oracle() {
        // The sorted-merge Jaccard over interned ids must agree exactly with
        // the HashSet-of-strings oracle the seed implementation used.
        let ds = Dataset::generate(&SynthConfig::small(120, 8, 3));
        let p = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let processed: Vec<ProcessedReport> = ds
            .reports
            .iter()
            .map(|r| ProcessedReport::from_report(r, &p, &mut interner))
            .collect();
        for (r, pr) in ds.reports.iter().zip(&processed).take(30) {
            // Rebuild the string token sets the old representation stored.
            let mut drug_strings: Vec<String> = r
                .drug_names()
                .iter()
                .flat_map(|n| n.split_whitespace())
                .map(|t| t.to_lowercase())
                .collect();
            drug_strings.sort();
            drug_strings.dedup();
            let mut resolved: Vec<&str> = pr
                .drug_tokens
                .iter()
                .map(|&id| interner.resolve(id))
                .collect();
            resolved.sort();
            let expect: Vec<&str> = drug_strings.iter().map(String::as_str).collect();
            assert_eq!(resolved, expect, "id set must resolve to the string set");
        }
        for i in (0..processed.len()).step_by(11) {
            for j in (i + 1..processed.len()).step_by(17) {
                let a = &processed[i];
                let b = &processed[j];
                let oracle = |x: &[u32], y: &[u32]| {
                    let sx: std::collections::HashSet<&str> =
                        x.iter().map(|&id| interner.resolve(id)).collect();
                    let sy: std::collections::HashSet<&str> =
                        y.iter().map(|&id| interner.resolve(id)).collect();
                    simmetrics::jaccard_distance(
                        &sx.iter().copied().collect::<Vec<_>>(),
                        &sy.iter().copied().collect::<Vec<_>>(),
                    )
                };
                let v = pair_distance(a, b);
                assert_eq!(v[5], oracle(&a.drug_tokens, &b.drug_tokens));
                assert_eq!(v[6], oracle(&a.adr_tokens, &b.adr_tokens));
                assert_eq!(v[7], oracle(&a.narrative_terms, &b.narrative_terms));
            }
        }
    }

    /// `process_reports` on `workers` threads, after `prefix` went through
    /// the serial loop, against `from_report` on each report in turn: the
    /// same reports in the same order and the same interner.
    fn assert_processes_like_the_serial_loop(
        prefix: &[AdrReport],
        batch: &[AdrReport],
        workers: usize,
    ) {
        let p = Pipeline::paper();
        let mut serial = TokenInterner::new();
        let expected: Vec<ProcessedReport> = prefix
            .iter()
            .chain(batch)
            .map(|r| ProcessedReport::from_report(r, &p, &mut serial))
            .collect();
        let mut interner = TokenInterner::new();
        let mut got = Vec::new();
        process_reports(prefix, &p, &mut interner, 1, |r| got.push(r));
        process_reports(batch, &p, &mut interner, workers, |r| got.push(r));
        assert_eq!(got, expected, "{workers} workers");
        assert_eq!(interner.len(), serial.len());
        for id in 0..serial.len() as u32 {
            assert_eq!(interner.resolve(id), serial.resolve(id), "id {id}");
        }
    }

    #[test]
    fn process_reports_equals_the_serial_loop_on_every_worker_count() {
        let ds = Dataset::generate(&SynthConfig::small(8_500, 400, 31));
        let (prefix, batch) = ds.reports.split_at(300);
        for workers in [1, 2, 3, 8] {
            assert_eq!(text_chunks(batch.len(), workers), workers);
            if workers > 1 {
                // The helpers' stretches end in a piece shorter than the rest.
                let head = head_reports(batch.len(), workers);
                let stretch = (batch.len() - head).div_ceil(workers - 1);
                assert_ne!(stretch % PIECE_REPORTS, 0, "{workers} workers");
            }
            assert_processes_like_the_serial_loop(prefix, batch, workers);
        }
    }

    #[test]
    fn degenerate_batches_process_like_the_serial_loop() {
        let ds = Dataset::generate(&SynthConfig::small(3_000, 100, 32));
        let (prefix, batch) = ds.reports.split_at(200);
        for workers in [2, 8] {
            assert_processes_like_the_serial_loop(prefix, &[], workers);
            assert_processes_like_the_serial_loop(prefix, &batch[..3], workers);
        }
        // A helper's stretch of whole pieces, and one whose last piece is a
        // single report.
        for rest in [0, 1] {
            let reports = (2 * MIN_REPORTS_PER_WORKER..batch.len())
                .find(|&n| (n - head_reports(n, 2)) % PIECE_REPORTS == rest)
                .expect("a batch size with that cut");
            assert_eq!(text_chunks(reports, 2), 2);
            assert_processes_like_the_serial_loop(prefix, &batch[..reports], 2);
        }
        let batch = &batch[..2_100];
        // Nothing but names to intern, and some reports without names.
        let silent: Vec<AdrReport> = batch
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut r = r.clone();
                r.reaction.report_description.clear();
                if i % 7 == 0 {
                    r.medicine.generic_name_description.clear();
                }
                r
            })
            .collect();
        assert_eq!(text_chunks(silent.len(), 2), 2);
        assert_processes_like_the_serial_loop(prefix, &silent, 2);
        assert_processes_like_the_serial_loop(&[], &silent, 2);
    }

    #[test]
    fn one_worker_and_small_batches_take_the_serial_loop() {
        for reports in [0, 1, 2_048, 40_000] {
            assert_eq!(text_chunks(reports, 1), 1, "{reports} reports");
            assert_eq!(text_chunks(reports, 0), 1, "{reports} reports");
        }
        // `detect_new`'s 1,000-report quarter and 50-report ingest commits.
        for workers in [2, 4, 8, 64] {
            assert_eq!(text_chunks(1_000, workers), 1);
            assert_eq!(text_chunks(50, workers), 1);
            assert_eq!(text_chunks(MIN_REPORTS_PER_WORKER * 2 - 1, workers), 1);
        }
        assert_eq!(text_chunks(MIN_REPORTS_PER_WORKER * 2, 2), 2);
        // A 2,400-report bootstrap splits in two on any larger cluster.
        assert_eq!(text_chunks(2_400, 8), 2);
        assert_eq!(text_chunks(40_000, 2), 2);
        assert_eq!(text_chunks(40_000, 64), 39);
    }

    #[test]
    fn synthetic_duplicates_are_closer_than_random_pairs() {
        // The property every classifier downstream depends on.
        let ds = Dataset::generate(&SynthConfig::small(400, 25, 77));
        let p = Pipeline::paper();
        let mut interner = TokenInterner::new();
        let processed: Vec<ProcessedReport> = ds
            .reports
            .iter()
            .map(|r| ProcessedReport::from_report(r, &p, &mut interner))
            .collect();
        let zero = [0.0; 8];
        let dup_mean: f64 = ds
            .duplicate_pairs
            .iter()
            .map(|pair| {
                let v = pair_distance(&processed[pair.lo as usize], &processed[pair.hi as usize]);
                euclidean(&v, &zero)
            })
            .sum::<f64>()
            / ds.duplicate_pairs.len() as f64;
        let mut rnd_sum = 0.0;
        let mut rnd_n = 0;
        for i in (0..300).step_by(7) {
            for j in (i + 1..300).step_by(13) {
                let pid = adr_model::PairId::new(i as u64, j as u64);
                if ds.duplicate_set().contains(&pid) {
                    continue;
                }
                let v = pair_distance(&processed[i], &processed[j]);
                rnd_sum += euclidean(&v, &zero);
                rnd_n += 1;
            }
        }
        let rnd_mean = rnd_sum / rnd_n as f64;
        assert!(
            dup_mean < rnd_mean * 0.65,
            "duplicates ({dup_mean:.3}) must be much closer than random pairs ({rnd_mean:.3})"
        );
    }
}
