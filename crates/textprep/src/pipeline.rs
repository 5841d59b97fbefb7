//! The tokenize → stopword-filter → stem pipeline of §4.2.

use crate::intern::{InternLog, TokenInterner};
use crate::porter::stem;
use crate::stopwords::is_stopword;
use crate::tokenizer::for_each_token;

/// Tokens shorter than this many characters are dropped.
const MIN_TOKEN_CHARS: usize = 2;

/// What the pipeline does to one raw lowercase token: `None` when the
/// length or stop-word filter drops it, else its Porter stem. A pure
/// function of the token — the property [`TokenInterner`]'s raw-token memo
/// rests on.
pub(crate) fn term(raw: &str) -> Option<String> {
    if raw.chars().nth(MIN_TOKEN_CHARS - 1).is_none() || is_stopword(raw) {
        None
    } else {
        Some(stem(raw))
    }
}

/// The paper's free-text preprocessing: tokenize, drop tokens under two
/// characters and stopwords, Porter-stem. It has exactly one configuration,
/// which is what lets [`TokenInterner`] memoise its per-token outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipeline;

impl Pipeline {
    /// The paper's pipeline.
    pub fn paper() -> Self {
        Pipeline
    }

    /// Process a free-text field into comparison-ready terms, as strings.
    /// The reference the interned path ([`Pipeline::intern`]) is tested
    /// against; production code never needs the strings.
    pub fn process(&self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        for_each_token(text, &mut String::new(), |raw| terms.extend(term(raw)));
        terms
    }

    /// Process a free-text field straight into its sorted, deduplicated
    /// term-id set: the same ids, and the same interner contents afterwards,
    /// as `interner.intern_set(self.process(text))`, in one pass over the
    /// text with no `String` per token and the stop-word lookup, stemming
    /// and interning done once per *distinct* raw token the interner has
    /// seen rather than once per occurrence.
    pub fn intern<L: InternLog>(&self, text: &str, interner: &mut TokenInterner<L>) -> Vec<u32> {
        interner.intern_terms(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feed the same texts, in order, through the fused path on one fresh
    /// interner and through the unfused path it replaced in production on
    /// another: every id set and the final interner contents must agree.
    fn assert_fused_matches_reference(texts: &[String]) {
        let p = Pipeline::paper();
        let (mut fused, mut unfused) = (TokenInterner::new(), TokenInterner::new());
        for text in texts {
            assert_eq!(
                p.intern(text, &mut fused),
                unfused.intern_set(p.process(text)),
                "id sets differ on {text:?}"
            );
        }
        assert_eq!(fused.len(), unfused.len());
        for id in 0..fused.len() as u32 {
            assert_eq!(fused.resolve(id), unfused.resolve(id), "id {id}");
        }
    }

    /// Words an ADR narrative is made of, repeated across cases so the memo
    /// is hit, plus the lowercasing oddities: `İ` grows to two chars, `ß`
    /// and `ẞ`, `Σ` (no final sigma per `char`), accents, digits, dates.
    const WORDS: &[&str] = &[
        "the",
        "The",
        "patient",
        "PATIENT",
        "was",
        "of",
        "a",
        "x",
        "experienced",
        "experiencing",
        "rhabdomyolysis",
        "Rhabdomyolysis",
        "headache",
        "headaches",
        "HEADACHES",
        "vomiting",
        "vomited",
        "atorvastatin",
        "80mg",
        "80",
        "mg",
        "01-05-2013",
        "30-Apr-2013",
        "2013",
        "year-old",
        "İ",
        "İstanbul",
        "ß",
        "straße",
        "STRAẞE",
        "Σ",
        "ΣΊΣΥΦΟΣ",
        "naïve",
        "NAÏVE",
        "café",
        "٣",
    ];
    const SEPARATORS: &[&str] = &[" ", " ", ", ", ". ", "-", "", "\n", " — ", "/", "\u{307}"];

    proptest! {
        // A character class, not `.`: the vendored proptest's `.` is
        // printable ASCII only.
        #[test]
        fn fused_path_matches_reference_on_arbitrary_text(
            texts in prop::collection::vec(
                "[ -~İßẞΣςσǅÅéïÏ٣Ⅷ²ª一\u{307}\u{2003}]{0,200}",
                1..6,
            ),
        ) {
            assert_fused_matches_reference(&texts);
        }

        #[test]
        fn fused_path_matches_reference_on_adr_like_narratives(
            narratives in prop::collection::vec(
                prop::collection::vec(
                    (prop::sample::select(WORDS.to_vec()), prop::sample::select(SEPARATORS.to_vec())),
                    0..40,
                ),
                1..8,
            ),
        ) {
            let texts: Vec<String> = narratives
                .iter()
                .map(|words| words.iter().flat_map(|&(w, sep)| [w, sep]).collect())
                .collect();
            assert_fused_matches_reference(&texts);
        }
    }

    #[test]
    fn full_pipeline_strips_boilerplate_and_stems() {
        let p = Pipeline::paper();
        let terms = p.process("The patient experienced uncontrollable coughing and headaches.");
        assert!(!terms.contains(&"the".to_string()));
        assert!(!terms.contains(&"patient".to_string()));
        assert!(terms.contains(&stem("coughing")));
        assert!(terms.contains(&stem("headaches")));
    }

    #[test]
    fn paraphrased_duplicates_share_most_terms() {
        // Condensed from the paper's Table 1(b): two narratives of the same
        // event written by different reporters.
        let p = Pipeline::paper();
        let a = p.process(
            "On 30 April 2013, within hours of vaccination with Boostrix, the subject \
             experienced uncontrollable cough and felt like she was choking.",
        );
        let b = p.process(
            "In the afternoon of 30-Apr-2013, the patient experienced uncontrollable \
             cough for 2 hours, then started choking.",
        );
        let sa: std::collections::HashSet<&String> = a.iter().collect();
        let sb: std::collections::HashSet<&String> = b.iter().collect();
        let inter = sa.intersection(&sb).count();
        assert!(
            inter >= 5,
            "stemmed narratives of the same event should overlap heavily, got {inter}: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn min_token_len_filters_single_chars() {
        let p = Pipeline::paper();
        let terms = p.process("x y vomiting");
        assert_eq!(terms, vec![stem("vomiting")]);
    }

    #[test]
    fn empty_text_yields_no_terms() {
        assert!(Pipeline::paper().process("").is_empty());
        assert!(Pipeline::paper().process("the of and").is_empty());
    }
}
