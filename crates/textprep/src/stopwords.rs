//! English stopword list with spontaneous-report additions.

/// Standard English stopwords plus terms that are boilerplate in ADR report
/// narratives and therefore carry no duplicate-detection signal ("patient",
/// "subject", "reported", "received", "via", reference-number scaffolding).
/// Sorted, so [`is_stopword`] can binary-search it.
pub const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "case",
    "concerning",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "number",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "patient",
    "pertaining",
    "received",
    "reference",
    "regarding",
    "report",
    "reported",
    "reporting",
    "same",
    "she",
    "should",
    "so",
    "some",
    "subject",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "via",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// Is `token` (already lowercased) a stopword?
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.binary_search(&token).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_function_words_are_stopwords() {
        for w in ["the", "and", "of", "to", "in", "was", "with"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn report_boilerplate_is_stopworded() {
        for w in ["patient", "subject", "reported", "reference", "case"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn medical_content_words_are_kept() {
        for w in [
            "rhabdomyolysis",
            "atorvastatin",
            "headache",
            "vomiting",
            "cough",
            "vaccination",
            "myalgia",
        ] {
            assert!(!is_stopword(w), "{w} must not be a stopword");
        }
    }

    #[test]
    fn list_has_no_duplicates() {
        let mut sorted: Vec<&str> = STOPWORDS.to_vec();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "duplicate stopword entries");
    }

    #[test]
    fn list_is_sorted() {
        assert!(
            STOPWORDS.windows(2).all(|w| w[0] < w[1]),
            "binary search needs STOPWORDS strictly ascending"
        );
    }

    #[test]
    fn list_is_all_lowercase() {
        for w in STOPWORDS {
            assert_eq!(*w, w.to_lowercase());
        }
    }
}
