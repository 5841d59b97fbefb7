//! Lowercasing alphanumeric tokenizer.

/// The one token scanner: call `visit` with every lowercase alphanumeric-run
/// token of `text`, in order. [`tokenize`], [`crate::Pipeline::process`] and
/// the interned path ([`crate::Pipeline::intern`]) are all built on it.
///
/// Punctuation, dates like `01-05-2013` and dosage strings like `80 mg`
/// split into their alphanumeric components, which is what makes narratives
/// with differing punctuation conventions comparable (the paper's Table 1
/// duplicates differ exactly this way).
///
/// Each token is assembled in `scratch` (cleared first), so a caller that
/// keeps the buffer across calls allocates nothing per token or per text. ASCII — nearly all of a report narrative — is lowered bytewise;
/// only other characters go through `char::to_lowercase`.
pub fn for_each_token(text: &str, scratch: &mut String, mut visit: impl FnMut(&str)) {
    scratch.clear();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            scratch.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            scratch.extend(ch.to_lowercase());
        } else if !scratch.is_empty() {
            visit(scratch);
            scratch.clear();
        }
    }
    if !scratch.is_empty() {
        visit(scratch);
    }
}

/// Split `text` into lowercase tokens of alphanumeric runs.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |t| tokens.push(t.to_string()));
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            tokenize("On 30 April 2013, in the evening."),
            vec!["on", "30", "april", "2013", "in", "the", "evening"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(
            tokenize("Atorvastatin CALCIUM"),
            vec!["atorvastatin", "calcium"]
        );
    }

    #[test]
    fn dates_and_doses_split() {
        assert_eq!(tokenize("01-05-2013"), vec!["01", "05", "2013"]);
        assert_eq!(tokenize("80mg"), vec!["80mg"]);
        assert_eq!(tokenize("80 mg"), vec!["80", "mg"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ,,, !!!").is_empty());
    }

    #[test]
    fn unicode_handled() {
        assert_eq!(tokenize("naïve café"), vec!["naïve", "café"]);
    }

    /// The scanner without its ASCII fast path or its scratch buffer.
    fn per_char_oracle(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|run| !run.is_empty())
            .map(|run| run.chars().flat_map(char::to_lowercase).collect())
            .collect()
    }

    #[test]
    fn multi_char_lowercase_expansions_stay_in_the_token() {
        // `İ` lowers to `i` + U+0307; per-`char` lowering never makes a
        // final sigma.
        assert_eq!(tokenize("İstanbul"), vec!["i\u{307}stanbul"]);
        assert_eq!(tokenize("ΣΊΣΥΦΟΣ 80MG"), vec!["σίσυφοσ", "80mg"]);
    }

    #[test]
    fn a_reused_scratch_buffer_does_not_leak_into_tokens() {
        let mut scratch = String::from("stale");
        let mut seen = Vec::new();
        for text in ["Severe MYALGIA", "rash"] {
            for_each_token(text, &mut scratch, |t| seen.push(t.to_string()));
        }
        assert_eq!(seen, vec!["severe", "myalgia", "rash"]);
    }

    proptest! {
        #[test]
        fn ascii_fast_path_matches_per_char_lowercasing(
            s in "[ -~İßẞΣςσǅÅéïÏ٣Ⅷ²ª一\u{307}\u{2003}]{0,200}",
        ) {
            prop_assert_eq!(tokenize(&s), per_char_oracle(&s));
        }

        #[test]
        fn tokens_are_nonempty_lowercase_alphanumeric(s in ".{0,64}") {
            for t in tokenize(&s) {
                prop_assert!(!t.is_empty());
                prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
                // Lowercasing is idempotent on the output (some uppercase
                // codepoints like 𝐀 have no lowercase mapping and survive).
                prop_assert_eq!(t.to_lowercase(), t.to_lowercase().to_lowercase());
            }
        }

        #[test]
        fn idempotent_on_joined_output(s in "[ a-z0-9]{0,64}") {
            let once = tokenize(&s);
            let again = tokenize(&once.join(" "));
            prop_assert_eq!(once, again);
        }
    }
}
