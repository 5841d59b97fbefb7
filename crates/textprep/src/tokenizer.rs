//! Lowercasing alphanumeric tokenizer.

/// What [`for_each_token`] does with a byte of the text.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// An ASCII byte that is neither a letter nor a digit: ends a token.
    Separator,
    /// A lowercase ASCII letter or a digit: stays as it is.
    Kept,
    /// An uppercase ASCII letter: lowered.
    Upper,
    /// Part of a non-ASCII character, which is decoded to classify it.
    Wide,
}

/// [`Class`] of every byte value.
static CLASS: [Class; 256] = {
    let mut class = [Class::Wide; 256];
    let mut b = 0;
    while b < 128 {
        class[b] = match b as u8 {
            b'a'..=b'z' | b'0'..=b'9' => Class::Kept,
            b'A'..=b'Z' => Class::Upper,
            _ => Class::Separator,
        };
        b += 1;
    }
    class
};

/// The one token scanner: call `visit` with every lowercase alphanumeric-run
/// token of `text`, in order. [`tokenize`], [`crate::Pipeline::process`] and
/// the interned path ([`crate::Pipeline::intern`]) are all built on it.
///
/// Punctuation, dates like `01-05-2013` and dosage strings like `80 mg`
/// split into their alphanumeric components, which is what makes narratives
/// with differing punctuation conventions comparable (the paper's Table 1
/// duplicates differ exactly this way).
///
/// The scan reads bytes. A run of lowercase ASCII letters and digits — most
/// tokens of a report narrative — is visited as a slice of `text`, with no
/// copy. A run that holds an uppercase or a non-ASCII character is built in
/// `scratch` from that character on, so a caller that keeps the buffer
/// across calls allocates nothing per token or per text; what the buffer
/// held before is never read.
pub fn for_each_token(text: &str, scratch: &mut String, mut visit: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        let start = at;
        while at < bytes.len() && CLASS[bytes[at] as usize] == Class::Kept {
            at += 1;
        }
        if at == bytes.len() {
            if start < at {
                visit(&text[start..]);
            }
            break;
        }
        match separator_at(text, at) {
            Some(len) => {
                if start < at {
                    visit(&text[start..at]);
                }
                at += len;
            }
            None => at = copied_run(text, start, at, scratch, &mut visit),
        }
    }
}

/// The character of `text` that starts at byte `at`.
fn char_at(text: &str, at: usize) -> char {
    text[at..].chars().next().expect("a character starts here")
}

/// The length in bytes of the character at `at` if it separates tokens
/// (it is neither a letter nor a digit), `None` if it belongs in one.
fn separator_at(text: &str, at: usize) -> Option<usize> {
    match CLASS[text.as_bytes()[at] as usize] {
        Class::Separator => Some(1),
        Class::Kept | Class::Upper => None,
        Class::Wide => {
            let ch = char_at(text, at);
            (!ch.is_alphanumeric()).then(|| ch.len_utf8())
        }
    }
}

/// Finish the run of `text` that began at `start` and is lowercase ASCII
/// up to `at`, where an uppercase or a non-ASCII alphanumeric character
/// stands: copy it into `scratch`, lowering ASCII bytewise and any other
/// character through `char::to_lowercase`, and visit it. Returns where the
/// scan goes on: past the character that ended the run.
fn copied_run(
    text: &str,
    start: usize,
    mut at: usize,
    scratch: &mut String,
    visit: &mut impl FnMut(&str),
) -> usize {
    let bytes = text.as_bytes();
    scratch.clear();
    scratch.push_str(&text[start..at]);
    while at < bytes.len() {
        let b = bytes[at];
        match CLASS[b as usize] {
            Class::Kept => scratch.push(char::from(b)),
            Class::Upper => scratch.push(char::from(b.to_ascii_lowercase())),
            Class::Separator => {
                at += 1;
                break;
            }
            Class::Wide => {
                let ch = char_at(text, at);
                at += ch.len_utf8();
                if !ch.is_alphanumeric() {
                    break;
                }
                scratch.extend(ch.to_lowercase());
                continue;
            }
        }
        at += 1;
    }
    visit(scratch);
    at
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

    /// Scan `text` with a `scratch` buffer that holds `stale`, and check
    /// every token against the per-`char` oracle and against the run of
    /// `text` it came from: a run of lowercase ASCII letters and digits is
    /// visited as that very slice of `text`, any other run as a copy.
    fn assert_borrowed_and_copied_runs(text: &str, stale: &str) {
        let runs: Vec<&str> = text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|run| !run.is_empty())
            .collect();
        let mut scratch = String::from(stale);
        let mut seen: Vec<(String, bool)> = Vec::new();
        for_each_token(text, &mut scratch, |t| {
            let borrowed = text.as_bytes().as_ptr_range().contains(&t.as_ptr());
            seen.push((t.to_string(), borrowed));
        });
        let tokens: Vec<String> = seen.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(tokens, per_char_oracle(text), "{text:?}");
        for ((token, borrowed), run) in seen.iter().zip(&runs) {
            let plain = run
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit());
            assert_eq!(*borrowed, plain, "run {run:?} of {text:?}");
            if plain {
                assert_eq!(token, run);
            }
        }
    }

    #[test]
    fn runs_turn_uppercase_or_non_ascii_mid_token() {
        for text in [
            "myALGIA",
            "naïve80MG",
            "x\u{307}y",
            "severe myALGIA, naïve80MG; x\u{307}y",
            "Rash",
            "rasH",
            "80mg80MG80mg",
            "a\u{2003}b—c",
            "ẞ",
            "—",
            "",
            "--",
            "rash",
        ] {
            assert_borrowed_and_copied_runs(text, "");
            assert_borrowed_and_copied_runs(text, "STALE bytes ΣΣ");
        }
    }

    /// Words whose runs stay lowercase ASCII, turn uppercase or non-ASCII
    /// at their start, middle or end, or are a lone non-alphanumeric
    /// character, for [`borrowed_and_copied_runs_match_per_char_lowercasing`].
    const WORDS: &[&str] = &[
        "myalgia",
        "myALGIA",
        "Myalgia",
        "MYALGIA",
        "naïve80MG",
        "naïve",
        "80mg",
        "80MG",
        "x\u{307}y",
        "İstanbul",
        "ΣΑ",
        "straße",
        "ẞ",
        "٣",
        "a",
        "Z",
        "—",
        "\u{307}",
    ];
    /// Separators, the empty one included: adjacent words then form one
    /// run, and a text can have no separator at all.
    const SEPARATORS: &[&str] = &["", "", " ", ", ", "-", "\u{2003}", "\n"];

    proptest! {
        #[test]
        fn borrowed_and_copied_runs_match_per_char_lowercasing(
            words in prop::collection::vec(
                (prop::sample::select(WORDS.to_vec()), prop::sample::select(SEPARATORS.to_vec())),
                0..12,
            ),
            lead in prop::sample::select(SEPARATORS.to_vec()),
            stale in "[ -~ΣİẞéÏ]{0,12}",
        ) {
            // A token at the very start unless `lead` separates it, and one
            // at the very end unless the last separator does.
            let text: String = std::iter::once(lead)
                .chain(words.iter().flat_map(|&(w, sep)| [w, sep]))
                .collect();
            assert_borrowed_and_copied_runs(&text, &stale);
        }

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
