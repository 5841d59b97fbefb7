//! Corruption models for duplicate injection.
//!
//! The paper's Table 1 shows exactly how real ADR duplicates differ:
//! a changed reaction-outcome description, a rewritten narrative, an age
//! digit mis-keyed from a handwritten form (84 → 34), and a reordered /
//! partially overlapping ADR list. Each model here reproduces one of those
//! mechanisms; [`CorruptionConfig`] controls how aggressively a duplicate is
//! corrupted.

use rand::rngs::StdRng;
use rand::Rng;

/// Probabilities of each corruption applying to an injected duplicate.
#[derive(Debug, Clone, Copy)]
pub struct CorruptionConfig {
    /// Mis-key one digit of the age (Table 1(b): 84 → 34).
    pub age_digit_error: f64,
    /// Replace the outcome description (Table 1(a): Unknown → Recovered).
    pub outcome_change: f64,
    /// Drop or add one ADR term (Table 1(b)'s differing ADR lists).
    pub adr_list_edit: f64,
    /// Re-render the narrative from a different template (different
    /// reporter paraphrasing the same event).
    pub narrative_retemplate: f64,
    /// Inject a typo into the narrative.
    pub narrative_typo: f64,
    /// Blank the residential state ("Not Known").
    pub state_dropout: f64,
    /// Re-key the onset date (follow-up reports frequently record a
    /// different onset; a mis-read handwritten day is the Table 1 error
    /// class applied to dates).
    pub onset_date_error: f64,
    /// Edit the drug list (a follow-up report adds or drops a co-suspect
    /// medicine) — weakens the drug-field Jaccard match without inventing
    /// new drug names.
    pub drug_list_edit: f64,
    /// Probability that a duplicate is a *divergent clinical follow-up*: a
    /// later report of the same case in which the patient's course has
    /// moved on — new onset date on record, different outcome, evolved
    /// reaction list, state re-keyed — while the narrative is still a full
    /// clinical account. (The paper's Table 1(b) pair — ages 84 vs 34,
    /// different outcome, different ADR lists — is one of these.)
    pub divergent_followup: f64,
    /// Probability that a duplicate is an *administrative follow-up*: the
    /// structured fields are intact (same patient, same dates) but the
    /// narrative is a minimal forwarding note and the outcome has been
    /// updated. Together with divergent follow-ups this makes the positive
    /// class multi-modal: one mode keeps the fields and loses the text, the
    /// other keeps the text topic and loses the fields — no single linear
    /// rule covers both, which is exactly where kNN's local decisions beat
    /// the SVM baseline (§5.2.2).
    pub admin_followup: f64,
}

impl Default for CorruptionConfig {
    fn default() -> Self {
        CorruptionConfig {
            age_digit_error: 0.15,
            outcome_change: 0.50,
            adr_list_edit: 0.50,
            narrative_retemplate: 1.0,
            narrative_typo: 0.70,
            state_dropout: 0.15,
            onset_date_error: 0.20,
            drug_list_edit: 0.20,
            divergent_followup: 0.25,
            admin_followup: 0.20,
        }
    }
}

/// Mis-key one digit of `age` (replace a random digit with a random other
/// digit), the handwriting-transcription error of Table 1(b).
pub fn corrupt_age(age: u32, rng: &mut StdRng) -> u32 {
    let s = age.to_string();
    let bytes = s.as_bytes();
    let pos = rng.gen_range(0..bytes.len());
    let old = bytes[pos] - b'0';
    let mut new = rng.gen_range(0..10u8);
    if new == old {
        new = (new + 1) % 10;
    }
    // Avoid a leading zero producing a different digit count.
    if pos == 0 && new == 0 {
        new = rng.gen_range(1..10);
    }
    let mut out = s.into_bytes();
    out[pos] = b'0' + new;
    String::from_utf8(out)
        .expect("digits are ASCII")
        .parse()
        .expect("digit string parses")
}

/// Inject a single typo (substitution, deletion or adjacent transposition)
/// at a random alphabetic position of `text`.
pub fn inject_typo(text: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = text.chars().collect();
    let alpha_positions: Vec<usize> = chars
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_ascii_lowercase())
        .map(|(i, _)| i)
        .collect();
    if alpha_positions.is_empty() {
        return text.to_string();
    }
    let pos = alpha_positions[rng.gen_range(0..alpha_positions.len())];
    let mut out = chars;
    match rng.gen_range(0..3u8) {
        0 => {
            // Substitute with a neighbouring letter.
            let c = out[pos];
            let sub = ((c as u8 - b'a' + rng.gen_range(1..26)) % 26 + b'a') as char;
            out[pos] = sub;
        }
        1 => {
            out.remove(pos);
        }
        _ => {
            if pos + 1 < out.len() {
                out.swap(pos, pos + 1);
            }
        }
    }
    out.into_iter().collect()
}

/// Re-key the day component of a `DD/MM/YYYY …` date string to a different
/// day in `1..=28`, leaving month and year intact.
pub fn corrupt_date(date: &str, rng: &mut StdRng) -> String {
    let Some((day_str, rest)) = date.split_once('/') else {
        return date.to_string();
    };
    let old_day: u32 = day_str.parse().unwrap_or(1);
    let mut new_day = rng.gen_range(1..=28u32);
    if new_day == old_day {
        new_day = new_day % 28 + 1;
    }
    format!("{new_day:02}/{rest}")
}

/// Drop one element (if len > 1) or duplicate-with-reorder the ADR list;
/// always reorders, since follow-up reports rarely list reactions in the
/// same order.
pub fn edit_term_list(terms: &mut Vec<String>, extra_pool: &[String], rng: &mut StdRng) {
    if terms.len() > 1 && rng.gen_bool(0.5) {
        let victim = rng.gen_range(0..terms.len());
        terms.remove(victim);
    } else if !extra_pool.is_empty() {
        let add = &extra_pool[rng.gen_range(0..extra_pool.len())];
        if !terms.contains(add) {
            terms.push(add.clone());
        }
    }
    // Fisher–Yates reorder.
    for i in (1..terms.len()).rev() {
        let j = rng.gen_range(0..=i);
        terms.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn corrupt_age_changes_exactly_one_digit() {
        let mut r = rng(1);
        for age in [84u32, 46, 7, 103] {
            let c = corrupt_age(age, &mut r);
            assert_ne!(c, age);
            let a = age.to_string();
            let b = c.to_string();
            assert_eq!(
                a.len(),
                b.len(),
                "digit count must not change: {age} -> {c}"
            );
            let diff = a.bytes().zip(b.bytes()).filter(|(x, y)| x != y).count();
            assert_eq!(diff, 1, "{age} -> {c}");
        }
    }

    #[test]
    fn corrupt_age_never_leads_with_zero() {
        let mut r = rng(7);
        for _ in 0..200 {
            let c = corrupt_age(84, &mut r);
            assert!(!c.to_string().starts_with('0'));
            assert!(c >= 10);
        }
    }

    #[test]
    fn inject_typo_changes_text_slightly() {
        let mut r = rng(2);
        let original = "the patient experienced severe headache";
        for _ in 0..50 {
            let t = inject_typo(original, &mut r);
            let dist = simple_edit_distance(original, &t);
            assert!(dist <= 2, "typo should be a small edit: {t:?}");
        }
    }

    fn simple_edit_distance(a: &str, b: &str) -> usize {
        // Tiny Levenshtein for the test only.
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        for (i, ca) in a.iter().enumerate() {
            let mut cur = vec![i + 1];
            for (j, cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
            }
            prev = cur;
        }
        prev[b.len()]
    }

    #[test]
    fn inject_typo_on_text_without_letters_is_identity() {
        let mut r = rng(3);
        assert_eq!(inject_typo("1234 5678", &mut r), "1234 5678");
    }

    #[test]
    fn corrupt_date_changes_day_only() {
        let mut r = rng(9);
        for _ in 0..100 {
            let c = corrupt_date("30/04/2013 00:00:00", &mut r);
            assert_ne!(c, "30/04/2013 00:00:00");
            assert!(c.ends_with("/04/2013 00:00:00"), "{c}");
            let day: u32 = c[..2].parse().unwrap();
            assert!((1..=28).contains(&day));
        }
        // Malformed dates pass through unchanged.
        assert_eq!(corrupt_date("no-date", &mut r), "no-date");
    }

    #[test]
    fn edit_term_list_keeps_at_least_one_term() {
        let mut r = rng(4);
        let pool: Vec<String> = vec!["Chills".into(), "Nausea".into()];
        for _ in 0..100 {
            let mut terms = vec!["Cough".to_string(), "Headache".to_string()];
            edit_term_list(&mut terms, &pool, &mut r);
            assert!(!terms.is_empty());
        }
    }

    #[test]
    fn edit_term_list_single_term_grows() {
        let mut r = rng(5);
        let pool: Vec<String> = vec!["Chills".into()];
        let mut terms = vec!["Cough".to_string()];
        edit_term_list(&mut terms, &pool, &mut r);
        assert!(terms.contains(&"Cough".to_string()));
        assert_eq!(terms.len(), 2);
    }
}
