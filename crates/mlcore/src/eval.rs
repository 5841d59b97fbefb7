//! Precision–recall evaluation (§5.2.2).
//!
//! The paper measures classifiers by the area under the precision–recall
//! curve (AUPR), citing Davis & Goadrich: PR curves expose differences that
//! ROC hides on heavily imbalanced data.

/// One point of a precision–recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Decision threshold that produced this point.
    pub threshold: f64,
    /// precision = TP / (TP + FP).
    pub precision: f64,
    /// recall = TP / P.
    pub recall: f64,
}

/// Compute the precision–recall curve from `(score, is_positive)` samples by
/// sweeping the threshold over every distinct score (descending).
///
/// Conventions: ties in score move together (the threshold sits between
/// distinct score values); precision at recall 0 is defined as 1.
///
/// `None` when no sample is positive: recall (TP / P) is undefined then. A
/// detection batch that touches no known duplicate scores exactly such a
/// sample, so it is an answer, not a panic. `None` too when any score is
/// `NaN`: a `NaN` sits at no threshold (it is not even equal to itself), so
/// no curve through it exists.
pub fn pr_curve(scored: &[(f64, bool)]) -> Option<Vec<PrPoint>> {
    let total_pos = scored.iter().filter(|(_, p)| *p).count();
    if total_pos == 0 || scored.iter().any(|(s, _)| s.is_nan()) {
        return None;
    }
    let mut sorted: Vec<(f64, bool)> = scored.to_vec();
    sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    let mut curve = vec![PrPoint {
        threshold: f64::INFINITY,
        precision: 1.0,
        recall: 0.0,
    }];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let score = sorted[i].0;
        // Consume the whole tie group.
        while i < sorted.len() && sorted[i].0 == score {
            if sorted[i].1 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        curve.push(PrPoint {
            threshold: score,
            precision: tp as f64 / (tp + fp) as f64,
            recall: tp as f64 / total_pos as f64,
        });
    }
    Some(curve)
}

/// Area under the PR curve by the step-wise (average-precision style)
/// estimator: `Σ (r_i − r_{i−1}) · p_i`. In `[0, 1]`; `NaN` when no sample
/// is positive or a score is `NaN` ([`pr_curve`] is `None`), so an undefined
/// area stays visibly undefined in a table or a mean instead of reading as 0
/// or 1.
pub fn average_precision(scored: &[(f64, bool)]) -> f64 {
    let Some(curve) = pr_curve(scored) else {
        return f64::NAN;
    };
    let mut area = 0.0;
    for w in curve.windows(2) {
        area += (w[1].recall - w[0].recall) * w[1].precision;
    }
    area
}

/// Confusion counts at a fixed threshold (`score >= threshold` ⇒ positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Tally predictions at `threshold`.
    pub fn at_threshold(scored: &[(f64, bool)], threshold: f64) -> Self {
        let mut c = Confusion::default();
        for &(score, actual) in scored {
            match (score >= threshold, actual) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// Precision; 1.0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall; 0.0 when there are no positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 harmonic mean (0 when precision + recall is 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_ranking_has_aupr_one() {
        let scored = vec![(0.9, true), (0.8, true), (0.3, false), (0.1, false)];
        assert!((average_precision(&scored) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_ranking_has_low_aupr() {
        let scored = vec![(0.9, false), (0.8, false), (0.3, true), (0.1, true)];
        let ap = average_precision(&scored);
        assert!(ap < 0.5, "got {ap}");
    }

    #[test]
    fn random_scores_on_imbalanced_data_give_aupr_near_base_rate() {
        // With 1% positives and uninformative scores, AP ≈ 0.01.
        let mut scored = Vec::new();
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..5000 {
            scored.push((next(), i % 100 == 0));
        }
        let ap = average_precision(&scored);
        assert!(
            ap < 0.1,
            "uninformative AP should be near base rate, got {ap}"
        );
    }

    #[test]
    fn curve_starts_at_recall_zero_and_ends_at_one() {
        let scored = vec![(0.9, true), (0.5, false), (0.4, true), (0.2, false)];
        let curve = pr_curve(&scored).unwrap();
        assert_eq!(curve.first().unwrap().recall, 0.0);
        assert_eq!(curve.first().unwrap().precision, 1.0);
        assert!((curve.last().unwrap().recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_move_together() {
        // Two samples share a score: they must enter the curve in one step.
        let scored = vec![(0.5, true), (0.5, false), (0.1, true)];
        let curve = pr_curve(&scored).unwrap();
        // Points: start, after the 0.5 group, after 0.1.
        assert_eq!(curve.len(), 3);
        assert!((curve[1].precision - 0.5).abs() < 1e-12);
        assert!((curve[1].recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_positives_give_no_curve_and_a_nan_area() {
        assert_eq!(pr_curve(&[(0.4, false)]), None);
        assert_eq!(pr_curve(&[]), None);
        assert!(average_precision(&[(0.4, false)]).is_nan());
    }

    #[test]
    fn a_nan_score_gives_no_curve_and_a_nan_area() {
        // Unguarded, the tie loop never consumed a NaN (NaN != NaN) and the
        // curve grew without bound.
        let scored = [(0.9, true), (f64::NAN, false), (0.2, true)];
        assert_eq!(pr_curve(&scored), None);
        assert_eq!(pr_curve(&[(f64::NAN, true)]), None);
        assert!(average_precision(&scored).is_nan());
    }

    #[test]
    fn confusion_counts() {
        let scored = vec![(0.9, true), (0.8, false), (0.3, true), (0.1, false)];
        let c = Confusion::at_threshold(&scored, 0.5);
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (1, 1, 1, 1));
        assert!((c.precision() - 0.5).abs() < 1e-12);
        assert!((c.recall() - 0.5).abs() < 1e-12);
        assert!((c.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_prediction_conventions() {
        let c = Confusion::at_threshold(&[(0.1, true)], 0.5);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    proptest! {
        #[test]
        fn aupr_in_unit_interval(
            scores in prop::collection::vec((0.0f64..1.0, prop::bool::ANY), 2..60),
        ) {
            prop_assume!(scores.iter().any(|(_, p)| *p));
            let ap = average_precision(&scores);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ap));
        }

        #[test]
        fn recall_is_monotone_along_the_curve(
            scores in prop::collection::vec((0.0f64..1.0, prop::bool::ANY), 2..60),
        ) {
            prop_assume!(scores.iter().any(|(_, p)| *p));
            let curve = pr_curve(&scores).unwrap();
            for w in curve.windows(2) {
                prop_assert!(w[1].recall >= w[0].recall - 1e-12);
            }
        }
    }
}
