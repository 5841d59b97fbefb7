//! One module per table/figure of §5, plus the design-choice ablations.

pub mod ablations;
pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod table1;
pub mod table3;

use crate::harness::ExperimentResult;
use mlcore::pr_curve;

/// Downsample a PR curve to interpolated precision at fixed recall grid
/// points (the standard 11-point interpolated curve) so tables stay small.
/// Empty when [`pr_curve`] is `None` (no sample positive, or a `NaN`
/// score): there is no curve to sample.
pub fn sampled_pr_curve(scored: &[(f64, bool)]) -> Vec<(f64, f64)> {
    let Some(curve) = pr_curve(scored) else {
        return Vec::new();
    };
    (0..=10)
        .map(|i| {
            let r = i as f64 / 10.0;
            // Interpolated precision: max precision at any recall >= r.
            let p = curve
                .iter()
                .filter(|pt| pt.recall >= r - 1e-12)
                .map(|pt| pt.precision)
                .fold(0.0f64, f64::max);
            (r, p)
        })
        .collect()
}

/// Convenience: run every experiment (used by `exp_all`).
pub fn run_all(quick: bool) -> Vec<ExperimentResult> {
    let mut out = Vec::new();
    out.extend(table1::run(quick));
    out.extend(table3::run(quick));
    out.extend(fig5::run(quick));
    out.extend(fig6::run(quick));
    out.extend(fig7_8::run(quick));
    out.extend(fig9::run(quick));
    out.extend(fig10::run(quick));
    out.extend(fig11::run(quick));
    out.extend(ablations::run(quick));
    out.extend(chaos::run(quick));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_curve_has_eleven_points_and_descends_overall() {
        let scored = vec![
            (0.9, true),
            (0.8, true),
            (0.7, false),
            (0.6, true),
            (0.2, false),
            (0.1, false),
        ];
        let pts = sampled_pr_curve(&scored);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[10].0, 1.0);
        // Interpolated precision is non-increasing in recall.
        for w in pts.windows(2) {
            assert!(w[0].1 >= w[1].1 - 1e-12);
        }
        // No positive, no curve.
        assert!(sampled_pr_curve(&[(0.4, false), (0.1, false)]).is_empty());
    }
}
