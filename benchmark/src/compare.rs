//! `run.sh compare A.json B.json`: per workload × end-to-end metric, both
//! medians, the change, the bound `BENCHMARK.json` fixes, and a verdict;
//! per-layer changes below. A is the parent, B the change.

use crate::json::Json;
use crate::metrics::{PER_LAYER, WORKLOADS};
use crate::stats::Summary;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Read the `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds_from(doc: &Json) -> Result<Vec<Bounded>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry lacks {k:?}"))
            };
            Ok(Bounded {
                name: text("name")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better is {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks a bound")?,
            })
        })
        .collect()
}

/// Every run's value of one metric for one workload in a result file;
/// `runs` is `"runs"` (untraced) or `"traced_runs"`.
pub fn metric_values(doc: &Json, workload: &str, runs: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(runs))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    WithinBound,
    /// The run-to-run spread is wider than the bound, and the change's runs
    /// do not all read better than all of the parent's: no call either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `a` and `b` are the per-run values of parent and
/// change (one value each when the files hold a single run, in which case
/// the spread is unknown and taken as zero).
pub fn judge(a: &[f64], b: &[f64], metric: &Bounded) -> (Summary, Summary, f64, Verdict) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive = worse, as a share of the parent's median.
    let worse_by = if sa.median == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (sa.median - sb.median) / sa.median
    } else {
        (sb.median - sa.median) / sa.median
    };
    let spread = sa.spread().max(sb.spread());
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if worse_by > metric.bound {
        Verdict::Regressed
    } else if spread > metric.bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if -worse_by > spread.max(f64::EPSILON) && (all_better || a.len() == 1) {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (sa, sb, worse_by, verdict)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` from the current directory (run.sh starts the program
/// at the repo root), else from beside this package.
fn load_bounds() -> Result<Vec<Bounded>, String> {
    let beside = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = load(Path::new("BENCHMARK.json")).or_else(|_| load(&beside))?;
    bounds_from(&doc)
}

pub fn main(a: &Path, b: &Path) -> i32 {
    let (a_doc, b_doc, bounds) = match (load(a), load(b), load_bounds()) {
        (Ok(a), Ok(b), Ok(m)) => (a, b, m),
        (a, b, m) => {
            for e in [a.err(), b.err(), m.map(|_| ()).err()]
                .into_iter()
                .flatten()
            {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let rev = |d: &Json| {
        d.get("git_revision")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("A = {} ({})", a.display(), rev(&a_doc));
    println!("B = {} ({})", b.display(), rev(&b_doc));
    println!(
        "\n{:<14} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for metric in &bounds {
            let va = metric_values(&a_doc, workload, "runs", &metric.name);
            let vb = metric_values(&b_doc, workload, "runs", &metric.name);
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {:<18} missing from one side", metric.name);
                continue;
            }
            let (sa, sb, worse_by, verdict) = judge(&va, &vb, metric);
            regressed |= verdict == Verdict::Regressed;
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median
            };
            println!(
                "{workload:<14} {:<18} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}{}",
                metric.name,
                sa.median,
                sb.median,
                100.0 * change,
                100.0 * metric.bound,
                100.0 * sa.spread().max(sb.spread()),
                verdict.label(),
                if worse_by > 0.0 && verdict != Verdict::Regressed {
                    format!(" ({:.1}% worse)", 100.0 * worse_by)
                } else {
                    String::new()
                },
            );
        }
    }
    println!(
        "\nper-layer changes (traced runs; medians; metrics that are 0 on both sides left out):"
    );
    for workload in WORKLOADS {
        for def in PER_LAYER {
            let sa = Summary::of(&metric_values(&a_doc, workload, "traced_runs", def.name));
            let sb = Summary::of(&metric_values(&b_doc, workload, "traced_runs", def.name));
            if sa.n == 0 || sb.n == 0 || (sa.median == 0.0 && sb.median == 0.0) {
                continue;
            }
            let change = if sa.median == 0.0 {
                f64::INFINITY
            } else {
                100.0 * (sb.median - sa.median) / sa.median
            };
            println!(
                "{workload:<14} {:<30} {:>14.4} {:>14.4} {:>+8.1}% {}",
                def.name, sa.median, sb.median, change, def.unit
            );
        }
    }
    if regressed {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Bounded {
        Bounded {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(false, 0.10);
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let v = |b: &[f64], m: &Bounded| judge(&tight_a, b, m).3;
        assert_eq!(
            v(&[120.0, 121.0, 119.0, 120.0, 120.0], &lower),
            Verdict::Regressed
        );
        assert_eq!(
            v(&[80.0, 81.0, 79.0, 80.0, 80.0], &lower),
            Verdict::Improved
        );
        assert_eq!(
            v(&[104.0, 105.0, 103.0, 104.0, 104.0], &lower),
            Verdict::WithinBound
        );
        // Same numbers, throughput-like metric: directions swap.
        let higher = metric(true, 0.10);
        assert_eq!(
            v(&[120.0, 121.0, 119.0, 120.0, 120.0], &higher),
            Verdict::Improved
        );
        assert_eq!(
            v(&[80.0, 81.0, 79.0, 80.0, 80.0], &higher),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let lower = metric(false, 0.10);
        let noisy_a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let overlapping = [95.0, 125.0, 85.0, 110.0, 88.0];
        assert_eq!(judge(&noisy_a, &overlapping, &lower).3, Verdict::Unresolved);
        let clear_win = [60.0, 70.0, 50.0, 65.0, 55.0];
        assert_eq!(judge(&noisy_a, &clear_win, &lower).3, Verdict::Improved);
    }

    #[test]
    fn reads_bounds_and_values_from_documents() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds_from(&bench).unwrap(),
            vec![Bounded {
                name: "op_p50_ms".into(),
                ..metric(false, 0.1)
            }]
        );
        let result = Json::parse(
            r#"{"workloads": {"cold-load": {"runs": [
                {"metrics": {"op_p50_ms": {"value": 3.5, "unit": "ms"}}},
                {"metrics": {"op_p50_ms": {"value": 4.5, "unit": "ms"}}}]}}}"#,
        )
        .unwrap();
        assert_eq!(
            metric_values(&result, "cold-load", "runs", "op_p50_ms"),
            vec![3.5, 4.5]
        );
        assert!(metric_values(&result, "cold-load", "traced_runs", "op_p50_ms").is_empty());
    }
}
