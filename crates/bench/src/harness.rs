//! Result tables, markdown rendering, the shared cost model, and the
//! `--report` job-report capture shared by every experiment binary.

use sparklet::{Cluster, ClusterConfig, CostModelConfig, FaultConfig, JobReport};
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// A rendered experiment result: a named table plus commentary lines.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"Figure 7(a)"`.
    pub name: String,
    /// What the paper reports for this table/figure.
    pub paper_expectation: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form observations comparing measured shape to the paper.
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Start a result table.
    pub fn new(name: &str, paper_expectation: &str, headers: &[&str]) -> Self {
        ExperimentResult {
            name: name.to_string(),
            paper_expectation: paper_expectation.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}", self.name)?;
        writeln!(f)?;
        writeln!(f, "*Paper:* {}", self.paper_expectation)?;
        writeln!(f)?;
        writeln!(f, "| {} |", self.headers.join(" | "))?;
        writeln!(
            f,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        )?;
        for row in &self.rows {
            writeln!(f, "| {} |", row.join(" | "))?;
        }
        for note in &self.notes {
            writeln!(f)?;
            writeln!(f, "*Measured:* {note}")?;
        }
        writeln!(f)
    }
}

/// Ratio between the paper's pair volumes and this harness's (5× fewer
/// training pairs × 10× fewer test pairs). Comparison costs scale with the
/// product, so each of our comparisons stands for ~50 at paper scale.
pub const PAPER_SCALE: u64 = 50;

/// Cost model that reports virtual time at paper scale (see crate docs).
pub fn paper_cost() -> CostModelConfig {
    CostModelConfig {
        op_ns: 400 * PAPER_SCALE,
        record_ns: 50 * PAPER_SCALE,
        ..CostModelConfig::default()
    }
}

/// Cluster configuration used by the experiments: the paper's topology
/// knobs with fault injection off and a generous memory budget (individual
/// experiments override memory to study pressure).
pub fn experiment_cluster_config(executors: usize, cores: usize) -> ClusterConfig {
    ClusterConfig {
        num_executors: executors,
        cores_per_executor: cores,
        memory_per_executor: 32 << 30, // the paper's 32 GB executors
        max_task_attempts: 4,
        fault: FaultConfig::disabled(),
        cost: paper_cost(),
    }
}

/// Labelled [`JobReport`] snapshots captured while an experiment ran.
fn captured_reports() -> &'static Mutex<Vec<(String, JobReport)>> {
    static REPORTS: OnceLock<Mutex<Vec<(String, JobReport)>>> = OnceLock::new();
    REPORTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot the cluster's journal as a labelled [`JobReport`]. Experiments
/// call this at each measurement point (typically right before
/// `reset_run_state`, which clears the journal); the snapshots accumulate
/// until [`write_captured_reports`] drains them.
pub fn capture_run(label: impl Into<String>, cluster: &Cluster) {
    let report = cluster.job_report();
    captured_reports()
        .lock()
        .expect("report capture lock")
        .push((label.into(), report));
}

/// The `--report <path>` argument, if the binary was given one.
pub fn report_path_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--report" {
            return args.next();
        }
        if let Some(path) = a.strip_prefix("--report=") {
            return Some(path.to_string());
        }
    }
    None
}

/// Drain the captured reports into a schema-stable JSON file:
/// `{"schema_version": 1, "runs": [{"label": ..., "report": {...}}]}`.
pub fn write_captured_reports(path: &str) -> std::io::Result<()> {
    let runs = std::mem::take(&mut *captured_reports().lock().expect("report capture lock"));
    let mut out = String::from("{\"schema_version\":1,\"runs\":[");
    for (i, (label, report)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        out.push_str(&sparklet::json_string(label));
        out.push_str(",\"report\":");
        out.push_str(&report.to_json());
        out.push('}');
    }
    out.push_str("]}");
    std::fs::write(path, out)
}

/// If the binary was invoked with `--report <path>`, write the captured
/// job reports there and tell the user. Call at the end of `main`.
pub fn maybe_write_report() {
    if let Some(path) = report_path_from_args() {
        match write_captured_reports(&path) {
            Ok(()) => println!("\njob report written to {path}"),
            Err(e) => eprintln!("failed to write job report to {path}: {e}"),
        }
    }
}

/// One named acceptance gate: a measured `value` compared against a
/// `threshold`. Every `BENCH_*.json` renders its gates through
/// [`gates_json`], so downstream tooling reads one shape everywhere:
/// `"gates": {"<name>": {"threshold": T, "value": V, "passed": bool}}`.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate name (the JSON key).
    pub name: String,
    /// The acceptance bar.
    pub threshold: f64,
    /// The measured value.
    pub value: f64,
    /// `true` when passing means `value >= threshold`, `false` when it
    /// means `value <= threshold`.
    pub higher_is_better: bool,
}

impl Gate {
    /// Gate that passes when `value >= threshold`.
    pub fn at_least(name: impl Into<String>, threshold: f64, value: f64) -> Self {
        Gate {
            name: name.into(),
            threshold,
            value,
            higher_is_better: true,
        }
    }

    /// Gate that passes when `value <= threshold`.
    pub fn at_most(name: impl Into<String>, threshold: f64, value: f64) -> Self {
        Gate {
            name: name.into(),
            threshold,
            value,
            higher_is_better: false,
        }
    }

    /// Boolean invariant as a gate: holds (value 1) or violated (value 0)
    /// against a threshold of 1.
    pub fn holds(name: impl Into<String>, ok: bool) -> Self {
        Gate::at_least(name, 1.0, if ok { 1.0 } else { 0.0 })
    }

    /// Did the measured value clear the bar?
    pub fn passed(&self) -> bool {
        if self.higher_is_better {
            self.value >= self.threshold
        } else {
            self.value <= self.threshold
        }
    }
}

/// Render the canonical top-level `"gates"` object (no leading indent; the
/// caller embeds it after two spaces inside the document braces).
pub fn gates_json(gates: &[Gate]) -> String {
    let mut out = String::from("\"gates\": {\n");
    for (i, g) in gates.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"threshold\": {:.2}, \"value\": {:.4}, \"passed\": {}}}{}\n",
            g.name,
            g.threshold,
            g.value,
            g.passed(),
            if i + 1 < gates.len() { "," } else { "" }
        ));
    }
    out.push_str("  }");
    out
}

/// Do all gates pass? (Vacuously true for an empty list.)
pub fn gates_all_passed(gates: &[Gate]) -> bool {
    gates.iter().all(Gate::passed)
}

/// One `gate: ...` summary line per gate for stderr, plus the verdict.
pub fn gates_summary(gates: &[Gate]) -> String {
    let mut out = String::new();
    for g in gates {
        out.push_str(&format!(
            "gate {}: value {:.4} vs threshold {:.2} ({}) -> {}\n",
            g.name,
            g.value,
            g.threshold,
            if g.higher_is_better { ">=" } else { "<=" },
            if g.passed() { "pass" } else { "FAIL" }
        ));
    }
    out.push_str(if gates_all_passed(gates) {
        "gates: PASSED"
    } else {
        "gates: FAILED"
    });
    out
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a count with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut r = ExperimentResult::new("Figure X", "goes up", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        r.note("it went up");
        let s = r.to_string();
        assert!(s.contains("### Figure X"));
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2 |"));
        assert!(s.contains("*Measured:* it went up"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut r = ExperimentResult::new("x", "y", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1000), "1,000");
        assert_eq!(count(1234567), "1,234,567");
    }

    #[test]
    fn paper_cost_scales_ops() {
        let c = paper_cost();
        assert_eq!(c.op_ns, 400 * PAPER_SCALE);
    }

    #[test]
    fn gates_render_canonically_and_aggregate() {
        let gates = [
            Gate::at_least("speedup", 2.0, 3.875),
            Gate::at_most("p99_ratio", 1.0, 0.52),
            Gate::holds("digest_match", true),
        ];
        assert!(gates_all_passed(&gates));
        let doc = gates_json(&gates);
        assert!(doc.starts_with("\"gates\": {\n"), "{doc}");
        assert!(
            doc.contains(
                "\"speedup\": {\"threshold\": 2.00, \"value\": 3.8750, \"passed\": true},"
            ),
            "{doc}"
        );
        assert!(
            doc.contains(
                "\"p99_ratio\": {\"threshold\": 1.00, \"value\": 0.5200, \"passed\": true},"
            ),
            "{doc}"
        );
        assert!(
            doc.contains(
                "\"digest_match\": {\"threshold\": 1.00, \"value\": 1.0000, \"passed\": true}\n"
            ),
            "{doc}"
        );
        assert!(doc.ends_with("  }"), "{doc}");

        let failing = [Gate::at_least("speedup", 2.0, 1.5)];
        assert!(!gates_all_passed(&failing));
        assert!(gates_json(&failing).contains("\"passed\": false"));
        assert!(gates_summary(&failing).contains("gates: FAILED"));
        assert!(gates_all_passed(&[]), "no gates, nothing to fail");
    }

    #[test]
    fn captured_reports_round_trip_to_schema_stable_json() {
        let cluster = Cluster::local(2);
        let n = cluster
            .parallelize((0..100u64).collect(), 4)
            .count()
            .expect("count");
        assert_eq!(n, 100);
        capture_run("harness \"smoke\" run", &cluster);
        let dir =
            std::env::temp_dir().join(format!("bench_harness_report_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("report.json");
        write_captured_reports(path.to_str().expect("utf8 path")).expect("write");
        let doc = std::fs::read_to_string(&path).expect("read back");
        assert!(doc.starts_with("{\"schema_version\":1,\"runs\":["), "{doc}");
        assert!(
            doc.contains("\"label\":\"harness \\\"smoke\\\" run\""),
            "{doc}"
        );
        assert!(doc.contains("\"stages\": ["), "{doc}");
        assert!(doc.contains("\"totals\": {"), "{doc}");
        // No drain-emptiness assertion here: the capture buffer is global
        // and other experiment tests append to it concurrently.
        let _ = std::fs::remove_dir_all(&dir);
    }
}
