//! Self-tests at `--scale tiny`: every workload runs both halves, every
//! named metric comes out exactly once with a unit, the result object is
//! the contract's shape, and `BENCHMARK.json` says what the code says.

use adr_benchmark::cli::{contract_json, detail_json, Args, DEFAULT_SECONDS};
use adr_benchmark::common::{engine_threads, Ctx, Report, Scale};
use adr_benchmark::json::Json;
use adr_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use adr_benchmark::workloads;
use std::path::PathBuf;
use std::process::Command;

fn ctx(tag: &str) -> Ctx {
    static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ctx {
        seed: 5,
        seconds: 0.3,
        scale: Scale::TINY,
        threads: engine_threads(),
        // One directory per run: cargo runs tests on parallel threads.
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("bench-work-{tag}-{run}-{}", std::process::id())),
    }
}

fn run(workload: &str, traced: bool) -> Report {
    let ctx = ctx(&format!("{workload}-{traced}"));
    let report = workloads::run(workload, &ctx, traced).expect("known workload");
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    assert!(
        report.correct(),
        "{workload} (traced: {traced}) failed its checks: {:?}",
        report.failures
    );
    assert_eq!(report.failed, 0, "{workload}: failed operations");
    assert!(report.attempted >= 1);
    // Optimised builds only: a debug build is an order of magnitude slower.
    if !cfg!(debug_assertions) {
        assert!(
            report.run_seconds() < 2.0,
            "{workload} (traced: {traced}) took {:.2} s at tiny scale",
            report.run_seconds()
        );
    }
    report
}

/// The metrics object must name every metric of `defs` exactly once, each
/// with its unit and a finite value, and nothing else.
fn assert_metrics_shape(doc: &Json, defs: &[MetricDef]) {
    let fields = doc.as_obj().expect("metrics is an object");
    assert_eq!(fields.len(), defs.len(), "one entry per metric");
    for def in defs {
        let hits: Vec<_> = fields.iter().filter(|(k, _)| k == def.name).collect();
        assert_eq!(hits.len(), 1, "{} emitted {} times", def.name, hits.len());
        let cell = &hits[0].1;
        assert_eq!(
            cell.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        let value = cell.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{}: {value:?}", def.name);
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report.metrics.get(name).unwrap_or(0.0)
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_never_zero() {
    for workload in WORKLOADS {
        let report = run(workload, false);
        assert!(report.metrics.missing().is_empty(), "{workload}");
        for def in END_TO_END {
            assert!(
                value(&report, def.name) > 0.0,
                "{workload}: {} is 0",
                def.name
            );
        }
        let tail = report.aliases.iter().find(|(n, _, _)| *n == "op_tail_ms");
        assert!(tail.is_some_and(|(_, _, v)| *v >= value(&report, "op_p50_ms")));

        // The contract's result object, through text and back.
        let text = contract_json(&report).compact();
        assert!(!text.contains('\n'));
        let doc = Json::parse(&text).expect("result object parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_metrics_shape(doc.get("metrics").unwrap(), &END_TO_END);

        // The detail object keeps sample counts and quartiles per timing.
        let args = Args::parse(&[]).unwrap();
        let detail = Json::parse(&detail_json(workload, &args, &report).pretty()).unwrap();
        let op = detail
            .get("samples")
            .and_then(|s| s.get("op_ms"))
            .expect("op_ms summary");
        for key in ["n", "q1", "median", "q3"] {
            assert!(
                op.get(key).and_then(Json::as_f64).is_some(),
                "{workload}: {key}"
            );
        }
        assert!(
            !report.aliases.is_empty(),
            "{workload}: operation-specific names"
        );
    }
}

/// Layer metrics each workload's traced half must fill (its own layers)
/// and must leave at 0 (the layers it bypasses).
const APPLICABLE: [(&str, &[&str], &[&str]); 5] = [
    (
        "bulk-detect",
        &[
            "textprep.wall_ms",
            "textprep.tokens",
            "blocking.candidates_wall_ms",
            "blocking.pairs_out",
            "blocking.recall",
            "blocking.reduction",
            "pairing.pack_wall_ms",
            "pairing.distance_wall_ms",
            "pairing.ns_per_pair",
            "fastknn.fit_wall_ms",
            "fastknn.classify_wall_ms",
            "fastknn.ns_per_test_pair",
            "fastknn.evals_done",
            "store.training_pairs_wall_ms",
            "store.feedback_wall_ms",
            "store.snapshot_bytes",
            "sparklet.jobs",
            "sparklet.tasks",
            "sparklet.virtual_us",
            "sparklet.virtual_over_wall",
            "sparklet.empty_job_wall_us",
            "sparklet.speedup_vs_1",
            "system.detect_wall_ms",
            "system.self_wall_ms",
            "system.detect_aupr",
        ],
        &[
            "ingest.first10_commit_ms",
            "serve.attach_wall_ms",
            "serve.dup_call_us_p50",
        ],
    ),
    (
        "cold-load",
        &[
            "textprep.wall_ms",
            "textprep.us_per_report",
            "textprep.reports",
            "blocking.insert_wall_ms",
            "blocking.blocks",
            "pairing.distance_wall_ms",
            "store.feedback_wall_ms",
            "store.duplicates",
            "store.non_duplicates",
            "system.self_wall_ms",
        ],
        &[
            "fastknn.classify_wall_ms",
            "fastknn.fit_wall_ms",
            "blocking.candidates_wall_ms",
            "system.detect_wall_ms",
            "serve.refresh_wall_ms",
        ],
    ),
    (
        "stream-ingest",
        &[
            "textprep.wall_ms",
            "blocking.candidates_wall_ms",
            "fastknn.fit_wall_ms",
            "fastknn.classify_wall_ms",
            "store.feedback_wall_ms",
            "store.snapshot_wall_ms",
            "store.snapshot_bytes",
            "store.restore_wall_ms",
            "sparklet.jobs",
            "ingest.first10_commit_ms",
            "ingest.last10_commit_ms",
            "ingest.commit_p90_ms",
            "ingest.growth_ratio",
            "ingest.checkpoint_bytes",
            "ingest.recover_wall_ms",
            "system.detect_wall_ms",
        ],
        &[
            "serve.attach_wall_ms",
            "serve.sustained_rps",
            "sparklet.speedup_vs_1",
        ],
    ),
    (
        "serve-lookup",
        &[
            "serve.attach_wall_ms",
            "serve.dup_call_us_p50",
            "serve.signal_call_us_p50",
            "serve.first_decile_call_us",
            "serve.last_decile_call_us",
            "serve.drift_ratio",
            "serve.batches",
            "serve.mean_batch",
            "serve.lookup_p90_ms",
            "serve.p99_ms",
            "serve.virtual_p50_us",
            "serve.memo_hit_share",
            "sparklet.jobs",
            "sparklet.empty_job_wall_us",
            "bench.tail_percentile",
        ],
        &[
            "textprep.wall_ms",
            "pairing.distance_wall_ms",
            "fastknn.classify_wall_ms",
            "store.snapshot_wall_ms",
            "ingest.f1",
        ],
    ),
    (
        "serve-refresh",
        &[
            "serve.attach_wall_ms",
            "serve.refresh_wall_ms",
            "serve.batches",
            "serve.lookup_p90_ms",
            "serve.p99_ms",
            "fastknn.fit_wall_ms",
            "store.training_pairs_wall_ms",
            "store.duplicates",
            "sparklet.jobs",
        ],
        &[
            "textprep.wall_ms",
            "ingest.growth_ratio",
            "serve.sustained_rps",
        ],
    ),
];

#[test]
fn traced_halves_fill_their_own_layers_and_leave_bypassed_ones_at_zero() {
    for (workload, filled, bypassed) in APPLICABLE {
        let report = run(workload, true);
        assert_metrics_shape(&report.metrics.to_json(), &PER_LAYER);
        for name in filled {
            assert!(value(&report, name) > 0.0, "{workload}: {name} is 0");
        }
        for name in bypassed {
            assert_eq!(
                value(&report, name),
                0.0,
                "{workload}: {name} should be bypassed"
            );
        }
        assert_eq!(value(&report, "bench.failed_share"), 0.0);
        assert_eq!(value(&report, "sparklet.tasks_failed"), 0.0);
    }
}

#[test]
fn same_seed_gives_the_same_outputs() {
    let digest = |r: &Report| {
        r.facts
            .iter()
            .find(|(k, _)| k == "cumulative_digest")
            .map(|(_, v)| v.clone())
            .expect("stream-ingest records its digest")
    };
    assert_eq!(
        digest(&run("stream-ingest", false)),
        digest(&run("stream-ingest", false))
    );
}

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adr-benchmark"))
}

#[test]
fn the_command_ends_on_the_result_object() {
    let out = binary()
        .args([
            "--workload",
            "cold-load",
            "--seed",
            "11",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", "0", "--scale", "tiny"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("some output");
    let doc = Json::parse(last).expect("last line is the result object");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_metrics_shape(doc.get("metrics").unwrap(), &END_TO_END);
    // Every metric is also printed by name, with its unit.
    for def in END_TO_END {
        assert!(
            stdout
                .lines()
                .any(|l| l.contains(def.name) && l.ends_with(def.unit)),
            "{} not printed",
            def.name
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "no-such-workload"],
        vec!["--trace", "2"],
        vec!["--seconds", "0"],
        vec!["compare", "only-one.json"],
    ] {
        let out = binary().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}

#[test]
fn benchmark_json_repeats_the_vocabulary() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr),
        Some(&[Json::str("benchmark")][..])
    );

    let names = |key: &str| -> Vec<(String, Option<String>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let text = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
                (text("name").expect("a name"), text("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
        let why = w.get("why").and_then(Json::as_str).expect("a why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let vocabulary = |defs: &[MetricDef]| -> Vec<(String, Option<String>)> {
        defs.iter()
            .map(|d| (d.name.to_string(), Some(d.unit.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), vocabulary(&END_TO_END));
    assert_eq!(names("per_layer"), vocabulary(&PER_LAYER));
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        let better = m.get("better").and_then(Json::as_str);
        assert!(matches!(better, Some("higher" | "lower")));
    }
}
