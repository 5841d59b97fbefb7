//! The one command. Three shapes:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one workload in
//!   this process; the last stdout line is the result object of the
//!   benchmark contract (see `BENCHMARK.json`).
//! * no `--workload` — every workload, each in a child process of its own
//!   (so `peak_rss_mb` is per workload), `--repeat` times on consecutive
//!   seeds; prints every metric by name and writes the result file.
//! * `compare A.json B.json` — see [`crate::compare`].

use crate::common::{engine_threads, nproc, Ctx, Report, Scale};
use crate::json::Json;
use crate::metrics::{validate_vocabulary, END_TO_END, WORKLOADS};
use crate::stats::Summary;
use crate::{compare, workloads};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Measured seconds when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` repeats it.
pub const DEFAULT_SECONDS: f64 = 12.0;
pub const DEFAULT_SEED: u64 = 2016;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub repeat: usize,
    /// Child mode: where to write this run's detail object.
    pub detail: Option<PathBuf>,
    /// Result file of an all-workloads run.
    pub out: PathBuf,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            scale: Scale::FULL,
            repeat: 1,
            detail: None,
            out: PathBuf::from("benchmark/results/latest.json"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let w = value("a workload name")?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                    }
                    out.workload = Some(w);
                }
                "--seed" => {
                    out.seed = value("a number")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number".to_string())?;
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|_| "--seconds needs a number".to_string())?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                    out.seconds = s;
                }
                "--trace" => {
                    out.traced = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--traced" => out.traced = true,
                "--scale" => {
                    let name = value("tiny or full")?;
                    out.scale =
                        Scale::by_name(&name).ok_or_else(|| format!("unknown scale {name:?}"))?;
                }
                "--repeat" => {
                    out.repeat = value("a count")?
                        .parse()
                        .ok()
                        .filter(|n| (1..=64).contains(n))
                        .ok_or("--repeat needs a count from 1 to 64")?;
                }
                "--detail" => out.detail = Some(PathBuf::from(value("a path")?)),
                "--out" => out.out = PathBuf::from(value("a path")?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }
}

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--scale full|tiny] [--repeat N] [--out FILE]\n       \
benchmark/run.sh compare A.json B.json";

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    if let Err(e) = validate_vocabulary() {
        eprintln!("benchmark vocabulary is malformed: {e}");
        return 2;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        };
    }
    let parsed = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    match &parsed.workload {
        Some(w) => run_one(w, &parsed),
        None => run_all(&parsed),
    }
}

/// Scratch space beside the executable: inside the checkout's build
/// directory, which `.gitignore` already names.
fn work_dir() -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    base.join(format!("bench-work-{}", std::process::id()))
}

/// The detail object of one run: everything the result file keeps.
pub fn detail_json(workload: &str, args: &Args, report: &Report) -> Json {
    let summary = |s: &Summary| {
        Json::obj([
            ("n", Json::Num(s.n as f64)),
            ("min", Json::Num(s.min)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("max", Json::Num(s.max)),
        ])
    };
    let mut fields = vec![
        ("workload".to_string(), Json::str(workload)),
        ("traced".into(), Json::Bool(args.traced)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("run_seconds".into(), Json::Num(report.run_seconds())),
        ("correct".into(), Json::Bool(report.correct())),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        (
            "failures".into(),
            Json::Arr(report.failures.iter().map(Json::str).collect()),
        ),
        ("metrics".into(), report.metrics.to_json()),
        (
            "aliases".into(),
            Json::Obj(
                report
                    .aliases
                    .iter()
                    .map(|(n, u, v)| {
                        let cell = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*u))]);
                        (n.to_string(), cell)
                    })
                    .collect(),
            ),
        ),
        (
            "samples".into(),
            Json::Obj(
                report
                    .samples
                    .iter()
                    .map(|(n, s)| (n.clone(), summary(s)))
                    .collect(),
            ),
        ),
        ("facts".into(), Json::Obj(report.facts.clone())),
    ];
    if let Some(trace) = &report.trace {
        let spans = trace
            .aggregate()
            .into_iter()
            .map(|(name, calls, total_ms, self_ms)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("calls", Json::Num(calls as f64)),
                    ("total_ms", Json::Num(total_ms)),
                    ("self_ms", Json::Num(self_ms)),
                ])
            })
            .collect();
        fields.push(("spans".into(), Json::Arr(spans)));
    }
    Json::Obj(fields)
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_json(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", report.metrics.to_json()),
    ])
}

fn print_metrics(workload: &str, report: &Report) {
    for (def, value) in report.metrics.rows() {
        println!("{workload:<14} {:<30} {value:>16.4} {}", def.name, def.unit);
    }
    for (name, unit, value) in &report.aliases {
        println!(
            "{workload:<14} {:<30} {value:>16.4} {unit}",
            format!("= {name}")
        );
    }
    for f in &report.failures {
        println!("{workload:<14} CHECK FAILED: {f}");
    }
}

fn run_one(workload: &str, args: &Args) -> i32 {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        threads: engine_threads(),
        work_dir: work_dir(),
    };
    let report = workloads::run(workload, &ctx, args.traced).expect("workload name was checked");
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if !args.traced {
        let missing = report.metrics.missing();
        if !missing.is_empty() && report.correct() {
            eprintln!("{workload} did not report {missing:?}");
            return 3;
        }
    }
    if let Some(path) = &args.detail {
        if let Err(e) = std::fs::write(path, detail_json(workload, args, &report).pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return 3;
        }
    }
    print_metrics(workload, &report);
    println!("{}", contract_json(&report).compact());
    if report.correct() {
        0
    } else {
        1
    }
}

/// Run one workload in a child process and read its detail object back.
fn run_child(
    workload: &str,
    args: &Args,
    seed: u64,
    traced: bool,
    dir: &Path,
) -> Result<Json, String> {
    let detail = dir.join(format!("{workload}-{seed}-{}.json", u8::from(traced)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--scale", args.scale.name])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("{workload} (exit {status}) left no detail file: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{workload} wrote malformed detail: {e}"))
}

fn run_all(args: &Args) -> i32 {
    let dir = work_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return 3;
    }
    let seeds: Vec<u64> = (0..args.repeat as u64).map(|i| args.seed + i).collect();
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        let mut traced_runs = Vec::new();
        for &seed in &seeds {
            for traced in [false, true] {
                if traced && !args.traced {
                    continue;
                }
                println!(
                    "--- {workload} seed {seed}{}",
                    if traced { " (traced)" } else { "" }
                );
                match run_child(workload, args, seed, traced, &dir) {
                    Ok(detail) => {
                        all_correct &= detail.get("correct") == Some(&Json::Bool(true));
                        if traced {
                            traced_runs.push(detail);
                        } else {
                            runs.push(detail);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        all_correct = false;
                    }
                }
            }
        }
        per_workload.push((
            workload.to_string(),
            Json::obj([
                ("runs", Json::Arr(runs)),
                ("traced_runs", Json::Arr(traced_runs)),
            ]),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        (
            "git_revision",
            Json::str(std::env::var("ADR_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into())),
        ),
        ("scale", Json::str(args.scale.name)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("engine_threads", Json::Num(engine_threads() as f64)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        ("workloads", Json::Obj(per_workload)),
    ]);
    if seeds.len() > 1 {
        print_spreads(&doc);
    }
    if let Some(parent) = args.out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&args.out, doc.pretty()) {
        Ok(()) => println!("wrote {}", args.out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.out.display());
            return 3;
        }
    }
    if all_correct {
        println!("all correctness checks passed");
        0
    } else {
        println!("CORRECTNESS CHECKS FAILED");
        1
    }
}

/// Across-run spread of every end-to-end metric: interquartile range over
/// median, the quantity the metric's bound is held against.
fn print_spreads(doc: &Json) {
    println!("\nspread over runs (IQR / median):");
    for workload in WORKLOADS {
        for def in END_TO_END {
            let values = compare::metric_values(doc, workload, "runs", def.name);
            let s = Summary::of(&values);
            println!(
                "{workload:<14} {:<18} n={:<3} median {:>14.4} {:<4} spread {:>6.2}%",
                def.name,
                s.n,
                s.median,
                def.unit,
                100.0 * s.spread()
            );
        }
    }
}
