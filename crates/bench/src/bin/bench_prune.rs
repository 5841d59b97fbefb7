//! Bound-driven pruning benchmark: the classification stage with the
//! lossless pruning engine on vs off, written to `BENCH_prune.json`, with
//! both sides' job reports in `BENCH_prune_report.json`.
//!
//! One skewed radial-cluster workload (see [`bench::prune`]) through the
//! identical fit + classify pipeline at the same worker count; the off side
//! classifies over the same partition stripped of its pruning metadata
//! ([`fastknn::FastKnn::from_partition`]). Gated on the pruned side:
//!
//! * **≥1.5×** classification-stage virtual speedup (off/on makespan);
//! * **≥50%** of would-be pair-distance evaluations avoided.
//!
//! Losslessness is asserted before anything is reported: the two sides'
//! classifications must be identical.
//!
//! Usage: `cargo run --release -p bench --bin bench_prune [--quick] [out.json]`
//!
//! `--quick` shrinks the workload for CI smoke runs; the gate applies in
//! both modes — the saving is a property of the bounds, not of scale.

use bench::prune::{prune_to_json, skewed_workload, PruneComparison};

const WORKERS: usize = 8;
const SPEEDUP_GATE: f64 = 1.5;
const AVOIDED_GATE: f64 = 0.5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_prune.json".to_string());
    let report_path = format!("{}_report.json", out_path.trim_end_matches(".json"));

    let (n_neg, n_pos, n_test, cells) = if quick {
        (3_500, 40, 450, 6)
    } else {
        (6_000, 80, 900, 8)
    };
    eprintln!(
        "classification over {n_neg} negatives / {n_pos} positives, {n_test} tests, \
         {cells} cells, {WORKERS} workers, prune on vs off…"
    );

    let w = skewed_workload(n_neg, n_pos, n_test, cells, 2016);
    let cmp = PruneComparison::run(&w, WORKERS);
    eprintln!(
        "  off {:>9} us, {} evals   on {:>9} us, {} evals \
         ({:.2}x, {:.1}% avoided, {} cells skipped, {} bound-rejected)",
        cmp.off.classify_us,
        cmp.off.evals,
        cmp.on.classify_us,
        cmp.on.evals,
        cmp.speedup(),
        cmp.avoided_fraction() * 100.0,
        cmp.on.prune.cells_skipped,
        cmp.on.prune.bound_rejected,
    );

    let doc = prune_to_json(WORKERS, &cmp, SPEEDUP_GATE, AVOIDED_GATE);
    std::fs::write(&out_path, &doc).expect("write BENCH_prune.json");
    std::fs::write(
        &report_path,
        format!(
            "{{\"on\": {}, \"off\": {}}}\n",
            cmp.on.report_json.trim_end(),
            cmp.off.report_json.trim_end()
        ),
    )
    .expect("write prune report artifact");
    eprintln!("wrote {out_path} and {report_path}");

    let mut failed = false;
    if cmp.speedup() < SPEEDUP_GATE {
        eprintln!(
            "FAILED: classification speedup {:.2}x below the {SPEEDUP_GATE}x acceptance bar",
            cmp.speedup()
        );
        failed = true;
    }
    if cmp.avoided_fraction() < AVOIDED_GATE {
        eprintln!(
            "FAILED: avoided fraction {:.1}% below the {:.0}% acceptance bar",
            cmp.avoided_fraction() * 100.0,
            AVOIDED_GATE * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
