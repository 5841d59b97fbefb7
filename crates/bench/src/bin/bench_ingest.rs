//! Streaming-ingest benchmark: quarterly micro-batches through the durable
//! [`dedup::IngestService`], written to `BENCH_ingest.json`, with both
//! legs' job reports in `BENCH_ingest_report.json`.
//!
//! Two legs over the same replay schedule (see [`bench::ingest`]):
//!
//! * **steady** — every quarter committed uninterrupted; per-quarter
//!   commit latency, detections and checkpoint bytes;
//! * **kill + recover** — a driver kill armed midway, then a recovery open
//!   that finishes the run from the checkpoint directory.
//!
//! **Gates**: the last detect quarter commits within 2× the first detect
//! quarter's latency, the recovered leg's cumulative digest is
//! bit-identical to the steady leg's, and the steady leg's checkpoint
//! bytes stay under 0.6 of a whole store per commit.
//!
//! Usage: `cargo run --release -p bench --bin bench_ingest [--quick] [out.json]`
//!
//! Default scale is 16 quarters × 300 reports; `--quick` drops to
//! 8 × 150 for smoke runs. The gate applies in both modes.

use bench::ingest::{
    commit_bytes_share, ingest_to_json, latency_ratio, run_killed_and_recovered, run_steady,
    IngestWorkload,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_ingest.json".to_string());

    let w = if quick {
        IngestWorkload::quick()
    } else {
        IngestWorkload::full()
    };
    let quarters = w.replay().quarters();
    eprintln!(
        "streaming ingest over {} reports in {} quarters of {}, {} executors…",
        w.num_reports, quarters, w.quarter_size, w.executors
    );

    eprintln!("  steady leg (uninterrupted)…");
    let steady = run_steady(&w).expect("steady run");
    for r in &steady.rows {
        eprintln!(
            "    quarter {:>2}: {:>4} reports, {:>5} detections, latency {:>9} us, \
             checkpoint {:>6} B",
            r.batch, r.reports, r.detections, r.latency_us, r.checkpoint_bytes
        );
    }
    if let Some((first, last, ratio)) = latency_ratio(&steady.rows) {
        eprintln!("    first detect quarter {first} us, last {last} us (ratio {ratio:.2})");
    }

    let kill_point = steady.driver_points / 2;
    eprintln!("  kill + recover leg (driver kill at fault point {kill_point})…");
    let recovered = run_killed_and_recovered(&w, kill_point).expect("kill + recover run");
    eprintln!(
        "    recovered digest {:#018x} ({} recovery), steady digest {:#018x}",
        recovered.digest, recovered.recoveries, steady.digest
    );

    let doc = ingest_to_json(&w, &steady, &recovered);
    std::fs::write(&out_path, &doc).expect("write BENCH_ingest.json");
    let report_path = format!(
        "{}_report.json",
        out_path.strip_suffix(".json").unwrap_or(&out_path)
    );
    std::fs::write(
        &report_path,
        format!(
            "{{\"steady\": {}, \"recovered\": {}}}\n",
            steady.report_json.trim_end(),
            recovered.report_json.trim_end()
        ),
    )
    .expect("write job-report artifact");
    eprintln!("wrote {out_path} and {report_path}");

    let passed = !doc.contains("\"passed\": false");
    eprintln!(
        "gates: digest_match={} latency_ratio={} commit_bytes_share={:.2} -> {}",
        recovered.digest == steady.digest,
        latency_ratio(&steady.rows)
            .map(|(_, _, r)| format!("{r:.2}"))
            .unwrap_or_else(|| "n/a".into()),
        commit_bytes_share(&steady),
        if passed { "PASSED" } else { "FAILED" }
    );
    if !passed {
        std::process::exit(1);
    }
}
