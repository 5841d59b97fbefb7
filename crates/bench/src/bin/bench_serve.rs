//! Serving benchmark: adaptive micro-batched duplicate lookups and signal
//! queries under open-loop load, written to `BENCH_serve.json`, with the
//! batched leg's job report in `BENCH_serve_report.json`.
//!
//! Four measurements over one bootstrapped corpus (see [`bench::serve`]):
//!
//! * **batched leg** — a saturating Poisson stream through the
//!   batch-or-deadline admission queue;
//! * **same-seed rerun** — a freshly built system must reproduce the
//!   batched leg's answer digest bit-for-bit;
//! * **saturation knee** — the batched leg swept across arrival rates;
//! * **ROR inflation** — drug–event reporting odds ratios raw vs deduped.
//!
//! **Gates**: answer digests identical across same-seed reruns; the raw
//! co-mention cells strictly above the deduped ones.
//!
//! Usage: `cargo run --release -p bench --bin bench_serve [--quick] [out.json]`
//!
//! Default scale is a 2,400-report corpus and 2,000 requests from two
//! million simulated users; `--quick` drops to 700/400 for smoke runs. The
//! gates apply in both modes.

use bench::harness::{gates_all_passed, gates_summary};
use bench::serve::{
    knee_sweep, resolve_requests, ror_inflation, run_leg, serve_gates, serve_to_json, ServeWorkload,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let w = if quick {
        ServeWorkload::quick()
    } else {
        ServeWorkload::full()
    };
    eprintln!(
        "serving {} requests ({}‰ signal) from {} users against {} reports, \
         mean gap {} us, {} executors…",
        w.requests, w.signal_per_mille, w.users, w.num_reports, w.mean_interarrival_us, w.executors
    );

    let (sys, ds) = w.build_system();
    let requests = resolve_requests(&w.load(), &ds);

    eprintln!("  batched leg (batch-or-deadline admission)…");
    let batched = run_leg(&sys, &requests);
    let report_json = sys.job_report().to_json();
    eprintln!(
        "    {} batches, p50 {} us, p99 {} us, {:.0} req/s, digest {:#018x}",
        batched.batches,
        batched.p50_us(),
        batched.p99_us(),
        batched.throughput_rps(),
        batched.digest
    );

    eprintln!("  same-seed rerun (fresh corpus + system + service)…");
    let (sys2, ds2) = w.build_system();
    let rerun = run_leg(&sys2, &resolve_requests(&w.load(), &ds2));
    eprintln!("    digest {:#018x}", rerun.digest);

    // Span both sides of the capacity knee: the low rates are served at
    // the offered rate with deadline-bounded latency, the high rates pin
    // throughput at the service capacity while p99 departs.
    let gaps: &[u64] = if quick {
        &[100_000, 10_000, 40]
    } else {
        &[200_000, 100_000, 50_000, 12_500, 1_600, 200, 40]
    };
    eprintln!("  saturation knee (batched leg across arrival rates)…");
    let knee = knee_sweep(&w, &sys, &ds, gaps);
    for k in &knee {
        eprintln!(
            "    gap {:>5} us: offered {:>8.0} req/s, sustained {:>8.0} req/s, \
             p50 {:>7} us, p99 {:>8} us",
            k.mean_interarrival_us, k.offered_rps, k.throughput_rps, k.p50_us, k.p99_us
        );
    }

    eprintln!("  ROR-inflation table (raw vs deduplicated store)…");
    let ror = ror_inflation(&sys, &ds, 10);
    for r in &ror {
        eprintln!(
            "    {:<14} x {:<16} raw a={:>3} ROR {:>7.3}   dedup a={:>3} ROR {:>7.3}",
            r.drug, r.event, r.raw.a, r.raw.ror, r.deduped.a, r.deduped.ror
        );
    }

    let doc = serve_to_json(&w, &batched, &rerun, &knee, &ror);
    std::fs::write(&out_path, &doc).expect("write BENCH_serve.json");
    let report_path = format!(
        "{}_report.json",
        out_path.strip_suffix(".json").unwrap_or(&out_path)
    );
    std::fs::write(
        &report_path,
        format!("{{\"batched\": {}}}\n", report_json.trim_end()),
    )
    .expect("write job-report artifact");
    eprintln!("wrote {out_path} and {report_path}");

    let gates = serve_gates(&batched, &rerun, &ror);
    eprintln!("{}", gates_summary(&gates));
    if !gates_all_passed(&gates) {
        std::process::exit(1);
    }
}
