//! Out-of-core execution benchmark: a multi-million-report blocking +
//! pairwise run, capped vs uncapped, written to `BENCH_spill.json`.
//!
//! Two legs over the same streamed corpus (see [`bench::spill`]):
//!
//! * **uncapped** — the in-memory baseline (no spill traffic allowed);
//! * **capped** — executor memory ~3× below the shuffle's resident needs;
//!   the run must complete by spilling, with the same digest.
//!
//! **Gate**: the capped leg completes with nonzero spill traffic both ways,
//! and the capped and uncapped digests are bit-identical.
//!
//! Usage: `cargo run --release -p bench --bin bench_spill [--quick] [out.json]`
//!
//! Default scale is 10M reports (~1000× the paper's TGA corpus) under a
//! 64 MiB executor cap; `--quick` drops to 400k reports for smoke runs.
//! The gate applies in both modes — out-of-core correctness is a property
//! of the execution, not of scale.

use bench::harness::{gates_all_passed, gates_summary};
use bench::spill::{run_blocking_pairwise, spill_gates, spill_to_json, SpillWorkload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_spill.json".to_string());

    let w = if quick {
        SpillWorkload::quick()
    } else {
        SpillWorkload::full()
    };
    eprintln!(
        "blocking + pairwise over {} streamed reports ({} arriving), {} executors, \
         {} partitions…",
        w.num_reports, w.arriving, w.executors, w.partitions
    );

    eprintln!(
        "  uncapped baseline ({} MiB/executor)…",
        w.uncapped_memory >> 20
    );
    let uncapped = run_blocking_pairwise(&w, w.uncapped_memory).expect("uncapped run");
    eprintln!(
        "    {} pairs, {} near-duplicates, makespan {} us, {} bytes spilled",
        uncapped.pairs_compared,
        uncapped.near_duplicates,
        uncapped.makespan_us,
        uncapped.bytes_spilled
    );

    eprintln!("  capped + spill ({} MiB/executor)…", w.capped_memory >> 20);
    let capped = run_blocking_pairwise(&w, w.capped_memory).expect("capped run");
    eprintln!(
        "    {} pairs, makespan {} us, {} MiB spilled / {} MiB read back, peak resident {} MiB",
        capped.pairs_compared,
        capped.makespan_us,
        capped.bytes_spilled >> 20,
        capped.bytes_read_back >> 20,
        capped.peak_resident_max >> 20
    );

    let doc = spill_to_json(&w, &uncapped, &capped);
    std::fs::write(&out_path, &doc).expect("write BENCH_spill.json");
    eprintln!("wrote {out_path}");

    let gates = spill_gates(&uncapped, &capped);
    eprintln!("{}", gates_summary(&gates));
    if !gates_all_passed(&gates) {
        std::process::exit(1);
    }
}
