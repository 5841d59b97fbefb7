//! Run every experiment and rewrite `EXPERIMENTS.md` at the workspace root.
//!
//! `--quick` runs the smoke-scale variants (used in CI); the default runs
//! the paper-scale (÷50) configuration and takes a few minutes.
//! `--report <path>` writes the captured sparklet job reports as JSON.
//! `--check` regenerates in memory, compares with the checked-in
//! `EXPERIMENTS.md` (the `Generated in …` footer line aside), writes nothing
//! and exits non-zero on drift — the CI proof that a change moved no
//! virtual minute.

use std::fmt::Write as _;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // bench lives at <root>/crates/bench.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

/// `doc` without its wall-clock footer, the one line that differs between
/// two runs of the same code.
fn without_footer(doc: &str) -> Vec<&str> {
    doc.lines()
        .filter(|l| !l.starts_with("Generated in "))
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let started = std::time::Instant::now();
    let results = bench::experiments::run_all(quick);

    let mut doc = String::new();
    writeln!(doc, "# EXPERIMENTS — paper vs measured").unwrap();
    writeln!(doc).unwrap();
    writeln!(
        doc,
        "Reproduction of every table and figure in the evaluation (§5) of \
         Wang & Karimi, *\"Parallel Duplicate Detection in Adverse Drug Reaction \
         Databases with Spark\"*, EDBT 2016. Regenerate with \
         `cargo run -p bench --release --bin exp_all`."
    )
    .unwrap();
    writeln!(doc).unwrap();
    writeln!(
        doc,
        "**Scaling.** The paper's pair volumes (1M–5M training pairs, 10k–205k \
         test pairs, 14-node Spark cluster) are scaled to one machine: \
         training ÷5 (preserving the label imbalance the results hinge on), \
         tests ÷10; execution times are **virtual minutes** from sparklet's \
         cost model (per-comparison cost scaled ×{} so magnitudes land near \
         paper scale — see DESIGN.md for why wall-clock is meaningless on \
         this harness). Shapes — who wins, where knees and crossovers fall — \
         are the reproduction target, not absolute numbers.",
        bench::harness::PAPER_SCALE
    )
    .unwrap();
    writeln!(doc).unwrap();
    writeln!(
        doc,
        "**What a virtual minute counts.** Classification is charged one \
         operation per distance *evaluated*. Residents that the \
         triangle-inequality window rejects were never charged; since the \
         positives became one more windowed cell (DESIGN.md §13) neither are \
         the positives it rejects, where every test pair used to be charged \
         for every positive. The execution times of Figs. 6(b), 8(b), 9, \
         10(a) and 11 therefore read lower than in copies of this file \
         generated before that change; comparison *counts* (Fig. 7) and every \
         quality figure are unchanged."
    )
    .unwrap();
    if quick {
        writeln!(doc).unwrap();
        writeln!(
            doc,
            "> **NOTE: this file was generated with `--quick` (smoke scale).** \
             Run without `--quick` for the paper-scale tables."
        )
        .unwrap();
    }
    writeln!(doc).unwrap();
    for r in &results {
        write!(doc, "{r}").unwrap();
    }
    writeln!(
        doc,
        "---\n\nGenerated in {:.1}s ({} mode).",
        started.elapsed().as_secs_f64(),
        if quick { "quick" } else { "full" }
    )
    .unwrap();

    let path = workspace_root().join("EXPERIMENTS.md");
    if check {
        let on_disk = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
        let (old, new) = (without_footer(&on_disk), without_footer(&doc));
        if old == new {
            println!("{} is up to date", path.display());
            return;
        }
        match old.iter().zip(&new).position(|(a, b)| a != b) {
            Some(i) => eprintln!("line {}:\n- {}\n+ {}", i + 1, old[i], new[i]),
            None => eprintln!("{} lines checked in, {} regenerated", old.len(), new.len()),
        }
        eprintln!(
            "{} has drifted from what this code generates",
            path.display()
        );
        std::process::exit(1);
    }
    for r in &results {
        println!("{r}");
    }
    std::fs::write(&path, doc).expect("write EXPERIMENTS.md");
    println!("wrote {}", path.display());
    bench::harness::maybe_write_report();
}
