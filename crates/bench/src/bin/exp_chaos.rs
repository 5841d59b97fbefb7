//! Chaos sweep: rerun the dedup pipeline under executor-kill schedules and
//! task-fault seeds, asserting the output digest never drifts from the
//! fault-free run. `--quick` for a smoke run, `--seed N` (repeatable) to
//! choose the task-fault seeds, `--report <path>` to dump the recovery job
//! reports as JSON. Exits nonzero if any schedule changes the output.

fn main() {
    let mut quick = false;
    let mut seeds: Vec<u64> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                seeds.push(v.parse().expect("--seed must be a u64"));
            }
            other => {
                if let Some(v) = other.strip_prefix("--seed=") {
                    seeds.push(v.parse().expect("--seed must be a u64"));
                }
            }
        }
    }
    if seeds.is_empty() {
        seeds = vec![11, 22, 33];
    }
    let (results, identical) = bench::experiments::chaos::run_seeded(quick, &seeds);
    for result in results {
        println!("{result}");
    }
    bench::harness::maybe_write_report();
    if !identical {
        eprintln!("chaos: detection output drifted under a failure schedule");
        std::process::exit(1);
    }
}
