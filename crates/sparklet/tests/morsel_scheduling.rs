//! Property-based guarantees for the morsel-driven scheduler: for any
//! partitioning and worker count — and under injected executor kills —
//! `run_morsel_job` must return bit-identical output in (partition, element)
//! order. Stealing and splitting are pure scheduling decisions; they may
//! move virtual time around but can never change a byte of the result. (The
//! cut itself is proptested at every budget next to `cut_morsels`.)

use proptest::prelude::*;
use sparklet::{Cluster, ClusterConfig, FaultConfig};

/// Reference result: what the job computes, independent of any scheduling.
fn reference(partitions: &[Vec<u32>]) -> Vec<Vec<u64>> {
    partitions
        .iter()
        .enumerate()
        .map(|(p, part)| part.iter().map(|&x| u64::from(x) * 3 + p as u64).collect())
        .collect()
}

/// Item weights up to ~1/8 of the morsel budget, so partitions of a few
/// dozen items split into several morsels.
fn run(
    partitions: Vec<Vec<u32>>,
    workers: usize,
    fault: FaultConfig,
) -> sparklet::Result<Vec<Vec<u64>>> {
    let mut config = ClusterConfig::local(workers);
    config.fault = fault;
    let cluster = Cluster::new(config);
    cluster.run_morsel_job(
        "morsel-prop",
        partitions,
        |&x| u64::from(x % 97) * 21 + 1,
        |p, items, ctx| {
            ctx.charge_ops(items.len() as u64);
            Ok(items.iter().map(|&x| u64::from(x) * 3 + p as u64).collect())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: any worker count reproduces the unscheduled
    /// single-pass-per-partition result exactly.
    #[test]
    fn morsel_output_is_bit_identical_to_static(
        partitions in prop::collection::vec(
            prop::collection::vec(0u32..10_000, 0..60), 0..10),
        workers in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let expect = reference(&partitions);
        let got = run(partitions, workers, FaultConfig::disabled()).unwrap();
        prop_assert_eq!(got, expect, "scheduling changed the output");
    }

    /// Same invariant under chaos: a mid-stage executor kill (lost wave
    /// results, rescheduled morsels, possibly a retried attempt) must leave
    /// the reassembled output untouched.
    #[test]
    fn morsel_output_survives_executor_kills(
        partitions in prop::collection::vec(
            prop::collection::vec(0u32..10_000, 1..40), 1..8),
        workers in prop::sample::select(vec![2usize, 8]),
        victim in 0usize..8,
        after in 0usize..6,
    ) {
        let expect = reference(&partitions);
        let fault = FaultConfig::disabled().kill_in_stage(
            victim % workers,
            "morsel-prop",
            after,
        );
        let got = run(partitions, workers, fault).unwrap();
        prop_assert_eq!(got, expect, "a kill changed the output");
    }
}

/// On a run split into hundreds of morsels the journal must stay bounded:
/// steals and idle time are totals in the report's `sched` section, never
/// events, so journal growth does not depend on the morsel count.
#[test]
fn journal_stays_bounded_on_a_hundred_thousand_pair_run() {
    const WORKERS: usize = 8;
    // 100_000 items of weight 64 over a deliberately skewed partitioning:
    // one hot partition with half the work, the rest spread thin. 256 items
    // fill a morsel → ~400 morsels.
    let mut partitions = vec![(0..50_000u32).collect::<Vec<_>>()];
    for p in 0..10 {
        partitions.push((0..5_000u32).map(|i| i + p).collect());
    }
    let cluster = Cluster::local(WORKERS);
    let out = cluster
        .run_morsel_job(
            "hundred-k",
            partitions.clone(),
            |_| 64,
            |_, items, ctx| {
                ctx.charge_ops(items.len() as u64);
                Ok(vec![items.len() as u64])
            },
        )
        .unwrap();
    assert_eq!(out.len(), partitions.len());
    let report = cluster.job_report();
    assert!(
        report.sched.morsels >= 300,
        "expected hundreds of morsels, got {}",
        report.sched.morsels
    );
    assert_eq!(
        report.sched.per_worker.len(),
        WORKERS,
        "the sched section keeps a row per worker, not per morsel"
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
}
