//! Chunked-execution equivalence suite: the chunk-charged operators (`map`,
//! `flat_map`, the shuffle map side) must be **bit-identical** to a plain
//! row-by-row computation for every partition count and failure schedule.
//! Chunk accounting may only change virtual cost and journal shape, never a
//! single output row. Inputs run to 3,000 rows so that a partition spans
//! zero, one or several 1024-row chunks with a ragged tail; the charge per
//! partition size is pinned next to `Rdd::map` in sparklet.

use proptest::prelude::*;
use sparklet::{Cluster, ClusterConfig, FaultConfig, PairRdd};
use std::collections::BTreeMap;

/// Narrow chain only — output order is fully determined by input order,
/// so results are compared exactly, order included.
fn narrow_chain(cluster: &Cluster, data: Vec<u64>, partitions: usize) -> Vec<u64> {
    cluster
        .parallelize(data, partitions)
        .map(|x| x.wrapping_mul(31).wrapping_add(7))
        .flat_map(|x| if x % 5 != 0 { vec![x] } else { vec![] })
        .flat_map(|x| if x % 2 == 0 { vec![x] } else { vec![x, !x] })
        .collect()
        .expect("narrow chain")
}

/// The same chain computed row by row — the ground truth the engine must
/// reproduce bit-for-bit.
fn narrow_serial(data: &[u64]) -> Vec<u64> {
    data.iter()
        .map(|x| x.wrapping_mul(31).wrapping_add(7))
        .filter(|x| x % 5 != 0)
        .flat_map(|x| if x % 2 == 0 { vec![x] } else { vec![x, !x] })
        .collect()
}

/// Narrow chain into a hash shuffle and per-key reduction. Reduce-side
/// group order is a hash-map artifact, so output is sorted before
/// comparison — the multiset of (key, sum) records is what must match.
fn shuffle_chain(cluster: &Cluster, data: Vec<u64>, partitions: usize) -> Vec<(u64, u64)> {
    let mut out = cluster
        .parallelize(data, partitions)
        .map(|x| x.wrapping_mul(2_654_435_761))
        .flat_map(|x| if x % 3 != 0 { vec![x] } else { vec![] })
        .map(|x| (x % 17, x))
        .reduce_by_key(|a, b| a.wrapping_add(b), 5)
        .collect()
        .expect("shuffle chain");
    out.sort_unstable();
    out
}

/// The same chain computed row by row into an ordered map.
fn shuffle_serial(data: &[u64]) -> Vec<(u64, u64)> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for x in data.iter().map(|x| x.wrapping_mul(2_654_435_761)) {
        if x % 3 != 0 {
            let sum = sums.entry(x % 17).or_insert(0);
            *sum = sum.wrapping_add(x);
        }
    }
    sums.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any partition count must reproduce the row-by-row narrow-chain
    /// output exactly, order included.
    #[test]
    fn chunked_narrow_chain_is_bit_identical_to_row_path(
        data in prop::collection::vec(0u64..u64::MAX, 0..3_000),
        parts_idx in 0usize..3,
    ) {
        let partitions = [1usize, 4, 16][parts_idx];
        let expect = narrow_serial(&data);
        let batched = narrow_chain(&Cluster::local(4), data, partitions);
        prop_assert_eq!(&batched, &expect,
            "{} partitions diverged from the row path", partitions);
    }

    /// Shuffles bucket per-chunk through `Partitioner::partition_batch`;
    /// the reduced output must match the row-by-row reduction.
    #[test]
    fn chunked_shuffle_is_bit_identical_to_row_path(
        data in prop::collection::vec(0u64..u64::MAX, 0..3_000),
        parts_idx in 0usize..3,
    ) {
        let partitions = [1usize, 4, 16][parts_idx];
        let expect = shuffle_serial(&data);
        let batched = shuffle_chain(&Cluster::local(4), data, partitions);
        prop_assert_eq!(batched, expect);
    }
}

/// A seeded executor kill mid-run plus random task faults: lineage
/// recovery re-executes chunked stages and re-buckets shuffle output, and
/// none of it may change a record.
#[test]
fn executor_kill_and_task_faults_leave_chunked_output_bit_identical() {
    let data: Vec<u64> = (0..20_000).collect();
    let baseline_cluster = Cluster::local(4);
    let baseline = shuffle_chain(&baseline_cluster, data.clone(), 8);
    let total = baseline_cluster.job_report().virtual_us;

    let mut cfg = ClusterConfig::local(4);
    cfg.fault = FaultConfig::with_probability(0.03, 41)
        .kill_at_time(1, total / 3)
        .kill_at_time(2, 2 * total / 3);
    let chaos_cluster = Cluster::new(cfg);
    let chaos = shuffle_chain(&chaos_cluster, data, 8);
    assert_eq!(baseline, chaos, "recovery changed chunked shuffle output");

    let report = chaos_cluster.job_report();
    assert_eq!(report.recovery.executors_lost, 2);
    assert!(
        report.batch.any(),
        "chaos run must still execute through the batch path"
    );
}

/// 100k records through map/flat_map/shuffle: the journal records nothing
/// of a healthy chunked run (it holds report sections, not a log), and the
/// report's batch section accounts for every record.
#[test]
fn journal_stays_bounded_and_batch_report_aggregates_at_100k_records() {
    let n: u64 = 100_000;
    let c = Cluster::local(8);
    let data: Vec<u64> = (0..n).collect();
    let out = shuffle_chain(&c, data, 8);
    assert!(!out.is_empty());

    let report = c.job_report();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.prune.passes, 0);
    let batch = &report.batch;
    assert!(batch.any(), "batch section must be populated");
    assert!(
        batch.records >= n,
        "batch section must account for every record: {} < {n}",
        batch.records
    );
    assert!(
        batch.chunks >= 8 && batch.chunks < n,
        "chunk count should sit between task count and record count: {}",
        batch.chunks
    );
    assert!(
        batch.max_chunk_records <= 1024,
        "a chunk exceeded the chunk target: {}",
        batch.max_chunk_records
    );
}
