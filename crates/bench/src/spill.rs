//! Out-of-core blocking + pairwise benchmark behind `BENCH_spill.json`.
//!
//! The paper dedups a ~10k-report corpus entirely in memory; the ROADMAP's
//! out-of-core item asks what happens two orders of magnitude above that.
//! This module drives a **multi-million-report** blocking + pairwise run
//! through sparklet twice:
//!
//! * **uncapped** — executor memory far above the shuffle's resident needs:
//!   the in-memory baseline, no spill traffic;
//! * **capped** — executor memory small enough that the blocking shuffle
//!   cannot stay resident: buckets overflow to the disk tier and are read
//!   back during the pairwise stage.
//!
//! The corpus is never materialised: each map task builds its own
//! [`StreamingCorpus`] and generates only its id range (O(batch) memory,
//! see `adr_synth::streaming`). Every report becomes one fixed-width
//! [`BlockRecord`] — blocking key (primary suspect drug) plus a numeric
//! fingerprint — which is what flows through the shuffle; the pairwise
//! stage compares each *arriving* report (the trailing id window) against
//! every earlier report in its block, mirroring `detect_new`'s
//! incremental-batch shape at scale.
//!
//! The capped and uncapped runs must produce **bit-identical** summaries
//! (pair counts, near-duplicate counts and an order-sensitive distance
//! checksum): spilling is an execution detail, never an answer change.

use crate::harness::{gates_json, Gate};
use adr_synth::{StreamingCorpus, SynthConfig};
use simmetrics::squared_euclidean_fixed;
use sparklet::{stable_hash, Cluster, ClusterConfig, HashPartitioner, PairRdd};
use std::sync::Arc;

/// Fingerprint arity: eight cheap numeric features per report.
pub const FINGERPRINT_DIMS: usize = 8;

/// What the blocking shuffle moves: `(block key, (report id, fingerprint))`.
/// Fixed-width, so the engine's default [`sparklet::FixedBytes`] tuple
/// codecs spill it without a custom encoder.
pub type BlockRecord = (u64, (u64, [f64; FINGERPRINT_DIMS]));

/// Squared-distance threshold under which a blocked pair is counted as a
/// near-duplicate. The value only needs to be deterministic and sit inside
/// the observed distance range — the benchmark gates on execution, and the
/// counts double as a cross-run output digest.
const NEAR_DUPLICATE_SQ: f64 = 64.0;

/// One benchmark scenario: corpus scale, arriving window and cluster shape.
#[derive(Debug, Clone)]
pub struct SpillWorkload {
    /// Total corpus size (duplicates included).
    pub num_reports: usize,
    /// Injected duplicate pairs (kept at the paper's ~2.5% pair rate).
    pub duplicate_pairs: usize,
    /// Trailing ids treated as the arriving batch of `detect_new`.
    pub arriving: usize,
    /// Simulated executors.
    pub executors: usize,
    /// Shuffle partitions (= map tasks = reduce tasks).
    pub partitions: usize,
    /// Executor memory for the capped runs.
    pub capped_memory: usize,
    /// Executor memory for the in-memory baseline.
    pub uncapped_memory: usize,
    /// Corpus seed.
    pub seed: u64,
}

impl SpillWorkload {
    /// The headline scenario: 10M reports — ~1000× the paper's corpus —
    /// under a 64 MiB executor cap (the blocking shuffle needs ~200 MiB
    /// resident per executor, so the cap forces the disk tier).
    pub fn full() -> Self {
        SpillWorkload {
            num_reports: 10_000_000,
            duplicate_pairs: 250_000,
            arriving: 20_000,
            executors: 4,
            partitions: 32,
            capped_memory: 64 << 20,
            uncapped_memory: 4 << 30,
            seed: 2016,
        }
    }

    /// CI-smoke scale: same shape, ~25× smaller, cap shrunk to match.
    pub fn quick() -> Self {
        SpillWorkload {
            num_reports: 400_000,
            duplicate_pairs: 10_000,
            arriving: 4_000,
            executors: 4,
            partitions: 32,
            capped_memory: 4 << 20,
            uncapped_memory: 512 << 20,
            seed: 2016,
        }
    }

    /// Corpus definition: paper-scale lexicons (Table 3's 1,366 drugs /
    /// 2,351 ADR terms) regardless of report count, so block sizes grow
    /// with the corpus exactly as they would in a real database.
    pub fn synth_config(&self) -> SynthConfig {
        SynthConfig {
            num_reports: self.num_reports,
            duplicate_pairs: self.duplicate_pairs,
            seed: self.seed,
            ..SynthConfig::tga()
        }
    }
}

/// Summary of one completed run.
#[derive(Debug, Clone)]
pub struct SpillRunSummary {
    /// Digest over the per-partition `(pairs, near, checksum)` rows —
    /// bit-identical across capped/uncapped runs by contract.
    pub digest: u64,
    /// Blocked pairs compared in the pairwise stage.
    pub pairs_compared: u64,
    /// Pairs under the near-duplicate distance threshold.
    pub near_duplicates: u64,
    /// Virtual makespan of the whole run (µs).
    pub makespan_us: u64,
    /// Disk-tier traffic, from the job report's spill section.
    pub bytes_spilled: u64,
    /// Bytes read back from spill files on fetch.
    pub bytes_read_back: u64,
    /// Spill files created.
    pub spill_files: u64,
    /// Largest per-executor peak of resident shuffle bytes.
    pub peak_resident_max: u64,
}

/// Primary blocking key of a report: its first suspect drug (reports
/// always carry at least one drug; an empty field blocks under key 0).
fn block_key(drug_field: &str) -> u64 {
    match drug_field.split(',').map(str::trim).find(|t| !t.is_empty()) {
        Some(drug) => stable_hash(&drug),
        None => 0,
    }
}

/// Eight deterministic numeric features. Hash-derived categorical features
/// are folded to small ranges so field corruptions move distances by O(10)
/// — comparable to the numeric features' scale.
fn fingerprint(r: &adr_model::AdrReport) -> [f64; FINGERPRINT_DIMS] {
    let hash64 = |s: &Option<String>| (stable_hash(s) % 64) as f64;
    [
        r.patient.calculated_age.unwrap_or(40.0),
        match r.patient.sex {
            Some(adr_model::Sex::M) => 0.0,
            Some(adr_model::Sex::F) => 8.0,
            _ => 16.0,
        },
        4.0 * r.adr_names().len() as f64,
        4.0 * r.drug_names().len() as f64,
        r.reaction.report_description.len() as f64 / 16.0,
        (stable_hash(&r.reaction.meddra_pt_code) % 64) as f64,
        hash64(&r.reaction.onset_date),
        hash64(&r.reaction.reaction_outcome_description),
    ]
}

/// Run blocking + pairwise over the workload's corpus at the given
/// executor memory.
pub fn run_blocking_pairwise(
    w: &SpillWorkload,
    memory_per_executor: usize,
) -> sparklet::Result<SpillRunSummary> {
    let mut config = ClusterConfig::local(w.executors);
    config.memory_per_executor = memory_per_executor;
    let cluster = Cluster::new(config);
    cluster.spill().register_fixed::<BlockRecord>();
    let handle = cluster.clone();

    let n = w.num_reports as u64;
    let arriving_from = n - w.arriving as u64;
    let synth = w.synth_config();

    // Contiguous id ranges, one per map task; each task streams only its
    // own range through a private corpus — the driver never holds reports.
    let per = n.div_ceil(w.partitions as u64);
    let ranges: Vec<(u64, u64)> = (0..w.partitions as u64)
        .map(|p| (p * per, ((p + 1) * per).min(n)))
        .collect();

    let records =
        cluster
            .parallelize(ranges, w.partitions)
            .map_partitions(move |ranges: Vec<(u64, u64)>| {
                let corpus = StreamingCorpus::new(synth.clone());
                let mut out: Vec<BlockRecord> =
                    Vec::with_capacity(ranges.iter().map(|(lo, hi)| (hi - lo) as usize).sum());
                for (lo, hi) in ranges {
                    for id in lo..hi {
                        let r = corpus.report(id);
                        out.push((
                            block_key(&r.medicine.generic_name_description),
                            (id, fingerprint(&r)),
                        ));
                    }
                }
                out
            });

    let partitions = w.partitions;
    let blocked = records.partition_by(Arc::new(HashPartitioner::new(partitions)));

    // Pairwise within blocks: each arriving report against every earlier
    // report sharing its key. Sorted by (key, id) first, so the distance
    // accumulation order — and therefore the f64 checksum — is a pure
    // function of the data, not of scheduling or spill.
    let summaries: Vec<(u64, u64, u64)> = blocked
        .map_partitions(move |mut part: Vec<BlockRecord>| {
            part.sort_unstable_by_key(|(key, (id, _))| (*key, *id));
            let (mut pairs, mut near, mut sum) = (0u64, 0u64, 0f64);
            let mut at = 0;
            while at < part.len() {
                let key = part[at].0;
                let end = at + part[at..].iter().take_while(|(k, _)| *k == key).count();
                let split = at
                    + part[at..end]
                        .iter()
                        .take_while(|(_, (id, _))| *id < arriving_from)
                        .count();
                for (_, (_, fp_new)) in &part[split..end] {
                    for (_, (_, fp_old)) in &part[at..split] {
                        let d = squared_euclidean_fixed(fp_new, fp_old);
                        pairs += 1;
                        near += u64::from(d < NEAR_DUPLICATE_SQ);
                        sum += d;
                    }
                }
                at = end;
            }
            vec![(pairs, near, sum.to_bits())]
        })
        .collect()?;

    let report = handle.job_report();
    Ok(SpillRunSummary {
        digest: stable_hash(&summaries),
        pairs_compared: summaries.iter().map(|(p, _, _)| p).sum(),
        near_duplicates: summaries.iter().map(|(_, n, _)| n).sum(),
        makespan_us: report.virtual_us,
        bytes_spilled: report.spill.bytes_spilled,
        bytes_read_back: report.spill.bytes_read_back,
        spill_files: report.spill.spill_files,
        peak_resident_max: report
            .spill
            .peak_resident
            .iter()
            .copied()
            .max()
            .unwrap_or(0),
    })
}

fn run_json(label: &str, s: &SpillRunSummary, memory: usize) -> String {
    format!(
        "  \"{label}\": {{\"memory_mb\": {}, \"makespan_us\": {}, \"pairs_compared\": {}, \
         \"near_duplicates\": {}, \"bytes_spilled\": {}, \"bytes_read_back\": {}, \
         \"spill_files\": {}, \"peak_resident_bytes\": {}, \"digest\": \"{:#018x}\"}},\n",
        memory >> 20,
        s.makespan_us,
        s.pairs_compared,
        s.near_duplicates,
        s.bytes_spilled,
        s.bytes_read_back,
        s.spill_files,
        s.peak_resident_max,
        s.digest,
    )
}

/// The benchmark's acceptance gates: the capped run went through the disk
/// tier both ways, and spilling changed nothing in the answer.
pub fn spill_gates(uncapped: &SpillRunSummary, capped: &SpillRunSummary) -> Vec<Gate> {
    vec![
        Gate::holds(
            "completes_with_spill",
            capped.bytes_spilled > 0 && capped.bytes_read_back > 0,
        ),
        Gate::holds("digest_match", capped.digest == uncapped.digest),
    ]
}

/// Render `BENCH_spill.json`.
pub fn spill_to_json(
    w: &SpillWorkload,
    uncapped: &SpillRunSummary,
    capped: &SpillRunSummary,
) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": 2,\n  \"reports\": {},\n  \"arriving\": {},\n  \
         \"executors\": {},\n  \"partitions\": {},\n",
        w.num_reports, w.arriving, w.executors, w.partitions
    );
    out.push_str(&run_json("uncapped", uncapped, w.uncapped_memory));
    out.push_str(&run_json("capped", capped, w.capped_memory));
    out.push_str("  ");
    out.push_str(&gates_json(&spill_gates(uncapped, capped)));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::gates_all_passed;

    /// Test-scale workload: small enough for tier-1, shaped like `full()`.
    fn tiny() -> SpillWorkload {
        SpillWorkload {
            num_reports: 60_000,
            duplicate_pairs: 1_500,
            arriving: 1_500,
            executors: 2,
            partitions: 8,
            capped_memory: 1 << 20,
            uncapped_memory: 512 << 20,
            seed: 7,
        }
    }

    #[test]
    fn capped_run_spills_and_matches_the_uncapped_digest() {
        let w = tiny();
        let uncapped = run_blocking_pairwise(&w, w.uncapped_memory).expect("uncapped");
        assert_eq!(uncapped.bytes_spilled, 0, "baseline must stay resident");
        assert!(uncapped.pairs_compared > 0, "no blocked pairs compared");
        let capped = run_blocking_pairwise(&w, w.capped_memory).expect("capped");
        assert!(capped.bytes_spilled > 0, "cap never engaged the disk tier");
        assert!(capped.bytes_read_back > 0, "spilled buckets never fetched");
        assert_eq!(capped.digest, uncapped.digest, "spill changed the answer");
        assert_eq!(capped.pairs_compared, uncapped.pairs_compared);
        assert!(
            capped.makespan_us > uncapped.makespan_us,
            "spill I/O must show up in the virtual makespan ({} <= {})",
            capped.makespan_us,
            uncapped.makespan_us
        );
    }

    #[test]
    fn json_gate_reflects_both_legs() {
        let ok = SpillRunSummary {
            digest: 42,
            pairs_compared: 10,
            near_duplicates: 2,
            makespan_us: 100,
            bytes_spilled: 0,
            bytes_read_back: 0,
            spill_files: 0,
            peak_resident_max: 5,
        };
        let mut spilled = ok.clone();
        spilled.bytes_spilled = 1000;
        spilled.bytes_read_back = 900;
        spilled.makespan_us = 150;
        let doc = spill_to_json(&SpillWorkload::quick(), &ok, &spilled);
        assert!(!doc.contains("\"passed\": false"), "{doc}");
        assert!(doc.starts_with('{') && doc.ends_with("}\n"));
        assert!(gates_all_passed(&spill_gates(&ok, &spilled)));

        let mut drifted = spilled.clone();
        drifted.digest = 43;
        let doc = spill_to_json(&SpillWorkload::quick(), &ok, &drifted);
        assert!(doc.contains(
            "\"digest_match\": {\"threshold\": 1.00, \"value\": 0.0000, \"passed\": false}"
        ));

        // A capped leg that never touched the disk tier proves nothing.
        let doc = spill_to_json(&SpillWorkload::quick(), &ok, &ok);
        assert!(doc.contains(
            "\"completes_with_spill\": {\"threshold\": 1.00, \"value\": 0.0000, \"passed\": false}"
        ));
    }
}
