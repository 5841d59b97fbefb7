//! `detect_new`'s batch rebuilt from public calls and classified through the
//! paper's Algorithm 2: the route the product's one-stage classification is
//! checked against end to end. Included as a module by the suites that
//! need it.

use adr_model::AdrReport;
use dedup::pairing::{contiguous_partitions, pairwise_distance_batches};
use dedup::{index_corpus, pairs_involving_new, DedupSystem, ProcessedReport};
use fastknn::FastKnn;
use textprep::{Pipeline, TokenInterner};

/// One detection as the suites hash it: the pair, the score's bits, the
/// label.
pub type Record = (u64, u64, u64, bool);

/// The §3 candidate pairs of `arriving` against `historical` (the
/// exhaustive path), through the same distance job as `detect_new` on
/// `system`'s cluster, classified by `model`'s `classify_batch` and put in
/// `detect_new`'s order: duplicates first, then score descending, then
/// candidate order.
pub fn algorithm2_records(
    system: &DedupSystem,
    model: &FastKnn,
    historical: &[AdrReport],
    arriving: &[AdrReport],
) -> sparklet::Result<Vec<Record>> {
    let (pipeline, mut interner) = (Pipeline::paper(), TokenInterner::new());
    let corpus = index_corpus(
        historical
            .iter()
            .chain(arriving)
            .map(|r| ProcessedReport::from_report(r, &pipeline, &mut interner)),
    );
    let ids = |reports: &[AdrReport]| reports.iter().map(|r| r.id).collect::<Vec<_>>();
    let candidates = pairs_involving_new(&ids(arriving), &ids(historical));
    let partitions = contiguous_partitions(candidates, system.config().pair_partitions);
    let (pairs, vectors) = pairwise_distance_batches(system.cluster(), &corpus, partitions)?;
    let mut records: Vec<Record> = model
        .classify_batch(&vectors)?
        .iter()
        .map(|s| {
            let pair = pairs[s.id as usize];
            (pair.lo, pair.hi, s.score.to_bits(), s.positive)
        })
        .collect();
    records.sort_by(|a, b| {
        b.3.cmp(&a.3)
            .then(f64::from_bits(b.2).total_cmp(&f64::from_bits(a.2)))
    });
    Ok(records)
}
