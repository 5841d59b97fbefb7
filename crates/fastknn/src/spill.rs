//! Spill codecs for the payloads the classifier shuffles and caches.
//!
//! The engine's disk tier ([`sparklet::SpillManager`]) serializes whole
//! `Vec<T>` slabs — one shuffle bucket or one cache block at a time — and
//! needs a codec per element type. [`register_spill_codecs`] installs one
//! for every type Algorithm 2 moves through a wide dependency:
//!
//! * `(cluster id, Arc<VecBatch>)` — the cached negative training cells.
//!   Encoded **column-wise** via [`VecBatch::encode_columns`]: the on-disk
//!   layout mirrors the SoA layout, no re-rowifying.
//! * `(cluster id, UnlabeledPair)` — stage-1 test-pair assignment shuffle.
//!   Fixed width; [`UnlabeledPair`] implements [`FixedBytes`] here.
//! * `(cluster id, (id, vector, kth²))` — stage-2 probe shuffle, carrying
//!   the stage-1 k-th-neighbour cutoff. Fixed width via the tuple/array
//!   [`FixedBytes`] impls.
//! * `(test id, Neighborhood)` — the top-k merge shuffle. Variable length
//!   (a neighbourhood holds up to `k` entries), so it gets an explicit
//!   codec; entries are written sorted and reloaded verbatim.
//!
//! Every `f64` travels as raw bits, so a spilled payload decodes
//! bit-identically — detection digests do not change when spill kicks in.
//! [`crate::FastKnn::fit`] registers these once per model; registration is
//! idempotent (re-registering replaces the codec with an equal one).

use crate::soa::VecBatch;
use crate::types::{Neighborhood, UnlabeledPair};
use sparklet::{FixedBytes, SpillManager};
use std::sync::Arc;

impl<const D: usize> FixedBytes for UnlabeledPair<D> {
    const WIDTH: usize = 8 + D * 8;
    fn write_to(&self, out: &mut Vec<u8>) {
        self.id.write_to(out);
        self.vector.write_to(out);
    }
    fn read_from(bytes: &[u8]) -> Self {
        UnlabeledPair {
            id: u64::read_from(&bytes[..8]),
            vector: <[f64; D]>::read_from(&bytes[8..]),
        }
    }
}

/// Register the classifier's spill codecs on a cluster's disk tier.
pub fn register_spill_codecs<const D: usize>(spill: &SpillManager) {
    spill.register_fixed::<(usize, UnlabeledPair<D>)>();
    spill.register_fixed::<(usize, (u64, [f64; D], f64))>();
    spill.register_codec::<(u64, Neighborhood), _, _>(encode_hoods, decode_hoods);
    spill.register_codec::<(usize, Arc<VecBatch<D>>), _, _>(encode_cells::<D>, decode_cells::<D>);
}

fn encode_hoods(items: &[(u64, Neighborhood)], out: &mut Vec<u8>) {
    for (id, hood) in items {
        id.write_to(out);
        (hood.k as u64).write_to(out);
        (hood.entries.len() as u64).write_to(out);
        for &(d_sq, cand, pos) in &hood.entries {
            d_sq.write_to(out);
            cand.write_to(out);
            out.push(pos as u8);
        }
    }
}

fn decode_hoods(bytes: &[u8]) -> Option<Vec<(u64, Neighborhood)>> {
    let mut v = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let id = u64::read_from(bytes.get(at..at + 8)?);
        let k = u64::read_from(bytes.get(at + 8..at + 16)?) as usize;
        let n = u64::read_from(bytes.get(at + 16..at + 24)?) as usize;
        at += 24;
        let mut hood = Neighborhood::new(k);
        for _ in 0..n {
            // Entries were written in sorted order; reload verbatim instead
            // of re-inserting (push_sq would re-derive the same order, but
            // verbatim reload cannot even in principle perturb it).
            let d_sq = f64::read_from(bytes.get(at..at + 8)?);
            let cand = u64::read_from(bytes.get(at + 8..at + 16)?);
            let pos = *bytes.get(at + 16)? != 0;
            at += 17;
            hood.entries.push((d_sq, cand, pos));
        }
        v.push((id, hood));
    }
    Some(v)
}

fn encode_cells<const D: usize>(items: &[(usize, Arc<VecBatch<D>>)], out: &mut Vec<u8>) {
    for (cid, cell) in items {
        cid.write_to(out);
        cell.encode_columns(out);
    }
}

fn decode_cells<const D: usize>(mut bytes: &[u8]) -> Option<Vec<(usize, Arc<VecBatch<D>>)>> {
    let mut v = Vec::new();
    while !bytes.is_empty() {
        let cid = usize::read_from(bytes.get(..8)?);
        bytes = &bytes[8..];
        // encode_columns is self-delimiting: decoding consumes its span.
        v.push((cid, Arc::new(VecBatch::<D>::decode_columns(&mut bytes)?)));
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sparklet::ClusterMetrics;

    fn mgr() -> SpillManager {
        let m = SpillManager::new(1, 1024, ClusterMetrics::new());
        register_spill_codecs::<4>(&m);
        m
    }

    fn round_trip<T: Clone + Send + Sync + 'static>(m: &SpillManager, data: Vec<T>) -> Vec<T> {
        let payload: Arc<dyn std::any::Any + Send + Sync> = Arc::new(data);
        let slot = m.write(0, &*payload).expect("codec registered");
        let back = m.read(&slot).expect("slot valid");
        <dyn std::any::Any>::downcast_ref::<Vec<T>>(&*back)
            .expect("payload type")
            .clone()
    }

    #[test]
    fn unlabeled_pairs_round_trip_bit_exactly() {
        let m = mgr();
        let data: Vec<(usize, UnlabeledPair<4>)> = (0..50)
            .map(|i| {
                (
                    i % 7,
                    UnlabeledPair::new(i as u64, [i as f64 * 0.1, -0.0, f64::NAN, 3.5]),
                )
            })
            .collect();
        let back = round_trip(&m, data.clone());
        assert_eq!(back.len(), data.len());
        for ((ka, a), (kb, b)) in data.iter().zip(&back) {
            assert_eq!(ka, kb);
            assert_eq!(a.id, b.id);
            let bits_a: Vec<u64> = a.vector.iter().map(|x| x.to_bits()).collect();
            let bits_b: Vec<u64> = b.vector.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
    }

    #[test]
    fn probes_round_trip() {
        let m = mgr();
        // Probe payload: (target cell, (test id, vector, stage-1 kth²)).
        // The cutoff must survive bit-exactly — including +∞ (prune off or
        // fewer than k stage-1 neighbours).
        type Probe = (usize, (u64, [f64; 4], f64));
        let data: Vec<Probe> = (0..20)
            .map(|i: usize| {
                let kth = if i.is_multiple_of(3) {
                    f64::INFINITY
                } else {
                    0.125 * i as f64
                };
                (i, (1000 + i as u64, [0.25 * i as f64; 4], kth))
            })
            .collect();
        assert_eq!(round_trip(&m, data.clone()), data);
    }

    #[test]
    fn neighborhoods_round_trip_entries_and_capacity() {
        let m = mgr();
        let mut a = Neighborhood::new(3);
        a.push_sq(2.0, 5, true);
        a.push_sq(1.0, 9, false);
        let b = Neighborhood::new(7); // empty but with a real k
        let data = vec![(11u64, a), (22u64, b)];
        let back = round_trip(&m, data.clone());
        assert_eq!(back, data, "k, entry order and labels all survive");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The disk tier's invariant, stated as a property: chunk a batch,
        /// scatter the chunks over partitions, spill every partition and
        /// read it back — the reassembled batch is bit-identical to the
        /// resident one, for every chunking × partitioning the engine uses.
        /// Vectors are drawn as raw bit patterns so NaNs, infinities and
        /// signed zeros are all exercised.
        #[test]
        fn spilled_vecbatch_columns_reassemble_bit_identically(
            seed in 0u64..10_000,
            n_rows in 0usize..200,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let m = mgr();
            let mut whole = VecBatch::<4>::new();
            for id in 0..n_rows as u64 {
                let bits: [u64; 4] = std::array::from_fn(|_| rng.gen());
                whole.push(id, &bits.map(f64::from_bits), rng.gen());
            }
            for chunk_len in [1usize, 64, 1024] {
                for parts in [1usize, 4, 16] {
                    let mut partitions: Vec<Vec<(usize, Arc<VecBatch<4>>)>> =
                        vec![Vec::new(); parts];
                    for (i, chunk) in whole.chunk_rows(chunk_len).into_iter().enumerate() {
                        partitions[i % parts].push((i, Arc::new(chunk)));
                    }
                    let mut restored: Vec<(usize, Arc<VecBatch<4>>)> = Vec::new();
                    for p in partitions {
                        restored.extend(round_trip(&m, p));
                    }
                    restored.sort_by_key(|(i, _)| *i);
                    let mut rebuilt = VecBatch::<4>::new();
                    for (_, c) in &restored {
                        rebuilt.append(c);
                    }
                    prop_assert_eq!(rebuilt.ids(), whole.ids());
                    prop_assert_eq!(rebuilt.labels(), whole.labels());
                    for d in 0..4 {
                        let got: Vec<u64> =
                            rebuilt.col(d).iter().map(|x| x.to_bits()).collect();
                        let want: Vec<u64> =
                            whole.col(d).iter().map(|x| x.to_bits()).collect();
                        prop_assert_eq!(got, want, "column {} drifted", d);
                    }
                }
            }
        }
    }

    #[test]
    fn negative_cells_round_trip_column_wise() {
        let m = mgr();
        let mut cell = VecBatch::<4>::new();
        cell.push(1, &[0.1, 0.2, 0.3, 0.4], false);
        cell.push(2, &[f64::MIN_POSITIVE, -1.0, 0.0, 9.9], true);
        let data = vec![
            (3usize, Arc::new(cell)),
            (4usize, Arc::new(VecBatch::new())),
        ];
        let back = round_trip(&m, data.clone());
        assert_eq!(back.len(), 2);
        for ((ka, a), (kb, b)) in data.iter().zip(&back) {
            assert_eq!(ka, kb);
            assert_eq!(a.ids(), b.ids());
            assert_eq!(a.labels(), b.labels());
            for d in 0..4 {
                let bits_a: Vec<u64> = a.col(d).iter().map(|x| x.to_bits()).collect();
                let bits_b: Vec<u64> = b.col(d).iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits_a, bits_b);
            }
        }
    }
}
