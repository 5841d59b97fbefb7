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
        hood.k.write_to(out);
        hood.entries.len().write_to(out);
        for entry in &hood.entries {
            entry.write_to(out);
        }
    }
}

/// Encoded width of one neighbourhood entry: `d_sq`, candidate id, label.
const HOOD_ENTRY_BYTES: usize = <(f64, u64, bool)>::WIDTH;

fn decode_hoods(mut bytes: &[u8]) -> Option<Vec<(u64, Neighborhood)>> {
    let mut v = Vec::new();
    while !bytes.is_empty() {
        let id = u64::take_from(&mut bytes)?;
        let k = usize::take_from(&mut bytes)?;
        let n = usize::take_from(&mut bytes)?;
        // The header is untrusted: a hood never holds more than `k`
        // entries, and the entries must fit in what is left. Only then is
        // anything allocated — and for `n`, never for `k`.
        if n > k || n > bytes.len() / HOOD_ENTRY_BYTES {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            // Entries were written in sorted order; reload verbatim instead
            // of re-inserting (push_sq would re-derive the same order, but
            // verbatim reload cannot even in principle perturb it).
            entries.push(<(f64, u64, bool)>::take_from(&mut bytes)?);
        }
        v.push((id, Neighborhood { k, entries }));
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
        let cid = usize::take_from(&mut bytes)?;
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

    /// `items` encoded one record at a time, with the byte offset each
    /// record ends at; the whole-slab encoding must be their concatenation.
    fn framed<T>(items: &[T], encode: impl Fn(&[T], &mut Vec<u8>)) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for item in items {
            encode(std::slice::from_ref(item), &mut bytes);
            ends.push(bytes.len());
        }
        let mut whole = Vec::new();
        encode(items, &mut whole);
        assert_eq!(whole, bytes);
        (bytes, ends)
    }

    fn fixed_framed<T: FixedBytes>(items: &[T]) -> (Vec<u8>, Vec<usize>) {
        framed(items, |items, out| {
            items.iter().for_each(|x| x.write_to(out))
        })
    }

    /// Every prefix and every one-byte flip of an encoded slab through the
    /// codec registered for `T`, as a spill file cut short or garbled on
    /// disk would hand them to it: nothing panics or aborts, a cut inside a
    /// record is refused, and a cut between records decodes to exactly the
    /// records before it.
    fn sweep<T: Send + Sync + 'static>(m: &SpillManager, (bytes, ends): (Vec<u8>, Vec<usize>)) {
        let records = |b: &[u8]| {
            m.decode::<T>(b).map(|any| {
                <dyn std::any::Any>::downcast_ref::<Vec<T>>(&*any)
                    .expect("payload type")
                    .len()
            })
        };
        assert_eq!(records(&bytes), Some(ends.len()));
        for cut in 0..bytes.len() {
            let whole = match cut {
                0 => Some(0),
                _ => ends.iter().position(|&end| end == cut).map(|i| i + 1),
            };
            assert_eq!(records(&bytes[..cut]), whole, "cut at byte {cut}");
        }
        let mut garbled = bytes.clone();
        for at in 0..bytes.len() {
            garbled[at] ^= 0xFF;
            let _ = records(&garbled);
            garbled[at] ^= 0xFF;
        }
    }

    #[test]
    fn every_cut_and_flipped_byte_decodes_or_is_refused_without_a_panic() {
        let m = mgr();
        let pairs: Vec<(usize, UnlabeledPair<4>)> = (0..3)
            .map(|i| (i, UnlabeledPair::new(i as u64, [0.5, -0.0, f64::NAN, 2.0])))
            .collect();
        sweep::<(usize, UnlabeledPair<4>)>(&m, fixed_framed(&pairs));
        type Probe = (usize, (u64, [f64; 4], f64));
        let probes: Vec<Probe> = (0..3)
            .map(|i| (i, (7 + i as u64, [0.25; 4], f64::INFINITY)))
            .collect();
        sweep::<Probe>(&m, fixed_framed(&probes));

        // A full hood, an empty one with a real k, a partly filled one: a
        // flip in the high bytes of `k` or `n` must be refused, not sized.
        let mut full = Neighborhood::new(2);
        full.push_sq(1.0, 5, true);
        full.push_sq(2.0, 9, false);
        let mut part = Neighborhood::new(9);
        part.push_sq(0.5, 3, false);
        let hoods = vec![(11u64, full), (22, Neighborhood::new(7)), (33, part)];
        sweep::<(u64, Neighborhood)>(&m, framed(&hoods, encode_hoods));

        let mut cell = VecBatch::<4>::new();
        cell.push(1, &[0.1, 0.2, 0.3, 0.4], false);
        cell.push(2, &[f64::MIN_POSITIVE, -1.0, 0.0, 9.9], true);
        let cells = vec![(3usize, Arc::new(cell)), (4, Arc::new(VecBatch::new()))];
        sweep::<(usize, Arc<VecBatch<4>>)>(&m, framed(&cells, encode_cells::<4>));

        // Two of the engine's pre-registered fixed codecs.
        let scalars: Vec<(u64, f64)> = vec![(1, 0.5), (2, f64::NAN)];
        sweep::<(u64, f64)>(&m, fixed_framed(&scalars));
        let rows: Vec<[f64; 8]> = vec![[0.125; 8], [-1.0; 8]];
        sweep::<[f64; 8]>(&m, fixed_framed(&rows));
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
