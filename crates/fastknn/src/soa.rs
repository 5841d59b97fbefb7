//! SoA batches of training/test pairs and the batch-classification scratch
//! arena.
//!
//! The column layout and tiled kernels live in [`simmetrics::soa`] (they are
//! schema-agnostic and k-means needs them too); this module re-exports them
//! and adds what is specific to the classifier:
//!
//! * conversions between [`LabeledPair`] / [`UnlabeledPair`] rows and
//!   [`VecBatch`] columns;
//! * [`ClassifyScratch`], the reusable buffer set that makes
//!   [`crate::serial::classify_batch`] allocation-free after warm-up;
//! * [`ScratchPool`], a lock-guarded arena handing one scratch per running
//!   task to the shared `Fn` closures of the distributed classifier.

pub use simmetrics::soa::{assign_min, distances_to_point, distances_to_point_range, VecBatch};

use crate::types::{LabeledPair, Neighborhood, UnlabeledPair};
use std::sync::Mutex;

/// Pack unlabelled (test) pairs into a column batch (row order preserved).
pub fn from_unlabeled<const D: usize>(pairs: &[UnlabeledPair<D>]) -> VecBatch<D> {
    let mut batch = VecBatch::with_capacity(pairs.len());
    for p in pairs {
        batch.push(p.id, &p.vector, false);
    }
    batch
}

/// Pack labelled (training) pairs into a column batch (row order, ids and
/// labels preserved).
pub(crate) fn from_labeled<const D: usize>(pairs: &[LabeledPair<D>]) -> VecBatch<D> {
    let mut batch = VecBatch::with_capacity(pairs.len());
    for p in pairs {
        batch.push(p.id, &p.vector, p.positive);
    }
    batch
}

/// Unpack a batch back into labelled rows.
pub fn to_labeled<const D: usize>(batch: &VecBatch<D>) -> Vec<LabeledPair<D>> {
    (0..batch.len())
        .map(|i| LabeledPair::new(batch.id(i), batch.row(i), batch.label(i)))
        .collect()
}

/// Reusable buffers for one in-flight batch classification.
///
/// Every `Vec` here only ever grows to the workload's high-water mark; a
/// warm scratch makes [`crate::serial::classify_batch`] allocation-free
/// (pinned by the `zero_alloc` integration test).
#[derive(Debug, Default)]
pub struct ClassifyScratch<const D: usize> {
    /// The test pair's working neighbourhood (reset per test, capacity
    /// retained).
    pub hood: Neighborhood,
    /// Squared distances to the current candidate cluster.
    pub dists: Vec<f64>,
    /// Squared distances to the global positive set.
    pub pos_dists: Vec<f64>,
    /// Algorithm 1 output buffer (additional cluster indices).
    pub extra: Vec<usize>,
}

/// A pool of [`ClassifyScratch`] instances shared by the distributed
/// classifier's task closures.
///
/// Engine closures are `Fn` (shared across worker threads), so they cannot
/// own a `&mut` scratch; and `thread_local!` cannot be generic over `D`.
/// Pop-use-push through a mutex costs two uncontended lock operations per
/// *task* — noise next to the task's O(tests × candidates) kernel work —
/// and buffers stay warm across tasks and jobs.
#[derive(Debug, Default)]
pub struct ScratchPool<const D: usize> {
    pool: Mutex<Vec<ClassifyScratch<D>>>,
}

impl<const D: usize> ScratchPool<D> {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with a scratch popped from the pool (or a fresh one), then
    /// return the scratch for reuse.
    pub fn with<R>(&self, f: impl FnOnce(&mut ClassifyScratch<D>) -> R) -> R {
        let mut scratch = self
            .pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        let out = f(&mut scratch);
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_round_trip() {
        let pairs: Vec<LabeledPair<3>> = (0..17)
            .map(|i| LabeledPair::new(i, [i as f64, -(i as f64), 0.5], i % 3 == 0))
            .collect();
        let mut batch = VecBatch::new();
        for p in &pairs {
            batch.push(p.id, &p.vector, p.positive);
        }
        assert_eq!(to_labeled(&batch), pairs);
    }

    #[test]
    fn unlabeled_round_trip() {
        let pairs: Vec<UnlabeledPair<2>> = (0..9)
            .map(|i| UnlabeledPair::new(100 + i, [0.25 * i as f64, 1.0]))
            .collect();
        let batch = from_unlabeled(&pairs);
        let back: Vec<UnlabeledPair<2>> = (0..batch.len())
            .map(|i| UnlabeledPair::new(batch.id(i), batch.row(i)))
            .collect();
        assert_eq!(back, pairs);
        assert!(batch.labels().iter().all(|&l| !l));
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let pool = ScratchPool::<4>::new();
        pool.with(|s| {
            s.dists.resize(1000, 0.0);
            s.hood.reset(5);
        });
        // The same (warm) scratch comes back: capacity survives.
        pool.with(|s| {
            assert!(s.dists.capacity() >= 1000);
            assert_eq!(s.hood.k, 5);
        });
    }

    #[test]
    fn nested_pool_use_hands_out_distinct_scratches() {
        let pool = ScratchPool::<2>::new();
        pool.with(|outer| {
            outer.extra.push(7);
            pool.with(|inner| {
                assert!(inner.extra.is_empty(), "must not alias the outer scratch");
            });
            assert_eq!(outer.extra, vec![7]);
        });
    }
}
