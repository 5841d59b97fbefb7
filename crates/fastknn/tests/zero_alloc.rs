//! Pins the batch classifier's zero-allocation contract: once the scratch
//! arena and output vector are warm, [`fastknn::serial::classify_batch`]
//! must not touch the heap at all.
//!
//! A counting global allocator makes the contract falsifiable — any stray
//! `Vec` growth, `clear`-then-`collect`, or hidden clone inside the hot
//! loop turns the count non-zero and fails the test. The count is kept per
//! thread: the test runner runs this file's tests on parallel threads, and
//! the kernels under test are single-threaded, so each test must see its
//! own thread's allocations and nobody else's warm-up.

use fastknn::serial::classify_batch;
use fastknn::voronoi::VoronoiPartition;
use fastknn::{
    from_unlabeled, ClassifyScratch, LabeledPair, ScoredPair, ScratchPool, UnlabeledPair, VecBatch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and `Drop`-free: first access neither allocates nor
    // registers a destructor, so bumping it from inside `alloc` is safe.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards unchanged to `System`; the only addition is a
// thread-local counter bump that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn synthetic_train(n: usize, seed: u64) -> Vec<LabeledPair> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let positive = rng.gen_bool(0.04);
            let center = if positive { 0.2 } else { 0.8 };
            let vector = std::array::from_fn(|_| center + rng.gen_range(-0.2..0.2));
            LabeledPair {
                id: i as u64,
                vector,
                positive,
            }
        })
        .collect()
}

#[test]
fn warm_classify_batch_does_not_allocate() {
    let train = synthetic_train(1_500, 9);
    let partition = VoronoiPartition::build(&train, 8, 41);
    let mut rng = StdRng::seed_from_u64(77);
    let tests: Vec<UnlabeledPair> = (0..200)
        .map(|i| UnlabeledPair {
            id: i as u64,
            vector: std::array::from_fn(|_| rng.gen_range(0.0..1.0)),
        })
        .collect();
    let batch = from_unlabeled(&tests);

    let mut scratch = ClassifyScratch::default();
    let mut out = Vec::new();
    // Warm-up: sizes every scratch buffer and the output vector. Two calls
    // so the Neighborhood reaches its k-capacity on every path.
    classify_batch(&partition, &batch, 7, 0.5, &mut scratch, &mut out);
    classify_batch(&partition, &batch, 7, 0.5, &mut scratch, &mut out);
    let cold = out.clone();

    let before = allocations();
    classify_batch(&partition, &batch, 7, 0.5, &mut scratch, &mut out);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm classify_batch must not allocate ({} allocations observed)",
        after - before
    );
    assert_eq!(out, cold, "warm call must reproduce the cold result");
}

/// The serving path keeps several micro-batches in flight at once, each
/// holding a [`ScratchPool`] scratch while it classifies. Once the pool is
/// warm (one scratch per in-flight batch, every buffer sized), steady-state
/// serving must not touch the heap: pop-use-push through the pool plus the
/// classify kernel itself, all allocation-free.
#[test]
fn warm_scratch_pool_with_many_in_flight_batches_does_not_allocate() {
    const IN_FLIGHT: usize = 8;
    let train = synthetic_train(1_200, 21);
    let partition = VoronoiPartition::build(&train, 8, 43);
    let mut rng = StdRng::seed_from_u64(99);
    // One probe batch per in-flight serve batch, sizes varied like a real
    // admission queue's output.
    let batches: Vec<VecBatch<8>> = (0..IN_FLIGHT)
        .map(|b| {
            let rows = 1 + b * 17;
            let tests: Vec<UnlabeledPair> = (0..rows)
                .map(|i| UnlabeledPair {
                    id: (b * 1000 + i) as u64,
                    vector: std::array::from_fn(|_| rng.gen_range(0.0..1.0)),
                })
                .collect();
            from_unlabeled(&tests)
        })
        .collect();
    let pool = ScratchPool::<8>::new();
    let mut outs: Vec<Vec<ScoredPair>> = vec![Vec::new(); IN_FLIGHT];

    // Nested checkouts hold IN_FLIGHT scratches simultaneously, forcing the
    // pool to own that many; the recursion mirrors overlapping batches.
    let run = |pool: &ScratchPool<8>, outs: &mut Vec<Vec<ScoredPair>>| {
        fn nest(
            i: usize,
            pool: &ScratchPool<8>,
            partition: &VoronoiPartition<8>,
            batches: &[VecBatch<8>],
            outs: &mut Vec<Vec<ScoredPair>>,
        ) {
            if i == batches.len() {
                return;
            }
            pool.with(|s| {
                classify_batch(partition, &batches[i], 7, 0.5, s, &mut outs[i]);
                nest(i + 1, pool, partition, batches, outs);
            });
        }
        nest(0, pool, &partition, &batches, outs);
    };

    // Warm-up twice: the pool grows to IN_FLIGHT scratches and every
    // buffer (and output vector) reaches steady-state capacity.
    run(&pool, &mut outs);
    run(&pool, &mut outs);
    let cold = outs.clone();

    let before = allocations();
    run(&pool, &mut outs);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm pool serving must not allocate ({} allocations observed)",
        after - before
    );
    assert_eq!(outs, cold, "warm pass must reproduce the cold results");
}
