//! Criterion micro-benchmarks for the hot paths: string metrics, the text
//! pipeline, k-means, the field-distance vector (interned sorted-merge
//! Jaccard, `DistVec`, the held-report kernel, fixed-arity Euclidean), the
//! distributed classifier on a small workload, the pair store's checkpoint
//! encoders, what a commit's publish and a serve refresh cost, and what the
//! engine charges for launching a stage — alone and under a served lookup.
//!
//! Run with `cargo bench -p bench`.

use adr_model::{AdrReport, PairId};
use adr_synth::{Dataset, QuarterlyReplay, StreamingCorpus, SynthConfig};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use dedup::workload::{build_workload_on, ProcessedCorpus};
use dedup::{
    pair_distance, DedupConfig, DedupSystem, HeldReport, PairStore, ServeConfig, ServeQuery,
    ServeRequest, ServeService,
};
use fastknn::serial::{classify_brute, classify_fast_serial};
use fastknn::voronoi::VoronoiPartition;
use fastknn::{
    stage1_row, ClassifyScratch, FastKnn, FastKnnConfig, LabeledPair, Neighborhood, Walk,
};
use mlcore::kmeans::KMeans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmetrics::{
    euclidean, jaccard_distance, jaccard_distance_sorted, squared_euclidean,
    squared_euclidean_fixed,
};
use sparklet::Cluster;
use textprep::{stem, Pipeline, TokenInterner};

fn token_metrics(c: &mut Criterion) {
    let a = "the patient experienced uncontrollable coughing and severe headache";
    let b = "the subject reported uncontrollable cough and a severe headache episode";
    let ta: Vec<&str> = a.split_whitespace().collect();
    let tb: Vec<&str> = b.split_whitespace().collect();
    c.bench_function("jaccard/10_tokens", |bench| {
        bench.iter(|| jaccard_distance(black_box(&ta), black_box(&tb)))
    });
}

fn text_pipeline(c: &mut Criterion) {
    let narrative = "Reference number 4711 is a literature report received on 02-Oct-2013 \
                     pertaining to a 46 year-old male patient who experienced rhabdomyolysis \
                     while on atorvastatin for the treatment of unknown indication.";
    c.bench_function("porter_stem/word", |bench| {
        bench.iter(|| stem(black_box("rhabdomyolysis")))
    });
    let pipeline = Pipeline::paper();
    c.bench_function("pipeline/narrative_280ch", |bench| {
        bench.iter(|| pipeline.process(black_box(narrative)))
    });
    // The production path. Cold: every word is new to the interner, so each
    // is filtered, stemmed and interned. Warm: every word is a memo hit.
    c.bench_function("pipeline/intern_narrative_280ch_cold", |bench| {
        bench.iter(|| pipeline.intern(black_box(narrative), &mut TokenInterner::new()))
    });
    let mut warm = TokenInterner::new();
    pipeline.intern(narrative, &mut warm);
    c.bench_function("pipeline/intern_narrative_280ch_warm", |bench| {
        bench.iter(|| pipeline.intern(black_box(narrative), &mut warm))
    });
}

/// Sorted-merge Jaccard over interned ids, on realistic narrative term sets
/// (~30–50 stems).
fn kernel_jaccard(c: &mut Criterion) {
    let corpus = ProcessedCorpus::new(Dataset::generate(&SynthConfig::small(40, 3, 21)));
    let (a, b) = (&corpus.processed[0], &corpus.processed[1]);
    c.bench_function("kernel/jaccard_interned_sorted", |bench| {
        bench.iter(|| {
            jaccard_distance_sorted(black_box(&a.narrative_terms), black_box(&b.narrative_terms))
        })
    });
}

/// The full §4.2 pair distance: `DistVec` over interned sets — one pair
/// through the merge-walk reference, then one report against a run of 40
/// partners (the average run of `bulk-detect`'s blocked candidates) through
/// the held-report kernel the distance job runs, and through the reference.
fn kernel_pair_distance(c: &mut Criterion) {
    let corpus = ProcessedCorpus::new(Dataset::generate(&SynthConfig::small(200, 10, 1)));
    let (a, b) = (&corpus.processed[0], &corpus.processed[1]);
    c.bench_function("pair_distance/distvec_interned", |bench| {
        bench.iter(|| pair_distance(black_box(a), black_box(b)))
    });
    let partners = &corpus.processed[1..41];
    c.bench_function("pair_distance/held_run_of_40", |bench| {
        bench.iter(|| {
            let held = HeldReport::new(black_box(a));
            partners
                .iter()
                .map(|b| held.distance(black_box(b))[7])
                .sum::<f64>()
        })
    });
    c.bench_function("pair_distance/merge_run_of_40", |bench| {
        bench.iter(|| {
            partners
                .iter()
                .map(|b| pair_distance(black_box(a), black_box(b))[7])
                .sum::<f64>()
        })
    });
}

/// 8-dim Euclidean — dynamic-length slice loop vs the fixed-arity
/// kernel the compiler fully unrolls, linear vs squared.
fn kernel_euclidean(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let a: [f64; 8] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
    let b: [f64; 8] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
    let (va, vb) = (a.to_vec(), b.to_vec());
    c.bench_function("euclidean/slice8_sqrt", |bench| {
        bench.iter(|| euclidean(black_box(&va), black_box(&vb)))
    });
    c.bench_function("euclidean/slice8_squared", |bench| {
        bench.iter(|| squared_euclidean(black_box(&va), black_box(&vb)))
    });
    c.bench_function("euclidean/fixed8_squared", |bench| {
        bench.iter(|| squared_euclidean_fixed(black_box(&a), black_box(&b)))
    });
}

fn learning_primitives(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let sample: Vec<[f64; 8]> = (0..2_000)
        .map(|_| std::array::from_fn(|_| rng.gen_range(0.0..1.0)))
        .collect();
    c.bench_function("kmeans/2k_points_b16", |bench| {
        bench.iter(|| KMeans::new(16, 5).fit(black_box(&sample)))
    });
}

fn classifier(c: &mut Criterion) {
    let corpus = ProcessedCorpus::new(Dataset::generate(&SynthConfig::small(800, 40, 9)));
    let w = build_workload_on(&corpus, 10_000, 100, 9);
    let vp = VoronoiPartition::build(&w.train, 16, 9);
    c.bench_function("classify/brute_100tests_10ktrain", |bench| {
        bench.iter(|| classify_brute(black_box(&w.train), black_box(&w.test), 9, 0.0))
    });
    c.bench_function("classify/fast_serial_100tests_10ktrain_b16", |bench| {
        bench.iter(|| classify_fast_serial(black_box(&vp), black_box(&w.test), 9, 0.0))
    });

    // The cutoff gate's reject path: a full hood offered a candidate beyond
    // its k-th distance — what almost every candidate of a cell scan is.
    let mut hood = Neighborhood::new(9);
    for i in 0..9u64 {
        hood.push_sq(i as f64 * 0.01, i, false);
    }
    c.bench_function("classify/push_sq_full_hood_reject", |bench| {
        bench.iter(|| hood.push_sq(black_box(0.5), black_box(77), false))
    });

    // One stage-1 row (intra scan, positive scan, shortcut, Algorithm 1)
    // on the bulk job's shape: one 2,500-resident cell and 200 positives in
    // the low-distance corner, as pair vectors — five 0/1 fields, drug and
    // ADR Jaccard columns of a few values, a narrative one of many — so
    // `Walk::Lattice` walks the lattice's trie.
    let mut rng = StdRng::seed_from_u64(14);
    let pair = |rng: &mut StdRng, near: bool| -> [f64; 8] {
        let (bit, scale) = if near { (0.1, 0.3) } else { (0.6, 1.0) };
        std::array::from_fn(|d| match d {
            0..=4 => f64::from(u8::from(rng.gen_bool(bit))),
            5 => rng.gen_range(0..7) as f64 / 6.0 * scale,
            6 => rng.gen_range(0..28) as f64 / 27.0 * scale,
            _ => rng.gen_range(0..1_166) as f64 / 1_165.0 * scale,
        })
    };
    let mut train: Vec<LabeledPair> = Vec::with_capacity(2_700);
    for i in 0..2_500u64 {
        train.push(LabeledPair::new(i, pair(&mut rng, false), false));
    }
    for i in 2_500..2_700u64 {
        train.push(LabeledPair::new(i, pair(&mut rng, true), true));
    }
    let one_cell = VoronoiPartition::build(&train, 1, 14);
    let query = pair(&mut rng, false);
    let mut scratch = ClassifyScratch::default();
    c.bench_function("classify/stage1_row_2500cell_200pos", |bench| {
        bench.iter(|| {
            stage1_row(
                black_box(&one_cell),
                &one_cell.negative_clusters[0],
                0,
                black_box(&query),
                9,
                Walk::Lattice,
                &mut scratch,
            )
        })
    });
}

/// What an ingest commit pays to make the store durable, at the
/// `stream-ingest` shape: a full 20,000-negative reservoir, of which a
/// commit's feedback rewrites about a thousand slots.
fn store_checkpoint(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(15);
    let mut offer = |store: &mut PairStore, i: u64, duplicate: bool| {
        let v = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
        store.add(PairId::new(i, i + 10_000_000), v, duplicate);
    };
    let mut store = PairStore::new(20_000, 15);
    for i in 0..100 {
        offer(&mut store, i, true);
    }
    for i in 100..40_100 {
        offer(&mut store, i, false);
    }
    let snapshot = store.snapshot();
    c.bench_function("store/snapshot_20k", |bench| {
        bench.iter(|| black_box(&store).snapshot())
    });
    c.bench_function("store/restore_20k", |bench| {
        bench.iter(|| PairStore::restore(black_box(&snapshot)))
    });
    // Offers 40,000..43,000 of a 20,000-slot reservoir: each lands with
    // probability about a half, on about a thousand distinct slots.
    store.mark_checkpointed();
    for i in 40_100..42_300 {
        offer(&mut store, i, false);
    }
    let changed = store.delta().lines().count() - 5;
    assert!((900..1_200).contains(&changed), "{changed} changed lines");
    c.bench_function("store/delta_1k_of_20k", |bench| {
        bench.iter(|| black_box(&store).delta())
    });
}

/// The system configuration of the wall-clock benchmark's serve workloads.
fn serve_shape_config() -> DedupConfig {
    DedupConfig {
        use_blocking: true,
        bootstrap_negatives: 20_000,
        knn: FastKnnConfig {
            theta: 10.0,
            b: 8,
            ..FastKnnConfig::default()
        },
        ..DedupConfig::default()
    }
}

/// The two halves of an epoch at the `serve-refresh` shape — a 2,400-report
/// database on two executors, 20,000 negatives in the store, arrivals in
/// batches of 40. `system/publish_20k` is what ends every commit: the
/// training set out of the store and the fit on it, the model before it
/// dropped (its cached cells evicted) first. `serve/refresh_40_of_2400` is
/// what a service pays to move to the epoch of a commit of 40: the model
/// and the store by pointer, 40 reports applied to its own corpus and
/// blocking index and folded into the contingency tables, the interner's
/// new tokens, and the drop of the model and store it held.
fn epoch_publish_and_refresh(c: &mut Criterion) {
    const BASE: usize = 2_400;
    const BATCH: usize = 40;
    // Batches one database takes before a fresh one replaces it, so the
    // refresh is measured at 2,400-2,560 reports however long the run.
    const BATCHES_PER_SYSTEM: u64 = 4;
    let total = BASE + BATCH * BATCHES_PER_SYSTEM as usize;
    let replay = QuarterlyReplay::new(
        StreamingCorpus::new(SynthConfig::small(total, total / 20, 2016)),
        BATCH as u64,
    );
    let base_quarters = (BASE / BATCH) as u64;
    let base: Vec<AdrReport> = (0..base_quarters)
        .flat_map(|q| replay.quarter_reports(q))
        .collect();
    let config = serve_shape_config();
    let build = || {
        let mut sys = DedupSystem::new(Cluster::local(2), config);
        sys.bootstrap(&base, &replay.labelled_pairs_within(BASE as u64))
            .expect("bootstrap");
        let serve = ServeService::attach(&sys, ServeConfig::default()).expect("attach");
        (sys, serve, base_quarters)
    };

    let (sys, _, _) = build();
    assert_eq!(sys.store().non_duplicate_count(), 20_000);
    let mut live = None;
    c.bench_function("system/publish_20k", |bench| {
        bench.iter(|| {
            live = None;
            let train = sys.store().training_pairs();
            live = Some(FastKnn::fit(sys.cluster(), &train, config.knn).expect("fit"));
        })
    });
    drop((live, sys));

    // Setup writes the system the routine then reads.
    let bed = std::cell::RefCell::new(build());
    c.bench_function("serve/refresh_40_of_2400", |bench| {
        bench.iter_batched(
            || {
                let mut bed = bed.borrow_mut();
                if bed.2 == base_quarters + BATCHES_PER_SYSTEM {
                    *bed = build();
                }
                let (sys, _, quarter) = &mut *bed;
                sys.detect_new(&replay.quarter_reports(*quarter))
                    .expect("detect_new");
                *quarter += 1;
            },
            |()| {
                let (sys, serve, _) = &mut *bed.borrow_mut();
                serve.refresh(sys).expect("refresh")
            },
            BatchSize::PerIteration,
        )
    });
}

/// The engine's own price for a stage, with tasks that do nothing: eight
/// of them on two executors, the shape of every stage of a served lookup.
/// `hot` launches back to back, so the pool's workers are still awake from
/// the stage before; `parked` lets them fall asleep for 2 ms first, as they
/// do between the lookups of a service at 50 requests a second.
fn engine_stage_launch(c: &mut Criterion) {
    let cluster = Cluster::local(2);
    let stage = || {
        cluster
            .run_job("noop", 8, |task, _| Ok(vec![task]))
            .expect("noop stage")
    };
    c.bench_function("sparklet/stage_8_noop_hot", |bench| bench.iter(stage));
    c.bench_function("sparklet/stage_8_noop_parked", |bench| {
        bench.iter_batched(
            || {
                let parked = std::time::Instant::now();
                while parked.elapsed() < std::time::Duration::from_millis(2) {
                    std::hint::spin_loop();
                }
            },
            |()| stage(),
            BatchSize::PerIteration,
        )
    });
}

/// One duplicate probe through `run_open_loop` on the `serve-lookup` shape
/// (2,400 reports, two executors): blocking probe, a few dozen candidate
/// distances, and one classify stage. Then
/// `job_report()` on that service once it has answered 1,000 of them.
fn serve_single_probe(c: &mut Criterion) {
    const BASE: usize = 2_400;
    let corpus = StreamingCorpus::new(SynthConfig::small(BASE, BASE / 20, 2016));
    let replay = QuarterlyReplay::new(corpus, BASE as u64);
    let reports = replay.quarter_reports(0);
    let config = serve_shape_config();
    let mut sys = DedupSystem::new(Cluster::local(2), config);
    sys.bootstrap(&reports, &replay.labelled_pairs_within(BASE as u64))
        .expect("bootstrap");
    let mut serve = ServeService::attach(&sys, ServeConfig::default()).expect("attach");
    // Fresh-id copies of database reports: never a known member, always
    // classified.
    let next = std::cell::Cell::new(0usize);
    let mut lookup = || {
        let mut report = reports[next.get() % reports.len()].clone();
        report.id = 10_000_000 + next.get() as u64;
        next.set(next.get() + 1);
        serve
            .run_open_loop(&[ServeRequest {
                arrival_us: 0,
                query: ServeQuery::Duplicate { report },
            }])
            .expect("lookup")
    };
    c.bench_function("serve/lookup_single_probe", |bench| bench.iter(&mut lookup));
    // The report of a service that has been up a while: its sections are
    // running totals, so what is left to pay for is the clock's one row per
    // stage run (1,000 lookups are 1,000 of them: one classify stage
    // each).
    while next.get() < 1_000 {
        lookup();
    }
    c.bench_function("sparklet/job_report_after_1k_lookups", |bench| {
        bench.iter(|| sys.job_report())
    });
}

criterion_group!(
    benches,
    token_metrics,
    text_pipeline,
    kernel_jaccard,
    kernel_pair_distance,
    kernel_euclidean,
    learning_primitives,
    classifier,
    store_checkpoint,
    epoch_publish_and_refresh,
    engine_stage_launch,
    serve_single_probe
);
criterion_main!(benches);
