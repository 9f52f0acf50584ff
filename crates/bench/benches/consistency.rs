//! Criterion micro-bench backing the paper's Figure 6 discussion: the
//! CON-exclusive consistency machinery — Algorithm 1 (log analysis) and
//! Algorithm 2 (validity refresh over a full cache) — is claimed to cost
//! "less than 1% of CON overhead". This bench measures those code paths
//! directly, plus the EVI purge for contrast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_core::entry::CachedQuery;
use gc_core::validator::refresh_all;
use gc_dataset::{ChangeRecord, LogAnalyzer, OpType};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A batch of change records over `span` graph ids (paper batch: 20 ops).
fn records(n: usize, span: usize, seed: u64) -> Vec<ChangeRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let op = OpType::ALL[rng.random_range(0..4usize)];
            let graph_id = rng.random_range(0..span);
            match op {
                OpType::Ua | OpType::Ur => ChangeRecord::edge(
                    graph_id,
                    op,
                    rng.random_range(0..40),
                    rng.random_range(40..80),
                ),
                _ => ChangeRecord::structural(graph_id, op),
            }
        })
        .collect()
}

/// A full cache (120 entries = paper's cache 100 + window 20) of entries
/// with `span`-bit answer/validity sets.
fn full_cache(span: usize, seed: u64) -> Vec<CachedQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..120)
        .map(|_| {
            let graph = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]).expect("valid");
            let answer = BitSet::from_indices((0..span).filter(|_| rng.random::<f64>() < 0.2));
            CachedQuery::new(graph, QueryKind::Subgraph, answer, span, 0)
        })
        .collect()
}

fn bench_algorithm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_log_analysis");
    for &ops in &[20usize, 200, 2000] {
        let recs = records(ops, 40_000, 1);
        group.bench_with_input(BenchmarkId::from_parameter(ops), &recs, |b, r| {
            b.iter(|| LogAnalyzer::analyze(std::hint::black_box(r)))
        });
    }
    group.finish();
}

fn bench_algorithm2(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm2_validity_refresh");
    group.sample_size(30);
    // 1k = default experiment scale; 40k = the paper's AIDS id span
    for &span in &[1_000usize, 40_000] {
        let counters = LogAnalyzer::analyze(&records(20, span, 2));
        group.bench_with_input(
            BenchmarkId::new("batch20_cache120", span),
            &span,
            |b, &span| {
                let cache = full_cache(span, 3);
                b.iter_batched(
                    || cache.clone(),
                    |mut cache| refresh_all(cache.iter_mut(), &counters, span),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_evi_purge(c: &mut Criterion) {
    c.bench_function("evi_purge_cache120_span40k", |b| {
        let cache = full_cache(40_000, 4);
        b.iter_batched(
            || cache.clone(),
            |mut cache| cache.clear(),
            criterion::BatchSize::LargeInput,
        )
    });
}

/// The CON-R extension: net-delta analysis + retrospective refresh, at the
/// same batch/cache scale as the Algorithm 1/2 benches, so the extra cost
/// of retrospection is directly comparable.
fn bench_retro(c: &mut Criterion) {
    use gc_dataset::RetroAnalyzer;

    let recs = records(20, 40_000, 5);
    c.bench_function("retro_analysis_batch20", |b| {
        b.iter(|| RetroAnalyzer::analyze(std::hint::black_box(&recs)))
    });

    let effects = RetroAnalyzer::analyze(&recs);
    let cache = full_cache(40_000, 6);
    c.bench_function("retro_refresh_cache120_span40k", |b| {
        b.iter_batched(
            || cache.clone(),
            |mut cache| refresh_all(cache.iter_mut(), &effects, 40_000),
            criterion::BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_algorithm1,
    bench_algorithm2,
    bench_evi_purge,
    bench_retro
);
criterion_main!(benches);
