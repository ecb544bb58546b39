//! Top-k early termination vs. full ranking on a `LIMIT`-shaped workload:
//! 256 candidate programs, 4 rules, k = 10 — the paper's "ten best programs
//! for this situation" query.

use capra_bench::ScalingWorkload;
use capra_core::{rank, rank_top_k, FactorizedEngine, LineageEngine, ScoringEngine};
use capra_tvtouch::generate::DbConfig;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const K: usize = 10;

fn topk_config() -> DbConfig {
    DbConfig {
        persons: 100,
        programs: 256,
        scaling_features: 16,
        ..DbConfig::default()
    }
}

fn topk(c: &mut Criterion) {
    let workload = ScalingWorkload::new(topk_config(), &[4]);
    let (_, rules) = &workload.rule_sets[0];
    let env = workload.env(rules);
    let docs = workload.docs();
    assert!(docs.len() >= 200, "LIMIT-shaped workload needs >= 200 docs");

    // Sanity: pruning must be exact before we measure it.
    let engine = FactorizedEngine::new();
    let full = rank(engine.score_all(&env, docs).expect("scores"));
    let top = rank_top_k(&env, &engine, docs, K).expect("top-k");
    assert_eq!(top.len(), K);
    for (a, b) in top.iter().zip(&full[..K]) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }

    let mut group = c.benchmark_group("topk");
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.sample_size(15);
    group.bench_function("factorized/full-rank", |b| {
        let engine = FactorizedEngine::new();
        b.iter(|| rank(engine.score_all(&env, docs).expect("scores")));
    });
    group.bench_function("factorized/rank_top_k/10", |b| {
        let engine = FactorizedEngine::new();
        b.iter(|| rank_top_k(&env, &engine, docs, K).expect("top-k"));
    });
    group.bench_function("lineage/full-rank", |b| {
        let engine = LineageEngine::new();
        b.iter(|| rank(engine.score_all(&env, docs).expect("scores")));
    });
    group.bench_function("lineage/rank_top_k/10", |b| {
        let engine = LineageEngine::new();
        b.iter(|| rank_top_k(&env, &engine, docs, K).expect("top-k"));
    });
    group.finish();
}

criterion_group!(benches, topk);
criterion_main!(benches);
