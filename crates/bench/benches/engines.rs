//! Engine throughput at a fixed rule count: documents scored per second.

use capra_bench::{bench_db_config, ScalingWorkload};
use capra_core::{FactorizedEngine, LineageEngine, NaiveEnumEngine, ScoringEngine};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn engine_throughput(c: &mut Criterion) {
    let workload = ScalingWorkload::new(bench_db_config(), &[4]);
    let (_, rules) = &workload.rule_sets[0];
    let env = workload.env(rules);
    let docs = workload.docs();

    let mut group = c.benchmark_group("engine_throughput");
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.sample_size(20);
    group.bench_function("naive-enum/4rules", |b| {
        let engine = NaiveEnumEngine::new();
        b.iter(|| engine.score_all(&env, docs).expect("scores"));
    });
    group.bench_function("factorized/4rules", |b| {
        let engine = FactorizedEngine::new();
        b.iter(|| engine.score_all(&env, docs).expect("scores"));
    });
    group.bench_function("lineage/4rules", |b| {
        let engine = LineageEngine::new();
        b.iter(|| engine.score_all(&env, docs).expect("scores"));
    });
    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
