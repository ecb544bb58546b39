//! Engine throughput at a fixed rule count: documents scored per second,
//! plus the pruning ablation.

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

/// Ablation: rule-applicability pruning in the lineage engine. Half the
/// rules reference contexts that never apply; pruning should skip them.
fn pruning_ablation(c: &mut Criterion) {
    let workload = ScalingWorkload::new(bench_db_config(), &[8]);
    let (_, rules) = &workload.rule_sets[0];
    // Extend with 8 inapplicable rules.
    let mut padded = rules.clone();
    let mut db_kb = workload.db.kb.clone();
    for i in 0..8 {
        padded
            .add(capra_core::PreferenceRule::new(
                format!("never-{i}"),
                db_kb.parse(&format!("NeverHappens_{i}")).expect("concept"),
                db_kb.parse("TvProgram").expect("concept"),
                capra_core::Score::new(0.5).expect("score"),
            ))
            .expect("unique");
    }
    let env = capra_core::ScoringEnv {
        kb: &db_kb,
        rules: &padded,
        user: workload.db.user,
    };
    let docs = &workload.docs()[..20];

    let mut group = c.benchmark_group("pruning_ablation");
    group.sample_size(15);
    group.bench_function("lineage/prune-on", |b| {
        let engine = LineageEngine::new();
        b.iter(|| engine.score_all(&env, docs).expect("scores"));
    });
    group.bench_function("lineage/prune-off", |b| {
        let engine = LineageEngine {
            prune_inapplicable: false,
        };
        b.iter(|| engine.score_all(&env, docs).expect("scores"));
    });
    group.finish();
}

criterion_group!(benches, engine_throughput, pruning_ablation);
criterion_main!(benches);
