//! Parallel scoring at serving scale: 1024- and 4096-document candidate
//! sets, where sharding over the shared evaluation-cache tier should shine.
//!
//! * `topk/seq` vs. `topk/par4` — cold `rank_top_k` against
//!   `rank_top_k_parallel` on 4 workers (the tentpole comparison: the
//!   parallel path must win on large candidate sets, not just avoid
//!   losing). Top-k forks only over documents the engine defers, and this
//!   workload has none: `par4` is the sequential closed-form sweep plus a
//!   pool checkout, so the pair now guards "no thread spawned for
//!   nothing";
//! * `score_all/warm-eval-par4` — a [`ParallelScoringSession`] with the
//!   score cache cleared each iteration: bindings and the frozen snapshot
//!   tier stay warm, so workers only rebuild per-document probabilities;
//! * `score_all/warm-par4` vs. `score_all/warm-seq` — fully warm repeat
//!   calls (pure cache-lookup path) for the parallel and sequential
//!   sessions.
//!
//! Numbers are only meaningful relative to each other on the same machine:
//! on a single-core container the `par4` variants degenerate to sequential
//! execution plus queue overhead, while multi-core hardware is where the
//! ≥2× target applies.

use capra_bench::ScalingWorkload;
use capra_core::parallel::{rank_top_k_parallel, ParallelScoringSession};
use capra_core::{rank_top_k, LineageEngine, ScoringSession};
use capra_tvtouch::generate::DbConfig;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const K: usize = 10;
const THREADS: usize = 4;

fn serving_config(programs: usize) -> DbConfig {
    DbConfig {
        persons: 100,
        programs,
        scaling_features: 16,
        ..DbConfig::default()
    }
}

fn parallel_session(c: &mut Criterion) {
    for n_docs in [1024usize, 4096] {
        let workload = ScalingWorkload::new(serving_config(n_docs), &[4]);
        let (_, rules) = &workload.rule_sets[0];
        let env = workload.env(rules);
        let docs = workload.docs();
        assert_eq!(docs.len(), n_docs);

        // Sanity: the parallel paths must be exact before we measure them.
        let engine = LineageEngine::new();
        let seq = rank_top_k(&env, &engine, docs, K).expect("top-k");
        let par = rank_top_k_parallel(&engine, &env, docs, K, THREADS).expect("top-k");
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        let mut group = c.benchmark_group(format!("parallel_session/{n_docs}"));
        group.throughput(Throughput::Elements(n_docs as u64));
        group.sample_size(10);
        group.bench_function("topk/seq/lineage", |b| {
            let engine = LineageEngine::new();
            b.iter(|| rank_top_k(&env, &engine, docs, K).expect("top-k"));
        });
        group.bench_function("topk/par4/lineage", |b| {
            let engine = LineageEngine::new();
            b.iter(|| rank_top_k_parallel(&engine, &env, docs, K, THREADS).expect("top-k"));
        });

        let engine = LineageEngine::new();
        let mut seq_session = ScoringSession::new();
        seq_session.score_all(&engine, &env, docs).expect("warm-up");
        let mut par_session = ParallelScoringSession::new(THREADS);
        par_session.score_all(&engine, &env, docs).expect("warm-up");
        // Warm sanity: the sessions agree bit-for-bit.
        let a = seq_session.score_all(&engine, &env, docs).expect("scores");
        let b = par_session.score_all(&engine, &env, docs).expect("scores");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        group.bench_function("score_all/warm-eval-par4/lineage", |b| {
            b.iter(|| {
                par_session.invalidate_scores();
                par_session.score_all(&engine, &env, docs).expect("scores")
            });
        });
        group.bench_function("score_all/warm-par4/lineage", |b| {
            b.iter(|| par_session.score_all(&engine, &env, docs).expect("scores"));
        });
        group.bench_function("score_all/warm-seq/lineage", |b| {
            b.iter(|| seq_session.score_all(&engine, &env, docs).expect("scores"));
        });
        group.finish();
    }
}

criterion_group!(benches, parallel_session);
criterion_main!(benches);
