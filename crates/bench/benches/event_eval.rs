//! Event-expression evaluation micro-benchmarks and ablations: the cost of
//! exact inference, and what memoisation and independent-component
//! factorisation buy (`capra-events`' two design choices).

use capra_events::{Evaluator, EventExpr, Universe};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A "diamond" expression that reuses sub-expressions heavily: OR over
/// pairwise conjunctions of a sliding window — memoisation gold.
fn window_expr(u: &mut Universe, n: usize) -> (Universe, EventExpr) {
    let events: Vec<EventExpr> = (0..n)
        .map(|i| {
            let v = u
                .add_bool(&format!("w{i}"), 0.3 + 0.4 * (i as f64 / n as f64))
                .unwrap();
            u.bool_event(v).unwrap()
        })
        .collect();
    let expr = EventExpr::or(
        events
            .windows(2)
            .map(|w| EventExpr::and([w[0].clone(), w[1].clone()])),
    );
    (std::mem::take(u), expr)
}

/// Independent clusters: an AND of `k` disjoint three-variable ORs —
/// component factorisation should make this linear in `k`.
fn cluster_expr(u: &mut Universe, k: usize) -> (Universe, EventExpr) {
    let clusters: Vec<EventExpr> = (0..k)
        .map(|c| {
            let events: Vec<EventExpr> = (0..3)
                .map(|i| {
                    let v = u.add_bool(&format!("c{c}_{i}"), 0.5).unwrap();
                    u.bool_event(v).unwrap()
                })
                .collect();
            EventExpr::or(events)
        })
        .collect();
    (std::mem::take(u), EventExpr::and(clusters))
}

fn eval_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_eval/window");
    for n in [4usize, 8, 12, 16] {
        let (u, expr) = window_expr(&mut Universe::new(), n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| Evaluator::new(&u).prob(&expr));
        });
    }
    group.finish();
}

fn memo_ablation(c: &mut Criterion) {
    let (u, expr) = window_expr(&mut Universe::new(), 14);
    let mut group = c.benchmark_group("event_eval/memo_ablation");
    group.bench_function("memo-on", |b| {
        b.iter(|| Evaluator::with_options(&u, true, true).prob(&expr));
    });
    group.bench_function("memo-off", |b| {
        b.iter(|| Evaluator::with_options(&u, false, true).prob(&expr));
    });
    group.finish();
}

fn component_ablation(c: &mut Criterion) {
    let (u, expr) = cluster_expr(&mut Universe::new(), 6);
    let mut group = c.benchmark_group("event_eval/component_ablation");
    group.bench_function("components-on", |b| {
        b.iter(|| Evaluator::with_options(&u, true, true).prob(&expr));
    });
    group.bench_function("components-off", |b| {
        b.iter(|| Evaluator::with_options(&u, true, false).prob(&expr));
    });
    group.finish();
}

criterion_group!(benches, eval_scaling, memo_ablation, component_ablation);
criterion_main!(benches);
