//! Group-context oracle: the hand-derived per-member score matrix of
//! `capra::teamctx::scenario` holds on **all four engines**, and the
//! group strategies genuinely *diverge* — consensus strategies (product,
//! average) pick one movie while extremal strategies (least misery, most
//! pleasure) and an alice-weighted average pick another — with every
//! group score pinned to 1e-12 against the matrix arithmetic.

use capra::prelude::*;
use capra::teamctx::scenario::{
    expected_group_scores, scenario, strategy_expectations, MEMBER_NAMES, MOVIE_NAMES,
    PER_MEMBER_EXPECTED,
};

fn engines() -> Vec<Box<dyn ScoringEngine + Sync>> {
    vec![
        Box::new(NaiveViewEngine::new()),
        Box::new(NaiveEnumEngine::new()),
        Box::new(FactorizedEngine::new()),
        Box::new(LineageEngine::new()),
    ]
}

#[test]
fn per_member_matrix_holds_on_all_four_engines() {
    let s = scenario();
    for engine in engines() {
        for (m, row) in PER_MEMBER_EXPECTED.iter().enumerate() {
            let scores = engine.score_all(&s.env(m), &s.movies).unwrap();
            for (score, expected) in scores.iter().zip(row) {
                assert!(
                    (score.score - expected).abs() < 1e-12,
                    "{} for {}: {} (expected {expected})",
                    engine.name(),
                    MEMBER_NAMES[m],
                    score.score,
                );
            }
        }
    }
}

#[test]
fn group_strategies_diverge_as_pinned_through_the_service() {
    let constructors: Vec<fn() -> Box<dyn ScoringEngine + Sync>> = vec![
        || Box::new(NaiveViewEngine::new()),
        || Box::new(NaiveEnumEngine::new()),
        || Box::new(FactorizedEngine::new()),
        || Box::new(LineageEngine::new()),
    ];
    for make in constructors {
        let s = scenario();
        let engine = make();
        let name = engine.name();
        let service = RankingService::new(engine, s.kb, s.rules);
        for (strategy, expected_top) in strategy_expectations() {
            let expected = expected_group_scores(&strategy);
            let ranked = service
                .rank_group(&s.members, &s.movies, MOVIE_NAMES.len(), &strategy)
                .unwrap();
            // Top-1 divergence: product/average pick "Rom Com", the
            // extremal and alice-weighted strategies pick "Action Blast".
            assert_eq!(
                service.kb().voc.individual_name(ranked[0].doc),
                expected_top,
                "{name} with {strategy:?}"
            );
            // And every combined score matches the matrix arithmetic.
            for doc in &ranked {
                let movie = service.kb().voc.individual_name(doc.doc).to_string();
                let idx = MOVIE_NAMES.iter().position(|&n| n == movie).unwrap();
                assert!(
                    (doc.score - expected[idx]).abs() < 1e-12,
                    "{name} with {strategy:?}: {movie} = {} (expected {})",
                    doc.score,
                    expected[idx],
                );
            }
        }
    }
}

#[test]
fn mood_swing_changes_the_consensus() {
    // A context event through the service moves the product strategy's
    // consensus off "Rom Com".
    let s = scenario();
    let service = RankingService::new(LineageEngine::new(), s.kb, s.rules);
    let top = |svc: &RankingService<LineageEngine>| {
        let ranked = svc
            .rank_group(&s.members, &s.movies, 1, &GroupStrategy::Product)
            .unwrap();
        svc.kb().voc.individual_name(ranked[0].doc).to_string()
    };
    assert_eq!(top(&service), "Rom Com");
    // A fresh low-probability MoodRomance assertion cannot lower bob's
    // certain mood: it disjoins a fresh variable, so the probability can
    // only rise. Instead, move the consensus through action: carol and
    // bob become certain action fans.
    service
        .assert(s.members[1], Fact::Concept("MoodAction".into()))
        .unwrap();
    service
        .assert(s.members[2], Fact::Concept("MoodAction".into()))
        .unwrap();
    assert_eq!(top(&service), "Action Blast");
}
