//! What the consistency suites share.
//!
//! The bit-level reference for `LineageEngine`, built on the test side from
//! public pieces only: per document, the three-case factor of every rule
//! from the binding's public fields, through `capra::events::expectation`
//! on fresh state. One document at a time, nothing memoised, no route to
//! choose — whatever the engine does per batch has to come out at these
//! bits. Beside it, the cold-bind ranking every cached path is held to and
//! the eviction policies the suites draw from.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::sync::Arc;

use capra::core::RuleBinding;
use capra::dl::IndividualId;
use capra::events::{expectation, Evaluator, EventExpr, Factor};
use capra::prelude::*;

/// One document's rule factors: per rule whose context is not `False`
/// the three cases `¬G`, `G ∧ F`, `G ∧ ¬F` with weights `1`, `σ`, `1 − σ`
/// (a `False` context's factor is the constant 1).
pub fn factors(bindings: &[Arc<RuleBinding>], doc: IndividualId) -> Vec<Factor> {
    bindings
        .iter()
        .filter(|b| !b.is_inapplicable())
        .map(|b| {
            let (g, f) = (b.context_event.clone(), b.preference_event(doc));
            Factor::new([
                (EventExpr::not(g.clone()), 1.0),
                (EventExpr::and([g.clone(), f.clone()]), b.sigma),
                (EventExpr::and([g, EventExpr::not(f)]), 1.0 - b.sigma),
            ])
        })
        .collect()
}

/// `E[Π_r term_r]` for every document of `docs` under `bindings`, clamped
/// like the engines clamp.
pub fn reference_scores(
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
) -> Vec<DocScore> {
    docs.iter()
        .map(|&doc| DocScore {
            doc,
            score: expectation(&env.kb.universe, &factors(bindings, doc)).clamp(0.0, 1.0),
        })
        .collect()
}

/// `FactorizedEngine`'s closed form for every document of `docs`, from
/// public pieces: per rule whose context is not `False`, in rule order,
/// `(1 − P(G)) + P(G)·(P(F)·σ + (1 − P(F))·(1 − σ))` with `P` the
/// evaluator's, the product clamped.
pub fn factorized_reference(
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
) -> Vec<DocScore> {
    let mut evaluator = Evaluator::new(&env.kb.universe);
    docs.iter()
        .map(|&doc| {
            let mut score = 1.0f64;
            for b in bindings.iter().filter(|b| !b.is_inapplicable()) {
                let pg = evaluator.prob(&b.context_event);
                let pf = evaluator.prob(&b.preference_event(doc));
                let matched = pf * b.sigma + (1.0 - pf) * (1.0 - b.sigma);
                score *= (1.0 - pg) + pg * matched;
            }
            DocScore {
                doc,
                score: score.clamp(0.0, 1.0),
            }
        })
        .collect()
}

/// `(document, score bits)` of a score list, for whole-list comparisons.
pub fn bits(scores: &[DocScore]) -> Vec<(IndividualId, u64)> {
    scores.iter().map(|s| (s.doc, s.score.to_bits())).collect()
}

/// The cold reference: bind from scratch, score everything, rank, cut.
pub fn cold_rank<E: ScoringEngine + ?Sized>(
    engine: &E,
    env: &ScoringEnv<'_>,
    docs: &[IndividualId],
    k: usize,
) -> Vec<DocScore> {
    let mut full = rank(engine.score_all(env, docs).unwrap());
    full.truncate(k);
    full
}
