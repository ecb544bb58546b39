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
use capra::events::{expectation, EventExpr, Factor};
use capra::prelude::*;

/// One document's rule factors: per rule the three cases `¬G`, `G ∧ F`,
/// `G ∧ ¬F` with weights `1`, `σ`, `1 − σ`. `prune_inapplicable` mirrors
/// the engine's field: off, a rule whose context is `False` keeps its
/// (constant) factor.
pub fn factors(
    bindings: &[Arc<RuleBinding>],
    doc: IndividualId,
    prune_inapplicable: bool,
) -> Vec<Factor> {
    bindings
        .iter()
        .filter(|b| !(prune_inapplicable && b.is_inapplicable()))
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
    prune_inapplicable: bool,
) -> Vec<DocScore> {
    docs.iter()
        .map(|&doc| DocScore {
            doc,
            score: expectation(
                &env.kb.universe,
                &factors(bindings, doc, prune_inapplicable),
            )
            .clamp(0.0, 1.0),
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
