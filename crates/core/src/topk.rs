//! Top-k ranking with early termination.
//!
//! The paper's serving query is `LIMIT`-shaped — *"show me the ten best
//! programs for this situation"* — yet a cold [`crate::rank`] call scores
//! every candidate exactly. [`rank_top_k`] avoids that: each rule `r`
//! contributes a factor of at most `max(σ_r, 1 − σ_r)` whenever its context
//! applies, so a cheap per-document **upper bound** (no event-probability
//! evaluation, just membership lookups in the bound preference views) tells
//! us which documents could still reach the current top-k. Documents are
//! evaluated in descending bound order and the scan stops as soon as the
//! next bound falls below the k-th best exact score.
//!
//! Bound soundness comes in two regimes, chosen automatically:
//!
//! * **variable-disjoint rules** (the common case, and the factorized
//!   engine's correctness condition): the expectation factorises per rule,
//!   so a matching document is bounded by
//!   `(1 − P(G_r)) + P(G_r)·max(σ_r, 1 − σ_r)` and a non-matching one
//!   contributes exactly `(1 − P(G_r)) + P(G_r)·(1 − σ_r)`;
//! * **correlated rules**: the product no longer factorises, so the bound
//!   falls back to the world-wise maximum of each rule's factor — `1` unless
//!   the rule's context is *certain*, in which case `max(σ_r, 1 − σ_r)`
//!   (matching) or exactly `1 − σ_r` (non-matching). Still sound under
//!   arbitrary correlation, just less discriminating.
//!
//! The result is exactly `rank(score_all(docs))[..k]`, including the
//! deterministic tie-break by document id and [`rank`]'s rule that a
//! repeated candidate is listed once: candidates whose bound *ties* the
//! k-th score are always evaluated, and a `1e-9` slack absorbs
//! floating-point rounding between the bound and the engines' factor
//! arithmetic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::VarId;

use crate::bind::{bind_rules_shared, RuleBinding};
use crate::engines::{rank, DocScore, EvalScratch, ScoringEngine};
use crate::{Result, ScoringEnv};

/// Absolute slack added to upper bounds before pruning, absorbing the
/// floating-point rounding difference between the bound product and the
/// engines' own factor arithmetic (scores live in `[0, 1]`, so an absolute
/// slack is meaningful). Ties at the k-th score stay unpruned either way,
/// which is what makes the id tie-break exact.
pub(crate) const BOUND_SLACK: f64 = 1e-9;

/// Returns the exact top `k` of `rank(engine.score_all(env, docs))`,
/// evaluating only documents whose score upper bound can still reach the
/// running top-k. Cold entry point; sessions use
/// [`crate::ScoringSession::rank_top_k`] to reuse cached bindings.
pub fn rank_top_k<E>(
    env: &ScoringEnv<'_>,
    engine: &E,
    docs: &[IndividualId],
    k: usize,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + ?Sized,
{
    rank_top_k_bound(
        env,
        engine,
        &bind_rules_shared(env),
        docs,
        k,
        &mut EvalScratch::new(),
    )
}

/// [`rank_top_k`] over already-bound rules and reusable evaluation state —
/// the prepared entry point.
pub fn rank_top_k_bound<E>(
    env: &ScoringEnv<'_>,
    engine: &E,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
    k: usize,
    scratch: &mut EvalScratch,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + ?Sized,
{
    if k == 0 || docs.is_empty() {
        return Ok(Vec::new());
    }
    if k >= docs.len() {
        // Nothing to prune; a full ranking is the same answer.
        return Ok(rank(engine.score_all_bound(env, bindings, docs, scratch)?));
    }
    // Pruned documents are never handed to the engine, so per-document
    // input validation (e.g. strict factorized's correlation check) runs
    // up front — `rank_top_k` must error exactly when a full rank would.
    engine.validate_workload(env, bindings, docs)?;
    let order = bound_sorted_order(env, bindings, docs, scratch);
    scan_bounded(env, engine, bindings, &order, k, scratch, None)
}

/// The deterministic ranking order: score descending, document id ascending
/// (the tie-break of [`rank`]).
pub(crate) fn by_rank(a: &DocScore, b: &DocScore) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc))
}

/// Documents paired with their upper bounds, sorted descending by bound
/// (ties by document id) — the evaluation order of the bounded scans. A
/// repeated candidate sorts next to itself and is kept once, the cut
/// [`rank`] makes.
pub(crate) fn bound_sorted_order(
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
    scratch: &mut EvalScratch,
) -> Vec<(f64, IndividualId)> {
    let bounds = doc_upper_bounds(env, bindings, docs, scratch);
    let mut order: Vec<(f64, IndividualId)> =
        bounds.into_iter().zip(docs.iter().copied()).collect();
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    order.dedup_by_key(|&mut (_, doc)| doc);
    order
}

/// A monotonically increasing lower bound on the global k-th best score,
/// shared across parallel scan workers. Scores live in `[0, 1]`, where the
/// IEEE-754 bit pattern is monotone in the value, so an atomic `fetch_max`
/// on the bits implements a lock-free floating-point maximum.
pub(crate) struct SharedThreshold(AtomicU64);

impl SharedThreshold {
    pub(crate) fn new() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn raise(&self, value: f64) {
        self.0.fetch_max(value.to_bits(), Ordering::Relaxed);
    }
}

/// The bounded scan shared by the sequential and parallel top-k paths:
/// walks `order` (descending upper bounds) in batches, keeps the best `k`
/// scored documents, and stops as soon as the next bound falls below the
/// pruning floor — the scan's own k-th score, raised further by `shared`
/// when other workers have already proven a better one.
pub(crate) fn scan_bounded<E>(
    env: &ScoringEnv<'_>,
    engine: &E,
    bindings: &[Arc<RuleBinding>],
    order: &[(f64, IndividualId)],
    k: usize,
    scratch: &mut EvalScratch,
    shared: Option<&SharedThreshold>,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + ?Sized,
{
    // The single-scanner case is the stealing scan over a private cursor.
    let cursor = AtomicUsize::new(0);
    scan_bounded_stealing(env, engine, bindings, order, k, scratch, shared, &cursor)
}

/// [`scan_bounded`] over a **shared work queue**: each call to this function
/// is one worker of the parallel top-k path, stealing fixed-size batches of
/// the bound-sorted `order` through `cursor` (an atomic index into `order`)
/// until the queue is drained or the pruning frontier is reached.
///
/// Pruning stays exact under stealing: bounds are sorted descending, so
/// when a stolen batch is clipped at the frontier (every remaining bound is
/// below the floor — a proven lower bound on the global k-th best score),
/// the documents skipped by *all* workers are exactly documents that cannot
/// reach the top-k. Fast workers steal more batches than slow ones, so a
/// straggler never pins the tail of the queue.
#[allow(clippy::too_many_arguments)] // one worker's full scan context
pub(crate) fn scan_bounded_stealing<E>(
    env: &ScoringEnv<'_>,
    engine: &E,
    bindings: &[Arc<RuleBinding>],
    order: &[(f64, IndividualId)],
    k: usize,
    scratch: &mut EvalScratch,
    shared: Option<&SharedThreshold>,
    cursor: &AtomicUsize,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + ?Sized,
{
    let batch = k.max(16);
    let mut top: Vec<DocScore> = Vec::with_capacity(k + batch);
    loop {
        let mut floor = shared.map_or(f64::NEG_INFINITY, SharedThreshold::get);
        if top.len() == k {
            floor = floor.max(top[k - 1].score);
        }
        let start = cursor.fetch_add(batch, Ordering::Relaxed);
        if start >= order.len() {
            break;
        }
        // Clip the batch at the pruning frontier: bounds are sorted
        // descending, so everything past it is out too.
        let mut end = (start + batch).min(order.len());
        while end > start && order[end - 1].0 + BOUND_SLACK < floor {
            end -= 1;
        }
        if end == start {
            break;
        }
        let chunk: Vec<IndividualId> = order[start..end].iter().map(|&(_, d)| d).collect();
        let scores = engine.score_all_bound(env, bindings, &chunk, scratch)?;
        top.extend(scores);
        top.sort_unstable_by(by_rank);
        top.truncate(k);
        if let Some(shared) = shared {
            if top.len() == k {
                // k scored documents prove the global k-th best is at least
                // this good.
                shared.raise(top[k - 1].score);
            }
        }
    }
    Ok(top)
}

/// Per-rule bound factors: what a matching (`hit`) and a non-matching
/// (`miss`) document can contribute at most. Inapplicable rules contribute
/// the constant 1 and are dropped.
fn rule_bound_factors(
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    scratch: &mut EvalScratch,
) -> Vec<(Arc<RuleBinding>, f64, f64)> {
    let applicable: Vec<&Arc<RuleBinding>> =
        bindings.iter().filter(|b| !b.is_inapplicable()).collect();
    let disjoint = rules_variable_disjoint(&applicable);
    scratch.ensure_kb(env.kb);
    scratch.with_evaluator(&env.kb.universe, |ev| {
        applicable
            .iter()
            .map(|b| {
                let spread = b.sigma.max(1.0 - b.sigma);
                let (hit, miss) = if disjoint {
                    let pg = ev.prob(&b.context_event);
                    ((1.0 - pg) + pg * spread, (1.0 - pg) + pg * (1.0 - b.sigma))
                } else if b.context_event.is_true() {
                    // Certain context: the factor is σ/(1−σ) in every world.
                    (spread, 1.0 - b.sigma)
                } else {
                    // Correlated and uncertain: only the trivial world-wise
                    // bound is sound.
                    (1.0, 1.0)
                };
                (Arc::clone(b), hit, miss)
            })
            .collect()
    })
}

/// Score upper bound per document (parallel to `docs`): the product over
/// applicable rules of the hit/miss bound factor, depending on whether the
/// document appears in the rule's bound preference view.
pub(crate) fn doc_upper_bounds(
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
    scratch: &mut EvalScratch,
) -> Vec<f64> {
    let factors = rule_bound_factors(env, bindings, scratch);
    docs.iter()
        .map(|doc| {
            factors
                .iter()
                .map(|(b, hit, miss)| {
                    if b.preference_events.contains_key(doc) {
                        *hit
                    } else {
                        *miss
                    }
                })
                .product()
        })
        .collect()
}

/// True if no random variable backs events of two *different* rules
/// (context or preference, any document). Sharing within one rule is fine —
/// the per-rule bound maximises over the feature split — but cross-rule
/// sharing breaks the factorisation of the expectation, forcing the
/// conservative bound.
fn rules_variable_disjoint(bindings: &[&Arc<RuleBinding>]) -> bool {
    let mut owner: HashMap<VarId, usize> = HashMap::new();
    for (slot, b) in bindings.iter().enumerate() {
        let vars = b
            .context_event
            .support_slice()
            .iter()
            .chain(b.preference_events.values().flat_map(|e| e.support_slice()));
        for &var in vars {
            match owner.get(&var) {
                Some(&prev) if prev != slot => return false,
                _ => {
                    owner.insert(var, slot);
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactorizedEngine, Kb, LineageEngine, PreferenceRule, RuleRepository, Score};

    /// 40 docs with spread-out probabilistic features under two rules.
    fn fixture() -> (Kb, RuleRepository, IndividualId, Vec<IndividualId>) {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        kb.assert_concept_prob(user, "Breakfast", 0.7).unwrap();
        let docs: Vec<IndividualId> = (0..40)
            .map(|i| {
                let d = kb.individual(&format!("d{i}"));
                kb.assert_concept(d, "TvProgram");
                if i % 3 != 0 {
                    kb.assert_concept_prob(d, "Nice", 0.05 + 0.9 * (i as f64 / 40.0))
                        .unwrap();
                }
                if i % 4 == 0 {
                    kb.assert_concept_prob(d, "News", 0.3 + 0.015 * i as f64)
                        .unwrap();
                }
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R1",
                kb.parse("Weekend").unwrap(),
                kb.parse("TvProgram AND Nice").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "R2",
                kb.parse("Breakfast").unwrap(),
                kb.parse("News").unwrap(),
                Score::new(0.35).unwrap(),
            ))
            .unwrap();
        (kb, rules, user, docs)
    }

    #[test]
    fn top_k_matches_full_rank_prefix() {
        let (kb, rules, user, docs) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = FactorizedEngine::new();
        let full = rank(engine.score_all(&env, &docs).unwrap());
        for k in [1, 3, 10, docs.len(), docs.len() + 5] {
            let top = rank_top_k(&env, &engine, &docs, k).unwrap();
            let want = &full[..k.min(docs.len())];
            assert_eq!(top.len(), want.len(), "k = {k}");
            for (a, b) in top.iter().zip(want) {
                assert_eq!(a.doc, b.doc, "k = {k}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "k = {k}");
            }
        }
        assert!(rank_top_k(&env, &engine, &docs, 0).unwrap().is_empty());
        assert!(rank_top_k(&env, &engine, &[], 5).unwrap().is_empty());
    }

    #[test]
    fn correlated_rules_fall_back_to_sound_bounds() {
        // Two rules whose preferences share one choice variable (mutually
        // exclusive genres) plus a certain-context rule: the factorized
        // bound would under-estimate here, so the conservative regime must
        // kick in and still return the exact top-k.
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Morning");
        let a = kb.individual("A");
        let b = kb.individual("B");
        let docs: Vec<IndividualId> = (0..24)
            .map(|i| {
                let d = kb.individual(&format!("d{i}"));
                kb.assert_concept(d, "TvProgram");
                let kind = kb
                    .universe
                    .add_choice(&format!("kind{i}"), &[0.3 + 0.02 * i as f64, 0.2])
                    .unwrap();
                let e0 = kb.universe.atom(kind, 0).unwrap();
                let e1 = kb.universe.atom(kind, 1).unwrap();
                kb.assert_role_event(d, "hasGenre", a, e0);
                kb.assert_role_event(d, "hasGenre", b, e1);
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        let ctx = kb.parse("Morning").unwrap();
        rules
            .add(PreferenceRule::new(
                "A",
                ctx.clone(),
                kb.parse("EXISTS hasGenre.{A}").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "B",
                ctx,
                kb.parse("EXISTS hasGenre.{B}").unwrap(),
                Score::new(0.6).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = LineageEngine::new();
        let full = rank(engine.score_all(&env, &docs).unwrap());
        let top = rank_top_k(&env, &engine, &docs, 5).unwrap();
        for (a, b) in top.iter().zip(&full[..5]) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn strict_engine_errors_are_not_masked_by_pruning() {
        // A correlated doc with a *low* upper bound would never be
        // evaluated; the strict factorized engine must still reject the
        // workload, exactly like `rank(score_all(docs))` does.
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Morning");
        let a = kb.individual("A");
        let b = kb.individual("B");
        let docs: Vec<IndividualId> = (0..20)
            .map(|i| {
                let d = kb.individual(&format!("d{i}"));
                kb.assert_concept(d, "TvProgram");
                d
            })
            .collect();
        for (i, &d) in docs.iter().enumerate().skip(1) {
            kb.assert_role_prob(d, "hasGenre", a, 0.4 + 0.02 * i as f64)
                .unwrap();
        }
        // docs[0] is the only correlated one: both genres share a variable.
        let kind = kb.universe.add_choice("kind", &[0.4, 0.3]).unwrap();
        let e0 = kb.universe.atom(kind, 0).unwrap();
        let e1 = kb.universe.atom(kind, 1).unwrap();
        kb.assert_role_event(docs[0], "hasGenre", a, e0);
        kb.assert_role_event(docs[0], "hasGenre", b, e1);
        let mut rules = RuleRepository::new();
        let ctx = kb.parse("Morning").unwrap();
        rules
            .add(PreferenceRule::new(
                "A",
                ctx.clone(),
                kb.parse("EXISTS hasGenre.{A}").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "B",
                ctx,
                kb.parse("EXISTS hasGenre.{B}").unwrap(),
                Score::new(0.6).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let strict = FactorizedEngine::new();
        assert!(strict.score_all(&env, &docs).is_err(), "full rank rejects");
        assert!(
            rank_top_k(&env, &strict, &docs, 3).is_err(),
            "top-k must reject too, even if the correlated doc would prune"
        );
        // The permissive policy and the exact engine still serve the query.
        assert!(rank_top_k(&env, &FactorizedEngine::assuming_independence(), &docs, 3).is_ok());
        assert!(rank_top_k(&env, &LineageEngine::new(), &docs, 3).is_ok());
    }

    #[test]
    fn bounds_dominate_scores() {
        let (kb, rules, user, docs) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let bindings = bind_rules_shared(&env);
        let mut scratch = EvalScratch::new();
        let bounds = doc_upper_bounds(&env, &bindings, &docs, &mut scratch);
        let scores = FactorizedEngine::new().score_all(&env, &docs).unwrap();
        for (ub, s) in bounds.iter().zip(&scores) {
            assert!(
                s.score <= ub + BOUND_SLACK,
                "bound {ub} must dominate score {} for {:?}",
                s.score,
                s.doc
            );
        }
        // The bounds must discriminate (otherwise top-k degenerates to a
        // full scan on this workload).
        let distinct: std::collections::BTreeSet<u64> =
            bounds.iter().map(|b| b.to_bits()).collect();
        assert!(distinct.len() > 1);
    }
}
