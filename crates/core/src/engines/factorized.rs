use std::collections::HashMap;
use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::{BatchEvaluator, EventExpr, VarId};

use crate::bind::RuleBinding;
use crate::engines::{DocScore, EvalScratch, Rows, ScoringEngine};
use crate::{CoreError, Result, ScoringEnv};

/// What to do when rule events share random variables (i.e. features are
/// *not* independent and the factorized closed form is only approximate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrelationPolicy {
    /// Refuse to score and point the caller at [`crate::LineageEngine`].
    #[default]
    Error,
    /// Compute anyway, treating the marginals as independent (the paper's
    /// own simplifying assumption in its worked example: "we assume that
    /// features of documents are independent").
    AssumeIndependent,
}

/// The linear-time engine: exploits the independence factorisation of the
/// Section 3.3 formula.
///
/// When the context events `G_r` and the per-document feature events `F_rd`
/// are mutually independent, the expectation of the product factorises into
/// per-rule closed forms:
///
/// ```text
/// score(d) = Π_r [ (1 − P(G_r)) + P(G_r) · (P(F_rd)·σ_r + (1 − P(F_rd))·(1 − σ_r)) ]
/// ```
///
/// This is exactly the improvement the paper's Discussion section asks for
/// ("prune the amount of applicable rules and candidate documents in early
/// stages"): cost is `O(#rules · #docs)` instead of `O(4^#rules · #docs)`,
/// and rules with `P(G_r) = 0` drop out entirely.
///
/// Correctness requires independence; the engine *verifies* it by checking
/// that no random variable is shared between any two of the involved events
/// (see [`CorrelationPolicy`]).
#[derive(Debug, Clone, Default)]
pub struct FactorizedEngine {
    /// Behaviour when shared variables are detected.
    pub on_correlation: CorrelationPolicy,
}

impl FactorizedEngine {
    /// Creates the engine with the strict (erroring) correlation policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the engine that assumes independence without checking.
    pub fn assuming_independence() -> Self {
        Self {
            on_correlation: CorrelationPolicy::AssumeIndependent,
        }
    }

    fn correlated(kb: &crate::Kb, var: VarId) -> CoreError {
        CoreError::CorrelatedFeatures {
            variable: kb.universe.name(var).unwrap_or("<unknown>").to_string(),
        }
    }

    /// Maps every variable backing a *context* event to its rule slot,
    /// erroring if two rules' contexts share a variable. Context events do
    /// not depend on the document, so this runs **once per `score_all`**;
    /// the per-document check below only walks the preference supports.
    fn context_owners(
        bindings: &[Arc<RuleBinding>],
        kb: &crate::Kb,
    ) -> Result<HashMap<VarId, usize>> {
        let mut owner: HashMap<VarId, usize> = HashMap::new();
        for (slot, binding) in bindings.iter().enumerate() {
            for &var in binding.context_event.support_slice() {
                match owner.get(&var) {
                    Some(&prev) if prev != slot => return Err(Self::correlated(kb, var)),
                    _ => {
                        owner.insert(var, slot);
                    }
                }
            }
        }
        Ok(owner)
    }

    /// Verifies that no variable backs two different rule events of
    /// `slot`'s document, read off the columns of every rule in `rows`.
    /// Context–context conflicts were ruled out by [`Self::context_owners`];
    /// here a preference variable conflicts if it appears in *any* context
    /// event (context and preference of one rule are distinct events whose
    /// independence also matters) or in another rule's preference event.
    /// Supports come from the per-node caches — no tree walks.
    fn check_doc_independence(
        rows: &Rows<'_>,
        rules: usize,
        slot: usize,
        ctx_owner: &HashMap<VarId, usize>,
        scratch: &mut HashMap<VarId, usize>,
        kb: &crate::Kb,
    ) -> Result<()> {
        scratch.clear();
        // A rule without a cell has the event `False`: empty support.
        for rule in 0..rules {
            let Some(event) = rows.column(rule).event(slot) else {
                continue;
            };
            for &var in event.support_slice() {
                if ctx_owner.contains_key(&var) {
                    return Err(Self::correlated(kb, var));
                }
                match scratch.get(&var) {
                    Some(&prev) if prev != rule => return Err(Self::correlated(kb, var)),
                    _ => {
                        scratch.insert(var, rule);
                    }
                }
            }
        }
        Ok(())
    }

    /// Doc-invariant screen over the preference supports: one pass over
    /// each rule's bound view instead of per-document lookups. `false`
    /// proves no preference variable (for *any* document) collides with a
    /// context variable or another rule's preference variable — then no
    /// per-document conflict is possible and the exact check can be
    /// skipped. `true` may be a false alarm (the collision can involve
    /// unrequested documents, or two *different* documents, which is
    /// legal) and only means [`Self::check_doc_independence`] must run.
    fn preference_screen_suspicious(
        bindings: &[Arc<RuleBinding>],
        ctx_owner: &HashMap<VarId, usize>,
    ) -> bool {
        let mut pref_owner: HashMap<VarId, usize> = HashMap::new();
        for (slot, binding) in bindings.iter().enumerate() {
            for event in binding.preference_events.values() {
                for &var in event.support_slice() {
                    if ctx_owner.contains_key(&var) {
                        return true;
                    }
                    match pref_owner.get(&var) {
                        Some(&prev) if prev != slot => return true,
                        _ => {
                            pref_owner.insert(var, slot);
                        }
                    }
                }
            }
        }
        false
    }
}

impl ScoringEngine for FactorizedEngine {
    fn name(&self) -> &'static str {
        "factorized"
    }

    fn config_tag(&self) -> u64 {
        // The policy decides between an error and an approximate score on
        // correlated inputs, so the two configurations must not share
        // cached results.
        self.on_correlation as u64
    }

    fn validate_workload(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
    ) -> Result<()> {
        // The same independence checks `score_all_bound` performs, over
        // every document handed in — for top-k behind a wrapper that defers
        // on this engine's behalf, which must reject a correlated workload
        // even when pruning would never evaluate the offending document.
        // (The engine's own first phase scores, and so checks, every slot.)
        if let CorrelationPolicy::Error = self.on_correlation {
            let ctx_owner = Self::context_owners(bindings, env.kb)?;
            if Self::preference_screen_suspicious(bindings, &ctx_owner) {
                let set = env.kb.rows().set_for(env.kb, bindings);
                let rows = set.rows(bindings, docs);
                let mut owner_scratch: HashMap<VarId, usize> = HashMap::new();
                for slot in 0..docs.len() {
                    Self::check_doc_independence(
                        &rows,
                        bindings.len(),
                        slot,
                        &ctx_owner,
                        &mut owner_scratch,
                        env.kb,
                    )?;
                }
            }
        }
        Ok(())
    }

    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        scratch.ensure_kb(env.kb);
        let set = env.kb.rows().set_for(env.kb, bindings);
        let rows = set.rows(bindings, docs);
        // One sweep per applicable rule over the whole batch, each distinct
        // preference event evaluated once per sweep; a single document is a
        // one-lane batch. Per lane the factors multiply in rule order.
        let applicable: Vec<(usize, &RuleBinding)> = bindings
            .iter()
            .map(Arc::as_ref)
            .enumerate()
            .filter(|(_, b)| !b.is_inapplicable())
            .collect();
        let (result, stats) = scratch.with_evaluator(&env.kb.universe, |ev| {
            let mut batch = BatchEvaluator::new(ev);
            let result = (|| -> Result<Vec<DocScore>> {
                if let CorrelationPolicy::Error = self.on_correlation {
                    let ctx_owner = Self::context_owners(bindings, env.kb)?;
                    // The doc-invariant screen costs one pass over every
                    // bound view; worth it only when the views are batch-
                    // sized. When they dwarf the batch (a short candidate
                    // list over a large catalog), the per-document checks
                    // are cheaper — and either route
                    // raises the same first error in the same document
                    // order.
                    let view_total: usize =
                        bindings.iter().map(|b| b.preference_events.len()).sum();
                    if view_total > docs.len().saturating_mul(4)
                        || Self::preference_screen_suspicious(bindings, &ctx_owner)
                    {
                        let mut owner_scratch: HashMap<VarId, usize> = HashMap::new();
                        for slot in 0..docs.len() {
                            Self::check_doc_independence(
                                &rows,
                                bindings.len(),
                                slot,
                                &ctx_owner,
                                &mut owner_scratch,
                                env.kb,
                            )?;
                        }
                    }
                }
                let mut scores = vec![1.0f64; docs.len()];
                // Each rule sweep reads the rule's feature column at the
                // documents' rows; a document without a cell under the rule
                // has the event `False`.
                let mut column: Vec<EventExpr> = Vec::with_capacity(docs.len());
                for &(rule, b) in &applicable {
                    let pg = b.context_prob(&env.kb.universe);
                    let cells = rows.column(rule);
                    column.clear();
                    column.extend(
                        (0..docs.len())
                            .map(|slot| cells.event(slot).cloned().unwrap_or(EventExpr::False)),
                    );
                    let pfs = batch.probs(&column);
                    for (score, pf) in scores.iter_mut().zip(&pfs) {
                        let matched = pf * b.sigma + (1.0 - pf) * (1.0 - b.sigma);
                        *score *= (1.0 - pg) + pg * matched;
                    }
                }
                Ok(docs
                    .iter()
                    .zip(scores)
                    .map(|(&doc, score)| DocScore {
                        doc,
                        score: score.clamp(0.0, 1.0),
                    })
                    .collect())
            })();
            (result, batch.stats())
        });
        scratch.record_batch(stats);
        result
    }

    fn score_closed_form(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Option<f64>>> {
        // The closed form is all this engine has: nothing is deferred, and
        // the independence checks above cover every slot.
        let scores = self.score_all_bound(env, bindings, docs, scratch)?;
        Ok(scores.into_iter().map(|s| Some(s.score)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kb, PreferenceRule, RuleRepository, Score};

    /// The paper's Section 4.2 worked example, rule R1 only, on Channel 5
    /// news: term = 0.95·0.8 + 0.05·0.2 = 0.77.
    #[test]
    fn paper_single_rule_term() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        let ch5 = kb.individual("Channel5");
        kb.assert_concept(ch5, "TvProgram");
        let hi = kb.individual("HUMAN-INTEREST");
        kb.assert_role_prob(ch5, "hasGenre", hi, 0.95).unwrap();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R1",
                kb.parse("Weekend").unwrap(),
                kb.parse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
                    .unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let s = FactorizedEngine::new().score(&env, ch5).unwrap();
        assert!((s.score - 0.77).abs() < 1e-12, "{}", s.score);
    }

    #[test]
    fn uncertain_context_blends_toward_one() {
        // P(G) = 0.5, P(F) = 1: score = 0.5 + 0.5·σ.
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept_prob(user, "Breakfast", 0.5).unwrap();
        let doc = kb.individual("doc");
        kb.assert_concept(doc, "News");
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R",
                kb.parse("Breakfast").unwrap(),
                kb.parse("News").unwrap(),
                Score::new(0.9).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let s = FactorizedEngine::new().score(&env, doc).unwrap();
        assert!((s.score - 0.95).abs() < 1e-12);
    }

    #[test]
    fn detects_correlation_and_policy_overrides() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Morning");
        let doc = kb.individual("doc");
        let a = kb.individual("A");
        let b = kb.individual("B");
        let kind = kb.universe.add_choice("kind", &[0.5, 0.5]).unwrap();
        let e0 = kb.universe.atom(kind, 0).unwrap();
        let e1 = kb.universe.atom(kind, 1).unwrap();
        kb.assert_role_event(doc, "hasGenre", a, e0);
        kb.assert_role_event(doc, "hasGenre", b, e1);
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
        let err = FactorizedEngine::new().score(&env, doc);
        assert!(
            matches!(err, Err(CoreError::CorrelatedFeatures { .. })),
            "{err:?}"
        );
        // Permissive policy computes the independence approximation.
        let s = FactorizedEngine::assuming_independence()
            .score(&env, doc)
            .unwrap();
        let approx = (0.5 * 0.8 + 0.5 * 0.2) * (0.5 * 0.6 + 0.5 * 0.4);
        assert!((s.score - approx).abs() < 1e-12);
    }

    #[test]
    fn inapplicable_rules_are_free() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        let doc = kb.individual("doc");
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "Never",
                kb.parse("Holiday").unwrap(),
                kb.parse("TvProgram").unwrap(),
                Score::new(0.1).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let s = FactorizedEngine::new().score(&env, doc).unwrap();
        assert_eq!(s.score, 1.0);
    }
}
