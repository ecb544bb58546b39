use std::sync::Arc;

use capra_dl::IndividualId;

use crate::bind::RuleBinding;
use crate::engines::lineage::column_pass;
use crate::engines::{DocScore, EvalScratch, ScoringEngine};
use crate::{CoreError, Result, ScoringEnv};

/// What to do with a document whose rule events share a random variable —
/// whose features are *not* independent, so that the product of their
/// marginals is only an approximation of its score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrelationPolicy {
    /// Refuse to score and point the caller at [`crate::LineageEngine`]:
    /// [`CoreError::CorrelatedFeatures`], naming the shared variable of the
    /// first such document in the batch.
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
/// The closed form is the [`crate::LineageEngine`]'s column pass, run by
/// the same code: a document its lane test admits gets lineage's score, bit
/// for bit. For a document the lane test rejects, the engine takes the
/// product of the marginals — the row's `(P(F_rd), P(¬F_rd))` and the
/// binding's `P(G_r)` — instead of lineage's Shannon expansion. That is
/// exact where the rejection was for the shape of an event alone (a
/// conjunction the exact route would flatten); where two of the document's
/// factors share a variable, [`CorrelationPolicy`] decides. Only rules whose
/// context applies count, and a document whose certain factors already
/// multiply to 0 scores 0 whatever the others share.
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
        // For top-k behind a wrapper that defers on this engine's behalf:
        // the scoring pass itself is the test, on a scratch of its own.
        if self.on_correlation == CorrelationPolicy::Error {
            self.score_all_bound(env, bindings, docs, &mut EvalScratch::new())?;
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
        let strict = self.on_correlation == CorrelationPolicy::Error;
        let (scores, _) = column_pass(
            env,
            bindings,
            docs,
            scratch,
            |contexts, rows, deferred, scores, expectation| {
                let mut seen = Vec::new();
                for &slot in deferred {
                    let shared = if strict {
                        contexts.shared(rows, slot, &mut seen)
                    } else {
                        None
                    };
                    if let Some(var) = shared {
                        let name = env.kb.universe.name(var).unwrap_or("<unknown>");
                        return Err(CoreError::CorrelatedFeatures {
                            variable: name.to_string(),
                        });
                    }
                    scores[slot].score = contexts.marginal(rows, slot, expectation);
                }
                // A marginal product is a closed form: no fallback.
                Ok(0)
            },
        )?;
        Ok(scores)
    }

    fn score_closed_form(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Option<f64>>> {
        // The closed form is all this engine has: nothing is deferred.
        let scores = self.score_all_bound(env, bindings, docs, scratch)?;
        Ok(scores.into_iter().map(|s| Some(s.score)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_rules_shared, Kb, LineageEngine, RuleRepository};

    /// `doc`'s score on `engine` for `user` under the rules of `text`
    /// ([`RuleRepository::from_text`]).
    fn score(
        engine: &dyn ScoringEngine,
        kb: &mut Kb,
        user: IndividualId,
        doc: IndividualId,
        text: &str,
    ) -> Result<f64> {
        let rules = RuleRepository::from_text(text, &mut kb.voc).unwrap();
        let env = ScoringEnv {
            kb,
            rules: &rules,
            user,
        };
        Ok(engine.score(&env, doc)?.score)
    }

    /// `peter`, sure to be in the `Morning`, and a document whose genres
    /// `A` and `B` are the two alternatives of one variable, `kind`.
    fn two_genres() -> (Kb, IndividualId, IndividualId) {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Morning");
        let doc = kb.individual("doc");
        let kind = kb.universe.add_choice("kind", &[0.5, 0.5]).unwrap();
        for (alt, genre) in [(0, "A"), (1, "B")] {
            let genre = kb.individual(genre);
            let event = kb.universe.atom(kind, alt).unwrap();
            kb.assert_role_event(doc, "hasGenre", genre, event);
        }
        (kb, user, doc)
    }

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
        let rules = "R1 | Weekend | TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} | 0.8";
        let s = score(&FactorizedEngine::new(), &mut kb, user, ch5, rules).unwrap();
        assert!((s - 0.77).abs() < 1e-12, "{s}");
    }

    #[test]
    fn uncertain_context_blends_toward_one() {
        // P(G) = 0.5, P(F) = 1: score = 0.5 + 0.5·σ.
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept_prob(user, "Breakfast", 0.5).unwrap();
        let doc = kb.individual("doc");
        kb.assert_concept(doc, "News");
        let rules = "R | Breakfast | News | 0.9";
        let s = score(&FactorizedEngine::new(), &mut kb, user, doc, rules).unwrap();
        assert!((s - 0.95).abs() < 1e-12);
    }

    #[test]
    fn detects_correlation_and_policy_overrides() {
        let (mut kb, user, doc) = two_genres();
        let rules = "A | Morning | EXISTS hasGenre.{A} | 0.8\n\
                     B | Morning | EXISTS hasGenre.{B} | 0.6";
        let err = score(&FactorizedEngine::new(), &mut kb, user, doc, rules);
        assert!(
            matches!(&err, Err(CoreError::CorrelatedFeatures { variable }) if variable == "kind"),
            "{err:?}"
        );
        // Permissive policy computes the independence approximation.
        let lenient = FactorizedEngine::assuming_independence();
        let s = score(&lenient, &mut kb, user, doc, rules).unwrap();
        let approx = (0.5 * 0.8 + 0.5 * 0.2) * (0.5 * 0.6 + 0.5 * 0.4);
        assert!((s - approx).abs() < 1e-12);
    }

    /// A variable the document shares only with a rule whose context does
    /// not apply correlates nothing: the strict engine scores it, with the
    /// lineage engine's bits.
    #[test]
    fn a_variable_shared_with_an_inactive_rule_is_no_correlation() {
        let (mut kb, user, doc) = two_genres();
        let rules = "A | Morning | EXISTS hasGenre.{A} | 0.8\n\
                     B | Holiday | EXISTS hasGenre.{B} | 0.6";
        let strict = score(&FactorizedEngine::new(), &mut kb, user, doc, rules).unwrap();
        let exact = score(&LineageEngine::new(), &mut kb, user, doc, rules).unwrap();
        assert_eq!(strict.to_bits(), exact.to_bits());
        assert!((strict - (0.5 * 0.8 + 0.5 * 0.2)).abs() < 1e-12);
    }

    /// A conjunctive feature under an uncertain context: lineage defers the
    /// document for the shape alone, and the strict engine scores it from
    /// the marginals, which are exact here.
    #[test]
    fn a_document_deferred_for_its_shape_alone_is_scored() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept_prob(user, "Breakfast", 0.5).unwrap();
        let doc = kb.individual("doc");
        kb.assert_concept_prob(doc, "News", 0.6).unwrap();
        kb.assert_concept_prob(doc, "Local", 0.7).unwrap();
        let text = "R | Breakfast | News AND Local | 0.9";
        let rules = RuleRepository::from_text(text, &mut kb.voc).unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let (bindings, mut scratch) = (bind_rules_shared(&env), EvalScratch::new());
        let closed = LineageEngine::new().score_closed_form(&env, &bindings, &[doc], &mut scratch);
        assert_eq!(closed.unwrap(), [None]);
        let strict = score(&FactorizedEngine::new(), &mut kb, user, doc, text).unwrap();
        let exact = score(&LineageEngine::new(), &mut kb, user, doc, text).unwrap();
        assert!((strict - exact).abs() < 1e-12, "{strict} vs {exact}");
        assert!((strict - (0.5 + 0.5 * (0.42 * 0.9 + 0.58 * 0.1))).abs() < 1e-12);
    }

    /// A certain context, σ = 1 and a document that does not match: the
    /// certain factors multiply to 0, so the document scores 0 however the
    /// other rule's context and feature are correlated.
    #[test]
    fn a_slot_whose_certain_factors_multiply_to_zero_scores_zero() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        let doc = kb.individual("doc");
        let sensor = kb.universe.add_bool("sensor", 0.3).unwrap();
        let reading = kb.universe.bool_event(sensor).unwrap();
        kb.assert_concept_event(user, "Kitchen", reading.clone());
        kb.assert_concept_event(doc, "Cooking", reading);
        let rules = "Star | Weekend | Star | 1.0\nCook | Kitchen | Cooking | 0.5";
        let strict = score(&FactorizedEngine::new(), &mut kb, user, doc, rules);
        assert_eq!(strict.unwrap(), 0.0);
    }

    #[test]
    fn inapplicable_rules_are_free() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        let doc = kb.individual("doc");
        let rules = "Never | Holiday | TvProgram | 0.1";
        let s = score(&FactorizedEngine::new(), &mut kb, user, doc, rules).unwrap();
        assert_eq!(s, 1.0);
    }
}
