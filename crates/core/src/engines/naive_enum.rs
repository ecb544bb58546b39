use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::Evaluator;

use crate::bind::RuleBinding;
use crate::engines::{DocScore, EvalScratch, ScoringEngine};
use crate::{CoreError, Result, ScoringEnv};

/// The possible-feature-vector enumerator: a literal, in-memory transcription
/// of the paper's Section 3.3 sum
///
/// ```text
/// P(D=d|U=usit) = Σ_{g⃗} P(G=g⃗) · Σ_{f⃗} P(F=f⃗) · Π_{(g,f)∈H} {1, σ, 1−σ}
/// ```
///
/// enumerating **all 2ⁿ context-feature combinations × 2ⁿ document-feature
/// combinations** with the marginal feature probabilities (the paper's
/// independence assumption). The paper observes of its own implementation:
/// *"for each new rule, both the amount of possible combinations of context
/// features and the amount of possible combinations of tuple features … are
/// doubled, \[which\] leads to highly exponential query times"*. This engine
/// reproduces that cost curve without the relational-view machinery; the
/// difference between it and [`crate::NaiveViewEngine`] isolates how much of
/// the blow-up is the maths versus the view evaluation.
#[derive(Debug, Clone)]
pub struct NaiveEnumEngine {
    /// Skip zero-probability branches early (ablation knob; the result is
    /// identical, only visited-combination counts differ).
    pub prune_zero_branches: bool,
    /// Hard cap on applicable rules (`4ⁿ` growth).
    pub max_rules: usize,
}

impl Default for NaiveEnumEngine {
    fn default() -> Self {
        Self {
            prune_zero_branches: false,
            max_rules: 14,
        }
    }
}

impl NaiveEnumEngine {
    /// Creates the engine with the paper-faithful (non-pruning) settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `(g⃗, f⃗)` combinations enumerated for `n` rules.
    pub fn combinations(n: usize) -> u128 {
        1u128 << (2 * n as u32)
    }
}

impl ScoringEngine for NaiveEnumEngine {
    fn name(&self) -> &'static str {
        "naive-enum"
    }

    fn config_tag(&self) -> u64 {
        // `max_rules` decides between an error and a score, so different
        // caps must not share cached results. `prune_zero_branches` only
        // changes the work done, never the outcome.
        self.max_rules as u64
    }

    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        _scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>> {
        let applicable: Vec<&RuleBinding> = bindings
            .iter()
            .map(Arc::as_ref)
            .filter(|b| !b.is_inapplicable())
            .collect();
        let n = applicable.len();
        if n > self.max_rules {
            return Err(CoreError::TooManyRules {
                n,
                max: self.max_rules,
            });
        }
        let mut ev = Evaluator::new(&env.kb.universe);
        let context_probs: Vec<f64> = applicable
            .iter()
            .map(|b| ev.prob(&b.context_event))
            .collect();
        let sigmas: Vec<f64> = applicable.iter().map(|b| b.sigma).collect();

        let mut out = Vec::with_capacity(docs.len());
        for &doc in docs {
            let feature_probs: Vec<f64> = applicable
                .iter()
                .map(|b| ev.prob(&b.preference_event(doc)))
                .collect();
            let score = self.enumerate(&context_probs, &feature_probs, &sigmas);
            out.push(DocScore {
                doc,
                score: score.clamp(0.0, 1.0),
            });
        }
        Ok(out)
    }
}

impl NaiveEnumEngine {
    /// The double sum over feature-vector combinations. `g_mask` /
    /// `f_mask` bit `r` says whether rule `r`'s context / document feature
    /// is present in the combination.
    fn enumerate(&self, pg: &[f64], pf: &[f64], sigma: &[f64]) -> f64 {
        let n = pg.len();
        let mut total = 0.0;
        for g_mask in 0u64..(1 << n) {
            // P(G = g⃗) under independent marginals.
            let mut p_ctx = 1.0;
            for (r, &p) in pg.iter().enumerate() {
                p_ctx *= if g_mask >> r & 1 == 1 { p } else { 1.0 - p };
            }
            if self.prune_zero_branches && p_ctx == 0.0 {
                continue;
            }
            for f_mask in 0u64..(1 << n) {
                let mut p_doc = 1.0;
                for (r, &p) in pf.iter().enumerate() {
                    p_doc *= if f_mask >> r & 1 == 1 { p } else { 1.0 - p };
                }
                if self.prune_zero_branches && p_doc == 0.0 {
                    continue;
                }
                let mut weight = 1.0;
                for (r, &s) in sigma.iter().enumerate() {
                    if g_mask >> r & 1 == 1 {
                        weight *= if f_mask >> r & 1 == 1 { s } else { 1.0 - s };
                    }
                }
                total += p_ctx * p_doc * weight;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::FactorizedEngine;
    use crate::{Kb, PreferenceRule, RuleRepository, Score};

    fn paper_like_env() -> (Kb, RuleRepository, IndividualId, IndividualId) {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        kb.assert_concept(user, "Breakfast");
        let ch5 = kb.individual("Channel5");
        kb.assert_concept(ch5, "TvProgram");
        let hi = kb.individual("HUMAN-INTEREST");
        let wb = kb.individual("WeatherBulletin");
        kb.assert_role_prob(ch5, "hasGenre", hi, 0.95).unwrap();
        kb.assert_role_prob(ch5, "hasSubject", wb, 0.85).unwrap();
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
        rules
            .add(PreferenceRule::new(
                "R2",
                kb.parse("Breakfast").unwrap(),
                kb.parse("TvProgram AND EXISTS hasSubject.{WeatherBulletin}")
                    .unwrap(),
                Score::new(0.9).unwrap(),
            ))
            .unwrap();
        (kb, rules, user, ch5)
    }

    /// Channel 5 news from the paper's Section 4.2: 0.6006 exactly.
    #[test]
    fn reproduces_paper_channel5_score() {
        let (kb, rules, user, ch5) = paper_like_env();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let s = NaiveEnumEngine::new().score(&env, ch5).unwrap();
        assert!((s.score - 0.6006).abs() < 1e-12, "{}", s.score);
    }

    #[test]
    fn agrees_with_factorized_engine() {
        let (kb, rules, user, ch5) = paper_like_env();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let naive = NaiveEnumEngine::new().score(&env, ch5).unwrap().score;
        let fact = FactorizedEngine::new().score(&env, ch5).unwrap().score;
        assert!((naive - fact).abs() < 1e-12);
    }

    #[test]
    fn pruning_preserves_results() {
        let (kb, rules, user, ch5) = paper_like_env();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let base = NaiveEnumEngine::new().score(&env, ch5).unwrap().score;
        let pruned = NaiveEnumEngine {
            prune_zero_branches: true,
            ..NaiveEnumEngine::new()
        }
        .score(&env, ch5)
        .unwrap()
        .score;
        assert!((base - pruned).abs() < 1e-12);
    }

    #[test]
    fn rule_cap_enforced() {
        let (kb, mut rules, user, ch5) = paper_like_env();
        let mut kb = kb;
        for i in 0..3 {
            rules
                .add(PreferenceRule::new(
                    format!("X{i}"),
                    kb.parse("Weekend").unwrap(),
                    kb.parse("TvProgram").unwrap(),
                    Score::new(0.5).unwrap(),
                ))
                .unwrap();
        }
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = NaiveEnumEngine {
            max_rules: 4,
            ..NaiveEnumEngine::new()
        };
        assert!(matches!(
            engine.score(&env, ch5),
            Err(CoreError::TooManyRules { n: 5, max: 4 })
        ));
    }

    #[test]
    fn combination_count_is_4_to_the_n() {
        assert_eq!(NaiveEnumEngine::combinations(0), 1);
        assert_eq!(NaiveEnumEngine::combinations(1), 4);
        assert_eq!(NaiveEnumEngine::combinations(7), 16384);
    }
}
