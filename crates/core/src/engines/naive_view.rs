use std::collections::HashMap;
use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::{Evaluator, EventExpr};
use capra_reldb::{DataType, Datum, Executor, Plan, Row, Schema};

use crate::bind::RuleBinding;
use crate::compile::{individual_datum, install_kb, Compiler};
use crate::engines::{DocScore, EvalScratch, ScoringEngine};
use crate::{CoreError, Result, ScoringEnv};

/// The faithful re-creation of the paper's **naive implementation**
/// (Section 5): everything runs through the relational engine.
///
/// Per scoring run the engine:
///
/// 1. installs the KB into a fresh catalog in the paper's table layout
///    (concept/role tables with event expressions);
/// 2. compiles each rule's context and preference concepts into **views**
///    (via [`Compiler`], the Borgida–Brachman mapping) and materialises
///    per-rule membership tables — plus their complements, since the "big
///    preference view" needs both polarities of every feature;
/// 3. builds and executes one relational plan **per combination of context
///    features × document features** — `2ⁿ × 2ⁿ` plans, each a join chain
///    over `2n + 1` relations — accumulating `weight(combination) ×
///    P(lineage)` into each document's score.
///
/// This is where the paper measured *"for one till four rules, query times
/// are still acceptable … as we arrive at seven rules, our query did not
/// finish within half an hour"*; the per-rule quadrupling of combinations is
/// reproduced structurally, not simulated.
///
/// Unlike [`crate::NaiveEnumEngine`] (which multiplies independent
/// marginals, as the paper's worked example does), this engine conjoins the
/// actual event expressions per combination and evaluates them exactly, so
/// its scores remain correct under correlated features — at `O(4ⁿ)` cost.
#[derive(Debug, Clone)]
pub struct NaiveViewEngine {
    /// Hard cap on rules (`4ⁿ` plans are built and run).
    pub max_rules: usize,
}

impl Default for NaiveViewEngine {
    fn default() -> Self {
        Self { max_rules: 10 }
    }
}

impl NaiveViewEngine {
    /// Creates the engine with the default rule cap.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ScoringEngine for NaiveViewEngine {
    fn name(&self) -> &'static str {
        "naive-view"
    }

    fn config_tag(&self) -> u64 {
        // `max_rules` decides between an error and a score, so different
        // caps must not share cached results.
        self.max_rules as u64
    }

    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        _scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>> {
        let n = bindings.len();
        if n > self.max_rules {
            return Err(CoreError::TooManyRules {
                n,
                max: self.max_rules,
            });
        }
        let catalog = install_kb(env.kb)?;
        let compiler = Compiler::new(env.kb, &catalog);
        let id_schema = Schema::of(&[("id", DataType::Id)]);
        let one_schema = Schema::of(&[("applies", DataType::Int)]);

        // Candidate documents table: a relation, so a document listed
        // twice is one row (its joins would otherwise multiply).
        let mut distinct = docs.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let candidates = catalog.create_table("naive_candidates", id_schema.clone())?;
        candidates.insert(
            distinct
                .iter()
                .map(|&d| Row::certain(vec![individual_datum(d)]))
                .collect(),
        )?;

        // Per rule: preference views (both polarities, over the candidate
        // set) and context relations (both polarities, single row). The
        // membership events come from the rule *bindings*; the compiled view
        // plan is registered under the paper's repository-table convention
        // whenever the binding's source rule is in the environment (callers
        // may pass hand-built bindings with no repository rule — a plan
        // needs the concept, so only the named view is skipped then).
        let mut sigmas = Vec::with_capacity(n);
        for (r, binding) in bindings.iter().enumerate() {
            sigmas.push(binding.sigma);
            if let Some(rule) = env.rules.get(&binding.name) {
                let view_name = format!("naive_pref_view_{r}");
                catalog.create_view(&view_name, compiler.concept_plan(&rule.preference)?)?;
            }
            let pos = catalog.create_table(&format!("naive_pref_pos_{r}"), id_schema.clone())?;
            let neg = catalog.create_table(&format!("naive_pref_neg_{r}"), id_schema.clone())?;
            let mut pos_rows = Vec::new();
            let mut neg_rows = Vec::new();
            for &doc in &distinct {
                let event = binding.preference_event(doc);
                let complement = EventExpr::not(event.clone());
                if !event.is_false() {
                    pos_rows.push(Row::uncertain(vec![individual_datum(doc)], event));
                }
                if !complement.is_false() {
                    neg_rows.push(Row::uncertain(vec![individual_datum(doc)], complement));
                }
            }
            pos.insert(pos_rows)?;
            neg.insert(neg_rows)?;

            let ctx_event = binding.context_event.clone();
            let ctx_complement = EventExpr::not(ctx_event.clone());
            let cpos = catalog.create_table(&format!("naive_ctx_pos_{r}"), one_schema.clone())?;
            let cneg = catalog.create_table(&format!("naive_ctx_neg_{r}"), one_schema.clone())?;
            if !ctx_event.is_false() {
                cpos.insert(vec![Row::uncertain(vec![Datum::Int(1)], ctx_event)])?;
            }
            if !ctx_complement.is_false() {
                cneg.insert(vec![Row::uncertain(vec![Datum::Int(1)], ctx_complement)])?;
            }
        }

        // The big preference view, combination by combination.
        let executor = Executor::new(&catalog);
        // Keyed by the datum a candidate's row carries — a candidate need
        // not be an individual the KB knows.
        let datum_id = |doc: IndividualId| doc.index() as u64;
        let mut scores: HashMap<u64, f64> = docs.iter().map(|&d| (datum_id(d), 0.0)).collect();
        let mut evaluator = Evaluator::new(&env.kb.universe);
        for g_mask in 0u64..(1 << n) {
            for f_mask in 0u64..(1 << n) {
                let mut weight = 1.0;
                for (r, &s) in sigmas.iter().enumerate() {
                    if g_mask >> r & 1 == 1 {
                        weight *= if f_mask >> r & 1 == 1 { s } else { 1.0 - s };
                    }
                }
                let mut plan = Plan::scan("naive_candidates");
                for r in 0..n {
                    let pref_table = if f_mask >> r & 1 == 1 {
                        format!("naive_pref_pos_{r}")
                    } else {
                        format!("naive_pref_neg_{r}")
                    };
                    plan = Plan::Join {
                        left: Box::new(plan),
                        right: Box::new(Plan::scan(pref_table)),
                        on: vec![(0, 0)],
                        filter: None,
                    };
                }
                for r in 0..n {
                    let ctx_table = if g_mask >> r & 1 == 1 {
                        format!("naive_ctx_pos_{r}")
                    } else {
                        format!("naive_ctx_neg_{r}")
                    };
                    plan = Plan::Join {
                        left: Box::new(plan),
                        right: Box::new(Plan::scan(ctx_table)),
                        on: vec![],
                        filter: None,
                    };
                }
                let relation = executor.run(&plan)?;
                for row in relation.rows() {
                    let candidate = row.values[0].as_id();
                    if let Some(slot) = candidate.and_then(|id| scores.get_mut(&id)) {
                        *slot += weight * evaluator.prob(&row.lineage);
                    }
                }
            }
        }
        Ok(docs
            .iter()
            .map(|&doc| DocScore {
                doc,
                score: scores[&datum_id(doc)].clamp(0.0, 1.0),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{FactorizedEngine, LineageEngine, NaiveEnumEngine};
    use crate::{Kb, PreferenceRule, RuleRepository, Score};

    fn paper_env() -> (Kb, RuleRepository, IndividualId, Vec<IndividualId>) {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        kb.assert_concept(user, "Breakfast");
        let oprah = kb.individual("Oprah");
        let bbc = kb.individual("BBC");
        let ch5 = kb.individual("Channel5");
        let mpfc = kb.individual("MPFC");
        let hi = kb.individual("HUMAN-INTEREST");
        let wb = kb.individual("WeatherBulletin");
        for d in [oprah, bbc, ch5, mpfc] {
            kb.assert_concept(d, "TvProgram");
        }
        kb.assert_role_prob(oprah, "hasGenre", hi, 0.85).unwrap();
        kb.assert_role(bbc, "hasSubject", wb);
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
        (kb, rules, user, vec![oprah, bbc, ch5, mpfc])
    }

    /// The paper's Table 1 scores, via the database machinery:
    /// Channel 5 = 0.6006, Oprah = 0.071, BBC = 0.18, MPFC = 0.02.
    #[test]
    fn reproduces_paper_table() {
        let (kb, rules, user, docs) = paper_env();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let scores = NaiveViewEngine::new().score_all(&env, &docs).unwrap();
        let expected = [0.071, 0.18, 0.6006, 0.02]; // oprah, bbc, ch5, mpfc
        for (s, e) in scores.iter().zip(expected) {
            assert!(
                (s.score - e).abs() < 1e-12,
                "{:?}: {} vs {}",
                s.doc,
                s.score,
                e
            );
        }
    }

    #[test]
    fn all_four_engines_agree() {
        let (kb, rules, user, docs) = paper_env();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let view = NaiveViewEngine::new().score_all(&env, &docs).unwrap();
        let enumr = NaiveEnumEngine::new().score_all(&env, &docs).unwrap();
        let fact = FactorizedEngine::new().score_all(&env, &docs).unwrap();
        let lin = LineageEngine::new().score_all(&env, &docs).unwrap();
        for i in 0..docs.len() {
            for (a, b) in [
                (&view[i], &enumr[i]),
                (&view[i], &fact[i]),
                (&view[i], &lin[i]),
            ] {
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "engines disagree on {:?}: {} vs {}",
                    a.doc,
                    a.score,
                    b.score
                );
            }
        }
    }

    #[test]
    fn correlated_features_handled_exactly() {
        // Disjoint genres through one choice variable: naive-view must agree
        // with the lineage engine, NOT with the independence-assuming ones.
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Morning");
        let prog = kb.individual("prog");
        kb.assert_concept(prog, "TvProgram");
        let a = kb.individual("A");
        let b = kb.individual("B");
        let kind = kb.universe.add_choice("kind", &[0.6, 0.4]).unwrap();
        let e0 = kb.universe.atom(kind, 0).unwrap();
        let e1 = kb.universe.atom(kind, 1).unwrap();
        kb.assert_role_event(prog, "hasGenre", a, e0);
        kb.assert_role_event(prog, "hasGenre", b, e1);
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
        let view = NaiveViewEngine::new().score(&env, prog).unwrap().score;
        let lineage = LineageEngine::new().score(&env, prog).unwrap().score;
        assert!((view - lineage).abs() < 1e-12, "{view} vs {lineage}");
        let exact = 0.6 * 0.8 * 0.4 + 0.4 * 0.2 * 0.6;
        assert!((view - exact).abs() < 1e-12);
    }

    #[test]
    fn rule_cap_enforced() {
        let (mut kb, mut rules, user, docs) = paper_env();
        for i in 0..2 {
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
        let engine = NaiveViewEngine { max_rules: 3 };
        assert!(matches!(
            engine.score_all(&env, &docs),
            Err(CoreError::TooManyRules { n: 4, max: 3 })
        ));
    }
}
