use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::{BatchExpectation, BatchStats, EventExpr, Expectation, Factor, Universe, VarId};

use crate::bind::RuleBinding;
use crate::engines::{join, Cell, ContextSupport, DocScore, EvalScratch, ScoringEngine};
use crate::{Result, ScoringEnv};

/// The exact engine: evaluates the Section 3.3 expectation over the event
/// expressions themselves, so **correlated** context and document features
/// (shared sensors, mutually exclusive rooms or genres) are handled without
/// approximation — the paper's stated requirement for its uncertainty model
/// ("it is important to capture and model these correlations without
/// approximations").
///
/// Per document, each applicable rule contributes the factor
///
/// ```text
/// 1·1[¬G_r] + σ_r·1[G_r ∧ F_rd] + (1−σ_r)·1[G_r ∧ ¬F_rd]
/// ```
///
/// and the score is the exact expectation of the product
/// ([`capra_events::Expectation::compute`]). The expectation of
/// variable-disjoint factors is the product of their expectations, and
/// the expectation of one factor is `Σ_cases w·P(case)`, so the engine
/// scores each document on one of two routes, chosen by the **lane test**
/// — made per document from the events' variable supports and shapes:
///
/// * **lane** — the active contexts' supports are pairwise disjoint, every
///   feature event the document has is variable-disjoint from every active
///   context and from the document's other features, and no conjunction
///   `G_r ∧ F_rd` / `G_r ∧ ¬F_rd` would flatten (neither `G_r`, `F_rd` nor
///   `¬F_rd` is an `And`). The score is then the closed form
///   `Π_r Σ_cases w·clamp(P(case))`: per rule one multiply, clamp and case
///   sum over `P(G_r)`, which the rule's binding holds (evaluated once per
///   binding, never through the shared memo:
///   `RuleBinding::context_parts`), and the `(P(F_rd), P(¬F_rd))` the
///   document's **feature row** holds — the parts
///   [`capra_events::Expectation::prob_split`] multiplies, in exactly
///   `compute`'s floating-point order, with no node interned and nothing
///   memoised per (context, document) pair. One walk over the row sorts
///   the factors into the constant ones, multiplied on the way, and the
///   rest, multiplied after the disjointness test. This is the factorized
///   engine's linear cost, with the exact engine's bits.
/// * **exact** — any other document, and only that document, has its
///   factors built and goes through `compute`: Shannon expansion over the
///   shared variables with memoisation, one evaluation per distinct
///   per-rule event signature in the batch.
///
/// What a document contributes — its feature event under every rule, the
/// events' shapes and probabilities — depends on no request, so the sweep
/// does not derive it: it fetches the document's row (`engines/rows.rs`:
/// joined from the preference views once per KB state, shared by every
/// tenant, carried over catalogue changes view by view). The document's
/// half of the lane test belongs to the row too: whether its cells share a
/// variable and, where they do not, the sorted union of their supports,
/// judged whenever the row is synced. A request merges that union with its
/// contexts' support, once per document; only a row whose cells share a
/// variable — maybe under a rule whose context does not apply to the asker
/// — has the test made again from the cells under the active rules, so the
/// route of every document is what the per-request test chose.
///
/// [`capra_events::BatchStats::fallbacks`] counts the second route.
#[derive(Debug, Clone, Default)]
pub struct LineageEngine {
    /// Skip rules whose context event is `False` (constant factor 1).
    /// On by default; exposed for the pruning ablation benchmark.
    pub prune_inapplicable: bool,
}

impl LineageEngine {
    /// Creates the engine with pruning enabled.
    pub fn new() -> Self {
        Self {
            prune_inapplicable: true,
        }
    }
}

/// What one rule contributes that does not depend on the document.
struct ContextHalf {
    sigma: f64,
    /// The unclamped `P(G)` a feature's parts are multiplied by — `1.0`
    /// when `G` is `True`.
    p_g: f64,
    /// `G` is an `And`: a conjunction with a non-constant feature would
    /// flatten, so any document that has one under this rule is deferred.
    flattens: bool,
    /// `1·P(¬G)`, the first term of the case sum — `None` when `G` is
    /// `True` and the case vanishes.
    not_g_term: Option<f64>,
    /// The factor of a document that does not match (`F` absent or `False`).
    miss: f64,
    /// The factor of a document that certainly matches (`F = True`).
    sure_hit: f64,
}

impl ContextHalf {
    /// Reads `P(G)` off the binding ([`RuleBinding::context_parts`]).
    fn new(b: &RuleBinding, universe: &Universe) -> Self {
        let g = &b.context_event;
        let (p_g, not_g_term) = if g.is_true() {
            (1.0, None)
        } else {
            let (p_g, p_not_g) = b.context_parts(universe);
            (p_g, Some(p_not_g.clamp(0.0, 1.0)))
        };
        let p_applies = p_g.clamp(0.0, 1.0);
        Self {
            sigma: b.sigma,
            p_g,
            flattens: matches!(g, EventExpr::And(_)),
            not_g_term,
            miss: case_sum([not_g_term, None, weighted(1.0 - b.sigma, p_applies)]),
            sure_hit: case_sum([not_g_term, weighted(b.sigma, p_applies), None]),
        }
    }

    /// `G` is `True`: a document whose feature event is constant too makes
    /// the factor a constant.
    fn certain(&self) -> bool {
        self.not_g_term.is_none()
    }

    /// The factor of a document whose feature event is `cell`'s, neither
    /// constant: `P(G ∧ F)` and `P(G ∧ ¬F)` as
    /// [`Expectation::prob_split`] multiplies and clamps them, from the
    /// hoisted `P(G)` and the row's `(P(F), P(¬F))`. `None` where
    /// `prob_split` declines for a shape; the lane test has already seen to
    /// it that `G` and `F` share no variable.
    fn factor(&self, cell: &Cell, expectation: &mut Expectation<'_>) -> Option<f64> {
        if !self.certain() && (self.flattens || cell.flattens) {
            return None;
        }
        let (p_f, p_not_f) = cell.parts(expectation);
        Some(case_sum([
            self.not_g_term,
            weighted(self.sigma, (self.p_g * p_f).clamp(0.0, 1.0)),
            weighted(1.0 - self.sigma, (self.p_g * p_not_f).clamp(0.0, 1.0)),
        ]))
    }
}

/// `Σ w·P(case)` over the cases [`Factor::new`] keeps, in its case order
/// `[¬G, G∧F, G∧¬F]` and with the `Iterator::sum` `compute` folds them by.
fn case_sum(terms: [Option<f64>; 3]) -> f64 {
    terms.into_iter().flatten().sum()
}

/// `w·p`, unless [`Factor::new`] drops the case for its zero weight.
fn weighted(w: f64, p: f64) -> Option<f64> {
    (w != 0.0).then_some(w * p)
}

/// A rule the request evaluates: its position in the bindings (the index
/// its cells carry), the binding, and its context half — `None` for a
/// `False` context kept by `prune_inapplicable: false`, whose factor is the
/// constant 1 and multiplies nothing.
struct ActiveRule<'a> {
    rule: usize,
    binding: &'a RuleBinding,
    half: Option<ContextHalf>,
}

/// The doc-invariant half of a request, computed once: the active rules in
/// rule order, and what the lane test needs to know about their contexts
/// together.
struct Contexts<'a> {
    active: Vec<ActiveRule<'a>>,
    support: ContextSupport,
}

impl<'a> Contexts<'a> {
    fn new(
        bindings: &'a [Arc<RuleBinding>],
        prune_inapplicable: bool,
        universe: &Universe,
    ) -> Self {
        let active: Vec<ActiveRule<'a>> = bindings
            .iter()
            .enumerate()
            .filter(|(_, b)| !(prune_inapplicable && b.is_inapplicable()))
            .map(|(rule, b)| ActiveRule {
                rule,
                binding: b,
                half: (!b.is_inapplicable()).then(|| ContextHalf::new(b, universe)),
            })
            .collect();
        let support = ContextSupport::new(active.iter().map(|a| &a.binding.context_event));
        Self { active, support }
    }

    /// The lane route for one document, from its row and the row's
    /// verdict (`row_vars`, [`crate::engines::ContextSupport::clears`]).
    /// Returns what [`Expectation::compute`] would for the document's
    /// factors, bit for bit, or `None` when the lane test rejects the
    /// document. `queue` and `seen` are the caller's buffers, reused from
    /// document to document.
    fn lane_score<'r>(
        &'r self,
        row: &'r [Cell],
        row_vars: Option<&[VarId]>,
        queue: &mut Vec<(&'r ContextHalf, Option<&'r Cell>)>,
        seen: &mut Vec<VarId>,
        expectation: &mut Expectation<'_>,
    ) -> Option<f64> {
        // One walk of the join: `compute` multiplies the constant factors
        // first, in rule order, so those go into `acc` on the way and the
        // others — every rule with a factor to contribute, with the
        // document's cell under it (`None`: no match) — wait in the queue…
        let mut acc = 1.0;
        queue.clear();
        for (half, cell) in join(row, self.active.iter().map(|a| (a.rule, &a.half))) {
            let Some(half) = half else { continue };
            match cell {
                None if half.certain() => acc *= half.miss,
                Some(c) if c.event.is_true() && half.certain() => acc *= half.sure_hit,
                _ => queue.push((half, cell)),
            }
        }
        if queue.is_empty() || acc == 0.0 {
            return Some(acc);
        }
        // …then one group per factor, if no two share a variable: no
        // context and no feature event may touch another. The row's verdict
        // settles that for all of its cells at once; where it cannot, the
        // cells under the queued factors decide (a constant factor's cell
        // has no variable to share).
        if !self.support.clears(row_vars) {
            seen.clear();
            for (_, cell) in queue.iter() {
                seen.extend_from_slice(cell.map_or(&[][..], |c| c.event.support_slice()));
            }
            if !self.support.disjoint_with(seen) {
                return None;
            }
        }
        for &(half, cell) in queue.iter() {
            acc *= match cell {
                None => half.miss,
                Some(c) if c.event.is_true() => half.sure_hit,
                Some(c) => half.factor(c, expectation)?,
            };
        }
        Some(acc)
    }

    /// A document's feature event per active rule — its signature on the
    /// exact route.
    fn signature<'r>(&self, row: &'r [Cell]) -> Vec<Option<&'r EventExpr>> {
        join(row, self.active.iter().map(|a| (a.rule, ())))
            .map(|((), cell)| cell.map(|c| &c.event))
            .collect()
    }
}

/// The exact route, for the documents the lane test rejected: builds each
/// distinct signature's factors (a signature is a document's feature event
/// per rule) and runs [`Expectation::compute`] on them once. Returns the
/// expectations in `rows` order and how many evaluations ran.
fn exact_scores(
    active: &[ActiveRule<'_>],
    rows: &[Vec<Option<&EventExpr>>],
    expectation: &mut Expectation<'_>,
) -> (Vec<f64>, u64) {
    let per_rule: Vec<(&RuleBinding, EventExpr, Factor)> = active
        .iter()
        .map(|a| {
            let b = a.binding;
            let not_g = EventExpr::not(b.context_event.clone());
            let miss_factor = Factor::new([
                (not_g.clone(), 1.0),
                (b.context_event.clone(), 1.0 - b.sigma),
            ]);
            (b, not_g, miss_factor)
        })
        .collect();
    let mut batch = BatchExpectation::new(expectation);
    let raw = batch.compute_grouped(rows, |signature| {
        signature
            .iter()
            .zip(&per_rule)
            .map(|(pref, (b, not_g, miss_factor))| match pref {
                None => miss_factor.clone(),
                Some(f) => {
                    let g = b.context_event.clone();
                    let f = (*f).clone();
                    Factor::new([
                        (not_g.clone(), 1.0),
                        (EventExpr::and([g.clone(), f.clone()]), b.sigma),
                        (EventExpr::and([g, EventExpr::not(f)]), 1.0 - b.sigma),
                    ])
                }
            })
            .collect()
    });
    (raw, batch.stats().fallbacks)
}

impl ScoringEngine for LineageEngine {
    fn name(&self) -> &'static str {
        "lineage"
    }

    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>> {
        let scores = self.sweep(env, bindings, docs, scratch, true);
        Ok(docs
            .iter()
            .zip(scores)
            .map(|(&doc, score)| DocScore {
                doc,
                score: score.expect("the exact route scores what the lane test rejects"),
            })
            .collect())
    }

    fn score_closed_form(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Option<f64>>> {
        Ok(self.sweep(env, bindings, docs, scratch, false))
    }
}

impl LineageEngine {
    /// The engine's one pass over a batch: every slot the lane test admits
    /// is scored in closed form from the document's feature row; the slots
    /// it rejects go through [`exact_scores`] when `exact` is set and stay
    /// `None` when not.
    fn sweep(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
        exact: bool,
    ) -> Vec<Option<f64>> {
        if docs.is_empty() {
            return Vec::new();
        }
        scratch.ensure_kb(env.kb);
        let set = env.kb.rows().set_for(env.kb, bindings);
        let rows = set.rows(bindings, docs);
        let contexts = Contexts::new(bindings, self.prune_inapplicable, &env.kb.universe);
        let (scores, fallbacks) = scratch.with_expectation(&env.kb.universe, |expectation| {
            let (mut queue, mut seen) = (Vec::new(), Vec::new());
            let mut scores: Vec<Option<f64>> = Vec::with_capacity(docs.len());
            let mut rejected: Vec<usize> = Vec::new();
            for slot in 0..docs.len() {
                let (row, row_vars) = (rows.row(slot), rows.support(slot));
                let score = contexts
                    .lane_score(row, row_vars, &mut queue, &mut seen, expectation)
                    .map(|raw| raw.clamp(0.0, 1.0));
                if score.is_none() {
                    rejected.push(slot);
                }
                scores.push(score);
            }
            if !exact || rejected.is_empty() {
                return (scores, 0);
            }
            let signatures: Vec<Vec<Option<&EventExpr>>> = rejected
                .iter()
                .map(|&slot| contexts.signature(rows.row(slot)))
                .collect();
            let (raw, evaluations) = exact_scores(&contexts.active, &signatures, expectation);
            for (&slot, e) in rejected.iter().zip(raw) {
                scores[slot] = Some(e.clamp(0.0, 1.0));
            }
            (scores, evaluations)
        });
        scratch.record_batch(BatchStats {
            sweeps: 1,
            lanes: docs.len() as u64,
            fallbacks,
        });
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kb, PreferenceRule, RuleRepository, Score};

    /// Correlated scenario: two rules prefer two *mutually exclusive*
    /// genres of the same program (the disjoint-genre situation from the
    /// paper's Section 3.2).
    #[test]
    fn disjoint_genres_are_exact() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Morning");
        let prog = kb.individual("prog");
        kb.assert_concept(prog, "TvProgram");
        let traffic = kb.individual("Traffic");
        let weather = kb.individual("Weather");
        // The program is *either* a traffic or a weather bulletin: one
        // choice variable, two alternatives (60% / 40%).
        let kind = kb.universe.add_choice("kind", &[0.6, 0.4]).unwrap();
        let is_traffic = kb.universe.atom(kind, 0).unwrap();
        let is_weather = kb.universe.atom(kind, 1).unwrap();
        kb.assert_role_event(prog, "hasGenre", traffic, is_traffic);
        kb.assert_role_event(prog, "hasGenre", weather, is_weather);

        let mut rules = RuleRepository::new();
        let ctx = kb.parse("Morning").unwrap();
        let pref_t = kb.parse("EXISTS hasGenre.{Traffic}").unwrap();
        let pref_w = kb.parse("EXISTS hasGenre.{Weather}").unwrap();
        rules
            .add(PreferenceRule::new(
                "T",
                ctx.clone(),
                pref_t,
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "W",
                ctx,
                pref_w,
                Score::new(0.6).unwrap(),
            ))
            .unwrap();

        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = LineageEngine::new();
        let score = engine.score(&env, prog).unwrap().score;
        // Exact: E = P(traffic)·σ_T·(1−σ_W) + P(weather)·(1−σ_T)·σ_W
        //           + P(neither)·(1−σ_T)·(1−σ_W)
        let expected = 0.6 * 0.8 * 0.4 + 0.4 * 0.2 * 0.6 + 0.0 * 0.2 * 0.4;
        assert!(
            (score - expected).abs() < 1e-12,
            "{score} vs {expected} (independence would give a different number)"
        );
        // Independence assumption WOULD give (0.6·0.8+0.4·0.2)·(0.4·0.6+0.6·0.4):
        let independent = (0.6 * 0.8 + 0.4 * 0.2) * (0.4 * 0.6 + 0.6 * 0.4);
        assert!(
            (score - independent).abs() > 1e-3,
            "correlation must matter"
        );
    }

    #[test]
    fn no_rules_scores_one() {
        // With an empty H the paper's formula degenerates to 1 for every
        // document (the reason the paper recommends default rules).
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        let doc = kb.individual("doc");
        let rules = RuleRepository::new();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let s = LineageEngine::new().score(&env, doc).unwrap();
        assert_eq!(s.score, 1.0);
    }

    #[test]
    fn pruning_does_not_change_results() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        let doc = kb.individual("doc");
        kb.assert_concept_prob(doc, "Interesting", 0.5).unwrap();
        let mut rules = RuleRepository::new();
        let weekend = kb.parse("Weekend").unwrap();
        let holiday = kb.parse("Holiday").unwrap(); // never applies
        let pref = kb.parse("Interesting").unwrap();
        rules
            .add(PreferenceRule::new(
                "A",
                weekend,
                pref.clone(),
                Score::new(0.7).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "B",
                holiday,
                pref,
                Score::new(0.9).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let pruned = LineageEngine::new().score(&env, doc).unwrap().score;
        let unpruned = LineageEngine {
            prune_inapplicable: false,
        }
        .score(&env, doc)
        .unwrap()
        .score;
        assert!((pruned - unpruned).abs() < 1e-12);
        assert!((pruned - (0.5 * 0.7 + 0.5 * 0.3)).abs() < 1e-12);
    }
}
