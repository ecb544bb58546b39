use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::{BatchStats, EventExpr, Expectation, Factor, Universe, VarId};

use crate::bind::RuleBinding;
use crate::engines::{ContextSupport, DocScore, EvalScratch, Kind, Rows, ScoringEngine};
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
/// ([`capra_events::Expectation::compute`]). A rule whose context is
/// `False` contributes the constant 1 and is skipped. The expectation of
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
///   binding, never through the call's memo:
///   `RuleBinding::context_parts`), and the `(P(F_rd), P(¬F_rd))` the
///   rule's **feature column** holds at the document's row — the parts
///   [`capra_events::Expectation::prob_split`] multiplies, in exactly
///   `compute`'s floating-point order, with no node interned and nothing
///   memoised per (context, document) pair. The route is a column pass
///   over the whole candidate list: `compute` multiplies the constant
///   factors first, in rule order, and then the others, so one walk down
///   the active rules' columns multiplies every slot's constant factors,
///   the lane test runs per slot, and a second walk multiplies the rest
///   into the slots that passed. This is the linear cost the paper's
///   Discussion asks for, with the exact engine's bits — and the very pass
///   [`crate::FactorizedEngine`] scores with.
/// * **exact** — any other document, and only that document, has its
///   factors built and goes through `compute`: Shannon expansion over the
///   shared variables with memoisation, one evaluation per distinct
///   per-rule event signature in the batch.
///
/// What a document contributes — its feature event under every rule, the
/// events' shapes and probabilities — depends on no request, so the sweep
/// does not derive it: it reads the rules' columns at the document's row
/// (`engines/rows.rs`: joined from the preference views once per KB state,
/// shared by every tenant, carried over catalogue changes view by view).
/// The document's half of the lane test belongs to the row too: whether
/// its cells share a variable and, where they do not, the sorted union of
/// their supports, judged whenever the row is synced. A request compares
/// the span of every row in its list with its contexts' span at once, and
/// where they overlap that union with its contexts' support, once per
/// document — ranges first, a merge only where they overlap; only a row
/// whose cells share a variable — maybe under a rule whose context does not
/// apply to the asker — has the test made again from the cells under the
/// active rules, so the route of every document is what the per-request
/// test chose.
///
/// [`capra_events::BatchStats::fallbacks`] counts the second route.
#[derive(Debug, Clone, Default)]
pub struct LineageEngine;

impl LineageEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }
}

/// What one rule contributes that does not depend on the document.
struct ContextHalf {
    sigma: f64,
    /// The unclamped `P(G)` a feature's parts are multiplied by — `1.0`
    /// when `G` is `True`.
    p_g: f64,
    /// `1·P(¬G)`, the first term of the case sum — [`DROPPED`] when `G` is
    /// `True` and the case vanishes.
    not_g_term: f64,
    /// `G` is `True`: a document whose feature event is constant too makes
    /// the factor a constant.
    certain: bool,
    /// Per [`Kind`], what the constant pass multiplies by: the factor where
    /// it is a constant (`G` and `F` both are), `1.0` where it is not.
    constant: [f64; Kind::COUNT],
    /// Per [`Kind`], whether the factor waits for the queued pass.
    queued: [bool; Kind::COUNT],
    /// What the queued pass multiplies a [`Kind::Absent`] and a
    /// [`Kind::True`] cell by: the factor of a document that does not
    /// match and of one that certainly does, or `1.0` where the constant
    /// pass took it.
    later: [f64; 2],
    /// Per [`Kind`], whether [`Expectation::prob_split`] declines the
    /// conjunction for its shape — `G` is not `True` and `G` or `F` is an
    /// `And` — which sends the document down the exact route.
    declines: [bool; Kind::COUNT],
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
        let certain = not_g_term.is_none();
        let not_g_term = not_g_term.unwrap_or(DROPPED);
        let miss = case_sum([not_g_term, DROPPED, weighted(1.0 - b.sigma, p_applies)]);
        let sure_hit = case_sum([not_g_term, weighted(b.sigma, p_applies), DROPPED]);
        let flattens = matches!(g, EventExpr::And(_));
        Self {
            sigma: b.sigma,
            p_g,
            not_g_term,
            certain,
            constant: if certain {
                [miss, sure_hit, 1.0, 1.0]
            } else {
                [1.0; Kind::COUNT]
            },
            queued: [!certain, !certain, true, true],
            later: if certain { [1.0; 2] } else { [miss, sure_hit] },
            declines: [false, false, !certain && flattens, !certain],
        }
    }

    /// The factor of a document whose feature event is neither constant
    /// nor declined, from its `(P(F), P(¬F))`: `P(G ∧ F)` and `P(G ∧ ¬F)`
    /// as [`Expectation::prob_split`] multiplies and clamps them, from the
    /// hoisted `P(G)`. The lane test has already seen to it that `G` and
    /// `F` share no variable.
    fn factor(&self, p_f: f64, p_not_f: f64) -> f64 {
        case_sum([
            self.not_g_term,
            weighted(self.sigma, (self.p_g * p_f).clamp(0.0, 1.0)),
            weighted(1.0 - self.sigma, (self.p_g * p_not_f).clamp(0.0, 1.0)),
        ])
    }
}

/// `Σ w·P(case)` over the cases [`Factor::new`] keeps, in its case order
/// `[¬G, G∧F, G∧¬F]` and with the `Iterator::sum` `compute` folds them by;
/// a case it drops is [`DROPPED`] here.
fn case_sum(terms: [f64; 3]) -> f64 {
    terms.into_iter().sum()
}

/// The term of a case [`Factor::new`] drops: `-0.0`, the one addend that
/// leaves the bits of every sum as they are (`x + -0.0 = x`, `-0.0`
/// included), so a sum over all three terms is the sum over the kept ones.
const DROPPED: f64 = -0.0;

/// `w·p`, or [`DROPPED`] where [`Factor::new`] drops the case for its zero
/// weight.
fn weighted(w: f64, p: f64) -> f64 {
    if w != 0.0 {
        w * p
    } else {
        DROPPED
    }
}

/// A rule the request evaluates — one whose context is not `False`: its
/// position in the bindings (the index of its column), the binding, and
/// its context half.
struct ActiveRule<'a> {
    rule: usize,
    binding: &'a RuleBinding,
    half: ContextHalf,
}

/// Where the lane pass stands with one slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Scored by the constant factors alone: none is queued, or their
    /// product is already 0.
    Settled,
    /// Passed the lane test; the queued factors multiply in.
    Open,
    /// Rejected by the lane test: the exact route's.
    Deferred,
}

/// The doc-invariant half of a request, computed once: the active rules in
/// rule order, and what the lane test needs to know about their contexts
/// together.
pub(super) struct Contexts<'a> {
    active: Vec<ActiveRule<'a>>,
    support: ContextSupport,
}

impl<'a> Contexts<'a> {
    fn new(bindings: &'a [Arc<RuleBinding>], universe: &Universe) -> Self {
        let active: Vec<ActiveRule<'a>> = bindings
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_inapplicable())
            .map(|(rule, b)| ActiveRule {
                rule,
                binding: b,
                half: ContextHalf::new(b, universe),
            })
            .collect();
        let support = ContextSupport::new(active.iter().map(|a| &a.binding.context_event));
        Self { active, support }
    }

    /// The lane route over every slot of `docs`, rule by rule down the
    /// active rules' columns. Returns, per slot, what
    /// [`Expectation::compute`] would for the document's factors, bit for
    /// bit and clamped — for a slot the lane test rejects, whatever the
    /// pass left there — and the rejected slots, ascending.
    fn lanes(
        &self,
        rows: &Rows<'_>,
        docs: &[IndividualId],
        expectation: &mut Expectation<'_>,
    ) -> (Vec<DocScore>, Vec<usize>) {
        let mut scores: Vec<DocScore> = docs
            .iter()
            .map(|&doc| DocScore { doc, score: 1.0 })
            .collect();
        // `compute` multiplies the constant factors first, in rule order:
        // one pass down the columns of the rules whose context is `True`
        // multiplies each slot's, and `1.0` where a factor is not constant,
        // which leaves the bits as they are. Any other rule has a factor
        // queued for every slot…
        let uncertain = self.active.iter().any(|a| !a.half.certain);
        let mut queued = vec![uncertain; docs.len()];
        for a in self.active.iter().filter(|a| a.half.certain) {
            let column = rows.column(a.rule);
            for (slot, (s, queued)) in scores.iter_mut().zip(&mut queued).enumerate() {
                let kind = column.kind(slot) as usize;
                s.score *= a.half.constant[kind];
                *queued |= a.half.queued[kind];
            }
        }
        // …then, where any factor is left and the product is not already 0,
        // one group per factor if no two share a variable: no context and
        // no feature event may touch another — for every slot at once where
        // the list's rows allow it…
        let cleared = rows.cleared(&self.support);
        let mut seen: Vec<VarId> = Vec::new();
        let mut lanes: Vec<Lane> = (0..docs.len())
            .map(|slot| {
                if !queued[slot] || scores[slot].score == 0.0 {
                    Lane::Settled
                } else if cleared || self.admits(rows, slot, &mut seen) {
                    Lane::Open
                } else {
                    Lane::Deferred
                }
            })
            .collect();
        // …and a second pass multiplies the others, in rule order, into the
        // slots that passed. A conjunction that would flatten defers its
        // slot, after the cells queued before it have had their parts read:
        // the evaluations a walk of the document's factors in order makes.
        for a in &self.active {
            let (column, half) = (rows.column(a.rule), &a.half);
            for (slot, (s, lane)) in scores.iter_mut().zip(&mut lanes).enumerate() {
                if *lane != Lane::Open {
                    continue;
                }
                let kind = column.kind(slot);
                s.score *= match kind {
                    Kind::Absent | Kind::True => half.later[kind as usize],
                    _ if half.declines[kind as usize] => {
                        *lane = Lane::Deferred;
                        continue;
                    }
                    Kind::Uncertain | Kind::Flattens => {
                        let (p_f, p_not_f) = column.parts(slot, expectation);
                        half.factor(p_f, p_not_f)
                    }
                };
            }
        }
        for s in &mut scores {
            s.score = s.score.clamp(0.0, 1.0);
        }
        let deferred = (lanes.iter().enumerate())
            .filter_map(|(slot, lane)| (*lane == Lane::Deferred).then_some(slot))
            .collect();
        (scores, deferred)
    }

    /// The lane test's variable half for `slot`: the row's verdict settles
    /// it for all of the row's cells at once; where it cannot, the cells
    /// under the factors queued for the slot decide (a constant factor's
    /// cell has no variable to share). `seen` is the caller's buffer.
    fn admits(&self, rows: &Rows<'_>, slot: usize, seen: &mut Vec<VarId>) -> bool {
        rows.clears(&self.support, slot) || self.shared(rows, slot, seen).is_none()
    }

    /// The lane test's variable half for `slot` from the cells themselves:
    /// `None` where no two of the factors queued for the slot share a
    /// variable, else one they share ([`ContextSupport::shared_with`]).
    pub(super) fn shared(
        &self,
        rows: &Rows<'_>,
        slot: usize,
        seen: &mut Vec<VarId>,
    ) -> Option<VarId> {
        seen.clear();
        for a in &self.active {
            let column = rows.column(a.rule);
            if a.half.queued[column.kind(slot) as usize] {
                let event = column.event(slot);
                seen.extend_from_slice(event.map_or(&[][..], EventExpr::support_slice));
            }
        }
        self.support.shared_with(seen)
    }

    /// `slot`'s factors as if no two of their events shared a variable: per
    /// active rule, in rule order, the closed form from the rule's `P(G)`
    /// and the cell's `(P(F), P(¬F))`, multiplied and clamped. Where the
    /// lane test admits the slot this is its score up to rounding.
    pub(super) fn marginal(
        &self,
        rows: &Rows<'_>,
        slot: usize,
        expectation: &mut Expectation<'_>,
    ) -> f64 {
        let factors = self.active.iter().map(|a| {
            let column = rows.column(a.rule);
            // A constant factor is in `constant` or `later`, whichever
            // pass takes it, and the other holds 1.0 for it.
            match column.kind(slot) {
                kind @ (Kind::Absent | Kind::True) => {
                    a.half.constant[kind as usize] * a.half.later[kind as usize]
                }
                Kind::Uncertain | Kind::Flattens => {
                    let (p_f, p_not_f) = column.parts(slot, expectation);
                    a.half.factor(p_f, p_not_f)
                }
            }
        });
        factors.product::<f64>().clamp(0.0, 1.0)
    }

    /// A document's feature event per active rule — its signature on the
    /// exact route.
    fn signature<'r>(&self, rows: &'r Rows<'_>, slot: usize) -> Vec<Option<&'r EventExpr>> {
        self.active
            .iter()
            .map(|a| rows.column(a.rule).event(slot))
            .collect()
    }
}

/// The exact route, for the documents the lane test rejected: per
/// distinct signature (a document's feature event per active rule), in
/// slot order, builds its factors and runs [`Expectation::compute`] on
/// them once, and scores every `deferred` slot of `scores` from its
/// signature's value. Returns how many evaluations ran — the distinct
/// signatures. Bit-identical to one evaluation per slot: a memo value is a
/// pure function of its hash-consed key.
fn exact_route(
    contexts: &Contexts<'_>,
    rows: &Rows<'_>,
    deferred: &[usize],
    scores: &mut [DocScore],
    expectation: &mut Expectation<'_>,
) -> Result<u64> {
    let per_rule: Vec<(&RuleBinding, EventExpr, Factor)> = contexts
        .active
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
    let mut values: HashMap<Vec<Option<&EventExpr>>, f64> = HashMap::new();
    for &slot in deferred {
        let e = match values.entry(contexts.signature(rows, slot)) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(miss) => {
                let factors: Vec<Factor> = miss
                    .key()
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
                    .collect();
                *miss.insert(expectation.compute(&factors))
            }
        };
        scores[slot].score = e.clamp(0.0, 1.0);
    }
    Ok(values.len() as u64)
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
        Ok(column_pass(env, bindings, docs, scratch, exact_route)?.0)
    }

    fn score_closed_form(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Option<f64>>> {
        let (scores, deferred) = column_pass(env, bindings, docs, scratch, |_, _, _, _, _| Ok(0))?;
        let mut closed: Vec<Option<f64>> = scores.into_iter().map(|s| Some(s.score)).collect();
        for slot in deferred {
            closed[slot] = None;
        }
        Ok(closed)
    }
}

/// One pass of an optimised engine over a batch: every slot the lane test
/// admits is scored in closed form from the feature columns
/// ([`Contexts::lanes`]); the slots it rejects, if any, are handed to
/// `settle`, ascending, to score in place, and `settle` returns how many
/// evaluations of their own they took ([`BatchStats::fallbacks`]). Returns
/// the scores and the rejected slots. One sweep of `docs.len()` lanes.
pub(super) fn column_pass(
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
    scratch: &mut EvalScratch,
    settle: impl FnOnce(
        &Contexts<'_>,
        &Rows<'_>,
        &[usize],
        &mut [DocScore],
        &mut Expectation<'_>,
    ) -> Result<u64>,
) -> Result<(Vec<DocScore>, Vec<usize>)> {
    if docs.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let set = env.kb.rows().set_for(env.kb, bindings);
    let rows = set.rows(bindings, docs);
    let contexts = Contexts::new(bindings, &env.kb.universe);
    let mut expectation = Expectation::new(&env.kb.universe);
    let (mut scores, deferred) = contexts.lanes(&rows, docs, &mut expectation);
    let fallbacks = if deferred.is_empty() {
        0
    } else {
        settle(&contexts, &rows, &deferred, &mut scores, &mut expectation)?
    };
    scratch.record_batch(BatchStats {
        sweeps: 1,
        lanes: docs.len() as u64,
        fallbacks,
    });
    Ok((scores, deferred))
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

    /// A rule whose context never applies is skipped: the score is the
    /// other rule's factor alone, bit for bit what keeping the skipped
    /// rule's constant factor 1 would give.
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
        let factors: Vec<Factor> = crate::bind_rules(&env)
            .iter()
            .map(|b| {
                let (g, f) = (b.context_event.clone(), b.preference_event(doc));
                Factor::new([
                    (EventExpr::not(g.clone()), 1.0),
                    (EventExpr::and([g.clone(), f.clone()]), b.sigma),
                    (EventExpr::and([g, EventExpr::not(f)]), 1.0 - b.sigma),
                ])
            })
            .collect();
        let kept = capra_events::expectation(&kb.universe, &factors);
        assert_eq!(pruned.to_bits(), kept.to_bits());
        assert!((pruned - (0.5 * 0.7 + 0.5 * 0.3)).abs() < 1e-12);
    }
}
