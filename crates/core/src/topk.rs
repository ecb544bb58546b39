//! Top-k ranking in two phases.
//!
//! The paper's serving query is `LIMIT`-shaped — *"show me the ten best
//! programs for this situation"* — and its Discussion asks to prune
//! candidate documents early. What is worth pruning depends on what a score
//! costs, and that differs per document, so [`rank_top_k`] asks the engine:
//!
//! 1. **Closed form.** One [`ScoringEngine::score_closed_form`] pass over
//!    the whole candidate list returns the exact score of every document
//!    the engine can score in `O(rules)` — for [`crate::LineageEngine`] the
//!    documents that pass its lane test, for [`crate::FactorizedEngine`]
//!    all of them — and defers the rest. When nothing is deferred the
//!    answer is [`rank`] of that pass cut at `k`: one sweep, no bound, no
//!    bound sort — and no full sort either, since the `k` best slots are
//!    selected first and only they are sorted (the whole pass only when a
//!    candidate repeats among them). A dozen flops per rule is less than
//!    any bound costs, so these documents are never pruned.
//! 2. **Bound, prune, evaluate — the deferred documents only.** A deferred
//!    document costs a Shannon expansion (or, for an engine that implements
//!    only `score_all_bound`, whatever that costs), which is what a cheap
//!    upper bound can save. Each rule `r` contributes a factor of at most
//!    `max(σ_r, 1 − σ_r)` whenever its context applies, so a per-document
//!    bound needs no event probability beyond `P(G_r)`, which the rule's
//!    binding holds. The deferred
//!    documents are evaluated in descending bound order, in batches, and
//!    the scan stops as soon as the next bound falls below the k-th best
//!    score so far — a floor that **starts** at the k-th best closed-form
//!    score, so a deferred document that cannot beat the first phase's
//!    answer is never evaluated at all.
//!
//! The bound comes in two regimes, chosen **per deferred document** from
//! that document's own row of feature events plus the contexts — a
//! document's rule factors are independent exactly when *its* events are
//! variable-disjoint ([`ContextSupport`], the test the lineage engine's
//! lane test is made of), whatever other documents' events share:
//!
//! * **variable-disjoint row** (deferred for its shape, not its
//!   variables — e.g. a conjunctive feature): the expectation factorises
//!   per rule, so a matching document is bounded by
//!   `(1 − P(G_r)) + P(G_r)·max(σ_r, 1 − σ_r)` and a non-matching one
//!   contributes exactly `(1 − P(G_r)) + P(G_r)·(1 − σ_r)`;
//! * **entangled row**: the product no longer factorises, so the bound
//!   falls back to the world-wise maximum of each rule's factor — `1` unless
//!   the rule's context is *certain*, in which case `max(σ_r, 1 − σ_r)`
//!   (matching) or exactly `1 − σ_r` (non-matching). Still sound under
//!   arbitrary correlation, just less discriminating.
//!
//! The result is exactly `rank(score_all(docs))[..k]`, including the
//! deterministic tie-break by document id and [`rank`]'s rule that a
//! repeated candidate is listed once: deferred candidates whose bound
//! *ties* the floor are always evaluated, and a `1e-9` slack absorbs
//! floating-point rounding between the bound and the engines' factor
//! arithmetic. It also errors exactly when the full rank would: the first
//! phase runs the engine's own checks on every slot it scores, and
//! [`ScoringEngine::validate_workload`] covers the deferred documents
//! before any of them is pruned. (`k = 0` asks for nothing and touches
//! nothing.)

use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::{EventExpr, VarId};

use crate::bind::{bind_rules_shared, RuleBinding};
use crate::engines::{
    rank, rank_keys, ranked, slot_of, take_ranked, top_keys, ColumnView, ContextSupport, DocScore,
    EvalScratch, Kind, ScoringEngine,
};
use crate::{Result, ScoringEnv};

/// Absolute slack added to upper bounds before pruning, absorbing the
/// floating-point rounding difference between the bound product and the
/// engines' own factor arithmetic (scores live in `[0, 1]`, so an absolute
/// slack is meaningful). Ties at the k-th score stay unpruned either way,
/// which is what makes the id tie-break exact.
pub(crate) const BOUND_SLACK: f64 = 1e-9;

/// Returns the exact top `k` of `rank(engine.score_all(env, docs))`: the
/// documents the engine scores in closed form are ranked directly, the
/// ones it defers are evaluated only while their score upper bound can
/// still reach the running top-k (see the module docs). Cold entry point;
/// sessions use [`crate::ScoringSession::rank_top_k`] to reuse cached
/// bindings.
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
        // Nothing to cut; a full ranking is the same answer.
        return Ok(rank(engine.score_all_bound(env, bindings, docs, scratch)?));
    }
    // First phase: one closed-form pass over every candidate.
    let closed = engine.score_closed_form(env, bindings, docs, scratch)?;
    let mut scored: Vec<DocScore> = Vec::with_capacity(docs.len());
    let mut deferred: Vec<IndividualId> = Vec::new();
    for (&doc, score) in docs.iter().zip(closed) {
        match score {
            Some(score) => scored.push(DocScore { doc, score }),
            None => deferred.push(doc),
        }
    }
    let mut top = rank_cut(scored, k);
    if deferred.is_empty() {
        return Ok(top);
    }
    // A pruned document is never handed to the engine, so its per-document
    // input validation runs up front — top-k must error exactly when a full
    // rank would.
    engine.validate_workload(env, bindings, &deferred)?;
    let bounds = doc_upper_bounds(env, bindings, &deferred);
    // Descending by bound (ties by document id). A repeated candidate sorts
    // next to itself and is kept once, the cut `rank` makes.
    let mut order: Vec<(f64, IndividualId)> = bounds.into_iter().zip(deferred).collect();
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    order.dedup_by_key(|&mut (_, doc)| doc);

    // Second phase: evaluate the deferred documents in batches, best bound
    // first, against a floor that is the k-th best score so far — the k-th
    // closed-form score to begin with.
    let batch = k.max(16);
    let mut start = 0;
    while start < order.len() {
        let floor = top.get(k - 1).map_or(0.0, |kth| kth.score);
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
        top.extend(engine.score_all_bound(env, bindings, &chunk, scratch)?);
        top = rank_cut(top, k);
        start = end;
    }
    Ok(top)
}

/// `rank(scores)` cut at `k`, sorting only what survives the cut when it
/// can: the `k` best slots are selected and ranked ([`top_keys`]), and the
/// whole list is ranked only when a document repeats among them — [`rank`]
/// lists it once, so the cut would come out short. Without a repeat those
/// `k` slots are `k` documents, and no slot outside them ranks above any
/// of them.
fn rank_cut(scores: Vec<DocScore>, k: usize) -> Vec<DocScore> {
    if k > 0 && scores.len() > k {
        let mut keys = rank_keys(&scores);
        let head = top_keys(&scores, &mut keys, k);
        let doc = |key: u64| scores[slot_of(key)].doc;
        if head.windows(2).all(|w| doc(w[0]) != doc(w[1])) {
            return take_ranked(&scores, head);
        }
    }
    let mut ranked = ranked(&scores);
    ranked.truncate(k);
    ranked
}

/// What one applicable rule contributes at most to a document that matches
/// its preference (`hit`) and to one that does not (`miss`), in each of
/// the two bound regimes.
struct RuleBound {
    factorised: (f64, f64),
    world_wise: (f64, f64),
}

/// Score upper bound per document (parallel to `docs`): the product over
/// applicable rules of the hit/miss bound factor, in the regime the
/// document's own events allow (see the module docs).
fn doc_upper_bounds(
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
) -> Vec<f64> {
    // Inapplicable rules contribute the constant 1 and are dropped.
    let applicable: Vec<(usize, &RuleBinding)> = bindings
        .iter()
        .map(Arc::as_ref)
        .enumerate()
        .filter(|(_, b)| !b.is_inapplicable())
        .collect();
    let rule_bounds: Vec<(usize, RuleBound)> = applicable
        .iter()
        .map(|&(rule, b)| {
            let spread = b.sigma.max(1.0 - b.sigma);
            let pg = b.context_prob(&env.kb.universe);
            let bound = RuleBound {
                factorised: ((1.0 - pg) + pg * spread, (1.0 - pg) + pg * (1.0 - b.sigma)),
                world_wise: if b.context_event.is_true() {
                    // Certain context: the factor is σ/(1−σ) in every
                    // world.
                    (spread, 1.0 - b.sigma)
                } else {
                    // Entangled and uncertain: only the trivial world-wise
                    // bound is sound.
                    (1.0, 1.0)
                },
            };
            (rule, bound)
        })
        .collect();
    // A document's features: the applicable rules' columns at its row.
    let set = env.kb.rows().set_for(env.kb, bindings);
    let rows = set.rows(bindings, docs);
    let columns: Vec<(ColumnView<'_>, &RuleBound)> = rule_bounds
        .iter()
        .map(|(rule, bound)| (rows.column(*rule), bound))
        .collect();
    let support = ContextSupport::new(applicable.iter().map(|(_, b)| &b.context_event));
    let cleared = rows.cleared(&support);
    let mut seen: Vec<VarId> = Vec::new();
    (0..docs.len())
        .map(|slot| {
            // The list's verdict, the row's, then the cells under the
            // applicable rules where neither settles it — the lane test's
            // order.
            let disjoint = cleared || rows.clears(&support, slot) || {
                seen.clear();
                for (column, _) in &columns {
                    let event = column.event(slot);
                    seen.extend_from_slice(event.map_or(&[][..], EventExpr::support_slice));
                }
                support.shared_with(&mut seen).is_none()
            };
            columns
                .iter()
                .map(|(column, bound)| {
                    let (hit, miss) = if disjoint {
                        bound.factorised
                    } else {
                        bound.world_wise
                    };
                    if column.kind(slot) == Kind::Absent {
                        miss
                    } else {
                        hit
                    }
                })
                .product()
        })
        .collect()
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

    /// An all-lane batch is one engine sweep and nothing else: no bound is
    /// computed, no document evaluated twice.
    #[test]
    fn an_all_lane_batch_is_one_sweep_and_no_bounds() {
        let (kb, rules, user, docs) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = LineageEngine::new();
        let bindings = bind_rules_shared(&env);
        let mut scratch = EvalScratch::new();
        let top = rank_top_k_bound(&env, &engine, &bindings, &docs, 5, &mut scratch).unwrap();
        let full = rank(engine.score_all(&env, &docs).unwrap());
        assert_eq!(top, full[..5]);
        let batch = scratch.batch_stats();
        assert_eq!(
            (batch.sweeps, batch.lanes, batch.fallbacks),
            (1, docs.len() as u64, 0)
        );
    }

    /// Scores where a packed key could go wrong: both zeros, subnormals of
    /// either sign, 1.0, neighbours of 1.0 and ½ — ½ and the next score up
    /// differ only in their lowest bit, below the key's score half.
    const EDGE_SCORES: [f64; 8] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 8.0,
        1.0,
        1.0f64.next_down(),
        0.5,
        0.5f64.next_up(),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `rank` and `rank_cut` at every `k` from 1 to one past the list's
        /// length select and sort packed keys; the answer is the
        /// comparator's — `by_rank` over the whole list, each document
        /// once — cut at `k`. Documents draw their score from
        /// [`EDGE_SCORES`], so equal scores on different ids are common,
        /// and lists repeat documents.
        #[test]
        fn every_cut_by_packed_keys_is_the_comparator_sorts_prefix(
            per_doc in proptest::collection::vec(proptest::any::<u8>(), 8..9),
            slots in proptest::collection::vec(proptest::any::<u8>(), 1..24),
        ) {
            let mut kb = Kb::new();
            let docs: Vec<IndividualId> =
                (0..per_doc.len()).map(|d| kb.individual(&format!("d{d}"))).collect();
            let list: Vec<DocScore> = slots
                .iter()
                .map(|&slot| {
                    let d = usize::from(slot) % docs.len();
                    let score = EDGE_SCORES[usize::from(per_doc[d]) % EDGE_SCORES.len()];
                    DocScore { doc: docs[d], score }
                })
                .collect();
            let mut want = list.clone();
            want.sort_by(crate::engines::by_rank);
            want.dedup_by_key(|s| s.doc);
            let bits = |scores: &[DocScore]| -> Vec<(IndividualId, u64)> {
                scores.iter().map(|s| (s.doc, s.score.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&rank(list.clone())), bits(&want));
            for k in 1..=list.len() + 1 {
                let got = rank_cut(list.clone(), k);
                proptest::prop_assert_eq!(bits(&got), bits(&want[..k.min(want.len())]), "k = {}", k);
            }
        }
    }

    const CONTEXTS: [&str; 5] = ["Ctx0", "Ctx1", "Ctx0 AND Ctx2", "Ctx1 OR Ctx2", "Ctx3"];
    const PREFERENCES: [&str; 6] = [
        "Feat0",
        "Feat1",
        "Feat0 AND Feat1",
        "NOT Feat1",
        "EXISTS hasGenre.{GenreA}",
        "EXISTS hasGenre.{GenreB}",
    ];
    const SIGMAS: [f64; 4] = [0.8, 0.35, 0.5, 1.0];

    /// Asserts `concept` on `subject`: not at all, certainly, with
    /// probability `p`, or riding on the one `sensor` variable contexts and
    /// documents may both read.
    fn assert_fact(kb: &mut Kb, subject: IndividualId, concept: &str, kind: u8, p: f64) {
        match kind % 4 {
            0 => {}
            1 => kb.assert_concept(subject, concept),
            2 => {
                kb.assert_concept_prob(subject, concept, p).unwrap();
            }
            _ => {
                let sensor = match kb.universe.var("sensor") {
                    Some(var) => var,
                    None => kb.universe.add_bool("sensor", 0.3).unwrap(),
                };
                let reading = kb.universe.bool_event(sensor).unwrap();
                kb.assert_concept_event(subject, concept, reading);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// On small random knowledge bases — uncertain, certain and
        /// variable-sharing contexts; exclusive genre alternatives across
        /// rules; a sensor read by a context and a document; conjunctive
        /// features the lane test rejects for their shape alone — every
        /// document the exact engine defers has a bound that dominates its
        /// true score, whichever regime its row falls in; and a batch with
        /// nothing deferred costs one sweep.
        #[test]
        fn bounds_dominate_scores(
            rule_draws in proptest::collection::vec(
                (proptest::any::<u8>(), proptest::any::<u8>(), proptest::any::<u8>()),
                1..4,
            ),
            ctx_draws in proptest::collection::vec((proptest::any::<u8>(), 0.05f64..=0.95), 4..5),
            feat_draws in proptest::collection::vec((proptest::any::<u8>(), 0.05f64..=0.95), 12..13),
            genre_draws in proptest::collection::vec((proptest::any::<u8>(), 0.05f64..=0.95), 6..7),
        ) {
            let mut kb = Kb::new();
            let user = kb.individual("user");
            for (c, &(kind, p)) in ctx_draws.iter().enumerate() {
                assert_fact(&mut kb, user, &format!("Ctx{c}"), kind, p);
            }
            let genres = [kb.individual("GenreA"), kb.individual("GenreB")];
            let docs: Vec<IndividualId> = genre_draws
                .iter()
                .enumerate()
                .map(|(d, &(kind, p))| {
                    let doc = kb.individual(&format!("doc{d}"));
                    for f in 0..2 {
                        let (kind, p) = feat_draws[d * 2 + f];
                        assert_fact(&mut kb, doc, &format!("Feat{f}"), kind, p);
                    }
                    if kind % 3 == 1 {
                        // One genre or the other, never both.
                        let var = kb
                            .universe
                            .add_choice(&format!("kind{d}"), &[0.9 * p, 0.9 * (1.0 - p)])
                            .unwrap();
                        for (alt, &genre) in genres.iter().enumerate() {
                            let event = kb.universe.atom(var, alt as u16).unwrap();
                            kb.assert_role_event(doc, "hasGenre", genre, event);
                        }
                    } else if kind % 3 == 2 {
                        kb.assert_role_prob(doc, "hasGenre", genres[0], p).unwrap();
                        kb.assert_role_prob(doc, "hasGenre", genres[1], 1.0 - p).unwrap();
                    }
                    doc
                })
                .collect();
            let mut rules = RuleRepository::new();
            for (i, &(ctx, pref, sigma)) in rule_draws.iter().enumerate() {
                rules
                    .add(PreferenceRule::new(
                        format!("R{i}"),
                        kb.parse(CONTEXTS[ctx as usize % CONTEXTS.len()]).unwrap(),
                        kb.parse(PREFERENCES[pref as usize % PREFERENCES.len()]).unwrap(),
                        Score::new(SIGMAS[sigma as usize % SIGMAS.len()]).unwrap(),
                    ))
                    .unwrap();
            }
            let env = ScoringEnv { kb: &kb, rules: &rules, user };
            let bindings = bind_rules_shared(&env);
            let engine = LineageEngine::new();

            let mut scratch = EvalScratch::new();
            let closed = engine.score_closed_form(&env, &bindings, &docs, &mut scratch).unwrap();
            let deferred: Vec<IndividualId> = docs
                .iter()
                .zip(&closed)
                .filter_map(|(&doc, score)| score.is_none().then_some(doc))
                .collect();
            if deferred.is_empty() {
                let mut scratch = EvalScratch::new();
                rank_top_k_bound(&env, &engine, &bindings, &docs, 2, &mut scratch).unwrap();
                let batch = scratch.batch_stats();
                proptest::prop_assert_eq!(
                    (batch.sweeps, batch.lanes, batch.fallbacks),
                    (1, docs.len() as u64, 0)
                );
                return Ok(());
            }
            let bounds = doc_upper_bounds(&env, &bindings, &deferred);
            // The view engine enumerates worlds: exact under any correlation.
            let exact = crate::NaiveViewEngine::new().score_all(&env, &deferred).unwrap();
            for (ub, s) in bounds.iter().zip(&exact) {
                proptest::prop_assert!(
                    s.score <= ub + BOUND_SLACK,
                    "bound {} must dominate score {} for {:?}",
                    ub,
                    s.score,
                    s.doc
                );
            }
        }
    }
}
