//! `LineageEngine`'s two routes against one reference.
//!
//! The engine scores a document in closed form when the lane test finds
//! its rule factors variable-disjoint, and through the exact
//! `Expectation::compute` otherwise. Both must come out at the bits of the
//! test-side factor reference (`tests/common`), which knows neither route:
//!
//! * a property over random knowledge bases mixing every event shape the
//!   reasoner produces — so that lanes and exact evaluations meet in one
//!   batch, share one call's memo, and are compared document by document;
//! * a table of hand-built shapes that pins, per shape, which route the
//!   lane test picks (it is observable: `BatchStats::fallbacks`);
//! * counter pins through `RankingService`: the batch counters of
//!   independent and of entangled traffic, kept past a tenant's eviction;
//! * the lane route as a column pass, cell kind by cell kind: dropped
//!   cases, `True` contexts and features, a constant product of 0, cells
//!   that flatten, rows inside the contexts' support range — on lineage
//!   and on factorized, which reads the same columns;
//! * two-phase top-k over the same random knowledge bases: lane documents
//!   ranked from the closed-form pass, entangled ones bounded and scanned,
//!   on every engine and every route that serves `k < docs.len()` — always
//!   the exact prefix of the full ranking;
//! * the row's verdict — the document's half of the lane test, judged when
//!   its feature row is synced — pinned case by case: it follows its row
//!   over a catalogue assert, and where it cannot settle the test (cells
//!   that share a variable under a rule the asker does not read) the
//!   per-request test still decides, for the route and for top-k's bound.
//!
//! * the page — the last candidate list a row table resolved, met again
//!   without a probe and read down columns gathered in slot order — over
//!   random sequences of lists, catalogue asserts, cold calls and context
//!   switches, on every engine against the cold path.
//!
//! The five properties scale their case counts with `CAPRA_STRESS_ITERS`,
//! which CI's stress step sets.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use capra::commerce::generate::{flip_rules, generate, ShopConfig};
use capra::core::{rank_top_k_bound, EvalScratch, RuleBinding};
use capra::dl::IndividualId;
use capra::events::{brute_force_expectation, EventExpr, Expectation, Universe, VarId};
use capra::prelude::*;
use proptest::prelude::*;

const N_DOCS: usize = 5;
const N_CTX: usize = 4;
const N_FEAT: usize = 3;

/// Rule contexts: plain, negated, conjunctive (shares `Ctx0`'s variable
/// with the first), disjunctive, and one that never applies.
const CONTEXTS: [&str; 7] = [
    "Ctx0",
    "Ctx1",
    "NOT Ctx1",
    "Ctx2",
    "Ctx0 AND Ctx2",
    "Ctx1 OR Ctx3",
    "Never",
];

/// Rule preferences: plain, negated (closed world: `True` for a document
/// without the feature), conjunctive, disjunctive, the two alternatives
/// of an exclusive genre, and one no document has.
const PREFERENCES: [&str; 8] = [
    "Feat0",
    "Feat1",
    "NOT Feat1",
    "Feat0 AND Feat2",
    "Feat1 OR Feat2",
    "EXISTS hasGenre.{GenreA}",
    "EXISTS hasGenre.{GenreB}",
    "Feat3",
];

const SIGMAS: [f64; 5] = [0.0, 0.5, 1.0, 0.8, 0.35];

/// Multiplier on the properties' case counts (the variable
/// `tests/serve_concurrent.rs` reads): CI's stress step sets it, tier-1
/// runs the base count.
fn stress_iters() -> u32 {
    std::env::var("CAPRA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Asserts `concept` on `subject` the way `kind` says: not at all,
/// certainly, with probability `p`, re-asserted (the slot becomes
/// `first ∨ fresh`), or riding on the one `sensor` variable contexts and
/// documents may both read.
fn assert_fact(kb: &mut Kb, subject: IndividualId, concept: &str, kind: u8, p: f64) {
    match kind % 6 {
        0 => {}
        1 => kb.assert_concept(subject, concept),
        2 | 3 => {
            kb.assert_concept_prob(subject, concept, p).unwrap();
        }
        4 => {
            kb.assert_concept_prob(subject, concept, p).unwrap();
            kb.assert_concept_prob(subject, concept, 1.0 - 0.5 * p)
                .unwrap();
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

type Draw = (u8, f64);

struct Case {
    kb: Kb,
    rules: RuleRepository,
    user: IndividualId,
    docs: Vec<IndividualId>,
}

fn build_case(
    rule_draws: &[(u8, u8, u8)],
    ctx_draws: &[Draw],
    feat_draws: &[Draw],
    genre_draws: &[Draw],
) -> Case {
    let mut kb = Kb::new();
    let user = kb.individual("user");
    for (c, &(kind, p)) in ctx_draws.iter().enumerate() {
        assert_fact(&mut kb, user, &format!("Ctx{c}"), kind, p);
    }
    let genres = [kb.individual("GenreA"), kb.individual("GenreB")];
    let docs: Vec<IndividualId> = (0..N_DOCS)
        .map(|d| {
            let doc = kb.individual(&format!("doc{d}"));
            for f in 0..N_FEAT {
                let (kind, p) = feat_draws[d * N_FEAT + f];
                assert_fact(&mut kb, doc, &format!("Feat{f}"), kind, p);
            }
            let (kind, p) = genre_draws[d];
            match kind % 3 {
                0 => {}
                // One or the other, never both: the disjoint-genres shape.
                1 => {
                    let var = kb
                        .universe
                        .add_choice(&format!("kind{d}"), &[0.9 * p, 0.9 * (1.0 - p)])
                        .unwrap();
                    for (alt, &genre) in genres.iter().enumerate() {
                        let event = kb.universe.atom(var, alt as u16).unwrap();
                        kb.assert_role_event(doc, "hasGenre", genre, event);
                    }
                }
                _ => {
                    kb.assert_role_prob(doc, "hasGenre", genres[0], p).unwrap();
                    kb.assert_role_prob(doc, "hasGenre", genres[1], 1.0 - p)
                        .unwrap();
                }
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
                kb.parse(PREFERENCES[pref as usize % PREFERENCES.len()])
                    .unwrap(),
                Score::new(SIGMAS[sigma as usize % SIGMAS.len()]).unwrap(),
            ))
            .unwrap();
    }
    Case {
        kb,
        rules,
        user,
        docs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96 * stress_iters()))]

    /// On random knowledge bases — uncertain, certain, negated,
    /// re-asserted, conjunctive and disjunctive contexts; the same for
    /// features; σ ∈ {0, 0.5, 1, …}; documents matching no rule; rules
    /// sharing a context variable; exclusive genres across rules; a sensor
    /// read by a context and a document alike —
    /// `LineageEngine::score_all_bound` equals the factor reference bit
    /// for bit on batches of one, two, many and repeated documents, on a
    /// fresh and on a shared scratch, and the naive engines to 1e-12.
    #[test]
    fn lineage_equals_factor_reference_on_random_kbs(
        rule_draws in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        ctx_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_CTX..N_CTX + 1),
        feat_draws in prop::collection::vec(
            (any::<u8>(), 0.05f64..=0.95),
            N_DOCS * N_FEAT..N_DOCS * N_FEAT + 1,
        ),
        genre_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_DOCS..N_DOCS + 1),
    ) {
        let Case { kb, rules, user, docs } =
            build_case(&rule_draws, &ctx_draws, &feat_draws, &genre_draws);
        let env = ScoringEnv { kb: &kb, rules: &rules, user };
        let bindings = bind_rules_shared(&env);
        let engine = LineageEngine::new();
        let want = common::reference_scores(&env, &bindings, &docs);

        // One scratch across every batch below: later batches meet the
        // feature rows earlier ones filled, on either route.
        let mut shared = EvalScratch::new();
        let many = engine.score_all_bound(&env, &bindings, &docs, &mut shared).unwrap();
        prop_assert_eq!(common::bits(&want), common::bits(&many), "whole batch");
        for (slot, doc) in docs.iter().enumerate() {
            let one = std::slice::from_ref(doc);
            let cold = engine.score_all_bound(&env, &bindings, one, &mut EvalScratch::new()).unwrap();
            let warm = engine.score_all_bound(&env, &bindings, one, &mut shared).unwrap();
            prop_assert_eq!(common::bits(&want[slot..=slot]), common::bits(&cold), "doc{} alone", slot);
            prop_assert_eq!(common::bits(&cold), common::bits(&warm), "doc{} alone, warm", slot);
        }
        let pair = engine.score_all_bound(&env, &bindings, &docs[3..], &mut EvalScratch::new()).unwrap();
        prop_assert_eq!(common::bits(&want[3..]), common::bits(&pair), "batch of two");
        let repeated = [docs[1], docs[0], docs[1]];
        let got = engine.score_all_bound(&env, &bindings, &repeated, &mut shared).unwrap();
        let slots = [&want[1], &want[0], &want[1]].map(Clone::clone);
        prop_assert_eq!(common::bits(&slots), common::bits(&got), "repeated document");

        // The naive view engine is exact under any correlation; the
        // enumerating and factorized ones where features are independent,
        // which the strict factorized engine checks for itself.
        let agree = |name: &str, scores: &[DocScore]| {
            for (a, b) in want.iter().zip(scores) {
                prop_assert!((a.score - b.score).abs() <= 1e-12, "{}: {} vs {}", name, b.score, a.score);
            }
            Ok(())
        };
        agree("naive view", &NaiveViewEngine::new().score_all(&env, &docs).unwrap())?;
        if let Ok(factorized) = FactorizedEngine::new().score_all(&env, &docs) {
            agree("factorized", &factorized)?;
            agree("naive enum", &NaiveEnumEngine::new().score_all(&env, &docs).unwrap())?;
        }
    }
}

/// The lane test as it stood before documents had feature rows, from the
/// bindings' public fields and [`Expectation::prob_split`] alone: whether
/// `doc` is scored in closed form (rather than deferred) under `bindings`.
fn lane_test_admits(universe: &Universe, bindings: &[Arc<RuleBinding>], doc: IndividualId) -> bool {
    // A `False` context is the constant factor 1, whatever the feature.
    let active: Vec<&Arc<RuleBinding>> = bindings.iter().filter(|b| !b.is_inapplicable()).collect();
    let factors: Vec<(&EventExpr, EventExpr, f64)> = active
        .iter()
        .map(|b| (&b.context_event, b.preference_event(doc), b.sigma))
        .collect();
    // Constant factors multiply first; a zero among them ends it there.
    let constant = |(g, f, _): &&(&EventExpr, EventExpr, f64)| g.is_true() && f.is_const();
    let zero = |(_, f, sigma): &(&EventExpr, EventExpr, f64)| {
        (if f.is_true() { *sigma } else { 1.0 - *sigma }) == 0.0
    };
    if factors.iter().all(|t| constant(&t)) || factors.iter().filter(constant).any(zero) {
        return true;
    }
    // Every context and every feature event on variables of its own…
    let mut vars: Vec<VarId> = Vec::new();
    for b in &active {
        vars.extend_from_slice(b.context_event.support_slice());
    }
    for (_, f, _) in &factors {
        vars.extend_from_slice(f.support_slice());
    }
    let distinct: BTreeSet<VarId> = vars.iter().copied().collect();
    if distinct.len() != vars.len() {
        return false;
    }
    // …and no conjunction `G ∧ F` / `G ∧ ¬F` that would flatten.
    let mut expectation = Expectation::new(universe);
    factors
        .iter()
        .filter(|(_, f, _)| !f.is_const())
        .all(|(g, f, _)| expectation.prob_split(g, f).is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64 * stress_iters()))]

    /// Feature rows — shared between users, filled on first touch, carried
    /// over catalogue changes view by view, kept beside the sets of cold
    /// calls on the same KB — never show: on the random knowledge
    /// bases above (atoms, re-asserted `Or`s, `Not`, `And`-shaped and
    /// `True` feature events; variables shared feature↔feature and
    /// feature↔context; certain and uncertain contexts), for two users in
    /// turn, over a candidate list that repeats
    /// documents, and again after every one of a few random asserts, the
    /// row-backed sweep equals `Expectation::compute` on the built factors
    /// to the bit and brute-force world enumeration to 1e-9,
    /// `score_closed_form` defers exactly the documents the lane test
    /// defers, and `rank_top_k` is the prefix of the full ranking.
    #[test]
    fn feature_rows_are_invisible_across_users_and_catalogue_changes(
        rule_draws in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        ctx_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_CTX..N_CTX + 1),
        feat_draws in prop::collection::vec(
            (any::<u8>(), 0.05f64..=0.95),
            N_DOCS * N_FEAT..N_DOCS * N_FEAT + 1,
        ),
        genre_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_DOCS..N_DOCS + 1),
        asserts in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0.05f64..=0.95), 0..4),
    ) {
        let Case { mut kb, rules, user, docs } =
            build_case(&rule_draws, &ctx_draws, &feat_draws, &genre_draws);
        let other = kb.individual("other");
        for (c, &(kind, p)) in ctx_draws.iter().rev().enumerate() {
            assert_fact(&mut kb, other, &format!("Ctx{c}"), kind, p);
        }
        let genre_a = kb.voc.find_individual("GenreA").unwrap();
        let list = [docs[1], docs[0], docs[4], docs[1], docs[2], docs[3]];
        let engine = LineageEngine::new();
        // One binding cache and one scratch throughout: unchanged views
        // keep their `Arc`s, so rows are carried from step to step.
        let mut cache = ScoringSession::new();
        let mut scratch = EvalScratch::new();
        for step in 0..=asserts.len() {
            if let Some(&(subject, concept, kind, p)) = step.checked_sub(1).map(|i| &asserts[i]) {
                let doc = docs[subject as usize % N_DOCS];
                match subject % 3 {
                    0 => assert_fact(&mut kb, user, &format!("Ctx{}", concept as usize % N_CTX), kind, p),
                    1 => assert_fact(&mut kb, doc, &format!("Feat{}", concept as usize % N_FEAT), kind, p),
                    _ => {
                        kb.assert_role_prob(doc, "hasGenre", genre_a, p).unwrap();
                    }
                }
            }
            for who in [user, other] {
                let env = ScoringEnv { kb: &kb, rules: &rules, user: who };
                let bound = cache.bind(&env);
                let want = common::reference_scores(&env, &bound, &list);
                let got = engine.score_all_bound(&env, &bound, &list, &mut scratch).unwrap();
                prop_assert_eq!(common::bits(&want), common::bits(&got), "step {}", step);
                for s in &got {
                    let factors = common::factors(&bound, s.doc);
                    let support: BTreeSet<VarId> =
                        factors.iter().flat_map(|f| f.support().iter().copied()).collect();
                    if support.len() <= 10 {
                        let worlds = brute_force_expectation(&kb.universe, &factors);
                        prop_assert!((s.score - worlds).abs() <= 1e-9, "{} vs {}", s.score, worlds);
                    }
                }
                let closed = engine.score_closed_form(&env, &bound, &list, &mut scratch).unwrap();
                for (slot, (&doc, score)) in list.iter().zip(&closed).enumerate() {
                    let lane = lane_test_admits(&kb.universe, &bound, doc);
                    prop_assert_eq!(
                        score.map(f64::to_bits),
                        lane.then_some(want[slot].score.to_bits()),
                        "step {}, slot {}", step, slot
                    );
                }
                let full = rank(got);
                let top = rank_top_k_bound(&env, &engine, &bound, &list, 2, &mut scratch).unwrap();
                prop_assert_eq!(common::bits(&top), common::bits(&full[..2]), "step {}", step);
                // A cold call binds views of its own: it reads rows into a
                // set of its own, beside the bound calls' set, and each
                // later cold call takes over the last one's.
                let cold = engine.score_all(&env, &list).unwrap();
                prop_assert_eq!(common::bits(&want), common::bits(&cold), "cold, step {}", step);
                if let Ok(factorized) =
                    FactorizedEngine::new().score_all_bound(&env, &bound, &list, &mut scratch)
                {
                    let cold = FactorizedEngine::new().score_all(&env, &list).unwrap();
                    prop_assert_eq!(common::bits(&factorized), common::bits(&cold), "factorized");
                }
            }
        }
    }
}

/// How many kinds of step the page property draws between two requests.
const PAGE_STEPS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48 * stress_iters()))]

    /// A row table keeps the last candidate list it resolved as its page:
    /// a request for that very list takes its row positions and its
    /// list-wide lane verdict from the page and reads the columns the page
    /// has gathered in slot order. It never shows: on the random knowledge
    /// bases above, over random sequences of the same list again, one id
    /// changed, two slots swapped, a prefix, a repeat inside the list, a
    /// catalogue assert between requests (the rows go to a new set, the
    /// table's generation on), a cold engine call between requests (a second row
    /// set beside the served one) and a context switch, each list asked
    /// for twice, every engine's served scores and its closed-form
    /// deferrals are the bits the cold path — a clone of the KB, with no
    /// rows yet — gives, or an error exactly where the cold path's is one,
    /// and lineage's are the factor reference's.
    #[test]
    fn a_page_scores_and_defers_as_the_cold_path_over_any_list_sequence(
        rule_draws in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        ctx_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_CTX..N_CTX + 1),
        feat_draws in prop::collection::vec(
            (any::<u8>(), 0.05f64..=0.95),
            N_DOCS * N_FEAT..N_DOCS * N_FEAT + 1,
        ),
        genre_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_DOCS..N_DOCS + 1),
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0.05f64..=0.95), 1..10),
    ) {
        let Case { mut kb, rules, user, docs } =
            build_case(&rule_draws, &ctx_draws, &feat_draws, &genre_draws);
        let genre_a = kb.voc.find_individual("GenreA").unwrap();
        let engines: Vec<(&str, BoxedEngine)> = (top_k_engines().into_iter())
            .filter(|(_, max_rules, _)| rules.len() <= *max_rules)
            .map(|(name, _, make)| (name, make()))
            .collect();
        let mut list = vec![docs[1], docs[0], docs[4], docs[2]];
        // One binding cache and one scratch per engine throughout: the
        // views keep their `Arc`s while the catalogue stands.
        let mut cache = ScoringSession::new();
        let mut scratches: Vec<EvalScratch> = engines.iter().map(|_| EvalScratch::new()).collect();
        for (step, &(op, a, b, p)) in steps.iter().enumerate() {
            let (at, other) = (a as usize % list.len(), b as usize % list.len());
            let doc = docs[b as usize % N_DOCS];
            match op as usize % PAGE_STEPS {
                0 => {}
                1 => list[at] = doc,
                2 => list.swap(at, other),
                3 => list.truncate(at.max(1)),
                4 if list.len() < 10 => {
                    let repeat = list[at];
                    list.insert(other, repeat);
                }
                4 => {}
                5 => match b % 2 {
                    0 => assert_fact(&mut kb, doc, &format!("Feat{}", a as usize % N_FEAT), b / 2, p),
                    _ => {
                        kb.assert_role_prob(doc, "hasGenre", genre_a, p).unwrap();
                    }
                },
                6 => {
                    let env = ScoringEnv { kb: &kb, rules: &rules, user };
                    for (_, engine) in &engines {
                        let _ = engine.score_all(&env, &list);
                    }
                }
                _ => assert_fact(&mut kb, user, &format!("Ctx{}", a as usize % N_CTX), b, p),
            }
            let fresh = kb.clone();
            let cold_env = ScoringEnv { kb: &fresh, rules: &rules, user };
            let cold_bound = bind_rules_shared(&cold_env);
            let env = ScoringEnv { kb: &kb, rules: &rules, user };
            let bound = cache.bind(&env);
            let closed_bits = |closed: Vec<Option<f64>>| -> Vec<Option<u64>> {
                closed.into_iter().map(|score| score.map(f64::to_bits)).collect()
            };
            // The cold path runs the page code too, on a table of its own:
            // lineage's scores are held to the factor reference as well.
            let reference = common::bits(&common::reference_scores(&env, &bound, &list));
            for ((name, engine), scratch) in engines.iter().zip(&mut scratches) {
                if name.ends_with("lineage") {
                    let got = engine.score_all_bound(&env, &bound, &list, scratch).unwrap();
                    prop_assert_eq!(common::bits(&got), reference.clone(), "{}, step {}", name, step);
                }
                let cold = engine
                    .score_all_bound(&cold_env, &cold_bound, &list, &mut EvalScratch::new())
                    .ok()
                    .map(|scores| common::bits(&scores));
                let cold_closed = engine
                    .score_closed_form(&cold_env, &cold_bound, &list, &mut EvalScratch::new())
                    .ok()
                    .map(closed_bits);
                for round in 0..2 {
                    let got = engine.score_all_bound(&env, &bound, &list, scratch).ok();
                    let got = got.map(|scores| common::bits(&scores));
                    prop_assert_eq!(&got, &cold, "{}, step {}, round {}, {:?}", name, step, round, list);
                    let closed = engine.score_closed_form(&env, &bound, &list, scratch).ok();
                    let closed = closed.map(closed_bits);
                    prop_assert_eq!(&closed, &cold_closed, "{}, step {}, round {}, deferrals", name, step, round);
                }
            }
        }
    }
}

/// Contexts of the column-pass property: `Ctx0`, `Ctx1` are asserted
/// before the documents' features and `Ctx2`, `Ctx3` after them, so a
/// document's variables fall inside the contexts' support range without
/// being any of its variables; a conjunction that spans both; one that
/// never applies.
const COLUMN_CONTEXTS: [&str; 6] = ["Ctx0", "Ctx1", "Ctx2", "Ctx3", "Ctx0 AND Ctx3", "Never"];

/// Preferences of the column-pass property: plain (certain, uncertain,
/// re-asserted or on the sensor, as drawn), conjunctive — a cell that
/// flattens — and negated.
const COLUMN_PREFERENCES: [&str; 5] = ["Feat0", "Feat1", "Feat2", "Feat0 AND Feat1", "NOT Feat2"];

/// σ = 0 and σ = 1 drop a case of the factor; the others keep all three.
const COLUMN_SIGMAS: [f64; 4] = [0.0, 1.0, 0.5, 0.8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96 * stress_iters()))]

    /// The lane route is a column pass — constant factors down the rules'
    /// columns, the lane test per slot, the queued factors down the
    /// columns again — and it equals `Expectation::compute` over the
    /// factor reference bit for bit, whatever each cell holds: σ ∈ {0, 1}
    /// with a dropped case; `True` contexts and `True` features; a constant
    /// product that reaches 0 before any factor is queued (a certain
    /// context, σ = 1 and no match — the slot is settled even where the
    /// lane test would defer it); conjunctive cells, which still defer
    /// under an uncertain context; rows inside the contexts' support range
    /// but off their variables; a candidate list with repeats.
    /// `score_closed_form` defers exactly what the lane test defers, and
    /// `FactorizedEngine`, whose closed form is this column pass, equals it
    /// bit for bit on every slot it does not defer, and its own closed form
    /// from public pieces to 1e-12 on every slot — under either policy,
    /// which differ only in whether a correlated slot is an error.
    #[test]
    fn the_column_pass_equals_the_factor_reference_cell_kind_by_cell_kind(
        rule_draws in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        ctx_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_CTX..N_CTX + 1),
        feat_draws in prop::collection::vec(
            (any::<u8>(), 0.05f64..=0.95),
            N_DOCS * N_FEAT..N_DOCS * N_FEAT + 1,
        ),
    ) {
        let mut kb = Kb::new();
        let user = kb.individual("user");
        let assert_contexts = |kb: &mut Kb, range: std::ops::Range<usize>| {
            for c in range {
                let (kind, p) = ctx_draws[c];
                assert_fact(kb, user, &format!("Ctx{c}"), kind, p);
            }
        };
        assert_contexts(&mut kb, 0..2);
        let docs: Vec<IndividualId> = (0..N_DOCS)
            .map(|d| {
                let doc = kb.individual(&format!("doc{d}"));
                for f in 0..N_FEAT {
                    let (kind, p) = feat_draws[d * N_FEAT + f];
                    assert_fact(&mut kb, doc, &format!("Feat{f}"), kind, p);
                }
                doc
            })
            .collect();
        assert_contexts(&mut kb, 2..N_CTX);
        let mut rules = RuleRepository::new();
        for (i, &(ctx, pref, sigma)) in rule_draws.iter().enumerate() {
            rules
                .add(PreferenceRule::new(
                    format!("R{i}"),
                    kb.parse(COLUMN_CONTEXTS[ctx as usize % COLUMN_CONTEXTS.len()]).unwrap(),
                    kb.parse(COLUMN_PREFERENCES[pref as usize % COLUMN_PREFERENCES.len()]).unwrap(),
                    Score::new(COLUMN_SIGMAS[sigma as usize % COLUMN_SIGMAS.len()]).unwrap(),
                ))
                .unwrap();
        }
        let env = ScoringEnv { kb: &kb, rules: &rules, user };
        let bindings = bind_rules_shared(&env);
        let list = [docs[1], docs[0], docs[1], docs[4], docs[2], docs[3], docs[4], docs[4]];
        let want = common::reference_scores(&env, &bindings, &list);
        let mut scratch = EvalScratch::new();
        let engine = LineageEngine::new();
        let got = engine.score_all_bound(&env, &bindings, &list, &mut scratch).unwrap();
        prop_assert_eq!(common::bits(&want), common::bits(&got));
        let closed = engine.score_closed_form(&env, &bindings, &list, &mut scratch).unwrap();
        for (slot, (&doc, score)) in list.iter().zip(&closed).enumerate() {
            let lane = lane_test_admits(&kb.universe, &bindings, doc);
            prop_assert_eq!(
                score.map(f64::to_bits),
                lane.then_some(want[slot].score.to_bits()),
                "slot {}", slot
            );
        }
        let reference = common::factorized_reference(&env, &bindings, &list);
        let lenient = FactorizedEngine::assuming_independence()
            .score_all_bound(&env, &bindings, &list, &mut scratch)
            .unwrap();
        for (slot, (f, r)) in lenient.iter().zip(&reference).enumerate() {
            if let Some(lane) = closed[slot] {
                prop_assert_eq!(f.score.to_bits(), lane.to_bits(), "factorized, slot {}", slot);
            }
            prop_assert!((f.score - r.score).abs() < 1e-12, "slot {}: {} vs {}", slot, f.score, r.score);
        }
        if let Ok(strict) = FactorizedEngine::new().score_all_bound(&env, &bindings, &list, &mut scratch) {
            prop_assert_eq!(common::bits(&strict), common::bits(&lenient), "strict factorized");
        }
    }
}

/// A `True` context, σ = 1 and a document that does not match: the
/// constant factors' product is 0 before any factor is queued, so the slot
/// is scored 0 in closed form — even though its queued factor's feature
/// shares a variable with another rule's context, which would defer it.
#[test]
fn a_constant_product_of_zero_settles_a_slot_the_lane_test_would_defer() {
    let mut shape = Shape::new()
        .rule("Ctx0", "Star", 1.0)
        .rule("Ctx1", "Feat0", 0.5)
        .user_sure("Ctx0");
    let sensor = shape.kb.universe.add_bool("sensor", 0.3).unwrap();
    let reading = shape.kb.universe.bool_event(sensor).unwrap();
    shape
        .kb
        .assert_concept_event(shape.user, "Ctx1", reading.clone());
    shape.kb.assert_concept_event(shape.doc, "Feat0", reading);
    let (score, fallbacks) = shape.score();
    assert_eq!((score, fallbacks), (0.0, 0));
    let env = ScoringEnv {
        kb: &shape.kb,
        rules: &shape.rules,
        user: shape.user,
    };
    let closed = LineageEngine::new()
        .score_closed_form(
            &env,
            &bind_rules_shared(&env),
            &[shape.doc],
            &mut EvalScratch::new(),
        )
        .unwrap();
    assert_eq!(closed, [Some(score)]);
}

type BoxedEngine = Box<dyn ScoringEngine + Sync>;

/// An engine wrapper written before top-k had two phases — what the
/// benchmark's `CountingEngine` forwards, and no more. Without
/// `score_closed_form` every candidate is deferred, bounded and scanned.
struct ForwardOnly(BoxedEngine);

impl ScoringEngine for ForwardOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn config_tag(&self) -> u64 {
        self.0.config_tag()
    }

    fn validate_workload(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
    ) -> Result<(), CoreError> {
        self.0.validate_workload(env, bindings, docs)
    }

    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>, CoreError> {
        self.0.score_all_bound(env, bindings, docs, scratch)
    }
}

/// An engine of the top-k suite: its name, the largest rule set it joins
/// on, and how to make one (the service takes its engine by value).
type TopKEngine = (&'static str, usize, fn() -> BoxedEngine);

/// The four engines, and the two optimised ones behind [`ForwardOnly`].
/// The view engine runs 4ⁿ relational plans per call, and a few hundred
/// calls follow: it joins on rule sets of up to two.
fn top_k_engines() -> Vec<TopKEngine> {
    vec![
        ("naive view", 2, || Box::new(NaiveViewEngine::new())),
        (
            "naive enum",
            usize::MAX,
            || Box::new(NaiveEnumEngine::new()),
        ),
        ("factorized", usize::MAX, || {
            Box::new(FactorizedEngine::new())
        }),
        ("lineage", usize::MAX, || Box::new(LineageEngine::new())),
        ("forward-only lineage", usize::MAX, || {
            Box::new(ForwardOnly(Box::new(LineageEngine::new())))
        }),
        ("forward-only factorized", usize::MAX, || {
            Box::new(ForwardOnly(Box::new(FactorizedEngine::new())))
        }),
    ]
}

/// Holds every route that serves a top-k request — cold `rank_top_k`, a
/// session, the service — to `rank(score_all(docs))[..k]` on each of
/// `batches`, for
/// `k ∈ {0, 1, 2, n − 1, n, n + 5}` and every engine of [`top_k_engines`]:
/// the same documents, the same score bits, and an error exactly when the
/// full ranking is one (`k = 0` asks for nothing and touches nothing).
/// The session and the service live across batches and `k`s, so later
/// requests meet whatever earlier ones left in the caches.
fn assert_top_k_is_the_exact_prefix_on_every_route(
    kb: &Kb,
    rules: &RuleRepository,
    user: IndividualId,
    batches: &[Vec<IndividualId>],
) {
    let env = ScoringEnv { kb, rules, user };
    for (name, max_rules, make) in top_k_engines() {
        if rules.len() > max_rules {
            continue;
        }
        let engine = make();
        let mut session = ScoringSession::new();
        let service = RankingService::new(make(), kb.clone(), rules.clone());
        for docs in batches {
            let n = docs.len();
            let full = engine.score_all(&env, docs).map(rank);
            let mut ks = vec![0, 1, 2, n.saturating_sub(1), n, n + 5];
            ks.sort_unstable();
            ks.dedup();
            for k in ks {
                let want = match &full {
                    _ if k == 0 => Some(Vec::new()),
                    Ok(full) => Some(common::bits(&full[..k.min(full.len())])),
                    Err(_) => None,
                };
                let check = |route: &str, got: Result<Vec<DocScore>, CoreError>| {
                    let got = got.ok().map(|top| common::bits(&top));
                    assert_eq!(got, want, "{name}, {route}, k = {k} of {docs:?}");
                };
                check("cold", rank_top_k(&env, &engine, docs, k));
                check("session", session.rank_top_k(&engine, &env, docs, k));
                check("service", service.rank(user, docs, k));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64 * stress_iters()))]

    /// Two-phase top-k on the random knowledge bases above: the whole
    /// candidate list (lane and entangled documents mixed, as drawn), its
    /// lane documents alone, its entangled documents alone, and a list that
    /// repeats candidates.
    #[test]
    fn two_phase_top_k_is_the_exact_prefix_on_every_route(
        rule_draws in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        ctx_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_CTX..N_CTX + 1),
        feat_draws in prop::collection::vec(
            (any::<u8>(), 0.05f64..=0.95),
            N_DOCS * N_FEAT..N_DOCS * N_FEAT + 1,
        ),
        genre_draws in prop::collection::vec((any::<u8>(), 0.05f64..=0.95), N_DOCS..N_DOCS + 1),
    ) {
        let Case { kb, rules, user, docs } =
            build_case(&rule_draws, &ctx_draws, &feat_draws, &genre_draws);
        let env = ScoringEnv { kb: &kb, rules: &rules, user };
        let closed = LineageEngine::new()
            .score_closed_form(&env, &bind_rules_shared(&env), &docs, &mut EvalScratch::new())
            .unwrap();
        let (lane, entangled): (Vec<_>, Vec<_>) =
            docs.iter().zip(&closed).partition(|(_, score)| score.is_some());
        let only = |part: Vec<(&IndividualId, &Option<f64>)>| -> Vec<IndividualId> {
            part.into_iter().map(|(&doc, _)| doc).collect()
        };
        let repeated = vec![docs[1], docs[0], docs[1], docs[3], docs[0], docs[4]];
        let mut batches = vec![docs.clone(), only(lane), only(entangled), repeated];
        batches.retain(|batch| !batch.is_empty());
        assert_top_k_is_the_exact_prefix_on_every_route(&kb, &rules, user, &batches);
    }
}

/// A morning shelf under three rules: `A` and `B` both prefer `Feat0` with
/// `sigma_ab` — so a document that only *may* have it is entangled, two of
/// its factors standing on one variable — and `C` prefers `Star` with
/// `sigma_c`. Documents are `(name, P(Feat0) if asserted, has Star)`, in
/// id order; every other document is a lane.
fn shelf(sigma_ab: f64, sigma_c: f64, shelf: &[(&str, Option<f64>, bool)]) -> Case {
    let mut kb = Kb::new();
    let user = kb.individual("user");
    kb.assert_concept(user, "Morning");
    let docs = shelf
        .iter()
        .map(|&(name, feat0, star)| {
            let doc = kb.individual(name);
            if let Some(p) = feat0 {
                kb.assert_concept_prob(doc, "Feat0", p).unwrap();
            }
            if star {
                kb.assert_concept(doc, "Star");
            }
            doc
        })
        .collect();
    let mut rules = RuleRepository::new();
    for (name, preference, sigma) in [
        ("A", "Feat0", sigma_ab),
        ("B", "Feat0", sigma_ab),
        ("C", "Star", sigma_c),
    ] {
        rules
            .add(PreferenceRule::new(
                name,
                kb.parse("Morning").unwrap(),
                kb.parse(preference).unwrap(),
                Score::new(sigma).unwrap(),
            ))
            .unwrap();
    }
    Case {
        kb,
        rules,
        user,
        docs,
    }
}

impl Case {
    /// Holds every route to the full ranking (see
    /// [`assert_top_k_is_the_exact_prefix_on_every_route`]), then serves
    /// the top `k` from a fresh lineage service and returns it with the
    /// batch counters that one request left.
    fn serve_top_k(&self, k: usize) -> (Vec<DocScore>, BatchStats) {
        let batches = [self.docs.clone()];
        assert_top_k_is_the_exact_prefix_on_every_route(&self.kb, &self.rules, self.user, &batches);
        let (kb, rules) = (self.kb.clone(), self.rules.clone());
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let top = service.rank(self.user, &self.docs, k).unwrap();
        (top, service.stats().sessions.batch)
    }
}

/// The floor the scan starts from is the k-th closed-form score, and a
/// deferred document whose bound only *ties* it is still evaluated: here it
/// scores the same bits as the k-th lane document and has the lower id, so
/// it takes that document's place.
#[test]
fn an_entangled_document_tying_the_kth_closed_form_score_wins_on_the_lower_id() {
    // σ = ½ twice: `tied` scores ¼·(½·¼ + ½·¼) and a plain document
    // ¼·(½·½), both exactly 1/16, on different routes.
    let case = shelf(
        0.5,
        0.75,
        &[
            ("tied", Some(0.5), false),
            ("star", None, true),
            ("plain1", None, false),
            ("plain2", None, false),
        ],
    );
    let (tied, star) = (case.docs[0], case.docs[1]);
    let (top, batch) = case.serve_top_k(2);
    assert_eq!(
        common::bits(&top),
        [(star, 0.1875f64.to_bits()), (tied, 0.0625f64.to_bits())]
    );
    assert_eq!(
        (batch.sweeps, batch.lanes, batch.fallbacks),
        (2, 4 + 1, 1),
        "one closed-form pass over the four candidates, then `tied` alone, exactly"
    );
}

/// A deferred document is a candidate like any other: bounded above every
/// closed-form score, it is evaluated and takes the top.
#[test]
fn an_entangled_document_can_beat_every_lane_document() {
    let case = shelf(
        0.9,
        0.75,
        &[
            ("star", None, true),
            ("plain1", None, false),
            ("plain2", None, false),
            ("best", Some(0.9), true),
        ],
    );
    let best = case.docs[3];
    let (top, batch) = case.serve_top_k(1);
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].doc, best);
    // ¾ · (0.9·0.9² + 0.1·0.1²)
    assert!((top[0].score - 0.5475).abs() < 1e-12, "{}", top[0].score);
    assert_eq!((batch.sweeps, batch.lanes, batch.fallbacks), (2, 4 + 1, 1));
}

/// Deferred documents whose bounds are below the k-th closed-form score
/// are pruned before the scan evaluates anything: the request is the one
/// closed-form sweep.
#[test]
fn entangled_documents_bounded_below_the_closed_form_floor_are_never_evaluated() {
    // The two `low`s can reach at most 0.6·0.6·0.1 = 0.036; three lanes
    // score 0.4·0.4·0.9 = 0.144.
    let case = shelf(
        0.6,
        0.9,
        &[
            ("low1", Some(0.5), false),
            ("low2", Some(0.4), false),
            ("star1", None, true),
            ("star2", None, true),
            ("star3", None, true),
        ],
    );
    let lows = &case.docs[..2];
    for k in [1, 2, 3] {
        let (top, batch) = case.serve_top_k(k);
        assert!(top.iter().all(|s| !lows.contains(&s.doc)), "k = {k}");
        assert_eq!(
            (batch.sweeps, batch.lanes, batch.fallbacks),
            (1, 5, 0),
            "k = {k}: deferred, bounded and skipped"
        );
    }
}

/// One rule set over one user and one document, built by hand.
struct Shape {
    kb: Kb,
    rules: RuleRepository,
    user: IndividualId,
    doc: IndividualId,
}

impl Shape {
    fn new() -> Self {
        let mut kb = Kb::new();
        let user = kb.individual("user");
        let doc = kb.individual("doc");
        Self {
            kb,
            rules: RuleRepository::new(),
            user,
            doc,
        }
    }

    fn rule(mut self, context: &str, preference: &str, sigma: f64) -> Self {
        let name = format!("R{}", self.rules.len());
        let context = self.kb.parse(context).unwrap();
        let preference = self.kb.parse(preference).unwrap();
        let rule = PreferenceRule::new(name, context, preference, Score::new(sigma).unwrap());
        self.rules.add(rule).unwrap();
        self
    }

    fn user_prob(mut self, concept: &str, p: f64) -> Self {
        self.kb.assert_concept_prob(self.user, concept, p).unwrap();
        self
    }

    fn user_sure(mut self, concept: &str) -> Self {
        self.kb.assert_concept(self.user, concept);
        self
    }

    fn doc_prob(mut self, concept: &str, p: f64) -> Self {
        self.kb.assert_concept_prob(self.doc, concept, p).unwrap();
        self
    }

    fn doc_sure(mut self, concept: &str) -> Self {
        self.kb.assert_concept(self.doc, concept);
        self
    }

    /// Scores the document; returns the score and how many exact
    /// evaluations the one-lane batch needed (0 or 1).
    fn score(&self) -> (f64, u64) {
        let env = ScoringEnv {
            kb: &self.kb,
            rules: &self.rules,
            user: self.user,
        };
        let bindings = bind_rules_shared(&env);
        let mut scratch = EvalScratch::new();
        let got = LineageEngine::new()
            .score_all_bound(&env, &bindings, &[self.doc], &mut scratch)
            .unwrap();
        let want = common::reference_scores(&env, &bindings, &[self.doc]);
        assert_eq!(common::bits(&want), common::bits(&got));
        let batch = scratch.batch_stats();
        assert_eq!((batch.sweeps, batch.lanes), (1, 1), "a one-lane batch");
        (got[0].score, batch.fallbacks)
    }
}

/// The lane test, shape by shape: which route a document takes is decided
/// by the supports and shapes of its events alone, and is visible in
/// `BatchStats::fallbacks`. Every row is also held to the reference.
#[test]
fn the_lane_test_picks_the_route_by_supports_and_shapes() {
    const LANE: u64 = 0;
    const EXACT: u64 = 1;
    let independent = || {
        Shape::new()
            .rule("Ctx0", "Feat0", 0.8)
            .rule("Ctx1", "Feat1", 0.35)
            .user_prob("Ctx0", 0.6)
            .user_prob("Ctx1", 0.4)
            .doc_prob("Feat0", 0.7)
            .doc_prob("Feat1", 0.2)
    };
    let rows: Vec<(&str, Shape, u64)> = vec![
        ("independent atoms", independent(), LANE),
        (
            "re-asserted context and feature: slot ∨ fresh",
            independent().user_prob("Ctx0", 0.3).doc_prob("Feat1", 0.9),
            LANE,
        ),
        (
            "certain contexts: the ¬G case vanishes",
            Shape::new()
                .rule("Ctx0", "Feat0", 0.8)
                .rule("Ctx1", "Feat1", 0.35)
                .user_sure("Ctx0")
                .user_sure("Ctx1")
                .doc_prob("Feat0", 0.7),
            LANE,
        ),
        (
            "negated context and feature: ¬¬x is x",
            Shape::new()
                .rule("NOT Ctx0", "NOT Feat0", 0.8)
                .user_prob("Ctx0", 0.6)
                .doc_prob("Feat0", 0.7),
            LANE,
        ),
        (
            "disjunctive context and feature",
            Shape::new()
                .rule("Ctx0 OR Ctx1", "Feat0 OR Feat1", 0.8)
                .user_prob("Ctx0", 0.6)
                .user_prob("Ctx1", 0.4)
                .doc_prob("Feat0", 0.7)
                .doc_prob("Feat1", 0.2),
            LANE,
        ),
        (
            "certain match, certain miss, no rule matched",
            Shape::new()
                .rule("Ctx0", "Feat0", 0.8)
                .rule("Ctx1", "Feat1", 0.35)
                .rule("Ctx1", "Feat2", 0.5)
                .user_prob("Ctx0", 0.6)
                .user_sure("Ctx1")
                .doc_sure("Feat0"),
            LANE,
        ),
        (
            "conjunctive context without a feature: no conjunction to flatten",
            Shape::new()
                .rule("Ctx0 AND Ctx1", "Feat0", 0.8)
                .user_prob("Ctx0", 0.6)
                .user_prob("Ctx1", 0.4),
            LANE,
        ),
        (
            "conjunctive context with a feature: G ∧ F would flatten",
            Shape::new()
                .rule("Ctx0 AND Ctx1", "Feat0", 0.8)
                .user_prob("Ctx0", 0.6)
                .user_prob("Ctx1", 0.4)
                .doc_prob("Feat0", 0.7),
            EXACT,
        ),
        (
            "conjunctive feature under an uncertain context",
            Shape::new()
                .rule("Ctx0", "Feat0 AND Feat1", 0.8)
                .user_prob("Ctx0", 0.6)
                .doc_prob("Feat0", 0.7)
                .doc_prob("Feat1", 0.2),
            EXACT,
        ),
        (
            "conjunctive feature under a certain context: the case is F itself",
            Shape::new()
                .rule("Ctx0", "Feat0 AND Feat1", 0.8)
                .user_sure("Ctx0")
                .doc_prob("Feat0", 0.7)
                .doc_prob("Feat1", 0.2),
            LANE,
        ),
        (
            "two rules on one uncertain context variable",
            independent().rule("Ctx0", "Feat2", 0.5),
            EXACT,
        ),
        (
            "two rules on one certain context",
            Shape::new()
                .rule("Ctx0", "Feat0", 0.8)
                .rule("Ctx0", "Feat1", 0.35)
                .user_sure("Ctx0")
                .doc_prob("Feat0", 0.7)
                .doc_prob("Feat1", 0.2),
            LANE,
        ),
        (
            "a feature between the contexts' variables: ranges overlap, supports do not",
            Shape::new()
                .rule("Ctx0", "Feat0", 0.8)
                .rule("Ctx1", "Feat1", 0.35)
                .user_prob("Ctx0", 0.6)
                .doc_prob("Feat0", 0.7)
                .user_prob("Ctx1", 0.4),
            LANE,
        ),
        (
            "two rules reading one feature variable",
            independent()
                .rule("Ctx2", "Feat0", 0.5)
                .user_prob("Ctx2", 0.5),
            EXACT,
        ),
    ];
    for (name, shape, route) in rows {
        let (_, fallbacks) = shape.score();
        assert_eq!(fallbacks, route, "{name}");
    }

    // A `False` context is a constant factor 1, and its feature entangles
    // nothing.
    let (plain, _) = independent().score();
    let (never, fallbacks) = independent().rule("Never", "Feat0", 0.5).score();
    assert_eq!(
        (never.to_bits(), fallbacks),
        (plain.to_bits(), LANE),
        "a rule that never applies changes nothing"
    );

    // σ = 1 under a certain context on a document that does not match:
    // every case of the factor is dropped and the product is an empty sum.
    let (empty, fallbacks) = Shape::new()
        .rule("Ctx0", "Feat0", 1.0)
        .user_sure("Ctx0")
        .score();
    assert_eq!((empty, fallbacks), (0.0, LANE));

    // A sensor read by a context and by the document.
    let mut shared = independent();
    let sensor = shared.kb.universe.add_bool("sensor", 0.3).unwrap();
    let reading = shared.kb.universe.bool_event(sensor).unwrap();
    shared
        .kb
        .assert_concept_event(shared.user, "Ctx1", reading.clone());
    shared.kb.assert_concept_event(shared.doc, "Feat0", reading);
    assert_eq!(
        shared.score().1,
        EXACT,
        "context and feature share a sensor"
    );
}

/// The paper's disjoint-genres situation (section 3.2) through the
/// service: the bulletin is *either* traffic or weather, two rules prefer
/// one each, and the score is the hand-derived 0.24 — which independence
/// would get wrong, so the document must leave the lanes.
#[test]
fn disjoint_genres_leave_the_lanes_and_score_exactly() {
    let mut kb = Kb::new();
    let user = kb.individual("peter");
    kb.assert_concept(user, "Morning");
    let bulletin = kb.individual("bulletin");
    let plain = kb.individual("plain");
    let traffic = kb.individual("Traffic");
    let weather = kb.individual("Weather");
    let kind = kb.universe.add_choice("kind", &[0.6, 0.4]).unwrap();
    for (alt, genre) in [traffic, weather].into_iter().enumerate() {
        let event = kb.universe.atom(kind, alt as u16).unwrap();
        kb.assert_role_event(bulletin, "hasGenre", genre, event);
    }
    kb.assert_role_prob(plain, "hasGenre", traffic, 0.5)
        .unwrap();
    let mut rules = RuleRepository::new();
    for (name, genre, sigma) in [("T", "Traffic", 0.8), ("W", "Weather", 0.6)] {
        rules
            .add(PreferenceRule::new(
                name,
                kb.parse("Morning").unwrap(),
                kb.parse(&format!("EXISTS hasGenre.{{{genre}}}")).unwrap(),
                Score::new(sigma).unwrap(),
            ))
            .unwrap();
    }
    let service = RankingService::new(LineageEngine::new(), kb, rules);
    let ranked = service.rank(user, &[bulletin, plain], 2).unwrap();
    let score = ranked.iter().find(|s| s.doc == bulletin).unwrap().score;
    // P(traffic)·σ_T·(1−σ_W) + P(weather)·(1−σ_T)·σ_W + P(neither)·(1−σ_T)·(1−σ_W)
    let expected = 0.6 * 0.8 * 0.4 + 0.4 * 0.2 * 0.6 + 0.0 * 0.2 * 0.4;
    assert!((score - expected).abs() < 1e-12, "{score} vs {expected}");
    let batch = service.stats().sessions.batch;
    assert_eq!(
        (batch.sweeps, batch.lanes, batch.fallbacks),
        (1, 2, 1),
        "the bulletin is evaluated exactly, the plain programme beside it in closed form"
    );
}

/// The disjoint-genres shelf of
/// `disjoint_genres_leave_the_lanes_and_score_exactly` for two users under
/// the same certain context: the service over it, the users and the page
/// (the entangled bulletin beside a plain programme).
fn disjoint_genres_service(
    config: ServiceConfig,
) -> (
    RankingService<LineageEngine>,
    [IndividualId; 2],
    [IndividualId; 2],
) {
    let mut kb = Kb::new();
    let users = ["peter", "mary"].map(|name| {
        let user = kb.individual(name);
        kb.assert_concept(user, "Morning");
        user
    });
    let bulletin = kb.individual("bulletin");
    let plain = kb.individual("plain");
    let traffic = kb.individual("Traffic");
    let weather = kb.individual("Weather");
    let kind = kb.universe.add_choice("kind", &[0.6, 0.4]).unwrap();
    for (alt, genre) in [traffic, weather].into_iter().enumerate() {
        let event = kb.universe.atom(kind, alt as u16).unwrap();
        kb.assert_role_event(bulletin, "hasGenre", genre, event);
    }
    kb.assert_role_prob(plain, "hasGenre", traffic, 0.5)
        .unwrap();
    let mut rules = RuleRepository::new();
    for (name, genre, sigma) in [("T", "Traffic", 0.8), ("W", "Weather", 0.6)] {
        rules
            .add(PreferenceRule::new(
                name,
                kb.parse("Morning").unwrap(),
                kb.parse(&format!("EXISTS hasGenre.{{{genre}}}")).unwrap(),
                Score::new(sigma).unwrap(),
            ))
            .unwrap();
    }
    let service = RankingService::with_config(LineageEngine::new(), kb, rules, config);
    (service, users, [bulletin, plain])
}

/// Each tenant evaluates the bulletin exactly on its own request; once a
/// second tenant evicts the first at `max_sessions = 1`, the service's
/// batch counters still count the evicted tenant's passes beside the
/// survivor's.
#[test]
fn an_evicted_tenants_batch_counters_stay_in_the_service_totals() {
    let capped = ServiceConfig {
        max_sessions: 1,
        ..ServiceConfig::default()
    };
    let (service, users, page) = disjoint_genres_service(capped);
    for user in users {
        service.rank(user, &page, page.len()).unwrap();
    }
    let stats = service.stats();
    assert_eq!((stats.sessions_live, stats.sessions_evicted), (1, 1));
    assert!(service.tenant_stats(users[0]).is_none());
    let survivor = service.tenant_stats(users[1]).unwrap().batch;
    assert_eq!(
        (survivor.sweeps, survivor.lanes, survivor.fallbacks),
        (1, 2, 1),
        "the survivor counts its own pass"
    );
    let batch = stats.sessions.batch;
    assert_eq!(
        (batch.sweeps, batch.lanes, batch.fallbacks),
        (2, 4, 2),
        "both tenants' passes count, the evicted one's included"
    );
}

/// Independent traffic needs no exact evaluation: on the generated
/// commerce pack a shopper's context switch followed by a full-catalog
/// rank is one sweep whose every product is scored in closed form.
#[test]
fn a_context_switch_and_catalog_rank_leave_o_rules_entries() {
    let db = generate(ShopConfig {
        products: 96,
        premium_rate: 1.0,
        discount_rate: 1.0,
        ..ShopConfig::tiny()
    });
    let rules = flip_rules(&db);
    let service = RankingService::new(LineageEngine::new(), db.kb.clone(), rules);
    let shopper = db.shoppers[0];
    let rank_all = || {
        let ranked = service
            .rank(shopper, &db.products, db.products.len())
            .unwrap();
        assert_eq!(ranked.len(), db.products.len());
        let snap = service.snapshot();
        let env = ScoringEnv {
            kb: snap.kb(),
            rules: snap.rules(),
            user: shopper,
        };
        let want = common::reference_scores(&env, &bind_rules_shared(&env), &db.products);
        assert_eq!(common::bits(&ranked), common::bits(&rank(want)));
    };
    rank_all();
    let before = service.stats();
    for (concept, p) in [("GiftShopping", 0.9), ("BargainHunting", 0.15)] {
        service
            .assert(shopper, Fact::ConceptProb(concept.into(), p))
            .unwrap();
        rank_all();
    }
    let after = service.stats();
    let (was, is) = (before.sessions.batch, after.sessions.batch);
    assert_eq!(is.sweeps - was.sweeps, 2);
    assert_eq!(is.lanes - was.lanes, 2 * db.products.len() as u64);
    assert_eq!(is.fallbacks, 0, "every product is scored in closed form");
}

/// A shelf under four rules on contexts of their own — `R0` prefers
/// `Feat0`, `R1` `Feat1`, `R2` `Feat2`, `R3` `Star` — asked by `user`,
/// whose `Ctx2` never holds (so `R2` is inactive for them), and by
/// `other`, whose may. `stars` documents certainly have `Feat0`, `Feat1`
/// and `Star`: lanes that outscore anything without `Star`.
struct Verdicts {
    kb: Kb,
    rules: RuleRepository,
    user: IndividualId,
    other: IndividualId,
    stars: Vec<IndividualId>,
}

impl Verdicts {
    fn new(stars: usize) -> Self {
        let mut kb = Kb::new();
        let user = kb.individual("user");
        let other = kb.individual("other");
        for (who, contexts) in [(user, &[0, 1, 3][..]), (other, &[0, 1, 2, 3][..])] {
            for &c in contexts {
                let p = 0.4 + 0.1 * c as f64;
                kb.assert_concept_prob(who, &format!("Ctx{c}"), p).unwrap();
            }
        }
        let stars = (0..stars)
            .map(|i| {
                let star = kb.individual(&format!("star{i}"));
                for feature in ["Feat0", "Feat1", "Star"] {
                    kb.assert_concept(star, feature);
                }
                star
            })
            .collect();
        let mut rules = RuleRepository::new();
        let sigmas = [
            ("Feat0", 0.9),
            ("Feat1", 0.9),
            ("Feat2", 0.5),
            ("Star", 0.9),
        ];
        for (r, (preference, sigma)) in sigmas.into_iter().enumerate() {
            rules
                .add(PreferenceRule::new(
                    format!("R{r}"),
                    kb.parse(&format!("Ctx{r}")).unwrap(),
                    kb.parse(preference).unwrap(),
                    Score::new(sigma).unwrap(),
                ))
                .unwrap();
        }
        Self {
            kb,
            rules,
            user,
            other,
            stars,
        }
    }

    /// A fresh variable's `true` event.
    fn sensor(&mut self, name: &str) -> EventExpr {
        let var = self.kb.universe.add_bool(name, 0.35).unwrap();
        self.kb.universe.bool_event(var).unwrap()
    }

    /// A document with `Feat1` at ½ and `Feat0` riding on `shared`.
    fn document(&mut self, name: &str, shared: &EventExpr) -> IndividualId {
        let doc = self.kb.individual(name);
        self.kb.assert_concept_event(doc, "Feat0", shared.clone());
        self.kb.assert_concept_prob(doc, "Feat1", 0.5).unwrap();
        doc
    }

    fn env(&self, who: IndividualId) -> ScoringEnv<'_> {
        ScoringEnv {
            kb: &self.kb,
            rules: &self.rules,
            user: who,
        }
    }

    /// One lineage sweep over `docs` for `who` through `cache` and
    /// `scratch` (so the rows are the ones earlier sweeps left), held to
    /// the reference bit for bit. Returns the exact evaluations it needed.
    fn fallbacks(
        &self,
        who: IndividualId,
        docs: &[IndividualId],
        cache: &mut ScoringSession,
        scratch: &mut EvalScratch,
    ) -> u64 {
        let env = self.env(who);
        let bound = cache.bind(&env);
        let before = scratch.batch_stats().fallbacks;
        let got = LineageEngine::new()
            .score_all_bound(&env, &bound, docs, scratch)
            .unwrap();
        let want = common::reference_scores(&env, &bound, docs);
        assert_eq!(common::bits(&want), common::bits(&got));
        scratch.batch_stats().fallbacks - before
    }

    /// The top `k` of `docs` for `who` through `engine` on a fresh scratch,
    /// held to the reference ranking; returns the batch counters it left.
    fn top_k(
        &self,
        who: IndividualId,
        engine: &dyn ScoringEngine,
        docs: &[IndividualId],
        k: usize,
    ) -> (u64, u64, u64) {
        let env = self.env(who);
        let bound = bind_rules_shared(&env);
        let mut scratch = EvalScratch::new();
        let top = rank_top_k_bound(&env, engine, &bound, docs, k, &mut scratch).unwrap();
        let want = rank(common::reference_scores(&env, &bound, docs));
        assert_eq!(common::bits(&top), common::bits(&want[..k]));
        let batch = scratch.batch_stats();
        (batch.sweeps, batch.lanes, batch.fallbacks)
    }
}

/// A catalogue assert that makes a document's two features share a
/// variable re-syncs its row, and the verdict with it: the next sweep —
/// on the same binding cache and scratch, so over the row carried from the
/// last — takes the document off the lanes, and top-k's bound for it is
/// the world-wise one.
#[test]
fn a_document_whose_features_come_to_share_a_variable_leaves_the_lanes() {
    let mut shelf = Verdicts::new(1);
    let s1 = shelf.sensor("s1");
    let drift = shelf.document("drift", &s1);
    let plain = shelf.kb.individual("plain");
    let docs = [shelf.stars[0], drift, plain];
    let (mut cache, mut scratch) = (ScoringSession::new(), EvalScratch::new());
    let user = shelf.user;
    assert_eq!(shelf.fallbacks(user, &docs, &mut cache, &mut scratch), 0);
    let lineage = LineageEngine::new();
    assert_eq!(
        shelf.top_k(user, &lineage, &docs, 1),
        (1, 3, 0),
        "all lanes"
    );

    // `Feat1` becomes `fresh ∨ s1`: it now shares `s1` with `Feat0`.
    shelf.kb.assert_concept_event(drift, "Feat1", s1);
    assert_eq!(
        shelf.fallbacks(user, &docs, &mut cache, &mut scratch),
        1,
        "drift is entangled"
    );
    // Deferred, its bound is the world-wise 1 — a factorised bound would
    // fall below the star's score, for `drift` has no `Star`, and prune it
    // unevaluated — so it is evaluated after the closed-form pass.
    assert_eq!(shelf.top_k(user, &lineage, &docs, 1), (2, 3 + 1, 1));
}

/// A row whose cells share a variable only under a rule whose context does
/// not apply to the asker is not judged entangled for them: the verdict
/// cannot settle the test, and the per-request test over the active rules
/// keeps the document on the lanes — and top-k's bound factorised. For an
/// asker to whom that rule applies, the same row is entangled.
#[test]
fn a_row_entangled_only_through_an_inactive_rule_stays_on_the_lanes() {
    let mut shelf = Verdicts::new(16);
    let s2 = shelf.sensor("s2");
    let quiet = shelf.document("quiet", &s2);
    shelf.kb.assert_concept_event(quiet, "Feat2", s2);
    let plain = shelf.kb.individual("plain");
    let docs = [shelf.stars[0], quiet, plain];
    let (mut cache, mut scratch) = (ScoringSession::new(), EvalScratch::new());
    let (user, other) = (shelf.user, shelf.other);
    let fallbacks = shelf.fallbacks(user, &docs, &mut cache, &mut scratch);
    assert_eq!(fallbacks, 0, "R2 is inactive for the user");
    let fallbacks = shelf.fallbacks(other, &docs, &mut cache, &mut scratch);
    assert_eq!(fallbacks, 1, "R2 applies to the other");
    // The bound, for every candidate: behind a forwarding wrapper nothing
    // is scored in closed form, sixteen stars make the first batch, and
    // whatever bound is left below their score is pruned. For the user
    // `quiet`'s bound is factorised — `hit · hit · miss` under R0, R1, R3,
    // below a star's — and it is never evaluated; for the other it is the
    // world-wise 1, evaluated first.
    let mut list = shelf.stars.clone();
    list.push(quiet);
    let forward = ForwardOnly(Box::new(LineageEngine::new()));
    assert_eq!(shelf.top_k(user, &forward, &list, 1), (1, 16, 0));
    assert_eq!(shelf.top_k(other, &forward, &list, 1), (2, 17, 1));
    // Natively, a lane for one and deferred for the other.
    let lineage = LineageEngine::new();
    assert_eq!(shelf.top_k(user, &lineage, &docs, 1), (1, 3, 0));
    assert_eq!(shelf.top_k(other, &lineage, &docs, 1), (2, 3 + 1, 1));
}

/// The exact route evaluates each distinct signature once: two entangled
/// documents with the same per-rule events — `Feat0` and `Feat1` both
/// riding on one sensor — cost one exact evaluation between them, a third
/// on a sensor of its own one more, and every slot is the reference's
/// bits.
#[test]
fn entangled_twins_in_one_batch_share_one_exact_evaluation() {
    let mut shelf = Verdicts::new(1);
    let s1 = shelf.sensor("s1");
    let s2 = shelf.sensor("s2");
    let [twin_a, twin_b, loner] =
        [("twin_a", &s1), ("twin_b", &s1), ("loner", &s2)].map(|(name, sensor)| {
            let doc = shelf.kb.individual(name);
            for feature in ["Feat0", "Feat1"] {
                shelf.kb.assert_concept_event(doc, feature, sensor.clone());
            }
            doc
        });
    let (mut cache, mut scratch) = (ScoringSession::new(), EvalScratch::new());
    let user = shelf.user;
    let twins = [twin_a, shelf.stars[0], twin_b];
    let fallbacks = shelf.fallbacks(user, &twins, &mut cache, &mut scratch);
    assert_eq!(fallbacks, 1, "one signature, two slots");
    let all = [twin_b, loner, twin_a];
    let fallbacks = shelf.fallbacks(user, &all, &mut cache, &mut scratch);
    assert_eq!(fallbacks, 2, "two signatures, three slots");
}
