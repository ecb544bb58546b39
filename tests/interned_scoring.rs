//! Fast-path coverage for the hash-consing refactor: the four engines must
//! produce *identical rankings* (not just close scores), the Section 4.2
//! worked example must agree with the brute-force oracle to 1e-12, and the
//! cross-layer caches (evaluator memo, reasoner views, the interner shared
//! between threads) must be observably at work.

use capra::prelude::*;
use capra_events::{brute_force_expectation, Factor};
use proptest::prelude::*;

/// Rank orders (doc indices after `rank`) must match exactly across engines.
fn ranking_of(scores: Vec<DocScore>) -> Vec<capra::dl::IndividualId> {
    rank(scores).into_iter().map(|s| s.doc).collect()
}

#[test]
fn paper_worked_example_matches_brute_force_to_1e12() {
    let scenario = capra::tvtouch::scenario::paper_scenario();
    let env = scenario.env();
    let engines: Vec<Box<dyn ScoringEngine>> = vec![
        Box::new(NaiveViewEngine::new()),
        Box::new(NaiveEnumEngine::new()),
        Box::new(FactorizedEngine::new()),
        Box::new(LineageEngine::new()),
    ];
    // Brute-force oracle straight from the bound Section 3.3 formula.
    let bindings = bind_rules(&env);
    for &doc in &scenario.programs {
        let factors: Vec<Factor> = bindings
            .iter()
            .map(|b| {
                let g = b.context_event.clone();
                let f = b.preference_event(doc);
                Factor::new([
                    (EventExpr::not(g.clone()), 1.0),
                    (EventExpr::and([g.clone(), f.clone()]), b.sigma),
                    (EventExpr::and([g, EventExpr::not(f)]), 1.0 - b.sigma),
                ])
            })
            .collect();
        let oracle = brute_force_expectation(&scenario.kb.universe, &factors);
        for engine in &engines {
            let s = engine.score(&env, doc).unwrap().score;
            assert!(
                (s - oracle).abs() < 1e-12,
                "{} vs oracle {oracle} ({})",
                s,
                engine.name()
            );
        }
    }
    // Channel 5 news is the paper's 0.6006 example (programs[2]).
    let ch5 = FactorizedEngine::new()
        .score(&env, scenario.programs[2])
        .unwrap()
        .score;
    assert!((ch5 - 0.6006).abs() < 1e-12, "{ch5}");
}

#[test]
fn engines_agree_on_ranking_for_paper_scenario() {
    let scenario = capra::tvtouch::scenario::paper_scenario();
    let env = scenario.env();
    let reference = ranking_of(
        NaiveViewEngine::new()
            .score_all(&env, &scenario.programs)
            .unwrap(),
    );
    for scores in [
        NaiveEnumEngine::new()
            .score_all(&env, &scenario.programs)
            .unwrap(),
        FactorizedEngine::new()
            .score_all(&env, &scenario.programs)
            .unwrap(),
        LineageEngine::new()
            .score_all(&env, &scenario.programs)
            .unwrap(),
    ] {
        assert_eq!(ranking_of(scores), reference);
    }
}

#[test]
fn parallel_shards_share_node_identity() {
    // The interner is process-global: the same KB scored on this thread
    // and on four others at once must give bit-identical scores (every
    // thread reconstructs the same interned nodes), and binding twice
    // yields pointer-identical context events.
    let scenario = capra::tvtouch::scenario::paper_scenario();
    let env = scenario.env();
    let b1 = bind_rules(&env);
    let b2 = bind_rules(&env);
    for (x, y) in b1.iter().zip(&b2) {
        assert_eq!(x.context_event, y.context_event);
        assert_eq!(x.context_event.node_id(), y.context_event.node_id());
    }
    let seq = LineageEngine::new()
        .score_all(&env, &scenario.programs)
        .unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let par = LineageEngine::new()
                    .score_all(&env, &scenario.programs)
                    .unwrap();
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.doc, b.doc);
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-identical scores");
                }
            });
        }
    });
}

/// Random independent-feature KBs: every engine must yield the same ranking.
fn build_random_kb(
    ctx_probs: &[f64],
    feats: &[(f64, f64)],
    sigmas: &[f64],
) -> (
    Kb,
    RuleRepository,
    capra::dl::IndividualId,
    Vec<capra::dl::IndividualId>,
) {
    let n_rules = ctx_probs.len().min(sigmas.len()).clamp(1, 2);
    let mut kb = Kb::new();
    let user = kb.individual("user");
    for (i, &p) in ctx_probs.iter().take(n_rules).enumerate() {
        kb.assert_concept_prob(user, &format!("Ctx{i}"), p).unwrap();
    }
    let docs: Vec<_> = feats
        .iter()
        .enumerate()
        .map(|(d, &(pa, pb))| {
            let doc = kb.individual(&format!("doc{d}"));
            kb.assert_concept(doc, "TvProgram");
            for (f, p) in [pa, pb].into_iter().take(n_rules).enumerate() {
                kb.assert_concept_prob(doc, &format!("Feat{f}"), p).unwrap();
            }
            doc
        })
        .collect();
    let mut rules = RuleRepository::new();
    for (i, &sigma) in sigmas.iter().take(n_rules).enumerate() {
        rules
            .add(PreferenceRule::new(
                format!("R{i}"),
                kb.parse(&format!("Ctx{i}")).unwrap(),
                kb.parse(&format!("TvProgram AND Feat{i}")).unwrap(),
                Score::new(sigma).unwrap(),
            ))
            .unwrap();
    }
    (kb, rules, user, docs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn randomized_kbs_all_engines_rank_identically(
        ctx_probs in prop::collection::vec(0.05f64..=0.95, 1..3),
        feats in prop::collection::vec((0.05f64..=0.95, 0.05f64..=0.95), 2..5),
        sigmas in prop::collection::vec(0.05f64..=0.95, 1..3),
    ) {
        let (kb, rules, user, docs) = build_random_kb(&ctx_probs, &feats, &sigmas);
        let env = ScoringEnv { kb: &kb, rules: &rules, user };
        let view = NaiveViewEngine::new().score_all(&env, &docs).unwrap();
        let enumr = NaiveEnumEngine::new().score_all(&env, &docs).unwrap();
        let fact = FactorizedEngine::new().score_all(&env, &docs).unwrap();
        let lin = LineageEngine::new().score_all(&env, &docs).unwrap();
        // Scores agree to 1e-12 on independent-feature KBs…
        for i in 0..docs.len() {
            prop_assert!((view[i].score - enumr[i].score).abs() < 1e-12);
            prop_assert!((view[i].score - fact[i].score).abs() < 1e-12);
            prop_assert!((view[i].score - lin[i].score).abs() < 1e-12);
        }
        // …so the rankings are identical.
        let reference = ranking_of(view);
        prop_assert_eq!(ranking_of(enumr), reference.clone());
        prop_assert_eq!(ranking_of(fact), reference.clone());
        prop_assert_eq!(ranking_of(lin), reference);
    }
}
