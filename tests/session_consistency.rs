//! Session coverage: a [`ScoringSession`]'s cached bindings, evaluation
//! memos and score cache must be *invisible* — after arbitrary interleaved
//! assert/score sequences, every engine scored through the session produces
//! bit-identical results to a cold `bind_rules` + `score_all` call,
//! `rank_top_k` through the session equals the full ranking's prefix, and
//! `LineageEngine` equals the test-side factor reference of
//! `tests/common` on either of its two routes.

mod common;

use capra::prelude::*;
use proptest::prelude::*;

const N_DOCS: usize = 4;

const N_FEATS: usize = 2;

/// One mutation of the interleaved sequence, decoded from random draws.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Assert `Feat{feat}` on `doc{doc}` with probability `p` (repeats
    /// disjoin — and exercise the fresh-variable suffix counter).
    DocFeature { doc: usize, feat: usize, p: f64 },
    /// Assert context feature `Ctx{feat}` on the user with probability `p`.
    UserContext { feat: usize, p: f64 },
    /// Declare an unrelated universe variable (bumps the universe epoch but
    /// must not invalidate bindings).
    UnrelatedVar { p: f64 },
}

fn decode_op(kind: u8, doc: usize, feat: usize, p: f64) -> Op {
    match kind % 4 {
        0 | 1 => Op::DocFeature { doc, feat, p },
        2 => Op::UserContext { feat, p },
        _ => Op::UnrelatedVar { p },
    }
}

fn apply(kb: &mut Kb, user: capra::dl::IndividualId, docs: &[capra::dl::IndividualId], op: Op) {
    match op {
        Op::DocFeature { doc, feat, p } => {
            kb.assert_concept_prob(docs[doc % N_DOCS], &format!("Feat{}", feat % N_FEATS), p)
                .unwrap();
        }
        Op::UserContext { feat, p } => {
            kb.assert_concept_prob(user, &format!("Ctx{}", feat % N_FEATS), p)
                .unwrap();
        }
        Op::UnrelatedVar { p } => {
            let n = kb.universe.len();
            kb.universe.add_bool(&format!("unrelated{n}"), p).unwrap();
        }
    }
}

fn fixture() -> (
    Kb,
    RuleRepository,
    capra::dl::IndividualId,
    Vec<capra::dl::IndividualId>,
) {
    let mut kb = Kb::new();
    let user = kb.individual("user");
    let docs: Vec<_> = (0..N_DOCS)
        .map(|d| {
            let doc = kb.individual(&format!("doc{d}"));
            kb.assert_concept(doc, "TvProgram");
            doc
        })
        .collect();
    let mut rules = RuleRepository::new();
    for (i, sigma) in [0.8, 0.35].into_iter().enumerate() {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: cached bindings are score-equivalent to cold
    /// ones, bit for bit, for all four engines, at every point of an
    /// arbitrary interleaved assert/score sequence.
    #[test]
    fn session_matches_cold_bind_after_interleaved_mutations(
        ops in prop::collection::vec(
            (any::<u8>(), 0usize..N_DOCS, 0usize..N_FEATS, 0.05f64..=0.95),
            1..7,
        ),
        policy_sel in any::<u8>(),
    ) {
        let (mut kb, rules, user, docs) = fixture();
        // Each doc starts with Feat0 so rules are never globally vacuous.
        for (d, &doc) in docs.iter().enumerate() {
            kb.assert_concept_prob(doc, "Feat0", 0.1 + 0.2 * d as f64).unwrap();
        }
        kb.assert_concept_prob(user, "Ctx0", 0.6).unwrap();

        let engines: Vec<Box<dyn ScoringEngine>> = vec![
            Box::new(NaiveViewEngine::new()),
            Box::new(NaiveEnumEngine::new()),
            Box::new(FactorizedEngine::new()),
            Box::new(LineageEngine::new()),
        ];
        // ONE session serves all engines (cache keys include the engine) and
        // survives every mutation of the sequence — under an arbitrary
        // eviction policy, since eviction may only force recomputes, never
        // change a bit.
        let mut session = ScoringSession::with_policy(common::decode_policy(policy_sel));
        for &(kind, doc, feat, p) in &ops {
            apply(&mut kb, user, &docs, decode_op(kind, doc, feat, p));
            let env = ScoringEnv { kb: &kb, rules: &rules, user };
            for engine in &engines {
                let cold = engine.score_all(&env, &docs).unwrap();
                // First call after the mutation re-derives what was
                // invalidated; the second must be served from cache. Both
                // must match the cold path exactly.
                for round in 0..2 {
                    let warm = session.score_all(engine.as_ref(), &env, &docs).unwrap();
                    prop_assert_eq!(warm.len(), cold.len());
                    for (a, b) in cold.iter().zip(&warm) {
                        prop_assert_eq!(a.doc, b.doc);
                        prop_assert_eq!(
                            a.score.to_bits(), b.score.to_bits(),
                            "{} round {}: {} vs {}", engine.name(), round, a.score, b.score
                        );
                    }
                }
            }
        }
        let stats = session.stats();
        prop_assert!(stats.scores.hits > 0, "warm rounds must hit the cache");
    }

    /// The two-route property: through a live session — under interleaved
    /// epoch-bumping mutations and random eviction policies —
    /// `LineageEngine` returns the test-side factor reference bit for bit,
    /// whichever route a document took: whole batches, one-lane batches
    /// and top-k chunks alike. With `entangle`,
    /// doc0's two features read one sensor, so doc0 — and only doc0 — is
    /// rejected by the lane test and evaluated exactly beside lanes of the
    /// same batch. The exact naive engine agrees to 1e-12.
    #[test]
    fn lineage_matches_factor_reference_after_interleaved_mutations(
        ops in prop::collection::vec(
            (any::<u8>(), 0usize..N_DOCS, 0usize..N_FEATS, 0.05f64..=0.95),
            1..6,
        ),
        k in 1usize..=N_DOCS,
        policy_sel in any::<u8>(),
        entangle in any::<bool>(),
    ) {
        let (mut kb, rules, user, docs) = fixture();
        for (d, &doc) in docs.iter().enumerate() {
            kb.assert_concept_prob(doc, "Feat0", 0.1 + 0.2 * d as f64).unwrap();
        }
        kb.assert_concept_prob(user, "Ctx0", 0.6).unwrap();
        kb.assert_concept_prob(user, "Ctx1", 0.4).unwrap();
        if entangle {
            let sensor = kb.universe.add_bool("sensor", 0.5).unwrap();
            let reading = kb.universe.bool_event(sensor).unwrap();
            kb.assert_concept_event(docs[0], "Feat0", reading.clone());
            kb.assert_concept_event(docs[0], "Feat1", EventExpr::not(reading));
        }

        let lineage = LineageEngine::new();
        let mut session = ScoringSession::with_policy(common::decode_policy(policy_sel));
        for &(kind, doc, feat, p) in &ops {
            apply(&mut kb, user, &docs, decode_op(kind, doc, feat, p));
            let env = ScoringEnv { kb: &kb, rules: &rules, user };
            let want = common::reference_scores(&env, &bind_rules_shared(&env), &docs, true);
            let got = session.score_all(&lineage, &env, &docs).unwrap();
            prop_assert_eq!(common::bits(&want), common::bits(&got), "session");
            // A single document is a one-lane batch of the same path.
            for (one, doc) in want.iter().zip(&docs) {
                let alone = lineage.score_all(&env, std::slice::from_ref(doc)).unwrap();
                prop_assert_eq!(common::bits(&alone), common::bits(std::slice::from_ref(one)));
            }
            let exact = NaiveViewEngine::new().score_all(&env, &docs).unwrap();
            for (a, b) in want.iter().zip(&exact) {
                prop_assert!((a.score - b.score).abs() <= 1e-12, "{} vs naive {}", a.score, b.score);
            }
            // Top-k feeds the engine bound-ordered chunks.
            let mut top = rank(want);
            top.truncate(k);
            let got = session.rank_top_k(&lineage, &env, &docs, k).unwrap();
            prop_assert_eq!(common::bits(&top), common::bits(&got), "top-{}", k);
        }
        let batch = session.stats().batch;
        prop_assert!(batch.sweeps > 0 && batch.lanes >= batch.sweeps);
        prop_assert_eq!(batch.fallbacks > 0, entangle, "only doc0 ever leaves the lanes");
    }

    /// `rank_top_k` — cold, and through a live session — is exactly the
    /// prefix of the full ranking, mutations or not.
    #[test]
    fn top_k_is_exact_prefix_after_mutations(
        ops in prop::collection::vec(
            (any::<u8>(), 0usize..N_DOCS, 0usize..N_FEATS, 0.05f64..=0.95),
            1..5,
        ),
        k in 1usize..=N_DOCS,
    ) {
        let (mut kb, rules, user, docs) = fixture();
        kb.assert_concept_prob(user, "Ctx0", 0.7).unwrap();
        kb.assert_concept_prob(user, "Ctx1", 0.4).unwrap();
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        for &(kind, doc, feat, p) in &ops {
            apply(&mut kb, user, &docs, decode_op(kind, doc, feat, p));
            let env = ScoringEnv { kb: &kb, rules: &rules, user };
            let want = common::cold_rank(&engine, &env, &docs, k);
            let cold_top = rank_top_k(&env, &engine, &docs, k).unwrap();
            let warm_top = session.rank_top_k(&engine, &env, &docs, k).unwrap();
            prop_assert_eq!(want.len(), k.min(docs.len()));
            prop_assert_eq!(common::bits(&want), common::bits(&cold_top), "cold top-{}", k);
            prop_assert_eq!(common::bits(&want), common::bits(&warm_top), "session top-{}", k);
        }
    }
}
