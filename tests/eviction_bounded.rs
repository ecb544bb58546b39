//! Serving-loop leak regression: a session over a KB that mutates **every
//! call** (re-asserted facts mint fresh variables, superseding last call's
//! expressions) must keep no evaluation memo between calls, while every
//! call stays bit-identical to a cold `bind_rules` + `score_all` run, for
//! all four engines, through a session, through a `RankingService`'s
//! tenant, and through two tenants of one service.
//!
//! What a call evaluates is kept on the KB (a binding's `P(G_r)`, a feature
//! row's cells), which grows with the KB's own facts, or by the call's own
//! evaluator, which drops it when the call returns. So what a session or a
//! tenant holds beyond its bindings and score entries is bounded at zero:
//! the footprint reads zero after every call, however many expressions the
//! loop supersedes.

use capra::prelude::*;

/// Calls in the serving loop.
const CALLS: usize = 48;
const N_DOCS: usize = 5;

fn fixture() -> (Kb, RuleRepository, capra::dl::IndividualId) {
    let mut kb = Kb::new();
    let user = kb.individual("user");
    let mut rules = RuleRepository::new();
    rules
        .add(PreferenceRule::new(
            "R0",
            kb.parse("Ctx0").unwrap(),
            // Conjunction of two uncertain features: composite event
            // expressions, so every engine memoises sub-problems within
            // its call.
            kb.parse("Feat0 AND Feat1").unwrap(),
            Score::new(0.8).unwrap(),
        ))
        .unwrap();
    rules
        .add(PreferenceRule::new(
            "R1",
            kb.parse("Ctx1").unwrap(),
            kb.parse("Feat2").unwrap(),
            Score::new(0.3).unwrap(),
        ))
        .unwrap();
    (kb, rules, user)
}

/// What the loop mutates: a bare KB, or the one a service publishes.
trait Target {
    fn individual(&mut self, name: &str) -> capra::dl::IndividualId;
    fn assert_prob(&mut self, subject: capra::dl::IndividualId, concept: &str, p: f64);
}

impl Target for Kb {
    fn individual(&mut self, name: &str) -> capra::dl::IndividualId {
        Kb::individual(self, name)
    }

    fn assert_prob(&mut self, subject: capra::dl::IndividualId, concept: &str, p: f64) {
        self.assert_concept_prob(subject, concept, p).unwrap();
    }
}

impl<E: ScoringEngine + Sync> Target for &RankingService<E> {
    fn individual(&mut self, name: &str) -> capra::dl::IndividualId {
        RankingService::individual(self, name)
    }

    fn assert_prob(&mut self, subject: capra::dl::IndividualId, concept: &str, p: f64) {
        self.assert(subject, Fact::ConceptProb(concept.into(), p))
            .unwrap();
    }
}

/// One serving-loop mutation, steady-state shaped: the user's context
/// features are **re-asserted** (each re-assert mints a fresh event
/// variable, superseding last call's context expressions) and the call
/// gets a fresh candidate-document set with two uncertain features each
/// (yesterday's programs are never scored again). Per-call work is
/// constant, yet every expression from the previous call is superseded —
/// the pattern that would grow any memo kept across calls.
fn mutate(
    kb: &mut impl Target,
    user: capra::dl::IndividualId,
    call: usize,
) -> Vec<capra::dl::IndividualId> {
    mutate_named(kb, user, call, "doc")
}

/// [`mutate`] with the call's documents named `{prefix}{call}x{d}`, so two
/// users running the loop on one KB each rank documents of their own.
fn mutate_named(
    kb: &mut impl Target,
    user: capra::dl::IndividualId,
    call: usize,
    prefix: &str,
) -> Vec<capra::dl::IndividualId> {
    let p = |salt: usize| 0.05 + 0.9 * (((call * 7 + salt * 3) % 17) as f64 / 17.0);
    kb.assert_prob(user, "Ctx0", p(0));
    kb.assert_prob(user, "Ctx1", p(1));
    (0..N_DOCS)
        .map(|d| {
            let doc = kb.individual(&format!("{prefix}{call}x{d}"));
            kb.assert_prob(doc, "Feat0", p(2 + 3 * d));
            kb.assert_prob(doc, "Feat1", p(3 + 3 * d));
            kb.assert_prob(doc, "Feat2", p(4 + 3 * d));
            doc
        })
        .collect()
}

/// Drives the loop for one engine through `score`, which returns a call's
/// scores and the footprint left after it, checking bit-identity against a
/// cold run and a zero footprint each call.
type ScoreCall<'s> = &'s mut dyn FnMut(
    &ScoringEnv<'_>,
    &[capra::dl::IndividualId],
) -> (Vec<DocScore>, CacheFootprint);

fn run_loop<E: ScoringEngine + Sync + ?Sized>(engine: &E, score: ScoreCall<'_>) {
    let (mut kb, rules, user) = fixture();
    for call in 0..CALLS {
        let docs = mutate(&mut kb, user, call);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        // The cold reference: a fresh `bind_rules` + scoring run, on a
        // clone, so the scored side reads feature rows of its own.
        let shadow = kb.clone();
        let cold = engine
            .score_all(&ScoringEnv { kb: &shadow, ..env }, &docs)
            .unwrap();
        let (scores, footprint) = score(&env, &docs);
        assert_eq!(scores.len(), cold.len());
        for (a, b) in cold.iter().zip(&scores) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{} call {call}: {} vs {}",
                engine.name(),
                a.score,
                b.score
            );
        }
        assert_no_memo(engine.name(), call, footprint);
    }
}

/// A call leaves no evaluation memo behind.
fn assert_no_memo(engine: &str, call: usize, footprint: CacheFootprint) {
    assert_eq!(
        footprint,
        CacheFootprint::default(),
        "{engine} call {call}: a memo outlived its call"
    );
}

fn engines() -> Vec<Box<dyn ScoringEngine + Sync>> {
    vec![
        Box::new(NaiveViewEngine::new()),
        Box::new(NaiveEnumEngine::new()),
        Box::new(FactorizedEngine::new()),
        Box::new(LineageEngine::new()),
    ]
}

#[test]
fn sequential_session_footprint_is_bounded_in_mutating_loop() {
    for engine in engines() {
        let mut session = ScoringSession::new();
        run_loop(engine.as_ref(), &mut |env, docs| {
            let scores = session.score_all(engine.as_ref(), env, docs).unwrap();
            (scores, session.stats().footprint)
        });
    }
}

/// The same loop through a service: every request is a context switch
/// followed by a rank of candidates nobody has seen.
#[test]
fn service_footprint_is_bounded_in_mutating_loop() {
    for engine in engines() {
        let name = engine.name();
        let (kb, rules, user) = fixture();
        let service = RankingService::new(engine, kb, rules);
        for call in 0..CALLS {
            let docs = mutate(&mut &service, user, call);
            let snap = service.snapshot();
            // On a clone, as in `run_loop`.
            let shadow = snap.kb().clone();
            let env = ScoringEnv {
                kb: &shadow,
                rules: snap.rules(),
                user,
            };
            let cold = rank(service.engine().score_all(&env, &docs).unwrap());
            let got = service.rank(user, &docs, docs.len()).unwrap();
            assert_eq!(cold.len(), got.len());
            for (a, b) in cold.iter().zip(&got) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name} call {call}");
            }
            assert_no_memo(name, call, service.stats().sessions.footprint);
        }
    }
}

/// Two users run the loop in one service, one after the other, on
/// documents of their own: neither the running tenant nor the idle one
/// holds a memo after any call, and neither does the service.
#[test]
fn two_tenants_footprints_are_bounded_each_in_mutating_loop() {
    for engine in engines() {
        let name = engine.name();
        let (kb, rules, first) = fixture();
        let service = RankingService::new(engine, kb, rules);
        let second = service.individual("other");
        let footprint = |user| service.tenant_stats(user).map(|s| s.footprint);
        for (user, prefix) in [(first, "a"), (second, "b")] {
            for call in 0..CALLS {
                let docs = mutate_named(&mut &service, user, call, prefix);
                let snap = service.snapshot();
                let shadow = snap.kb().clone();
                let env = ScoringEnv {
                    kb: &shadow,
                    rules: snap.rules(),
                    user,
                };
                let cold = rank(service.engine().score_all(&env, &docs).unwrap());
                let got = service.rank(user, &docs, docs.len()).unwrap();
                assert_eq!(cold.len(), got.len());
                for (a, b) in cold.iter().zip(&got) {
                    assert_eq!(a.doc, b.doc);
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name} call {call}");
                }
                for tenant in [first, second].into_iter().flat_map(footprint) {
                    assert_no_memo(name, call, tenant);
                }
                assert_no_memo(name, call, service.stats().sessions.footprint);
            }
        }
    }
}
