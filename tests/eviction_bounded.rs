//! Serving-loop leak regression: a session over a KB that mutates **every
//! call** (re-asserted facts mint fresh variables, superseding last call's
//! expressions) must keep a *bounded* evaluation-memo footprint — its memos
//! are dropped whole once the binding epoch is more than [`MAX_AGE`] past
//! their start — while every call stays bit-identical to a cold
//! `bind_rules` + `score_all` run, for all four engines, through a session
//! and through a `RankingService`, whose tenants each keep memos of their
//! own under the same policy.
//!
//! The loop runs 48 mutate-and-score calls, well over ten times the calls
//! one set of memos lives, so memos are dropped many times.

use capra::core::MAX_AGE;
use capra::prelude::*;

/// Calls in the serving loop.
const CALLS: usize = 48;
const N_DOCS: usize = 5;
/// Binding epochs one call moves: it asserts 2 + 3·N_DOCS facts and
/// registers N_DOCS individuals, and each of them is one epoch.
const EPOCHS_PER_CALL: u64 = 2 + 4 * N_DOCS as u64;

fn fixture() -> (Kb, RuleRepository, capra::dl::IndividualId) {
    let mut kb = Kb::new();
    let user = kb.individual("user");
    let mut rules = RuleRepository::new();
    rules
        .add(PreferenceRule::new(
            "R0",
            kb.parse("Ctx0").unwrap(),
            // Conjunction of two uncertain features: composite event
            // expressions, so every engine actually memoises sub-problems.
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
/// the exact pattern whose memo entries leaked before eviction.
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

/// Drives the loop for one engine through `score`, checking bit-identity
/// against a cold run each call, and returns the footprint-entry series
/// after each call.
type ScoreCall<'s> =
    &'s mut dyn FnMut(&ScoringEnv<'_>, &[capra::dl::IndividualId]) -> (Vec<DocScore>, usize);

fn run_loop<E: ScoringEngine + Sync + ?Sized>(engine: &E, score: ScoreCall<'_>) -> Vec<usize> {
    let (mut kb, rules, user) = fixture();
    let mut series = Vec::with_capacity(CALLS);
    for call in 0..CALLS {
        let before = kb.binding_epoch();
        let docs = mutate(&mut kb, user, call);
        assert_eq!(kb.binding_epoch() - before, EPOCHS_PER_CALL);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        // The cold reference: a fresh `bind_rules` + scoring run, on a
        // clone — whoever reads a feature row first evaluates its
        // probabilities, and the series counts the scored side's memo.
        let shadow = kb.clone();
        let cold = engine
            .score_all(&ScoringEnv { kb: &shadow, ..env }, &docs)
            .unwrap();
        let (scores, entries) = score(&env, &docs);
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
        series.push(entries);
    }
    series
}

/// Footprint assertions shared by the session and service variants.
///
/// Per-call work is constant — but for call 0, whose contexts are single
/// atoms where every later call's are re-asserted disjunctions — so what
/// call 1 adds is what any call adds, and a memo that kept everything
/// would end at `CALLS ×` that; the loop must end under half of it. And
/// since memos are dropped once the epoch is more than `MAX_AGE` past
/// their start, they hold at most the calls that fit in that window plus
/// the one that drops them: every point of the series is at most
/// `(⌈MAX_AGE / EPOCHS_PER_CALL⌉ + 1) ×` one call's entries. The series
/// itself is deterministic, and the same in a session's memos as in a
/// service tenant's (both drop before a call and keep its entries), so it
/// is pinned exactly: per engine, the first three points and the period of
/// three calls it repeats from call 3 on.
fn assert_bounded(engine: &str, series: &[usize]) {
    let pinned = match engine {
        "naive-view" => [85, 172, 259, 87, 174, 261],
        "naive-enum" => [5, 12, 19, 7, 14, 21],
        // The same features, but no context: a binding keeps its own.
        "factorized" => [5, 10, 15, 5, 10, 15],
        "lineage" => [25, 52, 79, 27, 54, 81],
        other => panic!("no pinned footprint for engine {other}"),
    };
    let want: Vec<usize> = (0..CALLS)
        .map(|call| pinned[if call < 3 { call } else { 3 + call % 3 }])
        .collect();
    assert_eq!(series, want, "{engine}: footprint entries per call");
    let per_call = series[1] - series[0];
    assert!(per_call > 0, "{engine}: the loop memoises something");
    let leak = CALLS * per_call;
    let end = *series.last().unwrap();
    assert!(
        2 * end < leak,
        "{engine}: {end} entries at the end, a leak would hold {leak}"
    );
    let window = MAX_AGE.div_ceil(EPOCHS_PER_CALL) as usize + 1;
    let peak = *series.iter().max().unwrap();
    assert!(
        peak <= window * per_call,
        "{engine}: peak {peak} past {window} calls of {per_call} entries"
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
        let series = run_loop(engine.as_ref(), &mut |env, docs| {
            let scores = session.score_all(engine.as_ref(), env, docs).unwrap();
            (scores, session.stats().footprint.entries)
        });
        assert_bounded(engine.name(), &series);
    }
}

/// The same loop through a service: the memos are the tenant's own,
/// checked for age before each request, and every request is a context
/// switch followed by a rank of candidates nobody has seen.
#[test]
fn service_footprint_is_bounded_in_mutating_loop() {
    for engine in engines() {
        let name = engine.name();
        let (kb, rules, user) = fixture();
        let service = RankingService::new(engine, kb, rules);
        let mut series = Vec::with_capacity(CALLS);
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
            series.push(service.stats().sessions.footprint.entries);
        }
        assert_bounded(name, &series);
    }
}

/// Memory is bounded per tenant: two users run the loop in one service,
/// one after the other, on documents of their own. Each tenant's own
/// footprint follows the pinned single-tenant series while it runs — the
/// idle one keeps what its last call left — and the service's footprint is
/// always the sum of the two.
#[test]
fn two_tenants_footprints_are_bounded_each_in_mutating_loop() {
    for engine in engines() {
        let name = engine.name();
        let (kb, rules, first) = fixture();
        let service = RankingService::new(engine, kb, rules);
        let second = service.individual("other");
        let footprint = |user| service.tenant_stats(user).map(|s| s.footprint);
        for (user, prefix) in [(first, "a"), (second, "b")] {
            let mut series = Vec::with_capacity(CALLS);
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
                let total: CacheFootprint = [first, second].into_iter().flat_map(footprint).sum();
                assert_eq!(
                    service.stats().sessions.footprint,
                    total,
                    "{name} call {call}"
                );
                series.push(footprint(user).unwrap().entries);
            }
            assert_bounded(name, &series);
        }
    }
}
