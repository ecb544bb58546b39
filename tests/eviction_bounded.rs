//! Serving-loop leak regression: a session over a KB that mutates **every
//! call** (re-asserted facts mint fresh variables, superseding last call's
//! expressions) must keep a *bounded* evaluation-memo footprint under an
//! epoch [`EvictionPolicy`] — while every call stays bit-identical to a
//! cold `bind_rules` + `score_all` run — for all four engines, through a
//! session (whose memos are its own) and through a `RankingService` (whose
//! memos are the pool every tenant shares).
//!
//! The loop runs 48 mutate-and-score calls, i.e. well over 10 × the
//! snapshot chain bound (`MAX_CHAIN` = 4 tiers), so the chains compact and
//! fold many times and eviction gets exercised at both rewrite kinds.

use capra::prelude::*;

/// Calls in the serving loop (> 10 × the MAX_CHAIN=4 republish bound).
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
    let p = |salt: usize| 0.05 + 0.9 * (((call * 7 + salt * 3) % 17) as f64 / 17.0);
    kb.assert_prob(user, "Ctx0", p(0));
    kb.assert_prob(user, "Ctx1", p(1));
    (0..N_DOCS)
        .map(|d| {
            let doc = kb.individual(&format!("doc{call}x{d}"));
            kb.assert_prob(doc, "Feat0", p(2 + 3 * d));
            kb.assert_prob(doc, "Feat1", p(3 + 3 * d));
            kb.assert_prob(doc, "Feat2", p(4 + 3 * d));
            doc
        })
        .collect()
}

/// Drives the loop for one engine through `bounded` and `unbounded`
/// score-call closures, checking bit-identity against a cold run each
/// call, and returns the per-call footprint-entry series of both.
type ScoreCall<'s> =
    &'s mut dyn FnMut(&ScoringEnv<'_>, &[capra::dl::IndividualId]) -> (Vec<DocScore>, usize);

fn run_loop<E: ScoringEngine + Sync + ?Sized>(
    engine: &E,
    score_bounded: ScoreCall<'_>,
    score_unbounded: ScoreCall<'_>,
) -> (Vec<usize>, Vec<usize>) {
    let (mut kb, rules, user) = fixture();
    let mut bounded_series = Vec::with_capacity(CALLS);
    let mut unbounded_series = Vec::with_capacity(CALLS);
    for call in 0..CALLS {
        let docs = mutate(&mut kb, user, call);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        // The cold reference: a fresh `bind_rules` + scoring run.
        let cold = engine.score_all(&env, &docs).unwrap();
        for (label, (scores, entries), series) in [
            ("bounded", score_bounded(&env, &docs), &mut bounded_series),
            (
                "unbounded",
                score_unbounded(&env, &docs),
                &mut unbounded_series,
            ),
        ] {
            assert_eq!(scores.len(), cold.len());
            for (a, b) in cold.iter().zip(&scores) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{} call {call} ({label}): {} vs {}",
                    engine.name(),
                    a.score,
                    b.score
                );
            }
            series.push(entries);
        }
    }
    (bounded_series, unbounded_series)
}

/// Footprint assertions shared by the session and service variants: the
/// evicting session flattens out (its second-half peak does not exceed
/// its first-half peak) and ends well below the grow-only session, which
/// demonstrably leaks on this workload. The entry counts are deterministic
/// (and the same in a session's own memos as in a service's shared pool),
/// so they are pinned exactly, as recorded at PR 22: retention creeping up
/// by one tier, or the `Never` reference no longer holding everything,
/// fails here.
fn assert_bounded(engine: &str, bounded: &[usize], unbounded: &[usize]) {
    let pinned = match engine {
        "naive-view" => [522, 522, 2086, 4174],
        "naive-enum" => [42, 42, 166, 334],
        // The same features, but no context: a binding keeps its own.
        "factorized" => [30, 30, 120, 240],
        "lineage" => [162, 162, 646, 1294],
        other => panic!("no pinned footprint for engine {other}"),
    };
    let at = |series: &[usize]| [series[CALLS / 2 - 1], series[CALLS - 1]];
    assert_eq!(
        [at(bounded), at(unbounded)].concat(),
        pinned,
        "{engine}: footprint entries [MaxAge mid, MaxAge end, Never mid, Never end]"
    );
    let first_peak = *bounded[..CALLS / 2].iter().max().unwrap();
    let second_peak = *bounded[CALLS / 2..].iter().max().unwrap();
    assert!(
        second_peak <= first_peak,
        "{engine}: footprint must be flat after warm-up \
         (first-half peak {first_peak}, second-half peak {second_peak})"
    );
    let bounded_end = *bounded.last().unwrap();
    let unbounded_end = *unbounded.last().unwrap();
    assert!(
        unbounded_end > 2 * bounded_end.max(1),
        "{engine}: the Never policy must keep leaking where eviction stays \
         bounded ({unbounded_end} vs {bounded_end} entries) — otherwise \
         this test no longer exercises the leak"
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

/// An age limit of roughly two calls on this workload (each call asserts
/// 2 + 3·N_DOCS facts and registers N_DOCS individuals, bumping the
/// binding epoch by every one of them).
const AGE: u64 = 2 * (2 + 4 * N_DOCS as u64);

#[test]
fn sequential_session_footprint_is_bounded_in_mutating_loop() {
    for engine in engines() {
        let mut bounded = ScoringSession::with_policy(EvictionPolicy::MaxAge(AGE));
        let mut unbounded = ScoringSession::with_policy(EvictionPolicy::Never);
        let (b, u) = run_loop(
            engine.as_ref(),
            &mut |env, docs| {
                let scores = bounded.score_all(engine.as_ref(), env, docs).unwrap();
                (scores, bounded.stats().footprint.entries)
            },
            &mut |env, docs| {
                let scores = unbounded.score_all(engine.as_ref(), env, docs).unwrap();
                (scores, unbounded.stats().footprint.entries)
            },
        );
        assert_bounded(engine.name(), &b, &u);
    }
}

/// The same loop through a service: the memos are the shared pool's, aged
/// at each republish, and every request is a context switch followed by a
/// rank of candidates nobody has seen.
#[test]
fn service_footprint_is_bounded_in_mutating_loop() {
    for (engine, twin) in engines().into_iter().zip(engines()) {
        let name = engine.name();
        let (kb, rules, user) = fixture();
        let services = [
            (engine, EvictionPolicy::MaxAge(AGE)),
            (twin, EvictionPolicy::Never),
        ]
        .map(|(engine, policy)| {
            let config = ServiceConfig {
                policy,
                ..ServiceConfig::default()
            };
            RankingService::with_config(engine, kb.clone(), rules.clone(), config)
        });
        let mut series = [Vec::with_capacity(CALLS), Vec::with_capacity(CALLS)];
        for call in 0..CALLS {
            for (mut service, series) in services.iter().zip(&mut series) {
                let docs = mutate(&mut service, user, call);
                let snap = service.snapshot();
                let env = ScoringEnv {
                    kb: snap.kb(),
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
        }
        assert_bounded(name, &series[0], &series[1]);
    }
}
