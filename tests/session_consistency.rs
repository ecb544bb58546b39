//! Session coverage: a [`ScoringSession`]'s cached bindings, evaluation
//! memos and score cache must be *invisible* — after arbitrary interleaved
//! assert/score sequences, every engine scored through the session produces
//! bit-identical results to a cold `bind_rules` + `score_all` call,
//! `rank_top_k` through the session equals the full ranking's prefix,
//! `LineageEngine` equals the test-side factor reference of
//! `tests/common` on either of its two routes, and the score cache — of a
//! session and of a service tenant — answers and counts like a plain set
//! of documents per binding state, whatever lists it is asked for.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use capra::dl::IndividualId;
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
        // survives every mutation of the sequence.
        let mut session = ScoringSession::new();
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
    /// epoch-bumping mutations —
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
        let mut session = ScoringSession::new();
        for &(kind, doc, feat, p) in &ops {
            apply(&mut kb, user, &docs, decode_op(kind, doc, feat, p));
            let env = ScoringEnv { kb: &kb, rules: &rules, user };
            let want = common::reference_scores(&env, &bind_rules_shared(&env), &docs);
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

/// Documents the score-entry property draws its candidate lists from.
const N_POOL: usize = 8;

/// Multiplier on the score-entry property's case count (the variable
/// `tests/serve_concurrent.rs` reads): CI's stress step sets it, tier-1
/// runs the base count.
fn stress_iters() -> u32 {
    std::env::var("CAPRA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The user's cold bindings by content: while two requests see equal ones,
/// the binding cache hands out the same `Arc`s, and scores stay valid.
type BindingState = Vec<(
    String,
    u64,
    EventExpr,
    Arc<BTreeMap<IndividualId, EventExpr>>,
)>;

fn binding_state(env: &ScoringEnv<'_>) -> BindingState {
    bind_rules(env)
        .into_iter()
        .map(|b| {
            (
                b.name,
                b.sigma.to_bits(),
                b.context_event,
                b.preference_events,
            )
        })
        .collect()
}

/// What the binding and score caches are, stripped of how they are
/// stored. A request binds every rule: a binding equal, by content, to the
/// one of that name the request before it saw is a hit, any other a miss.
/// The score cache is the set of documents scored under the current
/// bindings: a requested slot is a hit if its document was in the set when
/// the request arrived.
#[derive(Default)]
struct CacheModel {
    state: BindingState,
    scored: BTreeSet<IndividualId>,
    bindings: CacheStats,
    scores: CacheStats,
}

impl CacheModel {
    fn request(&mut self, state: BindingState, docs: &[IndividualId]) {
        let kept = state.iter().filter(|b| self.state.contains(b)).count() as u64;
        self.bindings.hits += kept;
        self.bindings.misses += state.len() as u64 - kept;
        if state != self.state {
            self.state = state;
            self.scored.clear();
        }
        let hits = docs.iter().filter(|d| self.scored.contains(d)).count() as u64;
        self.scores.hits += hits;
        self.scores.misses += docs.len() as u64 - hits;
        self.scored.extend(docs);
    }
}

/// The list a step asks for, given the one before it: that list again, a
/// permutation of it, one that overlaps it, the rest of the pool, nothing,
/// or a fresh draw with repeats.
fn next_list(
    kind: u8,
    bits: u64,
    previous: &[IndividualId],
    pool: &[IndividualId],
) -> Vec<IndividualId> {
    let draw = |n: usize| (0..n).map(move |i| pool[(bits >> (4 * i)) as usize % pool.len()]);
    match kind % 8 {
        0 | 1 => previous.to_vec(),
        2 => {
            let mut list = previous.to_vec();
            list.rotate_left(bits as usize % previous.len().max(1));
            if bits >> 63 == 1 {
                list.reverse();
            }
            list
        }
        3 => {
            let kept = &previous[..previous.len() / 2];
            kept.iter().copied().chain(draw(3)).collect()
        }
        4 => {
            let rest = pool.iter().filter(|d| !previous.contains(d));
            rest.copied().collect()
        }
        5 => Vec::new(),
        _ => draw((bits >> 56) as usize % 11).collect(),
    }
}

/// The score-entry stream's world: a shadow KB and rule set, a service
/// that replays every mutation they take — so both serve the same state at
/// every step — and the candidate list of the last step.
struct Stream {
    kb: Kb,
    rules: RuleRepository,
    service: RankingService<Box<dyn ScoringEngine + Sync>>,
    user: IndividualId,
    other: IndividualId,
    pool: Vec<IndividualId>,
    removed: Vec<PreferenceRule>,
    docs: Vec<IndividualId>,
}

impl Stream {
    fn new(engine: Box<dyn ScoringEngine + Sync>) -> Self {
        let (mut kb, rules, user, _) = fixture();
        let other = kb.individual("other");
        let pool: Vec<_> = (0..N_POOL)
            .map(|d| {
                let doc = kb.individual(&format!("pool{d}"));
                kb.assert_concept(doc, "TvProgram");
                kb.assert_concept_prob(doc, "Feat0", 0.1 + 0.1 * d as f64)
                    .unwrap();
                doc
            })
            .collect();
        kb.assert_concept_prob(user, "Ctx0", 0.6).unwrap();
        let service = RankingService::new(engine, kb.clone(), rules.clone());
        let docs = pool[..5].to_vec();
        Stream {
            kb,
            rules,
            service,
            user,
            other,
            pool,
            removed: Vec::new(),
            docs,
        }
    }

    /// One step, on both sides: sometimes a mutation first — the user's
    /// context, someone else's, a pool document's feature, a fact no rule
    /// reads, a rule removed or put back — then the next candidate list.
    /// Returns the step's `k`, or `None` where it removed a rule and asks
    /// for nothing.
    fn step(&mut self, kind: u8, bits: u64, p: f64) -> Option<usize> {
        let which = (bits >> 48) as usize % 2;
        let doc = self.pool[(bits >> 52) as usize % N_POOL];
        let fact = |concept: String| Fact::ConceptProb(concept, p);
        let assert = match kind / 8 % 8 {
            3 => Some((self.user, fact(format!("Ctx{which}")))),
            4 => Some((self.other, fact(format!("Ctx{which}")))),
            5 => Some((doc, fact(format!("Feat{which}")))),
            6 => Some((doc, fact("Unread".into()))),
            _ => None,
        };
        if let Some((subject, Fact::ConceptProb(concept, p))) = &assert {
            self.kb.assert_concept_prob(*subject, concept, *p).unwrap();
            self.service
                .assert(*subject, fact(concept.clone()))
                .unwrap();
        }
        if kind / 8 % 8 == 7 {
            let name = format!("R{which}");
            let rule = match self.removed.iter().position(|r| r.name == name) {
                // Back as it was, or under another σ.
                Some(at) if p < 0.5 => self.removed.remove(at),
                Some(at) => PreferenceRule {
                    sigma: Score::new(p).unwrap(),
                    ..self.removed.remove(at)
                },
                None => {
                    self.removed.push(self.rules.remove(&name).unwrap());
                    self.service.remove_rule(&name).unwrap();
                    return None;
                }
            };
            self.rules.add(rule.clone()).unwrap();
            self.service.add_rule(rule).unwrap();
        }
        self.docs = next_list(kind, bits, &self.docs, &self.pool);
        Some(self.docs.len() + usize::from(kind >= 128) * 2)
    }

    fn env(&self) -> ScoringEnv<'_> {
        ScoringEnv {
            kb: &self.kb,
            rules: &self.rules,
            user: self.user,
        }
    }
}

fn engines() -> Vec<Box<dyn ScoringEngine + Sync>> {
    vec![
        Box::new(NaiveViewEngine::new()),
        Box::new(NaiveEnumEngine::new()),
        Box::new(FactorizedEngine::new()),
        Box::new(LineageEngine::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32 * stress_iters()))]

    /// The score entry keeps scores by position and answers the list it
    /// holds without looking anything up; none of that may show. Every step
    /// of a [`Stream`] is a `score_all` or a full `rank` of its list,
    /// through one session and through one service tenant. Every answer
    /// equals the cold one bit for bit, and both score caches count exactly
    /// what [`CacheModel`] counts, on all four engines.
    #[test]
    fn score_entries_answer_and_count_like_a_set_per_binding_state(
        steps in prop::collection::vec((any::<u8>(), any::<u64>(), 0.05f64..=0.95), 8..20),
    ) {
        for engine in engines() {
            let mut stream = Stream::new(engine);
            let mut session = ScoringSession::new();
            let mut model = CacheModel::default();
            for &(kind, bits, p) in &steps {
                let Some(k) = stream.step(kind, bits, p) else { continue };
                let (env, docs, service) = (stream.env(), &stream.docs, &stream.service);
                let engine = service.engine().as_ref();
                model.request(binding_state(&env), docs);
                let cold = engine.score_all(&env, docs).unwrap();
                let at = format!("{} {:?} k={}", engine.name(), docs, k);
                if kind / 64 % 2 == 0 {
                    let want = common::bits(&rank(cold));
                    let got = session.rank_top_k(engine, &env, docs, k).unwrap();
                    prop_assert_eq!(&want, &common::bits(&got), "session rank {}", at);
                    let got = service.rank(stream.user, docs, k).unwrap();
                    prop_assert_eq!(&want, &common::bits(&got), "service rank {}", at);
                } else {
                    let got = session.score_all(engine, &env, docs).unwrap();
                    prop_assert_eq!(common::bits(&cold), common::bits(&got), "score_all {}", at);
                    // A group of one is the service's unranked read; a list
                    // with repeats is not a group's to combine, cold or warm.
                    let alone = GroupStrategy::LeastMisery;
                    let bits = |r: Result<Vec<DocScore>, CoreError>| {
                        r.map(|v| common::bits(&rank(v))).map_err(|e| e.to_string())
                    };
                    let want = bits(group_scores(&[cold], &alone));
                    let got = bits(service.rank_group(&[stream.user], docs, k, &alone));
                    prop_assert_eq!(want, got, "service group of one {}", at);
                }
                prop_assert_eq!(session.stats().scores, model.scores, "session {}", at);
                let tenant = service.tenant_stats(stream.user).unwrap();
                prop_assert_eq!(tenant.scores, model.scores, "service {}", at);
            }
        }
    }

    /// Tenants count like sessions: a service tenant driven by the
    /// [`Stream`] — warm repeats of the stored list, other lists through
    /// the entry's index, asserts and rule edits in between — reports in
    /// `tenant_stats` exactly the binding and score hits and misses
    /// [`CacheModel`] counts, and so does a session asked the same, on all
    /// four engines. The benchmark's `session.*` ratios are these counters.
    #[test]
    fn tenants_count_bindings_and_scores_like_the_model(
        steps in prop::collection::vec((any::<u8>(), any::<u64>(), 0.05f64..=0.95), 8..20),
    ) {
        for engine in engines() {
            let mut stream = Stream::new(engine);
            let mut session = ScoringSession::new();
            let mut model = CacheModel::default();
            for &(kind, bits, p) in &steps {
                let Some(k) = stream.step(kind, bits, p) else { continue };
                let (env, docs, service) = (stream.env(), &stream.docs, &stream.service);
                let engine = service.engine().as_ref();
                model.request(binding_state(&env), docs);
                if kind / 64 % 2 == 0 {
                    service.rank(stream.user, docs, k).unwrap();
                    session.rank_top_k(engine, &env, docs, k).unwrap();
                } else {
                    // A list with repeats is refused after the member's
                    // scores are read, and counted.
                    service.rank_group(&[stream.user], docs, k, &GroupStrategy::LeastMisery).ok();
                    session.score_all(engine, &env, docs).unwrap();
                }
                let at = format!("{} {:?} k={}", engine.name(), docs, k);
                let want = (model.bindings, model.scores);
                let tenant = service.tenant_stats(stream.user).unwrap();
                prop_assert_eq!((tenant.bindings, tenant.scores), want, "tenant {}", at);
                let session = session.stats();
                prop_assert_eq!((session.bindings, session.scores), want, "session {}", at);
            }
        }
    }
}
