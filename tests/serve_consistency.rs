//! Serving-layer coverage: a [`RankingService`]'s whole cache stack —
//! LRU-capped tenant sessions, their bindings, feature rows, score caches —
//! must be *invisible*. After arbitrary interleaved
//! assert/rank sequences, every rank served by the service is
//! bit-identical to a cold `bind_rules` + `score_all` + `rank` for the
//! same user, for all four engines, under an aggressive session cap
//! (LRU cap 2, so tenants are constantly evicted and re-derived). A
//! lineage service is held
//! to the test-side factor reference of `tests/common` as well, on either
//! of the engine's two routes.
//!
//! The binding layer gets a suite of its own
//! (`footprint_validated_bindings_match_cold_bind`): bindings are kept
//! across mutations that miss their footprint, plans across asserts that
//! miss their tables, a user none of whose tables a context reads gets
//! its blank without a walk, and preference views are shared between
//! tenants, so the interleavings there aim at every way a footprint can
//! differ from a rule's surface — TBox-defined, role-chained, closed-world
//! and nominal concepts, on the user's side and the documents', for users
//! who carry none, some or all of a context's names.
//!
//! `CAPRA_STRESS_ITERS` multiplies every property's case count, as in
//! `tests/lineage_lanes.rs`: CI's stress step sets it, tier-1 runs the
//! base count.

mod common;

use capra::core::EvalScratch;
use capra::prelude::*;
use proptest::prelude::*;

const N_DOCS: usize = 4;
const N_USERS: usize = 4;
const N_FEATS: usize = 2;

/// Multiplier on the properties' case counts (see the module docs).
fn stress_iters() -> u32 {
    std::env::var("CAPRA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// One step of the interleaved request sequence, decoded from raw draws.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Assert `Feat{feat}` on `doc{doc}` with probability `p` through the
    /// service's typed request surface (repeats disjoin fresh variables,
    /// superseding the old events — the eviction workload).
    DocFeature { doc: usize, feat: usize, p: f64 },
    /// Context switch: assert `Ctx{feat}` on `user` with probability `p`.
    UserContext { user: usize, feat: usize, p: f64 },
    /// Rank for `user` with this `k` (k may exceed the doc count, which
    /// ranks everything through the score-cache path).
    Rank { user: usize, k: usize },
}

fn decode_op(kind: u8, user: usize, idx: usize, feat: usize, p: f64, k: usize) -> Op {
    match kind % 4 {
        0 => Op::DocFeature { doc: idx, feat, p },
        1 => Op::UserContext { user, feat, p },
        _ => Op::Rank { user, k },
    }
}

/// One step of `service_matches_cold_bind_under_eviction`: an [`Op`], or
/// one of the service's other publishing entry points — each of which must
/// move the publish sequence exactly when it changes what a tenant binds,
/// or a warm page would answer from the state before it.
#[derive(Debug, Clone, Copy)]
enum Step {
    Op(Op),
    /// Add the third rule `R2` (σ = `sigma`) if it is absent, else remove it.
    ToggleRule {
        sigma: f64,
    },
    /// Register an individual: a new one, appended to the page, or one the
    /// service already has.
    Individual {
        fresh: bool,
    },
    /// Parse an expression that names a new concept.
    Parse,
    /// Assert `Ctx{feat}` on `user` with certainty.
    CertainContext {
        user: usize,
        feat: usize,
    },
    /// Assert `hasGenre` from `doc` to the genre `R2` reads, with
    /// probability `p`.
    DocGenre {
        doc: usize,
        p: f64,
    },
    /// Rank the last ranked user's full page again — a warm answer unless
    /// something since moved the sequence.
    RankAgain,
}

fn decode_step(kind: u8, user: usize, idx: usize, feat: usize, p: f64, k: usize) -> Step {
    match kind % 12 {
        4 => Step::ToggleRule { sigma: p },
        5 => Step::Individual {
            fresh: idx.is_multiple_of(2),
        },
        6 => Step::Parse,
        7 => Step::CertainContext { user, feat },
        8 => Step::DocGenre { doc: idx, p },
        9..=11 => Step::RankAgain,
        _ => Step::Op(decode_op(kind, user, idx, feat, p, k)),
    }
}

/// `R2: TOP → TvProgram AND EXISTS hasGenre.Hot`, parsed by `parse` — a
/// rule that moves every user's scores, and whose events read none of
/// `R0`'s and `R1`'s variables, so the strict factorized engine accepts it
/// beside them.
fn third_rule(mut parse: impl FnMut(&str) -> Concept, sigma: f64) -> PreferenceRule {
    PreferenceRule::new(
        "R2",
        parse("TOP"),
        parse("TvProgram AND EXISTS hasGenre.Hot"),
        Score::new(sigma).unwrap(),
    )
}

fn fixture() -> (
    Kb,
    RuleRepository,
    Vec<capra::dl::IndividualId>,
    Vec<capra::dl::IndividualId>,
) {
    let mut kb = Kb::new();
    let users: Vec<_> = (0..N_USERS)
        .map(|u| {
            let user = kb.individual(&format!("user{u}"));
            kb.assert_concept_prob(user, "Ctx0", 0.3 + 0.15 * u as f64)
                .unwrap();
            user
        })
        .collect();
    let docs: Vec<_> = (0..N_DOCS)
        .map(|d| {
            let doc = kb.individual(&format!("doc{d}"));
            kb.assert_concept(doc, "TvProgram");
            kb.assert_concept_prob(doc, "Feat0", 0.1 + 0.2 * d as f64)
                .unwrap();
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
    (kb, rules, users, docs)
}

/// Rooms users can be in and genres documents can have (two of each).
const N_PLACES: usize = 2;

/// Tenants of the footprint suite: the first [`N_USERS`] start with `Ctx0`
/// and a room, so with every own name of `Relaxed`; the next two with one
/// of them each (`Ctx0`, a room), the last two with none — the very last
/// named by `F4`'s nominal.
const FOOTPRINT_USERS: usize = N_USERS + 4;

/// A KB whose rules read more than their surface names say:
///
/// * `F0: Relaxed → TvProgram AND Feat0`, with the TBox definition
///   `Relaxed ≡ Ctx0 AND EXISTS inRoom.Cosy` — a defined, role-chained
///   context (footprint `Ctx0`, `inRoom`, `Cosy`);
/// * `F1: EXISTS inRoom.Cosy → (TvProgram AND EXISTS hasGenre.Hot) OR
///   {fresh4}` — tagging a *room* `Cosy` or a *genre* `Hot` changes events
///   of users and documents nobody asserted anything about, and the
///   nominal names an individual the vocabulary knows but the domain does
///   not hold until the test registers it;
/// * `F2: NOT Ctx1 → NOT Feat1` — closed-world on both sides;
/// * `F3: TOP → FORALL hasGenre.Calm` — a default rule whose preference
///   view, like F2's, holds every individual of the domain and so grows
///   with it;
/// * `F4: {user7} OR (Ctx1 AND NOT Ctx0) → TvProgram AND NOT Feat0` — a
///   context that names one user outright, who has no table of their own
///   until the steps give them one.
struct Footprints {
    kb: Kb,
    rules: RuleRepository,
    users: Vec<capra::dl::IndividualId>,
    docs: Vec<capra::dl::IndividualId>,
    rooms: Vec<capra::dl::IndividualId>,
    genres: Vec<capra::dl::IndividualId>,
}

const FOOTPRINT_RULES: [(&str, &str, &str, f64); 5] = [
    ("F0", "Relaxed", "TvProgram AND Feat0", 0.8),
    (
        "F1",
        "EXISTS inRoom.Cosy",
        "(TvProgram AND EXISTS hasGenre.Hot) OR {fresh4}",
        0.35,
    ),
    ("F2", "NOT Ctx1", "NOT Feat1", 0.6),
    ("F3", "TOP", "FORALL hasGenre.Calm", 0.55),
    (
        "F4",
        "{user7} OR (Ctx1 AND NOT Ctx0)",
        "TvProgram AND NOT Feat0",
        0.7,
    ),
];

fn footprint_rule(
    mut parse: impl FnMut(&str) -> Concept,
    which: usize,
    sigma: f64,
) -> PreferenceRule {
    let (name, context, preference, _) = FOOTPRINT_RULES[which];
    PreferenceRule::new(
        name,
        parse(context),
        parse(preference),
        Score::new(sigma).unwrap(),
    )
}

fn footprint_fixture() -> Footprints {
    let mut kb = Kb::new();
    let named = |kb: &mut Kb, prefix: &str, n: usize| -> Vec<_> {
        (0..n)
            .map(|i| kb.individual(&format!("{prefix}{i}")))
            .collect()
    };
    let users = named(&mut kb, "user", FOOTPRINT_USERS);
    let docs = named(&mut kb, "doc", N_DOCS);
    let rooms = named(&mut kb, "room", N_PLACES);
    let genres = named(&mut kb, "genre", N_PLACES);
    for (u, &user) in users.iter().enumerate() {
        if u < N_USERS + 1 {
            kb.assert_concept_prob(user, "Ctx0", 0.3 + 0.15 * u as f64)
                .unwrap();
        }
        if u < N_USERS || u == N_USERS + 1 {
            kb.assert_role(user, "inRoom", rooms[u % N_PLACES]);
        }
    }
    for (d, &doc) in docs.iter().enumerate() {
        kb.assert_concept(doc, "TvProgram");
        kb.assert_concept_prob(doc, "Feat0", 0.1 + 0.2 * d as f64)
            .unwrap();
        kb.assert_role(doc, "hasGenre", genres[d % N_PLACES]);
    }
    kb.assert_concept(rooms[0], "Cosy");
    kb.assert_concept_prob(genres[0], "Hot", 0.7).unwrap();
    let relaxed = kb.voc.concept("Relaxed");
    let body = kb.parse("Ctx0 AND EXISTS inRoom.Cosy").unwrap();
    kb.tbox.define(relaxed, body, &kb.voc).unwrap();
    let mut rules = RuleRepository::new();
    for (which, &(.., sigma)) in FOOTPRINT_RULES.iter().enumerate() {
        let rule = footprint_rule(|text| kb.parse(text).unwrap(), which, sigma);
        rules.add(rule).unwrap();
    }
    Footprints {
        kb,
        rules,
        users,
        docs,
        rooms,
        genres,
    }
}

/// What a request must return on `snap`, derived with nothing cached:
/// `bind_rules_shared` + `score_all_bound` on a fresh scratch (+
/// `group_scores`), ranked and cut. Engine errors are part of the answer.
fn cold_answer(
    engine: &dyn ScoringEngine,
    snap: &SharedSnapshot,
    members: &[capra::dl::IndividualId],
    docs: &[capra::dl::IndividualId],
    k: usize,
    strategy: Option<&GroupStrategy>,
) -> Result<Vec<DocScore>, String> {
    let per_user = members
        .iter()
        .map(|&user| {
            let env = ScoringEnv {
                kb: snap.kb(),
                rules: snap.rules(),
                user,
            };
            engine.score_all_bound(
                &env,
                &bind_rules_shared(&env),
                docs,
                &mut EvalScratch::new(),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let scores = match strategy {
        Some(strategy) => group_scores(&per_user, strategy).map_err(|e| e.to_string())?,
        None => per_user.into_iter().next().expect("one member"),
    };
    let mut ranked = rank(scores);
    ranked.truncate(k);
    Ok(ranked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16 * stress_iters()))]

    /// Bindings survive mutations that miss their footprint, are re-checked
    /// by point membership when one hits it, and share preference views
    /// across tenants; plans survive asserts that miss their tables; a user
    /// a context reads nothing of is handed its blank — and none of it may
    /// show. Every step is a random mutation — user-side or document-side,
    /// concept or role, certain or uncertain, a new individual (which is
    /// ranked as a candidate from then on, so a view that missed the domain
    /// growing shows), a rule removed or re-defined under its name —
    /// followed by a `rank` or `rank_group` of a random tenant out of
    /// eight, who may carry none, some or all of a context's names, with
    /// and without an LRU cap of two. Every response, engine errors
    /// included, equals the cold bind on the snapshot it was served from,
    /// bit for bit, on all four engines.
    #[test]
    fn footprint_validated_bindings_match_cold_bind(
        steps in prop::collection::vec(
            (
                any::<u8>(),
                0usize..FOOTPRINT_USERS,
                0usize..FOOTPRINT_USERS,
                0.05f64..=0.95,
                1usize..=N_DOCS + 1,
            ),
            6..14,
        ),
        evicting in any::<bool>(),
    ) {
        let fixture = footprint_fixture();
        let Footprints { users, rooms, genres, .. } = &fixture;
        let engines: Vec<Box<dyn ScoringEngine + Sync>> = vec![
            Box::new(NaiveViewEngine::new()),
            Box::new(NaiveEnumEngine::new()),
            Box::new(FactorizedEngine::new()),
            Box::new(LineageEngine::new()),
        ];
        for engine in engines {
            let service = RankingService::with_config(
                engine,
                fixture.kb.clone(),
                fixture.rules.clone(),
                ServiceConfig {
                    // Without the cap every tenant stays live, so bindings
                    // are re-validated rather than re-derived after an LRU
                    // eviction.
                    max_sessions: if evicting { 2 } else { FOOTPRINT_USERS },
                    ..ServiceConfig::default()
                },
            );
            let mut docs = fixture.docs.clone();
            for &(kind, a, b, p, k) in &steps {
                let place = b % N_PLACES;
                // Half the requests come from the tenant just written about.
                let b = if kind >= 128 { a } else { b };
                let assert = |subject, fact| service.assert(subject, fact).unwrap();
                match kind % 9 {
                    0 => assert(users[a], Fact::ConceptProb(format!("Ctx{place}"), p)),
                    1 => assert(docs[a % N_DOCS], Fact::ConceptProb(format!("Feat{place}"), p)),
                    2 => assert(users[a], Fact::Role("inRoom".into(), rooms[place])),
                    3 if p > 0.5 => assert(rooms[place], Fact::Concept("Cosy".into())),
                    3 => assert(rooms[place], Fact::ConceptProb("Cosy".into(), p)),
                    4 => assert(
                        docs[a % N_DOCS],
                        Fact::RoleProb("hasGenre".into(), genres[place], p),
                    ),
                    5 => {
                        let tag = if a % 2 == 0 { "Hot" } else { "Calm" };
                        assert(genres[place], Fact::ConceptProb(tag.into(), p));
                    }
                    6 => docs.push(service.individual(&format!("fresh{}", docs.len()))),
                    7 => {
                        // Present: remove. Absent: back under the same
                        // name with another σ.
                        let which = a % FOOTPRINT_RULES.len();
                        if service.remove_rule(FOOTPRINT_RULES[which].0).is_err() {
                            let parse = |text: &str| service.parse(text).unwrap();
                            service.add_rule(footprint_rule(parse, which, p)).unwrap();
                        }
                    }
                    _ => {}
                }
                let strategy = GroupStrategy::LeastMisery;
                let (members, strategy) = match kind / 9 % 3 {
                    0 => (&users[..=b], Some(&strategy)),
                    _ => (&users[b..=b], None),
                };
                let snap = service.snapshot();
                let want =
                    cold_answer(service.engine().as_ref(), &snap, members, &docs, k, strategy);
                let got = match strategy {
                    Some(strategy) => service.rank_group(members, &docs, k, strategy),
                    None => service.rank(members[0], &docs, k),
                }
                .map_err(|e| e.to_string());
                let bits = |r: Result<Vec<DocScore>, String>| {
                    r.map(|v| v.iter().map(|s| (s.doc, s.score.to_bits())).collect::<Vec<_>>())
                };
                prop_assert_eq!(
                    bits(want), bits(got),
                    "engine {} members={:?} k={}", service.engine().name(), members, k
                );
            }
            if evicting {
                prop_assert!(service.stats().sessions_live <= 2, "LRU cap holds");
            }
        }
    }

    /// The serving-layer tentpole property: whatever interleaving of
    /// context switches, feature updates, rule edits, registrations,
    /// parses and rank requests a service absorbs — while its LRU cap (2
    /// sessions for 4 users) churns tenants, and full pages are ranked
    /// again so that warm answers occur — every response is bit-identical
    /// to the cold path on a shadow KB and shadow rules, for all four
    /// engines.
    #[test]
    fn service_matches_cold_bind_under_eviction(
        ops in prop::collection::vec(
            (
                any::<u8>(),
                0usize..N_USERS,
                0usize..N_DOCS,
                0usize..N_FEATS,
                0.05f64..=0.95,
                1usize..=N_DOCS + 2,
            ),
            1..16,
        ),
        shards in 1usize..=4,
    ) {
        let (mut kb, rules, users, docs) = fixture();
        let genre = kb.individual("genre");
        kb.assert_concept(genre, "Hot");
        let engines: Vec<Box<dyn ScoringEngine + Sync>> = vec![
            Box::new(NaiveViewEngine::new()),
            Box::new(NaiveEnumEngine::new()),
            Box::new(FactorizedEngine::new()),
            Box::new(LineageEngine::new()),
        ];
        for engine in engines {
            // Each engine gets its own service over its own KB clone, and
            // the same op sequence is replayed against a shadow KB and
            // shadow rules that serve the cold reference — the service may
            // never drift from them. LRU cap 2 for 4 users: most ranks
            // re-derive an evicted tenant.
            let mut shadow = kb.clone();
            let mut shadow_rules = rules.clone();
            let mut docs = docs.clone();
            let service = RankingService::with_config(
                engine,
                kb.clone(),
                rules.clone(),
                ServiceConfig {
                    shards,
                    max_sessions: 2,
                    ..ServiceConfig::default()
                },
            );
            let mut last = 0;
            for &(kind, user, idx, feat, p, k) in &ops {
                let (user, k) = match decode_step(kind, user, idx, feat, p, k) {
                    Step::Op(Op::DocFeature { doc, feat, p }) => {
                        let concept = format!("Feat{feat}");
                        service
                            .assert(docs[doc], Fact::ConceptProb(concept.clone(), p))
                            .unwrap();
                        shadow.assert_concept_prob(docs[doc], &concept, p).unwrap();
                        continue;
                    }
                    Step::Op(Op::UserContext { user, feat, p }) => {
                        let concept = format!("Ctx{feat}");
                        service
                            .assert(users[user], Fact::ConceptProb(concept.clone(), p))
                            .unwrap();
                        shadow.assert_concept_prob(users[user], &concept, p).unwrap();
                        continue;
                    }
                    Step::ToggleRule { sigma } => {
                        if shadow_rules.remove("R2").is_ok() {
                            service.remove_rule("R2").unwrap();
                        } else {
                            service.add_rule(third_rule(|t| service.parse(t).unwrap(), sigma)).unwrap();
                            shadow_rules.add(third_rule(|t| shadow.parse(t).unwrap(), sigma)).unwrap();
                        }
                        continue;
                    }
                    Step::Individual { fresh } => {
                        let name = if fresh { format!("fresh{}", docs.len()) } else { "doc0".into() };
                        let id = service.individual(&name);
                        prop_assert_eq!(id, shadow.individual(&name));
                        if fresh {
                            docs.push(id);
                        }
                        continue;
                    }
                    Step::Parse => {
                        let text = format!("Novel{} AND Feat1", docs.len());
                        prop_assert_eq!(service.parse(&text).unwrap(), shadow.parse(&text).unwrap());
                        continue;
                    }
                    Step::CertainContext { user, feat } => {
                        let concept = format!("Ctx{feat}");
                        service.assert(users[user], Fact::Concept(concept.clone())).unwrap();
                        shadow.assert_concept(users[user], &concept);
                        continue;
                    }
                    Step::DocGenre { doc, p } => {
                        let role = "hasGenre".to_string();
                        service.assert(docs[doc], Fact::RoleProb(role.clone(), genre, p)).unwrap();
                        shadow.assert_role_prob(docs[doc], &role, genre, p).unwrap();
                        continue;
                    }
                    Step::Op(Op::Rank { user, k }) => (user, k),
                    Step::RankAgain => (last, docs.len()),
                };
                last = user;
                let env = ScoringEnv { kb: &shadow, rules: &shadow_rules, user: users[user] };
                let want = common::cold_rank(service.engine().as_ref(), &env, &docs, k);
                let got = service.rank(users[user], &docs, k).unwrap();
                prop_assert_eq!(got.len(), k.min(docs.len()));
                for (a, b) in want.iter().zip(&got) {
                    prop_assert_eq!(a.doc, b.doc);
                    prop_assert_eq!(
                        a.score.to_bits(), b.score.to_bits(),
                        "engine {}: {} vs {}",
                        service.engine().name(), a.score, b.score
                    );
                }
            }
            let stats = service.stats();
            prop_assert!(stats.sessions_live <= 2, "LRU cap holds");
        }
    }

    /// The serving-layer two-route property: a lineage service absorbing
    /// an interleaved assert/rank/rank_group sequence — under LRU tenant
    /// churn — answers every request
    /// with the test-side factor reference on the snapshot it served, bit
    /// for bit. With
    /// `entangle`, doc0's two features read one sensor: the lane test
    /// rejects doc0 alone, so exact evaluations and closed-form lanes share
    /// batches and tenants, each call evaluating the exact ones on its own
    /// memo.
    #[test]
    fn lineage_service_matches_factor_reference_under_eviction(
        ops in prop::collection::vec(
            (
                any::<u8>(),
                0usize..N_USERS,
                0usize..N_DOCS,
                0usize..N_FEATS,
                0.05f64..=0.95,
                1usize..=N_DOCS + 2,
            ),
            1..7,
        ),
        entangle in any::<bool>(),
    ) {
        let (mut kb, rules, users, docs) = fixture();
        for &user in &users {
            kb.assert_concept_prob(user, "Ctx1", 0.45).unwrap();
        }
        if entangle {
            let sensor = kb.universe.add_bool("sensor", 0.5).unwrap();
            let reading = kb.universe.bool_event(sensor).unwrap();
            kb.assert_concept_event(docs[0], "Feat0", reading.clone());
            kb.assert_concept_event(docs[0], "Feat1", EventExpr::not(reading));
        }
        let service = RankingService::with_config(
            LineageEngine::new(),
            kb,
            rules,
            ServiceConfig {
                max_sessions: 2,
                ..ServiceConfig::default()
            },
        );
        for &(kind, user, idx, feat, p, k) in &ops {
            let (members, strategy) = match decode_op(kind, user, idx, feat, p, k) {
                Op::DocFeature { doc, feat, p } => {
                    service.assert(docs[doc], Fact::ConceptProb(format!("Feat{feat}"), p)).unwrap();
                    continue;
                }
                Op::UserContext { user, feat, p } => {
                    service.assert(users[user], Fact::ConceptProb(format!("Ctx{feat}"), p)).unwrap();
                    continue;
                }
                // Odd draws become group requests, so the group path is
                // held to the reference too.
                Op::Rank { user, .. } if kind % 2 == 1 => {
                    (&users[..=user], Some(GroupStrategy::LeastMisery))
                }
                Op::Rank { user, .. } => (&users[user..=user], None),
            };
            let snap = service.snapshot();
            let per_user: Vec<Vec<DocScore>> = members
                .iter()
                .map(|&user| {
                    let env = ScoringEnv { kb: snap.kb(), rules: snap.rules(), user };
                    common::reference_scores(&env, &bind_rules_shared(&env), &docs)
                })
                .collect();
            let (want, got) = match &strategy {
                Some(strategy) => (
                    group_scores(&per_user, strategy).unwrap(),
                    service.rank_group(members, &docs, k, strategy).unwrap(),
                ),
                None => (per_user[0].clone(), service.rank(members[0], &docs, k).unwrap()),
            };
            let mut want = rank(want);
            want.truncate(k);
            prop_assert_eq!(
                common::bits(&want), common::bits(&got),
                "members={:?} k={} group={}", members, k, strategy.is_some()
            );
        }
        // (Top-k may prune doc0 before it is scored, so only one direction
        // is pinned here.)
        let fallbacks = service.stats().sessions.batch.fallbacks;
        prop_assert!(entangle || fallbacks == 0, "only doc0 ever leaves the lanes");
    }

    /// Batched submission is equivalent to issuing the same requests one
    /// by one: `submit` answers each request through the direct call, in
    /// order, so a batch returns what the sequence of calls does.
    #[test]
    fn batch_submit_equals_sequential_requests(
        ops in prop::collection::vec(
            (
                any::<u8>(),
                0usize..N_USERS,
                0usize..N_DOCS,
                0usize..N_FEATS,
                0.05f64..=0.95,
                1usize..=N_DOCS,
            ),
            1..10,
        ),
    ) {
        let (kb, rules, users, docs) = fixture();
        let config = ServiceConfig {
            max_sessions: 2,
            ..ServiceConfig::default()
        };
        let batched = RankingService::with_config(
            LineageEngine::new(), kb.clone(), rules.clone(), config);
        let sequential = RankingService::with_config(
            LineageEngine::new(), kb.clone(), rules.clone(), config);

        let requests: Vec<Request> = ops
            .iter()
            .map(|&(kind, user, idx, feat, p, k)| match decode_op(kind, user, idx, feat, p, k) {
                Op::DocFeature { doc, feat, p } => Request::Assert {
                    subject: docs[doc],
                    fact: Fact::ConceptProb(format!("Feat{feat}"), p),
                },
                Op::UserContext { user, feat, p } => Request::Assert {
                    subject: users[user],
                    fact: Fact::ConceptProb(format!("Ctx{feat}"), p),
                },
                // Odd draws become group requests, so batched RankGroup —
                // including across assert barriers — is exercised too.
                Op::Rank { user, k } if kind % 2 == 1 => Request::RankGroup {
                    users: users[..=user].to_vec(),
                    docs: docs.clone(),
                    k,
                    strategy: GroupStrategy::LeastMisery,
                },
                Op::Rank { user, k } => Request::Rank {
                    user: users[user],
                    docs: docs.clone(),
                    k,
                },
            })
            .collect();

        let responses = batched.submit(requests.clone());
        prop_assert_eq!(responses.len(), requests.len());
        for (request, response) in requests.into_iter().zip(responses) {
            match request {
                Request::Assert { subject, fact } => {
                    sequential.assert(subject, fact).unwrap();
                    prop_assert!(matches!(response, Ok(Response::Asserted)));
                }
                Request::Rank { user, docs, k } => {
                    let want = sequential.rank(user, &docs, k).unwrap();
                    let got = response.unwrap();
                    let got = got.ranked().unwrap();
                    prop_assert_eq!(want.len(), got.len());
                    for (a, b) in want.iter().zip(got) {
                        prop_assert_eq!(a.doc, b.doc);
                        prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                }
                Request::RankGroup {
                    users,
                    docs,
                    k,
                    strategy,
                } => {
                    let want = sequential.rank_group(&users, &docs, k, &strategy).unwrap();
                    let got = response.unwrap();
                    let got = got.ranked().unwrap();
                    prop_assert_eq!(want.len(), got.len());
                    for (a, b) in want.iter().zip(got) {
                        prop_assert_eq!(a.doc, b.doc);
                        prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                }
            }
        }
    }
}
