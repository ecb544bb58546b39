//! Concurrency coverage: a shared `&RankingService` under real thread
//! interleavings must stay bit-identical to a sequential replay.
//!
//! Four angles, each across all four engines with randomized shard
//! counts:
//!
//! * **Disjoint tenants** — threads own distinct users and mutate only
//!   their own context through one shared `&RankingService`, while one
//!   more thread asserts a burst of facts on a bystander no rule reads,
//!   moving the published sequence under every tenant's warm pages
//!   mid-run. After the
//!   threads join, every user's rank must be bit-identical to a *cold
//!   twin service* rebuilt from the converged KB — the whole warm cache
//!   stack (sharded tenants, feature rows, epoch snapshots)
//!   must be invisible no matter how the asserts interleaved. (Exact inference
//!   sums in universe-variable order, which is the global commit order,
//!   so the oracle must share the concurrent run's universe — a
//!   per-thread replay can drift in the last ulp by design.)
//! * **First-sight storm** — threads of never-seen users rank while a
//!   writer moves contexts and the catalog, so binders race to resolve
//!   the rule plans of each new KB state (the loser adopts the winner's).
//!   After the join every stranger ranks as on the cold twin and, rule by
//!   rule, all of them hold one preference view `Arc`.
//! * **Overlapping tenants** — threads race asserts on *shared* users
//!   and documents against a durable service. The WAL records the
//!   committed order, so `open_durable` on the same directory *is* the
//!   sequential replay oracle: the restored service must agree with the
//!   live one bit-for-bit on every user's final rank and a group rank.
//! * **Queued producers** — the same convergence property driven
//!   through [`ServiceQueue`]/[`ServiceHandle`]: producers enqueue from
//!   many threads, whichever waiter holds the drain role batches across
//!   producers, and the drained end state must match the cold twin
//!   bit-for-bit.
//!
//! Every test shares the service across [`std::thread::scope`] threads
//! by `&` reference — compile-time proof that the warm serving surface
//! takes `&self`. Set `CAPRA_STRESS_ITERS` to repeat the interleaving
//! with fresh seeds (CI runs a multi-iteration pass).

use capra::dl::IndividualId;
use capra::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const N_USERS: usize = 4;
const N_DOCS: usize = 4;
const N_FEATS: usize = 2;
/// Ops per thread per test round — small enough that the durable
/// (fsync-per-record) variant stays fast, large enough to force lock
/// handoffs and LRU churn mid-flight.
const OPS_PER_THREAD: usize = 24;

/// Deterministic xorshift64* — no clock, no global state, so every
/// failure reproduces from the printed seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn prob(&mut self) -> f64 {
        0.05 + 0.9 * (self.next() % 1000) as f64 / 1000.0
    }
}

/// Extra interleaving rounds beyond the default single pass. CI sets
/// this to stress the same properties under many distinct schedules.
fn stress_iters() -> u64 {
    std::env::var("CAPRA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn engines() -> Vec<(&'static str, Box<dyn ScoringEngine + Send + Sync>)> {
    vec![
        ("naive-view", Box::new(NaiveViewEngine::new())),
        ("naive-enum", Box::new(NaiveEnumEngine::new())),
        ("factorized", Box::new(FactorizedEngine::new())),
        ("lineage", Box::new(LineageEngine::new())),
    ]
}

/// Shared fixture: users with a starting context, documents with
/// per-rule-independent features, one rule per feature.
fn fixture() -> (Kb, RuleRepository, Vec<IndividualId>, Vec<IndividualId>) {
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
            for f in 0..N_FEATS {
                kb.assert_concept_prob(doc, &format!("Feat{f}"), 0.15 + 0.2 * (d + f) as f64)
                    .unwrap();
            }
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

fn config(seed: u64) -> ServiceConfig {
    let mut rng = Rng::new(seed);
    ServiceConfig {
        shards: 1 + rng.below(4),
        // Cap below the user count so eviction races the rank paths.
        max_sessions: 2,
        ..ServiceConfig::default()
    }
}

/// The per-thread op stream for the disjoint-tenant tests: the thread
/// asserts only on its *own* user, so its responses are independent of
/// every other thread and must replay sequentially.
#[derive(Clone, Debug)]
enum OwnOp {
    Context { feat: usize, p: f64 },
    Rank { k: usize },
    RankGroup { k: usize },
}

fn own_ops(seed: u64) -> Vec<OwnOp> {
    let mut rng = Rng::new(seed);
    (0..OPS_PER_THREAD)
        .map(|_| match rng.below(4) {
            0 => OwnOp::Context {
                feat: rng.below(N_FEATS),
                p: rng.prob(),
            },
            1 => OwnOp::RankGroup {
                k: 1 + rng.below(N_DOCS),
            },
            _ => OwnOp::Rank {
                k: 1 + rng.below(N_DOCS + 2),
            },
        })
        .collect()
}

fn assert_same_ranks(context: &str, want: &[DocScore], got: &[DocScore]) {
    assert_eq!(want.len(), got.len(), "{context}: length");
    for (a, b) in want.iter().zip(got) {
        assert_eq!(a.doc, b.doc, "{context}: doc order");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{context}: {} vs {}",
            a.score,
            b.score
        );
    }
}

/// Builds the cold oracle for a converged concurrent run: a fresh
/// service over a clone of the live service's *final* KB. The clone
/// shares the universe (and so the variable order exact inference sums
/// in), but none of the warm caches — so any cache-stack state the
/// interleaving corrupted would surface as a bit difference.
fn cold_twin(
    name: &str,
    live: &RankingService<Box<dyn ScoringEngine + Send + Sync>>,
    seed: u64,
) -> RankingService<Box<dyn ScoringEngine + Send + Sync>> {
    let (_, engine) = engines().into_iter().find(|(n, _)| *n == name).unwrap();
    RankingService::with_config(
        engine,
        (*live.kb()).clone(),
        (*live.rules()).clone(),
        config(seed),
    )
}

/// Disjoint tenants: N threads hammer one shared `&RankingService`, each
/// mutating only its own user's context, each verifying FIFO visibility
/// of its *own* asserts mid-flight (the published epoch only grows),
/// beside a burst of asserts on a bystander that moves the published
/// sequence under every tenant mid-run. After the join, every
/// user's rank and a whole-group rank must be bit-identical to the cold
/// twin.
#[test]
fn disjoint_tenants_converge_to_the_cold_oracle() {
    for iter in 0..stress_iters() {
        for (name, engine) in engines() {
            let seed = 0x9e37 ^ (iter << 8) ^ name.len() as u64;
            let (mut kb, rules, users, docs) = fixture();
            let bystander = kb.individual("bystander");
            let service = RankingService::with_config(engine, kb, rules, config(seed));

            thread::scope(|scope| {
                scope.spawn(|| {
                    // Each assert moves the binding epoch by one: 65 of them
                    // outlast the tenants' own traffic, so every tenant
                    // keeps meeting publishes no rule reads for the whole
                    // run.
                    for i in 0..65u64 {
                        let p = 0.05 + 0.9 * (i % 10) as f64 / 10.0;
                        service
                            .assert(bystander, Fact::ConceptProb("Idle".into(), p))
                            .unwrap();
                    }
                });
                for (t, &user) in users.iter().enumerate() {
                    let service = &service;
                    let docs = &docs;
                    scope.spawn(move || {
                        let mut last_epoch = 0u64;
                        for op in own_ops(seed ^ t as u64) {
                            match op {
                                OwnOp::Context { feat, p } => {
                                    service
                                        .assert(user, Fact::ConceptProb(format!("Ctx{feat}"), p))
                                        .unwrap();
                                    // This thread's own assert is visible to its
                                    // next load: publishes happen-before the
                                    // writer lock releases.
                                    let epoch = service.snapshot().kb().epoch();
                                    assert!(epoch > last_epoch, "epochs only grow");
                                    last_epoch = epoch;
                                }
                                OwnOp::Rank { k } => {
                                    let got = service.rank(user, docs, k).unwrap();
                                    assert_eq!(got.len(), k.min(docs.len()));
                                }
                                OwnOp::RankGroup { k } => {
                                    let got = service
                                        .rank_group(&[user], docs, k, &GroupStrategy::LeastMisery)
                                        .unwrap();
                                    assert_eq!(got.len(), k.min(docs.len()));
                                }
                            }
                        }
                    });
                }
            });

            let twin = cold_twin(name, &service, seed);
            for (i, &u) in users.iter().enumerate() {
                let want = twin.rank(u, &docs, N_DOCS).unwrap();
                let got = service.rank(u, &docs, N_DOCS).unwrap();
                assert_same_ranks(&format!("{name} seed {seed} user {i}"), &want, &got);
            }
            let want = twin
                .rank_group(&users, &docs, N_DOCS, &GroupStrategy::LeastMisery)
                .unwrap();
            let got = service
                .rank_group(&users, &docs, N_DOCS, &GroupStrategy::LeastMisery)
                .unwrap();
            assert_same_ranks(&format!("{name} seed {seed} group"), &want, &got);

            let stats = service.stats();
            assert_eq!(
                stats.shard_lock_acquisitions,
                service.shard_lock_counts().iter().sum::<u64>(),
                "{name}: aggregate equals the per-shard breakdown"
            );
        }
    }
}

/// The cold rank of `user`'s full page on the service's current snapshot.
fn cold_page(
    service: &RankingService<Box<dyn ScoringEngine + Send + Sync>>,
    user: IndividualId,
    docs: &[IndividualId],
) -> Vec<DocScore> {
    let snap = service.snapshot();
    let env = ScoringEnv {
        kb: snap.kb(),
        rules: snap.rules(),
        user,
    };
    rank(service.engine().score_all(&env, docs).unwrap())
}

/// A rank after an assert sees the assert. A full page answered from the
/// tenant's score entry, an assert on that user, and the page again: the
/// second answer is the cold rank on the post-assert snapshot, at 1, 2, 4
/// and 16 shards. Then across two threads, ordered by a [`Barrier`] and no
/// sleep: the reader ranks warm while the writer asserts, both pass the
/// barrier, and the reader's next page is the post-assert oracle (the
/// racing page is the one before the assert or the one after it).
#[test]
fn a_rank_after_an_assert_sees_the_assert() {
    for iter in 0..stress_iters() {
        let p = 0.1 + 0.8 * (iter % 8) as f64 / 8.0;
        for shards in [1, 2, 4, 16] {
            for (name, engine) in engines() {
                let context = format!("{name} shards {shards} iter {iter}");
                let (kb, rules, users, docs) = fixture();
                let config = ServiceConfig {
                    shards,
                    ..ServiceConfig::default()
                };
                let service = RankingService::with_config(engine, kb, rules, config);
                let user = users[iter as usize % N_USERS];
                let page = || service.rank(user, &docs, N_DOCS).unwrap();
                let cold = page();
                assert_eq!(page(), cold, "{context}: the warm page");
                service
                    .assert(user, Fact::ConceptProb("Ctx0".into(), p))
                    .unwrap();
                let after = page();
                assert_same_ranks(&context, &cold_page(&service, user, &docs), &after);
                assert_ne!(after, cold, "{context}: the assert moved the page");

                // The same across two threads.
                let before = page();
                let barrier = Barrier::new(2);
                thread::scope(|scope| {
                    scope.spawn(|| {
                        let racing = page();
                        barrier.wait();
                        let got = page();
                        assert_same_ranks(&context, &cold_page(&service, user, &docs), &got);
                        assert_ne!(got, before, "{context}: the assert moved the page");
                        assert!(racing == before || racing == got, "{context}: {racing:?}");
                    });
                    scope.spawn(|| {
                        service
                            .assert(user, Fact::ConceptProb("Ctx1".into(), p))
                            .unwrap();
                        barrier.wait();
                    });
                });
            }
        }
    }
}

/// A context switch leaves bystanders right. A writer switches one
/// user's context again and again — each switch moves the publish
/// sequence, and a bystander's next bind hands back what it held — while
/// readers rank groups of every user, the switching
/// one among them (each group's members bound, mid-request, against a
/// snapshot the writer keeps superseding), and after each group every
/// other user's full page. Every bystander page is its cold page, bit for
/// bit, throughout; after a [`Barrier`], the switching user's page is the
/// cold page on the published state, which holds the last switch.
#[test]
fn bystanders_stay_right_while_one_user_switches_context() {
    const SWITCHES: usize = 64;
    const READERS: usize = 2;
    for iter in 0..stress_iters() {
        for shards in [1, 2, 4] {
            for (name, engine) in engines() {
                let context = format!("{name} shards {shards} iter {iter}");
                let (kb, rules, users, docs) = fixture();
                let config = ServiceConfig {
                    shards,
                    ..ServiceConfig::default()
                };
                let service = RankingService::with_config(engine, kb, rules, config);
                let (&switcher, bystanders) = users.split_first().unwrap();
                let cold: Vec<_> = bystanders
                    .iter()
                    .map(|&user| cold_page(&service, user, &docs))
                    .collect();
                let writing = AtomicBool::new(true);
                let barrier = Barrier::new(READERS + 1);
                thread::scope(|scope| {
                    for reader in 0..READERS {
                        let (service, docs, cold, context) = (&service, &docs, &cold, &context);
                        let (writing, barrier) = (&writing, &barrier);
                        scope.spawn(move || {
                            let mut rounds = 0;
                            while rounds == 0 || writing.load(Ordering::Acquire) {
                                let mut members = bystanders.to_vec();
                                members.insert((reader + rounds) % members.len(), switcher);
                                let strategy = GroupStrategy::LeastMisery;
                                service
                                    .rank_group(&members, docs, N_DOCS, &strategy)
                                    .unwrap();
                                for (&user, want) in bystanders.iter().zip(cold) {
                                    let got = service.rank(user, docs, N_DOCS).unwrap();
                                    assert_same_ranks(&format!("{context} rank"), want, &got);
                                }
                                rounds += 1;
                            }
                            barrier.wait();
                        });
                    }
                    for i in 0..SWITCHES {
                        let p = 0.05 + 0.9 * ((i + iter as usize) % 10) as f64 / 10.0;
                        let fact = Fact::ConceptProb(format!("Ctx{}", i % N_FEATS), p);
                        service.assert(switcher, fact).unwrap();
                        thread::yield_now();
                    }
                    writing.store(false, Ordering::Release);
                    barrier.wait();
                    let got = service.rank(switcher, &docs, N_DOCS).unwrap();
                    let want = cold_page(&service, switcher, &docs);
                    assert_same_ranks(&format!("{context}: the last switch"), &want, &got);
                });
            }
        }
    }
}

/// First-sight storm: readers rank users the service has never seen —
/// and, the session cap being below the thread count, keeps forgetting —
/// while a writer asserts contexts and catalog facts, so every publish
/// has several tenants racing to resolve the new state's rule plans and,
/// their candidate lists overlapping (and repeating a document), to touch
/// the same documents' feature rows first. Whoever wins, the end state is
/// the cold twin's, and at the final state all tenants bind one and the
/// same preference view per rule.
#[test]
fn a_first_sight_storm_converges_on_one_plan_per_state() {
    const READERS: usize = 3;
    const STRANGERS_PER_READER: usize = 8;
    for iter in 0..stress_iters() {
        for (name, engine) in engines() {
            let seed = 0x51a7 ^ (iter << 8) ^ name.len() as u64;
            let (mut kb, rules, users, docs) = fixture();
            let strangers: Vec<_> = (0..READERS * STRANGERS_PER_READER)
                .map(|s| {
                    let stranger = kb.individual(&format!("stranger{s}"));
                    kb.assert_concept_prob(stranger, &format!("Ctx{}", s % 2), 0.5)
                        .unwrap();
                    stranger
                })
                .collect();
            let service = RankingService::with_config(engine, kb, rules, config(seed));

            // The barrier starts readers and writer together; from there
            // the interleaving is the scheduler's (and CI's repeats').
            let start = Barrier::new(READERS + 1);
            thread::scope(|scope| {
                for (reader, mine) in strangers.chunks(STRANGERS_PER_READER).enumerate() {
                    let (service, docs, start) = (&service, &docs, &start);
                    scope.spawn(move || {
                        start.wait();
                        for round in 0..3 {
                            for &stranger in mine {
                                // Two to four documents starting at this
                                // reader's own, then the first once more.
                                let from = reader + round + stranger.index();
                                let mut list: Vec<IndividualId> = (0..2 + from % 3)
                                    .map(|i| docs[(from + i) % N_DOCS])
                                    .collect();
                                let distinct = list.len();
                                list.push(list[0]);
                                let k = 1 + (round + stranger.index()) % N_DOCS;
                                let got = service.rank(stranger, &list, k).unwrap();
                                assert_eq!(got.len(), k.min(distinct));
                            }
                        }
                    });
                }
                let (service, start) = (&service, &start);
                let (users, docs) = (&users, &docs);
                scope.spawn(move || {
                    let mut rng = Rng::new(seed);
                    start.wait();
                    for _ in 0..OPS_PER_THREAD {
                        let (subject, table) = match rng.below(3) {
                            0 => (docs[rng.below(N_DOCS)], "Feat"),
                            _ => (users[rng.below(N_USERS)], "Ctx"),
                        };
                        let concept = format!("{table}{}", rng.below(N_FEATS));
                        service
                            .assert(subject, Fact::ConceptProb(concept, rng.prob()))
                            .unwrap();
                    }
                });
            });

            let twin = cold_twin(name, &service, seed);
            for (i, &s) in strangers.iter().enumerate() {
                let want = twin.rank(s, &docs, N_DOCS).unwrap();
                let got = service.rank(s, &docs, N_DOCS).unwrap();
                assert_same_ranks(&format!("{name} seed {seed} stranger {i}"), &want, &got);
            }
            let snap = service.snapshot();
            let bound: Vec<_> = strangers
                .iter()
                .map(|&user| {
                    ScoringSession::new().bind(&ScoringEnv {
                        kb: snap.kb(),
                        rules: snap.rules(),
                        user,
                    })
                })
                .collect();
            for bindings in &bound[1..] {
                for (a, b) in bound[0].iter().zip(bindings.iter()) {
                    assert!(
                        Arc::ptr_eq(&a.preference_events, &b.preference_events),
                        "{name} seed {seed}: one view of {} for every tenant",
                        a.name
                    );
                }
            }
        }
    }
}

/// First sights at the cap: threads rank more never-seen users than the
/// service keeps, so nearly every request evicts — from its own shard, or
/// from the next shard that has a tenant when its own has none (16 shards
/// over a cap of 4 leave most shards empty). Recency is per shard and no
/// request holds two shard locks, so evictions race inserts across shards;
/// every answer is still the cold page, and after the join no more
/// tenants are live than the cap.
#[test]
fn first_sights_at_the_cap_stay_right_and_under_it() {
    const THREADS: usize = 3;
    const STRANGERS: usize = 18;
    const CAP: usize = 4;
    for iter in 0..stress_iters() {
        for shards in [4, 16] {
            for (name, engine) in engines() {
                let context = format!("{name} shards {shards} iter {iter}");
                let (mut kb, rules, _, docs) = fixture();
                let strangers: Vec<_> = (0..STRANGERS)
                    .map(|s| {
                        let stranger = kb.individual(&format!("stranger{s}"));
                        let p = 0.1 + 0.8 * s as f64 / STRANGERS as f64;
                        kb.assert_concept_prob(stranger, &format!("Ctx{}", s % 2), p)
                            .unwrap();
                        stranger
                    })
                    .collect();
                let config = ServiceConfig {
                    shards,
                    max_sessions: CAP,
                    ..ServiceConfig::default()
                };
                let service = RankingService::with_config(engine, kb, rules, config);
                let cold: Vec<_> = strangers
                    .iter()
                    .map(|&user| cold_page(&service, user, &docs))
                    .collect();
                let start = Barrier::new(THREADS);
                thread::scope(|scope| {
                    for t in 0..THREADS {
                        let (service, docs, cold, context) = (&service, &docs, &cold, &context);
                        let (strangers, start) = (&strangers, &start);
                        scope.spawn(move || {
                            start.wait();
                            for round in 0..2 {
                                for i in 0..STRANGERS {
                                    // Each thread walks the strangers from
                                    // its own offset; half its pages cut.
                                    let at =
                                        (i + t * STRANGERS / THREADS + iter as usize) % STRANGERS;
                                    let k = if (i + round) % 2 == 0 { N_DOCS } else { 2 };
                                    let got = service.rank(strangers[at], docs, k).unwrap();
                                    assert_same_ranks(
                                        &format!("{context} stranger {at} k {k}"),
                                        &cold[at][..k],
                                        &got,
                                    );
                                }
                            }
                        });
                    }
                });
                let stats = service.stats();
                assert!(stats.sessions_live <= CAP, "{context}: {stats:?}");
                assert!(stats.sessions_evicted > 0, "{context}: the cap was reached");
            }
        }
    }
}

/// Fresh scratch directory, unique per test and per process.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("capra-concurrent-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Overlapping tenants against a durable service: threads race context
/// and document asserts on *shared* subjects, with ranks mixed in. The
/// writer lock serializes commits into the WAL, so replaying the
/// directory from scratch is the sequential oracle — the restored
/// service must agree with the live one on every user's final rank, a
/// cross-user group rank, and the KB epoch.
#[test]
fn overlapping_tenants_replay_to_the_committed_order() {
    for iter in 0..stress_iters() {
        for (name, engine) in engines() {
            let seed = 0x51f1 ^ (iter << 8) ^ name.len() as u64;
            let dir = scratch(&format!("overlap-{name}-{iter}"));
            let service =
                RankingService::open_durable(engine, config(seed), &dir, FlushPolicy::EveryRecord)
                    .unwrap();
            // Build the fixture through the durable API so it rides the WAL.
            let users: Vec<_> = (0..N_USERS)
                .map(|u| {
                    let user = service.individual(&format!("user{u}"));
                    service
                        .assert(
                            user,
                            Fact::ConceptProb("Ctx0".into(), 0.3 + 0.15 * u as f64),
                        )
                        .unwrap();
                    user
                })
                .collect();
            let docs: Vec<_> = (0..N_DOCS)
                .map(|d| {
                    let doc = service.individual(&format!("doc{d}"));
                    service
                        .assert(doc, Fact::Concept("TvProgram".into()))
                        .unwrap();
                    for f in 0..N_FEATS {
                        service
                            .assert(
                                doc,
                                Fact::ConceptProb(format!("Feat{f}"), 0.15 + 0.2 * (d + f) as f64),
                            )
                            .unwrap();
                    }
                    doc
                })
                .collect();
            for (i, sigma) in [0.8, 0.35].into_iter().enumerate() {
                let context = service.parse(&format!("Ctx{i}")).unwrap();
                let preference = service.parse(&format!("TvProgram AND Feat{i}")).unwrap();
                service
                    .add_rule(PreferenceRule::new(
                        format!("R{i}"),
                        context,
                        preference,
                        Score::new(sigma).unwrap(),
                    ))
                    .unwrap();
            }

            thread::scope(|scope| {
                for t in 0..N_USERS {
                    let service = &service;
                    let users = &users;
                    let docs = &docs;
                    scope.spawn(move || {
                        let mut rng = Rng::new(seed ^ 0xbeef ^ t as u64);
                        for _ in 0..OPS_PER_THREAD / 2 {
                            match rng.below(4) {
                                0 => {
                                    // Race a context switch on a *shared* user.
                                    let u = users[rng.below(N_USERS)];
                                    let fact = Fact::ConceptProb(
                                        format!("Ctx{}", rng.below(N_FEATS)),
                                        rng.prob(),
                                    );
                                    service.assert(u, fact).unwrap();
                                }
                                1 => {
                                    // Race a feature update on a shared document.
                                    let d = docs[rng.below(N_DOCS)];
                                    let fact = Fact::ConceptProb(
                                        format!("Feat{}", rng.below(N_FEATS)),
                                        rng.prob(),
                                    );
                                    service.assert(d, fact).unwrap();
                                }
                                _ => {
                                    // Ranks interleave with the commits; each one
                                    // sees *some* published snapshot and must not
                                    // error or deadlock. Values are checked at the
                                    // converged end state below.
                                    let u = users[rng.below(N_USERS)];
                                    service.rank(u, docs, 1 + rng.below(N_DOCS)).unwrap();
                                }
                            }
                        }
                    });
                }
            });

            let epoch = service.kb().epoch();
            let live_ranks: Vec<_> = users
                .iter()
                .map(|&u| service.rank(u, &docs, N_DOCS).unwrap())
                .collect();
            let live_group = service
                .rank_group(&users, &docs, N_DOCS, &GroupStrategy::LeastMisery)
                .unwrap();
            drop(service); // release the directory, then replay it cold

            let (_, engine) = engines().into_iter().find(|(n, _)| *n == name).unwrap();
            let oracle =
                RankingService::open_durable(engine, config(seed), &dir, FlushPolicy::EveryRecord)
                    .unwrap();
            assert_eq!(oracle.kb().epoch(), epoch, "{name} seed {seed}: epoch");
            assert_eq!(oracle.stats().wal.records_truncated, 0, "{name}: clean log");
            for (i, (&u, want)) in users.iter().zip(&live_ranks).enumerate() {
                let got = oracle.rank(u, &docs, N_DOCS).unwrap();
                assert_same_ranks(&format!("{name} seed {seed} user {i}"), want, &got);
            }
            let got_group = oracle
                .rank_group(&users, &docs, N_DOCS, &GroupStrategy::LeastMisery)
                .unwrap();
            assert_same_ranks(
                &format!("{name} seed {seed} group"),
                &live_group,
                &got_group,
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The queue front-end preserves the convergence property: producers
/// enqueue through cloned [`ServiceHandle`]s from many threads, the
/// waiter holding the drain role runs a batch across producers (asserts
/// and ranks from different producers interleaved in one `submit`), and
/// the drained end state — read back *through the queue* —
/// must be bit-identical to the cold twin. Queue accounting must balance.
#[test]
fn queued_producers_converge_to_the_cold_oracle() {
    for iter in 0..stress_iters() {
        for (name, engine) in engines() {
            let seed = 0xc0de ^ (iter << 8) ^ name.len() as u64;
            let (kb, rules, users, docs) = fixture();
            let service = std::sync::Arc::new(RankingService::with_config(
                engine,
                kb.clone(),
                rules.clone(),
                config(seed),
            ));
            let queue = ServiceQueue::start(
                service,
                QueueConfig {
                    capacity: 8,
                    batch: 3,
                },
            );

            thread::scope(|scope| {
                for (t, &user) in users.iter().enumerate() {
                    let handle = queue.handle();
                    let docs = docs.clone();
                    scope.spawn(move || {
                        for op in own_ops(seed ^ t as u64) {
                            let request = match op {
                                OwnOp::Context { feat, p } => Request::Assert {
                                    subject: user,
                                    fact: Fact::ConceptProb(format!("Ctx{feat}"), p),
                                },
                                OwnOp::Rank { k } => Request::Rank {
                                    user,
                                    docs: docs.clone(),
                                    k,
                                },
                                OwnOp::RankGroup { k } => Request::RankGroup {
                                    users: vec![user],
                                    docs: docs.clone(),
                                    k,
                                    strategy: GroupStrategy::LeastMisery,
                                },
                            };
                            let expect_ranked = !matches!(request, Request::Assert { .. });
                            let response = handle.enqueue(request).unwrap().wait().unwrap();
                            match response.ranked() {
                                Some(ranked) => {
                                    assert!(expect_ranked, "rank response for an assert");
                                    assert!(ranked.len() <= docs.len());
                                }
                                None => assert!(!expect_ranked, "assert response for a rank"),
                            }
                        }
                    });
                }
            });

            // All producers joined and every ticket resolved, so the
            // queue is drained: read the converged state back through it.
            let handle = queue.handle();
            let twin = cold_twin(name, handle.service().as_ref(), seed);
            for (i, &u) in users.iter().enumerate() {
                let ticket = handle
                    .enqueue(Request::Rank {
                        user: u,
                        docs: docs.clone(),
                        k: N_DOCS,
                    })
                    .unwrap();
                let response = ticket.wait().unwrap();
                let want = twin.rank(u, &docs, N_DOCS).unwrap();
                assert_same_ranks(
                    &format!("{name} seed {seed} user {i}"),
                    &want,
                    response.ranked().unwrap(),
                );
            }

            let stats = queue.stats();
            assert_eq!(
                stats.queue.enqueued, stats.queue.drained,
                "{name}: drained all"
            );
            assert_eq!(
                stats.queue.rejected, 0,
                "{name}: blocking enqueue never sheds"
            );
            assert!(
                stats.queue.depth_high_water <= 8,
                "{name}: backpressure bound held, saw {}",
                stats.queue.depth_high_water
            );
            queue.shutdown();
        }
    }
}
