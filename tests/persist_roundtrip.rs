//! Persistence round-trip property: for proptest-generated knowledge
//! bases and rule sets, `decode(encode(x))` is not just structurally
//! equal — it re-interns every name to the *same handle* and produces
//! **bit-identical** `score_all` results for all four engines. The
//! snapshot leg rides the durable service: save, kill, reopen — from the
//! snapshot, and from a copy holding only the log, whose every record
//! replays — and the served ranks must not drift by a bit either.
//! `CAPRA_STRESS_ITERS` multiplies the case counts, as in the serving
//! suites.

use capra::core::persist::{decode_kb, decode_rules, encode_kb, encode_rules};
use capra::dl::IndividualId;
use capra::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Builds a KB + rules with independent per-rule features (accepted by
/// all four engines) from proptest draws, mixing certain and
/// probabilistic concept assertions plus a probabilistic role with a
/// nominal filler.
fn build(
    ctx_probs: &[f64],
    doc_seeds: &[(f64, f64, bool)],
    sigmas: &[f64],
) -> (Kb, RuleRepository, Vec<IndividualId>, Vec<IndividualId>) {
    let n_rules = ctx_probs.len().min(sigmas.len()).clamp(1, 3);
    let mut kb = Kb::new();
    let users: Vec<_> = (0..2)
        .map(|u| {
            let user = kb.individual(&format!("user{u}"));
            for (i, &p) in ctx_probs.iter().take(n_rules).enumerate() {
                let p = (p + 0.1 * u as f64).min(1.0);
                kb.assert_concept_prob(user, &format!("Ctx{i}"), p).unwrap();
            }
            user
        })
        .collect();
    let genre = kb.individual("HUMAN-INTEREST");
    let docs: Vec<_> = doc_seeds
        .iter()
        .enumerate()
        .map(|(d, &(pa, pb, certain))| {
            let doc = kb.individual(&format!("doc{d}"));
            kb.assert_concept(doc, "TvProgram");
            for (f, p) in [pa, pb].into_iter().take(n_rules).enumerate() {
                if certain && f == 0 {
                    kb.assert_concept(doc, "Feat0");
                } else {
                    kb.assert_concept_prob(doc, &format!("Feat{f}"), p).unwrap();
                }
            }
            if n_rules >= 3 {
                kb.assert_role_prob(doc, "hasGenre", genre, (pa + pb) / 2.0)
                    .unwrap();
            }
            doc
        })
        .collect();
    let mut rules = RuleRepository::new();
    for (i, &sigma) in sigmas.iter().take(n_rules).enumerate() {
        let preference = if i == 2 {
            "TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}".to_string()
        } else {
            format!("TvProgram AND Feat{i}")
        };
        rules
            .add(PreferenceRule::new(
                format!("R{i}"),
                kb.parse(&format!("Ctx{i}")).unwrap(),
                kb.parse(&preference).unwrap(),
                Score::new(sigma).unwrap(),
            ))
            .unwrap();
    }
    (kb, rules, users, docs)
}

/// Multiplier on the properties' case counts (see the module docs).
fn stress_iters() -> u32 {
    std::env::var("CAPRA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24 * stress_iters()))]

    /// KB + rules codec round-trip: re-interning identity and
    /// bit-identical scores for all four engines.
    #[test]
    fn kb_and_rules_round_trip_bit_identically(
        ctx_probs in prop::collection::vec(0.0f64..=0.9, 1..4),
        doc_seeds in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0, any::<bool>()), 1..4),
        sigmas in prop::collection::vec(0.0f64..=1.0, 1..4),
    ) {
        let (kb, rules, users, docs) = build(&ctx_probs, &doc_seeds, &sigmas);
        let mut decoded = decode_kb(&encode_kb(&kb)).unwrap();
        let decoded_rules = decode_rules(&encode_rules(&rules, &kb.voc), &mut decoded.voc).unwrap();

        // Re-interning identity: every individual resolves to the same
        // handle in the decoded KB, and the epoch is preserved.
        prop_assert_eq!(decoded.epoch(), kb.epoch());
        for &ind in users.iter().chain(&docs) {
            let name = kb.voc.individual_name(ind);
            prop_assert_eq!(decoded.voc.find_individual(name), Some(ind));
        }
        prop_assert_eq!(decoded_rules.len(), rules.len());

        let engines: Vec<Box<dyn ScoringEngine + Sync>> = vec![
            Box::new(NaiveViewEngine::new()),
            Box::new(NaiveEnumEngine::new()),
            Box::new(FactorizedEngine::new()),
            Box::new(LineageEngine::new()),
        ];
        for engine in engines {
            for &user in &users {
                let original = engine
                    .score_all(&ScoringEnv { kb: &kb, rules: &rules, user }, &docs)
                    .unwrap();
                let restored = engine
                    .score_all(
                        &ScoringEnv { kb: &decoded, rules: &decoded_rules, user },
                        &docs,
                    )
                    .unwrap();
                for (a, b) in original.iter().zip(&restored) {
                    prop_assert_eq!(a.doc, b.doc);
                    prop_assert_eq!(
                        a.score.to_bits(), b.score.to_bits(),
                        "engine {}: {} vs {}", engine.name(), a.score, b.score
                    );
                }
            }
        }
    }

    /// Snapshot round-trip through the durable service: mirror the
    /// generated KB through the mutation API, rank (which fills the
    /// feature rows and score entries a snapshot leaves out), snapshot,
    /// kill, reopen — the served ranks are bit-identical for all four
    /// engines. A copy of the
    /// directory without its snapshot reopens by replaying the whole log,
    /// and serves the same bits.
    #[test]
    fn durable_service_round_trip_bit_identically(
        ctx_probs in prop::collection::vec(0.05f64..=0.9, 2..4),
        doc_seeds in prop::collection::vec((0.05f64..=0.95, 0.05f64..=0.95, any::<bool>()), 1..3),
        sigmas in prop::collection::vec(0.0f64..=1.0, 2..4),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let n_rules = ctx_probs.len().min(sigmas.len()).clamp(1, 3);
        let make = |which: usize| -> Box<dyn ScoringEngine + Sync> {
            match which {
                0 => Box::new(NaiveViewEngine::new()),
                1 => Box::new(NaiveEnumEngine::new()),
                2 => Box::new(FactorizedEngine::new()),
                _ => Box::new(LineageEngine::new()),
            }
        };
        for which in 0..4 {
            let dir = std::env::temp_dir().join(format!(
                "capra-roundtrip-{}-{case}-{which}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let service = RankingService::open_durable(
                make(which),
                ServiceConfig::default(),
                &dir,
                FlushPolicy::EveryN(4),
            ).unwrap();
            // Mirror `build` through the durable API.
            let users: Vec<_> = (0..2).map(|u| {
                let user = service.individual(&format!("user{u}"));
                for (i, &p) in ctx_probs.iter().take(n_rules).enumerate() {
                    let p = (p + 0.1 * u as f64).min(1.0);
                    service.assert(user, Fact::ConceptProb(format!("Ctx{i}"), p)).unwrap();
                }
                user
            }).collect();
            let genre = service.individual("HUMAN-INTEREST");
            let docs: Vec<_> = doc_seeds.iter().enumerate().map(|(d, &(pa, pb, certain))| {
                let doc = service.individual(&format!("doc{d}"));
                service.assert(doc, Fact::Concept("TvProgram".into())).unwrap();
                for (f, p) in [pa, pb].into_iter().take(n_rules).enumerate() {
                    if certain && f == 0 {
                        service.assert(doc, Fact::Concept("Feat0".into())).unwrap();
                    } else {
                        service.assert(doc, Fact::ConceptProb(format!("Feat{f}"), p)).unwrap();
                    }
                }
                if n_rules >= 3 {
                    service.assert(
                        doc,
                        Fact::RoleProb("hasGenre".into(), genre, (pa + pb) / 2.0),
                    ).unwrap();
                }
                doc
            }).collect();
            for (i, &sigma) in sigmas.iter().take(n_rules).enumerate() {
                let preference = if i == 2 {
                    "TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}".to_string()
                } else {
                    format!("TvProgram AND Feat{i}")
                };
                let context = service.parse(&format!("Ctx{i}")).unwrap();
                let preference = service.parse(&preference).unwrap();
                service.add_rule(PreferenceRule::new(
                    format!("R{i}"), context, preference, Score::new(sigma).unwrap(),
                )).unwrap();
            }
            let want: Vec<Vec<DocScore>> = users
                .iter()
                .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
                .collect();
            let appended = service.stats().wal.records_appended;
            service.save_snapshot().unwrap();
            drop(service); // kill

            let log_only = dir.with_extension("log-only");
            let _ = std::fs::remove_dir_all(&log_only);
            std::fs::create_dir_all(&log_only).unwrap();
            for entry in std::fs::read_dir(&dir).unwrap().map(Result::unwrap) {
                let name = entry.file_name();
                if !name.to_string_lossy().starts_with("snapshot-") {
                    std::fs::copy(entry.path(), log_only.join(name)).unwrap();
                }
            }
            for (from, replayed) in [(&dir, 0), (&log_only, appended)] {
                let restored = RankingService::open_durable(
                    make(which),
                    ServiceConfig::default(),
                    from,
                    FlushPolicy::EveryN(4),
                ).unwrap();
                let wal = restored.stats().wal;
                prop_assert_eq!((wal.records_replayed, wal.records_truncated), (replayed, 0));
                for (&u, want) in users.iter().zip(&want) {
                    let got = restored.rank(u, &docs, docs.len()).unwrap();
                    for (a, b) in want.iter().zip(&got) {
                        prop_assert_eq!(a.doc, b.doc);
                        prop_assert_eq!(
                            a.score.to_bits(), b.score.to_bits(),
                            "engine {}: {} vs {}", restored.engine().name(), a.score, b.score
                        );
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&log_only);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
