//! A candidate list that names a document twice.
//!
//! The domain packs draw candidates with replacement, so requests repeat a
//! document more often than not. Two contracts cover it, on all four
//! engines:
//!
//! * **scoring** answers per slot — `score_all` returns one score for every
//!   entry of the list, and every slot holding a document gets *that
//!   document's* score;
//! * **ranking** answers per document — `rank`, `rank_top_k` and the
//!   service's `rank` on either side of `k = docs.len()` list each
//!   document once, so top-k stays the exact prefix of the full ranking.
//!
//! Top-k selects the `k` best slots before it sorts them, which a repeat
//! among those `k` cuts short; the properties below draw lists with repeats
//! and featureless documents (whose scores tie) and check every cut. Both
//! sort packed integer keys rather than calling a comparator, so a second
//! property hands the ranking scores chosen to trip a key up — `±0.0`,
//! subnormals, `1.0`, ties across documents — and holds every cut to a
//! comparator sort. `CAPRA_STRESS_ITERS` multiplies their case counts,
//! which CI's stress step sets.

use std::collections::HashMap;
use std::sync::Arc;

use capra::commerce::generate::{flip_rules, generate, CommerceDb, ShopConfig};
use capra::core::{EvalScratch, RuleBinding};
use capra::dl::IndividualId;
use capra::prelude::*;
use proptest::prelude::*;

/// Multiplier on the property's case count (the variable
/// `tests/serve_concurrent.rs` reads): CI's stress step sets it, tier-1
/// runs the base count.
fn stress_iters() -> u32 {
    std::env::var("CAPRA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The tiny shop with every product carrying both uncertain price tags and
/// one brand, so all three kinds of rule reach every product.
fn shop() -> (CommerceDb, RuleRepository) {
    let db = generate(ShopConfig {
        brands: 1,
        premium_rate: 1.0,
        discount_rate: 1.0,
        ..ShopConfig::tiny()
    });
    let rules = flip_rules(&db);
    (db, rules)
}

fn engines() -> Vec<Box<dyn ScoringEngine + Sync>> {
    vec![
        Box::new(NaiveViewEngine::new()),
        Box::new(NaiveEnumEngine::new()),
        Box::new(FactorizedEngine::new()),
        Box::new(LineageEngine::new()),
    ]
}

fn bits(scores: &[DocScore]) -> Vec<(IndividualId, u64)> {
    scores.iter().map(|s| (s.doc, s.score.to_bits())).collect()
}

#[test]
fn every_slot_of_a_repeated_document_gets_its_score() {
    let (db, rules) = shop();
    let env = ScoringEnv {
        kb: &db.kb,
        rules: &rules,
        user: db.shoppers[0],
    };
    let (d, e) = (db.products[0], db.products[1]);
    let oracle = NaiveEnumEngine::new().score_all(&env, &[d, e]).unwrap();
    for engine in engines() {
        let alone = engine.score_all(&env, &[d]).unwrap();
        let listed = engine.score_all(&env, &[d, e, d]).unwrap();
        let docs: Vec<_> = listed.iter().map(|s| s.doc).collect();
        assert_eq!(docs, [d, e, d], "{}: one score per slot", engine.name());
        for slot in [0, 2] {
            assert_eq!(
                listed[slot].score.to_bits(),
                alone[0].score.to_bits(),
                "{}: slot {slot} holds the document's own score",
                engine.name()
            );
        }
        for (got, want) in listed.iter().zip(&oracle) {
            assert!(
                (got.score - want.score).abs() <= 1e-12,
                "{}: {} vs naive {}",
                engine.name(),
                got.score,
                want.score
            );
        }
        assert_ne!(
            listed[0].score.to_bits(),
            listed[1].score.to_bits(),
            "the two products must differ for this test to see a mix-up"
        );
    }
}

#[test]
fn a_ranking_lists_each_document_once_on_both_sides_of_k() {
    let (db, rules) = shop();
    let user = db.shoppers[0];
    let env = ScoringEnv {
        kb: &db.kb,
        rules: &rules,
        user,
    };
    let p = &db.products;
    // Eight slots, five documents.
    let listed = [p[3], p[0], p[3], p[1], p[4], p[0], p[3], p[2]];
    let distinct = [p[3], p[0], p[1], p[4], p[2]];
    let oracle = rank(NaiveEnumEngine::new().score_all(&env, &distinct).unwrap());
    for engine in engines() {
        let name = engine.name();
        let full = rank(engine.score_all(&env, &distinct).unwrap());
        assert_eq!(
            bits(&rank(engine.score_all(&env, &listed).unwrap())),
            bits(&full),
            "{name}: rank over the list is rank over its documents"
        );
        for (got, want) in full.iter().zip(&oracle) {
            assert_eq!(got.doc, want.doc, "{name}: same order as the naive engine");
            assert!((got.score - want.score).abs() <= 1e-12, "{name}");
        }
        let service = RankingService::new(engine, db.kb.clone(), rules.clone());
        // k below the slot count takes the bounded top-k scan, k at or
        // above it the score-cache path; 5..8 is where the two used to
        // disagree (fewer documents than slots).
        for k in 1..=listed.len() + 1 {
            let want = &full[..k.min(full.len())];
            let cold = rank_top_k(&env, service.engine().as_ref(), &listed, k).unwrap();
            assert_eq!(bits(&cold), bits(want), "{name}: rank_top_k, k = {k}");
            let served = service.rank(user, &listed, k).unwrap();
            assert_eq!(bits(&served), bits(want), "{name}: service rank, k = {k}");
        }
    }
}

/// The shop with `featureless` more documents that no rule's view holds —
/// they all score alike and are ranked by id — and the candidate pool:
/// every product, then those documents.
fn shop_with_ties(featureless: usize) -> (CommerceDb, RuleRepository, Vec<IndividualId>) {
    let (mut db, rules) = shop();
    let mut pool = db.products.clone();
    pool.extend((0..featureless).map(|i| db.kb.individual(&format!("plain{i}"))));
    (db, rules, pool)
}

/// For every `k` from 1 to one past the list's length, on all four
/// engines: cold `rank_top_k` and the service's `rank` are the full
/// ranking cut at `k`, in bits and order.
fn assert_every_cut(
    db: &CommerceDb,
    rules: &RuleRepository,
    user: IndividualId,
    listed: &[IndividualId],
) {
    let env = ScoringEnv {
        kb: &db.kb,
        rules,
        user,
    };
    for engine in engines() {
        let name = engine.name();
        let full = rank(engine.score_all(&env, listed).unwrap());
        let service = RankingService::new(engine, db.kb.clone(), rules.clone());
        for k in 1..=listed.len() + 1 {
            let want = bits(&full[..k.min(full.len())]);
            let cold = rank_top_k(&env, service.engine().as_ref(), listed, k).unwrap();
            assert_eq!(bits(&cold), want, "{name}: rank_top_k, k = {k}, {listed:?}");
            let served = service.rank(user, listed, k).unwrap();
            assert_eq!(
                bits(&served),
                want,
                "{name}: service rank, k = {k}, {listed:?}"
            );
        }
    }
}

/// The best document three times over and two others: the two best slots
/// are one document, so the `k = 2` cut needs the rest of the list.
#[test]
fn a_cut_that_repeats_one_document_is_filled_from_the_rest() {
    let (db, rules, pool) = shop_with_ties(2);
    let user = db.shoppers[0];
    let env = ScoringEnv {
        kb: &db.kb,
        rules: &rules,
        user,
    };
    let full = rank(NaiveEnumEngine::new().score_all(&env, &pool).unwrap());
    let (best, next, plain) = (full[0].doc, full[1].doc, pool[pool.len() - 1]);
    let listed = [plain, best, next, best, plain, best];
    assert_every_cut(&db, &rules, user, &listed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24 * stress_iters()))]

    /// Random candidate lists, drawn with replacement from the products
    /// and four featureless documents, for a random shopper.
    #[test]
    fn every_cut_of_a_list_with_repeats_and_ties_is_the_full_rankings_prefix(
        shopper in any::<u16>(),
        draws in prop::collection::vec(any::<u16>(), 1..13),
    ) {
        let (db, rules, pool) = shop_with_ties(4);
        let user = db.shoppers[usize::from(shopper) % db.shoppers.len()];
        let listed: Vec<IndividualId> =
            draws.iter().map(|&d| pool[usize::from(d) % pool.len()]).collect();
        assert_every_cut(&db, &rules, user, &listed);
    }
}

/// An engine whose scores are given: every slot of a document gets the
/// document's, and every document is scored in closed form, so top-k's cut
/// is the only thing between the scores and the answer.
struct Given(HashMap<IndividualId, f64>);

impl ScoringEngine for Given {
    fn name(&self) -> &'static str {
        "given"
    }

    fn score_all_bound(
        &self,
        _: &ScoringEnv<'_>,
        _: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        _: &mut EvalScratch,
    ) -> Result<Vec<DocScore>, CoreError> {
        Ok(docs
            .iter()
            .map(|&doc| DocScore {
                doc,
                score: self.0[&doc],
            })
            .collect())
    }

    fn score_closed_form(
        &self,
        _: &ScoringEnv<'_>,
        _: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        _: &mut EvalScratch,
    ) -> Result<Vec<Option<f64>>, CoreError> {
        Ok(docs.iter().map(|doc| Some(self.0[doc])).collect())
    }
}

/// Scores where a packed key could go wrong: both zeros, subnormals of
/// either sign, `1.0` and its neighbour, and two scores that differ only
/// in their lowest bit.
const EDGE_SCORES: [f64; 8] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 8.0,
    -f64::MIN_POSITIVE / 8.0,
    1.0,
    1.0f64.next_down(),
    0.5,
    0.5f64.next_up(),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64 * stress_iters()))]

    /// `rank`, cold `rank_top_k` at every `k` from 1 to one past the
    /// list's length (the select-then-sort cut below the length, a full
    /// rank at and above it) and the service's `rank` are a comparator sort
    /// of the scores — descending by `total_cmp`, ties by id, each document
    /// once — cut at `k`, on lists that repeat documents and tie scores
    /// across them.
    #[test]
    fn ranking_by_packed_keys_is_the_comparator_sort_at_every_cut(
        per_doc in prop::collection::vec(any::<u8>(), 6..7),
        draws in prop::collection::vec(any::<u8>(), 1..13),
    ) {
        let mut kb = Kb::new();
        let user = kb.individual("user");
        let docs: Vec<IndividualId> =
            (0..per_doc.len()).map(|d| kb.individual(&format!("d{d}"))).collect();
        let given: HashMap<IndividualId, f64> = docs
            .iter()
            .zip(&per_doc)
            .map(|(&doc, &s)| (doc, EDGE_SCORES[usize::from(s) % EDGE_SCORES.len()]))
            .collect();
        let listed: Vec<IndividualId> =
            draws.iter().map(|&d| docs[usize::from(d) % docs.len()]).collect();
        let mut want: Vec<DocScore> =
            listed.iter().map(|&doc| DocScore { doc, score: given[&doc] }).collect();
        want.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        want.dedup_by_key(|s| s.doc);

        let rules = RuleRepository::new();
        let env = ScoringEnv { kb: &kb, rules: &rules, user };
        let engine = Given(given.clone());
        prop_assert_eq!(bits(&rank(engine.score_all(&env, &listed).unwrap())), bits(&want));
        let service = RankingService::new(Given(given), kb.clone(), rules.clone());
        for k in 1..=listed.len() + 1 {
            let cut = bits(&want[..k.min(want.len())]);
            let cold = rank_top_k(&env, &engine, &listed, k).unwrap();
            prop_assert_eq!(bits(&cold), cut.clone(), "rank_top_k, k = {}", k);
            let served = service.rank(user, &listed, k).unwrap();
            prop_assert_eq!(bits(&served), cut, "service rank, k = {}", k);
        }
    }
}
