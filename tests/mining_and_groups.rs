//! Mining + multi-user integration: from simulated history to rules to a
//! group ranking — the two future-work items of the paper, composed.

use capra::prelude::*;
use capra::tvtouch::history_sim::{simulate, GroundTruth, SimConfig};

#[test]
fn mined_rules_feed_the_scoring_pipeline() {
    // 1. Simulate a user with known σ values.
    let ground_truth = vec![
        GroundTruth::new("Morning", "Traffic", 0.8),
        GroundTruth::new("Morning", "Weather", 0.6),
    ];
    let log = simulate(&ground_truth, 5000, &SimConfig::default());

    // 2. Mine and convert to rules against a KB whose docs carry the
    //    mined feature labels as concepts.
    let mut kb = Kb::new();
    let user = kb.individual("u");
    kb.assert_concept(user, "Morning");
    let traffic_doc = kb.individual("traffic-doc");
    let weather_doc = kb.individual("weather-doc");
    let other_doc = kb.individual("other-doc");
    kb.assert_concept(traffic_doc, "Traffic");
    kb.assert_concept(weather_doc, "Weather");
    kb.assert_concept(other_doc, "Sitcom");

    let mut rules = RuleRepository::new();
    for m in log.mine(500) {
        if m.sigma == 0.0 {
            continue;
        }
        let context = kb.parse(&m.context_feature).unwrap();
        let preference = kb.parse(&m.doc_feature).unwrap();
        rules
            .add(PreferenceRule::new(
                format!("mined-{}-{}", m.context_feature, m.doc_feature),
                context,
                preference,
                Score::new(m.sigma).unwrap(),
            ))
            .unwrap();
    }
    assert!(rules.len() >= 2, "both pairs mined");

    // 3. Score: the traffic doc must beat weather, which beats the rest —
    //    matching the ground-truth ordering 0.8 > 0.6.
    let env = ScoringEnv {
        kb: &kb,
        rules: &rules,
        user,
    };
    let ranked = rank(
        LineageEngine::new()
            .score_all(&env, &[traffic_doc, weather_doc, other_doc])
            .unwrap(),
    );
    assert_eq!(ranked[0].doc, traffic_doc);
    assert_eq!(ranked[1].doc, weather_doc);
    assert_eq!(ranked[2].doc, other_doc);
}

#[test]
fn group_ranking_over_paper_scenario() {
    // Peter (the paper's user) + a news-lover watching together.
    let scenario = capra::tvtouch::scenario::paper_scenario();
    let env = scenario.env();
    let peter_scores = FactorizedEngine::new()
        .score_all(&env, &scenario.programs)
        .unwrap();

    // Second user: loves weather bulletins, always.
    let mut kb2 = Kb::new();
    let ling = kb2.individual("Ling");
    // Rebuild the same programs in Ling's KB (names shared through labels).
    let mut docs2 = Vec::new();
    for &p in &scenario.programs {
        let name = scenario.kb.voc.individual_name(p);
        let d = kb2.individual(name);
        kb2.assert_concept(d, "TvProgram");
        docs2.push(d);
    }
    let weather = kb2.individual("WeatherBulletin");
    kb2.assert_role(docs2[1], "hasSubject", weather); // BBC news
    kb2.assert_role_prob(docs2[2], "hasSubject", weather, 0.85)
        .unwrap(); // Channel 5
    let mut rules2 = RuleRepository::new();
    rules2
        .add(PreferenceRule::default_rule(
            "ling-weather",
            kb2.parse("TvProgram AND EXISTS hasSubject.{WeatherBulletin}")
                .unwrap(),
            Score::new(0.95).unwrap(),
        ))
        .unwrap();
    let env2 = ScoringEnv {
        kb: &kb2,
        rules: &rules2,
        user: ling,
    };
    let ling_scores_raw = FactorizedEngine::new().score_all(&env2, &docs2).unwrap();
    // Map Ling's docs back onto Peter's individuals (same order).
    let ling_scores: Vec<DocScore> = ling_scores_raw
        .iter()
        .zip(&scenario.programs)
        .map(|(s, &doc)| DocScore {
            doc,
            score: s.score,
        })
        .collect();

    let per_user = vec![peter_scores, ling_scores];
    let product = rank(group_scores(&per_user, &GroupStrategy::Product).unwrap());
    // Channel 5 news satisfies both (human interest for Peter, weather for
    // Ling) and must win under every strategy.
    for strategy in [
        GroupStrategy::Product,
        GroupStrategy::average(2),
        GroupStrategy::LeastMisery,
    ] {
        let combined = rank(group_scores(&per_user, &strategy).unwrap());
        assert_eq!(
            scenario.kb.voc.individual_name(combined[0].doc),
            "Channel 5 news",
            "strategy {strategy:?}"
        );
    }
    // Product scores stay probabilities.
    assert!(product.iter().all(|s| (0.0..=1.0).contains(&s.score)));
}
