//! # capra-bench — benchmark harness shared code
//!
//! Houses the scenario builders reused by the Criterion benches and the
//! `experiments` binary (which regenerates every table and figure of the
//! paper; see this crate's `README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use capra_core::{RuleRepository, ScoringEnv};
use capra_dl::IndividualId;
use capra_tvtouch::generate::{generate, scaling_rules, DbConfig, TvTouchDb};

/// A prepared scaling workload: the TVTouch database plus a rule series.
pub struct ScalingWorkload {
    /// The generated database.
    pub db: TvTouchDb,
    /// Rule repositories for each requested rule count.
    pub rule_sets: Vec<(usize, RuleRepository)>,
}

impl ScalingWorkload {
    /// Builds the workload for the given rule counts over `config`.
    pub fn new(config: DbConfig, rule_counts: &[usize]) -> Self {
        let mut db = generate(config);
        let rule_sets = rule_counts
            .iter()
            .map(|&k| (k, scaling_rules(&mut db, k)))
            .collect();
        Self { db, rule_sets }
    }

    /// The scoring environment for one of the prepared rule sets.
    pub fn env<'a>(&'a self, rules: &'a RuleRepository) -> ScoringEnv<'a> {
        ScoringEnv {
            kb: &self.db.kb,
            rules,
            user: self.db.user,
        }
    }

    /// The candidate documents (all programs).
    pub fn docs(&self) -> &[IndividualId] {
        &self.db.programs
    }
}

/// A small database configuration for micro-benchmarks (keeps `cargo bench`
/// runtimes sane while preserving the cost *shape*).
pub fn bench_db_config() -> DbConfig {
    DbConfig {
        persons: 100,
        programs: 60,
        scaling_features: 16,
        ..DbConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capra_core::{FactorizedEngine, ScoringEngine};

    #[test]
    fn workload_builds_and_scores() {
        let w = ScalingWorkload::new(
            DbConfig {
                persons: 10,
                programs: 8,
                ..capra_tvtouch::generate::DbConfig::tiny()
            },
            &[1, 2],
        );
        for (k, rules) in &w.rule_sets {
            assert_eq!(rules.len(), *k);
            let scores = FactorizedEngine::new()
                .score_all(&w.env(rules), w.docs())
                .unwrap();
            assert_eq!(scores.len(), w.docs().len());
        }
    }
}
