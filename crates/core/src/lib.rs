//! # capra-core — context-aware preference ranking
//!
//! The primary contribution of *"Ranking Query Results using Context-Aware
//! Preferences"* (van Bunningen, Fokkinga, Apers, Feng — ICDE 2007),
//! reimplemented as a library:
//!
//! * [`PreferenceRule`] / [`RuleRepository`] — scored preference rules
//!   `(Context, Preference, σ)` over DL concepts, with a text format;
//! * [`Kb`] — the knowledge base (documents, context facts, uncertainty);
//! * four [`ScoringEngine`]s computing `P(D=d | U=usit)` — the probability
//!   that a document is the user's *ideal document* in the current context
//!   (see [`engines`] for the comparison table):
//!   [`NaiveViewEngine`] (the paper's Section 5 implementation),
//!   [`NaiveEnumEngine`], [`FactorizedEngine`], [`LineageEngine`];
//! * [`explain`] — per-rule score breakdowns (the traceability goal);
//! * [`history`] — history logs and σ-mining with the paper's exact
//!   semantics (Discussion: *mining/learning preferences*);
//! * [`multiuser`] — group aggregation (Discussion: *modeling multiple
//!   users*);
//! * [`ranking`] — the `preferencescore` SQL integration of the paper's
//!   introduction;
//! * [`ScoringSession`] — prepared scoring: cached rule bindings
//!   (invalidated by KB epoch) and cached scores across repeated calls;
//! * [`rank_top_k`] — `LIMIT`-shaped ranking in two phases: closed-form
//!   documents ranked outright, early termination over the rest;
//! * [`serve`] — the multi-tenant [`RankingService`]: LRU-capped per-user
//!   sessions with typed requests and a batching queue. Concurrency lives
//!   here, *between* requests — one lock per tenant shard — never inside
//!   one;
//! * [`persist`] — durability: a versioned binary codec for KB and rule
//!   snapshots and a checksummed, segmented context-event WAL with
//!   opt-in covered-prefix compaction ([`CompactionPolicy`]),
//!   powering `RankingService::open_durable` crash recovery and
//!   read-only [`ReplicaService`] followers.
//!
//! ## The worked example (paper Section 4.2)
//!
//! ```
//! use capra_core::{
//!     FactorizedEngine, Kb, PreferenceRule, RuleRepository, Score, ScoringEngine, ScoringEnv,
//! };
//!
//! let mut kb = Kb::new();
//! let peter = kb.individual("peter");
//! kb.assert_concept(peter, "Weekend");
//! kb.assert_concept(peter, "Breakfast");
//!
//! let ch5 = kb.individual("Channel 5 news");
//! kb.assert_concept(ch5, "TvProgram");
//! let hi = kb.individual("HUMAN-INTEREST");
//! let wb = kb.individual("WeatherBulletin");
//! kb.assert_role_prob(ch5, "hasGenre", hi, 0.95).unwrap();
//! kb.assert_role_prob(ch5, "hasSubject", wb, 0.85).unwrap();
//!
//! let mut rules = RuleRepository::new();
//! rules.add(PreferenceRule::new(
//!     "R1",
//!     kb.parse("Weekend").unwrap(),
//!     kb.parse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}").unwrap(),
//!     Score::new(0.8).unwrap(),
//! )).unwrap();
//! rules.add(PreferenceRule::new(
//!     "R2",
//!     kb.parse("Breakfast").unwrap(),
//!     kb.parse("TvProgram AND EXISTS hasSubject.{WeatherBulletin}").unwrap(),
//!     Score::new(0.9).unwrap(),
//! )).unwrap();
//!
//! let env = ScoringEnv { kb: &kb, rules: &rules, user: peter };
//! let score = FactorizedEngine::new().score(&env, ch5).unwrap().score;
//! assert!((score - 0.6006).abs() < 1e-12); // the paper's number
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bind;
pub mod compile;
pub mod engines;
mod error;
mod explain;
mod hash;
pub mod history;
mod kb;
pub mod multiuser;
pub mod persist;
pub mod ranking;
mod repository;
mod rule;
pub mod serve;
mod session;
pub mod smoothing;
mod topk;

pub use bind::{bind_rules, bind_rules_shared, RuleBinding, ScoringEnv};
pub use engines::{
    rank, CorrelationPolicy, DocScore, EvalScratch, FactorizedEngine, LineageEngine,
    NaiveEnumEngine, NaiveViewEngine, ScoringEngine,
};
pub use error::CoreError;
pub use explain::{explain, Explanation, RuleContribution};
pub use history::{Episode, HistoryLog, MinedRule, Offer};
pub use kb::Kb;
pub use multiuser::{group_scores, score_group, GroupStrategy};
pub use persist::{
    CompactionPolicy, FlushPolicy, PersistError, WalStats, Workload, WorkloadFact, WorkloadMeta,
    WorkloadRecord,
};
pub use repository::RuleRepository;
pub use rule::{PreferenceRule, Score};
pub use serve::{
    replay_workload, workload_service, QueueConfig, QueueStats, RankingService, ReplayReport,
    ReplicaService, ReplicaStats, ServiceConfig, ServiceHandle, ServiceQueue, ServiceStats,
    SharedSnapshot, Ticket,
};
pub use session::{CacheStats, ScoringSession, SessionStats};
pub use smoothing::{blend, QueryRelevance, Smoothing};
pub use topk::{rank_top_k, rank_top_k_bound};

// Re-exported from `capra_events`: the footprint report in
// [`SessionStats`] and the batch counters sessions surface alongside it.
pub use capra_events::{BatchStats, CacheFootprint};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
