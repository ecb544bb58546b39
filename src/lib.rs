//! # CAPRA — Context-Aware Preference RAnking
//!
//! A production-quality Rust reproduction of *"Ranking Query Results using
//! Context-Aware Preferences"* (Arthur H. van Bunningen, Maarten M.
//! Fokkinga, Peter M.G. Apers, Ling Feng — ICDE 2007).
//!
//! The paper scores database query results by the probability that each
//! tuple is the user's *ideal document* in the current context, derived
//! from **scored preference rules** `(Context, Preference, σ)` over
//! Description Logic concepts, with sensor-grade uncertainty captured by
//! **event expressions**. This workspace rebuilds the entire stack:
//!
//! | crate | role |
//! |-------|------|
//! | [`events`] | probabilistic event expressions, exact inference |
//! | [`dl`] | DL concepts/roles, parser, TBox, lineage-propagating reasoner |
//! | [`reldb`] | in-memory relational engine with lineage + SQL dialect |
//! | [`core`] | the paper's model: rules, four scoring engines, sessions, the serving layer, mining, … |
//! | [`tvtouch`] | the TVTouch domain, paper scenarios, workload generators |
//! | [`commerce`] | commerce-search domain pack: contexts that flip price/brand preferences |
//! | [`teamctx`] | group-context domain pack: conflicting members ranked jointly |
//!
//! `ARCHITECTURE.md` at the workspace root maps the whole stack — the
//! layer diagram, the cache hierarchy and its epoch/eviction semantics,
//! and a request-time walkthrough.
//!
//! ## Quickstart
//!
//! ```
//! use capra::prelude::*;
//!
//! // The paper's worked example, one call away:
//! let scenario = capra::tvtouch::scenario::paper_scenario();
//! let scores = FactorizedEngine::new()
//!     .score_all(&scenario.env(), &scenario.programs)
//!     .unwrap();
//! assert!((scores[2].score - 0.6006).abs() < 1e-12); // Channel 5 news
//! ```
//!
//! Serving many users is one [`prelude::RankingService`]: per-tenant
//! cached sessions (LRU-capped), typed `rank`/`rank_group`/`assert`
//! requests and a batching queue.
//! Opened durable (`open_durable`), the service journals every mutation
//! to a checksummed, segmented WAL and checkpoints snapshots — with
//! opt-in compaction deleting snapshot-covered prefix segments — so a
//! crash restarts warm with bit-identical scores, and read-only
//! [`prelude::ReplicaService`] followers can tail the same directory.
//!
//! See `examples/` for runnable walkthroughs (quickstart, the TVTouch
//! morning scenario, correlated smart-home context, preference mining from
//! history, group TV, end-to-end SQL ranking, the multi-tenant serving
//! loop in `examples/serving.rs`, and crash recovery in
//! `examples/warm_restart.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use capra_commerce as commerce;
pub use capra_core as core;
pub use capra_dl as dl;
pub use capra_events as events;
pub use capra_reldb as reldb;
pub use capra_teamctx as teamctx;
pub use capra_tvtouch as tvtouch;

/// The most common imports in one place.
pub mod prelude {
    pub use capra_core::serve::{Fact, Request, Response};
    pub use capra_core::{
        bind_rules, bind_rules_shared, explain, group_scores, rank, rank_top_k, score_group,
        BatchStats, CacheFootprint, CacheStats, CompactionPolicy, CoreError, CorrelationPolicy,
        DocScore, Episode, Explanation, FactorizedEngine, FlushPolicy, GroupStrategy, HistoryLog,
        Kb, LineageEngine, MinedRule, NaiveEnumEngine, NaiveViewEngine, Offer, PersistError,
        PreferenceRule, QueueConfig, QueueStats, RankingService, ReplayReport, ReplicaService,
        ReplicaStats, RuleRepository, Score, ScoringEngine, ScoringEnv, ScoringSession,
        ServiceConfig, ServiceHandle, ServiceQueue, ServiceStats, SessionStats, SharedSnapshot,
        WalStats, Workload, WorkloadFact, WorkloadMeta, WorkloadRecord,
    };
    pub use capra_core::{replay_workload, workload_service};
    pub use capra_dl::{parse_concept, ABox, Concept, Reasoner, TBox, Vocabulary};
    pub use capra_events::{Evaluator, EventExpr, Universe};
    pub use capra_reldb::{Catalog, Database, Datum, Executor, Plan, Relation};
}
