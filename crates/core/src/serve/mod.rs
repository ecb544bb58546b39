//! The serving layer — a multi-tenant [`RankingService`] owning the
//! per-user session lifecycle that PRs 1–4 left to callers.
//!
//! The paper's scenario is many users, each with their own context-aware
//! preference rules and a stream of context switches, ranking a shared
//! candidate set (TV programs, query results). The core crate gives each
//! *caller* fast machinery for that — [`crate::ScoringSession`] for the
//! repeat-call warm path — but a production front-end would have to hand-assemble it per user and
//! invent its own eviction story for the session map itself. This module
//! owns that lifecycle:
//!
//! * **Tenancy** — one [`RankingService`] serves any number of users
//!   ("tenants"). Per-tenant state (rule-binding cache, score cache and
//!   batch counters) lives in a sharded map, LRU-capped by
//!   [`ServiceConfig::max_sessions`]: evicting a tenant only costs that
//!   tenant a deterministic re-derivation on their next request, never a
//!   changed score.
//! * **No kept memos** — what a document brings to every tenant is kept
//!   once, in the KB's feature rows, and a context's probability on the
//!   tenant's binding; an entangled document's exact evaluation is its
//!   engine call's own, dropped when the call returns. So a tenant's
//!   memory holds no evaluation memo, however often context changes.
//! * **Typed requests** — [`RankingService::rank`],
//!   [`RankingService::rank_group`] and [`RankingService::assert`] cover
//!   the three request shapes of the paper's serving story (one user ranks,
//!   a group ranks together, a context switch arrives), and
//!   [`RankingService::submit`] answers a [`Request`] batch in order, each
//!   request through the matching one of the three.
//! * **Concurrency** — the whole serving surface takes `&self`:
//!   [`RankingService`] is `Sync`, so any number of request threads share
//!   one service directly (`Arc` or `thread::scope`). The KB and rules are
//!   *epoch-published*: a request that binds or scores grabs an immutable
//!   [`SharedSnapshot`] (two `Arc` bumps) and never sees a half-applied
//!   write, and a full-page rank whose tenant's mark is the published
//!   sequence — which only a publish that moves the KB's epoch or the
//!   rules moves — grabs none and answers from its score entry; tenant sessions live
//!   behind per-shard locks so disjoint tenants rank in parallel — the
//!   only parallelism there is: a request runs on the thread that made it
//!   and never forks; all mutation ([`RankingService::assert`], rule
//!   edits, durability) is serialized behind one writer lock that
//!   publishes the next snapshot atomically. See "Concurrency & locking
//!   order" in `ARCHITECTURE.md` for the lock hierarchy and the in-place
//!   writer fast path.
//! * **Batching front-end** — [`ServiceQueue`] puts a bounded MPSC queue
//!   in front of a shared service: producers [`ServiceHandle::enqueue`]
//!   typed [`Request`]s (backpressure via [`ServiceHandle::try_enqueue`])
//!   and each gets a [`Ticket`] to [`Ticket::wait`] on. No thread of its
//!   own drains it: whichever caller needs a result while no drain is in
//!   progress runs the next batch, in arrival order, through
//!   [`RankingService::submit`], so one wait can answer several
//!   producers' requests.
//! * **Observability** — [`RankingService::stats`] aggregates every
//!   tenant's [`crate::SessionStats`] (plus counters retired with evicted
//!   tenants) into a [`ServiceStats`]: sessions live/evicted, warm/cold hit
//!   rates, shard-lock acquisition counts, queue depth/throughput
//!   ([`QueueStats`]), and the engines' batch counters
//!   ([`capra_events::BatchStats`]).
//! * **Replication** — a [`ReplicaService`] opens a durable writer's
//!   directory read-only, restores the newest snapshot, and tails the
//!   segmented WAL incrementally ([`ReplicaService::poll`]) — serving
//!   warm, bit-identical ranking at the epoch it has reached while the
//!   one writer retains full ownership of the files (see the
//!   [`ReplicaService`] docs for the degradation contract).
//!
//! Everything here is behaviour-preserving plumbing: a service request
//! computes bit-identical scores to a cold [`crate::bind_rules`] +
//! `score_all` for the same user (property-tested in
//! `tests/serve_consistency.rs`), because every layer it reuses already
//! holds that contract.
//!
//! See `ARCHITECTURE.md` at the workspace root for where this layer sits in
//! the stack and a request-time walkthrough.

mod queue;
mod replay;
mod replica;
mod request;
mod service;
mod tenants;

pub use queue::{QueueConfig, QueueStats, ServiceHandle, ServiceQueue, Ticket};
pub use replay::{replay_workload, workload_service, ReplayReport};
pub use replica::{ReplicaService, ReplicaStats};
pub use request::{Fact, Request, Response};
pub use service::{RankingService, ServiceConfig, ServiceStats, SharedSnapshot};
