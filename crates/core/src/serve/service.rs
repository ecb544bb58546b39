//! The [`RankingService`] itself: request execution over the tenant map.
//!
//! # Concurrency model
//!
//! The service is shared by reference: every request path takes `&self`,
//! so one `RankingService` (or an `Arc` of it) serves any number of
//! threads. Three mechanisms carry that:
//!
//! * **Epoch-published reads.** The KB and rule repository live behind a
//!   [`SharedSnapshot`] — a pair of `Arc`s republished atomically as a
//!   unit, with a *publish sequence* that moves whenever the KB's epoch
//!   or the rules do. A request that must bind or score loads one
//!   snapshot and scores against that immutable state for its whole
//!   lifetime; writers clone-mutate-publish, never touching a snapshot a
//!   reader may hold. (The clone preserves the KB's identity — see
//!   [`Kb::clone_for_publish`] — so every `(kb_id, epoch)`-keyed cache
//!   survives a publish.) A full-page rank whose tenant's mark is the
//!   published sequence loads no snapshot at all: one atomic load, and
//!   its score entry answers.
//! * **Sharded tenant locks.** Per-tenant cache state is reached only
//!   through [`TenantSessions::with_session`], which locks exactly the
//!   tenant's shard: different-shard requests run in parallel, same-user
//!   requests serialize. No writer takes a shard lock.
//! * **One writer lock.** Mutations (asserts, rule edits, registration,
//!   snapshots) serialize behind `writer`, which also owns the WAL — the
//!   publish order *is* the log order, so durability semantics are
//!   unchanged from the single-owner service.
//!
//! Lock order is `writer → shard → published slot` (leaf stat mutexes
//! last); no path acquires against that order. A mutation takes
//! the writer and then the published slot, and no shard: only a snapshot
//! save walks the shards under the writer. See "Concurrency & locking
//! order" in `ARCHITECTURE.md` for the full walkthrough.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use capra_dl::{Concept, IndividualId};

use crate::engines::{rank, DocScore, ScoringEngine};
use crate::multiuser::{group_scores, GroupStrategy};
use crate::persist::compact::{covered_prefix, delete_segments};
use crate::persist::snapshot::encode_snapshot;
use crate::persist::wal::{replay, Applied, SegmentLimit, Wal, WalOp};
use crate::persist::{
    recover, snapshot_paths, sync_dir, CompactionPolicy, FlushPolicy, PersistError, Recovered,
    WalStats,
};
use crate::serve::queue::QueueStats;
use crate::serve::request::{Fact, Request, Response};
use crate::serve::tenants::TenantSessions;
use crate::session::SessionStats;
use crate::{Kb, PreferenceRule, Result, RuleRepository, ScoringEnv};

/// The persistence attachment of a durable service.
struct DurableState {
    /// Directory holding `wal-<first_seq>.log` segments and
    /// `snapshot-<seq>.snap` files.
    dir: PathBuf,
    /// The open write-ahead log.
    wal: Wal,
}

/// A consistent, immutable view of the knowledge base and rule
/// repository, published as a unit — the read layer of the concurrent
/// service.
///
/// Readers obtain one via [`RankingService::snapshot`] (a request that
/// binds or scores loads its own internally) and hold it for the request's
/// lifetime: a concurrent assert publishes a *successor* snapshot and
/// never mutates this one, so scores computed against it are exactly the
/// scores of the service state at load time. Cloning is two `Arc` bumps.
/// A warm full-page rank loads none: it compares its tenant's mark with
/// the published sequence.
///
/// The replica layer serves from the same type: a
/// [`crate::serve::ReplicaService`] exposes the epoch it has replayed up
/// to through the identical snapshot-load path.
#[derive(Clone)]
pub struct SharedSnapshot {
    kb: Arc<Kb>,
    rules: Arc<RuleRepository>,
    /// The publish sequence: moved by every publish that moves the KB's
    /// epoch or changes the rules, so two snapshots with one sequence bind
    /// every user alike.
    seq: u64,
}

impl SharedSnapshot {
    /// The knowledge base at the time this snapshot was loaded.
    pub fn kb(&self) -> &Kb {
        &self.kb
    }

    /// The rule repository at the time this snapshot was loaded.
    pub fn rules(&self) -> &RuleRepository {
        &self.rules
    }

    /// The binding epoch of the snapshot's KB (ABox + TBox movements) —
    /// while it stands still, every cached binding is valid as it is.
    pub fn binding_epoch(&self) -> u64 {
        self.kb.binding_epoch()
    }

    /// A scoring environment for `user` over this snapshot.
    pub(crate) fn env(&self, user: IndividualId) -> ScoringEnv<'_> {
        ScoringEnv {
            kb: &self.kb,
            rules: &self.rules,
            user,
        }
    }
}

/// The published snapshot's sequence, stored with `Release` by the writer
/// that moves it — under the published slot's lock, or owning the service
/// — and loaded with `Acquire`.
#[derive(Default)]
struct Sequence(AtomicU64);

impl Sequence {
    /// Moves `published`'s sequence on and stores it.
    fn advance(&self, published: &mut SharedSnapshot) {
        published.seq += 1;
        self.0.store(published.seq, Ordering::Release);
    }

    /// The published snapshot's sequence.
    fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// The mark of a tenant just bound against `snap`: its sequence if
    /// `snap` is still the published snapshot, else none.
    fn mark(&self, snap: &SharedSnapshot) -> Option<u64> {
        (snap.seq == self.load()).then_some(snap.seq)
    }
}

/// Sizing and durability settings of a [`RankingService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shards the tenant map is partitioned into (≥ 1). Each shard has
    /// its own lock, so shards are the unit of tenant-level concurrency:
    /// requests for users in different shards proceed in parallel.
    pub shards: usize,
    /// Maximum live tenant sessions across all shards (≥ 1), none evicted
    /// below it; at the cap an insert evicts its shard's least-recently-used
    /// tenant (or the next such shard's, if its own is empty). Eviction only
    /// forces a deterministic re-derivation on the tenant's next request.
    pub max_sessions: usize,
    /// Accepted and ignored since PR 20; deleted once the benchmark stops
    /// setting it. Nothing reads it: a request runs on its caller's
    /// thread, and concurrency is between requests (one lock per tenant
    /// shard).
    pub threads: usize,
    /// Snapshots kept on disk after [`RankingService::save_snapshot`]
    /// prunes (newest first; clamped ≥ 1, and ≥ 2 when `compaction` is
    /// enabled — the compaction invariant needs two covering snapshots).
    pub snapshot_retain: usize,
    /// Byte threshold after which the active WAL segment is sealed and a
    /// fresh one started (see [`crate::WalStats::rotations`]).
    pub segment_bytes: u64,
    /// Record-count threshold for segment rotation (`u64::MAX` = bytes
    /// only).
    pub segment_records: u64,
    /// Whether [`RankingService::save_snapshot`] deletes covered WAL
    /// prefix segments afterwards (see [`CompactionPolicy`]; default
    /// `Never` keeps the whole log as the authoritative history).
    pub compaction: CompactionPolicy,
}

impl Default for ServiceConfig {
    /// Eight shards, 1024 live sessions, two retained snapshots, 8 MiB WAL
    /// segments, and no compaction.
    fn default() -> Self {
        Self {
            shards: 8,
            max_sessions: 1024,
            threads: 1,
            snapshot_retain: 2,
            segment_bytes: 8 * 1024 * 1024,
            segment_records: u64::MAX,
            compaction: CompactionPolicy::Never,
        }
    }
}

/// Service-wide counters, aggregated from every tenant's
/// [`SessionStats`] (live tenants plus counters retired with evicted
/// ones) and the concurrency layers (shard locks, and the batching queue
/// when one is attached).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Tenant sessions currently live.
    pub sessions_live: usize,
    /// Tenant sessions evicted by the LRU cap so far.
    pub sessions_evicted: u64,
    /// `rank`/`rank_group` requests *received* (batched or direct),
    /// whether they succeeded or returned an error — the denominator for
    /// request-level error rates. Each is counted under the shard lock it
    /// takes (a group's under its first member's).
    pub rank_requests: u64,
    /// Facts *successfully recorded* (batched or direct); rejected facts
    /// (e.g. an invalid probability) mutate nothing and do not count.
    pub asserts: u64,
    /// Tenant-shard lock acquisitions by requests, summed over shards
    /// (the per-shard breakdown is [`RankingService::shard_lock_counts`]).
    /// A single-user request takes one lock, first sight or warm, a group
    /// one per member; more flags evictions at the cap from an empty
    /// shard, which lock the next shards for a victim. `stats` counts its
    /// own walk of the shards.
    pub shard_lock_acquisitions: u64,
    /// Counters of the batching front-end queue (all zero for a service
    /// driven directly; populated by
    /// [`ServiceQueue::stats`](crate::serve::ServiceQueue::stats)).
    pub queue: QueueStats,
    /// Component-wise total of every tenant's [`SessionStats`] — binding
    /// and score cache traffic with [`crate::CacheStats::hit_rate`]s, and
    /// batch counters — retired tenants' included. No tenant keeps an
    /// evaluation memo, so its [`SessionStats::footprint`] is zero.
    pub sessions: SessionStats,
    /// Write-ahead-log traffic: records/bytes appended since the service
    /// opened (or was last cleared), and — from the last recovery —
    /// records replayed and records lost to torn or corrupt log suffixes.
    /// All zero for a service that was not opened with
    /// [`RankingService::open_durable`].
    pub wal: WalStats,
}

impl std::ops::Add for ServiceStats {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            sessions_live: self.sessions_live + rhs.sessions_live,
            sessions_evicted: self.sessions_evicted + rhs.sessions_evicted,
            rank_requests: self.rank_requests + rhs.rank_requests,
            asserts: self.asserts + rhs.asserts,
            shard_lock_acquisitions: self.shard_lock_acquisitions + rhs.shard_lock_acquisitions,
            queue: self.queue + rhs.queue,
            sessions: self.sessions + rhs.sessions,
            wal: self.wal + rhs.wal,
        }
    }
}

impl std::iter::Sum for ServiceStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), std::ops::Add::add)
    }
}

/// A multi-tenant ranking front-end: one engine, one knowledge base, one
/// rule repository, any number of users — each with an LRU-capped cached
/// session. Every request
/// path takes `&self`, so one service instance (or an `Arc` of it — see
/// [`crate::serve::ServiceQueue`]) serves any number of threads
/// concurrently. See the [module docs](crate::serve) for the design.
///
/// ```
/// use capra_core::serve::{Fact, RankingService};
/// use capra_core::{FactorizedEngine, Kb, PreferenceRule, RuleRepository, Score};
///
/// let mut kb = Kb::new();
/// let peter = kb.individual("peter");
/// let mary = kb.individual("mary");
/// kb.assert_concept_prob(peter, "Weekend", 0.7).unwrap();
/// let docs: Vec<_> = (0..8)
///     .map(|i| {
///         let d = kb.individual(&format!("doc{i}"));
///         kb.assert_concept_prob(d, "Nice", 0.1 + 0.1 * i as f64).unwrap();
///         d
///     })
///     .collect();
/// let mut rules = RuleRepository::new();
/// rules.add(PreferenceRule::new(
///     "R",
///     kb.parse("Weekend").unwrap(),
///     kb.parse("Nice").unwrap(),
///     Score::new(0.8).unwrap(),
/// )).unwrap();
///
/// let service = RankingService::new(FactorizedEngine::new(), kb, rules);
/// // Two tenants rank the same candidates; each gets their own session.
/// let cold = service.rank(peter, &docs, 3).unwrap();
/// let _ = service.rank(mary, &docs, 3).unwrap();
/// let warm = service.rank(peter, &docs, 3).unwrap(); // served from caches
/// assert_eq!(cold[0].doc, warm[0].doc);
/// assert_eq!(service.stats().sessions_live, 2);
///
/// // A context switch invalidates exactly what it touched, tenant by
/// // tenant: Peter's page moves (re-asserting disjoins a fresh event, so
/// // the Weekend probability rises), and Mary's full page is answered
/// // from her score entry, since nothing of hers moved.
/// let page = service.rank(mary, &docs, docs.len()).unwrap();
/// service.assert(peter, Fact::ConceptProb("Weekend".into(), 0.3)).unwrap();
/// let shifted = service.rank(peter, &docs, 3).unwrap();
/// assert_ne!(shifted[0].score.to_bits(), warm[0].score.to_bits());
/// assert_eq!(service.rank(mary, &docs, docs.len()).unwrap(), page);
/// ```
pub struct RankingService<E> {
    engine: E,
    /// The epoch-published read state. A request that binds or scores
    /// clones it out (two `Arc` bumps; a warm page reads only `seq`) and
    /// never holds this lock while scoring; writers replace it under
    /// `writer`.
    published: Mutex<SharedSnapshot>,
    /// `published`'s sequence: a full-page rank loads it and answers from
    /// its tenant's score entry while the tenant's mark equals it.
    seq: Sequence,
    /// Snapshots loaded so far.
    #[cfg(test)]
    loads: AtomicU64,
    tenants: TenantSessions,
    asserts: AtomicU64,
    /// Serializes all mutations, and so owns the WAL — append order is
    /// publish order: `Some` when the service was opened with
    /// [`RankingService::open_durable`], and mutations then append to it.
    writer: Mutex<Option<DurableState>>,
    /// WAL traffic counters surfaced via [`ServiceStats::wal`] — a leaf
    /// mutex, only ever taken last.
    wal_stats: Mutex<WalStats>,
    /// Snapshots [`RankingService::save_snapshot`] keeps (clamped from
    /// [`ServiceConfig::snapshot_retain`]).
    snapshot_retain: usize,
    /// Whether snapshots compact the covered WAL prefix afterwards.
    compaction: CompactionPolicy,
}

impl<E: ScoringEngine + Sync> RankingService<E> {
    /// A service over `engine`, `kb` and `rules` with the default
    /// [`ServiceConfig`].
    pub fn new(engine: E, kb: Kb, rules: RuleRepository) -> Self {
        Self::with_config(engine, kb, rules, ServiceConfig::default())
    }

    /// A service with explicit sizing and durability settings.
    pub fn with_config(engine: E, kb: Kb, rules: RuleRepository, config: ServiceConfig) -> Self {
        let retain_floor = match config.compaction {
            CompactionPolicy::Never => 1,
            // Compaction deletes segments covered by the two newest
            // snapshots; retaining fewer would delete a snapshot the
            // invariant still leans on.
            CompactionPolicy::Covered => 2,
        };
        Self {
            engine,
            published: Mutex::new(SharedSnapshot {
                kb: Arc::new(kb),
                rules: Arc::new(rules),
                seq: 0,
            }),
            seq: Sequence::default(),
            #[cfg(test)]
            loads: AtomicU64::new(0),
            tenants: TenantSessions::new(config.shards, config.max_sessions),
            asserts: AtomicU64::new(0),
            writer: Mutex::new(None),
            wal_stats: Mutex::new(WalStats::default()),
            snapshot_retain: config.snapshot_retain.max(retain_floor),
            compaction: config.compaction,
        }
    }

    /// Opens a *durable* service backed by `dir`: recovers the newest
    /// valid snapshot (if any), replays the WAL suffix, and keeps the log
    /// open so every subsequent mutation is persisted under `flush`.
    ///
    /// Recovery is deliberately forgiving: a corrupt or truncated snapshot
    /// falls back to the next older one (or a cold start — the WAL keeps
    /// the full mutation history, so no durable state is lost either way),
    /// and a torn, bit-flipped or otherwise invalid WAL record truncates
    /// the log back to the last valid prefix instead of failing. The
    /// replayed/dropped record counts surface in [`ServiceStats::wal`].
    ///
    /// Post-recovery scores are bit-identical to the uninterrupted run:
    /// names re-intern in the original order, probabilities travel as raw
    /// bits, and the KB epoch stamped on every record is re-checked during
    /// replay. Tenants that were live at snapshot time have their rule
    /// bindings re-derived at boot, so their first post-restart rank pays
    /// no cold bind.
    ///
    /// ```
    /// use capra_core::serve::{Fact, RankingService};
    /// use capra_core::{FlushPolicy, LineageEngine};
    ///
    /// let dir = std::env::temp_dir().join(format!("capra-doc-{}", std::process::id()));
    /// std::fs::remove_dir_all(&dir).ok();
    /// let service = RankingService::open_durable(
    ///     LineageEngine::new(), Default::default(), &dir, FlushPolicy::EveryRecord).unwrap();
    /// let peter = service.individual("peter");
    /// service.assert(peter, Fact::ConceptProb("Weekend".into(), 0.7)).unwrap();
    /// let epoch = service.kb().epoch();
    /// drop(service); // "crash"
    ///
    /// let restored = RankingService::open_durable(
    ///     LineageEngine::new(), Default::default(), &dir, FlushPolicy::EveryRecord).unwrap();
    /// assert_eq!(restored.kb().epoch(), epoch);
    /// assert_eq!(restored.stats().wal.records_replayed, 2);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn open_durable(
        engine: E,
        config: ServiceConfig,
        dir: impl AsRef<Path>,
        flush: FlushPolicy,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(PersistError::from)?;

        let recovered = recover(&dir)?;

        // Physically drop segments past the valid chain (the segmented
        // equivalent of truncating the invalid suffix), then reopen the
        // active segment for appending — truncated to the chain's end —
        // or start a fresh one.
        for path in &recovered.resume.delete {
            std::fs::remove_file(path).map_err(PersistError::from)?;
            sync_dir(&dir).map_err(PersistError::from)?;
        }
        let wal = Wal::open_dir(
            &dir,
            flush,
            recovered.next_seq,
            recovered.resume.active,
            SegmentLimit {
                max_bytes: config.segment_bytes.max(1),
                max_records: config.segment_records.max(1),
            },
        )?;

        let mut service = Self::with_config(engine, Kb::new(), RuleRepository::new(), config);
        service.reinstall(recovered);
        *service.writer.get_mut().expect("writer lock poisoned") = Some(DurableState { dir, wal });
        Ok(service)
    }

    /// Installs a [`Recovered`] state into this service: KB, rules, the
    /// recovery counters, and warm binding seeds for the tenants that were
    /// live at snapshot time (their first post-boot request then needs no
    /// cold bind). Everything cached is dropped; the tenants' caches fill
    /// as on a cold start, with bit-identical scores. Also the re-open path
    /// behind [`crate::serve::ReplicaService`]'s resnapshot.
    pub(crate) fn reinstall(&mut self, recovered: Recovered) {
        let Recovered {
            kb,
            rules,
            warm_users,
            replayed,
            truncated,
            ..
        } = recovered;
        self.tenants.clear();
        {
            let wal = self.wal_stats.get_mut().expect("wal stats lock poisoned");
            wal.records_replayed = replayed;
            wal.records_truncated = truncated;
        }
        for name in warm_users {
            let Some(user) = kb.voc.find_individual(&name) else {
                continue;
            };
            let env = ScoringEnv {
                kb: &kb,
                rules: &rules,
                user,
            };
            self.tenants
                .with_session(user, false, |tenant| tenant.session.bind(&env));
        }
        let published = self.published.get_mut().expect("published lock poisoned");
        published.kb = Arc::new(kb);
        published.rules = Arc::new(rules);
        self.seq.advance(published);
    }

    /// Replays one WAL record body against the live state — the replica
    /// tail-apply path, through the same [`replay`] step recovery runs
    /// (decodable operation, successful apply, post-apply epoch match).
    ///
    /// Takes `&mut self`, so no snapshot can be loaded concurrently;
    /// the published KB is edited in place when this service holds the
    /// only reference to it (the steady tailing case), and re-cloned once
    /// — identity-preserving — when an outstanding reader still pins the
    /// current `Arc` (the rules are copy-on-write inside the apply).
    pub(crate) fn apply_replayed(
        &mut self,
        epoch: u64,
        body: &[u8],
    ) -> std::result::Result<(), PersistError> {
        let published = self.published.get_mut().expect("published lock poisoned");
        // Every record moves the epoch or the rules, and one that fails
        // part-way must leave no tenant warm either: advance `seq` first.
        self.seq.advance(published);
        if Arc::get_mut(&mut published.kb).is_none() {
            published.kb = Arc::new(published.kb.clone_for_publish());
        }
        let kb = Arc::get_mut(&mut published.kb).expect("kb Arc just made unique");
        replay(kb, &mut published.rules, epoch, body)?;
        self.wal_stats
            .get_mut()
            .expect("wal stats lock poisoned")
            .records_replayed += 1;
        Ok(())
    }

    /// Writes a full snapshot of the current state (KB, rules and the
    /// live-tenant set — no caches) to the durable directory, atomically
    /// (write to a temp file, fsync, rename, fsync the directory). Older
    /// snapshots beyond the newest
    /// [`ServiceConfig::snapshot_retain`] are pruned.
    ///
    /// With [`CompactionPolicy::Never`] (the default) the WAL is kept
    /// whole — it is the authoritative history, which is what lets
    /// recovery survive *every* snapshot being lost. With
    /// [`CompactionPolicy::Covered`] the active segment is sealed first
    /// (so this snapshot's records become deletable by a later pass) and
    /// prefix segments covered by the two newest valid snapshots are
    /// deleted afterwards, oldest first, each unlink made durable before
    /// the next — a crash between any two deletes leaves a contiguous
    /// chain that recovers with zero loss.
    ///
    /// Runs under the writer lock, so the state it captures is exactly
    /// one published snapshot — concurrent ranks proceed, concurrent
    /// mutations wait.
    ///
    /// Errors with [`PersistError::Invalid`] if the service was not opened
    /// with [`RankingService::open_durable`].
    pub fn save_snapshot(&self) -> Result<()> {
        let compaction = self.compaction;
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let Some(durable) = &mut *writer else {
            return Err(PersistError::Invalid(
                "save_snapshot requires a durable service (use open_durable)".into(),
            )
            .into());
        };
        durable.wal.flush()?;
        if compaction != CompactionPolicy::Never && durable.wal.rotate()? {
            self.wal_stats
                .lock()
                .expect("wal stats lock poisoned")
                .rotations += 1;
        }
        let seq = durable.wal.next_seq() - 1;
        // Stable while the writer lock is held: publishes only happen
        // under it.
        let snap = self.load();
        let warm: Vec<String> = self
            .tenants
            .live_users()
            .into_iter()
            .map(|u| snap.kb().voc.individual_name(u).to_string())
            .collect();
        let bytes = encode_snapshot(snap.kb(), snap.rules(), &warm, seq);
        let tmp = durable.dir.join("snapshot.tmp");
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp).map_err(PersistError::from)?;
            f.write_all(&bytes).map_err(PersistError::from)?;
            f.sync_all().map_err(PersistError::from)?;
        }
        std::fs::rename(&tmp, durable.dir.join(format!("snapshot-{seq}.snap")))
            .map_err(PersistError::from)?;
        // Make the rename durable: without the directory fsync a crash
        // here can lose the new snapshot's directory entry even though its
        // bytes were synced.
        sync_dir(&durable.dir).map_err(PersistError::from)?;
        for (_, path) in snapshot_paths(&durable.dir)
            .into_iter()
            .skip(self.snapshot_retain)
        {
            if std::fs::remove_file(path).is_ok() {
                let _ = sync_dir(&durable.dir);
            }
        }
        if compaction == CompactionPolicy::Covered {
            let plan = covered_prefix(&durable.dir);
            let out = delete_segments(&durable.dir, &plan, None)?;
            let mut wal = self.wal_stats.lock().expect("wal stats lock poisoned");
            wal.segments_deleted += out.segments_deleted;
            wal.bytes_reclaimed += out.bytes_reclaimed;
        }
        Ok(())
    }

    /// Whether this service persists mutations (was opened with
    /// [`RankingService::open_durable`]).
    pub fn is_durable(&self) -> bool {
        self.writer.lock().expect("writer lock poisoned").is_some()
    }

    /// Applies `op` to the published state and publishes the result (see
    /// [`RankingService::mutate`]). An op that moved the state is then
    /// logged, stamped with the post-apply KB epoch: what is logged is what
    /// was applied, and replay runs the same [`WalOp::apply`]. A rejected
    /// op moves nothing and logs nothing (the outer error); a failed append
    /// leaves the applied op published and comes back as the inner one.
    /// Non-durable services log nothing.
    fn apply(&self, op: &WalOp) -> Result<(Applied, Result<()>)> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let (applied, next, moved) = self.mutate(|kb, rules| op.apply(kb, rules))?;
        let Some(durable) = writer.as_mut().filter(|_| moved) else {
            return Ok((applied, Ok(())));
        };
        let logged = durable.wal.append(next.kb().epoch(), op, &next.kb().voc);
        let logged = logged.map(|out| {
            let mut wal = self.wal_stats.lock().expect("wal stats lock poisoned");
            wal.records_appended += 1;
            wal.bytes_appended += out.bytes;
            wal.rotations += u64::from(out.rotated);
        });
        Ok((applied, logged.map_err(Into::into)))
    }

    /// The engine every request scores through.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Loads the current published snapshot — the internal name for what
    /// [`RankingService::snapshot`] exposes.
    fn load(&self) -> SharedSnapshot {
        #[cfg(test)]
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.lock_published().clone()
    }

    /// The published slot — held to clone, swap or mutate in place, never
    /// across a deep clone or while taking a shard lock.
    fn lock_published(&self) -> std::sync::MutexGuard<'_, SharedSnapshot> {
        self.published.lock().expect("published lock poisoned")
    }

    /// Runs `mutate` against the published KB and rules and publishes the
    /// result, moving the sequence if the KB's epoch or the rules moved
    /// (the returned flag). **In place** under the published-slot lock
    /// when no loaded snapshot pins the KB's `Arc` (the steady state — a
    /// warm rank pins nothing; readers that load block briefly on the slot
    /// lock and then see the successor). When a reader holds the snapshot,
    /// its view stays immutable: the identity-preserving clone and the
    /// mutation run *outside* the slot lock, which is taken again only to
    /// swap the result in — so no load stalls behind a deep clone. The
    /// rules are copy-on-write either way (`Arc::make_mut` in
    /// [`WalOp::apply`]). Callers hold the writer lock, so mutations are
    /// totally ordered, the slot cannot change between the clone and the
    /// swap, and the returned snapshot — for WAL encoding after the slot
    /// lock is released — cannot be superseded until the caller releases
    /// it. On `Err` nothing is swapped in and nothing the caller observes
    /// has changed: the KB's mutating primitives validate before touching
    /// scored state (a rejected op can leave interned names or an advanced
    /// fresh-variable suffix behind, both epoch-neutral and invisible to
    /// scoring and replay).
    fn mutate<R>(
        &self,
        mutate: impl FnOnce(&mut Kb, &mut Arc<RuleRepository>) -> Result<R>,
    ) -> Result<(R, SharedSnapshot, bool)> {
        let (kb, rules) = {
            let mut published = self.lock_published();
            let published = &mut *published;
            if let Some(kb) = Arc::get_mut(&mut published.kb) {
                let before = (kb.epoch(), published.rules.stamp());
                let value = mutate(kb, &mut published.rules)?;
                let moved = self.publish(published, before);
                return Ok((value, published.clone(), moved));
            }
            (Arc::clone(&published.kb), Arc::clone(&published.rules))
        };
        let mut next_kb = kb.clone_for_publish();
        let mut next_rules = Arc::clone(&rules);
        let value = mutate(&mut next_kb, &mut next_rules)?;
        let mut published = self.lock_published();
        published.kb = Arc::new(next_kb);
        published.rules = next_rules;
        let moved = self.publish(&mut published, (kb.epoch(), rules.stamp()));
        Ok((value, published.clone(), moved))
    }

    /// Moves the sequence on if `published`'s KB epoch or rules stamp is
    /// not `before`, with the published slot held; returns whether it did.
    fn publish(&self, published: &mut SharedSnapshot, before: (u64, u64)) -> bool {
        let moved = (published.kb.epoch(), published.rules.stamp()) != before;
        if moved {
            self.seq.advance(published);
        }
        moved
    }

    /// The current consistent `(kb, rules)` snapshot (two `Arc` bumps).
    /// A request that binds or scores loads its own internally; use this
    /// to run read-only analysis against the same immutable state a
    /// request would see.
    pub fn snapshot(&self) -> SharedSnapshot {
        self.load()
    }

    /// The knowledge base at the current publish point (read-only;
    /// mutations go through [`RankingService::assert`] and
    /// [`RankingService::individual`] so the service sees every epoch
    /// movement). The returned `Arc` is a stable snapshot: a concurrent
    /// assert publishes a successor instead of mutating it.
    pub fn kb(&self) -> Arc<Kb> {
        self.load().kb
    }

    /// The rule repository at the current publish point (read-only;
    /// mutations go through [`RankingService::add_rule`] /
    /// [`RankingService::remove_rule`]).
    pub fn rules(&self) -> Arc<RuleRepository> {
        self.load().rules
    }

    /// Interns (or looks up) an individual — users and documents alike
    /// must be registered before they appear in requests. Looking up an
    /// existing name moves no epoch and leaves every cache warm.
    ///
    /// On a durable service a *new* registration (the KB epoch moved) is
    /// logged best-effort: the signature has no error channel, and replay
    /// degrades gracefully if the record is lost — a later record that
    /// references the unknown name truncates at that point rather than
    /// crashing.
    pub fn individual(&self, name: &str) -> IndividualId {
        let op = WalOp::Individual {
            name: name.to_string(),
        };
        let Ok((Applied::Individual(id), _logged)) = self.apply(&op) else {
            unreachable!("registration is infallible and names its individual")
        };
        id
    }

    /// Parses a concept expression against the service KB's vocabulary —
    /// the way to build [`PreferenceRule`]s for a service that was opened
    /// cold via [`RankingService::open_durable`] (name interning mutates
    /// the vocabulary, so the read-only [`RankingService::kb`] view cannot
    /// parse). Interning moves no epoch, but the grown vocabulary is
    /// published so later requests resolve the new names.
    pub fn parse(&self, text: &str) -> Result<Concept> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let (concept, _snap, _moved) = self.mutate(|kb, _rules| kb.parse(text))?;
        Ok(concept)
    }

    /// Adds a preference rule. Affected bindings re-derive lazily on each
    /// tenant's next request (the binding cache validates per rule).
    pub fn add_rule(&self, rule: PreferenceRule) -> Result<()> {
        let (_, logged) = self.apply(&WalOp::AddRule(rule))?;
        logged
    }

    /// Removes the named preference rule.
    ///
    /// On a durable service the removal is logged after it succeeds; if
    /// the append itself fails the published removal stands and the error
    /// is returned — the caller knows durability lagged.
    pub fn remove_rule(&self, name: &str) -> Result<PreferenceRule> {
        let name = name.to_string();
        let (Applied::Removed(rule), logged) = self.apply(&WalOp::RemoveRule { name })? else {
            unreachable!("a removal hands back its rule")
        };
        logged.map(|()| rule)
    }

    /// Asserts a typed [`Fact`] — the context-switch path. Bumps the KB's
    /// binding epoch and the version of the one table the fact lands in,
    /// so on their next request tenants re-check only the rules that read
    /// that table (see [`crate::ScoringSession::bind`]): a fact about a
    /// user re-binds that user's rules and nobody else's, a fact about a
    /// document re-derives the preference views over it once for all
    /// tenants. A rejected fact (e.g. an invalid probability) mutates
    /// nothing, does not count toward [`ServiceStats::asserts`], and is
    /// never logged.
    ///
    /// Every recorded fact moves the publish sequence, so every tenant's
    /// next full page loads the snapshot and binds: a bystander's bind is
    /// one check of its own rows' epochs that hands back the list it held,
    /// and its score entry answers.
    ///
    /// Concurrency: an in-flight rank that loaded the previous snapshot
    /// pins it, so the mutation happens on a private identity-preserving
    /// clone and becomes visible atomically at publish — that rank
    /// completes against its immutable view and is linearized before
    /// this assert. With no reader pinning the snapshot (the steady
    /// state) the published KB mutates in place under the slot lock,
    /// skipping the clone; requests arriving after either form see the
    /// new epoch.
    pub fn assert(&self, subject: IndividualId, fact: Fact) -> Result<()> {
        let (_, logged) = self.apply(&WalOp::Assert { subject, fact })?;
        self.asserts.fetch_add(1, Ordering::Relaxed);
        logged
    }

    /// Ranks `docs` for `user`, returning the top `k` (best first).
    ///
    /// `k >= docs.len()` ranks the full set through the tenant's score
    /// cache — the steady-state warm path compares the list with the one it
    /// holds and copies the kept ranking.
    /// `k < docs.len()` is two-phase top-k ([`crate::rank_top_k`]): one
    /// closed-form engine sweep over the candidates, ranked and cut at `k`,
    /// plus — only for documents the engine deferred — a bound-ordered
    /// scan that starts from the k-th closed-form score. Its scores are
    /// not added to the score cache.
    ///
    /// Scores are bit-identical to a cold [`crate::bind_rules`] +
    /// `score_all` + [`crate::rank`] for the same user, whatever mix of
    /// caches serves the request. Takes `&self`: concurrent ranks for
    /// users in different tenant shards run in parallel; same-user
    /// requests serialize on the shard lock.
    ///
    /// The request takes the tenant's shard lock first and runs whole
    /// inside it (`shard → published slot` in the documented lock order),
    /// so the tenant's caches cannot be touched by another thread
    /// mid-request. A full-page rank whose tenant's mark is the published
    /// sequence, and whose score entry holds this list under the
    /// tenant's bindings, is answered there and then — no snapshot load, no
    /// bind, no evaluation, no reference count touched. Any other request
    /// loads the snapshot under the shard lock, marks the tenant if that
    /// snapshot is still the published one, and binds and scores against
    /// it.
    pub fn rank(
        &self,
        user: IndividualId,
        docs: &[IndividualId],
        k: usize,
    ) -> Result<Vec<DocScore>> {
        self.tenants.with_session(user, true, |tenant| {
            if k >= docs.len() && tenant.bound_at == Some(self.seq.load()) {
                if let Some(warm) = tenant.session.rank_warm(&self.engine, docs) {
                    return Ok(warm);
                }
            }
            let snap = self.load();
            tenant.bound_at = self.seq.mark(&snap);
            let env = snap.env(user);
            tenant
                .session
                .rank_top_k(&self.engine, &env, docs, k, &mut tenant.scratch)
        })
    }

    /// Ranks `docs` for a group of users — each member scored through
    /// their own tenant session, combined with `strategy` (see
    /// [`crate::score_group`]) — returning the top `k` of the combined
    /// ranking. Group aggregation needs every member's full score list, so
    /// `k` only truncates the final ranking. All members score against
    /// one snapshot load, so a concurrent assert never splits the group
    /// across epochs.
    pub fn rank_group(
        &self,
        users: &[IndividualId],
        docs: &[IndividualId],
        k: usize,
        strategy: &GroupStrategy,
    ) -> Result<Vec<DocScore>> {
        self.rank_group_on(&self.load(), users, docs, k, strategy)
    }

    /// Executes a request batch in order, each request through
    /// [`RankingService::rank`], [`RankingService::rank_group`] or
    /// [`RankingService::assert`] — the direct call's answer, so a warm
    /// full page loads no snapshot here either.
    ///
    /// Responses are returned in request order; a failed request yields
    /// its error without aborting the rest of the batch.
    pub fn submit(&self, batch: impl IntoIterator<Item = Request>) -> Vec<Result<Response>> {
        let answer = |request| match request {
            Request::Rank { user, docs, k } => self.rank(user, &docs, k).map(Response::Ranked),
            Request::RankGroup {
                users,
                docs,
                k,
                strategy,
            } => self
                .rank_group(&users, &docs, k, &strategy)
                .map(Response::Ranked),
            Request::Assert { subject, fact } => {
                self.assert(subject, fact).map(|()| Response::Asserted)
            }
        };
        batch.into_iter().map(answer).collect()
    }

    /// [`RankingService::rank_group`] against `snap`: every member's full
    /// score list through their own session core, bound against
    /// `snap` and marked ([`Sequence::mark`]), one shard lock per member,
    /// in request order; then the combine and the cut.
    fn rank_group_on(
        &self,
        snap: &SharedSnapshot,
        users: &[IndividualId],
        docs: &[IndividualId],
        k: usize,
        strategy: &GroupStrategy,
    ) -> Result<Vec<DocScore>> {
        if users.is_empty() {
            self.tenants.count_rank();
        }
        let per_user = users
            .iter()
            .enumerate()
            .map(|(i, &user)| {
                self.tenants.with_session(user, i == 0, |tenant| {
                    tenant.bound_at = self.seq.mark(snap);
                    let env = snap.env(user);
                    tenant
                        .session
                        .score_all(&self.engine, &env, docs, &mut tenant.scratch)
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let mut ranked = rank(group_scores(&per_user, strategy)?);
        ranked.truncate(k);
        Ok(ranked)
    }

    /// Service-wide counters (see [`ServiceStats`]).
    /// Takes locks one at a time (never nested), so under concurrent
    /// traffic the totals are a near-point-in-time reading of monotone
    /// counters, not a frozen cut.
    pub fn stats(&self) -> ServiceStats {
        let stats = self.tenants.stats();
        ServiceStats {
            asserts: self.asserts.load(Ordering::Relaxed),
            wal: *self.wal_stats.lock().expect("wal stats lock poisoned"),
            ..stats
        }
    }

    /// Shard-lock acquisition counts, one per tenant shard (index order
    /// matches the shard layout), read without counting. A hot shard —
    /// one counter racing ahead of its siblings — means its tenants
    /// contend; re-shard or re-key.
    pub fn shard_lock_counts(&self) -> Vec<u64> {
        self.tenants.lock_counts()
    }

    /// One tenant's counters, batch counters included, if their session is
    /// currently live.
    pub fn tenant_stats(&self, user: IndividualId) -> Option<SessionStats> {
        self.tenants.stats_of(user)
    }

    /// Drops every tenant session, and resets all
    /// [`ServiceStats`] counters — post-clear stats describe
    /// the fresh service only, matching the clear semantics of the cache
    /// layers below. Engine, KB, rules and configuration are kept, and
    /// results are unaffected: subsequent requests recompute
    /// bit-identical scores.
    ///
    /// On a durable service the WAL stays attached and open: the log file
    /// is untouched (it still reflects the KB and rules, which `clear`
    /// keeps), sequence numbers continue where they left off, and only the
    /// [`WalStats`] counters reset with the other stats.
    ///
    /// Takes `&mut self` — clearing is an ownership-level reset, not a
    /// request; callers holding only `&self` cannot reach it.
    pub fn clear(&mut self) {
        self.tenants.clear();
        *self.asserts.get_mut() = 0;
        *self.wal_stats.get_mut().expect("wal stats lock poisoned") = WalStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{score_group, EvalScratch, LineageEngine, PreferenceRule, Score, ScoringSession};

    fn fixture(
        n_users: usize,
        n_docs: usize,
    ) -> (Kb, RuleRepository, Vec<IndividualId>, Vec<IndividualId>) {
        let mut kb = Kb::new();
        let users: Vec<_> = (0..n_users)
            .map(|i| {
                let u = kb.individual(&format!("user{i}"));
                kb.assert_concept_prob(u, "Ctx0", 0.2 + 0.5 * (i as f64 / n_users as f64))
                    .unwrap();
                if i % 2 == 0 {
                    kb.assert_concept(u, "Ctx1");
                }
                u
            })
            .collect();
        let docs: Vec<_> = (0..n_docs)
            .map(|i| {
                let d = kb.individual(&format!("doc{i}"));
                kb.assert_concept_prob(d, "Feat0", 0.1 + 0.8 * (i as f64 / n_docs as f64))
                    .unwrap();
                kb.assert_concept_prob(d, "Feat1", 0.9 - 0.7 * (i as f64 / n_docs as f64))
                    .unwrap();
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R0",
                kb.parse("Ctx0").unwrap(),
                kb.parse("Feat0").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "R1",
                kb.parse("Ctx1").unwrap(),
                kb.parse("Feat0 AND Feat1").unwrap(),
                Score::new(0.4).unwrap(),
            ))
            .unwrap();
        (kb, rules, users, docs)
    }

    /// The cold reference a service `rank` must reproduce bit-for-bit.
    fn cold_rank(
        kb: &Kb,
        rules: &RuleRepository,
        user: IndividualId,
        docs: &[IndividualId],
        k: usize,
    ) -> Vec<DocScore> {
        let env = ScoringEnv { kb, rules, user };
        let mut full = rank(LineageEngine::new().score_all(&env, docs).unwrap());
        full.truncate(k);
        full
    }

    /// A cold engine call on the served `Kb` — what `explain`,
    /// `ranked_query` or a verifying oracle makes — binds views of its own
    /// and reads rows into a set of its own, beside the served one: the
    /// next served request reads no view again, and drops the cold set
    /// with its rows, since no request can present its views again.
    #[test]
    fn a_cold_call_between_two_served_ranks_leaves_the_served_rows_alone() {
        let (kb, rules, users, docs) = fixture(3, 12);
        let service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        let kb = service.kb();
        let cells = (docs.len() * rules.len()) as u64;
        let reads = || kb.rows().reads();
        service.rank(users[0], &docs, docs.len()).unwrap();
        assert_eq!(reads(), cells);
        for (cold, user) in [(1, users[1]), (2, users[2])] {
            let want = cold_rank(&kb, &rules, user, &docs, docs.len());
            assert_eq!(reads(), (1 + cold) * cells, "the cold call's own rows");
            assert_eq!(kb.rows().held(), 2, "the cold set beside the served");
            // Every cache of the service misses for this user but the rows.
            let served = service.rank(user, &docs, docs.len()).unwrap();
            assert_eq!(served, want);
            assert_eq!(reads(), (1 + cold) * cells, "the served rows stayed");
            assert_eq!(kb.rows().held(), 1, "the done cold call's rows went");
        }
    }

    #[test]
    fn warm_rank_is_bit_identical_and_cached() {
        let (kb, rules, users, docs) = fixture(3, 12);
        let service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        for &user in &users {
            let want = cold_rank(&service.kb(), &rules, user, &docs, docs.len());
            let cold = service.rank(user, &docs, docs.len()).unwrap();
            let warm = service.rank(user, &docs, docs.len()).unwrap();
            for ((a, b), c) in want.iter().zip(&cold).zip(&warm) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(b.doc, c.doc);
                assert_eq!(b.score.to_bits(), c.score.to_bits());
            }
        }
        let stats = service.stats();
        assert_eq!(stats.sessions_live, users.len());
        assert_eq!(stats.rank_requests, 2 * users.len() as u64);
        assert!(
            stats.sessions.scores.hits >= (users.len() * docs.len()) as u64,
            "second round is served from the score caches: {:?}",
            stats.sessions
        );
        assert!(stats.sessions.bindings.hit_rate() > 0.0);
        assert!(
            stats.shard_lock_acquisitions >= stats.rank_requests,
            "every request takes at least one shard lock: {stats:?}"
        );
        assert_eq!(stats.queue, QueueStats::default(), "no queue attached");
    }

    #[test]
    fn top_k_is_exact_prefix() {
        // The lineage engine: exact under the fixture's correlated rules
        // (both share each document's Feat0 variable, which the strict
        // factorized engine rejects by design).
        let (kb, rules, users, docs) = fixture(2, 16);
        let service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        for k in [1, 5, 16, 99] {
            let engine = LineageEngine::new();
            let kb = service.kb();
            let env = ScoringEnv {
                kb: &kb,
                rules: &rules,
                user: users[0],
            };
            let mut want = rank(engine.score_all(&env, &docs).unwrap());
            want.truncate(k);
            let got = service.rank(users[0], &docs, k).unwrap();
            assert_eq!(got.len(), k.min(docs.len()));
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.doc, b.doc, "k={k}");
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn an_empty_cut_answers_empty_on_every_engine() {
        use crate::{FactorizedEngine, NaiveEnumEngine, NaiveViewEngine, ScoringEngine};

        // `k = 0` evaluates nothing, so no engine gets to reject the
        // fixture's correlated rules.
        let engines: [Box<dyn ScoringEngine + Sync>; 4] = [
            Box::new(NaiveViewEngine::new()),
            Box::new(NaiveEnumEngine::new()),
            Box::new(FactorizedEngine::new()),
            Box::new(LineageEngine::new()),
        ];
        for engine in engines {
            let (kb, rules, users, docs) = fixture(2, 16);
            let service = RankingService::new(engine, kb, rules);
            for docs in [&docs[..], &[]] {
                assert_eq!(service.rank(users[0], docs, 0).unwrap(), []);
            }
            let scores = service.stats().sessions.scores;
            assert_eq!(scores, crate::CacheStats::default());
        }
    }

    #[test]
    fn rank_group_matches_score_group() {
        let (kb, rules, users, docs) = fixture(4, 10);
        let strategy = GroupStrategy::LeastMisery;
        let mut session = ScoringSession::new();
        let want = rank(
            score_group(
                &mut session,
                &LineageEngine::new(),
                &kb,
                &rules,
                &users,
                &docs,
                &strategy,
            )
            .unwrap(),
        );
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let got = service
            .rank_group(&users, &docs, docs.len(), &strategy)
            .unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // Truncation only shortens the list.
        let top3 = service.rank_group(&users, &docs, 3, &strategy).unwrap();
        assert_eq!(&got[..3], &top3[..]);
    }

    /// A batch answers its requests in order, an assert among them moving
    /// what the requests after it see: each response is the cold answer
    /// at its point in the batch.
    #[test]
    fn batch_preserves_order_across_an_assert() {
        let (kb, rules, users, docs) = fixture(3, 8);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let batch = vec![
            Request::Rank {
                user: users[0],
                docs: docs.clone(),
                k: docs.len(),
            },
            Request::Rank {
                user: users[1],
                docs: docs.clone(),
                k: 4,
            },
            Request::Assert {
                subject: users[0],
                fact: Fact::ConceptProb("Ctx0".into(), 0.9),
            },
            Request::Rank {
                user: users[0],
                docs: docs.clone(),
                k: docs.len(),
            },
            Request::RankGroup {
                users: users.clone(),
                docs: docs.clone(),
                k: 3,
                strategy: GroupStrategy::Product,
            },
        ];
        let responses = service.submit(batch);
        assert_eq!(responses.len(), 5);
        assert!(matches!(responses[2], Ok(Response::Asserted)));
        let stats = service.stats();
        assert_eq!(stats.rank_requests, 4);
        assert_eq!(stats.asserts, 1);
        // Each ranked response equals the cold reference *at its point in
        // the batch*: the last one sees the asserted context switch.
        let want = cold_rank(&service.kb(), &service.rules(), users[0], &docs, docs.len());
        let got = responses[3].as_ref().unwrap().ranked().unwrap();
        for (a, b) in want.iter().zip(got) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // The batched group request (after the barrier) matches the direct
        // group call on an identically-prepared service.
        let want_group = service
            .rank_group(&users, &docs, 3, &GroupStrategy::Product)
            .unwrap();
        let got_group = responses[4].as_ref().unwrap().ranked().unwrap();
        assert_eq!(got_group.len(), 3);
        for (a, b) in want_group.iter().zip(got_group) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn batch_errors_do_not_abort_the_rest() {
        let (kb, rules, users, docs) = fixture(2, 6);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let batch = vec![
            Request::Assert {
                subject: users[0],
                fact: Fact::ConceptProb("Ctx0".into(), 1.5), // invalid probability
            },
            Request::Rank {
                user: users[0],
                docs: docs.clone(),
                k: docs.len(),
            },
        ];
        let responses = service.submit(batch);
        assert!(responses[0].is_err(), "invalid probability is rejected");
        assert!(responses[1].is_ok(), "the batch continues past the error");
        assert_eq!(
            service.stats().asserts,
            0,
            "a rejected fact mutates nothing and is not counted as asserted"
        );
    }

    #[test]
    fn lru_eviction_is_invisible_in_results() {
        let (kb, rules, users, docs) = fixture(4, 8);
        let service = RankingService::with_config(
            LineageEngine::new(),
            kb,
            rules.clone(),
            ServiceConfig {
                max_sessions: 2,
                ..ServiceConfig::default()
            },
        );
        // Cycle users so every request past the first two evicts someone.
        for round in 0..3 {
            for &user in &users {
                let want = cold_rank(&service.kb(), &rules, user, &docs, docs.len());
                let got = service.rank(user, &docs, docs.len()).unwrap();
                for (a, b) in want.iter().zip(&got) {
                    assert_eq!(a.doc, b.doc, "round {round}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
        let stats = service.stats();
        assert_eq!(stats.sessions_live, 2, "cap holds");
        assert!(stats.sessions_evicted >= 4, "cycling 4 users over cap 2");
    }

    #[test]
    fn batch_counters_surface_in_service_stats() {
        let (kb, rules, users, docs) = fixture(2, 8);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        // users[1] has no `Ctx1`, so only R0 applies and its features are
        // one atom per document: every lane takes the closed form.
        service.rank(users[1], &docs, docs.len()).unwrap();
        let lanes = crate::BatchStats {
            sweeps: 1,
            lanes: docs.len() as u64,
            fallbacks: 0,
        };
        assert_eq!(service.stats().sessions.batch, lanes);
        // users[0] is certainly in `Ctx1`: R0 and R1 both read each
        // document's `Feat0` variable, so the lane test rejects every
        // document and each gets an exact evaluation of its own.
        service.rank(users[0], &docs, docs.len()).unwrap();
        let entangled = crate::BatchStats {
            fallbacks: docs.len() as u64,
            ..lanes
        };
        assert_eq!(service.stats().sessions.batch, lanes + entangled);
    }

    #[test]
    fn rank_group_with_duplicate_members_survives_mid_group_eviction() {
        // A group with a repeated member under an LRU cap smaller than the
        // group: members are evicted while the request is still collecting
        // their score lists, and come back re-derived — to the same bits
        // an uncapped service returns.
        let (kb, rules, users, docs) = fixture(4, 12);
        let members: Vec<_> = users.iter().copied().chain([users[1]]).collect();
        let roomy = RankingService::new(LineageEngine::new(), kb.clone(), rules.clone());
        let capped = RankingService::with_config(
            LineageEngine::new(),
            kb,
            rules,
            ServiceConfig {
                max_sessions: 2,
                ..ServiceConfig::default()
            },
        );
        for strategy in [GroupStrategy::Product, GroupStrategy::LeastMisery] {
            let want = roomy
                .rank_group(&members, &docs, docs.len(), &strategy)
                .unwrap();
            let got = capped
                .rank_group(&members, &docs, docs.len(), &strategy)
                .unwrap();
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        let stats = capped.stats();
        assert_eq!(stats.sessions_live, 2, "cap holds");
        assert!(stats.sessions_evicted > 0, "the group outgrew the cap");
    }

    #[test]
    fn a_warm_group_request_takes_one_shard_lock_per_member() {
        let (kb, rules, users, docs) = fixture(5, 10);
        let (stranger, users) = (users[4], &users[..4]);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let strategy = GroupStrategy::Product;
        // `stats()` itself sweeps every shard once for the tenant totals,
        // and reading the per-shard counts takes nothing it counts.
        let sweep = service.shard_lock_counts().len() as u64;
        let (first, second) = (service.stats(), service.stats());
        assert_eq!(
            second.shard_lock_acquisitions - first.shard_lock_acquisitions,
            sweep
        );
        // First sight inserts every member under its own shard lock alone.
        let cold = service.rank_group(users, &docs, 3, &strategy).unwrap();
        let before = service.stats();
        assert_eq!(
            before.shard_lock_acquisitions - second.shard_lock_acquisitions - sweep,
            users.len() as u64,
            "a first-sight member costs one shard lock too"
        );
        assert_eq!(before.rank_requests, 1, "a group counts once");
        let warm = service.rank_group(users, &docs, 3, &strategy).unwrap();
        let after = service.stats();
        assert_eq!(after.rank_requests, 2);
        assert_eq!(cold, warm);
        assert_eq!(
            after.shard_lock_acquisitions - before.shard_lock_acquisitions - sweep,
            users.len() as u64,
            "live members cost one shard lock each, and nothing else does"
        );
        let (was, now) = (before.sessions.scores, after.sessions.scores);
        assert_eq!(
            (now.hits - was.hits, now.misses - was.misses),
            ((users.len() * docs.len()) as u64, 0),
            "the repeat is answered from the members' score caches"
        );
        assert_eq!(after.sessions.batch, before.sessions.batch, "no sweep ran");
        // The single-user case of the same rule: one lock, not one per
        // shard — on a warm answer, which loads no snapshot either ...
        let loads = || service.loads.load(Ordering::Relaxed);
        let loaded = loads();
        service.rank(users[0], &docs, docs.len()).unwrap();
        let warm = service.stats();
        assert_eq!(
            warm.shard_lock_acquisitions - after.shard_lock_acquisitions - sweep,
            1,
            "a warm single-user rank costs exactly one shard lock"
        );
        assert_eq!(loads(), loaded, "and no snapshot load");
        // ... and on a miss, which loads the snapshot under that lock.
        service
            .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        service.rank(users[0], &docs, docs.len()).unwrap();
        assert_eq!(
            service.stats().shard_lock_acquisitions - warm.shard_lock_acquisitions - sweep,
            1,
            "a missing single-user rank costs exactly one shard lock"
        );
        assert_eq!(loads(), loaded + 1, "and one snapshot load");
        // ... and on a first sight, which inserts the tenant under it.
        let missed = service.stats();
        service.rank(stranger, &docs, docs.len()).unwrap();
        let seen = service.stats();
        assert_eq!(
            seen.shard_lock_acquisitions - missed.shard_lock_acquisitions - sweep,
            1,
            "a first-sight single-user rank costs exactly one shard lock"
        );
        assert_eq!(seen.rank_requests - missed.rank_requests, 1);
        assert_eq!(seen.sessions_live, users.len() + 1);
        // An empty group locks no tenant's shard, and still counts.
        assert!(service
            .rank_group(&[], &docs, 3, &strategy)
            .unwrap()
            .is_empty());
        let empty = service.stats();
        assert_eq!(empty.rank_requests - seen.rank_requests, 1);
        assert_eq!(
            empty.shard_lock_acquisitions - seen.shard_lock_acquisitions - sweep,
            0
        );
    }

    /// Scores as `LineageEngine`, and panics on its `panic_at`-th call.
    struct PanicsAt {
        inner: LineageEngine,
        calls: AtomicU64,
        panic_at: AtomicU64,
    }

    impl ScoringEngine for PanicsAt {
        fn name(&self) -> &'static str {
            "panics-at"
        }

        fn score_all_bound(
            &self,
            env: &ScoringEnv<'_>,
            bindings: &[Arc<crate::RuleBinding>],
            docs: &[IndividualId],
            scratch: &mut EvalScratch,
        ) -> Result<Vec<DocScore>> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            assert_ne!(call, self.panic_at.load(Ordering::Relaxed), "injected");
            self.inner.score_all_bound(env, bindings, docs, scratch)
        }
    }

    /// A panic under a shard lock poisons that shard; the next request to
    /// reach it drops the shard's tenants, keeping their counters, and goes
    /// on, so every user there ranks as before — bit-identically to the
    /// cold oracle.
    #[test]
    fn a_poisoned_shard_recovers_by_dropping_its_tenants() {
        let (kb, rules, users, docs) = fixture(12, 8);
        let engine = PanicsAt {
            inner: LineageEngine::new(),
            calls: AtomicU64::new(0),
            panic_at: AtomicU64::new(u64::MAX),
        };
        let service = RankingService::with_config(
            engine,
            kb,
            rules.clone(),
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        // Warm every user, noting the shard each one's rank locks.
        let shard_of = |user| {
            let before = service.shard_lock_counts();
            service.rank(user, &docs, docs.len()).unwrap();
            let after = service.shard_lock_counts();
            (0..after.len()).find(|&i| after[i] != before[i]).unwrap()
        };
        let shards: Vec<usize> = users.iter().map(|&user| shard_of(user)).collect();
        let victim = shards[0];
        let neighbours: Vec<_> = (0..users.len()).filter(|&i| shards[i] == victim).collect();
        assert!(neighbours.len() > 1, "the victim's shard holds others too");
        let warm = service.stats();
        let live = warm.sessions_live;
        assert_eq!(live, users.len());
        assert!(warm.sessions.batch.sweeps > 0);

        // A context switch sends the user's next page to the engine.
        service
            .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        let calls = service.engine().calls.load(Ordering::Relaxed);
        service
            .engine()
            .panic_at
            .store(calls + 1, Ordering::Relaxed);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.rank(users[0], &docs, docs.len())
        }));
        assert!(panicked.is_err(), "the engine's panic reaches the caller");

        let stats = service.stats();
        assert_eq!(stats.sessions_live, live - neighbours.len());
        assert_eq!(stats.sessions_evicted, 0, "dropped, not evicted");
        assert_eq!(
            stats.sessions.batch, warm.sessions.batch,
            "the dropped tenants' passes still count"
        );
        for &i in &neighbours {
            let want = cold_rank(&service.kb(), &rules, users[i], &docs, docs.len());
            let got = service.rank(users[i], &docs, docs.len()).unwrap();
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.doc, b.doc, "user {i}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "user {i}");
            }
        }
        assert_eq!(service.stats().sessions_live, live);
    }

    /// The publish sequence stands in for the snapshot on a warm page: `N`
    /// tenants re-ranking one page load nothing until a publish moves it,
    /// then load once each and are warm again — counting the binding and
    /// score hits a bind and a read-through would, and answering the cold
    /// rank on the state they were bound at.
    #[test]
    fn a_warm_page_loads_no_snapshot_until_the_sequence_moves() {
        let (kb, rules, users, docs) = fixture(4, 10);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let n = users.len() as u64;
        let round = || {
            let loaded = service.loads.load(Ordering::Relaxed);
            let got: Vec<_> = users
                .iter()
                .map(|&user| service.rank(user, &docs, docs.len()).unwrap())
                .collect();
            let loads = service.loads.load(Ordering::Relaxed) - loaded;
            let snap = service.snapshot();
            for (&user, got) in users.iter().zip(&got) {
                let want = cold_rank(snap.kb(), snap.rules(), user, &docs, docs.len());
                assert_eq!(got, &want);
            }
            loads
        };
        assert_eq!(round(), n, "first sight");
        let before = service.stats().sessions;
        assert_eq!(round(), 0, "warm");
        let after = service.stats().sessions;
        let rules = service.rules().len() as u64;
        let delta =
            |c: crate::CacheStats, w: crate::CacheStats| (c.hits - w.hits, c.misses - w.misses);
        assert_eq!(delta(after.bindings, before.bindings), (n * rules, 0));
        assert_eq!(
            delta(after.scores, before.scores),
            (n * docs.len() as u64, 0)
        );
        assert_eq!(round(), 0, "still warm");

        service
            .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.4))
            .unwrap();
        assert_eq!(round(), n, "a context switch moves the sequence");
        assert_eq!(round(), 0, "then it is warm again");

        service
            .assert(docs[0], Fact::ConceptProb("Feat0".into(), 0.4))
            .unwrap();
        assert_eq!(round(), n, "every tenant's view reads a document's feature");
        assert_eq!(round(), 0, "then they are warm again");

        assert_eq!(service.individual("user1"), users[1]);
        service.parse("Ctx0 AND NOT Feat1").unwrap();
        assert_eq!(round(), 0, "a name lookup and a parse move nothing");

        service.individual("newcomer");
        assert_eq!(round(), n, "a new individual moves the epoch");
        assert_eq!(round(), 0);

        let context = service.parse("Ctx1").unwrap();
        let preference = service.parse("Feat1").unwrap();
        let rule = PreferenceRule::new("R2", context, preference, Score::new(0.6).unwrap());
        service.add_rule(rule).unwrap();
        assert_eq!(round(), n, "a rule edit moves the sequence");
        assert_eq!(round(), 0);
        service.remove_rule("R2").unwrap();
        assert_eq!(round(), n);
    }

    /// `submit` and a [`crate::serve::ServiceQueue`] answer each request
    /// through the direct call: a warm full page sent either way loads no
    /// snapshot, just as a direct `rank` does, and is the same page.
    #[test]
    fn a_warm_page_through_submit_or_the_queue_loads_no_snapshot() {
        use crate::serve::{QueueConfig, ServiceQueue};

        let (kb, rules, users, docs) = fixture(3, 8);
        let service = Arc::new(RankingService::new(LineageEngine::new(), kb, rules));
        let page = |user| Request::Rank {
            user,
            docs: docs.clone(),
            k: docs.len(),
        };
        let want: Vec<_> = users
            .iter()
            .map(|&user| service.rank(user, &docs, docs.len()).unwrap())
            .collect();
        let loads = || service.loads.load(Ordering::Relaxed);
        let loaded = loads();
        for (&user, want) in users.iter().zip(&want) {
            assert_eq!(&service.rank(user, &docs, docs.len()).unwrap(), want);
        }
        assert_eq!(loads(), loaded, "a direct warm page");
        let responses = service.submit(users.iter().map(|&user| page(user)));
        for (response, want) in responses.iter().zip(&want) {
            assert_eq!(response.as_ref().unwrap().ranked(), Some(&want[..]));
        }
        assert_eq!(loads(), loaded, "a warm page through submit");
        let queue = ServiceQueue::start(Arc::clone(&service), QueueConfig::default());
        let tickets: Vec<_> = users
            .iter()
            .map(|&user| queue.handle().enqueue(page(user)).unwrap())
            .collect();
        for (ticket, want) in tickets.into_iter().zip(&want) {
            assert_eq!(ticket.wait().unwrap().ranked(), Some(&want[..]));
        }
        assert_eq!(loads(), loaded, "a warm page through the queue");
        queue.shutdown();
    }

    /// A group bound against a snapshot a context switch superseded
    /// between its load and its members' binds is answered on that
    /// snapshot and leaves its members' tenants unmarked: the next page of
    /// the assert's subject and of a bystander alike is the cold page on
    /// the published state.
    #[test]
    fn a_bind_on_a_superseded_snapshot_leaves_its_tenant_unmarked() {
        let (kb, rules, users, docs) = fixture(4, 10);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let n = docs.len();
        let pair = [users[0], users[1]];
        let cold = |snap: &SharedSnapshot, user| cold_rank(snap.kb(), snap.rules(), user, &docs, n);
        let published = |user| {
            let got = service.rank(user, &docs, n).unwrap();
            assert_eq!(got, cold(&service.snapshot(), user), "{user:?}");
        };
        pair.into_iter().for_each(published);
        for p in [0.9, 0.6] {
            let old = service.snapshot();
            service
                .assert(users[0], Fact::ConceptProb("Ctx0".into(), p))
                .unwrap();
            service
                .rank_group_on(&old, &pair, &docs, n, &GroupStrategy::Product)
                .unwrap();
            pair.into_iter().for_each(published);
        }
        // A context switch of a user with no tenant, then their first
        // page.
        service
            .assert(users[2], Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        published(users[2]);
    }

    /// No writer takes a tenant's shard: an assert about a user finishes
    /// while a request of theirs holds their shard, and the request after
    /// it is the cold page on the published state.
    #[test]
    fn an_assert_does_not_wait_on_its_subjects_shard() {
        let (kb, rules, users, docs) = fixture(2, 6);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let (subject, n) = (users[0], docs.len());
        let before = service.rank(subject, &docs, n).unwrap();
        let (parked, park) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (done, finished) = std::sync::mpsc::channel();
        let service = &service;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                service.tenants.with_session(subject, false, |_| {
                    parked.send(()).unwrap();
                    released.recv().ok();
                })
            });
            park.recv().unwrap();
            scope.spawn(move || {
                let fact = Fact::ConceptProb("Ctx0".into(), 0.9);
                done.send(service.assert(subject, fact)).unwrap();
            });
            let waited = finished.recv_timeout(std::time::Duration::from_secs(30));
            release.send(()).unwrap();
            assert!(waited.is_ok(), "the assert waited on its subject's shard");
            waited.unwrap().unwrap();
        });
        let snap = service.snapshot();
        let want = cold_rank(snap.kb(), snap.rules(), subject, &docs, n);
        assert_ne!(want, before, "the switch moved the subject's page");
        assert_eq!(service.rank(subject, &docs, n).unwrap(), want);
    }

    /// A context that reads a filler reads someone else's rows, so an
    /// assert about them is shared: Bob's `Cosy` under `EXISTS knows.Cosy`,
    /// and Bob's `Ctx0` under `Ctx0 AND EXISTS knows.Ctx0` — whose
    /// footprint's tables are all its own, the filler being read under the
    /// very name the context reads of the user. Either moves the page of
    /// Ann, who knows Bob.
    #[test]
    fn an_assert_read_through_a_filler_moves_everyone() {
        for (context, concept) in [
            ("EXISTS knows.Cosy", "Cosy"),
            ("Ctx0 AND EXISTS knows.Ctx0", "Ctx0"),
        ] {
            let mut kb = Kb::new();
            let [ann, bob] = ["ann", "bob"].map(|name| {
                let u = kb.individual(name);
                kb.assert_concept_prob(u, concept, 0.5).unwrap();
                u
            });
            kb.assert_role(ann, "knows", bob);
            let docs: Vec<_> = (0..4)
                .map(|i| {
                    let d = kb.individual(&format!("doc{i}"));
                    kb.assert_concept_prob(d, "Feat0", 0.2 + 0.2 * i as f64)
                        .unwrap();
                    d
                })
                .collect();
            let context = kb.parse(context).unwrap();
            let footprint = kb.tbox.unfold(&context).footprint();
            assert_eq!(footprint.tables == footprint.own_tables, concept == "Ctx0");
            let preference = kb.parse("Feat0").unwrap();
            let mut rules = RuleRepository::new();
            let rule = PreferenceRule::new("R", context, preference, Score::new(0.8).unwrap());
            rules.add(rule).unwrap();
            let service = RankingService::new(LineageEngine::new(), kb, rules);
            let n = docs.len();
            let before = service.rank(ann, &docs, n).unwrap();
            assert_eq!(service.rank(ann, &docs, n).unwrap(), before, "warm");
            service
                .assert(bob, Fact::ConceptProb(concept.into(), 0.9))
                .unwrap();
            let snap = service.snapshot();
            let want = cold_rank(snap.kb(), snap.rules(), ann, &docs, n);
            assert_ne!(want, before, "Bob's {concept} is part of Ann's context");
            assert_eq!(service.rank(ann, &docs, n).unwrap(), want, "{concept}");
        }
    }

    #[test]
    fn shared_reference_serves_concurrent_ranks() {
        // The acceptance criterion made compile-time fact: `rank` through
        // a `&RankingService` shared across scoped threads, each thread's
        // results bit-identical to the cold oracle.
        let (kb, rules, users, docs) = fixture(4, 8);
        let service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        let want: Vec<_> = users
            .iter()
            .map(|&u| cold_rank(&service.kb(), &rules, u, &docs, docs.len()))
            .collect();
        let service = &service;
        std::thread::scope(|scope| {
            for (i, &user) in users.iter().enumerate() {
                let docs = &docs;
                let want = &want[i];
                scope.spawn(move || {
                    for _ in 0..3 {
                        let got = service.rank(user, docs, docs.len()).unwrap();
                        assert_eq!(got.len(), want.len());
                        for (a, b) in want.iter().zip(&got) {
                            assert_eq!(a.doc, b.doc);
                            assert_eq!(a.score.to_bits(), b.score.to_bits());
                        }
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.rank_requests, 3 * users.len() as u64);
        assert_eq!(stats.sessions_live, users.len());
    }

    #[test]
    fn concurrent_asserts_and_ranks_converge_to_the_published_state() {
        // Writers and readers race; whatever interleaving happened, the
        // final published KB is the one all post-quiescence ranks agree
        // with, bit-identically.
        let (kb, rules, users, docs) = fixture(3, 8);
        let service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        let service = &service;
        std::thread::scope(|scope| {
            // Two readers hammer users 0 and 1.
            for &user in &users[..2] {
                let docs = &docs;
                scope.spawn(move || {
                    for _ in 0..20 {
                        service.rank(user, docs, docs.len()).unwrap();
                    }
                });
            }
            // One writer keeps moving user 2's context.
            let writer_user = users[2];
            scope.spawn(move || {
                for i in 0..20 {
                    let p = 0.05 + 0.9 * (i as f64 / 20.0);
                    service
                        .assert(writer_user, Fact::ConceptProb("Ctx0".into(), p))
                        .unwrap();
                }
            });
        });
        assert_eq!(service.stats().asserts, 20);
        // Quiesced: every user's rank now matches the cold oracle over the
        // final published KB.
        let kb = service.kb();
        for &user in &users {
            let want = cold_rank(&kb, &rules, user, &docs, docs.len());
            let got = service.rank(user, &docs, docs.len()).unwrap();
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn snapshot_is_stable_across_a_concurrent_assert() {
        // A loaded snapshot is immutable: an assert that lands after the
        // load publishes a successor without touching the loaded state.
        let (kb, rules, users, docs) = fixture(1, 6);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let before = service.snapshot();
        let epoch = before.kb().epoch();
        service
            .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        assert_eq!(before.kb().epoch(), epoch, "loaded snapshot unchanged");
        let after = service.snapshot();
        assert!(after.kb().epoch() > epoch, "successor published");
        assert_eq!(
            before.kb().id(),
            after.kb().id(),
            "publish preserves KB identity, so caches survive"
        );
        drop(docs);
    }

    #[test]
    fn service_stats_add_and_sum() {
        let (kb, rules, users, docs) = fixture(2, 6);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        service.rank(users[0], &docs, docs.len()).unwrap();
        service
            .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.4))
            .unwrap();
        let one = service.stats();
        let two = one + one;
        assert_eq!(two.rank_requests, 2 * one.rank_requests);
        assert_eq!(two.asserts, 2 * one.asserts);
        assert_eq!(two.shard_lock_acquisitions, 2 * one.shard_lock_acquisitions);
        let summed: ServiceStats = [one, one, ServiceStats::default()].into_iter().sum();
        assert_eq!(summed, two);
    }

    #[test]
    fn clear_drops_state_but_keeps_serving() {
        let (kb, rules, users, docs) = fixture(2, 8);
        let mut service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        let before = service.rank(users[0], &docs, docs.len()).unwrap();
        service.clear();
        let stats = service.stats();
        assert_eq!(stats.sessions_live, 0);
        assert_eq!(stats.sessions.footprint.entries, 0);
        assert_eq!(
            (stats.rank_requests, stats.asserts),
            (0, 0),
            "clear resets the request counters with the caches, so one \
             stats snapshot never mixes pre- and post-clear epochs"
        );
        let after = service.rank(users[0], &docs, docs.len()).unwrap();
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn a_lane_only_rank_memoises_nothing_and_reads_a_context_once_per_binding() {
        use capra_events::EventExpr;

        let mut kb = Kb::new();
        let users = ["ann", "bob"].map(|name| {
            let u = kb.individual(name);
            kb.assert_concept_prob(u, "Ctx0", 0.3).unwrap();
            kb.assert_concept_prob(u, "Ctx1", 0.6).unwrap();
            kb.assert_concept_prob(u, "Ctx2", 0.45).unwrap();
            kb.assert_concept_prob(u, "Ctx3", 0.8).unwrap();
            u
        });
        // Re-asserting disjoins a fresh event: Ann's `Ctx2` is an `Or`.
        kb.assert_concept_prob(users[0], "Ctx2", 0.25).unwrap();
        let docs: Vec<_> = (0..10)
            .map(|i| {
                let d = kb.individual(&format!("doc{i}"));
                for (f, p) in [0.1, 0.5, 0.8].into_iter().enumerate() {
                    if (i + f) % 3 != 0 {
                        kb.assert_concept_prob(d, &format!("Feat{f}"), p + 0.01 * i as f64)
                            .unwrap();
                    }
                }
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        for (name, context, preference, sigma) in [
            ("R0", "Ctx0 OR Ctx1", "Feat0", 0.8),
            ("R1", "Ctx2", "Feat1", 0.3),
            ("R2", "NOT Ctx3", "Feat2", 0.65),
        ] {
            rules
                .add(PreferenceRule::new(
                    name,
                    kb.parse(context).unwrap(),
                    kb.parse(preference).unwrap(),
                    Score::new(sigma).unwrap(),
                ))
                .unwrap();
        }
        let service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        let [ann, bob] = users;
        let bound = || {
            let snap = service.snapshot();
            service
                .tenants
                .with_session(ann, false, |tenant| tenant.session.bind(&snap.env(ann)))
        };
        let composite = |g: &EventExpr| matches!(g, EventExpr::Or(_) | EventExpr::Not(_));
        assert!(bound().iter().all(|b| composite(&b.context_event)));
        for k in [3, docs.len()] {
            let want = cold_rank(&service.kb(), &rules, ann, &docs, k);
            let got = service.rank(ann, &docs, k).unwrap();
            assert_eq!(got, want, "k = {k}");
        }
        let stats = service.stats();
        assert_eq!(stats.sessions.batch.fallbacks, 0, "every document a lane");
        // Someone else's context switch: Ann is handed back the bindings
        // she had, which already hold their probabilities.
        let held = bound();
        assert!(held.iter().all(|b| b.cached_context_parts().is_some()));
        service
            .assert(bob, Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        service.rank(ann, &docs, 3).unwrap();
        let now = bound();
        assert!(held.iter().zip(now.iter()).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    /// A feature row keeps its cells' probabilities across a catalogue
    /// change: a cell whose event stands is read from the row, not
    /// evaluated again, and only a cell whose event changed is.
    #[test]
    fn a_catalogue_change_re_evaluates_only_the_cells_it_changed() {
        let mut kb = Kb::new();
        // Certain contexts: a conjunctive feature is then a lane of its
        // own, its probability read off its cell.
        let user = kb.individual("ann");
        kb.assert_concept(user, "CtxA");
        kb.assert_concept(user, "CtxB");
        let docs: Vec<_> = (0..6)
            .map(|i| {
                let d = kb.individual(&format!("doc{i}"));
                for (f, p) in [("Nice", 0.2), ("Fun", 0.6), ("Cheap", 0.3), ("Fast", 0.5)] {
                    kb.assert_concept_prob(d, f, p + 0.05 * i as f64).unwrap();
                }
                d
            })
            .collect();
        let outsider = kb.individual("outsider");
        let mut rules = RuleRepository::new();
        for (name, context, preference, sigma) in [
            ("A", "CtxA", "Nice AND Fun", 0.8),
            ("B", "CtxB", "Cheap AND Fast", 0.3),
        ] {
            rules
                .add(PreferenceRule::new(
                    name,
                    kb.parse(context).unwrap(),
                    kb.parse(preference).unwrap(),
                    Score::new(sigma).unwrap(),
                ))
                .unwrap();
        }
        let service = RankingService::new(LineageEngine::new(), kb, rules.clone());
        // Cells evaluated by the request `check` makes; the cold
        // reference reads rows of its own, on a clone.
        let check = || {
            let want = cold_rank(&(*service.kb()).clone(), &rules, user, &docs, docs.len());
            let before = service.kb().rows().evaluations();
            assert_eq!(service.rank(user, &docs, docs.len()).unwrap(), want);
            service.kb().rows().evaluations() - before
        };
        assert_eq!(check(), 2 * docs.len() as u64, "every cell, once");
        // B's view moves, but no candidate's event under it does: every
        // cell is read from its row.
        service
            .assert(outsider, Fact::ConceptProb("Cheap".into(), 0.9))
            .unwrap();
        assert_eq!(check(), 0, "no cell re-evaluated");
        // Now one candidate's B event changes: that cell alone is new.
        service
            .assert(docs[0], Fact::ConceptProb("Cheap".into(), 0.9))
            .unwrap();
        assert_eq!(check(), 1, "the changed cell is evaluated");
    }

    /// Two shoppers over six products, the commerce pack's flip rules in
    /// miniature: `F-gift: GiftShopping → Product AND Premium`,
    /// `F-bargain: BargainHunting → Product AND Discounted`.
    fn shop() -> (
        RankingService<LineageEngine>,
        [IndividualId; 2],
        Vec<IndividualId>,
    ) {
        let mut kb = Kb::new();
        let shoppers = ["ann", "bob"].map(|name| {
            let s = kb.individual(name);
            kb.assert_concept_prob(s, "GiftShopping", 0.4).unwrap();
            kb.assert_concept_prob(s, "BargainHunting", 0.6).unwrap();
            s
        });
        let products: Vec<_> = (0..6)
            .map(|i| {
                let p = kb.individual(&format!("product{i}"));
                kb.assert_concept(p, "Product");
                let tag = if i % 2 == 0 { "Premium" } else { "Discounted" };
                kb.assert_concept_prob(p, tag, 0.3 + 0.1 * i as f64)
                    .unwrap();
                p
            })
            .collect();
        let mut rules = RuleRepository::new();
        for (name, context, preference, sigma) in [
            ("F-gift", "GiftShopping", "Product AND Premium", 0.9),
            (
                "F-bargain",
                "BargainHunting",
                "Product AND Discounted",
                0.95,
            ),
        ] {
            rules
                .add(PreferenceRule::new(
                    name,
                    kb.parse(context).unwrap(),
                    kb.parse(preference).unwrap(),
                    Score::new(sigma).unwrap(),
                ))
                .unwrap();
        }
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        for shopper in shoppers {
            service.rank(shopper, &products, products.len()).unwrap();
        }
        (service, shoppers, products)
    }

    /// What one more full rank adds to the tenant's counters.
    fn rank_delta(
        service: &RankingService<LineageEngine>,
        user: IndividualId,
        docs: &[IndividualId],
    ) -> SessionStats {
        let before = service.tenant_stats(user).unwrap();
        service.rank(user, docs, docs.len()).unwrap();
        let after = service.tenant_stats(user).unwrap();
        SessionStats {
            bindings: crate::CacheStats {
                hits: after.bindings.hits - before.bindings.hits,
                misses: after.bindings.misses - before.bindings.misses,
            },
            scores: crate::CacheStats {
                hits: after.scores.hits - before.scores.hits,
                misses: after.scores.misses - before.scores.misses,
            },
            ..SessionStats::default()
        }
    }

    #[test]
    fn a_context_switch_costs_only_the_switcher_one_rebind() {
        let (service, [ann, bob], products) = shop();
        let n = products.len() as u64;
        service
            .assert(ann, Fact::ConceptProb("GiftShopping".into(), 0.8))
            .unwrap();
        // The `GiftShopping` table moved, so Bob's F-gift binding is
        // re-checked — a point look-up of *his* row, which did not change:
        // he is handed the bindings he had and his scores stay cached.
        let bob_next = rank_delta(&service, bob, &products);
        assert_eq!(
            (bob_next.bindings.misses, bob_next.bindings.hits),
            (0, 2),
            "someone else's context switch re-binds nothing of Bob's"
        );
        assert_eq!(
            (bob_next.scores.misses, bob_next.scores.hits),
            (0, n),
            "unchanged bindings keep the pointer-keyed score cache warm"
        );
        // Ann's own row changed: exactly the rule that reads it re-binds.
        let ann_next = rank_delta(&service, ann, &products);
        assert_eq!(
            (ann_next.bindings.misses, ann_next.bindings.hits),
            (1, 1),
            "F-gift re-binds for Ann; F-bargain reads BargainHunting only"
        );
        assert_eq!(ann_next.scores.misses, n, "a new binding re-scores");
        // And it is paid once: the ranks after are the one-compare path.
        for shopper in [ann, bob] {
            let again = rank_delta(&service, shopper, &products);
            assert_eq!((again.bindings.misses, again.scores.misses), (0, 0));
        }
        let want = cold_rank(&service.kb(), &service.rules(), ann, &products, 6);
        let got = service.rank(ann, &products, 6).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!((a.doc, a.score.to_bits()), (b.doc, b.score.to_bits()));
        }
    }

    #[test]
    fn another_tenants_assert_hands_back_the_same_binding_list() {
        let (service, [ann, bob], products) = shop();
        let bound = |user| {
            let snap = service.snapshot();
            service
                .tenants
                .with_session(user, false, |tenant| tenant.session.bind(&snap.env(user)))
        };
        let held = [ann, bob].map(bound);
        service
            .assert(ann, Fact::ConceptProb("GiftShopping".into(), 0.8))
            .unwrap();
        // A new plan set, against which nothing of Bob's moved: the list he
        // holds is still the list, and that one pointer keeps his scores.
        assert!(Arc::ptr_eq(&held[1], &bound(bob)));
        let next = rank_delta(&service, bob, &products).scores;
        assert_eq!((next.misses, next.hits), (0, products.len() as u64));
        // Ann's F-gift binding is a new one, so her list is too.
        let now = bound(ann);
        assert!(!Arc::ptr_eq(&held[0], &now));
        assert!(!Arc::ptr_eq(&held[0][0], &now[0]) && Arc::ptr_eq(&held[0][1], &now[1]));
    }

    #[test]
    fn a_catalog_change_re_derives_its_views_once_for_all_tenants() {
        let (service, shoppers, products) = shop();
        service
            .assert(products[1], Fact::ConceptProb("Premium".into(), 0.5))
            .unwrap();
        let derived = || service.kb().views().derived();
        let (before, slots) = (derived(), service.kb().views().len());
        let first = rank_delta(&service, shoppers[0], &products);
        assert_eq!(
            (first.bindings.misses, first.bindings.hits),
            (1, 1),
            "only F-gift's preference footprint holds `Premium`"
        );
        assert_eq!(
            derived() - before,
            2,
            "the `Premium` table's view and `Product AND Premium` over it; \
             `Product` and F-bargain's views are still valid"
        );
        let shared = derived();
        let second = rank_delta(&service, shoppers[1], &products);
        assert_eq!((second.bindings.misses, second.bindings.hits), (1, 1));
        assert_eq!(
            derived(),
            shared,
            "the second tenant takes the views the first one derived"
        );
        assert_eq!(
            service.kb().views().len(),
            slots,
            "a re-derived view replaces its predecessor: one slot per concept"
        );
        let snap = service.snapshot();
        let [a, b] = shoppers.map(|shopper| {
            service.tenants.with_session(shopper, false, |tenant| {
                tenant.session.bind(&snap.env(shopper))
            })
        });
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                Arc::ptr_eq(&x.preference_events, &y.preference_events),
                "{}: one view `Arc` for every tenant",
                x.name
            );
        }
    }

    #[test]
    fn tenants_share_one_plan_resolve_per_kb_state() {
        let (kb, rules, users, docs) = fixture(50, 6);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let counters = || {
            let kb = service.kb();
            (kb.plans().resolved(), kb.views().derived())
        };
        let rank_all = || {
            for &user in &users {
                service.rank(user, &docs, 3).unwrap();
            }
        };
        rank_all();
        assert_eq!(
            counters(),
            (1, 3),
            "50 first sights: one resolve, and `Feat0`, `Feat1` and their \
             conjunction derived once"
        );
        // A context switch moves the epoch and only its subject's own row,
        // which no plan reads as shared: the set is kept, so nobody who
        // ranks after it resolves, and no view is derived.
        service
            .assert(users[7], Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        rank_all();
        rank_all();
        assert_eq!(counters(), (1, 3));
        // A document's feature is shared: one more resolve however many
        // tenants rank after it, and the two views over `Feat1` derived
        // again once.
        service
            .assert(docs[2], Fact::ConceptProb("Feat1".into(), 0.5))
            .unwrap();
        rank_all();
        rank_all();
        assert_eq!(counters(), (2, 5));
    }

    #[test]
    fn rule_edits_at_an_unchanged_epoch_re_bind_only_the_edited_rule() {
        let (service, shoppers, products) = shop();
        let epoch = service.kb().binding_epoch();
        let bound = |user| {
            let snap = service.snapshot();
            service
                .tenants
                .with_session(user, false, |tenant| tenant.session.bind(&snap.env(user)))
        };
        let named = |bindings: &[Arc<crate::RuleBinding>], name: &str| {
            Arc::clone(bindings.iter().find(|b| b.name == name).unwrap())
        };
        let mut held = shoppers.map(bound);
        // Every tenant re-binds `changed` rules and is handed back the rest
        // as they were; what it is served is the cold bind's, bit for bit.
        let mut step = |what: &str, changed: u64, kept: &[&str]| {
            assert_eq!(service.kb().binding_epoch(), epoch, "{what}");
            for (user, held) in shoppers.into_iter().zip(&mut held) {
                let delta = rank_delta(&service, user, &products).bindings;
                let rules = service.rules().len() as u64;
                assert_eq!(
                    (delta.misses, delta.hits),
                    (changed, rules - changed),
                    "{what}"
                );
                let now = bound(user);
                for name in kept {
                    assert!(
                        Arc::ptr_eq(&named(held, name), &named(&now, name)),
                        "{what}: {name} is handed back as the same `Arc`"
                    );
                }
                *held = now;
                let n = products.len();
                let want = cold_rank(&service.kb(), &service.rules(), user, &products, n);
                let got = service.rank(user, &products, n).unwrap();
                for (a, b) in want.iter().zip(&got) {
                    assert_eq!((a.doc, a.score.to_bits()), (b.doc, b.score.to_bits()));
                }
            }
        };
        let resolved = service.kb().plans().resolved();
        let gift = service.remove_rule("F-gift").unwrap();
        let resigma = PreferenceRule {
            sigma: Score::new(0.5).unwrap(),
            ..gift.clone()
        };
        service.add_rule(resigma).unwrap();
        step("same name, another σ", 1, &["F-bargain"]);
        service.remove_rule("F-gift").unwrap();
        let bargain = service.rules().get("F-bargain").unwrap().clone();
        let reworded = PreferenceRule {
            name: "F-gift".into(),
            sigma: gift.sigma,
            ..bargain
        };
        service.add_rule(reworded).unwrap();
        step("same name, other concepts", 1, &["F-bargain"]);
        let unrelated = PreferenceRule {
            name: "F-new".into(),
            ..gift
        };
        service.add_rule(unrelated).unwrap();
        step("an unrelated rule", 1, &["F-bargain", "F-gift"]);
        assert_eq!(
            service.kb().plans().resolved() - resolved,
            3,
            "one resolve per published repository that was ranked against"
        );
    }

    #[test]
    fn rule_updates_apply_to_subsequent_requests() {
        let (kb, rules, users, docs) = fixture(1, 6);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        let before = service.rank(users[0], &docs, docs.len()).unwrap();
        let removed = service.remove_rule("R0").unwrap();
        let after = service.rank(users[0], &docs, docs.len()).unwrap();
        assert_ne!(
            before.iter().map(|s| s.score.to_bits()).collect::<Vec<_>>(),
            after.iter().map(|s| s.score.to_bits()).collect::<Vec<_>>(),
            "dropping an applicable rule changes scores"
        );
        service.add_rule(removed).unwrap();
        let restored = service.rank(users[0], &docs, docs.len()).unwrap();
        for (a, b) in before.iter().zip(&restored) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    /// Fresh scratch directory for a durability test (removed first, so a
    /// previous failed run can't leak state in).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("capra-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Builds the `fixture(3, 8)` state through the durable mutation API,
    /// so every step lands in the WAL.
    fn populate_durable(
        service: &RankingService<LineageEngine>,
    ) -> (Vec<IndividualId>, Vec<IndividualId>) {
        let (n_users, n_docs) = (3, 8);
        let users: Vec<_> = (0..n_users)
            .map(|i| {
                let u = service.individual(&format!("user{i}"));
                service
                    .assert(
                        u,
                        Fact::ConceptProb("Ctx0".into(), 0.2 + 0.5 * (i as f64 / n_users as f64)),
                    )
                    .unwrap();
                if i % 2 == 0 {
                    service.assert(u, Fact::Concept("Ctx1".into())).unwrap();
                }
                u
            })
            .collect();
        let docs: Vec<_> = (0..n_docs)
            .map(|i| {
                let d = service.individual(&format!("doc{i}"));
                service
                    .assert(
                        d,
                        Fact::ConceptProb("Feat0".into(), 0.1 + 0.8 * (i as f64 / n_docs as f64)),
                    )
                    .unwrap();
                service
                    .assert(
                        d,
                        Fact::ConceptProb("Feat1".into(), 0.9 - 0.7 * (i as f64 / n_docs as f64)),
                    )
                    .unwrap();
                d
            })
            .collect();
        let (ctx0, feat0) = (
            service.parse("Ctx0").unwrap(),
            service.parse("Feat0").unwrap(),
        );
        service
            .add_rule(PreferenceRule::new(
                "R0",
                ctx0,
                feat0,
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        let (ctx1, both) = (
            service.parse("Ctx1").unwrap(),
            service.parse("Feat0 AND Feat1").unwrap(),
        );
        service
            .add_rule(PreferenceRule::new(
                "R1",
                ctx1,
                both,
                Score::new(0.4).unwrap(),
            ))
            .unwrap();
        (users, docs)
    }

    #[test]
    fn durable_snapshot_plus_wal_suffix_restores_bit_identical_scores() {
        let dir = scratch_dir("roundtrip");
        let service = RankingService::open_durable(
            LineageEngine::new(),
            ServiceConfig::default(),
            &dir,
            FlushPolicy::EveryRecord,
        )
        .unwrap();
        assert!(service.is_durable());
        let (users, docs) = populate_durable(&service);
        for &u in &users {
            service.rank(u, &docs, docs.len()).unwrap();
        }
        service.save_snapshot().unwrap();
        // Post-snapshot mutations land only in the WAL.
        service
            .assert(users[1], Fact::ConceptProb("Ctx0".into(), 0.99))
            .unwrap();
        service.remove_rule("R1").unwrap();
        let want: Vec<Vec<DocScore>> = users
            .iter()
            .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
            .collect();
        let epoch = service.kb().epoch();
        drop(service); // crash point: nothing after the last append survives

        let restored = RankingService::open_durable(
            LineageEngine::new(),
            ServiceConfig::default(),
            &dir,
            FlushPolicy::EveryRecord,
        )
        .unwrap();
        assert_eq!(restored.kb().epoch(), epoch);
        let wal = restored.stats().wal;
        assert_eq!(
            (wal.records_replayed, wal.records_truncated),
            (2, 0),
            "only the post-snapshot suffix replays: {wal:?}"
        );
        // Snapshot-covered tenants boot warm: the first rank adds no new
        // binding misses.
        for &u in &users {
            let u = restored
                .kb()
                .voc
                .find_individual(restored.kb().voc.individual_name(u))
                .unwrap();
            let misses_at_boot = restored.tenant_stats(u).unwrap().bindings.misses;
            restored.rank(u, &docs, docs.len()).unwrap();
            assert_eq!(
                restored.tenant_stats(u).unwrap().bindings.misses,
                misses_at_boot,
                "warm-seeded tenant must not cold-bind on its first rank"
            );
        }
        for (&u, want) in users.iter().zip(&want) {
            let got = restored.rank(u, &docs, docs.len()).unwrap();
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_keeps_wal_attached_and_sequence_continuous() {
        let dir = scratch_dir("clear");
        let mut service = RankingService::open_durable(
            LineageEngine::new(),
            ServiceConfig::default(),
            &dir,
            FlushPolicy::EveryRecord,
        )
        .unwrap();
        let (users, _docs) = populate_durable(&service);
        let appended_before = service.stats().wal.records_appended;
        assert!(appended_before > 0);

        service.clear();
        assert_eq!(
            service.stats().wal,
            WalStats::default(),
            "clear resets WAL counters with the other stats"
        );
        assert!(service.is_durable(), "clear must not detach the log");
        assert_eq!(service.rules().len(), 2, "clear keeps KB and rules");

        // Post-clear mutations keep appending to the same log...
        service
            .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.5))
            .unwrap();
        assert_eq!(service.stats().wal.records_appended, 1);
        let epoch = service.kb().epoch();
        drop(service);

        // ...and the sequence numbering stayed continuous: recovery (which
        // enforces seq continuity) replays every record, before and after
        // the clear.
        let restored = RankingService::open_durable(
            LineageEngine::new(),
            ServiceConfig::default(),
            &dir,
            FlushPolicy::EveryRecord,
        )
        .unwrap();
        let wal = restored.stats().wal;
        assert_eq!(wal.records_truncated, 0, "{wal:?}");
        assert_eq!(wal.records_replayed, appended_before + 1, "{wal:?}");
        assert_eq!(restored.kb().epoch(), epoch);
        assert_eq!(restored.rules().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_snapshot_requires_durable_service() {
        let (kb, rules, _, _) = fixture(1, 2);
        let service = RankingService::new(LineageEngine::new(), kb, rules);
        assert!(!service.is_durable());
        assert!(service.save_snapshot().is_err());
    }
}
