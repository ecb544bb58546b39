//! Parallel scoring across documents — work-stealing shards over a shared
//! evaluation-cache tier.
//!
//! The scoring formula is embarrassingly parallel over documents, but a
//! naive fork loses the memoisation advantage the sequential path enjoys:
//! every worker that starts from a cold [`EvalScratch`] re-derives the
//! context sub-problems the sequential evaluator computes once. This module
//! closes that gap with three pieces:
//!
//! * **Work-stealing document queue** — instead of dealing documents to
//!   workers statically (round-robin striding), workers pull fixed-size
//!   chunks from an atomic cursor. A worker that lands on cheap documents
//!   steals more chunks; a straggler never pins the tail of the queue. The
//!   queue is an index range, so "stealing" is one `fetch_add` — no locks,
//!   no per-document allocation.
//! * **Shared evaluation-cache tier** — a [`ScratchPool`] hands every
//!   worker an [`EvalScratch`] whose memo tables are empty *overlays* over
//!   frozen, read-only snapshots ([`capra_events::FrozenEvalCache`] /
//!   [`capra_events::FrozenExpectCache`]) shared via `Arc`. Lookups consult
//!   the snapshot lock-free before the private overlay; after a run the
//!   overlays are **merged and republished** as the next snapshot, so
//!   repeated runs (and the first phase of top-k, which runs before the
//!   fork) share sub-problems *across* threads and calls. Merging is
//!   deterministic: every memo entry is a pure function of its hash-consed
//!   key, so duplicate entries from different workers carry bit-identical
//!   values and merge order cannot matter — parallel results stay
//!   bit-identical to sequential ones.
//! * **[`ParallelScoringSession`]** — the parallel twin of
//!   [`crate::ScoringSession`]: cached rule bindings (invalidated by KB
//!   epoch), the pooled snapshot tier, and a per-document score cache, so a
//!   warm parallel `score_all` is a table lookup and a mutated-KB call only
//!   recomputes what the mutation invalidated.
//!
//! **Universe affinity.** Snapshots memoise probabilities over one
//! universe's variables; reusing them against a different KB would alias
//! variable ids. The pool therefore keys its snapshots by [`crate::Kb::id`]
//! and resets when a different KB shows up — the same invariant
//! [`EvalScratch::ensure_kb`] enforces for sequential scratches. *Further
//! declarations on the same KB are safe* (declared variables are immutable
//! and new variables cannot occur in already-interned expressions), which
//! is why snapshots survive KB mutations that merely bump epochs.
//!
//! [`rank_top_k_parallel`] forks only the part of [`crate::rank_top_k`]
//! that is worth a thread. The first phase — one closed-form engine sweep
//! over every candidate, and the bounds of the documents it deferred — runs
//! on the calling thread; a request with nothing deferred ends there and
//! spawns nobody. Deferred documents are scanned by
//! `effective_threads(threads, deferred)` workers, each pruning against the
//! *best k-th score proven so far*: a shared atomic cell that starts at
//! the k-th closed-form score and is raised by any worker holding `k`
//! scores, so one worker finding strong candidates shrinks everyone's
//! work. The first phase's memos are republished before the fork, so every
//! worker's snapshot starts from them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use capra_dl::IndividualId;
use capra_events::{
    BatchStats, CacheFootprint, EvalCache, EvictionPolicy, ExpectCache, FrozenEvalCache,
    FrozenExpectCache,
};

use crate::bind::{bind_rules_shared, RuleBinding};
use crate::engines::{rank, DocScore, EvalScratch, ScoringEngine};
use crate::session::{read_through_scores, BindingCache, ScoreCache, SessionStats};
use crate::topk::TopK;
use crate::{Kb, Result, ScoringEnv};

/// Clamps a requested worker count to something useful for `docs`
/// documents: at least one worker, and never more workers than documents.
pub(crate) fn effective_threads(threads: usize, docs: usize) -> usize {
    threads.max(1).min(docs.max(1))
}

/// Size of the chunks workers steal from the document queue: small enough
/// that `threads` workers re-balance several times per run, large enough
/// that the atomic cursor and the per-chunk result allocation stay noise.
pub(crate) fn steal_chunk(docs: usize, threads: usize) -> usize {
    docs.div_ceil(threads.max(1) * 4).clamp(1, 256)
}

/// Sizes of a [`ScratchPool`]'s current frozen snapshots, as reported by
/// [`ScratchPool::snapshot_stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshotStats {
    /// Entries in the frozen probability snapshot.
    pub prob_entries: usize,
    /// Entries in the frozen expectation snapshot, counting both
    /// factor-group entries and its embedded probability memo.
    pub expect_entries: usize,
    /// Republishes that actually merged new entries (fully warm runs merge
    /// nothing and do not count).
    pub publishes: u64,
}

impl PoolSnapshotStats {
    /// Total snapshot entries across both memo layers.
    pub fn entries(&self) -> usize {
        self.prob_entries + self.expect_entries
    }
}

/// Aggregate state of one [`ScratchPool`] snapshot generation.
#[derive(Default)]
struct PoolInner {
    /// `Kb::id` the snapshots were computed over; 0 = not yet bound.
    kb_id: u64,
    /// `Kb::binding_epoch` observed at the latest checkout: the epoch the
    /// next republish tags its tier with, and the reference point for
    /// [`EvictionPolicy`] staleness.
    epoch: u64,
    /// Frozen probability tier handed to workers (see module docs).
    prob: Arc<FrozenEvalCache>,
    /// Frozen expectation tier handed to workers.
    expect: Arc<FrozenExpectCache>,
    /// Overlays returned by workers, awaiting the next republish.
    pending: Vec<EvalScratch>,
    /// Republishes that actually merged new entries (for inspection).
    publishes: u64,
    /// Batch counters drained from returned scratches.
    batch: BatchStats,
}

/// A pool of reusable evaluation state for parallel scoring: frozen memo
/// snapshots shared by all workers plus the merge-and-republish machinery
/// that folds worker overlays back into the shared tier after each run
/// (see the module docs for the design and its determinism argument).
///
/// The pool is internally synchronised — checkout/return take a short lock,
/// while all memo *lookups* during scoring go through the lock-free frozen
/// snapshots. One pool serves one KB at a time (universe affinity): handing
/// it a different KB resets the snapshots.
#[derive(Default)]
pub struct ScratchPool {
    inner: Mutex<PoolInner>,
    /// Eviction policy applied at each republish (see
    /// [`capra_events::tier`] for the tier-ageing semantics).
    policy: EvictionPolicy,
}

impl ScratchPool {
    /// Creates an empty pool with the default [`EvictionPolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool whose republishes evict per `policy`
    /// ([`EvictionPolicy::Never`] reproduces the grow-only pre-eviction
    /// behaviour exactly).
    pub fn with_policy(policy: EvictionPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The eviction policy applied by this pool's republishes.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Batch counters drained from every scratch returned to
    /// the pool (monotonic across KB changes and republishes).
    pub fn batch_stats(&self) -> BatchStats {
        self.lock().batch
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A worker panic while holding the lock cannot corrupt the pool
        // (mutations are single assignments/pushes), so poisoning is
        // ignored — like parking_lot.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands out a scratch for scoring against `kb`: an empty private
    /// overlay over the pool's current frozen snapshots. Resets the pool
    /// first if it was serving a different KB.
    pub(crate) fn checkout(&self, kb: &Kb) -> EvalScratch {
        let mut inner = self.lock();
        if inner.kb_id != kb.id() {
            *inner = PoolInner {
                kb_id: kb.id(),
                // Batch counters describe work done, not cached state:
                // they stay monotonic across a KB reset.
                batch: inner.batch,
                ..PoolInner::default()
            };
        }
        inner.epoch = kb.binding_epoch();
        EvalScratch::with_snapshots(kb.id(), Arc::clone(&inner.prob), Arc::clone(&inner.expect))
    }

    /// Returns a worker's scratch, parking its overlay for the next
    /// [`ScratchPool::republish`]. Scratches that migrated to a different
    /// KB mid-flight (or were never bound) are discarded — their entries
    /// would violate universe affinity.
    pub(crate) fn give_back(&self, mut scratch: EvalScratch) {
        let mut inner = self.lock();
        // Work counters are drained even from scratches whose memo overlay
        // is discarded below — the sweeps ran either way.
        inner.batch += scratch.take_batch_stats();
        if scratch.kb_id() == inner.kb_id && inner.kb_id != 0 {
            inner.pending.push(scratch);
        }
    }

    /// Merges every parked overlay into the frozen snapshots and publishes
    /// the result as the tier subsequent checkouts see. Deterministic (see
    /// module docs); a no-op when every overlay is empty, so fully warm
    /// runs never pay the merge.
    pub(crate) fn republish(&self) {
        let mut inner = self.lock();
        let pending = std::mem::take(&mut inner.pending);
        let mut prob_overlays = Vec::with_capacity(pending.len());
        let mut expect_overlays = Vec::with_capacity(pending.len());
        for scratch in pending {
            let (_, prob, expect) = scratch.into_parts();
            if !prob.is_empty() {
                prob_overlays.push(prob);
            }
            if !expect.is_empty() {
                expect_overlays.push(expect);
            }
        }
        if prob_overlays.is_empty() && expect_overlays.is_empty() {
            return;
        }
        let (epoch, policy) = (inner.epoch, self.policy);
        if !prob_overlays.is_empty() {
            inner.prob =
                FrozenEvalCache::merged_with(Some(&inner.prob), prob_overlays, epoch, policy);
        }
        if !expect_overlays.is_empty() {
            inner.expect =
                FrozenExpectCache::merged_with(Some(&inner.expect), expect_overlays, epoch, policy);
        }
        inner.publishes += 1;
    }

    /// Publishes externally produced memo overlays (entries decoded from a
    /// persisted snapshot and re-interned against this process's expression
    /// interner) as the pool's frozen tier — the recovery path of
    /// [`crate::serve::RankingService::open_durable`]. Goes through the
    /// ordinary checkout → give-back → republish cycle, so the imported
    /// tier is epoch-tagged and evicted exactly like one produced by a
    /// scoring run.
    pub(crate) fn install_snapshot(&self, kb: &Kb, prob: EvalCache, expect: ExpectCache) {
        let mut scratch = self.checkout(kb);
        scratch.import_overlays(prob, expect);
        self.give_back(scratch);
        self.republish();
    }

    /// Exports the current frozen tier as plain `(expression, value)`
    /// data for the persistence layer — the inverse of
    /// [`ScratchPool::install_snapshot`]. Empty when the pool is serving a
    /// different KB (or none): a tier is only meaningful alongside the KB
    /// it was computed against.
    pub(crate) fn export_tier(&self, kb: &Kb) -> crate::persist::snapshot::TierExport {
        let inner = self.lock();
        if inner.kb_id != kb.id() {
            return crate::persist::snapshot::TierExport::default();
        }
        crate::persist::snapshot::TierExport {
            prob: inner.prob.export_probs(),
            pivots: inner.prob.export_pivots(),
            inner_prob: inner.expect.eval().export_probs(),
            inner_pivots: inner.expect.eval().export_pivots(),
            groups: inner.expect.export_groups(),
        }
    }

    /// Sizes of the current frozen snapshots and how often they were
    /// republished (named fields — see [`PoolSnapshotStats`]).
    pub fn snapshot_stats(&self) -> PoolSnapshotStats {
        let inner = self.lock();
        PoolSnapshotStats {
            prob_entries: inner.prob.len(),
            expect_entries: inner.expect.len() + inner.expect.eval().len(),
            publishes: inner.publishes,
        }
    }

    /// Snapshot-tier and memo-entry footprint of the pool: both frozen
    /// chains plus any worker overlays parked for the next republish
    /// (overlay-only for those — every parked scratch shares the pool's
    /// own chains, which are counted once).
    pub fn footprint(&self) -> CacheFootprint {
        let inner = self.lock();
        let mut footprint = inner.prob.footprint() + inner.expect.footprint();
        for scratch in &inner.pending {
            footprint += scratch.overlay_footprint();
        }
        footprint
    }
}

/// Scores documents on `threads` worker threads, preserving input order.
///
/// One-shot entry point: allocates a throwaway [`ScratchPool`], so repeated
/// calls re-derive shared state. Serving loops should hold a
/// [`ParallelScoringSession`] instead.
pub fn score_all_parallel<E>(
    engine: &E,
    env: &ScoringEnv<'_>,
    docs: &[IndividualId],
    threads: usize,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + Sync + ?Sized,
{
    let pool = ScratchPool::new();
    let bindings = bind_rules_shared(env);
    // The pool dies with this call: skip the final merge-and-republish,
    // its output could never be read.
    score_all_bound_parallel(engine, env, &bindings, docs, threads, &pool, false)
}

/// [`score_all_parallel`] over already-bound rules and a caller-managed
/// pool — the prepared entry point driven by [`ParallelScoringSession`].
/// `publish` selects whether worker overlays are merged back into the
/// pool's snapshot tier after the run; one-shot callers with a throwaway
/// pool pass `false` to skip paying for a merge nobody will read.
#[allow(clippy::too_many_arguments)] // crate-internal plumbing
pub(crate) fn score_all_bound_parallel<E>(
    engine: &E,
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
    threads: usize,
    pool: &ScratchPool,
    publish: bool,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + Sync + ?Sized,
{
    let threads = effective_threads(threads, docs.len());
    if threads == 1 {
        let mut scratch = pool.checkout(env.kb);
        let out = engine.score_all_bound(env, bindings, docs, &mut scratch);
        if publish {
            pool.give_back(scratch);
            pool.republish();
        }
        return out;
    }
    let chunk = steal_chunk(docs.len(), threads);
    let cursor = AtomicUsize::new(0);
    // Raised by the first worker that hits an engine error: the remaining
    // workers stop stealing instead of scoring doomed chunks to completion.
    let failed = std::sync::atomic::AtomicBool::new(false);
    // Each worker returns the chunks it scored, tagged with their start
    // offsets, plus the error that stopped it (if any).
    type WorkerOut = (
        Vec<(usize, Vec<DocScore>)>,
        Option<(usize, crate::CoreError)>,
    );
    let worker_outputs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let failed = &failed;
                scope.spawn(move || {
                    let mut scratch = pool.checkout(env.kb);
                    let mut parts = Vec::new();
                    let mut error = None;
                    while !failed.load(Ordering::Relaxed) {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= docs.len() {
                            break;
                        }
                        let end = (start + chunk).min(docs.len());
                        match engine.score_all_bound(env, bindings, &docs[start..end], &mut scratch)
                        {
                            Ok(scores) => parts.push((start, scores)),
                            Err(e) => {
                                failed.store(true, Ordering::Relaxed);
                                error = Some((start, e));
                                break;
                            }
                        }
                    }
                    pool.give_back(scratch);
                    (parts, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoring worker panicked"))
            .collect()
    });
    if publish {
        pool.republish();
    }
    // The minimum-offset error is the error the sequential path would have
    // raised: the cursor hands chunks out in offset order, every chunk
    // claimed before the abort flag rose runs to completion (workers only
    // check the flag between chunks), and engines validate documents in
    // order within a chunk — so the earliest invalid document's chunk
    // always reports.
    let mut first_error: Option<(usize, crate::CoreError)> = None;
    let mut parts: Vec<(usize, Vec<DocScore>)> = Vec::new();
    for (worker_parts, worker_error) in worker_outputs {
        parts.extend(worker_parts);
        if let Some((start, e)) = worker_error {
            if first_error.as_ref().is_none_or(|(s, _)| start < *s) {
                first_error = Some((start, e));
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(docs.len());
    for (_, scores) in parts {
        out.extend(scores);
    }
    Ok(out)
}

/// The exact top `k` of `rank(score_all(docs))`: the closed-form first
/// phase on the calling thread, then up to `threads` workers stealing
/// batches of the bound-sorted deferred documents, with cross-worker
/// threshold sharing (see module docs).
///
/// One-shot entry point (throwaway [`ScratchPool`]); the first phase still
/// pre-seeds the workers' shared snapshot within the call. Serving loops
/// should hold a [`ParallelScoringSession`].
pub fn rank_top_k_parallel<E>(
    engine: &E,
    env: &ScoringEnv<'_>,
    docs: &[IndividualId],
    k: usize,
    threads: usize,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + Sync + ?Sized,
{
    let pool = ScratchPool::new();
    let bindings = bind_rules_shared(env);
    // The pool dies with this call: the pre-fork seeding republish inside
    // still runs (workers read it), but the final one is skipped.
    rank_top_k_bound_parallel(engine, env, &bindings, docs, k, threads, &pool, false)
}

/// [`rank_top_k_parallel`] over already-bound rules and a caller-managed
/// pool — the prepared entry point driven by [`ParallelScoringSession`].
/// `publish` selects whether worker overlays are merged back into the
/// pool's snapshot tier after the run (see
/// [`score_all_bound_parallel`]); the pre-fork seeding republish runs
/// either way, because the workers of *this* call consume it.
#[allow(clippy::too_many_arguments)] // crate-internal plumbing
pub(crate) fn rank_top_k_bound_parallel<E>(
    engine: &E,
    env: &ScoringEnv<'_>,
    bindings: &[Arc<RuleBinding>],
    docs: &[IndividualId],
    k: usize,
    threads: usize,
    pool: &ScratchPool,
    publish: bool,
) -> Result<Vec<DocScore>>
where
    E: ScoringEngine + Sync + ?Sized,
{
    // The first phase runs here, on the calling thread: one closed-form
    // pass over every candidate, plus the bounds of whatever the engine
    // deferred. Only deferred documents are worth a fork.
    let mut scratch = pool.checkout(env.kb);
    let first = TopK::first_phase(env, engine, bindings, docs, k, &mut scratch);
    let workers = first
        .as_ref()
        .map_or(1, |top_k| effective_threads(threads, top_k.deferred()));
    let top_k = match first {
        Ok(top_k) if workers > 1 => top_k,
        settled => {
            // Nothing (or a single document) deferred, or an error: this
            // thread finishes on the same scratch and spawns nobody.
            let out = settled.and_then(|top_k| top_k.finish(&mut scratch));
            if publish {
                pool.give_back(scratch);
                pool.republish();
            }
            return out;
        }
    };
    // Publish the first phase's memos (context probabilities, typically)
    // before the fork, so every worker's snapshot already contains them.
    pool.give_back(scratch);
    pool.republish();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let top_k = &top_k;
                scope.spawn(move || {
                    let mut scratch = pool.checkout(env.kb);
                    let out = top_k.scan(&mut scratch, Vec::new());
                    pool.give_back(scratch);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("top-k worker panicked"))
            .collect::<Result<Vec<Vec<DocScore>>>>()
    });
    if publish {
        pool.republish();
    }
    Ok(top_k.merge(results?))
}

/// The parallel twin of [`crate::ScoringSession`]: cached rule bindings and
/// per-document scores layered over a [`ScratchPool`]'s shared snapshot
/// tier, so repeated parallel `score_all`/`rank_top_k` calls amortise
/// binding, evaluation *and* cross-thread memo state.
///
/// All layers are behaviour-preserving: scores are bit-identical to a cold
/// sequential `score_all` (property-tested in
/// `tests/session_consistency.rs`), because every cached value is the value
/// the cold path would deterministically recompute.
///
/// **Memory:** snapshot tiers are tagged with the KB binding epoch that
/// produced them, and republishes age out tiers untouched beyond the
/// session's [`EvictionPolicy`] (default:
/// [`EvictionPolicy::DEFAULT_MAX_AGE`] epochs) whenever a compaction or
/// fold rewrites the chain anyway. Entries keyed by expressions of
/// superseded assertions — never read again once a re-asserted fact mints
/// fresh variables — age out instead of being recopied forever, so a
/// serving loop that mutates the KB every call keeps a *bounded* footprint
/// without the old manual-[`ParallelScoringSession::clear`] workaround,
/// while stable-KB workloads (no epoch movement) keep every entry and hit
/// rate exactly as before. Inspect via [`SessionStats::footprint`].
///
/// ```
/// use capra_core::parallel::ParallelScoringSession;
/// use capra_core::{
///     FactorizedEngine, Kb, PreferenceRule, RuleRepository, Score, ScoringEnv,
/// };
///
/// let mut kb = Kb::new();
/// let user = kb.individual("peter");
/// kb.assert_concept(user, "Weekend");
/// let docs: Vec<_> = (0..32)
///     .map(|i| {
///         let d = kb.individual(&format!("doc{i}"));
///         kb.assert_concept_prob(d, "Nice", 0.1 + 0.02 * i as f64).unwrap();
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
/// let engine = FactorizedEngine::new();
/// let mut session = ParallelScoringSession::new(4);
/// let env = ScoringEnv { kb: &kb, rules: &rules, user };
/// let cold = session.score_all(&engine, &env, &docs).unwrap();
/// let warm = session.score_all(&engine, &env, &docs).unwrap(); // cache hits
/// assert_eq!(cold[0].score.to_bits(), warm[0].score.to_bits());
/// assert!(session.stats().scores.hits >= docs.len() as u64);
/// ```
pub struct ParallelScoringSession {
    threads: usize,
    bindings: BindingCache,
    pool: ScratchPool,
    scores: ScoreCache,
}

impl ParallelScoringSession {
    /// Creates an empty session that fans work out over `threads` workers
    /// (clamped per call to the document count; `1` degrades gracefully to
    /// a sequential session over the pooled snapshot), with the default
    /// [`EvictionPolicy`] bounding the snapshot tier under KB mutation.
    pub fn new(threads: usize) -> Self {
        Self::with_policy(threads, EvictionPolicy::default())
    }

    /// Creates an empty session whose snapshot republishes evict per
    /// `policy` ([`EvictionPolicy::Never`] reproduces the grow-only
    /// pre-eviction behaviour exactly).
    pub fn with_policy(threads: usize, policy: EvictionPolicy) -> Self {
        Self {
            threads: threads.max(1),
            bindings: BindingCache::new(),
            pool: ScratchPool::with_policy(policy),
            scores: ScoreCache::default(),
        }
    }

    /// Work counters accumulated so far, plus the pool's current
    /// snapshot-tier footprint (see [`SessionStats::footprint`]).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            bindings: self.bindings.stats(),
            scores: self.scores.stats(),
            footprint: self.pool.footprint(),
            batch: self.pool.batch_stats(),
            wal: crate::persist::WalStats::default(),
        }
    }

    /// The session's shared snapshot pool, for inspection via
    /// [`ScratchPool::snapshot_stats`] (snapshot sizes, publish counts).
    pub fn pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Drops all cached scores (bindings and the snapshot tier are kept).
    /// Benchmarks use this to isolate the pure-evaluation warm path.
    pub fn invalidate_scores(&mut self) {
        self.scores.clear();
    }

    /// Drops every layer of cached state — the binding and score caches
    /// *and* the pool's published frozen snapshot tiers (the thread count
    /// and eviction policy are kept). [`SessionStats::footprint`] reports
    /// zero entries afterwards; the hash-consed nodes the dropped entries
    /// pinned become reclaimable by the interner.
    pub fn clear(&mut self) {
        *self = Self::with_policy(self.threads, self.pool.policy());
    }

    /// Scores every document in `docs`, in order — bit-identical to
    /// `engine.score_all(env, docs)`, with unchanged work served from the
    /// session's caches and the rest fanned out over the worker pool.
    pub fn score_all<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + Sync + ?Sized,
    {
        let bindings = self.bindings.bind(env);
        read_through_scores(
            engine,
            env.user,
            &mut self.scores,
            docs,
            &bindings,
            |missing| {
                score_all_bound_parallel(
                    engine,
                    env,
                    &bindings,
                    missing,
                    self.threads,
                    &self.pool,
                    true,
                )
            },
        )
    }

    /// [`ParallelScoringSession::score_all`] followed by the descending
    /// sort of [`crate::rank`].
    pub fn rank<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + Sync + ?Sized,
    {
        Ok(rank(self.score_all(engine, env, docs)?))
    }

    /// The exact top `k` of the ranking by two-phase top-k over the
    /// session's cached bindings and snapshot tier: the closed-form sweep
    /// on the calling thread, the bounded scan of deferred documents on the
    /// workers (see [`rank_top_k_parallel`]). The scores it computes are
    /// *not* added to the score cache.
    pub fn rank_top_k<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
        k: usize,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + Sync + ?Sized,
    {
        let bindings = self.bindings.bind(env);
        rank_top_k_bound_parallel(
            engine,
            env,
            &bindings,
            docs,
            k,
            self.threads,
            &self.pool,
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactorizedEngine, Kb, LineageEngine, PreferenceRule, RuleRepository, Score};

    fn fixture(n_docs: usize) -> (Kb, RuleRepository, IndividualId, Vec<IndividualId>) {
        let mut kb = Kb::new();
        let user = kb.individual("u");
        kb.assert_concept(user, "Ctx");
        let docs: Vec<_> = (0..n_docs)
            .map(|i| {
                let d = kb.individual(&format!("d{i}"));
                kb.assert_concept_prob(d, "Nice", 0.1 + 0.8 * (i as f64 / n_docs as f64))
                    .unwrap();
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R",
                kb.parse("Ctx").unwrap(),
                kb.parse("Nice").unwrap(),
                Score::new(0.75).unwrap(),
            ))
            .unwrap();
        (kb, rules, user, docs)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (kb, rules, user, docs) = fixture(37);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        for engine_threads in [1, 2, 4, 16] {
            let seq = FactorizedEngine::new().score_all(&env, &docs).unwrap();
            let par =
                score_all_parallel(&FactorizedEngine::new(), &env, &docs, engine_threads).unwrap();
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.doc, b.doc, "order preserved");
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lineage_engine_is_shardable() {
        let (kb, rules, user, docs) = fixture(8);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let seq = LineageEngine::new().score_all(&env, &docs).unwrap();
        let par = score_all_parallel(&LineageEngine::new(), &env, &docs, 3).unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_top_k_matches_sequential() {
        let (kb, rules, user, docs) = fixture(64);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = FactorizedEngine::new();
        for k in [1, 7, 64] {
            let seq = crate::rank_top_k(&env, &engine, &docs, k).unwrap();
            for threads in [1, 2, 5] {
                let par = rank_top_k_parallel(&engine, &env, &docs, k, threads).unwrap();
                assert_eq!(seq.len(), par.len(), "k={k} threads={threads}");
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.doc, b.doc, "k={k} threads={threads}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        let (kb, rules, user, _) = fixture(1);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let out = score_all_parallel(&FactorizedEngine::new(), &env, &[], 4).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn thread_clamp_and_chunk_edge_cases() {
        // 0 docs: one worker, nothing to do.
        assert_eq!(effective_threads(4, 0), 1);
        assert_eq!(effective_threads(0, 0), 1);
        // 1 doc: never more than one worker.
        assert_eq!(effective_threads(8, 1), 1);
        // threads > docs clamps to docs; 0 threads means 1.
        assert_eq!(effective_threads(16, 5), 5);
        assert_eq!(effective_threads(0, 5), 1);
        assert_eq!(effective_threads(3, 100), 3);
        // Chunks: at least 1, at most 256, ~4 per worker.
        assert_eq!(steal_chunk(0, 4), 1);
        assert_eq!(steal_chunk(1, 1), 1);
        assert_eq!(steal_chunk(1024, 4), 64);
        assert_eq!(steal_chunk(1 << 20, 1), 256);
        // A chunking plan always covers every document exactly once.
        for (docs, threads) in [(0usize, 3usize), (1, 4), (7, 3), (64, 5), (1000, 4)] {
            let t = effective_threads(threads, docs);
            let c = steal_chunk(docs, t);
            let starts: Vec<usize> = (0..docs).step_by(c).collect();
            let covered: usize = starts.iter().map(|&s| (s + c).min(docs) - s).sum();
            assert_eq!(covered, docs, "docs={docs} threads={threads}");
        }
    }

    /// Like [`fixture`], but with an uncertain context and a composite
    /// (conjunctive) preference, so scoring builds composite event
    /// expressions whose probabilities actually land in the memo tables —
    /// leaf atoms are evaluated inline and never memoised.
    fn rich_fixture(n_docs: usize) -> (Kb, RuleRepository, IndividualId, Vec<IndividualId>) {
        let mut kb = Kb::new();
        let user = kb.individual("u");
        kb.assert_concept_prob(user, "Ctx", 0.9).unwrap();
        let docs: Vec<_> = (0..n_docs)
            .map(|i| {
                let d = kb.individual(&format!("d{i}"));
                kb.assert_concept_prob(d, "Nice", 0.1 + 0.8 * (i as f64 / n_docs as f64))
                    .unwrap();
                kb.assert_concept_prob(d, "Fun", 0.3 + 0.4 * (i as f64 / n_docs as f64))
                    .unwrap();
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R",
                kb.parse("Ctx").unwrap(),
                kb.parse("Nice AND Fun").unwrap(),
                Score::new(0.75).unwrap(),
            ))
            .unwrap();
        (kb, rules, user, docs)
    }

    #[test]
    fn pool_republish_shares_memos_across_runs() {
        let (kb, rules, user, docs) = rich_fixture(24);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let pool = ScratchPool::new();
        let bindings = bind_rules_shared(&env);
        let engine = LineageEngine::new();
        let first =
            score_all_bound_parallel(&engine, &env, &bindings, &docs, 3, &pool, true).unwrap();
        let snap = pool.snapshot_stats();
        assert!(
            snap.entries() > 0,
            "first run must publish memo entries ({} prob / {} expect)",
            snap.prob_entries,
            snap.expect_entries
        );
        assert!(snap.publishes >= 1);
        let second =
            score_all_bound_parallel(&engine, &env, &bindings, &docs, 3, &pool, true).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(
            pool.snapshot_stats().publishes,
            snap.publishes,
            "a fully warm run finds every entry in the snapshot and merges nothing"
        );
    }

    #[test]
    fn pool_resets_on_kb_change() {
        let (kb, rules, user, docs) = rich_fixture(8);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let pool = ScratchPool::new();
        let bindings = bind_rules_shared(&env);
        score_all_bound_parallel(
            &LineageEngine::new(),
            &env,
            &bindings,
            &docs,
            2,
            &pool,
            true,
        )
        .unwrap();
        assert!(pool.snapshot_stats().entries() > 0);
        // A *clone* has a fresh KB identity: its scratches must not see the
        // original's snapshot (universe affinity).
        let kb2 = kb.clone();
        let scratch = pool.checkout(&kb2);
        assert_eq!(
            pool.snapshot_stats().entries(),
            0,
            "different KB resets the pool"
        );
        drop(scratch);
    }

    #[test]
    fn parallel_session_reuses_all_layers() {
        let (mut kb, rules, user, docs) = fixture(40);
        let engine = LineageEngine::new();
        let mut session = ParallelScoringSession::new(3);
        {
            let env = ScoringEnv {
                kb: &kb,
                rules: &rules,
                user,
            };
            let cold = session.score_all(&engine, &env, &docs).unwrap();
            let warm = session.score_all(&engine, &env, &docs).unwrap();
            let stats = session.stats();
            assert_eq!(stats.bindings.hits, 1, "no rebinding on a warm call");
            assert_eq!(stats.scores.hits, docs.len() as u64);
            let reference = engine.score_all(&env, &docs).unwrap();
            for ((a, b), c) in cold.iter().zip(&warm).zip(&reference) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.score.to_bits(), c.score.to_bits());
            }
        }
        // A KB mutation invalidates bindings and scores but not the
        // snapshot tier (same universe, immutable variables).
        kb.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let fresh = session.score_all(&engine, &env, &docs).unwrap();
        let reference = engine.score_all(&env, &docs).unwrap();
        for (a, b) in reference.iter().zip(&fresh) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let top = session.rank_top_k(&engine, &env, &docs, 5).unwrap();
        let full = rank(reference);
        for (a, b) in top.iter().zip(&full[..5]) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn clear_drops_published_frozen_tiers() {
        let (kb, rules, user, docs) = rich_fixture(24);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = LineageEngine::new();
        let mut session = ParallelScoringSession::new(3);
        session.score_all(&engine, &env, &docs).unwrap();
        session.score_all(&engine, &env, &docs).unwrap();
        let stats = session.stats();
        assert!(
            stats.footprint.entries > 0 && stats.footprint.tiers > 0,
            "published frozen tiers hold memo entries ({:?})",
            stats.footprint
        );
        assert!(stats.scores.hits > 0);
        session.clear();
        let cleared = session.stats();
        assert_eq!(
            cleared.footprint,
            CacheFootprint::default(),
            "clear must drop the pool's published frozen tiers, not just \
             the binding/score caches"
        );
        assert_eq!((cleared.bindings.hits, cleared.bindings.misses), (0, 0));
        assert_eq!((cleared.scores.hits, cleared.scores.misses), (0, 0));
        // The cleared session still scores correctly and re-publishes.
        let fresh = session.score_all(&engine, &env, &docs).unwrap();
        let reference = engine.score_all(&env, &docs).unwrap();
        for (a, b) in reference.iter().zip(&fresh) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert!(session.stats().footprint.entries > 0);
    }

    #[test]
    fn clear_keeps_thread_count_and_policy() {
        let (kb, rules, user, docs) = rich_fixture(8);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let mut session = ParallelScoringSession::with_policy(2, EvictionPolicy::MaxAge(7));
        session
            .score_all(&LineageEngine::new(), &env, &docs)
            .unwrap();
        session.clear();
        assert_eq!(session.threads, 2);
        assert_eq!(session.pool.policy(), EvictionPolicy::MaxAge(7));
    }

    #[test]
    fn strict_engine_errors_propagate_from_workers() {
        // A correlated doc in the middle of the set: the strict factorized
        // engine must reject the parallel workload exactly like the
        // sequential path, no matter which worker meets the document.
        let mut kb = Kb::new();
        let user = kb.individual("u");
        kb.assert_concept(user, "Ctx");
        let a = kb.individual("A");
        let b = kb.individual("B");
        let docs: Vec<IndividualId> = (0..24)
            .map(|i| {
                let d = kb.individual(&format!("d{i}"));
                kb.assert_concept_prob(d, "Nice", 0.2 + 0.03 * i as f64)
                    .unwrap();
                d
            })
            .collect();
        let kind = kb.universe.add_choice("kind", &[0.4, 0.3]).unwrap();
        let e0 = kb.universe.atom(kind, 0).unwrap();
        let e1 = kb.universe.atom(kind, 1).unwrap();
        kb.assert_role_event(docs[13], "hasGenre", a, e0);
        kb.assert_role_event(docs[13], "hasGenre", b, e1);
        let mut rules = RuleRepository::new();
        let ctx = kb.parse("Ctx").unwrap();
        rules
            .add(PreferenceRule::new(
                "A",
                ctx.clone(),
                kb.parse("EXISTS hasGenre.{A}").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "B",
                ctx,
                kb.parse("EXISTS hasGenre.{B}").unwrap(),
                Score::new(0.6).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let strict = FactorizedEngine::new();
        assert!(strict.score_all(&env, &docs).is_err());
        assert!(score_all_parallel(&strict, &env, &docs, 4).is_err());
        assert!(rank_top_k_parallel(&strict, &env, &docs, 3, 4).is_err());
        // The exact engine serves the same workload in parallel.
        let seq = LineageEngine::new().score_all(&env, &docs).unwrap();
        let par = score_all_parallel(&LineageEngine::new(), &env, &docs, 4).unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}
