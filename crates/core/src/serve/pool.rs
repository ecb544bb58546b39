//! The service's shared evaluation-cache tier.
//!
//! Evaluation memos are pure functions of hash-consed expression identity
//! and carry no per-user data, so every tenant of a
//! [`crate::serve::RankingService`] scores through one [`ScratchPool`]. A
//! request that has to evaluate something checks out an [`EvalScratch`]
//! whose memo tables are empty *overlays* over frozen, read-only snapshots
//! ([`capra_events::FrozenEvalCache`] / [`capra_events::FrozenExpectCache`])
//! shared via `Arc`: lookups consult the snapshot lock-free before the
//! private overlay, so concurrent requests on different tenant shards read
//! the same tier without contending. When the request (or coalesced run of
//! requests) is done, its overlay is **merged and republished** as the next
//! snapshot, which is how one tenant's work warms every other tenant that
//! touches the same documents. Merging is deterministic: every memo entry is
//! a pure function of its hash-consed key, so duplicate entries from
//! concurrent requests carry bit-identical values and merge order cannot
//! matter.
//!
//! **Universe affinity.** Snapshots memoise probabilities over one
//! universe's variables; reusing them against a different KB would alias
//! variable ids. The pool therefore keys its snapshots by [`crate::Kb::id`]
//! and resets when a different KB shows up — the same invariant
//! [`EvalScratch::ensure_kb`] enforces for a session's own scratch. *Further
//! declarations on the same KB are safe* (declared variables are immutable
//! and new variables cannot occur in already-interned expressions), which
//! is why snapshots survive KB mutations that merely bump epochs.

use std::sync::{Arc, Mutex};

use capra_events::{
    BatchStats, CacheFootprint, EvictionPolicy, FrozenEvalCache, FrozenExpectCache,
};

use crate::engines::EvalScratch;
use crate::Kb;

/// Aggregate state of one [`ScratchPool`] snapshot generation.
#[derive(Default)]
struct PoolInner {
    /// `Kb::id` the snapshots were computed over; 0 = not yet bound.
    kb_id: u64,
    /// `Kb::binding_epoch` observed at the latest checkout: the epoch the
    /// next republish tags its tier with, and the reference point for
    /// [`EvictionPolicy`] staleness.
    epoch: u64,
    /// Frozen probability tier handed to checkouts (see module docs).
    prob: Arc<FrozenEvalCache>,
    /// Frozen expectation tier handed to checkouts.
    expect: Arc<FrozenExpectCache>,
    /// Overlays given back, awaiting the next republish.
    pending: Vec<EvalScratch>,
    /// Batch counters drained from returned scratches.
    batch: BatchStats,
}

/// Frozen memo snapshots shared by every request of a service, plus the
/// merge-and-republish machinery that folds request overlays back into the
/// shared tier (see the module docs for the design and its determinism
/// argument).
///
/// The pool is internally synchronised — checkout/return take a short lock,
/// while all memo *lookups* during scoring go through the lock-free frozen
/// snapshots. One pool serves one KB at a time (universe affinity): handing
/// it a different KB resets the snapshots.
#[derive(Default)]
pub(crate) struct ScratchPool {
    inner: Mutex<PoolInner>,
    /// Eviction policy applied at each republish (see
    /// [`capra_events::tier`] for the tier-ageing semantics).
    policy: EvictionPolicy,
}

impl ScratchPool {
    /// Creates an empty pool whose republishes evict per `policy`
    /// ([`EvictionPolicy::Never`] reproduces the grow-only pre-eviction
    /// behaviour exactly).
    pub(crate) fn with_policy(policy: EvictionPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The eviction policy applied by this pool's republishes.
    pub(crate) fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Batch counters drained from every scratch returned to
    /// the pool (monotonic across KB changes and republishes).
    pub(crate) fn batch_stats(&self) -> BatchStats {
        self.lock().batch
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A request panicking while holding the lock cannot corrupt the
        // pool (mutations are single assignments/pushes), so poisoning is
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

    /// Returns a checked-out scratch, parking its overlay for the next
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
    /// requests never pay the merge.
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
        let (epoch, policy) = (inner.epoch, self.policy);
        if !prob_overlays.is_empty() {
            inner.prob =
                FrozenEvalCache::merged_with(Some(&inner.prob), prob_overlays, epoch, policy);
        }
        if !expect_overlays.is_empty() {
            inner.expect =
                FrozenExpectCache::merged_with(Some(&inner.expect), expect_overlays, epoch, policy);
        }
    }

    /// Snapshot-tier and memo-entry footprint of the pool: both frozen
    /// chains plus any overlays parked for the next republish
    /// (overlay-only for those — every parked scratch shares the pool's
    /// own chains, which are counted once).
    pub(crate) fn footprint(&self) -> CacheFootprint {
        let inner = self.lock();
        let mut footprint = inner.prob.footprint() + inner.expect.footprint();
        for scratch in &inner.pending {
            footprint += scratch.overlay_footprint();
        }
        footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        bind_rules_shared, DocScore, LineageEngine, PreferenceRule, RuleRepository, Score,
        ScoringEngine, ScoringEnv,
    };
    use capra_dl::IndividualId;

    /// An uncertain context and a composite (conjunctive) preference, so
    /// scoring builds composite event expressions whose probabilities
    /// actually land in the memo tables — leaf atoms are evaluated inline
    /// and never memoised.
    fn fixture(n_docs: usize) -> (Kb, RuleRepository, IndividualId, Vec<IndividualId>) {
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

    /// One request's worth of pool traffic: check out, score, give back,
    /// republish.
    fn score_through(
        pool: &ScratchPool,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
    ) -> Vec<DocScore> {
        let mut scratch = pool.checkout(env.kb);
        let scores = LineageEngine::new()
            .score_all_bound(env, &bind_rules_shared(env), docs, &mut scratch)
            .unwrap();
        pool.give_back(scratch);
        pool.republish();
        scores
    }

    #[test]
    fn pool_republish_shares_memos_across_runs() {
        let (kb, rules, user, docs) = fixture(24);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let pool = ScratchPool::default();
        let first = score_through(&pool, &env, &docs);
        let published = pool.footprint();
        assert!(
            published.entries > 0 && published.tiers > 0,
            "the first run must publish memo entries ({published:?})"
        );
        let second = score_through(&pool, &env, &docs);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(
            pool.footprint(),
            published,
            "a fully warm run finds every entry in the snapshot and merges nothing"
        );
    }

    #[test]
    fn pool_resets_on_kb_change() {
        let (kb, rules, user, docs) = fixture(8);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let pool = ScratchPool::default();
        score_through(&pool, &env, &docs);
        assert!(pool.footprint().entries > 0);
        // A *clone* has a fresh KB identity: its scratches must not see the
        // original's snapshot (universe affinity).
        let kb2 = kb.clone();
        let scratch = pool.checkout(&kb2);
        assert_eq!(pool.footprint().entries, 0, "different KB resets the pool");
        drop(scratch);
    }
}
