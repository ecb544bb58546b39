//! The service's shared memo generation.
//!
//! Evaluation memos are pure functions of hash-consed expression identity
//! and carry no per-user data, so every tenant of a
//! [`crate::serve::RankingService`] scores through one [`ScratchPool`]: a
//! request that has to evaluate something checks out an [`EvalScratch`]
//! reading the pool's [`MemoGeneration`] lock-free, and when the request
//! gives it back the pool absorbs what it memoised — in
//! place for one client, into a copy while other checkouts hold the
//! generation, which keep reading the one they were handed. That is how
//! one tenant's work warms every other tenant that touches the same
//! documents. At give-back, a generation more than
//! [`capra_events::MAX_AGE`] binding epochs older than the returning
//! request is dropped whole and a fresh one started — never mid-request.
//! See [`MemoGeneration`] for why neither can change a score.
//!
//! **Universe affinity.** A generation memoises probabilities over one
//! universe's variables, so the pool keys it by [`crate::Kb::id`] and
//! resets when a different KB shows up — the invariant
//! [`EvalScratch::ensure_kb`] enforces for a session's own scratch. Further
//! declarations on the same KB are safe, which is why a generation
//! survives KB mutations that merely bump epochs.

use std::sync::{Arc, Mutex};

use capra_events::{BatchStats, CacheFootprint, MemoGeneration};

use crate::engines::EvalScratch;
use crate::Kb;

/// The pool's state behind its lock.
#[derive(Default)]
struct PoolInner {
    /// `Kb::id` the generation was computed over; 0 = not yet bound.
    kb_id: u64,
    /// The generation handed to checkouts (see module docs).
    generation: Arc<MemoGeneration>,
    /// Batch counters drained from returned scratches.
    batch: BatchStats,
}

/// The memo generation shared by every request of a service (see the
/// module docs). Checkout and give-back take a short lock; memo lookups
/// during scoring take none.
#[derive(Default)]
pub(crate) struct ScratchPool {
    inner: Mutex<PoolInner>,
}

impl ScratchPool {
    /// Batch counters drained from every scratch returned to
    /// the pool (monotonic across KB changes).
    pub(crate) fn batch_stats(&self) -> BatchStats {
        self.lock().batch
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A request panicking while holding the lock cannot corrupt the
        // pool (mutations are single assignments and map extends), so
        // poisoning is ignored — like parking_lot.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands out a scratch for scoring against `kb`: empty private maps
    /// over the pool's current generation. Resets the pool first if it was
    /// serving a different KB.
    pub(crate) fn checkout(&self, kb: &Kb) -> EvalScratch {
        let mut inner = self.lock();
        if inner.kb_id != kb.id() {
            *inner = PoolInner {
                kb_id: kb.id(),
                generation: Arc::new(MemoGeneration::new(kb.binding_epoch())),
                // Batch counters describe work done, not cached state:
                // they stay monotonic across a KB reset.
                batch: inner.batch,
            };
        }
        EvalScratch::with_generation(kb.id(), kb.binding_epoch(), Arc::clone(&inner.generation))
    }

    /// Returns a checked-out scratch: drops the generation if it expired
    /// by the scratch's binding epoch, then absorbs the scratch's private
    /// maps into it (see module docs). Scratches that migrated to a
    /// different KB mid-flight (or were never bound) are discarded — their
    /// entries would violate universe affinity.
    pub(crate) fn give_back(&self, mut scratch: EvalScratch) {
        let mut inner = self.lock();
        // Work counters are drained even from scratches whose memo is
        // discarded below — the sweeps ran either way.
        inner.batch += scratch.take_batch_stats();
        let (kb_id, epoch, memo) = scratch.into_memo();
        if kb_id != inner.kb_id || kb_id == 0 {
            return;
        }
        if inner.generation.expired(epoch) {
            inner.generation = Arc::new(MemoGeneration::new(epoch));
        }
        MemoGeneration::absorb(&mut inner.generation, memo);
    }

    /// Generations holding an entry (0 or 1), memo entries and pinned-node
    /// estimate of the pool's generation.
    pub(crate) fn footprint(&self) -> CacheFootprint {
        self.lock().generation.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capra_events::{EventExpr, MAX_AGE};

    /// An entangled event over two fresh variables: a composite node the
    /// memo keeps, which needs a Shannon expansion to evaluate.
    fn entangled(kb: &mut Kb, tag: &str) -> EventExpr {
        let a = kb.universe.add_bool(&format!("{tag}a"), 0.3).unwrap();
        let b = kb.universe.add_bool(&format!("{tag}b"), 0.6).unwrap();
        let (ea, eb) = (
            kb.universe.bool_event(a).unwrap(),
            kb.universe.bool_event(b).unwrap(),
        );
        EventExpr::or([
            EventExpr::and([ea.clone(), eb.clone()]),
            EventExpr::and([ea, EventExpr::not(eb)]),
        ])
    }

    /// Shannon expansions it takes `scratch` to evaluate `e`.
    fn expansions(kb: &Kb, scratch: &mut EvalScratch, e: &EventExpr) -> u64 {
        scratch.with_evaluator(&kb.universe, |ev| {
            ev.prob(e);
            ev.stats().expansions
        })
    }

    fn generation_ptr(pool: &ScratchPool) -> *const MemoGeneration {
        Arc::as_ptr(&pool.lock().generation)
    }

    #[test]
    fn pool_republish_shares_memos_across_runs() {
        // What a give-back absorbs is what every later checkout reads.
        let mut kb = Kb::new();
        let e = entangled(&mut kb, "x");
        let pool = ScratchPool::default();
        let mut first = pool.checkout(&kb);
        assert!(expansions(&kb, &mut first, &e) > 0);
        pool.give_back(first);
        let published = pool.footprint();
        assert!(published.entries > 0 && published.tiers == 1);
        let mut second = pool.checkout(&kb);
        assert_eq!(expansions(&kb, &mut second, &e), 0);
        pool.give_back(second);
        assert_eq!(
            pool.footprint(),
            published,
            "a fully warm run finds every entry and absorbs nothing"
        );
    }

    #[test]
    fn pool_resets_on_kb_change() {
        let mut kb = Kb::new();
        let e = entangled(&mut kb, "x");
        let pool = ScratchPool::default();
        let mut scratch = pool.checkout(&kb);
        expansions(&kb, &mut scratch, &e);
        pool.give_back(scratch);
        assert!(pool.footprint().entries > 0);
        // A *clone* has a fresh KB identity: its scratches must not see the
        // original's generation (universe affinity).
        let scratch = pool.checkout(&kb.clone());
        assert_eq!(pool.footprint().entries, 0, "different KB resets the pool");
        assert_eq!(scratch.footprint().entries, 0);
    }

    #[test]
    fn a_give_back_with_nothing_outstanding_absorbs_in_place() {
        let mut kb = Kb::new();
        let e = entangled(&mut kb, "x");
        let pool = ScratchPool::default();
        let mut scratch = pool.checkout(&kb);
        assert!(expansions(&kb, &mut scratch, &e) > 0);
        let before = generation_ptr(&pool);
        pool.give_back(scratch);
        assert_eq!(generation_ptr(&pool), before, "no copy for one client");
        assert!(pool.footprint().entries > 0);
    }

    #[test]
    fn a_give_back_with_a_scratch_outstanding_copies_and_the_scratch_keeps_its_generation() {
        let mut kb = Kb::new();
        let (e1, e2) = (entangled(&mut kb, "x"), entangled(&mut kb, "y"));
        let pool = ScratchPool::default();
        let mut first = pool.checkout(&kb);
        expansions(&kb, &mut first, &e1);
        pool.give_back(first);
        let handed = pool.footprint();
        let mut held = pool.checkout(&kb);
        let before = generation_ptr(&pool);
        let mut other = pool.checkout(&kb);
        expansions(&kb, &mut other, &e2);
        pool.give_back(other);
        assert_ne!(generation_ptr(&pool), before, "the absorb went into a copy");
        assert!(pool.footprint().entries > handed.entries);
        // The outstanding scratch still reads the generation it was handed:
        // what it held, and nothing absorbed since.
        assert_eq!(held.footprint(), handed);
        assert_eq!(expansions(&kb, &mut held, &e1), 0);
        assert!(expansions(&kb, &mut held, &e2) > 0);
        pool.give_back(held);
    }

    #[test]
    fn an_expired_generation_is_dropped_at_give_back_never_mid_request() {
        let mut kb = Kb::new();
        let e = entangled(&mut kb, "x");
        let pool = ScratchPool::default();
        let mut first = pool.checkout(&kb);
        expansions(&kb, &mut first, &e);
        pool.give_back(first);
        let warm = pool.footprint();
        // Move the binding epoch more than MAX_AGE past the generation's
        // start, on an individual nothing reads.
        let start = kb.binding_epoch();
        let bystander = kb.individual("bystander");
        while kb.binding_epoch() <= start + MAX_AGE {
            kb.assert_concept_prob(bystander, "Idle", 0.5).unwrap();
        }
        let (mut running, finished) = (pool.checkout(&kb), pool.checkout(&kb));
        assert_eq!(pool.footprint(), warm, "a checkout drops nothing");
        pool.give_back(finished);
        assert_eq!(
            pool.footprint(),
            CacheFootprint::default(),
            "the give-back dropped the expired generation"
        );
        // A request still running reads the generation it was handed.
        assert_eq!(expansions(&kb, &mut running, &e), 0);
        pool.give_back(running);
        assert_eq!(pool.footprint(), CacheFootprint::default());
    }
}
