//! The memo of the exact evaluators: an [`EvalCache`] is an optional
//! shared [`MemoGeneration`] plus private maps of the same shape.

use std::hash::Hash;
use std::sync::Arc;

use crate::expect::FactorKey;
use crate::hashers::FastMap;
use crate::{EventExpr, VarId};

/// Binding epochs a memo generation lives past its start: generous enough
/// that serving loops which mutate a handful of facts per call keep their
/// memos warm across tens of calls, small enough that a mutate-every-call
/// loop's footprint stays flat instead of growing for the life of the KB.
pub const MAX_AGE: u64 = 64;

/// The three memo maps (see [`MemoGeneration`]).
#[derive(Clone, Default)]
pub(crate) struct Memo {
    /// Probability memo over composite nodes. Keys are hash-consed
    /// expressions, so hashing is the precomputed structural hash and
    /// equality is pointer identity — O(1) either way — while the key
    /// itself pins the interned node alive, guaranteeing that rebuilding
    /// the same structure later resolves to the same node and hits.
    pub(crate) prob: FastMap<EventExpr, f64>,
    /// Shannon-pivot choice per node (same identity-keyed scheme).
    pub(crate) pivots: FastMap<EventExpr, VarId>,
    /// Expectation per canonicalised factor group.
    pub(crate) groups: FastMap<Vec<FactorKey>, f64>,
}

impl Memo {
    fn len(&self) -> usize {
        self.prob.len() + self.pivots.len() + self.groups.len()
    }

    /// Entries and pinned-node estimate, counted as no generation. A
    /// probability or pivot key pins its one node; a factor-group key pins
    /// one node per case event it holds, so that estimate walks the keys
    /// (O(entries) — footprints are inspection-path only).
    fn footprint(&self) -> CacheFootprint {
        let nodes = self.prob.len() + self.pivots.len();
        let group_nodes: usize = self
            .groups
            .keys()
            .map(|key| key.iter().map(Vec::len).sum::<usize>())
            .sum();
        CacheFootprint {
            tiers: 0,
            entries: nodes + self.groups.len(),
            pinned_nodes: nodes + group_nodes,
        }
    }
}

/// A frozen memo generation shared across threads behind an `Arc`: the
/// three memo maps — the probability memo and Shannon pivots of
/// [`crate::Evaluator`] and the factor-group memo of
/// [`crate::Expectation`], keyed by hash-consed expression identity — and
/// the binding epoch the generation was started at. An [`EvalCache`] reads
/// its generation first and its private maps second, and memoises a miss
/// privately, so any number of threads share one generation lock-free
/// while each memoises only what the generation lacks.
///
/// **Absorb.** [`MemoGeneration::absorb`] folds a holder's private maps
/// into the generation with `Arc::make_mut`: in place when nobody else
/// holds the `Arc`, into a copy otherwise, so a reader keeps the
/// generation it was handed. Every memo value is a pure function of its
/// hash-consed key, so two holders that memoise one key store the same
/// bits and the order of absorbs cannot change a score.
///
/// **Age.** Re-asserted facts mint fresh variables, so entries keyed by
/// superseded expressions are never looked up again. A generation is
/// therefore dropped whole once the binding epoch (`Kb::binding_epoch` in
/// the core crate) is more than [`MAX_AGE`] past its start
/// ([`MemoGeneration::expired`]) — O(1), with no per-entry stamps. A
/// still-live entry dropped with it is recomputed on its next miss,
/// bit-identically, so expiry can trade memory for a recompute but never
/// change a score. A stable KB never advances its binding epoch, so
/// nothing expires there.
///
/// **Universe affinity.** Entries are valid for the universe whose
/// expressions they were computed over, including after further variable
/// declarations (declared variables are immutable, and new variables
/// cannot occur in already-interned expressions). Reusing a cache or
/// generation with a *different* universe is a logic error — variable ids
/// would alias — so holders discard both when they switch universes.
#[derive(Clone, Default)]
pub struct MemoGeneration {
    memo: Memo,
    epoch: u64,
}

impl MemoGeneration {
    /// An empty generation started at binding epoch `epoch`.
    pub fn new(epoch: u64) -> Self {
        Self {
            epoch,
            ..Self::default()
        }
    }

    /// True once the binding epoch `now` is more than [`MAX_AGE`] past the
    /// generation's start. An epoch before the start never expires it.
    pub fn expired(&self, now: u64) -> bool {
        now.saturating_sub(self.epoch) > MAX_AGE
    }

    /// True if the generation holds no entry.
    pub fn is_empty(&self) -> bool {
        self.memo.len() == 0
    }

    /// Folds `cache`'s private maps into `generation` (see the type docs):
    /// the cache's own handle on a generation is dropped first, then
    /// the entries go in place when no other holder shares the `Arc`, and
    /// into a copy — which `generation` then points at — otherwise. A cache
    /// that memoised nothing changes nothing and copies nothing.
    pub fn absorb(generation: &mut Arc<MemoGeneration>, cache: EvalCache) {
        let EvalCache {
            generation: handed,
            memo: private,
        } = cache;
        drop(handed);
        if private.len() == 0 {
            return;
        }
        let memo = &mut Arc::make_mut(generation).memo;
        memo.prob.extend(private.prob);
        memo.pivots.extend(private.pivots);
        memo.groups.extend(private.groups);
    }

    /// Generations holding an entry (0 or 1), entries, and pinned-node
    /// estimate of this generation.
    pub fn footprint(&self) -> CacheFootprint {
        CacheFootprint {
            tiers: usize::from(!self.is_empty()),
            ..self.memo.footprint()
        }
    }
}

/// The detachable memo state of an [`crate::Evaluator`] or
/// [`crate::Expectation`]: an optional shared [`MemoGeneration`], consulted
/// first, and private maps receiving this holder's new entries (see
/// [`MemoGeneration`], universe affinity included).
#[derive(Default)]
pub struct EvalCache {
    /// `None` for a plain single-holder cache.
    generation: Option<Arc<MemoGeneration>>,
    pub(crate) memo: Memo,
}

impl EvalCache {
    /// Empty private maps over a shared generation.
    pub fn with_generation(generation: Arc<MemoGeneration>) -> Self {
        Self {
            generation: Some(generation),
            memo: Memo::default(),
        }
    }

    /// True if this holder memoised nothing privately yet (a backing
    /// generation may still answer lookups).
    pub fn is_empty(&self) -> bool {
        self.memo.len() == 0
    }

    /// Reads `key` in one of the three maps: the generation's, then the
    /// private one. A miss there is absent from both, so a private insert
    /// never shadows a generation entry.
    pub(crate) fn get<K: Hash + Eq, V: Copy>(
        &self,
        map: impl Fn(&Memo) -> &FastMap<K, V>,
        key: &K,
    ) -> Option<V> {
        self.generation
            .as_ref()
            .and_then(|g| map(&g.memo).get(key))
            .or_else(|| map(&self.memo).get(key))
            .copied()
    }

    /// Generations holding an entry, entries and pinned-node estimate of
    /// this cache: the shared generation, if any, plus the private maps.
    pub fn footprint(&self) -> CacheFootprint {
        let shared = self.generation.as_deref().map(MemoGeneration::footprint);
        shared.unwrap_or_default() + self.memo.footprint()
    }
}

/// Aggregate size of a memo cache: its shared generation plus any private
/// maps, as reported by the `footprint()` methods across the stack
/// (generations, `EvalScratch`, `ScratchPool`, sessions, services).
///
/// Footprints aggregate component-wise with `+` or [`std::iter::Sum`]:
///
/// ```
/// use capra_events::CacheFootprint;
///
/// let a = CacheFootprint { tiers: 1, entries: 10, pinned_nodes: 2 };
/// let b = CacheFootprint { tiers: 2, entries: 5, pinned_nodes: 1 };
/// let total: CacheFootprint = [a, b].into_iter().sum();
/// assert_eq!(total, a + b);
/// assert_eq!(total.entries, 15);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheFootprint {
    /// Shared memo generations currently holding at least one entry.
    pub tiers: usize,
    /// Memo entries across the generation and private maps. An upper bound
    /// on distinct entries: a private map never shadows its generation,
    /// but two holders may each hold a key privately.
    pub entries: usize,
    /// Estimated hash-consed expression nodes pinned alive in the
    /// process-global interner by those entries' keys (each key counts the
    /// composite nodes it holds directly; transitively shared subtrees are
    /// not walked).
    pub pinned_nodes: usize,
}

impl std::ops::Add for CacheFootprint {
    type Output = CacheFootprint;

    fn add(self, other: CacheFootprint) -> CacheFootprint {
        CacheFootprint {
            tiers: self.tiers + other.tiers,
            entries: self.entries + other.entries,
            pinned_nodes: self.pinned_nodes + other.pinned_nodes,
        }
    }
}

impl std::ops::AddAssign for CacheFootprint {
    fn add_assign(&mut self, other: CacheFootprint) {
        *self = *self + other;
    }
}

impl std::iter::Sum for CacheFootprint {
    /// Component-wise total over any number of footprints — what a serving
    /// layer uses to aggregate per-cache reports into one fleet-wide gauge.
    fn sum<I: Iterator<Item = CacheFootprint>>(iter: I) -> CacheFootprint {
        iter.fold(CacheFootprint::default(), |acc, f| acc + f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_is_by_epoch_distance() {
        let generation = MemoGeneration::new(10);
        assert!(!generation.expired(10));
        assert!(!generation.expired(10 + MAX_AGE));
        assert!(generation.expired(11 + MAX_AGE));
        // An epoch from before the start (an older snapshot) never
        // underflows into expiry.
        assert!(!generation.expired(0));
    }

    #[test]
    fn footprint_adds_componentwise() {
        let a = CacheFootprint {
            tiers: 1,
            entries: 10,
            pinned_nodes: 12,
        };
        let b = CacheFootprint {
            tiers: 2,
            entries: 3,
            pinned_nodes: 4,
        };
        assert_eq!(
            a + b,
            CacheFootprint {
                tiers: 3,
                entries: 13,
                pinned_nodes: 16,
            }
        );
    }
}
