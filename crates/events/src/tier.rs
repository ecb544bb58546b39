//! The memo of the exact evaluators: an [`EvalCache`] is three maps keyed
//! by hash-consed expression identity.

use crate::expect::FactorKey;
use crate::hashers::FastMap;
use crate::{EventExpr, VarId};

/// Binding epochs a memo lives past its start: generous enough that
/// serving loops which mutate a handful of facts per call keep their memos
/// warm across tens of calls, small enough that a mutate-every-call loop's
/// footprint stays flat instead of growing for the life of the KB.
pub const MAX_AGE: u64 = 64;

/// The detachable memo state of an [`crate::Evaluator`] or
/// [`crate::Expectation`]: the probability memo and Shannon pivots of the
/// evaluator and the factor-group memo of the expectation, each read with
/// one lookup.
///
/// **Age.** Re-asserted facts mint fresh variables, so entries keyed by
/// superseded expressions are never looked up again. A holder therefore
/// drops its cache whole once the binding epoch (`Kb::binding_epoch` in the
/// core crate) is more than [`MAX_AGE`] past the epoch it was started at —
/// O(1), with no per-entry stamps. A still-live entry dropped with it is
/// recomputed on its next miss, bit-identically, since every memo value is
/// a pure function of its hash-consed key: expiry can trade memory for a
/// recompute but never change a score. A stable KB never advances its
/// binding epoch, so nothing expires there.
///
/// **Universe affinity.** Entries are valid for the universe whose
/// expressions they were computed over, including after further variable
/// declarations (declared variables are immutable, and new variables
/// cannot occur in already-interned expressions). Reusing a cache with a
/// *different* universe is a logic error — variable ids would alias — so
/// holders discard it when they switch universes.
#[derive(Default)]
pub struct EvalCache {
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

impl EvalCache {
    /// True if the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty() && self.pivots.is_empty() && self.groups.is_empty()
    }

    /// Memos holding an entry (0 or 1), entries, and pinned-node estimate
    /// of this cache. A probability or pivot key pins its one node; a
    /// factor-group key pins one node per case event it holds, so that
    /// estimate walks the keys (O(entries) — footprints are
    /// inspection-path only).
    pub fn footprint(&self) -> CacheFootprint {
        let nodes = self.prob.len() + self.pivots.len();
        let group_nodes: usize = self
            .groups
            .keys()
            .map(|key| key.iter().map(Vec::len).sum::<usize>())
            .sum();
        CacheFootprint {
            tiers: usize::from(!self.is_empty()),
            entries: nodes + self.groups.len(),
            pinned_nodes: nodes + group_nodes,
        }
    }
}

/// Aggregate size of memo caches, as reported by the `footprint()` methods
/// across the stack (`EvalCache`, `EvalScratch`, sessions, services).
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
    /// Memos currently holding at least one entry.
    pub tiers: usize,
    /// Memo entries across those memos. An upper bound on distinct
    /// entries: two holders may each hold a key.
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
