//! The memo of the exact evaluators: an [`EvalCache`] is three maps keyed
//! by hash-consed expression identity. [`CacheFootprint`] is the size
//! report of the memos a caller keeps between evaluations.

use crate::expect::FactorKey;
use crate::hashers::FastMap;
use crate::{EventExpr, VarId};

/// The memo state of one [`crate::Evaluator`] (and of the
/// [`crate::Expectation`] built around it): the probability memo and
/// Shannon pivots of the evaluator and the factor-group memo of the
/// expectation, each read with one lookup. It lives and dies with its
/// evaluator.
///
/// Entries are valid for the universe whose expressions they were computed
/// over, including after further variable declarations (declared variables
/// are immutable, and new variables cannot occur in already-interned
/// expressions).
#[derive(Default)]
pub(crate) struct EvalCache {
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

/// Aggregate size of memo caches kept between evaluations, as reported
/// across the stack (sessions, services). No layer keeps one any more —
/// an evaluator's memo lives for one engine call — so the reports read
/// zero.
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
