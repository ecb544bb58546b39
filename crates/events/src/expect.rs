//! Exact expectations of products of event-indicator factors.
//!
//! The context-aware scoring formula of the paper (Section 3.3) is an
//! expectation of a *product over preference rules*, where each rule
//! contributes a piecewise-constant random variable:
//!
//! ```text
//! term_r = 1        if the rule's context feature does not hold
//!        = σ_r      if the context feature and the document feature hold
//!        = 1 − σ_r  if the context feature holds but the document feature doesn't
//! ```
//!
//! When features are described by *correlated* event expressions (shared
//! sensors, mutually exclusive genres, …) the expectation does not factor
//! into independent per-rule terms. [`Expectation`] computes it exactly by
//! Shannon expansion over the shared random variables, with memoisation and
//! factorisation over variable-disjoint groups of factors — the same
//! machinery as [`crate::Evaluator`], lifted from probabilities of events to
//! expectations of products. Hash-consed expressions make the memo keys
//! cheap: a factor is identified by its case events (pointer identity,
//! precomputed hashes) plus the case weights, so keying a sub-problem costs
//! O(#cases) instead of O(total expression size).

use std::sync::Arc;

use crate::eval::group_indices;
use crate::hashers::FastMap;
use crate::tier::{CacheFootprint, EvictionPolicy, TierChain, TierPayload};
use crate::{EvalCache, EventExpr, FrozenEvalCache, Universe, VarId};

/// A piecewise-constant random variable: in a world `w` its value is the sum
/// of the weights of the cases whose event holds in `w`.
///
/// For the scoring use-case the cases are mutually exclusive and exhaustive,
/// making the factor a true "piecewise constant"; the expectation machinery
/// does not depend on that (it is linear in the cases).
#[derive(Debug, Clone)]
pub struct Factor {
    cases: Vec<(EventExpr, f64)>,
    /// Union of the case-event supports, sorted and deduplicated
    /// (precomputed from the per-node support caches).
    support: Box<[VarId]>,
}

impl Factor {
    /// Builds a factor from `(event, weight)` cases.
    pub fn new(cases: impl IntoIterator<Item = (EventExpr, f64)>) -> Self {
        let cases: Vec<(EventExpr, f64)> = cases
            .into_iter()
            .filter(|(e, w)| !(e.is_false() || *w == 0.0))
            .collect();
        let mut support: Vec<VarId> = cases
            .iter()
            .flat_map(|(e, _)| e.support_slice().iter().copied())
            .collect();
        support.sort_unstable();
        support.dedup();
        Self {
            cases,
            support: support.into_boxed_slice(),
        }
    }

    /// A factor that is `c` in every world.
    pub fn constant(c: f64) -> Self {
        Self::new([(EventExpr::True, c)])
    }

    /// The indicator of an event: 1 when it holds, 0 otherwise.
    /// `expectation` of a single indicator is the event's probability.
    pub fn indicator(e: EventExpr) -> Self {
        Self::new([(e, 1.0)])
    }

    /// The cases of this factor.
    pub fn cases(&self) -> &[(EventExpr, f64)] {
        &self.cases
    }

    /// The sorted variable support of this factor (cached).
    pub fn support(&self) -> &[VarId] {
        &self.support
    }

    /// If every case event is constant, the factor's world-independent value.
    fn resolved(&self) -> Option<f64> {
        if self.cases.iter().all(|(e, _)| e.is_const()) {
            Some(
                self.cases
                    .iter()
                    .filter(|(e, _)| e.is_true())
                    .map(|(_, w)| w)
                    .sum(),
            )
        } else {
            None
        }
    }

    fn restrict(&self, var: VarId, outcome: usize) -> Factor {
        Factor::new(
            self.cases
                .iter()
                .map(|(e, w)| (e.restrict(var, outcome), *w)),
        )
    }

    /// Value of the factor in a fully specified world.
    pub fn value_in(&self, world: &crate::worlds::World) -> Option<f64> {
        let mut v = 0.0;
        for (e, w) in &self.cases {
            if world.eval(e)? {
                v += w;
            }
        }
        Some(v)
    }

    /// Canonical hashable key: case events plus bitwise weights. The events
    /// are hash-consed, so hashing and comparing a key costs O(#cases) —
    /// expression size does not matter — and holding the key in the memo
    /// pins the interned nodes, keeping identities stable across documents.
    fn key(&self) -> FactorKey {
        let mut k: Vec<(EventExpr, u64)> = self
            .cases
            .iter()
            .map(|(e, w)| (e.clone(), w.to_bits()))
            .collect();
        k.sort_unstable();
        k
    }
}

type FactorKey = Vec<(EventExpr, u64)>;

/// Reusable exact-expectation computer (see module docs).
///
/// Holds a memo table keyed by canonicalised factor groups; reuse one
/// instance when scoring many documents against the same rule set so that
/// shared context sub-problems are solved once — or detach the memo state as
/// an [`ExpectCache`] to persist it across instances (e.g. between the
/// repeated `score_all` calls of a scoring session).
pub struct Expectation<'u> {
    universe: &'u Universe,
    /// Shared read-only tier of the factor-group memo (see [`ExpectCache`]).
    snapshot: Option<Arc<FrozenExpectCache>>,
    memo: FastMap<Vec<FactorKey>, f64>,
    /// Shared probability evaluator for single-factor groups (linearity of
    /// expectation); its memo — and the interned nodes it pins — persist
    /// across documents.
    evaluator: crate::Evaluator<'u>,
    expansions: u64,
    memo_hits: u64,
}

/// The detachable memo state of an [`Expectation`]: the factor-group memo
/// plus the embedded probability evaluator's [`EvalCache`], each split into
/// an optional frozen shared snapshot tier ([`FrozenExpectCache`]) and a
/// private overlay — the same two-tier scheme as [`EvalCache`].
///
/// The same validity rule as [`EvalCache`] applies: entries stay correct
/// under further variable declarations on the same universe, but the cache
/// (snapshot included) must be discarded when switching to a different
/// universe.
///
/// [`EvalCache`]: crate::EvalCache
#[derive(Default)]
pub struct ExpectCache {
    snapshot: Option<Arc<FrozenExpectCache>>,
    memo: FastMap<Vec<FactorKey>, f64>,
    eval: EvalCache,
}

impl ExpectCache {
    /// An empty overlay backed by a shared read-only snapshot; the embedded
    /// probability cache is layered over the snapshot's eval tier likewise.
    pub fn with_snapshot(snapshot: Arc<FrozenExpectCache>) -> Self {
        Self {
            eval: EvalCache::with_snapshot(Arc::clone(snapshot.eval())),
            snapshot: Some(snapshot),
            memo: FastMap::default(),
        }
    }

    /// Number of *privately* memoised factor groups (excluding the
    /// probability memo and the shared snapshot).
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True if this holder memoised nothing privately yet (a backing
    /// snapshot may still answer lookups).
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty() && self.eval.is_empty()
    }

    /// Folds the private overlays (group memo and embedded probability
    /// memo) into the backing snapshot chain, tagging the new tier with
    /// the current binding `epoch` and evicting stale tiers per `policy` —
    /// the expectation-side counterpart of [`EvalCache::rotate`], with the
    /// same behaviour-preservation argument.
    pub fn rotate(&mut self, epoch: u64, policy: EvictionPolicy) {
        if self.is_empty() && self.snapshot.is_none() {
            return;
        }
        let base = self.snapshot.take();
        let overlay = std::mem::take(self);
        *self = ExpectCache::with_snapshot(FrozenExpectCache::merged_with(
            base.as_ref(),
            [overlay],
            epoch,
            policy,
        ));
    }

    /// Entries and pinned estimate of the private group-memo overlay only
    /// (excluding the embedded probability cache).
    fn group_overlay_footprint(&self) -> CacheFootprint {
        let pinned: usize = self
            .memo
            .keys()
            .map(|key| key.iter().map(Vec::len).sum::<usize>())
            .sum();
        CacheFootprint {
            tiers: 0,
            entries: self.memo.len(),
            pinned_nodes: pinned,
        }
    }

    /// Entries and pinned-node estimate of the private overlays alone
    /// (group memo + embedded probability overlay), ignoring any backing
    /// snapshot — the expectation-side counterpart of
    /// [`EvalCache::overlay_footprint`].
    pub fn overlay_footprint(&self) -> CacheFootprint {
        self.eval.overlay_footprint() + self.group_overlay_footprint()
    }

    /// Occupied tiers, entries and pinned-node estimate of this cache: the
    /// private overlays (group memo + embedded probability memo) plus the
    /// backing snapshot chain, if any. When a snapshot backs this cache,
    /// the embedded probability overlay's own backing chain *is* the
    /// snapshot's eval chain, so only the overlay part is added for it.
    pub fn footprint(&self) -> CacheFootprint {
        match &self.snapshot {
            Some(snapshot) => snapshot.footprint() + self.overlay_footprint(),
            None => self.eval.footprint() + self.group_overlay_footprint(),
        }
    }
}

/// One tier's worth of [`FrozenExpectCache`] entries: the factor-group memo
/// published by one republish, plus the cumulative eval-chain handle of the
/// tier's generation. Only the *newest* tier's eval handle is ever read —
/// the eval chain already subsumes the eval state of older expect tiers —
/// which is why [`TierPayload::absorb`] lets the newer handle win.
#[derive(Default, Clone)]
pub struct ExpectTier {
    memo: FastMap<Vec<FactorKey>, f64>,
    /// Cumulative eval tier of this expect tier's generation.
    eval: Arc<FrozenEvalCache>,
}

impl TierPayload for ExpectTier {
    fn len(&self) -> usize {
        self.memo.len()
    }

    fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    fn absorb(&mut self, newer: Self) {
        self.memo.extend(newer.memo);
        self.eval = newer.eval;
    }
}

/// A frozen, read-only [`ExpectCache`] snapshot shared across threads: the
/// factor-group memo plus a [`FrozenEvalCache`] for the embedded probability
/// evaluator. Same merge/validity contract as [`FrozenEvalCache`] — values
/// are pure functions of their (hash-consed) keys, so merging worker
/// overlays is order-independent and bit-deterministic — and the same
/// bounded [`TierChain`] representation, so routine republishes copy only
/// the young tiers, the root is recopied once per size doubling, and an
/// [`EvictionPolicy`] can age out tiers of superseded entries.
pub type FrozenExpectCache = TierChain<ExpectTier>;

impl FrozenExpectCache {
    /// Number of memoised factor groups across all tiers (keys shadowed in
    /// several tiers count once per tier — an upper bound on distinct
    /// entries, as in [`FrozenEvalCache::len`]).
    pub fn len(&self) -> usize {
        self.entry_count()
    }

    /// True if the snapshot holds no group entries and no probability
    /// entries.
    pub fn is_empty(&self) -> bool {
        self.payloads_empty() && self.eval().is_empty()
    }

    /// The snapshot tier backing the embedded probability evaluator.
    pub fn eval(&self) -> &Arc<FrozenEvalCache> {
        &self.payload.eval
    }

    fn get(&self, key: &Vec<FactorKey>) -> Option<f64> {
        self.tiers().find_map(|t| t.payload.memo.get(key).copied())
    }

    /// Occupied tiers, entries and pinned-node estimate of this chain,
    /// including the embedded probability chain. A factor-group key pins
    /// one interned expression per case event it holds, so the estimate
    /// walks the keys (O(entries) — footprints are inspection-path only).
    pub fn footprint(&self) -> CacheFootprint {
        let mut own = CacheFootprint {
            tiers: self.occupied_tiers(),
            entries: 0,
            pinned_nodes: 0,
        };
        for t in self.tiers() {
            own.entries += t.payload.memo.len();
            own.pinned_nodes += t
                .payload
                .memo
                .keys()
                .map(|key| key.iter().map(Vec::len).sum::<usize>())
                .sum::<usize>();
        }
        own + self.eval().footprint()
    }

    /// Merges worker overlays on top of `base` into a new snapshot — the
    /// republish step, with the determinism contract, epoch tagging and
    /// eviction semantics of [`FrozenEvalCache::merged_with`]; the embedded
    /// probability chain is republished under the same epoch and policy.
    pub fn merged_with(
        base: Option<&Arc<FrozenExpectCache>>,
        overlays: impl IntoIterator<Item = ExpectCache>,
        epoch: u64,
        policy: EvictionPolicy,
    ) -> Arc<FrozenExpectCache> {
        let mut memo = FastMap::default();
        let mut eval_overlays = Vec::new();
        for overlay in overlays {
            memo.extend(overlay.memo);
            eval_overlays.push(overlay.eval);
        }
        let eval =
            FrozenEvalCache::merged_with(base.map(|b| b.eval()), eval_overlays, epoch, policy);
        if memo.is_empty() {
            // No new group entries: reuse the base chain unless the
            // embedded eval tier advanced (then a fresh top tier carries
            // the new eval handle without stacking group entries).
            if let Some(b) = base {
                if Arc::ptr_eq(&eval, b.eval()) {
                    return Arc::clone(b);
                }
            }
        }
        TierChain::publish(base, ExpectTier { memo, eval }, epoch, policy)
    }
}

impl<'u> Expectation<'u> {
    /// Creates an expectation computer over `universe`.
    pub fn new(universe: &'u Universe) -> Self {
        Self::with_cache(universe, ExpectCache::default())
    }

    /// Creates an expectation computer seeded with a previously detached
    /// cache (see [`Expectation::into_cache`]). The cache must have been
    /// built over the same universe value.
    pub fn with_cache(universe: &'u Universe, cache: ExpectCache) -> Self {
        Self {
            universe,
            snapshot: cache.snapshot,
            memo: cache.memo,
            evaluator: crate::Evaluator::with_cache(universe, cache.eval),
            expansions: 0,
            memo_hits: 0,
        }
    }

    /// Detaches the memo state for reuse by a later instance over the same
    /// universe.
    pub fn into_cache(self) -> ExpectCache {
        ExpectCache {
            snapshot: self.snapshot,
            memo: self.memo,
            eval: self.evaluator.into_cache(),
        }
    }

    /// Number of Shannon expansions performed so far.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Number of memo hits recorded so far (group-level hits plus the
    /// shared evaluator's probability-memo hits on the linearity path).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits + self.evaluator.stats().memo_hits
    }

    /// How an event `a` splits on `b`: `(P(a ∧ b), P(a ∧ ¬b))`, bit for
    /// bit what [`Expectation::compute`] obtains for the case events
    /// `and([a, b])` and `and([a, not(b)])` of a lone factor — but read off
    /// the two parts' probabilities in the shared memo, without interning
    /// a node or memoising anything keyed on the pair. That is what lets a
    /// caller whose factors are variable-disjoint evaluate them in closed
    /// form and still reproduce `compute` exactly.
    ///
    /// Answers when `a` is `True` (the conjunctions are `b` and `¬b`), or
    /// when `a` and `b` are non-constant, share no variable, and none of
    /// `a`, `b`, `¬b` is an `And` (which would flatten into the
    /// conjunction and change the order its children are multiplied in).
    /// `None` otherwise — a constant `b` included: build the case events
    /// and call [`Expectation::compute`].
    pub fn prob_split(&mut self, a: &EventExpr, b: &EventExpr) -> Option<(f64, f64)> {
        self.evaluator.prob_split(a, b)
    }

    /// The unclamped `(P(e), P(¬e))` of any event, read through the shared
    /// memo — the two numbers [`Expectation::prob_split`] multiplies for
    /// each of its arguments, from the same body. Wherever `prob_split`
    /// answers, `P(a)·P(b)` and `P(a)·P(¬b)` over these parts, clamped to
    /// `[0, 1]`, are its bits, so a caller that holds on to one side's
    /// parts (a context for the length of a request, a feature for as long
    /// as its view stands) pays the memo once instead of per pair. Which
    /// pairs `prob_split` declines is the caller's to check.
    pub fn prob_parts(&mut self, e: &EventExpr) -> (f64, f64) {
        self.evaluator.prob_parts(e)
    }

    /// Computes `E[ Π factors ]` exactly.
    pub fn compute(&mut self, factors: &[Factor]) -> f64 {
        let mut acc = 1.0;
        let mut pending: Vec<&Factor> = Vec::new();
        for f in factors {
            match f.resolved() {
                Some(c) => acc *= c,
                None => pending.push(f),
            }
        }
        if pending.is_empty() || acc == 0.0 {
            return acc;
        }
        // Partition factors into groups that share no variables: expectation
        // of a product of independent groups is the product of expectations.
        let groups = group_indices(pending.iter().map(|f| f.support()));
        if groups.len() > 1 {
            for idxs in groups {
                let members: Vec<&Factor> = idxs.into_iter().map(|i| pending[i]).collect();
                acc *= self.expect_group(&members);
            }
            acc
        } else {
            acc * self.expect_group(&pending)
        }
    }

    fn expect_group(&mut self, group: &[&Factor]) -> f64 {
        if let [single] = group {
            // Linearity of expectation: E[Σᵢ wᵢ·1_{eᵢ}] = Σᵢ wᵢ·P(eᵢ) —
            // exact for a lone factor regardless of correlations *between*
            // its cases, so no Shannon expansion is needed. The shared
            // evaluator memoises the case probabilities across documents.
            return single
                .cases
                .iter()
                .map(|(e, w)| w * self.evaluator.prob(e))
                .sum();
        }
        let mut key: Vec<FactorKey> = group.iter().map(|f| f.key()).collect();
        key.sort_unstable();
        // Two-tier lookup: the shared frozen snapshot first, then the
        // private overlay (an overlay insert below therefore never shadows
        // a snapshot entry).
        if let Some(v) = self
            .snapshot
            .as_ref()
            .and_then(|s| s.get(&key))
            .or_else(|| self.memo.get(&key).copied())
        {
            self.memo_hits += 1;
            return v;
        }
        // Pivot: the variable occurring in the most case events.
        let mut counts: FastMap<VarId, usize> = FastMap::default();
        for f in group {
            for (e, _) in &f.cases {
                for &v in e.support_slice() {
                    *counts.entry(v).or_default() += 1;
                }
            }
        }
        let pivot = counts
            .into_iter()
            .max_by_key(|&(var, count)| (count, std::cmp::Reverse(var)))
            .map(|(var, _)| var)
            .expect("unresolved group has support");
        self.expansions += 1;
        let n = self
            .universe
            .num_outcomes(pivot)
            .expect("factor references a variable outside its universe");
        let mut total = 0.0;
        for o in 0..n {
            let p_o = self
                .universe
                .outcome_prob(pivot, o)
                .expect("outcome index in range");
            if p_o == 0.0 {
                continue;
            }
            let restricted: Vec<Factor> = group.iter().map(|f| f.restrict(pivot, o)).collect();
            total += p_o * self.compute(&restricted);
        }
        self.memo.insert(key, total);
        total
    }
}

/// One-shot convenience wrapper around [`Expectation`].
pub fn expectation(universe: &Universe, factors: &[Factor]) -> f64 {
    Expectation::new(universe).compute(factors)
}

/// Expectation by brute-force world enumeration (testing oracle; exponential).
pub fn brute_force_expectation(universe: &Universe, factors: &[Factor]) -> f64 {
    let mut support = std::collections::BTreeSet::new();
    for f in factors {
        for (e, _) in &f.cases {
            e.collect_support(&mut support);
        }
    }
    crate::worlds::Worlds::over(universe, support)
        .map(|(world, p)| {
            let v: f64 = factors
                .iter()
                .map(|f| f.value_in(&world).expect("support covers factors"))
                .product();
            p * v
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_factors_multiply() {
        let u = Universe::new();
        let fs = [Factor::constant(0.5), Factor::constant(0.4)];
        assert!((expectation(&u, &fs) - 0.2).abs() < 1e-12);
        assert_eq!(expectation(&u, &[]), 1.0);
    }

    #[test]
    fn indicator_expectation_is_probability() {
        let mut u = Universe::new();
        let a = u.add_bool("a", 0.3).unwrap();
        let ea = u.bool_event(a).unwrap();
        let f = Factor::indicator(ea);
        assert!((expectation(&u, &[f]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn independent_factors_factorize() {
        let mut u = Universe::new();
        let a = u.add_bool("a", 0.3).unwrap();
        let b = u.add_bool("b", 0.6).unwrap();
        let fa = Factor::indicator(u.bool_event(a).unwrap());
        let fb = Factor::indicator(u.bool_event(b).unwrap());
        assert!((expectation(&u, &[fa, fb]) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn correlated_factors_are_exact() {
        // Both factors indicate the same event: E[1_a · 1_a] = P(a), not P(a)².
        let mut u = Universe::new();
        let a = u.add_bool("a", 0.3).unwrap();
        let ea = u.bool_event(a).unwrap();
        let f1 = Factor::indicator(ea.clone());
        let f2 = Factor::indicator(ea);
        assert!((expectation(&u, &[f1, f2]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rule_term_shape() {
        // A paper-style rule term: context certain, feature prob 0.95, σ=0.8
        // → E = 0.95·0.8 + 0.05·0.2 = 0.77 (rule R1 on Channel 5 news).
        let mut u = Universe::new();
        let f = u.add_bool("human-interest", 0.95).unwrap();
        let ef = u.bool_event(f).unwrap();
        let term = Factor::new([(ef.clone(), 0.8), (EventExpr::not(ef), 0.2)]);
        assert!((expectation(&u, &[term]) - 0.77).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_with_shared_variables() {
        let mut u = Universe::new();
        let shared = u.add_choice("g", &[0.4, 0.35]).unwrap();
        let other = u.add_bool("h", 0.7).unwrap();
        let g0 = u.atom(shared, 0).unwrap();
        let g1 = u.atom(shared, 1).unwrap();
        let h = u.bool_event(other).unwrap();
        let f1 = Factor::new([(g0.clone(), 0.9), (EventExpr::not(g0.clone()), 0.1)]);
        let f2 = Factor::new([
            (EventExpr::and([g1.clone(), h.clone()]), 0.8),
            (EventExpr::not(EventExpr::and([g1, h])), 0.25),
        ]);
        let exact = expectation(&u, &[f1.clone(), f2.clone()]);
        let brute = brute_force_expectation(&u, &[f1, f2]);
        assert!((exact - brute).abs() < 1e-12, "{exact} vs {brute}");
    }

    #[test]
    fn memoisation_reused_across_documents() {
        let mut u = Universe::new();
        let c1 = u.add_bool("ctx1", 0.5).unwrap();
        let c2 = u.add_bool("ctx2", 0.8).unwrap();
        // A composite context event (conjunction of two sensors).
        let ectx = EventExpr::and([u.bool_event(c1).unwrap(), u.bool_event(c2).unwrap()]);
        let p_ctx = 0.5 * 0.8;
        let mut exp = Expectation::new(&u);
        // Two "documents" whose factors share the context sub-problem.
        for _ in 0..2 {
            let f = Factor::new([(ectx.clone(), 0.9), (EventExpr::not(ectx.clone()), 1.0)]);
            let v = exp.compute(&[f]);
            assert!((v - (p_ctx * 0.9 + (1.0 - p_ctx))).abs() < 1e-12);
        }
        assert!(
            exp.memo_hits() > 0,
            "second document must reuse the memoised context sub-problem"
        );
    }

    #[test]
    fn detached_cache_carries_memo_across_instances() {
        let mut u = Universe::new();
        let shared = u.add_choice("g", &[0.4, 0.35]).unwrap();
        let other = u.add_bool("h", 0.7).unwrap();
        let g0 = u.atom(shared, 0).unwrap();
        let g1 = u.atom(shared, 1).unwrap();
        let h = u.bool_event(other).unwrap();
        let factors = [
            Factor::new([(g0.clone(), 0.9), (EventExpr::not(g0.clone()), 0.1)]),
            Factor::new([
                (EventExpr::and([g1.clone(), h.clone()]), 0.8),
                (EventExpr::not(EventExpr::and([g1, h])), 0.25),
            ]),
        ];
        let mut first = Expectation::new(&u);
        let v1 = first.compute(&factors);
        let cache = first.into_cache();
        assert!(!cache.is_empty());
        let mut second = Expectation::with_cache(&u, cache);
        let v2 = second.compute(&factors);
        assert_eq!(v1.to_bits(), v2.to_bits(), "cached value is bit-identical");
        assert_eq!(
            second.expansions(),
            0,
            "second instance must answer from the carried cache"
        );
    }

    #[test]
    fn frozen_snapshot_carries_group_memo_across_threads() {
        let mut u = Universe::new();
        let shared = u.add_choice("g", &[0.4, 0.35]).unwrap();
        let other = u.add_bool("h", 0.7).unwrap();
        let g0 = u.atom(shared, 0).unwrap();
        let g1 = u.atom(shared, 1).unwrap();
        let h = u.bool_event(other).unwrap();
        // Correlated factors (shared variable `g`) force the group memo.
        let factors = [
            Factor::new([(g0.clone(), 0.9), (EventExpr::not(g0.clone()), 0.1)]),
            Factor::new([
                (EventExpr::and([g1.clone(), h.clone()]), 0.8),
                (EventExpr::not(EventExpr::and([g1, h])), 0.25),
            ]),
        ];
        let mut first = Expectation::new(&u);
        let v1 = first.compute(&factors);
        let snapshot =
            FrozenExpectCache::merged_with(None, [first.into_cache()], 0, EvictionPolicy::Never);
        assert!(!snapshot.is_empty());
        // The snapshot is Sync: fresh overlays on other threads must answer
        // from the shared tier, bit-identically and without expansion.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let snapshot = Arc::clone(&snapshot);
                let factors = &factors;
                let u = &u;
                scope.spawn(move || {
                    let mut exp = Expectation::with_cache(u, ExpectCache::with_snapshot(snapshot));
                    let v2 = exp.compute(factors);
                    assert_eq!(v1.to_bits(), v2.to_bits());
                    assert_eq!(exp.expansions(), 0);
                    assert!(exp.into_cache().is_empty(), "no private copies on hits");
                });
            }
        });
    }

    #[test]
    fn zero_weight_cases_are_dropped() {
        let f = Factor::new([(EventExpr::True, 0.0), (EventExpr::False, 5.0)]);
        assert!(f.cases().is_empty());
        assert_eq!(f.resolved(), Some(0.0));
        assert!(f.support().is_empty());
    }
}
