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

use crate::eval::group_indices;
use crate::hashers::FastMap;
use crate::{EventExpr, Universe, VarId};

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

pub(crate) type FactorKey = Vec<(EventExpr, u64)>;

/// Reusable exact-expectation computer (see module docs).
///
/// Holds a memo table keyed by canonicalised factor groups, dropped with
/// the instance; reuse one instance when scoring many documents against
/// the same rule set so that shared context sub-problems are solved once.
pub struct Expectation<'u> {
    universe: &'u Universe,
    /// Shared probability evaluator for single-factor groups (linearity of
    /// expectation); its memo — and the interned nodes it pins — persist
    /// across documents. Its cache holds the factor-group memo too.
    evaluator: crate::Evaluator<'u>,
    expansions: u64,
    memo_hits: u64,
}

impl<'u> Expectation<'u> {
    /// Creates an expectation computer over `universe`.
    pub fn new(universe: &'u Universe) -> Self {
        Self {
            universe,
            evaluator: crate::Evaluator::new(universe),
            expansions: 0,
            memo_hits: 0,
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
    /// the two parts' probabilities in the memo, without interning
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
        if let Some(&v) = self.evaluator.cache.groups.get(&key) {
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
        self.evaluator.cache.groups.insert(key, total);
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
    fn zero_weight_cases_are_dropped() {
        let f = Factor::new([(EventExpr::True, 0.0), (EventExpr::False, 5.0)]);
        assert!(f.cases().is_empty());
        assert_eq!(f.resolved(), Some(0.0));
        assert!(f.support().is_empty());
    }
}
