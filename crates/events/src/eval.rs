use crate::hashers::FastMap;
use crate::{clamp_prob, EvalCache, EventExpr, Universe, VarId};

/// Exact probability evaluator for [`EventExpr`]s.
///
/// The evaluator computes `P(e)` by **Shannon expansion**: it repeatedly
/// picks a variable from the support of the expression, conditions on each of
/// its outcomes (which are mutually exclusive and exhaustive), and recurses
/// on the restricted expression:
///
/// ```text
/// P(e) = Σ_o  P(var = o) · P(e | var = o)
/// ```
///
/// Three optimisations keep this tractable on the expressions CAPRA
/// produces:
///
/// * **Identity-keyed memoisation** — restricted sub-expressions recur
///   heavily (the smart constructors canonicalise children precisely so
///   that they do). Because expressions are hash-consed, the memo is keyed
///   by the stable interner node id: a lookup is one integer hash instead
///   of a full tree walk, and hits survive re-construction of the same
///   structure from different call sites.
/// * **Independent-component factorisation** — the support of a conjunction
///   or disjunction is partitioned into groups of children that share
///   variables; groups are mutually independent, so
///   `P(∧ groups) = Π P(group)` and `P(∨ groups) = 1 − Π (1 − P(group))`.
///   Grouping runs over the per-node support slices cached at construction;
///   a node whose children share no variable at all — its support is as
///   long as theirs together — is multiplied child by child, with no
///   grouping built.
/// * **Pivot caching** — the Shannon pivot (most-frequent variable) is a
///   pure function of the expression node, so it is computed once per node
///   id instead of once per expansion.
///
/// The evaluator holds its memo tables across calls and drops them with
/// itself; reuse one evaluator when scoring many expressions over the same
/// universe. Entries survive further variable declarations on that
/// universe, since declared variables are immutable.
pub struct Evaluator<'u> {
    universe: &'u Universe,
    /// Also carries the factor-group memo of an [`crate::Expectation`]
    /// built around this evaluator.
    pub(crate) cache: EvalCache,
    stats: EvalStats,
    /// Disable memoisation (for ablation benchmarks).
    use_memo: bool,
    /// Disable component factorisation (for ablation benchmarks).
    use_components: bool,
}

/// Counters describing the work an [`Evaluator`] performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Shannon expansions performed.
    pub expansions: u64,
    /// Memo-table hits.
    pub memo_hits: u64,
    /// Component factorisations applied.
    pub component_splits: u64,
    /// Pivot-cache hits (pivot reused without re-counting atoms).
    pub pivot_hits: u64,
}

impl<'u> Evaluator<'u> {
    /// Creates an evaluator over `universe` with all optimisations enabled.
    pub fn new(universe: &'u Universe) -> Self {
        Self {
            universe,
            cache: EvalCache::default(),
            stats: EvalStats::default(),
            use_memo: true,
            use_components: true,
        }
    }

    /// Creates an evaluator with optimisations toggled individually.
    /// Used by the ablation benchmarks; semantics are unchanged.
    pub fn with_options(universe: &'u Universe, use_memo: bool, use_components: bool) -> Self {
        Self {
            use_memo,
            use_components,
            ..Self::new(universe)
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Exact probability of `expr` under the evaluator's universe.
    pub fn prob(&mut self, expr: &EventExpr) -> f64 {
        clamp_prob(self.prob_rec(expr))
    }

    /// `(P(a ∧ b), P(a ∧ ¬b))` with the bits
    /// `(prob(&and([a, b])), prob(&and([a, not(b)])))` would return, from
    /// the parts' own probabilities: neither conjunction nor `¬b` is
    /// interned and nothing keyed on the pair is memoised (see
    /// [`crate::Expectation::prob_split`], the public entry point).
    ///
    /// That works whenever the conjunction's children are exactly the two
    /// parts: [`Evaluator::prob_connective`] then factorises it into two
    /// single-child components and multiplies their *unclamped*
    /// probabilities ([`Evaluator::prob_parts`]; `1.0 * x` is exact and two
    /// factors commute, so the canonical child order does not matter).
    /// `None` when they are not: a constant `b`, a `False` `a`, shared
    /// variables, or an `And` among `a`, `b`, `¬b`, which would flatten
    /// into the conjunction and regroup. A `True` `a` is accepted: the
    /// conjunctions are `b` and `¬b`.
    pub(crate) fn prob_split(&mut self, a: &EventExpr, b: &EventExpr) -> Option<(f64, f64)> {
        if b.is_const() {
            return None;
        }
        let pa = match a {
            EventExpr::True => 1.0,
            EventExpr::False | EventExpr::And(_) => return None,
            _ => {
                let flattens = match b {
                    EventExpr::And(_) => true,
                    EventExpr::Not(inner) => matches!(***inner, EventExpr::And(_)),
                    _ => false,
                };
                if flattens
                    || !self.use_components
                    || !disjoint(a.support_slice(), b.support_slice())
                {
                    return None;
                }
                self.prob_parts(a).0
            }
        };
        let (pb, pnb) = self.prob_parts(b);
        Some((clamp_prob(pa * pb), clamp_prob(pa * pnb)))
    }

    /// The unclamped `(P(e), P(¬e))` that [`Evaluator::prob_split`]
    /// multiplies — its one source of them, so a caller that multiplies and
    /// clamps the parts itself gets `prob_split`'s bits (see
    /// [`crate::Expectation::prob_parts`], the public entry point).
    pub(crate) fn prob_parts(&mut self, e: &EventExpr) -> (f64, f64) {
        // `not(¬x)` is `x` itself, so its probability is `P(x)`, not
        // `1 − (1 − P(x))`.
        match e {
            EventExpr::Not(inner) => {
                let p = self.prob_rec(inner);
                (1.0 - p, p)
            }
            _ => {
                let p = self.prob_rec(e);
                (p, 1.0 - p)
            }
        }
    }

    fn prob_rec(&mut self, expr: &EventExpr) -> f64 {
        match expr {
            EventExpr::True => return 1.0,
            EventExpr::False => return 0.0,
            EventExpr::Atom(a) => {
                return self
                    .universe
                    .alt_prob(a.var, a.alt)
                    .expect("expression references a variable outside its universe");
            }
            EventExpr::Not(inner) => return 1.0 - self.prob_rec(inner),
            _ => {}
        }
        if self.use_memo {
            if let Some(&p) = self.cache.prob.get(expr) {
                self.stats.memo_hits += 1;
                return p;
            }
        }
        let p = self.prob_connective(expr);
        if self.use_memo {
            self.cache.prob.insert(expr.clone(), p);
        }
        p
    }

    /// Probability of an `And`/`Or` node: try component factorisation first,
    /// fall back to Shannon expansion on entangled parts.
    fn prob_connective(&mut self, expr: &EventExpr) -> f64 {
        if self.use_components {
            let (kids, is_and) = match expr {
                EventExpr::And(kids) => (&***kids, true),
                EventExpr::Or(kids) => (&***kids, false),
                _ => unreachable!("prob_connective called on non-connective"),
            };
            if pairwise_disjoint(expr, kids) {
                // Every child is a group of its own, in child order — what
                // `component_groups` would return, without building it.
                self.stats.component_splits += 1;
                let mut acc = 1.0;
                for kid in kids {
                    let p = self.prob_rec(kid);
                    acc *= if is_and { p } else { 1.0 - p };
                }
                return if is_and { acc } else { 1.0 - acc };
            }
            let groups = component_groups(kids);
            if groups.len() > 1 {
                self.stats.component_splits += 1;
                let mut acc = 1.0;
                for group in groups {
                    let sub = if is_and {
                        EventExpr::and(group)
                    } else {
                        EventExpr::or(group)
                    };
                    let p = self.prob_rec(&sub);
                    acc *= if is_and { p } else { 1.0 - p };
                }
                return if is_and { acc } else { 1.0 - acc };
            }
        }
        self.shannon(expr)
    }

    fn shannon(&mut self, expr: &EventExpr) -> f64 {
        let var = self.pivot_for(expr);
        self.stats.expansions += 1;
        let n = self
            .universe
            .num_outcomes(var)
            .expect("expression references a variable outside its universe");
        let mut total = 0.0;
        for o in 0..n {
            let p_o = self
                .universe
                .outcome_prob(var, o)
                .expect("outcome index in range");
            if p_o == 0.0 {
                continue;
            }
            let restricted = expr.restrict(var, o);
            total += p_o * self.prob_rec(&restricted);
        }
        total
    }

    /// The Shannon pivot for `expr`, cached by node identity: the pivot is
    /// a pure function of the expression, so the atom-count walk runs once
    /// per distinct node instead of once per expansion.
    fn pivot_for(&mut self, expr: &EventExpr) -> VarId {
        if let Some(&var) = self.cache.pivots.get(expr) {
            self.stats.pivot_hits += 1;
            return var;
        }
        let var = pick_pivot(expr).expect("connective node must have support");
        self.cache.pivots.insert(expr.clone(), var);
        var
    }
}

/// Partitions indices `0..supports.len()` into groups connected by shared
/// variables. Shared by the probability evaluator (over child expressions)
/// and the expectation computer (over factors).
pub(crate) fn group_indices<'a, I>(supports: I) -> Vec<Vec<usize>>
where
    I: IntoIterator<Item = &'a [VarId]>,
{
    let supports: Vec<&[VarId]> = supports.into_iter().collect();
    let n = supports.len();
    // Union–find over the items.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: FastMap<VarId, usize> = FastMap::default();
    for (i, sup) in supports.iter().enumerate() {
        for &v in sup.iter() {
            match owner.get(&v) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri] = rj;
                }
                None => {
                    owner.insert(v, i);
                }
            }
        }
    }
    // Emit groups ordered by their smallest member index. Determinism
    // matters: group probabilities are multiplied in this order, and f64
    // multiplication is not associative — hash-map iteration order here
    // would make repeated runs (and parallel shards vs. the sequential
    // path) differ in the last ulp.
    let mut group_of_root: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        match group_of_root[root] {
            Some(g) => groups[g].push(i),
            None => {
                group_of_root[root] = Some(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// True if two sorted supports share no variable.
fn disjoint(a: &[VarId], b: &[VarId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// True if no two of `node`'s children share a variable: the node's support
/// is the union of its children's, each of which is distinct, so it is as
/// long as theirs together exactly when no variable is counted twice.
fn pairwise_disjoint(node: &EventExpr, kids: &[EventExpr]) -> bool {
    let total: usize = kids.iter().map(|k| k.support_slice().len()).sum();
    node.support_slice().len() == total
}

/// Partitions sibling expressions into groups connected by shared variables.
/// Groups are mutually variable-disjoint, hence independent. Uses the
/// supports cached on each node — no tree walks.
pub(crate) fn component_groups(kids: &[EventExpr]) -> Vec<Vec<EventExpr>> {
    group_indices(kids.iter().map(EventExpr::support_slice))
        .into_iter()
        .map(|idxs| idxs.into_iter().map(|i| kids[i].clone()).collect())
        .collect()
}

/// Chooses the Shannon pivot: the variable occurring in the largest number of
/// atoms, which tends to simplify the most sub-terms per expansion.
fn pick_pivot(expr: &EventExpr) -> Option<VarId> {
    let mut counts: FastMap<VarId, usize> = FastMap::default();
    count_atoms(expr, &mut counts);
    counts
        .into_iter()
        .max_by_key(|&(var, count)| (count, std::cmp::Reverse(var)))
        .map(|(var, _)| var)
}

fn count_atoms(expr: &EventExpr, counts: &mut FastMap<VarId, usize>) {
    match expr {
        EventExpr::True | EventExpr::False => {}
        EventExpr::Atom(a) => *counts.entry(a.var).or_default() += 1,
        EventExpr::Not(inner) => count_atoms(inner, counts),
        EventExpr::And(kids) | EventExpr::Or(kids) => {
            for k in kids.iter() {
                count_atoms(k, counts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::brute_force_prob;

    fn universe3() -> (Universe, EventExpr, EventExpr, EventExpr) {
        let mut u = Universe::new();
        let a = u.add_bool("a", 0.5).unwrap();
        let b = u.add_bool("b", 0.25).unwrap();
        let c = u.add_bool("c", 0.8).unwrap();
        let (ea, eb, ec) = (
            u.bool_event(a).unwrap(),
            u.bool_event(b).unwrap(),
            u.bool_event(c).unwrap(),
        );
        (u, ea, eb, ec)
    }

    #[test]
    fn atoms_and_constants() {
        let (u, ea, ..) = universe3();
        let mut ev = Evaluator::new(&u);
        assert_eq!(ev.prob(&EventExpr::True), 1.0);
        assert_eq!(ev.prob(&EventExpr::False), 0.0);
        assert!((ev.prob(&ea) - 0.5).abs() < 1e-12);
        assert!((ev.prob(&EventExpr::not(ea)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn independent_conjunction_multiplies() {
        let (u, ea, eb, ec) = universe3();
        let mut ev = Evaluator::new(&u);
        let e = EventExpr::and([ea, eb, ec]);
        assert!((ev.prob(&e) - 0.5 * 0.25 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn inclusion_exclusion_on_disjunction() {
        let (u, ea, eb, _) = universe3();
        let mut ev = Evaluator::new(&u);
        let e = EventExpr::or([ea, eb]);
        assert!((ev.prob(&e) - (0.5 + 0.25 - 0.125)).abs() < 1e-12);
    }

    #[test]
    fn correlated_subexpressions_are_exact() {
        // P((a ∧ b) ∨ (a ∧ c)) = P(a) · P(b ∨ c) — shares `a`, so naive
        // independence multiplication would be wrong.
        let (u, ea, eb, ec) = universe3();
        let mut ev = Evaluator::new(&u);
        let e = EventExpr::or([
            EventExpr::and([ea.clone(), eb.clone()]),
            EventExpr::and([ea.clone(), ec.clone()]),
        ]);
        let expected = 0.5 * (0.25 + 0.8 - 0.25 * 0.8);
        assert!((ev.prob(&e) - expected).abs() < 1e-12, "{}", ev.prob(&e));
    }

    #[test]
    fn choice_variables_are_mutually_exclusive() {
        let mut u = Universe::new();
        let room = u.add_choice("room", &[0.5, 0.3, 0.2]).unwrap();
        let r0 = u.atom(room, 0).unwrap();
        let r1 = u.atom(room, 1).unwrap();
        let mut ev = Evaluator::new(&u);
        assert_eq!(ev.prob(&EventExpr::and([r0.clone(), r1.clone()])), 0.0);
        assert!((ev.prob(&EventExpr::or([r0, r1])) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn residual_outcome_counts() {
        let mut u = Universe::new();
        let v = u.add_choice("v", &[0.3, 0.3]).unwrap();
        let e = EventExpr::not(EventExpr::or([
            u.atom(v, 0).unwrap(),
            u.atom(v, 1).unwrap(),
        ]));
        let mut ev = Evaluator::new(&u);
        assert!((ev.prob(&e) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_handmade_cases() {
        let mut u = Universe::new();
        let a = u.add_bool("a", 0.3).unwrap();
        let b = u.add_choice("b", &[0.2, 0.5]).unwrap();
        let c = u.add_bool("c", 0.9).unwrap();
        let ea = u.bool_event(a).unwrap();
        let eb0 = u.atom(b, 0).unwrap();
        let eb1 = u.atom(b, 1).unwrap();
        let ec = u.bool_event(c).unwrap();
        let cases = vec![
            EventExpr::and([ea.clone(), EventExpr::or([eb0.clone(), ec.clone()])]),
            EventExpr::or([
                EventExpr::and([ea.clone(), eb0.clone()]),
                EventExpr::and([EventExpr::not(ea.clone()), eb1.clone()]),
            ]),
            EventExpr::not(EventExpr::and([
                EventExpr::or([ea.clone(), eb1.clone()]),
                EventExpr::or([EventExpr::not(ec.clone()), eb0.clone()]),
            ])),
        ];
        let mut ev = Evaluator::new(&u);
        for e in cases {
            let exact = ev.prob(&e);
            let brute = brute_force_prob(&u, &e);
            assert!(
                (exact - brute).abs() < 1e-12,
                "mismatch for {e}: {exact} vs {brute}"
            );
        }
    }

    #[test]
    fn ablation_options_preserve_semantics() {
        let mut u = Universe::new();
        let vars: Vec<_> = (0..6)
            .map(|i| u.add_bool(&format!("x{i}"), 0.1 + 0.1 * i as f64).unwrap())
            .collect();
        let es: Vec<_> = vars.iter().map(|&v| u.bool_event(v).unwrap()).collect();
        let e = EventExpr::or([
            EventExpr::and([es[0].clone(), es[1].clone(), es[2].clone()]),
            EventExpr::and([es[1].clone(), es[3].clone()]),
            EventExpr::and([es[4].clone(), EventExpr::not(es[5].clone())]),
        ]);
        let mut base = Evaluator::new(&u);
        let expected = base.prob(&e);
        for (memo, comp) in [(false, false), (false, true), (true, false)] {
            let mut ev = Evaluator::with_options(&u, memo, comp);
            assert!((ev.prob(&e) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn memo_hits_accumulate() {
        let (u, ea, eb, _) = universe3();
        let mut ev = Evaluator::new(&u);
        let e = EventExpr::or([
            EventExpr::and([ea.clone(), eb.clone()]),
            EventExpr::and([ea.clone(), EventExpr::not(eb.clone())]),
        ]);
        let p1 = ev.prob(&e);
        let p2 = ev.prob(&e);
        assert_eq!(p1, p2);
        assert!(ev.stats().memo_hits > 0);
    }

    #[test]
    fn memo_hits_survive_reconstruction() {
        // The identity-keyed memo must hit even when the *same structure*
        // is rebuilt from scratch (interned to the same node id), not just
        // when the same value is passed twice.
        let mut u = Universe::new();
        let vars: Vec<_> = (0..4)
            .map(|i| u.add_bool(&format!("m{i}"), 0.4).unwrap())
            .collect();
        let build = |u: &Universe| {
            EventExpr::or([
                EventExpr::and([
                    u.bool_event(vars[0]).unwrap(),
                    u.bool_event(vars[1]).unwrap(),
                ]),
                EventExpr::and([
                    u.bool_event(vars[1]).unwrap(),
                    u.bool_event(vars[2]).unwrap(),
                    u.bool_event(vars[3]).unwrap(),
                ]),
            ])
        };
        let mut ev = Evaluator::new(&u);
        let p1 = ev.prob(&build(&u));
        let hits_before = ev.stats().memo_hits;
        let p2 = ev.prob(&build(&u));
        assert_eq!(p1, p2);
        assert!(
            ev.stats().memo_hits > hits_before,
            "rebuilt expression must hit the id-keyed memo"
        );
    }

    #[test]
    fn pivot_cache_is_used() {
        let (u, ea, eb, ec) = universe3();
        let mut ev = Evaluator::new(&u);
        // Entangled expression (single component) forcing repeated Shannon
        // expansion of shared subproblems.
        let e = EventExpr::or([
            EventExpr::and([ea.clone(), eb.clone()]),
            EventExpr::and([ea.clone(), ec.clone()]),
            EventExpr::and([eb.clone(), ec.clone()]),
        ]);
        let _ = ev.prob(&e);
        let _ = ev.prob(&e); // memo short-circuits, pivots persist
        let mut ev2 = Evaluator::with_options(&u, false, false);
        let _ = ev2.prob(&e);
        let _ = ev2.prob(&e);
        assert!(
            ev2.stats().pivot_hits > 0,
            "repeated expansion of one node must reuse its pivot"
        );
    }

    #[test]
    fn component_groups_partition_correctly() {
        let (_, ea, eb, ec) = universe3();
        let ab = EventExpr::and([ea.clone(), eb.clone()]);
        let groups = component_groups(&[ab, ec.clone()]);
        assert_eq!(groups.len(), 2);
        let groups = component_groups(&[
            EventExpr::and([ea.clone(), eb.clone()]),
            EventExpr::and([eb.clone(), ec.clone()]),
        ]);
        assert_eq!(groups.len(), 1, "b links both children");
    }

    #[test]
    fn disjoint_children_are_singleton_groups_in_child_order() {
        let mut u = Universe::new();
        let (a, b, c) = (
            u.add_bool("a", 0.5).unwrap(),
            u.add_bool("b", 0.25).unwrap(),
            u.add_bool("c", 0.8).unwrap(),
        );
        let room = u.add_choice("room", &[0.5, 0.3]).unwrap();
        let ev = |v| u.bool_event(v).unwrap();
        let nodes = [
            EventExpr::and([ev(a), EventExpr::not(ev(b)), u.atom(room, 1).unwrap()]),
            EventExpr::or([
                EventExpr::and([ev(a), ev(b)]),
                ev(c),
                u.atom(room, 0).unwrap(),
            ]),
        ];
        for node in &nodes {
            let (EventExpr::And(kids) | EventExpr::Or(kids)) = node else {
                panic!("{node} is a connective");
            };
            assert!(pairwise_disjoint(node, kids), "{node}");
            let singletons: Vec<Vec<EventExpr>> = kids.iter().map(|k| vec![k.clone()]).collect();
            assert_eq!(component_groups(kids), singletons, "{node}");
            // The evaluator multiplies child by child, in that order.
            let mut evaluator = Evaluator::new(&u);
            let is_and = matches!(node, EventExpr::And(_));
            let mut acc = 1.0;
            for kid in kids.iter() {
                let p = evaluator.prob_rec(kid);
                acc *= if is_and { p } else { 1.0 - p };
            }
            let want = if is_and { acc } else { 1.0 - acc };
            assert_eq!(Evaluator::new(&u).prob(node).to_bits(), want.to_bits());
        }
        let entangled = EventExpr::or([EventExpr::and([ev(a), ev(b)]), ev(a), ev(c)]);
        let EventExpr::Or(kids) = &entangled else {
            panic!("{entangled} is a disjunction");
        };
        assert!(
            !pairwise_disjoint(&entangled, kids),
            "`a` is in two children"
        );
    }
}
