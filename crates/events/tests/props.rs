//! Property-based tests for the event-expression substrate.
//!
//! Strategy: generate small random universes (boolean + choice variables)
//! and random expressions over them, then check the exact evaluator against
//! algebraic laws and against brute-force possible-world enumeration.

use capra_events::worlds::brute_force_prob;
use capra_events::{
    brute_force_expectation, expectation, Evaluator, EventExpr, Expectation, Factor, Universe,
    VarId,
};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

/// A reproducible random universe of `n_bool` boolean variables and
/// `n_choice` three-way choice variables, with probabilities derived from
/// the given byte seeds.
fn build_universe(bool_ps: &[u8], choice_ps: &[(u8, u8)]) -> (Universe, Vec<VarId>) {
    let mut u = Universe::new();
    let mut vars = Vec::new();
    for (i, &b) in bool_ps.iter().enumerate() {
        let p = f64::from(b) / 255.0;
        vars.push(u.add_bool(&format!("b{i}"), p).unwrap());
    }
    for (i, &(x, y)) in choice_ps.iter().enumerate() {
        // Two alternatives scaled to sum below 1; residual takes the rest.
        let p0 = f64::from(x) / 512.0;
        let p1 = f64::from(y) / 512.0;
        vars.push(u.add_choice(&format!("c{i}"), &[p0, p1]).unwrap());
    }
    (u, vars)
}

/// Recursively build an expression from a shape script. Each step consumes
/// entries from `ops`; depth is bounded by construction of the vec length.
/// `n_bool` is the number of leading boolean variables in `vars` (which only
/// have alternative 0); the remaining choice variables have two.
fn build_expr(
    vars: &[VarId],
    n_bool: usize,
    alts: &[u16],
    ops: &[u8],
    pos: &mut usize,
    depth: u32,
) -> EventExpr {
    let atom_for = |idx: usize, alt_seed: u16| {
        let vi = idx % vars.len();
        let alt = if vi < n_bool { 0 } else { alt_seed % 2 };
        EventExpr::atom(vars[vi], alt)
    };
    if *pos >= ops.len() || depth > 3 {
        let a = atom_for(*pos, alts[*pos % alts.len()]);
        *pos += 1;
        return a;
    }
    let op = ops[*pos];
    *pos += 1;
    match op % 4 {
        0 => atom_for(op as usize, u16::from(op) >> 2),
        1 => EventExpr::not(build_expr(vars, n_bool, alts, ops, pos, depth + 1)),
        2 => EventExpr::and([
            build_expr(vars, n_bool, alts, ops, pos, depth + 1),
            build_expr(vars, n_bool, alts, ops, pos, depth + 1),
        ]),
        _ => EventExpr::or([
            build_expr(vars, n_bool, alts, ops, pos, depth + 1),
            build_expr(vars, n_bool, alts, ops, pos, depth + 1),
        ]),
    }
}

prop_compose! {
    fn scenario()(
        bool_ps in prop::collection::vec(any::<u8>(), 1..4),
        choice_ps in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        ops in prop::collection::vec(any::<u8>(), 1..24),
        alts in prop::collection::vec(any::<u16>(), 1..8),
    ) -> (Universe, EventExpr) {
        let (u, vars) = build_universe(&bool_ps, &choice_ps);
        let mut pos = 0;
        let e = build_expr(&vars, bool_ps.len(), &alts, &ops, &mut pos, 0);
        (u, e)
    }
}

prop_compose! {
    /// Two expressions over one universe. One time in three both are drawn
    /// from all the variables (they usually share one); otherwise `a` from
    /// the first half and `b` from the second (variable-disjoint). `fixed`
    /// sometimes replaces `a` by a constant. Shapes are whatever
    /// `build_expr` yields: atoms, `Not`, `And`, `Or` (two atoms under an
    /// `Or` is the `slot ∨ fresh` of a re-asserted fact), nested, and the
    /// constants they can simplify to.
    fn split_pair()(
        bool_ps in prop::collection::vec(any::<u8>(), 2..5),
        choice_ps in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        ops_a in prop::collection::vec(any::<u8>(), 1..12),
        ops_b in prop::collection::vec(any::<u8>(), 1..12),
        alts in prop::collection::vec(any::<u16>(), 1..8),
        pools in any::<u8>(),
        fixed in any::<u8>(),
    ) -> (Universe, EventExpr, EventExpr) {
        let (u, vars) = build_universe(&bool_ps, &choice_ps);
        let half = vars.len() / 2;
        let n_bool = bool_ps.len();
        // `build_expr` tells boolean variables (alternative 0 only) from
        // choice variables by position, so each pool gets its own count.
        let (pool_a, bools_a, pool_b, bools_b) = if pools < 85 {
            (&vars[..], n_bool, &vars[..], n_bool)
        } else {
            (&vars[..half], n_bool.min(half), &vars[half..], n_bool.saturating_sub(half))
        };
        let a = match fixed % 8 {
            0 => EventExpr::True,
            1 => EventExpr::False,
            _ => build_expr(pool_a, bools_a, &alts, &ops_a, &mut 0, 0),
        };
        let b = build_expr(pool_b, bools_b, &alts, &ops_b, &mut 0, 0);
        (u, a, b)
    }
}

prop_compose! {
    /// An `And` or an `Or` of two to four variable-disjoint children, each
    /// drawn by `build_expr` from a pool of variables of its own — atoms,
    /// negations, nested connectives, choice atoms — and whatever node the
    /// constructor makes of them.
    fn disjoint_connective()(
        bool_ps in prop::collection::vec(any::<u8>(), 8..9),
        choice_ps in prop::collection::vec((any::<u8>(), any::<u8>()), 4..5),
        kid_ops in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..10), 2..5),
        alts in prop::collection::vec(any::<u16>(), 1..8),
        is_and in any::<bool>(),
    ) -> (Universe, EventExpr) {
        let (u, vars) = build_universe(&bool_ps, &choice_ps);
        let (bools, choices) = vars.split_at(bool_ps.len());
        let n = kid_ops.len();
        // Child `i` draws from every `n`-th variable of each kind from `i` on.
        let kids: Vec<EventExpr> = kid_ops
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let mut pool: Vec<VarId> = bools.iter().skip(i).step_by(n).copied().collect();
                let n_bool = pool.len();
                pool.extend(choices.iter().skip(i).step_by(n));
                let kid = build_expr(&pool, n_bool, &alts, ops, &mut 0, 0);
                // A child of the node's own kind would flatten into it,
                // and its children, drawn from one pool, share variables.
                match (&kid, is_and) {
                    (EventExpr::And(_), true) | (EventExpr::Or(_), false) => EventExpr::not(kid),
                    _ => kid,
                }
            })
            .collect();
        let node = if is_and { EventExpr::and(kids) } else { EventExpr::or(kids) };
        (u, node)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A connective whose children share no variable is evaluated child by
    /// child; that product matches the possible worlds.
    #[test]
    fn disjoint_connectives_match_brute_force((u, e) in disjoint_connective()) {
        if let EventExpr::And(kids) | EventExpr::Or(kids) = &e {
            let total: usize = kids.iter().map(|k| k.support_slice().len()).sum();
            prop_assert_eq!(total, e.support_slice().len(), "children of {} are disjoint", e);
        }
        let exact = Evaluator::new(&u).prob(&e);
        let brute = brute_force_prob(&u, &e);
        prop_assert!((exact - brute).abs() < 1e-12, "{exact} vs {brute} for {e}");
    }

    /// `prob_split` answers exactly when the conjunction's children are
    /// the two parts, and then with the bits of the materialised nodes.
    #[test]
    fn prob_split_is_the_materialised_conjunction_or_declines((u, a, b) in split_pair()) {
        let is_and = |e: &EventExpr| matches!(e, EventExpr::And(_));
        let not_b = EventExpr::not(b.clone());
        let shares = a.support().intersection(&b.support()).next().is_some();
        let two_children =
            !a.is_const() && !shares && !is_and(&a) && !is_and(&b) && !is_and(&not_b);
        let answers = !b.is_const() && (a.is_true() || two_children);
        let got = Expectation::new(&u).prob_split(&a, &b);
        prop_assert_eq!(got.is_some(), answers, "a = {}, b = {}", a, b);
        if let Some((with, without)) = got {
            let mut ev = Evaluator::new(&u);
            let want_with = ev.prob(&EventExpr::and([a.clone(), b.clone()]));
            let want_without = ev.prob(&EventExpr::and([a.clone(), not_b]));
            prop_assert_eq!(with.to_bits(), want_with.to_bits(), "a = {}, b = {}", a, b);
            prop_assert_eq!(without.to_bits(), want_without.to_bits(), "a = {}, b = {}", a, b);
            // The parts, multiplied and clamped by the caller, are the same bits.
            let mut ex = Expectation::new(&u);
            let ((pa, _), (pb, pnb)) = (ex.prob_parts(&a), ex.prob_parts(&b));
            prop_assert_eq!((pa * pb).clamp(0.0, 1.0).to_bits(), with.to_bits());
            prop_assert_eq!((pa * pnb).clamp(0.0, 1.0).to_bits(), without.to_bits());
        }
    }

    #[test]
    fn prob_in_unit_interval((u, e) in scenario()) {
        let mut ev = Evaluator::new(&u);
        let p = ev.prob(&e);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn complement_law((u, e) in scenario()) {
        let mut ev = Evaluator::new(&u);
        let p = ev.prob(&e);
        let np = ev.prob(&EventExpr::not(e));
        prop_assert!((p + np - 1.0).abs() < TOL);
    }

    #[test]
    fn idempotence((u, e) in scenario()) {
        let mut ev = Evaluator::new(&u);
        let p = ev.prob(&e);
        prop_assert!((ev.prob(&EventExpr::and([e.clone(), e.clone()])) - p).abs() < TOL);
        prop_assert!((ev.prob(&EventExpr::or([e.clone(), e])) - p).abs() < TOL);
    }

    #[test]
    fn inclusion_exclusion((ua, a) in scenario(), (_ub, _b) in scenario()) {
        // Use two expressions over the SAME universe for a meaningful law;
        // regenerate b over ua's variables by reusing a's complement shape.
        let b = EventExpr::not(a.clone());
        let mut ev = Evaluator::new(&ua);
        let pa = ev.prob(&a);
        let pb = ev.prob(&b);
        let pab = ev.prob(&EventExpr::and([a.clone(), b.clone()]));
        let pa_or_b = ev.prob(&EventExpr::or([a, b]));
        prop_assert!((pa_or_b - (pa + pb - pab)).abs() < TOL);
    }

    #[test]
    fn evaluator_matches_brute_force((u, e) in scenario()) {
        let mut ev = Evaluator::new(&u);
        let exact = ev.prob(&e);
        let brute = brute_force_prob(&u, &e);
        prop_assert!((exact - brute).abs() < TOL, "{exact} vs {brute} for {e}");
    }

    #[test]
    fn interned_evaluator_matches_brute_force_tightly((u, e) in scenario()) {
        // The hash-consing refactor must not move any probability by more
        // than float-noise: 1e-12 against the possible-world oracle.
        let mut ev = Evaluator::new(&u);
        let exact = ev.prob(&e);
        let brute = brute_force_prob(&u, &e);
        prop_assert!((exact - brute).abs() < 1e-12, "{exact} vs {brute} for {e}");
    }

    #[test]
    fn interning_is_stable_under_reconstruction((u, e) in scenario()) {
        // Rebuilding an expression from its structure yields the *same*
        // interned nodes: equal value, equal node id, equal probability.
        let rebuilt = capra_events::parse_event(&e.display(&u).to_string(), &u)
            .expect("display/parse round-trip");
        prop_assert_eq!(&rebuilt, &e);
        prop_assert_eq!(rebuilt.node_id(), e.node_id());
        prop_assert_eq!(rebuilt.cache_key(), e.cache_key());
        let mut ev = Evaluator::new(&u);
        let p1 = ev.prob(&e);
        let p2 = ev.prob(&rebuilt);
        prop_assert!((p1 - p2).abs() == 0.0, "identical nodes must evaluate identically");
    }

    #[test]
    fn support_cache_matches_fresh_walk((u, e) in scenario()) {
        let _ = &u;
        // The per-node support cached at construction must equal a manual
        // recollection over the tree.
        fn walk(e: &EventExpr, out: &mut std::collections::BTreeSet<capra_events::VarId>) {
            match e {
                EventExpr::True | EventExpr::False => {}
                EventExpr::Atom(a) => { out.insert(a.var); }
                EventExpr::Not(inner) => walk(inner, out),
                EventExpr::And(kids) | EventExpr::Or(kids) => {
                    for k in kids.iter() { walk(k, out); }
                }
            }
        }
        let mut fresh = std::collections::BTreeSet::new();
        walk(&e, &mut fresh);
        prop_assert_eq!(e.support(), fresh);
    }

    #[test]
    fn ablations_agree((u, e) in scenario()) {
        let mut base = Evaluator::new(&u);
        let expected = base.prob(&e);
        for (memo, comp) in [(false, false), (true, false), (false, true)] {
            let mut ev = Evaluator::with_options(&u, memo, comp);
            prop_assert!((ev.prob(&e) - expected).abs() < TOL);
        }
    }

    #[test]
    fn expectation_matches_brute_force(
        (u, e1) in scenario(),
        w_hi in 0.0f64..1.0,
        w_lo in 0.0f64..1.0,
    ) {
        // Paper-shaped factors: σ when e holds, 1−σ otherwise, plus a second
        // factor correlated through the same expression's complement.
        let f1 = Factor::new([(e1.clone(), w_hi), (EventExpr::not(e1.clone()), 1.0 - w_hi)]);
        let f2 = Factor::new([
            (EventExpr::not(e1.clone()), w_lo),
            (e1.clone(), 1.0 - w_lo),
        ]);
        let exact = expectation(&u, &[f1.clone(), f2.clone()]);
        let brute = brute_force_expectation(&u, &[f1, f2]);
        prop_assert!((exact - brute).abs() < TOL, "{exact} vs {brute}");
    }

    #[test]
    fn expectation_of_indicator_is_probability((u, e) in scenario()) {
        let mut ev = Evaluator::new(&u);
        let p = ev.prob(&e);
        let via_expect = expectation(&u, &[Factor::indicator(e)]);
        prop_assert!((p - via_expect).abs() < TOL);
    }

    #[test]
    fn restriction_partitions_probability((u, e) in scenario()) {
        // P(e) = Σ_o P(var=o) · P(e | var=o) for any variable in support.
        let support = e.support();
        if let Some(&var) = support.iter().next() {
            let mut ev = Evaluator::new(&u);
            let direct = ev.prob(&e);
            let n = u.num_outcomes(var).unwrap();
            let mut total = 0.0;
            for o in 0..n {
                total += u.outcome_prob(var, o).unwrap() * ev.prob(&e.restrict(var, o));
            }
            prop_assert!((direct - total).abs() < TOL);
        }
    }
}
