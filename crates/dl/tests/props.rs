//! Property-based tests for the DL layer: parser round-trips, lattice
//! laws of instance retrieval under lineage semantics, and the footprints
//! and row epochs that let a caller skip a membership or a stamp.
//!
//! `CAPRA_STRESS_ITERS` multiplies the case count of the row-epoch
//! property, as in the serving suites.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use capra_dl::{
    parse_concept, ABox, Concept, IndividualId, Reasoner, TBox, Table, ViewCache, Vocabulary,
};
use capra_events::{Evaluator, EventExpr, Universe};
use proptest::prelude::*;

/// Builds a random small KB: `n_ind` individuals, 2 atomic concepts, 1 role.
/// Assertion events are uncertain booleans with probabilities from seeds.
fn build_kb(
    n_ind: usize,
    concept_seeds: &[(u8, u8)],
    edge_seeds: &[(u8, u8, u8)],
) -> (Vocabulary, Universe, ABox) {
    let mut voc = Vocabulary::new();
    let mut u = Universe::new();
    let mut abox = ABox::new();
    let c0 = voc.concept("C0");
    let c1 = voc.concept("C1");
    let role = voc.role("r");
    let inds: Vec<_> = (0..n_ind)
        .map(|i| voc.individual(&format!("x{i}")))
        .collect();
    for &i in &inds {
        abox.register_individual(i);
    }
    for (k, &(who, p)) in concept_seeds.iter().enumerate() {
        let ind = inds[who as usize % inds.len()];
        let concept = if k % 2 == 0 { c0 } else { c1 };
        let var = u.add_bool(&format!("c{k}"), f64::from(p) / 255.0).unwrap();
        abox.assert_concept(ind, concept, u.bool_event(var).unwrap());
    }
    for (k, &(s, d, p)) in edge_seeds.iter().enumerate() {
        let src = inds[s as usize % inds.len()];
        let dst = inds[d as usize % inds.len()];
        let var = u.add_bool(&format!("e{k}"), f64::from(p) / 255.0).unwrap();
        abox.assert_role(src, role, dst, u.bool_event(var).unwrap());
    }
    (voc, u, abox)
}

prop_compose! {
    fn kb()(
        n_ind in 2usize..5,
        concept_seeds in prop::collection::vec((any::<u8>(), any::<u8>()), 1..6),
        edge_seeds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..5),
    ) -> (Vocabulary, Universe, ABox) {
        build_kb(n_ind, &concept_seeds, &edge_seeds)
    }
}

/// Builds a concept over every constructor from a byte program run on a
/// stack machine: leaves push, `NOT`/`EXISTS`/`FORALL` rewrite the top,
/// `AND`/`OR` join the two topmost; what is left at the end is disjoined.
/// `D0` and `D1` are TBox-defined in [`terminology`].
fn build_concept(program: &[u8], voc: &mut Vocabulary) -> Concept {
    let role = voc.role("r");
    let ind = |voc: &mut Vocabulary, b: u8| voc.individual(&format!("x{}", b % 6));
    let mut stack: Vec<Concept> = Vec::new();
    for &b in program {
        let arg = b / 12;
        let top = stack.pop();
        match (b % 12, top) {
            (0, top) => {
                stack.extend(top);
                stack.push(Concept::Top);
            }
            (1, top) => {
                stack.extend(top);
                stack.push(Concept::Bottom);
            }
            (2, top) => {
                stack.extend(top);
                let pair = [ind(voc, arg), ind(voc, arg / 2 + 1)];
                stack.push(Concept::one_of(pair));
            }
            (3..=6, top) => {
                stack.extend(top);
                let name = ["C0", "C1", "D0", "D1"][usize::from(arg % 4)];
                stack.push(Concept::atomic(voc.concept(name)));
            }
            (7, Some(top)) => stack.push(Concept::not(top)),
            (8, Some(top)) => stack.push(Concept::exists(role, top)),
            (9, Some(top)) => stack.push(Concept::forall(role, top)),
            (10, Some(top)) => match stack.pop() {
                Some(below) => stack.push(Concept::and([below, top])),
                None => stack.push(top),
            },
            (11, Some(top)) => match stack.pop() {
                Some(below) => stack.push(Concept::or([below, top])),
                None => stack.push(top),
            },
            // An operator with nothing to work on.
            (_, top) => {
                stack.extend(top);
                stack.push(Concept::atomic(voc.concept("C0")));
            }
        }
    }
    Concept::or(stack)
}

/// `D0 ≡ C0 AND EXISTS r.C1`, `D1 ≡ NOT D0 OR {x0}` — a role-chained and a
/// closed-world definition, the second through the first.
fn terminology(voc: &mut Vocabulary) -> TBox {
    let mut tbox = TBox::new();
    for (name, body) in [("D0", "C0 AND EXISTS r.C1"), ("D1", "NOT D0 OR {x0}")] {
        let body = parse_concept(body, voc).unwrap();
        tbox.define(voc.concept(name), body, voc).unwrap();
    }
    tbox
}

const TOL: f64 = 1e-9;

/// Applies mutation `extra` — a row, an edge, or a domain registration —
/// about one of `x0..x5`.
fn mutate(abox: &mut ABox, voc: &mut Vocabulary, extra: u8) {
    let who = voc.individual(&format!("x{}", extra % 6));
    match extra / 6 % 3 {
        0 => abox.assert_concept(who, voc.concept("C1"), EventExpr::True),
        1 => abox.assert_role(voc.individual("x0"), voc.role("r"), who, EventExpr::True),
        _ => abox.register_individual(who),
    }
}

/// Applies mutation `extra` with a fresh uncertain event: a `C0` or `C1`
/// row of one of `x0..x5`, an `r` edge between two of them, or a domain
/// registration.
fn mutate_rows(abox: &mut ABox, voc: &mut Vocabulary, u: &mut Universe, extra: u8) {
    let who = voc.individual(&format!("x{}", extra % 6));
    let var = u.add_bool(&format!("m{}", u.len()), 0.5).unwrap();
    let event = u.bool_event(var).unwrap();
    match extra / 6 % 4 {
        0 => abox.assert_concept(who, voc.concept("C0"), event),
        1 => abox.assert_concept(who, voc.concept("C1"), event),
        2 => {
            let to = voc.individual(&format!("x{}", extra / 24 % 6));
            abox.assert_role(who, voc.role("r"), to, event);
        }
        _ => abox.register_individual(who),
    }
}

/// `x` and every individual an `r` path from `x` reaches.
fn reach(abox: &ABox, voc: &mut Vocabulary, x: IndividualId) -> BTreeSet<IndividualId> {
    let role = voc.role("r");
    let (mut seen, mut todo) = (BTreeSet::from([x]), vec![x]);
    while let Some(at) = todo.pop() {
        for edge in abox.role_edges_from(role, at) {
            if seen.insert(edge.dst) {
                todo.push(edge.dst);
            }
        }
    }
    seen
}

/// Multiplier on the row-epoch property's case count (see the module
/// docs).
fn stress_iters() -> u32 {
    std::env::var("CAPRA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The parts the persistence layer exports, read back through the public
/// accessors.
fn rebuild(abox: &ABox) -> ABox {
    let concepts: HashMap<_, BTreeMap<_, _>> = abox
        .concepts()
        .map(|c| {
            (
                c,
                abox.concept_rows(c).map(|(i, e)| (i, e.clone())).collect(),
            )
        })
        .collect();
    let roles: HashMap<_, _> = abox
        .roles()
        .map(|r| (r, abox.role_edges(r).to_vec()))
        .collect();
    ABox::from_parts(concepts, roles, abox.domain().clone(), abox.epoch())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn conjunction_is_min_like((mut voc, u, abox) in kb()) {
        // P(x : C0 ⊓ C1) ≤ min(P(x : C0), P(x : C1)) for all x.
        let r = Reasoner::new(&abox);
        let c0 = parse_concept("C0", &mut voc).unwrap();
        let c1 = parse_concept("C1", &mut voc).unwrap();
        let both = Concept::and([c0.clone(), c1.clone()]);
        let mut ev = Evaluator::new(&u);
        for (&x, e) in &r.instances(&both) {
            let p = ev.prob(e);
            let p0 = ev.prob(&r.membership(x, &c0));
            let p1 = ev.prob(&r.membership(x, &c1));
            prop_assert!(p <= p0.min(p1) + TOL);
        }
    }

    #[test]
    fn union_inclusion_exclusion((mut voc, u, abox) in kb()) {
        let r = Reasoner::new(&abox);
        let c0 = parse_concept("C0", &mut voc).unwrap();
        let c1 = parse_concept("C1", &mut voc).unwrap();
        let either = Concept::or([c0.clone(), c1.clone()]);
        let both = Concept::and([c0.clone(), c1.clone()]);
        let mut ev = Evaluator::new(&u);
        for &x in abox.domain() {
            let pu = ev.prob(&r.membership(x, &either));
            let pi = ev.prob(&r.membership(x, &both));
            let p0 = ev.prob(&r.membership(x, &c0));
            let p1 = ev.prob(&r.membership(x, &c1));
            prop_assert!((pu + pi - (p0 + p1)).abs() < TOL);
        }
    }

    #[test]
    fn negation_complements((mut voc, u, abox) in kb()) {
        let r = Reasoner::new(&abox);
        let c0 = parse_concept("C0", &mut voc).unwrap();
        let neg = Concept::not(c0.clone());
        let mut ev = Evaluator::new(&u);
        for &x in abox.domain() {
            let p = ev.prob(&r.membership(x, &c0));
            let np = ev.prob(&r.membership(x, &neg));
            prop_assert!((p + np - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn exists_forall_duality((mut voc, u, abox) in kb()) {
        // ∃R.C ≡ ¬∀R.¬C under closed-world semantics.
        let r = Reasoner::new(&abox);
        let some = parse_concept("EXISTS r.C0", &mut voc).unwrap();
        let dual = parse_concept("NOT FORALL r.(NOT C0)", &mut voc).unwrap();
        let mut ev = Evaluator::new(&u);
        for &x in abox.domain() {
            let p1 = ev.prob(&r.membership(x, &some));
            let p2 = ev.prob(&r.membership(x, &dual));
            prop_assert!((p1 - p2).abs() < TOL, "x={x:?}: {p1} vs {p2}");
        }
    }

    #[test]
    fn point_membership_is_the_view_row(
        (mut voc, _u, mut abox) in kb(),
        program in prop::collection::vec(any::<u8>(), 1..12),
        extra in any::<u8>(),
    ) {
        let tbox = terminology(&mut voc);
        let concept = build_concept(&program, &mut voc);
        // x0..x5 exist in the vocabulary; the KB's domain holds only the
        // first 2..5 of them, so some are asked about from outside it.
        let everyone: Vec<_> = (0..6).map(|i| voc.individual(&format!("x{i}"))).collect();
        let views = ViewCache::new();
        for round in 0..2 {
            let cold = Reasoner::with_tbox(&abox, &tbox);
            let view = cold.instances(&concept);
            let unfolded = tbox.unfold(&concept);
            let sharing = Reasoner::with_views(&abox, &views);
            prop_assert_eq!(
                &*sharing.instances_shared(&unfolded), &view,
                "round {}: a shared view is the cold view", round
            );
            for &x in &everyone {
                let want = view.get(&x).cloned().unwrap_or(EventExpr::False);
                // A fresh reasoner: the point path must not lean on views.
                let got = Reasoner::with_tbox(&abox, &tbox).membership(x, &concept);
                prop_assert_eq!(
                    &got, &want,
                    "round {}: {:?} in {}", round, x, concept.display(&voc)
                );
                prop_assert_eq!(sharing.membership(x, &unfolded), want);
            }
            // Mutate (a row, an edge or the domain) and go again over the
            // same shared cache: nothing stale may be served.
            let who = everyone[usize::from(extra) % everyone.len()];
            match extra % 3 {
                0 => abox.assert_concept(who, voc.concept("C1"), EventExpr::True),
                1 => abox.assert_role(everyone[0], voc.role("r"), who, EventExpr::True),
                _ => abox.register_individual(who),
            }
        }
    }

    #[test]
    fn an_individual_outside_the_own_footprint_has_the_blank_membership(
        (mut voc, _u, mut abox) in kb(),
        program in prop::collection::vec(any::<u8>(), 1..12),
        extras in prop::collection::vec(any::<u8>(), 2..4),
    ) {
        let tbox = terminology(&mut voc);
        let concept = build_concept(&program, &mut voc);
        let footprint = tbox.unfold(&concept).footprint();
        let blank = if footprint.blank { EventExpr::True } else { EventExpr::False };
        for extra in extras {
            let reasoner = Reasoner::with_tbox(&abox, &tbox);
            for &x in abox.domain() {
                let own = abox.own_tables(x);
                let met = own.iter().any(|t| footprint.own_tables.binary_search(t).is_ok());
                if met || footprint.own_nominals.binary_search(&x).is_ok() {
                    continue;
                }
                prop_assert_eq!(
                    reasoner.membership(x, &concept), blank.clone(),
                    "{:?} (tables {:?}) in {}", x, own, concept.display(&voc)
                );
            }
            mutate(&mut abox, &mut voc, extra);
        }
    }

    #[test]
    fn a_stamp_moves_exactly_when_a_footprint_table_moved(
        (mut voc, _u, mut abox) in kb(),
        program in prop::collection::vec(any::<u8>(), 1..12),
        extras in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let tbox = terminology(&mut voc);
        let unfolded = tbox.unfold(&build_concept(&program, &mut voc));
        let tables = unfolded.footprint().tables;
        for extra in extras {
            let (epoch, stamp) = (abox.epoch(), abox.stamp(&unfolded));
            mutate(&mut abox, &mut voc, extra);
            let hit = abox.moved_since(epoch).any(|t| tables.binary_search(&t).is_ok());
            prop_assert_eq!(abox.stamp(&unfolded) != stamp, hit, "{}", unfolded.display(&voc));
        }
    }

    #[test]
    fn from_parts_rebuilds_the_per_individual_and_per_epoch_indexes(
        (mut voc, _u, mut abox) in kb(),
        extra in any::<u8>(),
    ) {
        let mut rebuilt = rebuild(&abox);
        let everyone: Vec<_> = (0..6).map(|i| voc.individual(&format!("x{i}"))).collect();
        let moved = |abox: &ABox, epoch| abox.moved_since(epoch).collect::<Vec<Table>>();
        let epoch = abox.epoch();
        for round in 0..2 {
            for &x in &everyone {
                prop_assert_eq!(rebuilt.own_tables(x), abox.own_tables(x), "round {}", round);
            }
            // Every table has changed since the empty ABox, in whatever
            // order; the rebuild knows no older history than its epoch.
            let ever: BTreeSet<Table> = moved(&abox, 0).into_iter().collect();
            prop_assert_eq!(moved(&rebuilt, 0).into_iter().collect::<BTreeSet<_>>(), ever);
            prop_assert_eq!(moved(&rebuilt, epoch), moved(&abox, epoch), "round {}", round);
            mutate(&mut abox, &mut voc, extra);
            mutate(&mut rebuilt, &mut voc, extra);
        }
    }

    #[test]
    fn top_covers_domain((_voc, _u, abox) in kb()) {
        let r = Reasoner::new(&abox);
        let m = r.instances(&Concept::Top);
        prop_assert_eq!(m.len(), abox.domain().len());
        prop_assert!(m.values().all(EventExpr::is_true));
    }

    #[test]
    fn display_parse_round_trip((mut voc, _u, _abox) in kb(), shape in 0u8..6) {
        let c = match shape {
            0 => parse_concept("C0 AND NOT C1", &mut voc).unwrap(),
            1 => parse_concept("EXISTS r.(C0 OR C1)", &mut voc).unwrap(),
            2 => parse_concept("FORALL r.{x0}", &mut voc).unwrap(),
            3 => parse_concept("{x0, x1}", &mut voc).unwrap(),
            4 => parse_concept("TOP AND C0", &mut voc).unwrap(),
            _ => parse_concept("NOT (C0 OR EXISTS r.C1)", &mut voc).unwrap(),
        };
        let printed = c.display(&voc).to_string();
        let reparsed = parse_concept(&printed, &mut voc).unwrap();
        prop_assert_eq!(reparsed, c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128 * stress_iters()))]

    /// What lets a returning bind skip a context: a point membership reads
    /// the individual's own rows, its place in the domain, and — through
    /// role fillers — the own rows of whoever its edges reach. So an
    /// individual none of whose own-row epochs moved since `e`, nor those
    /// of anyone it reaches, and whose place in the domain stands, has
    /// every membership it had at `e`, under every constructor (TBox names
    /// included), however much else moved.
    #[test]
    fn unmoved_row_epochs_keep_every_membership(
        (mut voc, mut u, mut abox) in kb(),
        program in prop::collection::vec(any::<u8>(), 1..12),
        extras in prop::collection::vec(any::<u8>(), 1..6),
    ) {
        let tbox = terminology(&mut voc);
        let concept = build_concept(&program, &mut voc);
        let everyone: Vec<_> = (0..6).map(|i| voc.individual(&format!("x{i}"))).collect();
        let epoch = abox.epoch();
        let was: Vec<(EventExpr, bool)> = everyone
            .iter()
            .map(|&x| {
                let member = Reasoner::with_tbox(&abox, &tbox).membership(x, &concept);
                (member, abox.domain().contains(&x))
            })
            .collect();
        for extra in extras {
            mutate_rows(&mut abox, &mut voc, &mut u, extra);
        }
        let reasoner = Reasoner::with_tbox(&abox, &tbox);
        for (&x, (member, in_domain)) in everyone.iter().zip(was) {
            let unmoved = reach(&abox, &mut voc, x)
                .into_iter()
                .all(|y| abox.own_row_epochs(y).iter().all(|&at| at <= epoch));
            if unmoved && abox.domain().contains(&x) == in_domain {
                prop_assert_eq!(
                    reasoner.membership(x, &concept), member,
                    "{:?} in {}", x, concept.display(&voc)
                );
            }
        }
    }
}
