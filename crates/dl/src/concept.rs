use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::{ConceptName, IndividualId, RoleName, Table, Vocabulary};

/// A Description Logic concept expression.
///
/// The language is the fragment the paper's preference rules need — atomic
/// concepts, nominals (`{HUMAN-INTEREST}`), boolean combinations and
/// existential restrictions — extended with value restrictions (`∀R.C`) for
/// completeness. Constructors simplify eagerly (flattening, deduplication,
/// canonical child ordering, constant folding, double-negation and
/// complement cancellation), mirroring `capra_events::EventExpr`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Concept {
    /// The universal concept ⊤ (every individual).
    Top,
    /// The empty concept ⊥.
    Bottom,
    /// An atomic (named) concept.
    Atomic(ConceptName),
    /// A nominal concept: exactly the listed individuals.
    OneOf(Arc<BTreeSet<IndividualId>>),
    /// Complement ¬C (closed-world over the ABox domain).
    Not(Arc<Concept>),
    /// Conjunction C₁ ⊓ … ⊓ Cₙ (children sorted, deduplicated).
    And(Arc<[Concept]>),
    /// Disjunction C₁ ⊔ … ⊔ Cₙ (children sorted, deduplicated).
    Or(Arc<[Concept]>),
    /// Existential restriction ∃R.C.
    Exists(RoleName, Arc<Concept>),
    /// Value restriction ∀R.C.
    Forall(RoleName, Arc<Concept>),
}

impl Concept {
    /// The atomic concept with the given name.
    pub fn atomic(name: ConceptName) -> Self {
        Concept::Atomic(name)
    }

    /// The nominal concept `{individuals…}`; empty nominals are ⊥.
    pub fn one_of<I: IntoIterator<Item = IndividualId>>(individuals: I) -> Self {
        let set: BTreeSet<IndividualId> = individuals.into_iter().collect();
        if set.is_empty() {
            Concept::Bottom
        } else {
            Concept::OneOf(Arc::new(set))
        }
    }

    /// Complement with double-negation and constant elimination.
    #[allow(clippy::should_implement_trait)] // constructor over values, not `!` on refs
    pub fn not(c: Concept) -> Self {
        match c {
            Concept::Top => Concept::Bottom,
            Concept::Bottom => Concept::Top,
            Concept::Not(inner) => inner.as_ref().clone(),
            other => Concept::Not(Arc::new(other)),
        }
    }

    /// Conjunction (empty conjunction is ⊤).
    pub fn and<I: IntoIterator<Item = Concept>>(items: I) -> Self {
        Self::nary(items, true)
    }

    /// Disjunction (empty disjunction is ⊥).
    pub fn or<I: IntoIterator<Item = Concept>>(items: I) -> Self {
        Self::nary(items, false)
    }

    /// Existential restriction `∃role.filler`.
    pub fn exists(role: RoleName, filler: Concept) -> Self {
        if filler == Concept::Bottom {
            // ∃R.⊥ has no instances.
            Concept::Bottom
        } else {
            Concept::Exists(role, Arc::new(filler))
        }
    }

    /// Value restriction `∀role.filler`.
    pub fn forall(role: RoleName, filler: Concept) -> Self {
        if filler == Concept::Top {
            // ∀R.⊤ is trivially true for every individual.
            Concept::Top
        } else {
            Concept::Forall(role, Arc::new(filler))
        }
    }

    fn nary<I: IntoIterator<Item = Concept>>(items: I, is_and: bool) -> Self {
        let (absorbing, neutral) = if is_and {
            (Concept::Bottom, Concept::Top)
        } else {
            (Concept::Top, Concept::Bottom)
        };
        let mut children: BTreeSet<Concept> = BTreeSet::new();
        let mut stack: Vec<Concept> = items.into_iter().collect();
        while let Some(item) = stack.pop() {
            match item {
                ref c if *c == neutral => {}
                ref c if *c == absorbing => return absorbing,
                Concept::And(kids) if is_and => stack.extend(kids.iter().cloned()),
                Concept::Or(kids) if !is_and => stack.extend(kids.iter().cloned()),
                other => {
                    children.insert(other);
                }
            }
        }
        for child in &children {
            if let Concept::Not(inner) = child {
                if children.contains(inner.as_ref()) {
                    return absorbing;
                }
            }
        }
        match children.len() {
            0 => neutral,
            1 => children.into_iter().next().expect("len checked"),
            _ => {
                let kids: Arc<[Concept]> = children.into_iter().collect();
                if is_and {
                    Concept::And(kids)
                } else {
                    Concept::Or(kids)
                }
            }
        }
    }

    /// All atomic concept names referenced (transitively).
    pub fn atomic_names(&self) -> BTreeSet<ConceptName> {
        let mut out = BTreeSet::new();
        self.walk(&mut |c| {
            if let Concept::Atomic(n) = c {
                out.insert(*n);
            }
        });
        out
    }

    /// All role names referenced (transitively).
    pub fn role_names(&self) -> BTreeSet<RoleName> {
        let mut out = BTreeSet::new();
        self.walk(&mut |c| match c {
            Concept::Exists(r, _) | Concept::Forall(r, _) => {
                out.insert(*r);
            }
            _ => {}
        });
        out
    }

    /// The tables this node reads by itself, not through its children:
    /// what [`crate::ABox::stamp`] and [`Concept::footprint`] fold over the
    /// tree.
    pub(crate) fn node_tables(&self) -> [Option<Table>; 2] {
        match self {
            Concept::Atomic(name) => [Some(Table::Concept(*name)), None],
            Concept::Exists(role, _) => [Some(Table::Role(*role)), None],
            Concept::Forall(role, _) => [Some(Table::Role(*role)), Some(Table::Domain)],
            Concept::Top | Concept::Not(_) | Concept::OneOf(_) => [Some(Table::Domain), None],
            Concept::Bottom | Concept::And(_) | Concept::Or(_) => [None, None],
        }
    }

    /// What the concept reads of an ABox, and of one individual. Defined
    /// names are read as plain tables, so unfold first ([`crate::TBox::unfold`]),
    /// as for [`crate::ABox::stamp`].
    pub fn footprint(&self) -> Footprint {
        let mut footprint = Footprint::default();
        self.walk(&mut |c| {
            footprint
                .tables
                .extend(c.node_tables().into_iter().flatten())
        });
        footprint.blank = self.own(&mut footprint.own_tables, &mut footprint.own_nominals);
        for tables in [&mut footprint.tables, &mut footprint.own_tables] {
            tables.sort_unstable();
            tables.dedup();
        }
        footprint.own_nominals.sort_unstable();
        footprint.own_nominals.dedup();
        footprint
    }

    /// Collects what a point membership reads of the asked individual
    /// itself at this node — its rows in atomic concepts, its out-edges
    /// under restricted roles, whether a nominal names it — and returns the
    /// membership of an in-domain individual for whom all of it is absent.
    /// A restriction's filler is read of the edges' targets only, so it
    /// adds nothing: with no edge, `∃R.C` is `False` and `∀R.C` `True`.
    fn own(&self, tables: &mut Vec<Table>, nominals: &mut Vec<IndividualId>) -> bool {
        match self {
            Concept::Top => true,
            Concept::Bottom => false,
            Concept::Atomic(name) => {
                tables.push(Table::Concept(*name));
                false
            }
            Concept::OneOf(inds) => {
                nominals.extend(inds.iter().copied());
                false
            }
            Concept::Not(inner) => !inner.own(tables, nominals),
            // Every child is visited: no short circuit.
            Concept::And(kids) => kids
                .iter()
                .fold(true, |all, k| k.own(tables, nominals) & all),
            Concept::Or(kids) => kids
                .iter()
                .fold(false, |any, k| k.own(tables, nominals) | any),
            Concept::Exists(role, _) => {
                tables.push(Table::Role(*role));
                false
            }
            Concept::Forall(role, _) => {
                tables.push(Table::Role(*role));
                true
            }
        }
    }

    /// Pre-order traversal of the concept tree.
    pub fn walk(&self, f: &mut impl FnMut(&Concept)) {
        f(self);
        match self {
            Concept::Not(inner) => inner.walk(f),
            Concept::And(kids) | Concept::Or(kids) => {
                for k in kids.iter() {
                    k.walk(f);
                }
            }
            Concept::Exists(_, filler) | Concept::Forall(_, filler) => filler.walk(f),
            _ => {}
        }
    }

    /// Number of nodes in the concept tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Renders the concept with names resolved against a vocabulary, in the
    /// same syntax accepted by [`crate::parse_concept`].
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayConcept<'a> {
        DisplayConcept { concept: self, voc }
    }
}

/// What a concept reads, as [`Concept::footprint`] reports it: of the ABox
/// as a whole, and of the one individual a point membership asks about.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Every table behind the concept's extension, fillers included and the
    /// domain under `TOP`, `NOT`, `FORALL` and nominals — the tables
    /// [`crate::ABox::stamp`] takes the latest version of. Sorted.
    pub tables: Vec<Table>,
    /// The concept and role tables read of the asked individual itself:
    /// atomic names and restricted roles outside every `∃R.`/`∀R.` filler.
    /// Sorted.
    pub own_tables: Vec<Table>,
    /// The individuals named by nominals outside every filler. Sorted.
    pub own_nominals: Vec<IndividualId>,
    /// The membership of every in-domain individual that has no row or
    /// out-edge in [`Footprint::own_tables`]
    /// ([`crate::ABox::own_tables`]) and is not one of
    /// [`Footprint::own_nominals`] — the same for all of them, and always
    /// certain: `True` or `False`.
    pub blank: bool,
}

/// Helper returned by [`Concept::display`]; round-trips through the parser.
pub struct DisplayConcept<'a> {
    concept: &'a Concept,
    voc: &'a Vocabulary,
}

impl DisplayConcept<'_> {
    fn fmt_concept(&self, c: &Concept, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match c {
            Concept::Top => write!(f, "TOP"),
            Concept::Bottom => write!(f, "BOTTOM"),
            Concept::Atomic(n) => write!(f, "{}", self.voc.concept_name(*n)),
            Concept::OneOf(inds) => {
                write!(f, "{{")?;
                for (i, ind) in inds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.voc.individual_name(*ind))?;
                }
                write!(f, "}}")
            }
            Concept::Not(inner) => {
                write!(f, "NOT ")?;
                self.fmt_child(inner, f)
            }
            Concept::And(kids) => self.fmt_nary(kids, " AND ", f),
            Concept::Or(kids) => self.fmt_nary(kids, " OR ", f),
            Concept::Exists(r, filler) => {
                write!(f, "EXISTS {}.", self.voc.role_name(*r))?;
                self.fmt_child(filler, f)
            }
            Concept::Forall(r, filler) => {
                write!(f, "FORALL {}.", self.voc.role_name(*r))?;
                self.fmt_child(filler, f)
            }
        }
    }

    fn fmt_child(&self, c: &Concept, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if matches!(c, Concept::And(_) | Concept::Or(_)) {
            write!(f, "(")?;
            self.fmt_concept(c, f)?;
            write!(f, ")")
        } else {
            self.fmt_concept(c, f)
        }
    }

    fn fmt_nary(&self, kids: &[Concept], sep: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, k) in kids.iter().enumerate() {
            if i > 0 {
                write!(f, "{sep}")?;
            }
            self.fmt_child(k, f)?;
        }
        Ok(())
    }
}

impl fmt::Display for DisplayConcept<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_concept(self.concept, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voc() -> (Vocabulary, Concept, Concept, Concept) {
        let mut v = Vocabulary::new();
        let a = Concept::atomic(v.concept("A"));
        let b = Concept::atomic(v.concept("B"));
        let c = Concept::atomic(v.concept("C"));
        (v, a, b, c)
    }

    #[test]
    fn constants_fold() {
        let (_, a, ..) = voc();
        assert_eq!(Concept::and([a.clone(), Concept::Top]), a);
        assert_eq!(Concept::and([a.clone(), Concept::Bottom]), Concept::Bottom);
        assert_eq!(Concept::or([a.clone(), Concept::Top]), Concept::Top);
        assert_eq!(Concept::or([a.clone(), Concept::Bottom]), a);
        assert_eq!(Concept::and([]), Concept::Top);
        assert_eq!(Concept::or([]), Concept::Bottom);
    }

    #[test]
    fn flatten_dedup_and_order() {
        let (_, a, b, _) = voc();
        let n1 = Concept::and([a.clone(), Concept::and([b.clone(), a.clone()])]);
        let n2 = Concept::and([b.clone(), a.clone()]);
        assert_eq!(n1, n2);
        match n1 {
            Concept::And(kids) => assert_eq!(kids.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn complement_laws() {
        let (_, a, ..) = voc();
        assert_eq!(Concept::not(Concept::not(a.clone())), a);
        assert_eq!(
            Concept::and([a.clone(), Concept::not(a.clone())]),
            Concept::Bottom
        );
        assert_eq!(
            Concept::or([a.clone(), Concept::not(a.clone())]),
            Concept::Top
        );
        assert_eq!(Concept::not(Concept::Top), Concept::Bottom);
    }

    #[test]
    fn restriction_simplification() {
        let (mut v, a, ..) = voc();
        let r = v.role("r");
        assert_eq!(Concept::exists(r, Concept::Bottom), Concept::Bottom);
        assert_eq!(Concept::forall(r, Concept::Top), Concept::Top);
        assert!(matches!(Concept::exists(r, a.clone()), Concept::Exists(..)));
    }

    #[test]
    fn empty_nominal_is_bottom() {
        assert_eq!(Concept::one_of([]), Concept::Bottom);
    }

    #[test]
    fn collects_names() {
        let (mut v, a, b, _) = voc();
        let r = v.role("r");
        let c = Concept::and([a.clone(), Concept::exists(r, b.clone())]);
        assert_eq!(c.atomic_names().len(), 2);
        assert_eq!(c.role_names().len(), 1);
        assert_eq!(c.size(), 4);
    }

    #[test]
    fn footprints_read_fillers_of_the_abox_but_not_of_the_individual() {
        let mut v = Vocabulary::new();
        let mut parse = |text| crate::parse_concept(text, &mut v).unwrap();
        let chained = parse("A AND EXISTS r.(B AND {x})").footprint();
        let closed = parse("NOT A OR FORALL r.B").footprint();
        let nominal = parse("NOT {x, y}").footprint();
        let (a, b) = (
            Table::Concept(v.concept("A")),
            Table::Concept(v.concept("B")),
        );
        let r = Table::Role(v.role("r"));
        let (x, y) = (v.individual("x"), v.individual("y"));
        assert_eq!(chained.tables, [a, b, r, Table::Domain]);
        assert_eq!(chained.own_tables, [a, r]);
        assert!(chained.own_nominals.is_empty() && !chained.blank);
        assert_eq!((closed.own_tables, closed.blank), (vec![a, r], true));
        assert_eq!(nominal.tables, [Table::Domain]);
        assert_eq!((nominal.own_nominals, nominal.blank), (vec![x, y], true));
        assert!(Concept::Top.footprint().blank && !Concept::Bottom.footprint().blank);
    }

    #[test]
    fn display_round_trip_syntax() {
        let mut v = Vocabulary::new();
        let program = Concept::atomic(v.concept("TvProgram"));
        let genre = v.role("hasGenre");
        let hi = v.individual("HumanInterest");
        let c = Concept::and([program, Concept::exists(genre, Concept::one_of([hi]))]);
        let s = c.display(&v).to_string();
        assert!(s.contains("TvProgram"), "{s}");
        assert!(s.contains("EXISTS hasGenre.{HumanInterest}"), "{s}");
        let reparsed = crate::parse_concept(&s, &mut v).unwrap();
        assert_eq!(reparsed, c);
    }
}
