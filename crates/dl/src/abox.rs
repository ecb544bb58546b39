use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

use capra_events::hashers::FastMap;
use capra_events::EventExpr;

use crate::{Concept, ConceptName, IndividualId, RoleName};

/// A role assertion `(source, destination)` annotated with the event
/// expression under which it holds — the paper's role table row
/// `(SOURCE, DESTINATION, event expression)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleEdge {
    /// Source individual.
    pub src: IndividualId,
    /// Destination individual.
    pub dst: IndividualId,
    /// Event expression under which the edge exists.
    pub event: EventExpr,
}

/// One table of an [`ABox`]: an atomic concept's membership rows, a role's
/// edges, or the closed-world domain — the unit [`ABox::stamp`] versions,
/// [`ABox::moved_since`] reports and a [`crate::Footprint`] lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Table {
    /// The rows of an atomic concept.
    Concept(ConceptName),
    /// The edges of a role.
    Role(RoleName),
    /// The closed-world domain, read by `TOP`, `NOT`, `FORALL` and nominals.
    Domain,
}

/// One concept's membership rows, with the [`ABox::epoch`] at which they
/// last changed stored beside them (an assert reaches both in one lookup).
#[derive(Debug, Clone, Default)]
struct ConceptTable {
    rows: BTreeMap<IndividualId, EventExpr>,
    version: u64,
}

/// End of a per-source edge chain.
const CHAIN_END: u32 = u32::MAX;

/// One role's edges in assertion order, the [`ABox::epoch`] at which they
/// last changed, and a per-source index: `ends[src]` holds the first and
/// last edge leaving `src`, `next[i]` the following edge with edge `i`'s
/// source (or [`CHAIN_END`]). The index is derived from `edges` alone.
#[derive(Debug, Clone, Default)]
struct RoleTable {
    edges: Vec<RoleEdge>,
    ends: FastMap<IndividualId, (u32, u32)>,
    next: Vec<u32>,
    version: u64,
}

impl RoleTable {
    /// Appends `edge`; true if it is the first edge leaving its source.
    fn push(&mut self, edge: RoleEdge) -> bool {
        let at = u32::try_from(self.edges.len())
            .ok()
            .filter(|&at| at != CHAIN_END)
            .expect("a role table holds fewer than u32::MAX edges");
        let mut first = false;
        self.ends
            .entry(edge.src)
            .and_modify(|(_, last)| {
                self.next[*last as usize] = at;
                *last = at;
            })
            .or_insert_with(|| {
                first = true;
                (at, at)
            });
        self.next.push(CHAIN_END);
        self.edges.push(edge);
        first
    }
}

/// One individual's own rows: the tables it has a row or an out-edge in,
/// sorted, and position for position the [`ABox::epoch`] at which that row
/// or those edges last changed.
#[derive(Debug, Clone, Default)]
struct OwnRows {
    tables: Vec<Table>,
    epochs: Vec<u64>,
}

/// An assertional knowledge base with uncertain assertions.
///
/// Mirrors the paper's naive implementation: each concept is a table of
/// `(individual, event expression)` rows and each role a table of
/// `(source, destination, event expression)` rows. The *domain* of the ABox
/// (used for closed-world negation and ⊤) is the set of individuals that
/// appear in any assertion plus any explicitly registered ones.
///
/// Every table — and the domain — remembers the [`ABox::epoch`] at which it
/// last changed, so a view derived from a few of them can tell whether *its*
/// inputs moved ([`ABox::stamp`]) instead of whether anything did.
///
/// Two indexes are derived from the tables, like a role table's per-source
/// index, and rebuilt by [`ABox::from_parts`]:
///
/// * per individual, the concept tables it has a row in and the role tables
///   it has an out-edge under ([`ABox::own_tables`]) — all a point
///   membership reads of the individual itself — each with the epoch at
///   which the individual's row or out-edges there last changed
///   ([`ABox::own_row_epochs`]);
/// * every table, the domain included, ordered by the epoch it last changed
///   at ([`ABox::moved_since`]) — which tables an epoch range touched, with
///   no log to keep or bound.
///
/// Every mutation keeps both in step. Today rows and edges are only added;
/// an assert that replaces a row's event must move its table, and the
/// individual's row there, to the new epoch, and one that removes a row or
/// an individual's last edge under a role must also drop that table from
/// the individual's list.
#[derive(Debug, Clone, Default)]
pub struct ABox {
    /// Keyed by the vocabulary's dense ids, hashed by the workspace's word
    /// mixer: a point membership, a stamp and an assert each probe these.
    concepts: FastMap<ConceptName, ConceptTable>,
    roles: FastMap<RoleName, RoleTable>,
    domain: BTreeSet<IndividualId>,
    /// [`ABox::epoch`] at which the domain last grew.
    domain_version: u64,
    /// Per individual: the tables it has a row or an out-edge in, and when
    /// its rows there last changed.
    own: FastMap<IndividualId, OwnRows>,
    /// `(version, table)` of every table, and of the domain once it grew.
    by_version: BTreeSet<(u64, Table)>,
    /// Monotonic version counter, bumped on every mutation (assertions and
    /// domain registrations — a new domain member changes closed-world
    /// answers even without assertions).
    epoch: u64,
}

impl ABox {
    /// Creates an empty ABox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `inds` to the domain and opens a new epoch if that, or the
    /// assertion the caller is about to record (`asserting`), changes the
    /// ABox; the caller stamps the table it touches with that epoch.
    fn begin_mutation(&mut self, inds: &[IndividualId], asserting: bool) {
        let grew = inds
            .iter()
            .fold(false, |grew, &ind| self.domain.insert(ind) | grew);
        if grew || asserting {
            self.epoch += 1;
        }
        if grew {
            let from = std::mem::replace(&mut self.domain_version, self.epoch);
            self.moved(Table::Domain, from);
        }
    }

    /// Records that `table`, last changed at epoch `from`, changed now.
    fn moved(&mut self, table: Table, from: u64) {
        self.by_version.remove(&(from, table));
        self.by_version.insert((self.epoch, table));
    }

    /// Records that `ind`'s row or out-edges in `table` changed now.
    fn touched(&mut self, ind: IndividualId, table: Table) {
        let own = self.own.entry(ind).or_default();
        match own.tables.binary_search(&table) {
            Ok(at) => own.epochs[at] = self.epoch,
            Err(at) => {
                own.tables.insert(at, table);
                own.epochs.insert(at, self.epoch);
            }
        }
    }

    /// The [`ABox::epoch`] at which `table` last changed (0: never).
    fn version(&self, table: Table) -> u64 {
        match table {
            Table::Concept(name) => self.concepts.get(&name).map_or(0, |t| t.version),
            Table::Role(role) => self.roles.get(&role).map_or(0, |t| t.version),
            Table::Domain => self.domain_version,
        }
    }

    /// Registers an individual in the domain without asserting anything
    /// about it (it will then be an instance of ⊤ and of closed-world
    /// negations).
    ///
    /// Only an actual change bumps the epoch: lookup-style re-registration
    /// (e.g. `Kb::individual` resolving an existing name per request) must
    /// not invalidate binding caches.
    pub fn register_individual(&mut self, ind: IndividualId) {
        self.begin_mutation(&[ind], false);
    }

    /// Monotonic mutation counter. Caches of reasoner-derived views (rule
    /// bindings, materialised concept tables) are valid exactly while the
    /// epoch they were built at still matches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The [`ABox::epoch`] at which anything the extension of `concept`
    /// is derived from last changed: the tables of its atomic concepts and
    /// roles, and — under `TOP`, `NOT`, `FORALL` and nominals, whose answers
    /// range over the closed-world domain — the domain. Epochs only grow
    /// and every mutation stamps what it touched with a fresh one, so two
    /// states of one ABox history with **equal** stamps for a concept hold
    /// the same rows behind it. `concept` must not contain TBox-defined
    /// names (unfold it first): a defined name's table is not its meaning.
    pub fn stamp(&self, concept: &Concept) -> u64 {
        let mut stamp = 0;
        concept.walk(&mut |c| {
            for table in c.node_tables().into_iter().flatten() {
                stamp = stamp.max(self.version(table));
            }
        });
        stamp
    }

    /// The concept tables `ind` has a row in and the role tables it has an
    /// out-edge under, sorted: everything a point membership of `ind` reads
    /// of `ind` itself besides domain membership and nominals. An
    /// individual none of whose tables is in a concept's
    /// [`crate::Footprint::own_tables`] has the concept's blank membership.
    pub fn own_tables(&self, ind: IndividualId) -> &[Table] {
        self.own.get(&ind).map_or(&[], |own| &own.tables)
    }

    /// Position for position with [`ABox::own_tables`], the [`ABox::epoch`]
    /// at which `ind`'s row in that concept table, or its out-edges under
    /// that role, last changed. An individual none of whose entries is past
    /// `e` has every point membership over its own rows it had at `e`.
    pub fn own_row_epochs(&self, ind: IndividualId) -> &[u64] {
        self.own.get(&ind).map_or(&[], |own| &own.epochs)
    }

    /// The tables — the domain included — that changed after `epoch`, in
    /// the order they last changed: exactly those whose
    /// [`ABox::stamp`] contribution moved since this ABox was at `epoch`.
    /// The cost follows the number of tables moved, not the time passed.
    pub fn moved_since(&self, epoch: u64) -> impl Iterator<Item = Table> + '_ {
        self.by_version
            .range((Bound::Excluded((epoch, Table::Domain)), Bound::Unbounded))
            .map(|&(_, table)| table)
    }

    /// Asserts `ind : concept` under `event`. Repeated assertions for the
    /// same pair are combined disjunctively (the membership holds if any of
    /// the asserted events happens).
    pub fn assert_concept(&mut self, ind: IndividualId, concept: ConceptName, event: EventExpr) {
        // A dropped (`False`) assertion still changes the KB iff it
        // introduced the individual to the closed-world domain.
        let asserting = !event.is_false();
        self.begin_mutation(&[ind], asserting);
        if !asserting {
            return;
        }
        let table = self.concepts.entry(concept).or_default();
        let from = std::mem::replace(&mut table.version, self.epoch);
        let slot = table.rows.entry(ind).or_insert(EventExpr::False);
        *slot = EventExpr::or([slot.clone(), event]);
        self.moved(Table::Concept(concept), from);
        self.touched(ind, Table::Concept(concept));
    }

    /// Asserts `(src, dst) : role` under `event`.
    ///
    /// The destination joins the domain too: nominals reference genre/subject
    /// individuals that often carry no concept assertions of their own.
    pub fn assert_role(
        &mut self,
        src: IndividualId,
        role: RoleName,
        dst: IndividualId,
        event: EventExpr,
    ) {
        let asserting = !event.is_false();
        self.begin_mutation(&[src, dst], asserting);
        if !asserting {
            return;
        }
        let table = self.roles.entry(role).or_default();
        let from = std::mem::replace(&mut table.version, self.epoch);
        table.push(RoleEdge { src, dst, event });
        self.moved(Table::Role(role), from);
        self.touched(src, Table::Role(role));
    }

    /// The closed-world domain of the ABox.
    pub fn domain(&self) -> &BTreeSet<IndividualId> {
        &self.domain
    }

    /// Membership rows of an atomic concept (empty if never asserted).
    pub fn concept_rows(
        &self,
        concept: ConceptName,
    ) -> impl Iterator<Item = (IndividualId, &EventExpr)> {
        self.concepts
            .get(&concept)
            .into_iter()
            .flat_map(|t| t.rows.iter().map(|(&i, e)| (i, e)))
    }

    /// The event under which `ind : concept`, `False` if never asserted.
    pub fn concept_event(&self, ind: IndividualId, concept: ConceptName) -> EventExpr {
        self.concepts
            .get(&concept)
            .and_then(|t| t.rows.get(&ind))
            .cloned()
            .unwrap_or(EventExpr::False)
    }

    /// All edges of a role, in assertion order.
    pub fn role_edges(&self, role: RoleName) -> &[RoleEdge] {
        self.roles.get(&role).map_or(&[], |t| t.edges.as_slice())
    }

    /// Edges of a role leaving `src`, in assertion order — O(out-degree)
    /// through the per-source index.
    pub fn role_edges_from(
        &self,
        role: RoleName,
        src: IndividualId,
    ) -> impl Iterator<Item = &RoleEdge> {
        self.roles.get(&role).into_iter().flat_map(move |table| {
            let first = table.ends.get(&src).map(|&(first, _)| first);
            std::iter::successors(first, |&at| {
                Some(table.next[at as usize]).filter(|&next| next != CHAIN_END)
            })
            .map(|at| &table.edges[at as usize])
        })
    }

    /// Concept names that have at least one assertion, in no particular
    /// order.
    pub fn concepts(&self) -> impl Iterator<Item = ConceptName> + '_ {
        self.concepts.keys().copied()
    }

    /// Role names that have at least one assertion, in no particular order.
    pub fn roles(&self) -> impl Iterator<Item = RoleName> + '_ {
        self.roles.keys().copied()
    }

    /// Reassembles an ABox from previously exported parts — the import path
    /// of the persistence layer, which reads the tables back through
    /// [`ABox::concept_rows`] / [`ABox::role_edges`] / [`ABox::domain`].
    ///
    /// The epoch is taken verbatim: unlike the TBox, an ABox epoch is not
    /// derivable from the final state (disjoined re-assertions and dropped
    /// `False` events each bumped it without leaving a distinct row), so
    /// restoring the exact counter is the caller's responsibility. Callers
    /// must pass parts exported from one consistent ABox; this constructor
    /// does not re-validate domain membership. Per-table versions, the
    /// per-source role index and the two indexes of the type docs are
    /// derived state and are rebuilt here: every table, every individual's
    /// row in it, and the domain count as last changed at `epoch`.
    pub fn from_parts(
        concepts: HashMap<ConceptName, BTreeMap<IndividualId, EventExpr>>,
        roles: HashMap<RoleName, Vec<RoleEdge>>,
        domain: BTreeSet<IndividualId>,
        epoch: u64,
    ) -> Self {
        let mut abox = Self {
            domain,
            domain_version: epoch,
            epoch,
            ..Self::default()
        };
        for (name, rows) in concepts {
            for &ind in rows.keys() {
                abox.touched(ind, Table::Concept(name));
            }
            let table = ConceptTable {
                rows,
                version: epoch,
            };
            abox.concepts.insert(name, table);
        }
        for (name, edges) in roles {
            let mut table = RoleTable {
                version: epoch,
                ..RoleTable::default()
            };
            for edge in edges {
                let src = edge.src;
                if table.push(edge) {
                    abox.touched(src, Table::Role(name));
                }
            }
            abox.roles.insert(name, table);
        }
        let tables = abox.concepts.keys().map(|&name| Table::Concept(name));
        let tables = tables.chain(abox.roles.keys().map(|&role| Table::Role(role)));
        abox.by_version = tables.chain([Table::Domain]).map(|t| (epoch, t)).collect();
        abox
    }

    /// Number of concept assertions plus role assertions (the paper reports
    /// its test database size in tuples; this is the same measure).
    pub fn num_tuples(&self) -> usize {
        let c: usize = self.concepts.values().map(|t| t.rows.len()).sum();
        let r: usize = self.roles.values().map(|t| t.edges.len()).sum();
        c + r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocabulary;
    use capra_events::Universe;

    #[test]
    fn assertions_build_domain() {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        let program = voc.concept("TvProgram");
        let genre = voc.role("hasGenre");
        let (oprah, hi, lonely) = (
            voc.individual("Oprah"),
            voc.individual("HumanInterest"),
            voc.individual("Lonely"),
        );
        abox.assert_concept(oprah, program, EventExpr::True);
        abox.assert_role(oprah, genre, hi, EventExpr::True);
        abox.register_individual(lonely);
        assert_eq!(abox.domain().len(), 3);
        assert_eq!(abox.num_tuples(), 2);
    }

    #[test]
    fn duplicate_concept_assertions_disjoin() {
        let mut voc = Vocabulary::new();
        let mut u = Universe::new();
        let mut abox = ABox::new();
        let c = voc.concept("C");
        let x = voc.individual("x");
        let v1 = u01(&mut u, "e1", 0.5);
        let v2 = u01(&mut u, "e2", 0.5);
        let e1 = u.bool_event(v1).unwrap();
        let e2 = u.bool_event(v2).unwrap();
        abox.assert_concept(x, c, e1.clone());
        abox.assert_concept(x, c, e2.clone());
        assert_eq!(abox.concept_event(x, c), EventExpr::or([e1, e2]));
    }

    fn u01(u: &mut Universe, name: &str, p: f64) -> capra_events::VarId {
        u.add_bool(name, p).unwrap()
    }

    #[test]
    fn false_assertions_are_dropped() {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        let c = voc.concept("C");
        let r = voc.role("r");
        let x = voc.individual("x");
        let y = voc.individual("y");
        abox.assert_concept(x, c, EventExpr::False);
        abox.assert_role(x, r, y, EventExpr::False);
        assert_eq!(abox.concept_event(x, c), EventExpr::False);
        assert!(abox.role_edges(r).is_empty());
        // …but the individuals still joined the domain.
        assert_eq!(abox.domain().len(), 2);
    }

    #[test]
    fn epoch_tracks_real_mutations_only() {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        assert_eq!(abox.epoch(), 0);
        let c = voc.concept("C");
        let r = voc.role("r");
        let x = voc.individual("x");
        let y = voc.individual("y");
        let z = voc.individual("z");
        abox.register_individual(x);
        assert_eq!(abox.epoch(), 1);
        // Lookup-style re-registration is a no-op and must not bump.
        abox.register_individual(x);
        assert_eq!(abox.epoch(), 1);
        abox.assert_concept(x, c, EventExpr::True);
        abox.assert_role(x, r, y, EventExpr::True);
        assert_eq!(abox.epoch(), 3);
        // A dropped (False-event) assertion counts only if it grew the
        // closed-world domain.
        abox.assert_concept(y, c, EventExpr::False);
        assert_eq!(abox.epoch(), 3);
        abox.assert_concept(z, c, EventExpr::False);
        assert_eq!(abox.epoch(), 4);
    }

    #[test]
    fn unknown_lookups_are_empty() {
        let mut voc = Vocabulary::new();
        let abox = ABox::new();
        let c = voc.concept("C");
        let r = voc.role("r");
        let x = voc.individual("x");
        assert_eq!(abox.concept_rows(c).count(), 0);
        assert!(abox.role_edges(r).is_empty());
        assert_eq!(abox.concept_event(x, c), EventExpr::False);
    }

    #[test]
    fn role_edges_from_filters_by_source() {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        let r = voc.role("r");
        let (a, b, c) = (
            voc.individual("a"),
            voc.individual("b"),
            voc.individual("c"),
        );
        abox.assert_role(a, r, b, EventExpr::True);
        abox.assert_role(a, r, c, EventExpr::True);
        abox.assert_role(b, r, c, EventExpr::True);
        assert_eq!(abox.role_edges_from(r, a).count(), 2);
        assert_eq!(abox.role_edges_from(r, b).count(), 1);
        assert_eq!(abox.role_edges_from(r, c).count(), 0);
        // Assertion order within a source, interleaved with other sources.
        abox.assert_role(a, r, a, EventExpr::True);
        let dsts: Vec<_> = abox.role_edges_from(r, a).map(|e| e.dst).collect();
        assert_eq!(dsts, [b, c, a]);
        // The index is derived state: an ABox rebuilt from the exported
        // tables answers the same.
        let rebuilt = ABox::from_parts(
            HashMap::new(),
            HashMap::from([(r, abox.role_edges(r).to_vec())]),
            abox.domain().clone(),
            abox.epoch(),
        );
        for src in [a, b, c] {
            assert!(rebuilt
                .role_edges_from(r, src)
                .eq(abox.role_edges_from(r, src)));
        }
    }

    #[test]
    fn own_tables_and_moved_tables_follow_the_asserts() {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        let (c, d) = (voc.concept("C"), voc.concept("D"));
        let r = voc.role("r");
        let (x, y) = (voc.individual("x"), voc.individual("y"));
        abox.assert_concept(x, d, EventExpr::True);
        abox.assert_role(x, r, y, EventExpr::True);
        let start = abox.epoch();
        abox.assert_concept(x, c, EventExpr::True);
        abox.assert_concept(x, d, EventExpr::True);
        let (tc, td, tr) = (Table::Concept(c), Table::Concept(d), Table::Role(r));
        assert_eq!(abox.own_tables(x), [tc, td, tr], "sorted, once each");
        // A role's target gains no table of its own.
        assert!(abox.own_tables(y).is_empty());
        assert_eq!(abox.moved_since(start).collect::<Vec<_>>(), [tc, td]);
        assert_eq!(abox.moved_since(abox.epoch()).count(), 0);
        // A dropped assert that grows the domain moves the domain alone.
        let z = voc.individual("z");
        let before = abox.epoch();
        abox.assert_concept(z, c, EventExpr::False);
        assert_eq!(
            abox.moved_since(before).collect::<Vec<_>>(),
            [Table::Domain]
        );
        assert!(abox.own_tables(z).is_empty());
    }

    #[test]
    fn own_row_epochs_follow_the_individuals_own_rows() {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        let (c, d) = (voc.concept("C"), voc.concept("D"));
        let r = voc.role("r");
        let (x, y) = (voc.individual("x"), voc.individual("y"));
        let (tc, tr) = (Table::Concept(c), Table::Role(r));
        abox.assert_concept(x, c, EventExpr::True);
        abox.assert_role(x, r, y, EventExpr::True);
        assert_eq!(abox.own_tables(x), [tc, tr]);
        assert_eq!(abox.own_row_epochs(x), [1, 2]);
        // Someone else's row moves the table, not `x`'s row in it.
        abox.assert_concept(y, c, EventExpr::True);
        assert_eq!(abox.own_row_epochs(x), [1, 2]);
        assert_eq!(abox.own_row_epochs(y), [3]);
        // A re-assert moves the row again; an edge moves its source's
        // edges alone, not its target's.
        abox.assert_concept(x, c, EventExpr::True);
        abox.assert_role(y, r, x, EventExpr::True);
        assert_eq!(abox.own_row_epochs(x), [4, 2]);
        assert_eq!(
            (abox.own_tables(y), abox.own_row_epochs(y)),
            (&[tc, tr][..], &[3, 5][..])
        );
        // So does a source's second edge under a role.
        abox.assert_role(x, r, x, EventExpr::True);
        assert_eq!(abox.own_row_epochs(x), [4, 6]);
        // A dropped assert writes no row.
        abox.assert_concept(x, d, EventExpr::False);
        assert_eq!(abox.own_row_epochs(x), [4, 6]);
        // The rebuild knows no older history than its epoch.
        let rebuilt = ABox::from_parts(
            HashMap::from([(
                c,
                abox.concept_rows(c).map(|(i, e)| (i, e.clone())).collect(),
            )]),
            HashMap::from([(r, abox.role_edges(r).to_vec())]),
            abox.domain().clone(),
            abox.epoch(),
        );
        for ind in [x, y] {
            assert_eq!(rebuilt.own_tables(ind), abox.own_tables(ind));
            assert_eq!(rebuilt.own_row_epochs(ind), [abox.epoch(); 2]);
        }
        assert!(abox.own_row_epochs(voc.individual("z")).is_empty());
    }

    #[test]
    fn stamps_move_only_with_the_tables_a_concept_reads() {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        let (c, d) = (voc.concept("C"), voc.concept("D"));
        let (r, s) = (voc.role("r"), voc.role("s"));
        let (x, y) = (voc.individual("x"), voc.individual("y"));
        abox.assert_concept(x, c, EventExpr::True);
        abox.assert_role(x, r, y, EventExpr::True);

        let atomic = Concept::atomic(c);
        let chained = Concept::exists(r, Concept::atomic(d));
        let closed = Concept::not(Concept::atomic(c));
        let stamps = |abox: &ABox| {
            [
                abox.stamp(&atomic),
                abox.stamp(&chained),
                abox.stamp(&closed),
            ]
        };
        let before = stamps(&abox);

        // An unrelated role moves the epoch and nothing else.
        abox.assert_role(x, s, y, EventExpr::True);
        assert_eq!(stamps(&abox), before);
        // The filler's table is part of the restriction's footprint.
        abox.assert_concept(y, d, EventExpr::True);
        let after = stamps(&abox);
        assert_eq!((after[0], after[2]), (before[0], before[2]));
        assert_eq!(after[1], abox.epoch());
        // Domain growth moves closed-world concepts only — also when the
        // assertion that introduced the individual was dropped.
        let z = voc.individual("z");
        abox.assert_concept(z, d, EventExpr::False);
        assert_eq!(abox.stamp(&atomic), before[0]);
        assert_eq!(abox.stamp(&chained), after[1]);
        assert_eq!(abox.stamp(&closed), abox.epoch());
        for top in [
            Concept::Top,
            Concept::one_of([x]),
            Concept::forall(r, Concept::atomic(d)),
        ] {
            assert_eq!(abox.stamp(&top), abox.epoch(), "{top:?}");
        }
        assert_eq!(abox.stamp(&Concept::Bottom), 0);
    }
}
