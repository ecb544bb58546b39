//! Feature rows: the document half of the bound rules, resolved once per
//! KB state instead of once per request.
//!
//! A request joins every rule's preference view to its candidate list and
//! needs `P(F_rd)` for each (rule, document) pair it scores — and neither
//! depends on who asks or in which context. A document's **row** is one
//! position in a table of per-rule **columns**: under every rule with a
//! cell anywhere in the table, the document's event there (`False` where
//! it does not match), the event's [`Kind`], and — once some request
//! needed it — the unclamped `(P(F), P(¬F))` of
//! [`capra_events::Expectation::prob_parts`]. The kinds are dense; an
//! event and its probabilities are kept only where a cell has been. The two optimised engines and
//! the top-k bound read their features from these columns and from nowhere
//! else; a kernel walks one rule's column over the candidates' row
//! positions, not one document's cells. The other half of a rule's factor,
//! `P(G_r)`, is the user's and lives on the rule's binding
//! (`RuleBinding::context_parts`, read once per binding and never through
//! the shared memo); a row holds nothing of any context.
//!
//! Rows belong to a [`RowSet`], which stands for exactly one list of view
//! `Arc`s, compared by pointer. A row is filled on its document's first
//! touch — a read of every view, whoever's rules are active, since a row
//! is nobody's in particular — so memory follows the documents ranked, and
//! a rule none of them matches has no column. The sets asked for most
//! recently hang off the `Kb` in a [`RowSlot`] with the lifecycle of the
//! KB's derived views and rule plans; when a catalogue change brings a new
//! list of views the new set takes over its predecessor's rows, and a row
//! is brought up to date when next touched by re-reading only the views
//! that changed. A catalogue assert so costs the documents ranked after it
//! one read each, not one per rule. (A read is a descent into the view, or
//! a step of walking the view beside the batch when the batch is no
//! smaller than a quarter of it: [`Table::bring_up`].)

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError, Weak,
};

use capra_dl::IndividualId;
use capra_events::{EventExpr, Expectation, VarId};

use crate::bind::RuleBinding;
use crate::hash::IdMap;
use crate::Kb;

/// A bound preference view ([`RuleBinding::preference_events`]).
type View = BTreeMap<IndividualId, EventExpr>;

/// What a cell holds, as far as the kernels branch on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Kind {
    /// The document does not match: no event, or `False`.
    Absent,
    /// The event is `True`.
    True,
    /// Any other event that does not flatten.
    Uncertain,
    /// An `And`, or a `Not` of one: conjoined with a context it flattens
    /// into the conjunction, which then multiplies in another order than
    /// the closed form does.
    Flattens,
}

impl Kind {
    /// How many kinds there are: the length of a per-kind table.
    pub(crate) const COUNT: usize = 4;

    fn of(event: &EventExpr) -> Self {
        match event {
            EventExpr::False => Kind::Absent,
            EventExpr::True => Kind::True,
            EventExpr::And(_) => Kind::Flattens,
            EventExpr::Not(inner) if matches!(***inner, EventExpr::And(_)) => Kind::Flattens,
            _ => Kind::Uncertain,
        }
    }
}

/// `prob_parts(event)` of one cell as `f64` bits, or [`UNSET`] until the
/// first request needs it; kept across syncs, which replace only the cells
/// whose event changed. `p_not` is written before `p` (release) and read
/// after it (acquire), so whoever sees `p` set sees its `p_not`.
struct Parts {
    p: AtomicU64,
    p_not: AtomicU64,
}

/// No probability has these bits (a NaN) — and if one ever did, the cell
/// would merely be evaluated again on every read.
const UNSET: u64 = u64::MAX;

impl Parts {
    fn unset() -> Self {
        Self {
            p: AtomicU64::new(UNSET),
            p_not: AtomicU64::new(UNSET),
        }
    }
}

/// A document's event under one rule, and its probabilities.
struct Cell {
    event: EventExpr,
    parts: Parts,
}

/// A row position that has never had a cell under the column's rule.
const NO_CELL: u32 = u32::MAX;

/// One rule's cells: a kind per row position, which is what the kernels
/// walk, and the event and probabilities only where a cell has been — a
/// catalogue whose documents match a few of many rules pays five bytes a
/// row for each other rule.
struct Column {
    kinds: Vec<Kind>,
    /// Per row position, where in `cells` its cell is, or [`NO_CELL`]. A
    /// row keeps its place when its cell goes (the event there is `False`).
    at: Vec<u32>,
    cells: Vec<Cell>,
    /// Positions whose kind is not [`Kind::Absent`]; the column goes when
    /// this reaches 0.
    present: usize,
}

impl Column {
    fn new(rows: usize) -> Self {
        Self {
            kinds: vec![Kind::Absent; rows],
            at: vec![NO_CELL; rows],
            cells: Vec::new(),
            present: 0,
        }
    }

    fn push_absent(&mut self) {
        self.kinds.push(Kind::Absent);
        self.at.push(NO_CELL);
    }

    /// The cell at row position `row`, which has had one.
    #[inline]
    fn cell(&self, row: usize) -> &Cell {
        &self.cells[self.at[row] as usize]
    }

    /// The event at `row`: `False` where the document does not match.
    fn event(&self, row: usize) -> &EventExpr {
        match self.kinds[row] {
            Kind::Absent => &EventExpr::False,
            _ => &self.cell(row).event,
        }
    }

    /// Makes the cell at `row` the one for `event` (`False`: the document
    /// does not match), its probability not yet read.
    fn set(&mut self, row: usize, event: EventExpr) {
        let kind = Kind::of(&event);
        self.present += usize::from(kind != Kind::Absent);
        self.present -= usize::from(self.kinds[row] != Kind::Absent);
        self.kinds[row] = kind;
        let cell = Cell {
            event,
            parts: Parts::unset(),
        };
        match self.at[row] {
            NO_CELL if kind == Kind::Absent => {}
            NO_CELL => {
                self.at[row] = u32::try_from(self.cells.len()).expect("fewer than 2³² cells");
                self.cells.push(cell);
            }
            at => self.cells[at as usize] = cell,
        }
    }
}

/// Per row position: when the row was last brought up to date, and the
/// document's half of the lane test over its cells.
#[derive(Default)]
struct Row {
    /// The [`Table::generation`] the cells were last brought up to; `0`
    /// for a row that has none yet.
    synced: u64,
    /// The union of the cells' variable supports, sorted — meaningful only
    /// while `entangled` is not set.
    support: Vec<VarId>,
    /// Two of the cells share a variable.
    entangled: bool,
}

/// The rows touched so far along one chain of [`RowSet`]s. A table is
/// handed on from a set to its successor in the slot, so a row outlives a
/// view change: it is brought up to date, view by changed view, when a
/// request next touches it.
struct Table {
    /// Document → row position.
    index: IdMap<IndividualId, u32>,
    rows: Vec<Row>,
    /// Per view position, the rule's column — `None` while no row has a
    /// cell under the rule. Every column has one entry per row.
    columns: Vec<Option<Column>>,
    /// Counts the sets the table has served.
    generation: u64,
    /// Per view position, the generation whose set brought in the view now
    /// there: a row synced before it has a cell under that rule to re-read.
    arrived: Vec<u64>,
}

impl Table {
    fn new(views: usize) -> Self {
        Self {
            index: IdMap::default(),
            rows: Vec::new(),
            columns: (0..views).map(|_| None).collect(),
            generation: 1,
            arrived: vec![1; views],
        }
    }

    /// The position of `doc`'s row, if it is there and up to date.
    fn current(&self, doc: &IndividualId) -> Option<u32> {
        let at = *self.index.get(doc)?;
        (self.rows[at as usize].synced == self.generation).then_some(at)
    }

    /// The position of `doc`'s row — a new, empty one if it has none.
    fn position(&mut self, doc: IndividualId) -> u32 {
        let Self {
            index,
            rows,
            columns,
            ..
        } = self;
        *index.entry(doc).or_insert_with(|| {
            rows.push(Row::default());
            for column in columns.iter_mut().flatten() {
                column.push_absent();
            }
            u32::try_from(rows.len() - 1).expect("a row set has fewer than 2³² rows")
        })
    }

    /// Makes the cell under `rule` at row `at` the one for `event` (`None`:
    /// the document does not match); a cell whose event stands, stands.
    fn put(&mut self, rule: usize, at: usize, event: Option<&EventExpr>) {
        let column = &mut self.columns[rule];
        match (column.as_mut(), event) {
            (Some(c), Some(event)) if c.event(at) == event => {}
            (Some(c), Some(event)) => c.set(at, event.clone()),
            (Some(c), None) if c.kinds[at] == Kind::Absent => {}
            (Some(c), None) => {
                c.set(at, EventExpr::False);
                if c.present == 0 {
                    *column = None;
                }
            }
            (None, Some(event)) => {
                let mut c = Column::new(self.rows.len());
                c.set(at, event.clone());
                *column = Some(c);
            }
            (None, None) => {}
        }
    }

    /// Sets row `at`'s `support` and `entangled` from its cells as they now
    /// are, in the capacity `support` already has.
    fn judge(&mut self, at: usize) {
        let row = &mut self.rows[at];
        row.support.clear();
        for column in self.columns.iter().flatten() {
            row.support
                .extend_from_slice(column.event(at).support_slice());
        }
        // A cell's own support is sorted and distinct: a repeat is a
        // variable two cells share.
        row.support.sort_unstable();
        row.entangled = row.support.windows(2).any(|w| w[0] == w[1]);
    }

    /// Brings the rows `behind` — `(document, position)`, ascending and
    /// distinct — up to the table's generation: each reads, from the views
    /// bound in `bindings`, the ones that arrived since it was last synced
    /// (all of them for a new row). A view that dwarfs the batch is
    /// descended into per document; otherwise view and batch, both in
    /// document order, are walked side by side. Each row synced is judged
    /// afresh ([`Table::judge`]). Returns the cells read.
    fn bring_up(&mut self, bindings: &[Arc<RuleBinding>], behind: &[(IndividualId, u32)]) -> u64 {
        let mut read = 0;
        for (rule, b) in bindings.iter().enumerate() {
            let (view, since) = (&*b.preference_events, self.arrived[rule]);
            let walk = view.len() <= behind.len().saturating_mul(4);
            let mut entries = view.iter().peekable();
            for &(doc, at) in behind {
                if since <= self.rows[at as usize].synced {
                    continue;
                }
                let event = if walk {
                    while entries.next_if(|(d, _)| **d < doc).is_some() {}
                    entries.next_if(|(d, _)| **d == doc).map(|(_, e)| e)
                } else {
                    view.get(&doc)
                };
                self.put(rule, at as usize, event.filter(|e| !e.is_false()));
                read += 1;
            }
        }
        for &(_, at) in behind {
            self.judge(at as usize);
            self.rows[at as usize].synced = self.generation;
        }
        read
    }
}

/// The feature rows over one list of preference views.
pub(crate) struct RowSet {
    /// [`Kb::binding_epoch`] of the request that created the set.
    epoch: u64,
    /// Identity only. A `Weak` keeps the allocation, so no other view can
    /// come to live at its address and pointer equality stays exact — but
    /// not the map, so the slot does not keep a cold call's privately
    /// derived views alive after it. Requests read through their bindings.
    views: Vec<Weak<View>>,
    /// Readers hold it for the length of one engine pass over the rows; a
    /// request that finds a row missing or behind takes the write side to
    /// bring its documents' rows up to date, then reads on.
    table: RwLock<Table>,
    /// Cells read from views, here and in every other set of the same
    /// slot.
    reads: Arc<AtomicU64>,
}

impl RowSet {
    fn serves(&self, bindings: &[Arc<RuleBinding>]) -> bool {
        self.views.len() == bindings.len()
            && self
                .views
                .iter()
                .zip(bindings)
                .all(|(view, b)| std::ptr::eq(view.as_ptr(), Arc::as_ptr(&b.preference_events)))
    }

    /// No request can present this set's views again: one of them has no
    /// binding left, and no other view can come to live at its address.
    fn abandoned(&self) -> bool {
        self.views.iter().any(|view| view.strong_count() == 0)
    }

    /// The rows of `docs`, slot by slot, reading from the views what no
    /// request has read since they changed. A candidate no view knows —
    /// the KB need not even have interned it — has the empty row.
    pub(crate) fn rows(&self, bindings: &[Arc<RuleBinding>], docs: &[IndividualId]) -> Rows<'_> {
        debug_assert!(self.serves(bindings), "rows of another set's views");
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        let mut slots: Vec<u32> = Vec::with_capacity(docs.len());
        slots.extend(docs.iter().map_while(|doc| table.current(doc)));
        if slots.len() == docs.len() {
            return Rows { table, slots };
        }
        // Rows are brought up to date in place, under the write side, so
        // racing requests neither do it twice nor see a row half-done —
        // and every step leaves the table valid. Nothing read above is
        // carried across the gap between the two locks: a successor set
        // may have taken the table in it ([`RowSet::hand_on`]).
        drop(table);
        let mut table = self.table.write().unwrap_or_else(PoisonError::into_inner);
        slots.clear();
        let mut behind: Vec<(IndividualId, u32)> = Vec::new();
        for &doc in docs {
            let at = table.position(doc);
            slots.push(at);
            if table.rows[at as usize].synced < table.generation {
                behind.push((doc, at));
            }
        }
        behind.sort_unstable();
        behind.dedup();
        let read = table.bring_up(bindings, &behind);
        self.reads.fetch_add(read, Ordering::Relaxed);
        Rows {
            table: RwLockWriteGuard::downgrade(table),
            slots,
        }
    }

    /// Takes the table for a successor set over `views`, leaving an empty
    /// one behind for whoever still reads this set: the rows stay, and the
    /// positions whose view `Arc` differs are marked to be re-read. `None`
    /// — the successor starts empty — when the rule count differs or a
    /// request is using the table this very moment.
    fn hand_on(&self, views: &[Weak<View>]) -> Option<Table> {
        if self.views.len() != views.len() {
            return None;
        }
        let mut table = match self.table.try_write() {
            Ok(table) => table,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        let mut table = std::mem::replace(&mut *table, Table::new(views.len()));
        table.generation += 1;
        for (arrived, (was, is)) in table.arrived.iter_mut().zip(self.views.iter().zip(views)) {
            if !Weak::ptr_eq(was, is) {
                *arrived = table.generation;
            }
        }
        Some(table)
    }
}

/// The rows of one candidate list, held for one engine pass.
pub(crate) struct Rows<'s> {
    table: RwLockReadGuard<'s, Table>,
    /// Per slot, the document's row position.
    slots: Vec<u32>,
}

impl Rows<'_> {
    /// The column of `rule`, read through the candidates' row positions.
    #[inline]
    pub(crate) fn column(&self, rule: usize) -> ColumnView<'_> {
        ColumnView {
            column: self.table.columns[rule].as_ref(),
            slots: &self.slots,
        }
    }

    /// The sorted union of the variable supports of `slot`'s cells, or
    /// `None` when two of them share a variable — the document's half of
    /// the lane test ([`crate::engines::ContextSupport::clears`]), made
    /// once per sync of the row instead of once per request.
    #[inline]
    pub(crate) fn support(&self, slot: usize) -> Option<&[VarId]> {
        let row = &self.table.rows[self.slots[slot] as usize];
        (!row.entangled).then_some(row.support.as_slice())
    }
}

/// One rule's column as a candidate list sees it: slot by slot, through
/// the documents' row positions. A rule without a column is
/// [`Kind::Absent`] everywhere.
#[derive(Clone, Copy)]
pub(crate) struct ColumnView<'r> {
    column: Option<&'r Column>,
    slots: &'r [u32],
}

impl<'r> ColumnView<'r> {
    /// The kind of `slot`'s cell.
    #[inline]
    pub(crate) fn kind(&self, slot: usize) -> Kind {
        self.column
            .map_or(Kind::Absent, |c| c.kinds[self.slots[slot] as usize])
    }

    /// `slot`'s event, or `None` where the document does not match.
    #[inline]
    pub(crate) fn event(&self, slot: usize) -> Option<&'r EventExpr> {
        let column = self.column?;
        let at = self.slots[slot] as usize;
        (column.kinds[at] != Kind::Absent).then(|| &column.cell(at).event)
    }

    /// The unclamped `(P(F), P(¬F))` of `slot`'s event, which must not be
    /// [`Kind::Absent`]. Evaluated through the asking request's own memo
    /// and only when a request gets this far, so a document nobody scored
    /// leaves no memo entry; racing first readers compute and store the
    /// same pure function of the event.
    #[inline]
    pub(crate) fn parts(&self, slot: usize, expectation: &mut Expectation<'_>) -> (f64, f64) {
        let column = self.column.expect("the parts of a cell that is there");
        let Cell { event, parts } = column.cell(self.slots[slot] as usize);
        let p = parts.p.load(Ordering::Acquire);
        if p != UNSET {
            let p_not = parts.p_not.load(Ordering::Relaxed);
            return (f64::from_bits(p), f64::from_bits(p_not));
        }
        let (p, p_not) = expectation.prob_parts(event);
        parts.p_not.store(p_not.to_bits(), Ordering::Relaxed);
        parts.p.store(p.to_bits(), Ordering::Release);
        (p, p_not)
    }
}

/// How many [`RowSet`]s a [`RowSlot`] keeps.
const KEPT: usize = 2;

/// The [`RowSet`]s asked for most recently along one KB's `(id, epoch)`
/// history. It hangs off the `Kb` exactly as its `ViewCache` and `PlanSlot`
/// do: fresh and empty wherever the identity is fresh, shared along a
/// publish chain. Two sets, so that a cold engine call on the same `Kb` —
/// which binds views of its own — does not take the served requests' rows
/// away from them.
#[derive(Default)]
pub(crate) struct RowSlot {
    /// At most [`KEPT`], the most recently used first.
    sets: Mutex<Vec<Arc<RowSet>>>,
    reads: Arc<AtomicU64>,
}

impl RowSlot {
    /// Reads made (rather than saved) through this slot so far: one per
    /// (rule, document) cell looked up in its view.
    #[cfg(test)]
    pub(crate) fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// How many sets the slot holds.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.sets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The row set for `bindings`' views: the slot's if one was resolved
    /// for these very `Arc`s — and then an abandoned set beside it, a done
    /// cold call's, is dropped with its rows — else a new one, which goes
    /// first. The new set
    /// takes the rows ([`RowSet::hand_on`]) and the place of a held set no
    /// other request needs: its predecessor (a set sharing a view `Arc`
    /// with it — what a catalogue change leaves), else an abandoned set,
    /// else the least recently used one when the slot is full. A set with
    /// none of these — a cold call's beside the served set — starts empty
    /// and leaves the other alone. A reader on an older snapshot than one
    /// held keeps its set to itself and neither takes the newer rows nor
    /// displaces them. The lock is held for the compare and the swap; the
    /// one lock taken under it is the outgoing set's table, and only if
    /// that is free.
    pub(crate) fn set_for(&self, kb: &Kb, bindings: &[Arc<RuleBinding>]) -> Arc<RowSet> {
        // Each `Arc` is replaced whole, so the slot is valid at every step.
        let mut sets = self.sets.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(at) = sets.iter().position(|set| set.serves(bindings)) {
            sets[..=at].rotate_right(1);
            let served = Arc::clone(&sets[0]);
            sets.retain(|set| Arc::ptr_eq(set, &served) || !set.abandoned());
            return served;
        }
        let epoch = kb.binding_epoch();
        let views: Vec<Weak<View>> = bindings
            .iter()
            .map(|b| Arc::downgrade(&b.preference_events))
            .collect();
        let succeeds = sets.iter().all(|held| held.epoch <= epoch);
        let shares = |held: &Arc<RowSet>| {
            let mut pairs = held.views.iter().zip(&views);
            pairs.any(|(was, is)| Weak::ptr_eq(was, is))
        };
        let outgoing = succeeds
            .then(|| {
                let full = sets.len() == KEPT;
                (sets.iter().position(shares))
                    .or_else(|| sets.iter().position(|held| held.abandoned()))
                    .or_else(|| full.then(|| sets.len() - 1))
            })
            .flatten()
            .map(|at| sets.remove(at));
        let table = outgoing
            .and_then(|held| held.hand_on(&views))
            .unwrap_or_else(|| Table::new(views.len()));
        let set = Arc::new(RowSet {
            epoch,
            views,
            table: RwLock::new(table),
            reads: Arc::clone(&self.reads),
        });
        if succeeds {
            sets.insert(0, Arc::clone(&set));
            sets.truncate(KEPT);
        }
        set
    }
}

impl fmt::Debug for RowSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowSlot")
            .field("reads", &self.reads.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::{bind_rules_shared, PreferenceRule, RuleRepository, Score, ScoringEnv};

    /// Readers on one list of views bring rows up to date while requests
    /// presenting another list keep succeeding their set and taking its
    /// table — between a reader's two lock acquisitions too. Whatever the
    /// interleaving, a slot's row is its own document's.
    #[test]
    fn a_table_taken_between_a_readers_two_locks_leaves_no_stale_position() {
        let mut kb = Kb::new();
        let user = kb.individual("user");
        kb.assert_concept(user, "Ctx");
        let docs: Vec<IndividualId> = (0..48)
            .map(|d| {
                let doc = kb.individual(&format!("doc{d}"));
                kb.assert_concept_prob(doc, "Feat", 0.01 + 0.02 * d as f64)
                    .unwrap();
                doc
            })
            .collect();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R",
                kb.parse("Ctx").unwrap(),
                kb.parse("Feat").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        // The same views three times over, under `Arc`s of their own: one
        // more list than the slot keeps, so sets keep being displaced.
        let lists = [
            bind_rules_shared(&env),
            bind_rules_shared(&env),
            bind_rules_shared(&env),
        ];
        let start = Barrier::new(lists.len() + 1);
        std::thread::scope(|scope| {
            for (reader, bindings) in lists.iter().enumerate() {
                let (kb, docs, start) = (&kb, &docs, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..20_000 {
                        let from = (7 * round + reader) % docs.len();
                        let list: Vec<IndividualId> =
                            docs.iter().cycle().skip(from).take(8).copied().collect();
                        let set = kb.rows().set_for(kb, bindings);
                        // The second pass finds the first four rows current
                        // and the rest behind: a read, a gap, a write.
                        for list in [&list[..4], &list[..]] {
                            let rows = set.rows(bindings, list);
                            let column = rows.column(0);
                            for (slot, doc) in list.iter().enumerate() {
                                let event = column.event(slot);
                                assert_eq!(event, Some(&bindings[0].preference_events[doc]));
                            }
                        }
                    }
                });
            }
            start.wait();
        });
    }
}
