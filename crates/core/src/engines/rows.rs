//! Feature rows: the document half of the bound rules, resolved once per
//! KB state instead of once per request.
//!
//! A request joins every rule's preference view to its candidate list and
//! needs `P(F_rd)` for each (rule, document) pair it scores — and neither
//! depends on who asks or in which context. A document's **row** holds, in
//! rule order, one [`Cell`] per rule under which the document has an event
//! that is not `False`: the event, whether it would flatten into a
//! conjunction, and — once some request needed it — the unclamped
//! `(P(F), P(¬F))` of [`capra_events::Expectation::prob_parts`]. The two
//! optimised engines and the top-k bound read their features from rows and
//! from nowhere else. The other half of a rule's factor, `P(G_r)`, is the
//! user's and lives on the rule's binding (`RuleBinding::context_parts`,
//! read once per binding and never through the shared memo); a row holds
//! nothing of any context.
//!
//! Rows belong to a [`RowSet`], which stands for exactly one list of view
//! `Arc`s, compared by pointer. A row is filled on its document's first
//! touch — a read of every view, whoever's rules are active, since a row
//! is nobody's in particular — so memory follows the documents ranked.
//! The latest set hangs off the `Kb` in a [`RowSlot`] with the lifecycle of
//! the KB's derived views and rule plans; when a catalogue change brings a
//! new list of views the new set takes over the old one's rows, and a row
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

/// One document's feature event under one rule.
pub(crate) struct Cell {
    /// The rule's position in the bindings the row set was resolved for.
    pub(crate) rule: usize,
    /// Never `False`: such an event is a document that does not match,
    /// like an absent one.
    pub(crate) event: EventExpr,
    /// The event is an `And`, or a `Not` of one: conjoined with a context
    /// it flattens into the conjunction, which then multiplies in another
    /// order than the closed form does.
    pub(crate) flattens: bool,
    /// `prob_parts(event)` as `f64` bits, or [`UNSET`] until the first
    /// request needs it; kept across syncs, which replace only the cells
    /// whose event changed. `p_not` is written before `p` (release) and read
    /// after it (acquire), so whoever sees `p` set sees its `p_not`.
    p: AtomicU64,
    p_not: AtomicU64,
}

/// No probability has these bits (a NaN) — and if one ever did, the cell
/// would merely be evaluated again on every read.
const UNSET: u64 = u64::MAX;

impl Cell {
    fn new(rule: usize, event: &EventExpr) -> Self {
        let flattens = match event {
            EventExpr::And(_) => true,
            EventExpr::Not(inner) => matches!(***inner, EventExpr::And(_)),
            _ => false,
        };
        Self {
            rule,
            event: event.clone(),
            flattens,
            p: AtomicU64::new(UNSET),
            p_not: AtomicU64::new(UNSET),
        }
    }

    /// The unclamped `(P(F), P(¬F))` of the event. Evaluated through the
    /// asking request's own memo and only when a request gets this far, so
    /// a document nobody scored leaves no memo entry; racing first readers
    /// compute and store the same pure function of the event.
    pub(crate) fn parts(&self, expectation: &mut Expectation<'_>) -> (f64, f64) {
        let p = self.p.load(Ordering::Acquire);
        if p != UNSET {
            let p_not = self.p_not.load(Ordering::Relaxed);
            return (f64::from_bits(p), f64::from_bits(p_not));
        }
        let (p, p_not) = expectation.prob_parts(&self.event);
        self.p_not.store(p_not.to_bits(), Ordering::Relaxed);
        self.p.store(p.to_bits(), Ordering::Release);
        (p, p_not)
    }
}

/// Pairs every rule of `rules` — `(index, payload)`, ascending by index —
/// with `row`'s cell under that rule, if the document has one.
pub(crate) fn join<T>(
    row: &[Cell],
    rules: impl IntoIterator<Item = (usize, T)>,
) -> impl Iterator<Item = (T, Option<&Cell>)> {
    let mut cells = row.iter().peekable();
    rules.into_iter().map(move |(rule, payload)| {
        while cells.next_if(|c| c.rule < rule).is_some() {}
        (payload, cells.next_if(|c| c.rule == rule))
    })
}

/// One document's cells, ascending by rule, and the document's half of
/// the lane test over them.
#[derive(Default)]
struct Row {
    /// The [`Table::generation`] the cells were last brought up to; `0`
    /// for a row that has none yet.
    synced: u64,
    cells: Vec<Cell>,
    /// The union of the cells' variable supports, sorted — meaningful only
    /// while `entangled` is not set.
    support: Vec<VarId>,
    /// Two of the cells share a variable.
    entangled: bool,
}

impl Row {
    /// Sets `support` and `entangled` from the cells as they now are, in
    /// the capacity `support` already has.
    fn judge(&mut self) {
        self.support.clear();
        for cell in &self.cells {
            self.support.extend_from_slice(cell.event.support_slice());
        }
        // A cell's own support is sorted and distinct: a repeat is a
        // variable two cells share.
        self.support.sort_unstable();
        self.entangled = self.support.windows(2).any(|w| w[0] == w[1]);
    }

    /// Makes the cell under `rule` the one for `event` (`None`: the
    /// document does not match); a cell whose event stands, stands.
    fn put(&mut self, rule: usize, event: Option<&EventExpr>) {
        match (self.cells.binary_search_by_key(&rule, |c| c.rule), event) {
            (Ok(at), Some(event)) if self.cells[at].event == *event => {}
            (Ok(at), Some(event)) => self.cells[at] = Cell::new(rule, event),
            (Ok(at), None) => drop(self.cells.remove(at)),
            (Err(at), Some(event)) => self.cells.insert(at, Cell::new(rule, event)),
            (Err(_), None) => {}
        }
    }
}

/// The rows touched so far along one chain of [`RowSet`]s. A table is
/// handed on from a set to its successor in the slot, so a row outlives a
/// view change: it is brought up to date, view by changed view, when a
/// request next touches it.
struct Table {
    /// Document → position in `rows`.
    index: IdMap<IndividualId, u32>,
    rows: Vec<Row>,
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
        *self.index.entry(doc).or_insert_with(|| {
            self.rows.push(Row::default());
            u32::try_from(self.rows.len() - 1).expect("a row set has fewer than 2³² rows")
        })
    }

    /// Brings the rows `behind` — `(document, position)`, ascending and
    /// distinct — up to the table's generation: each reads, from the views
    /// bound in `bindings`, the ones that arrived since it was last synced
    /// (all of them for a new row). A view that dwarfs the batch is
    /// descended into per document; otherwise view and batch, both in
    /// document order, are walked side by side. Each row synced is judged
    /// afresh ([`Row::judge`]). Returns the cells read.
    fn bring_up(&mut self, bindings: &[Arc<RuleBinding>], behind: &[(IndividualId, u32)]) -> u64 {
        let mut read = 0;
        for (rule, b) in bindings.iter().enumerate() {
            let (view, since) = (&*b.preference_events, self.arrived[rule]);
            let walk = view.len() <= behind.len().saturating_mul(4);
            let mut entries = view.iter().peekable();
            for &(doc, at) in behind {
                let row = &mut self.rows[at as usize];
                if since <= row.synced {
                    continue;
                }
                let event = if walk {
                    while entries.next_if(|(d, _)| **d < doc).is_some() {}
                    entries.next_if(|(d, _)| **d == doc).map(|(_, e)| e)
                } else {
                    view.get(&doc)
                };
                row.put(rule, event.filter(|e| !e.is_false()));
                read += 1;
            }
        }
        for &(_, at) in behind {
            let row = &mut self.rows[at as usize];
            row.judge();
            row.synced = self.generation;
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
    /// Per slot, the position of the document's row.
    slots: Vec<u32>,
}

impl Rows<'_> {
    /// The cells of `slot`'s document, ascending by rule.
    pub(crate) fn row(&self, slot: usize) -> &[Cell] {
        &self.table.rows[self.slots[slot] as usize].cells
    }

    /// The sorted union of the variable supports of `slot`'s cells, or
    /// `None` when two of them share a variable — the document's half of
    /// the lane test ([`crate::engines::ContextSupport::clears`]), made
    /// once per sync of the row instead of once per request.
    pub(crate) fn support(&self, slot: usize) -> Option<&[VarId]> {
        let row = &self.table.rows[self.slots[slot] as usize];
        (!row.entangled).then_some(row.support.as_slice())
    }
}

/// The latest [`RowSet`] asked for along one KB's `(id, epoch)` history.
/// It hangs off the `Kb` exactly as its `ViewCache` and `PlanSlot` do:
/// fresh and empty wherever the identity is fresh, shared along a publish
/// chain.
#[derive(Default)]
pub(crate) struct RowSlot {
    latest: Mutex<Option<Arc<RowSet>>>,
    reads: Arc<AtomicU64>,
}

impl RowSlot {
    /// Reads made (rather than saved) through this slot so far: one per
    /// (rule, document) cell looked up in its view.
    #[cfg(test)]
    pub(crate) fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// The row set for `bindings`' views: the slot's if it was resolved for
    /// these very `Arc`s, else a new one. The new set succeeds the one in
    /// the slot — takes its place and, where it can, its rows
    /// ([`RowSet::hand_on`]) — unless that one is from a later state of
    /// `kb`'s history: a reader on an older snapshot keeps its set to
    /// itself and neither takes the newer rows nor displaces them. The
    /// lock is held for the compare and the swap; the one lock taken under
    /// it is the outgoing set's table, and only if that is free.
    pub(crate) fn set_for(&self, kb: &Kb, bindings: &[Arc<RuleBinding>]) -> Arc<RowSet> {
        // The `Arc` is replaced whole, so the slot is valid at every step.
        let mut latest = self.latest.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(held) = latest.as_ref().filter(|set| set.serves(bindings)) {
            return Arc::clone(held);
        }
        let epoch = kb.binding_epoch();
        let views: Vec<Weak<View>> = bindings
            .iter()
            .map(|b| Arc::downgrade(&b.preference_events))
            .collect();
        let outgoing = latest.as_ref().filter(|held| held.epoch <= epoch);
        let succeeds = latest.is_none() || outgoing.is_some();
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
            *latest = Some(Arc::clone(&set));
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
        // The same views twice over, under `Arc`s of their own.
        let lists = [bind_rules_shared(&env), bind_rules_shared(&env)];
        let start = Barrier::new(3);
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
                            for (slot, doc) in list.iter().enumerate() {
                                let [cell] = rows.row(slot) else {
                                    panic!("one rule, one feature: one cell");
                                };
                                assert_eq!(cell.event, bindings[0].preference_events[doc]);
                            }
                        }
                    }
                });
            }
            start.wait();
        });
    }
}
