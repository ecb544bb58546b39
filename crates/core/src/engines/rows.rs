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
//! [`capra_events::Expectation::prob_parts`]. A column holds one word per
//! row, the kind beside where the cell is; an event and its probabilities
//! are kept only where a cell has been. The two optimised engines and the
//! top-k bound read their features from these columns and from nowhere
//! else; a kernel walks one rule's column over the candidates, not one
//! document's cells. The other half of a rule's factor, `P(G_r)`, is the
//! user's and lives on the rule's binding (`RuleBinding::context_parts`,
//! read once per binding and never through the call's memo); a row holds
//! nothing of any context.
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
//!
//! A table also keeps the **page**: the last candidate list it resolved,
//! with its documents' row positions and the list's half of the lane test
//! (the union of its rows' variable spans). A request for that very list
//! — one slice compare — takes the positions without a probe and clears
//! the whole list against its contexts at once where the union allows.
//! The page lives in the table and only for the table's generation: a
//! hand-on ([`RowSet::hand_on`]) moves the rows to a successor with no
//! page, since every row is behind there. Any other list is resolved as
//! before and becomes the page. Per rule the page gathers a **column in
//! slot order** — kinds and `(P(F), P(¬F))`, read straight down — the
//! first time a request meets the list with every cell of that column's
//! probabilities already set; until then the column is read through the
//! rows, and a cell is evaluated only where a request reads it unset, so
//! gathering adds and skips no evaluation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
    Weak,
};

use capra_dl::IndividualId;
use capra_events::{EventExpr, Expectation, VarId};

use super::{ContextSupport, Span};
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
    Absent = 0,
    /// The event is `True`.
    True = 1,
    /// Any other event that does not flatten.
    Uncertain = 2,
    /// An `And`, or a `Not` of one: conjoined with a context it flattens
    /// into the conjunction, which then multiplies in another order than
    /// the closed form does.
    Flattens = 3,
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

    /// The kind a column word ([`Column::words`]) holds.
    #[inline]
    fn of_word(word: u32) -> Self {
        const KINDS: [Kind; Kind::COUNT] =
            [Kind::Absent, Kind::True, Kind::Uncertain, Kind::Flattens];
        KINDS[(word >> CELL_BITS) as usize]
    }

    /// Whether the kernels read the cell's `(P(F), P(¬F))`.
    fn has_parts(self) -> bool {
        matches!(self, Kind::Uncertain | Kind::Flattens)
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

    /// The parts, if some request has set them.
    #[inline]
    fn get(&self) -> Option<(f64, f64)> {
        let p = self.p.load(Ordering::Acquire);
        (p != UNSET).then(|| {
            (
                f64::from_bits(p),
                f64::from_bits(self.p_not.load(Ordering::Relaxed)),
            )
        })
    }
}

/// The bits of a column word below its kind: where the cell is.
const CELL_BITS: u32 = 30;

/// The cell bits of a row position that has never had a cell under the
/// column's rule (its kind bits are [`Kind::Absent`]'s, 0).
const NO_CELL: u32 = (1 << CELL_BITS) - 1;

/// One rule's cells: a word per row position, which is what the kernels
/// walk, and the event and probabilities only where a cell has been — a
/// catalogue whose documents match a few of many rules pays four bytes a
/// row for each other rule.
struct Column {
    /// Per row position, the cell's [`Kind`] in the top two bits and below
    /// them where in `events` and `parts` the cell is, or [`NO_CELL`]. A
    /// row keeps its place when its cell goes (the event there is `False`).
    words: Vec<u32>,
    events: Vec<EventExpr>,
    parts: Vec<Parts>,
    /// Positions whose kind is not [`Kind::Absent`]; the column goes when
    /// this reaches 0.
    present: usize,
}

impl Column {
    fn new(rows: usize) -> Self {
        Self {
            words: vec![NO_CELL; rows],
            events: Vec::new(),
            parts: Vec::new(),
            present: 0,
        }
    }

    fn push_absent(&mut self) {
        self.words.push(NO_CELL);
    }

    #[inline]
    fn kind(&self, row: usize) -> Kind {
        Kind::of_word(self.words[row])
    }

    /// Where the cell at row position `row`, which has had one, is.
    #[inline]
    fn cell(&self, row: usize) -> usize {
        (self.words[row] & NO_CELL) as usize
    }

    /// The event at `row`: `False` where the document does not match.
    fn event(&self, row: usize) -> &EventExpr {
        match self.kind(row) {
            Kind::Absent => &EventExpr::False,
            _ => &self.events[self.cell(row)],
        }
    }

    /// The unclamped `(P(F), P(¬F))` at `row`, whose kind has parts:
    /// evaluated on the asking call's own expectation on the first read
    /// (counted into `counts`); racing first readers compute and store the
    /// same pure function of the event.
    #[inline]
    fn parts(&self, row: usize, expectation: &mut Expectation<'_>, counts: &Counts) -> (f64, f64) {
        let at = self.cell(row);
        let parts = &self.parts[at];
        if let Some(set) = parts.get() {
            return set;
        }
        counts.evaluated();
        let (p, p_not) = expectation.prob_parts(&self.events[at]);
        parts.p_not.store(p_not.to_bits(), Ordering::Relaxed);
        parts.p.store(p.to_bits(), Ordering::Release);
        (p, p_not)
    }

    /// Makes the cell at `row` the one for `event` (`False`: the document
    /// does not match), its probability not yet read.
    fn set(&mut self, row: usize, event: EventExpr) {
        let kind = Kind::of(&event);
        self.present += usize::from(kind != Kind::Absent);
        self.present -= usize::from(self.kind(row) != Kind::Absent);
        let at = match self.words[row] & NO_CELL {
            NO_CELL if kind == Kind::Absent => return,
            NO_CELL => {
                let at = u32::try_from(self.events.len())
                    .ok()
                    .filter(|&at| at < NO_CELL)
                    .expect("fewer than 2³⁰ cells a column");
                self.events.push(event);
                self.parts.push(Parts::unset());
                at
            }
            at => {
                self.events[at as usize] = event;
                self.parts[at as usize] = Parts::unset();
                at
            }
        };
        self.words[row] = (kind as u32) << CELL_BITS | at;
    }
}

/// Per row position: when the row was last brought up to date, and the
/// variables of its cells — the merge half of the document's lane test;
/// the range half is [`Table::spans`].
#[derive(Default)]
struct Row {
    /// The [`Table::generation`] the cells were last brought up to; `0`
    /// for a row that has none yet.
    synced: u64,
    /// The union of the cells' variable supports, sorted — emptied when
    /// two cells share a variable, and the row's span is then
    /// [`Span::ALL`].
    support: Vec<VarId>,
}

/// The last candidate list a [`Table`] resolved, for the table's
/// generation: what a request for the same list takes instead of probing.
#[derive(Default)]
struct Page {
    docs: Vec<IndividualId>,
    /// Per slot, the document's row position.
    slots: Vec<u32>,
    /// The union of the rows' spans: [`Span::ALL`] when any row is
    /// entangled, so a list the contexts clear has every row cleared.
    span: Span,
    /// Per view position, the rule's column gathered in slot order once a
    /// request finds every cell of it in the list with its parts set.
    columns: Vec<OnceLock<Gathered>>,
}

impl Page {
    /// Whether the page is for `docs`: one branch-free pass, as
    /// `ScoreEntry::holds` compares.
    fn holds(&self, docs: &[IndividualId]) -> bool {
        let pairs = self.docs.iter().zip(docs);
        self.docs.len() == docs.len() && pairs.fold(true, |all, (a, b)| all & (a == b))
    }
}

/// One rule's column over a page's list, slot by slot: a copy of the
/// kinds and of the parts of the cells that have them (0 elsewhere).
struct Gathered {
    kinds: Vec<Kind>,
    parts: Vec<(f64, f64)>,
}

impl Gathered {
    /// `column` over the row positions `slots`, if every cell there that
    /// has parts has them set.
    fn of(column: &Column, slots: &[u32]) -> Option<Self> {
        let kinds: Vec<Kind> = slots.iter().map(|&row| column.kind(row as usize)).collect();
        let parts = (slots.iter().zip(&kinds))
            .map(|(&row, kind)| {
                if kind.has_parts() {
                    column.parts[column.cell(row as usize)].get()
                } else {
                    Some((0.0, 0.0))
                }
            })
            .collect::<Option<_>>()?;
        Some(Self { kinds, parts })
    }
}

/// The rows touched so far along one chain of [`RowSet`]s. A table is
/// handed on from a set to its successor in the slot, so a row outlives a
/// view change: it is brought up to date, view by changed view, when a
/// request next touches it.
struct Table {
    /// Document → row position.
    index: IdMap<IndividualId, u32>,
    rows: Vec<Row>,
    /// Per row position, the span of the row's variables ([`Span::ALL`]
    /// where two of its cells share one): the common case of the
    /// document's lane test is two compares on it.
    spans: Vec<Span>,
    /// Per view position, the rule's column — `None` while no row has a
    /// cell under the rule. Every column has one entry per row.
    columns: Vec<Option<Column>>,
    /// Counts the sets the table has served.
    generation: u64,
    /// Per view position, the generation whose set brought in the view now
    /// there: a row synced before it has a cell under that rule to re-read.
    arrived: Vec<u64>,
    /// The last list resolved at this generation. Readers share the table,
    /// so the page is swapped whole, and only when that takes no wait.
    page: RwLock<Option<Arc<Page>>>,
}

impl Table {
    fn new(views: usize) -> Self {
        Self {
            index: IdMap::default(),
            rows: Vec::new(),
            spans: Vec::new(),
            columns: (0..views).map(|_| None).collect(),
            generation: 1,
            arrived: vec![1; views],
            page: RwLock::default(),
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
            spans,
            columns,
            ..
        } = self;
        *index.entry(doc).or_insert_with(|| {
            rows.push(Row::default());
            spans.push(Span::EMPTY);
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
            (Some(c), None) if c.kind(at) == Kind::Absent => {}
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

    /// Sets row `at`'s `support` and span from its cells as they now are,
    /// in the capacity `support` already has.
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
        self.spans[at] = if row.support.windows(2).any(|w| w[0] == w[1]) {
            row.support.clear();
            Span::ALL
        } else {
            Span::of(&row.support)
        };
    }

    /// The variables of row `at`'s cells, sorted, or `None` when two of
    /// them share one.
    fn support(&self, at: usize) -> Option<&[VarId]> {
        let support = &self.rows[at].support;
        (self.spans[at] != Span::ALL || !support.is_empty()).then_some(support.as_slice())
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

    /// The page, if it is for `docs` and no one is swapping it.
    fn page_for(&self, docs: &[IndividualId]) -> Option<Arc<Page>> {
        let held = self.page.try_read().ok()?;
        held.as_ref().filter(|page| page.holds(docs)).cloned()
    }

    /// A page to resolve a list into: the table's own, emptied, when no
    /// request holds it — its buffers are reused — else a new one.
    fn vacate(&self) -> Arc<Page> {
        let held = self.page.try_write().ok().and_then(|mut held| held.take());
        let mut page = held.unwrap_or_default();
        match Arc::get_mut(&mut page) {
            Some(unique) => unique.slots.clear(),
            None => page = Arc::default(),
        }
        page
    }

    /// Makes `page`, whose `slots` hold the positions of `docs`' rows, up
    /// to date at this generation, the table's page — unless someone is
    /// swapping it this moment — and hands it back.
    fn keep(&self, mut page: Arc<Page>, docs: &[IndividualId]) -> Arc<Page> {
        let filling = Arc::get_mut(&mut page).expect("a page being resolved is its resolver's");
        filling.docs.clear();
        filling.docs.extend_from_slice(docs);
        let spans = filling.slots.iter().map(|&at| self.spans[at as usize]);
        filling.span = spans.fold(Span::EMPTY, Span::union);
        filling.columns.clear();
        filling
            .columns
            .resize_with(self.columns.len(), OnceLock::new);
        if let Ok(mut held) = self.page.try_write() {
            *held = Some(Arc::clone(&page));
        }
        page
    }

    /// Gathers, for every rule of `bindings` whose context applies, the
    /// column `page` has not gathered yet if every cell of it in the list
    /// has its parts set. Returns how many were gathered.
    fn gather(&self, page: &Page, bindings: &[Arc<RuleBinding>]) -> u64 {
        let mut gathered = 0;
        for (rule, b) in bindings.iter().enumerate() {
            let (Some(column), once) = (&self.columns[rule], &page.columns[rule]) else {
                continue;
            };
            if b.is_inapplicable() || once.get().is_some() {
                continue;
            }
            if let Some(column) = Gathered::of(column, &page.slots) {
                gathered += u64::from(once.set(column).is_ok());
            }
        }
        gathered
    }
}

/// What the sets of one [`RowSlot`] have done.
#[derive(Default)]
struct Counts {
    /// Cells read from views.
    reads: AtomicU64,
    /// Documents looked up in a table's index.
    #[cfg(test)]
    probes: AtomicU64,
    /// Columns gathered into a page.
    #[cfg(test)]
    gathers: AtomicU64,
    /// Cells whose parts were evaluated.
    #[cfg(test)]
    evaluations: AtomicU64,
}

impl Counts {
    fn probed(&self, docs: usize) {
        #[cfg(test)]
        self.probes.fetch_add(docs as u64, Ordering::Relaxed);
        let _ = docs;
    }

    fn gathered(&self, columns: u64) {
        #[cfg(test)]
        self.gathers.fetch_add(columns, Ordering::Relaxed);
        let _ = columns;
    }

    fn evaluated(&self) {
        #[cfg(test)]
        self.evaluations.fetch_add(1, Ordering::Relaxed);
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
    /// Shared with every other set of the same slot.
    counts: Arc<Counts>,
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
    /// the KB need not even have interned it — has the empty row. The
    /// table's page answers for its own list, gathering what columns it
    /// can for the rules of `bindings` whose context applies; any other
    /// list is resolved and becomes the page.
    pub(crate) fn rows(&self, bindings: &[Arc<RuleBinding>], docs: &[IndividualId]) -> Rows<'_> {
        debug_assert!(self.serves(bindings), "rows of another set's views");
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(page) = table.page_for(docs) {
            self.counts.gathered(table.gather(&page, bindings));
            return Rows {
                table,
                page,
                counts: &self.counts,
            };
        }
        let mut page = table.vacate();
        let slots = &mut Arc::get_mut(&mut page).expect("a vacated page").slots;
        self.counts.probed(docs.len());
        slots.extend(docs.iter().map_while(|doc| table.current(doc)));
        if slots.len() == docs.len() {
            let page = table.keep(page, docs);
            return Rows {
                table,
                page,
                counts: &self.counts,
            };
        }
        // Rows are brought up to date in place, under the write side, so
        // racing requests neither do it twice nor see a row half-done —
        // and every step leaves the table valid. Nothing read above is
        // carried across the gap between the two locks: a successor set
        // may have taken the table in it ([`RowSet::hand_on`]).
        drop(table);
        let mut table = self.table.write().unwrap_or_else(PoisonError::into_inner);
        slots.clear();
        self.counts.probed(docs.len());
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
        self.counts.reads.fetch_add(read, Ordering::Relaxed);
        let table = RwLockWriteGuard::downgrade(table);
        let page = table.keep(page, docs);
        Rows {
            table,
            page,
            counts: &self.counts,
        }
    }

    /// Takes the table for a successor set over `views`, leaving an empty
    /// one behind for whoever still reads this set: the rows stay, and the
    /// positions whose view `Arc` differs are marked to be re-read. The
    /// page goes with the generation it was resolved at: every row is
    /// behind in the next. `None` — the successor starts empty — when the
    /// rule count differs or a request is using the table this very moment.
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
        *table.page.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
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
    /// The list's page: its row positions, span and gathered columns.
    page: Arc<Page>,
    counts: &'s Counts,
}

impl Rows<'_> {
    /// The column of `rule`: gathered in slot order where the page has
    /// it, else read through the candidates' row positions.
    #[inline]
    pub(crate) fn column(&self, rule: usize) -> ColumnView<'_> {
        ColumnView {
            column: self.table.columns[rule].as_ref(),
            slots: &self.page.slots,
            gathered: self.page.columns[rule].get(),
            counts: self.counts,
        }
    }

    /// The document half of the lane test for every slot at once: whether
    /// `support` clears the union of the rows' spans, which no row whose
    /// cells share a variable lets it do. Where it does,
    /// [`Rows::clears`] holds for every slot.
    #[inline]
    pub(crate) fn cleared(&self, support: &ContextSupport) -> bool {
        support.misses(self.page.span)
    }

    /// The document half of the lane test for `slot`
    /// ([`ContextSupport::clears`]): the row's span first, its variables
    /// only where the span overlaps the contexts'. Made once per sync of
    /// the row instead of once per request.
    #[inline]
    pub(crate) fn clears(&self, support: &ContextSupport, slot: usize) -> bool {
        let at = self.page.slots[slot] as usize;
        support.clears(self.table.spans[at], || self.table.support(at))
    }
}

/// One rule's column as a candidate list sees it, slot by slot: gathered,
/// or through the documents' row positions. A rule without a column is
/// [`Kind::Absent`] everywhere.
#[derive(Clone, Copy)]
pub(crate) struct ColumnView<'r> {
    column: Option<&'r Column>,
    slots: &'r [u32],
    gathered: Option<&'r Gathered>,
    counts: &'r Counts,
}

impl<'r> ColumnView<'r> {
    /// The kind of `slot`'s cell.
    #[inline]
    pub(crate) fn kind(&self, slot: usize) -> Kind {
        match (self.gathered, self.column) {
            (Some(gathered), _) => gathered.kinds[slot],
            (None, Some(column)) => column.kind(self.slots[slot] as usize),
            (None, None) => Kind::Absent,
        }
    }

    /// `slot`'s event, or `None` where the document does not match.
    #[inline]
    pub(crate) fn event(&self, slot: usize) -> Option<&'r EventExpr> {
        let column = self.column?;
        let at = self.slots[slot] as usize;
        (column.kind(at) != Kind::Absent).then(|| &column.events[column.cell(at)])
    }

    /// The unclamped `(P(F), P(¬F))` of `slot`'s event, which must not be
    /// [`Kind::Absent`] or [`Kind::True`]: one load where the column is
    /// gathered, else the row's cell, evaluated on the asking call's
    /// expectation if no request has read it yet.
    #[inline]
    pub(crate) fn parts(&self, slot: usize, expectation: &mut Expectation<'_>) -> (f64, f64) {
        match (self.gathered, self.column) {
            (Some(gathered), _) => gathered.parts[slot],
            (None, Some(column)) => {
                column.parts(self.slots[slot] as usize, expectation, self.counts)
            }
            (None, None) => unreachable!("the parts of a cell that is there"),
        }
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
    counts: Arc<Counts>,
}

#[cfg(test)]
impl RowSlot {
    /// Reads made (rather than saved) through this slot so far: one per
    /// (rule, document) cell looked up in its view.
    pub(crate) fn reads(&self) -> u64 {
        self.counts.reads.load(Ordering::Relaxed)
    }

    /// Documents looked up in a table's index so far: a list resolved
    /// rather than taken from its page, once per lock it was resolved
    /// under.
    pub(crate) fn probes(&self) -> u64 {
        self.counts.probes.load(Ordering::Relaxed)
    }

    /// Columns gathered into a page so far.
    pub(crate) fn gathers(&self) -> u64 {
        self.counts.gathers.load(Ordering::Relaxed)
    }

    /// Cells whose `(P(F), P(¬F))` were evaluated so far: one per cell
    /// first read after it was set.
    pub(crate) fn evaluations(&self) -> u64 {
        self.counts.evaluations.load(Ordering::Relaxed)
    }

    /// How many sets the slot holds.
    pub(crate) fn held(&self) -> usize {
        self.sets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Cells of the held sets whose parts are set.
    pub(crate) fn cells_set(&self) -> usize {
        let sets = self.sets.lock().unwrap_or_else(PoisonError::into_inner);
        let tables = sets.iter().map(|set| set.table.read().unwrap());
        let columns = |table: &Table| {
            let columns = table.columns.iter().flatten();
            columns
                .map(|c| c.parts.iter().filter(|p| p.get().is_some()).count())
                .sum::<usize>()
        };
        tables.map(|table| columns(&table)).sum()
    }
}

impl RowSlot {
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
            counts: Arc::clone(&self.counts),
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
            .field("reads", &self.counts.reads.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::{
        bind_rules_shared, EvalScratch, LineageEngine, PreferenceRule, RuleRepository, Score,
        ScoringEngine, ScoringEnv, ScoringSession,
    };

    /// Readers on one list of views bring rows up to date while requests
    /// presenting another list keep succeeding their set and taking its
    /// table — between a reader's two lock acquisitions too — and two
    /// readers per list of views alternate two candidate lists, so a page
    /// is met, replaced and met again while its set is displaced.
    /// Whatever the interleaving, a slot's row is its own document's, and
    /// a column read through a page — gathered or not — holds its cell's
    /// kind and parts.
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
        let readers = 2 * lists.len();
        let start = Barrier::new(readers + 1);
        std::thread::scope(|scope| {
            for reader in 0..readers {
                let (kb, docs, start) = (&kb, &docs, &start);
                let bindings = &lists[reader % lists.len()];
                scope.spawn(move || {
                    let mut expectation = Expectation::new(&kb.universe);
                    let alternate = [&docs[..12], &docs[6..18]];
                    start.wait();
                    for round in 0..10_000 {
                        let from = (7 * round + reader) % docs.len();
                        let list: Vec<IndividualId> =
                            docs.iter().cycle().skip(from).take(8).copied().collect();
                        let set = kb.rows().set_for(kb, bindings);
                        // The second pass finds the first four rows current
                        // and the rest behind: a read, a gap, a write. The
                        // last two meet a page or replace it.
                        let two = alternate[(round / 2 + reader) % 2];
                        for list in [&list[..4], &list[..], two, two] {
                            let rows = set.rows(bindings, list);
                            let column = rows.column(0);
                            for (slot, doc) in list.iter().enumerate() {
                                let event = &bindings[0].preference_events[doc];
                                assert_eq!(column.event(slot), Some(event));
                                assert_eq!(column.kind(slot), Kind::of(event));
                                let parts = column.parts(slot, &mut expectation);
                                assert_eq!(parts, expectation.prob_parts(event));
                            }
                        }
                    }
                });
            }
            start.wait();
        });
    }

    /// A user and a catalogue of `n` documents under two rules: `Ctx`,
    /// which applies to `user` and to `other`, and `Ctx2`, which applies
    /// to `other` alone; every document has an uncertain feature under
    /// each.
    fn two_rules(n: usize) -> (Kb, RuleRepository, [IndividualId; 2], Vec<IndividualId>) {
        let mut kb = Kb::new();
        let user = kb.individual("user");
        let other = kb.individual("other");
        kb.assert_concept_prob(user, "Ctx", 0.6).unwrap();
        kb.assert_concept_prob(other, "Ctx", 0.3).unwrap();
        kb.assert_concept_prob(other, "Ctx2", 0.7).unwrap();
        let docs: Vec<IndividualId> = (0..n)
            .map(|d| {
                let doc = kb.individual(&format!("doc{d}"));
                let p = 0.05 + 0.9 * d as f64 / n as f64;
                kb.assert_concept_prob(doc, "Feat", p).unwrap();
                kb.assert_concept_prob(doc, "Feat2", 1.0 - p).unwrap();
                doc
            })
            .collect();
        let mut rules = RuleRepository::new();
        for (name, context, feature) in [("R", "Ctx", "Feat"), ("R2", "Ctx2", "Feat2")] {
            rules
                .add(PreferenceRule::new(
                    name,
                    kb.parse(context).unwrap(),
                    kb.parse(feature).unwrap(),
                    Score::new(0.8).unwrap(),
                ))
                .unwrap();
        }
        (kb, rules, [user, other], docs)
    }

    /// `who`'s scores of `docs`, served through `kb`'s rows, as bits: on
    /// bindings of the plans the KB shares, so that every request on one
    /// KB state reads the same views.
    fn served(
        kb: &Kb,
        rules: &RuleRepository,
        who: IndividualId,
        docs: &[IndividualId],
    ) -> Vec<u64> {
        let env = ScoringEnv {
            kb,
            rules,
            user: who,
        };
        let bindings = ScoringSession::new().bind(&env);
        let scores =
            LineageEngine::new().score_all_bound(&env, &bindings, docs, &mut EvalScratch::new());
        scores.unwrap().iter().map(|s| s.score.to_bits()).collect()
    }

    /// The same scores from a clone of `kb`, which has no rows yet.
    fn cold(kb: &Kb, rules: &RuleRepository, who: IndividualId, docs: &[IndividualId]) -> Vec<u64> {
        served(&kb.clone(), rules, who, docs)
    }

    /// A list asked for again is its page: no document is looked up, and
    /// each column the request reads is gathered once — by the first
    /// request that meets the page with the column's parts all set — and
    /// read in slot order from then on. Another list replaces the page;
    /// coming back to the first is a miss, then a page again.
    #[test]
    fn a_repeated_list_probes_no_row_and_gathers_each_column_once() {
        let (kb, rules, [user, _], docs) = two_rules(16);
        let slot = kb.rows();
        let list = [docs[3], docs[1], docs[3], docs[7], docs[0]];
        let want = cold(&kb, &rules, user, &list);
        assert_eq!(served(&kb, &rules, user, &list), want, "a miss");
        let probes = slot.probes();
        assert!(probes > 0);
        assert_eq!(slot.gathers(), 0, "the page is new");
        for round in 0..3 {
            assert_eq!(served(&kb, &rules, user, &list), want, "round {round}");
            assert_eq!(
                slot.probes(),
                probes,
                "round {round}: a page probes nothing"
            );
            assert_eq!(
                slot.gathers(),
                1,
                "round {round}: `R`, once; `R2` does not apply"
            );
        }
        let other_list = &docs[8..12];
        assert_eq!(
            served(&kb, &rules, user, other_list),
            cold(&kb, &rules, user, other_list)
        );
        assert_eq!(
            slot.probes(),
            probes + 2 * other_list.len() as u64,
            "new rows: read, write"
        );
        assert_eq!(served(&kb, &rules, user, &list), want);
        assert_eq!(
            slot.probes(),
            probes + 2 * other_list.len() as u64 + list.len() as u64
        );
        assert_eq!(served(&kb, &rules, user, &list), want);
        assert_eq!(
            slot.gathers(),
            2,
            "the first list's page again, gathered again"
        );
    }

    /// A page whose column has a cell no request has read — here every
    /// cell of `R2`, whose context applies only to `other` — is read
    /// through the rows, and that request evaluates each such cell once,
    /// as a list that is no page would: the column is gathered on the
    /// next request, not on this one.
    #[test]
    fn a_page_with_an_unset_cell_is_read_through_the_rows_and_fills_it() {
        let (kb, rules, [user, other], docs) = two_rules(16);
        let slot = kb.rows();
        let list = &docs[2..10];
        served(&kb, &rules, user, list);
        served(&kb, &rules, user, list);
        assert_eq!(
            (slot.gathers(), slot.cells_set()),
            (1, list.len()),
            "`R` alone"
        );
        let probes = slot.probes();
        assert_eq!(
            served(&kb, &rules, other, list),
            cold(&kb, &rules, other, list)
        );
        assert_eq!(slot.probes(), probes, "the same page");
        assert_eq!(slot.gathers(), 1, "`R2`'s cells were unset");
        assert_eq!(slot.cells_set(), 2 * list.len(), "each filled once");
        assert_eq!(
            served(&kb, &rules, other, list),
            cold(&kb, &rules, other, list)
        );
        assert_eq!((slot.gathers(), slot.cells_set()), (2, 2 * list.len()));
    }

    /// A catalogue assert brings a new set, which takes the table a
    /// generation on and no page: the next request probes and brings its
    /// rows up to date, the one after meets its page again.
    #[test]
    fn a_generation_move_makes_the_next_request_probe_again() {
        let (mut kb, rules, [user, _], docs) = two_rules(16);
        let list = &docs[..6];
        served(&kb, &rules, user, list);
        served(&kb, &rules, user, list);
        let (probes, reads) = (kb.rows().probes(), kb.rows().reads());
        kb.assert_concept_prob(docs[2], "Feat", 0.99).unwrap();
        assert_eq!(
            served(&kb, &rules, user, list),
            cold(&kb, &rules, user, list)
        );
        assert!(kb.rows().probes() > probes, "a new generation has no page");
        assert_eq!(
            kb.rows().reads(),
            reads + list.len() as u64,
            "the changed view, re-read"
        );
        let probes = kb.rows().probes();
        assert_eq!(
            served(&kb, &rules, user, list),
            cold(&kb, &rules, user, list)
        );
        assert_eq!(kb.rows().probes(), probes);
    }
}
