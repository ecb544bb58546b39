//! Prepared scoring sessions — amortising binding and evaluation across
//! repeated `score_all` calls.
//!
//! Real context-aware serving is repeat-call shaped: the paper's TVTouch
//! scenario re-ranks the same program list every time the situation changes,
//! and a group of viewers multiplies every query by the number of users. A
//! cold [`crate::ScoringEngine::score_all`] pays the full bind cost each
//! time — the reasoner re-derives every context and preference view even
//! when nothing changed. A [`ScoringSession`] keeps three layers of state
//! between calls:
//!
//! 1. **bindings** — per user a [`UserBindings`] holding one
//!    `Arc<RuleBinding>` per rule ([`ScoringSession::bind`]). The half of
//!    a binding that does not depend on the user — the rule's definition
//!    with its concepts unfolded, the stamps of the tables behind them,
//!    the preference view — is a *rule plan*, resolved by the first binder
//!    after a change and shared through the `Kb` by every user's bindings
//!    against it; accepted on the KB's identity and
//!    TBox epoch, the rules — the repository's stamp
//!    ([`crate::RuleRepository`]), or failing that every rule's definition
//!    — and an ABox that moved none of the tables the plans read of anyone
//!    but the asker since the set was resolved. A context switch, which
//!    moves one user's own rows, keeps the set. A resolve after a shared
//!    move re-stamps only the plans whose shared tables moved
//!    ([`capra_dl::ABox::moved_since`]) and hands the rest on as they were.
//!    While a user is bound against the same plan set, the user's own row
//!    epochs ([`capra_dl::ABox::own_row_epochs`]) say whether anything of
//!    theirs moved, and that is the check; a binding is re-derived only
//!    where a moved row of the user's, or a moved shared table, is in
//!    *that rule's* footprint. A context event is looked up only where the
//!    context reads one of the user's own tables or names the user
//!    ([`capra_dl::Footprint`]) — a point membership; every other user has
//!    the context's constant *blank*, so a first sight walks the few rules
//!    that mention the user. A binding that comes out unchanged is handed
//!    back as the same `Arc`, and a user whose bindings all did is handed
//!    back the same list; a binding whose context event is constant is
//!    shared by every user it is constant for;
//! 2. **evaluation** — kept nowhere in the session: a context's `P(G_r)`
//!    lives on its binding and a feature cell's `(P(F), P(¬F))` on the
//!    KB's feature row, and the exact route's memo (an entangled
//!    document's factor groups) is the engine call's own, dropped when it
//!    returns. The session's [`crate::engines::EvalScratch`] only counts
//!    the batch work;
//! 3. **scores** — per `(user, engine)` the ids of the list last computed
//!    and their scores, by position, in two slices, and its ranking once
//!    asked for; valid while the user's binding list is the very `Arc`
//!    they were computed under. A warm repeat of that list is one pointer
//!    compare, one slice compare of the ids and a copy — no lookup, no
//!    sort: both layers' user state is one [`SessionCore`] per user,
//!    holding the user's bindings and score entries in place, so whoever
//!    holds the core (a service tenant, or a session that found it by
//!    user) reads them without hashing the user again. Another list under
//!    the same bindings is looked up by document and only what is new in
//!    it computed. After a KB mutation that changed one of the user's
//!    bindings the entry falls out via layer 1 and is recomputed — a
//!    mutation about someone or something else leaves it warm.
//!
//! All layers are behaviour-preserving: a session produces bit-identical
//! scores to a cold call (property-tested in `tests/session_consistency.rs`),
//! because cached values *are* the values the cold path would deterministically
//! recompute.
//!

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use capra_dl::{ABox, Concept, Footprint, IndividualId, Reasoner, Table};
use capra_events::{BatchStats, CacheFootprint, EventExpr};

use crate::bind::RuleBinding;
use crate::engines::{self, DocScore, EvalScratch, ScoringEngine};
use crate::hash::IdMap;
use crate::topk::rank_top_k_bound;
use crate::{Kb, PreferenceRule, Result, ScoringEnv};

/// Hit/miss counters of one cache layer, as [`SessionStats::bindings`] and
/// [`SessionStats::scores`] report them. Counters reset to zero
/// when the owning cache is cleared, so post-clear ratios describe the
/// fresh cache rather than blending in pre-clear traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then populate) an entry.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (`NaN`-free: zero
    /// traffic reports a hit rate of zero).
    ///
    /// ```
    /// use capra_core::CacheStats;
    ///
    /// let warm = CacheStats { hits: 3, misses: 1 };
    /// assert_eq!(warm.hit_rate(), 0.75);
    /// assert_eq!(CacheStats::default().hit_rate(), 0.0);
    /// assert_eq!((warm + warm).hits, 6); // counters aggregate with + / sum
    /// ```
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        *self = *self + other;
    }
}

impl std::iter::Sum for CacheStats {
    /// Counter-wise total — aggregation across cache layers or tenants.
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |acc, s| acc + s)
    }
}

/// Counters describing the work a session performed (or avoided).
///
/// Aggregates component-wise: `a + b` (and [`std::iter::Sum`]) totals the
/// counters and footprints, which is how [`crate::serve::RankingService`]
/// rolls per-tenant stats into its service-wide view.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Rule-binding cache traffic: hits handed back the binding the
    /// tenant already had (validated, or re-derived and found unchanged),
    /// misses produced a new one (first sight, or its context event or
    /// preference view changed).
    pub bindings: CacheStats,
    /// Score cache traffic, per requested candidate: hits were answered
    /// from the cached scores, misses computed through an engine.
    pub scores: CacheStats,
    /// Footprint of the evaluation memos a session or tenant keeps between
    /// calls: always zero, since an evaluation memo lives for one engine
    /// call (see [`crate::engines::EvalScratch`]).
    pub footprint: CacheFootprint,
    /// Batch counters of the two optimised engines: sweeps run, total
    /// lanes, and the lanes that needed an exact evaluation of their own
    /// (see [`capra_events::BatchStats`]). The naive engines record none.
    pub batch: BatchStats,
}

impl std::ops::Add for SessionStats {
    type Output = SessionStats;

    fn add(self, other: SessionStats) -> SessionStats {
        SessionStats {
            bindings: self.bindings + other.bindings,
            scores: self.scores + other.scores,
            footprint: self.footprint + other.footprint,
            batch: self.batch + other.batch,
        }
    }
}

impl std::iter::Sum for SessionStats {
    /// Component-wise total over any number of sessions (see the struct
    /// docs).
    fn sum<I: Iterator<Item = SessionStats>>(iter: I) -> SessionStats {
        iter.fold(SessionStats::default(), |acc, s| acc + s)
    }
}

/// A derived concept view: membership event per instance.
type View = BTreeMap<IndividualId, EventExpr>;

/// The half of a rule's binding that is the same whoever asks and whatever
/// the ABox holds: the rule as its repository states it, and its two
/// concepts with every defined name expanded — what the reasoner is asked,
/// and whose ABox footprint says whether a binding's inputs moved. Built
/// once per `(KB, terminology, rule definition)` and handed on from one
/// [`PlanSet`] to the next, so holders compare definitions by pointer.
struct RuleDef {
    name: String,
    sigma: f64,
    context: Concept,
    preference: Concept,
    context_unfolded: Concept,
    preference_unfolded: Concept,
    /// What the unfolded context reads of the user, and the context event
    /// of every user it reads nothing of.
    context_footprint: Footprint,
    /// Whether the unfolded context reads nothing but the asker's own
    /// concept rows ([`reads_only_own_rows`]): then a user's context event
    /// moves exactly when their rows in its tables do
    /// ([`capra_dl::ABox::own_row_epochs`]), and the plan's context stamp
    /// says nothing about it.
    own_context: bool,
    /// The tables behind either unfolded concept that are read of anyone
    /// but the asker: the preference's, and the context's unless
    /// `own_context`. Sorted. While none of them moves, neither does the
    /// rule's plan, and a row that moves in none of them moves this rule's
    /// binding for its own individual alone.
    shared: Vec<Table>,
}

/// Whether a context reads nothing but the asked individual's own concept
/// rows: every table behind it is a concept table. That is a footprint
/// whose `tables` are its `own_tables`, with no own nominal — and with no
/// restricted role either, because a restriction's filler is read of the
/// edges' targets under names the footprint does not tell apart from the
/// asker's own (`A AND EXISTS r.A` has one table `A` for both).
fn reads_only_own_rows(footprint: &Footprint) -> bool {
    footprint
        .tables
        .iter()
        .all(|table| matches!(table, Table::Concept(_)))
}

impl RuleDef {
    fn unfold(kb: &Kb, rule: &PreferenceRule) -> RuleDef {
        let context_unfolded = kb.tbox.unfold(&rule.context);
        let preference_unfolded = kb.tbox.unfold(&rule.preference);
        let context_footprint = context_unfolded.footprint();
        let own_context = reads_only_own_rows(&context_footprint);
        let mut shared = preference_unfolded.footprint().tables;
        if !own_context {
            shared.extend_from_slice(&context_footprint.tables);
            shared.sort_unstable();
            shared.dedup();
        }
        RuleDef {
            name: rule.name.clone(),
            sigma: rule.sigma.get(),
            context: rule.context.clone(),
            preference: rule.preference.clone(),
            context_unfolded,
            preference_unfolded,
            context_footprint,
            own_context,
            shared,
        }
    }

    /// Whether this is `rule` as its repository states it now. A rule
    /// removed and re-added under the same name with another σ or other
    /// concepts is a different rule.
    fn states(&self, rule: &PreferenceRule) -> bool {
        self.name == rule.name
            && self.sigma == rule.sigma.get()
            && self.context == rule.context
            && self.preference == rule.preference
    }

    /// Whether none of `moved` is one of the rule's shared tables.
    fn shares_none_of(&self, moved: &[Table]) -> bool {
        moved.iter().all(|t| self.shared.binary_search(t).is_err())
    }

    /// `user`'s context event when the context reads nothing of them —
    /// what [`Reasoner::membership`] would return, found without a walk:
    /// the context's blank, for a user of the domain (`own` holds their
    /// [`capra_dl::ABox::own_tables`]) none of whose tables it reads and
    /// whom none of its nominals names. `None` where it reads something.
    fn blank(&self, user: IndividualId, own: Option<&[Table]>) -> Option<EventExpr> {
        let footprint = &self.context_footprint;
        let misses = |own: &[Table]| {
            footprint
                .own_tables
                .iter()
                .all(|t| own.binary_search(t).is_err())
                && footprint.own_nominals.binary_search(&user).is_err()
        };
        let blank = if footprint.blank {
            EventExpr::True
        } else {
            EventExpr::False
        };
        own.filter(|own| misses(own)).map(|_| blank)
    }
}

/// One rule resolved against one KB state: everything of its binding but
/// the user's context event.
struct RulePlan {
    def: Arc<RuleDef>,
    /// [`capra_dl::ABox::stamp`] of the unfolded context and preference.
    context_stamp: u64,
    preference_stamp: u64,
    /// The preference view at `preference_stamp`, from the KB's shared
    /// views.
    view: Arc<View>,
    /// The one binding of every user whose context event is `False`
    /// (`[0]`) or `True` (`[1]`) — such a binding depends on nobody. Made
    /// by the first such binder and carried to the next set while `def`
    /// and `view` stand.
    constant: [OnceLock<Arc<RuleBinding>>; 2],
}

impl RulePlan {
    /// `def` stamped against `kb`'s ABox. The preference view, and the
    /// constant bindings over it, are `kept`'s — the rule's plan in an
    /// earlier or later set — while the stamp behind them is what it was;
    /// otherwise the view is asked of the KB's shared views (`reasoner`),
    /// which derive it once for everybody.
    fn stamp(kb: &Kb, reasoner: &Reasoner<'_>, def: Arc<RuleDef>, kept: Option<&RulePlan>) -> Self {
        let preference_stamp = kb.abox.stamp(&def.preference_unfolded);
        let (view, constant) = match kept {
            Some(p) if p.preference_stamp == preference_stamp => {
                (Arc::clone(&p.view), p.constant.clone())
            }
            _ => (
                reasoner.instances_shared(&def.preference_unfolded),
                Default::default(),
            ),
        };
        RulePlan {
            context_stamp: kb.abox.stamp(&def.context_unfolded),
            preference_stamp,
            view,
            constant,
            def,
        }
    }

    /// The binding of a user whose context event is `context_event`: the
    /// plan's shared one where the event is constant, a new one otherwise.
    fn binding(&self, context_event: EventExpr) -> Arc<RuleBinding> {
        let shared = match context_event {
            EventExpr::False => Some(&self.constant[0]),
            EventExpr::True => Some(&self.constant[1]),
            _ => None,
        };
        let make = || {
            Arc::new(RuleBinding::new(
                self.def.name.clone(),
                context_event,
                Arc::clone(&self.view),
                self.def.sigma,
            ))
        };
        match shared {
            Some(shared) => Arc::clone(shared.get_or_init(make)),
            None => make(),
        }
    }
}

/// The tables through which an ABox mutation can move the binding of
/// anyone but the individual whose rows it wrote, under the rules `defs`
/// define: every rule's [`RuleDef`] shared tables, and the domain. Sorted.
/// A plan set is kept across every move outside it ([`PlanSet::accepts`]).
fn shared_tables<'d>(defs: impl IntoIterator<Item = &'d RuleDef>) -> Vec<Table> {
    let mut tables = vec![Table::Domain];
    for def in defs {
        tables.extend_from_slice(&def.shared);
    }
    tables.sort_unstable();
    tables.dedup();
    tables
}

/// Every rule of one repository resolved against one KB state, in
/// repository order — shared by all who bind that repository at that state
/// or at a later one that moved none of its shared tables.
struct PlanSet {
    /// `Kb::id` and `TBox::epoch` every definition in `plans` was unfolded
    /// at. A clone's terminology can differ at an equal epoch, hence both.
    kb_id: u64,
    tbox_epoch: u64,
    /// [`capra_dl::ABox::epoch`] every plan was stamped at.
    abox_epoch: u64,
    /// [`crate::RuleRepository`]'s stamp when `plans` was resolved from it.
    rules_stamp: u64,
    plans: Vec<Arc<RulePlan>>,
    /// [`shared_tables`] of the plans' definitions.
    shared: Arc<[Table]>,
    /// The latest ABox epoch of the KB's history found accepted, from
    /// `abox_epoch` on: every state in between is accepted too, so a later
    /// check looks only at what moved after it.
    checked: AtomicU64,
}

impl PlanSet {
    /// Whether the set is what [`PlanSet::resolve`] builds for `env`, or
    /// binds `env` alike: the same KB and TBox epoch, the rules `env.rules`
    /// holds now, and an ABox at the set's epoch or later by moves of no
    /// shared table ([`shared_tables`]) — rows that only their own
    /// individual's context reads, which the user's binding checks for
    /// itself ([`capra_dl::ABox::own_row_epochs`]). A KB's states form one
    /// history, so a later state's tables that moved since an earlier one
    /// are those [`capra_dl::ABox::moved_since`] reports, and no set from a
    /// later state is accepted on an earlier one. Rules live outside the
    /// KB — a repository can change, or another one come along, at an
    /// unchanged epoch — so no epoch vouches for them; the repository's own
    /// stamp does, and where it differs (the same rules built twice) the
    /// definitions are compared rule for rule.
    fn accepts(&self, env: &ScoringEnv<'_>) -> bool {
        let rules = env.rules.rules();
        self.kb_id == env.kb.id()
            && self.tbox_epoch == env.kb.tbox.epoch()
            && self.holds_at(&env.kb.abox)
            && (self.rules_stamp == env.rules.stamp()
                || self.plans.len() == rules.len()
                    && self.plans.iter().zip(rules).all(|(p, r)| p.def.states(r)))
    }

    /// Whether `abox`, a state of the set's KB, is at the set's ABox epoch
    /// or later by moves of no shared table.
    fn holds_at(&self, abox: &ABox) -> bool {
        let epoch = abox.epoch();
        let checked = self.checked.load(Ordering::Relaxed);
        let unshared = |table: Table| self.shared.binary_search(&table).is_err();
        if epoch <= checked {
            return self.abox_epoch <= epoch;
        }
        let holds = abox.moved_since(checked).all(unshared);
        if holds {
            self.checked.fetch_max(epoch, Ordering::Relaxed);
        }
        holds
    }

    /// Resolves `env.rules` against `env.kb`, carrying over from `previous`
    /// (an earlier or later set of the same KB history) what still holds.
    ///
    /// From an *earlier* set of the same rules and terminology only the
    /// tables that moved since ([`capra_dl::ABox::moved_since`]) can have
    /// moved a plan: every plan none of whose shared tables is among them
    /// is handed on whole, and only the others are stamped again. (A plan
    /// whose context reads only its asker's own rows is not stamped again
    /// for a move of them: its context stamp is never read.) In every other case each rule
    /// is resolved afresh, keeping a definition — found by name — while
    /// the rule and the terminology are what they were, and its preference
    /// view, with the constant bindings over it, while the stamp of the
    /// tables behind it is.
    fn resolve(env: &ScoringEnv<'_>, previous: Option<&PlanSet>) -> PlanSet {
        let kb = env.kb;
        let (abox_epoch, tbox_epoch) = (kb.abox.epoch(), kb.tbox.epoch());
        let reasoner = Reasoner::with_views(&kb.abox, kb.views());
        let previous = previous.filter(|set| set.kb_id == kb.id() && set.tbox_epoch == tbox_epoch);
        let (plans, shared) = match previous {
            Some(set) if set.rules_stamp == env.rules.stamp() && set.abox_epoch < abox_epoch => {
                let moved: Vec<Table> = kb.abox.moved_since(set.abox_epoch).collect();
                let carry = |plan: &Arc<RulePlan>| {
                    if plan.def.shares_none_of(&moved) {
                        Arc::clone(plan)
                    } else {
                        let def = Arc::clone(&plan.def);
                        Arc::new(RulePlan::stamp(kb, &reasoner, def, Some(plan)))
                    }
                };
                (
                    set.plans.iter().map(carry).collect(),
                    Arc::clone(&set.shared),
                )
            }
            _ => {
                let unfolded = previous.map_or(&[][..], |set| &set.plans);
                let plan = |(i, rule): (usize, &PreferenceRule)| {
                    let named = |p: &&Arc<RulePlan>| p.def.name == rule.name;
                    let kept = unfolded
                        .get(i)
                        .filter(named)
                        .or_else(|| unfolded.iter().find(named))
                        .filter(|p| p.def.states(rule));
                    let def = match kept {
                        Some(p) => Arc::clone(&p.def),
                        None => Arc::new(RuleDef::unfold(kb, rule)),
                    };
                    Arc::new(RulePlan::stamp(kb, &reasoner, def, kept.map(|p| &**p)))
                };
                let plans: Vec<Arc<RulePlan>> =
                    env.rules.rules().iter().enumerate().map(plan).collect();
                let shared = shared_tables(plans.iter().map(|p| &*p.def)).into();
                (plans, shared)
            }
        };
        PlanSet {
            kb_id: kb.id(),
            tbox_epoch,
            abox_epoch,
            rules_stamp: env.rules.stamp(),
            plans,
            shared,
            checked: AtomicU64::new(abox_epoch),
        }
    }

    /// The set to bind `env` against: the binder's `own` from its last bind
    /// or the KB's published one if either [`PlanSet::accepts`] `env`, else
    /// one resolved here — outside the slot's lock — and offered to the
    /// slot.
    fn current(env: &ScoringEnv<'_>, own: Option<&Arc<PlanSet>>) -> Arc<PlanSet> {
        if let Some(own) = own.filter(|set| set.accepts(env)) {
            return Arc::clone(own);
        }
        let slot = env.kb.plans();
        let held = slot.lock().clone();
        if let Some(held) = held.as_ref().filter(|set| set.accepts(env)) {
            return Arc::clone(held);
        }
        let resolved = Arc::new(PlanSet::resolve(env, held.as_deref()));
        slot.publish(env, resolved)
    }
}

/// The latest [`PlanSet`] resolved along one KB's `(id, epoch)` history.
/// It hangs off the `Kb` exactly as its `ViewCache` does: fresh and empty
/// wherever the identity is fresh, shared along a publish chain.
///
/// One slot, not one per repository: a service has one rule set at a time,
/// and two repositories alternating on one `Kb` merely re-resolve.
#[derive(Default)]
pub(crate) struct PlanSlot {
    latest: Mutex<Option<Arc<PlanSet>>>,
    resolved: AtomicU64,
}

impl PlanSlot {
    /// Sets resolved (rather than found) through this slot so far.
    #[cfg(test)]
    pub(crate) fn resolved(&self) -> u64 {
        self.resolved.load(Ordering::Relaxed)
    }

    /// Whether a binder of `env` takes the set the slot holds as it is.
    #[cfg(test)]
    pub(crate) fn accepts(&self, env: &ScoringEnv<'_>) -> bool {
        self.lock().as_ref().is_some_and(|set| set.accepts(env))
    }

    /// A leaf lock: held to read or swap the `Arc`, never while resolving.
    fn lock(&self) -> MutexGuard<'_, Option<Arc<PlanSet>>> {
        // The `Arc` is replaced whole, so the slot is valid at every step.
        self.latest.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers a set freshly resolved for `env` and returns the one to use:
    /// the slot's if a racing binder published the same first (so everyone
    /// at one state compares the same definition `Arc`s), `set` otherwise.
    /// A binder on an older snapshot keeps its set to itself instead of
    /// evicting the newer.
    fn publish(&self, env: &ScoringEnv<'_>, set: Arc<PlanSet>) -> Arc<PlanSet> {
        self.resolved.fetch_add(1, Ordering::Relaxed);
        let mut latest = self.lock();
        match latest.as_ref() {
            Some(held) if held.accepts(env) => return Arc::clone(held),
            // Both of one KB: the sum of epochs orders its states.
            Some(held) if held.abox_epoch + held.tbox_epoch > set.abox_epoch + set.tbox_epoch => {}
            _ => *latest = Some(Arc::clone(&set)),
        }
        set
    }
}

impl fmt::Debug for PlanSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanSlot")
            .field("resolved", &self.resolved.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// One user's [`RuleBinding`]s, one per rule in repository order: what
/// [`ScoringSession::bind`] and a service tenant bind through.
///
/// A binding has two halves. What does not depend on the user — the rule's
/// definition with its concepts unfolded, the [`capra_dl::ABox::stamp`]s of
/// their footprints and the preference view — is a *rule plan*, resolved by
/// the first binder after a change and published on the `Kb` for every
/// cache that binds against it (or against its publish-chain successors).
/// A plan set is accepted on the KB's identity, its TBox epoch and the
/// rules — by the repository's stamp, else definition by definition — and
/// on an ABox at the set's epoch or later by moves of none of its *shared*
/// tables: the preference tables, every context table read of anyone but
/// the asker, and the domain. A context switch moves only its user's own
/// rows, so it keeps the set; no set from a later state is accepted on an
/// earlier one, so a binder on an older snapshot resolves its own and
/// neither takes nor displaces the newer. A resolve from the set of an
/// earlier state of the same rules and terminology stamps again only the
/// plans whose shared tables moved since ([`capra_dl::ABox::moved_since`])
/// and hands on the others as the same `Arc`; any other resolve — first,
/// after a rule or terminology change, or behind a set from a later state
/// — resolves every rule. What does depend on the user is kept here: the
/// plan set the user was last bound against, the ABox epoch of that bind
/// and, aligned with the set's plans, the list of bindings
/// [`UserBindings::bind`] hands out.
///
/// A bind against the set the user was last bound against, at that bind's
/// state or a later one, is one check: none of the user's own rows moved
/// since ([`capra_dl::ABox::own_row_epochs`]). Otherwise, rule by rule, a
/// binding is current if its definition and view `Arc` are the plan's and
/// — for a context that reads only its asker's own rows — none of the
/// user's rows in the context's tables moved since the last bind, or — for
/// any other — its plan is the very one it was bound under or has the same
/// context stamp. A bind against a snapshot older than the last bind
/// counts every row of the user's as moved. Where a binding is not
/// current, the context event is looked up again and a binding that comes
/// out unchanged is handed back as the same `Arc`. The lookup is a point membership of this
/// user only where the context reads one of the user's own tables or a
/// nominal names the user; for everyone else in the domain it is the
/// context's blank ([`capra_dl::Footprint::blank`]), which is what the walk
/// would return. A new binding whose context event is constant — `False`
/// for a rule that does not apply to the user, `True` for one that
/// certainly does — depends on nobody, and is the plan's one `Arc` for
/// every such user rather than one of their own.
///
/// [`CacheStats::misses`] counts bindings that *changed* (first sight
/// included, blanks too); everything handed back as it was is a hit.
#[derive(Default)]
struct UserBindings {
    set: Option<Arc<PlanSet>>,
    /// [`capra_dl::ABox::epoch`] of the last bind's KB, which is `set`'s.
    epoch: u64,
    /// As [`UserBindings::bind`] hands it out: replaced only when one of
    /// its elements is, so holding the same list means holding the same
    /// bindings.
    list: Arc<[Arc<RuleBinding>]>,
    /// Context events looked up by a point membership rather than a blank.
    #[cfg(test)]
    walks: u64,
}

/// Where `def`'s rule, the `i`-th of its set, is in `held`, the plans the
/// user was last bound against: at `i` in the steady state (one pointer
/// compare), elsewhere — by name — after a rule was added, removed or
/// redefined.
fn find_held(held: &[Arc<RulePlan>], i: usize, def: &Arc<RuleDef>) -> Option<usize> {
    if held.get(i).is_some_and(|p| Arc::ptr_eq(&p.def, def)) {
        Some(i)
    } else {
        held.iter().position(|p| p.def.name == def.name)
    }
}

/// Whether `binding`, derived under `held` at the user's last bind, is what
/// `plan` and the user's rows derive now, decided without deriving
/// anything. A context that reads only the user's own rows: the same
/// definition and view, and none of the user's rows in its tables moved
/// since (`rows_unmoved`). Any other: the very plan, or the same definition
/// with neither the context's tables nor the preference view moved — the
/// two plans' sets were each accepted across moves of no table of theirs.
fn is_current(
    held: &Arc<RulePlan>,
    binding: &RuleBinding,
    plan: &Arc<RulePlan>,
    rows_unmoved: impl Fn(&[Table]) -> bool,
) -> bool {
    let def = &plan.def;
    let same =
        || Arc::ptr_eq(&held.def, def) && Arc::ptr_eq(&binding.preference_events, &plan.view);
    if def.own_context {
        same() && rows_unmoved(&def.context_footprint.own_tables)
    } else {
        Arc::ptr_eq(held, plan) || same() && held.context_stamp == plan.context_stamp
    }
}

impl UserBindings {
    /// [`ScoringSession::bind`] for the user these bindings are
    /// `env.user`'s, counting into `stats`.
    fn bind(&mut self, env: &ScoringEnv<'_>, stats: &mut CacheStats) -> Arc<[Arc<RuleBinding>]> {
        let set = PlanSet::current(env, self.set.as_ref());
        let abox = &env.kb.abox;
        let (tables, row_epochs) = (abox.own_tables(env.user), abox.own_row_epochs(env.user));
        // The last bind's epoch, where the row epochs can tell what moved of
        // the user's own rows since: along one KB's history, forwards. A
        // bind on another KB or an older snapshot counts every row as moved.
        let since = self.set.as_ref().map(|held| held.kb_id);
        let since = (since == Some(set.kb_id) && self.epoch <= abox.epoch()).then_some(self.epoch);
        let unmoved = |at: usize| since.is_some_and(|since| row_epochs[at] <= since);
        if self.set.as_ref().is_some_and(|own| Arc::ptr_eq(own, &set))
            && since.is_some()
            && (0..tables.len()).all(unmoved)
        {
            stats.hits += self.list.len() as u64;
            self.epoch = abox.epoch();
            return Arc::clone(&self.list);
        }
        let rows_unmoved = |reads: &[Table]| {
            let row = |t: &Table| tables.binary_search(t).ok();
            since.is_some() && reads.iter().filter_map(row).all(unmoved)
        };
        let held = self.set.as_ref().map_or(&[][..], |held| &held.plans);
        // Membership walks the user's own rows: no view, hence no TBox
        // (the plans' concepts are unfolded) and no shared views. Outside
        // the domain no blank holds, so every context is walked; a user
        // with a table of their own is in it.
        let reasoner = Reasoner::new(abox);
        let own = Some(tables).filter(|own| !own.is_empty() || abox.domain().contains(&env.user));
        // The new list, from the first binding that differs from the held
        // list's at its position on; until then the held list is the answer.
        let n = set.plans.len();
        let mut fresh = (held.len() != n).then(|| Vec::with_capacity(n));
        for (i, plan) in set.plans.iter().enumerate() {
            let def = &plan.def;
            let previous = find_held(held, i, def).map(|at| (at, &self.list[at]));
            // The context event, looked up unless the binding is current.
            let derived = match previous {
                Some((at, binding)) if is_current(&held[at], binding, plan, rows_unmoved) => None,
                _ => Some(def.blank(env.user, own).unwrap_or_else(|| {
                    #[cfg(test)]
                    {
                        self.walks += 1;
                    }
                    reasoner.membership(env.user, &def.context_unfolded)
                })),
            };
            let kept = previous.filter(|(_, binding)| {
                derived.as_ref().is_none_or(|event| {
                    binding.sigma == def.sigma
                        && binding.context_event == *event
                        && Arc::ptr_eq(&binding.preference_events, &plan.view)
                })
            });
            let binding = match (kept, derived) {
                (Some((at, _)), _) if at == i && fresh.is_none() => {
                    stats.hits += 1;
                    continue;
                }
                (Some((_, binding)), _) => {
                    stats.hits += 1;
                    Arc::clone(binding)
                }
                (None, Some(event)) => {
                    stats.misses += 1;
                    plan.binding(event)
                }
                (None, None) => unreachable!("a binding that is not current is derived"),
            };
            let fresh = fresh.get_or_insert_with(|| self.list[..i].to_vec());
            fresh.push(binding);
        }
        if let Some(fresh) = fresh {
            self.list = fresh.into();
        }
        self.set = Some(set);
        self.epoch = abox.epoch();
        Arc::clone(&self.list)
    }
}

/// One engine's cached scores for one user, valid while the binding list
/// they were computed under is still the one the user's bindings hand out
/// ([`UserBindings::bind`] replaces a user's list exactly when one of its
/// bindings changes). Holding a strong reference makes the identity check
/// exact: a pointer can only compare equal to a *live* list, never to a
/// recycled allocation.
///
/// Scores are kept by position, not by document, ids and scores apart:
/// serving re-ranks the same list, and a request for the list `ids` holds
/// is answered by one slice compare and a copy — no probe, no sort.
#[derive(Default)]
struct ScoreEntry {
    /// The engine's name and configuration tag: whose scores these are.
    engine: (&'static str, u64),
    /// `None` until the first request, and never equal to a live list then.
    bindings: Option<Arc<[Arc<RuleBinding>]>>,
    /// Every document scored under `bindings`, in the order they first
    /// arrived: the first list as it was asked for (one slot per
    /// candidate, repeats included), then what later lists added.
    ids: Vec<IndividualId>,
    /// The score of `ids`' document, slot for slot.
    scores: Vec<f64>,
    /// The ranking of `ids`, once a request asked for it.
    ranked: Option<Vec<DocScore>>,
    /// A slot of each document in `ids` — built by the first request for a
    /// list other than `ids` itself, kept until the bindings change.
    index: Option<IdMap<IndividualId, u32>>,
}

impl ScoreEntry {
    /// Whether `docs` is, slot by slot, the list `ids` holds: one pass
    /// over the two slices that never stops early, which the compiler
    /// vectorises (a slice `==` of a derived-`PartialEq` id stops at the
    /// first difference, and compares one id at a time).
    fn holds(&self, docs: &[IndividualId]) -> bool {
        let pairs = self.ids.iter().zip(docs);
        self.ids.len() == docs.len() && pairs.fold(true, |all, (a, b)| all & (a == b))
    }

    /// Empties the entry for scores computed under `bindings`, keeping the
    /// two lists' capacity.
    fn reset(&mut self, bindings: &Arc<[Arc<RuleBinding>]>) {
        self.bindings = Some(Arc::clone(bindings));
        self.ids.clear();
        self.scores.clear();
        self.ranked = None;
        self.index = None;
    }

    /// The answer to a request for the list the entry [`ScoreEntry::holds`],
    /// every slot a hit: the stored scores, or a copy of the kept ranking —
    /// sorted on the first request that asks for it.
    fn answer(&mut self, ranked: bool, tally: &mut ScoreTally) -> Vec<DocScore> {
        tally.hits += self.ids.len() as u64;
        let ScoreEntry {
            ids,
            scores,
            ranked: kept,
            ..
        } = self;
        if !ranked {
            return doc_scores(ids, scores);
        }
        let kept = kept.get_or_insert_with(|| tally.rank(&doc_scores(ids, scores)));
        kept.clone()
    }
}

/// The entry's `ids` and `scores` zipped back into [`DocScore`]s.
fn doc_scores(ids: &[IndividualId], scores: &[f64]) -> Vec<DocScore> {
    let slots = ids.iter().zip(scores);
    slots
        .map(|(&doc, &score)| DocScore { doc, score })
        .collect()
}

/// The entry in `entries` of the engine `key` names, made empty on first
/// use.
fn entry_of<'e>(entries: &'e mut Vec<ScoreEntry>, key: (&'static str, u64)) -> &'e mut ScoreEntry {
    let at = match entries.iter().position(|e| e.engine == key) {
        Some(at) => at,
        None => {
            entries.push(ScoreEntry {
                engine: key,
                ..ScoreEntry::default()
            });
            entries.len() - 1
        }
    };
    &mut entries[at]
}

/// Position `at` of [`ScoreEntry::ids`] as its index stores it: half the
/// bytes of a `usize` per document of every tenant whose lists vary.
fn slot(at: usize) -> u32 {
    u32::try_from(at).expect("a score entry holds fewer than 2^32 scores")
}

/// The score layer's counters. `hits` and `misses` count documents: a hit
/// is a requested slot answered from an entry, a miss one handed to the
/// engine.
#[derive(Default)]
struct ScoreTally {
    hits: u64,
    misses: u64,
    /// Document indexes built and rankings sorted so far — the two things
    /// a warm request for the stored list must not do.
    #[cfg(test)]
    indexed: u64,
    #[cfg(test)]
    sorted: u64,
}

impl ScoreTally {
    /// [`crate::rank`] of `scores`, counted.
    fn rank(&mut self, scores: &[DocScore]) -> Vec<DocScore> {
        #[cfg(test)]
        {
            self.sorted += 1;
        }
        engines::ranked(scores)
    }
}

/// The session core: what one user owns of the two *user-specific* cache
/// layers — their rule bindings and one score entry per engine — with
/// their counters, and the one request sequence over them: bind, then
/// two-phase top-k or a read-through of the score entry, then rank.
///
/// A core is one user's; its owner keys it. [`ScoringSession`] keeps one
/// per user it has seen, and a tenant of [`crate::serve::RankingService`]
/// *is* one (plus an LRU stamp and its mark, the shared publish sequence
/// its bindings are current at), so a warm tenant's bindings and score
/// entry are read in place.
/// The entries are a `Vec`, searched by engine: a service scores with one
/// engine, a session with the few it is handed.
///
/// Every entry point takes the `scratch` its owner holds beside it — the
/// one [`ScoringSession`] owns, or the tenant's own — to count the batch
/// work of the engine calls it makes.
#[derive(Default)]
pub(crate) struct SessionCore {
    bindings: UserBindings,
    binding_stats: CacheStats,
    entries: Vec<ScoreEntry>,
    tally: ScoreTally,
}

impl SessionCore {
    /// The core's cache counters; the batch counters are those of the
    /// scratch its owner scores through, and zero here.
    pub(crate) fn stats(&self) -> SessionStats {
        SessionStats {
            bindings: self.binding_stats,
            scores: CacheStats {
                hits: self.tally.hits,
                misses: self.tally.misses,
            },
            ..SessionStats::default()
        }
    }

    /// Drops every score entry and resets the score counters.
    fn invalidate_scores(&mut self) {
        self.entries = Vec::new();
        self.tally = ScoreTally::default();
    }

    /// Current bindings for the environment, served from the cache where
    /// valid (see [`UserBindings::bind`]). `env.user` is the core's user.
    pub(crate) fn bind(&mut self, env: &ScoringEnv<'_>) -> Arc<[Arc<RuleBinding>]> {
        self.bindings.bind(env, &mut self.binding_stats)
    }

    /// The full ranking of `docs` without a KB: what
    /// [`SessionCore::rank_top_k`] answers for `k >= docs.len()` when the
    /// bind finds the user's set current, taken only if `engine`'s score
    /// entry holds the user's binding list and this very list — counting
    /// the binding and score hits that bind and read-through count.
    /// Anything else changes nothing and is `None`. The caller vouches that
    /// nothing the user was bound against has moved since (the service: the
    /// tenant's mark is still the published sequence).
    pub(crate) fn rank_warm<E>(
        &mut self,
        engine: &E,
        docs: &[IndividualId],
    ) -> Option<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let key = (engine.name(), engine.config_tag());
        let entry = self.entries.iter_mut().find(|e| e.engine == key)?;
        let list = &self.bindings.list;
        let current = entry
            .bindings
            .as_ref()
            .is_some_and(|held| Arc::ptr_eq(held, list));
        if !current || docs.is_empty() || !entry.holds(docs) {
            return None;
        }
        self.binding_stats.hits += list.len() as u64;
        Some(entry.answer(true, &mut self.tally))
    }

    /// Reads `docs`' scores under `bindings` through `engine`'s score
    /// entry — in input order, or `ranked` — in one of three ways (an
    /// empty list has nothing to read and touches no entry). The list the
    /// entry holds is all hits and the stored scores or a copy of the kept
    /// ranking. An empty entry (new, or its bindings just changed) hands
    /// the whole list to the engine on `scratch` and keeps what comes
    /// back. Any other list is looked up document by document: what the
    /// entry lacks is computed, appended, and the answer ranked afresh.
    fn read_through<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        bindings: &Arc<[Arc<RuleBinding>]>,
        docs: &[IndividualId],
        ranked: bool,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        if docs.is_empty() {
            // Nothing to read — and no ranking of nothing to keep, which an
            // entry filled later would have to forget.
            return Ok(Vec::new());
        }
        let tally = &mut self.tally;
        let entry = entry_of(&mut self.entries, (engine.name(), engine.config_tag()));
        let current = entry.bindings.as_ref();
        if !current.is_some_and(|held| Arc::ptr_eq(held, bindings)) {
            entry.reset(bindings);
        }
        if entry.holds(docs) {
            return Ok(entry.answer(ranked, tally));
        }
        if entry.ids.is_empty() {
            // The list the entry is to hold: kept as two slices, and
            // answered — ranked, if asked — from the engine's own list.
            tally.misses += docs.len() as u64;
            let computed = engine.score_all_bound(env, bindings, docs, scratch)?;
            entry.ids.extend(computed.iter().map(|s| s.doc));
            entry.scores.extend(computed.iter().map(|s| s.score));
            if !ranked {
                return Ok(computed);
            }
            return Ok(entry.ranked.insert(tally.rank(&computed)).clone());
        }
        let ScoreEntry {
            ids,
            scores,
            ranked: kept,
            index,
            ..
        } = entry;
        let index = index.get_or_insert_with(|| {
            #[cfg(test)]
            {
                tally.indexed += 1;
            }
            let slots = ids.iter().enumerate();
            slots.map(|(at, &doc)| (doc, slot(at))).collect()
        });
        // Decided before anything is appended: a candidate the entry
        // lacks is a miss at every slot it repeats in.
        let lacks = |d: &IndividualId| !index.contains_key(d);
        let missing: Vec<IndividualId> = docs.iter().copied().filter(lacks).collect();
        tally.hits += (docs.len() - missing.len()) as u64;
        tally.misses += missing.len() as u64;
        if !missing.is_empty() {
            let computed = engine.score_all_bound(env, bindings, &missing, scratch)?;
            *kept = None;
            for s in computed {
                index.insert(s.doc, slot(ids.len()));
                ids.push(s.doc);
                scores.push(s.score);
            }
        }
        let score = |&doc: &IndividualId| DocScore {
            doc,
            score: scores[index[&doc] as usize],
        };
        let scores: Vec<DocScore> = docs.iter().map(score).collect();
        Ok(if ranked { tally.rank(&scores) } else { scores })
    }

    /// Scores every document in `docs`, in order: bind, then read through
    /// the score entry. The unranked half of [`SessionCore::rank_top_k`],
    /// for callers that combine score lists before ranking.
    pub(crate) fn score_all<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let bindings = self.bind(env);
        self.read_through(engine, env, &bindings, docs, false, scratch)
    }

    /// The top `k` of the ranking of `docs` (best first) — the request
    /// path. `k < docs.len()` is two-phase top-k ([`crate::rank_top_k`])
    /// over the cached bindings, whose scores are *not* added to the score
    /// entry (it skips the cache bookkeeping, and on deferred documents
    /// covers an adaptively chosen subset of `docs`); otherwise there is
    /// nothing to cut and the full ranking is read through the score
    /// entry, where a warm repeat is a compare and a copy.
    pub(crate) fn rank_top_k<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
        k: usize,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let bindings = self.bind(env);
        if k == 0 {
            return Ok(Vec::new());
        }
        if k < docs.len() {
            rank_top_k_bound(env, engine, &bindings, docs, k, scratch)
        } else {
            self.read_through(engine, env, &bindings, docs, true, scratch)
        }
    }
}

/// A prepared scoring session: binding cache + score cache (see the module
/// docs for the layering).
///
/// ```
/// use capra_core::{
///     FactorizedEngine, Kb, PreferenceRule, RuleRepository, Score, ScoringEnv, ScoringSession,
/// };
///
/// let mut kb = Kb::new();
/// let user = kb.individual("peter");
/// kb.assert_concept(user, "Weekend");
/// let doc = kb.individual("doc");
/// kb.assert_concept_prob(doc, "Nice", 0.6).unwrap();
/// let mut rules = RuleRepository::new();
/// rules.add(PreferenceRule::new(
///     "R",
///     kb.parse("Weekend").unwrap(),
///     kb.parse("Nice").unwrap(),
///     Score::new(0.8).unwrap(),
/// )).unwrap();
///
/// let engine = FactorizedEngine::new();
/// let mut session = ScoringSession::new();
/// let env = ScoringEnv { kb: &kb, rules: &rules, user };
/// let cold = session.score_all(&engine, &env, &[doc]).unwrap();
/// let warm = session.score_all(&engine, &env, &[doc]).unwrap(); // no rebind
/// assert_eq!(cold[0].score.to_bits(), warm[0].score.to_bits());
/// assert!(session.stats().scores.hits > 0);
/// ```
#[derive(Default)]
pub struct ScoringSession {
    /// One core per user the session has scored for.
    users: IdMap<IndividualId, SessionCore>,
    scratch: EvalScratch,
}

impl ScoringSession {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            batch: self.scratch.batch_stats(),
            ..self.users.values().map(SessionCore::stats).sum()
        }
    }

    /// Drops all cached scores and resets their counters, so post-clear
    /// stats describe the fresh cache only (bindings are kept). Benchmarks
    /// use this to isolate the pure-evaluation warm path.
    pub fn invalidate_scores(&mut self) {
        self.users
            .values_mut()
            .for_each(SessionCore::invalidate_scores);
    }

    /// Drops every layer of cached state.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Binds every rule in the environment for `env.user`, serving unchanged
    /// rules from the user's cached bindings and looking the user's context
    /// event up again for the rest, counted into [`SessionStats::bindings`].
    /// Returns one binding per rule, in repository order — the same
    /// contract as [`crate::bind_rules_shared`], with which the result is
    /// bit-identical.
    ///
    /// The list is shared, and it is the user's *same* list for as long as
    /// every binding in it is the same `Arc` — also across KB mutations
    /// that moved nothing of this user's. [`Arc::ptr_eq`] on two lists a
    /// caller got for one user therefore says "nothing changed" (never the
    /// converse: a cleared session binds equal content into a new list).
    pub fn bind(&mut self, env: &ScoringEnv<'_>) -> Arc<[Arc<RuleBinding>]> {
        self.users.entry(env.user).or_default().bind(env)
    }

    /// Scores every document in `docs`, in order — bit-identical to
    /// `engine.score_all(env, docs)`, with all unchanged work served from
    /// the session's caches.
    pub fn score_all<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let core = self.users.entry(env.user).or_default();
        core.score_all(engine, env, docs, &mut self.scratch)
    }

    /// [`ScoringSession::score_all`] followed by the descending sort of
    /// [`crate::rank`].
    pub fn rank<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        self.rank_top_k(engine, env, docs, docs.len())
    }

    /// The top `k` of [`ScoringSession::rank`]. With `k < docs.len()` it
    /// runs in two phases (see [`crate::rank_top_k`]): the documents the
    /// engine scores in closed form are ranked from one sweep, and the ones
    /// it defers are evaluated only while their score upper bound can still
    /// reach the top `k` — starting from the k-th best closed-form score.
    /// That path uses the session's cached bindings;
    /// the scores it computes are *not* added to the score cache. With
    /// nothing to cut (`k >= docs.len()`) it is [`ScoringSession::rank`].
    pub fn rank_top_k<E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
        k: usize,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let core = self.users.entry(env.user).or_default();
        core.rank_top_k(engine, env, docs, k, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rank, FactorizedEngine, Kb, LineageEngine, PreferenceRule, RuleRepository, Score};

    fn fixture() -> (Kb, RuleRepository, IndividualId, Vec<IndividualId>) {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        kb.assert_concept_prob(user, "Breakfast", 0.7).unwrap();
        let docs: Vec<IndividualId> = (0..6)
            .map(|i| {
                let d = kb.individual(&format!("d{i}"));
                kb.assert_concept(d, "TvProgram");
                kb.assert_concept_prob(d, "Nice", 0.1 + 0.12 * i as f64)
                    .unwrap();
                if i % 2 == 0 {
                    kb.assert_concept_prob(d, "News", 0.2 + 0.1 * i as f64)
                        .unwrap();
                }
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R1",
                kb.parse("Weekend").unwrap(),
                kb.parse("TvProgram AND Nice").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "R2",
                kb.parse("Breakfast").unwrap(),
                kb.parse("News").unwrap(),
                Score::new(0.6).unwrap(),
            ))
            .unwrap();
        (kb, rules, user, docs)
    }

    #[test]
    fn warm_call_reuses_bindings_and_scores() {
        let (kb, rules, user, docs) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        let cold = session.score_all(&engine, &env, &docs).unwrap();
        assert_eq!(session.stats().bindings.misses, 2);
        assert_eq!(session.stats().scores.misses, docs.len() as u64);
        let warm = session.score_all(&engine, &env, &docs).unwrap();
        let stats = session.stats();
        assert_eq!(stats.bindings.hits, 2, "no rebinding on a warm call");
        assert_eq!(stats.scores.hits, docs.len() as u64);
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // Reference: a cold engine call computes the same bits.
        let reference = engine.score_all(&env, &docs).unwrap();
        for (a, b) in reference.iter().zip(&warm) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn mutation_invalidates_exactly_once() {
        let (mut kb, rules, user, docs) = fixture();
        let engine = LineageEngine::new();
        let mut session = ScoringSession::new();
        {
            let env = ScoringEnv {
                kb: &kb,
                rules: &rules,
                user,
            };
            session.score_all(&engine, &env, &docs).unwrap();
        }
        // Mutate the KB: the next call must rebind what reads the mutated
        // table (and rescore), and the call after that must be warm again.
        kb.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let fresh = session.score_all(&engine, &env, &docs).unwrap();
        let stats = session.stats().bindings;
        assert_eq!(
            (stats.misses, stats.hits),
            (3, 1),
            "2 cold + R1, whose preference reads `Nice`; R2 reads only \
             `Breakfast` and `News`, which the assert did not touch"
        );
        let reference = engine.score_all(&env, &docs).unwrap();
        for (a, b) in reference.iter().zip(&fresh) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let hits_before = session.stats().scores.hits;
        session.score_all(&engine, &env, &docs).unwrap();
        assert_eq!(
            session.stats().scores.hits,
            hits_before + docs.len() as u64,
            "call after the mutation is warm again"
        );
    }

    #[test]
    fn name_lookup_between_calls_does_not_invalidate() {
        let (mut kb, rules, user, docs) = fixture();
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        {
            let env = ScoringEnv {
                kb: &kb,
                rules: &rules,
                user,
            };
            session.score_all(&engine, &env, &docs).unwrap();
        }
        // Resolving existing names per request (the serving-loop pattern)
        // is a no-op on the KB and must leave the caches warm.
        assert_eq!(kb.individual("peter"), user);
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        session.score_all(&engine, &env, &docs).unwrap();
        let stats = session.stats();
        assert_eq!(stats.bindings.misses, 2, "no rebinding after a lookup");
        assert_eq!(stats.scores.hits, docs.len() as u64, "scores stay cached");
    }

    #[test]
    fn engine_config_changes_do_not_share_cached_scores() {
        use crate::{CoreError, NaiveEnumEngine};

        let (kb, rules, user, docs) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let mut session = ScoringSession::new();
        session
            .score_all(&NaiveEnumEngine::new(), &env, &docs)
            .unwrap();
        // A tighter rule cap must error through the session exactly like a
        // cold call — cached scores from the default cap must not leak.
        let capped = NaiveEnumEngine {
            max_rules: 1,
            ..NaiveEnumEngine::new()
        };
        assert!(matches!(
            session.score_all(&capped, &env, &docs),
            Err(CoreError::TooManyRules { n: 2, max: 1 })
        ));
    }

    #[test]
    fn rule_change_rebinds_only_that_rule() {
        let (kb, mut rules, user, docs) = fixture();
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        {
            let env = ScoringEnv {
                kb: &kb,
                rules: &rules,
                user,
            };
            session.score_all(&engine, &env, &docs).unwrap();
        }
        // Replace R2 under the same name with a different σ.
        let r2 = rules.remove("R2").unwrap();
        rules
            .add(PreferenceRule::new(
                "R2",
                r2.context,
                r2.preference,
                Score::new(0.9).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let fresh = session.score_all(&engine, &env, &docs).unwrap();
        let stats = session.stats();
        assert_eq!(stats.bindings.misses, 3, "2 cold + only the changed rule");
        assert_eq!(stats.bindings.hits, 1, "unchanged rule served from cache");
        let reference = engine.score_all(&env, &docs).unwrap();
        for (a, b) in reference.iter().zip(&fresh) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    fn env_of<'a>(kb: &'a Kb, rules: &'a RuleRepository, user: IndividualId) -> ScoringEnv<'a> {
        ScoringEnv { kb, rules, user }
    }

    /// Same content as the cold bind, rule by rule.
    fn assert_matches_cold(got: &[Arc<RuleBinding>], env: &ScoringEnv<'_>) {
        let want = crate::bind_rules(env);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.name, w.name);
            assert_eq!(g.sigma, w.sigma);
            assert_eq!(g.context_event, w.context_event, "{}", g.name);
            assert_eq!(g.preference_events, w.preference_events, "{}", g.name);
        }
    }

    #[test]
    fn another_users_context_switch_hands_back_the_same_bindings() {
        let (mut kb, rules, user, _) = fixture();
        let other = kb.individual("mary");
        let mut cache = ScoringSession::new();
        let before = cache.bind(&env_of(&kb, &rules, user));
        // `Breakfast` is R2's context table: it moved, but not in this
        // user's row.
        kb.assert_concept_prob(other, "Breakfast", 0.2).unwrap();
        let after = cache.bind(&env_of(&kb, &rules, user));
        for (b, a) in before.iter().zip(after.iter()) {
            assert!(Arc::ptr_eq(b, a), "{}: unchanged binding, same Arc", b.name);
        }
        assert_eq!(
            cache.stats().bindings,
            CacheStats { hits: 2, misses: 2 },
            "a re-check that changes nothing is a hit"
        );
        // The user's own row is another matter.
        kb.assert_concept_prob(user, "Breakfast", 0.2).unwrap();
        let own = cache.bind(&env_of(&kb, &rules, user));
        assert!(Arc::ptr_eq(&before[0], &own[0]), "R1 reads `Weekend`");
        assert!(!Arc::ptr_eq(&before[1], &own[1]), "R2's context changed");
        assert_matches_cold(&own, &env_of(&kb, &rules, user));
    }

    #[test]
    fn constant_context_bindings_are_shared_and_follow_their_view() {
        let (mut kb, rules, _, docs) = fixture();
        // Neither has `Breakfast`, so R2's context is `False` for both;
        // `Weekend` is certain, so R1's is `True`.
        let tenants = ["ann", "bob"].map(|name| {
            let u = kb.individual(name);
            kb.assert_concept(u, "Weekend");
            u
        });
        let mut caches = [ScoringSession::new(), ScoringSession::new()];
        let mut bind_both = |kb: &Kb| -> Vec<Arc<[Arc<RuleBinding>]>> {
            let bind = |(cache, u): (&mut ScoringSession, IndividualId)| {
                let got = cache.bind(&env_of(kb, &rules, u));
                assert_matches_cold(&got, &env_of(kb, &rules, u));
                got
            };
            caches.iter_mut().zip(tenants).map(bind).collect()
        };
        let before = bind_both(&kb);
        assert!(before[0][0].context_event.is_true() && before[0][1].is_inapplicable());
        for (ann, bob) in before[0].iter().zip(before[1].iter()) {
            assert!(Arc::ptr_eq(ann, bob), "{}: one Arc for both", ann.name);
        }
        // `News` feeds R2's view: it moves, R1's stands.
        kb.assert_concept_prob(docs[1], "News", 0.5).unwrap();
        let after = bind_both(&kb);
        let view = Arc::clone(&published(&kb).unwrap().plans[1].view);
        assert!(!Arc::ptr_eq(&view, &before[0][1].preference_events));
        for got in &after {
            assert!(
                Arc::ptr_eq(&got[1].preference_events, &view),
                "the new view"
            );
            assert!(Arc::ptr_eq(&got[1], &after[0][1]), "shared again");
            assert!(Arc::ptr_eq(&got[0], &before[0][0]), "R1 is kept");
        }
        for cache in &caches {
            assert_eq!(
                cache.stats().bindings,
                CacheStats { hits: 1, misses: 3 },
                "first sight of two rules, then R2's view"
            );
        }
    }

    #[test]
    fn a_new_definition_rebinds_the_rules_that_name_it() {
        let (mut kb, mut rules, user, _) = fixture();
        // `Lazy` is an ordinary, never-asserted name when the rule is
        // added; the terminology gives it a meaning afterwards.
        rules
            .add(PreferenceRule::new(
                "R3",
                kb.parse("Lazy").unwrap(),
                kb.parse("News").unwrap(),
                Score::new(0.5).unwrap(),
            ))
            .unwrap();
        let mut cache = ScoringSession::new();
        let before = cache.bind(&env_of(&kb, &rules, user));
        assert!(before[2].is_inapplicable());
        let lazy = kb.voc.concept("Lazy");
        let mut fork = kb.clone();
        let body = kb.parse("Weekend AND Breakfast").unwrap();
        kb.tbox.define(lazy, body, &kb.voc).unwrap();
        let after = cache.bind(&env_of(&kb, &rules, user));
        assert!(
            !after[2].is_inapplicable(),
            "the footprint is now the body's"
        );
        assert_matches_cold(&after, &env_of(&kb, &rules, user));
        assert!(Arc::ptr_eq(&before[0], &after[0]) && Arc::ptr_eq(&before[1], &after[1]));
        assert_eq!(
            (cache.stats().bindings, kb.plans().resolved()),
            (CacheStats { hits: 2, misses: 4 }, 2),
            "one resolve for the new terminology; only R3 names `Lazy`"
        );
        // …and follows the body's tables from here on.
        kb.assert_concept_prob(user, "Breakfast", 0.4).unwrap();
        assert_matches_cold(
            &cache.bind(&env_of(&kb, &rules, user)),
            &env_of(&kb, &rules, user),
        );
        // A clone is another KB: its terminology can differ at the same
        // `TBox::epoch`, so nothing unfolded for the original carries over.
        let body = fork.parse("Weekend").unwrap();
        fork.tbox.define(lazy, body, &fork.voc).unwrap();
        assert_eq!(fork.tbox.epoch(), kb.tbox.epoch());
        assert_matches_cold(
            &cache.bind(&env_of(&fork, &rules, user)),
            &env_of(&fork, &rules, user),
        );
    }

    #[test]
    fn a_reader_on_an_older_snapshot_never_takes_a_newer_view() {
        let (old, rules, user, docs) = fixture();
        // The publish chain: `new` succeeds `old` under the same identity
        // and shares its view table.
        let mut new = old.clone_for_publish();
        new.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        // A tenant on the successor publishes the new views first…
        let mut ahead = ScoringSession::new();
        assert_matches_cold(
            &ahead.bind(&env_of(&new, &rules, user)),
            &env_of(&new, &rules, user),
        );
        // …and one still pinned on the old snapshot binds afterwards.
        let mut behind = ScoringSession::new();
        assert_matches_cold(
            &behind.bind(&env_of(&old, &rules, user)),
            &env_of(&old, &rules, user),
        );
        // Neither displaced the other's: the newer views are still shared.
        let derived = new.views().derived();
        let mut late = ScoringSession::new();
        assert_matches_cold(
            &late.bind(&env_of(&new, &rules, user)),
            &env_of(&new, &rules, user),
        );
        assert_eq!(new.views().derived(), derived);
        // A cache that served the old snapshot re-validates per snapshot.
        assert_matches_cold(
            &behind.bind(&env_of(&new, &rules, user)),
            &env_of(&new, &rules, user),
        );
        assert_matches_cold(
            &behind.bind(&env_of(&old, &rules, user)),
            &env_of(&old, &rules, user),
        );
    }

    /// The plan set the KB's slot holds.
    fn published(kb: &Kb) -> Option<Arc<PlanSet>> {
        kb.plans().lock().clone()
    }

    #[test]
    fn a_reader_on_an_older_snapshot_neither_takes_nor_evicts_the_newer_plans() {
        let (old, rules, user, docs) = fixture();
        let mut new = old.clone_for_publish();
        new.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        let mut ahead = ScoringSession::new();
        let newest = ahead.bind(&env_of(&new, &rules, user));
        let held = published(&new).expect("the first binder publishes");
        // A tenant still pinned on the old snapshot resolves its own…
        let mut behind = ScoringSession::new();
        assert_matches_cold(
            &behind.bind(&env_of(&old, &rules, user)),
            &env_of(&old, &rules, user),
        );
        assert_eq!(old.plans().resolved(), 2);
        assert!(
            Arc::ptr_eq(&held, &published(&old).unwrap()),
            "…and leaves the newer set where it is"
        );
        // …once: it keeps what it resolved for as long as it stays there.
        behind.bind(&env_of(&old, &rules, user));
        assert_eq!(behind.stats().bindings, CacheStats { hits: 2, misses: 2 });
        // A late arrival on the successor takes the published set as it is,
        // and so does the straggler when it moves on.
        let mut late = ScoringSession::new();
        for cache in [&mut late, &mut behind] {
            let got = cache.bind(&env_of(&new, &rules, user));
            for (a, b) in newest.iter().zip(got.iter()) {
                assert_eq!(a.context_event, b.context_event);
                assert!(Arc::ptr_eq(&a.preference_events, &b.preference_events));
            }
        }
        assert_eq!(new.plans().resolved(), 2);
        assert!(Arc::ptr_eq(&held, &published(&new).unwrap()));
    }

    /// The set `cache` last bound `user` against.
    fn bound_set(cache: &ScoringSession, user: IndividualId) -> Arc<PlanSet> {
        let set = cache
            .users
            .get(&user)
            .and_then(|core| core.bindings.set.clone());
        set.expect("the user was bound")
    }

    #[test]
    fn a_resolve_carries_every_plan_whose_tables_did_not_move() {
        let (mut kb, rules, user, docs) = fixture();
        let mut cache = ScoringSession::new();
        let mut rebind = |kb: &Kb| {
            let got = cache.bind(&env_of(kb, &rules, user));
            assert_matches_cold(&got, &env_of(kb, &rules, user));
            published(kb).expect("the binder publishes")
        };
        let before = rebind(&kb);
        // `Breakfast` is R2's context table, read of the user's own row
        // alone: the set is kept across the move, and nothing resolves.
        kb.assert_concept_prob(user, "Breakfast", 0.2).unwrap();
        let after = rebind(&kb);
        assert!(Arc::ptr_eq(&before, &after), "no resolve for an own row");
        // A document table: R1's preference, R1 alone — R2 is carried
        // with the context stamp it had before `Breakfast` moved, since a
        // context over its asker's own rows is never re-stamped.
        kb.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        let later = rebind(&kb);
        assert!(!Arc::ptr_eq(&after.plans[0].view, &later.plans[0].view));
        assert!(Arc::ptr_eq(&after.plans[1], &later.plans[1]), "R2 carried");
        assert!(later.plans[1].context_stamp < kb.abox.stamp(&later.plans[1].def.context_unfolded));
        // A new individual moves the domain, which neither rule reads.
        kb.individual("newcomer");
        let grown = rebind(&kb);
        assert!(!Arc::ptr_eq(&later, &grown), "a new state, a new set");
        for (a, b) in later.plans.iter().zip(&grown.plans) {
            assert!(Arc::ptr_eq(a, b), "{}: carried", a.def.name);
        }
        assert_eq!(kb.plans().resolved(), 3);
    }

    /// Context events `cache` looked up by a walk for `user` so far.
    fn walks(cache: &ScoringSession, user: IndividualId) -> u64 {
        cache.users.get(&user).map_or(0, |core| core.bindings.walks)
    }

    #[test]
    fn a_bystanders_bind_after_an_own_row_assert_walks_and_resolves_nothing() {
        let (mut kb, rules, user, _) = fixture();
        let switcher = kb.individual("mary");
        kb.assert_concept(switcher, "Weekend");
        kb.assert_concept_prob(switcher, "Breakfast", 0.4).unwrap();
        let mut caches = [ScoringSession::new(), ScoringSession::new()];
        let held: Vec<_> = caches
            .iter_mut()
            .zip([user, switcher])
            .map(|(cache, u)| cache.bind(&env_of(&kb, &rules, u)))
            .collect();
        let (walked, resolved) = (walks(&caches[0], user), kb.plans().resolved());
        // Two own-row asserts by someone else, and one bind after each.
        for p in [0.9, 0.1] {
            kb.assert_concept_prob(switcher, "Breakfast", p).unwrap();
            let got = caches[0].bind(&env_of(&kb, &rules, user));
            assert!(Arc::ptr_eq(&held[0], &got), "the held list, as it was");
            assert_matches_cold(&got, &env_of(&kb, &rules, user));
        }
        assert_eq!(walks(&caches[0], user), walked, "no walk");
        assert_eq!(kb.plans().resolved(), resolved, "no resolve");
        assert_eq!(
            caches[0].stats().bindings,
            CacheStats { hits: 4, misses: 2 }
        );
        // The switcher's own bind takes the same set.
        caches[1].bind(&env_of(&kb, &rules, switcher));
        assert_eq!(kb.plans().resolved(), resolved);
        assert!(Arc::ptr_eq(
            &bound_set(&caches[0], user),
            &bound_set(&caches[1], switcher)
        ));
    }

    /// Whether `moved` holds a table that some rule of `rules`, unfolded
    /// afresh on `kb`, reads of anyone but its asker, or the domain
    /// ([`shared_tables`]): the reference a plan set's keep is held to.
    fn moves_a_shared_table(
        kb: &Kb,
        rules: &RuleRepository,
        mut moved: impl Iterator<Item = Table>,
    ) -> bool {
        let defs: Vec<RuleDef> = rules
            .rules()
            .iter()
            .map(|r| RuleDef::unfold(kb, r))
            .collect();
        let shared = shared_tables(&defs);
        moved.any(|table| shared.binary_search(&table).is_ok())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A binder after an assert keeps the plan set published before it
        /// exactly when the assert moved no shared table — whatever the
        /// rules read of whom, and whoever the assert is about.
        #[test]
        fn an_assert_keeps_the_plan_set_exactly_when_it_moves_no_shared_table(
            shapes in proptest::collection::vec((0usize..7, 0usize..4), 1..4),
            asserts in proptest::collection::vec((0u8..5, 0usize..3, 0usize..5), 1..10),
        ) {
            use crate::serve::{Fact, RankingService};

            const CONTEXTS: [&str; 7] = [
                "Ctx0",
                "Ctx1 AND Ctx0",
                "Ctx1 OR Ctx2",
                "EXISTS knows.Ctx0",
                "NOT Ctx1",
                "Ctx0 OR {user0}",
                "Feat0",
            ];
            const PREFERENCES: [&str; 4] = ["Feat0", "Feat0 AND Feat1", "Ctx2", "EXISTS knows.Feat1"];
            const CONCEPTS: [&str; 5] = ["Ctx0", "Ctx1", "Ctx2", "Feat0", "Feat1"];
            let mut kb = Kb::new();
            let users: Vec<_> = (0..3)
                .map(|i| {
                    let u = kb.individual(&format!("user{i}"));
                    kb.assert_concept_prob(u, "Ctx0", 0.2 + 0.5 * (i as f64 / 3.0)).unwrap();
                    if i % 2 == 0 {
                        kb.assert_concept(u, "Ctx1");
                    }
                    u
                })
                .collect();
            let docs: Vec<_> = (0..3)
                .map(|i| {
                    let d = kb.individual(&format!("doc{i}"));
                    kb.assert_concept_prob(d, "Feat0", 0.1 + 0.8 * (i as f64 / 3.0)).unwrap();
                    kb.assert_concept_prob(d, "Feat1", 0.9 - 0.7 * (i as f64 / 3.0)).unwrap();
                    d
                })
                .collect();
            let mut rules = RuleRepository::new();
            for (i, (context, preference)) in shapes.into_iter().enumerate() {
                let rule = PreferenceRule::new(
                    format!("R{i}"),
                    kb.parse(CONTEXTS[context]).unwrap(),
                    kb.parse(PREFERENCES[preference]).unwrap(),
                    Score::new(0.5).unwrap(),
                );
                rules.add(rule).unwrap();
            }
            let service = RankingService::new(LineageEngine::new(), kb, rules);
            for (step, (kind, who, what)) in asserts.into_iter().enumerate() {
                // A cut page binds, so the slot holds the set of the state
                // the assert starts from.
                service.rank(users[step % users.len()], &docs, 1).unwrap();
                let snap = service.snapshot();
                proptest::prop_assert!(snap.kb().plans().accepts(&snap.env(users[0])));
                let subject = if kind == 1 { docs[who] } else { users[who] };
                match kind {
                    0 | 1 => service.assert(subject, Fact::ConceptProb(CONCEPTS[what].into(), 0.5)),
                    2 => service.assert(subject, Fact::Role("knows".into(), users[what % 3])),
                    3 => service.assert(subject, Fact::Role("knows".into(), docs[what % 3])),
                    _ => {
                        service.individual(&format!("newcomer{what}"));
                        Ok(())
                    }
                }
                .unwrap();
                let after = service.snapshot();
                let (kb, rules) = (after.kb(), after.rules());
                let moved = kb.abox.moved_since(snap.kb().abox.epoch());
                proptest::prop_assert_eq!(
                    kb.plans().accepts(&after.env(users[0])),
                    !moves_a_shared_table(kb, rules, moved),
                    "step {}: kind {} about {:?}", step, kind, subject
                );
            }
        }
    }

    #[test]
    fn a_switcher_re_derives_only_the_rules_that_read_its_moved_table() {
        let (mut kb, rules, user, _) = fixture();
        let mut cache = ScoringSession::new();
        let before = cache.bind(&env_of(&kb, &rules, user));
        let walked = walks(&cache, user);
        // `Breakfast` is R2's context alone.
        kb.assert_concept_prob(user, "Breakfast", 0.2).unwrap();
        let after = cache.bind(&env_of(&kb, &rules, user));
        assert_matches_cold(&after, &env_of(&kb, &rules, user));
        assert_eq!(walks(&cache, user), walked + 1, "R2's context alone");
        assert!(Arc::ptr_eq(&before[0], &after[0]) && !Arc::ptr_eq(&before[1], &after[1]));
        // A row of the user's own that no context reads moves nothing.
        kb.assert_concept_prob(user, "Sleepy", 0.5).unwrap();
        let again = cache.bind(&env_of(&kb, &rules, user));
        assert!(Arc::ptr_eq(&after, &again));
        assert_eq!(walks(&cache, user), walked + 1);
        assert_eq!(cache.stats().bindings, CacheStats { hits: 3, misses: 3 });
        assert_eq!(kb.plans().resolved(), 1);
    }

    #[test]
    fn a_bind_on_an_older_snapshot_across_an_own_row_move_is_the_cold_bind() {
        let (old, rules, user, _) = fixture();
        let mut old = old;
        // Someone with `Weekend` only, whose `Breakfast` row appears later.
        let late = old.individual("mary");
        old.assert_concept(late, "Weekend");
        let mut caches = [ScoringSession::new(), ScoringSession::new()];
        for (cache, u) in caches.iter_mut().zip([user, late]) {
            cache.bind(&env_of(&old, &rules, u));
        }
        let set = published(&old).expect("the first binder publishes");
        let mut new = old.clone_for_publish();
        new.assert_concept_prob(user, "Breakfast", 0.9).unwrap();
        new.assert_concept_prob(late, "Breakfast", 0.9).unwrap();
        // Forwards and back, each against the one set: the rows moved only
        // on the newer snapshot, and the older one has never seen them.
        for kb in [&new, &old, &new, &old] {
            for (cache, u) in caches.iter_mut().zip([user, late]) {
                assert_matches_cold(&cache.bind(&env_of(kb, &rules, u)), &env_of(kb, &rules, u));
                assert!(Arc::ptr_eq(&bound_set(cache, u), &set));
            }
        }
        assert_eq!(old.plans().resolved(), 1);
    }

    #[test]
    fn a_binder_behind_the_published_set_resolves_in_full() {
        let (old, rules, user, docs) = fixture();
        let mut new = old.clone_for_publish();
        new.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        let mut ahead = ScoringSession::new();
        ahead.bind(&env_of(&new, &rules, user));
        let newer = published(&new).expect("the first binder publishes");
        // The slot's set is from a later state than `old`'s: nothing moved
        // *since* it, yet R1's view at `old` is not the one it holds.
        let mut behind = ScoringSession::new();
        let got = behind.bind(&env_of(&old, &rules, user));
        assert_matches_cold(&got, &env_of(&old, &rules, user));
        let own = bound_set(&behind, user);
        assert!(!Arc::ptr_eq(&own.plans[0].view, &newer.plans[0].view));
        // Every plan is resolved afresh, keeping what still holds.
        for (a, b) in own.plans.iter().zip(&newer.plans) {
            assert!(!Arc::ptr_eq(a, b), "{}: resolved, not carried", a.def.name);
            assert!(Arc::ptr_eq(&a.def, &b.def));
        }
        assert!(Arc::ptr_eq(&own.plans[1].view, &newer.plans[1].view));
    }

    #[test]
    fn a_first_sight_walks_only_the_contexts_that_read_the_user() {
        let (mut kb, mut rules, ..) = fixture();
        // R3 names one user outright; R4 holds for everyone without `Weekend`.
        for (name, context) in [("R3", "{named}"), ("R4", "NOT Weekend")] {
            let rule = PreferenceRule::new(
                name,
                kb.parse(context).unwrap(),
                kb.parse("News").unwrap(),
                Score::new(0.4).unwrap(),
            );
            rules.add(rule).unwrap();
        }
        let bare = kb.individual("bare");
        let named = kb.individual("named");
        let weekender = kb.individual("weekender");
        kb.assert_concept(weekender, "Weekend");
        let outsider = kb.voc.individual("outsider");
        for user in [bare, named, weekender, outsider] {
            let env = env_of(&kb, &rules, user);
            let mut cache = ScoringSession::new();
            let got = cache.bind(&env);
            assert_matches_cold(&got, &env);
            let events: Vec<_> = got.iter().map(|b| b.context_event.is_true()).collect();
            let (want, walks) = match user {
                u if u == bare => ([false, false, false, true], 0),
                u if u == named => ([false, false, true, true], 1),
                // `Weekend` is R1's context and under R4's `NOT`.
                u if u == weekender => ([true, false, false, false], 2),
                // Outside the domain nothing holds, not even `NOT Weekend`,
                // and no blank answers for it.
                _ => ([false; 4], 4),
            };
            let name = kb.voc.individual_name(user);
            assert_eq!(
                (events, cache.users[&user].bindings.walks),
                (want.to_vec(), walks),
                "{name}"
            );
            assert_eq!(
                cache.stats().bindings,
                CacheStats { hits: 0, misses: 4 },
                "{name}"
            );
        }
        // A blank is a constant: the plan's one shared binding.
        let [a, b] = [bare, named].map(|u| ScoringSession::new().bind(&env_of(&kb, &rules, u)));
        assert!(Arc::ptr_eq(&a[3], &b[3]) && Arc::ptr_eq(&a[0], &b[0]));
    }

    #[test]
    fn first_sights_at_one_state_share_one_resolve() {
        let (mut kb, rules, _, docs) = fixture();
        let users: Vec<IndividualId> = (0..50)
            .map(|i| {
                let u = kb.individual(&format!("u{i}"));
                kb.assert_concept_prob(u, "Breakfast", 0.5).unwrap();
                u
            })
            .collect();
        let mut tenants: Vec<ScoringSession> =
            users.iter().map(|_| ScoringSession::new()).collect();
        let mut bind_all = |kb: &Kb| {
            for (cache, &u) in tenants.iter_mut().zip(&users) {
                assert_matches_cold(&cache.bind(&env_of(kb, &rules, u)), &env_of(kb, &rules, u));
            }
        };
        bind_all(&kb);
        assert_eq!(kb.plans().resolved(), 1, "the first binder's");
        assert_eq!(
            kb.views().derived(),
            4,
            "`TvProgram`, `Nice`, their conjunction and `News`, once"
        );
        // One assert: one more resolve, however many rank after it, and
        // only the views over the table it touched are derived again.
        kb.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        bind_all(&kb);
        bind_all(&kb);
        assert_eq!((kb.plans().resolved(), kb.views().derived()), (2, 6));
        let misses: u64 = tenants.iter().map(|t| t.stats().bindings.misses).sum();
        assert_eq!(misses, 50 * 3, "first sight of two rules, then R1's view");
    }

    #[test]
    fn two_repositories_alternating_on_one_kb_bind_what_a_cold_bind_does() {
        let (kb, rules, user, docs) = fixture();
        // `R1` under the same name with other concepts, and a rule of its own.
        let mut other = RuleRepository::new();
        for (name, context, preference) in [("R1", "Breakfast", "Nice"), ("R9", "Weekend", "News")]
        {
            other
                .add(PreferenceRule::new(
                    name,
                    Concept::atomic(kb.voc.find_concept(context).unwrap()),
                    Concept::atomic(kb.voc.find_concept(preference).unwrap()),
                    Score::new(0.3).unwrap(),
                ))
                .unwrap();
        }
        let engine = LineageEngine::new();
        // One session serving both owners thrashes the KB's single slot;
        // one session per owner keeps what it resolved.
        let mut both = ScoringSession::new();
        let mut own = [ScoringSession::new(), ScoringSession::new()];
        for round in 0..3 {
            for (repository, own) in [&rules, &other].into_iter().zip(&mut own) {
                let env = env_of(&kb, repository, user);
                let want = engine.score_all(&env, &docs).unwrap();
                for session in [&mut both, &mut *own] {
                    assert_matches_cold(&session.bind(&env), &env);
                    let got = session.score_all(&engine, &env, &docs).unwrap();
                    for (a, b) in want.iter().zip(&got) {
                        assert_eq!((a.doc, a.score.to_bits()), (b.doc, b.score.to_bits()));
                    }
                }
                if round > 0 {
                    assert_eq!(own.stats().bindings.misses, 2, "nothing re-bound");
                }
            }
        }
        assert_eq!(
            both.stats().bindings.misses,
            2 + 5 * 2,
            "every switch re-binds"
        );
    }

    #[test]
    fn equal_rules_built_apart_share_one_plan_set() {
        let (kb, rules, user, docs) = fixture();
        let mut twin = RuleRepository::new();
        for rule in &rules {
            twin.add(rule.clone()).unwrap();
        }
        assert_ne!(rules.stamp(), twin.stamp());
        let engine = LineageEngine::new();
        let mut session = ScoringSession::new();
        for repository in [&rules, &twin, &rules, &twin] {
            let env = env_of(&kb, repository, user);
            session.score_all(&engine, &env, &docs).unwrap();
        }
        assert_eq!(
            kb.plans().resolved(),
            1,
            "the stamps differ; the definitions, compared rule for rule, do not"
        );
        let (stats, n) = (session.stats(), docs.len() as u64);
        assert_eq!(stats.bindings, CacheStats { hits: 6, misses: 2 });
        assert_eq!(
            stats.scores,
            CacheStats {
                hits: 3 * n,
                misses: n
            }
        );
    }

    #[test]
    fn a_diverged_clone_at_an_equal_epoch_starts_with_no_plans() {
        let (mut kb, mut rules, user, _) = fixture();
        rules
            .add(PreferenceRule::new(
                "R3",
                kb.parse("Lazy").unwrap(),
                kb.parse("News").unwrap(),
                Score::new(0.5).unwrap(),
            ))
            .unwrap();
        let mut cache = ScoringSession::new();
        cache.bind(&env_of(&kb, &rules, user));
        let mut fork = kb.clone();
        assert!(published(&kb).is_some() && published(&fork).is_none());
        // The two terminologies part ways at one and the same epoch.
        let lazy = kb.voc.concept("Lazy");
        for (kb, body) in [(&mut kb, "Breakfast"), (&mut fork, "Weekend")] {
            let body = kb.parse(body).unwrap();
            kb.tbox.define(lazy, body, &kb.voc).unwrap();
        }
        assert_eq!(
            (fork.binding_epoch(), fork.tbox.epoch()),
            (kb.binding_epoch(), kb.tbox.epoch())
        );
        for kb in [&kb, &fork, &kb, &fork] {
            assert_matches_cold(
                &cache.bind(&env_of(kb, &rules, user)),
                &env_of(kb, &rules, user),
            );
        }
        assert_eq!((kb.plans().resolved(), fork.plans().resolved()), (2, 1));
    }

    /// Ranks `docs` for `user` through `session` and holds the scores to a
    /// cold engine call — made on a clone of `kb`, whose row slot is its
    /// own, so the reference leaves `kb`'s rows and counter alone.
    fn assert_scores_cold(
        session: &mut ScoringSession,
        kb: &Kb,
        rules: &RuleRepository,
        user: IndividualId,
        docs: &[IndividualId],
    ) {
        let engine = LineageEngine::new();
        let got = session
            .score_all(&engine, &env_of(kb, rules, user), docs)
            .unwrap();
        let twin = kb.clone();
        let want = engine.score_all(&env_of(&twin, rules, user), docs).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!((a.doc, a.score.to_bits()), (b.doc, b.score.to_bits()));
        }
    }

    #[test]
    fn first_touches_at_one_state_share_one_row_per_document() {
        let (mut kb, rules, _, docs) = fixture();
        let users: Vec<IndividualId> = (0..50)
            .map(|i| {
                let u = kb.individual(&format!("u{i}"));
                kb.assert_concept_prob(u, "Breakfast", 0.5).unwrap();
                u
            })
            .collect();
        let mut tenants: Vec<ScoringSession> =
            users.iter().map(|_| ScoringSession::new()).collect();
        let mut rank_all = |kb: &Kb| {
            for (session, &u) in tenants.iter_mut().zip(&users) {
                assert_scores_cold(session, kb, &rules, u, &docs);
            }
        };
        let cells = (docs.len() * rules.len()) as u64;
        rank_all(&kb);
        assert_eq!(
            kb.rows().reads(),
            cells,
            "the first tenant's: every view read once per document"
        );
        // A context assert moves no view: nothing is read again.
        kb.assert_concept_prob(users[7], "Breakfast", 0.9).unwrap();
        rank_all(&kb);
        assert_eq!(kb.rows().reads(), cells);
        // A document assert re-derives the one view over its table, and
        // only that view is read again — once per document, by whoever
        // ranks first.
        kb.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        rank_all(&kb);
        rank_all(&kb);
        assert_eq!(
            kb.rows().reads(),
            cells + docs.len() as u64,
            "`Nice` feeds R1's view; R2's cells are carried over"
        );
        // A candidate list that overlaps the rows already there adds the
        // new document's alone.
        let late = kb.individual("late");
        kb.assert_concept(late, "Interesting");
        let before = kb.rows().reads();
        let mut list = docs[2..].to_vec();
        list.push(late);
        assert_scores_cold(&mut tenants[0], &kb, &rules, users[0], &list);
        assert_eq!(
            kb.rows().reads(),
            before + rules.len() as u64,
            "`Interesting` is in no rule's footprint"
        );
    }

    #[test]
    fn a_diverged_clone_at_an_equal_epoch_starts_with_no_rows() {
        let (mut kb, rules, user, docs) = fixture();
        let mut session = ScoringSession::new();
        assert_scores_cold(&mut session, &kb, &rules, user, &docs);
        let mut fork = kb.clone();
        assert!(kb.rows().reads() > 0 && fork.rows().reads() == 0);
        // The two catalogues part ways at one and the same epoch.
        kb.assert_concept_prob(docs[1], "Nice", 0.9).unwrap();
        fork.assert_concept_prob(docs[2], "Nice", 0.1).unwrap();
        assert_eq!(fork.binding_epoch(), kb.binding_epoch());
        for kb in [&kb, &fork, &kb, &fork] {
            assert_scores_cold(&mut session, kb, &rules, user, &docs);
        }
        let cells = (docs.len() * rules.len()) as u64;
        assert_eq!(fork.rows().reads(), cells, "all of its own, once");
        assert_eq!(kb.rows().reads(), cells + docs.len() as u64);
    }

    #[test]
    fn a_reader_on_an_older_snapshot_neither_takes_nor_evicts_the_newer_rows() {
        let (old, rules, user, docs) = fixture();
        let mut new = old.clone_for_publish();
        new.assert_concept_prob(docs[0], "Nice", 0.5).unwrap();
        let cells = (docs.len() * rules.len()) as u64;
        let mut ahead = ScoringSession::new();
        assert_scores_cold(&mut ahead, &new, &rules, user, &docs);
        assert_eq!(new.rows().reads(), cells);
        // A tenant still pinned on the old snapshot reads the old views
        // into rows of its own — its scores are the old catalogue's…
        let mut behind = ScoringSession::new();
        assert_scores_cold(&mut behind, &old, &rules, user, &docs);
        assert_eq!(old.rows().reads(), 2 * cells, "one slot, shared");
        // …and leaves the newer rows where they are: a late arrival on the
        // successor, and the straggler when it moves on, read nothing.
        let mut late = ScoringSession::new();
        for session in [&mut late, &mut behind] {
            assert_scores_cold(session, &new, &rules, user, &docs);
        }
        assert_eq!(new.rows().reads(), 2 * cells);
        // The other way round the table is handed on: the successor's
        // first request re-reads the one view that changed.
        let mut newer = new.clone_for_publish();
        newer.assert_concept_prob(docs[1], "News", 0.5).unwrap();
        assert_scores_cold(&mut ahead, &newer, &rules, user, &docs);
        assert_eq!(newer.rows().reads(), 2 * cells + docs.len() as u64);
    }

    #[test]
    fn sessions_isolate_users_and_engines() {
        let (mut kb, rules, user, docs) = fixture();
        let other = kb.individual("mary");
        kb.assert_concept(other, "Weekend");
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        for &u in &[user, other, user, other] {
            let env = ScoringEnv {
                kb: &kb,
                rules: &rules,
                user: u,
            };
            let via_session = session.score_all(&engine, &env, &docs).unwrap();
            let reference = engine.score_all(&env, &docs).unwrap();
            for (a, b) in reference.iter().zip(&via_session) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        // Alternating users must not thrash: second round is all hits.
        assert_eq!(session.stats().scores.misses, 2 * docs.len() as u64);
        assert_eq!(session.stats().scores.hits, 2 * docs.len() as u64);
    }

    #[test]
    fn binding_cache_clear_resets_counters() {
        let (kb, rules, user, _) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let mut cache = ScoringSession::new();
        cache.bind(&env);
        cache.bind(&env);
        assert_eq!(
            cache.stats().bindings,
            CacheStats { hits: 2, misses: 2 },
            "second bind serves both rules from cache"
        );
        cache.clear();
        assert_eq!(
            cache.stats().bindings,
            CacheStats::default(),
            "clear resets the counters along with the entries"
        );
        cache.bind(&env);
        assert_eq!(
            cache.stats().bindings,
            CacheStats { hits: 0, misses: 2 },
            "post-clear ratios describe the fresh cache only"
        );
    }

    #[test]
    fn score_cache_clear_resets_counters() {
        let (kb, rules, user, docs) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        session.score_all(&engine, &env, &docs).unwrap();
        session.score_all(&engine, &env, &docs).unwrap();
        assert!(session.stats().scores.hits > 0);
        // `invalidate_scores` clears the score layer: its counters restart
        // so post-clear hit ratios are not diluted by pre-clear traffic.
        session.invalidate_scores();
        let stats = session.stats();
        assert_eq!((stats.scores.hits, stats.scores.misses), (0, 0));
        assert!(stats.bindings.hits > 0, "binding counters are untouched");
        session.score_all(&engine, &env, &docs).unwrap();
        let stats = session.stats();
        assert_eq!(stats.scores.hits, 0, "first post-clear call is all misses");
        assert_eq!(stats.scores.misses, docs.len() as u64);
    }

    #[test]
    fn session_clear_drops_footprint() {
        use crate::LineageEngine;

        let (mut kb, _, user, docs) = fixture();
        // A composite feature: its probability is evaluated on the call's
        // own expectation and kept on the feature row, not in the session.
        for (i, &d) in docs.iter().enumerate() {
            kb.assert_concept_prob(d, "Fun", 0.3 + 0.1 * i as f64)
                .unwrap();
        }
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R",
                kb.parse("Weekend").unwrap(),
                kb.parse("Nice AND Fun").unwrap(),
                Score::new(0.75).unwrap(),
            ))
            .unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let mut session = ScoringSession::new();
        session
            .score_all(&LineageEngine::new(), &env, &docs)
            .unwrap();
        assert_eq!(
            session.stats().footprint,
            Default::default(),
            "a call leaves no memo behind"
        );
        session.clear();
        assert_eq!(session.stats().footprint, Default::default());
    }

    #[test]
    fn the_stored_list_is_answered_without_an_index_or_a_sort() {
        let (mut kb, rules, user, docs) = fixture();
        let engine = LineageEngine::new();
        let mut session = ScoringSession::new();
        let work = |s: &ScoringSession| {
            let tally = &s.users[&user].tally;
            (tally.indexed, tally.sorted)
        };
        let n = docs.len() as u64;
        // A new entry takes the list whole; the first `rank` sorts it.
        let cold = session
            .rank(&engine, &env_of(&kb, &rules, user), &docs)
            .unwrap();
        assert_eq!(work(&session), (0, 1));
        for _ in 0..3 {
            let env = env_of(&kb, &rules, user);
            assert_eq!(session.rank(&engine, &env, &docs).unwrap(), cold);
            let unranked = session.score_all(&engine, &env, &docs).unwrap();
            assert_eq!(rank(unranked), cold);
        }
        assert_eq!(work(&session), (0, 1), "six warm requests: compare, copy");
        let warm = CacheStats {
            hits: 6 * n,
            misses: n,
        };
        assert_eq!(session.stats().scores, warm);
        // So does an entry whose bindings just changed.
        kb.assert_concept_prob(user, "Breakfast", 0.2).unwrap();
        for _ in 0..2 {
            let env = env_of(&kb, &rules, user);
            session.score_all(&engine, &env, &docs).unwrap();
            session.rank(&engine, &env, &docs).unwrap();
        }
        assert_eq!(
            work(&session),
            (0, 2),
            "the ranking is sorted when asked for"
        );
        // Only another list under the same bindings is looked up document
        // by document, through an index built once, and ranked each time.
        for _ in 0..2 {
            let env = env_of(&kb, &rules, user);
            let got = session.rank(&engine, &env, &docs[1..]).unwrap();
            assert_eq!(got, rank(engine.score_all(&env, &docs[1..]).unwrap()));
        }
        assert_eq!(work(&session), (1, 4));
        assert_eq!(session.stats().scores.misses, 2 * n, "nothing new in it");
    }

    /// What a warm page compared before the ids had a slice of their own:
    /// the stored scores' documents, slot by slot.
    fn slot_by_slot(entry: &ScoreEntry, docs: &[IndividualId]) -> bool {
        let stored = doc_scores(&entry.ids, &entry.scores);
        stored.len() == docs.len() && stored.iter().zip(docs).all(|(s, d)| s.doc == *d)
    }

    #[test]
    fn the_slice_compare_answers_the_lists_the_slot_compare_did() {
        let (kb, rules, user, docs) = fixture();
        let env = env_of(&kb, &rules, user);
        let engine = LineageEngine::new();
        let stored = docs[..5].to_vec();
        let mut last = stored.clone();
        last[4] = docs[5];
        let mut repeat = stored.clone();
        repeat[4] = stored[0];
        // (list in the entry, list asked for, answered warm)
        let cases = [
            (&stored, stored.clone(), true),
            (&stored, last, false),
            (&stored, stored[..4].to_vec(), false),
            (&stored, docs.clone(), false),
            (&stored, repeat.clone(), false),
            (&repeat, repeat.clone(), true),
            (&repeat, stored.clone(), false),
            (&stored, Vec::new(), false),
        ];
        for (held, asked, warm) in cases {
            let mut core = SessionCore::default();
            let mut scratch = EvalScratch::new();
            let mut full = |core: &mut SessionCore, list: &[IndividualId]| {
                let got = core.rank_top_k(&engine, &env, list, list.len(), &mut scratch);
                got.unwrap()
            };
            full(&mut core, held);
            let entry = &core.entries[0];
            assert_eq!(
                entry.holds(&asked),
                slot_by_slot(entry, &asked),
                "{asked:?}"
            );
            assert_eq!(entry.holds(&asked), warm, "{asked:?}");
            let answered = core.rank_warm(&engine, &asked);
            assert_eq!(answered.is_some(), warm, "{asked:?}");
            let got = answered.unwrap_or_else(|| full(&mut core, &asked));
            let cold = rank(engine.score_all(&env, &asked).unwrap());
            let bits = |r: &[DocScore]| -> Vec<_> {
                r.iter().map(|s| (s.doc, s.score.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&cold), "{asked:?}");
        }
    }

    #[test]
    fn an_empty_list_leaves_no_ranking_behind() {
        let (kb, rules, user, docs) = fixture();
        let env = env_of(&kb, &rules, user);
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        // `k` past the end: a full rank, of nothing.
        assert_eq!(session.rank_top_k(&engine, &env, &[], 2).unwrap(), []);
        let got = session.rank(&engine, &env, &docs).unwrap();
        assert_eq!(got, rank(engine.score_all(&env, &docs).unwrap()));
    }

    #[test]
    fn new_documents_extend_a_warm_session() {
        let (kb, rules, user, docs) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = FactorizedEngine::new();
        let mut session = ScoringSession::new();
        session.score_all(&engine, &env, &docs[..3]).unwrap();
        let all = session.score_all(&engine, &env, &docs).unwrap();
        let stats = session.stats();
        assert_eq!(stats.scores.hits, 3, "first three docs are cached");
        assert_eq!(stats.scores.misses, docs.len() as u64, "3 cold + 3 new");
        let reference = engine.score_all(&env, &docs).unwrap();
        for (a, b) in reference.iter().zip(&all) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}
