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
//! 1. **bindings** — a [`BindingCache`] holding one `Arc<RuleBinding>` per
//!    `(user, rule)`, validated against the KB's identity, the rule's
//!    current definition and [`crate::Kb::binding_epoch`] (one integer
//!    compare while nothing moved). After a mutation a binding stays valid
//!    unless the mutation touched a table in *that rule's* footprint; one
//!    that did costs a point membership of the user, and the preference
//!    view — which does not depend on the user — is derived once per KB
//!    state and shared by every cache bound to that KB. A binding that
//!    comes out unchanged is handed back as the same `Arc`;
//! 2. **evaluation memos** — an [`crate::engines::EvalScratch`] carrying the
//!    probability/expectation memo tables across calls, so unchanged
//!    sub-problems answer from cache even when new documents appear;
//! 3. **scores** — per-`(user, engine)` document scores, valid while the
//!    exact same binding `Arc`s are in effect. A warm repeat call is a pure
//!    table lookup; after a KB mutation that changed one of the user's
//!    bindings the entry falls out via layer 1 and is recomputed — a
//!    mutation about someone or something else leaves it warm.
//!
//! All layers are behaviour-preserving: a session produces bit-identical
//! scores to a cold call (property-tested in `tests/session_consistency.rs`),
//! because cached values *are* the values the cold path would deterministically
//! recompute.
//!
//! Layer 2 is also **bounded**: when the KB's binding epoch moves, the
//! scratch folds its memo overlays into an epoch-tagged snapshot chain and
//! ages out tiers per the session's [`EvictionPolicy`]
//! ([`ScoringSession::with_policy`]; default
//! [`EvictionPolicy::DEFAULT_MAX_AGE`] epochs, [`EvictionPolicy::Never`]
//! restores the grow-only behaviour). Entries keyed by superseded
//! expressions — re-asserted facts mint fresh variables, so the old
//! expressions are never looked up again — would otherwise accumulate for
//! the life of the KB in a mutate-every-call serving loop. Eviction can
//! only force deterministic recomputes, never change a score; the current
//! footprint is reported by [`SessionStats::footprint`].

use std::collections::HashMap;
use std::sync::Arc;

use capra_dl::{Concept, IndividualId, Reasoner};
use capra_events::{BatchStats, CacheFootprint, EvictionPolicy};

use crate::bind::RuleBinding;
use crate::engines::{rank, DocScore, EvalScratch, ScoringEngine};
use crate::topk::rank_top_k_bound;
use crate::{PreferenceRule, Result, ScoringEnv};

/// Hit/miss counters of one cache layer, as returned by the `stats()`
/// methods of [`BindingCache`] and the score cache. Counters reset to zero
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

/// Counters describing the work a session performed (or avoided), plus the
/// memory footprint of its evaluation-cache layers.
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
    /// Score cache traffic: hits served a document score from the table,
    /// misses computed one through an engine.
    pub scores: CacheStats,
    /// Footprint of the session's evaluation memos: occupied snapshot
    /// tiers, memo entries (snapshot chains plus private overlays), and an
    /// estimate of the hash-consed expression nodes those entries pin in
    /// the process-global interner. Bounded under the session's
    /// [`EvictionPolicy`] even when every call mutates the KB; see
    /// [`capra_events::CacheFootprint`] for the field semantics.
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

/// One cached rule binding plus everything needed to decide its staleness.
/// The rule's name and σ are the binding's own.
struct CacheEntry {
    /// `Kb::id` of the KB the binding was derived from.
    kb_id: u64,
    /// `Kb::binding_epoch` the binding was last found current at. While the
    /// KB still reports it nothing moved, and that compare is the check.
    epoch: u64,
    /// The rule definition the binding reflects. Compared on lookup so a
    /// repository whose rule was removed and re-added under the same name
    /// (different concepts or σ) can never be served a stale binding.
    context: Concept,
    preference: Concept,
    /// `TBox::epoch` the two concepts below were unfolded at.
    tbox_epoch: u64,
    /// The rule's concepts with every defined name expanded: what the
    /// reasoner is asked, and — once the epoch has moved — whose ABox
    /// footprint says whether this binding's inputs did.
    context_unfolded: Concept,
    preference_unfolded: Concept,
    /// [`capra_dl::ABox::stamp`] of each at derivation time.
    context_stamp: u64,
    preference_stamp: u64,
    binding: Arc<RuleBinding>,
}

impl CacheEntry {
    /// Whether the entry was derived from `rule`'s current concepts.
    fn reads(&self, rule: &PreferenceRule) -> bool {
        self.context == rule.context && self.preference == rule.preference
    }

    /// Whether the cached binding is what `env` derives for `rule`, decided
    /// without deriving anything: same KB and definition, and either no
    /// binding-relevant mutation at all since the last check (one integer)
    /// or none to the tables and terminology this rule reads.
    fn is_current(&self, env: &ScoringEnv<'_>, rule: &PreferenceRule) -> bool {
        let kb = env.kb;
        self.kb_id == kb.id()
            && self.binding.sigma == rule.sigma.get()
            && self.reads(rule)
            && (self.epoch == kb.binding_epoch()
                || (self.tbox_epoch == kb.tbox.epoch()
                    && self.context_stamp == kb.abox.stamp(&self.context_unfolded)
                    && self.preference_stamp == kb.abox.stamp(&self.preference_unfolded)))
    }

    /// Derives `rule`'s entry: the user's context event by point membership,
    /// the preference view from the KB's shared views. When that leaves
    /// `previous`'s binding as it was — the same hash-consed context event,
    /// the same view `Arc`, the same σ — the entry carries the **same**
    /// `Arc<RuleBinding>`, so pointer-keyed score caches stay warm across a
    /// mutation that reached this rule's tables but not this user's rows.
    fn derive(
        env: &ScoringEnv<'_>,
        rule: &PreferenceRule,
        reasoner: &Reasoner<'_>,
        previous: Option<&CacheEntry>,
    ) -> CacheEntry {
        let kb = env.kb;
        let tbox_epoch = kb.tbox.epoch();
        let (context_unfolded, preference_unfolded) = match previous {
            Some(p) if p.kb_id == kb.id() && p.tbox_epoch == tbox_epoch && p.reads(rule) => {
                (p.context_unfolded.clone(), p.preference_unfolded.clone())
            }
            _ => (
                kb.tbox.unfold(&rule.context),
                kb.tbox.unfold(&rule.preference),
            ),
        };
        let context_event = reasoner.membership(env.user, &context_unfolded);
        let preference_events = reasoner.instances_shared(&preference_unfolded);
        let sigma = rule.sigma.get();
        let binding = match previous {
            Some(p)
                if p.binding.sigma == sigma
                    && p.binding.context_event == context_event
                    && Arc::ptr_eq(&p.binding.preference_events, &preference_events) =>
            {
                Arc::clone(&p.binding)
            }
            _ => Arc::new(RuleBinding {
                name: rule.name.clone(),
                context_event,
                preference_events,
                sigma,
            }),
        };
        CacheEntry {
            kb_id: kb.id(),
            epoch: kb.binding_epoch(),
            context: rule.context.clone(),
            preference: rule.preference.clone(),
            tbox_epoch,
            context_stamp: kb.abox.stamp(&context_unfolded),
            preference_stamp: kb.abox.stamp(&preference_unfolded),
            context_unfolded,
            preference_unfolded,
            binding,
        }
    }
}

/// Where `name`'s entry sits in `slots`: slot `i` in the steady state (one
/// short string compare), anywhere after a rule was added or removed.
fn find_slot(slots: &[CacheEntry], i: usize, name: &str) -> Option<usize> {
    let named = |e: &CacheEntry| e.binding.name == name;
    if slots.get(i).is_some_and(named) {
        Some(i)
    } else {
        slots.iter().position(named)
    }
}

/// A reasoner that reads and feeds the views shared along `env.kb`'s
/// history. It has no TBox; [`CacheEntry::derive`] hands it unfolded
/// concepts.
fn view_reasoner<'a>(env: &ScoringEnv<'a>) -> Reasoner<'a> {
    Reasoner::with_views(&env.kb.abox, env.kb.views())
}

/// A cache of [`RuleBinding`]s per user, one slot per rule in repository
/// order, validated by `(KB identity, rule definition)` and then by what
/// the rule *reads*.
///
/// While [`crate::Kb::binding_epoch`] is what it was at the last check, a
/// probe is that one integer compare (plus a pointer-cheap compare of the
/// rule's concepts); universe-only declarations never move it. Once it has
/// moved, a binding is still current if the ABox tables in its TBox-unfolded
/// footprint — and the closed-world domain, under `TOP`/`NOT`/`FORALL`/
/// nominals — are at the versions it was derived from
/// ([`capra_dl::ABox::stamp`]). Otherwise it is re-derived, cheaply: the
/// context event is a point membership of this user, the preference view is
/// derived once per KB state and shared by every cache bound to that KB. A
/// re-derivation that comes out unchanged hands back the same `Arc`.
///
/// [`CacheStats::misses`] counts bindings that *changed* (first sight
/// included); everything handed back as it was is a hit.
#[derive(Default)]
pub struct BindingCache {
    entries: HashMap<IndividualId, Vec<CacheEntry>>,
    hits: u64,
    misses: u64,
}

impl BindingCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit/miss counters accumulated since creation or the last
    /// [`BindingCache::clear`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Number of cached bindings (including stale ones not yet refreshed).
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached binding and resets the hit/miss counters, so
    /// post-clear stats describe the fresh cache only.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Binds every rule in the environment, serving unchanged rules from the
    /// cache and re-deriving the rest with one shared reasoner. Returns one
    /// binding per rule, in repository order — the same contract as
    /// [`crate::bind_rules_shared`], with which the result is bit-identical.
    pub fn bind(&mut self, env: &ScoringEnv<'_>) -> Vec<Arc<RuleBinding>> {
        let slots = self.entries.entry(env.user).or_default();
        let reasoner = view_reasoner(env);
        let rules = env.rules.rules();
        let mut out = Vec::with_capacity(rules.len());
        for (i, rule) in rules.iter().enumerate() {
            // Slots `..i` hold the (uniquely named) rules before this one,
            // so a hit is at `i` or later and moving it here displaces
            // nothing that is in place.
            let found = find_slot(slots, i, &rule.name);
            if let Some(at) = found {
                slots.swap(i, at);
            }
            let previous = found.map(|_| &slots[i]);
            if previous.is_some_and(|p| p.is_current(env, rule)) {
                slots[i].epoch = env.kb.binding_epoch();
                self.hits += 1;
            } else {
                let entry = CacheEntry::derive(env, rule, &reasoner, previous);
                if previous.is_some_and(|p| Arc::ptr_eq(&p.binding, &entry.binding)) {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                match found {
                    Some(_) => slots[i] = entry,
                    None => slots.insert(i, entry),
                }
            }
            out.push(Arc::clone(&slots[i].binding));
        }
        // Whatever is left belongs to rules no longer in the repository.
        slots.truncate(rules.len());
        out
    }
}

/// Cached per-document scores for one `(user, engine)` pair, valid while
/// the exact binding `Arc`s they were computed under are still the ones the
/// binding cache hands out. Holding strong references makes the identity
/// check exact: a pointer can only compare equal to a *live* binding, never
/// to a recycled allocation.
#[derive(Default)]
struct ScoreEntry {
    bindings: Vec<Arc<RuleBinding>>,
    scores: HashMap<IndividualId, f64>,
}

/// Key of one score-cache entry: user, engine name, engine configuration.
type ScoreKey = (IndividualId, &'static str, u64);

/// The per-document score layer of a [`SessionCore`]: entries keyed by
/// [`ScoreKey`], each valid while the exact binding `Arc`s it was computed
/// under are unchanged (pointer identity — see [`ScoreEntry`]).
#[derive(Default)]
struct ScoreCache {
    entries: HashMap<ScoreKey, ScoreEntry>,
    hits: u64,
    misses: u64,
}

impl ScoreCache {
    /// Ensures the entry under `key` reflects exactly `bindings` (clearing
    /// it if they changed) and returns the documents not yet cached, in
    /// input order, counting hits and misses.
    fn missing(
        &mut self,
        key: ScoreKey,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
    ) -> Vec<IndividualId> {
        let entry = self.entries.entry(key).or_default();
        let same_bindings = entry.bindings.len() == bindings.len()
            && entry
                .bindings
                .iter()
                .zip(bindings)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        if !same_bindings {
            entry.bindings = bindings.to_vec();
            entry.scores.clear();
        }
        let missing: Vec<IndividualId> = docs
            .iter()
            .copied()
            .filter(|d| !entry.scores.contains_key(d))
            .collect();
        self.hits += (docs.len() - missing.len()) as u64;
        self.misses += missing.len() as u64;
        missing
    }

    /// Stores freshly computed scores under `key` (which
    /// [`ScoreCache::missing`] must have ensured).
    fn record(&mut self, key: &ScoreKey, computed: Vec<DocScore>) {
        let entry = self
            .entries
            .get_mut(key)
            .expect("missing() creates the entry");
        for s in computed {
            entry.scores.insert(s.doc, s.score);
        }
    }

    /// Reads the scores for `docs` (all of which must be cached by now),
    /// in input order.
    fn collect(&self, key: &ScoreKey, docs: &[IndividualId]) -> Vec<DocScore> {
        let entry = &self.entries[key];
        docs.iter()
            .map(|&doc| DocScore {
                doc,
                score: entry.scores[&doc],
            })
            .collect()
    }
}

/// The session core: the two *user-specific* cache layers — rule bindings
/// and per-document scores — and the one request sequence over them: bind,
/// then two-phase top-k or a read-through of the score cache, then rank.
///
/// The third layer, the evaluation memos, is not the core's: every entry
/// point takes `scratch`, which it calls at most once and only when a
/// document has to be evaluated. [`ScoringSession`] hands out the scratch
/// it owns; a tenant of [`crate::serve::RankingService`] *is* a core (plus
/// an LRU stamp) and lazily checks a scratch out of the service's shared
/// pool, so a request answered from the score cache never touches it.
#[derive(Default)]
pub(crate) struct SessionCore {
    bindings: BindingCache,
    scores: ScoreCache,
}

impl SessionCore {
    /// The core's cache counters beside the footprint and batch counters of
    /// whatever evaluation state its owner scores through.
    pub(crate) fn stats(&self, footprint: CacheFootprint, batch: BatchStats) -> SessionStats {
        SessionStats {
            bindings: self.bindings.stats(),
            scores: CacheStats {
                hits: self.scores.hits,
                misses: self.scores.misses,
            },
            footprint,
            batch,
        }
    }

    /// Current bindings for the environment, served from the cache where
    /// valid (see [`BindingCache::bind`]).
    pub(crate) fn bind(&mut self, env: &ScoringEnv<'_>) -> Vec<Arc<RuleBinding>> {
        self.bindings.bind(env)
    }

    /// Reads `docs`' scores under `bindings` through the score cache, in
    /// input order: whatever is missing is computed by the engine on
    /// `scratch()` and recorded first.
    fn read_through<'s, E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: impl FnOnce() -> &'s mut EvalScratch,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let key = (env.user, engine.name(), engine.config_tag());
        let missing = self.scores.missing(key, bindings, docs);
        if !missing.is_empty() {
            let computed = engine.score_all_bound(env, bindings, &missing, scratch())?;
            self.scores.record(&key, computed);
        }
        Ok(self.scores.collect(&key, docs))
    }

    /// Scores every document in `docs`, in order: bind, then read through
    /// the score cache. The unranked half of [`SessionCore::rank_top_k`],
    /// for callers that combine score lists before ranking.
    pub(crate) fn score_all<'s, E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
        scratch: impl FnOnce() -> &'s mut EvalScratch,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let bindings = self.bindings.bind(env);
        self.read_through(engine, env, &bindings, docs, scratch)
    }

    /// The top `k` of the ranking of `docs` (best first) — the request
    /// path. `k < docs.len()` is two-phase top-k ([`crate::rank_top_k`])
    /// over the cached bindings, whose scores are *not* added to the score
    /// cache (it skips the cache bookkeeping, and on deferred documents
    /// covers an adaptively chosen subset of `docs`); otherwise there is
    /// nothing to cut and the full ranking is read through the score
    /// cache, where a warm repeat is a table lookup plus the sort.
    pub(crate) fn rank_top_k<'s, E>(
        &mut self,
        engine: &E,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
        k: usize,
        scratch: impl FnOnce() -> &'s mut EvalScratch,
    ) -> Result<Vec<DocScore>>
    where
        E: ScoringEngine + ?Sized,
    {
        let bindings = self.bindings.bind(env);
        if k < docs.len() {
            rank_top_k_bound(env, engine, &bindings, docs, k, scratch())
        } else {
            let scores = self.read_through(engine, env, &bindings, docs, scratch)?;
            Ok(rank(scores))
        }
    }
}

/// A prepared scoring session: binding cache + persistent evaluation memos
/// + score cache (see the module docs for the layering).
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
    core: SessionCore,
    scratch: EvalScratch,
}

impl ScoringSession {
    /// Creates an empty session with the default [`EvictionPolicy`]: in
    /// serving loops that mutate the KB, evaluation-memo tiers untouched
    /// for [`EvictionPolicy::DEFAULT_MAX_AGE`] binding epochs are dropped,
    /// so the session's footprint stays bounded without the manual
    /// [`ScoringSession::clear`] workaround. On stable KBs no epoch ever
    /// advances, so nothing is evicted and hit rates are exactly those of
    /// a policy-less session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty session with an explicit [`EvictionPolicy`] for
    /// its evaluation memos ([`EvictionPolicy::Never`] reproduces the
    /// grow-only pre-eviction behaviour exactly).
    pub fn with_policy(policy: EvictionPolicy) -> Self {
        Self {
            scratch: EvalScratch::with_policy(policy),
            ..Self::default()
        }
    }

    /// Work counters accumulated so far, plus the current evaluation-memo
    /// footprint (see [`SessionStats::footprint`]).
    pub fn stats(&self) -> SessionStats {
        self.core
            .stats(self.scratch.footprint(), self.scratch.batch_stats())
    }

    /// Drops all cached scores and resets their counters, so post-clear
    /// stats describe the fresh cache only (bindings and evaluation memos
    /// are kept). Benchmarks use this to isolate the pure-evaluation warm
    /// path.
    pub fn invalidate_scores(&mut self) {
        self.core.scores = ScoreCache::default();
    }

    /// Drops every layer of cached state (the eviction policy is kept).
    pub fn clear(&mut self) {
        *self = Self::with_policy(self.scratch.policy());
    }

    /// The session's own scratch, moved on to `env`'s KB and binding epoch
    /// — what it hands the core to evaluate on.
    fn scratch_at(&mut self, env: &ScoringEnv<'_>) -> (&mut SessionCore, &mut EvalScratch) {
        self.scratch.ensure_kb(env.kb);
        self.scratch.advance_epoch(env.kb.binding_epoch());
        (&mut self.core, &mut self.scratch)
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
        let (core, scratch) = self.scratch_at(env);
        core.score_all(engine, env, docs, move || scratch)
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
    /// That path uses the session's cached bindings and evaluation memos;
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
        let (core, scratch) = self.scratch_at(env);
        core.rank_top_k(engine, env, docs, k, move || scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactorizedEngine, Kb, LineageEngine, PreferenceRule, RuleRepository, Score};

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
        let mut cache = BindingCache::new();
        let before = cache.bind(&env_of(&kb, &rules, user));
        // `Breakfast` is R2's context table: it moved, but not in this
        // user's row.
        kb.assert_concept_prob(other, "Breakfast", 0.2).unwrap();
        let after = cache.bind(&env_of(&kb, &rules, user));
        for (b, a) in before.iter().zip(&after) {
            assert!(Arc::ptr_eq(b, a), "{}: unchanged binding, same Arc", b.name);
        }
        assert_eq!(
            cache.stats(),
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
        let mut cache = BindingCache::new();
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
        let mut ahead = BindingCache::new();
        assert_matches_cold(
            &ahead.bind(&env_of(&new, &rules, user)),
            &env_of(&new, &rules, user),
        );
        // …and one still pinned on the old snapshot binds afterwards.
        let mut behind = BindingCache::new();
        assert_matches_cold(
            &behind.bind(&env_of(&old, &rules, user)),
            &env_of(&old, &rules, user),
        );
        // Neither displaced the other's: the newer views are still shared.
        let derived = new.views().derived();
        let mut late = BindingCache::new();
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
        let mut cache = BindingCache::new();
        cache.bind(&env);
        cache.bind(&env);
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 2, misses: 2 },
            "second bind serves both rules from cache"
        );
        cache.clear();
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "clear resets the counters along with the entries"
        );
        cache.bind(&env);
        assert_eq!(
            cache.stats(),
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
    fn session_clear_drops_footprint_and_keeps_policy() {
        use crate::{EvictionPolicy, LineageEngine};

        let (mut kb, rules, user, docs) = fixture();
        // Re-asserting disjoins a fresh event: a composite context.
        kb.assert_concept_prob(user, "Breakfast", 0.4).unwrap();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let mut session = ScoringSession::with_policy(EvictionPolicy::MaxAge(5));
        session
            .score_all(&LineageEngine::new(), &env, &docs)
            .unwrap();
        assert!(
            session.stats().footprint.entries > 0,
            "lineage scoring memoises a composite context's probability"
        );
        session.clear();
        assert_eq!(session.stats().footprint, Default::default());
        assert_eq!(session.scratch.policy(), EvictionPolicy::MaxAge(5));
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
