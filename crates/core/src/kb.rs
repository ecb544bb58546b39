use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use capra_dl::{parse_concept, ABox, Concept, IndividualId, Reasoner, TBox, ViewCache, Vocabulary};
use capra_events::{EventExpr, Universe, VarId};

use crate::engines::RowSlot;
use crate::session::PlanSlot;
use crate::Result;

/// Source of process-unique knowledge-base identities (see [`Kb::id`]).
static NEXT_KB_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_kb_id() -> u64 {
    NEXT_KB_ID.fetch_add(1, Ordering::Relaxed)
}

/// The knowledge base a scoring run operates on: vocabulary, event universe,
/// assertions, and terminology, bundled for convenience.
///
/// In the paper's architecture these are the concept/role tables (with event
/// expressions) plus the mapping machinery of its refs \[4\] and \[16\]. The
/// helpers here cover the common patterns:
///
/// * certain facts — `assert_concept` / `assert_role` with [`EventExpr::True`];
/// * independently uncertain facts — [`Kb::assert_concept_prob`] /
///   [`Kb::assert_role_prob`] mint a fresh boolean variable per fact (e.g.
///   "the EPG tags Oprah human-interest with probability 0.85");
/// * correlated facts — create a choice variable on
///   [`Kb::universe`] directly and pass its atoms as events (e.g. *the user
///   is in exactly one room*).
#[derive(Debug)]
pub struct Kb {
    /// Interned names.
    pub voc: Vocabulary,
    /// Random variables behind uncertain assertions.
    pub universe: Universe,
    /// Concept and role assertions.
    pub abox: ABox,
    /// Concept definitions.
    pub tbox: TBox,
    /// Process-unique identity (fresh per value, including clones).
    id: u64,
    /// Next suffix to try per fresh-variable base name, so minting stays
    /// amortised O(1) under repeated assertions of the same fact shape.
    fresh_suffix: HashMap<String, u32>,
    /// Concept views derived from this KB's history so far (see
    /// [`Kb::views`]). Tied to the identity: fresh and empty wherever `id`
    /// is fresh, shared wherever `id` is kept.
    views: Arc<ViewCache>,
    /// The rule plans resolved along this KB's history (see [`Kb::plans`]);
    /// tied to the identity exactly as `views` is.
    plans: Arc<PlanSlot>,
    /// The feature rows over the latest preference views bound along this
    /// KB's history (see [`Kb::rows`]); tied to the identity exactly as
    /// `views` is.
    rows: Arc<RowSlot>,
}

impl Default for Kb {
    fn default() -> Self {
        Self {
            voc: Vocabulary::default(),
            universe: Universe::default(),
            abox: ABox::default(),
            tbox: TBox::default(),
            id: fresh_kb_id(),
            fresh_suffix: HashMap::new(),
            views: Arc::default(),
            plans: Arc::default(),
            rows: Arc::default(),
        }
    }
}

impl Clone for Kb {
    /// Clones the knowledge base under a **fresh identity** (see [`Kb::id`]):
    /// the clone can be mutated independently, so caches keyed by the
    /// original's `(id, epoch)` must not accept it — and it starts with no
    /// derived views, rule plans or feature rows of its own.
    fn clone(&self) -> Self {
        Self {
            voc: self.voc.clone(),
            universe: self.universe.clone(),
            abox: self.abox.clone(),
            tbox: self.tbox.clone(),
            id: fresh_kb_id(),
            fresh_suffix: self.fresh_suffix.clone(),
            views: Arc::default(),
            plans: Arc::default(),
            rows: Arc::default(),
        }
    }
}

impl Kb {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones the knowledge base **preserving its identity** — the escape
    /// hatch from the fresh-id rule of [`Clone`], for epoch-publish writers
    /// only (`serve::RankingService`).
    ///
    /// Sound only under the publish discipline: the original is the
    /// currently published snapshot and is *never mutated again* once its
    /// successor (this clone, mutated then published) replaces it. Readers
    /// then observe one linear `(id, epoch)` history — exactly as if a
    /// single owned KB had been mutated in place — so every cache keyed by
    /// `(id, epoch)` or `(id, binding_epoch)` stays valid across the swap,
    /// and the clone shares the original's derived views ([`Kb::views`]),
    /// rule plans ([`Kb::plans`]) and feature rows ([`Kb::rows`]).
    /// Using this outside a serialized clone → mutate → publish chain forks
    /// the epoch history of one id and corrupts those caches.
    pub(crate) fn clone_for_publish(&self) -> Self {
        Self {
            voc: self.voc.clone(),
            universe: self.universe.clone(),
            abox: self.abox.clone(),
            tbox: self.tbox.clone(),
            id: self.id,
            fresh_suffix: self.fresh_suffix.clone(),
            views: Arc::clone(&self.views),
            plans: Arc::clone(&self.plans),
            rows: Arc::clone(&self.rows),
        }
    }

    /// Process-unique identity of this KB value. Clones receive a fresh id,
    /// so `(id, epoch)` pairs identify one immutable snapshot of one KB —
    /// the key scheme of a user's bindings ([`crate::ScoringSession::bind`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Combined mutation counter over all layers (universe + ABox + TBox).
    /// Each layer's counter is monotonic, so the sum is too.
    pub fn epoch(&self) -> u64 {
        self.universe.epoch() + self.abox.epoch() + self.tbox.epoch()
    }

    /// The part of [`Kb::epoch`] that can invalidate rule bindings: ABox and
    /// TBox mutations. Universe declarations are append-only (existing
    /// variables and probabilities never change), so adding one cannot
    /// change what an already-derived binding means — while this counter
    /// stands still, validity is a single integer compare. Once it has
    /// moved, [`capra_dl::ABox::stamp`] says whether a given concept's
    /// tables did.
    pub fn binding_epoch(&self) -> u64 {
        self.abox.epoch() + self.tbox.epoch()
    }

    /// Interns an individual and registers it in the ABox domain.
    pub fn individual(&mut self, name: &str) -> IndividualId {
        let ind = self.voc.individual(name);
        self.abox.register_individual(ind);
        ind
    }

    /// Parses a concept expression against this KB's vocabulary.
    pub fn parse(&mut self, text: &str) -> Result<Concept> {
        Ok(parse_concept(text, &mut self.voc)?)
    }

    /// Asserts `ind : concept` with certainty.
    pub fn assert_concept(&mut self, ind: IndividualId, concept: &str) {
        let c = self.voc.concept(concept);
        self.abox.assert_concept(ind, c, EventExpr::True);
    }

    /// Asserts `ind : concept` under a fresh independent event of
    /// probability `p`. Returns the event variable for reuse.
    pub fn assert_concept_prob(
        &mut self,
        ind: IndividualId,
        concept: &str,
        p: f64,
    ) -> Result<VarId> {
        let c = self.voc.concept(concept);
        let var = self.fresh_var(["c", concept, self.voc.individual_name(ind)].join(":"), p)?;
        let event = self.universe.bool_event(var)?;
        self.abox.assert_concept(ind, c, event);
        Ok(var)
    }

    /// Asserts `(src, dst) : role` with certainty.
    pub fn assert_role(&mut self, src: IndividualId, role: &str, dst: IndividualId) {
        let r = self.voc.role(role);
        self.abox.assert_role(src, r, dst, EventExpr::True);
    }

    /// Asserts `(src, dst) : role` under a fresh independent event of
    /// probability `p`. Returns the event variable for reuse.
    pub fn assert_role_prob(
        &mut self,
        src: IndividualId,
        role: &str,
        dst: IndividualId,
        p: f64,
    ) -> Result<VarId> {
        let r = self.voc.role(role);
        let (src_name, dst_name) = (self.voc.individual_name(src), self.voc.individual_name(dst));
        let var = self.fresh_var(["r", role, src_name, dst_name].join(":"), p)?;
        let event = self.universe.bool_event(var)?;
        self.abox.assert_role(src, r, dst, event);
        Ok(var)
    }

    /// Asserts `ind : concept` under an explicit event expression (for
    /// correlated uncertainty such as mutually exclusive alternatives).
    pub fn assert_concept_event(&mut self, ind: IndividualId, concept: &str, event: EventExpr) {
        let c = self.voc.concept(concept);
        self.abox.assert_concept(ind, c, event);
    }

    /// Asserts `(src, dst) : role` under an explicit event expression.
    pub fn assert_role_event(
        &mut self,
        src: IndividualId,
        role: &str,
        dst: IndividualId,
        event: EventExpr,
    ) {
        let r = self.voc.role(role);
        self.abox.assert_role(src, r, dst, event);
    }

    /// A reasoner over this KB (TBox-aware). Cold: it shares nothing with
    /// earlier or later reasoners, which is what makes [`crate::bind_rules`]
    /// the oracle the caching paths are checked against.
    pub fn reasoner(&self) -> Reasoner<'_> {
        Reasoner::with_tbox(&self.abox, &self.tbox)
    }

    /// The concept views derived so far along this KB's `(id, epoch)`
    /// history — one per distinct (sub-)concept of the bound rules, shared
    /// by every user's bindings against it: a preference
    /// view does not depend on who asks. Reasoners built with
    /// [`Reasoner::with_views`] validate each view against their own ABox
    /// state, so a holder of an older snapshot in the publish chain never
    /// reads a newer view.
    pub(crate) fn views(&self) -> &ViewCache {
        &self.views
    }

    /// The slot for the user-independent half of the bindings — every rule
    /// of one repository resolved against one state of this KB — shared,
    /// like [`Kb::views`], by every user's bindings against this KB or a
    /// publish-chain successor. Binders accept what it
    /// holds for their own rules and terminology, at its KB state or a
    /// later one that moved none of the tables its plans share.
    pub(crate) fn plans(&self) -> &PlanSlot {
        &self.plans
    }

    /// The slot for the document half of the bindings — per candidate its
    /// feature event under every rule, joined from the preference views
    /// once and shared, like [`Kb::views`] and [`Kb::plans`], by every
    /// request against this KB or a publish-chain successor. Engines accept
    /// what it holds only for the very view `Arc`s it was built from.
    pub(crate) fn rows(&self) -> &RowSlot {
        &self.rows
    }

    fn fresh_var(&mut self, base: String, p: f64) -> Result<VarId> {
        // Assertion events need unique variable names; suffix with a counter
        // when the natural name is taken (e.g. repeated assertions). The
        // next suffix to try is remembered per base, and a base with a
        // counter is known to be taken, so a run of repeated assertions
        // probes the universe once each; the loop only advances past names
        // the caller declared manually. A free name becomes the universe's
        // key as it is, so it is built at its exact length (`join`, and
        // `suffixed`'s capacity), not with `format!`'s spare room.
        if let Some(next) = self.fresh_suffix.get_mut(base.as_str()) {
            return suffixed(&mut self.universe, &base, next, p);
        }
        let (var, declared) = self.universe.declare_bool(base, p)?;
        if declared {
            return Ok(var);
        }
        let base = self.universe.name(var)?.to_string();
        let next = self.fresh_suffix.entry(base.clone()).or_insert(1);
        suffixed(&mut self.universe, &base, next, p)
    }
}

/// Declares `{base}~{n}` for the first `n` from `*next` on that names no
/// variable yet, and moves `*next` past it.
fn suffixed(universe: &mut Universe, base: &str, next: &mut u32, p: f64) -> Result<VarId> {
    loop {
        let digits = next.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut name = String::with_capacity(base.len() + 1 + digits);
        name.push_str(base);
        name.push('~');
        write!(name, "{next}").expect("a String takes any write");
        *next += 1;
        let (var, declared) = universe.declare_bool(name, p)?;
        if declared {
            return Ok(var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capra_events::Evaluator;

    #[test]
    fn certain_and_probabilistic_assertions() {
        let mut kb = Kb::new();
        let oprah = kb.individual("Oprah");
        let hi = kb.individual("HumanInterest");
        kb.assert_concept(oprah, "TvProgram");
        kb.assert_role_prob(oprah, "hasGenre", hi, 0.85).unwrap();

        let query = kb
            .parse("TvProgram AND EXISTS hasGenre.{HumanInterest}")
            .unwrap();
        let membership = kb.reasoner().membership(oprah, &query);
        let mut ev = Evaluator::new(&kb.universe);
        assert!((ev.prob(&membership) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn fresh_var_names_never_collide() {
        let mut kb = Kb::new();
        let x = kb.individual("x");
        let v1 = kb.assert_concept_prob(x, "C", 0.5).unwrap();
        let v2 = kb.assert_concept_prob(x, "C", 0.5).unwrap();
        assert_ne!(v1, v2);
        // Membership is the disjunction of the two assertion events.
        let c = kb.parse("C").unwrap();
        let membership = kb.reasoner().membership(x, &c);
        let mut ev = Evaluator::new(&kb.universe);
        assert!((ev.prob(&membership) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fresh_var_minting_is_fast_and_skips_manual_names() {
        let mut kb = Kb::new();
        let x = kb.individual("x");
        // A manually declared variable squatting on a suffix the counter
        // will reach: the probe must step over it exactly once.
        kb.universe.add_bool("c:C:x~3", 0.5).unwrap();
        let mut vars = std::collections::BTreeSet::new();
        for _ in 0..500 {
            vars.insert(kb.assert_concept_prob(x, "C", 0.5).unwrap());
        }
        assert_eq!(vars.len(), 500, "all minted variables are distinct");
        assert!(kb.universe.var("c:C:x~4").is_some());
        // The names, byte for byte: the base, then its suffixes in order
        // around the squatter.
        let names: Vec<&str> = vars
            .iter()
            .take(5)
            .map(|&v| kb.universe.name(v).unwrap())
            .collect();
        assert_eq!(names, ["c:C:x", "c:C:x~1", "c:C:x~2", "c:C:x~4", "c:C:x~5"]);
        assert_eq!(
            kb.universe.name(*vars.last().unwrap()).unwrap(),
            "c:C:x~500"
        );
        // A base taken by a manual declaration starts its suffixes at `~1`.
        kb.universe.add_bool("c:D:x", 0.5).unwrap();
        let d = kb.assert_concept_prob(x, "D", 0.5).unwrap();
        assert_eq!(kb.universe.name(d).unwrap(), "c:D:x~1");
    }

    #[test]
    fn epochs_and_identity_track_mutations() {
        let mut kb = Kb::new();
        let e0 = kb.epoch();
        let b0 = kb.binding_epoch();
        let x = kb.individual("x");
        assert!(kb.epoch() > e0, "registering an individual mutates the KB");
        kb.assert_concept_prob(x, "C", 0.5).unwrap();
        assert!(kb.binding_epoch() > b0, "assertions bump the binding epoch");
        // A universe-only declaration bumps the overall epoch but not the
        // binding epoch (existing bindings cannot reference the new var).
        let (e1, b1) = (kb.epoch(), kb.binding_epoch());
        kb.universe.add_bool("sensor", 0.5).unwrap();
        assert!(kb.epoch() > e1);
        assert_eq!(kb.binding_epoch(), b1);
        // Clones carry the state but get a fresh identity.
        let clone = kb.clone();
        assert_eq!(clone.epoch(), kb.epoch());
        assert_ne!(clone.id(), kb.id());
        // The publish clone keeps the identity (writer-path escape hatch):
        // mutating it continues the same (id, epoch) history.
        let mut publish = kb.clone_for_publish();
        assert_eq!(publish.id(), kb.id());
        assert_eq!(publish.epoch(), kb.epoch());
        let y = publish.individual("y");
        publish.assert_concept(y, "C");
        assert!(publish.binding_epoch() > kb.binding_epoch());
    }

    #[test]
    fn explicit_events_support_correlation() {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        let kitchen = kb.individual("Kitchen");
        let lounge = kb.individual("Lounge");
        let room = kb.universe.add_choice("room", &[0.7, 0.3]).unwrap();
        let in_kitchen = kb.universe.atom(room, 0).unwrap();
        let in_lounge = kb.universe.atom(room, 1).unwrap();
        kb.assert_role_event(user, "inRoom", kitchen, in_kitchen);
        kb.assert_role_event(user, "inRoom", lounge, in_lounge);

        let both = kb
            .parse("EXISTS inRoom.{Kitchen} AND EXISTS inRoom.{Lounge}")
            .unwrap();
        let membership = kb.reasoner().membership(user, &both);
        let mut ev = Evaluator::new(&kb.universe);
        assert_eq!(ev.prob(&membership), 0.0, "rooms are mutually exclusive");
    }
}
