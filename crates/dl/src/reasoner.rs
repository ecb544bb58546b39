use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use capra_events::EventExpr;

use crate::{ABox, Concept, IndividualId, TBox};

/// A derived concept view: membership event per instance.
type View = BTreeMap<IndividualId, EventExpr>;

/// Per concept: the latest view and the [`ABox::stamp`] it was derived at.
type Slots = HashMap<Concept, (u64, Arc<View>)>;

/// Derived views shared between reasoners over successive states of **one**
/// ABox history — the paper builds one database view per concept
/// expression, and a view does not depend on who asks.
///
/// One slot per distinct (sub-)concept, holding the latest view derived
/// for it and the [`ABox::stamp`] of the state it was derived from. A
/// reasoner accepts a slot only when the stamp of *its own* ABox for that
/// concept **equals** the slot's — never by order — so a reader still on an
/// older state re-derives rather than take a newer view, and a mutation
/// that touched none of the tables behind a concept leaves its view valid.
/// The owner must hand one cache to one history only (stamps of unrelated
/// ABoxes can collide); `capra-core`'s `Kb` gives every value its own and
/// passes it on only to its publish-chain successors.
#[derive(Default)]
pub struct ViewCache {
    slots: Mutex<Slots>,
    derived: AtomicU64,
}

impl ViewCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of concepts with a cached view.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if no view is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Views derived (rather than found) through this cache so far.
    pub fn derived(&self) -> u64 {
        self.derived.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slots> {
        // A slot is replaced whole, so the map is valid at every step.
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, concept: &Concept, stamp: u64) -> Option<Arc<View>> {
        let slots = self.lock();
        let (at, view) = slots.get(concept)?;
        (*at == stamp).then(|| Arc::clone(view))
    }

    /// Offers a freshly derived view and returns the one to use: the slot's
    /// if another reasoner published the same state first (so every reader
    /// of one state shares one `Arc`), `view` otherwise. A reader of an
    /// older state keeps its view to itself instead of evicting the newer.
    fn publish(&self, concept: &Concept, stamp: u64, view: Arc<View>) -> Arc<View> {
        self.derived.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.lock();
        match slots.get(concept) {
            Some((at, held)) if *at == stamp => return Arc::clone(held),
            Some((at, _)) if *at > stamp => {}
            _ => {
                slots.insert(concept.clone(), (stamp, Arc::clone(&view)));
            }
        }
        view
    }
}

impl fmt::Debug for ViewCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewCache")
            .field("views", &self.len())
            .field("derived", &self.derived())
            .finish()
    }
}

/// Closed-world instance retrieval with event-expression lineage.
///
/// For every individual `x` in the ABox domain and concept `C`, the reasoner
/// derives the event expression under which `x : C`, following the paper's
/// view construction: *"we can construct a database view for each concept
/// expression containing all tuples that are included in the concept
/// expression, together with an event expression as a measure of the
/// probability by which they are included."*
///
/// Lineage propagation rules (Fuhr–Rölleke style):
///
/// * `C ⊓ D` — conjunction of the membership events,
/// * `C ⊔ D` — disjunction,
/// * `¬C` — complement (closed world over the domain),
/// * `∃R.C` — disjunction over `R`-edges of (edge event ∧ filler event),
/// * `∀R.C` — conjunction over `R`-edges of (¬edge event ∨ filler event);
///   vacuously true for individuals without edges (closed world).
///
/// Every derived sub-concept view is **memoised per reasoner**: conjuncts,
/// fillers and whole concepts shared across preference rules are computed
/// once, then returned as shared maps (`Arc`). Reuse one reasoner when
/// binding a rule set (see `bind_rules` in `capra-core`) so that rules with
/// overlapping concept structure share the derivation work.
///
/// [`Reasoner::membership`] asks about *one* individual and never builds a
/// view: it walks that individual's rows and out-edges only.
pub struct Reasoner<'a> {
    abox: &'a ABox,
    tbox: Option<&'a TBox>,
    /// Views that outlive this reasoner (see [`Reasoner::with_views`]).
    shared: Option<&'a ViewCache>,
    /// Per-sub-concept view cache.
    cache: RefCell<HashMap<Concept, Arc<View>>>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
}

impl<'a> Reasoner<'a> {
    /// A reasoner over an ABox alone (atomic concepts mean their assertions).
    pub fn new(abox: &'a ABox) -> Self {
        Self {
            abox,
            tbox: None,
            shared: None,
            cache: RefCell::new(HashMap::new()),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
        }
    }

    /// A reasoner that first unfolds defined concept names through a TBox.
    pub fn with_tbox(abox: &'a ABox, tbox: &'a TBox) -> Self {
        Self {
            tbox: Some(tbox),
            ..Self::new(abox)
        }
    }

    /// A reasoner over an ABox alone that looks every view up in `views`
    /// before deriving it and publishes what it derives, so the work is
    /// shared with other reasoners over the same ABox state — before and
    /// after this one. There is deliberately no TBox: cached views are
    /// keyed by the concept as given, and only a concept free of defined
    /// names means the same thing under every terminology. Callers unfold
    /// first ([`TBox::unfold`]).
    pub fn with_views(abox: &'a ABox, views: &'a ViewCache) -> Self {
        Self {
            shared: Some(views),
            ..Self::new(abox)
        }
    }

    /// `(hits, misses)` of the sub-concept view cache. A view found in a
    /// shared [`ViewCache`] is a hit: only derivations miss.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }

    /// Retrieves all instances of `concept` with their membership events.
    /// Individuals whose membership simplifies to `False` are omitted.
    pub fn instances(&self, concept: &Concept) -> BTreeMap<IndividualId, EventExpr> {
        (*self.instances_shared(concept)).clone()
    }

    /// Shared-map variant of [`Reasoner::instances`]: the returned view is
    /// the memoised one (cheap to clone, safe to hold across calls). The
    /// hot path for rule binding.
    pub fn instances_shared(&self, concept: &Concept) -> Arc<BTreeMap<IndividualId, EventExpr>> {
        match self.tbox {
            Some(tbox) => self.instances_memo(&tbox.unfold(concept)),
            None => self.instances_memo(concept),
        }
    }

    /// The event under which a single individual is a member of `concept`
    /// — the same expression node [`Reasoner::instances`] holds for `ind`
    /// (`False` for individuals it omits or outside the domain), found by a
    /// point evaluation: `ind`'s own rows, and for `∃R.C` / `∀R.C` the
    /// fillers' memberships of the individuals `ind`'s `R`-edges reach.
    /// Cost follows `ind`'s out-degree along the nested restrictions, not
    /// the size of the tables.
    pub fn membership(&self, ind: IndividualId, concept: &Concept) -> EventExpr {
        match self.tbox {
            Some(tbox) => self.member(ind, &tbox.unfold(concept)),
            None => self.member(ind, concept),
        }
    }

    /// Point counterpart of [`Reasoner::instances_rec`], case by case.
    fn member(&self, ind: IndividualId, concept: &Concept) -> EventExpr {
        let in_domain = || self.abox.domain().contains(&ind);
        let constant = |holds: bool| {
            if holds {
                EventExpr::True
            } else {
                EventExpr::False
            }
        };
        match concept {
            Concept::Top => constant(in_domain()),
            Concept::Bottom => EventExpr::False,
            Concept::Atomic(name) => self.abox.concept_event(ind, *name),
            Concept::OneOf(inds) => constant(inds.contains(&ind) && in_domain()),
            Concept::Not(inner) if in_domain() => EventExpr::not(self.member(ind, inner)),
            Concept::Not(_) => EventExpr::False,
            Concept::And(kids) => EventExpr::and(kids.iter().map(|k| self.member(ind, k))),
            Concept::Or(kids) => EventExpr::or(kids.iter().map(|k| self.member(ind, k))),
            Concept::Exists(role, filler) => {
                EventExpr::or(self.abox.role_edges_from(*role, ind).map(|edge| {
                    EventExpr::and([edge.event.clone(), self.member(edge.dst, filler)])
                }))
            }
            Concept::Forall(role, filler) if in_domain() => {
                EventExpr::and(self.abox.role_edges_from(*role, ind).map(|edge| {
                    // Edge present ⇒ filler must hold: ¬edge ∨ filler.
                    EventExpr::or([
                        EventExpr::not(edge.event.clone()),
                        self.member(edge.dst, filler),
                    ])
                }))
            }
            Concept::Forall(..) => EventExpr::False,
        }
    }

    fn all_true(&self) -> View {
        self.abox
            .domain()
            .iter()
            .map(|&i| (i, EventExpr::True))
            .collect()
    }

    /// Memoising wrapper around [`Reasoner::instances_rec`]: this
    /// reasoner's own memo first, then the shared cache (validated against
    /// this reasoner's ABox), then a derivation that feeds both.
    fn instances_memo(&self, concept: &Concept) -> Arc<View> {
        if let Some(hit) = self.cache.borrow().get(concept) {
            self.cache_hits.set(self.cache_hits.get() + 1);
            return Arc::clone(hit);
        }
        let shared = self.shared.map(|views| (views, self.abox.stamp(concept)));
        let view = match shared.and_then(|(views, stamp)| views.get(concept, stamp)) {
            Some(hit) => {
                self.cache_hits.set(self.cache_hits.get() + 1);
                hit
            }
            None => {
                self.cache_misses.set(self.cache_misses.get() + 1);
                let mut computed = self.instances_rec(concept);
                // `False` rows carry no information under closed-world
                // semantics; dropping them here keeps every memoised view
                // canonical.
                computed.retain(|_, e| !e.is_false());
                let computed = Arc::new(computed);
                match shared {
                    Some((views, stamp)) => views.publish(concept, stamp, computed),
                    None => computed,
                }
            }
        };
        self.cache
            .borrow_mut()
            .insert(concept.clone(), Arc::clone(&view));
        view
    }

    fn instances_rec(&self, concept: &Concept) -> View {
        match concept {
            Concept::Top => self.all_true(),
            Concept::Bottom => BTreeMap::new(),
            Concept::Atomic(name) => self
                .abox
                .concept_rows(*name)
                .map(|(i, e)| (i, e.clone()))
                .collect(),
            Concept::OneOf(inds) => inds
                .iter()
                .filter(|i| self.abox.domain().contains(i))
                .map(|&i| (i, EventExpr::True))
                .collect(),
            Concept::Not(inner) => {
                let pos = self.instances_memo(inner);
                self.abox
                    .domain()
                    .iter()
                    .map(|&i| {
                        let e = pos.get(&i).cloned().unwrap_or(EventExpr::False);
                        (i, EventExpr::not(e))
                    })
                    .collect()
            }
            Concept::And(kids) => {
                let views: Vec<_> = kids.iter().map(|k| self.instances_memo(k)).collect();
                // Intersect starting from the smallest view; each conjunct
                // view was derived (or fetched) once, even when the same
                // sub-concept appears in several rules.
                let smallest = views
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, v)| v.len())
                    .map(|(i, _)| i)
                    .expect("And constructor guarantees ≥ 2 children");
                let mut out = BTreeMap::new();
                'candidates: for (&ind, first_event) in views[smallest].iter() {
                    let mut parts = vec![first_event.clone()];
                    for (j, view) in views.iter().enumerate() {
                        if j == smallest {
                            continue;
                        }
                        match view.get(&ind) {
                            Some(e) => parts.push(e.clone()),
                            None => continue 'candidates,
                        }
                    }
                    out.insert(ind, EventExpr::and(parts));
                }
                out
            }
            Concept::Or(kids) => {
                let mut acc: BTreeMap<IndividualId, Vec<EventExpr>> = BTreeMap::new();
                for kid in kids.iter() {
                    for (&i, e) in self.instances_memo(kid).iter() {
                        acc.entry(i).or_default().push(e.clone());
                    }
                }
                acc.into_iter()
                    .map(|(i, events)| (i, EventExpr::or(events)))
                    .collect()
            }
            Concept::Exists(role, filler) => {
                let members = self.instances_memo(filler);
                let mut acc: BTreeMap<IndividualId, Vec<EventExpr>> = BTreeMap::new();
                for edge in self.abox.role_edges(*role) {
                    if let Some(filler_event) = members.get(&edge.dst) {
                        acc.entry(edge.src)
                            .or_default()
                            .push(EventExpr::and([edge.event.clone(), filler_event.clone()]));
                    }
                }
                acc.into_iter()
                    .map(|(i, alts)| (i, EventExpr::or(alts)))
                    .collect()
            }
            Concept::Forall(role, filler) => {
                let members = self.instances_memo(filler);
                let mut acc: BTreeMap<IndividualId, Vec<EventExpr>> = self
                    .abox
                    .domain()
                    .iter()
                    .map(|&i| (i, Vec::new()))
                    .collect();
                for edge in self.abox.role_edges(*role) {
                    let filler_event = members.get(&edge.dst).cloned().unwrap_or(EventExpr::False);
                    // Edge present ⇒ filler must hold: ¬edge ∨ filler.
                    acc.entry(edge.src).or_default().push(EventExpr::or([
                        EventExpr::not(edge.event.clone()),
                        filler_event,
                    ]));
                }
                acc.into_iter()
                    .map(|(i, constraints)| (i, EventExpr::and(constraints)))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_concept, Vocabulary};
    use capra_events::{Evaluator, Universe};

    /// Small certain-world KB: two programs, one genre edge each.
    fn kb() -> (Vocabulary, ABox) {
        let mut voc = Vocabulary::new();
        let mut abox = ABox::new();
        let program = voc.concept("TvProgram");
        let news = voc.concept("NewsShow");
        let genre = voc.role("hasGenre");
        let oprah = voc.individual("Oprah");
        let bbc = voc.individual("BBC");
        let hi = voc.individual("HumanInterest");
        let weather = voc.individual("Weather");
        abox.assert_concept(oprah, program, EventExpr::True);
        abox.assert_concept(bbc, program, EventExpr::True);
        abox.assert_concept(bbc, news, EventExpr::True);
        abox.assert_role(oprah, genre, hi, EventExpr::True);
        abox.assert_role(bbc, genre, weather, EventExpr::True);
        (voc, abox)
    }

    #[test]
    fn atomic_and_top_bottom() {
        let (mut voc, abox) = kb();
        let r = Reasoner::new(&abox);
        let programs = r.instances(&parse_concept("TvProgram", &mut voc).unwrap());
        assert_eq!(programs.len(), 2);
        assert_eq!(r.instances(&Concept::Top).len(), abox.domain().len());
        assert!(r.instances(&Concept::Bottom).is_empty());
    }

    #[test]
    fn conjunction_intersects() {
        let (mut voc, abox) = kb();
        let r = Reasoner::new(&abox);
        let c = parse_concept("TvProgram AND NewsShow", &mut voc).unwrap();
        let m = r.instances(&c);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&voc.find_individual("BBC").unwrap()));
    }

    #[test]
    fn negation_is_closed_world() {
        let (mut voc, abox) = kb();
        let r = Reasoner::new(&abox);
        let c = parse_concept("TvProgram AND NOT NewsShow", &mut voc).unwrap();
        let m = r.instances(&c);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&voc.find_individual("Oprah").unwrap()));
    }

    #[test]
    fn exists_follows_edges() {
        let (mut voc, abox) = kb();
        let r = Reasoner::new(&abox);
        let c = parse_concept("EXISTS hasGenre.{HumanInterest}", &mut voc).unwrap();
        let m = r.instances(&c);
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.get(&voc.find_individual("Oprah").unwrap()),
            Some(&EventExpr::True)
        );
    }

    #[test]
    fn forall_vacuous_without_edges() {
        let (mut voc, abox) = kb();
        let r = Reasoner::new(&abox);
        let c = parse_concept("FORALL hasGenre.{HumanInterest}", &mut voc).unwrap();
        let m = r.instances(&c);
        // Oprah's only edge goes to HumanInterest → true. BBC's edge goes to
        // Weather → false. Everything without edges (genres) → vacuously true.
        assert!(m.contains_key(&voc.find_individual("Oprah").unwrap()));
        assert!(!m.contains_key(&voc.find_individual("BBC").unwrap()));
        assert!(m.contains_key(&voc.find_individual("Weather").unwrap()));
    }

    #[test]
    fn uncertain_membership_propagates_lineage() {
        let mut voc = Vocabulary::new();
        let mut u = Universe::new();
        let mut abox = ABox::new();
        let program = voc.concept("TvProgram");
        let genre = voc.role("hasGenre");
        let ch5 = voc.individual("Channel5");
        let hi = voc.individual("HumanInterest");
        let weather = voc.individual("Weather");
        abox.assert_concept(ch5, program, EventExpr::True);
        // Channel 5 news: human interest 0.95, weather 0.85 (paper Table 1).
        let t1 = u.add_bool("hi-tag", 0.95).unwrap();
        let t2 = u.add_bool("weather-tag", 0.85).unwrap();
        abox.assert_role(ch5, genre, hi, u.bool_event(t1).unwrap());
        abox.assert_role(ch5, genre, weather, u.bool_event(t2).unwrap());

        let r = Reasoner::new(&abox);
        let mut ev = Evaluator::new(&u);
        let c = parse_concept("EXISTS hasGenre.{HumanInterest}", &mut voc).unwrap();
        let e = r.membership(ch5, &c);
        assert!((ev.prob(&e) - 0.95).abs() < 1e-12);

        // Either genre: 1 − 0.05·0.15.
        let c = parse_concept("EXISTS hasGenre.{HumanInterest, Weather}", &mut voc).unwrap();
        let e = r.membership(ch5, &c);
        assert!((ev.prob(&e) - (1.0 - 0.05 * 0.15)).abs() < 1e-12);

        // Both genres: 0.95 · 0.85.
        let c = parse_concept(
            "EXISTS hasGenre.{HumanInterest} AND EXISTS hasGenre.{Weather}",
            &mut voc,
        )
        .unwrap();
        let e = r.membership(ch5, &c);
        assert!((ev.prob(&e) - 0.95 * 0.85).abs() < 1e-12);
    }

    #[test]
    fn membership_of_absent_individual_is_false() {
        let (mut voc, abox) = kb();
        let r = Reasoner::new(&abox);
        let ghost = voc.individual("Ghost");
        let c = parse_concept("TvProgram", &mut voc).unwrap();
        assert_eq!(r.membership(ghost, &c), EventExpr::False);
    }

    #[test]
    fn nominals_restricted_to_domain() {
        let (mut voc, abox) = kb();
        let ghost = voc.individual("Ghost");
        let r = Reasoner::new(&abox);
        let c = Concept::one_of([ghost, voc.find_individual("Oprah").unwrap()]);
        let m = r.instances(&c);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn shared_subconcepts_are_derived_once() {
        let (mut voc, abox) = kb();
        let r = Reasoner::new(&abox);
        let c1 = parse_concept("TvProgram AND EXISTS hasGenre.{HumanInterest}", &mut voc).unwrap();
        let c2 = parse_concept("TvProgram AND EXISTS hasGenre.{Weather}", &mut voc).unwrap();
        let m1 = r.instances(&c1);
        let (hits_before, _) = r.cache_stats();
        let _ = r.instances(&c2);
        let (hits_after, _) = r.cache_stats();
        assert!(
            hits_after > hits_before,
            "the shared TvProgram conjunct must be served from cache"
        );
        // Re-running a whole query derives nothing new.
        let (_, misses_before) = r.cache_stats();
        let m1_again = r.instances(&c1);
        let (_, misses_after) = r.cache_stats();
        assert_eq!(misses_before, misses_after, "repeat query is a pure hit");
        assert_eq!(m1, m1_again);
    }

    #[test]
    fn tbox_unfolding_applies() {
        let (mut voc, abox) = kb();
        let mut tbox = TBox::new();
        let hi_show = voc.concept("HumanInterestShow");
        let def = parse_concept("TvProgram AND EXISTS hasGenre.{HumanInterest}", &mut voc).unwrap();
        tbox.define(hi_show, def, &voc).unwrap();
        let r = Reasoner::with_tbox(&abox, &tbox);
        let m = r.instances(&Concept::atomic(hi_show));
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&voc.find_individual("Oprah").unwrap()));
    }
}
