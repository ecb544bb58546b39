use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use capra_dl::{IndividualId, Reasoner};
use capra_events::{EventExpr, Expectation, Universe};

use crate::{Kb, PreferenceRule, RuleRepository};

/// Everything the in-memory engines need to know about one scoring run.
#[derive(Clone, Copy)]
pub struct ScoringEnv<'a> {
    /// The knowledge base (documents, context facts, uncertainty).
    pub kb: &'a Kb,
    /// The user's preference rules.
    pub rules: &'a RuleRepository,
    /// The individual representing the situated user; context concepts are
    /// evaluated as membership of this individual (e.g. `Weekend`,
    /// `EXISTS inRoom.{Kitchen}`).
    pub user: IndividualId,
}

/// A rule *bound* to the current situation: its context concept evaluated to
/// a membership event of the situated user, and its preference concept
/// evaluated to a membership event per document.
///
/// The binding also keeps `P(G)`, the probability of its context event:
/// the first engine pass that needs it evaluates it on an evaluator of its
/// own, and every later pass over the same binding —
/// [`crate::ScoringSession::bind`] hands an unchanged binding back as the
/// same `Arc` — reads the stored value. The closed-form engines and top-k's
/// bound read `P(G)` only from here, never through the call's evaluation
/// memo, so a request scored in closed form memoises nothing of its
/// contexts. Treat `context_event` as fixed once the binding has been
/// scored: the stored probability is not re-derived when the field is
/// reassigned.
#[derive(Debug, Clone)]
pub struct RuleBinding {
    /// The source rule's name.
    pub name: String,
    /// Event under which the rule's context applies right now.
    pub context_event: EventExpr,
    /// Event per document under which the document matches the preference.
    /// Documents absent from the map match with event `False`. Shared with
    /// the reasoner's sub-concept cache — rules with the same preference
    /// concept share one map, and bindings handed out by
    /// [`crate::ScoringSession::bind`] share it across users too (the view
    /// does not depend on who asks).
    pub preference_events: Arc<BTreeMap<IndividualId, EventExpr>>,
    /// The rule's σ.
    pub sigma: f64,
    /// The unclamped `(P(G), P(¬G))` of `context_event`, once read.
    context_parts: OnceLock<(f64, f64)>,
}

impl RuleBinding {
    /// A binding of the rule `name` with σ `sigma`, its context event and
    /// its preference view — nothing evaluated yet.
    pub(crate) fn new(
        name: String,
        context_event: EventExpr,
        preference_events: Arc<BTreeMap<IndividualId, EventExpr>>,
        sigma: f64,
    ) -> Self {
        Self {
            name,
            context_event,
            preference_events,
            sigma,
            context_parts: OnceLock::new(),
        }
    }

    /// Binds one rule against the KB (constructs a throwaway reasoner; use
    /// [`RuleBinding::bind_with`] or [`bind_rules`] to share one reasoner —
    /// and its derived-view cache — across rules).
    pub fn bind(kb: &Kb, user: IndividualId, rule: &PreferenceRule) -> Self {
        Self::bind_with(&kb.reasoner(), user, rule)
    }

    /// Binds one rule using an existing reasoner, so sub-concepts shared
    /// between this rule and previously bound ones are derived once.
    pub fn bind_with(reasoner: &Reasoner<'_>, user: IndividualId, rule: &PreferenceRule) -> Self {
        Self::new(
            rule.name.clone(),
            reasoner.membership(user, &rule.context),
            reasoner.instances_shared(&rule.preference),
            rule.sigma.get(),
        )
    }

    /// The unclamped `(P(G), P(¬G))` of the context event — the parts
    /// [`capra_events::Expectation::prob_parts`] returns, bit for bit.
    /// Evaluated by the first caller on an evaluator of its own over
    /// `universe` (the universe of the KB the binding was bound against),
    /// and read from the binding by every caller after it; racing first
    /// callers compute the same pure function of the event.
    pub(crate) fn context_parts(&self, universe: &Universe) -> (f64, f64) {
        *self
            .context_parts
            .get_or_init(|| Expectation::new(universe).prob_parts(&self.context_event))
    }

    /// `P(G)` clamped to `[0, 1]`: what [`capra_events::Evaluator::prob`]
    /// returns for the context event, read as [`RuleBinding::context_parts`].
    pub(crate) fn context_prob(&self, universe: &Universe) -> f64 {
        self.context_parts(universe).0.clamp(0.0, 1.0)
    }

    /// The stored parts, if some caller has read them.
    #[cfg(test)]
    pub(crate) fn cached_context_parts(&self) -> Option<(f64, f64)> {
        self.context_parts.get().copied()
    }

    /// The event under which `doc` matches the preference.
    pub fn preference_event(&self, doc: IndividualId) -> EventExpr {
        self.preference_events
            .get(&doc)
            .cloned()
            .unwrap_or(EventExpr::False)
    }

    /// A rule whose context event simplifies to `False` can never apply and
    /// contributes a constant factor 1 — the pruning opportunity the paper's
    /// Discussion section identifies.
    pub fn is_inapplicable(&self) -> bool {
        self.context_event.is_false()
    }
}

/// Binds every rule in the environment. Engines share this step; they differ
/// in how they evaluate the bound formula.
///
/// One reasoner (and hence one derived-view cache) serves the whole rule
/// set: rules whose context or preference concepts share sub-structure —
/// the common case, e.g. every preference refining `TvProgram` — reuse each
/// other's derivations instead of re-walking the ABox per rule.
pub fn bind_rules(env: &ScoringEnv<'_>) -> Vec<RuleBinding> {
    let reasoner = env.kb.reasoner();
    env.rules
        .rules()
        .iter()
        .map(|r| RuleBinding::bind_with(&reasoner, env.user, r))
        .collect()
}

/// [`bind_rules`] with each binding behind an [`Arc`] — the currency of the
/// bound scoring entry points ([`crate::ScoringEngine::score_all_bound`])
/// and of [`crate::ScoringSession`]'s cache, which hands the same `Arc`s out
/// across calls instead of re-deriving them.
pub fn bind_rules_shared(env: &ScoringEnv<'_>) -> Vec<Arc<RuleBinding>> {
    bind_rules(env).into_iter().map(Arc::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PreferenceRule, Score};

    fn env_fixture() -> (Kb, RuleRepository, IndividualId) {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        let oprah = kb.individual("Oprah");
        let hi = kb.individual("HUMAN-INTEREST");
        kb.assert_concept(oprah, "TvProgram");
        kb.assert_role_prob(oprah, "hasGenre", hi, 0.85).unwrap();
        let mut rules = RuleRepository::new();
        let ctx = kb.parse("Weekend").unwrap();
        let pref = kb
            .parse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "R1",
                ctx,
                pref,
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        (kb, rules, user)
    }

    #[test]
    fn binding_evaluates_context_and_preferences() {
        let (kb, rules, user) = env_fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let bindings = bind_rules(&env);
        assert_eq!(bindings.len(), 1);
        let b = &bindings[0];
        assert!(b.context_event.is_true(), "Weekend asserted with certainty");
        assert!(!b.is_inapplicable());
        let oprah = kb.voc.find_individual("Oprah").unwrap();
        assert!(!b.preference_event(oprah).is_const());
        // Unknown documents have preference event False.
        let ghost = kb.voc.find_individual("missing").unwrap_or(oprah);
        let _ = b.preference_event(ghost);
    }

    #[test]
    fn context_parts_are_prob_parts_bit_for_bit() {
        use capra_events::Evaluator;

        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept_prob(user, "Ctx0", 0.3).unwrap();
        kb.assert_concept_prob(user, "Ctx1", 0.65).unwrap();
        // Re-asserting disjoins a fresh event with the old one.
        kb.assert_concept_prob(user, "Ctx1", 0.15).unwrap();
        let room = kb.universe.add_choice("room", &[0.2, 0.7]).unwrap();
        let kitchen = kb.universe.atom(room, 1).unwrap();
        kb.assert_concept_event(user, "InKitchen", kitchen);
        let preference = kb.parse("TvProgram").unwrap();
        let shape = |g: &EventExpr| match g {
            EventExpr::Or(_) => "Or",
            EventExpr::And(_) => "And",
            EventExpr::Not(_) => "Not",
            EventExpr::Atom(_) => "Atom",
            EventExpr::True | EventExpr::False => "constant",
        };
        let bits = |(p, q): (f64, f64)| (p.to_bits(), q.to_bits());
        for (context, want_shape) in [
            ("Ctx0 OR Ctx1", "Or"),
            ("Ctx0 AND Ctx1", "And"),
            ("NOT Ctx0", "Not"),
            ("NOT (Ctx0 AND Ctx1)", "Not"),
            ("InKitchen", "Atom"),
        ] {
            let rule = PreferenceRule::new(
                "R",
                kb.parse(context).unwrap(),
                preference.clone(),
                Score::new(0.6).unwrap(),
            );
            let b = RuleBinding::bind(&kb, user, &rule);
            let g = &b.context_event;
            assert_eq!(shape(g), want_shape, "{context}");
            assert_eq!(
                b.cached_context_parts(),
                None,
                "{context}: nothing read yet"
            );
            let want = Expectation::new(&kb.universe).prob_parts(g);
            assert_eq!(bits(b.context_parts(&kb.universe)), bits(want), "{context}");
            assert_eq!(b.cached_context_parts().map(bits), Some(bits(want)));
            let prob = Evaluator::new(&kb.universe).prob(g);
            assert_eq!(b.context_prob(&kb.universe).to_bits(), prob.to_bits());
        }
    }

    #[test]
    fn inapplicable_rule_detected() {
        let (kb, _, user) = env_fixture();
        let mut kb = kb;
        let ctx = kb.parse("Holiday").unwrap(); // never asserted
        let pref = kb.parse("TvProgram").unwrap();
        let rule = PreferenceRule::new("R9", ctx, pref, Score::new(0.5).unwrap());
        let b = RuleBinding::bind(&kb, user, &rule);
        assert!(b.is_inapplicable());
    }
}
