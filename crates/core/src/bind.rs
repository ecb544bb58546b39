use std::collections::BTreeMap;
use std::sync::Arc;

use capra_dl::{IndividualId, Reasoner};
use capra_events::EventExpr;

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
#[derive(Debug, Clone)]
pub struct RuleBinding {
    /// The source rule's name.
    pub name: String,
    /// Event under which the rule's context applies right now.
    pub context_event: EventExpr,
    /// Event per document under which the document matches the preference.
    /// Documents absent from the map match with event `False`. Shared with
    /// the reasoner's sub-concept cache — rules with the same preference
    /// concept share one map, and bindings handed out by a
    /// [`crate::BindingCache`] share it across users too (the view does
    /// not depend on who asks).
    pub preference_events: Arc<BTreeMap<IndividualId, EventExpr>>,
    /// The rule's σ.
    pub sigma: f64,
}

impl RuleBinding {
    /// Binds one rule against the KB (constructs a throwaway reasoner; use
    /// [`RuleBinding::bind_with`] or [`bind_rules`] to share one reasoner —
    /// and its derived-view cache — across rules).
    pub fn bind(kb: &Kb, user: IndividualId, rule: &PreferenceRule) -> Self {
        Self::bind_with(&kb.reasoner(), user, rule)
    }

    /// Binds one rule using an existing reasoner, so sub-concepts shared
    /// between this rule and previously bound ones are derived once.
    pub fn bind_with(reasoner: &Reasoner<'_>, user: IndividualId, rule: &PreferenceRule) -> Self {
        Self {
            name: rule.name.clone(),
            context_event: reasoner.membership(user, &rule.context),
            preference_events: reasoner.instances_shared(&rule.preference),
            sigma: rule.sigma.get(),
        }
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
