use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::{EventError, EventExpr, Result, PROB_EPSILON};

/// Identifier of a discrete random variable inside a [`Universe`].
///
/// `VarId`s are only meaningful relative to the universe that created them;
/// mixing ids across universes is caught (fallibly) by bounds checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Raw index of this variable, usable as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct VarInfo {
    /// The variable's name: the same allocation as its `by_name` key.
    name: Arc<str>,
    /// Probability of each declared alternative; mutually exclusive.
    alt_probs: Vec<f64>,
    /// Probability that none of the declared alternatives happens.
    residual: f64,
}

/// A registry of independent discrete random variables ("basic events").
///
/// The universe is the sample space over which [`EventExpr`]s are
/// interpreted. Two kinds of variables exist:
///
/// * **boolean** variables ([`Universe::add_bool`]) with one alternative
///   ("the event happens") — e.g. *the EPG labels this program
///   human-interest*;
/// * **choice** variables ([`Universe::add_choice`]) with several mutually
///   exclusive alternatives — e.g. *the user is in exactly one of five
///   rooms*. This is how the paper's requirement that correlations such as
///   "a person can only be at a single place at one moment" are modelled
///   without approximation.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    vars: Vec<VarInfo>,
    by_name: HashMap<Arc<str>, VarId>,
    /// Monotonic version counter, bumped on every successful mutation.
    /// Variables are append-only and their probabilities immutable, so two
    /// universes derived from the same value with equal epochs hold exactly
    /// the same declarations.
    epoch: u64,
}

impl Universe {
    /// Creates an empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True if no variables have been declared.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Monotonic mutation counter: bumped on every successful variable
    /// declaration. A cheap staleness check for caches layered on top —
    /// equal epochs on the same universe value mean nothing was added in
    /// between (declared probabilities are immutable, so no other change is
    /// possible).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn validate_prob(p: f64, what: &str) -> Result<()> {
        if !(p.is_finite() && (-PROB_EPSILON..=1.0 + PROB_EPSILON).contains(&p)) {
            return Err(EventError::BadProbability {
                value: p,
                what: what.to_string(),
            });
        }
        Ok(())
    }

    fn register(&mut self, name: &str, alt_probs: Vec<f64>) -> Result<VarId> {
        if self.by_name.contains_key(name) {
            return Err(EventError::DuplicateVariable(name.to_string()));
        }
        let sum: f64 = alt_probs.iter().sum();
        if sum > 1.0 + PROB_EPSILON {
            return Err(EventError::ProbabilitiesExceedOne {
                var: name.to_string(),
                sum,
            });
        }
        let name: Arc<str> = Arc::from(name);
        let id = Self::push(
            &mut self.vars,
            &mut self.epoch,
            Arc::clone(&name),
            alt_probs,
        );
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Appends a variable to `vars` and moves `epoch` on; the caller has
    /// checked that the name is free and enters it in `by_name`, and that
    /// the alternatives sum to at most one.
    fn push(
        vars: &mut Vec<VarInfo>,
        epoch: &mut u64,
        name: Arc<str>,
        alt_probs: Vec<f64>,
    ) -> VarId {
        let sum: f64 = alt_probs.iter().sum();
        let id = VarId(u32::try_from(vars.len()).expect("too many variables"));
        vars.push(VarInfo {
            name,
            alt_probs,
            residual: (1.0 - sum).max(0.0),
        });
        *epoch += 1;
        id
    }

    /// Declares a boolean variable that is true with probability `p`.
    ///
    /// The returned id has a single alternative (index 0) representing "the
    /// event happens"; use [`Universe::atom`] or [`Universe::bool_event`] to
    /// obtain the corresponding expression.
    pub fn add_bool(&mut self, name: &str, p: f64) -> Result<VarId> {
        Self::validate_prob(p, name)?;
        self.register(name, vec![p.clamp(0.0, 1.0)])
    }

    /// Declares a boolean variable named `name`, true with probability `p`,
    /// unless a variable of that name exists: returns the variable of that
    /// name, and whether it was declared now. The name index is probed
    /// once, and `name` becomes its key, shared with the variable. A taken
    /// name declares nothing and checks nothing, not even `p`.
    pub fn declare_bool(&mut self, name: String, p: f64) -> Result<(VarId, bool)> {
        let slot = match self.by_name.entry(Arc::from(name)) {
            Entry::Occupied(taken) => return Ok((*taken.get(), false)),
            Entry::Vacant(slot) => slot,
        };
        Self::validate_prob(p, slot.key())?;
        let name = Arc::clone(slot.key());
        let id = Self::push(
            &mut self.vars,
            &mut self.epoch,
            name,
            vec![p.clamp(0.0, 1.0)],
        );
        slot.insert(id);
        Ok((id, true))
    }

    /// Declares a choice variable with mutually exclusive alternatives.
    ///
    /// `probs[i]` is the probability of alternative `i`; the probabilities
    /// must sum to at most one. Any missing mass goes to an implicit
    /// *residual* outcome in which none of the alternatives holds.
    pub fn add_choice(&mut self, name: &str, probs: &[f64]) -> Result<VarId> {
        if probs.is_empty() {
            return Err(EventError::EmptyChoice(name.to_string()));
        }
        for (i, &p) in probs.iter().enumerate() {
            Self::validate_prob(p, &format!("{name}[{i}]"))?;
        }
        self.register(name, probs.iter().map(|p| p.clamp(0.0, 1.0)).collect())
    }

    /// Looks a variable up by name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// Name of a variable.
    pub fn name(&self, var: VarId) -> Result<&str> {
        self.info(var).map(|v| &*v.name)
    }

    fn info(&self, var: VarId) -> Result<&VarInfo> {
        self.vars
            .get(var.index())
            .ok_or(EventError::UnknownVariable(var.0))
    }

    /// Number of *declared* alternatives of `var` (excluding the residual).
    pub fn num_alts(&self, var: VarId) -> Result<usize> {
        self.info(var).map(|v| v.alt_probs.len())
    }

    /// Number of outcomes to enumerate for `var`: the declared alternatives
    /// plus the residual outcome when it has nonzero probability.
    pub fn num_outcomes(&self, var: VarId) -> Result<usize> {
        let info = self.info(var)?;
        Ok(info.alt_probs.len() + usize::from(info.residual > PROB_EPSILON))
    }

    /// Probability of outcome `o` of `var` (outcome indices as in
    /// [`Universe::num_outcomes`]: declared alternatives first, residual
    /// last).
    pub fn outcome_prob(&self, var: VarId, o: usize) -> Result<f64> {
        let info = self.info(var)?;
        if o < info.alt_probs.len() {
            Ok(info.alt_probs[o])
        } else if o == info.alt_probs.len() {
            Ok(info.residual)
        } else {
            Err(EventError::AltOutOfRange {
                var: info.name.to_string(),
                alt: o as u16,
                num_alts: info.alt_probs.len(),
            })
        }
    }

    /// Probability of the atom `var = alt`.
    pub fn alt_prob(&self, var: VarId, alt: u16) -> Result<f64> {
        let info = self.info(var)?;
        info.alt_probs
            .get(alt as usize)
            .copied()
            .ok_or_else(|| EventError::AltOutOfRange {
                var: info.name.to_string(),
                alt,
                num_alts: info.alt_probs.len(),
            })
    }

    /// Builds the atomic event expression `var = alt`, bounds-checked.
    pub fn atom(&self, var: VarId, alt: u16) -> Result<EventExpr> {
        // Validate the reference before constructing.
        self.alt_prob(var, alt)?;
        Ok(EventExpr::atom(var, alt))
    }

    /// Builds the event "boolean variable `var` is true" (alternative 0).
    pub fn bool_event(&self, var: VarId) -> Result<EventExpr> {
        self.atom(var, 0)
    }

    /// Iterates over all variable ids in declaration order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(|i| VarId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_variable_roundtrip() {
        let mut u = Universe::new();
        let v = u.add_bool("rain", 0.3).unwrap();
        assert_eq!(u.var("rain"), Some(v));
        assert_eq!(u.name(v).unwrap(), "rain");
        assert_eq!(u.num_alts(v).unwrap(), 1);
        assert_eq!(u.num_outcomes(v).unwrap(), 2);
        assert!((u.outcome_prob(v, 0).unwrap() - 0.3).abs() < 1e-12);
        assert!((u.outcome_prob(v, 1).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn certain_bool_has_single_outcome() {
        let mut u = Universe::new();
        let v = u.add_bool("sure", 1.0).unwrap();
        assert_eq!(u.num_outcomes(v).unwrap(), 1);
    }

    #[test]
    fn choice_variable_with_residual() {
        let mut u = Universe::new();
        let v = u.add_choice("room", &[0.5, 0.3]).unwrap();
        assert_eq!(u.num_alts(v).unwrap(), 2);
        assert_eq!(u.num_outcomes(v).unwrap(), 3);
        assert!((u.outcome_prob(v, 2).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn choice_variable_exact_partition() {
        let mut u = Universe::new();
        let v = u.add_choice("coin", &[0.5, 0.5]).unwrap();
        assert_eq!(u.num_outcomes(v).unwrap(), 2);
    }

    #[test]
    fn rejects_bad_probabilities() {
        let mut u = Universe::new();
        assert!(matches!(
            u.add_bool("x", 1.5),
            Err(EventError::BadProbability { .. })
        ));
        assert!(matches!(
            u.add_bool("x", -0.1),
            Err(EventError::BadProbability { .. })
        ));
        assert!(matches!(
            u.add_bool("x", f64::NAN),
            Err(EventError::BadProbability { .. })
        ));
        assert!(matches!(
            u.add_choice("y", &[0.7, 0.7]),
            Err(EventError::ProbabilitiesExceedOne { .. })
        ));
        assert!(matches!(
            u.add_choice("z", &[]),
            Err(EventError::EmptyChoice(_))
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut u = Universe::new();
        u.add_bool("x", 0.5).unwrap();
        assert!(matches!(
            u.add_bool("x", 0.1),
            Err(EventError::DuplicateVariable(_))
        ));
    }

    #[test]
    fn declare_bool_reports_a_taken_name() {
        let mut u = Universe::new();
        let x = u.add_bool("x", 0.5).unwrap();
        assert_eq!(u.declare_bool("x".into(), 0.1).unwrap(), (x, false));
        // A taken name checks nothing; a free one is checked, and an error
        // declares nothing.
        assert_eq!(u.declare_bool("x".into(), 7.0).unwrap(), (x, false));
        assert!(u.declare_bool("y".into(), 7.0).is_err());
        assert_eq!((u.len(), u.var("y")), (1, None));
        let (y, declared) = u.declare_bool("y".into(), 0.25).unwrap();
        assert!(declared && u.var("y") == Some(y));
        assert_eq!((u.name(y).unwrap(), u.alt_prob(y, 0).unwrap()), ("y", 0.25));
        assert_eq!(u.epoch(), 2);
    }

    #[test]
    fn atom_bounds_checked() {
        let mut u = Universe::new();
        let v = u.add_choice("room", &[0.5, 0.5]).unwrap();
        assert!(u.atom(v, 1).is_ok());
        assert!(matches!(
            u.atom(v, 2),
            Err(EventError::AltOutOfRange { .. })
        ));
        assert!(matches!(
            u.outcome_prob(v, 5),
            Err(EventError::AltOutOfRange { .. })
        ));
    }

    #[test]
    fn epoch_counts_successful_mutations_only() {
        let mut u = Universe::new();
        assert_eq!(u.epoch(), 0);
        u.add_bool("a", 0.5).unwrap();
        assert_eq!(u.epoch(), 1);
        u.add_choice("b", &[0.2, 0.3]).unwrap();
        assert_eq!(u.epoch(), 2);
        // Failed declarations leave the epoch untouched.
        assert!(u.add_bool("a", 0.1).is_err());
        assert!(u.add_bool("c", 1.5).is_err());
        assert_eq!(u.epoch(), 2);
    }

    #[test]
    fn unknown_var_detected() {
        let u = Universe::new();
        assert!(matches!(
            u.name(VarId(3)),
            Err(EventError::UnknownVariable(3))
        ));
    }
}
