//! # capra-events — probabilistic event expressions
//!
//! This crate is the uncertainty substrate of CAPRA, the reproduction of
//! *"Ranking Query Results using Context-Aware Preferences"* (van Bunningen
//! et al., ICDE 2007). The paper models uncertain context and document
//! features with **event expressions** in the style of Fuhr & Rölleke's
//! probabilistic relational algebra (its refs \[9\] and \[17\]): every uncertain
//! fact carries a boolean expression over *basic events*, and the probability
//! of a derived fact is the probability of its expression. Crucially, the
//! paper demands that correlations (e.g. *a person can only be at a single
//! place at one moment*) be captured **without approximation** — so this
//! crate implements exact inference, not independence-assuming shortcuts.
//!
//! ## Model
//!
//! * A [`Universe`] registers independent **discrete random variables**.
//!   Each variable has a set of mutually exclusive *alternatives* with given
//!   probabilities (plus an implicit residual outcome when they sum to less
//!   than one). Variables are independent of each other; correlation between
//!   *facts* arises from facts sharing variables.
//! * An [`EventExpr`] is a boolean combination (`and` / `or` / `not`) of
//!   atoms `variable = alternative`. Composite nodes are **hash-consed** in
//!   a process-global interner: structurally equal expressions are
//!   pointer-equal, carry a stable node id ([`EventExpr::node_id`]) and
//!   precompute their structural hash, size and variable support — which is
//!   what makes the evaluator's memoisation O(1) per lookup.
//! * [`Evaluator`] computes exact probabilities by Shannon expansion over the
//!   shared variables, with memoisation and factorisation over independent
//!   components.
//! * [`Factor`] / [`expectation`] generalise this to expectations of products
//!   of piecewise-constant random variables — the exact computation needed by
//!   the context-aware scoring formula of the paper's Section 3.3 when
//!   features are correlated.
//! * [`worlds`] provides brute-force possible-world enumeration, used as the
//!   testing oracle and by the naive scoring engines.
//!
//! ## Example
//!
//! ```
//! use capra_events::{Universe, EventExpr, Evaluator};
//!
//! let mut u = Universe::new();
//! // A person is in exactly one of three rooms.
//! let room = u.add_choice("room", &[0.5, 0.3, 0.2]).unwrap();
//! let kitchen = u.atom(room, 0).unwrap();
//! let lounge = u.atom(room, 1).unwrap();
//!
//! let mut ev = Evaluator::new(&u);
//! // Mutually exclusive: never in the kitchen and the lounge at once.
//! assert_eq!(ev.prob(&EventExpr::and([kitchen.clone(), lounge.clone()])), 0.0);
//! assert!((ev.prob(&EventExpr::or([kitchen, lounge])) - 0.8).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
mod eval;
mod expect;
mod expr;
pub mod hashers;
mod parse;
mod tier;
mod universe;
pub mod worlds;

pub use batch::BatchStats;
pub use error::EventError;
pub use eval::{EvalStats, Evaluator};
pub use expect::{brute_force_expectation, expectation, Expectation, Factor};
pub use expr::{interner_stats, Atom, EventExpr, ExprKey, InternerStats, NaryNode, NotNode};
pub use parse::parse_event;
pub use tier::CacheFootprint;
pub(crate) use tier::EvalCache;
pub use universe::{Universe, VarId};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, EventError>;

/// Tolerance used when validating probabilities supplied by callers.
pub const PROB_EPSILON: f64 = 1e-9;

/// Clamps a computed probability into `[0, 1]`, tolerating tiny numerical
/// drift (up to [`PROB_EPSILON`]) introduced by summing many floating-point
/// terms. Values outside the tolerated band are a logic error and panic in
/// debug builds.
pub(crate) fn clamp_prob(p: f64) -> f64 {
    debug_assert!(
        (-PROB_EPSILON..=1.0 + PROB_EPSILON).contains(&p),
        "probability {p} outside tolerated range"
    );
    p.clamp(0.0, 1.0)
}
