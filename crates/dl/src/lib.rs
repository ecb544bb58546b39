//! # capra-dl — the Description Logic layer
//!
//! The paper (van Bunningen et al., ICDE 2007) represents both context
//! features and document features as **Description Logic concept
//! expressions** — e.g. the preference of rule R1 is
//! `TvProgram ⊓ ∃hasGenre.{HUMAN-INTEREST}` — and maps concepts and roles to
//! database tables carrying event expressions (its refs \[4\] and \[16\]). This
//! crate provides that layer:
//!
//! * [`Vocabulary`] — interned concept / role / individual names;
//! * [`Concept`] — the concept language `⊤ | ⊥ | A | {a,…} | ¬C | C ⊓ D |
//!   C ⊔ D | ∃R.C | ∀R.C` with simplifying constructors;
//! * [`parse_concept`] — a small text syntax
//!   (`TvProgram AND EXISTS hasGenre.{HumanInterest}`);
//! * [`TBox`] — acyclic concept definitions with unfolding and a sound
//!   (incomplete) structural subsumption check;
//! * [`ABox`] — concept and role assertions annotated with
//!   [`capra_events::EventExpr`] lineage, exactly like the paper's tables
//!   `(ID, event-expression)` and `(SOURCE, DESTINATION, event-expression)`;
//! * [`Reasoner`] — closed-world instance retrieval that propagates event
//!   expressions, so the *probability of membership* of an individual in a
//!   concept can be computed exactly by `capra-events`.
//!
//! ## Example
//!
//! ```
//! use capra_dl::{Vocabulary, ABox, Reasoner, parse_concept};
//! use capra_events::{Universe, EventExpr, Evaluator};
//!
//! let mut voc = Vocabulary::new();
//! let mut universe = Universe::new();
//! let mut abox = ABox::new();
//!
//! let program = voc.concept("TvProgram");
//! let has_genre = voc.role("hasGenre");
//! let oprah = voc.individual("Oprah");
//! let human_interest = voc.individual("HumanInterest");
//!
//! abox.assert_concept(oprah, program, EventExpr::True);
//! // The EPG tags Oprah as human interest with probability 0.85.
//! let tag = universe.add_bool("tag-oprah-hi", 0.85).unwrap();
//! abox.assert_role(oprah, has_genre, human_interest,
//!                  universe.bool_event(tag).unwrap());
//!
//! let query = parse_concept("TvProgram AND EXISTS hasGenre.{HumanInterest}", &mut voc).unwrap();
//! let members = Reasoner::new(&abox).instances(&query);
//! let mut ev = Evaluator::new(&universe);
//! assert!((ev.prob(&members[&oprah]) - 0.85).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abox;
mod concept;
mod error;
mod names;
mod parser;
mod reasoner;
mod tbox;

pub use abox::{ABox, RoleEdge, Table};
pub use concept::{Concept, Footprint};
pub use error::DlError;
pub use names::{ConceptName, IndividualId, RoleName, Vocabulary};
pub use parser::parse_concept;
pub use reasoner::{Reasoner, ViewCache};
pub use tbox::TBox;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, DlError>;
