//! Typed requests: the wire-shaped surface of the serving layer.
//!
//! A front-end talking to a [`crate::serve::RankingService`] speaks in
//! three verbs — *assert a fact*, *rank for one user*, *rank for a group*
//! — with plain-data payloads ([`Fact`], [`Request`]) that an async shard
//! router or RPC layer can queue, route and replay without touching any
//! engine type.

use capra_dl::IndividualId;

use crate::engines::DocScore;
use crate::multiuser::GroupStrategy;

/// A typed fact to assert about an individual — the serving-layer face of
/// the [`crate::Kb`] `assert_*` helpers. Context switches ("Peter's
/// situation is now *Weekend*, probably") and document-feature updates use
/// the same shape; which individual the fact is about decides which.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// `subject : concept`, certain.
    Concept(String),
    /// `subject : concept` under a fresh independent event with this
    /// probability. Re-asserting the same concept does not replace the
    /// earlier assertion: it disjoins a fresh variable onto it (see
    /// [`crate::Kb::assert_concept_prob`]), so the concept's probability
    /// can only rise — `0.9` then `0.1` leaves it at `0.91`.
    ConceptProb(String, f64),
    /// `(subject, object) : role`, certain.
    Role(String, IndividualId),
    /// `(subject, object) : role` under a fresh independent event with
    /// this probability.
    RoleProb(String, IndividualId, f64),
}

/// One queued service request, as consumed by
/// [`crate::serve::RankingService::submit`].
///
/// `submit` answers each through the matching direct call —
/// [`crate::serve::RankingService::rank`], `rank_group` or `assert` — in
/// batch order, so a request sees every `Assert` before it.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Rank `docs` for `user`, returning the top `k` (`k >= docs.len()`
    /// ranks everything).
    Rank {
        /// The requesting tenant.
        user: IndividualId,
        /// Candidate documents.
        docs: Vec<IndividualId>,
        /// How many ranked results to return.
        k: usize,
    },
    /// Rank `docs` for a group of users, combining per-user scores with
    /// `strategy` and returning the top `k` of the combined ranking.
    RankGroup {
        /// The group members.
        users: Vec<IndividualId>,
        /// Candidate documents.
        docs: Vec<IndividualId>,
        /// How many ranked results to return.
        k: usize,
        /// How per-user probabilities combine.
        strategy: GroupStrategy,
    },
    /// Assert `fact` about `subject` (a context switch or feature update).
    Assert {
        /// The individual the fact is about.
        subject: IndividualId,
        /// The fact itself.
        fact: Fact,
    },
}

/// The response to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ranked documents, best first, for a `Rank`/`RankGroup` request.
    Ranked(Vec<DocScore>),
    /// The fact of an `Assert` request was recorded.
    Asserted,
}

impl Response {
    /// The ranked documents, if this is a ranking response.
    pub fn ranked(&self) -> Option<&[DocScore]> {
        match self {
            Response::Ranked(scores) => Some(scores),
            Response::Asserted => None,
        }
    }
}
