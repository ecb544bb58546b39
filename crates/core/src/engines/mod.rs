//! Scoring engines: four evaluators of the paper's Section 3.3 formula.
//!
//! All engines compute (or approximate under documented assumptions) the
//! probability that each document is the *ideal document* for the situated
//! user:
//!
//! ```text
//! P(D=d | U=usit) = E[ Π_r  term_r ]
//! term_r = 1        if the rule's context does not apply
//!        = σ_r      if the context applies and d matches the preference
//!        = 1 − σ_r  if the context applies and d does not match
//! ```
//!
//! | engine | exactness | cost model (n rules, d docs) | top-k first phase ([`ScoringEngine::score_closed_form`]) | corresponds to |
//! |--------|-----------|------------------------------|------------------|----------------|
//! | [`NaiveViewEngine`] | exact under feature independence | `O(4ⁿ · d)` relational queries | defers every document | the paper's Section 5 PostgreSQL implementation |
//! | [`NaiveEnumEngine`] | exact under feature independence | `O(4ⁿ · d)` in-memory | defers every document | the same maths without the view machinery (ablation) |
//! | [`FactorizedEngine`] | exact under feature independence (checked per document by the lane test's variable half; [`CorrelationPolicy`] decides the rest) | [`LineageEngine`]'s column pass, bit for bit on every document it admits; the others get the product of their marginals from the same row and binding — `O(a · d)` in all | scores every document (top-k is one sweep plus the cut) | the early-pruning improvement the Discussion calls for |
//! | [`LineageEngine`] | **always exact** (correlations included) | `O(a · d)` multiply-adds for documents whose rule factors are variable-disjoint (the lane test, per document; `a` ≤ `n` the rules whose context applies), as a column pass: the constant factors down the columns of the `a` rules, the lane test per document, the other factors down the columns again; `P(G_r)` is evaluated once per binding and kept on it, never in the call's memo; the view join, `P(F_rd)` and the document's half of the lane test once per KB state (feature columns); a candidate list met again (the row table's *page*) without a probe, its lane test for the whole list in two compares where its rows' variable span misses the contexts', and its columns read in slot order once gathered; Shannon expansion over the shared variables for the others only, one evaluation per distinct event signature | scores the documents that pass the lane test, defers the entangled ones | Section 3.3 with the event-expression model of ref \[17\] |
//! | any engine via [`crate::ScoringSession`] | unchanged (bit-identical to the engine) | warm calls skip binding entirely; repeat calls are cache lookups | the engine's | the serving path: repeated queries under a changing context |
//!
//! All engines share the binding step ([`crate::bind_rules`]), which runs
//! **one** reasoner across the whole rule set so structurally shared
//! context/preference concepts are derived once. The two optimised engines
//! and the top-k bound also share what a *document* brings to a request —
//! its feature event under every rule, with shape and probability — as
//! **feature rows** (`engines/rows.rs`), held as one column per rule
//! indexed by row position: joined from the bound preference views on a
//! document's first touch, kept on the `Kb` beside its derived views and
//! rule plans for every tenant on that state, and brought up to date view
//! by changed view after a catalogue assert. A row also carries the
//! document's half of the variable-disjointness test (`ContextSupport`),
//! judged when the row is synced. The last candidate list a row table
//! resolved is its page, which the same list takes without a probe and
//! reads down columns gathered in slot order. A ranking sorts packed
//! integer keys ([`rank`]). All probability work
//! sits on hash-consed event expressions: memo tables key by interned node
//! identity (O(1) hash + pointer compare), pivot choices are cached per
//! node, and `restrict` skips subtrees whose cached support excludes the
//! pivot variable. See `capra_events` for the interner.
//!
//! ## Cold calls vs. sessions
//!
//! Every engine exposes two entry points:
//!
//! * [`ScoringEngine::score_all`] — the **cold** path: binds the rules
//!   against the KB and evaluates, paying the full reasoner cost per call;
//! * [`ScoringEngine::score_all_bound`] — the **prepared** path: takes
//!   already-bound rules plus an [`EvalScratch`] that counts the call's
//!   batch work. [`crate::ScoringSession`] drives it with cached bindings
//!   (invalidated by KB epoch, see [`crate::Kb::binding_epoch`]) so warm
//!   repeat calls skip the reasoner entirely; what they reuse of the
//!   probability work sits on the bindings and the feature rows, while the
//!   exact route's memo lives for one call.
//!
//! `score_all` simply delegates through a throwaway binding + scratch, so
//! both paths compute bit-identical scores.
//!
//! ## Top-k
//!
//! A `LIMIT`-shaped request ([`crate::rank_top_k`]) asks the engine first
//! which documents are cheap: [`ScoringEngine::score_closed_form`] returns
//! the exact score of every document the engine scores in `O(n)` and
//! defers the rest. The cheap ones are ranked as they are; only deferred
//! documents are bounded, pruned and — while their bound can still reach
//! the top `k` — handed to `score_all_bound`. The method has a default
//! (defer everything), so an engine or wrapper that predates it stays
//! exact and merely prunes more than it needs to.

mod factorized;
mod lineage;
mod naive_enum;
mod naive_view;
mod rows;

pub use factorized::{CorrelationPolicy, FactorizedEngine};
pub use lineage::LineageEngine;
pub use naive_enum::NaiveEnumEngine;
pub use naive_view::NaiveViewEngine;
pub(crate) use rows::{ColumnView, Kind, RowSlot, Rows};

use std::sync::Arc;

use capra_dl::IndividualId;
use capra_events::{BatchStats, EventExpr, VarId};

use crate::bind::bind_rules_shared;
use crate::{Result, RuleBinding, ScoringEnv};

/// A scored document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocScore {
    /// The document.
    pub doc: IndividualId,
    /// `P(D=doc | U=usit)` — the context-aware relevance.
    pub score: f64,
}

/// The per-caller state threaded through the prepared scoring path
/// ([`ScoringEngine::score_all_bound`]): the batch counters
/// ([`BatchStats`]) of the engine runs made on it. A
/// [`crate::ScoringSession`] owns one, and so does each tenant of a
/// [`crate::serve::RankingService`].
///
/// It holds no evaluation memo. Each engine call evaluates on a
/// [`capra_events::Evaluator`] or [`capra_events::Expectation`] of its
/// own, dropped when the call returns: what a memo could save across
/// calls — a context's `P(G_r)`, a feature cell's `(P(F), P(¬F))` — is
/// kept on the rule's binding and the document's feature row instead.
#[derive(Default)]
pub struct EvalScratch {
    batch: BatchStats,
}

impl EvalScratch {
    /// An empty scratch (equivalent to a cold call).
    pub fn new() -> Self {
        Self::default()
    }

    /// Batch-path counters accumulated by engines run on this scratch.
    pub fn batch_stats(&self) -> BatchStats {
        self.batch
    }

    /// Folds one engine run's batch counters into the scratch.
    pub(crate) fn record_batch(&mut self, stats: BatchStats) {
        self.batch += stats;
    }
}

/// Common interface of the four engines.
///
/// An implementation supplies [`ScoringEngine::name`] and
/// [`ScoringEngine::score_all_bound`]; everything else has a default that
/// is correct for any engine. Three of them are worth overriding:
/// `config_tag` when a setting can change a result, `validate_workload`
/// when the engine rejects individual documents, and `score_closed_form`
/// when some documents are cheap enough that top-k should rank them
/// outright instead of bounding them.
pub trait ScoringEngine {
    /// Engine name (used in benchmark output and explanations).
    fn name(&self) -> &'static str;

    /// Distinguishes configurations of one engine type that may *behave*
    /// differently on the same input (e.g. the factorized engine's
    /// correlation policy decides between an error and a score). Used by
    /// [`crate::ScoringSession`] to key cached results; configurations that
    /// only change performance may share a tag.
    fn config_tag(&self) -> u64 {
        0
    }

    /// Checks whether the engine would accept scoring *every* document of
    /// `docs` under `bindings`; whatever it computes to tell is dropped
    /// (the strict factorized engine runs its scoring pass). Top-k calls
    /// this on the documents [`ScoringEngine::score_closed_form`] deferred,
    /// before pruning any of them: an engine that rejects inputs per
    /// document (e.g. the strict factorized engine on correlated features,
    /// when a wrapper defers on its behalf) must reject here too, so
    /// `rank_top_k` errors exactly when `rank(score_all(docs))` would —
    /// pruning never masks an error.
    fn validate_workload(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
    ) -> Result<()> {
        let _ = (env, bindings, docs);
        Ok(())
    }

    /// Scores every document in `docs`, in order, against already-bound
    /// rules — the prepared entry point driven by [`crate::ScoringSession`],
    /// and by [`crate::rank_top_k`] for the documents it cannot avoid
    /// evaluating. `bindings` must be one binding per rule
    /// (in repository order, as produced by [`crate::bind_rules_shared`] or
    /// the session's cache); `scratch` collects the call's batch counters.
    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>>;

    /// The first phase of top-k: per slot of `docs`, `Some(score)` — the
    /// exact bits [`ScoringEngine::score_all_bound`] returns for that slot —
    /// for every document the engine can score in `O(rules)` without
    /// interning or memoising anything keyed on a (context, document) pair,
    /// and `None` for a document it **defers**. Which of the two a document
    /// gets is decided from the document's events, so every slot of a
    /// repeated candidate gets the same answer.
    ///
    /// [`crate::rank_top_k`] runs this once over the whole candidate list,
    /// ranks what came back `Some` directly, and bounds, prunes and
    /// evaluates (through `score_all_bound`) only what came back `None`. An
    /// error means what it means from `score_all_bound`: the engine rejects
    /// a document it was asked to score here.
    ///
    /// The default defers everything, which is always exact: an engine (or
    /// a wrapper around one) that implements only `score_all_bound` has
    /// every candidate bounded and scanned.
    fn score_closed_form(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Option<f64>>> {
        let _ = (env, bindings, scratch);
        Ok(vec![None; docs.len()])
    }

    /// Scores every document in `docs`, in order. Cold path: binds the
    /// rules and delegates to [`ScoringEngine::score_all_bound`] with
    /// throwaway state.
    fn score_all(&self, env: &ScoringEnv<'_>, docs: &[IndividualId]) -> Result<Vec<DocScore>> {
        self.score_all_bound(env, &bind_rules_shared(env), docs, &mut EvalScratch::new())
    }

    /// Scores a single document.
    fn score(&self, env: &ScoringEnv<'_>, doc: IndividualId) -> Result<DocScore> {
        Ok(self
            .score_all(env, &[doc])?
            .pop()
            .expect("score_all returns one score per doc"))
    }
}

/// Boxed engines delegate wholesale, so trait objects slot into every
/// generic entry point (e.g. a [`crate::serve::RankingService`] whose
/// engine is chosen at runtime).
impl<T: ScoringEngine + ?Sized> ScoringEngine for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn config_tag(&self) -> u64 {
        (**self).config_tag()
    }

    fn validate_workload(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
    ) -> Result<()> {
        (**self).validate_workload(env, bindings, docs)
    }

    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<DocScore>> {
        (**self).score_all_bound(env, bindings, docs, scratch)
    }

    fn score_closed_form(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Option<f64>>> {
        (**self).score_closed_form(env, bindings, docs, scratch)
    }

    fn score_all(&self, env: &ScoringEnv<'_>, docs: &[IndividualId]) -> Result<Vec<DocScore>> {
        (**self).score_all(env, docs)
    }

    fn score(&self, env: &ScoringEnv<'_>, doc: IndividualId) -> Result<DocScore> {
        (**self).score(env, doc)
    }
}

/// Sorts scores descending (ties broken by document id for determinism) —
/// the `ORDER BY preferencescore DESC` of the paper's example query.
///
/// A ranking lists each document **once**: a candidate list that repeats a
/// document yields one equal score per repeat (engines score every slot),
/// the repeats sort next to each other, and all but one are dropped here.
/// [`crate::rank_top_k`] ranks in the same order, so it stays the exact
/// prefix of this ranking on any candidate list.
pub fn rank(scores: Vec<DocScore>) -> Vec<DocScore> {
    ranked(&scores)
}

/// [`rank`] of a borrowed list, sorted as packed integer keys
/// ([`rank_keys`], [`sort_keys`]): the order is total and repeats are
/// identical elements, so the unstable sort yields the one possible
/// ranking, a repeated document's slots side by side.
pub(crate) fn ranked(scores: &[DocScore]) -> Vec<DocScore> {
    let mut keys = rank_keys(scores);
    // A repeated document's slots score alike: no tie, no repeat.
    if sort_keys(scores, &mut keys) {
        keys.dedup_by_key(|key| scores[slot_of(*key)].doc);
    }
    take_ranked(scores, &keys)
}

/// A score's bits as an unsigned integer whose order is the score's
/// descending [`f64::total_cmp`] order: `total_cmp`'s own trick — a
/// negative score has its magnitude bits flipped, the sign bit goes last
/// to first — complemented.
fn score_key(score: f64) -> u64 {
    let bits = score.to_bits();
    !(bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63))
}

/// One key per slot of `scores`: the high half of its [`score_key`] above
/// the slot. The low half of the score and the document decide only where
/// two high halves tie, which [`sort_keys`] settles. (A `u128` holding the
/// whole score, the document and the slot needs no such step, but its
/// compares cost more: it ranked a 256-product catalogue measurably
/// slower end to end.)
pub(crate) fn rank_keys(scores: &[DocScore]) -> Vec<u64> {
    scores
        .iter()
        .enumerate()
        .map(|(slot, s)| {
            let slot = u32::try_from(slot).expect("a ranking has fewer than 2³² slots");
            (score_key(s.score) & !u64::from(u32::MAX)) | u64::from(slot)
        })
        .collect()
}

/// The slot a [`rank_keys`] key names.
pub(crate) fn slot_of(key: u64) -> usize {
    key as u32 as usize
}

/// Sorts `keys` into the ranking order — score descending, document id
/// ascending: by integer order, then, if two score halves tie, each run of
/// keys whose score halves tie by the whole score and the document.
/// Returns whether any did.
pub(crate) fn sort_keys(scores: &[DocScore], keys: &mut [u64]) -> bool {
    keys.sort_unstable();
    let tied = keys.windows(2).any(|w| w[0] >> 32 == w[1] >> 32);
    if tied {
        for run in keys.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
            if run.len() > 1 {
                run.sort_unstable_by_key(|key| {
                    let s = &scores[slot_of(*key)];
                    (score_key(s.score), s.doc)
                });
            }
        }
    }
    tied
}

/// The `k` best of `keys` ([`rank_keys`] of `scores`, `0 < k < len`),
/// sorted: the `k` best by integer order are selected first, and any key
/// past them whose score half ties the `k`-th's joins them before they are
/// sorted, since it may rank above the `k`-th.
pub(crate) fn top_keys<'k>(scores: &[DocScore], keys: &'k mut [u64], k: usize) -> &'k [u64] {
    keys.select_nth_unstable(k - 1);
    let half = keys[k - 1] >> 32;
    let mut end = k;
    for at in k..keys.len() {
        if keys[at] >> 32 == half {
            keys.swap(at, end);
            end += 1;
        }
    }
    sort_keys(scores, &mut keys[..end]);
    &keys[..k]
}

/// The slots `keys` name, in their order.
pub(crate) fn take_ranked(scores: &[DocScore], keys: &[u64]) -> Vec<DocScore> {
    keys.iter()
        .map(|&key| scores[slot_of(key)].clone())
        .collect()
}

/// The ranking order — score descending, document id ascending — as a
/// comparator: what [`sort_keys`] sorts by, and the reference the tests
/// hold it to.
#[cfg(test)]
pub(crate) fn by_rank(a: &DocScore, b: &DocScore) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc))
}

/// The variables a request's rule contexts stand on: the document-invariant
/// half of the **variable-disjointness test**. A document's rule factors
/// are independent — their expectation is the product of the per-rule
/// expectations — when no two contexts share a variable and none of the
/// document's feature events touches a context or another feature. The
/// lineage engine's lane test, the strict factorized engine's refusal and
/// the top-k bound's choice of regime are all this test, on the same
/// supports.
pub(crate) struct ContextSupport {
    /// The least variable two contexts share, if any. When there is one,
    /// every document's factors are entangled through it.
    shared: Option<VarId>,
    /// Union of the contexts' supports, sorted.
    vars: Vec<VarId>,
    /// The span of `vars`.
    span: Span,
}

impl ContextSupport {
    pub(crate) fn new<'a>(contexts: impl IntoIterator<Item = &'a EventExpr>) -> Self {
        let mut vars: Vec<VarId> = Vec::new();
        for g in contexts {
            vars.extend_from_slice(g.support_slice());
        }
        vars.sort_unstable();
        let shared = repeated(&vars);
        vars.dedup();
        let span = Span::of(&vars);
        Self { shared, vars, span }
    }

    /// The test for every feature row whose variables lie inside `span`:
    /// no two contexts share a variable and the spans do not overlap — two
    /// compares. A pass settles [`ContextSupport::clears`] for each of
    /// those rows; a failure settles nothing.
    #[inline]
    pub(crate) fn misses(&self, span: Span) -> bool {
        self.shared.is_none() && span.misses(self.span)
    }

    /// The test for a whole feature row at once, from its verdict
    /// (`rows::Rows::clears`): the row's cells share no variable, and
    /// their union, `row_vars`, none with the contexts — the spans first,
    /// and one merge of the two sorted lists where they overlap (`row_vars`
    /// gives `None` where two cells share a variable). A pass settles
    /// [`ContextSupport::shared_with`] for any of the row's cells; a
    /// failure settles nothing, since the shared variable may sit under a
    /// rule the request does not read.
    #[inline]
    pub(crate) fn clears<'r>(
        &self,
        row_span: Span,
        row_vars: impl FnOnce() -> Option<&'r [VarId]>,
    ) -> bool {
        if self.misses(row_span) {
            return true;
        }
        let Some(row_vars) = row_vars().filter(|_| self.shared.is_none()) else {
            return false;
        };
        let (mut i, mut j) = (0, 0);
        while let (Some(a), Some(b)) = (self.vars.get(i), row_vars.get(j)) {
            match a.cmp(b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// The test for one document: `feature_vars` holds the supports of its
    /// feature events, one after the other, and is sorted in place. Passes
    /// with `None`; fails naming a shared variable — the least one two
    /// contexts share, else the first feature variable a context has, else
    /// the least one two features share.
    pub(crate) fn shared_with(&self, feature_vars: &mut [VarId]) -> Option<VarId> {
        if self.shared.is_some() {
            return self.shared;
        }
        let on_context = feature_vars
            .iter()
            .find(|v| self.vars.binary_search(v).is_ok());
        if let Some(&v) = on_context {
            return Some(v);
        }
        feature_vars.sort_unstable();
        repeated(feature_vars)
    }
}

/// The least and the greatest variable of a sorted support, as raw
/// indices: two supports whose spans do not overlap share no variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    lo: u32,
    hi: u32,
}

impl Span {
    /// No variable: misses every span but [`Span::ALL`].
    pub(crate) const EMPTY: Span = Span {
        lo: u32::MAX,
        hi: 0,
    };

    /// Overlaps every span, so that no range test passes it: a row whose
    /// cells share a variable has it.
    pub(crate) const ALL: Span = Span {
        lo: 0,
        hi: u32::MAX,
    };

    /// The span of `sorted`.
    pub(crate) fn of(sorted: &[VarId]) -> Self {
        let index = |var: &VarId| u32::try_from(var.index()).expect("a variable index is a u32");
        match (sorted.first(), sorted.last()) {
            (Some(lo), Some(hi)) => Span {
                lo: index(lo),
                hi: index(hi),
            },
            _ => Span::EMPTY,
        }
    }

    /// The least span holding both.
    pub(crate) fn union(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    #[inline]
    fn misses(self, other: Span) -> bool {
        self.hi < other.lo || other.hi < self.lo
    }
}

impl Default for Span {
    fn default() -> Self {
        Span::EMPTY
    }
}

/// The least variable a sorted list holds more than once.
fn repeated(sorted: &[VarId]) -> Option<VarId> {
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_sorts_descending_with_stable_ties() {
        let mut kb = crate::Kb::new();
        let a = kb.individual("a");
        let b = kb.individual("b");
        let c = kb.individual("c");
        let ranked = rank(vec![
            DocScore { doc: a, score: 0.1 },
            DocScore { doc: b, score: 0.9 },
            DocScore { doc: c, score: 0.1 },
        ]);
        assert_eq!(ranked[0].doc, b);
        assert_eq!(ranked[1].doc, a, "tie broken by id");
        assert_eq!(ranked[2].doc, c);
    }

    /// `rank` sorts packed keys; the order is the comparator's, on the
    /// values where a key could go wrong: both zeros, subnormals of either
    /// sign, 1.0, a NaN, equal scores on different ids, and a document
    /// listed more than once.
    #[test]
    fn rank_by_packed_keys_is_the_comparator_sort() {
        let mut kb = crate::Kb::new();
        let docs: Vec<IndividualId> = (0..6).map(|d| kb.individual(&format!("d{d}"))).collect();
        let subnormal = f64::MIN_POSITIVE / 8.0;
        let scores = [
            (5, 0.0),
            (1, -0.0),
            (2, 1.0),
            (0, subnormal),
            (3, -subnormal),
            (4, 0.0),
            (1, -0.0),
            (2, 1.0),
            (5, 0.0),
            (0, subnormal),
        ];
        let mut list: Vec<DocScore> = scores
            .iter()
            .map(|&(d, score)| DocScore {
                doc: docs[d],
                score,
            })
            .collect();
        list.push(DocScore {
            doc: kb.individual("nan"),
            score: f64::NAN,
        });
        let mut want = list.clone();
        want.sort_by(by_rank);
        want.dedup_by_key(|s| s.doc);
        let bits = |scores: &[DocScore]| -> Vec<(IndividualId, u64)> {
            scores.iter().map(|s| (s.doc, s.score.to_bits())).collect()
        };
        let got = rank(list);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.len(), 7, "one entry per document");
        assert_eq!(
            got[1].score, 1.0,
            "a NaN with the sign bit clear is above 1.0"
        );
        assert_eq!(
            (got[4].doc, got[5].doc),
            (docs[5], docs[1]),
            "+0.0 (on `d4` and `d5`) ranks above -0.0"
        );
    }

    /// Distinct scores, and documents listed twice and three times: the
    /// only ties are a repeated document's slots, which `sort_keys` finds
    /// and `rank` drops. Without the repeats nothing ties, and nothing is
    /// dropped.
    #[test]
    fn a_ranking_whose_only_ties_are_repeats_lists_each_document_once() {
        let mut kb = crate::Kb::new();
        let docs: Vec<IndividualId> = (0..5).map(|d| kb.individual(&format!("d{d}"))).collect();
        let score = |d: usize| 0.1 + 0.15 * d as f64;
        let listed = [3, 0, 4, 3, 1, 2, 0, 3];
        let list: Vec<DocScore> = (listed.iter())
            .map(|&d| DocScore {
                doc: docs[d],
                score: score(d),
            })
            .collect();
        let mut want = list.clone();
        want.sort_by(by_rank);
        want.dedup_by_key(|s| s.doc);
        let mut keys = rank_keys(&list);
        assert!(sort_keys(&list, &mut keys), "a repeat ties");
        assert_eq!(rank(list), want);
        assert_eq!(want.len(), 5, "one entry per document");
        let once: Vec<DocScore> = want.iter().rev().cloned().collect();
        let mut keys = rank_keys(&once);
        assert!(!sort_keys(&once, &mut keys), "distinct scores, no tie");
        assert_eq!(rank(once), want);
    }

    /// What a replica with contradicted history or a stale client can
    /// send: an id the KB never interned. No view has it, so its feature
    /// row is empty and it scores as a document with no features — on the
    /// cold path, through a session (rows shared and then carried over a
    /// catalogue change) and in top-k, on every engine.
    #[test]
    fn a_candidate_the_kb_never_interned_scores_as_a_document_without_features() {
        use crate::{PreferenceRule, RuleRepository, Score, ScoringSession};

        let mut kb = crate::Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        kb.assert_concept_prob(user, "Breakfast", 0.7).unwrap();
        let plain = kb.individual("plain");
        let nice = kb.individual("nice");
        kb.assert_concept_prob(nice, "Nice", 0.6).unwrap();
        kb.assert_concept_prob(nice, "News", 0.3).unwrap();
        let ghost = kb.clone().individual("ghost");
        assert!(ghost.index() >= kb.voc.num_individuals());
        let mut rules = RuleRepository::new();
        for (name, context, preference, sigma) in [
            ("R1", "Weekend", "Nice", 0.8),
            ("R2", "Breakfast", "News", 0.35),
        ] {
            rules
                .add(PreferenceRule::new(
                    name,
                    kb.parse(context).unwrap(),
                    kb.parse(preference).unwrap(),
                    Score::new(sigma).unwrap(),
                ))
                .unwrap();
        }
        let docs = [ghost, nice, plain, ghost];
        let engines: [Box<dyn ScoringEngine>; 4] = [
            Box::new(NaiveViewEngine::new()),
            Box::new(NaiveEnumEngine::new()),
            Box::new(FactorizedEngine::new()),
            Box::new(LineageEngine::new()),
        ];
        for engine in &engines {
            let mut session = ScoringSession::new();
            for round in 0..2 {
                let env = ScoringEnv {
                    kb: &kb,
                    rules: &rules,
                    user,
                };
                let cold = engine.score_all(&env, &docs).unwrap();
                let (name, featureless) = (engine.name(), cold[2].score);
                assert_eq!(cold[0].score.to_bits(), featureless.to_bits(), "{name}");
                assert_eq!(cold[3].score.to_bits(), featureless.to_bits(), "{name}");
                assert_ne!(cold[1].score.to_bits(), featureless.to_bits(), "{name}");
                assert_eq!(session.score_all(engine, &env, &docs).unwrap(), cold);
                let top = session.rank_top_k(engine, &env, &docs, 2).unwrap();
                assert_eq!(top, rank(cold)[..2], "{name}, round {round}");
                // A catalogue change: the rows are carried over it.
                kb.assert_concept_prob(nice, "Nice", 0.2).unwrap();
            }
        }
    }
}
