//! The cold reference every served response is checked against, and the
//! transcript hash that pins a whole run.

use std::collections::BTreeSet;

use capra_core::persist::workload::Fnv64;
use capra_core::{
    bind_rules_shared, group_scores, rank, CoreError, DocScore, EvalScratch, LineageEngine,
    ScoringEngine, ScoringEnv, SharedSnapshot,
};
use capra_dl::IndividualId;

use crate::bench::Op;

/// Scores `docs` for `user` with nothing cached: fresh bindings, fresh
/// evaluation state.
pub fn cold_scores(
    snap: &SharedSnapshot,
    user: IndividualId,
    docs: &[IndividualId],
) -> Result<Vec<DocScore>, CoreError> {
    let env = ScoringEnv {
        kb: snap.kb(),
        rules: snap.rules(),
        user,
    };
    LineageEngine::new().score_all_bound(
        &env,
        &bind_rules_shared(&env),
        docs,
        &mut EvalScratch::new(),
    )
}

/// What the service must return for `op` on `snap`, derived cold.
pub fn expected(snap: &SharedSnapshot, op: &Op) -> Result<Vec<DocScore>, CoreError> {
    let (mut ranked, k) = match op {
        Op::Rank { user, docs, k } => (rank(cold_scores(snap, *user, docs)?), *k),
        Op::Group {
            users,
            docs,
            k,
            strategy,
        } => {
            let per_user = users
                .iter()
                .map(|&u| cold_scores(snap, u, docs))
                .collect::<Result<Vec<_>, _>>()?;
            (rank(group_scores(&per_user, strategy)?), *k)
        }
        Op::Assert { .. } => return Ok(Vec::new()),
    };
    ranked.truncate(k);
    Ok(ranked)
}

/// Same documents in the same order with the same score bits.
pub fn bit_identical(a: &[DocScore], b: &[DocScore]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

/// FNV-1a over (record tag, document names, score bits, error text) — the
/// fields `serve::replay` hashes, so equal hashes mean equal transcripts.
pub struct Transcript(Fnv64);

impl Transcript {
    pub fn new() -> Self {
        Self(Fnv64::new())
    }

    pub fn ranked(&mut self, tag: &[u8], names: &[Box<str>], scores: &[DocScore]) {
        self.0.update(tag);
        self.0.update_u64(scores.len() as u64);
        for s in scores {
            let name = names[s.doc.index()].as_bytes();
            self.0.update_u64(name.len() as u64);
            self.0.update(name);
            self.0.update_u64(s.score.to_bits());
        }
    }

    pub fn done(&mut self, tag: &[u8]) {
        self.0.update(tag);
    }

    pub fn error(&mut self, tag: &[u8], error: &CoreError) {
        let text = error.to_string();
        self.0.update(tag);
        self.0.update(b"E");
        self.0.update_u64(text.len() as u64);
        self.0.update(text.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Documents every tenant ranks in an end-of-run sweep.
const SWEEP_DOCS: usize = 32;

/// Every tenant that ranks in `ops`, and the first [`SWEEP_DOCS`]
/// documents (by id) any of them ranks — the population the end-of-run
/// checks sweep.
pub fn population(ops: &[Op]) -> (Vec<IndividualId>, Vec<IndividualId>) {
    let mut users = BTreeSet::new();
    let mut docs = BTreeSet::new();
    for op in ops {
        match op {
            Op::Rank { user, docs: d, .. } => {
                users.insert(*user);
                docs.extend(d.iter().copied());
            }
            Op::Group {
                users: u, docs: d, ..
            } => {
                users.extend(u.iter().copied());
                docs.extend(d.iter().copied());
            }
            Op::Assert { .. } => {}
        }
    }
    (
        users.into_iter().collect(),
        docs.into_iter().take(SWEEP_DOCS).collect(),
    )
}

/// Every tenant's full ranking of `docs`, derived cold on `snap`.
pub fn full_ranks(
    snap: &SharedSnapshot,
    users: &[IndividualId],
    docs: &[IndividualId],
) -> Result<Vec<Vec<DocScore>>, CoreError> {
    users
        .iter()
        .map(|&u| Ok(rank(cold_scores(snap, u, docs)?)))
        .collect()
}
