//! Batch evaluation: a request's documents as **lanes** of one sweep,
//! with the work lanes have in common done once.
//!
//! The scoring engines in `capra-core` score a batch of documents per
//! call. Two wrappers here serve the two ways such a batch shares work:
//!
//! * [`BatchEvaluator::probs`] takes the per-document expressions of one
//!   rule as a **column** (one lane per document) and evaluates each
//!   *distinct* connective expression exactly once, broadcasting the
//!   result across the lanes that share it. Distinctness is the interner's
//!   pointer identity (plus the precomputed structural hash), so the
//!   dedup table costs one O(1) probe per lane. The factorized engine
//!   sweeps one such column per rule.
//! * [`BatchExpectation::compute_grouped`] does the same for whole
//!   factor products under a caller-chosen signature. The lineage engine
//!   hands it only the documents it cannot score in closed form — those
//!   whose rule factors share a variable — so that documents with the same
//!   per-rule events share one exact evaluation.
//!
//! Either wrapper is bit-identical to evaluating lane by lane through the
//! wrapped [`Evaluator`] / [`Expectation`], because the underlying memo
//! values are order-independent pure functions of the hash-consed keys.
//!
//! [`BatchStats`] counts sweeps, lanes and the lanes that needed an
//! evaluation of their own, so the serving layer can report how much of a
//! batch was shared or closed-form work.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

use crate::eval::Evaluator;
use crate::expect::{Expectation, Factor};
use crate::expr::EventExpr;

/// Counters for the batch-evaluation path.
///
/// One **sweep** is one column evaluated as a batch: one rule across all
/// documents of an engine call (factorized engine), or the whole call
/// (lineage engine) — a single-document call is a sweep of one lane. Each
/// sweep has one **lane** per document slot. A **fallback** is a lane that
/// needed an evaluation of its own: a distinct connective expression
/// ([`BatchEvaluator::probs`]; constants and atoms cost nothing either way
/// and never count), or — for the lineage engine — a document its lane
/// test rejected, whose factor product went through the exact
/// [`Expectation::compute`] (rejected documents with the same per-rule
/// events share one evaluation and count once). Zero fallbacks means every
/// lane was a broadcast or a closed form; `fallbacks == lanes` means every
/// lane paid for itself.
///
/// Two-phase top-k keeps these meanings: each engine pass is a sweep and
/// each slot in it a lane. The closed-form pass over the candidate list is
/// one sweep (per rule, for the factorized engine) with no fallback of the
/// lineage kind; a document that pass deferred and the bounded scan later
/// evaluates is a lane a second time, in the scan's sweep, and one
/// fallback there. A lineage top-k request with nothing deferred is
/// therefore exactly `sweeps = 1`, `lanes = candidates`, `fallbacks = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Sweeps run (one per batched column).
    pub sweeps: u64,
    /// Total lanes across all sweeps (document slots × batched columns).
    pub lanes: u64,
    /// Lanes that needed an evaluation of their own.
    pub fallbacks: u64,
}

impl BatchStats {
    /// Mean lanes per sweep — the effective batch width.
    pub fn lanes_per_sweep(&self) -> f64 {
        if self.sweeps == 0 {
            0.0
        } else {
            self.lanes as f64 / self.sweeps as f64
        }
    }

    /// Fraction of lanes that did *not* need an evaluation of their own —
    /// broadcasts, inline-resolved constants and atoms, and the lineage
    /// engine's closed-form lanes (`0.0` when no lanes have run).
    pub fn broadcast_rate(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            (self.lanes - self.fallbacks) as f64 / self.lanes as f64
        }
    }
}

impl Add for BatchStats {
    type Output = BatchStats;
    fn add(self, other: BatchStats) -> BatchStats {
        BatchStats {
            sweeps: self.sweeps + other.sweeps,
            lanes: self.lanes + other.lanes,
            fallbacks: self.fallbacks + other.fallbacks,
        }
    }
}

impl AddAssign for BatchStats {
    fn add_assign(&mut self, other: BatchStats) {
        *self = *self + other;
    }
}

impl Sum for BatchStats {
    fn sum<I: Iterator<Item = BatchStats>>(iter: I) -> BatchStats {
        iter.fold(BatchStats::default(), Add::add)
    }
}

/// A batch wrapper over an [`Evaluator`]: evaluates a column of
/// expressions (one lane per document) with each distinct expression
/// computed once and broadcast to every lane sharing it.
pub struct BatchEvaluator<'a, 'u> {
    inner: &'a mut Evaluator<'u>,
    stats: BatchStats,
}

impl<'a, 'u> BatchEvaluator<'a, 'u> {
    /// Wraps `inner` for batch use. The wrapped evaluator keeps its memo
    /// state; scalar and batched calls may be freely interleaved.
    pub fn new(inner: &'a mut Evaluator<'u>) -> Self {
        Self {
            inner,
            stats: BatchStats::default(),
        }
    }

    /// Evaluates one column: returns `P(column[i])` for every lane `i`.
    ///
    /// Distinct *connective* expressions (by interned identity) are
    /// evaluated exactly once per sweep; repeated lanes are broadcasts.
    /// Constant and atom lanes are resolved inline — the scalar evaluator
    /// already serves those without a memo probe, so a dedup-table probe
    /// would only add cost. Results are bit-identical to calling
    /// [`Evaluator::prob`] per lane.
    pub fn probs(&mut self, column: &[EventExpr]) -> Vec<f64> {
        self.stats.sweeps += 1;
        self.stats.lanes += column.len() as u64;
        let mut dedup: HashMap<&EventExpr, f64> = HashMap::new();
        let mut out = Vec::with_capacity(column.len());
        for expr in column {
            let p = match expr {
                EventExpr::True => 1.0,
                EventExpr::False => 0.0,
                EventExpr::Atom(_) => self.inner.prob(expr),
                _ => match dedup.entry(expr) {
                    Entry::Occupied(hit) => *hit.get(),
                    Entry::Vacant(slot) => {
                        self.stats.fallbacks += 1;
                        *slot.insert(self.inner.prob(expr))
                    }
                },
            };
            out.push(p);
        }
        out
    }

    /// Counters accumulated by this wrapper since construction.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

/// A batch wrapper over an [`Expectation`]: computes a column of
/// factor-product expectations with each distinct *signature* built and
/// computed once, then broadcast.
///
/// Unlike [`BatchEvaluator`], lanes here are whole factor products, so the
/// dedup key is a caller-chosen signature (for the lineage engine: the
/// per-rule preference events of a document its lane test rejected). The
/// factor list itself is only constructed for signatures that actually
/// need an evaluation — broadcast lanes skip both the build and the
/// compute.
pub struct BatchExpectation<'a, 'u> {
    inner: &'a mut Expectation<'u>,
    stats: BatchStats,
}

impl<'a, 'u> BatchExpectation<'a, 'u> {
    /// Wraps `inner` for batch use. The wrapped computer keeps its memo
    /// state; scalar and batched calls may be freely interleaved.
    pub fn new(inner: &'a mut Expectation<'u>) -> Self {
        Self {
            inner,
            stats: BatchStats::default(),
        }
    }

    /// The wrapped expectation computer, for scalar probes between sweeps.
    pub fn expectation(&mut self) -> &mut Expectation<'u> {
        self.inner
    }

    /// Computes one column of expectations, one lane per entry of `keys`.
    ///
    /// `build` is invoked once per *distinct* key (in first-occurrence
    /// order) to construct that signature's factor list; its expectation is
    /// computed once and broadcast to every lane sharing the key. Results
    /// are bit-identical to building and computing per lane, because the
    /// underlying memo entries are pure functions of the (hash-consed)
    /// factor keys.
    pub fn compute_grouped<K>(
        &mut self,
        keys: &[K],
        mut build: impl FnMut(&K) -> Vec<Factor>,
    ) -> Vec<f64>
    where
        K: Eq + Hash,
    {
        self.stats.sweeps += 1;
        self.stats.lanes += keys.len() as u64;
        let mut dedup: HashMap<&K, f64> = HashMap::with_capacity(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let e = match dedup.entry(key) {
                Entry::Occupied(hit) => *hit.get(),
                Entry::Vacant(slot) => {
                    self.stats.fallbacks += 1;
                    let factors = build(key);
                    *slot.insert(self.inner.compute(&factors))
                }
            };
            out.push(e);
        }
        out
    }

    /// Counters accumulated by this wrapper since construction.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn universe() -> (Universe, Vec<EventExpr>) {
        let mut u = Universe::new();
        let atoms: Vec<EventExpr> = (0..4)
            .map(|i| {
                let v = u.add_bool(&format!("v{i}"), 0.1 + 0.2 * i as f64).unwrap();
                u.atom(v, 0).unwrap()
            })
            .collect();
        (u, atoms)
    }

    #[test]
    fn batch_probs_match_scalar_bit_for_bit() {
        let (u, atoms) = universe();
        let column: Vec<EventExpr> = vec![
            EventExpr::and([atoms[0].clone(), atoms[1].clone()]),
            EventExpr::or([atoms[2].clone(), atoms[3].clone()]),
            EventExpr::and([atoms[0].clone(), atoms[1].clone()]), // repeat lane
            EventExpr::True,
        ];
        let mut scalar = Evaluator::new(&u);
        let want: Vec<f64> = column.iter().map(|e| scalar.prob(e)).collect();

        let mut ev = Evaluator::new(&u);
        let mut batch = BatchEvaluator::new(&mut ev);
        let got = batch.probs(&column);
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let stats = batch.stats();
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.lanes, 4);
        // Two distinct connectives; the repeated `and` broadcasts and the
        // constant `True` lane resolves inline.
        assert_eq!(stats.fallbacks, 2);
    }

    #[test]
    fn grouped_expectation_builds_once_per_distinct_key() {
        let (u, atoms) = universe();
        let keys = [0usize, 1, 0, 1, 0];
        let mut builds = 0usize;
        let mut ex = Expectation::new(&u);
        let mut batch = BatchExpectation::new(&mut ex);
        let got = batch.compute_grouped(&keys, |&k| {
            builds += 1;
            vec![Factor::new([
                (EventExpr::not(atoms[k].clone()), 1.0),
                (atoms[k].clone(), 0.5),
            ])]
        });
        assert_eq!(builds, 2, "one build per distinct key");
        let mut scalar = Expectation::new(&u);
        for (&k, e) in keys.iter().zip(&got) {
            let factors = vec![Factor::new([
                (EventExpr::not(atoms[k].clone()), 1.0),
                (atoms[k].clone(), 0.5),
            ])];
            assert_eq!(scalar.compute(&factors).to_bits(), e.to_bits());
        }
        let stats = batch.stats();
        assert_eq!((stats.sweeps, stats.lanes, stats.fallbacks), (1, 5, 2));
    }

    #[test]
    fn stats_accumulate_and_sum() {
        let a = BatchStats {
            sweeps: 2,
            lanes: 10,
            fallbacks: 3,
        };
        let b = BatchStats {
            sweeps: 1,
            lanes: 6,
            fallbacks: 6,
        };
        let mut acc = a;
        acc += b;
        assert_eq!(acc, a + b);
        assert_eq!([a, b].into_iter().sum::<BatchStats>(), acc);
        assert!((a.lanes_per_sweep() - 5.0).abs() < 1e-12);
        assert!((a.broadcast_rate() - 0.7).abs() < 1e-12);
        assert_eq!(BatchStats::default().lanes_per_sweep(), 0.0);
        assert_eq!(BatchStats::default().broadcast_rate(), 0.0);
    }
}
