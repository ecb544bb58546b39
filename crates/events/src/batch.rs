//! Batch evaluation: a request's documents as **lanes** of one sweep,
//! with the work lanes have in common done once.
//!
//! The scoring engines in `capra-core` score a batch of documents per
//! call. [`BatchExpectation::compute_grouped`] serves the documents of
//! such a batch that share work: it computes whole factor products under
//! a caller-chosen signature, each distinct signature once. The lineage
//! engine hands it only the documents it cannot score in closed form —
//! those whose rule factors share a variable — so that documents with the
//! same per-rule events share one exact evaluation. The result is
//! bit-identical to evaluating lane by lane through the wrapped
//! [`Expectation`], because the underlying memo values are
//! order-independent pure functions of the hash-consed keys.
//!
//! [`BatchStats`] counts sweeps, lanes and the lanes that needed an
//! evaluation of their own, so the serving layer can report how much of a
//! batch was shared or closed-form work.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

use crate::expect::{Expectation, Factor};

/// Counters for the batch-evaluation path.
///
/// One **sweep** is one call of an optimised engine (lineage or
/// factorized) over its batch — a single-document call is a sweep of one
/// lane. Each sweep has one **lane** per document slot. A **fallback** is a
/// lane that needed an evaluation of its own: a document the lineage
/// engine's lane test rejected, whose factor product went through the
/// exact [`Expectation::compute`] (rejected documents with the same
/// per-rule events share one evaluation and count once). The factorized
/// engine scores every lane in closed form and counts none. Zero fallbacks
/// means every lane was a broadcast or a closed form; `fallbacks == lanes`
/// means every lane paid for itself.
///
/// Two-phase top-k keeps these meanings: each engine pass is a sweep and
/// each slot in it a lane. The closed-form pass over the candidate list is
/// one sweep with no fallback; a document that pass deferred and the
/// bounded scan later evaluates is a lane a second time, in the scan's
/// sweep, and one fallback there. A lineage top-k request with nothing
/// deferred is therefore exactly `sweeps = 1`, `lanes = candidates`,
/// `fallbacks = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Sweeps run (one per engine call).
    pub sweeps: u64,
    /// Total lanes across all sweeps (document slots).
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
    /// closed-form lanes and broadcasts of a shared evaluation (`0.0` when
    /// no lanes have run).
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

/// A batch wrapper over an [`Expectation`]: computes a column of
/// factor-product expectations with each distinct *signature* built and
/// computed once, then broadcast.
///
/// Lanes here are whole factor products, so the dedup key is a
/// caller-chosen signature (for the lineage engine: the
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
    use crate::expr::EventExpr;
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
