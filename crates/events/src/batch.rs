//! Batch evaluation counters: a request's documents as **lanes** of one
//! sweep.
//!
//! The scoring engines in `capra-core` score a batch of documents per
//! call. The lineage engine scores in closed form every document whose
//! rule factors share no variable, and evaluates the rest exactly —
//! documents with the same per-rule events sharing one evaluation.
//! [`BatchStats`] counts sweeps, lanes and the lanes that needed an
//! evaluation of their own, so the serving layer can report how much of a
//! batch was shared or closed-form work.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Counters for the batch-evaluation path.
///
/// One **sweep** is one call of an optimised engine (lineage or
/// factorized) over its batch — a single-document call is a sweep of one
/// lane. Each sweep has one **lane** per document slot. A **fallback** is a
/// lane that needed an evaluation of its own: a document the lineage
/// engine's lane test rejected, whose factor product went through the
/// exact [`crate::Expectation::compute`] (rejected documents with the same
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

#[cfg(test)]
mod tests {
    use super::*;

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
