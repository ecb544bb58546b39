//! The batching front-end: a bounded request queue between callers and a
//! shared [`RankingService`], drained by the callers themselves.
//!
//! Any number of producer threads [`ServiceHandle::enqueue`] typed
//! [`Request`]s into a bounded buffer. Whichever caller needs a result
//! while no drain is in progress takes the *drain role*: it runs up to
//! [`QueueConfig::batch`] of the oldest requests through
//! [`RankingService::submit`] on its own thread and delivers each result
//! to its ticket. One wait can therefore answer requests of *different*
//! producers, each through the service's direct call, and a producer that
//! arrives during a drain joins the next one.
//!
//! * **Backpressure.** [`ServiceHandle::enqueue`] on a full queue drains
//!   (or parks while another caller does), so ingestion degrades to the
//!   scoring rate; [`ServiceHandle::try_enqueue`] refuses instead,
//!   counted in [`QueueStats::rejected`].
//! * **Per-request results.** Every accepted request yields a
//!   [`Ticket`] whose own `Result<Response>` a failed neighbour never
//!   poisons. A batch whose `submit` panics answers every ticket it still
//!   owes with an error before the panic reaches its drainer's caller.
//! * **Shutdown.** Dropping (or [`ServiceQueue::shutdown`]ing) the queue
//!   closes intake and drains every accepted request, waited on or not.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::engines::ScoringEngine;
use crate::serve::request::{Request, Response};
use crate::serve::service::{RankingService, ServiceStats};
use crate::{CoreError, Result};

/// Sizing knobs of a [`ServiceQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum requests buffered at once (≥ 1). A full queue makes
    /// [`ServiceHandle::enqueue`] drain before it pushes and refuses
    /// [`ServiceHandle::try_enqueue`].
    pub capacity: usize,
    /// Maximum requests one drain runs through one
    /// [`RankingService::submit`] batch (≥ 1). A draining caller may run
    /// up to `batch − 1` other producers' requests before its own in the
    /// batch that answers it.
    pub batch: usize,
}

impl Default for QueueConfig {
    /// 256 buffered requests, drained up to 32 at a time.
    fn default() -> Self {
        Self {
            capacity: 256,
            batch: 32,
        }
    }
}

/// Counters of the batching front-end, surfaced through
/// [`ServiceQueue::stats`] as [`ServiceStats::queue`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests accepted into the queue.
    pub enqueued: u64,
    /// Requests handed to the service by a drain (≤ `enqueued`; the
    /// difference is the current depth).
    pub drained: u64,
    /// `try_enqueue` refusals while the queue was full — the
    /// backpressure signal.
    pub rejected: u64,
    /// Highest queue depth observed at any enqueue — how close the
    /// buffer came to its capacity.
    pub depth_high_water: u64,
}

impl std::ops::Add for QueueStats {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            enqueued: self.enqueued + rhs.enqueued,
            drained: self.drained + rhs.drained,
            rejected: self.rejected + rhs.rejected,
            // A high-water mark aggregates by max, not sum.
            depth_high_water: self.depth_high_water.max(rhs.depth_high_water),
        }
    }
}

impl std::ops::AddAssign for QueueStats {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for QueueStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), std::ops::Add::add)
    }
}

/// The slot a queued request's result is delivered into. It is written
/// and read only under the queue's state lock, so a caller that finds it
/// empty and parks on [`Shared::progress`] cannot miss the delivery.
type Slot = Arc<Mutex<Option<Result<Response>>>>;

/// A claim on one queued request's result.
///
/// Exactly one `Result<Response>` is delivered into each ticket — the
/// same value the equivalent [`RankingService::submit`] entry would have
/// produced. [`Ticket::wait`] consumes the ticket; to poll instead, use
/// [`Ticket::try_take`].
pub struct Ticket<E> {
    shared: Arc<Shared<E>>,
    slot: Slot,
}

impl<E: ScoringEngine + Sync> Ticket<E> {
    /// Blocks until this request's result is delivered, draining batches
    /// on this thread whenever no other caller is draining. A panic in a
    /// batch this caller drains continues here.
    pub fn wait(self) -> Result<Response> {
        let _state = self
            .shared
            .drain_until(self.shared.lock(), |_| self.filled());
        let result = self.slot.lock().expect("ticket lock poisoned").take();
        result.expect("a filled ticket holds its result")
    }

    /// The result, if it has been delivered (consuming it from the
    /// ticket). When it has not and no drain is in progress, this first
    /// runs at most one batch on this thread; it never parks.
    pub fn try_take(&self) -> Option<Result<Response>> {
        let mut state = self.shared.lock();
        if !self.filled() && !state.draining && !state.items.is_empty() {
            state = self.shared.run_batch(state);
        }
        let result = self.slot.lock().expect("ticket lock poisoned").take();
        drop(state);
        result
    }

    /// Whether the result has been delivered (call under the state lock).
    fn filled(&self) -> bool {
        self.slot.lock().expect("ticket lock poisoned").is_some()
    }
}

/// The queue's mutable state, behind one mutex.
struct QueueState {
    items: VecDeque<(Request, Slot)>,
    /// Set on shutdown: enqueues refuse; what is left still drains.
    closed: bool,
    /// Some caller holds the drain role (see [`Drain`]).
    draining: bool,
    stats: QueueStats,
}

/// Everything the handles and tickets share.
struct Shared<E> {
    service: Arc<RankingService<E>>,
    state: Mutex<QueueState>,
    /// Signalled when a drain ends: its tickets are filled, its requests'
    /// space is free and the drain role is free.
    progress: Condvar,
    capacity: usize,
    batch: usize,
}

impl<E> Shared<E> {
    /// The state lock. Every update under it leaves the state valid, and
    /// [`Drain`] takes it while a panic unwinds: a poisoned lock is used.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<E: ScoringEngine + Sync> Shared<E> {
    /// Returns the state lock once `done` holds, meanwhile running a batch
    /// whenever the drain role is free and requests are waiting, and
    /// parking on [`Shared::progress`] otherwise.
    fn drain_until<'a>(
        &'a self,
        mut state: MutexGuard<'a, QueueState>,
        done: impl Fn(&QueueState) -> bool,
    ) -> MutexGuard<'a, QueueState> {
        while !done(&state) {
            state = if state.draining || state.items.is_empty() {
                self.progress
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner)
            } else {
                self.run_batch(state)
            };
        }
        state
    }

    /// Takes the drain role and up to `batch` of the oldest requests,
    /// runs them through [`RankingService::submit`] with the state lock
    /// released, and re-takes the lock once [`Drain`] has delivered.
    fn run_batch(&self, mut state: MutexGuard<'_, QueueState>) -> MutexGuard<'_, QueueState> {
        let n = state.items.len().min(self.batch);
        let (requests, slots): (Vec<_>, Vec<_>) = state.items.drain(..n).unzip();
        state.stats.drained += n as u64;
        state.draining = true;
        drop(state);
        let mut role = Drain {
            shared: self,
            slots,
            responses: Vec::new(),
        };
        role.responses = self.service.submit(requests);
        drop(role);
        self.lock()
    }
}

/// The drain role while a batch runs outside the state lock. Its `Drop`,
/// the one place the role is freed, takes the state lock (so never drop
/// it with that lock held), delivers the responses — an error to each
/// ticket still owed one if `submit` panicked — and wakes every caller.
struct Drain<'a, E> {
    shared: &'a Shared<E>,
    slots: Vec<Slot>,
    /// `submit`'s responses, in request order; empty while it runs.
    responses: Vec<Result<Response>>,
}

impl<E> Drop for Drain<'_, E> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        let mut responses = std::mem::take(&mut self.responses).into_iter();
        for slot in &self.slots {
            let response = responses.next().unwrap_or_else(|| {
                Err(CoreError::Ranking(
                    "the service queue's batch panicked".into(),
                ))
            });
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(response);
        }
        state.draining = false;
        drop(state);
        self.shared.progress.notify_all();
    }
}

/// A cloneable, thread-safe producer handle onto a [`ServiceQueue`].
///
/// `ServiceHandle: Clone + Send + Sync` — clone one per producer thread;
/// all clones feed the same bounded buffer.
pub struct ServiceHandle<E> {
    shared: Arc<Shared<E>>,
}

impl<E> Clone for ServiceHandle<E> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<E: ScoringEngine + Sync> ServiceHandle<E> {
    /// Enqueues a request and returns the [`Ticket`] its result will be
    /// delivered into. On a full queue this caller first drains a batch
    /// (or parks while another caller does) — the backpressure path.
    /// Errors only if the queue has been shut down.
    pub fn enqueue(&self, request: Request) -> Result<Ticket<E>> {
        let capacity = self.shared.capacity;
        let state = self.shared.drain_until(self.shared.lock(), |state| {
            state.closed || state.items.len() < capacity
        });
        self.push(state, request)
    }

    /// Enqueues without blocking or draining: a full queue returns the
    /// request to the caller as `Err` and counts a
    /// [`QueueStats::rejected`] — the signal an ingestion front-end sheds
    /// load on.
    pub fn try_enqueue(&self, request: Request) -> std::result::Result<Ticket<E>, Request> {
        let mut state = self.shared.lock();
        if state.closed || state.items.len() >= self.shared.capacity {
            if !state.closed {
                state.stats.rejected += 1;
            }
            return Err(request);
        }
        Ok(self
            .push(state, request)
            .expect("queue verified open under the lock"))
    }

    /// Appends under the held lock and stamps the counters.
    fn push(&self, mut state: MutexGuard<'_, QueueState>, request: Request) -> Result<Ticket<E>> {
        if state.closed {
            return Err(CoreError::Ranking(
                "the service queue has been shut down".into(),
            ));
        }
        let slot = Slot::default();
        state.items.push_back((request, Arc::clone(&slot)));
        state.stats.enqueued += 1;
        let depth = state.items.len() as u64;
        state.stats.depth_high_water = state.stats.depth_high_water.max(depth);
        Ok(Ticket {
            shared: Arc::clone(&self.shared),
            slot,
        })
    }

    /// Requests currently buffered (enqueued but not yet drained).
    pub fn depth(&self) -> usize {
        self.shared.lock().items.len()
    }

    /// The service this handle feeds.
    pub fn service(&self) -> &Arc<RankingService<E>> {
        &self.shared.service
    }

    /// Service-wide counters with [`ServiceStats::queue`] filled in from
    /// this queue.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.shared.service.stats();
        stats.queue = self.shared.lock().stats;
        stats
    }
}

/// A batching front-end: a bounded request queue in front of an
/// `Arc`-shared [`RankingService`], drained by its callers.
///
/// Construct with [`ServiceQueue::start`], fan [`ServiceHandle`] clones
/// out to producers, and drop (or [`ServiceQueue::shutdown`]) to stop:
/// intake closes and the backlog drains.
///
/// ```
/// use std::sync::Arc;
/// use capra_core::serve::{QueueConfig, RankingService, Request, ServiceQueue};
/// use capra_core::{Kb, LineageEngine, PreferenceRule, RuleRepository, Score};
///
/// let mut kb = Kb::new();
/// let user = kb.individual("peter");
/// kb.assert_concept_prob(user, "Weekend", 0.7).unwrap();
/// let doc = kb.individual("doc");
/// kb.assert_concept_prob(doc, "Nice", 0.6).unwrap();
/// let mut rules = RuleRepository::new();
/// rules.add(PreferenceRule::new(
///     "R",
///     kb.parse("Weekend").unwrap(),
///     kb.parse("Nice").unwrap(),
///     Score::new(0.8).unwrap(),
/// )).unwrap();
///
/// let service = Arc::new(RankingService::new(LineageEngine::new(), kb, rules));
/// let queue = ServiceQueue::start(Arc::clone(&service), QueueConfig::default());
/// let handle = queue.handle();
///
/// // Producers on any number of threads enqueue and await their own result.
/// let ticket = handle.enqueue(Request::Rank { user, docs: vec![doc], k: 1 }).unwrap();
/// let ranked = ticket.wait().unwrap().ranked().unwrap().to_vec();
/// assert_eq!(ranked[0].doc, doc);
/// queue.shutdown();
/// ```
pub struct ServiceQueue<E: ScoringEngine + Sync> {
    handle: ServiceHandle<E>,
}

impl<E: ScoringEngine + Sync> ServiceQueue<E> {
    /// An empty queue over `service` with the given sizing. The service
    /// stays directly usable through its own `&self` API alongside the
    /// queue.
    pub fn start(service: Arc<RankingService<E>>, config: QueueConfig) -> Self {
        let shared = Arc::new(Shared {
            service,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                draining: false,
                stats: QueueStats::default(),
            }),
            progress: Condvar::new(),
            capacity: config.capacity.max(1),
            batch: config.batch.max(1),
        });
        Self {
            handle: ServiceHandle { shared },
        }
    }

    /// A producer handle (clone freely — one per producer thread).
    pub fn handle(&self) -> ServiceHandle<E> {
        self.handle.clone()
    }

    /// Service-wide counters with [`ServiceStats::queue`] filled in.
    pub fn stats(&self) -> ServiceStats {
        self.handle.stats()
    }

    /// Closes intake and drains the backlog on this thread (waiting out a
    /// drain another caller is running). Every already-accepted ticket
    /// receives its result before this returns; enqueues after shutdown
    /// fail. (Dropping the queue does the same.)
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<E: ScoringEngine + Sync> Drop for ServiceQueue<E> {
    fn drop(&mut self) {
        let shared = &self.handle.shared;
        let mut state = shared.lock();
        state.closed = true;
        drop(shared.drain_until(state, |state| state.items.is_empty() && !state.draining));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::request::Fact;
    use crate::{Kb, LineageEngine, PreferenceRule, RuleRepository, Score};
    use capra_dl::IndividualId;

    fn fixture() -> (
        Arc<RankingService<LineageEngine>>,
        Vec<IndividualId>,
        Vec<IndividualId>,
    ) {
        let mut kb = Kb::new();
        let users: Vec<_> = (0..3)
            .map(|i| {
                let u = kb.individual(&format!("user{i}"));
                kb.assert_concept_prob(u, "Ctx", 0.3 + 0.2 * i as f64)
                    .unwrap();
                u
            })
            .collect();
        let docs: Vec<_> = (0..8)
            .map(|i| {
                let d = kb.individual(&format!("doc{i}"));
                kb.assert_concept_prob(d, "Nice", 0.1 + 0.1 * i as f64)
                    .unwrap();
                d
            })
            .collect();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R",
                kb.parse("Ctx").unwrap(),
                kb.parse("Nice").unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        let service = Arc::new(RankingService::new(LineageEngine::new(), kb, rules));
        (service, users, docs)
    }

    /// The compile-time contract the front-end promises.
    #[test]
    fn handle_is_clone_send_sync() {
        fn assert_bounds<T: Clone + Send + Sync>() {}
        assert_bounds::<ServiceHandle<LineageEngine>>();
    }

    #[test]
    fn queued_results_match_direct_calls() {
        let (service, users, docs) = fixture();
        let oracle = RankingService::new(
            LineageEngine::new(),
            (*service.kb()).clone_for_publish(),
            (*service.rules()).clone(),
        );
        let queue = ServiceQueue::start(Arc::clone(&service), QueueConfig::default());
        let handle = queue.handle();
        let tickets: Vec<_> = users
            .iter()
            .map(|&user| {
                handle
                    .enqueue(Request::Rank {
                        user,
                        docs: docs.clone(),
                        k: docs.len(),
                    })
                    .unwrap()
            })
            .collect();
        for (&user, ticket) in users.iter().zip(tickets) {
            let got = ticket.wait().unwrap();
            let got = got.ranked().unwrap();
            let want = oracle.rank(user, &docs, docs.len()).unwrap();
            assert_eq!(got.len(), want.len());
            for (a, b) in want.iter().zip(got) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        let stats = queue.stats();
        assert_eq!(stats.queue.enqueued, users.len() as u64);
        assert_eq!(stats.queue.drained, users.len() as u64);
        assert!(stats.queue.depth_high_water >= 1);
        queue.shutdown();
    }

    #[test]
    fn errors_are_delivered_per_request() {
        let (service, users, docs) = fixture();
        let queue = ServiceQueue::start(service, QueueConfig::default());
        let handle = queue.handle();
        let bad = handle
            .enqueue(Request::Assert {
                subject: users[0],
                fact: Fact::ConceptProb("Ctx".into(), 7.0), // invalid probability
            })
            .unwrap();
        let good = handle
            .enqueue(Request::Rank {
                user: users[0],
                docs: docs.clone(),
                k: 3,
            })
            .unwrap();
        assert!(bad.wait().is_err(), "the invalid assert fails its ticket");
        assert!(good.wait().is_ok(), "its neighbour is unaffected");
    }

    #[test]
    fn try_enqueue_sheds_load_when_full() {
        let (service, users, docs) = fixture();
        // `try_enqueue` never drains and nothing else does until a ticket
        // is waited on, so capacity 1 accepts the first attempt and
        // refuses the other 63, every run.
        let queue = ServiceQueue::start(
            service,
            QueueConfig {
                capacity: 1,
                batch: 1,
            },
        );
        let handle = queue.handle();
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..64 {
            match handle.try_enqueue(Request::Rank {
                user: users[0],
                docs: docs.clone(),
                k: docs.len(),
            }) {
                Ok(ticket) => accepted.push(ticket),
                Err(_returned) => rejected += 1,
            }
        }
        assert_eq!(accepted.len(), 1, "an empty queue accepts once");
        assert_eq!(rejected, 63, "a full queue refuses the rest");
        for ticket in accepted {
            ticket.wait().unwrap();
        }
        let stats = queue.stats();
        assert_eq!(stats.queue.rejected, rejected);
        assert_eq!(
            stats.queue.enqueued + stats.queue.rejected,
            64,
            "every attempt is accounted exactly once"
        );
        queue.shutdown();
    }

    #[test]
    fn shutdown_drains_the_backlog_and_refuses_new_requests() {
        let (service, users, docs) = fixture();
        let queue = ServiceQueue::start(service, QueueConfig::default());
        let handle = queue.handle();
        let tickets: Vec<_> = (0..16)
            .map(|i| {
                handle
                    .enqueue(Request::Rank {
                        user: users[i % users.len()],
                        docs: docs.clone(),
                        k: docs.len(),
                    })
                    .unwrap()
            })
            .collect();
        queue.shutdown();
        for ticket in tickets {
            assert!(
                ticket.wait().is_ok(),
                "every accepted request is answered before shutdown returns"
            );
        }
        assert!(
            handle
                .enqueue(Request::Rank {
                    user: users[0],
                    docs: docs.clone(),
                    k: 1,
                })
                .is_err(),
            "post-shutdown enqueues are refused"
        );
        assert!(handle
            .try_enqueue(Request::Rank {
                user: users[0],
                docs,
                k: 1,
            })
            .is_err());
    }

    #[test]
    fn multi_producer_traffic_is_all_answered() {
        let (service, users, docs) = fixture();
        let queue = ServiceQueue::start(
            Arc::clone(&service),
            QueueConfig {
                capacity: 8,
                batch: 4,
            },
        );
        std::thread::scope(|scope| {
            for t in 0..4 {
                let handle = queue.handle();
                let users = &users;
                let docs = &docs;
                scope.spawn(move || {
                    for i in 0..25 {
                        let ticket = handle
                            .enqueue(Request::Rank {
                                user: users[(t + i) % users.len()],
                                docs: docs.clone(),
                                k: docs.len(),
                            })
                            .unwrap();
                        ticket.wait().unwrap();
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.queue.enqueued, 100);
        assert_eq!(stats.queue.drained, 100);
        assert_eq!(stats.rank_requests, 100);
        assert!(
            stats.queue.depth_high_water <= 8,
            "the bound holds: {stats:?}"
        );
        queue.shutdown();
    }

    fn rank(user: IndividualId, docs: &[IndividualId]) -> Request {
        Request::Rank {
            user,
            docs: docs.to_vec(),
            k: docs.len(),
        }
    }

    fn assert_same_ranks(want: &[crate::DocScore], got: &Response) {
        let got = got.ranked().unwrap();
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(got) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn one_wait_drains_two_producers_as_one_run() {
        let (service, users, docs) = fixture();
        let queue = ServiceQueue::start(Arc::clone(&service), QueueConfig::default());
        let first = queue.handle().enqueue(rank(users[0], &docs)).unwrap();
        let second = queue.handle().enqueue(rank(users[1], &docs)).unwrap();
        assert!(first.wait().is_ok());
        let after_wait = queue.stats();
        assert_eq!(after_wait.queue.drained, 2, "one wait drained both");
        assert_eq!(after_wait.rank_requests, 2);
        assert!(second.try_take().expect("already answered").is_ok());
        let after_take = queue.stats();
        assert_eq!(after_take.queue.drained, 2, "no further drain");
        assert_eq!(after_take.rank_requests, 2, "and no further rank");
        queue.shutdown();
    }

    #[test]
    fn unwaited_requests_still_run() {
        let (service, users, docs) = fixture();
        let oracle = RankingService::new(
            LineageEngine::new(),
            (*service.kb()).clone_for_publish(),
            (*service.rules()).clone(),
        );
        let fact = || Fact::ConceptProb("Ctx".into(), 0.95);
        oracle.assert(users[0], fact()).unwrap();
        let queue = ServiceQueue::start(service, QueueConfig::default());
        let (writer, reader) = (queue.handle(), queue.handle());
        drop(
            writer
                .enqueue(Request::Assert {
                    subject: users[0],
                    fact: fact(),
                })
                .unwrap(),
        );
        let got = reader.enqueue(rank(users[0], &docs)).unwrap().wait();
        let want = oracle.rank(users[0], &docs, docs.len()).unwrap();
        assert_same_ranks(&want, &got.unwrap());

        let pending = reader.enqueue(rank(users[1], &docs)).unwrap();
        queue.shutdown();
        let stats = reader.stats().queue;
        assert_eq!(stats.drained, stats.enqueued, "shutdown drained it");
        let want = oracle.rank(users[1], &docs, docs.len()).unwrap();
        assert_same_ranks(&want, &pending.try_take().unwrap().unwrap());
    }

    /// Scores as `LineageEngine`, and panics when asked to score `sentinel`.
    struct PanicsOn {
        inner: LineageEngine,
        sentinel: IndividualId,
    }

    impl ScoringEngine for PanicsOn {
        fn name(&self) -> &'static str {
            "panics-on"
        }

        fn score_all_bound(
            &self,
            env: &crate::ScoringEnv<'_>,
            bindings: &[Arc<crate::RuleBinding>],
            docs: &[IndividualId],
            scratch: &mut crate::EvalScratch,
        ) -> Result<Vec<crate::DocScore>> {
            assert!(!docs.contains(&self.sentinel), "scored the sentinel");
            self.inner.score_all_bound(env, bindings, docs, scratch)
        }
    }

    #[test]
    fn a_panicking_drainer_strands_no_ticket() {
        let (lineage, users, docs) = fixture();
        let service = Arc::new(RankingService::new(
            PanicsOn {
                inner: LineageEngine::new(),
                sentinel: docs[0],
            },
            (*lineage.kb()).clone_for_publish(),
            (*lineage.rules()).clone(),
        ));
        // The panic poisons the shard of the tenant it ran under: warm
        // every tenant, and find one whose shard differs from the
        // panicking tenant's by the shard lock its warm rank takes.
        let safe = &docs[1..];
        let shard_of = |user| {
            service.rank(user, safe, safe.len()).unwrap();
            let before = service.shard_lock_counts();
            service.rank(user, safe, safe.len()).unwrap();
            let after = service.shard_lock_counts();
            (0..after.len()).find(|&i| after[i] != before[i]).unwrap()
        };
        let victim = shard_of(users[0]);
        let bystander = *users[1..]
            .iter()
            .find(|&&u| shard_of(u) != victim)
            .expect("a user in another shard");

        let queue = ServiceQueue::start(
            Arc::clone(&service),
            QueueConfig {
                capacity: 8,
                batch: 2,
            },
        );
        let handle = queue.handle();
        let poisoned = handle.enqueue(rank(users[0], &docs)).unwrap();
        let neighbour = handle.enqueue(rank(bystander, safe)).unwrap();
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| poisoned.wait()));
        assert!(drained.is_err(), "the drainer's caller sees the panic");
        assert!(
            matches!(neighbour.try_take(), Some(Err(CoreError::Ranking(_)))),
            "the batch's other ticket is answered with an error"
        );

        let later = handle.enqueue(rank(bystander, safe)).unwrap().wait();
        let want = lineage.rank(bystander, safe, safe.len()).unwrap();
        assert_same_ranks(&want, &later.unwrap());
        queue.shutdown();
    }
}
