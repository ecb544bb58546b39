//! The batching front-end: a bounded request queue between callers and a
//! shared [`RankingService`].
//!
//! Direct calls on a [`RankingService`] couple the caller's rate to the
//! scoring rate: each thread blocks for its own request's full latency.
//! The queue decouples them — any number of producer threads
//! [`ServiceHandle::enqueue`] typed [`Request`]s into a bounded buffer
//! and a single worker continuously drains it in batches through
//! [`RankingService::submit`], so consecutive rank-shaped requests from
//! *different* producers coalesce into one dispatch run (one shared
//! scratch, given back once) exactly as a hand-built batch would.
//!
//! * **Backpressure.** The buffer is bounded by
//!   [`QueueConfig::capacity`]: [`ServiceHandle::enqueue`] blocks while
//!   full (ingestion degrades to the scoring rate instead of buffering
//!   unboundedly), and [`ServiceHandle::try_enqueue`] refuses instead —
//!   refusals are counted in [`QueueStats::rejected`].
//! * **Per-request results.** Every accepted request yields a
//!   [`Ticket`]; [`Ticket::wait`] blocks until the worker delivers that
//!   request's own `Result<Response>` — errors stay per-request, a
//!   failed rank never poisons its batch neighbours.
//! * **Shutdown.** Dropping (or [`ServiceQueue::shutdown`]ing) the queue
//!   closes intake, drains every already-accepted request, and joins the
//!   worker — no accepted ticket is left unresolved.
//!
//! The handle is `Clone + Send + Sync`: hand one to each producer
//! thread. The worker holds the service as an `Arc`, so direct `&self`
//! calls on the same service (e.g. an admin thread asserting facts)
//! interleave safely with queued traffic.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::engines::ScoringEngine;
use crate::serve::request::{Request, Response};
use crate::serve::service::{RankingService, ServiceStats};
use crate::{CoreError, Result};

/// Sizing knobs of a [`ServiceQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum requests buffered at once (≥ 1). A full queue blocks
    /// [`ServiceHandle::enqueue`] and refuses
    /// [`ServiceHandle::try_enqueue`].
    pub capacity: usize,
    /// Maximum requests the worker drains into one
    /// [`RankingService::submit`] batch (≥ 1) — the coalescing window.
    /// Larger batches amortize more (one scratch, one give-back) at the
    /// cost of tail latency for the batch's last request.
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
    /// Requests handed to the service by the worker (≤ `enqueued`; the
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

/// The slot a queued request's result is delivered into.
struct TicketCell {
    slot: Mutex<Option<Result<Response>>>,
    ready: Condvar,
}

/// A claim on one queued request's result.
///
/// The worker delivers exactly one `Result<Response>` into each ticket —
/// the same value the equivalent [`RankingService::submit`] entry would
/// have produced. [`Ticket::wait`] consumes the ticket; to poll instead,
/// use [`Ticket::try_take`].
pub struct Ticket(Arc<TicketCell>);

impl Ticket {
    /// Blocks until the worker delivers this request's result.
    pub fn wait(self) -> Result<Response> {
        let mut slot = self.0.slot.lock().expect("ticket lock poisoned");
        loop {
            match slot.take() {
                Some(result) => return result,
                None => slot = self.0.ready.wait(slot).expect("ticket lock poisoned"),
            }
        }
    }

    /// The result, if the worker has already delivered it (consuming it
    /// from the ticket).
    pub fn try_take(&self) -> Option<Result<Response>> {
        self.0.slot.lock().expect("ticket lock poisoned").take()
    }
}

/// The queue's mutable state, behind one mutex.
struct QueueState {
    items: VecDeque<(Request, Arc<TicketCell>)>,
    /// Set on shutdown: enqueues refuse, the worker drains what is left
    /// and exits.
    closed: bool,
    stats: QueueStats,
}

/// Everything the handles and the worker share.
struct Shared<E> {
    service: Arc<RankingService<E>>,
    state: Mutex<QueueState>,
    /// Signalled when items (or the closed flag) arrive — wakes the worker.
    not_empty: Condvar,
    /// Signalled when the worker frees space — wakes blocked enqueuers.
    not_full: Condvar,
    capacity: usize,
    batch: usize,
}

/// A cloneable, thread-safe producer handle onto a [`ServiceQueue`].
///
/// `ServiceHandle: Clone + Send + Sync` — clone one per producer thread;
/// all clones feed the same bounded buffer and worker.
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
    /// Enqueues a request, blocking while the queue is full (the
    /// backpressure path), and returns the [`Ticket`] its result will be
    /// delivered into. Errors only if the queue has been shut down.
    pub fn enqueue(&self, request: Request) -> Result<Ticket> {
        let mut state = self.shared.state.lock().expect("queue lock poisoned");
        while state.items.len() >= self.shared.capacity && !state.closed {
            state = self
                .shared
                .not_full
                .wait(state)
                .expect("queue lock poisoned");
        }
        self.push(state, request)
    }

    /// Enqueues without blocking: a full queue returns the request to the
    /// caller as `Err` and counts a [`QueueStats::rejected`] — the signal
    /// an ingestion front-end sheds load on.
    pub fn try_enqueue(&self, request: Request) -> std::result::Result<Ticket, Request> {
        let mut state = self.shared.state.lock().expect("queue lock poisoned");
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

    /// Appends under the held lock, stamps the counters, and wakes the
    /// worker.
    fn push(
        &self,
        mut state: std::sync::MutexGuard<'_, QueueState>,
        request: Request,
    ) -> Result<Ticket> {
        if state.closed {
            return Err(CoreError::Ranking(
                "the service queue has been shut down".into(),
            ));
        }
        let cell = Arc::new(TicketCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        state.items.push_back((request, Arc::clone(&cell)));
        state.stats.enqueued += 1;
        let depth = state.items.len() as u64;
        state.stats.depth_high_water = state.stats.depth_high_water.max(depth);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(Ticket(cell))
    }

    /// Requests currently buffered (enqueued but not yet drained).
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("queue lock poisoned")
            .items
            .len()
    }

    /// The service this handle feeds.
    pub fn service(&self) -> &Arc<RankingService<E>> {
        &self.shared.service
    }

    /// Service-wide counters with [`ServiceStats::queue`] filled in from
    /// this queue.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.shared.service.stats();
        stats.queue = self.shared.state.lock().expect("queue lock poisoned").stats;
        stats
    }
}

/// The worker loop: sleep until requests (or shutdown) arrive, drain up
/// to `batch` of them preserving arrival order, dispatch through
/// [`RankingService::submit`] (which coalesces the rank-shaped runs),
/// and deliver each result into its ticket. Exits when the queue is
/// closed *and* empty — every accepted request is answered first.
fn worker_loop<E: ScoringEngine + Sync>(shared: &Shared<E>) {
    loop {
        let drained: Vec<(Request, Arc<TicketCell>)> = {
            let mut state = shared.state.lock().expect("queue lock poisoned");
            loop {
                if !state.items.is_empty() {
                    break;
                }
                if state.closed {
                    return;
                }
                state = shared.not_empty.wait(state).expect("queue lock poisoned");
            }
            let n = state.items.len().min(shared.batch);
            let drained: Vec<_> = state.items.drain(..n).collect();
            state.stats.drained += n as u64;
            drained
        };
        // Space was freed: wake every blocked producer (they re-check the
        // capacity under the lock).
        shared.not_full.notify_all();
        let (requests, tickets): (Vec<_>, Vec<_>) = drained.into_iter().unzip();
        let responses = shared.service.submit(requests);
        debug_assert_eq!(responses.len(), tickets.len());
        for (ticket, response) in tickets.into_iter().zip(responses) {
            *ticket.slot.lock().expect("ticket lock poisoned") = Some(response);
            ticket.ready.notify_all();
        }
    }
}

/// A running batching front-end: owns the worker thread draining a
/// bounded request queue into an `Arc`-shared [`RankingService`].
///
/// Construct with [`ServiceQueue::start`], fan [`ServiceHandle`] clones
/// out to producers, and drop (or [`ServiceQueue::shutdown`]) to stop:
/// intake closes, the backlog drains, the worker joins.
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
pub struct ServiceQueue<E> {
    handle: ServiceHandle<E>,
    worker: Option<JoinHandle<()>>,
}

impl<E: ScoringEngine + Send + Sync + 'static> ServiceQueue<E> {
    /// Starts the worker over `service` with the given sizing. The
    /// service stays directly usable through its own `&self` API
    /// alongside the queue.
    pub fn start(service: Arc<RankingService<E>>, config: QueueConfig) -> Self {
        let shared = Arc::new(Shared {
            service,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                stats: QueueStats::default(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.capacity.max(1),
            batch: config.batch.max(1),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("capra-service-queue".into())
                .spawn(move || worker_loop(&shared))
                .expect("spawning the queue worker thread")
        };
        Self {
            handle: ServiceHandle { shared },
            worker: Some(worker),
        }
    }
}

impl<E: ScoringEngine + Sync> ServiceQueue<E> {
    /// A producer handle (clone freely — one per producer thread).
    pub fn handle(&self) -> ServiceHandle<E> {
        self.handle.clone()
    }

    /// Service-wide counters with [`ServiceStats::queue`] filled in.
    pub fn stats(&self) -> ServiceStats {
        self.handle.stats()
    }

    /// Closes intake, waits for the backlog to drain, and joins the
    /// worker. Every already-accepted ticket receives its result before
    /// this returns; enqueues after shutdown fail. (Dropping the queue
    /// does the same.)
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut state = self
                .handle
                .shared
                .state
                .lock()
                .expect("queue lock poisoned");
            state.closed = true;
        }
        // Wake everyone: the worker (to observe `closed`) and any blocked
        // producers (to fail their enqueue).
        self.handle.shared.not_empty.notify_all();
        self.handle.shared.not_full.notify_all();
        if let Some(worker) = self.worker.take() {
            worker.join().expect("queue worker panicked");
        }
    }
}

impl<E> Drop for ServiceQueue<E> {
    fn drop(&mut self) {
        {
            let mut state = self
                .handle
                .shared
                .state
                .lock()
                .expect("queue lock poisoned");
            state.closed = true;
        }
        self.handle.shared.not_empty.notify_all();
        self.handle.shared.not_full.notify_all();
        if let Some(worker) = self.worker.take() {
            worker.join().expect("queue worker panicked");
        }
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
        // Capacity 1 and a worker that can't outrun this thread's loop
        // guarantees at least one refusal without timing assumptions:
        // enqueue the first without waiting on it, then spam.
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
        assert!(!accepted.is_empty(), "an empty queue accepts");
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
}
