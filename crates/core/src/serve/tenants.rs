//! Sharded, LRU-capped storage of per-tenant session state.
//!
//! Each tenant is one user's [`SessionCore`] — that user's share of the two
//! *user-specific* cache layers of a [`crate::ScoringSession`], their rule
//! bindings and their score entry, and the request sequence over them —
//! beside the [`EvalScratch`] that counts its engine calls' batch work. A
//! session keeps one core per user in a map; a tenant holds its core in
//! place, so once the shard's map has found the tenant a warm page reads
//! the bindings and the score entry without hashing the user again. A
//! tenant keeps no evaluation memo: the feature rows keep what a document
//! brings to every tenant once it is evaluated, and an entangled
//! document's exact evaluation is its engine call's own.
//!
//! Tenants are routed to shards by hashing their [`IndividualId`], and each
//! shard sits behind its own [`Mutex`]: requests for tenants in different
//! shards proceed in parallel, requests for the same tenant (or shard
//! neighbours) serialize. Access is scoped — [`TenantSessions::with_session`]
//! runs a closure under exactly the target shard's lock — so the shard lock
//! also *is* the per-tenant request serialization the service layer relies
//! on: two threads ranking the same user cannot interleave inside one
//! tenant's caches. No writer takes a shard lock: a publish moves the
//! service's sequence, and a tenant's mark is checked against it. A
//! shard's counters (recency clock, lock acquisitions, rank requests) are
//! plain integers under its lock.
//!
//! **LRU cap.** The map holds at most `capacity` live tenants across all
//! shards, and recency is kept per shard. A first sight below the cap
//! inserts under its shard's lock alone; at the cap it evicts its shard's
//! least-recently-used tenant, or, if it has none, that of the next shard
//! in index order that has one, locked after its own is released: no
//! request holds two shard locks. Eviction drops only caches whose
//! contents are pure functions of the current KB + rules, so a returning
//! tenant is re-derived bit-identically — and so are the tenants of a
//! shard a panic poisoned, which the shard's next lock drops. A dropped
//! tenant's counters, batch counters included, are kept.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use capra_dl::IndividualId;

use crate::engines::EvalScratch;
use crate::hash::{IdHasher, IdMap};
use crate::serve::ServiceStats;
use crate::session::{SessionCore, SessionStats};

/// One tenant: its user's session core and batch counters, its mark — the
/// publish sequence its bindings are current at — and the recency stamp the
/// LRU cap works from.
#[derive(Default)]
pub(crate) struct Tenant {
    /// The user's caches and the request path over them; every caller
    /// binds it for the user the tenant is keyed by.
    pub session: SessionCore,
    /// The batch counters of the engine calls `session` makes.
    pub scratch: EvalScratch,
    /// The publish sequence of the snapshot `session`'s bindings were last
    /// bound against, set only if that snapshot was still the published
    /// one when the bind was recorded; `None` until then and after a bind
    /// against a superseded snapshot. Every path that binds the tenant sets
    /// it, so while it equals the published sequence nothing has been
    /// published since, and the bindings are current without a bind.
    pub bound_at: Option<u64>,
    /// Its shard's clock at the last access (unique within the shard).
    last_used: u64,
}

impl Tenant {
    /// The core's counters, with the tenant's batch counters.
    fn stats(&self) -> SessionStats {
        SessionStats {
            batch: self.scratch.batch_stats(),
            ..self.session.stats()
        }
    }
}

/// One shard: the tenants that hash here and the counters its lock keeps.
#[derive(Default)]
struct Shard {
    tenants: IdMap<IndividualId, Tenant>,
    /// Recency clock: one tick per access to a tenant here.
    clock: u64,
    /// Times requests took this shard's lock.
    locks: u64,
    /// Rank requests, each counted in its (first) user's shard.
    ranks: u64,
}

impl Shard {
    /// Removes this shard's least-recently-used tenant, if it has one.
    fn pop_lru(&mut self) -> Option<Tenant> {
        let (&user, _) = self.tenants.iter().min_by_key(|(_, t)| t.last_used)?;
        self.tenants.remove(&user)
    }
}

/// The sharded tenant map (see module docs).
pub(crate) struct TenantSessions {
    shards: Vec<Mutex<Shard>>,
    /// Maximum live tenants across all shards (≥ 1).
    capacity: usize,
    /// Tenants evicted by the LRU cap so far.
    evicted: AtomicU64,
    /// Live tenants across all shards, reserved before an insert and
    /// released by an eviction, so it never passes `capacity`.
    live: AtomicU64,
    /// Counters carried by dropped tenants, folded in so the service-level
    /// totals stay monotone across evictions.
    retired: Mutex<SessionStats>,
}

impl TenantSessions {
    /// An empty map with `shards` shards and a total live-session cap of
    /// `capacity` (both clamped to ≥ 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            capacity: capacity.max(1),
            evicted: AtomicU64::new(0),
            live: AtomicU64::new(0),
            retired: Mutex::new(SessionStats::default()),
        }
    }

    /// The shard a tenant routes to. [`IdHasher`] has no key, so routing is
    /// stable across runs and processes. The shard's own map hashes the
    /// same way and places by the hash's low bits and its top seven; the
    /// route is taken from the bits in between, so the tenants of one
    /// shard still spread over its buckets.
    fn shard_of(&self, user: IndividualId) -> usize {
        let hash = BuildHasherDefault::<IdHasher>::default().hash_one(user);
        ((hash >> 32) % self.shards.len() as u64) as usize
    }

    /// Locks shard `index` without counting it. A shard a panic poisoned
    /// is recovered: its tenants, which the panic may have left half
    /// updated, are dropped and their counters retired.
    fn lock(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.shards[index].lock().unwrap_or_else(|poisoned| {
            let mut shard = poisoned.into_inner();
            self.shards[index].clear_poison();
            self.retire(shard.tenants.drain().map(|(_, tenant)| tenant));
            shard
        })
    }

    /// Locks shard `index`, counting the acquisition.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        let mut shard = self.lock(index);
        shard.locks += 1;
        shard
    }

    /// Live tenant sessions across all shards.
    pub fn live(&self) -> usize {
        self.live.load(Relaxed) as usize
    }

    /// Tenants evicted by the LRU cap so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Relaxed)
    }

    /// Shard-lock acquisitions so far, one per shard (read uncounted).
    pub fn lock_counts(&self) -> Vec<u64> {
        (0..self.shards.len()).map(|i| self.lock(i).locks).collect()
    }

    /// Runs `f` on the tenant's session state under the tenant's shard
    /// lock, creating the session on first sight (see the module docs for
    /// the cap) and refreshing its recency; `rank` counts a rank request
    /// in that shard.
    ///
    /// The closure runs with the shard lock held, so everything it does to
    /// the tenant's caches is atomic with respect to other requests for
    /// tenants in the same shard; tenants in other shards are untouched and
    /// proceed in parallel.
    pub fn with_session<R>(
        &self,
        user: IndividualId,
        rank: bool,
        f: impl FnOnce(&mut Tenant) -> R,
    ) -> R {
        let target = self.shard_of(user);
        let mut guard = self.lock_shard(target);
        guard.ranks += u64::from(rank);
        loop {
            let shard = &mut *guard;
            shard.clock += 1;
            if let Some(tenant) = shard.tenants.get_mut(&user) {
                tenant.last_used = shard.clock;
                return f(tenant);
            }
            let room = |live| (live < self.capacity as u64).then_some(live + 1);
            let reserved = self.live.fetch_update(Relaxed, Relaxed, room);
            if reserved.is_ok() {
                shard.tenants.insert(user, Tenant::default());
            } else {
                let mut victim = shard.pop_lru();
                if victim.is_none() {
                    // Re-checked on the next turn: another thread may
                    // insert `user` while its shard is released.
                    drop(guard);
                    let n = self.shards.len();
                    let mut next = (1..n).map(|step| (target + step) % n);
                    victim = next.find_map(|i| self.lock_shard(i).pop_lru());
                    guard = self.lock_shard(target);
                }
                self.evicted.fetch_add(u64::from(victim.is_some()), Relaxed);
                self.retire(victim);
            }
        }
    }

    /// Folds dropped tenants' counters into the retired totals and
    /// releases their live slots.
    fn retire(&self, tenants: impl IntoIterator<Item = Tenant>) {
        let mut retired = self.retired.lock().expect("retired lock poisoned");
        for tenant in tenants {
            *retired = *retired + tenant.stats();
            self.live.fetch_sub(1, Relaxed);
        }
    }

    /// Counts a rank request that names no tenant (an empty group) in
    /// shard 0, taking its lock uncounted.
    pub fn count_rank(&self) {
        self.lock(0).ranks += 1;
    }

    /// The tenant's counters, if it is currently live.
    pub fn stats_of(&self, user: IndividualId) -> Option<SessionStats> {
        let shard = self.lock_shard(self.shard_of(user));
        shard.tenants.get(&user).map(Tenant::stats)
    }

    /// The tenant half of [`ServiceStats`], summed over one walk of the
    /// shards (a counted lock each, in the total) — every live tenant's
    /// counters — plus the counters retired with
    /// dropped tenants: a near-point-in-time reading of
    /// monotone counters under concurrent traffic, not a frozen snapshot.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = ServiceStats::default();
        for i in 0..self.shards.len() {
            let shard = self.lock_shard(i);
            stats.rank_requests += shard.ranks;
            stats.shard_lock_acquisitions += shard.locks;
            let live = shard.tenants.values().map(Tenant::stats);
            stats.sessions = live.fold(stats.sessions, |sum, t| sum + t);
        }
        stats.sessions = stats.sessions + *self.retired.lock().expect("retired lock poisoned");
        stats.sessions_live = self.live();
        stats.sessions_evicted = self.evicted();
        stats
    }

    /// Drops every tenant and resets all counters (the cap and shard count
    /// are kept).
    pub fn clear(&mut self) {
        *self = Self::new(self.shards.len(), self.capacity);
    }

    /// The user ids of all currently live tenants (shard order; no recency
    /// refresh). The persistence layer snapshots this set so a recovered
    /// service can re-derive those tenants' bindings at boot instead of on
    /// their first post-boot request.
    pub fn live_users(&self) -> Vec<IndividualId> {
        let users = |i| {
            self.lock_shard(i)
                .tenants
                .keys()
                .copied()
                .collect::<Vec<_>>()
        };
        (0..self.shards.len()).flat_map(users).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kb;

    fn users(n: usize) -> (Kb, Vec<IndividualId>) {
        let mut kb = Kb::new();
        let users = (0..n).map(|i| kb.individual(&format!("u{i}"))).collect();
        (kb, users)
    }

    fn touch(map: &TenantSessions, user: IndividualId) {
        map.with_session(user, false, |_| ());
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        // One shard, so its recency order is the whole map's.
        let (_kb, u) = users(3);
        let map = TenantSessions::new(1, 2);
        touch(&map, u[0]);
        touch(&map, u[1]);
        assert_eq!((map.live(), map.evicted()), (2, 0));
        // Touch u0 so u1 becomes the LRU victim when u2 arrives.
        touch(&map, u[0]);
        touch(&map, u[2]);
        assert_eq!((map.live(), map.evicted()), (2, 1));
        assert!(map.stats_of(u[0]).is_some(), "recently used tenant kept");
        assert!(map.stats_of(u[1]).is_none(), "LRU tenant evicted");
        assert!(map.stats_of(u[2]).is_some(), "new tenant live");
    }

    #[test]
    fn re_requesting_an_evicted_tenant_recreates_it() {
        let (_kb, u) = users(2);
        let map = TenantSessions::new(1, 1);
        touch(&map, u[0]);
        touch(&map, u[1]);
        touch(&map, u[0]);
        assert_eq!(map.live(), 1);
        assert_eq!(map.evicted(), 2, "each switch evicts the other tenant");
    }

    #[test]
    fn no_tenant_is_evicted_below_the_cap() {
        const CAP: usize = 16;
        let (_kb, u) = users(CAP + 1);
        let map = TenantSessions::new(8, CAP);
        for &user in &u[..CAP] {
            touch(&map, user);
        }
        assert_eq!((map.live(), map.evicted()), (CAP, 0));
        touch(&map, u[CAP]);
        assert_eq!((map.live(), map.evicted()), (CAP, 1));
        assert!(map.stats_of(u[CAP]).is_some(), "the newcomer is live");
    }

    #[test]
    fn a_first_sight_never_waits_on_another_shard() {
        let (_kb, u) = users(16);
        let map = TenantSessions::new(8, 16);
        let held = u[0];
        let stranger = *u[1..]
            .iter()
            .find(|&&user| map.shard_of(user) != map.shard_of(held))
            .expect("a user in another shard");
        let hold = map.lock(map.shard_of(held));
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                touch(&map, stranger);
                done.send(()).unwrap();
            });
            let waited = finished.recv_timeout(std::time::Duration::from_secs(30));
            drop(hold);
            assert!(waited.is_ok(), "the first sight waited on the held shard");
        });
        assert_eq!(map.live(), 1);
    }

    #[test]
    fn shard_routing_is_deterministic_and_total() {
        let (_kb, u) = users(64);
        let map = TenantSessions::new(8, 64);
        for &user in &u {
            touch(&map, user);
        }
        assert_eq!(map.live(), 64, "every tenant lands in exactly one shard");
        let spread = map
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().tenants.is_empty())
            .count();
        assert!(spread > 1, "64 tenants must not all hash to one shard");
    }

    #[test]
    fn eviction_retires_counters_monotonically() {
        use crate::{PreferenceRule, RuleRepository, Score};

        let mut kb = Kb::new();
        let u0 = kb.individual("u0");
        let u1 = kb.individual("u1");
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R",
                kb.parse("Ctx").unwrap(),
                kb.parse("Nice").unwrap(),
                Score::new(0.5).unwrap(),
            ))
            .unwrap();
        let map = TenantSessions::new(2, 1);
        let env = crate::ScoringEnv {
            kb: &kb,
            rules: &rules,
            user: u0,
        };
        map.with_session(u0, false, |t| t.session.bind(&env));
        let before = map.stats().sessions;
        assert!(before.bindings.misses > 0, "the bind registered a counter");
        touch(&map, u1); // evicts u0, retiring its counters
        assert_eq!(map.stats().sessions, before, "totals survive eviction");
    }

    #[test]
    fn shard_lock_counts_track_acquisitions() {
        let (_kb, u) = users(8);
        let map = TenantSessions::new(4, 8);
        for &user in &u {
            touch(&map, user); // first sight: locks its own shard once
            touch(&map, user); // warm: locks its own shard once
        }
        let counts = map.lock_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.iter().sum::<u64>(), 8 * 2);
        assert_eq!(map.lock_counts(), counts, "reading counts nothing");
    }

    #[test]
    fn concurrent_first_sight_inserts_once() {
        let (_kb, u) = users(1);
        let map = TenantSessions::new(4, 8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        touch(&map, u[0]);
                    }
                });
            }
        });
        assert_eq!((map.live(), map.evicted()), (1, 0));
    }
}
