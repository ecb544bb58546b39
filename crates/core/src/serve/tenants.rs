//! Sharded, LRU-capped storage of per-tenant session state.
//!
//! Each tenant is one user's [`SessionCore`] — that user's share of the two
//! *user-specific* cache layers of a [`crate::ScoringSession`], their rule
//! bindings and their score entry, and the request sequence over them. A
//! session keeps one core per user in a map; a tenant holds its core in
//! place, so once the shard's map has found the tenant a warm page reads
//! the bindings and the score entry without hashing the user again. The
//! third layer (evaluation memos) carries no per-user data and lives in the
//! service's shared pool (`serve/pool.rs`) instead, so it is *not*
//! duplicated per tenant and survives tenant eviction.
//!
//! Tenants are routed to shards by hashing their [`IndividualId`], and each
//! shard sits behind its own [`Mutex`]: requests for tenants in different
//! shards proceed in parallel, requests for the same tenant (or shard
//! neighbours) serialize. Access is scoped — [`TenantSessions::with_session`]
//! runs a closure under exactly the target shard's lock — so the shard lock
//! also *is* the per-tenant request serialization the service layer relies
//! on: two threads ranking the same user cannot interleave inside one
//! tenant's caches. A writer asserting about a user holds that user's shard
//! ([`TenantSessions::hold`]) across its publish, so no request of theirs
//! interleaves with it either.
//!
//! **LRU cap.** The map holds at most `capacity` live tenants across all
//! shards; touching a tenant refreshes its recency, and inserting past the
//! cap evicts the globally least-recently-used tenant. Finding the global
//! victim needs a consistent view of every shard, so the insert slow path
//! (tenant not yet live) locks *all* shards in ascending index order — the
//! one place the map takes more than one lock (see the lock-order note in
//! `ARCHITECTURE.md`). Eviction drops only caches whose contents are pure
//! functions of the current KB + rules, so a returning tenant is re-derived
//! bit-identically — the cap trades a cold re-bind for bounded memory,
//! exactly like the age limit ([`capra_events::MAX_AGE`]) on the shared
//! memo generation one layer down.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use capra_dl::IndividualId;

use crate::hash::{IdHasher, IdMap};
use crate::session::{SessionCore, SessionStats};

/// One tenant: its user's session core, its mark — the shared sequence its
/// bindings are current at — and the recency stamp the LRU cap works from.
pub(crate) struct Tenant {
    /// The user's caches and the request path over them; every caller
    /// binds it for the user the tenant is keyed by.
    pub session: SessionCore,
    /// The *shared* publish sequence of the snapshot `session`'s bindings
    /// were last bound against, set only if that snapshot was still the
    /// published one when the bind was recorded; `None` until then, after
    /// a bind against a superseded snapshot, and after an own-row assert
    /// about this user, whose writer clears it under the shard lock
    /// ([`Hold::unmark`]). Every path that binds the tenant sets it, so
    /// while it equals the published shared sequence no publish since has
    /// moved anything the bindings read, and they are current without a
    /// bind.
    pub bound_at: Option<u64>,
    /// Logical timestamp of the last access (global clock tick).
    last_used: u64,
}

impl Tenant {
    fn new(now: u64) -> Self {
        Self {
            session: SessionCore::default(),
            bound_at: None,
            last_used: now,
        }
    }

    /// This tenant's cache counters as a [`SessionStats`]. The footprint
    /// and batch counters are zero by construction: tenants hold no
    /// evaluation memos of their own — those live in the service's shared
    /// pool and are reported once, service-wide.
    fn stats(&self) -> SessionStats {
        self.session.stats()
    }
}

/// One shard: the tenants that hash here, behind this shard's own lock.
type Shard = IdMap<IndividualId, Tenant>;

/// One user's shard, held by a writer (see [`TenantSessions::hold`]).
pub(crate) struct Hold<'a> {
    shard: MutexGuard<'a, Shard>,
    user: IndividualId,
}

impl Hold<'_> {
    /// Clears the held user's mark, if they have a live tenant: their
    /// next full page binds against what the writer published.
    pub fn unmark(&mut self) {
        if let Some(tenant) = self.shard.get_mut(&self.user) {
            tenant.bound_at = None;
        }
    }
}

/// The sharded tenant map (see module docs).
pub(crate) struct TenantSessions {
    shards: Vec<Mutex<Shard>>,
    /// Times each shard's lock was taken (same index as `shards`). A
    /// contention signal for operators: the fast path takes exactly one
    /// lock per request, so a hot shard shows up as one counter racing
    /// ahead of its siblings.
    lock_counts: Vec<AtomicU64>,
    /// Maximum live tenants across all shards (≥ 1).
    capacity: usize,
    /// Monotonic access clock driving LRU recency.
    clock: AtomicU64,
    /// Tenants evicted by the LRU cap so far.
    evicted: AtomicU64,
    /// Live tenants across all shards (maintained on insert/evict so reads
    /// don't have to take every shard lock).
    live: AtomicU64,
    /// Counters carried by evicted tenants, folded in so the service-level
    /// totals stay monotone across evictions.
    retired: Mutex<SessionStats>,
}

impl TenantSessions {
    /// An empty map with `shards` shards and a total live-session cap of
    /// `capacity` (both clamped to ≥ 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            lock_counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
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

    /// Locks shard `index`, counting the acquisition.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.lock_counts[index].fetch_add(1, Ordering::Relaxed);
        self.shards[index].lock().expect("shard lock poisoned")
    }

    /// Live tenant sessions across all shards.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }

    /// Tenants evicted by the LRU cap so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Shard-lock acquisitions so far, one counter per shard.
    pub fn lock_counts(&self) -> Vec<u64> {
        self.lock_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Runs `f` on the tenant's session state under the tenant's shard
    /// lock, creating the session on first sight and refreshing its
    /// recency. Inserting past the cap first evicts the globally
    /// least-recently-used tenant (never the one being requested — its
    /// recency stamp is the newest clock tick by construction).
    ///
    /// The closure runs with the shard lock held, so everything it does to
    /// the tenant's caches is atomic with respect to other requests for
    /// tenants in the same shard; tenants in other shards are untouched and
    /// proceed in parallel.
    pub fn with_session<R>(&self, user: IndividualId, f: impl FnOnce(&mut Tenant) -> R) -> R {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let target = self.shard_of(user);
        {
            // Fast path: the tenant is live — one lock, no global scan.
            let mut shard = self.lock_shard(target);
            if let Some(tenant) = shard.get_mut(&user) {
                tenant.last_used = now;
                return f(tenant);
            }
        }
        // Slow path (first sight): the global LRU cap needs a consistent
        // view of every shard, so take all shard locks in ascending index
        // order (the only multi-lock acquisition in the map — deadlock-free
        // because every other path takes at most one shard lock).
        let mut guards: Vec<MutexGuard<'_, Shard>> =
            (0..self.shards.len()).map(|i| self.lock_shard(i)).collect();
        // Re-check under the full lock set: another thread may have created
        // this tenant between the fast-path unlock and here.
        if !guards[target].contains_key(&user) {
            if self.live() >= self.capacity {
                self.evict_lru(&mut guards);
            }
            guards[target].insert(user, Tenant::new(now));
            self.live.fetch_add(1, Ordering::Relaxed);
        }
        // Keep only the target shard's guard while `f` runs: scoring a cold
        // tenant can be long, and the other shards need not wait for it.
        let mut shard = guards.swap_remove(target);
        drop(guards);
        let tenant = shard.get_mut(&user).expect("tenant just ensured live");
        tenant.last_used = now;
        f(tenant)
    }

    /// Locks `user`'s shard for a writer — which holds it across an
    /// assert's apply and publish, and clears the user's mark through it —
    /// creating no tenant and counting nothing: [`TenantSessions::lock_counts`]
    /// counts requests' acquisitions.
    pub fn hold(&self, user: IndividualId) -> Hold<'_> {
        let shard = self.shards[self.shard_of(user)]
            .lock()
            .expect("shard lock poisoned");
        Hold { shard, user }
    }

    /// The tenant's cache counters, if it is currently live.
    pub fn stats_of(&self, user: IndividualId) -> Option<SessionStats> {
        let shard = self.lock_shard(self.shard_of(user));
        shard.get(&user).map(Tenant::stats)
    }

    /// Total cache counters: every live tenant's [`SessionStats`] summed
    /// component-wise, plus the counters retired with evicted tenants.
    /// Shards are visited one lock at a time, so under concurrent traffic
    /// the sum is a near-point-in-time reading, not a frozen snapshot —
    /// fine for the monotone counters it reports.
    pub fn total_stats(&self) -> SessionStats {
        let live: SessionStats = (0..self.shards.len())
            .map(|i| {
                let shard = self.lock_shard(i);
                shard.values().map(Tenant::stats).sum::<SessionStats>()
            })
            .sum();
        live + *self.retired.lock().expect("retired lock poisoned")
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
        (0..self.shards.len())
            .flat_map(|i| {
                let shard = self.lock_shard(i);
                shard.keys().copied().collect::<Vec<_>>()
            })
            .collect()
    }

    /// Removes the least-recently-used tenant across all shards (whose
    /// guards the caller holds), folding its counters into the retired
    /// totals. The scan is O(live tenants) — fine for in-process caps; a
    /// deployment that needs millions of live sessions shards the
    /// *service*, not this map.
    fn evict_lru(&self, guards: &mut [MutexGuard<'_, Shard>]) {
        let victim = guards
            .iter()
            .enumerate()
            .flat_map(|(s, shard)| shard.iter().map(move |(&user, t)| (t.last_used, s, user)))
            .min_by_key(|&(last_used, _, _)| last_used);
        if let Some((_, shard, user)) = victim {
            let tenant = guards[shard].remove(&user).expect("victim is live");
            let mut retired = self.retired.lock().expect("retired lock poisoned");
            *retired = *retired + tenant.stats();
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
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
        map.with_session(user, |_| ());
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let (_kb, u) = users(3);
        let map = TenantSessions::new(4, 2);
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
            .filter(|s| !s.lock().unwrap().is_empty())
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
        map.with_session(u0, |t| t.session.bind(&env));
        let before = map.total_stats();
        assert!(before.bindings.misses > 0, "the bind registered a counter");
        touch(&map, u1); // evicts u0, retiring its counters
        assert_eq!(map.total_stats(), before, "totals survive eviction");
    }

    #[test]
    fn shard_lock_counts_track_acquisitions() {
        let (_kb, u) = users(8);
        let map = TenantSessions::new(4, 8);
        for &user in &u {
            touch(&map, user); // slow path: locks every shard once
            touch(&map, user); // fast path: locks exactly one shard
        }
        let counts = map.lock_counts();
        assert_eq!(counts.len(), 4);
        let total: u64 = counts.iter().sum();
        // 8 slow paths × (1 fast-miss + 4 all-shard) + 8 fast hits.
        assert_eq!(total, 8 * 5 + 8);
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
