//! Hashing for the request path's maps.
//!
//! The maps a request probes per document or per user — the service's
//! tenant shards, tenants' bindings and score entries, feature rows — are
//! keyed by ids this program handed out itself ([`capra_dl::IndividualId`]
//! is the vocabulary's dense interner index), so std's keyed SipHash buys
//! nothing there and costs more than the probe it guards. They hash through
//! the workspace's one word mixer, [`capra_events::hashers::MixHasher`]
//! (the ABox's tables beneath them do too). No result depends on the order
//! of these maps: what iterates one sums counters, except for two readers
//! of the tenant shards — `Shard::pop_lru`, which takes the minimum over
//! recency stamps that are unique within the shard, and `live_users`, whose
//! callers treat the ids as a set (and which iterated a `RandomState` map
//! before).

pub(crate) use capra_events::hashers::{FastMap as IdMap, MixHasher as IdHasher};
