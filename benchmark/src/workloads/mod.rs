//! The six serving workloads.
//!
//! Each workload is a [`Spec`] (its fixed shape and the reason it
//! exists) plus a seeded generator. A generator derives the catalog seed
//! and the stream seed from `--seed` and returns a [`Generated`]: a
//! [`Workload`] holding the *distinct* requests by name, and one schedule
//! per client saying in which order they are issued. The service only
//! ever sees the generated workload and the requests in it.

use capra_commerce::generate::CommerceDb;
use capra_core::persist::{Workload, WorkloadFact, WorkloadRecord};
use capra_core::Kb;
use capra_dl::IndividualId;
use rand::rngs::StdRng;
use rand::Rng;

mod catalog_rerank;
mod concurrent_tenants;
mod context_churn;
mod durable_mixed;
mod group_fanout;
mod warm_serving;

/// Schedule entry that stands for `RankingService::save_snapshot`.
pub const SNAPSHOT: u32 = u32::MAX;

/// The fixed shape of one workload.
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Closed-loop client threads sharing the service.
    pub clients: usize,
    /// `ServiceConfig::threads` (in-request fan-out).
    pub threads: usize,
    /// Opened with `open_durable` in a scratch directory.
    pub durable: bool,
    /// Untimed warm-up operations per client.
    pub warmup_ops: usize,
    /// Measured operations per client in one pass, sized on the seed
    /// code so a pass lasts 1.5–2 s on an undisturbed host. A run makes
    /// as many passes as fit `--seconds`.
    pub pass_ops: usize,
    /// Listed in `BENCHMARK.json`, so the PR driver holds it to the
    /// bounds. The others run the same way but read too unevenly on a
    /// shared two-core host to gate a change.
    pub gated: bool,
    /// Builds the inputs from the seed for `ops` scheduled operations per
    /// client.
    pub generate: fn(seed: u64, ops: usize) -> Generated,
}

/// A rule given as text, for workloads that build their rule set through
/// the service API.
pub struct RuleText {
    pub name: String,
    pub context: String,
    pub preference: String,
    pub sigma: f64,
}

/// What a generator hands to the harness.
pub struct Generated {
    /// Initial KB, rules and the distinct requests (by name).
    pub workload: Workload,
    /// Rules to add through `RankingService::add_rule` during set-up.
    pub rules: Vec<RuleText>,
    /// Leading records applied during set-up (the durable domain loads its
    /// KB through the service so the WAL carries it).
    pub load: usize,
    /// Per client: indices into `workload.records`, or [`SNAPSHOT`].
    pub schedules: Vec<Vec<u32>>,
}

/// All workloads, in report order.
pub const ALL: [&Spec; 6] = [
    &warm_serving::SPEC,
    &context_churn::SPEC,
    &catalog_rerank::SPEC,
    &group_fanout::SPEC,
    &concurrent_tenants::SPEC,
    &durable_mixed::SPEC,
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// Derives independent sub-seeds from `--seed` (splitmix64 steps), so
/// the catalog and each stream get their own generator state.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane + 1))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The schedule that issues `records[first..]` once, in order.
fn in_order(first: usize, len: usize) -> Vec<u32> {
    (first as u32..(first + len) as u32).collect()
}

fn name_of(kb: &Kb, id: IndividualId) -> String {
    kb.voc.individual_name(id).to_string()
}

/// An intent-churn context event for `shopper`, in the shape the commerce
/// pack's own stream builder emits.
fn intent_assert(db: &CommerceDb, shopper: IndividualId, rng: &mut StdRng) -> WorkloadRecord {
    let concept = if rng.gen_bool(0.5) {
        "GiftShopping"
    } else {
        "BargainHunting"
    };
    WorkloadRecord::Assert {
        subject: name_of(&db.kb, shopper),
        fact: WorkloadFact::ConceptProb(concept.into(), rng.gen_range(0.05..=0.95)),
    }
}

/// Makes every rank's candidate list a set, keeping first occurrences.
/// The packs draw candidates with replacement; on a repeated candidate
/// the seed's bounded top-k returns the document twice while `score_all`
/// returns it once, so a list with repeats has no single right answer to
/// verify against.
fn distinct_candidates(records: &mut [WorkloadRecord]) {
    for record in records {
        if let WorkloadRecord::Rank { docs, .. } = record {
            let mut seen = std::collections::HashSet::new();
            docs.retain(|d| seen.insert(d.clone()));
        }
    }
}

/// `n` distinct products, by name.
fn sample_products(db: &CommerceDb, n: usize, rng: &mut StdRng) -> Vec<String> {
    let mut picked: Vec<String> = Vec::with_capacity(n);
    while picked.len() < n.min(db.products.len()) {
        let product = name_of(&db.kb, db.products[rng.gen_range(0..db.products.len())]);
        if !picked.contains(&product) {
            picked.push(product);
        }
    }
    picked
}
