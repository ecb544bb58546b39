//! `concurrent_tenants`: two client threads on one `&self` service.

use super::{in_order, intent_assert, name_of, sample_products, sub_seed, Generated, Spec};
use capra_commerce::generate::{flip_rules, generate as generate_shop, ShopConfig};
use capra_core::persist::{Workload, WorkloadMeta, WorkloadRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHOPPERS: usize = 256;
const DOCS: usize = 32;
const CHURN: f64 = 0.02;
const CLIENTS: usize = 2;

pub const SPEC: Spec = Spec {
    name: "concurrent_tenants",
    why: "cross-request parallelism: shard locks, the published-snapshot slot and the writer's clone-and-swap under a pinned snapshot",
    clients: CLIENTS,
    threads: 1,
    durable: false,
    warmup_ops: 300,
    pass_ops: 1_600,
    gated: false,
    generate,
};

/// Each client gets its own seeded stream over its own half of the
/// shoppers: 32 distinct random candidates ranked in full (`k = 32`), preceded by
/// an intent assert with probability 0.02.
fn generate(seed: u64, ops: usize) -> Generated {
    let db = generate_shop(ShopConfig {
        shoppers: SHOPPERS,
        seed: sub_seed(seed, 0),
        ..ShopConfig::default()
    });
    let rules = flip_rules(&db);
    let half = SHOPPERS / CLIENTS;

    let mut records = Vec::with_capacity(CLIENTS * ops);
    let mut schedules = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1 + client as u64));
        let first = records.len();
        while records.len() - first < ops {
            let shopper = db.shoppers[client * half + rng.gen_range(0..half)];
            if rng.gen_bool(CHURN) {
                records.push(intent_assert(&db, shopper, &mut rng));
            }
            let docs = sample_products(&db, DOCS, &mut rng);
            records.push(WorkloadRecord::Rank {
                user: name_of(&db.kb, shopper),
                docs,
                k: DOCS as u32,
            });
        }
        records.truncate(first + ops);
        schedules.push(in_order(first, ops));
    }

    Generated {
        workload: Workload {
            meta: WorkloadMeta {
                domain: "commerce".into(),
                seed,
                comment: format!(
                    "concurrent_tenants shoppers={SHOPPERS} docs={DOCS} churn={CHURN} clients={CLIENTS} ops={ops}"
                ),
            },
            kb: db.kb,
            rules,
            records,
        },
        rules: Vec::new(),
        load: 0,
        schedules,
    }
}
