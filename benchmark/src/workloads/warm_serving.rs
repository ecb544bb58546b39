//! `warm_serving`: 64 shoppers re-ranking one fixed 48-product page.

use super::{intent_assert, name_of, sample_products, sub_seed, Generated, Spec};
use capra_commerce::generate::{flip_rules, generate as generate_shop, ShopConfig};
use capra_core::persist::{Workload, WorkloadMeta, WorkloadRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHOPPERS: usize = 64;
const PRODUCTS: usize = 128;
const PAGE: usize = 48;
/// Every `ASSERT_EVERY`-th operation is a context event.
const ASSERT_EVERY: usize = 1000;

pub const SPEC: Spec = Spec {
    name: "warm_serving",
    why: "score-cache hits: serve/session overhead (snapshot load, shard lock, binding check, probe, sort) is nearly all the work",
    clients: 1,
    threads: 1,
    durable: false,
    warmup_ops: 4_000,
    pass_ops: 100_000,
    gated: true,
    generate,
};

/// The distinct requests are one full-page rank per shopper plus the
/// context events; the schedule picks a seeded shopper for every
/// operation and places an assert at every `ASSERT_EVERY`-th position.
fn generate(seed: u64, ops: usize) -> Generated {
    let db = generate_shop(ShopConfig {
        shoppers: SHOPPERS,
        products: PRODUCTS,
        seed: sub_seed(seed, 0),
        ..ShopConfig::default()
    });
    let rules = flip_rules(&db);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));

    let page = sample_products(&db, PAGE, &mut rng);
    let mut records: Vec<WorkloadRecord> = db
        .shoppers
        .iter()
        .map(|&s| WorkloadRecord::Rank {
            user: name_of(&db.kb, s),
            docs: page.clone(),
            k: PAGE as u32,
        })
        .collect();

    let mut schedule = Vec::with_capacity(ops);
    for i in 0..ops {
        let shopper = rng.gen_range(0..SHOPPERS);
        if i % ASSERT_EVERY == ASSERT_EVERY - 1 {
            schedule.push(records.len() as u32);
            records.push(intent_assert(&db, db.shoppers[shopper], &mut rng));
        } else {
            schedule.push(shopper as u32);
        }
    }

    Generated {
        workload: Workload {
            meta: WorkloadMeta {
                domain: "commerce".into(),
                seed,
                comment: format!(
                    "warm_serving shoppers={SHOPPERS} products={PRODUCTS} page={PAGE} ops={ops} assert_every={ASSERT_EVERY}"
                ),
            },
            kb: db.kb,
            rules,
            records,
        },
        rules: Vec::new(),
        load: 0,
        schedules: vec![schedule],
    }
}
