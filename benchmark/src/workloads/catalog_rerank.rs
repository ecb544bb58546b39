//! `catalog_rerank`: every rank follows that shopper's context switch and
//! sweeps the whole catalog.

use super::{intent_assert, name_of, sub_seed, Generated, Spec};
use capra_commerce::generate::{flip_rules, generate as generate_shop, ShopConfig};
use capra_core::persist::{Workload, WorkloadMeta, WorkloadRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// With every product tagged a 400-product sweep takes 4–7 ms; at 256 a
/// pass of 500 sweeps stays under 2 s.
const PRODUCTS: usize = 256;

pub const SPEC: Spec = Spec {
    name: "catalog_rerank",
    why: "cold full sweeps: engines + events batch evaluation do most of the work, bind the rest, and no cache helps",
    clients: 1,
    threads: 1,
    durable: false,
    warmup_ops: 100,
    pass_ops: 1_000,
    gated: true,
    generate,
};

/// The pack's default population and catalog, except that every product
/// carries both uncertain price tags. At the default tag rates (0.3 and
/// 0.35) most lanes of a sweep are constants, `bind` + `dl` take a third
/// of a request, and how many products a seed happens to tag moves the
/// rank latency by 15% between seeds.
///
/// Operations come in pairs — the shopper's intent assert, then their
/// rank of the whole catalog (`k = 256`). One rank record per visited
/// shopper; the schedule revisits it.
fn generate(seed: u64, ops: usize) -> Generated {
    let db = generate_shop(ShopConfig {
        products: PRODUCTS,
        premium_rate: 1.0,
        discount_rate: 1.0,
        seed: sub_seed(seed, 0),
        ..ShopConfig::default()
    });
    let rules = flip_rules(&db);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let catalog: Vec<String> = db.products.iter().map(|&p| name_of(&db.kb, p)).collect();

    let mut records = Vec::new();
    let mut rank_of: HashMap<usize, u32> = HashMap::new();
    let mut schedule = Vec::with_capacity(ops);
    while schedule.len() < ops {
        let shopper = rng.gen_range(0..db.shoppers.len());
        schedule.push(records.len() as u32);
        records.push(intent_assert(&db, db.shoppers[shopper], &mut rng));
        let rank = *rank_of.entry(shopper).or_insert_with(|| {
            records.push(WorkloadRecord::Rank {
                user: name_of(&db.kb, db.shoppers[shopper]),
                docs: catalog.clone(),
                k: catalog.len() as u32,
            });
            records.len() as u32 - 1
        });
        schedule.push(rank);
    }
    schedule.truncate(ops);

    Generated {
        workload: Workload {
            meta: WorkloadMeta {
                domain: "commerce".into(),
                seed,
                comment: format!("catalog_rerank products={} ops={ops}", catalog.len()),
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
