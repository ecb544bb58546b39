//! `context_churn`: the commerce pack's default replay shape.

use super::{distinct_candidates, in_order, sub_seed, Generated, Spec};
use capra_commerce::generate::ShopConfig;
use capra_commerce::workload::{build_workload, WorkloadConfig};

pub const SPEC: Spec = Spec {
    name: "context_churn",
    why: "the paper's core case, context switch then rank: bind/dl do most of the work and top-k runs on every request",
    clients: 1,
    threads: 1,
    durable: false,
    warmup_ops: 300,
    pass_ops: 3_000,
    gated: true,
    generate,
};

/// 1 000 shoppers, 400 products, 32 candidates (less the repeats the pack
/// draws), `k = 10`, churn 0.3 — the
/// pack's defaults, with both seeds taken from `--seed`. The pack emits
/// one rank per request plus the churn asserts, so `ops` requests always
/// yield at least `ops` records; the stream is cut at exactly `ops`.
fn generate(seed: u64, ops: usize) -> Generated {
    let mut workload = build_workload(WorkloadConfig {
        shop: ShopConfig {
            seed: sub_seed(seed, 0),
            ..ShopConfig::default()
        },
        requests: ops,
        seed: sub_seed(seed, 1),
        ..WorkloadConfig::default()
    });
    workload.records.truncate(ops);
    distinct_candidates(&mut workload.records);
    Generated {
        schedules: vec![in_order(0, workload.records.len())],
        workload,
        rules: Vec::new(),
        load: 0,
    }
}
