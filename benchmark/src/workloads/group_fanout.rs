//! `group_fanout`: the team-context pack's default replay shape with
//! in-request member fan-out.

use super::{in_order, sub_seed, Generated, Spec};
use capra_teamctx::generate::TeamConfig;
use capra_teamctx::workload::{build_workload, WorkloadConfig};

pub const SPEC: Spec = Spec {
    name: "group_fanout",
    why: "in-request parallelism: multiuser combine plus member fan-out over the scratch pool at threads = 2",
    clients: 1,
    threads: 2,
    durable: false,
    warmup_ops: 150,
    pass_ops: 1_000,
    gated: false,
    generate,
};

/// 200 teams × 4, 300 movies, 24 candidates, `k = 5`, churn 0.35, all
/// four strategies — the pack's defaults, seeds from `--seed`.
fn generate(seed: u64, ops: usize) -> Generated {
    let mut workload = build_workload(WorkloadConfig {
        team: TeamConfig {
            seed: sub_seed(seed, 0),
            ..TeamConfig::default()
        },
        requests: ops,
        seed: sub_seed(seed, 1),
        ..WorkloadConfig::default()
    });
    workload.records.truncate(ops);
    Generated {
        schedules: vec![in_order(0, workload.records.len())],
        workload,
        rules: Vec::new(),
        load: 0,
    }
}
