//! `durable_mixed`: a synthetic sensor domain built through the service
//! API on a durable service, writes beside reads.

use super::{sub_seed, Generated, RuleText, Spec, SNAPSHOT};
use capra_core::persist::{Workload, WorkloadFact, WorkloadMeta, WorkloadRecord};
use capra_core::{Kb, RuleRepository};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const USERS: usize = 256;
pub const DOCS: usize = 256;
const RULES: usize = 8;
const PAGE: usize = 8;
/// A `save_snapshot` replaces every `SNAPSHOT_EVERY`-th operation.
const SNAPSHOT_EVERY: usize = 1_000;

pub const SPEC: Spec = Spec {
    name: "durable_mixed",
    why: "writes beside reads: WAL append, fsync, rotation, snapshot, compaction and recovery carry the asserts while ranks share the CPU",
    clients: 1,
    threads: 1,
    durable: true,
    warmup_ops: 500,
    pass_ops: 4_000,
    gated: false,
    generate,
};

pub fn user_name(i: usize) -> String {
    format!("User_{i}")
}

pub fn doc_name(i: usize) -> String {
    format!("Doc_{i}")
}

/// The load prefix asserts every user's eight `Ctx_i` readings and every
/// document's eight `Feat_i` readings; the stream then alternates sensor
/// updates (half on users, half on documents, so 4 096 slots share the
/// re-asserts) with 8-candidate ranks, and snapshots on a fixed period.
fn generate(seed: u64, ops: usize) -> Generated {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0));
    let reading = |subject: String, concept: String, rng: &mut StdRng| WorkloadRecord::Assert {
        subject,
        fact: WorkloadFact::ConceptProb(concept, rng.gen_range(0.05..=0.95)),
    };

    let mut records = Vec::new();
    for u in 0..USERS {
        for r in 0..RULES {
            records.push(reading(user_name(u), format!("Ctx_{r}"), &mut rng));
        }
    }
    for d in 0..DOCS {
        for r in 0..RULES {
            records.push(reading(doc_name(d), format!("Feat_{r}"), &mut rng));
        }
    }
    let load = records.len();

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let mut schedule = Vec::with_capacity(ops);
    for i in 0..ops {
        if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
            schedule.push(SNAPSHOT);
            continue;
        }
        schedule.push(records.len() as u32);
        if i % 2 == 0 {
            let r = rng.gen_range(0..RULES);
            records.push(if rng.gen_bool(0.5) {
                reading(
                    user_name(rng.gen_range(0..USERS)),
                    format!("Ctx_{r}"),
                    &mut rng,
                )
            } else {
                reading(
                    doc_name(rng.gen_range(0..DOCS)),
                    format!("Feat_{r}"),
                    &mut rng,
                )
            });
        } else {
            let mut docs: Vec<String> = Vec::with_capacity(PAGE);
            while docs.len() < PAGE {
                let doc = doc_name(rng.gen_range(0..DOCS));
                if !docs.contains(&doc) {
                    docs.push(doc);
                }
            }
            records.push(WorkloadRecord::Rank {
                user: user_name(rng.gen_range(0..USERS)),
                docs,
                k: PAGE as u32,
            });
        }
    }

    let rules = (0..RULES)
        .map(|r| RuleText {
            name: format!("S-{r}"),
            context: format!("Ctx_{r}"),
            preference: format!("Feat_{r}"),
            sigma: 0.5 + 0.05 * r as f64,
        })
        .collect();

    Generated {
        workload: Workload {
            meta: WorkloadMeta {
                domain: "sensors".into(),
                seed,
                comment: format!(
                    "durable_mixed users={USERS} docs={DOCS} rules={RULES} page={PAGE} ops={ops} snapshot_every={SNAPSHOT_EVERY}"
                ),
            },
            kb: Kb::new(),
            rules: RuleRepository::new(),
            records,
        },
        rules,
        load,
        schedules: vec![schedule],
    }
}
