//! Set-up: generate a workload's inputs, build the service, register the
//! names, and resolve the requests to ids. Everything here is what
//! `setup_s` measures.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use capra_core::persist::{WorkloadFact, WorkloadRecord};
use capra_core::serve::{workload_service, Fact};
use capra_core::{
    CompactionPolicy, FlushPolicy, GroupStrategy, Kb, LineageEngine, PreferenceRule,
    RankingService, RuleRepository, Score, ServiceConfig,
};
use capra_dl::IndividualId;

use crate::workloads::{Generated, Spec};

/// Every workload runs the engine that accepts every rule set.
pub type Service = RankingService<LineageEngine>;

/// Records the WAL groups under one `fsync`.
pub const FLUSH_EVERY: u32 = 32;
/// Records per WAL segment before it rotates.
pub const SEGMENT_RECORDS: u64 = 256;
pub const FLUSH: FlushPolicy = FlushPolicy::EveryN(FLUSH_EVERY);

/// One request, names resolved to ids.
pub enum Op {
    Assert {
        subject: IndividualId,
        fact: Fact,
    },
    Rank {
        user: IndividualId,
        docs: Vec<IndividualId>,
        k: usize,
    },
    Group {
        users: Vec<IndividualId>,
        docs: Vec<IndividualId>,
        k: usize,
        strategy: GroupStrategy,
    },
}

/// How a comparison run deviates from the workload's own shape.
#[derive(Clone, Copy)]
pub struct Variant {
    /// `ServiceConfig::threads`.
    pub threads: usize,
    /// Open durably (only meaningful for a durable workload).
    pub durable: bool,
}

impl Variant {
    pub fn of(spec: &Spec) -> Self {
        Self {
            threads: spec.threads,
            durable: spec.durable,
        }
    }
}

/// A service ready to take the workload's requests.
pub struct Bench {
    pub service: Arc<Service>,
    /// Index-aligned with the generated workload's records.
    pub ops: Vec<Op>,
    pub schedules: Vec<Vec<u32>>,
    /// Individual names by `IndividualId::index`, for transcript hashing.
    pub names: Vec<Box<str>>,
    /// `Workload::file_digest` of the generated inputs.
    pub digest: u64,
    /// Time spent inside the generator, part of set-up.
    pub generate_ms: f64,
    /// The durable service's directory (removed on drop).
    pub dir: Option<PathBuf>,
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        segment_records: SEGMENT_RECORDS,
        compaction: CompactionPolicy::Covered,
        ..ServiceConfig::default()
    }
}

/// `benchmark/out`, where traces, result files and durable directories go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory name under `out/` no other set-up of this process uses.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!("{tag}-{}-{n}", std::process::id()))
}

/// Registers `name` with the service on first sight.
fn resolve<'w>(
    service: &Service,
    ids: &mut HashMap<&'w str, IndividualId>,
    name: &'w str,
) -> IndividualId {
    *ids.entry(name).or_insert_with(|| service.individual(name))
}

/// Generates the inputs and builds a service over them.
pub fn setup(spec: &Spec, seed: u64, ops: usize, variant: Variant) -> Result<Bench, String> {
    let started = Instant::now();
    let generated = (spec.generate)(seed, ops);
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let digest = generated.workload.file_digest();
    let config = service_config(variant.threads);
    let err = |e: capra_core::CoreError| e.to_string();
    let Generated {
        workload,
        rules,
        load,
        schedules,
    } = generated;

    let mut dir = None;
    let service = if variant.durable {
        let path = fresh_dir("durable");
        let service = RankingService::open_durable(LineageEngine::new(), config, &path, FLUSH)
            .map_err(err)?;
        dir = Some(path);
        service
    } else if rules.is_empty() {
        workload_service(LineageEngine::new(), config, &workload)
    } else {
        // The in-memory twin of a workload that builds its world through
        // the service API starts as empty as the durable one does.
        RankingService::with_config(
            LineageEngine::new(),
            Kb::new(),
            RuleRepository::new(),
            config,
        )
    };
    // From here on a failure must still remove the directory.
    let mut bench = Bench {
        service: Arc::new(service),
        ops: Vec::new(),
        schedules,
        names: Vec::new(),
        digest,
        generate_ms,
        dir,
    };
    let service = &bench.service;

    for rule in &rules {
        let context = service.parse(&rule.context).map_err(err)?;
        let preference = service.parse(&rule.preference).map_err(err)?;
        let sigma = Score::new(rule.sigma).map_err(err)?;
        service
            .add_rule(PreferenceRule::new(
                rule.name.clone(),
                context,
                preference,
                sigma,
            ))
            .map_err(err)?;
    }

    // Register every name once, in first-occurrence order (the order
    // fixes the interned handles, as in `serve::replay`).
    let mut ids: HashMap<&str, IndividualId> = HashMap::new();
    let mut id = |name| resolve(service, &mut ids, name);
    let mut ops = Vec::with_capacity(workload.records.len());
    for record in &workload.records {
        ops.push(match record {
            WorkloadRecord::Assert { subject, fact } => Op::Assert {
                subject: id(subject),
                fact: match fact {
                    WorkloadFact::Concept(c) => Fact::Concept(c.clone()),
                    WorkloadFact::ConceptProb(c, p) => Fact::ConceptProb(c.clone(), *p),
                    WorkloadFact::Role(r, o) => Fact::Role(r.clone(), id(o)),
                    WorkloadFact::RoleProb(r, o, p) => Fact::RoleProb(r.clone(), id(o), *p),
                },
            },
            WorkloadRecord::Rank { user, docs, k } => Op::Rank {
                user: id(user),
                docs: docs.iter().map(|d| id(d)).collect(),
                k: *k as usize,
            },
            WorkloadRecord::RankGroup {
                users,
                docs,
                k,
                strategy,
            } => Op::Group {
                users: users.iter().map(|u| id(u)).collect(),
                docs: docs.iter().map(|d| id(d)).collect(),
                k: *k as usize,
                strategy: strategy.clone(),
            },
        });
    }

    for op in &ops[..load] {
        match op {
            Op::Assert { subject, fact } => service.assert(*subject, fact.clone()).map_err(err)?,
            _ => return Err("the load prefix holds asserts only".into()),
        }
    }
    if variant.durable {
        // Leaves the WAL flushed and freshly rotated: the point from which
        // the harness mirrors the flush policy's counters.
        service.save_snapshot().map_err(err)?;
    }

    bench.names = service.kb().voc.individual_names().map(Box::from).collect();
    bench.ops = ops;
    Ok(bench)
}
