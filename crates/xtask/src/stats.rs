//! `xtask stats` — describe a workload file without replaying it.

use crate::args::Args;
use capra_core::persist::{Workload, WorkloadRecord};

/// The flags `stats` takes.
pub const FLAGS: &[&str] = &["file"];

/// Loads `--file` and prints its provenance, record mix and sizes.
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.require("file")?;
    let workload = Workload::load(path).map_err(|e| format!("reading {path}: {e}"))?;

    let (mut asserts, mut ranks, mut group_ranks, mut docs) = (0usize, 0usize, 0usize, 0usize);
    for record in &workload.records {
        match record {
            WorkloadRecord::Assert { .. } => asserts += 1,
            WorkloadRecord::Rank { docs: d, .. } => {
                ranks += 1;
                docs += d.len();
            }
            WorkloadRecord::RankGroup { docs: d, .. } => {
                group_ranks += 1;
                docs += d.len();
            }
        }
    }
    println!("file {path}: digest {:#018x}", workload.file_digest());
    println!(
        "  meta: domain={} seed={} comment={:?}",
        workload.meta.domain, workload.meta.seed, workload.meta.comment
    );
    println!(
        "  initial state: {} ABox tuples, {} rules",
        workload.kb.abox.num_tuples(),
        workload.rules.len()
    );
    println!(
        "  records: {} total ({asserts} assert, {ranks} rank, {group_ranks} group-rank, \
         {docs} candidate docs)",
        workload.records.len()
    );
    Ok(())
}
