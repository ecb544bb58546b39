//! `xtask replay` — drive a workload file through a fresh
//! [`capra_core::serve::RankingService`] and print the transcript hash.
//!
//! Two replays of the same file with the same engine print the same
//! transcript line, bit for bit — the property the CI determinism step
//! diffs for.

use crate::args::Args;
use crate::engine;
use capra_core::persist::Workload;
use capra_core::serve::{replay_workload, workload_service, ServiceConfig};

/// The flags `replay` takes.
pub const FLAGS: &[&str] = &["file", "engine"];

/// Loads `--file`, replays it on `--engine` (default `lineage`), and
/// prints the digest + report.
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.require("file")?;
    let engine = engine::by_name(args.opt("engine").unwrap_or("lineage"))?;
    let workload = Workload::load(path).map_err(|e| format!("reading {path}: {e}"))?;
    let service = workload_service(engine, ServiceConfig::default(), &workload);
    let report = replay_workload(&service, &workload).map_err(|e| e.to_string())?;
    println!(
        "file {path}: domain={} seed={} digest={:#018x}",
        workload.meta.domain,
        workload.meta.seed,
        workload.file_digest()
    );
    println!("{report}");
    Ok(())
}
