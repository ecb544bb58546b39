//! `xtask bench` — time repeated replays of a workload file.
//!
//! A coarse wall-clock harness for interactive use; timings that gate a
//! change come from `benchmark/` (every workload there is such a replay),
//! and the replay's exact transcripts are pinned in
//! `tests/workload_replay.rs`.

use std::time::Instant;

use crate::args::Args;
use crate::engine;
use capra_core::persist::Workload;
use capra_core::serve::{replay_workload, workload_service, ServiceConfig};

/// The flags `bench` takes.
pub const FLAGS: &[&str] = &["file", "engine", "iters"];

/// Replays `--file` `--iters` times (default 3) on `--engine` and
/// prints per-iteration wall time and request throughput. The service
/// is rebuilt each iteration so every replay pays the cold path.
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.require("file")?;
    let engine_name = args.opt("engine").unwrap_or("lineage");
    let iters = args.usize_opt("iters")?.unwrap_or(3).max(1);

    let workload = Workload::load(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut first_hash = None;
    for i in 0..iters {
        let config = ServiceConfig::default();
        let service = workload_service(engine::by_name(engine_name)?, config, &workload);
        let start = Instant::now();
        let report = replay_workload(&service, &workload).map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        let per_sec = report.requests as f64 / elapsed.as_secs_f64().max(1e-9);
        println!(
            "iter {i}: {:?} for {} requests ({per_sec:.0} req/s), transcript {:#018x}",
            elapsed, report.requests, report.transcript_hash
        );
        match first_hash {
            None => first_hash = Some(report.transcript_hash),
            Some(h) if h != report.transcript_hash => {
                return Err("transcript hash changed between iterations".into())
            }
            Some(_) => {}
        }
    }
    Ok(())
}
