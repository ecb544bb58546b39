//! `xtask generate` — build a workload file from a domain pack.

use crate::args::Args;
use capra_core::persist::Workload;

/// The flags `generate` takes.
pub const FLAGS: &[&str] = &["domain", "out", "tiny", "seed", "requests"];

/// Builds the selected domain's workload (default-sized, or `--tiny`),
/// applying `--seed` / `--requests` overrides to the request stream.
pub fn run(args: &Args) -> Result<(), String> {
    let domain = args.require("domain")?;
    let out = args.require("out")?.to_string();
    let tiny = args.has("tiny");
    let seed = args.u64_opt("seed")?;
    let requests = args.usize_opt("requests")?;

    let workload = build(domain, tiny, seed, requests)?;
    workload
        .save(&out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: domain={} seed={} records={} ranks={} digest={:#018x}",
        workload.meta.domain,
        workload.meta.seed,
        workload.records.len(),
        workload.rank_records(),
        workload.file_digest()
    );
    Ok(())
}

fn build(
    domain: &str,
    tiny: bool,
    seed: Option<u64>,
    requests: Option<usize>,
) -> Result<Workload, String> {
    Ok(match domain {
        "commerce" => {
            use capra_commerce::workload::{build_workload, WorkloadConfig};
            let mut config = if tiny {
                WorkloadConfig::tiny()
            } else {
                WorkloadConfig::default()
            };
            if let Some(seed) = seed {
                config.seed = seed;
            }
            if let Some(requests) = requests {
                config.requests = requests;
            }
            build_workload(config)
        }
        "teamctx" => {
            use capra_teamctx::workload::{build_workload, WorkloadConfig};
            let mut config = if tiny {
                WorkloadConfig::tiny()
            } else {
                WorkloadConfig::default()
            };
            if let Some(seed) = seed {
                config.seed = seed;
            }
            if let Some(requests) = requests {
                config.requests = requests;
            }
            build_workload(config)
        }
        "tvtouch" => {
            use capra_tvtouch::workload::{build_workload, WorkloadConfig};
            let mut config = if tiny {
                WorkloadConfig::tiny()
            } else {
                WorkloadConfig::default()
            };
            if let Some(seed) = seed {
                config.seed = seed;
            }
            if let Some(requests) = requests {
                config.requests = requests;
            }
            build_workload(config)
        }
        other => {
            return Err(format!(
                "unknown domain `{other}` (expected commerce, teamctx or tvtouch)"
            ))
        }
    })
}
