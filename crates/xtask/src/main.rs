//! `xtask` — the workload CLI: one command per file, in the cargo-xtask
//! style. Workload files are the `.capra` format of
//! [`capra_core::persist::Workload`]; every command is deterministic,
//! which is what the CI replay-determinism check leans on:
//!
//! ```text
//! cargo run -p xtask -- generate --domain commerce --tiny --out w.capra
//! cargo run -p xtask -- replay --file w.capra --engine lineage
//! cargo run -p xtask -- bench --file w.capra --iters 3
//! cargo run -p xtask -- stats --file w.capra
//! ```

mod args;
mod bench;
mod engine;
mod generate;
mod replay;
mod stats;

use std::process::ExitCode;

const USAGE: &str = "\
xtask — capra workload CLI

USAGE:
    xtask <COMMAND> [OPTIONS]

COMMANDS:
    generate   Build a workload file from a domain pack generator
               --domain commerce|teamctx|tvtouch  --out FILE
               [--tiny] [--seed N] [--requests N]
    replay     Replay a workload file against a fresh RankingService
               --file FILE  [--engine naive-view|naive-enum|factorized|lineage]
    bench      Time repeated replays of a workload file
               --file FILE  [--engine E] [--iters N]
    stats      Describe a workload file without replaying it
               --file FILE
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    type Run = fn(&args::Args) -> Result<(), String>;
    let (flags, run): (&[&str], Run) = match command.as_str() {
        "generate" => (generate::FLAGS, generate::run),
        "replay" => (replay::FLAGS, replay::run),
        "bench" => (bench::FLAGS, bench::run),
        "stats" => (stats::FLAGS, stats::run),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args::Args::parse(rest, flags) {
        Ok(parsed) => run(&parsed),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
