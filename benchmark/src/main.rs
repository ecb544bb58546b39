//! The CAPRA serving benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run of one workload
//! benchmark [all] [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]   every workload, timed and traced
//! benchmark compare <A.json> <B.json>                                  two result files
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod bench;
mod compare;
mod driver;
mod json;
mod oracle;
mod run;
mod spec;
mod suite;
mod trace;
mod workloads;
mod yardstick;

use std::process::ExitCode;

use json::Json;
use run::{Outcome, RunArgs};

/// Seconds a timed run fills with passes; `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 36;
/// Operation-count multiplier of `--smoke` (which also stops after two
/// passes: about 1/50 of a full run's operations).
pub const SMOKE_SCALE: f64 = 0.08;

/// `--name value` pairs and bare flags, after the optional subcommand.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: `{text}` is not a valid number")),
            None if self.has(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
        }
    }
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// The run as a JSON object: what `all` collects and `compare` reads.
pub fn outcome_json(args: &RunArgs, outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(metric, value)| {
            (
                metric.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(metric.unit.into())),
                ]),
            )
        })
        .collect();
    let mut fields = vec![
        ("workload".into(), Json::Str(args.spec.name.into())),
        (
            "kind".into(),
            Json::Str(if args.trace { "traced" } else { "timed" }.into()),
        ),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("scale".into(), Json::Num(args.scale)),
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("digest".into(), Json::Str(hex(outcome.digest))),
        ("transcript".into(), Json::Str(hex(outcome.transcript))),
        ("metrics".into(), Json::Obj(metrics)),
        (
            "notes".into(),
            Json::Obj(
                outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ];
    if !outcome.self_time.is_empty() {
        fields.push((
            "self_time_us".into(),
            Json::Obj(
                outcome
                    .self_time
                    .iter()
                    .map(|(layer, median, mean)| {
                        (
                            layer.to_string(),
                            Json::Obj(vec![
                                ("median".into(), Json::Num(*median)),
                                ("mean".into(), Json::Num(*mean)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

/// One run of one workload, as the driver's contract asks: every metric
/// by name with its unit, then one JSON object as the last line.
fn single(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or("--workload needs a name")?;
    let spec = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<_> = workloads::ALL.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            known.join(", ")
        )
    })?;
    let args = RunArgs {
        spec,
        seed: flags.number("--seed", 42)?,
        seconds: flags.number("--seconds", RUN_SECONDS)?,
        scale: flags.number("--scale", 1.0)?,
        trace: flags.number::<u8>("--trace", 0)? != 0,
        corrupt: std::env::var_os("CAPRA_BENCH_CORRUPT").is_some(),
    };
    if args.seconds == 0 || args.scale.is_nan() || args.scale <= 0.0 {
        return Err("--seconds and --scale must be positive".into());
    }
    let outcome = run::run(&args)?;

    let kind = if args.trace { "traced" } else { "timed" };
    println!(
        "# {} ({kind} run) seed={} seconds={} scale={}",
        spec.name, args.seed, args.seconds, args.scale
    );
    println!("# {}", spec.why);
    println!("workload_digest = {}", hex(outcome.digest));
    println!("transcript_hash = {}", hex(outcome.transcript));
    for (key, value) in &outcome.notes {
        println!("{key} = {value}");
    }
    for (metric, value) in &outcome.metrics {
        println!("{} = {value} {}", metric.name, metric.unit);
    }
    if !outcome.self_time.is_empty() {
        print!("{}", suite::self_time_table(&outcome.self_time));
    }
    println!(
        "failed_share = {} ({} of {} calls and checks)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );

    let full = outcome_json(&args, &outcome);
    let mut text = String::new();
    full.pretty(0, &mut text);
    text.push('\n');
    let path = bench::out_dir().join(format!("run-{}-{kind}.json", spec.name));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        (
            "metrics".into(),
            full.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ]);
    let mut line = String::new();
    last.write(&mut line);
    println!("{line}");
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("all" | "compare" | "manifest") => argv.remove(0),
        _ if argv.iter().any(|a| a == "--workload") => "single".into(),
        _ => "all".into(),
    };
    let flags = Flags(argv);
    let result = match command.as_str() {
        "single" => single(&flags),
        "compare" => compare::run(&flags.0),
        "manifest" => {
            print!("{}", suite::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => suite::all(&flags),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
