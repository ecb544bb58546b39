//! `all`: every workload, timed run then traced run, each in a child
//! process of its own, one after another; and the `BENCHMARK.json`
//! manifest generated from the metric and workload tables.

use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::ALL;
use crate::{bench, Flags, RUN_SECONDS, SMOKE_SCALE};

/// `BENCHMARK.json`, from the tables in `spec.rs` and `workloads/`.
pub fn manifest() -> String {
    let s = |text: &str| Json::Str(text.into());
    let json = Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                ALL.iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = String::new();
    json.pretty(0, &mut text);
    text.push('\n');
    text
}

/// The "where does a rank request's time go" table of one workload.
pub fn self_time_table(rows: &[(&'static str, f64, f64)]) -> String {
    let medians: f64 = rows.iter().map(|r| r.1).sum();
    let means: f64 = rows.iter().map(|r| r.2).sum();
    let share = |v: f64, of: f64| if of > 0.0 { 100.0 * v / of } else { 0.0 };
    let mut out = String::from(
        "self time per rank request, us (median over the decomposed requests | mean):\n",
    );
    for (layer, median, mean) in rows {
        writeln!(
            out,
            "  {layer:<10} {median:>10.2} {:>5.1}% | {mean:>10.2} {:>5.1}%",
            share(*median, medians),
            share(*mean, means)
        )
        .expect("writing to a String");
    }
    out
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// Makes one run in a child process and returns the result it wrote.
fn child_run(
    name: &str,
    trace: bool,
    seed: u64,
    seconds: u64,
    scale: f64,
) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("starting the {name} child: {e}"))?;
    let kind = if trace { "traced" } else { "timed" };
    let path = bench::out_dir().join(format!("run-{name}-{kind}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((status.success(), Json::parse(&text)?))
}

pub fn all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("--seed", 42)?;
    let seconds: u64 = flags.number("--seconds", RUN_SECONDS)?;
    let smoke = flags.has("--smoke");
    let scale = if smoke { SMOKE_SCALE } else { 1.0 };
    let out = flags.value("--out").map_or_else(
        || bench::out_dir().join(format!("results-seed{seed}.json")),
        PathBuf::from,
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# capra benchmark: seed={seed} seconds={seconds} scale={scale} nproc={nproc}");

    let mut ok = true;
    let mut workloads = Vec::new();
    for spec in ALL {
        // One child at a time: a workload never shares the machine with
        // another.
        let (timed_ok, timed) = child_run(spec.name, false, seed, seconds, scale)?;
        let (traced_ok, traced) = child_run(spec.name, true, seed, seconds, scale)?;
        ok &= timed_ok && traced_ok;
        let same = |key: &str| timed.get(key) == traced.get(key);
        if !same("digest") {
            eprintln!("{}: the two runs generated different inputs", spec.name);
            ok = false;
        }
        if spec.clients == 1 && !same("transcript") {
            eprintln!("{}: timed and traced transcripts differ", spec.name);
            ok = false;
        }
        workloads.push((
            spec.name.to_string(),
            Json::Obj(vec![("timed".into(), timed), ("traced".into(), traced)]),
        ));
    }

    let results = Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds as f64)),
        ("scale".into(), Json::Num(scale)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    println!("\n{}", summary(&results));
    let mut text = String::new();
    results.pretty(0, &mut text);
    text.push('\n');
    std::fs::write(&out, text).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("results: {}", out.display());
    if !smoke {
        let path = repo_root().join("BENCHMARK.json");
        std::fs::write(&path, manifest()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one run failed");
        ExitCode::FAILURE
    })
}

/// The end-to-end table and the per-workload self-time shares, as
/// Markdown (the README's tables are pasted from here).
fn summary(results: &Json) -> String {
    let mut out = String::from("| workload |");
    for metric in END_TO_END {
        write!(out, " {} ({}) |", metric.name, metric.unit).expect("String");
    }
    out.push_str(" failed |\n|---|");
    out.push_str(&"---|".repeat(END_TO_END.len() + 1));
    out.push('\n');
    let workloads = results.get("workloads").map_or(&[][..], Json::fields);
    for (name, runs) in workloads {
        write!(out, "| `{name}` |").expect("String");
        let timed = runs.get("timed");
        for metric in END_TO_END {
            let value = timed
                .and_then(|t| t.get("metrics"))
                .and_then(|m| m.get(metric.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::num)
                .unwrap_or(f64::NAN);
            write!(out, " {value:.4} |").expect("String");
        }
        let failed = |kind: &str| {
            runs.get(kind)
                .and_then(|p| p.get("failed"))
                .and_then(Json::num)
                .unwrap_or(f64::NAN)
        };
        writeln!(out, " {} |", failed("timed") + failed("traced")).expect("String");
    }

    out.push_str("\nShare of a rank request's self time (medians over the decomposed requests):\n\n| workload |");
    for layer in crate::trace::LAYERS {
        write!(out, " {layer} |").expect("String");
    }
    out.push_str(" median total (us) | trace.overhead_share |\n|---|");
    out.push_str(&"---|".repeat(crate::trace::LAYERS.len() + 2));
    out.push('\n');
    for (name, runs) in workloads {
        let traced = runs.get("traced");
        let rows = traced.and_then(|t| t.get("self_time_us"));
        let median = |layer: &str| {
            rows.and_then(|r| r.get(layer))
                .and_then(|l| l.get("median"))
                .and_then(Json::num)
                .unwrap_or(0.0)
        };
        let total: f64 = crate::trace::LAYERS.iter().map(|l| median(l)).sum();
        write!(out, "| `{name}` |").expect("String");
        for layer in crate::trace::LAYERS {
            let share = if total > 0.0 {
                100.0 * median(layer) / total
            } else {
                0.0
            };
            write!(out, " {share:.1}% |").expect("String");
        }
        let overhead = traced
            .and_then(|t| t.get("metrics"))
            .and_then(|m| m.get("trace.overhead_share"))
            .and_then(|m| m.get("value"))
            .and_then(Json::num)
            .unwrap_or(f64::NAN);
        writeln!(out, " {total:.2} | {overhead:.4} |").expect("String");
    }
    out
}
