//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p capra-bench --bin experiments            # everything
//! cargo run --release -p capra-bench --bin experiments -- --fast # smaller DB, capped k
//! cargo run --release -p capra-bench --bin experiments -- --figure1 --table1
//! cargo run --release -p capra-bench --bin experiments -- --fast --scaling \
//!     --json BENCH_scaling.json                                  # CI perf snapshot
//! ```
//!
//! Sections:
//! * `--figure1` — the Figure 1 distribution and P(neither) = 0.08;
//! * `--table1` — Table 1 / Section 4.2 scores on all four engines;
//! * `--scaling` — the Section 5 experiment: query time vs. number of rules
//!   on the ≈11 000-tuple database (naive engines exponential, the
//!   factorized/lineage engines flat);
//! * `--mining` — σ̂ convergence (the Discussion's mining question).

use std::time::{Duration, Instant};

use capra_bench::ScalingWorkload;
use capra_core::{
    explain, FactorizedEngine, LineageEngine, NaiveEnumEngine, NaiveViewEngine, ScoringEngine,
};
use capra_tvtouch::generate::DbConfig;
use capra_tvtouch::history_sim::{simulate, GroundTruth, SimConfig};
use capra_tvtouch::scenario::{
    figure1_history, paper_scenario, FIGURE1_CONTEXT, PAPER_EXPECTED_SCORES,
};

const KNOWN_SECTIONS: [&str; 4] = ["--figure1", "--table1", "--scaling", "--mining"];

fn main() {
    // Parse: consume `--json <path>` as a pair, `--fast` as a modifier;
    // everything else must be a known section flag.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut json_path: Option<String> = None;
    let mut sections: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--json" => match it.next() {
                Some(path) if !path.starts_with("--") => json_path = Some(path),
                _ => {
                    eprintln!("error: --json requires a file path argument");
                    std::process::exit(2);
                }
            },
            flag if KNOWN_SECTIONS.contains(&flag) => sections.push(arg),
            other => {
                eprintln!(
                    "error: unknown flag `{other}` (sections: {}, modifiers: --fast, --json <path>)",
                    KNOWN_SECTIONS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    let all = sections.is_empty();
    let wants = |flag: &str| all || sections.iter().any(|a| a == flag);
    if json_path.is_some() && !wants("--scaling") {
        eprintln!("error: --json emits the scaling snapshot; add --scaling (or run all sections)");
        std::process::exit(2);
    }

    println!("CAPRA experiment harness — reproduction of van Bunningen et al., ICDE 2007");
    println!("mode: {}\n", if fast { "fast" } else { "full" });

    if wants("--figure1") {
        figure1();
    }
    if wants("--table1") {
        table1();
    }
    if wants("--scaling") {
        scaling(fast, json_path.as_deref());
    }
    if wants("--mining") {
        mining(fast);
    }
}

/// Figure 1: distribution of video features on a workday morning.
fn figure1() {
    println!("== Figure 1: distribution of video features on a workday morning ==");
    let log = figure1_history();
    let dist = log.feature_distribution(FIGURE1_CONTEXT);
    for (feature, sigma) in &dist {
        let bar = "#".repeat((sigma * 40.0).round() as usize);
        println!("  {feature:<18} {sigma:>5.2}  {bar}");
    }
    let p_neither = (1.0 - dist["TrafficBulletin"]) * (1.0 - dist["WeatherBulletin"]);
    println!(
        "  P(program with neither bulletin is ideal) = (1-0.8)·(1-0.6) = {p_neither:.2}  \
         [paper: 0.08]\n"
    );
}

/// Table 1 + Section 4.2: the worked example on all four engines.
fn table1() {
    println!("== Table 1 / Section 4.2: scores of the four TV programs ==");
    let scenario = paper_scenario();
    let env = scenario.env();
    let engines: Vec<Box<dyn ScoringEngine>> = vec![
        Box::new(NaiveViewEngine::new()),
        Box::new(NaiveEnumEngine::new()),
        Box::new(FactorizedEngine::new()),
        Box::new(LineageEngine::new()),
    ];
    print!("  {:<30} {:>8}", "program", "paper");
    for e in &engines {
        print!(" {:>12}", e.name());
    }
    println!();
    let per_engine: Vec<Vec<f64>> = engines
        .iter()
        .map(|e| {
            e.score_all(&env, &scenario.programs)
                .expect("paper scenario scores")
                .into_iter()
                .map(|s| s.score)
                .collect()
        })
        .collect();
    for (i, (name, expected)) in PAPER_EXPECTED_SCORES.iter().enumerate() {
        print!("  {name:<30} {expected:>8.4}");
        for scores in &per_engine {
            print!(" {:>12.4}", scores[i]);
        }
        println!();
    }
    println!("\n  explanation of the winner:");
    let text = explain(&env, scenario.programs[2]).expect("explanation");
    for line in text.to_string().lines() {
        println!("  {line}");
    }
    println!();
}

/// One measured cell of the scaling experiment, for the JSON snapshot.
struct ScalingRow {
    rules: usize,
    naive_view_s: Option<f64>,
    naive_enum_s: Option<f64>,
    factorized_s: f64,
    lineage_s: f64,
}

/// Writes the perf snapshot consumed by CI trend tracking. Hand-rolled
/// JSON — the snapshot is flat and this build has no serde.
fn write_scaling_json(path: &str, db_tuples: usize, rows: &[ScalingRow]) {
    use std::fmt::Write as _;
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |s| format!("{s:.6}"));
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"experiment\": \"rule_scaling\",");
    let _ = writeln!(out, "  \"db_tuples\": {db_tuples},");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"rules\": {}, \"naive_view_s\": {}, \"naive_enum_s\": {}, \
             \"factorized_s\": {:.6}, \"lineage_s\": {:.6}}}{}",
            r.rules,
            opt(r.naive_view_s),
            opt(r.naive_enum_s),
            r.factorized_s,
            r.lineage_s,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    match std::fs::write(path, out) {
        Ok(()) => println!("  wrote perf snapshot to {path}\n"),
        Err(e) => eprintln!("  failed to write {path}: {e}"),
    }
}

/// Section 5: query time vs. number of rules.
fn scaling(fast: bool, json_path: Option<&str>) {
    println!("== Section 5: query time vs. number of rules ==");
    let config = if fast {
        DbConfig {
            persons: 100,
            programs: 60,
            ..DbConfig::default()
        }
    } else {
        DbConfig::default()
    };
    let max_naive = if fast { 5 } else { 7 };
    let max_fast_engines = 16usize;
    let rule_counts: Vec<usize> = (1..=max_fast_engines).collect();
    let workload = ScalingWorkload::new(config, &rule_counts);
    println!(
        "  database: {} tuples ({} persons, {} programs) — paper: ≈11000",
        workload.db.num_tuples(),
        workload.db.persons.len(),
        workload.db.programs.len()
    );
    println!(
        "  paper's measurements (PostgreSQL, 2006): 1–4 rules < 1 s; \
         5–6 rules 4–20 s; 7 rules did not finish in 30 min\n"
    );
    println!(
        "  {:>6} {:>14} {:>14} {:>14} {:>14}",
        "rules", "naive-view", "naive-enum", "factorized", "lineage"
    );

    // Stop a naive engine once a run exceeds the budget; report DNF after.
    let budget = Duration::from_secs(if fast { 10 } else { 120 });
    let mut view_dnf = false;
    let mut enum_dnf = false;
    let mut rows: Vec<ScalingRow> = Vec::new();
    for (k, rules) in &workload.rule_sets {
        let env = workload.env(rules);
        let view_s = if *k <= max_naive && !view_dnf {
            let t = Instant::now();
            NaiveViewEngine { max_rules: 16 }
                .score_all(&env, workload.docs())
                .expect("naive-view scores");
            let dt = t.elapsed();
            if dt > budget {
                view_dnf = true;
            }
            Some(dt.as_secs_f64())
        } else {
            None
        };
        let enum_s = if *k <= max_naive + 2 && !enum_dnf {
            let t = Instant::now();
            NaiveEnumEngine {
                max_rules: 20,
                ..NaiveEnumEngine::new()
            }
            .score_all(&env, workload.docs())
            .expect("naive-enum scores");
            let dt = t.elapsed();
            if dt > budget {
                enum_dnf = true;
            }
            Some(dt.as_secs_f64())
        } else {
            None
        };
        let t = Instant::now();
        FactorizedEngine::new()
            .score_all(&env, workload.docs())
            .expect("factorized scores");
        let fact_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        LineageEngine::new()
            .score_all(&env, workload.docs())
            .expect("lineage scores");
        let lin_s = t.elapsed().as_secs_f64();
        let cell = |v: Option<f64>| v.map_or("DNF".to_string(), |s| format!("{s:>11.3} s"));
        println!(
            "  {k:>6} {:>14} {:>14} {:>14} {:>14}",
            cell(view_s),
            cell(enum_s),
            format!("{fact_s:>11.3} s"),
            format!("{lin_s:>11.3} s")
        );
        rows.push(ScalingRow {
            rules: *k,
            naive_view_s: view_s,
            naive_enum_s: enum_s,
            factorized_s: fact_s,
            lineage_s: lin_s,
        });
    }
    if let Some(path) = json_path {
        write_scaling_json(path, workload.db.num_tuples(), &rows);
    }
    println!(
        "\n  expected shape: the naive engines multiply cost by ≈4 per added rule \
         (2ⁿ context × 2ⁿ document feature combinations);\n  the factorized and \
         lineage engines stay linear — the improvement the paper's Discussion \
         section calls for.\n"
    );
}

/// Mining convergence (Discussion: "Mining/learning preferences").
fn mining(fast: bool) {
    println!("== Mining: σ̂ convergence toward ground truth ==");
    let ground_truth = vec![
        GroundTruth::new("WorkdayMorning", "TrafficBulletin", 0.8),
        GroundTruth::new("WorkdayMorning", "WeatherBulletin", 0.6),
    ];
    let sizes: &[usize] = if fast {
        &[20, 100, 500, 2500]
    } else {
        &[20, 100, 500, 2500, 10000, 40000]
    };
    println!(
        "  {:>9} {:>26} {:>26}",
        "episodes", "σ̂(morning,traffic) [0.80]", "σ̂(morning,weather) [0.60]"
    );
    for &episodes in sizes {
        let log = simulate(&ground_truth, episodes, &SimConfig::default());
        let cell = |f: &str| {
            log.sigma("WorkdayMorning", f)
                .map(|(sigma, n)| format!("{sigma:.4} (n={n})"))
                .unwrap_or_else(|| "—".to_string())
        };
        println!(
            "  {episodes:>9} {:>26} {:>26}",
            cell("TrafficBulletin"),
            cell("WeatherBulletin")
        );
    }
    println!();
}
