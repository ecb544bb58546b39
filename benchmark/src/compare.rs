//! `compare A.json B.json`: is run B no worse than run A?
//!
//! Every end-to-end metric is held to its bound in its direction; what
//! must repeat exactly — failures, input digests, transcript hashes and
//! the counted per-layer metrics of single-client workloads — is held to
//! equality.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{Better, Kind, END_TO_END, PER_LAYER};
use crate::workloads::ALL;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric(run: &Json, workload: &str, kind: &str, name: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get(kind)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .num()
}

fn fact<'a>(run: &'a Json, workload: &str, kind: &str, key: &str) -> Option<&'a Json> {
    run.get("workloads")?.get(workload)?.get(kind)?.get(key)
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare <A.json> <B.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = 0;
    println!(
        "{:<20} {:<30} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for spec in ALL {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (
                metric(&a, spec.name, "timed", m.name),
                metric(&b, spec.name, "timed", m.name),
            ) else {
                println!("{:<20} {:<30} missing from one side", spec.name, m.name);
                bad += 1;
                continue;
            };
            // Positive = B is worse, as a share of A.
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let verdict = if worse <= 0.0 {
                "better"
            } else if worse <= m.bound {
                "within bound"
            } else {
                bad += 1;
                "WORSE"
            };
            println!(
                "{:<20} {:<30} {x:>14.4} {y:>14.4} {:>+8.2}%  {verdict} (bound {:.0}%)",
                spec.name,
                m.name,
                100.0 * (y - x) / x,
                100.0 * m.bound
            );
        }

        let mut exact = |what: &str, x: Option<&Json>, y: Option<&Json>| {
            let same = x.is_some() && x == y;
            if !same {
                bad += 1;
            }
            println!(
                "{:<20} {:<30} {}",
                spec.name,
                what,
                if same { "equal" } else { "DIFFERS" }
            );
        };
        for kind in ["timed", "traced"] {
            let zero = Json::Num(0.0);
            for side in [&a, &b] {
                exact(
                    &format!("{kind} failed == 0"),
                    fact(side, spec.name, kind, "failed"),
                    Some(&zero),
                );
            }
            exact(
                &format!("{kind} digest"),
                fact(&a, spec.name, kind, "digest"),
                fact(&b, spec.name, kind, "digest"),
            );
            if spec.clients == 1 {
                exact(
                    &format!("{kind} transcript"),
                    fact(&a, spec.name, kind, "transcript"),
                    fact(&b, spec.name, kind, "transcript"),
                );
            }
        }
        if spec.clients == 1 {
            for m in PER_LAYER.iter().filter(|m| m.kind == Kind::Count) {
                let x = metric(&a, spec.name, "traced", m.name).map(Json::Num);
                let y = metric(&b, spec.name, "traced", m.name).map(Json::Num);
                exact(m.name, x.as_ref(), y.as_ref());
            }
        }
    }
    if bad == 0 {
        println!("compare: B is no worse than A");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("compare: {bad} rows fail");
        Ok(ExitCode::FAILURE)
    }
}
