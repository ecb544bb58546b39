//! Integration of preference scores with ordinary SQL queries — the paper's
//! introduction scenario:
//!
//! ```sql
//! SELECT name, preferencescore
//! FROM Programs
//! WHERE preferencescore > 0.5
//! ORDER BY preferencescore DESC
//! ```
//!
//! *"where the underlying context-aware database would dynamically assign a
//! preference score to each program."* [`install_preference_scores`]
//! computes the scores with any engine and registers them as a table, and
//! [`ranked_query`] runs the paper's query shape end-to-end. The final step
//! matches Section 5: *"adapt the query results of the user by ordering the
//! tuples in the result, based on the probability from the big preference
//! view … the probability of the query-dependent part is either 1, if the
//! tuple was contained in the user query, or 0 if it was not."*

use capra_dl::IndividualId;
use capra_reldb::{Catalog, DataType, Datum, Relation, Row, Schema};

use crate::compile::individual_datum;
use crate::engines::{DocScore, ScoringEngine};
use crate::topk::rank_top_k;
use crate::{Result, ScoringEnv};

/// Name of the column carrying the context-aware score, as in the paper.
pub const SCORE_COLUMN: &str = "preferencescore";

/// Renders a finite `f64` as a SQL literal that the lexer is guaranteed to
/// accept and that parses back to the exact same value.
///
/// A plain decimal lexer rejects scientific notation (`1e-7`). Rust's `f64`
/// `Display` is positional today (it is `Debug`/`{:e}` that use exponent
/// form), but that is a de-facto behaviour, not a documented guarantee —
/// this helper pins the contract regardless. The fallback works because
/// every finite `f64` is a dyadic rational: its exact decimal expansion is
/// finite — at most 1074 fractional digits (subnormals) — and re-parsing an
/// exact expansion recovers the exact value.
fn sql_float_literal(value: f64) -> String {
    let shortest = format!("{value}");
    if !shortest.contains(['e', 'E']) {
        return shortest;
    }
    let mut exact = format!("{value:.1074}");
    while exact.ends_with('0') {
        exact.pop();
    }
    if exact.ends_with('.') {
        exact.push('0');
    }
    exact
}

/// Registers (or replaces) table `<table>` (`doc ID, preferencescore
/// FLOAT`) in the catalog with the given scores. Returns the number of rows.
fn install_scores(scores: Vec<DocScore>, catalog: &Catalog, table: &str) -> Result<usize> {
    let handle = match catalog.table(table) {
        Ok(t) => {
            t.clear();
            t
        }
        Err(_) => catalog.create_table(
            table,
            Schema::of(&[("doc", DataType::Id), (SCORE_COLUMN, DataType::Float)]),
        )?,
    };
    let n = scores.len();
    handle.insert(
        scores
            .into_iter()
            .map(|s| Row::certain(vec![individual_datum(s.doc), Datum::Float(s.score)]))
            .collect(),
    )?;
    Ok(n)
}

/// Scores `docs` with `engine` and registers table
/// `<table>` (`doc ID, preferencescore FLOAT`) in the catalog, replacing any
/// previous contents. Returns the number of scored documents.
pub fn install_preference_scores(
    env: &ScoringEnv<'_>,
    engine: &dyn ScoringEngine,
    docs: &[IndividualId],
    catalog: &Catalog,
    table: &str,
) -> Result<usize> {
    install_scores(engine.score_all(env, docs)?, catalog, table)
}

/// Runs the paper's ranked query against a documents table.
///
/// `doc_table` must have an `ID`-typed column `id_column` whose values were
/// produced by [`individual_datum`] (i.e. the DL individual of each row),
/// plus whatever display columns the caller selects. The function scores the
/// documents, joins, filters by `threshold`, and orders descending — the
/// full pipeline of the introduction's TVTouch query.
#[allow(clippy::too_many_arguments)] // mirrors the SQL clause structure
pub fn ranked_query(
    env: &ScoringEnv<'_>,
    engine: &dyn ScoringEngine,
    docs: &[IndividualId],
    catalog: &Catalog,
    doc_table: &str,
    id_column: &str,
    display_columns: &[&str],
    threshold: f64,
) -> Result<Relation> {
    install_preference_scores(env, engine, docs, catalog, "preference_scores")?;
    run_ranked_sql(
        env,
        catalog,
        doc_table,
        id_column,
        display_columns,
        threshold,
        None,
    )
}

/// The `LIMIT k` variant of [`ranked_query`]: only the exact top `k`
/// documents reach the SQL side — [`rank_top_k`] settles them before any
/// SQL runs, evaluating a costly document only while it can still reach
/// the top-k — and the emitted query carries a matching `LIMIT` clause. Produces the same rows as running
/// [`ranked_query`] and truncating to `k`, except that rows *tied* on
/// score at the `k` boundary are chosen by document id (the deterministic
/// tie-break of [`crate::rank`]), whereas the plain query's stable sort
/// leaves ties in table order.
#[allow(clippy::too_many_arguments)] // mirrors the SQL clause structure
pub fn ranked_query_top_k(
    env: &ScoringEnv<'_>,
    engine: &dyn ScoringEngine,
    docs: &[IndividualId],
    catalog: &Catalog,
    doc_table: &str,
    id_column: &str,
    display_columns: &[&str],
    threshold: f64,
    k: usize,
) -> Result<Relation> {
    let top = rank_top_k(env, engine, docs, k)?;
    install_scores(top, catalog, "preference_scores")?;
    run_ranked_sql(
        env,
        catalog,
        doc_table,
        id_column,
        display_columns,
        threshold,
        Some(k),
    )
}

fn run_ranked_sql(
    env: &ScoringEnv<'_>,
    catalog: &Catalog,
    doc_table: &str,
    id_column: &str,
    display_columns: &[&str],
    threshold: f64,
    limit: Option<usize>,
) -> Result<Relation> {
    let select_list = display_columns
        .iter()
        .map(|c| format!("d.{c}"))
        .chain([format!("s.{SCORE_COLUMN}")])
        .collect::<Vec<_>>()
        .join(", ");
    let threshold = sql_float_literal(threshold);
    let limit = limit.map(|k| format!(" LIMIT {k}")).unwrap_or_default();
    let sql = format!(
        "SELECT {select_list} FROM {doc_table} d \
         JOIN preference_scores s ON d.{id_column} = s.doc \
         WHERE s.{SCORE_COLUMN} > {threshold} \
         ORDER BY {SCORE_COLUMN} DESC{limit}"
    );
    Ok(capra_reldb::sql::execute(
        catalog,
        Some(&env.kb.universe),
        &sql,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactorizedEngine, Kb, PreferenceRule, RuleRepository, Score};
    use capra_reldb::certain_rows;

    fn fixture() -> (Kb, RuleRepository, IndividualId, Vec<IndividualId>, Catalog) {
        let mut kb = Kb::new();
        let user = kb.individual("peter");
        kb.assert_concept(user, "Weekend");
        kb.assert_concept(user, "Breakfast");
        let oprah = kb.individual("Oprah");
        let bbc = kb.individual("BBC news");
        let ch5 = kb.individual("Channel 5 news");
        let mpfc = kb.individual("MPFC");
        let hi = kb.individual("HUMAN-INTEREST");
        let wb = kb.individual("WeatherBulletin");
        for d in [oprah, bbc, ch5, mpfc] {
            kb.assert_concept(d, "TvProgram");
        }
        kb.assert_role_prob(oprah, "hasGenre", hi, 0.85).unwrap();
        kb.assert_role(bbc, "hasSubject", wb);
        kb.assert_role_prob(ch5, "hasGenre", hi, 0.95).unwrap();
        kb.assert_role_prob(ch5, "hasSubject", wb, 0.85).unwrap();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R1",
                kb.parse("Weekend").unwrap(),
                kb.parse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
                    .unwrap(),
                Score::new(0.8).unwrap(),
            ))
            .unwrap();
        rules
            .add(PreferenceRule::new(
                "R2",
                kb.parse("Breakfast").unwrap(),
                kb.parse("TvProgram AND EXISTS hasSubject.{WeatherBulletin}")
                    .unwrap(),
                Score::new(0.9).unwrap(),
            ))
            .unwrap();

        let catalog = Catalog::new();
        let programs = catalog
            .create_table(
                "programs",
                Schema::of(&[("id", DataType::Id), ("name", DataType::Str)]),
            )
            .unwrap();
        let docs = vec![oprah, bbc, ch5, mpfc];
        programs
            .insert(certain_rows(
                docs.iter()
                    .map(|&d| vec![individual_datum(d), Datum::str(kb.voc.individual_name(d))])
                    .collect(),
            ))
            .unwrap();
        (kb, rules, user, docs, catalog)
    }

    #[test]
    fn paper_intro_query_end_to_end() {
        let (kb, rules, user, docs, catalog) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let out = ranked_query(
            &env,
            &FactorizedEngine::new(),
            &docs,
            &catalog,
            "programs",
            "id",
            &["name"],
            0.5,
        )
        .unwrap();
        // Only Channel 5 news clears 0.5 (score 0.6006).
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0].values[0], Datum::str("Channel 5 news"));
        let score = out.rows()[0].values[1].as_f64().unwrap();
        assert!((score - 0.6006).abs() < 1e-12);
    }

    #[test]
    fn threshold_zero_returns_full_ranking() {
        let (kb, rules, user, docs, catalog) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let out = ranked_query(
            &env,
            &FactorizedEngine::new(),
            &docs,
            &catalog,
            "programs",
            "id",
            &["name"],
            0.0,
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        let names: Vec<_> = out
            .rows()
            .iter()
            .map(|r| r.values[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["Channel 5 news", "BBC news", "Oprah", "MPFC"],
            "paper's ranking: 0.6006 > 0.18 > 0.071 > 0.02"
        );
    }

    #[test]
    fn tiny_threshold_survives_sql_formatting() {
        // The SQL lexer rejects scientific notation, so the literal helper
        // must keep the query valid (and exact) for any finite threshold,
        // however extreme.
        let (kb, rules, user, docs, catalog) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        for threshold in [1e-7, 5e-324, 0.25, 1e16] {
            let out = ranked_query(
                &env,
                &FactorizedEngine::new(),
                &docs,
                &catalog,
                "programs",
                "id",
                &["name"],
                threshold,
            )
            .unwrap();
            let expected = if threshold < 0.02 {
                4 // every program scores above a tiny threshold
            } else if threshold == 0.25 {
                1 // only Channel 5 news (0.6006)
            } else {
                0 // nothing clears 1e16
            };
            assert_eq!(out.len(), expected, "threshold {threshold}");
        }
    }

    #[test]
    fn sql_float_literal_round_trips_exactly() {
        for value in [0.0, 0.5, 1e-7, 2.5e-9, 5e-324, 1e300, 123456.789, 0.6006] {
            let lit = sql_float_literal(value);
            assert!(
                !lit.contains(['e', 'E']),
                "no scientific notation in `{lit}`"
            );
            assert_eq!(
                lit.parse::<f64>().unwrap().to_bits(),
                value.to_bits(),
                "`{lit}` must parse back to {value:e} exactly"
            );
        }
    }

    #[test]
    fn top_k_query_limits_and_matches_full_flow() {
        let (kb, rules, user, docs, catalog) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = FactorizedEngine::new();
        let full = ranked_query(
            &env,
            &engine,
            &docs,
            &catalog,
            "programs",
            "id",
            &["name"],
            0.0,
        )
        .unwrap();
        for k in [1, 2, 4] {
            let top = ranked_query_top_k(
                &env,
                &engine,
                &docs,
                &catalog,
                "programs",
                "id",
                &["name"],
                0.0,
                k,
            )
            .unwrap();
            assert_eq!(top.len(), k.min(full.len()));
            for (a, b) in top.rows().iter().zip(full.rows()) {
                assert_eq!(a.values, b.values);
            }
        }
        // Threshold still applies on top of the LIMIT.
        let filtered = ranked_query_top_k(
            &env,
            &engine,
            &docs,
            &catalog,
            "programs",
            "id",
            &["name"],
            0.5,
            3,
        )
        .unwrap();
        assert_eq!(filtered.len(), 1, "only Channel 5 news clears 0.5");
    }

    #[test]
    fn reinstalling_scores_replaces_rows() {
        let (kb, rules, user, docs, catalog) = fixture();
        let env = ScoringEnv {
            kb: &kb,
            rules: &rules,
            user,
        };
        let engine = FactorizedEngine::new();
        let n =
            install_preference_scores(&env, &engine, &docs, &catalog, "preference_scores").unwrap();
        assert_eq!(n, 4);
        let again =
            install_preference_scores(&env, &engine, &docs[..2], &catalog, "preference_scores")
                .unwrap();
        assert_eq!(again, 2);
        assert_eq!(catalog.table("preference_scores").unwrap().len(), 2);
    }
}
