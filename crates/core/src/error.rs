use std::fmt;

use capra_dl::DlError;
use capra_events::EventError;
use capra_reldb::DbError;

use crate::persist::PersistError;

/// Errors raised by the ranking layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A sigma score was outside `[0, 1]`.
    BadScore(f64),
    /// Two rules share a name in one repository.
    DuplicateRule(String),
    /// A rule name was not found.
    UnknownRule(String),
    /// The naive engines refuse rule counts whose `4ⁿ` behaviour would not
    /// terminate in reasonable time.
    TooManyRules {
        /// Number of applicable rules.
        n: usize,
        /// The engine's limit.
        max: usize,
    },
    /// The strict factorized engine met a document whose factors share a
    /// random variable — between two active rules' contexts, or a context
    /// and a feature, or two features of the document — and which its
    /// certain factors do not already settle at 0. Names the variable, for
    /// the first such document of the batch.
    CorrelatedFeatures {
        /// Name of the shared variable.
        variable: String,
    },
    /// Syntax error in the rule text format.
    RuleFormat {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// Error from the DL layer.
    Dl(DlError),
    /// Error from the relational engine.
    Db(DbError),
    /// Error from the event layer.
    Event(EventError),
    /// Error from the persistence layer (snapshots and the WAL).
    Persist(PersistError),
    /// The ranked query integration was misused.
    Ranking(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadScore(s) => write!(f, "sigma score {s} is outside [0, 1]"),
            CoreError::DuplicateRule(name) => write!(f, "rule `{name}` already exists"),
            CoreError::UnknownRule(name) => write!(f, "no rule named `{name}`"),
            CoreError::TooManyRules { n, max } => write!(
                f,
                "naive engine limited to {max} applicable rules, got {n} \
                 (cost grows as 4^n; use the factorized or lineage engine)"
            ),
            CoreError::CorrelatedFeatures { variable } => write!(
                f,
                "factorized engine requires independent features, but variable \
                 `{variable}` is shared across rule events (use the lineage engine)"
            ),
            CoreError::RuleFormat { line, message } => {
                write!(f, "rule file line {line}: {message}")
            }
            CoreError::Dl(e) => write!(f, "{e}"),
            CoreError::Db(e) => write!(f, "{e}"),
            CoreError::Event(e) => write!(f, "{e}"),
            CoreError::Persist(e) => write!(f, "{e}"),
            CoreError::Ranking(msg) => write!(f, "ranked query: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DlError> for CoreError {
    fn from(e: DlError) -> Self {
        CoreError::Dl(e)
    }
}

impl From<DbError> for CoreError {
    fn from(e: DbError) -> Self {
        CoreError::Db(e)
    }
}

impl From<EventError> for CoreError {
    fn from(e: EventError) -> Self {
        CoreError::Event(e)
    }
}

impl From<PersistError> for CoreError {
    fn from(e: PersistError) -> Self {
        CoreError::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_actionable() {
        let e = CoreError::TooManyRules { n: 12, max: 10 };
        assert!(e.to_string().contains("4^n"));
        let e = CoreError::CorrelatedFeatures {
            variable: "room".into(),
        };
        assert!(e.to_string().contains("room"));
        assert!(e.to_string().contains("lineage"));
    }

    #[test]
    fn conversions() {
        let e: CoreError = DlError::CyclicDefinition("X".into()).into();
        assert!(matches!(e, CoreError::Dl(_)));
        let e: CoreError = DbError::UnknownTable("t".into()).into();
        assert!(matches!(e, CoreError::Db(_)));
        let e: CoreError = EventError::DuplicateVariable("v".into()).into();
        assert!(matches!(e, CoreError::Event(_)));
    }
}
