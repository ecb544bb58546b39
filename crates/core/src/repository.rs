use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use capra_dl::{parse_concept, Vocabulary};

use crate::{CoreError, PreferenceRule, Result, Score};

/// A named collection of scored preference rules — the paper's *repository
/// table* ("All preference rules together are stored as rows in a repository
/// table consisting of the name of the preference view, the name of the
/// context view, and the score of the rule").
///
/// The repository also defines a line-oriented text format for persisting
/// rule sets:
///
/// ```text
/// # TVTouch rules for Peter
/// R1 | Weekend   | TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} | 0.8
/// R2 | Breakfast | TvProgram AND EXISTS hasSubject.{News}         | 0.9
/// ```
///
/// Rules live outside the KB, so no KB epoch says whether they changed.
/// The repository carries a stamp of its own instead: `0` while nobody has
/// touched it, a number no other edit in this process was given after every
/// successful [`RuleRepository::add`] / [`RuleRepository::remove`], and a
/// clone keeps its original's. Two repositories with equal stamps hold
/// equal rules — which is how a session proves "same rules as last time"
/// without reading them — and never the converse: the same rules built
/// twice carry two stamps, and are compared rule by rule.
#[derive(Debug, Clone, Default)]
pub struct RuleRepository {
    rules: Vec<PreferenceRule>,
    stamp: u64,
}

/// The stamp the next successful edit of any repository takes.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

impl RuleRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule; names must be unique.
    pub fn add(&mut self, rule: PreferenceRule) -> Result<()> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(CoreError::DuplicateRule(rule.name));
        }
        self.rules.push(rule);
        self.restamp();
        Ok(())
    }

    /// Removes a rule by name.
    pub fn remove(&mut self, name: &str) -> Result<PreferenceRule> {
        match self.rules.iter().position(|r| r.name == name) {
            Some(i) => {
                self.restamp();
                Ok(self.rules.remove(i))
            }
            None => Err(CoreError::UnknownRule(name.to_string())),
        }
    }

    /// Equal to another repository's only if the two hold the same rules
    /// (see the type docs).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    fn restamp(&mut self) {
        // A counter read: it orders nothing and publishes nothing.
        self.stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks a rule up by name.
    pub fn get(&self, name: &str) -> Option<&PreferenceRule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// All rules in insertion order.
    pub fn rules(&self) -> &[PreferenceRule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the text format (see type docs). `#` starts a comment; blank
    /// lines are ignored. Concept names are interned into `voc`.
    pub fn from_text(text: &str, voc: &mut Vocabulary) -> Result<Self> {
        let mut repo = Self::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split('|').map(str::trim).collect();
            let [name, context, preference, sigma] = parts.as_slice() else {
                return Err(CoreError::RuleFormat {
                    line: line_no,
                    message: format!(
                        "expected `name | context | preference | sigma`, found {} field(s)",
                        parts.len()
                    ),
                });
            };
            if name.is_empty() {
                return Err(CoreError::RuleFormat {
                    line: line_no,
                    message: "empty rule name".into(),
                });
            }
            let context = parse_concept(context, voc).map_err(|e| CoreError::RuleFormat {
                line: line_no,
                message: format!("bad context: {e}"),
            })?;
            let preference = parse_concept(preference, voc).map_err(|e| CoreError::RuleFormat {
                line: line_no,
                message: format!("bad preference: {e}"),
            })?;
            let sigma = sigma
                .parse::<f64>()
                .map_err(|_| CoreError::RuleFormat {
                    line: line_no,
                    message: format!("bad sigma `{sigma}`"),
                })
                .and_then(Score::new)?;
            repo.add(PreferenceRule::new(*name, context, preference, sigma))?;
        }
        Ok(repo)
    }

    /// Serialises to the text format; round-trips through
    /// [`RuleRepository::from_text`].
    pub fn to_text(&self, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for rule in &self.rules {
            let _ = writeln!(out, "{}", rule.display(voc));
        }
        out
    }
}

impl<'a> IntoIterator for &'a RuleRepository {
    type Item = &'a PreferenceRule;
    type IntoIter = std::slice::Iter<'a, PreferenceRule>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_RULES: &str = "\
# The paper's Section 4 rules.
R1 | Weekend   | TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} | 0.8
R2 | Breakfast | TvProgram AND EXISTS hasSubject.{News}         | 0.9
";

    #[test]
    fn parse_paper_rules() {
        let mut voc = Vocabulary::new();
        let repo = RuleRepository::from_text(PAPER_RULES, &mut voc).unwrap();
        assert_eq!(repo.len(), 2);
        let r1 = repo.get("R1").unwrap();
        assert!((r1.sigma.get() - 0.8).abs() < 1e-12);
        assert!(repo.get("R3").is_none());
    }

    #[test]
    fn round_trip() {
        let mut voc = Vocabulary::new();
        let repo = RuleRepository::from_text(PAPER_RULES, &mut voc).unwrap();
        let text = repo.to_text(&voc);
        let reparsed = RuleRepository::from_text(&text, &mut voc).unwrap();
        assert_eq!(repo.rules(), reparsed.rules());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut voc = Vocabulary::new();
        let text = "R | A | B | 0.5\nR | C | D | 0.6\n";
        assert!(matches!(
            RuleRepository::from_text(text, &mut voc),
            Err(CoreError::DuplicateRule(_))
        ));
    }

    #[test]
    fn format_errors_carry_line_numbers() {
        let mut voc = Vocabulary::new();
        for (text, needle) in [
            ("R | A | B", "field"),
            ("R | A ?? | B | 0.5", "bad context"),
            ("R | A | B ?? | 0.5", "bad preference"),
            ("R | A | B | huge", "bad sigma"),
            (" | A | B | 0.5", "empty rule name"),
        ] {
            let err = RuleRepository::from_text(text, &mut voc).unwrap_err();
            let CoreError::RuleFormat { line, message } = &err else {
                panic!("expected format error for `{text}`, got {err}")
            };
            assert_eq!(*line, 1);
            assert!(message.contains(needle), "`{message}` ~ `{needle}`");
        }
        // Out-of-range sigma is a BadScore error.
        assert!(matches!(
            RuleRepository::from_text("R | A | B | 1.5", &mut voc),
            Err(CoreError::BadScore(_))
        ));
    }

    #[test]
    fn the_stamp_follows_every_successful_edit_and_nothing_else() {
        let mut voc = Vocabulary::new();
        assert_eq!(RuleRepository::new().stamp(), 0, "untouched");
        let mut repo = RuleRepository::from_text(PAPER_RULES, &mut voc).unwrap();
        let parsed = repo.stamp();
        assert_ne!(parsed, 0, "`from_text` adds");
        assert_eq!(repo.clone().stamp(), parsed, "a clone holds the same rules");
        let twin = RuleRepository::from_text(PAPER_RULES, &mut voc).unwrap();
        assert_eq!(repo.rules(), twin.rules());
        assert_ne!(twin.stamp(), parsed, "built apart: equal rules, two stamps");

        // Rejected edits leave rules and stamp alone.
        let r1 = repo.get("R1").unwrap().clone();
        assert!(matches!(
            repo.add(r1.clone()),
            Err(CoreError::DuplicateRule(_))
        ));
        assert!(matches!(repo.remove("R3"), Err(CoreError::UnknownRule(_))));
        assert_eq!((repo.stamp(), repo.rules()), (parsed, twin.rules()));

        // Successful ones each take a number nobody else has.
        let mut seen = vec![0, parsed, twin.stamp()];
        repo.remove("R1").unwrap();
        seen.push(repo.stamp());
        repo.add(r1).unwrap();
        seen.push(repo.stamp());
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), before, "every edit's stamp is new");
        assert_eq!(repo.clone().stamp(), repo.stamp());
    }

    #[test]
    fn remove_and_iterate() {
        let mut voc = Vocabulary::new();
        let mut repo = RuleRepository::from_text(PAPER_RULES, &mut voc).unwrap();
        assert_eq!((&repo).into_iter().count(), 2);
        let removed = repo.remove("R1").unwrap();
        assert_eq!(removed.name, "R1");
        assert_eq!(repo.len(), 1);
        assert!(matches!(repo.remove("R1"), Err(CoreError::UnknownRule(_))));
    }
}
