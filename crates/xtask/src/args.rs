//! Hand-rolled `--flag [value]` argument parsing (this workspace takes
//! no external dependencies; a clap would be its whole tree).

/// Parsed `--key value` / `--switch` arguments.
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses an argument list against `accepted`, the flag names (without
    /// `--`) the command takes. Every argument must be an accepted `--key`
    /// optionally followed by a value; an unknown flag is an error naming
    /// it — a mistyped option must not replay with defaults — and so are
    /// stray positionals (each command names its inputs explicitly).
    pub fn parse(argv: &[String], accepted: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if !accepted.contains(&key) {
                let accepted: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
                return Err(format!(
                    "unknown flag `--{key}` (this command takes {})",
                    accepted.join(", ")
                ));
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            pairs.push((key.to_string(), value));
        }
        Ok(Self { pairs })
    }

    /// The value of `--name`, if given with a value.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of a required `--name value`.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing required --{name} <value>"))
    }

    /// Whether `--name` appeared (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == name)
    }

    /// `--name N` parsed as u64, if given.
    pub fn u64_opt(&self, name: &str) -> Result<Option<u64>, String> {
        self.opt(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects an integer, got `{v}`"))
            })
            .transpose()
    }

    /// `--name N` parsed as usize, if given.
    pub fn usize_opt(&self, name: &str) -> Result<Option<usize>, String> {
        Ok(self.u64_opt(name)?.map(|v| v as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_flags_are_parsed() {
        let args = Args::parse(
            &argv(&["--file", "w.capra", "--tiny", "--iters", "4"]),
            &["file", "tiny", "iters", "engine"],
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(args.require("file"), Ok("w.capra"));
        assert!(args.has("tiny") && args.opt("tiny").is_none());
        assert_eq!(args.usize_opt("iters"), Ok(Some(4)));
        assert_eq!(args.opt("engine"), None, "accepted, not given");
    }

    #[test]
    fn an_unknown_flag_is_rejected_by_name() {
        for typo in ["--engin", "--thread"] {
            let err = Args::parse(
                &argv(&["--file", "w.capra", typo, "x"]),
                crate::replay::FLAGS,
            )
            .err()
            .expect("a flag the command does not take");
            assert!(err.contains(&format!("`{typo}`")), "{err}");
        }
    }

    #[test]
    fn the_removed_threads_flag_is_rejected_not_ignored() {
        for flags in [crate::replay::FLAGS, crate::bench::FLAGS] {
            let err = Args::parse(&argv(&["--file", "w.capra", "--threads", "4"]), flags)
                .err()
                .expect("--threads is gone");
            assert!(err.contains("`--threads`"), "{err}");
        }
    }
}
