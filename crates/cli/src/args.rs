//! A small, dependency-free command-line parser for the `xbar` binary.

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: one subcommand, optional bare positional
/// arguments (e.g. `xbar trace summarize out.jsonl`), plus `--key value`
/// options and valueless `--flag` switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    positionals: Vec<String>,
    options: HashMap<String, String>,
}

/// Errors produced while parsing or reading options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand was given.
    MissingCommand,
    /// An argument was not `--`-prefixed.
    Malformed {
        /// The offending token.
        token: String,
    },
    /// A required option was absent.
    MissingOption {
        /// The option's name (without dashes).
        name: &'static str,
    },
    /// An option the subcommand does not take.
    UnknownOption {
        /// The option's name (without dashes).
        name: String,
        /// The subcommand.
        command: String,
    },
    /// An option's value failed to parse.
    BadValue {
        /// The option's name.
        name: &'static str,
        /// The raw value supplied.
        value: String,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "missing subcommand (try `xbar help`)"),
            ArgsError::Malformed { token } => write!(f, "malformed argument: {token}"),
            ArgsError::MissingOption { name } => write!(f, "missing required option --{name}"),
            ArgsError::UnknownOption { name, command } => write!(
                f,
                "unknown option --{name} for `xbar {command}` (see `xbar {command} --help`)"
            ),
            ArgsError::BadValue { name, value } => {
                write!(f, "invalid value for --{name}: {value}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl ParsedArgs {
    /// Parses a token stream (without the program name).
    ///
    /// An option followed by a non-`--` token takes that token as its
    /// value; an option followed by another `--option` (or by nothing)
    /// is a boolean flag, reported by [`ParsedArgs::flag`]. A bare token
    /// that does not follow an option key is a positional argument,
    /// reported by [`ParsedArgs::positional`] — subcommands that take no
    /// positionals reject them via
    /// [`ParsedArgs::expect_no_positionals`].
    ///
    /// # Errors
    ///
    /// * [`ArgsError::MissingCommand`] on an empty stream.
    /// * [`ArgsError::Malformed`] on a `--`-prefixed command.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgsError> {
        let mut it = tokens.into_iter().peekable();
        let command = it.next().ok_or(ArgsError::MissingCommand)?;
        if command.starts_with('-') {
            return Err(ArgsError::Malformed { token: command });
        }
        let mut positionals = Vec::new();
        let mut options = HashMap::new();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                positionals.push(tok);
                continue;
            };
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                _ => String::new(),
            };
            options.insert(key.to_string(), value);
        }
        Ok(ParsedArgs {
            command,
            positionals,
            options,
        })
    }

    /// The `index`-th bare positional argument after the subcommand.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }

    /// Rejects stray positional arguments, for subcommands that take
    /// only `--key value` options.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Malformed`] naming the first positional.
    pub fn expect_no_positionals(&self) -> Result<(), ArgsError> {
        match self.positionals.first() {
            None => Ok(()),
            Some(token) => Err(ArgsError::Malformed {
                token: token.clone(),
            }),
        }
    }

    /// The names of every `--key` given, valued or not.
    pub fn option_names(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }

    /// An optional string option. Boolean flags read as `Some("")`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Whether a boolean `--flag` (or any `--name value` option) was
    /// present.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::MissingOption`] if absent.
    pub fn require(&self, name: &'static str) -> Result<&str, ArgsError> {
        self.get(name).ok_or(ArgsError::MissingOption { name })
    }

    /// A parseable option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] if present but unparseable.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        name: &'static str,
        default: T,
    ) -> Result<T, ArgsError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgsError::BadValue {
                name,
                value: raw.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = ParsedArgs::parse(toks(&["train", "--dataset", "digits", "--seed", "7"])).unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("dataset"), Some("digits"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_or("samples", 500usize).unwrap(), 500);
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert_eq!(ParsedArgs::parse(toks(&[])), Err(ArgsError::MissingCommand));
        assert!(matches!(
            ParsedArgs::parse(toks(&["--train"])),
            Err(ArgsError::Malformed { .. })
        ));
    }

    #[test]
    fn positionals_are_captured_and_rejectable() {
        // `trace summarize out.jsonl` style commands take positionals …
        let a =
            ParsedArgs::parse(toks(&["trace", "summarize", "out.jsonl", "--top", "5"])).unwrap();
        assert_eq!(a.command, "trace");
        assert_eq!(a.positional(0), Some("summarize"));
        assert_eq!(a.positional(1), Some("out.jsonl"));
        assert_eq!(a.positional(2), None);
        assert_eq!(a.get("top"), Some("5"));
        assert!(matches!(
            a.expect_no_positionals(),
            Err(ArgsError::Malformed { .. })
        ));

        // … while option-only commands can still reject strays.
        let b = ParsedArgs::parse(toks(&["train", "oops"])).unwrap();
        assert_eq!(b.positional(0), Some("oops"));
        assert!(b.expect_no_positionals().is_err());
        let c = ParsedArgs::parse(toks(&["train", "--seed", "7"])).unwrap();
        assert!(c.expect_no_positionals().is_ok());
    }

    #[test]
    fn valueless_options_are_flags() {
        // A trailing option and one followed by another option are both
        // flags; parsing their (empty) value as a number fails cleanly.
        let a = ParsedArgs::parse(toks(&["campaign", "--resume", "--threads", "4"])).unwrap();
        assert!(a.flag("resume"));
        assert!(a.flag("threads"));
        assert!(!a.flag("quick"));
        assert_eq!(a.get_or("threads", 0usize).unwrap(), 4);

        let b = ParsedArgs::parse(toks(&["train", "--seed"])).unwrap();
        assert!(b.flag("seed"));
        assert!(matches!(
            b.get_or("seed", 0u64),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn require_and_bad_value() {
        let a = ParsedArgs::parse(toks(&["probe", "--strength", "abc"])).unwrap();
        assert!(matches!(
            a.require("model"),
            Err(ArgsError::MissingOption { name: "model" })
        ));
        assert!(matches!(
            a.get_or("strength", 1.0f64),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn errors_display() {
        assert!(!ArgsError::MissingCommand.to_string().is_empty());
        assert!(ArgsError::MissingOption { name: "model" }
            .to_string()
            .contains("--model"));
    }
}
