//! `--key value` flag parsing with typed accessors and defaults. The map
//! remembers which keys were asked for, so a flag no accessor ever read —
//! a typo, or another subcommand's flag — is an error
//! ([`ArgMap::reject_unread`]) instead of a silently ignored option.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// CLI failure: a message and the exit code to use.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parsed `--key value` pairs (keys without the `--` prefix).
#[derive(Debug, Default)]
pub struct ArgMap {
    vals: HashMap<String, String>,
    /// Every key an accessor has looked up, given or not.
    asked: RefCell<BTreeSet<String>>,
}

impl ArgMap {
    /// Parse a flat list of tokens. Every flag must be `--key` followed
    /// by one value; repeated keys keep the last value.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, CliError> {
        let mut vals = HashMap::new();
        let mut it = tokens.into_iter();
        while let Some(t) = it.next() {
            let key = t
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got '{t}'")))?;
            let val = it
                .next()
                .ok_or_else(|| CliError(format!("--{key} needs a value")))?;
            vals.insert(key.to_string(), val);
        }
        Ok(ArgMap {
            vals,
            asked: RefCell::default(),
        })
    }

    /// The raw value of `key`, recording that it was asked for.
    fn raw(&self, key: &str) -> Option<&String> {
        self.asked.borrow_mut().insert(key.to_string());
        self.vals.get(key)
    }

    /// String value or default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.raw(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Required string value.
    pub fn str_req(&self, key: &str) -> Result<String, CliError> {
        self.raw(key)
            .cloned()
            .ok_or_else(|| CliError(format!("missing required --{key}")))
    }

    /// Typed value or default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Typed optional value: `None` when the flag is absent.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// Fail if a flag was given that `cmd` never asked for, naming the
    /// flags it did ask for. The dispatcher calls this when a command
    /// returns; a command that blocks or works for long calls it itself,
    /// once it has read its flags.
    pub fn reject_unread(&self, cmd: &str) -> Result<(), CliError> {
        let asked = self.asked.borrow();
        let mut unread: Vec<&String> = self.vals.keys().filter(|k| !asked.contains(*k)).collect();
        if unread.is_empty() {
            return Ok(());
        }
        unread.sort();
        fn flags<'a>(keys: impl Iterator<Item = &'a String>) -> String {
            keys.map(|k| format!("--{k}")).collect::<Vec<_>>().join(" ")
        }
        Err(CliError(format!(
            "'{cmd}' does not read {} (it reads: {})",
            flags(unread.into_iter()),
            flags(asked.iter())
        )))
    }
}

/// Parse a distance-kind label (`sq-l2`, `l1`, `linf`, `cosine`, `l<p>`).
pub fn parse_kind(s: &str) -> Result<dataset::DistanceKind, CliError> {
    use dataset::DistanceKind::*;
    match s {
        "sq-l2" | "l2" => Ok(SqL2),
        "l1" => Ok(L1),
        "linf" => Ok(LInf),
        "cosine" => Ok(Cosine),
        other => {
            if let Some(p) = other.strip_prefix('l') {
                let p: f64 = p
                    .parse()
                    .map_err(|_| CliError(format!("unknown metric '{other}'")))?;
                if p > 0.0 {
                    return Ok(Lp(p));
                }
            }
            Err(CliError(format!("unknown metric '{other}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_pairs_with_defaults() {
        let a = ArgMap::parse(toks("--n 100 --kind l1")).unwrap();
        assert_eq!(a.get_or("n", 0usize).unwrap(), 100);
        assert_eq!(a.get_or("d", 16usize).unwrap(), 16);
        assert_eq!(a.str_or("kind", "sq-l2"), "l1");
    }

    #[test]
    fn rejects_bare_values_and_missing_values() {
        assert!(ArgMap::parse(toks("n 100")).is_err());
        assert!(ArgMap::parse(toks("--n")).is_err());
    }

    #[test]
    fn typed_parse_errors_are_reported() {
        let a = ArgMap::parse(toks("--n banana")).unwrap();
        let e = a.get_or("n", 0usize).unwrap_err();
        assert!(e.0.contains("banana"));
    }

    #[test]
    fn required_flags() {
        let a = ArgMap::parse(toks("--out x.csv")).unwrap();
        assert_eq!(a.str_req("out").unwrap(), "x.csv");
        assert!(a.str_req("in").is_err());
    }

    #[test]
    fn a_flag_nobody_read_is_rejected_by_name() {
        let a = ArgMap::parse(toks("--m 8 --out x --outdr y")).unwrap();
        assert_eq!(a.get_or("m", 0usize).unwrap(), 8);
        assert_eq!(a.str_or("outdir", "bench_out"), "bench_out");
        let e = a.reject_unread("profile").unwrap_err();
        assert_eq!(
            e.0,
            "'profile' does not read --out --outdr (it reads: --m --outdir)"
        );
        // reading them — even into an unused default — clears the error
        assert!(a.opt::<String>("out").unwrap().is_some());
        let _ = a.str_or("outdr", "");
        assert!(a.reject_unread("profile").is_ok());
        assert!(ArgMap::parse(toks("")).unwrap().reject_unread("x").is_ok());
    }

    #[test]
    fn metric_labels() {
        assert_eq!(parse_kind("l2").unwrap(), dataset::DistanceKind::SqL2);
        assert_eq!(parse_kind("cosine").unwrap(), dataset::DistanceKind::Cosine);
        assert_eq!(parse_kind("l3.5").unwrap(), dataset::DistanceKind::Lp(3.5));
        assert!(parse_kind("l-1").is_err());
        assert!(parse_kind("hamming").is_err());
    }
}
