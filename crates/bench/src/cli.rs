//! Shared command-line conventions for the bench binaries.
//!
//! Every binary in this crate takes the same flag shapes — in particular
//! `--seed N` for the run's RNG seed — selects its Table-1 languages the same
//! way ([`Args::languages`]) and guards its tracked `BENCH_*` report the same
//! way ([`write_tracked_report`]), so all of it lives here once instead of
//! being hand-rolled per binary.
//!
//! Grammar: `--name value`, `--name=value`, bare `--name` switches, and plain
//! positionals. Which `--name`s expect a value and which are switches is
//! declared by the caller; any other `--…` argument is an error.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vstar_oracles::{language_by_name, table1_languages, Language};

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: BTreeSet<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `raw` (without the program name). Flags named in `value_flags`
    /// consume the next argument (or their `=`-suffix) as a value; flags named
    /// in `switch_flags` are bare switches; any other `--…` argument is an
    /// error, so typos (`--sed 5`) fail loudly instead of silently running
    /// with defaults.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message on unknown flags, a value flag without a
    /// value, or a flag given twice.
    pub fn parse(
        raw: impl IntoIterator<Item = String>,
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                args.positionals.push(arg);
                continue;
            };
            let (name, inline) = match name.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (name.to_string(), None),
            };
            if value_flags.contains(&name.as_str()) {
                let value = match inline {
                    Some(v) => v,
                    None => iter.next().ok_or(format!("--{name} expects a value"))?,
                };
                if args.values.insert(name.clone(), value).is_some() {
                    return Err(format!("--{name} given twice"));
                }
            } else if switch_flags.contains(&name.as_str()) {
                if inline.is_some() {
                    return Err(format!("--{name} does not take a value"));
                }
                if !args.switches.insert(name.clone()) {
                    return Err(format!("--{name} given twice"));
                }
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(args)
    }

    /// Like [`Args::parse`] but over the process arguments, exiting with the
    /// given usage line on malformed input (the shared `main()` preamble).
    #[must_use]
    pub fn parse_or_exit(usage: &str, value_flags: &[&str], switch_flags: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), value_flags, switch_flags)
            .unwrap_or_else(|e| usage_error(usage, e))
    }

    /// The raw value of `--name`, if given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed into `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message when the value does not parse.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v:?}: {e}")),
        }
    }

    /// `true` if the bare switch `--name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The positional (non-flag) arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The shared `--seed N` convention.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message when the value is not a `u64`.
    pub fn seed(&self, default: u64) -> Result<u64, String> {
        self.parsed("seed", default)
    }

    /// A [`StdRng`] seeded per the shared `--seed N` convention.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message when the value is not a `u64`.
    pub fn seeded_rng(&self, default: u64) -> Result<StdRng, String> {
        Ok(StdRng::seed_from_u64(self.seed(default)?))
    }

    /// The Table-1 languages named by the positionals, or all five when
    /// none is given.
    ///
    /// # Errors
    ///
    /// Returns the [`language`] error for the first positional that names
    /// no Table-1 language.
    pub fn languages(&self) -> Result<Selection, String> {
        if self.positionals.is_empty() {
            return Ok(Selection { languages: table1_languages(), full_set: true });
        }
        let languages =
            self.positionals.iter().map(|n| language(n)).collect::<Result<Vec<_>, _>>()?;
        let selected: BTreeSet<&str> = languages.iter().map(|l| l.name()).collect();
        let full_set = table1_languages().iter().all(|l| selected.contains(l.name()));
        Ok(Selection { languages, full_set })
    }
}

/// Prints `error` with the usage line and exits with status 2 (the shared
/// handling of every malformed invocation).
pub fn usage_error(usage: &str, error: impl Display) -> ! {
    eprintln!("{error}\nusage: {usage}");
    std::process::exit(2);
}

/// The Table-1 languages a bench run covers.
pub struct Selection {
    /// The selected languages, in the order they were named (duplicates kept).
    pub languages: Vec<Box<dyn Language>>,
    /// Whether every Table-1 language is selected — with order and
    /// duplicates ignored — so the run may rewrite its tracked report.
    pub full_set: bool,
}

/// Resolves one Table-1 language by name.
///
/// # Errors
///
/// Returns `unknown grammar "NAME"; grammars: json lisp xml while mathexpr`.
pub fn language(name: &str) -> Result<Box<dyn Language>, String> {
    language_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = table1_languages().iter().map(|l| l.name()).collect();
        format!("unknown grammar {name:?}; grammars: {}", names.join(" "))
    })
}

/// Writes each `(path, contents)` report file when the run is the tracked
/// one — a full selection at the default configuration — and otherwise
/// prints why the files were left untouched, so partial and ad-hoc runs
/// never clobber the committed numbers.
///
/// A file that cannot be written exits the process with status 1: CI diffs
/// the tracked files against the committed ones, and an unwritten file would
/// pass that diff unchanged.
pub fn write_tracked_report(files: &[(&str, &str)], full_set: bool, tracked_config: bool) {
    let why = match (full_set, tracked_config) {
        (true, true) => {
            if let Err(e) = write_reports(files) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            return;
        }
        (false, _) => "partial selection",
        (true, false) => "non-default configuration",
    };
    for (path, _) in files {
        println!("{why}: {path} left untouched");
    }
}

/// Writes each `(path, contents)` file in order, stopping at the first that
/// cannot be written.
fn write_reports(files: &[(&str, &str)]) -> Result<(), String> {
    for (path, contents) in files {
        std::fs::write(path, contents).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn flags_switches_and_positionals() {
        let a = Args::parse(
            strings(&["json", "--seed", "7", "--check", "--iterations=40", "lisp"]),
            &["seed", "iterations"],
            &["check"],
        )
        .unwrap();
        assert_eq!(a.positionals(), &["json".to_string(), "lisp".to_string()]);
        assert_eq!(a.seed(42).unwrap(), 7);
        assert_eq!(a.parsed::<usize>("iterations", 0).unwrap(), 40);
        assert!(a.switch("check"));
        assert!(!a.switch("json"));
        // Defaults apply when absent; the RNG derives from the same seed.
        assert_eq!(a.parsed::<usize>("budget", 24).unwrap(), 24);
        let _ = a.seeded_rng(42).unwrap();
    }

    #[test]
    fn malformed_flags_are_errors() {
        assert!(Args::parse(strings(&["--seed"]), &["seed"], &[]).is_err());
        assert!(Args::parse(strings(&["--seed", "1", "--seed", "2"]), &["seed"], &[]).is_err());
        assert!(Args::parse(strings(&["--check=yes"]), &[], &["check"]).is_err());
        assert!(Args::parse(strings(&["--check", "--check"]), &[], &["check"]).is_err());
        let a = Args::parse(strings(&["--seed", "x"]), &["seed"], &[]).unwrap();
        assert!(a.seed(0).is_err());
        // Typo'd flags are rejected, not silently absorbed as switches.
        assert_eq!(
            Args::parse(strings(&["--sed", "5"]), &["seed"], &["check"]).unwrap_err(),
            "unknown flag --sed"
        );
    }

    fn select(args: &[&str]) -> Result<Selection, String> {
        Args::parse(strings(args), &["seed"], &["check"]).unwrap().languages()
    }

    fn names(selection: &Selection) -> Vec<&'static str> {
        selection.languages.iter().map(|l| l.name()).collect()
    }

    #[test]
    fn no_positionals_select_all_five_languages() {
        let all = select(&["--seed", "7", "--check"]).unwrap();
        assert_eq!(names(&all), ["json", "lisp", "xml", "while", "mathexpr"]);
        assert!(all.full_set);
    }

    #[test]
    fn unknown_grammar_lists_the_valid_names() {
        let err = select(&["lisp", "cobol"]).err().unwrap();
        assert_eq!(err, "unknown grammar \"cobol\"; grammars: json lisp xml while mathexpr");
        assert_eq!(language("cobol").err().unwrap(), err);
        assert_eq!(language("xml").unwrap().name(), "xml");
    }

    #[test]
    fn full_set_ignores_order_and_duplicates() {
        let selection = select(&["mathexpr", "while", "xml", "lisp", "json", "lisp"]).unwrap();
        assert!(selection.full_set);
        // Named languages run in the order given, duplicates included.
        assert_eq!(names(&selection), ["mathexpr", "while", "xml", "lisp", "json", "lisp"]);

        let subset = select(&["json", "lisp", "xml", "while"]).unwrap();
        assert!(!subset.full_set);
        assert_eq!(names(&subset), ["json", "lisp", "xml", "while"]);
        assert!(!select(&["lisp", "lisp"]).unwrap().full_set);
    }

    #[test]
    fn unwritable_report_is_an_error() {
        let dir = std::env::temp_dir().join(format!("vstar-bench-missing-{}", std::process::id()));
        let path = dir.join("BENCH_x.json");
        let path = path.to_str().unwrap();
        let err = write_reports(&[(path, "{}")]).unwrap_err();
        assert!(err.starts_with(&format!("could not write {path}: ")), "{err}");
        assert!(!dir.exists());
    }
}
