//! Shared command-line parsing for the experiment binaries.
//!
//! Every binary declares its flags in one table ([`Cli::flag`] /
//! [`Cli::switch`], plus the [`Cli::app_flag`]-style helpers for the
//! flags all harnesses share), and [`Cli::parse`] derives everything
//! from that single declaration: value lookup with typed accessors,
//! a generated `--help` page, and unknown-flag rejection (a typo such
//! as `--worker 8` is an error, not a silent run with the default).
//! The binaries pass parsed values on as function arguments; nothing
//! else in the library reads the process's argv.
//!
//! ```
//! use beldi_bench::cli::Cli;
//!
//! let args = Cli::from_args(
//!     "demo",
//!     "demo harness",
//!     vec!["--workers".into(), "8".into()],
//! )
//! .app_flag("all")
//! .flag("--workers", "N", "4", "worker threads")
//! .try_parse()
//! .unwrap();
//! assert_eq!(args.usize("--workers"), 8);
//! assert_eq!(args.str("--app"), "all");
//! ```

/// One declared flag: its spelling, value placeholder (empty for
/// boolean switches), rendered default, and help line.
#[derive(Debug, Clone)]
pub struct FlagSpec {
    name: &'static str,
    value_name: &'static str,
    default: &'static str,
    help: &'static str,
}

impl FlagSpec {
    fn is_switch(&self) -> bool {
        self.value_name.is_empty()
    }
}

/// A flag-table builder for one binary (see the module docs).
#[derive(Debug, Clone)]
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    flags: Vec<FlagSpec>,
    argv: Vec<String>,
}

impl Cli {
    /// Starts a table for `bin`, reading the process arguments.
    pub fn new(bin: &'static str, about: &'static str) -> Self {
        Cli::from_args(bin, about, std::env::args().skip(1).collect())
    }

    /// Starts a table over explicit arguments (tests; `argv` excludes
    /// the program name).
    pub fn from_args(bin: &'static str, about: &'static str, argv: Vec<String>) -> Self {
        Cli {
            bin,
            about,
            flags: Vec::new(),
            argv,
        }
    }

    /// Declares `--name VALUE` with a default (rendered in `--help`; the
    /// typed accessors parse it when the flag is absent).
    pub fn flag(
        mut self,
        name: &'static str,
        value_name: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Self {
        assert!(!value_name.is_empty(), "use switch() for boolean flags");
        self.flags.push(FlagSpec {
            name,
            value_name,
            default,
            help,
        });
        self
    }

    /// Declares a boolean `--name` switch (present or absent).
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec {
            name,
            value_name: "",
            default: "",
            help,
        });
        self
    }

    /// `--app`: which application(s) to run.
    pub fn app_flag(self, default: &'static str) -> Self {
        self.flag(
            "--app",
            "NAME",
            default,
            "application: media | social | travel | all",
        )
    }

    /// `--mode`: which system(s) to run as.
    pub fn mode_flag(self, default: &'static str, spellings: &'static str) -> Self {
        self.flag("--mode", "MODE", default, spellings)
    }

    /// `--workers`: driver thread count.
    pub fn workers_flag(self, default: &'static str) -> Self {
        self.flag("--workers", "N", default, "concurrent request workers")
    }

    /// `--seed`: the run's determinism seed.
    pub fn seed_flag(self) -> Self {
        self.flag(
            "--seed",
            "N",
            "42",
            "seed for request streams and schedules (same seed, same run)",
        )
    }

    /// `--partitions`: simulated-database shard count.
    pub fn partitions_flag(self) -> Self {
        self.flag(
            "--partitions",
            "N",
            partitions_default(),
            "hash partitions per database table",
        )
    }

    /// `--clock-rate`: virtual-clock speedup.
    pub fn clock_rate_flag(self, default: &'static str) -> Self {
        self.flag(
            "--clock-rate",
            "X",
            default,
            "virtual-time speedup over wall time",
        )
    }

    /// Parses the arguments against the table: prints generated help and
    /// exits on `--help`/`-h`, rejects undeclared flags with exit code 2.
    pub fn parse(self) -> Args {
        if self.argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.help());
            std::process::exit(0);
        }
        let bin = self.bin;
        match self.try_parse() {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}\nrun `{bin} --help` for the flag table");
                std::process::exit(2);
            }
        }
    }

    /// [`Cli::parse`] without the process exits (tests and callers that
    /// handle errors themselves).
    pub fn try_parse(self) -> Result<Args, String> {
        let mut i = 0;
        while i < self.argv.len() {
            let arg = &self.argv[i];
            if let Some(spec) = self.flags.iter().find(|f| f.name == arg) {
                if spec.is_switch() {
                    i += 1;
                } else {
                    if i + 1 >= self.argv.len() {
                        return Err(format!("{}: {arg} needs a value", self.bin));
                    }
                    i += 2;
                }
            } else if arg.starts_with("--") {
                return Err(format!("{}: unknown flag {arg}", self.bin));
            } else {
                return Err(format!("{}: unexpected argument {arg:?}", self.bin));
            }
        }
        Ok(Args {
            flags: self.flags,
            argv: self.argv,
        })
    }

    /// The generated help page: about line, then the flag table.
    pub fn help(&self) -> String {
        let mut out = format!("{} — {}\n\nflags:\n", self.bin, self.about);
        let width = self
            .flags
            .iter()
            .map(|f| f.name.len() + 1 + f.value_name.len())
            .max()
            .unwrap_or(0);
        for f in &self.flags {
            let lhs = if f.is_switch() {
                f.name.to_owned()
            } else {
                format!("{} {}", f.name, f.value_name)
            };
            let default = if f.default.is_empty() {
                String::new()
            } else {
                format!(" [default: {}]", f.default)
            };
            out.push_str(&format!("  {lhs:width$}  {}{default}\n", f.help));
        }
        out
    }
}

/// Parsed arguments plus their declarations: every accessor checks the
/// flag was declared, so a lookup the help table doesn't document is a
/// panic (programmer error), not a silent default.
#[derive(Debug, Clone)]
pub struct Args {
    flags: Vec<FlagSpec>,
    argv: Vec<String>,
}

impl Args {
    fn spec(&self, name: &str) -> &FlagSpec {
        self.flags
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("flag {name} was never declared in the Cli table"))
    }

    /// The raw value of a declared value flag, if present.
    pub fn value(&self, name: &str) -> Option<String> {
        let spec = self.spec(name);
        assert!(!spec.is_switch(), "{name} is a switch; use flag()");
        self.argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1).cloned())
    }

    /// The value of `name`, or its declared default.
    pub fn str(&self, name: &str) -> String {
        self.value(name)
            .unwrap_or_else(|| self.spec(name).default.to_owned())
    }

    /// Parses `name` as `usize` (declared default when absent).
    pub fn usize(&self, name: &str) -> usize {
        self.parsed(name)
    }

    /// Parses `name` as `u64` (declared default when absent).
    pub fn u64(&self, name: &str) -> u64 {
        self.parsed(name)
    }

    /// Parses `name` as `f64` (declared default when absent).
    pub fn f64(&self, name: &str) -> f64 {
        self.parsed(name)
    }

    /// True when the declared switch `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        assert!(
            self.spec(name).is_switch(),
            "{name} takes a value; use value()/str()"
        );
        self.argv.iter().any(|a| a == name)
    }

    /// Whether `name` appeared explicitly on the command line (switch or
    /// value flag).
    pub fn present(&self, name: &str) -> bool {
        self.spec(name);
        self.argv.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> T {
        let raw = self.str(name);
        raw.parse().unwrap_or_else(|_| {
            panic!(
                "flag {name}: cannot parse {raw:?} as {}",
                std::any::type_name::<T>()
            )
        })
    }
}

/// The default partition count, as a static string for the flag table.
fn partitions_default() -> &'static str {
    // `DEFAULT_PARTITIONS` is a compile-time constant; keep the rendered
    // default in lockstep with it.
    const S: &str = "8";
    const { assert!(beldi_simdb::DEFAULT_PARTITIONS == 8, "update cli default") };
    S
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(argv: &[&str]) -> Cli {
        Cli::from_args(
            "demo",
            "demo harness",
            argv.iter().map(|s| s.to_string()).collect(),
        )
        .app_flag("all")
        .mode_flag("both", "baseline | beldi | cross-table | both | all")
        .workers_flag("4")
        .seed_flag()
        .partitions_flag()
        .switch("--smoke", "tiny preset")
    }

    #[test]
    fn typed_accessors_parse_values_and_defaults() {
        let args = demo(&["--workers", "8", "--seed", "7", "--smoke"])
            .try_parse()
            .unwrap();
        assert_eq!(args.usize("--workers"), 8);
        assert_eq!(args.u64("--seed"), 7);
        assert_eq!(args.usize("--partitions"), beldi_simdb::DEFAULT_PARTITIONS);
        assert_eq!(args.str("--app"), "all");
        assert_eq!(args.str("--mode"), "both");
        assert!(args.flag("--smoke"));
        assert!(args.present("--workers"));
        assert!(!args.present("--app"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = demo(&["--worker", "8"]).try_parse().unwrap_err();
        assert!(err.contains("unknown flag --worker"), "{err}");
        let err = demo(&["stray"]).try_parse().unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        let err = demo(&["--workers"]).try_parse().unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn help_renders_every_declared_flag_once() {
        let cli = demo(&[]);
        let help = cli.help();
        for name in [
            "--app",
            "--mode",
            "--workers",
            "--seed",
            "--partitions",
            "--smoke",
        ] {
            assert_eq!(
                help.matches(name).count(),
                1,
                "{name} should appear exactly once in:\n{help}"
            );
        }
        assert!(help.contains("[default: 42]"), "{help}");
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn undeclared_lookup_is_a_programmer_error() {
        let args = demo(&[]).try_parse().unwrap();
        let _ = args.str("--undeclared");
    }
}
