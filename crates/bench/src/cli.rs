//! The `beldi-bench` command line: the subcommand table and the flag
//! parser behind every subcommand.
//!
//! `beldi-bench <subcommand> [flags]` — [`SUBCOMMANDS`] lists the
//! subcommands, [`dispatch`] runs one. Each subcommand declares its
//! flags in one table ([`Cli::flag`] / [`Cli::switch`], plus the
//! [`Cli::app_flag`]-style helpers for the flags several subcommands
//! share), and everything derives from that single declaration: value
//! lookup with typed accessors, a generated `--help` page, and
//! unknown-flag rejection (a typo such as `--worker 8` is an error, not
//! a silent run with the default). Subcommand bodies receive the parsed
//! [`Args`]; nothing else in the library reads the process's argv.
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

use beldi::Mode;

use crate::cmd;

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

/// A flag-table builder for one subcommand (see the module docs).
#[derive(Debug, Clone)]
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    flags: Vec<FlagSpec>,
    argv: Vec<String>,
}

impl Cli {
    /// Starts a table over `argv` (which excludes the program and
    /// subcommand names).
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

    /// `--mode`: which system(s) to run as ([`Args::modes`]).
    pub fn mode_flag(self, default: &'static str) -> Self {
        let spellings = "system: beldi | cross-table | baseline | both | all";
        self.flag("--mode", "MODE", default, spellings)
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

    /// `--json`: where to also write the report.
    pub fn json_flag(self) -> Self {
        self.flag(
            "--json",
            "PATH",
            "",
            "also write the report as JSON to PATH",
        )
    }

    /// Parses the arguments against the table, rejecting undeclared
    /// flags.
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
            bin: self.bin,
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
    bin: &'static str,
    flags: Vec<FlagSpec>,
    argv: Vec<String>,
}

impl Args {
    /// The subcommand these arguments were parsed for.
    pub fn subcommand(&self) -> &'static str {
        self.bin
    }

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

    /// The applications `--app` names: one of them, or `all` three.
    pub fn apps(&self) -> Vec<String> {
        match self.str("--app").as_str() {
            "all" => ["media", "social", "travel"].map(String::from).to_vec(),
            one => vec![one.to_owned()],
        }
    }

    /// The systems `--mode` names: one [`Mode::name`], `both` (the two
    /// fault-tolerant designs — the comparison that matters) or `all`.
    /// Exits with status 2 on any other spelling.
    pub fn modes(&self) -> Vec<Mode> {
        match self.str("--mode").as_str() {
            "both" => vec![Mode::Beldi, Mode::CrossTable],
            "all" => vec![Mode::Beldi, Mode::CrossTable, Mode::Baseline],
            one => match Mode::parse(one) {
                Some(mode) => vec![mode],
                None => usage_error(format!("unknown --mode {one}")),
            },
        }
    }

    /// `name`'s value when given; otherwise `preset` under `--smoke`, the
    /// declared default without it.
    pub fn or_smoke<T: std::str::FromStr>(&self, name: &str, preset: T) -> T {
        if self.flag("--smoke") && !self.present(name) {
            preset
        } else {
            self.parsed(name)
        }
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

/// Reports a command line that cannot run: `message` to stderr, exit
/// status 2.
pub fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// One subcommand of the `beldi-bench` executable.
pub struct Subcommand {
    /// Its name on the command line.
    pub name: &'static str,
    /// One line for the subcommand listing and the top of its `--help`.
    pub about: &'static str,
    flags: fn(Cli) -> Cli,
    body: fn(&Args),
}

macro_rules! subcommands {
    ($($name:literal => $module:ident, $about:literal;)*) => {
        /// Every subcommand, in listing order (`DESIGN.md` §4).
        pub const SUBCOMMANDS: &[Subcommand] = &[$(Subcommand {
            name: $name,
            about: $about,
            flags: cmd::$module::flags,
            body: cmd::$module::main,
        },)*];
    };
}
subcommands! {
    "fig13" => fig13, "per-operation latency of Beldi primitives (§7.3; --rows 5 = Fig. 25)";
    "fig14" => sweeps, "movie review service: latency vs throughput (§7.4)";
    "fig15" => sweeps, "travel reservation service: latency vs throughput (§7.4)";
    "fig16" => fig16, "write latency over time under GC configurations (§7.5)";
    "fig26" => sweeps, "social media site: latency vs throughput (App. C.1)";
    "costs" => costs, "per-operation storage and network overhead (§7.3)";
    "drive" => drive, "closed-loop concurrent workload driver";
    "gate" => gate, "CI perf, storage-growth, and recovery gates over drive reports";
    "explore" => explore, "systematic crash-schedule exploration";
    "front" => serve, "HTTP front door over the cooperative executor";
}

/// What a command line resolves to before anything runs.
pub enum Invocation {
    /// Run this subcommand's body on these arguments.
    Run(&'static Subcommand, Args),
    /// Print the text (to stdout for status 0, else stderr) and exit.
    Exit(i32, String),
}

fn is_help(arg: &String) -> bool {
    arg == "--help" || arg == "-h"
}

fn usage() -> String {
    let mut out = "usage: beldi-bench <subcommand> [flags]\n\nsubcommands:\n".to_owned();
    for c in SUBCOMMANDS {
        out.push_str(&format!("  {:8}  {}\n", c.name, c.about));
    }
    out + "\n`beldi-bench <subcommand> --help` prints that subcommand's flag table"
}

/// Resolves `argv` (without the program name) against [`SUBCOMMANDS`]:
/// `--help` alone lists the subcommands, `<subcommand> --help` prints
/// its generated flag table, an unknown subcommand or flag is status 2.
pub fn resolve(argv: Vec<String>) -> Invocation {
    let mut argv = argv.into_iter();
    let name = match argv.next() {
        None => return Invocation::Exit(2, usage()),
        Some(arg) if is_help(&arg) => return Invocation::Exit(0, usage()),
        Some(name) => name,
    };
    let Some(cmd) = SUBCOMMANDS.iter().find(|c| c.name == name) else {
        let text = format!("beldi-bench: unknown subcommand {name:?}\n{}", usage());
        return Invocation::Exit(2, text);
    };
    let cli = (cmd.flags)(Cli::from_args(cmd.name, cmd.about, argv.collect()));
    if cli.argv.iter().any(is_help) {
        return Invocation::Exit(0, cli.help());
    }
    match cli.try_parse() {
        Ok(args) => Invocation::Run(cmd, args),
        Err(e) => Invocation::Exit(
            2,
            format!("{e}\nrun `beldi-bench {name} --help` for the flag table"),
        ),
    }
}

/// Runs the subcommand `argv` names and returns the process exit status
/// (bodies that fail their own checks exit directly).
pub fn dispatch(argv: Vec<String>) -> i32 {
    match resolve(argv) {
        Invocation::Run(cmd, args) => {
            (cmd.body)(&args);
            0
        }
        Invocation::Exit(0, text) => {
            println!("{text}");
            0
        }
        Invocation::Exit(status, text) => {
            eprintln!("{text}");
            status
        }
    }
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
        .mode_flag("both")
        .flag("--workers", "N", "4", "concurrent request workers")
        .seed_flag()
        .switch("--smoke", "tiny preset")
    }

    #[test]
    fn typed_accessors_parse_values_and_defaults() {
        let args = demo(&["--workers", "8", "--seed", "7", "--smoke"])
            .try_parse()
            .unwrap();
        assert_eq!(args.usize("--workers"), 8);
        assert_eq!(args.u64("--seed"), 7);
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
        for name in ["--app", "--mode", "--workers", "--seed", "--smoke"] {
            assert_eq!(
                help.matches(name).count(),
                1,
                "{name} should appear exactly once in:\n{help}"
            );
        }
        assert!(help.contains("[default: 42]"), "{help}");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_subcommand_help_lists_each_of_its_flags_once() {
        assert_eq!(SUBCOMMANDS.len(), 10);
        for cmd in SUBCOMMANDS {
            let Invocation::Exit(0, help) = resolve(argv(&[cmd.name, "--help"])) else {
                panic!("{} --help must print its table and exit 0", cmd.name);
            };
            let declared = (cmd.flags)(Cli::from_args(cmd.name, cmd.about, Vec::new())).flags;
            assert!(!declared.is_empty(), "{}", cmd.name);
            for flag in &declared {
                let rows = help
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(flag.name))
                    .count();
                assert_eq!(rows, 1, "{} {} in:\n{help}", cmd.name, flag.name);
            }
        }
    }

    #[test]
    fn dispatch_errors_exit_2_and_point_at_the_fix() {
        let cases: [(&[&str], i32, &[&str]); 5] = [
            // `--help` alone lists every subcommand; no arguments at all
            // is the same text as an error.
            (&["--help"], 0, &["fig13", "fig26", "gate", "front"]),
            (&[], 2, &["usage:", "explore"]),
            (&["bench_gate"], 2, &["unknown subcommand", "gate", "drive"]),
            (
                &["drive", "--worker", "8"],
                2,
                &["unknown flag --worker", "drive --help"],
            ),
            (&["fig13", "--rows"], 2, &["needs a value"]),
        ];
        for (args, want_status, want_text) in cases {
            let Invocation::Exit(status, text) = resolve(argv(args)) else {
                panic!("{args:?} must not run anything");
            };
            assert_eq!(status, want_status, "{args:?}");
            for needle in want_text {
                assert!(text.contains(needle), "{args:?}: no {needle:?} in:\n{text}");
            }
        }
        let run = resolve(argv(&["drive", "--workers", "8"]));
        assert!(matches!(run, Invocation::Run(cmd, _) if cmd.name == "drive"));
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn undeclared_lookup_is_a_programmer_error() {
        let args = demo(&[]).try_parse().unwrap();
        let _ = args.str("--undeclared");
    }
}
