//! The `beldi-bench` command line: the subcommand table and the flag
//! parser behind every subcommand.
//!
//! `beldi-bench <subcommand> [flags]` — [`subcommands`] lists the
//! subcommands, [`dispatch`] runs one. An experiment takes no flags.
//! Each harness declares its flags in one table ([`Cli::flag`] /
//! [`Cli::switch`], plus the [`Cli::app_flag`]-style helpers for the
//! flags several harnesses share), and everything derives from that
//! single declaration: typed lookup ([`Args::get`]), a generated
//! `--help` page, and unknown-flag rejection (a typo such as `--worker
//! 8` is an error, not a silent run with the default). Harness bodies
//! receive the parsed [`Args`]; nothing else in the library reads the
//! process's argv.
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
//! .try_parse()?;
//! assert_eq!(args.get::<usize>("--workers"), 8);
//! assert_eq!(args.str("--app"), "all");
//! # Ok::<(), String>(())
//! ```

use beldi::Mode;

use crate::cmd;
use crate::cmd::figures::{Figure, FIGURES};

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
        let none = if self.flags.is_empty() { " none" } else { "" };
        let mut out = format!("{} — {}\n\nflags:{none}\n", self.bin, self.about);
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
            self.get(name)
        }
    }

    /// Parses `name` (its declared default when absent); a value that
    /// does not parse is a usage error, exit status 2.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> T {
        let raw = self.str(name);
        let kind = std::any::type_name::<T>();
        raw.parse()
            .unwrap_or_else(|_| usage_error(format!("{name}: cannot parse {raw:?} as {kind}")))
    }
}

/// Reports a command line that cannot run: `message` to stderr, exit
/// status 2.
pub fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Reports a run that failed: `message` to stderr, exit status 1.
pub fn run_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}

/// One subcommand of the `beldi-bench` executable.
pub struct Subcommand {
    /// Its name on the command line.
    pub name: &'static str,
    /// One line for the subcommand listing and the top of its `--help`.
    pub about: &'static str,
    flags: fn(Cli) -> Cli,
    body: Body,
}

/// What a subcommand runs.
enum Body {
    /// A harness: its `main` on the parsed arguments.
    Main(fn(&Args)),
    /// A row of the experiment table, which takes no flags.
    Figure(&'static Figure),
}

macro_rules! harnesses {
    ($($name:literal => $module:ident, $about:literal;)*) => {
        /// The harnesses, in listing order.
        const HARNESSES: [Subcommand; 4] = [$(Subcommand {
            name: $name,
            about: $about,
            flags: cmd::$module::flags,
            body: Body::Main(cmd::$module::main),
        },)*];
    };
}
harnesses! {
    "drive" => drive, "closed-loop concurrent workload driver";
    "gate" => gate, "CI perf, storage-growth, and recovery gates over drive reports";
    "explore" => explore, "systematic crash-schedule exploration";
    "front" => serve, "HTTP front door over the cooperative executor";
}

/// Every subcommand, in listing order (`DESIGN.md` §4): a row of the
/// experiment table each, then the harnesses.
pub fn subcommands() -> impl Iterator<Item = Subcommand> {
    let figures = FIGURES.iter().map(|figure| Subcommand {
        name: figure.name,
        about: figure.tables[0].0,
        flags: |cli| cli,
        body: Body::Figure(figure),
    });
    figures.chain(HARNESSES)
}

/// What a command line resolves to before anything runs.
pub enum Invocation {
    /// Run this subcommand's body on these arguments.
    Run(Subcommand, Args),
    /// Print the text (to stdout for status 0, else stderr) and exit.
    Exit(i32, String),
}

fn is_help(arg: &String) -> bool {
    arg == "--help" || arg == "-h"
}

fn usage() -> String {
    let mut out = "usage: beldi-bench <subcommand> [flags]\n\nsubcommands:\n".to_owned();
    for c in subcommands() {
        out.push_str(&format!("  {:8}  {}\n", c.name, c.about));
    }
    out + "\n`beldi-bench <subcommand> --help` prints that subcommand's flag table"
}

/// Resolves `argv` (without the program name) against [`subcommands`]:
/// `--help` alone lists the subcommands, `<subcommand> --help` prints
/// its generated flag table, an unknown subcommand or flag is status 2.
pub fn resolve(argv: Vec<String>) -> Invocation {
    let mut argv = argv.into_iter();
    let name = match argv.next() {
        None => return Invocation::Exit(2, usage()),
        Some(arg) if is_help(&arg) => return Invocation::Exit(0, usage()),
        Some(name) => name,
    };
    let Some(cmd) = subcommands().find(|c| c.name == name) else {
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
/// (a harness that fails its own checks exits directly; an experiment
/// returns 1 when its claim fails).
pub fn dispatch(argv: Vec<String>) -> i32 {
    match resolve(argv) {
        Invocation::Run(cmd, args) => match cmd.body {
            Body::Main(main) => {
                main(&args);
                0
            }
            Body::Figure(figure) => figure.run(),
        },
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
        assert_eq!(args.get::<usize>("--workers"), 8);
        assert_eq!(args.get::<u64>("--seed"), 7);
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
        assert_eq!(subcommands().count(), 11);
        for cmd in subcommands() {
            let Invocation::Exit(0, help) = resolve(argv(&[cmd.name, "--help"])) else {
                panic!("{} --help must print its table and exit 0", cmd.name);
            };
            let declared = (cmd.flags)(Cli::from_args(cmd.name, cmd.about, Vec::new())).flags;
            // An experiment is the constants of its row; a harness has flags.
            let figure = matches!(cmd.body, Body::Figure(_));
            assert_eq!(declared.is_empty(), figure, "{}", cmd.name);
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
            (
                &["--help"],
                0,
                &["fig13", "fig25", "fig26", "gate", "front"],
            ),
            (&[], 2, &["usage:", "explore"]),
            (&["bench_gate"], 2, &["unknown subcommand", "gate", "drive"]),
            (
                &["drive", "--worker", "8"],
                2,
                &["unknown flag --worker", "drive --help"],
            ),
            (
                &["fig13", "--rows", "5"],
                2,
                &["unknown flag --rows", "fig13 --help"],
            ),
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
