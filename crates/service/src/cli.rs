//! The one command-line grammar of the workspace's binaries, and the
//! daemon front-end built on it.
//!
//! Each command declares its operands and flags once, in a [`Command`]
//! table, and [`Command::parse`] checks a whole command line against it
//! before any work starts: operands and flags in any order (a bare `--`
//! is skipped), and an unknown flag, an extra operand or a repeated flag
//! refused as `<cmd> does not take '<arg>'`. `--help`/`-h` prints the
//! usage generated from the table. [`main`] exits 0 on success or help,
//! 2 on a usage error and 1 on a runtime failure. [`ServeConfig`] is the
//! daemon's command line: `dramscoped` and `characterize serve` both run
//! through it.

use crate::daemon::{serve_stdio, ConnMode};
use crate::service::Service;
use dram_obs::{EventBus, JournalConfig, JournalWriter};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// What runs a parsed command line.
pub type Run = fn(&Args) -> Result<(), Box<dyn Error>>;

/// A command's grammar, and the function that runs it.
#[derive(Debug)]
pub struct Command {
    /// The command as typed; errors call it by its last word.
    pub name: &'static str,
    /// What it does: a one-line summary, then any detail.
    pub about: &'static str,
    /// Operands in order: `<FILE>` is required, `[PROFILE]` optional.
    pub operands: &'static [&'static str],
    /// A missing required operand, as in `stats needs a trace file`.
    pub needs: &'static str,
    /// The flags it takes.
    pub flags: &'static [Flag],
    /// Commands a first argument equal to their last word selects.
    pub subcommands: &'static [&'static Command],
    /// Runs a parsed command line.
    pub run: Run,
}

/// One flag of a [`Command`]: its name as typed (`--seed`), its value's
/// placeholder (`N`; empty for a switch), its usage line, and the check
/// its value must pass.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    value: &'static str,
    help: &'static str,
    check: fn(&str) -> Result<(), String>,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::text(name, "", help)
    }

    /// A flag whose value is any text: a path, a name, a list.
    pub const fn text(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag::parsed::<String>(name, value, help)
    }

    /// A flag whose value must parse as `T`.
    pub const fn parsed<T: FromStr>(
        name: &'static str,
        value: &'static str,
        help: &'static str,
    ) -> Flag
    where
        T::Err: fmt::Display,
    {
        Flag {
            name,
            value,
            help,
            check: |raw| raw.parse::<T>().map(drop).map_err(|e| e.to_string()),
        }
    }
}

/// `--journal FILE`, for every command that can journal its events.
pub const JOURNAL: Flag = Flag::text("--journal", "FILE", "append events to a JSON-lines journal");

/// A command line that starts no run.
#[derive(Debug)]
pub enum Usage {
    /// `--help`/`-h`: the usage text, for stdout.
    Help(String),
    /// A usage error, for stderr.
    Error(String),
}

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Usage::Help(text) | Usage::Error(text) => f.write_str(text),
        }
    }
}

impl Error for Usage {}

/// A usage error (exit 2) as a command's result: always `Err`.
pub fn usage<T>(message: impl Into<String>) -> Result<T, Box<dyn Error>> {
    Err(Box::new(Usage::Error(message.into())))
}

impl Command {
    /// The last word of the name: what usage errors call the command.
    pub fn word(&self) -> &'static str {
        self.name.rsplit(' ').next().unwrap_or(self.name)
    }

    /// Checks `argv` (the arguments after the command's name) against
    /// the table: [`Usage::Help`] for `--help`/`-h`, [`Usage::Error`] for
    /// anything the table does not allow.
    pub fn parse(&'static self, argv: &[String]) -> Result<Args, Usage> {
        let word = self.word();
        let refuse =
            |arg: &str, why: &str| Usage::Error(format!("{word} does not take '{arg}'{why}"));
        let mut args = Args {
            command: self,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            if arg == "--" {
                // `cargo run --bin characterize fleet -- --serial` passes
                // the `--` through; the README's invocations rely on it.
                continue;
            } else if arg == "--help" || arg == "-h" {
                return Err(Usage::Help(self.usage()));
            } else if !arg.starts_with('-') {
                if args.operands.len() == self.operands.len() {
                    return Err(refuse(arg, ""));
                }
                args.operands.push(arg.clone());
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                return Err(refuse(arg, ""));
            };
            if args.has(flag.name) {
                return Err(refuse(arg, " twice"));
            }
            let value = if flag.value.is_empty() {
                None
            } else {
                let Some(raw) = rest.next() else {
                    return Err(Usage::Error(format!("{arg} needs a value")));
                };
                (flag.check)(raw)
                    .map_err(|why| Usage::Error(format!("invalid {arg} value '{raw}': {why}")))?;
                Some(raw.clone())
            };
            args.flags.push((flag.name, value));
        }
        if args.operands.len() < self.operands.iter().filter(|o| o.starts_with('<')).count() {
            return Err(Usage::Error(format!("{word} needs {}", self.needs)));
        }
        Ok(args)
    }

    /// The usage text, generated from the table.
    pub fn usage(&self) -> String {
        let operands: String = self.operands.iter().map(|o| format!(" {o}")).collect();
        let mut out = format!(
            "usage: {}{operands} [options]\n{}\n\n",
            self.name, self.about
        );
        let spec = |f: &Flag| format!("{} {}", f.name, f.value).trim_end().to_string();
        let mut rows: Vec<(String, &str)> = self.flags.iter().map(|f| (spec(f), f.help)).collect();
        rows.push(("-h, --help".into(), "print this help"));
        push_rows(&mut out, &rows);
        if !self.subcommands.is_empty() {
            out.push_str(&format!("\ncommands (`{} <command> --help`):\n", self.name));
            let summary = |c: &&Command| (c.word().into(), c.about.lines().next().unwrap_or(""));
            let commands: Vec<_> = self.subcommands.iter().map(summary).collect();
            push_rows(&mut out, &commands);
        }
        out
    }
}

/// Appends two aligned columns, one row per line.
fn push_rows(out: &mut String, rows: &[(String, &str)]) {
    let width = rows.iter().map(|(left, _)| left.len()).max().unwrap_or(0);
    for (left, right) in rows {
        out.push_str(&format!("  {left:<width$}  {right}\n"));
    }
}

/// A parsed command line: its operands and the flags it set, every
/// value already checked against the [`Command`] table.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    operands: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Operand `i`, if given.
    pub fn operand(&self, i: usize) -> Option<&str> {
        self.operands.get(i).map(String::as_str)
    }

    /// The entry for `flag`, if given. Asking for a flag the table does
    /// not declare is a bug in the caller, caught in debug builds.
    fn given(&self, flag: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.command.flags.iter().any(|f| f.name == flag),
            "{} does not declare {flag}",
            self.command.name
        );
        self.flags.iter().find(|(n, _)| *n == flag).map(|(_, v)| v)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The text value of `flag`, if given.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.given(flag)?.as_deref()
    }

    /// The value of `flag`, if given. Panics unless the table declares
    /// `flag` as [`Flag::parsed::<T>`](Flag::parsed), the type
    /// [`Command::parse`] checked the value against.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.text(flag)?;
        Some((raw.parse().ok()).unwrap_or_else(|| panic!("{flag} is not declared as this type")))
    }
}

/// A binary's whole `main`: runs `command`, or the subcommand its first
/// argument names, with help on stdout, errors on stderr as
/// `<program>: <error>`, and the grammar's exit code.
pub fn main(program: &'static Command) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let first = argv.first().map(String::as_str);
    let (command, argv) = match program.subcommands.iter().find(|c| first == Some(c.word())) {
        Some(sub) => (*sub, &argv[1..]),
        None => (program, &argv[..]),
    };
    let result = match command.parse(argv) {
        Ok(args) => (command.run)(&args),
        Err(usage) => Err(usage.into()),
    };
    let Err(e) = result else {
        return ExitCode::SUCCESS;
    };
    if let Some(Usage::Help(text)) = e.downcast_ref::<Usage>() {
        print!("{text}");
        return ExitCode::SUCCESS;
    }
    eprintln!("{}: {e}", program.name);
    ExitCode::from(if e.is::<Usage>() { 2 } else { 1 })
}

/// The `--journal FILE` sink: an event bus that mirrors every emission
/// to a rotating JSON-lines journal (`characterize events FILE` reads
/// it back).
#[derive(Debug)]
pub struct Journal {
    bus: Option<EventBus>,
}

impl Journal {
    /// Opens the journal at `path` for appending (`None` journals
    /// nothing), or fails when the file cannot be opened.
    pub fn open(path: Option<&Path>) -> Result<Journal, Box<dyn Error>> {
        let open = |path| JournalWriter::open(path, JournalConfig::default());
        let writer = path.map(open).transpose();
        let writer = writer.map_err(|e| format!("cannot open journal: {e}"))?;
        let bus = writer.map(|w| EventBus::with_journal(dram_obs::DEFAULT_RING_CAPACITY, w));
        Ok(Journal { bus })
    }

    /// The bus to emit on, when journaling.
    pub fn bus(&self) -> Option<&EventBus> {
        self.bus.as_ref()
    }

    /// Flushes the journal. Write failures are absorbed on the hot path
    /// and surface here, once: the flush failed, or lines were dropped.
    pub fn finish(&self) -> Result<(), Box<dyn Error>> {
        let Some(bus) = &self.bus else {
            return Ok(());
        };
        bus.flush().map_err(|e| e.to_string())?;
        match bus.journal_errors() {
            0 => Ok(()),
            n => Err(format!("journal dropped {n} event line(s)").into()),
        }
    }
}

/// The daemon's command line, shared by `dramscoped` and
/// `characterize serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Fleet pool threads (0 = the machine's parallelism).
    pub workers: usize,
    /// Serve this unix socket instead of stdin/stdout.
    pub socket: Option<PathBuf>,
    /// Journal events to this file.
    pub journal: Option<PathBuf>,
    /// The traces `query` requests scan.
    pub trace_dir: Option<PathBuf>,
    /// The dossier cache's persistence directory.
    pub cache_dir: Option<PathBuf>,
    /// In-memory cache bound in entries (0 = unbounded).
    pub cache_max_entries: u64,
    /// In-memory cache bound in payload bytes (0 = unbounded).
    pub cache_max_bytes: u64,
    /// How each connection schedules its requests.
    pub mode: ConnMode,
}

const SERVE_ABOUT: &str = "Serves characterization requests as JSON lines.
Reads stdin (or a unix socket) until EOF or a shutdown request; identical
jobs share one simulation and a content-addressed dossier cache. Requests:
  {\"req\":\"characterize\",\"id\":\"j1\",\"profile\":\"test_small\",\"seed\":42}
  {\"req\":\"query\",\"id\":\"q1\",\"cmd\":\"act\",\"bank\":3}
  {\"req\":\"stats\"}
  {\"req\":\"shutdown\"}";

const SERVE_FLAGS: &[Flag] = &[
    Flag::parsed::<usize>("--workers", "N", "fleet pool threads (0 = all cores)"),
    Flag::text("--socket", "PATH", "serve this unix socket, not stdio"),
    JOURNAL,
    Flag::text("--trace-dir", "PATH", "the traces query requests scan"),
    Flag::text("--cache-dir", "PATH", "persist dossiers across restarts"),
    Flag::parsed::<u64>("--cache-max-entries", "N", "cache entry bound (0 = none)"),
    Flag::parsed::<u64>("--cache-max-bytes", "N", "cache byte bound (0 = none)"),
    Flag::switch("--serial", "answer in request order (default: pipelined)"),
];

impl ServeConfig {
    /// The daemon's grammar, under the name it is invoked by.
    pub const fn command(name: &'static str) -> Command {
        Command {
            name,
            about: SERVE_ABOUT,
            operands: &[],
            needs: "",
            flags: SERVE_FLAGS,
            subcommands: &[],
            run: |args| ServeConfig::from_args(args).run(),
        }
    }

    /// Reads a command line parsed against [`command`](Self::command).
    pub fn from_args(args: &Args) -> ServeConfig {
        let path = |flag| args.text(flag).map(PathBuf::from);
        ServeConfig {
            workers: args.value("--workers").unwrap_or(0),
            socket: path("--socket"),
            journal: path("--journal"),
            trace_dir: path("--trace-dir"),
            cache_dir: path("--cache-dir"),
            cache_max_entries: args.value("--cache-max-entries").unwrap_or(0),
            cache_max_bytes: args.value("--cache-max-bytes").unwrap_or(0),
            mode: match args.has("--serial") {
                true => ConnMode::Serial,
                false => ConnMode::Pipelined,
            },
        }
    }

    /// Builds the service, serves until EOF or a shutdown request, and
    /// flushes the journal. Fails when the journal or the cache directory
    /// cannot be opened, the transport fails, or journal lines drop.
    pub fn run(&self) -> Result<(), Box<dyn Error>> {
        let journal = Journal::open(self.journal.as_deref())?;
        let service = Arc::new(match journal.bus() {
            None => Service::new(self.workers),
            Some(bus) => Service::with_events(self.workers, bus.clone()),
        });
        if let Some(dir) = &self.trace_dir {
            service.set_trace_dir(dir);
        }
        if let Some(dir) = &self.cache_dir {
            let set = service.set_cache_dir(dir);
            set.map_err(|e| format!("--cache-dir {}: {e}", dir.display()))?;
        }
        if self.cache_max_entries != 0 || self.cache_max_bytes != 0 {
            service.set_cache_limits(self.cache_max_entries, self.cache_max_bytes);
        }
        match &self.socket {
            None => serve_stdio(&service, self.mode)?,
            #[cfg(unix)]
            Some(path) => crate::daemon::serve_unix(&service, path, self.mode)?,
            #[cfg(not(unix))]
            Some(_) => return usage("--socket requires a unix platform"),
        }
        journal.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: Command = Command {
        name: "demo run",
        about: "A demo.",
        operands: &["<FILE>", "[MORE]"],
        needs: "a file",
        flags: &[
            Flag::switch("--quiet", "quietly"),
            Flag::parsed::<u32>("--count", "N", "how many"),
            Flag::text("--out", "FILE", "where to"),
        ],
        subcommands: &[],
        run: |_| Ok(()),
    };

    fn parse(line: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        DEMO.parse(&argv).map_err(|e| match e {
            Usage::Help(text) => format!("help: {text}"),
            Usage::Error(text) => text,
        })
    }

    #[test]
    fn operands_and_flags_mix_in_any_order() {
        let args = parse(&["--quiet", "--count", "3", "a", "--", "--out", "-x", "b"]).unwrap();
        assert_eq!((args.operand(0), args.operand(1)), (Some("a"), Some("b")));
        assert!(args.has("--quiet"));
        assert_eq!(args.value::<u32>("--count"), Some(3));
        // A value is the next argument, whatever it looks like.
        assert_eq!(args.text("--out"), Some("-x"));
        let args = parse(&["a"]).unwrap();
        assert!(!args.has("--quiet"));
        assert_eq!(args.value::<u32>("--count"), None);
    }

    #[test]
    fn the_table_refuses_what_it_does_not_declare() {
        let cases: &[(&[&str], &str)] = &[
            (&[], "run needs a file"),
            (&["a", "b", "c"], "run does not take 'c'"),
            (&["a", "--bogus"], "run does not take '--bogus'"),
            (&["a", "-q"], "run does not take '-q'"),
            (
                &["a", "--quiet", "--quiet"],
                "run does not take '--quiet' twice",
            ),
            (&["a", "--count"], "--count needs a value"),
            (
                &["a", "--count", "-1"],
                "invalid --count value '-1': invalid digit",
            ),
        ];
        for (line, want) in cases {
            let got = parse(line).map(|_| ()).unwrap_err();
            assert!(got.starts_with(want), "{line:?} gave {got:?}");
        }
    }

    #[test]
    fn help_lists_every_flag_unless_an_earlier_argument_is_refused() {
        let refused = parse(&["--bogus", "-h"]).unwrap_err();
        assert_eq!(refused, "run does not take '--bogus'");
        let help = parse(&["-h", "--bogus"]).unwrap_err();
        assert!(help.starts_with("help: usage: demo run <FILE> [MORE] [options]\nA demo.\n"));
        for row in ["--quiet", "--count N", "--out FILE", "-h, --help"] {
            assert!(help.contains(&format!("  {row} ")), "{row} in {help}");
        }
    }
}
