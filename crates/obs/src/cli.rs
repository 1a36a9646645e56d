//! The one command-line runtime every `swim-*` binary runs on.
//!
//! A binary declares a [`Cli`]: one [`Command`] (or one per
//! subcommand), each with a table of [`Flag`]s. [`parse`] reads argv
//! against that table and returns the flags or a usage error without
//! exiting; [`usage`] generates the usage text from the same table, so
//! the two cannot drift. [`main`] applies the one exit rule around the
//! binary's body:
//!
//! * `--help`/`-h` prints the usage to stdout and exits 0;
//! * a usage error ([`Error::Usage`]) prints `error: …` and the usage
//!   to stderr and exits 2;
//! * a runtime error ([`Error::Runtime`]) prints `error: …` to stderr
//!   and exits 1.
//!
//! Around the body it also starts instrumentation from `SWIM_OBS`
//! ([`crate::init_from_env`]) and appends the final snapshot to
//! `SWIM_OBS_JSONL` ([`crate::jsonl::append_env`]). Results go to
//! stdout through [`print()`], which takes a reader that has gone away
//! (`swim-query … | head`) as the end of the output, not a failure.

use std::io::Write;
use std::process::ExitCode;

/// One declared flag: its name, its value placeholder (`None` for a
/// switch) and one help line.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, `--select`.
    pub name: &'static str,
    /// Placeholder of the value it takes (`AGGS`), `None` for a switch.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        let value = None;
        Flag { name, value, help }
    }

    /// A flag that takes the next argument as its value.
    pub const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        let value = Some(value);
        Flag { name, value, help }
    }
}

/// A command, or one subcommand of a binary: its name (empty for a
/// binary without subcommands), its positional synopsis and its flags,
/// declared in groups so a shared table (the query flags) is named
/// once.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// Subcommand name; empty when the binary has none.
    pub name: &'static str,
    /// Positional synopsis (`DIR TRACE...`); empty if it takes none.
    pub args: &'static str,
    /// Flag tables, in the order the usage lists them.
    pub flags: &'static [&'static [Flag]],
}

impl Command {
    /// Every flag the command takes.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }
}

/// A binary's whole command-line surface.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary's name, `swim-query`.
    pub name: &'static str,
    /// Its commands: one unnamed, or one per subcommand.
    pub commands: &'static [Command],
    /// Text the usage ends with (formats, defaults, examples).
    pub notes: &'static str,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand that was named (empty without subcommands).
    pub command: &'static str,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// Flags in command-line order, with their values (`None` for a
    /// switch).
    pub flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The value of flag `name`; the last one wins.
    pub fn value(&self, name: &str) -> Option<&str> {
        let mut given = self.flags.iter().rev().filter(|(flag, _)| *flag == name);
        given.next().and_then(|(_, value)| value.as_deref())
    }

    /// The value of flag `name` parsed as a `T`; a value that does not
    /// parse is a usage error, "`name` requires `what`, got …".
    pub fn parse<T: std::str::FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, Error> {
        let Some(value) = self.value(name) else {
            return Ok(None);
        };
        let parsed = value
            .parse()
            .map_err(|_| format!("{name} requires {what}, got {value:?}"));
        parsed.map(Some).map_err(Error::Usage)
    }
}

/// How a command failed; the variant decides the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A malformed command line: exit 2, with the usage.
    Usage(String),
    /// A well-formed command that failed: exit 1.
    Runtime(String),
}

/// Any displayable error a body meets is a runtime error.
impl<E: std::fmt::Display> From<E> for Error {
    fn from(e: E) -> Error {
        Error::Runtime(e.to_string())
    }
}

/// Read `argv` (without the program name) against `cli`. `Ok(None)`
/// means `--help` or `-h` was given; every `Err` is a usage error.
/// Pure: nothing is printed and nothing exits.
pub fn parse(cli: &Cli, argv: &[String]) -> Result<Option<Args>, String> {
    let mut rest = argv.iter();
    let command = match cli.commands {
        [only] if only.name.is_empty() => only,
        commands => match rest.next().map(String::as_str) {
            None => return Err("a subcommand is required".into()),
            Some("--help" | "-h") => return Ok(None),
            Some(name) => commands
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| format!("unknown subcommand {name}"))?,
        },
    };
    let mut args = Args {
        command: command.name,
        positional: Vec::new(),
        flags: Vec::new(),
    };
    let elsewhere = |arg: &str| {
        cli.commands
            .iter()
            .any(|c| c.flags().any(|f| f.name == arg))
    };
    while let Some(arg) = rest.next() {
        let flag = command.flags().find(|f| f.name == arg);
        match (flag, arg.strip_prefix('-')) {
            (_, Some("-help" | "h")) => return Ok(None),
            (Some(flag), _) if flag.value.is_none() => args.flags.push((flag.name, None)),
            (Some(flag), _) => {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                args.flags.push((flag.name, Some(value.clone())));
            }
            (None, None) if !command.args.is_empty() => args.positional.push(arg.clone()),
            (None, None) => return Err(format!("unexpected argument {arg}")),
            (None, Some(_)) if elsewhere(arg) => {
                return Err(format!("{arg} does not apply to this subcommand"))
            }
            (None, Some(_)) => return Err(format!("unknown flag {arg}")),
        }
    }
    Ok(Some(args))
}

/// The usage text, generated from `cli`'s tables: one `usage:` line per
/// command, each followed by its flags and their help.
pub fn usage(cli: &Cli) -> String {
    let left = |f: &Flag| match f.value {
        Some(value) => format!("{} {value}", f.name),
        None => f.name.to_owned(),
    };
    let flags = cli.commands.iter().flat_map(Command::flags);
    let width = flags.map(|f| left(f).len()).max().unwrap_or(0);
    let mut out = String::new();
    for command in cli.commands {
        let bare = command.flags.is_empty();
        let mut words = vec![cli.name, command.name, command.args];
        words.push(if bare { "" } else { "[flags]" });
        words.retain(|w| !w.is_empty());
        out.push_str(&format!("usage: {}\n", words.join(" ")));
        for flag in command.flags() {
            out.push_str(&format!("  {:width$}  {}\n", left(flag), flag.help));
        }
    }
    out.push_str(cli.notes);
    out
}

/// Write `text` to stdout in one `write_all` on the locked handle.
/// `Ok(false)` means the reader has gone away: that ends the output,
/// and is not an error.
pub fn print(text: &str) -> Result<bool, Error> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(Error::Runtime(format!("write stdout: {e}"))),
    }
}

/// Run a binary: parse the process arguments against `cli`, answer
/// `--help`, run `body` between [`crate::init_from_env`] and the
/// `SWIM_OBS_JSONL` flush, and exit by the one rule.
pub fn main(cli: &Cli, body: impl FnOnce(Args) -> Result<(), Error>) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(cli, &argv) {
        Ok(None) => print(&usage(cli)).map(drop),
        Ok(Some(args)) => {
            crate::init_from_env();
            let result = body(args);
            if let Err(e) = crate::jsonl::append_env(&crate::snapshot()) {
                eprintln!("warning: SWIM_OBS_JSONL: {e}");
            }
            result
        }
        Err(msg) => Err(Error::Usage(msg)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(msg)) => {
            eprint!("error: {msg}\n\n{}", usage(cli));
            ExitCode::from(2)
        }
        Err(Error::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARED: &[Flag] = &[Flag::value("--select", "AGGS", "what to compute")];
    const TOOL: Cli = Cli {
        name: "tool",
        commands: &[
            Command {
                name: "init",
                args: "DIR",
                flags: &[],
            },
            Command {
                name: "query",
                args: "DIR",
                flags: &[&[Flag::switch("--serial", "one thread")], SHARED],
            },
            Command {
                name: "compact",
                args: "DIR",
                flags: &[&[Flag::switch("--vacuum", "remove orphans")]],
            },
        ],
        notes: "notes end the usage\n",
    };
    const SINGLE: Cli = Cli {
        name: "single",
        commands: &[Command {
            name: "",
            args: "",
            flags: &[&[Flag::value("--port", "N", "port")]],
        }],
        notes: "",
    };

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn flags_values_and_positionals_come_back_in_order() {
        let args = parse(
            &TOOL,
            &argv("query d --select count --serial --select sum(x)"),
        )
        .unwrap()
        .unwrap();
        assert_eq!(args.command, "query");
        assert_eq!(args.positional, ["d"]);
        assert!(args.has("--serial") && !args.has("--vacuum"));
        assert_eq!(args.value("--select"), Some("sum(x)"));
        assert_eq!(args.flags.len(), 3);
        // A value is taken as given, leading dash included.
        let args = parse(&TOOL, &argv("query --select -h")).unwrap().unwrap();
        assert_eq!(args.value("--select"), Some("-h"));
    }

    #[test]
    fn usage_errors_name_the_argument() {
        let err = |text: &str| parse(&TOOL, &argv(text)).unwrap_err();
        assert_eq!(err(""), "a subcommand is required");
        assert_eq!(err("frob"), "unknown subcommand frob");
        assert_eq!(err("query d --select"), "--select requires a value");
        assert_eq!(
            err("query d --vacuum"),
            "--vacuum does not apply to this subcommand"
        );
        assert_eq!(err("query d --bogus"), "unknown flag --bogus");
        let err = parse(&SINGLE, &argv("--port 1 extra")).unwrap_err();
        assert_eq!(err, "unexpected argument extra");
    }

    #[test]
    fn help_is_recognised_anywhere_but_in_a_value() {
        for text in ["--help", "-h", "query d -h", "query --select x --help"] {
            assert_eq!(parse(&TOOL, &argv(text)), Ok(None), "{text}");
        }
        assert_eq!(parse(&SINGLE, &argv("--port 1 --help")), Ok(None));
    }

    #[test]
    fn typed_values_quote_what_did_not_parse() {
        let args = parse(&SINGLE, &argv("--port http")).unwrap().unwrap();
        assert_eq!(
            args.parse::<u16>("--port", "a port number"),
            Err(Error::Usage(
                "--port requires a port number, got \"http\"".into()
            ))
        );
        let args = parse(&SINGLE, &argv("--port 80")).unwrap().unwrap();
        assert_eq!(args.parse::<u16>("--port", "a port number"), Ok(Some(80)));
        assert_eq!(args.parse::<u16>("--other", "anything"), Ok(None));
    }

    #[test]
    fn usage_is_generated_from_the_tables() {
        assert_eq!(
            usage(&TOOL),
            "usage: tool init DIR\n\
             usage: tool query DIR [flags]\n\
             \x20 --serial       one thread\n\
             \x20 --select AGGS  what to compute\n\
             usage: tool compact DIR [flags]\n\
             \x20 --vacuum       remove orphans\n\
             notes end the usage\n"
        );
        assert_eq!(usage(&SINGLE), "usage: single [flags]\n  --port N  port\n");
    }

    /// Words a command line can be made of: every flag of both tables,
    /// help, strangers, bare words.
    const WORDS: &[&str] = &[
        "init", "query", "compact", "frob", "--select", "--serial", "--vacuum", "--port", "--help",
        "-h", "--bogus", "-", "", "d", "80", "sum(x)",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Any argv parses to flags of the named command only, each
        /// with a value exactly when its table says so, positionals
        /// only where the command takes them — or to help, or to an
        /// error; never to a panic.
        #[test]
        fn any_argv_parses_to_table_flags_or_an_error(
            picks in proptest::collection::vec(0usize..WORDS.len(), 0..8),
            single in proptest::prelude::any::<bool>(),
        ) {
            let cli = if single { &SINGLE } else { &TOOL };
            let argv: Vec<String> = picks.iter().map(|&i| WORDS[i].to_owned()).collect();
            if let Ok(Some(args)) = parse(cli, &argv) {
                let command = cli.commands.iter().find(|c| c.name == args.command).unwrap();
                for (name, value) in &args.flags {
                    let flag = command.flags().find(|f| f.name == *name).unwrap();
                    proptest::prop_assert_eq!(flag.value.is_some(), value.is_some());
                }
                proptest::prop_assert!(args.positional.is_empty() || !command.args.is_empty());
            }
        }
    }
}
