//! Minimal shared flag parsing for the `llama3sim` subcommands.
//!
//! Query flags come from the query's field table
//! ([`parallelism_core::query::Record`]); what stays here are the
//! CLI-only flags ([`CliFlag`]), which shape how a result is printed
//! or served but never what is computed, so they have no wire key.
//! Every subcommand consumes its flags through a [`Flags`] cursor and
//! finishes with [`Flags::finish`] or [`Flags::query`], so unknown or
//! leftover arguments fail the same way everywhere.

use parallelism_core::query::{parse_num, QueryError};

/// A CLI-only flag: its name (spelled `--name`), the placeholder of its
/// value (`None` for a bare switch) and its usage help.
#[derive(Debug, Clone, Copy)]
pub struct CliFlag {
    /// The flag name without its `--`.
    pub name: &'static str,
    /// The value placeholder, `None` for a bare switch.
    pub value: Option<&'static str>,
    /// One-line help for the usage text.
    pub help: &'static str,
}

impl CliFlag {
    /// The usage text's `(flags, help)` line.
    pub fn usage(&self) -> (String, String) {
        let flag = match self.value {
            Some(v) => format!("--{} {v}", self.name),
            None => format!("--{}", self.name),
        };
        (flag, self.help.to_string())
    }
}

/// `--json`: also print the `BENCH_*.json` envelope to stdout.
pub const JSON: CliFlag = CliFlag {
    name: "json",
    value: None,
    help: "also print the JSON envelope to stdout",
};

/// A cursor over raw CLI arguments. Flags may appear in any order;
/// each accessor removes what it consumed, and [`Flags::finish`]
/// rejects anything left over.
#[derive(Debug, Clone)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Wraps the argument list (program name and subcommand already
    /// stripped).
    pub fn new(args: &[String]) -> Flags {
        Flags {
            args: args.to_vec(),
        }
    }

    /// Consumes the bare switch `--name` if present; `true` when it was.
    pub fn switch(&mut self, flag: &CliFlag) -> bool {
        let spelled = format!("--{}", flag.name);
        match self.args.iter().position(|a| *a == spelled) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consumes `--name VALUE` if present. `Err` when the flag is
    /// present but its value is missing.
    pub fn opt(&mut self, flag: &CliFlag) -> Result<Option<String>, String> {
        let spelled = format!("--{}", flag.name);
        let Some(i) = self.args.iter().position(|a| *a == spelled) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(format!("{spelled} requires a value"));
        }
        self.args.remove(i);
        Ok(Some(self.args.remove(i)))
    }

    /// Consumes `--name VALUE` and parses it with the query grammar's
    /// number parser (decimal or `0x` hex).
    pub fn opt_num<T: TryFrom<u64>>(&mut self, flag: &CliFlag) -> Result<Option<T>, String> {
        self.opt(flag)?
            .map(|v| parse_num(&v).map_err(|e| format!("--{}: {e}", flag.name)))
            .transpose()
    }

    /// Hands every remaining argument to a query's flag parser.
    pub fn query<Q>(self, parse: fn(&[String]) -> Result<Q, QueryError>) -> Result<Q, String> {
        parse(&self.args).map_err(|e| e.message)
    }

    /// Errors on any argument not consumed by the accessors above.
    pub fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(a) => Err(format!("unrecognized argument {a:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallelism_core::query::{FuzzQuery, Record};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const CASES: CliFlag = CliFlag {
        name: "cases",
        value: Some("N"),
        help: "",
    };

    #[test]
    fn switches_and_options_consume_in_any_order() {
        let mut f = Flags::new(&args(&["--seed", "0xC0FFEE", "--json", "--cases", "9"]));
        assert!(f.switch(&JSON));
        assert!(!f.switch(&JSON), "consumed switches do not repeat");
        assert_eq!(f.opt_num::<u64>(&CASES).unwrap(), Some(9));
        let q = f.query(FuzzQuery::from_args).unwrap();
        assert_eq!(q.seed, 0xC0FFEE);
    }

    #[test]
    fn leftovers_and_missing_values_error() {
        let f = Flags::new(&args(&["--what"]));
        assert!(f.finish().unwrap_err().contains("--what"));
        let mut f = Flags::new(&args(&["--cases"]));
        assert!(f.opt(&CASES).unwrap_err().contains("requires a value"));
        let mut f = Flags::new(&args(&["--cases", "many"]));
        assert!(f.opt_num::<u64>(&CASES).unwrap_err().contains("bad number"));
        let f = Flags::new(&args(&["--json"]));
        assert!(f
            .query(FuzzQuery::from_args)
            .unwrap_err()
            .contains("--json"));
    }
}
