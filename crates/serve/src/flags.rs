//! Command-line flag parsing shared by `elivagar-served` and
//! `elivagar-cli`.
//!
//! A flag is a `--name value` pair, or a `--name` switch, anywhere in the
//! argument list. A flag given without a value (last, or followed by
//! another `--flag`) is an error, and so is an argument that is neither a
//! known flag nor a flag's value ([`check_known`]). Numeric flags are
//! unsigned integers with a per-flag minimum: a malformed, out-of-range or
//! too-small value is an error naming the flag and the value, never a
//! silently substituted default, clamp or wrap.

use std::fmt::Display;
use std::num::{IntErrorKind, ParseIntError};
use std::str::FromStr;

/// The value after the first `name` in `args`: `Ok(None)` when `args`
/// does not give it.
///
/// # Errors
///
/// `<name> expects a value` when `name` comes last or is followed by an
/// argument starting with `--`.
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    Ok(flag_values(args, name)?.into_iter().next())
}

/// The values after every `name` in `args`, in order.
///
/// # Errors
///
/// As [`flag_value`], for any occurrence of `name`.
pub fn flag_values(args: &[String], name: &str) -> Result<Vec<String>, String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == name)
        .map(|(i, _)| match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Ok(value.clone()),
            _ => Err(format!("{name} expects a value")),
        })
        .collect()
}

/// Checks that every argument is one of `switches`, one of `valued`, or
/// the value right after one of `valued`.
///
/// # Errors
///
/// `unknown flag <arg>` for the first other argument that starts with
/// `--`, or `unexpected argument "<arg>"` for any other stray argument.
/// A valued flag without its value is left to [`flag_value`].
pub fn check_known(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next_if(|value| !value.starts_with("--"));
        } else if !switches.contains(&arg.as_str()) {
            return Err(if arg.starts_with("--") {
                format!("unknown flag {arg}")
            } else {
                format!("unexpected argument {arg:?}")
            });
        }
    }
    Ok(())
}

/// Parses `value`, given for the flag `name`, as an unsigned integer of
/// type `T` that is at least `min`.
///
/// # Errors
///
/// A message naming the flag: `<name> expects an unsigned integer, got
/// "<value>"`, `<name> is out of range, got "<value>"` (too large for
/// `T`), or `<name> must be >= <min>`.
pub fn parse_number<T>(name: &str, value: &str, min: T) -> Result<T, String>
where
    T: FromStr<Err = ParseIntError> + PartialOrd + Display,
{
    let n: T = value.parse().map_err(|e: ParseIntError| {
        if *e.kind() == IntErrorKind::PosOverflow {
            format!("{name} is out of range, got {value:?}")
        } else {
            format!("{name} expects an unsigned integer, got {value:?}")
        }
    })?;
    if n < min {
        return Err(format!("{name} must be >= {min}"));
    }
    Ok(n)
}

/// Parses the numeric flag `name` with [`parse_number`]: `Ok(None)` when
/// `args` does not give it.
///
/// # Errors
///
/// The message of [`flag_value`] or [`parse_number`] when the flag is
/// given no value or a bad one.
pub fn parse_flag<T>(args: &[String], name: &str, min: T) -> Result<Option<T>, String>
where
    T: FromStr<Err = ParseIntError> + PartialOrd + Display,
{
    flag_value(args, name)?.map(|v| parse_number(name, &v, min)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    // Messages for malformed, out-of-range and too-small values are
    // pinned through the binaries by `tests/cli_args.rs` and
    // `crates/serve/tests/daemon.rs`.
    #[test]
    fn flags_take_the_argument_after_them() {
        let a = args(&["--w", "a=1", "--n", "0", "--w", "b=2"]);
        assert_eq!(flag_value(&a, "--n"), Ok(Some("0".into())));
        assert_eq!(flag_value(&a, "--missing"), Ok(None));
        assert_eq!(flag_values(&a, "--w"), Ok(vec!["a=1".into(), "b=2".into()]));
        assert_eq!(parse_flag::<usize>(&a, "--missing", 1), Ok(None));
        assert_eq!(parse_flag::<usize>(&a, "--n", 0), Ok(Some(0)));
        assert_eq!(parse_flag::<usize>(&a, "--n", 1), Err("--n must be >= 1".into()));
    }

    #[test]
    fn only_known_flags_and_their_values_pass() {
        let (valued, switches) = (&["--n", "--w"][..], &["--quiet"][..]);
        let ok = args(&["--n", "3", "--quiet", "--w", "a=1", "--w", "--n"]);
        assert_eq!(check_known(&ok, valued, switches), Ok(()));
        let typo = args(&["--n", "3", "--m", "4"]);
        assert_eq!(check_known(&typo, valued, switches), Err("unknown flag --m".into()));
        let stray = args(&["--n", "3", "4"]);
        assert_eq!(check_known(&stray, valued, switches), Err("unexpected argument \"4\"".into()));
    }

    #[test]
    fn a_flag_without_a_value_is_an_error() {
        let a = args(&["--state", "--quiet", "--w", "a=1", "--w", "--n", "3", "--last"]);
        assert_eq!(flag_value(&a, "--state"), Err("--state expects a value".into()));
        assert_eq!(flag_value(&a, "--last"), Err("--last expects a value".into()));
        assert_eq!(flag_values(&a, "--w"), Err("--w expects a value".into()));
        assert_eq!(parse_flag::<usize>(&a, "--last", 0), Err("--last expects a value".into()));
        assert_eq!(parse_flag::<usize>(&a, "--n", 0), Ok(Some(3)));
    }
}
