//! Command-line flag parsing shared by `elivagar-served` and
//! `elivagar-cli`.
//!
//! A flag is a `--name value` pair anywhere in the argument list. Numeric
//! flags are unsigned integers with a per-flag minimum: a malformed,
//! out-of-range or too-small value is an error naming the flag and the
//! value, never a silently substituted default, clamp or wrap.

use std::fmt::Display;
use std::num::{IntErrorKind, ParseIntError};
use std::str::FromStr;

/// The value after the first `name` in `args`.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The values after every `name` in `args`, in order.
pub fn flag_values(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
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
/// The message of [`parse_number`] when the flag is given a bad value.
pub fn parse_flag<T>(args: &[String], name: &str, min: T) -> Result<Option<T>, String>
where
    T: FromStr<Err = ParseIntError> + PartialOrd + Display,
{
    flag_value(args, name).map(|v| parse_number(name, &v, min)).transpose()
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
        let a = args(&["--w", "a=1", "--n", "0", "--w", "b=2", "--last"]);
        assert_eq!(flag_value(&a, "--n").as_deref(), Some("0"));
        assert_eq!(flag_value(&a, "--last"), None);
        assert_eq!(flag_values(&a, "--w"), ["a=1", "b=2"]);
        assert_eq!(parse_flag::<usize>(&a, "--missing", 1), Ok(None));
        assert_eq!(parse_flag::<usize>(&a, "--n", 0), Ok(Some(0)));
        assert_eq!(parse_flag::<usize>(&a, "--n", 1), Err("--n must be >= 1".into()));
    }
}
