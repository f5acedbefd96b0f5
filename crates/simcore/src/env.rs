//! Environment-variable overrides under one rule: an unset variable yields
//! the default, and a set one must parse and be accepted, or the reader
//! returns the message naming the variable and the value. Every binary
//! reports that message as a usage error (exit 2); a typo never falls
//! back to the default without a word.

use std::env::VarError;
use std::str::FromStr;

/// `raw`, the setting of the variable `name` as [`std::env::var`] reads
/// it, as a `T`: `default` when unset, the parsed value when it parses and
/// `accept` takes it, else the message naming `name`, the value and `what`
/// it must be (a value that is not UTF-8 included). Pure in its inputs, so
/// tests never race on the process environment.
pub fn parse_override<T: FromStr>(
    name: &str,
    raw: Result<String, VarError>,
    default: T,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let raw = match raw {
        Ok(raw) => raw,
        Err(VarError::NotPresent) => return Ok(default),
        Err(VarError::NotUnicode(raw)) => {
            return Err(format!("{name} must be {what}, got {raw:?}"))
        }
    };
    match raw.parse() {
        Ok(v) if accept(&v) => Ok(v),
        _ => Err(format!("{name} must be {what}, got {raw:?}")),
    }
}

/// [`parse_override`] of the variable `name` in this process's environment.
pub fn try_env_override<T: FromStr>(
    name: &str,
    default: T,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, String> {
    parse_override(name, std::env::var(name), default, what, accept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(raw: Option<&str>) -> Result<usize, String> {
        let raw = raw.map(str::to_string).ok_or(VarError::NotPresent);
        parse_override("SFS_TEST_COUNT", raw, 7, "a count >= 1", |&n| n >= 1)
    }

    #[test]
    fn unset_yields_the_default_and_a_valid_value_wins() {
        assert_eq!(count(None), Ok(7));
        assert_eq!(count(Some("3")), Ok(3));
    }

    #[test]
    fn malformed_or_rejected_values_abort_naming_variable_and_value() {
        for raw in ["abc", "0", "-1", "", "1.5"] {
            let msg = count(Some(raw)).expect_err("must be refused");
            assert!(msg.contains("SFS_TEST_COUNT"), "names the variable: {msg}");
            assert!(msg.contains(&format!("{raw:?}")), "names the value: {msg}");
            assert!(msg.contains("a count >= 1"), "says what it must be: {msg}");
        }
    }

    #[test]
    fn an_unset_variable_reads_as_the_default() {
        let v = try_env_override("SFS_TEST_SURELY_UNSET_VARIABLE", 11u64, "a number", |_| {
            true
        });
        assert_eq!(v, Ok(11));
    }
}
