//! Environment-variable overrides under one rule: an unset variable yields
//! the default, and a set one must parse and be accepted, or the process
//! aborts naming the variable and the value ([`try_env_override`] hands
//! that message back instead). A typo never falls back to the default
//! without a word.

use std::env::VarError;
use std::str::FromStr;

/// `value`, the raw setting of the variable `name` (`None` when unset), as
/// a `T`: `default` when unset, and a panic naming `name`, the value and
/// `what` it must be when it does not parse or `accept` rejects it. Pure in
/// its inputs, so tests never race on the process environment.
pub fn parse_override<T: FromStr>(
    name: &str,
    value: Option<&str>,
    default: T,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> T {
    checked(name, value, default, what, accept).unwrap_or_else(|e| panic!("{e}"))
}

/// [`parse_override`] of the variable `name` in this process's environment.
/// A value that is not UTF-8 aborts too.
pub fn env_override<T: FromStr>(
    name: &str,
    default: T,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> T {
    try_env_override(name, default, what, accept).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`env_override`], but a rejected value is returned as the message
/// naming the variable and the value, for a front end that reports it as
/// a usage error rather than aborting.
pub fn try_env_override<T: FromStr>(
    name: &str,
    default: T,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, String> {
    match std::env::var(name) {
        Ok(raw) => checked(name, Some(&raw), default, what, accept),
        Err(VarError::NotPresent) => Ok(default),
        Err(VarError::NotUnicode(raw)) => Err(format!("{name} must be {what}, got {raw:?}")),
    }
}

/// The rule behind every override: `default` when unset, the parsed value
/// when it parses and `accept` takes it, else the message naming `name`,
/// the value and `what` it must be.
fn checked<T: FromStr>(
    name: &str,
    value: Option<&str>,
    default: T,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(raw) = value else {
        return Ok(default);
    };
    match raw.parse() {
        Ok(v) if accept(&v) => Ok(v),
        _ => Err(format!("{name} must be {what}, got {raw:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(raw: Option<&str>) -> usize {
        parse_override("SFS_TEST_COUNT", raw, 7, "a count >= 1", |&n| n >= 1)
    }

    fn panic_message(raw: &'static str) -> String {
        let err = std::panic::catch_unwind(|| count(Some(raw))).expect_err("must abort");
        err.downcast_ref::<String>()
            .expect("formatted message")
            .clone()
    }

    #[test]
    fn unset_yields_the_default_and_a_valid_value_wins() {
        assert_eq!(count(None), 7);
        assert_eq!(count(Some("3")), 3);
    }

    #[test]
    fn malformed_or_rejected_values_abort_naming_variable_and_value() {
        for raw in ["abc", "0", "-1", "", "1.5"] {
            let msg = panic_message(raw);
            assert!(msg.contains("SFS_TEST_COUNT"), "names the variable: {msg}");
            assert!(msg.contains(&format!("{raw:?}")), "names the value: {msg}");
            assert!(msg.contains("a count >= 1"), "says what it must be: {msg}");
        }
    }

    #[test]
    fn an_unset_variable_reads_as_the_default() {
        let v = env_override("SFS_TEST_SURELY_UNSET_VARIABLE", 11u64, "a number", |_| {
            true
        });
        assert_eq!(v, 11);
    }
}
