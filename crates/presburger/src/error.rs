//! Error type shared by the crate.

use std::fmt;

/// Result alias using the crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced when building or querying Presburger objects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A variable referenced by an expression is not a dimension of the
    /// iteration space.
    UnboundVariable(String),
    /// A dimension name was declared twice in the same space.
    DuplicateDimension(String),
    /// An enumeration would exceed the configured point budget.
    TooLarge {
        /// Estimated number of points.
        estimated: u128,
        /// Configured enumeration budget.
        budget: u128,
    },
    /// An empty dimension list was supplied.
    MalformedSpace(String),
    /// An affine map has a different arity than the consumer expects.
    ArityMismatch {
        /// Number of outputs the map produces.
        got: usize,
        /// Number of outputs expected by the operation.
        expected: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            Error::DuplicateDimension(v) => write!(f, "duplicate dimension `{v}`"),
            Error::TooLarge { estimated, budget } => write!(
                f,
                "enumeration of ~{estimated} points exceeds budget of {budget}"
            ),
            Error::MalformedSpace(msg) => write!(f, "malformed space: {msg}"),
            Error::ArityMismatch { got, expected } => {
                write!(
                    f,
                    "affine map arity mismatch: got {got}, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = Error::UnboundVariable("i1".into());
        assert_eq!(e.to_string(), "unbound variable `i1`");
        let e = Error::TooLarge {
            estimated: 10,
            budget: 5,
        };
        assert!(e.to_string().contains("exceeds budget"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
