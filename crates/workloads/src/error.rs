//! Error type for workload construction.

use std::fmt;

/// Result alias using the crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced when validating or building workloads.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An access references an array id outside the app's table.
    UnknownArray {
        /// Application name.
        app: String,
        /// Process index within the app.
        process: usize,
        /// The offending array index.
        array: u32,
    },
    /// An access map's arity does not match the array's rank.
    AccessArity {
        /// Application name.
        app: String,
        /// Process index within the app.
        process: usize,
        /// Map arity.
        got: usize,
        /// Array rank.
        expected: usize,
    },
    /// A subscript leaves its array dimension somewhere in the process's
    /// iteration box.
    SubscriptOutOfBounds {
        /// Application name.
        app: String,
        /// Process index within the app.
        process: usize,
        /// The accessed array (app-local index).
        array: u32,
        /// The subscript's position in the access map.
        dim: usize,
        /// Smallest value the subscript takes over the box.
        lo: i64,
        /// Largest value the subscript takes over the box.
        hi: i64,
        /// The array's extent in that dimension.
        extent: i64,
    },
    /// A dependence edge references a process index out of range.
    BadDependence {
        /// Application name.
        app: String,
        /// Edge as given.
        edge: (usize, usize),
    },
    /// The app's process count is outside sane bounds (must be >= 1).
    NoProcesses(String),
    /// Graph construction failed (duplicate/cyclic dependences).
    Graph(lams_procgraph::Error),
    /// Footprint computation failed.
    Presburger(lams_presburger::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownArray {
                app,
                process,
                array,
            } => {
                write!(
                    f,
                    "{app}: process {process} references unknown array {array}"
                )
            }
            Error::AccessArity {
                app,
                process,
                got,
                expected,
            } => write!(
                f,
                "{app}: process {process} access arity {got} != array rank {expected}"
            ),
            Error::SubscriptOutOfBounds {
                app,
                process,
                array,
                dim,
                lo,
                hi,
                extent,
            } => write!(
                f,
                "{app}: process {process} subscript {dim} of array {array} spans [{lo}, {hi}], outside [0, {extent})"
            ),
            Error::BadDependence { app, edge } => {
                write!(f, "{app}: dependence {edge:?} out of range")
            }
            Error::NoProcesses(app) => write!(f, "{app}: application has no processes"),
            Error::Graph(e) => write!(f, "process graph: {e}"),
            Error::Presburger(e) => write!(f, "footprint computation: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Graph(e) => Some(e),
            Error::Presburger(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lams_procgraph::Error> for Error {
    fn from(e: lams_procgraph::Error) -> Self {
        Error::Graph(e)
    }
}

impl From<lams_presburger::Error> for Error {
    fn from(e: lams_presburger::Error) -> Self {
        Error::Presburger(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = Error::NoProcesses("mxm".into());
        assert_eq!(e.to_string(), "mxm: application has no processes");
    }
}
