//! Integer affine expressions over named variables.

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A variable name used in affine expressions and iteration spaces.
///
/// `Var` is a lightweight wrapper around a string; it exists so that
/// signatures talk about variables rather than raw strings.
///
/// ```
/// use lams_presburger::Var;
/// let v = Var::new("i1");
/// assert_eq!(v.name(), "i1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(String);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Var(name.into())
    }

    /// Returns the variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

impl From<String> for Var {
    fn from(s: String) -> Self {
        Var(s)
    }
}

impl AsRef<str> for Var {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Lets terms keyed by `Var` be looked up with a plain `&str`: `Var`
/// orders exactly as its name does.
impl Borrow<str> for Var {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// An integer affine expression `c0 + c1*x1 + c2*x2 + …`.
///
/// Terms with zero coefficient are never stored, so two expressions that
/// denote the same function compare equal.
///
/// ```
/// use lams_presburger::AffineExpr;
/// // 1000*i1 + i2 + 5
/// let e = AffineExpr::term("i1", 1000) + AffineExpr::term("i2", 1) + AffineExpr::constant(5);
/// assert_eq!(e.coeff("i1"), 1000);
/// assert_eq!(e.constant_part(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// The non-zero coefficients, sorted by variable, one per variable.
    /// An expression has a handful of terms, so a sorted `Vec` beats a
    /// map on every operation, allocation included.
    terms: Vec<(Var, i64)>,
    constant: i64,
}

impl AffineExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        AffineExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// A single term `coeff * var`.
    pub fn term(var: impl Into<Var>, coeff: i64) -> Self {
        let mut e = AffineExpr::zero();
        e.add_term(var, coeff);
        e
    }

    /// The variable `var` with coefficient 1.
    pub fn var(var: impl Into<Var>) -> Self {
        AffineExpr::term(var, 1)
    }

    /// Adds `coeff * var` to the expression in place.
    pub fn add_term(&mut self, var: impl Into<Var>, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let var = var.into();
        match self.terms.binary_search_by(|(v, _)| v.cmp(&var)) {
            Ok(k) => {
                self.terms[k].1 += coeff;
                if self.terms[k].1 == 0 {
                    self.terms.remove(k);
                }
            }
            Err(k) => self.terms.insert(k, (var, coeff)),
        }
    }

    /// Returns the coefficient of `var` (0 when absent). Takes the name
    /// by reference — a `&str` or a `&Var` — so a lookup allocates
    /// nothing.
    pub fn coeff<Q>(&self, var: &Q) -> i64
    where
        Var: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.terms
            .binary_search_by(|(v, _)| v.borrow().cmp(var))
            .map_or(0, |k| self.terms[k].1)
    }

    /// Returns the constant part of the expression.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The set of variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &Var> + '_ {
        self.terms.iter().map(|(v, _)| v)
    }

    /// Multiplies every coefficient and the constant by `k`.
    pub fn scale(&self, k: i64) -> AffineExpr {
        if k == 0 {
            return AffineExpr::zero();
        }
        AffineExpr {
            terms: self.terms.iter().map(|(v, c)| (v.clone(), c * k)).collect(),
            constant: self.constant * k,
        }
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        self.constant += rhs.constant;
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(self) -> AffineExpr {
        self.scale(-1)
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(self, rhs: i64) -> AffineExpr {
        self.scale(rhs)
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.constant);
        }
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    c => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else {
                let sign = if *c >= 0 { "+" } else { "-" };
                match c.abs() {
                    1 => write!(f, " {sign} {v}")?,
                    a => write!(f, " {sign} {a}*{v}")?,
                }
            }
        }
        match self.constant.cmp(&0) {
            std::cmp::Ordering::Greater => write!(f, " + {}", self.constant)?,
            std::cmp::Ordering::Less => write!(f, " - {}", -self.constant)?,
            std::cmp::Ordering::Equal => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_expr() {
        let e = AffineExpr::constant(42);
        assert_eq!(e.vars().count(), 0);
        assert_eq!(e.constant_part(), 42);
        assert_eq!(e.to_string(), "42");
    }

    #[test]
    fn term_zero_coeff_is_dropped() {
        let e = AffineExpr::term("x", 0);
        assert_eq!(e.vars().count(), 0);
        assert_eq!(e, AffineExpr::zero());
    }

    #[test]
    fn add_merges_and_cancels() {
        let e = AffineExpr::term("x", 2) + AffineExpr::term("x", -2) + AffineExpr::term("y", 3);
        assert_eq!(e.coeff("x"), 0);
        assert_eq!(e.coeff("y"), 3);
        assert_eq!(e.vars().count(), 1);
    }

    #[test]
    fn scale_and_neg() {
        let e = AffineExpr::term("x", 3) + AffineExpr::constant(-2);
        let d = e.clone().scale(-2);
        assert_eq!(d.coeff("x"), -6);
        assert_eq!(d.constant_part(), 4);
        assert_eq!(-e.clone(), e.scale(-1));
        assert_eq!(e.scale(0), AffineExpr::zero());
    }

    #[test]
    fn display_formatting() {
        let e = AffineExpr::term("x", 1) + AffineExpr::term("y", -2) + AffineExpr::constant(-7);
        assert_eq!(e.to_string(), "x - 2*y - 7");
        let n = AffineExpr::term("x", -1);
        assert_eq!(n.to_string(), "-x");
    }

    #[test]
    fn equal_functions_compare_equal() {
        let a = AffineExpr::term("x", 1) + AffineExpr::term("y", 0);
        let b = AffineExpr::var("x");
        assert_eq!(a, b);
    }
}
