//! The [`Datum`] tree produced by the reader.

use std::fmt;

/// A single parsed S-expression, generic over how it holds symbol
/// names.
///
/// [`read`](crate::read) lends every symbol from the source text
/// (`Datum<&str>`); [`Datum::to_owned_datum`] copies a tree into owned
/// data (`Datum<String>`, the default), which is what quoted
/// constants, the VM and the bytecode format hold. Proper lists are
/// represented directly as [`Datum::List`]; improper
/// (dotted) lists keep the trailing element in the second field of
/// [`Datum::Improper`]. Quoting sugar (`'x`, `` `x ``, `,x`) is expanded
/// by the reader into `(quote x)` etc., so later passes never see it.
///
/// # Examples
///
/// ```
/// use lesgs_sexpr::Datum;
///
/// let d = Datum::List(vec![Datum::symbol("f"), Datum::Fixnum(1)]);
/// assert_eq!(d.to_string(), "(f 1)");
/// assert!(d.as_slice().is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Datum<S = String> {
    /// A signed 62-bit-safe integer literal (`42`, `-7`).
    Fixnum(i64),
    /// A boolean literal (`#t`, `#f`).
    Bool(bool),
    /// A symbol (`foo`, `set!`, `+`).
    Symbol(S),
    /// A string literal (`"abc"`).
    Str(String),
    /// A character literal (`#\a`, `#\newline`, `#\space`).
    Char(char),
    /// A proper list `(a b c)`, including the empty list `()`.
    List(Vec<Datum<S>>),
    /// An improper list `(a b . c)`; the vector is non-empty.
    Improper(Vec<Datum<S>>, Box<Datum<S>>),
    /// A vector literal `#(a b c)`.
    Vector(Vec<Datum<S>>),
}

impl Datum {
    /// Builds a symbol datum from anything string-like.
    ///
    /// ```
    /// use lesgs_sexpr::Datum;
    /// assert_eq!(Datum::symbol("x").to_string(), "x");
    /// ```
    pub fn symbol(name: impl Into<String>) -> Datum {
        Datum::Symbol(name.into())
    }

    /// Returns the empty list `()`.
    pub fn nil() -> Datum {
        Datum::List(Vec::new())
    }

    /// Wraps this datum in `(quote _)`.
    pub fn quoted(self) -> Datum {
        Datum::List(vec![Datum::symbol("quote"), self])
    }
}

impl<S: AsRef<str>> Datum<S> {
    /// Returns the symbol name if this datum is a symbol.
    pub fn as_symbol(&self) -> Option<&str> {
        match self {
            Datum::Symbol(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Returns the elements if this datum is a proper list.
    pub fn as_slice(&self) -> Option<&[Datum<S>]> {
        match self {
            Datum::List(items) => Some(items),
            _ => None,
        }
    }

    /// True if this datum is a proper list whose head is the given symbol.
    ///
    /// ```
    /// use lesgs_sexpr::read;
    /// let d = &read("(if a b c)").unwrap()[0];
    /// assert!(d.is_form("if"));
    /// assert!(!d.is_form("cond"));
    /// ```
    pub fn is_form(&self, head: &str) -> bool {
        matches!(self.as_slice(),
                 Some([first, ..]) if first.as_symbol() == Some(head))
    }

    /// An owned copy: every symbol name copied into a `String`.
    ///
    /// ```
    /// use lesgs_sexpr::{read, Datum};
    /// let src = String::from("(a \"s\" . c)");
    /// let owned: Datum = read(&src)?[0].to_owned_datum();
    /// drop(src);
    /// let items = vec![Datum::Symbol("a".to_owned()), Datum::Str("s".to_owned())];
    /// let tail = Datum::Symbol("c".to_owned());
    /// assert_eq!(owned, Datum::Improper(items, Box::new(tail)));
    /// # Ok::<(), lesgs_sexpr::ParseError>(())
    /// ```
    pub fn to_owned_datum(&self) -> Datum {
        let all = |items: &[Datum<S>]| items.iter().map(Datum::to_owned_datum).collect();
        match self {
            Datum::Fixnum(n) => Datum::Fixnum(*n),
            Datum::Bool(b) => Datum::Bool(*b),
            Datum::Symbol(s) => Datum::Symbol(s.as_ref().to_owned()),
            Datum::Str(s) => Datum::Str(s.clone()),
            Datum::Char(c) => Datum::Char(*c),
            Datum::List(items) => Datum::List(all(items)),
            Datum::Improper(items, tail) => {
                Datum::Improper(all(items), Box::new(tail.to_owned_datum()))
            }
            Datum::Vector(items) => Datum::Vector(all(items)),
        }
    }
}

impl From<i64> for Datum {
    fn from(n: i64) -> Datum {
        Datum::Fixnum(n)
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Datum {
        Datum::Bool(b)
    }
}

/// Writes a character in `write` style: `#\space`, `#\newline`,
/// `#\tab`, or `#\` and the character itself. The reader reads each
/// back as the same character. Both VM engines and the interpreter write
/// characters through this too.
///
/// ```
/// let mut out = String::new();
/// lesgs_sexpr::write_char(' ', &mut out)?;
/// lesgs_sexpr::write_char('a', &mut out)?;
/// assert_eq!(out, "#\\space#\\a");
/// # Ok::<(), std::fmt::Error>(())
/// ```
///
/// # Errors
///
/// Only those of `out`.
pub fn write_char(c: char, out: &mut impl fmt::Write) -> fmt::Result {
    match c {
        ' ' => out.write_str("#\\space"),
        '\n' => out.write_str("#\\newline"),
        '\t' => out.write_str("#\\tab"),
        c => {
            out.write_str("#\\")?;
            out.write_char(c)
        }
    }
}

/// Writes a string in `write` style: in double quotes, with `"`, `\`
/// and newline escaped. The reader reads it back as the same string.
/// Both VM engines and the interpreter write strings through this too.
///
/// ```
/// let mut out = String::new();
/// lesgs_sexpr::write_string("say \"hi\"\n", &mut out)?;
/// assert_eq!(out, r#""say \"hi\"\n""#);
/// # Ok::<(), std::fmt::Error>(())
/// ```
///
/// # Errors
///
/// Only those of `out`.
pub fn write_string(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl<S: fmt::Display> fmt::Display for Datum<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Fixnum(n) => write!(f, "{n}"),
            Datum::Bool(true) => write!(f, "#t"),
            Datum::Bool(false) => write!(f, "#f"),
            Datum::Symbol(s) => write!(f, "{s}"),
            Datum::Str(s) => write_string(s, f),
            Datum::Char(c) => write_char(*c, f),
            Datum::List(items) => {
                write!(f, "(")?;
                for (i, d) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, ")")
            }
            Datum::Improper(items, tail) => {
                write!(f, "(")?;
                for (i, d) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, " . {tail})")
            }
            Datum::Vector(items) => {
                write!(f, "#(")?;
                for (i, d) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    /// The owned datum; `Datum::Fixnum(1)` alone does not say which
    /// symbol type it holds.
    type Datum = super::Datum;

    #[test]
    fn display_atoms() {
        assert_eq!(Datum::Fixnum(-3).to_string(), "-3");
        assert_eq!(Datum::Bool(true).to_string(), "#t");
        assert_eq!(Datum::Bool(false).to_string(), "#f");
        assert_eq!(Datum::symbol("car").to_string(), "car");
        assert_eq!(Datum::Char('a').to_string(), "#\\a");
        assert_eq!(Datum::Char(' ').to_string(), "#\\space");
        assert_eq!(Datum::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
    }

    #[test]
    fn display_lists() {
        let d = Datum::List(vec![Datum::symbol("a"), Datum::nil()]);
        assert_eq!(d.to_string(), "(a ())");
        let imp = super::Datum::<&str>::Improper(
            vec![super::Datum::Fixnum(1)],
            Box::new(super::Datum::Symbol("b")),
        );
        assert_eq!(imp.to_string(), "(1 . b)");
        let v = Datum::Vector(vec![Datum::Fixnum(1), Datum::Fixnum(2)]);
        assert_eq!(v.to_string(), "#(1 2)");
    }

    #[test]
    fn helpers() {
        assert_eq!(Datum::symbol("x").as_symbol(), Some("x"));
        assert_eq!(Datum::Fixnum(1).as_symbol(), None);
        assert!(Datum::nil().as_slice().unwrap().is_empty());
        assert_eq!(Datum::Fixnum(7).quoted().to_string(), "(quote 7)");
    }

    #[test]
    fn conversions() {
        assert_eq!(Datum::from(3i64), Datum::Fixnum(3));
        assert_eq!(Datum::from(true), Datum::Bool(true));
    }
}
