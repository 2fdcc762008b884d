//! Recursive-descent reader turning tokens into [`Datum`] trees.

use std::fmt;

use crate::datum::Datum;
use crate::lexer::{LexError, Lexer, Token, TokenKind};

/// An error produced while parsing S-expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number where the error occurred, if known.
    pub line: Option<usize>,
}

impl ParseError {
    fn new(message: impl Into<String>, line: Option<usize>) -> ParseError {
        ParseError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "parse error on line {line}: {}", self.message),
            None => write!(f, "parse error: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError::new(e.message, Some(e.line))
    }
}

struct Reader<'a> {
    tokens: Lexer<'a>,
}

impl<'a> Reader<'a> {
    fn next_token(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.tokens.next().transpose().map_err(ParseError::from)
    }

    fn require_token(&mut self, context: &str) -> Result<Token<'a>, ParseError> {
        self.next_token()?
            .ok_or_else(|| ParseError::new(format!("unexpected end of input {context}"), None))
    }

    fn read_datum(&mut self, tok: Token<'a>) -> Result<Datum<&'a str>, ParseError> {
        let line = tok.line;
        match tok.kind {
            TokenKind::Fixnum(n) => Ok(Datum::Fixnum(n)),
            TokenKind::Bool(b) => Ok(Datum::Bool(b)),
            TokenKind::Char(c) => Ok(Datum::Char(c)),
            TokenKind::Str(s) => Ok(Datum::Str(s)),
            TokenKind::Symbol(s) => Ok(Datum::Symbol(s)),
            TokenKind::LParen => self.read_list(line),
            TokenKind::VecOpen => {
                let items = self.read_until_close(line)?;
                Ok(Datum::Vector(items))
            }
            TokenKind::Quote => self.read_prefixed("quote"),
            TokenKind::Quasiquote => self.read_prefixed("quasiquote"),
            TokenKind::Unquote => self.read_prefixed("unquote"),
            TokenKind::RParen => Err(ParseError::new("unexpected `)`", Some(line))),
            TokenKind::Dot => Err(ParseError::new("unexpected `.`", Some(line))),
        }
    }

    fn read_prefixed(&mut self, head: &'static str) -> Result<Datum<&'a str>, ParseError> {
        let tok = self.require_token(&format!("after `{head}` shorthand"))?;
        let inner = self.read_datum(tok)?;
        Ok(Datum::List(vec![Datum::Symbol(head), inner]))
    }

    fn read_until_close(&mut self, open_line: usize) -> Result<Vec<Datum<&'a str>>, ParseError> {
        let mut items = Vec::new();
        loop {
            let tok = self.next_token()?.ok_or_else(|| {
                ParseError::new(format!("unclosed list opened on line {open_line}"), None)
            })?;
            if tok.kind == TokenKind::RParen {
                return Ok(items);
            }
            items.push(self.read_datum(tok)?);
        }
    }

    fn read_list(&mut self, open_line: usize) -> Result<Datum<&'a str>, ParseError> {
        let mut items = Vec::new();
        loop {
            let tok = self.next_token()?.ok_or_else(|| {
                ParseError::new(format!("unclosed list opened on line {open_line}"), None)
            })?;
            match tok.kind {
                TokenKind::RParen => return Ok(Datum::List(items)),
                TokenKind::Dot => {
                    if items.is_empty() {
                        return Err(ParseError::new(
                            "`.` requires at least one preceding element",
                            Some(tok.line),
                        ));
                    }
                    let tail_tok = self.require_token("after `.`")?;
                    let tail = self.read_datum(tail_tok)?;
                    let close = self.require_token("after dotted tail")?;
                    if close.kind != TokenKind::RParen {
                        return Err(ParseError::new(
                            "expected `)` after dotted tail",
                            Some(close.line),
                        ));
                    }
                    // Normalize `(a b . (c d))` to the proper list `(a b c d)`.
                    return Ok(match tail {
                        Datum::List(rest) => {
                            items.extend(rest);
                            Datum::List(items)
                        }
                        Datum::Improper(rest, end) => {
                            items.extend(rest);
                            Datum::Improper(items, end)
                        }
                        atom => Datum::Improper(items, Box::new(atom)),
                    });
                }
                _ => items.push(self.read_datum(tok)?),
            }
        }
    }
}

/// Reads every datum in `src`, lending each symbol name from `src`
/// rather than copying it: a symbol costs no allocation, and the data
/// live as long as the text they were read from.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input: unbalanced parentheses,
/// misplaced dots, bad literals, or lexical errors.
///
/// # Examples
///
/// ```
/// use lesgs_sexpr::{read, Datum};
/// let src = String::from("(f x) 'y");
/// let data = read(&src)?;
/// assert_eq!(data[0], Datum::List(vec![Datum::Symbol("f"), Datum::Symbol("x")]));
/// assert_eq!(data[1].to_string(), "(quote y)");
/// # Ok::<(), lesgs_sexpr::ParseError>(())
/// ```
pub fn read(src: &str) -> Result<Vec<Datum<&str>>, ParseError> {
    let mut reader = Reader {
        tokens: Lexer::new(src),
    };
    let mut out = Vec::new();
    while let Some(tok) = reader.next_token()? {
        out.push(reader.read_datum(tok)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        let data = read(src).unwrap();
        assert_eq!(data.len(), 1, "{src}");
        data[0].to_string()
    }

    #[test]
    fn atoms() {
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("#t"), "#t");
        assert_eq!(roundtrip("foo"), "foo");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn lists() {
        assert_eq!(roundtrip("(a b (c d) ())"), "(a b (c d) ())");
        assert_eq!(roundtrip("[a b]"), "(a b)");
        assert_eq!(roundtrip("#(1 2 3)"), "#(1 2 3)");
    }

    #[test]
    fn dotted() {
        assert_eq!(roundtrip("(a . b)"), "(a . b)");
        assert_eq!(roundtrip("(a b . c)"), "(a b . c)");
        // Dotted pair with list tail normalizes to a proper list.
        assert_eq!(roundtrip("(a . (b c))"), "(a b c)");
        assert_eq!(roundtrip("(a . (b . c))"), "(a b . c)");
    }

    #[test]
    fn quoting() {
        assert_eq!(roundtrip("'x"), "(quote x)");
        assert_eq!(roundtrip("`x"), "(quasiquote x)");
        assert_eq!(roundtrip(",x"), "(unquote x)");
        assert_eq!(roundtrip("''x"), "(quote (quote x))");
        assert_eq!(roundtrip("'(1 . 2)"), "(quote (1 . 2))");
    }

    #[test]
    fn multiple_data() {
        assert_eq!(read("1 2 3").unwrap().len(), 3);
        assert!(read("").unwrap().is_empty());
    }

    #[test]
    fn strings_keep_non_ascii_text() {
        let src = "(display \"λx → ü\")";
        let data = read(src).unwrap();
        assert_eq!(
            data[0],
            Datum::List(vec![Datum::Symbol("display"), Datum::Str("λx → ü".into())])
        );
        assert_eq!(data[0].to_string(), src);
    }

    #[test]
    fn errors() {
        for src in ["(a", ")", "(.)", "(a .)", "(a . b c)", "'"] {
            assert!(read(src).is_err(), "{src}");
        }
    }

    #[test]
    fn comments_ignored() {
        let data = read("; header\n(a) ; trailing\n").unwrap();
        assert_eq!(data.len(), 1);
    }
}
