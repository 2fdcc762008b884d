//! S-expression reader and printer for the lesgs mini-Scheme.
//!
//! This crate is the textual substrate of the reproduction: benchmark
//! programs and examples are written in a small Scheme dialect, and every
//! later stage of the pipeline starts from the [`Datum`] values produced
//! here. [`read`] lends every symbol name from the source text;
//! [`Datum::to_owned_datum`] copies a datum that must outlive it.
//!
//! # Examples
//!
//! ```
//! use lesgs_sexpr::{read, Datum};
//!
//! let data = read("(+ 1 2) ; a comment\n#t").unwrap();
//! assert_eq!(data.len(), 2);
//! assert_eq!(data[1], Datum::Bool(true));
//! assert_eq!(data[0].to_string(), "(+ 1 2)");
//! ```

mod datum;
mod lexer;
mod reader;

pub use datum::{write_char, write_string, Datum};
pub use lexer::{Lexer, Token, TokenKind};
pub use reader::{read, ParseError};
