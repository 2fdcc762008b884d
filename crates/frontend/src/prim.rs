//! The primitive operations of the mini-Scheme dialect.
//!
//! Primitives are recognized by the renamer when their name is not
//! shadowed by a binding; variadic surface primitives (`+`, `list`,
//! `vector`, …) are expanded into fixed-arity applications of these
//! operations during renaming.

use std::fmt;

/// A fixed-arity primitive operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    // Arithmetic
    /// `(+ a b)`
    Add,
    /// `(- a b)`
    Sub,
    /// `(* a b)`
    Mul,
    /// `(quotient a b)` — truncating division.
    Quotient,
    /// `(remainder a b)`
    Remainder,
    /// `(modulo a b)`
    Modulo,
    /// `(abs a)`
    Abs,
    /// `(min a b)`
    Min,
    /// `(max a b)`
    Max,
    /// `(add1 a)` — also `1+`.
    Add1,
    /// `(sub1 a)` — also `1-` / `-1+`.
    Sub1,
    // Numeric predicates
    /// `(zero? a)`
    IsZero,
    /// `(positive? a)`
    IsPositive,
    /// `(negative? a)`
    IsNegative,
    /// `(even? a)`
    IsEven,
    /// `(odd? a)`
    IsOdd,
    // Comparison
    /// `(= a b)`
    NumEq,
    /// `(< a b)`
    Lt,
    /// `(<= a b)`
    Le,
    /// `(> a b)`
    Gt,
    /// `(>= a b)`
    Ge,
    // Equality and type predicates
    /// `(eq? a b)` — pointer/immediate identity.
    IsEq,
    /// `(eqv? a b)`
    IsEqv,
    /// `(equal? a b)` — structural equality.
    IsEqual,
    /// `(not a)`
    Not,
    /// `(pair? a)`
    IsPair,
    /// `(null? a)`
    IsNull,
    /// `(symbol? a)`
    IsSymbol,
    /// `(number? a)`
    IsNumber,
    /// `(boolean? a)`
    IsBoolean,
    /// `(procedure? a)`
    IsProcedure,
    /// `(vector? a)`
    IsVector,
    /// `(string? a)`
    IsString,
    /// `(char? a)`
    IsChar,
    // Pairs
    /// `(cons a d)`
    Cons,
    /// `(car p)`
    Car,
    /// `(cdr p)`
    Cdr,
    /// `(set-car! p v)`
    SetCar,
    /// `(set-cdr! p v)`
    SetCdr,
    // Vectors
    /// `(make-vector n)` — filled with `0`.
    MakeVector,
    /// `(make-vector n fill)`
    MakeVectorFill,
    /// `(vector-ref v i)`
    VectorRef,
    /// `(vector-set! v i x)`
    VectorSet,
    /// `(vector-length v)`
    VectorLength,
    // Strings and chars
    /// `(string-length s)`
    StringLength,
    /// `(char->integer c)`
    CharToInteger,
    // Output
    /// `(display x)` — writes to the program's output buffer.
    Display,
    /// `(write x)`
    Write,
    /// `(newline)`
    Newline,
    // Control / misc
    /// `(error msg)` — aborts execution with a message.
    Error,
    /// `(void)`
    Void,
    // Cells introduced by assignment conversion (also available as
    // `box` / `unbox` / `set-box!`).
    /// `(box v)`
    MakeCell,
    /// `(unbox c)`
    CellRef,
    /// `(set-box! c v)`
    CellSet,
}

/// How a surface name maps onto [`Prim`] applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimArity {
    /// Exactly `n` arguments.
    Fixed(u8),
    /// `+` / `*`: any number of arguments, folded left with an identity.
    FoldLeft { identity: i64 },
    /// `-`: one argument negates, more fold left.
    SubLike,
    /// Comparisons: two or more arguments, chained pairwise.
    Chain,
}

/// The value of an arithmetic, comparison or numeric-predicate
/// primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixnumValue {
    /// An arithmetic result.
    Fixnum(i64),
    /// A comparison or predicate result.
    Bool(bool),
}

/// Why an arithmetic primitive has no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixnumError {
    /// The result does not fit in a fixnum.
    Overflow,
    /// `quotient`, `remainder` or `modulo` by zero.
    DivisionByZero,
}

impl fmt::Display for FixnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FixnumError::Overflow => "fixnum overflow",
            FixnumError::DivisionByZero => "division by zero",
        })
    }
}

/// The storage of `(make-vector len fill)`: `len` copies of `fill`.
///
/// A negative length, or one the process cannot allocate, is an error
/// rather than a panic or an abort: the space is reserved with
/// [`Vec::try_reserve_exact`] before it is filled. Both VM engines and
/// the interpreter build vectors here, so they fail with the same text.
///
/// # Errors
///
/// `make-vector: negative length`, or `make-vector: cannot allocate a
/// vector of length <len>`.
pub fn make_vector<T: Clone>(len: i64, fill: T) -> Result<Vec<T>, String> {
    if len < 0 {
        return Err("make-vector: negative length".to_owned());
    }
    // A length past `usize` cannot be reserved either.
    let n = usize::try_from(len).unwrap_or(usize::MAX);
    let mut v = Vec::new();
    if v.try_reserve_exact(n).is_err() {
        return Err(format!(
            "make-vector: cannot allocate a vector of length {len}"
        ));
    }
    v.resize(n, fill);
    Ok(v)
}

impl Prim {
    /// Every primitive, once, in declaration order. A primitive's
    /// position here is its code in the `.lbc` format (BYTECODE.md):
    /// a new primitive is appended, and reordering the list breaks
    /// every serialized program.
    pub const ALL: [Prim; 54] = {
        use Prim::*;
        [
            Add,
            Sub,
            Mul,
            Quotient,
            Remainder,
            Modulo,
            Abs,
            Min,
            Max,
            Add1,
            Sub1,
            IsZero,
            IsPositive,
            IsNegative,
            IsEven,
            IsOdd,
            NumEq,
            Lt,
            Le,
            Gt,
            Ge,
            IsEq,
            IsEqv,
            IsEqual,
            Not,
            IsPair,
            IsNull,
            IsSymbol,
            IsNumber,
            IsBoolean,
            IsProcedure,
            IsVector,
            IsString,
            IsChar,
            Cons,
            Car,
            Cdr,
            SetCar,
            SetCdr,
            MakeVector,
            MakeVectorFill,
            VectorRef,
            VectorSet,
            VectorLength,
            StringLength,
            CharToInteger,
            Display,
            Write,
            Newline,
            Error,
            Void,
            MakeCell,
            CellRef,
            CellSet,
        ]
    };

    /// Applies an arithmetic, comparison or numeric-predicate primitive
    /// to fixnum operands; one-operand primitives ignore `b`. `None` for
    /// every other primitive.
    ///
    /// This is the one rule compiled code follows: constant folding
    /// leaves an erring application unfolded, and the VM reports the
    /// error as `<op>: <error>`. The interpreter keeps its own copy,
    /// because it is the oracle both are checked against.
    pub fn apply_fixnum(self, a: i64, b: i64) -> Option<Result<FixnumValue, FixnumError>> {
        use FixnumValue::{Bool, Fixnum};
        use Prim::*;
        let checked = |r: Option<i64>| r.map(Fixnum).ok_or(FixnumError::Overflow);
        let divisor = || {
            if b == 0 {
                Err(FixnumError::DivisionByZero)
            } else {
                Ok(b)
            }
        };
        Some(match self {
            Add => checked(a.checked_add(b)),
            Sub => checked(a.checked_sub(b)),
            Mul => checked(a.checked_mul(b)),
            Quotient => divisor().and_then(|b| checked(a.checked_div(b))),
            Remainder => divisor().and_then(|b| checked(a.checked_rem(b))),
            // The floor remainder: `r + b` cannot overflow, since `r` and
            // `b` differ in sign.
            Modulo => divisor().map(|b| {
                let r = a.wrapping_rem(b);
                Fixnum(if r != 0 && (r < 0) != (b < 0) {
                    r + b
                } else {
                    r
                })
            }),
            Abs => checked(a.checked_abs()),
            Min => Ok(Fixnum(a.min(b))),
            Max => Ok(Fixnum(a.max(b))),
            Add1 => checked(a.checked_add(1)),
            Sub1 => checked(a.checked_sub(1)),
            IsZero => Ok(Bool(a == 0)),
            IsPositive => Ok(Bool(a > 0)),
            IsNegative => Ok(Bool(a < 0)),
            IsEven => Ok(Bool(a % 2 == 0)),
            IsOdd => Ok(Bool(a % 2 != 0)),
            NumEq => Ok(Bool(a == b)),
            Lt => Ok(Bool(a < b)),
            Le => Ok(Bool(a <= b)),
            Gt => Ok(Bool(a > b)),
            Ge => Ok(Bool(a >= b)),
            _ => return None,
        })
    }

    /// The number of arguments the fixed-arity operation takes.
    pub fn arity(self) -> usize {
        use Prim::*;
        match self {
            Void | Newline => 0,
            Abs | Add1 | Sub1 | IsZero | IsPositive | IsNegative | IsEven | IsOdd | Not
            | IsPair | IsNull | IsSymbol | IsNumber | IsBoolean | IsProcedure | IsVector
            | IsString | IsChar | Car | Cdr | MakeVector | VectorLength | StringLength
            | CharToInteger | Display | Write | Error | MakeCell | CellRef => 1,
            Add | Sub | Mul | Quotient | Remainder | Modulo | Min | Max | NumEq | Lt | Le | Gt
            | Ge | IsEq | IsEqv | IsEqual | Cons | SetCar | SetCdr | MakeVectorFill | VectorRef
            | CellSet => 2,
            VectorSet => 3,
        }
    }

    /// True if the primitive reads or writes heap memory (used by the
    /// VM cost model).
    pub fn touches_memory(self) -> bool {
        use Prim::*;
        match self {
            Cons | Car | Cdr | SetCar | SetCdr | MakeVector | MakeVectorFill | VectorRef
            | VectorSet | VectorLength | StringLength | IsEqual | MakeCell | CellRef | CellSet => {
                true
            }
            Add | Sub | Mul | Quotient | Remainder | Modulo | Abs | Min | Max | Add1 | Sub1
            | IsZero | IsPositive | IsNegative | IsEven | IsOdd | NumEq | Lt | Le | Gt | Ge
            | IsEq | IsEqv | Not | IsPair | IsNull | IsSymbol | IsNumber | IsBoolean
            | IsProcedure | IsVector | IsString | IsChar | CharToInteger | Display | Write
            | Newline | Error | Void => false,
        }
    }

    /// The canonical Scheme-level name.
    pub const fn name(self) -> &'static str {
        use Prim::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Quotient => "quotient",
            Remainder => "remainder",
            Modulo => "modulo",
            Abs => "abs",
            Min => "min",
            Max => "max",
            Add1 => "add1",
            Sub1 => "sub1",
            IsZero => "zero?",
            IsPositive => "positive?",
            IsNegative => "negative?",
            IsEven => "even?",
            IsOdd => "odd?",
            NumEq => "=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            IsEq => "eq?",
            IsEqv => "eqv?",
            IsEqual => "equal?",
            Not => "not",
            IsPair => "pair?",
            IsNull => "null?",
            IsSymbol => "symbol?",
            IsNumber => "number?",
            IsBoolean => "boolean?",
            IsProcedure => "procedure?",
            IsVector => "vector?",
            IsString => "string?",
            IsChar => "char?",
            Cons => "cons",
            Car => "car",
            Cdr => "cdr",
            SetCar => "set-car!",
            SetCdr => "set-cdr!",
            MakeVector => "make-vector",
            MakeVectorFill => "make-vector-fill",
            VectorRef => "vector-ref",
            VectorSet => "vector-set!",
            VectorLength => "vector-length",
            StringLength => "string-length",
            CharToInteger => "char->integer",
            Display => "display",
            Write => "write",
            Newline => "newline",
            Error => "error",
            Void => "void",
            MakeCell => "box",
            CellRef => "unbox",
            CellSet => "set-box!",
        }
    }

    /// The surface calling convention of the primitive's name: the
    /// eight variadic primitives fold or chain their operands, every
    /// other one takes exactly [`Prim::arity`] arguments.
    fn surface_arity(self) -> PrimArity {
        use Prim::*;
        match self {
            Add => PrimArity::FoldLeft { identity: 0 },
            Mul => PrimArity::FoldLeft { identity: 1 },
            Sub => PrimArity::SubLike,
            NumEq | Lt | Le | Gt | Ge => PrimArity::Chain,
            p => PrimArity::Fixed(p.arity() as u8),
        }
    }

    /// Every surface name with its primitive, sorted by name: each
    /// primitive's [`Prim::name`] and the aliases.
    pub fn surface_names() -> impl Iterator<Item = (&'static str, Prim)> {
        SURFACE.into_iter()
    }

    /// Looks up a surface name, returning the primitive and its surface
    /// calling convention, or `None` for non-primitive names.
    /// `make-vector` reports its one-argument form.
    ///
    /// ```
    /// use lesgs_frontend::{Prim, PrimArity};
    /// assert_eq!(Prim::lookup("car"), Some((Prim::Car, PrimArity::Fixed(1))));
    /// assert_eq!(Prim::lookup("+"), Some((Prim::Add, PrimArity::FoldLeft { identity: 0 })));
    /// assert_eq!(Prim::lookup("frob"), None);
    /// ```
    pub fn lookup(name: &str) -> Option<(Prim, PrimArity)> {
        let &prim = find_sorted(&SURFACE, &KEYS, name)?;
        Some((prim, prim.surface_arity()))
    }
}

/// [`Prim::surface_names`], built and sorted by name at compile time, so
/// that [`Prim::lookup`] binary-searches it (through [`KEYS`]).
/// `make-vector-fill` is not a surface name: `make-vector` takes one or
/// two arguments, and the renamer picks the fixed primitive.
const SURFACE: [(&str, Prim); 58] = {
    let mut table = [("", Prim::Add); 58];
    let mut n = 0;
    let mut i = 0;
    while i < Prim::ALL.len() {
        if !matches!(Prim::ALL[i], Prim::MakeVectorFill) {
            table[n] = (Prim::ALL[i].name(), Prim::ALL[i]);
            n += 1;
        }
        i += 1;
    }
    assert!(n + ALIASES.len() == table.len());
    i = 0;
    while i < ALIASES.len() {
        table[n + i] = ALIASES[i];
        i += 1;
    }
    // An insertion sort; a name given twice stops the build.
    i = 1;
    while i < table.len() {
        let mut j = i;
        while j > 0 && precedes(table[j].0, table[j - 1].0) {
            (table[j], table[j - 1]) = (table[j - 1], table[j]);
            j -= 1;
        }
        assert!(
            j == 0 || precedes(table[j - 1].0, table[j].0),
            "a surface name given twice"
        );
        i += 1;
    }
    table
};

/// The [`prefix_key`] of each name in [`SURFACE`], in its order: sorting
/// the names sorts their keys. [`Prim::lookup`] searches these integers
/// rather than the names, because comparing `str`s made a binary search
/// slower than a scan.
const KEYS: [u64; 58] = {
    let mut keys = [0; 58];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = prefix_key(SURFACE[i].0);
        i += 1;
    }
    keys
};

/// The entry named `name` in `table`, sorted by name, whose names have
/// the [`prefix_key`]s `keys`. The search compares the names' first
/// eight bytes as integers and only the names that share them in full.
pub(crate) fn find_sorted<'t, T>(
    table: &'t [(&str, T)],
    keys: &[u64],
    name: &str,
) -> Option<&'t T> {
    let key = prefix_key(name);
    let first = keys.partition_point(|&k| k < key);
    table[first..]
        .iter()
        .zip(&keys[first..])
        .take_while(|&(_, &k)| k == key)
        .find(|((n, _), _)| *n == name)
        .map(|((_, entry), _)| entry)
}

/// The first eight bytes of `name` as a big-endian integer, zero-padded,
/// so that keys order as the names' first eight bytes do.
pub(crate) const fn prefix_key(name: &str) -> u64 {
    let bytes = name.as_bytes();
    let mut key = 0;
    let mut i = 0;
    while i < 8 {
        key <<= 8;
        if i < bytes.len() {
            key |= bytes[i] as u64;
        }
        i += 1;
    }
    key
}

/// Whether `a` sorts strictly before `b` in `str`'s order (bytewise).
const fn precedes(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// The surface names that are not a primitive's [`Prim::name`].
const ALIASES: [(&str, Prim); 5] = [
    ("1+", Prim::Add1),
    ("1-", Prim::Sub1),
    ("-1+", Prim::Sub1),
    ("integer?", Prim::IsNumber),
    ("fixnum?", Prim::IsNumber),
];

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_lookup() {
        for name in ["car", "cons", "vector-set!", "newline", "abs"] {
            let (p, ar) = Prim::lookup(name).unwrap();
            match ar {
                PrimArity::Fixed(n) => assert_eq!(n as usize, p.arity(), "{name}"),
                other => panic!("{name} unexpectedly variadic: {other:?}"),
            }
        }
    }

    #[test]
    fn names_roundtrip() {
        for p in [
            Prim::Add,
            Prim::Car,
            Prim::VectorSet,
            Prim::IsNull,
            Prim::MakeCell,
        ] {
            let (q, _) = Prim::lookup(p.name()).unwrap();
            assert_eq!(p, q);
        }
    }

    /// A primitive's `.lbc` code is its position in [`Prim::ALL`]: a
    /// duplicate would make two codes ambiguous, and a gap would leave a
    /// primitive without one.
    #[test]
    fn all_lists_every_primitive_once_in_declaration_order() {
        for (i, p) in Prim::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{p:?}");
        }
    }

    #[test]
    fn surface_names_are_distinct() {
        let names: Vec<&str> = Prim::surface_names().map(|(n, _)| n).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "`{n}` named twice");
        }
        assert_eq!(names.len(), 58);
    }

    #[test]
    fn variadic_classification() {
        assert_eq!(
            Prim::lookup("+").unwrap().1,
            PrimArity::FoldLeft { identity: 0 }
        );
        assert_eq!(Prim::lookup("-").unwrap().1, PrimArity::SubLike);
        assert_eq!(Prim::lookup("<").unwrap().1, PrimArity::Chain);
    }

    #[test]
    fn memory_primitives() {
        assert!(Prim::Car.touches_memory());
        assert!(!Prim::Add.touches_memory());
    }

    #[test]
    fn fixnum_rule_at_the_extremes() {
        use FixnumError::{DivisionByZero, Overflow};
        use FixnumValue::{Bool, Fixnum};
        let (min, max) = (i64::MIN, i64::MAX);
        let apply = |p: Prim, a, b| p.apply_fixnum(a, b).expect("a fixnum primitive");
        assert_eq!(apply(Prim::Quotient, min, -1), Err(Overflow));
        assert_eq!(apply(Prim::Remainder, min, -1), Err(Overflow));
        assert_eq!(apply(Prim::Modulo, min, -1), Ok(Fixnum(0)));
        assert_eq!(apply(Prim::Add, max, 1), Err(Overflow));
        assert_eq!(apply(Prim::Add1, max, 0), Err(Overflow));
        assert_eq!(apply(Prim::Sub1, min, 0), Err(Overflow));
        assert_eq!(apply(Prim::Abs, min, 0), Err(Overflow));
        assert_eq!(apply(Prim::Abs, min + 1, 0), Ok(Fixnum(max)));
        for p in [Prim::Quotient, Prim::Remainder, Prim::Modulo] {
            assert_eq!(apply(p, 1, 0), Err(DivisionByZero), "{p}");
            assert_eq!(apply(p, min, 0), Err(DivisionByZero), "{p}");
        }
        assert_eq!(apply(Prim::Modulo, -7, 2), Ok(Fixnum(1)));
        assert_eq!(apply(Prim::Modulo, 7, -2), Ok(Fixnum(-1)));
        assert_eq!(apply(Prim::IsEven, min, 0), Ok(Bool(true)));
        assert_eq!(apply(Prim::Lt, min, max), Ok(Bool(true)));
        assert_eq!(Prim::Car.apply_fixnum(1, 2), None);
        assert_eq!(Overflow.to_string(), "fixnum overflow");
        assert_eq!(DivisionByZero.to_string(), "division by zero");
    }

    #[test]
    fn aliases() {
        assert_eq!(Prim::lookup("1+").unwrap().0, Prim::Add1);
        assert_eq!(Prim::lookup("-1+").unwrap().0, Prim::Sub1);
        assert_eq!(Prim::lookup("integer?").unwrap().0, Prim::IsNumber);
    }
}
