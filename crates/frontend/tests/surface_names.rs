//! Pins what [`Prim::lookup`] returns for every surface name the
//! renamer accepts as a primitive: the primitive and the calling
//! convention the renamer expands it with.

use lesgs_frontend::{Prim, PrimArity};

/// Every accepted name, with its primitive and convention.
const NAMES: [(&str, Prim, PrimArity); 58] = {
    use Prim::*;
    use PrimArity::{Chain, Fixed, FoldLeft, SubLike};
    [
        ("+", Add, FoldLeft { identity: 0 }),
        ("-", Sub, SubLike),
        ("*", Mul, FoldLeft { identity: 1 }),
        ("quotient", Quotient, Fixed(2)),
        ("remainder", Remainder, Fixed(2)),
        ("modulo", Modulo, Fixed(2)),
        ("abs", Abs, Fixed(1)),
        ("min", Min, Fixed(2)),
        ("max", Max, Fixed(2)),
        ("add1", Add1, Fixed(1)),
        ("1+", Add1, Fixed(1)),
        ("sub1", Sub1, Fixed(1)),
        ("1-", Sub1, Fixed(1)),
        ("-1+", Sub1, Fixed(1)),
        ("zero?", IsZero, Fixed(1)),
        ("positive?", IsPositive, Fixed(1)),
        ("negative?", IsNegative, Fixed(1)),
        ("even?", IsEven, Fixed(1)),
        ("odd?", IsOdd, Fixed(1)),
        ("=", NumEq, Chain),
        ("<", Lt, Chain),
        ("<=", Le, Chain),
        (">", Gt, Chain),
        (">=", Ge, Chain),
        ("eq?", IsEq, Fixed(2)),
        ("eqv?", IsEqv, Fixed(2)),
        ("equal?", IsEqual, Fixed(2)),
        ("not", Not, Fixed(1)),
        ("pair?", IsPair, Fixed(1)),
        ("null?", IsNull, Fixed(1)),
        ("symbol?", IsSymbol, Fixed(1)),
        ("number?", IsNumber, Fixed(1)),
        ("integer?", IsNumber, Fixed(1)),
        ("fixnum?", IsNumber, Fixed(1)),
        ("boolean?", IsBoolean, Fixed(1)),
        ("procedure?", IsProcedure, Fixed(1)),
        ("vector?", IsVector, Fixed(1)),
        ("string?", IsString, Fixed(1)),
        ("char?", IsChar, Fixed(1)),
        ("cons", Cons, Fixed(2)),
        ("car", Car, Fixed(1)),
        ("cdr", Cdr, Fixed(1)),
        ("set-car!", SetCar, Fixed(2)),
        ("set-cdr!", SetCdr, Fixed(2)),
        ("make-vector", MakeVector, Fixed(1)),
        ("vector-ref", VectorRef, Fixed(2)),
        ("vector-set!", VectorSet, Fixed(3)),
        ("vector-length", VectorLength, Fixed(1)),
        ("string-length", StringLength, Fixed(1)),
        ("char->integer", CharToInteger, Fixed(1)),
        ("display", Display, Fixed(1)),
        ("write", Write, Fixed(1)),
        ("newline", Newline, Fixed(0)),
        ("error", Error, Fixed(1)),
        ("void", Void, Fixed(0)),
        ("box", MakeCell, Fixed(1)),
        ("unbox", CellRef, Fixed(1)),
        ("set-box!", CellSet, Fixed(2)),
    ]
};

#[test]
fn every_surface_name_looks_up_its_primitive_and_convention() {
    for (name, prim, arity) in NAMES {
        assert_eq!(Prim::lookup(name), Some((prim, arity)), "`{name}`");
    }
}

#[test]
fn non_surface_names_look_up_nothing() {
    for name in ["make-vector-fill", "frob"] {
        assert_eq!(Prim::lookup(name), None, "`{name}`");
    }
}
