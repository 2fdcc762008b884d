//! The sixteen Gabriel-style programs at standard scale, and their
//! answers from the reference interpreter.
//!
//! The sources were exported from `lesgs-suite` at standard scale and
//! are frozen here, so a change to that crate cannot change the
//! workload. `suite/expected.txt` holds one `name<TAB>value<TAB>output`
//! line per program (output with `\` and newline escaped); `lesgs-perfbench
//! refs` regenerates it with `lesgs-interp`, never with the compiler
//! under test.

macro_rules! programs {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../suite/", $name, ".scm")))),*]
    };
}

/// `(name, source)` for every program.
pub const PROGRAMS: [(&str, &str); 16] = programs!(
    "tak", "takl", "takr", "cpstak", "ack", "fib", "deriv", "dderiv", "destruct", "div-iter",
    "div-rec", "queens", "primes", "triang", "boyer", "msort",
);

const EXPECTED: &str = include_str!("../suite/expected.txt");

/// Per-pass totals over the sixteen programs under the paper-default
/// configuration: the `dispatch` table's source-instruction total and
/// the sums of the `comparisons` table's opt columns in
/// `BENCH_report.json`. Every suite-run asserts them.
pub const CODE_INSTRS: u64 = 6_348;
pub const STACK_REFS: u64 = 7_861_505;
pub const MODELED_CYCLES: u64 = 46_061_010;

/// The reference `(value, output)` of program `name`.
pub fn expected(name: &str) -> Option<(String, String)> {
    EXPECTED.lines().find_map(|line| {
        let mut fields = line.splitn(3, '\t');
        (fields.next()? == name).then(|| {
            let value = fields.next().unwrap_or_default();
            let output = fields.next().unwrap_or_default();
            (unescape(value), unescape(output))
        })
    })
}

/// Renders one line of `suite/expected.txt`.
pub fn expected_line(name: &str, value: &str, output: &str) -> String {
    format!("{name}\t{}\t{}", escape(value), escape(output))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}
