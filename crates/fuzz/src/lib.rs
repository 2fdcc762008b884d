//! Generative differential fuzzing for the LESGS compiler.
//!
//! This crate closes the loop the hand-written test suites leave open:
//! instead of checking programs someone thought of, it *generates*
//! well-formed mini-Scheme programs from a seed, runs each one through
//! the reference interpreter and through the compiled VM under the full
//! allocator configuration matrix, and greedily shrinks any
//! disagreement to a small, self-contained reproduction.
//!
//! The pieces:
//!
//! * [`gen`] — a deterministic, seeded program generator biased toward
//!   the register allocator's hard cases: deep call trees, calls with
//!   more arguments than argument registers, `letrec` cycles, and
//!   tail/non-tail call mixes. Every generated program terminates and
//!   is overflow-free by construction.
//! * [`oracle`] — the differential judge. Fuel exhaustion and
//!   interpreter-side errors are *skips*, never finds.
//! * [`shrink`](mod@shrink) — a greedy structural minimizer re-running the oracle
//!   on the single implicated configuration.
//!
//! Everything is reproducible: [`case_seed`] maps a base seed and case
//! index to the seed actually fed to the generator, and
//! `lesgs-fuzz --seed <that> --cases 1` replays exactly that case.
//!
//! ```
//! use lesgs_fuzz::{run_fuzz, FuzzOptions};
//! let report = run_fuzz(&FuzzOptions { cases: 25, ..FuzzOptions::default() });
//! assert_eq!(report.finds.len(), 0, "{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod gen;
pub mod oracle;
pub mod shrink;

use std::fmt;

pub use ast::{Def, Expr, Pred, Program};
pub use gen::{generate, GenConfig, GENERATOR_VERSION};
pub use oracle::{check_source, still_fails_under, CaseOutcome, OracleConfig, SkipReason};
pub use shrink::{shrink, ShrinkStats};

use lesgs_testkit::Rng;

/// A fuzzing campaign's settings.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Base seed; each case derives its own seed via [`case_seed`].
    pub seed: u64,
    /// Number of programs to generate and judge.
    pub cases: u64,
    /// Generator settings (program size budget).
    pub gen: GenConfig,
    /// Oracle settings (fuel).
    pub oracle: OracleConfig,
    /// Worker threads judging cases concurrently (the `--jobs` flag),
    /// the calling thread included. The campaign's report, corpus
    /// files, and stdout are byte-identical for every value; `1` judges
    /// every case on the calling thread. Each check of a case or a
    /// shrink candidate still runs on a deep-stack thread of its own
    /// ([`lesgs_compiler::on_deep_stack`]).
    pub jobs: usize,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 0,
            cases: 100,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            jobs: 1,
        }
    }
}

/// A parsed `lesgs-fuzz` command line (see [`parse_cli`]).
#[derive(Debug, Clone, Default)]
pub struct CliOptions {
    /// Campaign settings.
    pub opts: FuzzOptions,
    /// `--corpus-out <dir>`: write each find to `<dir>/find-<seed>.scm`.
    pub corpus_out: Option<String>,
}

/// Parses `lesgs-fuzz` options (everything after the program name).
/// Shared by the binary and by tests that replay a printed
/// [`Find::repro_command`], so "the printed command reproduces the
/// find" is checked against the real parser rather than by hand.
///
/// # Errors
///
/// A usage message for unknown options or malformed values.
pub fn parse_cli(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut cli = CliOptions::default();
    let mut args = args;
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        let num = |what: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{what} requires a number"))
        };
        match a.as_str() {
            "--seed" => cli.opts.seed = num("--seed", value("--seed")?)?,
            "--cases" => cli.opts.cases = num("--cases", value("--cases")?)?,
            "--max-size" => {
                cli.opts.gen.max_size = num("--max-size", value("--max-size")?)? as usize
            }
            "--fuel" => cli.opts.oracle.fuel = num("--fuel", value("--fuel")?)?,
            "--jobs" => {
                cli.opts.jobs = num("--jobs", value("--jobs")?)? as usize;
                if cli.opts.jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
            }
            "--corpus-out" => cli.corpus_out = Some(value("--corpus-out")?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(cli)
}

/// Predicate-evaluation budget for shrinking each find.
const SHRINK_ATTEMPTS: usize = 2_000;

/// The seed fed to the generator for case `index` of a campaign with
/// base seed `base`. Chosen so that `case_seed(s, 0) == s`: replaying a
/// reported seed with `--cases 1` regenerates the exact program.
pub fn case_seed(base: u64, index: u64) -> u64 {
    base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One shrunk failing case.
#[derive(Debug, Clone)]
pub struct Find {
    /// The derived per-case seed ([`case_seed`]).
    pub seed: u64,
    /// The case index within the campaign.
    pub index: u64,
    /// Generator version that produced the program.
    pub generator_version: u32,
    /// The program as generated.
    pub original: String,
    /// The program after shrinking.
    pub shrunk: String,
    /// What went wrong (kind + offending configuration), as reported
    /// on the *original* program.
    pub failure: lesgs_compiler::DiffFailure,
    /// Shrink-loop accounting.
    pub shrink_stats: ShrinkStats,
}

impl Find {
    /// The exact command that replays this case: `--seed <case seed>
    /// --cases 1` plus **every campaign option whose value differs
    /// from the default** — dropping, say, a non-default `--fuel`
    /// would change the replay's budget and could reclassify a
    /// fuel-sensitive find as a skip.
    pub fn repro_command(&self, opts: &FuzzOptions) -> String {
        let defaults = FuzzOptions::default();
        let mut cmd = format!("lesgs-fuzz --seed {} --cases 1", self.seed);
        if opts.gen.max_size != defaults.gen.max_size {
            cmd.push_str(&format!(" --max-size {}", opts.gen.max_size));
        }
        if opts.oracle.fuel != defaults.oracle.fuel {
            cmd.push_str(&format!(" --fuel {}", opts.oracle.fuel));
        }
        cmd
    }

    /// Renders the find as a self-contained corpus file: a comment
    /// header (the s-expression reader skips `;` comments) followed by
    /// the shrunk source, so the file is both documentation and a
    /// directly runnable program.
    pub fn to_corpus_file(&self, opts: &FuzzOptions) -> String {
        // Failure messages can span lines (the verifier reports every
        // error); each must stay behind a `;;` so the file parses.
        let failure = self
            .failure
            .to_string()
            .lines()
            .collect::<Vec<_>>()
            .join("\n;;          ");
        format!(
            ";; lesgs-fuzz find (generator version {})\n\
             ;; seed: {} (case {})\n\
             ;; reproduce: {}\n\
             ;; failure: {}\n\
             {}",
            self.generator_version,
            self.seed,
            self.index,
            self.repro_command(opts),
            failure,
            self.shrunk
        )
    }
}

/// Campaign results.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases judged.
    pub cases: u64,
    /// Cases where every configuration agreed with the interpreter.
    pub passes: u64,
    /// Cases skipped because a fuel budget ran out.
    pub skips_fuel: u64,
    /// Cases skipped because the reference interpreter itself failed.
    pub skips_oracle: u64,
    /// Shrunk failing cases.
    pub finds: Vec<Find>,
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases: {} passed, {} skipped (fuel), {} skipped (oracle), {} finds",
            self.cases,
            self.passes,
            self.skips_fuel,
            self.skips_oracle,
            self.finds.len()
        )
    }
}

/// Generates and judges one case; on failure, shrinks it. Returns the
/// generated source alongside the verdict so callers can log or persist
/// it.
pub fn fuzz_case(index: u64, opts: &FuzzOptions) -> (String, CaseOutcome, Option<Find>) {
    let seed = case_seed(opts.seed, index);
    let prog = generate(&mut Rng::new(seed), &opts.gen);
    let src = prog.render();
    let outcome = check_source(&src, &opts.oracle);
    let find = match &outcome {
        CaseOutcome::Find(failure) => {
            let fuel = opts.oracle.fuel;
            let (small, stats) = match &failure.config {
                Some(cfg) => shrink(&prog, |s| still_fails_under(s, cfg, fuel), SHRINK_ATTEMPTS),
                None => shrink(
                    &prog,
                    |s| matches!(check_source(s, &opts.oracle), CaseOutcome::Find(_)),
                    SHRINK_ATTEMPTS,
                ),
            };
            Some(Find {
                seed,
                index,
                generator_version: GENERATOR_VERSION,
                original: src.clone(),
                shrunk: small.render(),
                failure: failure.clone(),
                shrink_stats: stats,
            })
        }
        _ => None,
    };
    (src, outcome, find)
}

/// One judged case as delivered — strictly in case order — to the
/// [`run_fuzz_observed`] visitor.
#[derive(Debug)]
pub struct CaseReport<'a> {
    /// The case index within the campaign.
    pub index: u64,
    /// The generated source.
    pub source: &'a str,
    /// The oracle's verdict.
    pub outcome: &'a CaseOutcome,
    /// The shrunk find, when the verdict was [`CaseOutcome::Find`].
    pub find: Option<&'a Find>,
}

/// The worker pool a campaign runs on: `opts.jobs` workers per chunk
/// of cases, the calling thread among them.
fn campaign_pool(opts: &FuzzOptions) -> lesgs_exec::PoolConfig {
    lesgs_exec::PoolConfig {
        name: "lesgs-fuzz".to_owned(),
        ..lesgs_exec::PoolConfig::with_workers(opts.jobs)
    }
}

/// Runs a full campaign with a per-case visitor and pool accounting.
///
/// Cases are judged concurrently on [`FuzzOptions::jobs`] workers, but
/// `visit` observes them **in case order** on the calling thread, so
/// campaign output (find printing, corpus writing) is byte-identical
/// whatever the job count. A panicking case is re-raised here, on the
/// caller, once every case before it has been visited.
///
/// # Errors
///
/// Whatever `visit` returns; the campaign stops shortly after.
pub fn run_fuzz_observed<E>(
    opts: &FuzzOptions,
    mut visit: impl FnMut(CaseReport<'_>) -> Result<(), E>,
) -> Result<(FuzzReport, lesgs_exec::PoolStats), E> {
    let mut report = FuzzReport::default();
    let stats = lesgs_exec::for_each_ordered(
        &campaign_pool(opts),
        opts.cases,
        |index| fuzz_case(index, opts),
        |index, result| {
            let (source, outcome, find) =
                result.unwrap_or_else(|p| panic!("fuzz case {index} panicked: {}", p.message));
            report.cases += 1;
            match &outcome {
                CaseOutcome::Pass => report.passes += 1,
                CaseOutcome::Skip(SkipReason::Fuel) => report.skips_fuel += 1,
                CaseOutcome::Skip(SkipReason::OracleError(_)) => report.skips_oracle += 1,
                CaseOutcome::Find(_) => {}
            }
            visit(CaseReport {
                index,
                source: &source,
                outcome: &outcome,
                find: find.as_ref(),
            })?;
            if matches!(outcome, CaseOutcome::Find(_)) {
                report
                    .finds
                    .push(find.expect("find outcome carries a Find"));
            }
            Ok(())
        },
    )?;
    Ok((report, stats))
}

/// Runs a full campaign: `opts.cases` cases from `opts.seed`, shrinking
/// every find. Deterministic: the same options always produce the same
/// report, for any [`FuzzOptions::jobs`].
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let (report, _stats) = run_fuzz_observed::<std::convert::Infallible>(opts, |_| Ok(()))
        .unwrap_or_else(|never| match never {});
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_replayable() {
        for base in [0u64, 1, 42, u64::MAX] {
            for index in [0u64, 1, 7, 499] {
                let s = case_seed(base, index);
                assert_eq!(case_seed(s, 0), s);
            }
        }
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let opts = FuzzOptions {
            cases: 30,
            ..FuzzOptions::default()
        };
        let a = run_fuzz(&opts);
        assert_eq!(a.finds.len(), 0, "unexpected finds: {a}");
        assert!(a.passes > 0, "everything skipped: {a}");
        let b = run_fuzz(&opts);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn corpus_files_keep_multiline_failures_commented() {
        let find = Find {
            seed: 9,
            index: 0,
            generator_version: gen::GENERATOR_VERSION,
            original: "(+ 1 2)".into(),
            shrunk: "(+ 1 2)\n0".into(),
            failure: lesgs_compiler::DiffFailure {
                config: None,
                kind: lesgs_compiler::DiffKind::VerifyFailed {
                    errors: vec!["error one".into(), "error two".into()],
                },
            },
            shrink_stats: ShrinkStats::default(),
        };
        let file = find.to_corpus_file(&FuzzOptions::default());
        let (header, source) = file.split_at(file.find("(+ 1 2)").expect("source present"));
        assert!(header.lines().all(|l| l.starts_with(";;")), "{file}");
        assert_eq!(source, "(+ 1 2)\n0");
    }

    fn dummy_find() -> Find {
        Find {
            seed: 77,
            index: 3,
            generator_version: gen::GENERATOR_VERSION,
            original: "(+ 1 2)".into(),
            shrunk: "(+ 1 2)".into(),
            failure: lesgs_compiler::DiffFailure {
                config: None,
                kind: lesgs_compiler::DiffKind::VmError {
                    message: "boom".into(),
                },
            },
            shrink_stats: ShrinkStats::default(),
        }
    }

    #[test]
    fn repro_command_emits_every_non_default_option() {
        let find = dummy_find();
        // All-default campaign: only seed and cases appear.
        assert_eq!(
            find.repro_command(&FuzzOptions::default()),
            "lesgs-fuzz --seed 77 --cases 1"
        );
        // A fuel-sensitive campaign must print its fuel — dropping it
        // used to reclassify fuel-sensitive finds as skips on replay.
        let mut opts = FuzzOptions::default();
        opts.oracle.fuel = 50_000;
        assert_eq!(
            find.repro_command(&opts),
            "lesgs-fuzz --seed 77 --cases 1 --fuel 50000"
        );
        opts.gen.max_size = 80;
        assert_eq!(
            find.repro_command(&opts),
            "lesgs-fuzz --seed 77 --cases 1 --max-size 80 --fuel 50000"
        );
    }

    #[test]
    fn repro_command_round_trips_through_the_cli_parser() {
        let mut opts = FuzzOptions::default();
        opts.oracle.fuel = 123_456;
        opts.gen.max_size = 99;
        let cmd = dummy_find().repro_command(&opts);
        let args = cmd.split_whitespace().skip(1).map(str::to_owned);
        let cli = parse_cli(args).expect("printed command parses");
        assert_eq!(cli.opts.seed, 77);
        assert_eq!(cli.opts.cases, 1);
        assert_eq!(cli.opts.oracle.fuel, 123_456);
        assert_eq!(cli.opts.gen.max_size, 99);
    }

    #[test]
    fn cli_parser_rejects_bad_input() {
        let parse = |s: &str| parse_cli(s.split_whitespace().map(str::to_owned));
        assert!(parse("--seed").is_err());
        assert!(parse("--cases x").is_err());
        assert!(parse("--jobs 0").is_err());
        assert!(parse("--wat 1").is_err());
        let cli = parse("--seed 9 --jobs 4 --corpus-out out").unwrap();
        assert_eq!(cli.opts.seed, 9);
        assert_eq!(cli.opts.jobs, 4);
        assert_eq!(cli.corpus_out.as_deref(), Some("out"));
    }

    #[test]
    fn parallel_campaign_report_is_identical_to_sequential() {
        let sequential = run_fuzz(&FuzzOptions {
            cases: 24,
            ..FuzzOptions::default()
        });
        let parallel = run_fuzz(&FuzzOptions {
            cases: 24,
            jobs: 4,
            ..FuzzOptions::default()
        });
        assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn skips_are_rare() {
        let report = run_fuzz(&FuzzOptions {
            cases: 60,
            ..FuzzOptions::default()
        });
        let skips = report.skips_fuel + report.skips_oracle;
        assert!(
            skips * 5 <= report.cases,
            "more than 20% skips — the generator is off target: {report}"
        );
    }
}
