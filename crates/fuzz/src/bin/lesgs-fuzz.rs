//! `lesgs-fuzz` — differential fuzzing driver.
//!
//! ```text
//! lesgs-fuzz [options]
//!
//! options:
//!   --seed <n>         base seed                      (default 0)
//!   --cases <n>        number of programs to judge    (default 100)
//!   --max-size <n>     generator size budget          (default 160)
//!   --fuel <n>         step/instruction budget        (default 20000000)
//!   --jobs <n>         worker threads judging cases   (default 1)
//!   --corpus-out <dir> write each shrunk find to <dir>/find-<seed>.scm
//! ```
//!
//! Every case derives its seed from `--seed` and its index; a reported
//! find prints the exact command — including every non-default option —
//! that replays it. Output is deterministic for fixed options: stdout
//! and corpus files are byte-identical for every `--jobs` value (worker
//! accounting goes to stderr). Exit status: 0 when no finds, 1 when at
//! least one find, 2 on usage or I/O errors.

use std::process::ExitCode;

use lesgs_fuzz::{parse_cli, run_fuzz_observed, CaseOutcome, CaseReport};

fn usage() -> ! {
    eprintln!(
        "usage: lesgs-fuzz [--seed <n>] [--cases <n>] [--max-size <n>]\n\
         \x20                 [--fuel <n>] [--jobs <n>]\n\
         \x20                 [--corpus-out <dir>]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("lesgs-fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    let opts = &cli.opts;
    let campaign = run_fuzz_observed(opts, |case: CaseReport<'_>| -> Result<(), String> {
        if !matches!(case.outcome, CaseOutcome::Find(_)) {
            return Ok(());
        }
        let find = case.find.expect("find outcome carries a Find");
        println!("FIND at case {} (seed {}):", find.index, find.seed);
        println!("  failure: {}", find.failure);
        println!(
            "  shrunk {} -> {} bytes in {} attempts ({} accepted)",
            find.original.len(),
            find.shrunk.len(),
            find.shrink_stats.attempts,
            find.shrink_stats.accepted
        );
        println!("  reproduce: {}", find.repro_command(opts));
        for line in find.shrunk.lines() {
            println!("  | {line}");
        }
        if let Some(dir) = &cli.corpus_out {
            let path = format!("{dir}/find-{}.scm", find.seed);
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, find.to_corpus_file(opts)))
                .map_err(|e| format!("{path}: {e}"))?;
            println!("  written: {path}");
        }
        Ok(())
    });
    let (report, stats) = match campaign {
        Ok(done) => done,
        Err(e) => {
            eprintln!("lesgs-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{report}");
    if opts.jobs > 1 {
        eprintln!("lesgs-fuzz: exec: {}", stats.summary());
    }
    if report.finds.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
