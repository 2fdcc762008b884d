//! `lesgsc` — command-line driver for the lesgs mini-Scheme compiler.
//!
//! ```text
//! lesgsc run      [options] <file.scm|file.lbc|->  compile (or load) and execute
//! lesgsc compile  [options] -o <out.lbc> <file.scm|->  compile to serialized bytecode
//! lesgsc stats    [options] <file.scm|file.lbc|->  execute and dump instrumentation
//! lesgsc dis      [options] <file.scm|file.lbc|->  disassemble generated VM code
//! lesgsc ir       [options] <file.scm|->           dump the allocated IR
//! lesgsc interp   <file.scm|->                     run the reference interpreter
//! lesgsc check    [options] <file.scm|->           differential-check vs the interpreter
//!
//! options:
//!   --save lazy|early|late      save strategy        (default lazy)
//!   --restore eager|lazy        restore strategy     (default eager)
//!   --shuffle greedy|fixed      argument shuffling   (default greedy)
//!   --callee-save               use the §2.4 callee-save discipline
//!   --regs <0..6>               argument registers   (default 6)
//!   --branch-prediction         enable §6 static branch prediction
//!   --lift                      enable selective lambda lifting (§6)
//!   --verify-bytecode           abstract-interpret the generated code and
//!                               reject save/restore or frame violations
//!   -o <file>                   output path for `compile`
//!   --profile                   print the metrics registry as a table (stderr)
//!   --profile=json              print the profile as JSON on stdout (the
//!                               program's own output moves to stderr)
//!   --profile-out <file>        write the JSON profile to <file>
//!   --trace                     log pass boundaries and VM call events
//!   --fuel <n>                  VM instruction budget
//!   --jobs <n>                  worker threads for `check`'s 22-config
//!                               matrix (default 1; verdicts identical)
//!   -e <expr>                   use <expr> as the program text
//! ```
//!
//! Serialized-bytecode inputs are recognized by content (the `LBC\0`
//! magic), not by file extension, and are re-verified on load; the
//! format is specified in BYTECODE.md. Allocator options apply only
//! when compiling — a loaded `.lbc` carries its configuration in its
//! header. The profile schema and every metric name are documented in
//! OBSERVABILITY.md at the repository root.

use std::io::Read;
use std::process::ExitCode;

use lesgs_compiler::{
    compile_observed, config_matrix, differential_check_parallel, CompilerConfig,
};
use lesgs_core::config::{Discipline, RestoreStrategy, SaveStrategy, ShuffleStrategy};
use lesgs_core::AllocConfig;
use lesgs_engine::{Engine, MAGIC};
use lesgs_ir::MachineConfig;
use lesgs_metrics::{Json, Registry};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    Off,
    Human,
    Json,
}

/// Program input: source text, or an already-serialized program
/// (recognized by the `LBC\0` magic, whatever the file is named).
enum Input {
    Source(String),
    Blob(Vec<u8>),
}

struct Options {
    command: String,
    input: Input,
    config: CompilerConfig,
    verify_bytecode: bool,
    out: Option<String>,
    profile: ProfileMode,
    profile_out: Option<String>,
    jobs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: lesgsc [run|compile|stats|dis|ir|interp|check] [options] <file.scm|file.lbc|->\n\
         options: --save lazy|early|late  --restore eager|lazy\n\
         \x20        --shuffle greedy|fixed  --callee-save  --regs <0..6>\n\
         \x20        --branch-prediction  --lift  --verify-bytecode  -o <file>\n\
         \x20        --profile[=json]  --profile-out <file>  --trace\n\
         \x20        --fuel <n>  --jobs <n>  -e <expr>"
    );
    std::process::exit(2);
}

/// Classifies raw input bytes: serialized bytecode by magic, source
/// text otherwise (which must be UTF-8).
fn classify(bytes: Vec<u8>, origin: &str) -> Result<Input, String> {
    if bytes.len() >= 4 && bytes[..4] == MAGIC {
        return Ok(Input::Blob(bytes));
    }
    String::from_utf8(bytes)
        .map(Input::Source)
        .map_err(|_| format!("{origin}: neither UTF-8 source text nor serialized bytecode"))
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1).peekable();
    // The command is optional; a leading option or path means `run`.
    let command = match args.peek() {
        None => usage(),
        Some(first)
            if ["run", "compile", "stats", "dis", "ir", "interp", "check"]
                .contains(&first.as_str()) =>
        {
            args.next().expect("peeked")
        }
        Some(first) if first == "--help" || first == "-h" => usage(),
        Some(_) => "run".to_owned(),
    };
    let mut alloc = AllocConfig::paper_default();
    let mut fuel = 0u64;
    let mut lambda_lift = false;
    let mut verify_bytecode = false;
    let mut out: Option<String> = None;
    let mut profile = ProfileMode::Off;
    let mut profile_out: Option<String> = None;
    let mut trace = false;
    let mut jobs = 1usize;
    let mut input: Option<Input> = None;
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match a.as_str() {
            "--save" => {
                alloc.save = match value("--save")?.as_str() {
                    "lazy" => SaveStrategy::Lazy,
                    "early" => SaveStrategy::Early,
                    "late" => SaveStrategy::Late,
                    other => return Err(format!("unknown save strategy `{other}`")),
                }
            }
            "--restore" => {
                alloc.restore = match value("--restore")?.as_str() {
                    "eager" => RestoreStrategy::Eager,
                    "lazy" => RestoreStrategy::Lazy,
                    other => return Err(format!("unknown restore strategy `{other}`")),
                }
            }
            "--shuffle" => {
                alloc.shuffle = match value("--shuffle")?.as_str() {
                    "greedy" => ShuffleStrategy::Greedy,
                    "fixed" => ShuffleStrategy::FixedOrder,
                    other => return Err(format!("unknown shuffle strategy `{other}`")),
                }
            }
            "--callee-save" => alloc.discipline = Discipline::CalleeSave,
            "--branch-prediction" => alloc.branch_prediction = true,
            "--lift" => lambda_lift = true,
            "--verify-bytecode" => verify_bytecode = true,
            "-o" => out = Some(value("-o")?),
            "--profile" => profile = ProfileMode::Human,
            "--profile=json" => profile = ProfileMode::Json,
            "--profile-out" => {
                profile_out = Some(value("--profile-out")?);
                if profile == ProfileMode::Off {
                    profile = ProfileMode::Json;
                }
            }
            "--trace" => trace = true,
            "--regs" => {
                let n: usize = value("--regs")?
                    .parse()
                    .map_err(|_| "--regs requires a number".to_owned())?;
                if n > 6 {
                    return Err("--regs accepts 0..6".to_owned());
                }
                alloc.machine = MachineConfig::with_arg_regs(n);
            }
            "--fuel" => {
                fuel = value("--fuel")?
                    .parse()
                    .map_err(|_| "--fuel requires a number".to_owned())?;
            }
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs requires a number".to_owned())?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
            }
            "-e" => input = Some(Input::Source(value("-e")?)),
            "-" => {
                let mut buf = Vec::new();
                std::io::stdin()
                    .read_to_end(&mut buf)
                    .map_err(|e| e.to_string())?;
                input = Some(classify(buf, "<stdin>")?);
            }
            path if !path.starts_with('-') => {
                let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
                input = Some(classify(bytes, path)?);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let input = input.ok_or_else(|| "no program given".to_owned())?;
    if matches!(input, Input::Blob(_)) && !["run", "stats", "dis"].contains(&command.as_str()) {
        return Err(format!(
            "`{command}` needs source text; serialized bytecode works with run, stats, and dis"
        ));
    }
    if command == "compile" && out.is_none() {
        return Err("`compile` requires -o <out.lbc>".to_owned());
    }
    if out.is_some() && command != "compile" {
        return Err("-o only applies to `compile`".to_owned());
    }
    if profile == ProfileMode::Json
        && profile_out.is_none()
        && !["run", "stats"].contains(&command.as_str())
    {
        return Err("--profile=json needs `run` or `stats` (or --profile-out <file>)".to_owned());
    }
    Ok(Options {
        command,
        input,
        config: CompilerConfig {
            alloc,
            fuel,
            lambda_lift,
            trace,
            ..CompilerConfig::default()
        },
        verify_bytecode,
        out,
        profile,
        profile_out,
        jobs,
    })
}

/// Assembles the `--profile` JSON document (schema in OBSERVABILITY.md).
fn profile_document(
    command: &str,
    value: Option<&str>,
    output: Option<&str>,
    reg: &Registry,
) -> Json {
    let mut doc = Json::object([
        ("schema_version", Json::UInt(1)),
        ("tool", Json::from("lesgsc")),
        ("command", Json::from(command)),
    ]);
    if let Some(v) = value {
        doc.push_field("value", Json::from(v));
    }
    if let Some(o) = output {
        doc.push_field("output", Json::from(o));
    }
    doc.push_field("metrics", reg.to_json(true));
    doc
}

/// Emits the profile in the requested mode. Returns an error message on
/// I/O failure.
fn emit_profile(opts: &Options, doc: &Json, reg: &Registry) -> Result<(), String> {
    if let Some(path) = &opts.profile_out {
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
        return Ok(());
    }
    match opts.profile {
        ProfileMode::Off => {}
        ProfileMode::Human => eprint!("{}", reg.render_table()),
        ProfileMode::Json => print!("{}", doc.pretty()),
    }
    Ok(())
}

/// Prints the program's result, and its `stats`-mode instrumentation
/// dump when asked. `shuffle` is present only when the program was
/// compiled in-process (the allocated IR does not survive
/// serialization).
fn report_outcome(
    opts: &Options,
    cmd: &str,
    out: &lesgs_engine::VmOutcome,
    shuffle: Option<lesgs_core::stats::ShuffleStats>,
) {
    // In pure-JSON mode the program's own output moves to stderr so
    // stdout is one document.
    let json_on_stdout = opts.profile == ProfileMode::Json && opts.profile_out.is_none();
    if json_on_stdout {
        eprint!("{}", out.output);
        eprintln!("{}", out.value);
    } else {
        print!("{}", out.output);
        println!("{}", out.value);
    }
    if cmd == "stats" {
        let s = &out.stats;
        eprintln!("instructions:  {}", s.instructions);
        eprintln!("cycles:        {}", s.cycles);
        eprintln!("stalls:        {}", s.stall_cycles);
        eprintln!("stack refs:    {}", s.stack_refs());
        eprintln!("saves:         {}", s.saves());
        eprintln!("restores:      {}", s.restores());
        eprintln!("calls:         {}", s.calls);
        eprintln!("tail calls:    {}", s.tail_calls);
        eprintln!(
            "effective leaf activations: {:.1}%",
            100.0 * s.effective_leaf_fraction()
        );
        if let Some(st) = shuffle {
            eprintln!(
                "shuffle: {} sites, {} with cycles, greedy {} temps (optimal {})",
                st.call_sites, st.sites_with_cycles, st.greedy_temps, st.optimal_temps
            );
        }
    }
}

/// The `run`/`stats`/`dis` path for serialized-bytecode input:
/// deserialize, re-verify, pre-decode, execute.
fn main_blob(opts: &Options, bytes: &[u8]) -> ExitCode {
    let fail = |e: String| -> ExitCode {
        eprintln!("lesgsc: {e}");
        ExitCode::FAILURE
    };
    let engine = Engine::with_config(opts.config);
    let program = match engine.load_program(bytes) {
        Ok(p) => p,
        Err(e) => return fail(e.to_string()),
    };
    if opts.verify_bytecode {
        // Loading already re-verified; report in the same shape as the
        // compile path.
        eprintln!(
            "lesgsc: bytecode verified ({} functions, {} instructions)",
            program.vm().funcs.len(),
            program.code_size()
        );
    }
    let mut reg = Registry::new();
    match opts.command.as_str() {
        "dis" => {
            print!("{}", program.disassemble());
            let doc = profile_document("dis", None, None, &reg);
            if let Err(e) = emit_profile(opts, &doc, &reg) {
                return fail(e);
            }
            ExitCode::SUCCESS
        }
        cmd => match engine.execute(&program) {
            Ok(out) => {
                report_outcome(opts, cmd, &out, None);
                out.stats.record(&mut reg);
                let doc = profile_document(cmd, Some(&out.value), Some(&out.output), &reg);
                if let Err(e) = emit_profile(opts, &doc, &reg) {
                    return fail(e);
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(e.to_string()),
        },
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lesgsc: {e}");
            return ExitCode::from(2);
        }
    };

    let fail = |e: String| -> ExitCode {
        eprintln!("lesgsc: {e}");
        ExitCode::FAILURE
    };

    let source = match &opts.input {
        Input::Blob(bytes) => return main_blob(&opts, bytes),
        Input::Source(src) => src.clone(),
    };

    match opts.command.as_str() {
        "interp" => {
            let fuel = if opts.config.fuel == 0 {
                u64::MAX
            } else {
                opts.config.fuel
            };
            match lesgs_interp::run_source(&source, fuel) {
                Ok(out) => {
                    print!("{}", out.output);
                    println!("{}", out.value);
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e.to_string()),
            }
        }
        "check" => {
            let fuel = if opts.config.fuel == 0 {
                200_000_000
            } else {
                opts.config.fuel
            };
            match differential_check_parallel(&source, &config_matrix(), fuel, opts.jobs) {
                Ok(()) => {
                    println!(
                        "ok: interpreter and all {} configurations agree",
                        config_matrix().len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e.to_string()),
            }
        }
        cmd => {
            let mut reg = Registry::new();
            let compiled = match compile_observed(&source, &opts.config, &mut reg) {
                Ok(c) => c,
                Err(e) => return fail(e.to_string()),
            };
            if opts.verify_bytecode {
                let errors = lesgs_vm::verify_bytecode(&compiled.vm);
                if !errors.is_empty() {
                    for e in &errors {
                        eprintln!("lesgsc: {e}");
                    }
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "lesgsc: bytecode verified ({} functions, {} instructions)",
                    compiled.vm.funcs.len(),
                    compiled.vm.code_size()
                );
            }
            match cmd {
                "compile" => {
                    let bytes = lesgs_engine::serialize_program(&compiled.vm, &opts.config.alloc);
                    let path = opts.out.as_deref().expect("validated");
                    if let Err(e) = std::fs::write(path, &bytes) {
                        return fail(format!("{path}: {e}"));
                    }
                    eprintln!(
                        "lesgsc: wrote {path} ({} bytes, {} functions, {} instructions)",
                        bytes.len(),
                        compiled.vm.funcs.len(),
                        compiled.vm.code_size()
                    );
                    let doc = profile_document(cmd, None, None, &reg);
                    if let Err(e) = emit_profile(&opts, &doc, &reg) {
                        return fail(e);
                    }
                    ExitCode::SUCCESS
                }
                "dis" => {
                    print!("{}", compiled.vm.disassemble());
                    let doc = profile_document(cmd, None, None, &reg);
                    if let Err(e) = emit_profile(&opts, &doc, &reg) {
                        return fail(e);
                    }
                    ExitCode::SUCCESS
                }
                "ir" => {
                    for f in &compiled.allocated.funcs {
                        println!(
                            "{} ({}) leaf={} inevitable={}",
                            f.id, f.name, f.syntactic_leaf, f.call_inevitable
                        );
                        println!("  {}", f.body);
                    }
                    let doc = profile_document(cmd, None, None, &reg);
                    if let Err(e) = emit_profile(&opts, &doc, &reg) {
                        return fail(e);
                    }
                    ExitCode::SUCCESS
                }
                "run" | "stats" => match compiled.run(&opts.config) {
                    Ok(out) => {
                        report_outcome(&opts, cmd, &out, Some(compiled.shuffle_stats()));
                        out.stats.record(&mut reg);
                        let doc = profile_document(cmd, Some(&out.value), Some(&out.output), &reg);
                        if let Err(e) = emit_profile(&opts, &doc, &reg) {
                            return fail(e);
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(e.to_string()),
                },
                _ => unreachable!("command validated"),
            }
        }
    }
}
