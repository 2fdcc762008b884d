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
//!   --fuel <n>                  instruction budget of `run`, `stats`,
//!                               `interp` and `check`
//!   -e <expr>                   use <expr> as the program text
//! ```
//!
//! Serialized-bytecode inputs are recognized by content (the `LBC\0`
//! magic), not by file extension, and are re-verified on load; the
//! format is specified in BYTECODE.md. An option that its command does
//! not read is an error (exit 2), never silently ignored: [`READERS`]
//! says which commands read each option, from source text and from a
//! serialized program. The allocator options are read only when
//! compiling — a loaded `.lbc` carries its configuration in its
//! header. The profile schema and every metric name are documented in
//! OBSERVABILITY.md at the repository root.

use std::io::Read;
use std::process::ExitCode;

use lesgs_compiler::{
    compile_observed, config_matrix, differential_check, on_deep_stack, Compiled, CompilerConfig,
};
use lesgs_core::config::{Discipline, RestoreStrategy, SaveStrategy, ShuffleStrategy};
use lesgs_core::AllocConfig;
use lesgs_engine::{Engine, VmOutcome, MAGIC};
use lesgs_ir::MachineConfig;
use lesgs_metrics::{Json, Registry};

const COMMANDS: [&str; 7] = ["run", "compile", "stats", "dis", "ir", "interp", "check"];

/// The commands that compile source text into a program.
const COMPILING: &[&str] = &["run", "compile", "stats", "dis", "ir"];
/// The commands that take a serialized program.
const LOADING: &[&str] = &["run", "stats", "dis"];
/// The commands that execute a compiled or loaded program.
const EXECUTING: &[&str] = &["run", "stats"];

/// Which commands read each option: with source text, and with a
/// serialized program. Any other command, or a serialized program given
/// to a command outside [`LOADING`], is a usage error (exit 2).
const READERS: [(&str, &[&str], &[&str]); 14] = [
    ("--save", COMPILING, &[]),
    ("--restore", COMPILING, &[]),
    ("--shuffle", COMPILING, &[]),
    ("--callee-save", COMPILING, &[]),
    ("--regs", COMPILING, &[]),
    ("--branch-prediction", COMPILING, &[]),
    ("--lift", COMPILING, &[]),
    ("--verify-bytecode", COMPILING, LOADING),
    ("-o", &["compile"], &[]),
    ("--profile", COMPILING, LOADING),
    ("--profile=json", EXECUTING, EXECUTING),
    ("--profile-out", COMPILING, LOADING),
    // Compiling traces its passes, executing its calls.
    ("--trace", COMPILING, EXECUTING),
    ("--fuel", &["run", "stats", "interp", "check"], EXECUTING),
];

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
}

fn usage() -> ! {
    eprintln!(
        "usage: lesgsc [run|compile|stats|dis|ir|interp|check] [options] <file.scm|file.lbc|->\n\
         options: --save lazy|early|late  --restore eager|lazy\n\
         \x20        --shuffle greedy|fixed  --callee-save  --regs <0..6>\n\
         \x20        --branch-prediction  --lift  --verify-bytecode  -o <file>\n\
         \x20        --profile[=json]  --profile-out <file>  --trace\n\
         \x20        --fuel <n>  -e <expr>"
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
    if let None | Some("--help" | "-h") = args.peek().map(String::as_str) {
        usage();
    }
    // The command is optional and defaults to `run`: the first
    // positional argument that names a command is the command, wherever
    // it stands, and any other is the input (so a file named like a
    // command is passed as `./run`).
    let mut command: Option<String> = None;
    let mut alloc = AllocConfig::paper_default();
    let mut fuel = 0u64;
    let mut lambda_lift = false;
    let mut verify_bytecode = false;
    let mut out: Option<String> = None;
    let mut profile = ProfileMode::Off;
    let mut profile_out: Option<String> = None;
    let mut trace = false;
    let mut input: Option<Input> = None;
    let mut given = Vec::new();
    while let Some(a) = args.next() {
        given.extend(READERS.iter().filter(|(option, ..)| *option == a));
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
            "-e" => input = Some(Input::Source(value("-e")?)),
            "-" => {
                let mut buf = Vec::new();
                std::io::stdin()
                    .read_to_end(&mut buf)
                    .map_err(|e| e.to_string())?;
                input = Some(classify(buf, "<stdin>")?);
            }
            cmd if command.is_none() && COMMANDS.contains(&cmd) => command = Some(a),
            path if !path.starts_with('-') => {
                let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
                input = Some(classify(bytes, path)?);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let command = command.unwrap_or_else(|| "run".to_owned());
    let input = input.ok_or_else(|| "no program given".to_owned())?;
    let blob = matches!(input, Input::Blob(_));
    if blob && !LOADING.contains(&command.as_str()) {
        return Err(format!(
            "`{command}` needs source text; serialized bytecode works with {}",
            LOADING.join(", ")
        ));
    }
    for (option, from_source, from_blob) in given {
        let readers = if blob { from_blob } else { from_source };
        if !readers.contains(&command.as_str()) {
            let with = if blob {
                " with serialized bytecode"
            } else {
                ""
            };
            let only = match readers.join(", ") {
                none if none.is_empty() => none,
                some => format!(" (only to {some})"),
            };
            return Err(format!(
                "`{option}` does not apply to `{command}`{with}{only}"
            ));
        }
    }
    if command == "compile" && out.is_none() {
        return Err("`compile` requires -o <out.lbc>".to_owned());
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
    })
}

/// Emits the profile in the requested mode: the JSON document (schema
/// in OBSERVABILITY.md) or the metric table.
fn emit_profile(opts: &Options, outcome: Option<&VmOutcome>, reg: &Registry) -> Result<(), String> {
    let document = || {
        let mut doc = Json::object([
            ("schema_version", Json::UInt(1)),
            ("tool", Json::from("lesgsc")),
            ("command", Json::from(opts.command.as_str())),
        ]);
        if let Some(out) = outcome {
            doc.push_field("value", Json::from(out.value.as_str()));
            doc.push_field("output", Json::from(out.output.as_str()));
        }
        doc.push_field("metrics", reg.to_json(true));
        doc.pretty()
    };
    if let Some(path) = &opts.profile_out {
        return std::fs::write(path, document()).map_err(|e| format!("{path}: {e}"));
    }
    match opts.profile {
        ProfileMode::Off => {}
        ProfileMode::Human => eprint!("{}", reg.render_table()),
        ProfileMode::Json => print!("{}", document()),
    }
    Ok(())
}

/// Prints the program's result, and its `stats`-mode instrumentation
/// dump when asked. `shuffle` is present only when the program was
/// compiled in-process (the allocated IR does not survive
/// serialization).
fn report_outcome(
    opts: &Options,
    out: &VmOutcome,
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
    if opts.command == "stats" {
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

fn main() -> ExitCode {
    // Compiling and interpreting recurse once per level of program
    // nesting; the main thread's stack would cap that depth lower.
    on_deep_stack(lesgsc)
}

/// Exit status 2 for bad arguments, 1 for a failure of the command.
fn lesgsc() -> ExitCode {
    let (status, result) = match parse_args() {
        Ok(opts) => (ExitCode::FAILURE, drive(&opts)),
        Err(e) => (ExitCode::from(2), Err(e)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lesgsc: {e}");
            status
        }
    }
}

/// Carries out the parsed command. The error is printed after a
/// `lesgsc: ` prefix.
fn drive(opts: &Options) -> Result<(), String> {
    let cmd = opts.command.as_str();
    // A budget of 0 means the command's default.
    let fuel = |default| match opts.config.fuel {
        0 => default,
        n => n,
    };
    // `interp` and `check` read source text and hold no compiled
    // program of their own.
    match (cmd, &opts.input) {
        ("interp", Input::Source(src)) => {
            let out = lesgs_interp::run_source(src, fuel(u64::MAX)).map_err(|e| e.to_string())?;
            print!("{}", out.output);
            println!("{}", out.value);
            return Ok(());
        }
        ("check", Input::Source(src)) => {
            differential_check(src, &config_matrix(), fuel(200_000_000))
                .map_err(|e| e.to_string())?;
            println!(
                "ok: interpreter and all {} configurations agree",
                config_matrix().len()
            );
            return Ok(());
        }
        _ => {}
    }

    // The program: compiled here from source, or loaded (deserialized
    // and re-verified) from a blob. Only a compiled one keeps the
    // allocator's output, which `ir` and the `shuffle:` line need.
    let mut reg = Registry::new();
    let (from_source, from_blob);
    let (vm, compiled) = match &opts.input {
        Input::Source(src) => {
            from_source =
                compile_observed(src, &opts.config, &mut reg).map_err(|e| e.to_string())?;
            (&from_source.vm, Some(&from_source))
        }
        Input::Blob(bytes) => {
            from_blob = Engine::with_config(opts.config)
                .load_program(bytes)
                .map_err(|e| e.to_string())?;
            (from_blob.vm(), None)
        }
    };
    if opts.verify_bytecode {
        let errors = lesgs_vm::verify_bytecode(vm);
        if !errors.is_empty() {
            // One `lesgsc: ` line per complaint.
            let lines: Vec<String> = errors.iter().map(ToString::to_string).collect();
            return Err(lines.join("\nlesgsc: "));
        }
        eprintln!(
            "lesgsc: bytecode verified ({} functions, {} instructions)",
            vm.funcs.len(),
            vm.code_size()
        );
    }
    let outcome = match cmd {
        "compile" => {
            let bytes = lesgs_engine::serialize_program(vm, &opts.config.alloc);
            let path = opts.out.as_deref().expect("validated");
            std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "lesgsc: wrote {path} ({} bytes, {} functions, {} instructions)",
                bytes.len(),
                vm.funcs.len(),
                vm.code_size()
            );
            None
        }
        "dis" => {
            print!("{}", vm.disassemble());
            None
        }
        "ir" => {
            let compiled = compiled.expect("`ir` takes source text only");
            for f in &compiled.allocated.funcs {
                println!(
                    "{} ({}) leaf={} inevitable={}",
                    f.id, f.name, f.syntactic_leaf, f.call_inevitable
                );
                println!("  {}", f.body);
            }
            None
        }
        "run" | "stats" => {
            let out = opts.config.machine(vm).run().map_err(|e| e.to_string())?;
            report_outcome(opts, &out, compiled.map(Compiled::shuffle_stats));
            out.stats.record(&mut reg);
            Some(out)
        }
        _ => unreachable!("command validated"),
    };
    emit_profile(opts, outcome.as_ref(), &reg)
}
